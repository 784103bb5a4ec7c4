//! The checkpoint store is a cache that rebuilds itself, so its reader
//! speaks exactly one format version and a file of any other is a clean
//! **miss**: not decoded, not damage, not reported — counted `ckpt.miss`,
//! never `ckpt.corrupt`, with no `artifact_damaged` event — and
//! overwritten by the save that follows the miss. Held here end to end:
//! a store whose every file (training profile, prefix, overlays) says
//! version 13 — the one whose L2 lost the dirty bit of a line a prefetch
//! promoted from the SLC —, 12 — the one whose LRU levels kept one clock
//! per set —, 11 — the one whose overlays kept in-flight slot positions —,
//! 10 — the one whose overlays held frames and the stride table — or 9
//! — the one whose payloads rested LZ-packed — makes the
//! next preparation train again and the next sweep do what it does over
//! an empty store, to the same bits, leaving current files behind. (A
//! capture of another version is the trace reader's to refuse:
//! `trace/tests/properties.rs`.)
//!
//! One `#[test]` on purpose: the counters and the journal are
//! process-wide.

mod common;

use std::path::{Path, PathBuf};

use common::assert_same_sweep;
use trrip_core::ClassifierConfig;
use trrip_policies::PolicyKind;
use trrip_sim::{policy_cells, policy_sweep_with, CheckpointStore, PreparedWorkload, SimConfig};
use trrip_snap::corrupt;
use trrip_workloads::WorkloadSpec;

const POLICIES: [PolicyKind; 3] = [PolicyKind::Srrip, PolicyKind::Ship, PolicyKind::Trrip1];
const CELLS: u64 = POLICIES.len() as u64;

/// A container keeps its little-endian version at bytes 8–9, after an
/// 8-byte magic and outside anything a checksum covers: the field can be
/// rewritten with nothing else to fix up.
const VERSION_OFFSET: usize = 8;

fn version_of(path: &Path) -> u16 {
    let bytes = std::fs::read(path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    u16::from_le_bytes([bytes[VERSION_OFFSET], bytes[VERSION_OFFSET + 1]])
}

fn files_of(store: &CheckpointStore) -> Vec<PathBuf> {
    let entries = std::fs::read_dir(store.dir()).expect("the store's directory");
    entries.map(|entry| entry.expect("a directory entry").path()).collect()
}

/// Stamps every file of the store with `version`; how many there were.
fn stamp_all(store: &CheckpointStore, version: u16) -> usize {
    let files = files_of(store);
    for file in &files {
        corrupt::set_bytes(file, VERSION_OFFSET, &version.to_le_bytes());
    }
    files.len()
}

/// What `work` moved, by counter name.
fn moved_by<T>(work: impl FnOnce() -> T) -> (T, trrip_obs::CounterSnapshot) {
    let before = trrip_obs::snapshot();
    let result = work();
    (result, trrip_obs::snapshot().since(&before))
}

/// `[ckpt.hit, ckpt.miss, ckpt.corrupt, ckpt.save]`.
fn store_counts(moved: &trrip_obs::CounterSnapshot) -> [u64; 4] {
    ["hit", "miss", "corrupt", "save"].map(|what| moved.get(&format!("ckpt.{what}")))
}

/// `[overlay_restore, tail_replay, recorded_warmup, cold_warmup]`: cells
/// that restored, cells that warmed and left an overlay, prefixes
/// written, cells that warmed with no store attached.
fn routes(moved: &trrip_obs::CounterSnapshot) -> [u64; 4] {
    ["overlay_restore", "tail_replay", "recorded_warmup", "cold_warmup"]
        .map(|route| moved.get(&format!("warm.{route}")))
}

#[test]
fn files_of_another_version_are_misses_and_are_written_again() {
    let root = std::env::temp_dir().join(format!("trrip-old-version-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let ckpts = CheckpointStore::new(root.join("ckpts"));
    let journal = root.join("journal.jsonl");
    std::fs::create_dir_all(&root).expect("scratch dir");
    trrip_obs::journal::init(&journal, 100_000).expect("open a journal");

    let mut spec = WorkloadSpec::named("old-version");
    spec.functions = 50;
    spec.hot_rotation = 8;
    const TRAIN: u64 = 100_000;
    let prepare = || {
        let classifier = ClassifierConfig::llvm_defaults();
        PreparedWorkload::prepare_with(&spec, TRAIN, classifier, Some(&ckpts))
    };
    // Over an empty store the preparation trains and keeps its profile.
    let (prepared, trained) = moved_by(prepare);
    assert_eq!(store_counts(&trained), [0, 1, 0, 1], "a miss, then the profile saved");
    assert!(trained.get("walk.instrs") >= TRAIN, "trained");
    let workloads = [prepared];
    let mut config = SimConfig::quick(PolicyKind::Srrip);
    config.fast_forward = 20_000;
    config.instructions = 45_000;
    let stream = config.fast_forward + config.instructions;

    let cells = policy_cells(&config, &POLICIES);
    let oracle = policy_sweep_with(2, &workloads, &cells, None);
    let pushed = || policy_sweep_with(2, &workloads, &cells, Some(&ckpts));

    // Populate: prefix and overlays — over an empty store first, which
    // is what the stale store below is held to.
    let (_, empty_push) = moved_by(pushed);
    assert_eq!(routes(&empty_push), [0, CELLS, 1, 0]);
    let files = files_of(&ckpts).len();
    assert_eq!(files as u64, 2 + CELLS, "profile, prefix, overlays");
    let current = version_of(&ckpts.prefix_path(&workloads[0], &cells));
    assert_eq!(current, trrip_sim::checkpoint::VERSION);
    assert_eq!(version_of(&ckpts.profile_path(&spec, TRAIN)), current);

    // ---- a preparation and a sweep over a store of an earlier version ----
    // 13: the store whose L2 lost the dirty bit of a line a prefetch
    // promoted from the SLC; 12: the one whose LRU levels kept one clock
    // per set; 11: the one
    // whose overlays kept in-flight slot positions; 10: the one whose
    // overlays held the page table and the stride table; 9: the one whose
    // payloads rested LZ-packed.
    for stale in [13, 12, 11, 10, 9] {
        assert_eq!(stamp_all(&ckpts, stale), files);
        let (retrained, moved) = moved_by(prepare);
        assert_eq!(retrained.profile, workloads[0].profile, "the same profile, trained again");
        assert_eq!(store_counts(&moved), store_counts(&trained), "a clean miss, then a save");
        assert!(moved.get("walk.instrs") >= TRAIN, "the profile is trained again");
        let (again, moved) = moved_by(pushed);
        assert_same_sweep(&again, &oracle, &format!("sweep over a version {stale} store"));
        assert_eq!(routes(&moved), routes(&empty_push), "as over an empty store");
        assert_eq!(
            (moved.get("ckpt.hit"), moved.get("ckpt.miss"), moved.get("ckpt.corrupt")),
            (0, empty_push.get("ckpt.miss"), 0),
            "every load a miss, none of them damage"
        );
        assert_eq!(moved.get("ckpt.save"), empty_push.get("ckpt.save"));
        assert!(moved.get("walk.instrs") >= stream, "the warm-up is walked again");
        assert_eq!(files_of(&ckpts).len(), files);
        for file in files_of(&ckpts) {
            assert_eq!(version_of(&file), current, "{} is written again", file.display());
        }
    }
    // And what was written is what a warm pass restores from.
    let (warm, moved) = moved_by(pushed);
    assert_same_sweep(&warm, &oracle, "sweep over the rewritten store");
    assert_eq!(routes(&moved), [CELLS, 0, 0, 0]);
    assert_eq!(moved.get("ckpt.miss") + moved.get("ckpt.corrupt"), 0);
    let (_, moved) = moved_by(prepare);
    assert_eq!(store_counts(&moved), [1, 0, 0, 0], "the rewritten profile loads");
    assert_eq!(moved.get("walk.instrs"), 0, "and nothing is trained");

    trrip_obs::journal::close().expect("the journal was open");
    let journal = trrip_obs::read_journal(&journal).expect("read the journal back");
    assert_eq!(journal.of_kind("artifact_damaged").count(), 0, "nothing was reported as damage");
    assert!(journal.of_kind("warm_start").count() > 0, "…by a journal that was listening");
    std::fs::remove_dir_all(&root).ok();
}
