//! Checkpoint correctness: restore-then-measure must be bit-identical
//! to an uninterrupted run — for every policy, at the fast-forward
//! boundary, the one place a checkpoint is taken — and damaged files
//! must be rejected.

mod common;

use common::assert_same_sweep;
use proptest::prelude::*;
use trrip_compiler::LayoutKind;
use trrip_core::ClassifierConfig;
use trrip_policies::PolicyKind;
use trrip_sim::capture::workload_fingerprint;
use trrip_sim::{
    policy_cells, policy_sweep_with, read_checkpoint, simulate, warmup_config_hash,
    write_checkpoint_kind, CheckpointError, CheckpointStore, PreparedWorkload, SimConfig, SimRun,
    SnapReader, SnapWriter, Snapshot,
};
use trrip_snap::corrupt;
use trrip_trace::SourceIter;
use trrip_workloads::{InputSet, TraceGenerator, WorkloadSpec};

fn quick_workload() -> PreparedWorkload {
    let mut spec = WorkloadSpec::named("ckpt-test");
    spec.functions = 50;
    spec.hot_rotation = 8;
    // Train long enough that classifier-percentile variants produce
    // distinct placements (the keying test depends on it).
    PreparedWorkload::prepare(&spec, 400_000, ClassifierConfig::llvm_defaults())
}

fn quick_config(policy: PolicyKind) -> SimConfig {
    let mut c = SimConfig::quick(policy);
    c.fast_forward = 20_000;
    c.instructions = 60_000;
    c
}

fn walker<'a>(w: &'a PreparedWorkload, config: &'a SimConfig) -> SourceIter<TraceGenerator<'a>> {
    let object = w.object(config.layout);
    SourceIter::new(TraceGenerator::new(&w.program, object, &w.spec, InputSet::Eval))
}

#[test]
fn restore_then_measure_is_bit_identical_for_every_policy() {
    let w = quick_workload();
    let dir = std::env::temp_dir().join("trrip-ckpt-roundtrip-test");
    std::fs::remove_dir_all(&dir).ok();
    let store = CheckpointStore::new(&dir);

    for policy in PolicyKind::PAPER_SET {
        let config = quick_config(policy);

        // Oracle: the uninterrupted walker run.
        let uninterrupted = simulate(&w, &config);

        // Cold phase-machine run: fast-forward, persist, then measure.
        assert!(store.load(&w, &config).expect("load").is_none(), "{policy}: stale checkpoint");
        let mut cold = SimRun::new(&w, &config);
        let mut stream = walker(&w, &config);
        cold.fast_forward(&mut stream);
        store.save(&cold).expect("save checkpoint");

        // The machine state is a fixed point of save → restore → save.
        let mut first = SnapWriter::new();
        cold.save(&mut first);
        let mut restored = SimRun::new(&w, &config);
        restored.restore(&mut SnapReader::new(first.bytes())).expect("restore machine state");
        let mut second = SnapWriter::new();
        restored.save(&mut second);
        assert_eq!(first.bytes(), second.bytes(), "{policy}: snapshot round-trip drifted");

        // A full state is its two halves: the `SHRD` section, then the
        // overlay byte for byte as `save_overlay` writes it.
        let mut overlay = SnapWriter::new();
        cold.save_overlay(&mut overlay);
        let mut halves = SnapReader::new(first.bytes());
        halves.section(b"SHRD").expect("the predictor section leads");
        let rest = &first.bytes()[first.bytes().len() - halves.remaining()..];
        assert_eq!(rest, overlay.bytes(), "{policy}: a full state's OVLY is the overlay");

        let cold_result = cold.measure(&mut stream);
        assert!(cold_result == uninterrupted, "{policy}: the cold run differs");

        // Warm run: restore from disk, skip the warmup prefix, measure.
        let mut warm = store
            .load(&w, &config)
            .expect("read checkpoint")
            .expect("checkpoint present after save");
        let mut stream = walker(&w, &config);
        for _ in (&mut stream).take(config.fast_forward as usize) {}
        let warm_result = warm.measure(&mut stream);
        assert!(warm_result == uninterrupted, "{policy}: the restored run differs");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_and_truncated_checkpoints_are_rejected() {
    let w = quick_workload();
    let config = quick_config(PolicyKind::Trrip1);
    let dir = std::env::temp_dir().join("trrip-ckpt-corruption-test");
    std::fs::remove_dir_all(&dir).ok();
    let store = CheckpointStore::new(&dir);

    let mut run = SimRun::new(&w, &config);
    let mut stream = walker(&w, &config);
    run.fast_forward(&mut stream);
    let path = store.save(&run).expect("save");
    let pristine = std::fs::read(&path).expect("read back");

    // Flip one byte in the body: checksum mismatch.
    corrupt::flip_middle_byte(&path);
    assert!(
        matches!(read_checkpoint(&path), Err(CheckpointError::ChecksumMismatch { .. })),
        "flipped byte must fail the checksum"
    );
    assert!(store.load(&w, &config).is_err(), "store must reject the corrupt file");

    // Truncate the file at every boundary region: never panics, never
    // yields a checkpoint.
    for cut in [0, 4, 9, 17, pristine.len() / 2, pristine.len() - 1] {
        corrupt::plant_file(&path, &pristine);
        corrupt::truncate_file(&path, cut);
        assert!(read_checkpoint(&path).is_err(), "{cut}-byte prefix accepted");
    }

    // Wrong magic.
    corrupt::plant_file(&path, &pristine);
    corrupt::break_magic(&path);
    assert!(matches!(read_checkpoint(&path), Err(CheckpointError::BadMagic)));

    // Another version, newer or older (bytes 8–9 hold the little-endian
    // version field, outside the checksummed body): the reader refuses
    // it by name, and to the store — a cache that rebuilds itself — it
    // is a miss, not damage.
    for version in [u16::MAX, trrip_sim::checkpoint::VERSION - 1, 1] {
        corrupt::plant_file(&path, &pristine);
        corrupt::set_bytes(&path, 8, &version.to_le_bytes());
        assert!(matches!(
            read_checkpoint(&path),
            Err(CheckpointError::UnsupportedVersion(v)) if v == version
        ));
        assert!(store.load(&w, &config).expect("a miss, not an error").is_none());
    }

    // Restore the pristine bytes: loads again.
    corrupt::plant_file(&path, &pristine);
    assert!(store.load(&w, &config).expect("load").is_some());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn store_keys_by_policy_config_and_fingerprint() {
    let w = quick_workload();
    let config = quick_config(PolicyKind::Srrip);
    let dir = std::env::temp_dir().join("trrip-ckpt-keying-test");
    std::fs::remove_dir_all(&dir).ok();
    let store = CheckpointStore::new(&dir);

    let mut run = SimRun::new(&w, &config);
    let mut stream = walker(&w, &config);
    run.fast_forward(&mut stream);
    store.save(&run).expect("save");

    // Same key loads; different policy, warmup length, or machine does
    // not (and does not error — the caller just warms cold).
    let loads =
        |config: &SimConfig| store.load(&w, config).expect("a miss is not an error").is_some();
    assert!(loads(&config));
    assert!(!loads(&config.clone().with_policy(PolicyKind::Trrip1)));
    let mut longer_ff = config.clone();
    longer_ff.fast_forward += 1;
    assert!(!loads(&longer_ff));
    let mut bigger_l2 = config.clone();
    bigger_l2.hierarchy = bigger_l2.hierarchy.with_l2_size(256 << 10);
    assert!(!loads(&bigger_l2));

    // A different measured window shares the warmup checkpoint: the
    // warmed state does not depend on how long we measure afterwards.
    let mut longer_measure = config.clone();
    longer_measure.instructions *= 2;
    assert!(loads(&longer_measure));
    assert_eq!(warmup_config_hash(&config), warmup_config_hash(&longer_measure));

    // A different code placement (classifier) is a different key.
    let mut spec = WorkloadSpec::named("ckpt-test");
    spec.functions = 50;
    spec.hot_rotation = 8;
    let blanket =
        PreparedWorkload::prepare(&spec, 400_000, ClassifierConfig { percentile_hot: 1.0 });
    assert_ne!(store.path_for(&w, &config), store.path_for(&blanket, &config));
    std::fs::remove_dir_all(&dir).ok();
}

/// The sweep over a checkpoint store agrees bit-for-bit with the
/// storeless sweep — cold (populating) and warm (restoring) alike.
#[test]
fn checkpointed_sweep_matches_other_engines() {
    let w = quick_workload();
    let workloads = [w];
    let config = quick_config(PolicyKind::Srrip);
    let policies = [PolicyKind::Srrip, PolicyKind::Brrip, PolicyKind::Trrip2];

    let ckpt_dir = std::env::temp_dir().join("trrip-ckpt-sweep-ckpts");
    std::fs::remove_dir_all(&ckpt_dir).ok();
    let ckpts = CheckpointStore::new(&ckpt_dir);

    let cells = policy_cells(&config, &policies);
    let walked = policy_sweep_with(4, &workloads, &cells, None);
    let sweep = || policy_sweep_with(4, &workloads, &cells, Some(&ckpts));
    let cold = sweep();
    let w = &workloads[0];
    assert!(
        ckpts.prefix_path(w, &cells).is_file()
            && cells.iter().all(|cell| ckpts.overlay_path(w, cell).is_file()),
        "the cold sweep must persist the shared prefix and every policy overlay"
    );
    let warm = sweep();

    assert_same_sweep(&cold, &walked, "cold checkpointed sweep");
    assert_same_sweep(&warm, &walked, "warm checkpointed sweep");
    std::fs::remove_dir_all(&ckpt_dir).ok();
}

/// Two specs that differ only in `depend_stall_cycles` draw the same
/// random numbers, so they train the same profile and get the same
/// placement — but not the same stream: every stall they emit lasts
/// differently. Their keys must differ, and sweeping both over one store
/// must give each what its own storeless sweep gives, cold and warm.
#[test]
fn store_keys_cover_every_spec_field_the_stream_reads() {
    let mut spec = WorkloadSpec::named("ckpt-stall-cycles");
    spec.functions = 50;
    spec.hot_rotation = 8;
    let mut slower = spec.clone();
    slower.depend_stall_cycles += 3;
    let prepare = |spec: &WorkloadSpec| {
        PreparedWorkload::prepare(spec, 100_000, ClassifierConfig::llvm_defaults())
    };
    let twins = [[prepare(&spec)], [prepare(&slower)]];
    let config = quick_config(PolicyKind::Srrip);
    let [a, b] = [&twins[0][0], &twins[1][0]];
    assert_eq!(a.pgo_object.block_addrs, b.pgo_object.block_addrs, "one placement");

    let dir = std::env::temp_dir().join("trrip-ckpt-spec-keys-test");
    std::fs::remove_dir_all(&dir).ok();
    let store = CheckpointStore::new(&dir);
    let row = std::slice::from_ref(&config);
    assert_ne!(store.prefix_path(a, row), store.prefix_path(b, row));
    assert_ne!(store.overlay_path(a, &config), store.overlay_path(b, &config));

    let cells = policy_cells(&config, &[PolicyKind::Srrip, PolicyKind::Trrip1]);
    let own: Vec<_> = twins.iter().map(|w| policy_sweep_with(2, w, &cells, None)).collect();
    assert_ne!(own[0].results[0].core, own[1].results[0].core, "the stalls take time");
    for pass in ["cold", "warm"] {
        for (w, own) in twins.iter().zip(&own) {
            let stored = policy_sweep_with(2, w, &cells, Some(&store));
            assert_same_sweep(&stored, own, &format!("{pass} stored sweep"));
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// What a checkpoint store's preparation must agree with a fresh one on:
/// the whole preparation, and the workload fingerprint under either
/// layout.
fn assert_same_preparation(a: &PreparedWorkload, b: &PreparedWorkload, what: &str) {
    assert!(a == b, "{what}: the preparations differ");
    for layout in [LayoutKind::SourceOrder, LayoutKind::Pgo] {
        let config = SimConfig { layout, ..quick_config(PolicyKind::Srrip) };
        assert_eq!(
            workload_fingerprint(a, &config),
            workload_fingerprint(b, &config),
            "{what}: {layout:?} fingerprint"
        );
    }
}

/// A preparation over a store trains and saves the profile once (cold),
/// then loads it (warm); either way it is the storeless preparation,
/// whole — and recompiling under another classifier is
/// preparing under it.
#[test]
fn a_kept_profile_prepares_what_training_does() {
    let dir = std::env::temp_dir().join(format!("trrip-ckpt-profile-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = CheckpointStore::new(&dir);
    let classifier = ClassifierConfig::llvm_defaults();
    let blanket = ClassifierConfig { percentile_hot: 1.0 };
    let mut small = WorkloadSpec::named("ckpt-profile-small");
    small.functions = 50;
    small.hot_rotation = 8;
    let mut wide = WorkloadSpec::named("ckpt-profile-wide");
    wide.functions = 120;
    wide.hot_rotation = 20;
    wide.external_functions = 12;

    for (spec, train) in [(small, 150_000), (wide, 250_000)] {
        let fresh = PreparedWorkload::prepare(&spec, train, classifier);
        let path = store.profile_path(&spec, train);
        assert!(!path.exists(), "{}: an empty store", spec.name);
        for pass in ["cold", "warm"] {
            let kept = PreparedWorkload::prepare_with(&spec, train, classifier, Some(&store));
            assert_same_preparation(&kept, &fresh, &format!("{} {pass}", spec.name));
            let on_file = store.load_profile(&spec, &fresh.program, train).expect("loads");
            assert_eq!(on_file.as_ref(), Some(&fresh.profile), "{pass}: the profile is on file");
        }
        let recompiled = fresh.recompile(blanket);
        assert_same_preparation(
            &recompiled,
            &PreparedWorkload::prepare(&spec, train, blanket),
            &format!("{} recompiled", spec.name),
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A kept profile that does not load — flipped, cut, or well formed but
/// shaped for another program — is reported as damage, trained again and
/// overwritten; the preparation is the storeless one all the same.
#[test]
fn a_damaged_profile_is_reported_trained_again_and_overwritten() {
    let root = std::env::temp_dir().join(format!("trrip-ckpt-profile-heal-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    std::fs::create_dir_all(&root).expect("scratch dir");
    let journal = root.join("journal.jsonl");
    trrip_obs::journal::init(&journal, 100_000).expect("open a journal");
    let store = CheckpointStore::new(root.join("ckpts"));
    let classifier = ClassifierConfig::llvm_defaults();
    let train = 120_000;
    let mut spec = WorkloadSpec::named("ckpt-profile-heal");
    spec.functions = 50;
    spec.hot_rotation = 8;
    let mut bigger = spec.clone();
    bigger.functions = 60;
    let fresh = PreparedWorkload::prepare(&spec, train, classifier);
    let other = PreparedWorkload::prepare(&bigger, train, classifier);
    let path = store.profile_path(&spec, train);

    let _ = PreparedWorkload::prepare_with(&spec, train, classifier, Some(&store));
    let pristine = std::fs::read(&path).expect("saved by the cold preparation");
    let damages = ["flipped", "cut", "another program's"];
    for what in damages {
        match what {
            "flipped" => {
                corrupt::flip_middle_byte(&path);
            }
            "cut" => corrupt::truncate_file(&path, pristine.len() / 2),
            _ => {
                store.save_profile(&spec, train, &other.profile).expect("save");
            }
        }
        assert!(store.load_profile(&spec, &fresh.program, train).is_err(), "{what}: damage");
        let healed = PreparedWorkload::prepare_with(&spec, train, classifier, Some(&store));
        assert_eq!(healed.profile, fresh.profile, "{what}: trained again");
        assert_eq!(healed.pgo_object, fresh.pgo_object, "{what}: compiled as without a store");
        let on_file = store.load_profile(&spec, &fresh.program, train).expect("overwritten");
        assert_eq!(on_file.as_ref(), Some(&fresh.profile), "{what}: written again");
    }

    trrip_obs::journal::close().expect("the journal was open");
    let journal = trrip_obs::read_journal(&journal).expect("read the journal back");
    let reported: Vec<_> = journal
        .of_kind("artifact_damaged")
        .filter(|e| e.get("benchmark").and_then(|b| b.as_str()) == Some(spec.name.as_str()))
        .map(|e| e.get("what").and_then(|w| w.as_str()).map(str::to_owned))
        .collect();
    assert_eq!(reported, vec![Some("training profile".to_owned()); damages.len()]);
    std::fs::remove_dir_all(&root).ok();
}

/// A profile is a function of the whole spec and the training length:
/// specs that differ only in `train_seed`, and runs that differ only in
/// `train_instructions`, name different files. No classifier or machine
/// is in the name: every binary that prepares the spec reads one file.
#[test]
fn profile_keys_cover_the_spec_and_the_training_length() {
    let store = CheckpointStore::new(std::env::temp_dir().join("trrip-ckpt-profile-keys"));
    let spec = WorkloadSpec::named("ckpt-profile-keys");
    let mut reseeded = spec.clone();
    reseeded.train_seed ^= 1;
    assert_ne!(store.profile_path(&spec, 100_000), store.profile_path(&reseeded, 100_000));
    assert_ne!(store.profile_path(&spec, 100_000), store.profile_path(&spec, 200_000));
    assert_eq!(store.profile_path(&spec, 100_000), store.profile_path(&spec.clone(), 100_000));
}

// ---- container robustness on arbitrary section shapes ----

/// Payloads shaped like real snapshot sections: noise, byte runs
/// (bitmaps) and sorted stride-64 word arrays (tag stores).
fn arb_section_payload() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(
        prop_oneof![
            prop::collection::vec(any::<u8>(), 0..3000),
            (any::<u8>(), 1usize..3000).prop_map(|(b, n)| vec![b; n]),
            (any::<u64>(), 1usize..300).prop_map(|(base, n)| {
                (0..n as u64).flat_map(|i| base.wrapping_add(i * 64).to_le_bytes()).collect()
            }),
        ],
        1..8,
    )
    .prop_map(|blocks| blocks.concat())
}

/// A unique on-disk path per proptest case.
fn unique_ckpt_path() -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join("trrip-ckpt-container-prop-test");
    std::fs::create_dir_all(&dir).expect("test dir");
    dir.join(format!("case-{}-{}.ckpt", std::process::id(), NEXT.fetch_add(1, Ordering::Relaxed)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// write → read is the identity on arbitrary section shapes (the
    /// payload round-trips exactly), any flipped byte at or
    /// after the checksummed body is rejected, and any truncation is
    /// rejected — damage never yields a silently different payload.
    #[test]
    fn container_round_trips_and_rejects_damage(
        payload in arb_section_payload(),
        victim in any::<u32>(),
        flip in 1u8..=255,
    ) {
        let meta = trrip_sim::CheckpointMeta {
            benchmark: "prop".into(),
            policy: "lru".into(),
            fingerprint: 0x1234_5678_9abc_def0,
            config_hash: 42,
            stream_position: 7,
        };
        let path = unique_ckpt_path();
        write_checkpoint_kind(&path, trrip_sim::CheckpointKind::Full, &meta, &payload)
            .expect("write");
        let (kind, got_meta, got_payload) = read_checkpoint(&path).expect("read");
        prop_assert_eq!(kind, trrip_sim::CheckpointKind::Full);
        prop_assert_eq!(&got_meta, &meta);
        prop_assert_eq!(&got_payload, &payload, "the payload must round-trip exactly");

        let pristine = std::fs::read(&path).expect("read back");
        // Flip one byte anywhere in the checksummed region (body +
        // trailing checksum; the 18-byte header has its own checks).
        let target = 18 + victim as usize % (pristine.len() - 18);
        corrupt::flip_byte(&path, target, flip);
        prop_assert!(read_checkpoint(&path).is_err(), "flip at {} accepted", target);

        // Any truncation is rejected (the body length must match the
        // file exactly).
        corrupt::plant_file(&path, &pristine);
        let keep = (victim as usize ^ flip as usize) % pristine.len();
        corrupt::truncate_file(&path, keep);
        prop_assert!(read_checkpoint(&path).is_err(), "{}-byte prefix accepted", keep);

        std::fs::remove_file(&path).ok();
    }
}
