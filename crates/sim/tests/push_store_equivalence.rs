//! The sweep over a checkpoint store: `policy_sweep_with` with a
//! `CheckpointStore` attached must give, cell for cell and on every route
//! through the store, what a `simulate` of that cell alone gives — the
//! pull path, which shares nothing with it — and must do so with the work
//! the design promises, held here to counts:
//!
//! * per workload one frontend over one walker, and nothing read from or
//!   written to a capture: a cold pass walks the whole stream once and
//!   leaves no `.trrip` file anywhere; a warm pass resumes the frontend
//!   and the walker from the shared prefix and walks the measured window
//!   alone (plus what is left of the walker's last 1 Ki batch), reading
//!   the prefix once however many cells it has;
//! * a partial store (an overlay gone, or the prefix gone) costs exactly
//!   what is missing: the producer starts at the first instruction, the
//!   cells that can still restore do, the one that cannot warms up;
//! * an overlay that is there but does not load is a missing one: the
//!   stream is walked once, from the first instruction, with no walker
//!   beside it; its cell warms up, rewrites the file byte for byte, and
//!   no other cell notices;
//! * a cell is a configuration: a row whose cells differ in L2 size and
//!   ways, page size, overlap rule, policy and armed profilers costs
//!   **one** prefix and an overlay per cell, and a policy sweep and a
//!   geometry sweep of one workload share that one prefix file;
//! * the prefix holds a stream view per page size among the row's cells:
//!   a row shaped like `overlap_ablation` — two page sizes, two overlap
//!   rules — keeps one prefix of its own, apart from a row of one page
//!   size, and each cell, cold and warm, still equals its own `simulate`.
//!
//! One `#[test]` on purpose: every count is a process-wide counter, and
//! a sibling test in the same binary would move them.

mod common;
mod rows;

use std::path::{Path, PathBuf};

use common::assert_same_sweep;
use rows::{ablation_row, mixed_row, row_on_file, simulated};
use trrip_core::ClassifierConfig;
use trrip_policies::PolicyKind;
use trrip_sim::{
    capture_length, policy_cells, policy_sweep_with, CheckpointStore, PreparedWorkload, SimConfig,
    SweepResult,
};
use trrip_snap::corrupt;
use trrip_workloads::WorkloadSpec;

const CELLS: u64 = PolicyKind::PAPER_SET.len() as u64;
const JOBS: usize = 3;
/// The walker hands out whole batches of 1 Ki: a frontend's source may
/// walk up to one batch less one past what it digests.
const BATCH: u64 = 1_024;

fn quick_workload(name: &str) -> PreparedWorkload {
    let mut spec = WorkloadSpec::named(name);
    spec.functions = 50;
    spec.hot_rotation = 8;
    PreparedWorkload::prepare(&spec, 100_000, ClassifierConfig::llvm_defaults())
}

/// What one sweep moved: the counters the design is stated in.
struct Moved(trrip_obs::CounterSnapshot);

impl Moved {
    fn by(sweep: impl FnOnce() -> SweepResult) -> (SweepResult, Moved) {
        let before = trrip_obs::snapshot();
        let result = sweep();
        (result, Moved(trrip_obs::snapshot().since(&before)))
    }

    fn get(&self, counter: &str) -> u64 {
        self.0.get(counter)
    }

    /// `[overlay_restore, tail_replay, recorded_warmup, cold_warmup]`:
    /// cells that restored, cells that warmed and left an overlay,
    /// prefixes written, cells that warmed with no store to leave one in.
    fn warm(&self) -> [u64; 4] {
        ["overlay_restore", "tail_replay", "recorded_warmup", "cold_warmup"]
            .map(|route| self.get(&format!("warm.{route}")))
    }

    /// Asserts that the walkers of the sweep handed out `walks` — one
    /// stretch per walker, each with up to a batch less one on top — and
    /// that nothing was decoded from a capture.
    fn walked(&self, walks: &[u64], what: &str) {
        let (least, walkers) = (walks.iter().sum::<u64>(), walks.len() as u64);
        let walked = self.get("walk.instrs");
        assert!(
            (least..least + walkers * BATCH).contains(&walked),
            "{what}: walked {walked}, expected {walks:?} and under a batch more a walker"
        );
        assert_eq!(self.get("trace.records_decoded"), 0, "{what}: nothing is decoded");
    }
}

fn read(path: &Path) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// Every file under `dir`, recursively.
fn files_under(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir).expect("a directory").map(|e| e.expect("an entry")) {
        let path = entry.path();
        if path.is_dir() {
            files.extend(files_under(&path));
        } else {
            files.push(path);
        }
    }
    files
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("trrip-push-store-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn store_backed_sweeps_equal_per_cell_replay_on_every_route_at_the_promised_cost() {
    let root = scratch("eq");
    let ckpts = CheckpointStore::new(root.join("ckpts"));
    let workloads = [quick_workload("push-store-a"), quick_workload("push-store-b")];
    let (a, b) = (&workloads[0], &workloads[1]);

    // A fast-forward boundary that is no multiple of the walker's batch,
    // so that the frontend holds back part of one when it crosses it.
    let mut config = SimConfig::quick(PolicyKind::Srrip);
    config.fast_forward = 37_000;
    config.instructions = 40_000;
    config.measure_reuse = true;
    config.track_costly = true;
    let (stream, window) = (capture_length(&config), config.instructions);
    let cell = |policy| config.clone().with_policy(policy);
    let cells = policy_cells(&config, &PolicyKind::PAPER_SET);
    let sweep = || policy_sweep_with(JOBS, &workloads, &cells, Some(&ckpts));

    // ---- cold: walk once, write one prefix, capture nothing ----
    let (cold, moved) = Moved::by(sweep);
    moved.walked(&[stream, stream], "cold pass");
    assert_eq!(moved.get("front.digest.instrs"), 2 * stream, "one frontend per workload");
    assert_eq!(moved.warm(), [0, 2 * CELLS, 2, 0], "every cell warms, one prefix a workload");
    let packed: Vec<_> =
        moved.0.iter().filter(|&(name, v)| name.starts_with("pack.") && v > 0).collect();
    assert!(packed.is_empty(), "boundary files rest as written, nothing packs them: {packed:?}");
    let files = files_under(&root);
    assert!(files.iter().all(|f| f.extension().is_some_and(|x| x == "ckpt")), "{files:?}");
    assert_eq!(files.len() as u64, 2 * (1 + CELLS), "a prefix and the overlays, no capture");
    for w in &workloads {
        assert!(ckpts.prefix_path(w, &cells).is_file());
        assert!(row_on_file(&ckpts, w, &cells));
    }

    // The pull reference: each cell alone over a walker of its own.
    let oracle = simulated(&workloads, &cells);
    assert_same_sweep(&cold, &oracle, "cold pass");

    // ---- warm: resume at the boundary, restore every cell ----
    let (warm, moved) = Moved::by(sweep);
    moved.walked(&[window, window], "warm pass");
    assert_eq!(moved.get("front.digest.instrs"), 2 * window);
    assert_eq!(moved.warm(), [2 * CELLS, 0, 0, 0]);
    assert_eq!(moved.get("ckpt.hit"), 2 * (CELLS + 1), "n overlays and ONE prefix per workload");
    assert_eq!(moved.get("ckpt.miss") + moved.get("ckpt.save"), 0);
    assert_same_sweep(&warm, &oracle, "warm pass");

    // ---- a partial store: one overlay gone ----
    // b's producer starts at the first instruction; its other cells
    // still restore and let the warm-up go by, CLIP's alone executes it.
    // The prefix still loads, so it is not written again.
    let clip = ckpts.overlay_path(b, &cell(PolicyKind::Clip));
    std::fs::remove_file(&clip).expect("the overlay existed");
    let (partial, moved) = Moved::by(sweep);
    moved.walked(&[window, stream], "one overlay missing");
    assert_eq!(moved.warm(), [2 * CELLS - 1, 1, 0, 0]);
    assert_same_sweep(&partial, &oracle, "one overlay missing");
    assert!(clip.is_file(), "the cell that warmed up left its overlay");

    // ---- a partial store: the prefix gone, every overlay present ----
    // a's frontend has to train through the warm-up (and writes the
    // prefix again, the same bytes); no cell executes a warm-up turn.
    let prefix = ckpts.prefix_path(a, &cells);
    let prefix_bytes = read(&prefix);
    std::fs::remove_file(&prefix).expect("the prefix existed");
    let (headless, moved) = Moved::by(sweep);
    moved.walked(&[stream, window], "prefix missing");
    assert_eq!(moved.warm(), [2 * CELLS, 0, 1, 0]);
    assert_same_sweep(&headless, &oracle, "prefix missing");
    assert!(read(&prefix) == prefix_bytes, "a prefix is a function of the stream alone");

    // ---- an overlay that is there but does not load ----
    // By name the store is whole, but EMISSARY's file does not load, so
    // it is a missing one: b's producer starts at the first instruction,
    // one walk of the stream and no walker beside it; the other cells
    // restore and let the warm-up go by, EMISSARY's warms up and
    // rewrites the file. Nobody else notices.
    let emissary = ckpts.overlay_path(b, &cell(PolicyKind::Emissary));
    let overlay_bytes = read(&emissary);
    corrupt::flip_middle_byte(&emissary);
    let (patched, moved) = Moved::by(sweep);
    moved.walked(&[window, stream], "one overlay damaged: b walked once, from the start");
    assert_eq!(moved.get("front.digest.instrs"), window + stream, "two frontends, no other");
    assert_eq!(moved.warm(), [2 * CELLS - 1, 1, 0, 0]);
    assert_eq!(moved.get("ckpt.corrupt"), 1);
    assert_same_sweep(&patched, &oracle, "one overlay damaged");
    assert!(read(&emissary) == overlay_bytes, "the rewritten overlay is the cold pass's");
    let (healed, moved) = Moved::by(sweep);
    moved.walked(&[window, window], "healed store");
    assert_eq!(moved.warm(), [2 * CELLS, 0, 0, 0]);
    assert_same_sweep(&healed, &oracle, "healed store");

    // ---- no checkpoint store: walk, warm every cell, keep nothing ----
    let (plain, moved) = Moved::by(|| policy_sweep_with(JOBS, &workloads, &cells, None));
    moved.walked(&[stream, stream], "no checkpoint store");
    assert_eq!(moved.warm(), [0, 0, 0, 2 * CELLS]);
    assert_eq!(moved.get("ckpt.hit") + moved.get("ckpt.miss") + moved.get("ckpt.save"), 0);
    assert_same_sweep(&plain, &oracle, "no checkpoint store");

    // ---- a geometry sweep of a workload a policy sweep has covered ----
    // Its four machines are new to the store, so the producer starts at
    // the first instruction and every cell warms and leaves an overlay —
    // but the predictor and the walker at the boundary are the stream's,
    // not a machine's: the frontend finds the policy sweep's prefix and
    // writes none.
    let resized = |kb: u64| {
        let hierarchy = config.hierarchy.clone().with_l2_size(kb << 10);
        policy_cells(&SimConfig { hierarchy, ..config.clone() }, &PolicyKind::PAPER_SET[..2])
    };
    let geometry = [resized(64), resized(256)].concat();
    let only_a = std::slice::from_ref(a);
    let shared_files = |w: &PreparedWorkload| {
        let named = format!("{}-pgo-shared-", w.spec.name);
        let files = std::fs::read_dir(ckpts.dir()).expect("the store's directory");
        files
            .filter(|f| {
                f.as_ref().expect("an entry").file_name().to_string_lossy().starts_with(&named)
            })
            .count()
    };
    let (resized_cold, moved) =
        Moved::by(|| policy_sweep_with(JOBS, only_a, &geometry, Some(&ckpts)));
    assert_eq!(moved.warm(), [0, 4, 0, 0], "four overlays, no prefix");
    assert_eq!(moved.get("ckpt.hit"), 1, "the policy sweep's prefix");
    moved.walked(&[stream], "geometry sweep");
    assert_eq!(ckpts.prefix_path(a, &geometry), ckpts.prefix_path(a, &cells));
    assert_eq!(shared_files(a), 1);
    assert_same_sweep(&resized_cold, &simulated(only_a, &geometry), "geometry sweep");

    // ---- a heterogeneous row over an empty store, then over its own ----
    let mixed = [quick_workload("push-store-mixed")];
    let m = &mixed[0];
    let row = mixed_row(&config);
    let n = row.len() as u64;
    let journal = root.join("journal.jsonl");
    trrip_obs::journal::init(&journal, 10_000).expect("open a journal");
    let sweep_row = || policy_sweep_with(JOBS, &mixed, &row, Some(&ckpts));
    let (row_cold, moved) = Moved::by(sweep_row);
    moved.walked(&[stream], "heterogeneous row, cold");
    assert_eq!(moved.get("front.digest.instrs"), stream, "one frontend for six machines");
    assert_eq!(moved.warm(), [0, n, 1, 0], "every cell warms; ONE prefix for the row");
    assert_eq!(moved.get("ckpt.save"), n + 1);
    assert_eq!(shared_files(m), 1);
    assert!(row_on_file(&ckpts, m, &row));
    let oracle = simulated(&mixed, &row);
    assert!(oracle.results[1].reuse_base.is_some() && oracle.results[2].costly.is_some());
    assert_same_sweep(&row_cold, &oracle, "heterogeneous row, cold");

    let (row_warm, moved) = Moved::by(sweep_row);
    moved.walked(&[window], "heterogeneous row, warm: from the boundary");
    assert_eq!(moved.get("front.digest.instrs"), window);
    assert_eq!(moved.warm(), [n, 0, 0, 0], "every cell restores");
    assert_eq!(moved.get("ckpt.hit"), n + 1, "n overlays and ONE prefix");
    assert_same_sweep(&row_warm, &oracle, "heterogeneous row, warm");

    trrip_obs::journal::close().expect("the journal was open");
    let journal = trrip_obs::read_journal(&journal).expect("read the journal back");
    let producers: Vec<(String, u64)> = journal
        .of_kind("producer_opened")
        .map(|e| {
            let source = e.get("source").and_then(|s| s.as_str()).expect("a source").to_owned();
            (source, e.get("start").and_then(|s| s.as_u64()).expect("a start"))
        })
        .collect();
    assert_eq!(producers, [("walker".to_owned(), 0), ("walker".to_owned(), config.fast_forward)]);
    assert_eq!(journal.of_kind("artifact_damaged").count(), 0);
    assert!(files_under(&root).iter().all(|f| f.extension().is_none_or(|x| x != "trrip")));

    // ---- views multiply: two page sizes and two overlap rules ----
    // One frontend resolves frames and strides for both page sizes; the
    // prefix holds both views, keyed apart from a one-page-size row's.
    let ablated = [quick_workload("push-store-ablation")];
    let v = &ablated[0];
    let row = ablation_row(&config);
    let n = row.len() as u64;
    let oracle = simulated(&ablated, &row);
    let sweep_row = || policy_sweep_with(JOBS, &ablated, &row, Some(&ckpts));
    let (row_cold, moved) = Moved::by(sweep_row);
    moved.walked(&[stream], "two page sizes, cold");
    assert_eq!(moved.warm(), [0, n, 1, 0], "every cell warms; ONE prefix for both views");
    assert_same_sweep(&row_cold, &oracle, "two page sizes, cold");
    assert_eq!(shared_files(v), 1);
    assert!(row_on_file(&ckpts, v, &row));
    assert_ne!(ckpts.prefix_path(v, &row), ckpts.prefix_path(v, &row[..1]));
    let (row_warm, moved) = Moved::by(sweep_row);
    moved.walked(&[window], "two page sizes, warm: from the boundary");
    assert_eq!(moved.warm(), [n, 0, 0, 0], "every cell restores");
    assert_eq!(moved.get("ckpt.hit"), n + 1, "n overlays and ONE prefix");
    assert_same_sweep(&row_warm, &oracle, "two page sizes, warm");

    std::fs::remove_dir_all(&root).ok();
}
