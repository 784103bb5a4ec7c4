//! The policy-agnostic warm prefix must be invisible in the results:
//! a `(workload, policy)` cell that starts at the fast-forward boundary
//! from the store — its overlay restored under a frontend and a walker
//! resumed from the shared prefix — is bit-identical to a cold per-cell
//! warmup, for each of the paper's nine policies and with the
//! reuse/costly profilers armed.
//! Fallback routing is pinned through the `warm.*` counters
//! (`trrip_sim::warmstats` says what each means): a damaged overlay is a
//! missing one and costs its one cell its warm-up, in the row's one walk
//! of the stream, a damaged prefix — its walker
//! section out of range included — is written again, and either file is
//! healed by the sweep that found it.

use trrip_core::ClassifierConfig;
use trrip_obs::CounterSnapshot;
use trrip_policies::PolicyKind;
use trrip_sim::{
    policy_cells, policy_sweep_with, CheckpointStore, PreparedWorkload, SimConfig, SimResult,
    SweepResult,
};
use trrip_snap::corrupt;
use trrip_workloads::WorkloadSpec;

fn quick_workload(name: &str) -> PreparedWorkload {
    let mut spec = WorkloadSpec::named(name);
    spec.functions = 50;
    spec.hot_rotation = 8;
    PreparedWorkload::prepare(&spec, 300_000, ClassifierConfig::llvm_defaults())
}

fn quick_config(policy: PolicyKind) -> SimConfig {
    let mut c = SimConfig::quick(policy);
    c.fast_forward = 25_000;
    c.instructions = 50_000;
    // The profilers are part of the acceptance bar: armed measurement
    // after every warm-start route must match the cold run.
    c.measure_reuse = true;
    c.track_costly = true;
    c
}

fn assert_identical(a: &SimResult, b: &SimResult, what: &str) {
    assert_eq!(a.core, b.core, "{what}: core results diverge");
    assert_eq!(a.l1i, b.l1i, "{what}: L1-I stats diverge");
    assert_eq!(a.l1d, b.l1d, "{what}: L1-D stats diverge");
    assert_eq!(a.l2, b.l2, "{what}: L2 stats diverge");
    assert_eq!(a.slc, b.slc, "{what}: SLC stats diverge");
    assert_eq!(a.tlb, b.tlb, "{what}: TLB stats diverge");
    assert_eq!(a.pages, b.pages, "{what}: page stats diverge");
    assert_eq!(a.reuse_base, b.reuse_base, "{what}: reuse histograms diverge");
    assert_eq!(a.reuse_hot_only, b.reuse_hot_only, "{what}: hot-only histograms diverge");
    let (ca, cb) = (a.costly.as_ref().expect("armed"), b.costly.as_ref().expect("armed"));
    assert_eq!(ca.distinct_lines(), cb.distinct_lines(), "{what}: costly lines diverge");
    assert_eq!(ca.cost_by_region(), cb.cost_by_region(), "{what}: costly regions diverge");
}

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(name);
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// The `warm.*` counters are process-wide; tests that assert on their
/// deltas must not interleave. (Poisoning is fine — a failed sibling
/// already failed the suite.)
static COUNTER_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn counter_guard() -> std::sync::MutexGuard<'static, ()> {
    COUNTER_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// What `sweep` moved of `[warm.overlay_restore, warm.tail_replay,
/// warm.recorded_warmup, warm.cold_warmup]` — cells that restored, cells
/// that warmed and left an overlay, prefixes written, cells that warmed
/// with no store attached — and of `ckpt.corrupt`.
fn routes_of(sweep: impl FnOnce() -> SweepResult) -> (SweepResult, [u64; 4], u64) {
    let (result, moved) = moved_by(sweep);
    (result, routes(&moved), moved.get("ckpt.corrupt"))
}

/// Every counter `sweep` moved.
fn moved_by(sweep: impl FnOnce() -> SweepResult) -> (SweepResult, CounterSnapshot) {
    let before = trrip_obs::snapshot();
    let result = sweep();
    (result, trrip_obs::snapshot().since(&before))
}

/// The `warm.*` part of `moved`, in [`routes_of`]'s order.
fn routes(moved: &CounterSnapshot) -> [u64; 4] {
    ["overlay_restore", "tail_replay", "recorded_warmup", "cold_warmup"]
        .map(|route| moved.get(&format!("warm.{route}")))
}

#[test]
fn warm_prefix_sweep_is_bit_identical_for_every_policy() {
    let _serial = counter_guard();
    let workloads = [quick_workload("warm-prefix-eq")];
    let config = quick_config(PolicyKind::Srrip);

    let ckpt_dir = scratch("trrip-warm-prefix-ckpts");
    let ckpts = CheckpointStore::new(&ckpt_dir);

    // Oracle: cold per-cell warmups via the walker engine.
    let row = policy_cells(&config, &PolicyKind::PAPER_SET);
    let oracle = policy_sweep_with(4, &workloads, &row, None);

    // Cold populating pass: ONE shared prefix — the frontend's
    // predictor — and nine cells that execute the warm-up turns it
    // digests, each leaving its overlay. An empty store restores nobody.
    let cells = PolicyKind::PAPER_SET.len() as u64;
    let sweep = || policy_sweep_with(4, &workloads, &row, Some(&ckpts));
    let (cold, routes, _) = routes_of(sweep);
    assert_eq!(routes, [0, cells, 1, 0], "one prefix per workload, not per policy");

    for (policy, (a, b)) in
        PolicyKind::PAPER_SET.iter().zip(oracle.results.iter().zip(&cold.results))
    {
        assert_identical(a, b, &format!("{policy}: cold warm-prefix pass"));
    }

    // Warm pass: the frontend resumes from the shared prefix, every
    // cell restores its own overlay.
    let (warm, routes, _) = routes_of(sweep);
    assert_eq!(routes, [cells, 0, 0, 0]);

    for (policy, (a, b)) in
        PolicyKind::PAPER_SET.iter().zip(oracle.results.iter().zip(&warm.results))
    {
        assert_identical(a, b, &format!("{policy}: warm overlay pass"));
    }

    // The prefix file is one per workload, policy-free: every policy's
    // cell alone resolves the row's path.
    let prefix = ckpts.prefix_path(&workloads[0], &row);
    for cell in &row {
        assert_eq!(prefix, ckpts.prefix_path(&workloads[0], std::slice::from_ref(cell)));
    }
    assert!(prefix.is_file());

    std::fs::remove_dir_all(&ckpt_dir).ok();
}

/// A damaged overlay costs that one cell its warm-up, heals, and moves
/// no other cell's counters. It is a missing one: the stream is walked
/// once, from the first instruction, with no walker beside it; the cell
/// warms up on a fresh machine (the failed restore may have left the
/// first one half-written) and writes the overlay the cold pass wrote.
#[test]
fn a_damaged_overlay_costs_one_cell_its_warmup_and_heals() {
    let _serial = counter_guard();
    let workloads = [quick_workload("warm-prefix-corrupt")];
    let config = quick_config(PolicyKind::Srrip);
    let policies = [PolicyKind::Srrip, PolicyKind::Ship, PolicyKind::Emissary];
    let cells = policies.len() as u64;
    let row = policy_cells(&config, &policies);
    let oracle = policy_sweep_with(4, &workloads, &row, None);

    let ckpt_dir = scratch("trrip-warm-prefix-corrupt-ckpts");
    let ckpts = CheckpointStore::new(&ckpt_dir);
    let sweep = || policy_sweep_with(4, &workloads, &row, Some(&ckpts));
    let _ = sweep();

    // Flip a byte in the middle of SHiP's overlay: the container
    // checksum rejects it at load.
    let victim = ckpts.overlay_path(&workloads[0], &config.clone().with_policy(PolicyKind::Ship));
    let cold_bytes = std::fs::read(&victim).expect("the cold pass wrote it");
    corrupt::flip_middle_byte(&victim);

    let (patched, moved) = moved_by(sweep);
    assert_eq!(routes(&moved), [cells - 1, 1, 0, 0], "one cell warms, no prefix is written");
    assert_eq!(moved.get("ckpt.corrupt"), 1, "one file is reported");
    // One walk of the whole stream, in the walker's batches of 1 Ki.
    let stream = config.fast_forward + config.instructions;
    let walked = moved.get("walk.instrs");
    assert!((stream..stream + 1_024).contains(&walked), "walked {walked} of a {stream} stream");
    assert_eq!(moved.get("front.digest.instrs"), stream, "one frontend, from the start");
    assert!(std::fs::read(&victim).expect("rewritten") == cold_bytes, "the cold pass's overlay");
    for (policy, (a, b)) in policies.iter().zip(oracle.results.iter().zip(&patched.results)) {
        assert_identical(a, b, &format!("{policy}: sweep with a damaged overlay"));
    }

    // The lone cell left a good overlay: the next sweep is all
    // restores again.
    let (healed, routes, damaged) = routes_of(sweep);
    assert_eq!((routes, damaged), ([cells, 0, 0, 0], 0), "overlay must be healed");
    for (a, b) in oracle.results.iter().zip(&healed.results) {
        assert_identical(a, b, "healed sweep");
    }

    std::fs::remove_dir_all(&ckpt_dir).ok();
}

#[test]
fn corrupt_prefix_falls_back_cold_and_is_rewritten() {
    let _serial = counter_guard();
    let workloads = [quick_workload("warm-prefix-cold-fb")];
    let config = quick_config(PolicyKind::Srrip);
    let policies = [PolicyKind::Lru, PolicyKind::Trrip1];

    let ckpt_dir = scratch("trrip-warm-prefix-cfb-ckpts");
    let ckpts = CheckpointStore::new(&ckpt_dir);

    let row = policy_cells(&config, &policies);
    let oracle = policy_sweep_with(4, &workloads, &row, None);
    let sweep = || policy_sweep_with(4, &workloads, &row, Some(&ckpts));
    let _ = sweep();

    // Truncate the prefix container: the prefix no longer loads — the
    // frontend must train through the warm-up again, and the window
    // overwrite the damaged file.
    let prefix = ckpts.prefix_path(&workloads[0], &row);
    corrupt::truncate_file(&prefix, corrupt::file_len(&prefix) / 2);
    // Remove the overlays so the cells cannot bypass the prefix
    // entirely (overlays alone would still warm-start them).
    for policy in policies {
        let overlay = ckpts.overlay_path(&workloads[0], &config.clone().with_policy(policy));
        std::fs::remove_file(overlay).expect("overlay existed");
    }

    let (patched, routes, damaged) = routes_of(sweep);
    assert_eq!(routes, [0, policies.len() as u64, 1, 0], "a fresh prefix must be written");
    assert_eq!(damaged, 1);
    for (a, b) in oracle.results.iter().zip(&patched.results) {
        assert_identical(a, b, "sweep after prefix damage");
    }

    // The damaged container was atomically replaced.
    let (_, routes, damaged) = routes_of(sweep);
    assert_eq!(
        (routes, damaged),
        ([policies.len() as u64, 0, 0, 0], 0),
        "prefix must be rewritten"
    );

    std::fs::remove_dir_all(&ckpt_dir).ok();
}

/// A prefix whose walker section no walker of the program could be in —
/// written whole, so its container checks out — is damage: the load names
/// the field, the sweep reports it, its frontend warms up again from the
/// first instruction, every cell still restores, and the prefix is
/// written again.
#[test]
fn a_walker_section_out_of_range_is_reported_and_rewritten() {
    let _serial = counter_guard();
    let workloads = [quick_workload("warm-prefix-walker")];
    let w = &workloads[0];
    let config = quick_config(PolicyKind::Srrip);
    let policies = [PolicyKind::Srrip, PolicyKind::Emissary];
    let cells = policies.len() as u64;
    let row = policy_cells(&config, &policies);
    let oracle = policy_sweep_with(4, &workloads, &row, None);

    let ckpt_dir = scratch("trrip-warm-prefix-walker-ckpts");
    let ckpts = CheckpointStore::new(&ckpt_dir);
    let sweep = || policy_sweep_with(4, &workloads, &row, Some(&ckpts));
    let _ = sweep();

    let mut prefix = ckpts.load_prefix(w, &row).expect("loads").expect("on file");
    prefix.walker.rotation_pos = prefix.walker.rotation.len();
    ckpts.save_prefix(w, &row, &prefix).expect("save");
    let error = ckpts.load_prefix(w, &row).expect_err("out of range");
    assert!(error.to_string().contains("rotation_pos"), "{error}");

    let (patched, routes, damaged) = routes_of(sweep);
    assert_eq!((routes, damaged), ([cells, 0, 1, 0], 1), "reported, warmed, written again");
    for (a, b) in oracle.results.iter().zip(&patched.results) {
        assert_identical(a, b, "sweep over a damaged walker section");
    }
    let (_, routes, damaged) = routes_of(sweep);
    assert_eq!((routes, damaged), ([cells, 0, 0, 0], 0), "the prefix loads again");

    std::fs::remove_dir_all(&ckpt_dir).ok();
}
