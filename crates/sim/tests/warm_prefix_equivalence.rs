//! The policy-agnostic warm prefix must be invisible in the results:
//! a `(workload, policy)` cell that starts at the fast-forward boundary
//! from the stores — its overlay restored under a frontend resumed from
//! the shared prefix — is bit-identical to a cold per-cell warmup, for
//! every policy (including Random, whose RNG stream is architectural
//! state) and with the reuse/costly profilers armed. Fallback routing
//! is pinned through the `trrip_sim::warmstats` counters: a corrupt
//! overlay costs its one cell a warm-up of its own, a corrupt prefix is
//! recorded again, and either file is healed by the sweep that found it.
//! The tape-driven warmup tail of the pull executors is held to the
//! same bits, timed and functional.

use trrip_core::ClassifierConfig;
use trrip_cpu::WarmupTape;
use trrip_policies::PolicyKind;
use trrip_sim::{
    replay_sweep, warmup_counters, CheckpointStore, PreparedWorkload, SimConfig, SimResult, SimRun,
    TraceStore,
};
use trrip_snap::corrupt;
use trrip_trace::SourceIter;
use trrip_workloads::{InputSet, TraceGenerator, WorkloadSpec};

/// Every policy the simulator can run, including the non-paper Random
/// baseline.
const ALL_POLICIES: [PolicyKind; 10] = [
    PolicyKind::Srrip,
    PolicyKind::Lru,
    PolicyKind::Random,
    PolicyKind::Brrip,
    PolicyKind::Drrip,
    PolicyKind::Ship,
    PolicyKind::Clip,
    PolicyKind::Emissary,
    PolicyKind::Trrip1,
    PolicyKind::Trrip2,
];

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

/// The warmstats counters are process-wide; tests that assert on their
/// deltas must not interleave. (Poisoning is fine — a failed sibling
/// already failed the suite.)
static COUNTER_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn counter_guard() -> std::sync::MutexGuard<'static, ()> {
    COUNTER_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[test]
fn warm_prefix_sweep_is_bit_identical_for_all_ten_policies() {
    let _serial = counter_guard();
    let workloads = [quick_workload("warm-prefix-eq")];
    let config = quick_config(PolicyKind::Srrip);

    let trace_dir = scratch("trrip-warm-prefix-traces");
    let ckpt_dir = scratch("trrip-warm-prefix-ckpts");
    let traces = TraceStore::new(&trace_dir);
    let ckpts = CheckpointStore::new(&ckpt_dir);

    // Oracle: cold per-cell warmups via the walker engine.
    let oracle = trrip_sim::policy_sweep(&workloads, &config, &ALL_POLICIES);

    // Cold populating pass: ONE recorded warmup — the frontend's, which
    // writes the shared prefix — and ten cells that execute the warm-up
    // turns it digests, each leaving its overlay.
    let before = warmup_counters();
    let cold = replay_sweep(4, &workloads, &config, &ALL_POLICIES, &traces, Some(&ckpts));
    let delta = warmup_counters().since(&before);
    assert_eq!(delta.recorded_warmups, 1, "one shared warmup per workload, not per policy");
    assert_eq!(delta.overlay_restores, 0, "an empty store restores nobody");
    assert_eq!(delta.tail_replays, ALL_POLICIES.len() as u64, "every cell runs the shared turns");
    assert_eq!(delta.cold_warmups, 0);
    assert_eq!(delta.full_restores, 0);

    for (policy, (a, b)) in ALL_POLICIES.iter().zip(oracle.results.iter().zip(&cold.results)) {
        assert_identical(a, b, &format!("{policy}: cold warm-prefix pass"));
    }

    // Warm pass: the frontend resumes from the shared prefix, every
    // cell restores its own overlay.
    let before = warmup_counters();
    let warm = replay_sweep(4, &workloads, &config, &ALL_POLICIES, &traces, Some(&ckpts));
    let delta = warmup_counters().since(&before);
    assert_eq!(delta.overlay_restores, ALL_POLICIES.len() as u64);
    assert_eq!(delta.recorded_warmups + delta.tail_replays + delta.cold_warmups, 0);

    for (policy, (a, b)) in ALL_POLICIES.iter().zip(oracle.results.iter().zip(&warm.results)) {
        assert_identical(a, b, &format!("{policy}: warm overlay pass"));
    }

    // The prefix file is one per workload, policy-free: every policy's
    // cell resolves the same path.
    let prefix = ckpts.prefix_path(&workloads[0], &config);
    for policy in ALL_POLICIES {
        assert_eq!(prefix, ckpts.prefix_path(&workloads[0], &config.clone().with_policy(policy)));
    }
    assert!(prefix.is_file());

    std::fs::remove_dir_all(&trace_dir).ok();
    std::fs::remove_dir_all(&ckpt_dir).ok();
}

/// (The name is from when the fallback was the tape-driven tail; the
/// cell now warms up alone, cold, off a replay of its own — what stays
/// pinned is that only that cell pays, nothing is recorded again, and
/// the file heals.)
#[test]
fn corrupt_overlay_falls_back_to_the_warmup_tail_not_cold() {
    let _serial = counter_guard();
    let workloads = [quick_workload("warm-prefix-corrupt")];
    let config = quick_config(PolicyKind::Srrip);
    let policies = [PolicyKind::Srrip, PolicyKind::Random, PolicyKind::Emissary];

    let trace_dir = scratch("trrip-warm-prefix-corrupt-traces");
    let ckpt_dir = scratch("trrip-warm-prefix-corrupt-ckpts");
    let traces = TraceStore::new(&trace_dir);
    let ckpts = CheckpointStore::new(&ckpt_dir);

    let oracle = trrip_sim::policy_sweep(&workloads, &config, &policies);
    let _ = replay_sweep(4, &workloads, &config, &policies, &traces, Some(&ckpts));

    // Flip a byte in the middle of Random's overlay: the container
    // checksum rejects it at load.
    let victim = config.clone().with_policy(PolicyKind::Random);
    let overlay = ckpts.overlay_path(&workloads[0], &victim);
    corrupt::flip_middle_byte(&overlay);

    let before = warmup_counters();
    let patched = replay_sweep(4, &workloads, &config, &policies, &traces, Some(&ckpts));
    let delta = warmup_counters().since(&before);
    assert_eq!(delta.cold_warmups, 1, "the corrupt overlay's cell warms up alone");
    assert_eq!(delta.recorded_warmups, 0, "…without a recorded warmup");
    assert_eq!(delta.tail_replays, 0, "…and without anyone else warming");
    assert_eq!(delta.overlay_restores, policies.len() as u64 - 1);

    for (policy, (a, b)) in policies.iter().zip(oracle.results.iter().zip(&patched.results)) {
        assert_identical(a, b, &format!("{policy}: sweep with a corrupt overlay"));
    }

    // The lone cell re-persisted a good overlay: the next sweep is all
    // restores again.
    let before = warmup_counters();
    let healed = replay_sweep(4, &workloads, &config, &policies, &traces, Some(&ckpts));
    let delta = warmup_counters().since(&before);
    assert_eq!(delta.overlay_restores, policies.len() as u64, "overlay must be healed");
    for (a, b) in oracle.results.iter().zip(&healed.results) {
        assert_identical(a, b, "healed sweep");
    }

    std::fs::remove_dir_all(&trace_dir).ok();
    std::fs::remove_dir_all(&ckpt_dir).ok();
}

#[test]
fn corrupt_prefix_falls_back_cold_and_is_rewritten() {
    let _serial = counter_guard();
    let workloads = [quick_workload("warm-prefix-cold-fb")];
    let config = quick_config(PolicyKind::Srrip);
    let policies = [PolicyKind::Lru, PolicyKind::Trrip1];

    let trace_dir = scratch("trrip-warm-prefix-cfb-traces");
    let ckpt_dir = scratch("trrip-warm-prefix-cfb-ckpts");
    let traces = TraceStore::new(&trace_dir);
    let ckpts = CheckpointStore::new(&ckpt_dir);

    let oracle = trrip_sim::policy_sweep(&workloads, &config, &policies);
    let _ = replay_sweep(4, &workloads, &config, &policies, &traces, Some(&ckpts));

    // Truncate the prefix container: both it AND the overlays keyed to
    // it stay on disk, but the prefix no longer loads — cells must
    // re-record, then overwrite the damaged file.
    let prefix = ckpts.prefix_path(&workloads[0], &config);
    corrupt::truncate_file(&prefix, corrupt::file_len(&prefix) / 2);
    // Remove the overlays so the cells cannot bypass the prefix
    // entirely (overlays alone would still warm-start them).
    for policy in policies {
        let overlay = ckpts.overlay_path(&workloads[0], &config.clone().with_policy(policy));
        std::fs::remove_file(overlay).expect("overlay existed");
    }

    let before = warmup_counters();
    let patched = replay_sweep(4, &workloads, &config, &policies, &traces, Some(&ckpts));
    let delta = warmup_counters().since(&before);
    assert!(delta.recorded_warmups >= 1, "a fresh warmup must be recorded");
    for (a, b) in oracle.results.iter().zip(&patched.results) {
        assert_identical(a, b, "sweep after prefix damage");
    }

    // The damaged container was atomically replaced.
    let before = warmup_counters();
    let _ = replay_sweep(4, &workloads, &config, &policies, &traces, Some(&ckpts));
    let delta = warmup_counters().since(&before);
    assert_eq!(delta.overlay_restores, policies.len() as u64, "prefix must be rewritten");

    std::fs::remove_dir_all(&trace_dir).ok();
    std::fs::remove_dir_all(&ckpt_dir).ok();
}

fn walker<'w>(workload: &'w PreparedWorkload, config: &SimConfig) -> TraceGenerator<'w> {
    TraceGenerator::new(
        &workload.program,
        workload.object(config.layout),
        &workload.spec,
        InputSet::Eval,
    )
}

/// Functional warming (state updates without stall attribution) at the
/// warmup-tail seam must be invisible in every measured result, for all
/// ten policies: only warmup *accounting* is skipped, never state.
#[test]
fn functional_warming_is_invisible_in_measured_results() {
    let _serial = counter_guard();
    let workload = quick_workload("warm-functional");
    let config = quick_config(PolicyKind::Srrip);

    // One recorded warmup with the neutral policy produces the tape.
    let mut tape = WarmupTape::new();
    {
        let mut run = SimRun::new(&workload, &config);
        let mut stream = SourceIter::new(walker(&workload, &config));
        run.fast_forward_recorded(&mut stream, &mut tape);
    }

    for policy in ALL_POLICIES {
        let cfg = config.clone().with_policy(policy);

        // Oracle: timed tail replay, then the measured window.
        let mut timed = SimRun::new(&workload, &cfg);
        let mut stream = SourceIter::new(walker(&workload, &cfg));
        timed.fast_forward_replayed(&mut stream, &tape);
        let a = timed.measure(&mut stream);

        // Functional tail replay of the same stream.
        let before = warmup_counters();
        let mut functional = SimRun::new(&workload, &cfg);
        let mut stream = SourceIter::new(walker(&workload, &cfg));
        functional.fast_forward_replayed_mode(&mut stream, &tape, true);
        let delta = warmup_counters().since(&before);
        assert_eq!(delta.functional_modes, 1, "{policy}: activation must be counted");
        let b = functional.measure(&mut stream);

        assert_identical(&a, &b, &format!("{policy}: functional warming"));
    }
}

/// Functional mode is a warmup-tail concept only: once the measure
/// phase has started, the seam refuses to run — nothing functional can
/// ever execute inside a measured window.
#[test]
fn functional_mode_is_rejected_inside_the_measure_window() {
    let workload = quick_workload("warm-functional-routing");
    let config = quick_config(PolicyKind::Srrip);
    let mut run = SimRun::new(&workload, &config);
    let mut stream = SourceIter::new(walker(&workload, &config));
    run.begin_measure();

    let tape = WarmupTape::new();
    let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run.fast_forward_replayed_mode(&mut stream, &tape, true);
    }));
    assert!(attempt.is_err(), "functional warming inside the measure window must panic");
}

#[test]
fn damaged_full_checkpoint_is_removed_and_routed_around() {
    let _serial = counter_guard();
    let workloads = [quick_workload("warm-prefix-heal")];
    let config = quick_config(PolicyKind::Srrip);
    let policies = [PolicyKind::Srrip, PolicyKind::Clip];

    let trace_dir = scratch("trrip-warm-prefix-heal-traces");
    let ckpt_dir = scratch("trrip-warm-prefix-heal-ckpts");
    let traces = TraceStore::new(&trace_dir);
    let ckpts = CheckpointStore::new(&ckpt_dir);

    let oracle = trrip_sim::policy_sweep(&workloads, &config, &policies);
    let _ = replay_sweep(4, &workloads, &config, &policies, &traces, Some(&ckpts));

    // Plant a corrupt whole-state checkpoint for CLIP: it sits on the
    // highest rung of the warm-start ladder, so every sweep would
    // otherwise re-read (and re-report) it forever.
    let victim = config.clone().with_policy(PolicyKind::Clip);
    let full = ckpts.path_for(&workloads[0], &victim);
    corrupt::plant_file(&full, b"TRRIPCKPgarbage-body-not-a-checkpoint");

    let before = warmup_counters();
    let patched = replay_sweep(4, &workloads, &config, &policies, &traces, Some(&ckpts));
    let delta = warmup_counters().since(&before);
    assert_eq!(delta.overlay_restores, policies.len() as u64, "both cells still warm-start");
    for (a, b) in oracle.results.iter().zip(&patched.results) {
        assert_identical(a, b, "sweep with a corrupt full checkpoint");
    }
    assert!(!full.exists(), "the damaged whole-state checkpoint must be deleted (self-heal)");

    std::fs::remove_dir_all(&trace_dir).ok();
    std::fs::remove_dir_all(&ckpt_dir).ok();
}
