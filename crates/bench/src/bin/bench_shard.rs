//! Wall-clock benchmark of sharded (segment-DAG) sweeps against the
//! unsharded engines, on the paper's 8-policy sweep shape:
//!
//! * **baseline** — `replay_sweep` with no checkpoint store: warmup
//!   simulated by every cell, each cell one atomic task;
//! * **cold sharded** — `replay_sweep_sharded` over an empty checkpoint
//!   store: same simulation work plus the one-time cost of persisting
//!   the fast-forward checkpoints and every interior chain link;
//! * **warm sharded** — the same sweep again: every cell restores its
//!   warmup, and every segment whose chain link is on disk dispatches
//!   immediately, so one long cell spreads across the worker pool;
//! * **warm unsharded** — `replay_sweep` over the same (now populated)
//!   checkpoint store, reported so the
//!   trajectory separates the warm-start gain from sharding's
//!   scheduling gain (on a single-core container the two coincide;
//!   sharding's extra parallelism needs `--jobs > 1` and cores to use
//!   them).
//!
//! All engines are asserted bit-identical before any number is
//! reported. Results append to `BENCH_shard.json` under `--out`
//! (`scripts/bench_shard.sh` points `--out` at the repo root).

use std::time::Instant;

use trrip_bench::{append_trajectory, HarnessOptions};
use trrip_core::ClassifierConfig;
use trrip_policies::PolicyKind;
use trrip_sim::{
    replay_sweep, replay_sweep_sharded, CheckpointStore, PreparedWorkload, ShardPlan, SimConfig,
    SweepResult, TraceStore,
};
use trrip_workloads::WorkloadSpec;

/// The 8-policy sweep shape the paper's headline experiments use.
const POLICIES: [PolicyKind; 8] = [
    PolicyKind::Srrip,
    PolicyKind::Lru,
    PolicyKind::Brrip,
    PolicyKind::Drrip,
    PolicyKind::Ship,
    PolicyKind::Clip,
    PolicyKind::Emissary,
    PolicyKind::Trrip1,
];

/// Timing repetitions; the minimum is reported.
const REPS: usize = 3;

fn workload() -> PreparedWorkload {
    let mut spec = WorkloadSpec::named("shard-bench");
    spec.functions = 120;
    spec.hot_rotation = 30;
    PreparedWorkload::prepare(&spec, 100_000, ClassifierConfig::llvm_defaults())
}

fn time_best<F: FnMut()>(mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Per-call cost of the **disabled** span path (one relaxed atomic
/// load returning `None`), measured with spans forced off and the
/// previous state restored afterwards.
fn disabled_span_ns() -> f64 {
    const ITERS: u32 = 2_000_000;
    let was_on = trrip_obs::spans_enabled();
    trrip_obs::set_spans_enabled(false);
    let start = Instant::now();
    for _ in 0..ITERS {
        std::hint::black_box(trrip_obs::enter("overhead_probe"));
    }
    let per_op = start.elapsed().as_secs_f64() * 1e9 / f64::from(ITERS);
    trrip_obs::set_spans_enabled(was_on);
    per_op
}

fn assert_identical(a: &SweepResult, b: &SweepResult, what: &str) {
    assert_eq!(a.results.len(), b.results.len(), "{what}: sweep dropped cells");
    for (x, y) in a.results.iter().zip(&b.results) {
        assert_eq!(x.core, y.core, "{what}: core results diverge");
        assert_eq!(x.l1i, y.l1i, "{what}: L1-I stats diverge");
        assert_eq!(x.l1d, y.l1d, "{what}: L1-D stats diverge");
        assert_eq!(x.l2, y.l2, "{what}: L2 stats diverge");
        assert_eq!(x.slc, y.slc, "{what}: SLC stats diverge");
        assert_eq!(x.tlb, y.tlb, "{what}: TLB stats diverge");
        assert_eq!(x.pages, y.pages, "{what}: page stats diverge");
    }
}

fn main() {
    let options = HarnessOptions::from_args();
    let obs = options.obs_session("bench_shard");
    let shards = options.shards.max(2);
    let workloads = [workload()];

    // Warmup-heavy, multi-chunk measure window: 2:1 warmup:measure as
    // in the checkpoint bench, with the measured window spanning
    // several 64 Ki trace chunks so interior cuts are chunk-aligned.
    let mut config = SimConfig::quick(PolicyKind::Srrip);
    config.fast_forward = 400_000 * options.scale;
    config.instructions = 200_000 * options.scale;
    let plan = ShardPlan::new(&config, shards);

    let tmp_traces = std::env::temp_dir().join("trrip-bench-shard-traces");
    let trace_dir = options.trace_dir.clone().unwrap_or(tmp_traces.clone());
    let traces = TraceStore::new(&trace_dir);
    trrip_obs::progress!("capturing trace under {}…", trace_dir.display());
    traces.ensure(&workloads[0], &config).expect("capture trace");

    // Scratch checkpoint dir of our own: the cold phase must start from
    // an empty store every repetition, and a user-supplied
    // --checkpoint-dir may be a persistent store that must not be wiped.
    let ckpt_dir = std::env::temp_dir().join("trrip-bench-shard-ckpts");
    if options.checkpoint_dir.is_some() {
        trrip_obs::progress!(
            "note: this bench uses a scratch checkpoint dir ({}); --checkpoint-dir is left \
             untouched",
            ckpt_dir.display()
        );
    }
    let ckpts = CheckpointStore::new(&ckpt_dir);

    let unsharded = |ckpts: Option<&CheckpointStore>| {
        replay_sweep(options.jobs, &workloads, &config, &POLICIES, &traces, ckpts)
    };

    // --- Baseline: unsharded replay sweep, no checkpoint store. ---
    trrip_obs::progress!("baseline: 8-policy replay_sweep (unsharded, warmup simulated)…");
    let mut baseline = None;
    let baseline_s = time_best(|| baseline = Some(unsharded(None)));

    // --- Cold sharded: empty store, chain links persisted. ---
    trrip_obs::progress!(
        "cold: sharded sweep ({} segments/cell) populating {}…",
        plan.segments(),
        ckpt_dir.display()
    );
    let mut cold = None;
    let mut cold_s = f64::INFINITY;
    for _ in 0..REPS {
        std::fs::remove_dir_all(&ckpt_dir).ok();
        let start = Instant::now();
        cold = Some(replay_sweep_sharded(
            options.jobs,
            &workloads,
            &config,
            &POLICIES,
            &traces,
            &ckpts,
            shards,
        ));
        cold_s = cold_s.min(start.elapsed().as_secs_f64());
    }

    // --- Warm sharded: every segment dispatches from the chain. ---
    trrip_obs::progress!("warm: sharded sweep restoring the chain…");
    let mut warm = None;
    let warm_spans_before = trrip_obs::spans_recorded();
    let warm_s = time_best(|| {
        warm = Some(replay_sweep_sharded(
            options.jobs,
            &workloads,
            &config,
            &POLICIES,
            &traces,
            &ckpts,
            shards,
        ));
    });

    let warm_spans = (trrip_obs::spans_recorded() - warm_spans_before) / REPS as u64;

    // --- Reference: warm unsharded checkpointed sweep. ---
    trrip_obs::progress!("reference: warm unsharded checkpointed sweep…");
    let mut warm_unsharded = None;
    let warm_unsharded_s = time_best(|| warm_unsharded = Some(unsharded(Some(&ckpts))));

    // Cross-check: every engine must agree bit-for-bit.
    let baseline = baseline.expect("ran");
    assert_identical(&baseline, &cold.expect("ran"), "cold sharded sweep");
    assert_identical(&baseline, &warm.expect("ran"), "warm sharded sweep");
    assert_identical(&baseline, &warm_unsharded.expect("ran"), "warm unsharded sweep");

    let warm_speedup = baseline_s / warm_s;
    let cold_overhead = cold_s / baseline_s;
    let vs_unsharded = warm_unsharded_s / warm_s;
    let n = trrip_sim::capture_length(&config);
    println!(
        "8-policy sweep, {n} instructions ({} warmup / {} measured), {} segments/cell, jobs {}:",
        config.fast_forward,
        config.instructions,
        plan.segments(),
        options.jobs
    );
    println!("  baseline  (unsharded, warmup simulated): {baseline_s:.3} s");
    println!(
        "  cold      (sharded + chain persisted):   {cold_s:.3} s  ({cold_overhead:.2}x baseline)"
    );
    println!("  warm      (sharded, chain restored):     {warm_s:.3} s");
    println!("  reference (unsharded warm checkpoints):  {warm_unsharded_s:.3} s");
    println!("  warm sharded speedup vs baseline:        {warm_speedup:.2}x");
    println!("  warm sharded vs warm unsharded:          {vs_unsharded:.2}x");

    // Telemetry must be free when off: bound what this sweep's span
    // sites would cost with instrumentation disabled (one relaxed
    // atomic load per site) and pin it under 1% of the warm sweep.
    let mut overhead_frac = 0.0;
    if obs.enabled() {
        let per_op_ns = disabled_span_ns();
        let off_cost_s = warm_spans as f64 * per_op_ns / 1e9;
        overhead_frac = off_cost_s / warm_s;
        println!(
            "  telemetry off-path bound: {warm_spans} span sites x {per_op_ns:.1} ns = \
             {off_cost_s:.6} s ({:.4}% of warm sweep)",
            overhead_frac * 100.0
        );
        assert!(
            overhead_frac < 0.01,
            "disabled-instrumentation bound {overhead_frac:.4} must stay under 1% of the warm \
             sweep ({warm_spans} spans, {per_op_ns:.1} ns/probe, warm {warm_s:.3} s)"
        );
    }

    let entry = format!(
        "  {{\n    \"bench\": \"shard_segment_dag\",\n    \"policies\": {policies},\n    \
         \"jobs\": {jobs},\n    \"shards\": {shards},\n    \"segments_per_cell\": {segments},\n    \
         \"fast_forward\": {ff},\n    \"measured_instructions\": {measured},\n    \
         \"baseline_unsharded_sweep_s\": {baseline_s:.4},\n    \
         \"cold_sharded_sweep_s\": {cold_s:.4},\n    \
         \"warm_sharded_sweep_s\": {warm_s:.4},\n    \
         \"warm_unsharded_sweep_s\": {warm_unsharded_s:.4},\n    \
         \"warm_sharded_speedup_vs_baseline\": {warm_speedup:.3},\n    \
         \"warm_sharded_vs_warm_unsharded\": {vs_unsharded:.3},\n    \
         \"cold_overhead_vs_baseline\": {cold_overhead:.3}\n  }}",
        policies = POLICIES.len(),
        jobs = options.jobs,
        segments = plan.segments(),
        ff = config.fast_forward,
        measured = config.instructions,
    );
    std::fs::create_dir_all(&options.out_dir).expect("create out dir");
    let json_path = options.out_dir.join("BENCH_shard.json");
    append_trajectory(&json_path, &entry);
    trrip_obs::progress!("trajectory appended to {}", json_path.display());
    obs.finish(&[
        ("baseline_unsharded_sweep_s", baseline_s),
        ("cold_sharded_sweep_s", cold_s),
        ("warm_sharded_sweep_s", warm_s),
        ("disabled_span_overhead_frac", overhead_frac),
    ]);
    std::fs::remove_dir_all(&tmp_traces).ok();
    std::fs::remove_dir_all(&ckpt_dir).ok();
}
