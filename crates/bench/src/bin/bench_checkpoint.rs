//! Wall-clock benchmark of warm-started (checkpointed) sweeps against
//! cold ones, on the paper's 8-policy sweep shape:
//!
//! * **baseline** — `replay_sweep` with no checkpoint store: every
//!   policy's cell executes the fast-forward window (warmup paid
//!   `policies` times per workload per sweep, every sweep);
//! * **cold checkpointed** — `replay_sweep` over an empty checkpoint
//!   store: same warmup work plus the one-time cost of persisting the
//!   shared prefix and each policy's overlay;
//! * **warm checkpointed** — the same sweep again: the frontend resumes
//!   from the prefix, every cell restores its overlay and nobody
//!   simulates the warmup, the state repeated sweeps (fig6/fig8/fig9
//!   re-sweep the same workloads) run in across process lifetimes.
//!
//! The three passes are asserted bit-identical before any number is
//! reported. Results append to `BENCH_checkpoint.json` under `--out`, an
//! array of run objects — the perf trajectory future PRs extend
//! (`scripts/bench_checkpoint.sh` points `--out` at the repo root).

use std::time::Instant;

use trrip_bench::{append_trajectory, HarnessOptions};
use trrip_core::ClassifierConfig;
use trrip_policies::PolicyKind;
use trrip_sim::{
    replay_sweep, CheckpointStore, PreparedWorkload, SimConfig, SweepResult, TraceStore,
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

/// Timing repetitions; the minimum is reported (standard practice for
/// wall-clock numbers on a shared machine).
const REPS: usize = 3;

fn workload() -> PreparedWorkload {
    let mut spec = WorkloadSpec::named("checkpoint-bench");
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

fn assert_identical(a: &SweepResult, b: &SweepResult, what: &str) {
    for (x, y) in a.results.iter().zip(&b.results) {
        assert_eq!(x.core, y.core, "{what}: core results diverge");
        assert_eq!(x.l2, y.l2, "{what}: L2 stats diverge");
    }
}

fn main() {
    let options = HarnessOptions::from_args();
    let obs = options.obs_session("bench_checkpoint");
    let workloads = [workload()];

    // Warmup-heavy shape: the paper fast-forwards far more than it
    // measures (Table 2: 1e8–4e9 skipped vs 4e8 measured); here warmup
    // is 2× the measured window so the warm start has something real to
    // skip without dwarfing the measured phase.
    let mut config = SimConfig::quick(PolicyKind::Srrip);
    config.fast_forward = 400_000 * options.scale;
    config.instructions = 200_000 * options.scale;

    let tmp_traces = std::env::temp_dir().join("trrip-bench-checkpoint-traces");
    let trace_dir = options.trace_dir.clone().unwrap_or(tmp_traces.clone());
    let traces = TraceStore::new(&trace_dir);
    trrip_obs::progress!("capturing trace under {}…", trace_dir.display());
    traces.ensure(&workloads[0], &config).expect("capture trace");

    // The cold phase must start from an EMPTY store every repetition,
    // so checkpoints always live in a scratch directory of our own —
    // never in a user-supplied --checkpoint-dir, which may be the
    // persistent store their figure sweeps share and must not be wiped.
    let ckpt_dir = std::env::temp_dir().join("trrip-bench-checkpoint-ckpts");
    if options.checkpoint_dir.is_some() {
        trrip_obs::progress!(
            "note: this bench uses a scratch checkpoint dir ({}); --checkpoint-dir is left \
             untouched",
            ckpt_dir.display()
        );
    }

    let sweep = |ckpts: Option<&CheckpointStore>| {
        replay_sweep(options.jobs, &workloads, &config, &POLICIES, &traces, ckpts)
    };

    // --- Baseline: replay sweep with no checkpoint store, warmup simulated. ---
    trrip_obs::progress!("baseline: 8-policy replay_sweep (no checkpoints)…");
    let mut baseline = None;
    let baseline_s = time_best(|| baseline = Some(sweep(None)));

    // --- Cold: empty store, warmup simulated + checkpoints persisted. ---
    // Hand-rolled timing loop: the store reset happens between
    // repetitions, OUTSIDE the timed region.
    trrip_obs::progress!("cold: checkpointed sweep populating {}…", ckpt_dir.display());
    let ckpts = CheckpointStore::new(&ckpt_dir);
    let store_before = trrip_obs::snapshot();
    let mut cold = None;
    let mut cold_s = f64::INFINITY;
    for _ in 0..REPS {
        std::fs::remove_dir_all(&ckpt_dir).ok();
        let start = Instant::now();
        cold = Some(sweep(Some(&ckpts)));
        cold_s = cold_s.min(start.elapsed().as_secs_f64());
    }

    // --- Warm: every cell restores and skips warmup simulation. ---
    trrip_obs::progress!("warm: checkpointed sweep restoring…");
    let mut warm = None;
    let warm_s = time_best(|| warm = Some(sweep(Some(&ckpts))));

    // Cross-check: all passes must agree bit-for-bit.
    let baseline = baseline.expect("ran");
    assert_identical(&baseline, &cold.expect("ran"), "cold checkpointed sweep");
    assert_identical(&baseline, &warm.expect("ran"), "warm checkpointed sweep");

    let warm_speedup = baseline_s / warm_s;
    let cold_overhead = cold_s / baseline_s;
    // Store-activity tally across the cold + warm phases, straight from
    // the ckpt.* registry counters the store increments itself.
    let store_delta = trrip_obs::snapshot().since(&store_before);
    let (ckpt_hits, ckpt_misses, ckpt_saves) =
        (store_delta.get("ckpt.hit"), store_delta.get("ckpt.miss"), store_delta.get("ckpt.save"));
    let store_size_bytes = ckpts.size_bytes();
    let n = trrip_sim::capture_length(&config);
    println!(
        "8-policy sweep, {n} instructions ({} warmup / {} measured):",
        config.fast_forward, config.instructions
    );
    println!("  baseline (warmup simulated):  {baseline_s:.3} s");
    println!("  cold     (+ checkpoint save): {cold_s:.3} s  ({cold_overhead:.2}x baseline)");
    println!("  warm     (warmup restored):   {warm_s:.3} s");
    println!("  warm-start speedup: {warm_speedup:.2}x");
    println!(
        "  store: {ckpt_hits} hits / {ckpt_misses} misses / {ckpt_saves} saves, {:.2} MiB on disk",
        store_size_bytes as f64 / (1024.0 * 1024.0)
    );

    let entry = format!(
        "  {{\n    \"bench\": \"checkpoint_warm_start\",\n    \"policies\": {policies},\n    \
         \"jobs\": {jobs},\n    \"fast_forward\": {ff},\n    \
         \"measured_instructions\": {measured},\n    \
         \"baseline_sweep_s\": {baseline_s:.4},\n    \
         \"cold_checkpointed_sweep_s\": {cold_s:.4},\n    \
         \"warm_checkpointed_sweep_s\": {warm_s:.4},\n    \
         \"warm_start_speedup\": {warm_speedup:.3},\n    \
         \"cold_overhead_vs_baseline\": {cold_overhead:.3},\n    \
         \"ckpt_hits\": {ckpt_hits},\n    \
         \"ckpt_misses\": {ckpt_misses},\n    \
         \"ckpt_saves\": {ckpt_saves},\n    \
         \"store_size_bytes\": {store_size_bytes}\n  }}",
        policies = POLICIES.len(),
        jobs = options.jobs,
        ff = config.fast_forward,
        measured = config.instructions,
    );
    std::fs::create_dir_all(&options.out_dir).expect("create out dir");
    let json_path = options.out_dir.join("BENCH_checkpoint.json");
    append_trajectory(&json_path, &entry);
    trrip_obs::progress!("trajectory appended to {}", json_path.display());
    obs.finish(&[
        ("baseline_sweep_s", baseline_s),
        ("cold_checkpointed_sweep_s", cold_s),
        ("warm_checkpointed_sweep_s", warm_s),
    ]);
    std::fs::remove_dir_all(&tmp_traces).ok();
    std::fs::remove_dir_all(&ckpt_dir).ok();
}
