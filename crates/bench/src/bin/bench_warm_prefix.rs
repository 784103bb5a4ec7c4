//! Wall-clock benchmark of the **policy-agnostic warm prefix** on the
//! paper's 8-policy sweep shape:
//!
//! * **baseline** — `replay_sweep` with no checkpoint store: warmup
//!   executed per cell, nothing persisted;
//! * **cold** — `replay_sweep` over an empty checkpoint store: the same
//!   warm-up turns, plus the saves of ONE shared prefix (the frontend's
//!   predictor) and every policy's overlay — the price of populating;
//! * **warm** — the same sweep again: the frontend resumes from the
//!   prefix at the boundary, every cell restores its overlay, and the
//!   warmup is neither decoded nor simulated.
//!
//! (Entries of `BENCH_warm_prefix.json` older than PR 14 carry two cold
//! legs, "per-cell" and "shared": two engines then, one now.)
//!
//! All passes are asserted bit-identical before any number is
//! reported. Results append to `BENCH_warm_prefix.json` under `--out`
//! (`scripts/bench_warm_prefix.sh` points `--out` at the repo root).
//!
//! `--smoke` (CI) shrinks the run lengths, does a single repetition,
//! checks identity plus the warm-start counter composition, and skips
//! the JSON append — a correctness smoke, not a measurement.

use std::time::Instant;

use trrip_bench::{append_trajectory, HarnessOptions, USAGE};
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

fn workload() -> PreparedWorkload {
    let mut spec = WorkloadSpec::named("warm-prefix-bench");
    spec.functions = 120;
    spec.hot_rotation = 30;
    PreparedWorkload::prepare(&spec, 100_000, ClassifierConfig::llvm_defaults())
}

fn assert_identical(a: &SweepResult, b: &SweepResult, what: &str) {
    for (x, y) in a.results.iter().zip(&b.results) {
        assert_eq!(x.core, y.core, "{what}: core results diverge");
        assert_eq!(x.l2, y.l2, "{what}: L2 stats diverge");
        assert_eq!(x.tlb, y.tlb, "{what}: TLB stats diverge");
    }
}

/// Times `f` over `reps` repetitions with `reset` run between them
/// (outside the timed region); reports the minimum.
fn time_best<F: FnMut(), R: FnMut()>(reps: usize, mut reset: R, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        reset();
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    args.retain(|a| a != "--smoke");
    let options = match HarnessOptions::try_parse(args) {
        Ok(Some(options)) => options,
        Ok(None) => {
            println!("{USAGE}\n  --smoke          quick CI correctness pass (no JSON append)");
            return;
        }
        Err(message) => {
            eprintln!("error: {message}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(message) = options.validate_dirs() {
        eprintln!("error: {message}\n\n{USAGE}");
        std::process::exit(2);
    }
    if let Err(message) = options.apply_observability() {
        eprintln!("error: {message}\n\n{USAGE}");
        std::process::exit(2);
    }
    let obs = options.obs_session("bench_warm_prefix");
    let reps = if smoke { 1 } else { 3 };
    let workloads = [workload()];

    // Warmup-heavy shape: the paper fast-forwards far more than it
    // measures, and the shared prefix only pays off on the warmup share.
    let mut config = SimConfig::quick(PolicyKind::Srrip);
    if smoke {
        config.fast_forward = 60_000;
        config.instructions = 30_000;
    } else {
        config.fast_forward = 400_000 * options.scale;
        config.instructions = 200_000 * options.scale;
    }

    let tmp_traces = std::env::temp_dir().join("trrip-bench-warm-prefix-traces");
    let trace_dir = options.trace_dir.clone().unwrap_or(tmp_traces.clone());
    let traces = TraceStore::new(&trace_dir);
    trrip_obs::progress!("capturing trace under {}…", trace_dir.display());
    traces.ensure(&workloads[0], &config).expect("capture trace");

    // The cold pass must start from an EMPTY store every repetition, so
    // the checkpoints live in a scratch directory of our own — never in
    // a user-supplied --checkpoint-dir, which may be a persistent store.
    let ckpt_dir = std::env::temp_dir().join("trrip-bench-warm-prefix-ckpts");
    if options.checkpoint_dir.is_some() {
        trrip_obs::progress!(
            "note: this bench uses a scratch checkpoint dir; --checkpoint-dir is untouched"
        );
    }
    let ckpts = CheckpointStore::new(&ckpt_dir);
    let sweep = |ckpts: Option<&CheckpointStore>| {
        replay_sweep(options.jobs, &workloads, &config, &POLICIES, &traces, ckpts)
    };

    // --- Baseline: no checkpoint store, warmup executed per cell. ---
    trrip_obs::progress!("baseline: 8-policy replay_sweep (no checkpoints)…");
    let mut baseline = None;
    let baseline_s = time_best(reps, || {}, || baseline = Some(sweep(None)));

    // --- Cold: the same turns, one prefix + every overlay saved. ---
    trrip_obs::progress!("cold: populating sweep, one shared prefix per workload…");
    let mut cold = None;
    let store_before = trrip_obs::snapshot();
    let cold_s = time_best(
        reps,
        || {
            std::fs::remove_dir_all(&ckpt_dir).ok();
        },
        || cold = Some(sweep(Some(&ckpts))),
    );
    let delta = trrip_obs::snapshot().since(&store_before);
    assert_eq!(
        delta.get("warm.recorded_warmup") as usize,
        reps,
        "the cold pass must write exactly one prefix per repetition"
    );
    assert_eq!(
        delta.get("warm.tail_replay") as usize,
        reps * POLICIES.len(),
        "every cell must execute the shared warm-up turns"
    );

    // --- Warm: frontend resumed from the prefix, every cell restored. ---
    trrip_obs::progress!("warm: sweep restoring…");
    let mut warm = None;
    let before = trrip_obs::snapshot();
    let warm_s = time_best(reps, || {}, || warm = Some(sweep(Some(&ckpts))));
    let delta = trrip_obs::snapshot().since(&before);
    let restored = delta.get("warm.overlay_restore") as usize;
    assert_eq!(restored, reps * POLICIES.len(), "every cell restores");
    let warmed = ["recorded_warmup", "tail_replay", "cold_warmup"]
        .map(|route| delta.get(&format!("warm.{route}")));
    assert_eq!(warmed, [0; 3], "a warm pass warms nobody and writes no prefix");

    // Cross-check: all passes must agree bit-for-bit.
    let baseline = baseline.expect("ran");
    assert_identical(&baseline, &cold.expect("ran"), "cold populating sweep");
    assert_identical(&baseline, &warm.expect("ran"), "warm overlay sweep");

    let cold_overhead = cold_s / baseline_s;
    let warm_speedup = baseline_s / warm_s;
    // Store activity across the cold + warm phases, from the ckpt.*
    // registry counters the store increments itself.
    let store_delta = trrip_obs::snapshot().since(&store_before);
    let (ckpt_hits, ckpt_misses, ckpt_saves) =
        (store_delta.get("ckpt.hit"), store_delta.get("ckpt.miss"), store_delta.get("ckpt.save"));
    let store_size_bytes = ckpts.size_bytes();
    let n = trrip_sim::capture_length(&config);
    println!(
        "8-policy sweep, {n} instructions ({} warmup / {} measured):",
        config.fast_forward, config.instructions
    );
    println!("  baseline   (warmup simulated):        {baseline_s:.3} s");
    println!(
        "  cold       (+ prefix, overlays saved): {cold_s:.3} s  ({cold_overhead:.2}x baseline)"
    );
    println!(
        "  warm       (prefix + overlay):        {warm_s:.3} s  ({warm_speedup:.2}x baseline)"
    );
    println!(
        "  store: {ckpt_hits} hits / {ckpt_misses} misses / {ckpt_saves} saves, \
         {:.2} MiB on disk",
        store_size_bytes as f64 / (1024.0 * 1024.0)
    );

    if smoke {
        println!("smoke OK: passes bit-identical, warm-start composition verified");
        obs.finish(&[("warm_overlay_sweep_s", warm_s)]);
        std::fs::remove_dir_all(&tmp_traces).ok();
        std::fs::remove_dir_all(&ckpt_dir).ok();
        return;
    }

    let entry = format!(
        "  {{\n    \"bench\": \"warm_prefix\",\n    \"policies\": {policies},\n    \
         \"jobs\": {jobs},\n    \"fast_forward\": {ff},\n    \
         \"measured_instructions\": {measured},\n    \
         \"baseline_sweep_s\": {baseline_s:.4},\n    \
         \"cold_sweep_s\": {cold_s:.4},\n    \
         \"warm_overlay_sweep_s\": {warm_s:.4},\n    \
         \"cold_overhead_vs_baseline\": {cold_overhead:.3},\n    \
         \"warm_vs_baseline_speedup\": {warm_speedup:.3},\n    \
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
    let json_path = options.out_dir.join("BENCH_warm_prefix.json");
    append_trajectory(&json_path, &entry);
    trrip_obs::progress!("trajectory appended to {}", json_path.display());
    obs.finish(&[
        ("baseline_sweep_s", baseline_s),
        ("cold_sweep_s", cold_s),
        ("warm_overlay_sweep_s", warm_s),
    ]);
    std::fs::remove_dir_all(&tmp_traces).ok();
    std::fs::remove_dir_all(&ckpt_dir).ok();
}
