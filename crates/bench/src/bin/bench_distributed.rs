//! Wall-clock benchmark and smoke test of crash-tolerant multi-process
//! sweeps: N worker **processes** cooperate over one shared
//! `--trace-dir`/`--checkpoint-dir` through the claim protocol
//! (`trrip_sim::coordinate`) — each claims a workload's row and runs it
//! through `replay_sweep` — and a collector reads their published
//! result fragments.
//!
//! Modes:
//!
//! * **bench** (default) — times a four-workload, 8-policy sweep at 1, 2
//!   and 4 worker processes against the in-process `replay_sweep` (on
//!   one thread, the base of the one-worker point, and on `--jobs`
//!   threads, the base of the others), asserts every point bit-identical
//!   to it, measures the disabled fault-point probe cost, and appends
//!   the run — every point with its base, as it reads — to
//!   `BENCH_distributed.json` under `--out`.
//! * **`--smoke`** — the crash drill CI runs: one worker is SIGKILLed
//!   by an armed fault while holding a claim, the coordinator journals
//!   `worker_lost`, two healers reclaim the stale claim and finish the
//!   sweep, and completion must be bit-identical to the single-process
//!   sweep with the `worker_lost`/`claim_reclaimed` event pair present
//!   in the journals.
//!
//! Worker processes are this same binary re-invoked with `--worker-id N`
//! (plus the shared dirs); heartbeat/staleness knobs cross the process
//! boundary as `TRRIP_DIST_HEARTBEAT_MS`/`TRRIP_DIST_STALE_MS`, fault
//! arming as `TRRIP_FAULTS`. The coordinator tails every worker's
//! journal (`coord/obs/worker-N.jsonl`) for liveness while it waits.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use trrip_bench::{append_trajectory, HarnessOptions};
use trrip_core::ClassifierConfig;
use trrip_policies::PolicyKind;
use trrip_sim::{
    collect_results, replay_sweep, CheckpointStore, PreparedWorkload, SimConfig, SweepResult,
    TraceStore, WorkerOptions,
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

/// The smoke drill's smaller sweep: both paper policies plus the SRRIP
/// baseline keeps the kill/reclaim/heal cycle under a few seconds.
const SMOKE_POLICIES: [PolicyKind; 3] = [PolicyKind::Srrip, PolicyKind::Trrip1, PolicyKind::Trrip2];

/// Timing repetitions per distributed point; the minimum is reported.
const REPS: usize = 2;

/// Journal cap for coordinator and worker journals.
const MAX_JOURNAL_EVENTS: u64 = 262_144;

/// Worker ladder the bench mode sweeps.
const WORKER_POINTS: [usize; 3] = [1, 2, 4];

/// Flags owned by this binary, filtered out before the remaining
/// command line reaches `HarnessOptions::try_parse` (which rejects
/// unknown flags).
struct DistFlags {
    /// `--worker-id N`: run as worker N instead of coordinating.
    worker_id: Option<u32>,
    /// `--smoke`: run the CI crash drill instead of the bench ladder.
    smoke: bool,
}

fn split_dist_flags(args: Vec<String>) -> Result<(DistFlags, Vec<String>), String> {
    let mut dist = DistFlags { worker_id: None, smoke: false };
    let mut rest = Vec::with_capacity(args.len());
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--worker-id" => {
                let v = args.next().ok_or("--worker-id needs a value")?;
                dist.worker_id = Some(
                    v.parse().map_err(|_| format!("--worker-id must be an integer, got `{v}`"))?,
                );
            }
            "--smoke" => dist.smoke = true,
            _ => rest.push(arg),
        }
    }
    Ok((dist, rest))
}

/// The sweep's rows: two for the smoke drill (one published before the
/// kill, one claimed when it lands), four for the bench ladder, so that
/// two and four workers each have rows to split.
fn workloads(smoke: bool) -> Vec<PreparedWorkload> {
    let (rows, prefix, functions, hot_rotation, train) =
        if smoke { (2, "dist-smoke", 50, 8, 400_000) } else { (4, "dist-bench", 120, 30, 100_000) };
    (0..rows)
        .map(|row| {
            let mut spec = WorkloadSpec::named(&format!("{prefix}-{row}"));
            spec.functions = functions;
            spec.hot_rotation = hot_rotation;
            PreparedWorkload::prepare(&spec, train, ClassifierConfig::llvm_defaults())
        })
        .collect()
}

fn base_config(options: &HarnessOptions, smoke: bool) -> SimConfig {
    let mut config = SimConfig::quick(PolicyKind::Srrip);
    if smoke {
        config.fast_forward = 20_000;
        config.instructions = 60_000;
    } else {
        config.fast_forward = 400_000 * options.scale;
        config.instructions = 200_000 * options.scale;
    }
    config
}

fn policies(smoke: bool) -> &'static [PolicyKind] {
    if smoke {
        &SMOKE_POLICIES
    } else {
        &POLICIES
    }
}

fn env_ms(key: &str, default: u64) -> Duration {
    let ms = std::env::var(key).ok().and_then(|v| v.parse().ok()).unwrap_or(default);
    Duration::from_millis(ms)
}

fn coord_obs_dir(ckpt_dir: &Path) -> PathBuf {
    ckpt_dir.join("coord").join("obs")
}

fn worker_journal(ckpt_dir: &Path, id: u32) -> PathBuf {
    coord_obs_dir(ckpt_dir).join(format!("worker-{id}.jsonl"))
}

// ---------------------------------------------------------------------
// Worker role
// ---------------------------------------------------------------------

fn worker_main(id: u32, options: &HarnessOptions, smoke: bool) {
    let trace_dir = options.trace_dir.as_ref().expect("--worker-id requires --trace-dir");
    let ckpt_dir = options.checkpoint_dir.as_ref().expect("--worker-id requires --checkpoint-dir");
    let journal = worker_journal(ckpt_dir, id);
    std::fs::create_dir_all(journal.parent().expect("journal dir")).expect("create journal dir");
    trrip_obs::journal_init(&journal, MAX_JOURNAL_EVENTS).expect("open worker journal");

    let workloads = workloads(smoke);
    let config = base_config(options, smoke);
    let traces = TraceStore::new(trace_dir);
    let checkpoints = CheckpointStore::new(ckpt_dir);
    let mut opts = WorkerOptions::named(format!("w{id}"));
    opts.heartbeat = env_ms("TRRIP_DIST_HEARTBEAT_MS", 300);
    opts.stale_after = env_ms("TRRIP_DIST_STALE_MS", 3_000);

    let report = trrip_sim::coordinate_worker(
        &workloads,
        &config,
        policies(smoke),
        &traces,
        &checkpoints,
        &opts,
    );
    trrip_obs::progress!(
        "worker w{id}: {} fragments, {} claims, {} reclaims, {} conflicts",
        report.fragments,
        report.claims,
        report.reclaims,
        report.conflicts
    );
    trrip_obs::journal_close();
}

// ---------------------------------------------------------------------
// Coordinator: spawning, liveness tailing, collection
// ---------------------------------------------------------------------

struct WorkerEnv<'a> {
    trace_dir: &'a Path,
    ckpt_dir: &'a Path,
    scale: u64,
    smoke: bool,
    heartbeat_ms: u64,
    stale_ms: u64,
}

fn spawn_worker(env: &WorkerEnv<'_>, id: u32, faults: Option<&str>) -> Child {
    let mut cmd = Command::new(std::env::current_exe().expect("own binary path"));
    cmd.arg("--worker-id")
        .arg(id.to_string())
        .arg("--trace-dir")
        .arg(env.trace_dir)
        .arg("--checkpoint-dir")
        .arg(env.ckpt_dir)
        .arg("--scale")
        .arg(env.scale.to_string())
        .arg("--quiet")
        .env("TRRIP_DIST_HEARTBEAT_MS", env.heartbeat_ms.to_string())
        .env("TRRIP_DIST_STALE_MS", env.stale_ms.to_string())
        .env_remove("TRRIP_FAULTS")
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    if env.smoke {
        cmd.arg("--smoke");
    }
    if let Some(spec) = faults {
        cmd.env("TRRIP_FAULTS", spec);
    }
    cmd.spawn().expect("spawn worker process")
}

/// Waits for every spawned worker, tailing their journals for liveness
/// while they run. A worker that exits nonzero is journaled as
/// `worker_lost` (the crash-drill observable) and counted. Returns the
/// ids of lost workers.
fn wait_workers(env: &WorkerEnv<'_>, mut children: Vec<(u32, Child)>) -> Vec<u32> {
    let mut tailers: Vec<(u32, trrip_obs::JournalTailer, u64)> = children
        .iter()
        .map(|(id, _)| (*id, trrip_obs::JournalTailer::new(worker_journal(env.ckpt_dir, *id)), 0))
        .collect();
    let mut lost = Vec::new();
    let mut last_report = Instant::now();
    while !children.is_empty() {
        children.retain_mut(|(id, child)| match child.try_wait().expect("poll worker process") {
            None => true,
            Some(status) if status.success() => false,
            Some(status) => {
                let exit = status.code().unwrap_or(-1);
                trrip_obs::counter!("coord.worker_lost").incr();
                trrip_obs::event(
                    "worker_lost",
                    &[
                        ("worker", trrip_obs::Field::Str(&format!("w{id}"))),
                        ("exit", trrip_obs::Field::U64(exit.unsigned_abs().into())),
                    ],
                );
                trrip_obs::progress!("worker w{id} lost (exit {exit})");
                lost.push(*id);
                false
            }
        });
        // Liveness: drain each worker's journal; a quiet second gets a
        // one-line progress report of per-worker event counts.
        for (_, tailer, seen) in &mut tailers {
            if let Ok(events) = tailer.poll() {
                *seen += events.len() as u64;
            }
        }
        if last_report.elapsed() > Duration::from_secs(5) {
            let counts = tailers
                .iter()
                .map(|(id, _, seen)| format!("w{id}:{seen}"))
                .collect::<Vec<_>>()
                .join(" ");
            trrip_obs::progress!("workers alive: {counts} journal events");
            last_report = Instant::now();
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    lost
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

/// Per-call cost of a **disabled** fault point (one relaxed atomic
/// load): the price every guarded save/heartbeat site pays when no
/// faults are armed, which is the production configuration.
fn disabled_fault_ns() -> f64 {
    const ITERS: u32 = 2_000_000;
    trrip_obs::disarm_faults();
    let start = Instant::now();
    for _ in 0..ITERS {
        trrip_obs::fault!(std::hint::black_box("bench.overhead.probe"));
    }
    start.elapsed().as_secs_f64() * 1e9 / f64::from(ITERS)
}

/// One distributed point: fresh coordination state, `n` workers raced
/// to completion, results collected and checked against `baseline`.
/// Returns the wall-clock seconds from first spawn to collected results.
fn run_point(
    env: &WorkerEnv<'_>,
    n: usize,
    workloads: &[PreparedWorkload],
    config: &SimConfig,
    baseline: &SweepResult,
) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        std::fs::remove_dir_all(env.ckpt_dir).ok();
        std::fs::create_dir_all(coord_obs_dir(env.ckpt_dir)).expect("coord obs dir");
        let start = Instant::now();
        let children =
            (0..n as u32).map(|id| (id, spawn_worker(env, id, None))).collect::<Vec<_>>();
        let lost = wait_workers(env, children);
        assert!(lost.is_empty(), "no worker may die in the bench ladder: lost {lost:?}");
        let checkpoints = CheckpointStore::new(env.ckpt_dir);
        let sweep = collect_results(workloads, config, policies(env.smoke), &checkpoints)
            .expect("collect results")
            .expect("sweep must be complete once all workers exited cleanly");
        best = best.min(start.elapsed().as_secs_f64());
        assert_identical(baseline, &sweep, &format!("{n}-worker distributed sweep"));
    }
    best
}

// ---------------------------------------------------------------------
// Smoke: the CI crash drill
// ---------------------------------------------------------------------

fn run_smoke(
    env: &WorkerEnv<'_>,
    workloads: &[PreparedWorkload],
    config: &SimConfig,
    coordinator_journal: &Path,
) {
    let baseline_ckpts = CheckpointStore::new(env.ckpt_dir.with_extension("baseline"));
    let traces = TraceStore::new(env.trace_dir);
    let baseline =
        replay_sweep(2, workloads, config, policies(true), &traces, Some(&baseline_ckpts));

    // Phase 1: worker 0 runs alone, armed to be SIGKILLed the moment it
    // acquires its second claim — it dies holding a fresh claim, with
    // one row's fragments published and no heartbeat to keep the claim
    // alive.
    trrip_obs::progress!("smoke: worker w0 armed with kill fault…");
    let w0 = spawn_worker(env, 0, Some("coord.claim.acquired=kill@2"));
    let lost = wait_workers(env, vec![(0, w0)]);
    assert_eq!(lost, [0], "worker w0 must be lost to the armed kill");

    // Phase 2: two healers race for what is left; one must reclaim the
    // dead worker's stale claim for the sweep to complete.
    trrip_obs::progress!("smoke: healers w1/w2 sweeping up…");
    let children = vec![(1, spawn_worker(env, 1, None)), (2, spawn_worker(env, 2, None))];
    let lost = wait_workers(env, children);
    assert!(lost.is_empty(), "healers must finish cleanly, lost {lost:?}");

    let checkpoints = CheckpointStore::new(env.ckpt_dir);
    let sweep = collect_results(workloads, config, policies(true), &checkpoints)
        .expect("collect results")
        .expect("sweep complete after healers");
    assert_identical(&baseline, &sweep, "smoke sweep after kill + reclamation");

    // The observable event pair: the coordinator journaled the loss,
    // and a healer journaled the reclamation naming the dead worker.
    let reclaimed = [1u32, 2]
        .iter()
        .flat_map(|&id| {
            trrip_obs::read_journal(&worker_journal(env.ckpt_dir, id))
                .map(|r| r.of_kind("claim_reclaimed").cloned().collect::<Vec<_>>())
                .unwrap_or_default()
        })
        .collect::<Vec<_>>();
    assert!(
        reclaimed.iter().any(|e| {
            e.get("prev_worker").and_then(trrip_obs::json::Json::as_str) == Some("w0")
        }),
        "a healer must have reclaimed w0's stale claim: {reclaimed:?}"
    );
    let lost_events = trrip_obs::read_journal(coordinator_journal)
        .map(|r| r.of_kind("worker_lost").count())
        .unwrap_or(0);
    assert!(lost_events >= 1, "the coordinator must have journaled worker_lost");
    println!(
        "smoke OK: w0 killed holding a claim, reclaimed by a healer, {} cells bit-identical",
        sweep.results.len()
    );
}

// ---------------------------------------------------------------------

fn main() {
    let (dist, rest) = match split_dist_flags(std::env::args().skip(1).collect()) {
        Ok(split) => split,
        Err(message) => {
            eprintln!("error: {message}");
            std::process::exit(2);
        }
    };
    let options = match HarnessOptions::try_parse(rest) {
        Ok(Some(options)) => options,
        Ok(None) => {
            println!(
                "bench_distributed [--smoke] [--worker-id N] [harness flags...]\n\
                 Multi-process claim-protocol sweeps; see crate docs."
            );
            return;
        }
        Err(message) => {
            eprintln!("error: {message}");
            std::process::exit(2);
        }
    };
    if let Err(message) = options.validate_dirs() {
        eprintln!("error: {message}");
        std::process::exit(2);
    }
    if let Err(message) = options.apply_observability() {
        eprintln!("error: {message}");
        std::process::exit(2);
    }

    if let Some(id) = dist.worker_id {
        worker_main(id, &options, dist.smoke);
        return;
    }

    let obs = options.obs_session("bench_distributed");
    let smoke = dist.smoke;

    let tmp_traces = std::env::temp_dir().join("trrip-bench-distributed-traces");
    let trace_dir = options.trace_dir.clone().unwrap_or(tmp_traces.clone());
    let ckpt_dir = options
        .checkpoint_dir
        .clone()
        .unwrap_or_else(|| std::env::temp_dir().join("trrip-bench-distributed-ckpts"));
    std::fs::remove_dir_all(&ckpt_dir).ok();
    std::fs::create_dir_all(coord_obs_dir(&ckpt_dir)).expect("coord obs dir");

    // The coordinator's own journal records worker_lost events; with
    // `--obs-dir` the harness already opened one there instead.
    let coordinator_journal = match &options.obs_dir {
        Some(dir) => dir.join("journal.jsonl"),
        None => {
            let path = coord_obs_dir(&ckpt_dir).join("coordinator.jsonl");
            trrip_obs::journal_init(&path, MAX_JOURNAL_EVENTS).expect("open coordinator journal");
            path
        }
    };

    let workloads = workloads(smoke);
    let config = base_config(&options, smoke);
    let traces = TraceStore::new(&trace_dir);
    // Captured up front, so that every timed sweep — in-process or of
    // worker processes — replays.
    trrip_obs::progress!("capturing traces under {}…", trace_dir.display());
    for workload in &workloads {
        traces.ensure(workload, &config).expect("capture trace");
    }

    let env = WorkerEnv {
        trace_dir: &trace_dir,
        ckpt_dir: &ckpt_dir,
        scale: options.scale,
        smoke,
        heartbeat_ms: if smoke { 100 } else { 300 },
        stale_ms: if smoke { 800 } else { 5_000 },
    };

    if smoke {
        run_smoke(&env, &workloads, &config, &coordinator_journal);
        trrip_obs::journal_close();
        std::fs::remove_dir_all(&tmp_traces).ok();
        return;
    }

    // --- Baselines: the in-process sweep over an empty checkpoint store,
    // on one thread (what one worker process has) and on `--jobs`. ---
    trrip_obs::progress!("baseline: in-process replay_sweep…");
    let baseline_dir = ckpt_dir.with_extension("baseline");
    let baseline_ckpts = CheckpointStore::new(&baseline_dir);
    let in_process = |jobs: usize| {
        let timed = |_| {
            std::fs::remove_dir_all(&baseline_dir).ok();
            let start = Instant::now();
            let sweep = replay_sweep(
                jobs,
                &workloads,
                &config,
                policies(false),
                &traces,
                Some(&baseline_ckpts),
            );
            (start.elapsed().as_secs_f64(), sweep)
        };
        (0..REPS).map(timed).min_by(|a, b| a.0.total_cmp(&b.0)).expect("REPS is at least 1")
    };
    let (baseline_1_s, _) = in_process(1);
    let (baseline_s, baseline) = in_process(options.jobs);

    // --- The worker ladder: cold coordination state per point. ---
    let mut point_s = [0.0f64; WORKER_POINTS.len()];
    for (i, &n) in WORKER_POINTS.iter().enumerate() {
        trrip_obs::progress!("distributed point: {n} worker(s)…");
        point_s[i] = run_point(&env, n, &workloads, &config, &baseline);
    }
    // Each point against its base: one worker is one thread.
    let bases = [baseline_1_s, baseline_s, baseline_s];
    let ratio: [f64; WORKER_POINTS.len()] = std::array::from_fn(|i| point_s[i] / bases[i]);

    let fault_ns = disabled_fault_ns();
    let host_cores = std::thread::available_parallelism().map_or(0, usize::from);
    let n = trrip_sim::capture_length(&config);
    println!(
        "{} workloads x {} policies, {n} instructions each ({} warmup / {} measured), on {host_cores} \
         host core(s):",
        workloads.len(),
        POLICIES.len(),
        config.fast_forward,
        config.instructions,
    );
    println!("  in-process replay_sweep, jobs 1:        {baseline_1_s:.3} s");
    println!("  in-process replay_sweep, jobs {}:        {baseline_s:.3} s", options.jobs);
    for (i, &workers) in WORKER_POINTS.iter().enumerate() {
        println!(
            "  {workers} worker process(es):                  {:.3} s  ({:.2}x its base)",
            point_s[i], ratio[i]
        );
    }
    println!("  disabled fault-point probe:             {fault_ns:.1} ns/site");

    let entry = format!(
        "  {{\n    \"bench\": \"distributed_claims\",\n    \"workloads\": {rows},\n    \
         \"policies\": {policies},\n    \"host_cores\": {host_cores},\n    \
         \"jobs\": {jobs},\n    \
         \"fast_forward\": {ff},\n    \"measured_instructions\": {measured},\n    \
         \"baseline_replay_sweep_jobs1_s\": {baseline_1_s:.4},\n    \
         \"baseline_replay_sweep_s\": {baseline_s:.4},\n    \
         \"workers_1_s\": {w1:.4},\n    \"workers_2_s\": {w2:.4},\n    \
         \"workers_4_s\": {w4:.4},\n    \
         \"coordination_overhead_1_worker\": {r1:.3},\n    \
         \"workers_2_vs_baseline\": {r2:.3},\n    \
         \"workers_4_vs_baseline\": {r4:.3},\n    \
         \"disabled_fault_probe_ns\": {fault_ns:.1}\n  }}",
        rows = workloads.len(),
        policies = POLICIES.len(),
        jobs = options.jobs,
        ff = config.fast_forward,
        measured = config.instructions,
        w1 = point_s[0],
        w2 = point_s[1],
        w4 = point_s[2],
        r1 = ratio[0],
        r2 = ratio[1],
        r4 = ratio[2],
    );
    std::fs::create_dir_all(&options.out_dir).expect("create out dir");
    let json_path = options.out_dir.join("BENCH_distributed.json");
    append_trajectory(&json_path, &entry);
    trrip_obs::progress!("trajectory appended to {}", json_path.display());
    obs.finish(&[
        ("baseline_replay_sweep_jobs1_s", baseline_1_s),
        ("baseline_replay_sweep_s", baseline_s),
        ("workers_1_s", point_s[0]),
        ("workers_2_s", point_s[1]),
        ("workers_4_s", point_s[2]),
        ("disabled_fault_probe_ns", fault_ns),
    ]);
    trrip_obs::journal_close();
    std::fs::remove_dir_all(&tmp_traces).ok();
    std::fs::remove_dir_all(&ckpt_dir).ok();
    std::fs::remove_dir_all(&baseline_dir).ok();
}
