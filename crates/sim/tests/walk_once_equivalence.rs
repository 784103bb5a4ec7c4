//! The walk-once sweep: `policy_sweep_with` generates each workload's
//! instruction stream once and pushes it through every policy cell on
//! at most `jobs` threads — and every cell must still equal a
//! [`simulate`] of its own, field by field, whatever the worker count,
//! the workload count, or where the stream happens to be cut.
//!
//! The counter and journal checks read process-wide state, so every
//! test in this file takes [`WALKING`] (even preparing a workload walks):
//! shared for the plain equivalence tests, exclusive for the one that
//! counts.

use std::collections::BTreeSet;
use std::sync::{PoisonError, RwLock, RwLockReadGuard};

use trrip_core::ClassifierConfig;
use trrip_policies::PolicyKind;
use trrip_sim::{
    policy_sweep_with, simulate, simulate_source, PreparedWorkload, SimConfig, SimResult, SimRun,
    SnapWriter, Snapshot,
};
use trrip_trace::source::VecSource;
use trrip_trace::TraceSource;
use trrip_workloads::{InputSet, TraceGenerator, WorkloadSpec};

static WALKING: RwLock<()> = RwLock::new(());

fn shared() -> RwLockReadGuard<'static, ()> {
    WALKING.read().unwrap_or_else(PoisonError::into_inner)
}

/// Every policy the simulator can run, including the non-paper Random
/// baseline (its RNG stream is state a wrongly cut stream would skew).
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

/// Not a multiple of the executor's 16 Ki-instruction turn, nor of the
/// walker's 1 Ki batch; with the 30 000 warmup below the stream is five
/// turns long, one more than the window holds.
const INSTRUCTIONS: u64 = 40_001;

fn workload(name: &str) -> PreparedWorkload {
    let mut spec = WorkloadSpec::named(name);
    spec.functions = 50;
    spec.hot_rotation = 8;
    PreparedWorkload::prepare(&spec, 100_000, ClassifierConfig::llvm_defaults())
}

fn quick_config(fast_forward: u64) -> SimConfig {
    let mut c = SimConfig::quick(PolicyKind::Srrip);
    c.fast_forward = fast_forward;
    c.instructions = INSTRUCTIONS;
    c
}

fn costly_bytes(result: &SimResult) -> Option<Vec<u8>> {
    result.costly.as_ref().map(|tracker| {
        let mut w = SnapWriter::new();
        tracker.save(&mut w);
        w.into_bytes()
    })
}

fn assert_identical(a: &SimResult, b: &SimResult, what: &str) {
    assert_eq!(a.benchmark, b.benchmark, "{what}: benchmark");
    assert_eq!(a.policy, b.policy, "{what}: policy");
    assert_eq!(a.core, b.core, "{what}: core results diverge");
    assert_eq!(a.l1i, b.l1i, "{what}: L1-I stats diverge");
    assert_eq!(a.l1d, b.l1d, "{what}: L1-D stats diverge");
    assert_eq!(a.l2, b.l2, "{what}: L2 stats diverge");
    assert_eq!(a.slc, b.slc, "{what}: SLC stats diverge");
    assert_eq!(a.tlb, b.tlb, "{what}: TLB stats diverge");
    assert_eq!(a.pages, b.pages, "{what}: page stats diverge");
    assert_eq!(a.reuse_base, b.reuse_base, "{what}: reuse histogram diverges");
    assert_eq!(a.reuse_hot_only, b.reuse_hot_only, "{what}: hot-only histogram diverges");
    assert_eq!(costly_bytes(a), costly_bytes(b), "{what}: costly-miss tracker diverges");
}

/// One `simulate` per cell: the oracle, workload-major like a sweep.
fn per_cell(workloads: &[PreparedWorkload], config: &SimConfig) -> Vec<SimResult> {
    workloads
        .iter()
        .flat_map(|w| ALL_POLICIES.map(|p| simulate(w, &config.clone().with_policy(p))))
        .collect()
}

fn assert_sweep_matches(
    jobs: usize,
    workloads: &[PreparedWorkload],
    config: &SimConfig,
    oracle: &[SimResult],
) {
    let sweep = policy_sweep_with(jobs, workloads, config, &ALL_POLICIES);
    assert_eq!(sweep.policies, ALL_POLICIES);
    assert_eq!(sweep.benchmarks.len(), workloads.len());
    assert_eq!(sweep.results.len(), oracle.len());
    for (cell, expected) in sweep.results.iter().zip(oracle) {
        let what = format!(
            "{} / {} at jobs={jobs}, {} workload(s), fast_forward={}",
            expected.benchmark,
            expected.policy,
            workloads.len(),
            config.fast_forward
        );
        assert_identical(cell, expected, &what);
    }
}

/// One workload, so from two jobs up its ten cells are split across a
/// team reading one window (5 + 5, 4 + 3 + 3, and one cell each).
#[test]
fn one_workload_split_across_workers_equals_per_cell_simulate() {
    let _shared = shared();
    let workloads = [workload("walk-once-a")];
    let config = quick_config(30_000);
    let oracle = per_cell(&workloads, &config);
    for jobs in [1, 2, 3, ALL_POLICIES.len() + 3] {
        assert_sweep_matches(jobs, &workloads, &config, &oracle);
    }
}

/// More workloads than jobs: a round of whole workloads, one to a
/// worker, then the workload left over split between the two.
#[test]
fn whole_workloads_per_worker_equal_per_cell_simulate() {
    let _shared = shared();
    let workloads = [workload("walk-once-b"), workload("walk-once-c"), workload("walk-once-d")];
    let config = quick_config(30_000);
    let oracle = per_cell(&workloads, &config);
    assert_sweep_matches(2, &workloads, &config, &oracle);
}

/// No warmup (nothing is pushed into the fast-forward phase at all) and
/// a one-instruction warmup (the boundary falls inside the first turn),
/// over teams of unequal size.
#[test]
fn degenerate_warmups_equal_per_cell_simulate() {
    let _shared = shared();
    let workloads = [workload("walk-once-e"), workload("walk-once-f")];
    for (fast_forward, jobs) in [(0, 3), (1, ALL_POLICIES.len() + 3)] {
        let config = quick_config(fast_forward);
        let oracle = per_cell(&workloads, &config);
        assert_sweep_matches(jobs, &workloads, &config, &oracle);
    }
}

#[test]
fn profilers_ride_the_pushed_stream_unchanged() {
    let _shared = shared();
    let workloads = [workload("walk-once-g")];
    let mut config = quick_config(30_000);
    config.measure_reuse = true;
    config.track_costly = true;
    let oracle = per_cell(&workloads, &config);
    assert!(oracle.iter().all(|r| r.reuse_base.is_some() && r.costly.is_some()));
    assert_sweep_matches(3, &workloads, &config, &oracle);
}

#[test]
fn empty_sweeps_return_empty_results() {
    let _shared = shared();
    let workloads = [workload("walk-once-h")];
    let config = quick_config(1_000);
    let no_policies = policy_sweep_with(4, &workloads, &config, &[]);
    assert!(no_policies.results.is_empty() && no_policies.policies.is_empty());
    assert_eq!(no_policies.benchmarks, ["walk-once-h"]);
    let no_workloads = policy_sweep_with(4, &[], &config, &ALL_POLICIES);
    assert!(no_workloads.results.is_empty() && no_workloads.benchmarks.is_empty());
    assert_eq!(no_workloads.policies, ALL_POLICIES);
}

// ---- the push seam on its own ----

fn eval_stream(w: &PreparedWorkload, config: &SimConfig) -> Vec<trrip_cpu::TraceInstr> {
    let mut generator =
        TraceGenerator::new(&w.program, w.object(config.layout), &w.spec, InputSet::Eval);
    let needed = (config.fast_forward + config.instructions) as usize;
    let mut stream = Vec::new();
    while stream.len() < needed {
        generator.next_batch(&mut stream);
    }
    stream.truncate(needed);
    stream
}

/// Pushes `stream` through a fresh run, cut at every position in `cuts`
/// (and, as the seam requires, at the fast-forward boundary).
fn pushed(
    w: &PreparedWorkload,
    config: &SimConfig,
    stream: &[trrip_cpu::TraceInstr],
    cuts: &[usize],
) -> SimResult {
    let warmup = config.fast_forward as usize;
    let mut bounds: BTreeSet<usize> = cuts.iter().copied().filter(|&c| c < stream.len()).collect();
    bounds.insert(warmup);
    bounds.insert(stream.len());
    bounds.remove(&0);

    let mut run = SimRun::new(w, config);
    if warmup == 0 {
        run.begin_measure();
    }
    let mut start = 0;
    for end in bounds {
        let slice = &stream[start..end];
        if end <= warmup {
            run.push_fast_forward(slice, end == warmup);
            if end == warmup {
                run.begin_measure();
            }
        } else {
            run.push_measure(slice, end == stream.len());
        }
        start = end;
    }
    run.finish()
}

#[test]
fn push_seam_equals_pull_wherever_the_stream_is_cut() {
    let _shared = shared();
    let w = workload("walk-once-seam");
    // A deterministic scatter of cut points, some closer together than
    // the core's lookahead window.
    let mut scatter = Vec::new();
    let mut x = 0x9E37_79B9_u64;
    let mut at = 0usize;
    while at < 60_000 {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        at += 1 + (x >> 33) as usize % if scatter.len() % 3 == 0 { 12 } else { 3_000 };
        scatter.push(at);
    }
    for policy in [PolicyKind::Srrip, PolicyKind::Random, PolicyKind::Drrip, PolicyKind::Trrip1] {
        for fast_forward in [0u64, 1, 20_000] {
            let mut config = quick_config(fast_forward).with_policy(policy);
            config.measure_reuse = policy == PolicyKind::Trrip1;
            config.track_costly = policy == PolicyKind::Trrip1;
            let stream = eval_stream(&w, &config);
            let pulled = simulate_source(&w, &config, VecSource::new(stream.clone(), 1_024));
            let ff = fast_forward as usize;
            let cut_sets: [&[usize]; 5] = [
                &[],
                &[ff.saturating_sub(1)],
                &[ff + 1],
                &[ff.saturating_sub(1), ff, ff + 1, ff + 2],
                &scatter,
            ];
            for cuts in cut_sets {
                let what = format!("{policy}, fast_forward={fast_forward}, cuts={:?}", {
                    &cuts[..cuts.len().min(6)]
                });
                assert_identical(&pushed(&w, &config, &stream, cuts), &pulled, &what);
            }
        }
    }
}

/// Empty slices are legal anywhere, and a short stream closes with one.
#[test]
fn push_seam_takes_empty_slices_and_a_short_stream() {
    let _shared = shared();
    let w = workload("walk-once-short");
    let config = quick_config(5_000).with_policy(PolicyKind::Ship);
    let mut stream = eval_stream(&w, &config);
    stream.truncate(30_000);
    let pulled = simulate_source(&w, &config, VecSource::new(stream.clone(), 1_024));

    let mut run = SimRun::new(&w, &config);
    run.push_fast_forward(&[], false);
    run.push_fast_forward(&stream[..5_000], false);
    run.push_fast_forward(&[], true);
    run.begin_measure();
    run.push_measure(&[], false);
    run.push_measure(&stream[5_000..], false);
    run.push_measure(&[], true);
    assert_identical(&run.finish(), &pulled, "short stream closed by an empty slice");
}

#[test]
#[should_panic(expected = "pushed past the fast-forward boundary")]
fn push_seam_refuses_to_overrun_the_warmup() {
    let _shared = shared();
    let w = workload("walk-once-overrun");
    let config = quick_config(100);
    let stream = eval_stream(&w, &config);
    SimRun::new(&w, &config).push_fast_forward(&stream[..101], true);
}

// ---- walked once, on no more threads than asked for ----

/// The `thread` stamp of every `kind` event about `benchmark`.
fn threads_of(journal: &trrip_obs::JournalRead, kind: &str, benchmark: &str) -> Vec<u64> {
    journal
        .of_kind(kind)
        .filter(|e| e.get("benchmark").and_then(|b| b.as_str()) == Some(benchmark))
        .map(|e| e.get("thread").and_then(|t| t.as_u64()).expect("events carry a thread"))
        .collect()
}

#[test]
fn a_sweep_walks_each_workload_once_on_at_most_jobs_threads() {
    let _exclusive = WALKING.write().unwrap_or_else(PoisonError::into_inner);
    let one = [workload("walk-once-count")];
    let pair = [workload("walk-once-count-a"), workload("walk-once-count-b")];
    let config = quick_config(30_000);
    let walkers_worth = config.fast_forward + config.instructions;
    // The walker hands out whole batches of 1 Ki.
    let source_batch = 1_024;

    let path = std::env::temp_dir().join(format!("trrip-walk-once-{}.jsonl", std::process::id()));
    trrip_obs::journal::init(&path, 10_000).expect("open a journal");
    trrip_obs::event("caller", &[("benchmark", trrip_obs::Field::Str("caller"))]);

    // Ten cells of one workload: walked once, not ten times.
    let before = trrip_obs::snapshot();
    let _ = policy_sweep_with(3, &one, &config, &ALL_POLICIES);
    let walked = trrip_obs::snapshot().since(&before).get("walk.instrs");
    assert!(
        (walkers_worth..walkers_worth + source_batch).contains(&walked),
        "a 10-policy sweep of one workload walked {walked} instructions, one walker's worth is \
         {walkers_worth}"
    );

    // The oracle really does pay per cell.
    let before = trrip_obs::snapshot();
    let _ = per_cell(&one, &config);
    let walked = trrip_obs::snapshot().since(&before).get("walk.instrs");
    assert!(walked >= ALL_POLICIES.len() as u64 * walkers_worth, "per-cell walked only {walked}");

    // Two workloads, more jobs than cells: once each.
    let before = trrip_obs::snapshot();
    let _ = policy_sweep_with(64, &pair, &config, &ALL_POLICIES);
    let walked = trrip_obs::snapshot().since(&before).get("walk.instrs");
    assert!(
        (2 * walkers_worth..2 * (walkers_worth + source_batch)).contains(&walked),
        "a sweep of two workloads walked {walked} instructions"
    );

    // A one-cell sweep, however many jobs it is offered.
    let _ = policy_sweep_with(8, &[workload("walk-once-solo")], &config, &[PolicyKind::Clip]);

    trrip_obs::journal::close().expect("the journal was open");
    let journal = trrip_obs::read_journal(&path).expect("read the journal back");
    std::fs::remove_file(&path).ok();

    // jobs = 3 over one workload: every cell journalled, three threads.
    let started = threads_of(&journal, "cell_started", "walk-once-count");
    let finished = threads_of(&journal, "cell_finished", "walk-once-count");
    assert_eq!(started.len(), ALL_POLICIES.len());
    assert_eq!(finished.len(), ALL_POLICIES.len());
    let threads: BTreeSet<u64> = started.iter().chain(&finished).copied().collect();
    assert_eq!(threads.len(), 3, "jobs = 3 must mean three simulator threads: {threads:?}");

    // jobs = 64 over twenty cells: one thread per cell and no more.
    let threads: BTreeSet<u64> = ["walk-once-count-a", "walk-once-count-b"]
        .iter()
        .flat_map(|name| threads_of(&journal, "cell_started", name))
        .collect();
    assert_eq!(threads.len(), 2 * ALL_POLICIES.len());

    // One cell: the caller's own thread, nothing spawned.
    let caller = threads_of(&journal, "caller", "caller");
    assert_eq!(threads_of(&journal, "cell_started", "walk-once-solo"), caller);
    assert_eq!(threads_of(&journal, "cell_finished", "walk-once-solo"), caller);
    // …which is also one of the three above: the caller always works.
    assert!(started.contains(&caller[0]));
}
