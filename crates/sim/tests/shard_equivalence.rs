//! Sharded execution correctness: a run cut into chunk-range segments
//! — chained through checkpoints, merged with [`SimResult::merge`] —
//! must be bit-identical to the uninterrupted run for every policy, and
//! the merge itself must be associative with the empty segment as
//! identity.

use std::path::PathBuf;

use proptest::prelude::*;
use trrip_core::ClassifierConfig;
use trrip_policies::PolicyKind;
use trrip_sim::{
    replay_sweep_sharded, simulate, simulate_sharded, CheckpointStore, PreparedWorkload, ShardPlan,
    SimConfig, SimResult, SimRun, TraceStore,
};
use trrip_trace::SourceIter;
use trrip_workloads::{InputSet, TraceGenerator, WorkloadSpec};

/// Every policy the simulator can run, including the non-paper Random
/// baseline (whose RNG stream is part of the architectural state that
/// must survive the chain).
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

fn quick_workload() -> PreparedWorkload {
    let mut spec = WorkloadSpec::named("shard-test");
    spec.functions = 50;
    spec.hot_rotation = 8;
    PreparedWorkload::prepare(&spec, 300_000, ClassifierConfig::llvm_defaults())
}

fn quick_config(policy: PolicyKind) -> SimConfig {
    let mut c = SimConfig::quick(policy);
    c.fast_forward = 20_000;
    c.instructions = 60_000;
    c
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn assert_identical(a: &SimResult, b: &SimResult, what: &str) {
    assert_eq!(a.core, b.core, "{what}: core results diverge");
    assert_eq!(a.l1i, b.l1i, "{what}: L1-I stats diverge");
    assert_eq!(a.l1d, b.l1d, "{what}: L1-D stats diverge");
    assert_eq!(a.l2, b.l2, "{what}: L2 stats diverge");
    assert_eq!(a.slc, b.slc, "{what}: SLC stats diverge");
    assert_eq!(a.tlb, b.tlb, "{what}: TLB stats diverge");
    assert_eq!(a.pages, b.pages, "{what}: page stats diverge");
}

/// The acceptance bar: for all 10 policies, a 3-segment sharded run —
/// cold first (building the chain), then warm (consuming the persisted
/// chain links) — equals the uninterrupted walker run bit-for-bit.
#[test]
fn sharded_run_is_bit_identical_for_every_policy() {
    let w = quick_workload();
    let trace_dir = scratch_dir("trrip-shard-equivalence-traces");
    let ckpt_dir = scratch_dir("trrip-shard-equivalence-ckpts");
    let traces = TraceStore::new(&trace_dir);
    let ckpts = CheckpointStore::new(&ckpt_dir);

    for policy in ALL_POLICIES {
        let config = quick_config(policy);
        let plan = ShardPlan::new(&config, 3);
        assert_eq!(plan.segments(), 3);
        let uninterrupted = simulate(&w, &config);

        let cold = simulate_sharded(&w, &config, &plan, &traces, Some(&ckpts));
        assert_identical(&uninterrupted, &cold, &format!("{policy} cold sharded"));

        // The cold pass persisted the chain: every interior link exists.
        for seg in 1..plan.segments() {
            assert!(
                ckpts.has_segment(&w, &config, seg - 1, plan.measure_start(seg)),
                "{policy}: chain link {} missing after the cold pass",
                seg - 1
            );
        }

        let warm = simulate_sharded(&w, &config, &plan, &traces, Some(&ckpts));
        assert_identical(&uninterrupted, &warm, &format!("{policy} warm sharded"));
    }
    std::fs::remove_dir_all(&trace_dir).ok();
    std::fs::remove_dir_all(&ckpt_dir).ok();
}

/// Profiler tallies (reuse histograms, costly-miss tracker) shard and
/// merge exactly too.
#[test]
fn sharded_profilers_match_uninterrupted() {
    let w = quick_workload();
    let trace_dir = scratch_dir("trrip-shard-profiler-traces");
    let traces = TraceStore::new(&trace_dir);

    let mut config = quick_config(PolicyKind::Trrip1);
    config.measure_reuse = true;
    config.track_costly = true;
    let plan = ShardPlan::new(&config, 4);
    let uninterrupted = simulate(&w, &config);
    let sharded = simulate_sharded(&w, &config, &plan, &traces, None);

    assert_identical(&uninterrupted, &sharded, "profiled sharded run");
    assert_eq!(uninterrupted.reuse_base, sharded.reuse_base, "reuse histograms diverge");
    assert_eq!(uninterrupted.reuse_hot_only, sharded.reuse_hot_only);
    let a = uninterrupted.costly.as_ref().expect("tracker armed");
    let b = sharded.costly.as_ref().expect("tracker armed");
    assert_eq!(a.distinct_lines(), b.distinct_lines());
    assert_eq!(a.cost_by_region(), b.cost_by_region());
    std::fs::remove_dir_all(&trace_dir).ok();
}

/// The sweep engine: cold (chain-building), warm (chain-consuming), and
/// warm-with-a-missing-link (cold fallback) all equal the walker sweep.
#[test]
fn sharded_sweep_matches_other_engines_and_survives_missing_links() {
    let w = quick_workload();
    let workloads = [w];
    let config = quick_config(PolicyKind::Srrip);
    let policies = [PolicyKind::Srrip, PolicyKind::Random, PolicyKind::Trrip2];
    let plan = ShardPlan::new(&config, 3);

    let trace_dir = scratch_dir("trrip-shard-sweep-traces");
    let ckpt_dir = scratch_dir("trrip-shard-sweep-ckpts");
    let traces = TraceStore::new(&trace_dir);
    let ckpts = CheckpointStore::new(&ckpt_dir);

    let walked = trrip_sim::policy_sweep(&workloads, &config, &policies);
    let cold = replay_sweep_sharded(4, &workloads, &config, &policies, &traces, &ckpts, 3);
    let warm = replay_sweep_sharded(4, &workloads, &config, &policies, &traces, &ckpts, 3);

    for ((a, b), c) in walked.results.iter().zip(&cold.results).zip(&warm.results) {
        assert_identical(a, b, "cold sharded sweep");
        assert_identical(a, c, "warm sharded sweep");
    }

    // Break the chain: delete one interior link per cell, plus the
    // fast-forward state of one policy (its overlay). The sweep must
    // fall back — cold segment rebuild, a warm-up of its own for the
    // cell with the missing overlay — and still match.
    for policy in policies {
        let cell_config = config.clone().with_policy(policy);
        let link = ckpts.segment_path(&workloads[0], &cell_config, 0, plan.measure_start(1));
        std::fs::remove_file(&link).expect("chain link existed");
    }
    let overlay =
        ckpts.overlay_path(&workloads[0], &config.clone().with_policy(PolicyKind::Random));
    std::fs::remove_file(&overlay).expect("overlay existed");

    let patched = replay_sweep_sharded(4, &workloads, &config, &policies, &traces, &ckpts, 3);
    for (a, b) in walked.results.iter().zip(&patched.results) {
        assert_identical(a, b, "sharded sweep with missing chain links");
    }

    // The segments that paid the cold fallback repaired the chain: the
    // deleted links are back on disk for the next sweep.
    for policy in policies {
        let cell_config = config.clone().with_policy(policy);
        assert!(
            ckpts.has_segment(&workloads[0], &cell_config, 0, plan.measure_start(1)),
            "{policy}: deleted chain link must be re-persisted by the fallback"
        );
    }
    std::fs::remove_dir_all(&trace_dir).ok();
    std::fs::remove_dir_all(&ckpt_dir).ok();
}

fn walker<'a>(w: &'a PreparedWorkload, config: &'a SimConfig) -> SourceIter<TraceGenerator<'a>> {
    let object = w.object(config.layout);
    SourceIter::new(TraceGenerator::new(&w.program, object, &w.spec, InputSet::Eval))
}

/// Runs one walker-driven measure window cut at `cuts` (measure-phase
/// positions), returning the per-segment fragments.
fn fragments_at(w: &PreparedWorkload, config: &SimConfig, cuts: &[u64]) -> Vec<SimResult> {
    let mut run = SimRun::new(w, config);
    let mut stream = walker(w, config);
    run.fast_forward(&mut stream);
    run.begin_measure();
    let mut fragments = Vec::new();
    let mut prev = 0u64;
    let ends: Vec<u64> = cuts.iter().copied().chain(std::iter::once(config.instructions)).collect();
    for (i, &end) in ends.iter().enumerate() {
        run.begin_segment();
        let cut = run.measure_chunk(&mut stream, end - prev, i + 1 == ends.len());
        assert_eq!(cut.consumed, end, "cut point must be exact");
        fragments.push(run.collect_segment());
        prev = end;
    }
    fragments
}

fn merge_all(fragments: &[SimResult]) -> SimResult {
    let mut whole = fragments[0].clone();
    for f in &fragments[1..] {
        whole.merge(f);
    }
    whole
}

/// Merge algebra on real fragments: associativity and the empty-segment
/// identity (an empty segment tallies nothing and carries the clock).
#[test]
fn merge_is_associative_with_empty_identity() {
    let w = quick_workload();
    let mut config = quick_config(PolicyKind::Clip);
    config.instructions = 30_000;

    // An empty segment: two adjacent cuts at the same position.
    let frags = fragments_at(&w, &config, &[9_000, 9_000, 21_000]);
    assert_eq!(frags.len(), 4);
    assert_eq!(frags[1].core.instructions, 0, "second fragment must be empty");

    let reference = simulate(&w, &config);
    assert_identical(&merge_all(&frags), &reference, "fold with empty segment");

    // Associativity: ((a⊕b)⊕c)⊕d == (a⊕(b⊕c))⊕d == a⊕(b⊕(c⊕d)).
    let left = merge_all(&frags);
    let mut bc = frags[1].clone();
    bc.merge(&frags[2]);
    let mut mid = frags[0].clone();
    mid.merge(&bc);
    mid.merge(&frags[3]);
    let mut cd = frags[2].clone();
    cd.merge(&frags[3]);
    let mut bcd = frags[1].clone();
    bcd.merge(&cd);
    let mut right = frags[0].clone();
    right.merge(&bcd);
    assert_identical(&left, &mid, "(a⊕b)⊕c grouping");
    assert_identical(&left, &right, "a⊕(b⊕c) grouping");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any K-way cut of a short run merges to the uninterrupted result,
    /// for three policies including Random (whose RNG stream must not
    /// be disturbed by segment boundaries).
    #[test]
    fn any_cut_merges_to_the_uninterrupted_run(
        raw_cuts in prop::collection::vec(1u64..30_000, 1..5),
        policy_idx in 0usize..3,
    ) {
        use std::sync::OnceLock;
        static WORKLOAD: OnceLock<PreparedWorkload> = OnceLock::new();
        let w = WORKLOAD.get_or_init(quick_workload);

        let policy = [PolicyKind::Srrip, PolicyKind::Random, PolicyKind::Trrip2][policy_idx];
        let mut config = quick_config(policy);
        config.instructions = 30_000;

        let mut cuts = raw_cuts;
        cuts.sort_unstable();
        cuts.dedup();

        let reference = simulate(w, &config);
        let merged = merge_all(&fragments_at(w, &config, &cuts));
        prop_assert_eq!(&merged.core, &reference.core, "core diverged at cuts {:?}", &cuts);
        prop_assert_eq!(&merged.l2, &reference.l2);
        prop_assert_eq!(&merged.slc, &reference.slc);
        prop_assert_eq!(&merged.tlb, &reference.tlb);
    }
}
