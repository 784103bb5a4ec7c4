//! Proof of the decode-once promise: an 8-policy `replay_sweep` pays
//! trace decode exactly once per workload, while staying bit-identical
//! to both the walker sweep and the legacy decode-per-job replay.
//!
//! And of what a warm sweep adds to it: where every cell restores at the
//! fast-forward boundary, the one decode begins at the chunk holding the
//! boundary, and a cell whose overlay turns out damaged decodes the
//! warm-up for itself alone.
//!
//! This file intentionally holds a single `#[test]`: the decode counter
//! is process-wide, and a sibling test decoding concurrently in the same
//! binary would pollute the deltas.

use trrip_core::ClassifierConfig;
use trrip_policies::PolicyKind;
use trrip_sim::{
    capture_length, policy_sweep, replay_sweep, replay_sweep_isolated, replay_sweep_warm_prefix,
    CheckpointStore, PreparedWorkload, SimConfig, SweepResult, TraceStore,
};
use trrip_snap::corrupt;
use trrip_trace::{records_decoded, CHUNK_CAPACITY};
use trrip_workloads::WorkloadSpec;

const EIGHT_POLICIES: [PolicyKind; 8] = [
    PolicyKind::Srrip,
    PolicyKind::Lru,
    PolicyKind::Brrip,
    PolicyKind::Drrip,
    PolicyKind::Ship,
    PolicyKind::Clip,
    PolicyKind::Emissary,
    PolicyKind::Trrip1,
];

fn quick_workload(name: &str) -> PreparedWorkload {
    let mut spec = WorkloadSpec::named(name);
    spec.functions = 50;
    spec.hot_rotation = 8;
    PreparedWorkload::prepare(&spec, 100_000, ClassifierConfig::llvm_defaults())
}

#[test]
fn eight_policy_sweep_decodes_each_workload_exactly_once() {
    let dir = std::env::temp_dir().join("trrip-decode-once-test");
    std::fs::remove_dir_all(&dir).ok();
    let store = TraceStore::new(&dir);
    let workloads = vec![quick_workload("decode-once-a"), quick_workload("decode-once-b")];
    let mut config = SimConfig::quick(PolicyKind::Srrip);
    config.fast_forward = 5_000;
    config.instructions = 40_000;
    let per_workload = capture_length(&config);

    // Capture up front so the sweeps below measure replay decode only
    // (capture itself encodes, it never decodes).
    for w in &workloads {
        store.ensure(w, &config).expect("capture");
    }

    // The fan-out engine: decode exactly (workloads × trace length).
    let before = records_decoded();
    let fanned = replay_sweep(&workloads, &config, &EIGHT_POLICIES, &store);
    let fanout_decoded = records_decoded() - before;
    assert_eq!(
        fanout_decoded,
        workloads.len() as u64 * per_workload,
        "8-policy fan-out sweep must decode each workload's trace exactly once"
    );

    // The legacy engine really did pay per job — the counter sees 8×.
    let before = records_decoded();
    let isolated = replay_sweep_isolated(&workloads, &config, &EIGHT_POLICIES, &store);
    let isolated_decoded = records_decoded() - before;
    assert_eq!(
        isolated_decoded,
        workloads.len() as u64 * EIGHT_POLICIES.len() as u64 * per_workload,
        "decode-per-job baseline should decode once per (workload, policy)"
    );

    // And the speedup is not bought with accuracy: all three engines
    // agree bit-for-bit.
    let walked = policy_sweep(&workloads, &config, &EIGHT_POLICIES);
    assert_eq!(fanned.results.len(), walked.results.len());
    for ((a, b), c) in fanned.results.iter().zip(&walked.results).zip(&isolated.results) {
        assert_eq!(a.policy, b.policy);
        assert_eq!(a.core, b.core, "fan-out vs walker: {} {}", a.benchmark, a.policy);
        assert_eq!(a.l1i, b.l1i);
        assert_eq!(a.l1d, b.l1d);
        assert_eq!(a.l2, b.l2);
        assert_eq!(a.slc, b.slc);
        assert_eq!(a.tlb, b.tlb);
        assert_eq!(a.core, c.core, "fan-out vs isolated replay: {} {}", a.benchmark, a.policy);
        assert_eq!(a.l2, c.l2);
    }

    // Warm: a fast-forward boundary two chunks and a bit into the trace.
    // The populating sweep reads the warm-up; the sweep after it restores
    // every cell, so its decode starts at the third chunk.
    let skipped = 2 * u64::from(CHUNK_CAPACITY);
    config.fast_forward = skipped + 5_000;
    let per_workload = capture_length(&config);
    let checkpoints = CheckpointStore::new(dir.join("ckpt"));
    let warm_sweep =
        || replay_sweep_warm_prefix(4, &workloads, &config, &EIGHT_POLICIES, &store, &checkpoints);
    let walked = policy_sweep(&workloads, &config, &EIGHT_POLICIES);
    let same_cores = |swept: &SweepResult, what: &str| {
        for (a, b) in swept.results.iter().zip(&walked.results) {
            assert_eq!(a.core, b.core, "{what}: {} {}", a.benchmark, a.policy);
            assert_eq!(a.l2, b.l2, "{what}: {} {}", a.benchmark, a.policy);
        }
    };
    same_cores(&warm_sweep(), "populating sweep");
    let before = records_decoded();
    same_cores(&warm_sweep(), "warm sweep");
    assert_eq!(
        records_decoded() - before,
        workloads.len() as u64 * (per_workload - skipped),
        "a sweep of restores must not decode the chunks before the boundary"
    );

    // One overlay that is there but does not load: its cell replays the
    // warm-up tail from a decode of its own, the rest share the one that
    // starts at the boundary.
    let victim = config.clone().with_policy(PolicyKind::Clip);
    corrupt::flip_middle_byte(&checkpoints.overlay_path(&workloads[1], &victim));
    let before = records_decoded();
    same_cores(&warm_sweep(), "warm sweep over a damaged overlay");
    assert_eq!(
        records_decoded() - before,
        workloads.len() as u64 * (per_workload - skipped) + per_workload,
        "the damaged cell alone pays for the warm-up it has to read"
    );
    std::fs::remove_dir_all(&dir).ok();
}
