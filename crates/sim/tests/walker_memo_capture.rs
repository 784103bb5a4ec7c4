//! Fingerprint stability under walker memoization.
//!
//! The trace store keys captures by workload name, layout, run length
//! and a placement fingerprint. Walker memoization must be invisible at
//! this layer: a memoized capture has to produce byte-identical trace
//! chunks (same on-disk file, bit for bit) and the same placement
//! fingerprint as a capture driven by the fresh, re-derive-per-visit
//! walker. Otherwise a memoized run and a fresh run could disagree about
//! whether an existing capture is reusable — or worse, silently share a
//! file whose contents differ.

use trrip_core::ClassifierConfig;
use trrip_policies::PolicyKind;
use trrip_sim::capture::{capture_length, capture_trace, trace_layout, workload_fingerprint};
use trrip_sim::{PreparedWorkload, SimConfig, TraceStore};
use trrip_workloads::{InputSet, TraceGenerator, WorkloadSpec};

fn quick_spec() -> WorkloadSpec {
    let mut spec = WorkloadSpec::named("memo-capture-test");
    spec.functions = 60;
    spec.hot_rotation = 10;
    spec
}

fn quick_config() -> SimConfig {
    let mut c = SimConfig::quick(PolicyKind::Srrip);
    c.fast_forward = 5_000;
    c.instructions = 40_000;
    c
}

#[test]
fn memoized_capture_is_byte_identical_to_fresh() {
    let dir = std::env::temp_dir().join("trrip-memo-capture-bytes-test");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("test dir");
    let w = PreparedWorkload::prepare(&quick_spec(), 100_000, ClassifierConfig::llvm_defaults());
    // The PGO layout (the default) makes the walk placement-sensitive,
    // so the memoized templates carry real layout-derived addresses.
    let config = quick_config();

    let memo_path = dir.join("memo.trrip");
    capture_trace(&w, &config, &memo_path).expect("memoized capture");

    // The same capture, driven by the fresh walker. This mirrors
    // `capture_trace` exactly except for the memoization switch.
    let fresh_path = dir.join("fresh.trrip");
    let object = w.object(config.layout);
    let mut generator = TraceGenerator::new(&w.program, object, &w.spec, InputSet::Eval);
    generator.set_memoization(false);
    let mut writer = trrip_trace::create(&fresh_path, &w.spec.name, trace_layout(config.layout))
        .expect("fresh writer");
    writer.write_all(generator.take(capture_length(&config) as usize)).expect("fresh capture");
    writer.finish().expect("fresh finish");

    let memo_bytes = std::fs::read(&memo_path).expect("read memoized capture");
    let fresh_bytes = std::fs::read(&fresh_path).expect("read fresh capture");
    assert_eq!(
        memo_bytes, fresh_bytes,
        "memoized capture must be byte-identical to the fresh walker's"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn memoized_training_preserves_the_placement_fingerprint() {
    // `PreparedWorkload::prepare` trains with the (memoized) walker and
    // derives the PGO placement from that profile. Re-run the training
    // walk fresh: the profile, the PGO object, and therefore the trace
    // store's placement fingerprint and file path must all coincide.
    let spec = quick_spec();
    let train = 100_000u64;
    let memo_w = PreparedWorkload::prepare(&spec, train, ClassifierConfig::llvm_defaults());

    let mut generator =
        TraceGenerator::new(&memo_w.program, &memo_w.plain_object, &spec, InputSet::Train);
    generator.set_memoization(false);
    for _ in 0..train {
        let _ = generator.next();
    }
    let fresh_profile = generator.into_profile();
    assert_eq!(memo_w.profile, fresh_profile, "training profiles diverged");

    let temps = trrip_compiler::classify_functions(
        &memo_w.program,
        &fresh_profile,
        ClassifierConfig::llvm_defaults(),
    );
    let fresh_pgo = trrip_compiler::Linker::new().link_pgo(&memo_w.program, &fresh_profile, &temps);
    assert_eq!(memo_w.pgo_object, fresh_pgo, "PGO placements diverged");

    let fresh_w = PreparedWorkload {
        spec: spec.clone(),
        program: memo_w.program.clone(),
        profile: fresh_profile,
        temps,
        plain_object: memo_w.plain_object.clone(),
        pgo_object: fresh_pgo,
    };
    let config = quick_config();
    assert_eq!(
        workload_fingerprint(&memo_w, &config),
        workload_fingerprint(&fresh_w, &config),
        "placement fingerprints diverged"
    );
    let store = TraceStore::new(std::env::temp_dir());
    assert_eq!(store.path_for(&memo_w, &config), store.path_for(&fresh_w, &config));
}
