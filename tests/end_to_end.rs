//! Cross-crate integration tests: the full pipeline from workload spec to
//! simulation results, exercising the co-design interfaces end to end.

use trrip::compiler::LayoutKind;
use trrip::core::{ClassifierConfig, Temperature};
use trrip::policies::PolicyKind;
use trrip::sim::{
    default_jobs, policy_cells, policy_sweep_with, simulate, PreparedWorkload, SimConfig,
};
use trrip::workloads::WorkloadSpec;

fn test_spec() -> WorkloadSpec {
    let mut spec = WorkloadSpec::named("integration");
    spec.functions = 90;
    spec.hot_rotation = 16;
    spec
}

fn quick_config(policy: PolicyKind) -> SimConfig {
    let mut c = SimConfig::quick(policy);
    c.instructions = 250_000;
    c.fast_forward = 25_000;
    c.train_instructions = 150_000;
    c
}

#[test]
fn pipeline_reaches_simulation() {
    let config = quick_config(PolicyKind::Trrip1);
    let w = PreparedWorkload::prepare(&test_spec(), config.train_instructions, config.classifier);
    let r = simulate(&w, &config);
    assert_eq!(r.core.instructions, config.instructions);
    assert!(r.core.cycles > r.core.instructions as f64 / 6.0, "cycles below ideal IPC bound");
    assert!(r.l2.demand_accesses() > 0);
    assert!(r.pages.hot > 0, "no hot pages mapped");
}

#[test]
fn temperature_flows_compiler_to_cache() {
    // The co-design chain: functions the profile marks hot end up in
    // .text.hot, whose pages carry hot PTE bits, which the MMU attaches
    // to fetches — visible as TRRIP beating SRRIP on instruction misses
    // for a hot-heavy workload.
    let config = quick_config(PolicyKind::Srrip);
    let w = PreparedWorkload::prepare(&test_spec(), config.train_instructions, config.classifier);

    // Static chain.
    let hot_section = w.pgo_object.section_named(".text.hot").expect("hot section exists");
    assert!(hot_section.size_bytes > 0);
    assert_eq!(hot_section.temperature, Some(Temperature::Hot));

    // Dynamic chain.
    let base = simulate(&w, &config);
    let trrip = simulate(&w, &quick_config(PolicyKind::Trrip1));
    assert!(
        trrip.l2.inst_misses <= base.l2.inst_misses,
        "TRRIP should not increase instruction misses on a hot-heavy workload \
         (TRRIP {} vs SRRIP {})",
        trrip.l2.inst_misses,
        base.l2.inst_misses
    );
}

#[test]
fn pgo_layout_beats_source_order() {
    // Figure 2's premise: PGO reduces frontend stalls. Needs a hot code
    // footprint past the L1-I so spatial locality actually binds (tiny
    // workloads fit either way and only show placement noise).
    let mut spec = test_spec();
    spec.functions = 320;
    spec.hot_rotation = 90;
    let config = quick_config(PolicyKind::Srrip);
    let w = PreparedWorkload::prepare(&spec, config.train_instructions, config.classifier);
    let pgo = simulate(&w, &config);
    let plain = simulate(
        &w,
        &SimConfig { layout: LayoutKind::SourceOrder, ..quick_config(PolicyKind::Srrip) },
    );
    // The hot rotation is scattered through the function-id space
    // (`WorkloadSpec::hot_set`), so source order pays the realistic
    // sparse-hot-code penalty and PGO's packed `.text.hot` layout must
    // win — the original assertion, restored now that the specs are no
    // longer accidentally hot-contiguous in source order.
    assert!(
        pgo.core.topdown.ifetch <= plain.core.topdown.ifetch * 1.05,
        "PGO should not increase ifetch stalls: {} vs {}",
        pgo.core.topdown.ifetch,
        plain.core.topdown.ifetch
    );
}

#[test]
fn untagged_binary_makes_trrip_equal_srrip() {
    // Without temperature bits (source-order binary), TRRIP degenerates
    // to exactly SRRIP: identical cycles and misses.
    let mut base_config = quick_config(PolicyKind::Srrip);
    base_config.layout = LayoutKind::SourceOrder;
    let mut trrip_config = quick_config(PolicyKind::Trrip1);
    trrip_config.layout = LayoutKind::SourceOrder;

    let w = PreparedWorkload::prepare(
        &test_spec(),
        base_config.train_instructions,
        base_config.classifier,
    );
    let a = simulate(&w, &base_config);
    let b = simulate(&w, &trrip_config);
    assert_eq!(a.core.cycles, b.core.cycles, "TRRIP must equal SRRIP without temperature");
    assert_eq!(a.l2.inst_misses, b.l2.inst_misses);
    assert_eq!(a.l2.data_misses, b.l2.data_misses);
}

#[test]
fn sweep_is_deterministic_across_runs() {
    let config = quick_config(PolicyKind::Srrip);
    let w = PreparedWorkload::prepare(&test_spec(), config.train_instructions, config.classifier);
    let workloads = [w];
    let cells = policy_cells(&config, &[PolicyKind::Srrip, PolicyKind::Clip]);
    let s1 = policy_sweep_with(default_jobs(), &workloads, &cells, None);
    let s2 = policy_sweep_with(default_jobs(), &workloads, &cells, None);
    assert!(s1 == s2, "two sweeps of one row differ");
}

#[test]
fn preparation_is_deterministic() {
    let spec = test_spec();
    let a = PreparedWorkload::prepare(&spec, 100_000, ClassifierConfig::llvm_defaults());
    let b = PreparedWorkload::prepare(&spec, 100_000, ClassifierConfig::llvm_defaults());
    assert!(a == b, "two preparations of one spec differ");
}
