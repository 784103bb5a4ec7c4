//! Qualitative paper-claim tests: the directional results the paper
//! stakes its contribution on, checked at a reduced (CI-friendly) scale.
//! `all_experiments` prints the full-scale numbers beside the paper's,
//! one `claim <id> paper <value> reproduced <value>` line each. The tests
//! share one preparation of the subset and the SRRIP / TRRIP-1 sweep of
//! it that two of them read.

use std::sync::OnceLock;

use trrip::core::ClassifierConfig;
use trrip::policies::PolicyKind;
use trrip::sim::{
    default_jobs, policy_cells, policy_sweep_with, PreparedWorkload, SimConfig, SweepResult,
};
use trrip_analysis::report::{geomean_pct, geomean_reduction_pct};

/// A reduced benchmark subset that exercises the headline behaviours
/// without taking minutes: one code-heavy, one balanced, one data-heavy.
fn subset() -> &'static [PreparedWorkload] {
    static SUBSET: OnceLock<Vec<PreparedWorkload>> = OnceLock::new();
    SUBSET.get_or_init(|| {
        let config = SimConfig::paper(PolicyKind::Srrip);
        ["gcc", "sqlite", "abseil"]
            .iter()
            .map(|name| {
                let spec = trrip::workloads::proxy::by_name(name).expect("known benchmark");
                PreparedWorkload::prepare(&spec, config.train_instructions, config.classifier)
            })
            .collect()
    })
}

/// The subset under SRRIP and TRRIP-1 at the paper configuration.
fn trrip_sweep() -> &'static SweepResult {
    static SWEEP: OnceLock<SweepResult> = OnceLock::new();
    SWEEP.get_or_init(|| {
        let config = SimConfig::paper(PolicyKind::Srrip);
        sweep_policies(subset(), &config, &[PolicyKind::Srrip, PolicyKind::Trrip1])
    })
}

fn sweep_policies(
    workloads: &[PreparedWorkload],
    config: &SimConfig,
    policies: &[PolicyKind],
) -> SweepResult {
    policy_sweep_with(default_jobs(), workloads, &policy_cells(config, policies), None)
}

#[test]
fn trrip_reduces_instruction_mpki_and_speeds_up() {
    let sweep = trrip_sweep();
    let mut speedups = Vec::new();
    let mut reductions = Vec::new();
    for w in subset() {
        let base = sweep.get(&w.spec.name, PolicyKind::Srrip);
        let trrip = sweep.get(&w.spec.name, PolicyKind::Trrip1);
        speedups.push(trrip.speedup_vs(base));
        reductions.push(trrip.inst_mpki_reduction_vs(base));
    }
    let geo_speedup = geomean_pct(&speedups);
    let geo_reduction = geomean_reduction_pct(&reductions);
    // Paper: +3.9% speedup, 26.5% MPKI reduction (geomean over 10).
    assert!(geo_speedup > 1.0, "TRRIP-1 geomean speedup too small: {geo_speedup:.2}%");
    assert!(geo_reduction > 8.0, "TRRIP-1 geomean I-MPKI reduction too small: {geo_reduction:.2}%");
}

#[test]
fn trrip_trades_small_data_mpki_increase() {
    // §4.4: instruction MPKI drops at the cost of a *slight* data MPKI
    // increase — the profitable trade.
    let sweep = trrip_sweep();
    for w in subset() {
        let base = sweep.get(&w.spec.name, PolicyKind::Srrip);
        let trrip = sweep.get(&w.spec.name, PolicyKind::Trrip1);
        let dd = trrip.data_mpki_reduction_vs(base);
        assert!(dd > -60.0, "{}: data MPKI explosion under TRRIP ({dd:.1}%)", w.spec.name);
    }
}

#[test]
fn brrip_and_ship_underperform_srrip() {
    // Figure 6: BRRIP and SHiP lose to the SRRIP baseline on these
    // workloads.
    let config = SimConfig::paper(PolicyKind::Srrip);
    let sweep = sweep_policies(
        subset(),
        &config,
        &[PolicyKind::Srrip, PolicyKind::Brrip, PolicyKind::Ship],
    );
    let brrip = geomean_pct(&sweep.speedups(PolicyKind::Brrip, PolicyKind::Srrip));
    let ship = geomean_pct(&sweep.speedups(PolicyKind::Ship, PolicyKind::Srrip));
    assert!(brrip < 1.0, "BRRIP should not beat SRRIP here: {brrip:+.2}%");
    assert!(ship < 0.0, "SHiP should lose on these access patterns: {ship:+.2}%");
}

#[test]
fn selectivity_beats_prioritizing_everything() {
    // §4.7: percentile_hot = 100% (every executed line hot ≈ CLIP)
    // should not beat the selective default on a pressure-heavy workload.
    let base_config = SimConfig::paper(PolicyKind::Srrip);
    // gcc prepared at the paper's training length and classifier.
    let selective = subset().iter().find(|w| w.spec.name == "gcc").expect("gcc in the subset");
    let everything_hot = ClassifierConfig { percentile_hot: 1.0 };
    let blanket = selective.recompile(everything_hot);

    let trrip_config = base_config.clone().with_policy(PolicyKind::Trrip1);
    let sel_base = trrip::sim::simulate(selective, &base_config);
    let sel_trrip = trrip::sim::simulate(selective, &trrip_config);
    let all_base = trrip::sim::simulate(
        &blanket,
        &SimConfig { classifier: everything_hot, ..base_config.clone() },
    );
    let all_trrip =
        trrip::sim::simulate(&blanket, &SimConfig { classifier: everything_hot, ..trrip_config });

    let selective_gain = sel_trrip.speedup_vs(&sel_base);
    let blanket_gain = all_trrip.speedup_vs(&all_base);
    assert!(
        selective_gain >= blanket_gain - 1.0,
        "selective classification ({selective_gain:+.2}%) should be at least \
         competitive with percentile-100 ({blanket_gain:+.2}%)"
    );
}
