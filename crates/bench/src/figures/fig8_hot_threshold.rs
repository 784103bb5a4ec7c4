//! Figure 8: sensitivity to the compiler hot threshold
//! (`Percentile_hot` ∈ {10%, 80%, 99%, 99.99%, 100%}).
//!
//! (a) fraction of text classified hot/warm/cold per threshold — the hot
//!     section barely grows until the threshold passes 99%;
//! (b) TRRIP-1 speedup per threshold, rebuilt per point as in the paper —
//!     selectivity matters: 100% (≈ CLIP) underperforms 99%.
//!
//! A threshold is a classifier, so each workload trains once and every
//! threshold compiles from that one profile.

use trrip_analysis::report::pct;
use trrip_analysis::TextTable;
use trrip_core::ClassifierConfig;
use trrip_policies::PolicyKind;
use trrip_sim::SimConfig;

use crate::{claims, Figure, HarnessOptions, Paper, Plan, Report, Results};

/// Figure 8, written to `fig8_hot_threshold.txt`.
pub const FIGURE: Figure = Figure { name: "fig8_hot_threshold", plan, render, claims: &CLAIMS };

/// Past 99% the hot section grows, and 99% beats 100% (least over the
/// benchmarks, in points).
const CLAIMS: [(&str, Paper); 2] = [
    ("fig8.hot_growth_past_99_min", Paper::Positive),
    ("fig8.speedup_99_over_100_min", Paper::Positive),
];

const THRESHOLDS: [f64; 5] = [0.10, 0.80, 0.99, 0.9999, 1.0];
/// The subset of benchmarks Figure 8 plots.
const BENCHES: [&str; 6] = ["abseil", "deepsjeng", "gcc", "omnetpp", "rapidjson", "sqlite"];

/// The paper machine under `policy`, compiled at `threshold`.
fn cell(options: &HarnessOptions, threshold: f64, policy: PolicyKind) -> SimConfig {
    let classifier = ClassifierConfig { percentile_hot: threshold };
    SimConfig { classifier, ..options.sim_config(policy) }
}

/// Fails when `--bench` selects none of the six benchmarks Figure 8 plots.
fn plan(options: &HarnessOptions) -> Result<Plan, String> {
    let policies = [PolicyKind::Srrip, PolicyKind::Trrip1];
    let cells: Vec<SimConfig> =
        THRESHOLDS.iter().flat_map(|&t| policies.map(|p| cell(options, t, p))).collect();
    Ok(Plan::grid(&options.selected_among(&BENCHES)?, &cells))
}

fn render(results: &Results) -> Report {
    let options = &results.options;
    let headers = |first: &[&str]| {
        let thresholds = THRESHOLDS.map(|t| format!("{}%", t * 100.0));
        first.iter().map(|&h| h.to_owned()).chain(thresholds).collect::<Vec<_>>()
    };
    let mut table_a = TextTable::new(headers(&["bench", "section"]));
    let mut table_b = TextTable::new(headers(&["bench"]));

    let (mut least_growth, mut least_selectivity) = (f64::INFINITY, f64::INFINITY);
    for spec in options.selected_among(&BENCHES).expect("planned") {
        let fractions = THRESHOLDS.map(|t| {
            results.workload(&spec, &cell(options, t, PolicyKind::Srrip)).text_fractions()
        });
        let speedups = THRESHOLDS.map(|t| {
            let [base, tr] = [PolicyKind::Srrip, PolicyKind::Trrip1].map(|p| cell(options, t, p));
            results.get(&spec, &tr).speedup_vs(results.get(&spec, &base))
        });
        least_growth = least_growth.min((fractions[4].0 - fractions[2].0) * 100.0);
        least_selectivity = least_selectivity.min(speedups[2] - speedups[4]);
        for (pick, label) in ["hot", "warm", "cold"].into_iter().enumerate() {
            let name = if pick == 0 { spec.name.clone() } else { String::new() };
            let shares = fractions.iter().map(|&(h, w, c)| pct([h, w, c][pick]));
            table_a.row([name, label.to_owned()].into_iter().chain(shares).collect());
        }
        let row = speedups.iter().map(|s| format!("{s:+.2}"));
        table_b.row(std::iter::once(spec.name.clone()).chain(row).collect());
    }
    let file = format!("(a)\n{table_a}\n(b)\n{table_b}");
    Report { file, claims: claims(&CLAIMS, [Some(least_growth), Some(least_selectivity)]) }
}
