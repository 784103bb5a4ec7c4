//! Figure 3: reuse-distance distribution of hot instruction lines at the
//! L2, per cache set. Two series per benchmark: the base measurement
//! (all unique lines counted between reuses) and the `~` measurement
//! (only hot unique lines counted). The paper's key reading: base
//! distances push past 8 (evicted from an 8-way set) while hot-only
//! distances stay small — non-hot lines cause the evictions.

use trrip_analysis::report::pct;
use trrip_analysis::TextTable;
use trrip_policies::PolicyKind;
use trrip_sim::SimConfig;

use crate::{claims, Claim, Figure, HarnessOptions, Paper, Plan, Report, Results};

/// Figure 3, written to `fig3_reuse_distance.txt`.
pub const FIGURE: Figure = Figure { name: "fig3_reuse_distance", plan, render, claims: &CLAIMS };

/// Every benchmark has a tail past 8, and counting only hot lines moves
/// reuses toward 0-4 (least over the benchmarks, in points).
const CLAIMS: [Claim; 2] = [
    Claim::new("fig3.tail_past_8_pct_min", Paper::Positive),
    Claim::new("fig3.hot_only_0_4_gain_min", Paper::Positive),
];

/// The paper machine with the reuse profiler armed: a row of one cell.
fn config(options: &HarnessOptions) -> SimConfig {
    SimConfig { measure_reuse: true, ..options.sim_config(PolicyKind::Srrip) }
}

fn plan(options: &HarnessOptions) -> Result<Plan, String> {
    Ok(Plan::grid(&options.selected_proxies(), &[config(options)]))
}

fn render(results: &Results) -> Report {
    let config = config(&results.options);
    let mut table = TextTable::new(vec!["bench", "0-4", "5-8", "9-16", "16+"]);
    let (mut least_tail, mut least_gain) = (f64::INFINITY, f64::INFINITY);
    for spec in results.options.selected_proxies() {
        let r = results.get(&spec, &config);
        let [bf, hf] =
            [r.reuse_base, r.reuse_hot_only].map(|h| h.expect("reuse measured").fractions());
        least_tail = least_tail.min((bf[2] + bf[3]) * 100.0);
        least_gain = least_gain.min((hf[0] - bf[0]) * 100.0);
        table.row(vec![spec.name.clone(), pct(bf[0]), pct(bf[1]), pct(bf[2]), pct(bf[3])]);
        table.row(vec![format!("{}~", spec.name), pct(hf[0]), pct(hf[1]), pct(hf[2]), pct(hf[3])]);
    }
    let file = format!("{table}\n{}", table.to_csv());
    Report { file, claims: claims(&CLAIMS, [Some(least_tail), Some(least_gain)]) }
}
