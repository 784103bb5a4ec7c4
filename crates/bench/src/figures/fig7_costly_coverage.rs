//! Figure 7: coverage of costly instruction misses by TRRIP's hot text
//! section, for the top-Nth-percentile costliest lines.
//!
//! (a) over all code — external/PLT misses cap the coverage for
//!     external-heavy benchmarks;
//! (b) restricted to TRRIP-compiled code — nearly all costly misses land
//!     in hot code, showing the offline classification finds what
//!     Emissary finds with hardware.

use trrip_analysis::TextTable;
use trrip_policies::PolicyKind;
use trrip_sim::SimConfig;

use crate::{claims, Claim, Figure, HarnessOptions, Paper, Plan, Report, Results};

/// Figure 7, written to `fig7_costly_coverage.txt`.
pub const FIGURE: Figure = Figure { name: "fig7_costly_coverage", plan, render, claims: &CLAIMS };

/// External code caps the coverage: leaving it out raises it (the
/// largest rise over benchmarks and percentiles).
const CLAIMS: [Claim; 1] = [Claim::new("fig7.compiled_coverage_gain_max", Paper::Positive)];

const PERCENTILES: [f64; 5] = [50.0, 60.0, 70.0, 80.0, 90.0];

/// TRRIP-1 with the costly-miss tracker armed: a row of one cell.
fn config(options: &HarnessOptions) -> SimConfig {
    SimConfig { track_costly: true, ..options.sim_config(PolicyKind::Trrip1) }
}

fn plan(options: &HarnessOptions) -> Result<Plan, String> {
    Ok(Plan::grid(&options.selected_proxies(), &[config(options)]))
}

fn render(results: &Results) -> Report {
    let config = config(&results.options);
    let headers: Vec<String> = std::iter::once("bench".to_owned())
        .chain(PERCENTILES.iter().map(|p| format!("{p:.0}%")))
        .collect();
    let mut table_a = TextTable::new(headers.clone());
    let mut table_b = TextTable::new(headers);

    let mut largest_gain = f64::NEG_INFINITY;
    for spec in results.options.selected_proxies() {
        let costly = results.get(&spec, &config).costly.as_ref().expect("costly tracking armed");
        // Over all code, then leaving out external code.
        let [all, compiled] = [false, true].map(|x| PERCENTILES.map(|p| costly.hot_coverage(p, x)));
        let gains = all.iter().zip(&compiled).map(|(a, c)| (c - a) * 100.0);
        largest_gain = gains.fold(largest_gain, f64::max);
        for (table, coverage) in [(&mut table_a, all), (&mut table_b, compiled)] {
            let row = coverage.map(|c| format!("{:.0}", c * 100.0));
            table.row(std::iter::once(spec.name.clone()).chain(row).collect());
        }
    }
    let file = format!("(a)\n{table_a}\n(b)\n{table_b}");
    Report { file, claims: claims(&CLAIMS, [Some(largest_gain)]) }
}
