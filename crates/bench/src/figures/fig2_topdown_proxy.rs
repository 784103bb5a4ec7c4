//! Figure 2: Top-Down profiles of the ten proxy benchmarks, compiled
//! without PGO and with PGO (marked `*`). PGO grows the `retire`
//! fraction by shrinking ifetch/branch stalls, but a considerable
//! ifetch fraction remains — the paper's motivation for TRRIP.

use trrip_analysis::report::pct;
use trrip_analysis::TextTable;
use trrip_compiler::LayoutKind;
use trrip_cpu::StallClass;
use trrip_policies::PolicyKind;
use trrip_sim::SimConfig;

use crate::{claims, Claim, Figure, HarnessOptions, Paper, Plan, Report, Results};

/// Figure 2, written to `fig2_topdown_proxy.txt`.
pub const FIGURE: Figure = Figure { name: "fig2_topdown_proxy", plan, render, claims: &CLAIMS };

/// PGO raises retire on every benchmark (the least rise, in points), yet
/// ifetch stays a major stall class (its least share).
const CLAIMS: [Claim; 2] = [
    Claim::new("fig2.pgo_retire_gain_min", Paper::Positive),
    Claim::new("fig2.pgo_ifetch_pct_min", Paper::Positive),
];

/// Two layouts are two streams: each workload is two rows of one cell.
fn cells(options: &HarnessOptions) -> [SimConfig; 2] {
    let config = options.sim_config(PolicyKind::Srrip);
    [LayoutKind::SourceOrder, LayoutKind::Pgo].map(|layout| SimConfig { layout, ..config.clone() })
}

fn plan(options: &HarnessOptions) -> Result<Plan, String> {
    Ok(Plan::grid(&options.selected_proxies(), &cells(options)))
}

fn render(results: &Results) -> Report {
    let mut table = TextTable::new(vec![
        "bench", "retire", "other", "mem", "issue", "depend", "mispred.", "ifetch",
    ]);
    let (mut least_gain, mut least_ifetch) = (f64::INFINITY, f64::INFINITY);
    for spec in results.options.selected_proxies() {
        let [plain, pgo] = cells(&results.options).map(|c| &results.get(&spec, &c).core.topdown);
        let gain = pgo.fraction(None) - plain.fraction(None);
        least_gain = least_gain.min(gain * 100.0);
        least_ifetch = least_ifetch.min(pgo.fraction(Some(StallClass::Ifetch)) * 100.0);
        for (td, name) in [(plain, spec.name.clone()), (pgo, format!("{}*", spec.name))] {
            // Retire, then the stall classes top to bottom.
            let classes = std::iter::once(None).chain(StallClass::ALL.into_iter().rev().map(Some));
            table.row(std::iter::once(name).chain(classes.map(|c| pct(td.fraction(c)))).collect());
        }
    }
    let file = format!("{table}\n{}", table.to_csv());
    Report { file, claims: claims(&CLAIMS, [Some(least_gain), Some(least_ifetch)]) }
}
