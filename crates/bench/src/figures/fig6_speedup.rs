//! Figure 6: speedup of every evaluated mechanism over SRRIP on the L2,
//! per benchmark plus geomean. The paper's shape: BRRIP far worst,
//! DRRIP/SHiP flat-to-negative, LRU ≈ 0, CLIP and Emissary modest
//! gains, TRRIP-1/2 best (geomean +3.9%).

use trrip_analysis::report::geomean_pct;
use trrip_analysis::TextTable;
use trrip_policies::PolicyKind;
use trrip_sim::{policy_cells, SimConfig};

use crate::{claims, Band, Claim, Figure, HarnessOptions, Paper, Plan, Report, Results};

/// Figure 6, written to `fig6_speedup.txt`.
pub const FIGURE: Figure = Figure { name: "fig6_speedup", plan, render, claims: &CLAIMS };

/// The paper's geomean speedups, in the order of [`cells`] after SRRIP.
/// TRRIP-1 must gain, BRRIP must not gain a point and SHiP must lose.
const CLAIMS: [Claim; 8] = [
    Claim::new("fig6.speedup.lru", Paper::Value(0.0)),
    Claim::new("fig6.speedup.brrip", Paper::Negative).within(Band::Below(1.0)),
    Claim::new("fig6.speedup.drrip", Paper::Negative),
    Claim::new("fig6.speedup.ship", Paper::Negative).within(Band::Below(0.0)),
    Claim::new("fig6.speedup.clip", Paper::Value(1.6)),
    Claim::new("fig6.speedup.emissary", Paper::Value(0.5)),
    Claim::new("fig6.speedup.trrip-1", Paper::Value(3.9)).within(Band::Above(1.0)),
    Claim::new("fig6.speedup.trrip-2", Paper::Value(3.9)),
];

/// The paper machine under the nine policies of the figure, SRRIP first;
/// Table 3 reads the same cells.
pub(crate) fn cells(options: &HarnessOptions) -> Vec<SimConfig> {
    policy_cells(&options.sim_config(PolicyKind::Srrip), &PolicyKind::PAPER_SET)
}

fn plan(options: &HarnessOptions) -> Result<Plan, String> {
    Ok(Plan::grid(&options.selected_proxies(), &cells(options)))
}

fn render(results: &Results) -> Report {
    let specs = results.options.selected_proxies();
    let cells = cells(&results.options);
    let (base, shown) = cells.split_first().expect("SRRIP leads");
    let names = shown.iter().map(|c| c.hierarchy.l2_policy.name());
    let mut table = TextTable::new(std::iter::once("bench").chain(names).collect());

    let speedups: Vec<Vec<f64>> = shown.iter().map(|c| results.speedups(&specs, c, base)).collect();
    for (i, spec) in specs.iter().enumerate() {
        let row = speedups.iter().map(|s| format!("{:+.2}", s[i]));
        table.row(std::iter::once(spec.name.clone()).chain(row).collect());
    }
    let geomeans: Vec<f64> = speedups.iter().map(|s| geomean_pct(s)).collect();
    let row = geomeans.iter().map(|g| format!("{g:+.2}"));
    table.row(std::iter::once("geomean".to_owned()).chain(row).collect());
    let file = format!("{table}\n{}", table.to_csv());
    Report { file, claims: claims(&CLAIMS, geomeans.into_iter().map(Some)) }
}
