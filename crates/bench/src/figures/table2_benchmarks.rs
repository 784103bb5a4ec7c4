//! Table 2: the benchmarks with their training/evaluation inputs and the
//! paper's fast-forward distances, plus the synthetic-model equivalents
//! (seeds and scaled fast-forward) used in this reproduction.

use trrip_analysis::TextTable;
use trrip_policies::PolicyKind;

use crate::{Figure, Plan, Report, Results};

/// Table 2, written to `table2_benchmarks.txt`; it simulates nothing.
pub const FIGURE: Figure =
    Figure { name: "table2_benchmarks", plan: Plan::nothing, render, claims: &[] };

fn render(results: &Results) -> Report {
    let options = &results.options;
    let config = options.sim_config(PolicyKind::Srrip);
    let mut table = TextTable::new(vec![
        "benchmark",
        "training",
        "evaluation",
        "paper fast fwd.",
        "sim fast fwd.",
        "text (B)",
        "hot rot.",
    ]);
    for s in options.selected_proxies() {
        table.row(vec![
            s.name.clone(),
            s.train_input.clone(),
            s.eval_input.clone(),
            format!("{:.0e}", s.paper_fast_forward),
            format!("{}", config.fast_forward),
            format!("{}", s.approx_text_bytes()),
            format!("{}", s.hot_rotation),
        ]);
    }
    Report { file: format!("{table}\n{}", table.to_csv()), claims: Vec::new() }
}
