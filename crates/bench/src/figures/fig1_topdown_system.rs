//! Figure 1: Top-Down breakdown of the hottest mobile system-software
//! components (PGO-compiled): `interp`, `ui`, `graphics`, `render`,
//! `js_runtime`. The paper's takeaway — frontend stalls dominate even
//! with PGO applied — should reproduce as a large `ifetch` fraction.

use trrip_analysis::report::pct;
use trrip_analysis::TextTable;
use trrip_cpu::StallClass;
use trrip_policies::PolicyKind;

use crate::{claims, Claim, Figure, HarnessOptions, Paper, Plan, Report, Results};

/// Figure 1, written to `fig1_topdown_system.txt`.
pub const FIGURE: Figure = Figure { name: "fig1_topdown_system", plan, render, claims: &CLAIMS };

/// All five components keep a considerable frontend fraction with PGO.
const CLAIMS: [Claim; 1] = [Claim::new("fig1.frontend_pct_min", Paper::Positive)];

// Figure 1's platform runs the production policy; PGO layout.
fn plan(options: &HarnessOptions) -> Result<Plan, String> {
    Ok(Plan::grid(&trrip_workloads::mobile::all(), &[options.sim_config(PolicyKind::Srrip)]))
}

fn render(results: &Results) -> Report {
    let config = results.options.sim_config(PolicyKind::Srrip);
    let mut table = TextTable::new(vec!["component", "retire", "backend", "mispred.", "frontend"]);
    let mut least_frontend = f64::INFINITY;
    for spec in trrip_workloads::mobile::all() {
        let td = &results.get(&spec, &config).core.topdown;
        // Figure 1 groups Top-Down into four buckets: frontend = ifetch,
        // backend = depend + issue + mem + other.
        let backend = [StallClass::Depend, StallClass::Issue, StallClass::Mem, StallClass::Other];
        let backend: f64 = backend.map(|c| td.fraction(Some(c))).iter().sum();
        least_frontend = least_frontend.min(td.fraction(Some(StallClass::Ifetch)) * 100.0);
        table.row(vec![
            spec.name.clone(),
            pct(td.fraction(None)),
            pct(backend),
            pct(td.fraction(Some(StallClass::Mispred))),
            pct(td.fraction(Some(StallClass::Ifetch))),
        ]);
    }
    let file = format!("{table}\n{}", table.to_csv());
    Report { file, claims: claims(&CLAIMS, [Some(least_frontend)]) }
}
