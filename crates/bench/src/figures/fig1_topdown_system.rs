//! Figure 1: Top-Down breakdown of the hottest mobile system-software
//! components (PGO-compiled): `interp`, `ui`, `graphics`, `render`,
//! `js_runtime`. The paper's takeaway — frontend stalls dominate even
//! with PGO applied — should reproduce as a large `ifetch` fraction.

use trrip_analysis::report::pct;
use trrip_analysis::TextTable;
use trrip_cpu::StallClass;
use trrip_policies::PolicyKind;
use trrip_sim::simulate_rows;

use crate::Session;

/// Runs Figure 1 and writes `fig1_topdown_system.txt`.
pub fn run(session: &Session) -> Result<(), String> {
    let options = &session.options;
    // Figure 1's platform runs the production policy; PGO layout.
    let config = options.sim_config(PolicyKind::Srrip);
    let specs = trrip_workloads::mobile::all();
    let workloads = session.prepare(&specs, &config, config.classifier);

    let mut table = TextTable::new(vec!["component", "retire", "backend", "mispred.", "frontend"]);
    // A row of one cell each, `--jobs` rows at a time.
    let results = simulate_rows(options.jobs, workloads.len(), |i| (&workloads[i], config.clone()));
    for (w, r) in workloads.iter().zip(&results) {
        let td = &r.core.topdown;
        // Figure 1 groups Top-Down into four buckets: frontend = ifetch,
        // backend = depend + issue + mem + other.
        let backend = td.fraction(Some(StallClass::Depend))
            + td.fraction(Some(StallClass::Issue))
            + td.fraction(Some(StallClass::Mem))
            + td.fraction(Some(StallClass::Other));
        table.row(vec![
            w.spec.name.clone(),
            pct(td.fraction(None)),
            pct(backend),
            pct(td.fraction(Some(StallClass::Mispred))),
            pct(td.fraction(Some(StallClass::Ifetch))),
        ]);
    }
    println!("Figure 1: Top-Down breakdown of mobile system components (PGO)");
    println!("{table}");
    println!("paper: all five components show a considerable frontend fraction even with PGO");
    options.write_report("fig1_topdown_system.txt", &format!("{table}\n{}", table.to_csv()));
    Ok(())
}
