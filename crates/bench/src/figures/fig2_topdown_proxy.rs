//! Figure 2: Top-Down profiles of the ten proxy benchmarks, compiled
//! without PGO and with PGO (marked `*`). PGO grows the `retire`
//! fraction by shrinking ifetch/branch stalls, but a considerable
//! ifetch fraction remains — the paper's motivation for TRRIP.

use trrip_analysis::report::pct;
use trrip_analysis::TextTable;
use trrip_compiler::LayoutKind;
use trrip_cpu::StallClass;
use trrip_policies::PolicyKind;
use trrip_sim::{simulate_rows, SimConfig};

use crate::Session;

/// Runs Figure 2 and writes `fig2_topdown_proxy.txt`.
pub fn run(session: &Session) -> Result<(), String> {
    let options = &session.options;
    let config = options.sim_config(PolicyKind::Srrip);
    let specs = options.selected_proxies();
    let workloads = session.prepare(&specs, &config, config.classifier);

    let mut table = TextTable::new(vec![
        "bench", "retire", "other", "mem", "issue", "depend", "mispred.", "ifetch",
    ]);
    let mut pgo_retire_gains = 0usize;
    // Two layouts are two streams: two rows of one cell per workload,
    // `--jobs` rows at a time.
    let layouts = [LayoutKind::SourceOrder, LayoutKind::Pgo];
    let results = simulate_rows(options.jobs, workloads.len() * layouts.len(), |i| {
        let layout = layouts[i % layouts.len()];
        (&workloads[i / layouts.len()], SimConfig { layout, ..config.clone() })
    });
    for (w, rows) in workloads.iter().zip(results.chunks(layouts.len())) {
        for (layout, r) in layouts.into_iter().zip(rows) {
            let td = &r.core.topdown;
            let name = match layout {
                LayoutKind::SourceOrder => w.spec.name.clone(),
                LayoutKind::Pgo => format!("{}*", w.spec.name),
            };
            table.row(vec![
                name,
                pct(td.fraction(None)),
                pct(td.fraction(Some(StallClass::Other))),
                pct(td.fraction(Some(StallClass::Mem))),
                pct(td.fraction(Some(StallClass::Issue))),
                pct(td.fraction(Some(StallClass::Depend))),
                pct(td.fraction(Some(StallClass::Mispred))),
                pct(td.fraction(Some(StallClass::Ifetch))),
            ]);
            if layout == LayoutKind::Pgo {
                pgo_retire_gains += 1;
            }
        }
    }
    println!("Figure 2: Top-Down profiles, non-PGO vs PGO (*)");
    println!("{table}");
    println!(
        "paper: PGO raises retire mainly by cutting ifetch/mispred stalls, yet \
         ifetch remains a major stall class ({pgo_retire_gains} PGO rows shown)"
    );
    options.write_report("fig2_topdown_proxy.txt", &format!("{table}\n{}", table.to_csv()));
    Ok(())
}
