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
use trrip_sim::simulate_rows;

use crate::Session;

const PERCENTILES: [f64; 5] = [50.0, 60.0, 70.0, 80.0, 90.0];

/// Runs Figure 7 and writes `fig7_costly_coverage.txt`.
pub fn run(session: &Session) -> Result<(), String> {
    let options = &session.options;
    let mut config = options.sim_config(PolicyKind::Trrip1);
    config.track_costly = true;
    let specs = options.selected_proxies();
    let workloads = session.prepare(&specs, &config, config.classifier);

    let headers: Vec<String> = std::iter::once("bench".to_owned())
        .chain(PERCENTILES.iter().map(|p| format!("{p:.0}%")))
        .collect();
    let mut table_a = TextTable::new(headers.clone());
    let mut table_b = TextTable::new(headers);

    // A row of one cell each, `--jobs` rows at a time.
    let results = simulate_rows(options.jobs, workloads.len(), |i| (&workloads[i], config.clone()));
    for (w, r) in workloads.iter().zip(&results) {
        let costly = r.costly.as_ref().expect("costly tracking armed");
        let mut row_a = vec![w.spec.name.clone()];
        let mut row_b = vec![w.spec.name.clone()];
        for &p in &PERCENTILES {
            row_a.push(format!("{:.0}", costly.hot_coverage(p, false) * 100.0));
            row_b.push(format!("{:.0}", costly.hot_coverage(p, true) * 100.0));
        }
        table_a.row(row_a);
        table_b.row(row_b);
    }
    println!("Figure 7a: hot-section coverage (%) of top-Nth-percentile costly instruction misses");
    println!("{table_a}");
    println!("Figure 7b: same, excluding PLT/external code (outside TRRIP's compile scope)");
    println!("{table_b}");
    println!(
        "paper: (a) external-heavy benchmarks (bullet, clamscan, omnetpp, rapidjson) show\n\
         low coverage; (b) within compiled code, nearly all costly misses are hot"
    );
    options.write_report("fig7_costly_coverage.txt", &format!("(a)\n{table_a}\n(b)\n{table_b}"));
    Ok(())
}
