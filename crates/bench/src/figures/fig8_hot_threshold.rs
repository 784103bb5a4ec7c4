//! Figure 8: sensitivity to the compiler hot threshold
//! (`Percentile_hot` ∈ {10%, 80%, 99%, 99.99%, 100%}).
//!
//! (a) fraction of text classified hot/warm/cold per threshold — the hot
//!     section barely grows until the threshold passes 99%;
//! (b) TRRIP-1 speedup per threshold, rebuilt per point as in the paper —
//!     selectivity matters: 100% (≈ CLIP) underperforms 99%.
//!
//! Each workload trains once; every threshold recompiles from that one
//! profile.

use std::sync::Arc;

use trrip_analysis::report::pct;
use trrip_analysis::TextTable;
use trrip_core::ClassifierConfig;
use trrip_policies::PolicyKind;
use trrip_sim::SimConfig;

use crate::Session;

const THRESHOLDS: [f64; 5] = [0.10, 0.80, 0.99, 0.9999, 1.0];
/// The subset of benchmarks Figure 8 plots.
const BENCHES: [&str; 6] = ["abseil", "deepsjeng", "gcc", "omnetpp", "rapidjson", "sqlite"];

/// Runs Figure 8 and writes `fig8_hot_threshold.txt`.
///
/// # Errors
///
/// When `--bench` selects none of the six benchmarks Figure 8 plots.
pub fn run(session: &Session) -> Result<(), String> {
    let options = &session.options;
    let base_config = options.sim_config(PolicyKind::Trrip1);
    let specs = options.selected_among(&BENCHES)?;

    let mut headers = vec!["bench".to_owned(), "section".to_owned()];
    headers.extend(THRESHOLDS.iter().map(|t| format!("{}%", t * 100.0)));
    let mut table_a = TextTable::new(headers);

    let mut headers_b = vec!["bench".to_owned()];
    headers_b.extend(THRESHOLDS.iter().map(|t| format!("{}%", t * 100.0)));
    let mut table_b = TextTable::new(headers_b);

    // Rows keyed per benchmark: collect text fractions and speedups per
    // threshold. The application is re-"compiled" for every threshold
    // from its one training profile, as in the paper.
    let mut fractions: Vec<Vec<(f64, f64, f64)>> = vec![Vec::new(); specs.len()];
    let mut speedups: Vec<Vec<f64>> = vec![Vec::new(); specs.len()];
    let trained = session.prepare(&specs, &base_config, base_config.classifier);

    for &threshold in &THRESHOLDS {
        let classifier = ClassifierConfig {
            percentile_hot: threshold,
            percentile_cold: ClassifierConfig::llvm_defaults().percentile_cold.max(threshold),
        };
        let config = SimConfig { classifier, ..base_config.clone() };
        trrip_obs::progress!("threshold {threshold}: recompiling + sweeping…");
        let workloads: Arc<[_]> = trained.iter().map(|w| w.recompile(classifier)).collect();
        let sweep = session.sweep(&workloads, &config, &[PolicyKind::Srrip, PolicyKind::Trrip1]);
        for (i, w) in workloads.iter().enumerate() {
            fractions[i].push(w.text_fractions());
            let base = sweep.get(&w.spec.name, PolicyKind::Srrip);
            let tr = sweep.get(&w.spec.name, PolicyKind::Trrip1);
            speedups[i].push(tr.speedup_vs(base));
        }
    }

    for (i, spec) in specs.iter().enumerate() {
        for (label, pick) in [("hot", 0usize), ("warm", 1), ("cold", 2)] {
            let mut row =
                vec![if pick == 0 { spec.name.clone() } else { String::new() }, label.to_owned()];
            for &(h, w, c) in &fractions[i] {
                let v = [h, w, c][pick];
                row.push(pct(v));
            }
            table_a.row(row);
        }
        let mut row = vec![spec.name.clone()];
        for s in &speedups[i] {
            row.push(format!("{s:+.2}"));
        }
        table_b.row(row);
    }

    println!("Figure 8a: text-section distribution vs Percentile_hot");
    println!("{table_a}");
    println!("Figure 8b: TRRIP-1 speedup (%) vs Percentile_hot (rebuilt per point)");
    println!("{table_b}");
    println!(
        "paper: the hot section stays small until the threshold passes 99% and the best\n\
         speedup needs selectivity — 100% (everything hot, ≈ CLIP) loses to 99%"
    );
    options.write_report("fig8_hot_threshold.txt", &format!("(a)\n{table_a}\n(b)\n{table_b}"));
    Ok(())
}
