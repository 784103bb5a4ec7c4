//! Table 2: the benchmarks with their training/evaluation inputs and the
//! paper's fast-forward distances, plus the synthetic-model equivalents
//! (seeds and scaled fast-forward) used in this reproduction.

use trrip_analysis::TextTable;
use trrip_policies::PolicyKind;

use crate::Session;

/// Prints Table 2 and writes `table2_benchmarks.txt`.
pub fn run(session: &Session) -> Result<(), String> {
    let options = &session.options;
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
    println!("Table 2: benchmarks, inputs and fast-forward");
    println!("{table}");
    println!(
        "note: training and evaluation runs use different seeds plus a deterministic\n\
         branch-probability shift (input_shift), mirroring the paper's differing input sets"
    );
    options.write_report("table2_benchmarks.txt", &format!("{table}\n{}", table.to_csv()));
    Ok(())
}
