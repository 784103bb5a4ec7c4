//! Captures the selected benchmarks' eval-input traces to disk under
//! `--out` (`{bench}.trrip`), one file per workload, long enough for one
//! run at the paper configuration: what `simulate_source` replays. No
//! sweep reads them; every sweep walks.
//!
//! ```text
//! trace_capture --out traces [--bench a,b] [--scale N]
//! ```

use std::time::Instant;

use trrip_analysis::TextTable;
use trrip_bench::{HarnessOptions, USAGE};
use trrip_policies::PolicyKind;
use trrip_sim::{capture_length, capture_trace};

fn main() {
    let options = HarnessOptions::from_args(std::env::args().skip(1), USAGE);
    let obs = options.obs_session("trace_capture");
    if let Err(message) = run(&options) {
        eprintln!("error: {message}");
        std::process::exit(2);
    }
    if let Err(message) = obs.finish(&[]) {
        eprintln!("error: {message}");
        std::process::exit(1);
    }
}

fn run(options: &HarnessOptions) -> Result<(), String> {
    let config = options.sim_config(PolicyKind::Srrip);
    let specs = options.selected_proxies();
    let workloads = options.prepare(&specs, &config, config.classifier);

    let mut table = TextTable::new(vec!["bench", "instrs", "bytes", "B/instr", "Minstr/s"]);
    for workload in workloads.iter() {
        let started = Instant::now();
        let path = options.out_dir.join(format!("{}.trrip", workload.spec.name));
        capture_trace(workload, &config, &path)
            .map_err(|e| format!("capturing {}: {e}", workload.spec.name))?;
        let elapsed = started.elapsed();
        let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
        let instrs = capture_length(&config);
        table.row(vec![
            workload.spec.name.clone(),
            instrs.to_string(),
            bytes.to_string(),
            format!("{:.2}", bytes as f64 / instrs as f64),
            format!("{:.1}", instrs as f64 / elapsed.as_secs_f64().max(1e-9) / 1e6),
        ]);
    }
    println!("captured traces in {}", options.out_dir.display());
    println!("{table}");
    options.write_report("trace_capture.txt", &table.to_string())
}
