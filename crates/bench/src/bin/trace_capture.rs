//! Captures the selected benchmarks' eval-input traces to disk, so
//! subsequent sweeps (any binary run with `--trace-dir`) replay them
//! instead of re-generating — the capture-once/replay-many workflow.
//!
//! ```text
//! trace_capture --trace-dir traces [--bench a,b] [--scale N]
//! ```

use std::time::Instant;

use trrip_analysis::TextTable;
use trrip_bench::HarnessOptions;
use trrip_policies::PolicyKind;
use trrip_sim::{capture_length, TraceStore};

fn main() {
    trrip_bench::run_experiment("trace_capture", run);
}

fn run(options: &HarnessOptions) {
    let store = TraceStore::new(
        options.trace_dir.clone().unwrap_or_else(|| std::path::PathBuf::from("traces")),
    );
    let config = options.sim_config(PolicyKind::Srrip);
    let specs = options.selected_proxies();
    eprintln!("preparing {} workloads…", specs.len());
    let workloads = options.prepare(&specs, &config, config.classifier);

    let mut table = TextTable::new(vec!["bench", "instrs", "bytes", "B/instr", "Minstr/s"]);
    for workload in &workloads {
        let started = Instant::now();
        let path = store.ensure(workload, &config).unwrap_or_else(|e| {
            eprintln!("error: capturing {}: {e}", workload.spec.name);
            std::process::exit(1);
        });
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
    println!("captured traces in {}", store.dir().display());
    println!("{table}");
    options.write_report("trace_capture.txt", &table.to_string());
}
