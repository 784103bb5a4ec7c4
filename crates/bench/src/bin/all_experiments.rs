//! Runs the entire experiment suite — every table and figure — by
//! invoking each experiment binary in sequence. Reports land in the
//! output directory (`--out DIR`, default `reports/`).

use std::process::Command;

use trrip_bench::HarnessOptions;

const EXPERIMENTS: [&str; 11] = [
    "table1_config",
    "table2_benchmarks",
    "fig1_topdown_system",
    "fig2_topdown_proxy",
    "fig3_reuse_distance",
    "fig6_speedup",
    "table3_mpki",
    "table4_power_area",
    "fig7_costly_coverage",
    "fig8_hot_threshold",
    "fig9_cache_sensitivity",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let current = std::env::current_exe().expect("current exe path");
    let dir = current.parent().expect("binary directory");
    let mut failures = Vec::new();
    // table5 shares the flag interface; run it with the rest.
    let all: Vec<&str> = EXPERIMENTS.iter().copied().chain(["table5_pages"]).collect();
    for name in all {
        println!("\n================ {name} ================\n");
        let status = Command::new(dir.join(name))
            .args(&args)
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {name}: {e}"));
        if !status.success() {
            failures.push(name);
        }
    }
    if failures.is_empty() {
        // Every child parsed this command line; ask the same parser
        // where they wrote.
        let parsed = HarnessOptions::try_parse(args.iter().cloned()).ok().flatten();
        let out_dir = parsed.unwrap_or_default().out_dir;
        println!("\nall experiments completed; reports in {}", out_dir.display());
    } else {
        eprintln!("\nFAILED experiments: {failures:?}");
        std::process::exit(1);
    }
}
