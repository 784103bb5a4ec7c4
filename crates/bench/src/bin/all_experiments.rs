//! Runs the entire experiment suite — every table and figure — in one
//! [`Session`]: each workload is prepared once and each distinct sweep
//! runs once (Table 3 reads Figure 6's), under one telemetry session.
//! Reports land in the output directory (`--out DIR`, default
//! `reports/`). A figure that fails is named at the end and the run
//! exits 1 after writing the others.

use std::time::Instant;

use trrip_bench::figures::*;
use trrip_bench::{Figure, HarnessOptions, Session, USAGE};

/// The paper's twelve tables and figures, in the order they are written.
const PAPER: [(&str, Figure); 12] = [
    ("table1_config", table1_config::run),
    ("table2_benchmarks", table2_benchmarks::run),
    ("fig1_topdown_system", fig1_topdown_system::run),
    ("fig2_topdown_proxy", fig2_topdown_proxy::run),
    ("fig3_reuse_distance", fig3_reuse_distance::run),
    ("fig6_speedup", fig6_speedup::run),
    ("table3_mpki", table3_mpki::run),
    ("table4_power_area", table4_power_area::run),
    ("fig7_costly_coverage", fig7_costly_coverage::run),
    ("fig8_hot_threshold", fig8_hot_threshold::run),
    ("fig9_cache_sensitivity", fig9_cache_sensitivity::run),
    ("table5_pages", table5_pages::run),
];

fn main() {
    let started = Instant::now();
    let session = Session::new(HarnessOptions::from_args(std::env::args().skip(1), USAGE));
    let obs = session.options.obs_session("all_experiments");
    let mut failures = Vec::new();
    for (name, figure) in PAPER {
        println!("\n================ {name} ================\n");
        if let Err(message) = figure(&session) {
            eprintln!("error: {message}");
            failures.push(name);
        }
    }
    obs.finish(&[]);
    if failures.is_empty() {
        println!("\nall experiments completed; reports in {}", session.options.out_dir.display());
    } else {
        eprintln!("\nFAILED experiments: {failures:?}");
    }
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    println!("wall {:.2} s on {cores} host cores", started.elapsed().as_secs_f64());
    if !failures.is_empty() {
        std::process::exit(1);
    }
}
