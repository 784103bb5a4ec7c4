//! Regenerates every table and figure as one plan ([`regenerate`]) under
//! one telemetry session: each workload is prepared once and each stream
//! walked once (Figure 6, Table 3, Figure 9 and Figure 8's 99% pair share
//! one sweep). A figure that fails is named at the end, and the run exits
//! 1 after writing the others' reports.

use std::time::Instant;

use trrip_bench::figures::PAPER;
use trrip_bench::{regenerate, HarnessOptions, USAGE};

fn main() {
    let started = Instant::now();
    let options = HarnessOptions::from_args(std::env::args().skip(1), USAGE);
    let obs = options.obs_session("all_experiments");
    let failures = regenerate(&options, &PAPER);
    let finished = obs.finish(&[]);
    if let Err(message) = &finished {
        eprintln!("error: {message}");
    }
    if failures.is_empty() {
        println!("\nall experiments completed; reports in {}", options.out_dir.display());
    } else {
        eprintln!("\nFAILED experiments: {failures:?}");
    }
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    println!("wall {:.2} s on {cores} host cores", started.elapsed().as_secs_f64());
    std::process::exit(i32::from(!failures.is_empty() || finished.is_err()));
}
