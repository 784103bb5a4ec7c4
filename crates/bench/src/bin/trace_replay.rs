//! Replays captured traces through the full paper policy sweep and
//! reports both the science (speedups over SRRIP) and the engineering
//! (replay throughput vs the storeless sweep, which walks each workload
//! once and pushes the stream through every policy).
//!
//! ```text
//! trace_replay --trace-dir traces [--bench a,b] [--scale N]
//! ```
//!
//! Missing traces are captured on the side of the sweep that misses
//! them, so this binary is also a one-command demonstration of the
//! capture-once/replay-many loop.

use std::time::Instant;

use trrip_analysis::report::geomean_pct;
use trrip_analysis::TextTable;
use trrip_bench::HarnessOptions;
use trrip_policies::PolicyKind;
use trrip_sim::{capture_length, policy_cells, policy_sweep_with, replay_sweep, TraceStore};

fn main() {
    trrip_bench::run_experiment("trace_replay", run);
}

fn run(options: &HarnessOptions) {
    let store = TraceStore::new(
        options.trace_dir.clone().unwrap_or_else(|| std::path::PathBuf::from("traces")),
    );
    let config = options.sim_config(PolicyKind::Srrip);
    let specs = options.selected_proxies();
    eprintln!("preparing {} workloads…", specs.len());
    let workloads = options.prepare(&specs, &config, config.classifier);

    let cells = policy_cells(&config, &PolicyKind::PAPER_SET);
    let jobs = workloads.len() as u64 * cells.len() as u64;
    let replayed_instrs = jobs * capture_length(&config);

    eprintln!("replay sweep ({jobs} jobs)…");
    let replay_started = Instant::now();
    let sweep = replay_sweep(options.jobs, &workloads, &cells, &store, None);
    let replay_elapsed = replay_started.elapsed();

    eprintln!("walker sweep (same cells, each workload walked once)…");
    let walker_started = Instant::now();
    let walked = policy_sweep_with(options.jobs, &workloads, &cells);
    let walker_elapsed = walker_started.elapsed();

    // The two engines must agree bit-for-bit.
    for (a, b) in sweep.results.iter().zip(&walked.results) {
        assert_eq!(a.core, b.core, "{}/{:?} diverged between engines", a.benchmark, a.policy);
        assert_eq!(a.l2, b.l2, "{}/{:?} diverged between engines", a.benchmark, a.policy);
    }

    let mut table = TextTable::new(vec!["policy", "geomean speedup %"]);
    for policy in PolicyKind::PAPER_SET {
        if policy == PolicyKind::Srrip {
            continue;
        }
        let speedups = sweep.speedups(policy, PolicyKind::Srrip);
        table.row(vec![policy.name().to_owned(), format!("{:+.2}", geomean_pct(&speedups))]);
    }

    let rate = |elapsed: std::time::Duration| {
        replayed_instrs as f64 / elapsed.as_secs_f64().max(1e-9) / 1e6
    };
    let mut report = String::new();
    trrip_bench::emit(&mut report, "replay sweep over captured traces (results verified equal):");
    trrip_bench::emit(&mut report, &table.to_string());
    trrip_bench::emit(
        &mut report,
        &format!(
            "replay : {replay_elapsed:>10.2?}  ({:8.1} Minstr/s)\n\
             walker : {walker_elapsed:>10.2?}  ({:8.1} Minstr/s)\n\
             speedup: {:.2}x",
            rate(replay_elapsed),
            rate(walker_elapsed),
            walker_elapsed.as_secs_f64() / replay_elapsed.as_secs_f64().max(1e-9),
        ),
    );
    options.write_report("trace_replay.txt", &report);
}
