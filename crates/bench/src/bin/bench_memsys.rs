//! Wall-clock benchmark of the push executor's **cell loop**: proxy
//! `gcc` digested into event turns once, its data frames and stride
//! proposals resolved beside them, then pushed through 1, 2, 5 and 9
//! policy cells in lockstep ([`SimRun::push_group`]).
//!
//! Reported per group size: ns per cell-instruction of the measure phase
//! (no walker, no frontend), best of N repetitions, and the ratio
//! `exec.cell_records / exec.turn_records`, which is the group size.
//! Everything else about the memory system's host cost — the measure
//! phase over the walker, the L1 fast-path hit ratio — is a per-layer
//! metric of `benchmark/run.sh`.
//!
//! The table is printed, not kept: single runs of one build spread too
//! widely for one run to show a regression, and `benchmark/run.sh
//! compare` is the paired ruler for that. `--smoke` (CI) shrinks the run
//! and asserts that a group of *n* reads each record once and drives *n*
//! machines with it; it asserts nothing about host time.

use std::time::Instant;

use trrip_bench::{HarnessOptions, USAGE};
use trrip_policies::PolicyKind;
use trrip_sim::{Frontend, PreparedWorkload, SimConfig, SimRun, StreamTurn, TURN_INSTRS};
use trrip_workloads::{InputSet, TraceGenerator};

/// Cells a sweep's worker drives in lockstep — alone, a two-worker team's
/// share of a few policies, of the paper's nine (5 + 4), and all nine on
/// one worker — each with its key in the telemetry summary.
const LOCKSTEP_GROUPS: [(usize, &str); 4] = [
    (1, "lockstep_gcc_ns_per_cell_instr_1"),
    (2, "lockstep_gcc_ns_per_cell_instr_2"),
    (5, "lockstep_gcc_ns_per_cell_instr_5"),
    (9, "lockstep_gcc_ns_per_cell_instr_9"),
];

/// One phase of a stream, digested: its event turns, in order.
fn digest_phase(frontend: &mut Frontend<TraceGenerator<'_>>, instructions: u64) -> Vec<StreamTurn> {
    let mut turns = Vec::new();
    let mut covered = 0;
    while covered < instructions {
        let mut turn = StreamTurn::new();
        frontend.digest(TURN_INSTRS, &mut turn);
        covered += turn.instructions();
        turns.push(turn);
    }
    assert_eq!(covered, instructions, "turns stop at the phase boundary");
    turns
}

/// Best-of-`reps` cost of the push executor's measure phase with the
/// first `size` policies of the paper's set in lockstep, in ns per
/// cell-instruction, and `exec.cell_records / exec.turn_records` over
/// it. The turns are digested beforehand: this is the cell loop alone.
fn lockstep_best(
    workload: &PreparedWorkload,
    config: &SimConfig,
    (warmup, window): (&[StreamTurn], &[StreamTurn]),
    size: usize,
    reps: u32,
) -> (f64, f64) {
    let mut best = f64::INFINITY;
    let before = trrip_obs::snapshot();
    for _ in 0..reps {
        let mut runs: Vec<SimRun<'_>> = PolicyKind::PAPER_SET[..size]
            .iter()
            .map(|&policy| SimRun::cell(workload, &config.clone().with_policy(policy)))
            .collect();
        let mut group: Vec<&mut SimRun<'_>> = runs.iter_mut().collect();
        for (i, turn) in warmup.iter().enumerate() {
            SimRun::push_group(&mut group, turn, i + 1 == warmup.len());
        }
        group.iter_mut().for_each(|run| run.begin_measure());
        let start = Instant::now();
        for (i, turn) in window.iter().enumerate() {
            SimRun::push_group(&mut group, turn, i + 1 == window.len());
        }
        best = best.min(start.elapsed().as_secs_f64());
        for run in group {
            assert_eq!(run.finish().core.instructions, config.instructions);
        }
    }
    let moved = trrip_obs::snapshot().since(&before);
    let ratio = moved.get("exec.cell_records") as f64 / moved.get("exec.turn_records") as f64;
    (best * 1e9 / (size as u64 * config.instructions) as f64, ratio)
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    args.retain(|a| a != "--smoke");
    let options = match HarnessOptions::try_parse(args) {
        Ok(Some(options)) => options,
        Ok(None) => {
            println!("{USAGE}\n  --smoke          quick CI correctness pass");
            return;
        }
        Err(message) => {
            eprintln!("error: {message}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(message) = options.validate_dirs() {
        eprintln!("error: {message}\n\n{USAGE}");
        std::process::exit(2);
    }
    if let Err(message) = options.apply_observability() {
        eprintln!("error: {message}\n\n{USAGE}");
        std::process::exit(2);
    }
    let obs = options.obs_session("bench_memsys");
    let reps = if smoke { 3 } else { 5 };

    let mut config = SimConfig::quick(PolicyKind::Trrip1);
    if smoke {
        config.fast_forward = 40_000;
        config.instructions = 200_000;
    } else {
        config.fast_forward = 200_000 * options.scale;
        config.instructions = 1_000_000 * options.scale;
    }

    trrip_obs::progress!("lockstep cell loop: groups of 1, 2, 5 and 9 on gcc…");
    let gcc = trrip_workloads::proxy::by_name("gcc").expect("the gcc proxy");
    let gcc = PreparedWorkload::prepare(&gcc, config.train_instructions, config.classifier);
    let walker =
        TraceGenerator::new(&gcc.program, gcc.object(config.layout), &gcc.spec, InputSet::Eval);
    let mut frontend = Frontend::new(&gcc, std::slice::from_ref(&config), walker);
    let warmup = digest_phase(&mut frontend, config.fast_forward);
    let window = digest_phase(&mut frontend, config.instructions);
    drop(frontend);
    let lockstep = LOCKSTEP_GROUPS.map(|(size, field)| {
        let (ns, ratio) = lockstep_best(&gcc, &config, (&warmup, &window), size, reps);
        (size, field, ns, ratio)
    });

    println!(
        "memsys, {} warmup / {} measured instructions:",
        config.fast_forward, config.instructions
    );
    let host_cores = std::thread::available_parallelism().map_or(0, usize::from);
    for (size, _, ns, ratio) in lockstep {
        println!(
            "  lockstep group of {size}: {ns:.1} ns per cell-instruction on gcc  \
             (exec.cell_records / exec.turn_records = {ratio:.2}; one thread of {host_cores})"
        );
    }
    let summary = lockstep.map(|(_, field, ns, _)| (field, ns));

    if smoke {
        for (size, _, _, ratio) in lockstep {
            assert_eq!(ratio, size as f64, "a group of {size} is not {size} machines a record");
        }
        println!("smoke OK: every group drove its machines off one read of each record");
    }
    obs.finish(&summary);
}
