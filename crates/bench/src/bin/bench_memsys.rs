//! Wall-clock benchmark of the **memory system under the core**: the
//! per-instruction cost of the warm measure path (SoA tag stores, the
//! L1-hit fast path, the memoized walker) and of the push executor's
//! cell loop at several lockstep group sizes.
//!
//! Reported metrics:
//!
//! * **measure ns/instr** — the warm measure phase over the walker
//!   stream, best of N repetitions;
//! * **L1 fast-path hit rate** — from the `cache.l1_fastpath_{hit,bail}`
//!   registry counters the backend flushes at phase boundaries;
//! * **walker memo traffic** — `walk.bb_memo.{hit,miss}`;
//! * **lockstep cell loop** — proxy `gcc` digested into event turns
//!   once, then pushed through 1, 2, 5 and 9 policy cells in lockstep
//!   ([`SimRun::push_measure_group`]): ns per cell-instruction of the
//!   measure phase (no walker, no frontend), and the ratio
//!   `exec.cell_records / exec.turn_records`, which is the group size;
//! * **cold capture** — wall time of a trace capture (walker-bound, no
//!   timing model) with the memoized vs the fresh walker.
//!
//! Results append to `BENCH_memsys.json` under `--out`
//! (`scripts/bench_memsys.sh` points `--out` at the repo root), each
//! entry labeled with its `variant`.
//!
//! `--ablate` additionally measures the measure path with the walker's
//! template cache disabled (`fresh-walker`), appending one more labeled
//! entry — the simulated cycle count is asserted identical across the
//! two, so the ablation doubles as a live bit-identity check.
//!
//! `--smoke` (CI) shrinks the run, asserts the fast-path / walker-memo /
//! lockstep counters all moved, asserts the machine state
//! snapshot-round-trips byte-stably, prints the measure path's cost, and
//! skips the JSON append. It asserts nothing about host time: a figure
//! committed in another hour on another host is no baseline, and
//! `benchmark/run.sh compare` is the paired ruler for that.

use std::time::Instant;

use trrip_bench::{append_trajectory, HarnessOptions, USAGE};
use trrip_core::ClassifierConfig;
use trrip_cpu::EventTurn;
use trrip_policies::PolicyKind;
use trrip_sim::{Frontend, PreparedWorkload, SimConfig, SimRun, SnapReader, SnapWriter, Snapshot};
use trrip_trace::SourceIter;
use trrip_workloads::{InputSet, TraceGenerator, WorkloadSpec};

fn workload() -> PreparedWorkload {
    let mut spec = WorkloadSpec::named("memsys-bench");
    spec.functions = 120;
    spec.hot_rotation = 30;
    PreparedWorkload::prepare(&spec, 100_000, ClassifierConfig::llvm_defaults())
}

fn walker<'w>(workload: &'w PreparedWorkload, config: &SimConfig) -> TraceGenerator<'w> {
    TraceGenerator::new(
        &workload.program,
        workload.object(config.layout),
        &workload.spec,
        InputSet::Eval,
    )
}

/// One measure-path variant: the shipping configuration, or the
/// walker's template cache ablated away.
#[derive(Clone, Copy)]
struct Variant {
    name: &'static str,
    memoized: bool,
}

const DEFAULT_VARIANT: Variant = Variant { name: "memo", memoized: true };
const ABLATIONS: [Variant; 1] = [Variant { name: "fresh-walker", memoized: false }];

/// Cells a sweep's worker drives in lockstep: alone, a two-worker team's
/// share of a few policies, of the paper's nine (5 + 4), and all nine on
/// one worker.
const LOCKSTEP_GROUPS: [usize; 4] = [1, 2, 5, 9];

/// Instructions per digested turn, as the sweep executor cuts them.
const TURN_INSTRS: usize = 16 * 1024;

/// Best-of-`reps` wall time of the warm measure phase under `variant`,
/// plus the simulated cycle count (identical across variants and
/// repetitions, or the run is wrong, not just slow).
fn measure_best(
    workload: &PreparedWorkload,
    config: &SimConfig,
    reps: u32,
    variant: Variant,
) -> (f64, f64) {
    let mut best = f64::INFINITY;
    let mut cycles = None;
    for _ in 0..reps {
        let mut run = SimRun::new(workload, config);
        let mut generator = walker(workload, config);
        generator.set_memoization(variant.memoized);
        let mut stream = SourceIter::new(generator);
        run.fast_forward(&mut stream);
        let start = Instant::now();
        let result = run.measure(&mut stream);
        best = best.min(start.elapsed().as_secs_f64());
        assert_eq!(result.core.instructions, config.instructions);
        match cycles {
            None => cycles = Some(result.core.cycles),
            Some(c) => {
                assert_eq!(c, result.core.cycles, "{}: repetitions must be deterministic", {
                    variant.name
                });
            }
        }
    }
    (best, cycles.expect("at least one repetition"))
}

/// One phase of a stream, digested: its event turns, in order.
fn digest_phase(frontend: &mut Frontend<TraceGenerator<'_>>, instructions: u64) -> Vec<EventTurn> {
    let mut turns = Vec::new();
    let mut covered = 0;
    while covered < instructions {
        let mut turn = EventTurn::new();
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
    (warmup, window): (&[EventTurn], &[EventTurn]),
    size: usize,
    reps: u32,
) -> (f64, f64) {
    let mut best = f64::INFINITY;
    let before = trrip_obs::snapshot();
    for _ in 0..reps {
        let mut runs: Vec<SimRun<'_>> = PolicyKind::PAPER_SET[..size]
            .iter()
            .map(|&policy| SimRun::new(workload, &config.clone().with_policy(policy)))
            .collect();
        let mut group: Vec<&mut SimRun<'_>> = runs.iter_mut().collect();
        for (i, turn) in warmup.iter().enumerate() {
            SimRun::push_fast_forward_group(&mut group, turn, i + 1 == warmup.len());
        }
        group.iter_mut().for_each(|run| run.begin_measure());
        let start = Instant::now();
        for (i, turn) in window.iter().enumerate() {
            SimRun::push_measure_group(&mut group, turn, i + 1 == window.len());
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
    let ablate = args.iter().any(|a| a == "--ablate");
    args.retain(|a| a != "--smoke" && a != "--ablate");
    let options = match HarnessOptions::try_parse(args) {
        Ok(Some(options)) => options,
        Ok(None) => {
            println!(
                "{USAGE}\n  --smoke          quick CI correctness pass (no JSON append)\n  \
                 --ablate         also measure the fresh-walker ablation variant"
            );
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
    let workload = workload();

    // TRRIP-1 exercises the full policy machinery (temperature lookups,
    // RRPV tables) beyond what the L1 fast path skips.
    let mut config = SimConfig::quick(PolicyKind::Trrip1);
    if smoke {
        // Large enough that fixed overheads are amortized out of the
        // printed ns/instr, small enough for CI.
        config.fast_forward = 40_000;
        config.instructions = 200_000;
    } else {
        config.fast_forward = 200_000 * options.scale;
        config.instructions = 1_000_000 * options.scale;
    }

    // --- Warm measure path: ns per measured instruction. ---
    trrip_obs::progress!("measure path: {} instructions after warmup…", config.instructions);
    let counters_before = trrip_obs::snapshot();
    let (measure_s, default_cycles) = measure_best(&workload, &config, reps, DEFAULT_VARIANT);
    let ns_per_instr = measure_s * 1e9 / config.instructions as f64;
    let counters = trrip_obs::snapshot().since(&counters_before);
    let (fp_hits, fp_bails) =
        (counters.get("cache.l1_fastpath_hit"), counters.get("cache.l1_fastpath_bail"));
    let fp_rate = fp_hits as f64 / (fp_hits + fp_bails).max(1) as f64;
    let (memo_hits, memo_misses) =
        (counters.get("walk.bb_memo.hit"), counters.get("walk.bb_memo.miss"));

    // --- Ablation variant: same simulation, the walker's memo off. ---
    let mut ablations = Vec::new();
    if ablate || smoke {
        for variant in ABLATIONS {
            trrip_obs::progress!("ablation: {}…", variant.name);
            let (best_s, cycles) = measure_best(&workload, &config, reps, variant);
            assert_eq!(
                cycles, default_cycles,
                "{}: ablation changed the simulated cycle count — the knob is not \
                 behavior-preserving",
                variant.name
            );
            ablations.push((variant, best_s));
        }
    }

    // --- Lockstep cell loop: gcc's turns through groups of cells. ---
    trrip_obs::progress!("lockstep cell loop: groups of {LOCKSTEP_GROUPS:?} on gcc…");
    let gcc = trrip_workloads::proxy::by_name("gcc").expect("the gcc proxy");
    let gcc = PreparedWorkload::prepare(&gcc, config.train_instructions, config.classifier);
    let mut frontend = Frontend::new(&config, walker(&gcc, &config));
    let warmup = digest_phase(&mut frontend, config.fast_forward);
    let window = digest_phase(&mut frontend, config.instructions);
    drop(frontend);
    let lockstep = LOCKSTEP_GROUPS.map(|size| {
        let (ns, ratio) = lockstep_best(&gcc, &config, (&warmup, &window), size, reps);
        (size, ns, ratio)
    });
    drop((warmup, window));

    // --- Cold capture: trace-capture throughput, memoized vs fresh
    // walker. This is the walker-bound path (no timing model), so it
    // isolates what the basic-block template cache buys.
    trrip_obs::progress!("cold capture: memoized vs fresh walker…");
    let capture_dir = std::env::temp_dir().join("trrip-bench-memsys-capture");
    std::fs::create_dir_all(&capture_dir).expect("capture dir");
    let capture_len = (config.fast_forward + config.instructions) as usize;
    let mut capture_memo_s = f64::INFINITY;
    let mut capture_fresh_s = f64::INFINITY;
    for _ in 0..reps {
        for memoized in [true, false] {
            let path = capture_dir.join(format!("cap-{memoized}.trrip"));
            let mut generator = walker(&workload, &config);
            generator.set_memoization(memoized);
            let layout = trrip_sim::capture::trace_layout(config.layout);
            let start = Instant::now();
            let mut writer =
                trrip_trace::create(&path, &workload.spec.name, layout).expect("capture writer");
            writer.write_all(generator.take(capture_len)).expect("capture");
            writer.finish().expect("finish capture");
            let elapsed = start.elapsed().as_secs_f64();
            if memoized {
                capture_memo_s = capture_memo_s.min(elapsed);
            } else {
                capture_fresh_s = capture_fresh_s.min(elapsed);
            }
        }
    }
    std::fs::remove_dir_all(&capture_dir).ok();
    let capture_speedup = capture_fresh_s / capture_memo_s.max(1e-12);

    println!(
        "memsys, {} warmup / {} measured instructions:",
        config.fast_forward, config.instructions
    );
    println!("  measure phase:      {measure_s:.3} s  ({ns_per_instr:.1} ns/instr)");
    println!(
        "  L1 fast path:       {fp_hits} hits / {fp_bails} bails  ({:.1}% hit)",
        fp_rate * 100.0
    );
    println!("  walker memo:        {memo_hits} hits / {memo_misses} misses");
    let host_cores = std::thread::available_parallelism().map_or(0, usize::from);
    for (size, ns, ratio) in lockstep {
        println!(
            "  lockstep group of {size}: {ns:.1} ns per cell-instruction on gcc  \
             (exec.cell_records / exec.turn_records = {ratio:.2}; one thread of {host_cores})"
        );
    }
    for (variant, best_s) in &ablations {
        let ns = best_s * 1e9 / config.instructions as f64;
        println!("  ablation {:>13}:  {best_s:.3} s  ({ns:.1} ns/instr)", variant.name);
    }
    println!(
        "  cold capture:       {capture_memo_s:.3} s memoized vs {capture_fresh_s:.3} s fresh  \
         ({capture_speedup:.2}x)"
    );

    if smoke {
        // The fast path must actually be exercised — both sides of it.
        assert!(fp_hits > 0, "no L1 fast-path hits recorded");
        assert!(fp_bails > 0, "no L1 fast-path bails recorded");
        assert!(fp_rate > 0.5, "warm L1 hit rate suspiciously low: {fp_rate:.3}");

        // …and so must the walker's template cache and the lockstep
        // executor (a group of n reads each record once and drives n
        // machines with it).
        for (size, _, ratio) in lockstep {
            assert_eq!(ratio, size as f64, "a group of {size} is not {size} machines a record");
        }
        assert!(memo_hits > 0, "the walker template cache never hit");
        assert!(memo_misses > 0, "the walker template cache never filled");

        // The machine state must snapshot-round-trip byte-stably.
        let mut run = SimRun::new(&workload, &config);
        let mut stream = SourceIter::new(walker(&workload, &config));
        run.fast_forward(&mut stream);
        let mut first = SnapWriter::new();
        run.save(&mut first);
        let mut restored = SimRun::new(&workload, &config);
        restored.restore(&mut SnapReader::new(first.bytes())).expect("restore memsys state");
        let mut second = SnapWriter::new();
        restored.save(&mut second);
        assert_eq!(first.bytes(), second.bytes(), "snapshot round-trip drifted");

        println!(
            "smoke OK: counters moved, snapshot byte-stable, {ns_per_instr:.1} ns/instr \
             (printed, not gated)"
        );
        obs.finish(&[("measure_ns_per_instr", ns_per_instr)]);
        return;
    }

    std::fs::create_dir_all(&options.out_dir).expect("create out dir");
    let json_path = options.out_dir.join("BENCH_memsys.json");
    let mut points = vec![(DEFAULT_VARIANT, measure_s)];
    points.extend(ablations.iter().map(|(v, s)| (*v, *s)));
    // The default variant is appended last so the trajectory's newest
    // entry is the shipping path.
    points.reverse();
    for (variant, best_s) in points {
        let ns = best_s * 1e9 / config.instructions as f64;
        let entry = format!(
            "  {{\n    \"bench\": \"memsys\",\n    \"variant\": \"{name}\",\n    \
             \"policy\": \"trrip-1\",\n    \
             \"fast_forward\": {ff},\n    \"measured_instructions\": {measured},\n    \
             \"measure_s\": {best_s:.4},\n    \
             \"measure_ns_per_instr\": {ns:.2},\n    \
             \"l1_fastpath_hits\": {fp_hits},\n    \
             \"l1_fastpath_bails\": {fp_bails},\n    \
             \"l1_fastpath_hit_rate\": {fp_rate:.4},\n    \
             \"walk_memo_hits\": {memo_hits},\n    \
             \"walk_memo_misses\": {memo_misses},\n    \
             \"host_cores\": {host_cores},\n    \
             {lockstep_fields}\
             \"capture_memo_s\": {capture_memo_s:.4},\n    \
             \"capture_fresh_s\": {capture_fresh_s:.4},\n    \
             \"capture_walker_speedup\": {capture_speedup:.3}\n  }}",
            name = variant.name,
            lockstep_fields = lockstep
                .map(|(size, ns, _)| format!(
                    "\"lockstep_gcc_ns_per_cell_instr_{size}\": {ns:.2},\n    "
                ))
                .concat(),
            ff = config.fast_forward,
            measured = config.instructions,
        );
        append_trajectory(&json_path, &entry);
    }
    trrip_obs::progress!("trajectory appended to {}", json_path.display());
    obs.finish(&[("measure_ns_per_instr", ns_per_instr)]);
}
