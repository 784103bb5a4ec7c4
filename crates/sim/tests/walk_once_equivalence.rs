//! The walk-once, predict-once sweep: `policy_sweep_with` generates each
//! workload's instruction stream once, runs one frontend over it, and
//! pushes the resulting event turns through every cell on at most `jobs`
//! threads — and every cell must still equal a [`simulate`] of its own,
//! every field of it, whatever the worker count, the workload count, or
//! where the stream happens to be cut. A cell is a configuration: the
//! rows swept here are the nine policies on one machine with SRRIP again
//! on a larger L2, and a
//! heterogeneous row whose cells share nothing but their stream (L2 size
//! and ways, page size, overlap rule, policy, armed profilers). The seam
//! underneath,
//! [`Frontend::digest`] ∘ [`CellRun::push_group`] with a group of one,
//! in either phase, is held to the pull path directly. The
//! thread budget is held over a checkpoint store too, cold and warm: the
//! same executor, over a walker from the first instruction and over one
//! resumed at the boundary. So is the lockstep
//! design, as counts: a worker reads each turn once for all the cells it
//! holds (`exec.cell_records / exec.turn_records` is the group size, and
//! every `cell_started` event says which group its cell was in).
//!
//! The counter and journal checks read process-wide state, so every
//! test in this file takes [`WALKING`] (even preparing a workload walks):
//! shared for the plain equivalence tests, exclusive for the one that
//! counts.

mod common;
mod rows;

use std::collections::BTreeSet;
use std::sync::{PoisonError, RwLock, RwLockReadGuard};

use common::assert_same_sweep;
use rows::{ablation_row, mixed_row, row_on_file, simulated};

use trrip_compiler::LayoutKind;
use trrip_core::ClassifierConfig;
use trrip_cpu::{StallClass, TraceInstr};
use trrip_policies::PolicyKind;
use trrip_sim::{
    policy_cells, policy_sweep_with, simulate, simulate_rows, simulate_source, CellRun,
    CheckpointStore, Frontend, PreparedWorkload, SimConfig, SimResult, StreamTurn,
};
use trrip_trace::source::VecSource;
use trrip_trace::TraceSource;
use trrip_workloads::{InputSet, TraceGenerator, WorkloadSpec};

static WALKING: RwLock<()> = RwLock::new(());

fn shared() -> RwLockReadGuard<'static, ()> {
    WALKING.read().unwrap_or_else(PoisonError::into_inner)
}

/// Not a multiple of the executor's 16 Ki-instruction turn, nor of the
/// walker's 1 Ki batch; with the 30 000 warmup below the stream is five
/// turns long, one more than the window holds.
const INSTRUCTIONS: u64 = 40_001;

fn workload(name: &str) -> PreparedWorkload {
    let mut spec = WorkloadSpec::named(name);
    spec.functions = 50;
    spec.hot_rotation = 8;
    PreparedWorkload::prepare(&spec, 100_000, ClassifierConfig::llvm_defaults())
}

fn quick_config(fast_forward: u64) -> SimConfig {
    let mut c = SimConfig::quick(PolicyKind::Srrip);
    c.fast_forward = fast_forward;
    c.instructions = INSTRUCTIONS;
    c
}

/// The machine of `config` under each of the paper's policies, then
/// SRRIP once more on a 256 KiB L2: ten cells, so teams split unevenly.
fn policy_row(config: &SimConfig) -> Vec<SimConfig> {
    let mut row = policy_cells(config, &PolicyKind::PAPER_SET);
    let hierarchy = config.hierarchy.clone().with_l2_size(256 << 10);
    row.push(SimConfig { hierarchy, ..config.clone() }.with_policy(PolicyKind::Srrip));
    row
}

/// One workload, so from two jobs up its cells are split across a team
/// reading one window: the policy row (5 + 5, 4 + 3 + 3, and one cell
/// each), the heterogeneous row (3 + 3, 2 + 2 + 2, and at five jobs
/// 2 + 1 + 1 + 1 + 1), and the ablation-shaped row, whose cells read two
/// stream views' columns of every turn.
#[test]
fn one_workload_split_across_workers_equals_per_cell_simulate() {
    let _shared = shared();
    let workloads = [workload("walk-once-a")];
    let config = quick_config(30_000);
    for cells in [policy_row(&config), mixed_row(&config), ablation_row(&config)] {
        let oracle = simulated(&workloads, &cells);
        for jobs in [1, 2, 3, 5, cells.len() + 3] {
            let sweep = policy_sweep_with(jobs, &workloads, &cells, None);
            assert_same_sweep(&sweep, &oracle, &format!("jobs={jobs}"));
        }
    }
    // The cells of the heterogeneous row really are different machines.
    let mixed = simulated(&workloads, &mixed_row(&config)).results;
    assert!(mixed[1].reuse_base.is_some() && mixed[2].costly.is_some());
    assert!(mixed[0].reuse_base.is_none() && mixed[0].costly.is_none());
    assert_ne!(mixed[0].l2, mixed[5].l2, "SRRIP on two L2s");
    assert_ne!(mixed[0].pages, mixed[3].pages, "4 kB against 2 MB pages");
}

/// More workloads than jobs: a round of whole workloads, one to a
/// worker, then the workload left over split between the two.
#[test]
fn whole_workloads_per_worker_equal_per_cell_simulate() {
    let _shared = shared();
    let workloads = [workload("walk-once-b"), workload("walk-once-c"), workload("walk-once-d")];
    let config = quick_config(30_000);
    for cells in [policy_row(&config), mixed_row(&config)] {
        let sweep = policy_sweep_with(2, &workloads, &cells, None);
        assert_same_sweep(&sweep, &simulated(&workloads, &cells), "three workloads at jobs=2");
    }
}

/// No warmup (nothing is pushed into the fast-forward phase at all), a
/// one-instruction warmup, and warmups one short of, equal to and one
/// past the core's 48-instruction lookahead (the frontend drains at the
/// boundary before its window ever filled, just as it fills, just
/// after), over teams of unequal size.
#[test]
fn degenerate_warmups_equal_per_cell_simulate() {
    let _shared = shared();
    let workloads = [workload("walk-once-e"), workload("walk-once-f")];
    // Thirteen jobs: more than the row's ten cells.
    for (fast_forward, jobs) in [(0, 3), (1, 13), (47, 2), (48, 1), (49, 3)] {
        let cells = policy_row(&quick_config(fast_forward));
        let sweep = policy_sweep_with(jobs, &workloads, &cells, None);
        let what = format!("fast_forward={fast_forward} at jobs={jobs}");
        assert_same_sweep(&sweep, &simulated(&workloads, &cells), &what);
    }
}

#[test]
fn profilers_ride_the_pushed_stream_unchanged() {
    let _shared = shared();
    let workloads = [workload("walk-once-g")];
    let mut config = quick_config(30_000);
    config.measure_reuse = true;
    config.track_costly = true;
    let cells = policy_row(&config);
    let oracle = simulated(&workloads, &cells);
    assert!(oracle.results.iter().all(|r| r.reuse_base.is_some() && r.costly.is_some()));
    let sweep = policy_sweep_with(3, &workloads, &cells, None);
    assert_same_sweep(&sweep, &oracle, "armed profilers at jobs=3");
}

#[test]
fn empty_sweeps_return_empty_results() {
    let _shared = shared();
    let workloads = [workload("walk-once-h")];
    let cells = policy_row(&quick_config(1_000));
    let no_cells = policy_sweep_with(4, &workloads, &[], None);
    assert!(no_cells.results.is_empty() && no_cells.cells.is_empty());
    assert_eq!(no_cells.benchmarks, ["walk-once-h"]);
    let no_workloads = policy_sweep_with(4, &[], &cells, None);
    assert!(no_workloads.results.is_empty() && no_workloads.benchmarks.is_empty());
    assert_eq!(no_workloads.cells, cells);
}

/// The ablation-shaped row over a checkpoint store: cold, the frontend
/// resolves both page sizes from the first instruction and its prefix
/// keeps both views; warm, it resumes them at the boundary. Every cell
/// equals its own `simulate` either way.
#[test]
fn two_page_sizes_over_a_store_equal_per_cell_simulate_cold_and_warm() {
    let _shared = shared();
    let workloads = [workload("walk-once-ablation")];
    let cells = ablation_row(&quick_config(30_000));
    let oracle = simulated(&workloads, &cells);
    let dir = std::env::temp_dir().join(format!("trrip-walk-once-views-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let ckpts = CheckpointStore::new(&dir);
    for pass in ["cold", "warm"] {
        let sweep = policy_sweep_with(3, &workloads, &cells, Some(&ckpts));
        assert_same_sweep(&sweep, &oracle, &format!("{pass} pass at jobs=3"));
        assert!(row_on_file(&ckpts, &workloads[0], &cells), "{pass}: the row is on file");
    }
    std::fs::remove_dir_all(&dir).ok();
}

// ---- a row shares one stream and one frontend, or is refused ----

/// `mixed_row` with its fourth cell altered.
fn row_with(alter: impl FnOnce(&mut SimConfig)) -> Vec<SimConfig> {
    let mut cells = mixed_row(&quick_config(1_000));
    alter(&mut cells[3]);
    cells
}

#[test]
#[should_panic(expected = "cell 3 differs from cell 0 in `fast_forward`")]
fn a_sweep_refuses_cells_with_different_warmups() {
    let _shared = shared();
    let cells = row_with(|cell| cell.fast_forward += 1);
    let _ = policy_sweep_with(2, &[workload("walk-once-row-ff")], &cells, None);
}

#[test]
#[should_panic(expected = "cell 3 differs from cell 0 in `layout`")]
fn a_sweep_refuses_cells_with_different_layouts() {
    let _shared = shared();
    let cells = row_with(|cell| cell.layout = LayoutKind::SourceOrder);
    let _ = policy_sweep_with(2, &[workload("walk-once-row-layout")], &cells, None);
}

// ---- the push seam on its own ----

fn eval_stream(w: &PreparedWorkload, config: &SimConfig) -> Vec<TraceInstr> {
    let mut generator =
        TraceGenerator::new(&w.program, w.object(config.layout), &w.spec, InputSet::Eval);
    let needed = (config.fast_forward + config.instructions) as usize;
    let mut stream = Vec::new();
    while stream.len() < needed {
        generator.next_batch(&mut stream);
    }
    stream.truncate(needed);
    stream
}

/// Runs one frontend over `stream`, asking it for a turn at every
/// position in `cuts` (it cuts at the fast-forward boundary and at the
/// end of the stream on its own), and pushes every turn — the empty ones
/// too — through a fresh run, whose own predictor must stay untouched.
fn pushed(
    w: &PreparedWorkload,
    config: &SimConfig,
    stream: &[TraceInstr],
    cuts: &[usize],
) -> SimResult {
    let warmup = config.fast_forward as usize;
    let mut bounds: BTreeSet<usize> = cuts.iter().copied().filter(|&c| c < stream.len()).collect();
    bounds.insert(warmup.min(stream.len()));
    bounds.insert(stream.len());
    // One more request past the end, which finds the source dry.
    bounds.insert(stream.len() + 1);
    bounds.remove(&0);

    let mut frontend =
        Frontend::new(w, std::slice::from_ref(config), VecSource::new(stream.to_vec(), 1_024));
    let mut run = CellRun::new(w, config);
    let mut turn = StreamTurn::new();
    let mut warming = config.fast_forward;
    if warming == 0 {
        run.begin_measure();
    }
    let (mut at, mut covered) = (0, 0);
    for end in bounds {
        let more = frontend.digest(end - at, &mut turn);
        at = end;
        covered += turn.instructions();
        if warming > 0 {
            warming -= turn.instructions();
            let last = warming == 0 || !more;
            CellRun::push_group(&mut [&mut run], &turn, last);
            if last {
                warming = 0;
                run.begin_measure();
            }
        } else {
            CellRun::push_group(&mut [&mut run], &turn, !more);
        }
        if !more {
            break;
        }
    }
    assert_eq!(covered, stream.len() as u64, "the turns cover the stream exactly");
    assert_eq!(run.predictor().branches(), 0, "a pushed run consults no predictor of its own");
    run.finish()
}

#[test]
fn push_seam_equals_pull_wherever_the_stream_is_cut() {
    let _shared = shared();
    let w = workload("walk-once-seam");
    // A deterministic scatter of cut points, some closer together than
    // the core's lookahead window.
    let mut scatter = Vec::new();
    let mut x = 0x9E37_79B9_u64;
    let mut at = 0usize;
    while at < 70_000 {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        at += 1 + (x >> 33) as usize % if scatter.len() % 3 == 0 { 12 } else { 3_000 };
        scatter.push(at);
    }
    for policy in [PolicyKind::Srrip, PolicyKind::Brrip, PolicyKind::Drrip, PolicyKind::Trrip1] {
        for fast_forward in [0u64, 1, 47, 48, 49, 30_000] {
            let mut config = quick_config(fast_forward).with_policy(policy);
            config.measure_reuse = policy == PolicyKind::Trrip1;
            config.track_costly = policy == PolicyKind::Trrip1;
            let stream = eval_stream(&w, &config);
            let pulled = simulate_source(&w, &config, VecSource::new(stream.clone(), 1_024));
            assert!(pulled.core.branches > 0 && pulled.core.mispredictions > 0);
            let ff = fast_forward as usize;
            let cut_sets: [&[usize]; 5] = [
                &[],
                &[ff.saturating_sub(1)],
                &[ff + 1],
                &[ff.saturating_sub(1), ff, ff + 1, ff + 2],
                &scatter,
            ];
            for cuts in cut_sets {
                let what = format!("{policy}, fast_forward={fast_forward}, cuts={:?}", {
                    &cuts[..cuts.len().min(6)]
                });
                assert!(pushed(&w, &config, &stream, cuts) == pulled, "{what}: pushed differs");
            }
        }
    }
}

/// Every policy through the seam, turn by turn as the sweep cuts them
/// (16 Ki), with the profilers armed.
#[test]
fn push_seam_equals_pull_for_every_policy() {
    let _shared = shared();
    let w = workload("walk-once-seam-all");
    for policy in PolicyKind::PAPER_SET {
        let mut config = quick_config(30_000).with_policy(policy);
        config.measure_reuse = true;
        config.track_costly = true;
        let stream = eval_stream(&w, &config);
        let pulled = simulate_source(&w, &config, VecSource::new(stream.clone(), 1_024));
        let cuts: Vec<usize> = (1..5).map(|k| k * 16 * 1_024).collect();
        assert!(pushed(&w, &config, &stream, &cuts) == pulled, "{policy}: pushed differs");
    }
}

/// Empty turns are legal anywhere, and a short stream closes with one.
#[test]
fn push_seam_takes_empty_slices_and_a_short_stream() {
    let _shared = shared();
    let w = workload("walk-once-short");
    let config = quick_config(5_000).with_policy(PolicyKind::Ship);
    let mut stream = eval_stream(&w, &config);
    stream.truncate(30_000);
    let pulled = simulate_source(&w, &config, VecSource::new(stream.clone(), 1_024));

    let mut frontend =
        Frontend::new(&w, std::slice::from_ref(&config), VecSource::new(stream.clone(), 1_024));
    let (empty, mut turn) = (StreamTurn::new(), StreamTurn::new());
    let mut run = CellRun::new(&w, &config);
    CellRun::push_group(&mut [&mut run], &empty, false);
    assert!(frontend.digest(usize::MAX, &mut turn), "the measure window is still to come");
    assert_eq!(turn.instructions(), 5_000, "a turn stops at the fast-forward boundary");
    CellRun::push_group(&mut [&mut run], &turn, false);
    CellRun::push_group(&mut [&mut run], &empty, true);
    run.begin_measure();
    CellRun::push_group(&mut [&mut run], &empty, false);
    assert!(!frontend.digest(usize::MAX, &mut turn), "the source ran dry");
    assert_eq!(turn.instructions(), 25_000);
    CellRun::push_group(&mut [&mut run], &turn, false);
    assert!(!frontend.digest(usize::MAX, &mut turn));
    assert_eq!(turn.events(), empty.events(), "nothing is left to digest");
    CellRun::push_group(&mut [&mut run], &turn, true);
    assert!(run.finish() == pulled, "short stream closed by an empty turn: pushed differs");
}

/// Streams that end before the core's 48-instruction lookahead ever
/// fills: inside the warmup, exactly at its end, and inside the window.
#[test]
fn push_seam_takes_streams_shorter_than_the_lookahead() {
    let _shared = shared();
    let w = workload("walk-once-tiny");
    for (fast_forward, length) in [(100, 30), (30, 30), (10, 30), (0, 30), (0, 1), (5, 0)] {
        let config = quick_config(fast_forward).with_policy(PolicyKind::Emissary);
        let mut stream = eval_stream(&w, &config);
        stream.truncate(length);
        let pulled = simulate_source(&w, &config, VecSource::new(stream.clone(), 1_024));
        for cuts in [&[][..], &[1, 2, 9, 10, 11, 29]] {
            let what = format!("{length} instructions, fast_forward={fast_forward}, {cuts:?}");
            assert!(pushed(&w, &config, &stream, cuts) == pulled, "{what}: pushed differs");
        }
    }
}

/// One instruction that fetches a new line, mispredicts, loads and
/// stalls — a single record carrying all four events — among plain
/// ones, in both phases.
#[test]
fn push_seam_carries_an_instruction_with_all_four_events() {
    let _shared = shared();
    let w = workload("walk-once-four");
    let mut config = quick_config(64).with_policy(PolicyKind::Trrip2);
    config.instructions = 200;
    let mut stream = Vec::new();
    for block in 0..6u64 {
        let base = 0x40_0000 + block * 0x1000;
        stream.extend((0..43).map(|i| TraceInstr::simple(base + i * 4)));
        // The first instruction of a line; a jump never seen before,
        // so the cold predictor gets it wrong.
        let pc = base + 3 * 64;
        stream.push(TraceInstr {
            mem: TraceInstr::load(pc, 0x9000_0000 + block * 512).mem,
            exec_stall: Some((StallClass::Depend, 5)),
            ..TraceInstr::jump(pc, base + 0x1000)
        });
    }
    assert_eq!(stream.len() as u64, config.fast_forward + config.instructions);

    let mut frontend =
        Frontend::new(&w, std::slice::from_ref(&config), VecSource::new(stream.clone(), 1_024));
    let mut turn = StreamTurn::new();
    frontend.digest(usize::MAX, &mut turn);
    let all_four = |turn: &StreamTurn| {
        let full = |e: &&trrip_cpu::InstrEvent| {
            e.fetch() && e.mispredicted() && e.mem().is_some() && e.stall().is_some()
        };
        turn.events().events().iter().filter(full).count()
    };
    assert_eq!(all_four(&turn), 1, "the warmup's one busy instruction: {:?}", turn.events());
    frontend.digest(usize::MAX, &mut turn);
    assert_eq!(all_four(&turn), 5);

    let pulled = simulate_source(&w, &config, VecSource::new(stream.clone(), 1_024));
    assert_eq!(pulled.core.mispredictions, 5);
    for cuts in [&[][..], &[43, 44, 45, 63, 65, 87, 88]] {
        assert!(pushed(&w, &config, &stream, cuts) == pulled, "{cuts:?}: pushed differs");
    }
}

/// A turn digested for a longer warmup than the run's.
fn oversized_turn(w: &PreparedWorkload, config: &SimConfig, instructions: usize) -> StreamTurn {
    let mut roomy = config.clone();
    roomy.fast_forward = instructions as u64;
    let stream = eval_stream(w, &roomy);
    let mut turn = StreamTurn::new();
    Frontend::new(w, std::slice::from_ref(&roomy), VecSource::new(stream, 1_024))
        .digest(instructions, &mut turn);
    assert_eq!(turn.instructions(), instructions as u64);
    turn
}

#[test]
#[should_panic(expected = "pushed past the fast-forward boundary")]
fn push_seam_refuses_to_overrun_the_warmup() {
    let _shared = shared();
    let w = workload("walk-once-overrun");
    let config = quick_config(100);
    let turn = oversized_turn(&w, &config, 101);
    CellRun::push_group(&mut [&mut CellRun::new(&w, &config)], &turn, true);
}

#[test]
#[should_panic(expected = "pushed past the measure window")]
fn push_seam_refuses_to_overrun_the_measure_window() {
    let _shared = shared();
    let w = workload("walk-once-overrun-measure");
    let mut config = quick_config(0);
    config.instructions = 100;
    let turn = oversized_turn(&w, &config, 101);
    let mut run = CellRun::new(&w, &config);
    run.begin_measure();
    CellRun::push_group(&mut [&mut run], &turn, true);
}

// ---- the seam's guards hold for every run of a group ----

/// Two runs of one workload, and the warmup of `config` as one turn.
fn pair_and_turn<'w>(
    w: &'w PreparedWorkload,
    config: &SimConfig,
) -> (CellRun<'w>, CellRun<'w>, StreamTurn) {
    let turn = oversized_turn(w, config, config.fast_forward as usize);
    let other = config.clone().with_policy(PolicyKind::Trrip1);
    (CellRun::new(w, config), CellRun::new(w, &other), turn)
}

/// One run of the group has a shorter warmup than the turn: the whole
/// push is refused, not timed for the one and truncated for the other.
#[test]
#[should_panic(expected = "pushed past the fast-forward boundary")]
fn a_group_refuses_a_turn_that_overruns_one_of_its_runs() {
    let _shared = shared();
    let w = workload("walk-once-group-overrun");
    let (mut a, _, turn) = pair_and_turn(&w, &quick_config(100));
    let mut short = CellRun::new(&w, &quick_config(99));
    CellRun::push_group(&mut [&mut a, &mut short], &turn, true);
}

/// A run that has begun measuring cannot share a turn with one still
/// warming up: the turn belongs to one phase of the stream.
#[test]
#[should_panic(expected = "the runs of a group are in one phase")]
fn a_group_refuses_runs_in_different_phases() {
    let _shared = shared();
    let w = workload("walk-once-group-phases");
    let (mut measuring, mut warming, turn) = pair_and_turn(&w, &quick_config(100));
    measuring.begin_measure();
    CellRun::push_group(&mut [&mut measuring, &mut warming], &turn, true);
}

/// A run that already took a turn cannot share the next with one that
/// did not: their clocks would be advanced from one common position.
#[test]
#[should_panic(expected = "machines in lockstep are at the same instruction")]
fn a_group_refuses_runs_at_different_positions() {
    let _shared = shared();
    let w = workload("walk-once-group-apart");
    let mut config = quick_config(0);
    config.instructions = 200;
    let turn = oversized_turn(&w, &config, 100);
    let (mut ahead, mut behind, _) = pair_and_turn(&w, &config);
    ahead.begin_measure();
    behind.begin_measure();
    CellRun::push_group(&mut [&mut ahead], &turn, false);
    CellRun::push_group(&mut [&mut ahead, &mut behind], &turn, true);
}

// ---- rows of one cell: inline, or with the walker running ahead ----

/// Rows as the row figures build them: one workload with the reuse
/// profiler armed (Figure 3), another under TRRIP-1 with the costly-miss
/// tracker (Figure 7), and that one again under both layouts, one row
/// each (Figure 2).
fn one_cell_rows(workloads: &[PreparedWorkload; 2]) -> Vec<(&PreparedWorkload, SimConfig)> {
    let config = quick_config(30_000);
    let costly = config.clone().with_policy(PolicyKind::Trrip1);
    vec![
        (&workloads[0], SimConfig { measure_reuse: true, ..config.clone() }),
        (&workloads[1], SimConfig { track_costly: true, ..costly }),
        (&workloads[1], SimConfig { layout: LayoutKind::SourceOrder, ..config.clone() }),
        (&workloads[1], SimConfig { layout: LayoutKind::Pgo, ..config }),
    ]
}

/// One row walks ahead from two jobs up and three rows never do at these
/// job counts; Figure 2's two layouts walk ahead at four. Every row
/// equals a `simulate` of its own either way.
#[test]
fn rows_of_one_cell_equal_simulate_inline_or_walking_ahead() {
    let _shared = shared();
    let workloads = [workload("rows-of-one-a"), workload("rows-of-one-b")];
    let rows = one_cell_rows(&workloads);
    let oracle: Vec<SimResult> = rows.iter().map(|(w, config)| simulate(w, config)).collect();
    for picked in [&[0][..], &[1], &[0, 1, 2], &[1, 2, 3], &[2, 3]] {
        for jobs in [1, 2, 4] {
            let results = simulate_rows(jobs, picked.len(), |i| rows[picked[i]].clone());
            assert_eq!(results.len(), picked.len());
            for (result, &row) in results.iter().zip(picked) {
                assert!(*result == oracle[row], "row {row} of {picked:?} at jobs={jobs} differs");
            }
        }
    }
    assert!(simulate_rows(4, 0, |i| rows[i].clone()).is_empty());
}

/// The walker that runs ahead stops at the row's last instruction; the
/// inline walker hands out whole batches of 1 Ki and may pass it.
#[test]
fn a_walker_running_ahead_never_walks_past_its_row() {
    let _exclusive = WALKING.write().unwrap_or_else(PoisonError::into_inner);
    let one = workload("rows-of-one-walked");
    let config = quick_config(30_000);
    let walked = |jobs| {
        let before = trrip_obs::snapshot();
        let _ = simulate_rows(jobs, 1, |_| (&one, config.clone()));
        trrip_obs::snapshot().since(&before).get("walk.instrs")
    };
    let inline = walked(1);
    let ahead = walked(2);
    assert_eq!(ahead, config.fast_forward + config.instructions, "exactly the row");
    assert!(ahead <= inline, "walking ahead walked {ahead}, inline {inline}");
}

/// A fused loop that panics drops its end of the channel, so a walker
/// blocked on a full one gives up and the panic reaches the caller.
#[test]
fn a_row_that_panics_does_not_hang_its_walker() {
    let _shared = shared();
    let one = workload("rows-of-one-panics");
    let mut config = quick_config(5_000_000);
    // More ways than a set probe holds: the machine refuses to be built.
    config.hierarchy.l2.ways = 65;
    // A thread of its own, not a scoped one: were the row to hang, the
    // test must still fail rather than wait with it.
    let (done, finished) = std::sync::mpsc::channel();
    let row = std::thread::spawn(move || {
        let outcome = std::panic::catch_unwind(|| simulate_rows(2, 1, |_| (&one, config.clone())));
        done.send(outcome.is_err()).expect("the test is waiting");
    });
    let panicked = finished
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("the row's scope must end, not wait on its walker");
    assert!(panicked, "the row's panic reaches the caller");
    row.join().expect("the row's panic was caught");
}

// ---- walked once, on no more threads than asked for ----

/// The `field` stamp of every `kind` event about `benchmark`.
fn stamps_of(
    journal: &trrip_obs::JournalRead,
    kind: &str,
    benchmark: &str,
    field: &str,
) -> Vec<u64> {
    journal
        .of_kind(kind)
        .filter(|e| e.get("benchmark").and_then(|b| b.as_str()) == Some(benchmark))
        .map(|e| e.get(field).and_then(|t| t.as_u64()).expect("events carry the field"))
        .collect()
}

/// The `thread` stamp of every `kind` event about `benchmark`.
fn threads_of(journal: &trrip_obs::JournalRead, kind: &str, benchmark: &str) -> Vec<u64> {
    stamps_of(journal, kind, benchmark, "thread")
}

/// The sizes of the lockstep groups `benchmark`'s cells started in, one
/// entry per cell, ascending.
fn groups_of(journal: &trrip_obs::JournalRead, benchmark: &str) -> Vec<u64> {
    let mut groups = stamps_of(journal, "cell_started", benchmark, "group");
    groups.sort_unstable();
    groups
}

/// A worker decodes each record of a turn once, whatever the number of
/// cells it drives with it: `jobs` workers over one workload read
/// `jobs` streams' worth of records between them, and every cell still
/// executes one stream's worth.
#[test]
fn a_worker_reads_each_turn_once_for_all_of_its_cells() {
    let _exclusive = WALKING.write().unwrap_or_else(PoisonError::into_inner);
    let one = [workload("walk-once-lockstep")];
    let config = quick_config(30_000);

    // One stream's records, counted off a frontend of our own.
    let stream = eval_stream(&one[0], &config);
    let mut frontend =
        Frontend::new(&one[0], std::slice::from_ref(&config), VecSource::new(stream, 1_024));
    let (mut turn, mut records) = (StreamTurn::new(), 0);
    while frontend.digest(10_000, &mut turn) {
        records += turn.events().events().len() as u64;
    }
    records += turn.events().events().len() as u64;
    assert!(records > 10_000, "about half the instructions have an event: {records}");

    // Ten policies on one machine, then six machines that share only
    // the stream: the records are the stream's, so the same for both.
    for row in [policy_row(&config), mixed_row(&config)] {
        let cells = row.len() as u64;
        for (jobs, streams_read) in [(1, 1), (2, 2), (3, 3), (5, 5), (64, cells)] {
            let before = trrip_obs::snapshot();
            let _ = policy_sweep_with(jobs, &one, &row, None);
            let moved = trrip_obs::snapshot().since(&before);
            let what = format!("{cells} cells, jobs = {jobs}");
            assert_eq!(moved.get("exec.turn_records"), streams_read * records, "{what}: read");
            assert_eq!(moved.get("exec.cell_records"), cells * records, "{what}: executed");
        }
    }

    // Nothing to warm: the measure phase alone, one group of three.
    let short = quick_config(0);
    let stream = eval_stream(&one[0], &short);
    let mut frontend =
        Frontend::new(&one[0], std::slice::from_ref(&short), VecSource::new(stream, 1_024));
    frontend.digest(usize::MAX, &mut turn);
    let before = trrip_obs::snapshot();
    let _ = policy_sweep_with(1, &one, &policy_row(&short)[..3], None);
    let moved = trrip_obs::snapshot().since(&before);
    assert_eq!(moved.get("exec.turn_records"), turn.events().events().len() as u64);
    assert_eq!(moved.get("exec.cell_records"), 3 * turn.events().events().len() as u64);
}

#[test]
fn a_sweep_walks_each_workload_once_on_at_most_jobs_threads() {
    let _exclusive = WALKING.write().unwrap_or_else(PoisonError::into_inner);
    let one = [workload("walk-once-count")];
    let pair = [workload("walk-once-count-a"), workload("walk-once-count-b")];
    let config = quick_config(30_000);
    let cells = policy_row(&config).len();
    let walkers_worth = config.fast_forward + config.instructions;
    // The walker hands out whole batches of 1 Ki.
    let source_batch = 1_024;

    let path = std::env::temp_dir().join(format!("trrip-walk-once-{}.jsonl", std::process::id()));
    trrip_obs::journal::init(&path, 10_000).expect("open a journal");
    trrip_obs::event("caller", &[("benchmark", trrip_obs::Field::Str("caller"))]);

    // Ten cells of one workload: walked once and predicted once, not
    // ten times.
    let before = trrip_obs::snapshot();
    let _ = policy_sweep_with(3, &one, &policy_row(&config), None);
    let moved = trrip_obs::snapshot().since(&before);
    let walked = moved.get("walk.instrs");
    assert!(
        (walkers_worth..walkers_worth + source_batch).contains(&walked),
        "a 10-policy sweep of one workload walked {walked} instructions, one walker's worth is \
         {walkers_worth}"
    );
    assert_eq!(moved.get("front.digest.instrs"), walkers_worth, "one frontend's worth");

    // Six different machines over one workload: still one walk, one
    // frontend.
    let mixed = [workload("walk-once-count-mixed")];
    let before = trrip_obs::snapshot();
    let _ = policy_sweep_with(2, &mixed, &mixed_row(&config), None);
    let moved = trrip_obs::snapshot().since(&before);
    let walked = moved.get("walk.instrs");
    assert!(
        (walkers_worth..walkers_worth + source_batch).contains(&walked),
        "a heterogeneous row walked {walked} instructions"
    );
    assert_eq!(moved.get("front.digest.instrs"), walkers_worth, "one frontend's worth");

    // The oracle really does pay per cell, and runs no shared frontend.
    let before = trrip_obs::snapshot();
    let _ = simulated(&one, &policy_row(&config));
    let moved = trrip_obs::snapshot().since(&before);
    let walked = moved.get("walk.instrs");
    assert!(walked >= cells as u64 * walkers_worth, "per-cell walked only {walked}");
    assert_eq!(moved.get("front.digest.instrs"), 0);

    // Two workloads, more jobs than cells: once each.
    let before = trrip_obs::snapshot();
    let _ = policy_sweep_with(64, &pair, &policy_row(&config), None);
    let moved = trrip_obs::snapshot().since(&before);
    let walked = moved.get("walk.instrs");
    assert!(
        (2 * walkers_worth..2 * (walkers_worth + source_batch)).contains(&walked),
        "a sweep of two workloads walked {walked} instructions"
    );
    assert_eq!(moved.get("front.digest.instrs"), 2 * walkers_worth);

    // A one-cell sweep, however many jobs it is offered.
    let solo = policy_cells(&config, &[PolicyKind::Clip]);
    let _ = policy_sweep_with(8, &[workload("walk-once-solo")], &solo, None);

    // The same executor over a checkpoint store: a cold pass (the walker
    // from the first instruction) and a warm one (the walker resumed at
    // the boundary, which walks the measured window alone).
    let stores = std::env::temp_dir().join(format!("trrip-walk-once-{}", std::process::id()));
    std::fs::remove_dir_all(&stores).ok();
    let ckpts = CheckpointStore::new(stores.join("c"));
    let stored = [workload("walk-once-stored")];
    for walks in [walkers_worth, config.instructions] {
        let before = trrip_obs::snapshot();
        let _ = policy_sweep_with(2, &stored, &policy_row(&config), Some(&ckpts));
        let walked = trrip_obs::snapshot().since(&before).get("walk.instrs");
        assert!((walks..walks + source_batch).contains(&walked), "walked {walked} of {walks}");
    }
    std::fs::remove_dir_all(&stores).ok();

    trrip_obs::journal::close().expect("the journal was open");
    let journal = trrip_obs::read_journal(&path).expect("read the journal back");
    std::fs::remove_file(&path).ok();

    // jobs = 3 over one workload: every cell journalled, three threads.
    let started = threads_of(&journal, "cell_started", "walk-once-count");
    let finished = threads_of(&journal, "cell_finished", "walk-once-count");
    assert_eq!(started.len(), cells);
    assert_eq!(finished.len(), cells);
    let threads: BTreeSet<u64> = started.iter().chain(&finished).copied().collect();
    assert_eq!(threads.len(), 3, "jobs = 3 must mean three simulator threads: {threads:?}");
    // …each driving its share of the ten cells in lockstep: 4 + 3 + 3.
    assert_eq!(groups_of(&journal, "walk-once-count"), [3, 3, 3, 3, 3, 3, 4, 4, 4, 4]);
    // jobs = 2 over the six different machines: 3 + 3.
    assert_eq!(groups_of(&journal, "walk-once-count-mixed"), [3; 6]);

    // jobs = 64 over twenty cells: one thread per cell and no more.
    let threads: BTreeSet<u64> = ["walk-once-count-a", "walk-once-count-b"]
        .iter()
        .flat_map(|name| threads_of(&journal, "cell_started", name))
        .collect();
    assert_eq!(threads.len(), 2 * cells);
    for name in ["walk-once-count-a", "walk-once-count-b", "walk-once-solo"] {
        assert!(groups_of(&journal, name).iter().all(|&group| group == 1), "{name}: alone");
    }

    let caller = threads_of(&journal, "caller", "caller");

    // jobs = 2 over a store: two simulating threads a pass (each pass
    // spawns its own second one), and one producer a pass — first the
    // walker from the top, then the walker resumed at the boundary.
    let started = threads_of(&journal, "cell_started", "walk-once-stored");
    let finished = threads_of(&journal, "cell_finished", "walk-once-stored");
    assert_eq!((started.len(), finished.len()), (2 * cells, 2 * cells));
    // Five cells a worker, warming together in the cold pass and
    // restored together in the warm one.
    assert_eq!(groups_of(&journal, "walk-once-stored"), [5; 20]);
    for (pass, (started, finished)) in
        std::iter::zip(started.chunks(cells), finished.chunks(cells)).enumerate()
    {
        let threads: BTreeSet<u64> = started.iter().chain(finished).copied().collect();
        assert_eq!(threads.len(), 2, "pass {pass}: jobs = 2, two simulator threads: {threads:?}");
        assert!(threads.contains(&caller[0]), "pass {pass}: the caller always works");
    }
    let producers: Vec<(String, u64)> = journal
        .of_kind("producer_opened")
        .filter(|e| e.get("benchmark").and_then(|b| b.as_str()) == Some("walk-once-stored"))
        .map(|e| {
            let source = e.get("source").and_then(|s| s.as_str()).expect("a source").to_owned();
            (source, e.get("start").and_then(|s| s.as_u64()).expect("a start"))
        })
        .collect();
    assert_eq!(producers, [("walker".to_owned(), 0), ("walker".to_owned(), config.fast_forward)]);

    // One cell: the caller's own thread, nothing spawned.
    assert_eq!(threads_of(&journal, "cell_started", "walk-once-solo"), caller);
    assert_eq!(threads_of(&journal, "cell_finished", "walk-once-solo"), caller);
    // …which is also one of the three above: the caller always works.
    assert!(started.contains(&caller[0]));
}
