//! Sweeps — the engine behind Figure 6, Table 3 and the sensitivity
//! studies.
//!
//! **A cell is a configuration.** A sweep runs every workload under
//! every one of its `cells: &[SimConfig]`, and a workload's **row** —
//! all the cells, over that workload — shares one instruction stream and
//! one frontend. The cells may differ in anything the stream and the
//! frontend never read: L2 policy, the L2's size and ways, page size,
//! overlap rule, armed profilers. They must agree on what those do
//! read — `layout`, `fast_forward`, `instructions`; the core is Table 1's
//! in every cell — and a sweep refuses cells that do not, naming the
//! cell and the field.
//! [`policy_cells`] builds the common case, one machine under several
//! policies.
//!
//! **One entry point, one executor, one producer.** Every sweep is a
//! [`policy_sweep_with`] and runs on the push executor (`push_sweep`):
//! per workload, one [`Frontend`] — branch predictor, FDIP scan,
//! fetch-line tracking, none of which ever sees a cache latency, and a
//! stream view per page size among the cells, which allocates anonymous
//! frames and trains the stride prefetcher — digests the CFG walker's
//! stream into a small bounded window of shared event turns, each with a
//! column per view beside its records, and at most `jobs` worker threads
//! push every turn through their cells, which run only the
//! memory-system-dependent half of the machine. A
//! worker drives the cells it holds of a workload **in lockstep**: it
//! reads a turn once, and each record moves every one of those machines
//! before the next is looked at (`Core::execute` over the group) — so a
//! turn is decoded once per worker, not once per cell, and the cells'
//! memory systems, which share nothing, keep the host busy side by side.
//! Whole workloads go to a worker each while there are enough of them
//! left; then each remaining workload's cells are split across a team of
//! workers reading the same window. A workload's stream is walked once,
//! predicted once and never materialised, and never read from disk: a
//! capture decodes no faster than the walker walks.
//!
//! With a [`CheckpointStore`] attached a sweep also leaves the
//! fast-forward boundary behind, in **two files**: per workload the
//! **shared prefix** (the frontend's predictor and stream views and the
//! walker's position — one file however the row's cells differ in
//! anything but their page sizes), per cell its **overlay**.
//! There is one way back to the boundary, `restore_at_boundary`, and
//! every cell takes it first: a cell whose overlay loads restores, a cell
//! whose overlay does not — missing, or there and damaged, alike —
//! executes the warm-up turns ([`trrip_cpu::Core::execute`]) and leaves
//! its overlay; the window writes the prefix once its frontend is across
//! the boundary, if no loadable one was on file. Where every cell of a
//! workload restored and the prefix loads, the frontend and the walker
//! both resume from the prefix: nothing walks the warm-up at all. That
//! start is decided on what loaded, never on what is on file by name, so
//! a sweep cell only ever takes pushed turns and never runs the fused
//! loop. The `warm.*` counters ([`crate::warmstats`]) and the
//! `producer_opened` / `warm_start` journal events say which of these a
//! sweep did; `tests/walk_once_equivalence.rs` and
//! `tests/push_store_equivalence.rs` hold every route to the same bits
//! and the design to its counts (one frontend, one walk from the first
//! instruction or from the boundary, one prefix read, `jobs` threads, and
//! `exec.cell_records / exec.turn_records` machines a record).
//!
//! No executor remains beside this one, and `jobs` threads are the only
//! way a sweep uses more than one core. Rows are independent and every
//! store write is temp + rename, so two processes sweeping disjoint
//! workloads may share a checkpoint directory.
//!
//! The one-cell paths, [`crate::simulate`] and
//! [`crate::simulate_source`], pull from a source of their own through
//! the fused loop and share none of the sweep machinery, which is what
//! makes them the oracle for all of the above. Where nothing is swept
//! (Figures 1, 2, 3 and 7) each row is one cell, and [`simulate_rows`]
//! runs them on the fused loop, `jobs` at a time: a cell with nobody to
//! share a frontend with needs no window, but where `jobs` leaves every
//! row a core to spare, its walker runs ahead on that core and hands the
//! fused loop whole batches.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};

use trrip_cpu::TraceInstr;
use trrip_obs::Field;
use trrip_policies::PolicyKind;
use trrip_trace::TraceSource;
use trrip_workloads::{InputSet, TraceGenerator};

use crate::capture::eval_walker;
use crate::checkpoint::{CheckpointStore, SharedWarmup};
use crate::config::SimConfig;
use crate::prepare::PreparedWorkload;
use crate::system::{Frontend, Resumable, SimResult, SimRun};
use crate::view::StreamTurn;
use crate::warmstats;

/// Worker threads used when the caller does not cap them: one per
/// hardware thread.
#[must_use]
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(4, usize::from)
}

/// Results of a `workloads × cells` sweep.
#[derive(Debug, PartialEq)]
pub struct SweepResult {
    /// One result per (workload, cell) pair, workload-major.
    pub results: Vec<SimResult>,
    /// The configurations swept, in order.
    pub cells: Vec<SimConfig>,
    /// The benchmark names, in order.
    pub benchmarks: Vec<String>,
}

impl SweepResult {
    /// The result of cell `cell` (an index into [`SweepResult::cells`])
    /// over `benchmark`.
    ///
    /// # Panics
    ///
    /// Panics if the pair was not part of the sweep.
    #[must_use]
    pub fn cell(&self, benchmark: &str, cell: usize) -> &SimResult {
        let bi = self
            .benchmarks
            .iter()
            .position(|b| b == benchmark)
            .unwrap_or_else(|| panic!("unknown benchmark {benchmark}"));
        assert!(cell < self.cells.len(), "cell {cell} of {} not swept", self.cells.len());
        &self.results[bi * self.cells.len() + cell]
    }

    /// The result for one (benchmark, policy) pair of a sweep whose
    /// cells differ in their policy.
    ///
    /// # Panics
    ///
    /// Panics if the pair was not part of the sweep, or if more than one
    /// cell runs `policy` (ask for the cell by index).
    #[must_use]
    pub fn get(&self, benchmark: &str, policy: PolicyKind) -> &SimResult {
        self.cell(benchmark, self.cell_of(policy))
    }

    /// The one cell that runs `policy`.
    fn cell_of(&self, policy: PolicyKind) -> usize {
        let mut running =
            self.cells.iter().enumerate().filter(|(_, cell)| cell.hierarchy.l2_policy == policy);
        let (cell, _) = running.next().unwrap_or_else(|| panic!("policy {policy} not swept"));
        assert!(running.next().is_none(), "policy {policy} names more than one cell");
        cell
    }

    /// Per-benchmark speedups of `policy` against `baseline`, in percent,
    /// in benchmark order.
    #[must_use]
    pub fn speedups(&self, policy: PolicyKind, baseline: PolicyKind) -> Vec<f64> {
        self.cell_speedups(self.cell_of(policy), self.cell_of(baseline))
    }

    /// Per-benchmark speedups of cell `cell` against cell `baseline`, in
    /// percent, in benchmark order.
    #[must_use]
    pub fn cell_speedups(&self, cell: usize, baseline: usize) -> Vec<f64> {
        self.benchmarks
            .iter()
            .map(|b| self.cell(b, cell).speedup_vs(self.cell(b, baseline)))
            .collect()
    }
}

/// The cells of the common sweep: the machine of `config` under each of
/// `policies`.
#[must_use]
pub fn policy_cells(config: &SimConfig, policies: &[PolicyKind]) -> Vec<SimConfig> {
    policies.iter().map(|&policy| config.clone().with_policy(policy)).collect()
}

/// Runs `f(0)..f(n-1)` across at most `jobs` scoped workers (`--jobs` in
/// the bench harness), never more than `n`, returning the results in
/// index order. The scaffold behind preparation passes and
/// [`simulate_rows`].
///
/// # Panics
///
/// Propagates panics from `f` (a panicking worker aborts the scope).
pub fn parallel_map_with<T, F>(jobs: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    let cursor = AtomicUsize::new(0);
    let threads = jobs.max(1).min(n.max(1));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let value = f(i);
                slots.lock().expect("no worker panics holding the slots")[i] = Some(value);
            });
        }
    });
    let slots = slots.into_inner().expect("no worker panics holding the slots");
    slots.into_iter().map(|v| v.expect("all jobs completed")).collect()
}

/// Runs `rows` rows of one cell each — `row(i)` is row `i`'s workload
/// and machine — `jobs` at a time, never more than `rows`, and returns
/// one result per row in order, each bit-identical to a
/// [`crate::simulate`] of its own. When `jobs` leaves every row a core
/// to spare (`jobs >= 2 × rows`), each row's walker runs ahead on a
/// thread of its own and hands batches to the row's fused loop
/// ([`crate::simulate_source`]); otherwise every row runs
/// [`crate::simulate`] inline. Figures 1, 2, 3 and 7 run on this.
///
/// # Panics
///
/// Propagates panics from `row` and from the runs.
#[must_use]
pub fn simulate_rows<'w, F>(jobs: usize, rows: usize, row: F) -> Vec<SimResult>
where
    F: Fn(usize) -> (&'w PreparedWorkload, SimConfig) + Sync,
{
    let walk_ahead = jobs >= 2 * rows;
    parallel_map_with(jobs, rows, |i| {
        let (workload, config) = row(i);
        if walk_ahead {
            simulate_walking_ahead(workload, &config)
        } else {
            crate::simulate(workload, &config)
        }
    })
}

/// Instructions a walker running ahead hands over at a time.
const AHEAD_BATCH: usize = 16 * 1024;

/// Batches a walker running ahead may have in flight before it waits
/// for the fused loop.
const AHEAD_BATCHES: usize = 3;

/// [`crate::simulate`] with the walker on a scoped thread of its own,
/// walking exactly the run's `fast_forward + instructions` into a bounded
/// channel. A fused loop that unwinds drops the channel's receiving end,
/// which fails the walker's next send, so the scope never waits on it.
fn simulate_walking_ahead(workload: &PreparedWorkload, config: &SimConfig) -> SimResult {
    let (full_tx, full) = mpsc::sync_channel::<Vec<TraceInstr>>(AHEAD_BATCHES);
    let (spent, spent_rx) = mpsc::channel::<Vec<TraceInstr>>();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let mut walker = eval_walker(workload, config);
            let mut left = config.fast_forward + config.instructions;
            while left > 0 {
                let mut batch =
                    spent_rx.try_recv().unwrap_or_else(|_| Vec::with_capacity(AHEAD_BATCH));
                let n = left.min(AHEAD_BATCH as u64);
                walker.fill(&mut batch, n as usize);
                left -= n;
                if full_tx.send(batch).is_err() {
                    return;
                }
            }
        });
        crate::simulate_source(workload, config, AheadSource { full, spent })
    })
}

/// The fused loop's end of a walker running ahead: a batch received is
/// swapped into the caller's buffer, and the spent buffer goes back.
struct AheadSource {
    full: mpsc::Receiver<Vec<TraceInstr>>,
    spent: mpsc::Sender<Vec<TraceInstr>>,
}

impl TraceSource for AheadSource {
    fn next_batch(&mut self, out: &mut Vec<TraceInstr>) -> usize {
        let Ok(mut batch) = self.full.recv() else { return 0 };
        let n = batch.len();
        if out.is_empty() {
            std::mem::swap(out, &mut batch);
        } else {
            out.append(&mut batch);
        }
        // The walker is done with the channel once it has sent its last
        // batch: a buffer it will not reuse is simply dropped.
        let _ = self.spent.send(batch);
        n
    }
}

/// Runs every workload under every cell over the CFG walker, with each
/// workload's instruction stream **walked once, predicted once** and
/// pushed as event turns through all of its cells, on at most `jobs`
/// threads, the caller's included: a sweep of one cell, or with
/// `jobs == 1`, spawns none. Every cell is bit-identical to a
/// [`crate::simulate`] of its own, whatever the worker count, the
/// scheduling or the route through `checkpoints`
/// (`tests/push_store_equivalence.rs`).
///
/// Workers are dealt to workloads statically, in rounds. While at least
/// as many workloads remain as there are workers, the next round gives
/// each worker a whole workload, which it walks and simulates on its
/// own. When fewer remain, the last round spreads the workers over them
/// in teams, and the members of a team split that workload's cells
/// between them (member `m` of `n` takes cells `m`, `m + n`, …) while
/// reading one shared stream: a member that reaches the head of the
/// stream with the producer free generates and digests the next turn
/// for all of them before it takes its own, so the digests fall to
/// whichever member has slack — which is what evens out an odd split.
///
/// The shared stream is a **bounded window** of a few turns. A member
/// that runs ahead waits for the slowest to let go of the oldest turn
/// rather than buffering the stream, so memory stays at a megabyte or
/// two per workload in flight whatever the run length, and a turn is
/// still warm in the host's cache when the last member reads it.
///
/// With `checkpoints`, cells start warm where they can and leave warm
/// starts behind where they cannot. Each cell restores its overlay at
/// the fast-forward boundary if it loads; a cell without executes the
/// warm-up turns and saves its overlay at the boundary. The frontend's
/// predictor, the stream views and the walker's position there are the
/// shared prefix, which the window saves unless a loadable one was on
/// file. Every
/// member of a team restores its share before the window opens, so where
/// it opens is decided on what loaded: when every cell of a workload
/// restored and the prefix loads, nobody needs the warm-up, and the
/// frontend resumes from the prefix ([`Frontend::resume`]) over a walker
/// resumed there; otherwise the stream starts at its first instruction.
/// An overlay that is on file but does not load is reported and is a
/// missing one: its cell warms up in the row's one walk of the stream and
/// rewrites the file. Damaged files heal by being overwritten, and so do
/// files of another format version, which read as absent; a save that
/// fails only costs the warm start next time.
///
/// # Panics
///
/// Panics if the cells do not share a stream and a frontend (see the
/// module docs).
#[must_use]
pub fn policy_sweep_with(
    jobs: usize,
    workloads: &[PreparedWorkload],
    cells: &[SimConfig],
    checkpoints: Option<&CheckpointStore>,
) -> SweepResult {
    // With nothing to fast-forward there is no boundary state to keep.
    let warms = cells.first().is_some_and(|stream| stream.fast_forward > 0);
    let checkpoints = checkpoints.filter(|_| warms);
    push_sweep(jobs, workloads, cells, checkpoints, |workload, prefix| {
        open_walker(workload, cells, prefix)
    })
}

/// Refuses cells that could not share a stream and a frontend: every
/// cell must agree with the first on what those read.
fn assert_one_stream(cells: &[SimConfig]) {
    let Some(stream) = cells.first() else { return };
    for (index, cell) in cells.iter().enumerate() {
        for (field, agrees) in [
            ("layout", cell.layout == stream.layout),
            ("fast_forward", cell.fast_forward == stream.fast_forward),
            ("instructions", cell.instructions == stream.instructions),
        ] {
            assert!(
                agrees,
                "cell {index} differs from cell 0 in `{field}`: the cells of a sweep share one \
                 stream and one frontend"
            );
        }
    }
}

/// Opens the frontend of `workload`'s row of `cells` over the walker: at
/// the fast-forward boundary, both resumed from the shared `prefix`, if
/// the window hands one over (it does when no cell will read the
/// warm-up); else at the first instruction.
fn open_walker<'w>(
    workload: &'w PreparedWorkload,
    cells: &[SimConfig],
    prefix: Option<&SharedWarmup>,
) -> Frontend<TraceGenerator<'w>> {
    let config = &cells[0];
    match prefix {
        Some(prefix) => {
            journal_producer(workload, config.fast_forward);
            let object = workload.object(config.layout);
            let (program, spec) = (&workload.program, &workload.spec);
            let walker = TraceGenerator::resume(
                program,
                object,
                spec,
                InputSet::Eval,
                prefix.walker.clone(),
            )
            .expect("the walker section was checked when the prefix loaded");
            Frontend::resume(workload, cells, walker, prefix)
                .expect("keyed shared prefix matches the machine")
        }
        None => {
            journal_producer(workload, 0);
            Frontend::new(workload, cells, eval_walker(workload, config))
        }
    }
}

/// Instructions in a turn: the unit the stream window is filled, handed
/// over and recycled in, and what a worker pushes through its group of
/// cells at a time. A worker reads a turn once, front to back, for all
/// of its cells, so the turn no longer has to stay in the host's cache
/// from one cell to the next; what the size still bounds is two lock
/// acquisitions per worker per turn at one end and a window of about
/// 1.5 MB per workload in flight at the other. Not a knob: measured on
/// `benchmark/run.sh --workload sweep_walker` (9 cells of 3.3 M
/// instructions, 2 workers on 2 cores; `wall_s`, medians of four runs,
/// run-to-run spread 6%) when a turn still held instructions and was
/// read once per cell, 2 Ki gave 1.66 s, 16 Ki 1.59 s, 64 Ki 1.60 s and
/// 256 Ki 1.63 s — flat, once turns are handed over uncopied and their
/// buffers recycled.
pub const TURN_INSTRS: usize = 16 * 1024;

/// Turns a stream window holds before the worker at its head has to
/// wait for the slowest reader (about 0.3 MB each: half the
/// instructions have an event, at 40 bytes a record). 2 and 8 measured
/// the same as 4 (three runs each, same workload).
const WINDOW_TURNS: usize = 4;

/// The push executor behind [`policy_sweep_with`]: per workload, `open`
/// is called once — with the workload's shared prefix, if `checkpoints`
/// hold a loadable one and every cell restored its overlay — and the
/// stream under the frontend it returns (both read from the first cell:
/// all agree on what they read) is digested and pushed turn by turn
/// through every cell's [`SimRun`] (see
/// [`policy_sweep_with`] for how cells are dealt to workers and what
/// `checkpoints` add). Generic over the producer: nothing here knows
/// where the stream comes from.
fn push_sweep<'w, S, F>(
    jobs: usize,
    workloads: &'w [PreparedWorkload],
    cells: &'w [SimConfig],
    checkpoints: Option<&'w CheckpointStore>,
    open: F,
) -> SweepResult
where
    S: Resumable + Send,
    F: Fn(&'w PreparedWorkload, Option<&SharedWarmup>) -> Frontend<S> + Sync,
{
    assert_one_stream(cells);
    let runs = workloads.len() * cells.len();
    let mut finished = Vec::new();
    if runs > 0 {
        let workers = jobs.clamp(1, runs);
        let teams = deal_teams(workloads.len(), cells.len(), workers);
        let windows: Vec<Window<'w, S>> = std::iter::zip(workloads, &teams)
            .map(|(workload, team)| Window::new(workload, cells, checkpoints, team.members))
            .collect();
        let work = |worker: usize| {
            let _bail = Bail(&windows);
            let mut finished = Vec::new();
            for (wi, team) in teams.iter().enumerate() {
                if let Some(member) = team.member(worker) {
                    let share: Vec<(usize, &SimConfig)> = (member..cells.len())
                        .step_by(team.members)
                        .map(|ci| (wi * cells.len() + ci, &cells[ci]))
                        .collect();
                    finished.extend(run_share(&windows[wi], &open, &share));
                }
            }
            finished
        };
        finished = std::thread::scope(|scope| {
            let work = &work;
            let spawned: Vec<_> = (1..workers).map(|w| scope.spawn(move || work(w))).collect();
            let mut finished = work(0);
            for handle in spawned {
                finished.extend(handle.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
            }
            finished
        });
    }
    finished.sort_unstable_by_key(|&(run, _)| run);
    assert_eq!(finished.len(), runs, "every cell runs exactly once over every workload");
    SweepResult {
        results: finished.into_iter().map(|(_, result)| result).collect(),
        cells: cells.to_vec(),
        benchmarks: workloads.iter().map(|w| w.spec.name.clone()).collect(),
    }
}

/// The workers that split one workload's cells: workers `slot`,
/// `slot + stride`, … — the first `members` of them, member `m` taking
/// cells `m`, `m + members`, ….
struct Team {
    slot: usize,
    stride: usize,
    members: usize,
}

impl Team {
    /// `worker`'s member number in this team, if it is in it.
    fn member(&self, worker: usize) -> Option<usize> {
        let member = worker / self.stride;
        (worker % self.stride == self.slot && member < self.members).then_some(member)
    }
}

/// Deals `workers` workers to the workloads, in rounds (see
/// [`policy_sweep_with`]): each round takes the next `workers` workloads
/// one to a worker, or — when fewer remain — all that remain, with the
/// workers spread over them as evenly as they go. Every worker has at
/// most one workload per round and visits its workloads in index order,
/// so a team's members meet at their window's opening. A team is never
/// larger than the number of cells; workers beyond that sit the round
/// out.
fn deal_teams(workloads: usize, cells: usize, workers: usize) -> Vec<Team> {
    let mut teams = Vec::with_capacity(workloads);
    while teams.len() < workloads {
        let round = (workloads - teams.len()).min(workers);
        teams.extend((0..round).map(|slot| Team {
            slot,
            stride: round,
            members: (workers - slot).div_ceil(round).min(cells),
        }));
    }
    teams
}

/// One cell of a worker's share while the window's stream is pushed
/// through it.
struct Cell<'w> {
    /// Index into the sweep's results.
    index: usize,
    run: SimRun<'w>,
    /// Not restored from its overlay: it executes the warm-up turns (a
    /// restored cell lets them go by).
    warms: bool,
}

/// One worker's share of one workload (`(index into the sweep's
/// results, configuration)` per cell): restores every cell it can at the
/// fast-forward boundary and builds the rest cold, arrives at the window
/// — which starts at the boundary only if every cell of every member
/// restored — and pushes the stream through all of them **in lockstep**:
/// each turn is read once and drives the whole group
/// ([`SimRun::push_group`]; during a warm-up, the cells that warm).
/// Returns the results by index. Phase spans are per worker per phase,
/// not per turn.
fn run_share<'w, S, F>(
    window: &Window<'w, S>,
    open: &F,
    share: &[(usize, &SimConfig)],
) -> Vec<(usize, SimResult)>
where
    S: Resumable,
    F: Fn(&'w PreparedWorkload, Option<&SharedWarmup>) -> Frontend<S>,
{
    let (workload, config, checkpoints) = (window.workload, &window.cells[0], window.checkpoints);
    let bench = workload.spec.name.as_str();
    let mut cells = Vec::with_capacity(share.len());
    for &(index, cell_config) in share {
        let restored =
            checkpoints.and_then(|store| restore_at_boundary(workload, cell_config, store));
        let warms = restored.is_none();
        let run = restored.unwrap_or_else(|| SimRun::cell(workload, cell_config));
        cells.push(Cell { index, run, warms });
    }
    let start = window.open(open, cells.iter().all(|cell| !cell.warms));
    let mut reader = Reader { window, turn: 0, held: None };
    for cell in &cells {
        let policy = cell.run.config().hierarchy.l2_policy;
        journal_cell("cell_started", bench, policy, ("group", Field::U64(cells.len() as u64)));
    }
    if start == 0 && config.fast_forward > 0 {
        let _span = trrip_obs::span!("fast_forward");
        let mut warming: Vec<_> =
            cells.iter_mut().filter(|cell| cell.warms).map(|cell| &mut cell.run).collect();
        reader.feed(config.fast_forward, |turn, last| SimRun::push_group(&mut warming, turn, last));
        reader.release();
        for cell in cells.iter().filter(|cell| cell.warms) {
            leave_boundary(checkpoints, &cell.run);
        }
    }
    cells.iter_mut().for_each(|cell| cell.run.begin_measure());
    {
        let _span = trrip_obs::span!("measure");
        let mut group: Vec<_> = cells.iter_mut().map(|cell| &mut cell.run).collect();
        reader.feed(config.instructions, |turn, last| SimRun::push_group(&mut group, turn, last));
    }
    drop(reader);
    let finished: Vec<(usize, SimResult)> =
        cells.into_iter().map(|mut cell| (cell.index, cell.run.finish())).collect();
    for (_, result) in &finished {
        let cycles = ("cycles", Field::F64(result.core.cycles));
        journal_cell("cell_finished", bench, result.policy, cycles);
    }
    finished
}

/// A cell's run restored at the fast-forward boundary from its overlay
/// — the one way back there. A cell consults no predictor: the
/// frontend reads the prefix, once, for all of them. `None` if the overlay
/// is not in: one that does not load is reported and is a missing one, and
/// the caller warms a fresh machine, since a failed restore may have left
/// this one half-written.
fn restore_at_boundary<'w>(
    workload: &'w PreparedWorkload,
    config: &SimConfig,
    store: &CheckpointStore,
) -> Option<SimRun<'w>> {
    let policy = config.hierarchy.l2_policy.name();
    let mut run = SimRun::cell(workload, config);
    match store.load_overlay_into(&mut run) {
        Ok(true) => {
            warmstats::count_overlay_restore();
            journal_route(workload, policy, "overlay_restore");
            Some(run)
        }
        Ok(false) => None,
        Err(e) => {
            report_damaged(&workload.spec.name, policy, "policy overlay", &e, "warming up again");
            None
        }
    }
}

/// The shared prefix of `workload`'s row of `cells`, if the store holds
/// one that loads; one that does not is reported, and written again by
/// whoever crosses the boundary next.
fn load_prefix(
    store: &CheckpointStore,
    workload: &PreparedWorkload,
    cells: &[SimConfig],
) -> Option<SharedWarmup> {
    store.load_prefix(workload, cells).unwrap_or_else(|e| {
        report_damaged(&workload.spec.name, "*", "shared prefix", &e, "writing it again");
        None
    })
}

/// What a cell that executed its warm-up leaves at the boundary: with a
/// store attached, its overlay (the prefix is the frontend's to leave,
/// through the window); without one, nothing. A save that fails only
/// costs the warm start next time.
fn leave_boundary(store: Option<&CheckpointStore>, run: &SimRun<'_>) {
    let (workload, config) = (run.workload(), run.config());
    let policy = config.hierarchy.l2_policy.name();
    let Some(store) = store else {
        warmstats::count_cold_warmup();
        journal_route(workload, policy, "cold_warmup");
        return;
    };
    warmstats::count_tail_replay();
    journal_route(workload, policy, "tail_replay");
    if let Err(e) = store.save_overlay(run) {
        report_damaged(&workload.spec.name, policy, "overlay save", &e, "continuing without it");
    }
}

/// Saves the shared prefix of `workload`'s row of `cells`; a failure
/// only costs the next sweep's frontend the warm-up.
fn save_prefix(
    store: &CheckpointStore,
    workload: &PreparedWorkload,
    cells: &[SimConfig],
    prefix: &SharedWarmup,
) {
    warmstats::count_recorded_warmup();
    if let Err(e) = store.save_prefix(workload, cells, prefix) {
        report_damaged(&workload.spec.name, "*", "prefix save", &e, "continuing without it");
    }
}

/// Journals a cell's start — with its `group`: how many cells of the
/// workload its worker drives in lockstep with it, itself included — or
/// its end, with its `cycles`.
fn journal_cell(kind: &str, benchmark: &str, policy: PolicyKind, field: (&str, Field<'_>)) {
    let fields =
        [("benchmark", Field::Str(benchmark)), ("policy", Field::Str(policy.name())), field];
    trrip_obs::event(kind, &fields);
}

/// Journals a workload's one producer, the walker, and the stream
/// position it starts at.
fn journal_producer(workload: &PreparedWorkload, start: u64) {
    trrip_obs::event(
        "producer_opened",
        &[
            ("benchmark", Field::Str(&workload.spec.name)),
            ("source", Field::Str("walker")),
            ("start", Field::U64(start)),
        ],
    );
}

/// Journals which route warmed a cell (next to the `warm.*` counters,
/// which carry the same totals without the per-cell attribution).
fn journal_route(workload: &PreparedWorkload, policy: &str, route: &str) {
    if trrip_obs::journal_active() {
        trrip_obs::event(
            "warm_start",
            &[
                ("route", Field::Str(route)),
                ("benchmark", Field::Str(&workload.spec.name)),
                ("policy", Field::Str(policy)),
            ],
        );
    }
}

/// Reports a store file of `benchmark` that did not load or save —
/// journalled, and on stderr unless quiet — with what happens instead.
pub(crate) fn report_damaged(
    benchmark: &str,
    policy: &str,
    what: &str,
    error: &dyn std::fmt::Display,
    next: &str,
) {
    if trrip_obs::journal_active() {
        trrip_obs::event(
            "artifact_damaged",
            &[
                ("what", Field::Str(what)),
                ("benchmark", Field::Str(benchmark)),
                ("policy", Field::Str(policy)),
                ("error", Field::Str(&error.to_string())),
                ("next", Field::Str(next)),
            ],
        );
    }
    if !trrip_obs::quiet() {
        eprintln!("[trrip] damaged {what} for {benchmark} / {policy}: {error}; {next}");
    }
}

/// One workload's instruction stream, shared by the team of workers
/// that split its cells: a bounded queue of digested turns, each handed
/// to every member without a copy and recycled once the last member has
/// let go of it.
struct Window<'w, S> {
    workload: &'w PreparedWorkload,
    /// The row: the stream and the frontend's predictor are read from
    /// its first cell, with which every other agrees on them, and the
    /// frontend's views from the page sizes of all of them.
    cells: &'w [SimConfig],
    checkpoints: Option<&'w CheckpointStore>,
    /// Team size: every turn is read this many times.
    readers: usize,
    state: Mutex<WindowState<S>>,
    /// Signalled when a turn is published, a turn is retired, or the
    /// sweep fails.
    changed: Condvar,
}

struct WindowState<S> {
    producer: Producer<S>,
    /// Members that have arrived at [`Window::open`].
    arrived: usize,
    /// Every member that arrived restored its whole share.
    restored: bool,
    /// Where in the stream the producer's first turn begins.
    start: u64,
    /// A checkpoint store is attached and held no loadable shared
    /// prefix when the producer was opened: the frontend's boundary
    /// state is to be saved as it.
    prefix_wanted: bool,
    /// Position (in turns from there) of `turns[0]`.
    first: usize,
    turns: VecDeque<Turn>,
    /// Retired turns' buffers, for the next turns to be digested into.
    spare: Vec<StreamTurn>,
    /// A worker of the sweep panicked ([`Bail`]): the rest must not
    /// wait for it to arrive, nor for turns it will never publish or
    /// release.
    failed: bool,
}

struct Turn {
    events: Arc<StreamTurn>,
    readers_left: usize,
}

enum Producer<S> {
    /// Not every member has arrived yet.
    Unopened,
    /// Parked between turns.
    Idle(Box<Frontend<S>>),
    /// A member has the frontend out and is digesting outside the lock.
    Busy,
    /// Everything the sweep needs was digested, or the source ran dry.
    Done,
}

impl<'w, S: Resumable> Window<'w, S> {
    fn new(
        workload: &'w PreparedWorkload,
        cells: &'w [SimConfig],
        checkpoints: Option<&'w CheckpointStore>,
        readers: usize,
    ) -> Self {
        Window {
            workload,
            cells,
            checkpoints,
            readers,
            state: Mutex::new(WindowState {
                producer: Producer::Unopened,
                arrived: 0,
                restored: true,
                start: 0,
                prefix_wanted: false,
                first: 0,
                turns: VecDeque::with_capacity(WINDOW_TURNS),
                spare: Vec::new(),
                failed: false,
            }),
            changed: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, WindowState<S>> {
        self.state.lock().expect("a sweep worker panicked inside the stream window")
    }

    /// The stream position of turn 0, once every member has arrived,
    /// each saying whether it `restored` its whole share. The last to
    /// arrive reads the shared prefix, if a store holds one, and opens the
    /// producer — with the prefix if it loaded and every member restored,
    /// else at the first instruction — under the lock: its teammates have
    /// nothing to do before they know where their cells start.
    fn open<F>(&self, open: &F, restored: bool) -> u64
    where
        F: Fn(&'w PreparedWorkload, Option<&SharedWarmup>) -> Frontend<S>,
    {
        let mut state = self.lock();
        state.arrived += 1;
        state.restored &= restored;
        if state.arrived == self.readers {
            let prefix =
                self.checkpoints.and_then(|store| load_prefix(store, self.workload, self.cells));
            let frontend = open(self.workload, prefix.as_ref().filter(|_| state.restored));
            state.prefix_wanted = self.checkpoints.is_some() && prefix.is_none();
            state.start = frontend.start();
            state.producer = Producer::Idle(Box::new(frontend));
            self.changed.notify_all();
        }
        while matches!(state.producer, Producer::Unopened) {
            state = self.wait(state);
        }
        state.start
    }

    /// Waits for the window to change — unless the sweep failed
    /// ([`Bail`]): then what the caller waits for may never come, and it
    /// panics instead.
    fn wait<'s>(&'s self, state: MutexGuard<'s, WindowState<S>>) -> MutexGuard<'s, WindowState<S>> {
        if state.failed {
            drop(state);
            panic!("another worker of this sweep panicked");
        }
        self.changed.wait(state).expect("a sweep worker panicked inside the window")
    }

    /// Turn `k` of the stream, or `None` when the stream ended before
    /// it. A member asks for turns in order, so `k` is either in the
    /// window or the next to be digested. The member that finds the
    /// producer idle and the window not full when it reaches the head of
    /// the stream — `k` is the newest turn, or not digested yet — digests
    /// the next one, outside the lock, while the others read what is
    /// there or wait; and it does so before it takes a `k` that is
    /// already there. A team's slack is at the head: a member that only
    /// digested when it found the window empty would make its teammates
    /// wait on every digest it does, and once the cells are cheap the
    /// digest is worth two of them (a two-member team over nine cells
    /// waited ≈ 15 % of its time on `gcc`).
    fn acquire(&self, k: usize) -> Option<Arc<StreamTurn>> {
        let mut state = self.lock();
        loop {
            let held = state.turns.get(k - state.first).map(|turn| Arc::clone(&turn.events));
            let at_head = k + 1 >= state.first + state.turns.len();
            if at_head && state.turns.len() < WINDOW_TURNS {
                match std::mem::replace(&mut state.producer, Producer::Busy) {
                    Producer::Idle(frontend) => {
                        state = self.produce(state, frontend);
                        if held.is_some() {
                            return held;
                        }
                        continue;
                    }
                    parked => state.producer = parked,
                }
            }
            if held.is_some() {
                return held;
            }
            if matches!(state.producer, Producer::Done) {
                return None;
            }
            state = self.wait(state);
        }
    }

    /// Digests the next turn with `frontend`, taken out of `state` (left
    /// `Busy`), outside the lock, and publishes it; returns the lock.
    fn produce<'s>(
        &'s self,
        mut state: MutexGuard<'s, WindowState<S>>,
        mut frontend: Box<Frontend<S>>,
    ) -> MutexGuard<'s, WindowState<S>> {
        let mut events = state.spare.pop().unwrap_or_default();
        let prefix_wanted = state.prefix_wanted;
        drop(state);
        let more = {
            let _span = trrip_obs::span!("digest");
            frontend.digest(TURN_INSTRS, &mut events)
        };
        // The frontend is across the fast-forward boundary: what it knows
        // there is the shared prefix every later sweep starts from.
        if let Some(store) = self.checkpoints.filter(|_| prefix_wanted) {
            if let Some(prefix) = frontend.take_shared_warmup() {
                save_prefix(store, self.workload, self.cells, &prefix);
            }
        }
        // Dropped here, not under the lock, when the stream is over (a
        // walker and a frontend publish their counters then).
        let producer = if more {
            Producer::Idle(frontend)
        } else {
            drop(frontend);
            Producer::Done
        };
        let mut state = self.lock();
        if !more {
            state.spare.clear();
        }
        state.producer = producer;
        if events.instructions() > 0 {
            let turn = Turn { events: Arc::new(events), readers_left: self.readers };
            state.turns.push_back(turn);
        }
        self.changed.notify_all();
        state
    }

    /// One member is done with turn `k`. Members release in stream
    /// order, so turns retire from the front; a retired turn's buffer
    /// goes back to be digested into while there is more to digest.
    fn release(&self, k: usize) {
        let mut state = self.lock();
        let first = state.first;
        state.turns[k - first].readers_left -= 1;
        while state.turns.front().is_some_and(|turn| turn.readers_left == 0) {
            let turn = state.turns.pop_front().expect("checked above");
            state.first += 1;
            if !matches!(state.producer, Producer::Done) {
                if let Ok(events) = Arc::try_unwrap(turn.events) {
                    state.spare.push(events);
                }
            }
            self.changed.notify_all();
        }
    }
}

/// One team member's position in a [`Window`]: hands out the stream
/// turn by turn, and releases each turn as it moves past.
struct Reader<'a, 'w, S: Resumable> {
    window: &'a Window<'w, S>,
    turn: usize,
    held: Option<Arc<StreamTurn>>,
}

impl<S: Resumable> Reader<'_, '_, S> {
    /// Hands the turns covering the stream's next `limit` instructions
    /// to `push`, one by one; the final call carries `last = true`,
    /// with an empty turn if there was nothing to hand over or the
    /// stream ended short.
    fn feed(&mut self, limit: u64, mut push: impl FnMut(&StreamTurn, bool)) {
        let mut left = limit;
        while left > 0 {
            self.release();
            self.held = self.window.acquire(self.turn);
            let Some(turn) = &self.held else { break };
            left = left
                .checked_sub(turn.instructions())
                .expect("turns are cut at the fast-forward boundary");
            if left == 0 {
                return push(turn, true);
            }
            push(turn, false);
        }
        push(&StreamTurn::new(), true);
    }

    fn release(&mut self) {
        if self.held.take().is_some() {
            self.window.release(self.turn);
            self.turn += 1;
        }
    }
}

impl<S: Resumable> Drop for Reader<'_, '_, S> {
    /// Lets go of the turn still held (unless unwinding: [`Bail`] has
    /// the team covered, and the lock may be poisoned).
    fn drop(&mut self) {
        if !std::thread::panicking() {
            self.release();
        }
    }
}

/// Held by every worker of a sweep. A worker that unwinds fails every
/// window on its way out, so that teammates waiting for it to arrive, or
/// for a turn it will never generate or release, panic too instead of
/// waiting for ever.
struct Bail<'a, 'w, S>(&'a [Window<'w, S>]);

impl<S> Drop for Bail<'_, '_, S> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            for window in self.0 {
                if let Ok(mut state) = window.state.lock() {
                    state.failed = true;
                }
                window.changed.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{simulate, simulate_source};
    use trrip_core::ClassifierConfig;
    use trrip_trace::source::VecSource;
    use trrip_workloads::{WalkerState, WorkloadSpec};

    /// The sweeps over sources of their own attach no store, so nobody
    /// asks them for a position to keep.
    impl Resumable for VecSource {
        fn position(&self, _: &[TraceInstr]) -> WalkerState {
            unreachable!("no checkpoint store is attached")
        }
    }

    fn tiny_workload(name: &str) -> PreparedWorkload {
        let mut spec = WorkloadSpec::named(name);
        spec.functions = 50;
        spec.hot_rotation = 8;
        PreparedWorkload::prepare(&spec, 100_000, ClassifierConfig::llvm_defaults())
    }

    #[test]
    fn sweep_covers_all_pairs() {
        let workloads = vec![tiny_workload("wa"), tiny_workload("wb")];
        let mut config = SimConfig::quick(PolicyKind::Srrip);
        config.instructions = 100_000;
        config.fast_forward = 10_000;
        let cells = policy_cells(&config, &[PolicyKind::Srrip, PolicyKind::Trrip1]);
        let sweep = policy_sweep_with(2, &workloads, &cells, None);
        assert_eq!(sweep.results.len(), 4);
        assert_eq!(sweep.get("wa", PolicyKind::Srrip).policy, PolicyKind::Srrip);
        assert_eq!(sweep.get("wb", PolicyKind::Trrip1).benchmark, "wb");
        assert_eq!(sweep.cell("wb", 1).policy, PolicyKind::Trrip1);
    }

    /// Two cells under one policy have no name but their index.
    #[test]
    #[should_panic(expected = "policy SRRIP names more than one cell")]
    fn lookup_by_policy_refuses_an_ambiguous_policy() {
        let workloads = vec![tiny_workload("wg")];
        let mut config = SimConfig::quick(PolicyKind::Srrip);
        config.instructions = 20_000;
        config.fast_forward = 0;
        let mut roomy = config.clone();
        roomy.hierarchy = roomy.hierarchy.with_l2_size(256 << 10);
        let sweep = policy_sweep_with(1, &workloads, &[config, roomy], None);
        assert_ne!(sweep.cell("wg", 0).l2, sweep.cell("wg", 1).l2);
        let _ = sweep.get("wg", PolicyKind::Srrip);
    }

    #[test]
    fn parallel_sweep_matches_serial_run() {
        let workloads = vec![tiny_workload("wx")];
        let mut config = SimConfig::quick(PolicyKind::Srrip);
        config.instructions = 80_000;
        config.fast_forward = 8_000;
        let cells = policy_cells(&config, &[PolicyKind::Clip]);
        let sweep = policy_sweep_with(default_jobs(), &workloads, &cells, None);
        let serial = simulate(&workloads[0], &cells[0]);
        assert!(*sweep.get("wx", PolicyKind::Clip) == serial, "CLIP: the sweep's cell differs");
    }

    #[test]
    fn teams_give_every_cell_to_exactly_one_worker() {
        for workloads in 1..=7 {
            // Up to a policy sweep's ten, and a figure's eighteen.
            for cells in [1, 2, 3, 4, 5, 10, 18] {
                for jobs in 1..=12 {
                    let workers = jobs.min(workloads * cells);
                    let teams = deal_teams(workloads, cells, workers);
                    assert_eq!(teams.len(), workloads);
                    let mut owners = vec![0; workloads * cells];
                    for (wi, team) in teams.iter().enumerate() {
                        assert!((1..=cells).contains(&team.members));
                        for member in (0..workers).filter_map(|worker| team.member(worker)) {
                            for ci in (member..cells).step_by(team.members) {
                                owners[wi * cells + ci] += 1;
                            }
                        }
                    }
                    assert!(
                        owners.iter().all(|&n| n == 1),
                        "{workloads} workloads x {cells} cells on {workers} workers: {owners:?}"
                    );
                }
            }
        }
    }

    /// The executor knows nothing of walkers: fed a materialised stream
    /// in batches that divide neither a turn nor the run — and one that
    /// ends short of the run — it matches the pull path over the same
    /// stream.
    #[test]
    fn push_sweep_over_any_source_matches_simulate_source() {
        let workloads = vec![tiny_workload("wv")];
        let mut config = SimConfig::quick(PolicyKind::Srrip);
        config.instructions = 60_000;
        config.fast_forward = 7_000;
        let cells =
            policy_cells(&config, &[PolicyKind::Srrip, PolicyKind::Drrip, PolicyKind::Trrip1]);
        let full: Vec<TraceInstr> = eval_walker(&workloads[0], &config).take(67_000).collect();
        for length in [67_000, 41_234] {
            let stream = &full[..length];
            let sweep = push_sweep(2, &workloads, &cells, None, |workload, _| {
                Frontend::new(workload, &cells, VecSource::new(stream.to_vec(), 1_000))
            });
            for (cell, cell_config) in sweep.results.iter().zip(&cells) {
                let pulled = simulate_source(
                    &workloads[0],
                    cell_config,
                    VecSource::new(stream.to_vec(), 1_000),
                );
                let policy = cell.policy;
                assert!(*cell == pulled, "{policy} over {length} instructions: the cell differs");
            }
        }
    }

    /// A worker that dies must take its team down with it: the others
    /// would otherwise wait for turns it will never generate or release.
    /// (Which worker's panic surfaces depends on who was generating, so
    /// no message is expected; a hang is what this guards against.)
    #[test]
    #[should_panic]
    fn a_panicking_producer_fails_the_sweep_instead_of_hanging() {
        struct Breaks(u32);
        impl TraceSource for Breaks {
            fn next_batch(&mut self, out: &mut Vec<TraceInstr>) -> usize {
                self.0 += 1;
                assert!(self.0 < 40, "source broke");
                out.extend(std::iter::repeat_n(TraceInstr::simple(0x40_0000), 1_024));
                1_024
            }
        }
        impl Resumable for Breaks {
            fn position(&self, _: &[TraceInstr]) -> WalkerState {
                unreachable!("no checkpoint store is attached")
            }
        }
        let workloads = vec![tiny_workload("wp")];
        let mut config = SimConfig::quick(PolicyKind::Srrip);
        config.instructions = 200_000;
        config.fast_forward = 0;
        let cells = policy_cells(&config, &[PolicyKind::Srrip, PolicyKind::Lru, PolicyKind::Clip]);
        let _ = push_sweep(3, &workloads, &cells, None, |workload, _| {
            Frontend::new(workload, &cells, Breaks(0))
        });
    }

    /// A member that dies before it reaches the window — here in
    /// building its cell's machine, whose L2 has no ways — must take its
    /// teammate down with it: the teammate would otherwise wait for ever
    /// for the last member to arrive and open the stream.
    #[test]
    #[should_panic(expected = "another worker of this sweep panicked")]
    fn a_member_that_dies_before_the_window_opens_fails_its_teammate() {
        let workloads = vec![tiny_workload("wd")];
        let mut config = SimConfig::quick(PolicyKind::Srrip);
        config.instructions = 20_000;
        config.fast_forward = 0;
        let mut broken = config.clone();
        broken.hierarchy.l2.ways = 0;
        // Worker 0, the caller's thread, holds cell 0 and waits at the
        // window; worker 1 unwinds building cell 1.
        let _ = policy_sweep_with(2, &workloads, &[config, broken], None);
    }

    #[test]
    fn speedup_sign_convention() {
        let run = |cycles: f64| SimResult {
            benchmark: "sign".into(),
            policy: PolicyKind::Srrip,
            core: trrip_cpu::CoreResult {
                instructions: 100,
                cycles,
                topdown: Default::default(),
                branches: 0,
                mispredictions: 0,
            },
            l1i: Default::default(),
            l1d: Default::default(),
            l2: Default::default(),
            slc: Default::default(),
            tlb: Default::default(),
            pages: Default::default(),
            reuse_base: None,
            reuse_hot_only: None,
            costly: None,
        };
        assert!((run(100.0).speedup_vs(&run(110.0)) - 10.0).abs() < 1e-9);
        assert!(run(110.0).speedup_vs(&run(100.0)) < 0.0);
    }
}
