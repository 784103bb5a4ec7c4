//! Parallel policy sweeps — the engine behind Figure 6, Table 3 and the
//! sensitivity studies.
//!
//! Three engines produce the same [`SweepResult`], bit-identically, and
//! each pays for a workload's instruction stream once, not once per
//! policy:
//!
//! * [`policy_sweep`] needs no disk: per workload, one CFG walker and
//!   one [`Frontend`] — branch predictor, FDIP scan, fetch-line
//!   tracking, none of which ever sees a cache latency — fill a small
//!   bounded window of shared event turns, and at most `jobs` worker
//!   threads push every turn through each of their policy cells in
//!   turn, which run only the policy-dependent half of the core
//!   (**walk once, predict once** — the `walk.instrs` and
//!   `front.digest.instrs` counters and
//!   `tests/walk_once_equivalence.rs` hold it to that). Whole workloads
//!   go to a worker each while there are enough of them left; then each
//!   remaining workload's cells are split across a team of workers
//!   reading the same window;
//! * [`replay_sweep`] captures each workload's trace to a
//!   [`TraceStore`] once, then fans each capture out **decode-once**:
//!   a [`trrip_trace::FanoutReplay`] pipeline (parallel chunk-decode
//!   workers + an ordered broadcaster) feeds shared
//!   `Arc<[TraceInstr]>` batches to one simulator thread per policy,
//!   so disk I/O + varint decode is paid once per *workload*, not once
//!   per `(workload, policy)` job;
//! * [`replay_sweep_isolated`] is the legacy decode-per-job engine
//!   (each job opens its own [`trrip_trace::StreamingReplay`]), kept as
//!   the baseline for the fan-out throughput bench and as an
//!   independent oracle in equivalence tests.
//!
//! The one-cell path, [`crate::simulate`], pulls from a walker of its
//! own and shares none of the sweep machinery, which is what makes it
//! the oracle for all of them.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, MutexGuard};

use parking_lot::Mutex;
use trrip_cpu::{EventTurn, WarmupTape};
use trrip_policies::PolicyKind;
use trrip_trace::{
    FanoutOptions, FanoutReplay, FanoutSubscriber, SourceIter, StreamingReplay, TraceSource,
};
use trrip_workloads::{InputSet, TraceGenerator};

use crate::capture::TraceStore;
use crate::checkpoint::CheckpointStore;
use crate::config::SimConfig;
use crate::prepare::PreparedWorkload;
use crate::system::{simulate_source, Frontend, SimResult, SimRun};
use crate::warmstats;

/// Worker threads used when the caller does not cap them: one per
/// hardware thread.
#[must_use]
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(4, usize::from)
}

/// Results of a `workloads × policies` sweep.
#[derive(Debug)]
pub struct SweepResult {
    /// One result per (workload, policy) pair, workload-major.
    pub results: Vec<SimResult>,
    /// The policies swept, in order.
    pub policies: Vec<PolicyKind>,
    /// The benchmark names, in order.
    pub benchmarks: Vec<String>,
}

impl SweepResult {
    /// The result for one (benchmark, policy) pair.
    ///
    /// # Panics
    ///
    /// Panics if the pair was not part of the sweep.
    #[must_use]
    pub fn get(&self, benchmark: &str, policy: PolicyKind) -> &SimResult {
        let bi = self
            .benchmarks
            .iter()
            .position(|b| b == benchmark)
            .unwrap_or_else(|| panic!("unknown benchmark {benchmark}"));
        let pi = self
            .policies
            .iter()
            .position(|&p| p == policy)
            .unwrap_or_else(|| panic!("policy {policy} not swept"));
        &self.results[bi * self.policies.len() + pi]
    }

    /// Per-benchmark speedups of `policy` against `baseline`, in percent,
    /// in benchmark order.
    #[must_use]
    pub fn speedups(&self, policy: PolicyKind, baseline: PolicyKind) -> Vec<f64> {
        self.benchmarks
            .iter()
            .map(|b| {
                let base = self.get(b, baseline);
                self.get(b, policy).speedup_vs(base)
            })
            .collect()
    }
}

/// Runs `f(0)..f(n-1)` across up to one scoped worker per hardware
/// thread, returning the results in index order. The shared fan-out
/// scaffold behind every sweep and preparation pass.
///
/// # Panics
///
/// Propagates panics from `f` (a panicking worker aborts the scope).
pub fn parallel_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    parallel_map_with(default_jobs(), n, f)
}

/// [`parallel_map`] with an explicit worker cap (`--jobs` in the bench
/// harness): at most `jobs` scoped workers, never more than `n`.
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
                slots.lock()[i] = Some(value);
            });
        }
    });
    slots.into_inner().into_iter().map(|v| v.expect("all jobs completed")).collect()
}

/// Runs every workload under every policy over the CFG walker, with
/// each workload's instruction stream **walked once, predicted once**
/// and pushed as event turns through all of its policy cells, on up to
/// one worker thread per hardware thread. Every cell is bit-identical
/// to a [`simulate`] of its own, whatever the worker count or
/// scheduling.
#[must_use]
pub fn policy_sweep(
    workloads: &[PreparedWorkload],
    config: &SimConfig,
    policies: &[PolicyKind],
) -> SweepResult {
    policy_sweep_with(default_jobs(), workloads, config, policies)
}

/// [`policy_sweep`] on at most `jobs` threads, the caller's included:
/// a sweep of one cell, or with `jobs == 1`, spawns none.
///
/// Workers are dealt to workloads statically, in rounds. While at least
/// as many workloads remain as there are workers, the next round gives
/// each worker a whole workload, which it walks and simulates on its
/// own. When fewer remain, the last round spreads the workers over them
/// in teams, and the members of a team split that workload's cells
/// between them (member `m` of `n` takes policies `m`, `m + n`, …) while
/// reading one shared stream: whichever member reaches the head of the
/// stream first generates and digests the next turn for all of them —
/// in practice the member with the lighter share, which is what evens
/// out an odd split.
///
/// The shared stream is a **bounded window** of a few turns. A member
/// that runs ahead waits for the slowest to let go of the oldest turn
/// rather than buffering the stream, so memory stays at a megabyte or
/// two per workload in flight whatever the run length, and a turn is
/// still warm in the host's cache when the last member reads it.
#[must_use]
pub fn policy_sweep_with(
    jobs: usize,
    workloads: &[PreparedWorkload],
    config: &SimConfig,
    policies: &[PolicyKind],
) -> SweepResult {
    push_sweep(jobs, workloads, config, policies, |workload| {
        let object = workload.object(config.layout);
        TraceGenerator::new(&workload.program, object, &workload.spec, InputSet::Eval)
    })
}

/// Instructions a worker pushes through one cell before it moves on to
/// its next cell, and the unit the stream window is filled, handed over
/// and recycled in. Not a knob: measured on `benchmark/run.sh
/// --workload sweep_walker` (9 cells of 3.3 M instructions, 2 workers on
/// 2 cores; `wall_s`, medians of four runs, run-to-run spread 6%) when
/// turns still held instructions, 2 Ki gave 1.66 s, 16 Ki 1.59 s, 64 Ki
/// 1.60 s and 256 Ki 1.63 s — flat, once turns are handed over uncopied
/// and their buffers recycled. 16 Ki is kept for what it bounds at
/// either end: two lock acquisitions per worker per turn, and a window
/// of about 1.5 MB per workload in flight (each turn should sit in the
/// host's cache between one cell and the next, not stream from DRAM).
const TURN_INSTRS: usize = 16 * 1024;

/// Turns a stream window holds before the worker at its head has to
/// wait for the slowest reader (about 0.4 MB each: half the
/// instructions have an event, at 48 bytes a record). 2 and 8 measured
/// the same as 4 (three runs each, same workload).
const WINDOW_TURNS: usize = 4;

/// The walk-once push executor behind [`policy_sweep_with`]: per
/// workload, `open` is called once, and the stream it returns —
/// `fast_forward + instructions` long — is digested by one [`Frontend`]
/// and pushed turn by turn through every policy's [`SimRun`] (see
/// [`policy_sweep_with`] for how cells are dealt to workers). Generic
/// over the producer: nothing here knows the stream comes from a
/// walker.
fn push_sweep<'w, S, F>(
    jobs: usize,
    workloads: &'w [PreparedWorkload],
    config: &'w SimConfig,
    policies: &[PolicyKind],
    open: F,
) -> SweepResult
where
    S: TraceSource + Send,
    F: Fn(&'w PreparedWorkload) -> S + Sync,
{
    let cells = workloads.len() * policies.len();
    let mut finished = Vec::new();
    if cells > 0 {
        let workers = jobs.clamp(1, cells);
        let teams = deal_teams(workloads.len(), policies.len(), workers);
        let windows: Vec<Window<'w, S>> = std::iter::zip(workloads, &teams)
            .map(|(workload, team)| Window::new(workload, config, team.members))
            .collect();
        let work = |worker: usize| {
            let _bail = Bail(&windows);
            let mut finished = Vec::new();
            for (wi, team) in teams.iter().enumerate() {
                if let Some(member) = team.member(worker) {
                    let share: Vec<(usize, PolicyKind)> = (member..policies.len())
                        .step_by(team.members)
                        .map(|pi| (wi * policies.len() + pi, policies[pi]))
                        .collect();
                    finished.extend(run_share(&windows[wi], &open, config, &share));
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
    finished.sort_unstable_by_key(|&(cell, _)| cell);
    assert_eq!(finished.len(), cells, "every cell runs exactly once");
    SweepResult {
        results: finished.into_iter().map(|(_, result)| result).collect(),
        policies: policies.to_vec(),
        benchmarks: workloads.iter().map(|w| w.spec.name.clone()).collect(),
    }
}

/// The workers that split one workload's cells: workers `slot`,
/// `slot + stride`, … — the first `members` of them, member `m` taking
/// policies `m`, `m + members`, ….
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
/// so a team's members arrive at their window together. A team is never
/// larger than the number of policies; workers beyond that sit the round
/// out.
fn deal_teams(workloads: usize, policies: usize, workers: usize) -> Vec<Team> {
    let mut teams = Vec::with_capacity(workloads);
    while teams.len() < workloads {
        let round = (workloads - teams.len()).min(workers);
        teams.extend((0..round).map(|slot| Team {
            slot,
            stride: round,
            members: (workers - slot).div_ceil(round).min(policies),
        }));
    }
    teams
}

/// One worker's share of one workload: builds a [`SimRun`] per cell in
/// `share` (`(index into the sweep's results, policy)`), pushes the
/// window's stream through all of them turn by turn, and returns the
/// results by index. Phase spans are per worker per phase, not per turn.
fn run_share<'w, S, F>(
    window: &Window<'w, S>,
    open: &F,
    config: &SimConfig,
    share: &[(usize, PolicyKind)],
) -> Vec<(usize, SimResult)>
where
    S: TraceSource,
    F: Fn(&'w PreparedWorkload) -> S,
{
    let workload = window.workload;
    let mut reader = Reader { window, open, turn: 0, held: None };
    let mut runs: Vec<SimRun<'w>> = share
        .iter()
        .map(|&(_, policy)| {
            journal_cell("cell_started", &workload.spec.name, policy, None);
            SimRun::new(workload, &config.clone().with_policy(policy))
        })
        .collect();
    if config.fast_forward > 0 {
        let _span = trrip_obs::span!("fast_forward");
        reader.feed(config.fast_forward, |turn, last| {
            runs.iter_mut().for_each(|run| run.push_fast_forward(turn, last));
        });
    }
    runs.iter_mut().for_each(SimRun::begin_measure);
    {
        let _span = trrip_obs::span!("measure");
        reader.feed(config.instructions, |turn, last| {
            runs.iter_mut().for_each(|run| run.push_measure(turn, last));
        });
    }
    drop(reader);
    std::iter::zip(share, &mut runs)
        .map(|(&(cell, policy), run)| {
            let result = run.finish();
            journal_cell("cell_finished", &workload.spec.name, policy, Some(result.core.cycles));
            (cell, result)
        })
        .collect()
}

/// Journals a cell's start (`cycles: None`) or end.
fn journal_cell(kind: &str, benchmark: &str, policy: PolicyKind, cycles: Option<f64>) {
    use trrip_obs::Field;
    let fields = [
        ("benchmark", Field::Str(benchmark)),
        ("policy", Field::Str(policy.name())),
        ("cycles", Field::F64(cycles.unwrap_or_default())),
    ];
    trrip_obs::event(kind, &fields[..if cycles.is_some() { 3 } else { 2 }]);
}

/// One workload's instruction stream, shared by the team of workers
/// that split its cells: a bounded queue of digested turns, each handed
/// to every member without a copy and recycled once the last member has
/// let go of it.
struct Window<'w, S> {
    workload: &'w PreparedWorkload,
    config: &'w SimConfig,
    /// Team size: every turn is read this many times.
    readers: usize,
    state: std::sync::Mutex<WindowState<S>>,
    /// Signalled when a turn is published, a turn is retired, or the
    /// sweep fails.
    changed: Condvar,
}

struct WindowState<S> {
    producer: Producer<S>,
    /// Stream position (in turns) of `turns[0]`.
    first: usize,
    turns: VecDeque<Turn>,
    /// Retired turns' buffers, for the next turns to be digested into.
    spare: Vec<EventTurn>,
    /// A worker of the sweep panicked ([`Bail`]): the rest must not
    /// wait for turns it will never publish or release.
    failed: bool,
}

struct Turn {
    events: Arc<EventTurn>,
    readers_left: usize,
}

enum Producer<S> {
    /// No member has asked for the stream yet.
    Unopened,
    /// Parked between turns.
    Idle(Box<Frontend<S>>),
    /// A member has the frontend out and is digesting outside the lock.
    Busy,
    /// Everything the sweep needs was digested, or the source ran dry.
    Done,
}

impl<'w, S: TraceSource> Window<'w, S> {
    fn new(workload: &'w PreparedWorkload, config: &'w SimConfig, readers: usize) -> Self {
        Window {
            workload,
            config,
            readers,
            state: std::sync::Mutex::new(WindowState {
                producer: Producer::Unopened,
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

    /// Turn `k` of the stream, or `None` when the stream ended before
    /// it. A member asks for turns in order, so `k` is either in the
    /// window or the next to be digested — and then the first member to
    /// find the producer idle and the window not full generates and
    /// digests it, outside the lock, while the others read what is there
    /// or wait.
    fn acquire<F>(&self, k: usize, open: &F) -> Option<Arc<EventTurn>>
    where
        F: Fn(&'w PreparedWorkload) -> S,
    {
        let mut state = self.lock();
        loop {
            if state.failed {
                drop(state);
                panic!("another worker of this sweep panicked");
            }
            if let Some(turn) = state.turns.get(k - state.first) {
                return Some(Arc::clone(&turn.events));
            }
            let room = state.turns.len() < WINDOW_TURNS;
            match std::mem::replace(&mut state.producer, Producer::Busy) {
                Producer::Done => {
                    state.producer = Producer::Done;
                    return None;
                }
                Producer::Busy => {}
                parked if room => {
                    let mut events = state.spare.pop().unwrap_or_default();
                    drop(state);
                    let mut frontend = match parked {
                        Producer::Idle(frontend) => frontend,
                        _ => Box::new(Frontend::new(self.config, open(self.workload))),
                    };
                    let more = {
                        let _span = trrip_obs::span!("digest");
                        frontend.digest(TURN_INSTRS, &mut events)
                    };
                    // Dropped here, not under the lock, when the stream
                    // is over (a walker and a frontend publish their
                    // counters then).
                    let producer = if more { Producer::Idle(frontend) } else { Producer::Done };
                    state = self.lock();
                    if !more {
                        state.spare.clear();
                    }
                    state.producer = producer;
                    if events.instructions() > 0 {
                        let turn = Turn { events: Arc::new(events), readers_left: self.readers };
                        state.turns.push_back(turn);
                    }
                    self.changed.notify_all();
                    continue;
                }
                parked => state.producer = parked,
            }
            state = self.changed.wait(state).expect("a sweep worker panicked inside the window");
        }
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
struct Reader<'a, 'w, S: TraceSource, F> {
    window: &'a Window<'w, S>,
    open: &'a F,
    turn: usize,
    held: Option<Arc<EventTurn>>,
}

impl<'w, S, F> Reader<'_, 'w, S, F>
where
    S: TraceSource,
    F: Fn(&'w PreparedWorkload) -> S,
{
    /// Hands the turns covering the stream's next `limit` instructions
    /// to `push`, one by one; the final call carries `last = true`,
    /// with an empty turn if there was nothing to hand over or the
    /// stream ended short.
    fn feed(&mut self, limit: u64, mut push: impl FnMut(&EventTurn, bool)) {
        let mut left = limit;
        while left > 0 {
            self.release();
            self.held = self.window.acquire(self.turn, self.open);
            let Some(turn) = &self.held else { break };
            left = left
                .checked_sub(turn.instructions())
                .expect("turns are cut at the fast-forward boundary");
            if left == 0 {
                return push(turn, true);
            }
            push(turn, false);
        }
        push(&EventTurn::new(), true);
    }
}

impl<S: TraceSource, F> Reader<'_, '_, S, F> {
    fn release(&mut self) {
        if self.held.take().is_some() {
            self.window.release(self.turn);
            self.turn += 1;
        }
    }
}

impl<S: TraceSource, F> Drop for Reader<'_, '_, S, F> {
    /// Lets go of the turn still held (unless unwinding: [`Bail`] has
    /// the team covered, and the lock may be poisoned).
    fn drop(&mut self) {
        if !std::thread::panicking() {
            self.release();
        }
    }
}

/// Held by every worker of a sweep. A worker that unwinds fails every
/// window on its way out, so that teammates waiting for a turn it will
/// never generate or release panic too instead of waiting for ever.
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

/// Runs every workload under every policy by streaming captured traces
/// from `store` — capturing any that are missing first — with the
/// decode-once fan-out engine: per workload, one
/// [`FanoutReplay`] pipeline decodes the capture a single time (chunks
/// decoded on parallel workers, checksummed on read) and broadcasts the
/// shared batches to one scoped simulator thread per policy. Decode
/// order is the file's chunk order for every subscriber, so the result
/// is deterministic and bit-identical to [`policy_sweep`] and
/// [`replay_sweep_isolated`] regardless of scheduling — while the
/// expensive disk + varint work is paid once per *workload* instead of
/// once per job ([`trrip_trace::records_decoded`] makes that promise
/// testable).
///
/// # Panics
///
/// Panics if a trace cannot be captured or replayed (disk full, file
/// damaged between capture and replay).
#[must_use]
pub fn replay_sweep(
    workloads: &[PreparedWorkload],
    config: &SimConfig,
    policies: &[PolicyKind],
    store: &TraceStore,
) -> SweepResult {
    replay_sweep_with(default_jobs(), workloads, config, policies, store)
}

/// [`replay_sweep`] with an explicit worker budget: `jobs` caps the
/// capture workers, the decode workers, and how many workloads fan out
/// concurrently. Within one workload the simulator-thread count is
/// always `policies.len()` — the broadcast protocol needs every
/// policy's consumer live at once (a policy that waited would stall
/// the bounded channels) — so the budget is spent on concurrent
/// workloads in waves of `jobs / policies.len()`.
///
/// # Panics
///
/// As [`replay_sweep`].
#[must_use]
pub fn replay_sweep_with(
    jobs: usize,
    workloads: &[PreparedWorkload],
    config: &SimConfig,
    policies: &[PolicyKind],
    store: &TraceStore,
) -> SweepResult {
    fanout_sweep(
        jobs,
        workloads,
        config,
        policies,
        store,
        |_| 0,
        |cell| simulate_source(cell.workload, cell.config, cell.subscriber),
    )
}

/// What [`fanout_sweep`] hands a cell: its workload, its configuration
/// (the sweep's with the cell's policy), the capture and the cell's
/// subscriber to the one decode of it.
struct FanoutCell<'a> {
    workload: &'a PreparedWorkload,
    config: &'a SimConfig,
    trace: &'a Path,
    subscriber: FanoutSubscriber,
}

/// The shared fan-out scaffold behind [`replay_sweep_with`] and
/// [`replay_sweep_checkpointed`]: captures each workload's trace, then
/// per workload decodes once — from instruction `start_of(workload)`,
/// see [`FanoutReplay::open_at`] — and broadcasts to one `run_cell`
/// thread per policy. Each workload's fan-out runs `policies.len()`
/// simulator threads, so when a sweep has fewer policies than worker
/// slots (a 2-policy layout study on a 16-core box), whole workloads run
/// concurrently in waves of `jobs / policies` until the slots are
/// spent; the decode-worker budget is split across the wave.
fn fanout_sweep<P, F>(
    jobs: usize,
    workloads: &[PreparedWorkload],
    config: &SimConfig,
    policies: &[PolicyKind],
    store: &TraceStore,
    start_of: P,
    run_cell: F,
) -> SweepResult
where
    P: Fn(&PreparedWorkload) -> u64 + Sync,
    F: Fn(FanoutCell<'_>) -> SimResult + Sync,
{
    // Phase 1: one capture per workload (only the missing ones pay).
    let paths: Vec<PathBuf> = parallel_map_with(jobs, workloads.len(), |i| {
        store
            .ensure(&workloads[i], config)
            .unwrap_or_else(|e| panic!("capturing {}: {e}", workloads[i].spec.name))
    });

    // Phase 2: per workload, decode once and fan out to every policy.
    let wave = (jobs / policies.len().max(1)).max(1);
    let options = FanoutOptions {
        decode_workers: (jobs / wave).clamp(1, FanoutOptions::default().decode_workers.max(1)),
        ..FanoutOptions::default()
    };
    let run_cell = &run_cell;
    let per_workload: Vec<Vec<SimResult>> = parallel_map_with(wave, workloads.len(), |wi| {
        let (workload, path) = (&workloads[wi], &paths[wi]);
        let subscribers = FanoutReplay::open_at(path, policies.len(), options, start_of(workload))
            .unwrap_or_else(|e| panic!("replaying {}: {e}", path.display()));
        std::thread::scope(|scope| {
            let handles: Vec<_> = subscribers
                .into_iter()
                .zip(policies)
                .map(|(subscriber, &policy)| {
                    let run_config = config.clone().with_policy(policy);
                    scope.spawn(move || {
                        let bench = workload.spec.name.as_str();
                        journal_cell("cell_started", bench, policy, None);
                        let span = trrip_obs::span!("cell");
                        let result = run_cell(FanoutCell {
                            workload,
                            config: &run_config,
                            trace: path,
                            subscriber,
                        });
                        drop(span);
                        journal_cell("cell_finished", bench, policy, Some(result.core.cycles));
                        result
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect()
        })
    });

    SweepResult {
        results: per_workload.into_iter().flatten().collect(),
        policies: policies.to_vec(),
        benchmarks: workloads.iter().map(|w| w.spec.name.clone()).collect(),
    }
}

/// Produces a [`SimRun`] warmed to the fast-forward boundary for one
/// `(workload, policy)` cell, by the cheapest valid route — every route
/// is bit-identical to a cold per-cell warmup
/// (`tests/warm_prefix_equivalence.rs`):
///
/// 1. a **whole-state** fast-forward checkpoint (v1/v2 files, or any
///    full container) — the warmup is never simulated;
/// 2. **shared prefix + this policy's overlay** — compose the
///    policy-agnostic and policy-dependent sections;
/// 3. **shared prefix + warmup-tail replay** — restore the predictor,
///    re-simulate the warmup against this policy's own machine with
///    every predictor decision taken off the recorded tape
///    ([`SimRun::fast_forward_replayed`]), and persist the overlay the
///    next sweep will compose from. This is where a *corrupt or
///    missing* overlay lands — never back at a cold warmup;
/// 4. **cold recorded warmup** — no prefix available: simulate the
///    warmup normally while recording a tape, then persist both the
///    prefix and this policy's overlay. (With no store at all, a plain
///    cold warmup.)
///
/// `stream_at(pos)` supplies the instruction stream positioned `pos`
/// instructions in, and is called exactly once: with `fast_forward` on
/// the restore rungs (1–2), with `0` when the warmup is simulated
/// (3–4). The fan-out engine lets its broadcast subscriber run on to
/// `pos` (its decode begins at the boundary when every cell of the
/// workload has a restore on file; a cell that then needs an earlier
/// `pos` opens a replay of its own); the sharded engine opens a
/// (seek-positioned) replay. Both engines
/// share this one ladder, so fallback routing — including the
/// fresh-machine rebuild after a half-written overlay restore — cannot
/// diverge between them.
///
/// Damaged files are reported and demoted one rung; a damaged
/// whole-state checkpoint is also deleted, so the store heals instead
/// of re-reporting the same file on every later sweep (the prefix and
/// overlay heal by being overwritten on rungs 3–4). Saves that fail
/// only cost the warm start next time.
pub(crate) fn warm_start_ladder<'w, S, F>(
    workload: &'w PreparedWorkload,
    config: &SimConfig,
    checkpoints: Option<&CheckpointStore>,
    stream_at: F,
) -> (SimRun<'w>, SourceIter<S>)
where
    S: TraceSource,
    F: FnOnce(u64) -> SourceIter<S>,
{
    let cell = |e: &dyn std::fmt::Display, what: &str, next: &str| {
        if trrip_obs::journal_active() {
            trrip_obs::event(
                "artifact_damaged",
                &[
                    ("what", trrip_obs::Field::Str(what)),
                    ("benchmark", trrip_obs::Field::Str(&workload.spec.name)),
                    ("policy", trrip_obs::Field::Str(config.hierarchy.l2_policy.name())),
                    ("error", trrip_obs::Field::Str(&e.to_string())),
                    ("next", trrip_obs::Field::Str(next)),
                ],
            );
        }
        if !trrip_obs::quiet() {
            eprintln!(
                "[trrip] damaged {what} for {} / {}: {e}; {next}",
                workload.spec.name, config.hierarchy.l2_policy
            );
        }
    };
    // Journals which rung warmed this cell (next to the warm.* counters,
    // which carry the same totals without the per-cell attribution).
    let route = |rung: &str| {
        if trrip_obs::journal_active() {
            trrip_obs::event(
                "warm_start",
                &[
                    ("route", trrip_obs::Field::Str(rung)),
                    ("benchmark", trrip_obs::Field::Str(&workload.spec.name)),
                    ("policy", trrip_obs::Field::Str(config.hierarchy.l2_policy.name())),
                ],
            );
        }
    };
    let ff = config.fast_forward;

    let Some(checkpoints) = checkpoints else {
        // No store attached: plain cold warmup, nothing persisted.
        let mut run = SimRun::new(workload, config);
        let mut stream = stream_at(0);
        run.fast_forward(&mut stream);
        warmstats::count_cold_warmup();
        route("cold_warmup");
        return (run, stream);
    };

    // 1. Whole-state checkpoint.
    match checkpoints.load(workload, config) {
        Ok(Some(run)) => {
            warmstats::count_full_restore();
            route("full_restore");
            return (run, stream_at(ff));
        }
        Ok(None) => {}
        Err(e) => {
            cell(&e, "fast-forward checkpoint", "removing it and trying the shared prefix");
            let _ = std::fs::remove_file(checkpoints.path_for(workload, config));
        }
    }

    // 2./3. Shared prefix.
    let prefix = match checkpoints.load_prefix(workload, config) {
        Ok(prefix) => prefix,
        Err(e) => {
            cell(&e, "shared prefix", "warming cold");
            None
        }
    };
    if let Some(prefix) = prefix {
        let mut run = SimRun::new(workload, config);
        prefix.apply(&mut run).expect("keyed shared prefix matches the machine");
        match checkpoints.load_overlay_into(&mut run) {
            Ok(true) => {
                warmstats::count_overlay_restore();
                route("overlay_restore");
                return (run, stream_at(ff));
            }
            Ok(false) => {}
            // Fall through to the tail replay, NOT to a cold warmup —
            // with a fresh machine, since a mid-restore error may have
            // left this one half-written.
            Err(e) => {
                cell(&e, "policy overlay", "replaying the warmup tail");
                run = SimRun::new(workload, config);
                prefix.apply(&mut run).expect("keyed shared prefix matches the machine");
            }
        }
        let mut stream = stream_at(0);
        run.fast_forward_replayed(&mut stream, prefix.tape());
        if let Err(e) = checkpoints.save_overlay(&run) {
            cell(&e, "overlay save", "continuing without it");
        }
        warmstats::count_tail_replay();
        route("tail_replay");
        return (run, stream);
    }

    // 4. Cold, recorded: the warmup this cell pays becomes the shared
    // prefix every other policy (and every later sweep) starts from.
    let mut run = SimRun::new(workload, config);
    let mut stream = stream_at(0);
    let mut tape = WarmupTape::new();
    run.fast_forward_recorded(&mut stream, &mut tape);
    warmstats::count_recorded_warmup();
    route("recorded_warmup");
    if let Err(e) = checkpoints.save_prefix(&run, &tape) {
        cell(&e, "prefix save", "continuing without it");
    }
    if let Err(e) = checkpoints.save_overlay(&run) {
        cell(&e, "overlay save", "continuing without it");
    }
    (run, stream)
}

/// The **shared-warmup pre-pass**: for every workload whose shared
/// prefix is missing, runs one recorded fast-forward under the neutral
/// warmup policy ([`PolicyKind::neutral`]) and persists the prefix plus
/// the recorder's own overlay. After this pass, a populating sweep pays
/// **one** full warmup per workload plus a cheap predictor-free tail
/// replay per remaining policy — instead of `policies.len()` full
/// warmups — which is the entire point of the policy-agnostic split.
///
/// Idempotent and parallel over workloads (`jobs` caps the workers).
///
/// # Panics
///
/// Panics if a trace cannot be captured or replayed.
pub fn ensure_warm_prefixes(
    jobs: usize,
    workloads: &[PreparedWorkload],
    config: &SimConfig,
    traces: &TraceStore,
    checkpoints: &CheckpointStore,
) {
    let _: Vec<()> = parallel_map_with(jobs, workloads.len(), |i| {
        let workload = &workloads[i];
        // The prefix key is policy-free, so probing with the base config
        // answers for every policy of the sweep.
        if matches!(checkpoints.load_prefix(workload, config), Ok(Some(_))) {
            return;
        }
        let path = traces
            .ensure(workload, config)
            .unwrap_or_else(|e| panic!("capturing {}: {e}", workload.spec.name));
        // Synchronous reader on purpose: the recorder consumes only the
        // warmup prefix, and the background decoder would read ahead
        // past it (bounded-channel depth) — wasted decode the sweep
        // repeats anyway.
        let reader = trrip_trace::open(&path)
            .unwrap_or_else(|e| panic!("replaying {}: {e}", path.display()));
        let mut stream = SourceIter::new(reader);
        let neutral = config.clone().with_policy(PolicyKind::neutral());
        let mut run = SimRun::new(workload, &neutral);
        let mut tape = WarmupTape::new();
        run.fast_forward_recorded(&mut stream, &mut tape);
        warmstats::count_recorded_warmup();
        if let Err(e) = checkpoints.save_prefix(&run, &tape) {
            trrip_obs::progress!("prefix save failed for {}: {e}", workload.spec.name);
        }
        if let Err(e) = checkpoints.save_overlay(&run) {
            trrip_obs::progress!(
                "overlay save failed for {} / {}: {e}",
                workload.spec.name,
                PolicyKind::neutral()
            );
        }
    });
}

/// [`replay_sweep_checkpointed`] behind the shared-warmup pre-pass
/// ([`ensure_warm_prefixes`]): the **policy-agnostic warm prefix**
/// engine. On a cold store the populating pass costs one recorded
/// warmup per workload plus per-policy warmup-tail replays (predictor
/// and FDIP-scan work paid once, not `policies.len()` times); on a warm
/// store every cell composes shared prefix + overlay and skips warmup
/// simulation entirely. Bit-identical to every other engine either way.
///
/// # Panics
///
/// As [`replay_sweep`].
#[must_use]
pub fn replay_sweep_warm_prefix(
    jobs: usize,
    workloads: &[PreparedWorkload],
    config: &SimConfig,
    policies: &[PolicyKind],
    store: &TraceStore,
    checkpoints: &CheckpointStore,
) -> SweepResult {
    ensure_warm_prefixes(jobs, workloads, config, store, checkpoints);
    replay_sweep_checkpointed(jobs, workloads, config, policies, store, checkpoints)
}

/// [`replay_sweep`] with **warm-started measurement**: each
/// `(workload, policy)` cell warm-starts by the cheapest valid route —
/// whole-state checkpoint, shared prefix + policy overlay, shared
/// prefix + warmup-tail replay, or a cold *recorded* warmup that
/// persists the prefix and overlay for every later sweep (see
/// [`warm_start_cell`] for the exact ladder). The common case —
/// fig6/fig8/fig9 re-sweeping the same benchmarks — starts warm across
/// process runs; a cold store populated through
/// [`replay_sweep_warm_prefix`] additionally shares one warmup across
/// all policies. A workload whose every cell has a restore on file
/// ([`CheckpointStore::holds_restore`]) is decoded from the chunk
/// holding the fast-forward boundary, not from its first instruction.
///
/// Results are bit-identical to [`replay_sweep`] and [`policy_sweep`]
/// on every route: a checkpoint restores the exact post-fast-forward
/// state and the tail replay re-simulates it exactly (enforced by
/// `tests/checkpoint_roundtrip.rs` and
/// `tests/warm_prefix_equivalence.rs`). Files that fail to load (stale
/// key, corrupt) fall back one rung and are overwritten; files that
/// fail to *save* only cost the warm start next time.
///
/// # Panics
///
/// As [`replay_sweep`].
#[must_use]
pub fn replay_sweep_checkpointed(
    jobs: usize,
    workloads: &[PreparedWorkload],
    config: &SimConfig,
    policies: &[PolicyKind],
    store: &TraceStore,
    checkpoints: &CheckpointStore,
) -> SweepResult {
    // Where every cell is going to restore, nobody reads the warm-up:
    // the decode begins at the boundary. What the store holds is judged
    // by file names alone — a file that then fails to load sends that
    // one cell down the ladder and to a decode of its own.
    let warm_start = |workload: &PreparedWorkload| {
        let restores = policies.iter().all(|&policy| {
            checkpoints.holds_restore(workload, &config.clone().with_policy(policy))
        });
        if restores {
            config.fast_forward
        } else {
            0
        }
    };
    fanout_sweep(jobs, workloads, config, policies, store, warm_start, |cell| {
        let FanoutCell { workload, config, trace, subscriber } = cell;
        let (mut run, mut stream) = warm_start_ladder(workload, config, Some(checkpoints), |pos| {
            let origin = subscriber.origin();
            if pos >= origin {
                // The broadcast subscriber cannot seek: letting decoded
                // instructions go by is how this engine "positions" the
                // stream — less than a chunk of them when the fan-out
                // began at the boundary.
                let mut stream = SourceIter::new(Box::new(subscriber) as Box<dyn TraceSource>);
                stream.advance(pos - origin);
                stream
            } else {
                drop(subscriber);
                let own = StreamingReplay::open_at(trace, pos)
                    .unwrap_or_else(|e| panic!("replaying {}: {e}", trace.display()));
                SourceIter::new(Box::new(own) as Box<dyn TraceSource>)
            }
        });
        run.measure(&mut stream)
    })
}

/// The legacy decode-per-job replay engine: shards `(workload, policy)`
/// jobs across workers, each opening its own
/// [`trrip_trace::StreamingReplay`] — the trace is re-read and
/// re-decoded once per job. Kept as the measured baseline for the
/// fan-out bench and as an independent oracle in equivalence tests;
/// sweeps should use [`replay_sweep`].
///
/// # Panics
///
/// As [`replay_sweep`].
#[must_use]
pub fn replay_sweep_isolated(
    workloads: &[PreparedWorkload],
    config: &SimConfig,
    policies: &[PolicyKind],
    store: &TraceStore,
) -> SweepResult {
    let paths: Vec<PathBuf> = parallel_map(workloads.len(), |i| {
        store
            .ensure(&workloads[i], config)
            .unwrap_or_else(|e| panic!("capturing {}: {e}", workloads[i].spec.name))
    });

    let pairs: Vec<(usize, usize)> =
        (0..workloads.len()).flat_map(|w| (0..policies.len()).map(move |p| (w, p))).collect();
    let results = parallel_map(pairs.len(), |i| {
        let (wi, pi) = pairs[i];
        let run_config = config.clone().with_policy(policies[pi]);
        let replay = trrip_trace::StreamingReplay::open(&paths[wi])
            .unwrap_or_else(|e| panic!("replaying {}: {e}", paths[wi].display()));
        simulate_source(&workloads[wi], &run_config, replay)
    });

    SweepResult {
        results,
        policies: policies.to_vec(),
        benchmarks: workloads.iter().map(|w| w.spec.name.clone()).collect(),
    }
}

/// Speedup in percent of `cycles` against `baseline_cycles`.
#[must_use]
pub fn speedup_vs(baseline_cycles: f64, cycles: f64) -> f64 {
    (baseline_cycles / cycles - 1.0) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::simulate;
    use trrip_core::ClassifierConfig;
    use trrip_cpu::TraceInstr;
    use trrip_workloads::WorkloadSpec;

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
        let policies = [PolicyKind::Srrip, PolicyKind::Trrip1];
        let sweep = policy_sweep(&workloads, &config, &policies);
        assert_eq!(sweep.results.len(), 4);
        assert_eq!(sweep.get("wa", PolicyKind::Srrip).policy, PolicyKind::Srrip);
        assert_eq!(sweep.get("wb", PolicyKind::Trrip1).benchmark, "wb");
    }

    #[test]
    fn parallel_sweep_matches_serial_run() {
        let workloads = vec![tiny_workload("wx")];
        let mut config = SimConfig::quick(PolicyKind::Srrip);
        config.instructions = 80_000;
        config.fast_forward = 8_000;
        let sweep = policy_sweep(&workloads, &config, &[PolicyKind::Clip]);
        let serial = simulate(&workloads[0], &config.clone().with_policy(PolicyKind::Clip));
        let from_sweep = sweep.get("wx", PolicyKind::Clip);
        assert_eq!(from_sweep.core.cycles, serial.core.cycles);
        assert_eq!(from_sweep.l2, serial.l2);
    }

    #[test]
    fn teams_give_every_cell_to_exactly_one_worker() {
        for workloads in 1..=7 {
            for policies in 1..=5 {
                for jobs in 1..=12 {
                    let workers = jobs.min(workloads * policies);
                    let teams = deal_teams(workloads, policies, workers);
                    assert_eq!(teams.len(), workloads);
                    let mut owners = vec![0; workloads * policies];
                    for (wi, team) in teams.iter().enumerate() {
                        assert!((1..=policies).contains(&team.members));
                        for member in (0..workers).filter_map(|worker| team.member(worker)) {
                            for pi in (member..policies).step_by(team.members) {
                                owners[wi * policies + pi] += 1;
                            }
                        }
                    }
                    assert!(
                        owners.iter().all(|&n| n == 1),
                        "{workloads} workloads x {policies} policies on {workers} workers: {owners:?}"
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
        use trrip_trace::source::VecSource;
        let workloads = vec![tiny_workload("wv")];
        let mut config = SimConfig::quick(PolicyKind::Srrip);
        config.instructions = 60_000;
        config.fast_forward = 7_000;
        let policies = [PolicyKind::Srrip, PolicyKind::Drrip, PolicyKind::Trrip1];
        let object = workloads[0].object(config.layout);
        let spec = &workloads[0].spec;
        let full: Vec<TraceInstr> =
            TraceGenerator::new(&workloads[0].program, object, spec, InputSet::Eval)
                .take(67_000)
                .collect();
        for length in [67_000, 41_234] {
            let stream = &full[..length];
            let sweep = push_sweep(2, &workloads, &config, &policies, |_| {
                VecSource::new(stream.to_vec(), 1_000)
            });
            for (cell, &policy) in sweep.results.iter().zip(&policies) {
                let pulled = simulate_source(
                    &workloads[0],
                    &config.clone().with_policy(policy),
                    VecSource::new(stream.to_vec(), 1_000),
                );
                assert_eq!(cell.core, pulled.core, "{policy} over {length} instructions");
                assert_eq!(cell.l2, pulled.l2, "{policy} over {length} instructions");
                assert_eq!(cell.tlb, pulled.tlb, "{policy} over {length} instructions");
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
        let workloads = vec![tiny_workload("wp")];
        let mut config = SimConfig::quick(PolicyKind::Srrip);
        config.instructions = 200_000;
        config.fast_forward = 0;
        let policies = [PolicyKind::Srrip, PolicyKind::Lru, PolicyKind::Clip];
        let _ = push_sweep(3, &workloads, &config, &policies, |_| Breaks(0));
    }

    #[test]
    fn speedup_sign_convention() {
        assert!((speedup_vs(110.0, 100.0) - 10.0).abs() < 1e-9);
        assert!(speedup_vs(100.0, 110.0) < 0.0);
    }
}
