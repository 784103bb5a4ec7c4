//! One full simulation run, as an explicit phase machine:
//! **load → fast-forward → (checkpoint) → measure → collect**.
//!
//! [`SimRun`] holds the whole machine (core + backend) between phases.
//! The checkpoint phase is optional and caller-driven: after
//! [`SimRun::fast_forward`] the complete architectural state can be
//! saved with [`SimRun::save`] and later restored into a freshly loaded
//! [`SimRun`] with [`SimRun::restore`], making the warmed state
//! reusable across runs and processes (see [`crate::checkpoint`]).
//! [`simulate_source`] is the plain load → fast-forward → measure
//! composition.
//!
//! The two simulated phases can be driven from either side, fixed when
//! the run is loaded. **Pull** ([`SimRun::new`]): the run takes what it
//! needs from a [`SourceIter`] ([`SimRun::fast_forward`],
//! [`SimRun::measure`]) — one cell owns one stream and runs the whole
//! core over it ([`Core::run_batch`]); this is
//! the one-cell path behind [`simulate_source`] — cheaper than the push
//! side for a row of one cell, which has nobody to share a frontend with
//! — and the oracle every sweep is held to; no sweep runs its cells on
//! it.
//! **Push** ([`SimRun::cell`]): a [`Frontend`]
//! runs the policy-independent half of the machine over the stream once —
//! branch prediction, the FDIP scan, fetch-line tracking, and, through a
//! [`StreamView`] per page size, demand page allocation and stride
//! prefetcher training — and writes what it decided as [`StreamTurn`]s:
//! event records ([`EventTurn`]) with a column per view beside them. The
//! caller hands those to as many runs as it likes, each of which runs
//! only the policy-dependent half ([`Core::execute`]) over its own TLB,
//! loaded image and hierarchy, reading its page size's column — to a
//! **group** of runs at once ([`SimRun::push_group`]), which take the
//! turn in lockstep, one read of it driving them all, each in its own
//! phase: warming until [`SimRun::begin_measure`], measuring after. One
//! run alone is a group of one. Turns may be cut anywhere, an empty one
//! included, and `last = true` with the turn that completes a phase
//! closes it as the pull side does. That is how [`crate::policy_sweep_with`]
//! walks and predicts a workload's stream once and decodes each turn
//! once per worker. The two sides are bit-identical
//! wherever the stream is cut and however the runs are grouped
//! (`tests/walk_once_equivalence.rs`).
//!
//! Each side has exactly one way to warm a machine up — the fused loop
//! behind [`SimRun::fast_forward`], the event loop behind
//! [`SimRun::push_group`] — and both leave the same
//! policy-dependent boundary state behind ([`SimRun::save_overlay`]);
//! the policy-agnostic rest — the predictor, the stream views, and where
//! the walker stands — is the [`Frontend`]'s, handed out by
//! [`Frontend::take_shared_warmup`]. A pulled run owns one stream view
//! from load and resolves through it inline, through the same code a
//! frontend's views resolve a turn with; a cell owns none. There is no
//! other way to resolve, and no switch between the two.

use serde::{Deserialize, Serialize};
use trrip_analysis::{CostlyMissTracker, ReuseHistogram};
use trrip_cache::{AccessStats, Hierarchy};
use trrip_cpu::backend::{FlatBackend, MemoryBackend};
use trrip_cpu::{BranchPredictor, Core, CoreResult, EventTurn, RunState, TraceInstr};
use trrip_os::{Loader, Mmu, PageStats, TlbStats};
use trrip_policies::PolicyKind;
use trrip_snap::{SnapError, SnapReader, SnapWriter, Snapshot};
use trrip_trace::{SourceIter, TraceSource};
use trrip_workloads::{TraceGenerator, WalkerState};

use crate::backend::SystemBackend;
use crate::checkpoint::SharedWarmup;
use crate::config::SimConfig;
use crate::prepare::PreparedWorkload;
use crate::view::{view_page_sizes, StreamTurn, StreamView};

/// Results of one run (one benchmark × one configuration). Two runs
/// agree when their results are equal (`==`), every field of them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimResult {
    /// Benchmark name.
    pub benchmark: String,
    /// The L2 policy that ran.
    pub policy: PolicyKind,
    /// Core timing and Top-Down buckets.
    pub core: CoreResult,
    /// L1-I statistics.
    pub l1i: AccessStats,
    /// L1-D statistics.
    pub l1d: AccessStats,
    /// L2 statistics (the paper's MPKI source).
    pub l2: AccessStats,
    /// SLC statistics.
    pub slc: AccessStats,
    /// TLB statistics.
    pub tlb: TlbStats,
    /// Loader page statistics (Table 5).
    pub pages: PageStats,
    /// Figure 3 base histogram, if measured.
    pub reuse_base: Option<ReuseHistogram>,
    /// Figure 3 hot-only ("~") histogram, if measured.
    pub reuse_hot_only: Option<ReuseHistogram>,
    /// Figure 7 costly-miss tracker, if measured.
    #[serde(skip)]
    pub costly: Option<CostlyMissTracker>,
}

impl SimResult {
    /// L2 instruction MPKI over the measured instructions.
    #[must_use]
    pub fn l2_inst_mpki(&self) -> f64 {
        self.l2.inst_mpki(self.core.instructions)
    }

    /// L2 data MPKI over the measured instructions.
    #[must_use]
    pub fn l2_data_mpki(&self) -> f64 {
        self.l2.data_mpki(self.core.instructions)
    }

    /// Total cycles.
    #[must_use]
    pub fn cycles(&self) -> f64 {
        self.core.cycles
    }

    /// Speedup of this run relative to a baseline run of the same
    /// benchmark, in percent (the Figure 6 metric: cycle reduction for a
    /// fixed instruction count).
    #[must_use]
    pub fn speedup_vs(&self, baseline: &SimResult) -> f64 {
        (baseline.cycles() / self.cycles() - 1.0) * 100.0
    }

    /// Reduction of L2 instruction MPKI vs a baseline, in percent
    /// (positive = fewer misses; the Table 3 metric).
    #[must_use]
    pub fn inst_mpki_reduction_vs(&self, baseline: &SimResult) -> f64 {
        let base = baseline.l2_inst_mpki();
        if base == 0.0 {
            return 0.0;
        }
        (1.0 - self.l2_inst_mpki() / base) * 100.0
    }

    /// Reduction of L2 data MPKI vs a baseline, in percent.
    #[must_use]
    pub fn data_mpki_reduction_vs(&self, baseline: &SimResult) -> f64 {
        let base = baseline.l2_data_mpki();
        if base == 0.0 {
            return 0.0;
        }
        (1.0 - self.l2_data_mpki() / base) * 100.0
    }
}

/// Runs one benchmark under one configuration, generating the trace
/// in-memory with the CFG walker (the classic path; equivalent to
/// [`simulate_source`] over the walker).
#[must_use]
pub fn simulate(workload: &PreparedWorkload, config: &SimConfig) -> SimResult {
    simulate_source(workload, config, crate::capture::eval_walker(workload, config))
}

/// Runs one benchmark under one configuration over any [`TraceSource`] —
/// the in-memory walker or an on-disk trace captured earlier. The source
/// must deliver `fast_forward + instructions` instructions of the
/// workload's eval input under `config.layout` (the layout determines
/// every PC); [`crate::capture_trace`] writes exactly that stream, which
/// is what makes disk replay bit-identical to in-memory generation.
#[must_use]
pub fn simulate_source<S: TraceSource>(
    workload: &PreparedWorkload,
    config: &SimConfig,
    source: S,
) -> SimResult {
    let mut run = SimRun::new(workload, config);
    let mut stream = SourceIter::new(source);
    run.fast_forward(&mut stream);
    run.measure(&mut stream)
}

/// The policy-independent half of a run, for the push side: pulls a
/// source's `fast_forward + instructions` instructions through a core
/// whose backend always hits — so the branch predictor trains and the
/// FDIP scan runs exactly as in any cell, neither ever seeing a cache
/// latency — and writes each stretch down as an [`EventTurn`]
/// ([`Core::digest_batch`]), which its stream views — one per page size
/// among the row's cells — resolve into a column each beside it
/// ([`StreamTurn`]): the physical address of every memory operand (and
/// of every demand fetch off the loaded image), and the stride proposals
/// of every load. The digesting core drains its lookahead window and
/// starts a fresh run at the fast-forward boundary, as a cell's does, so
/// a turn never spans the two phases and the turns of a phase cover
/// exactly its instructions.
///
/// Its predictor and views at that boundary are the whole
/// policy-agnostic half of a checkpoint. A frontend that digested the
/// warm-up over the walker hands them out, once, as a [`SharedWarmup`]
/// beside the walker's position there
/// ([`Frontend::take_shared_warmup`]); a frontend built from one
/// ([`Frontend::resume`]) starts *at* the boundary, over a source
/// positioned there, with nothing of the warm-up left to pull.
#[derive(Debug)]
pub struct Frontend<S> {
    stream: SourceIter<S>,
    core: Core<FlatBackend>,
    /// One per page size among the row's cells, smallest first
    /// ([`view_page_sizes`]).
    views: Vec<StreamView>,
    state: RunState,
    /// The stream position of the first turn.
    start: u64,
    /// Instructions still to pull: of the fast-forward phase, then of
    /// the measure phase.
    left: [u64; 2],
    digested: u64,
    /// A warm-up is being digested, or was and its boundary state has
    /// not been handed out yet.
    prefix_due: bool,
}

impl<S: TraceSource> Frontend<S> {
    /// A frontend for a row of `cells` — runs of `workload` that share a
    /// stream, so agree on what a frontend reads — over `source`, from
    /// the stream's first instruction, with a stream view per page size
    /// among the cells.
    ///
    /// # Panics
    ///
    /// Panics if `cells` is empty.
    #[must_use]
    pub fn new(workload: &PreparedWorkload, cells: &[SimConfig], source: S) -> Frontend<S> {
        let config = cells.first().expect("a frontend serves at least one cell");
        let core = Core::new(config.core, FlatBackend::all_hits());
        let object = workload.object(config.layout);
        let views =
            view_page_sizes(cells).into_iter().map(|size| StreamView::new(object, size)).collect();
        Frontend {
            stream: SourceIter::new(source),
            state: core.begin_run(),
            core,
            views,
            start: 0,
            left: [config.fast_forward, config.instructions],
            digested: 0,
            prefix_due: config.fast_forward > 0,
        }
    }

    /// A frontend for the row of `cells` that starts at the
    /// fast-forward boundary: its predictor and its stream views are
    /// `warmup`'s, and `source` must deliver the stream from instruction
    /// `fast_forward` on.
    ///
    /// # Errors
    ///
    /// Snapshot shape or codec errors in the shared section, and views
    /// of other page sizes than the row's.
    pub fn resume(
        workload: &PreparedWorkload,
        cells: &[SimConfig],
        source: S,
        warmup: &SharedWarmup,
    ) -> Result<Frontend<S>, SnapError> {
        let mut frontend = Frontend::new(workload, cells, source);
        let mut r = SnapReader::new(warmup.shared());
        restore_shared_section(&mut frontend.core, &mut frontend.views, &mut r)?;
        r.finish()?;
        frontend.start = cells[0].fast_forward;
        frontend.left[0] = 0;
        frontend.prefix_due = false;
        Ok(frontend)
    }

    /// The stream position of the first turn: 0, or the fast-forward
    /// boundary after [`Frontend::resume`].
    #[must_use]
    pub fn start(&self) -> u64 {
        self.start
    }

    /// Digests up to `limit` further instructions into `turn` (cleared
    /// first), stopping at the phase boundary, and resolves its records
    /// through every stream view. The core looks ahead of what it
    /// processes, so a turn covers the instructions pulled less those
    /// still in its lookahead window — possibly none — until the turn
    /// that reaches the end of the phase or of the stream, which covers
    /// them all. Returns whether anything is left to digest.
    pub fn digest(&mut self, limit: usize, turn: &mut StreamTurn) -> bool {
        let events = turn.events_mut();
        events.clear();
        let phase = usize::from(self.left[0] == 0);
        let mut want = self.left[phase].min(limit as u64) as usize;
        let mut dry = false;
        while want > 0 && !dry {
            let slice = self.stream.next_slice(want);
            dry = slice.is_empty();
            want -= slice.len();
            self.left[phase] -= slice.len() as u64;
            self.core.digest_batch(&mut self.state, slice, false, events);
        }
        if self.left[phase] == 0 || dry {
            self.core.digest_batch(&mut self.state, &[], true, events);
            self.state = self.core.begin_run();
        }
        if dry {
            // A warm-up cut short is no prefix.
            self.left = [0, 0];
            self.prefix_due = false;
        }
        turn.resolve(&mut self.views);
        self.digested += turn.instructions();
        self.left != [0, 0]
    }
}

impl<S: Resumable> Frontend<S> {
    /// The policy-agnostic warm prefix — this frontend's predictor and
    /// stream views at the boundary, exactly as a fast-forward of any
    /// pulled cell leaves its own, and its source's position there: what
    /// it would hand out next, counting what this frontend pulled and has
    /// not digested, is instruction `fast_forward`. `Some` once, after
    /// the turn that completed the warm-up; never after
    /// [`Frontend::resume`], nor if the stream ended inside the warm-up.
    pub fn take_shared_warmup(&mut self) -> Option<SharedWarmup> {
        if self.left[0] > 0 || !self.prefix_due {
            return None;
        }
        self.prefix_due = false;
        let mut shared = SnapWriter::new();
        save_shared_section(&self.core, &self.views.iter().collect::<Vec<_>>(), &mut shared);
        let walker = self.stream.source().position(self.stream.unread());
        Some(SharedWarmup::new(shared.into_bytes(), walker))
    }
}

/// A source whose position a shared prefix keeps beside the predictor:
/// the walker, which carries on from it ([`TraceGenerator::resume`]).
pub trait Resumable: TraceSource {
    /// Where the source stands, as if `unread` — the last instructions it
    /// handed out, which nobody has consumed — had not been handed out.
    fn position(&self, unread: &[TraceInstr]) -> WalkerState;
}

impl Resumable for TraceGenerator<'_> {
    fn position(&self, unread: &[TraceInstr]) -> WalkerState {
        self.state(unread)
    }
}

impl<S> Drop for Frontend<S> {
    /// Published once, like the walker's counters: a sweep moves
    /// `front.digest.instrs` by one stream's length per workload.
    fn drop(&mut self) {
        trrip_obs::counter!("front.digest.instrs").add(self.digested);
    }
}

/// One simulation in flight, between phases.
///
/// The phases, in order:
///
/// 1. **load** — [`SimRun::new`] or [`SimRun::cell`]: loader maps the
///    object (pages + PTEs with temperature bits), the hierarchy and
///    core are built cold. A run that pulls its stream ([`SimRun::new`])
///    resolves what the stream alone decides through a [`StreamView`]
///    of its own; a cell, which is pushed turns, reads it from their
///    columns.
/// 2. **fast-forward** — [`SimRun::fast_forward`]: warms caches and
///    predictors; no statistics are reported from this phase.
/// 3. **checkpoint** *(optional)* — [`SimRun::save`] captures the full
///    architectural state; [`SimRun::restore`] loads it into a freshly
///    constructed run, replacing the fast-forward phase entirely.
/// 4. **measure** — [`SimRun::measure`] (pushed: [`SimRun::begin_measure`],
///    [`SimRun::push_group`], [`SimRun::finish`]): statistics reset, then
///    the measured window executes and [`SimResult`] is collected.
///
/// A restored run is bit-identical to one that executed fast-forward
/// itself — enforced by `tests/checkpoint_roundtrip.rs`.
#[derive(Debug)]
pub struct SimRun<'w> {
    workload: &'w PreparedWorkload,
    config: SimConfig,
    pages: PageStats,
    core: Core<SystemBackend>,
    /// In-flight state of a *pushed* fast-forward (present between the
    /// first [`SimRun::push_group`] of the warm-up and the closing one).
    /// The pull-mode warmup runs in one call and never parks its state.
    warming: Option<RunState>,
    /// In-flight measure-phase state (present between `begin_measure`
    /// and `finish`).
    measuring: Option<RunState>,
}

impl<'w> SimRun<'w> {
    /// **Load phase** of a run that pulls its own stream: maps the
    /// object and builds the cold machine, with a stream view at the
    /// stream's first instruction.
    #[must_use]
    pub fn new(workload: &'w PreparedWorkload, config: &SimConfig) -> SimRun<'w> {
        SimRun::load(workload, config, true)
    }

    /// **Load phase** of a sweep's cell: the cold machine, with no
    /// stream view. It is pushed turns ([`SimRun::push_group`]) or
    /// restored from its overlay, and never pulls; its branch predictor
    /// is never consulted or trained (a [`Frontend`]'s is), so its state
    /// is not the whole machine's and cannot be checkpointed whole.
    #[must_use]
    pub fn cell(workload: &'w PreparedWorkload, config: &SimConfig) -> SimRun<'w> {
        SimRun::load(workload, config, false)
    }

    fn load(workload: &'w PreparedWorkload, config: &SimConfig, pulls: bool) -> SimRun<'w> {
        let _span = trrip_obs::span!("load");
        let object = workload.object(config.layout);

        // ⑥–⑧ Load: pages + PTEs (with temperature bits under PGO).
        let loader = Loader::new(config.page_size).with_overlap_policy(config.overlap);
        let image = loader.load(object);
        let pages = image.stats;
        let mmu = Mmu::new(&image.page_table);

        // ⑨–⑪ the machine itself.
        let hierarchy = Hierarchy::new(&config.hierarchy);
        let view = pulls.then(|| StreamView::new(object, config.page_size));
        let backend = SystemBackend::new(mmu, hierarchy, object, view);
        let core = Core::new(config.core, backend);
        SimRun { workload, config: config.clone(), pages, core, warming: None, measuring: None }
    }

    /// The configuration this run executes.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The workload this run executes.
    #[must_use]
    pub fn workload(&self) -> &'w PreparedWorkload {
        self.workload
    }

    /// This run's own branch predictor: trained by the pull side, never
    /// touched by the push side (a [`Frontend`]'s is, once for every
    /// run it feeds).
    #[must_use]
    pub fn predictor(&self) -> &BranchPredictor {
        self.core.predictor()
    }

    /// Whether the measure phase has started (the run carries in-flight
    /// [`RunState`]).
    #[must_use]
    pub fn is_measuring(&self) -> bool {
        self.measuring.is_some()
    }

    /// **Fast-forward phase**: warms caches and predictors with the
    /// stream's first `fast_forward` instructions.
    pub fn fast_forward<S: TraceSource>(&mut self, stream: &mut SourceIter<S>) {
        assert!(self.measuring.is_none(), "fast-forward after measurement started");
        if self.config.fast_forward > 0 {
            let _span = trrip_obs::span!("fast_forward");
            let mut state = self.core.begin_run();
            self.run_batches(&mut state, stream, self.config.fast_forward);
            self.core.backend_mut().flush_fastpath_counters();
        }
    }

    /// One whole phase on the pull side: feeds up to `limit` instructions
    /// from `stream` to the core via the slice entry point
    /// ([`Core::run_batch`]) — each decoded source batch flows through as
    /// one contiguous slice — and drains the lookahead window. The run
    /// resolves what the stream decides through its own view.
    ///
    /// # Panics
    ///
    /// Panics if the run is a cell ([`SimRun::cell`]).
    fn run_batches<S: TraceSource>(
        &mut self,
        state: &mut RunState,
        stream: &mut SourceIter<S>,
        limit: u64,
    ) {
        assert!(self.core.backend().view().is_some(), "a cell has no stream view to pull through");
        let mut remaining = limit as usize;
        while remaining > 0 {
            let batch = stream.next_slice(remaining);
            if batch.is_empty() {
                break;
            }
            remaining -= batch.len();
            self.core.run_batch(state, batch, false);
        }
        // The empty final batch is the window flush.
        self.core.run_batch(state, &[], true);
    }

    /// **Pushed**: runs the next turn on every run of `group`, in
    /// lockstep, in the run's own phase — the warm-up until
    /// [`SimRun::begin_measure`], the measure window after — as a
    /// [`Frontend`] digested it. The turns of all calls of a phase
    /// together must cover its instructions, cut anywhere; pass
    /// `last = true` with the turn that completes them (an empty one will
    /// do), which closes the phase exactly as the pull side does. With
    /// `fast_forward == 0` there is no warm-up to push: go straight to
    /// [`SimRun::begin_measure`]. After the measure window, collect each
    /// run with [`SimRun::finish`]; the result's branch counts are the
    /// frontend's, carried by the turns.
    ///
    /// The runs of one workload that a sweep's worker holds — same
    /// stream, same core, a machine each — take the turn in lockstep
    /// ([`Core::execute`]), which reads it once for all of them. Each
    /// run ends up exactly where pushing the turn to it in a group of
    /// one would leave it.
    ///
    /// # Panics
    ///
    /// Panics if the turns overrun the phase of any run of the group; if
    /// its runs are not all in the same phase, or not all at the same
    /// point of it; if one of them pulls its own stream ([`SimRun::new`]).
    pub fn push_group(group: &mut [&mut SimRun<'_>], turn: &StreamTurn, last: bool) {
        let measuring = group.first().is_some_and(|run| run.is_measuring());
        let mut machines = Vec::with_capacity(group.len());
        for run in group.iter_mut() {
            let run = &mut **run;
            assert_eq!(run.is_measuring(), measuring, "the runs of a group are in one phase");
            let (state, bound, overrun) = if measuring {
                (&run.measuring, run.config.instructions, "pushed past the measure window")
            } else {
                (&run.warming, run.config.fast_forward, "pushed past the fast-forward boundary")
            };
            let consumed = state.as_ref().map_or(0, RunState::consumed);
            assert!(consumed + turn.instructions() <= bound, "{overrun}");
            run.feed(turn);
            let state = if measuring {
                run.measuring.as_mut().expect("checked above")
            } else {
                run.warming.get_or_insert_with(|| run.core.begin_run())
            };
            machines.push((&mut run.core, state));
        }
        execute_counted(&mut machines, turn.events());
        for run in group {
            run.core.backend_mut().unfeed();
            if last {
                run.warming = None;
                run.core.backend_mut().flush_fastpath_counters();
            }
        }
    }

    /// Hands the machine the column of its page size of `turn`, for the
    /// turn's execution.
    fn feed(&mut self, turn: &StreamTurn) {
        let page_size = self.config.page_size;
        let column = turn.column(page_size).cloned().unwrap_or_else(|| {
            assert!(
                turn.events().events().is_empty(),
                "the turn holds no column for {page_size} pages"
            );
            Default::default()
        });
        self.core.backend_mut().feed(column);
    }

    /// **Measure phase**, uninterrupted: arms measurement, runs the
    /// configured instruction window, and collects the result.
    pub fn measure<S: TraceSource>(&mut self, stream: &mut SourceIter<S>) -> SimResult {
        self.begin_measure();
        let mut state = self.measuring.take().expect("begun above");
        {
            let _span = trrip_obs::span!("measure");
            self.run_batches(&mut state, stream, self.config.instructions);
        }
        self.measuring = Some(state);
        self.finish()
    }

    /// Starts the measure phase: resets statistics accumulated during
    /// fast-forward and arms the configured profilers.
    pub fn begin_measure(&mut self) {
        assert!(self.measuring.is_none(), "measurement already started");
        assert!(self.warming.is_none(), "a pushed fast-forward was not closed");
        self.core
            .backend_mut()
            .arm_measurement(self.config.measure_reuse, self.config.track_costly);
        self.measuring = Some(self.core.begin_run());
    }

    /// Ends the measure phase and collects the [`SimResult`].
    pub fn finish(&mut self) -> SimResult {
        let state = self.measuring.take().expect("begin_measure first");
        let result = self.core.finish_run(state);
        let backend = self.core.backend_mut();
        backend.flush_fastpath_counters();
        let reuse = backend.take_reuse();
        let costly = backend.take_costly();
        let h: &Hierarchy = backend.hierarchy();
        SimResult {
            benchmark: self.workload.spec.name.clone(),
            policy: self.config.hierarchy.l2_policy,
            core: result,
            l1i: *h.l1i().stats(),
            l1d: *h.l1d().stats(),
            l2: *h.l2().stats(),
            slc: *h.slc().stats(),
            tlb: backend.mmu().tlb_stats(),
            pages: self.pages,
            reuse_base: reuse.as_ref().map(|r| *r.base()),
            reuse_hot_only: reuse.as_ref().map(|r| *r.hot_only()),
            costly,
        }
    }
}

impl SimRun<'_> {
    /// Saves the **policy-dependent** half of a fast-forward state: the
    /// starvation FIFO plus the memory system the policy shapes (the TLB,
    /// every cache level with its per-set policy state — tag/RRPV arrays,
    /// PSEL counters, SHiP's table — and the in-flight tracker), all of
    /// which couple to fetch latencies the L2 policy shapes. The other
    /// half is what evolves as a function of the instruction stream
    /// alone: the branch predictor and the stream view (frames and the
    /// stride table); a sweep's [`Frontend`] holds both
    /// ([`Frontend::take_shared_warmup`]). Together the two are exactly
    /// the full fast-forward state.
    ///
    /// # Panics
    ///
    /// Panics mid-measure, or between the turns of a pushed fast-forward:
    /// a checkpoint is a fast-forward-boundary state.
    pub fn save_overlay(&self, w: &mut SnapWriter) {
        assert!(!self.is_measuring(), "overlay sections are fast-forward states");
        assert!(self.warming.is_none(), "a pushed fast-forward was not closed");
        w.section(b"OVLY", |w| {
            self.core.save_starved_state(w);
            self.core.backend().save(w);
        });
    }

    /// Restores a section written by [`SimRun::save_overlay`] into a
    /// cell ([`SimRun::cell`]), which then stands at the boundary.
    ///
    /// # Errors
    ///
    /// As [`Snapshot::restore`].
    ///
    /// # Panics
    ///
    /// Panics if the run pulls its own stream: an overlay holds no
    /// stream view to carry on from.
    pub fn restore_overlay(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        assert!(self.core.backend().view().is_none(), "an overlay alone restores into a cell");
        self.restore_overlay_section(r)
    }

    fn restore_overlay_section(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let mut s = r.section(b"OVLY")?;
        self.core.restore_starved_state(&mut s)?;
        self.core.backend_mut().restore(&mut s)?;
        s.finish()
    }
}

/// [`Core::execute`], counted: `exec.turn_records` moves by the records
/// of a turn each time a worker reads it, `exec.cell_records` by those
/// records times the machines they drove — the design as a ratio, which
/// is the size of the groups a sweep formed. Twice per turn, not per
/// record.
fn execute_counted(machines: &mut [(&mut Core<SystemBackend>, &mut RunState)], turn: &EventTurn) {
    Core::execute(machines, turn);
    let records = turn.events().len() as u64;
    if !machines.is_empty() {
        trrip_obs::counter!("exec.turn_records").add(records);
        trrip_obs::counter!("exec.cell_records").add(records * machines.len() as u64);
    }
}

/// The `SHRD` section: what evolves the same whatever the policy — a
/// core's branch predictor, which never sees a cache latency, and the
/// stream views, one per page size, smallest first.
fn save_shared_section<B: MemoryBackend>(
    core: &Core<B>,
    views: &[&StreamView],
    w: &mut SnapWriter,
) {
    w.section(b"SHRD", |w| {
        core.save_predictor_state(w);
        w.usize(views.len());
        for view in views {
            view.save(w);
        }
    });
}

fn restore_shared_section<B: MemoryBackend>(
    core: &mut Core<B>,
    views: &mut [StreamView],
    r: &mut SnapReader<'_>,
) -> Result<(), SnapError> {
    let mut s = r.section(b"SHRD")?;
    core.restore_predictor_state(&mut s)?;
    s.expect_len("stream views", views.len())?;
    for view in views {
        view.restore(&mut s)?;
    }
    s.finish()
}

/// **Checkpoint phase**: the complete architectural state at the
/// fast-forward boundary, as its two halves — the `SHRD` section (the
/// policy-agnostic predictor and the run's stream view, as a
/// [`Frontend`] hands them out) followed by the `OVLY` section
/// ([`SimRun::save_overlay`]: starvation table, TLB, every cache level
/// with per-set policy state and the in-flight prefetch tracker). The checkpoint
/// store keeps the halves in separate files so one shared prefix serves
/// every policy ([`crate::checkpoint`]); that pair is what sweeps keep of
/// the boundary. Between phases no [`RunState`] is in flight and no
/// profiler is armed, so neither is part of it.
impl Snapshot for SimRun<'_> {
    fn save(&self, w: &mut SnapWriter) {
        let view = self.core.backend().view().expect("a pushed run's predictor was never trained");
        save_shared_section(&self.core, &[view], w);
        self.save_overlay(w);
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        assert!(!self.is_measuring(), "a checkpoint restores into a run between phases");
        assert!(
            self.core.backend().view().is_some(),
            "a whole state restores into a run that pulls its own stream, not into a cell"
        );
        let mut view =
            StreamView::new(self.workload.object(self.config.layout), self.config.page_size);
        restore_shared_section(&mut self.core, std::slice::from_mut(&mut view), r)?;
        *self.core.backend_mut().view_mut().expect("checked above") = view;
        self.restore_overlay_section(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trrip_core::ClassifierConfig;
    use trrip_workloads::WorkloadSpec;

    fn quick_workload() -> PreparedWorkload {
        let mut spec = WorkloadSpec::named("sim-test");
        spec.functions = 60;
        spec.hot_rotation = 10;
        PreparedWorkload::prepare(&spec, 150_000, ClassifierConfig::llvm_defaults())
    }

    #[test]
    fn simulation_runs_and_counts_instructions() {
        let w = quick_workload();
        let config = SimConfig::quick(PolicyKind::Srrip);
        let before = trrip_obs::snapshot();
        let r = simulate(&w, &config);
        let moved = trrip_obs::snapshot().since(&before);
        assert_eq!(r.core.instructions, config.instructions);
        assert!(r.core.cycles > 0.0);
        assert!(r.core.ipc() > 0.1 && r.core.ipc() < 6.0, "ipc {}", r.core.ipc());
        assert!(r.l2.demand_accesses() > 0);
        // The L1 fast path is exercised — both sides of it — and takes
        // most accesses.
        let (hits, bails) =
            (moved.get("cache.l1_fastpath_hit"), moved.get("cache.l1_fastpath_bail"));
        assert!(bails > 0, "no L1 fast-path bails recorded");
        assert!(hits > bails, "L1 fast path took {hits} of {} accesses", hits + bails);
    }

    #[test]
    fn same_config_is_deterministic() {
        let w = quick_workload();
        let config = SimConfig::quick(PolicyKind::Trrip1);
        assert!(simulate(&w, &config) == simulate(&w, &config), "two runs of one config differ");
    }

    #[test]
    fn reuse_measurement_produces_histograms() {
        let w = quick_workload();
        let mut config = SimConfig::quick(PolicyKind::Srrip);
        config.measure_reuse = true;
        let r = simulate(&w, &config);
        let base = r.reuse_base.expect("histogram");
        assert!(base.total() > 0, "no hot-line reuse observed");
    }

    #[test]
    fn mpki_metrics_are_consistent() {
        let w = quick_workload();
        let r = simulate(&w, &SimConfig::quick(PolicyKind::Srrip));
        let expect = r.l2.inst_misses as f64 * 1000.0 / r.core.instructions as f64;
        assert!((r.l2_inst_mpki() - expect).abs() < 1e-9);
    }
}
