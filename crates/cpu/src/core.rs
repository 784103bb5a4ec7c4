//! The interval-style timing loop.
//!
//! The core consumes a [`TraceInstr`] stream and charges cycles into
//! Top-Down buckets:
//!
//! * **retire** — `1/width` cycles per instruction (Table 1: 6-wide).
//! * **ifetch** — fetch latency beyond the L1 hit latency whenever the
//!   fetch PC crosses into a new cache line that misses.
//! * **mispred** — the 8-cycle redirect penalty per misprediction.
//! * **mem** — demand-load latency beyond L1, after subtracting the
//!   out-of-order window's hiding capacity (`ROB / width` cycles) and
//!   overlapping concurrent misses (an MLP shadow), as an interval model
//!   does. Stores are fully hidden by the store buffer.
//! * **depend / issue / other** — synthetic per-instruction stalls carried
//!   by the trace (see `trrip-workloads`).
//!
//! Pseudo-FDIP (§4.1): on every fetched line, the core walks the upcoming
//! trace through the *pure* branch-predictor query and prefetches the next
//! distinct instruction lines on the predicted path, stopping at the first
//! branch the predictor would get wrong — beyond it a real FDIP would
//! stream the wrong path, which the paper explicitly does not model.
//!
//! Decode starvation (for Emissary): instruction lines whose demand fetch
//! latency exceeds the starvation threshold are remembered in a bounded
//! table; later requests for those lines carry `caused_starvation`, which
//! the Emissary policy turns into per-line priority bits.
//!
//! Two loops run this model. The **fused** loop ([`Core::run_batch`])
//! takes instructions and does all of the above for one machine. The
//! **event** loop ([`Core::execute`]) takes what a frontend already
//! decided — an [`EventTurn`] — and runs the policy-dependent rest, with
//! no predictor and no lookahead, for a *group* of machines in lockstep:
//! the turn is walked once, event-major, each record driving every
//! machine before the next is read. One machine alone is a group of one
//! in the same loop.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};
use trrip_mem::{VirtAddr, LINE_BYTES};
use trrip_snap::{SnapError, SnapReader, SnapWriter, Snapshot};

use crate::backend::MemoryBackend;
use crate::branch::{BranchPredictor, PredictorConfig};
use crate::events::EventTurn;
use crate::topdown::TopDown;
use crate::trace::{MemOp, TraceInstr};

/// Share of the exposed miss latency paid by a load that overlaps an
/// earlier outstanding miss (queueing/bandwidth serialization).
const MLP_SERIALIZATION: f64 = 4.0;

/// Scratch capacity for FDIP-issued PCs per trigger (the paper machine
/// prefetches at most 2).
const FDIP_ISSUE_CAP: usize = 4;

/// Machines whose clocks [`Core::execute`] keeps on the stack for the
/// length of a turn; a larger group's go to the heap. A sweep's worker
/// holds at most one workload's policies, ten at the most.
const LOCKSTEP_STACK_CLOCKS: usize = 16;

/// How many instructions [`Core::run`] pulls from a generic iterator
/// before handing them to [`Core::run_batch`] as one slice.
/// Large enough to amortize per-batch window bookkeeping, small enough
/// that the staging buffer stays cache-resident (~256 kB).
const STREAM_BATCH: usize = 4096;

/// Core timing parameters (defaults = Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoreConfig {
    /// Dispatch width (instructions per cycle).
    pub dispatch_width: u32,
    /// Reorder-buffer capacity.
    pub rob_entries: u32,
    /// Branch predictor sizing.
    pub predictor: PredictorConfig,
    /// Enable the pseudo-FDIP prefetcher.
    pub fdip: bool,
    /// How many future instructions FDIP may inspect.
    pub fdip_lookahead_instrs: usize,
    /// Maximum distinct lines prefetched per trigger.
    pub fdip_max_lines: usize,
    /// L1 hit latency hidden by the fetch pipeline.
    pub l1_hit_cycles: u64,
    /// Fetch latency at or above which decode is considered starved
    /// (Emissary's signal); defaults to anything beyond an L2 hit.
    pub starvation_threshold: u64,
    /// Core clock in GHz (Table 1: 2 GHz) — used only for reporting.
    pub frequency_ghz: f64,
}

impl CoreConfig {
    /// The paper's configuration.
    #[must_use]
    pub fn paper() -> CoreConfig {
        CoreConfig {
            dispatch_width: 6,
            rob_entries: 128,
            predictor: PredictorConfig::default(),
            fdip: true,
            fdip_lookahead_instrs: 48,
            fdip_max_lines: 2,
            l1_hit_cycles: 3,
            starvation_threshold: 21, // > L1 tag + L2 data (1 + 12)
            frequency_ghz: 2.0,
        }
    }

    /// Cycles of load latency the OoO window can hide for one miss.
    #[must_use]
    pub fn ooo_hide_cycles(&self) -> u64 {
        u64::from(self.rob_entries / self.dispatch_width)
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig::paper()
    }
}

/// Results of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoreResult {
    /// Instructions executed.
    pub instructions: u64,
    /// Total cycles.
    pub cycles: f64,
    /// Cycle attribution.
    pub topdown: TopDown,
    /// Dynamic branches.
    pub branches: u64,
    /// Mispredicted branches.
    pub mispredictions: u64,
    /// Dispatch width the run executed at: the retire bucket is
    /// `instructions / dispatch_width`.
    pub dispatch_width: u32,
}

impl CoreResult {
    /// Instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0.0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles
        }
    }
}

/// Line-number bits one chunk of the starved-line index covers: 2¹⁵
/// lines, 2 MiB of code, a 4 KiB bitmap.
const CHUNK_LINE_BITS: u32 = 15;
const CHUNK_WORDS: usize = 1 << (CHUNK_LINE_BITS - 6);

/// Bounded FIFO set of instruction lines that caused decode starvation
/// (the model of Emissary's L1-side metadata).
///
/// The FIFO is the state; `chunks` indexes it for the membership test
/// every fetch of a new line makes. Code is dense — a program's text is
/// a few megabytes in one or two places — so the index is an exact
/// bitmap over line numbers, in chunks allocated when a line first
/// lands in one: a test is a search of a handful of chunk numbers and
/// one bit, where a hash set of 8 Ki entries is a probe sequence into
/// a table that does not fit the host's L1.
#[derive(Debug, Default)]
struct StarvedLines {
    order: VecDeque<u64>,
    capacity: usize,
    /// `(line >> CHUNK_LINE_BITS, bitmap)`: bit `line % 2¹⁵` is set iff
    /// `line` is in `order`. At most one chunk per line in `order` was
    /// ever added, and none is dropped.
    chunks: Vec<(u64, Box<[u64; CHUNK_WORDS]>)>,
}

impl StarvedLines {
    fn new(capacity: usize) -> StarvedLines {
        StarvedLines { order: VecDeque::new(), capacity, chunks: Vec::new() }
    }

    /// The word of `line`'s bit, if its chunk exists, and the bit.
    #[inline]
    fn bit(&self, line: u64) -> (Option<usize>, usize, u64) {
        let chunk = self.chunks.iter().position(|&(number, _)| number == line >> CHUNK_LINE_BITS);
        (chunk, (line >> 6) as usize % CHUNK_WORDS, 1 << (line & 63))
    }

    #[inline]
    fn contains(&self, line: u64) -> bool {
        let (chunk, word, bit) = self.bit(line);
        chunk.is_some_and(|chunk| self.chunks[chunk].1[word] & bit != 0)
    }

    /// Appends `line` unless it is present (returns `false`), dropping
    /// the oldest line once over capacity.
    fn insert(&mut self, line: u64) -> bool {
        let (chunk, word, bit) = self.bit(line);
        let chunk = chunk.unwrap_or_else(|| {
            self.chunks.push((line >> CHUNK_LINE_BITS, Box::new([0; CHUNK_WORDS])));
            self.chunks.len() - 1
        });
        let bits = &mut self.chunks[chunk].1[word];
        if *bits & bit != 0 {
            return false;
        }
        *bits |= bit;
        self.order.push_back(line);
        if self.order.len() > self.capacity {
            if let Some(old) = self.order.pop_front() {
                let (chunk, word, bit) = self.bit(old);
                self.chunks[chunk.expect("a line in the FIFO has a chunk")].1[word] &= !bit;
            }
        }
        true
    }
}

impl Snapshot for StarvedLines {
    fn save(&self, w: &mut SnapWriter) {
        // The FIFO order is the architectural state; the bitmap is an
        // index over it and is rebuilt on restore.
        w.usize(self.order.len());
        for &line in &self.order {
            w.u64(line);
        }
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let len = r.usize()?;
        if len > self.capacity {
            return Err(SnapError::Mismatch(format!(
                "starved-line table: snapshot has {len} entries, capacity is {}",
                self.capacity
            )));
        }
        self.order.clear();
        self.chunks.clear();
        for _ in 0..len {
            let line = r.u64()?;
            if !self.insert(line) {
                return Err(SnapError::Corrupt(format!("duplicate starved line {line:#x}")));
            }
        }
        Ok(())
    }
}

/// What a memory operand's stall is booked on: one machine's stall
/// buckets, MLP bookkeeping and clock — fields of its [`RunState`] in the
/// fused loop; in [`Core::execute`] the clock is the machine's slot of
/// the turn's local array.
struct Lane<'a> {
    topdown: &'a mut TopDown,
    last_miss_instr: &'a mut Option<u64>,
    clock: &'a mut f64,
}

/// The in-flight state of one timing run:
///
/// * **machine state** — the absolute clock (`cycles`, which backend
///   timeliness reads as *now*), the FDIP lookahead window, the current
///   fetch line, the MLP bookkeeping, and the absolute
///   instruction/stream positions;
/// * **tally** — what [`Core::finish_run`] reports: stall buckets and
///   instruction/branch counts since [`Core::begin_run`].
///
/// [`Core::run`] owns one internally; callers that feed a run piecewise
/// create it with [`Core::begin_run`], feed instruction batches through
/// [`Core::run_batch`] (which leaves the lookahead window intact between
/// calls, so a run cut at any batch boundary is bit-identical to an
/// uninterrupted one) or event turns through [`Core::execute`], and close
/// with [`Core::finish_run`]. It lives for one phase and is never
/// checkpointed: a checkpoint is a state between phases.
#[derive(Debug)]
pub struct RunState {
    cycles: f64,
    /// Cumulative stall buckets since `begin_run`. The `retire` field is
    /// *not* accumulated here — it is derived from the instruction count
    /// at reporting time, so it cannot drift with where a run is cut.
    topdown: TopDown,
    instructions: u64,
    consumed: u64,
    current_line: u64,
    last_miss_instr: Option<u64>,
    window: VecDeque<TraceInstr>,
    branches_before: u64,
    mispred_before: u64,
    /// Branches and mispredictions of the turns [`Core::execute`] ran
    /// since the tally began — resolved by the frontend that digested
    /// them, not by this core's predictor.
    fed_branches: u64,
    fed_mispredictions: u64,
}

impl RunState {
    /// Instructions executed (retired) so far in this run.
    #[must_use]
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Instructions pulled from the input stream so far — execution lags
    /// consumption by the lookahead window.
    #[must_use]
    pub fn consumed(&self) -> u64 {
        self.consumed
    }
}

/// What the fused loop does with its predictor-derived decisions
/// (misprediction outcomes and FDIP stop points) — the only inputs to
/// the loop that come from trained predictor state rather than straight
/// from the instruction stream, and therefore the only ones that are
/// **identical under every cache policy**.
///
/// * [`WarmupMode::Observe`] — the normal loop: the predictor predicts
///   and trains; nothing is written down.
/// * [`WarmupMode::Digest`] — as `Observe`, but every instruction is
///   also written to an [`EventTurn`]: the decisions *and* what of the
///   instruction a backend is shown. Run over a backend that always
///   hits, this is the whole policy-independent half of the loop, paid
///   once per workload by a sweep's frontend.
///
/// The predictor-free counterpart is [`Core::execute`], which runs the
/// event turns a digesting run wrote.
#[derive(Debug)]
pub enum WarmupMode<'t> {
    /// Predict and train normally.
    Observe,
    /// Predict and train normally, writing every instruction's events.
    Digest(&'t mut EventTurn),
}

/// What the fused loop tells a [`WarmupMode`] of each instruction. The
/// loop is compiled once per implementor ([`Core::run_batch_mode`]
/// picks), so `Observe` pays for no recording at all.
trait Recorder {
    /// `instr` was processed. `fdip_pcs` is `Some` if the fetch moved
    /// to its line, with what the FDIP scan from there issued (nothing,
    /// with FDIP off); `mispredicted` is `Some` if it is a branch.
    fn instruction(
        &mut self,
        instr: &TraceInstr,
        fdip_pcs: Option<&[u64]>,
        mispredicted: Option<bool>,
    );
}

/// [`WarmupMode::Observe`].
struct Unrecorded;

impl Recorder for Unrecorded {
    #[inline]
    fn instruction(&mut self, _: &TraceInstr, _: Option<&[u64]>, _: Option<bool>) {}
}

impl Recorder for EventTurn {
    #[inline]
    fn instruction(
        &mut self,
        instr: &TraceInstr,
        fdip_pcs: Option<&[u64]>,
        mispredicted: Option<bool>,
    ) {
        self.record(instr, fdip_pcs, mispredicted);
    }
}

/// The trace-driven core.
///
/// # Example
///
/// ```
/// use trrip_cpu::{Core, CoreConfig, TraceInstr};
/// use trrip_cpu::backend::FlatBackend;
///
/// let trace = (0..600u64).map(|i| TraceInstr::simple(0x1000 + i * 4));
/// let mut core = Core::new(CoreConfig::paper(), FlatBackend::all_hits());
/// let result = core.run(trace);
/// assert_eq!(result.instructions, 600);
/// assert!((result.ipc() - 6.0).abs() < 0.1); // no stalls: full width
/// ```
#[derive(Debug)]
pub struct Core<B> {
    config: CoreConfig,
    backend: B,
    predictor: BranchPredictor,
    starved: StarvedLines,
}

impl<B: MemoryBackend> Core<B> {
    /// Creates a core over a memory backend.
    #[must_use]
    pub fn new(config: CoreConfig, backend: B) -> Core<B> {
        Core {
            predictor: BranchPredictor::new(config.predictor),
            starved: StarvedLines::new(8192),
            config,
            backend,
        }
    }

    /// Access to the backend (e.g. to read cache statistics afterwards).
    #[must_use]
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Mutable access to the backend (e.g. to reset statistics between
    /// fast-forward and measurement).
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.backend
    }

    /// The branch predictor (for misprediction statistics).
    #[must_use]
    pub fn predictor(&self) -> &BranchPredictor {
        &self.predictor
    }

    /// Runs the trace to completion and returns timing results:
    /// [`Core::begin_run`], the stream staged into slices for
    /// [`Core::run_batch`] — one code path owns the timing semantics, and
    /// iterator `next()` dispatch stays out of the per-instruction loop —
    /// the last of them draining, [`Core::finish_run`].
    pub fn run<I>(&mut self, trace: I) -> CoreResult
    where
        I: IntoIterator<Item = TraceInstr>,
    {
        let mut state = self.begin_run();
        let mut stream = trace.into_iter();
        let mut buf: Vec<TraceInstr> = Vec::with_capacity(STREAM_BATCH);
        loop {
            buf.clear();
            buf.extend(stream.by_ref().take(STREAM_BATCH));
            let last = buf.len() < STREAM_BATCH;
            self.run_batch(&mut state, &buf, last);
            if last {
                break;
            }
        }
        self.finish_run(state)
    }

    /// Starts a run: cycles at zero, an empty lookahead window, and the
    /// predictor counters marked for delta reporting.
    #[must_use]
    pub fn begin_run(&self) -> RunState {
        RunState {
            cycles: 0.0,
            topdown: TopDown::default(),
            instructions: 0,
            consumed: 0,
            current_line: u64::MAX,
            last_miss_instr: None,
            window: VecDeque::with_capacity(self.config.fdip_lookahead_instrs.max(1) + 1),
            branches_before: self.predictor.branches(),
            mispred_before: self.predictor.mispredictions(),
            fed_branches: 0,
            fed_mispredictions: 0,
        }
    }

    /// Executes one stretch of a run from an in-memory slice.
    ///
    /// With `drain = false` the partially-consumed lookahead window stays
    /// in `state`, and feeding the rest of the stream through further
    /// calls continues bit-identically to an uninterrupted run, wherever
    /// the batches are cut (a frontend's digest relies on it). The final
    /// call must pass `drain = true` so the window empties exactly as it
    /// does at the end of a trace. The slice form lets the lookahead be
    /// served by pointer arithmetic instead of a `VecDeque` refill/pop
    /// cycle per instruction.
    pub fn run_batch(&mut self, state: &mut RunState, batch: &[TraceInstr], drain: bool) {
        self.run_batch_mode(state, batch, drain, &mut WarmupMode::Observe);
    }

    /// [`Core::run_batch`] with an explicit [`WarmupMode`].
    ///
    /// The steady-state shape: with `drain = false` the last
    /// `min(lookahead, window + batch)` instructions stay unprocessed in
    /// the window (exactly what the incremental refill loop used to
    /// leave), every processed instruction sees the full lookahead, and
    /// carried-over window instructions look ahead *through* the new
    /// batch. With `drain = true` everything is processed with the
    /// naturally shrinking end-of-trace lookahead.
    pub fn run_batch_mode(
        &mut self,
        state: &mut RunState,
        batch: &[TraceInstr],
        drain: bool,
        mode: &mut WarmupMode<'_>,
    ) {
        match mode {
            WarmupMode::Observe => self.run_batch_recorded(state, batch, drain, &mut Unrecorded),
            WarmupMode::Digest(turn) => self.run_batch_recorded(state, batch, drain, *turn),
        }
    }

    fn run_batch_recorded<R: Recorder>(
        &mut self,
        state: &mut RunState,
        batch: &[TraceInstr],
        drain: bool,
        recorder: &mut R,
    ) {
        let lookahead_cap = self.config.fdip_lookahead_instrs.max(1);
        let dispatch_cost = 1.0 / f64::from(self.config.dispatch_width);
        let ooo_hide = self.config.ooo_hide_cycles() as f64;

        state.consumed += batch.len() as u64;
        let total = state.window.len() + batch.len();
        let keep = if drain { 0 } else { lookahead_cap.min(total) };
        let to_process = total - keep;

        // Take the window out so `process_one` can borrow the run state
        // mutably while the lookahead iterators borrow the window/batch.
        let mut window = std::mem::take(&mut state.window);
        let from_window = window.len().min(to_process);
        for j in 0..from_window {
            let instr = window[j];
            let lookahead = window.iter().skip(j + 1).chain(batch.iter()).take(lookahead_cap);
            self.process_one(state, &instr, lookahead, recorder, dispatch_cost, ooo_hide);
        }
        for i in 0..to_process - from_window {
            let instr = batch[i];
            let lookahead = batch[i + 1..].iter().take(lookahead_cap);
            self.process_one(state, &instr, lookahead, recorder, dispatch_cost, ooo_hide);
        }
        window.drain(..from_window);
        window.extend(batch[to_process - from_window..].iter().copied());
        state.window = window;
    }

    /// One instruction through the timing model: fetch (with FDIP over
    /// `lookahead`), branch resolution, memory, synthetic stalls, retire.
    /// The single step shared by the window and batch halves of
    /// [`Core::run_batch_mode`]; `lookahead` must already be capped to
    /// the FDIP window.
    #[inline]
    fn process_one<'a, L, R>(
        &mut self,
        state: &mut RunState,
        instr: &TraceInstr,
        lookahead: L,
        recorder: &mut R,
        dispatch_cost: f64,
        ooo_hide: f64,
    ) where
        L: Iterator<Item = &'a TraceInstr>,
        R: Recorder,
    {
        state.instructions += 1;

        // --- Fetch ---
        let line = instr.pc.raw() / LINE_BYTES;
        let mut issued = [0u64; FDIP_ISSUE_CAP];
        let mut fdip_pcs = None;
        if line != state.current_line {
            state.current_line = line;
            self.fetch_line(&mut state.topdown, &mut state.cycles, instr.pc);
            let n = if self.config.fdip {
                self.issue_fdip(lookahead, line, state.cycles as u64, &mut issued)
            } else {
                0
            };
            fdip_pcs = Some(&issued[..n]);
        }

        // --- Branch resolution ---
        let mut mispredicted = None;
        if let Some(branch) = instr.branch {
            let wrong = self.predictor.observe(instr.pc, &branch);
            mispredicted = Some(wrong);
            if wrong {
                let penalty = self.predictor.mispredict_penalty() as f64;
                state.topdown.mispred += penalty;
                state.cycles += penalty;
            }
        }

        // --- Memory ---
        if let Some(mem) = instr.mem {
            let retired = state.instructions;
            let lane = Lane {
                topdown: &mut state.topdown,
                last_miss_instr: &mut state.last_miss_instr,
                clock: &mut state.cycles,
            };
            self.access_data(lane, retired, instr.pc, mem, ooo_hide);
        }

        // --- Synthetic backend stalls from the workload model ---
        if let Some((class, extra)) = instr.exec_stall {
            let extra = f64::from(extra);
            state.topdown.add_stall(class, extra);
            state.cycles += extra;
        }

        // --- Retire ---
        // The clock advances by the dispatch cost, but the retire
        // *bucket* is not accumulated per instruction: it is derived
        // from the instruction count at reporting time
        // (`Core::tally_run`), so the bucket's value cannot depend
        // on where the run's input was cut.
        state.cycles += dispatch_cost;
        recorder.instruction(instr, fdip_pcs, mispredicted);
    }

    /// The demand fetch of a new line: the starvation flag goes out with
    /// the request, and a miss stalls the frontend for what the fetch
    /// pipeline does not hide. Shared by both timing loops.
    #[inline]
    fn fetch_line(&mut self, topdown: &mut TopDown, clock: &mut f64, pc: VirtAddr) {
        let line = pc.raw() / LINE_BYTES;
        let starved_flag = self.starved.contains(line);
        let lat = self.backend.ifetch(pc, starved_flag, *clock as u64);
        if !lat.l1_hit {
            let stall = lat.cycles.saturating_sub(self.config.l1_hit_cycles) as f64;
            topdown.ifetch += stall;
            *clock += stall;
            if lat.cycles >= self.config.starvation_threshold {
                self.starved.insert(line);
            }
        }
    }

    /// The cycles one memory operand stalls the window for. Stores
    /// drain through the store buffer; loads stall only beyond what the
    /// OoO window and MLP hide: a miss landing within one ROB span of
    /// the previous one overlaps it (memory-level parallelism) and pays
    /// only a serialization share, an independent miss the full exposed
    /// latency. `retired` counts the instruction itself.
    #[inline]
    fn data_stall(
        &mut self,
        last_miss_instr: Option<u64>,
        retired: u64,
        pc: VirtAddr,
        mem: MemOp,
        ooo_hide: f64,
    ) -> f64 {
        let lat = if mem.store {
            self.backend.dwrite(mem.addr, pc)
        } else {
            self.backend.dread(mem.addr, pc)
        };
        if mem.store || lat.l1_hit {
            return 0.0;
        }
        let raw = lat.cycles.saturating_sub(self.config.l1_hit_cycles) as f64;
        let exposed = (raw - ooo_hide).max(0.0);
        let overlapped =
            last_miss_instr.is_some_and(|li| retired - li < u64::from(self.config.rob_entries));
        if overlapped {
            exposed / MLP_SERIALIZATION
        } else {
            exposed
        }
    }

    /// One memory operand: the access and the stall it exposes. Shared
    /// by both timing loops. (The stall is computed apart from its
    /// bookkeeping on purpose: written as one body, the fused loop over
    /// an all-hits backend measured 17 ns/instr against 12 this way.)
    #[inline]
    fn access_data(
        &mut self,
        lane: Lane<'_>,
        retired: u64,
        pc: VirtAddr,
        mem: MemOp,
        ooo_hide: f64,
    ) {
        let stall = self.data_stall(*lane.last_miss_instr, retired, pc, mem, ooo_hide);
        if stall > 0.0 {
            lane.topdown.mem += stall;
            *lane.clock += stall;
            *lane.last_miss_instr = Some(retired);
        }
    }

    /// Runs one event turn through every machine of `group` in
    /// **lockstep**: the predictor-free loop, event-major. The turn is
    /// read once. Each record's event-free run and its fetch,
    /// mispredict, memory and stall flags are decoded and branched on
    /// once for the whole group, and each arm then visits the machines
    /// in turn — so the work of different machines on one record, which
    /// shares nothing, is there for the host to overlap: their clock
    /// additions are independent chains, and one machine's translate →
    /// set → tag loads do not wait for another's.
    ///
    /// For each machine this is exactly the loop it would run alone.
    /// Every record's fetch, prefetches, mispredict penalty, memory
    /// operand and stall go through its own backend and starvation
    /// table in the order the fused loop takes them, and every
    /// instruction — with a record or without — advances its clock by
    /// the dispatch cost, one addition each: a machine performs its own
    /// sequence of `f64` additions in its own order, whatever the group,
    /// so its clock rounds exactly as the fused loop's does. (The clocks
    /// live in a local array for the length of the turn; a small group's
    /// stays on the stack.) The predictor is neither consulted nor
    /// trained and no lookahead window is kept: the frontend that
    /// digested the turn ([`WarmupMode::Digest`]) did both.
    ///
    /// Turns of one run may be cut anywhere; a run takes either turns or
    /// instructions, not both. A group of one is a machine run alone; an
    /// empty group does nothing.
    ///
    /// # Panics
    ///
    /// Panics if a state holds instructions of a fused run in flight, or
    /// if the machines are not at the same retired-instruction count
    /// under the same [`CoreConfig`] — the position and the timing
    /// constants are read once for all of them.
    pub fn execute(group: &mut [(&mut Core<B>, &mut RunState)], turn: &EventTurn) {
        let Some((lead, lead_state)) = group.first() else { return };
        for (core, state) in group.iter() {
            assert!(state.window.is_empty(), "event turns cannot follow instructions in flight");
            assert_eq!(
                state.instructions, lead_state.instructions,
                "machines in lockstep are at the same instruction"
            );
            assert_eq!(
                core.config, lead.config,
                "machines in lockstep share one core configuration"
            );
        }
        let dispatch_cost = 1.0 / f64::from(lead.config.dispatch_width);
        let ooo_hide = lead.config.ooo_hide_cycles() as f64;
        let mispredict_penalty = lead.predictor.mispredict_penalty() as f64;
        let mut retired = lead_state.instructions;
        let mut fetched_line = None;

        let mut on_stack = [0.0; LOCKSTEP_STACK_CLOCKS];
        let mut on_heap = Vec::new();
        let clocks = match on_stack.get_mut(..group.len()) {
            Some(clocks) => clocks,
            None => {
                on_heap.resize(group.len(), 0.0);
                &mut on_heap[..]
            }
        };
        for (clock, (_, state)) in clocks.iter_mut().zip(group.iter()) {
            *clock = state.cycles;
        }
        // One machine's chain of additions is serial; the machines'
        // chains are independent of each other.
        let idle = |clocks: &mut [f64], instructions: u64| {
            for clock in clocks {
                for _ in 0..instructions {
                    *clock += dispatch_cost;
                }
            }
        };

        for event in turn.events() {
            idle(clocks, u64::from(event.quiet));
            retired += u64::from(event.quiet) + 1;
            let pc = event.pc();
            if event.fetch() {
                fetched_line = Some(pc.raw() / LINE_BYTES);
                for ((core, state), clock) in group.iter_mut().zip(clocks.iter_mut()) {
                    core.fetch_line(&mut state.topdown, clock, pc);
                    for &fdip_pc in event.fdip_pcs() {
                        core.backend.prefetch_ifetch(VirtAddr::new(fdip_pc), *clock as u64);
                    }
                }
            }
            if event.mispredicted() {
                for ((_, state), clock) in group.iter_mut().zip(clocks.iter_mut()) {
                    state.topdown.mispred += mispredict_penalty;
                    *clock += mispredict_penalty;
                }
            }
            if let Some(mem) = event.mem() {
                for ((core, state), clock) in group.iter_mut().zip(clocks.iter_mut()) {
                    let lane = Lane {
                        topdown: &mut state.topdown,
                        last_miss_instr: &mut state.last_miss_instr,
                        clock,
                    };
                    core.access_data(lane, retired, pc, mem, ooo_hide);
                }
            }
            if let Some((class, extra)) = event.stall() {
                let extra = f64::from(extra);
                for ((_, state), clock) in group.iter_mut().zip(clocks.iter_mut()) {
                    state.topdown.add_stall(class, extra);
                    *clock += extra;
                }
            }
            idle(clocks, 1);
        }
        idle(clocks, turn.tail());
        retired += turn.tail();

        for ((_, state), &clock) in group.iter_mut().zip(clocks.iter()) {
            state.cycles = clock;
            state.instructions = retired;
            state.consumed += turn.instructions();
            state.current_line = fetched_line.unwrap_or(state.current_line);
            state.fed_branches += turn.branches();
            state.fed_mispredictions += turn.mispredictions();
        }
    }

    /// Reports the run's timing results so far without closing the
    /// state. `retire` is derived as `instructions / width` in one
    /// division, so the bucket cannot depend on where the run's input
    /// was cut.
    #[must_use]
    pub fn tally_run(&self, state: &RunState) -> CoreResult {
        let retire = state.instructions as f64 / f64::from(self.config.dispatch_width);
        CoreResult {
            instructions: state.instructions,
            cycles: state.cycles,
            topdown: TopDown { retire, ..state.topdown },
            branches: self.predictor.branches() - state.branches_before + state.fed_branches,
            mispredictions: self.predictor.mispredictions() - state.mispred_before
                + state.fed_mispredictions,
            dispatch_width: self.config.dispatch_width,
        }
    }

    /// Closes a resumable run and reports its timing results.
    #[must_use]
    pub fn finish_run(&self, state: RunState) -> CoreResult {
        self.tally_run(&state)
    }

    /// Snapshot of the branch predictor alone — the policy-agnostic half
    /// of the core state (it trains on the branch stream alone and never
    /// sees a cache latency), serialized into shared-prefix containers.
    pub fn save_predictor_state(&self, w: &mut SnapWriter) {
        self.predictor.save(w);
    }

    /// Restores state written by [`Core::save_predictor_state`].
    ///
    /// # Errors
    ///
    /// Propagates snapshot codec and shape errors.
    pub fn restore_predictor_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.predictor.restore(r)
    }

    /// Snapshot of the decode-starvation FIFO alone — policy-dependent
    /// (its entries threshold on fetch latencies), serialized into
    /// per-policy overlay containers.
    pub fn save_starved_state(&self, w: &mut SnapWriter) {
        self.starved.save(w);
    }

    /// Restores state written by [`Core::save_starved_state`].
    ///
    /// # Errors
    ///
    /// Propagates snapshot codec and shape errors.
    pub fn restore_starved_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.starved.restore(r)
    }

    /// Pseudo-FDIP: prefetch the next distinct lines on the predicted
    /// path, stopping at the first branch the predictor would mispredict.
    /// Returns how many lines were prefetched, with their PCs written
    /// into `issued` — the scan's only effects, and (being a pure
    /// function of the stream and the predictor) exactly what a
    /// digested turn carries per fetch.
    fn issue_fdip<'a, L>(
        &mut self,
        lookahead: L,
        current_line: u64,
        now: u64,
        issued: &mut [u64; FDIP_ISSUE_CAP],
    ) -> usize
    where
        L: Iterator<Item = &'a TraceInstr>,
    {
        let mut seen_lines = 0usize;
        let mut last_line = current_line;
        for instr in lookahead.take(self.config.fdip_lookahead_instrs) {
            let line = instr.pc.raw() / LINE_BYTES;
            if line != last_line {
                last_line = line;
                self.backend.prefetch_ifetch(instr.pc, now);
                issued[seen_lines.min(FDIP_ISSUE_CAP - 1)] = instr.pc.raw();
                seen_lines += 1;
                if seen_lines >= self.config.fdip_max_lines {
                    break;
                }
            }
            if let Some(branch) = instr.branch {
                let p = self.predictor.predict(instr.pc, branch.kind);
                let direction_wrong = p.predicted_taken != branch.taken;
                let target_wrong = branch.taken && (p.predicted_target != Some(branch.target));
                if direction_wrong || target_wrong {
                    break; // FDIP would stream the wrong path from here.
                }
            }
        }
        seen_lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{FlatBackend, MemLatency};
    use crate::events::InstrEvent;
    use crate::topdown::StallClass;
    use crate::trace::TraceInstr;

    fn straight_line(n: u64) -> Vec<TraceInstr> {
        (0..n).map(|i| TraceInstr::simple(0x10000 + i * 4)).collect()
    }

    #[test]
    fn ideal_core_reaches_full_width() {
        let mut core = Core::new(CoreConfig::paper(), FlatBackend::all_hits());
        let r = core.run(straight_line(6000));
        assert_eq!(r.instructions, 6000);
        assert!((r.ipc() - 6.0).abs() < 0.05, "ipc = {}", r.ipc());
        assert!(r.topdown.ifetch == 0.0);
    }

    #[test]
    fn fetch_misses_charge_ifetch_bucket() {
        let mut backend = FlatBackend::all_hits();
        backend.ifetch_latency = MemLatency { cycles: 13, l1_hit: false, l2_miss: false };
        let mut core = Core::new(CoreConfig { fdip: false, ..CoreConfig::paper() }, backend);
        let r = core.run(straight_line(160));
        // 160 instructions, 4 bytes each = 10 lines fetched, each
        // stalling 13 - 3 = 10 cycles.
        assert!((r.topdown.ifetch - 100.0).abs() < 1e-9, "{}", r.topdown.ifetch);
        assert!(r.topdown.mispred == 0.0);
    }

    #[test]
    fn mispredicts_charge_penalty() {
        let mut core = Core::new(CoreConfig::paper(), FlatBackend::all_hits());
        // Alternating taken/not-taken conditional at one PC is
        // near-unpredictable for gshare warm-up; use a random pattern.
        let mut x = 0x243f6a8885a308d3u64;
        let trace: Vec<TraceInstr> = (0..1000)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                TraceInstr::cond(0x100 + (i % 4) * 4, x & 1 == 0, 0x100)
            })
            .collect();
        let r = core.run(trace);
        assert!(r.mispredictions > 100);
        assert!((r.topdown.mispred - r.mispredictions as f64 * 8.0).abs() < 1e-9);
    }

    #[test]
    fn load_latency_hidden_up_to_ooo_window() {
        // A 20-cycle L2 load (17 beyond L1) is fully hidden by the
        // 128/6 = 21-cycle window.
        let mut backend = FlatBackend::all_hits();
        backend.data_latency = MemLatency { cycles: 20, l1_hit: false, l2_miss: false };
        let mut core = Core::new(CoreConfig::paper(), backend);
        let trace: Vec<TraceInstr> =
            (0..100).map(|i| TraceInstr::load(0x1000 + i * 4, 0x80000 + i * 64)).collect();
        let r = core.run(trace);
        assert_eq!(r.topdown.mem, 0.0);
    }

    #[test]
    fn dram_loads_stall_the_backend() {
        let mut backend = FlatBackend::all_hits();
        backend.data_latency = MemLatency { cycles: 419, l1_hit: false, l2_miss: true };
        let mut core = Core::new(CoreConfig::paper(), backend);
        let trace: Vec<TraceInstr> =
            (0..10).map(|i| TraceInstr::load(0x1000 + i * 4, 0x80000 + i * 4096)).collect();
        let r = core.run(trace);
        assert!(r.topdown.mem > 0.0);
        // Each load exposes 419 - 3 - 21 = 395 cycles, but consecutive
        // misses overlap through the MLP shadow, so the total is less
        // than 10 × 395.
        assert!(r.topdown.mem < 10.0 * 395.0);
    }

    #[test]
    fn stores_never_stall() {
        let mut backend = FlatBackend::all_hits();
        backend.data_latency = MemLatency { cycles: 419, l1_hit: false, l2_miss: true };
        let mut core = Core::new(CoreConfig::paper(), backend);
        let trace: Vec<TraceInstr> =
            (0..10).map(|i| TraceInstr::store(0x1000 + i * 4, 0x80000 + i * 4096)).collect();
        let r = core.run(trace);
        assert_eq!(r.topdown.mem, 0.0);
    }

    #[test]
    fn fdip_prefetches_future_lines() {
        let mut core = Core::new(CoreConfig::paper(), FlatBackend::all_hits());
        let r = core.run(straight_line(1000));
        assert_eq!(r.instructions, 1000);
        assert!(core.backend().prefetches > 0, "FDIP should have issued prefetches");
    }

    #[test]
    fn fdip_can_be_disabled() {
        let mut core =
            Core::new(CoreConfig { fdip: false, ..CoreConfig::paper() }, FlatBackend::all_hits());
        core.run(straight_line(1000));
        assert_eq!(core.backend().prefetches, 0);
    }

    #[test]
    fn synthetic_stalls_land_in_their_bucket() {
        let mut core = Core::new(CoreConfig::paper(), FlatBackend::all_hits());
        let mut trace = straight_line(100);
        trace[10].exec_stall = Some((StallClass::Depend, 5));
        trace[20].exec_stall = Some((StallClass::Issue, 3));
        let r = core.run(trace);
        assert_eq!(r.topdown.depend, 5.0);
        assert_eq!(r.topdown.issue, 3.0);
    }

    fn mixed_trace(n: u64) -> Vec<TraceInstr> {
        let mut x = 0x9e3779b97f4a7c15u64;
        (0..n)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                match i % 5 {
                    0 => TraceInstr::cond(0x100 + (i % 16) * 4, x & 1 == 0, 0x100),
                    1 => TraceInstr::load(0x1000 + i * 4, 0x90000 + (x % 4096) * 64),
                    _ => TraceInstr::simple(0x1000 + i * 4),
                }
            })
            .collect()
    }

    fn stall_backend() -> FlatBackend {
        let mut backend = FlatBackend::all_hits();
        backend.ifetch_latency = MemLatency { cycles: 13, l1_hit: false, l2_miss: false };
        backend.data_latency = MemLatency { cycles: 419, l1_hit: false, l2_miss: true };
        backend
    }

    /// Digests `trace` over an all-hits backend, handing the core the
    /// batches `batches` cuts (stream positions) and starting a new turn
    /// at every position in `turns`.
    fn digest(trace: &[TraceInstr], batches: &[usize], turns: &[usize]) -> Vec<EventTurn> {
        let mut core = Core::new(CoreConfig::paper(), FlatBackend::all_hits());
        let mut state = core.begin_run();
        let mut out = vec![EventTurn::new()];
        let mut prev = 0;
        let mut ends: Vec<usize> = batches.iter().chain(turns).copied().collect();
        ends.push(trace.len());
        ends.sort_unstable();
        for end in ends {
            let turn = out.last_mut().expect("never empty");
            let drain = end == trace.len();
            core.run_batch_mode(
                &mut state,
                &trace[prev..end],
                drain,
                &mut WarmupMode::Digest(turn),
            );
            prev = end;
            if turns.contains(&end) {
                out.push(EventTurn::new());
            }
        }
        out
    }

    /// The turns as one: records in order, each run of event-free
    /// instructions joined across the cuts.
    fn joined(turns: &[EventTurn]) -> (Vec<InstrEvent>, u64, u64, u64, u64) {
        let (mut events, mut quiet) = (Vec::new(), 0u64);
        for turn in turns {
            for &(mut event) in turn.events() {
                event.quiet += quiet as u32;
                quiet = 0;
                events.push(event);
            }
            quiet += turn.tail();
        }
        let sum = |f: fn(&EventTurn) -> u64| turns.iter().map(f).sum::<u64>();
        (events, quiet, sum(EventTurn::instructions), sum(EventTurn::branches), {
            sum(EventTurn::mispredictions)
        })
    }

    #[test]
    fn a_digesting_run_leaves_timing_unchanged() {
        let trace = mixed_trace(4000);
        let mut plain = Core::new(CoreConfig::paper(), stall_backend());
        let reference = plain.run(trace.clone());

        let mut digesting = Core::new(CoreConfig::paper(), stall_backend());
        let mut state = digesting.begin_run();
        let mut turn = EventTurn::new();
        digesting.run_batch_mode(&mut state, &trace, true, &mut WarmupMode::Digest(&mut turn));
        assert_eq!(digesting.finish_run(state), reference, "digesting only writes down");
        assert_eq!(turn.instructions(), 4000);
        assert_eq!(turn.branches(), reference.branches);
        assert_eq!(turn.mispredictions(), reference.mispredictions);
        assert!(!turn.events().is_empty() && (turn.events().len() as u64) < turn.instructions());
    }

    #[test]
    fn event_turns_concatenate_wherever_batches_and_turns_are_cut() {
        let trace = mixed_trace(3000);
        let whole = joined(&digest(&trace, &[], &[]));
        assert_eq!(whole.2, 3000);
        for (batches, turns) in [
            (vec![1usize, 2, 47, 48, 49, 1000], vec![]),
            (vec![], vec![1usize, 47, 48, 49, 1500, 2999]),
            (vec![700, 1400, 1401], vec![10, 1400, 2990]),
            ((0..3000).step_by(37).collect(), (0..3000).step_by(611).collect()),
        ] {
            let cut = digest(&trace, &batches, &turns);
            assert!(cut.len() > turns.len(), "one turn more than cuts");
            assert_eq!(joined(&cut), whole, "batches {batches:?}, turns {turns:?}");
        }
    }

    #[test]
    fn executed_turns_match_the_fused_run_without_touching_the_predictor() {
        let trace = mixed_trace(4000);
        let mut fused = Core::new(CoreConfig::paper(), stall_backend());
        let reference = fused.run(trace.clone());
        assert!(reference.mispredictions > 0 && reference.topdown.mem > 0.0);

        for turns in [vec![], vec![1usize, 47, 48, 49, 2000, 3999], (0..4000).step_by(97).collect()]
        {
            let mut core = Core::new(CoreConfig::paper(), stall_backend());
            let mut state = core.begin_run();
            let mut fed = 0;
            for turn in digest(&trace, &[1234], &turns) {
                fed += turn.instructions();
                Core::execute(&mut [(&mut core, &mut state)], &turn);
                assert_eq!((state.consumed(), state.instructions()), (fed, fed), "no lag");
            }
            assert_eq!(core.finish_run(state), reference, "turns cut at {turns:?}");
            assert_eq!(core.backend().prefetches, fused.backend().prefetches);
            assert_eq!(core.predictor().branches(), 0, "execute must not train the predictor");
        }
    }

    #[test]
    #[should_panic(expected = "event turns cannot follow instructions in flight")]
    fn execute_refuses_a_state_with_instructions_in_flight() {
        let trace = mixed_trace(100);
        let mut core = Core::new(CoreConfig::paper(), stall_backend());
        let mut state = core.begin_run();
        core.run_batch(&mut state, &trace, false);
        Core::execute(&mut [(&mut core, &mut state)], &EventTurn::new());
    }

    /// A backend that misses on every `every`-th line, with its own
    /// latencies, and writes down each call it gets: which, the address,
    /// the starvation flag, the time.
    #[derive(Debug)]
    struct Scripted {
        every: u64,
        ifetch_miss: u64,
        data_miss: u64,
        calls: Vec<(char, u64, bool, u64)>,
    }

    impl Scripted {
        /// Machine `i` of a group: each misses elsewhere and for a
        /// different time — below, at and above the starvation
        /// threshold, within and beyond what the window hides — so the
        /// machines' clocks, stall buckets and starvation tables part
        /// ways from the first line on.
        fn machine(i: usize) -> Core<Scripted> {
            let backend = Scripted {
                every: i as u64 % 3 + 1,
                ifetch_miss: [13, 30, 21, 419, 22][i % 5],
                data_miss: [419, 40, 200, 20, 100][i % 5],
                calls: Vec::new(),
            };
            Core::new(CoreConfig::paper(), backend)
        }

        fn latency(&self, addr: VirtAddr, miss: u64) -> MemLatency {
            if (addr.raw() / LINE_BYTES).is_multiple_of(self.every) {
                MemLatency { cycles: miss, l1_hit: false, l2_miss: miss > 100 }
            } else {
                MemLatency::l1_hit(3)
            }
        }
    }

    impl MemoryBackend for Scripted {
        fn ifetch(&mut self, pc: VirtAddr, caused_starvation: bool, now: u64) -> MemLatency {
            self.calls.push(('i', pc.raw(), caused_starvation, now));
            self.latency(pc, self.ifetch_miss)
        }

        fn dread(&mut self, addr: VirtAddr, pc: VirtAddr) -> MemLatency {
            self.calls.push(('r', addr.raw(), false, pc.raw()));
            self.latency(addr, self.data_miss)
        }

        fn dwrite(&mut self, addr: VirtAddr, pc: VirtAddr) -> MemLatency {
            self.calls.push(('w', addr.raw(), false, pc.raw()));
            self.latency(addr, self.data_miss)
        }

        fn prefetch_ifetch(&mut self, pc: VirtAddr, now: u64) {
            self.calls.push(('p', pc.raw(), false, now));
        }
    }

    /// Everything of a machine and its run that a turn can change.
    fn observed(core: &Core<Scripted>, state: &RunState) -> (String, CoreResult, Vec<u8>) {
        assert_eq!(core.predictor().branches(), 0, "execute must not train the predictor");
        let mut starved = SnapWriter::new();
        core.save_starved_state(&mut starved);
        (format!("{state:?}"), core.tally_run(state), starved.into_bytes())
    }

    /// A trace that revisits its lines (so starved ones are fetched
    /// again, flag up), with loads, stores, stalls and hard branches.
    fn revisiting_trace(n: u64) -> Vec<TraceInstr> {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        (0..n)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let pc = 0x40_0000 + (i % 1500) * 4 + (i / 1500 % 2) * 0x7000_0000;
                let mut instr = match i % 7 {
                    0 => TraceInstr::cond(pc, x & 1 == 0, pc + 64),
                    2 => TraceInstr::load(pc, 0x9000_0000 + (x % 512) * 64),
                    5 => TraceInstr::store(pc, 0xa000_0000 + (x % 64) * 64),
                    _ => TraceInstr::simple(pc),
                };
                if i % 11 == 0 {
                    instr.exec_stall = Some((StallClass::ALL[(x % 3) as usize + 2], (x % 9) as u8));
                }
                instr
            })
            .collect()
    }

    #[test]
    fn machines_in_lockstep_match_machines_run_one_at_a_time() {
        let trace = revisiting_trace(9000);
        for turns in [vec![], vec![1usize, 47, 48, 49, 4500, 8999], (0..9000).step_by(97).collect()]
        {
            let turns = digest(&trace, &[1234], &turns);
            for size in [1usize, 2, 5] {
                // Alone: each machine takes every turn as a group of one.
                let alone: Vec<_> = (0..size)
                    .map(|i| {
                        let mut core = Scripted::machine(i);
                        let mut state = core.begin_run();
                        for turn in &turns {
                            Core::execute(&mut [(&mut core, &mut state)], turn);
                        }
                        (core, state)
                    })
                    .collect();

                let mut cores: Vec<_> = (0..size).map(Scripted::machine).collect();
                let mut states: Vec<_> = cores.iter().map(Core::begin_run).collect();
                for turn in &turns {
                    let mut group: Vec<_> = cores.iter_mut().zip(states.iter_mut()).collect();
                    Core::execute(&mut group, turn);
                }

                for (i, (core, state)) in cores.iter().zip(&states).enumerate() {
                    let (alone_core, alone_state) = &alone[i];
                    let what = format!("machine {i} of {size}, {} turns", turns.len());
                    assert_eq!(observed(core, state), observed(alone_core, alone_state), "{what}");
                    assert_eq!(core.backend().calls, alone_core.backend().calls, "{what}");

                    // And both are the fused loop over the same backend.
                    let mut fused = Scripted::machine(i);
                    assert_eq!(core.tally_run(state), fused.run(trace.clone()), "{what}, fused");
                    assert_eq!(core.backend().calls, fused.backend().calls, "{what}, fused");
                    let starves = core.backend().ifetch_miss >= core.config.starvation_threshold;
                    let flagged = core.backend().calls.iter().any(|call| call.2);
                    assert_eq!(flagged, starves, "{what}: lines fetched again with the flag up");
                }
                if size > 1 {
                    assert_ne!(states[0].cycles, states[1].cycles, "the clocks must diverge");
                    assert_ne!(
                        observed(&cores[0], &states[0]).2,
                        observed(&cores[1], &states[1]).2
                    );
                }
            }
        }
    }

    /// More machines than clocks kept on the stack.
    #[test]
    fn a_large_group_keeps_its_clocks_on_the_heap() {
        let trace = revisiting_trace(2000);
        let turns = digest(&trace, &[], &[700]);
        let size = LOCKSTEP_STACK_CLOCKS + 3;
        let mut cores: Vec<_> = (0..size).map(Scripted::machine).collect();
        let mut states: Vec<_> = cores.iter().map(Core::begin_run).collect();
        for turn in &turns {
            let mut group: Vec<_> = cores.iter_mut().zip(states.iter_mut()).collect();
            Core::execute(&mut group, turn);
        }
        for (i, (core, state)) in cores.iter().zip(&states).enumerate() {
            assert_eq!(
                core.tally_run(state),
                Scripted::machine(i).run(trace.clone()),
                "machine {i}"
            );
        }
        Core::<Scripted>::execute(&mut [], &turns[0]);
    }

    #[test]
    #[should_panic(expected = "event turns cannot follow instructions in flight")]
    fn lockstep_refuses_a_group_with_a_fused_state_in_it() {
        let trace = mixed_trace(100);
        let (mut a, mut b) = (Scripted::machine(0), Scripted::machine(1));
        let (mut at_rest, mut in_flight) = (a.begin_run(), b.begin_run());
        b.run_batch(&mut in_flight, &trace, false);
        // Drained, the fused state is at instruction 100 and the other
        // at 0; in flight, it is refused before positions are compared.
        Core::execute(&mut [(&mut a, &mut at_rest), (&mut b, &mut in_flight)], &EventTurn::new());
    }

    #[test]
    #[should_panic(expected = "machines in lockstep are at the same instruction")]
    fn lockstep_refuses_machines_at_different_positions() {
        let turns = digest(&mixed_trace(200), &[], &[100]);
        let (mut a, mut b) = (Scripted::machine(0), Scripted::machine(1));
        let (mut ahead, mut behind) = (a.begin_run(), b.begin_run());
        Core::execute(&mut [(&mut a, &mut ahead)], &turns[0]);
        Core::execute(&mut [(&mut a, &mut ahead), (&mut b, &mut behind)], &turns[1]);
    }

    #[test]
    #[should_panic(expected = "machines in lockstep share one core configuration")]
    fn lockstep_refuses_machines_with_different_timing() {
        // Different backends are the point of a group; different cores
        // are not.
        let narrow = CoreConfig { dispatch_width: 4, ..CoreConfig::paper() };
        let (mut a, mut b) = (Scripted::machine(0), Scripted::machine(1));
        b.config = narrow;
        let (mut sa, mut sb) = (a.begin_run(), b.begin_run());
        Core::execute(&mut [(&mut a, &mut sa), (&mut b, &mut sb)], &EventTurn::new());
    }

    /// The bitmap-indexed table against the obvious one.
    #[test]
    fn starved_lines_match_a_hash_set_and_queue_reference() {
        use std::collections::HashSet;
        struct Reference(HashSet<u64>, VecDeque<u64>, usize);
        impl Reference {
            fn insert(&mut self, line: u64) {
                if self.0.insert(line) {
                    self.1.push_back(line);
                    if self.1.len() > self.2 {
                        let old = self.1.pop_front().expect("over capacity");
                        self.0.remove(&old);
                    }
                }
            }
        }
        let saved = |table: &StarvedLines| {
            let mut w = SnapWriter::new();
            table.save(&mut w);
            w.into_bytes()
        };

        let capacity = 64;
        let mut table = StarvedLines::new(capacity);
        let mut reference = Reference(HashSet::new(), VecDeque::new(), capacity);
        // Lines of a text segment, of a segment far above it, of chunks
        // below the first one seen, and line 0 — more of them than the
        // table holds, revisited, so the FIFO evicts and re-admits.
        let chunk = 1u64 << CHUNK_LINE_BITS;
        let bases = [0x5_0000, 0x1c0_0000, 0x5_0000 - chunk, 0x5_0000 - 3 * chunk, 0, chunk - 40];
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for step in 0..6000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let line = bases[(x % 6) as usize] + (x >> 8) % 90;
            assert_eq!(table.contains(line), reference.0.contains(&line), "step {step}: {line:#x}");
            if x & 1 == 0 {
                assert_eq!(table.insert(line), !reference.0.contains(&line), "duplicate {line:#x}");
                reference.insert(line);
            }
            assert_eq!(table.order, reference.1, "step {step}: FIFO order");
        }
        assert_eq!(table.order.len(), capacity, "the table filled and evicted");
        for base in bases {
            for line in base..base + 90 {
                assert_eq!(table.contains(line), reference.0.contains(&line), "{line:#x}");
            }
        }

        // The snapshot is the FIFO; a restore rebuilds the index.
        let bytes = saved(&table);
        let mut fixture = SnapWriter::new();
        fixture.usize(reference.1.len());
        reference.1.iter().for_each(|&line| fixture.u64(line));
        assert_eq!(bytes, fixture.bytes());
        let mut restored = StarvedLines::new(capacity);
        restored.insert(0x9999_9999); // forgotten by the restore
        restored.restore(&mut SnapReader::new(&bytes)).expect("restore");
        assert!(!restored.contains(0x9999_9999));
        assert_eq!(saved(&restored), bytes);
        for base in bases {
            for line in base..base + 90 {
                assert_eq!(restored.contains(line), reference.0.contains(&line), "{line:#x}");
            }
        }
        // It evicts on as the original does.
        table.insert(u64::MAX);
        restored.insert(u64::MAX);
        assert_eq!(saved(&restored), saved(&table));
        assert!(restored.contains(u64::MAX) && !restored.contains(reference.1[0]));

        // A line twice, or more lines than the table holds: refused.
        let mut twice = SnapWriter::new();
        twice.usize(2);
        twice.u64(0x5_0040);
        twice.u64(0x5_0040);
        let err = restored.restore(&mut SnapReader::new(twice.bytes())).expect_err("duplicate");
        assert!(matches!(err, SnapError::Corrupt(_)), "got {err:?}");
        let mut long = SnapWriter::new();
        long.usize(capacity + 1);
        let err = restored.restore(&mut SnapReader::new(long.bytes())).expect_err("too long");
        assert!(matches!(err, SnapError::Mismatch(_)), "got {err:?}");
    }

    /// What a frontend's digest relies on: `run_batch(drain = false)`
    /// leaves the lookahead window intact, so a run fed in batches cut
    /// anywhere — empty and single-instruction batches, cuts inside the
    /// window's reach of either end, batches longer than `run`'s staging
    /// buffer — equals one uninterrupted run.
    #[test]
    fn batches_cut_anywhere_match_an_uninterrupted_run() {
        let trace = mixed_trace(2 * STREAM_BATCH as u64 + 1717);
        let mut reference_core = Core::new(CoreConfig::paper(), stall_backend());
        let reference = reference_core.run(trace.clone());

        let near_end = trace.len() - 49;
        for splits in [
            vec![0usize, 1, 2, 49, 1000, 1001, trace.len() - 1],
            vec![47],
            vec![48],
            vec![near_end, near_end + 1, near_end + 2],
            vec![4095, STREAM_BATCH, STREAM_BATCH, 4097],
            vec![trace.len()],
            (0..trace.len()).step_by(611).collect::<Vec<_>>(),
        ] {
            let mut core = Core::new(CoreConfig::paper(), stall_backend());
            let mut state = core.begin_run();
            let mut prev = 0usize;
            for &end in splits.iter().chain(std::iter::once(&trace.len())) {
                // (An empty batch that does not drain is a no-op.)
                core.run_batch(&mut state, &trace[prev..end], end == trace.len());
                assert_eq!(state.consumed() as usize, end, "a batch is consumed whole");
                prev = end;
            }
            assert!(state.window.is_empty(), "the draining batch empties the window");
            assert_eq!(core.finish_run(state), reference, "splits {splits:?} diverged");
        }
    }

    #[test]
    fn topdown_total_matches_cycles() {
        let mut backend = FlatBackend::all_hits();
        backend.ifetch_latency = MemLatency { cycles: 13, l1_hit: false, l2_miss: false };
        backend.data_latency = MemLatency { cycles: 419, l1_hit: false, l2_miss: true };
        let mut core = Core::new(CoreConfig::paper(), backend);
        let trace: Vec<TraceInstr> = (0..500)
            .map(|i| {
                if i % 7 == 0 {
                    TraceInstr::load(0x1000 + i * 4, 0x90000 + i * 512)
                } else {
                    TraceInstr::simple(0x1000 + i * 4)
                }
            })
            .collect();
        let r = core.run(trace);
        assert!((r.topdown.total() - r.cycles).abs() < 1e-6);
    }
}
