//! The CFG walker: turns a program + layout + spec into the dynamic
//! instruction/memory trace the core consumes, while collecting the
//! instrumentation-PGO basic-block profile.
//!
//! The top-level *driver* models an event loop: it dispatches (via an
//! indirect branch) into one function invocation after another. Most
//! dispatches rotate through the spec's hot set — re-visiting a hot
//! function only after the rest of the rotation executed, which is what
//! produces the paper's long hot-line reuse distances (Figure 3) — and a
//! small fraction jump to a uniformly random function (warm/cold
//! pollution). Within a function the walker follows the CFG edge
//! probabilities, descends into calls (bounded depth), runs PLT stubs +
//! external bodies for external calls, and samples loads/stores from the
//! three-tier data model (hot / warm / cold regions, plus sequential
//! scans in scan blocks and stack traffic at call boundaries).
//!
//! Determinism: the same `(program, object, spec, input set)` produces
//! the same trace. Train and eval inputs differ by seed *and* by a
//! deterministic per-edge probability shift (`input_shift`), modelling
//! Table 2's differing input sets.
//!
//! Hand-over: a walker steps one block at a time (a block's body and
//! terminator, or the move back from a call), and only when nothing it
//! stepped is still pending. A pull of `n` instructions —
//! [`TraceGenerator::fill`], behind [`trrip_trace::TraceSource::next_batch`]
//! and the walk-ahead thread — copies whole blocks out and keeps the rest
//! of the last one pending; [`Iterator::next`] reads the pending block
//! through a cursor. The training run ([`TraceGenerator::train`]) takes
//! the same steps into a sink that only counts, so it collects the profile
//! `n` pulls would without handing an instruction over.
//!
//! A walker's position is plain data ([`WalkerState`]): a walker
//! resumed from the state another handed out at instruction *n* hands out
//! what the other does from *n* on, so a stream can start anywhere the
//! state was kept, without walking what came before.

use std::collections::HashMap;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use trrip_compiler::{CallTarget, ObjectFile, Profile, Program};
use trrip_cpu::{BranchInfo, BranchKind, MemOp, StallClass, TraceInstr};
use trrip_mem::VirtAddr;

use crate::spec::{InputSet, WorkloadSpec};

/// Virtual base of the hot data region.
pub const HOT_DATA_BASE: u64 = 0x8000_0000;
/// Virtual base of the warm data region.
pub const WARM_DATA_BASE: u64 = 0x9000_0000;
/// Virtual base of the cold data region.
pub const COLD_DATA_BASE: u64 = 0xA000_0000;
/// Virtual base of the data touched by external library code.
pub const EXTERNAL_DATA_BASE: u64 = 0xB000_0000;
/// Top of the stack region.
pub const STACK_TOP: u64 = 0x7FFF_F000;

const MAX_CALL_DEPTH: usize = 8;
/// Recently-touched cold lines eligible for reuse. Sized so the reuse
/// distance lands past the L1-D (64 kB) but within L2/SLC reach.
const COLD_RING_ENTRIES: usize = 4096;
const INVOCATION_BLOCK_CAP: u32 = 4096;
const MAX_EXTERNAL_INSTRS: u64 = 64;

/// Where a frame of the walker's call stack stands in its block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// The block's body is next.
    Body,
    /// Back from a call the block made: its terminator, if it has one,
    /// and the move to its successor are still to come.
    AfterCall {
        /// The block to move to, `None` for a return.
        successor: Option<usize>,
        /// The terminator's instruction slot in the block, if it has one.
        term_slot: Option<u32>,
    },
}

/// One frame of the walker's call stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame {
    /// The function.
    pub fid: usize,
    /// Its block the frame is in.
    pub block: usize,
    /// Where in the block.
    pub phase: Phase,
    /// Where its return goes; `None` for the top-level frame.
    pub return_pc: Option<VirtAddr>,
}

/// A [`TraceGenerator`]'s position in its stream, as plain data:
/// everything it carries from one instruction to the next except the
/// profile it collects. [`TraceGenerator::state`] hands it out and
/// [`TraceGenerator::resume`] carries on from it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalkerState {
    /// The RNG's words.
    pub rng: [u64; 4],
    /// Instructions generated and not handed out yet, in stream order.
    pub pending: Vec<TraceInstr>,
    /// The call stack, outermost first.
    pub frames: Vec<Frame>,
    /// The hot rotation, in its current shuffle.
    pub rotation: Vec<usize>,
    /// The next rotation slot to dispatch.
    pub rotation_pos: usize,
    /// The function dispatched next at the top level, once picked.
    pub next_top: Option<usize>,
    /// Each scan block's stream cursor, by `(function, block)`, sorted.
    pub scan_cursors: Vec<((usize, usize), u64)>,
    /// Recently touched cold addresses.
    pub cold_ring: Vec<u64>,
    /// The ring slot the next cold address replaces, once it is full.
    pub cold_ring_pos: usize,
    /// Blocks the current top-level invocation has run.
    pub blocks_in_invocation: u32,
}

impl WalkerState {
    /// Whether a walker over `program` and `spec` could be in this
    /// state: every index in range, every length within what the walker
    /// ever holds — so that resuming from it can neither panic nor grow
    /// without bound.
    ///
    /// # Errors
    ///
    /// A message naming the first field that is out of range.
    pub fn check(&self, program: &Program, spec: &WorkloadSpec) -> Result<(), String> {
        let functions = program.functions.len();
        // A function out of range has no blocks.
        let blocks = |fid: usize| program.functions.get(fid).map_or(0, |f| f.blocks.len());
        let largest_block = program.functions.iter().flat_map(|f| &f.blocks);
        let largest_block = largest_block.map(|b| b.instructions().max(1)).max().unwrap_or(1);
        // What the puller may hold back, plus one step: the walker only
        // steps with nothing pending, and a step emits a block and at most
        // an external call beside it.
        let pending_cap = SOURCE_BATCH + largest_block as usize + MAX_EXTERNAL_INSTRS as usize + 3;
        let bad_frame = self.frames.iter().position(|frame| {
            let successor = match frame.phase {
                Phase::AfterCall { successor, .. } => successor,
                Phase::Body => None,
            };
            std::iter::once(frame.block).chain(successor).any(|block| block >= blocks(frame.fid))
        });
        let span = scan_span(spec);
        let bad_cursor = self
            .scan_cursors
            .iter()
            .find(|&&((fid, block), cursor)| block >= blocks(fid) || cursor >= span);
        let (rotation, ring, ring_pos) = (&self.rotation, self.cold_ring.len(), self.cold_ring_pos);
        let bad_rotation = rotation.iter().find(|&&fid| fid >= functions);
        let checks = [
            (
                self.pending.len() <= pending_cap,
                "pending",
                format!(
                    "{} instructions, more than the {pending_cap} a walker of this program holds",
                    self.pending.len()
                ),
            ),
            (
                self.frames.len() <= MAX_CALL_DEPTH + 1,
                "frames",
                format!("{} deep, past the call depth limit", self.frames.len()),
            ),
            (
                bad_frame.is_none(),
                "frames",
                format!(
                    "frame {} is {:?}, outside the program",
                    bad_frame.unwrap_or(0),
                    bad_frame.map(|i| self.frames[i])
                ),
            ),
            (
                !rotation.is_empty() && bad_rotation.is_none(),
                "rotation",
                format!("{} entries, function {bad_rotation:?} of {functions}", rotation.len()),
            ),
            (
                self.rotation_pos < rotation.len(),
                "rotation_pos",
                format!("{} past a rotation of {}", self.rotation_pos, rotation.len()),
            ),
            (
                self.next_top.is_none_or(|fid| fid < functions),
                "next_top",
                format!("{:?} of {functions} functions", self.next_top),
            ),
            (
                bad_cursor.is_none(),
                "scan_cursors",
                format!("{bad_cursor:?} outside the program or a {span}-byte region"),
            ),
            (
                ring <= COLD_RING_ENTRIES,
                "cold_ring",
                format!("{ring} entries, more than {COLD_RING_ENTRIES}"),
            ),
            (
                ring_pos == 0 || ring_pos < ring,
                "cold_ring_pos",
                format!("{ring_pos} past a ring of {ring}"),
            ),
        ];
        match checks.into_iter().find(|(holds, ..)| !holds) {
            Some((_, field, detail)) => Err(format!("{field}: {detail}")),
            None => Ok(()),
        }
    }
}

/// The region a scan block streams through (the cold data region, at
/// least 64 kB).
fn scan_span(spec: &WorkloadSpec) -> u64 {
    spec.cold_data_bytes.max(64 << 10)
}

/// What every data and stall draw compares against, derived from the
/// spec once per generator rather than once per draw.
#[derive(Debug, Clone, Copy)]
struct Draws {
    hot_span: u64,
    warm_span: u64,
    cold_span: u64,
    scan_span: u64,
    /// Below it a data draw is hot.
    hot_frac: f32,
    /// Below it a data draw is hot or warm.
    hot_warm_frac: f32,
    /// Below it a stall draw is a dependency stall.
    depend_prob: f32,
    /// Below it a stall draw stalls at all.
    stall_prob: f32,
}

impl Draws {
    fn new(spec: &WorkloadSpec) -> Draws {
        Draws {
            hot_span: spec.hot_data_bytes.max(64),
            warm_span: spec.warm_data_bytes.max(64),
            cold_span: spec.cold_data_bytes.max(64),
            scan_span: scan_span(spec),
            hot_frac: spec.data_hot_frac,
            hot_warm_frac: spec.data_hot_frac + spec.data_warm_frac,
            depend_prob: spec.depend_stall_prob,
            stall_prob: spec.depend_stall_prob + spec.issue_stall_prob,
        }
    }
}

/// Where [`TraceGenerator::step`] puts what it emits: a buffer, or — on
/// the training run — nowhere, only counted.
trait Sink {
    fn emit(&mut self, instr: TraceInstr);
}

impl Sink for Vec<TraceInstr> {
    #[inline]
    fn emit(&mut self, instr: TraceInstr) {
        self.push(instr);
    }
}

/// The training run's sink: the instructions a step emitted, counted.
struct Count(u64);

impl Sink for Count {
    #[inline]
    fn emit(&mut self, _: TraceInstr) {
        self.0 += 1;
    }
}

/// The per-visit scalar facts the emission body needs about a block.
#[derive(Debug, Clone, Copy)]
struct BlockInfo {
    addr: VirtAddr,
    n: u32,
    is_entry: bool,
    is_ret_block: bool,
    load_density: f32,
    store_density: f32,
    scan: bool,
    dispatch: bool,
    call: Option<CallTarget>,
    successor_count: usize,
    fallthrough: Option<usize>,
}

/// The trace generator; an infinite [`Iterator`] over [`TraceInstr`].
///
/// # Example
///
/// ```
/// use trrip_workloads::{build_program, TraceGenerator, WorkloadSpec, InputSet};
/// use trrip_compiler::Linker;
///
/// let spec = WorkloadSpec::named("demo");
/// let program = build_program(&spec);
/// let object = Linker::new().link_source_order(&program);
/// let mut generator = TraceGenerator::new(&program, &object, &spec, InputSet::Train);
/// let trace: Vec<_> = (&mut generator).take(10_000).collect();
/// assert_eq!(trace.len(), 10_000);
/// let profile = generator.into_profile();
/// assert!(profile.total() > 0);
/// ```
#[derive(Debug)]
pub struct TraceGenerator<'a> {
    program: &'a Program,
    object: &'a ObjectFile,
    spec: &'a WorkloadSpec,
    draws: Draws,
    rng: SmallRng,
    input: InputSet,
    profile: Profile,
    /// The last block stepped; `pending[cursor..]` is not handed out yet.
    pending: Vec<TraceInstr>,
    cursor: usize,
    frames: Vec<Frame>,
    rotation: Vec<usize>,
    rotation_pos: usize,
    next_top: Option<usize>,
    scan_cursors: HashMap<(usize, usize), u64>,
    cold_ring: Vec<u64>,
    cold_ring_pos: usize,
    blocks_in_invocation: u32,
    /// Instructions generated so far, tallied per block (a training run
    /// sets it to the count it was asked for); what was handed out (this
    /// less what is still `pending`) is published as `walk.instrs` when
    /// the generator drops — the count that says how often a sweep walked.
    emitted: u64,
}

impl<'a> TraceGenerator<'a> {
    /// Creates a generator for one input set.
    ///
    /// # Panics
    ///
    /// Panics if the object file does not match the program shape.
    #[must_use]
    pub fn new(
        program: &'a Program,
        object: &'a ObjectFile,
        spec: &'a WorkloadSpec,
        input: InputSet,
    ) -> TraceGenerator<'a> {
        assert_eq!(
            object.block_addrs.len(),
            program.functions.len(),
            "object file does not match program"
        );
        TraceGenerator {
            program,
            object,
            spec,
            draws: Draws::new(spec),
            rng: SmallRng::seed_from_u64(spec.seed_for(input)),
            input,
            profile: Profile::zeroed(program),
            pending: Vec::with_capacity(256),
            cursor: 0,
            frames: Vec::with_capacity(MAX_CALL_DEPTH + 1),
            rotation: spec.hot_set(),
            rotation_pos: 0,
            next_top: None,
            scan_cursors: HashMap::new(),
            cold_ring: Vec::with_capacity(COLD_RING_ENTRIES),
            cold_ring_pos: 0,
            blocks_in_invocation: 0,
            emitted: 0,
        }
    }

    /// This walker's position, as if `unread` — the last instructions
    /// it handed out, which whoever pulled them has not consumed — had
    /// not been handed out yet: they go back to the front of the pending
    /// queue.
    #[must_use]
    pub fn state(&self, unread: &[TraceInstr]) -> WalkerState {
        let mut scan_cursors: Vec<_> = self.scan_cursors.iter().map(|(&k, &v)| (k, v)).collect();
        scan_cursors.sort_unstable();
        WalkerState {
            rng: self.rng.state(),
            pending: [unread, &self.pending[self.cursor..]].concat(),
            frames: self.frames.clone(),
            rotation: self.rotation.clone(),
            rotation_pos: self.rotation_pos,
            next_top: self.next_top,
            scan_cursors,
            cold_ring: self.cold_ring.clone(),
            cold_ring_pos: self.cold_ring_pos,
            blocks_in_invocation: self.blocks_in_invocation,
        }
    }

    /// A walker that carries on from `state`: it hands out what the
    /// walker that handed `state` out would have from there on. Its
    /// profile starts empty.
    ///
    /// # Errors
    ///
    /// A state no walker over this program could be in
    /// ([`WalkerState::check`]).
    ///
    /// # Panics
    ///
    /// As [`TraceGenerator::new`].
    pub fn resume(
        program: &'a Program,
        object: &'a ObjectFile,
        spec: &'a WorkloadSpec,
        input: InputSet,
        state: WalkerState,
    ) -> Result<TraceGenerator<'a>, String> {
        state.check(program, spec)?;
        let mut walker = TraceGenerator::new(program, object, spec, input);
        walker.rng = SmallRng::from_state(state.rng);
        walker.emitted = state.pending.len() as u64;
        walker.pending = state.pending;
        walker.frames = state.frames;
        walker.rotation = state.rotation;
        walker.rotation_pos = state.rotation_pos;
        walker.next_top = state.next_top;
        walker.scan_cursors = state.scan_cursors.into_iter().collect();
        walker.cold_ring = state.cold_ring;
        walker.cold_ring_pos = state.cold_ring_pos;
        walker.blocks_in_invocation = state.blocks_in_invocation;
        Ok(walker)
    }

    /// Consumes the generator and returns the collected basic-block
    /// profile (the instrumentation-PGO output of this run).
    #[must_use]
    pub fn into_profile(mut self) -> Profile {
        std::mem::replace(&mut self.profile, Profile::zeroed(self.program))
    }

    /// ②–③ The instrumented training run: the basic-block profile of the
    /// first `instructions` of the train input over `object` — what
    /// `instructions` calls of [`Iterator::next`] on a new train-input
    /// walker and then [`TraceGenerator::into_profile`] give, `walk.instrs`
    /// included, with the instructions counted instead of handed over.
    ///
    /// # Panics
    ///
    /// As [`TraceGenerator::new`].
    #[must_use]
    pub fn train(
        program: &Program,
        object: &ObjectFile,
        spec: &WorkloadSpec,
        instructions: u64,
    ) -> Profile {
        let mut walker = TraceGenerator::new(program, object, spec, InputSet::Train);
        // `next` steps only while nothing is pending, so `instructions`
        // calls stop at the first step that reaches the count.
        let mut count = Count(0);
        while count.0 < instructions {
            walker.step(&mut count);
        }
        walker.emitted = instructions;
        walker.into_profile()
    }

    /// Appends exactly the next `n` instructions to `out`: what is still
    /// pending, then whole blocks stepped as they are needed. What the
    /// last block steps past the `n`th instruction stays pending for the
    /// next pull.
    pub fn fill(&mut self, out: &mut Vec<TraceInstr>, n: usize) {
        out.reserve(n);
        let mut left = n;
        loop {
            let held = (self.pending.len() - self.cursor).min(left);
            out.extend_from_slice(&self.pending[self.cursor..self.cursor + held]);
            self.cursor += held;
            left -= held;
            if left == 0 {
                return;
            }
            self.refill();
        }
    }

    /// Steps the next block into `pending`, which is all handed out:
    /// as many steps as it takes to emit an instruction.
    fn refill(&mut self) {
        let mut block = std::mem::take(&mut self.pending);
        block.clear();
        while block.is_empty() {
            self.step(&mut block);
        }
        self.emitted += block.len() as u64;
        self.pending = block;
        self.cursor = 0;
    }

    // ---- driver ----

    fn pick_top(&mut self) -> usize {
        if self.rng.gen_bool(self.spec.cold_visit_prob) {
            return self.rng.gen_range(0..self.program.functions.len());
        }
        if self.rotation_pos == 0 {
            // Reshuffle the rotation each full pass (Fisher-Yates).
            for i in (1..self.rotation.len()).rev() {
                let j = self.rng.gen_range(0..=i);
                self.rotation.swap(i, j);
            }
        }
        let fid = self.rotation[self.rotation_pos];
        self.rotation_pos = (self.rotation_pos + 1) % self.rotation.len();
        fid
    }

    fn start_invocation(&mut self) {
        let fid = match self.next_top.take() {
            Some(f) => f,
            None => self.pick_top(),
        };
        self.blocks_in_invocation = 0;
        self.frames.push(Frame { fid, block: 0, phase: Phase::Body, return_pc: None });
    }

    // ---- CFG decisions ----

    /// Weighted successor choice with the eval-input probability shift.
    fn choose_successor(&mut self, fid: usize, block: usize) -> Option<usize> {
        let blk = &self.program.functions[fid].blocks[block];
        if blk.successors.is_empty() {
            return None;
        }
        let exit_block = self.program.functions[fid].blocks.len() - 1;
        if self.blocks_in_invocation > INVOCATION_BLOCK_CAP
            && blk.successors.iter().any(|&(s, _)| s == exit_block)
        {
            return Some(exit_block);
        }
        let shift = if self.input == InputSet::Eval { self.spec.input_shift } else { 0.0 };
        let eval_seed = self.spec.eval_seed;
        let weight = |&(s, p): &(usize, f64)| {
            let h = hash01(fid as u64, (block * 131 + s) as u64, eval_seed);
            (p + shift * (h - 0.5) * 2.0).clamp(0.02, 0.98)
        };
        // Two passes over the edges, no vector: sum the weights, draw
        // once, then subtract the same weights in the same order.
        let total: f64 = blk.successors.iter().map(weight).sum();
        let mut draw = self.rng.gen::<f64>() * total;
        for edge in &blk.successors {
            draw -= weight(edge);
            if draw <= 0.0 {
                return Some(edge.0);
            }
        }
        Some(blk.successors[blk.successors.len() - 1].0)
    }

    // ---- data model ----

    fn data_address(&mut self) -> u64 {
        let r = self.rng.gen::<f32>();
        let (base, span) = if r < self.draws.hot_frac {
            (HOT_DATA_BASE, self.draws.hot_span)
        } else if r < self.draws.hot_warm_frac {
            (WARM_DATA_BASE, self.draws.warm_span)
        } else {
            return self.cold_address();
        };
        base + (self.rng.gen::<u64>() % span) / 8 * 8
    }

    /// Cold-region access with long-tail reuse through a bounded ring of
    /// recently touched addresses.
    fn cold_address(&mut self) -> u64 {
        if !self.cold_ring.is_empty() && self.rng.gen::<f32>() < self.spec.cold_reuse_frac {
            let i = self.rng.gen_range(0..self.cold_ring.len());
            return self.cold_ring[i];
        }
        let addr = COLD_DATA_BASE + (self.rng.gen::<u64>() % self.draws.cold_span) / 8 * 8;
        if self.cold_ring.len() < COLD_RING_ENTRIES {
            self.cold_ring.push(addr);
        } else {
            self.cold_ring[self.cold_ring_pos] = addr;
            self.cold_ring_pos = (self.cold_ring_pos + 1) % COLD_RING_ENTRIES;
        }
        addr
    }

    fn sample_mem(&mut self, blk_load: f32, blk_store: f32) -> Option<MemOp> {
        let r = self.rng.gen::<f32>();
        if r < blk_load {
            Some(MemOp { addr: VirtAddr::new(self.data_address()), store: false })
        } else if r < blk_load + blk_store {
            Some(MemOp { addr: VirtAddr::new(self.data_address()), store: true })
        } else {
            None
        }
    }

    /// Sequential scan traffic: every eighth instruction of a scan block
    /// loads the next cache line of the block's private streaming region
    /// in the cold data area. The per-PC stride is constant across
    /// executions, so the Table 1 stride prefetchers can train on it.
    fn scan_addr(&mut self, fid: usize, block: usize, slot: u32, body: u32, n: u32) -> u64 {
        let span = self.draws.scan_span;
        let cursor = self.scan_cursors.entry((fid, block)).or_insert_with(|| {
            // Spread block streams through the region.
            (fid as u64).wrapping_mul(0x9E37_79B9).wrapping_add(block as u64 * 8192) % span
        });
        let addr = COLD_DATA_BASE + (*cursor + u64::from(slot / 8) * 64) % span;
        if slot + 8 > body {
            // Advance by the full block's line count so each PC's stride
            // stays constant across executions (prefetcher-trainable).
            *cursor = (*cursor + u64::from(n.div_ceil(8)) * 64) % span;
        }
        addr
    }

    fn sample_stall(&mut self) -> Option<(StallClass, u8)> {
        let r = self.rng.gen::<f32>();
        if r < self.draws.depend_prob {
            Some((StallClass::Depend, self.spec.depend_stall_cycles))
        } else if r < self.draws.stall_prob {
            Some((StallClass::Issue, self.spec.issue_stall_cycles))
        } else {
            None
        }
    }

    // ---- emission ----

    fn stack_addr(&self) -> u64 {
        STACK_TOP - self.frames.len() as u64 * 256
    }

    /// Emits the terminator instruction of a block and returns nothing;
    /// the caller applies the transition.
    fn emit_terminator(
        &mut self,
        out: &mut impl Sink,
        pc: VirtAddr,
        fid: usize,
        block: usize,
        successor: Option<usize>,
        return_pc: Option<VirtAddr>,
    ) {
        let blk = &self.program.functions[fid].blocks[block];
        let branch = match successor {
            None => match return_pc {
                // Return to caller.
                Some(target) => BranchInfo { kind: BranchKind::Return, taken: true, target },
                // Top-level return: the driver's indirect dispatch to the
                // next invocation.
                None => {
                    let next = self.pick_top();
                    self.next_top = Some(next);
                    BranchInfo {
                        kind: BranchKind::Indirect,
                        taken: true,
                        target: self.object.function_addrs[next],
                    }
                }
            },
            Some(s) => {
                let target = self.object.block_addrs[fid][s];
                let fallthrough = self.object.layout_next[fid][block] == Some(s);
                if blk.indirect_dispatch {
                    BranchInfo { kind: BranchKind::Indirect, taken: true, target }
                } else if blk.successors.len() >= 2 {
                    if fallthrough {
                        // Not-taken conditional; record the alternative
                        // target for completeness.
                        let alt = blk
                            .successors
                            .iter()
                            .map(|&(a, _)| a)
                            .find(|&a| a != s)
                            .map_or(pc + 4, |a| self.object.block_addrs[fid][a]);
                        BranchInfo { kind: BranchKind::Conditional, taken: false, target: alt }
                    } else {
                        BranchInfo { kind: BranchKind::Conditional, taken: true, target }
                    }
                } else {
                    BranchInfo { kind: BranchKind::Direct, taken: true, target }
                }
            }
        };
        out.emit(TraceInstr { pc, branch: Some(branch), mem: None, exec_stall: None });
    }

    /// Runs an external call inline: PLT stub, external body, return.
    fn emit_external_call(&mut self, out: &mut impl Sink, ext: usize, return_pc: VirtAddr) {
        let plt = self.object.plt_addrs[ext];
        let ext_addr = self.object.external_addrs[ext];
        // Stub: one setup instruction + indirect jump through the GOT.
        out.emit(TraceInstr {
            pc: plt,
            branch: None,
            mem: Some(MemOp {
                addr: VirtAddr::new(EXTERNAL_DATA_BASE + ext as u64 * 8),
                store: false,
            }),
            exec_stall: None,
        });
        out.emit(TraceInstr {
            pc: plt + 4,
            branch: Some(BranchInfo { kind: BranchKind::Indirect, taken: true, target: ext_addr }),
            mem: None,
            exec_stall: None,
        });
        // External body: straight-line code with library-ish data traffic.
        let bytes = self.program.external_functions[ext];
        let instrs = (bytes / 4).clamp(4, MAX_EXTERNAL_INSTRS);
        for i in 0..instrs - 1 {
            let mem = self.sample_mem(0.30, 0.12).map(|mut m| {
                // External code works on its own (small) buffers.
                m.addr = VirtAddr::new(EXTERNAL_DATA_BASE + 4096 + (m.addr.raw() % (48 << 10)));
                m
            });
            out.emit(TraceInstr { pc: ext_addr + i * 4, branch: None, mem, exec_stall: None });
        }
        out.emit(TraceInstr {
            pc: ext_addr + (instrs - 1) * 4,
            branch: Some(BranchInfo { kind: BranchKind::Return, taken: true, target: return_pc }),
            mem: None,
            exec_stall: None,
        });
    }

    /// Emits one block (or resumes after a call) into `out` and updates
    /// frames.
    fn step(&mut self, out: &mut impl Sink) {
        if self.frames.is_empty() {
            self.start_invocation();
        }
        let frame = *self.frames.last().expect("frame pushed above");
        let fid = frame.fid;
        let block = frame.block;

        match frame.phase {
            Phase::AfterCall { successor, term_slot } => {
                if let Some(slot) = term_slot {
                    let addr = self.object.block_addrs[fid][block] + u64::from(slot) * 4;
                    self.emit_terminator(out, addr, fid, block, successor, frame.return_pc);
                }
                self.transition(successor);
            }
            Phase::Body => {
                self.profile.record(fid, block);
                self.blocks_in_invocation = self.blocks_in_invocation.saturating_add(1);

                let successor = self.choose_successor(fid, block);
                let BlockInfo {
                    addr,
                    n,
                    is_entry,
                    is_ret_block,
                    load_density: load_d,
                    store_density: store_d,
                    scan,
                    dispatch,
                    call: block_call,
                    successor_count,
                    fallthrough,
                } = self.block_info(fid, block);

                let need_term = is_ret_block
                    || dispatch
                    || match successor {
                        Some(s) => successor_count >= 2 || fallthrough != Some(s),
                        None => true,
                    };
                // A return block never calls (builder invariant).
                let call = block_call
                    .filter(|_| !is_ret_block && self.frames.len() <= MAX_CALL_DEPTH && n >= 3);

                let term_slots = u32::from(need_term);
                let call_slots = u32::from(call.is_some());
                let body = n - (term_slots + call_slots).min(n - 1);

                // Body instructions.
                for i in 0..body {
                    let pc = addr + u64::from(i) * 4;
                    let mem = if is_entry && i == 0 {
                        // Prologue: spill to the stack frame.
                        Some(MemOp { addr: VirtAddr::new(self.stack_addr()), store: true })
                    } else if is_ret_block && i == 0 {
                        // Epilogue: reload from the stack frame.
                        Some(MemOp { addr: VirtAddr::new(self.stack_addr()), store: false })
                    } else if scan && i % 8 == 0 {
                        Some(MemOp {
                            addr: VirtAddr::new(self.scan_addr(fid, block, i, body, n)),
                            store: false,
                        })
                    } else if scan {
                        None
                    } else {
                        self.sample_mem(load_d, store_d)
                    };
                    let exec_stall = self.sample_stall();
                    out.emit(TraceInstr { pc, branch: None, mem, exec_stall });
                }

                if let Some(call_target) = call {
                    let call_pc = addr + u64::from(body) * 4;
                    let return_pc = call_pc + 4;
                    let term_slot = need_term.then_some(body + 1);
                    match call_target {
                        CallTarget::External(e) => {
                            out.emit(TraceInstr {
                                pc: call_pc,
                                branch: Some(BranchInfo {
                                    kind: BranchKind::Call,
                                    taken: true,
                                    target: self.object.plt_addrs[e],
                                }),
                                mem: None,
                                exec_stall: None,
                            });
                            self.emit_external_call(out, e, return_pc);
                            self.frames.last_mut().expect("frame").phase =
                                Phase::AfterCall { successor, term_slot };
                        }
                        other => match self.resolve_callee(fid, other) {
                            Some(callee) => {
                                let kind = if matches!(other, CallTarget::Indirect) {
                                    BranchKind::IndirectCall
                                } else {
                                    BranchKind::Call
                                };
                                out.emit(TraceInstr {
                                    pc: call_pc,
                                    branch: Some(BranchInfo {
                                        kind,
                                        taken: true,
                                        target: self.object.function_addrs[callee],
                                    }),
                                    mem: None,
                                    exec_stall: None,
                                });
                                self.frames.last_mut().expect("frame").phase =
                                    Phase::AfterCall { successor, term_slot };
                                self.frames.push(Frame {
                                    fid: callee,
                                    block: 0,
                                    phase: Phase::Body,
                                    return_pc: Some(return_pc),
                                });
                            }
                            None => {
                                // Unresolvable call: execute as a plain instr.
                                out.emit(TraceInstr {
                                    pc: call_pc,
                                    branch: None,
                                    mem: None,
                                    exec_stall: None,
                                });
                                if need_term {
                                    self.emit_terminator(
                                        out,
                                        call_pc + 4,
                                        fid,
                                        block,
                                        successor,
                                        frame.return_pc,
                                    );
                                }
                                self.transition(successor);
                            }
                        },
                    }
                } else {
                    if need_term {
                        let term_pc = addr + u64::from(body) * 4;
                        self.emit_terminator(out, term_pc, fid, block, successor, frame.return_pc);
                    }
                    self.transition(successor);
                }
            }
        }
    }

    /// Reads the block's per-visit scalar facts from the program and the
    /// object.
    fn block_info(&self, fid: usize, block: usize) -> BlockInfo {
        let blk = &self.program.functions[fid].blocks[block];
        BlockInfo {
            addr: self.object.block_addrs[fid][block],
            n: blk.instructions().max(1),
            is_entry: block == 0,
            is_ret_block: blk.successors.is_empty(),
            load_density: blk.load_density,
            store_density: blk.store_density,
            scan: blk.scan,
            dispatch: blk.indirect_dispatch,
            call: blk.call,
            successor_count: blk.successors.len(),
            fallthrough: self.object.layout_next[fid][block],
        }
    }

    fn resolve_callee(&mut self, fid: usize, target: CallTarget) -> Option<usize> {
        match target {
            CallTarget::Function(c) => Some(c),
            CallTarget::Indirect => {
                let callees = &self.program.functions[fid].indirect_callees;
                if callees.is_empty() {
                    None
                } else {
                    Some(callees[self.rng.gen_range(0..callees.len())])
                }
            }
            CallTarget::External(_) => None,
        }
    }

    fn transition(&mut self, successor: Option<usize>) {
        match successor {
            Some(s) => {
                let frame = self.frames.last_mut().expect("non-empty frames");
                frame.block = s;
                frame.phase = Phase::Body;
            }
            None => {
                self.frames.pop();
            }
        }
    }
}

impl Drop for TraceGenerator<'_> {
    fn drop(&mut self) {
        let handed_out = self.emitted - (self.pending.len() - self.cursor) as u64;
        if handed_out > 0 {
            trrip_obs::counter!("walk.instrs").add(handed_out);
        }
    }
}

impl Iterator for TraceGenerator<'_> {
    type Item = TraceInstr;

    fn next(&mut self) -> Option<TraceInstr> {
        if self.cursor == self.pending.len() {
            self.refill();
        }
        let instr = self.pending[self.cursor];
        self.cursor += 1;
        Some(instr)
    }
}

/// Instructions handed over per [`TraceSource::next_batch`] call: exactly
/// this many, a [`TraceGenerator::fill`] of them, whatever the blocks —
/// so what a puller holds back of its last batch, and with it the
/// pending part of a [`WalkerState`] handed out at a boundary, is the
/// same whichever way the walker steps.
const SOURCE_BATCH: usize = 1024;

impl trrip_trace::TraceSource for TraceGenerator<'_> {
    /// The walker as a live trace source: generation instead of disk
    /// replay, behind the same interface the simulator consumes. Never
    /// exhausts — callers bound it by instruction count.
    fn next_batch(&mut self, out: &mut Vec<TraceInstr>) -> usize {
        self.fill(out, SOURCE_BATCH);
        SOURCE_BATCH
    }
}

/// Deterministic hash to `[0, 1)` — the per-edge eval-input shift.
fn hash01(a: u64, b: u64, seed: u64) -> f64 {
    let mut x = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
        .wrapping_add(seed);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build_program;
    use crate::spec::WorkloadSpec;
    use trrip_compiler::Linker;

    fn setup(spec: &WorkloadSpec) -> (Program, ObjectFile) {
        let program = build_program(spec);
        let object = Linker::new().link_source_order(&program);
        (program, object)
    }

    #[test]
    fn trace_is_deterministic() {
        let spec = WorkloadSpec::named("t");
        let (p, o) = setup(&spec);
        let a: Vec<_> = TraceGenerator::new(&p, &o, &spec, InputSet::Train).take(5000).collect();
        let b: Vec<_> = TraceGenerator::new(&p, &o, &spec, InputSet::Train).take(5000).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn train_and_eval_traces_differ() {
        let spec = WorkloadSpec::named("t");
        let (p, o) = setup(&spec);
        let a: Vec<_> = TraceGenerator::new(&p, &o, &spec, InputSet::Train).take(5000).collect();
        let b: Vec<_> = TraceGenerator::new(&p, &o, &spec, InputSet::Eval).take(5000).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn control_flow_is_consistent() {
        // Every PC discontinuity must be explained by a taken branch.
        let spec = WorkloadSpec::named("t");
        let (p, o) = setup(&spec);
        let trace: Vec<_> =
            TraceGenerator::new(&p, &o, &spec, InputSet::Train).take(50_000).collect();
        for (i, pair) in trace.windows(2).enumerate() {
            let expected = pair[0].next_pc();
            assert_eq!(
                pair[1].pc, expected,
                "discontinuity at instr {i}: {:?} -> {:?}",
                pair[0], pair[1]
            );
        }
    }

    #[test]
    fn profile_concentrates_on_rotation() {
        let mut spec = WorkloadSpec::named("t");
        spec.cold_visit_prob = 0.02;
        let (p, o) = setup(&spec);
        let mut generator = TraceGenerator::new(&p, &o, &spec, InputSet::Train);
        for _ in 0..200_000 {
            generator.next();
        }
        let profile = generator.into_profile();
        let max_counts = profile.function_max_counts();
        // Rotation functions (the scattered hot set) and their callees
        // dominate.
        let hot: std::collections::HashSet<usize> = spec.hot_set().into_iter().collect();
        let rotation_total: u64 =
            max_counts.iter().enumerate().filter(|(i, _)| hot.contains(i)).map(|(_, &c)| c).sum();
        let rest_total: u64 =
            max_counts.iter().enumerate().filter(|(i, _)| !hot.contains(i)).map(|(_, &c)| c).sum();
        assert!(
            rotation_total > rest_total,
            "rotation {rotation_total} should dominate rest {rest_total}"
        );
    }

    #[test]
    fn calls_balance_returns() {
        let spec = WorkloadSpec::named("t");
        let (p, o) = setup(&spec);
        let trace: Vec<_> =
            TraceGenerator::new(&p, &o, &spec, InputSet::Train).take(100_000).collect();
        let mut depth: i64 = 0;
        let mut min_depth: i64 = 0;
        for t in &trace {
            if let Some(b) = t.branch {
                match b.kind {
                    BranchKind::Call | BranchKind::IndirectCall => depth += 1,
                    BranchKind::Return => depth -= 1,
                    _ => {}
                }
            }
            min_depth = min_depth.min(depth);
        }
        // Returns never outnumber calls by more than the initial frame.
        assert!(min_depth >= -1, "unbalanced returns: {min_depth}");
    }

    #[test]
    fn memory_ops_follow_densities() {
        let mut spec = WorkloadSpec::named("t");
        spec.load_density = 0.3;
        spec.store_density = 0.1;
        let (p, o) = setup(&spec);
        let trace: Vec<_> =
            TraceGenerator::new(&p, &o, &spec, InputSet::Train).take(100_000).collect();
        let loads = trace.iter().filter(|t| t.mem.is_some_and(|m| !m.store)).count();
        let stores = trace.iter().filter(|t| t.mem.is_some_and(|m| m.store)).count();
        let lf = loads as f64 / trace.len() as f64;
        let sf = stores as f64 / trace.len() as f64;
        assert!((0.15..0.45).contains(&lf), "load fraction {lf}");
        assert!((0.04..0.25).contains(&sf), "store fraction {sf}");
    }

    #[test]
    fn data_addresses_fall_in_declared_regions() {
        let spec = WorkloadSpec::named("t");
        let (p, o) = setup(&spec);
        let trace: Vec<_> =
            TraceGenerator::new(&p, &o, &spec, InputSet::Train).take(50_000).collect();
        for t in &trace {
            if let Some(m) = t.mem {
                let a = m.addr.raw();
                let ok = (HOT_DATA_BASE..HOT_DATA_BASE + spec.hot_data_bytes).contains(&a)
                    || (WARM_DATA_BASE..WARM_DATA_BASE + spec.warm_data_bytes).contains(&a)
                    || (COLD_DATA_BASE..COLD_DATA_BASE + spec.cold_data_bytes).contains(&a)
                    || (EXTERNAL_DATA_BASE..EXTERNAL_DATA_BASE + (1 << 20)).contains(&a)
                    || (STACK_TOP - 16 * 256..STACK_TOP).contains(&a);
                assert!(ok, "address {a:#x} outside all regions");
            }
        }
    }

    #[test]
    fn pgo_layout_reduces_taken_branches() {
        // The PGO layout turns hot-path jumps into fall-throughs, so the
        // same walk takes fewer taken branches.
        let spec = WorkloadSpec::named("t");
        let program = build_program(&spec);
        let plain = Linker::new().link_source_order(&program);

        let mut generator = TraceGenerator::new(&program, &plain, &spec, InputSet::Train);
        for _ in 0..300_000 {
            generator.next();
        }
        let profile = generator.into_profile();
        let temps = trrip_compiler::classify_functions(
            &profile,
            trrip_core::ClassifierConfig::llvm_defaults(),
        );
        let pgo = Linker::new().link_pgo(&program, &profile, &temps);

        let count_taken = |object: &ObjectFile| -> usize {
            TraceGenerator::new(&program, object, &spec, InputSet::Eval)
                .take(200_000)
                .filter(|t| t.branch.is_some_and(|b| b.taken))
                .count()
        };
        let plain_taken = count_taken(&plain);
        let pgo_taken = count_taken(&pgo);
        assert!(
            pgo_taken <= plain_taken,
            "PGO should not increase taken branches: {pgo_taken} vs {plain_taken}"
        );
    }
}
