//! The memory backend: MMU + hierarchy + prefetchers + profiling hooks.

use trrip_analysis::costly::CodeRegion;
use trrip_analysis::{CostlyMissTracker, ReuseProfiler};
use trrip_cache::{AccessOutcome, Hierarchy, NextLinePrefetcher, ServedBy, StridePrefetcher};
use trrip_compiler::ObjectFile;
use trrip_cpu::{MemLatency, MemoryBackend};
use trrip_mem::{LineAddr, MemoryRequest, PhysAddr, VirtAddr};
use trrip_os::Mmu;
use trrip_snap::{SnapError, SnapReader, SnapWriter, Snapshot};

use crate::config::SimConfig;
use crate::inflight::InflightTable;

/// Modelled FDIP/prefetch request-file depth: crossing it triggers the
/// expiry sweep, as the old 512-entry `HashMap` cap did. The
/// [`InflightTable`] itself keeps 2× headroom above this (see its docs):
/// the `HashMap` it replaces could overshoot the cap with unexpired
/// entries between sweeps, and the headroom preserves that behavior for
/// any realistic burst instead of dropping requests at exactly 512.
const MSHR_ENTRIES: usize = 512;

/// Default depth of the deferred miss batch before a capacity flush.
const DEFAULT_BATCH_CAPACITY: usize = 64;

/// Upper bound on conflict-class count (and the size of the pending-class
/// bitmap). The effective class count is the minimum set count across the
/// four cache levels, capped here.
const MAX_CONFLICT_CLASSES: usize = 256;

/// One unit of beyond-L1 work deferred by the miss batch. Each variant
/// replays *exactly* the mutation sequence the synchronous path would
/// have performed at the op's program point; everything a later
/// instruction could architecturally read before the flush (MMU state,
/// L1 contents, latencies, Top-Down inputs) was already computed eagerly
/// when the op was deferred.
#[derive(Debug, Clone, Copy)]
enum DeferredOp {
    /// A stride-prefetcher proposal (`hierarchy.prefetch` only).
    StridePrefetch { req: MemoryRequest },
    /// An FDIP/next-line instruction prefetch: probe, fill, and
    /// in-flight tracking (the whole `prefetch_ifetch` body after
    /// translation, which ran eagerly). `predicted` carries the
    /// defer-time probe outcome when the line's conflict class had no
    /// pending op — no earlier queued op can touch the class's sets, so
    /// the probe result is already the replay-time result. `None` means
    /// the class was pending and replay must re-probe.
    FdipPrefetch { req: MemoryRequest, line: u64, now: u64, predicted: Option<(ServedBy, u64)> },
    /// Retirement of a landed in-flight prefetch entry observed by the
    /// timeliness check. Relies on [`InflightTable::remove`] being a
    /// no-op for untracked lines.
    InflightRemove { line: u64 },
}

impl DeferredOp {
    fn line(&self) -> u64 {
        match *self {
            DeferredOp::StridePrefetch { req } => req.paddr.raw() >> 6,
            DeferredOp::FdipPrefetch { line, .. } | DeferredOp::InflightRemove { line } => line,
        }
    }
}

/// The in-flight-table mutation a deferred op performs, split out by the
/// set-sorted drain: cache mutations group by conflict class, but the
/// in-flight table is global, order-sensitive state (insert-if-absent
/// semantics, the MSHR-pressure prune) and must be replayed in original
/// FIFO order.
#[derive(Debug, Clone, Copy)]
enum InflightAction {
    None,
    Insert { line: u64, ready: u64, now: u64 },
    Remove { line: u64 },
}

/// Implements [`MemoryBackend`] over the full memory system.
///
/// Responsibilities beyond forwarding accesses:
///
/// * **Temperature attribution**: every request translates through the
///   MMU and picks up the PTE's PBHA bits (Figure 4 ⑩–⑪).
/// * **Prefetching**: next-line instruction prefetch on L1-I demand
///   misses, per-PC stride prefetch on data accesses, and FDIP prefetch
///   requests from the core. Prefetches fill caches immediately but
///   their *timeliness* is modelled: a demand fetch arriving before the
///   prefetch would physically complete pays the remaining latency.
/// * **Profiling hooks**: the Figure 3 reuse profiler observes the L2
///   access stream; the Figure 7 tracker records costly instruction
///   misses with the code region they landed in.
///
/// # The deferred miss-batch pipeline
///
/// With batching on (the default), demand accesses still ride
/// [`Hierarchy::access_l1`] for the 97.5% that hit the L1 (measured:
/// `cache.l1_fastpath_hit_ratio`), but the follow-on work of a bail —
/// the FDIP/next-line prefetch train, stride-prefetch fills, and
/// in-flight retirements — is not executed synchronously: it
/// is packaged as [`DeferredOp`]s and queued, while everything the
/// current instruction needs *now* (the demand's access outcome,
/// profiler observations, Top-Down inputs, prefetch timeliness) is
/// computed eagerly at the same program point the synchronous path
/// would have. The demand walk itself is a flush seam, not a deferred
/// op: it reads and advances globally ordered policy state (PSEL, SHCT,
/// Random's RNG), so the queue drains first and the walk then applies
/// synchronously — exactly the sync path, with no pre-probe to pay.
///
/// Correctness rests on a **conflict-class guard**: each line maps to a
/// class (`line mod G`, where `G` divides every level's set count, so a
/// deferred op's entire footprint — fills, victims, SLC spills,
/// writebacks — stays inside its own class). Deferring an op marks its
/// class pending; every demand entry checks its line's class and flushes
/// the queue first on a match. Between flush seams, eager reads
/// therefore only ever touch cache sets and in-flight entries no pending
/// op can reach, and the flush replays ops in strict FIFO order — the
/// exact synchronous mutation sequence, bit-identical snapshots included
/// (the LRU recency clock is per-set for the same reason; see
/// `trrip_policies::Lru`).
///
/// Flush seams: entry-guard conflict (the FDIP-window dependency seam),
/// queue capacity, MSHR pressure (in-flight + pending prefetches exceed
/// the request-file depth), the core's batch boundary
/// ([`MemoryBackend::flush_deferred`]), and every phase boundary
/// ([`SystemBackend::flush_fastpath_counters`]).
pub struct SystemBackend {
    mmu: Mmu,
    hierarchy: Hierarchy,
    data_stride: StridePrefetcher,
    /// Reused proposal buffer for [`StridePrefetcher::propose_into`]
    /// (append contract: cleared here, filled there).
    stride_proposals: Vec<PhysAddr>,
    next_line: NextLinePrefetcher,
    /// Reused proposal buffer for [`NextLinePrefetcher::propose_into`].
    next_line_proposals: Vec<LineAddr>,
    inflight: InflightTable,
    l1_latency: u64,
    reuse: Option<ReuseProfiler>,
    costly: Option<CostlyMissTracker>,
    code_regions: Vec<(u64, u64, CodeRegion)>,
    hot_range: Option<(u64, u64)>,
    /// L1 fast-path counters, kept as plain fields on the per-access
    /// path and published to the `trrip-obs` registry only at phase
    /// boundaries ([`SystemBackend::flush_fastpath_counters`]) — shared
    /// atomic counters would put cross-thread traffic on the hottest
    /// loop in the simulator.
    fastpath_hits: u64,
    fastpath_bails: u64,
    /// Deferred miss-batch state. `class_mask` is `G - 1`;
    /// `pending_classes` is the bitmap of classes with queued ops.
    batching: bool,
    batch_capacity: usize,
    batch: Vec<DeferredOp>,
    /// Whether a flush may drain the queue grouped by conflict class
    /// instead of strict FIFO (on by default; effective only when every
    /// level's policy is set-local — `set_local_hierarchy`, fixed at
    /// construction).
    set_sorted: bool,
    set_local_hierarchy: bool,
    /// Scratch for the set-sorted drain (sort order + per-op in-flight
    /// actions), kept across flushes to avoid reallocation.
    sort_scratch: Vec<u32>,
    action_scratch: Vec<InflightAction>,
    pending_classes: [u64; MAX_CONFLICT_CLASSES / 64],
    pending_fdip: usize,
    class_mask: u64,
    /// Miss-batch counters (same plain-field discipline as the fast-path
    /// tallies): flushes of a non-empty queue, total deferred ops, and
    /// ops that shared a conflict class with their queue predecessor
    /// (the grouping the flush exploits for locality).
    mb_flushes: u64,
    mb_deferred: u64,
    mb_group_len: u64,
}

impl std::fmt::Debug for SystemBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SystemBackend")
            .field("hierarchy", &self.hierarchy)
            .field("inflight", &self.inflight.len())
            .field("deferred", &self.batch.len())
            .finish_non_exhaustive()
    }
}

impl SystemBackend {
    /// Builds the backend for a loaded object.
    #[must_use]
    pub fn new(
        mmu: Mmu,
        hierarchy: Hierarchy,
        object: &ObjectFile,
        config: &SimConfig,
    ) -> SystemBackend {
        let mut code_regions = Vec::new();
        let mut hot_range = None;
        for s in &object.sections {
            if !s.executable {
                continue;
            }
            let range = (s.base.raw(), s.base.raw() + s.size_bytes);
            let region = match s.name.as_str() {
                ".text.hot" => {
                    hot_range = Some(range);
                    CodeRegion::Hot
                }
                ".text.warm" | ".text" => CodeRegion::Warm,
                ".text.cold" => CodeRegion::Cold,
                _ => CodeRegion::External, // .plt, .text.external
            };
            code_regions.push((range.0, range.1, region));
        }
        code_regions.sort_unstable_by_key(|&(start, _, _)| start);

        // Conflict classes must divide every level's set count so that a
        // deferred op's whole footprint (its L1/L2/SLC sets, victims and
        // spills included) stays within one class.
        let classes = hierarchy
            .l1i()
            .config()
            .num_sets()
            .min(hierarchy.l1d().config().num_sets())
            .min(hierarchy.l2().config().num_sets())
            .min(hierarchy.slc().config().num_sets())
            .min(MAX_CONFLICT_CLASSES);

        let set_local_hierarchy = hierarchy.replacement_is_set_local();
        SystemBackend {
            mmu,
            hierarchy,
            data_stride: StridePrefetcher::new(4096, 4),
            stride_proposals: Vec::new(),
            next_line: NextLinePrefetcher::new(1),
            next_line_proposals: Vec::new(),
            inflight: InflightTable::new(MSHR_ENTRIES),
            l1_latency: config.hierarchy.l1i.data_latency,
            reuse: None,
            costly: None,
            code_regions,
            hot_range,
            fastpath_hits: 0,
            fastpath_bails: 0,
            batching: true,
            batch_capacity: DEFAULT_BATCH_CAPACITY,
            batch: Vec::with_capacity(DEFAULT_BATCH_CAPACITY),
            set_sorted: true,
            set_local_hierarchy,
            sort_scratch: Vec::new(),
            action_scratch: Vec::new(),
            pending_classes: [0; MAX_CONFLICT_CLASSES / 64],
            pending_fdip: 0,
            class_mask: (classes - 1) as u64,
            mb_flushes: 0,
            mb_deferred: 0,
            mb_group_len: 0,
        }
    }

    /// Enables or disables the deferred miss batch (on by default). The
    /// synchronous path is retained verbatim as the equivalence oracle
    /// and for ablation; any queued work is flushed before switching.
    pub fn set_miss_batching(&mut self, enabled: bool) {
        self.flush_batch();
        self.batching = enabled;
    }

    /// Overrides the capacity-flush threshold (minimum 1). Equivalence
    /// tests use adversarially small capacities to exercise flushes at
    /// every possible program point.
    pub fn set_batch_capacity(&mut self, capacity: usize) {
        self.flush_batch();
        self.batch_capacity = capacity.max(1);
    }

    /// Enables or disables the set-sorted drain (on by default). When
    /// on — and every level's replacement policy is set-local — a flush
    /// replays the queue grouped by conflict class for set locality; the
    /// strict-FIFO drain is retained as the equivalence oracle and for
    /// ablation. Any queued work is flushed (under the outgoing mode)
    /// before switching.
    pub fn set_sorted_replay(&mut self, enabled: bool) {
        self.flush_batch();
        self.set_sorted = enabled;
    }

    /// Publishes the tallies accumulated since the last flush to the
    /// observability registry (`cache.l1_fastpath_*`,
    /// `cache.miss_batch.*`) and resets them, draining the deferred
    /// queue first. Called at phase boundaries, never per access.
    pub fn flush_fastpath_counters(&mut self) {
        self.flush_batch();
        if self.fastpath_hits > 0 {
            trrip_obs::counter!("cache.l1_fastpath_hit").add(self.fastpath_hits);
            self.fastpath_hits = 0;
        }
        if self.fastpath_bails > 0 {
            trrip_obs::counter!("cache.l1_fastpath_bail").add(self.fastpath_bails);
            self.fastpath_bails = 0;
        }
        if self.mb_flushes > 0 {
            trrip_obs::counter!("cache.miss_batch.flushes").add(self.mb_flushes);
            self.mb_flushes = 0;
        }
        if self.mb_deferred > 0 {
            trrip_obs::counter!("cache.miss_batch.deferred").add(self.mb_deferred);
            self.mb_deferred = 0;
        }
        if self.mb_group_len > 0 {
            trrip_obs::counter!("cache.miss_batch.group_len").add(self.mb_group_len);
            self.mb_group_len = 0;
        }
    }

    /// Resets statistics after fast-forward and arms the measurement
    /// hooks requested by the config.
    pub fn arm_measurement(&mut self, measure_reuse: bool, track_costly: bool) {
        self.flush_batch();
        self.hierarchy.reset_stats();
        if measure_reuse {
            let sets = self.hierarchy.l2().config().num_sets();
            self.reuse = Some(ReuseProfiler::new(sets));
        }
        if track_costly {
            self.costly = Some(CostlyMissTracker::new());
        }
    }

    /// The cache hierarchy (statistics live here).
    #[must_use]
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// Mutable access to the hierarchy (phase seams only — e.g. gating
    /// stats accumulation around functional warming).
    pub fn hierarchy_mut(&mut self) -> &mut Hierarchy {
        &mut self.hierarchy
    }

    /// The MMU (TLB statistics).
    #[must_use]
    pub fn mmu(&self) -> &Mmu {
        &self.mmu
    }

    /// Takes the reuse profiler, if armed.
    pub fn take_reuse(&mut self) -> Option<ReuseProfiler> {
        self.reuse.take()
    }

    /// Takes the costly-miss tracker, if armed.
    pub fn take_costly(&mut self) -> Option<CostlyMissTracker> {
        self.costly.take()
    }

    /// The armed reuse profiler, if any — read without disarming (shard
    /// segments tally profiler deltas while measurement continues).
    #[must_use]
    pub fn reuse(&self) -> Option<&ReuseProfiler> {
        self.reuse.as_ref()
    }

    /// The armed costly-miss tracker, if any — read without disarming.
    #[must_use]
    pub fn costly(&self) -> Option<&CostlyMissTracker> {
        self.costly.as_ref()
    }

    fn is_hot_code(&self, pc: VirtAddr) -> bool {
        self.hot_range.is_some_and(|(start, end)| pc.raw() >= start && pc.raw() < end)
    }

    fn region_of(&self, pc: VirtAddr) -> CodeRegion {
        let addr = pc.raw();
        self.code_regions
            .iter()
            .find(|&&(start, end, _)| addr >= start && addr < end)
            .map_or(CodeRegion::External, |&(_, _, r)| r)
    }

    fn line_of(pa: PhysAddr) -> LineAddr {
        LineAddr(pa.raw() >> 6)
    }

    fn observe_l2(&mut self, pa: PhysAddr, hot: bool) {
        if let Some(reuse) = &mut self.reuse {
            reuse.observe(SystemBackend::line_of(pa), hot);
        }
    }

    /// Entry guard for demand accesses: if any queued op's footprint
    /// shares this line's conflict class, the eager L1 probe / outcome
    /// prediction / timeliness check below could observe stale state —
    /// so the queue drains first. With FDIP prefetches in the queue this
    /// is exactly the "demand depends on an in-window prefetch" seam.
    #[inline]
    fn guard(&mut self, line: u64) {
        if !self.batch.is_empty() && self.class_pending(line) {
            self.flush_batch();
        }
    }

    /// Whether a queued op shares `line`'s conflict class — i.e. whether
    /// any pending replay could touch a cache set `line` maps to.
    #[inline]
    fn class_pending(&self, line: u64) -> bool {
        let class = line & self.class_mask;
        self.pending_classes[(class >> 6) as usize] & (1 << (class & 63)) != 0
    }

    #[inline]
    fn defer(&mut self, op: DeferredOp) {
        let class = op.line() & self.class_mask;
        self.pending_classes[(class >> 6) as usize] |= 1 << (class & 63);
        self.batch.push(op);
        self.mb_deferred += 1;
        if self.batch.len() >= self.batch_capacity {
            self.flush_batch();
        }
    }

    /// Drains the deferred queue — the synchronous path's exact mutation
    /// sequence, replayed either in strict FIFO order or (set-sorted
    /// drain) grouped by conflict class. Flushing is safe at *any*
    /// program point (the synchronous path had already applied these
    /// mutations by now); only deferring needs the class guard.
    fn flush_batch(&mut self) {
        if self.batch.is_empty() {
            return;
        }
        self.mb_flushes += 1;
        self.pending_classes = [0; MAX_CONFLICT_CLASSES / 64];
        self.pending_fdip = 0;
        let mut ops = std::mem::take(&mut self.batch);
        if self.set_sorted && self.set_local_hierarchy && ops.len() > 1 {
            self.drain_set_sorted(&ops);
        } else {
            let mut prev_class = u64::MAX;
            for &op in &ops {
                let class = op.line() & self.class_mask;
                if class == prev_class {
                    self.mb_group_len += 1;
                }
                prev_class = class;
                self.replay(op);
            }
        }
        ops.clear();
        self.batch = ops; // keep the allocation
    }

    /// The set-sorted drain: replays the queue's **cache** mutations
    /// grouped by conflict class (a stable sort, so intra-class FIFO
    /// order — the only order cache state can observe when every
    /// policy is set-local, since distinct classes touch disjoint sets
    /// at every level), then applies the **in-flight-table** mutations
    /// in original FIFO order (that table is global, order-sensitive
    /// state). Bit-identical to the FIFO drain by construction; the
    /// grouping buys set locality — consecutive ops hit the same sets'
    /// tag and policy words.
    fn drain_set_sorted(&mut self, ops: &[DeferredOp]) {
        self.sort_scratch.clear();
        self.sort_scratch.extend(0..ops.len() as u32);
        let mask = self.class_mask;
        self.sort_scratch.sort_by_key(|&i| ops[i as usize].line() & mask);
        self.action_scratch.clear();
        self.action_scratch.resize(ops.len(), InflightAction::None);

        let order = std::mem::take(&mut self.sort_scratch);
        let mut prev_class = u64::MAX;
        for &i in &order {
            let op = ops[i as usize];
            let class = op.line() & mask;
            if class == prev_class {
                self.mb_group_len += 1;
            }
            prev_class = class;
            match op {
                DeferredOp::StridePrefetch { req } => {
                    self.hierarchy.prefetch(&req);
                }
                DeferredOp::FdipPrefetch { req, line, now, predicted } => {
                    // Valid here exactly as in FIFO order: the
                    // prediction (or re-probe) depends only on
                    // same-class predecessors, whose relative order the
                    // stable sort preserves.
                    let (level, latency) = match predicted {
                        Some(outcome) => {
                            debug_assert_eq!(
                                outcome,
                                self.hierarchy.probe(LineAddr(line), true),
                                "deferred FDIP prefetch diverged from its probe prediction"
                            );
                            outcome
                        }
                        None => self.hierarchy.probe(LineAddr(line), true),
                    };
                    if level == ServedBy::L1 {
                        continue; // already resident
                    }
                    self.hierarchy.prefetch(&req);
                    self.action_scratch[i as usize] =
                        InflightAction::Insert { line, ready: now + latency, now };
                }
                DeferredOp::InflightRemove { line } => {
                    self.action_scratch[i as usize] = InflightAction::Remove { line };
                }
            }
        }
        self.sort_scratch = order;

        let actions = std::mem::take(&mut self.action_scratch);
        for &action in &actions {
            match action {
                InflightAction::None => {}
                InflightAction::Insert { line, ready, now } => {
                    self.inflight.insert_if_absent(line, ready);
                    // Bound the in-flight set (a real FDIP queue is
                    // small) — same pressure seam as the FIFO replay.
                    if self.inflight.len() > MSHR_ENTRIES {
                        self.inflight.prune_expired(now);
                    }
                }
                InflightAction::Remove { line } => {
                    self.inflight.remove(line);
                }
            }
        }
        self.action_scratch = actions;
    }

    fn replay(&mut self, op: DeferredOp) {
        match op {
            DeferredOp::StridePrefetch { req } => {
                self.hierarchy.prefetch(&req);
            }
            DeferredOp::FdipPrefetch { req, line, now, predicted } => {
                let (level, latency) = match predicted {
                    Some(outcome) => {
                        debug_assert_eq!(
                            outcome,
                            self.hierarchy.probe(LineAddr(line), true),
                            "deferred FDIP prefetch diverged from its probe prediction"
                        );
                        outcome
                    }
                    None => self.hierarchy.probe(LineAddr(line), true),
                };
                if level == ServedBy::L1 {
                    return; // already resident
                }
                self.hierarchy.prefetch(&req);
                self.inflight.insert_if_absent(line, now + latency);
                // Bound the in-flight set (a real FDIP queue is small).
                if self.inflight.len() > MSHR_ENTRIES {
                    self.inflight.prune_expired(now);
                }
            }
            DeferredOp::InflightRemove { line } => {
                self.inflight.remove(line);
            }
        }
    }

    /// The beyond-L1 walk for a demand bail: synchronous mutation, or a
    /// probe-predicted outcome with the mutation deferred.
    #[inline]
    fn beyond_l1(&mut self, req: &MemoryRequest) -> AccessOutcome {
        if self.batching {
            // A demand miss reads — and advances — globally ordered
            // policy state (DRRIP/CLIP PSEL, SHiP's SHCT, Random's RNG
            // stream), so everything queued ahead of it has to land
            // first: the demand miss is itself a flush seam. Applying
            // it synchronously afterwards is then exactly the sync
            // path, with no read-only pre-probe to pay for.
            self.flush_batch();
        }
        self.hierarchy.access_beyond_l1(req)
    }

    /// Applies prefetch timeliness: if the line is still in flight, the
    /// demand access waits for the remaining cycles.
    fn timeliness(&mut self, pa: PhysAddr, raw_latency: u64, now: u64) -> u64 {
        let line = SystemBackend::line_of(pa).raw();
        match self.inflight.get(line) {
            Some(ready) if ready > now => raw_latency.max(ready - now),
            Some(_) => {
                if self.batching {
                    self.defer(DeferredOp::InflightRemove { line });
                } else {
                    self.inflight.remove(line);
                }
                raw_latency
            }
            None => raw_latency,
        }
    }
}

/// Full architectural state of the memory system: MMU (page table +
/// TLB), all four cache levels with their policy state, the stride
/// prefetcher table, the in-flight prefetch tracker, and — when armed —
/// the measurement profilers. Code-region maps and latencies are
/// configuration (rebuilt by [`SystemBackend::new`]) and are not part of
/// the stream. The deferred queue is always empty at snapshot points
/// (every phase boundary drains it), so it has no encoding.
impl Snapshot for SystemBackend {
    fn save(&self, w: &mut SnapWriter) {
        debug_assert!(self.batch.is_empty(), "snapshot taken with a non-empty deferred miss batch");
        w.tag(b"SYSB");
        self.mmu.save(w);
        self.hierarchy.save(w);
        self.data_stride.save(w);
        self.inflight.save(w);
        match &self.reuse {
            Some(reuse) => {
                w.bool(true);
                reuse.save(w);
            }
            None => w.bool(false),
        }
        match &self.costly {
            Some(costly) => {
                w.bool(true);
                costly.save(w);
            }
            None => w.bool(false),
        }
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.expect_tag(b"SYSB")?;
        self.mmu.restore(r)?;
        self.hierarchy.restore(r)?;
        self.data_stride.restore(r)?;
        self.inflight.restore(r)?;
        self.stride_proposals.clear();
        self.next_line_proposals.clear();
        self.batch.clear();
        self.pending_classes = [0; MAX_CONFLICT_CLASSES / 64];
        self.pending_fdip = 0;
        self.reuse = if r.bool()? {
            let sets = self.hierarchy.l2().config().num_sets();
            let mut reuse = ReuseProfiler::new(sets);
            reuse.restore(r)?;
            Some(reuse)
        } else {
            None
        };
        self.costly = if r.bool()? {
            let mut costly = CostlyMissTracker::new();
            costly.restore(r)?;
            Some(costly)
        } else {
            None
        };
        Ok(())
    }
}

impl MemoryBackend for SystemBackend {
    fn ifetch(&mut self, pc: VirtAddr, caused_starvation: bool, now: u64) -> MemLatency {
        // The MMU translation stays on the fast path: TLB hit/miss
        // statistics and page-walk state are architectural, and the
        // temperature attribute feeds the L1's (policy-visible) hit hook.
        let (pa, temperature) = self.mmu.translate(pc);
        self.guard(SystemBackend::line_of(pa).raw());
        let req = MemoryRequest::fetch(pa, pc)
            .with_temperature(temperature)
            .with_starvation(caused_starvation);
        let out = match self.hierarchy.access_l1(&req) {
            // Fast path: one L1-I set probe, nothing below is touched and
            // no prefetch/profiling machinery runs.
            Some(out) => {
                self.fastpath_hits += 1;
                out
            }
            None => {
                self.fastpath_bails += 1;
                let out = self.beyond_l1(&req);
                self.observe_l2(pa, self.is_hot_code(pc));
                // Next-line instruction prefetch (Table 1's stride/next-line
                // prefetcher on the instruction side).
                let vline = pc.raw() >> 6;
                self.next_line_proposals.clear();
                let next_line = self.next_line;
                next_line.propose_into(LineAddr(vline), &mut self.next_line_proposals);
                for i in 0..self.next_line_proposals.len() {
                    let next_pc = VirtAddr::new(self.next_line_proposals[i].raw() << 6);
                    self.prefetch_ifetch(next_pc, now);
                }
                if out.l2_miss() {
                    let region = self.region_of(pc);
                    if let Some(costly) = &mut self.costly {
                        costly.record(pc, out.latency, region);
                    }
                }
                out
            }
        };

        // Timeliness applies even to L1 hits: the line may have been
        // installed by a prefetch that is still physically in flight.
        let cycles = self.timeliness(pa, out.latency, now);
        MemLatency {
            cycles,
            l1_hit: out.served_by == ServedBy::L1 && cycles <= self.l1_latency,
            l2_miss: out.l2_miss(),
        }
    }

    fn dread(&mut self, addr: VirtAddr, pc: VirtAddr) -> MemLatency {
        let (pa, _) = self.mmu.translate(addr);
        self.guard(SystemBackend::line_of(pa).raw());
        let req = MemoryRequest::load(pa, pc);
        let out = match self.hierarchy.access_l1(&req) {
            Some(out) => {
                self.fastpath_hits += 1;
                out
            }
            None => {
                self.fastpath_bails += 1;
                let out = self.beyond_l1(&req);
                self.observe_l2(pa, false);
                out
            }
        };
        // Stride prefetcher trains on the demand stream — on hits too,
        // so it runs after the fast path as well. The proposal buffer is
        // owned by the backend and reused every access (append contract:
        // cleared here, filled by `propose_into`).
        self.stride_proposals.clear();
        self.data_stride.propose_into(pc, pa, &mut self.stride_proposals);
        for i in 0..self.stride_proposals.len() {
            let preq = MemoryRequest::load(self.stride_proposals[i], pc);
            if self.batching {
                self.defer(DeferredOp::StridePrefetch { req: preq });
            } else {
                self.hierarchy.prefetch(&preq);
            }
        }
        MemLatency {
            cycles: out.latency,
            l1_hit: out.served_by == ServedBy::L1,
            l2_miss: out.l2_miss(),
        }
    }

    fn dwrite(&mut self, addr: VirtAddr, pc: VirtAddr) -> MemLatency {
        let (pa, _) = self.mmu.translate(addr);
        self.guard(SystemBackend::line_of(pa).raw());
        let req = MemoryRequest::store(pa, pc);
        let out = match self.hierarchy.access_l1(&req) {
            Some(out) => {
                self.fastpath_hits += 1;
                out
            }
            None => {
                self.fastpath_bails += 1;
                let out = self.beyond_l1(&req);
                self.observe_l2(pa, false);
                out
            }
        };
        MemLatency {
            cycles: out.latency,
            l1_hit: out.served_by == ServedBy::L1,
            l2_miss: out.l2_miss(),
        }
    }

    fn prefetch_ifetch(&mut self, pc: VirtAddr, now: u64) {
        let (pa, temperature) = self.mmu.translate(pc);
        let line = SystemBackend::line_of(pa);
        let req = MemoryRequest::fetch(pa, pc).with_temperature(temperature);
        if self.batching {
            // No entry guard needed: translation above is the only
            // eager read the sync path shares with later instructions.
            // When the line's conflict class has no pending op, the
            // probe commutes with everything already queued (different
            // class ⇒ different sets at every level), so run it now:
            // a resident line is a no-op on both paths and never
            // enqueues, and a non-resident probe outcome is carried to
            // the flush as a prediction instead of being recomputed.
            if !self.class_pending(line.raw()) {
                let outcome = self.hierarchy.probe(line, true);
                if outcome.0 == ServedBy::L1 {
                    return; // already resident
                }
                self.pending_fdip += 1;
                self.defer(DeferredOp::FdipPrefetch {
                    req,
                    line: line.raw(),
                    now,
                    predicted: Some(outcome),
                });
            } else {
                self.pending_fdip += 1;
                self.defer(DeferredOp::FdipPrefetch {
                    req,
                    line: line.raw(),
                    now,
                    predicted: None,
                });
            }
            // MSHR-pressure seam: don't let deferred prefetches pile up
            // past the modelled request-file depth.
            if self.inflight.len() + self.pending_fdip > MSHR_ENTRIES {
                self.flush_batch();
            }
            return;
        }
        let (level, latency) = self.hierarchy.probe(line, true);
        if level == ServedBy::L1 {
            return; // already resident
        }
        self.hierarchy.prefetch(&req);
        self.inflight.insert_if_absent(line.raw(), now + latency);
        // Bound the in-flight set (a real FDIP queue is small).
        if self.inflight.len() > MSHR_ENTRIES {
            self.inflight.prune_expired(now);
        }
    }

    fn flush_deferred(&mut self) {
        self.flush_batch();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use trrip_cache::HierarchyConfig;
    use trrip_compiler::{Linker, Program};
    use trrip_os::Loader;
    use trrip_policies::PolicyKind;
    use trrip_workloads::{build_program, WorkloadSpec};

    fn setup() -> (Program, ObjectFile, SystemBackend) {
        let mut spec = WorkloadSpec::named("backend-test");
        spec.functions = 40;
        spec.hot_rotation = 8;
        let program = build_program(&spec);
        let object = Linker::new().link_source_order(&program);
        let config = SimConfig::quick(PolicyKind::Srrip);
        let image = Loader::new(config.page_size).load(&object);
        let mmu = Mmu::new(image.page_table);
        let hierarchy = Hierarchy::new(&HierarchyConfig::paper(PolicyKind::Srrip));
        let backend = SystemBackend::new(mmu, hierarchy, &object, &config);
        (program, object, backend)
    }

    #[test]
    fn demand_fetch_miss_then_hit() {
        let (_p, object, mut b) = setup();
        let pc = object.function_addrs[0];
        let first = b.ifetch(pc, false, 0);
        assert!(!first.l1_hit);
        assert!(first.cycles > 100, "cold miss should reach DRAM");
        let second = b.ifetch(pc, false, 1000);
        assert!(second.l1_hit);
    }

    #[test]
    fn prefetch_hides_latency_only_after_arrival() {
        let (_p, object, mut b) = setup();
        let pc = object.function_addrs[1];
        b.prefetch_ifetch(pc, 0);
        // Demand fetch immediately after: line filled but still in
        // flight — pays most of the latency.
        let early = b.ifetch(pc, false, 5);
        assert!(!early.l1_hit);
        assert!(early.cycles > 100, "in-flight prefetch cannot be free: {}", early.cycles);
        // Much later: the prefetch has landed.
        let pc2 = object.function_addrs[2];
        b.prefetch_ifetch(pc2, 0);
        let late = b.ifetch(pc2, false, 10_000);
        assert!(late.l1_hit, "arrived prefetch should be an L1 hit");
    }

    #[test]
    fn stride_prefetcher_cuts_streaming_misses() {
        let (_p, _o, mut b) = setup();
        let pc = VirtAddr::new(0x40_0000);
        // Stream loads at a fixed 256-byte stride.
        let mut slow = 0u64;
        for i in 0..200u64 {
            let lat = b.dread(VirtAddr::new(0x9000_0000 + i * 256), pc);
            if !lat.l1_hit {
                slow += 1;
            }
        }
        // After training, prefetches cover the stream: misses stay low.
        assert!(slow < 60, "stride prefetcher ineffective: {slow} misses of 200");
    }

    #[test]
    fn costly_tracker_attributes_regions() {
        let (_p, object, mut b) = setup();
        b.arm_measurement(false, true);
        let pc = object.function_addrs[3];
        b.ifetch(pc, false, 0);
        let costly = b.take_costly().expect("armed");
        assert_eq!(costly.distinct_lines(), 1);
    }

    #[test]
    fn reuse_profiler_sees_l2_traffic() {
        let (_p, object, mut b) = setup();
        b.arm_measurement(true, false);
        let pc = object.function_addrs[0];
        b.ifetch(pc, false, 0);
        // L1 hit traffic must NOT reach the profiler.
        for _ in 0..10 {
            b.ifetch(pc, false, 100);
        }
        let _ = b.take_reuse().expect("armed");
        // (Counts are internal; reaching here without panic = wiring ok.)
        assert_eq!(b.hierarchy().l1i().stats().inst_misses, 1);
    }

    /// A mixed demand/prefetch stream driven through a batched and a
    /// synchronous backend lands on identical latencies and identical
    /// snapshot bytes — the deferred pipeline is architecturally
    /// invisible. (The full-policy sweep lives in the
    /// `miss_batch_equivalence` integration test.)
    #[test]
    fn batched_backend_matches_synchronous_oracle() {
        for capacity in [1usize, 3, 64] {
            let (_p, object, mut batched) = setup();
            let (_p2, _o2, mut sync) = setup();
            batched.set_batch_capacity(capacity);
            sync.set_miss_batching(false);

            let mut now = 0u64;
            for round in 0..6u64 {
                for (i, &pc) in object.function_addrs.iter().take(24).enumerate() {
                    let a = batched.ifetch(pc, i % 7 == 0, now);
                    let b = sync.ifetch(pc, i % 7 == 0, now);
                    assert_eq!(a, b, "ifetch {i} round {round}");
                    if i % 3 == 0 {
                        let addr = VirtAddr::new(0x9000_0000 + (i as u64) * 320 + round * 64);
                        assert_eq!(batched.dread(addr, pc), sync.dread(addr, pc), "dread {i}");
                    }
                    if i % 5 == 0 {
                        let addr = VirtAddr::new(0xa000_0000 + (i as u64) * 192);
                        assert_eq!(batched.dwrite(addr, pc), sync.dwrite(addr, pc), "dwrite {i}");
                    }
                    if i % 4 == 0 {
                        batched.prefetch_ifetch(pc, now);
                        sync.prefetch_ifetch(pc, now);
                    }
                    now += 9;
                }
            }
            batched.flush_deferred();
            let mut wa = SnapWriter::new();
            batched.save(&mut wa);
            let mut wb = SnapWriter::new();
            sync.save(&mut wb);
            assert_eq!(wa.bytes(), wb.bytes(), "snapshot bytes diverge at capacity {capacity}");
        }
    }
}
