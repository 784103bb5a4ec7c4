//! The memory backend: the cell's TLB and loaded image, the hierarchy,
//! the instruction prefetchers and profiling hooks.
//!
//! What the instruction stream alone decides — the frame behind an
//! anonymous page, the stride prefetcher's proposals — is not worked out
//! here: a [`Resolver`] answers it, and which one is the backend's type.
//! A `SystemBackend<StreamView>` belongs to a run that pulls its own
//! stream: it owns the view and resolves through it inline
//! ([`SystemBackend::view`]). A `SystemBackend<Feed>` belongs to a
//! sweep's cell: it reads its view's column of each turn
//! ([`SystemBackend::feed`]). Either way the backend asks in the same
//! order, access by access.
//!
//! A demand access answers the core with its cycles: the level that
//! served it ([`ServedBy::cycles`]), raised to the arrival of a prefetch
//! of the line still in flight. The core reads only whether that exceeds
//! an L1 hit's cycles, and by how much.

use std::sync::Arc;

use trrip_analysis::costly::CodeRegion;
use trrip_analysis::{CostlyMissTracker, ReuseProfiler};
use trrip_cache::{Hierarchy, ServedBy};
use trrip_compiler::ObjectFile;
use trrip_cpu::MemoryBackend;
use trrip_mem::{LineAddr, MemoryRequest, PhysAddr, VirtAddr, LINE_BYTES};
use trrip_os::Mmu;
use trrip_snap::{SnapError, SnapReader, SnapWriter, Snapshot};

use crate::view::{Feed, NumberMap, Resolver, StreamView, ViewColumn};

/// Modelled FDIP/prefetch request-file depth: once more lines than this
/// are in flight, the prefetches that have landed are forgotten.
const MSHR_ENTRIES: usize = 512;

/// The most lines in flight at once: a prefetch of a new line while
/// this many are in flight is dropped, as when a request file is full.
/// Twice [`MSHR_ENTRIES`], since the lines still in flight can outnumber
/// the request file between expiry sweeps.
const INFLIGHT_LIMIT: usize = 2 * MSHR_ENTRIES;

/// Implements [`MemoryBackend`] over the full memory system.
///
/// Responsibilities beyond forwarding accesses:
///
/// * **Temperature attribution**: every request looks its page up in the
///   TLB, and an instruction fetch picks up the PTE's PBHA bits from the
///   machine's loaded image (Figure 4 ⑩–⑪).
/// * **Prefetching**: next-line instruction prefetch on L1-I demand
///   misses, per-PC stride prefetch on data loads (proposed by the
///   stream view, filled here), and FDIP prefetch requests from the
///   core. Prefetches fill caches immediately but their *timeliness* is
///   modelled: a demand fetch arriving before the prefetch would
///   physically complete pays the remaining latency. An instruction
///   prefetch into a page the loader did not map is dropped before it
///   touches the TLB or a cache (`cache.prefetch_unmapped_drop`): only
///   demand accesses allocate frames.
/// * **Profiling hooks**: the Figure 3 reuse profiler observes the L2
///   access stream; the Figure 7 tracker records costly instruction
///   misses with the code region they landed in.
///
/// Every access is applied in full at the point the core issues it.
pub struct SystemBackend<R> {
    mmu: Mmu,
    resolver: R,
    hierarchy: Hierarchy,
    /// Prefetched line → the cycle its fill completes.
    inflight: NumberMap,
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
}

impl<R> std::fmt::Debug for SystemBackend<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SystemBackend")
            .field("hierarchy", &self.hierarchy)
            .field("inflight", &self.inflight.len())
            .finish_non_exhaustive()
    }
}

impl<R> SystemBackend<R> {
    /// Builds the backend for a loaded object, at the stream's first
    /// instruction, resolving what the stream decides through `resolver`
    /// (a view standing there too, or an empty feed).
    #[must_use]
    pub fn new(mmu: Mmu, hierarchy: Hierarchy, object: &ObjectFile, resolver: R) -> Self {
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

        SystemBackend {
            mmu,
            resolver,
            hierarchy,
            inflight: NumberMap::default(),
            reuse: None,
            costly: None,
            code_regions,
            hot_range,
            fastpath_hits: 0,
            fastpath_bails: 0,
        }
    }

    /// Publishes the tallies accumulated since the last flush to the
    /// observability registry (`cache.l1_fastpath_*`) and resets them.
    /// Called at phase boundaries, never per access.
    pub fn flush_fastpath_counters(&mut self) {
        if self.fastpath_hits > 0 {
            trrip_obs::counter!("cache.l1_fastpath_hit").add(self.fastpath_hits);
            self.fastpath_hits = 0;
        }
        if self.fastpath_bails > 0 {
            trrip_obs::counter!("cache.l1_fastpath_bail").add(self.fastpath_bails);
            self.fastpath_bails = 0;
        }
    }

    /// Resets statistics after fast-forward and arms the measurement
    /// hooks requested by the config.
    pub fn arm_measurement(&mut self, measure_reuse: bool, track_costly: bool) {
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

    fn observe_l2(&mut self, pa: PhysAddr, hot: bool) {
        if let Some(reuse) = &mut self.reuse {
            reuse.observe(LineAddr::of(pa), hot);
        }
    }

    /// Applies prefetch timeliness: if the line is still in flight, the
    /// demand access waits for the remaining cycles.
    fn timeliness(&mut self, pa: PhysAddr, raw_latency: u64, now: u64) -> u64 {
        let line = LineAddr::of(pa).raw();
        match self.inflight.get(&line) {
            Some(&ready) if ready > now => raw_latency.max(ready - now),
            Some(_) => {
                self.inflight.remove(&line);
                raw_latency
            }
            None => raw_latency,
        }
    }

    /// Tracks a prefetch of `line` completing at `ready`, issued at
    /// `now`. The first prefetch of a line in flight wins, and one of a
    /// new line is dropped at [`INFLIGHT_LIMIT`]; past [`MSHR_ENTRIES`]
    /// lines only those still in flight after `now` are kept.
    fn track_prefetch(&mut self, line: u64, ready: u64, now: u64) {
        if self.inflight.len() < INFLIGHT_LIMIT {
            self.inflight.entry(line).or_insert(ready);
        }
        if self.inflight.len() > MSHR_ENTRIES {
            self.inflight.retain(|_, &mut ready| ready > now);
        }
    }

    /// The lines in flight with their ready cycles, in line order: the
    /// map's contents, never its layout.
    fn lines_in_flight(&self) -> Vec<(u64, u64)> {
        let mut lines: Vec<(u64, u64)> = self.inflight.iter().map(|(&l, &r)| (l, r)).collect();
        lines.sort_unstable();
        lines
    }

    /// One demand data access, resolved: the TLB lookup, then the
    /// hierarchy. Answers with the level that served it.
    #[inline]
    fn data_access(&mut self, addr: VirtAddr, req: &MemoryRequest) -> ServedBy {
        self.mmu.touch(addr);
        if self.hierarchy.access_l1(req) {
            self.fastpath_hits += 1;
            return ServedBy::L1;
        }
        self.fastpath_bails += 1;
        let served_by = self.hierarchy.access_beyond_l1(req);
        self.observe_l2(req.paddr, false);
        served_by
    }
}

impl SystemBackend<StreamView> {
    /// The view this machine, which pulls its own stream, resolves
    /// through.
    #[must_use]
    pub fn view(&self) -> &StreamView {
        &self.resolver
    }

    /// [`SystemBackend::view`], mutably: a whole-state restore replaces
    /// it.
    pub(crate) fn view_mut(&mut self) -> &mut StreamView {
        &mut self.resolver
    }
}

impl SystemBackend<Feed> {
    /// Reads what the stream decides from `column` — the column of this
    /// machine's page size of the turn it is about to execute — until
    /// [`SystemBackend::unfeed`].
    pub fn feed(&mut self, column: Arc<ViewColumn>) {
        self.resolver = Feed::new(column);
    }

    /// Lets go of the column of the turn just executed.
    ///
    /// # Panics
    ///
    /// Panics if the turn left part of its column unread: the records and
    /// the column disagree.
    pub fn unfeed(&mut self) {
        assert!(
            self.resolver.is_spent(),
            "a turn's column holds entries its records never asked for"
        );
        self.resolver = Feed::default();
    }
}

/// The policy-dependent state of the memory system at a phase boundary:
/// the TLB, all four cache levels with their policy state and the
/// in-flight prefetch tracker. What the stream alone decides — frames
/// and the stride table — is the view's, kept beside the predictor. The
/// profilers are armed when measurement begins, never at a boundary,
/// and code-region maps, the loaded image and latencies are
/// configuration (rebuilt by [`SystemBackend::new`]): neither is part of
/// the stream.
impl<R> Snapshot for SystemBackend<R> {
    fn save(&self, w: &mut SnapWriter) {
        assert!(
            self.reuse.is_none() && self.costly.is_none(),
            "profilers are armed for a measurement, never at a boundary"
        );
        w.tag(b"SYSB");
        self.mmu.save(w);
        self.hierarchy.save(w);
        let inflight = self.lines_in_flight();
        w.tag(b"INFL");
        w.usize(inflight.len());
        for (line, ready) in inflight {
            w.u64(line);
            w.u64(ready);
        }
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.expect_tag(b"SYSB")?;
        self.mmu.restore(r)?;
        self.hierarchy.restore(r)?;
        r.expect_tag(b"INFL")?;
        let len = r.usize()?;
        if len > INFLIGHT_LIMIT {
            return Err(SnapError::Corrupt(format!(
                "{len} lines in flight, more than {INFLIGHT_LIMIT}"
            )));
        }
        self.inflight.clear();
        for _ in 0..len {
            let line = r.u64()?;
            if self.inflight.insert(line, r.u64()?).is_some() {
                return Err(SnapError::Corrupt(format!("line {line:#x} in flight twice")));
            }
        }
        Ok(())
    }
}

impl<R: Resolver> MemoryBackend for SystemBackend<R> {
    fn ifetch(&mut self, pc: VirtAddr, caused_starvation: bool, now: u64) -> u64 {
        // The TLB lookup stays on the fast path: its statistics are
        // architectural, and the temperature attribute feeds the L1's
        // (policy-visible) hit hook.
        let (pa, temperature) = match self.mmu.translate(pc) {
            Some(translated) => translated,
            None => (self.resolver.fetch(pc), None),
        };
        let req = MemoryRequest::fetch(pa, pc)
            .with_temperature(temperature)
            .with_starvation(caused_starvation);
        let served_by = if self.hierarchy.access_l1(&req) {
            // Fast path: one L1-I set probe, nothing below is touched and
            // no prefetch/profiling machinery runs.
            self.fastpath_hits += 1;
            ServedBy::L1
        } else {
            self.fastpath_bails += 1;
            let served_by = self.hierarchy.access_beyond_l1(&req);
            self.observe_l2(pa, self.is_hot_code(pc));
            // Next-line instruction prefetch (Table 1's stride/next-line
            // prefetcher on the instruction side): the line after this.
            let next_pc = VirtAddr::new((pc.raw() / LINE_BYTES + 1) * LINE_BYTES);
            self.prefetch_ifetch(next_pc, now);
            if matches!(served_by, ServedBy::Slc | ServedBy::Dram) {
                let region = self.region_of(pc);
                if let Some(costly) = &mut self.costly {
                    costly.record(pc, served_by.cycles(), region);
                }
            }
            served_by
        };

        // Timeliness applies even to L1 hits: the line may have been
        // installed by a prefetch that is still physically in flight.
        self.timeliness(pa, served_by.cycles(), now)
    }

    fn dread(&mut self, addr: VirtAddr, pc: VirtAddr) -> u64 {
        let pa = self.resolver.data(addr, pc, false);
        let served_by = self.data_access(addr, &MemoryRequest::load(pa, pc));
        // The stride prefetcher trained on the demand stream — hits too —
        // in the view; its proposals fill this machine's caches.
        for &proposal in self.resolver.proposals() {
            self.hierarchy.prefetch(&MemoryRequest::load(proposal, pc));
        }
        served_by.cycles()
    }

    fn dwrite(&mut self, addr: VirtAddr, pc: VirtAddr) {
        let pa = self.resolver.data(addr, pc, true);
        self.data_access(addr, &MemoryRequest::store(pa, pc));
    }

    fn prefetch_ifetch(&mut self, pc: VirtAddr, now: u64) {
        let Some((pa, temperature)) = self.mmu.loaded(pc) else {
            trrip_obs::counter!("cache.prefetch_unmapped_drop").incr();
            return;
        };
        self.mmu.touch(pc);
        let line = LineAddr::of(pa);
        let req = MemoryRequest::fetch(pa, pc).with_temperature(temperature);
        let level = self.hierarchy.probe(line);
        if level == ServedBy::L1 {
            return; // already resident
        }
        self.hierarchy.prefetch(&req);
        self.track_prefetch(line.raw(), now + level.cycles(), now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use trrip_cache::HierarchyConfig;
    use trrip_compiler::{Linker, Program};
    use trrip_os::{Loader, TlbStats};
    use trrip_policies::PolicyKind;
    use trrip_workloads::{build_program, WorkloadSpec};

    fn setup() -> (Program, ObjectFile, SystemBackend<StreamView>) {
        let mut spec = WorkloadSpec::named("backend-test");
        spec.functions = 40;
        spec.hot_rotation = 8;
        let program = build_program(&spec);
        let object = Linker::new().link_source_order(&program);
        let config = SimConfig::quick(PolicyKind::Srrip);
        let image = Loader::new(config.page_size).load(&object);
        let mmu = Mmu::new(&image.page_table);
        let hierarchy = Hierarchy::new(&HierarchyConfig::paper(PolicyKind::Srrip));
        let view = StreamView::new(&object, config.page_size);
        let backend = SystemBackend::new(mmu, hierarchy, &object, view);
        (program, object, backend)
    }

    /// An instruction prefetch into a page the loader did not map is
    /// dropped before the TLB or a cache sees it, and counted; one into
    /// a loaded page is not.
    #[test]
    fn a_prefetch_off_the_loaded_image_is_dropped_and_counted() {
        let (_p, object, mut b) = setup();
        let before = trrip_obs::snapshot();
        b.prefetch_ifetch(VirtAddr::new(0x9000_0000), 0);
        let moved = trrip_obs::snapshot().since(&before);
        assert_eq!(moved.get("cache.prefetch_unmapped_drop"), 1);
        assert_eq!(b.mmu().tlb_stats(), TlbStats::default(), "no TLB lookup");
        let untouched = |b: &SystemBackend<StreamView>| {
            let h = b.hierarchy();
            [*h.l1i().stats(), *h.l2().stats(), *h.slc().stats()]
        };
        assert_eq!(untouched(&b), untouched(&setup().2), "no cache saw it");
        // The page stays unmapped for prefetches even once a demand
        // access has allocated it.
        b.dread(VirtAddr::new(0x9000_0000), object.function_addrs[0]);
        let tlb = b.mmu().tlb_stats();
        b.prefetch_ifetch(VirtAddr::new(0x9000_0040), 0);
        assert_eq!(b.mmu().tlb_stats(), tlb);

        let before = trrip_obs::snapshot();
        b.prefetch_ifetch(object.function_addrs[1], 0);
        assert_eq!(trrip_obs::snapshot().since(&before).get("cache.prefetch_unmapped_drop"), 0);
        assert_eq!(b.mmu().tlb_stats().misses, tlb.misses + 1, "a loaded page is looked up");
    }

    #[test]
    fn demand_fetch_miss_then_hit() {
        let (_p, object, mut b) = setup();
        let pc = object.function_addrs[0];
        assert_eq!(b.ifetch(pc, false, 0), ServedBy::Dram.cycles(), "a cold miss reaches DRAM");
        assert_eq!(b.ifetch(pc, false, 1000), ServedBy::L1.cycles());
    }

    /// An L1-I demand miss prefetches the line after it into the L1-I,
    /// and no further.
    #[test]
    fn an_instruction_miss_prefetches_the_next_line_only() {
        let (_p, object, mut b) = setup();
        let pc = VirtAddr::new(object.function_addrs[0].raw() / LINE_BYTES * LINE_BYTES);
        let line = |b: &SystemBackend<StreamView>, k: u64| {
            let va = VirtAddr::new(pc.raw() + k * LINE_BYTES);
            LineAddr::of(b.mmu().loaded(va).expect("a line of the loaded image").0)
        };
        let (next, after) = (line(&b, 1), line(&b, 2));
        let in_l1i =
            |b: &SystemBackend<StreamView>, line| b.hierarchy().probe(line) == ServedBy::L1;
        assert!(!in_l1i(&b, next) && !in_l1i(&b, after), "a cold L1-I");
        assert!(b.ifetch(pc, false, 0) > ServedBy::L1.cycles(), "a demand miss");
        assert!(in_l1i(&b, next), "the next line was prefetched into the L1-I");
        assert!(!in_l1i(&b, after), "the line after it was not");
    }

    #[test]
    fn prefetch_hides_latency_only_after_arrival() {
        let (_p, object, mut b) = setup();
        let pc = object.function_addrs[1];
        b.prefetch_ifetch(pc, 0);
        // Demand fetch immediately after: line filled but still in
        // flight — pays most of the latency.
        let early = b.ifetch(pc, false, 5);
        assert_eq!(early, ServedBy::Dram.cycles() - 5, "an in-flight prefetch cannot be free");
        // Much later: the prefetch has landed.
        let pc2 = object.function_addrs[2];
        b.prefetch_ifetch(pc2, 0);
        let late = b.ifetch(pc2, false, 10_000);
        assert_eq!(late, ServedBy::L1.cycles(), "an arrived prefetch is an L1 hit");
    }

    #[test]
    fn the_first_prefetch_of_a_line_keeps_its_ready_cycle() {
        let (_p, _o, mut b) = setup();
        b.track_prefetch(7, 300, 0);
        b.track_prefetch(7, 900, 10);
        assert_eq!(b.lines_in_flight(), [(7, 300)]);
    }

    #[test]
    fn a_new_line_is_dropped_at_the_limit() {
        let (_p, _o, mut b) = setup();
        for line in 0..INFLIGHT_LIMIT as u64 {
            b.track_prefetch(line, 1_000 + line, 0); // none lands before 1 000
        }
        assert_eq!(b.inflight.len(), 1_024);
        b.track_prefetch(5_000, 2_000, 0);
        assert_eq!(b.inflight.len(), 1_024);
        assert!(!b.inflight.contains_key(&5_000), "a full request file drops the prefetch");
    }

    #[test]
    fn past_the_request_file_only_lines_still_in_flight_are_kept() {
        let (_p, _o, mut b) = setup();
        for line in 0..MSHR_ENTRIES as u64 {
            b.track_prefetch(line, line, 0);
        }
        assert_eq!(b.inflight.len(), 512, "at 512 nothing is forgotten");
        b.track_prefetch(5_000, 2_000, 300);
        let kept = b.lines_in_flight();
        assert_eq!(kept.len(), 512 - 301 + 1, "lines ready by cycle 300 are forgotten");
        assert_eq!(kept[0], (301, 301), "ready at `now` is landed");
        assert_eq!(kept.last(), Some(&(5_000, 2_000)));
    }

    /// The `INFL` section that ends a saved backend.
    fn infl_section(lines: &[(u64, u64)]) -> SnapWriter {
        let mut w = SnapWriter::new();
        w.tag(b"INFL");
        w.usize(lines.len());
        for &(line, ready) in lines {
            w.u64(line);
            w.u64(ready);
        }
        w
    }

    /// A saved backend: its `SYSB` tag, MMU and hierarchy, then `tail`.
    fn saved_with(tail: &SnapWriter) -> Vec<u8> {
        let (_p, _o, b) = setup();
        let mut w = SnapWriter::new();
        w.tag(b"SYSB");
        b.mmu.save(&mut w);
        b.hierarchy.save(&mut w);
        let mut bytes = w.bytes().to_vec();
        bytes.extend_from_slice(tail.bytes());
        bytes
    }

    #[test]
    fn the_infl_section_is_in_line_order_and_round_trips() {
        let (_p, _o, mut b) = setup();
        for line in [90, 3, 41, 7_000, 12] {
            b.track_prefetch(line, 500 + line, 0);
        }
        let mut w = SnapWriter::new();
        b.save(&mut w);
        let sorted = [(3, 503), (12, 512), (41, 541), (90, 590), (7_000, 7_500)];
        assert_eq!(w.bytes(), saved_with(&infl_section(&sorted)), "sorted by line");

        let (_p, _o, mut restored) = setup();
        restored.track_prefetch(55, 66, 0); // forgotten by the restore
        restored.restore(&mut SnapReader::new(w.bytes())).expect("restore");
        assert_eq!(restored.lines_in_flight(), sorted);
    }

    #[test]
    fn a_restore_refuses_too_many_lines_or_a_repeated_one() {
        let too_many: Vec<(u64, u64)> = (0..=INFLIGHT_LIMIT as u64).map(|l| (l, 1)).collect();
        for (lines, what) in [(too_many, "1 025 lines"), (vec![(5, 1), (5, 2)], "line 5 twice")] {
            let bytes = saved_with(&infl_section(&lines));
            let (_p, _o, mut b) = setup();
            let refused = b.restore(&mut SnapReader::new(&bytes));
            assert!(matches!(refused, Err(SnapError::Corrupt(_))), "{what}: {refused:?}");
        }
    }

    #[test]
    fn stride_prefetcher_cuts_streaming_misses() {
        let (_p, _o, mut b) = setup();
        let pc = VirtAddr::new(0x40_0000);
        // Stream loads at a fixed 256-byte stride.
        let mut slow = 0u64;
        for i in 0..200u64 {
            if b.dread(VirtAddr::new(0x9000_0000 + i * 256), pc) != ServedBy::L1.cycles() {
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
}
