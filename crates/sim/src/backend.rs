//! The memory backend: MMU + hierarchy + prefetchers + profiling hooks.

use trrip_analysis::costly::CodeRegion;
use trrip_analysis::{CostlyMissTracker, ReuseProfiler};
use trrip_cache::{Hierarchy, NextLinePrefetcher, ServedBy, StridePrefetcher};
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
/// Every access is applied in full at the point the core issues it.
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
}

impl std::fmt::Debug for SystemBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SystemBackend")
            .field("hierarchy", &self.hierarchy)
            .field("inflight", &self.inflight.len())
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

    fn line_of(pa: PhysAddr) -> LineAddr {
        LineAddr(pa.raw() >> 6)
    }

    fn observe_l2(&mut self, pa: PhysAddr, hot: bool) {
        if let Some(reuse) = &mut self.reuse {
            reuse.observe(SystemBackend::line_of(pa), hot);
        }
    }

    /// Applies prefetch timeliness: if the line is still in flight, the
    /// demand access waits for the remaining cycles.
    fn timeliness(&mut self, pa: PhysAddr, raw_latency: u64, now: u64) -> u64 {
        let line = SystemBackend::line_of(pa).raw();
        match self.inflight.get(line) {
            Some(ready) if ready > now => raw_latency.max(ready - now),
            Some(_) => {
                self.inflight.remove(line);
                raw_latency
            }
            None => raw_latency,
        }
    }
}

/// Full architectural state of the memory system at a phase boundary:
/// MMU (page table + TLB), all four cache levels with their policy
/// state, the stride prefetcher table and the in-flight prefetch tracker.
/// The profilers are armed when measurement begins, never at a boundary,
/// and code-region maps and latencies are configuration (rebuilt by
/// [`SystemBackend::new`]): neither is part of the stream.
impl Snapshot for SystemBackend {
    fn save(&self, w: &mut SnapWriter) {
        assert!(
            self.reuse.is_none() && self.costly.is_none(),
            "profilers are armed for a measurement, never at a boundary"
        );
        w.tag(b"SYSB");
        self.mmu.save(w);
        self.hierarchy.save(w);
        self.data_stride.save(w);
        self.inflight.save(w);
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.expect_tag(b"SYSB")?;
        self.mmu.restore(r)?;
        self.hierarchy.restore(r)?;
        self.data_stride.restore(r)?;
        self.inflight.restore(r)?;
        self.stride_proposals.clear();
        self.next_line_proposals.clear();
        Ok(())
    }
}

impl MemoryBackend for SystemBackend {
    fn ifetch(&mut self, pc: VirtAddr, caused_starvation: bool, now: u64) -> MemLatency {
        // The MMU translation stays on the fast path: TLB hit/miss
        // statistics and page-walk state are architectural, and the
        // temperature attribute feeds the L1's (policy-visible) hit hook.
        let (pa, temperature) = self.mmu.translate(pc);
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
                let out = self.hierarchy.access_beyond_l1(&req);
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
        let req = MemoryRequest::load(pa, pc);
        let out = match self.hierarchy.access_l1(&req) {
            Some(out) => {
                self.fastpath_hits += 1;
                out
            }
            None => {
                self.fastpath_bails += 1;
                let out = self.hierarchy.access_beyond_l1(&req);
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
            self.hierarchy.prefetch(&MemoryRequest::load(self.stride_proposals[i], pc));
        }
        MemLatency {
            cycles: out.latency,
            l1_hit: out.served_by == ServedBy::L1,
            l2_miss: out.l2_miss(),
        }
    }

    fn dwrite(&mut self, addr: VirtAddr, pc: VirtAddr) -> MemLatency {
        let (pa, _) = self.mmu.translate(addr);
        let req = MemoryRequest::store(pa, pc);
        let out = match self.hierarchy.access_l1(&req) {
            Some(out) => {
                self.fastpath_hits += 1;
                out
            }
            None => {
                self.fastpath_bails += 1;
                let out = self.hierarchy.access_beyond_l1(&req);
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
}
