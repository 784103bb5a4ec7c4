//! The Table 1 memory hierarchy.
//!
//! ```text
//!   core ──► L1-I (64 kB, 4-way, LRU) ─┐
//!       ──► L1-D (64 kB, 4-way, LRU) ─┤
//!                                      ▼
//!              L2 (128 kB/core, 8-way, policy under test, INCLUSIVE)
//!                                      ▼
//!              SLC (1 MB, 16-way, LRU, EXCLUSIVE victim cache)
//!                                      ▼
//!                          DRAM (flat 400-cycle latency)
//! ```
//!
//! Invariants maintained:
//!
//! * **L1 ⊆ L2** (inclusive): every L1 fill is preceded by an L2 fill, and
//!   every L2 eviction back-invalidates both L1s.
//! * **L2 ∩ SLC = ∅** (exclusive): lines enter the SLC only when evicted
//!   from L2, and are extracted from the SLC when promoted back to L2.
//!
//! Prefetch *orchestration* (deciding which lines to prefetch) lives above
//! this crate — the core/simulator issues [`Hierarchy::prefetch`] calls —
//! because prefetch addresses need MMU translation to pick up temperature
//! attributes.

use serde::{Deserialize, Serialize};
use trrip_mem::{LineAddr, MemoryRequest};
use trrip_policies::{Lru, PolicyKind};
use trrip_snap::{SnapError, SnapReader, SnapWriter, Snapshot};

use crate::cache::Cache;
use crate::config::CacheConfig;

/// Which level served a demand access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ServedBy {
    /// Hit in the private L1 (I or D).
    L1,
    /// Hit in the shared L2.
    L2,
    /// Hit in the system-level cache.
    Slc,
    /// Served from main memory.
    Dram,
}

/// Result of one demand access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Level that supplied the line.
    pub served_by: ServedBy,
    /// End-to-end load-to-use latency in cycles.
    pub latency: u64,
}

impl AccessOutcome {
    /// Whether the access missed the L2 (i.e. went to SLC or DRAM).
    #[must_use]
    pub fn l2_miss(&self) -> bool {
        matches!(self.served_by, ServedBy::Slc | ServedBy::Dram)
    }
}

/// Configuration of the full hierarchy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HierarchyConfig {
    /// L1 instruction cache geometry.
    pub l1i: CacheConfig,
    /// L1 data cache geometry.
    pub l1d: CacheConfig,
    /// Unified L2 geometry.
    pub l2: CacheConfig,
    /// System-level cache geometry.
    pub slc: CacheConfig,
    /// Flat DRAM access latency in cycles (Table 1: 400).
    pub dram_latency: u64,
    /// Replacement policy evaluated at the L2.
    pub l2_policy: PolicyKind,
}

impl HierarchyConfig {
    /// The paper's configuration with a chosen L2 policy.
    #[must_use]
    pub fn paper(l2_policy: PolicyKind) -> HierarchyConfig {
        HierarchyConfig {
            l1i: CacheConfig::paper_l1i(),
            l1d: CacheConfig::paper_l1d(),
            l2: CacheConfig::paper_l2(),
            slc: CacheConfig::paper_slc(),
            dram_latency: 400,
            l2_policy,
        }
    }

    /// Same configuration with a different L2 capacity (Figure 9a sweep).
    #[must_use]
    pub fn with_l2_size(mut self, size_bytes: u64) -> HierarchyConfig {
        self.l2 = CacheConfig::new(
            "L2",
            size_bytes,
            self.l2.ways,
            self.l2.tag_latency,
            self.l2.data_latency,
        );
        self
    }

    /// Same configuration with a different L2 associativity (Figure 9b).
    #[must_use]
    pub fn with_l2_ways(mut self, ways: usize) -> HierarchyConfig {
        self.l2 = CacheConfig::new(
            "L2",
            self.l2.size_bytes,
            ways,
            self.l2.tag_latency,
            self.l2.data_latency,
        );
        self
    }
}

/// The assembled three-level hierarchy plus DRAM. Table 1 fixes the
/// policy of the L1s and the SLC, so those levels hold their [`Lru`] by
/// value — a hit there stamps a way inline — and only the L2 holds the
/// boxed policy under test.
#[derive(Debug)]
pub struct Hierarchy {
    l1i: Cache<Lru>,
    l1d: Cache<Lru>,
    l2: Cache,
    slc: Cache<Lru>,
    dram_latency: u64,
}

impl Hierarchy {
    /// Builds the hierarchy: L1s and SLC run LRU (Table 1); the L2 runs
    /// the configured policy.
    #[must_use]
    pub fn new(config: &HierarchyConfig) -> Hierarchy {
        let lru = |cfg: &CacheConfig| Cache::new(cfg.clone(), Lru::new(cfg.num_sets(), cfg.ways));
        let l2 = &config.l2;
        Hierarchy {
            l1i: lru(&config.l1i),
            l1d: lru(&config.l1d),
            l2: Cache::new(l2.clone(), config.l2_policy.build(l2.num_sets(), l2.ways)),
            slc: lru(&config.slc),
            dram_latency: config.dram_latency,
        }
    }

    /// The L1 instruction cache.
    #[must_use]
    pub fn l1i(&self) -> &Cache<Lru> {
        &self.l1i
    }

    /// The L1 data cache.
    #[must_use]
    pub fn l1d(&self) -> &Cache<Lru> {
        &self.l1d
    }

    /// The unified L2.
    #[must_use]
    pub fn l2(&self) -> &Cache {
        &self.l2
    }

    /// The system-level cache.
    #[must_use]
    pub fn slc(&self) -> &Cache<Lru> {
        &self.slc
    }

    /// Resets all statistics (after warm-up / fast-forward).
    pub fn reset_stats(&mut self) {
        self.l1i.reset_stats();
        self.l1d.reset_stats();
        self.l2.reset_stats();
        self.slc.reset_stats();
    }

    /// Performs one demand access, updating every level it touches.
    pub fn access(&mut self, req: &MemoryRequest) -> AccessOutcome {
        match self.access_l1(req) {
            Some(outcome) => outcome,
            None => self.access_beyond_l1(req),
        }
    }

    /// The L1-hit fast path: probes only the L1 of the request's kind and
    /// returns `Some` on a hit, touching nothing below. On a miss the L1
    /// statistics have already recorded the demand miss — the caller must
    /// follow up with [`Hierarchy::access_beyond_l1`] (and nothing else)
    /// to finish the access.
    ///
    /// Split out so the simulator's backend can bail after one set probe
    /// on the 97.5% of demand accesses that hit the L1 (measured:
    /// `cache.l1_fastpath_hit_ratio` of the benchmark's `gcc` budget),
    /// skipping the request-dispatch and prefetch machinery of the full
    /// path. The probe itself is the same `Cache::access` call the slow
    /// path makes (stats + LRU stamp included), so outcomes are
    /// bit-identical.
    #[inline]
    pub fn access_l1(&mut self, req: &MemoryRequest) -> Option<AccessOutcome> {
        debug_assert!(!req.attrs.prefetch, "use prefetch() for prefetch traffic");
        let l1 = if req.kind.is_instruction() { &mut self.l1i } else { &mut self.l1d };
        if l1.access(req) {
            Some(AccessOutcome { served_by: ServedBy::L1, latency: l1.config().data_latency })
        } else {
            None
        }
    }

    /// Finishes a demand access that already missed the L1 (the
    /// [`Hierarchy::access_l1`] probe recorded the miss): probes
    /// L2 → SLC → DRAM and maintains inclusion/exclusion.
    pub fn access_beyond_l1(&mut self, req: &MemoryRequest) -> AccessOutcome {
        let line = self.l2.line_of(req);
        let is_instr = req.kind.is_instruction();
        let l1_tag =
            if is_instr { self.l1i.config().tag_latency } else { self.l1d.config().tag_latency };

        // L2 probe.
        if self.l2.access(req) {
            self.fill_l1(req);
            return AccessOutcome {
                served_by: ServedBy::L2,
                latency: l1_tag + self.l2.config().data_latency,
            };
        }

        // SLC probe (exclusive: a hit promotes the line to L2).
        if self.slc.access(req) {
            let latency = l1_tag + self.l2.config().tag_latency + self.slc.config().data_latency;
            let extracted = self.slc.extract(line);
            self.fill_l2(req);
            if let Some(ev) = extracted {
                if ev.dirty {
                    self.l2.mark_dirty(line);
                }
            }
            self.fill_l1(req);
            return AccessOutcome { served_by: ServedBy::Slc, latency };
        }

        // DRAM.
        let latency = l1_tag
            + self.l2.config().tag_latency
            + self.slc.config().tag_latency
            + self.dram_latency;
        self.fill_l2(req);
        self.fill_l1(req);
        AccessOutcome { served_by: ServedBy::Dram, latency }
    }

    /// Installs a prefetched line into the L1 of its kind plus the L2,
    /// maintaining inclusion/exclusion. No latency is modelled: the
    /// effect of prefetching is cache state (timeliness is approximated
    /// by the core model's issue distance).
    pub fn prefetch(&mut self, req: &MemoryRequest) {
        let req = req.as_prefetch();
        let line = self.l2.line_of(&req);
        if !self.l2.contains(line) {
            // Pull out of the SLC if resident there (exclusivity).
            let _ = self.slc.extract(line);
            self.fill_l2(&req);
        } else {
            // Train the L2 policy with a prefetch touch.
            self.l2.access(&req);
        }
        let l1 = if req.kind.is_instruction() { &mut self.l1i } else { &mut self.l1d };
        if !l1.contains(line) {
            let evicted = l1.fill(&req);
            Hierarchy::handle_l1_eviction(&mut self.l2, evicted);
        }
    }

    /// Read-only probe: which level would serve `line` right now, and the
    /// estimated demand latency. Used to model prefetch timeliness.
    #[must_use]
    pub fn probe(&self, line: LineAddr, instruction: bool) -> (ServedBy, u64) {
        let l1 = if instruction { &self.l1i } else { &self.l1d };
        if l1.contains(line) {
            return (ServedBy::L1, l1.config().data_latency);
        }
        let l1_tag = l1.config().tag_latency;
        if self.l2.contains(line) {
            return (ServedBy::L2, l1_tag + self.l2.config().data_latency);
        }
        if self.slc.contains(line) {
            return (
                ServedBy::Slc,
                l1_tag + self.l2.config().tag_latency + self.slc.config().data_latency,
            );
        }
        (
            ServedBy::Dram,
            l1_tag
                + self.l2.config().tag_latency
                + self.slc.config().tag_latency
                + self.dram_latency,
        )
    }

    fn fill_l1(&mut self, req: &MemoryRequest) {
        debug_assert!(self.l2.contains(self.l2.line_of(req)), "inclusion: fill L2 before L1");
        let l1 = if req.kind.is_instruction() { &mut self.l1i } else { &mut self.l1d };
        let evicted = l1.fill(req);
        Hierarchy::handle_l1_eviction(&mut self.l2, evicted);
    }

    fn handle_l1_eviction(l2: &mut Cache, evicted: Option<crate::cache::EvictedLine>) {
        if let Some(ev) = evicted {
            if ev.dirty {
                // Writeback into the inclusive L2.
                l2.mark_dirty(ev.line);
            }
        }
    }

    fn fill_l2(&mut self, req: &MemoryRequest) {
        if let Some(ev) = self.l2.fill(req) {
            // Inclusive: the victim may not linger in the L1s.
            self.l1i.invalidate(ev.line);
            self.l1d.invalidate(ev.line);
            // Exclusive SLC: the victim moves down.
            let base = ev.line.base();
            let slc_req = if ev.instruction {
                MemoryRequest::fetch(base, trrip_mem::VirtAddr::new(base.raw()))
            } else if ev.dirty {
                MemoryRequest::store(base, trrip_mem::VirtAddr::new(base.raw()))
            } else {
                MemoryRequest::load(base, trrip_mem::VirtAddr::new(base.raw()))
            };
            // SLC evictions fall out to DRAM (writebacks counted there).
            let _ = self.slc.fill(&slc_req);
        }
    }

    /// Checks the inclusion and exclusion invariants, panicking with a
    /// description on violation. Used by tests and debug builds.
    ///
    /// # Panics
    ///
    /// Panics if L1 ⊆ L2 or L2 ∩ SLC = ∅ is violated.
    pub fn check_invariants(&self) {
        for line in self.l1i.resident_lines() {
            assert!(self.l2.contains(line), "inclusion violated: {line} in L1-I but not L2");
        }
        for line in self.l1d.resident_lines() {
            assert!(self.l2.contains(line), "inclusion violated: {line} in L1-D but not L2");
        }
        for line in self.l2.resident_lines() {
            assert!(!self.slc.contains(line), "exclusion violated: {line} in both L2 and SLC");
        }
    }
}

/// Snapshot of every level's tag store, statistics, and policy state.
/// Restoring into a hierarchy built from the same [`HierarchyConfig`]
/// reproduces the warmed state bit-identically (including the
/// inclusion/exclusion invariants, which are a function of the tag
/// stores).
impl Snapshot for Hierarchy {
    fn save(&self, w: &mut SnapWriter) {
        w.tag(b"HIER");
        self.l1i.save(w);
        self.l1d.save(w);
        self.l2.save(w);
        self.slc.save(w);
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.expect_tag(b"HIER")?;
        self.l1i.restore(r)?;
        self.l1d.restore(r)?;
        self.l2.restore(r)?;
        self.slc.restore(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trrip_mem::{PhysAddr, VirtAddr};

    fn fetch(addr: u64) -> MemoryRequest {
        MemoryRequest::fetch(PhysAddr::new(addr), VirtAddr::new(addr))
    }

    fn load(addr: u64) -> MemoryRequest {
        MemoryRequest::load(PhysAddr::new(addr), VirtAddr::new(addr))
    }

    fn store(addr: u64) -> MemoryRequest {
        MemoryRequest::store(PhysAddr::new(addr), VirtAddr::new(addr))
    }

    fn paper_hierarchy() -> Hierarchy {
        Hierarchy::new(&HierarchyConfig::paper(PolicyKind::Srrip))
    }

    #[test]
    fn cold_miss_goes_to_dram_then_l1_hits() {
        let mut h = paper_hierarchy();
        let req = fetch(0x4000);
        let first = h.access(&req);
        assert_eq!(first.served_by, ServedBy::Dram);
        assert_eq!(first.latency, 1 + 8 + 10 + 400);
        let second = h.access(&req);
        assert_eq!(second.served_by, ServedBy::L1);
        assert_eq!(second.latency, 3);
        h.check_invariants();
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let mut h = paper_hierarchy();
        // Fill a line, then evict it from L1-I by filling 4 conflicting
        // lines (L1-I is 4-way with 256 sets → stride 256*64 bytes).
        let base = 0x10_0000u64;
        let stride = 256 * 64;
        h.access(&fetch(base));
        for i in 1..=4 {
            h.access(&fetch(base + i * stride));
        }
        let outcome = h.access(&fetch(base));
        assert_eq!(outcome.served_by, ServedBy::L2);
        assert_eq!(outcome.latency, 1 + 12);
        h.check_invariants();
    }

    #[test]
    fn l2_eviction_back_invalidates_l1_and_feeds_slc() {
        let mut h = paper_hierarchy();
        // L2: 256 sets, 8 ways. Conflict 9 lines in set 0 of the L2.
        let stride = 256 * 64;
        for i in 0..9 {
            h.access(&fetch(i * stride));
        }
        // The first line was evicted from L2 → must not be in L1-I, must
        // be in the SLC.
        let line0 = h.l2.line_of(&fetch(0));
        assert!(!h.l2().contains(line0), "line should have left L2");
        assert!(!h.l1i().contains(line0), "inclusion: back-invalidate L1");
        assert!(h.slc().contains(line0), "victim should land in SLC");
        h.check_invariants();
        // Re-access: served by SLC, promoted back to L2, removed from SLC.
        let outcome = h.access(&fetch(0));
        assert_eq!(outcome.served_by, ServedBy::Slc);
        assert!(h.l2().contains(line0));
        assert!(!h.slc().contains(line0), "exclusivity after promotion");
        h.check_invariants();
    }

    #[test]
    fn slc_hit_latency_matches_table1() {
        let mut h = paper_hierarchy();
        let stride = 256 * 64;
        for i in 0..9 {
            h.access(&fetch(i * stride));
        }
        let outcome = h.access(&fetch(0));
        assert_eq!(outcome.served_by, ServedBy::Slc);
        assert_eq!(outcome.latency, 1 + 8 + 30);
    }

    #[test]
    fn dirty_data_round_trips_through_slc() {
        let mut h = paper_hierarchy();
        h.access(&store(0x8000));
        // Push the line out of L2 (and L1-D) via conflicts.
        let stride = 256 * 64;
        for i in 1..=8 {
            h.access(&load(0x8000 + i * stride));
        }
        let line = h.l2.line_of(&store(0x8000));
        assert!(h.slc().contains(line));
        // Promote back: the dirty bit must survive the SLC round trip.
        h.access(&load(0x8000));
        assert!(h.l2().contains(line));
        h.check_invariants();
    }

    #[test]
    fn prefetch_fills_without_demand_stats() {
        let mut h = paper_hierarchy();
        let req = fetch(0x9000);
        h.prefetch(&req);
        assert_eq!(h.l1i().stats().inst_accesses, 0);
        assert_eq!(h.l2().stats().inst_accesses, 0);
        assert!(h.l1i().contains(h.l2.line_of(&req)));
        // Demand access now hits in L1.
        let outcome = h.access(&req);
        assert_eq!(outcome.served_by, ServedBy::L1);
        h.check_invariants();
    }

    #[test]
    fn prefetch_extracts_from_slc() {
        let mut h = paper_hierarchy();
        let stride = 256 * 64;
        for i in 0..9 {
            h.access(&fetch(i * stride));
        }
        let line0 = h.l2.line_of(&fetch(0));
        assert!(h.slc().contains(line0));
        h.prefetch(&fetch(0));
        assert!(!h.slc().contains(line0), "prefetch must maintain exclusivity");
        assert!(h.l2().contains(line0));
        h.check_invariants();
    }

    #[test]
    fn instruction_and_data_use_separate_l1s() {
        let mut h = paper_hierarchy();
        h.access(&fetch(0x4000));
        h.access(&load(0x4000));
        assert_eq!(h.l1i().stats().inst_misses, 1);
        assert_eq!(h.l1d().stats().data_misses, 1);
        // Data access went to L2 where the instruction fill already
        // placed the line.
        assert_eq!(h.l2().stats().data_misses, 0);
    }

    #[test]
    fn invariants_hold_under_mixed_traffic() {
        let mut h = paper_hierarchy();
        // Deterministic pseudo-random mixed traffic.
        let mut x: u64 = 0x12345;
        for i in 0..20_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let addr = (x >> 16) % (4 << 20);
            match i % 3 {
                0 => h.access(&fetch(addr)),
                1 => h.access(&load(addr)),
                _ => h.access(&store(addr)),
            };
            if i % 7 == 0 {
                h.prefetch(&fetch(addr + 64));
            }
        }
        h.check_invariants();
    }
}
