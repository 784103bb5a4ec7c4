//! The levels whose policy Table 1 fixes to LRU: the L1-I and L1-D
//! (4-way) and the SLC (16-way).
//!
//! Every cell pays an L1 probe on nearly every instruction, so an L1
//! set is laid out as one host cache line: a `#[repr(C, align(64))]`
//! block of its `WAYS` tags followed by their `WAYS` recency stamps.
//! A 4-way set is exactly 64 bytes, and a hit reads the tags and
//! writes one stamp in the line it already loaded. The level has one
//! recency clock, not one per set: only the order of stamps within a set
//! decides a victim, so the choices are those of [`trrip_policies::Lru`]
//! with its per-set clocks, which the L2 still runs when LRU is the
//! policy under test.
//!
//! The dirty and instruction bits are bitmaps beside the sets, as in
//! [`crate::Cache`]: only a store hit, a fill and an eviction read or
//! write them.

use trrip_mem::{LineAddr, MemoryRequest};
use trrip_snap::{SnapError, SnapReader, SnapWriter, Snapshot};

use crate::cache::{
    bitmap_get, bitmap_set, bitmap_words, fill_slot, first_match, restore_lines, save_lines,
    EvictedLine, FillSlot, MAX_WAYS, TAG_INVALID,
};
use crate::config::CacheConfig;
use crate::stats::AccessStats;

/// One set: its tags, then their stamps. A stamp is the level's clock
/// at the way's last fill or hit; an empty way's is 0.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(64))]
struct LruSet<const WAYS: usize> {
    tags: [u64; WAYS],
    stamps: [u64; WAYS],
}

impl<const WAYS: usize> LruSet<WAYS> {
    const EMPTY: LruSet<WAYS> = LruSet { tags: [TAG_INVALID; WAYS], stamps: [0; WAYS] };

    /// The least recently used way, the first among equals.
    #[inline]
    fn lru_way(&self) -> usize {
        let mut victim = 0;
        for way in 1..WAYS {
            if self.stamps[way] < self.stamps[victim] {
                victim = way;
            }
        }
        victim
    }
}

/// A `WAYS`-way LRU cache level: the sets, the dirty and instruction
/// bitmaps, one recency clock and the statistics.
///
/// Its operations are those of [`crate::AosCache`] holding the boxed
/// LRU policy, outcome for outcome: a hit or a fill makes its way the
/// most recent, a full set evicts its least recent way, an extract or
/// invalidate empties a way.
///
/// # Example
///
/// ```
/// use trrip_cache::{Hierarchy, LruCache};
/// use trrip_mem::{MemoryRequest, PhysAddr, VirtAddr};
///
/// let mut l1i = LruCache::<4>::new(Hierarchy::L1I);
/// let req = MemoryRequest::fetch(PhysAddr::new(0x4000), VirtAddr::new(0x4000));
/// assert!(!l1i.access(&req)); // cold miss
/// l1i.fill(&req);
/// assert!(l1i.access(&req)); // now hits
/// ```
pub struct LruCache<const WAYS: usize> {
    sets: Box<[LruSet<WAYS>]>,
    /// Dirty bitmap, one bit per slot (`set × WAYS + way`).
    dirty: Vec<u64>,
    /// Instruction-line bitmap, one bit per slot.
    instruction: Vec<u64>,
    /// The stamp the last fill or hit drew.
    clock: u64,
    stats: AccessStats,
}

impl<const WAYS: usize> std::fmt::Debug for LruCache<WAYS> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LruCache")
            .field("sets", &self.sets.len())
            .field("ways", &WAYS)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl<const WAYS: usize> LruCache<WAYS> {
    /// An empty level of `config`'s geometry.
    ///
    /// # Panics
    ///
    /// Panics if `config` has other than `WAYS` ways, or more ways than
    /// the set probe's compare mask has bits (64).
    #[must_use]
    pub fn new(config: CacheConfig) -> LruCache<WAYS> {
        assert_eq!(config.ways, WAYS, "an LruCache<{WAYS}> has {WAYS} ways");
        assert!(WAYS <= MAX_WAYS, "{WAYS} ways exceed the {MAX_WAYS} a set probe can hold");
        let slots = config.num_lines();
        LruCache {
            sets: vec![LruSet::EMPTY; config.num_sets()].into_boxed_slice(),
            dirty: vec![0; bitmap_words(slots)],
            instruction: vec![0; bitmap_words(slots)],
            clock: 0,
            stats: AccessStats::default(),
        }
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &AccessStats {
        &self.stats
    }

    /// Resets statistics (e.g. after cache warm-up).
    pub fn reset_stats(&mut self) {
        self.stats = AccessStats::default();
    }

    #[inline]
    fn set_index(&self, line: LineAddr) -> usize {
        (line.raw() as usize) & (self.sets.len() - 1)
    }

    /// The `(set, way)` holding `line`.
    #[inline]
    fn probe(&self, line: LineAddr) -> Option<(usize, usize)> {
        let set = self.set_index(line);
        first_match(&self.sets[set].tags, line.raw()).map(|way| (set, way))
    }

    /// Whether `line` is currently resident.
    #[must_use]
    pub fn contains(&self, line: LineAddr) -> bool {
        self.probe(line).is_some()
    }

    /// Draws the next stamp.
    #[inline]
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Demand or prefetch lookup, as [`crate::Cache::access`]: returns
    /// `true` on a hit, which makes the way the most recent (and dirty,
    /// for a store). A miss changes nothing but the statistics.
    #[inline]
    pub fn access(&mut self, req: &MemoryRequest) -> bool {
        let line = LineAddr::of(req.paddr);
        let Some((set, way)) = self.probe(line) else {
            if !req.attrs.prefetch {
                self.stats.record_demand(req.kind.is_instruction(), false);
            }
            return false;
        };
        if req.attrs.prefetch {
            self.stats.prefetch_hits += 1;
        } else {
            self.stats.record_demand(req.kind.is_instruction(), true);
        }
        self.sets[set].stamps[way] = self.tick();
        if req.kind.is_write() {
            bitmap_set(&mut self.dirty, set * WAYS + way, true);
        }
        true
    }

    /// Fills the request's line, as [`crate::Cache::fill`]: into the
    /// first empty way, else over the least recently used, whose state
    /// is returned. A line already resident is left as it is (`None`).
    pub fn fill(&mut self, req: &MemoryRequest) -> Option<EvictedLine> {
        let line = LineAddr::of(req.paddr);
        let set = self.set_index(line);
        let (way, evicted) = match fill_slot(&self.sets[set].tags, line.raw()) {
            FillSlot::Resident => return None,
            FillSlot::Free(way) => (way, None),
            FillSlot::Full => {
                let way = self.sets[set].lru_way();
                let old = self.line_at(set, way);
                self.stats.evictions += 1;
                if old.dirty {
                    self.stats.writebacks += 1;
                }
                (way, Some(old))
            }
        };
        debug_assert_ne!(line.raw(), TAG_INVALID, "line address aliases the empty-slot sentinel");
        let stamp = self.tick();
        let entry = &mut self.sets[set];
        entry.tags[way] = line.raw();
        entry.stamps[way] = stamp;
        let slot = set * WAYS + way;
        bitmap_set(&mut self.dirty, slot, req.kind.is_write());
        bitmap_set(&mut self.instruction, slot, req.kind.is_instruction());
        if req.attrs.prefetch {
            self.stats.prefetch_fills += 1;
        }
        evicted
    }

    fn line_at(&self, set: usize, way: usize) -> EvictedLine {
        let slot = set * WAYS + way;
        EvictedLine {
            line: LineAddr(self.sets[set].tags[way]),
            dirty: bitmap_get(&self.dirty, slot),
            instruction: bitmap_get(&self.instruction, slot),
        }
    }

    /// Invalidates `line` if resident and counts a back-invalidation
    /// (an L2 eviction reaching the L1s), as [`crate::AosCache::invalidate`].
    pub fn invalidate(&mut self, line: LineAddr) -> Option<EvictedLine> {
        let removed = self.extract(line);
        if removed.is_some() {
            self.stats.back_invalidations += 1;
        }
        removed
    }

    /// Removes `line` without counting a back-invalidation (the SLC's
    /// promotion of a line to the L2), as [`crate::AosCache::extract`].
    pub fn extract(&mut self, line: LineAddr) -> Option<EvictedLine> {
        let (set, way) = self.probe(line)?;
        let old = self.line_at(set, way);
        self.sets[set].tags[way] = TAG_INVALID;
        self.sets[set].stamps[way] = 0;
        bitmap_set(&mut self.dirty, set * WAYS + way, false);
        Some(old)
    }

    /// Iterates over all resident lines (for invariant checks in tests).
    pub fn resident_lines(&self) -> impl Iterator<Item = LineAddr> + '_ {
        self.sets
            .iter()
            .flat_map(|set| set.tags.iter())
            .filter(|&&tag| tag != TAG_INVALID)
            .map(|&tag| LineAddr(tag))
    }
}

/// Snapshot encoding: the lines as [`crate::Cache`] writes them
/// (`"CACB"`), the statistics, then the clock and one stamp per resident
/// line, in slot order. Like every level's, it belongs to the per-policy
/// overlay.
impl<const WAYS: usize> Snapshot for LruCache<WAYS> {
    fn save(&self, w: &mut SnapWriter) {
        let tag_of = |slot: usize| self.sets[slot / WAYS].tags[slot % WAYS];
        let slots = self.sets.len() * WAYS;
        save_lines(w, slots, tag_of, &self.dirty, &self.instruction);
        self.stats.save(w);
        w.u64(self.clock);
        for set in self.sets.iter() {
            for way in (0..WAYS).filter(|&way| set.tags[way] != TAG_INVALID) {
                w.u64(set.stamps[way]);
            }
        }
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let sets = &mut self.sets;
        let slots = sets.len() * WAYS;
        restore_lines(r, slots, &mut self.dirty, &mut self.instruction, |slot, tag| {
            sets[slot / WAYS].tags[slot % WAYS] = tag;
        })?;
        self.stats.restore(r)?;
        self.clock = r.u64()?;
        for set in self.sets.iter_mut() {
            for way in 0..WAYS {
                set.stamps[way] = if set.tags[way] == TAG_INVALID { 0 } else { r.u64()? };
                if set.stamps[way] > self.clock {
                    return Err(SnapError::Corrupt(format!(
                        "LRU stamp {} is past the level's clock {}",
                        set.stamps[way], self.clock
                    )));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_four_way_set_is_one_host_cache_line() {
        assert_eq!(std::mem::size_of::<LruSet<4>>(), 64);
        assert_eq!(std::mem::align_of::<LruSet<4>>(), 64);
        assert_eq!(std::mem::size_of::<LruSet<16>>(), 4 * 64);
    }

    #[test]
    #[should_panic(expected = "an LruCache<4> has 4 ways")]
    fn the_geometry_must_have_the_type_s_ways() {
        let _ = LruCache::<4>::new(CacheConfig::new(64 << 10, 8));
    }
}
