//! The set-associative tag store of the level under test, with its
//! replacement policy chosen at run time.
//!
//! The tag store is struct-of-arrays: packed `u64` tags in one flat
//! array (an empty slot holds a sentinel) plus dirty and instruction
//! bitmaps, so a set probe touches a single run of tag words instead of
//! striding over 4-field line structs. The original array-of-structs
//! layout is kept in [`crate::aos`] as the equivalence oracle.
//!
//! Only the L2 is a [`Cache`]: it holds the boxed
//! `dyn ReplacementPolicy` that Table 1's sweeps vary. The levels whose
//! policy the machine fixes to LRU — the L1s and the SLC — are
//! [`crate::LruCache`]s, which keep each set's tags and recency stamps
//! together. Both stores share this module's probe, the empty-slot
//! sentinel and the `"CACB"` snapshot encoding of their lines.
//!
//! A line leaves a [`Cache`] only as the victim of a fill. The L2 is the
//! top of inclusion and the SLC below it is exclusive, so only the LRU
//! levels are back-invalidated or give up a line to a promotion: the
//! policy under test hears a hit, a fill and the victim it chose, and
//! nothing else.

use trrip_mem::{LineAddr, MemoryRequest};
use trrip_policies::ReplacementPolicy;
use trrip_snap::{SnapError, SnapReader, SnapWriter, Snapshot};

use crate::config::CacheConfig;
use crate::stats::AccessStats;

/// A line displaced by a fill, handed to the hierarchy for downstream
/// placement (exclusive SLC) and inclusion maintenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedLine {
    /// The displaced line address.
    pub line: LineAddr,
    /// Whether the line was dirty (needs a writeback).
    pub dirty: bool,
    /// Whether the line held instructions (kind of the request that last
    /// filled or wrote it).
    pub instruction: bool,
}

/// Sentinel stored in empty tag slots. Real line addresses are physical
/// addresses shifted right by the line-offset bits, so they can never
/// reach `u64::MAX`; the sentinel is the slot's validity — the probe loop
/// compares tags and nothing else.
pub(crate) const TAG_INVALID: u64 = u64::MAX;

/// One bit of a packed `u64`-word bitmap.
#[inline]
pub(crate) fn bitmap_get(words: &[u64], i: usize) -> bool {
    words[i >> 6] >> (i & 63) & 1 != 0
}

/// Sets one bit of a packed `u64`-word bitmap.
#[inline]
pub(crate) fn bitmap_set(words: &mut [u64], i: usize, value: bool) {
    let mask = 1u64 << (i & 63);
    if value {
        words[i >> 6] |= mask;
    } else {
        words[i >> 6] &= !mask;
    }
}

pub(crate) fn bitmap_words(bits: usize) -> usize {
    bits.div_ceil(64)
}

/// Ways a set may have: [`first_match`] collects one compare bit per way
/// into a `u64`.
pub(crate) const MAX_WAYS: usize = 64;

/// The first way of `set_tags` holding `raw`. Every way is compared and
/// the outcomes are collected into a mask whose lowest set bit is the
/// answer: no exit from the loop depends on the data, where a search
/// that stops at the match mispredicts on whichever way it happens to
/// be. The ways are taken last to first, each shifting the mask up by
/// one, so way 0 ends in bit 0 without a shift by a variable count
/// (which measured half again as slow on a stream of misses). At most
/// [`MAX_WAYS`] tags.
#[inline]
pub(crate) fn first_match(set_tags: &[u64], raw: u64) -> Option<usize> {
    debug_assert!(set_tags.len() <= MAX_WAYS);
    let mut mask = 0u64;
    for &tag in set_tags.iter().rev() {
        mask = mask << 1 | u64::from(tag == raw);
    }
    (mask != 0).then(|| mask.trailing_zeros() as usize)
}

/// Where a fill of `raw` goes in a set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FillSlot {
    /// `raw` is already resident: the fill is a no-op.
    Resident,
    /// The first empty way.
    Free(usize),
    /// Every way holds another line: the replacement policy picks one.
    Full,
}

/// [`FillSlot`] for `raw` in `set_tags`, from one pass over the tags
/// that collects both compare masks as [`first_match`] does.
#[inline]
pub(crate) fn fill_slot(set_tags: &[u64], raw: u64) -> FillSlot {
    debug_assert!(set_tags.len() <= MAX_WAYS);
    let (mut resident, mut free) = (0u64, 0u64);
    for &tag in set_tags.iter().rev() {
        resident = resident << 1 | u64::from(tag == raw);
        free = free << 1 | u64::from(tag == TAG_INVALID);
    }
    if resident != 0 {
        FillSlot::Resident
    } else if free != 0 {
        FillSlot::Free(free.trailing_zeros() as usize)
    } else {
        FillSlot::Full
    }
}

/// The level under test: tag store + boxed replacement policy +
/// statistics.
///
/// The cache is physically indexed at line granularity. It performs no
/// timing; the [`crate::Hierarchy`] accumulates latencies from its
/// Table 1 constants.
///
/// # Example
///
/// ```
/// use trrip_cache::{Cache, CacheConfig};
/// use trrip_policies::PolicyKind;
/// use trrip_mem::{MemoryRequest, PhysAddr, VirtAddr};
///
/// let config = CacheConfig::paper_l2();
/// let policy = PolicyKind::Trrip1.build(config.num_sets(), config.ways);
/// let mut l2 = Cache::new(config, policy);
/// let req = MemoryRequest::fetch(PhysAddr::new(0x4000), VirtAddr::new(0x4000));
/// assert!(!l2.access(&req)); // cold miss
/// l2.fill(&req);
/// assert!(l2.access(&req)); // now hits
/// ```
pub struct Cache {
    config: CacheConfig,
    /// One packed tag word per slot (`set × ways + way`); [`TAG_INVALID`]
    /// marks an empty slot.
    tags: Vec<u64>,
    /// Dirty bitmap, one bit per slot.
    dirty: Vec<u64>,
    /// Instruction-line bitmap, one bit per slot.
    instruction: Vec<u64>,
    policy: Box<dyn ReplacementPolicy>,
    stats: AccessStats,
    num_sets: usize,
}

impl std::fmt::Debug for Cache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cache")
            .field("config", &self.config)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Cache {
    /// Creates the cache with the given policy.
    ///
    /// # Panics
    ///
    /// Panics if a set has more ways than the probe's compare mask has
    /// bits (64), or — lazily, on an out-of-range set index — if the
    /// policy was not built for this geometry.
    #[must_use]
    pub fn new(config: CacheConfig, policy: Box<dyn ReplacementPolicy>) -> Cache {
        assert!(
            config.ways <= MAX_WAYS,
            "{} ways exceed the {MAX_WAYS} a set probe can hold",
            config.ways
        );
        let num_sets = config.num_sets();
        let slots = num_sets * config.ways;
        Cache {
            tags: vec![TAG_INVALID; slots],
            dirty: vec![0; bitmap_words(slots)],
            instruction: vec![0; bitmap_words(slots)],
            policy,
            stats: AccessStats::default(),
            num_sets,
            config,
        }
    }

    /// The static configuration.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
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

    fn set_index(&self, line: LineAddr) -> usize {
        (line.raw() as usize) & (self.num_sets - 1)
    }

    /// Whether `line` is currently resident.
    #[must_use]
    pub fn contains(&self, line: LineAddr) -> bool {
        self.probe(line).is_some()
    }

    /// The single set-scan every lookup shares: one contiguous run of
    /// tag words compared against `line` (empty slots hold
    /// [`TAG_INVALID`], which no real line address equals). Returns the
    /// `(set, way)` of the resident line.
    #[inline]
    fn probe(&self, line: LineAddr) -> Option<(usize, usize)> {
        let set = self.set_index(line);
        let base = set * self.config.ways;
        first_match(&self.tags[base..base + self.config.ways], line.raw()).map(|way| (set, way))
    }

    /// Demand lookup: returns `true` on hit. Updates statistics and, on a
    /// hit, notifies the replacement policy. A miss records nothing in the
    /// tag store — the hierarchy decides whether and when to [`Cache::fill`].
    pub fn access(&mut self, req: &MemoryRequest) -> bool {
        let line = LineAddr::of(req.paddr);
        match self.probe(line) {
            Some((set, way)) => {
                if req.attrs.prefetch {
                    self.stats.prefetch_hits += 1;
                } else {
                    self.stats.record_demand(req.kind.is_instruction(), true);
                }
                self.policy.on_hit(set, way, req);
                if req.kind.is_write() {
                    bitmap_set(&mut self.dirty, set * self.config.ways + way, true);
                }
                true
            }
            None => {
                if !req.attrs.prefetch {
                    self.stats.record_demand(req.kind.is_instruction(), false);
                }
                false
            }
        }
    }

    /// Fills the request's line, evicting if the set is full.
    ///
    /// Invalid ways are used first (without consulting the policy for a
    /// victim); the policy is asked only about a full set, and the way it
    /// returns is evicted. If the line is already resident this is a
    /// no-op returning `None` (prefetch/demand races).
    pub fn fill(&mut self, req: &MemoryRequest) -> Option<EvictedLine> {
        let line = LineAddr::of(req.paddr);
        let set = self.set_index(line);
        let base = set * self.config.ways;

        let set_tags = &self.tags[base..base + self.config.ways];
        let (way, evicted) = match fill_slot(set_tags, line.raw()) {
            FillSlot::Resident => return None,
            FillSlot::Free(way) => (way, None),
            FillSlot::Full => {
                let way = self.policy.choose_victim(set);
                assert!(way < self.config.ways, "policy returned way out of range");
                let slot = base + way;
                let old = EvictedLine {
                    line: LineAddr(self.tags[slot]),
                    dirty: bitmap_get(&self.dirty, slot),
                    instruction: bitmap_get(&self.instruction, slot),
                };
                self.stats.evictions += 1;
                if old.dirty {
                    self.stats.writebacks += 1;
                }
                (way, Some(old))
            }
        };

        debug_assert_ne!(line.raw(), TAG_INVALID, "line address aliases the empty-slot sentinel");
        let slot = base + way;
        self.tags[slot] = line.raw();
        bitmap_set(&mut self.dirty, slot, req.kind.is_write());
        bitmap_set(&mut self.instruction, slot, req.kind.is_instruction());
        if req.attrs.prefetch {
            self.stats.prefetch_fills += 1;
        }
        self.policy.on_fill(set, way, req);
        evicted
    }

    /// Marks `line` dirty if resident (dirty L1 writeback landing in an
    /// inclusive L2). Returns whether the line was found.
    pub fn mark_dirty(&mut self, line: LineAddr) -> bool {
        match self.probe(line) {
            Some((set, way)) => {
                bitmap_set(&mut self.dirty, set * self.config.ways + way, true);
                true
            }
            None => false,
        }
    }

    /// Iterates over all resident lines (for invariant checks in tests).
    pub fn resident_lines(&self) -> impl Iterator<Item = LineAddr> + '_ {
        self.tags.iter().filter(|&&tag| tag != TAG_INVALID).map(|&tag| LineAddr(tag))
    }
}

/// Appends `bits` as a packed LSB-first bitmap (`⌈len/8⌉` bytes).
pub(crate) fn save_bitmap(w: &mut SnapWriter, bits: impl Iterator<Item = bool>) {
    let mut byte = 0u8;
    let mut filled = 0u8;
    for bit in bits {
        byte |= u8::from(bit) << filled;
        filled += 1;
        if filled == 8 {
            w.u8(byte);
            byte = 0;
            filled = 0;
        }
    }
    if filled > 0 {
        w.u8(byte);
    }
}

/// Reads an `n`-bit bitmap written by [`save_bitmap`].
pub(crate) fn restore_bitmap(r: &mut SnapReader<'_>, n: usize) -> Result<Vec<bool>, SnapError> {
    let mut out = Vec::with_capacity(n);
    let mut byte = 0u8;
    for i in 0..n {
        if i % 8 == 0 {
            byte = r.u8()?;
        }
        out.push(byte >> (i % 8) & 1 != 0);
    }
    Ok(out)
}

/// Appends the `"CACB"` encoding of a tag store's `slots` lines, slot
/// `s` holding `tag_of(s)` ([`TAG_INVALID`] if empty).
///
/// The encoding is bitmap-packed: one valid-slot bitmap over all slots,
/// then dirty and instruction bitmaps over the *valid* slots only, then
/// one varint tag per valid slot. A mostly-empty level (the SLC right
/// after fast-forward, the dominant term in checkpoint size) costs ~1
/// bit per empty slot, and a full level carries no per-line flag byte.
/// [`Cache`] and [`crate::LruCache`] write their lines with it (the
/// array-of-structs oracle writes the same bytes its own way); each
/// follows them with its statistics and its replacement state.
pub(crate) fn save_lines(
    w: &mut SnapWriter,
    slots: usize,
    tag_of: impl Fn(usize) -> u64,
    dirty: &[u64],
    instruction: &[u64],
) {
    w.tag(b"CACB");
    w.usize(slots);
    let valid_slots = || (0..slots).filter(|&slot| tag_of(slot) != TAG_INVALID);
    save_bitmap(w, (0..slots).map(|slot| tag_of(slot) != TAG_INVALID));
    save_bitmap(w, valid_slots().map(|slot| bitmap_get(dirty, slot)));
    save_bitmap(w, valid_slots().map(|slot| bitmap_get(instruction, slot)));
    for slot in valid_slots() {
        w.u64(tag_of(slot));
    }
}

/// Reads what [`save_lines`] wrote into a store of `slots` slots: sets
/// both bitmaps (clear on empty slots) and hands every slot's tag to
/// `set_tag`, [`TAG_INVALID`] for an empty one.
///
/// # Errors
///
/// A line count other than `slots` is a mismatch; a resident tag equal
/// to the empty-slot sentinel — which no real physical line address can
/// reach, so only a corrupt snapshot holds it — is corrupt.
pub(crate) fn restore_lines(
    r: &mut SnapReader<'_>,
    slots: usize,
    dirty: &mut [u64],
    instruction: &mut [u64],
    mut set_tag: impl FnMut(usize, u64),
) -> Result<(), SnapError> {
    r.expect_tag(b"CACB")?;
    r.expect_len("cache line count", slots)?;
    let valid = restore_bitmap(r, slots)?;
    let occupancy = valid.iter().filter(|&&v| v).count();
    let dirty_bits = restore_bitmap(r, occupancy)?;
    let instr_bits = restore_bitmap(r, occupancy)?;
    let mut vi = 0;
    for (slot, &v) in valid.iter().enumerate() {
        bitmap_set(dirty, slot, v && dirty_bits[vi]);
        bitmap_set(instruction, slot, v && instr_bits[vi]);
        if v {
            vi += 1;
        } else {
            set_tag(slot, TAG_INVALID);
        }
    }
    for (slot, &v) in valid.iter().enumerate() {
        if v {
            let tag = r.u64()?;
            if tag == TAG_INVALID {
                return Err(SnapError::Corrupt("line tag aliases the empty-slot sentinel".into()));
            }
            set_tag(slot, tag);
        }
    }
    Ok(())
}

/// Snapshot encoding: the lines (`"CACB"`: a valid-slot bitmap, dirty
/// and instruction bitmaps over the valid slots, one varint tag per
/// valid slot), the statistics, then the policy's state.
///
/// The whole tag store — contents *and* policy state — serializes into
/// the **per-policy overlay**, never the shared prefix: every level's
/// contents couple to the L2 policy (the L2/SLC directly through victim
/// choice, the L1s through inclusive back-invalidation), so none of it
/// is shareable across policies. The struct-of-arrays store emits and
/// consumes exactly the bytes the array-of-structs oracle does.
impl Snapshot for Cache {
    fn save(&self, w: &mut SnapWriter) {
        save_lines(w, self.tags.len(), |slot| self.tags[slot], &self.dirty, &self.instruction);
        self.stats.save(w);
        self.policy.save_state(w);
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let tags = &mut self.tags;
        restore_lines(r, tags.len(), &mut self.dirty, &mut self.instruction, |slot, tag| {
            tags[slot] = tag;
        })?;
        self.stats.restore(r)?;
        self.policy.restore_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use trrip_mem::{PhysAddr, VirtAddr};
    use trrip_policies::{Lru, PolicyKind};

    proptest! {
        /// The compare mask finds the way a search that stops at the
        /// first match finds, for every associativity the mask holds:
        /// sets with empty slots, sets full of them, duplicate tags (the
        /// first wins), and a probe for the empty-slot sentinel itself,
        /// which is how a fill finds a free way.
        #[test]
        fn first_match_is_the_position_of_the_first_equal_tag(
            ways in 1usize..65,
            picks in prop::collection::vec(0u64..8, 64..65),
            probe in 0u64..8,
        ) {
            let value = |pick: u64| if pick >= 6 { TAG_INVALID } else { 0x4_0000 + pick };
            let set_tags: Vec<u64> = picks[..ways].iter().map(|&pick| value(pick)).collect();
            let raw = value(probe);
            prop_assert_eq!(first_match(&set_tags, raw), set_tags.iter().position(|&t| t == raw));
        }

        /// A fill's one pass finds what two searches that stop at the
        /// first match find: the line already resident, else the first
        /// empty way, else a full set.
        #[test]
        fn fill_slot_is_two_first_matches_in_one_pass(
            ways in 1usize..65,
            picks in prop::collection::vec(0u64..8, 64..65),
            probe in 0u64..6,
        ) {
            let value = |pick: u64| if pick >= 6 { TAG_INVALID } else { 0x4_0000 + pick };
            let set_tags: Vec<u64> = picks[..ways].iter().map(|&pick| value(pick)).collect();
            let raw = value(probe);
            let expected = if first_match(&set_tags, raw).is_some() {
                FillSlot::Resident
            } else {
                first_match(&set_tags, TAG_INVALID).map_or(FillSlot::Full, FillSlot::Free)
            };
            prop_assert_eq!(fill_slot(&set_tags, raw), expected);
        }
    }

    #[test]
    #[should_panic(expected = "128 ways exceed the 64 a set probe can hold")]
    fn a_set_wider_than_the_probe_mask_is_rejected() {
        let config = CacheConfig::new(128 * 64, 128);
        let _ = Cache::new(config, Box::new(Lru::new(config.num_sets(), config.ways)));
    }

    #[test]
    fn the_widest_set_the_probe_mask_holds_works() {
        // One fully associative set of 64 ways: the last way's compare
        // bit is the mask's top bit.
        let config = CacheConfig::new(64 * 64, 64);
        let mut c = Cache::new(config, Box::new(Lru::new(config.num_sets(), config.ways)));
        for i in 0..64 {
            assert!(c.fill(&fetch(i * 64)).is_none(), "way {i} was free");
        }
        for i in (0..64).rev() {
            assert!(c.access(&fetch(i * 64)), "line {i} is resident");
        }
        let evicted = c.fill(&fetch(64 * 64)).expect("a full set evicts");
        assert_eq!(evicted.line, LineAddr(63), "touched first, so least recent");
    }

    fn small_cache(kind: PolicyKind) -> Cache {
        // 4 sets × 2 ways × 64 B = 512 B.
        let config = CacheConfig::new(512, 2);
        let policy = kind.build(config.num_sets(), config.ways);
        Cache::new(config, policy)
    }

    fn fetch(addr: u64) -> MemoryRequest {
        MemoryRequest::fetch(PhysAddr::new(addr), VirtAddr::new(addr))
    }

    fn store(addr: u64) -> MemoryRequest {
        MemoryRequest::store(PhysAddr::new(addr), VirtAddr::new(addr))
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = small_cache(PolicyKind::Lru);
        let req = fetch(0x1000);
        assert!(!c.access(&req));
        assert!(c.fill(&req).is_none());
        assert!(c.access(&req));
        assert_eq!(c.stats().inst_accesses, 2);
        assert_eq!(c.stats().inst_misses, 1);
    }

    #[test]
    fn conflicting_lines_evict() {
        let mut c = small_cache(PolicyKind::Lru);
        // Three lines mapping to set 0 (line addr multiples of 4 × 64 B).
        let a = fetch(0x0000);
        let b = fetch(0x0400);
        let d = fetch(0x0800);
        c.fill(&a);
        c.fill(&b);
        let evicted = c.fill(&d).expect("third line must evict");
        assert_eq!(evicted.line, LineAddr::of(a.paddr));
        assert!(!c.contains(LineAddr::of(a.paddr)));
        assert!(c.contains(LineAddr::of(b.paddr)));
        assert!(c.contains(LineAddr::of(d.paddr)));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        let mut c = small_cache(PolicyKind::Lru);
        c.fill(&store(0x0000));
        c.fill(&fetch(0x0400));
        let evicted = c.fill(&fetch(0x0800)).unwrap();
        assert!(evicted.dirty);
        assert!(!evicted.instruction);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn store_hit_marks_dirty() {
        let mut c = small_cache(PolicyKind::Lru);
        c.fill(&fetch(0x0000)); // clean fill
        assert!(c.access(&store(0x0000)));
        c.fill(&fetch(0x0400));
        let evicted = c.fill(&fetch(0x0800)).unwrap();
        assert!(evicted.dirty, "store hit must dirty the line");
    }

    #[test]
    fn double_fill_is_noop() {
        let mut c = small_cache(PolicyKind::Srrip);
        let req = fetch(0x1000);
        c.fill(&req);
        assert!(c.fill(&req).is_none());
        assert_eq!(c.resident_lines().count(), 1);
    }

    #[test]
    fn prefetch_accesses_not_in_demand_stats() {
        let mut c = small_cache(PolicyKind::Srrip);
        let pf = fetch(0x1000).as_prefetch();
        assert!(!c.access(&pf));
        c.fill(&pf);
        assert!(c.access(&pf));
        assert_eq!(c.stats().inst_accesses, 0);
        assert_eq!(c.stats().prefetch_fills, 1);
        assert_eq!(c.stats().prefetch_hits, 1);
    }

    fn fill_some(c: &mut Cache, n: u64) {
        for i in 0..n {
            let req = if i % 3 == 0 { store(i * 64) } else { fetch(i * 64) };
            if !c.access(&req) {
                c.fill(&req);
            }
        }
    }

    #[test]
    fn bitmap_snapshot_round_trips() {
        let mut c = small_cache(PolicyKind::Lru);
        fill_some(&mut c, 5);
        let mut w = SnapWriter::new();
        c.save(&mut w);

        let mut restored = small_cache(PolicyKind::Lru);
        let mut r = SnapReader::new(w.bytes());
        restored.restore(&mut r).expect("restore");
        r.finish().expect("no trailing bytes");
        let mut a: Vec<_> = c.resident_lines().collect();
        let mut b: Vec<_> = restored.resident_lines().collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert_eq!(restored.stats(), c.stats());
        // Dirty bits survive: evicting the same line reports the same
        // writeback state.
        for line in &mut [c, restored] {
            let evicted = line.fill(&fetch(0x10_0000)).map(|e| e.dirty);
            assert_eq!(evicted, Some(true), "store-dirtied victim expected");
        }
    }

    #[test]
    fn bitmap_snapshot_shrinks_sparse_stores() {
        // An SLC-shaped level (many sets, nearly empty after warmup)
        // costs ~1 bit per empty slot, not a byte: beside the policy's
        // own state, an empty store is its valid bitmap, and 64 resident
        // lines add a few bytes each, nothing per slot.
        let config = CacheConfig::new(2 << 20, 16);
        let slots = config.num_sets() * config.ways;
        let build = || {
            let policy = PolicyKind::Lru.build(config.num_sets(), config.ways);
            Cache::new(config, policy)
        };
        let saved_len = |save: &dyn Fn(&mut SnapWriter)| {
            let mut w = SnapWriter::new();
            save(&mut w);
            w.bytes().len()
        };
        let empty = build();
        let mut sparse = build();
        fill_some(&mut sparse, 64);
        let empty_len = saved_len(&|w| empty.save(w));
        let tag_store_len = empty_len - saved_len(&|w| empty.policy.save_state(w));
        assert!(tag_store_len < slots / 8 + 64, "{tag_store_len} bytes for {slots} empty slots");
        let sparse_len = saved_len(&|w| sparse.save(w));
        assert!(sparse_len < empty_len + 64 * 16, "{sparse_len} bytes vs {empty_len} empty");
    }

    #[test]
    fn all_policies_drive_the_tag_store() {
        for kind in PolicyKind::PAPER_SET {
            let mut c = small_cache(kind);
            for i in 0..64 {
                let req = fetch(i * 64);
                if !c.access(&req) {
                    c.fill(&req);
                }
            }
            assert_eq!(c.resident_lines().count(), 8, "{kind}: cache should be full");
            // Re-touch a resident line: must hit.
            let last = fetch(63 * 64);
            assert!(c.access(&last), "{kind}: resident line must hit");
        }
    }

    #[test]
    fn corrupt_sentinel_tag_is_rejected() {
        // A snapshot claiming a resident line at the sentinel address is
        // corrupt: accepting it would make the slot probe as empty. Craft
        // a "CACB" image whose single valid slot carries TAG_INVALID.
        let mut c = small_cache(PolicyKind::Lru);
        let slots = c.tags.len();
        let mut w = SnapWriter::new();
        w.tag(b"CACB");
        w.usize(slots);
        save_bitmap(&mut w, (0..slots).map(|s| s == 0));
        save_bitmap(&mut w, std::iter::once(false));
        save_bitmap(&mut w, std::iter::once(false));
        w.u64(TAG_INVALID);
        c.stats.save(&mut w);
        c.policy.save_state(&mut w);
        let mut r = SnapReader::new(w.bytes());
        let err = c.restore(&mut r).expect_err("sentinel tag must be rejected");
        assert!(matches!(err, SnapError::Corrupt(_)), "got {err:?}");
    }
}
