//! The shared RRIP per-set state machine and the bimodal insertion core.
//!
//! All RRIP-family policies — SRRIP, BRRIP, DRRIP, CLIP and TRRIP — share
//! one eviction mechanism (`GetEvictionLine` in Algorithm 1): scan for a
//! line whose RRPV equals the *distant* value; if none exists, age every
//! line in the set by one and rescan. The policies differ only in the
//! insertion and hit-promotion sub-policies, which is why a [`TableSet`]
//! exposes raw RRPV manipulation and [`BrripCore`] and
//! [`crate::TrripPolicy`] layer decisions on top. SRRIP's own rules need no
//! core: a fill writes *intermediate*, a hit writes *immediate*.

use serde::{Deserialize, Serialize};
use trrip_snap::{SnapError, SnapReader, SnapWriter, Snapshot};

use crate::rrpv::Rrpv;

/// All sets' RRPV registers in one flat array: `sets × ways` contiguous
/// bytes, so a set probe touches a single cache line. It deliberately
/// knows nothing about tags or validity — the cache's tag store owns
/// those — so the same state machine serves every RRIP-family policy.
/// Rows are borrowed as [`TableSet`] views, which is what the
/// insertion/promotion rules operate on.
///
/// # Example
///
/// ```
/// use trrip_core::{RripTable, Rrpv};
///
/// let mut table = RripTable::new(2, 4);
/// // New sets start with every way distant, so the first victim is way 0.
/// assert_eq!(table.set_mut(1).find_victim(), 0);
/// table.set_rrpv(1, 0, Rrpv::immediate());
/// assert_eq!(table.set_mut(1).find_victim(), 1);
/// // The other row is another set.
/// assert_eq!(table.set_mut(0).find_victim(), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RripTable {
    rrpv: Vec<Rrpv>,
    sets: usize,
    ways: usize,
}

impl RripTable {
    /// Creates `sets × ways` registers, all *distant* so untouched ways
    /// are preferred victims.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    #[must_use]
    pub fn new(sets: usize, ways: usize) -> RripTable {
        assert!(sets > 0, "a cache needs at least one set");
        assert!(ways > 0, "a cache set needs at least one way");
        RripTable { rrpv: vec![Rrpv::distant(); sets * ways], sets, ways }
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Number of ways per set.
    #[must_use]
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// The RRPV of one way of one set.
    ///
    /// # Panics
    ///
    /// Panics if `set` or `way` is out of bounds.
    #[must_use]
    pub fn rrpv(&self, set: usize, way: usize) -> Rrpv {
        assert!(way < self.ways, "way {way} out of bounds");
        self.rrpv[set * self.ways + way]
    }

    /// Overwrites the RRPV of one way of one set.
    ///
    /// # Panics
    ///
    /// Panics if `set` or `way` is out of bounds.
    pub fn set_rrpv(&mut self, set: usize, way: usize, value: Rrpv) {
        assert!(way < self.ways, "way {way} out of bounds");
        self.rrpv[set * self.ways + way] = value;
    }

    /// Borrows one set's registers.
    ///
    /// # Panics
    ///
    /// Panics if `set` is out of bounds.
    pub fn set_mut(&mut self, set: usize) -> TableSet<'_> {
        let base = set * self.ways;
        TableSet { rrpv: &mut self.rrpv[base..base + self.ways] }
    }
}

impl Snapshot for RripTable {
    fn save(&self, w: &mut SnapWriter) {
        w.usize(self.sets);
        for set in self.rrpv.chunks_exact(self.ways) {
            w.usize(self.ways);
            for v in set {
                w.u8(v.raw());
            }
        }
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.expect_len("RRIP set count", self.sets)?;
        for set in self.rrpv.chunks_exact_mut(self.ways) {
            r.expect_len("RRIP set ways", self.ways)?;
            for v in set {
                *v = Rrpv::from_raw(r.u8()?);
            }
        }
        Ok(())
    }
}

/// A mutable view of one [`RripTable`] row: one cache set's worth of
/// RRPV registers.
#[derive(Debug)]
pub struct TableSet<'a> {
    rrpv: &'a mut [Rrpv],
}

impl TableSet<'_> {
    /// Number of ways in the set.
    #[must_use]
    pub fn ways(&self) -> usize {
        self.rrpv.len()
    }

    /// The RRPV of one way.
    ///
    /// # Panics
    ///
    /// Panics if `way` is out of bounds.
    #[must_use]
    pub fn rrpv(&self, way: usize) -> Rrpv {
        self.rrpv[way]
    }

    /// Overwrites the RRPV of one way (insertion / promotion sub-policies).
    ///
    /// # Panics
    ///
    /// Panics if `way` is out of bounds.
    pub fn set_rrpv(&mut self, way: usize, value: Rrpv) {
        self.rrpv[way] = value;
    }

    /// The shared RRIP eviction mechanism (`GetEvictionLine`).
    ///
    /// Scans from way 0 for a *distant* line; if none is found, increments
    /// the RRPV of all ways and rescans. Guaranteed to terminate because
    /// aging saturates at the distant value. Mutates the set (the aging is
    /// architectural state), and returns the victim way. The victim's RRPV
    /// is left distant; the caller then applies the insertion sub-policy.
    pub fn find_victim(&mut self) -> usize {
        loop {
            if let Some(way) = self.rrpv.iter().position(|v| v.is_distant()) {
                return way;
            }
            for v in self.rrpv.iter_mut() {
                *v = v.aged();
            }
        }
    }

    /// Resets one way to *distant*, used when the tag store invalidates a
    /// line (e.g. inclusive back-invalidation) so the way becomes the
    /// preferred victim.
    pub fn invalidate(&mut self, way: usize) {
        self.rrpv[way] = Rrpv::distant();
    }
}

/// BRRIP (Bimodal RRIP) insertion core.
///
/// *Thrash-resistant*: inserts at *distant* most of the time, and at
/// *intermediate* for one fill in [`BrripCore::THROTTLE`] (the RRIP
/// paper's 1/32), so that a fraction of a thrashing working set sticks.
/// BRRIP's hits promote to *immediate* as SRRIP's do, which needs no core.
///
/// Determinism: the "probability" is realized with a deterministic
/// throttle counter rather than an RNG, matching common hardware
/// implementations and keeping simulations reproducible.
///
/// # Example
///
/// ```
/// use trrip_core::{BrripCore, RripTable, Rrpv};
///
/// let mut core = BrripCore::default();
/// let mut table = RripTable::new(2, 8);
/// let mut set = table.set_mut(1);
/// let mut intermediate = 0;
/// for _ in 0..BrripCore::THROTTLE {
///     core.on_fill(&mut set, 0);
///     if set.rrpv(0) == Rrpv::intermediate() {
///         intermediate += 1;
///     }
/// }
/// assert_eq!(intermediate, 1); // the other 31 fills inserted at distant
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BrripCore {
    counter: u32,
}

impl BrripCore {
    /// Insertion throttle: 1 in 32 fills are *intermediate*.
    pub const THROTTLE: u32 = 32;

    /// Insertion: *distant* except every [`BrripCore::THROTTLE`]-th fill,
    /// which is *intermediate*.
    pub fn on_fill(&mut self, set: &mut TableSet<'_>, way: usize) {
        self.counter = (self.counter + 1) % BrripCore::THROTTLE;
        let value = if self.counter == 0 { Rrpv::intermediate() } else { Rrpv::distant() };
        set.set_rrpv(way, value);
    }
}

impl Snapshot for BrripCore {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(u64::from(self.counter));
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let counter = r.u64()?;
        if counter >= u64::from(BrripCore::THROTTLE) {
            return Err(SnapError::Mismatch(format!(
                "BRRIP throttle counter {counter} out of range for throttle {}",
                BrripCore::THROTTLE
            )));
        }
        self.counter = counter as u32;
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The row the tests drive; row 0 is the neighbour that must not move.
    pub(crate) const ROW: usize = 1;

    /// What row 0 holds: a pattern that aging, promotion or a fill would
    /// each disturb (alternating immediate / one step aged).
    fn neighbour(way: usize) -> Rrpv {
        Rrpv::from_raw((way % 2) as u8)
    }

    pub(crate) fn two_rows(ways: usize) -> RripTable {
        let mut table = RripTable::new(2, ways);
        for way in 0..ways {
            table.set_rrpv(0, way, neighbour(way));
        }
        table
    }

    pub(crate) fn assert_neighbour_untouched(table: &RripTable) {
        for way in 0..table.ways() {
            let expected = neighbour(way);
            assert_eq!(table.rrpv(0, way), expected, "row 0 moved at way {way}");
        }
    }

    #[test]
    fn fresh_set_prefers_way_zero() {
        let mut table = two_rows(8);
        assert_eq!(table.set_mut(ROW).find_victim(), 0);
        assert_neighbour_untouched(&table);
    }

    #[test]
    fn eviction_ages_until_distant_found() {
        let mut table = two_rows(4);
        let mut set = table.set_mut(ROW);
        for way in 0..4 {
            set.set_rrpv(way, Rrpv::immediate());
        }
        set.set_rrpv(2, Rrpv::intermediate());
        // No distant line: mechanism ages all once (2 -> 3) and picks way 2.
        assert_eq!(set.find_victim(), 2);
        // Other lines aged from immediate to near in the process.
        assert_eq!(set.rrpv(0), Rrpv::near());
        assert_eq!(set.rrpv(1), Rrpv::near());
        assert_eq!(set.rrpv(3), Rrpv::near());
        // …and the aging stopped at the row's edge.
        assert_neighbour_untouched(&table);
    }

    #[test]
    fn eviction_picks_lowest_way_among_distant() {
        let mut table = two_rows(4);
        table.set_rrpv(ROW, 0, Rrpv::immediate());
        // Ways 1..3 are distant; the scan returns the first.
        assert_eq!(table.set_mut(ROW).find_victim(), 1);
        assert_neighbour_untouched(&table);
    }

    #[test]
    fn srrip_insert_intermediate_hit_immediate() {
        // SRRIP's rules on the shared mechanism: a fill at intermediate is
        // one aging step from eviction, a hit at immediate is three.
        let mut table = two_rows(4);
        let mut set = table.set_mut(ROW);
        for way in 0..4 {
            set.set_rrpv(way, Rrpv::immediate());
        }
        set.set_rrpv(1, Rrpv::intermediate());
        assert_eq!(set.find_victim(), 1);
        for way in [0, 2, 3] {
            assert_eq!(set.rrpv(way), Rrpv::near());
        }
        assert_neighbour_untouched(&table);
    }

    #[test]
    fn brrip_mostly_inserts_distant() {
        let mut core = BrripCore::default();
        let mut table = two_rows(4);
        let mut distant = 0;
        let mut intermediate = 0;
        for _ in 0..320 {
            core.on_fill(&mut table.set_mut(ROW), 0);
            if table.rrpv(ROW, 0) == Rrpv::distant() {
                distant += 1;
            } else {
                intermediate += 1;
            }
        }
        assert_eq!(intermediate, 10); // exactly 1/32 of 320
        assert_eq!(distant, 310);
        assert_neighbour_untouched(&table);
    }

    #[test]
    fn invalidate_makes_way_preferred_victim() {
        let mut table = two_rows(4);
        let mut set = table.set_mut(ROW);
        for way in 0..4 {
            set.set_rrpv(way, Rrpv::immediate());
        }
        set.invalidate(3);
        assert_eq!(set.find_victim(), 3);
        assert_neighbour_untouched(&table);
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_way_set_is_rejected() {
        let _ = RripTable::new(2, 0);
    }

    #[test]
    fn scan_resistance_srrip_keeps_reused_line() {
        // A reused line at immediate survives a burst of scanning fills:
        // SRRIP inserts at intermediate and promotes to immediate on a hit.
        let mut table = two_rows(4);
        let mut set = table.set_mut(ROW);
        // Hot line in way 0, filled then hit.
        set.set_rrpv(0, Rrpv::immediate());
        // Scan: repeatedly fill victims; way 0 must never be chosen before
        // the scanned lines (they sit at intermediate, aged to distant first).
        for _ in 0..16 {
            let v = set.find_victim();
            assert_ne!(v, 0, "scan evicted the reused line");
            set.set_rrpv(v, Rrpv::intermediate());
            // Refresh the hot line as a real workload would.
            set.set_rrpv(0, Rrpv::immediate());
        }
        assert_neighbour_untouched(&table);
    }
}
