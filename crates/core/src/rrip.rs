//! The shared RRIP per-set state machine and the static/bimodal cores.
//!
//! All RRIP-family policies — SRRIP, BRRIP, DRRIP, CLIP and TRRIP — share
//! one eviction mechanism (`GetEvictionLine` in Algorithm 1): scan for a
//! line whose RRPV equals the *distant* value; if none exists, age every
//! line in the set by one and rescan. The policies differ only in the
//! insertion and hit-promotion sub-policies, which is why a [`TableSet`]
//! exposes raw RRPV manipulation and the cores/[`crate::TrripPolicy`] layer
//! decisions on top.

use serde::{Deserialize, Serialize};
use trrip_snap::{SnapError, SnapReader, SnapWriter, Snapshot};

use crate::rrpv::{Rrpv, RrpvWidth};

/// All sets' RRPV registers in one flat array: `sets × ways` contiguous
/// bytes, so a set probe touches a single cache line. It deliberately
/// knows nothing about tags or validity — the cache's tag store owns
/// those — so the same state machine serves every RRIP-family policy.
/// Rows are borrowed as [`TableSet`] views, which is what the
/// insertion/promotion cores operate on.
///
/// # Example
///
/// ```
/// use trrip_core::{RripTable, Rrpv, RrpvWidth};
///
/// let w = RrpvWidth::W2;
/// let mut table = RripTable::new(2, 4, w);
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
    width: RrpvWidth,
}

impl RripTable {
    /// Creates `sets × ways` registers, all *distant* so untouched ways
    /// are preferred victims.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    #[must_use]
    pub fn new(sets: usize, ways: usize, width: RrpvWidth) -> RripTable {
        assert!(sets > 0, "a cache needs at least one set");
        assert!(ways > 0, "a cache set needs at least one way");
        RripTable { rrpv: vec![Rrpv::distant(width); sets * ways], sets, ways, width }
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

    /// The configured RRPV field width.
    #[must_use]
    pub fn width(&self) -> RrpvWidth {
        self.width
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
        TableSet { rrpv: &mut self.rrpv[base..base + self.ways], width: self.width }
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
                *v = Rrpv::from_raw(r.u8()?, self.width);
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
    width: RrpvWidth,
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
            if let Some(way) = self.rrpv.iter().position(|v| v.is_distant(self.width)) {
                return way;
            }
            for v in self.rrpv.iter_mut() {
                *v = v.aged(self.width);
            }
        }
    }

    /// Resets one way to *distant*, used when the tag store invalidates a
    /// line (e.g. inclusive back-invalidation) so the way becomes the
    /// preferred victim.
    pub fn invalidate(&mut self, way: usize) {
        self.rrpv[way] = Rrpv::distant(self.width);
    }
}

/// SRRIP (Static RRIP) insertion/promotion core.
///
/// *Scan-resistant*: new lines are pessimistically inserted at
/// *intermediate* re-reference; only an actual hit promotes a line to
/// *immediate*. This is the paper's baseline policy (all results in
/// Figure 6 / Table 3 are normalized to SRRIP).
///
/// # Example
///
/// ```
/// use trrip_core::{RripTable, SrripCore, RrpvWidth, Rrpv};
///
/// let w = RrpvWidth::W2;
/// let core = SrripCore::new(w);
/// let mut table = RripTable::new(2, 8, w);
/// let mut set = table.set_mut(1);
/// let victim = set.find_victim();
/// core.on_fill(&mut set, victim);
/// assert_eq!(set.rrpv(victim), Rrpv::intermediate(w));
/// core.on_hit(&mut set, victim);
/// assert_eq!(set.rrpv(victim), Rrpv::immediate());
/// assert_eq!(table.rrpv(0, victim), Rrpv::distant(w)); // the other set is untouched
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SrripCore {
    width: RrpvWidth,
}

impl SrripCore {
    /// Creates the core for a given RRPV width.
    #[must_use]
    pub fn new(width: RrpvWidth) -> SrripCore {
        SrripCore { width }
    }

    /// Hit promotion: hit-priority (HP) variant, promote to *immediate*.
    pub fn on_hit(&self, set: &mut TableSet<'_>, way: usize) {
        set.set_rrpv(way, Rrpv::immediate());
    }

    /// Insertion: pessimistic *intermediate* re-reference prediction.
    pub fn on_fill(&self, set: &mut TableSet<'_>, way: usize) {
        set.set_rrpv(way, Rrpv::intermediate(self.width));
    }
}

/// BRRIP (Bimodal RRIP) insertion core.
///
/// *Thrash-resistant*: inserts at *distant* most of the time, and at
/// *intermediate* with low probability (1/32 by default, the value used in
/// the RRIP paper), so that a fraction of a thrashing working set sticks.
///
/// Determinism: the "probability" is realized with a deterministic
/// throttle counter rather than an RNG, matching common hardware
/// implementations and keeping simulations reproducible.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BrripCore {
    width: RrpvWidth,
    throttle: u32,
    counter: u32,
}

impl BrripCore {
    /// Default insertion throttle: 1 in 32 fills are *intermediate*.
    pub const DEFAULT_THROTTLE: u32 = 32;

    /// Creates the core with the default 1/32 throttle.
    #[must_use]
    pub fn new(width: RrpvWidth) -> BrripCore {
        BrripCore { width, throttle: BrripCore::DEFAULT_THROTTLE, counter: 0 }
    }

    /// Hit promotion: same hit-priority behaviour as SRRIP.
    pub fn on_hit(&self, set: &mut TableSet<'_>, way: usize) {
        set.set_rrpv(way, Rrpv::immediate());
    }

    /// Insertion: *distant* except every `throttle`-th fill which is
    /// *intermediate*.
    pub fn on_fill(&mut self, set: &mut TableSet<'_>, way: usize) {
        self.counter = (self.counter + 1) % self.throttle;
        let value = if self.counter == 0 {
            Rrpv::intermediate(self.width)
        } else {
            Rrpv::distant(self.width)
        };
        set.set_rrpv(way, value);
    }
}

impl Snapshot for BrripCore {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(u64::from(self.counter));
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let counter = r.u64()?;
        if counter >= u64::from(self.throttle) {
            return Err(SnapError::Mismatch(format!(
                "BRRIP throttle counter {counter} out of range for throttle {}",
                self.throttle
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
    fn neighbour(way: usize, width: RrpvWidth) -> Rrpv {
        Rrpv::from_raw((way % 2) as u8, width)
    }

    pub(crate) fn two_rows(ways: usize, width: RrpvWidth) -> RripTable {
        let mut table = RripTable::new(2, ways, width);
        for way in 0..ways {
            table.set_rrpv(0, way, neighbour(way, width));
        }
        table
    }

    pub(crate) fn assert_neighbour_untouched(table: &RripTable) {
        for way in 0..table.ways() {
            let expected = neighbour(way, table.width());
            assert_eq!(table.rrpv(0, way), expected, "row 0 moved at way {way}");
        }
    }

    #[test]
    fn fresh_set_prefers_way_zero() {
        let mut table = two_rows(8, RrpvWidth::W2);
        assert_eq!(table.set_mut(ROW).find_victim(), 0);
        assert_neighbour_untouched(&table);
    }

    #[test]
    fn eviction_ages_until_distant_found() {
        let w = RrpvWidth::W2;
        let mut table = two_rows(4, w);
        let mut set = table.set_mut(ROW);
        for way in 0..4 {
            set.set_rrpv(way, Rrpv::immediate());
        }
        set.set_rrpv(2, Rrpv::intermediate(w));
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
        let mut table = two_rows(4, RrpvWidth::W2);
        table.set_rrpv(ROW, 0, Rrpv::immediate());
        // Ways 1..3 are distant; the scan returns the first.
        assert_eq!(table.set_mut(ROW).find_victim(), 1);
        assert_neighbour_untouched(&table);
    }

    #[test]
    fn srrip_insert_intermediate_hit_immediate() {
        let w = RrpvWidth::W2;
        let core = SrripCore::new(w);
        let mut table = two_rows(4, w);
        core.on_fill(&mut table.set_mut(ROW), 0);
        assert_eq!(table.rrpv(ROW, 0), Rrpv::intermediate(w));
        core.on_hit(&mut table.set_mut(ROW), 0);
        assert_eq!(table.rrpv(ROW, 0), Rrpv::immediate());
        assert_neighbour_untouched(&table);
    }

    #[test]
    fn brrip_mostly_inserts_distant() {
        let w = RrpvWidth::W2;
        let mut core = BrripCore::new(w);
        let mut table = two_rows(4, w);
        let mut distant = 0;
        let mut intermediate = 0;
        for _ in 0..320 {
            core.on_fill(&mut table.set_mut(ROW), 0);
            if table.rrpv(ROW, 0) == Rrpv::distant(w) {
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
        let mut table = two_rows(4, RrpvWidth::W2);
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
        let _ = RripTable::new(2, 0, RrpvWidth::W2);
    }

    #[test]
    fn scan_resistance_srrip_keeps_reused_line() {
        // A reused line at immediate survives a burst of scanning fills.
        let w = RrpvWidth::W2;
        let core = SrripCore::new(w);
        let mut table = two_rows(4, w);
        let mut set = table.set_mut(ROW);
        // Hot line in way 0.
        core.on_fill(&mut set, 0);
        core.on_hit(&mut set, 0);
        // Scan: repeatedly fill victims; way 0 must never be chosen before
        // the scanned lines (they sit at intermediate, aged to distant first).
        for _ in 0..16 {
            let v = set.find_victim();
            assert_ne!(v, 0, "scan evicted the reused line");
            core.on_fill(&mut set, v);
            // Refresh the hot line as a real workload would.
            core.on_hit(&mut set, 0);
        }
        assert_neighbour_untouched(&table);
    }
}
