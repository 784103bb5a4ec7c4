//! The shared RRIP eviction mechanism.
//!
//! All RRIP-family policies — SRRIP, BRRIP, DRRIP, CLIP and TRRIP — share
//! one eviction mechanism (`GetEvictionLine` in Algorithm 1): scan for a
//! line whose RRPV equals the *distant* value; if none exists, age every
//! line in the set by one and rescan. The policies differ only in the
//! RRPV they write on a fill and on a hit, which is why an [`RripTable`]
//! exposes raw RRPV writes beside the mechanism and leaves the rules to
//! the policy that holds it (`trrip-policies`).

use serde::{Deserialize, Serialize};
use trrip_snap::{SnapError, SnapReader, SnapWriter, Snapshot};

use crate::rrpv::Rrpv;

/// All sets' RRPV registers in one flat array: `sets × ways` contiguous
/// bytes, so a set probe touches a single cache line. It deliberately
/// knows nothing about tags or validity — the cache's tag store owns
/// those — so the same state machine serves every RRIP-family policy.
///
/// # Example
///
/// ```
/// use trrip_core::{RripTable, Rrpv};
///
/// let mut table = RripTable::new(2, 4);
/// // New sets start with every way distant, so the first victim is way 0.
/// assert_eq!(table.find_victim(1), 0);
/// table.set_rrpv(1, 0, Rrpv::immediate());
/// assert_eq!(table.find_victim(1), 1);
/// // The other row is another set.
/// assert_eq!(table.find_victim(0), 0);
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

    /// Overwrites the RRPV of one way of one set (a policy's insertion
    /// and promotion rules).
    ///
    /// # Panics
    ///
    /// Panics if `set` or `way` is out of bounds.
    pub fn set_rrpv(&mut self, set: usize, way: usize, value: Rrpv) {
        assert!(way < self.ways, "way {way} out of bounds");
        self.rrpv[set * self.ways + way] = value;
    }

    /// The shared RRIP eviction mechanism (`GetEvictionLine`).
    ///
    /// Scans `set` from way 0 for a *distant* line; if none is found,
    /// increments the RRPV of all its ways and rescans. Guaranteed to
    /// terminate because aging saturates at the distant value. Mutates
    /// the set (the aging is architectural state), and returns the victim
    /// way. The victim's RRPV is left distant; the caller then applies
    /// its insertion rule.
    ///
    /// # Panics
    ///
    /// Panics if `set` is out of bounds.
    pub fn find_victim(&mut self, set: usize) -> usize {
        let row = &mut self.rrpv[set * self.ways..(set + 1) * self.ways];
        loop {
            if let Some(way) = row.iter().position(|v| v.is_distant()) {
                return way;
            }
            for v in row.iter_mut() {
                *v = v.aged();
            }
        }
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
                let raw = r.u8()?;
                if raw > Rrpv::distant().raw() {
                    return Err(SnapError::Corrupt(format!("RRPV {raw} is above distant")));
                }
                *v = Rrpv::from_raw(raw);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The row the tests drive; row 0 is the neighbour that must not move.
    const ROW: usize = 1;

    /// What row 0 holds: a pattern that aging, promotion or a fill would
    /// each disturb (alternating immediate / one step aged).
    fn neighbour(way: usize) -> Rrpv {
        Rrpv::from_raw((way % 2) as u8)
    }

    fn two_rows(ways: usize) -> RripTable {
        let mut table = RripTable::new(2, ways);
        for way in 0..ways {
            table.set_rrpv(0, way, neighbour(way));
        }
        table
    }

    fn assert_neighbour_untouched(table: &RripTable) {
        for way in 0..table.ways() {
            let expected = neighbour(way);
            assert_eq!(table.rrpv(0, way), expected, "row 0 moved at way {way}");
        }
    }

    #[test]
    fn fresh_set_prefers_way_zero() {
        let mut table = two_rows(8);
        assert_eq!(table.find_victim(ROW), 0);
        assert_neighbour_untouched(&table);
    }

    #[test]
    fn eviction_ages_until_distant_found() {
        let mut table = two_rows(4);
        for way in 0..4 {
            table.set_rrpv(ROW, way, Rrpv::immediate());
        }
        table.set_rrpv(ROW, 2, Rrpv::intermediate());
        // No distant line: mechanism ages all once (2 -> 3) and picks way 2.
        assert_eq!(table.find_victim(ROW), 2);
        // Other lines aged from immediate to near in the process.
        for way in [0, 1, 3] {
            assert_eq!(table.rrpv(ROW, way), Rrpv::near());
        }
        // …and the aging stopped at the row's edge.
        assert_neighbour_untouched(&table);
    }

    #[test]
    fn eviction_picks_lowest_way_among_distant() {
        let mut table = two_rows(4);
        table.set_rrpv(ROW, 0, Rrpv::immediate());
        // Ways 1..3 are distant; the scan returns the first.
        assert_eq!(table.find_victim(ROW), 1);
        assert_neighbour_untouched(&table);
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_way_set_is_rejected() {
        let _ = RripTable::new(2, 0);
    }

    #[test]
    fn a_register_above_distant_is_refused_not_clamped() {
        let table = two_rows(4);
        let mut w = SnapWriter::new();
        table.save(&mut w);
        let mut bytes = w.into_bytes();
        // Every valid byte restores as it was saved.
        let mut restored = RripTable::new(2, 4);
        restored.restore(&mut SnapReader::new(&bytes)).expect("valid bytes");
        assert_eq!(restored, table);
        // The last byte is row 1's way 3; one past distant is corrupt.
        *bytes.last_mut().unwrap() = Rrpv::distant().raw() + 1;
        let err = RripTable::new(2, 4).restore(&mut SnapReader::new(&bytes)).unwrap_err();
        assert!(matches!(&err, SnapError::Corrupt(what) if what.contains("RRPV 4")), "{err}");
    }
}
