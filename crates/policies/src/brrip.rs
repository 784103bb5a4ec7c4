//! BRRIP — Bimodal Re-Reference Interval Prediction.

use trrip_core::{BrripCore, RripTable, Rrpv};
use trrip_snap::{SnapError, SnapReader, SnapWriter, Snapshot};

use crate::{ReplacementPolicy, RequestInfo};

/// BRRIP: inserts at *distant* except for 1-in-32 fills, which insert at
/// *intermediate*, resisting thrashing working sets.
///
/// On the paper's frontend-bound benchmarks BRRIP performs dramatically
/// worse than SRRIP (Figure 6 shows double-digit slowdowns) because the
/// instruction working sets are reused, not thrashed — reproducing that
/// inversion is part of validating the simulator.
#[derive(Debug, Clone)]
pub struct Brrip {
    sets: RripTable,
    core: BrripCore,
}

impl Brrip {
    /// Creates BRRIP state for a `sets × ways` cache with the 1/32
    /// insertion throttle.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    #[must_use]
    pub fn new(sets: usize, ways: usize) -> Brrip {
        Brrip { sets: RripTable::new(sets, ways), core: BrripCore::default() }
    }
}

impl ReplacementPolicy for Brrip {
    fn on_hit(&mut self, set: usize, way: usize, _req: &RequestInfo) {
        self.sets.set_rrpv(set, way, Rrpv::immediate());
    }

    fn choose_victim(&mut self, set: usize, _req: &RequestInfo) -> usize {
        self.sets.set_mut(set).find_victim()
    }

    fn on_fill(&mut self, set: usize, way: usize, _req: &RequestInfo) {
        self.core.on_fill(&mut self.sets.set_mut(set), way);
    }

    fn on_invalidate(&mut self, set: usize, way: usize) {
        self.sets.set_mut(set).invalidate(way);
    }

    fn save_state(&self, w: &mut SnapWriter) {
        self.sets.save(w);
        self.core.save(w);
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.sets.restore(r)?;
        self.core.restore(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn most_fills_are_distant() {
        let mut p = Brrip::new(1, 1);
        let req = RequestInfo::ifetch(0);
        let mut distant = 0;
        for _ in 0..64 {
            p.on_fill(0, 0, &req);
            if p.sets.rrpv(0, 0) == Rrpv::distant() {
                distant += 1;
            }
        }
        assert_eq!(distant, 62); // 2 of 64 fills are intermediate
    }

    #[test]
    fn freshly_inserted_distant_line_is_first_victim() {
        let mut p = Brrip::new(1, 4);
        let req = RequestInfo::ifetch(0);
        // Fill ways 0..3, hit 0..2 so they're immediate; way 3 stays distant.
        for way in 0..4 {
            p.on_fill(0, way, &req);
        }
        for way in 0..3 {
            p.on_hit(0, way, &req);
        }
        assert_eq!(p.choose_victim(0, &req), 3);
    }
}
