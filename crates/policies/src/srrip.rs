//! SRRIP — Static Re-Reference Interval Prediction (the paper's baseline).

use trrip_core::{RripTable, Rrpv};
use trrip_snap::{SnapError, SnapReader, SnapWriter, Snapshot};

use crate::{ReplacementPolicy, RequestInfo};

/// SRRIP with hit-priority promotion over per-set RRPV arrays.
///
/// *Scan-resistant*: new lines are pessimistically inserted at
/// *intermediate* re-reference; only an actual hit promotes a line to
/// *immediate*. All speedups in the paper (Figure 6, Table 3) are normalized to this
/// policy running on the L2.
///
/// # Example
///
/// ```
/// use trrip_policies::{Srrip, ReplacementPolicy, RequestInfo};
///
/// let mut srrip = Srrip::new(16, 8);
/// let req = RequestInfo::ifetch(0x40);
/// let victim = srrip.choose_victim(0, &req);
/// srrip.on_fill(0, victim, &req);
/// ```
#[derive(Debug, Clone)]
pub struct Srrip {
    sets: RripTable,
}

impl Srrip {
    /// Creates SRRIP state for a `sets × ways` cache.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    #[must_use]
    pub fn new(sets: usize, ways: usize) -> Srrip {
        Srrip { sets: RripTable::new(sets, ways) }
    }
}

impl ReplacementPolicy for Srrip {
    fn on_hit(&mut self, set: usize, way: usize, _req: &RequestInfo) {
        self.sets.set_rrpv(set, way, Rrpv::immediate());
    }

    fn choose_victim(&mut self, set: usize, _req: &RequestInfo) -> usize {
        self.sets.set_mut(set).find_victim()
    }

    fn on_fill(&mut self, set: usize, way: usize, _req: &RequestInfo) {
        self.sets.set_rrpv(set, way, Rrpv::intermediate());
    }

    fn on_invalidate(&mut self, set: usize, way: usize) {
        self.sets.set_mut(set).invalidate(way);
    }

    fn save_state(&self, w: &mut SnapWriter) {
        self.sets.save(w);
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.sets.restore(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_then_hit_promotes() {
        let mut p = Srrip::new(4, 4);
        let req = RequestInfo::ifetch(0);
        p.on_fill(0, 0, &req);
        p.on_hit(0, 0, &req);
        // Way 0 is immediate: a victim scan must not pick it before others.
        let v = p.choose_victim(0, &req);
        assert_ne!(v, 0);
    }

    #[test]
    fn aging_applies_to_whole_set() {
        let mut p = Srrip::new(1, 2);
        let req = RequestInfo::ifetch(0);
        p.on_fill(0, 0, &req);
        p.on_hit(0, 0, &req); // way0 immediate
        p.on_fill(0, 1, &req); // way1 intermediate
                               // Nothing distant: ages set until way1 is (1 step).
        let v = p.choose_victim(0, &req);
        assert_eq!(v, 1);
        // Way 0 aged from immediate to near as a side effect.
        assert_eq!(p.sets.rrpv(0, 0), Rrpv::near());
    }
}
