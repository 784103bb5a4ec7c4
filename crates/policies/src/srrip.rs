//! SRRIP — Static Re-Reference Interval Prediction (the paper's baseline).

use trrip_core::{RripTable, RrpvWidth, SrripCore};
use trrip_snap::{SnapError, SnapReader, SnapWriter, Snapshot};

use crate::{ReplacementPolicy, RequestInfo};

/// SRRIP with hit-priority promotion over per-set RRPV arrays.
///
/// All speedups in the paper (Figure 6, Table 3) are normalized to this
/// policy running on the L2.
///
/// # Example
///
/// ```
/// use trrip_policies::{Srrip, ReplacementPolicy, RequestInfo};
/// use trrip_core::RrpvWidth;
///
/// let mut srrip = Srrip::new(16, 8, RrpvWidth::W2);
/// let req = RequestInfo::ifetch(0x40);
/// let victim = srrip.choose_victim(0, &req);
/// srrip.on_fill(0, victim, &req);
/// ```
#[derive(Debug, Clone)]
pub struct Srrip {
    sets: RripTable,
    core: SrripCore,
    width: RrpvWidth,
}

impl Srrip {
    /// Creates SRRIP state for a `sets × ways` cache.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    #[must_use]
    pub fn new(sets: usize, ways: usize, width: RrpvWidth) -> Srrip {
        Srrip { sets: RripTable::new(sets, ways, width), core: SrripCore::new(width), width }
    }
}

impl ReplacementPolicy for Srrip {
    fn name(&self) -> &'static str {
        "SRRIP"
    }

    fn on_hit(&mut self, set: usize, way: usize, _req: &RequestInfo) {
        self.core.on_hit(&mut self.sets.set_mut(set), way);
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

    fn per_line_overhead_bits(&self) -> u32 {
        self.width.bits()
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
    use trrip_core::Rrpv;

    #[test]
    fn fill_then_hit_promotes() {
        let w = RrpvWidth::W2;
        let mut p = Srrip::new(4, 4, w);
        let req = RequestInfo::ifetch(0);
        p.on_fill(0, 0, &req);
        p.on_hit(0, 0, &req);
        // Way 0 is immediate: a victim scan must not pick it before others.
        let v = p.choose_victim(0, &req);
        assert_ne!(v, 0);
    }

    #[test]
    fn aging_applies_to_whole_set() {
        let w = RrpvWidth::W2;
        let mut p = Srrip::new(1, 2, w);
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

    #[test]
    fn overhead_is_rrpv_width() {
        assert_eq!(Srrip::new(1, 8, RrpvWidth::W2).per_line_overhead_bits(), 2);
        assert_eq!(Srrip::new(1, 8, RrpvWidth::W3).per_line_overhead_bits(), 3);
    }
}
