//! CLIP — Code Line Preservation (Jaleel et al., HPCA 2015).
//!
//! CLIP gives *all* instruction cache lines preferential treatment: they
//! are inserted at *immediate* re-reference, while data lines take the
//! default RRIP path. Set-dueling selects between the base variant and a
//! stricter one that additionally stops data lines from being promoted to
//! *immediate* on hit (they step up by one instead), mirroring the
//! description in §4.3 of the TRRIP paper.
//!
//! CLIP is the "temperature-blind" comparison point for TRRIP: §4.7 shows
//! that treating every instruction line as hot (`percentile_hot = 100%`)
//! behaves like CLIP and gives up most of the selective-priority benefit.

use trrip_core::{RripTable, Rrpv};
use trrip_snap::{SnapError, SnapReader, SnapWriter, Snapshot};

use crate::dueling::{DuelChoice, SetDueling};
use crate::{ReplacementPolicy, RequestInfo};

/// CLIP with SRRIP fallback for data lines and set-dueling between the
/// promote-data and demote-data variants.
#[derive(Debug, Clone)]
pub struct Clip {
    sets: RripTable,
    dueling: SetDueling,
}

impl Clip {
    /// Creates CLIP state with paper-default dueling parameters
    /// (32 leader sets per variant, 10-bit PSEL).
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    #[must_use]
    pub fn new(sets: usize, ways: usize) -> Clip {
        Clip { sets: RripTable::new(sets, ways), dueling: SetDueling::new(sets) }
    }

    /// Which CLIP variant currently governs a set (A = promote data on
    /// hit, B = single-step data promotion).
    #[must_use]
    pub fn variant_for_set(&self, set: usize) -> DuelChoice {
        self.dueling.choice_for_set(set)
    }
}

impl ReplacementPolicy for Clip {
    fn on_hit(&mut self, set: usize, way: usize, req: &RequestInfo) {
        if req.kind.is_instruction() {
            self.sets.set_rrpv(set, way, Rrpv::immediate());
            return;
        }
        match self.dueling.choice_for_set(set) {
            // Variant A: default promotion for data lines.
            DuelChoice::A => self.sets.set_rrpv(set, way, Rrpv::immediate()),
            // Variant B: data lines never reach immediate; step up by one.
            DuelChoice::B => {
                let stepped = self.sets.rrpv(set, way).promoted();
                let floor = Rrpv::near();
                self.sets.set_rrpv(set, way, stepped.max(floor));
            }
        }
    }

    fn choose_victim(&mut self, set: usize, _req: &RequestInfo) -> usize {
        self.dueling.record_miss(set);
        self.sets.set_mut(set).find_victim()
    }

    fn on_fill(&mut self, set: usize, way: usize, req: &RequestInfo) {
        if req.kind.is_instruction() {
            // Code Line Preservation: instructions insert at immediate.
            self.sets.set_rrpv(set, way, Rrpv::immediate());
        } else {
            self.sets.set_rrpv(set, way, Rrpv::intermediate());
        }
    }

    fn on_invalidate(&mut self, set: usize, way: usize) {
        self.sets.set_mut(set).invalidate(way);
    }

    fn save_state(&self, w: &mut SnapWriter) {
        self.sets.save(w);
        self.dueling.save(w);
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.sets.restore(r)?;
        self.dueling.restore(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instruction_fills_insert_immediate() {
        let mut p = Clip::new(64, 8);
        let req = RequestInfo::ifetch(0x40);
        p.on_fill(1, 0, &req);
        assert_eq!(p.sets.rrpv(1, 0), Rrpv::immediate());
    }

    #[test]
    fn data_fills_insert_intermediate() {
        let mut p = Clip::new(64, 8);
        let req = RequestInfo::data_load(0x40);
        p.on_fill(1, 0, &req);
        assert_eq!(p.sets.rrpv(1, 0), Rrpv::intermediate());
    }

    #[test]
    fn variant_b_caps_data_promotion_at_near() {
        let mut p = Clip::new(64, 8);
        let req = RequestInfo::data_load(0x40);
        // Find a B-leader set (stride = 64/32 = 2, half = 1 → odd sets).
        let b_set = (0..64)
            .find(|&s| p.variant_for_set(s) == DuelChoice::B && p.dueling.leader_of(s).is_some())
            .expect("a B leader must exist");
        p.on_fill(b_set, 0, &req);
        for _ in 0..5 {
            p.on_hit(b_set, 0, &req);
        }
        assert_eq!(p.sets.rrpv(b_set, 0), Rrpv::near());
    }

    #[test]
    fn variant_a_promotes_data_to_immediate() {
        let mut p = Clip::new(64, 8);
        let req = RequestInfo::data_load(0x40);
        let a_set = 0; // set 0 is always an A leader
        p.on_fill(a_set, 0, &req);
        p.on_hit(a_set, 0, &req);
        assert_eq!(p.sets.rrpv(a_set, 0), Rrpv::immediate());
    }

    #[test]
    fn instruction_hits_promote_to_immediate_in_both_variants() {
        let mut p = Clip::new(64, 8);
        let req = RequestInfo::ifetch(0x40);
        for set in [0usize, 1] {
            p.on_fill(set, 0, &req);
            p.sets.set_rrpv(set, 0, Rrpv::distant());
            p.on_hit(set, 0, &req);
            assert_eq!(p.sets.rrpv(set, 0), Rrpv::immediate());
        }
    }
}
