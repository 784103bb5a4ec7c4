//! DRRIP — Dynamic RRIP via SRRIP/BRRIP set-dueling.

use trrip_core::{BrripCore, RripTable, RrpvWidth, SrripCore};
use trrip_snap::{SnapError, SnapReader, SnapWriter, Snapshot};

use crate::dueling::{DuelChoice, SetDueling};
use crate::{ReplacementPolicy, RequestInfo};

/// DRRIP: set-dueling between scan-resistant SRRIP and thrash-resistant
/// BRRIP with the paper's parameters (32 leader sets each, 10-bit PSEL).
///
/// The paper observes DRRIP underperforming SRRIP on its benchmarks
/// because the BRRIP leader sets keep paying for thrash-resistance the
/// workloads do not need (§4.4).
#[derive(Debug, Clone)]
pub struct Drrip {
    sets: RripTable,
    srrip: SrripCore,
    brrip: BrripCore,
    dueling: SetDueling,
    width: RrpvWidth,
}

impl Drrip {
    /// Creates DRRIP state with paper-default dueling parameters.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    #[must_use]
    pub fn new(sets: usize, ways: usize, width: RrpvWidth) -> Drrip {
        Drrip {
            sets: RripTable::new(sets, ways, width),
            srrip: SrripCore::new(width),
            brrip: BrripCore::new(width),
            dueling: SetDueling::paper_defaults(sets),
            width,
        }
    }

    /// Which insertion policy a set currently runs.
    #[must_use]
    pub fn policy_for_set(&self, set: usize) -> DuelChoice {
        self.dueling.choice_for_set(set)
    }
}

impl ReplacementPolicy for Drrip {
    fn name(&self) -> &'static str {
        "DRRIP"
    }

    fn on_hit(&mut self, set: usize, way: usize, _req: &RequestInfo) {
        // Both policies promote identically on hit.
        self.srrip.on_hit(&mut self.sets.set_mut(set), way);
    }

    fn choose_victim(&mut self, set: usize, _req: &RequestInfo) -> usize {
        self.dueling.record_miss(set);
        self.sets.set_mut(set).find_victim()
    }

    fn on_fill(&mut self, set: usize, way: usize, _req: &RequestInfo) {
        match self.dueling.choice_for_set(set) {
            DuelChoice::A => self.srrip.on_fill(&mut self.sets.set_mut(set), way),
            DuelChoice::B => self.brrip.on_fill(&mut self.sets.set_mut(set), way),
        }
    }

    fn on_invalidate(&mut self, set: usize, way: usize) {
        self.sets.set_mut(set).invalidate(way);
    }

    fn per_line_overhead_bits(&self) -> u32 {
        self.width.bits()
    }

    fn extra_storage_bits(&self) -> u64 {
        self.dueling.storage_bits()
    }

    fn save_state(&self, w: &mut SnapWriter) {
        self.sets.save(w);
        self.brrip.save(w);
        self.dueling.save(w);
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.sets.restore(r)?;
        self.brrip.restore(r)?;
        self.dueling.restore(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trrip_core::Rrpv;

    #[test]
    fn leader_sets_use_their_policy() {
        let w = RrpvWidth::W2;
        let mut p = Drrip::new(256, 8, w);
        let req = RequestInfo::ifetch(0);
        // Set 0 is an A (SRRIP) leader with stride 8.
        assert_eq!(p.policy_for_set(0), DuelChoice::A);
        p.on_fill(0, 0, &req);
        assert_eq!(p.sets.rrpv(0, 0), Rrpv::intermediate(w));
        // Set 4 is a B (BRRIP) leader: most fills distant.
        assert_eq!(p.policy_for_set(4), DuelChoice::B);
        let mut distant = 0;
        for _ in 0..31 {
            p.on_fill(4, 1, &req);
            if p.sets.rrpv(4, 1) == Rrpv::distant(w) {
                distant += 1;
            }
        }
        assert!(distant >= 30);
    }

    #[test]
    fn follower_switches_with_psel() {
        let w = RrpvWidth::W2;
        let mut p = Drrip::new(256, 8, w);
        let req = RequestInfo::ifetch(0);
        assert_eq!(p.policy_for_set(1), DuelChoice::A);
        // Hammer misses into A-leader sets only.
        for _ in 0..600 {
            let _ = p.choose_victim(0, &req);
        }
        assert_eq!(p.policy_for_set(1), DuelChoice::B);
    }

    #[test]
    fn psel_storage_reported() {
        let p = Drrip::new(256, 8, RrpvWidth::W2);
        assert_eq!(p.extra_storage_bits(), 10);
    }
}
