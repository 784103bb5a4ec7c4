//! DRRIP — Dynamic RRIP via SRRIP/BRRIP set-dueling.

use trrip_core::{BrripCore, RripTable, Rrpv};
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
    brrip: BrripCore,
    dueling: SetDueling,
}

impl Drrip {
    /// Creates DRRIP state with paper-default dueling parameters.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    #[must_use]
    pub fn new(sets: usize, ways: usize) -> Drrip {
        Drrip {
            sets: RripTable::new(sets, ways),
            brrip: BrripCore::default(),
            dueling: SetDueling::new(sets),
        }
    }

    /// Which insertion policy a set currently runs.
    #[must_use]
    pub fn policy_for_set(&self, set: usize) -> DuelChoice {
        self.dueling.choice_for_set(set)
    }
}

impl ReplacementPolicy for Drrip {
    fn on_hit(&mut self, set: usize, way: usize, _req: &RequestInfo) {
        // Both policies promote identically on hit.
        self.sets.set_rrpv(set, way, Rrpv::immediate());
    }

    fn choose_victim(&mut self, set: usize, _req: &RequestInfo) -> usize {
        self.dueling.record_miss(set);
        self.sets.set_mut(set).find_victim()
    }

    fn on_fill(&mut self, set: usize, way: usize, _req: &RequestInfo) {
        match self.dueling.choice_for_set(set) {
            DuelChoice::A => self.sets.set_rrpv(set, way, Rrpv::intermediate()),
            DuelChoice::B => self.brrip.on_fill(&mut self.sets.set_mut(set), way),
        }
    }

    fn on_invalidate(&mut self, set: usize, way: usize) {
        self.sets.set_mut(set).invalidate(way);
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

    #[test]
    fn leader_sets_use_their_policy() {
        let mut p = Drrip::new(256, 8);
        let req = RequestInfo::ifetch(0);
        // Set 0 is an A (SRRIP) leader with stride 8.
        assert_eq!(p.policy_for_set(0), DuelChoice::A);
        p.on_fill(0, 0, &req);
        assert_eq!(p.sets.rrpv(0, 0), Rrpv::intermediate());
        // Set 4 is a B (BRRIP) leader: most fills distant.
        assert_eq!(p.policy_for_set(4), DuelChoice::B);
        let mut distant = 0;
        for _ in 0..31 {
            p.on_fill(4, 1, &req);
            if p.sets.rrpv(4, 1) == Rrpv::distant() {
                distant += 1;
            }
        }
        assert!(distant >= 30);
    }

    #[test]
    fn follower_switches_with_psel() {
        let mut p = Drrip::new(256, 8);
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
        // The paper's 10-bit PSEL: it saturates at 2^10 - 1.
        let mut p = Drrip::new(256, 8);
        let req = RequestInfo::ifetch(0);
        for _ in 0..2000 {
            let _ = p.choose_victim(0, &req);
        }
        assert_eq!(p.dueling.psel(), (1 << 10) - 1);
    }
}
