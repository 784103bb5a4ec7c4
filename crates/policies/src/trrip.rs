//! TRRIP adapted to the [`ReplacementPolicy`] trait.
//!
//! The algorithm itself lives in [`trrip_core::TrripPolicy`]; this module
//! binds it to per-set RRPV state and the common eviction mechanism. True
//! to §3.4, *nothing* about the request is stored per line — temperature
//! arrives with each access and influences only the RRPV written at that
//! moment, so the per-set state is exactly the baseline RRPV array.

use trrip_core::{RripTable, TrripPolicy, TrripVariant};
use trrip_snap::{SnapError, SnapReader, SnapWriter, Snapshot};

use crate::{ReplacementPolicy, RequestInfo};

/// TRRIP replacement over per-set RRPV arrays.
///
/// # Example
///
/// ```
/// use trrip_policies::{Trrip, ReplacementPolicy, RequestInfo};
/// use trrip_core::{TrripVariant, Temperature};
///
/// let mut trrip = Trrip::new(64, 8, TrripVariant::V1);
/// let hot = RequestInfo::ifetch(0x40).with_temperature(Some(Temperature::Hot));
/// let victim = trrip.choose_victim(0, &hot);
/// trrip.on_fill(0, victim, &hot); // inserted at immediate re-reference
/// ```
#[derive(Debug, Clone)]
pub struct Trrip {
    sets: RripTable,
    policy: TrripPolicy,
}

impl Trrip {
    /// Creates TRRIP state for a `sets × ways` cache.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    #[must_use]
    pub fn new(sets: usize, ways: usize, variant: TrripVariant) -> Trrip {
        Trrip { sets: RripTable::new(sets, ways), policy: TrripPolicy::new(variant) }
    }

    /// Temperature only applies to instruction requests; data requests
    /// take the default path even if attribute bits were somehow set
    /// (§3.4: "TRRIP's replacement policy features only trigger on
    /// instruction memory requests containing valid temperature
    /// information").
    fn effective_temperature(req: &RequestInfo) -> Option<trrip_core::Temperature> {
        if req.kind.is_instruction() {
            req.temperature
        } else {
            None
        }
    }
}

impl ReplacementPolicy for Trrip {
    fn on_hit(&mut self, set: usize, way: usize, req: &RequestInfo) {
        self.policy.on_hit(&mut self.sets.set_mut(set), way, Trrip::effective_temperature(req));
    }

    fn choose_victim(&mut self, set: usize, _req: &RequestInfo) -> usize {
        // Eviction is untouched RRIP (Algorithm 1 line 14).
        self.sets.set_mut(set).find_victim()
    }

    fn on_fill(&mut self, set: usize, way: usize, req: &RequestInfo) {
        self.policy.on_fill(&mut self.sets.set_mut(set), way, Trrip::effective_temperature(req));
    }

    fn on_invalidate(&mut self, set: usize, way: usize) {
        self.sets.set_mut(set).invalidate(way);
    }

    fn save_state(&self, w: &mut SnapWriter) {
        // The TRRIP policy core is stateless (§3.4): per-set RRPVs are
        // the entire architectural state.
        self.sets.save(w);
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.sets.restore(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::srrip::Srrip;
    use trrip_core::{Rrpv, Temperature};

    fn hot_fetch(pc: u64) -> RequestInfo {
        RequestInfo::ifetch(pc).with_temperature(Some(Temperature::Hot))
    }

    #[test]
    fn hot_code_survives_data_pressure() {
        // The headline behaviour: a hot instruction line being executed
        // regularly survives a stream of data fills through its set,
        // where SRRIP would age it out.
        let mut trrip = Trrip::new(1, 4, TrripVariant::V1);
        let hot = hot_fetch(0x100);
        let v = trrip.choose_victim(0, &hot);
        trrip.on_fill(0, v, &hot);
        let hot_way = v;
        for i in 0..32 {
            let data = RequestInfo::data_load(0x9000 + i * 64);
            let victim = trrip.choose_victim(0, &data);
            assert_ne!(victim, hot_way, "hot line evicted at iteration {i}");
            trrip.on_fill(0, victim, &data);
            trrip.on_hit(0, hot_way, &hot);
        }
    }

    #[test]
    fn temperature_on_data_requests_is_ignored() {
        let mut trrip = Trrip::new(1, 4, TrripVariant::V1);
        let tagged_data = RequestInfo::data_load(0x100).with_temperature(Some(Temperature::Hot));
        trrip.on_fill(0, 0, &tagged_data);
        assert_eq!(trrip.sets.rrpv(0, 0), Rrpv::intermediate());
    }

    #[test]
    fn untyped_behaviour_matches_srrip() {
        let mut trrip = Trrip::new(1, 4, TrripVariant::V2);
        let mut srrip = Srrip::new(1, 4);
        let req = RequestInfo::ifetch(0x40);
        for i in 0..64 {
            let r = RequestInfo::ifetch(0x40 + (i % 8) * 64);
            let vt = trrip.choose_victim(0, &r);
            let vs = srrip.choose_victim(0, &r);
            assert_eq!(vt, vs);
            trrip.on_fill(0, vt, &r);
            srrip.on_fill(0, vs, &r);
        }
        let _ = req;
    }

    #[test]
    fn per_line_overhead_equals_baseline_rrip() {
        // Nothing about a request is stored with the line (§3.4): TRRIP's
        // whole state is SRRIP's RRPV array, byte for byte in size.
        let state = |p: &dyn ReplacementPolicy| {
            let mut w = SnapWriter::new();
            p.save_state(&mut w);
            w.into_bytes().len()
        };
        let trrip = Trrip::new(64, 8, TrripVariant::V2);
        assert_eq!(state(&trrip), state(&Srrip::new(64, 8)));
    }
}
