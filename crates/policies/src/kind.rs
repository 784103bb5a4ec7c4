//! Run-time policy selection for experiment sweeps.

use std::fmt;

use serde::{Deserialize, Serialize};
use trrip_core::{RrpvWidth, TrripVariant};

use crate::{
    Brrip, Clip, Drrip, Emissary, Lru, RandomPolicy, ReplacementPolicy, Ship, ShipConfig, Srrip,
    Trrip,
};

/// Identifier for every policy the experiments sweep over.
///
/// [`PolicyKind::PAPER_SET`] lists the mechanisms of Figure 6 in plot
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PolicyKind {
    /// True LRU.
    Lru,
    /// Random victim (sanity baseline; not in the paper).
    Random,
    /// Static RRIP — the normalization baseline.
    Srrip,
    /// Bimodal RRIP.
    Brrip,
    /// Dynamic RRIP (set-dueling).
    Drrip,
    /// Signature-based Hit Predictor.
    Ship,
    /// Code Line Preservation.
    Clip,
    /// Emissary way-locking.
    Emissary,
    /// TRRIP variant 1 (hot only).
    Trrip1,
    /// TRRIP variant 2 (hot + warm/cold rules).
    Trrip2,
}

impl PolicyKind {
    /// The paper's evaluated set in Figure 6 order (SRRIP is the baseline
    /// and is listed first).
    pub const PAPER_SET: [PolicyKind; 9] = [
        PolicyKind::Srrip,
        PolicyKind::Lru,
        PolicyKind::Brrip,
        PolicyKind::Drrip,
        PolicyKind::Ship,
        PolicyKind::Clip,
        PolicyKind::Emissary,
        PolicyKind::Trrip1,
        PolicyKind::Trrip2,
    ];

    /// Display name as used in the figures.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Lru => "LRU",
            PolicyKind::Random => "Random",
            PolicyKind::Srrip => "SRRIP",
            PolicyKind::Brrip => "BRRIP",
            PolicyKind::Drrip => "DRRIP",
            PolicyKind::Ship => "SHiP",
            PolicyKind::Clip => "CLIP",
            PolicyKind::Emissary => "EMISSARY",
            PolicyKind::Trrip1 => "TRRIP-1",
            PolicyKind::Trrip2 => "TRRIP-2",
        }
    }

    /// Instantiates the policy for a `sets × ways` cache with the paper's
    /// parameters (2-bit RRPV, 32+32 leader sets, 10-bit PSEL, 64 kB SHiP
    /// table, 4-of-8 Emissary reservation).
    #[must_use]
    pub fn build(self, sets: usize, ways: usize) -> Box<dyn ReplacementPolicy> {
        let width = RrpvWidth::W2;
        match self {
            PolicyKind::Lru => Box::new(Lru::new(sets, ways)),
            PolicyKind::Random => Box::new(RandomPolicy::new(ways, RandomPolicy::DEFAULT_SEED)),
            PolicyKind::Srrip => Box::new(Srrip::new(sets, ways, width)),
            PolicyKind::Brrip => Box::new(Brrip::new(sets, ways, width)),
            PolicyKind::Drrip => Box::new(Drrip::new(sets, ways, width)),
            PolicyKind::Ship => Box::new(Ship::new(sets, ways, width, ShipConfig::paper_64kb())),
            PolicyKind::Clip => Box::new(Clip::new(sets, ways, width)),
            PolicyKind::Emissary => Box::new(Emissary::paper_defaults(sets, ways)),
            PolicyKind::Trrip1 => Box::new(Trrip::new(sets, ways, TrripVariant::V1, width)),
            PolicyKind::Trrip2 => Box::new(Trrip::new(sets, ways, TrripVariant::V2, width)),
        }
    }
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RequestInfo;

    #[test]
    fn build_produces_working_policies() {
        let req = RequestInfo::ifetch(0x1000);
        for kind in PolicyKind::PAPER_SET {
            let mut p = kind.build(64, 8);
            assert_eq!(p.name(), kind.name());
            let v = p.choose_victim(3, &req);
            assert!(v < 8, "{kind}: victim out of range");
            p.on_fill(3, v, &req);
            p.on_hit(3, v, &req);
            p.on_evict(3, v);
            p.on_invalidate(3, v);
        }
    }

    #[test]
    fn only_trrip_and_clip_add_no_storage() {
        // Table 4's qualitative claim: TRRIP/CLIP ≈ baseline, SHiP adds a
        // large table.
        let srrip = PolicyKind::Srrip.build(256, 8);
        let trrip = PolicyKind::Trrip1.build(256, 8);
        let ship = PolicyKind::Ship.build(256, 8);
        assert_eq!(trrip.per_line_overhead_bits(), srrip.per_line_overhead_bits());
        assert_eq!(trrip.extra_storage_bits(), 0);
        assert!(ship.extra_storage_bits() >= 64 * 1024 * 8);
    }
}
