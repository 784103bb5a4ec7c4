//! Run-time policy selection for experiment sweeps.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::rrip::Rrip;
use crate::{Emissary, Lru, ReplacementPolicy, Ship};

/// Identifier for every policy the experiments sweep over.
///
/// [`PolicyKind::PAPER_SET`] lists the mechanisms of Figure 6 in plot
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PolicyKind {
    /// True LRU.
    Lru,
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

    /// Instantiates the policy for a `sets × ways` cache. Each mechanism
    /// is sized once, as §4.3 sizes it, by its own constants: a 2-bit
    /// RRPV, 32+32 leader sets and a 10-bit PSEL, a 64 kB SHiP table;
    /// EMISSARY reserves half of the `ways`.
    #[must_use]
    pub fn build(self, sets: usize, ways: usize) -> Box<dyn ReplacementPolicy> {
        match self {
            PolicyKind::Lru => Box::new(Lru::new(sets, ways)),
            PolicyKind::Ship => Box::new(Ship::new(sets, ways)),
            PolicyKind::Emissary => Box::new(Emissary::new(sets, ways)),
            PolicyKind::Srrip
            | PolicyKind::Brrip
            | PolicyKind::Drrip
            | PolicyKind::Clip
            | PolicyKind::Trrip1
            | PolicyKind::Trrip2 => Box::new(Rrip::new(self, sets, ways)),
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
            let v = p.choose_victim(3, &req);
            assert!(v < 8, "{kind}: victim out of range");
            p.on_fill(3, v, &req);
            p.on_hit(3, v, &req);
            p.on_evict(3, v);
            p.on_invalidate(3, v);
        }
    }
}
