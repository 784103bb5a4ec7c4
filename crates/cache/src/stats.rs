//! Per-cache access statistics.

use serde::{Deserialize, Serialize};
use trrip_snap::{SnapError, SnapReader, SnapWriter, Snapshot};

/// Demand and prefetch counters for one cache level, split by
/// instruction/data side — the raw material for Table 3's MPKI numbers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccessStats {
    /// Demand instruction accesses.
    pub inst_accesses: u64,
    /// Demand instruction misses.
    pub inst_misses: u64,
    /// Demand data accesses.
    pub data_accesses: u64,
    /// Demand data misses.
    pub data_misses: u64,
    /// Prefetch lookups that hit.
    pub prefetch_hits: u64,
    /// Prefetch fills brought into this level.
    pub prefetch_fills: u64,
    /// Lines evicted by replacement.
    pub evictions: u64,
    /// Dirty lines written back on eviction.
    pub writebacks: u64,
    /// Lines invalidated from above (inclusive back-invalidation).
    pub back_invalidations: u64,
}

impl AccessStats {
    /// Total demand accesses.
    #[must_use]
    pub fn demand_accesses(&self) -> u64 {
        self.inst_accesses + self.data_accesses
    }

    /// Total demand misses.
    #[must_use]
    pub fn demand_misses(&self) -> u64 {
        self.inst_misses + self.data_misses
    }

    /// Demand hit rate in `[0, 1]`; 0 when there were no accesses.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let accesses = self.demand_accesses();
        if accesses == 0 {
            return 0.0;
        }
        1.0 - self.demand_misses() as f64 / accesses as f64
    }

    /// Instruction misses per kilo-instruction.
    #[must_use]
    pub fn inst_mpki(&self, instructions: u64) -> f64 {
        mpki(self.inst_misses, instructions)
    }

    /// Data misses per kilo-instruction.
    #[must_use]
    pub fn data_mpki(&self, instructions: u64) -> f64 {
        mpki(self.data_misses, instructions)
    }

    /// Records one demand access.
    pub fn record_demand(&mut self, is_instruction: bool, hit: bool) {
        if is_instruction {
            self.inst_accesses += 1;
            if !hit {
                self.inst_misses += 1;
            }
        } else {
            self.data_accesses += 1;
            if !hit {
                self.data_misses += 1;
            }
        }
    }
}

impl Snapshot for AccessStats {
    fn save(&self, w: &mut SnapWriter) {
        for v in [
            self.inst_accesses,
            self.inst_misses,
            self.data_accesses,
            self.data_misses,
            self.prefetch_hits,
            self.prefetch_fills,
            self.evictions,
            self.writebacks,
            self.back_invalidations,
        ] {
            w.u64(v);
        }
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.inst_accesses = r.u64()?;
        self.inst_misses = r.u64()?;
        self.data_accesses = r.u64()?;
        self.data_misses = r.u64()?;
        self.prefetch_hits = r.u64()?;
        self.prefetch_fills = r.u64()?;
        self.evictions = r.u64()?;
        self.writebacks = r.u64()?;
        self.back_invalidations = r.u64()?;
        Ok(())
    }
}

fn mpki(misses: u64, instructions: u64) -> f64 {
    if instructions == 0 {
        return 0.0;
    }
    misses as f64 * 1000.0 / instructions as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_demand_splits_by_side() {
        let mut s = AccessStats::default();
        s.record_demand(true, false);
        s.record_demand(true, true);
        s.record_demand(false, false);
        assert_eq!(s.inst_accesses, 2);
        assert_eq!(s.inst_misses, 1);
        assert_eq!(s.data_accesses, 1);
        assert_eq!(s.data_misses, 1);
    }

    #[test]
    fn mpki_is_per_kilo_instruction() {
        let s = AccessStats { inst_misses: 500, data_misses: 250, ..Default::default() };
        assert!((s.inst_mpki(1_000_000) - 0.5).abs() < 1e-12);
        assert!((s.data_mpki(1_000_000) - 0.25).abs() < 1e-12);
        assert_eq!(s.inst_mpki(0), 0.0);
    }

    #[test]
    fn hit_rate_handles_empty() {
        assert_eq!(AccessStats::default().hit_rate(), 0.0);
        let mut s = AccessStats::default();
        s.record_demand(true, true);
        s.record_demand(true, false);
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }
}
