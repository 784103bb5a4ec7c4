//! Cache geometry.

use serde::{Deserialize, Serialize};
use trrip_mem::LINE_BYTES;

/// The geometry of one cache level: capacity and associativity.
///
/// A level's latencies are Table 1's and live beside the levels they
/// time, as [`crate::Hierarchy`]'s constants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: usize,
}

impl CacheConfig {
    /// Creates a geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide into a power-of-two number
    /// of sets of at least one.
    #[must_use]
    pub fn new(size_bytes: u64, ways: usize) -> CacheConfig {
        let config = CacheConfig { size_bytes, ways };
        assert!(config.num_sets() > 0, "cache too small for its associativity");
        assert!(
            config.num_sets().is_power_of_two(),
            "set count must be a power of two (size {size_bytes}, ways {ways})"
        );
        config
    }

    /// Number of sets implied by size, associativity and [`LINE_BYTES`].
    #[must_use]
    pub fn num_sets(&self) -> usize {
        (self.size_bytes / LINE_BYTES / self.ways as u64) as usize
    }

    /// Total number of lines.
    #[must_use]
    pub fn num_lines(&self) -> usize {
        self.num_sets() * self.ways
    }

    /// Table 1 unified L2 as seen by one core of the 4-core cluster:
    /// 128 kB, 8-way.
    #[must_use]
    pub fn paper_l2() -> CacheConfig {
        CacheConfig::new(128 << 10, 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_l2_has_256_sets() {
        let c = CacheConfig::paper_l2();
        assert_eq!(c.num_sets(), 256);
        assert_eq!(c.num_lines(), 2048);
    }

    #[test]
    fn paper_l1_geometry() {
        for c in [crate::Hierarchy::L1I, crate::Hierarchy::L1D] {
            assert_eq!(c.num_sets(), 256);
            assert_eq!(c.ways, 4);
        }
    }

    #[test]
    fn table1_slc_geometry() {
        let c = crate::Hierarchy::SLC;
        assert_eq!(c.num_sets(), 1024);
        assert_eq!(c.ways, 16);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_rejected() {
        let _ = CacheConfig::new(96 << 10, 8);
    }
}
