//! Cache geometry and latency configuration.

use serde::{Deserialize, Serialize};
use trrip_mem::LINE_BYTES;

/// Static configuration of one cache level.
///
/// Latencies follow Table 1's `tag/data` notation: a lookup that misses
/// pays the tag latency at this level before probing the next one; a hit
/// pays the data latency.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Display name ("L1-I", "L2", …).
    pub name: String,
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Cycles to determine hit/miss.
    pub tag_latency: u64,
    /// Cycles to return data on a hit.
    pub data_latency: u64,
}

impl CacheConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide into a power-of-two number
    /// of sets of at least one.
    #[must_use]
    pub fn new(
        name: &str,
        size_bytes: u64,
        ways: usize,
        tag_latency: u64,
        data_latency: u64,
    ) -> CacheConfig {
        let config =
            CacheConfig { name: name.to_owned(), size_bytes, ways, tag_latency, data_latency };
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

    /// Table 1 L1 instruction cache: 64 kB, 4-way, 1/3-cycle tag/data.
    #[must_use]
    pub fn paper_l1i() -> CacheConfig {
        CacheConfig::new("L1-I", 64 << 10, 4, 1, 3)
    }

    /// Table 1 L1 data cache: 64 kB, 4-way, 1/3-cycle tag/data.
    #[must_use]
    pub fn paper_l1d() -> CacheConfig {
        CacheConfig::new("L1-D", 64 << 10, 4, 1, 3)
    }

    /// Table 1 unified L2 as seen by one core of the 4-core cluster:
    /// 128 kB, 8-way, 8/12-cycle tag/data.
    #[must_use]
    pub fn paper_l2() -> CacheConfig {
        CacheConfig::new("L2", 128 << 10, 8, 8, 12)
    }

    /// Table 1 system-level cache: 1 MB, 16-way, 10/30-cycle tag/data.
    #[must_use]
    pub fn paper_slc() -> CacheConfig {
        CacheConfig::new("SLC", 1 << 20, 16, 10, 30)
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
        let c = CacheConfig::paper_l1i();
        assert_eq!(c.num_sets(), 256);
        assert_eq!(c.ways, 4);
    }

    #[test]
    fn paper_slc_geometry() {
        let c = CacheConfig::paper_slc();
        assert_eq!(c.num_sets(), 1024);
        assert_eq!(c.ways, 16);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_rejected() {
        let _ = CacheConfig::new("bad", 96 << 10, 8, 1, 1);
    }
}
