//! Cache-line granularity.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::addr::PhysAddr;

/// Bytes per cache line, at every level of the paper's hierarchy. The
/// caches, the core's fetch lines, the next-line prefetcher, the
/// in-flight table and the reuse profiler all cut addresses at this one
/// size.
pub const LINE_BYTES: u64 = 64;

/// A line-granular physical address (the physical address divided by
/// [`LINE_BYTES`]). Cache tag stores and reuse-distance profilers work
/// at this granularity.
///
/// # Example
///
/// ```
/// use trrip_mem::{LineAddr, PhysAddr};
///
/// let line = LineAddr::of(PhysAddr::new(0x12_345));
/// assert_eq!(line.base().raw(), 0x12_340);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct LineAddr(pub u64);

impl LineAddr {
    /// The line containing `addr`.
    #[must_use]
    pub fn of(addr: PhysAddr) -> LineAddr {
        LineAddr(addr.raw() / LINE_BYTES)
    }

    /// The raw line number.
    #[must_use]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// The line's first byte.
    #[must_use]
    pub fn base(self) -> PhysAddr {
        PhysAddr::new(self.0 * LINE_BYTES)
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line:{:#x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_geometry_is_64_bytes() {
        assert_eq!(LINE_BYTES, 64);
        assert_eq!(LineAddr::of(PhysAddr::new(63)).raw(), 0);
        assert_eq!(LineAddr::of(PhysAddr::new(64)).raw(), 1);
    }

    #[test]
    fn line_of_strips_offset() {
        let of = |addr| LineAddr::of(PhysAddr::new(addr));
        assert_eq!(of(0x100), of(0x13f));
        assert_ne!(of(0x100), of(0x140));
    }

    #[test]
    fn base_of_round_trips() {
        let line = LineAddr::of(PhysAddr::new(0x1234));
        assert_eq!(line.base().raw(), 0x1200);
        assert_eq!(LineAddr::of(line.base()), line);
    }
}
