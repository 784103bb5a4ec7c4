//! True-LRU replacement.

use trrip_mem::MemoryRequest;
use trrip_snap::{SnapError, SnapReader, SnapWriter};

use crate::ReplacementPolicy;

/// Least-Recently-Used replacement with full recency stacks.
///
/// Each set maintains a monotonically increasing timestamp per way; the
/// victim is the way with the smallest stamp. This is the L2 policy when
/// LRU is the one under test, and the substrate Emissary builds on. The
/// levels Table 1 fixes to LRU — the L1s and the SLC — do not hold it:
/// they are `trrip_cache::LruCache`s, which keep each set's stamps beside
/// its tags and draw them from one clock per level.
///
/// The recency clock is **per set**: a touch in one set never changes the
/// stamps another set will receive. Victim choices are identical to a
/// global-clock LRU (only the relative order within a set matters). The
/// per-set form stays because the snapshot encoding is made of it: every
/// overlay of an LRU L2 on disk holds one clock per set and the stamps
/// drawn from it, and the pinned state bytes are those.
///
/// # Example
///
/// ```
/// use trrip_mem::{MemoryRequest, PhysAddr, VirtAddr};
/// use trrip_policies::{Lru, ReplacementPolicy};
///
/// let mut lru = Lru::new(1, 4);
/// let req = MemoryRequest::fetch(PhysAddr::new(0), VirtAddr::new(0));
/// for way in 0..4 {
///     lru.on_fill(0, way, &req);
/// }
/// lru.on_hit(0, 0, &req); // way 0 becomes MRU
/// let victim = lru.choose_victim(0);
/// assert_eq!(victim, 1); // oldest untouched way
/// ```
#[derive(Debug, Clone)]
pub struct Lru {
    ways: usize,
    stamps: Vec<u64>,
    clocks: Vec<u64>,
}

impl Lru {
    /// Creates LRU state for `sets × ways` lines.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    #[must_use]
    pub fn new(sets: usize, ways: usize) -> Lru {
        assert!(sets > 0 && ways > 0, "cache must have at least one set and way");
        Lru { ways, stamps: vec![0; sets * ways], clocks: vec![0; sets] }
    }

    #[inline]
    fn touch(&mut self, set: usize, way: usize) {
        self.clocks[set] += 1;
        self.stamps[set * self.ways + way] = self.clocks[set];
    }

    /// The least-recently-used of the set's ways that `eligible` admits,
    /// the lowest such way among equals; `None` if it admits none
    /// (read-only helper shared with Emissary).
    #[must_use]
    pub fn lru_way(&self, set: usize, eligible: impl Fn(usize) -> bool) -> Option<usize> {
        let base = set * self.ways;
        (0..self.ways).filter(|&way| eligible(way)).min_by_key(|&way| self.stamps[base + way])
    }
}

impl ReplacementPolicy for Lru {
    fn on_hit(&mut self, set: usize, way: usize, _req: &MemoryRequest) {
        self.touch(set, way);
    }

    fn choose_victim(&mut self, set: usize) -> usize {
        self.lru_way(set, |_| true).expect("a set has at least one way")
    }

    fn on_fill(&mut self, set: usize, way: usize, _req: &MemoryRequest) {
        self.touch(set, way);
    }

    fn save_state(&self, w: &mut SnapWriter) {
        w.usize(self.clocks.len());
        for &clock in &self.clocks {
            w.u64(clock);
        }
        w.usize(self.stamps.len());
        for &stamp in &self.stamps {
            w.u64(stamp);
        }
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.expect_len("LRU clock count", self.clocks.len())?;
        for clock in &mut self.clocks {
            *clock = r.u64()?;
        }
        r.expect_len("LRU stamp count", self.stamps.len())?;
        for stamp in &mut self.stamps {
            *stamp = r.u64()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::ifetch;

    #[test]
    fn victim_is_least_recently_touched() {
        let mut lru = Lru::new(2, 4);
        let req = ifetch(0);
        for way in 0..4 {
            lru.on_fill(0, way, &req);
        }
        lru.on_hit(0, 0, &req);
        lru.on_hit(0, 2, &req);
        assert_eq!(lru.choose_victim(0), 1);
    }

    #[test]
    fn sets_are_independent() {
        let mut lru = Lru::new(2, 2);
        let req = ifetch(0);
        lru.on_fill(0, 0, &req);
        lru.on_fill(0, 1, &req);
        lru.on_fill(1, 0, &req);
        lru.on_fill(1, 1, &req);
        lru.on_hit(0, 0, &req);
        // Set 1 untouched by the hit: way 0 is still its LRU.
        assert_eq!(lru.choose_victim(1), 0);
        assert_eq!(lru.choose_victim(0), 1);
    }
}
