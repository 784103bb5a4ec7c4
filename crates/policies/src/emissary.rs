//! Emissary — Enhanced Miss Awareness replacement (Nagendra et al.,
//! ISCA 2023), reimplemented on this infrastructure per §4.3.
//!
//! Emissary observes that some instruction misses are costlier than
//! others: those that starve the decode stage. Lines whose miss caused
//! decode starvation get a per-line priority bit, and replacement
//! *way-locks* them: victims are drawn from non-priority lines (LRU among
//! them) as long as priority lines hold at most half the set's ways (at
//! least one; the paper's 4 of 8). When priority lines exceed the
//! reservation, the protection collapses for that set and plain LRU takes
//! over, with the priority bits cleared to start a fresh epoch — the
//! original proposal's recycling behaviour.

use trrip_mem::MemoryRequest;
use trrip_snap::{SnapError, SnapReader, SnapWriter};

use crate::lru::Lru;
use crate::ReplacementPolicy;

/// Emissary: starvation-priority way-locking built on LRU.
#[derive(Debug, Clone)]
pub struct Emissary {
    lru: Lru,
    priority: Vec<bool>,
    ways: usize,
    reserved_ways: usize,
}

impl Emissary {
    /// Creates Emissary state reserving [`Emissary::reservation`] of the
    /// `ways` of each set for priority (starvation-causing) lines.
    ///
    /// # Panics
    ///
    /// Panics if `sets`/`ways` is zero.
    #[must_use]
    pub fn new(sets: usize, ways: usize) -> Emissary {
        Emissary {
            lru: Lru::new(sets, ways),
            priority: vec![false; sets * ways],
            ways,
            reserved_ways: Emissary::reservation(ways),
        }
    }

    /// Ways of a `ways`-way set reserved for priority lines: half of
    /// them, as the paper's 4 of 8, and at least one.
    #[must_use]
    pub fn reservation(ways: usize) -> usize {
        (ways / 2).max(1)
    }

    fn priority_count(&self, set: usize) -> usize {
        self.priority[set * self.ways..(set + 1) * self.ways].iter().filter(|&&p| p).count()
    }

    /// Whether the line at `(set, way)` currently holds a priority bit.
    #[must_use]
    pub fn is_priority(&self, set: usize, way: usize) -> bool {
        self.priority[set * self.ways + way]
    }
}

impl ReplacementPolicy for Emissary {
    fn on_hit(&mut self, set: usize, way: usize, req: &MemoryRequest) {
        self.lru.on_hit(set, way, req);
        if req.kind.is_instruction() && req.attrs.caused_starvation {
            self.priority[set * self.ways + way] = true;
        }
    }

    fn choose_victim(&mut self, set: usize) -> usize {
        let row = set * self.ways..(set + 1) * self.ways;
        let priority = &self.priority[row.clone()];
        let unprotected = self.lru.lru_way(set, |way| !priority[way]);
        match unprotected {
            Some(way) if self.priority_count(set) <= self.reserved_ways => way,
            // Reservation exceeded (or everything is priority): fall back
            // to plain LRU and start a fresh priority epoch for the set.
            _ => {
                self.priority[row].fill(false);
                self.lru.choose_victim(set)
            }
        }
    }

    fn on_fill(&mut self, set: usize, way: usize, req: &MemoryRequest) {
        self.lru.on_fill(set, way, req);
        self.priority[set * self.ways + way] =
            req.kind.is_instruction() && req.attrs.caused_starvation;
    }

    fn save_state(&self, w: &mut SnapWriter) {
        self.lru.save_state(w);
        w.usize(self.priority.len());
        for &p in &self.priority {
            w.bool(p);
        }
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.lru.restore_state(r)?;
        r.expect_len("Emissary priority bits", self.priority.len())?;
        for p in &mut self.priority {
            *p = r.bool()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{ifetch, load};

    fn starved_fetch(pc: u64) -> MemoryRequest {
        ifetch(pc).with_starvation(true)
    }

    #[test]
    fn priority_lines_are_shielded_from_eviction() {
        let mut p = Emissary::new(1, 4);
        // Way 0 priority, ways 1..3 plain; way 1 is LRU among plain lines.
        p.on_fill(0, 0, &starved_fetch(0x100));
        for way in 1..4 {
            p.on_fill(0, way, &ifetch(0x200 + way as u64));
        }
        let victim = p.choose_victim(0);
        assert_eq!(victim, 1);
        assert!(p.is_priority(0, 0));
    }

    #[test]
    fn reservation_overflow_falls_back_to_lru_and_resets_epoch() {
        let mut p = Emissary::new(1, 4);
        // Three priority lines with a reservation of two: protection
        // collapses, plain LRU picks the oldest line (way 0), and the
        // epoch bits clear.
        for way in 0..3 {
            p.on_fill(0, way, &starved_fetch(0x100 + way as u64 * 64));
        }
        p.on_fill(0, 3, &ifetch(0x900));
        let victim = p.choose_victim(0);
        assert_eq!(victim, 0);
        assert!((0..4).all(|w| !p.is_priority(0, w)));
    }

    #[test]
    fn starvation_hit_promotes_to_priority() {
        let mut p = Emissary::new(1, 4);
        p.on_fill(0, 0, &ifetch(0x100));
        assert!(!p.is_priority(0, 0));
        p.on_hit(0, 0, &starved_fetch(0x100));
        assert!(p.is_priority(0, 0));
    }

    #[test]
    fn data_lines_never_gain_priority() {
        let mut p = Emissary::new(1, 4);
        let data = load(0x500).with_starvation(true);
        p.on_fill(0, 2, &data);
        assert!(!p.is_priority(0, 2));
    }

    #[test]
    fn half_the_ways_are_reserved() {
        let p = Emissary::new(64, 8);
        assert_eq!(p.reserved_ways, 4);
    }
}
