//! A fixed-size open-addressed map from cache line to completion time,
//! replacing the `HashMap<u64, u64>` the backend used to track in-flight
//! prefetches. A real FDIP queue is a small fixed structure (the MSHR
//! file); modelling it with a heap-allocating hash map put malloc/rehash
//! on the per-prefetch path. This table never allocates after
//! construction: linear probing with backward-shift deletion, and a
//! preallocated scratch buffer for the expiry sweep.
//!
//! The slot array is **struct-of-arrays**: line keys and ready cycles
//! live in separate parallel arrays, so the probe loop — which reads
//! only keys until it finds a match or an empty slot — touches half the
//! bytes an interleaved `(line, ready)` layout would. This module's tests
//! hold the table to a `HashMap` through random operations, a full table
//! and a round trip of its `"INFL"` snapshot.
//!
//! Measured against a `HashMap` on the same multiply hash (`bench_memsys`
//! on `gcc`, 32 alternating pairs, 2-core host), unresolved: 28.9 → 33.0
//! ns per cell-instruction for a lockstep group of 1, the map slower in
//! 16 of 32 pairs, with the table's own runs spread over an
//! interquartile range of 10.

use trrip_snap::{SnapError, SnapReader, SnapWriter, Snapshot};

/// Sentinel for an empty slot. Line addresses are physical addresses
/// shifted right by 6, so `u64::MAX` can never be a real line.
const EMPTY: u64 = u64::MAX;

/// Fibonacci multiplier spreading near-sequential line addresses across
/// the table.
const HASH_MULT: u64 = 0x9E37_79B9_7F4A_7C15;

/// Fixed-capacity line → ready-cycle map for prefetch timeliness.
///
/// Sized to the modelled MSHR count at construction, with deliberate
/// headroom: the occupancy limit is 2× the MSHR count (and the slot
/// array 2× that again, keeping the load factor below one half). The
/// `HashMap` this replaces enforced its cap only by expiry sweeps, so
/// unexpired entries could briefly exceed it; the 2× limit absorbs any
/// realistic such burst bit-identically. Only an insert into a table
/// already holding 2× the MSHR count is dropped — which is what real
/// prefetch hardware does when its request file is exhausted.
#[derive(Debug)]
pub struct InflightTable {
    /// Line keys, [`EMPTY`] where vacant — the only array the probe
    /// loop reads.
    lines: Box<[u64]>,
    /// Ready cycles, parallel to `lines`; read once on a key match.
    readys: Box<[u64]>,
    /// Index mask (`lines.len() - 1`).
    mask: usize,
    /// Right-shift mapping a hashed key to a slot index via high bits.
    shift: u32,
    /// Live entries.
    len: usize,
    /// Hard occupancy bound (half the slot array).
    limit: usize,
    /// Reused by [`InflightTable::prune_expired`]; capacity `limit`.
    scratch: Vec<(u64, u64)>,
}

impl InflightTable {
    /// A table sized for `mshr_entries` simultaneously tracked lines.
    ///
    /// # Panics
    ///
    /// Panics if `mshr_entries` is zero.
    #[must_use]
    pub fn new(mshr_entries: usize) -> InflightTable {
        assert!(mshr_entries > 0, "MSHR count must be positive");
        let slots = (mshr_entries * 4).next_power_of_two();
        InflightTable {
            lines: vec![EMPTY; slots].into_boxed_slice(),
            readys: vec![0; slots].into_boxed_slice(),
            mask: slots - 1,
            shift: 64 - slots.trailing_zeros(),
            len: 0,
            limit: slots / 2,
            scratch: Vec::with_capacity(slots / 2),
        }
    }

    /// Live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no line is tracked.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn probe_start(&self, line: u64) -> usize {
        ((line.wrapping_mul(HASH_MULT) >> self.shift) as usize) & self.mask
    }

    fn find(&self, line: u64) -> Option<usize> {
        let mut i = self.probe_start(line);
        loop {
            let occupant = self.lines[i];
            if occupant == EMPTY {
                return None;
            }
            if occupant == line {
                return Some(i);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// The tracked completion cycle for `line`, if any.
    #[must_use]
    pub fn get(&self, line: u64) -> Option<u64> {
        self.find(line).map(|i| self.readys[i])
    }

    /// Tracks `line` completing at `ready` unless it is already tracked
    /// (the earlier prefetch wins, as with `HashMap::entry().or_insert`)
    /// or the table is at capacity (the request is dropped, as real
    /// prefetch hardware does when its request file is full).
    pub fn insert_if_absent(&mut self, line: u64, ready: u64) {
        debug_assert_ne!(line, EMPTY, "line address collides with the empty sentinel");
        let mut i = self.probe_start(line);
        loop {
            let occupant = self.lines[i];
            if occupant == line {
                return;
            }
            if occupant == EMPTY {
                if self.len >= self.limit {
                    return;
                }
                self.lines[i] = line;
                self.readys[i] = ready;
                self.len += 1;
                return;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Forgets `line` if tracked (backward-shift deletion, so probe
    /// chains stay intact without tombstones). A no-op when the line is
    /// not tracked.
    pub fn remove(&mut self, line: u64) {
        let Some(mut hole) = self.find(line) else {
            return;
        };
        self.len -= 1;
        let mut i = hole;
        loop {
            i = (i + 1) & self.mask;
            let occupant = self.lines[i];
            if occupant == EMPTY {
                break;
            }
            // The occupant may back-fill the hole only if its home
            // position is cyclically at or before the hole.
            let home = self.probe_start(occupant);
            let home_distance = i.wrapping_sub(home) & self.mask;
            let hole_distance = i.wrapping_sub(hole) & self.mask;
            if home_distance >= hole_distance {
                self.lines[hole] = occupant;
                self.readys[hole] = self.readys[i];
                hole = i;
            }
        }
        self.lines[hole] = EMPTY;
        self.readys[hole] = 0;
    }

    /// Drops every entry whose `ready` cycle is not after `now`
    /// (equivalent to `retain(|_, ready| ready > now)`). Allocation-free:
    /// survivors pass through the preallocated scratch buffer.
    pub fn prune_expired(&mut self, now: u64) {
        self.scratch.clear();
        for i in 0..self.lines.len() {
            if self.lines[i] != EMPTY {
                if self.readys[i] > now {
                    self.scratch.push((self.lines[i], self.readys[i]));
                }
                self.lines[i] = EMPTY;
                self.readys[i] = 0;
            }
        }
        self.len = 0;
        let survivors = std::mem::take(&mut self.scratch);
        for &(line, ready) in &survivors {
            self.insert_if_absent(line, ready);
        }
        self.scratch = survivors;
    }
}

impl Snapshot for InflightTable {
    fn save(&self, w: &mut SnapWriter) {
        // Occupied slots with their positions: restoring positions (not
        // just contents) reproduces the exact probe-chain layout, so
        // subsequent insert/remove/prune sequences behave identically.
        w.tag(b"INFL");
        w.usize(self.lines.len());
        w.usize(self.len);
        for i in 0..self.lines.len() {
            if self.lines[i] != EMPTY {
                w.usize(i);
                w.u64(self.lines[i]);
                w.u64(self.readys[i]);
            }
        }
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.expect_tag(b"INFL")?;
        r.expect_len("inflight table capacity", self.lines.len())?;
        let len = r.usize()?;
        if len > self.limit {
            return Err(SnapError::Mismatch(format!(
                "inflight occupancy {len} exceeds limit {}",
                self.limit
            )));
        }
        self.lines.fill(EMPTY);
        self.readys.fill(0);
        for _ in 0..len {
            let i = r.usize()?;
            if i >= self.lines.len() {
                return Err(SnapError::Corrupt(format!("inflight slot index {i} out of range")));
            }
            if self.lines[i] != EMPTY {
                return Err(SnapError::Corrupt(format!("duplicate inflight slot {i}")));
            }
            self.lines[i] = r.u64()?;
            self.readys[i] = r.u64()?;
            if self.lines[i] == EMPTY {
                return Err(SnapError::Corrupt("inflight slot holds the empty sentinel".into()));
            }
        }
        self.len = len;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_round_trip() {
        let mut t = InflightTable::new(8);
        t.insert_if_absent(100, 50);
        t.insert_if_absent(200, 60);
        assert_eq!(t.get(100), Some(50));
        assert_eq!(t.get(200), Some(60));
        assert_eq!(t.get(300), None);
        t.remove(100);
        assert_eq!(t.get(100), None);
        assert_eq!(t.get(200), Some(60));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn first_insert_wins() {
        let mut t = InflightTable::new(8);
        t.insert_if_absent(7, 10);
        t.insert_if_absent(7, 99);
        assert_eq!(t.get(7), Some(10));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn full_table_drops_new_entries() {
        let mut t = InflightTable::new(1); // 4 slots, limit 2
        t.insert_if_absent(1, 1);
        t.insert_if_absent(2, 2);
        t.insert_if_absent(3, 3);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(3), None);
        assert_eq!(t.get(1), Some(1));
    }

    #[test]
    fn remove_of_untracked_line_is_a_no_op() {
        let mut t = InflightTable::new(8);
        t.insert_if_absent(100, 50);
        t.remove(999);
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(100), Some(50));
    }

    #[test]
    fn prune_matches_retain_semantics() {
        let mut t = InflightTable::new(16);
        for line in 0..20u64 {
            t.insert_if_absent(line, line * 10);
        }
        t.prune_expired(100); // keeps ready > 100, i.e. lines 11..20
        assert_eq!(t.len(), 9);
        assert_eq!(t.get(10), None, "ready == now must expire");
        assert_eq!(t.get(11), Some(110));
        assert_eq!(t.get(19), Some(190));
    }

    #[test]
    fn backward_shift_keeps_probe_chains_reachable() {
        // Exercise collision chains: many keys in a small table, delete
        // from the middle of chains, verify everything else stays
        // reachable. Mirrors a HashMap oracle.
        let mut t = InflightTable::new(16); // 64 slots, limit 32
        let mut oracle = std::collections::HashMap::new();
        let keys: Vec<u64> = (0..30).map(|i| i * 64 + 3).collect();
        for &k in &keys {
            t.insert_if_absent(k, k + 1);
            oracle.insert(k, k + 1);
        }
        for &k in keys.iter().step_by(3) {
            t.remove(k);
            oracle.remove(&k);
        }
        for &k in &keys {
            assert_eq!(t.get(k), oracle.get(&k).copied(), "key {k}");
        }
        assert_eq!(t.len(), oracle.len());
    }

    /// Every operation against the obvious map, through a table that
    /// fills (an insert into a full table is dropped), and the snapshot
    /// round-tripped into a fresh table along the way.
    #[test]
    fn randomized_against_hashmap_oracle() {
        let mut t = InflightTable::new(8); // limit 16, hit below
        let limit = t.limit;
        let mut oracle = std::collections::HashMap::new();
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut dropped = 0;
        for step in 0..4000u64 {
            let line = next() % 50; // small key space forces collisions
            match next() % 4 {
                0 | 1 => {
                    t.insert_if_absent(line, step);
                    if oracle.len() < limit || oracle.contains_key(&line) {
                        oracle.entry(line).or_insert(step);
                    } else {
                        dropped += 1;
                    }
                }
                2 => {
                    t.remove(line);
                    oracle.remove(&line);
                }
                _ => {
                    let cutoff = step.saturating_sub(40);
                    t.prune_expired(cutoff);
                    oracle.retain(|_, &mut ready| ready > cutoff);
                }
            }
            assert_eq!(t.get(line), oracle.get(&line).copied());
            assert_eq!(t.len(), oracle.len());
            if step % 500 == 499 {
                let mut w = SnapWriter::new();
                t.save(&mut w);
                let mut fresh = InflightTable::new(8);
                fresh.insert_if_absent(999, 1); // forgotten by the restore
                fresh.restore(&mut SnapReader::new(w.bytes())).expect("restore");
                assert_eq!(fresh.len(), oracle.len(), "step {step}");
                for key in (0..50).chain([999]) {
                    assert_eq!(fresh.get(key), oracle.get(&key).copied(), "step {step}: {key}");
                }
                t = fresh; // and it carries on as the original would
            }
        }
        assert!(dropped > 0, "the table filled and dropped inserts");
    }
}
