//! The original array-of-structs tag store, kept as the equivalence
//! oracle for the struct-of-arrays [`crate::Cache`] and, holding the
//! boxed LRU policy, for [`crate::LruCache`].
//!
//! This is the pre-SoA implementation: one `LineState` struct per slot,
//! scanned field-by-field. It is **not** used on any simulation path —
//! property tests drive identical request sequences through this oracle
//! and the SoA store and assert identical hits, evictions, statistics,
//! resident lines, and snapshot bytes (see `tests/soa_equivalence.rs`).
//! Its `invalidate` and `extract`, which [`crate::Cache`] does not have,
//! are what the LRU levels are checked against; they empty the way
//! without a word to the policy, which a fill into the emptied way then
//! overwrites. When changing `Cache` semantics, change both and let the
//! proptest arbitrate.

use trrip_mem::{LineAddr, MemoryRequest};
use trrip_policies::ReplacementPolicy;
use trrip_snap::{SnapError, SnapReader, SnapWriter, Snapshot};

use crate::cache::{restore_bitmap, save_bitmap, EvictedLine};
use crate::config::CacheConfig;
use crate::stats::AccessStats;

#[derive(Debug, Clone, Copy, Default)]
struct LineState {
    tag: LineAddr,
    valid: bool,
    dirty: bool,
    instruction: bool,
}

/// Array-of-structs cache level: identical observable behaviour to
/// [`crate::Cache`], kept only as the test oracle.
pub struct AosCache {
    config: CacheConfig,
    lines: Vec<LineState>,
    policy: Box<dyn ReplacementPolicy>,
    stats: AccessStats,
    num_sets: usize,
}

impl std::fmt::Debug for AosCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AosCache")
            .field("config", &self.config)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl AosCache {
    /// Creates the oracle cache with the given policy.
    #[must_use]
    pub fn new(config: CacheConfig, policy: Box<dyn ReplacementPolicy>) -> AosCache {
        let num_sets = config.num_sets();
        AosCache {
            lines: vec![LineState::default(); num_sets * config.ways],
            policy,
            stats: AccessStats::default(),
            num_sets,
            config,
        }
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &AccessStats {
        &self.stats
    }

    fn set_index(&self, line: LineAddr) -> usize {
        (line.raw() as usize) & (self.num_sets - 1)
    }

    fn slot(&self, set: usize, way: usize) -> usize {
        set * self.config.ways + way
    }

    /// Whether `line` is currently resident.
    #[must_use]
    pub fn contains(&self, line: LineAddr) -> bool {
        self.find_way(line).is_some()
    }

    fn find_way(&self, line: LineAddr) -> Option<usize> {
        let set = self.set_index(line);
        (0..self.config.ways).find(|&way| {
            let s = &self.lines[self.slot(set, way)];
            s.valid && s.tag == line
        })
    }

    /// Demand lookup: returns `true` on hit.
    pub fn access(&mut self, req: &MemoryRequest) -> bool {
        let line = LineAddr::of(req.paddr);
        match self.find_way(line) {
            Some(way) => {
                let set = self.set_index(line);
                if req.attrs.prefetch {
                    self.stats.prefetch_hits += 1;
                } else {
                    self.stats.record_demand(req.kind.is_instruction(), true);
                }
                self.policy.on_hit(set, way, req);
                if req.kind.is_write() {
                    let slot = self.slot(set, way);
                    self.lines[slot].dirty = true;
                }
                true
            }
            None => {
                if !req.attrs.prefetch {
                    self.stats.record_demand(req.kind.is_instruction(), false);
                }
                false
            }
        }
    }

    /// Fills the request's line, evicting if the set is full.
    pub fn fill(&mut self, req: &MemoryRequest) -> Option<EvictedLine> {
        let line = LineAddr::of(req.paddr);
        if self.contains(line) {
            return None;
        }
        let set = self.set_index(line);

        let invalid_way = (0..self.config.ways).find(|&way| !self.lines[self.slot(set, way)].valid);
        let (way, evicted) = match invalid_way {
            Some(way) => (way, None),
            None => {
                let way = self.policy.choose_victim(set);
                assert!(way < self.config.ways, "policy returned way out of range");
                let old = self.lines[self.slot(set, way)];
                self.stats.evictions += 1;
                if old.dirty {
                    self.stats.writebacks += 1;
                }
                (
                    way,
                    Some(EvictedLine {
                        line: old.tag,
                        dirty: old.dirty,
                        instruction: old.instruction,
                    }),
                )
            }
        };

        let slot = self.slot(set, way);
        self.lines[slot] = LineState {
            tag: line,
            valid: true,
            dirty: req.kind.is_write(),
            instruction: req.kind.is_instruction(),
        };
        if req.attrs.prefetch {
            self.stats.prefetch_fills += 1;
        }
        self.policy.on_fill(set, way, req);
        evicted
    }

    /// Invalidates `line` if resident, counting a back-invalidation.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<EvictedLine> {
        let removed = self.extract(line);
        if removed.is_some() {
            self.stats.back_invalidations += 1;
        }
        removed
    }

    /// Removes `line` without counting a back-invalidation.
    pub fn extract(&mut self, line: LineAddr) -> Option<EvictedLine> {
        let way = self.find_way(line)?;
        let set = self.set_index(line);
        let slot = self.slot(set, way);
        let old = self.lines[slot];
        self.lines[slot].valid = false;
        self.lines[slot].dirty = false;
        Some(EvictedLine { line: old.tag, dirty: old.dirty, instruction: old.instruction })
    }

    /// Marks `line` dirty if resident. Returns whether the line was found.
    pub fn mark_dirty(&mut self, line: LineAddr) -> bool {
        match self.find_way(line) {
            Some(way) => {
                let set = self.set_index(line);
                let slot = self.slot(set, way);
                self.lines[slot].dirty = true;
                true
            }
            None => false,
        }
    }

    /// Iterates over all resident lines.
    pub fn resident_lines(&self) -> impl Iterator<Item = LineAddr> + '_ {
        self.lines.iter().filter(|s| s.valid).map(|s| s.tag)
    }
}

/// The pre-SoA snapshot impl, byte-for-byte: lets the proptest assert the
/// SoA store's `"CACB"` encoding is unchanged.
impl Snapshot for AosCache {
    fn save(&self, w: &mut SnapWriter) {
        w.tag(b"CACB");
        w.usize(self.lines.len());
        save_bitmap(w, self.lines.iter().map(|l| l.valid));
        save_bitmap(w, self.lines.iter().filter(|l| l.valid).map(|l| l.dirty));
        save_bitmap(w, self.lines.iter().filter(|l| l.valid).map(|l| l.instruction));
        for line in self.lines.iter().filter(|l| l.valid) {
            w.u64(line.tag.raw());
        }
        self.stats.save(w);
        self.policy.save_state(w);
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.expect_tag(b"CACB")?;
        r.expect_len("cache line count", self.lines.len())?;
        let valid = restore_bitmap(r, self.lines.len())?;
        let occupancy = valid.iter().filter(|&&v| v).count();
        let dirty = restore_bitmap(r, occupancy)?;
        let instr = restore_bitmap(r, occupancy)?;
        let mut vi = 0;
        for (line, &v) in self.lines.iter_mut().zip(&valid) {
            *line = if v {
                vi += 1;
                LineState {
                    valid: true,
                    dirty: dirty[vi - 1],
                    instruction: instr[vi - 1],
                    tag: LineAddr(0), // tags follow the bitmaps
                }
            } else {
                LineState::default()
            };
        }
        debug_assert_eq!(vi, occupancy);
        for line in self.lines.iter_mut().filter(|l| l.valid) {
            line.tag = LineAddr(r.u64()?);
        }
        self.stats.restore(r)?;
        self.policy.restore_state(r)
    }
}
