//! Set-granularity reuse-distance profiling (Figure 3).
//!
//! Reuse distance is "the number of unique cache lines (both instruction
//! and data) seen between two subsequent accesses of the same line for
//! one given cache set" (§2.4). The profiler watches the L2 access
//! stream, maintains a per-set MRU stack of unique lines, and — for hot
//! instruction lines — histograms two distances on every re-access:
//!
//! * **base**: unique lines of any kind in between (the paper's plain
//!   series), and
//! * **hot-only**: unique *hot* lines in between (the "~" series, i.e.
//!   the reuse distance hot code would enjoy if non-hot lines never
//!   competed for the set).

use serde::{Deserialize, Serialize};
use trrip_mem::LineAddr;

/// Figure 3's histogram buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReuseBucket {
    /// Distance 0–4.
    D0To4,
    /// Distance 5–8.
    D5To8,
    /// Distance 9–16.
    D9To16,
    /// Distance above 16.
    DOver16,
}

impl ReuseBucket {
    /// All buckets in plot order.
    pub const ALL: [ReuseBucket; 4] =
        [ReuseBucket::D0To4, ReuseBucket::D5To8, ReuseBucket::D9To16, ReuseBucket::DOver16];

    /// Buckets a raw distance.
    #[must_use]
    pub fn of(distance: usize) -> ReuseBucket {
        match distance {
            0..=4 => ReuseBucket::D0To4,
            5..=8 => ReuseBucket::D5To8,
            9..=16 => ReuseBucket::D9To16,
            _ => ReuseBucket::DOver16,
        }
    }

    /// Label as in the figure legend.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ReuseBucket::D0To4 => "0-4",
            ReuseBucket::D5To8 => "5-8",
            ReuseBucket::D9To16 => "9-16",
            ReuseBucket::DOver16 => "16+",
        }
    }
}

/// Histogram over the four buckets.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReuseHistogram {
    counts: [u64; 4],
}

impl ReuseHistogram {
    /// Records one distance.
    pub fn record(&mut self, distance: usize) {
        let idx = match ReuseBucket::of(distance) {
            ReuseBucket::D0To4 => 0,
            ReuseBucket::D5To8 => 1,
            ReuseBucket::D9To16 => 2,
            ReuseBucket::DOver16 => 3,
        };
        self.counts[idx] += 1;
    }

    /// Total recorded accesses.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Fraction of accesses in each bucket (plot order); zeros when
    /// empty.
    #[must_use]
    pub fn fractions(&self) -> [f64; 4] {
        let total = self.total();
        if total == 0 {
            return [0.0; 4];
        }
        let mut out = [0.0; 4];
        for (o, &c) in out.iter_mut().zip(&self.counts) {
            *o = c as f64 / total as f64;
        }
        out
    }

    /// Raw bucket counts in plot order.
    #[must_use]
    pub fn counts(&self) -> [u64; 4] {
        self.counts
    }
}

#[derive(Debug, Clone, Copy)]
struct StackEntry {
    line: LineAddr,
    hot: bool,
}

/// The per-set reuse profiler.
///
/// # Example
///
/// ```
/// use trrip_analysis::ReuseProfiler;
/// use trrip_mem::LineAddr;
///
/// let mut profiler = ReuseProfiler::new(4);
/// let hot = LineAddr(0x40);
/// profiler.observe(hot, true);
/// profiler.observe(LineAddr(0x44), false); // same set competitor
/// profiler.observe(hot, true); // distance 1 (one unique line between)
/// assert_eq!(profiler.base().counts()[0], 1);
/// ```
#[derive(Debug, Clone)]
pub struct ReuseProfiler {
    sets: Vec<Vec<StackEntry>>,
    set_mask: u64,
    depth_cap: usize,
    base: ReuseHistogram,
    hot_only: ReuseHistogram,
}

impl ReuseProfiler {
    /// Default per-set stack depth: distances beyond this land in `16+`.
    pub const DEFAULT_DEPTH: usize = 64;

    /// Creates a profiler mirroring an L2 with `num_sets` sets.
    ///
    /// # Panics
    ///
    /// Panics if `num_sets` is not a power of two.
    #[must_use]
    pub fn new(num_sets: usize) -> ReuseProfiler {
        assert!(num_sets.is_power_of_two(), "set count must be a power of two");
        ReuseProfiler {
            sets: vec![Vec::new(); num_sets],
            set_mask: num_sets as u64 - 1,
            depth_cap: ReuseProfiler::DEFAULT_DEPTH,
            base: ReuseHistogram::default(),
            hot_only: ReuseHistogram::default(),
        }
    }

    /// Observes one L2 access. `hot` marks accesses whose line belongs
    /// to the `.text.hot` section.
    pub fn observe(&mut self, line: LineAddr, hot: bool) {
        let set = &mut self.sets[(line.raw() & self.set_mask) as usize];
        match set.iter().position(|e| e.line == line) {
            Some(pos) => {
                if hot {
                    // Base distance: unique lines seen since last access.
                    self.base.record(pos);
                    // Hot-only distance: hot unique lines in between.
                    let hot_between = set[..pos].iter().filter(|e| e.hot).count();
                    self.hot_only.record(hot_between);
                }
                let entry = set.remove(pos);
                set.insert(0, StackEntry { hot, ..entry });
            }
            None => {
                set.insert(0, StackEntry { line, hot });
                if set.len() > self.depth_cap {
                    set.pop();
                }
            }
        }
    }

    /// The base histogram (all unique lines counted).
    #[must_use]
    pub fn base(&self) -> &ReuseHistogram {
        &self.base
    }

    /// The hot-only histogram (the paper's "~" series).
    #[must_use]
    pub fn hot_only(&self) -> &ReuseHistogram {
        &self.hot_only
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(set: u64, tag: u64) -> LineAddr {
        LineAddr(tag * 16 + set) // 16-set profiler in tests
    }

    #[test]
    fn distance_counts_unique_lines_between() {
        let mut p = ReuseProfiler::new(16);
        let hot = line(3, 0);
        p.observe(hot, true);
        for tag in 1..=6 {
            p.observe(line(3, tag), false);
        }
        p.observe(hot, true);
        // 6 unique lines in between → bucket 5-8.
        assert_eq!(p.base().counts(), [0, 1, 0, 0]);
    }

    #[test]
    fn repeated_competitor_counted_once() {
        let mut p = ReuseProfiler::new(16);
        let hot = line(0, 0);
        p.observe(hot, true);
        let competitor = line(0, 9);
        for _ in 0..50 {
            p.observe(competitor, false);
        }
        p.observe(hot, true);
        // One *unique* line between → distance 1 → bucket 0-4.
        assert_eq!(p.base().counts(), [1, 0, 0, 0]);
    }

    #[test]
    fn hot_only_ignores_cold_competitors() {
        let mut p = ReuseProfiler::new(16);
        let hot = line(2, 0);
        p.observe(hot, true);
        // 10 cold + 2 hot competitors.
        for tag in 1..=10 {
            p.observe(line(2, tag), false);
        }
        p.observe(line(2, 20), true);
        p.observe(line(2, 21), true);
        p.observe(hot, true);
        // Base: 12 unique → 9-16 bucket. Hot-only: 2 → 0-4 bucket.
        assert_eq!(p.base().counts(), [0, 0, 1, 0]);
        assert_eq!(p.hot_only().counts(), [1, 0, 0, 0]);
    }

    #[test]
    fn different_sets_do_not_interfere() {
        let mut p = ReuseProfiler::new(16);
        let hot = line(5, 0);
        p.observe(hot, true);
        // Traffic in other sets.
        for tag in 1..=40 {
            p.observe(line(6, tag), false);
        }
        p.observe(hot, true);
        assert_eq!(p.base().counts(), [1, 0, 0, 0], "distance should be 0");
    }

    #[test]
    fn cold_line_reuse_not_recorded() {
        let mut p = ReuseProfiler::new(16);
        let cold = line(1, 0);
        p.observe(cold, false);
        p.observe(cold, false);
        assert_eq!(p.base().total(), 0);
        assert_eq!(p.hot_only().total(), 0);
    }

    #[test]
    fn deep_distances_land_in_overflow_bucket() {
        let mut p = ReuseProfiler::new(16);
        let hot = line(0, 0);
        p.observe(hot, true);
        for tag in 1..=30 {
            p.observe(line(0, tag), false);
        }
        p.observe(hot, true);
        assert_eq!(p.base().counts(), [0, 0, 0, 1]);
    }

    #[test]
    fn fractions_sum_to_one() {
        let mut h = ReuseHistogram::default();
        for d in [0, 3, 7, 12, 100] {
            h.record(d);
        }
        let sum: f64 = h.fractions().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bucket_boundaries_match_figure() {
        assert_eq!(ReuseBucket::of(4), ReuseBucket::D0To4);
        assert_eq!(ReuseBucket::of(5), ReuseBucket::D5To8);
        assert_eq!(ReuseBucket::of(8), ReuseBucket::D5To8);
        assert_eq!(ReuseBucket::of(9), ReuseBucket::D9To16);
        assert_eq!(ReuseBucket::of(16), ReuseBucket::D9To16);
        assert_eq!(ReuseBucket::of(17), ReuseBucket::DOver16);
    }
}
