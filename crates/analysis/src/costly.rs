//! Costly instruction-miss tracking and hot-code coverage (Figure 7).
//!
//! Following Emissary's observation that misses causing decode
//! starvation dominate the frontend cost, the tracker records every
//! demand instruction miss at the L2 with its latency, aggregated per
//! instruction line. Figure 7 then asks: of the lines above the Nth
//! percentile of accumulated miss cost, what fraction lies in TRRIP's
//! `.text.hot` section — (a) over all code, and (b) excluding code TRRIP's
//! compiler never saw (PLT + external libraries)?

use std::collections::HashMap;

use serde::{Deserialize, Serialize};
use trrip_mem::{VirtAddr, LINE_BYTES};

/// Classification of the code a miss landed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CodeRegion {
    /// TRRIP-compiled `.text.hot`.
    Hot,
    /// TRRIP-compiled `.text.warm`.
    Warm,
    /// TRRIP-compiled `.text.cold`.
    Cold,
    /// PLT stubs or external libraries (outside TRRIP's compile scope).
    External,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct LineCost {
    total_latency: u64,
    misses: u64,
    region: Option<CodeRegion>,
}

/// Accumulates per-line miss costs. Two trackers are equal when they
/// hold the same lines with the same costs and regions, whatever order
/// the misses came in.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CostlyMissTracker {
    lines: HashMap<u64, LineCost>,
}

impl CostlyMissTracker {
    /// Creates an empty tracker.
    #[must_use]
    pub fn new() -> CostlyMissTracker {
        CostlyMissTracker::default()
    }

    /// Records one demand instruction miss of `latency` cycles for the
    /// line containing `pc`, tagged with the region the PC belongs to.
    pub fn record(&mut self, pc: VirtAddr, latency: u64, region: CodeRegion) {
        let entry = self.lines.entry(pc.raw() / LINE_BYTES).or_default();
        entry.total_latency += latency;
        entry.misses += 1;
        entry.region = Some(region);
    }

    /// Number of distinct missing lines.
    #[must_use]
    pub fn distinct_lines(&self) -> usize {
        self.lines.len()
    }

    /// Coverage (fraction of lines in `.text.hot`) among the lines whose
    /// accumulated miss cost is at or above the `percentile` (0–100) of
    /// the cost distribution. `exclude_external` reproduces Figure 7b.
    ///
    /// Returns 0 when no lines qualify.
    #[must_use]
    pub fn hot_coverage(&self, percentile: f64, exclude_external: bool) -> f64 {
        let mut costs: Vec<(u64, u64, CodeRegion)> = self
            .lines
            .iter()
            .filter_map(|(&line, c)| c.region.map(|r| (c.total_latency, line, r)))
            .filter(|&(_, _, r)| !(exclude_external && r == CodeRegion::External))
            .collect();
        if costs.is_empty() {
            return 0.0;
        }
        // Ties on cost break on the line address: which of two equally
        // costly lines lands above the cut must not depend on the map's
        // iteration order (it differs between processes).
        costs.sort_unstable_by_key(|&(cost, line, _)| (cost, line));
        let cut = ((percentile / 100.0) * costs.len() as f64).floor() as usize;
        let top = &costs[cut.min(costs.len() - 1)..];
        let hot = top.iter().filter(|&&(_, _, r)| r == CodeRegion::Hot).count();
        hot as f64 / top.len() as f64
    }

    /// Total miss cost accumulated per region (for diagnostics).
    #[must_use]
    pub fn cost_by_region(&self) -> HashMap<CodeRegion, u64> {
        let mut out = HashMap::new();
        for c in self.lines.values() {
            if let Some(r) = c.region {
                *out.entry(r).or_insert(0) += c.total_latency;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pc(line: u64) -> VirtAddr {
        VirtAddr::new(line * 64)
    }

    #[test]
    fn coverage_over_all_lines() {
        let mut t = CostlyMissTracker::new();
        // Two expensive hot lines, one expensive external, many cheap cold.
        t.record(pc(1), 400, CodeRegion::Hot);
        t.record(pc(2), 400, CodeRegion::Hot);
        t.record(pc(3), 400, CodeRegion::External);
        for i in 10..20 {
            t.record(pc(i), 10, CodeRegion::Cold);
        }
        // Top ~23% (above the 77th percentile) = the three expensive lines.
        let cov = t.hot_coverage(77.0, false);
        assert!((cov - 2.0 / 3.0).abs() < 1e-9, "coverage {cov}");
    }

    #[test]
    fn excluding_external_raises_coverage() {
        let mut t = CostlyMissTracker::new();
        t.record(pc(1), 400, CodeRegion::Hot);
        t.record(pc(2), 400, CodeRegion::External);
        let with_ext = t.hot_coverage(0.0, false);
        let without_ext = t.hot_coverage(0.0, true);
        assert!((with_ext - 0.5).abs() < 1e-9);
        assert!((without_ext - 1.0).abs() < 1e-9);
    }

    #[test]
    fn repeat_misses_accumulate() {
        let mut t = CostlyMissTracker::new();
        for _ in 0..10 {
            t.record(pc(1), 40, CodeRegion::Hot); // 400 total
        }
        t.record(pc(2), 100, CodeRegion::Cold);
        // Line 1 is the costliest despite smaller per-miss latency.
        let cov = t.hot_coverage(50.0, false);
        assert!((cov - 0.5).abs() < 1e-9 || cov == 1.0, "coverage {cov}");
        assert_eq!(t.distinct_lines(), 2);
    }

    #[test]
    fn tied_costs_cut_the_same_way_whatever_the_insertion_order() {
        // 40 lines in four cost classes of ten, hot and cold alternating
        // inside each class, so every cut below falls in a run of ties.
        let lines: Vec<(u64, u64, CodeRegion)> = (0..40)
            .map(|i| {
                let region = if (i / 4) % 2 == 0 { CodeRegion::Hot } else { CodeRegion::Cold };
                (1000 + i * 7, 100 * (1 + i % 4), region)
            })
            .collect();
        let mut forward = CostlyMissTracker::new();
        for &(line, cost, region) in &lines {
            forward.record(pc(line), cost, region);
        }
        let mut backward = CostlyMissTracker::new();
        for &(line, cost, region) in lines.iter().rev() {
            backward.record(pc(line), cost, region);
        }
        for percentile in [0.0, 10.0, 33.0, 50.0, 61.5, 80.0, 87.5, 90.0, 99.0] {
            for exclude_external in [false, true] {
                assert_eq!(
                    forward.hot_coverage(percentile, exclude_external),
                    backward.hot_coverage(percentile, exclude_external),
                    "coverage at the {percentile}th percentile depends on insertion order"
                );
            }
        }
        // The rule itself: of the ten lines tied at the top cost (i = 3,
        // 7, … 39), the cut at 87.5% keeps the five highest addresses
        // (i = 23 … 39), of which i = 27 and 35 are hot.
        assert_eq!(forward.hot_coverage(87.5, false), 2.0 / 5.0);
    }

    #[test]
    fn equal_trackers_hold_the_same_costs_whatever_the_order() {
        let fed = |misses: &[(u64, u64, CodeRegion)]| {
            let mut t = CostlyMissTracker::new();
            for &(line, latency, region) in misses {
                t.record(pc(line), latency, region);
            }
            t
        };
        let misses =
            [(1, 400, CodeRegion::Hot), (9, 30, CodeRegion::Cold), (1, 25, CodeRegion::Hot)];
        let tracker = fed(&misses);
        let mut reversed = misses;
        reversed.reverse();
        assert_eq!(tracker, fed(&reversed), "the order of the misses does not count");

        let mut costlier = misses;
        costlier[1].1 += 1;
        assert_ne!(tracker, fed(&costlier), "one line's accumulated latency counts");
        let mut moved = misses;
        moved[1].2 = CodeRegion::Warm;
        assert_ne!(tracker, fed(&moved), "one line's region counts");
    }

    #[test]
    fn empty_tracker_reports_zero() {
        let t = CostlyMissTracker::new();
        assert_eq!(t.hot_coverage(90.0, false), 0.0);
    }

    #[test]
    fn cost_by_region_sums() {
        let mut t = CostlyMissTracker::new();
        t.record(pc(1), 100, CodeRegion::Hot);
        t.record(pc(1), 100, CodeRegion::Hot);
        t.record(pc(9), 50, CodeRegion::Warm);
        let by = t.cost_by_region();
        assert_eq!(by[&CodeRegion::Hot], 200);
        assert_eq!(by[&CodeRegion::Warm], 50);
    }
}
