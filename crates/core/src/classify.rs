//! Temperature classification from basic-block execution counts
//! (Equations 1 and 2 of the paper, mirroring LLVM's profile summary).
//!
//! Equation 1 turns a compile-time percentile knob into an execution-count
//! budget: `C_threshold = C_total × Percentile_hot`. Equation 2 walks the
//! basic-block counters sorted from highest to lowest, accumulating until
//! the budget is exceeded; the count reached at that point, `C_n`, becomes
//! the *hot count threshold*. Any block whose counter is at least `C_n` is
//! hot. The symmetric computation with a (much higher) cold percentile
//! yields the cold threshold; blocks below it — including
//! never-executed blocks — are cold, and everything else is warm.
//!
//! LLVM's defaults are `Percentile_hot = 99%` (the paper's default, §4.7)
//! and a cold percentile of `99.9999%`. The paper sweeps only the hot one
//! (Figure 8), so it is the classifier's one knob; the cold percentile is
//! LLVM's, raised to the hot one when that is higher so the thresholds
//! never invert.

use serde::{Deserialize, Serialize};

use crate::temperature::Temperature;

/// LLVM's cold percentile: code past 99.9999% of the total count is cold.
const PERCENTILE_COLD: f64 = 0.999999;

/// The classifier's knob: Equation 1's `Percentile_hot`.
///
/// A fraction in `(0, 1]`; the paper's Figure 8 sweeps it over {10%, 80%,
/// 99%, 99.99%, 100%}.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClassifierConfig {
    /// Fraction of total execution counts that hot code must cover
    /// (Equation 1's `Percentile_hot`).
    pub percentile_hot: f64,
}

impl ClassifierConfig {
    /// LLVM's default hot percentile, 99%.
    #[must_use]
    pub fn llvm_defaults() -> ClassifierConfig {
        ClassifierConfig { percentile_hot: 0.99 }
    }
}

impl Default for ClassifierConfig {
    fn default() -> Self {
        ClassifierConfig::llvm_defaults()
    }
}

/// Summary of a basic-block count profile: the count thresholds that
/// separate hot, warm and cold code.
///
/// # Example
///
/// ```
/// use trrip_core::{ProfileSummary, ClassifierConfig, Temperature};
///
/// // One dominant block, a mid block, a long cold tail.
/// let mut counts = vec![10_000u64, 400];
/// counts.extend(std::iter::repeat(1).take(50));
/// let summary = ProfileSummary::from_counts(
///     counts.iter().copied(),
///     ClassifierConfig::llvm_defaults(),
/// );
/// assert_eq!(summary.classify(10_000), Temperature::Hot);
/// assert_eq!(summary.classify(0), Temperature::Cold);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileSummary {
    total_count: u64,
    hot_count_threshold: u64,
    cold_count_threshold: u64,
}

impl ProfileSummary {
    /// Builds the summary from raw basic-block counts (any order): the
    /// hot threshold at `config`'s percentile, the cold one at
    /// LLVM's 99.9999% or the hot percentile, the higher.
    ///
    /// An empty or all-zero profile yields thresholds that classify
    /// everything as cold, matching a never-run binary.
    ///
    /// # Panics
    ///
    /// Panics if the hot percentile is outside `(0, 1]`.
    pub fn from_counts<I>(counts: I, config: ClassifierConfig) -> ProfileSummary
    where
        I: IntoIterator<Item = u64>,
    {
        let hot = config.percentile_hot;
        assert!(hot > 0.0 && hot <= 1.0, "percentile_hot must be in (0, 1], got {hot}");
        let mut sorted: Vec<u64> = counts.into_iter().collect();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let total_count: u64 = sorted.iter().sum();
        let cold = PERCENTILE_COLD.max(hot);
        ProfileSummary {
            total_count,
            hot_count_threshold: min_count_for_percentile(&sorted, total_count, hot),
            cold_count_threshold: min_count_for_percentile(&sorted, total_count, cold),
        }
    }

    /// Counts at or above this are hot (`C_n` of Equation 2).
    #[must_use]
    pub fn hot_count_threshold(&self) -> u64 {
        self.hot_count_threshold
    }

    /// Counts below this are cold.
    #[must_use]
    pub fn cold_count_threshold(&self) -> u64 {
        self.cold_count_threshold
    }

    /// Classifies one basic-block count.
    ///
    /// Never-executed blocks (count 0) are always cold. With an empty or
    /// all-zero profile everything is cold.
    #[must_use]
    pub fn classify(&self, count: u64) -> Temperature {
        if count == 0 || self.total_count == 0 {
            return Temperature::Cold;
        }
        if count >= self.hot_count_threshold {
            Temperature::Hot
        } else if count < self.cold_count_threshold {
            Temperature::Cold
        } else {
            Temperature::Warm
        }
    }
}

/// The Equation 2 walk: smallest count such that blocks with at least that
/// count cover `percentile` of the total. Returns `u64::MAX` for an empty
/// profile so nothing classifies as hot.
fn min_count_for_percentile(sorted_desc: &[u64], total: u64, percentile: f64) -> u64 {
    if total == 0 {
        return u64::MAX;
    }
    // Equation 1. Use ceiling so percentile = 100% demands full coverage.
    let threshold = (total as f64 * percentile).ceil() as u64;
    let mut cumulative: u64 = 0;
    for &count in sorted_desc {
        cumulative += count;
        if cumulative >= threshold {
            return count;
        }
    }
    // percentile of 100% with rounding slack: the minimum positive count.
    sorted_desc.iter().copied().filter(|&c| c > 0).min().unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(counts: &[u64], percentile_hot: f64) -> ProfileSummary {
        ProfileSummary::from_counts(counts.iter().copied(), ClassifierConfig { percentile_hot })
    }

    fn classify(counts: &[u64], percentile_hot: f64) -> Vec<Temperature> {
        let summary = summary(counts, percentile_hot);
        counts.iter().map(|&c| summary.classify(c)).collect()
    }

    #[test]
    fn dominant_block_is_hot_never_run_tail_is_cold() {
        // 10_000 + 400 covers >99% of the total; never-executed blocks are
        // cold regardless of thresholds.
        let mut counts = vec![10_000u64, 400];
        counts.extend(std::iter::repeat_n(0, 50));
        let temps = classify(&counts, 0.99);
        assert_eq!(temps[0], Temperature::Hot);
        assert_eq!(temps[1], Temperature::Hot);
        assert!(temps[2..].iter().all(|&t| t == Temperature::Cold));
    }

    #[test]
    fn rare_tail_is_cold_under_tighter_cold_percentile() {
        // The 1-count tail is under a millionth of the total, so it falls
        // outside the 99.9999% coverage set and classifies cold while the
        // mid tier stays warm.
        let mut counts = vec![100_000_000u64, 200_000];
        counts.extend(std::iter::repeat_n(1, 50));
        let temps = classify(&counts, 0.99);
        assert_eq!(temps[0], Temperature::Hot);
        assert_eq!(temps[1], Temperature::Warm);
        assert!(temps[2..].iter().all(|&t| t == Temperature::Cold), "{temps:?}");
    }

    #[test]
    fn zero_count_is_always_cold() {
        let temps = classify(&[100, 0], 0.99);
        assert_eq!(temps[1], Temperature::Cold);
    }

    #[test]
    fn percentile_100_marks_all_executed_code_hot() {
        // §4.7: Percentile_hot = 100% is "similar to CLIP" — every executed
        // block becomes hot.
        let counts = [1_000_000u64, 1_000, 10, 1, 0];
        let temps = classify(&counts, 1.0);
        assert_eq!(
            temps,
            vec![
                Temperature::Hot,
                Temperature::Hot,
                Temperature::Hot,
                Temperature::Hot,
                Temperature::Cold,
            ]
        );
    }

    #[test]
    fn low_percentile_selects_only_the_top() {
        // 10% budget is covered by the single largest block.
        let counts = [500u64, 400, 300, 200, 100];
        let temps = classify(&counts, 0.10);
        assert_eq!(temps[0], Temperature::Hot);
        assert!(temps[1..].iter().all(|&t| t != Temperature::Hot));
    }

    #[test]
    fn raising_percentile_grows_hot_set_monotonically() {
        let counts: Vec<u64> = (1..=100).map(|i| i * i).collect();
        let mut previous_hot = 0;
        for p in [0.10, 0.50, 0.80, 0.99, 0.9999, 1.0] {
            let temps = classify(&counts, p);
            let hot = temps.iter().filter(|&&t| t == Temperature::Hot).count();
            assert!(
                hot >= previous_hot,
                "hot set shrank from {previous_hot} to {hot} at percentile {p}"
            );
            previous_hot = hot;
        }
    }

    #[test]
    fn empty_profile_is_all_cold() {
        let summary = ProfileSummary::from_counts(std::iter::empty(), ClassifierConfig::default());
        assert_eq!(summary.classify(0), Temperature::Cold);
        assert_eq!(summary.classify(100), Temperature::Cold);
    }

    #[test]
    fn uniform_profile_is_all_hot_at_default_percentile() {
        // With identical counts, covering 99% of the total requires nearly
        // every block, so the threshold equals the common count.
        let counts = vec![50u64; 64];
        let temps = classify(&counts, 0.99);
        assert!(temps.iter().all(|&t| t == Temperature::Hot));
    }

    #[test]
    fn warm_band_sits_between_hot_and_cold() {
        // Construct a three-tier profile and check the middle tier is warm:
        // hot tier covers 99%, warm tier is within the cold percentile.
        let mut counts = vec![1_000_000u64; 10]; // 10M total: hot tier
        counts.extend(vec![20_000u64; 5]); // 100k: inside the last 1%
        counts.extend(vec![1u64; 5]); // past 99.9999%
        let temps = classify(&counts, 0.99);
        assert!(temps[..10].iter().all(|&t| t == Temperature::Hot));
        assert!(temps[10..15].iter().all(|&t| t == Temperature::Warm), "{temps:?}");
        assert!(temps[15..].iter().all(|&t| t == Temperature::Cold));
    }

    #[test]
    fn config_validation_rejects_bad_percentiles() {
        for percentile_hot in [0.0, -0.5, 1.1, f64::NAN] {
            let built = std::panic::catch_unwind(|| summary(&[100, 1], percentile_hot));
            assert!(built.is_err(), "percentile_hot {percentile_hot} accepted");
        }
        assert!(std::panic::catch_unwind(|| summary(&[100, 1], 1.0)).is_ok());
    }

    #[test]
    fn summary_exposes_thresholds() {
        let summary = summary(&[100, 50, 1], 0.99);
        assert_eq!(summary.hot_count_threshold(), 50);
        assert_eq!(summary.cold_count_threshold(), 1);
    }

    /// The (hot, cold) count thresholds of one fixed profile at Figure 8's
    /// five hot percentiles. The cold cut is LLVM's 99.9999% up to a hot
    /// percentile of 100%, where it rises with it: below that, the tail
    /// of counts 1 to 125 (225 of 404 010 000) is cold.
    #[test]
    fn figure8_thresholds_are_pinned() {
        let counts: Vec<u64> = (1..=200).map(|i| i * i * i).collect();
        let pinned = [
            (0.10, 7_414_875, 216),
            (0.80, 2_406_104, 216),
            (0.99, 250_047, 216),
            (0.9999, 8_000, 216),
            (1.0, 1, 1),
        ];
        for (percentile_hot, hot, cold) in pinned {
            let summary = summary(&counts, percentile_hot);
            assert_eq!(
                (summary.hot_count_threshold(), summary.cold_count_threshold()),
                (hot, cold),
                "percentile_hot {percentile_hot}"
            );
        }
    }
}
