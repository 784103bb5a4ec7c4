//! Temperature classification from basic-block execution counts
//! (Equations 1 and 2 of the paper, mirroring LLVM's profile summary).
//!
//! Equation 1 turns a compile-time percentile knob into an execution-count
//! budget: `C_threshold = C_total × Percentile_hot`. Equation 2 walks the
//! basic-block counters sorted from highest to lowest, accumulating until
//! the budget is exceeded; the count reached at that point, `C_n`, becomes
//! the *hot count threshold*. Any block whose counter is at least `C_n` is
//! hot. The symmetric computation with a (much higher) cold percentile
//! yields the cold threshold; blocks at or below it — including
//! never-executed blocks — are cold, and everything else is warm.
//!
//! LLVM's defaults are `Percentile_hot = 99%` (the paper's default, §4.7)
//! and a cold percentile of `99.9999%`.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::temperature::Temperature;

/// Percentile knobs for the classifier.
///
/// Percentiles are expressed as fractions in `(0, 1]`; the paper's Figure 8
/// sweeps `percentile_hot` over {10%, 80%, 99%, 99.99%, 100%}.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClassifierConfig {
    /// Fraction of total execution counts that hot code must cover
    /// (Equation 1's `Percentile_hot`).
    pub percentile_hot: f64,
    /// Fraction of total execution counts beyond which remaining code is
    /// cold. Must be at least `percentile_hot`.
    pub percentile_cold: f64,
}

impl ClassifierConfig {
    /// LLVM's default percentiles: hot 99%, cold 99.9999%.
    #[must_use]
    pub fn llvm_defaults() -> ClassifierConfig {
        ClassifierConfig { percentile_hot: 0.99, percentile_cold: 0.999999 }
    }

    /// Config with a custom hot percentile and the default cold percentile.
    /// The cold percentile is clamped up to the hot percentile so the two
    /// thresholds never invert.
    #[must_use]
    pub fn with_percentile_hot(percentile_hot: f64) -> ClassifierConfig {
        let defaults = ClassifierConfig::llvm_defaults();
        ClassifierConfig {
            percentile_hot,
            percentile_cold: defaults.percentile_cold.max(percentile_hot),
        }
    }

    /// Validates the knobs.
    ///
    /// # Errors
    ///
    /// Returns [`ClassifierConfigError`] when a percentile is outside
    /// `(0, 1]` or the cold percentile is below the hot percentile.
    pub fn validate(&self) -> Result<(), ClassifierConfigError> {
        for (name, p) in
            [("percentile_hot", self.percentile_hot), ("percentile_cold", self.percentile_cold)]
        {
            if !(p > 0.0 && p <= 1.0) {
                return Err(ClassifierConfigError::PercentileOutOfRange { name, value: p });
            }
        }
        if self.percentile_cold < self.percentile_hot {
            return Err(ClassifierConfigError::ColdBelowHot {
                hot: self.percentile_hot,
                cold: self.percentile_cold,
            });
        }
        Ok(())
    }
}

impl Default for ClassifierConfig {
    fn default() -> Self {
        ClassifierConfig::llvm_defaults()
    }
}

/// Error produced by [`ClassifierConfig::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum ClassifierConfigError {
    /// A percentile fell outside `(0, 1]`.
    PercentileOutOfRange {
        /// Which knob was invalid.
        name: &'static str,
        /// The offending value.
        value: f64,
    },
    /// The cold percentile was below the hot percentile.
    ColdBelowHot {
        /// Configured hot percentile.
        hot: f64,
        /// Configured cold percentile.
        cold: f64,
    },
}

impl fmt::Display for ClassifierConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClassifierConfigError::PercentileOutOfRange { name, value } => {
                write!(f, "{name} must be in (0, 1], got {value}")
            }
            ClassifierConfigError::ColdBelowHot { hot, cold } => {
                write!(f, "percentile_cold ({cold}) must not be below percentile_hot ({hot})")
            }
        }
    }
}

impl std::error::Error for ClassifierConfigError {}

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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileSummary {
    total_count: u64,
    max_count: u64,
    num_counts: usize,
    hot_count_threshold: u64,
    cold_count_threshold: u64,
    config: ClassifierConfig,
}

impl ProfileSummary {
    /// Builds the summary from raw basic-block counts (any order).
    ///
    /// An empty or all-zero profile yields thresholds that classify
    /// everything as cold, matching a never-run binary.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`ClassifierConfig::validate`]; use the
    /// validating constructor paths in callers that accept user input.
    pub fn from_counts<I>(counts: I, config: ClassifierConfig) -> ProfileSummary
    where
        I: IntoIterator<Item = u64>,
    {
        config.validate().expect("invalid classifier configuration");
        let mut sorted: Vec<u64> = counts.into_iter().collect();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let num_counts = sorted.len();
        let total_count: u64 = sorted.iter().sum();
        let max_count = sorted.first().copied().unwrap_or(0);

        let hot_count_threshold =
            min_count_for_percentile(&sorted, total_count, config.percentile_hot);
        let cold_count_threshold =
            min_count_for_percentile(&sorted, total_count, config.percentile_cold);

        ProfileSummary {
            total_count,
            max_count,
            num_counts,
            hot_count_threshold,
            cold_count_threshold,
            config,
        }
    }

    /// Sum of all counts (`C_total` in Equation 1).
    #[must_use]
    pub fn total_count(&self) -> u64 {
        self.total_count
    }

    /// The largest single basic-block count.
    #[must_use]
    pub fn max_count(&self) -> u64 {
        self.max_count
    }

    /// Number of profiled basic blocks.
    #[must_use]
    pub fn num_counts(&self) -> usize {
        self.num_counts
    }

    /// Counts at or above this are hot (`C_n` of Equation 2).
    #[must_use]
    pub fn hot_count_threshold(&self) -> u64 {
        self.hot_count_threshold
    }

    /// Counts at or below this are cold.
    #[must_use]
    pub fn cold_count_threshold(&self) -> u64 {
        self.cold_count_threshold
    }

    /// The configuration the summary was built with.
    #[must_use]
    pub fn config(&self) -> ClassifierConfig {
        self.config
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

    fn classify_with(counts: &[u64], config: ClassifierConfig) -> Vec<Temperature> {
        let summary = ProfileSummary::from_counts(counts.iter().copied(), config);
        counts.iter().map(|&c| summary.classify(c)).collect()
    }

    fn classify(counts: &[u64], percentile_hot: f64) -> Vec<Temperature> {
        classify_with(counts, ClassifierConfig::with_percentile_hot(percentile_hot))
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
        // With percentile_cold = 99.99%, the 1-count tail falls outside the
        // coverage set and classifies cold while the mid tier stays warm.
        let mut counts = vec![1_000_000u64, 2_000];
        counts.extend(std::iter::repeat_n(1, 50));
        let config = ClassifierConfig { percentile_hot: 0.99, percentile_cold: 0.9999 };
        let temps = classify_with(&counts, config);
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
        let config = ClassifierConfig { percentile_hot: 1.0, percentile_cold: 1.0 };
        let temps = classify_with(&counts, config);
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
        assert_eq!(summary.total_count(), 0);
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
        assert!(ClassifierConfig { percentile_hot: 0.0, percentile_cold: 0.5 }.validate().is_err());
        assert!(ClassifierConfig { percentile_hot: 1.1, percentile_cold: 1.0 }.validate().is_err());
        assert!(ClassifierConfig { percentile_hot: 0.9, percentile_cold: 0.5 }.validate().is_err());
        assert!(ClassifierConfig::llvm_defaults().validate().is_ok());
    }

    #[test]
    fn summary_exposes_thresholds() {
        let counts = [100u64, 50, 1];
        let summary =
            ProfileSummary::from_counts(counts.iter().copied(), ClassifierConfig::llvm_defaults());
        assert_eq!(summary.total_count(), 151);
        assert_eq!(summary.max_count(), 100);
        assert_eq!(summary.num_counts(), 3);
        assert!(summary.hot_count_threshold() <= summary.max_count());
        assert!(summary.cold_count_threshold() <= summary.hot_count_threshold());
    }
}
