//! Temperature classification of functions from PGO profiles.
//!
//! The Equation 1–2 percentile machinery lives in [`trrip_core::classify`];
//! this module applies it to a program: the profile summary is built over
//! *all basic-block counters* (as LLVM's ProfileSummary does), and each
//! function is classified by its hottest block (hot/cold-splitting is
//! disabled in the paper, so a function lives in exactly one section).

use serde::{Deserialize, Serialize};
use trrip_core::{ClassifierConfig, ProfileSummary, Temperature};

use crate::profile::Profile;

/// Per-function temperatures.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FunctionTemperatures {
    temps: Vec<Temperature>,
}

impl FunctionTemperatures {
    /// Temperature of one function.
    #[must_use]
    pub fn of(&self, function: usize) -> Temperature {
        self.temps[function]
    }

    /// All function temperatures in index order.
    #[must_use]
    pub fn as_slice(&self) -> &[Temperature] {
        &self.temps
    }

    /// Number of functions with each temperature: `(hot, warm, cold)`.
    #[must_use]
    pub fn histogram(&self) -> (usize, usize, usize) {
        let mut h = (0, 0, 0);
        for t in &self.temps {
            match t {
                Temperature::Hot => h.0 += 1,
                Temperature::Warm => h.1 += 1,
                Temperature::Cold => h.2 += 1,
            }
        }
        h
    }
}

/// Classifies every function by its hottest block's count in `profile`,
/// at `config`'s hot percentile (Figure 8 sweeps it).
#[must_use]
pub fn classify_functions(profile: &Profile, config: ClassifierConfig) -> FunctionTemperatures {
    let summary = ProfileSummary::from_counts(profile.all_counts(), config);
    let temps = profile.function_max_counts().iter().map(|&c| summary.classify(c)).collect();
    FunctionTemperatures { temps }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{BasicBlock, Function, Program};

    fn program(n: usize) -> Program {
        let functions = (0..n)
            .map(|i| {
                Function::new(
                    &format!("f{i}"),
                    vec![BasicBlock::straight(64, 1), BasicBlock::ret(32)],
                )
            })
            .collect();
        Program::new(functions, 0)
    }

    fn profile_with_counts(program: &Program, per_function: &[u64]) -> Profile {
        let mut prof = Profile::zeroed(program);
        for (fi, &c) in per_function.iter().enumerate() {
            for _ in 0..c {
                prof.record(fi, 0);
            }
        }
        prof
    }

    #[test]
    fn dominant_function_is_hot_unexecuted_is_cold() {
        let p = program(3);
        let prof = profile_with_counts(&p, &[10_000, 50, 0]);
        let temps = classify_functions(&prof, ClassifierConfig::llvm_defaults());
        assert_eq!(temps.of(0), Temperature::Hot);
        assert_eq!(temps.of(2), Temperature::Cold);
    }

    #[test]
    fn histogram_counts_all_classes() {
        let p = program(4);
        let prof = profile_with_counts(&p, &[100_000, 100_000, 30, 0]);
        let temps = classify_functions(&prof, ClassifierConfig::llvm_defaults());
        // Both heavy functions are hot, the 30-count one sits in the last
        // 1% but inside 99.9999% (warm), the unexecuted one is cold.
        assert_eq!(temps.histogram(), (2, 1, 1));
    }

    #[test]
    fn percentile_100_promotes_everything_executed() {
        let p = program(3);
        let prof = profile_with_counts(&p, &[1000, 1, 0]);
        let temps = classify_functions(&prof, ClassifierConfig { percentile_hot: 1.0 });
        assert_eq!(temps.of(0), Temperature::Hot);
        assert_eq!(temps.of(1), Temperature::Hot);
        assert_eq!(temps.of(2), Temperature::Cold);
    }
}
