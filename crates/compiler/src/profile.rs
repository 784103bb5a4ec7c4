//! Instrumentation-PGO profiles: per-basic-block execution counters.
//!
//! Figure 4 ②–③: the instrumented executable counts basic-block
//! executions during a training run; the counters feed re-compilation.
//! Here the "instrumented run" is a trace-generator walk that calls
//! [`Profile::record`] per executed block.

use serde::{Deserialize, Serialize};

use crate::ir::Program;

/// Basic-block execution counters for one program.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Profile {
    counts: Vec<Vec<u64>>,
}

impl Profile {
    /// An all-zero profile shaped like `program`.
    #[must_use]
    pub fn zeroed(program: &Program) -> Profile {
        Profile { counts: program.functions.iter().map(|f| vec![0; f.blocks.len()]).collect() }
    }

    /// Records one execution of block `block` in function `function`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range for the profiled program.
    pub fn record(&mut self, function: usize, block: usize) {
        self.counts[function][block] += 1;
    }

    /// The counter for one block.
    #[must_use]
    pub fn count(&self, function: usize, block: usize) -> u64 {
        self.counts[function][block]
    }

    /// Every counter: one slice per function, in program order, one
    /// counter per block.
    #[must_use]
    pub fn counts(&self) -> &[Vec<u64>] {
        &self.counts
    }

    /// Sets the counter for one block — how a profile kept from an
    /// earlier training run is read back.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range for the profiled program.
    pub fn set(&mut self, function: usize, block: usize, count: u64) {
        self.counts[function][block] = count;
    }

    /// Per-function profile: the hottest block counter of each function.
    /// LLVM's section placement keys on function entry counts; with
    /// hot/cold splitting disabled (as in the paper) the max block count
    /// is the conventional proxy.
    #[must_use]
    pub fn function_max_counts(&self) -> Vec<u64> {
        self.counts.iter().map(|c| c.iter().copied().max().unwrap_or(0)).collect()
    }

    /// All block counters, flattened (for Equation 1–2 summaries).
    #[must_use]
    pub fn all_counts(&self) -> Vec<u64> {
        self.counts.iter().flatten().copied().collect()
    }

    /// Total executed blocks.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().flatten().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{BasicBlock, Function};

    fn program() -> Program {
        let f = |name: &str| {
            Function::new(name, vec![BasicBlock::straight(64, 1), BasicBlock::ret(32)])
        };
        Program::new(vec![f("a"), f("b")], 0)
    }

    #[test]
    fn record_and_read_back() {
        let p = program();
        let mut prof = Profile::zeroed(&p);
        prof.record(0, 0);
        prof.record(0, 0);
        prof.record(1, 1);
        assert_eq!(prof.count(0, 0), 2);
        assert_eq!(prof.count(0, 1), 0);
        assert_eq!(prof.count(1, 1), 1);
        assert_eq!(prof.total(), 3);
    }

    #[test]
    fn function_max_counts_take_hottest_block() {
        let p = program();
        let mut prof = Profile::zeroed(&p);
        prof.record(0, 0);
        prof.record(0, 1);
        prof.record(0, 1);
        assert_eq!(prof.function_max_counts(), vec![2, 0]);
    }

    #[test]
    fn all_counts_flattens_in_order() {
        let p = program();
        let mut prof = Profile::zeroed(&p);
        prof.record(1, 0);
        assert_eq!(prof.all_counts(), vec![0, 0, 1, 0]);
    }
}
