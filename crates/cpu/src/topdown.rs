//! Top-Down cycle attribution (Yasin, ISPASS 2014), as used in
//! Figures 1 and 2 of the paper.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Stall classes in the paper's Figure 2 legend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StallClass {
    /// Instruction fetch stalls (instruction cache misses).
    Ifetch,
    /// Branch misprediction recovery.
    Mispred,
    /// Data-dependency stalls.
    Depend,
    /// Saturated issue queues.
    Issue,
    /// Backend stalls waiting on caches/DRAM.
    Mem,
    /// Anything unaccounted.
    Other,
}

impl StallClass {
    /// All stall classes in Figure 2's legend order (bottom to top).
    pub const ALL: [StallClass; 6] = [
        StallClass::Ifetch,
        StallClass::Mispred,
        StallClass::Depend,
        StallClass::Issue,
        StallClass::Mem,
        StallClass::Other,
    ];
}

impl fmt::Display for StallClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StallClass::Ifetch => "ifetch",
            StallClass::Mispred => "mispred.",
            StallClass::Depend => "depend",
            StallClass::Issue => "issue",
            StallClass::Mem => "mem",
            StallClass::Other => "other",
        };
        f.write_str(s)
    }
}

/// Cycle accounting: useful (retire) cycles plus per-class stalls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TopDown {
    /// Cycles spent retiring instructions.
    pub retire: f64,
    /// Instruction-fetch stall cycles.
    pub ifetch: f64,
    /// Misprediction recovery cycles.
    pub mispred: f64,
    /// Dependency stall cycles.
    pub depend: f64,
    /// Issue-queue stall cycles.
    pub issue: f64,
    /// Backend memory stall cycles.
    pub mem: f64,
    /// Unattributed cycles.
    pub other: f64,
}

impl TopDown {
    /// Adds stall cycles to one class.
    pub fn add_stall(&mut self, class: StallClass, cycles: f64) {
        match class {
            StallClass::Ifetch => self.ifetch += cycles,
            StallClass::Mispred => self.mispred += cycles,
            StallClass::Depend => self.depend += cycles,
            StallClass::Issue => self.issue += cycles,
            StallClass::Mem => self.mem += cycles,
            StallClass::Other => self.other += cycles,
        }
    }

    /// Stall cycles of one class.
    #[must_use]
    pub fn stall(&self, class: StallClass) -> f64 {
        match class {
            StallClass::Ifetch => self.ifetch,
            StallClass::Mispred => self.mispred,
            StallClass::Depend => self.depend,
            StallClass::Issue => self.issue,
            StallClass::Mem => self.mem,
            StallClass::Other => self.other,
        }
    }

    /// Total accounted cycles.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.retire + StallClass::ALL.iter().map(|&c| self.stall(c)).sum::<f64>()
    }

    /// Fraction of total cycles in one class (`None` class = retire).
    #[must_use]
    pub fn fraction(&self, class: Option<StallClass>) -> f64 {
        let total = self.total();
        if total == 0.0 {
            return 0.0;
        }
        match class {
            None => self.retire / total,
            Some(c) => self.stall(c) / total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_sum_to_one() {
        let mut td = TopDown { retire: 50.0, ..Default::default() };
        td.add_stall(StallClass::Ifetch, 25.0);
        td.add_stall(StallClass::Mem, 25.0);
        let sum: f64 =
            StallClass::ALL.iter().map(|&c| td.fraction(Some(c))).sum::<f64>() + td.fraction(None);
        assert!((sum - 1.0).abs() < 1e-12);
        assert!((td.fraction(None) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_topdown_has_zero_fractions() {
        let td = TopDown::default();
        assert_eq!(td.total(), 0.0);
        assert_eq!(td.fraction(None), 0.0);
    }
}
