//! Re-Reference Prediction Values.
//!
//! RRIP-family policies (Jaleel et al., ISCA 2010) attach a
//! *Re-Reference Prediction Value* to every cache line. Lower values predict
//! a more immediate re-reference and therefore a higher priority to stay in
//! the cache. The field is 2 bits wide, the paper's configuration for every
//! RRIP-based policy (§4.3), so the named points are:
//!
//! | prediction   | RRPV |
//! |--------------|------|
//! | immediate    | 0    |
//! | near         | 1    |
//! | intermediate | 2    |
//! | distant      | 3    |

use std::fmt;

use serde::{Deserialize, Serialize};

/// A 2-bit saturating re-reference prediction value.
///
/// Arithmetic saturates at both ends: promoting an already-immediate line or
/// aging an already-distant line is a no-op, exactly as in the hardware
/// counters the field models.
///
/// # Example
///
/// ```
/// use trrip_core::Rrpv;
///
/// let mut v = Rrpv::intermediate();
/// assert_eq!(v.raw(), 2);
/// v = v.aged();
/// assert_eq!(v, Rrpv::distant());
/// v = v.aged(); // saturates
/// assert_eq!(v, Rrpv::distant());
/// assert_eq!(v.promoted(), Rrpv::intermediate());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Rrpv(u8);

impl Rrpv {
    /// Width of the field in bits (§4.3).
    pub const BITS: u32 = 2;

    /// The largest raw value: the *distant* prediction.
    const MAX: u8 = (1 << Rrpv::BITS) - 1;

    /// The *immediate* re-reference prediction (highest keep priority).
    #[must_use]
    pub fn immediate() -> Rrpv {
        Rrpv(0)
    }

    /// The *near* re-reference prediction (RRPV 1).
    #[must_use]
    pub fn near() -> Rrpv {
        Rrpv(1)
    }

    /// The *intermediate* (a.k.a. "long") re-reference prediction:
    /// `max - 1`. SRRIP's insertion point.
    #[must_use]
    pub fn intermediate() -> Rrpv {
        Rrpv(Rrpv::MAX - 1)
    }

    /// The *distant* re-reference prediction: the maximum value, the
    /// eviction candidate state. BRRIP's dominant insertion point.
    #[must_use]
    pub fn distant() -> Rrpv {
        Rrpv(Rrpv::MAX)
    }

    /// Builds an RRPV from a raw counter value, saturating to the field
    /// maximum.
    #[must_use]
    pub fn from_raw(value: u8) -> Rrpv {
        Rrpv(value.min(Rrpv::MAX))
    }

    /// The raw counter value.
    #[must_use]
    pub fn raw(self) -> u8 {
        self.0
    }

    /// Ages the line one step toward *distant*, saturating at the maximum.
    #[must_use]
    pub fn aged(self) -> Rrpv {
        Rrpv((self.0 + 1).min(Rrpv::MAX))
    }

    /// Promotes the line one step toward *immediate*, saturating at zero.
    ///
    /// This is TRRIP variant 2's conservative hit behaviour for warm and
    /// cold lines: `RRPV = max(RRPV - 1, immediate)` (Algorithm 1, line 7).
    #[must_use]
    pub fn promoted(self) -> Rrpv {
        Rrpv(self.0.saturating_sub(1))
    }

    /// Whether the line is in the eviction-candidate (*distant*) state.
    #[must_use]
    pub fn is_distant(self) -> bool {
        self.0 >= Rrpv::MAX
    }

    /// Whether the line is in the *immediate* state.
    #[must_use]
    pub fn is_immediate(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for Rrpv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_points_match_paper_table() {
        assert_eq!(Rrpv::immediate().raw(), 0);
        assert_eq!(Rrpv::near().raw(), 1);
        assert_eq!(Rrpv::intermediate().raw(), 2);
        assert_eq!(Rrpv::distant().raw(), 3);
    }

    #[test]
    fn priority_order_immediate_over_distant() {
        // Immediate > Near > Intermediate > Distant in keep priority,
        // i.e. ascending raw value.
        assert!(Rrpv::immediate() < Rrpv::near());
        assert!(Rrpv::near() < Rrpv::intermediate());
        assert!(Rrpv::intermediate() < Rrpv::distant());
    }

    #[test]
    fn aging_saturates_at_distant() {
        let mut v = Rrpv::immediate();
        for _ in 0..10 {
            v = v.aged();
        }
        assert_eq!(v, Rrpv::distant());
    }

    #[test]
    fn promotion_saturates_at_immediate() {
        let mut v = Rrpv::near();
        v = v.promoted();
        assert!(v.is_immediate());
        v = v.promoted();
        assert!(v.is_immediate());
    }

    #[test]
    fn from_raw_saturates_per_width() {
        assert_eq!(Rrpv::from_raw(200).raw(), 3);
        assert_eq!(Rrpv::from_raw(2).raw(), 2);
    }

    #[test]
    fn widths_expose_storage_cost() {
        assert_eq!(Rrpv::BITS, 2);
        assert_eq!(u32::from(Rrpv::distant().raw()), (1 << Rrpv::BITS) - 1);
    }

    #[test]
    fn distant_checks_respect_width() {
        assert!(Rrpv::from_raw(3).is_distant());
        assert!(!Rrpv::from_raw(2).is_distant());
    }
}
