//! Code temperature and its encoding in implementation-defined PTE bits.
//!
//! PGO classifies code regions by the share of total execution they account
//! for (§2.4 of the paper): *hot* code dominates execution, *cold* code is
//! rarely or never executed, and *warm* is everything in between. TRRIP
//! forwards this classification to the cache hierarchy through spare
//! page-table-entry bits (ARM PBHA / x86 AVL style), so a request arrives at
//! the L2 carrying an optional [`Temperature`].

use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

/// Code temperature assigned by profile-guided classification.
///
/// Ordered by execution frequency: `Hot > Warm > Cold`. The ordering is
/// used by layout passes that sort sections, not by the cache policy itself.
///
/// # Example
///
/// ```
/// use trrip_core::Temperature;
///
/// assert!(Temperature::Hot > Temperature::Warm);
/// assert_eq!(Temperature::Hot.section_name(), ".text.hot");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Temperature {
    /// Rarely (or never) executed code.
    Cold,
    /// Code that is neither hot nor cold.
    Warm,
    /// Code contributing a large portion of total execution.
    Hot,
}

impl Temperature {
    /// All temperatures, hottest first (layout order of Figure 5).
    pub const ALL: [Temperature; 3] = [Temperature::Hot, Temperature::Warm, Temperature::Cold];

    /// The ELF text-section name PGO places this class of code into
    /// (Figure 5 of the paper).
    #[must_use]
    pub fn section_name(self) -> &'static str {
        match self {
            Temperature::Hot => ".text.hot",
            Temperature::Warm => ".text.warm",
            Temperature::Cold => ".text.cold",
        }
    }
}

impl PartialOrd for Temperature {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Temperature {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        fn rank(t: Temperature) -> u8 {
            match t {
                Temperature::Cold => 0,
                Temperature::Warm => 1,
                Temperature::Hot => 2,
            }
        }
        rank(*self).cmp(&rank(*other))
    }
}

impl fmt::Display for Temperature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Temperature::Hot => "hot",
            Temperature::Warm => "warm",
            Temperature::Cold => "cold",
        };
        f.write_str(s)
    }
}

/// Error returned when parsing a [`Temperature`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTemperatureError(String);

impl fmt::Display for ParseTemperatureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown temperature `{}` (expected hot, warm or cold)", self.0)
    }
}

impl std::error::Error for ParseTemperatureError {}

impl FromStr for Temperature {
    type Err = ParseTemperatureError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "hot" => Ok(Temperature::Hot),
            "warm" => Ok(Temperature::Warm),
            "cold" => Ok(Temperature::Cold),
            other => Err(ParseTemperatureError(other.to_owned())),
        }
    }
}

/// Two-bit encoding of an optional temperature, as stored in
/// implementation-defined PTE bits and transferred with memory requests.
///
/// The paper uses *at most two* of the four PBHA bits available on
/// commercial ARM cores (§3.4). Encoding `0b00` is reserved for "no
/// temperature information" so that unannotated pages (data, external
/// libraries, PLT) naturally fall back to default RRIP behaviour.
///
/// # Example
///
/// ```
/// use trrip_core::{Temperature, TemperatureBits};
///
/// let bits = TemperatureBits::encode(Some(Temperature::Hot));
/// assert_eq!(bits.raw(), 0b01);
/// assert_eq!(bits.decode(), Some(Temperature::Hot));
/// assert_eq!(TemperatureBits::NONE.decode(), None);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct TemperatureBits(u8);

impl TemperatureBits {
    /// Encoding for "no temperature information" (all bits clear).
    pub const NONE: TemperatureBits = TemperatureBits(0b00);
    /// Encoding for hot code.
    pub const HOT: TemperatureBits = TemperatureBits(0b01);
    /// Encoding for warm code.
    pub const WARM: TemperatureBits = TemperatureBits(0b10);
    /// Encoding for cold code.
    pub const COLD: TemperatureBits = TemperatureBits(0b11);

    /// Number of PTE bits consumed by the encoding.
    pub const WIDTH: u32 = 2;

    /// Encodes an optional temperature into its 2-bit representation.
    #[must_use]
    pub fn encode(temperature: Option<Temperature>) -> TemperatureBits {
        match temperature {
            None => TemperatureBits::NONE,
            Some(Temperature::Hot) => TemperatureBits::HOT,
            Some(Temperature::Warm) => TemperatureBits::WARM,
            Some(Temperature::Cold) => TemperatureBits::COLD,
        }
    }

    /// Reconstructs the encoded temperature, `None` when the bits are clear.
    #[must_use]
    pub fn decode(self) -> Option<Temperature> {
        match self.0 {
            0b01 => Some(Temperature::Hot),
            0b10 => Some(Temperature::Warm),
            0b11 => Some(Temperature::Cold),
            _ => None,
        }
    }

    /// Builds the encoding from raw bits; values above `0b11` are truncated
    /// to the low two bits, mirroring a hardware field extract.
    #[must_use]
    pub fn from_raw(bits: u8) -> TemperatureBits {
        TemperatureBits(bits & 0b11)
    }

    /// The raw 2-bit value as stored in the PTE.
    #[must_use]
    pub fn raw(self) -> u8 {
        self.0
    }
}

impl From<Option<Temperature>> for TemperatureBits {
    fn from(t: Option<Temperature>) -> Self {
        TemperatureBits::encode(t)
    }
}

impl From<TemperatureBits> for Option<Temperature> {
    fn from(bits: TemperatureBits) -> Self {
        bits.decode()
    }
}

impl fmt::Display for TemperatureBits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.decode() {
            Some(t) => write!(f, "{t}"),
            None => f.write_str("none"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_by_execution_frequency() {
        assert!(Temperature::Hot > Temperature::Warm);
        assert!(Temperature::Warm > Temperature::Cold);
        assert!(Temperature::Hot > Temperature::Cold);
    }

    #[test]
    fn all_lists_hottest_first() {
        assert_eq!(Temperature::ALL, [Temperature::Hot, Temperature::Warm, Temperature::Cold]);
    }

    #[test]
    fn section_names_match_figure_5() {
        assert_eq!(Temperature::Hot.section_name(), ".text.hot");
        assert_eq!(Temperature::Warm.section_name(), ".text.warm");
        assert_eq!(Temperature::Cold.section_name(), ".text.cold");
    }

    #[test]
    fn encode_decode_round_trips() {
        for t in [None, Some(Temperature::Hot), Some(Temperature::Warm), Some(Temperature::Cold)] {
            assert_eq!(TemperatureBits::encode(t).decode(), t);
        }
    }

    #[test]
    fn encoding_fits_in_two_bits() {
        for t in Temperature::ALL {
            assert!(TemperatureBits::encode(Some(t)).raw() <= 0b11);
        }
        assert_eq!(TemperatureBits::NONE.raw(), 0);
    }

    #[test]
    fn from_raw_truncates_to_field_width() {
        assert_eq!(TemperatureBits::from_raw(0b101).raw(), 0b01);
        assert_eq!(TemperatureBits::from_raw(0b100).raw(), 0b00);
    }

    #[test]
    fn parse_round_trips_display() {
        for t in Temperature::ALL {
            assert_eq!(t.to_string().parse::<Temperature>().unwrap(), t);
        }
        assert!("tepid".parse::<Temperature>().is_err());
    }

    #[test]
    fn none_encoding_is_reserved_zero() {
        // Unannotated pages must read back as "no information".
        assert_eq!(TemperatureBits::default(), TemperatureBits::NONE);
        assert_eq!(TemperatureBits::NONE.decode(), None);
    }
}
