//! Core TRRIP data types: code temperature, its classification, and the
//! re-reference prediction state every RRIP-family policy runs on.
//!
//! This crate is the distilled form of the paper's primary contribution
//! ("A TRRIP Down Memory Lane", MICRO 2025): pure data types and state
//! machines with no simulator dependencies, so the policy can be embedded
//! in any cache model.
//!
//! The pieces are:
//!
//! * [`Temperature`] — the hot/warm/cold classification PGO assigns to code,
//!   and [`TemperatureBits`] — its 2-bit encoding in implementation-defined
//!   PTE bits (ARM PBHA-style) that travel with memory requests.
//! * [`Rrpv`] — 2-bit saturating Re-Reference Prediction Values, the
//!   width the paper gives every RRIP-based policy (§4.3), with the named
//!   points used by RRIP-family policies (immediate, near, intermediate,
//!   distant).
//! * [`RripTable`] — every set's RRPV registers and the shared eviction
//!   mechanism (increment all until a distant line is found). TRRIP
//!   (Algorithm 1) and the other RRIP-family policies differ only in the
//!   RRPV they write on a fill and on a hit; those rules live in
//!   `trrip-policies`, one `match` for each.
//! * [`classify`] — Equations 1 and 2: percentile-based hot/cold thresholds
//!   over basic-block execution counts, as computed by LLVM's profile
//!   summary.
//!
//! # Example
//!
//! ```
//! use trrip_core::{RripTable, Rrpv, Temperature, TemperatureBits};
//!
//! let mut table = RripTable::new(2, 8);
//!
//! // A hot instruction line's request carries its temperature in the
//! // PTE's attribute bits; TRRIP inserts it at immediate re-reference.
//! let bits = TemperatureBits::encode(Some(Temperature::Hot));
//! assert_eq!(bits.decode(), Some(Temperature::Hot));
//! let victim = table.find_victim(1);
//! table.set_rrpv(1, victim, Rrpv::immediate());
//! assert_eq!(table.rrpv(1, victim).raw(), 0);
//! // The other set still holds nothing but distant lines.
//! assert_eq!(table.rrpv(0, victim).raw(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classify;
pub mod rrip;
pub mod rrpv;
pub mod temperature;

pub use classify::{ClassifierConfig, ProfileSummary};
pub use rrip::RripTable;
pub use rrpv::Rrpv;
pub use temperature::{Temperature, TemperatureBits};
