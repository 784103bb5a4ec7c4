//! Core TRRIP algorithm: code-temperature classification and the
//! temperature-aware re-reference interval prediction policy.
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
//! * [`Rrpv`] — n-bit saturating Re-Reference Prediction Values with the
//!   named points used by RRIP-family policies (immediate, near,
//!   intermediate, distant).
//! * [`RripTable`] — every set's RRPV registers, and [`TableSet`], one
//!   set's row of it with the shared eviction mechanism (increment all
//!   until a distant line is found).
//! * [`TrripPolicy`] — Algorithm 1 of the paper: the insertion and update
//!   sub-policies keyed by request temperature, in two variants.
//! * [`classify`] — Equations 1 and 2: percentile-based hot/cold thresholds
//!   over basic-block execution counts, as computed by LLVM's profile
//!   summary.
//!
//! # Example
//!
//! ```
//! use trrip_core::{RripTable, TrripPolicy, TrripVariant, Temperature, RrpvWidth};
//!
//! let mut table = RripTable::new(2, 8, RrpvWidth::W2);
//! let policy = TrripPolicy::new(TrripVariant::V1, RrpvWidth::W2);
//!
//! // Fill a hot instruction line: TRRIP inserts it at immediate re-reference.
//! let mut set = table.set_mut(1);
//! let victim = set.find_victim();
//! policy.on_fill(&mut set, victim, Some(Temperature::Hot));
//! assert_eq!(set.rrpv(victim).raw(), 0);
//! // The other set still holds nothing but distant lines.
//! assert_eq!(table.rrpv(0, victim).raw(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classify;
pub mod rrip;
pub mod rrpv;
pub mod temperature;
pub mod trrip;

pub use classify::{ClassifierConfig, ProfileSummary};
pub use rrip::{BrripCore, RripTable, SrripCore, TableSet};
pub use rrpv::{Rrpv, RrpvWidth};
pub use temperature::{Temperature, TemperatureBits};
pub use trrip::{TrripPolicy, TrripVariant};
