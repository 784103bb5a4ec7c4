//! The compiler side of the TRRIP co-design (§3.2).
//!
//! This crate models exactly the parts of an LLVM-style toolchain that
//! TRRIP relies on:
//!
//! * [`ir`] — a synthetic program representation: functions made of basic
//!   blocks with sized code, CFG edge probabilities, calls and memory
//!   behaviour. This is the stand-in for real benchmark sources.
//! * [`profile`] — instrumentation-PGO basic-block counters.
//! * [`classify`] — temperature classification over the profile using the
//!   Equation 1–2 percentile logic from `trrip-core`, at function
//!   granularity (the paper keeps LLVM's hot/cold-splitting passes
//!   disabled, so whole functions land in one section).
//! * [`layout`] — code layout: source order (non-PGO baseline) or PGO
//!   ordering with `.text.hot` / `.text.warm` / `.text.cold` sections
//!   (Figure 5).
//! * [`object`] — the ELF-like object file: sections (its program
//!   headers, each carrying its temperature for the loader), symbols and
//!   per-block addresses.
//!
//! The pipeline mirrors Figure 4 ①–⑤: build IR → instrument → profile →
//! classify → re-layout → emit object.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classify;
pub mod ir;
pub mod layout;
pub mod object;
pub mod profile;

pub use classify::{classify_functions, FunctionTemperatures};
pub use ir::{BasicBlock, CallTarget, Function, Program};
pub use layout::{LayoutKind, Linker};
pub use object::{ObjectFile, Section};
pub use profile::Profile;
