//! Synthetic proxy workloads.
//!
//! The paper evaluates on ten C/C++ proxy benchmarks (Table 2) traced with
//! Pin, plus PGO'd mobile system components profiled on real hardware
//! (Figure 1). Neither artifact is available, so this crate synthesizes
//! equivalents (see DESIGN.md §1):
//!
//! * [`spec`] — the knobs describing one workload: code shape (function
//!   count and sizes, hot-rotation width, external-library usage), data
//!   behaviour (region sizes and locality mix), control behaviour
//!   (loop shapes, indirect dispatch) and backend character.
//! * [`builder`] — deterministic program synthesis from a spec.
//! * [`walker`] — the CFG walker: generates the instruction/memory trace
//!   the core consumes and simultaneously collects the instrumentation-PGO
//!   profile. Train and eval runs use different seeds and a deterministic
//!   branch-probability shift (different input sets, Table 2). Its
//!   position is plain data ([`WalkerState`]) it can hand out and resume
//!   from.
//! * [`proxy`] — the ten calibrated benchmark specs.
//! * [`mobile`] — the five system-software components of Figure 1
//!   (`interp`, `ui`, `graphics`, `render`, `js_runtime`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod mobile;
pub mod proxy;
pub mod spec;
pub mod walker;

pub use builder::build_program;
pub use spec::{InputSet, WorkloadSpec};
pub use walker::{TraceGenerator, WalkerState};
