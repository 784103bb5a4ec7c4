//! Trace-driven out-of-order core timing model.
//!
//! The paper evaluates TRRIP on a Sniper-based simulator with the Table 1
//! core: 6-wide dispatch, 128-entry ROB, a pseudo-FDIP instruction
//! prefetcher, and the listed branch predictor suite. This crate
//! reproduces that setup as an interval-style timing model:
//!
//! * [`trace`] — the instruction trace format consumed by the core.
//! * [`branch`] — BTB (1k), indirect BTB (512), loop predictor (256),
//!   gshare global predictor (1k) and a return-address stack.
//! * [`backend`] — the [`MemoryBackend`] trait the
//!   core drives for fetches, loads, stores and prefetches (implemented in
//!   `trrip-sim` over the MMU + hierarchy).
//! * [`core`] — the two timing loops, and no third: the fused loop with
//!   pseudo-FDIP lookahead prefetching and decode-starvation tracking
//!   for Emissary, in two [`WarmupMode`]s (observe / digest), and the
//!   predictor-free event loop [`Core::execute`], which drives a group
//!   of machines through one turn in lockstep.
//! * [`events`] — the [`EventTurn`]: a stretch of instructions reduced
//!   to what a backend is shown of them, written once per workload by a
//!   digesting frontend and executed by every policy cell.
//! * [`topdown`] — Top-Down cycle attribution (retire / ifetch / mispred /
//!   depend / issue / mem / other) as in Figures 1 and 2.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod branch;
pub mod core;
pub mod events;
pub mod topdown;
pub mod trace;

pub use crate::core::{Core, CoreConfig, CoreResult, RunState, WarmupMode};
pub use backend::{MemLatency, MemoryBackend};
pub use branch::{BranchOutcome, BranchPredictor, PredictorConfig};
pub use events::{EventTurn, InstrEvent};
pub use topdown::{StallClass, TopDown};
pub use trace::{BranchInfo, BranchKind, MemOp, TraceInstr};
