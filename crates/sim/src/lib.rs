//! The full-system TRRIP simulator: wiring the compiler, OS, core and
//! cache substrates into runnable experiments.
//!
//! * [`config`] — [`SimConfig`]: the Table 1 machine plus run lengths,
//!   page/overlap policy, layout selection and measurement hooks.
//! * [`prepare`] — [`PreparedWorkload`]: program synthesis, the
//!   instrumentation-PGO training run, Eq. 1–2 classification and both
//!   (non-PGO / PGO) linked objects, shared across policy sweeps.
//! * [`backend`] — [`SystemBackend`]: implements the core's memory
//!   interface over the cell's TLB and loaded image (temperature
//!   attribution) and the cache hierarchy, adds next-line prefetching,
//!   stride-prefetch fills and prefetch timeliness, and feeds the
//!   reuse/costly-miss profilers.
//! * [`view`] — [`StreamView`]: what the stream alone decides of the
//!   memory system — anonymous frames and stride proposals — resolved
//!   once per stream and page size, and handed to a sweep's cells as
//!   columns beside each turn's records ([`StreamTurn`]).
//! * [`system`] — [`simulate`] / [`simulate_source`]: fast-forward,
//!   measure, collect — over the in-memory walker or any
//!   [`trrip_trace::TraceSource`]; the one-cell oracle every sweep is
//!   held to.
//! * [`capture`] — [`capture_trace`]: record the walker's output to the
//!   `trrip-trace` binary format, for [`simulate_source`] to replay; no
//!   sweep reads one. And the workload fingerprint every store key
//!   carries.
//! * [`checkpoint`] — versioned, checksummed on-disk snapshots of a
//!   warmed [`SimRun`], keyed by workload fingerprint + machine hash;
//!   repeated sweeps restore instead of re-running fast-forward. A
//!   sweep keeps the fast-forward boundary as two files: a
//!   policy-agnostic **shared prefix** (the predictor, the stream views
//!   and the walker's position, one per workload and set of page sizes)
//!   and a per-cell **overlay**.
//! * [`experiment`] — sweeps on the one executor there is (a cell is a
//!   [`SimConfig`]; a workload's stream is produced once, predicted once
//!   and pushed through every cell): [`policy_sweep_with`] over the
//!   walker and, optionally, a checkpoint store; [`simulate_rows`] for
//!   rows of one cell, which nothing sweeps; and speedup computation.
//! * [`warmstats`] — what the `warm.*` registry counters mean: how
//!   cells reached the fast-forward boundary (restored, or warmed with
//!   or without a store), the observable behind fallback tests.
//! * [`inflight`] — the fixed-size open-addressed prefetch-timeliness
//!   table behind the backend's allocation-free hot path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod capture;
pub mod checkpoint;
pub mod config;
pub mod experiment;
pub mod inflight;
pub mod prepare;
pub mod system;
pub mod view;
pub mod warmstats;

pub use backend::SystemBackend;
pub use capture::{capture_length, capture_trace};
pub use checkpoint::{
    read_checkpoint, warmup_config_hash, warmup_prefix_hash, write_checkpoint_kind,
    CheckpointError, CheckpointKind, CheckpointMeta, CheckpointStore, SharedWarmup,
};
pub use config::SimConfig;
pub use experiment::{
    default_jobs, parallel_map_with, policy_cells, policy_sweep_with, simulate_rows, SweepResult,
    TURN_INSTRS,
};
pub use inflight::InflightTable;
pub use prepare::PreparedWorkload;
pub use system::{simulate, simulate_source, Frontend, SimResult, SimRun};
pub use view::{StreamTurn, StreamView};
// The snapshot substrate, re-exported so callers can drive `SimRun`
// save/restore without depending on `trrip-snap` directly.
pub use trrip_snap::{SnapError, SnapReader, SnapWriter, Snapshot};
