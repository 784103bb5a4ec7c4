//! trrip-obs: the workspace's unified telemetry layer.
//!
//! Every crate above this one (`trrip-trace`, `trrip-sim`,
//! `trrip-bench`) instruments through three pillars:
//!
//! - **Counters** ([`registry`]) — named, process-global, lock-free
//!   atomic counters. Always on (one relaxed `fetch_add`); tools diff
//!   [`snapshot`]s around the work they care about.
//! - **Phase spans** ([`mod@span`]) — RAII monotonic-clock scopes, nestable
//!   and thread-aware, accumulating self/total time per phase. Export
//!   as an aligned summary table or Chrome trace-event JSON
//!   (`chrome://tracing`-loadable). Disabled by default: the off path
//!   is a single relaxed atomic load.
//! - **Event journal** ([`journal`]) — bounded append-only JSONL of
//!   structured events (cell started, warm-start rung taken, artifact
//!   damaged, fault fired), written under `--obs-dir`, plus the one
//!   consistent `[trrip] …` stderr progress format gated by `--quiet`.
//!
//! [`report`] ties a run together: a schema-versioned `obs_report.json`
//! with counter deltas, phase totals, and tool-specific fields, written
//! under `--out` and validated on write. [`tail`] reads a journal back,
//! tolerating the torn last line a killed writer leaves. [`mod@fault`] is
//! the other direction: named fault points, armed by environment
//! variable, that kill the process or damage the artifact being written
//! at the seam a test wants to see fail.
//!
//! The crate is deliberately dependency-free (std only): it sits at the
//! bottom of the workspace and must never pull the stack sideways. The
//! [`json`] module carries the minimal writer/parser the artifacts
//! need, including round-trip verification in tests and CI.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod journal;
pub mod json;
pub mod registry;
pub mod report;
pub mod span;
pub mod tail;

pub use fault::{arm as arm_faults, armed as faults_armed, disarm as disarm_faults, FaultAction};
pub use journal::{
    close as journal_close, event, init as journal_init, journal_active, progress_line,
    progress_needed, quiet, set_quiet, Field, JournalStats,
};
pub use registry::{counter, snapshot, Counter, CounterSnapshot};
pub use report::{validate as validate_report, ObsReport, OBS_SCHEMA_VERSION};
pub use span::{
    chrome_trace_json, enter, phase_summary, phase_table, reset_spans, set_spans_enabled,
    spans_enabled, spans_recorded, PhaseStat, SpanGuard,
};
pub use tail::{read_journal, JournalRead};
