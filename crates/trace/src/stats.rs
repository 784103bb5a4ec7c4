//! Process-wide decode accounting.
//!
//! The capture-once/replay-many promise is easy to break silently: a
//! sweep that re-decodes the same trace per policy still produces the
//! right numbers, just slower. The counter here makes decode work
//! observable, so a test can assert that an N-policy sweep pays varint
//! decode exactly once per workload.
//!
//! The counter now lives in the `trrip-obs` registry (as
//! `trace.records_decoded`), so sweep reports see it alongside every
//! other counter; this module is the stable shim that keeps the
//! original API.

/// Total trace records decoded by this process, across every reader. Monotonic; sample before and after an operation and
/// subtract. Updated once per chunk (not per record), so the hot decode
/// path pays one relaxed atomic add per ~64 Ki records.
#[must_use]
pub fn records_decoded() -> u64 {
    trrip_obs::counter!("trace.records_decoded").value()
}

pub(crate) fn count_decoded(records: u64) {
    trrip_obs::counter!("trace.records_decoded").add(records);
}
