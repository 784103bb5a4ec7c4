//! Process-wide counters for how `(workload, policy)` cells reached the
//! fast-forward boundary — the observable that lets tests pin *which*
//! route ran (a damaged overlay must cost one cell its warm-up and move
//! nobody else's counters) and lets the benchmark report a populating
//! pass's composition.
//!
//! They live in the `trrip-obs` registry, the `warm.*` family, next to
//! every other counter: monotonically increasing, read by name as a
//! [`trrip_obs::snapshot`] and compared as deltas. The names are older
//! than the routes that are left; what each one means is written down
//! here, once:
//!
//! * `warm.overlay_restore` — a cell restored its overlay and simulated
//!   none of the warm-up;
//! * `warm.tail_replay` — a cell executed its warm-up turns — its
//!   overlay missing, or there and damaged — and left an overlay behind
//!   in the store attached;
//! * `warm.recorded_warmup` — a shared prefix was written, by a window,
//!   once its frontend crossed the boundary;
//! * `warm.cold_warmup` — a cell executed its warm-up with no store
//!   attached, and kept nothing.

pub(crate) fn count_overlay_restore() {
    trrip_obs::counter!("warm.overlay_restore").incr();
}

pub(crate) fn count_tail_replay() {
    trrip_obs::counter!("warm.tail_replay").incr();
}

pub(crate) fn count_recorded_warmup() {
    trrip_obs::counter!("warm.recorded_warmup").incr();
}

pub(crate) fn count_cold_warmup() {
    trrip_obs::counter!("warm.cold_warmup").incr();
}
