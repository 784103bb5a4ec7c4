//! Sharded run execution: one `(workload, policy)` run cut into
//! chunk-aligned **segments** that chain through checkpoints.
//!
//! PR 3 made mid-measure snapshots exact resumption points (the
//! in-flight [`RunState`](trrip_cpu::RunState) travels with the
//! architectural state, and `consumed` pins the stream position). This
//! module builds on that: a [`ShardPlan`] cuts the measure window into
//! segments whose interior boundaries land on trace chunk boundaries
//! (so a segment's replay skips its prefix *without decoding it*, see
//! [`trrip_trace::StreamingReplay::open_at`]), and the executor
//! simulates segment *k* from checkpoint *k−1*, producing
//!
//! * checkpoint *k* — the chain link persisted through
//!   [`CheckpointStore::save_segment`], which later sweeps (or other
//!   processes) start segment *k+1* from directly, and
//! * a [`SimResult`] **fragment** — segment *k*'s additive tally
//!   ([`SimRun::begin_segment`] / [`SimRun::collect_segment`]), folded
//!   with [`SimResult::merge`] into a result bit-identical to the
//!   unsharded run (`tests/shard_equivalence.rs` pins this for every
//!   policy).
//!
//! [`replay_sweep_sharded`] schedules a whole sweep this way: cells
//! stop being atomic tasks and become DAGs of segment tasks on a shared
//! work queue. Within one cell the chain is sequential by nature — but
//! a worker that finishes segment *k* hands the live run straight to
//! segment *k+1* (pipelined mode, no checkpoint round-trip) while other
//! workers advance other cells; and when a previous sweep already
//! persisted chain links, every segment whose predecessor checkpoint is
//! on disk is dispatched immediately, so one long run fans out across
//! the pool. A missing or damaged chain link falls back cold: the
//! executor rebuilds position from the fast-forward boundary (shared
//! prefix + overlay, or a warm-up of its own) and re-simulates the
//! measure prefix.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex};

use trrip_policies::PolicyKind;
use trrip_trace::{SourceIter, StreamingReplay, CHUNK_CAPACITY};

use crate::capture::TraceStore;
use crate::checkpoint::CheckpointStore;
use crate::config::SimConfig;
use crate::experiment::{
    load_prefix, parallel_map_with, restore_at_boundary, warm_alone, SweepResult,
};
use crate::prepare::PreparedWorkload;
use crate::system::{SimResult, SimRun};

/// How one `(workload, policy)` measure window is cut into segments.
///
/// Positions are **absolute stream positions** (instructions from the
/// start of the capture, which holds fast-forward + measure). Interior
/// cuts are aligned down to multiples of [`CHUNK_CAPACITY`] when that
/// keeps every segment non-empty, so segment replays skip whole chunks
/// raw; tiny windows (tests) fall back to exact unaligned cuts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    fast_forward: u64,
    /// Absolute end position of each segment; the last entry is
    /// `fast_forward + instructions`.
    cuts: Vec<u64>,
}

impl ShardPlan {
    /// Cuts `config`'s measure window into (at most) `shards` segments.
    /// `shards` is clamped to the window length; zero means one.
    #[must_use]
    pub fn new(config: &SimConfig, shards: usize) -> ShardPlan {
        let ff = config.fast_forward;
        let n = config.instructions;
        let k = (shards.max(1) as u64).min(n.max(1));
        let align = u64::from(CHUNK_CAPACITY);
        let end = ff + n;
        let mut cuts = Vec::with_capacity(k as usize);
        let mut prev = ff;
        for i in 1..=k {
            let raw = ff + n * i / k;
            let cut = if i == k {
                end
            } else {
                // Align down to a chunk boundary when that keeps the
                // segment non-empty; otherwise take the exact cut.
                let aligned = raw / align * align;
                if aligned > prev && aligned < end {
                    aligned
                } else {
                    raw
                }
            };
            if cut > prev {
                cuts.push(cut);
                prev = cut;
            }
        }
        if cuts.is_empty() {
            // A zero-length measure window still gets one (empty)
            // segment, so the executors never see a segment-less plan.
            cuts.push(end);
        }
        ShardPlan { fast_forward: ff, cuts }
    }

    /// Number of segments.
    #[must_use]
    pub fn segments(&self) -> usize {
        self.cuts.len()
    }

    /// Absolute stream position segment `k` starts at.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    #[must_use]
    pub fn start(&self, k: usize) -> u64 {
        if k == 0 {
            self.fast_forward
        } else {
            self.cuts[k - 1]
        }
    }

    /// Absolute stream position segment `k` ends at (exclusive).
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    #[must_use]
    pub fn end(&self, k: usize) -> u64 {
        self.cuts[k]
    }

    /// Segment `k`'s start in measure-phase coordinates (instructions
    /// since the measure window began) — what segment checkpoints are
    /// keyed by.
    #[must_use]
    pub fn measure_start(&self, k: usize) -> u64 {
        self.start(k) - self.fast_forward
    }

    /// Whether segment `k`'s start lands on a trace chunk boundary
    /// (its replay then skips the prefix without decoding it).
    #[must_use]
    pub fn is_chunk_aligned(&self, k: usize) -> bool {
        self.start(k).is_multiple_of(u64::from(CHUNK_CAPACITY))
    }
}

fn open_stream(path: &Path, skip: u64) -> SourceIter<StreamingReplay> {
    SourceIter::new(
        StreamingReplay::open_at(path, skip)
            .unwrap_or_else(|e| panic!("replaying {}: {e}", path.display())),
    )
}

/// Produces a measuring [`SimRun`] positioned at segment `k`'s start,
/// plus a stream positioned to continue it, **without** a live carry
/// from segment `k−1`: the chained checkpoint if present, else the
/// fast-forward boundary (restored, or warmed up to and left in the
/// store) plus a re-simulated measure prefix.
pub(crate) fn position_at<'w>(
    workload: &'w PreparedWorkload,
    config: &SimConfig,
    plan: &ShardPlan,
    k: usize,
    trace_path: &Path,
    checkpoints: Option<&CheckpointStore>,
) -> (SimRun<'w>, SourceIter<StreamingReplay>) {
    let start = plan.start(k);

    // The chain link, if a previous sweep (or this one) persisted it.
    if k > 0 {
        if let Some(store) = checkpoints {
            match store.load_segment(workload, config, k - 1, plan.measure_start(k)) {
                Ok(Some(run)) => {
                    trrip_obs::counter!("shard.disk_dispatch").incr();
                    return (run, open_stream(trace_path, start));
                }
                Ok(None) => {}
                Err(e) => {
                    // A damaged link would otherwise shadow its slot
                    // forever (saves skip existing files): log it and
                    // delete it — the cold rebuild below lands exactly
                    // on this link's position and re-persists a good
                    // one.
                    if trrip_obs::journal_active() {
                        trrip_obs::event(
                            "artifact_damaged",
                            &[
                                ("what", trrip_obs::Field::Str("chain link")),
                                ("benchmark", trrip_obs::Field::Str(&workload.spec.name)),
                                (
                                    "policy",
                                    trrip_obs::Field::Str(config.hierarchy.l2_policy.name()),
                                ),
                                ("segment", trrip_obs::Field::U64((k - 1) as u64)),
                                ("error", trrip_obs::Field::Str(&e.to_string())),
                                ("next", trrip_obs::Field::Str("rebuilding cold")),
                            ],
                        );
                    }
                    if !trrip_obs::quiet() {
                        eprintln!(
                            "[trrip] damaged chain link for {} / {} seg {}: {e}; rebuilding cold",
                            workload.spec.name,
                            config.hierarchy.l2_policy,
                            k - 1
                        );
                    }
                    let path = store.segment_path(workload, config, k - 1, plan.measure_start(k));
                    let _ = std::fs::remove_file(path);
                }
            }
        }
    }
    if k > 0 {
        // Segment k>0 reached without a live carry or a loadable chain
        // link: the expensive path (re-simulated measure prefix).
        trrip_obs::counter!("shard.cold_fallback").incr();
    }

    // Cold fallback: the fast-forward boundary — restored from the
    // shared prefix and this policy's overlay (an indexed trace makes
    // the stream's positioning a true seek), or warmed up to over the
    // stream from its first instruction — then the measure prefix up to
    // `start` is re-simulated.
    let ff = config.fast_forward;
    let prefix = checkpoints.and_then(|store| load_prefix(store, workload, config));
    let restored = checkpoints
        .zip(prefix.as_ref())
        .and_then(|(store, prefix)| restore_at_boundary(workload, config, store, Some(prefix)));
    let (mut run, mut stream) = match restored {
        Some(run) => (run, open_stream(trace_path, ff)),
        None => {
            let mut stream = open_stream(trace_path, 0);
            let run = warm_alone(workload, config, checkpoints, &mut stream, prefix.is_none());
            (run, stream)
        }
    };
    run.begin_measure();
    if start > ff {
        run.measure_chunk(&mut stream, start - ff, false);
    }
    // This run now holds exactly the state chain link `k−1` should
    // carry: repair the chain in place, so a missing or damaged link is
    // healed by the segment that paid the cold rebuild instead of
    // staying cold for every later sweep.
    if k > 0 {
        if let Some(store) = checkpoints {
            if let Err(e) = store.save_segment(&run, k - 1, plan.measure_start(k)) {
                trrip_obs::progress!(
                    "chain repair save failed for {} / {} seg {}: {e}",
                    workload.spec.name,
                    config.hierarchy.l2_policy,
                    k - 1
                );
            }
        }
    }
    (run, stream)
}

/// A live run plus its positioned stream, handed from a finished
/// segment straight to its successor — the pipelined path pays neither
/// a checkpoint round-trip nor a fresh replay open (which would
/// re-read the whole trace prefix).
pub(crate) type Carry<'w> = (SimRun<'w>, SourceIter<StreamingReplay>);

/// Simulates segment `k` of one cell: positions the run (live carry →
/// chained checkpoint → cold fallback), executes the segment, persists
/// checkpoint `k` (non-final segments, when a store is given), and
/// returns the segment's additive [`SimResult`] fragment together with
/// the live run + stream for a pipelined successor.
pub(crate) fn run_segment<'w>(
    workload: &'w PreparedWorkload,
    config: &SimConfig,
    plan: &ShardPlan,
    k: usize,
    carry: Option<Carry<'w>>,
    trace_path: &Path,
    checkpoints: Option<&CheckpointStore>,
) -> (SimResult, Carry<'w>) {
    let start = plan.start(k);
    let end = plan.end(k);
    let seg_span = trrip_obs::span!("segment");
    if trrip_obs::journal_active() {
        trrip_obs::event(
            "segment_started",
            &[
                ("benchmark", trrip_obs::Field::Str(&workload.spec.name)),
                ("policy", trrip_obs::Field::Str(config.hierarchy.l2_policy.name())),
                ("segment", trrip_obs::Field::U64(k as u64)),
                ("live_carry", trrip_obs::Field::Bool(carry.is_some())),
            ],
        );
    }
    let (mut run, mut stream) = match carry {
        Some((run, stream)) => {
            trrip_obs::counter!("shard.live_handoff").incr();
            debug_assert_eq!(
                run.measure_consumed() + config.fast_forward,
                start,
                "carried run is not at segment {k}'s start"
            );
            (run, stream)
        }
        None => position_at(workload, config, plan, k, trace_path, checkpoints),
    };

    run.begin_segment();
    let last = k + 1 == plan.segments();
    let cut = run.measure_chunk(&mut stream, end - start, last);
    debug_assert_eq!(cut.consumed + config.fast_forward, end, "segment cut drifted");
    let fragment = run.collect_segment();

    if !last {
        if let Some(store) = checkpoints {
            let position = plan.measure_start(k + 1);
            // Re-saving an existing link would write identical bytes
            // (segments are deterministic): skip the serialization on
            // warm sweeps.
            if !store.has_segment(workload, config, k, position) {
                if let Err(e) = store.save_segment(&run, k, position) {
                    trrip_obs::progress!(
                        "segment checkpoint save failed for {} / {} seg {k}: {e}",
                        workload.spec.name,
                        config.hierarchy.l2_policy
                    );
                }
            }
        }
    }
    if trrip_obs::journal_active() {
        trrip_obs::event(
            "segment_finished",
            &[
                ("benchmark", trrip_obs::Field::Str(&workload.spec.name)),
                ("policy", trrip_obs::Field::Str(config.hierarchy.l2_policy.name())),
                ("segment", trrip_obs::Field::U64(k as u64)),
                ("instructions", trrip_obs::Field::U64(end - start)),
            ],
        );
    }
    drop(seg_span);
    (fragment, (run, stream))
}

/// Runs one `(workload, policy)` cell as a sequential segment chain —
/// capture from `traces`, chained checkpoints in `checkpoints` if given
/// — and merges the fragments. Bit-identical to
/// [`crate::simulate`] / [`crate::simulate_source`] over the same
/// capture; the parallel sweep engine is [`replay_sweep_sharded`].
///
/// # Panics
///
/// Panics if the trace cannot be captured or replayed.
#[must_use]
pub fn simulate_sharded(
    workload: &PreparedWorkload,
    config: &SimConfig,
    plan: &ShardPlan,
    traces: &TraceStore,
    checkpoints: Option<&CheckpointStore>,
) -> SimResult {
    let path = traces
        .ensure(workload, config)
        .unwrap_or_else(|e| panic!("capturing {}: {e}", workload.spec.name));
    let mut carry = None;
    let mut merged: Option<SimResult> = None;
    for k in 0..plan.segments() {
        let (fragment, next) =
            run_segment(workload, config, plan, k, carry.take(), &path, checkpoints);
        carry = Some(next);
        merged = Some(match merged.take() {
            None => fragment,
            Some(mut whole) => {
                whole.merge(&fragment);
                whole
            }
        });
    }
    merged.expect("a plan always has at least one segment")
}

/// One segment task on the shard scheduler's queue. `carry` is the live
/// predecessor run + positioned stream (pipelined hand-off); tasks
/// dispatched from persisted chain links carry `None` and load their
/// checkpoint.
struct Task<'w> {
    cell: usize,
    segment: usize,
    carry: Option<Carry<'w>>,
}

struct Sched<'w> {
    ready: VecDeque<Task<'w>>,
    /// Fragments by `cell * segments + segment`.
    fragments: Vec<Option<SimResult>>,
    /// Whether a task was already queued (or ran) for each slot.
    dispatched: Vec<bool>,
    remaining: usize,
    /// Set when a worker panics, so blocked workers exit instead of
    /// waiting forever for successors that will never be enqueued.
    poisoned: bool,
}

/// Sweeps `workloads × policies` with every run sharded into
/// `shards` chunk-aligned segments (see [`ShardPlan`]) on one shared
/// work queue of segment tasks:
///
/// * segment *k* of a cell becomes ready when checkpoint *k−1* exists —
///   at dispatch time from a previous sweep's persisted chain, or the
///   moment this sweep's segment *k−1* finishes (the finishing worker
///   hands the live run over, skipping the checkpoint round-trip);
/// * non-final segments persist their end state through
///   [`CheckpointStore::save_segment`], so the *next* sweep dispatches
///   every segment immediately and a single long cell spreads across
///   the whole pool;
/// * a missing or damaged chain link falls back cold (fast-forward
///   boundary restored or warmed up to, + re-simulated prefix) — the
///   sweep degrades in speed, never in results.
///
/// Results are bit-identical to [`crate::replay_sweep`] /
/// [`crate::policy_sweep`] regardless of scheduling: fragments are
/// deterministic and [`SimResult::merge`] folds them in chain order.
///
/// # Panics
///
/// Panics if a trace cannot be captured or replayed.
#[must_use]
pub fn replay_sweep_sharded(
    jobs: usize,
    workloads: &[PreparedWorkload],
    config: &SimConfig,
    policies: &[PolicyKind],
    traces: &TraceStore,
    checkpoints: &CheckpointStore,
    shards: usize,
) -> SweepResult {
    let plan = ShardPlan::new(config, shards);
    let k = plan.segments();

    let paths: Vec<PathBuf> = parallel_map_with(jobs, workloads.len(), |i| {
        traces
            .ensure(&workloads[i], config)
            .unwrap_or_else(|e| panic!("capturing {}: {e}", workloads[i].spec.name))
    });

    let cells: Vec<(usize, SimConfig)> = (0..workloads.len())
        .flat_map(|w| policies.iter().map(move |&p| (w, config.clone().with_policy(p))))
        .collect();

    let mut sched = Sched {
        ready: VecDeque::new(),
        fragments: (0..cells.len() * k).map(|_| None).collect(),
        dispatched: vec![false; cells.len() * k],
        remaining: cells.len() * k,
        poisoned: false,
    };
    for (cell, (wi, cell_config)) in cells.iter().enumerate() {
        sched.dispatched[cell * k] = true;
        sched.ready.push_back(Task { cell, segment: 0, carry: None });
        for seg in 1..k {
            // Warm chains fan a single cell across the pool: any segment
            // whose predecessor link is already on disk starts now.
            if checkpoints.has_segment(
                &workloads[*wi],
                cell_config,
                seg - 1,
                plan.measure_start(seg),
            ) {
                sched.dispatched[cell * k + seg] = true;
                sched.ready.push_back(Task { cell, segment: seg, carry: None });
            }
        }
    }

    let sched = Mutex::new(sched);
    let ready_cv = Condvar::new();
    let workers = jobs.max(1).min(cells.len() * k);

    /// Marks the scheduler poisoned if the holding worker unwinds, so
    /// the rest of the pool exits instead of deadlocking.
    struct PoisonGuard<'a, 'w> {
        sched: &'a Mutex<Sched<'w>>,
        cv: &'a Condvar,
    }
    impl Drop for PoisonGuard<'_, '_> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                if let Ok(mut s) = self.sched.lock() {
                    s.poisoned = true;
                }
                self.cv.notify_all();
            }
        }
    }

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let _guard = PoisonGuard { sched: &sched, cv: &ready_cv };
                loop {
                    let (task, depth) = {
                        let mut s = sched.lock().expect("scheduler lock");
                        loop {
                            if s.poisoned || s.remaining == 0 {
                                return;
                            }
                            if let Some(task) = s.ready.pop_front() {
                                break (task, s.ready.len());
                            }
                            // Idle time shows up as `scheduler_idle`
                            // spans: one per wakeless wait, attributed
                            // to the waiting worker's thread lane.
                            let idle = trrip_obs::span!("scheduler_idle");
                            s = ready_cv.wait(s).expect("scheduler lock");
                            drop(idle);
                        }
                    };
                    if trrip_obs::journal_active() {
                        trrip_obs::event(
                            "shard_task",
                            &[
                                ("cell", trrip_obs::Field::U64(task.cell as u64)),
                                ("segment", trrip_obs::Field::U64(task.segment as u64)),
                                ("queue_depth", trrip_obs::Field::U64(depth as u64)),
                            ],
                        );
                    }

                    let (wi, cell_config) = &cells[task.cell];
                    let (fragment, carry) = run_segment(
                        &workloads[*wi],
                        cell_config,
                        &plan,
                        task.segment,
                        task.carry,
                        &paths[*wi],
                        Some(checkpoints),
                    );

                    let mut s = sched.lock().expect("scheduler lock");
                    s.fragments[task.cell * k + task.segment] = Some(fragment);
                    s.remaining -= 1;
                    let succ = task.cell * k + task.segment + 1;
                    if task.segment + 1 < k && !s.dispatched[succ] {
                        s.dispatched[succ] = true;
                        s.ready.push_back(Task {
                            cell: task.cell,
                            segment: task.segment + 1,
                            carry: Some(carry),
                        });
                    }
                    drop(s);
                    ready_cv.notify_all();
                }
            });
        }
    });

    let fragments = sched.into_inner().expect("scheduler lock").fragments;
    let mut fragments = fragments.into_iter();
    let results: Vec<SimResult> = (0..cells.len())
        .map(|_| {
            let mut whole = fragments.next().flatten().expect("fragment collected");
            for _ in 1..k {
                whole.merge(&fragments.next().flatten().expect("fragment collected"));
            }
            whole
        })
        .collect();

    SweepResult {
        results,
        policies: policies.to_vec(),
        benchmarks: workloads.iter().map(|w| w.spec.name.clone()).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan_for(ff: u64, n: u64, shards: usize) -> ShardPlan {
        let mut config = SimConfig::quick(PolicyKind::Srrip);
        config.fast_forward = ff;
        config.instructions = n;
        ShardPlan::new(&config, shards)
    }

    #[test]
    fn plan_covers_the_window_exactly() {
        for (ff, n, shards) in
            [(0, 10, 3), (30_000, 300_000, 4), (123, 1, 5), (1 << 20, 1 << 22, 7)]
        {
            let plan = plan_for(ff, n, shards);
            assert!(plan.segments() >= 1 && plan.segments() <= shards.max(1));
            assert_eq!(plan.start(0), ff);
            assert_eq!(plan.end(plan.segments() - 1), ff + n);
            for s in 1..plan.segments() {
                assert_eq!(plan.start(s), plan.end(s - 1), "segments must tile");
                assert!(plan.end(s) > plan.start(s), "segments must be non-empty");
            }
        }
    }

    #[test]
    fn large_windows_get_chunk_aligned_interior_cuts() {
        let chunk = u64::from(CHUNK_CAPACITY);
        let plan = plan_for(30_000, 8 * chunk, 4);
        assert_eq!(plan.segments(), 4);
        for s in 1..plan.segments() {
            assert!(plan.is_chunk_aligned(s), "interior cut {s} at {} unaligned", plan.start(s));
        }
        // The exterior boundaries still hit the exact window.
        assert_eq!(plan.start(0), 30_000);
        assert_eq!(plan.end(3), 30_000 + 8 * chunk);
    }

    #[test]
    fn tiny_windows_fall_back_to_exact_cuts() {
        let plan = plan_for(100, 9, 3);
        assert_eq!(plan.segments(), 3);
        assert_eq!((plan.start(1), plan.start(2)), (103, 106));
    }

    #[test]
    fn shards_clamp_to_window_length() {
        let plan = plan_for(0, 2, 64);
        assert_eq!(plan.segments(), 2);
        let plan = plan_for(0, 5, 0);
        assert_eq!(plan.segments(), 1);
    }

    #[test]
    fn zero_length_window_still_has_one_segment() {
        let plan = plan_for(1000, 0, 4);
        assert_eq!(plan.segments(), 1);
        assert_eq!((plan.start(0), plan.end(0)), (1000, 1000));
    }
}
