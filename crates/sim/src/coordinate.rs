//! Crash-tolerant multi-process sweeps: N independent worker
//! *processes* share one trace dir + checkpoint dir and split a sweep
//! between them **by row** — a worker claims a workload and runs every
//! cell of it that still lacks a result through [`replay_sweep`], the
//! one executor: the workload is walked (or decoded) once, predicted
//! once, and its cells run in lockstep. Workers that are SIGKILLed
//! mid-row cost the sweep that row's progress and nothing else.
//!
//! # The claim protocol
//!
//! Every row has a **claim file** under `<checkpoint-dir>/coord/claims/`,
//! named by the whole request it stands for — benchmark, layout,
//! fast-forward, measured instructions, profiler flags, workload
//! fingerprint, policy-free warmup hash — so two workers with the same
//! inputs resolve the same file and two workers with different inputs
//! never collide. Acquisition is `O_CREAT|O_EXCL` — the filesystem picks
//! exactly one winner — and the first line of the file stamps who holds
//! it (worker id, pid, start time).
//!
//! While a worker holds claims, a **heartbeat** thread appends a line
//! to each held claim file every period: the append advances the file's
//! mtime (std cannot touch mtimes directly, and the appended lines
//! double as a liveness trace) and journals a `heartbeat` event. A
//! claim whose mtime is older than the configured deadline belongs to a
//! dead (or stalled) worker and is **reclaimed**: the reclaimer renames
//! it to a unique trash name — rename is atomic, so a double-reclaim
//! race has exactly one winner — journals `claim_reclaimed`, and
//! re-acquires fresh. Workers that find nothing claimable back off with
//! jittered exponential sleeps (pid-seeded xorshift) so a reclaim
//! stampede spreads out instead of thundering.
//!
//! # Why a killed worker can never corrupt the sweep
//!
//! Finished cells persist as **fragment files** under
//! `coord/fragments/` — the cell's [`SimResult`] in a checksummed
//! container, written temp+rename, one per cell, named like the row's
//! claim plus the policy. Cells are deterministic, so a fragment's bytes
//! are a pure function of its name: if a stale claim is reclaimed while
//! the original worker is actually still running (a delayed heartbeat,
//! not a death), both workers eventually rename **identical bytes** onto
//! the same paths and neither order loses or duplicates a result. The
//! collector ([`collect_results`]) reports nothing until every fragment
//! of every cell is present and intact — bit-identical to the
//! single-process [`replay_sweep`] (`tests/distributed_equivalence.rs`
//! pins this under worker kills, torn writes, and reclamation races).
//!
//! What a worker might die holding is already crash-safe: boundary
//! checkpoints and trace captures are temp+rename (half-written files
//! are invisible), a damaged one is reported and written again by the
//! next sweep that reads it, and orphaned `.tmp.` litter is collected by
//! [`CheckpointStore::gc`] after its grace window. A reclaimed row
//! restarts from the boundary files the dead worker left — a healer
//! restores overlays instead of warming again — not from wherever inside
//! the row the worker died: a row is seconds.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use trrip_policies::PolicyKind;
use trrip_snap::{Checksum, SnapError, SnapReader, SnapWriter, Snapshot};

use crate::capture::{trace_layout, workload_fingerprint, TraceStore};
use crate::checkpoint::{warmup_config_hash, warmup_prefix_hash, CheckpointStore};
use crate::config::SimConfig;
use crate::experiment::{replay_sweep, SweepResult};
use crate::prepare::PreparedWorkload;
use crate::system::SimResult;

/// Fragment container magic: `b"TRRIPFRG"`.
pub const FRAGMENT_MAGIC: [u8; 8] = *b"TRRIPFRG";
/// Fragment container format version, and the only one read: a v2
/// fragment is one cell's whole result under a name that carries the
/// whole request (a v1 fragment was a segment's tally, named by where
/// the segment started).
pub const FRAGMENT_VERSION: u16 = 2;

/// How a worker participates in a coordinated sweep.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// This worker's id, stamped into claims and journal events.
    pub worker: String,
    /// Heartbeat period: how often held claim files are touched.
    pub heartbeat: Duration,
    /// Claims whose mtime is older than this are considered abandoned
    /// and reclaimed. Must comfortably exceed `heartbeat`.
    pub stale_after: Duration,
    /// Base of the jittered exponential backoff a worker sleeps when it
    /// finds nothing claimable.
    pub poll: Duration,
}

impl WorkerOptions {
    /// Defaults for a worker named `worker`: 500 ms heartbeats, 5 s
    /// staleness deadline, 50 ms backoff base.
    #[must_use]
    pub fn named(worker: impl Into<String>) -> WorkerOptions {
        WorkerOptions {
            worker: worker.into(),
            heartbeat: Duration::from_millis(500),
            stale_after: Duration::from_secs(5),
            poll: Duration::from_millis(50),
        }
    }
}

/// What one worker did, for reports and smoke assertions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerReport {
    /// Fragments this worker persisted.
    pub fragments: usize,
    /// Claims acquired first try.
    pub claims: usize,
    /// Rows skipped because another worker held the claim.
    pub conflicts: usize,
    /// Stale claims this worker reclaimed.
    pub reclaims: usize,
    /// Claims that were reclaimed out from under this worker while it
    /// was still running (benign: both sides write identical bytes).
    pub lost_claims: usize,
}

/// Everything that can go wrong in the coordination layer itself.
/// Simulation failures inside a row still panic (as [`replay_sweep`]
/// does); these are filesystem-protocol failures.
#[derive(Debug)]
pub enum CoordError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A fragment container that fails validation; the message says
    /// what and where.
    Corrupt(String),
}

impl std::fmt::Display for CoordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoordError::Io(e) => write!(f, "coordination i/o error: {e}"),
            CoordError::Corrupt(what) => write!(f, "corrupt fragment: {what}"),
        }
    }
}

impl std::error::Error for CoordError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoordError::Io(e) => Some(e),
            CoordError::Corrupt(_) => None,
        }
    }
}

impl From<std::io::Error> for CoordError {
    fn from(e: std::io::Error) -> CoordError {
        CoordError::Io(e)
    }
}

impl From<SnapError> for CoordError {
    fn from(e: SnapError) -> CoordError {
        CoordError::Corrupt(e.to_string())
    }
}

/// The coordination root under a shared checkpoint directory.
#[must_use]
pub fn coord_dir(checkpoints: &CheckpointStore) -> PathBuf {
    checkpoints.dir().join("coord")
}

fn claims_dir(checkpoints: &CheckpointStore) -> PathBuf {
    coord_dir(checkpoints).join("claims")
}

fn fragments_dir(checkpoints: &CheckpointStore) -> PathBuf {
    coord_dir(checkpoints).join("fragments")
}

/// The store-style stem naming a request: everything its result is a
/// function of — benchmark, layout, `who` (a cell's policy, nothing for
/// a row), fast-forward, measured instructions, profiler flags,
/// workload fingerprint, and `hash` of the machine.
fn request_stem(workload: &PreparedWorkload, config: &SimConfig, who: &str, hash: u64) -> String {
    format!(
        "{}-{}-{who}ff{}-n{}-m{}{}-{:016x}-{hash:016x}",
        workload.spec.name,
        trace_layout(config.layout).tag(),
        config.fast_forward,
        config.instructions,
        u8::from(config.measure_reuse),
        u8::from(config.track_costly),
        workload_fingerprint(workload, config),
    )
}

/// Where the claim file of `workload`'s row lives: keyed without the
/// policy ([`warmup_prefix_hash`]), so a sweep's every cell of the
/// workload resolves the same claim.
#[must_use]
pub fn claim_path(
    checkpoints: &CheckpointStore,
    workload: &PreparedWorkload,
    config: &SimConfig,
) -> PathBuf {
    let stem = request_stem(workload, config, "", warmup_prefix_hash(config));
    claims_dir(checkpoints).join(format!("{stem}.claim"))
}

/// Where the result fragment of cell `(workload, config)` lives
/// (`config` carries the cell's policy).
#[must_use]
pub fn fragment_path(
    checkpoints: &CheckpointStore,
    workload: &PreparedWorkload,
    config: &SimConfig,
) -> PathBuf {
    let policy = format!("{}-", config.hierarchy.l2_policy.name().to_ascii_lowercase());
    let stem = request_stem(workload, config, &policy, warmup_config_hash(config));
    fragments_dir(checkpoints).join(format!("{stem}.frag"))
}

// ---------------------------------------------------------------------
// Fragment containers
// ---------------------------------------------------------------------

fn save_opt<T: Snapshot>(w: &mut SnapWriter, value: Option<&T>) {
    match value {
        None => w.bool(false),
        Some(v) => {
            w.bool(true);
            v.save(w);
        }
    }
}

fn restore_opt<T: Snapshot + Default>(r: &mut SnapReader<'_>) -> Result<Option<T>, SnapError> {
    if r.bool()? {
        let mut v = T::default();
        v.restore(r)?;
        Ok(Some(v))
    } else {
        Ok(None)
    }
}

fn save_result(result: &SimResult) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.str(&result.benchmark);
    w.str(result.policy.name());
    w.u64(result.core.instructions);
    w.f64(result.core.cycles);
    let t = &result.core.topdown;
    for v in [t.retire, t.ifetch, t.mispred, t.depend, t.issue, t.mem, t.other] {
        w.f64(v);
    }
    w.u64(result.core.branches);
    w.u64(result.core.mispredictions);
    w.u64(u64::from(result.core.dispatch_width));
    for stats in [&result.l1i, &result.l1d, &result.l2, &result.slc] {
        stats.save(&mut w);
    }
    w.u64(result.tlb.hits);
    w.u64(result.tlb.misses);
    let p = &result.pages;
    for v in [p.hot, p.warm, p.cold, p.untagged_code, p.data, p.mixed] {
        w.u64(v);
    }
    save_opt(&mut w, result.reuse_base.as_ref());
    save_opt(&mut w, result.reuse_hot_only.as_ref());
    save_opt(&mut w, result.costly.as_ref());
    w.into_bytes()
}

fn restore_result(body: &[u8]) -> Result<SimResult, CoordError> {
    let mut r = SnapReader::new(body);
    let benchmark = r.str()?;
    let policy: PolicyKind = r
        .str()?
        .parse()
        .map_err(|e: trrip_policies::kind::ParsePolicyError| CoordError::Corrupt(e.to_string()))?;
    let instructions = r.u64()?;
    let cycles = r.f64()?;
    let mut topdown = trrip_cpu::TopDown::default();
    for v in [
        &mut topdown.retire,
        &mut topdown.ifetch,
        &mut topdown.mispred,
        &mut topdown.depend,
        &mut topdown.issue,
        &mut topdown.mem,
        &mut topdown.other,
    ] {
        *v = r.f64()?;
    }
    let branches = r.u64()?;
    let mispredictions = r.u64()?;
    let dispatch_width = u32::try_from(r.u64()?)
        .map_err(|_| CoordError::Corrupt("dispatch width overflows".into()))?;
    let mut caches = [trrip_cache::AccessStats::default(); 4];
    for stats in &mut caches {
        stats.restore(&mut r)?;
    }
    let [l1i, l1d, l2, slc] = caches;
    let tlb = trrip_os::TlbStats { hits: r.u64()?, misses: r.u64()? };
    let mut pages = trrip_os::PageStats::default();
    for v in [
        &mut pages.hot,
        &mut pages.warm,
        &mut pages.cold,
        &mut pages.untagged_code,
        &mut pages.data,
        &mut pages.mixed,
    ] {
        *v = r.u64()?;
    }
    let reuse_base = restore_opt(&mut r)?;
    let reuse_hot_only = restore_opt(&mut r)?;
    let costly = restore_opt(&mut r)?;
    r.finish()?;
    Ok(SimResult {
        benchmark,
        policy,
        core: trrip_cpu::CoreResult {
            instructions,
            cycles,
            topdown,
            branches,
            mispredictions,
            dispatch_width,
        },
        l1i,
        l1d,
        l2,
        slc,
        tlb,
        pages,
        reuse_base,
        reuse_hot_only,
        costly,
    })
}

/// Writes a fragment container atomically (temp + rename). Layout
/// mirrors checkpoints: magic, version, body length, body, word-folded
/// checksum — torn or damaged writes are detected on read, never
/// silently collected.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_fragment(path: &Path, result: &SimResult) -> Result<(), CoordError> {
    let body = save_result(result);
    let mut checksum = Checksum::new();
    checksum.update(&body);
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let tmp = path.with_extension(format!("tmp.{}.{seq}", std::process::id()));
    {
        let mut file = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
        file.write_all(&FRAGMENT_MAGIC)?;
        file.write_all(&FRAGMENT_VERSION.to_le_bytes())?;
        file.write_all(&(body.len() as u64).to_le_bytes())?;
        file.write_all(&body)?;
        file.write_all(&checksum.value().to_le_bytes())?;
        file.flush()?;
    }
    // The torn-write seam for result fragments, mirroring
    // `ckpt.save.partial`: tear/damage the flushed temp (the damage is
    // then caught by the container checksum and the cell re-run) or
    // kill the worker here (claim reclamation takes over).
    trrip_obs::fault!("coord.fragment.save", &tmp);
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Reads and validates a fragment container.
///
/// # Errors
///
/// `Io` for filesystem failures (including `NotFound`), `Corrupt` for
/// anything that fails validation: magic, version, length, checksum, or
/// body shape.
pub fn read_fragment(path: &Path) -> Result<SimResult, CoordError> {
    let bytes = std::fs::read(path)?;
    if bytes.len() < 18 || bytes[..8] != FRAGMENT_MAGIC {
        return Err(CoordError::Corrupt(format!("{}: not a fragment", path.display())));
    }
    let version = u16::from_le_bytes(bytes[8..10].try_into().expect("2 bytes"));
    if version != FRAGMENT_VERSION {
        return Err(CoordError::Corrupt(format!("{}: fragment version {version}", path.display())));
    }
    let body_len = usize::try_from(u64::from_le_bytes(bytes[10..18].try_into().expect("8 bytes")))
        .map_err(|_| CoordError::Corrupt(format!("{}: length overflows", path.display())))?;
    if body_len.checked_add(26) != Some(bytes.len()) {
        return Err(CoordError::Corrupt(format!(
            "{}: body length {body_len} does not match file ({} bytes)",
            path.display(),
            bytes.len()
        )));
    }
    let body = &bytes[18..18 + body_len];
    let expected = u64::from_le_bytes(bytes[18 + body_len..].try_into().expect("8 bytes"));
    let mut checksum = Checksum::new();
    checksum.update(body);
    if checksum.value() != expected {
        return Err(CoordError::Corrupt(format!("{}: checksum mismatch", path.display())));
    }
    restore_result(body)
}

// ---------------------------------------------------------------------
// Claims
// ---------------------------------------------------------------------

fn now_us() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_micros() as u64).unwrap_or(0)
}

/// Tries to acquire `path` for `worker`. `create_new` makes the
/// filesystem pick exactly one winner among racing workers.
fn try_acquire(path: &Path, worker: &str) -> std::io::Result<bool> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    match std::fs::OpenOptions::new().write(true).create_new(true).open(path) {
        Ok(mut file) => {
            writeln!(
                file,
                "{{\"worker\":\"{worker}\",\"pid\":{},\"start_us\":{}}}",
                std::process::id(),
                now_us()
            )?;
            Ok(true)
        }
        Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => Ok(false),
        Err(e) => Err(e),
    }
}

/// Appends a heartbeat line to a held claim file, advancing its mtime.
/// A missing file (the claim was reclaimed under us) is not an error —
/// the worker discovers the loss at release time.
fn touch_claim(path: &Path, beat: u64) {
    if let Ok(mut file) = std::fs::OpenOptions::new().append(true).open(path) {
        let _ = writeln!(file, "{{\"hb\":{beat},\"ts_us\":{}}}", now_us());
    }
}

/// The age of a claim file since its last heartbeat (mtime), `None` if
/// it does not exist or the clock is unreadable.
fn claim_age(path: &Path) -> Option<Duration> {
    std::fs::metadata(path).ok()?.modified().ok()?.elapsed().ok()
}

/// The worker id stamped on a claim's first line, best effort.
fn claim_holder(path: &Path) -> String {
    let Ok(text) = std::fs::read_to_string(path) else { return "unknown".into() };
    let Some(line) = text.lines().next() else { return "unknown".into() };
    match trrip_obs::json::parse(line) {
        Ok(stamp) => stamp
            .get("worker")
            .and_then(trrip_obs::json::Json::as_str)
            .unwrap_or("unknown")
            .to_owned(),
        Err(_) => "unknown".into(),
    }
}

/// Reclaims a stale claim by renaming it away: atomic, so a
/// double-reclaim race resolves to exactly one winner. Returns whether
/// this caller won.
fn try_reclaim(path: &Path, worker: &str, age: Duration) -> bool {
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let trash = path.with_extension(format!("reclaim.{}.{seq}", std::process::id()));
    let holder = claim_holder(path);
    if std::fs::rename(path, &trash).is_err() {
        return false; // the other reclaimer (or a release) won
    }
    let _ = std::fs::remove_file(&trash);
    trrip_obs::counter!("coord.claim_reclaimed").incr();
    trrip_obs::event(
        "claim_reclaimed",
        &[
            ("worker", trrip_obs::Field::Str(worker)),
            ("prev_worker", trrip_obs::Field::Str(&holder)),
            (
                "claim",
                trrip_obs::Field::Str(&path.file_name().unwrap_or_default().to_string_lossy()),
            ),
            ("stale_ms", trrip_obs::Field::U64(age.as_millis() as u64)),
        ],
    );
    true
}

/// Releases a held claim — but only if we still own it. A missing file
/// or a different holder means the claim was reclaimed while we ran
/// (e.g. a stalled heartbeat): benign, because fragments are
/// deterministic and both sides publish identical bytes, but counted
/// and journaled, and the reclaimer's fresh claim is left untouched.
fn release_claim(path: &Path, worker: &str, report: &mut WorkerReport) {
    let still_ours = path.exists() && claim_holder(path) == worker;
    if still_ours {
        match std::fs::remove_file(path) {
            Ok(()) => return,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {} // lost the race after all
            Err(_) => return,
        }
    }
    report.lost_claims += 1;
    trrip_obs::counter!("coord.claim_lost").incr();
    trrip_obs::event(
        "claim_lost",
        &[
            ("worker", trrip_obs::Field::Str(worker)),
            (
                "claim",
                trrip_obs::Field::Str(&path.file_name().unwrap_or_default().to_string_lossy()),
            ),
        ],
    );
}

/// Jittered exponential backoff, seeded per worker so stampedes spread.
struct Backoff {
    state: u64,
    base: Duration,
    exp: u32,
}

impl Backoff {
    fn new(worker: &str, base: Duration) -> Backoff {
        let mut seed = 0x9E37_79B9_7F4A_7C15u64 ^ u64::from(std::process::id());
        for b in worker.bytes() {
            seed = (seed ^ u64::from(b)).wrapping_mul(0x100_0000_01B3);
        }
        Backoff { state: seed | 1, base: base.max(Duration::from_millis(1)), exp: 0 }
    }

    fn reset(&mut self) {
        self.exp = 0;
    }

    fn next(&mut self) -> Duration {
        // xorshift64
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        let span = self.base.saturating_mul(1 << self.exp.min(5));
        self.exp = (self.exp + 1).min(5);
        // [span/2, span): exponential with ±-ish jitter.
        span / 2 + Duration::from_micros(self.state % (span.as_micros().max(2) as u64 / 2))
    }
}

// ---------------------------------------------------------------------
// The worker
// ---------------------------------------------------------------------

/// Whether a cell is complete: a fragment file that exists **and
/// validates**. A damaged fragment (torn write landed by a fault or a
/// dying writer racing rename — the container checksum catches it) or
/// one of another version is deleted and journaled so the cell re-runs.
fn fragment_complete(path: &Path) -> bool {
    match read_fragment(path) {
        Ok(_) => true,
        Err(CoordError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => false,
        Err(e) => {
            trrip_obs::counter!("coord.fragment_damaged").incr();
            trrip_obs::event(
                "artifact_damaged",
                &[
                    ("what", trrip_obs::Field::Str("result fragment")),
                    (
                        "file",
                        trrip_obs::Field::Str(
                            &path.file_name().unwrap_or_default().to_string_lossy(),
                        ),
                    ),
                    ("error", trrip_obs::Field::Str(&e.to_string())),
                    ("next", trrip_obs::Field::Str("re-running cell")),
                ],
            );
            let _ = std::fs::remove_file(path);
            false
        }
    }
}

/// Runs one worker of a coordinated multi-process sweep to completion:
/// claims a workload's row, runs the cells of it that have no valid
/// fragment yet through [`replay_sweep`] — on one thread; a worker
/// process is the unit of parallelism — persists one fragment per cell,
/// heartbeats its claims, and reclaims stale claims left by dead
/// workers. Returns when every cell of the sweep has a fragment.
///
/// Any number of workers — in this process, in others, on a shared
/// filesystem — may run this concurrently with the same arguments; the
/// claim files arbitrate. Results are collected separately with
/// [`collect_results`].
///
/// # Panics
///
/// Panics if a capture that exists cannot be replayed (as
/// [`replay_sweep`] does), or a claim or fragment cannot be written.
pub fn coordinate_worker(
    workloads: &[PreparedWorkload],
    config: &SimConfig,
    policies: &[PolicyKind],
    traces: &TraceStore,
    checkpoints: &CheckpointStore,
    opts: &WorkerOptions,
) -> WorkerReport {
    trrip_obs::event(
        "worker_started",
        &[
            ("worker", trrip_obs::Field::Str(&opts.worker)),
            ("pid", trrip_obs::Field::U64(u64::from(std::process::id()))),
            ("rows", trrip_obs::Field::U64(workloads.len() as u64)),
            ("cells", trrip_obs::Field::U64((workloads.len() * policies.len()) as u64)),
        ],
    );

    let held: Mutex<Vec<PathBuf>> = Mutex::new(Vec::new());
    let stop = AtomicBool::new(false);
    let mut report = WorkerReport::default();

    std::thread::scope(|scope| {
        // The heartbeat thread: touch every held claim each period. A
        // `coord.heartbeat` delay fault stretches a beat past the
        // staleness deadline — the delayed-heartbeat scenario.
        scope.spawn(|| {
            let mut beat = 0u64;
            while !stop.load(Ordering::Relaxed) {
                trrip_obs::fault!("coord.heartbeat");
                beat += 1;
                let claims = held.lock().expect("held-claims lock").clone();
                for path in &claims {
                    touch_claim(path, beat);
                }
                trrip_obs::event(
                    "heartbeat",
                    &[
                        ("worker", trrip_obs::Field::Str(&opts.worker)),
                        ("beat", trrip_obs::Field::U64(beat)),
                        ("held", trrip_obs::Field::U64(claims.len() as u64)),
                    ],
                );
                std::thread::sleep(opts.heartbeat);
            }
        });

        let mut backoff = Backoff::new(&opts.worker, opts.poll);
        loop {
            let mut progressed = false;
            let mut incomplete = 0usize;

            for workload in workloads {
                let fragment = |policy| {
                    fragment_path(checkpoints, workload, &config.clone().with_policy(policy))
                };
                let missing: Vec<PolicyKind> = policies
                    .iter()
                    .copied()
                    .filter(|&policy| !fragment_complete(&fragment(policy)))
                    .collect();
                if missing.is_empty() {
                    continue;
                }
                incomplete += missing.len();

                let claim = claim_path(checkpoints, workload, config);
                if claim.exists() {
                    match claim_age(&claim) {
                        Some(age) if age > opts.stale_after => {
                            if !try_reclaim(&claim, &opts.worker, age) {
                                continue;
                            }
                            report.reclaims += 1;
                            // fall through to a fresh acquire
                        }
                        _ => {
                            trrip_obs::counter!("coord.claim_conflict").incr();
                            report.conflicts += 1;
                            continue;
                        }
                    }
                }
                match try_acquire(&claim, &opts.worker) {
                    Ok(true) => {}
                    Ok(false) => {
                        trrip_obs::counter!("coord.claim_conflict").incr();
                        report.conflicts += 1;
                        continue;
                    }
                    Err(e) => panic!("acquiring claim {}: {e}", claim.display()),
                }
                report.claims += 1;
                trrip_obs::counter!("coord.claim").incr();
                trrip_obs::event(
                    "claim_acquired",
                    &[
                        ("worker", trrip_obs::Field::Str(&opts.worker)),
                        ("benchmark", trrip_obs::Field::Str(&workload.spec.name)),
                        ("cells", trrip_obs::Field::U64(missing.len() as u64)),
                    ],
                );
                held.lock().expect("held-claims lock").push(claim.clone());
                // A kill here dies holding a fresh claim with no
                // progress: the pure stale-claim-reclamation path.
                trrip_obs::fault!("coord.claim.acquired");

                let row = std::slice::from_ref(workload);
                let sweep = replay_sweep(1, row, config, &missing, traces, Some(checkpoints));
                // A kill here dies with the row simulated, its capture
                // and boundary files in the stores, no fragment
                // published, claim held.
                trrip_obs::fault!("coord.row.done");
                for result in &sweep.results {
                    let frag = fragment(result.policy);
                    write_fragment(&frag, result)
                        .unwrap_or_else(|e| panic!("writing fragment {}: {e}", frag.display()));
                    report.fragments += 1;
                    trrip_obs::counter!("coord.fragment_saved").incr();
                    trrip_obs::event(
                        "fragment_saved",
                        &[
                            ("worker", trrip_obs::Field::Str(&opts.worker)),
                            ("benchmark", trrip_obs::Field::Str(&workload.spec.name)),
                            ("policy", trrip_obs::Field::Str(result.policy.name())),
                        ],
                    );
                }
                held.lock().expect("held-claims lock").retain(|p| p != &claim);
                release_claim(&claim, &opts.worker, &mut report);
                progressed = true;
                // `incomplete` deliberately still counts these cells: a
                // worker never trusts its own publish. A cell stays
                // incomplete until a later pass *reads the fragment
                // back* — so a torn own-write (`coord.fragment.save`
                // truncating the temp before rename) is caught by the
                // same checksum scan as anyone else's, and a worker only
                // exits after one full pass observed every fragment
                // valid on disk.
            }

            if incomplete == 0 {
                break;
            }
            if progressed {
                backoff.reset();
            } else {
                trrip_obs::counter!("coord.backoff").incr();
                std::thread::sleep(backoff.next());
            }
        }

        stop.store(true, Ordering::Relaxed);
    });

    trrip_obs::event(
        "worker_finished",
        &[
            ("worker", trrip_obs::Field::Str(&opts.worker)),
            ("fragments", trrip_obs::Field::U64(report.fragments as u64)),
            ("claims", trrip_obs::Field::U64(report.claims as u64)),
            ("reclaims", trrip_obs::Field::U64(report.reclaims as u64)),
        ],
    );
    report
}

// ---------------------------------------------------------------------
// The collector
// ---------------------------------------------------------------------

/// Reads a coordinated sweep's fragments, one per cell, into a
/// [`SweepResult`], bit-identical to the single-process [`replay_sweep`]
/// over the same inputs. Returns `Ok(None)` while any fragment is
/// missing or damaged (damaged ones are deleted so a worker pass can
/// heal them).
///
/// # Errors
///
/// Filesystem failures other than missing fragments.
pub fn collect_results(
    workloads: &[PreparedWorkload],
    config: &SimConfig,
    policies: &[PolicyKind],
    checkpoints: &CheckpointStore,
) -> Result<Option<SweepResult>, CoordError> {
    let mut results = Vec::with_capacity(workloads.len() * policies.len());
    for workload in workloads {
        for &policy in policies {
            let path = fragment_path(checkpoints, workload, &config.clone().with_policy(policy));
            match read_fragment(&path) {
                Ok(result) => results.push(result),
                Err(CoordError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
                    return Ok(None)
                }
                Err(CoordError::Io(e)) => return Err(CoordError::Io(e)),
                Err(CoordError::Corrupt(_)) => {
                    // Same healing contract as the workers: delete so
                    // the cell re-runs, report incomplete.
                    let _ = std::fs::remove_file(&path);
                    return Ok(None);
                }
            }
        }
    }
    Ok(Some(SweepResult {
        results,
        policies: policies.to_vec(),
        benchmarks: workloads.iter().map(|w| w.spec.name.clone()).collect(),
    }))
}

/// One live-ness snapshot of the claim table, for status displays and
/// the distributed bench's coordinator.
#[derive(Debug, Clone)]
pub struct ClaimInfo {
    /// Claim file name (the row's key).
    pub name: String,
    /// Worker id stamped on the claim.
    pub holder: String,
    /// Time since the last heartbeat touched it.
    pub age: Duration,
}

/// Lists the currently held claims under a checkpoint store, oldest
/// heartbeat first.
#[must_use]
pub fn scan_claims(checkpoints: &CheckpointStore) -> Vec<ClaimInfo> {
    let Ok(entries) = std::fs::read_dir(claims_dir(checkpoints)) else { return Vec::new() };
    let mut claims: Vec<ClaimInfo> = entries
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|x| x == "claim"))
        .filter_map(|e| {
            let path = e.path();
            Some(ClaimInfo {
                name: path.file_name()?.to_string_lossy().into_owned(),
                holder: claim_holder(&path),
                age: claim_age(&path)?,
            })
        })
        .collect();
    claims.sort_by_key(|c| std::cmp::Reverse(c.age));
    claims
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("trrip-coordinate-unit");
        std::fs::create_dir_all(&dir).expect("test dir");
        dir.join(format!("{name}-{}", std::process::id()))
    }

    #[test]
    fn fragment_roundtrip_and_damage_detection() {
        let mut result = SimResult {
            benchmark: "frag-test".into(),
            policy: PolicyKind::Trrip1,
            core: trrip_cpu::CoreResult {
                instructions: 123_456,
                cycles: 98_765.5,
                topdown: trrip_cpu::TopDown::default(),
                branches: 77,
                mispredictions: 5,
                dispatch_width: 8,
            },
            l1i: trrip_cache::AccessStats::default(),
            l1d: trrip_cache::AccessStats::default(),
            l2: trrip_cache::AccessStats::default(),
            slc: trrip_cache::AccessStats::default(),
            tlb: trrip_os::TlbStats::default(),
            pages: trrip_os::PageStats::default(),
            reuse_base: Some(trrip_analysis::ReuseHistogram::default()),
            reuse_hot_only: None,
            costly: None,
        };
        result.core.topdown.ifetch = 11.25;
        result.l2.inst_misses = 42;
        result.pages.hot = 7;
        result.tlb.misses = 9;

        let path = scratch("roundtrip.frag");
        write_fragment(&path, &result).expect("write");
        let back = read_fragment(&path).expect("read");
        assert_eq!(back.benchmark, result.benchmark);
        assert_eq!(back.policy, result.policy);
        assert_eq!(back.core.instructions, result.core.instructions);
        assert_eq!(back.core.cycles.to_bits(), result.core.cycles.to_bits());
        assert_eq!(back.core.topdown.ifetch.to_bits(), result.core.topdown.ifetch.to_bits());
        assert_eq!(back.core.dispatch_width, 8);
        assert_eq!(back.l2.inst_misses, 42);
        assert_eq!(back.pages.hot, 7);
        assert_eq!(back.tlb.misses, 9);
        assert!(back.reuse_base.is_some() && back.reuse_hot_only.is_none());
        assert!(back.costly.is_none());

        // A flipped body byte fails the checksum; truncation fails the
        // length check.
        trrip_snap::corrupt::flip_middle_byte(&path);
        assert!(matches!(read_fragment(&path), Err(CoordError::Corrupt(_))));
        write_fragment(&path, &result).expect("rewrite");
        trrip_snap::corrupt::truncate_file(&path, trrip_snap::corrupt::file_len(&path) - 3);
        assert!(matches!(read_fragment(&path), Err(CoordError::Corrupt(_))));

        // Any version but the current is refused, older ones included.
        write_fragment(&path, &result).expect("rewrite");
        let mut bytes = std::fs::read(&path).expect("read back");
        for other in [FRAGMENT_VERSION - 1, FRAGMENT_VERSION + 1] {
            bytes[8..10].copy_from_slice(&other.to_le_bytes());
            std::fs::write(&path, &bytes).expect("restamp");
            assert!(matches!(read_fragment(&path), Err(CoordError::Corrupt(_))), "v{other}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn claims_have_single_winners_and_stamped_holders() {
        let path = scratch("acquire.claim");
        let _ = std::fs::remove_file(&path);
        assert!(try_acquire(&path, "w0").expect("acquire"));
        assert!(!try_acquire(&path, "w1").expect("second acquire loses"));
        assert_eq!(claim_holder(&path), "w0");
        assert!(claim_age(&path).expect("age") < Duration::from_secs(5));

        // Heartbeats append without tearing the stamp line.
        touch_claim(&path, 1);
        touch_claim(&path, 2);
        assert_eq!(claim_holder(&path), "w0");
        let text = std::fs::read_to_string(&path).expect("read");
        assert_eq!(text.lines().count(), 3);

        // Reclaim renames the file away exactly once.
        assert!(try_reclaim(&path, "w1", Duration::from_secs(9)));
        assert!(!path.exists());
        assert!(!try_reclaim(&path, "w2", Duration::from_secs(9)), "second reclaim loses");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn backoff_grows_jittered_and_bounded() {
        let mut backoff = Backoff::new("w0", Duration::from_millis(8));
        let mut last = Duration::ZERO;
        for i in 0..8 {
            let d = backoff.next();
            assert!(d >= Duration::from_millis(4), "sleep {i} too short: {d:?}");
            assert!(d < Duration::from_millis(8 * 32), "sleep {i} unbounded: {d:?}");
            last = last.max(d);
        }
        assert!(last > Duration::from_millis(64), "backoff must actually grow");
        backoff.reset();
        assert!(backoff.next() < Duration::from_millis(8));

        // Distinct workers get distinct jitter streams.
        let mut a = Backoff::new("w1", Duration::from_millis(8));
        let mut b = Backoff::new("w2", Duration::from_millis(8));
        let sa: Vec<Duration> = (0..4).map(|_| a.next()).collect();
        let sb: Vec<Duration> = (0..4).map(|_| b.next()).collect();
        assert_ne!(sa, sb, "jitter must differ per worker");
    }
}
