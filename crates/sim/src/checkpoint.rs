//! Checkpointing: persist a warmed [`SimRun`] and restore it later —
//! in the same process or a different one — skipping fast-forward; and
//! keep a workload's training profile, so that its training run happens
//! once per store.
//!
//! # File format
//!
//! ```text
//! file := magic:8 version:u16 body_len:u64 body checksum:u64
//! body := kind:u8 meta payload    (one trrip-snap stream)
//! meta := benchmark:str policy:str fingerprint:u64 config_hash:u64
//!         stream_position:u64
//! ```
//!
//! Fixed-width fields are little-endian; the body is a `trrip-snap`
//! stream whose trailing `payload` field holds the snapshot bytes as
//! written. The checksum (the same word-folded hash `trrip-trace` uses
//! for chunk payloads) covers every body byte, and `body_len` must equal
//! what the file holds after the header, so truncation is detected
//! before the checksum is even consulted and no length is believed past
//! the file's end. Writes go to a sibling temp file and are renamed into
//! place, so concurrent sweep processes sharing a checkpoint directory
//! never observe a half-written file.
//!
//! There is one version, [`VERSION`], and the store reads no other: it
//! is a cache that rebuilds itself, so a file of any other version is a
//! miss, and the save that follows the miss overwrites it.
//!
//! # What a store holds
//!
//! Every container is tagged with a [`CheckpointKind`]:
//!
//! * **shared prefix** — the *policy-agnostic* half of one workload's
//!   fast-forward boundary state, as a sweep's [`crate::Frontend`] hands
//!   it out ([`SharedWarmup`]), in two sections: `SHRD`, the branch
//!   predictor followed by the row's stream views ([`crate::StreamView`],
//!   one per page size among its cells, smallest first: the
//!   demand-allocated frames and the stride table), and `WALK`, the
//!   walker's position ([`trrip_workloads::WalkerState`]) at exactly
//!   instruction `fast_forward` — so a frontend resumed from it starts
//!   the stream there without walking the warm-up. One file per workload
//!   and set of page sizes, keyed by what the frontend reads and holds and
//!   nothing a cell adds to it ([`warmup_prefix_hash`]). The walker
//!   section is checked against the workload's program when it loads: an
//!   index out of range or a length past what a walker holds is damage,
//!   named by field;
//! * **policy overlay** — the *policy-dependent* rest, one `OVLY`
//!   section: the starvation FIFO, the TLB, the caches with
//!   tag/RRPV/policy state and the in-flight prefetch tracker. No frame
//!   and no stride table: those are the stream's, in the prefix. One file
//!   per cell — per `(workload, machine)`;
//! * **full** — a complete [`SimRun`] state at the boundary: whatever a
//!   caller saves whole with [`CheckpointStore::save`], `SHRD` (the
//!   predictor and the run's one stream view) then `OVLY`. No sweep reads
//!   or writes one;
//! * **training profile** — the basic-block counters of a workload's
//!   instrumented training run (Figure 4 ②–③), in one `PROF` section.
//!   One file per workload and training length, written and read by
//!   [`crate::PreparedWorkload::prepare_with`]: every preparation after
//!   the first compiles from it instead of walking the train input again.
//!   It is read into the shape of the workload's program, so a profile of
//!   another program — or one whose lengths were damaged — is a mismatch
//!   naming the function, reported and trained again.
//!
//! `shared prefix + overlay` composes bit-identically to the full
//! fast-forward state, and those two files are all a sweep keeps of the
//! boundary: a cell that finds both restores, a cell that does not
//! executes the warm-up and leaves them behind.
//!
//! # Keying
//!
//! A checkpoint is only valid for the exact warmup it captured, so
//! [`CheckpointStore`] keys files by:
//!
//! * the **workload fingerprint** ([`crate::capture::workload_fingerprint`]):
//!   exact code placement + the whole workload spec, so classifier sweeps
//!   (fig8) never reuse a stale warmed state, nor two specs a stream;
//! * a **warmup configuration hash** ([`warmup_config_hash`]): every
//!   machine parameter that shapes architectural state (core, predictor,
//!   hierarchy geometry + policy, page size, overlap policy, layout, and
//!   the fast-forward length). The *measured* window length and the
//!   profiler flags are deliberately excluded — a warmed state is
//!   reusable under any measure window, which is what lets fig6/fig8/
//!   fig9 share warmups where their machines agree. Shared-prefix files
//!   use the frontend's variant ([`warmup_prefix_hash`]: core, layout,
//!   fast-forward length and the page size of each view — no policy, no
//!   cache geometry, no overlap rule, which moves temperatures, never
//!   frames), so every cell of a workload's row resolves the row's
//!   prefix, and rows over the same page sizes — fig6's, table3's,
//!   fig9's — share it; overlap_ablation's, over three, has its own.
//!
//! A training profile precedes code placement, so it is keyed by the
//! **spec fingerprint** ([`crate::capture::spec_fingerprint`]: the whole
//! workload spec, the words the workload fingerprint folds in after the
//! placement) and the training length (`--scale` changes it), and by no
//! machine: every binary that prepares the workload, whatever it sweeps
//! and under whichever classifier, resolves the same file. The walker's
//! code is in no key: a change that moves the training walk moves kept
//! profiles and `WALK` sections alike, and must step [`VERSION`] to
//! retire them.

use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use trrip_cache::{CacheConfig, Hierarchy, HierarchyConfig};
use trrip_compiler::{LayoutKind, Profile, Program};
use trrip_cpu::{
    BranchInfo, BranchKind, BranchPredictor, CoreConfig, MemOp, StallClass, TraceInstr,
};
use trrip_mem::{PageSize, VirtAddr};
use trrip_os::OverlapPolicy;
use trrip_snap::{Checksum, SnapError, SnapReader, SnapWriter, Snapshot};
use trrip_workloads::walker::{Frame, Phase};
use trrip_workloads::{WalkerState, WorkloadSpec};

use crate::capture::{spec_fingerprint, trace_layout, workload_fingerprint};
use crate::config::SimConfig;
use crate::prepare::PreparedWorkload;
use crate::system::SimRun;
use crate::view::view_page_sizes;

/// Checkpoint file magic: `b"TRRIPCKP"`.
pub const MAGIC: [u8; 8] = *b"TRRIPCKP";
/// The checkpoint format version, and the only one the store reads:
/// v11. The snapshot payload rests as written, and a full state is the
/// two sections a shared prefix and an overlay hold (`SHRD`, then
/// `OVLY`). Every container is a fast-forward-boundary state, a shared
/// prefix is keyed by what a frontend reads alone, and it holds the
/// walker's position beside the predictor and the stream views; an
/// overlay holds neither frames nor a stride table.
pub const VERSION: u16 = 11;

/// What a container holds (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointKind {
    /// A complete [`SimRun`] state at the fast-forward boundary.
    Full,
    /// A workload's policy-agnostic warm prefix: the predictor section.
    SharedPrefix,
    /// One policy's policy-dependent fast-forward state.
    PolicyOverlay,
    /// A workload's training profile: the basic-block counters of its
    /// instrumented training run.
    Profile,
}

impl CheckpointKind {
    fn as_u8(self) -> u8 {
        match self {
            CheckpointKind::Full => 0,
            CheckpointKind::SharedPrefix => 1,
            CheckpointKind::PolicyOverlay => 2,
            CheckpointKind::Profile => 3,
        }
    }

    fn from_u8(raw: u8) -> Option<CheckpointKind> {
        match raw {
            0 => Some(CheckpointKind::Full),
            1 => Some(CheckpointKind::SharedPrefix),
            2 => Some(CheckpointKind::PolicyOverlay),
            3 => Some(CheckpointKind::Profile),
            _ => None,
        }
    }
}

/// Everything that can go wrong reading or writing a checkpoint.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying I/O failure (including truncation mid-body).
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's format version is not [`VERSION`].
    UnsupportedVersion(u16),
    /// Body bytes do not hash to the trailing checksum.
    ChecksumMismatch {
        /// Checksum the file promises.
        expected: u64,
        /// Checksum the body actually hashes to.
        found: u64,
    },
    /// Structurally invalid content; the message says what.
    Corrupt(String),
    /// The checkpoint is valid but was captured for a different
    /// (workload, configuration) key.
    KeyMismatch(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            CheckpointError::BadMagic => f.write_str("not a trrip checkpoint (bad magic)"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint version {v} (this reader speaks {VERSION})")
            }
            CheckpointError::ChecksumMismatch { expected, found } => {
                write!(f, "checkpoint checksum mismatch: file {expected:#018x}, body {found:#018x}")
            }
            CheckpointError::Corrupt(what) => write!(f, "corrupt checkpoint: {what}"),
            CheckpointError::KeyMismatch(what) => write!(f, "checkpoint key mismatch: {what}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> CheckpointError {
        CheckpointError::Io(e)
    }
}

impl From<SnapError> for CheckpointError {
    fn from(e: SnapError) -> CheckpointError {
        CheckpointError::Corrupt(e.to_string())
    }
}

/// Identity of a checkpoint: what was warmed, under which machine, and
/// how far into the instruction stream the state reaches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointMeta {
    /// Benchmark name.
    pub benchmark: String,
    /// L2 policy display name (warmup state is policy-dependent).
    pub policy: String,
    /// Placement + walk-input fingerprint
    /// ([`crate::capture::workload_fingerprint`]).
    pub fingerprint: u64,
    /// Warmup machine hash ([`warmup_config_hash`]).
    pub config_hash: u64,
    /// Instructions of the workload stream already consumed: resuming
    /// must skip exactly this many before feeding the run.
    pub stream_position: u64,
}

impl CheckpointMeta {
    fn save(&self, w: &mut SnapWriter) {
        w.str(&self.benchmark);
        w.str(&self.policy);
        w.u64(self.fingerprint);
        w.u64(self.config_hash);
        w.u64(self.stream_position);
    }

    fn restore(r: &mut SnapReader<'_>) -> Result<CheckpointMeta, SnapError> {
        Ok(CheckpointMeta {
            benchmark: r.str()?,
            policy: r.str()?,
            fingerprint: r.u64()?,
            config_hash: r.u64()?,
            stream_position: r.u64()?,
        })
    }
}

fn overlap_tag(overlap: OverlapPolicy) -> u8 {
    match overlap {
        OverlapPolicy::FirstByte => 0,
        OverlapPolicy::DropMixed => 1,
        OverlapPolicy::Hottest => 2,
    }
}

/// Hashes every configuration knob that shapes warmed architectural
/// state. Two configs with equal hashes produce interchangeable
/// fast-forward states for the same workload fingerprint; anything that
/// moves a single bit of warmup state (cache geometry, policy, page
/// size, fast-forward length…) moves the hash; the core's and the
/// predictor's constants are hashed too.
#[must_use]
pub fn warmup_config_hash(config: &SimConfig) -> u64 {
    warmup_hash(config, None)
}

/// The key of a row's shared-prefix container: what a frontend at the
/// boundary depends on and nothing else — the core's constants, the
/// layout and the fast-forward length (the predictor), and the page
/// size of each stream view it holds, one per page size among the row's
/// cells ([`view_page_sizes`]). A sweep's frontend trains over a backend
/// that always hits and a view resolves frames and strides, so the L2's
/// policy, size and ways and the overlap rule — which moves
/// temperatures, read by each cell from its own loaded image, never
/// frames — do not reach it: cells that differ only in those resolve the
/// same file.
///
/// # Panics
///
/// Panics if `row` is empty.
#[must_use]
pub fn warmup_prefix_hash(row: &[SimConfig]) -> u64 {
    let config = row.first().expect("a shared prefix serves at least one cell");
    warmup_hash(config, Some(&view_page_sizes(row)))
}

/// The machine's whole warm-up key, or with `views`, the key of a
/// frontend holding views of those page sizes.
fn warmup_hash(config: &SimConfig, views: Option<&[PageSize]>) -> u64 {
    let mut w = SnapWriter::new();
    // The Table 1 core's constants. Every store file name is keyed by
    // these bytes (both keys are pinned in the tests), so they keep
    // their order, FDIP's flag included.
    w.u64(u64::from(CoreConfig::DISPATCH_WIDTH));
    w.u64(u64::from(CoreConfig::ROB_ENTRIES));
    w.usize(BranchPredictor::BTB_ENTRIES);
    w.usize(BranchPredictor::INDIRECT_BTB_ENTRIES);
    w.usize(BranchPredictor::LOOP_ENTRIES);
    w.usize(BranchPredictor::GLOBAL_ENTRIES);
    w.usize(BranchPredictor::RAS_DEPTH);
    w.u64(BranchPredictor::MISPREDICT_PENALTY);
    w.bool(true);
    w.usize(CoreConfig::FDIP_LOOKAHEAD_INSTRS);
    w.usize(CoreConfig::FDIP_MAX_LINES);
    w.u64(CoreConfig::L1_HIT_CYCLES);
    w.u64(CoreConfig::STARVATION_THRESHOLD);
    if let Some(views) = views {
        w.usize(views.len());
        for page_size in views {
            w.u64(page_size.bytes());
        }
    } else {
        // No `..` in these patterns: a field added to one of these
        // structs does not compile until it is hashed here or named as
        // left out.
        // Every level's geometry and latencies, L1-I, L1-D, L2 and SLC in
        // that order, constants included: the pinned keys and every store
        // file name hash these bytes. Only the L2's geometry varies.
        let HierarchyConfig { l2, l2_policy } = &config.hierarchy;
        let levels = [
            (Hierarchy::L1I, Hierarchy::L1_TAG_CYCLES, Hierarchy::L1_DATA_CYCLES),
            (Hierarchy::L1D, Hierarchy::L1_TAG_CYCLES, Hierarchy::L1_DATA_CYCLES),
            (*l2, Hierarchy::L2_TAG_CYCLES, Hierarchy::L2_DATA_CYCLES),
            (Hierarchy::SLC, Hierarchy::SLC_TAG_CYCLES, Hierarchy::SLC_DATA_CYCLES),
        ];
        for (CacheConfig { size_bytes, ways }, tag, data) in levels {
            w.u64(size_bytes);
            w.usize(ways);
            w.u64(tag);
            w.u64(data);
        }
        w.u64(Hierarchy::DRAM_LATENCY);
        w.str(l2_policy.name());
        w.u64(config.page_size.bytes());
        w.u8(overlap_tag(config.overlap));
    }
    w.u8(match config.layout {
        LayoutKind::SourceOrder => 0,
        LayoutKind::Pgo => 1,
    });
    w.u64(config.fast_forward);

    let mut checksum = Checksum::new();
    checksum.update(w.bytes());
    checksum.value()
}

/// Writes a checkpoint container of any [`CheckpointKind`] atomically
/// (sibling temp file + rename).
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_checkpoint_kind(
    path: &Path,
    kind: CheckpointKind,
    meta: &CheckpointMeta,
    payload: &[u8],
) -> Result<(), CheckpointError> {
    let mut body = SnapWriter::new();
    body.u8(kind.as_u8());
    meta.save(&mut body);
    body.bytes_field(payload);
    let body = body.into_bytes();
    let mut checksum = Checksum::new();
    checksum.update(&body);

    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    // Unique per process AND per call: two `--jobs` workers of one
    // process, or two processes sharing the directory, can save the same
    // file concurrently, and both must land atomically.
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let tmp = path.with_extension(format!("tmp.{}.{seq}", std::process::id()));
    {
        let mut file = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
        file.write_all(&MAGIC)?;
        file.write_all(&VERSION.to_le_bytes())?;
        file.write_all(&(body.len() as u64).to_le_bytes())?;
        file.write_all(&body)?;
        file.write_all(&checksum.value().to_le_bytes())?;
        file.flush()?;
    }
    // The torn-write seam: with `ckpt.save.partial` armed, the fault
    // harness tears/damages the flushed temp file (the rename then
    // publishes a bad container, which loads must reject) or kills the
    // process here (the rename never happens; only a temp is left).
    trrip_obs::fault!("ckpt.save.partial", &tmp);
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Bounded retry attempts for transient I/O on store load paths.
const RETRY_ATTEMPTS: u32 = 3;

/// Transient I/O: interruptions and contention that a bounded retry is
/// allowed to absorb. Everything else (missing files, corruption,
/// permissions) surfaces immediately.
fn is_transient(e: &CheckpointError) -> bool {
    matches!(
        e,
        CheckpointError::Io(io) if matches!(
            io.kind(),
            std::io::ErrorKind::Interrupted
                | std::io::ErrorKind::WouldBlock
                | std::io::ErrorKind::TimedOut
        )
    )
}

/// Runs `op` up to [`RETRY_ATTEMPTS`] times, backing off briefly
/// between attempts, retrying only [transient](is_transient) failures.
/// Every retry counts into `ckpt.retry`.
fn retry_transient<T>(
    mut op: impl FnMut() -> Result<T, CheckpointError>,
) -> Result<T, CheckpointError> {
    let mut attempt = 1;
    loop {
        match op() {
            Err(e) if is_transient(&e) && attempt < RETRY_ATTEMPTS => {
                trrip_obs::counter!("ckpt.retry").incr();
                std::thread::sleep(std::time::Duration::from_millis(5 << attempt));
                attempt += 1;
            }
            other => return other,
        }
    }
}

/// Reads and verifies a checkpoint file: magic, version, length and
/// checksum. Returns the container kind, the metadata and the snapshot
/// payload.
///
/// # Errors
///
/// Every [`CheckpointError`] variant except `KeyMismatch` — a
/// truncated file surfaces as `Io`/`Corrupt`, a flipped body byte as
/// `ChecksumMismatch`.
pub fn read_checkpoint(
    path: &Path,
) -> Result<(CheckpointKind, CheckpointMeta, Vec<u8>), CheckpointError> {
    let mut file = std::io::BufReader::new(std::fs::File::open(path)?);

    let mut magic = [0u8; 8];
    file.read_exact(&mut magic)?;
    if magic != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let mut version = [0u8; 2];
    file.read_exact(&mut version)?;
    let version = u16::from_le_bytes(version);
    if version != VERSION {
        return Err(CheckpointError::UnsupportedVersion(version));
    }
    let mut len = [0u8; 8];
    file.read_exact(&mut len)?;
    let body_len = usize::try_from(u64::from_le_bytes(len))
        .map_err(|_| CheckpointError::Corrupt("body length overflows".into()))?;
    // The length field precedes the checksummed region, so bound it by
    // what the file actually holds before allocating: a corrupted
    // length must surface as Corrupt, not as a giant allocation.
    let mut rest = Vec::new();
    file.read_to_end(&mut rest)?;
    if body_len.checked_add(8) != Some(rest.len()) {
        return Err(CheckpointError::Corrupt(format!(
            "body length {body_len} does not match file ({} bytes after the header)",
            rest.len()
        )));
    }
    let expected = u64::from_le_bytes(rest[body_len..].try_into().expect("8 bytes"));
    rest.truncate(body_len);
    let body = rest;

    let mut checksum = Checksum::new();
    checksum.update(&body);
    let found = checksum.value();
    if found != expected {
        return Err(CheckpointError::ChecksumMismatch { expected, found });
    }

    let mut r = SnapReader::new(&body);
    let raw = r.u8()?;
    let kind = CheckpointKind::from_u8(raw)
        .ok_or_else(|| CheckpointError::Corrupt(format!("unknown container kind {raw}")))?;
    let meta = CheckpointMeta::restore(&mut r)?;
    let payload = r.bytes_field()?.to_vec();
    r.finish()?;
    Ok((kind, meta, payload))
}

/// Every load of the store: the container at `path`, if the file is
/// there, of the one version the store reads, of kind `kind` and keyed
/// `expected`, has its payload handed to `restore`. Anything else that
/// is not damage is a miss (`Ok(None)`): no file, a file of another
/// version (the next save overwrites it), another kind or another key.
/// The outcome is counted into the `ckpt.*` registry family — `Ok(Some)`
/// a hit, `Ok(None)` a miss, `Err` a damaged container (saves count
/// through [`note_save`]).
///
/// # Errors
///
/// Damaged files: bad magic, truncation, a checksum that does not hold,
/// a malformed container body, and whatever `restore` finds.
fn load_keyed<T>(
    path: &Path,
    kind: CheckpointKind,
    expected: &CheckpointMeta,
    restore: impl FnOnce(Vec<u8>) -> Result<T, CheckpointError>,
) -> Result<Option<T>, CheckpointError> {
    let loaded = match retry_transient(|| read_checkpoint(path)) {
        Ok((found, meta, payload)) if found == kind && meta == *expected => {
            restore(payload).map(Some)
        }
        Ok(_) | Err(CheckpointError::UnsupportedVersion(_)) => Ok(None),
        Err(CheckpointError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    };
    match &loaded {
        Ok(Some(_)) => trrip_obs::counter!("ckpt.hit").incr(),
        Ok(None) => trrip_obs::counter!("ckpt.miss").incr(),
        Err(_) => trrip_obs::counter!("ckpt.corrupt").incr(),
    }
    loaded
}

fn note_save() {
    trrip_obs::counter!("ckpt.save").incr();
}

/// A directory of warmed-state checkpoints, keyed by workload name,
/// layout, policy, fast-forward length, workload fingerprint and the
/// warmup configuration hash (see the module docs). `save` is atomic;
/// `load` verifies checksum and key and returns `Ok(None)` for a
/// missing or differently-keyed file (the caller warms up cold and
/// overwrites), surfacing only damaged files as errors. Files the store
/// did not name — an earlier version's `coord/` subdirectory, say — are
/// never read.
///
/// Every load and save feeds the `ckpt.*` counters in the `trrip-obs`
/// registry (`ckpt.hit`/`miss`/`corrupt`/`save`), so `--metrics` runs
/// report store effectiveness without the store carrying any state of
/// its own.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
}

impl CheckpointStore {
    /// A store rooted at `dir` (created lazily on first save).
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> CheckpointStore {
        CheckpointStore { dir: dir.into() }
    }

    /// The store's directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Where the fast-forward checkpoint for `(workload, config)` lives.
    #[must_use]
    pub fn path_for(&self, workload: &PreparedWorkload, config: &SimConfig) -> PathBuf {
        self.dir.join(format!(
            "{}-{}-{}-ff{}-{:016x}-{:016x}.ckpt",
            workload.spec.name,
            trace_layout(config.layout).tag(),
            config.hierarchy.l2_policy.name().to_ascii_lowercase(),
            config.fast_forward,
            workload_fingerprint(workload, config),
            warmup_config_hash(config),
        ))
    }

    /// The metadata a valid checkpoint for `(workload, config)` must
    /// carry.
    #[must_use]
    pub fn expected_meta(&self, workload: &PreparedWorkload, config: &SimConfig) -> CheckpointMeta {
        CheckpointMeta {
            benchmark: workload.spec.name.clone(),
            policy: config.hierarchy.l2_policy.name().to_owned(),
            fingerprint: workload_fingerprint(workload, config),
            config_hash: warmup_config_hash(config),
            stream_position: config.fast_forward,
        }
    }

    /// Saves `run`'s state as the fast-forward checkpoint for its
    /// workload and configuration.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    ///
    /// # Panics
    ///
    /// Panics if `run` has already started measuring — a checkpoint is
    /// a fast-forward-boundary state.
    pub fn save(&self, run: &SimRun<'_>) -> Result<PathBuf, CheckpointError> {
        assert!(!run.is_measuring(), "the checkpoint store holds fast-forward states only");
        let meta = self.expected_meta(run.workload(), run.config());
        let mut payload = SnapWriter::new();
        run.save(&mut payload);
        let path = self.path_for(run.workload(), run.config());
        write_checkpoint_kind(&path, CheckpointKind::Full, &meta, payload.bytes())?;
        note_save();
        Ok(path)
    }

    /// Loads the checkpoint for `(workload, config)` into a freshly
    /// constructed [`SimRun`], ready to [`SimRun::measure`] after the
    /// caller skips `config.fast_forward` stream instructions.
    ///
    /// Returns `Ok(None)` when no file exists, or the file is of another
    /// format version or belongs to a different key (stale fingerprint,
    /// other machine configuration).
    ///
    /// # Errors
    ///
    /// Damaged files: bad magic, truncation, checksum or
    /// snapshot-payload corruption.
    pub fn load<'w>(
        &self,
        workload: &'w PreparedWorkload,
        config: &SimConfig,
    ) -> Result<Option<SimRun<'w>>, CheckpointError> {
        let path = self.path_for(workload, config);
        let expected = self.expected_meta(workload, config);
        load_keyed(&path, CheckpointKind::Full, &expected, |payload| {
            let mut run = SimRun::new(workload, config);
            let mut r = SnapReader::new(&payload);
            run.restore(&mut r)?;
            r.finish()?;
            Ok(run)
        })
    }

    /// Where the **shared prefix** of `workload`'s row of `cells` lives —
    /// one file per workload and set of page sizes, keyed by what a
    /// frontend reads and holds ([`warmup_prefix_hash`]), so every cell of
    /// the row, and of any row with the same page sizes, resolves the same
    /// prefix.
    ///
    /// # Panics
    ///
    /// Panics if `cells` is empty.
    #[must_use]
    pub fn prefix_path(&self, workload: &PreparedWorkload, cells: &[SimConfig]) -> PathBuf {
        let config = &cells[0];
        self.dir.join(format!(
            "{}-{}-shared-ff{}-{:016x}-{:016x}.ckpt",
            workload.spec.name,
            trace_layout(config.layout).tag(),
            config.fast_forward,
            workload_fingerprint(workload, config),
            warmup_prefix_hash(cells),
        ))
    }

    /// The metadata a valid shared prefix must carry. The policy field
    /// holds `"*"` — the prefix belongs to every cell.
    ///
    /// # Panics
    ///
    /// Panics if `cells` is empty.
    #[must_use]
    pub fn expected_prefix_meta(
        &self,
        workload: &PreparedWorkload,
        cells: &[SimConfig],
    ) -> CheckpointMeta {
        let config = &cells[0];
        CheckpointMeta {
            benchmark: workload.spec.name.clone(),
            policy: "*".to_owned(),
            fingerprint: workload_fingerprint(workload, config),
            config_hash: warmup_prefix_hash(cells),
            stream_position: config.fast_forward,
        }
    }

    /// Saves `prefix` — a workload's policy-agnostic boundary state, in
    /// hand as a sweep's [`crate::Frontend`] for the row of `cells`
    /// leaves it ([`crate::Frontend::take_shared_warmup`]) — as that
    /// row's shared prefix.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn save_prefix(
        &self,
        workload: &PreparedWorkload,
        cells: &[SimConfig],
        prefix: &SharedWarmup,
    ) -> Result<PathBuf, CheckpointError> {
        let path = self.prefix_path(workload, cells);
        let meta = self.expected_prefix_meta(workload, cells);
        let mut payload = prefix.shared.clone();
        let mut walker = SnapWriter::new();
        save_walker(&mut walker, &prefix.walker);
        payload.extend_from_slice(walker.bytes());
        write_checkpoint_kind(&path, CheckpointKind::SharedPrefix, &meta, &payload)?;
        note_save();
        Ok(path)
    }

    /// Loads the shared prefix of `workload`'s row of `cells`, if a valid
    /// one exists. `Ok(None)` for a missing, other-version or
    /// differently-keyed file; only damaged files are errors (the
    /// prefix is written again either way).
    ///
    /// # Errors
    ///
    /// Damaged files, as [`CheckpointStore::load`]; a payload that is not
    /// exactly a `SHRD` and a `WALK` section; and a walker section no
    /// walker over `workload`'s program could be in
    /// ([`WalkerState::check`]), naming the field.
    pub fn load_prefix(
        &self,
        workload: &PreparedWorkload,
        cells: &[SimConfig],
    ) -> Result<Option<SharedWarmup>, CheckpointError> {
        let path = self.prefix_path(workload, cells);
        let expected = self.expected_prefix_meta(workload, cells);
        load_keyed(&path, CheckpointKind::SharedPrefix, &expected, |payload| {
            SharedWarmup::load(&payload, workload)
        })
    }

    /// Where the **policy overlay** for `(workload, config)` lives —
    /// keyed like a full fast-forward checkpoint (policy included).
    #[must_use]
    pub fn overlay_path(&self, workload: &PreparedWorkload, config: &SimConfig) -> PathBuf {
        self.dir.join(format!(
            "{}-{}-{}-ff{}-ovl-{:016x}-{:016x}.ckpt",
            workload.spec.name,
            trace_layout(config.layout).tag(),
            config.hierarchy.l2_policy.name().to_ascii_lowercase(),
            config.fast_forward,
            workload_fingerprint(workload, config),
            warmup_config_hash(config),
        ))
    }

    /// Saves `run`'s policy-dependent fast-forward state as its policy's
    /// overlay ([`SimRun::save_overlay`]).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    ///
    /// # Panics
    ///
    /// Panics if `run` has started measuring.
    pub fn save_overlay(&self, run: &SimRun<'_>) -> Result<PathBuf, CheckpointError> {
        assert!(!run.is_measuring(), "overlays are fast-forward states");
        let meta = self.expected_meta(run.workload(), run.config());
        let mut payload = SnapWriter::new();
        run.save_overlay(&mut payload);
        let path = self.overlay_path(run.workload(), run.config());
        write_checkpoint_kind(&path, CheckpointKind::PolicyOverlay, &meta, payload.bytes())?;
        note_save();
        Ok(path)
    }

    /// Loads the overlay for `(workload, config)` into `run`, a cell
    /// ([`SimRun::cell`]). The overlay is the policy-dependent half of
    /// the boundary state; a sweep's cell gets the other half, the
    /// predictor, from its frontend. Returns `Ok(false)` for a missing or
    /// differently-keyed file.
    ///
    /// On a mid-restore error — a damaged payload that nonetheless
    /// passed the container checksum, which keying makes essentially
    /// unreachable — `run` may be left half-written: the caller must
    /// build a fresh one before warming it instead.
    ///
    /// # Errors
    ///
    /// Damaged files, as [`CheckpointStore::load`], plus overlay
    /// payloads whose shape does not match the run's machine.
    ///
    /// # Panics
    ///
    /// Panics if an overlay loads into a run that pulls its own stream
    /// ([`SimRun::restore_overlay`]).
    pub fn load_overlay_into(&self, run: &mut SimRun<'_>) -> Result<bool, CheckpointError> {
        let path = self.overlay_path(run.workload(), run.config());
        let expected = self.expected_meta(run.workload(), run.config());
        let loaded = load_keyed(&path, CheckpointKind::PolicyOverlay, &expected, |payload| {
            let mut r = SnapReader::new(&payload);
            run.restore_overlay(&mut r)?;
            Ok(r.finish()?)
        })?;
        Ok(loaded.is_some())
    }

    /// Where the **training profile** of `spec`, trained for
    /// `train_instructions`, lives — one file per workload and training
    /// length, keyed by the whole spec ([`spec_fingerprint`]): the
    /// program and the training walk are functions of nothing else.
    #[must_use]
    pub fn profile_path(&self, spec: &WorkloadSpec, train_instructions: u64) -> PathBuf {
        self.dir.join(format!(
            "{}-profile-train{train_instructions}-{:016x}.ckpt",
            spec.name,
            spec_fingerprint(spec),
        ))
    }

    /// The metadata a valid training profile must carry. The policy
    /// field holds `"*"` and the configuration hash 0 — no machine shapes
    /// a profile — and the stream position is the training length.
    fn expected_profile_meta(spec: &WorkloadSpec, train_instructions: u64) -> CheckpointMeta {
        CheckpointMeta {
            benchmark: spec.name.clone(),
            policy: "*".to_owned(),
            fingerprint: spec_fingerprint(spec),
            config_hash: 0,
            stream_position: train_instructions,
        }
    }

    /// Saves `profile` as the training profile of `(spec,
    /// train_instructions)`.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn save_profile(
        &self,
        spec: &WorkloadSpec,
        train_instructions: u64,
        profile: &Profile,
    ) -> Result<PathBuf, CheckpointError> {
        let path = self.profile_path(spec, train_instructions);
        let meta = CheckpointStore::expected_profile_meta(spec, train_instructions);
        let mut payload = SnapWriter::new();
        save_profile_section(&mut payload, profile);
        write_checkpoint_kind(&path, CheckpointKind::Profile, &meta, payload.bytes())?;
        note_save();
        Ok(path)
    }

    /// Loads the training profile of `(spec, train_instructions)`, read
    /// into the shape of `program` — `spec`'s program. `Ok(None)` for a
    /// missing, other-version or differently-keyed file.
    ///
    /// # Errors
    ///
    /// Damaged files, as [`CheckpointStore::load`], and a payload that is
    /// not exactly one `PROF` section shaped like `program`, naming the
    /// function that differs.
    pub fn load_profile(
        &self,
        spec: &WorkloadSpec,
        program: &Program,
        train_instructions: u64,
    ) -> Result<Option<Profile>, CheckpointError> {
        let path = self.profile_path(spec, train_instructions);
        let expected = CheckpointStore::expected_profile_meta(spec, train_instructions);
        load_keyed(&path, CheckpointKind::Profile, &expected, |payload| {
            Ok(restore_profile(&payload, program)?)
        })
    }
}

/// One workload's policy-agnostic warm prefix, as a
/// [`CheckpointKind::SharedPrefix`] container holds it: the `SHRD`
/// section — the branch predictor and the stream views at the
/// fast-forward boundary — and the walker's position there. Shared
/// across every cell of the workload's row.
#[derive(Debug, Clone)]
pub struct SharedWarmup {
    /// The `SHRD` section, as raw bytes.
    shared: Vec<u8>,
    /// Where the walker stands at the boundary: what it would hand out
    /// next is instruction `fast_forward`.
    pub walker: WalkerState,
}

impl SharedWarmup {
    /// A prefix from a `SHRD` section's bytes and the walker's position.
    pub(crate) fn new(shared: Vec<u8>, walker: WalkerState) -> SharedWarmup {
        SharedWarmup { shared, walker }
    }

    /// The `SHRD` section's bytes.
    pub(crate) fn shared(&self) -> &[u8] {
        &self.shared
    }

    /// A prefix container's payload, its walker section checked against
    /// `workload`'s program.
    fn load(payload: &[u8], workload: &PreparedWorkload) -> Result<SharedWarmup, CheckpointError> {
        let mut r = SnapReader::new(payload);
        let _ = r.section(b"SHRD")?; // its contents are for `Frontend::resume` to read
        let shared = payload[..payload.len() - r.remaining()].to_vec();
        let walker = restore_walker(&mut r)?;
        r.finish()?;
        walker
            .check(&workload.program, &workload.spec)
            .map_err(|e| CheckpointError::Corrupt(format!("walker section: {e}")))?;
        Ok(SharedWarmup { shared, walker })
    }
}

// ---- the `PROF` section ----
//
// prof := n:usize (blocks:usize count:u64×blocks)×n

fn save_profile_section(w: &mut SnapWriter, profile: &Profile) {
    w.section(b"PROF", |w| {
        w.usize(profile.counts().len());
        for counts in profile.counts() {
            w.usize(counts.len());
            counts.iter().for_each(|&count| w.u64(count));
        }
    });
}

/// Reads a profile payload into the shape of `program`: every length in
/// it is checked against the program's before anything is read under
/// it, so nothing is allocated from what the file claims, and a profile
/// of another program is a mismatch naming the function.
fn restore_profile(payload: &[u8], program: &Program) -> Result<Profile, SnapError> {
    let mut r = SnapReader::new(payload);
    let mut s = r.section(b"PROF")?;
    let mut profile = Profile::zeroed(program);
    s.expect_len("profile functions", program.functions.len())?;
    for (fid, function) in program.functions.iter().enumerate() {
        s.expect_len(&format!("profile function {fid} blocks"), function.blocks.len())?;
        for block in 0..function.blocks.len() {
            profile.set(fid, block, s.u64()?);
        }
    }
    s.finish()?;
    r.finish()?;
    Ok(profile)
}

// ---- the `WALK` section ----
//
// walk  := rng:u64×4 n:usize instr×n n:usize frame×n n:usize fid:usize×n
//          rotation_pos:usize next_top:opt n:usize (fid:usize block:usize
//          cursor:u64)×n n:usize addr:u64×n cold_ring_pos:usize
//          blocks_in_invocation:u64
// instr := pc:u64 branch:(0 | 1+kind taken:bool target:u64)
//          mem:(0 | 1+store addr:u64) stall:(0 | 1+class cycles:u8)
// frame := fid:usize block:usize (0 | 1 successor:opt term_slot:opt)
//          return_pc:opt
// opt   := absent:false | present:true value:u64

/// Branch kinds by their code in a walker section, less one.
const BRANCH_KINDS: [BranchKind; 6] = [
    BranchKind::Conditional,
    BranchKind::Direct,
    BranchKind::Indirect,
    BranchKind::Call,
    BranchKind::IndirectCall,
    BranchKind::Return,
];

fn save_walker(w: &mut SnapWriter, state: &WalkerState) {
    let opt = |w: &mut SnapWriter, value: Option<u64>| {
        w.bool(value.is_some());
        value.into_iter().for_each(|v| w.u64(v));
    };
    // Every code is the variant's position in its list, plus one.
    let code = |position: Option<usize>| 1 + position.expect("a listed variant") as u8;
    w.section(b"WALK", |w| {
        state.rng.iter().for_each(|&word| w.u64(word));
        w.usize(state.pending.len());
        for instr in &state.pending {
            w.u64(instr.pc.raw());
            let kind = instr.branch.map(|b| BRANCH_KINDS.iter().position(|&k| k == b.kind));
            w.u8(kind.map_or(0, code));
            if let Some(b) = instr.branch {
                w.bool(b.taken);
                w.u64(b.target.raw());
            }
            w.u8(instr.mem.map_or(0, |m| 1 + u8::from(m.store)));
            instr.mem.into_iter().for_each(|m| w.u64(m.addr.raw()));
            let class = instr.exec_stall.map(|(c, _)| StallClass::ALL.iter().position(|&k| k == c));
            w.u8(class.map_or(0, code));
            instr.exec_stall.into_iter().for_each(|(_, cycles)| w.u8(cycles));
        }
        w.usize(state.frames.len());
        for frame in &state.frames {
            w.usize(frame.fid);
            w.usize(frame.block);
            match frame.phase {
                Phase::Body => w.u8(0),
                Phase::AfterCall { successor, term_slot } => {
                    w.u8(1);
                    opt(w, successor.map(|block| block as u64));
                    opt(w, term_slot.map(u64::from));
                }
            }
            opt(w, frame.return_pc.map(VirtAddr::raw));
        }
        w.usize(state.rotation.len());
        state.rotation.iter().for_each(|&fid| w.usize(fid));
        w.usize(state.rotation_pos);
        opt(w, state.next_top.map(|fid| fid as u64));
        w.usize(state.scan_cursors.len());
        for &((fid, block), cursor) in &state.scan_cursors {
            w.usize(fid);
            w.usize(block);
            w.u64(cursor);
        }
        w.usize(state.cold_ring.len());
        state.cold_ring.iter().for_each(|&addr| w.u64(addr));
        w.usize(state.cold_ring_pos);
        w.u64(u64::from(state.blocks_in_invocation));
    });
}

/// Reads a `WALK` section. Its shape only: whether a walker over some
/// program could be in the state is [`WalkerState::check`]'s to say. No
/// length is believed beyond the bytes left to hold it, so nothing is
/// allocated past the section's size.
fn restore_walker(r: &mut SnapReader<'_>) -> Result<WalkerState, SnapError> {
    let corrupt = |field: &str, value: u64| SnapError::Corrupt(format!("{field}: {value}"));
    let count = |r: &mut SnapReader<'_>, field: &str| {
        let n = r.usize()?;
        if n > r.remaining() {
            return Err(corrupt(field, n as u64));
        }
        Ok(n)
    };
    let opt = |r: &mut SnapReader<'_>| r.bool()?.then(|| r.u64()).transpose();
    fn listed<T: Copy>(list: &[T], code: u8, field: &str) -> Result<T, SnapError> {
        let listed = list.get(usize::from(code) - 1).copied();
        listed.ok_or_else(|| SnapError::Corrupt(format!("{field}: {code}")))
    }
    let u32_of = |v: u64, field| u32::try_from(v).map_err(|_| corrupt(field, v));
    let instr = |r: &mut SnapReader<'_>| -> Result<TraceInstr, SnapError> {
        let pc = VirtAddr::new(r.u64()?);
        let branch = match r.u8()? {
            0 => None,
            code => Some(BranchInfo {
                kind: listed(&BRANCH_KINDS, code, "pending branch kind")?,
                taken: r.bool()?,
                target: VirtAddr::new(r.u64()?),
            }),
        };
        let mem = match r.u8()? {
            0 => None,
            code @ 1..=2 => Some(MemOp { store: code == 2, addr: VirtAddr::new(r.u64()?) }),
            code => return Err(corrupt("pending memory operand", code.into())),
        };
        let exec_stall = match r.u8()? {
            0 => None,
            code => Some((listed(&StallClass::ALL, code, "pending stall class")?, r.u8()?)),
        };
        Ok(TraceInstr { pc, branch, mem, exec_stall })
    };
    let frame = |r: &mut SnapReader<'_>| -> Result<Frame, SnapError> {
        let (fid, block) = (r.usize()?, r.usize()?);
        let phase = match r.u8()? {
            0 => Phase::Body,
            1 => Phase::AfterCall {
                successor: opt(r)?.map(|block| block as usize),
                term_slot: opt(r)?.map(|slot| u32_of(slot, "frame term_slot")).transpose()?,
            },
            code => return Err(corrupt("frame phase", code.into())),
        };
        Ok(Frame { fid, block, phase, return_pc: opt(r)?.map(VirtAddr::new) })
    };

    let mut s = r.section(b"WALK")?;
    let rng = [s.u64()?, s.u64()?, s.u64()?, s.u64()?];
    let n = count(&mut s, "pending")?;
    let pending = (0..n).map(|_| instr(&mut s)).collect::<Result<_, _>>()?;
    let n = count(&mut s, "frames")?;
    let frames = (0..n).map(|_| frame(&mut s)).collect::<Result<_, _>>()?;
    let n = count(&mut s, "rotation")?;
    let rotation = (0..n).map(|_| s.usize()).collect::<Result<_, _>>()?;
    let rotation_pos = s.usize()?;
    let next_top = opt(&mut s)?.map(|fid| fid as usize);
    let n = count(&mut s, "scan_cursors")?;
    let scan_cursors = (0..n)
        .map(|_| -> Result<_, SnapError> { Ok(((s.usize()?, s.usize()?), s.u64()?)) })
        .collect::<Result<_, _>>()?;
    let n = count(&mut s, "cold_ring")?;
    let cold_ring = (0..n).map(|_| s.u64()).collect::<Result<_, _>>()?;
    let cold_ring_pos = s.usize()?;
    let blocks_in_invocation = u32_of(s.u64()?, "blocks_in_invocation")?;
    s.finish()?;
    Ok(WalkerState {
        rng,
        pending,
        frames,
        rotation,
        rotation_pos,
        next_top,
        scan_cursors,
        cold_ring,
        cold_ring_pos,
        blocks_in_invocation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use trrip_policies::PolicyKind;

    type Flip = fn(&mut SimConfig);

    /// Every field the keys read moves the machine key when flipped
    /// alone; only the layout, the fast-forward length and — through
    /// the stream view it picks — the page size move the prefix key;
    /// the fields they leave out move neither. Both keys of
    /// the paper machine are pinned, so a write reordered (and with it
    /// every store file name) fails too.
    #[test]
    fn every_hashed_field_moves_its_key_and_no_other_does() {
        let base = SimConfig::paper(PolicyKind::Srrip);
        let row = |config: &SimConfig| warmup_prefix_hash(std::slice::from_ref(config));
        assert_eq!(warmup_config_hash(&base), 0x37b2_b070_bc02_4236);
        assert_eq!(row(&base), PREFIX_KEY);

        let frontend: [(&str, Flip); 2] = [
            ("layout", |c| c.layout = LayoutKind::SourceOrder),
            ("fast_forward", |c| c.fast_forward += 1),
        ];
        let memory_system: [(&str, Flip); 4] = [
            ("l2.size_bytes", |c| c.hierarchy.l2.size_bytes *= 2),
            ("l2.ways", |c| c.hierarchy.l2.ways *= 2),
            ("l2_policy", |c| c.hierarchy.l2_policy = PolicyKind::Lru),
            // Temperatures, which each cell reads from its own image.
            ("overlap", |c| c.overlap = OverlapPolicy::Hottest),
        ];
        let neither: [(&str, Flip); 5] = [
            ("classifier", |c| c.classifier.percentile_hot = 0.5),
            ("instructions", |c| c.instructions += 1),
            ("train_instructions", |c| c.train_instructions += 1),
            ("measure_reuse", |c| c.measure_reuse = !c.measure_reuse),
            ("track_costly", |c| c.track_costly = !c.track_costly),
        ];

        let moved = |flip: &dyn Fn(&mut SimConfig)| {
            let mut config = base.clone();
            flip(&mut config);
            (warmup_config_hash(&config) != warmup_config_hash(&base), row(&config) != row(&base))
        };
        for (field, flip) in frontend {
            assert_eq!(moved(&flip), (true, true), "{field}");
        }
        assert_eq!(moved(&|c| c.page_size = PageSize::Size16K), (true, true), "page_size");
        for (field, flip) in memory_system {
            assert_eq!(moved(&flip), (true, false), "{field}");
        }
        for (field, flip) in neither {
            assert_eq!(moved(&flip), (false, false), "{field}");
        }
    }

    /// The paper machine's prefix key: one stream view, of 4 kB pages.
    const PREFIX_KEY: u64 = 0x77fa_6d7b_e05c_1c61;

    /// A row's prefix key is its page sizes as a set: however many cells
    /// share one and in whatever order, and whatever else they differ in.
    #[test]
    fn a_prefix_key_is_its_rows_page_sizes() {
        let base = SimConfig::paper(PolicyKind::Srrip);
        let sized = |page_size, overlap, policy| SimConfig {
            page_size,
            overlap,
            ..base.clone().with_policy(policy)
        };
        let (small, large) = (PageSize::Size4K, PageSize::Size16K);
        let one = [base.clone()];
        let ablation = [
            sized(small, OverlapPolicy::DropMixed, PolicyKind::Srrip),
            sized(large, OverlapPolicy::FirstByte, PolicyKind::Trrip1),
            sized(small, OverlapPolicy::FirstByte, PolicyKind::Trrip1),
            sized(large, OverlapPolicy::DropMixed, PolicyKind::Srrip),
        ];
        let reversed: Vec<SimConfig> = ablation.iter().rev().cloned().collect();
        let policies = [
            sized(small, OverlapPolicy::Hottest, PolicyKind::Lru),
            sized(small, OverlapPolicy::FirstByte, PolicyKind::Clip),
        ];
        assert_eq!(warmup_prefix_hash(&policies), warmup_prefix_hash(&one));
        assert_eq!(warmup_prefix_hash(&reversed), warmup_prefix_hash(&ablation));
        assert_ne!(warmup_prefix_hash(&ablation), warmup_prefix_hash(&one));
        assert_ne!(warmup_prefix_hash(&ablation[1..2]), warmup_prefix_hash(&one));
        assert_eq!(view_page_sizes(&ablation), [small, large]);
    }

    fn transient(kind: std::io::ErrorKind) -> CheckpointError {
        CheckpointError::Io(std::io::Error::from(kind))
    }

    #[test]
    fn transient_errors_retry_bounded_and_count() {
        let before = trrip_obs::snapshot();

        // Recovers after two transient failures; each retry counts.
        let mut calls = 0;
        let result = retry_transient(|| {
            calls += 1;
            if calls < 3 {
                Err(transient(std::io::ErrorKind::Interrupted))
            } else {
                Ok(calls)
            }
        });
        assert_eq!(result.expect("third attempt succeeds"), 3);
        assert_eq!(trrip_obs::snapshot().since(&before).get("ckpt.retry"), 2);

        // Exhaustion: a persistently transient failure surfaces after
        // exactly RETRY_ATTEMPTS tries.
        let mut calls = 0;
        let result: Result<(), _> = retry_transient(|| {
            calls += 1;
            Err(transient(std::io::ErrorKind::TimedOut))
        });
        assert!(is_transient(&result.expect_err("must exhaust")));
        assert_eq!(calls, RETRY_ATTEMPTS);
    }

    #[test]
    fn non_transient_errors_never_retry() {
        for error in [
            CheckpointError::BadMagic,
            CheckpointError::Corrupt("x".into()),
            transient(std::io::ErrorKind::NotFound),
            transient(std::io::ErrorKind::PermissionDenied),
        ] {
            assert!(!is_transient(&error), "{error} must not be retried");
        }
        let mut calls = 0;
        let result: Result<(), _> = retry_transient(|| {
            calls += 1;
            Err(CheckpointError::BadMagic)
        });
        assert!(matches!(result.expect_err("surfaces"), CheckpointError::BadMagic));
        assert_eq!(calls, 1, "non-transient errors surface on the first attempt");
    }

    // ---- the walker section is on-disk input ----

    fn tiny_workload() -> PreparedWorkload {
        let mut spec = trrip_workloads::WorkloadSpec::named("walk-section");
        spec.functions = 50;
        spec.hot_rotation = 8;
        PreparedWorkload::prepare(&spec, 100_000, trrip_core::ClassifierConfig::llvm_defaults())
    }

    /// A walker's state a few batches in, some of the last batch unread.
    fn some_state(workload: &PreparedWorkload) -> WalkerState {
        use trrip_trace::TraceSource;
        let config = SimConfig::quick(trrip_policies::PolicyKind::Srrip);
        let mut walker = crate::capture::eval_walker(workload, &config);
        let mut pulled = Vec::new();
        for _ in 0..3 {
            walker.next_batch(&mut pulled);
        }
        walker.state(&pulled[2_500..])
    }

    /// A prefix payload: an empty predictor section and `walker`'s.
    fn payload_of(walker: &WalkerState) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.section(b"SHRD", |_| {});
        save_walker(&mut w, walker);
        w.into_bytes()
    }

    #[test]
    fn a_walker_section_out_of_range_is_damage_naming_the_field() {
        let workload = tiny_workload();
        let functions = workload.program.functions.len();
        let good = some_state(&workload);
        let loaded = SharedWarmup::load(&payload_of(&good), &workload).expect("a valid section");
        assert_eq!(loaded.walker, good, "the section round-trips");

        // Each case damages one field; `n` is the program's function count.
        fn frame(fid: usize, block: usize, phase: Phase) -> Vec<Frame> {
            vec![Frame { fid, block, phase, return_pc: None }]
        }
        const FAR: Phase = Phase::AfterCall { successor: Some(1 << 20), term_slot: None };
        type Damage = fn(&mut WalkerState, usize);
        let cases: [(&str, Damage); 9] = [
            ("frames: frame 0", |s, n| s.frames = frame(n, 0, Phase::Body)),
            ("frames: frame 0", |s, _| s.frames = frame(0, 1 << 20, Phase::Body)),
            ("frames: frame 0", |s, _| s.frames = frame(0, 0, FAR)),
            ("rotation: ", |s, n| s.rotation[0] = n),
            ("rotation_pos", |s, _| s.rotation_pos = s.rotation.len()),
            ("cold_ring: 4097", |s, _| s.cold_ring = vec![0; 4_097]),
            ("cold_ring_pos", |s, _| s.cold_ring_pos = s.cold_ring.len() + 1),
            ("pending", |s, _| s.pending = vec![s.pending[0]; 1 << 16]),
            ("next_top", |s, n| s.next_top = Some(n)),
        ];
        for (field, damage) in cases {
            let mut bad = good.clone();
            damage(&mut bad, functions);
            let error = SharedWarmup::load(&payload_of(&bad), &workload)
                .expect_err("a state no walker of the program is in");
            assert!(error.to_string().contains(field), "{field}: {error}");
        }
    }

    /// Every byte of a valid walker section flipped in turn: the section
    /// loads, or is an error — it never panics.
    #[test]
    fn a_flipped_walker_section_is_an_error_never_a_panic() {
        let workload = tiny_workload();
        let pristine = payload_of(&some_state(&workload));
        let path =
            std::env::temp_dir().join(format!("trrip-walker-section-{}.bin", std::process::id()));
        let mut errors = 0;
        for offset in 0..pristine.len() {
            trrip_snap::corrupt::plant_file(&path, &pristine);
            trrip_snap::corrupt::flip_byte(&path, offset, 0xFF);
            let damaged = std::fs::read(&path).expect("read back");
            errors += usize::from(SharedWarmup::load(&damaged, &workload).is_err());
        }
        assert!(errors > pristine.len() / 2, "{errors} of {} flips caught", pristine.len());
        std::fs::remove_file(&path).ok();
    }

    // ---- so is a training profile ----

    /// A saved profile's file, flipped at every byte and cut at every
    /// length in turn: the store loads it, misses, or reports damage — it
    /// never panics, and never hands back a profile that is not the one
    /// saved. Its payload, read against the program alone with the
    /// container's checksum out of the way, fails on every flip and every
    /// cut.
    #[test]
    fn a_damaged_profile_is_an_error_never_a_panic() {
        let workload = tiny_workload();
        let (spec, program) = (&workload.spec, &workload.program);
        let dir = std::env::temp_dir().join(format!("trrip-profile-damage-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = CheckpointStore::new(&dir);
        let path = store.save_profile(spec, 100_000, &workload.profile).expect("save");
        let pristine = std::fs::read(&path).expect("read back");
        let loaded = store.load_profile(spec, program, 100_000).expect("loads").expect("on file");
        assert_eq!(loaded, workload.profile, "the profile round-trips");

        for offset in 0..pristine.len() {
            trrip_snap::corrupt::plant_file(&path, &pristine);
            trrip_snap::corrupt::flip_byte(&path, offset, 0xFF);
            let loaded = store.load_profile(spec, program, 100_000);
            assert!(!matches!(loaded, Ok(Some(_))), "a flip at {offset} loaded a profile");
        }
        for cut in 0..pristine.len() {
            trrip_snap::corrupt::plant_file(&path, &pristine);
            trrip_snap::corrupt::truncate_file(&path, cut);
            assert!(store.load_profile(spec, program, 100_000).is_err(), "a {cut}-byte cut");
        }

        let mut w = SnapWriter::new();
        save_profile_section(&mut w, &workload.profile);
        let payload = w.into_bytes();
        let mut errors = 0;
        for offset in 0..payload.len() {
            let mut damaged = payload.clone();
            damaged[offset] ^= 0xFF;
            errors += usize::from(restore_profile(&damaged, program).is_err());
        }
        assert_eq!(errors, payload.len(), "flips of the payload caught");
        for cut in 0..payload.len() {
            assert!(restore_profile(&payload[..cut], program).is_err(), "a {cut}-byte cut");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A profile shaped for another program — or one whose counts claim
    /// what no program has — is a mismatch naming what differs, refused
    /// before anything is allocated from it.
    #[test]
    fn a_profile_of_another_shape_is_refused_by_name() {
        let workload = tiny_workload();
        let program = &workload.program;
        let section = |body: &dyn Fn(&mut SnapWriter)| {
            let mut w = SnapWriter::new();
            w.section(b"PROF", body);
            w.into_bytes()
        };
        let error = |payload: Vec<u8>| restore_profile(&payload, program).unwrap_err().to_string();

        let all = error(section(&|w| w.u64(u64::MAX)));
        assert!(all.contains("profile functions") && all.contains(&u64::MAX.to_string()), "{all}");
        let first = error(section(&|w| {
            w.usize(program.functions.len());
            w.u64(u64::MAX);
        }));
        assert!(first.contains("profile function 0 blocks"), "{first}");

        // Another program's profile: one block more in function 3.
        let mut other = program.clone();
        other.functions[3].blocks.push(trrip_compiler::BasicBlock::ret(32));
        let mut w = SnapWriter::new();
        save_profile_section(&mut w, &Profile::zeroed(&other));
        let third = error(w.into_bytes());
        assert!(third.contains("profile function 3 blocks"), "{third}");
    }
}
