//! What a crash leaves: the checkpoint store publishes by temp + rename,
//! so a sweep killed between a flush and its rename leaves whole files or
//! none, a container torn before its rename is rejected by its checksum,
//! and the next sweep over the same directory restores exactly what was
//! published, reports exactly what was damaged, heals it, and is
//! bit-identical — all nine policies — to `simulate` of each cell alone. The torn-write seam itself (`ckpt.save.partial`, between flush
//! and rename), which the other suites only imitate by damaging files
//! after they were published.
//!
//! The sweeps that crash or tear run in children: this test binary
//! re-invoked with `--exact child_entry` and [`CHILD_VAR`] naming the
//! child's directory. [`child_entry`] is a no-op in a normal run. Faults
//! are armed only through `TRRIP_FAULTS` in a child's environment; the
//! parent never arms the process-global fault table.
//!
//! One real `#[test]` on purpose: the parent's counters and journal are
//! process-wide.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

use trrip_core::ClassifierConfig;
use trrip_obs::json::Json;
use trrip_policies::PolicyKind;
use trrip_sim::{
    policy_cells, policy_sweep_with, simulate, CheckpointStore, PreparedWorkload, SimConfig,
    SimResult, SweepResult,
};
use trrip_workloads::WorkloadSpec;

const CELLS: usize = PolicyKind::PAPER_SET.len();
const ROWS: [&str; 2] = ["crash-test-a", "crash-test-b"];
/// Cells of the whole sweep.
const SWEEP: u64 = (ROWS.len() * CELLS) as u64;

/// Set, to the directory it is to work in, only in a child.
const CHILD_VAR: &str = "TRRIP_CRASH_CHILD";

/// The save the killed child dies in. On one thread a cold sweep saves a
/// row's prefix, then its nine overlays: the child publishes row 0's
/// prefix and its first `KILL_AT - 2` overlays.
const KILL_AT: usize = 5;

fn workloads() -> Vec<PreparedWorkload> {
    ROWS.iter()
        .map(|name| {
            let mut spec = WorkloadSpec::named(name);
            spec.functions = 50;
            spec.hot_rotation = 8;
            PreparedWorkload::prepare(&spec, 100_000, ClassifierConfig::llvm_defaults())
        })
        .collect()
}

fn config() -> SimConfig {
    let mut c = SimConfig::quick(PolicyKind::Srrip);
    c.fast_forward = 20_000;
    c.instructions = 60_000;
    c
}

fn cells() -> Vec<SimConfig> {
    policy_cells(&config(), &PolicyKind::PAPER_SET)
}

fn store(root: &Path) -> CheckpointStore {
    CheckpointStore::new(root.join("ckpts"))
}

/// The child: a cold sweep over `$TRRIP_CRASH_CHILD`'s store on one
/// thread, so that the order of its saves is fixed.
#[test]
fn child_entry() {
    let Some(root) = std::env::var_os(CHILD_VAR).map(PathBuf::from) else { return };
    trrip_obs::journal_init(&root.join("child.jsonl"), 100_000).expect("journal");
    trrip_obs::set_quiet(true);
    let _ = policy_sweep_with(1, &workloads(), &cells(), Some(&store(&root)));
    trrip_obs::journal_close();
}

/// Spawns a child over a fresh store under `root`, `faults` armed. The
/// checkpoint directory carries a stray `coord/` of an earlier version.
fn spawn_child(root: &Path, faults: &str) -> Child {
    let stray = root.join("ckpts/coord/claims");
    std::fs::create_dir_all(&stray).expect("scratch dirs");
    std::fs::write(stray.join("x.claim"), "w0 1 0\n").expect("stray claim");
    Command::new(std::env::current_exe().expect("current test binary"))
        .args(["--exact", "child_entry", "--nocapture", "--test-threads", "1"])
        .env(CHILD_VAR, root)
        .env(trrip_obs::fault::ENV_VAR, faults)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn child")
}

fn str_of<'a>(event: &'a Json, key: &str) -> &'a str {
    event.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("{key} of {event:?}"))
}

/// What one sweep of the parent's journalled and moved.
struct Seen {
    journal: trrip_obs::JournalRead,
    moved: trrip_obs::CounterSnapshot,
}

impl Seen {
    /// Runs a sweep over `root`'s store under a journal of its own.
    fn sweep(root: &Path, pass: &str, workloads: &[PreparedWorkload]) -> (SweepResult, Seen) {
        let path = root.join(format!("{pass}.jsonl"));
        trrip_obs::journal_init(&path, 100_000).expect("journal");
        let before = trrip_obs::snapshot();
        let sweep = policy_sweep_with(2, workloads, &cells(), Some(&store(root)));
        let moved = trrip_obs::snapshot().since(&before);
        trrip_obs::journal_close();
        let journal = trrip_obs::read_journal(&path).expect("read the journal back");
        (sweep, Seen { journal, moved })
    }

    /// `(benchmark, policy)` of every cell that took `route`, sorted.
    fn took(&self, route: &str) -> Vec<(String, String)> {
        let of_route = self.journal.of_kind("warm_start").filter(|e| str_of(e, "route") == route);
        let mut cells: Vec<_> = of_route
            .map(|e| (str_of(e, "benchmark").to_owned(), str_of(e, "policy").to_owned()))
            .collect();
        cells.sort();
        cells
    }

    /// `(benchmark, source, start)` per producer, in benchmark order.
    fn producers(&self) -> Vec<(&str, &str, u64)> {
        let mut opened: Vec<_> = self
            .journal
            .of_kind("producer_opened")
            .map(|e| {
                let start = e.get("start").and_then(Json::as_u64).expect("start");
                (str_of(e, "benchmark"), str_of(e, "source"), start)
            })
            .collect();
        opened.sort_unstable();
        opened
    }

    /// `(what, benchmark, policy)` of every `artifact_damaged`.
    fn damaged(&self) -> Vec<(&str, &str, &str)> {
        let events = self.journal.of_kind("artifact_damaged");
        events.map(|e| (str_of(e, "what"), str_of(e, "benchmark"), str_of(e, "policy"))).collect()
    }

    /// `group` of every `cell_started`, sorted.
    fn groups(&self) -> Vec<u64> {
        let started = self.journal.of_kind("cell_started");
        let mut groups: Vec<_> =
            started.map(|e| e.get("group").and_then(Json::as_u64).expect("group")).collect();
        groups.sort_unstable();
        groups
    }

    /// `[overlay_restore, tail_replay, recorded_warmup]`.
    fn warm(&self) -> [u64; 3] {
        ["overlay_restore", "tail_replay", "recorded_warmup"]
            .map(|route| self.moved.get(&format!("warm.{route}")))
    }
}

/// Every cell, workload-major, under its display names.
fn cells_of(rows: &[&str], policies: &[PolicyKind]) -> Vec<(String, String)> {
    let mut cells: Vec<_> = rows
        .iter()
        .flat_map(|row| policies.iter().map(|p| ((*row).to_owned(), p.name().to_owned())))
        .collect();
    cells.sort();
    cells
}

fn assert_sweep(sweep: &SweepResult, oracle: &[SimResult], what: &str) {
    assert_eq!(sweep.results.len(), oracle.len(), "{what}");
    for (a, b) in sweep.results.iter().zip(oracle) {
        let what = format!("{what}: {} / {}", b.benchmark, b.policy);
        assert_eq!((&a.benchmark, a.policy), (&b.benchmark, b.policy), "{what}");
        assert_eq!(a.core, b.core, "{what}: core results diverge");
        assert_eq!((a.l1i, a.l1d, a.l2, a.slc), (b.l1i, b.l1d, b.l2, b.slc), "{what}: caches");
        assert_eq!(a.tlb, b.tlb, "{what}: TLB stats diverge");
        assert_eq!(a.pages, b.pages, "{what}: page stats diverge");
    }
}

/// File names in `dir` (subdirectories left out) that contain `needle`.
fn files_with(dir: &Path, needle: &str) -> Vec<String> {
    let entries = std::fs::read_dir(dir).expect("a store's directory");
    let files = entries.map(|e| e.expect("a directory entry")).filter(|e| e.path().is_file());
    let names = files.map(|e| e.file_name().to_string_lossy().into_owned());
    names.filter(|name| name.contains(needle)).collect()
}

/// A sweep over a whole store: every cell restores, nothing warms,
/// nothing is damaged, each producer a walker resumed at the boundary.
fn assert_restores_everything(root: &Path, workloads: &[PreparedWorkload], oracle: &[SimResult]) {
    let (sweep, seen) = Seen::sweep(root, "healed", workloads);
    assert_sweep(&sweep, oracle, "over the healed stores");
    assert_eq!(seen.warm(), [SWEEP, 0, 0]);
    assert!(seen.damaged().is_empty(), "healed: {:?}", seen.damaged());
    let boundary = config().fast_forward;
    assert_eq!(seen.producers(), ROWS.map(|row| (row, "walker", boundary)));
}

#[test]
fn a_killed_or_torn_sweep_leaves_stores_the_next_sweep_restores_from_and_heals() {
    let root = std::env::temp_dir().join(format!("trrip-crash-stores-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let (killed, bad_prefix, bad_overlay) =
        (root.join("killed"), root.join("bad-prefix"), root.join("bad-overlay"));
    // One clause a child: a fault point holds one armed action.
    let mut children = [
        spawn_child(&killed, &format!("ckpt.save.partial=kill@{KILL_AT}")),
        spawn_child(&bad_prefix, "ckpt.save.partial=corrupt"),
        spawn_child(&bad_overlay, "ckpt.save.partial=truncate:9@2"),
    ];

    // Meanwhile, the reference: each cell alone over a walker of its own.
    let (workloads, config) = (workloads(), config());
    let cell = |policy| config.clone().with_policy(policy);
    let oracle: Vec<SimResult> = workloads
        .iter()
        .flat_map(|w| PolicyKind::PAPER_SET.map(|p| simulate(w, &cell(p))))
        .collect();
    let codes = children.each_mut().map(|child| child.wait().expect("wait").code());
    assert_eq!(codes, [Some(trrip_obs::fault::KILL_EXIT_CODE), Some(0), Some(0)]);
    for dir in [&killed, &bad_prefix, &bad_overlay] {
        let fired = trrip_obs::read_journal(&dir.join("child.jsonl")).expect("child's journal");
        assert_eq!(fired.of_kind("fault_fired").count(), 1, "{}", dir.display());
    }
    let a = &workloads[0];

    // ---- (a) killed between a flush and its rename ----
    // Whole files or none: the prefix and the overlays saved before the
    // fatal one, its temp file beside them, and nothing else.
    let ckpts = store(&killed);
    let published = &PolicyKind::PAPER_SET[..KILL_AT - 2];
    assert_eq!(files_with(ckpts.dir(), ".ckpt").len(), KILL_AT - 1);
    assert_eq!(files_with(ckpts.dir(), ".tmp.").len(), 1);
    assert!(ckpts.prefix_path(a, std::slice::from_ref(&config)).is_file());
    let held: Vec<_> = PolicyKind::PAPER_SET
        .into_iter()
        .filter(|&p| ckpts.overlay_path(a, &cell(p)).is_file())
        .collect();
    assert_eq!(held, published);
    assert!(!killed.join("traces").exists(), "a sweep writes no capture");
    // The next sweep restores what was published, warms the rest, walks
    // both rows from the first instruction, and never reads the temp
    // file.
    let (sweep, seen) = Seen::sweep(&killed, "next", &workloads);
    assert_sweep(&sweep, &oracle, "after the kill");
    assert_eq!(seen.took("overlay_restore"), cells_of(&ROWS[..1], published));
    let mut warmed = cells_of(&ROWS[..1], &PolicyKind::PAPER_SET[KILL_AT - 2..]);
    warmed.extend(cells_of(&ROWS[1..], &PolicyKind::PAPER_SET));
    assert_eq!(seen.took("tail_replay"), warmed);
    assert_eq!(seen.warm()[2], 1, "row 0's prefix loads; row 1's is written");
    assert_eq!(seen.producers(), ROWS.map(|row| (row, "walker", 0)));
    assert!(seen.damaged().is_empty(), "a temp file is never read: {:?}", seen.damaged());
    assert_restores_everything(&killed, &workloads, &oracle);

    // ---- (b) a prefix published torn ----
    // Row 0's prefix is reported and written again under a frontend that
    // starts at the first instruction; every overlay still restores.
    let ckpts = store(&bad_prefix);
    let prefix = ckpts.prefix_path(a, std::slice::from_ref(&config));
    let torn = std::fs::read(&prefix).expect("the prefix was published");
    let (sweep, seen) = Seen::sweep(&bad_prefix, "next", &workloads);
    assert_sweep(&sweep, &oracle, "over a torn prefix");
    assert_eq!(seen.damaged(), [("shared prefix", ROWS[0], "*")]);
    assert_eq!(
        seen.producers(),
        [(ROWS[0], "walker", 0), (ROWS[1], "walker", config.fast_forward)]
    );
    assert_eq!(seen.warm(), [SWEEP, 0, 1]);
    assert!(std::fs::read(&prefix).expect("the prefix") != torn, "written again");
    assert_restores_everything(&bad_prefix, &workloads, &oracle);

    // ---- (b) an overlay published torn ----
    // By name the store is whole, but the torn overlay does not load, so
    // it is a missing one: row 0's producer starts at the first
    // instruction, its cell warms up in lockstep with the eight that
    // restore and let the warm-up go by, and rewrites its file.
    let ckpts = store(&bad_overlay);
    let overlay = ckpts.overlay_path(a, &cell(PolicyKind::PAPER_SET[0]));
    let torn = std::fs::read(&overlay).expect("the overlay was published");
    let (sweep, seen) = Seen::sweep(&bad_overlay, "next", &workloads);
    assert_sweep(&sweep, &oracle, "over a torn overlay");
    assert_eq!(seen.damaged(), [("policy overlay", ROWS[0], PolicyKind::PAPER_SET[0].name())]);
    assert_eq!(
        seen.producers(),
        [(ROWS[0], "walker", 0), (ROWS[1], "walker", config.fast_forward)]
    );
    assert_eq!(seen.took("tail_replay"), cells_of(&ROWS[..1], &PolicyKind::PAPER_SET[..1]));
    assert_eq!(seen.warm(), [SWEEP - 1, 1, 0]);
    // Two workers, a row each, every cell of it in one lockstep group.
    assert_eq!(seen.groups(), [CELLS as u64; 2 * CELLS]);
    assert_eq!(std::fs::read(&overlay).expect("the overlay").len(), torn.len() + 9);
    assert_restores_everything(&bad_overlay, &workloads, &oracle);

    std::fs::remove_dir_all(&root).ok();
}
