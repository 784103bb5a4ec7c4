//! Multi-process sweeps ≡ single-process sweeps, bit for bit — even
//! when workers are SIGKILLed holding a row, heartbeats stall, claims
//! are reclaimed, and checkpoint/fragment writes are torn by the fault
//! harness — and a worker pays for a row what the one executor does:
//! one stream, every cell in lockstep.
//!
//! Worker processes are spawned by re-invoking this test binary with
//! `--exact worker_entry` and a `TRRIP_DIST_ROLE=worker` environment:
//! [`worker_entry`] is a no-op in a normal test run and becomes a real
//! coordinated worker in a child. Workloads and configs are rebuilt
//! deterministically from fixed specs in every process, so only
//! directories, ids, timing knobs, and fault specs cross the process
//! boundary. Faults are armed purely through `TRRIP_FAULTS` in child
//! environments — the parent process never arms the (process-global)
//! fault table, so parallel tests in this binary cannot interfere. For
//! the same reason every count is read from a child: it journals what
//! its one `coordinate_worker` call moved (`worker_counters`), where no
//! sibling test shares the process-wide counters.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use trrip_core::ClassifierConfig;
use trrip_obs::json::Json;
use trrip_policies::PolicyKind;
use trrip_sim::{
    capture_length, collect_results, coordinate_worker, replay_sweep, simulate_source,
    CheckpointStore, PreparedWorkload, SimConfig, SimResult, SweepResult, TraceStore,
    WorkerOptions,
};
use trrip_trace::StreamingReplay;
use trrip_workloads::WorkloadSpec;

/// Every policy the simulator can run, including the non-paper Random
/// baseline (whose RNG stream is part of the architectural state).
const ALL_POLICIES: [PolicyKind; 10] = [
    PolicyKind::Srrip,
    PolicyKind::Lru,
    PolicyKind::Random,
    PolicyKind::Brrip,
    PolicyKind::Drrip,
    PolicyKind::Ship,
    PolicyKind::Clip,
    PolicyKind::Emissary,
    PolicyKind::Trrip1,
    PolicyKind::Trrip2,
];
const CELLS: u64 = ALL_POLICIES.len() as u64;

/// Two rows, so that a sweep has something to split.
const ROWS: [&str; 2] = ["dist-test-a", "dist-test-b"];

fn quick_workloads() -> Vec<PreparedWorkload> {
    ROWS.iter()
        .map(|name| {
            let mut spec = WorkloadSpec::named(name);
            spec.functions = 50;
            spec.hot_rotation = 8;
            PreparedWorkload::prepare(&spec, 400_000, ClassifierConfig::llvm_defaults())
        })
        .collect()
}

fn quick_config(policy: PolicyKind) -> SimConfig {
    let mut c = SimConfig::quick(policy);
    c.fast_forward = 20_000;
    c.instructions = 60_000;
    c
}

fn assert_identical(a: &SimResult, b: &SimResult, what: &str) {
    let what = format!("{what}: {} / {}", b.benchmark, b.policy);
    assert_eq!((&a.benchmark, a.policy), (&b.benchmark, b.policy), "{what}");
    assert_eq!(a.core, b.core, "{what}: core results diverge");
    assert_eq!(a.l1i, b.l1i, "{what}: L1-I stats diverge");
    assert_eq!(a.l1d, b.l1d, "{what}: L1-D stats diverge");
    assert_eq!(a.l2, b.l2, "{what}: L2 stats diverge");
    assert_eq!(a.slc, b.slc, "{what}: SLC stats diverge");
    assert_eq!(a.tlb, b.tlb, "{what}: TLB stats diverge");
    assert_eq!(a.pages, b.pages, "{what}: page stats diverge");
}

fn assert_sweep(sweep: &SweepResult, baseline: &SweepResult, what: &str) {
    assert_eq!(sweep.results.len(), baseline.results.len(), "{what}");
    for (got, want) in sweep.results.iter().zip(&baseline.results) {
        assert_identical(got, want, what);
    }
}

fn scratch_root(name: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("trrip-dist-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    std::fs::create_dir_all(&root).expect("scratch root");
    root
}

fn worker_journal(root: &Path, id: u32) -> PathBuf {
    root.join("obs").join(format!("worker-{id}.jsonl"))
}

fn policy_list(policies: &[PolicyKind]) -> String {
    policies.iter().map(|p| p.name().to_ascii_lowercase()).collect::<Vec<_>>().join(",")
}

/// Spawns a worker child against `root` (traces + checkpoints + its own
/// journal live under it). `faults` becomes the child's `TRRIP_FAULTS`.
fn spawn_worker(
    root: &Path,
    id: u32,
    policies: &[PolicyKind],
    stale_ms: u64,
    faults: Option<&str>,
) -> Child {
    let mut cmd = Command::new(std::env::current_exe().expect("current test binary"));
    cmd.args(["--exact", "worker_entry", "--nocapture", "--test-threads", "1"])
        .env("TRRIP_DIST_ROLE", "worker")
        .env("TRRIP_DIST_DIR", root)
        .env("TRRIP_DIST_WORKER_ID", id.to_string())
        .env("TRRIP_DIST_POLICIES", policy_list(policies))
        .env("TRRIP_DIST_HEARTBEAT_MS", "100")
        .env("TRRIP_DIST_STALE_MS", stale_ms.to_string())
        .env_remove("TRRIP_FAULTS")
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    if let Some(spec) = faults {
        cmd.env("TRRIP_FAULTS", spec);
    }
    cmd.spawn().expect("spawn worker")
}

/// The worker process body. Gated on the environment: a plain test run
/// sees no `TRRIP_DIST_ROLE` and returns immediately.
#[test]
fn worker_entry() {
    if std::env::var("TRRIP_DIST_ROLE").as_deref() != Ok("worker") {
        return;
    }
    let root = PathBuf::from(std::env::var("TRRIP_DIST_DIR").expect("TRRIP_DIST_DIR"));
    let id: u32 = std::env::var("TRRIP_DIST_WORKER_ID").expect("worker id").parse().expect("id");
    let policies: Vec<PolicyKind> = std::env::var("TRRIP_DIST_POLICIES")
        .expect("policies")
        .split(',')
        .map(|p| p.parse().expect("policy name"))
        .collect();
    let ms = |key: &str, default: u64| {
        std::env::var(key).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
    };

    let journal = worker_journal(&root, id);
    std::fs::create_dir_all(journal.parent().expect("obs dir")).expect("obs dir");
    trrip_obs::journal_init(&journal, 262_144).expect("journal");
    trrip_obs::set_quiet(true);

    let workloads = quick_workloads();
    let config = quick_config(PolicyKind::Srrip);
    let traces = TraceStore::new(root.join("traces"));
    let checkpoints = CheckpointStore::new(root.join("ckpts"));
    let opts = WorkerOptions {
        worker: format!("w{id}"),
        heartbeat: Duration::from_millis(ms("TRRIP_DIST_HEARTBEAT_MS", 100)),
        stale_after: Duration::from_millis(ms("TRRIP_DIST_STALE_MS", 1000)),
        poll: Duration::from_millis(30),
    };
    let before = trrip_obs::snapshot();
    let report = coordinate_worker(&workloads, &config, &policies, &traces, &checkpoints, &opts);
    let moved = trrip_obs::snapshot().since(&before);
    trrip_obs::event(
        "worker_counters",
        &[
            ("fragments", trrip_obs::Field::U64(report.fragments as u64)),
            ("digest_instrs", trrip_obs::Field::U64(moved.get("front.digest.instrs"))),
            ("turn_records", trrip_obs::Field::U64(moved.get("exec.turn_records"))),
            ("cell_records", trrip_obs::Field::U64(moved.get("exec.cell_records"))),
        ],
    );
    trrip_obs::journal_close();
}

/// Reads a worker's journal (tolerating a torn tail — killed workers
/// leave one) and returns the events of `kind`.
fn events_of_kind(root: &Path, id: u32, kind: &str) -> Vec<Json> {
    let path = worker_journal(root, id);
    if !path.exists() {
        return Vec::new();
    }
    let read = trrip_obs::read_journal(&path).expect("journal parses");
    read.of_kind(kind).cloned().collect()
}

fn field_is(event: &Json, key: &str, value: &str) -> bool {
    event.get(key).and_then(Json::as_str) == Some(value)
}

/// `[fragments, digest_instrs, turn_records, cell_records]` of a worker
/// that returned: what its `coordinate_worker` call published and moved.
fn counters_of(root: &Path, id: u32) -> [u64; 4] {
    let events = events_of_kind(root, id, "worker_counters");
    let [event] = &events[..] else { panic!("worker {id} journaled {events:?}") };
    ["fragments", "digest_instrs", "turn_records", "cell_records"]
        .map(|key| event.get(key).and_then(Json::as_u64).expect("a count"))
}

fn stores(root: &Path) -> (TraceStore, CheckpointStore) {
    (TraceStore::new(root.join("traces")), CheckpointStore::new(root.join("ckpts")))
}

/// The single-process sweep the distributed one is held to. It shares
/// the trace dir (captures are deterministic and concurrent-safe) but
/// uses its own checkpoint store, so its boundary files never warm the
/// distributed run or vice versa.
fn baseline_sweep(
    root: &Path,
    workloads: &[PreparedWorkload],
    config: &SimConfig,
    policies: &[PolicyKind],
) -> SweepResult {
    let traces = TraceStore::new(root.join("traces"));
    let checkpoints = CheckpointStore::new(root.join("ckpts-baseline"));
    replay_sweep(2, workloads, config, policies, &traces, Some(&checkpoints))
}

fn collected(
    root: &Path,
    workloads: &[PreparedWorkload],
    config: &SimConfig,
    policies: &[PolicyKind],
) -> Option<SweepResult> {
    collect_results(workloads, config, policies, &stores(root).1).expect("collect")
}

/// A worker is SIGKILLed the moment it acquires its first claim (exit
/// 137, claim left behind, no fragment), then two fresh workers race
/// for the rows concurrently, reclaim the dead worker's stale claim, and
/// the collected sweep is bit-identical to the single-process sweep —
/// for all 10 policies.
#[test]
fn killed_worker_reclamation_matches_single_process_for_all_policies() {
    let root = scratch_root("kill");
    let workloads = quick_workloads();
    let config = quick_config(PolicyKind::Srrip);
    let baseline = baseline_sweep(&root, &workloads, &config, &ALL_POLICIES);

    // Worker 0 runs alone and dies holding its first claim.
    let status = spawn_worker(&root, 0, &ALL_POLICIES, 600, Some("coord.claim.acquired=kill"))
        .wait()
        .expect("wait worker 0");
    assert_eq!(status.code(), Some(137), "worker 0 must die at the claim seam");
    assert!(
        collected(&root, &workloads, &config, &ALL_POLICIES).is_none(),
        "the sweep must be incomplete after the kill"
    );
    let acquired = events_of_kind(&root, 0, "claim_acquired");
    assert_eq!(acquired.len(), 1, "worker 0 acquired exactly one claim before dying");

    // Workers 1 and 2 race the rest concurrently; one of them must
    // reclaim the dead worker's stale claim to finish.
    let mut w1 = spawn_worker(&root, 1, &ALL_POLICIES, 600, None);
    let mut w2 = spawn_worker(&root, 2, &ALL_POLICIES, 600, None);
    assert!(w1.wait().expect("wait worker 1").success(), "worker 1 must succeed");
    assert!(w2.wait().expect("wait worker 2").success(), "worker 2 must succeed");

    let reclaimed: Vec<_> =
        [1u32, 2].iter().flat_map(|&id| events_of_kind(&root, id, "claim_reclaimed")).collect();
    assert!(
        reclaimed.iter().any(|e| field_is(e, "prev_worker", "w0")),
        "the dead worker's claim must have been reclaimed, stamped with its id: {reclaimed:?}"
    );

    let sweep = collected(&root, &workloads, &config, &ALL_POLICIES)
        .expect("sweep complete after workers 1+2");
    assert_sweep(&sweep, &baseline, "after kill+reclaim");
    std::fs::remove_dir_all(&root).ok();
}

/// A worker is SIGKILLed after its first row ran and before it
/// published a fragment of it: the row's capture, prefix and overlays
/// are in the stores, its claim is held, and no result is. The healer
/// restores what the dead worker left — it does not warm again — and
/// completes bit-identically.
#[test]
fn a_healer_restores_what_a_worker_killed_before_publishing_left() {
    let root = scratch_root("unpublished");
    let workloads = quick_workloads();
    let config = quick_config(PolicyKind::Srrip);
    let baseline = baseline_sweep(&root, &workloads, &config, &ALL_POLICIES);
    // The baseline captured both rows; the dead worker must be the one
    // that leaves row 0's capture, so that its healer is shown to read it.
    std::fs::remove_dir_all(root.join("traces")).expect("the baseline's captures");

    let status = spawn_worker(&root, 8, &ALL_POLICIES, 600, Some("coord.row.done=kill"))
        .wait()
        .expect("wait worker 8");
    assert_eq!(status.code(), Some(137), "worker 8 must die between its row and its fragments");
    assert!(events_of_kind(&root, 8, "fragment_saved").is_empty());

    assert!(spawn_worker(&root, 9, &ALL_POLICIES, 600, None).wait().expect("wait").success());
    assert!(events_of_kind(&root, 9, "claim_reclaimed").iter().any(|e| field_is(
        e,
        "prev_worker",
        "w8"
    )));
    // Row 0: one producer, a replay opened at the fast-forward boundary,
    // and ten overlay restores. Row 1, which nobody had touched: walked,
    // captured on the side, ten cells warmed.
    let opened = events_of_kind(&root, 9, "producer_opened");
    let row = |name: &str| -> Vec<&Json> {
        opened.iter().filter(|e| field_is(e, "benchmark", name)).collect()
    };
    let [dead_workers] = row(ROWS[0])[..] else { panic!("one producer a row: {opened:?}") };
    assert!(field_is(dead_workers, "source", "replay"), "{dead_workers:?}");
    assert_eq!(dead_workers.get("start").and_then(Json::as_u64), Some(config.fast_forward));
    let [untouched] = row(ROWS[1])[..] else { panic!("one producer a row: {opened:?}") };
    assert!(field_is(untouched, "source", "walker+tee"), "{untouched:?}");
    let routes = events_of_kind(&root, 9, "warm_start");
    for (name, route) in [(ROWS[0], "overlay_restore"), (ROWS[1], "tail_replay")] {
        let took = routes.iter().filter(|e| field_is(e, "benchmark", name));
        let took: Vec<_> = took.map(|e| e.get("route").and_then(Json::as_str)).collect();
        assert_eq!(took, vec![Some(route); ALL_POLICIES.len()], "{name}");
    }

    let sweep = collected(&root, &workloads, &config, &ALL_POLICIES).expect("complete");
    assert_sweep(&sweep, &baseline, "after a kill between row and fragments");
    std::fs::remove_dir_all(&root).ok();
}

/// Torn artifact writes — a checkpoint container damaged between flush
/// and rename, and a result fragment truncated the same way — are
/// detected by their checksums and healed, the torn cell alone is run
/// again, and results never change.
#[test]
fn torn_checkpoint_and_fragment_writes_heal_without_changing_results() {
    let root = scratch_root("torn");
    let workloads = quick_workloads();
    let config = quick_config(PolicyKind::Srrip);
    let policies = [PolicyKind::Srrip, PolicyKind::Trrip1, PolicyKind::Trrip2];
    let baseline = baseline_sweep(&root, &workloads, &config, &policies);

    // Worker 3 tears the first checkpoint it saves (row 0's prefix) and
    // the first fragment it publishes (row 0's first cell), reads the
    // fragment back damaged on its second pass — a worker never trusts
    // its own publish — and is killed as it claims the row again: its
    // third claim, having held one per row.
    let faults =
        "ckpt.save.partial=corrupt;coord.fragment.save=truncate:9;coord.claim.acquired=kill@3";
    let status = spawn_worker(&root, 3, &policies, 600, Some(faults)).wait().expect("wait");
    assert_eq!(status.code(), Some(137), "worker 3 must die claiming its healing pass");
    let damaged = events_of_kind(&root, 3, "artifact_damaged");
    assert!(
        damaged.iter().any(|e| field_is(e, "what", "result fragment")),
        "the torn fragment must surface as artifact_damaged: {damaged:?}"
    );
    let fired = events_of_kind(&root, 3, "fault_fired");
    assert_eq!(fired.len(), 3, "all three armed faults must have fired: {fired:?}");
    assert!(collected(&root, &workloads, &config, &policies).is_none());

    // The healer runs the one cell that has no fragment, alone — a
    // group of one — under a frontend that finds the prefix damaged,
    // digests the warm-up again and rewrites it.
    assert!(spawn_worker(&root, 10, &policies, 600, None).wait().expect("wait").success());
    let [fragments, _, turn_records, cell_records] = counters_of(&root, 10);
    assert_eq!(fragments, 1, "the torn cell alone is run again");
    assert!(turn_records > 0);
    assert_eq!(cell_records, turn_records, "…as a group of one");
    let damaged = events_of_kind(&root, 10, "artifact_damaged");
    assert!(damaged.iter().any(|e| field_is(e, "what", "shared prefix")), "{damaged:?}");

    let sweep = collected(&root, &workloads, &config, &policies).expect("sweep complete");
    assert_sweep(&sweep, &baseline, "after torn writes");
    // And the stores healed: a sweep over them restores every cell.
    let (traces, checkpoints) = stores(&root);
    let warm = replay_sweep(1, &workloads, &config, &policies, &traces, Some(&checkpoints));
    assert_sweep(&warm, &baseline, "over the healed stores");
    std::fs::remove_dir_all(&root).ok();
}

/// The reclamation race: a worker whose heartbeat stalls (delayed past
/// the staleness deadline) while it sits between its row and its
/// fragments gets its claim reclaimed by a live peer — both then publish
/// the row's fragments, the bytes are identical, and no result is lost
/// or duplicated.
#[test]
fn stalled_heartbeat_reclamation_race_loses_no_tallies() {
    let root = scratch_root("stall");
    let workloads = quick_workloads();
    let config = quick_config(PolicyKind::Srrip);
    let policies = [PolicyKind::Srrip, PolicyKind::Trrip2];
    let baseline = baseline_sweep(&root, &workloads, &config, &policies);

    // Worker 4: the first heartbeat stalls 6 s and the first row parks
    // 3 s between simulation and fragment publish — so its claim goes
    // stale (400 ms deadline) while it is genuinely still alive. Worker
    // 5 heartbeats normally and reclaims.
    let mut w4 = spawn_worker(
        &root,
        4,
        &policies,
        400,
        Some("coord.heartbeat=delay:6000;coord.row.done=delay:3000"),
    );
    let mut w5 = spawn_worker(&root, 5, &policies, 400, None);
    assert!(w4.wait().expect("wait worker 4").success(), "the stalled worker still finishes");
    assert!(w5.wait().expect("wait worker 5").success(), "the live worker must succeed");

    let reclaimed = events_of_kind(&root, 5, "claim_reclaimed");
    assert!(
        reclaimed.iter().any(|e| field_is(e, "prev_worker", "w4")),
        "worker 5 must have reclaimed the stalled worker's claim: {reclaimed:?}"
    );
    let lost = events_of_kind(&root, 4, "claim_lost");
    assert!(
        !lost.is_empty(),
        "the stalled worker must notice its claim was reclaimed out from under it"
    );
    // Both published the contested row: more fragments were written
    // than the sweep has cells, and each path holds one result.
    let published = counters_of(&root, 4)[0] + counters_of(&root, 5)[0];
    assert!(published > (ROWS.len() * policies.len()) as u64, "{published} fragments written");

    let sweep = collected(&root, &workloads, &config, &policies).expect("sweep complete");
    assert_sweep(&sweep, &baseline, "after reclamation race");
    std::fs::remove_dir_all(&root).ok();
}

/// The design as counts: a worker that runs a row of n cells reads the
/// row's stream once — one frontend digests it, once, for all of them —
/// and drives the n cells in lockstep.
#[test]
fn a_worker_runs_a_row_over_one_stream_with_its_cells_in_lockstep() {
    let root = scratch_root("counts");
    let workloads = quick_workloads();
    let config = quick_config(PolicyKind::Srrip);
    let baseline = baseline_sweep(&root, &workloads, &config, &ALL_POLICIES);

    assert!(spawn_worker(&root, 11, &ALL_POLICIES, 600, None).wait().expect("wait").success());
    let [fragments, digest_instrs, turn_records, cell_records] = counters_of(&root, 11);
    assert_eq!(fragments, ROWS.len() as u64 * CELLS, "one fragment a cell");
    assert_eq!(digest_instrs, ROWS.len() as u64 * capture_length(&config), "one stream a row");
    assert!(turn_records > 0);
    assert_eq!(cell_records, CELLS * turn_records, "every record drives the row's ten machines");

    let sweep = collected(&root, &workloads, &config, &ALL_POLICIES).expect("sweep complete");
    assert_sweep(&sweep, &baseline, "one worker, two rows");
    std::fs::remove_dir_all(&root).ok();
}

/// In-process sanity for the cooperative path itself: two workers in
/// one process (distinct worker ids, shared stores) split the rows and
/// the collected sweep matches the single-process sweep. This is the
/// cheap always-on cousin of the spawned-process tests above.
#[test]
fn two_in_process_workers_cooperate_bit_identically() {
    let root = scratch_root("coop");
    let workloads = quick_workloads();
    let config = quick_config(PolicyKind::Srrip);
    let policies = [PolicyKind::Lru, PolicyKind::Ship, PolicyKind::Emissary];
    let baseline = baseline_sweep(&root, &workloads, &config, &policies);

    let (traces, checkpoints) = stores(&root);
    let reports: Vec<_> = std::thread::scope(|scope| {
        let workers = [6u32, 7].map(|id| {
            let (workloads, traces, checkpoints) = (&workloads, &traces, &checkpoints);
            let (config, policies) = (&config, &policies);
            scope.spawn(move || {
                let mut opts = WorkerOptions::named(format!("w{id}"));
                opts.heartbeat = Duration::from_millis(100);
                opts.stale_after = Duration::from_secs(5);
                opts.poll = Duration::from_millis(20);
                coordinate_worker(workloads, config, policies, traces, checkpoints, &opts)
            })
        });
        workers.into_iter().map(|worker| worker.join().expect("worker thread")).collect()
    });
    let fragments: usize = reports.iter().map(|report| report.fragments).sum();
    assert_eq!(fragments, ROWS.len() * policies.len(), "every cell is run once: {reports:?}");

    let sweep = collected(&root, &workloads, &config, &policies).expect("sweep complete");
    assert_sweep(&sweep, &baseline, "in-process coop");
    std::fs::remove_dir_all(&root).ok();
}

/// A fragment answers the request in its name and no other: over one
/// store, a sweep of another run length, or with a profiler armed, finds
/// none of an earlier sweep's fragments and collects its own results.
/// (Fragments once were named by where a segment started and by nothing
/// that said where it ended: a 120 000-instruction sweep collected the
/// 60 000-instruction tally of the sweep before it.)
#[test]
fn a_sweep_never_collects_another_requests_fragments() {
    let root = scratch_root("stale");
    let workloads = quick_workloads();
    let policies = [PolicyKind::Srrip, PolicyKind::Trrip1];
    let (traces, checkpoints) = stores(&root);
    let opts = WorkerOptions::named("w12");

    let mut longer = quick_config(PolicyKind::Srrip);
    longer.instructions *= 2;
    let mut profiled = quick_config(PolicyKind::Srrip);
    profiled.measure_reuse = true;
    for (what, config) in
        [("60k", quick_config(PolicyKind::Srrip)), ("120k", longer), ("60k, reuse", profiled)]
    {
        assert!(collected(&root, &workloads, &config, &policies).is_none(), "{what}: before");
        let report =
            coordinate_worker(&workloads, &config, &policies, &traces, &checkpoints, &opts);
        assert_eq!(report.fragments, ROWS.len() * policies.len(), "{what}: every cell is run");
        let sweep = collected(&root, &workloads, &config, &policies).expect("complete");
        for (row, workload) in sweep.results.chunks(policies.len()).zip(&workloads) {
            for cell in row {
                let cell_config = config.clone().with_policy(cell.policy);
                let capture = traces.path_for(workload, &config);
                let replay = StreamingReplay::open(&capture).expect("the row's capture");
                let alone = simulate_source(workload, &cell_config, replay);
                assert_eq!(alone.core.instructions, config.instructions);
                assert_identical(cell, &alone, what);
                assert_eq!(cell.reuse_base, alone.reuse_base, "{what}: reuse histograms diverge");
            }
        }
    }
    std::fs::remove_dir_all(&root).ok();
}
