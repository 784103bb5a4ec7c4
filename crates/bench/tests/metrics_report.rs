//! `--metrics` on an experiment binary: `USAGE` promises a
//! schema-versioned `obs_report.json` under `--out` from *every*
//! binary, and a Chrome trace beside the journal. Driven through
//! the real `fig3_reuse_distance`, then `fig6_speedup` cold and warm, over
//! the same checkpoint store, so the report is also shown to carry what
//! explains a run: the `ckpt.*`, `warm.*` and `walk.*` deltas, and in the
//! journal one `producer_opened` per workload and one `warm_start` per
//! cell. The training profile fig3 keeps is fig6's: only the first binary
//! over a store walks the train input.

use std::path::Path;
use std::process::Command;

use trrip_obs::json::{self, Json};
use trrip_policies::PolicyKind;
use trrip_sim::SimConfig;

/// Runs `bin` over `dir`'s store at `--bench gcc`, as `pass`.
fn run(bin: &str, dir: &Path, pass: &str) -> (Json, trrip_obs::JournalRead) {
    let at = |name: &str| dir.join(name).to_str().expect("utf-8 temp path").to_owned();
    let (out, obs) = (at(&format!("out-{pass}")), at(&format!("obs-{pass}")));
    let run = Command::new(bin)
        .args(["--bench", "gcc", "--jobs", "2", "--quiet", "--metrics"])
        .args(["--checkpoint-dir", &at("ckpts")])
        .args(["--out", &out, "--obs-dir", &obs])
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(run.status.success(), "{pass}: {bin} exited {}: {stderr}", run.status);
    let text =
        std::fs::read_to_string(Path::new(&out).join("obs_report.json")).unwrap_or_else(|e| {
            panic!("{pass}: --metrics must leave obs_report.json under --out: {e}")
        });
    trrip_obs::validate_report(&text).unwrap_or_else(|e| panic!("{pass}: invalid report: {e}"));
    let journal = trrip_obs::read_journal(&Path::new(&obs).join("journal.jsonl"))
        .unwrap_or_else(|e| panic!("{pass}: journal: {e}"));
    let trace =
        std::fs::read_to_string(Path::new(&obs).join("obs_trace.json")).unwrap_or_else(|e| {
            panic!("{pass}: --metrics must leave obs_trace.json under --obs-dir: {e}")
        });
    json::parse(&trace).unwrap_or_else(|e| panic!("{pass}: the Chrome trace must parse: {e}"));
    (json::parse(&text).expect("validated above"), journal)
}

fn counter(report: &Json, name: &str) -> u64 {
    report.get("counters").and_then(|c| c.get(name)).and_then(Json::as_u64).unwrap_or(0)
}

#[test]
fn fig6_speedup_metrics_leaves_a_report_that_explains_the_sweep() {
    let dir = std::env::temp_dir().join(format!("trrip-metrics-report-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let cells = PolicyKind::PAPER_SET.len() as u64;
    let str_of = |e: &Json, key: &str| e.get(key).and_then(Json::as_str).map(str::to_owned);
    let paper = SimConfig::paper(PolicyKind::Srrip);
    // The walker hands out batches of 1 Ki: a pass walks what it reads,
    // and at most what is left of the last batch beyond it.
    let walks = |report: &Json, instrs: u64| {
        (instrs..instrs + 1024).contains(&counter(report, "walk.instrs"))
    };

    // fig3 reads no boundary from the store, but trains gcc's profile
    // there: one miss, one save.
    let (populate, _) = run(env!("CARGO_BIN_EXE_fig3_reuse_distance"), &dir, "fig3");
    assert_eq!(counter(&populate, "ckpt.miss"), 1, "the store held no profile");
    assert_eq!(counter(&populate, "ckpt.save"), 1, "the training profile is kept");

    let fig6 = env!("CARGO_BIN_EXE_fig6_speedup");
    let (cold, journal) = run(fig6, &dir, "cold");
    assert_eq!(cold.get("tool").and_then(Json::as_str), Some("fig6_speedup"));
    assert!(cold.get("phases").and_then(Json::as_arr).is_some_and(|p| !p.is_empty()));
    assert_eq!(counter(&cold, "warm.recorded_warmup"), 1, "one prefix for the one workload");
    assert_eq!(counter(&cold, "warm.tail_replay"), cells, "every cell warmed up");
    assert_eq!(counter(&cold, "trace.records_decoded"), 0, "a cold pass decodes nothing");
    assert!(counter(&cold, "ckpt.hit") >= 1, "fig3's profile is read");
    assert!(
        walks(&cold, paper.fast_forward + paper.instructions),
        "a cold pass over a kept profile walks its stream and no training run: {}",
        counter(&cold, "walk.instrs")
    );
    let opened: Vec<_> = journal.of_kind("producer_opened").collect();
    assert_eq!(opened.len(), 1, "one producer per workload");
    assert_eq!(str_of(opened[0], "source").as_deref(), Some("walker"));
    assert_eq!(opened[0].get("start").and_then(Json::as_u64), Some(0));

    let (warm, journal) = run(fig6, &dir, "warm");
    assert_eq!(counter(&warm, "warm.overlay_restore"), cells, "every cell restored");
    assert_eq!(counter(&warm, "warm.tail_replay") + counter(&warm, "warm.recorded_warmup"), 0);
    assert_eq!(counter(&warm, "trace.records_decoded") + counter(&warm, "trace.bytes_read"), 0);
    assert!(
        walks(&warm, paper.instructions),
        "the warm pass walks the measured window alone: {}",
        counter(&warm, "walk.instrs")
    );
    let opened: Vec<_> = journal.of_kind("producer_opened").collect();
    assert_eq!(opened.len(), 1);
    assert_eq!(str_of(opened[0], "source").as_deref(), Some("walker"));
    assert!(opened[0].get("start").and_then(Json::as_u64) > Some(0), "opened at the boundary");
    let routes: Vec<_> = journal.of_kind("warm_start").map(|e| str_of(e, "route")).collect();
    assert_eq!(routes.len() as u64, cells, "one warm_start per cell");
    assert!(routes.iter().all(|r| r.as_deref() == Some("overlay_restore")), "{routes:?}");

    std::fs::remove_dir_all(&dir).ok();
}
