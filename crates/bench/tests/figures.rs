//! What the figures promise of themselves, checked from outside and,
//! where it can be, on their plans alone, without simulating: a figure
//! whose points are cells of one row per workload makes one sweep group
//! per workload, a figure whose rows are one cell each is rows of one
//! point, the paper's twelve plans share their points, every figure's
//! claim ids are pinned and unique, a `--bench` selection that leaves a
//! figure nothing to plot is a command-line error, a report that cannot
//! be written fails its figure and not the process, and `--quiet` mutes
//! all progress.

use std::path::{Path, PathBuf};
use std::process::Command;

use trrip_bench::figures::*;
use trrip_bench::{regenerate, stream_groups, Figure, HarnessOptions, Plan};

/// The options of a command line selecting `benches`, writing under `out`.
fn selecting(benches: &[&str], out: &Path) -> HarnessOptions {
    let benchmarks = benches.iter().map(|b| (*b).to_owned()).collect();
    HarnessOptions { benchmarks, out_dir: out.to_owned(), ..HarnessOptions::default() }
}

fn plan(figure: &Figure, options: &HarnessOptions) -> Plan {
    (figure.plan)(options).unwrap_or_else(|e| panic!("{}: {e}", figure.name))
}

/// A scratch directory of this test process, emptied.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("trrip-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create the scratch directory");
    dir
}

#[test]
fn one_stream_figures_make_one_sweep() {
    let options = selecting(&["gcc", "sqlite"], Path::new("unused"));
    for (figure, cells) in [(fig9_cache_sensitivity::FIGURE, 16), (overlap_ablation::FIGURE, 18)] {
        let plan = plan(&figure, &options);
        let groups = stream_groups(&plan.simulate);
        let sizes: Vec<usize> = groups.iter().map(Vec::len).collect();
        assert_eq!(sizes, [cells, cells], "{}: one stream group per workload", figure.name);
        assert_eq!(groups[0][0].0.name, "gcc");
        assert_eq!(groups[1][0].0.name, "sqlite");
    }
}

#[test]
fn one_cell_rows_run_through_one_helper() {
    let options = selecting(&["gcc", "sqlite"], Path::new("unused"));
    for (figure, rows) in [
        (fig1_topdown_system::FIGURE, 5),
        (fig2_topdown_proxy::FIGURE, 4),
        (fig3_reuse_distance::FIGURE, 2),
        (fig7_costly_coverage::FIGURE, 2),
    ] {
        let plan = plan(&figure, &options);
        let groups = stream_groups(&plan.simulate);
        assert_eq!(groups.len(), rows, "{}", figure.name);
        assert!(groups.iter().all(|g| g.len() == 1), "{}: rows of one point", figure.name);
    }
}

/// Figure 6's nine cells are Table 3's, four of Figure 9's sixteen and
/// Figure 8's 99% pair; Figure 9's 8-way pair is its own 128 kB pair.
/// Before plans, `all_experiments` shared only Table 3's nine with
/// Figure 6 (35 sweep cells at `--bench gcc`); the union shares them all.
#[test]
fn the_paper_at_gcc_sweeps_29_distinct_points() {
    let options = selecting(&["gcc"], Path::new("unused"));
    let plans: Vec<Plan> = PAPER.iter().map(|f| plan(f, &options)).collect();
    let swept = |points: Vec<&trrip_bench::Point>| -> usize {
        stream_groups(points).iter().filter(|g| g.len() > 1).map(Vec::len).sum()
    };
    let each: Vec<(&str, usize)> = PAPER
        .iter()
        .zip(&plans)
        .map(|(f, p)| (f.name, swept(p.simulate.iter().collect())))
        .filter(|(_, n)| *n > 0)
        .collect();
    assert_eq!(
        each,
        [
            ("fig6_speedup", 9),
            ("table3_mpki", 9),
            ("fig8_hot_threshold", 10),
            ("fig9_cache_sensitivity", 16)
        ]
    );
    assert_eq!(swept(plans.iter().flat_map(|p| &p.simulate).collect()), 29);
}

#[test]
fn claim_ids_are_pinned_and_unique() {
    let pinned: [(&Figure, &[&str]); 13] = [
        (&table1_config::FIGURE, &[]),
        (&table2_benchmarks::FIGURE, &[]),
        (&fig1_topdown_system::FIGURE, &["fig1.frontend_pct_min"]),
        (&fig2_topdown_proxy::FIGURE, &["fig2.pgo_retire_gain_min", "fig2.pgo_ifetch_pct_min"]),
        (&fig3_reuse_distance::FIGURE, &["fig3.tail_past_8_pct_min", "fig3.hot_only_0_4_gain_min"]),
        (
            &fig6_speedup::FIGURE,
            &[
                "fig6.speedup.lru",
                "fig6.speedup.brrip",
                "fig6.speedup.drrip",
                "fig6.speedup.ship",
                "fig6.speedup.clip",
                "fig6.speedup.emissary",
                "fig6.speedup.trrip-1",
                "fig6.speedup.trrip-2",
            ],
        ),
        (&table3_mpki::FIGURE, &[]), // below: two per proxy, eight reductions, one data minimum
        (
            &table4_power_area::FIGURE,
            &[
                "table4.static_power.trrip",
                "table4.area.trrip",
                "table4.static_power.clip",
                "table4.area.clip",
                "table4.static_power.emissary",
                "table4.area.emissary",
                "table4.static_power.ship",
                "table4.area.ship",
            ],
        ),
        (&fig7_costly_coverage::FIGURE, &["fig7.compiled_coverage_gain_max"]),
        (
            &fig8_hot_threshold::FIGURE,
            &["fig8.hot_growth_past_99_min", "fig8.speedup_99_over_100_min"],
        ),
        (
            &fig9_cache_sensitivity::FIGURE,
            &["fig9.trrip1_lost_to_512kb", "fig9.trrip1_won_to_16_ways"],
        ),
        (&table5_pages::FIGURE, &["table5.pages_4kb_over_16kb", "table5.mixed_2mb_gain"]),
        (&overlap_ablation::FIGURE, &["overlap.padded_mixed_2mb", "overlap.dropmixed_min"]),
    ];
    let mut table3: Vec<String> = trrip_workloads::proxy::all()
        .into_iter()
        .flat_map(|p| {
            [format!("table3.inst_mpki.{}", p.name), format!("table3.data_mpki.{}", p.name)]
        })
        .collect();
    table3.extend(
        ["lru", "brrip", "drrip", "ship", "clip", "emissary", "trrip-1", "trrip-2"]
            .map(|m| format!("table3.inst_mpki_reduction.{m}")),
    );
    table3.push("table3.data_mpki_reduction_min.trrip-1".to_owned());
    let mut all = Vec::new();
    for (figure, ids) in pinned {
        let declared: Vec<&str> = figure.claims.iter().map(|c| c.id).collect();
        if figure.name == "table3_mpki" {
            assert_eq!(declared, table3);
        } else {
            assert_eq!(declared, ids, "{}", figure.name);
        }
        let prefix = figure.name.split('_').next().expect("a name");
        assert!(declared.iter().all(|id| id.starts_with(&format!("{prefix}."))), "{declared:?}");
        all.extend(declared);
    }
    assert_eq!(pinned.map(|(f, _)| f.name)[..12], PAPER.map(|f| f.name), "the paper's twelve");
    let count = all.len();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), count, "claim ids are unique");
    // The two geomeans CI reads from `all_experiments --bench gcc`.
    assert!(all.contains(&"fig6.speedup.trrip-1"));
    assert!(all.contains(&"table3.inst_mpki_reduction.trrip-1"));
}

#[test]
fn fig8_refuses_a_selection_outside_its_six_benchmarks() {
    let out = std::env::temp_dir().join(format!("trrip-fig8-selection-{}", std::process::id()));
    let run = Command::new(env!("CARGO_BIN_EXE_fig8_hot_threshold"))
        .args(["--bench", "clang", "--quiet", "--out"])
        .arg(&out)
        .output()
        .expect("spawn fig8_hot_threshold");
    assert_eq!(run.status.code(), Some(2), "a command-line error, as an unknown benchmark is");
    let stderr = String::from_utf8_lossy(&run.stderr);
    for plotted in ["abseil", "deepsjeng", "gcc", "omnetpp", "rapidjson", "sqlite"] {
        assert!(stderr.contains(plotted), "the error names {plotted}: {stderr}");
    }
    assert!(!out.join("fig8_hot_threshold.txt").exists(), "no report of empty tables");
}

/// A figure binary whose report path is taken by a directory says so and
/// exits 1; it does not panic.
#[test]
fn a_binary_whose_report_cannot_be_written_exits_1_naming_it() {
    let out = scratch("unwritable-table4");
    std::fs::create_dir(out.join("table4_power_area.txt")).expect("a directory in the way");
    let run = Command::new(env!("CARGO_BIN_EXE_table4_power_area"))
        .args(["--quiet", "--out"])
        .arg(&out)
        .output()
        .expect("spawn table4_power_area");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("table4_power_area.txt") && !stderr.contains("panicked"), "{stderr}");
    std::fs::remove_dir_all(&out).ok();
}

/// The same for the telemetry report: a figure binary run with
/// `--metrics` whose `obs_report.json` path is taken by a directory
/// writes its own report, then says so and exits 1; it does not panic.
#[test]
fn a_binary_whose_obs_report_cannot_be_written_exits_1_naming_it() {
    let out = scratch("unwritable-obs-table4");
    std::fs::create_dir(out.join("obs_report.json")).expect("a directory in the way");
    let run = Command::new(env!("CARGO_BIN_EXE_table4_power_area"))
        .args(["--metrics", "--quiet", "--out"])
        .arg(&out)
        .output()
        .expect("spawn table4_power_area");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("obs_report.json") && !stderr.contains("panicked"), "{stderr}");
    assert!(out.join("table4_power_area.txt").is_file(), "the figure's report is written");
    std::fs::remove_dir_all(&out).ok();
}

/// What `all_experiments` runs: a report that cannot be written fails
/// its figure alone, and every other figure writes its report.
#[test]
fn a_report_that_cannot_be_written_fails_its_figure_not_the_run() {
    let out = scratch("unwritable-table2");
    std::fs::create_dir(out.join("table2_benchmarks.txt")).expect("a directory in the way");
    let options = selecting(&[], &out);
    let figures = [table1_config::FIGURE, table2_benchmarks::FIGURE, table4_power_area::FIGURE];
    assert_eq!(regenerate(&options, &figures), ["table2_benchmarks"]);
    for written in ["table1_config.txt", "table4_power_area.txt"] {
        assert!(out.join(written).is_file(), "{written} is written");
    }
    std::fs::remove_dir_all(&out).ok();
}

/// Every progress line — preparing, sweeping, the report written — is
/// `--quiet`'s to mute: a quiet run that succeeds says nothing on stderr.
#[test]
fn a_quiet_figure_leaves_stderr_empty() {
    let out = std::env::temp_dir().join(format!("trrip-quiet-table3-{}", std::process::id()));
    let run = Command::new(env!("CARGO_BIN_EXE_table3_mpki"))
        .args(["--bench", "gcc", "--jobs", "2", "--quiet", "--out"])
        .arg(&out)
        .output()
        .expect("spawn table3_mpki");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(run.status.success(), "table3_mpki exited {}: {stderr}", run.status);
    assert_eq!(stderr, "", "--quiet leaves stderr empty");
    assert!(out.join("table3_mpki.txt").exists(), "the report is still written");
    std::fs::remove_dir_all(&out).ok();
}
