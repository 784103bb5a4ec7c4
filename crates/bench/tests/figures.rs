//! What the figures promise of themselves, checked from outside:
//! a figure whose points are cells of one row makes **one** sweep, a
//! figure whose rows are one cell each runs them through **one**
//! `simulate_rows` call (both read off the source, in the shape of
//! `benchmark/tests/denylist.rs`), and a
//! `--bench` selection that leaves a figure nothing to plot is a
//! command-line error, not a report of empty tables. Progress goes
//! through one path, so `--quiet` mutes all of it.

use std::path::Path;
use std::process::Command;

/// The sweep calls `source` names: the harness's two entry points and
/// the simulator's one beneath them.
fn sweep_calls(source: &str) -> usize {
    [".sweep(", ".sweep_cells(", "policy_sweep_with("]
        .iter()
        .map(|call| source.matches(call).count())
        .sum()
}

#[test]
fn one_stream_figures_make_one_sweep() {
    let figures = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/figures");
    for figure in ["fig9_cache_sensitivity.rs", "overlap_ablation.rs"] {
        let source =
            std::fs::read_to_string(figures.join(figure)).expect("read the figure's source");
        assert_eq!(sweep_calls(&source), 1, "{figure} must walk each workload once");
    }
    assert_eq!(sweep_calls("a.sweep(x); b.sweep_cells(y)"), 2, "the count counts");
}

#[test]
fn one_cell_rows_run_through_one_helper() {
    let figures = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/figures");
    for figure in [
        "fig1_topdown_system.rs",
        "fig2_topdown_proxy.rs",
        "fig3_reuse_distance.rs",
        "fig7_costly_coverage.rs",
    ] {
        let source =
            std::fs::read_to_string(figures.join(figure)).expect("read the figure's source");
        assert_eq!(source.matches("simulate_rows(").count(), 1, "{figure}: one call for its rows");
        for own in ["parallel_map_with", "simulate(", "simulate,"] {
            assert!(!source.contains(own), "{figure} runs its rows by hand: `{own}`");
        }
    }
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
