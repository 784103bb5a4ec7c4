//! Qualitative paper-claim tests: the directional results the paper
//! stakes its contribution on, checked at a reduced (CI-friendly) scale.
//! Each bound is a claim's band, declared beside the paper's value in the
//! figure that computes it. A test runs its figures through `regenerate`,
//! as `all_experiments` does, and reads back the `claims.tsv` written
//! under `--out` (columns `id paper reproduced band status`): each
//! claim it names must carry a band and must not be `out_of_band`.
//! Figure 6 and Table 3 run once on the three-proxy subset, for the
//! three tests that read them; Figure 8 runs on gcc.

use std::path::PathBuf;
use std::sync::OnceLock;

use trrip_bench::figures::{fig6_speedup, fig8_hot_threshold, table3_mpki};
use trrip_bench::{regenerate, Figure, HarnessOptions, CLAIMS_TSV_HEADER};

/// One row of `claims.tsv`: its fields after the id, by name.
#[derive(Debug)]
struct Row {
    reproduced: String,
    band: String,
    status: String,
}

/// `figures` regenerated over `benches` into a scratch `--out`, and the
/// rows of the `claims.tsv` they write, by id.
fn regenerated(name: &str, benches: &[&str], figures: &[Figure]) -> Vec<(String, Row)> {
    let out: PathBuf =
        std::env::temp_dir().join(format!("trrip-paper-claims-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&out).ok();
    let options = HarnessOptions {
        benchmarks: benches.iter().map(|b| (*b).to_owned()).collect(),
        out_dir: out.clone(),
        quiet: true,
        ..HarnessOptions::default()
    };
    options.apply_observability().expect("no journal to open");
    assert_eq!(regenerate(&options, figures), Vec::<&str>::new(), "every figure written");
    let tsv = std::fs::read_to_string(out.join("claims.tsv")).expect("claims.tsv under --out");
    std::fs::remove_dir_all(&out).ok();
    let mut lines = tsv.lines();
    assert_eq!(lines.next(), Some(CLAIMS_TSV_HEADER));
    lines
        .map(|line| {
            let fields: Vec<&str> = line.split('\t').collect();
            let [id, _paper, reproduced, band, status] = fields[..] else {
                panic!("a row of five fields: {line:?}")
            };
            let row =
                Row { reproduced: reproduced.into(), band: band.into(), status: status.into() };
            (id.to_owned(), row)
        })
        .collect()
}

/// A reduced benchmark subset that exercises the headline behaviours
/// without taking minutes: one code-heavy, one balanced, one data-heavy.
fn subset_claims() -> &'static [(String, Row)] {
    static ROWS: OnceLock<Vec<(String, Row)>> = OnceLock::new();
    ROWS.get_or_init(|| {
        regenerated(
            "subset",
            &["gcc", "sqlite", "abseil"],
            &[fig6_speedup::FIGURE, table3_mpki::FIGURE],
        )
    })
}

/// Each of `ids` is a row of `rows`, held to a band, and inside it.
fn assert_in_band(rows: &[(String, Row)], ids: &[&str]) {
    for id in ids {
        let (_, row) = rows.iter().find(|(i, _)| i == id).unwrap_or_else(|| panic!("no {id} row"));
        assert_ne!(row.band, "none", "{id} is held to a band");
        assert_ne!(row.status, "out_of_band", "{id} reads {} outside {}", row.reproduced, row.band);
    }
}

#[test]
fn trrip_reduces_instruction_mpki_and_speeds_up() {
    // Paper: +3.9% speedup, 26.5% MPKI reduction (geomean over 10).
    assert_in_band(
        subset_claims(),
        &["fig6.speedup.trrip-1", "table3.inst_mpki_reduction.trrip-1"],
    );
}

#[test]
fn trrip_trades_small_data_mpki_increase() {
    // §4.4: instruction MPKI drops at the cost of a *slight* data MPKI
    // increase — the profitable trade. The row is the least reduction
    // over the benchmarks.
    assert_in_band(subset_claims(), &["table3.data_mpki_reduction_min.trrip-1"]);
}

#[test]
fn brrip_and_ship_underperform_srrip() {
    // Figure 6: BRRIP and SHiP lose to the SRRIP baseline on these
    // workloads.
    assert_in_band(subset_claims(), &["fig6.speedup.brrip", "fig6.speedup.ship"]);
}

#[test]
fn selectivity_beats_prioritizing_everything() {
    // §4.7: percentile_hot = 100% (every executed line hot ≈ CLIP)
    // should not beat the selective default on a pressure-heavy workload.
    let rows = regenerated("fig8", &["gcc"], &[fig8_hot_threshold::FIGURE]);
    assert_in_band(&rows, &["fig8.speedup_99_over_100_min"]);
}
