//! What every equivalence suite checks: that two routes to a sweep's
//! results agree.

use trrip_sim::SweepResult;

/// Asserts `got == want`: the same benchmarks and cells, and every
/// result equal to its counterpart, every field of it. A failure names
/// `what` and the first cell that differs — its benchmark, index and
/// policy — and prints no result: a costly-miss tracker holds thousands
/// of lines.
pub fn assert_same_sweep(got: &SweepResult, want: &SweepResult, what: &str) {
    if got == want {
        return;
    }
    assert_eq!(got.benchmarks, want.benchmarks, "{what}: benchmarks");
    assert!(got.cells == want.cells, "{what}: the swept cells differ");
    assert_eq!(got.results.len(), want.results.len(), "{what}: result count");
    let (results, cells) = (&want.results, want.cells.len());
    let i = (0..results.len()).find(|&i| got.results[i] != results[i]).expect("a result differs");
    let (benchmark, cell, policy) = (&want.benchmarks[i / cells], i % cells, results[i].policy);
    panic!("{what}: {benchmark} / cell {cell} ({policy}) differs");
}
