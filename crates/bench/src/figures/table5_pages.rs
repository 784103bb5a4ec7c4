//! Table 5: hot/warm pages used at 4 kB, 16 kB and 2 MB page sizes, plus
//! binary size — and the §4.9 mixed-page counts that motivate the
//! overlap-prevention mechanisms.

use trrip_analysis::TextTable;
use trrip_mem::PageSize;
use trrip_os::{Loader, OverlapPolicy};
use trrip_policies::PolicyKind;

use crate::{claims, Claim, Figure, HarnessOptions, Paper, Plan, Report, Results};

/// Table 5, written to `table5_pages.txt`; it simulates nothing.
pub const FIGURE: Figure = Figure { name: "table5_pages", plan, render, claims: &CLAIMS };

/// Hot and warm pages fall about 4x from 4 kB to 16 kB pages, and a
/// larger share of pages mixes temperatures at 2 MB than at 4 kB (in
/// points).
const CLAIMS: [Claim; 2] = [
    Claim::new("table5.pages_4kb_over_16kb", Paper::Value(4.0)),
    Claim::new("table5.mixed_2mb_gain", Paper::Positive),
];

fn human(bytes: u64) -> String {
    if bytes >= 1 << 20 {
        format!("{:.1}M", bytes as f64 / (1 << 20) as f64)
    } else {
        format!("{}K", bytes >> 10)
    }
}

fn plan(options: &HarnessOptions) -> Result<Plan, String> {
    let config = options.sim_config(PolicyKind::Trrip1);
    let prepare = options.selected_proxies().into_iter().map(|s| (s, config.clone())).collect();
    Ok(Plan { prepare, simulate: Vec::new() })
}

fn render(results: &Results) -> Report {
    let config = results.options.sim_config(PolicyKind::Trrip1);

    let mut table = TextTable::new(vec![
        "benchmark",
        "4kB pages",
        "16kB pages",
        "2MB pages",
        "mixed(4k/16k/2M)",
        "binary size",
    ]);
    // Per page size, over the benchmarks: hot + warm, mixed and all pages.
    let mut sums = [[0u64; 3]; 3];
    for spec in results.options.selected_proxies() {
        let w = results.workload(&spec, &config);
        let mut cells = vec![w.spec.name.clone()];
        let mut mixed = Vec::new();
        for (i, size) in PageSize::ALL.into_iter().enumerate() {
            // FirstByte shows the raw hot/warm page counts per the paper's
            // "rounded up to the nearest full page" accounting.
            let image =
                Loader::new(size).with_overlap_policy(OverlapPolicy::FirstByte).load(&w.pgo_object);
            let stats = &image.stats;
            let [h, m, a] = sums[i];
            sums[i] = [h + stats.hot + stats.warm, m + stats.mixed, a + stats.total()];
            cells.push(format!("{}/{}", stats.hot, stats.warm));
            mixed.push(stats.mixed.to_string());
        }
        cells.push(mixed.join("/"));
        cells.push(human(w.pgo_object.binary_size));
        table.row(cells);
    }
    let share = |[_, mixed, all]: [u64; 3]| mixed as f64 / all.max(1) as f64 * 100.0;
    let values = [sums[0][0] as f64 / sums[1][0].max(1) as f64, share(sums[2]) - share(sums[0])];
    let file = format!("{table}\n{}", table.to_csv());
    Report { file, claims: claims(&CLAIMS, values.map(Some)) }
}
