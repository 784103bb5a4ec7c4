//! §4.9 ablation (no figure in the paper — it discusses this in prose):
//! how the mixed-page prevention mechanisms behave at large page sizes.
//!
//! Compares, at 4 kB / 16 kB / 2 MB pages:
//! * `FirstByte` — naive tagging (the accuracy hazard);
//! * `DropMixed` — prevention (2): mixed pages untagged;
//! * `Hottest`   — tag with the hottest overlapping section;
//! * page-aligned sections — prevention (1): padding so sections never
//!   share a page (costs binary size, never mixes).

//!
//! One sweep: every (page size, rule, policy) point is a cell of one row
//! per workload, over one walk and one frontend.

use trrip_analysis::report::geomean_pct;
use trrip_analysis::TextTable;
use trrip_compiler::Linker;
use trrip_mem::PageSize;
use trrip_os::{Loader, OverlapPolicy};
use trrip_policies::PolicyKind;
use trrip_sim::{policy_cells, SimConfig};

use crate::{claims, Claim, Figure, HarnessOptions, Paper, Plan, Report, Results};

/// The §4.9 ablation, written to `overlap_ablation.txt`.
pub const FIGURE: Figure = Figure { name: "overlap_ablation", plan, render, claims: &CLAIMS };

/// Padding leaves no mixed page at 2 MB, and DropMixed costs TRRIP-1
/// nothing at any page size (its least geomean speedup).
const CLAIMS: [Claim; 2] = [
    Claim::new("overlap.padded_mixed_2mb", Paper::Value(0.0)),
    Claim::new("overlap.dropmixed_min", Paper::Positive),
];

const RULES: [OverlapPolicy; 3] =
    [OverlapPolicy::FirstByte, OverlapPolicy::DropMixed, OverlapPolicy::Hottest];

/// The paper machine at `page_size` pages tagged by `overlap`, under
/// SRRIP then TRRIP-1.
fn pair(options: &HarnessOptions, page_size: PageSize, overlap: OverlapPolicy) -> Vec<SimConfig> {
    let machine = SimConfig { page_size, overlap, ..options.sim_config(PolicyKind::Srrip) };
    policy_cells(&machine, &[PolicyKind::Srrip, PolicyKind::Trrip1])
}

/// Page-size-major, then by rule.
fn plan(options: &HarnessOptions) -> Result<Plan, String> {
    let cells = PageSize::ALL.into_iter().flat_map(|s| RULES.map(|r| pair(options, s, r)));
    Ok(Plan::grid(&options.selected_proxies(), &cells.flatten().collect::<Vec<_>>()))
}

fn render(results: &Results) -> Report {
    let (options, specs) = (&results.options, results.options.selected_proxies());
    // Speedup sensitivity: TRRIP-1 geomean per (page size, rule).
    let geomeans = PageSize::ALL.map(|size| {
        RULES.map(|rule| {
            let cells = pair(options, size, rule);
            geomean_pct(&results.speedups(&specs, &cells[1], &cells[0]))
        })
    });
    let mut table = TextTable::new(vec!["page size", "FirstByte", "DropMixed", "Hottest"]);
    for (size, row) in PageSize::ALL.iter().zip(&geomeans) {
        let row = row.iter().map(|g| format!("{g:+.2}"));
        table.row(std::iter::once(size.to_string()).chain(row).collect());
    }
    let least_dropmixed = geomeans.iter().map(|row| row[1]).fold(f64::INFINITY, f64::min);

    // Prevention (1): page-aligned sections — mixed pages vanish but the
    // image grows.
    let mut table_b = TextTable::new(vec![
        "benchmark",
        "mixed@2MB (64B align)",
        "mixed@2MB (page align)",
        "image growth",
    ]);
    let mut padded_mixed = 0;
    for spec in &specs {
        let w = results.workload(spec, &options.sim_config(PolicyKind::Srrip));
        let aligned_obj = Linker::new()
            .with_section_alignment(PageSize::Size2M.bytes())
            .link_pgo(&w.program, &w.profile, &w.temps);
        let plain = Loader::new(PageSize::Size2M).load(&w.pgo_object);
        let padded = Loader::new(PageSize::Size2M).load(&aligned_obj);
        let growth = padded.stats.total() as f64 / plain.stats.total().max(1) as f64;
        padded_mixed += padded.stats.mixed;
        table_b.row(vec![
            w.spec.name.clone(),
            plain.stats.mixed.to_string(),
            padded.stats.mixed.to_string(),
            format!("{growth:.1}x pages"),
        ]);
    }
    let file = format!("{table}\n{table_b}");
    Report { file, claims: claims(&CLAIMS, [Some(padded_mixed as f64), Some(least_dropmixed)]) }
}
