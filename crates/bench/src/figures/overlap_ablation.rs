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

use crate::Session;

const RULES: [OverlapPolicy; 3] =
    [OverlapPolicy::FirstByte, OverlapPolicy::DropMixed, OverlapPolicy::Hottest];
const POLICIES: [PolicyKind; 2] = [PolicyKind::Srrip, PolicyKind::Trrip1];

/// Runs the §4.9 ablation and writes `overlap_ablation.txt`.
pub fn run(session: &Session) -> Result<(), String> {
    let options = &session.options;
    let base = options.sim_config(PolicyKind::Srrip);
    let specs = options.selected_proxies();
    let workloads = session.prepare(&specs, &base, base.classifier);

    // Speedup sensitivity: TRRIP-1 geomean per (page size, rule). Cells
    // are page-size-major, then by rule, an SRRIP / TRRIP-1 pair each.
    let mut cells = Vec::new();
    for page_size in PageSize::ALL {
        for overlap in RULES {
            cells
                .extend(policy_cells(&SimConfig { page_size, overlap, ..base.clone() }, &POLICIES));
        }
    }
    let sweep = session.sweep_cells(&workloads, &cells);
    let mut table = TextTable::new(vec!["page size", "FirstByte", "DropMixed", "Hottest"]);
    for (si, size) in PageSize::ALL.iter().enumerate() {
        let mut row = vec![size.to_string()];
        for ri in 0..RULES.len() {
            let srrip = (si * RULES.len() + ri) * POLICIES.len();
            let g = geomean_pct(&sweep.cell_speedups(srrip + 1, srrip));
            row.push(format!("{g:+.2}"));
        }
        table.row(row);
    }
    println!("TRRIP-1 geomean speedup (%) vs SRRIP per page size and overlap policy");
    println!("{table}");

    // Prevention (1): page-aligned sections — mixed pages vanish but the
    // image grows.
    let mut table_b = TextTable::new(vec![
        "benchmark",
        "mixed@2MB (64B align)",
        "mixed@2MB (page align)",
        "image growth",
    ]);
    for w in workloads.iter() {
        let aligned_obj = Linker::new()
            .with_section_alignment(PageSize::Size2M.bytes())
            .link_pgo(&w.program, &w.profile, &w.temps);
        let plain = Loader::new(PageSize::Size2M).load(&w.pgo_object);
        let padded = Loader::new(PageSize::Size2M).load(&aligned_obj);
        let growth = padded.stats.total() as f64 / plain.stats.total().max(1) as f64;
        table_b.row(vec![
            w.spec.name.clone(),
            plain.stats.mixed.to_string(),
            padded.stats.mixed.to_string(),
            format!("{growth:.1}x pages"),
        ]);
    }
    println!("\nPrevention mechanism (1): page-aligned sections at 2MB pages");
    println!("{table_b}");
    println!(
        "§4.9: padding eliminates mixed pages at the cost of address-space/pages;\n\
         DropMixed keeps TRRIP safe (untagged pages default to RRIP) at any size"
    );
    options.write_report("overlap_ablation.txt", &format!("{table}\n{table_b}"));
    Ok(())
}
