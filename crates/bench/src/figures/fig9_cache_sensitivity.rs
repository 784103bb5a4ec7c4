//! Figure 9: cache size and associativity sensitivity.
//!
//! (a) geomean speedup of TRRIP-1, CLIP and Emissary on 128/256/512 kB
//!     8-way L2s — gains shrink as capacity grows, less for the pure
//!     hardware schemes;
//! (b) TRRIP-1 per-benchmark speedup at 4/8/16-way (128 kB) — higher
//!     associativity captures more of the long hot reuse distances.

//!
//! One sweep: every (size, policy) and (ways, policy) point is a cell of
//! one row per workload, over one walk and one frontend. The 128 kB 8-way
//! SRRIP / TRRIP-1 pair is the paper machine and serves both panels.

use trrip_analysis::report::geomean_pct;
use trrip_analysis::TextTable;
use trrip_policies::PolicyKind;
use trrip_sim::{policy_cells, SimConfig};

use crate::Session;

const SIZES: [u64; 3] = [128 << 10, 256 << 10, 512 << 10];
const SIZE_POLICIES: [PolicyKind; 4] =
    [PolicyKind::Srrip, PolicyKind::Trrip1, PolicyKind::Clip, PolicyKind::Emissary];
const WAYS: [usize; 3] = [4, 8, 16];
const WAYS_POLICIES: [PolicyKind; 2] = [PolicyKind::Srrip, PolicyKind::Trrip1];

/// Runs Figure 9 and writes `fig9_cache_sensitivity.txt`.
pub fn run(session: &Session) -> Result<(), String> {
    let options = &session.options;
    let base_config = options.sim_config(PolicyKind::Srrip);
    let specs = options.selected_proxies();
    let workloads = session.prepare(&specs, &base_config, base_config.classifier);

    // (a)'s cells, size-major, then (b)'s off-paper associativities.
    let mut cells = Vec::new();
    for size in SIZES {
        let hierarchy = base_config.hierarchy.clone().with_l2_size(size);
        cells.extend(policy_cells(&SimConfig { hierarchy, ..base_config.clone() }, &SIZE_POLICIES));
    }
    // Where the cells of `ways` start: 8 ways is the paper L2, whose
    // SRRIP / TRRIP-1 cells lead the 128 kB block above.
    let mut ways_at = [0; WAYS.len()];
    for (at, ways) in ways_at.iter_mut().zip(WAYS) {
        if ways != base_config.hierarchy.l2.ways {
            *at = cells.len();
            let hierarchy = base_config.hierarchy.clone().with_l2_ways(ways);
            cells.extend(policy_cells(
                &SimConfig { hierarchy, ..base_config.clone() },
                &WAYS_POLICIES,
            ));
        }
    }
    let sweep = session.sweep_cells(&workloads, &cells);

    // ---- (a) size sweep ----
    let mut table_a = TextTable::new(vec!["mechanism", "128kB", "256kB", "512kB"]);
    for (pi, name) in ["TRRIP", "CLIP", "Emissary"].iter().enumerate() {
        let row = (0..SIZES.len()).map(|si| {
            let srrip = si * SIZE_POLICIES.len();
            format!("{:+.2}", geomean_pct(&sweep.cell_speedups(srrip + 1 + pi, srrip)))
        });
        table_a.row(std::iter::once((*name).to_owned()).chain(row).collect());
    }
    println!("Figure 9a: geomean speedup (%) vs SRRIP across L2 sizes (8-way)");
    println!("{table_a}");

    // ---- (b) associativity sweep ----
    let mut headers = vec!["bench".to_owned()];
    headers.extend(WAYS.iter().map(|w| format!("{w}-way")));
    let mut table_b = TextTable::new(headers);
    let mut rows: Vec<Vec<String>> = workloads.iter().map(|w| vec![w.spec.name.clone()]).collect();
    let mut geos = Vec::new();
    for srrip in ways_at {
        let speeds = sweep.cell_speedups(srrip + 1, srrip);
        for (i, s) in speeds.iter().enumerate() {
            rows[i].push(format!("{s:+.2}"));
        }
        geos.push(geomean_pct(&speeds));
    }
    for row in rows {
        table_b.row(row);
    }
    let geo_row: Vec<String> = std::iter::once("geomean".to_owned())
        .chain(geos.iter().map(|s| format!("{s:+.2}")))
        .collect();
    table_b.row(geo_row);
    println!("Figure 9b: TRRIP-1 speedup (%) vs associativity (128 kB L2)");
    println!("{table_b}");
    println!(
        "paper: gains shrink with capacity (TRRIP more than CLIP/Emissary because of its\n\
         compile-scope limit) and grow with associativity"
    );
    options.write_report("fig9_cache_sensitivity.txt", &format!("(a)\n{table_a}\n(b)\n{table_b}"));
    Ok(())
}
