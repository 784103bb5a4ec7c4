//! Figure 9: cache size and associativity sensitivity.
//!
//! (a) geomean speedup of TRRIP-1, CLIP and Emissary on 128/256/512 kB
//!     8-way L2s — gains shrink as capacity grows, less for the pure
//!     hardware schemes;
//! (b) TRRIP-1 per-benchmark speedup at 4/8/16-way (128 kB) — higher
//!     associativity captures more of the long hot reuse distances.

//!
//! Every (size, policy) and (ways, policy) point is a cell of one row
//! per workload, over one walk and one frontend. The 128 kB 8-way
//! SRRIP / TRRIP-1 pair is the paper machine and serves both panels.

use trrip_analysis::report::geomean_pct;
use trrip_analysis::TextTable;
use trrip_policies::PolicyKind;
use trrip_sim::SimConfig;

use crate::{claims, Claim, Figure, HarnessOptions, Paper, Plan, Report, Results};

/// Figure 9, written to `fig9_cache_sensitivity.txt`.
pub const FIGURE: Figure = Figure { name: "fig9_cache_sensitivity", plan, render, claims: &CLAIMS };

/// TRRIP-1's geomean gain shrinks from 128 to 512 kB and grows from 4 to
/// 16 ways (in points).
const CLAIMS: [Claim; 2] = [
    Claim::new("fig9.trrip1_lost_to_512kb", Paper::Positive),
    Claim::new("fig9.trrip1_won_to_16_ways", Paper::Positive),
];

const SIZES: [u64; 3] = [128 << 10, 256 << 10, 512 << 10];
const SIZE_POLICIES: [PolicyKind; 4] =
    [PolicyKind::Srrip, PolicyKind::Trrip1, PolicyKind::Clip, PolicyKind::Emissary];
const WAYS: [usize; 3] = [4, 8, 16];
const WAYS_POLICIES: [PolicyKind; 2] = [PolicyKind::Srrip, PolicyKind::Trrip1];

/// The paper machine under `policy` with a `size`-byte `ways`-way L2: (a)
/// is 8-way, (b) 128 kB.
fn l2(options: &HarnessOptions, size: u64, ways: usize, policy: PolicyKind) -> SimConfig {
    let base = options.sim_config(policy);
    SimConfig { hierarchy: base.hierarchy.clone().with_l2_size(size).with_l2_ways(ways), ..base }
}

/// (a)'s cells, size-major, then (b)'s; 8 ways is (a)'s 128 kB machine.
fn plan(options: &HarnessOptions) -> Result<Plan, String> {
    let a = SIZES.iter().flat_map(|&s| SIZE_POLICIES.map(|p| l2(options, s, 8, p)));
    let b = WAYS.iter().flat_map(|&w| WAYS_POLICIES.map(|p| l2(options, 128 << 10, w, p)));
    Ok(Plan::grid(&options.selected_proxies(), &a.chain(b).collect::<Vec<_>>()))
}

fn render(results: &Results) -> Report {
    let (options, specs) = (&results.options, results.options.selected_proxies());
    let speedups = |[base, cell]: [SimConfig; 2]| results.speedups(&specs, &cell, &base);

    // ---- (a) size sweep ----
    let mut table_a = TextTable::new(vec!["mechanism", "128kB", "256kB", "512kB"]);
    let geomean = |size, policy| {
        geomean_pct(&speedups([PolicyKind::Srrip, policy].map(|p| l2(options, size, 8, p))))
    };
    let by_size: Vec<[f64; 3]> =
        SIZE_POLICIES[1..].iter().map(|&p| SIZES.map(|s| geomean(s, p))).collect();
    for (geomeans, name) in by_size.iter().zip(["TRRIP", "CLIP", "Emissary"]) {
        let row = geomeans.iter().map(|g| format!("{g:+.2}"));
        table_a.row(std::iter::once(name.to_owned()).chain(row).collect());
    }

    // ---- (b) associativity sweep ----
    let ways = WAYS.map(|w| format!("{w}-way"));
    let mut table_b = TextTable::new(std::iter::once("bench".to_owned()).chain(ways).collect());
    let by_ways = WAYS.map(|w| speedups(WAYS_POLICIES.map(|p| l2(options, 128 << 10, w, p))));
    for (i, spec) in specs.iter().enumerate() {
        let row = by_ways.iter().map(|speeds| format!("{:+.2}", speeds[i]));
        table_b.row(std::iter::once(spec.name.clone()).chain(row).collect());
    }
    let geomeans = by_ways.map(|speeds| geomean_pct(&speeds));
    let row = geomeans.iter().map(|g| format!("{g:+.2}"));
    table_b.row(std::iter::once("geomean".to_owned()).chain(row).collect());

    let file = format!("(a)\n{table_a}\n(b)\n{table_b}");
    let shifts = [by_size[0][0] - by_size[0][2], geomeans[2] - geomeans[0]];
    Report { file, claims: claims(&CLAIMS, shifts.map(Some)) }
}
