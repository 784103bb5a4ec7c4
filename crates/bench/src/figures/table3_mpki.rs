//! Table 3: raw SRRIP L2 MPKI (instruction and data) per benchmark, and
//! the per-mechanism MPKI reductions (negative = MPKI increased).

use trrip_analysis::report::{geomean_pct, geomean_reduction_pct};
use trrip_analysis::TextTable;
use trrip_policies::PolicyKind;
use trrip_sim::SimResult;

use crate::figures::fig6_speedup::cells;
use crate::{claims, Band, Claim, Figure, HarnessOptions, Paper, Plan, Report, Results};

/// Table 3, written to `table3_mpki.txt`.
pub const FIGURE: Figure = Figure { name: "table3_mpki", plan, render, claims: &CLAIMS };

/// The paper's raw SRRIP L2 MPKI (instruction, then data) per proxy in
/// `proxy::all()` order, then its geomean instruction-MPKI reductions in
/// the order of Figure 6's mechanisms ([`REDUCTIONS`]), TRRIP-1's held
/// above 8%, then §4.4's slight data-MPKI increase under TRRIP-1 (the
/// least reduction over the benchmarks), held above -60%.
const CLAIMS: [Claim; 29] = [
    Claim::new("table3.inst_mpki.abseil", Paper::Value(1.79)),
    Claim::new("table3.data_mpki.abseil", Paper::Value(17.52)),
    Claim::new("table3.inst_mpki.bullet", Paper::Value(0.13)),
    Claim::new("table3.data_mpki.bullet", Paper::Value(1.76)),
    Claim::new("table3.inst_mpki.clamscan", Paper::Value(0.36)),
    Claim::new("table3.data_mpki.clamscan", Paper::Value(2.73)),
    Claim::new("table3.inst_mpki.clang", Paper::Value(16.68)),
    Claim::new("table3.data_mpki.clang", Paper::Value(19.51)),
    Claim::new("table3.inst_mpki.deepsjeng", Paper::Value(0.70)),
    Claim::new("table3.data_mpki.deepsjeng", Paper::Value(1.22)),
    Claim::new("table3.inst_mpki.gcc", Paper::Value(3.54)),
    Claim::new("table3.data_mpki.gcc", Paper::Value(5.99)),
    Claim::new("table3.inst_mpki.omnetpp", Paper::Value(4.71)),
    Claim::new("table3.data_mpki.omnetpp", Paper::Value(12.30)),
    Claim::new("table3.inst_mpki.python", Paper::Value(4.83)),
    Claim::new("table3.data_mpki.python", Paper::Value(11.04)),
    Claim::new("table3.inst_mpki.rapidjson", Paper::Value(0.57)),
    Claim::new("table3.data_mpki.rapidjson", Paper::Value(8.36)),
    Claim::new("table3.inst_mpki.sqlite", Paper::Value(4.08)),
    Claim::new("table3.data_mpki.sqlite", Paper::Value(6.99)),
    Claim::new("table3.inst_mpki_reduction.lru", Paper::Value(1.8)),
    Claim::new("table3.inst_mpki_reduction.brrip", Paper::Value(-94.5)),
    Claim::new("table3.inst_mpki_reduction.drrip", Paper::Value(-11.5)),
    Claim::new("table3.inst_mpki_reduction.ship", Paper::Value(-10.8)),
    Claim::new("table3.inst_mpki_reduction.clip", Paper::Value(13.6)),
    Claim::new("table3.inst_mpki_reduction.emissary", Paper::Value(22.1)),
    Claim::new("table3.inst_mpki_reduction.trrip-1", Paper::Value(26.5)).within(Band::Above(8.0)),
    Claim::new("table3.inst_mpki_reduction.trrip-2", Paper::Value(27.3)),
    Claim::new("table3.data_mpki_reduction_min.trrip-1", Paper::Negative)
        .within(Band::Above(-60.0)),
];

/// Where the geomean instruction-MPKI reductions sit in [`CLAIMS`].
const REDUCTIONS: std::ops::Range<usize> = 20..28;

fn plan(options: &HarnessOptions) -> Result<Plan, String> {
    Ok(Plan::grid(&options.selected_proxies(), &cells(options)))
}

fn render(results: &Results) -> Report {
    let specs = results.options.selected_proxies();
    let cells = cells(&results.options);
    let (base, mechanisms) = cells.split_first().expect("SRRIP leads");

    // Raw SRRIP MPKI block.
    let mut raw = TextTable::new(vec!["L2 MPKI", "inst.", "data", "inst/data"]);
    for spec in &specs {
        let r = results.get(spec, base);
        let (i, d) = (r.l2_inst_mpki(), r.l2_data_mpki());
        let values = [i, d, if d > 0.0 { i / d } else { 0.0 }].map(|v| format!("{v:.2}"));
        raw.row(std::iter::once(spec.name.clone()).chain(values).collect());
    }

    // Reduction block per mechanism.
    let names = specs.iter().map(|s| s.name.as_str());
    let mut table =
        TextTable::new(["mechanism", "side"].into_iter().chain(names).chain(["geomean"]).collect());
    let (mut reductions, mut least_trrip1_data) = (Vec::new(), None);
    for m in mechanisms {
        let vs_base = |side: fn(&SimResult, &SimResult) -> f64| -> Vec<f64> {
            specs.iter().map(|s| side(results.get(s, m), results.get(s, base))).collect()
        };
        let inst = vs_base(SimResult::inst_mpki_reduction_vs);
        let data = vs_base(SimResult::data_mpki_reduction_vs);
        for (name, side, all) in
            [(m.hierarchy.l2_policy.name(), "Inst.", &inst), ("", "Data", &data)]
        {
            let values = all.iter().copied().chain([geomean_pct(all)]).map(|v| format!("{v:.2}"));
            table.row([name.to_owned(), side.to_owned()].into_iter().chain(values).collect());
        }
        reductions.push(Some(geomean_reduction_pct(&inst)));
        if m.hierarchy.l2_policy == PolicyKind::Trrip1 {
            least_trrip1_data = data.into_iter().reduce(f64::min);
        }
    }
    let paper = mechanisms.iter().zip(&CLAIMS[REDUCTIONS]);
    let paper: Vec<String> = paper
        .map(|(m, claim)| format!("{} {:+.1}", m.hierarchy.l2_policy.name(), claim.paper))
        .collect();
    let file = format!(
        "Table 3 (top): raw L2 MPKI under SRRIP\n{raw}\n\
         Table 3 (bottom): L2 MPKI reduction (%) vs SRRIP — negative = increase\n{table}\n\
         paper geomeans (inst): {}\n",
        paper.join(", ")
    );

    let raw_mpki = trrip_workloads::proxy::all().into_iter().flat_map(|proxy| {
        let r = specs.iter().find(|s| s.name == proxy.name).map(|s| results.get(s, base));
        [r.map(SimResult::l2_inst_mpki), r.map(SimResult::l2_data_mpki)]
    });
    let values = raw_mpki.chain(reductions).chain([least_trrip1_data]);
    Report { file, claims: claims(&CLAIMS, values) }
}
