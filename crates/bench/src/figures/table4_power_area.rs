//! Table 4: static power and area overheads of the evaluated mechanisms
//! relative to the SRRIP baseline, from the McPAT-style 22 nm model.

use trrip_analysis::{PowerModel, TextTable};

use crate::{claims, Claim, Figure, Paper, Plan, Report, Results};

/// Table 4, written to `table4_power_area.txt`; it simulates nothing.
pub const FIGURE: Figure =
    Figure { name: "table4_power_area", plan: Plan::nothing, render, claims: &CLAIMS };

/// The paper's static power and area overheads (%), in the model's
/// mechanism order.
const CLAIMS: [Claim; 8] = [
    Claim::new("table4.static_power.trrip", Paper::Value(0.0)),
    Claim::new("table4.area.trrip", Paper::Value(0.0)),
    Claim::new("table4.static_power.clip", Paper::Value(0.0)),
    Claim::new("table4.area.clip", Paper::Value(0.0)),
    Claim::new("table4.static_power.emissary", Paper::Value(0.5)),
    Claim::new("table4.area.emissary", Paper::Value(0.7)),
    Claim::new("table4.static_power.ship", Paper::Value(1.7)),
    Claim::new("table4.area.ship", Paper::Value(3.0)),
];

fn render(_: &Results) -> Report {
    let model = PowerModel::node_22nm();
    let baseline = model.baseline();

    let mut table = TextTable::new(vec!["mechanism", "static power (%)", "area (%)"]);
    let mut overheads = Vec::new();
    for (name, overhead) in model.table4_mechanisms() {
        let (power, area) = model.evaluate(overhead).overhead_vs(&baseline);
        let fmt = |x: f64| if x.abs() < 0.05 { "~0.0".to_owned() } else { format!("{x:.1}") };
        table.row(vec![name.to_owned(), fmt(power), fmt(area)]);
        overheads.extend([Some(power), Some(area)]);
    }
    Report { file: table.to_string(), claims: claims(&CLAIMS, overheads) }
}
