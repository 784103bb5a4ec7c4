//! Table 4: static power and area overheads of the evaluated mechanisms
//! relative to the SRRIP baseline, from the McPAT-style 22 nm model.

use trrip_analysis::{PowerModel, TextTable};

use crate::Session;

/// Prints Table 4 and writes `table4_power_area.txt`.
pub fn run(session: &Session) -> Result<(), String> {
    let options = &session.options;
    let model = PowerModel::node_22nm();
    let baseline = model.baseline();

    let mut table = TextTable::new(vec!["mechanism", "static power (%)", "area (%)"]);
    for (name, overhead) in model.table4_mechanisms() {
        let (power, area) = model.evaluate(overhead).overhead_vs(&baseline);
        let fmt = |x: f64| if x.abs() < 0.05 { "~0.0".to_owned() } else { format!("{x:.1}") };
        table.row(vec![name.to_owned(), fmt(power), fmt(area)]);
    }
    println!("Table 4: static power and area overheads vs SRRIP (22 nm)");
    println!("{table}");
    println!(
        "paper: TRRIP ~0/~0, CLIP ~0/~0, Emissary 0.5/0.7, SHiP 1.7/3.0;\n\
         baseline: {:.2} mm², {:.3} W static",
        baseline.area_mm2, baseline.static_w
    );
    options.write_report("table4_power_area.txt", &table.to_string());
    Ok(())
}
