//! Calibration tool: compares each proxy benchmark's simulated baseline
//! MPKI and policy responses against the paper targets (Table 3 /
//! Figure 6). Not one of the paper's artifacts — a development aid for
//! tuning `trrip-workloads::proxy` parameters.

use trrip_analysis::report::{geomean_pct, geomean_reduction_pct};
use trrip_analysis::TextTable;
use trrip_policies::PolicyKind;

use crate::Session;

/// Paper Table 3 raw SRRIP MPKI (inst, data) per benchmark.
const PAPER_MPKI: [(&str, f64, f64); 10] = [
    ("abseil", 1.79, 17.52),
    ("bullet", 0.13, 1.76),
    ("clamscan", 0.36, 2.73),
    ("clang", 16.68, 19.51),
    ("deepsjeng", 0.70, 1.22),
    ("gcc", 3.54, 5.99),
    ("omnetpp", 4.71, 12.30),
    ("python", 4.83, 11.04),
    ("rapidjson", 0.57, 8.36),
    ("sqlite", 4.08, 6.99),
];

/// Prints each proxy's SRRIP MPKI beside the paper's and every policy's speedup, from one sweep of the paper's nine policies; writes no report.
pub fn run(session: &Session) -> Result<(), String> {
    let options = &session.options;
    let specs = options.selected_proxies();
    let config = options.sim_config(PolicyKind::Srrip);

    let workloads = session.prepare(&specs, &config, config.classifier);
    let sweep = session.sweep(&workloads, &config, &PolicyKind::PAPER_SET);

    let mut table = TextTable::new(vec![
        "bench", "I-MPKI", "(paper)", "D-MPKI", "(paper)", "TR1 dI%", "TR1 dD%", "CLIP dI%",
        "CLIP dD%", "LRU", "BRRIP", "DRRIP", "SHiP", "CLIP", "EMIS", "TR1", "TR2", "ifetch%",
    ]);
    let mut tr1_speedups = Vec::new();
    let mut tr1_reductions = Vec::new();
    for w in workloads.iter() {
        let name = &w.spec.name;
        let base = sweep.get(name, PolicyKind::Srrip);
        let tr1 = sweep.get(name, PolicyKind::Trrip1);
        let paper = PAPER_MPKI.iter().find(|(n, _, _)| n == name);
        let ifetch_frac = base.core.topdown.fraction(Some(trrip_cpu::StallClass::Ifetch));
        tr1_speedups.push(tr1.speedup_vs(base));
        tr1_reductions.push(tr1.inst_mpki_reduction_vs(base));
        let spd = |p: PolicyKind| format!("{:+.2}", sweep.get(name, p).speedup_vs(base));
        table.row(vec![
            name.clone(),
            format!("{:.2}", base.l2_inst_mpki()),
            paper.map_or("-".into(), |(_, i, _)| format!("{i:.2}")),
            format!("{:.2}", base.l2_data_mpki()),
            paper.map_or("-".into(), |(_, _, d)| format!("{d:.2}")),
            format!("{:.1}", tr1.inst_mpki_reduction_vs(base)),
            format!("{:.1}", tr1.data_mpki_reduction_vs(base)),
            format!("{:.1}", sweep.get(name, PolicyKind::Clip).inst_mpki_reduction_vs(base)),
            format!("{:.1}", sweep.get(name, PolicyKind::Clip).data_mpki_reduction_vs(base)),
            spd(PolicyKind::Lru),
            spd(PolicyKind::Brrip),
            spd(PolicyKind::Drrip),
            spd(PolicyKind::Ship),
            spd(PolicyKind::Clip),
            spd(PolicyKind::Emissary),
            spd(PolicyKind::Trrip1),
            spd(PolicyKind::Trrip2),
            format!("{:.1}", ifetch_frac * 100.0),
        ]);
    }
    println!("{table}");
    println!(
        "geomean TRRIP-1 speedup: {:+.2}% (paper: +3.9)   geomean I-MPKI reduction: {:.1}% (paper: 26.5)",
        geomean_pct(&tr1_speedups),
        geomean_reduction_pct(&tr1_reductions),
    );
    Ok(())
}
