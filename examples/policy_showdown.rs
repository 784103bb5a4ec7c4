//! Compare every replacement policy on a single workload — a miniature
//! Figure 6 you can iterate on quickly.
//!
//! Run with: `cargo run --release --example policy_showdown [benchmark]`
//! where `benchmark` is one of the ten proxy names (default: gcc).

use trrip::policies::PolicyKind;
use trrip::sim::{default_jobs, policy_cells, policy_sweep_with, PreparedWorkload, SimConfig};

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "gcc".to_owned());
    let spec = trrip::workloads::proxy::by_name(&name)
        .unwrap_or_else(|| panic!("unknown benchmark `{name}`; see trrip_workloads::proxy"));
    println!(
        "benchmark: {name} ({} functions, hot rotation {})",
        spec.functions, spec.hot_rotation
    );

    let config = SimConfig::paper(PolicyKind::Srrip);
    let workload = PreparedWorkload::prepare(&spec, config.train_instructions, config.classifier);
    let workloads = [workload];
    let cells = policy_cells(&config, &PolicyKind::PAPER_SET);
    let sweep = policy_sweep_with(default_jobs(), &workloads, &cells, None);

    let base = sweep.get(&name, PolicyKind::Srrip);
    println!(
        "\nSRRIP baseline: {:.0} cycles, L2 inst MPKI {:.3}, data MPKI {:.3}\n",
        base.cycles(),
        base.l2_inst_mpki(),
        base.l2_data_mpki()
    );
    println!("{:<10} {:>9} {:>12} {:>12}", "policy", "speedup%", "Δinst-MPKI%", "Δdata-MPKI%");
    for policy in PolicyKind::PAPER_SET {
        if policy == PolicyKind::Srrip {
            continue;
        }
        let r = sweep.get(&name, policy);
        println!(
            "{:<10} {:>+9.2} {:>+12.1} {:>+12.1}",
            policy.name(),
            r.speedup_vs(base),
            r.inst_mpki_reduction_vs(base),
            r.data_mpki_reduction_vs(base)
        );
    }
    println!("\n(positive Δ = fewer misses than SRRIP)");
}
