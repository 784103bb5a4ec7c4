//! Table 1: the simulator configuration actually in force, printed from
//! the core's, the predictor's and the memory side's constants and the
//! live `SimConfig`, so drift between code and documentation is
//! impossible.

use trrip_analysis::TextTable;
use trrip_cache::{CacheConfig, Hierarchy};
use trrip_cpu::{BranchPredictor, CoreConfig};
use trrip_policies::PolicyKind;

use crate::{Figure, Plan, Report, Results};

/// Table 1, written to `table1_config.txt`; it simulates nothing.
pub const FIGURE: Figure =
    Figure { name: "table1_config", plan: Plan::nothing, render, claims: &[] };

fn render(results: &Results) -> Report {
    let c = results.options.sim_config(PolicyKind::Trrip1);

    let mut table = TextTable::new(vec!["component", "configuration"]);
    table.row(vec![
        "Core".into(),
        format!(
            "{}-wide dispatch, pseudo-FDIP prefetching ({} lines ahead), {}-entry ROB, {} GHz",
            CoreConfig::DISPATCH_WIDTH,
            CoreConfig::FDIP_MAX_LINES,
            CoreConfig::ROB_ENTRIES,
            CoreConfig::FREQUENCY_GHZ
        ),
    ]);
    table.row(vec![
        "Branch".into(),
        format!(
            "{}-entry BTB, {}-entry indirect-BTB, {}-entry loop predictor, {}-entry global predictor, {}-cycle mispredict penalty",
            BranchPredictor::BTB_ENTRIES,
            BranchPredictor::INDIRECT_BTB_ENTRIES,
            BranchPredictor::LOOP_ENTRIES,
            BranchPredictor::GLOBAL_ENTRIES,
            BranchPredictor::MISPREDICT_PENALTY
        ),
    ]);
    let cache_row = |cfg: CacheConfig, (tag, data): (u64, u64), policy: &str, extra: &str| {
        format!(
            "{} kB, {}-way, {policy} replacement{extra}, {tag}/{data} (tag/data)-cycle latency",
            cfg.size_bytes >> 10,
            cfg.ways,
        )
    };
    let l1 = (Hierarchy::L1_TAG_CYCLES, Hierarchy::L1_DATA_CYCLES);
    table.row(vec!["L1-I".into(), cache_row(Hierarchy::L1I, l1, "LRU", ", next-line prefetcher")]);
    table.row(vec!["L1-D".into(), cache_row(Hierarchy::L1D, l1, "LRU", ", stride prefetcher")]);
    table.row(vec![
        "Unified Shared L2".into(),
        cache_row(
            c.hierarchy.l2,
            (Hierarchy::L2_TAG_CYCLES, Hierarchy::L2_DATA_CYCLES),
            c.hierarchy.l2_policy.name(),
            ", inclusive, stride prefetcher",
        ),
    ]);
    table.row(vec![
        "Unified Shared SLC".into(),
        cache_row(
            Hierarchy::SLC,
            (Hierarchy::SLC_TAG_CYCLES, Hierarchy::SLC_DATA_CYCLES),
            "LRU",
            ", exclusive",
        ),
    ]);
    table.row(vec!["DRAM".into(), format!("{}-cycle latency (flat)", Hierarchy::DRAM_LATENCY)]);
    table.row(vec![
        "Run control".into(),
        format!(
            "fast-forward {} / measure {} instructions, {} page size, {:?} overlap policy",
            c.fast_forward, c.instructions, c.page_size, c.overlap
        ),
    ]);

    Report { file: table.to_string(), claims: Vec::new() }
}
