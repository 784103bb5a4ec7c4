//! The benchmark's vocabulary: workload names, metric names, units,
//! directions and regression bounds. `BENCHMARK.json` at the repository
//! root states the same facts for the driver; a unit test holds the two
//! in agreement.

use trrip_policies::PolicyKind;

/// Seconds one run measures unless `--seconds` says otherwise.
pub const RUN_SECONDS: u64 = 15;

/// A run never reports fewer repetitions than this, however short
/// `--seconds` is: a median of fewer is one sample.
pub const MIN_REPS: usize = 3;

/// Times the set-up of a workload is performed (and timed) per run, so
/// `setup_s` is a median too.
pub const SETUPS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline by which the metric may get worse before it
    /// counts as a regression. Per-layer metrics explain; they carry none.
    pub bound: Option<f64>,
}

pub struct WorkloadInfo {
    pub name: &'static str,
    pub why: &'static str,
}

pub const FIGURES_COLD: &str = "figures_cold";
pub const FIGURES_WARM: &str = "figures_warm";
pub const SWEEP_WALKER: &str = "sweep_walker";
pub const SWEEP_LONGWARM: &str = "sweep_longwarm";

pub const WORKLOADS: [WorkloadInfo; 4] = [
    WorkloadInfo {
        name: FIGURES_COLD,
        why: "figure binaries over empty trace and checkpoint stores: the write side \
              (capture, pack, checkpoint save) plus process start and prepare in every binary",
    },
    WorkloadInfo {
        name: FIGURES_WARM,
        why: "the same command lines over stores populated in set-up: the read side \
              (decode, seek, restore, overlay compose); an encoder traded for a decoder shows here",
    },
    WorkloadInfo {
        name: SWEEP_WALKER,
        why: "in-process fig6 sweep with no stores: walker, core and memory system do all \
              the work, trace, pack and checkpoints none",
    },
    WorkloadInfo {
        name: SWEEP_LONGWARM,
        why: "in-process sweep with a warm-up four times the measured window over warm stores: \
              restore and decode dominate, the walker never runs",
    },
];

/// The experiment binaries a `figures_*` repetition runs, in
/// `all_experiments` order. Four of that list's twelve are left out
/// because they alone take two thirds of its time and one repetition
/// must fit a few seconds: `fig1_topdown_system`, `fig2_topdown_proxy`,
/// `fig8_hot_threshold`, `fig9_cache_sensitivity`.
pub const FIGURE_BINS: [&str; 8] = [
    "table1_config",
    "table2_benchmarks",
    "fig3_reuse_distance",
    "fig6_speedup",
    "table3_mpki",
    "table4_power_area",
    "fig7_costly_coverage",
    "table5_pages",
];

/// Reports left out of the golden set, with the reason. Their digests
/// are compared across repetitions and *counted* when they differ
/// (`bench.nondeterministic_reports`), never failed.
pub const EXCLUDED_REPORTS: [(&str, &str); 1] = [(
    "fig7_costly_coverage.txt",
    "differs between identical invocations: HashMap iteration order and an unstable sort \
     on tied costs in crates/analysis/src/costly.rs",
)];

/// `PolicyKind` names as they appear inside metric names.
pub fn policy_slug(policy: PolicyKind) -> String {
    policy.name().to_ascii_lowercase()
}

pub fn end_to_end() -> Vec<Metric> {
    let metric = |name: &str, unit, bound| Metric {
        name: name.to_owned(),
        unit,
        better: Better::Lower,
        bound: Some(bound),
    };
    vec![metric("setup_s", "s", 0.25), metric("wall_s", "s", 0.25), metric("cpu_s", "s", 0.25)]
}

/// Counter names read around a workload's own traced repetition and
/// reported as `run.<counter>`.
pub const RUN_COUNTERS: [&str; 12] = [
    "trace.bytes_read",
    "pack.raw_bytes",
    "ckpt.save",
    "ckpt.hit",
    "ckpt.miss",
    "walk.bb_memo.hit",
    "walk.bb_memo.miss",
    "warm.full_restore",
    "warm.overlay_restore",
    "warm.tail_replay",
    "warm.recorded_warmup",
    "warm.cold_warmup",
];

pub fn per_layer() -> Vec<Metric> {
    use Better::{Higher, Lower};
    let mut metrics = Vec::new();
    let mut add = |name: String, unit: &'static str, better| {
        metrics.push(Metric { name, unit, better, bound: None });
    };
    for (name, unit, better) in [
        // workloads: the CFG walker.
        ("workloads.walk_inloop_ns_per_instr", "ns/instr", Lower),
        ("workloads.walk_standalone_ns_per_instr", "ns/instr", Lower),
        ("workloads.bb_memo_hit_ratio", "ratio", Higher),
        // sim: prepare = compiler + os + program builder.
        ("sim.prepare_s", "s", Lower),
        // cpu: host cost of the core over an all-hits backend, then the model.
        ("cpu.core_flat_ns_per_instr", "ns/instr", Lower),
        ("cpu.ipc.srrip", "ipc", Higher),
        ("cpu.ipc.trrip1", "ipc", Higher),
        ("cpu.frontend_bound_pct.srrip", "%", Lower),
        ("cpu.frontend_bound_pct.trrip1", "%", Lower),
        ("cpu.branch_mpki", "mpki", Lower),
        // cache, os: host cost of the memory system, then the model.
        ("cache.memsys_ns_per_instr", "ns/instr", Lower),
        ("cache.hier_access_ns.srrip", "ns", Lower),
        ("cache.hier_access_ns.trrip1", "ns", Lower),
        ("cache.l1_fastpath_hit_ratio", "ratio", Higher),
        ("cache.l1i_mpki", "mpki", Lower),
        ("cache.l1d_mpki", "mpki", Lower),
        ("cache.l2_inst_mpki.srrip", "mpki", Lower),
        ("cache.l2_inst_mpki.trrip1", "mpki", Lower),
        ("cache.l2_data_mpki.srrip", "mpki", Lower),
        ("cache.l2_data_mpki.trrip1", "mpki", Lower),
        ("cache.slc_mpki", "mpki", Lower),
        ("os.tlb_mpki", "mpki", Lower),
        // trace: capture, decode, seek.
        ("trace.capture_ns_per_instr", "ns/instr", Lower),
        ("trace.writer_ns_per_instr", "ns/instr", Lower),
        ("trace.bytes_per_instr", "B/instr", Lower),
        ("trace.decode_standalone_ns_per_instr", "ns/instr", Lower),
        ("trace.decode_inloop_ns_per_instr", "ns/instr", Lower),
        ("trace.seek_open_ms", "ms", Lower),
        // pack: compressed / raw, from the pack.* counters.
        ("pack.trace_ratio", "ratio", Lower),
        ("pack.ckpt_ratio", "ratio", Lower),
        ("pack.fallback_raw_blocks", "count", Lower),
        // snap and the checkpoint container.
        ("snap.save_ms", "ms", Lower),
        ("snap.restore_ms", "ms", Lower),
        ("snap.state_bytes", "bytes", Lower),
        ("sim.ckpt_save_ms", "ms", Lower),
        ("sim.ckpt_load_ms", "ms", Lower),
        ("sim.ckpt_file_bytes", "bytes", Lower),
        // sim: phases of one run and the substitution budget.
        ("sim.fast_forward_ns_per_instr", "ns/instr", Lower),
        ("sim.measure_walker_ns_per_instr", "ns/instr", Lower),
        ("sim.measure_mem_ns_per_instr", "ns/instr", Lower),
        ("sim.measure_replay_ns_per_instr", "ns/instr", Lower),
        ("sim.budget_gap_pct", "%", Lower),
        // sim: warm start, a 9-policy populate and warm pass on gcc.
        ("sim.populate_s", "s", Lower),
        ("sim.warm_pass_s", "s", Lower),
        ("sim.warm_speedup", "ratio", Higher),
        ("sim.ckpt_hit_ratio", "ratio", Higher),
        ("sim.warm.full_restore", "count", Higher),
        ("sim.warm.overlay_restore", "count", Higher),
        ("sim.warm.tail_replay", "count", Lower),
        ("sim.warm.recorded_warmup", "count", Lower),
        ("sim.warm.cold_warmup", "count", Lower),
        // sim: the segment path, which no workload drives end to end.
        ("sim.shard4_warm_pass_s", "s", Lower),
        ("sim.shard.live_handoff", "count", Higher),
        ("sim.shard.disk_dispatch", "count", Lower),
        ("sim.shard.cold_fallback", "count", Lower),
        // obs: what the program's own spans cost.
        ("obs.spans_overhead_pct", "%", Lower),
        // The host, against the reference host, during the traced repetition.
        ("host.slowdown", "ratio", Lower),
    ] {
        add(name.to_owned(), unit, better);
    }
    for policy in PolicyKind::PAPER_SET {
        add(format!("policies.host_ns_per_instr.{}", policy_slug(policy)), "ns/instr", Lower);
    }
    for policy in PolicyKind::PAPER_SET.into_iter().filter(|&p| p != PolicyKind::Srrip) {
        add(format!("policies.speedup_pct.{}", policy_slug(policy)), "%", Higher);
        add(format!("policies.impki_reduction_pct.{}", policy_slug(policy)), "%", Higher);
    }
    // The workload's own traced repetition, seen from outside.
    add("run.rep_wall_s".to_owned(), "s", Lower);
    add("run.tracing_overhead_pct".to_owned(), "%", Lower);
    add("run.peak_rss_mib".to_owned(), "MiB", Lower);
    add("run.store_bytes".to_owned(), "bytes", Lower);
    add("run.store_files_written".to_owned(), "count", Lower);
    for counter in RUN_COUNTERS {
        add(format!("run.{counter}"), "count", Lower);
    }
    for bin in FIGURE_BINS {
        add(format!("bench.{bin}_s"), "s", Lower);
    }
    add("bench.nondeterministic_reports".to_owned(), "count", Lower);
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    fn name_is_valid(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    #[test]
    fn names_are_valid_unique_and_within_the_contract_limits() {
        let workloads: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        let end_to_end = end_to_end();
        let per_layer = per_layer();
        assert!((2..=8).contains(&workloads.len()));
        assert!((1..=16).contains(&end_to_end.len()));
        assert!((1..=128).contains(&per_layer.len()), "{} per-layer metrics", per_layer.len());
        let mut names: Vec<&str> = workloads.clone();
        names.extend(end_to_end.iter().chain(&per_layer).map(|m| m.name.as_str()));
        for name in &names {
            assert!(name_is_valid(name), "invalid name `{name}`");
        }
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a name is used twice");
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "why of {}", w.name);
        }
        for m in &end_to_end {
            assert!(m.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "bound of {}", m.name);
        }
        assert!(end_to_end.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    /// `BENCHMARK.json` says what this file says, name for name.
    #[test]
    fn benchmark_json_agrees_with_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> =
            doc.as_obj().expect("object").iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        assert_eq!(doc.get("run_seconds").and_then(Json::as_f64), Some(RUN_SECONDS as f64));

        let list = |key: &str| doc.get(key).and_then(Json::as_arr).expect("a list").to_vec();
        let text_of = |entry: &Json, key: &str| {
            entry.get(key).and_then(Json::as_str).expect("a string").to_owned()
        };
        let workloads: Vec<(String, String)> =
            list("workloads").iter().map(|w| (text_of(w, "name"), text_of(w, "why"))).collect();
        let expected: Vec<(String, String)> =
            WORKLOADS.iter().map(|w| (w.name.to_owned(), w.why.to_owned())).collect();
        assert_eq!(workloads, expected);

        for (key, metrics) in [("end_to_end", end_to_end()), ("per_layer", per_layer())] {
            let listed: Vec<Metric> = list(key)
                .iter()
                .map(|m| Metric {
                    name: text_of(m, "name"),
                    unit: Box::leak(text_of(m, "unit").into_boxed_str()),
                    better: match text_of(m, "better").as_str() {
                        "lower" => Better::Lower,
                        "higher" => Better::Higher,
                        other => panic!("better = `{other}`"),
                    },
                    bound: m.get("bound").and_then(Json::as_f64),
                })
                .collect();
            assert_eq!(listed, metrics, "`{key}` differs between BENCHMARK.json and spec.rs");
        }
    }
}
