//! The per-layer budget of the traced run: every layer measured from
//! outside, by timing calls into public functions on proxy `gcc`.
//!
//! The host-time budget is ablation by substitution, so it sums by
//! construction. One measure phase is run four ways:
//!
//! * **D** — `SimRun::measure` pulling from the walker;
//! * **C** — the same over a pre-materialised `VecSource`;
//! * **E** — the same over `StreamingReplay` of a captured file;
//! * **B** — `Core::run` over the same vector with an all-hits backend.
//!
//! Then walker = D − C, memory system = C − B, core = B, and the three
//! are D. C, D and E must report identical simulated results.
//!
//! Only entry points the roadmap's refactors keep are called (see the
//! README's allow-list); `tests/denylist.rs` enforces the other half.

use std::collections::BTreeMap;
use std::fs;
use std::hint::black_box;
use std::path::Path;

use trrip_cache::{Hierarchy, HierarchyConfig};
use trrip_core::Temperature;
use trrip_cpu::backend::FlatBackend;
use trrip_cpu::{Core, StallClass, TraceInstr};
use trrip_mem::{MemoryRequest, PhysAddr, VirtAddr};
use trrip_obs::CounterSnapshot;
use trrip_policies::PolicyKind;
use trrip_sim::{
    capture_trace, CheckpointStore, PreparedWorkload, SimConfig, SimResult, SimRun, SnapReader,
    SnapWriter, Snapshot,
};
use trrip_trace::source::VecSource;
use trrip_trace::{SourceIter, StreamingReplay, TraceSource};
use trrip_workloads::{InputSet, TraceGenerator};

use crate::check::Checker;
use crate::host::median;
use crate::meter::Meter;
use crate::workloads::{harness_options, longwarm_config, seeded_proxy, shorten, store_flags, Ctx};
use crate::{digest, spec};

/// Instructions per `VecSource` batch: the walker's own batch size, so
/// C differs from D in where instructions come from and nothing else.
const BATCH: usize = 1024;

/// Rounds of the substitution budget.
const ROUNDS: usize = 5;

/// Accesses per `Hierarchy::access` timing loop.
const HIER_ACCESSES: u64 = 1 << 20;

/// `work` under `name`; its wall time in reference-host seconds.
fn timed<T>(meter: &mut Meter, name: &str, work: impl FnOnce() -> T) -> (T, f64) {
    let (value, timing) = meter.measure(name, work);
    (value, timing.wall_s)
}

/// `sample` three times: the last value it produced and the median of
/// the seconds it reported. Whatever a sample must prepare untimed, it
/// prepares itself before calling [`timed`].
fn thrice<T>(mut sample: impl FnMut() -> (T, f64)) -> (T, f64) {
    let mut runs = [sample(), sample(), sample()].map(Some);
    let seconds = median(&runs.each_ref().map(|run| run.as_ref().expect("present").1));
    (runs[2].take().expect("present").0, seconds)
}

fn ns_per(seconds: f64, count: u64) -> f64 {
    seconds * 1e9 / count as f64
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// One load → fast-forward → measure run over `source`; returns the
/// result and the seconds of the two phases.
fn run_phases<S: TraceSource>(
    meter: &mut Meter,
    workload: &PreparedWorkload,
    config: &SimConfig,
    source: S,
    label: &str,
) -> (SimResult, f64, f64) {
    let mut run = SimRun::new(workload, config);
    let mut stream = SourceIter::new(source);
    let ((), ff_s) = timed(meter, "sim.fast_forward", || run.fast_forward(&mut stream));
    let (result, measure_s) =
        timed(meter, &format!("sim.measure.{label}"), || run.measure(&mut stream));
    (result, ff_s, measure_s)
}

/// Nanoseconds per `Hierarchy::access` over a seeded xorshift stream
/// with a 2 MiB footprint: a quarter instruction fetches over 512 KiB
/// of code whose thirds are hot, warm and cold, the rest loads over
/// 1.5 MiB of data.
fn hier_access_ns(meter: &mut Meter, policy: PolicyKind, seed: u64) -> f64 {
    const CODE_BASE: u64 = 0x1000_0000;
    const CODE_BYTES: u64 = 512 << 10;
    const DATA_BASE: u64 = 0x4000_0000;
    const DATA_BYTES: u64 = 1536 << 10;
    let ((), seconds) = thrice(|| {
        let mut hierarchy = Hierarchy::new(&HierarchyConfig::paper(policy));
        let mut x = 0x9e37_79b9_7f4a_7c15 ^ seed;
        timed(meter, &format!("cache.hier_access.{policy}"), || {
            for i in 0..HIER_ACCESSES {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let request = if i % 4 == 0 {
                    let offset = (x % CODE_BYTES) & !3;
                    let temperature = Temperature::ALL[(offset * 3 / CODE_BYTES) as usize];
                    let pc = CODE_BASE + offset;
                    MemoryRequest::fetch(PhysAddr::new(pc), VirtAddr::new(pc))
                        .with_temperature(Some(temperature))
                } else {
                    let addr = (DATA_BASE + x % DATA_BYTES) & !7;
                    MemoryRequest::load(PhysAddr::new(addr), VirtAddr::new(CODE_BASE + (x & 0xffc)))
                };
                black_box(hierarchy.access(black_box(&request)));
            }
        })
    });
    ns_per(seconds, HIER_ACCESSES)
}

fn file_len(path: &Path) -> u64 {
    fs::metadata(path).unwrap_or_else(|e| panic!("stat {}: {e}", path.display())).len()
}

/// Compressed over raw bytes the `pack.*` counters saw between two
/// snapshots.
fn pack_ratio(delta: &CounterSnapshot) -> f64 {
    ratio(delta.get("pack.compressed_bytes"), delta.get("pack.raw_bytes"))
}

/// Runs the whole budget. Returns every per-layer metric that does not
/// belong to a workload's own repetition, and the identity checks it
/// made (C ≡ D ≡ E, restored ≡ simulated, sharded ≡ unsharded ≡ cold).
pub fn budget(ctx: &Ctx, meter: &mut Meter) -> (BTreeMap<String, f64>, Checker) {
    let mut metrics: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        metrics.insert(name.to_owned(), value);
    };
    let mut checker = Checker::identity_only();
    let dir = ctx.work_dir.join("budget");
    fs::create_dir_all(&dir).expect("create budget scratch");

    let spec = seeded_proxy("gcc", ctx.seed);
    let mut config = SimConfig::paper(PolicyKind::Trrip1);
    config.instructions = 1_000_000;
    let config = shorten(config, ctx.smoke);
    let (ff, measured) = (config.fast_forward, config.instructions);
    let total = ff + measured;
    let ff_len = ff as usize;

    // ---- sim: prepare (compiler + os + program builder).
    let (workload, prepare_s) = thrice(|| {
        timed(meter, "sim.prepare", || {
            PreparedWorkload::prepare(&spec, config.train_instructions, config.classifier)
        })
    });
    put("sim.prepare_s", prepare_s);
    let walker = || {
        let object = workload.object(config.layout);
        TraceGenerator::new(&workload.program, object, &workload.spec, InputSet::Eval)
    };

    // ---- workloads: the walker on its own (drain and count).
    let before = trrip_obs::snapshot();
    let (count, walk_s) = thrice(|| {
        timed(meter, "workloads.walk", || walker().take(total as usize).map(black_box).count())
    });
    assert_eq!(count as u64, total);
    let walked = trrip_obs::snapshot().since(&before);
    let (memo_hit, memo_miss) = (walked.get("walk.bb_memo.hit"), walked.get("walk.bb_memo.miss"));
    put("workloads.walk_standalone_ns_per_instr", ns_per(walk_s, total));
    put("workloads.bb_memo_hit_ratio", ratio(memo_hit, memo_hit + memo_miss));
    let instrs: Vec<TraceInstr> = walker().take(total as usize).collect();

    // ---- trace + pack: capture.
    let trace_path = dir.join("gcc.trrip");
    let before = trrip_obs::snapshot();
    let (meta, capture_s) = thrice(|| {
        let _ = fs::remove_file(&trace_path);
        timed(meter, "trace.capture", || {
            capture_trace(&workload, &config, &trace_path).expect("capture gcc")
        })
    });
    assert_eq!(meta.instructions, total);
    let captured = trrip_obs::snapshot().since(&before);
    put("trace.capture_ns_per_instr", ns_per(capture_s, total));
    put("trace.writer_ns_per_instr", ns_per(capture_s - walk_s, total));
    put("trace.bytes_per_instr", file_len(&trace_path) as f64 / total as f64);
    put("pack.trace_ratio", pack_ratio(&captured));

    // ---- trace: decode on its own, and a seek 90% in.
    let (count, decode_s) = thrice(|| {
        timed(meter, "trace.decode", || {
            let replay = StreamingReplay::open(&trace_path).expect("open capture");
            let mut stream = SourceIter::new(replay);
            let mut count = 0;
            loop {
                let slice = black_box(stream.next_slice(usize::MAX));
                if slice.is_empty() {
                    break count;
                }
                count += slice.len() as u64;
            }
        })
    });
    assert_eq!(count, total);
    put("trace.decode_standalone_ns_per_instr", ns_per(decode_s, total));
    let (first, seek_s) = thrice(|| {
        timed(meter, "trace.seek_open", || {
            let replay = StreamingReplay::open_at(&trace_path, total * 9 / 10).expect("seek");
            SourceIter::new(replay).next_slice(usize::MAX).len()
        })
    });
    assert!(first > 0, "a seek 90% in still has instructions to deliver");
    put("trace.seek_open_ms", 1e3 * seek_s);

    // ---- the substitution budget. D, C, E, B and D-with-spans run back
    // to back inside each round, so a drift in the host's speed falls on
    // all of them alike; each figure is the median over the rounds.
    let (mut ff_s, mut d_s, mut c_s, mut e_s, mut b_s, mut spans_on_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let before = trrip_obs::snapshot();
    for _ in 0..ROUNDS {
        let (result, ff, d) = run_phases(meter, &workload, &config, walker(), "walker");
        checker.check("budget/gcc/TRRIP-1", digest::of_cell(&result));
        ff_s.push(ff);
        d_s.push(d);
        let vector = VecSource::new(instrs.clone(), BATCH);
        let (result, _, c) = run_phases(meter, &workload, &config, vector, "mem");
        checker.check("budget/gcc/TRRIP-1", digest::of_cell(&result));
        c_s.push(c);
        let replay = StreamingReplay::open(&trace_path).expect("open capture");
        let (result, _, e) = run_phases(meter, &workload, &config, replay, "replay");
        checker.check("budget/gcc/TRRIP-1", digest::of_cell(&result));
        e_s.push(e);
        let mut core = Core::new(config.core, FlatBackend::all_hits());
        let window = instrs[ff_len..].iter().copied();
        let (result, b) = timed(meter, "cpu.core_flat", || core.run(window));
        assert_eq!(result.instructions, measured);
        b_s.push(b);
        trrip_obs::set_spans_enabled(true);
        spans_on_s.push(run_phases(meter, &workload, &config, walker(), "walker.spans_on").2);
        trrip_obs::set_spans_enabled(false);
    }
    let fastpath = trrip_obs::snapshot().since(&before);
    let (hit, bail) =
        (fastpath.get("cache.l1_fastpath_hit"), fastpath.get("cache.l1_fastpath_bail"));
    put("cache.l1_fastpath_hit_ratio", ratio(hit, hit + bail));
    let (d_s, c_s, e_s, b_s) = (median(&d_s), median(&c_s), median(&e_s), median(&b_s));
    put("sim.fast_forward_ns_per_instr", ns_per(median(&ff_s), ff));
    put("sim.measure_walker_ns_per_instr", ns_per(d_s, measured));
    put("sim.measure_mem_ns_per_instr", ns_per(c_s, measured));
    put("sim.measure_replay_ns_per_instr", ns_per(e_s, measured));
    put("cpu.core_flat_ns_per_instr", ns_per(b_s, measured));
    put("workloads.walk_inloop_ns_per_instr", ns_per(d_s - c_s, measured));
    put("cache.memsys_ns_per_instr", ns_per(c_s - b_s, measured));
    put("trace.decode_inloop_ns_per_instr", ns_per(e_s - c_s, measured));
    put("obs.spans_overhead_pct", 100.0 * (median(&spans_on_s) - d_s) / d_s);
    // Overlap and cache effects the substitution hides: how far the
    // walker's stand-alone cost plus C is from D.
    put("sim.budget_gap_pct", 100.0 * (walk_s * measured as f64 / total as f64 + c_s - d_s) / d_s);

    // ---- policies: C under each of the nine, all in the same setting
    // (the rounds above interleave C with other work, so their C is not
    // comparable with a policy measured on its own).
    let mut by_policy: Vec<(PolicyKind, SimResult)> = Vec::new();
    for policy in PolicyKind::PAPER_SET {
        let policy_config = config.clone().with_policy(policy);
        let (result, seconds) = thrice(|| {
            let vector = VecSource::new(instrs.clone(), BATCH);
            let (cell, _, seconds) = run_phases(meter, &workload, &policy_config, vector, "mem");
            (cell, seconds)
        });
        put(
            &format!("policies.host_ns_per_instr.{}", spec::policy_slug(policy)),
            ns_per(seconds, measured),
        );
        by_policy.push((policy, result));
    }

    // ---- the model, from the same runs (gcc alone).
    let result_of = |policy| &by_policy.iter().find(|(p, _)| *p == policy).expect("swept").1;
    let srrip = result_of(PolicyKind::Srrip);
    let trrip1 = result_of(PolicyKind::Trrip1);
    let mpki = |misses: u64| misses as f64 * 1e3 / measured as f64;
    for (suffix, result) in [("srrip", srrip), ("trrip1", trrip1)] {
        put(&format!("cpu.ipc.{suffix}"), result.core.ipc());
        put(
            &format!("cpu.frontend_bound_pct.{suffix}"),
            100.0 * result.core.topdown.fraction(Some(StallClass::Ifetch)),
        );
        put(&format!("cache.l2_inst_mpki.{suffix}"), result.l2_inst_mpki());
        put(&format!("cache.l2_data_mpki.{suffix}"), result.l2_data_mpki());
    }
    put("cpu.branch_mpki", mpki(trrip1.core.mispredictions));
    put("cache.l1i_mpki", mpki(trrip1.l1i.demand_misses()));
    put("cache.l1d_mpki", mpki(trrip1.l1d.demand_misses()));
    put("cache.slc_mpki", mpki(trrip1.slc.demand_misses()));
    put("os.tlb_mpki", mpki(trrip1.tlb.misses));
    for (policy, result) in by_policy.iter().filter(|(p, _)| *p != PolicyKind::Srrip) {
        let slug = spec::policy_slug(*policy);
        put(&format!("policies.speedup_pct.{slug}"), result.speedup_vs(srrip));
        put(&format!("policies.impki_reduction_pct.{slug}"), result.inst_mpki_reduction_vs(srrip));
    }

    // ---- cache: the hierarchy alone.
    put("cache.hier_access_ns.srrip", hier_access_ns(meter, PolicyKind::Srrip, ctx.seed));
    put("cache.hier_access_ns.trrip1", hier_access_ns(meter, PolicyKind::Trrip1, ctx.seed));

    // ---- snap + sim checkpoints, at the fast-forward boundary.
    let mut warmed = SimRun::new(&workload, &config);
    warmed.fast_forward(&mut SourceIter::new(VecSource::new(instrs[..ff_len].to_vec(), BATCH)));
    let (state, save_s) = thrice(|| {
        let mut writer = SnapWriter::new();
        let ((), seconds) = timed(meter, "snap.save", || warmed.save(&mut writer));
        (writer.into_bytes(), seconds)
    });
    put("snap.save_ms", 1e3 * save_s);
    put("snap.state_bytes", state.len() as f64);
    let ((), restore_s) = thrice(|| {
        let mut fresh = SimRun::new(&workload, &config);
        let mut reader = SnapReader::new(&state);
        timed(meter, "snap.restore", || fresh.restore(&mut reader).expect("restore"))
    });
    put("snap.restore_ms", 1e3 * restore_s);
    let store = CheckpointStore::new(dir.join("ckpt"));
    fs::create_dir_all(store.dir()).expect("create checkpoint dir");
    let before = trrip_obs::snapshot();
    let (ckpt_path, ckpt_save_s) =
        thrice(|| timed(meter, "sim.ckpt_save", || store.save(&warmed).expect("save checkpoint")));
    put("sim.ckpt_save_ms", 1e3 * ckpt_save_s);
    let saved = trrip_obs::snapshot().since(&before);
    put("pack.ckpt_ratio", pack_ratio(&saved));
    put(
        "pack.fallback_raw_blocks",
        (captured.get("pack.fallback_raw") + saved.get("pack.fallback_raw")) as f64,
    );
    put("sim.ckpt_file_bytes", file_len(&ckpt_path) as f64);
    let (mut loaded, ckpt_load_s) = thrice(|| {
        timed(meter, "sim.ckpt_load", || {
            store.load(&workload, &config).expect("load checkpoint").expect("checkpoint hit")
        })
    });
    put("sim.ckpt_load_ms", 1e3 * ckpt_load_s);
    let window = VecSource::new(instrs[ff_len..].to_vec(), BATCH);
    let restored = loaded.measure(&mut SourceIter::new(window));
    checker.check("budget/gcc/TRRIP-1", digest::of_cell(&restored));

    // ---- sim: warm start — nine policies on gcc at the long-warm-up
    // shape: one populating pass, then warm passes over the same stores.
    let warm_dir = dir.join("warm");
    let flags = store_flags(&warm_dir);
    let mut flags: Vec<&str> = flags.iter().map(String::as_str).collect();
    for store_dir in ["T", "C"] {
        fs::create_dir_all(warm_dir.join(store_dir)).expect("create store dir");
    }
    let options = harness_options(ctx.jobs, &flags);
    let warm_config = longwarm_config(PolicyKind::Srrip, ctx.smoke);
    let prepared = std::slice::from_ref(&workload);
    let mut sweep = |meter: &mut Meter, options: &trrip_bench::HarnessOptions, name: &str| {
        let (result, seconds) =
            timed(meter, name, || options.sweep(prepared, &warm_config, &PolicyKind::PAPER_SET));
        for cell in &result.results {
            checker.check(&format!("warm/gcc/{}", cell.policy), digest::of_cell(cell));
        }
        ((), seconds)
    };
    let before = trrip_obs::snapshot();
    let ((), populate_s) = sweep(meter, &options, "sim.populate");
    let populated = trrip_obs::snapshot();
    let ((), warm_s) = thrice(|| sweep(meter, &options, "sim.warm_pass"));
    let after = trrip_obs::snapshot();
    put("sim.populate_s", populate_s);
    put("sim.warm_pass_s", warm_s);
    put("sim.warm_speedup", populate_s / warm_s);
    let warm = after.since(&populated);
    put(
        "sim.ckpt_hit_ratio",
        ratio(warm.get("ckpt.hit"), warm.get("ckpt.hit") + warm.get("ckpt.miss")),
    );
    let both = after.since(&before);
    for rung in ["full_restore", "overlay_restore", "tail_replay", "recorded_warmup", "cold_warmup"]
    {
        put(&format!("sim.warm.{rung}"), both.get(&format!("warm.{rung}")) as f64);
    }

    // ---- sim: the same warm pass cut into four segments. The first
    // sharded pass writes the segment checkpoints; the timed ones chain
    // through them.
    flags.extend(["--shards", "4"]);
    let sharded = harness_options(ctx.jobs, &flags);
    sweep(meter, &sharded, "sim.shard4_populate");
    let (last, shard_s) = thrice(|| {
        let before = trrip_obs::snapshot();
        let ((), seconds) = sweep(meter, &sharded, "sim.shard4_warm_pass");
        (before, seconds)
    });
    put("sim.shard4_warm_pass_s", shard_s);
    let pass = trrip_obs::snapshot().since(&last);
    for route in ["live_handoff", "disk_dispatch", "cold_fallback"] {
        put(&format!("sim.shard.{route}"), pass.get(&format!("shard.{route}")) as f64);
    }

    (metrics, checker)
}
