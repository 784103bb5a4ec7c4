//! Wall-clock + footprint benchmark of **compression wherever bytes
//! rest**: the `trrip-pack` codec over trace chunks, checkpoint
//! containers, and the budget-aware store.
//!
//! Reported metrics:
//!
//! * **trace footprint** — capture bytes per instruction and the
//!   compressed/raw payload ratio (from the `pack.{raw,compressed}_bytes`
//!   counters the codec feeds);
//! * **checkpoint footprint** — the same ratio across the full ten-policy
//!   checkpoint suite (full containers, shared prefix, per-policy
//!   overlays), plus the store's on-disk size;
//! * **per-section-kind ratios** — what each codec buys on the payload
//!   shapes it was picked for: RLE on bitmap runs, delta on sorted tag
//!   arrays, LZ on repetitive code-like bytes, and the raw fallback on
//!   incompressible noise;
//! * **codec throughput** — `pack_stream`/`unpack_stream` MB/s over a
//!   mixed corpus;
//! * **warm-sweep delta** — wall time of a warm eight-policy sweep
//!   through compressed traces and checkpoints, against the in-memory
//!   walker sweep of the same cells (which walks each workload once
//!   since PR 12; `BENCH_pack.json` entries older than that divide by a
//!   walker sweep that walked once per cell).
//!
//! Every sweep result is asserted bit-identical across the walker, the
//! cold (populating) and the warm (restoring) engines, for all ten
//! policies — the compression layer must be architecturally invisible.
//!
//! Results append to `BENCH_pack.json` under `--out`
//! (`scripts/bench_pack.sh` points `--out` at the repo root).
//!
//! `--smoke` (CI) shrinks the run, asserts the footprint ratios hold
//! (trace ≤ 0.60×, checkpoint ≤ 0.55× of raw) and the pack counters
//! move, exercises the budgeted gc, and skips the JSON append.

use std::time::Instant;

use trrip_bench::{append_trajectory, HarnessOptions, USAGE};
use trrip_core::ClassifierConfig;
use trrip_policies::PolicyKind;
use trrip_sim::{
    policy_sweep_with, replay_sweep, CheckpointStore, PreparedWorkload, SimConfig, SimResult,
    TraceStore,
};
use trrip_workloads::WorkloadSpec;

/// Every policy the simulator can run — the checkpoint suite writes one
/// full container + one overlay per policy, plus one shared prefix.
const ALL_POLICIES: [PolicyKind; 10] = [
    PolicyKind::Srrip,
    PolicyKind::Lru,
    PolicyKind::Random,
    PolicyKind::Brrip,
    PolicyKind::Drrip,
    PolicyKind::Ship,
    PolicyKind::Clip,
    PolicyKind::Emissary,
    PolicyKind::Trrip1,
    PolicyKind::Trrip2,
];

/// The timed warm sweep runs the paper's eight-policy comparison set.
const WARM_POLICIES: [PolicyKind; 8] = [
    PolicyKind::Srrip,
    PolicyKind::Brrip,
    PolicyKind::Drrip,
    PolicyKind::Ship,
    PolicyKind::Clip,
    PolicyKind::Emissary,
    PolicyKind::Trrip1,
    PolicyKind::Trrip2,
];

fn workload() -> PreparedWorkload {
    let mut spec = WorkloadSpec::named("pack-bench");
    spec.functions = 120;
    spec.hot_rotation = 30;
    PreparedWorkload::prepare(&spec, 100_000, ClassifierConfig::llvm_defaults())
}

/// A bitmap-shaped payload: the long valid/dirty runs RLE exists for.
fn bitmap_payload(len: usize) -> Vec<u8> {
    (0..len).map(|i| if (i / 517) % 3 == 0 { 0xFF } else { 0x00 }).collect()
}

/// A tag-array-shaped payload: sorted line addresses at cache-line
/// stride with occasional region jumps — the delta codec's home turf.
fn tag_array_payload(words: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(words * 8);
    let mut addr = 0x8000_0000u64;
    for i in 0..words {
        addr += if i % 97 == 0 { 0x1_0000 } else { 64 };
        out.extend_from_slice(&addr.to_le_bytes());
    }
    out
}

/// A code-like payload: a repeating instruction-ish pattern with slowly
/// varying operand bytes — LZ matches across the repetitions.
fn code_payload(len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    let mut i = 0u64;
    while out.len() < len {
        out.extend_from_slice(&[0x48, 0x8B, 0x05, (i % 7) as u8, 0x00, 0x00, 0x00, 0xC3]);
        out.extend_from_slice(&(0x40_0000 + (i / 3) * 16).to_le_bytes());
        i += 1;
    }
    out.truncate(len);
    out
}

/// Incompressible noise: the raw-fallback path must engage, never grow.
fn noise_payload(len: usize) -> Vec<u8> {
    let mut x = 0x0123_4567_89ab_cdefu64;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x & 0xFF) as u8
        })
        .collect()
}

/// Compression ratio (and chosen codec) of one payload through the
/// auto-selector.
fn section_ratio(payload: &[u8]) -> (f64, &'static str) {
    let mut out = Vec::new();
    let codec = trrip_pack::compress_auto(payload, &mut out);
    (out.len() as f64 / payload.len().max(1) as f64, codec.name())
}

fn assert_identical(a: &SimResult, b: &SimResult, what: &str) {
    assert_eq!(a.core, b.core, "{what}: core results diverge");
    assert_eq!(a.l1i, b.l1i, "{what}: L1-I stats diverge");
    assert_eq!(a.l1d, b.l1d, "{what}: L1-D stats diverge");
    assert_eq!(a.l2, b.l2, "{what}: L2 stats diverge");
    assert_eq!(a.slc, b.slc, "{what}: SLC stats diverge");
    assert_eq!(a.tlb, b.tlb, "{what}: TLB stats diverge");
    assert_eq!(a.pages, b.pages, "{what}: page stats diverge");
}

#[allow(clippy::too_many_lines)]
fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    args.retain(|a| a != "--smoke");
    let options = match HarnessOptions::try_parse(args) {
        Ok(Some(options)) => options,
        Ok(None) => {
            println!("{USAGE}\n  --smoke          quick CI correctness pass (no JSON append)");
            return;
        }
        Err(message) => {
            eprintln!("error: {message}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(message) = options.validate_dirs() {
        eprintln!("error: {message}\n\n{USAGE}");
        std::process::exit(2);
    }
    if let Err(message) = options.apply_observability() {
        eprintln!("error: {message}\n\n{USAGE}");
        std::process::exit(2);
    }
    let obs = options.obs_session("bench_pack");
    let workload = workload();
    let mut config = SimConfig::quick(PolicyKind::Trrip1);
    if smoke {
        config.fast_forward = 20_000;
        config.instructions = 80_000;
    } else {
        config.fast_forward = 100_000 * options.scale;
        config.instructions = 400_000 * options.scale;
    }

    let scratch = std::env::temp_dir().join("trrip-bench-pack");
    std::fs::remove_dir_all(&scratch).ok();
    let trace_dir = scratch.join("traces");
    let ckpt_dir = scratch.join("ckpts");
    std::fs::create_dir_all(&trace_dir).expect("trace dir");
    std::fs::create_dir_all(&ckpt_dir).expect("ckpt dir");

    // --- Trace footprint: one capture, counter-exact payload ratio. ---
    trrip_obs::progress!("trace capture: {} instructions…", {
        config.fast_forward + config.instructions
    });
    let before = trrip_obs::snapshot();
    let trace_path = scratch.join("capture.trrip");
    trrip_sim::capture::capture_trace(&workload, &config, &trace_path).expect("capture");
    let delta = trrip_obs::snapshot().since(&before);
    let trace_file_bytes = std::fs::metadata(&trace_path).expect("capture meta").len();
    let capture_instrs = trrip_sim::capture::capture_length(&config);
    let trace_bytes_per_instr = trace_file_bytes as f64 / capture_instrs as f64;
    let (raw, comp) = (delta.get("pack.raw_bytes"), delta.get("pack.compressed_bytes"));
    let trace_ratio = comp as f64 / raw.max(1) as f64;
    std::fs::remove_file(&trace_path).ok();

    // --- Per-section-kind ratios. ---
    let section_len = if smoke { 256 * 1024 } else { 1024 * 1024 };
    let bitmap = bitmap_payload(section_len);
    let tags = tag_array_payload(section_len / 8);
    let code = code_payload(section_len);
    let noise = noise_payload(section_len);
    let (bitmap_ratio, bitmap_codec) = section_ratio(&bitmap);
    let (tags_ratio, tags_codec) = section_ratio(&tags);
    let (code_ratio, code_codec) = section_ratio(&code);
    let (noise_ratio, noise_codec) = section_ratio(&noise);

    // --- Codec throughput over the mixed corpus. ---
    let corpus: Vec<u8> =
        [bitmap.as_slice(), tags.as_slice(), code.as_slice(), noise.as_slice()].concat();
    let reps = if smoke { 3 } else { 10 };
    let mut compress_s = f64::INFINITY;
    let mut decompress_s = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        let packed = trrip_pack::pack_stream(&corpus);
        compress_s = compress_s.min(start.elapsed().as_secs_f64());
        let start = Instant::now();
        let unpacked = trrip_pack::unpack_stream(&packed).expect("unpack");
        decompress_s = decompress_s.min(start.elapsed().as_secs_f64());
        assert_eq!(unpacked, corpus, "corpus must round-trip");
    }
    let mb = corpus.len() as f64 / 1e6;
    let compress_mb_s = mb / compress_s.max(1e-12);
    let decompress_mb_s = mb / decompress_s.max(1e-12);

    // --- Checkpoint suite: ten policies, counter-exact ratio. ---
    trrip_obs::progress!("checkpoint suite: {} policies…", ALL_POLICIES.len());
    let workloads = [workload];
    let traces = TraceStore::new(&trace_dir);
    let ckpts = CheckpointStore::new(&ckpt_dir);
    let walked = policy_sweep_with(options.jobs, &workloads, &config, &ALL_POLICIES);
    // Captures land first, on the side of a sweep with no checkpoint
    // store (their compression is the trace ratio above); the counter
    // window around the cold sweep then isolates checkpoint compression.
    let stored = |policies: &[PolicyKind], ckpts: Option<&CheckpointStore>| {
        replay_sweep(options.jobs, &workloads, &config, policies, &traces, ckpts)
    };
    let teed = stored(&ALL_POLICIES, None);
    let before = trrip_obs::snapshot();
    let cold = stored(&ALL_POLICIES, Some(&ckpts));
    let delta = trrip_obs::snapshot().since(&before);
    let (ckpt_raw, ckpt_comp) = (delta.get("pack.raw_bytes"), delta.get("pack.compressed_bytes"));
    let ckpt_ratio = ckpt_comp as f64 / ckpt_raw.max(1) as f64;
    let ckpt_store_bytes = ckpts.size_bytes();
    let warm = stored(&ALL_POLICIES, Some(&ckpts));
    for ((a, b), c) in walked.results.iter().zip(&teed.results).zip(&cold.results) {
        assert_identical(a, b, &format!("{}: capturing sweep vs walker", a.policy));
        assert_identical(a, c, &format!("{}: cold checkpointed vs walker", a.policy));
    }
    for (a, c) in walked.results.iter().zip(&warm.results) {
        assert_identical(a, c, &format!("{}: warm checkpointed vs walker", a.policy));
    }

    // --- Warm-sweep delta: eight policies, warm engine vs walker. ---
    trrip_obs::progress!("warm sweep timing: {} policies…", WARM_POLICIES.len());
    let start = Instant::now();
    let _ = stored(&WARM_POLICIES, Some(&ckpts));
    let warm_sweep_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let _ = policy_sweep_with(options.jobs, &workloads, &config, &WARM_POLICIES);
    let walker_sweep_s = start.elapsed().as_secs_f64();
    let warm_speedup = walker_sweep_s / warm_sweep_s.max(1e-12);

    // --- Budgeted gc: shrink the suite to half its size, live. ---
    let evicted_before = trrip_obs::counter!("ckpt.evicted_files").value();
    let budget = ckpt_store_bytes / 2;
    let report = ckpts.gc_budget(budget).expect("gc_budget");
    let evicted = trrip_obs::counter!("ckpt.evicted_files").value() - evicted_before;
    assert!(ckpts.size_bytes() <= budget, "budgeted gc must converge under its budget");

    println!(
        "pack, {} warmup / {} measured instructions:",
        config.fast_forward, config.instructions
    );
    println!(
        "  trace capture:      {trace_file_bytes} B, {trace_bytes_per_instr:.2} B/instr  \
         (payload {trace_ratio:.3}x raw)"
    );
    println!("  section bitmap:     {bitmap_ratio:.3}x  ({bitmap_codec})");
    println!("  section tag array:  {tags_ratio:.3}x  ({tags_codec})");
    println!("  section code-like:  {code_ratio:.3}x  ({code_codec})");
    println!("  section noise:      {noise_ratio:.3}x  ({noise_codec})");
    println!(
        "  codec throughput:   {compress_mb_s:.0} MB/s compress, \
         {decompress_mb_s:.0} MB/s decompress"
    );
    println!("  checkpoint suite:   {ckpt_store_bytes} B on disk  (payload {ckpt_ratio:.3}x raw)");
    println!(
        "  warm sweep (8):     {warm_sweep_s:.3} s vs {walker_sweep_s:.3} s walker  \
         ({warm_speedup:.2}x)"
    );
    println!(
        "  budgeted gc:        {} file(s) evicted to fit {budget} B, store now {} B",
        report.removed_files,
        ckpts.size_bytes()
    );

    if smoke {
        assert!(raw > 0, "trace capture fed no bytes through the codec");
        assert!(comp < raw, "trace payloads did not compress");
        assert!(
            trace_ratio <= 0.60,
            "trace payload ratio {trace_ratio:.3} exceeds the 0.60x footprint bar"
        );
        assert!(ckpt_raw > 0, "checkpoint suite fed no bytes through the codec");
        assert!(
            ckpt_ratio <= 0.55,
            "checkpoint payload ratio {ckpt_ratio:.3} exceeds the 0.55x footprint bar"
        );
        assert!(bitmap_ratio < 0.10, "RLE on bitmap runs should be drastic: {bitmap_ratio:.3}");
        assert!(tags_ratio < 0.40, "delta on sorted tags should bite: {tags_ratio:.3}");
        assert!(code_ratio < 0.60, "LZ on repetitive code should bite: {code_ratio:.3}");
        assert!(noise_ratio <= 1.01, "the raw fallback must never grow: {noise_ratio:.3}");
        assert!(evicted > 0, "the budgeted gc evicted nothing from an over-budget store");
        println!(
            "smoke OK: trace {trace_ratio:.3}x, checkpoints {ckpt_ratio:.3}x, \
             counters moved, budgeted gc converged"
        );
        std::fs::remove_dir_all(&scratch).ok();
        obs.finish(&[
            ("trace_bytes_per_instr", trace_bytes_per_instr),
            ("ckpt_compress_ratio", ckpt_ratio),
        ]);
        return;
    }

    std::fs::remove_dir_all(&scratch).ok();
    std::fs::create_dir_all(&options.out_dir).expect("create out dir");
    let json_path = options.out_dir.join("BENCH_pack.json");
    let entry = format!(
        "  {{\n    \"bench\": \"pack\",\n    \
         \"fast_forward\": {ff},\n    \"measured_instructions\": {measured},\n    \
         \"trace_bytes_per_instr\": {trace_bytes_per_instr:.3},\n    \
         \"trace_compress_ratio\": {trace_ratio:.4},\n    \
         \"ckpt_compress_ratio\": {ckpt_ratio:.4},\n    \
         \"ckpt_store_bytes\": {ckpt_store_bytes},\n    \
         \"section_bitmap_ratio\": {bitmap_ratio:.4},\n    \
         \"section_tag_array_ratio\": {tags_ratio:.4},\n    \
         \"section_code_ratio\": {code_ratio:.4},\n    \
         \"section_noise_ratio\": {noise_ratio:.4},\n    \
         \"compress_mb_s\": {compress_mb_s:.1},\n    \
         \"decompress_mb_s\": {decompress_mb_s:.1},\n    \
         \"warm_sweep_s\": {warm_sweep_s:.4},\n    \
         \"walker_sweep_s\": {walker_sweep_s:.4},\n    \
         \"warm_vs_walker_speedup\": {warm_speedup:.3}\n  }}",
        ff = config.fast_forward,
        measured = config.instructions,
    );
    append_trajectory(&json_path, &entry);
    trrip_obs::progress!("trajectory appended to {}", json_path.display());
    obs.finish(&[
        ("trace_bytes_per_instr", trace_bytes_per_instr),
        ("trace_compress_ratio", trace_ratio),
        ("ckpt_compress_ratio", ckpt_ratio),
        ("compress_mb_s", compress_mb_s),
        ("decompress_mb_s", decompress_mb_s),
    ]);
}
