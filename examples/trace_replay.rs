//! Capture, then replay: record a workload's instruction trace to disk,
//! then drive the simulator from the file instead of the walker — with
//! bit-identical results.
//!
//! ```text
//! cargo run --release --example trace_replay
//! ```

use trrip::core::ClassifierConfig;
use trrip::policies::PolicyKind;
use trrip::sim::{
    capture_length, capture_trace, simulate, simulate_source, PreparedWorkload, SimConfig,
};
use trrip::workloads::WorkloadSpec;
use trrip_trace::StreamingReplay;

fn main() {
    let mut spec = WorkloadSpec::named("replay-demo");
    spec.functions = 120;
    spec.hot_rotation = 24;
    let mut config = SimConfig::quick(PolicyKind::Trrip1);
    config.instructions = 200_000;
    config.fast_forward = 20_000;

    println!("preparing workload (synthesis + training run)…");
    let workload = PreparedWorkload::prepare(
        &spec,
        config.train_instructions,
        ClassifierConfig::llvm_defaults(),
    );

    // 1. Capture the eval trace (fast-forward + measured window).
    let dir = std::env::temp_dir().join("trrip-replay-example");
    let path = dir.join("replay-demo.trrip");
    capture_trace(&workload, &config, &path).expect("capture");
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    println!(
        "captured {} instructions to {} ({bytes} bytes, {:.2} B/instr)",
        capture_length(&config),
        path.display(),
        bytes as f64 / capture_length(&config) as f64,
    );

    // 2. Replay from disk; results are bit-identical to the walker.
    let from_walker = simulate(&workload, &config);
    let replay = StreamingReplay::open(&path).expect("open capture");
    let from_disk = simulate_source(&workload, &config, replay);
    assert!(from_walker == from_disk, "the replay differs from the walker");
    println!(
        "replayed: IPC {:.3}, L2 I-MPKI {:.3} — identical to the in-memory walker",
        from_disk.core.ipc(),
        from_disk.l2_inst_mpki(),
    );

    std::fs::remove_dir_all(&dir).ok();
}
