//! The benchmark must outlive the roadmap's deletions without being
//! edited, so it may not name any entry point scheduled for removal:
//! the named sweep engines, the ablation knobs, the placement
//! dictionary, the counter shims, the AoS twin, the old format readers.
//! This test greps the package's sources for them.

use std::fs;
use std::path::Path;

const DENIED: [&str; 16] = [
    "policy_sweep",
    "replay_sweep",
    "coordinate_worker",
    "set_miss_batching",
    "set_sorted_replay",
    "set_batch_capacity",
    "set_memoization",
    "fast_forward_replayed",
    "create_with_dict",
    "placement_dict",
    "pack_stream",
    "records_decoded",
    "warmup_counters",
    "AosCache",
    "simulate_sharded",
    "read_checkpoint",
];

fn sources(dir: &Path, out: &mut Vec<(String, String)>) {
    for entry in fs::read_dir(dir).expect("read src").flatten() {
        let path = entry.path();
        if path.is_dir() {
            sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = fs::read_to_string(&path).expect("read source");
            out.push((path.display().to_string(), text));
        }
    }
}

#[test]
fn no_source_file_names_a_denied_entry_point() {
    let mut files = Vec::new();
    sources(&Path::new(env!("CARGO_MANIFEST_DIR")).join("src"), &mut files);
    assert!(files.len() >= 5, "found only {} source files", files.len());
    for (path, text) in &files {
        for denied in DENIED {
            assert!(!text.contains(denied), "{path} names `{denied}`");
        }
    }
}
