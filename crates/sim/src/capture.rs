//! Trace capture, and the fingerprint every store key carries.
//!
//! [`capture_trace`] records the CFG walker's eval-input stream for one
//! `(workload, layout, run length)` into the `trrip-trace` binary format,
//! for [`crate::simulate_source`], the ruler's layer probes and anything
//! else that wants a stream at rest. No sweep reads or writes one: a sweep
//! walks, and keeps the walker's position at the fast-forward boundary in
//! the shared prefix instead ([`crate::checkpoint`]).
//! [`workload_fingerprint`] names what a stream is a function of, so
//! that no two streams share a prefix or an overlay, and
//! [`spec_fingerprint`] what a training profile is, so that no two specs
//! share one.

use std::path::Path;

use trrip_compiler::LayoutKind;
use trrip_trace::{TraceError, TraceLayout, TraceMeta};
use trrip_workloads::{InputSet, TraceGenerator, WorkloadSpec};

use crate::config::SimConfig;
use crate::prepare::PreparedWorkload;

/// The trace-layout tag for a simulator layout choice.
#[must_use]
pub fn trace_layout(layout: LayoutKind) -> TraceLayout {
    match layout {
        LayoutKind::SourceOrder => TraceLayout::SourceOrder,
        LayoutKind::Pgo => TraceLayout::Pgo,
    }
}

/// Instructions a capture for `config` must hold: the fast-forward
/// prefix plus the measured window, as one contiguous stream.
#[must_use]
pub fn capture_length(config: &SimConfig) -> u64 {
    config.fast_forward + config.instructions
}

/// The walker over `workload`'s eval input under `config.layout`: the
/// stream every sweep and every storeless run pulls, and every capture
/// records.
#[must_use]
pub(crate) fn eval_walker<'w>(
    workload: &'w PreparedWorkload,
    config: &SimConfig,
) -> TraceGenerator<'w> {
    let object = workload.object(config.layout);
    TraceGenerator::new(&workload.program, object, &workload.spec, InputSet::Eval)
}

/// Captures the eval-input trace of `workload` under `config.layout` to
/// `path`, exactly long enough to drive one [`crate::simulate_source`]
/// run of `config`. The file is written beside `path` and renamed into
/// place, so a reader sees a whole capture or none.
///
/// # Errors
///
/// Propagates I/O failures from the writer and from the final rename;
/// either way the temp file is removed and `path` is left as it was.
pub fn capture_trace(
    workload: &PreparedWorkload,
    config: &SimConfig,
    path: &Path,
) -> Result<TraceMeta, TraceError> {
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    let written = trrip_trace::create(&tmp, &workload.spec.name, trace_layout(config.layout))
        .map_err(TraceError::from)
        .and_then(|mut writer| {
            let length = usize::try_from(capture_length(config)).unwrap_or(usize::MAX);
            writer.write_all(eval_walker(workload, config).take(length))?;
            Ok(writer.finish()?)
        })
        .and_then(|meta| std::fs::rename(&tmp, path).map(|()| meta).map_err(TraceError::from));
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

/// Identifies everything `workload`'s eval stream under `config.layout`
/// depends on beyond `(name, layout, length)`: the object's exact code
/// placement (classifier thresholds move functions between sections,
/// changing every PC) and the whole spec the program and the walk are
/// built from. Every prefix and overlay is keyed by it: two workloads
/// with different fingerprints never share a file.
#[must_use]
pub fn workload_fingerprint(workload: &PreparedWorkload, config: &SimConfig) -> u64 {
    let mut fold = Fold::new();
    let object = workload.object(config.layout);
    for section in &object.sections {
        fold.mix(section.base.raw());
        fold.mix(section.size_bytes);
    }
    for addrs in &object.block_addrs {
        fold.mix(addrs.len() as u64);
        for addr in addrs {
            fold.mix(addr.raw());
        }
    }
    for addr in object.plt_addrs.iter().chain(&object.external_addrs) {
        fold.mix(addr.raw());
    }
    fold.spec(&workload.spec);
    fold.0
}

/// Identifies the whole spec a program and its walks are built from:
/// what a training profile is a function of, beside the length of the
/// training run. [`workload_fingerprint`] folds the same words in after
/// the code placement.
#[must_use]
pub fn spec_fingerprint(spec: &WorkloadSpec) -> u64 {
    let mut fold = Fold::new();
    fold.spec(spec);
    fold.0
}

/// The fingerprints' running hash.
struct Fold(u64);

impl Fold {
    fn new() -> Fold {
        Fold(0xCBF2_9CE4_8422_2325)
    }

    fn mix(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        self.0 ^= self.0 >> 31;
    }

    fn spec(&mut self, spec: &WorkloadSpec) {
        let mut mix = |v: u64| self.mix(v);
        // No `..`: a field added to the spec does not compile until it
        // is keyed here.
        let WorkloadSpec {
            name,
            train_input,
            eval_input,
            paper_fast_forward,
            functions,
            avg_function_bytes,
            hot_rotation,
            cold_visit_prob,
            external_functions,
            avg_external_bytes,
            external_call_prob,
            call_prob,
            call_locality,
            indirect_call_prob,
            dispatch_prob,
            loop_iterations,
            static_data_bytes,
            load_density,
            store_density,
            hot_data_bytes,
            warm_data_bytes,
            cold_data_bytes,
            data_hot_frac,
            data_warm_frac,
            scan_block_frac,
            cold_reuse_frac,
            depend_stall_prob,
            depend_stall_cycles,
            issue_stall_prob,
            issue_stall_cycles,
            train_seed,
            eval_seed,
            input_shift,
            structure_seed,
        } = spec;
        for text in [name, train_input, eval_input] {
            mix(text.len() as u64);
            text.bytes().for_each(|b| mix(u64::from(b)));
        }
        for word in [
            paper_fast_forward.to_bits(),
            *functions as u64,
            u64::from(*avg_function_bytes),
            *hot_rotation as u64,
            cold_visit_prob.to_bits(),
            *external_functions as u64,
            *avg_external_bytes,
            external_call_prob.to_bits(),
            call_prob.to_bits(),
            call_locality.to_bits(),
            indirect_call_prob.to_bits(),
            dispatch_prob.to_bits(),
            loop_iterations.to_bits(),
            *static_data_bytes,
            u64::from(load_density.to_bits()),
            u64::from(store_density.to_bits()),
            *hot_data_bytes,
            *warm_data_bytes,
            *cold_data_bytes,
            u64::from(data_hot_frac.to_bits()),
            u64::from(data_warm_frac.to_bits()),
            scan_block_frac.to_bits(),
            u64::from(cold_reuse_frac.to_bits()),
            u64::from(depend_stall_prob.to_bits()),
            u64::from(*depend_stall_cycles),
            u64::from(issue_stall_prob.to_bits()),
            u64::from(*issue_stall_cycles),
            *train_seed,
            *eval_seed,
            input_shift.to_bits(),
            *structure_seed,
        ] {
            mix(word);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trrip_core::ClassifierConfig;
    use trrip_policies::PolicyKind;
    use trrip_trace::StreamingReplay;

    fn quick_spec() -> WorkloadSpec {
        let mut spec = WorkloadSpec::named("capture-test");
        spec.functions = 50;
        spec.hot_rotation = 8;
        spec
    }

    fn quick_workload() -> PreparedWorkload {
        PreparedWorkload::prepare(&quick_spec(), 100_000, ClassifierConfig::llvm_defaults())
    }

    fn quick_config() -> SimConfig {
        let mut c = SimConfig::quick(PolicyKind::Srrip);
        c.fast_forward = 5_000;
        c.instructions = 40_000;
        c
    }

    #[test]
    fn capture_writes_matching_metadata() {
        let dir = std::env::temp_dir().join("trrip-capture-meta-test");
        let w = quick_workload();
        let config = quick_config();
        let path = dir.join("t.trrip");
        let meta = capture_trace(&w, &config, &path).expect("capture");
        assert_eq!(meta.instructions, capture_length(&config));
        assert_eq!(meta.name, "capture-test");
        let header = StreamingReplay::open(&path).expect("open").meta().clone();
        assert_eq!(header, meta);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_rename_that_fails_leaves_the_out_dir_as_it_was() {
        let dir = std::env::temp_dir().join("trrip-capture-rename-test");
        std::fs::remove_dir_all(&dir).ok();
        // A directory already sits where the capture would land.
        let path = dir.join("t.trrip");
        std::fs::create_dir_all(&path).expect("make the blocking directory");
        let err = capture_trace(&quick_workload(), &quick_config(), &path).unwrap_err();
        assert!(matches!(err, TraceError::Io(_)), "{err}");
        let left: Vec<_> =
            std::fs::read_dir(&dir).expect("list").map(|e| e.unwrap().path()).collect();
        assert_eq!(left, std::slice::from_ref(&path), "the temp file stays behind");
        assert!(path.is_dir() && std::fs::read_dir(&path).expect("list").next().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_is_bit_identical_to_walker() {
        let dir = std::env::temp_dir().join("trrip-replay-identity-test");
        std::fs::remove_dir_all(&dir).ok();
        let w = quick_workload();

        for policy in [PolicyKind::Srrip, PolicyKind::Trrip1] {
            let config = quick_config().with_policy(policy);
            let path = dir.join(format!("{policy}.trrip"));
            capture_trace(&w, &config, &path).expect("capture");
            let from_walker = crate::simulate(&w, &config);
            let replay = StreamingReplay::open(&path).expect("open");
            let from_disk = crate::simulate_source(&w, &config, replay);

            // The acceptance bar: every metric falls out of the result,
            // so equal results ⇒ bit-identical metrics.
            assert!(from_walker == from_disk, "{policy}: the replay differs from the walker");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn different_code_placement_gets_a_different_fingerprint() {
        // The fig8 hazard: same name/layout/length, but a different
        // classifier threshold moves functions between sections — and so
        // every PC of the stream — and the fingerprint that keys every
        // prefix and overlay of the stream must move with it.
        let config = quick_config();
        // Train long enough that "everything executed" (percentile 100)
        // genuinely differs from the 99th-percentile hot set — a short
        // walk executes so few functions that the two coincide.
        let prepare = |classifier| PreparedWorkload::prepare(&quick_spec(), 400_000, classifier);
        let hot_99 = prepare(ClassifierConfig::llvm_defaults());
        let hot_100 = prepare(ClassifierConfig { percentile_hot: 1.0 });
        assert_ne!(
            workload_fingerprint(&hot_99, &config),
            workload_fingerprint(&hot_100, &config),
            "different classifier configs must never share a key"
        );
        assert_eq!(workload_fingerprint(&hot_99, &config), workload_fingerprint(&hot_99, &config));
    }
}
