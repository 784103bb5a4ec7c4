//! Workload preparation: the Figure 4 ①–⑤ pipeline, run once per
//! benchmark and shared across every policy in a sweep.
//!
//! It is two steps. *Training* (②–③) walks the train input over the
//! source-order binary and keeps its basic-block profile; it is nearly
//! all of a preparation's cost. *Compiling* (④–⑤) classifies functions
//! from a profile and links the PGO binary. As in the paper, the profile
//! outlives the training binary: over a checkpoint store it is kept as a
//! file of its own ([`crate::checkpoint`]), so a workload trains once per
//! store and every later preparation compiles from the kept profile, and
//! [`PreparedWorkload::recompile`] gives another classifier the same
//! profile without training again.

use trrip_compiler::{
    classify_functions, FunctionTemperatures, Linker, ObjectFile, Profile, Program,
};
use trrip_core::ClassifierConfig;
use trrip_workloads::{build_program, TraceGenerator, WorkloadSpec};

use crate::checkpoint::CheckpointStore;
use crate::experiment::report_damaged;

/// A benchmark after compilation: program, training profile, temperature
/// classification, and both linked binaries.
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedWorkload {
    /// The workload description.
    pub spec: WorkloadSpec,
    /// The synthesized program.
    pub program: Program,
    /// Basic-block counters from the instrumented training run.
    pub profile: Profile,
    /// Function temperatures under the prepared classifier config.
    pub temps: FunctionTemperatures,
    /// Non-PGO binary (source order, no temperature sections).
    pub plain_object: ObjectFile,
    /// PGO binary (Figure 5 layout, temperature program headers).
    pub pgo_object: ObjectFile,
}

impl PreparedWorkload {
    /// Runs the full pipeline: synthesize → instrument (training run of
    /// `train_instructions` on the source-order binary with the train
    /// input) → classify (Eq. 1–2 at `classifier` percentiles) → link
    /// both layouts.
    #[must_use]
    pub fn prepare(
        spec: &WorkloadSpec,
        train_instructions: u64,
        classifier: ClassifierConfig,
    ) -> PreparedWorkload {
        PreparedWorkload::prepare_with(spec, train_instructions, classifier, None)
    }

    /// [`PreparedWorkload::prepare`] over a checkpoint store: the
    /// training profile is loaded from `store` when it holds one for
    /// `(spec, train_instructions)`, and trained and saved there when it
    /// does not. A kept profile that does not load — damaged, cut, or
    /// shaped for another program — is reported (`artifact_damaged`),
    /// trained again and overwritten. The result is the same either way.
    #[must_use]
    pub fn prepare_with(
        spec: &WorkloadSpec,
        train_instructions: u64,
        classifier: ClassifierConfig,
        store: Option<&CheckpointStore>,
    ) -> PreparedWorkload {
        let program = build_program(spec);
        let plain_object = Linker::new().link_source_order(&program);
        let train = || TraceGenerator::train(&program, &plain_object, spec, train_instructions);
        let profile = match store {
            None => train(),
            Some(store) => kept_profile(store, spec, &program, train_instructions, train),
        };
        PreparedWorkload::compile(spec.clone(), program, plain_object, profile, classifier)
    }

    /// The same program and training profile, classified under
    /// `classifier` and linked again: what [`PreparedWorkload::prepare`]
    /// with `classifier` gives, without the training run.
    #[must_use]
    pub fn recompile(&self, classifier: ClassifierConfig) -> PreparedWorkload {
        PreparedWorkload::compile(
            self.spec.clone(),
            self.program.clone(),
            self.plain_object.clone(),
            self.profile.clone(),
            classifier,
        )
    }

    /// ④ Classification and ⑤ the re-optimized binary, from `profile`.
    fn compile(
        spec: WorkloadSpec,
        program: Program,
        plain_object: ObjectFile,
        profile: Profile,
        classifier: ClassifierConfig,
    ) -> PreparedWorkload {
        let temps = classify_functions(&profile, classifier);
        let pgo_object = Linker::new().link_pgo(&program, &profile, &temps);
        PreparedWorkload { spec, program, profile, temps, plain_object, pgo_object }
    }

    /// The object file for a layout choice.
    #[must_use]
    pub fn object(&self, layout: trrip_compiler::LayoutKind) -> &ObjectFile {
        match layout {
            trrip_compiler::LayoutKind::SourceOrder => &self.plain_object,
            trrip_compiler::LayoutKind::Pgo => &self.pgo_object,
        }
    }

    /// Fraction of text bytes per temperature `(hot, warm, cold)` in the
    /// PGO binary (Figure 8a).
    #[must_use]
    pub fn text_fractions(&self) -> (f64, f64, f64) {
        let size = |name: &str| self.pgo_object.section_size(name) as f64;
        let hot = size(".text.hot");
        let warm = size(".text.warm");
        let cold = size(".text.cold");
        let total = (hot + warm + cold).max(1.0);
        (hot / total, warm / total, cold / total)
    }
}

/// The training profile `store` keeps for `(spec, train_instructions)`,
/// or `train`'s, saved there for the next preparation. A file that does
/// not load is reported and overwritten; a save that fails only costs the
/// next preparation its training run.
fn kept_profile(
    store: &CheckpointStore,
    spec: &WorkloadSpec,
    program: &Program,
    train_instructions: u64,
    train: impl FnOnce() -> Profile,
) -> Profile {
    match store.load_profile(spec, program, train_instructions) {
        Ok(Some(profile)) => return profile,
        Ok(None) => {}
        Err(e) => report_damaged(&spec.name, "*", "training profile", &e, "training again"),
    }
    let profile = train();
    if let Err(e) = store.save_profile(spec, train_instructions, &profile) {
        report_damaged(&spec.name, "*", "profile save", &e, "continuing without it");
    }
    profile
}

#[cfg(test)]
mod tests {
    use super::*;
    use trrip_compiler::LayoutKind;
    use trrip_core::Temperature;

    fn quick_spec() -> WorkloadSpec {
        let mut s = WorkloadSpec::named("prep-test");
        s.functions = 80;
        s.hot_rotation = 12;
        s
    }

    #[test]
    fn pipeline_produces_all_temperatures() {
        let w =
            PreparedWorkload::prepare(&quick_spec(), 300_000, ClassifierConfig::llvm_defaults());
        let (hot, _, cold) = w.temps.histogram();
        assert!(hot > 0, "no hot functions classified");
        assert!(cold > 0, "no cold functions classified");
        assert!(w.pgo_object.section_named(".text.hot").is_some());
    }

    #[test]
    fn hot_section_holds_rotation_functions() {
        let spec = quick_spec();
        // Long enough for several full rotation passes: with the hot set
        // scattered through the id space, a fraction of one pass leaves
        // most members' counts dominated by call-graph luck.
        let w = PreparedWorkload::prepare(&spec, 1_000_000, ClassifierConfig::llvm_defaults());
        let hot = w.pgo_object.section_named(".text.hot").expect("hot section");
        // Most rotation functions (the scattered hot set) should be
        // classified hot and placed there.
        let in_hot = spec
            .hot_set()
            .into_iter()
            .filter(|&fi| hot.contains(w.pgo_object.function_addrs[fi]))
            .count();
        assert!(
            in_hot * 2 > spec.hot_rotation,
            "only {in_hot}/{} rotation functions in .text.hot",
            spec.hot_rotation
        );
    }

    #[test]
    fn object_selector_returns_right_layout() {
        let w =
            PreparedWorkload::prepare(&quick_spec(), 100_000, ClassifierConfig::llvm_defaults());
        assert!(w.object(LayoutKind::SourceOrder).section_named(".text").is_some());
        assert!(w.object(LayoutKind::Pgo).section_named(".text.hot").is_some());
    }

    #[test]
    fn text_fractions_sum_to_one() {
        let w =
            PreparedWorkload::prepare(&quick_spec(), 200_000, ClassifierConfig::llvm_defaults());
        let (h, wm, c) = w.text_fractions();
        assert!((h + wm + c - 1.0).abs() < 1e-9);
        assert!(h > 0.0);
    }

    #[test]
    fn percentile_100_marks_everything_executed_hot() {
        let config = ClassifierConfig { percentile_hot: 1.0 };
        let w = PreparedWorkload::prepare(&quick_spec(), 300_000, config);
        for (fi, t) in w.temps.as_slice().iter().enumerate() {
            let executed = w.profile.function_max_counts()[fi] > 0;
            if executed {
                assert_eq!(*t, Temperature::Hot, "executed fn {fi} not hot");
            }
        }
    }
}
