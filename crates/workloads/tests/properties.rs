//! Property-based tests of the workload synthesis and trace generation:
//! structural well-formedness and control-flow consistency for arbitrary
//! spec parameters; and, pinned, the eval stream and where a resumed
//! walker picks it up.

use proptest::prelude::*;
use trrip_compiler::{classify_functions, Linker, ObjectFile, Program};
use trrip_core::ClassifierConfig;
use trrip_cpu::{BranchKind, StallClass, TraceInstr};
use trrip_trace::SourceIter;
use trrip_workloads::{build_program, proxy, InputSet, TraceGenerator, WorkloadSpec};

fn fnv1a(hash: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// FNV-1a over `(pc, branch, mem, exec_stall)`, every field spelled out
/// so the digest depends on no derive and no in-memory layout.
fn fnv1a_instr(hash: u64, instr: &TraceInstr) -> u64 {
    let kind = |k| match k {
        BranchKind::Conditional => 1,
        BranchKind::Direct => 2,
        BranchKind::Indirect => 3,
        BranchKind::Call => 4,
        BranchKind::IndirectCall => 5,
        BranchKind::Return => 6,
    };
    let class = |c| match c {
        StallClass::Ifetch => 1,
        StallClass::Mispred => 2,
        StallClass::Depend => 3,
        StallClass::Issue => 4,
        StallClass::Mem => 5,
        StallClass::Other => 6,
    };
    let words = [
        instr.pc.raw(),
        instr.branch.map_or(0, |b| kind(b.kind) | u64::from(b.taken) << 8),
        instr.branch.map_or(0, |b| b.target.raw()),
        instr.mem.map_or(0, |m| 1 | u64::from(m.store) << 8),
        instr.mem.map_or(0, |m| m.addr.raw()),
        instr.exec_stall.map_or(0, |(c, cycles)| class(c) | u64::from(cycles) << 8),
    ];
    words.iter().fold(hash, |h, &w| fnv1a(h, w))
}

/// `name`'s program, trained, classified and relinked as `prepare` does:
/// the spec, the program, the PGO placement and the training profile's
/// block count.
fn pgo_placement(name: &str) -> (WorkloadSpec, Program, ObjectFile, u64) {
    const TRAIN: usize = 200_000;
    let spec = proxy::by_name(name).expect("calibrated spec");
    let program = build_program(&spec);
    let linker = Linker::new();
    let plain = linker.link_source_order(&program);
    let mut trainer = TraceGenerator::new(&program, &plain, &spec, InputSet::Train);
    assert_eq!(trainer.by_ref().take(TRAIN).count(), TRAIN);
    let profile = trainer.into_profile();
    let temps = classify_functions(&program, &profile, ClassifierConfig::llvm_defaults());
    let pgo = linker.link_pgo(&program, &profile, &temps);
    (spec, program, pgo, profile.total())
}

const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// The walk did not move. Train, classify and relink as `prepare` does,
/// then hash the first 50 000 eval instructions under the PGO placement.
/// The constants were recorded from the commit before the basic-block
/// memo was deleted, with the memo on: this test took over from the
/// memo-vs-fresh twin suites as the guard on the stream. It is also the
/// tripwire for stale checkpoint stores: no store key names the walker's
/// code, so a walk that moves must step the checkpoint format version.
#[test]
fn eval_stream_under_pgo_placement_is_pinned() {
    const EVAL: usize = 50_000;
    for (name, stream, train_blocks, eval_blocks) in
        [("gcc", 0xb3da_efd9_6bd0_6291, 5213, 913), ("sqlite", 0xca0d_9d3b_33b8_37d9, 4717, 904)]
    {
        let (spec, program, pgo, trained) = pgo_placement(name);
        assert_eq!(
            trained, train_blocks,
            "{name}: training profile moved — step the checkpoint VERSION: a store keeps \
             training profiles and WALK sections the old walk made, and the version is the \
             only thing that retires them"
        );
        let mut walker = TraceGenerator::new(&program, &pgo, &spec, InputSet::Eval);
        let hash = walker.by_ref().take(EVAL).fold(FNV_SEED, |h, i| fnv1a_instr(h, &i));
        assert_eq!(hash, stream, "{name}: eval stream moved ({hash:#018x})");
        assert_eq!(walker.into_profile().total(), eval_blocks, "{name}: eval profile moved");
    }
}

/// A walker resumed from the state another handed out at the boundary —
/// with what its puller held back of the last 1 Ki batch put back —
/// hands out what the first goes on to hand out: a digest of the next
/// 50 000 eval instructions of `gcc` and `sqlite` under PGO placement, at
/// a boundary on a batch edge and at one inside a batch.
#[test]
fn a_restored_walker_equals_one_walked_through_the_boundary() {
    const AFTER: usize = 50_000;
    for name in ["gcc", "sqlite"] {
        let (spec, program, pgo, _) = pgo_placement(name);
        for boundary in [30 * 1_024, 30_001] {
            let walker = TraceGenerator::new(&program, &pgo, &spec, InputSet::Eval);
            let mut pulled = SourceIter::new(walker);
            let mut left = boundary;
            while left > 0 {
                left -= pulled.next_slice(left as usize).len() as u64;
            }
            let state = pulled.source().state(pulled.unread());
            let held_back = boundary.next_multiple_of(1_024) - boundary;
            assert!(state.pending.len() as u64 >= held_back, "{name} at {boundary}");
            let resumed = TraceGenerator::resume(&program, &pgo, &spec, InputSet::Eval, state)
                .expect("a state the walker handed out");
            let restored = resumed.take(AFTER).fold(FNV_SEED, |h, i| fnv1a_instr(h, &i));
            let walked = pulled.take(AFTER).fold(FNV_SEED, |h, i| fnv1a_instr(h, &i));
            assert_eq!(restored, walked, "{name} at {boundary}: {restored:#018x}");
        }
    }
}

fn arb_spec() -> impl Strategy<Value = WorkloadSpec> {
    (
        10usize..200, // functions
        256u32..4096, // avg_function_bytes
        0.0f64..0.2,  // cold_visit_prob
        0usize..16,   // external functions
        0.0f64..0.3,  // external_call_prob
        0.0f64..0.5,  // call_prob
        0.0f64..0.5,  // dispatch_prob
        any::<u64>(), // structure seed
    )
        .prop_flat_map(|(functions, avg, cold, ext, extp, callp, dispatch, seed)| {
            (1usize..=functions).prop_map(move |rotation| {
                let mut s = WorkloadSpec::named("prop");
                s.functions = functions;
                s.avg_function_bytes = avg;
                s.hot_rotation = rotation;
                s.cold_visit_prob = cold;
                s.external_functions = ext;
                s.external_call_prob = extp;
                s.call_prob = callp;
                s.dispatch_prob = dispatch;
                s.structure_seed = seed;
                s
            })
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every generated program is structurally valid and every linked
    /// object passes its own validation, for arbitrary specs.
    #[test]
    fn generated_programs_are_valid(spec in arb_spec()) {
        let program = build_program(&spec);
        prop_assert_eq!(program.validate(), Ok(()));
        let plain = Linker::new().link_source_order(&program);
        prop_assert_eq!(plain.validate(), Ok(()));
    }

    /// Control flow is always explainable: in any generated trace, each
    /// next PC either falls through (+4) or is the target of a taken
    /// branch. This is the contract the timing core relies on.
    #[test]
    fn traces_have_consistent_control_flow(spec in arb_spec()) {
        let program = build_program(&spec);
        let object = Linker::new().link_source_order(&program);
        let trace: Vec<_> =
            TraceGenerator::new(&program, &object, &spec, InputSet::Eval).take(5_000).collect();
        for pair in trace.windows(2) {
            prop_assert_eq!(pair[1].pc, pair[0].next_pc());
        }
    }

    /// The generator never stalls: it always produces the requested
    /// number of instructions (no CFG dead ends), and blocks keep being
    /// recorded (blocks can be >1000 instructions for large functions,
    /// so the bound is structural, not proportional).
    #[test]
    fn generator_always_makes_progress(spec in arb_spec()) {
        let program = build_program(&spec);
        let object = Linker::new().link_source_order(&program);
        let mut generator = TraceGenerator::new(&program, &object, &spec, InputSet::Train);
        let produced = (&mut generator).take(4_096).count();
        prop_assert_eq!(produced, 4_096);
        let profile = generator.into_profile();
        prop_assert!(profile.total() >= 2, "only {} blocks recorded", profile.total());
    }

    /// Fetch PCs stay inside executable sections of the object.
    #[test]
    fn all_pcs_inside_executable_sections(spec in arb_spec()) {
        let program = build_program(&spec);
        let object = Linker::new().link_source_order(&program);
        let trace: Vec<_> =
            TraceGenerator::new(&program, &object, &spec, InputSet::Eval).take(3_000).collect();
        for t in &trace {
            let section = object.section_of(t.pc);
            prop_assert!(
                section.is_some_and(|s| s.executable),
                "pc {} outside executable sections",
                t.pc
            );
        }
    }
}
