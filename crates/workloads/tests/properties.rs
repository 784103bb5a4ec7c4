//! Property-based tests of the workload synthesis and trace generation:
//! structural well-formedness and control-flow consistency for arbitrary
//! spec parameters; any pull pattern, and the training walk, against
//! `next()` one instruction at a time; and, pinned, the eval stream and
//! where a resumed walker picks it up.
//!
//! `walk.instrs` is one process-wide counter every walker adds to when it
//! drops, so every test here that walks takes [`WALKING`]: shared, except
//! for the one that reads the counter.

use std::sync::{PoisonError, RwLock, RwLockReadGuard};

use proptest::prelude::*;
use trrip_compiler::{classify_functions, Linker, ObjectFile, Program};
use trrip_core::ClassifierConfig;
use trrip_cpu::{BranchKind, StallClass, TraceInstr};
use trrip_trace::{SourceIter, TraceSource};
use trrip_workloads::{build_program, proxy, InputSet, TraceGenerator, WorkloadSpec};

static WALKING: RwLock<()> = RwLock::new(());

fn shared() -> RwLockReadGuard<'static, ()> {
    WALKING.read().unwrap_or_else(PoisonError::into_inner)
}

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
    const TRAIN: u64 = 200_000;
    let spec = proxy::by_name(name).expect("calibrated spec");
    let program = build_program(&spec);
    let linker = Linker::new();
    let plain = linker.link_source_order(&program);
    let profile = TraceGenerator::train(&program, &plain, &spec, TRAIN);
    let temps = classify_functions(&profile, ClassifierConfig::llvm_defaults());
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
    let _shared = shared();
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
    let _shared = shared();
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
        let _shared = shared();
        let program = build_program(&spec);
        let object = Linker::new().link_source_order(&program);
        let trace: Vec<_> =
            TraceGenerator::new(&program, &object, &spec, InputSet::Eval).take(5_000).collect();
        for pair in trace.windows(2) {
            prop_assert_eq!(pair[1].pc, pair[0].next_pc());
        }
    }

    /// The generator never stalls: a training walk reaches the requested
    /// number of instructions (no CFG dead ends), and blocks keep being
    /// recorded (blocks can be >1000 instructions for large functions,
    /// so the bound is structural, not proportional).
    #[test]
    fn generator_always_makes_progress(spec in arb_spec()) {
        let _shared = shared();
        let program = build_program(&spec);
        let object = Linker::new().link_source_order(&program);
        let profile = TraceGenerator::train(&program, &object, &spec, 4_096);
        prop_assert!(profile.total() >= 2, "only {} blocks recorded", profile.total());
    }

    /// Any pull pattern is the same stream: `next()` one instruction at a
    /// time, 1 Ki `next_batch` calls and `fill`s of arbitrary exact sizes
    /// hand out the same instructions, each pull exactly as many as asked
    /// for; and the state taken after any `fill` is one a walker of the
    /// program can be in, is the state after as many `next()` calls (the
    /// walker steps no further ahead), and, resumed, carries on the
    /// stream.
    #[test]
    fn any_pull_pattern_is_the_same_stream(
        spec in arb_spec(),
        sizes in prop::collection::vec(0usize..2_500, 1..16),
        resume_after in any::<usize>(),
    ) {
        const LEN: usize = 8 * 1_024;
        let _shared = shared();
        let program = build_program(&spec);
        let object = Linker::new().link_source_order(&program);
        let walker = || TraceGenerator::new(&program, &object, &spec, InputSet::Eval);
        let digest = |stream: &[TraceInstr]| stream.iter().fold(FNV_SEED, fnv1a_instr);
        let pulled: Vec<_> = walker().take(LEN).collect();

        let mut batched = walker();
        let mut stream = Vec::new();
        while stream.len() < LEN {
            prop_assert_eq!(batched.next_batch(&mut stream), 1_024);
        }
        prop_assert_eq!(digest(&stream), digest(&pulled), "next_batch");

        // The sizes over and over, then whatever is left.
        let fills: Vec<_> = sizes.iter().copied().cycle().take(4 * sizes.len()).chain([LEN]).collect();
        let resume_after = resume_after % fills.len();
        let (mut filled, mut stepped) = (walker(), walker());
        let mut stream = Vec::new();
        let mut kept = None;
        for (i, n) in fills.into_iter().enumerate() {
            let n = n.min(LEN - stream.len());
            let before = stream.len();
            filled.fill(&mut stream, n);
            prop_assert_eq!(stream.len(), before + n, "fill {} of {}", i, n);
            let state = filled.state(&[]);
            prop_assert_eq!(state.check(&program, &spec), Ok(()), "after fill {}", i);
            stepped.by_ref().take(n).for_each(drop);
            prop_assert_eq!(&state, &stepped.state(&[]), "after fill {}, pulled one at a time", i);
            if i == resume_after {
                kept = Some((stream.len(), state));
            }
        }
        prop_assert_eq!(digest(&stream), digest(&pulled), "fill");

        let (at, state) = kept.expect("one fill is picked");
        let resumed = TraceGenerator::resume(&program, &object, &spec, InputSet::Eval, state)
            .expect("a state the walker handed out");
        let rest: Vec<_> = resumed.take(LEN - at).collect();
        prop_assert_eq!(digest(&rest), digest(&pulled[at..]), "resumed after {} instructions", at);
    }

    /// The training walk is `n` calls of `next()`: the same profile, and
    /// `walk.instrs` moved by the same `n`, at `n` = 0, inside a block and
    /// on a block edge (no instruction of the walk left pending).
    #[test]
    fn the_training_walk_is_n_pulls(spec in arb_spec()) {
        let _exclusive = WALKING.write().unwrap_or_else(PoisonError::into_inner);
        let program = build_program(&spec);
        let object = Linker::new().link_source_order(&program);
        let walker = || TraceGenerator::new(&program, &object, &spec, InputSet::Train);
        let (mut inside, mut edge) = (None, None);
        let mut probe = walker();
        for n in 1..=20_000u64 {
            probe.next();
            let slot = if probe.state(&[]).pending.is_empty() { &mut edge } else { &mut inside };
            slot.get_or_insert(n);
            if inside.is_some() && edge.is_some() {
                break;
            }
        }
        drop(probe);
        let (inside, edge) = (inside.expect("a block of two"), edge.expect("a block's end"));
        for n in [0, inside, edge] {
            let before = trrip_obs::snapshot();
            let mut pulled = walker();
            for _ in 0..n {
                pulled.next();
            }
            let expected = pulled.into_profile();
            let pulled_walked = trrip_obs::snapshot().since(&before).get("walk.instrs");
            let before = trrip_obs::snapshot();
            let profile = TraceGenerator::train(&program, &object, &spec, n);
            let walked = trrip_obs::snapshot().since(&before).get("walk.instrs");
            prop_assert_eq!(&profile, &expected, "profile after {}", n);
            prop_assert_eq!(walked, pulled_walked, "walk.instrs after {}", n);
            prop_assert_eq!(walked, n);
        }
    }

    /// Fetch PCs stay inside executable sections of the object.
    #[test]
    fn all_pcs_inside_executable_sections(spec in arb_spec()) {
        let _shared = shared();
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
