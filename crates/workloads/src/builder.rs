//! Deterministic program synthesis from a [`WorkloadSpec`].
//!
//! The generated program's *structure* (function sizes, CFGs, call sites)
//! is fixed by `structure_seed`, so training and evaluation runs execute
//! the same binary — only the walk differs.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use trrip_compiler::{BasicBlock, CallTarget, Function, Program};

use crate::spec::WorkloadSpec;

/// Builds the synthetic program described by `spec`.
///
/// # Panics
///
/// Panics if the spec fails [`WorkloadSpec::validate`].
#[must_use]
pub fn build_program(spec: &WorkloadSpec) -> Program {
    spec.validate().expect("invalid workload spec");
    let mut rng = SmallRng::seed_from_u64(spec.structure_seed);

    // Sorted once for the whole program: `hot_set` orders all function
    // ids, and every function's call sites draw from the same set.
    let hot_set = spec.hot_set();
    let mut functions = Vec::with_capacity(spec.functions);
    for fi in 0..spec.functions {
        functions.push(build_function(spec, &hot_set, fi, &mut rng));
    }

    let mut program = Program::new(functions, 0);
    program.external_functions = (0..spec.external_functions)
        .map(|_| {
            let factor = 0.5 + rng.gen::<f64>() * 1.5;
            ((spec.avg_external_bytes as f64 * factor) as u64).max(256) / 4 * 4
        })
        .collect();
    program.data_bytes = spec.static_data_bytes;
    debug_assert_eq!(program.validate(), Ok(()));
    program
}

/// Function shape: `entry → head → (body + inline error blocks)… →
/// (back to head | exit)`.
///
/// * Plain functions: a loop whose body is a chain of blocks with biased
///   early-loopback conditionals. Every body block has a rarely-taken
///   edge to an *error block* placed physically right after it — the way
///   hand-written code interleaves error handling with the hot path.
///   PGO block placement moves those cold blocks out of the way, which
///   is where its fall-through and spatial-locality gains come from
///   (§2.3).
/// * Dispatch functions (interpreters): the head is an indirect-dispatch
///   block fanning out to every handler; each handler returns to the
///   head, with the same inline error blocks.
fn build_function(
    spec: &WorkloadSpec,
    hot_set: &[usize],
    index: usize,
    rng: &mut SmallRng,
) -> Function {
    // Size spread: factor in [0.4, 2.9], quadratically biased small.
    let factor = 0.4 + rng.gen::<f64>().powi(2) * 2.5;
    let total_bytes = ((f64::from(spec.avg_function_bytes) * factor) as u32).max(256) / 4 * 4;

    let nbody = rng.gen_range(1..=6usize);
    // entry, head, (body + error) pairs, return.
    let nblocks = 3 + 2 * nbody;
    let dispatch = rng.gen_bool(spec.dispatch_prob) && nbody >= 2;

    // Distribute bytes: entry/return ~8% each, error blocks half a body
    // block, the rest over head + body.
    let small = (total_bytes / 12).max(16) / 4 * 4;
    let weight_units = 2 + 3 * nbody as u32; // head=2, body=2 each, error=1 each
    let unit = ((total_bytes - 2 * small) / weight_units).max(16) / 4 * 4;
    let inner = 2 * unit;

    let p_loop = spec.loop_iterations / (spec.loop_iterations + 1.0);
    let p_err = 0.05;
    let exit_block = nblocks - 1;
    // Body block at pair position i sits at index 2 + 2i; its error block
    // at 2 + 2i + 1.
    let body_at = |i: usize| 2 + 2 * i;
    let err_at = |i: usize| 2 + 2 * i + 1;

    let mut blocks = Vec::with_capacity(nblocks);
    // entry (block 0) falls into the head.
    blocks.push(sized(spec, rng, small, vec![(1, 1.0)], false, false));

    if dispatch {
        // head (block 1): indirect dispatch over handlers + exit.
        let p_exit = 1.0 - p_loop;
        let p_each = p_loop / nbody as f64;
        let mut succ: Vec<(usize, f64)> = (0..nbody).map(|i| (body_at(i), p_each)).collect();
        succ.push((exit_block, p_exit));
        blocks.push(sized(spec, rng, inner, succ, true, false));
        for i in 0..nbody {
            // handler → head, rare error path.
            blocks.push(sized(
                spec,
                rng,
                inner,
                vec![(1, 1.0 - p_err), (err_at(i), p_err)],
                false,
                false,
            ));
            blocks.push(error_block(rng, unit, exit_block));
        }
    } else {
        // head (block 1): loop or exit.
        blocks.push(sized(
            spec,
            rng,
            inner,
            vec![(body_at(0), p_loop), (exit_block, 1.0 - p_loop)],
            false,
            false,
        ));
        // body chain with biased early loop-back and inline error blocks.
        for i in 0..nbody {
            let succ = if i + 1 == nbody {
                vec![(1, 1.0 - p_err), (err_at(i), p_err)] // back edge
            } else {
                vec![(body_at(i + 1), 0.85 - p_err), (1, 0.15), (err_at(i), p_err)]
            };
            let scan = rng.gen_bool(spec.scan_block_frac);
            blocks.push(sized(spec, rng, inner, succ, false, scan));
            blocks.push(error_block(rng, unit, exit_block));
        }
    }

    // return block.
    blocks.push(sized(spec, rng, small, Vec::new(), false, false));
    debug_assert_eq!(blocks.len(), nblocks);

    // Call sites: body blocks may call. Targets are biased toward the
    // (scattered) hot set (call_locality) so the dynamic footprint
    // concentrates the way real programs' call graphs do.
    let pick_callee = |rng: &mut SmallRng| {
        if rng.gen_bool(spec.call_locality) {
            hot_set[rng.gen_range(0..hot_set.len())]
        } else {
            rng.gen_range(0..spec.functions)
        }
    };
    let mut has_indirect = false;
    let mut callees = Vec::new();
    // Body blocks sit at even indices ≥ 2; error blocks (odd) never call.
    for (_, block) in
        blocks.iter_mut().enumerate().take(nblocks - 1).skip(2).filter(|(i, _)| i % 2 == 0)
    {
        if rng.gen_bool(spec.call_prob) {
            let call = if rng.gen_bool(spec.external_call_prob) && spec.external_functions > 0 {
                // Skewed like real import tables: a handful of externals
                // (memcpy, malloc…) take most call sites and stay
                // L1-resident; the tail is rarely called.
                let r = rng.gen::<f64>();
                let idx = (r.powi(3) * spec.external_functions as f64) as usize;
                CallTarget::External(idx.min(spec.external_functions - 1))
            } else if rng.gen_bool(spec.indirect_call_prob) {
                has_indirect = true;
                CallTarget::Indirect
            } else {
                CallTarget::Function(pick_callee(rng))
            };
            block.call = Some(call);
        }
    }
    if has_indirect {
        callees = (0..4).map(|_| pick_callee(rng)).collect();
    }

    let mut function = Function::new(&format!("fn_{index:05}"), blocks);
    function.indirect_callees = callees;
    function
}

/// A cold error-handling block: physically inline in source order,
/// branching to the function exit.
fn error_block(rng: &mut SmallRng, bytes: u32, exit_block: usize) -> BasicBlock {
    let jitter = 0.75 + rng.gen::<f32>() * 0.5;
    BasicBlock {
        size_bytes: bytes.max(16) / 4 * 4,
        successors: vec![(exit_block, 1.0)],
        call: None,
        load_density: 0.2 * jitter,
        store_density: 0.1 * jitter,
        indirect_dispatch: false,
        scan: false,
    }
}

fn sized(
    spec: &WorkloadSpec,
    rng: &mut SmallRng,
    bytes: u32,
    successors: Vec<(usize, f64)>,
    indirect_dispatch: bool,
    scan: bool,
) -> BasicBlock {
    // Per-block density jitter around the spec value.
    let jitter = 0.75 + rng.gen::<f32>() * 0.5;
    BasicBlock {
        size_bytes: bytes.max(16) / 4 * 4,
        successors,
        call: None,
        load_density: (spec.load_density * jitter).min(0.9),
        store_density: (spec.store_density * jitter).min(0.5),
        indirect_dispatch,
        scan,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WorkloadSpec;

    #[test]
    fn programs_are_valid() {
        let spec = WorkloadSpec::named("t");
        let p = build_program(&spec);
        assert_eq!(p.validate(), Ok(()));
        assert_eq!(p.functions.len(), spec.functions);
        assert_eq!(p.external_functions.len(), spec.external_functions);
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = WorkloadSpec::named("t");
        assert_eq!(build_program(&spec), build_program(&spec));
    }

    #[test]
    fn structure_seed_changes_program() {
        let a = WorkloadSpec::named("t");
        let mut b = a.clone();
        b.structure_seed ^= 1;
        assert_ne!(build_program(&a), build_program(&b));
    }

    #[test]
    fn text_size_tracks_spec() {
        let mut spec = WorkloadSpec::named("t");
        spec.functions = 300;
        spec.avg_function_bytes = 2048;
        let p = build_program(&spec);
        let text = p.text_bytes() as f64;
        let expect = spec.approx_text_bytes() as f64;
        // Mean factor is ~1.23; allow a broad band.
        assert!(text > expect * 0.7 && text < expect * 2.0, "text {text}, expected ~{expect}");
    }

    #[test]
    fn dispatch_spec_produces_dispatch_blocks() {
        let mut spec = WorkloadSpec::named("t");
        spec.dispatch_prob = 1.0;
        let p = build_program(&spec);
        let dispatchers =
            p.functions.iter().filter(|f| f.blocks.iter().any(|b| b.indirect_dispatch)).count();
        assert!(dispatchers > spec.functions / 2);
    }

    #[test]
    fn call_sites_exist() {
        let p = build_program(&WorkloadSpec::named("t"));
        let calls = p.functions.iter().flat_map(|f| &f.blocks).filter(|b| b.call.is_some()).count();
        assert!(calls > 0);
    }
}
