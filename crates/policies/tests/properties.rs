//! Property-based tests over every replacement policy: invariants that
//! must hold for any policy under any access sequence.

use proptest::prelude::*;
use trrip_core::{RripTable, Rrpv, Temperature};
use trrip_policies::{Emissary, PolicyKind, ReplacementPolicy, RequestInfo};
use trrip_snap::{SnapReader, SnapWriter, Snapshot};

#[derive(Debug, Clone)]
enum Op {
    Hit { set: usize, way: usize },
    MissFill { set: usize },
    Invalidate { set: usize, way: usize },
}

fn arb_policy() -> impl Strategy<Value = PolicyKind> {
    (0..PolicyKind::PAPER_SET.len()).prop_map(|i| PolicyKind::PAPER_SET[i])
}

fn arb_op(sets: usize, ways: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..sets, 0..ways).prop_map(|(set, way)| Op::Hit { set, way }),
        (0..sets).prop_map(|set| Op::MissFill { set }),
        (0..sets, 0..ways).prop_map(|(set, way)| Op::Invalidate { set, way }),
    ]
}

fn arb_temperature() -> impl Strategy<Value = Option<Temperature>> {
    prop_oneof![
        Just(None),
        Just(Some(Temperature::Hot)),
        Just(Some(Temperature::Warm)),
        Just(Some(Temperature::Cold)),
    ]
}

fn arb_request() -> impl Strategy<Value = RequestInfo> {
    (any::<u64>(), any::<bool>(), arb_temperature()).prop_map(|(pc, instr, temp)| {
        let base = if instr { RequestInfo::ifetch(pc) } else { RequestInfo::data_load(pc) };
        base.with_temperature(temp)
    })
}

fn arb_trrip() -> impl Strategy<Value = PolicyKind> {
    prop_oneof![Just(PolicyKind::Trrip1), Just(PolicyKind::Trrip2)]
}

/// The row the TRRIP properties drive; row 0 is the neighbour that must
/// not move.
const ROW: usize = 1;

/// An RRIP-family policy's RRPVs: its saved state opens with its table.
fn table_of(policy: &dyn ReplacementPolicy, sets: usize, ways: usize) -> RripTable {
    let mut w = SnapWriter::new();
    policy.save_state(&mut w);
    let mut table = RripTable::new(sets, ways);
    table.restore(&mut SnapReader::new(w.bytes())).expect("an RRIP state opens with its table");
    table
}

/// `kind` over two sets of `ways`, row 0 filled with a mix of hot, warm,
/// cold and untyped lines, some of them hit: a pattern that aging, a
/// promotion or a fill of row [`ROW`] would disturb.
fn two_rows(kind: PolicyKind, ways: usize) -> Box<dyn ReplacementPolicy> {
    let mut policy = kind.build(2, ways);
    let temperatures = [Some(Temperature::Hot), Some(Temperature::Warm), None];
    for way in 0..ways {
        let req = RequestInfo::ifetch(0x40).with_temperature(temperatures[way % 3]);
        policy.on_fill(0, way, &req);
        if way % 2 == 1 {
            policy.on_hit(
                0,
                way,
                &RequestInfo::ifetch(0x40).with_temperature(Some(Temperature::Cold)),
            );
        }
    }
    policy
}

/// Row 0 of `after` is row 0 of `before`.
fn neighbour_untouched(before: &RripTable, after: &RripTable) -> bool {
    (0..before.ways()).all(|way| before.rrpv(0, way) == after.rrpv(0, way))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The victim returned by any policy is always a way of the set, for
    /// arbitrary interleaved operations.
    #[test]
    fn victim_is_always_a_way_of_the_set(
        kind in arb_policy(),
        ops in prop::collection::vec((arb_op(8, 4), arb_request()), 1..200),
    ) {
        let mut policy = kind.build(8, 4);
        for (op, req) in ops {
            match op {
                Op::Hit { set, way } => policy.on_hit(set, way, &req),
                Op::MissFill { set } => {
                    let victim = policy.choose_victim(set, &req);
                    prop_assert!(victim < 4, "{}: victim {victim} of 4 ways", kind.name());
                    policy.on_evict(set, victim);
                    policy.on_fill(set, victim, &req);
                }
                Op::Invalidate { set, way } => policy.on_invalidate(set, way),
            }
        }
    }

    /// Policies are deterministic: the same operation sequence produces
    /// the same victim sequence.
    #[test]
    fn policies_are_deterministic(
        kind in arb_policy(),
        ops in prop::collection::vec((arb_op(4, 4), arb_request()), 1..100),
    ) {
        let run = |ops: &[(Op, RequestInfo)]| -> Vec<usize> {
            let mut policy = kind.build(4, 4);
            let mut victims = Vec::new();
            for (op, req) in ops {
                match *op {
                    Op::Hit { set, way } => policy.on_hit(set, way, req),
                    Op::MissFill { set } => {
                        let v = policy.choose_victim(set, req);
                        victims.push(v);
                        policy.on_evict(set, v);
                        policy.on_fill(set, v, req);
                    }
                    Op::Invalidate { set, way } => policy.on_invalidate(set, way),
                }
            }
            victims
        };
        prop_assert_eq!(run(&ops), run(&ops));
    }

    /// Saving a policy's state mid-sequence and restoring it into a
    /// freshly built instance yields a behavioral clone: both pick the
    /// same victims for any shared future, and the original keeps
    /// behaving like a policy that was never snapshotted.
    #[test]
    fn snapshot_restore_is_a_behavioral_clone(
        kind in arb_policy(),
        warmup in prop::collection::vec((arb_op(8, 4), arb_request()), 0..150),
        probe in prop::collection::vec((arb_op(8, 4), arb_request()), 1..150),
    ) {
        let drive = |policy: &mut dyn ReplacementPolicy, ops: &[(Op, RequestInfo)]| {
            let mut victims = Vec::new();
            for (op, req) in ops {
                match op {
                    Op::Hit { set, way } => policy.on_hit(*set, *way, req),
                    Op::MissFill { set } => {
                        let v = policy.choose_victim(*set, req);
                        victims.push(v);
                        policy.on_evict(*set, v);
                        policy.on_fill(*set, v, req);
                    }
                    Op::Invalidate { set, way } => policy.on_invalidate(*set, *way),
                }
            }
            victims
        };

        let mut original = kind.build(8, 4);
        drive(original.as_mut(), &warmup);

        let mut bytes = trrip_snap::SnapWriter::new();
        original.save_state(&mut bytes);
        let mut restored = kind.build(8, 4);
        restored
            .restore_state(&mut trrip_snap::SnapReader::new(bytes.bytes()))
            .expect("restore into an identically configured policy");

        prop_assert_eq!(
            drive(original.as_mut(), &probe),
            drive(restored.as_mut(), &probe),
            "{}: restored policy diverged from the original", kind.name()
        );
    }

    /// Restoring into a differently shaped policy is an error, not
    /// silent corruption.
    #[test]
    fn snapshot_rejects_mismatched_geometry(kind in arb_policy()) {
        let original = kind.build(8, 4);
        let mut bytes = trrip_snap::SnapWriter::new();
        original.save_state(&mut bytes);
        let mut smaller = kind.build(4, 4);
        let outcome = smaller.restore_state(&mut trrip_snap::SnapReader::new(bytes.bytes()));
        prop_assert!(outcome.is_err(), "{}: geometry mismatch accepted", kind.name());
    }

    /// A continuously-hit instruction line is never evicted in favour of
    /// a stream of *data* fills — for every policy. Data competitors are the fair test: code-first
    /// policies (CLIP, TRRIP) insert all/hot instruction fills at the
    /// same top priority, where a hit line is legitimately
    /// indistinguishable from fresh code.
    #[test]
    fn continuously_hit_line_survives_data_stream(
        kind in arb_policy(),
        fills in 1usize..32,
    ) {
        let mut policy = kind.build(1, 4);
        let hot = RequestInfo::ifetch(0x40).with_temperature(Some(Temperature::Hot));
        let protected = policy.choose_victim(0, &hot);
        policy.on_fill(0, protected, &hot);
        policy.on_hit(0, protected, &hot);
        for i in 0..fills {
            let req = RequestInfo::data_load(0x4000 + i as u64 * 64);
            let v = policy.choose_victim(0, &req);
            prop_assert_ne!(
                v, protected,
                "{}: evicted the continuously-hit line at fill {}", kind.name(), i
            );
            policy.on_evict(0, v);
            policy.on_fill(0, v, &req);
            policy.on_hit(0, protected, &hot);
        }
    }
}

proptest! {
    /// Fills and hits with any temperature keep RRPVs inside the 2-bit
    /// field, for both TRRIP variants, and leave the other set alone.
    #[test]
    fn trrip_ops_stay_in_field(
        kind in arb_trrip(),
        ops in prop::collection::vec((0u8..2, 0usize..4, arb_temperature()), 0..64),
    ) {
        let mut policy = two_rows(kind, 4);
        let before = table_of(&*policy, 2, 4);
        for (op, way, temperature) in ops {
            let req = RequestInfo::ifetch(0x40).with_temperature(temperature);
            match op {
                0 => policy.on_fill(ROW, way, &req),
                _ => policy.on_hit(ROW, way, &req),
            }
            // The table restores only RRPVs inside the field.
            prop_assert!(table_of(&*policy, 2, 4).rrpv(ROW, way) <= Rrpv::distant());
        }
        prop_assert!(neighbour_untouched(&before, &table_of(&*policy, 2, 4)));
    }

    /// TRRIP insertion priority is monotone in temperature: for either
    /// variant, hot inserts at a priority at least as high as warm, which
    /// is at least as high as cold or untyped (lower RRPV = higher priority).
    #[test]
    fn trrip_insertion_monotone_in_temperature(kind in arb_trrip(), way in 0usize..4) {
        let rrpv_for = |temperature: Option<Temperature>| {
            let mut policy = two_rows(kind, 4);
            let before = table_of(&*policy, 2, 4);
            policy.on_fill(ROW, way, &RequestInfo::ifetch(0x40).with_temperature(temperature));
            let after = table_of(&*policy, 2, 4);
            assert!(neighbour_untouched(&before, &after));
            after.rrpv(ROW, way)
        };
        let hot = rrpv_for(Some(Temperature::Hot));
        let warm = rrpv_for(Some(Temperature::Warm));
        let cold = rrpv_for(Some(Temperature::Cold));
        let none = rrpv_for(None);
        prop_assert!(hot <= warm);
        prop_assert!(warm <= cold);
        prop_assert_eq!(cold, none);
    }

    /// TRRIP with no temperature information is exactly SRRIP, whole state
    /// and victims, for any interleaving of fills, hits and misses, of
    /// instruction or data requests.
    #[test]
    fn untyped_trrip_equals_srrip(
        kind in arb_trrip(),
        ops in prop::collection::vec((0u8..3, 0usize..8, any::<bool>()), 0..64),
    ) {
        let mut trrip = two_rows(kind, 8);
        let mut srrip = two_rows(PolicyKind::Srrip, 8);
        let before = table_of(&*trrip, 2, 8);
        for (op, way, instruction) in ops {
            let req = if instruction { RequestInfo::ifetch(0x40) } else { RequestInfo::data_load(0x40) };
            match op {
                0 => {
                    trrip.on_fill(ROW, way, &req);
                    srrip.on_fill(ROW, way, &req);
                }
                1 => {
                    trrip.on_hit(ROW, way, &req);
                    srrip.on_hit(ROW, way, &req);
                }
                _ => prop_assert_eq!(trrip.choose_victim(ROW, &req), srrip.choose_victim(ROW, &req)),
            }
            let (t, s) = (table_of(&*trrip, 2, 8), table_of(&*srrip, 2, 8));
            prop_assert!((0..8).all(|way| t.rrpv(ROW, way) == s.rrpv(ROW, way)));
        }
        prop_assert!(neighbour_untouched(&before, &table_of(&*trrip, 2, 8)));
    }
}

/// EMISSARY's two arms, ties included. While at most `reserved` lines
/// of a set hold priority and some line does not, the victim is the
/// least recently touched line *without* priority; otherwise protection
/// collapses — plain LRU over the whole set, and the set's priority bits
/// clear. Among equally old lines the lowest way goes, in both arms. A
/// set of `ways` reserves `ways / 2` of them, and at least one.
#[test]
fn emissary_arms_and_their_ties() {
    let plain = RequestInfo::ifetch(0x40);
    let starved = RequestInfo::ifetch(0x80).with_starvation();
    let priority_of =
        |p: &Emissary, set, ways| (0..ways).map(|way| p.is_priority(set, way)).collect::<Vec<_>>();

    // Arm one: way 0 is the oldest line but holds priority; of the
    // others, way 2 was touched longest ago.
    let mut p = Emissary::new(2, 4);
    p.on_fill(0, 0, &starved);
    for way in [2, 3, 1] {
        p.on_fill(0, way, &plain);
    }
    assert_eq!(p.choose_victim(0, &plain), 2);
    assert_eq!(priority_of(&p, 0, 4), [true, false, false, false], "arm one clears nothing");
    // Arm one, tied: ways 1 and 3 invalidated, both as old as can be.
    p.on_invalidate(0, 3);
    p.on_invalidate(0, 1);
    assert_eq!(p.choose_victim(0, &plain), 1);

    // Arm two, reservation exceeded: three priority lines against two
    // reserved. The oldest line goes though it holds priority.
    for way in [1, 0, 2] {
        p.on_fill(1, way, &starved);
    }
    p.on_fill(1, 3, &plain);
    assert_eq!(p.choose_victim(1, &plain), 1);
    assert_eq!(priority_of(&p, 1, 4), [false; 4], "the epoch starts over");
    assert_eq!(priority_of(&p, 0, 4), [true, false, false, false], "…in that set alone");
    // Arm two, tied: ways 0 to 2 never touched, ways 3 to 7 priority
    // against four reserved.
    let mut p = Emissary::new(1, 8);
    for way in [7, 6, 5, 4, 3] {
        p.on_fill(0, way, &starved);
    }
    assert_eq!(p.choose_victim(0, &plain), 0);
    assert_eq!(priority_of(&p, 0, 8), [false; 8]);
    // Arm two with the reservation honoured but nothing unprotected: a
    // one-way set reserves its only way.
    let mut p = Emissary::new(1, 1);
    p.on_fill(0, 0, &starved);
    assert_eq!(p.choose_victim(0, &plain), 0);
    assert_eq!(priority_of(&p, 0, 1), [false]);
}
