//! Property-based tests for the core TRRIP state machines.

use proptest::prelude::*;

use trrip_core::{
    ClassifierConfig, ProfileSummary, RripTable, Rrpv, Temperature, TemperatureBits, TrripPolicy,
    TrripVariant,
};

/// The row the properties drive; row 0 is the neighbour that must not move.
const ROW: usize = 1;

/// What row 0 holds: a pattern that aging, promotion or a fill would each
/// disturb.
fn neighbour(way: usize) -> Rrpv {
    Rrpv::from_raw((way % 2) as u8)
}

/// A two-row table: the mechanisms run on row [`ROW`] and row 0 must come
/// out as it went in.
fn two_rows(ways: usize) -> RripTable {
    let mut table = RripTable::new(2, ways);
    for way in 0..ways {
        table.set_rrpv(0, way, neighbour(way));
    }
    table
}

fn neighbour_untouched(table: &RripTable) -> bool {
    (0..table.ways()).all(|way| table.rrpv(0, way) == neighbour(way))
}

fn arb_temperature() -> impl Strategy<Value = Option<Temperature>> {
    prop_oneof![
        Just(None),
        Just(Some(Temperature::Hot)),
        Just(Some(Temperature::Warm)),
        Just(Some(Temperature::Cold)),
    ]
}

proptest! {
    /// RRPVs never escape the 2-bit field under any op sequence.
    #[test]
    fn rrpv_stays_in_field(ops in prop::collection::vec(0u8..3, 0..64)) {
        let mut v = Rrpv::immediate();
        for op in ops {
            v = match op {
                0 => v.aged(),
                1 => v.promoted(),
                _ => Rrpv::intermediate(),
            };
            prop_assert!(v <= Rrpv::distant());
        }
    }

    /// Temperature encode/decode is a bijection over the 4 encodings.
    #[test]
    fn temperature_bits_round_trip(raw in 0u8..=255) {
        let bits = TemperatureBits::from_raw(raw);
        prop_assert_eq!(TemperatureBits::encode(bits.decode()).raw(), bits.raw());
    }

    /// find_victim always returns a distant line and terminates.
    #[test]
    fn victim_is_always_distant(
        ways in 1usize..16,
        seeds in prop::collection::vec(0u8..8, 1..16),
    ) {
        let mut table = two_rows(ways);
        for (way, seed) in seeds.iter().enumerate().take(ways) {
            table.set_rrpv(ROW, way, Rrpv::from_raw(*seed));
        }
        let victim = table.set_mut(ROW).find_victim();
        prop_assert!(victim < ways);
        prop_assert!(table.rrpv(ROW, victim).is_distant());
        prop_assert!(neighbour_untouched(&table));
    }

    /// Aging preserves the relative order of lines in a set: if a < b
    /// before a global age step, then a <= b after.
    #[test]
    fn aging_preserves_order(a in 0u8..8, b in 0u8..8) {
        let ra = Rrpv::from_raw(a);
        let rb = Rrpv::from_raw(b);
        prop_assume!(ra < rb);
        prop_assert!(ra.aged() <= rb.aged());
    }

    /// Fills and hits with any temperature keep RRPVs inside the 2-bit
    /// field, for both TRRIP variants.
    #[test]
    fn trrip_ops_stay_in_field(
        variant in prop_oneof![Just(TrripVariant::V1), Just(TrripVariant::V2)],
        ops in prop::collection::vec((0u8..2, 0usize..4, arb_temperature()), 0..64),
    ) {
        let policy = TrripPolicy::new(variant);
        let mut table = two_rows(4);
        for (op, way, temp) in ops {
            match op {
                0 => policy.on_fill(&mut table.set_mut(ROW), way, temp),
                _ => policy.on_hit(&mut table.set_mut(ROW), way, temp),
            }
            prop_assert!(table.rrpv(ROW, way) <= Rrpv::distant());
        }
        prop_assert!(neighbour_untouched(&table));
    }

    /// TRRIP insertion priority is monotone in temperature: for any
    /// variant, hot inserts at a priority at least as high as warm, which
    /// is at least as high as cold or untyped (lower RRPV = higher priority).
    #[test]
    fn trrip_insertion_monotone_in_temperature(
        variant in prop_oneof![Just(TrripVariant::V1), Just(TrripVariant::V2)],
    ) {
        let policy = TrripPolicy::new(variant);
        let rrpv_for = |t: Option<Temperature>| {
            let mut table = two_rows(4);
            policy.on_fill(&mut table.set_mut(ROW), 0, t);
            assert!(neighbour_untouched(&table));
            table.rrpv(ROW, 0)
        };
        let hot = rrpv_for(Some(Temperature::Hot));
        let warm = rrpv_for(Some(Temperature::Warm));
        let cold = rrpv_for(Some(Temperature::Cold));
        let none = rrpv_for(None);
        prop_assert!(hot <= warm);
        prop_assert!(warm <= cold);
        prop_assert_eq!(cold, none);
    }

    /// TRRIP with no temperature information is exactly SRRIP (fill at
    /// intermediate, hit to immediate) for any interleaving of fills and
    /// hits.
    #[test]
    fn untyped_trrip_equals_srrip(ops in prop::collection::vec((0u8..2, 0usize..8), 0..64)) {
        let trrip = TrripPolicy::new(TrripVariant::V2);
        let mut table_t = two_rows(8);
        let mut table_s = two_rows(8);
        for (op, way) in ops {
            match op {
                0 => {
                    trrip.on_fill(&mut table_t.set_mut(ROW), way, None);
                    table_s.set_rrpv(ROW, way, Rrpv::intermediate());
                }
                _ => {
                    trrip.on_hit(&mut table_t.set_mut(ROW), way, None);
                    table_s.set_rrpv(ROW, way, Rrpv::immediate());
                }
            }
            // Both rows: equal tables means equal neighbours too.
            prop_assert_eq!(&table_t, &table_s);
        }
        prop_assert!(neighbour_untouched(&table_t));
    }

    /// Classification is monotone in count: a larger count never gets a
    /// colder temperature.
    #[test]
    fn classification_monotone_in_count(
        counts in prop::collection::vec(0u64..1_000_000, 1..128),
        percentile in 1u32..=100,
    ) {
        let config = ClassifierConfig::with_percentile_hot(f64::from(percentile) / 100.0);
        let summary = ProfileSummary::from_counts(counts.iter().copied(), config);
        let mut sorted = counts.clone();
        sorted.sort_unstable();
        for pair in sorted.windows(2) {
            prop_assert!(summary.classify(pair[0]) <= summary.classify(pair[1]));
        }
    }

    /// The hot set always covers at least the requested share of total
    /// execution (Equation 1's contract).
    #[test]
    fn hot_set_covers_percentile(
        counts in prop::collection::vec(1u64..100_000, 1..128),
        percentile in 1u32..=100,
    ) {
        let fraction = f64::from(percentile) / 100.0;
        let config = ClassifierConfig::with_percentile_hot(fraction);
        let summary = ProfileSummary::from_counts(counts.iter().copied(), config);
        let total: u64 = counts.iter().sum();
        let hot_sum: u64 = counts
            .iter()
            .filter(|&&c| summary.classify(c) == Temperature::Hot)
            .sum();
        prop_assert!(
            hot_sum as f64 + 1e-9 >= total as f64 * fraction,
            "hot covers {hot_sum} of {total}, needed {fraction}"
        );
    }
}
