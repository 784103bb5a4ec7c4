//! Property-based tests for the core TRRIP state machines.

use proptest::prelude::*;

use trrip_core::{
    ClassifierConfig, ProfileSummary, RripTable, Rrpv, RrpvWidth, SrripCore, Temperature,
    TemperatureBits, TrripPolicy, TrripVariant,
};

/// The row the properties drive; row 0 is the neighbour that must not move.
const ROW: usize = 1;

/// What row 0 holds: a pattern that aging, promotion or a fill would each
/// disturb.
fn neighbour(way: usize, width: RrpvWidth) -> Rrpv {
    Rrpv::from_raw((way % 2) as u8, width)
}

/// A two-row table: the mechanisms run on row [`ROW`] and row 0 must come
/// out as it went in.
fn two_rows(ways: usize, width: RrpvWidth) -> RripTable {
    let mut table = RripTable::new(2, ways, width);
    for way in 0..ways {
        table.set_rrpv(0, way, neighbour(way, width));
    }
    table
}

fn neighbour_untouched(table: &RripTable) -> bool {
    (0..table.ways()).all(|way| table.rrpv(0, way) == neighbour(way, table.width()))
}

fn arb_width() -> impl Strategy<Value = RrpvWidth> {
    prop_oneof![Just(RrpvWidth::W1), Just(RrpvWidth::W2), Just(RrpvWidth::W3)]
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
    /// RRPVs never escape the configured field width under any op sequence.
    #[test]
    fn rrpv_stays_in_field(width in arb_width(), ops in prop::collection::vec(0u8..3, 0..64)) {
        let mut v = Rrpv::immediate();
        for op in ops {
            v = match op {
                0 => v.aged(width),
                1 => v.promoted(),
                _ => Rrpv::intermediate(width),
            };
            prop_assert!(v.raw() <= width.max_value());
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
        width in arb_width(),
        ways in 1usize..16,
        seeds in prop::collection::vec(0u8..8, 1..16),
    ) {
        let mut table = two_rows(ways, width);
        for (way, seed) in seeds.iter().enumerate().take(ways) {
            table.set_rrpv(ROW, way, Rrpv::from_raw(*seed, width));
        }
        let victim = table.set_mut(ROW).find_victim();
        prop_assert!(victim < ways);
        prop_assert!(table.rrpv(ROW, victim).is_distant(width));
        prop_assert!(neighbour_untouched(&table));
    }

    /// Aging preserves the relative order of lines in a set: if a < b
    /// before a global age step, then a <= b after.
    #[test]
    fn aging_preserves_order(width in arb_width(), a in 0u8..8, b in 0u8..8) {
        let ra = Rrpv::from_raw(a, width);
        let rb = Rrpv::from_raw(b, width);
        prop_assume!(ra < rb);
        prop_assert!(ra.aged(width) <= rb.aged(width));
    }

    /// Fills and hits with any temperature keep RRPVs inside the
    /// configured field width, for both TRRIP variants.
    #[test]
    fn trrip_ops_stay_in_field(
        variant in prop_oneof![Just(TrripVariant::V1), Just(TrripVariant::V2)],
        width in arb_width(),
        ops in prop::collection::vec((0u8..2, 0usize..4, arb_temperature()), 0..64),
    ) {
        let policy = TrripPolicy::new(variant, width);
        let mut table = two_rows(4, width);
        for (op, way, temp) in ops {
            match op {
                0 => policy.on_fill(&mut table.set_mut(ROW), way, temp),
                _ => policy.on_hit(&mut table.set_mut(ROW), way, temp),
            }
            prop_assert!(table.rrpv(ROW, way).raw() <= width.max_value());
        }
        prop_assert!(neighbour_untouched(&table));
    }

    /// TRRIP insertion priority is monotone in temperature: for any
    /// variant, hot inserts at a priority at least as high as warm, which
    /// is at least as high as cold or untyped (lower RRPV = higher priority).
    #[test]
    fn trrip_insertion_monotone_in_temperature(
        variant in prop_oneof![Just(TrripVariant::V1), Just(TrripVariant::V2)],
        width in arb_width(),
    ) {
        let policy = TrripPolicy::new(variant, width);
        let rrpv_for = |t: Option<Temperature>| {
            let mut table = two_rows(4, width);
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

    /// TRRIP with no temperature information is exactly SRRIP for any
    /// interleaving of fills and hits.
    #[test]
    fn untyped_trrip_equals_srrip(
        width in arb_width(),
        ops in prop::collection::vec((0u8..2, 0usize..8), 0..64),
    ) {
        let trrip = TrripPolicy::new(TrripVariant::V2, width);
        let srrip = SrripCore::new(width);
        let mut table_t = two_rows(8, width);
        let mut table_s = two_rows(8, width);
        for (op, way) in ops {
            match op {
                0 => {
                    trrip.on_fill(&mut table_t.set_mut(ROW), way, None);
                    srrip.on_fill(&mut table_s.set_mut(ROW), way);
                }
                _ => {
                    trrip.on_hit(&mut table_t.set_mut(ROW), way, None);
                    srrip.on_hit(&mut table_s.set_mut(ROW), way);
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
