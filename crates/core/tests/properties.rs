//! Property-based tests for the core TRRIP data types and the shared RRIP
//! eviction mechanism.

use proptest::prelude::*;

use trrip_core::{ClassifierConfig, ProfileSummary, RripTable, Rrpv, Temperature, TemperatureBits};

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
        let victim = table.find_victim(ROW);
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
