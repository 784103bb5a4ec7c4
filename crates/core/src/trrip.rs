//! Algorithm 1: the TRRIP insertion and update sub-policies.
//!
//! TRRIP leaves RRIP's eviction mechanism untouched and changes only how
//! lines are inserted and promoted, keyed by the [`Temperature`] carried by
//! the memory request (not stored with the line):
//!
//! * **hit, hot** — promote to *immediate* (both variants; same as default).
//! * **hit, warm/cold** — variant 2 only: conservative single-step
//!   promotion `RRPV = max(RRPV − 1, immediate)` instead of a jump to
//!   immediate, so hot lines monopolize the top priority.
//! * **hit, no temperature** — default RRIP behaviour (promote to
//!   immediate). This covers data lines and un-annotated code.
//! * **fill, hot** — insert at *immediate* to prevent premature eviction.
//! * **fill, warm** — variant 2 only: insert at *near*, above data but
//!   below hot.
//! * **fill, cold / no temperature** — default SRRIP insertion at
//!   *intermediate*.

use serde::{Deserialize, Serialize};

use crate::rrip::TableSet;
use crate::rrpv::Rrpv;
use crate::temperature::Temperature;

/// Which TRRIP variant to run (§3.4).
///
/// Variant 1 is minimal and reacts only to *hot* lines, where most of the
/// benefit lives. Variant 2 adds the warm/cold rules on top to keep hot
/// lines at the highest priority for longer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TrripVariant {
    /// TRRIP-1: hot-only insertion/promotion rules.
    V1,
    /// TRRIP-2: hot rules plus warm insertion at *near* and conservative
    /// warm/cold hit promotion.
    V2,
}

/// The TRRIP replacement policy state machine (Algorithm 1).
///
/// The policy itself is stateless beyond its configuration: temperature
/// arrives with each request and nothing is stored per line, which is the
/// property that makes TRRIP's hardware cost negligible (Table 4).
///
/// # Example
///
/// ```
/// use trrip_core::{RripTable, TrripPolicy, TrripVariant, Temperature, Rrpv};
///
/// let trrip = TrripPolicy::new(TrripVariant::V2);
/// let mut table = RripTable::new(2, 8);
/// let mut set = table.set_mut(1);
///
/// let way = set.find_victim();
/// trrip.on_fill(&mut set, way, Some(Temperature::Warm));
/// assert_eq!(set.rrpv(way), Rrpv::near()); // warm inserts at near (V2)
///
/// trrip.on_hit(&mut set, way, Some(Temperature::Warm));
/// assert_eq!(set.rrpv(way), Rrpv::immediate()); // single-step promotion
/// assert_eq!(table.rrpv(0, way), Rrpv::distant()); // the other set is untouched
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrripPolicy {
    variant: TrripVariant,
}

impl TrripPolicy {
    /// Creates a TRRIP policy of the given variant.
    #[must_use]
    pub fn new(variant: TrripVariant) -> TrripPolicy {
        TrripPolicy { variant }
    }

    /// Cache hit: update the line's re-reference prediction
    /// (Algorithm 1, lines 1–12).
    ///
    /// `temperature` is the attribute carried by the *request*; `None`
    /// means the request had no valid temperature (data access, or code not
    /// compiled with TRRIP's PGO) and gets default RRIP behaviour.
    pub fn on_hit(&self, set: &mut TableSet<'_>, way: usize, temperature: Option<Temperature>) {
        match temperature {
            // Hot: both variants promote straight to immediate (lines 3-5).
            Some(Temperature::Hot) => set.set_rrpv(way, Rrpv::immediate()),
            // Warm/cold: variant 2 promotes one step only (lines 6-8);
            // variant 1 falls through to default behaviour.
            Some(Temperature::Warm | Temperature::Cold) => match self.variant {
                TrripVariant::V2 => {
                    let promoted = set.rrpv(way).promoted();
                    set.set_rrpv(way, promoted);
                }
                TrripVariant::V1 => set.set_rrpv(way, Rrpv::immediate()),
            },
            // Default behaviour (lines 9-11).
            None => set.set_rrpv(way, Rrpv::immediate()),
        }
    }

    /// Cache fill after eviction: set the inserted line's prediction
    /// (Algorithm 1, lines 14–25).
    pub fn on_fill(&self, set: &mut TableSet<'_>, way: usize, temperature: Option<Temperature>) {
        match temperature {
            // Hot: insert at immediate to prevent premature eviction
            // (lines 16-18).
            Some(Temperature::Hot) => set.set_rrpv(way, Rrpv::immediate()),
            // Warm: variant 2 inserts at near (lines 19-21).
            Some(Temperature::Warm) if self.variant == TrripVariant::V2 => {
                set.set_rrpv(way, Rrpv::near());
            }
            // Cold, warm under variant 1, and no-temperature requests all
            // take the default SRRIP insertion (lines 22-24).
            _ => set.set_rrpv(way, Rrpv::intermediate()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rrip::tests::{assert_neighbour_untouched, two_rows, ROW};
    use crate::RripTable;

    fn setup(variant: TrripVariant) -> (TrripPolicy, RripTable) {
        (TrripPolicy::new(variant), two_rows(8))
    }

    #[test]
    fn hot_fill_inserts_immediate_both_variants() {
        for variant in [TrripVariant::V1, TrripVariant::V2] {
            let (p, mut table) = setup(variant);
            p.on_fill(&mut table.set_mut(ROW), 0, Some(Temperature::Hot));
            assert_eq!(table.rrpv(ROW, 0), Rrpv::immediate(), "{variant:?}");
            assert_neighbour_untouched(&table);
        }
    }

    #[test]
    fn warm_fill_near_only_in_v2() {
        let (p2, mut table) = setup(TrripVariant::V2);
        p2.on_fill(&mut table.set_mut(ROW), 0, Some(Temperature::Warm));
        assert_eq!(table.rrpv(ROW, 0), Rrpv::near());
        assert_neighbour_untouched(&table);

        let (p1, mut table) = setup(TrripVariant::V1);
        p1.on_fill(&mut table.set_mut(ROW), 0, Some(Temperature::Warm));
        assert_eq!(table.rrpv(ROW, 0), Rrpv::intermediate());
        assert_neighbour_untouched(&table);
    }

    #[test]
    fn cold_fill_is_default_in_both_variants() {
        for variant in [TrripVariant::V1, TrripVariant::V2] {
            let (p, mut table) = setup(variant);
            p.on_fill(&mut table.set_mut(ROW), 0, Some(Temperature::Cold));
            assert_eq!(table.rrpv(ROW, 0), Rrpv::intermediate(), "{variant:?}");
            assert_neighbour_untouched(&table);
        }
    }

    #[test]
    fn untyped_fill_matches_srrip() {
        for variant in [TrripVariant::V1, TrripVariant::V2] {
            let (p, mut table) = setup(variant);
            p.on_fill(&mut table.set_mut(ROW), 0, None);
            assert_eq!(table.rrpv(ROW, 0), Rrpv::intermediate(), "{variant:?}");
            assert_neighbour_untouched(&table);
        }
    }

    #[test]
    fn hot_hit_promotes_to_immediate() {
        for variant in [TrripVariant::V1, TrripVariant::V2] {
            let (p, mut table) = setup(variant);
            table.set_rrpv(ROW, 0, Rrpv::distant());
            p.on_hit(&mut table.set_mut(ROW), 0, Some(Temperature::Hot));
            assert_eq!(table.rrpv(ROW, 0), Rrpv::immediate(), "{variant:?}");
            assert_neighbour_untouched(&table);
        }
    }

    #[test]
    fn warm_hit_single_step_in_v2() {
        let (p, mut table) = setup(TrripVariant::V2);
        let mut set = table.set_mut(ROW);
        set.set_rrpv(0, Rrpv::distant()); // 3
        p.on_hit(&mut set, 0, Some(Temperature::Warm));
        assert_eq!(set.rrpv(0).raw(), 2);
        p.on_hit(&mut set, 0, Some(Temperature::Warm));
        assert_eq!(set.rrpv(0).raw(), 1);
        p.on_hit(&mut set, 0, Some(Temperature::Cold));
        assert_eq!(set.rrpv(0).raw(), 0);
        // Saturates at immediate.
        p.on_hit(&mut set, 0, Some(Temperature::Warm));
        assert_eq!(set.rrpv(0).raw(), 0);
        assert_neighbour_untouched(&table);
    }

    #[test]
    fn warm_hit_jumps_to_immediate_in_v1() {
        let (p, mut table) = setup(TrripVariant::V1);
        table.set_rrpv(ROW, 0, Rrpv::distant());
        p.on_hit(&mut table.set_mut(ROW), 0, Some(Temperature::Warm));
        assert_eq!(table.rrpv(ROW, 0), Rrpv::immediate());
        assert_neighbour_untouched(&table);
    }

    #[test]
    fn untyped_hit_is_default_promotion() {
        for variant in [TrripVariant::V1, TrripVariant::V2] {
            let (p, mut table) = setup(variant);
            table.set_rrpv(ROW, 0, Rrpv::distant());
            p.on_hit(&mut table.set_mut(ROW), 0, None);
            assert_eq!(table.rrpv(ROW, 0), Rrpv::immediate(), "{variant:?}");
            assert_neighbour_untouched(&table);
        }
    }

    #[test]
    fn executing_hot_line_outlives_untyped_scan() {
        // End-to-end property of Algorithm 1: a hot line that keeps being
        // executed (hit between misses) survives a scan of untyped fills.
        let p = TrripPolicy::new(TrripVariant::V1);
        let mut table = two_rows(4);
        let mut set = table.set_mut(ROW);

        let hot_way = set.find_victim();
        p.on_fill(&mut set, hot_way, Some(Temperature::Hot));

        for _ in 0..12 {
            let v = set.find_victim();
            assert_ne!(v, hot_way, "hot line evicted by scan");
            p.on_fill(&mut set, v, None);
            p.on_hit(&mut set, hot_way, Some(Temperature::Hot));
        }
        assert_neighbour_untouched(&table);
    }

    #[test]
    fn idle_hot_line_survives_longer_than_untyped() {
        // Without any hits, a hot insertion (immediate) still survives
        // strictly more scan fills than an untyped insertion (intermediate).
        let p = TrripPolicy::new(TrripVariant::V1);
        let survive = |temp: Option<Temperature>| {
            let mut table = two_rows(4);
            let mut set = table.set_mut(ROW);
            let way = set.find_victim();
            p.on_fill(&mut set, way, temp);
            let mut fills = 0u32;
            let fills = loop {
                let v = set.find_victim();
                if v == way {
                    break fills;
                }
                p.on_fill(&mut set, v, None);
                fills += 1;
            };
            assert_neighbour_untouched(&table);
            fills
        };
        assert!(
            survive(Some(Temperature::Hot)) > survive(None),
            "hot insertion should outlast untyped insertion under a scan"
        );
    }
}
