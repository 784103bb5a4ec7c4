//! The RRIP family — SRRIP, BRRIP, DRRIP, CLIP and TRRIP's two variants —
//! as one policy.
//!
//! Every member shares RRIP's eviction mechanism (`GetEvictionLine` in
//! Algorithm 1, [`RripTable::find_victim`]) and differs only in the RRPV
//! written on a fill and on a hit. So one [`Rrip`] holds the table and
//! the little state some members add, and states each member's two rules
//! as arms of one `match` in `on_fill` and one in `on_hit`:
//!
//! * **SRRIP** — the paper's baseline, to which every speedup (Figure 6,
//!   Table 3) is normalized. *Scan-resistant*: a fill inserts at
//!   *intermediate*, only a hit promotes to *immediate*.
//! * **BRRIP** — *thrash-resistant*: a fill inserts at *distant* except
//!   for one fill in [`Rrip::THROTTLE`] (the RRIP paper's 1/32), which
//!   inserts at *intermediate*, so a fraction of a thrashing working set
//!   sticks. The "probability" is a deterministic throttle counter, as in
//!   common hardware, which keeps simulations reproducible. On the paper's
//!   frontend-bound benchmarks BRRIP is far worse than SRRIP (Figure 6):
//!   their instruction working sets are reused, not thrashed.
//! * **DRRIP** — set-dueling ([`SetDueling`]) between SRRIP (A) and BRRIP
//!   (B) fills. The BRRIP leader sets keep paying for thrash-resistance
//!   the workloads do not need (§4.4).
//! * **CLIP** — Code Line Preservation (Jaleel et al., HPCA 2015): every
//!   instruction line inserts at *immediate*, data lines take SRRIP's
//!   path. Set-dueling picks between promoting a data hit to *immediate*
//!   (A) and stepping it up by one, never past *near* (B) (§4.3). CLIP is
//!   TRRIP's temperature-blind comparison point: §4.7 shows that treating
//!   all code as hot behaves like CLIP.
//! * **TRRIP-1/2** — Algorithm 1, keyed by the [`Temperature`] the request
//!   carries. Nothing about a request is stored per line (§3.4), so
//!   TRRIP's state is exactly SRRIP's table. Variant 1 reacts to *hot*
//!   lines only; variant 2 adds the warm and cold rules that keep hot
//!   lines at the top priority for longer. Temperature only applies to
//!   instruction requests: "TRRIP's replacement policy features only
//!   trigger on instruction memory requests containing valid temperature
//!   information" (§3.4).

use trrip_core::{RripTable, Rrpv, Temperature};
use trrip_snap::{SnapError, SnapReader, SnapWriter, Snapshot};

use crate::dueling::{DuelChoice, SetDueling};
use crate::{PolicyKind, ReplacementPolicy, RequestInfo};

/// One RRIP-family policy over per-set RRPV registers: what
/// [`PolicyKind::build`] returns for SRRIP, BRRIP, DRRIP, CLIP, TRRIP-1
/// and TRRIP-2.
#[derive(Debug, Clone)]
pub(crate) struct Rrip {
    kind: PolicyKind,
    table: RripTable,
    /// BRRIP's fill counter, in `0..THROTTLE` (BRRIP and DRRIP).
    throttle: u32,
    /// The leader sets and PSEL of DRRIP and CLIP.
    dueling: Option<SetDueling>,
}

impl Rrip {
    /// BRRIP's insertion throttle: 1 in 32 fills is *intermediate*.
    const THROTTLE: u32 = 32;

    /// Creates `kind`'s state for a `sets × ways` cache.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    pub(crate) fn new(kind: PolicyKind, sets: usize, ways: usize) -> Rrip {
        let duels = matches!(kind, PolicyKind::Drrip | PolicyKind::Clip);
        Rrip {
            kind,
            table: RripTable::new(sets, ways),
            throttle: 0,
            dueling: duels.then(|| SetDueling::new(sets)),
        }
    }

    fn throttled(&self) -> bool {
        matches!(self.kind, PolicyKind::Brrip | PolicyKind::Drrip)
    }

    /// The dueling policy that governs `set`; A where nothing duels.
    fn duel(&self, set: usize) -> DuelChoice {
        self.dueling.as_ref().map_or(DuelChoice::A, |d| d.choice_for_set(set))
    }

    /// BRRIP's fill: *intermediate* once in [`Rrip::THROTTLE`] fills,
    /// *distant* otherwise.
    fn bimodal(&mut self) -> Rrpv {
        self.throttle = (self.throttle + 1) % Rrip::THROTTLE;
        if self.throttle == 0 {
            Rrpv::intermediate()
        } else {
            Rrpv::distant()
        }
    }
}

/// The temperature a request carries, if it is an instruction request: a
/// data request takes the default path even if attribute bits were set.
fn temperature(req: &RequestInfo) -> Option<Temperature> {
    req.temperature.filter(|_| req.kind.is_instruction())
}

impl ReplacementPolicy for Rrip {
    fn on_hit(&mut self, set: usize, way: usize, req: &RequestInfo) {
        let rrpv = match (self.kind, temperature(req)) {
            // TRRIP-2, warm or cold: one step, `max(RRPV - 1, immediate)`,
            // so hot lines keep the top priority to themselves (lines 6-8).
            (PolicyKind::Trrip2, Some(Temperature::Warm | Temperature::Cold)) => {
                self.table.rrpv(set, way).promoted()
            }
            // CLIP's B sets: a data line steps up by one, never past near.
            (PolicyKind::Clip, _)
                if !req.kind.is_instruction() && self.duel(set) == DuelChoice::B =>
            {
                self.table.rrpv(set, way).promoted().max(Rrpv::near())
            }
            // Immediate: every other member, TRRIP's hot hits (lines 3-5),
            // variant 1's warm and cold ones and the default (lines 9-11).
            _ => Rrpv::immediate(),
        };
        self.table.set_rrpv(set, way, rrpv);
    }

    fn choose_victim(&mut self, set: usize, _req: &RequestInfo) -> usize {
        if let Some(dueling) = &mut self.dueling {
            dueling.record_miss(set);
        }
        // Eviction is untouched RRIP (Algorithm 1, line 14).
        self.table.find_victim(set)
    }

    fn on_fill(&mut self, set: usize, way: usize, req: &RequestInfo) {
        let rrpv = match (self.kind, temperature(req)) {
            (PolicyKind::Brrip, _) => self.bimodal(),
            (PolicyKind::Drrip, _) if self.duel(set) == DuelChoice::B => self.bimodal(),
            (PolicyKind::Clip, _) if req.kind.is_instruction() => Rrpv::immediate(),
            // TRRIP, hot: immediate, against premature eviction
            // (Algorithm 1, lines 16-18).
            (PolicyKind::Trrip1 | PolicyKind::Trrip2, Some(Temperature::Hot)) => Rrpv::immediate(),
            // TRRIP-2, warm: near, above data but below hot (lines 19-21).
            (PolicyKind::Trrip2, Some(Temperature::Warm)) => Rrpv::near(),
            // SRRIP's insertion: SRRIP, DRRIP's A sets, CLIP's data, and
            // TRRIP's cold, variant 1's warm and every untyped request
            // (lines 22-24).
            _ => Rrpv::intermediate(),
        };
        self.table.set_rrpv(set, way, rrpv);
    }

    fn on_invalidate(&mut self, set: usize, way: usize) {
        self.table.invalidate(set, way);
    }

    fn save_state(&self, w: &mut SnapWriter) {
        self.table.save(w);
        if self.throttled() {
            w.u64(u64::from(self.throttle));
        }
        if let Some(dueling) = &self.dueling {
            dueling.save(w);
        }
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.table.restore(r)?;
        if self.throttled() {
            let counter = r.u64()?;
            if counter >= u64::from(Rrip::THROTTLE) {
                return Err(SnapError::Mismatch(format!(
                    "BRRIP throttle counter {counter} out of range for throttle {}",
                    Rrip::THROTTLE
                )));
            }
            self.throttle = counter as u32;
        }
        match &mut self.dueling {
            Some(dueling) => dueling.restore(r),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The row the tests drive; row 0 is the neighbour that must not move.
    const ROW: usize = 1;

    /// What row 0 holds: a pattern that aging, promotion or a fill would
    /// each disturb (alternating immediate / one step aged).
    fn neighbour(way: usize) -> Rrpv {
        Rrpv::from_raw((way % 2) as u8)
    }

    /// `kind` over two sets; with two sets, set 0 leads A and set 1 leads
    /// B for DRRIP and CLIP.
    fn two_rows(kind: PolicyKind, ways: usize) -> Rrip {
        let mut p = Rrip::new(kind, 2, ways);
        for way in 0..ways {
            p.table.set_rrpv(0, way, neighbour(way));
        }
        p
    }

    fn assert_neighbour_untouched(p: &Rrip) {
        for way in 0..p.table.ways() {
            assert_eq!(p.table.rrpv(0, way), neighbour(way), "row 0 moved at way {way}");
        }
    }

    fn fetch(temperature: Option<Temperature>) -> RequestInfo {
        RequestInfo::ifetch(0x40).with_temperature(temperature)
    }

    const TRRIP: [PolicyKind; 2] = [PolicyKind::Trrip1, PolicyKind::Trrip2];

    /// The RRPV one fill by `req` writes into a fresh `kind`.
    fn filled(kind: PolicyKind, req: &RequestInfo) -> Rrpv {
        let mut p = two_rows(kind, 8);
        p.on_fill(ROW, 0, req);
        assert_neighbour_untouched(&p);
        p.table.rrpv(ROW, 0)
    }

    /// The RRPV one hit by `req` writes over a distant line of `kind`.
    fn hit(kind: PolicyKind, req: &RequestInfo) -> Rrpv {
        let mut p = two_rows(kind, 8);
        p.on_hit(ROW, 0, req);
        assert_neighbour_untouched(&p);
        p.table.rrpv(ROW, 0)
    }

    #[test]
    fn srrip_insert_intermediate_hit_immediate() {
        // A fill at intermediate is one aging step from eviction, a hit at
        // immediate is three.
        let mut p = two_rows(PolicyKind::Srrip, 4);
        let req = fetch(None);
        for way in 0..4 {
            p.on_fill(ROW, way, &req);
            p.on_hit(ROW, way, &req);
        }
        p.on_fill(ROW, 1, &req);
        assert_eq!(p.choose_victim(ROW, &req), 1);
        for way in [0, 2, 3] {
            assert_eq!(p.table.rrpv(ROW, way), Rrpv::near());
        }
        assert_neighbour_untouched(&p);
    }

    #[test]
    fn scan_resistance_srrip_keeps_reused_line() {
        // A reused line survives a burst of scanning fills: the scan
        // inserts at intermediate, the reused line is hit back to immediate.
        let mut p = two_rows(PolicyKind::Srrip, 4);
        let req = fetch(None);
        p.on_fill(ROW, 0, &req);
        p.on_hit(ROW, 0, &req);
        for _ in 0..16 {
            let v = p.choose_victim(ROW, &req);
            assert_ne!(v, 0, "scan evicted the reused line");
            p.on_fill(ROW, v, &req);
            p.on_hit(ROW, 0, &req);
        }
        assert_neighbour_untouched(&p);
    }

    #[test]
    fn fill_then_hit_promotes() {
        let mut p = Rrip::new(PolicyKind::Srrip, 4, 4);
        let req = RequestInfo::ifetch(0);
        p.on_fill(0, 0, &req);
        p.on_hit(0, 0, &req);
        // Way 0 is immediate: a victim scan must not pick it before others.
        assert_ne!(p.choose_victim(0, &req), 0);
    }

    #[test]
    fn aging_applies_to_whole_set() {
        let mut p = Rrip::new(PolicyKind::Srrip, 1, 2);
        let req = RequestInfo::ifetch(0);
        p.on_fill(0, 0, &req);
        p.on_hit(0, 0, &req); // way 0 immediate
        p.on_fill(0, 1, &req); // way 1 intermediate
                               // Nothing distant: the set ages until way 1 is (one step).
        assert_eq!(p.choose_victim(0, &req), 1);
        // Way 0 aged from immediate to near as a side effect.
        assert_eq!(p.table.rrpv(0, 0), Rrpv::near());
    }

    #[test]
    fn brrip_mostly_inserts_distant() {
        let mut p = two_rows(PolicyKind::Brrip, 4);
        let mut intermediate = 0;
        for _ in 0..320 {
            p.on_fill(ROW, 0, &fetch(None));
            if p.table.rrpv(ROW, 0) == Rrpv::intermediate() {
                intermediate += 1;
            } else {
                assert_eq!(p.table.rrpv(ROW, 0), Rrpv::distant());
            }
        }
        assert_eq!(intermediate, 320 / Rrip::THROTTLE); // exactly 1/32
        assert_neighbour_untouched(&p);
    }

    #[test]
    fn most_fills_are_distant() {
        // Temperature and kind move nothing: BRRIP's throttle alone decides.
        let mut p = Rrip::new(PolicyKind::Brrip, 1, 1);
        let mut distant = 0;
        for i in 0..64 {
            let req =
                if i % 2 == 0 { fetch(Some(Temperature::Hot)) } else { RequestInfo::data_load(0) };
            p.on_fill(0, 0, &req);
            if p.table.rrpv(0, 0) == Rrpv::distant() {
                distant += 1;
            }
        }
        assert_eq!(distant, 62); // 2 of 64 fills are intermediate
    }

    #[test]
    fn freshly_inserted_distant_line_is_first_victim() {
        let mut p = Rrip::new(PolicyKind::Brrip, 1, 4);
        let req = RequestInfo::ifetch(0);
        // Fill ways 0..3, hit 0..2 so they're immediate; way 3 stays distant.
        for way in 0..4 {
            p.on_fill(0, way, &req);
        }
        for way in 0..3 {
            p.on_hit(0, way, &req);
        }
        assert_eq!(p.choose_victim(0, &req), 3);
    }

    #[test]
    fn leader_sets_use_their_policy() {
        let mut p = Rrip::new(PolicyKind::Drrip, 256, 8);
        let req = RequestInfo::ifetch(0);
        // Set 0 is an A (SRRIP) leader with stride 8.
        assert_eq!(p.duel(0), DuelChoice::A);
        p.on_fill(0, 0, &req);
        assert_eq!(p.table.rrpv(0, 0), Rrpv::intermediate());
        // Set 4 is a B (BRRIP) leader: most fills distant.
        assert_eq!(p.duel(4), DuelChoice::B);
        let mut distant = 0;
        for _ in 0..31 {
            p.on_fill(4, 1, &req);
            if p.table.rrpv(4, 1) == Rrpv::distant() {
                distant += 1;
            }
        }
        assert!(distant >= 30);
    }

    #[test]
    fn follower_switches_with_psel() {
        let mut p = Rrip::new(PolicyKind::Drrip, 256, 8);
        let req = RequestInfo::ifetch(0);
        assert_eq!(p.duel(1), DuelChoice::A);
        // Hammer misses into A-leader sets only.
        for _ in 0..600 {
            let _ = p.choose_victim(0, &req);
        }
        assert_eq!(p.duel(1), DuelChoice::B);
        let before = p.throttle;
        p.on_fill(1, 0, &req);
        assert_eq!(p.table.rrpv(1, 0), Rrpv::distant(), "a B follower fills as BRRIP");
        assert_eq!(p.throttle, before + 1);
    }

    #[test]
    fn psel_storage_reported() {
        // The paper's 10-bit PSEL: it saturates at 2^10 - 1.
        for kind in [PolicyKind::Drrip, PolicyKind::Clip] {
            let mut p = Rrip::new(kind, 256, 8);
            let req = RequestInfo::ifetch(0);
            for _ in 0..2000 {
                let _ = p.choose_victim(0, &req);
            }
            assert_eq!(p.dueling.as_ref().map(SetDueling::psel), Some((1 << 10) - 1), "{kind}");
        }
    }

    #[test]
    fn instruction_fills_insert_immediate() {
        for set in [0, 1] {
            let mut p = Rrip::new(PolicyKind::Clip, 64, 8);
            p.on_fill(set, 0, &RequestInfo::ifetch(0x40));
            assert_eq!(p.table.rrpv(set, 0), Rrpv::immediate());
        }
    }

    #[test]
    fn data_fills_insert_intermediate() {
        for set in [0, 1] {
            let mut p = Rrip::new(PolicyKind::Clip, 64, 8);
            p.on_fill(set, 0, &RequestInfo::data_load(0x40));
            assert_eq!(p.table.rrpv(set, 0), Rrpv::intermediate());
        }
    }

    #[test]
    fn variant_b_caps_data_promotion_at_near() {
        let mut p = Rrip::new(PolicyKind::Clip, 64, 8);
        let req = RequestInfo::data_load(0x40);
        // 64 sets: stride 2, so every odd set leads B.
        let b_set = 1;
        assert_eq!(p.dueling.as_ref().and_then(|d| d.leader_of(b_set)), Some(DuelChoice::B));
        p.on_fill(b_set, 0, &req);
        for _ in 0..5 {
            p.on_hit(b_set, 0, &req);
        }
        assert_eq!(p.table.rrpv(b_set, 0), Rrpv::near());
    }

    #[test]
    fn variant_a_promotes_data_to_immediate() {
        let mut p = Rrip::new(PolicyKind::Clip, 64, 8);
        let req = RequestInfo::data_load(0x40);
        let a_set = 0; // set 0 is always an A leader
        p.on_fill(a_set, 0, &req);
        p.on_hit(a_set, 0, &req);
        assert_eq!(p.table.rrpv(a_set, 0), Rrpv::immediate());
    }

    #[test]
    fn instruction_hits_promote_to_immediate_in_both_variants() {
        let mut p = Rrip::new(PolicyKind::Clip, 64, 8);
        let req = RequestInfo::ifetch(0x40);
        for set in [0usize, 1] {
            p.on_fill(set, 0, &req);
            p.table.set_rrpv(set, 0, Rrpv::distant());
            p.on_hit(set, 0, &req);
            assert_eq!(p.table.rrpv(set, 0), Rrpv::immediate());
        }
    }

    #[test]
    fn hot_fill_inserts_immediate_both_variants() {
        for kind in TRRIP {
            assert_eq!(filled(kind, &fetch(Some(Temperature::Hot))), Rrpv::immediate(), "{kind}");
        }
    }

    #[test]
    fn warm_fill_near_only_in_v2() {
        let warm = fetch(Some(Temperature::Warm));
        assert_eq!(filled(PolicyKind::Trrip2, &warm), Rrpv::near());
        assert_eq!(filled(PolicyKind::Trrip1, &warm), Rrpv::intermediate());
    }

    #[test]
    fn cold_fill_is_default_in_both_variants() {
        for kind in TRRIP {
            let cold = fetch(Some(Temperature::Cold));
            assert_eq!(filled(kind, &cold), Rrpv::intermediate(), "{kind}");
        }
    }

    #[test]
    fn untyped_fill_matches_srrip() {
        for kind in TRRIP {
            assert_eq!(filled(kind, &fetch(None)), filled(PolicyKind::Srrip, &fetch(None)));
        }
    }

    #[test]
    fn hot_hit_promotes_to_immediate() {
        for kind in TRRIP {
            assert_eq!(hit(kind, &fetch(Some(Temperature::Hot))), Rrpv::immediate(), "{kind}");
        }
    }

    #[test]
    fn warm_hit_single_step_in_v2() {
        let mut p = two_rows(PolicyKind::Trrip2, 8);
        let steps = [Temperature::Warm, Temperature::Warm, Temperature::Cold, Temperature::Warm];
        // From distant (3): 2, 1, 0, and it saturates at immediate.
        for (temperature, expected) in steps.into_iter().zip([2, 1, 0, 0]) {
            p.on_hit(ROW, 0, &fetch(Some(temperature)));
            assert_eq!(p.table.rrpv(ROW, 0).raw(), expected);
        }
        assert_neighbour_untouched(&p);
    }

    #[test]
    fn warm_hit_jumps_to_immediate_in_v1() {
        assert_eq!(hit(PolicyKind::Trrip1, &fetch(Some(Temperature::Warm))), Rrpv::immediate());
        assert_eq!(hit(PolicyKind::Trrip1, &fetch(Some(Temperature::Cold))), Rrpv::immediate());
    }

    #[test]
    fn untyped_hit_is_default_promotion() {
        for kind in TRRIP {
            assert_eq!(hit(kind, &fetch(None)), Rrpv::immediate(), "{kind}");
        }
    }

    #[test]
    fn temperature_on_data_requests_is_ignored() {
        let tagged = |t| RequestInfo::data_load(0x100).with_temperature(Some(t));
        for kind in TRRIP {
            for t in [Temperature::Hot, Temperature::Warm, Temperature::Cold] {
                assert_eq!(filled(kind, &tagged(t)), Rrpv::intermediate(), "{kind} fill {t:?}");
                assert_eq!(hit(kind, &tagged(t)), Rrpv::immediate(), "{kind} hit {t:?}");
            }
        }
    }

    #[test]
    fn executing_hot_line_outlives_untyped_scan() {
        // A hot line that keeps being executed (hit between misses)
        // survives a scan of untyped fills.
        let mut p = two_rows(PolicyKind::Trrip1, 4);
        let hot = fetch(Some(Temperature::Hot));
        let hot_way = p.choose_victim(ROW, &hot);
        p.on_fill(ROW, hot_way, &hot);
        for _ in 0..12 {
            let v = p.choose_victim(ROW, &fetch(None));
            assert_ne!(v, hot_way, "hot line evicted by scan");
            p.on_fill(ROW, v, &fetch(None));
            p.on_hit(ROW, hot_way, &hot);
        }
        assert_neighbour_untouched(&p);
    }

    #[test]
    fn hot_code_survives_data_pressure() {
        // The headline behaviour: a hot instruction line being executed
        // regularly survives a stream of data fills through its set,
        // where SRRIP would age it out.
        let mut p = Rrip::new(PolicyKind::Trrip1, 1, 4);
        let hot = fetch(Some(Temperature::Hot));
        let hot_way = p.choose_victim(0, &hot);
        p.on_fill(0, hot_way, &hot);
        for i in 0..32 {
            let data = RequestInfo::data_load(0x9000 + i * 64);
            let victim = p.choose_victim(0, &data);
            assert_ne!(victim, hot_way, "hot line evicted at iteration {i}");
            p.on_fill(0, victim, &data);
            p.on_hit(0, hot_way, &hot);
        }
    }

    #[test]
    fn idle_hot_line_survives_longer_than_untyped() {
        // Without any hits, a hot insertion (immediate) still survives
        // strictly more scan fills than an untyped insertion (intermediate).
        let survive = |temperature| {
            let mut p = two_rows(PolicyKind::Trrip1, 4);
            let way = p.choose_victim(ROW, &fetch(temperature));
            p.on_fill(ROW, way, &fetch(temperature));
            let mut fills = 0u32;
            loop {
                let v = p.choose_victim(ROW, &fetch(None));
                if v == way {
                    assert_neighbour_untouched(&p);
                    return fills;
                }
                p.on_fill(ROW, v, &fetch(None));
                fills += 1;
            }
        };
        assert!(
            survive(Some(Temperature::Hot)) > survive(None),
            "hot insertion should outlast untyped insertion under a scan"
        );
    }

    #[test]
    fn untyped_behaviour_matches_srrip() {
        let mut trrip = Rrip::new(PolicyKind::Trrip2, 1, 4);
        let mut srrip = Rrip::new(PolicyKind::Srrip, 1, 4);
        for i in 0..64 {
            let r = RequestInfo::ifetch(0x40 + (i % 8) * 64);
            let v = trrip.choose_victim(0, &r);
            assert_eq!(v, srrip.choose_victim(0, &r));
            trrip.on_fill(0, v, &r);
            srrip.on_fill(0, v, &r);
            trrip.on_hit(0, (v + 1) % 4, &r);
            srrip.on_hit(0, (v + 1) % 4, &r);
            assert_eq!(trrip.table, srrip.table);
        }
    }

    #[test]
    fn per_line_overhead_equals_baseline_rrip() {
        // Nothing about a request is stored with the line (§3.4): TRRIP's
        // whole state is SRRIP's RRPV array, byte for byte in size.
        let state = |kind| {
            let mut w = SnapWriter::new();
            Rrip::new(kind, 64, 8).save_state(&mut w);
            w.into_bytes().len()
        };
        for kind in TRRIP {
            assert_eq!(state(kind), state(PolicyKind::Srrip), "{kind}");
        }
    }
}
