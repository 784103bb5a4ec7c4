//! Set-dueling infrastructure (Qureshi et al., ISCA 2007).
//!
//! A handful of *leader sets* are dedicated to each of two competing
//! policies; misses in leader sets steer a saturating PSEL counter, and
//! all remaining *follower sets* adopt whichever policy is currently
//! winning. DRRIP and CLIP both use this with the paper's parameters:
//! 32 leader sets per policy and a 10-bit PSEL (§4.3).

use serde::{Deserialize, Serialize};
use trrip_snap::{SnapError, SnapReader, SnapWriter, Snapshot};

/// Which of the two dueling policies governs a set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DuelChoice {
    /// The first policy (e.g. SRRIP in DRRIP).
    A,
    /// The second policy (e.g. BRRIP in DRRIP).
    B,
}

/// Leader-set assignment plus the PSEL counter.
///
/// Leader sets are spread evenly through the index space: policy A leads
/// sets `k * stride`, policy B leads sets `k * stride + stride / 2`.
///
/// # Example
///
/// ```
/// use trrip_policies::dueling::{SetDueling, DuelChoice};
///
/// let mut duel = SetDueling::new(256);
/// // Follower sets use the PSEL winner; initially the counter is neutral
/// // and policy A wins ties.
/// assert_eq!(duel.choice_for_set(1), DuelChoice::A);
/// // Misses in A-leader sets count against A.
/// for _ in 0..600 { duel.record_miss(0); }
/// assert_eq!(duel.choice_for_set(1), DuelChoice::B);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SetDueling {
    stride: usize,
    half: usize,
    psel: u32,
    psel_max: u32,
}

impl SetDueling {
    /// Leader sets dedicated to each of the two policies (§4.3).
    pub const LEADERS_PER_POLICY: usize = 32;
    /// Width of the saturating PSEL counter (§4.3).
    pub const PSEL_BITS: u32 = 10;

    /// Creates dueling state for `num_sets`, with
    /// [`SetDueling::LEADERS_PER_POLICY`] leader sets each and a
    /// [`SetDueling::PSEL_BITS`]-wide counter.
    ///
    /// Degenerate geometries degrade gracefully: when the cache is too
    /// small to host both leader groups (fewer than two sets per leader
    /// pair), the leader count is clamped, and in the 1-set extreme the
    /// cache simply runs policy A.
    ///
    /// # Panics
    ///
    /// Panics if `num_sets` is zero.
    #[must_use]
    pub fn new(num_sets: usize) -> SetDueling {
        assert!(num_sets > 0, "need at least one set");
        let leaders_per_policy = Self::LEADERS_PER_POLICY.min((num_sets / 2).max(1));
        let stride = (num_sets / leaders_per_policy).max(1);
        let psel_max = (1 << Self::PSEL_BITS) - 1;
        SetDueling { stride, half: stride / 2, psel: psel_max / 2, psel_max }
    }

    /// Dueling state with `leaders_per_policy` leader sets each and a
    /// `psel_bits`-wide counter, for tests that read better on a small
    /// counter.
    #[cfg(test)]
    fn sized(num_sets: usize, leaders_per_policy: usize, psel_bits: u32) -> SetDueling {
        let stride = num_sets / leaders_per_policy;
        let psel_max = (1 << psel_bits) - 1;
        SetDueling { stride, half: stride / 2, psel: psel_max / 2, psel_max }
    }

    /// Which policy a set is a dedicated leader for, if any. In the
    /// degenerate 1-set geometry the A check wins, so policy A runs.
    #[must_use]
    pub fn leader_of(&self, set: usize) -> Option<DuelChoice> {
        let r = set % self.stride;
        if r == 0 {
            Some(DuelChoice::A)
        } else if r == self.half {
            Some(DuelChoice::B)
        } else {
            None
        }
    }

    /// The policy that governs `set`: its own if it is a leader, the PSEL
    /// winner otherwise.
    #[must_use]
    pub fn choice_for_set(&self, set: usize) -> DuelChoice {
        match self.leader_of(set) {
            Some(choice) => choice,
            None => self.winner(),
        }
    }

    /// The currently winning policy for follower sets.
    #[must_use]
    pub fn winner(&self) -> DuelChoice {
        if self.psel > self.psel_max / 2 {
            DuelChoice::B
        } else {
            DuelChoice::A
        }
    }

    /// Records a miss in `set`; only leader-set misses move the counter.
    /// A miss in an A-leader increments PSEL (evidence against A), a miss
    /// in a B-leader decrements it.
    pub fn record_miss(&mut self, set: usize) {
        match self.leader_of(set) {
            Some(DuelChoice::A) => self.psel = (self.psel + 1).min(self.psel_max),
            Some(DuelChoice::B) => self.psel = self.psel.saturating_sub(1),
            None => {}
        }
    }

    /// Current PSEL value (for tests and debugging).
    #[must_use]
    pub fn psel(&self) -> u32 {
        self.psel
    }
}

impl Snapshot for SetDueling {
    fn save(&self, w: &mut SnapWriter) {
        // Leader layout and counter geometry are configuration; the PSEL
        // value is the only architectural state.
        w.u64(u64::from(self.psel));
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let psel = r.u64()?;
        if psel > u64::from(self.psel_max) {
            return Err(SnapError::Corrupt(format!(
                "PSEL value {psel} exceeds counter maximum {}",
                self.psel_max
            )));
        }
        self.psel = psel as u32;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leader_layout_is_even_and_disjoint() {
        let duel = SetDueling::new(256);
        let mut a = 0;
        let mut b = 0;
        for set in 0..256 {
            match duel.leader_of(set) {
                Some(DuelChoice::A) => a += 1,
                Some(DuelChoice::B) => b += 1,
                None => {}
            }
        }
        assert_eq!(a, 32);
        assert_eq!(b, 32);
    }

    #[test]
    fn follower_sets_follow_psel() {
        let mut duel = SetDueling::sized(64, 8, 4);
        let follower = 1;
        assert_eq!(duel.leader_of(follower), None);
        assert_eq!(duel.choice_for_set(follower), DuelChoice::A);
        for _ in 0..16 {
            duel.record_miss(0); // A-leader misses
        }
        assert_eq!(duel.choice_for_set(follower), DuelChoice::B);
        for _ in 0..16 {
            duel.record_miss(duel.stride / 2); // B-leader misses
        }
        assert_eq!(duel.choice_for_set(follower), DuelChoice::A);
    }

    #[test]
    fn leaders_never_follow() {
        let mut duel = SetDueling::sized(64, 8, 4);
        for _ in 0..16 {
            duel.record_miss(0);
        }
        // Even though B is winning, the A-leader still runs A.
        assert_eq!(duel.choice_for_set(0), DuelChoice::A);
    }

    #[test]
    fn psel_saturates() {
        let mut duel = SetDueling::sized(64, 8, 4);
        for _ in 0..1000 {
            duel.record_miss(0);
        }
        assert_eq!(duel.psel(), 15);
        for _ in 0..2000 {
            duel.record_miss(4); // B leader (stride 8, half 4)
        }
        assert_eq!(duel.psel(), 0);
    }

    #[test]
    fn a_psel_past_its_maximum_is_refused_as_corrupt() {
        // One past the 10-bit maximum, 1023.
        let mut w = SnapWriter::new();
        w.u64(1 << SetDueling::PSEL_BITS);
        let bytes = w.into_bytes();
        let err = SetDueling::new(256).restore(&mut SnapReader::new(&bytes)).unwrap_err();
        assert!(
            matches!(&err, SnapError::Corrupt(what) if what.contains("PSEL value 1024")),
            "{err}"
        );
    }

    #[test]
    fn follower_misses_do_not_move_psel() {
        let mut duel = SetDueling::sized(64, 8, 4);
        let before = duel.psel();
        duel.record_miss(1);
        duel.record_miss(2);
        assert_eq!(duel.psel(), before);
    }

    #[test]
    fn leaders_fit_small_caches() {
        // 128 kB / 64 B / 8 ways = 256 sets — the headline config.
        let d = SetDueling::new(256);
        assert_eq!(d.stride, 8);
        // Must not panic even for tiny set counts.
        let _ = SetDueling::new(4);
    }
}
