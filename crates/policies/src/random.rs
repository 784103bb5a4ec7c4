//! Random replacement — a sanity-check baseline.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trrip_snap::{SnapError, SnapReader, SnapWriter};

use crate::{ReplacementPolicy, RequestInfo};

/// Uniformly random victim selection with a seeded RNG.
///
/// Not part of the paper's evaluation; used in tests and ablations as the
/// floor any informed policy must beat.
#[derive(Debug)]
pub struct RandomPolicy {
    rng: StdRng,
    ways: usize,
}

impl RandomPolicy {
    /// The seed [`crate::PolicyKind::build`] uses: "rrip".
    pub const DEFAULT_SEED: u64 = 0x7272_6970;

    /// Creates the policy for `ways`-way sets with a fixed seed so
    /// simulations stay reproducible.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero.
    #[must_use]
    pub fn new(ways: usize, seed: u64) -> RandomPolicy {
        assert!(ways > 0, "cache must have at least one way");
        RandomPolicy { rng: StdRng::seed_from_u64(seed), ways }
    }
}

impl ReplacementPolicy for RandomPolicy {
    fn name(&self) -> &'static str {
        "Random"
    }

    fn on_hit(&mut self, _set: usize, _way: usize, _req: &RequestInfo) {}

    fn choose_victim(&mut self, _set: usize, _req: &RequestInfo) -> usize {
        self.rng.gen_range(0..self.ways)
    }

    fn on_fill(&mut self, _set: usize, _way: usize, _req: &RequestInfo) {}

    fn per_line_overhead_bits(&self) -> u32 {
        0
    }

    fn save_state(&self, w: &mut SnapWriter) {
        // The RNG stream position IS the architectural state: a restored
        // policy must pick the same victims the original would have.
        for word in self.rng.state() {
            w.u64(word);
        }
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let mut state = [0u64; 4];
        for word in &mut state {
            *word = r.u64()?;
        }
        self.rng = StdRng::from_state(state);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn victim_is_always_a_candidate() {
        // Every way of a full set is a candidate, and only those.
        let mut p = RandomPolicy::new(3, 42);
        let req = RequestInfo::ifetch(0);
        let mut seen = [false; 3];
        for _ in 0..100 {
            seen[p.choose_victim(0, &req)] = true;
        }
        assert_eq!(seen, [true; 3]);
    }

    #[test]
    fn seeded_runs_are_deterministic() {
        let req = RequestInfo::ifetch(0);
        let picks = |seed| {
            let mut p = RandomPolicy::new(4, seed);
            (0..32).map(|_| p.choose_victim(0, &req)).collect::<Vec<_>>()
        };
        assert_eq!(picks(1), picks(1));
        assert_ne!(picks(1), picks(2));
    }
}
