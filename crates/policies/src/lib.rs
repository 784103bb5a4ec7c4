//! Cache replacement policies evaluated in the TRRIP paper.
//!
//! One object-safe trait, [`ReplacementPolicy`], and an implementation for
//! every mechanism of §4.3, each built by [`PolicyKind::build`]:
//!
//! | policy | module | notes |
//! |---|---|---|
//! | LRU | [`lru`] | true-LRU stacks |
//! | SRRIP | `rrip` | the paper's normalization baseline |
//! | BRRIP | `rrip` | bimodal thrash-resistant insertion |
//! | DRRIP | `rrip` | SRRIP/BRRIP set-dueling ([`dueling`]), 10-bit PSEL |
//! | SHiP | [`ship`] | PC-signature hit predictor, instruction lines only |
//! | CLIP | `rrip` | code-line preservation with set-dueling |
//! | Emissary | [`emissary`] | starvation-priority way-locking over LRU |
//! | TRRIP | `rrip` | Algorithm 1, variants 1 and 2 |
//!
//! The six RRIP-family policies are one crate-private type: they share
//! RRIP's eviction and differ only in the RRPV written on a fill and on a
//! hit, so `rrip` states their rules as one `match` each.
//!
//! The cache model drives a policy through a fixed protocol:
//!
//! 1. hit  → [`ReplacementPolicy::on_hit`]
//! 2. miss → [`ReplacementPolicy::choose_victim`] (only when the set is
//!    full; the cache takes an invalid way itself), then
//!    [`ReplacementPolicy::on_evict`] for the displaced line, then
//!    [`ReplacementPolicy::on_fill`] for the incoming one.
//!
//! Every policy also exposes its architectural state for checkpointing
//! ([`ReplacementPolicy::save_state`] / [`ReplacementPolicy::restore_state`]):
//! a policy rebuilt from its configuration
//! ([`PolicyKind::build`]) and then restored behaves bit-identically to
//! the original under any subsequent access sequence.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dueling;
pub mod emissary;
pub mod info;
pub mod kind;
pub mod lru;
mod rrip;
pub mod ship;

pub use dueling::SetDueling;
pub use emissary::Emissary;
pub use info::RequestInfo;
pub use kind::PolicyKind;
pub use lru::Lru;
pub use ship::Ship;

/// A cache replacement policy attached to one cache instance.
///
/// Implementations own all their per-set metadata (RRPV arrays, LRU
/// stacks, priority bits, predictor tables). The trait is object-safe so a
/// cache can hold a `Box<dyn ReplacementPolicy>` chosen at run time; a
/// cache whose policy is fixed holds the concrete type and pays no
/// dispatch.
pub trait ReplacementPolicy: Send {
    /// A line at `(set, way)` was hit by `req`: update its priority.
    fn on_hit(&mut self, set: usize, way: usize, req: &RequestInfo);

    /// A miss in `set`, every way of which is valid, needs a victim: the
    /// way returned is `< ways`. May mutate state (RRIP aging, Emissary
    /// epoch resets).
    fn choose_victim(&mut self, set: usize, req: &RequestInfo) -> usize;

    /// The line previously at `(set, way)` is being evicted (not merely
    /// invalidated): predictors observe the outcome here.
    fn on_evict(&mut self, set: usize, way: usize) {
        let _ = (set, way);
    }

    /// A new line was filled into `(set, way)` in response to `req`.
    fn on_fill(&mut self, set: usize, way: usize, req: &RequestInfo);

    /// The line at `(set, way)` was invalidated (e.g. inclusive
    /// back-invalidation): forget its metadata.
    fn on_invalidate(&mut self, set: usize, way: usize) {
        let _ = (set, way);
    }

    /// Appends the policy's architectural state (RRPV arrays, LRU
    /// stacks, predictor tables, PSEL counters…) to `w`. Configuration
    /// is *not* written — restore into an instance freshly built by
    /// [`PolicyKind::build`] with the same geometry.
    fn save_state(&self, w: &mut trrip_snap::SnapWriter);

    /// Loads state written by [`ReplacementPolicy::save_state`] into
    /// this (identically configured) policy.
    ///
    /// # Errors
    ///
    /// [`trrip_snap::SnapError`] on malformed bytes or a geometry
    /// mismatch between the stream and this instance.
    fn restore_state(
        &mut self,
        r: &mut trrip_snap::SnapReader<'_>,
    ) -> Result<(), trrip_snap::SnapError>;
}

/// A boxed policy is a policy: what lets a cache be generic over the
/// policy it holds, with the run-time-chosen `Box<dyn ReplacementPolicy>`
/// as one instance beside the concrete ones.
impl<P: ReplacementPolicy + ?Sized> ReplacementPolicy for Box<P> {
    fn on_hit(&mut self, set: usize, way: usize, req: &RequestInfo) {
        (**self).on_hit(set, way, req);
    }

    fn choose_victim(&mut self, set: usize, req: &RequestInfo) -> usize {
        (**self).choose_victim(set, req)
    }

    fn on_evict(&mut self, set: usize, way: usize) {
        (**self).on_evict(set, way);
    }

    fn on_fill(&mut self, set: usize, way: usize, req: &RequestInfo) {
        (**self).on_fill(set, way, req);
    }

    fn on_invalidate(&mut self, set: usize, way: usize) {
        (**self).on_invalidate(set, way);
    }

    fn save_state(&self, w: &mut trrip_snap::SnapWriter) {
        (**self).save_state(w);
    }

    fn restore_state(
        &mut self,
        r: &mut trrip_snap::SnapReader<'_>,
    ) -> Result<(), trrip_snap::SnapError> {
        (**self).restore_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trait_is_object_safe() {
        fn assert_obj(_p: &dyn ReplacementPolicy) {}
        let lru = Lru::new(4, 4);
        assert_obj(&lru);
    }
}
