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
//!    full; the cache takes an invalid way itself), which evicts the line
//!    it returns, then [`ReplacementPolicy::on_fill`] for the incoming
//!    one.
//!
//! These are Algorithm 1's three events: a hit and a fill write an RRPV,
//! and eviction is RRIP's `GetEvictionLine`. No simulated level removes
//! a line behind its policy's back: the L2, the only level with a policy
//! under test, is the top of inclusion, so nothing back-invalidates it,
//! and the exclusive SLC below it is LRU.
//!
//! A hit and a fill hand the policy the cache's own
//! [`trrip_mem::MemoryRequest`]. Policies read its kind, its PC (SHiP's
//! signature), its temperature (TRRIP) and its starvation flag
//! (Emissary), never its physical address or its prefetch mark:
//! set/way indexing is the cache's job, and `tests/properties.rs` pins
//! that no policy's victims or state move with either.
//!
//! Every policy also exposes its architectural state for checkpointing
//! ([`ReplacementPolicy::save_state`] / [`ReplacementPolicy::restore_state`]):
//! a policy rebuilt from its configuration
//! ([`PolicyKind::build`]) and then restored behaves bit-identically to
//! the original under any subsequent access sequence.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use trrip_mem::MemoryRequest;

pub mod dueling;
pub mod emissary;
pub mod kind;
pub mod lru;
mod rrip;
pub mod ship;

pub use dueling::SetDueling;
pub use emissary::Emissary;
pub use kind::PolicyKind;
pub use lru::Lru;
pub use ship::Ship;

/// A cache replacement policy attached to one cache instance.
///
/// Implementations own all their per-set metadata (RRPV arrays, LRU
/// stacks, priority bits, predictor tables). The trait is object-safe so a
/// cache can hold a `Box<dyn ReplacementPolicy>` chosen at run time.
pub trait ReplacementPolicy: Send {
    /// A line at `(set, way)` was hit by `req`: update its priority.
    fn on_hit(&mut self, set: usize, way: usize, req: &MemoryRequest);

    /// A miss in `set`, every way of which is valid, evicts the line at
    /// the way returned (`< ways`): the cache calls this only for a victim
    /// it then replaces, so a policy observes the eviction here (RRIP
    /// aging, Emissary epoch resets, SHiP's dead-line training).
    fn choose_victim(&mut self, set: usize) -> usize;

    /// A new line was filled into `(set, way)` in response to `req`.
    fn on_fill(&mut self, set: usize, way: usize, req: &MemoryRequest);

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

#[cfg(test)]
pub(crate) mod tests {
    use trrip_mem::{PhysAddr, VirtAddr};

    use super::*;

    /// An instruction fetch at `pc` (its line's address too).
    pub(crate) fn ifetch(pc: u64) -> MemoryRequest {
        MemoryRequest::fetch(PhysAddr::new(pc), VirtAddr::new(pc))
    }

    /// A data load by the instruction at `pc`, of the address `pc`.
    pub(crate) fn load(pc: u64) -> MemoryRequest {
        MemoryRequest::load(PhysAddr::new(pc), VirtAddr::new(pc))
    }

    #[test]
    fn trait_is_object_safe() {
        fn assert_obj(_p: &dyn ReplacementPolicy) {}
        let lru = Lru::new(4, 4);
        assert_obj(&lru);
    }
}
