//! Property-based tests of the cache model and the hierarchy invariants.

use proptest::prelude::*;
use trrip_cache::{Cache, CacheConfig, Hierarchy, HierarchyConfig, ServedBy};
use trrip_mem::{LineAddr, MemoryRequest, PhysAddr, VirtAddr};
use trrip_policies::PolicyKind;

#[derive(Debug, Clone, Copy)]
enum Access {
    Fetch(u64),
    Load(u64),
    Store(u64),
    Prefetch(u64),
}

fn arb_access(addr_space: u64) -> impl Strategy<Value = Access> {
    (0..addr_space, 0u8..4).prop_map(|(a, kind)| {
        let addr = a * 64;
        match kind {
            0 => Access::Fetch(addr),
            1 => Access::Load(addr),
            2 => Access::Store(addr),
            _ => Access::Prefetch(addr),
        }
    })
}

/// Every policy of the paper, [`PolicyKind::PAPER_SET`].
fn arb_policy() -> impl Strategy<Value = PolicyKind> {
    (0..PolicyKind::PAPER_SET.len()).prop_map(|i| PolicyKind::PAPER_SET[i])
}

fn request(a: Access) -> (MemoryRequest, bool) {
    match a {
        Access::Fetch(x) => (MemoryRequest::fetch(PhysAddr::new(x), VirtAddr::new(x)), false),
        Access::Load(x) => (MemoryRequest::load(PhysAddr::new(x), VirtAddr::new(x)), false),
        Access::Store(x) => (MemoryRequest::store(PhysAddr::new(x), VirtAddr::new(x)), false),
        Access::Prefetch(x) => (MemoryRequest::fetch(PhysAddr::new(x), VirtAddr::new(x)), true),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Occupancy never exceeds capacity, and a line just filled is
    /// resident, for every policy.
    #[test]
    fn occupancy_bounded_and_fills_resident(
        kind in arb_policy(),
        accesses in prop::collection::vec(arb_access(64), 1..300),
    ) {
        let config = CacheConfig::new(4096, 4); // 16 sets × 4 ways
        let policy = kind.build(config.num_sets(), config.ways);
        let mut cache = Cache::new(config, policy);
        for a in accesses {
            let (req, _) = request(a);
            if !cache.access(&req) {
                cache.fill(&req);
                prop_assert!(cache.contains(LineAddr::of(req.paddr)));
            }
            prop_assert!(cache.resident_lines().count() <= config.num_lines());
        }
    }

    /// Hit/miss accounting is exact: accesses = hits + misses per side.
    #[test]
    fn stats_balance(accesses in prop::collection::vec(arb_access(128), 1..400)) {
        let config = CacheConfig::new(8192, 8);
        let policy = PolicyKind::Srrip.build(config.num_sets(), config.ways);
        let mut cache = Cache::new(config, policy);
        let mut demand = 0u64;
        for a in accesses {
            let (req, prefetch) = request(a);
            let req = if prefetch { req.as_prefetch() } else { req };
            if !prefetch {
                demand += 1;
            }
            if !cache.access(&req) {
                cache.fill(&req);
            }
        }
        let s = cache.stats();
        prop_assert_eq!(s.demand_accesses(), demand);
        prop_assert!(s.demand_misses() <= s.demand_accesses());
    }

    /// The hierarchy's inclusion (L1 ⊆ L2) and exclusion (L2 ∩ SLC = ∅)
    /// invariants hold after any access/prefetch interleaving, for every
    /// L2 policy.
    #[test]
    fn hierarchy_invariants_hold(
        policy in arb_policy(),
        accesses in prop::collection::vec(arb_access(100_000), 1..400),
    ) {
        let mut h = Hierarchy::new(&HierarchyConfig::paper(policy));
        for a in accesses {
            let (req, prefetch) = request(a);
            if prefetch {
                h.prefetch(&req);
            } else {
                h.access(&req);
            }
        }
        h.check_invariants();
    }

    /// A demand access immediately repeated is always an L1 hit with the
    /// L1 latency (the hierarchy must actually install lines).
    #[test]
    fn repeat_access_hits_l1(addr in 0u64..1_000_000) {
        let addr = addr * 64;
        let mut h = Hierarchy::new(&HierarchyConfig::paper(PolicyKind::Trrip2));
        let req = MemoryRequest::fetch(PhysAddr::new(addr), VirtAddr::new(addr));
        prop_assert_ne!(h.access(&req), ServedBy::L1, "a cold hierarchy");
        prop_assert_eq!(h.access(&req), ServedBy::L1);
        prop_assert_eq!(ServedBy::L1.cycles(), 3);
    }
}
