//! Pins the struct-of-arrays tag store to the array-of-structs oracle.
//!
//! Random operation sequences — demand/prefetch accesses of every kind,
//! direct fills, invalidations, exclusive extracts, and dirty marks — are
//! driven through [`trrip_cache::Cache`] (SoA) and [`trrip_cache::AosCache`]
//! (the pre-SoA implementation kept verbatim in `src/aos.rs`) under every
//! replacement policy. Every return value,
//! the statistics, the resident-line set, and the final `"CACB"` snapshot
//! bytes must be identical: the SoA layout is a pure representation
//! change.
//!
//! So is what the store holds its policy in: the same sequences drive a
//! `Cache<Lru>` — the policy by value, as the hierarchy's L1s and SLC
//! hold it — beside the `Cache<Box<dyn ReplacementPolicy>>` that
//! [`PolicyKind::build`] gives, to the same outcomes and the same bytes.

use proptest::prelude::*;
use trrip_cache::{AosCache, Cache, CacheConfig, EvictedLine};
use trrip_core::Temperature;
use trrip_mem::{MemoryRequest, PhysAddr, VirtAddr};
use trrip_policies::{Lru, PolicyKind, ReplacementPolicy};
use trrip_snap::{SnapReader, SnapWriter, Snapshot};

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Demand or prefetch lookup; on a miss both stores fill, mirroring
    /// how the hierarchy drives a cache level.
    Access { addr: u64, kind: u8, temp: u8 },
    /// Direct fill without a preceding lookup (prefetch-ahead path).
    Fill { addr: u64, kind: u8 },
    /// Inclusive back-invalidation.
    Invalidate { addr: u64 },
    /// Exclusive-movement removal (SLC → L2 promotion).
    Extract { addr: u64 },
    /// Dirty writeback landing from an upper level.
    MarkDirty { addr: u64 },
}

fn arb_op(addr_space: u64) -> impl Strategy<Value = Op> {
    (0..addr_space, 0u8..5, 0u8..5, 0u8..4).prop_map(|(a, which, kind, temp)| {
        let addr = a * 64;
        match which {
            0 | 1 => Op::Access { addr, kind, temp },
            2 => Op::Fill { addr, kind },
            3 => Op::Invalidate { addr },
            _ => {
                if kind % 2 == 0 {
                    Op::Extract { addr }
                } else {
                    Op::MarkDirty { addr }
                }
            }
        }
    })
}

/// Builds the request for an access/fill op: kind 0 = ifetch, 1 = load,
/// 2 = store, 3 = prefetched ifetch, 4 = prefetched load; temperature
/// 0 = none, 1..=3 = hot/warm/cold (exercises the TRRIP/CLIP sub-policies).
fn request(addr: u64, kind: u8, temp: u8) -> MemoryRequest {
    let req = match kind {
        0 | 3 => MemoryRequest::fetch(PhysAddr::new(addr), VirtAddr::new(addr)),
        1 | 4 => MemoryRequest::load(PhysAddr::new(addr), VirtAddr::new(addr)),
        _ => MemoryRequest::store(PhysAddr::new(addr), VirtAddr::new(addr)),
    };
    let req = match temp {
        1 => req.with_temperature(Some(Temperature::Hot)),
        2 => req.with_temperature(Some(Temperature::Warm)),
        3 => req.with_temperature(Some(Temperature::Cold)),
        _ => req,
    };
    if kind >= 3 {
        req.as_prefetch()
    } else {
        req
    }
}

fn drive(kind: PolicyKind, ops: &[Op]) {
    // 8 sets × 4 ways: small enough that evictions dominate.
    let config = CacheConfig::new(2048, 4);
    let soa_policy = kind.build(config.num_sets(), config.ways);
    let aos_policy = kind.build(config.num_sets(), config.ways);
    let mut soa = Cache::new(config, soa_policy);
    let mut aos = AosCache::new(config, aos_policy);

    for &op in ops {
        match op {
            Op::Access { addr, kind: k, temp } => {
                let req = request(addr, k, temp);
                let a = soa.access(&req);
                let b = aos.access(&req);
                prop_assert_eq!(a, b, "access disagreement at {:#x}", addr);
                if !a {
                    prop_assert_eq!(soa.fill(&req), aos.fill(&req));
                }
            }
            Op::Fill { addr, kind: k } => {
                let req = request(addr, k, 0);
                prop_assert_eq!(soa.fill(&req), aos.fill(&req));
            }
            Op::Invalidate { addr } => {
                let line = soa.line_of(&request(addr, 0, 0));
                prop_assert_eq!(soa.invalidate(line), aos.invalidate(line));
            }
            Op::Extract { addr } => {
                let line = soa.line_of(&request(addr, 0, 0));
                prop_assert_eq!(soa.extract(line), aos.extract(line));
            }
            Op::MarkDirty { addr } => {
                let line = soa.line_of(&request(addr, 0, 0));
                prop_assert_eq!(soa.mark_dirty(line), aos.mark_dirty(line));
            }
        }
        prop_assert_eq!(soa.occupancy(), aos.occupancy());
    }

    prop_assert_eq!(soa.stats(), aos.stats());
    let mut a: Vec<_> = soa.resident_lines().collect();
    let mut b: Vec<_> = aos.resident_lines().collect();
    a.sort_unstable();
    b.sort_unstable();
    prop_assert_eq!(a, b);

    // The layouts must agree down to the snapshot encoding (tag order
    // within a set included), so checkpoints are layout-independent.
    let mut ws = SnapWriter::new();
    soa.save(&mut ws);
    let mut wa = SnapWriter::new();
    aos.save(&mut wa);
    prop_assert_eq!(ws.bytes(), wa.bytes(), "snapshot bytes diverge for {}", kind);
}

/// What one op reports, whatever the store holds its policy in.
#[derive(Debug, PartialEq)]
enum Outcome {
    Access { hit: bool, evicted: Option<EvictedLine> },
    Evicted(Option<EvictedLine>),
    Marked(bool),
}

fn apply<P: ReplacementPolicy>(cache: &mut Cache<P>, op: Op) -> Outcome {
    let line_at = |cache: &Cache<P>, addr| cache.line_of(&request(addr, 0, 0));
    match op {
        Op::Access { addr, kind, temp } => {
            let req = request(addr, kind, temp);
            let hit = cache.access(&req);
            Outcome::Access { hit, evicted: if hit { None } else { cache.fill(&req) } }
        }
        Op::Fill { addr, kind } => Outcome::Evicted(cache.fill(&request(addr, kind, 0))),
        Op::Invalidate { addr } => Outcome::Evicted(cache.invalidate(line_at(cache, addr))),
        Op::Extract { addr } => Outcome::Evicted(cache.extract(line_at(cache, addr))),
        Op::MarkDirty { addr } => Outcome::Marked(cache.mark_dirty(line_at(cache, addr))),
    }
}

fn snapshot_of<P: ReplacementPolicy>(cache: &Cache<P>) -> Vec<u8> {
    let mut w = SnapWriter::new();
    cache.save(&mut w);
    w.into_bytes()
}

/// `ops` through an LRU held by value and a boxed one, then each store
/// restored from the *other's* snapshot, then `ops` again.
fn drive_by_value_beside_boxed(ops: &[Op]) {
    let config = CacheConfig::new(2048, 4);
    let (sets, ways) = (config.num_sets(), config.ways);
    let fresh = || {
        let boxed: Cache = Cache::new(config, PolicyKind::Lru.build(sets, ways));
        (Cache::new(config, Lru::new(sets, ways)), boxed)
    };
    let (mut by_value, mut boxed) = fresh();
    for &op in ops {
        prop_assert_eq!(apply(&mut by_value, op), apply(&mut boxed, op), "{:?}", op);
    }
    prop_assert_eq!(by_value.stats(), boxed.stats());
    let (bytes, boxed_bytes) = (snapshot_of(&by_value), snapshot_of(&boxed));
    prop_assert_eq!(&bytes, &boxed_bytes, "snapshot bytes depend on how the policy is held");

    let (mut by_value, mut boxed) = fresh();
    by_value.restore(&mut SnapReader::new(&boxed_bytes)).expect("by-value restore");
    boxed.restore(&mut SnapReader::new(&bytes)).expect("boxed restore");
    for &op in ops {
        prop_assert_eq!(apply(&mut by_value, op), apply(&mut boxed, op), "restored, {:?}", op);
    }
    prop_assert_eq!(snapshot_of(&by_value), snapshot_of(&boxed));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A store that holds its LRU by value is the store that holds it
    /// boxed: same outcomes, same snapshot bytes, each restorable from
    /// the other's — over dense sequences (evictions dominate) and
    /// sparse ones (free-way fills dominate).
    #[test]
    fn lru_by_value_matches_the_boxed_policy(
        dense in prop::collection::vec(arb_op(40), 1..400),
        sparse in prop::collection::vec(arb_op(4096), 1..200),
    ) {
        drive_by_value_beside_boxed(&dense);
        drive_by_value_beside_boxed(&sparse);
    }

    /// SoA and AoS stores agree on every operation's result, the stats,
    /// the resident set, and the snapshot bytes, for all nine policies.
    #[test]
    fn soa_matches_aos_oracle(
        ops in prop::collection::vec(arb_op(40), 1..400),
    ) {
        for kind in PolicyKind::PAPER_SET {
            drive(kind, &ops);
        }
    }

    /// Same, with a wider address space so invalid-way fills dominate
    /// (exercises the sentinel probe on sparse stores).
    #[test]
    fn soa_matches_aos_oracle_sparse(
        ops in prop::collection::vec(arb_op(4096), 1..200),
    ) {
        for kind in PolicyKind::PAPER_SET {
            drive(kind, &ops);
        }
    }
}

/// A restored SoA store continues identically to a restored AoS store:
/// snapshot → restore into fresh stores of both layouts → more ops.
#[test]
fn restored_stores_stay_equivalent() {
    let config = CacheConfig::new(2048, 4);
    for kind in PolicyKind::PAPER_SET {
        let mut soa = Cache::new(config, kind.build(config.num_sets(), config.ways));
        let mut aos = AosCache::new(config, kind.build(config.num_sets(), config.ways));
        for i in 0..96u64 {
            let req = request(i % 37 * 64, (i % 3) as u8, (i % 4) as u8);
            if !soa.access(&req) {
                soa.fill(&req);
            }
            if !aos.access(&req) {
                aos.fill(&req);
            }
        }
        let mut w = SnapWriter::new();
        soa.save(&mut w);
        let bytes = w.into_bytes();

        let mut soa2 = Cache::new(config, kind.build(config.num_sets(), config.ways));
        let mut aos2 = AosCache::new(config, kind.build(config.num_sets(), config.ways));
        let mut r = trrip_snap::SnapReader::new(&bytes);
        soa2.restore(&mut r).expect("SoA restore");
        r.finish().expect("no trailing bytes");
        let mut r = trrip_snap::SnapReader::new(&bytes);
        aos2.restore(&mut r).expect("AoS restore");
        r.finish().expect("no trailing bytes");

        for i in 0..96u64 {
            let req = request(i % 41 * 64, (i % 3) as u8, 0);
            assert_eq!(soa2.access(&req), aos2.access(&req), "{kind}: post-restore access");
            if !soa2.contains(soa2.line_of(&req)) {
                assert_eq!(soa2.fill(&req), aos2.fill(&req), "{kind}: post-restore fill");
            }
        }
        let mut ws = SnapWriter::new();
        soa2.save(&mut ws);
        let mut wa = SnapWriter::new();
        aos2.save(&mut wa);
        assert_eq!(ws.bytes(), wa.bytes(), "{kind}: post-restore snapshot bytes");
    }
}
