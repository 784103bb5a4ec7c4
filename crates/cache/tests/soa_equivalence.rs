//! Pins the struct-of-arrays tag store to the array-of-structs oracle.
//!
//! Random operation sequences — demand/prefetch accesses of every kind,
//! direct fills and dirty marks, what the hierarchy asks of its L2 — are
//! driven through [`trrip_cache::Cache`] (SoA) and [`trrip_cache::AosCache`]
//! (the pre-SoA implementation kept in `src/aos.rs`) under every
//! replacement policy. Every return value,
//! the statistics, the resident-line set, and the final `"CACB"` snapshot
//! bytes must be identical: the SoA layout is a pure representation
//! change.
//!
//! Sequences that also invalidate and extract lines, as the hierarchy
//! does to its L1s and its SLC, pin [`trrip_cache::LruCache`] — those
//! levels' store, each set's tags and stamps in one block, one clock per
//! level — to an [`trrip_cache::AosCache`] holding the boxed LRU policy
//! that [`PolicyKind::build`] gives: same outcomes, statistics and
//! resident lines at 4 and 16 ways.

use proptest::prelude::*;
use trrip_cache::{AccessStats, AosCache, Cache, CacheConfig, EvictedLine, LruCache};
use trrip_core::Temperature;
use trrip_mem::{LineAddr, MemoryRequest, PhysAddr, VirtAddr};
use trrip_policies::PolicyKind;
use trrip_snap::{SnapError, SnapReader, SnapWriter, Snapshot};

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Demand or prefetch lookup; on a miss both stores fill, mirroring
    /// how the hierarchy drives a cache level.
    Access { addr: u64, kind: u8, temp: u8 },
    /// Direct fill without a preceding lookup (prefetch-ahead path).
    Fill { addr: u64, kind: u8 },
    /// Inclusive back-invalidation (LRU levels only).
    Invalidate { addr: u64 },
    /// Exclusive-movement removal (SLC → L2 promotion; LRU levels only).
    Extract { addr: u64 },
    /// Dirty writeback landing from an upper level.
    MarkDirty { addr: u64 },
}

/// Ops over `addr_space` lines; `removals` admits invalidations and
/// extracts, which only the LRU levels take.
fn arb_op(addr_space: u64, removals: bool) -> impl Strategy<Value = Op> {
    let which = if removals { 0u8..5 } else { 0u8..4 };
    (0..addr_space, which, 0u8..5, 0u8..4).prop_map(move |(a, which, kind, temp)| {
        let addr = a * 64;
        match which {
            0 | 1 => Op::Access { addr, kind, temp },
            2 => Op::Fill { addr, kind },
            3 if !removals => Op::MarkDirty { addr },
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
            Op::MarkDirty { addr } => {
                let line = LineAddr::of(request(addr, 0, 0).paddr);
                prop_assert_eq!(soa.mark_dirty(line), aos.mark_dirty(line));
            }
            Op::Invalidate { .. } | Op::Extract { .. } => unreachable!("the L2 takes neither"),
        }
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

/// What the op scripts drive: the boxed-policy oracle and the LRU level
/// alike.
trait Store: Snapshot {
    fn access(&mut self, req: &MemoryRequest) -> bool;
    fn fill(&mut self, req: &MemoryRequest) -> Option<EvictedLine>;
    fn invalidate(&mut self, line: LineAddr) -> Option<EvictedLine>;
    fn extract(&mut self, line: LineAddr) -> Option<EvictedLine>;
    fn stats(&self) -> AccessStats;
    fn resident(&self) -> Vec<LineAddr>;
}

macro_rules! store {
    ([$($generics:tt)*] $ty:ty) => {
        impl<$($generics)*> Store for $ty {
            fn access(&mut self, req: &MemoryRequest) -> bool {
                <$ty>::access(self, req)
            }
            fn fill(&mut self, req: &MemoryRequest) -> Option<EvictedLine> {
                <$ty>::fill(self, req)
            }
            fn invalidate(&mut self, line: LineAddr) -> Option<EvictedLine> {
                <$ty>::invalidate(self, line)
            }
            fn extract(&mut self, line: LineAddr) -> Option<EvictedLine> {
                <$ty>::extract(self, line)
            }
            fn stats(&self) -> AccessStats {
                *<$ty>::stats(self)
            }
            fn resident(&self) -> Vec<LineAddr> {
                let mut lines: Vec<_> = self.resident_lines().collect();
                lines.sort_unstable();
                lines
            }
        }
    };
}

store!([] AosCache);
store!([const WAYS: usize] LruCache<WAYS>);

/// What one op reports.
#[derive(Debug, PartialEq)]
enum Outcome {
    Access {
        hit: bool,
        evicted: Option<EvictedLine>,
    },
    Evicted(Option<EvictedLine>),
    /// A dirty mark: the hierarchy gives one only to the L2, so the LRU
    /// level is never asked and neither store is.
    NotMarked,
}

fn apply(store: &mut impl Store, op: Op) -> Outcome {
    let line_at = |addr| LineAddr::of(PhysAddr::new(addr));
    match op {
        Op::Access { addr, kind, temp } => {
            let req = request(addr, kind, temp);
            let hit = store.access(&req);
            Outcome::Access { hit, evicted: if hit { None } else { store.fill(&req) } }
        }
        Op::Fill { addr, kind } => Outcome::Evicted(store.fill(&request(addr, kind, 0))),
        Op::Invalidate { addr } => Outcome::Evicted(store.invalidate(line_at(addr))),
        Op::Extract { addr } => Outcome::Evicted(store.extract(line_at(addr))),
        Op::MarkDirty { .. } => Outcome::NotMarked,
    }
}

fn snapshot_of(store: &impl Snapshot) -> Vec<u8> {
    let mut w = SnapWriter::new();
    store.save(&mut w);
    w.into_bytes()
}

/// `ops` through an `LruCache<WAYS>` and an [`AosCache`] holding the
/// boxed LRU policy, both 2 kB: every op's outcome — hit, evicted line with
/// its dirty and instruction bits — the statistics and the resident
/// lines agree. Then the LRU level is restored from its own snapshot
/// into a fresh one, which writes the same bytes and goes on through
/// `ops` in step with the boxed store.
fn drive_lru_beside_boxed<const WAYS: usize>(ops: &[Op]) {
    let config = CacheConfig::new(2048, WAYS);
    let mut lru = LruCache::<WAYS>::new(config);
    let mut boxed = AosCache::new(config, PolicyKind::Lru.build(config.num_sets(), WAYS));
    let agree = |lru: &mut LruCache<WAYS>, boxed: &mut AosCache, what: &str| {
        for &op in ops {
            prop_assert_eq!(apply(lru, op), apply(boxed, op), "{}, {}-way: {:?}", what, WAYS, op);
        }
        prop_assert_eq!(Store::stats(lru), Store::stats(boxed), "{}, {}-way", what, WAYS);
        prop_assert_eq!(lru.resident(), boxed.resident(), "{}, {}-way", what, WAYS);
    };
    agree(&mut lru, &mut boxed, "from empty");

    let bytes = snapshot_of(&lru);
    let mut restored = LruCache::<WAYS>::new(config);
    let mut r = SnapReader::new(&bytes);
    restored.restore(&mut r).expect("an LRU level restores its own snapshot");
    r.finish().expect("no trailing bytes");
    prop_assert_eq!(snapshot_of(&restored), bytes, "{}-way round trip", WAYS);
    agree(&mut restored, &mut boxed, "restored");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// An LRU level is a boxed-policy store under LRU, at the L1s' 4 ways
    /// and the SLC's 16, over dense sequences (evictions dominate) and
    /// sparse ones (free-way fills dominate).
    #[test]
    fn lru_cache_matches_the_boxed_lru_policy(
        dense in prop::collection::vec(arb_op(40, true), 1..400),
        sparse in prop::collection::vec(arb_op(4096, true), 1..200),
    ) {
        drive_lru_beside_boxed::<4>(&dense);
        drive_lru_beside_boxed::<4>(&sparse);
        drive_lru_beside_boxed::<16>(&dense);
        drive_lru_beside_boxed::<16>(&sparse);
    }
}

/// An LRU level's snapshot with one resident line in slot 0 of a 4-way,
/// 8-set level: `tag`, then the level's `clock` and the line's `stamp`.
fn one_line_image(tag: u64, clock: u64, stamp: u64) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.tag(b"CACB");
    w.usize(32);
    for byte in [1, 0, 0, 0] {
        w.u8(byte); // the valid bitmap: slot 0 alone
    }
    w.u8(0); // dirty bit
    w.u8(1); // instruction bit
    w.u64(tag);
    AccessStats::default().save(&mut w);
    w.u64(clock);
    w.u64(stamp);
    w.into_bytes()
}

fn restore_one_line(image: &[u8]) -> Result<LruCache<4>, SnapError> {
    let mut level = LruCache::<4>::new(CacheConfig::new(2048, 4));
    let mut r = SnapReader::new(image);
    level.restore(&mut r)?;
    r.finish()?;
    Ok(level)
}

#[test]
fn an_lru_level_refuses_a_sentinel_tag_and_a_stamp_past_its_clock() {
    let level = restore_one_line(&one_line_image(0x40, 7, 7)).expect("a well-formed image");
    assert_eq!(level.resident_lines().collect::<Vec<_>>(), [LineAddr(0x40)]);

    let err = restore_one_line(&one_line_image(u64::MAX, 7, 7)).expect_err("sentinel tag");
    assert!(matches!(err, SnapError::Corrupt(_)), "got {err:?}");
    let err = restore_one_line(&one_line_image(0x40, 7, 8)).expect_err("stamp past the clock");
    assert!(matches!(err, SnapError::Corrupt(_)), "got {err:?}");

    // Every prefix of an image, and the image with any one byte flipped,
    // restores or fails; none panics.
    let image = one_line_image(0x40, 7, 7);
    for len in 0..image.len() {
        assert!(restore_one_line(&image[..len]).is_err(), "a {len}-byte prefix restored");
    }
    for at in 0..image.len() {
        for mask in [0x01, 0x80, 0xff] {
            let mut flipped = image.clone();
            flipped[at] ^= mask;
            let _ = restore_one_line(&flipped);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// SoA and AoS stores agree on every operation's result, the stats,
    /// the resident set, and the snapshot bytes, for all nine policies.
    #[test]
    fn soa_matches_aos_oracle(
        ops in prop::collection::vec(arb_op(40, false), 1..400),
    ) {
        for kind in PolicyKind::PAPER_SET {
            drive(kind, &ops);
        }
    }

    /// Same, with a wider address space so invalid-way fills dominate
    /// (exercises the sentinel probe on sparse stores).
    #[test]
    fn soa_matches_aos_oracle_sparse(
        ops in prop::collection::vec(arb_op(4096, false), 1..200),
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
            if !soa2.contains(LineAddr::of(req.paddr)) {
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
