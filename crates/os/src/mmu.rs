//! The MMU: translation of loaded pages plus temperature-attribute
//! forwarding (Figure 4 ⑩–⑪), behind a TLB that keeps statistics.
//!
//! Instruction fetches translate through the loaded image; the PTE's
//! PBHA-style bits come back with the translation and are attached to the
//! outgoing memory request by the simulator. A small fully-associative
//! TLB tracks locality: it is looked up, kept in LRU order and counted,
//! and holds no translation of its own. It is two arrays, the entries'
//! page numbers and their recency stamps, so a hit compares one word and
//! writes one, and a miss scans the 64 stamps for its victim. A page the
//! loader did not map is no translation here: anonymous memory — heap
//! and stack — is demand-allocated in the order the instruction stream
//! first touches it, which every machine running that stream shares, so
//! the simulator resolves it once per stream, not once per machine.

use serde::{Deserialize, Serialize};
use trrip_core::{Temperature, TemperatureBits};
use trrip_mem::{PageSize, PhysAddr, VirtAddr};
use trrip_snap::{SnapError, SnapReader, SnapWriter, Snapshot};

use crate::page_table::PageTable;

/// TLB hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TlbStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed (page-table walk).
    pub misses: u64,
}

/// The page number of an empty TLB slot. No virtual page number reaches
/// it (an address shifted right by at least the 4 kB page bits), so a
/// probe compares page numbers and nothing else.
const EMPTY_VPN: u64 = u64::MAX;

/// Slots of the direct-mapped `vpn → TLB slot` hint table. Sixteen
/// times the TLB's entries, so two live pages rarely share a hint.
const HINT_SLOTS: usize = 1024;

// A hint is a TLB slot number in a byte.
const _: () = assert!(Mmu::TLB_ENTRIES <= 1 << u8::BITS && HINT_SLOTS.is_power_of_two());

/// Where `vpn`'s hint lives (multiply-shift; the top bits mix best).
#[inline]
fn hint_of(vpn: u64) -> usize {
    (vpn.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - HINT_SLOTS.trailing_zeros())) as usize
}

/// A run of consecutive loaded pages, one `(frame, PBHA bits)` each.
#[derive(Debug, Clone)]
struct Extent {
    first_vpn: u64,
    pages: Vec<(u64, TemperatureBits)>,
}

/// The MMU: the loaded image and a statistics-only TLB.
#[derive(Debug, Clone)]
pub struct Mmu {
    page_size: PageSize,
    /// The loader's pages in a few dense extents (text, PLT and data sit
    /// together; external text sits apart), so a lookup is a range check
    /// and an index, not a hash.
    image: Vec<Extent>,
    /// Each TLB slot's page number; [`EMPTY_VPN`] if the slot is empty.
    vpns: [u64; Mmu::TLB_ENTRIES],
    /// Each TLB slot's clock at its last fill or hit; 0 if empty, which
    /// makes an empty slot the first victim.
    stamps: [u64; Mmu::TLB_ENTRIES],
    /// For each hashed vpn, the TLB slot that last held a page hashing
    /// there — pure lookup acceleration for the hot path (every fetch
    /// line-change, memory operand, and prefetch looks up). A hint is
    /// only ever *believed after checking* the entry it names, and a
    /// wrong one falls back to scanning the page numbers, so it needs no
    /// invalidation and no place in snapshots: the architectural state
    /// (entries, stamps, victim choice, statistics) is byte-identical
    /// with or without it. Measured against a scan of the 64 entries
    /// (`bench_memsys` on `gcc`, 12 alternating pairs, 2-core host):
    /// 32.1 → 43.2 ns per cell-instruction for a lockstep group of 1 and
    /// 25.2 → 35.4 for a group of 9, the scan slower in 11 and 12 pairs.
    hints: Box<[u8; HINT_SLOTS]>,
    clock: u64,
    stats: TlbStats,
}

impl Mmu {
    /// Default TLB entries (unified, fully associative).
    pub const TLB_ENTRIES: usize = 64;

    /// An MMU over a loaded image, with an empty TLB.
    #[must_use]
    pub fn new(page_table: &PageTable) -> Mmu {
        let mut pages: Vec<(u64, (u64, TemperatureBits))> =
            page_table.iter().map(|(vpn, e)| (vpn, (e.frame, e.pbha))).collect();
        pages.sort_unstable_by_key(|&(vpn, _)| vpn);
        let mut image: Vec<Extent> = Vec::new();
        for (vpn, page) in pages {
            match image.last_mut() {
                Some(extent) if extent.first_vpn + extent.pages.len() as u64 == vpn => {
                    extent.pages.push(page);
                }
                _ => image.push(Extent { first_vpn: vpn, pages: vec![page] }),
            }
        }
        Mmu {
            page_size: page_table.page_size(),
            image,
            vpns: [EMPTY_VPN; Mmu::TLB_ENTRIES],
            stamps: [0; Mmu::TLB_ENTRIES],
            hints: Box::new([0; HINT_SLOTS]),
            clock: 0,
            stats: TlbStats::default(),
        }
    }

    /// TLB statistics.
    #[must_use]
    pub fn tlb_stats(&self) -> TlbStats {
        self.stats
    }

    /// `vaddr` through the loaded image alone — the physical address and
    /// the decoded temperature attribute — or `None` if the loader did
    /// not map its page. The TLB is not consulted.
    #[inline]
    #[must_use]
    pub fn loaded(&self, vaddr: VirtAddr) -> Option<(PhysAddr, Option<Temperature>)> {
        let page_bytes = self.page_size.bytes();
        let vpn = self.page_size.page_of(vaddr).raw();
        self.image.iter().find_map(|extent| {
            let &(frame, pbha) =
                extent.pages.get(usize::try_from(vpn.wrapping_sub(extent.first_vpn)).ok()?)?;
            Some((PhysAddr::new(frame * page_bytes + vaddr.offset_in(page_bytes)), pbha.decode()))
        })
    }

    /// Looks `vaddr`'s page up in the TLB: counts the hit or the miss and
    /// keeps the entries in LRU order, filling the least recently used
    /// on a miss.
    ///
    /// With a good hint, a hit is one compare and one store; a stale hint
    /// costs one scan of the page numbers, and only misses run the LRU
    /// victim scan over the stamps. This sits on the L1-hit fast path,
    /// where it is usually the only work besides the L1 probe.
    /// `#[inline]` only offers the body to other crates: the workspace's
    /// release profile (fat LTO, one codegen unit) inlines it into the
    /// cell loop, `Run::push_group`, while a per-crate build keeps an
    /// out-of-line copy.
    #[inline]
    pub fn touch(&mut self, vaddr: VirtAddr) {
        let vpn = self.page_size.page_of(vaddr).raw();
        self.clock += 1;

        let hint = &mut self.hints[hint_of(vpn)];
        let hinted = usize::from(*hint);
        let hit = if self.vpns[hinted] == vpn {
            Some(hinted)
        } else {
            self.vpns.iter().position(|&held| held == vpn)
        };
        let slot = match hit {
            Some(slot) => {
                self.stats.hits += 1;
                slot
            }
            None => {
                self.stats.misses += 1;
                // The least recently used slot (an empty one's stamp is
                // 0), the first among equals.
                let mut victim = 0;
                for slot in 1..Mmu::TLB_ENTRIES {
                    if self.stamps[slot] < self.stamps[victim] {
                        victim = slot;
                    }
                }
                self.vpns[victim] = vpn;
                victim
            }
        };
        self.stamps[slot] = self.clock;
        *hint = slot as u8;
    }

    /// [`Mmu::touch`], then [`Mmu::loaded`]: one translation through the
    /// TLB.
    #[inline]
    pub fn translate(&mut self, vaddr: VirtAddr) -> Option<(PhysAddr, Option<Temperature>)> {
        self.touch(vaddr);
        self.loaded(vaddr)
    }
}

/// The TLB alone: the loaded image is configuration, rebuilt by
/// [`Mmu::new`].
impl Snapshot for Mmu {
    fn save(&self, w: &mut SnapWriter) {
        w.tag(b"TLB ");
        w.usize(Mmu::TLB_ENTRIES);
        for (&vpn, &stamp) in self.vpns.iter().zip(&self.stamps) {
            w.bool(vpn != EMPTY_VPN);
            if vpn != EMPTY_VPN {
                w.u64(vpn);
                w.u64(stamp);
            }
        }
        w.u64(self.clock);
        w.u64(self.stats.hits);
        w.u64(self.stats.misses);
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.expect_tag(b"TLB ")?;
        r.expect_len("TLB entries", Mmu::TLB_ENTRIES)?;
        for (vpn, stamp) in self.vpns.iter_mut().zip(&mut self.stamps) {
            (*vpn, *stamp) = (EMPTY_VPN, 0);
            if r.bool()? {
                *vpn = r.u64()?;
                *stamp = r.u64()?;
                if *vpn == EMPTY_VPN {
                    return Err(SnapError::Corrupt("TLB page aliases the empty-slot mark".into()));
                }
            }
        }
        self.clock = r.u64()?;
        self.stats = TlbStats { hits: r.u64()?, misses: r.u64()? };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page_table::PageTableEntry;

    fn hot_page() -> PageTable {
        let mut pt = PageTable::new(PageSize::Size4K);
        pt.map(
            0x400,
            PageTableEntry { frame: 0x100, pbha: TemperatureBits::encode(Some(Temperature::Hot)) },
        );
        pt
    }

    #[test]
    fn translation_returns_temperature() {
        let mut mmu = Mmu::new(&hot_page());
        let (pa, temp) = mmu.translate(VirtAddr::new(0x40_0040)).expect("a loaded page");
        assert_eq!(pa.raw(), 0x100 * 4096 + 0x40);
        assert_eq!(temp, Some(Temperature::Hot));
        // A page the loader did not map is no translation, but a lookup.
        assert_eq!(mmu.translate(VirtAddr::new(0x9000_0000)), None);
        assert_eq!(mmu.tlb_stats(), TlbStats { hits: 0, misses: 2 });
    }

    #[test]
    fn tlb_hits_on_locality() {
        let mut mmu = Mmu::new(&hot_page());
        for i in 0..100 {
            mmu.translate(VirtAddr::new(0x40_0000 + i * 8));
        }
        let stats = mmu.tlb_stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 99);
    }

    /// The TLB as it would be with no hint table: every lookup scans
    /// the entries. Independent of [`Mmu`] down to the snapshot layout.
    struct ScanTlb {
        page_table: PageTable,
        entries: Vec<Option<(u64, u64)>>, // (vpn, stamp)
        clock: u64,
        stats: TlbStats,
    }

    impl ScanTlb {
        fn new(page_table: PageTable) -> ScanTlb {
            ScanTlb {
                page_table,
                entries: vec![None; Mmu::TLB_ENTRIES],
                clock: 0,
                stats: TlbStats::default(),
            }
        }

        fn translate(&mut self, vaddr: VirtAddr) -> Option<(PhysAddr, Option<Temperature>)> {
            let vpn = vaddr.raw() / self.page_table.page_size().bytes();
            self.clock += 1;
            let held = self.entries.iter_mut().flatten().find(|(held, _)| *held == vpn);
            if let Some((_, stamp)) = held {
                *stamp = self.clock;
                self.stats.hits += 1;
            } else {
                self.stats.misses += 1;
                // Least recently used, an empty slot counting as never
                // used, the first of equals.
                let stamp_of = |e: &Option<(u64, u64)>| e.map_or(0, |(_, stamp)| stamp);
                let mut victim = 0;
                for slot in 1..self.entries.len() {
                    if stamp_of(&self.entries[slot]) < stamp_of(&self.entries[victim]) {
                        victim = slot;
                    }
                }
                self.entries[victim] = Some((vpn, self.clock));
            }
            self.page_table.lookup(vaddr).map(|(pa, bits)| (pa, bits.decode()))
        }

        fn snapshot(&self) -> Vec<u8> {
            let mut w = SnapWriter::new();
            w.tag(b"TLB ");
            w.usize(self.entries.len());
            for e in &self.entries {
                w.bool(e.is_some());
                if let Some((vpn, stamp)) = e {
                    w.u64(*vpn);
                    w.u64(*stamp);
                }
            }
            w.u64(self.clock);
            w.u64(self.stats.hits);
            w.u64(self.stats.misses);
            w.into_bytes()
        }
    }

    fn snapshot(mmu: &Mmu) -> Vec<u8> {
        let mut w = SnapWriter::new();
        mmu.save(&mut w);
        w.into_bytes()
    }

    /// Translates `stream` through both and holds them equal at every
    /// step and in their snapshots at the end.
    fn assert_agree(mmu: &mut Mmu, reference: &mut ScanTlb, stream: &[u64], what: &str) {
        for (i, &addr) in stream.iter().enumerate() {
            let (got, expected) =
                (mmu.translate(VirtAddr::new(addr)), reference.translate(VirtAddr::new(addr)));
            assert_eq!(got, expected, "{what}: translation {i} of {addr:#x}");
            assert_eq!(mmu.tlb_stats(), reference.stats, "{what}: after translation {i}");
        }
        assert_eq!(snapshot(mmu), reference.snapshot(), "{what}: snapshot bytes");
    }

    #[test]
    fn hinted_tlb_matches_a_linear_scan_reference() {
        let mut pt = PageTable::new(PageSize::Size4K);
        for (i, temp) in [Some(Temperature::Hot), Some(Temperature::Warm), None].iter().enumerate()
        {
            for vpn in 0..40u64 {
                let vpn = 0x400 + i as u64 * 40 + vpn;
                let pbha = TemperatureBits::encode(*temp);
                pt.map(vpn, PageTableEntry { frame: 0x100 + vpn, pbha });
            }
        }
        // A second extent, apart from the first.
        for vpn in 0x800..0x810u64 {
            pt.map(vpn, PageTableEntry { frame: vpn, pbha: TemperatureBits::NONE });
        }
        let (mut mmu, mut reference) = (Mmu::new(&pt), ScanTlb::new(pt.clone()));

        // Pages that share a hint slot, live in the TLB together: every
        // switch between them finds the hint naming the other.
        let rivals: Vec<u64> =
            (0x400..0x10_0000u64).filter(|&vpn| hint_of(vpn) == hint_of(0x400)).take(4).collect();
        assert_eq!(rivals.len(), 4, "four pages hashing to one hint slot");
        let mut stream = Vec::new();
        for round in 0..50u64 {
            for (i, vpn) in rivals.iter().enumerate() {
                stream.push(vpn * 4096 + round * 8 + i as u64);
                stream.push((0x400 + round % 7) * 4096 + 64);
            }
        }
        assert_agree(&mut mmu, &mut reference, &stream, "rival pages");
        assert!(mmu.tlb_stats().hits > 300, "the rivals stay resident: {:?}", mmu.tlb_stats());

        // More live pages than entries: a cyclic sweep evicts every page
        // before its reuse, then a seeded scatter over 200 pages (loaded
        // and not) mixes hits, misses and stale hints.
        let mut stream: Vec<u64> =
            (0..3).flat_map(|_| (0..100u64).map(|p| (0x3f0 + p) * 4096 + p)).collect();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let page = if x & 3 == 0 { x % 200 } else { x % 70 };
            let page = if x & 0x30 == 0 { 0x800 + page % 24 } else { 0x3f0 + page };
            stream.push(page * 4096 + (x >> 32) % 4096);
        }
        assert_agree(&mut mmu, &mut reference, &stream, "more pages than entries");
        assert!(mmu.tlb_stats().misses > 300 + 64, "capacity misses: {:?}", mmu.tlb_stats());

        // A restored MMU starts with every hint cold or wrong.
        let mut restored = Mmu::new(&pt);
        restored.restore(&mut SnapReader::new(&snapshot(&mmu))).expect("restore");
        stream.reverse();
        assert_agree(&mut restored, &mut reference, &stream, "after restore");
    }

    /// The `TLB ` section's bytes, written out by hand: fills, a hit, an
    /// eviction of the least recently used entry, a page evicted and
    /// touched again, and — after a restore, with every hint cold — a
    /// hit found by the scan and re-hinted. Every number is below 128,
    /// so each varint is the one byte it reads as.
    #[test]
    fn tlb_section_bytes_are_pinned() {
        let vpn = |vpn: u64| VirtAddr::new(vpn * 4096);
        let mut mmu = Mmu::new(&hot_page());
        for page in 10..13 {
            mmu.touch(vpn(page));
        }
        #[rustfmt::skip]
        let partial: Vec<u8> = [
            &b"TLB "[..],
            &[64],
            // Slots 0-2: (valid, vpn, stamp); the other 61 are empty.
            &[1, 10, 1, 1, 11, 2, 1, 12, 3],
            &[0; 61],
            // Clock, hits, misses.
            &[3, 0, 3],
        ]
        .concat();
        assert_eq!(snapshot(&mmu), partial, "three fills");

        for page in 13..74 {
            mmu.touch(vpn(page)); // slot s holds page 10 + s, stamp s + 1
        }
        mmu.touch(vpn(10)); // hit: slot 0 restamped 65
        mmu.touch(vpn(100)); // miss: slot 1 (stamp 2) is the least recent
        mmu.touch(vpn(11)); // the page slot 1 held misses: slot 2 goes
        let mut restored = Mmu::new(&hot_page());
        restored.restore(&mut SnapReader::new(&snapshot(&mmu))).expect("restore");
        restored.touch(vpn(13)); // every hint names slot 0: found by the scan
        restored.touch(vpn(12)); // evicted above: slot 4 (stamp 5) goes
        #[rustfmt::skip]
        let full: Vec<u8> = [
            &b"TLB "[..],
            &[64],
            &[
                1, 10, 65, 1, 100, 66, 1, 11, 67, 1, 13, 68, 1, 12, 69, 1, 15, 6, 1, 16, 7, 1, 17, 8,
                1, 18, 9, 1, 19, 10, 1, 20, 11, 1, 21, 12, 1, 22, 13, 1, 23, 14, 1, 24, 15, 1, 25, 16,
                1, 26, 17, 1, 27, 18, 1, 28, 19, 1, 29, 20, 1, 30, 21, 1, 31, 22, 1, 32, 23, 1, 33, 24,
                1, 34, 25, 1, 35, 26, 1, 36, 27, 1, 37, 28, 1, 38, 29, 1, 39, 30, 1, 40, 31, 1, 41, 32,
                1, 42, 33, 1, 43, 34, 1, 44, 35, 1, 45, 36, 1, 46, 37, 1, 47, 38, 1, 48, 39, 1, 49, 40,
                1, 50, 41, 1, 51, 42, 1, 52, 43, 1, 53, 44, 1, 54, 45, 1, 55, 46, 1, 56, 47, 1, 57, 48,
                1, 58, 49, 1, 59, 50, 1, 60, 51, 1, 61, 52, 1, 62, 53, 1, 63, 54, 1, 64, 55, 1, 65, 56,
                1, 66, 57, 1, 67, 58, 1, 68, 59, 1, 69, 60, 1, 70, 61, 1, 71, 62, 1, 72, 63, 1, 73, 64,
            ],
            &[69, 2, 67],
        ]
        .concat();
        assert_eq!(snapshot(&restored), full, "after the hit, the evictions and the re-hint");
    }

    #[test]
    fn tlb_capacity_evicts_lru() {
        let mut mmu = Mmu::new(&hot_page());
        // Touch 65 distinct pages: first page gets evicted.
        for vpn in 0..65u64 {
            mmu.touch(VirtAddr::new(vpn * 4096));
        }
        let misses_before = mmu.tlb_stats().misses;
        mmu.touch(VirtAddr::new(0)); // evicted → miss again
        assert_eq!(mmu.tlb_stats().misses, misses_before + 1);
    }
}
