//! The MMU: translation plus temperature-attribute forwarding
//! (Figure 4 ⑩–⑪).
//!
//! Instruction fetches translate through the page table; the PTE's
//! PBHA-style bits come back with the translation and are attached to the
//! outgoing memory request by the simulator. A small fully-associative
//! TLB tracks locality statistics. Unmapped pages are demand-allocated
//! (anonymous memory — heap and stack — has no temperature).

use serde::{Deserialize, Serialize};
use trrip_core::{Temperature, TemperatureBits};
use trrip_mem::{PageSize, PhysAddr, VirtAddr};
use trrip_snap::{SnapError, SnapReader, SnapWriter, Snapshot};

use crate::page_table::{PageTable, PageTableEntry};

/// TLB hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TlbStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed (page-table walk).
    pub misses: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct TlbEntry {
    vpn: u64,
    stamp: u64,
    valid: bool,
    /// Cached translation — a real TLB holds the PTE, so a hit skips the
    /// page walk entirely. Safe to cache because a mapped PTE is never
    /// remapped during a run (the loader maps before the Mmu exists and
    /// demand allocation only inserts absent pages). Not serialized:
    /// snapshots rebuild it from the page table.
    frame: u64,
    pbha: TemperatureBits,
}

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

/// The MMU: page table + TLB + demand allocation.
#[derive(Debug, Clone)]
pub struct Mmu {
    page_table: PageTable,
    tlb: Vec<TlbEntry>,
    /// For each hashed vpn, the TLB slot that last held a page hashing
    /// there — pure lookup acceleration for the translate hot path
    /// (every fetch line-change, memory operand, and prefetch
    /// translates). A hint is only ever *believed after checking* the
    /// entry it names, and a wrong one falls back to scanning the TLB,
    /// so it needs no invalidation and no place in snapshots: the
    /// architectural state (entries, stamps, victim choice, statistics)
    /// is byte-identical with or without it.
    hints: Box<[u8; HINT_SLOTS]>,
    clock: u64,
    stats: TlbStats,
    next_anon_frame: u64,
}

impl Mmu {
    /// Default TLB entries (unified, fully associative).
    pub const TLB_ENTRIES: usize = 64;

    /// Wraps a loaded page table. Demand allocation hands out frames
    /// above any frame the loader used.
    #[must_use]
    pub fn new(page_table: PageTable) -> Mmu {
        let max_frame = page_table.iter().map(|(_, e)| e.frame).max().unwrap_or(0x100);
        Mmu {
            page_table,
            tlb: vec![TlbEntry::default(); Mmu::TLB_ENTRIES],
            hints: Box::new([0; HINT_SLOTS]),
            clock: 0,
            stats: TlbStats::default(),
            next_anon_frame: max_frame + 1,
        }
    }

    /// The page size in force.
    #[must_use]
    pub fn page_size(&self) -> PageSize {
        self.page_table.page_size()
    }

    /// TLB statistics.
    #[must_use]
    pub fn tlb_stats(&self) -> TlbStats {
        self.stats
    }

    /// The underlying page table.
    #[must_use]
    pub fn page_table(&self) -> &PageTable {
        &self.page_table
    }

    /// Translates `vaddr`, returning the physical address and the decoded
    /// temperature attribute. Unmapped pages are demand-allocated as
    /// anonymous (non-executable, no temperature) memory.
    ///
    /// A TLB hit serves the cached PTE without touching the page table —
    /// with a good hint, lookup plus stamp update is O(1); a stale hint
    /// costs one scan of the entries, and only misses (and demand
    /// allocations) walk the table and run the LRU victim scan. Inlined:
    /// this sits on the L1-hit fast path, where the TLB hit is usually
    /// the only work besides the L1 probe.
    #[inline]
    pub fn translate(&mut self, vaddr: VirtAddr) -> (PhysAddr, Option<Temperature>) {
        let page_bytes = self.page_size().bytes();
        let vpn = self.page_size().page_of(vaddr).raw();
        let offset = vaddr.offset_in(page_bytes);
        self.clock += 1;

        let hint = &mut self.hints[hint_of(vpn)];
        let holds = |e: &TlbEntry| e.valid && e.vpn == vpn;
        let hit = if holds(&self.tlb[usize::from(*hint)]) {
            Some(usize::from(*hint))
        } else {
            self.tlb.iter().position(holds)
        };
        if let Some(slot) = hit {
            *hint = slot as u8;
            let entry = &mut self.tlb[slot];
            entry.stamp = self.clock;
            self.stats.hits += 1;
            return (PhysAddr::new(entry.frame * page_bytes + offset), entry.pbha.decode());
        }
        self.stats.misses += 1;

        // Page walk; unmapped pages demand-allocate (anonymous memory).
        let pte = match self.page_table.entry(vpn) {
            Some(&pte) => pte,
            None => {
                let frame = self.next_anon_frame;
                self.next_anon_frame += 1;
                let pte = PageTableEntry { frame, executable: false, pbha: TemperatureBits::NONE };
                self.page_table.map(vpn, pte);
                pte
            }
        };

        // TLB fill: victim scan only on the miss path; the first-minimum
        // choice matches the original linear scan exactly.
        let (slot, victim) = self
            .tlb
            .iter_mut()
            .enumerate()
            .min_by_key(|(_, e)| if e.valid { e.stamp } else { 0 })
            .expect("TLB is never empty");
        *victim =
            TlbEntry { vpn, stamp: self.clock, valid: true, frame: pte.frame, pbha: pte.pbha };
        *hint = slot as u8;

        (PhysAddr::new(pte.frame * page_bytes + offset), pte.pbha.decode())
    }
}

impl Snapshot for Mmu {
    fn save(&self, w: &mut SnapWriter) {
        w.tag(b"MMU ");
        self.page_table.save(w);
        w.usize(self.tlb.len());
        for e in &self.tlb {
            w.bool(e.valid);
            if e.valid {
                w.u64(e.vpn);
                w.u64(e.stamp);
            }
        }
        w.u64(self.clock);
        w.u64(self.stats.hits);
        w.u64(self.stats.misses);
        w.u64(self.next_anon_frame);
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.expect_tag(b"MMU ")?;
        self.page_table.restore(r)?;
        r.expect_len("TLB entries", self.tlb.len())?;
        for slot in 0..self.tlb.len() {
            let mut e = TlbEntry { valid: r.bool()?, ..TlbEntry::default() };
            if e.valid {
                e.vpn = r.u64()?;
                e.stamp = r.u64()?;
                // The cached PTE is not serialized: rebuild it from the
                // (just-restored) page table.
                let pte = self.page_table.entry(e.vpn).copied().ok_or_else(|| {
                    SnapError::Corrupt(format!("TLB entry for unmapped page {:#x}", e.vpn))
                })?;
                e.frame = pte.frame;
                e.pbha = pte.pbha;
            }
            self.tlb[slot] = e;
        }
        self.clock = r.u64()?;
        self.stats = TlbStats { hits: r.u64()?, misses: r.u64()? };
        self.next_anon_frame = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mmu_with_hot_page() -> Mmu {
        let mut pt = PageTable::new(PageSize::Size4K);
        pt.map(
            0x400,
            PageTableEntry {
                frame: 0x100,
                executable: true,
                pbha: TemperatureBits::encode(Some(Temperature::Hot)),
            },
        );
        Mmu::new(pt)
    }

    #[test]
    fn translation_returns_temperature() {
        let mut mmu = mmu_with_hot_page();
        let (pa, temp) = mmu.translate(VirtAddr::new(0x40_0040));
        assert_eq!(pa.raw(), 0x100 * 4096 + 0x40);
        assert_eq!(temp, Some(Temperature::Hot));
    }

    #[test]
    fn demand_allocation_is_untagged_and_stable() {
        let mut mmu = mmu_with_hot_page();
        let (pa1, temp) = mmu.translate(VirtAddr::new(0x9000_0000));
        assert_eq!(temp, None);
        // Same page translates to the same frame afterwards.
        let (pa2, _) = mmu.translate(VirtAddr::new(0x9000_0008));
        assert_eq!(pa2.raw(), pa1.raw() + 8);
    }

    #[test]
    fn anonymous_frames_do_not_collide_with_loaded() {
        let mut mmu = mmu_with_hot_page();
        let (pa, _) = mmu.translate(VirtAddr::new(0x8000_0000));
        assert!(pa.raw() / 4096 > 0x100, "anon frame overlaps loader frame");
    }

    #[test]
    fn tlb_hits_on_locality() {
        let mut mmu = mmu_with_hot_page();
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
        next_anon_frame: u64,
    }

    impl ScanTlb {
        fn new(page_table: PageTable) -> ScanTlb {
            let max_frame = page_table.iter().map(|(_, e)| e.frame).max().unwrap_or(0x100);
            ScanTlb {
                page_table,
                entries: vec![None; Mmu::TLB_ENTRIES],
                clock: 0,
                stats: TlbStats::default(),
                next_anon_frame: max_frame + 1,
            }
        }

        fn translate(&mut self, vaddr: VirtAddr) -> (PhysAddr, Option<Temperature>) {
            let page_bytes = self.page_table.page_size().bytes();
            let vpn = vaddr.raw() / page_bytes;
            self.clock += 1;
            let held = self.entries.iter_mut().flatten().find(|(held, _)| *held == vpn);
            if let Some((_, stamp)) = held {
                *stamp = self.clock;
                self.stats.hits += 1;
            } else {
                self.stats.misses += 1;
                if self.page_table.entry(vpn).is_none() {
                    let pte = PageTableEntry {
                        frame: self.next_anon_frame,
                        executable: false,
                        pbha: TemperatureBits::NONE,
                    };
                    self.next_anon_frame += 1;
                    self.page_table.map(vpn, pte);
                }
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
            let pte = self.page_table.entry(vpn).expect("mapped above");
            let pa = pte.frame * page_bytes + vaddr.raw() % page_bytes;
            (PhysAddr::new(pa), pte.pbha.decode())
        }

        fn snapshot(&self) -> Vec<u8> {
            let mut w = SnapWriter::new();
            w.tag(b"MMU ");
            self.page_table.save(&mut w);
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
            w.u64(self.next_anon_frame);
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
                pt.map(vpn, PageTableEntry { frame: 0x100 + vpn, executable: true, pbha });
            }
        }
        let (mut mmu, mut reference) = (Mmu::new(pt.clone()), ScanTlb::new(pt.clone()));

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
        // before its reuse, then a seeded scatter over 200 pages (mapped
        // and demand-allocated) mixes hits, misses and stale hints.
        let mut stream: Vec<u64> =
            (0..3).flat_map(|_| (0..100u64).map(|p| (0x3f0 + p) * 4096 + p)).collect();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let page = if x & 3 == 0 { x % 200 } else { x % 70 };
            stream.push((0x3f0 + page) * 4096 + (x >> 32) % 4096);
        }
        assert_agree(&mut mmu, &mut reference, &stream, "more pages than entries");
        assert!(mmu.tlb_stats().misses > 300 + 64, "capacity misses: {:?}", mmu.tlb_stats());

        // A restored MMU starts with every hint cold or wrong.
        let mut restored = Mmu::new(pt);
        restored.restore(&mut SnapReader::new(&snapshot(&mmu))).expect("restore");
        stream.reverse();
        assert_agree(&mut restored, &mut reference, &stream, "after restore");
    }

    #[test]
    fn tlb_capacity_evicts_lru() {
        let mut mmu = mmu_with_hot_page();
        // Touch 65 distinct pages: first page gets evicted.
        for vpn in 0..65u64 {
            mmu.translate(VirtAddr::new(vpn * 4096));
        }
        let misses_before = mmu.tlb_stats().misses;
        mmu.translate(VirtAddr::new(0)); // evicted → miss again
        assert_eq!(mmu.tlb_stats().misses, misses_before + 1);
    }
}
