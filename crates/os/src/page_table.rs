//! Page tables with implementation-defined temperature bits.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};
use trrip_core::TemperatureBits;
use trrip_mem::{PageSize, PhysAddr, VirtAddr};

/// One page-table entry. Besides the frame, it carries the two PBHA-style
/// bits TRRIP repurposes for code temperature —
/// existing storage on commercial mobile cores, hence "no additional
/// implementation cost" (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PageTableEntry {
    /// Physical frame number.
    pub frame: u64,
    /// Implementation-defined attribute bits (temperature encoding).
    pub pbha: TemperatureBits,
}

/// A single-level page table at a fixed page size.
///
/// # Example
///
/// ```
/// use trrip_os::{PageTable, PageTableEntry};
/// use trrip_mem::{PageSize, VirtAddr};
/// use trrip_core::{Temperature, TemperatureBits};
///
/// let mut pt = PageTable::new(PageSize::Size4K);
/// let pbha = TemperatureBits::encode(Some(Temperature::Hot));
/// pt.map(1, PageTableEntry { frame: 0x100, pbha });
/// let (pa, bits) = pt.lookup(VirtAddr::new(0x1a30)).unwrap();
/// assert_eq!(pa.raw(), 0x100 * 4096 + 0xa30);
/// assert_eq!(bits.decode(), Some(Temperature::Hot));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PageTable {
    page_size: PageSize,
    entries: HashMap<u64, PageTableEntry>,
}

impl PageTable {
    /// An empty table for the given page size.
    #[must_use]
    pub fn new(page_size: PageSize) -> PageTable {
        PageTable { page_size, entries: HashMap::new() }
    }

    /// The configured page size.
    #[must_use]
    pub fn page_size(&self) -> PageSize {
        self.page_size
    }

    /// Maps virtual page number `vpn` to `entry`, replacing any previous
    /// mapping (and returning it).
    pub fn map(&mut self, vpn: u64, entry: PageTableEntry) -> Option<PageTableEntry> {
        self.entries.insert(vpn, entry)
    }

    /// The entry for a virtual page number.
    #[must_use]
    pub fn entry(&self, vpn: u64) -> Option<&PageTableEntry> {
        self.entries.get(&vpn)
    }

    /// Translates a virtual address, returning the physical address and
    /// the attribute bits, or `None` if unmapped.
    #[must_use]
    pub fn lookup(&self, vaddr: VirtAddr) -> Option<(PhysAddr, TemperatureBits)> {
        let vpn = self.page_size.page_of(vaddr).raw();
        let entry = self.entries.get(&vpn)?;
        let offset = vaddr.offset_in(self.page_size.bytes());
        Some((PhysAddr::new(entry.frame * self.page_size.bytes() + offset), entry.pbha))
    }

    /// Number of mapped pages.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(vpn, entry)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &PageTableEntry)> {
        self.entries.iter().map(|(&vpn, e)| (vpn, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trrip_core::Temperature;

    fn entry(frame: u64, temp: Option<Temperature>) -> PageTableEntry {
        PageTableEntry { frame, pbha: TemperatureBits::encode(temp) }
    }

    #[test]
    fn lookup_preserves_offset() {
        let mut pt = PageTable::new(PageSize::Size16K);
        pt.map(2, entry(7, None));
        let va = VirtAddr::new(2 * 16384 + 1234);
        let (pa, _) = pt.lookup(va).unwrap();
        assert_eq!(pa.raw(), 7 * 16384 + 1234);
    }

    #[test]
    fn unmapped_returns_none() {
        let pt = PageTable::new(PageSize::Size4K);
        assert!(pt.lookup(VirtAddr::new(0x5000)).is_none());
    }

    #[test]
    fn temperature_bits_round_trip_through_pte() {
        let mut pt = PageTable::new(PageSize::Size4K);
        for (vpn, temp) in [(1, Some(Temperature::Hot)), (2, Some(Temperature::Warm)), (3, None)] {
            pt.map(vpn, entry(vpn + 100, temp));
        }
        for (vpn, temp) in [(1u64, Some(Temperature::Hot)), (2, Some(Temperature::Warm)), (3, None)]
        {
            let (_, bits) = pt.lookup(VirtAddr::new(vpn * 4096)).unwrap();
            assert_eq!(bits.decode(), temp);
        }
    }

    #[test]
    fn remap_returns_previous() {
        let mut pt = PageTable::new(PageSize::Size4K);
        assert!(pt.map(1, entry(10, None)).is_none());
        let old = pt.map(1, entry(20, Some(Temperature::Cold))).unwrap();
        assert_eq!(old.frame, 10);
        assert_eq!(pt.len(), 1);
    }
}
