//! Page sizes and page numbers.
//!
//! The paper's §4.9 studies 4 kB (mobile default), 16 kB (AOSP 15) and
//! 2 MB (server huge pages); [`PageSize`] models exactly those three.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::addr::VirtAddr;

/// Supported page sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum PageSize {
    /// 4 kB — the default on both mobile and server platforms.
    #[default]
    Size4K,
    /// 16 kB — supported by mobile platforms since AOSP 15.
    Size16K,
    /// 2 MB — server-class huge pages.
    Size2M,
}

impl PageSize {
    /// All supported sizes, smallest first (Table 5's columns).
    pub const ALL: [PageSize; 3] = [PageSize::Size4K, PageSize::Size16K, PageSize::Size2M];

    /// Page size in bytes.
    #[must_use]
    pub fn bytes(self) -> u64 {
        match self {
            PageSize::Size4K => 4 << 10,
            PageSize::Size16K => 16 << 10,
            PageSize::Size2M => 2 << 20,
        }
    }

    /// log2 of the page size (number of offset bits).
    #[must_use]
    pub fn offset_bits(self) -> u32 {
        self.bytes().trailing_zeros()
    }

    /// The page containing a virtual address.
    #[must_use]
    pub fn page_of(self, addr: VirtAddr) -> PageNumber {
        PageNumber(addr.raw() >> self.offset_bits())
    }
}

impl fmt::Display for PageSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PageSize::Size4K => "4kB",
            PageSize::Size16K => "16kB",
            PageSize::Size2M => "2MB",
        };
        f.write_str(s)
    }
}

/// A virtual page number under some [`PageSize`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct PageNumber(pub u64);

impl PageNumber {
    /// The raw page number.
    #[must_use]
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for PageNumber {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "page:{:#x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_match_platforms() {
        assert_eq!(PageSize::Size4K.bytes(), 4096);
        assert_eq!(PageSize::Size16K.bytes(), 16384);
        assert_eq!(PageSize::Size2M.bytes(), 2 * 1024 * 1024);
    }

    #[test]
    fn page_of_and_base_round_trip() {
        for size in PageSize::ALL {
            let addr = VirtAddr::new(size.bytes() * 3 + 123);
            let page = size.page_of(addr);
            assert_eq!(page.raw(), 3);
            assert_eq!(page.raw() << size.offset_bits(), size.bytes() * 3);
        }
    }

    #[test]
    fn bigger_pages_span_fewer() {
        // The last byte of 100 kB from address 0.
        let last = VirtAddr::new((100 << 10) - 1);
        let pages = |size: PageSize| size.page_of(last).raw() + 1;
        assert_eq!(pages(PageSize::Size4K), 25);
        assert_eq!(pages(PageSize::Size16K), 7);
        assert_eq!(pages(PageSize::Size2M), 1);
    }
}
