//! The program loader (Figure 4 ⑥–⑧).
//!
//! Reads the object file's sections — its program headers, each carrying
//! the temperature TRRIP adds — allocates physical frames, and populates
//! PTEs with the frame and the temperature bits. Pages that straddle text
//! sections of different temperature are resolved by an [`OverlapPolicy`]
//! (§4.9); a page no executable section touches is data and untagged.

use serde::{Deserialize, Serialize};
use trrip_compiler::ObjectFile;
use trrip_core::{Temperature, TemperatureBits};
use trrip_mem::{PageSize, VirtAddr};

use crate::page_table::{PageTable, PageTableEntry};

/// How the loader tags a page overlapped by sections of different
/// temperature (§4.9's accuracy hazard and prevention mechanisms).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum OverlapPolicy {
    /// Tag with the temperature of the section covering the page's first
    /// byte — the naive behaviour whose inaccuracy §4.9 warns about.
    FirstByte,
    /// Prevention mechanism (2): leave mixed pages untagged so TRRIP
    /// never mis-prioritizes.
    #[default]
    DropMixed,
    /// Tag with the hottest overlapping temperature (ablation variant:
    /// errs toward over-prioritizing).
    Hottest,
}

/// Pages mapped per temperature class — the data behind Table 5.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PageStats {
    /// Pages tagged hot.
    pub hot: u64,
    /// Pages tagged warm.
    pub warm: u64,
    /// Pages tagged cold.
    pub cold: u64,
    /// Executable pages with no temperature (PLT, external code, mixed
    /// pages under [`OverlapPolicy::DropMixed`]).
    pub untagged_code: u64,
    /// Non-executable (data) pages.
    pub data: u64,
    /// Pages that overlapped sections of different temperature.
    pub mixed: u64,
}

impl PageStats {
    /// Total mapped pages.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.hot + self.warm + self.cold + self.untagged_code + self.data
    }
}

/// The loaded image: page table plus load-time statistics.
#[derive(Debug, Clone)]
pub struct LoadedImage {
    /// The populated page table.
    pub page_table: PageTable,
    /// Page statistics.
    pub stats: PageStats,
}

/// The program loader.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Loader {
    /// Page size used for all mappings.
    pub page_size: PageSize,
    /// Mixed-page handling.
    pub overlap: OverlapPolicy,
    /// First physical frame handed out.
    pub first_frame: u64,
}

impl Loader {
    /// A loader with the given page size and the default (safe) overlap
    /// policy.
    #[must_use]
    pub fn new(page_size: PageSize) -> Loader {
        Loader { page_size, overlap: OverlapPolicy::default(), first_frame: 0x100 }
    }

    /// Overrides the overlap policy.
    #[must_use]
    pub fn with_overlap_policy(mut self, overlap: OverlapPolicy) -> Loader {
        self.overlap = overlap;
        self
    }

    /// Loads an object file: maps every section page-by-page, resolving
    /// each page's temperature from its sections, and allocating physical
    /// frames sequentially.
    #[must_use]
    pub fn load(&self, object: &ObjectFile) -> LoadedImage {
        let mut page_table = PageTable::new(self.page_size);
        let mut stats = PageStats::default();
        let mut next_frame = self.first_frame;
        let page_bytes = self.page_size.bytes();

        // Collect the set of virtual pages each section touches.
        let mut pages: Vec<u64> = Vec::new();
        for section in &object.sections {
            if section.size_bytes == 0 {
                continue;
            }
            let first = section.base.raw() / page_bytes;
            let last = (section.base.raw() + section.size_bytes - 1) / page_bytes;
            pages.extend(first..=last);
        }
        pages.sort_unstable();
        pages.dedup();

        for vpn in pages {
            let page_base = VirtAddr::new(vpn * page_bytes);
            let page_end = page_base + page_bytes;

            // All sections overlapping this page.
            let overlapping: Vec<_> = object
                .sections
                .iter()
                .filter(|s| s.base < page_end && s.end() > page_base)
                .collect();
            let executable = overlapping.iter().any(|s| s.executable);
            let temps: Vec<Option<Temperature>> =
                overlapping.iter().map(|s| s.temperature).collect();
            let mixed = temps.windows(2).any(|w| w[0] != w[1]);

            let temperature = if !executable {
                None
            } else if !mixed {
                temps.first().copied().flatten()
            } else {
                stats.mixed += 1;
                match self.overlap {
                    OverlapPolicy::FirstByte => {
                        // Temperature of the section owning the first
                        // mapped byte of the page.
                        overlapping
                            .iter()
                            .min_by_key(|s| s.base.max(page_base).raw())
                            .and_then(|s| s.temperature)
                    }
                    OverlapPolicy::DropMixed => None,
                    OverlapPolicy::Hottest => temps.iter().copied().flatten().max(),
                }
            };

            match (executable, temperature) {
                (false, _) => stats.data += 1,
                (true, Some(Temperature::Hot)) => stats.hot += 1,
                (true, Some(Temperature::Warm)) => stats.warm += 1,
                (true, Some(Temperature::Cold)) => stats.cold += 1,
                (true, None) => stats.untagged_code += 1,
            }

            page_table.map(
                vpn,
                PageTableEntry { frame: next_frame, pbha: TemperatureBits::encode(temperature) },
            );
            next_frame += 1;
        }

        LoadedImage { page_table, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trrip_compiler::{ObjectFile, Section};

    fn section(name: &str, base: u64, size: u64, temp: Option<Temperature>, exec: bool) -> Section {
        Section {
            name: name.to_owned(),
            base: VirtAddr::new(base),
            size_bytes: size,
            executable: exec,
            temperature: temp,
        }
    }

    fn object(sections: Vec<Section>) -> ObjectFile {
        ObjectFile {
            sections,
            function_addrs: vec![],
            block_addrs: vec![],
            layout_next: vec![],
            plt_addrs: vec![],
            external_addrs: vec![],
            binary_size: 0,
        }
    }

    #[test]
    fn pure_pages_get_section_temperature() {
        // Hot section spanning exactly two 4 kB pages.
        let obj = object(vec![section(".text.hot", 0x40_0000, 8192, Some(Temperature::Hot), true)]);
        let img = Loader::new(PageSize::Size4K).load(&obj);
        assert_eq!(img.stats.hot, 2);
        assert_eq!(img.stats.mixed, 0);
        let (_, bits) = img.page_table.lookup(VirtAddr::new(0x40_0000)).unwrap();
        assert_eq!(bits.decode(), Some(Temperature::Hot));
    }

    #[test]
    fn mixed_page_dropped_by_default() {
        // Hot ends mid-page; warm begins right after.
        let obj = object(vec![
            section(".text.hot", 0x40_0000, 6000, Some(Temperature::Hot), true),
            section(".text.warm", 0x40_0000 + 6016, 4096, Some(Temperature::Warm), true),
        ]);
        let img = Loader::new(PageSize::Size4K).load(&obj);
        assert_eq!(img.stats.mixed, 1);
        // Page 1 (0x401000) holds the hot tail and the warm head: untagged.
        let (_, bits) = img.page_table.lookup(VirtAddr::new(0x40_1000)).unwrap();
        assert_eq!(bits.decode(), None);
        // Page 0 is purely hot.
        let (_, bits0) = img.page_table.lookup(VirtAddr::new(0x40_0000)).unwrap();
        assert_eq!(bits0.decode(), Some(Temperature::Hot));
    }

    #[test]
    fn first_byte_policy_tags_with_owner_of_page_start() {
        let obj = object(vec![
            section(".text.hot", 0x40_0000, 6000, Some(Temperature::Hot), true),
            section(".text.warm", 0x40_0000 + 6016, 4096, Some(Temperature::Warm), true),
        ]);
        let img =
            Loader::new(PageSize::Size4K).with_overlap_policy(OverlapPolicy::FirstByte).load(&obj);
        // Page 1 starts inside the hot section → tagged hot (the §4.9
        // risk: warm code on that page is now treated as hot).
        let (_, bits) = img.page_table.lookup(VirtAddr::new(0x40_1000)).unwrap();
        assert_eq!(bits.decode(), Some(Temperature::Hot));
    }

    #[test]
    fn hottest_policy_takes_max() {
        let obj = object(vec![
            section(".text.cold", 0x40_0000, 2048, Some(Temperature::Cold), true),
            section(".text.warm", 0x40_0800, 2048, Some(Temperature::Warm), true),
        ]);
        let img =
            Loader::new(PageSize::Size4K).with_overlap_policy(OverlapPolicy::Hottest).load(&obj);
        let (_, bits) = img.page_table.lookup(VirtAddr::new(0x40_0000)).unwrap();
        assert_eq!(bits.decode(), Some(Temperature::Warm));
    }

    #[test]
    fn data_and_plt_pages_untagged() {
        let obj = object(vec![
            section(".plt", 0x40_0000, 4096, None, true),
            section(".data", 0x40_1000, 4096, None, false),
        ]);
        let img = Loader::new(PageSize::Size4K).load(&obj);
        assert_eq!(img.stats.untagged_code, 1);
        assert_eq!(img.stats.data, 1);
        assert_eq!(img.stats.hot + img.stats.warm + img.stats.cold, 0);
    }

    #[test]
    fn larger_pages_mix_more() {
        // Three small adjacent sections: at 4 kB the middle page is mixed,
        // at 2 MB everything collapses onto one mixed page.
        let obj = object(vec![
            section(".text.hot", 0x40_0000, 4096, Some(Temperature::Hot), true),
            section(".text.warm", 0x40_1000, 4096, Some(Temperature::Warm), true),
            section(".text.cold", 0x40_2000, 4096, Some(Temperature::Cold), true),
        ]);
        let img_4k = Loader::new(PageSize::Size4K).load(&obj);
        assert_eq!(img_4k.stats.mixed, 0);
        assert_eq!((img_4k.stats.hot, img_4k.stats.warm, img_4k.stats.cold), (1, 1, 1));

        let img_2m = Loader::new(PageSize::Size2M).load(&obj);
        assert_eq!(img_2m.stats.mixed, 1);
        assert_eq!(img_2m.stats.total(), 1);
        assert_eq!(img_2m.stats.untagged_code, 1, "DropMixed leaves the page untagged");
    }

    #[test]
    fn frames_are_unique() {
        let obj = object(vec![
            section(".text.hot", 0x40_0000, 16384, Some(Temperature::Hot), true),
            section(".data", 0x40_8000, 8192, None, false),
        ]);
        let img = Loader::new(PageSize::Size4K).load(&obj);
        let mut frames: Vec<u64> = img.page_table.iter().map(|(_, e)| e.frame).collect();
        frames.sort_unstable();
        let before = frames.len();
        frames.dedup();
        assert_eq!(frames.len(), before, "duplicate physical frames");
        assert_eq!(img.stats.total(), 6);
    }
}
