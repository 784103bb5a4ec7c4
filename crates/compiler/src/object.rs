//! The ELF-like object file produced by the linker.
//!
//! Only the parts TRRIP touches are modelled (Figure 5): text sections —
//! each with the temperature the loader reads (Figure 4 ⑥–⑧) — the PLT,
//! a data segment, and the symbol/block address tables the trace walker
//! uses. The sections are the program headers: the loader maps each one.

use serde::{Deserialize, Serialize};
use trrip_core::Temperature;
use trrip_mem::VirtAddr;

/// One section of the object file.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Section {
    /// Section name (".text.hot", ".plt", ".data", …).
    pub name: String,
    /// Base virtual address.
    pub base: VirtAddr,
    /// Size in bytes.
    pub size_bytes: u64,
    /// Executable section?
    pub executable: bool,
    /// Temperature recorded for the loader (code sections under PGO):
    /// TRRIP's addition to the program header (Figure 4 ⑥).
    pub temperature: Option<Temperature>,
}

impl Section {
    /// Whether `addr` falls inside the section.
    #[must_use]
    pub fn contains(&self, addr: VirtAddr) -> bool {
        addr >= self.base && addr.raw() < self.base.raw() + self.size_bytes
    }

    /// End address (exclusive).
    #[must_use]
    pub fn end(&self) -> VirtAddr {
        self.base + self.size_bytes
    }
}

/// The linked object file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObjectFile {
    /// All sections, in address order.
    pub sections: Vec<Section>,
    /// Entry address of each program function.
    pub function_addrs: Vec<VirtAddr>,
    /// Address of every basic block: `block_addrs[function][block]`.
    pub block_addrs: Vec<Vec<VirtAddr>>,
    /// For each function and block, the block that physically follows it
    /// in the layout (fall-through target), if any.
    pub layout_next: Vec<Vec<Option<usize>>>,
    /// Address of each PLT stub (one per external function).
    pub plt_addrs: Vec<VirtAddr>,
    /// Entry address of each external library function.
    pub external_addrs: Vec<VirtAddr>,
    /// Total on-disk binary size in bytes (text + data + ELF overhead).
    pub binary_size: u64,
}

impl ObjectFile {
    /// The section containing `addr`, if any.
    #[must_use]
    pub fn section_of(&self, addr: VirtAddr) -> Option<&Section> {
        self.sections.iter().find(|s| s.contains(addr))
    }

    /// The section with the given name.
    #[must_use]
    pub fn section_named(&self, name: &str) -> Option<&Section> {
        self.sections.iter().find(|s| s.name == name)
    }

    /// Temperature recorded for the code at `addr` (what the PTE will
    /// eventually say, before page-granularity effects).
    #[must_use]
    pub fn temperature_of(&self, addr: VirtAddr) -> Option<Temperature> {
        self.section_of(addr).and_then(|s| s.temperature)
    }

    /// Size of the named section, or 0 if absent.
    #[must_use]
    pub fn section_size(&self, name: &str) -> u64 {
        self.section_named(name).map_or(0, |s| s.size_bytes)
    }

    /// Sanity checks: sections sorted and non-overlapping, block
    /// addresses inside executable sections.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        for pair in self.sections.windows(2) {
            if pair[1].base < pair[0].end() {
                return Err(format!("sections {} and {} overlap", pair[0].name, pair[1].name));
            }
        }
        for (fi, blocks) in self.block_addrs.iter().enumerate() {
            for (bi, &addr) in blocks.iter().enumerate() {
                match self.section_of(addr) {
                    Some(s) if s.executable => {}
                    _ => {
                        return Err(format!(
                            "block {fi}:{bi} at {addr} is not in an executable section"
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn section(name: &str, base: u64, size: u64, temp: Option<Temperature>) -> Section {
        Section {
            name: name.to_owned(),
            base: VirtAddr::new(base),
            size_bytes: size,
            executable: true,
            temperature: temp,
        }
    }

    fn object() -> ObjectFile {
        ObjectFile {
            sections: vec![
                section(".text.hot", 0x1000, 0x100, Some(Temperature::Hot)),
                section(".text.cold", 0x1100, 0x100, Some(Temperature::Cold)),
            ],
            function_addrs: vec![VirtAddr::new(0x1000)],
            block_addrs: vec![vec![VirtAddr::new(0x1000), VirtAddr::new(0x1040)]],
            layout_next: vec![vec![Some(1), None]],
            plt_addrs: vec![],
            external_addrs: vec![],
            binary_size: 0x2000,
        }
    }

    #[test]
    fn section_lookup_by_address() {
        let o = object();
        assert_eq!(o.section_of(VirtAddr::new(0x1080)).unwrap().name, ".text.hot");
        assert_eq!(o.section_of(VirtAddr::new(0x1100)).unwrap().name, ".text.cold");
        assert!(o.section_of(VirtAddr::new(0x9000)).is_none());
    }

    #[test]
    fn temperature_follows_sections() {
        let o = object();
        assert_eq!(o.temperature_of(VirtAddr::new(0x1000)), Some(Temperature::Hot));
        assert_eq!(o.temperature_of(VirtAddr::new(0x11ff)), Some(Temperature::Cold));
        assert_eq!(o.temperature_of(VirtAddr::new(0x9000)), None);
    }

    #[test]
    fn validate_catches_overlap() {
        let mut o = object();
        o.sections[1].base = VirtAddr::new(0x10c0);
        assert!(o.validate().is_err());
        let o2 = object();
        assert_eq!(o2.validate(), Ok(()));
    }
}
