//! Code layout: the linker.
//!
//! Two layouts are produced:
//!
//! * **Source order** (the non-PGO baseline): every function in
//!   declaration order inside a single `.text` section, blocks in index
//!   order, no temperature information anywhere.
//! * **PGO** (Figure 5): functions are classified hot/warm/cold and
//!   placed into `.text.hot` / `.text.warm` / `.text.cold`, hottest
//!   section first; functions inside a section are sorted by descending
//!   hotness (function reordering) and blocks inside a function are
//!   reordered so the hot path falls through (block placement). Each
//!   section carries its temperature for the loader.
//!
//! Both layouts also emit the PLT (one stub per external function), the
//! data segment, and the external library text — which never receives
//! temperature information because TRRIP's compiler does not see it
//! (§4.6).

use serde::{Deserialize, Serialize};
use trrip_core::Temperature;
use trrip_mem::VirtAddr;

use crate::classify::FunctionTemperatures;
use crate::ir::Program;
use crate::object::{ObjectFile, Section};
use crate::profile::Profile;

/// Which layout a [`Linker`] produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LayoutKind {
    /// Declaration order, single `.text`, no temperature (non-PGO).
    SourceOrder,
    /// PGO ordering with temperature sections (Figure 5).
    Pgo,
}

/// The linker: assigns addresses and emits the [`ObjectFile`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Linker {
    /// Image base for the main binary.
    pub base: u64,
    /// Base of the external-library region.
    pub external_base: u64,
    /// Section alignment in bytes. The default (64, one cache line) lets
    /// differently-tempered sections share a page — the §4.9 hazard;
    /// page-aligning sections is prevention mechanism (1).
    pub section_align: u64,
    /// Bytes per PLT stub.
    pub plt_stub_bytes: u64,
}

impl Linker {
    /// A linker with conventional defaults.
    #[must_use]
    pub fn new() -> Linker {
        Linker {
            base: 0x40_0000,
            external_base: 0x7000_0000,
            section_align: 64,
            plt_stub_bytes: 16,
        }
    }

    /// Overrides the section alignment (e.g. page size for §4.9
    /// prevention mechanism 1).
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two.
    #[must_use]
    pub fn with_section_alignment(mut self, align: u64) -> Linker {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        self.section_align = align;
        self
    }

    /// Links without PGO: source order, one `.text`, no temperatures.
    #[must_use]
    pub fn link_source_order(&self, program: &Program) -> ObjectFile {
        let function_order: Vec<usize> = (0..program.functions.len()).collect();
        let block_orders: Vec<Vec<usize>> =
            program.functions.iter().map(|f| (0..f.blocks.len()).collect()).collect();
        self.emit(program, &[(None, function_order)], &block_orders)
    }

    /// Links with PGO: temperature sections, function reordering and
    /// hot-path block placement.
    #[must_use]
    pub fn link_pgo(
        &self,
        program: &Program,
        profile: &Profile,
        temps: &FunctionTemperatures,
    ) -> ObjectFile {
        let hotness = profile.function_max_counts();

        // Function reordering: group by temperature, sort within a group
        // by descending hotness (stable on index for determinism).
        let mut groups: Vec<(Option<Temperature>, Vec<usize>)> =
            Temperature::ALL.iter().map(|&t| (Some(t), Vec::new())).collect();
        for fi in 0..program.functions.len() {
            let slot = match temps.of(fi) {
                Temperature::Hot => 0,
                Temperature::Warm => 1,
                Temperature::Cold => 2,
            };
            groups[slot].1.push(fi);
        }
        for (_, group) in &mut groups {
            group.sort_by_key(|&fi| std::cmp::Reverse(hotness[fi]));
        }

        // Block placement: entry first, remaining blocks by descending
        // execution count so the hot path falls through.
        let block_orders: Vec<Vec<usize>> = program
            .functions
            .iter()
            .enumerate()
            .map(|(fi, f)| {
                let mut rest: Vec<usize> = (1..f.blocks.len()).collect();
                rest.sort_by_key(|&bi| std::cmp::Reverse(profile.count(fi, bi)));
                let mut order = Vec::with_capacity(f.blocks.len());
                order.push(0);
                order.extend(rest);
                order
            })
            .collect();

        self.emit(program, &groups, &block_orders)
    }

    /// Lays out sections, assigns addresses and builds the object file.
    /// `groups` lists the text sections in placement order with the
    /// functions they contain; `block_orders[f]` is the physical block
    /// order of function `f`.
    fn emit(
        &self,
        program: &Program,
        groups: &[(Option<Temperature>, Vec<usize>)],
        block_orders: &[Vec<usize>],
    ) -> ObjectFile {
        let align = |addr: u64| -> u64 { VirtAddr::new(addr).align_up(self.section_align).raw() };

        let mut sections = Vec::new();
        let mut function_addrs = vec![VirtAddr::default(); program.functions.len()];
        let mut block_addrs: Vec<Vec<VirtAddr>> =
            program.functions.iter().map(|f| vec![VirtAddr::default(); f.blocks.len()]).collect();
        let mut layout_next: Vec<Vec<Option<usize>>> =
            program.functions.iter().map(|f| vec![None; f.blocks.len()]).collect();

        let mut cursor = self.base;
        for (temp, functions) in groups {
            if functions.is_empty() && temp.is_some() {
                continue;
            }
            let section_base = align(cursor);
            cursor = section_base;
            for &fi in functions {
                let f = &program.functions[fi];
                function_addrs[fi] = VirtAddr::new(cursor);
                let order = &block_orders[fi];
                for (pos, &bi) in order.iter().enumerate() {
                    block_addrs[fi][bi] = VirtAddr::new(cursor);
                    cursor += u64::from(f.blocks[bi].size_bytes);
                    layout_next[fi][bi] = order.get(pos + 1).copied();
                }
            }
            let name = match temp {
                Some(t) => t.section_name().to_owned(),
                None => ".text".to_owned(),
            };
            sections.push(Section {
                name,
                base: VirtAddr::new(section_base),
                size_bytes: cursor - section_base,
                executable: true,
                temperature: *temp,
            });
        }

        // PLT: one stub per external function, directly after the text.
        let plt_base = align(cursor);
        let plt_size = program.external_functions.len() as u64 * self.plt_stub_bytes;
        let plt_addrs: Vec<VirtAddr> = (0..program.external_functions.len() as u64)
            .map(|i| VirtAddr::new(plt_base + i * self.plt_stub_bytes))
            .collect();
        if plt_size > 0 {
            sections.push(Section {
                name: ".plt".to_owned(),
                base: VirtAddr::new(plt_base),
                size_bytes: plt_size,
                executable: true,
                temperature: None,
            });
        }
        cursor = plt_base + plt_size;

        // Data segment.
        let data_base = align(cursor);
        if program.data_bytes > 0 {
            sections.push(Section {
                name: ".data".to_owned(),
                base: VirtAddr::new(data_base),
                size_bytes: program.data_bytes,
                executable: false,
                temperature: None,
            });
        }

        // External library text: separate region, never temperature-tagged.
        let mut external_addrs = Vec::with_capacity(program.external_functions.len());
        if !program.external_functions.is_empty() {
            let mut ext_cursor = self.external_base;
            for &size in &program.external_functions {
                external_addrs.push(VirtAddr::new(ext_cursor));
                ext_cursor += size;
            }
            sections.push(Section {
                name: ".text.external".to_owned(),
                base: VirtAddr::new(self.external_base),
                size_bytes: ext_cursor - self.external_base,
                executable: true,
                temperature: None,
            });
        }

        // ELF overhead: headers + a symbol-table estimate.
        let overhead = 4096 + 24 * program.functions.len() as u64;
        let binary_size = program.text_bytes() + plt_size + program.data_bytes + overhead;

        let object = ObjectFile {
            sections,
            function_addrs,
            block_addrs,
            layout_next,
            plt_addrs,
            external_addrs,
            binary_size,
        };
        debug_assert_eq!(object.validate(), Ok(()));
        object
    }
}

impl Default for Linker {
    fn default() -> Self {
        Linker::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::classify_functions;
    use crate::ir::{BasicBlock, Function};
    use trrip_core::ClassifierConfig;

    /// Three functions: f0 cold, f1 hot, f2 warm (by constructed profile).
    fn program() -> Program {
        let f = |name: &str| {
            Function::new(
                name,
                vec![
                    BasicBlock::straight(128, 1),
                    BasicBlock { successors: vec![(2, 1.0)], ..BasicBlock::straight(64, 2) },
                    BasicBlock::ret(64),
                ],
            )
        };
        let mut p = Program::new(vec![f("cold_fn"), f("hot_fn"), f("warm_fn")], 1);
        p.external_functions = vec![1024, 2048];
        p.data_bytes = 4096;
        p
    }

    fn pgo_inputs(p: &Program) -> (Profile, FunctionTemperatures) {
        let mut prof = Profile::zeroed(p);
        for _ in 0..100_000 {
            prof.record(1, 0);
            prof.record(1, 2);
        }
        for _ in 0..50_000 {
            prof.record(1, 1);
        }
        for _ in 0..300 {
            prof.record(2, 0);
        }
        // f0 never executed.
        let temps = classify_functions(&prof, ClassifierConfig::llvm_defaults());
        (prof, temps)
    }

    #[test]
    fn source_order_single_text_section() {
        let p = program();
        let obj = Linker::new().link_source_order(&p);
        assert!(obj.section_named(".text").is_some());
        assert!(obj.section_named(".text.hot").is_none());
        assert_eq!(obj.temperature_of(obj.function_addrs[1]), None);
        // Functions laid out in declaration order.
        assert!(obj.function_addrs[0] < obj.function_addrs[1]);
        assert!(obj.function_addrs[1] < obj.function_addrs[2]);
        assert_eq!(obj.validate(), Ok(()));
    }

    #[test]
    fn pgo_places_functions_by_temperature() {
        let p = program();
        let (prof, temps) = pgo_inputs(&p);
        assert_eq!(temps.of(1), Temperature::Hot);
        let obj = Linker::new().link_pgo(&p, &prof, &temps);
        let hot = obj.section_named(".text.hot").expect("hot section");
        assert!(hot.contains(obj.function_addrs[1]));
        assert_eq!(obj.temperature_of(obj.function_addrs[1]), Some(Temperature::Hot));
        // Cold function is in the cold section, after hot.
        let cold = obj.section_named(".text.cold").expect("cold section");
        assert!(cold.contains(obj.function_addrs[0]));
        assert!(hot.base < cold.base, "hot section placed first");
        assert_eq!(obj.validate(), Ok(()));
    }

    #[test]
    fn pgo_blocks_fall_through_on_hot_path() {
        let p = program();
        let (prof, temps) = pgo_inputs(&p);
        let obj = Linker::new().link_pgo(&p, &prof, &temps);
        // In f1 the entry's hot successor is block 2 (100k) over block 1
        // (50k): block 2 must physically follow the entry.
        assert_eq!(obj.layout_next[1][0], Some(2));
        let entry = obj.block_addrs[1][0];
        let hot_succ = obj.block_addrs[1][2];
        assert_eq!(hot_succ - entry, 128, "hot successor must be the fall-through");
    }

    #[test]
    fn plt_and_external_sections_have_no_temperature() {
        let p = program();
        let (prof, temps) = pgo_inputs(&p);
        let obj = Linker::new().link_pgo(&p, &prof, &temps);
        assert_eq!(obj.plt_addrs.len(), 2);
        assert_eq!(obj.external_addrs.len(), 2);
        assert_eq!(obj.temperature_of(obj.plt_addrs[0]), None);
        assert_eq!(obj.temperature_of(obj.external_addrs[1]), None);
        assert!(obj.external_addrs[0].raw() >= 0x7000_0000);
    }

    #[test]
    fn page_alignment_knob_separates_sections() {
        let p = program();
        let (prof, temps) = pgo_inputs(&p);
        let obj = Linker::new().with_section_alignment(4096).link_pgo(&p, &prof, &temps);
        for s in &obj.sections {
            if s.name != ".text.external" {
                assert!(s.base.is_aligned(4096), "{} not page aligned", s.name);
            }
        }
    }

    #[test]
    fn binary_size_includes_all_parts() {
        let p = program();
        let obj = Linker::new().link_source_order(&p);
        let text = p.text_bytes();
        assert!(obj.binary_size > text + p.data_bytes);
    }

    #[test]
    fn same_program_same_size_both_layouts() {
        // PGO moves code around but does not change its size.
        let p = program();
        let (prof, temps) = pgo_inputs(&p);
        let plain = Linker::new().link_source_order(&p);
        let pgo = Linker::new().link_pgo(&p, &prof, &temps);
        let text_sum = |o: &ObjectFile| -> u64 {
            o.sections
                .iter()
                .filter(|s| s.name.starts_with(".text") && s.name != ".text.external")
                .map(|s| s.size_bytes)
                .sum()
        };
        assert_eq!(text_sum(&plain), text_sum(&pgo));
        assert_eq!(plain.binary_size, pgo.binary_size);
    }
}
