//! The operating-system side of the TRRIP co-design (§3.3).
//!
//! * [`page_table`] — page tables whose entries carry two
//!   implementation-defined bits (ARM PBHA / x86 AVL style) encoding code
//!   temperature.
//! * [`loader`] — the program loader: reads the object's sections (its
//!   program headers), allocates pages, and populates PTEs — frame and
//!   temperature bits
//!   — with configurable handling of pages that straddle sections of
//!   different temperature (§4.9).
//! * [`mmu`] — translation of loaded pages behind a statistics-only
//!   TLB; attaches the PTE temperature to outgoing memory requests.
//!   Anonymous memory (heap, stack) is no loaded page: the simulator
//!   demand-allocates it once per instruction stream.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod loader;
pub mod mmu;
pub mod page_table;

pub use loader::{LoadedImage, Loader, OverlapPolicy, PageStats};
pub use mmu::{Mmu, TlbStats};
pub use page_table::{PageTable, PageTableEntry};
