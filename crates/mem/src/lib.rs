//! Memory primitives shared across the TRRIP simulator stack.
//!
//! Everything the cache hierarchy, MMU and trace generators agree on lives
//! here: typed virtual/physical addresses, the cache-line size, page sizes,
//! and the [`MemoryRequest`] that carries the PBHA-style temperature
//! attribute from the page tables down to the replacement policy.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod line;
pub mod page;
pub mod request;

pub use addr::{PhysAddr, VirtAddr};
pub use line::{LineAddr, LINE_BYTES};
pub use page::{PageNumber, PageSize};
pub use request::{AccessKind, MemoryRequest, RequestAttrs};
