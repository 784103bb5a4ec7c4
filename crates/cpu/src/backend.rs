//! The memory interface the core drives.
//!
//! The core is decoupled from address translation and the cache hierarchy
//! through [`MemoryBackend`]: `trrip-sim` implements it over the MMU (so
//! requests pick up PTE temperature bits) and the `trrip_cache::Hierarchy`.
//! A demand access answers with one number, its cycles until the data is
//! available; the core reads nothing else. An L1 hit costs exactly
//! [`CoreConfig::L1_HIT_CYCLES`](crate::CoreConfig::L1_HIT_CYCLES), and
//! anything the core must stall for costs more.

use trrip_mem::VirtAddr;

/// Memory system interface: demand reads answer with their cycles; writes
/// and prefetches are fire-and-forget state changes.
///
/// `now` is the core's current cycle, letting implementations model
/// prefetch *timeliness*: a prefetch issued shortly before its use only
/// hides part of the miss latency.
pub trait MemoryBackend {
    /// Demand instruction fetch of the line containing `pc`: cycles until
    /// the line is available. `caused_starvation` is the Emissary signal:
    /// this line previously caused decode starvation.
    fn ifetch(&mut self, pc: VirtAddr, caused_starvation: bool, now: u64) -> u64;

    /// Demand data read at `addr` issued by the instruction at `pc`:
    /// cycles until the data is available.
    fn dread(&mut self, addr: VirtAddr, pc: VirtAddr) -> u64;

    /// Demand data write at `addr` issued by the instruction at `pc`. The
    /// store buffer hides its latency, so it answers nothing.
    fn dwrite(&mut self, addr: VirtAddr, pc: VirtAddr);

    /// FDIP/next-line instruction prefetch of the line containing `pc`.
    fn prefetch_ifetch(&mut self, pc: VirtAddr, now: u64);
}

/// A backend with uniform latencies and no state — useful for unit tests
/// of the core timing model.
#[derive(Debug, Clone)]
pub struct FlatBackend {
    /// Cycles of every instruction fetch.
    pub ifetch_latency: u64,
    /// Cycles of every data read.
    pub data_access_latency: u64,
    /// Number of prefetches received.
    pub prefetches: u64,
}

impl FlatBackend {
    /// A backend where everything hits L1.
    #[must_use]
    pub fn all_hits() -> FlatBackend {
        let hit = crate::CoreConfig::L1_HIT_CYCLES;
        FlatBackend { ifetch_latency: hit, data_access_latency: hit, prefetches: 0 }
    }
}

impl MemoryBackend for FlatBackend {
    fn ifetch(&mut self, _pc: VirtAddr, _caused_starvation: bool, _now: u64) -> u64 {
        self.ifetch_latency
    }

    fn dread(&mut self, _addr: VirtAddr, _pc: VirtAddr) -> u64 {
        self.data_access_latency
    }

    fn dwrite(&mut self, _addr: VirtAddr, _pc: VirtAddr) {}

    fn prefetch_ifetch(&mut self, _pc: VirtAddr, _now: u64) {
        self.prefetches += 1;
    }
}
