//! The memory interface the core drives.
//!
//! The core is decoupled from address translation and the cache hierarchy
//! through [`MemoryBackend`]: `trrip-sim` implements it over the MMU (so
//! requests pick up PTE temperature bits) and the `trrip_cache::Hierarchy`.

use trrip_mem::VirtAddr;

/// Latency and level information for one demand access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemLatency {
    /// End-to-end cycles until data is available.
    pub cycles: u64,
    /// Whether the access hit the private L1.
    pub l1_hit: bool,
    /// Whether the access missed the L2 (served by SLC or DRAM).
    pub l2_miss: bool,
}

impl MemLatency {
    /// An L1 hit with the given latency.
    #[must_use]
    pub fn l1_hit(cycles: u64) -> MemLatency {
        MemLatency { cycles, l1_hit: true, l2_miss: false }
    }
}

/// Memory system interface: demand accesses return latency; prefetches are
/// fire-and-forget state changes.
///
/// `now` is the core's current cycle, letting implementations model
/// prefetch *timeliness*: a prefetch issued shortly before its use only
/// hides part of the miss latency.
pub trait MemoryBackend {
    /// Demand instruction fetch of the line containing `pc`.
    /// `caused_starvation` is the Emissary signal: this line previously
    /// caused decode starvation.
    fn ifetch(&mut self, pc: VirtAddr, caused_starvation: bool, now: u64) -> MemLatency;

    /// Demand data read at `addr` issued by the instruction at `pc`.
    fn dread(&mut self, addr: VirtAddr, pc: VirtAddr) -> MemLatency;

    /// Demand data write at `addr` issued by the instruction at `pc`.
    fn dwrite(&mut self, addr: VirtAddr, pc: VirtAddr) -> MemLatency;

    /// FDIP/next-line instruction prefetch of the line containing `pc`.
    fn prefetch_ifetch(&mut self, pc: VirtAddr, now: u64);
}

/// A backend with uniform latencies and no state — useful for unit tests
/// of the core timing model.
#[derive(Debug, Clone)]
pub struct FlatBackend {
    /// Latency returned for every instruction fetch.
    pub ifetch_latency: MemLatency,
    /// Latency returned for every data access.
    pub data_latency: MemLatency,
    /// Number of prefetches received.
    pub prefetches: u64,
}

impl FlatBackend {
    /// A backend where everything hits L1.
    #[must_use]
    pub fn all_hits() -> FlatBackend {
        FlatBackend {
            ifetch_latency: MemLatency::l1_hit(3),
            data_latency: MemLatency::l1_hit(3),
            prefetches: 0,
        }
    }
}

impl MemoryBackend for FlatBackend {
    fn ifetch(&mut self, _pc: VirtAddr, _caused_starvation: bool, _now: u64) -> MemLatency {
        self.ifetch_latency
    }

    fn dread(&mut self, _addr: VirtAddr, _pc: VirtAddr) -> MemLatency {
        self.data_latency
    }

    fn dwrite(&mut self, _addr: VirtAddr, _pc: VirtAddr) -> MemLatency {
        self.data_latency
    }

    fn prefetch_ifetch(&mut self, _pc: VirtAddr, _now: u64) {
        self.prefetches += 1;
    }
}
