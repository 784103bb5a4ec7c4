//! Set-associative cache model and the Table 1 memory hierarchy.
//!
//! * [`Cache`] — a tag store with a boxed [`trrip_policies::ReplacementPolicy`],
//!   dirty bits, and per-kind hit/miss statistics: the level under test.
//! * [`LruCache`] — a `WAYS`-way LRU level, each set's tags and recency
//!   stamps in one block: the levels Table 1 fixes to LRU.
//! * [`prefetch`] — the stride hardware prefetcher.
//! * [`Hierarchy`] — the paper's memory system: private L1-I/L1-D (LRU),
//!   a shared unified *inclusive* L2 with the policy under evaluation, an
//!   *exclusive* SLC victim cache, and a flat-latency DRAM. A demand
//!   access answers with the level that served it ([`ServedBy`]), whose
//!   cycles are that level's alone.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aos;
pub mod cache;
pub mod config;
pub mod hierarchy;
pub mod lru;
pub mod prefetch;
pub mod stats;

pub use aos::AosCache;
pub use cache::{Cache, EvictedLine};
pub use config::CacheConfig;
pub use hierarchy::{Hierarchy, HierarchyConfig, ServedBy};
pub use lru::LruCache;
pub use prefetch::StridePrefetcher;
pub use stats::AccessStats;
