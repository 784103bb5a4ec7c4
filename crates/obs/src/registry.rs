//! Named process-global counters.
//!
//! Any crate registers a counter by name, increments it with one
//! relaxed atomic add, and tools and tests diff [`snapshot`]s around the
//! work they care about, reading the counters by name. Counters are
//! always on — an uncontended relaxed `fetch_add` is a few nanoseconds —
//! and monotonic for the life of the process; the snapshot-and-subtract
//! discipline replaces resetting, so concurrent readers never race a
//! zeroing writer.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The process-wide name → counter table. Registration is rare (once
/// per counter name per process, cached in a `OnceLock` by the
/// [`counter!`](crate::counter) macro), so a linear scan under a mutex
/// is plenty; increments never touch this lock.
static REGISTRY: Mutex<Vec<(&'static str, &'static AtomicU64)>> = Mutex::new(Vec::new());

/// A handle to one named counter. `Copy` and pointer-sized: grab it once
/// and increment from any thread without further lookups.
#[derive(Debug, Clone, Copy)]
pub struct Counter(&'static AtomicU64);

impl Counter {
    /// Adds `n` to the counter (relaxed; a few ns uncontended).
    pub fn add(self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1 to the counter.
    pub fn incr(self) {
        self.add(1);
    }

    /// The current value (relaxed load).
    #[must_use]
    pub fn value(self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Finds or registers the counter named `name`. Idempotent: every call
/// with the same name returns a handle to the same atomic. Prefer the
/// [`counter!`](crate::counter!) macro at call sites — it caches the
/// handle in a `OnceLock` so the registry lock is taken once, not per
/// call.
#[must_use]
pub fn counter(name: &'static str) -> Counter {
    let mut reg = REGISTRY.lock().expect("counter registry poisoned");
    if let Some((_, cell)) = reg.iter().find(|(n, _)| *n == name) {
        return Counter(cell);
    }
    // One leak per distinct counter name per process: bounded by the
    // (static) set of instrumentation points, and it buys `Copy` handles
    // with no Arc traffic on the increment path.
    let cell: &'static AtomicU64 = Box::leak(Box::new(AtomicU64::new(0)));
    reg.push((name, cell));
    Counter(cell)
}

/// Finds or registers a counter, caching the handle in a hidden
/// `OnceLock` so repeated executions of the same call site skip the
/// registry entirely.
///
/// ```
/// trrip_obs::counter!("demo.widgets").add(3);
/// ```
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static SLOT: std::sync::OnceLock<$crate::Counter> = std::sync::OnceLock::new();
        *SLOT.get_or_init(|| $crate::registry::counter($name))
    }};
}

/// A point-in-time copy of every registered counter, sorted by name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    values: Vec<(&'static str, u64)>,
}

impl CounterSnapshot {
    /// The value of `name` at snapshot time; 0 if it was not yet
    /// registered (a counter that did not exist had counted nothing).
    #[must_use]
    pub fn get(&self, name: &str) -> u64 {
        match self.values.binary_search_by(|(n, _)| (*n).cmp(name)) {
            Ok(i) => self.values[i].1,
            Err(_) => 0,
        }
    }

    /// Per-counter deltas since `earlier` (`self - earlier`), for
    /// bracketing a phase of work. Counters absent from `earlier` count
    /// from 0; deltas are clamped at 0 rather than wrapping, so a
    /// mis-ordered pair of snapshots cannot produce absurd values.
    #[must_use]
    pub fn since(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
        CounterSnapshot {
            values: self
                .values
                .iter()
                .map(|&(name, v)| (name, v.saturating_sub(earlier.get(name))))
                .collect(),
        }
    }

    /// Iterates `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.values.iter().copied()
    }

    /// True when no counters are registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// Captures the current value of every registered counter. Relaxed
/// per-counter loads: the snapshot is not an atomic cut across counters
/// (nothing in this workspace needs one), but each individual value is a
/// real value that counter held.
#[must_use]
pub fn snapshot() -> CounterSnapshot {
    let reg = REGISTRY.lock().expect("counter registry poisoned");
    let mut values: Vec<(&'static str, u64)> =
        reg.iter().map(|&(name, cell)| (name, cell.load(Ordering::Relaxed))).collect();
    values.sort_unstable_by_key(|&(name, _)| name);
    CounterSnapshot { values }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_shares_one_atomic() {
        let a = counter("test.registry.shared");
        let b = counter("test.registry.shared");
        let before = a.value();
        b.add(5);
        assert_eq!(a.value(), before + 5);
    }

    #[test]
    fn snapshot_since_clamps_and_defaults() {
        let c = counter("test.registry.delta");
        let before = snapshot();
        c.add(7);
        let after = snapshot();
        assert_eq!(after.since(&before).get("test.registry.delta"), 7);
        // Reversed order clamps to zero instead of wrapping.
        assert_eq!(before.since(&after).get("test.registry.delta"), 0);
        // Unknown names read as zero.
        assert_eq!(after.get("test.registry.never-registered"), 0);
    }

    #[test]
    fn macro_caches_a_working_handle() {
        let before = crate::counter!("test.registry.macro").value();
        for _ in 0..10 {
            crate::counter!("test.registry.macro").incr();
        }
        assert_eq!(counter("test.registry.macro").value(), before + 10);
    }
}
