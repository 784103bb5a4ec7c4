//! Phase spans: RAII monotonic-clock scopes.
//!
//! A span brackets one phase of work (`load`, `fast_forward`,
//! `measure`, one turn's `digest`…). Spans nest: each records its
//! *total* wall time and its *self* time (total minus time spent inside
//! child spans on the same thread), so a per-phase table attributes cost
//! without double counting. Every finished span is also appended to a
//! bounded in-memory buffer of Chrome trace events, exportable as JSON
//! that loads directly in `chrome://tracing` / Perfetto — that timeline
//! is how a `--jobs` run shows worker occupancy.
//!
//! Cost discipline: when disabled (the default), [`enter`] is one
//! relaxed atomic load returning `None` — no clock read, no allocation,
//! no lock. When enabled, the clock is read twice per span and the
//! aggregate mutex is taken once per span *exit*; spans are placed at
//! per-phase or per-turn granularity and never per instruction, so the
//! replay hot loop stays allocation-free either way.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::json;

/// The one-word gate on the span fast path.
static SPANS_ENABLED: AtomicBool = AtomicBool::new(false);

/// Caps the Chrome trace buffer: 256 Ki events ≈ 20 MB, hours of
/// per-turn spans. Beyond it events still aggregate into the phase
/// table but are dropped from the timeline, and the drop is counted.
const MAX_TRACE_EVENTS: usize = 256 * 1024;

/// Enables or disables span recording process-wide. Counters are always
/// on; spans are opt-in because they read the clock.
pub fn set_spans_enabled(on: bool) {
    SPANS_ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are currently recorded.
#[must_use]
pub fn spans_enabled() -> bool {
    SPANS_ENABLED.load(Ordering::Relaxed)
}

/// The process epoch all span timestamps are relative to: pinned on
/// first use so timestamps from every thread share one origin.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds since the process telemetry epoch (shared with span
/// timestamps, so journal events line up with the Chrome timeline).
pub(crate) fn now_us() -> u64 {
    u64::try_from(epoch().elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Small dense thread ids for trace rows (`std::thread::ThreadId` is
/// opaque and non-contiguous; Chrome renders one row per tid).
pub(crate) fn thread_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static ID: Cell<u64> = const { Cell::new(0) };
    }
    ID.with(|id| {
        if id.get() == 0 {
            id.set(NEXT.fetch_add(1, Ordering::Relaxed));
        }
        id.get()
    })
}

thread_local! {
    /// Per-thread stack of child-time accumulators: one `u64` of
    /// nanoseconds per live span on this thread. A finishing span pops
    /// its frame (its children's total) and adds its own elapsed time to
    /// the parent frame beneath it.
    static CHILD_NS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

#[derive(Debug)]
struct PhaseAgg {
    name: &'static str,
    count: u64,
    total_ns: u64,
    self_ns: u64,
}

#[derive(Debug)]
struct ChromeEvent {
    name: &'static str,
    tid: u64,
    start_us: u64,
    dur_us: u64,
}

#[derive(Debug, Default)]
struct SpanSink {
    aggs: Vec<PhaseAgg>,
    events: Vec<ChromeEvent>,
    dropped_events: u64,
}

static SINK: Mutex<SpanSink> =
    Mutex::new(SpanSink { aggs: Vec::new(), events: Vec::new(), dropped_events: 0 });

/// One phase's accumulated totals, as reported by [`phase_summary`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseStat {
    /// Span name.
    pub name: &'static str,
    /// Times the span was entered.
    pub count: u64,
    /// Summed wall time, nanoseconds.
    pub total_ns: u64,
    /// Summed wall time excluding nested child spans, nanoseconds.
    pub self_ns: u64,
}

/// A live span; records itself when dropped. Create via [`enter`] or
/// the [`span!`](crate::span!) macro, and drop it on the thread that
/// created it — the self-time bookkeeping is per-thread.
#[derive(Debug)]
pub struct SpanGuard {
    name: &'static str,
    start: Instant,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let elapsed_ns = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let child_ns = CHILD_NS.with(|stack| {
            let mut stack = stack.borrow_mut();
            let own = stack.pop().unwrap_or(0);
            if let Some(parent) = stack.last_mut() {
                *parent = parent.saturating_add(elapsed_ns);
            }
            own
        });
        let start_us = u64::try_from(self.start.saturating_duration_since(epoch()).as_micros())
            .unwrap_or(u64::MAX);

        let mut sink = SINK.lock().expect("span sink poisoned");
        match sink.aggs.iter_mut().find(|a| a.name == self.name) {
            Some(agg) => {
                agg.count += 1;
                agg.total_ns = agg.total_ns.saturating_add(elapsed_ns);
                agg.self_ns = agg.self_ns.saturating_add(elapsed_ns.saturating_sub(child_ns));
            }
            None => sink.aggs.push(PhaseAgg {
                name: self.name,
                count: 1,
                total_ns: elapsed_ns,
                self_ns: elapsed_ns.saturating_sub(child_ns),
            }),
        }
        if sink.events.len() < MAX_TRACE_EVENTS {
            sink.events.push(ChromeEvent {
                name: self.name,
                tid: thread_id(),
                start_us,
                dur_us: elapsed_ns / 1_000,
            });
        } else {
            sink.dropped_events += 1;
        }
    }
}

/// Starts a span named `name`, or returns `None` when spans are
/// disabled (one relaxed atomic load; nothing else happens).
#[must_use]
pub fn enter(name: &'static str) -> Option<SpanGuard> {
    if !SPANS_ENABLED.load(Ordering::Relaxed) {
        return None;
    }
    epoch(); // pin the origin no later than the first span
    CHILD_NS.with(|stack| stack.borrow_mut().push(0));
    Some(SpanGuard { name, start: Instant::now() })
}

/// Opens a span for the rest of the enclosing scope:
///
/// ```
/// let _span = trrip_obs::span!("decode");
/// ```
///
/// Bind it (`let _span = …`, not `let _ = …`) or the guard drops
/// immediately and times nothing.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::enter($name)
    };
}

/// Per-phase totals accumulated so far, sorted by descending total
/// time.
#[must_use]
pub fn phase_summary() -> Vec<PhaseStat> {
    let sink = SINK.lock().expect("span sink poisoned");
    let mut stats: Vec<PhaseStat> = sink
        .aggs
        .iter()
        .map(|a| PhaseStat {
            name: a.name,
            count: a.count,
            total_ns: a.total_ns,
            self_ns: a.self_ns,
        })
        .collect();
    stats.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(b.name)));
    stats
}

/// Total spans recorded so far (the denominator for overhead math).
#[must_use]
pub fn spans_recorded() -> u64 {
    let sink = SINK.lock().expect("span sink poisoned");
    sink.aggs.iter().map(|a| a.count).sum()
}

/// The phase summary as an aligned text table, ready for stderr.
#[must_use]
pub fn phase_table() -> String {
    let stats = phase_summary();
    if stats.is_empty() {
        return String::from("(no spans recorded)\n");
    }
    let name_w = stats.iter().map(|s| s.name.len()).max().unwrap_or(5).max("phase".len());
    let mut out = String::new();
    out.push_str(&format!(
        "{:<name_w$}  {:>10}  {:>12}  {:>12}  {:>8}\n",
        "phase", "count", "total", "self", "self%"
    ));
    let grand_total: u64 = stats.iter().map(|s| s.self_ns).sum();
    for s in &stats {
        let pct =
            if grand_total == 0 { 0.0 } else { 100.0 * s.self_ns as f64 / grand_total as f64 };
        out.push_str(&format!(
            "{:<name_w$}  {:>10}  {:>12}  {:>12}  {:>7.1}%\n",
            s.name,
            s.count,
            fmt_ns(s.total_ns),
            fmt_ns(s.self_ns),
            pct
        ));
    }
    out
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// The recorded timeline as Chrome trace-event JSON: an object with a
/// `traceEvents` array of complete (`"ph":"X"`) events, loadable in
/// `chrome://tracing` or Perfetto. Also notes how many events the
/// bounded buffer dropped, if any.
#[must_use]
pub fn chrome_trace_json() -> String {
    let sink = SINK.lock().expect("span sink poisoned");
    let mut out = String::with_capacity(64 + sink.events.len() * 96);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"droppedEventCount\":");
    out.push_str(&sink.dropped_events.to_string());
    out.push_str(",\"traceEvents\":[");
    for (i, ev) in sink.events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        json::write_str(&mut out, ev.name);
        out.push_str(",\"cat\":\"phase\",\"ph\":\"X\",\"pid\":1,\"tid\":");
        out.push_str(&ev.tid.to_string());
        out.push_str(",\"ts\":");
        out.push_str(&ev.start_us.to_string());
        out.push_str(",\"dur\":");
        out.push_str(&ev.dur_us.to_string());
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// Clears all recorded aggregates and trace events (the enabled flag is
/// untouched). For tests and for benches that bracket repeated runs.
pub fn reset_spans() {
    let mut sink = SINK.lock().expect("span sink poisoned");
    sink.aggs.clear();
    sink.events.clear();
    sink.dropped_events = 0;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Span tests share the process-global sink, so they run under one
    /// lock to avoid cross-talk (cargo runs tests threaded).
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_enter_returns_none() {
        let _guard = TEST_LOCK.lock().expect("test lock");
        set_spans_enabled(false);
        assert!(enter("never").is_none());
    }

    #[test]
    fn nesting_attributes_self_time() {
        let _guard = TEST_LOCK.lock().expect("test lock");
        set_spans_enabled(true);
        reset_spans();
        {
            let _outer = enter("outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = enter("inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        set_spans_enabled(false);
        let stats = phase_summary();
        let outer = stats.iter().find(|s| s.name == "outer").expect("outer recorded");
        let inner = stats.iter().find(|s| s.name == "inner").expect("inner recorded");
        assert!(outer.total_ns >= inner.total_ns, "outer contains inner");
        assert!(
            outer.self_ns <= outer.total_ns - inner.total_ns,
            "outer self time excludes inner: self={} total={} inner={}",
            outer.self_ns,
            outer.total_ns,
            inner.total_ns
        );
        assert_eq!(inner.self_ns, inner.total_ns, "leaf span is all self time");
        reset_spans();
    }

    #[test]
    fn chrome_export_parses_and_counts() {
        let _guard = TEST_LOCK.lock().expect("test lock");
        set_spans_enabled(true);
        reset_spans();
        for _ in 0..3 {
            let _s = enter("unit");
        }
        set_spans_enabled(false);
        let trace = chrome_trace_json();
        let parsed = json::parse(&trace).expect("chrome trace is valid JSON");
        let events = parsed.get("traceEvents").and_then(json::Json::as_arr).expect("traceEvents");
        assert_eq!(events.len(), 3);
        for ev in events {
            assert_eq!(ev.get("ph").and_then(json::Json::as_str), Some("X"));
            assert!(ev.get("ts").and_then(json::Json::as_u64).is_some());
            assert!(ev.get("dur").and_then(json::Json::as_u64).is_some());
        }
        assert_eq!(spans_recorded(), 3);
        reset_spans();
    }
}
