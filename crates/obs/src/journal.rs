//! The event journal: bounded, append-only JSONL of structured events.
//!
//! Where counters answer "how many" and spans answer "how long", the
//! journal answers "what happened, in what order": cell started, warm
//! start took the overlay rung, a checkpoint artifact was damaged and
//! the cell fell back cold. One JSON object per
//! line, written under `--obs-dir`, so a failed sweep can be replayed
//! from its journal without re-running anything.
//!
//! Ordering: the sequence number is allocated under the same mutex that
//! writes the line, so file order *is* seq order — globally, and
//! therefore per thread too. The journal is bounded (`max_events`);
//! past the cap events are counted as dropped and a final
//! `journal_truncated` summary line records the loss on [`close`].
//!
//! This module also owns the one consistent progress-line format that
//! replaces the scattered `eprintln!`s: [`progress_line`] mirrors a
//! human-readable `[trrip] …` line to stderr (unless `--quiet`) and a
//! `progress` event to the journal (when one is open).

use std::fs::File;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use crate::json;
use crate::span::{now_us, thread_id};

/// Fast-path gate: one relaxed load tells an instrumentation point that
/// no journal is open, without touching the mutex.
static ACTIVE: AtomicBool = AtomicBool::new(false);

/// Suppresses the stderr mirror of progress lines (`--quiet`). Journal
/// events are unaffected.
static QUIET: AtomicBool = AtomicBool::new(false);

static JOURNAL: Mutex<Option<JournalState>> = Mutex::new(None);

#[derive(Debug)]
struct JournalState {
    file: File,
    path: PathBuf,
    seq: u64,
    max_events: u64,
    dropped: u64,
}

/// One typed field value in a journal event.
#[derive(Debug, Clone, Copy)]
pub enum Field<'a> {
    /// A string value.
    Str(&'a str),
    /// An unsigned integer.
    U64(u64),
    /// A float (non-finite values serialize as `null`).
    F64(f64),
}

impl Field<'_> {
    fn write(self, out: &mut String) {
        match self {
            Field::Str(s) => json::write_str(out, s),
            Field::U64(v) => out.push_str(&v.to_string()),
            Field::F64(v) => json::write_f64(out, v),
        }
    }
}

/// What a closed journal wrote, as returned by [`close`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalStats {
    /// Events written to the file (excluding any truncation summary).
    pub events_written: u64,
    /// Events dropped after the bound was hit.
    pub dropped: u64,
    /// Where the journal lives.
    pub path: PathBuf,
}

/// Opens the process journal at `path` (truncating any previous file),
/// bounded to `max_events` lines. An already-open journal is closed
/// first.
///
/// # Errors
///
/// File creation failures.
pub fn init(path: &Path, max_events: u64) -> io::Result<()> {
    let file = File::create(path)?;
    let mut slot = JOURNAL.lock().expect("journal poisoned");
    *slot = Some(JournalState { file, path: path.to_path_buf(), seq: 0, max_events, dropped: 0 });
    ACTIVE.store(true, Ordering::Relaxed);
    Ok(())
}

/// Closes the journal, appending a `journal_truncated` summary line if
/// the bound dropped events. Returns `None` when no journal was open.
pub fn close() -> Option<JournalStats> {
    let mut slot = JOURNAL.lock().expect("journal poisoned");
    ACTIVE.store(false, Ordering::Relaxed);
    let mut state = slot.take()?;
    if state.dropped > 0 {
        let mut line = String::new();
        begin_line(&mut line, state.seq, "journal_truncated");
        line.push_str(",\"dropped\":");
        line.push_str(&state.dropped.to_string());
        line.push_str("}\n");
        let _ = state.file.write_all(line.as_bytes());
    }
    let _ = state.file.flush();
    Some(JournalStats { events_written: state.seq, dropped: state.dropped, path: state.path })
}

/// True when a journal is open (one relaxed load). Instrumentation
/// points with non-trivial field formatting check this first.
#[must_use]
pub fn journal_active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

fn begin_line(out: &mut String, seq: u64, kind: &str) {
    out.push_str("{\"seq\":");
    out.push_str(&seq.to_string());
    out.push_str(",\"ts_us\":");
    out.push_str(&now_us().to_string());
    out.push_str(",\"thread\":");
    out.push_str(&thread_id().to_string());
    out.push_str(",\"kind\":");
    json::write_str(out, kind);
}

/// Records one event. A no-op (one relaxed load) when no journal is
/// open. The line is built outside the lock; seq allocation and the
/// single `write` happen under it, so lines are never interleaved and
/// file order equals seq order.
pub fn event(kind: &str, fields: &[(&str, Field<'_>)]) {
    if !ACTIVE.load(Ordering::Relaxed) {
        return;
    }
    // Build everything but the seq prefix outside the lock.
    let mut tail = String::with_capacity(64);
    for (name, value) in fields {
        tail.push(',');
        json::write_str(&mut tail, name);
        tail.push(':');
        value.write(&mut tail);
    }
    tail.push_str("}\n");

    let mut slot = JOURNAL.lock().expect("journal poisoned");
    let Some(state) = slot.as_mut() else { return };
    if state.seq >= state.max_events {
        state.dropped += 1;
        return;
    }
    let mut line = String::with_capacity(48 + tail.len());
    begin_line(&mut line, state.seq, kind);
    line.push_str(&tail);
    if state.file.write_all(line.as_bytes()).is_ok() {
        state.seq += 1;
    } else {
        state.dropped += 1;
    }
}

/// Sets the `--quiet` flag: progress lines stop mirroring to stderr
/// (journal events continue).
pub fn set_quiet(on: bool) {
    QUIET.store(on, Ordering::Relaxed);
}

/// Whether stderr progress mirroring is suppressed.
#[must_use]
pub fn quiet() -> bool {
    QUIET.load(Ordering::Relaxed)
}

/// True when [`progress_line`] would do anything — lets call sites skip
/// building a message nobody will see.
#[must_use]
pub fn progress_needed() -> bool {
    !quiet() || journal_active()
}

/// Emits one progress message: `[trrip] {msg}` on stderr (unless
/// `--quiet`) and a `progress` journal event (when a journal is open).
/// The single replacement for ad-hoc `eprintln!` progress lines.
pub fn progress_line(msg: &str) {
    event("progress", &[("msg", Field::Str(msg))]);
    if !quiet() {
        eprintln!("[trrip] {msg}");
    }
}

/// Formats and emits a progress line via [`progress_line`], skipping
/// the formatting entirely when neither stderr nor a journal would see
/// it.
///
/// ```
/// trrip_obs::progress!("warmed {} of {} policies", 3, 8);
/// ```
#[macro_export]
macro_rules! progress {
    ($($arg:tt)*) => {
        if $crate::journal::progress_needed() {
            $crate::journal::progress_line(&format!($($arg)*));
        }
    };
}

/// Held by every in-crate test that opens the journal or emits an
/// event (`fault.rs`'s tests, which fire `fault_fired`, included — they
/// also share the process-global fault table): the journal is
/// process-global and `cargo test` runs tests on parallel threads, so an
/// event one test emits between another's `init` and `close` lands in
/// that test's journal and moves its counts.
#[cfg(test)]
pub(crate) fn test_serial() -> std::sync::MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("trrip-obs-journal-{name}-{}", std::process::id()))
    }

    #[test]
    fn events_are_valid_json_in_seq_order_and_bounded() {
        let _serial = test_serial();
        let path = tmp("order");
        init(&path, 5).expect("init journal");
        for i in 0..8u64 {
            event("unit", &[("i", Field::U64(i)), ("label", Field::Str("a\"b"))]);
        }
        let stats = close().expect("journal was open");
        assert_eq!(stats.events_written, 5);
        assert_eq!(stats.dropped, 3);

        let text = std::fs::read_to_string(&path).expect("read journal");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 6, "5 events + truncation summary");
        for (i, line) in lines.iter().enumerate().take(5) {
            let v = json::parse(line).expect("journal line parses");
            assert_eq!(v.get("seq").and_then(json::Json::as_u64), Some(i as u64));
            assert_eq!(v.get("kind").and_then(json::Json::as_str), Some("unit"));
            assert_eq!(v.get("i").and_then(json::Json::as_u64), Some(i as u64));
            assert_eq!(v.get("label").and_then(json::Json::as_str), Some("a\"b"));
        }
        let summary = json::parse(lines[5]).expect("summary parses");
        assert_eq!(summary.get("kind").and_then(json::Json::as_str), Some("journal_truncated"));
        assert_eq!(summary.get("dropped").and_then(json::Json::as_u64), Some(3));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn event_without_journal_is_a_noop() {
        let _serial = test_serial();
        event("ignored", &[("x", Field::U64(1))]);
    }
}
