//! Deterministic fault injection: named fault points armed by
//! environment variable.
//!
//! Robustness code is only trustworthy if its failure paths actually
//! run, and "kill the sweep between a flush and its rename" is not
//! something a unit test can do by calling a function. This module
//! gives the workspace named **fault points** —
//! `fault!("ckpt.save.partial", &path)` at the seam the fault should
//! strike, with the artifact it guards —
//! that are inert by default (two relaxed atomic loads) and armed per
//! process through [`ENV_VAR`]:
//!
//! ```text
//! TRRIP_FAULTS="ckpt.save.partial=truncate:9@2"
//! ```
//!
//! Each armed point names an action and (optionally) the **hit** it
//! triggers on (`@n`, default 1) — every point keeps a deterministic
//! hit counter, so "die on the fifth save" reproduces exactly.
//! Actions:
//!
//! * `kill` — terminate the process immediately with exit code 137
//!   (the code a SIGKILLed process reports), flushing nothing: the
//!   closest a process can come to being killed at a chosen seam;
//! * `truncate:<bytes>` — chop the last `<bytes>` off the artifact the
//!   call site passes to [`fire_path`] (a torn write);
//! * `corrupt` — flip a byte in the middle of that artifact.
//!
//! Tests in the same process can [`arm`]/[`disarm`] directly instead of
//! going through the environment.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, Once};

use crate::journal::{event, Field};

/// The environment variable [`armed`] reads on first use.
pub const ENV_VAR: &str = "TRRIP_FAULTS";

/// Exit code of a `kill` action — what a SIGKILLed process reports.
pub const KILL_EXIT_CODE: i32 = 137;

/// What an armed fault point does when its trigger hit arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Terminate the process with [`KILL_EXIT_CODE`], immediately.
    Kill,
    /// Truncate the call site's artifact by this many trailing bytes.
    TruncateTail(u64),
    /// Flip a byte in the middle of the call site's artifact.
    Corrupt,
}

impl FaultAction {
    fn label(self) -> &'static str {
        match self {
            FaultAction::Kill => "kill",
            FaultAction::TruncateTail(_) => "truncate",
            FaultAction::Corrupt => "corrupt",
        }
    }
}

#[derive(Debug)]
struct FaultPoint {
    name: String,
    action: FaultAction,
    /// 1-based hit number the action triggers on.
    trigger_hit: u64,
    hits: AtomicU64,
}

/// Fast-path gate: false means no point is armed and [`fire_path`]
/// returns after one relaxed load.
static ARMED: AtomicBool = AtomicBool::new(false);
static INIT: Once = Once::new();
static POINTS: Mutex<Vec<FaultPoint>> = Mutex::new(Vec::new());

/// Parses one `point=action[@hit]` clause.
fn parse_clause(clause: &str) -> Result<FaultPoint, String> {
    let (name, rest) = clause
        .split_once('=')
        .ok_or_else(|| format!("fault clause `{clause}` is missing `=action`"))?;
    if name.is_empty() {
        return Err(format!("fault clause `{clause}` has an empty point name"));
    }
    let (action_text, hit_text) = match rest.split_once('@') {
        Some((a, h)) => (a, Some(h)),
        None => (rest, None),
    };
    let trigger_hit = match hit_text {
        None => 1,
        Some(h) => h
            .parse::<u64>()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| format!("fault hit `@{h}` must be a positive integer"))?,
    };
    let action = match action_text.split_once(':') {
        None if action_text == "kill" => FaultAction::Kill,
        None if action_text == "corrupt" => FaultAction::Corrupt,
        Some(("truncate", bytes)) => FaultAction::TruncateTail(
            bytes.parse().map_err(|_| format!("truncate wants a byte count, got `{bytes}`"))?,
        ),
        _ => {
            return Err(format!(
                "unknown fault action `{action_text}` (expected kill/truncate:<bytes>/corrupt)"
            ))
        }
    };
    Ok(FaultPoint { name: name.to_owned(), action, trigger_hit, hits: AtomicU64::new(0) })
}

/// Arms fault points from a spec string (see the module docs for the
/// syntax), replacing any previously armed set and resetting all hit
/// counters. Returns how many points were armed; an empty spec disarms.
///
/// # Errors
///
/// A human-readable message naming the malformed clause.
///
/// # Panics
///
/// Panics if the fault table mutex is poisoned.
pub fn arm(spec: &str) -> Result<usize, String> {
    let mut points = Vec::new();
    for clause in spec.split(';').map(str::trim).filter(|c| !c.is_empty()) {
        points.push(parse_clause(clause)?);
    }
    let n = points.len();
    let mut table = POINTS.lock().expect("fault table poisoned");
    *table = points;
    ARMED.store(n > 0, Ordering::Relaxed);
    Ok(n)
}

/// Disarms every fault point.
///
/// # Panics
///
/// Panics if the fault table mutex is poisoned.
pub fn disarm() {
    POINTS.lock().expect("fault table poisoned").clear();
    ARMED.store(false, Ordering::Relaxed);
}

/// Whether any fault point is armed. The first call reads [`ENV_VAR`];
/// after that this is the disabled fast path (a `Once` completion check
/// plus one relaxed load).
#[must_use]
pub fn armed() -> bool {
    INIT.call_once(|| {
        if let Ok(spec) = std::env::var(ENV_VAR) {
            if let Err(message) = arm(&spec) {
                eprintln!("[trrip] ignoring malformed {ENV_VAR}: {message}");
            }
        }
    });
    ARMED.load(Ordering::Relaxed)
}

/// Counts a hit on `name` and returns the action if this hit is the
/// trigger. Does not execute anything — [`fire_path`] does.
fn check(name: &str) -> Option<FaultAction> {
    if !armed() {
        return None;
    }
    let table = POINTS.lock().expect("fault table poisoned");
    let point = table.iter().find(|p| p.name == name)?;
    let hit = point.hits.fetch_add(1, Ordering::Relaxed) + 1;
    (hit == point.trigger_hit).then_some(point.action)
}

fn note_fired(name: &str, action: FaultAction) {
    crate::counter!("fault.fired").incr();
    event("fault_fired", &[("point", Field::Str(name)), ("action", Field::Str(action.label()))]);
}

/// A `kill`: writes the `fault_fired` journal event first (the event is
/// one unbuffered write), then exits.
fn kill(name: &str) -> ! {
    note_fired(name, FaultAction::Kill);
    std::process::exit(KILL_EXIT_CODE);
}

/// Hits the fault point `name` at a call site holding the artifact it
/// guards: `truncate`/`corrupt` mutate `path` in place (a torn or
/// damaged write), `kill` exits the process in place. Mutation
/// failures are swallowed — a fault point must never introduce a new
/// failure mode of its own.
pub fn fire_path(name: &str, path: &Path) {
    match check(name) {
        None => {}
        Some(FaultAction::Kill) => kill(name),
        Some(action @ FaultAction::TruncateTail(bytes)) => {
            note_fired(name, action);
            if let Ok(data) = std::fs::read(path) {
                let keep = data.len().saturating_sub(bytes as usize);
                let _ = std::fs::write(path, &data[..keep]);
            }
        }
        Some(action @ FaultAction::Corrupt) => {
            note_fired(name, action);
            if let Ok(mut data) = std::fs::read(path) {
                if !data.is_empty() {
                    let mid = data.len() / 2;
                    data[mid] ^= 0xFF;
                    let _ = std::fs::write(path, &data);
                }
            }
        }
    }
}

/// Hits a fault point: `fault!("name", &path)` at the call site holding
/// the artifact the point guards. Compiles to an [`armed`] check (the
/// disabled path) plus a call only when faults are armed.
#[macro_export]
macro_rules! fault {
    ($name:expr, $path:expr) => {
        if $crate::fault::armed() {
            $crate::fault::fire_path($name, $path);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::test_serial;

    #[test]
    fn parse_rejects_malformed_clauses_with_named_errors() {
        for (spec, needle) in [
            ("no-action", "missing"),
            ("=kill", "empty point name"),
            ("p=explode", "unknown fault action"),
            ("p=delay:5", "unknown fault action"),
            ("p=truncate:some", "byte count"),
            ("p=kill@0", "positive"),
            ("p=kill@later", "positive"),
        ] {
            let err = parse_clause(spec).unwrap_err();
            assert!(err.contains(needle), "error for `{spec}` should mention `{needle}`: {err}");
        }
    }

    #[test]
    fn nth_hit_triggers_exactly_once_and_deterministically() {
        let _serial = test_serial();
        assert_eq!(arm("unit.point=corrupt@3").expect("arm"), 1);
        assert_eq!(check("unit.point"), None, "hit 1 must not trigger");
        assert_eq!(check("unit.point"), None, "hit 2 must not trigger");
        assert_eq!(check("unit.point"), Some(FaultAction::Corrupt), "hit 3 triggers");
        assert_eq!(check("unit.point"), None, "hit 4 must not re-trigger");
        assert_eq!(check("unit.other"), None, "unarmed points never trigger");
        disarm();
        assert_eq!(check("unit.point"), None, "disarmed points never trigger");
    }

    #[test]
    fn truncate_and_corrupt_mutate_the_artifact() {
        let _serial = test_serial();
        let path =
            std::env::temp_dir().join(format!("trrip-obs-fault-artifact-{}", std::process::id()));
        std::fs::write(&path, b"0123456789").expect("fixture");

        arm("unit.torn=truncate:4").expect("arm");
        fire_path("unit.torn", &path);
        assert_eq!(std::fs::read(&path).unwrap(), b"012345", "4 trailing bytes chopped");
        // The trigger fired; a second hit leaves the file alone.
        fire_path("unit.torn", &path);
        assert_eq!(std::fs::read(&path).unwrap(), b"012345");

        arm("unit.flip=corrupt").expect("arm");
        fire_path("unit.flip", &path);
        let data = std::fs::read(&path).unwrap();
        assert_eq!(data[3], b'3' ^ 0xFF, "middle byte flipped");

        disarm();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn multi_clause_specs_arm_every_point() {
        let _serial = test_serial();
        let n = arm("a=kill; b=corrupt@2 ;; c=truncate:1").expect("arm");
        assert_eq!(n, 3);
        assert_eq!(arm("").expect("empty spec disarms"), 0);
        assert!(!ARMED.load(Ordering::Relaxed));
    }
}
