//! Machine-readable run reports (`obs_report.json`).
//!
//! One schema-versioned JSON document per tool run, written next to the
//! BENCH_*.json trajectories: counter deltas for the run, per-phase
//! span totals, and any tool-specific fields (checkpoint store size,
//! sweep shape…). [`validate`] re-parses a report and checks its schema
//! version — the CI smoke runs it, and [`ObsReport::write`] runs it on
//! the bytes it just wrote so a malformed report fails the producing
//! run, not a consumer three steps later.

use std::io::{self, Write as _};
use std::path::Path;

use crate::json::{self, Json};
use crate::registry::CounterSnapshot;
use crate::span::{phase_summary, PhaseStat};

/// Version of the `obs_report.json` schema this crate writes. Bump on
/// any incompatible change; consumers (including [`validate`]) pin it.
pub const OBS_SCHEMA_VERSION: u32 = 1;

/// Builder for one report document.
#[derive(Debug)]
pub struct ObsReport {
    tool: String,
    counters: Option<CounterSnapshot>,
    phases: Option<Vec<PhaseStat>>,
    extra: Vec<(String, String)>,
}

impl ObsReport {
    /// Starts a report for `tool` (e.g. `"bench_memsys"`).
    #[must_use]
    pub fn new(tool: &str) -> ObsReport {
        ObsReport { tool: tool.to_owned(), counters: None, phases: None, extra: Vec::new() }
    }

    /// Attaches counter deltas (typically `snapshot().since(&baseline)`).
    #[must_use]
    pub fn counters(mut self, delta: &CounterSnapshot) -> ObsReport {
        self.counters = Some(delta.clone());
        self
    }

    /// Attaches the per-phase span totals accumulated so far.
    #[must_use]
    pub fn phases_from_spans(mut self) -> ObsReport {
        self.phases = Some(phase_summary());
        self
    }

    /// Adds a tool-specific top-level float field.
    #[must_use]
    pub fn field_f64(mut self, name: &str, value: f64) -> ObsReport {
        let mut out = String::new();
        json::write_f64(&mut out, value);
        self.extra.push((name.to_owned(), out));
        self
    }

    /// Serializes the report.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push_str("{\"schema_version\":");
        out.push_str(&OBS_SCHEMA_VERSION.to_string());
        out.push_str(",\"tool\":");
        json::write_str(&mut out, &self.tool);
        out.push_str(",\"counters\":{");
        if let Some(counters) = &self.counters {
            for (i, (name, value)) in counters.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json::write_str(&mut out, name);
                out.push(':');
                out.push_str(&value.to_string());
            }
        }
        out.push_str("},\"phases\":[");
        for (i, phase) in self.phases.iter().flatten().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            json::write_str(&mut out, phase.name);
            out.push_str(&format!(
                ",\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                phase.count, phase.total_ns, phase.self_ns
            ));
        }
        out.push(']');
        for (name, value) in &self.extra {
            out.push(',');
            json::write_str(&mut out, name);
            out.push(':');
            out.push_str(value);
        }
        out.push('}');
        out
    }

    /// Writes the report to `path`, then re-parses and [`validate`]s
    /// what it wrote.
    ///
    /// # Errors
    ///
    /// File I/O failures, or `InvalidData` if the serialized report
    /// fails validation (a bug in this crate, caught at the producer).
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let text = self.to_json();
        validate(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        let mut file = std::fs::File::create(path)?;
        file.write_all(text.as_bytes())?;
        file.write_all(b"\n")?;
        file.flush()
    }
}

/// Checks that `text` is a well-formed report at this crate's schema
/// version: valid JSON, `schema_version == OBS_SCHEMA_VERSION`, `tool`
/// a string, `counters` an object, `phases` an array of well-formed
/// phase entries.
///
/// # Errors
///
/// A human-readable description of the first problem found.
pub fn validate(text: &str) -> Result<(), String> {
    let doc = json::parse(text)?;
    let version =
        doc.get("schema_version").and_then(Json::as_u64).ok_or("missing schema_version")?;
    if version != u64::from(OBS_SCHEMA_VERSION) {
        return Err(format!("schema_version {version} != supported {OBS_SCHEMA_VERSION}"));
    }
    doc.get("tool").and_then(Json::as_str).ok_or("missing tool")?;
    match doc.get("counters") {
        Some(Json::Obj(counters)) => {
            for (name, value) in counters {
                value.as_u64().ok_or_else(|| format!("counter {name} is not a u64"))?;
            }
        }
        _ => return Err("missing counters object".to_owned()),
    }
    let phases = doc.get("phases").and_then(Json::as_arr).ok_or("missing phases array")?;
    for (i, phase) in phases.iter().enumerate() {
        for key in ["count", "total_ns", "self_ns"] {
            phase.get(key).and_then(Json::as_u64).ok_or_else(|| format!("phase {i}: bad {key}"))?;
        }
        phase.get("name").and_then(Json::as_str).ok_or_else(|| format!("phase {i}: bad name"))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{counter, snapshot};

    #[test]
    fn report_serializes_and_validates() {
        counter("test.report.widgets").add(4);
        let report = ObsReport::new("unit-test").counters(&snapshot()).field_f64("warm_s", 0.25);
        let text = report.to_json();
        validate(&text).expect("report validates");
        let doc = json::parse(&text).expect("parses");
        assert_eq!(doc.get("tool").and_then(Json::as_str), Some("unit-test"));
        assert_eq!(doc.get("warm_s").and_then(Json::as_f64), Some(0.25));
        assert!(
            doc.get("counters")
                .and_then(|c| c.get("test.report.widgets"))
                .and_then(Json::as_u64)
                .is_some_and(|v| v >= 4),
            "counter delta present"
        );
    }

    #[test]
    fn validate_rejects_wrong_version_and_shape() {
        assert!(validate("{}").is_err());
        assert!(validate(r#"{"schema_version":999,"tool":"x","counters":{},"phases":[]}"#).is_err());
        assert!(validate(r#"{"schema_version":1,"tool":"x","counters":{},"phases":[]}"#).is_ok());
        assert!(
            validate(r#"{"schema_version":1,"tool":"x","counters":{"a":-1},"phases":[]}"#).is_err()
        );
    }
}
