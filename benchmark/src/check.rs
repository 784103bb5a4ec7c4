//! Correctness, counted as operations. One operation is one simulated
//! cell or one experiment binary; it fails when its digest differs from
//! the reference — the committed golden file where one applies, else the
//! first digest seen under the same key, which makes every repetition,
//! the populating pass and every warm pass agree with each other.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use crate::json::{self, Json};
use crate::spec;

#[derive(Debug, Default)]
pub struct Checker {
    reference: BTreeMap<String, u64>,
    /// With a golden file loaded, a key it does not list is a failure
    /// rather than a new reference.
    golden: bool,
    /// Digests seen per excluded report.
    excluded: BTreeMap<String, BTreeSet<u64>>,
    pub attempted: u64,
    pub failed: u64,
}

impl Checker {
    /// A checker whose reference is whatever it sees first.
    pub fn identity_only() -> Checker {
        Checker::default()
    }

    /// A checker whose reference is a committed golden file.
    pub fn with_golden(digests: BTreeMap<String, u64>) -> Checker {
        Checker { reference: digests, golden: true, ..Checker::default() }
    }

    /// Counts one operation and compares its digest.
    pub fn check(&mut self, key: &str, digest: u64) {
        if spec::EXCLUDED_REPORTS.iter().any(|(name, _)| *name == key) {
            self.attempted += 1;
            self.excluded.entry(key.to_owned()).or_default().insert(digest);
            return;
        }
        match self.reference.get(key) {
            Some(&expected) if expected == digest => self.attempted += 1,
            Some(&expected) => self.fail(&format!(
                "{key}: digest {digest:#018x}, expected {expected:#018x}{}",
                if self.golden { " (golden)" } else { " (first seen)" }
            )),
            None if self.golden => self.fail(&format!("{key}: not in the golden file")),
            None => {
                self.attempted += 1;
                self.reference.insert(key.to_owned(), digest);
            }
        }
    }

    /// Counts one failed operation and says why on stderr.
    pub fn fail(&mut self, why: &str) {
        self.attempted += 1;
        self.failed += 1;
        eprintln!("FAILED: {why}");
    }

    /// Excluded reports whose bytes differed between invocations.
    pub fn nondeterministic_reports(&self) -> usize {
        self.excluded.values().filter(|digests| digests.len() > 1).count()
    }

    pub fn reference(&self) -> &BTreeMap<String, u64> {
        &self.reference
    }
}

/// `benchmark/golden/<workload>.json`, relative to the repository root
/// the benchmark runs from.
pub fn golden_path(workload: &str) -> PathBuf {
    Path::new("benchmark/golden").join(format!("{workload}.json"))
}

/// The golden document for `digests`.
pub fn golden_document(workload: &str, digests: &BTreeMap<String, u64>) -> Json {
    Json::obj([
        ("workload", Json::str(workload)),
        ("seed", Json::Num(0.0)),
        (
            "digests",
            Json::obj(digests.iter().map(|(k, d)| (k.as_str(), Json::Str(format!("{d:#018x}"))))),
        ),
        (
            "excluded",
            Json::obj(spec::EXCLUDED_REPORTS.iter().map(|(name, why)| (*name, Json::str(why)))),
        ),
    ])
}

/// Reads the digests of a golden file.
///
/// # Errors
///
/// A message naming the file when it is missing or not what
/// [`golden_document`] writes.
pub fn load_golden(workload: &str) -> Result<BTreeMap<String, u64>, String> {
    let path = golden_path(workload);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_golden(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn parse_golden(text: &str) -> Result<BTreeMap<String, u64>, String> {
    let doc = json::parse(text)?;
    let digests = doc.get("digests").and_then(Json::as_obj).ok_or("no `digests` object")?;
    digests
        .iter()
        .map(|(key, value)| {
            let hex = value.as_str().and_then(|s| s.strip_prefix("0x"));
            let digest = hex.and_then(|h| u64::from_str_radix(h, 16).ok());
            digest.map(|d| (key.clone(), d)).ok_or(format!("digest of `{key}` is not 0x-hex"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_digest_becomes_the_reference() {
        let mut c = Checker::identity_only();
        c.check("gcc/SRRIP", 1);
        c.check("gcc/SRRIP", 1);
        assert_eq!((c.attempted, c.failed), (2, 0));
        c.check("gcc/SRRIP", 2);
        assert_eq!((c.attempted, c.failed), (3, 1));
    }

    #[test]
    fn golden_rejects_wrong_and_unknown_keys() {
        let mut c = Checker::with_golden(BTreeMap::from([("a".to_owned(), 5)]));
        c.check("a", 5);
        assert_eq!(c.failed, 0);
        c.check("a", 6);
        c.check("b", 5);
        assert_eq!((c.attempted, c.failed), (3, 2));
    }

    #[test]
    fn excluded_reports_are_counted_not_failed() {
        let mut c = Checker::with_golden(BTreeMap::new());
        let (name, _) = spec::EXCLUDED_REPORTS[0];
        c.check(name, 1);
        assert_eq!(c.nondeterministic_reports(), 0);
        c.check(name, 2);
        assert_eq!((c.attempted, c.failed, c.nondeterministic_reports()), (2, 0, 1));
    }

    #[test]
    fn golden_documents_round_trip_with_all_64_bits() {
        let digests = BTreeMap::from([
            ("gcc/TRRIP-1".to_owned(), u64::MAX - 1),
            ("table1_config.txt".to_owned(), 7),
        ]);
        let text = golden_document("sweep_walker", &digests).pretty();
        assert_eq!(parse_golden(&text), Ok(digests));
        assert!(parse_golden("{\"digests\": {\"a\": 12}}").is_err());
        assert!(parse_golden("{}").is_err());
    }
}
