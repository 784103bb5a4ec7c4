//! `compare`: two results files against the benchmark's own bounds.
//! Each side is the sets of runs one `run --sets N` made; a metric's
//! value on a side is the median over its sets. One row per (workload,
//! end-to-end metric), each ratio beside its base, and a verdict:
//!
//! * `worse` — the median moved the wrong way by more than the bound;
//! * `unresolved` — it did not, but the runs of either side spread wider
//!   than the bound, so "unchanged" cannot be claimed (unless every new
//!   run beats every base run);
//! * `ok` — neither. With one set a side the spread is unknown and the
//!   verdict rests on the two values alone.

use crate::host::{median, range};
use crate::json::Json;
use crate::spec::{self, Better, Metric};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// A metric on one side: the median over the side's runs, and their
/// range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stat {
    pub value: f64,
    pub min: f64,
    pub max: f64,
}

impl Stat {
    /// From the values of one (workload, metric) across a side's sets;
    /// `None` if any set lacks it.
    fn across(sets: &[Json], workload: &str, metric: &str) -> Option<Stat> {
        let value_in = |set: &Json| {
            set.get(workload)?
                .get("end_to_end")?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        };
        let values: Vec<f64> = sets.iter().map(value_in).collect::<Option<_>>()?;
        if values.is_empty() {
            return None;
        }
        let (min, max) = range(&values);
        Some(Stat { value: median(&values), min, max })
    }

    fn spread(&self) -> f64 {
        (self.max - self.min) / self.value.abs()
    }
}

pub fn judge(better: Better, bound: f64, base: Stat, new: Stat) -> Verdict {
    let (worse_by, all_better) = match better {
        Better::Lower => ((new.value - base.value) / base.value.abs(), new.max < base.min),
        Better::Higher => ((base.value - new.value) / base.value.abs(), new.min > base.max),
    };
    if worse_by > bound {
        Verdict::Worse
    } else if base.spread().max(new.spread()) > bound && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// Operations failed per operation attempted, over every run of a side.
fn failure_rate(sets: &[Json]) -> f64 {
    let (mut attempted, mut failed) = (0.0, 0.0);
    for set in sets {
        for (_, workload) in set.as_obj().unwrap_or_default() {
            for (_, run) in workload.as_obj().unwrap_or_default() {
                attempted += run.get("ops_attempted").and_then(Json::as_f64).unwrap_or(0.0);
                failed += run.get("ops_failed").and_then(Json::as_f64).unwrap_or(0.0);
            }
        }
    }
    if attempted == 0.0 {
        0.0
    } else {
        failed / attempted
    }
}

/// Prints the comparison of two sides (each a list of sets, objects
/// keyed by workload, as `run` writes them into `results.json`) and
/// returns whether `new` is acceptable: no `worse` row and no higher
/// failure rate.
pub fn compare_sets(base: &[Json], new: &[Json]) -> bool {
    let metrics: Vec<Metric> = spec::end_to_end();
    let mut acceptable = true;
    println!(
        "{:<15} {:<13} {:>14} {:>14} {:>7}  {:<6} {:<5} verdict",
        "workload", "metric", "base", "new", "ratio", "unit", "bound"
    );
    for workload in spec::WORKLOADS {
        for metric in &metrics {
            let stat = |side| Stat::across(side, workload.name, &metric.name);
            let (Some(a), Some(b)) = (stat(base), stat(new)) else {
                println!("{:<15} {:<13} missing from one side", workload.name, metric.name);
                acceptable = false;
                continue;
            };
            let bound = metric.bound.expect("end-to-end metrics carry a bound");
            let verdict = judge(metric.better, bound, a, b);
            acceptable &= verdict != Verdict::Worse;
            println!(
                "{:<15} {:<13} {:>14.6} {:>14.6} {:>7.4}  {:<6} {:<5} {}",
                workload.name,
                metric.name,
                a.value,
                b.value,
                b.value / a.value,
                metric.unit,
                bound,
                verdict.as_str()
            );
        }
    }
    let (base_rate, new_rate) = (failure_rate(base), failure_rate(new));
    println!("ops_failed/ops_attempted: base {base_rate} new {new_rate}");
    acceptable && new_rate <= base_rate
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight(value: f64) -> Stat {
        Stat { value, min: value * 0.99, max: value * 1.01 }
    }

    #[test]
    fn direction_decides_which_way_is_worse() {
        assert_eq!(judge(Better::Lower, 0.10, tight(10.0), tight(11.5)), Verdict::Worse);
        assert_eq!(judge(Better::Lower, 0.10, tight(10.0), tight(8.0)), Verdict::Ok);
        assert_eq!(judge(Better::Higher, 0.10, tight(10.0), tight(8.0)), Verdict::Worse);
        assert_eq!(judge(Better::Higher, 0.10, tight(10.0), tight(11.5)), Verdict::Ok);
    }

    #[test]
    fn the_bound_is_a_share_of_the_base() {
        assert_eq!(judge(Better::Lower, 0.10, tight(10.0), tight(10.9)), Verdict::Ok);
        assert_eq!(judge(Better::Lower, 0.10, tight(10.0), tight(11.1)), Verdict::Worse);
        assert_eq!(judge(Better::Lower, 0.25, tight(10.0), tight(11.1)), Verdict::Ok);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_ok() {
        let noisy = Stat { value: 10.0, min: 9.0, max: 11.0 };
        assert_eq!(judge(Better::Lower, 0.10, noisy, tight(10.2)), Verdict::Unresolved);
        assert_eq!(judge(Better::Lower, 0.10, tight(10.0), noisy), Verdict::Unresolved);
        // ... unless every new sample reads better than every base one.
        assert_eq!(judge(Better::Lower, 0.10, noisy, tight(8.0)), Verdict::Ok);
        // A regression beyond the bound stays a regression.
        assert_eq!(judge(Better::Lower, 0.10, noisy, tight(12.0)), Verdict::Worse);
    }

    #[test]
    fn failure_rates_sum_over_runs() {
        let run = |attempted: f64, failed: f64| {
            Json::obj([("ops_attempted", Json::Num(attempted)), ("ops_failed", Json::Num(failed))])
        };
        let set = Json::obj([
            ("a", Json::obj([("end_to_end", run(30.0, 0.0)), ("per_layer", run(10.0, 1.0))])),
            ("b", Json::obj([("end_to_end", run(10.0, 0.0))])),
        ]);
        assert_eq!(failure_rate(&[set.clone(), set]), 0.02);
        assert_eq!(failure_rate(&[]), 0.0);
    }

    #[test]
    fn a_side_is_the_median_and_range_of_its_sets() {
        let set = |value: f64| {
            let metric = Json::obj([("value", Json::Num(value))]);
            let run = Json::obj([("metrics", Json::obj([("wall_s", metric)]))]);
            Json::obj([("w", Json::obj([("end_to_end", run)]))])
        };
        let side = [set(3.0), set(1.0), set(2.0)];
        assert_eq!(
            Stat::across(&side, "w", "wall_s"),
            Some(Stat { value: 2.0, min: 1.0, max: 3.0 })
        );
        assert_eq!(Stat::across(&side, "w", "cpu_s"), None);
        assert_eq!(Stat::across(&[], "w", "wall_s"), None);
    }
}
