//! The repository's benchmark. `benchmark/run.sh` builds the root
//! workspace and this package, then runs this program:
//!
//! ```text
//! --workload W --seed N --seconds S --trace 0|1 [--smoke]
//!         one run of one workload; the last line of stdout is the result
//! run [--sets N] [--seed N] [--seconds S] [--smoke]
//!         every workload, tracing off and traced, each in its own process
//! compare A.json B.json
//!         two results files against the benchmark's bounds
//! golden [--write]
//!         check (or rewrite) the committed golden digests
//! manifest
//!         print BENCHMARK.json as the code defines it
//! ```
//!
//! See `benchmark/README.md` for what is measured and why.

#![forbid(unsafe_code)]

mod check;
mod compare;
mod digest;
mod host;
mod json;
mod layers;
mod meter;
mod runner;
mod spans;
mod spec;
mod workloads;

use std::fs;
use std::process::{Command, ExitCode, Stdio};

use json::Json;
use runner::{Layout, RunOptions};

const USAGE: &str =
    "usage: benchmark/run.sh [--workload W --seed N --seconds S --trace 0|1 [--smoke]]
       benchmark/run.sh run [--sets N] [--seed N] [--seconds S] [--smoke]
       benchmark/run.sh compare A.json B.json
       benchmark/run.sh golden [--write]
       benchmark/run.sh manifest";

/// `--name value` pairs and bare `--flags` of one subcommand.
struct Flags {
    args: Vec<String>,
}

impl Flags {
    fn value<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        let Some(at) = self.args.iter().position(|a| a == name) else { return Ok(None) };
        if at + 1 >= self.args.len() {
            return Err(format!("{name} needs a value"));
        }
        let text = self.args.remove(at + 1);
        self.args.remove(at);
        text.parse().map(Some).map_err(|_| format!("{name}: cannot read `{text}`"))
    }

    fn flag(&mut self, name: &str) -> bool {
        let at = self.args.iter().position(|a| a == name);
        at.map(|at| self.args.remove(at)).is_some()
    }

    fn finish(self) -> Result<Vec<String>, String> {
        match self.args.iter().find(|a| a.starts_with("--")) {
            Some(unknown) => Err(format!("unknown option `{unknown}`")),
            None => Ok(self.args),
        }
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let command = match args.first() {
        Some(first) if !first.starts_with("--") => args.remove(0),
        Some(_) => "workload".to_owned(),
        None => "run".to_owned(),
    };
    let flags = Flags { args };
    let outcome = match command.as_str() {
        "workload" => one_workload(flags),
        "run" => run_all(flags),
        "compare" => compare_files(flags),
        "golden" => golden(flags),
        "manifest" => flags.finish().map(|_| {
            print!("{}", manifest().pretty());
            true
        }),
        other => Err(format!("unknown command `{other}`")),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("error: {message}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// The mode the driver calls: one workload, one process, one result line.
fn one_workload(mut flags: Flags) -> Result<bool, String> {
    let options = RunOptions {
        workload: flags.value("--workload")?.ok_or("--workload is required")?,
        seed: flags.value("--seed")?.unwrap_or(0),
        seconds: flags.value("--seconds")?.unwrap_or(spec::RUN_SECONDS as f64),
        traced: match flags.value::<u8>("--trace")?.unwrap_or(0) {
            0 => false,
            1 => true,
            other => return Err(format!("--trace is 0 or 1, not {other}")),
        },
        smoke: flags.flag("--smoke"),
    };
    flags.finish()?;
    let layout = Layout::locate()?;
    let report = runner::run(&layout, &options, true)?;
    report.print();
    let kind = if options.traced { "per_layer" } else { "end_to_end" };
    let detail_path = layout.results_dir().join(format!("{}.{kind}.json", options.workload));
    runner::write_file(&detail_path, &report.detail().pretty());
    println!("{}", report.result_line());
    Ok(report.correct())
}

/// Every workload, tracing off then traced, each in a fresh process;
/// prints every end-to-end metric by name and writes `results.json`.
fn run_all(mut flags: Flags) -> Result<bool, String> {
    let sets: usize = flags.value("--sets")?.unwrap_or(1);
    let seed: u64 = flags.value("--seed")?.unwrap_or(0);
    let seconds: f64 = flags.value("--seconds")?.unwrap_or(spec::RUN_SECONDS as f64);
    let smoke = flags.flag("--smoke");
    flags.finish()?;
    if sets == 0 {
        return Err("--sets must be at least 1".to_owned());
    }
    let layout = Layout::locate()?;
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut all_correct = true;
    let mut results = Vec::new();
    for _ in 0..sets {
        let mut set = Vec::new();
        for workload in spec::WORKLOADS {
            let mut runs = Vec::new();
            for (kind, trace) in [("end_to_end", "0"), ("per_layer", "1")] {
                let mut child = Command::new(&exe);
                child
                    .args(["--workload", workload.name, "--trace", trace])
                    .args(["--seed", &seed.to_string(), "--seconds", &seconds.to_string()])
                    .stdout(Stdio::null());
                if smoke {
                    child.arg("--smoke");
                }
                let status = child.status().map_err(|e| format!("cannot start a run: {e}"))?;
                all_correct &= status.success();
                let path = layout.results_dir().join(format!("{}.{kind}.json", workload.name));
                let text = fs::read_to_string(&path).map_err(|e| {
                    format!("{} ({kind}) left no {}: {e}", workload.name, path.display())
                })?;
                runs.push((kind, json::parse(&text)?));
            }
            set.push((workload.name, Json::obj(runs)));
        }
        results.push(Json::obj(set));
    }

    println!(
        "{:<15} {:<10} {:>12} {:<4} {:>12} {:>12} {:>3} {:>12} {:>9}",
        "workload", "metric", "median", "unit", "min", "max", "n", "raw_wall_s", "slowdown"
    );
    for (name, runs) in results[0].as_obj().expect("a set is an object") {
        let metrics = runs.get("end_to_end").and_then(|r| r.get("metrics")).and_then(Json::as_obj);
        for (metric, m) in metrics.expect("the run wrote its metrics") {
            let field = |key| m.get(key).and_then(Json::as_f64);
            let value = field("value").expect("a value");
            println!(
                "{name:<15} {metric:<10} {value:>12.6} {:<4} {:>12.6} {:>12.6} {:>3} {:>12.6} {:>9.3}",
                m.get("unit").and_then(Json::as_str).unwrap_or(""),
                field("min").unwrap_or(value),
                field("max").unwrap_or(value),
                field("n").unwrap_or(1.0),
                field("raw_wall_s").unwrap_or(f64::NAN),
                field("host_slowdown").unwrap_or(f64::NAN),
            );
        }
    }
    let acceptable = results.len() < 2 || {
        println!("\nthe later sets against set 0 of the same code:");
        compare::compare_sets(&results[..1], &results[1..])
    };
    let results_path = layout.results_dir().join("results.json");
    let document = Json::obj([
        ("host_cores", Json::Num(host::host_cores() as f64)),
        ("jobs", Json::Num(host::jobs() as f64)),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("smoke", Json::Bool(smoke)),
        ("claim", Json::Null),
        ("sets", Json::Arr(results)),
    ]);
    runner::write_file(&results_path, &document.pretty());
    println!("\nper-layer metrics, spans and all samples: {}", layout.results_dir().display());
    Ok(all_correct && acceptable)
}

fn compare_files(flags: Flags) -> Result<bool, String> {
    let paths = flags.finish()?;
    let [base, new] = paths.as_slice() else {
        return Err("compare takes two results files".to_owned());
    };
    let sets_of = |path: &String| -> Result<Vec<Json>, String> {
        let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let document = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let sets = document.get("sets").and_then(Json::as_arr);
        sets.map(<[Json]>::to_vec).ok_or(format!("{path}: no `sets`"))
    };
    Ok(compare::compare_sets(&sets_of(base)?, &sets_of(new)?))
}

/// Recomputes every workload's digests at seed 0 and compares them with
/// `benchmark/golden/`; `--write` replaces the files instead.
fn golden(mut flags: Flags) -> Result<bool, String> {
    let write = flags.flag("--write");
    flags.finish()?;
    let layout = Layout::locate()?;
    let mut agree = true;
    for workload in spec::WORKLOADS {
        let options = RunOptions {
            workload: workload.name.to_owned(),
            seed: 0,
            seconds: 0.0,
            traced: false,
            smoke: false,
        };
        let report = runner::run(&layout, &options, false)?;
        if !report.correct() {
            return Err(format!(
                "{}: repetitions disagree; no golden file from that",
                workload.name
            ));
        }
        let path = check::golden_path(workload.name);
        if write {
            let document = check::golden_document(workload.name, &report.digests);
            runner::write_file(&path, &document.pretty());
            eprintln!("wrote {}", path.display());
        } else if check::load_golden(workload.name).ok().as_ref() == Some(&report.digests) {
            eprintln!("{} agrees with this build", path.display());
        } else {
            agree = false;
            eprintln!(
                "{} differs from this build; `golden --write` replaces it (never done unasked)",
                path.display()
            );
        }
    }
    Ok(agree)
}

/// `BENCHMARK.json`, from the same tables the program measures by.
fn manifest() -> Json {
    let metric = |m: &spec::Metric| {
        let mut fields = vec![
            ("name", Json::str(&m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.as_str())),
        ];
        fields.extend(m.bound.map(|b| ("bound", Json::Num(b))));
        Json::obj(fields)
    };
    Json::obj([
        ("command", Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")])),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(spec::RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                spec::WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        ("end_to_end", Json::Arr(spec::end_to_end().iter().map(metric).collect())),
        ("per_layer", Json::Arr(spec::per_layer().iter().map(metric).collect())),
    ])
}
