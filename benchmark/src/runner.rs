//! One run of one workload in this process: either the end-to-end
//! measurement (tracing off) or the traced run that yields the
//! per-layer numbers. Each workload gets a process of its own, so its
//! `VmHWM`, its `trrip-obs` counters and its scratch directory are clean.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use crate::check::{self, Checker};
use crate::host::{self, median};
use crate::json::Json;
use crate::meter::{Meter, Timing};
use crate::workloads::{self, Ctx, Part, Workload};
use crate::{layers, spec};

#[derive(Debug, Clone)]
pub struct RunOptions {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
}

/// Where things live, all derived from the running executable:
/// `<target>/benchmark/release/benchmark`.
#[derive(Debug, Clone)]
pub struct Layout {
    /// `<target>/benchmark`: the package's build directory, which also
    /// holds scratch (`work/`) and results (`results/`).
    pub package_dir: PathBuf,
    /// `<target>/release`: the root build's experiment binaries.
    pub bins_dir: PathBuf,
}

impl Layout {
    /// # Errors
    ///
    /// When the executable is not where `benchmark/run.sh` builds it, or
    /// the root build's binaries are not beside it.
    pub fn locate() -> Result<Layout, String> {
        let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
        let package_dir = exe
            .parent()
            .and_then(Path::parent)
            .filter(|dir| dir.file_name().is_some_and(|name| name == "benchmark"))
            .ok_or("not built by benchmark/run.sh (expected <target>/benchmark/release/benchmark)")?
            .to_owned();
        let bins_dir = package_dir.parent().expect("has a parent").join("release");
        for bin in spec::FIGURE_BINS {
            if !bins_dir.join(bin).is_file() {
                return Err(format!(
                    "{} is missing: run `cargo build --release` at the repository root \
                     (benchmark/run.sh does)",
                    bins_dir.join(bin).display()
                ));
            }
        }
        Ok(Layout { package_dir, bins_dir })
    }

    pub fn results_dir(&self) -> PathBuf {
        self.package_dir.join("results")
    }
}

#[derive(Debug, Clone)]
pub struct Measured {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// For the median of several timings, what it was taken from.
    pub behind: Option<Behind>,
}

#[derive(Debug, Clone)]
pub struct Behind {
    /// The repetitions (or set-ups), reference-host seconds.
    pub samples: Vec<f64>,
    /// Median wall seconds as the clock read them.
    pub raw_wall_s: f64,
    /// Median host slowdown against the reference host meanwhile.
    pub slowdown: f64,
}

#[derive(Debug)]
pub struct Report {
    pub options: RunOptions,
    pub host_cores: usize,
    pub jobs: usize,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Measured>,
    /// Digests by key, for `golden --write`.
    pub digests: BTreeMap<String, u64>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The line the driver reads: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let metrics = self.metrics.iter().map(|m| {
            let value = Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]);
            (m.name.as_str(), value)
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
        .compact()
    }

    /// Everything about the run, for `results.json` and `compare`.
    pub fn detail(&self) -> Json {
        let metrics = self.metrics.iter().map(|m| {
            let mut fields = vec![("value", Json::Num(m.value)), ("unit", Json::str(m.unit))];
            if let Some(behind) = &m.behind {
                let (min, max) = host::range(&behind.samples);
                fields.extend([
                    ("min", Json::Num(min)),
                    ("max", Json::Num(max)),
                    ("n", Json::Num(behind.samples.len() as f64)),
                    ("raw_wall_s", Json::Num(behind.raw_wall_s)),
                    ("host_slowdown", Json::Num(behind.slowdown)),
                ]);
            }
            (m.name.as_str(), Json::obj(fields))
        });
        Json::obj([
            ("workload", Json::str(&self.options.workload)),
            ("trace", Json::Bool(self.options.traced)),
            ("seed", Json::Num(self.options.seed as f64)),
            ("seconds", Json::Num(self.options.seconds)),
            ("smoke", Json::Bool(self.options.smoke)),
            ("host_cores", Json::Num(self.host_cores as f64)),
            ("jobs", Json::Num(self.jobs as f64)),
            ("ops_attempted", Json::Num(self.attempted as f64)),
            ("ops_failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }

    /// Every metric by name with its unit, for a person, on stderr.
    pub fn print(&self) {
        let o = &self.options;
        eprintln!(
            "== {} (seed {}, {}, host_cores {}, jobs {}{})",
            o.workload,
            o.seed,
            if o.traced { "traced run" } else { "tracing off" },
            self.host_cores,
            self.jobs,
            if o.smoke { ", smoke" } else { "" },
        );
        for m in &self.metrics {
            eprint!("{:<46} {:>16.6} {}", m.name, m.value, m.unit);
            if let Some(behind) = &m.behind {
                let (min, max) = host::range(&behind.samples);
                eprint!(
                    "   (median of {}, min {min:.6}, max {max:.6}; raw wall {:.6} s at host \
                     slowdown {:.3})",
                    behind.samples.len(),
                    behind.raw_wall_s,
                    behind.slowdown
                );
            }
            eprintln!();
        }
        if let (Some(d), Some(c), Some(b)) = (
            self.value_of("sim.measure_walker_ns_per_instr"),
            self.value_of("sim.measure_mem_ns_per_instr"),
            self.value_of("cpu.core_flat_ns_per_instr"),
        ) {
            let share = |part: f64| 100.0 * part / d;
            eprintln!(
                "budget of D = {d:.2} ns/instr: walker D-C = {:.2} ({:.1}%) + memsys C-B = {:.2} \
                 ({:.1}%) + core B = {b:.2} ({:.1}%) = {:.2}",
                d - c,
                share(d - c),
                c - b,
                share(c - b),
                share(b),
                (d - c) + (c - b) + b,
            );
        }
        eprintln!("ops_attempted {}  ops_failed {}", self.attempted, self.failed);
    }

    fn value_of(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// Runs `options.workload` once.
///
/// # Errors
///
/// An unknown workload, or a golden file that should apply but cannot
/// be read. Failed operations are not errors: they are counted.
pub fn run(layout: &Layout, options: &RunOptions, use_golden: bool) -> Result<Report, String> {
    let ctx = Ctx {
        seed: options.seed,
        smoke: options.smoke,
        jobs: host::jobs(),
        bins_dir: layout.bins_dir.clone(),
        work_dir: layout.package_dir.join("work").join(&options.workload),
    };
    let mut workload = workloads::by_name(&options.workload, ctx.clone()).ok_or_else(|| {
        let known: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{}` (known: {})", options.workload, known.join(", "))
    })?;
    // Golden digests were taken at seed 0 and full length; elsewhere the
    // identity checks (every repetition, cold ≡ warm) still apply.
    let golden_applies = use_golden && !options.smoke && (options.seed == 0 || !workload.seeded());
    let mut checker = if golden_applies {
        Checker::with_golden(check::load_golden(&options.workload)?)
    } else {
        Checker::identity_only()
    };
    let mut meter = Meter::new(ctx.jobs);
    let metrics = if options.traced {
        let metrics = traced(workload.as_mut(), &ctx, &mut checker, &mut meter);
        let trace_path = layout.results_dir().join(format!("trace.{}.json", options.workload));
        write_file(&trace_path, &meter.spans.chrome_trace().compact());
        metrics
    } else {
        end_to_end(workload.as_mut(), options, &mut checker, &mut meter)
    };
    let _ = fs::remove_dir_all(&ctx.work_dir);
    Ok(Report {
        options: options.clone(),
        host_cores: host::host_cores(),
        jobs: ctx.jobs,
        attempted: checker.attempted,
        failed: checker.failed,
        metrics,
        digests: checker.reference().clone(),
    })
}

pub fn write_file(path: &Path, contents: &str) {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    }
    fs::write(path, contents).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

fn peak_rss_mib(w: &dyn Workload) -> f64 {
    let own = host::vm_hwm_kib("self").expect("own VmHWM");
    own.max(w.peak_child_rss_kib()) as f64 / 1024.0
}

/// A set-up, under a span of its own so the trace shows what it caused.
fn setup_once(w: &mut dyn Workload, meter: &mut Meter, checker: &mut Checker) -> Timing {
    meter.span("setup", |meter| w.setup(meter, checker))
}

/// A repetition, under a span of its own.
fn rep_once(
    w: &mut dyn Workload,
    meter: &mut Meter,
    checker: &mut Checker,
    traced: bool,
) -> Vec<Part> {
    meter.span(if traced { "rep.traced" } else { "rep" }, |meter| w.rep(meter, checker, traced))
}

fn whole_rep(parts: &[Part]) -> Timing {
    parts.iter().map(|part| part.timing).sum()
}

/// The median of `field` over `timings`, with the samples behind it and
/// the raw seconds and host slowdown that went into them.
fn summary(name: &str, timings: &[Timing], field: impl Fn(&Timing) -> f64) -> Measured {
    let column =
        |field: &dyn Fn(&Timing) -> f64| -> Vec<f64> { timings.iter().map(field).collect() };
    let samples = column(&field);
    Measured {
        name: name.to_owned(),
        unit: "s",
        value: median(&samples),
        behind: Some(Behind {
            samples,
            raw_wall_s: median(&column(&|t| t.raw_wall_s)),
            slowdown: median(&column(&Timing::slowdown)),
        }),
    }
}

/// Tracing off. Set-up is timed `SETUPS` times from scratch (before
/// every repetition where a repetition consumes it); then repetitions
/// run back to back until `--seconds` of them have been measured.
fn end_to_end(
    w: &mut dyn Workload,
    options: &RunOptions,
    checker: &mut Checker,
    meter: &mut Meter,
) -> Vec<Measured> {
    let (setups, min_reps, seconds) =
        if options.smoke { (1, 1, 0.0) } else { (spec::SETUPS, spec::MIN_REPS, options.seconds) };
    let mut setup = Vec::new();
    if !w.setup_every_rep() {
        setup.extend((0..setups).map(|_| setup_once(w, meter, checker)));
    }
    let mut reps: Vec<Timing> = Vec::new();
    let mut measured_s = 0.0;
    while reps.len() < min_reps || measured_s < seconds {
        if w.setup_every_rep() {
            setup.push(setup_once(w, meter, checker));
        }
        let rep = whole_rep(&rep_once(w, meter, checker, false));
        measured_s += rep.raw_wall_s;
        reps.push(rep);
    }
    vec![
        summary("setup_s", &setup, |t| t.wall_s),
        summary("wall_s", &reps, |t| t.wall_s),
        summary("cpu_s", &reps, |t| t.cpu_s),
    ]
}

/// The traced run: set-up once, one repetition with tracing off and one
/// with the program's spans on — counters and stores read around the
/// second — then the layer budget.
fn traced(
    w: &mut dyn Workload,
    ctx: &Ctx,
    checker: &mut Checker,
    meter: &mut Meter,
) -> Vec<Measured> {
    let store_usage = |w: &dyn Workload| {
        w.store_dirs()
            .iter()
            .map(|d| host::dir_usage(d))
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
    };
    setup_once(w, meter, checker);
    let plain = whole_rep(&rep_once(w, meter, checker, false));
    if w.setup_every_rep() {
        setup_once(w, meter, checker);
    }
    let (files_before, _) = store_usage(w);
    let counters_before = trrip_obs::snapshot();
    let traced_parts = rep_once(w, meter, checker, true);
    let traced = whole_rep(&traced_parts);
    let counters = trrip_obs::snapshot().since(&counters_before);
    let (files_after, store_bytes) = store_usage(w);
    for counter in w.idle_counters() {
        match counters.get(counter) {
            0 => checker.attempted += 1,
            n => checker
                .fail(&format!("{counter} moved by {n} in a workload built to leave it idle")),
        }
    }

    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    values.insert("run.rep_wall_s".to_owned(), traced.wall_s);
    values.insert(
        "run.tracing_overhead_pct".to_owned(),
        100.0 * (traced.wall_s - plain.wall_s) / plain.wall_s,
    );
    values.insert("run.peak_rss_mib".to_owned(), peak_rss_mib(w));
    values.insert("host.slowdown".to_owned(), traced.slowdown());
    values.insert("run.store_bytes".to_owned(), store_bytes as f64);
    values.insert(
        "run.store_files_written".to_owned(),
        files_after.saturating_sub(files_before) as f64,
    );
    for counter in spec::RUN_COUNTERS {
        values.insert(format!("run.{counter}"), counters.get(counter) as f64);
    }
    // A counter nothing in this process has touched reads 0: the work ran
    // in other processes, the layer was idle, or the program no longer
    // has a counter of that name. Say which ones, so 0 is not mistaken
    // for "measured and idle".
    let absent: Vec<&str> = spec::RUN_COUNTERS
        .into_iter()
        .filter(|counter| !counters.iter().any(|(name, _)| name == *counter))
        .collect();
    if !absent.is_empty() {
        eprintln!("note: counters absent in this process, reported as 0: {}", absent.join(", "));
    }
    for part in traced_parts.iter().filter(|p| spec::FIGURE_BINS.contains(&p.name)) {
        values.insert(format!("bench.{}_s", part.name), part.timing.wall_s);
    }
    values.insert(
        "bench.nondeterministic_reports".to_owned(),
        checker.nondeterministic_reports() as f64,
    );

    let (budget, budget_checks) = meter.span("budget", |meter| layers::budget(ctx, meter));
    checker.attempted += budget_checks.attempted;
    checker.failed += budget_checks.failed;
    values.extend(budget);

    spec::per_layer()
        .into_iter()
        .map(|metric| {
            // A metric that does not apply to this workload (a figure
            // binary's time in a sweep) reads 0: the layer did nothing.
            let value = values.get(&metric.name).copied().unwrap_or(0.0);
            Measured { name: metric.name, unit: metric.unit, value, behind: None }
        })
        .collect()
}
