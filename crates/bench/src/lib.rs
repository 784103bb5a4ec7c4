//! Shared harness code for the experiment binaries.
//!
//! Every table and figure of the paper is a body in [`figures`] and a
//! binary of the same name under `src/bin/`; this library holds the
//! pieces they share: command-line scale parsing, workload preparation
//! with caching, the [`Session`] a regeneration runs its figures in, and
//! report writing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;

use std::cell::RefCell;
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use trrip_core::ClassifierConfig;
use trrip_policies::PolicyKind;
use trrip_sim::{
    policy_cells, policy_sweep_with, CheckpointStore, PreparedWorkload, SimConfig, SweepResult,
};
use trrip_workloads::WorkloadSpec;

/// The usage text every experiment binary shares.
pub const USAGE: &str = "\
usage: <experiment> [OPTIONS]

options:
  --scale N        multiply the default run lengths by N (default 1)
  --bench a,b      restrict to the named benchmarks (default: all)
  --out DIR        write reports under DIR (default: reports/)
  --checkpoint-dir DIR
                   keep each workload's training profile in DIR, so that
                   later runs compile from it instead of training again,
                   and the fast-forward boundary as two kinds of file —
                   one shared prefix per workload (the branch predictor,
                   one stream view per page size — its anonymous frames
                   and stride table — and the walker's position), one
                   overlay per cell (workload × swept machine) — and
                   restore from them on later sweeps, skipping warmup; a
                   file that is missing, damaged or of another format
                   version is trained or warmed up again and written
                   again
  --jobs N         cap worker threads for sweeps, one-cell rows and
                   preparation (default: available parallelism); a sweep,
                   with or without a store, simulates on exactly
                   min(N, cells) threads; one-cell rows run min(N, rows)
                   at a time, and where N >= 2 x rows each row's walker
                   runs ahead on a thread of its own
  --trace-dir DIR  accepted and ignored: every sweep walks its stream
  --shards N       accepted and ignored: a sweep runs every cell of a
                   workload over one stream
  --warm-prefix    accepted and ignored: every sweep over a
                   --checkpoint-dir shares one prefix per workload
  --metrics        enable phase spans and, on exit, print a telemetry
                   summary (per-phase timings + counter deltas) and
                   write a schema-versioned obs_report.json plus a
                   Chrome trace-event file under --out
  --obs-dir DIR    write the structured event journal (journal.jsonl)
                   and the Chrome trace under DIR; requires --metrics
  --quiet          suppress [trrip] progress lines on stderr (reports
                   and telemetry artifacts are still written)
  --help           print this message and exit

fig1_topdown_system, fig2_topdown_proxy, fig3_reuse_distance and
fig7_costly_coverage sweep nothing — each workload is a row of one cell
on the fused loop, --jobs rows at a time, its walker running ahead on a
spare core where --jobs leaves every row one — so of --checkpoint-dir
they read only the training profile.

all_experiments writes the twelve tables' and figures' reports in one
process: each workload is prepared once and each distinct sweep runs
once (table3_mpki reads fig6_speedup's), under one telemetry session
named all_experiments. A figure that fails is named on stderr after the
others have written their reports, and the run exits 1. Its last line
is its wall time and the host's core count.";

/// Cap on journal events per run; past it the journal records only the
/// dropped count (reported on close), so a runaway sweep cannot fill
/// the disk with telemetry.
const MAX_JOURNAL_EVENTS: u64 = 262_144;

/// Common options for experiment binaries.
#[derive(Debug, Clone)]
pub struct HarnessOptions {
    /// Multiplier on the default run lengths (`--scale N`).
    pub scale: u64,
    /// Restrict to the named benchmarks (`--bench a,b`). Empty = all.
    pub benchmarks: Vec<String>,
    /// Where reports are written (`--out DIR`, default `reports/`).
    pub out_dir: PathBuf,
    /// Warmed-state checkpoint directory (`--checkpoint-dir DIR`).
    pub checkpoint_dir: Option<PathBuf>,
    /// Worker-thread cap for sweeps and preparation (`--jobs N`,
    /// default: the machine's available parallelism).
    pub jobs: usize,
    /// Enable phase spans and telemetry artifacts (`--metrics`).
    pub metrics: bool,
    /// Event-journal / Chrome-trace directory (`--obs-dir DIR`).
    pub obs_dir: Option<PathBuf>,
    /// Suppress `[trrip]` progress lines on stderr (`--quiet`).
    pub quiet: bool,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        HarnessOptions {
            scale: 1,
            benchmarks: Vec::new(),
            out_dir: PathBuf::from("reports"),
            checkpoint_dir: None,
            jobs: trrip_sim::default_jobs(),
            metrics: false,
            obs_dir: None,
            quiet: false,
        }
    }
}

impl HarnessOptions {
    /// Parses the shared flags from `args`, the command line after the
    /// program's name, and applies them ([`HarnessOptions::validate_dirs`],
    /// [`HarnessOptions::apply_observability`]). On `--help` it prints
    /// `usage` and exits 0; on a malformed command line it prints the
    /// error plus `usage` to stderr and exits 2 — it does not panic.
    #[must_use]
    pub fn from_args(args: impl IntoIterator<Item = String>, usage: &str) -> HarnessOptions {
        let parsed = HarnessOptions::try_parse(args).and_then(|options| {
            let Some(options) = options else { return Ok(None) };
            options.validate_dirs()?;
            options.apply_observability()?;
            Ok(Some(options))
        });
        match parsed {
            Ok(Some(options)) => options,
            Ok(None) => {
                println!("{usage}");
                std::process::exit(0);
            }
            Err(message) => {
                eprintln!("error: {message}\n\n{usage}");
                std::process::exit(2);
            }
        }
    }

    /// Applies the telemetry flags to the process-global `trrip-obs`
    /// state: `--quiet` mutes progress lines, `--metrics` arms phase
    /// spans, `--obs-dir` opens the event journal. Split from
    /// [`HarnessOptions::from_args`] so tests can drive it directly.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the flag when the journal file
    /// cannot be opened.
    pub fn apply_observability(&self) -> Result<(), String> {
        trrip_obs::set_quiet(self.quiet);
        if self.metrics {
            trrip_obs::set_spans_enabled(true);
        }
        if let Some(dir) = &self.obs_dir {
            let path = dir.join("journal.jsonl");
            trrip_obs::journal_init(&path, MAX_JOURNAL_EVENTS).map_err(|e| {
                format!("--obs-dir journal {} cannot be opened: {e}", path.display())
            })?;
        }
        Ok(())
    }

    /// Validates that `--checkpoint-dir`, `--obs-dir` and `--out` point
    /// at usable directories: each must already exist as a
    /// directory or be creatable (parents included), so an unusable one
    /// is refused before the experiment runs, not when it goes to write
    /// its report. Split from [`HarnessOptions::try_parse`]
    /// so parsing stays pure; [`HarnessOptions::from_args`] applies it
    /// and rejects the command line with a clear message.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the flag and the problem.
    pub fn validate_dirs(&self) -> Result<(), String> {
        for (flag, dir) in [
            ("--checkpoint-dir", self.checkpoint_dir.as_ref()),
            ("--obs-dir", self.obs_dir.as_ref()),
            ("--out", Some(&self.out_dir)),
        ] {
            let Some(dir) = dir else { continue };
            if dir.exists() {
                if !dir.is_dir() {
                    return Err(format!("{flag} {} exists but is not a directory", dir.display()));
                }
            } else {
                fs::create_dir_all(dir)
                    .map_err(|e| format!("{flag} {} cannot be created: {e}", dir.display()))?;
            }
        }
        Ok(())
    }

    /// The testable core of [`HarnessOptions::from_args`]: `Ok(None)`
    /// means `--help` was requested.
    ///
    /// # Errors
    ///
    /// A human-readable message describing the malformed argument.
    pub fn try_parse<I>(args: I) -> Result<Option<HarnessOptions>, String>
    where
        I: IntoIterator<Item = String>,
    {
        let mut options = HarnessOptions::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let mut value_of =
                |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
            match arg.as_str() {
                "--help" | "-h" => return Ok(None),
                "--scale" => {
                    let v = value_of("--scale")?;
                    options.scale = v
                        .parse()
                        .map_err(|_| format!("--scale must be a positive integer, got `{v}`"))?;
                    if options.scale == 0 {
                        return Err("--scale must be at least 1".to_owned());
                    }
                }
                "--bench" => {
                    options.benchmarks =
                        value_of("--bench")?.split(',').map(str::to_owned).collect();
                    let known: Vec<String> =
                        trrip_workloads::proxy::all().into_iter().map(|s| s.name).collect();
                    if let Some(name) = options.benchmarks.iter().find(|n| !known.contains(n)) {
                        return Err(format!(
                            "--bench names an unknown benchmark `{name}` (known: {})",
                            known.join(", ")
                        ));
                    }
                }
                "--out" => options.out_dir = PathBuf::from(value_of("--out")?),
                "--checkpoint-dir" => {
                    options.checkpoint_dir = Some(PathBuf::from(value_of("--checkpoint-dir")?));
                }
                "--jobs" => {
                    let v = value_of("--jobs")?;
                    options.jobs = v
                        .parse()
                        .map_err(|_| format!("--jobs must be a positive integer, got `{v}`"))?;
                    if options.jobs == 0 {
                        return Err("--jobs must be at least 1".to_owned());
                    }
                }
                // Committed command lines pass these three; they select
                // nothing.
                "--trace-dir" => {
                    value_of("--trace-dir")?;
                }
                "--shards" => {
                    let v = value_of("--shards")?;
                    v.parse::<std::num::NonZeroUsize>()
                        .map_err(|_| format!("--shards must be a positive integer, got `{v}`"))?;
                }
                "--warm-prefix" => {}
                "--metrics" => options.metrics = true,
                "--obs-dir" => options.obs_dir = Some(PathBuf::from(value_of("--obs-dir")?)),
                "--quiet" => options.quiet = true,
                other => {
                    return Err(format!(
                        "unknown argument `{other}` (expected \
                         --scale/--bench/--out/--trace-dir/--checkpoint-dir/--jobs/--shards/\
                         --warm-prefix/--metrics/--obs-dir/--quiet)"
                    ))
                }
            }
        }
        if options.obs_dir.is_some() && !options.metrics {
            return Err("--obs-dir requires --metrics (the journal and Chrome trace are part \
                 of the telemetry layer the flag enables)"
                .to_owned());
        }
        Ok(Some(options))
    }

    /// Runs every workload under every cell — any configurations that
    /// share a stream and a frontend ([`trrip_sim::experiment`]) — over
    /// the walker, warm-started from and populating `--checkpoint-dir` if
    /// one is given. Each workload's stream is walked and predicted once,
    /// for all cells, on at most `--jobs` simulating threads. Results are
    /// bit-identical with or without the store.
    #[must_use]
    pub fn sweep_cells(&self, workloads: &[PreparedWorkload], cells: &[SimConfig]) -> SweepResult {
        let checkpoints = self.checkpoint_dir.as_ref().map(CheckpointStore::new);
        policy_sweep_with(self.jobs, workloads, cells, checkpoints.as_ref())
    }

    /// [`HarnessOptions::sweep_cells`] for the common case: the machine
    /// of `config` under each of `policies`.
    #[must_use]
    pub fn sweep(
        &self,
        workloads: &[PreparedWorkload],
        config: &SimConfig,
        policies: &[PolicyKind],
    ) -> SweepResult {
        self.sweep_cells(workloads, &policy_cells(config, policies))
    }

    /// Prepares workloads (training run + classification) under the
    /// `--jobs` worker cap. With `--checkpoint-dir`, each workload's
    /// training profile is loaded from there, or trained and saved there,
    /// and the workload is compiled from it
    /// ([`PreparedWorkload::prepare_with`]): the same workloads either way.
    #[must_use]
    pub fn prepare(
        &self,
        specs: &[WorkloadSpec],
        config: &SimConfig,
        classifier: ClassifierConfig,
    ) -> Vec<PreparedWorkload> {
        let checkpoints = self.checkpoint_dir.as_ref().map(CheckpointStore::new);
        trrip_sim::parallel_map_with(self.jobs, specs.len(), |i| {
            let train = config.train_instructions;
            PreparedWorkload::prepare_with(&specs[i], train, classifier, checkpoints.as_ref())
        })
    }

    /// The proxy benchmark specs selected by `--bench` (all by default),
    /// in the paper's order. [`HarnessOptions::try_parse`] has refused
    /// every name that is not a proxy's.
    #[must_use]
    pub fn selected_proxies(&self) -> Vec<WorkloadSpec> {
        let all = trrip_workloads::proxy::all();
        if self.benchmarks.is_empty() {
            return all;
        }
        all.into_iter().filter(|s| self.benchmarks.contains(&s.name)).collect()
    }

    /// The selected proxies among the benchmarks a figure plots.
    ///
    /// # Errors
    ///
    /// A message naming the plotted benchmarks when `--bench` leaves none
    /// of them: the figure fails rather than writing empty tables.
    pub fn selected_among(&self, plotted: &[&str]) -> Result<Vec<WorkloadSpec>, String> {
        let mut kept = self.selected_proxies();
        kept.retain(|s| plotted.contains(&s.name.as_str()));
        if kept.is_empty() {
            return Err(format!(
                "--bench selects none of the benchmarks this figure plots ({})",
                plotted.join(", ")
            ));
        }
        Ok(kept)
    }

    /// The paper config scaled by `--scale`.
    #[must_use]
    pub fn sim_config(&self, policy: PolicyKind) -> SimConfig {
        SimConfig::paper(policy).scaled(self.scale)
    }

    /// Writes a report file under the output directory and echoes the
    /// path to stderr (unless `--quiet`).
    ///
    /// # Panics
    ///
    /// Panics if the directory or file cannot be written.
    pub fn write_report(&self, name: &str, contents: &str) {
        fs::create_dir_all(&self.out_dir).expect("create report dir");
        let path = self.out_dir.join(name);
        fs::write(&path, contents).expect("write report");
        trrip_obs::progress!("report written to {}", path.display());
    }

    /// Opens a telemetry session for one binary invocation: snapshots
    /// the counter registry now so [`ObsSession::finish`] reports only
    /// this run's deltas. Cheap and safe to call unconditionally — a
    /// session without `--metrics` does nothing on finish beyond
    /// closing the journal.
    #[must_use]
    pub fn obs_session(&self, tool: &'static str) -> ObsSession {
        ObsSession {
            enabled: self.metrics,
            start: trrip_obs::snapshot(),
            tool,
            out_dir: self.out_dir.clone(),
            obs_dir: self.obs_dir.clone(),
        }
    }
}

/// One binary invocation's telemetry window: counter baseline at open,
/// summary + artifacts at [`ObsSession::finish`]. Created by
/// [`HarnessOptions::obs_session`].
#[derive(Debug)]
pub struct ObsSession {
    enabled: bool,
    start: trrip_obs::CounterSnapshot,
    tool: &'static str,
    out_dir: PathBuf,
    obs_dir: Option<PathBuf>,
}

impl ObsSession {
    /// Whether `--metrics` armed this session (spans are recording and
    /// finish will write telemetry artifacts).
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Closes the journal, prints the telemetry summary (per-phase
    /// timings + counter deltas) and writes `obs_report.json` under
    /// `--out` plus the Chrome trace under `--obs-dir` (or `--out`).
    /// `extra` lands in the report as tool-specific top-level fields.
    /// Returns the report path when `--metrics` was on.
    ///
    /// # Panics
    ///
    /// Panics if an artifact cannot be written or fails validation.
    pub fn finish(self, extra: &[(&str, f64)]) -> Option<PathBuf> {
        if let Some(stats) = trrip_obs::journal_close() {
            trrip_obs::progress_line(&format!(
                "journal: {} events ({} dropped) in {}",
                stats.events_written,
                stats.dropped,
                stats.path.display()
            ));
        }
        if !self.enabled {
            return None;
        }
        let delta = trrip_obs::snapshot().since(&self.start);
        if !trrip_obs::quiet() {
            eprintln!("{}", trrip_obs::phase_table());
            if !delta.is_empty() {
                eprintln!("counters (delta over this run):");
                for (name, value) in delta.iter() {
                    eprintln!("  {name:<28} {value}");
                }
            }
        }

        let mut report = trrip_obs::ObsReport::new(self.tool).counters(&delta).phases_from_spans();
        for (name, value) in extra {
            report = report.field_f64(name, *value);
        }
        fs::create_dir_all(&self.out_dir).expect("create out dir");
        let report_path = self.out_dir.join("obs_report.json");
        report.write(&report_path).expect("write obs report");
        trrip_obs::progress!("obs report written to {}", report_path.display());

        let trace_dir = self.obs_dir.as_deref().unwrap_or(&self.out_dir);
        let trace_path = trace_dir.join("obs_trace.json");
        fs::write(&trace_path, trrip_obs::chrome_trace_json()).expect("write chrome trace");
        trrip_obs::progress!("chrome trace written to {}", trace_path.display());
        Some(report_path)
    }
}

/// A figure's body: computes its report and writes it, or fails with
/// the reason the selection leaves it nothing to plot.
pub type Figure = fn(&Session) -> Result<(), String>;

/// Workloads prepared together: the training length and classifier they
/// were prepared under, and the workloads in the order they were asked for.
type KeptPreparation = (u64, ClassifierConfig, Arc<[PreparedWorkload]>);

/// A kept sweep: its workloads, its cells and what they gave.
type KeptSweep = (Arc<[PreparedWorkload]>, Vec<SimConfig>, Arc<SweepResult>);

/// One regeneration: the parsed command line, and every preparation and
/// sweep its figures have asked for so far, so that figures run in one
/// session prepare each workload once and run each distinct sweep once
/// (Table 3 reads Figure 6's). Both are found by value: an equal spec,
/// training length and classifier; equal workloads and equal cells.
/// Nothing is kept on disk or past the session.
#[derive(Debug)]
pub struct Session {
    /// The parsed command line.
    pub options: HarnessOptions,
    preparations: RefCell<Vec<KeptPreparation>>,
    sweeps: RefCell<Vec<KeptSweep>>,
}

impl Session {
    /// A session over `options`, holding nothing yet.
    #[must_use]
    pub fn new(options: HarnessOptions) -> Session {
        Session { options, preparations: RefCell::default(), sweeps: RefCell::default() }
    }

    /// `specs` prepared under `config`'s training length and `classifier`:
    /// the workloads this session holds for them, and
    /// [`HarnessOptions::prepare`] of the rest. The same specs asked for
    /// again are the same workloads, not a copy.
    #[must_use]
    pub fn prepare(
        &self,
        specs: &[WorkloadSpec],
        config: &SimConfig,
        classifier: ClassifierConfig,
    ) -> Arc<[PreparedWorkload]> {
        let train = config.train_instructions;
        let kept: Vec<Option<PreparedWorkload>> = {
            let memo = self.preparations.borrow();
            let groups: Vec<&Arc<[PreparedWorkload]>> = memo
                .iter()
                .filter(|(t, c, _)| *t == train && *c == classifier)
                .map(|(_, _, group)| group)
                .collect();
            if let Some(group) = groups.iter().find(|g| g.iter().map(|w| &w.spec).eq(specs)) {
                return Arc::clone(group);
            }
            let held = |spec: &WorkloadSpec| {
                groups.iter().flat_map(|g| g.iter()).find(|w| w.spec == *spec)
            };
            specs.iter().map(|spec| held(spec).cloned()).collect()
        };
        let missing: Vec<WorkloadSpec> =
            specs.iter().zip(&kept).filter(|(_, k)| k.is_none()).map(|(s, _)| s.clone()).collect();
        if !missing.is_empty() {
            trrip_obs::progress!("preparing {} workloads…", missing.len());
        }
        let mut fresh = self.options.prepare(&missing, config, classifier).into_iter();
        let group: Arc<[PreparedWorkload]> =
            kept.into_iter().map(|k| k.or_else(|| fresh.next()).expect("prepared")).collect();
        self.preparations.borrow_mut().push((train, classifier, Arc::clone(&group)));
        group
    }

    /// [`HarnessOptions::sweep_cells`], unless this session has run the
    /// same cells over the same workloads: then that result.
    #[must_use]
    pub fn sweep_cells(
        &self,
        workloads: &Arc<[PreparedWorkload]>,
        cells: &[SimConfig],
    ) -> Arc<SweepResult> {
        let kept = self.sweeps.borrow().iter().find_map(|(w, c, result)| {
            // One allocation is the common case, and spares comparing
            // whole programs.
            let same = c == cells && (Arc::ptr_eq(w, workloads) || w == workloads);
            same.then(|| Arc::clone(result))
        });
        if let Some(result) = kept {
            trrip_obs::progress!(
                "{} cells over {} workloads: swept earlier in this session",
                cells.len(),
                workloads.len()
            );
            return result;
        }
        trrip_obs::progress!("sweeping {} cells over {} workloads…", cells.len(), workloads.len());
        let result = Arc::new(self.options.sweep_cells(workloads, cells));
        self.sweeps.borrow_mut().push((Arc::clone(workloads), cells.to_vec(), Arc::clone(&result)));
        result
    }

    /// [`Session::sweep_cells`] for the machine of `config` under each of
    /// `policies`.
    #[must_use]
    pub fn sweep(
        &self,
        workloads: &Arc<[PreparedWorkload]>,
        config: &SimConfig,
        policies: &[PolicyKind],
    ) -> Arc<SweepResult> {
        self.sweep_cells(workloads, &policy_cells(config, policies))
    }
}

/// The `main` of an experiment binary: parses the shared command line,
/// runs `figure` in a session of its own inside a telemetry session named
/// `tool`, and closes the telemetry session — which, with `--metrics`,
/// prints the summary and writes `obs_report.json` and the Chrome trace,
/// as [`USAGE`] promises of every binary. A figure that fails is a
/// command-line error: its message goes to stderr and the process exits 2.
pub fn run_experiment(tool: &'static str, figure: Figure) {
    let session = Session::new(HarnessOptions::from_args(std::env::args().skip(1), USAGE));
    let obs = session.options.obs_session(tool);
    if let Err(message) = figure(&session) {
        eprintln!("error: {message}");
        std::process::exit(2);
    }
    obs.finish(&[]);
}

/// Appends a line to a report and to stdout at once.
pub fn emit(report: &mut String, line: &str) {
    println!("{line}");
    report.push_str(line);
    report.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Option<HarnessOptions>, String> {
        HarnessOptions::try_parse(args.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn parses_all_flags() {
        let options = parse(&[
            "--scale",
            "3",
            "--bench",
            "gcc,sqlite",
            "--out",
            "r",
            "--trace-dir",
            "traces",
            "--checkpoint-dir",
            "ckpts",
            "--jobs",
            "5",
            "--shards",
            "4",
        ])
        .expect("valid")
        .expect("not help");
        assert_eq!(options.scale, 3);
        assert_eq!(options.benchmarks, ["gcc", "sqlite"]);
        assert_eq!(options.out_dir, PathBuf::from("r"));
        assert_eq!(options.checkpoint_dir, Some(PathBuf::from("ckpts")));
        assert_eq!(options.jobs, 5);
    }

    #[test]
    fn shards_rejects_zero_and_non_numeric_and_names_its_flag() {
        for args in [&["--shards", "0"][..], &["--shards", "many"], &["--shards", "-3"]] {
            let err = parse(args).unwrap_err();
            assert!(err.contains("--shards"), "error must name the flag: {err}");
        }
        assert!(parse(&["--shards"]).unwrap_err().contains("--shards"));
    }

    #[test]
    fn every_validation_error_names_the_failing_flag() {
        for (args, flag) in [
            (&["--scale", "0"][..], "--scale"),
            (&["--scale", "x"], "--scale"),
            (&["--jobs", "0"], "--jobs"),
            (&["--jobs", "x"], "--jobs"),
            (&["--shards", "0"], "--shards"),
            (&["--bench"], "--bench"),
            (&["--out"], "--out"),
            (&["--trace-dir"], "--trace-dir"),
            (&["--checkpoint-dir"], "--checkpoint-dir"),
            (&["--obs-dir"], "--obs-dir"),
            (&["--obs-dir", "o"], "--metrics"),
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.contains(flag), "error for {args:?} must name {flag}: {err}");
        }
    }

    /// `sweep` picks its stores from the parsed options and nothing
    /// else, so a flag that leaves them as they were selects nothing.
    #[test]
    fn warm_prefix_parses_anywhere_and_changes_nothing() {
        for rest in [&[][..], &["--checkpoint-dir", "c"], &["--jobs", "3", "--checkpoint-dir", "c"]]
        {
            let without = parse(rest).expect("valid").expect("not help");
            for ignored in [&["--warm-prefix"][..], &["--shards", "4"], &["--trace-dir", "t"]] {
                for with in [[ignored, rest].concat(), [rest, ignored].concat()] {
                    let with = parse(&with).expect("valid").expect("not help");
                    assert_eq!(format!("{with:?}"), format!("{without:?}"), "{ignored:?} {rest:?}");
                }
            }
        }
        // --warm-prefix still takes no value, --shards and --trace-dir
        // still take one.
        assert!(parse(&["--warm-prefix", "yes"]).is_err());
        assert!(parse(&["--warm-prefix", "--shards"]).is_err());
        assert!(parse(&["--trace-dir"]).is_err());
    }

    #[test]
    fn dir_validation_accepts_existing_and_creatable_rejects_files() {
        let base = std::env::temp_dir().join("trrip-harness-dir-validation");
        std::fs::remove_dir_all(&base).ok();
        std::fs::create_dir_all(&base).expect("test scratch dir");

        // Existing directory: fine. Nested not-yet-existing: created.
        let existing = base.join("existing");
        std::fs::create_dir_all(&existing).expect("mkdir");
        let fresh = base.join("fresh/nested");
        // `--out` always names a directory; keep the default's `reports/`
        // out of the crate directory.
        let defaults = || HarnessOptions { out_dir: base.join("out"), ..HarnessOptions::default() };
        let options = HarnessOptions {
            checkpoint_dir: Some(fresh.clone()),
            obs_dir: Some(existing),
            ..defaults()
        };
        options.validate_dirs().expect("all three directories usable");
        assert!(fresh.is_dir(), "validation must create missing dirs");
        assert!(base.join("out").is_dir(), "--out is created like the others");

        // A plain file in any position is rejected, naming the flag.
        let file = base.join("file");
        std::fs::write(&file, b"not a dir").expect("write file");
        for (flag, options) in [
            ("--obs-dir", HarnessOptions { obs_dir: Some(file.clone()), ..defaults() }),
            (
                "--checkpoint-dir",
                HarnessOptions { checkpoint_dir: Some(file.clone()), ..defaults() },
            ),
            ("--out", HarnessOptions { out_dir: file.clone(), ..defaults() }),
        ] {
            let err = options.validate_dirs().unwrap_err();
            assert!(
                err.contains(flag) && err.contains("not a directory"),
                "unhelpful message for {flag}: {err}"
            );
        }

        // An uncreatable path (parent is a file) is rejected too.
        for (flag, uncreatable) in [
            (
                "--checkpoint-dir",
                HarnessOptions { checkpoint_dir: Some(file.join("child")), ..defaults() },
            ),
            ("--out", HarnessOptions { out_dir: file.join("sub"), ..defaults() }),
        ] {
            let err = uncreatable.validate_dirs().unwrap_err();
            assert!(
                err.contains(flag) && err.contains("cannot be created"),
                "unhelpful message for {flag}: {err}"
            );
        }
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn obs_flags_parse_and_obs_dir_requires_metrics() {
        let ok = parse(&["--metrics", "--obs-dir", "o", "--quiet"]).expect("valid").expect("set");
        assert!(ok.metrics && ok.quiet);
        assert_eq!(ok.obs_dir, Some(PathBuf::from("o")));
        // The journal is part of what --metrics enables: alone, the
        // error names both the flag and its requirement.
        let err = parse(&["--obs-dir", "o"]).unwrap_err();
        assert!(err.contains("--obs-dir") && err.contains("--metrics"), "{err}");
        // --metrics and --quiet stand alone.
        assert!(parse(&["--metrics"]).expect("ok").expect("set").metrics);
        assert!(parse(&["--quiet"]).expect("ok").expect("set").quiet);
        // Defaults: everything off.
        let defaults = parse(&[]).expect("ok").expect("set");
        assert!(!defaults.metrics && !defaults.quiet && defaults.obs_dir.is_none());
    }

    #[test]
    fn a_selection_outside_a_figures_benchmarks_is_an_error_naming_them() {
        let plotted = ["gcc", "sqlite"];
        let selecting = |names: &[&str]| HarnessOptions {
            benchmarks: names.iter().map(|n| (*n).to_owned()).collect(),
            ..HarnessOptions::default()
        };
        let kept = selecting(&["clang", "gcc"]).selected_among(&plotted).expect("gcc is plotted");
        assert_eq!(kept.iter().map(|s| s.name.as_str()).collect::<Vec<_>>(), ["gcc"]);
        let all = selecting(&[]).selected_among(&plotted).expect("all proxies include both");
        assert_eq!(all.iter().map(|s| s.name.as_str()).collect::<Vec<_>>(), ["gcc", "sqlite"]);
        let err = selecting(&["clang"]).selected_among(&plotted).unwrap_err();
        assert!(err.contains("--bench") && err.contains("gcc, sqlite"), "{err}");
    }

    #[test]
    fn an_unknown_benchmark_is_a_parse_error_naming_the_flag_and_the_known_names() {
        let err = parse(&["--bench", "gcc,bogus"]).unwrap_err();
        assert!(err.contains("--bench") && err.contains("`bogus`"), "{err}");
        for spec in trrip_workloads::proxy::all() {
            assert!(err.contains(&spec.name), "the error names {}: {err}", spec.name);
        }
        let known = parse(&["--bench", "clang,gcc"]).expect("valid").expect("not help");
        let names: Vec<String> = known.selected_proxies().into_iter().map(|s| s.name).collect();
        assert_eq!(names, ["clang", "gcc"]);
    }

    #[test]
    fn help_is_not_an_error() {
        assert!(parse(&["--help"]).expect("ok").is_none());
        assert!(parse(&["-h"]).expect("ok").is_none());
    }

    #[test]
    fn malformed_arguments_are_errors_not_panics() {
        assert!(parse(&["--scale"]).is_err());
        assert!(parse(&["--scale", "zero"]).is_err());
        assert!(parse(&["--scale", "0"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
        assert!(parse(&["--bench"]).is_err());
        assert!(parse(&["--jobs"]).is_err());
        assert!(parse(&["--jobs", "0"]).is_err());
        assert!(parse(&["--jobs", "many"]).is_err());
        assert!(parse(&["--jobs", "-2"]).is_err());
    }

    /// A small workload and a short run, so that a sweep takes well under
    /// a second.
    fn tiny() -> (WorkloadSpec, SimConfig) {
        let mut spec = WorkloadSpec::named("memo");
        spec.functions = 50;
        spec.hot_rotation = 8;
        let mut config = SimConfig::quick(PolicyKind::Srrip);
        config.train_instructions = 100_000;
        config.fast_forward = 10_000;
        config.instructions = 50_000;
        (spec, config)
    }

    fn session() -> Session {
        Session::new(HarnessOptions { jobs: 2, ..HarnessOptions::default() })
    }

    #[test]
    fn equal_sweeps_in_one_session_are_one_result() {
        let (spec, config) = tiny();
        let session = session();
        let workloads = session.prepare(std::slice::from_ref(&spec), &config, config.classifier);
        let cells = policy_cells(&config, &[PolicyKind::Srrip, PolicyKind::Trrip1]);
        let first = session.sweep_cells(&workloads, &cells);
        // Equal, not the same: copies of the workloads and the cells.
        let copies: Arc<[PreparedWorkload]> = workloads.iter().cloned().collect();
        let again = session.sweep_cells(&copies, &cells.clone());
        assert!(Arc::ptr_eq(&first, &again), "the second sweep is the first one's result");
        let by_policy =
            session.sweep(&workloads, &config, &[PolicyKind::Srrip, PolicyKind::Trrip1]);
        assert!(Arc::ptr_eq(&first, &by_policy), "the same cells named by their policies");
        assert!(*first == session.options.sweep_cells(&workloads, &cells), "what a sweep gives");
        assert_eq!(session.sweeps.borrow().len(), 1);
    }

    #[test]
    fn cells_or_workloads_that_differ_are_swept_anew() {
        let (spec, config) = tiny();
        let session = session();
        let workloads = session.prepare(std::slice::from_ref(&spec), &config, config.classifier);
        let first = session.sweep(&workloads, &config, &[PolicyKind::Srrip, PolicyKind::Trrip1]);
        // One policy differs.
        let lru = session.sweep(&workloads, &config, &[PolicyKind::Srrip, PolicyKind::Lru]);
        assert!(!Arc::ptr_eq(&first, &lru));
        assert_eq!(lru.cells[1].hierarchy.l2_policy, PolicyKind::Lru, "the cells asked for");
        // One field of the workloads differs: the same spec, recompiled.
        let hotter = ClassifierConfig { percentile_hot: 0.8, ..config.classifier };
        let recompiled: Arc<[PreparedWorkload]> =
            workloads.iter().map(|w| w.recompile(hotter)).collect();
        assert!(recompiled != workloads, "a different classification");
        let cells = policy_cells(&config, &[PolicyKind::Srrip, PolicyKind::Trrip1]);
        let other = session.sweep_cells(&recompiled, &cells);
        assert!(!Arc::ptr_eq(&first, &other));
        assert_eq!(session.sweeps.borrow().len(), 3);
    }

    #[test]
    fn a_spec_prepared_twice_is_one_preparation() {
        let (spec, config) = tiny();
        let session = session();
        let specs = std::slice::from_ref(&spec);
        let first = session.prepare(specs, &config, config.classifier);
        let again = session.prepare(specs, &config, config.classifier);
        assert!(Arc::ptr_eq(&first, &again), "the same workloads, not a copy");
        assert!(*first == *session.options.prepare(specs, &config, config.classifier));
        // Asked for twice in one call, it is still the one preparation.
        let twice = session.prepare(&[spec.clone(), spec.clone()], &config, config.classifier);
        assert!(twice.iter().all(|w| *w == first[0]));
        // Another training length or classifier is another preparation.
        let longer = SimConfig { train_instructions: 120_000, ..config.clone() };
        let hotter = ClassifierConfig { percentile_hot: 0.8, ..config.classifier };
        for other in [
            session.prepare(specs, &longer, config.classifier),
            session.prepare(specs, &config, hotter),
        ] {
            assert!(other[0] != first[0]);
        }
    }

    #[test]
    fn defaults_survive_empty_args() {
        let options = parse(&[]).expect("ok").expect("not help");
        assert_eq!(options.scale, 1);
        assert!(options.benchmarks.is_empty());
        assert!(options.checkpoint_dir.is_none());
        assert!(options.jobs >= 1, "default jobs must be usable");
    }
}
