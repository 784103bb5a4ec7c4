//! Shared harness code for the experiment binaries.
//!
//! Every table and figure of the paper is a [`Figure`] in [`figures`]
//! and a binary of the same name under `src/bin/`: a [`Plan`] of the
//! points it needs and a render of its [`Report`] from the [`Results`].
//! This library holds what they share: command-line parsing, the runner
//! that executes plans as one ([`regenerate`]), and report writing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;

use std::fmt;
use std::fs;
use std::path::PathBuf;

use trrip_core::ClassifierConfig;
use trrip_policies::PolicyKind;
use trrip_sim::{
    parallel_map_with, policy_cells, policy_sweep_with, simulate_rows, CheckpointStore,
    PreparedWorkload, SimConfig, SimResult, SweepResult,
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
they read only the training profile. Every binary prints its report and
one `claim <id> paper <value, >0 or <0> reproduced <value>` line per
claim of the paper it reproduces, and writes the same claims under
--out as claims.tsv: a header, then one tab-separated row per claim
(id, paper, reproduced, band or `none`, status). The status is
`out_of_band` when the value lies outside the claim's band, else `sign`
when the paper states only a sign and the value is not on its side of
zero, else `ok`.

all_experiments writes the twelve reports from the union of their
plans: each workload is prepared once and each stream walked once
(fig6_speedup, table3_mpki, fig9_cache_sensitivity and
fig8_hot_threshold's 99% pair share one sweep), under one telemetry
session named all_experiments. A figure that fails (nothing to plot, or
a report that cannot be written) is named on stderr after the others
have written theirs, and the run exits 1. Its last line is its wall
time and the host's core count.";

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

    /// Validates that `--checkpoint-dir`, `--obs-dir` and `--out` each
    /// exist as a directory or can be created (parents included), so an
    /// unusable one is refused before the experiment runs. Split from
    /// [`HarnessOptions::try_parse`] so parsing stays pure.
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

    /// Runs every workload under the machine of `config` with each of
    /// `policies` over the walker, warm-started from and populating
    /// `--checkpoint-dir` if one is given. Each workload's stream is
    /// walked and predicted once, for all cells, on at most `--jobs`
    /// simulating threads. Results are bit-identical with or without the
    /// store.
    #[must_use]
    pub fn sweep(
        &self,
        workloads: &[PreparedWorkload],
        config: &SimConfig,
        policies: &[PolicyKind],
    ) -> SweepResult {
        let checkpoints = self.checkpoint_dir.as_ref().map(CheckpointStore::new);
        let cells = policy_cells(config, policies);
        policy_sweep_with(self.jobs, workloads, &cells, checkpoints.as_ref())
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
    /// # Errors
    ///
    /// A message naming the file when it cannot be written.
    pub fn write_report(&self, name: &str, contents: &str) -> Result<(), String> {
        let path = self.write_out("report", name, contents)?;
        trrip_obs::progress!("report written to {}", path.display());
        Ok(())
    }

    /// Writes `name` under the output directory and returns its path; an
    /// error names it as `what`.
    fn write_out(&self, what: &str, name: &str, contents: &str) -> Result<PathBuf, String> {
        let path = self.out_dir.join(name);
        fs::create_dir_all(&self.out_dir)
            .and_then(|()| fs::write(&path, contents))
            .map_err(|e| format!("{what} {} cannot be written: {e}", path.display()))?;
        Ok(path)
    }

    /// Opens a telemetry session for one binary invocation: snapshots
    /// the counter registry now so [`ObsSession::finish`] reports only
    /// this run's deltas. Without `--metrics`, finishing it only closes
    /// the journal.
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
    /// Closes the journal, prints the telemetry summary (per-phase
    /// timings + counter deltas) and writes `obs_report.json` under
    /// `--out` plus the Chrome trace under `--obs-dir` (or `--out`).
    /// `extra` lands in the report as tool-specific top-level fields.
    ///
    /// # Errors
    ///
    /// A message naming the artifact that cannot be written or fails
    /// validation.
    pub fn finish(self, extra: &[(&str, f64)]) -> Result<(), String> {
        if let Some(stats) = trrip_obs::journal_close() {
            trrip_obs::progress_line(&format!(
                "journal: {} events ({} dropped) in {}",
                stats.events_written,
                stats.dropped,
                stats.path.display()
            ));
        }
        if !self.enabled {
            return Ok(());
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
        let report_path = self.out_dir.join("obs_report.json");
        fs::create_dir_all(&self.out_dir)
            .and_then(|()| report.write(&report_path))
            .map_err(|e| format!("obs report {} cannot be written: {e}", report_path.display()))?;
        trrip_obs::progress!("obs report written to {}", report_path.display());

        let trace_dir = self.obs_dir.as_deref().unwrap_or(&self.out_dir);
        let trace_path = trace_dir.join("obs_trace.json");
        fs::write(&trace_path, trrip_obs::chrome_trace_json())
            .map_err(|e| format!("chrome trace {} cannot be written: {e}", trace_path.display()))?;
        trrip_obs::progress!("chrome trace written to {}", trace_path.display());
        Ok(())
    }
}

/// A workload under one machine, whose training length and classifier
/// name the workload's preparation.
pub type Point = (WorkloadSpec, SimConfig);

/// What a figure needs computed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Plan {
    /// Workloads read without being simulated.
    pub prepare: Vec<Point>,
    /// Points simulated (and prepared).
    pub simulate: Vec<Point>,
}

impl Plan {
    /// Every spec under every cell, spec-major.
    #[must_use]
    pub(crate) fn grid(specs: &[WorkloadSpec], cells: &[SimConfig]) -> Plan {
        let points = specs.iter().flat_map(|s| cells.iter().map(|c| (s.clone(), c.clone())));
        Plan { prepare: Vec::new(), simulate: points.collect() }
    }

    /// The plan of a table that needs nothing computed.
    pub(crate) fn nothing(_: &HarnessOptions) -> Result<Plan, String> {
        Ok(Plan::default())
    }
}

/// The paper's side of a claim.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Paper {
    /// The number the paper reports.
    Value(f64),
    /// Above zero: the paper shows only the sign. An order between two
    /// numbers is the sign of their difference.
    Positive,
    /// Below zero.
    Negative,
}

impl fmt::Display for Paper {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Paper::Value(value) => fmt::Display::fmt(value, f),
            Paper::Positive => f.write_str(">0"),
            Paper::Negative => f.write_str("<0"),
        }
    }
}

/// Where a reproduced value must lie for the repo to hold the claim.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Band {
    /// Above the bound.
    Above(f64),
    /// At or above the bound.
    AtLeast(f64),
    /// Below the bound.
    Below(f64),
}

impl Band {
    /// Whether `value` lies inside the band.
    #[must_use]
    pub(crate) fn contains(self, value: f64) -> bool {
        match self {
            Band::Above(bound) => value > bound,
            Band::AtLeast(bound) => value >= bound,
            Band::Below(bound) => value < bound,
        }
    }
}

impl fmt::Display for Band {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Band::Above(bound) => write!(f, ">{bound}"),
            Band::AtLeast(bound) => write!(f, ">={bound}"),
            Band::Below(bound) => write!(f, "<{bound}"),
        }
    }
}

/// A claim as its figure declares it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Claim {
    /// Stable across runs and selections; one row of `claims.tsv`.
    pub id: &'static str,
    /// What the paper says.
    pub paper: Paper,
    /// Where the reproduced value must lie, if the repo holds it to a band.
    pub band: Option<Band>,
}

impl Claim {
    /// A claim of the paper with no band.
    pub(crate) const fn new(id: &'static str, paper: Paper) -> Claim {
        Claim { id, paper, band: None }
    }

    /// The claim held to `band`.
    pub(crate) const fn within(self, band: Band) -> Claim {
        Claim { band: Some(band), ..self }
    }
}

/// How a reproduced value stands against its claim, checked in this
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// The claim has a band and the value lies outside it.
    OutOfBand,
    /// The paper shows only a sign, and the value is not on its side of
    /// zero.
    Sign,
    /// Neither.
    Ok,
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Status::OutOfBand => "out_of_band",
            Status::Sign => "sign",
            Status::Ok => "ok",
        })
    }
}

/// One of the paper's claims beside this run's value.
#[derive(Debug, Clone, PartialEq)]
pub struct ClaimRow {
    /// The claim, as declared.
    pub claim: Claim,
    /// This run's value, over the selected benchmarks.
    pub reproduced: f64,
}

impl ClaimRow {
    /// How the value stands against the claim.
    #[must_use]
    pub fn status(&self) -> Status {
        let value = self.reproduced;
        let other_sign = match self.claim.paper {
            Paper::Value(_) => false,
            Paper::Positive => value <= 0.0,
            Paper::Negative => value >= 0.0,
        };
        if self.claim.band.is_some_and(|band| !band.contains(value)) {
            Status::OutOfBand
        } else if other_sign {
            Status::Sign
        } else {
            Status::Ok
        }
    }
}

/// The header line of `claims.tsv`.
pub const CLAIMS_TSV_HEADER: &str = "id\tpaper\treproduced\tband\tstatus";

/// `rows` as `claims.tsv`: [`CLAIMS_TSV_HEADER`], then one line per row,
/// its value written in full and a missing band as `none`.
#[must_use]
pub(crate) fn claims_tsv(rows: &[ClaimRow]) -> String {
    let mut tsv = format!("{CLAIMS_TSV_HEADER}\n");
    for row in rows {
        let Claim { id, paper, band } = row.claim;
        let band = band.map_or_else(|| "none".to_owned(), |b| b.to_string());
        tsv += &format!("{id}\t{paper}\t{:+}\t{band}\t{}\n", row.reproduced, row.status());
    }
    tsv
}

/// The claims `declared` beside `reproduced`, in the same order; `None`
/// leaves a claim out (the selection does not reach it).
pub(crate) fn claims(
    declared: &[Claim],
    reproduced: impl IntoIterator<Item = Option<f64>>,
) -> Vec<ClaimRow> {
    let values = declared.iter().zip(reproduced);
    values.filter_map(|(&claim, v)| Some(ClaimRow { claim, reproduced: v? })).collect()
}

/// A figure's output.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// The report, written to `<name>.txt` under `--out`.
    pub file: String,
    /// The paper's claims beside this run's values.
    pub claims: Vec<ClaimRow>,
}

/// A table or figure: what it needs run, and its report from the results.
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    /// The name of its binary and of its report.
    pub name: &'static str,
    /// Its points, or why the selection leaves it nothing to plot.
    pub plan: fn(&HarnessOptions) -> Result<Plan, String>,
    /// Its report, from results that hold its plan.
    pub render: fn(&Results) -> Report,
    /// Every claim it can make, in the order of its rows.
    pub claims: &'static [Claim],
}

/// `points` without duplicates (`==`), grouped by workload (spec,
/// training length, classifier) and stream (layout, run lengths,
/// profiler flags), in order of first appearance. A group of one runs as
/// a row of its own; a larger group is one workload's row of a sweep.
pub fn stream_groups<'p>(points: impl IntoIterator<Item = &'p Point>) -> Vec<Vec<&'p Point>> {
    let stream = |(s, c): &'p Point| {
        let lengths = (c.train_instructions, c.fast_forward, c.instructions);
        (s, lengths, c.classifier, c.layout, c.measure_reuse, c.track_costly)
    };
    let mut groups: Vec<Vec<&Point>> = Vec::new();
    for point in points {
        match groups.iter_mut().find(|g| stream(g[0]) == stream(point)) {
            Some(group) if group.contains(&point) => {}
            Some(group) => group.push(point),
            None => groups.push(vec![point]),
        }
    }
    groups
}

/// What a run computed, found by value: the workloads its plans
/// prepared and the points they simulated.
#[derive(Debug)]
pub struct Results {
    /// The command line the plans were made from.
    pub(crate) options: HarnessOptions,
    workloads: Vec<(u64, ClassifierConfig, PreparedWorkload)>,
    runs: Vec<(Point, SimResult)>,
}

impl Results {
    /// Runs `plans` as one. Each spec trains once per training length,
    /// under the first classifier asked for, and compiles from that
    /// profile for every other (Figure 8's thresholds). A
    /// [`stream_groups`] group of one is a row of [`simulate_rows`];
    /// larger groups with equal cells are one [`policy_sweep_with`].
    fn run<'p>(options: &HarnessOptions, plans: impl Iterator<Item = &'p Plan> + Clone) -> Results {
        let mut wanted: Vec<(&WorkloadSpec, u64, Vec<ClassifierConfig>)> = Vec::new();
        for (spec, c) in plans.clone().flat_map(|p| p.prepare.iter().chain(&p.simulate)) {
            match wanted.iter_mut().find(|(s, t, _)| *s == spec && *t == c.train_instructions) {
                Some((_, _, classifiers)) if classifiers.contains(&c.classifier) => {}
                Some((_, _, classifiers)) => classifiers.push(c.classifier),
                None => wanted.push((spec, c.train_instructions, vec![c.classifier])),
            }
        }
        if !wanted.is_empty() {
            let n: usize = wanted.iter().map(|(_, _, classifiers)| classifiers.len()).sum();
            trrip_obs::progress!("preparing {n} workloads…");
        }
        let store = options.checkpoint_dir.as_ref().map(CheckpointStore::new);
        let prepared = parallel_map_with(options.jobs, wanted.len(), |i| {
            let (spec, train, ref classifiers) = wanted[i];
            let trained =
                PreparedWorkload::prepare_with(spec, train, classifiers[0], store.as_ref());
            let compiled: Vec<_> = classifiers[1..].iter().map(|&c| trained.recompile(c)).collect();
            let workloads = std::iter::once(trained).chain(compiled);
            classifiers.iter().zip(workloads).map(|(&c, w)| (train, c, w)).collect::<Vec<_>>()
        });
        let workloads = prepared.into_iter().flatten().collect();
        let mut results = Results { options: options.clone(), workloads, runs: Vec::new() };
        let store = store.as_ref();

        let (rows, rest): (Vec<_>, Vec<_>) =
            stream_groups(plans.flat_map(|p| &p.simulate)).into_iter().partition(|g| g.len() == 1);
        let mut sweeps: Vec<(Vec<&WorkloadSpec>, Vec<SimConfig>)> = Vec::new();
        for group in rest {
            let cells: Vec<SimConfig> = group.iter().map(|(_, c)| c.clone()).collect();
            match sweeps.iter_mut().find(|(_, c)| *c == cells) {
                Some((specs, _)) => specs.push(&group[0].0),
                None => sweeps.push((vec![&group[0].0], cells)),
            }
        }
        let mut runs = Vec::new();
        for (specs, cells) in sweeps {
            let workloads: Vec<PreparedWorkload> =
                specs.iter().map(|s| results.workload(s, &cells[0]).clone()).collect();
            trrip_obs::progress!("sweeping {} cells over {} workloads…", cells.len(), specs.len());
            let sweep = policy_sweep_with(options.jobs, &workloads, &cells, store);
            let points = specs.iter().flat_map(|s| cells.iter().map(|c| ((*s).clone(), c.clone())));
            runs.extend(points.zip(sweep.results));
        }
        let rows: Vec<&Point> = rows.into_iter().flatten().collect();
        let simulated = simulate_rows(options.jobs, rows.len(), |i| {
            (results.workload(&rows[i].0, &rows[i].1), rows[i].1.clone())
        });
        runs.extend(rows.into_iter().cloned().zip(simulated));
        results.runs = runs;
        results
    }

    /// `spec` prepared under `config`'s training length and classifier
    /// (a panic if no plan asked for it).
    #[must_use]
    pub(crate) fn workload(&self, spec: &WorkloadSpec, config: &SimConfig) -> &PreparedWorkload {
        let key = (config.train_instructions, config.classifier);
        let found = self.workloads.iter().find(|(t, c, w)| (*t, *c) == key && w.spec == *spec);
        &found.unwrap_or_else(|| panic!("no plan prepared {}", spec.name)).2
    }

    /// The result of `spec` under `config` (a panic if no plan asked for it).
    #[must_use]
    pub(crate) fn get(&self, spec: &WorkloadSpec, config: &SimConfig) -> &SimResult {
        let found = self.runs.iter().find(|((s, c), _)| c == config && s == spec);
        &found.unwrap_or_else(|| panic!("no plan simulated {}", spec.name)).1
    }

    /// Speedups (%) of `cell` over `base`, one per spec, in order.
    #[must_use]
    pub(crate) fn speedups(
        &self,
        specs: &[WorkloadSpec],
        cell: &SimConfig,
        base: &SimConfig,
    ) -> Vec<f64> {
        specs.iter().map(|s| self.get(s, cell).speedup_vs(self.get(s, base))).collect()
    }
}

/// Runs `figures` as one plan, then prints each report with one `claim`
/// line per claim and writes it under `--out`, and last writes every
/// figure's claims, in figure order, to `claims.tsv` there. A figure whose plan fails (nothing to plot) or whose
/// report cannot be written is named in the result, and why on stderr;
/// the others still write theirs. A `claims.tsv` that cannot be written
/// is named too.
pub fn regenerate(options: &HarnessOptions, figures: &[Figure]) -> Vec<&'static str> {
    let mut failed = Vec::new();
    let mut fail = |name: &'static str, message: String| {
        eprintln!("error: {message}");
        failed.push(name);
    };
    let mut planned = Vec::new();
    for figure in figures {
        match (figure.plan)(options) {
            Ok(plan) => planned.push((figure, plan)),
            Err(message) => fail(figure.name, message),
        }
    }
    let results = Results::run(options, planned.iter().map(|(_, plan)| plan));
    let mut rows = Vec::new();
    for (figure, _) in planned {
        let report = (figure.render)(&results);
        println!("\n================ {} ================\n\n{}", figure.name, report.file);
        for ClaimRow { claim: Claim { id, paper, .. }, reproduced } in &report.claims {
            println!("claim {id} paper {paper} reproduced {reproduced:+.2}");
        }
        if let Err(message) = options.write_report(&format!("{}.txt", figure.name), &report.file) {
            fail(figure.name, message);
        }
        rows.extend(report.claims);
    }
    // Not a report: the journal's `report written to` events name the
    // figures' reports alone.
    match options.write_out("claims", "claims.tsv", &claims_tsv(&rows)) {
        Ok(path) => trrip_obs::progress!("claims written to {}", path.display()),
        Err(message) => fail("claims.tsv", message),
    }
    failed
}

/// The `main` of an experiment binary: parses the shared command line
/// and [`regenerate`]s `figure` inside a telemetry session named after
/// it, as [`USAGE`] promises of every binary. A plan that fails is a
/// command-line error (exit 2); a report, `claims.tsv` or telemetry
/// artifact that cannot be written exits 1.
pub fn run_experiment(figure: &Figure) {
    let options = HarnessOptions::from_args(std::env::args().skip(1), USAGE);
    if let Err(message) = (figure.plan)(&options) {
        eprintln!("error: {message}");
        std::process::exit(2);
    }
    let obs = options.obs_session(figure.name);
    let failed = regenerate(&options, std::slice::from_ref(figure));
    let finished = obs.finish(&[]);
    if let Err(message) = &finished {
        eprintln!("error: {message}");
    }
    std::process::exit(i32::from(!failed.is_empty() || finished.is_err()));
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

    fn options() -> HarnessOptions {
        HarnessOptions { jobs: 2, ..HarnessOptions::default() }
    }

    #[test]
    fn equal_points_in_two_plans_run_once() {
        let (spec, config) = tiny();
        let cells = policy_cells(&config, &[PolicyKind::Srrip, PolicyKind::Trrip1]);
        let plan = Plan::grid(std::slice::from_ref(&spec), &cells);
        // Equal, not the same: a copy of the plan, and one of its points.
        let again = Plan { prepare: vec![plan.simulate[1].clone()], ..plan.clone() };
        let groups = stream_groups(plan.simulate.iter().chain(&again.simulate));
        assert_eq!(groups.len(), 1, "one workload, one stream");
        assert_eq!(groups[0].len(), 2, "each point once");
        let results = Results::run(&options(), [&plan, &again].into_iter());
        assert_eq!(results.runs.len(), 2);
        assert_eq!(results.workloads.len(), 1);
        let workloads = options().prepare(std::slice::from_ref(&spec), &config, config.classifier);
        let sweep = options().sweep(&workloads, &config, &[PolicyKind::Srrip, PolicyKind::Trrip1]);
        for (cell, result) in cells.iter().zip(&sweep.results) {
            assert!(results.get(&spec, cell) == result, "what a sweep gives");
        }
    }

    #[test]
    fn cells_or_workloads_that_differ_are_swept_anew() {
        let (spec, config) = tiny();
        let specs = std::slice::from_ref(&spec);
        let first =
            Plan::grid(specs, &policy_cells(&config, &[PolicyKind::Srrip, PolicyKind::Trrip1]));
        // One policy differs.
        let lru = Plan::grid(specs, &policy_cells(&config, &[PolicyKind::Srrip, PolicyKind::Lru]));
        // The classifier differs: the same spec, recompiled.
        let hotter = ClassifierConfig { percentile_hot: 0.8 };
        let recompiled = Plan::grid(specs, &[SimConfig { classifier: hotter, ..config.clone() }]);
        let plans = [&first, &lru, &recompiled];
        let groups = stream_groups(plans.iter().flat_map(|p| &p.simulate));
        let sizes: Vec<usize> = groups.iter().map(Vec::len).collect();
        assert_eq!(sizes, [3, 1], "SRRIP, TRRIP-1 and LRU over one stream; the recompile apart");
        let results = Results::run(&options(), plans.into_iter());
        assert_eq!(results.runs.len(), 4);
        let lru_cell = config.clone().with_policy(PolicyKind::Lru);
        assert_eq!(results.get(&spec, &lru_cell).policy, PolicyKind::Lru);
        let hot = SimConfig { classifier: hotter, ..config.clone() };
        let trained = results.workload(&spec, &config);
        assert!(*results.workload(&spec, &hot) == trained.recompile(hotter));
        assert!(*results.workload(&spec, &hot) != *trained, "a different classification");
    }

    #[test]
    fn a_spec_prepared_twice_is_one_preparation() {
        let (spec, config) = tiny();
        let specs = std::slice::from_ref(&spec);
        let point = (spec.clone(), config.clone());
        let twice = Plan { prepare: vec![point.clone(), point.clone()], simulate: Vec::new() };
        let results = Results::run(&options(), [&twice, &twice].into_iter());
        assert_eq!(results.workloads.len(), 1, "the same workload, prepared once");
        let prepared = options().prepare(specs, &config, config.classifier);
        assert!(*results.workload(&spec, &config) == prepared[0]);
        // Another training length is another preparation, another
        // classifier a recompile of the one profile.
        let longer = SimConfig { train_instructions: 120_000, ..config.clone() };
        let hotter =
            SimConfig { classifier: ClassifierConfig { percentile_hot: 0.8 }, ..config.clone() };
        let prepare = vec![point, (spec.clone(), longer.clone()), (spec.clone(), hotter.clone())];
        let results =
            Results::run(&options(), [&Plan { prepare, simulate: Vec::new() }].into_iter());
        assert_eq!(results.workloads.len(), 3);
        for other in [&longer, &hotter] {
            assert!(*results.workload(&spec, other) != prepared[0]);
        }
        let longer_prepared = options().prepare(specs, &longer, longer.classifier);
        assert!(*results.workload(&spec, &longer) == longer_prepared[0]);
    }

    #[test]
    fn defaults_survive_empty_args() {
        let options = parse(&[]).expect("ok").expect("not help");
        assert_eq!(options.scale, 1);
        assert!(options.benchmarks.is_empty());
        assert!(options.checkpoint_dir.is_none());
        assert!(options.jobs >= 1, "default jobs must be usable");
    }

    #[test]
    fn a_claim_row_checks_its_band_before_its_sign() {
        let row = |paper, band, reproduced| ClaimRow {
            claim: Claim { id: "x", paper, band },
            reproduced,
        };
        assert_eq!(
            row(Paper::Positive, Some(Band::AtLeast(-1.0)), -2.0).status(),
            Status::OutOfBand
        );
        assert_eq!(row(Paper::Positive, Some(Band::AtLeast(-1.0)), -1.0).status(), Status::Sign);
        assert_eq!(row(Paper::Negative, Some(Band::Above(-60.0)), 0.5).status(), Status::Sign);
        assert_eq!(row(Paper::Value(3.9), Some(Band::Above(1.0)), 1.0).status(), Status::OutOfBand);
        assert_eq!(row(Paper::Value(3.9), None, -5.0).status(), Status::Ok);
        assert_eq!(row(Paper::Negative, Some(Band::Below(0.0)), -0.1).status(), Status::Ok);
        let tsv = claims_tsv(&[row(Paper::Positive, Some(Band::AtLeast(-1.0)), -0.25)]);
        assert_eq!(tsv, format!("{CLAIMS_TSV_HEADER}\nx\t>0\t-0.25\t>=-1\tsign\n"));
    }
}
