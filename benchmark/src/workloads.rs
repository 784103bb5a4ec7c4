//! The four workloads. Two spawn the experiment binaries as a user
//! would; two call the sweep harness in-process. All four go through
//! seams the roadmap's refactors keep: the binaries' command line and
//! `HarnessOptions::{try_parse, prepare, sweep}`.

use std::fs::{self, File};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use trrip_bench::HarnessOptions;
use trrip_policies::PolicyKind;
use trrip_sim::{PreparedWorkload, SimConfig};
use trrip_workloads::WorkloadSpec;

use crate::check::Checker;
use crate::meter::{Meter, Timing};
use crate::{digest, host, spec};

/// What every workload is told.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// XOR-ed into each proxy's `eval_seed`; 0 leaves the calibrated
    /// specs as they are. The program only ever sees the resulting
    /// `WorkloadSpec`.
    pub seed: u64,
    /// One repetition at a tenth of the length, for a quick self-test.
    pub smoke: bool,
    pub jobs: usize,
    /// Where the root `cargo build --release` put the experiment binaries.
    pub bins_dir: PathBuf,
    /// Scratch for this workload, on the build directory's filesystem.
    /// Files written here sit in the page cache: real-disk behaviour is
    /// not what any metric claims.
    pub work_dir: PathBuf,
}

/// One separately timed piece of a repetition: an experiment binary, or
/// the one sweep call.
#[derive(Debug, Clone)]
pub struct Part {
    pub name: &'static str,
    pub timing: Timing,
}

pub trait Workload {
    /// Whether `--seed` changes this workload's inputs.
    fn seeded(&self) -> bool;

    /// Whether a repetition consumes what set-up made, so set-up runs
    /// (and is timed) before each one instead of up front.
    fn setup_every_rep(&self) -> bool;

    /// Everything from scratch up to the first repetition; returns what
    /// it cost.
    fn setup(&mut self, meter: &mut Meter, checker: &mut Checker) -> Timing;

    /// One closed-loop repetition: starts when the previous one ended.
    /// `traced` turns on the program's own spans. Returns the parts it
    /// ran, in the same order every time.
    fn rep(&mut self, meter: &mut Meter, checker: &mut Checker, traced: bool) -> Vec<Part>;

    /// The trace and checkpoint stores, if the workload has any.
    fn store_dirs(&self) -> Vec<PathBuf>;

    /// Highest `VmHWM` seen in a spawned process, KiB.
    fn peak_child_rss_kib(&self) -> u64;

    /// Counters that must not move during a repetition — the design of
    /// the workload stated as counts. Empty where the work happens in
    /// other processes, whose counters cannot be read from here.
    fn idle_counters(&self) -> &'static [&'static str];
}

pub fn by_name(name: &str, ctx: Ctx) -> Option<Box<dyn Workload>> {
    match name {
        spec::FIGURES_COLD => Some(Box::new(Figures::new(false, ctx))),
        spec::FIGURES_WARM => Some(Box::new(Figures::new(true, ctx))),
        spec::SWEEP_WALKER => Some(Box::new(Sweep::new(false, ctx))),
        spec::SWEEP_LONGWARM => Some(Box::new(Sweep::new(true, ctx))),
        _ => None,
    }
}

fn recreate(dir: &Path) {
    match fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            panic!("cannot clear {}: {e}", dir.display())
        }
        _ => {}
    }
    fs::create_dir_all(dir).unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
}

// ---------------------------------------------------------------- figures

/// The experiment binaries, spawned one by one with the command line
/// `all_experiments` would pass, over `--bench gcc`.
struct Figures {
    warm: bool,
    ctx: Ctx,
    peak_child_rss_kib: u64,
}

impl Figures {
    fn new(warm: bool, ctx: Ctx) -> Figures {
        Figures { warm, ctx, peak_child_rss_kib: 0 }
    }

    fn dir(&self, name: &str) -> PathBuf {
        self.ctx.work_dir.join(name)
    }

    /// Runs every binary once, in order; a binary is one operation and
    /// fails on a non-zero exit or a report that differs from the
    /// reference.
    fn pass(&mut self, meter: &mut Meter, checker: &mut Checker, traced: bool) -> Vec<Part> {
        let mut parts = Vec::new();
        for bin in spec::FIGURE_BINS {
            let report = format!("{bin}.txt");
            let report_path = self.dir("R").join(&report);
            // So that the report digested below is this invocation's.
            let _ = fs::remove_file(&report_path);
            let stderr_path = self.dir("stderr.txt");
            let mut command = Command::new(self.ctx.bins_dir.join(bin));
            command
                .args(["--bench", "gcc", "--warm-prefix", "--quiet"])
                .args(["--jobs", &self.ctx.jobs.to_string()])
                .arg("--trace-dir")
                .arg(self.dir("T"))
                .arg("--checkpoint-dir")
                .arg(self.dir("C"))
                .arg("--out")
                .arg(self.dir("R"))
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(File::create(&stderr_path).expect("create stderr file"));
            if traced {
                command.arg("--metrics");
            }
            let (outcome, timing) = meter.measure(&format!("bench.{bin}"), || run_child(command));
            parts.push(Part { name: bin, timing });
            match outcome {
                Ok(hwm_kib) => {
                    self.peak_child_rss_kib = self.peak_child_rss_kib.max(hwm_kib);
                    match fs::read(&report_path) {
                        Ok(bytes) => checker.check(&report, digest::of_bytes(&bytes)),
                        Err(e) => checker.fail(&format!("{bin} wrote no {report}: {e}")),
                    }
                }
                Err(why) => {
                    let stderr = fs::read_to_string(&stderr_path).unwrap_or_default();
                    checker.fail(&format!("{bin}: {why}\n{stderr}"));
                }
            }
        }
        parts
    }
}

/// Spawns `command`, waits for it, and returns the highest `VmHWM` a
/// poller saw while it ran. Once a child has exited its `status` file
/// has no memory lines left, so the peak is the last value read before
/// that — a lower bound that is exact unless the peak falls in the last
/// few milliseconds.
fn run_child(mut command: Command) -> Result<u64, String> {
    let mut child = command.spawn().map_err(|e| format!("cannot start: {e}"))?;
    let pid = child.id().to_string();
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let poller = scope.spawn(|| {
            let mut hwm_kib = 0;
            while !done.load(Ordering::Acquire) {
                hwm_kib = host::vm_hwm_kib(&pid).unwrap_or(hwm_kib);
                std::thread::park_timeout(Duration::from_millis(5));
            }
            hwm_kib
        });
        let status = child.wait();
        // Release pairs with the poller's Acquire; unpark ends its nap.
        done.store(true, Ordering::Release);
        poller.thread().unpark();
        let hwm_kib = poller.join().expect("poller thread");
        match status {
            Ok(status) if status.success() => Ok(hwm_kib),
            Ok(status) => Err(format!("exited with {status}")),
            Err(e) => Err(format!("wait failed: {e}")),
        }
    })
}

impl Workload for Figures {
    fn seeded(&self) -> bool {
        // The binaries' command line has no seed, and that command line
        // is the seam this workload is allowed to use.
        false
    }

    fn setup_every_rep(&self) -> bool {
        // The cold workload's stores are empty at the start of every
        // repetition; the warm one's are populated once.
        !self.warm
    }

    fn setup(&mut self, meter: &mut Meter, checker: &mut Checker) -> Timing {
        let ((), wipe) = meter.measure("setup.wipe", || {
            recreate(&self.ctx.work_dir);
            for dir in ["T", "C", "R"] {
                fs::create_dir(self.dir(dir)).expect("create a scratch directory");
            }
        });
        if self.warm {
            wipe + self.pass(meter, checker, false).iter().map(|part| part.timing).sum()
        } else {
            wipe
        }
    }

    fn rep(&mut self, meter: &mut Meter, checker: &mut Checker, traced: bool) -> Vec<Part> {
        self.pass(meter, checker, traced)
    }

    fn store_dirs(&self) -> Vec<PathBuf> {
        vec![self.dir("T"), self.dir("C")]
    }

    fn peak_child_rss_kib(&self) -> u64 {
        self.peak_child_rss_kib
    }

    fn idle_counters(&self) -> &'static [&'static str] {
        &[]
    }
}

// ------------------------------------------------------------------ sweeps

/// Proxies the in-process sweeps run, one sweep call each: two programs
/// of different footprint, each call a second or so, so that a run
/// holds many separately calibrated samples.
const SWEEP_PROXIES: [&str; 2] = ["gcc", "sqlite"];

/// The proxy `name` with `seed` folded into its evaluation input.
pub fn seeded_proxy(name: &str, seed: u64) -> WorkloadSpec {
    let mut spec = trrip_workloads::proxy::by_name(name).expect("a proxy the repository defines");
    spec.eval_seed ^= seed;
    spec
}

/// `SimConfig::paper` re-proportioned as the paper's Table 2 is: the
/// skipped prefix far longer than the measured window.
pub fn longwarm_config(policy: PolicyKind, smoke: bool) -> SimConfig {
    let mut config = SimConfig::paper(policy);
    config.fast_forward = 2_400_000;
    config.instructions = 600_000;
    shorten(config, smoke)
}

pub fn shorten(mut config: SimConfig, smoke: bool) -> SimConfig {
    if smoke {
        config.fast_forward /= 10;
        config.instructions /= 10;
    }
    config
}

/// `HarnessOptions` as the command line `flags` would produce them.
pub fn harness_options(jobs: usize, flags: &[&str]) -> HarnessOptions {
    let jobs = jobs.to_string();
    let args = ["--jobs", &jobs, "--quiet"].into_iter().chain(flags.iter().copied());
    HarnessOptions::try_parse(args.map(str::to_owned))
        .expect("the benchmark's own flags parse")
        .expect("no --help among them")
}

/// The flags that attach the trace and checkpoint stores under `dir`.
pub fn store_flags(dir: &Path) -> [String; 5] {
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    [
        "--trace-dir".to_owned(),
        path("T"),
        "--checkpoint-dir".to_owned(),
        path("C"),
        "--warm-prefix".to_owned(),
    ]
}

/// fig6's sweep — every proxy under the nine policies of the paper —
/// either with no stores (walker, core and memory system do the work)
/// or long-warm over populated stores (restore and decode do).
struct Sweep {
    longwarm: bool,
    ctx: Ctx,
    config: SimConfig,
    options: Option<HarnessOptions>,
    prepared: Vec<PreparedWorkload>,
}

impl Sweep {
    fn new(longwarm: bool, ctx: Ctx) -> Sweep {
        let config = if longwarm {
            longwarm_config(PolicyKind::Srrip, ctx.smoke)
        } else {
            shorten(SimConfig::paper(PolicyKind::Srrip), ctx.smoke)
        };
        Sweep { longwarm, ctx, config, options: None, prepared: Vec::new() }
    }

    /// One sweep over `workloads`; a cell is one operation, checked by
    /// digest.
    fn sweep(&self, workloads: &[PreparedWorkload], checker: &mut Checker) {
        let options = self.options.as_ref().expect("set-up ran");
        let result = options.sweep(workloads, &self.config, &PolicyKind::PAPER_SET);
        for cell in &result.results {
            checker.check(&format!("{}/{}", cell.benchmark, cell.policy), digest::of_cell(cell));
        }
    }

    fn prepare(&mut self) {
        recreate(&self.ctx.work_dir);
        let flags = if self.longwarm { store_flags(&self.ctx.work_dir).to_vec() } else { vec![] };
        for dir in self.store_dirs() {
            fs::create_dir(dir).expect("create a store directory");
        }
        let flags: Vec<&str> = flags.iter().map(String::as_str).collect();
        let options = harness_options(self.ctx.jobs, &flags);
        let proxies: &[&str] = if self.ctx.smoke { &SWEEP_PROXIES[..1] } else { &SWEEP_PROXIES };
        let specs: Vec<WorkloadSpec> =
            proxies.iter().map(|name| seeded_proxy(name, self.ctx.seed)).collect();
        self.prepared = options.prepare(&specs, &self.config, self.config.classifier);
        self.options = Some(options);
    }
}

impl Workload for Sweep {
    fn seeded(&self) -> bool {
        true
    }

    fn setup_every_rep(&self) -> bool {
        false
    }

    fn setup(&mut self, meter: &mut Meter, checker: &mut Checker) -> Timing {
        meter
            .measure("setup", || {
                self.prepare();
                if self.longwarm {
                    // The first pass captures, records and saves; the second
                    // lets lazily written overlays settle. Both must agree
                    // with every timed pass: cold ≡ warm.
                    self.sweep(&self.prepared, checker);
                    self.sweep(&self.prepared, checker);
                }
            })
            .1
    }

    fn rep(&mut self, meter: &mut Meter, checker: &mut Checker, traced: bool) -> Vec<Part> {
        // One sweep per proxy, so that each is timed (and the host
        // calibrated) on its own: a repetition is then as many
        // independent samples as it has proxies.
        trrip_obs::set_spans_enabled(traced);
        let parts = std::iter::zip(SWEEP_PROXIES, &self.prepared)
            .map(|(name, workload)| {
                let one = std::slice::from_ref(workload);
                let ((), timing) = meter.measure(name, || self.sweep(one, checker));
                Part { name, timing }
            })
            .collect();
        trrip_obs::set_spans_enabled(false);
        parts
    }

    fn store_dirs(&self) -> Vec<PathBuf> {
        if self.longwarm {
            vec![self.ctx.work_dir.join("T"), self.ctx.work_dir.join("C")]
        } else {
            Vec::new()
        }
    }

    fn peak_child_rss_kib(&self) -> u64 {
        0
    }

    fn idle_counters(&self) -> &'static [&'static str] {
        if self.longwarm {
            &["walk.bb_memo.hit", "walk.bb_memo.miss", "warm.cold_warmup", "warm.recorded_warmup"]
        } else {
            &["trace.bytes_read", "pack.raw_bytes", "ckpt.save", "ckpt.hit"]
        }
    }
}
