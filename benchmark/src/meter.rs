//! Timing that survives a shared host.
//!
//! On the two-vCPU virtual machine this benchmark was built on, the same
//! deterministic, CPU-bound job takes between 1.0× and 1.7× its best
//! time depending on the second it runs in, in stretches that last from
//! seconds to a minute — neighbours on the same physical cores, invisible
//! to the guest (`/proc/stat` reports no steal). Both wall and CPU time
//! stretch. Medians over a fifteen-second run then differ by 20–25%
//! between runs; the code under test has not changed.
//!
//! The interference slows whatever executes, so a fixed kernel run just
//! before and just after a piece of work stretches with it. Every timing
//! here is therefore reported in **reference-host seconds**:
//!
//! ```text
//! reported = measured × REFERENCE_KERNEL_S / (kernel time around the work)
//! ```
//!
//! — what the work would take on a host where the kernel takes
//! [`REFERENCE_KERNEL_S`], which is this host when quiet. On recorded
//! data (200 runs of one binary through two noisy minutes) that took the
//! spread of six-second medians from 23% to 7%. The raw seconds and the
//! kernel's own time travel beside every reported value in the detail
//! files, so nothing is hidden by the correction.
//!
//! The kernel is self-contained on purpose: calibrating against the
//! program under test would let an optimisation of the program move the
//! yardstick.

use std::hint::black_box;
use std::ops::Add;
use std::time::{Duration, Instant};

use crate::host;
use crate::spans::Spans;

/// Seconds the kernel takes on the reference host — this benchmark's
/// build host (two vCPUs, Xeon 2.1 GHz) at its quietest, with one kernel
/// per job running concurrently.
pub const REFERENCE_KERNEL_S: f64 = 0.024;

/// Kernel iterations per calibration.
const KERNEL_ITERATIONS: u64 = 5_000_000;

/// A calibration this recent still describes the host; consecutive
/// pieces of work share the one between them.
const FRESH: Duration = Duration::from_millis(10);

/// Share of a piece of work's own length spent calibrating after it
/// (between one and [`MAX_KERNELS`] kernels): a three-second sweep is
/// not described by the same 24 ms that describe a half-second binary.
const CALIBRATION_SHARE: f64 = 0.03;
const MAX_KERNELS: usize = 5;

/// Six independent multiply–xorshift chains: dense, high-IPC integer
/// work. What the neighbours take away is execution bandwidth, and a
/// kernel that does not compete for it (a dependent-load chain, a
/// branchy interpreter loop — both were tried) does not feel them.
fn kernel(iterations: u64) -> u64 {
    let mut chains = black_box([1u64, 2, 3, 4, 5, 6]);
    for i in 0..iterations {
        for (j, v) in chains.iter_mut().enumerate() {
            *v = v.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i ^ j as u64);
            *v ^= *v >> 29;
        }
    }
    chains.iter().fold(0, |acc, v| acc ^ v)
}

/// Mean seconds per kernel over `kernels` back-to-back kernels on each
/// of `jobs` threads at once — the work being timed keeps that many
/// threads busy.
fn kernel_seconds(jobs: usize, kernels: usize) -> f64 {
    let times: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                scope.spawn(|| {
                    let start = Instant::now();
                    for _ in 0..kernels {
                        black_box(kernel(black_box(KERNEL_ITERATIONS)));
                    }
                    start.elapsed().as_secs_f64() / kernels as f64
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("calibration thread")).collect()
    });
    times.iter().sum::<f64>() / times.len() as f64
}

/// What one piece of work cost.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Timing {
    /// Wall time, reference-host seconds.
    pub wall_s: f64,
    /// User + system time of this process, its threads and the children
    /// it reaped meanwhile, reference-host seconds.
    pub cpu_s: f64,
    /// Wall time as the clock read it.
    pub raw_wall_s: f64,
    /// Kernel seconds around the work, weighted by `raw_wall_s` when
    /// timings are added, so a sum's ratio stays meaningful.
    kernel_weighted: f64,
}

impl Timing {
    /// How much slower than the reference host this host ran meanwhile.
    pub fn slowdown(&self) -> f64 {
        self.kernel_weighted / self.raw_wall_s / REFERENCE_KERNEL_S
    }
}

impl Add for Timing {
    type Output = Timing;

    fn add(self, other: Timing) -> Timing {
        Timing {
            wall_s: self.wall_s + other.wall_s,
            cpu_s: self.cpu_s + other.cpu_s,
            raw_wall_s: self.raw_wall_s + other.raw_wall_s,
            kernel_weighted: self.kernel_weighted + other.kernel_weighted,
        }
    }
}

impl std::iter::Sum for Timing {
    fn sum<I: Iterator<Item = Timing>>(iter: I) -> Timing {
        iter.fold(Timing::default(), Add::add)
    }
}

/// The harness's clock: spans plus the calibration around each
/// measured piece of work. Spans nest; measurements do not.
#[derive(Debug)]
pub struct Meter {
    pub spans: Spans,
    jobs: usize,
    last: Option<(Instant, f64)>,
}

impl Meter {
    pub fn new(jobs: usize) -> Meter {
        Meter { spans: Spans::new(), jobs, last: None }
    }

    /// Runs `work` inside a span named `name`, so that what it measures
    /// records that span as its cause.
    pub fn span<T>(&mut self, name: &str, work: impl FnOnce(&mut Meter) -> T) -> T {
        self.spans.enter(name);
        let value = work(self);
        self.spans.exit();
        value
    }

    fn calibrate(&mut self, kernels: usize) -> f64 {
        self.spans.enter("host.calibrate");
        let seconds = kernel_seconds(self.jobs, kernels);
        self.spans.exit();
        self.last = Some((Instant::now(), seconds));
        seconds
    }

    /// Runs `work` inside a span named `name`, the calibration kernel
    /// just before and just after it.
    pub fn measure<T>(&mut self, name: &str, work: impl FnOnce() -> T) -> (T, Timing) {
        let before = match self.last {
            Some((at, seconds)) if at.elapsed() < FRESH => seconds,
            _ => self.calibrate(2),
        };
        let cpu_before = host::cpu_seconds();
        self.spans.enter(name);
        let value = work();
        let raw_wall_s = self.spans.exit();
        let raw_cpu_s = host::cpu_seconds() - cpu_before;
        let kernels = (raw_wall_s * CALIBRATION_SHARE / REFERENCE_KERNEL_S).ceil() as usize;
        let kernel_s = (before + self.calibrate(kernels.clamp(1, MAX_KERNELS))) / 2.0;
        let scale = REFERENCE_KERNEL_S / kernel_s;
        let timing = Timing {
            wall_s: raw_wall_s * scale,
            cpu_s: raw_cpu_s * scale,
            raw_wall_s,
            kernel_weighted: kernel_s * raw_wall_s,
        };
        (value, timing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic_and_scales_with_its_iterations() {
        assert_eq!(kernel(1000), kernel(1000));
        assert_ne!(kernel(1000), kernel(1001));
        let time = |n| {
            let start = Instant::now();
            black_box(kernel(black_box(n)));
            start.elapsed().as_secs_f64()
        };
        let (short, long) = (time(200_000), time(4_000_000));
        assert!(long > 5.0 * short, "20x the iterations took {long} s against {short} s");
    }

    #[test]
    fn timings_add_and_keep_their_slowdown() {
        let timing = |raw: f64, slowdown: f64| Timing {
            wall_s: raw / slowdown,
            cpu_s: 2.0 * raw / slowdown,
            raw_wall_s: raw,
            kernel_weighted: slowdown * REFERENCE_KERNEL_S * raw,
        };
        let sum: Timing = [timing(1.0, 1.0), timing(3.0, 1.5)].into_iter().sum();
        assert!((sum.wall_s - 3.0).abs() < 1e-12);
        assert!((sum.cpu_s - 6.0).abs() < 1e-12);
        assert!((sum.raw_wall_s - 4.0).abs() < 1e-12);
        // Three of the four raw seconds ran 1.5x slow.
        assert!((sum.slowdown() - 1.375).abs() < 1e-12);
    }

    #[test]
    fn a_measurement_reports_both_clocks() {
        let mut meter = Meter::new(1);
        let (value, timing) = meter.measure("nap", || {
            std::thread::sleep(Duration::from_millis(20));
            7
        });
        assert_eq!(value, 7);
        assert!(timing.raw_wall_s >= 0.02);
        assert!(timing.wall_s > 0.0 && timing.slowdown() > 0.0);
        assert!((timing.wall_s * timing.slowdown() - timing.raw_wall_s).abs() < 1e-9);
    }
}
