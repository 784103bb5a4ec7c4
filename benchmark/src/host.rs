//! What the benchmark reads from the host: CPU time, peak resident
//! memory, core count and directory sizes. Everything comes from
//! `/proc` text, parsed by the functions below — no libc, no `unsafe`.

use std::fs;
use std::path::Path;

/// `USER_HZ`: the unit of the tick fields in `/proc/<pid>/stat`. The
/// kernel reports them in 1/100 s to userspace on every Linux
/// architecture Rust supports; without libc there is no `sysconf` to
/// ask.
const TICKS_PER_SECOND: f64 = 100.0;

/// The four tick counters of a `/proc/<pid>/stat` line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatTicks {
    pub utime: u64,
    pub stime: u64,
    /// User ticks of children this process has waited for.
    pub cutime: u64,
    /// System ticks of children this process has waited for.
    pub cstime: u64,
}

impl StatTicks {
    /// User + system seconds of the process, its threads and every
    /// child it has reaped.
    pub fn seconds(&self) -> f64 {
        (self.utime + self.stime + self.cutime + self.cstime) as f64 / TICKS_PER_SECOND
    }
}

/// Parses the text of `/proc/<pid>/stat`. The second field is the
/// command name in parentheses and may itself hold spaces and
/// parentheses, so fields are counted from the *last* `)`.
pub fn parse_stat(text: &str) -> Option<StatTicks> {
    let rest = &text[text.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime..cstime are fields 14..17.
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut next = || fields.next()?.parse::<u64>().ok();
    Some(StatTicks { utime: next()?, stime: next()?, cutime: next()?, cstime: next()? })
}

/// Parses `VmHWM` (peak resident set, KiB) out of the text of
/// `/proc/<pid>/status`. Absent for kernel threads and for a process
/// that has exited but was not yet reaped.
pub fn parse_vm_hwm_kib(text: &str) -> Option<u64> {
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// CPU seconds this process (with threads and reaped children) has used.
pub fn cpu_seconds() -> f64 {
    let text = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_stat(&text).expect("parse /proc/self/stat").seconds()
}

/// Peak resident set of process `pid` in KiB, if it is still alive.
pub fn vm_hwm_kib(pid: &str) -> Option<u64> {
    parse_vm_hwm_kib(&fs::read_to_string(format!("/proc/{pid}/status")).ok()?)
}

/// Cores the scheduler gives this process.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Worker threads every workload asks the program for: `min(cores, 4)`,
/// so the same benchmark exercises fan-out on a larger host without
/// turning into a scaling study.
pub fn jobs() -> usize {
    host_cores().min(4)
}

/// Regular files under `dir` (recursively) and their total size.
/// A missing directory counts as empty.
pub fn dir_usage(dir: &Path) -> (u64, u64) {
    let Ok(entries) = fs::read_dir(dir) else { return (0, 0) };
    let mut total = (0, 0);
    for entry in entries.flatten() {
        let Ok(meta) = entry.metadata() else { continue };
        let (files, bytes) = if meta.is_dir() { dir_usage(&entry.path()) } else { (1, meta.len()) };
        total = (total.0 + files, total.1 + bytes);
    }
    total
}

/// The median of `values` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in samples"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The smallest and largest of `values`.
pub fn range(values: &[f64]) -> (f64, f64) {
    values.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| (lo.min(v), hi.max(v)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_from_the_last_parenthesis() {
        // Command name with a space and a parenthesis, as the kernel
        // would print it.
        let text = "4242 (trace decode:) x) S 1 4242 4242 0 -1 4194304 900 11 0 0 \
                    123 45 67 8 20 0 3 0 1000 2000000 500 18446744073709551615 1 1 0 0 0 0 0";
        let ticks = parse_stat(text).expect("parses");
        assert_eq!(ticks, StatTicks { utime: 123, stime: 45, cutime: 67, cstime: 8 });
        assert!((ticks.seconds() - 2.43).abs() < 1e-12);
        assert_eq!(parse_stat("no parenthesis here"), None);
        assert_eq!(parse_stat("1 (short) S 1 2"), None);
    }

    #[test]
    fn vm_hwm_is_found_by_name_not_position() {
        let text =
            "Name:\tbenchmark\nVmPeak:\t  300000 kB\nVmHWM:\t   81234 kB\nVmRSS:\t 70000 kB\n";
        assert_eq!(parse_vm_hwm_kib(text), Some(81234));
        assert_eq!(parse_vm_hwm_kib("Name:\tzombie\nState:\tZ (zombie)\n"), None);
    }

    #[test]
    fn own_proc_files_parse() {
        assert!(cpu_seconds() >= 0.0);
        assert!(vm_hwm_kib("self").expect("alive") > 0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(range(&[4.0, 1.0, 2.0, 3.0]), (1.0, 4.0));
    }

    #[test]
    fn dir_usage_counts_nested_files() {
        // Beside the test executable, so nothing is written outside the
        // build directory.
        let exe = std::env::current_exe().expect("test executable path");
        let dir = exe.with_file_name(format!("dir-usage-{}", std::process::id()));
        fs::create_dir_all(dir.join("a/b")).expect("mkdir");
        fs::write(dir.join("x"), [0u8; 10]).expect("write");
        fs::write(dir.join("a/b/y"), [0u8; 32]).expect("write");
        assert_eq!(dir_usage(&dir), (2, 42));
        assert_eq!(dir_usage(&dir.join("missing")), (0, 0));
        fs::remove_dir_all(&dir).expect("cleanup");
    }
}
