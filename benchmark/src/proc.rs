//! Process accounting read from `/proc`, without `unsafe` or libc:
//! on-CPU nanoseconds per thread from `schedstat`, peak resident set
//! from `status`.

use std::collections::HashMap;
use std::fs;

/// On-CPU nanoseconds from a `schedstat` line (`run wait slices`).
pub fn parse_schedstat(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// `VmHWM` in KiB from `/proc/<pid>/status`.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut it = line["VmHWM:".len()..].split_whitespace();
    let value: u64 = it.next()?.parse().ok()?;
    (it.next() == Some("kB")).then_some(value)
}

/// Peak resident set of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_vm_hwm_kib(&status).unwrap_or(0) as f64 / 1024.0
}

/// On-CPU nanoseconds of the calling thread.
pub fn thread_cpu_ns() -> u64 {
    fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| parse_schedstat(&s))
        .unwrap_or(0)
}

/// Process CPU as the sum of per-thread `schedstat` run times.
///
/// A thread's entry vanishes when it exits, taking its CPU out of a
/// naive sum, so the meter remembers the last value it saw for every
/// thread id. Callers sample it on a cadence (and right before they stop
/// threads); at most one cadence of an exiting thread's CPU is lost.
#[derive(Default)]
pub struct CpuMeter {
    last_seen: HashMap<String, u64>,
}

impl CpuMeter {
    pub fn new() -> CpuMeter {
        let mut m = CpuMeter::default();
        m.sample();
        m
    }

    /// Refreshes every live thread's reading; returns the total so far.
    pub fn sample(&mut self) -> u64 {
        if let Ok(dir) = fs::read_dir("/proc/self/task") {
            for entry in dir.flatten() {
                let path = entry.path().join("schedstat");
                if let Some(ns) = fs::read_to_string(path)
                    .ok()
                    .and_then(|s| parse_schedstat(&s))
                {
                    self.last_seen
                        .insert(entry.file_name().to_string_lossy().into_owned(), ns);
                }
            }
        }
        self.last_seen.values().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_first_field_is_run_time() {
        assert_eq!(parse_schedstat("509712507 9583984 43\n"), Some(509_712_507));
        assert_eq!(parse_schedstat(""), None);
        assert_eq!(parse_schedstat("x 1 2"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status = "Name:\tbench\nVmPeak:\t  9000 kB\nVmHWM:\t    1748 kB\nVmRSS:\t 1700 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(1748));
        assert_eq!(parse_vm_hwm_kib("VmRSS: 1 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM: 12 MB\n"), None);
    }

    #[test]
    fn meter_keeps_the_cpu_of_exited_threads() {
        let mut meter = CpuMeter::new();
        let before = meter.sample();
        std::thread::scope(|s| {
            s.spawn(|| {
                let t = std::time::Instant::now();
                let mut x = 0u64;
                while t.elapsed().as_millis() < 30 {
                    x = std::hint::black_box(x.wrapping_add(1));
                }
            });
            std::thread::sleep(std::time::Duration::from_millis(20));
            meter.sample();
        });
        // The spinner has exited; its last reading must still count.
        let after = meter.sample();
        assert!(after - before >= 5_000_000, "{}", after - before);
        assert!(peak_rss_mib() > 0.0);
        assert!(thread_cpu_ns() > 0 || after > 0);
    }
}
