//! `/proc` readers: CPU time and peak resident memory of this process
//! and of the worker processes it started.
//!
//! CPU time is the scheduler's own account: the first field of
//! `/proc/<pid>/task/<tid>/schedstat`, nanoseconds on a core, summed over
//! the process's live threads. It is exact at every context switch and
//! at most one scheduler tick behind for a thread that never blocks.
//! (`utime + stime` of `/proc/<pid>/stat` is a tally of 10 ms samples —
//! too coarse for a quarter-second slice — and is used only where the
//! kernel was built without scheduler statistics.)

use std::path::Path;

/// Microseconds per `/proc` clock tick (`USER_HZ` = 100).
pub const US_PER_TICK: u64 = 10_000;

/// The fields of `/proc/<pid>/stat` this harness uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Stat {
    /// Parent process id.
    pub ppid: u32,
    /// User + system time of the process's own threads, in ticks.
    pub self_ticks: u64,
}

/// Parses one `/proc/<pid>/stat` line. The command name (field 2) is in
/// parentheses and may itself contain spaces and parentheses, so fields
/// are counted from the *last* `)`.
pub fn parse_stat(line: &str) -> Option<Stat> {
    let rest = &line[line.rfind(')')? + 1..];
    // `rest` starts at field 3 (state).
    let f: Vec<&str> = rest.split_ascii_whitespace().collect();
    let num = |field: usize| f.get(field - 3)?.parse::<u64>().ok();
    Some(Stat {
        ppid: num(4)? as u32,
        self_ticks: num(14)? + num(15)?,
    })
}

/// Parses the `VmHWM` (peak resident set) line of `/proc/<pid>/status`,
/// in KiB.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status.lines().find_map(|l| {
        let rest = l.strip_prefix("VmHWM:")?;
        rest.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

fn read_stat(pid: u32) -> Option<Stat> {
    parse_stat(&std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?)
}

/// Live direct children of this process (the cluster's shard workers).
pub fn children_of_self() -> Vec<u32> {
    let me = std::process::id();
    let Ok(dir) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|pid| read_stat(*pid).is_some_and(|s| s.ppid == me))
        .collect()
}

/// First field of a `schedstat` line: nanoseconds spent on a core.
pub fn parse_schedstat_cpu_ns(text: &str) -> Option<u64> {
    text.split_ascii_whitespace().next()?.parse().ok()
}

/// CPU microseconds consumed so far by the live threads of `pid`. A
/// thread that has exited takes its time with it, so callers difference
/// this only across stretches in which no thread of theirs ends.
pub fn cpu_us_of(pid: u32) -> u64 {
    let by_thread = || -> Option<u64> {
        let mut ns = 0;
        for task in std::fs::read_dir(format!("/proc/{pid}/task")).ok()? {
            let text = std::fs::read_to_string(task.ok()?.path().join("schedstat")).ok()?;
            ns += parse_schedstat_cpu_ns(&text)?;
        }
        Some(ns / 1000)
    };
    by_thread().unwrap_or_else(|| read_stat(pid).map_or(0, |s| s.self_ticks * US_PER_TICK))
}

/// CPU microseconds consumed so far by this process's live threads.
pub fn cpu_us_self() -> u64 {
    cpu_us_of(std::process::id())
}

/// CPU microseconds consumed so far by this process and `children`.
pub fn cpu_us_with(children: &[u32]) -> u64 {
    cpu_us_self() + children.iter().map(|&pid| cpu_us_of(pid)).sum::<u64>()
}

fn vm_hwm_kib(pid: u32) -> u64 {
    std::fs::read_to_string(Path::new("/proc").join(pid.to_string()).join("status"))
        .ok()
        .and_then(|s| parse_vm_hwm_kib(&s))
        .unwrap_or(0)
}

/// Peak resident memory, in MiB, of this process plus its live direct
/// children. Call before the workers are shut down.
pub fn peak_rss_mib_with_children() -> f64 {
    let kib: u64 = vm_hwm_kib(std::process::id())
        + children_of_self().into_iter().map(vm_hwm_kib).sum::<u64>();
    kib as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_from_the_last_paren() {
        // A hostile command name: spaces and a closing parenthesis.
        let line = "4242 (evil) name (x) S 17 4242 4242 0 -1 4194304 100 0 0 0 \
                    250 50 7 3 20 0 4 0 12345 1000000 500 18446744073709551615 0 0 0 0 0 0";
        assert_eq!(
            parse_stat(line),
            Some(Stat {
                ppid: 17,
                self_ticks: 300
            })
        );
        assert_eq!(parse_stat("garbage"), None);
        assert_eq!(parse_stat("1 (short) S 1"), None);
    }

    #[test]
    fn schedstat_first_field_is_time_on_a_core() {
        assert_eq!(
            parse_schedstat_cpu_ns("522407245 11685431 36\n"),
            Some(522_407_245)
        );
        assert_eq!(parse_schedstat_cpu_ns(""), None);
    }

    #[test]
    fn vm_hwm_is_found_among_the_status_lines() {
        let status = "Name:\tbenchmark\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(20480));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
    }

    #[test]
    fn this_process_has_cpu_time_and_memory() {
        let mut x = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 30 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_us_with(&children_of_self()) > 0);
        assert!(peak_rss_mib_with_children() > 0.0);
    }
}
