//! Host calibration: reporting times in units a drifting host cannot move.
//!
//! The reference machine is a two-core cloud VM whose speed has modes.
//! For minutes at a time all CPU-bound work — this harness, the product,
//! a bare arithmetic loop — runs ≈1.5× slower or faster, as other tenants
//! of the hardware come and go; within a run the mode flips for seconds;
//! and now and then a core is half taken away for a good part of a
//! second, and a closed loop whose requests cross that core stalls with
//! it. Raw times of one commit measured an hour apart differed by
//! 25–40 % on every workload, and ten runs in a row spread by up to 30 %:
//! more than any regression this yardstick is meant to catch.
//!
//! So every run is cut into *slices* (see [`crate::clicks::drive`]), and
//! between two slices every load thread, at the same moment and with no
//! operation in flight, runs a fixed kernel of harness-owned code on
//! memory it already owns, and records the CPU time it took. The ratio of
//! [`REFERENCE_KERNEL_NS`] to the kernel times around a slice is the
//! host's speed *during that slice*; every time measured in the slice is
//! multiplied by it. A slow phase stretches the kernel and the workload
//! alike and cancels; a change to the product moves only the workload
//! and shows in full. The raw values are always printed beside the
//! calibrated ones, and the factor itself is reported
//! (`host.speed_factor`).
//!
//! Stalls are handled separately, by how the slices are summarised:
//! throughput and CPU time are reported for the slice in which the
//! median *operation* ran, so a stall, which empties a slice or two but
//! holds few operations, moves neither; latencies are medians over all
//! operations.
//!
//! The kernel allocates nothing: an earlier one that built a hash map
//! ran up to 1.6× slower right after a workload had returned memory to
//! the OS (page faults on fresh pages), which is the workload's doing
//! and not the host's. Its time is wall time minus the time the thread
//! spent waiting for a core (`/proc/thread-self/schedstat`), so being
//! preempted mid-kernel does not count as slowness. A slice costs two
//! kernel runs per load thread, ≈2 % of a run.

use std::io::Write as _;
use std::time::Instant;

/// CPU time of one kernel run on the reference host in its usual, slower
/// mode. Calibrated times read as "what this would have taken then".
pub const REFERENCE_KERNEL_NS: f64 = 3_900_000.0;

/// Keys the kernel sorts and searches.
const KEYS: usize = 96 * 1024;

/// The calibration kernel and the memory it works on: fill, sort,
/// format, hash, search — the product's instruction mix, none of its
/// code, and no allocation after `new`.
pub struct Probe {
    keys: Vec<u32>,
    text: Vec<u8>,
}

impl Probe {
    /// A probe with its memory touched (one unrecorded kernel run).
    pub fn new() -> Probe {
        let mut probe = Probe {
            keys: vec![0; KEYS],
            text: vec![0; KEYS * 12 / 8],
        };
        probe.kernel();
        probe
    }

    /// One kernel run; the digest keeps the work from being optimized
    /// away.
    fn kernel(&mut self) -> u64 {
        let mut x = 0x9E37_79B9u32;
        for k in &mut self.keys {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            *k = x;
        }
        self.keys.sort_unstable();
        let mut cursor = &mut self.text[..];
        for k in self.keys.iter().step_by(8) {
            // 11 bytes at most per key; the buffer holds 12.
            let _ = write!(cursor, "{k},");
        }
        let left = cursor.len();
        let written = self.text.len() - left;
        let mut digest = crate::http::fnv1a(&self.text[..written]);
        for _ in 0..KEYS / 8 {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            digest = digest.wrapping_add(self.keys.partition_point(|&k| k < x) as u64);
        }
        digest
    }

    /// Runs the kernel once on the calling thread; returns the CPU
    /// nanoseconds it cost.
    pub fn run(&mut self) -> u64 {
        let (wait0, wall0) = (thread_wait_ns(), Instant::now());
        std::hint::black_box(self.kernel());
        let wall = wall0.elapsed().as_nanos() as u64;
        let waited = match (wait0, thread_wait_ns()) {
            (Some(a), Some(b)) => b.saturating_sub(a),
            _ => 0,
        };
        wall.saturating_sub(waited).max(1)
    }
}

/// Nanoseconds the calling thread has so far spent runnable but waiting
/// for a core, if the kernel exposes them.
fn thread_wait_ns() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    parse_schedstat_wait(&text)
}

/// Second field of a `schedstat` line: time spent waiting on a run
/// queue, ns.
pub fn parse_schedstat_wait(text: &str) -> Option<u64> {
    text.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// The host's speed as seen by the probes around one stretch of work:
/// their median kernel time (with two, the mean), ns.
pub fn kernel_ns_of(probes: &[u64]) -> f64 {
    let mut sorted = probes.to_vec();
    sorted.sort_unstable();
    crate::stats::median(&sorted).max(1.0)
}

/// The factor a time measured while the kernel cost `kernel_ns` is
/// multiplied by: below 1 when the host was slower than the reference.
pub fn factor(kernel_ns: f64) -> f64 {
    REFERENCE_KERNEL_NS / kernel_ns.max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_takes_a_measurable_time() {
        let (mut a, mut b) = (Probe::new(), Probe::new());
        assert_eq!(a.kernel(), b.kernel());
        assert!(a.run() > 100_000, "the kernel is milliseconds of work");
    }

    #[test]
    fn schedstat_second_field_is_run_queue_wait() {
        assert_eq!(
            parse_schedstat_wait("522407245 11685431 36\n"),
            Some(11_685_431)
        );
        assert_eq!(parse_schedstat_wait("522407245"), None);
    }

    #[test]
    fn a_slow_host_scales_times_back() {
        assert_eq!(factor(REFERENCE_KERNEL_NS), 1.0);
        assert_eq!(factor(2.0 * REFERENCE_KERNEL_NS), 0.5);
        // One outlier among the probes around a slice does not move it.
        let r = REFERENCE_KERNEL_NS as u64;
        assert_eq!(kernel_ns_of(&[r, r, 10 * r]), REFERENCE_KERNEL_NS);
        assert_eq!(kernel_ns_of(&[r, 3 * r]), 2.0 * REFERENCE_KERNEL_NS);
    }
}
