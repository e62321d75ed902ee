//! What every workload takes and returns, and the hygiene helpers they
//! share: repeated timed set-up, temp dirs that go away on every exit
//! path, the fixed server configuration.

use crate::clicks::Plan;
use crate::host::{self, Probe};
use crate::inputs::InputPin;
use crate::spans::Recorder;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};
use strudel_serve::{ServerConfig, Transport};

/// One workload run's parameters.
#[derive(Clone, Debug)]
pub struct Cfg {
    /// Drives the click mix, the popularity permutation and the delta
    /// schedule.
    pub seed: u64,
    /// Length of the measured window.
    pub window: Duration,
    /// Length of the unrecorded warm-up before it.
    pub warmup: Duration,
    /// How many times the system is set up (the median time is reported,
    /// the last system is measured).
    pub setup_reps: usize,
    /// Shrunken sites (`--smoke`).
    pub smoke: bool,
    /// Whether client operations are wrapped in spans.
    pub traced: bool,
}

impl Cfg {
    /// The configuration for a measured window of `seconds`.
    pub fn new(seed: u64, seconds: f64, smoke: bool) -> Cfg {
        Cfg {
            seed,
            window: Duration::from_secs_f64(seconds),
            warmup: Duration::from_secs_f64((seconds * 0.15).min(3.0)),
            setup_reps: if smoke { 1 } else { 3 },
            smoke,
            traced: false,
        }
    }

    /// Warm-up and window as a drive plan with slices of `slice`.
    pub fn plan(&self, slice: Duration) -> Plan {
        Plan {
            warmup: self.warmup,
            window: self.window,
            slice,
        }
    }

    /// `full` sites normally, `smoke` ones under `--smoke`.
    pub fn scale(&self, full: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

/// One slice of a run: a stretch of closed-loop load between two host
/// probes (see [`crate::host`] and [`crate::clicks::drive`]).
#[derive(Clone, Debug, Default)]
pub struct Slice {
    /// Latency of every verified operation completed in the slice, ns.
    pub latencies_ns: Vec<u64>,
    /// Operations attempted in the slice that failed.
    pub failed: u64,
    /// Verified operations per second: each load thread's count over the
    /// time from the slice's start to its own last operation's end,
    /// summed over the threads.
    pub rate_per_s: f64,
    /// The longest of those per-thread times, ns: what the slice counts
    /// towards the measured window.
    pub span_ns: u64,
    /// CPU microseconds the process consumed over the slice.
    pub cpu_us: u64,
    /// Host probes just before and just after the slice, by every load
    /// thread: CPU nanoseconds the calibration kernel took.
    pub probes_ns: Vec<u64>,
}

impl Slice {
    /// The factor this slice's times are multiplied by (see
    /// [`crate::host`]).
    pub fn factor(&self) -> f64 {
        host::factor(host::kernel_ns_of(&self.probes_ns))
    }
}

/// One timed set-up repetition.
#[derive(Clone, Copy, Debug)]
pub struct Setup {
    /// How long it took, seconds.
    pub seconds: f64,
    /// The factor it is multiplied by: from the host probes before and
    /// after it.
    pub factor: f64,
}

/// What a workload measured. Times are raw; `report` calibrates them.
pub struct Outcome {
    /// The measured window, slice by slice.
    pub slices: Vec<Slice>,
    /// Each set-up repetition.
    pub setups: Vec<Setup>,
    /// Peak resident memory of the run's process (and its workers), MiB.
    pub peak_rss_mib: f64,
    /// Body or output bytes the verified operations produced.
    pub bytes: u64,
    /// Oracle violations, in words; any entry fails the run.
    pub violations: Vec<String>,
    /// Client-side spans, when traced.
    pub recorder: Recorder,
    /// Informational rows printed beside the metrics (never compared).
    pub notes: Vec<(String, f64, &'static str)>,
    /// Fingerprints of the inputs the run was given.
    pub pin: InputPin,
}

impl Outcome {
    /// Verified operations of the window.
    pub fn verified(&self) -> u64 {
        self.slices
            .iter()
            .map(|s| s.latencies_ns.len() as u64)
            .sum()
    }

    /// Operations that failed, were refused, degraded or non-200, or
    /// failed the click oracle.
    pub fn failed(&self) -> u64 {
        self.slices.iter().map(|s| s.failed).sum()
    }

    /// Operations attempted in the window.
    pub fn attempted(&self) -> u64 {
        self.verified() + self.failed()
    }

    /// Operations failed plus oracle violations.
    pub fn total_failed(&self) -> u64 {
        self.failed() + self.violations.len() as u64
    }

    /// Length of the measured window, seconds.
    pub fn window_s(&self) -> f64 {
        self.slices.iter().map(|s| s.span_ns as f64).sum::<f64>() / 1e9
    }
}

/// Sets the system up at least `reps` times, dropping each before
/// building the next, and returns the last one with every repetition's
/// time. The host is probed around each set-up, never inside one. When
/// `reps` > 1, a cheap set-up is repeated further (up to
/// [`MAX_SETUP_REPS`]) until [`MIN_SETUP_TOTAL`] has been spent: the
/// median of more repetitions is steadier, and a tens-of-milliseconds
/// set-up must not be one scheduler hiccup.
pub fn timed_setups<S>(reps: usize, mut setup: impl FnMut() -> S) -> (S, Vec<Setup>) {
    let mut times = Vec::with_capacity(reps);
    let mut system = None;
    let started = Instant::now();
    let mut probe = Probe::new();
    let mut before = probe.run();
    while times.len() < reps.max(1)
        || (reps > 1 && times.len() < MAX_SETUP_REPS && started.elapsed() < MIN_SETUP_TOTAL)
    {
        drop(system.take());
        let t = Instant::now();
        system = Some(setup());
        let seconds = t.elapsed().as_secs_f64();
        let after = probe.run();
        times.push(Setup {
            seconds,
            factor: host::factor(host::kernel_ns_of(&[before, after])),
        });
        before = after;
    }
    (system.expect("at least one set-up"), times)
}

/// Most repetitions [`timed_setups`] adds for a cheap set-up.
pub const MAX_SETUP_REPS: usize = 9;
/// Time [`timed_setups`] keeps repeating a cheap set-up for.
pub const MIN_SETUP_TOTAL: Duration = Duration::from_millis(3000);

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds on the process clock, the one clock every interval of a
/// run is stamped with.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The server every click workload runs: epoll transport, two render
/// workers, an ephemeral loopback port.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        transport: Transport::Epoll,
        workers: 2,
        ..Default::default()
    }
}

/// Where the harness may write: `.bench_out/` under the current
/// directory (the checkout root), never the system temp dir.
pub fn out_dir() -> PathBuf {
    PathBuf::from(".bench_out")
}

/// A directory under [`out_dir`]`/tmp` that is removed when the value
/// drops — on success, on an error return and on a panic's unwind.
pub struct TempDir {
    path: PathBuf,
}

static NEXT_TEMP: AtomicU32 = AtomicU32::new(0);

impl TempDir {
    /// Creates `<out>/tmp/<pid>-<n>-<label>`, absolute.
    pub fn new(label: &str) -> std::io::Result<TempDir> {
        let n = NEXT_TEMP.fetch_add(1, Ordering::Relaxed);
        let rel = out_dir()
            .join("tmp")
            .join(format!("{}-{n}-{label}", std::process::id()));
        std::fs::create_dir_all(&rel)?;
        Ok(TempDir {
            path: std::fs::canonicalize(&rel)?,
        })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn temp_dirs_vanish_on_drop_and_on_panic() {
        let kept;
        {
            let t = TempDir::new("drop").unwrap();
            std::fs::write(t.path().join("f"), b"x").unwrap();
            kept = t.path().to_path_buf();
            assert!(kept.is_dir() && kept.is_absolute());
        }
        assert!(!kept.exists());
        let seen = std::sync::Mutex::new(PathBuf::new());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let t = TempDir::new("panic").unwrap();
            *seen.lock().unwrap() = t.path().to_path_buf();
            panic!("unwind through the guard");
        }));
        assert!(result.is_err());
        assert!(!seen.lock().unwrap().exists());
    }

    #[test]
    fn setups_are_each_timed_and_the_last_is_kept() {
        let mut built = 0;
        let (last, times) = timed_setups(1, || {
            built += 1;
            built
        });
        assert_eq!((last, times.len()), (1, 1));
        // A cheap set-up asked for three times is repeated to the cap.
        let (last, times) = timed_setups(3, || ());
        assert_eq!((last, times.len()), ((), MAX_SETUP_REPS));
    }
}
