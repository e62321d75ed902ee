//! Zero-dependency observability for the Strudel pipeline.
//!
//! The paper closes by asking where the query processor spends its time
//! (§7); this crate is the measuring instrument. It provides three
//! primitives behind one [`Tracer`], all usable through `&self` from any
//! thread:
//!
//! - **hierarchical span timers** — [`Tracer::span`] returns a guard that
//!   records elapsed wall time on drop, aggregated per span *path*
//!   (`serve.request/engine.visit/struql.where`), so nesting is visible
//!   without storing every sample;
//! - **monotonic counters** — [`Tracer::add`] bumps a named counter
//!   (index probes, cache hits, guard evaluations);
//! - **a ring-buffered event log** — [`Tracer::event_with`] appends a
//!   lazily formatted line (per-request traces, plan-step actuals) into a
//!   bounded ring; old events fall off the front and are counted, never
//!   reallocated without bound.
//!
//! Tracing is **off by default** and near-free while off: every public
//! entry point checks one relaxed atomic and returns. Nothing here
//! allocates, locks, or reads the clock until tracing is enabled, so hot
//! paths (the evaluator's inner join loops, the server's request loop)
//! can call into this unconditionally.
//!
//! Most callers use the process-global tracer via the free functions
//! ([`span`], [`count`], [`event_with`], [`snapshot`]): instrumented
//! crates must not thread a handle through every signature, exactly like
//! a logging facade. Setting the `STRUDEL_TRACE` environment variable to
//! anything but `0` or the empty string enables the global tracer at
//! first use, which lets CI rerun whole suites with tracing on without
//! code changes. Local [`Tracer`] instances remain available for tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, RwLock};
use std::time::Instant;

/// How many events the ring buffer retains before evicting the oldest.
pub const EVENT_CAPACITY: usize = 4096;

/// Separator between nested span names in an aggregated span path.
pub const SPAN_SEP: char = '/';

/// Aggregate statistics for one span path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanAgg {
    /// How many spans completed under this path.
    pub count: u64,
    /// Total wall time across those spans, in microseconds.
    pub total_us: u64,
    /// The single slowest span, in microseconds.
    pub max_us: u64,
}

impl SpanAgg {
    fn record(&mut self, us: u64) {
        self.count += 1;
        self.total_us += us;
        self.max_us = self.max_us.max(us);
    }

    /// Mean span duration in microseconds (0 when no spans completed).
    pub fn mean_us(&self) -> u64 {
        self.total_us.checked_div(self.count).unwrap_or(0)
    }
}

/// One entry of the ring-buffered event log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Monotonic sequence number (never reused, survives eviction).
    pub seq: u64,
    /// The static event name, e.g. `serve.request`.
    pub name: &'static str,
    /// Formatted detail line supplied by the instrumentation site.
    pub detail: String,
}

#[derive(Default)]
struct EventRing {
    next_seq: u64,
    dropped: u64,
    buf: VecDeque<Event>,
}

/// A point-in-time copy of everything a tracer has recorded.
#[derive(Clone, Debug, Default)]
pub struct TraceSnapshot {
    /// Whether the tracer was enabled when the snapshot was taken.
    pub enabled: bool,
    /// Counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Span aggregates, sorted by path.
    pub spans: Vec<(String, SpanAgg)>,
    /// The retained tail of the event log, oldest first.
    pub events: Vec<Event>,
    /// Events evicted from the ring since the last reset.
    pub dropped_events: u64,
}

impl TraceSnapshot {
    /// Renders the snapshot as a plain-text report (the `/debug/trace`
    /// page and `strudel explain` both build on this).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "# strudel-trace snapshot (enabled={})\n",
            self.enabled
        ));
        out.push_str("\n## spans (path count total_us mean_us max_us)\n");
        if self.spans.is_empty() {
            out.push_str("(none recorded)\n");
        }
        for (path, agg) in &self.spans {
            out.push_str(&format!(
                "{path} {} {} {} {}\n",
                agg.count,
                agg.total_us,
                agg.mean_us(),
                agg.max_us
            ));
        }
        out.push_str("\n## counters\n");
        if self.counters.is_empty() {
            out.push_str("(none recorded)\n");
        }
        for (name, v) in &self.counters {
            out.push_str(&format!("{name} {v}\n"));
        }
        out.push_str(&format!(
            "\n## events (last {}, {} dropped)\n",
            self.events.len(),
            self.dropped_events
        ));
        for e in &self.events {
            out.push_str(&format!("[{}] {}: {}\n", e.seq, e.name, e.detail));
        }
        out
    }
}

thread_local! {
    // The current span path of this thread, segments joined by SPAN_SEP.
    // Guards truncate back to their saved length on drop, so panics that
    // unwind through a span still restore the parent path.
    static SPAN_PATH: RefCell<String> = const { RefCell::new(String::new()) };
}

/// Times one span; records into the owning tracer when dropped.
///
/// Returned by [`Tracer::span`]. A guard from a disabled tracer is inert:
/// no clock read, no allocation, nothing recorded on drop.
#[must_use = "a span guard measures until it is dropped"]
pub struct SpanGuard<'a> {
    active: Option<ActiveSpan<'a>>,
}

struct ActiveSpan<'a> {
    tracer: &'a Tracer,
    start: Instant,
    restore_len: usize,
}

impl SpanGuard<'_> {
    /// Abandons the span: the thread's span path is restored and
    /// nothing is recorded — for work that turned out not to be the
    /// thing the span names.
    pub fn cancel(mut self) {
        if let Some(active) = self.active.take() {
            SPAN_PATH.with(|p| p.borrow_mut().truncate(active.restore_len));
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else {
            return;
        };
        let us = active.start.elapsed().as_micros().min(u64::MAX as u128) as u64;
        let path = SPAN_PATH.with(|p| {
            let mut p = p.borrow_mut();
            let path = p.clone();
            p.truncate(active.restore_len);
            path
        });
        let mut spans = active.tracer.spans.lock().unwrap();
        spans.entry(path).or_default().record(us);
    }
}

/// A concurrent tracer: counters, span aggregates, and an event ring.
///
/// All methods take `&self`; the tracer is safe to share across threads.
/// Every recording method first checks [`Tracer::is_enabled`] with one
/// relaxed atomic load and returns immediately when tracing is off.
#[derive(Default)]
pub struct Tracer {
    enabled: AtomicBool,
    next_trace_id: AtomicU64,
    counters: RwLock<HashMap<&'static str, AtomicU64>>,
    spans: Mutex<HashMap<String, SpanAgg>>,
    events: Mutex<EventRing>,
}

impl Tracer {
    /// A new tracer, disabled.
    pub fn new() -> Self {
        Tracer::default()
    }

    /// Whether recording is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off. Already-recorded data is kept.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Allocates the next request/trace id (monotonic, starts at 1).
    /// Ids are handed out even while disabled, so enabling tracing
    /// mid-flight never reuses an id.
    pub fn next_trace_id(&self) -> u64 {
        self.next_trace_id.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Bumps the named counter by `n`. No-op while disabled.
    pub fn add(&self, name: &'static str, n: u64) {
        if !self.is_enabled() {
            return;
        }
        {
            let counters = self.counters.read().unwrap();
            if let Some(c) = counters.get(name) {
                c.fetch_add(n, Ordering::Relaxed);
                return;
            }
        }
        self.counters
            .write()
            .unwrap()
            .entry(name)
            .or_default()
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Opens a span named `name` nested under this thread's current span
    /// path. The returned guard records elapsed time on drop. Inert (and
    /// free of clock reads) while disabled.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.is_enabled() {
            return SpanGuard { active: None };
        }
        let restore_len = SPAN_PATH.with(|p| {
            let mut p = p.borrow_mut();
            let restore_len = p.len();
            if !p.is_empty() {
                p.push(SPAN_SEP);
            }
            p.push_str(name);
            restore_len
        });
        SpanGuard {
            active: Some(ActiveSpan {
                tracer: self,
                start: Instant::now(),
                restore_len,
            }),
        }
    }

    /// Appends an event whose detail is built only when tracing is
    /// enabled — hot paths pay nothing for the formatting while off.
    pub fn event_with<F: FnOnce() -> String>(&self, name: &'static str, detail: F) {
        if !self.is_enabled() {
            return;
        }
        let detail = detail();
        let mut ring = self.events.lock().unwrap();
        let seq = ring.next_seq;
        ring.next_seq += 1;
        if ring.buf.len() == EVENT_CAPACITY {
            ring.buf.pop_front();
            ring.dropped += 1;
        }
        ring.buf.push_back(Event { seq, name, detail });
    }

    /// Copies out everything recorded so far, deterministically ordered.
    pub fn snapshot(&self) -> TraceSnapshot {
        let mut counters: Vec<(String, u64)> = self
            .counters
            .read()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.to_string(), v.load(Ordering::Relaxed)))
            .collect();
        counters.sort();
        let mut spans: Vec<(String, SpanAgg)> = self
            .spans
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        spans.sort_by(|a, b| a.0.cmp(&b.0));
        let ring = self.events.lock().unwrap();
        TraceSnapshot {
            enabled: self.is_enabled(),
            counters,
            spans,
            events: ring.buf.iter().cloned().collect(),
            dropped_events: ring.dropped,
        }
    }

    /// Clears counters, span aggregates, and the event log. The enabled
    /// flag and the trace-id sequence are left alone.
    pub fn reset(&self) {
        self.counters.write().unwrap().clear();
        self.spans.lock().unwrap().clear();
        let mut ring = self.events.lock().unwrap();
        ring.buf.clear();
        ring.dropped = 0;
    }
}

static GLOBAL: OnceLock<Tracer> = OnceLock::new();

/// The process-global tracer. On first use, tracing is switched on when
/// the `STRUDEL_TRACE` environment variable is set to anything other
/// than `0` or the empty string.
pub fn global() -> &'static Tracer {
    GLOBAL.get_or_init(|| {
        let t = Tracer::new();
        let on = std::env::var("STRUDEL_TRACE")
            .map(|v| !v.is_empty() && v != "0")
            .unwrap_or(false);
        t.set_enabled(on);
        t
    })
}

/// Whether the global tracer is recording.
pub fn enabled() -> bool {
    global().is_enabled()
}

/// Enables or disables the global tracer.
pub fn set_enabled(on: bool) {
    global().set_enabled(on);
}

/// Bumps a named counter on the global tracer. No-op while disabled.
pub fn count(name: &'static str, n: u64) {
    global().add(name, n);
}

/// Opens a span on the global tracer (inert while disabled).
pub fn span(name: &'static str) -> SpanGuard<'static> {
    global().span(name)
}

/// Appends a lazily formatted event to the global tracer.
pub fn event_with<F: FnOnce() -> String>(name: &'static str, detail: F) {
    global().event_with(name, detail);
}

/// Allocates the next trace id from the global tracer.
pub fn next_trace_id() -> u64 {
    global().next_trace_id()
}

/// Snapshots the global tracer.
pub fn snapshot() -> TraceSnapshot {
    global().snapshot()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new();
        t.add("probes", 7);
        {
            let _g = t.span("visit");
        }
        t.event_with("req", || panic!("detail must not be built while disabled"));
        let snap = t.snapshot();
        assert!(!snap.enabled);
        assert!(snap.counters.is_empty());
        assert!(snap.spans.is_empty());
        assert!(snap.events.is_empty());
    }

    #[test]
    fn counters_aggregate_and_sort() {
        let t = Tracer::new();
        t.set_enabled(true);
        t.add("b.second", 2);
        t.add("a.first", 1);
        t.add("b.second", 3);
        let snap = t.snapshot();
        assert_eq!(
            snap.counters,
            vec![("a.first".into(), 1), ("b.second".into(), 5)]
        );
    }

    #[test]
    fn spans_nest_into_paths() {
        let t = Tracer::new();
        t.set_enabled(true);
        {
            let _outer = t.span("request");
            {
                let _inner = t.span("visit");
            }
            {
                let _inner = t.span("visit");
            }
        }
        {
            let _lone = t.span("visit");
        }
        let snap = t.snapshot();
        let paths: Vec<&str> = snap.spans.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(paths, vec!["request", "request/visit", "visit"]);
        let nested = &snap.spans[1].1;
        assert_eq!(nested.count, 2);
        assert!(nested.total_us >= nested.max_us);
    }

    #[test]
    fn span_path_restores_after_drop() {
        let t = Tracer::new();
        t.set_enabled(true);
        {
            let _a = t.span("a");
            {
                let _b = t.span("b");
            }
            {
                let _c = t.span("c");
            }
        }
        let snap = t.snapshot();
        let paths: Vec<&str> = snap.spans.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(paths, vec!["a", "a/b", "a/c"]);
    }

    #[test]
    fn a_cancelled_span_records_nothing_and_restores_the_path() {
        let t = Tracer::new();
        t.set_enabled(true);
        {
            let _a = t.span("a");
            t.span("abandoned").cancel();
            let _b = t.span("b");
        }
        let snap = t.snapshot();
        let paths: Vec<&str> = snap.spans.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(paths, vec!["a", "a/b"]);
    }

    #[test]
    fn event_ring_caps_and_counts_drops() {
        let t = Tracer::new();
        t.set_enabled(true);
        for i in 0..(EVENT_CAPACITY + 10) {
            t.event_with("tick", || format!("i={i}"));
        }
        let snap = t.snapshot();
        assert_eq!(snap.events.len(), EVENT_CAPACITY);
        assert_eq!(snap.dropped_events, 10);
        assert_eq!(snap.events.first().unwrap().seq, 10);
        assert_eq!(
            snap.events.last().unwrap().seq,
            (EVENT_CAPACITY + 9) as u64
        );
    }

    #[test]
    fn trace_ids_are_monotonic_and_issued_while_disabled() {
        let t = Tracer::new();
        let a = t.next_trace_id();
        t.set_enabled(true);
        let b = t.next_trace_id();
        assert!(b > a);
        assert_eq!(a, 1);
    }

    #[test]
    fn concurrent_counting_is_lossless() {
        let t = std::sync::Arc::new(Tracer::new());
        t.set_enabled(true);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let t = std::sync::Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    t.add("hits", 1);
                    let _g = t.span("work");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let snap = t.snapshot();
        assert_eq!(snap.counters, vec![("hits".into(), 4000)]);
        assert_eq!(snap.spans[0].1.count, 4000);
    }

    #[test]
    fn reset_clears_data_but_keeps_flag_and_ids() {
        let t = Tracer::new();
        t.set_enabled(true);
        t.add("x", 1);
        t.event_with("e", || "d".into());
        let id = t.next_trace_id();
        t.reset();
        let snap = t.snapshot();
        assert!(snap.enabled);
        assert!(snap.counters.is_empty());
        assert!(snap.events.is_empty());
        assert!(t.next_trace_id() > id);
    }

    #[test]
    fn render_text_lists_sections() {
        let t = Tracer::new();
        t.set_enabled(true);
        t.add("repo.probe.extension", 3);
        {
            let _g = t.span("engine.visit");
        }
        t.event_with("serve.request", || "id=1 path=/ status=200".into());
        let text = t.snapshot().render_text();
        assert!(text.contains("## spans"));
        assert!(text.contains("engine.visit"));
        assert!(text.contains("repo.probe.extension 3"));
        assert!(text.contains("serve.request: id=1 path=/ status=200"));
    }
}
