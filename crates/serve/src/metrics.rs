//! Request observability: per-route counters, latency histograms, and the
//! `/metrics` text rendition.
//!
//! Everything is lock-free on the hot path: a request records one atomic
//! add into its route's counter and one into a fixed-bucket latency
//! histogram. Quantiles are read from the bucket counts on demand, so
//! `p50`/`p99` are upper bounds at bucket resolution — plenty for
//! operational visibility, free of per-request allocation.

use crate::SiteService;
use std::collections::HashMap;
use std::fmt::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Histogram bucket upper bounds, in microseconds: a 1–2–5 ladder from
/// 1 µs to 10 s, plus an overflow bucket.
const BOUNDS_US: [u64; 22] = [
    1, 2, 5, 10, 20, 50, 100, 200, 500, 1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000,
    200_000, 500_000, 1_000_000, 2_000_000, 5_000_000, 10_000_000,
];

/// A fixed-bucket latency histogram over microseconds.
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; BOUNDS_US.len() + 1],
    count: AtomicU64,
    sum_us: AtomicU64,
    /// Largest observation, so quantiles landing in the overflow bucket
    /// report a real latency instead of a fictitious `u64::MAX` bound.
    max_us: AtomicU64,
}

impl Histogram {
    /// Records one observation.
    pub fn record(&self, us: u64) {
        let idx = BOUNDS_US
            .iter()
            .position(|&b| us <= b)
            .unwrap_or(BOUNDS_US.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean observation in microseconds (0 when empty).
    pub fn mean_us(&self) -> u64 {
        self.sum_us
            .load(Ordering::Relaxed)
            .checked_div(self.count())
            .unwrap_or(0)
    }

    /// The `q`-quantile in microseconds, as the upper bound of the bucket
    /// containing it (0 when empty). `q` is clamped to `[0, 1]`; `q = 0`
    /// on a non-empty histogram reports the first occupied bucket's
    /// bound. Quantiles that land in the overflow bucket report the
    /// largest observed latency rather than an invented bound.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= target {
                return match BOUNDS_US.get(i) {
                    Some(&bound) => bound,
                    None => self.max_us.load(Ordering::Relaxed),
                };
            }
        }
        self.max_us.load(Ordering::Relaxed)
    }

    /// Cumulative bucket counts in Prometheus exposition order: one
    /// `(Some(bound), cumulative)` pair per finite bucket, then one
    /// `(None, total)` pair for the `+Inf` bucket, which absorbs samples
    /// above the last finite bound.
    pub fn cumulative_buckets(&self) -> Vec<(Option<u64>, u64)> {
        let mut out = Vec::with_capacity(self.buckets.len());
        let mut seen = 0;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            out.push((BOUNDS_US.get(i).copied(), seen));
        }
        out
    }

    /// Sum of all observations, in microseconds.
    pub fn sum_us(&self) -> u64 {
        self.sum_us.load(Ordering::Relaxed)
    }
}

/// Counters for one route class (e.g. `page/ArticlePage`, `metrics`).
#[derive(Debug, Default)]
pub struct RouteStats {
    /// Requests served on this route.
    pub requests: AtomicU64,
    /// Request latency distribution.
    pub latency: Histogram,
}

/// The server's metric registry.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    routes: RwLock<HashMap<String, Arc<RouteStats>>>,
    total: RouteStats,
}

impl ServerMetrics {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one served request on `route` taking `us` microseconds.
    pub fn record(&self, route: &str, us: u64) {
        self.total.requests.fetch_add(1, Ordering::Relaxed);
        self.total.latency.record(us);
        if let Some(r) = self.routes.read().unwrap().get(route) {
            r.requests.fetch_add(1, Ordering::Relaxed);
            r.latency.record(us);
            return;
        }
        let r = self
            .routes
            .write()
            .unwrap()
            .entry(route.to_owned())
            .or_default()
            .clone();
        r.requests.fetch_add(1, Ordering::Relaxed);
        r.latency.record(us);
    }

    /// A point-in-time snapshot of every route.
    pub fn snapshot(&self) -> Vec<RouteSnapshot> {
        let mut routes: Vec<RouteSnapshot> = self
            .routes
            .read()
            .unwrap()
            .iter()
            .map(|(name, r)| RouteSnapshot {
                route: name.clone(),
                requests: r.requests.load(Ordering::Relaxed),
                p50_us: r.latency.quantile_us(0.5),
                p99_us: r.latency.quantile_us(0.99),
                mean_us: r.latency.mean_us(),
            })
            .collect();
        routes.sort_by(|a, b| a.route.cmp(&b.route));
        routes
    }

    /// Totals across all routes.
    pub fn totals(&self) -> RouteSnapshot {
        RouteSnapshot {
            route: "total".into(),
            requests: self.total.requests.load(Ordering::Relaxed),
            p50_us: self.total.latency.quantile_us(0.5),
            p99_us: self.total.latency.quantile_us(0.99),
            mean_us: self.total.latency.mean_us(),
        }
    }

    /// Cumulative latency buckets across all routes (see
    /// [`Histogram::cumulative_buckets`]).
    pub fn total_latency_buckets(&self) -> Vec<(Option<u64>, u64)> {
        self.total.latency.cumulative_buckets()
    }

    /// Total latency sum across all routes, microseconds.
    pub fn total_latency_sum_us(&self) -> u64 {
        self.total.latency.sum_us()
    }
}

/// One route's counters, frozen for reporting.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RouteSnapshot {
    /// Route class (page symbol, `front`, `data`, `metrics`, `not_found`).
    pub route: String,
    /// Requests served.
    pub requests: u64,
    /// Median latency (bucket upper bound), microseconds.
    pub p50_us: u64,
    /// 99th-percentile latency (bucket upper bound), microseconds.
    pub p99_us: u64,
    /// Mean latency, microseconds.
    pub mean_us: u64,
}

/// What a transport reports about itself: the sinks behind the
/// [`ClickService`] `note_*` hooks. One instance belongs to whichever
/// front is handed to [`crate::serve`]; each counter is a relaxed atomic
/// at a fixed address, so a hook costs one increment.
///
/// [`ClickService`]: crate::ClickService
#[derive(Debug, Default)]
pub struct TransportCounters {
    panics: AtomicU64,
    shed: AtomicU64,
    timeout_config_errors: AtomicU64,
    /// Set by the first timeout-setup failure, the only one that logs.
    timeout_error_logged: AtomicBool,
    accept_errors: AtomicU64,
    open_connections: AtomicU64,
    keepalive_reuse: AtomicU64,
    idle_closed: AtomicU64,
}

impl TransportCounters {
    /// Records one caught panic: a handler's, or one the transport's
    /// backstop caught outside any handler.
    pub fn note_panic(&self) {
        self.panics.fetch_add(1, Ordering::Relaxed);
        strudel_trace::count("serve.panics", 1);
    }

    /// Records one connection shed by a full backlog or connection cap.
    pub fn note_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
        strudel_trace::count("serve.shed", 1);
    }

    /// Records a failed socket-timeout setup. The first failure logs a
    /// trace event; after that only the counter moves, so a flapping
    /// socket option can't flood the trace buffer.
    pub fn note_timeout_config_error(&self, err: &std::io::Error) {
        self.timeout_config_errors.fetch_add(1, Ordering::Relaxed);
        strudel_trace::count("serve.timeout_config_errors", 1);
        if !self.timeout_error_logged.swap(true, Ordering::Relaxed) {
            let msg = err.to_string();
            strudel_trace::event_with("serve.timeout_config_error", || {
                format!("socket timeout setup failed (logged once): {msg}")
            });
        }
    }

    /// Records one failed `accept`.
    pub fn note_accept_error(&self) {
        self.accept_errors.fetch_add(1, Ordering::Relaxed);
        strudel_trace::count("serve.accept_errors", 1);
    }

    /// Records a connection opened (the gauge increments).
    pub fn note_conn_opened(&self) {
        self.open_connections.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a connection closed. The gauge saturates at zero: a
    /// close with no matching open must not wrap it to 2^64.
    pub fn note_conn_closed(&self) {
        let _ = self
            .open_connections
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
    }

    /// Records a request served on an already-used connection.
    pub fn note_keepalive_reuse(&self) {
        self.keepalive_reuse.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a keep-alive connection closed by the idle deadline.
    pub fn note_idle_closed(&self) {
        self.idle_closed.fetch_add(1, Ordering::Relaxed);
        strudel_trace::count("serve.idle_closed", 1);
    }

    fn add_to(&self, stats: &mut ServerStats) {
        stats.panics += self.panics.load(Ordering::Relaxed);
        stats.shed += self.shed.load(Ordering::Relaxed);
        stats.timeout_config_errors += self.timeout_config_errors.load(Ordering::Relaxed);
        stats.accept_errors += self.accept_errors.load(Ordering::Relaxed);
        stats.open_connections += self.open_connections.load(Ordering::Relaxed);
        stats.keepalive_reuse += self.keepalive_reuse.load(Ordering::Relaxed);
        stats.idle_closed += self.idle_closed.load(Ordering::Relaxed);
    }
}

/// Rendered-HTML cache counters, frozen for reporting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// Requests answered from the cache.
    pub hits: u64,
    /// Requests that had to render.
    pub misses: u64,
    /// Entries evicted by delta invalidation.
    pub evictions: u64,
    /// Entries currently cached.
    pub entries: u64,
    /// Hits answered by [`crate::HtmlCache::try_get`], the reactor's
    /// never-waiting lookup (equal to the inline hits).
    pub published_hits: u64,
}

impl CacheSnapshot {
    /// Fraction of lookups served from cache (0 when no lookups yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Why [`crate::SiteService::try_warm`] declined a page request, which
/// then went through the render pool instead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InlineDecline {
    /// Not cached (never rendered, or evicted), or a `/page/…` URL that
    /// names no page.
    Miss,
    /// A delta held the engine's snapshot lock.
    DeltaInFlight,
    /// A [`crate::FaultProbe`] is armed; probes fire on the pool only.
    Probe,
    /// A writer (an insert or an invalidation) held or awaited the
    /// page's cache shard.
    Contended,
}

impl InlineDecline {
    /// Every reason, in `reason as usize` order.
    pub const ALL: [InlineDecline; 4] = [
        InlineDecline::Miss,
        InlineDecline::DeltaInFlight,
        InlineDecline::Probe,
        InlineDecline::Contended,
    ];

    /// The `reason` label on `/metrics`.
    pub fn label(self) -> &'static str {
        match self {
            InlineDecline::Miss => "miss",
            InlineDecline::DeltaInFlight => "delta_in_flight",
            InlineDecline::Probe => "probe",
            InlineDecline::Contended => "contended",
        }
    }
}

/// Where requests were answered, frozen for reporting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InlineSnapshot {
    /// Page requests answered by `try_warm` — on the reactor thread,
    /// under the epoll transport.
    pub hits: u64,
    /// Page requests `try_warm` declined, indexed by [`InlineDecline`].
    pub declined: [u64; InlineDecline::ALL.len()],
    /// Requests answered through `handle` — the render pool, under the
    /// epoll transport.
    pub pool_dispatches: u64,
}

/// Everything the `/metrics` endpoint reports, as one struct.
#[derive(Clone, Debug, Default)]
pub struct ServerStats {
    /// Totals across all routes.
    pub total: RouteSnapshot,
    /// Cumulative latency buckets across all routes: `(bound_us,
    /// cumulative count)`, `None` bound = the `+Inf` overflow bucket.
    pub latency_buckets: Vec<(Option<u64>, u64)>,
    /// Total latency sum across all routes, microseconds.
    pub latency_sum_us: u64,
    /// Per-route breakdown, sorted by route name.
    pub routes: Vec<RouteSnapshot>,
    /// Rendered-HTML cache counters.
    pub html_cache: CacheSnapshot,
    /// The click-time engine's own counters (page-view cache, guard
    /// evaluations).
    pub engine: strudel_schema::dynamic::Metrics,
    /// Number of applied data deltas.
    pub epoch: u64,
    /// Requests that exceeded the slow-request threshold.
    pub slow_requests: u64,
    /// Requests that panicked mid-dispatch and were answered with a 500.
    pub panics: u64,
    /// Connections shed with a 503 because the backlog was full.
    pub shed: u64,
    /// Connections whose socket-timeout setup failed (served anyway).
    pub timeout_config_errors: u64,
    /// Failed `accept` calls (the transport backed off after each).
    pub accept_errors: u64,
    /// Connections currently open at the transport (a gauge).
    pub open_connections: u64,
    /// Requests served on an already-used keep-alive connection.
    pub keepalive_reuse: u64,
    /// Keep-alive connections closed by the idle deadline.
    pub idle_closed: u64,
    /// Inline hits, declines by reason, and pool dispatches.
    pub inline: InlineSnapshot,
    /// Whether an earlier write failure poisoned the attached paged
    /// store (reads keep serving; `/readyz` answers 503).
    pub store_poisoned: bool,
    /// Global `strudel-trace` counters, sorted by name; empty while
    /// tracing is disabled.
    pub trace_counters: Vec<(String, u64)>,
}

/// Appends one `name value` line per row.
pub(crate) fn push_rows(out: &mut String, rows: &[(&str, u64)]) {
    for (name, value) in rows {
        let _ = writeln!(out, "{name} {value}");
    }
}

impl ServerStats {
    /// What a front reports: request totals and routes from `front`, the
    /// transport's events from its `transport` counters, and cache,
    /// engine, slow-request and inline numbers from its `core` — the
    /// [`SiteService`] itself, or none for the cluster router, whose
    /// engines live in other processes.
    pub(crate) fn assemble(
        front: &ServerMetrics,
        transport: &TransportCounters,
        core: Option<&SiteService>,
        epoch: u64,
        store_poisoned: bool,
    ) -> ServerStats {
        let mut stats = ServerStats {
            total: front.totals(),
            latency_buckets: front.total_latency_buckets(),
            latency_sum_us: front.total_latency_sum_us(),
            routes: front.snapshot(),
            epoch,
            store_poisoned,
            trace_counters: if strudel_trace::enabled() {
                strudel_trace::snapshot().counters
            } else {
                Vec::new()
            },
            ..Default::default()
        };
        if let Some(core) = core {
            stats.html_cache = core.cache().stats();
            stats.engine = core.engine().metrics();
            stats.slow_requests = core.slow_requests_total();
            stats.inline = core.inline_stats();
        }
        transport.add_to(&mut stats);
        stats
    }

    /// Renders the stats in the Prometheus text exposition format: the
    /// labelled families in loops, every other row from a
    /// `(row name, value)` table in exposition order.
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(4096);
        let (cache, engine) = (&self.html_cache, &self.engine);
        push_rows(
            &mut out,
            &[
                ("strudel_requests_total", self.total.requests),
                ("strudel_request_latency_us{quantile=\"0.5\"}", self.total.p50_us),
                ("strudel_request_latency_us{quantile=\"0.99\"}", self.total.p99_us),
                ("strudel_request_latency_us_mean", self.total.mean_us),
            ],
        );
        // Standard Prometheus histogram series: overflow samples land in
        // the `+Inf` bucket, never under a fabricated numeric bound.
        for (bound, cumulative) in &self.latency_buckets {
            let le = bound.map_or("+Inf".to_string(), |b| b.to_string());
            let _ = writeln!(
                out,
                "strudel_request_latency_us_bucket{{le=\"{le}\"}} {cumulative}"
            );
        }
        push_rows(
            &mut out,
            &[
                ("strudel_request_latency_us_sum", self.latency_sum_us),
                ("strudel_request_latency_us_count", self.total.requests),
            ],
        );
        for r in &self.routes {
            let route = &r.route;
            push_rows(
                &mut out,
                &[
                    (&format!("strudel_route_requests_total{{route=\"{route}\"}}"), r.requests),
                    (
                        &format!("strudel_route_latency_us{{route=\"{route}\",quantile=\"0.5\"}}"),
                        r.p50_us,
                    ),
                    (
                        &format!("strudel_route_latency_us{{route=\"{route}\",quantile=\"0.99\"}}"),
                        r.p99_us,
                    ),
                ],
            );
        }
        push_rows(
            &mut out,
            &[
                ("strudel_html_cache_hits_total", cache.hits),
                ("strudel_html_cache_misses_total", cache.misses),
                ("strudel_html_cache_evictions_total", cache.evictions),
                ("strudel_html_cache_entries", cache.entries),
                ("strudel_html_cache_published_hits_total", cache.published_hits),
            ],
        );
        let _ = writeln!(out, "strudel_html_cache_hit_rate {:.4}", cache.hit_rate());
        push_rows(
            &mut out,
            &[
                ("strudel_engine_clicks_total", engine.clicks as u64),
                ("strudel_engine_queries_total", engine.queries_run as u64),
                ("strudel_engine_rows_produced_total", engine.rows_produced as u64),
                ("strudel_engine_view_cache_hits_total", engine.cache_hits as u64),
                ("strudel_engine_view_evictions_total", engine.evictions as u64),
                ("strudel_engine_plan_cache_hits_total", engine.plan_cache_hits as u64),
                ("strudel_engine_plan_cache_misses_total", engine.plan_cache_misses as u64),
                ("strudel_diff_pages_updated_total", engine.diff_pages_updated as u64),
                ("strudel_diff_fallbacks_total", engine.diff_fallbacks as u64),
                ("strudel_diff_rows_added_total", engine.diff_rows_added as u64),
                ("strudel_diff_rows_retracted_total", engine.diff_rows_retracted as u64),
                ("strudel_diff_standby_rebuilds_total", engine.standby_rebuilds as u64),
                ("strudel_delta_epoch", self.epoch),
                ("strudel_slow_requests_total", self.slow_requests),
                ("strudel_panics_total", self.panics),
                ("strudel_shed_total", self.shed),
                ("strudel_timeout_config_errors_total", self.timeout_config_errors),
                ("strudel_accept_errors_total", self.accept_errors),
                ("strudel_open_connections", self.open_connections),
                ("strudel_keepalive_reuse_total", self.keepalive_reuse),
                ("strudel_idle_closed_total", self.idle_closed),
                ("strudel_inline_hits_total", self.inline.hits),
                ("strudel_pool_dispatches_total", self.inline.pool_dispatches),
            ],
        );
        for reason in InlineDecline::ALL {
            let _ = writeln!(
                out,
                "strudel_inline_declined_total{{reason=\"{}\"}} {}",
                reason.label(),
                self.inline.declined[reason as usize]
            );
        }
        let _ = writeln!(
            out,
            "strudel_store_poisoned {}",
            u64::from(self.store_poisoned)
        );
        for (name, v) in &self.trace_counters {
            let _ = writeln!(out, "strudel_trace_counter{{name=\"{name}\"}} {v}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_are_bucket_upper_bounds() {
        let h = Histogram::default();
        for us in [3, 3, 3, 3, 3, 3, 3, 3, 3, 700] {
            h.record(us);
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.quantile_us(0.5), 5, "3 µs falls in the (2,5] bucket");
        assert_eq!(h.quantile_us(0.99), 1_000, "700 µs falls in (500,1000]");
        assert_eq!(h.mean_us(), (9 * 3 + 700) / 10);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = Histogram::default();
        assert_eq!(h.quantile_us(0.5), 0);
        assert_eq!(h.mean_us(), 0);
    }

    #[test]
    fn overflow_bucket_catches_huge_latencies() {
        let h = Histogram::default();
        h.record(u64::MAX);
        assert_eq!(h.quantile_us(0.5), u64::MAX);
    }

    #[test]
    fn single_sample_histogram_answers_every_quantile() {
        let h = Histogram::default();
        h.record(42);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile_us(q), 50, "q={q}: 42 µs is in (20,50]");
        }
    }

    #[test]
    fn quantile_zero_reports_first_occupied_bucket() {
        let h = Histogram::default();
        h.record(700);
        h.record(3);
        assert_eq!(h.quantile_us(0.0), 5, "first occupied bucket, (2,5]");
    }

    #[test]
    fn overflow_quantiles_report_observed_max_not_a_fictitious_bound() {
        // Regression: a 20 s request (past the 10 s ladder top) used to
        // make every overflow-bucket quantile report u64::MAX.
        let h = Histogram::default();
        h.record(20_000_000);
        assert_eq!(h.quantile_us(0.0), 20_000_000);
        assert_eq!(h.quantile_us(0.5), 20_000_000);
        assert_eq!(h.quantile_us(1.0), 20_000_000);
    }

    #[test]
    fn cumulative_buckets_end_in_the_inf_bucket() {
        let h = Histogram::default();
        h.record(3);
        h.record(3);
        h.record(20_000_000); // overflow
        let buckets = h.cumulative_buckets();
        assert_eq!(buckets.len(), BOUNDS_US.len() + 1);
        assert_eq!(buckets[2], (Some(5), 2), "both 3 µs samples by le=5");
        let (last_bound, last_count) = buckets[buckets.len() - 1];
        assert_eq!(last_bound, None, "+Inf bucket");
        assert_eq!(last_count, 3, "+Inf is cumulative over everything");
        assert_eq!(
            buckets[buckets.len() - 2],
            (Some(10_000_000), 2),
            "overflow sample is NOT under the last finite bound"
        );
        assert_eq!(h.sum_us(), 20_000_006);
    }

    #[test]
    fn routes_accumulate_independently() {
        let m = ServerMetrics::new();
        m.record("front", 10);
        m.record("front", 20);
        m.record("page/ArticlePage", 100);
        let snap = m.snapshot();
        assert_eq!(snap.len(), 2);
        let front = snap.iter().find(|r| r.route == "front").unwrap();
        assert_eq!(front.requests, 2);
        assert_eq!(m.totals().requests, 3);
    }

    #[test]
    fn stats_render_prometheus_text() {
        let m = ServerMetrics::new();
        m.record("front", 42);
        let stats = ServerStats {
            total: m.totals(),
            latency_buckets: m.total_latency_buckets(),
            latency_sum_us: m.total_latency_sum_us(),
            routes: m.snapshot(),
            html_cache: CacheSnapshot {
                hits: 3,
                misses: 1,
                evictions: 0,
                entries: 1,
                published_hits: 2,
            },
            engine: strudel_schema::dynamic::Metrics {
                diff_pages_updated: 5,
                diff_fallbacks: 1,
                diff_rows_added: 9,
                diff_rows_retracted: 4,
                standby_rebuilds: 2,
                ..Default::default()
            },
            epoch: 0,
            slow_requests: 2,
            panics: 1,
            shed: 4,
            timeout_config_errors: 3,
            accept_errors: 6,
            open_connections: 12,
            keepalive_reuse: 9,
            idle_closed: 8,
            inline: InlineSnapshot {
                hits: 13,
                declined: [1, 2, 3, 4],
                pool_dispatches: 14,
            },
            store_poisoned: false,
            trace_counters: vec![("serve.request".into(), 7)],
        };
        let text = stats.to_text();
        assert!(text.contains("strudel_requests_total 1"));
        assert!(text.contains("strudel_slow_requests_total 2"));
        assert!(text.contains("strudel_panics_total 1"));
        assert!(text.contains("strudel_shed_total 4"));
        assert!(text.contains("strudel_timeout_config_errors_total 3"));
        assert!(text.contains("strudel_accept_errors_total 6"));
        assert!(text.contains("strudel_open_connections 12"));
        assert!(text.contains("strudel_keepalive_reuse_total 9"));
        assert!(text.contains("strudel_idle_closed_total 8"));
        assert!(text.contains("strudel_inline_hits_total 13"));
        assert!(text.contains("strudel_pool_dispatches_total 14"));
        assert!(text.contains("strudel_inline_declined_total{reason=\"miss\"} 1"));
        assert!(text.contains("strudel_inline_declined_total{reason=\"delta_in_flight\"} 2"));
        assert!(text.contains("strudel_inline_declined_total{reason=\"probe\"} 3"));
        assert!(text.contains("strudel_inline_declined_total{reason=\"contended\"} 4"));
        assert!(text.contains("strudel_store_poisoned 0"));
        assert!(text.contains("strudel_trace_counter{name=\"serve.request\"} 7"));
        assert!(text.contains("strudel_route_requests_total{route=\"front\"} 1"));
        assert!(text.contains("strudel_html_cache_hit_rate 0.7500"));
        assert!(text.contains("strudel_html_cache_published_hits_total 2"));
        assert!(text.contains("strudel_request_latency_us{quantile=\"0.5\"} 50"));
        assert!(text.contains("strudel_request_latency_us_bucket{le=\"50\"} 1"));
        assert!(text.contains("strudel_request_latency_us_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("strudel_request_latency_us_sum 42"));
        assert!(text.contains("strudel_request_latency_us_count 1"));
        assert!(text.contains("strudel_diff_pages_updated_total 5"));
        assert!(text.contains("strudel_diff_fallbacks_total 1"));
        assert!(text.contains("strudel_diff_rows_added_total 9"));
        assert!(text.contains("strudel_diff_rows_retracted_total 4"));
        assert!(text.contains("strudel_diff_standby_rebuilds_total 2"));
    }

    #[test]
    fn overflow_samples_surface_as_inf_bucket_in_exposition() {
        let m = ServerMetrics::new();
        m.record("slow", 20_000_000); // 20 s: past the 10 s ladder top
        let stats = ServerStats::assemble(&m, &TransportCounters::default(), None, 0, false);
        let text = stats.to_text();
        assert!(text.contains("strudel_request_latency_us_bucket{le=\"10000000\"} 0"));
        assert!(text.contains("strudel_request_latency_us_bucket{le=\"+Inf\"} 1"));
        assert!(
            !text.contains(&u64::MAX.to_string()),
            "no fictitious u64::MAX bound anywhere in the exposition:\n{text}"
        );
    }
}
