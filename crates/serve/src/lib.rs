//! # strudel-serve
//!
//! A concurrent click-time site server — the §7 future-work direction
//! ("compute pages dynamically at click time") built on the site-schema
//! engine of `strudel-schema`.
//!
//! The static pipeline materializes a whole site up front; this crate
//! serves the *same pages* on demand instead. One shared
//! [`DynamicSite`] engine answers every worker thread; the rendered
//! HTML sits in an epoch-fenced [`HtmlCache`] keyed by stable,
//! restart-surviving URLs ([`router`]); a data delta applied through
//! [`SiteService::apply_delta`] evicts exactly the dirtied pages —
//! everything else keeps serving from cache. Request counters and
//! latency histograms are exposed on `/metrics` ([`metrics`]).
//!
//! Routes:
//!
//! ```text
//! /                 index of root pages
//! /page/<Sym>/<a>…  one dynamic page (see router for segment syntax)
//! /data/<n:…|o:…>   raw data-graph object view
//! /metrics          Prometheus-style counters
//! /debug/trace      strudel-trace snapshot + slow-request log
//! /debug/explain    per-edge plan estimates vs actuals for the roots
//! /debug/explain/<Sym>/<a>…   …for one specific page
//! ```
//!
//! Every request draws a trace id and, while tracing is enabled
//! (`STRUDEL_TRACE=1` or [`strudel_trace::set_enabled`]), logs a
//! `serve.request` event; requests slower than the configurable
//! threshold land in a bounded slow-request log regardless of the
//! tracing flag.
//!
//! [`DynamicSite`]: strudel_schema::dynamic::DynamicSite

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod cluster;
pub mod crawl;
mod event;
pub mod metrics;
pub mod proto;
pub mod render;
pub mod router;
pub mod server;

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

pub use cache::{CachedPage, HtmlCache};
pub use cluster::{ClusterConfig, ClusterDeltaOutcome, ClusterService};
pub use metrics::{
    CacheSnapshot, InlineDecline, InlineSnapshot, RouteSnapshot, ServerMetrics, ServerStats,
    TransportCounters,
};
pub use server::{serve, ClickService, ServerConfig, ServerHandle, Transport, WarmHit};

use strudel_graph::GraphDelta;
use strudel_repo::{Database, PagedRepo};
use strudel_schema::dynamic::{DynamicSite, InvalidationOutcome, Mode, PageKey};
use strudel_struql::{Parallelism, Program, StruqlError};
use strudel_template::{TemplateError, TemplateSet};

/// Anything that can go wrong while serving.
#[derive(Debug)]
pub enum ServeError {
    /// Query evaluation failed.
    Struql(StruqlError),
    /// Template rendering failed.
    Template(TemplateError),
    /// Socket-level failure.
    Io(std::io::Error),
    /// A page the site never creates: its symbol exists, but no schema
    /// edge or collect derives its arguments (a 404).
    NoSuchPage,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Struql(e) => write!(f, "query evaluation: {e}"),
            ServeError::Template(e) => write!(f, "template rendering: {e}"),
            ServeError::Io(e) => write!(f, "i/o: {e}"),
            ServeError::NoSuchPage => f.write_str("no such page"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<strudel_repo::RepoError> for ServeError {
    fn from(e: strudel_repo::RepoError) -> Self {
        ServeError::Io(std::io::Error::other(e.to_string()))
    }
}

impl From<StruqlError> for ServeError {
    fn from(e: StruqlError) -> Self {
        ServeError::Struql(e)
    }
}

impl From<TemplateError> for ServeError {
    fn from(e: TemplateError) -> Self {
        ServeError::Template(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// One HTTP response, transport-agnostic.
#[derive(Clone, Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
    /// Served from a last-known-good cache while the owning worker is
    /// down; emitted on the wire as `X-Strudel-Degraded: stale`.
    pub degraded: bool,
}

/// The `Content-Type` of every rendered page.
const HTML_CONTENT_TYPE: &str = "text/html; charset=utf-8";
/// The `Content-Type` of every status message and report.
const TEXT_CONTENT_TYPE: &str = "text/plain; charset=utf-8";

impl Response {
    /// The one place a fresh response is put together: every page,
    /// report, refusal, timeout and `503` a front or the reactor
    /// answers. (Only the router's last-known-good copies are degraded.)
    fn new(status: u16, content_type: &'static str, body: String) -> Self {
        Response {
            status,
            content_type,
            body,
            degraded: false,
        }
    }

    fn html(body: String) -> Self {
        Self::new(200, HTML_CONTENT_TYPE, body)
    }

    fn text(body: String) -> Self {
        Self::status_text(200, body)
    }

    /// A plain-text message under any status.
    fn status_text(status: u16, body: String) -> Self {
        Self::new(status, TEXT_CONTENT_TYPE, body)
    }

    fn not_found(path: &str) -> Self {
        let path = strudel_template::escape_html(path);
        let body = format!("<html><body><h1>404</h1><p>no page at {path}</p></body></html>\n");
        Self::new(404, HTML_CONTENT_TYPE, body)
    }

    /// The `500` page; `detail` is already HTML.
    fn server_error(detail: &str) -> Self {
        let body = format!("<html><body><h1>500</h1>{detail}</body></html>\n");
        Self::new(500, HTML_CONTENT_TYPE, body)
    }

    fn error(e: &ServeError) -> Self {
        let message = strudel_template::escape_html(&e.to_string());
        Self::server_error(&format!("<pre>{message}</pre>"))
    }
}

/// What a front's [`ClickService::warm`] did.
#[derive(Clone, Copy, Debug, Default)]
pub struct WarmupReport {
    /// Pages warmed: `/page/` URLs rendered into the HTML cache, or for
    /// the router, URLs whose last-known-good copy it primed.
    pub pages: usize,
    /// Breadth-first levels of the crawl from `/` ([`crawl::Crawl`]).
    pub levels: usize,
    /// Wall-clock time spent warming, in microseconds.
    pub elapsed_us: u64,
}

/// The result of applying a delta to a live service.
#[derive(Clone, Debug)]
pub struct ServiceInvalidation {
    /// The engine-level outcome (dirty set, evicted page views).
    pub engine: InvalidationOutcome,
    /// Rendered-HTML cache entries evicted (direct + dependents).
    pub html_evicted: usize,
}

/// The write gate of a front: the single-writer lock and the optional
/// durable store behind it. Every `apply_delta` enters through
/// [`DeltaGate::commit`] and every `/readyz` is answered by
/// [`DeltaGate::readyz`], so the three rules live here once — a
/// poisoned lock is taken anyway, the store commits before any engine
/// swaps, and a poisoned store is `503` on `/readyz` while reads keep
/// serving.
pub(crate) struct DeltaGate {
    writer: Mutex<()>,
    store: Option<PagedRepo>,
}

impl DeltaGate {
    pub(crate) fn new(store: Option<PagedRepo>) -> Self {
        DeltaGate {
            writer: Mutex::new(()),
            store,
        }
    }

    /// Enters the single-writer section — concurrent deltas serialize
    /// here, so one delta's swap-and-invalidate can never interleave
    /// with another's and resurrect an evicted rendition —
    /// and commits `delta` durably before the caller touches an engine.
    /// A poisoned lock is taken anyway: the guard carries no state, and
    /// a panicked predecessor must not wedge every later delta.
    /// Durability first: the store validates and commits (WAL append)
    /// before any in-memory snapshot swaps, so a crash never loses an
    /// applied delta.
    pub(crate) fn commit(&self, delta: &GraphDelta) -> Result<MutexGuard<'_, ()>, ServeError> {
        let writer = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(store) = &self.store {
            store.apply_delta(delta)?;
        }
        Ok(writer)
    }

    pub(crate) fn store(&self) -> Option<&PagedRepo> {
        self.store.as_ref()
    }

    /// Whether an earlier write failure poisoned the attached store.
    /// Reads keep serving committed state; readiness reports 503 so a
    /// supervisor can recycle this process.
    pub(crate) fn is_poisoned(&self) -> bool {
        self.store.as_ref().is_some_and(|s| s.is_poisoned())
    }

    /// The `/readyz` response: `200` while this front can both serve
    /// and accept writes, `503` once its store is poisoned or — for a
    /// front over a `fleet` of `(ready, total)` workers — while any
    /// worker is not ready. Still serving reads either way; the
    /// supervisor decides when to recycle.
    pub(crate) fn readyz(&self, fleet: Option<(usize, usize)>) -> Response {
        let poisoned = self.is_poisoned();
        if !poisoned && fleet.map_or(true, |(ready, total)| ready == total) {
            return Response::text("ready\n".into());
        }
        let mut reasons = Vec::new();
        if let Some((ready, total)) = fleet {
            reasons.push(format!("workers {ready}/{total} ready"));
        }
        if poisoned {
            reasons.push("store poisoned".to_owned());
        }
        Response::status_text(503, format!("{}\n", reasons.join(", ")))
    }
}

/// One request that took longer than the slow threshold.
#[derive(Clone, Debug)]
pub struct SlowRequest {
    /// The request's trace id (issued even while tracing is disabled).
    pub trace_id: u64,
    /// The requested path.
    pub path: String,
    /// Response status code.
    pub status: u16,
    /// Wall-clock time spent serving, microseconds.
    pub us: u64,
}

/// A fault injected at a request path, for robustness tests: the armed
/// path panics or stalls inside dispatch, exercising the server's panic
/// isolation and backlog shedding without touching production routes.
#[derive(Clone, Copy, Debug)]
pub enum FaultProbe {
    /// The request panics mid-dispatch.
    Panic,
    /// The request sleeps this long before dispatching.
    Stall(Duration),
}

/// How many slow requests the log retains (oldest dropped first).
pub const SLOW_LOG_CAPACITY: usize = 64;

/// Default slow-request threshold: half a second.
pub const DEFAULT_SLOW_THRESHOLD_US: u64 = 500_000;

/// A servable site: the shared click-time engine, the site's templates,
/// the rendered-page cache, and the metric registry. All methods take
/// `&self`; wrap it in an [`Arc`] and hand it to any number of workers.
pub struct SiteService {
    engine: DynamicSite,
    templates: TemplateSet,
    /// The templates' §2.4 choice, resolved per page symbol.
    choice: render::PageTemplates,
    root_collection: String,
    cache: HtmlCache,
    metrics: ServerMetrics,
    /// Requests at or above this many microseconds are logged; 0 disables.
    slow_threshold_us: AtomicU64,
    slow_total: AtomicU64,
    slow_log: Mutex<VecDeque<SlowRequest>>,
    /// The transport's books while this service is the front handed to
    /// [`serve`], and the panics its own [`SiteService::handle`] caught.
    transport: TransportCounters,
    /// Page requests [`SiteService::try_warm`] declined, indexed by
    /// [`InlineDecline`].
    inline_declined: [AtomicU64; InlineDecline::ALL.len()],
    /// Fast-path flag so unprobed services never lock the probe table.
    probes_armed: AtomicBool,
    probes: Mutex<HashMap<String, FaultProbe>>,
    /// The single delta writer and the optional durable paged store
    /// kept write-through consistent with the engine.
    gate: DeltaGate,
}

impl SiteService {
    /// Builds a service from loose parts (database snapshot, parsed
    /// site-definition query, templates, root collection).
    pub fn from_parts(
        db: Arc<Database>,
        program: &Program,
        templates: TemplateSet,
        root_collection: &str,
        mode: Mode,
    ) -> Self {
        let engine = DynamicSite::new(db, program, mode);
        SiteService {
            choice: render::PageTemplates::new(&engine, &templates),
            engine,
            templates,
            root_collection: root_collection.to_owned(),
            cache: HtmlCache::new(),
            metrics: ServerMetrics::new(),
            slow_threshold_us: AtomicU64::new(DEFAULT_SLOW_THRESHOLD_US),
            slow_total: AtomicU64::new(0),
            slow_log: Mutex::new(VecDeque::new()),
            transport: TransportCounters::default(),
            inline_declined: Default::default(),
            probes_armed: AtomicBool::new(false),
            probes: Mutex::new(HashMap::new()),
            gate: DeltaGate::new(None),
        }
    }

    /// Attaches a paged store ([`strudel_repo::PagedRepo`]) that
    /// [`SiteService::apply_delta`] keeps write-through consistent: every
    /// delta commits to the store's WAL before the engine's snapshot
    /// swaps.
    pub fn with_paged_store(mut self, store: PagedRepo) -> Self {
        self.gate = DeltaGate::new(Some(store));
        self
    }

    /// The attached paged store, if any.
    pub fn paged_store(&self) -> Option<&PagedRepo> {
        self.gate.store()
    }

    /// Builds a service from a built [`strudel::Site`].
    pub fn new(site: &strudel::Site, mode: Mode) -> Self {
        Self::from_parts(
            site.database.clone(),
            &site.program,
            site.templates.clone(),
            &site.root_collection,
            mode,
        )
    }

    /// Sets the slow-request threshold in microseconds (builder form).
    /// `0` disables the log.
    pub fn with_slow_threshold_us(self, us: u64) -> Self {
        self.set_slow_threshold_us(us);
        self
    }

    /// Sets the slow-request threshold in microseconds; `0` disables the
    /// log. Takes effect for subsequent requests.
    pub fn set_slow_threshold_us(&self, us: u64) {
        self.slow_threshold_us.store(us, Ordering::Relaxed);
    }

    /// The current slow-request threshold, microseconds (`0` = disabled).
    pub fn slow_threshold_us(&self) -> u64 {
        self.slow_threshold_us.load(Ordering::Relaxed)
    }

    /// The retained slow requests, oldest first (bounded by
    /// [`SLOW_LOG_CAPACITY`]).
    pub fn slow_requests(&self) -> Vec<SlowRequest> {
        self.slow_log.lock().unwrap().iter().cloned().collect()
    }

    /// Total requests that exceeded the slow threshold (not bounded by
    /// the log capacity).
    pub fn slow_requests_total(&self) -> u64 {
        self.slow_total.load(Ordering::Relaxed)
    }

    /// The shared click-time engine.
    pub fn engine(&self) -> &DynamicSite {
        &self.engine
    }

    /// The rendered-HTML cache.
    pub fn cache(&self) -> &HtmlCache {
        &self.cache
    }

    /// The site's templates.
    pub fn templates(&self) -> &TemplateSet {
        &self.templates
    }

    /// The collection naming the site's root pages.
    pub fn root_collection(&self) -> &str {
        &self.root_collection
    }

    /// The stable URL of a page (for crawlers and tests).
    pub fn url_of(&self, key: &PageKey) -> String {
        self.engine.with_database(|db| router::page_path(key, db.graph()))
    }

    /// Serves one request path, recording route metrics. Never panics on
    /// hostile paths: malformed URLs are 404s, render failures 500s, and
    /// a panic escaping a handler is caught here — the request answers
    /// 500, `strudel_panics_total` ticks, and the worker keeps serving.
    ///
    /// Every request draws a trace id; while tracing is enabled a
    /// `serve.request` span and event are recorded, and a request at or
    /// above the slow threshold lands in the slow-request log either way.
    pub fn handle(&self, path: &str) -> Response {
        let start = Instant::now();
        let trace_id = strudel_trace::next_trace_id();
        let span = strudel_trace::span("serve.request");
        // Strip any query string; routing is path-only.
        let routed = path.split('?').next().unwrap_or(path);
        let (route, response) = catch_unwind(AssertUnwindSafe(|| self.dispatch(routed)))
            .unwrap_or_else(|_| {
                self.transport.note_panic();
                let response = Response::server_error("<p>internal error</p>");
                ("panic".into(), response)
            });
        drop(span);
        self.finish_request(start, trace_id, &route, routed, response.status);
        response
    }

    /// Answers a `/page/…` request from the HTML cache, or declines —
    /// the [`ClickService::try_warm`] fast path the epoll reactor runs on
    /// its own thread, so it waits for nothing a delta, a render or an
    /// invalidation can hold. It touches exactly: the engine's database
    /// lock through `try_read` (a delta keeps it write-locked from its
    /// apply until it has patched its dirty pages — hence *try*), the
    /// page's cache shard
    /// through `try_read` ([`HtmlCache::try_get`]; a render's insert or
    /// an invalidation holds it for writing), and the route histogram's
    /// read lock — beyond those only the push-sized critical sections of
    /// the slow-request log (a hit at or over the threshold) and of the
    /// tracer (while tracing is enabled). Every other route, an armed
    /// [`FaultProbe`], a delta in flight, a cache miss and a contended
    /// shard are `None`; the last four are counted by reason. A hit
    /// records the route histogram, trace id and `serve.request` span
    /// exactly as [`SiteService::handle`] would have.
    pub fn try_warm(&self, path: &str) -> Option<WarmHit> {
        let routed = path.split('?').next().unwrap_or(path);
        if !routed.starts_with("/page/") {
            return None;
        }
        let start = Instant::now();
        let span = strudel_trace::span("serve.request");
        match self.lookup_inline(routed) {
            Ok((key, page)) => {
                drop(span);
                let route = format!("page/{}", key.symbol);
                self.finish_request(start, strudel_trace::next_trace_id(), &route, routed, 200);
                Some(WarmHit {
                    content_type: HTML_CONTENT_TYPE,
                    body: page.html,
                })
            }
            Err(reason) => {
                // Not a request yet: `handle` opens its own span.
                span.cancel();
                self.inline_declined[reason as usize].fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn lookup_inline(&self, routed: &str) -> Result<(PageKey, CachedPage), InlineDecline> {
        if self.probes_armed.load(Ordering::Acquire) {
            return Err(InlineDecline::Probe);
        }
        let key = self
            .engine
            .try_with_database(|db| router::parse_page_path(routed, db.graph()))
            .ok_or(InlineDecline::DeltaInFlight)?
            .ok_or(InlineDecline::Miss)?;
        let page = self.cache.try_get(&key)?;
        Ok((key, page))
    }

    /// The request epilogue shared by [`SiteService::handle`] and
    /// [`SiteService::try_warm`]: route histogram, `serve.request`
    /// event, slow-request log.
    fn finish_request(
        &self,
        start: Instant,
        trace_id: u64,
        route: &str,
        routed: &str,
        status: u16,
    ) {
        let us = start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        self.metrics.record(route, us);
        strudel_trace::event_with("serve.request", || {
            format!("id={trace_id} route={route} status={status} us={us}")
        });
        let threshold = self.slow_threshold_us.load(Ordering::Relaxed);
        if threshold > 0 && us >= threshold {
            self.slow_total.fetch_add(1, Ordering::Relaxed);
            let mut log = self.slow_log.lock().unwrap();
            if log.len() == SLOW_LOG_CAPACITY {
                log.pop_front();
            }
            log.push_back(SlowRequest {
                trace_id,
                path: routed.to_owned(),
                status,
                us,
            });
        }
    }

    /// Arms a [`FaultProbe`] on an exact request path. Test hook: the
    /// next requests for `path` panic or stall inside dispatch.
    pub fn arm_probe(&self, path: &str, probe: FaultProbe) {
        self.probes.lock().unwrap().insert(path.to_owned(), probe);
        self.probes_armed.store(true, Ordering::Release);
    }

    /// Removes every armed [`FaultProbe`].
    pub fn clear_probes(&self) {
        self.probes.lock().unwrap().clear();
        self.probes_armed.store(false, Ordering::Release);
    }

    /// Where requests were answered: inline hits, declines by reason,
    /// and requests that went through [`SiteService::handle`]. An inline
    /// hit is exactly a hit of [`HtmlCache::try_get`], and every request
    /// — a `handle` call or an inline hit — is counted once by the route
    /// metrics, so the pool's share is the difference.
    pub fn inline_stats(&self) -> InlineSnapshot {
        let hits = self.cache.stats().published_hits;
        InlineSnapshot {
            hits,
            declined: std::array::from_fn(|i| self.inline_declined[i].load(Ordering::Relaxed)),
            pool_dispatches: self.metrics.totals().requests.saturating_sub(hits),
        }
    }

    /// If a probe is armed on `path`, fire it. The lock is released
    /// before a `Panic` probe fires so the probe table never poisons.
    fn check_probe(&self, path: &str) {
        if !self.probes_armed.load(Ordering::Acquire) {
            return;
        }
        let probe = self.probes.lock().unwrap().get(path).copied();
        match probe {
            Some(FaultProbe::Panic) => panic!("injected fault probe at {path}"),
            Some(FaultProbe::Stall(d)) => std::thread::sleep(d),
            None => {}
        }
    }

    fn dispatch(&self, path: &str) -> (String, Response) {
        self.check_probe(path);
        if path == "/" {
            let r = match render::render_roots_index(&self.engine, &self.root_collection) {
                Ok(html) => Response::html(html),
                Err(e) => Response::error(&e),
            };
            return ("front".into(), r);
        }
        if path == "/metrics" {
            return ("metrics".into(), Response::text(self.stats().to_text()));
        }
        if path == "/healthz" {
            // Liveness: the process answers requests at all. Readiness
            // below is the one that degrades.
            return ("healthz".into(), Response::text("ok\n".into()));
        }
        if path == "/readyz" {
            return ("readyz".into(), self.gate.readyz(None));
        }
        if path == "/debug/trace" {
            return ("debug/trace".into(), Response::text(self.debug_trace_text()));
        }
        if path == "/debug/explain" || path.starts_with("/debug/explain/") {
            let r = match self.debug_explain_text(path) {
                Ok(Some(text)) => Response::text(text),
                Ok(None) => Response::not_found(path),
                Err(e) => Response::error(&e),
            };
            return ("debug/explain".into(), r);
        }
        if path.starts_with("/page/") {
            let Some(key) = self.page_key(path) else {
                return ("not_found".into(), Response::not_found(path));
            };
            let response = self.serve_page(&key, path);
            let route = match response.status {
                404 => "not_found".into(),
                _ => format!("page/{}", key.symbol),
            };
            return (route, response);
        }
        if path.starts_with("/data/") {
            let r = match self.render_data(path) {
                None => return ("not_found".into(), Response::not_found(path)),
                Some(Ok(page)) => Response::html(page.html.to_string()),
                Some(Err(e)) => Response::error(&e),
            };
            return ("data".into(), r);
        }
        ("not_found".into(), Response::not_found(path))
    }

    /// The page a `/page/` path names, if it parses to a symbol of the
    /// site schema.
    fn page_key(&self, path: &str) -> Option<PageKey> {
        let key = self
            .engine
            .with_database(|db| router::parse_page_path(path, db.graph()))?;
        self.engine.schema().node_index(&key.symbol)?;
        Some(key)
    }

    /// Renders the data object a `/data/` path names; `None` if it names
    /// none. Data views are not cached.
    fn render_data(&self, path: &str) -> Option<Result<CachedPage, ServeError>> {
        let oid = self
            .engine
            .with_database(|db| router::parse_data_path(path, db.graph()))?;
        let data = render::Object::Data(oid);
        let rendered = render::render(&self.engine, &self.templates, &self.choice, data);
        Some(rendered)
    }

    fn serve_page(&self, key: &PageKey, path: &str) -> Response {
        if let Some(cached) = self.cache.get(key) {
            return Response::html(cached.html.to_string());
        }
        match self.render_and_cache(key) {
            Ok((_, html)) => Response::html(html),
            Err(ServeError::NoSuchPage) => Response::not_found(path),
            Err(e) => Response::error(&e),
        }
    }

    /// Renders `key` and inserts the rendition into the HTML cache,
    /// epoch-fenced: the epoch is read *before* rendering, so if a delta
    /// lands mid-render the insert is dropped and the next request
    /// re-renders fresh. Returns the rendition either way.
    pub fn render_into_cache(&self, key: &PageKey) -> Result<CachedPage, ServeError> {
        self.render_and_cache(key).map(|(cached, _)| cached)
    }

    /// [`SiteService::render_into_cache`], answering the HTML also as the
    /// `String` it was rendered into: the response takes that, and only
    /// the cache's copy is made.
    fn render_and_cache(&self, key: &PageKey) -> Result<(CachedPage, String), ServeError> {
        // The epoch alone: a snapshot kept for the length of a render
        // would make a delta landing mid-render copy the engine's database.
        let epoch = self.engine.epoch();
        let page = render::Object::Page(key);
        let (html, deps) = render::render_html(&self.engine, &self.templates, &self.choice, page)?;
        let cached = CachedPage {
            html: html.as_str().into(),
            deps,
        };
        self.cache.insert_if(key.clone(), cached.clone(), || {
            self.engine.epoch() == epoch
        });
        Ok((cached, html))
    }

    /// Pre-renders the served site into the HTML cache: the
    /// [`crawl::crawl`] from `/`, each `/page/` URL rendered into the
    /// cache and each `/data/` URL rendered only to follow its links.
    /// After warmup, first hits serve straight from cache instead of
    /// paying click-time evaluation. The crawl is not a client: it books
    /// no request and no cache miss. `_parallelism` is ignored — the
    /// crawl runs on the calling thread; the argument goes when the
    /// perfbench harness stops passing it (ROADMAP item 1).
    ///
    /// Safe to run on a live service: inserts are epoch-fenced, so a
    /// delta applied mid-warmup simply drops the stale renditions.
    pub fn warm(&self, _parallelism: Parallelism) -> Result<WarmupReport, ServeError> {
        let start = Instant::now();
        let site = crawl::crawl(|url| self.prerender(url))?;
        Ok(WarmupReport {
            pages: site.urls.iter().filter(|u| u.starts_with("/page/")).count(),
            levels: site.levels,
            elapsed_us: start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64,
        })
    }

    /// One URL of the warm-up crawl, rendered as [`SiteService::handle`]
    /// would answer it; `None` for a URL that answers no page.
    fn prerender(&self, url: &str) -> Result<Option<Arc<str>>, ServeError> {
        if url == "/" {
            let html = render::render_roots_index(&self.engine, &self.root_collection)?;
            return Ok(Some(html.into()));
        }
        let rendered = match self.page_key(url) {
            Some(key) => Some(self.render_into_cache(&key)),
            None => self.render_data(url),
        };
        match rendered {
            Some(Ok(page)) => Ok(Some(page.html)),
            None | Some(Err(ServeError::NoSuchPage)) => Ok(None),
            Some(Err(e)) => Err(e),
        }
    }

    /// Applies a data-graph delta: commits it to the store, if any, applies
    /// it to the engine's database in place, and evicts exactly the
    /// dirtied pages from both caches (the HTML
    /// cache also follows rendition dependencies). Concurrent requests
    /// keep serving throughout.
    pub fn apply_delta(&self, delta: &GraphDelta) -> Result<ServiceInvalidation, ServeError> {
        let _writer = self.gate.commit(delta)?;
        let engine = self.engine.apply_delta(delta)?;
        let html_evicted = self.cache.invalidate(&engine.dirty);
        Ok(ServiceInvalidation {
            engine,
            html_evicted,
        })
    }

    /// Whether an earlier write failure poisoned the attached store
    /// (`/readyz` answers 503 from then on).
    pub fn store_poisoned(&self) -> bool {
        self.gate.is_poisoned()
    }

    /// The `/debug/trace` body: the global trace snapshot (spans,
    /// counters, recent events) followed by the slow-request log.
    pub fn debug_trace_text(&self) -> String {
        use std::fmt::Write;
        let mut out = strudel_trace::snapshot().render_text();
        let slow = self.slow_requests();
        let _ = write!(
            out,
            "\n# slow requests (threshold={}us, total={}, showing {})\n",
            self.slow_threshold_us(),
            self.slow_requests_total(),
            slow.len()
        );
        for s in &slow {
            let _ = writeln!(out, "[{}] {} {}us {}", s.trace_id, s.status, s.us, s.path);
        }
        out
    }

    /// The `/debug/explain` body. With no page suffix, explains every
    /// root page; with `/debug/explain/<Sym>/<args…>` (page-path segment
    /// syntax), explains that one page. `Ok(None)` means the suffix did
    /// not parse or names an unknown symbol (a 404).
    fn debug_explain_text(&self, path: &str) -> Result<Option<String>, ServeError> {
        let suffix = path.strip_prefix("/debug/explain").unwrap_or(path);
        let keys: Vec<PageKey> = if suffix.is_empty() || suffix == "/" {
            self.engine.roots(&self.root_collection)?
        } else {
            let Some(key) = self.page_key(&format!("/page{suffix}")) else {
                return Ok(None);
            };
            vec![key]
        };
        let mut out = String::new();
        for key in &keys {
            out.push_str(&self.explain_page_text(key)?);
            out.push('\n');
        }
        Ok(Some(out))
    }

    /// Renders one page's explain report: per out-edge, the chosen plan's
    /// estimates against measured rows and timings.
    pub fn explain_page_text(&self, key: &PageKey) -> Result<String, ServeError> {
        use std::fmt::Write;
        let edges = self.engine.explain(key)?;
        let mut out = format!("# explain {} ({} edges)\n", self.url_of(key), edges.len());
        for e in &edges {
            let _ = writeln!(out, "edge -{}-> {}", e.label, e.target);
            out.push_str(&e.report.render_text());
        }
        Ok(out)
    }

    /// Everything `/metrics` reports, as a struct.
    pub fn stats(&self) -> ServerStats {
        ServerStats::assemble(
            &self.metrics,
            &self.transport,
            Some(self),
            self.engine.epoch(),
            self.gate.is_poisoned(),
        )
    }
}

impl ClickService for SiteService {
    fn handle(&self, path: &str) -> Response {
        SiteService::handle(self, path)
    }
    fn try_warm(&self, path: &str) -> Option<WarmHit> {
        SiteService::try_warm(self, path)
    }
    fn warm(&self, parallelism: Parallelism) -> Result<WarmupReport, ServeError> {
        SiteService::warm(self, parallelism)
    }
    fn transport(&self) -> Option<&TransportCounters> {
        Some(&self.transport)
    }
}

/// One [`SiteService`] under the name of the deleted in-process sharded
/// front. It exists only so the benchmark harness's `serve.shard.*`
/// rungs still build; they time the one core. It forwards the four calls
/// those rungs make and nothing else, and goes when the rungs do.
#[doc(hidden)]
pub struct ShardedService(SiteService);

impl ShardedService {
    #[doc(hidden)]
    pub fn new(site: &strudel::Site, mode: Mode, _shards: usize) -> Self {
        ShardedService(SiteService::new(site, mode))
    }

    #[doc(hidden)]
    pub fn warm(&self, parallelism: Parallelism) -> Result<WarmupReport, ServeError> {
        self.0.warm(parallelism)
    }

    #[doc(hidden)]
    pub fn handle(&self, path: &str) -> Response {
        self.0.handle(path)
    }

    #[doc(hidden)]
    pub fn apply_delta(&self, delta: &GraphDelta) -> Result<ServiceInvalidation, ServeError> {
        self.0.apply_delta(delta)
    }
}
