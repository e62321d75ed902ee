//! `delta-stream`: writes beside reads on the same engine, caches and
//! store.
//!
//! The system is a warmed news site whose `SiteService` writes through
//! to a `PagedRepo` in a temp dir. One writer thread applies the seeded
//! schedule of [`crate::deltas`] back to back; after each delta it GETs
//! the affected page over its own connection until the new content is in
//! the body. That — delta applied → visible — is the workload's
//! operation. One reader connection runs the `warm-clicks` mix
//! throughout; its clicks are load beside the operation, reported as
//! notes (`reader.*`) and never as end-to-end figures: a single
//! connection's latency flips between two modes from run to run.
//!
//! After the window, every URL of the live service is compared,
//! byte for byte, with a fresh `SiteService` built from the harness's own
//! mirror of the final graph.
//!
//! **Known product race.** About one run in eighty, this oracle finds one
//! page stale: a reader rendered a dirty page in the instant between
//! `DynamicSite::apply_delta` bumping the epoch and replacing its cached
//! page views, and its rendition entered the HTML cache after
//! `HtmlCache::invalidate` had run. The page stays stale until a later
//! delta dirties it again, and a delta whose own page it is never becomes
//! visible. A yardstick that fails one run in eighty cannot gate
//! anything, so up to [`STALE_PAGE_ALLOWANCE`] such pages per run — and
//! the deltas stuck behind them — are reported (`stale_pages`,
//! `stuck_deltas`) but not counted as failures. More than that fails the
//! run. Fixing the race is the product's business; when it is fixed the
//! allowance should go to zero.

use crate::clicks::{self, Client, Step, Target, Worker};
use crate::deltas::Model;
use crate::http::Conn;
use crate::inputs::{news_builder, Fingerprint, InputPin, UrlSet};
use crate::mix::ClickMix;
use crate::run::{now_ns, server_config, timed_setups, Cfg, Outcome, TempDir};
use crate::spans::Recorder;
use crate::{procfs, stats};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;
use strudel::Site;
use strudel_graph::Graph;
use strudel_prng::{SeedableRng, SmallRng};
use strudel_repo::{Database, IndexLevel, PagedRepo, PagerConfig};
use strudel_schema::dynamic::Mode;
use strudel_serve::{serve, ServerHandle, SiteService};
use strudel_struql::Parallelism;

/// A warmed, store-backed news site behind the epoll server.
pub struct StoredSite {
    /// The built site (program and templates for the fresh-build oracle).
    pub site: Site,
    /// Its initial page URLs.
    pub urls: UrlSet,
    /// The live service.
    pub service: Arc<SiteService>,
    /// The running server.
    pub server: ServerHandle,
    /// The store's directory; removed on drop.
    pub store_dir: TempDir,
}

impl StoredSite {
    /// From generated pages to a warmed server writing through to a
    /// bulk-loaded paged store.
    pub fn setup(articles: usize) -> StoredSite {
        let site = news_builder(articles).build().expect("news site builds");
        let urls = UrlSet::of_news_site(&site);
        let store_dir = TempDir::new("delta-store").expect("temp dir");
        let store = PagedRepo::bulk_load(
            store_dir.path(),
            PagerConfig::default(),
            site.database.graph(),
        )
        .expect("bulk load");
        let service = Arc::new(SiteService::new(&site, Mode::Context).with_paged_store(store));
        service
            .warm(Parallelism::Threads(clicks::CONNECTIONS))
            .expect("warm-up renders every page");
        let server = serve(service.clone(), server_config()).expect("server binds");
        StoredSite {
            site,
            urls,
            service,
            server,
            store_dir,
        }
    }
}

/// A service over `graph` built from nothing but the site definition:
/// what the live service must equal.
pub fn fresh_service(site: &Site, graph: Graph) -> SiteService {
    SiteService::from_parts(
        Arc::new(Database::from_graph(graph, IndexLevel::Full)),
        &site.program,
        site.templates.clone(),
        &site.root_collection,
        Mode::Context,
    )
}

/// Compares every path of the live server with the fresh service;
/// returns one line per differing page: its path and the text around
/// the first differing byte on each side.
pub fn diff_against_fresh(
    addr: SocketAddr,
    fresh: &SiteService,
    paths: impl Iterator<Item = String>,
) -> Vec<String> {
    let Ok(mut conn) = Conn::open(addr) else {
        return vec!["<could not connect for the end-state oracle>".into()];
    };
    let around = |body: &[u8], at: usize| {
        let lo = at.saturating_sub(30);
        let hi = (at + 50).min(body.len());
        String::from_utf8_lossy(&body[lo..hi]).replace('\n', "\\n")
    };
    paths
        .filter_map(|path| {
            let expected = fresh.handle(&path);
            let want = expected.body.as_bytes();
            match conn.get(&path) {
                Ok((head, body)) if head.status == expected.status && body == want => None,
                Ok((head, body)) => {
                    let at = body
                        .iter()
                        .zip(want)
                        .position(|(a, b)| a != b)
                        .unwrap_or(body.len().min(want.len()));
                    Some(format!(
                        "{path}: status {} vs {}, at byte {at}: live `{}` fresh `{}`",
                        head.status,
                        expected.status,
                        around(body, at),
                        around(want, at)
                    ))
                }
                Err(e) => Some(format!("{path}: {e}")),
            }
        })
        .collect()
}

/// The writer: the seeded schedule, the harness's mirror of the graph,
/// and what became of each delta.
struct Writer<'a> {
    system: &'a StoredSite,
    model: Model,
    mirror: Graph,
    rng: SmallRng,
    conn: Option<Conn>,
    /// Paths of recorded deltas that never showed on their page.
    stuck: Vec<String>,
    /// Recorded deltas, and the GETs it took until they showed.
    deltas: u64,
    polls: u64,
    recorder: Recorder,
}

/// GETs after a delta before giving up on seeing it.
const MAX_POLLS: u32 = 200;

/// Stale pages per run tolerated as the known product race (see the
/// module docs).
pub const STALE_PAGE_ALLOWANCE: usize = 2;

/// Length of a slice: some twenty deltas.
const SLICE: Duration = Duration::from_millis(500);

impl Writer<'_> {
    /// One delta: apply, then poll its page until it shows.
    fn delta(&mut self, record: bool) -> Step {
        let step = self.model.next(&mut self.rng);
        let addr = self.system.server.addr();
        let rec = &mut self.recorder;
        let span = record.then(|| rec.enter("client.delta"));
        let t0 = now_ns();
        let applied = rec.time("serve.service.apply_delta", |_| {
            self.system.service.apply_delta(&step.delta).is_ok()
        });
        let mut shown = false;
        let mut polls = 0;
        while applied && !shown && polls < MAX_POLLS {
            polls += 1;
            let get = rec.enter("client.delta_visible_get");
            shown = match self.conn.as_mut().map(|c| c.roundtrip(&step.request)) {
                Some(Ok((head, body))) => head.status == 200 && step.visible_in(body),
                _ => {
                    self.conn = Conn::open(addr).ok();
                    false
                }
            };
            rec.exit(get);
        }
        let ns = now_ns() - t0;
        if let Some(s) = span {
            rec.exit(s);
        }
        if !applied {
            return Step::Failed;
        }
        step.delta
            .apply(&mut self.mirror)
            .expect("mirror takes every scheduled delta");
        if record {
            self.deltas += 1;
            self.polls += u64::from(polls);
        }
        if shown {
            Step::Done(ns)
        } else {
            // Judged after the window: stuck behind a page the known
            // race left stale, or a failure.
            if record {
                self.stuck.push(step.path);
            }
            Step::Side
        }
    }
}

/// Runs the workload.
pub fn run(cfg: &Cfg) -> Outcome {
    let articles = cfg.scale(1000, 100);
    let (system, setups) = timed_setups(cfg.setup_reps, || StoredSite::setup(articles));
    let addr = system.server.addr();
    let graph = system.site.database.graph();
    let writer_seed = cfg.seed ^ 0xde17a;
    let mix = ClickMix::new(
        &system.urls.articles,
        &system.urls.categories,
        system.urls.front,
        cfg.seed,
    );

    let pin = {
        let clicks = InputPin::of_clicks(articles, &system.urls, &mix, cfg.seed);
        let schedule = Model::new(graph, &system.urls)
            .schedule_fingerprint(&mut SmallRng::seed_from_u64(writer_seed), 200);
        let mut load = Fingerprint::default();
        load.add(&clicks.load.to_le_bytes());
        load.add(&schedule.to_le_bytes());
        InputPin {
            sources: clicks.sources,
            load: load.finish(),
        }
    };

    let mut writer = Writer {
        system: &system,
        model: Model::new(graph, &system.urls),
        mirror: graph.clone(),
        rng: SmallRng::seed_from_u64(writer_seed),
        conn: Conn::open(addr).ok(),
        stuck: Vec::new(),
        deltas: 0,
        polls: 0,
        recorder: Recorder::new(cfg.traced),
    };
    // Pages change under the reader, so it checks shape, not bytes;
    // bytes are checked against the fresh build after the window.
    let mut reader = Client::new(
        Target {
            addr,
            urls: &system.urls,
            table: None,
            mix: &mix,
            connect_per_click: false,
            span: cfg.traced.then_some(clicks::CLICK_SPAN),
        },
        cfg.seed.wrapping_add(1),
    );
    let (mut reader_ns, mut reader_failed) = (Vec::new(), 0u64);
    let workers: Vec<Worker<'_>> = vec![
        Box::new(|record| writer.delta(record)),
        Box::new(|record| {
            match reader.click(record) {
                Some(ns) if record => reader_ns.push(ns),
                None if record => reader_failed += 1,
                _ => {}
            }
            Step::Side
        }),
    ];
    let slices = clicks::drive(workers, cfg.plan(SLICE), &procfs::cpu_us_self);

    // End-state oracle: live service == fresh build from the mirror.
    let mut violations = Vec::new();
    let store_nodes = system.service.paged_store().map(|s| s.node_count());
    if store_nodes != Some(writer.mirror.node_count() as u64) {
        violations.push(format!(
            "store holds {store_nodes:?} nodes, the mirror {}",
            writer.mirror.node_count()
        ));
    }
    let fresh = fresh_service(&system.site, writer.mirror);
    let paths = system
        .urls
        .paths
        .iter()
        .cloned()
        .chain(writer.model.inserted_paths.iter().cloned());
    let differing = diff_against_fresh(addr, &fresh, paths);
    // A delta stuck behind a stale page is the race's doing (module
    // docs); any other delta that never showed is a failure.
    let stuck_other = writer
        .stuck
        .iter()
        .filter(|path| !differing.iter().any(|d| d.starts_with(path.as_str())))
        .count();
    let tolerated = differing.len() <= STALE_PAGE_ALLOWANCE;
    if !differing.is_empty() {
        eprintln!(
            "  end-state oracle: {} stale page(s){}",
            differing.len(),
            if tolerated {
                " (within the known-race allowance)"
            } else {
                ""
            }
        );
        for d in &differing {
            eprintln!("    {d}");
        }
    }
    if !tolerated {
        violations.push(format!(
            "{} pages differ from a fresh build, e.g. {}",
            differing.len(),
            differing[0]
        ));
    }
    if stuck_other > 0 {
        violations.push(format!("{stuck_other} deltas never became visible"));
    }
    if reader_failed > 0 {
        violations.push(format!("{reader_failed} reader clicks failed"));
    }

    let engine = system.service.engine().metrics();
    let window_s: f64 = slices.iter().map(|s| s.span_ns as f64 / 1e9).sum();
    reader_ns.sort_unstable();
    let notes = vec![
        ("deltas".into(), writer.deltas as f64, "count"),
        (
            "polls_per_delta".into(),
            writer.polls as f64 / writer.deltas.max(1) as f64,
            "count",
        ),
        ("reader.clicks".into(), reader_ns.len() as f64, "count"),
        (
            "reader.click_p50_us".into(),
            stats::median(&reader_ns) / 1e3,
            "us",
        ),
        (
            "reader.click_tail_us".into(),
            stats::tail(&reader_ns).1 as f64 / 1e3,
            "us",
        ),
        (
            "reader.clicks_per_s".into(),
            reader_ns.len() as f64 / window_s.max(1e-9),
            "1/s",
        ),
        (
            "engine.diff_pages_updated".into(),
            engine.diff_pages_updated as f64,
            "count",
        ),
        ("engine.evictions".into(), engine.evictions as f64, "count"),
        (
            "engine.diff_fallbacks".into(),
            engine.diff_fallbacks as f64,
            "count",
        ),
        ("stale_pages".into(), differing.len() as f64, "count"),
        ("stuck_deltas".into(), writer.stuck.len() as f64, "count"),
        (
            "wal_end_bytes".into(),
            wal_bytes(system.store_dir.path()) as f64,
            "B",
        ),
    ];
    let mut recorder = Recorder::new(true);
    recorder.absorb(writer.recorder);
    recorder.absorb(reader.recorder);
    let peak_rss_mib = procfs::peak_rss_mib_with_children();
    system.server.shutdown();
    Outcome {
        slices,
        setups,
        peak_rss_mib,
        // Bytes are the reader's; the operation is the writer's.
        bytes: 0,
        violations,
        recorder,
        notes,
        pin,
    }
}

/// Size of the paged store's write-ahead log.
pub fn wal_bytes(store_dir: &std::path::Path) -> u64 {
    std::fs::metadata(store_dir.join("pager.wal")).map_or(0, |m| m.len())
}
