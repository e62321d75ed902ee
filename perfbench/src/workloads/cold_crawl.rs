//! `cold-crawl`: every click pays guard evaluation and a template
//! render. Each round starts a fresh `SiteService` over the same built
//! site (untimed), then the two connections fetch every URL exactly
//! once, in a seeded order, from a shared cursor. A round is one slice
//! of the run: the host is probed before and after it, and only crawling
//! time counts towards the window. The reference table comes from an
//! untimed scout pass over the service that set-up left running.

use crate::clicks::{self, Plan, RefTable, Step, Worker, CONNECTIONS};
use crate::http::Conn;
use crate::inputs::{news_builder, news_corpus, Fingerprint, InputPin, UrlSet};
use crate::mix::permutation;
use crate::procfs;
use crate::run::{now_ns, server_config, timed_setups, Cfg, Outcome, Slice};
use crate::spans::Recorder;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use strudel::Site;
use strudel_prng::{SeedableRng, SmallRng};
use strudel_schema::dynamic::Mode;
use strudel_serve::{serve, ServerHandle, SiteService};

fn fresh_server(site: &Site) -> (Arc<SiteService>, ServerHandle) {
    let service = Arc::new(SiteService::new(site, Mode::Context));
    let server = serve(service.clone(), server_config()).expect("server binds");
    (service, server)
}

/// One round, which is one slice: both connections drain `order`
/// through a shared cursor, between two host probes. Returns the slice
/// and the body bytes received.
fn crawl_round(
    addr: SocketAddr,
    urls: &UrlSet,
    table: &RefTable,
    order: &[u32],
    recorders: &mut [Recorder],
) -> (Slice, u64) {
    let cursor = AtomicUsize::new(0);
    let mut bytes = vec![0u64; recorders.len()];
    let workers = recorders
        .iter_mut()
        .zip(&mut bytes)
        .map(|(rec, bytes)| {
            let cursor = &cursor;
            let mut conn = Conn::open(addr).ok();
            Box::new(move |_record| {
                let Some(&url) = order.get(cursor.fetch_add(1, Ordering::Relaxed)) else {
                    return Step::Exhausted;
                };
                let span = rec.enter(clicks::CLICK_SPAN);
                let t0 = now_ns();
                let ok = conn.as_mut().is_some_and(|c| {
                    c.roundtrip(&urls.requests[url as usize])
                        .is_ok_and(|(head, body)| {
                            *bytes += body.len() as u64;
                            head.keep_alive && table.accepts(url, &head, body)
                        })
                });
                let ns = now_ns() - t0;
                rec.exit(span);
                if ok {
                    Step::Done(ns)
                } else {
                    conn = Conn::open(addr).ok();
                    Step::Failed
                }
            }) as Worker<'_>
        })
        .collect();
    // One slice that ends when the cursor runs out, not by the clock.
    let plan = Plan {
        warmup: Duration::ZERO,
        window: Duration::ZERO,
        slice: Duration::from_secs(3600),
    };
    let mut slices = clicks::drive(workers, plan, &procfs::cpu_us_self);
    (
        slices.pop().expect("one slice per round"),
        bytes.iter().sum(),
    )
}

/// Rounds run and dropped before the first recorded one.
const WARMUP_ROUNDS: usize = 2;

/// Runs the workload.
///
/// Peak memory is read after the scout pass: the built site plus one
/// service that has rendered and cached every page once. Every further
/// round's fresh service leaves ≈5 MiB more resident (reported as the
/// note `rss_growth_mib_per_round`), so the high-water mark at the end of
/// the window grows with the number of rounds — with the host's speed.
pub fn run(cfg: &Cfg) -> Outcome {
    let articles = cfg.scale(2000, 100);
    // Set-up: inputs → built site → the first listening (cold) service.
    let ((site, urls, first), setups) = timed_setups(cfg.setup_reps, || {
        let site = news_builder(articles).build().expect("news site builds");
        let urls = UrlSet::of_news_site(&site);
        let first = fresh_server(&site);
        (site, urls, first)
    });
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0xc01d);
    // The seeded part of the load is the crawl order.
    let pin = {
        let mut sources = Fingerprint::default();
        sources.add_pages(&news_corpus(articles));
        let mut load = Fingerprint::default();
        load.add(&urls.fingerprint().to_le_bytes());
        for u in permutation(urls.len(), &mut rng.clone()) {
            load.add(&u.to_le_bytes());
        }
        InputPin {
            sources: sources.finish(),
            load: load.finish(),
        }
    };

    // Scout pass on the service set-up left running: one connection,
    // every URL once, so these bodies are cold renders too.
    let table = RefTable::scout(first.1.addr(), &urls).expect("scout pass");
    let peak_rss_mib = procfs::peak_rss_mib_with_children();
    first.1.shutdown();
    drop(first.0);

    let mut violations = Vec::new();
    let mut recorders: Vec<Recorder> = (0..CONNECTIONS)
        .map(|_| Recorder::new(cfg.traced))
        .collect();
    let mut slices: Vec<Slice> = Vec::new();
    let mut bytes = 0u64;
    let (mut rows, mut queries) = (0usize, 0usize);
    let mut measured = Duration::ZERO;
    let mut rounds = 0;
    while measured < cfg.window {
        let (service, server) = fresh_server(&site);
        let order = permutation(urls.len(), &mut rng);
        let (slice, got) = crawl_round(server.addr(), &urls, &table, &order, &mut recorders);
        let cache = service.cache().stats();
        if cache.hits > 0 {
            // Each URL is asked for once per service, so a hit means the
            // round was not cold.
            violations.push(format!("{} cache hits in a cold crawl round", cache.hits));
        }
        rounds += 1;
        if rounds > WARMUP_ROUNDS {
            measured += Duration::from_nanos(slice.span_ns);
            slices.push(slice);
            bytes += got;
            let engine = service.engine().metrics();
            rows += engine.rows_produced;
            queries += engine.queries_run;
        }
        server.shutdown();
    }
    let mut recorder = Recorder::new(true);
    for rec in recorders {
        recorder.absorb(rec);
    }
    Outcome {
        notes: vec![
            ("urls".into(), urls.len() as f64, "count"),
            ("rounds".into(), slices.len() as f64, "count"),
            (
                "rss_growth_mib_per_round".into(),
                (procfs::peak_rss_mib_with_children() - peak_rss_mib) / rounds as f64,
                "MiB",
            ),
            ("engine.queries_run".into(), queries as f64, "count"),
            ("engine.rows_produced".into(), rows as f64, "count"),
        ],
        slices,
        setups,
        peak_rss_mib,
        bytes,
        violations,
        recorder,
        pin,
    }
}
