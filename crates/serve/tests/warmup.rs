//! Cold-cache warmup: `SiteService::warm` pre-renders every page the
//! site links from `/`, byte-identical to cold click-time rendering, and
//! books no request and no cache miss.

use strudel::sites::news_site;
use strudel_schema::dynamic::Mode;
use strudel_serve::crawl::site_urls;
use strudel_serve::SiteService;
use strudel_struql::Parallelism;
use strudel_workload::news::{generate, NewsConfig};

fn service() -> SiteService {
    let corpus = generate(&NewsConfig {
        articles: 30,
        ..Default::default()
    });
    let site = news_site(&corpus.pages).build().unwrap();
    SiteService::new(&site, Mode::Context)
}

/// Every URL of the site, via the service's own router.
fn all_urls(service: &SiteService) -> Vec<String> {
    site_urls(|url| service.handle(url))
}

#[test]
fn warm_prerenders_every_reachable_page() {
    let svc = service();
    let report = svc.warm(Parallelism::Sequential).unwrap();
    assert!(report.pages >= 10, "warmed a real site: {report:?}");
    assert!(report.levels >= 2, "roots plus at least one child level");
    assert_eq!(svc.cache().len(), report.pages);

    // Every subsequent page fetch is a cache hit: no new misses.
    let urls = all_urls(&svc);
    let misses_after_warm = svc.cache().stats().misses;
    for url in urls.iter().filter(|u| u.starts_with("/page/")) {
        assert_eq!(svc.handle(url).status, 200, "{url}");
    }
    assert_eq!(
        svc.cache().stats().misses,
        misses_after_warm,
        "warmed pages never miss"
    );
}

#[test]
fn warm_leaves_the_request_books_alone() {
    let svc = service();
    svc.warm(Parallelism::Sequential).unwrap();
    // The `/metrics` body is assembled before its own request is booked.
    let metrics = svc.handle("/metrics").body;
    for row in [
        "strudel_requests_total 0",
        "strudel_html_cache_misses_total 0",
    ] {
        assert!(metrics.lines().any(|l| l == row), "{row}:\n{metrics}");
    }
}

#[test]
fn warmed_pages_match_cold_rendering_bytes() {
    let cold = service();
    let warm = service();
    warm.warm(Parallelism::Sequential).unwrap();
    for url in all_urls(&cold) {
        let reference = cold.handle(&url);
        assert_eq!(reference.status, 200, "{url}");
        assert_eq!(warm.handle(&url).body, reference.body, "{url}");
    }
}

#[test]
fn warm_is_idempotent() {
    let svc = service();
    let first = svc.warm(Parallelism::Sequential).unwrap();
    let cached = svc.cache().len();
    let second = svc.warm(Parallelism::Sequential).unwrap();
    assert_eq!(first.pages, second.pages);
    assert_eq!(svc.cache().len(), cached);
}
