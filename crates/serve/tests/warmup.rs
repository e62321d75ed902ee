//! Parallel cold-cache warmup: `SiteService::warm` pre-renders every
//! reachable page, across workers, with byte-identical output to cold
//! click-time rendering.

use strudel::sites::news_site;
use strudel_schema::dynamic::Mode;
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

/// Every page URL reachable from the roots, via the service's own router.
fn all_urls(service: &SiteService) -> Vec<String> {
    let mut urls = vec!["/".to_string()];
    let mut i = 0;
    while i < urls.len() {
        let body = service.handle(&urls[i]).body;
        for part in body.split("href=\"").skip(1) {
            if let Some(end) = part.find('"') {
                let href = &part[..end];
                if href.starts_with("/page/") && !urls.iter().any(|u| u == href) {
                    urls.push(href.to_string());
                }
            }
        }
        i += 1;
    }
    urls
}

#[test]
fn warm_prerenders_every_reachable_page() {
    let svc = service();
    let report = svc.warm(Parallelism::Threads(4)).unwrap();
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
fn warmed_pages_match_cold_rendering_bytes() {
    let cold = service();
    let warm = service();
    warm.warm(Parallelism::Threads(4)).unwrap();
    // Also exercise the sequential path for the same comparison.
    let seq = service();
    seq.warm(Parallelism::Sequential).unwrap();

    for url in all_urls(&cold) {
        let reference = cold.handle(&url);
        assert_eq!(reference.status, 200, "{url}");
        assert_eq!(warm.handle(&url).body, reference.body, "{url}");
        assert_eq!(seq.handle(&url).body, reference.body, "{url}");
    }
}

#[test]
fn warm_is_idempotent() {
    let svc = service();
    let first = svc.warm(Parallelism::Threads(2)).unwrap();
    let cached = svc.cache().len();
    let second = svc.warm(Parallelism::Threads(2)).unwrap();
    assert_eq!(first.pages, second.pages);
    assert_eq!(svc.cache().len(), cached);
}
