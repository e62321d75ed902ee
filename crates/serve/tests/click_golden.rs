//! Click-time HTML is pinned: for the three paper sites at test scale,
//! every `/page/` URL reachable from the roots is fetched cold from a
//! fresh `SiteService` — once parents first (breadth-first from the
//! roots) and once children first (the same list reversed) — and the
//! responses digest to a value recorded before the click path was made
//! allocation-lean.
//!
//! Both orders matter: a render visits the page's children, so the
//! order decides which views are computed inside a render (children
//! first: every child view is already cached) and which by the render of
//! the page itself (parents first: the parent's render computes them).
//! A change to guard evaluation, row projection, the page-view cache or
//! the click-time renderer that moves one byte of one response fails
//! here.

use std::collections::{HashMap, HashSet};
use strudel::sites::{self, PERSONAL_DDL_EXAMPLE};
use strudel::{Site, SiteBuilder};
use strudel_schema::dynamic::{Mode, PageKey};
use strudel_serve::SiteService;
use strudel_workload::{bib, news, org};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over length-delimited fields, so field boundaries count.
fn fold(mut h: u64, field: &[u8]) -> u64 {
    for &b in field.iter().chain(&(field.len() as u64).to_le_bytes()) {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// Every page URL reachable from the roots, breadth first, found by
/// rendering each page on a scout service and following its
/// dependencies (the pages it links).
fn crawl_order(site: &Site) -> Vec<String> {
    let scout = SiteService::new(site, Mode::Context);
    let roots = scout
        .engine()
        .roots(scout.root_collection())
        .expect("roots evaluate");
    let mut seen: HashSet<PageKey> = roots.iter().cloned().collect();
    let mut order: Vec<PageKey> = roots;
    let mut at = 0;
    while at < order.len() {
        let page = scout
            .render_into_cache(&order[at])
            .expect("every reachable page renders");
        for dep in page.deps.iter() {
            if seen.insert(dep.clone()) {
                order.push(dep.clone());
            }
        }
        at += 1;
    }
    order.iter().map(|key| scout.url_of(key)).collect()
}

/// Fetches `urls` in the given order from a fresh service; the
/// responses by URL.
fn fetch_cold<'u>(
    site: &Site,
    urls: impl Iterator<Item = &'u String>,
) -> HashMap<&'u str, (u16, String)> {
    let service = SiteService::new(site, Mode::Context);
    urls.map(|url| {
        let r = service.handle(url);
        assert_eq!(r.status, 200, "{url}: {}", r.body);
        (url.as_str(), (r.status, r.body))
    })
    .collect()
}

/// What one site's click-time crawl digests to.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    pages: usize,
    responses: u64,
}

fn digest(builder: SiteBuilder) -> Golden {
    let site = builder.build().expect("site builds");
    let urls = crawl_order(&site);
    let parents_first = fetch_cold(&site, urls.iter());
    let children_first = fetch_cold(&site, urls.iter().rev());
    let digest_of = |responses: &HashMap<&str, (u16, String)>| {
        urls.iter().fold(FNV_OFFSET, |h, url| {
            let (status, body) = &responses[url.as_str()];
            fold(
                fold(fold(h, &status.to_le_bytes()), url.as_bytes()),
                body.as_bytes(),
            )
        })
    };
    let responses = digest_of(&parents_first);
    assert_eq!(
        responses,
        digest_of(&children_first),
        "the crawl order changed a response"
    );
    Golden {
        pages: urls.len(),
        responses,
    }
}

#[test]
fn news_site_click_time_html_is_pinned() {
    let corpus = news::generate(&news::NewsConfig {
        articles: 500,
        ..Default::default()
    });
    assert_eq!(
        digest(sites::news_site(&corpus.pages)),
        Golden {
            pages: 509,
            responses: 7_143_076_025_774_079_532,
        }
    );
}

#[test]
fn homepage_site_click_time_html_is_pinned() {
    let bib = bib::generate(&bib::BibConfig {
        entries: 100,
        ..Default::default()
    });
    assert_eq!(
        digest(sites::homepage_site(&bib, PERSONAL_DDL_EXAMPLE)),
        Golden {
            pages: 213,
            responses: 16_556_884_125_310_022_626,
        }
    );
}

#[test]
fn org_site_click_time_html_is_pinned() {
    let data = org::generate(&org::OrgConfig {
        people: 300,
        ..Default::default()
    });
    assert_eq!(
        digest(sites::org_site(
            &data.people_csv,
            &data.departments_csv,
            &data.projects_rec,
            &data.demos_rec,
            &data.legacy_html,
        )),
        Golden {
            pages: 373,
            responses: 15_333_715_833_100_894_882,
        }
    );
}
