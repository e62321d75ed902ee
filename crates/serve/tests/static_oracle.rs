//! The served site is the built site: for each of the three paper sites,
//! a fresh `SiteService` crawled by href from `/` serves exactly the
//! static build's pages, named by the router, byte for byte — and its
//! warm-up caches exactly the static build's `/page/` URLs.

#[path = "common/oracle.rs"]
mod oracle;

use oracle::{assert_same_site, served_pages, static_pages};
use std::collections::BTreeMap;
use strudel::sites::{self, PERSONAL_DDL_EXAMPLE};
use strudel::SiteBuilder;
use strudel_schema::dynamic::Mode;
use strudel_serve::SiteService;
use strudel_struql::Parallelism;
use strudel_workload::{bib, news, org};

/// The paper's news site over 100 articles.
fn news_site() -> SiteBuilder {
    let corpus = news::generate(&news::NewsConfig {
        articles: 100,
        ..Default::default()
    });
    sites::news_site(&corpus.pages)
}

/// The paper's homepage site over 100 bibliography entries.
fn homepage_site() -> SiteBuilder {
    let bib = bib::generate(&bib::BibConfig {
        entries: 100,
        ..Default::default()
    });
    sites::homepage_site(&bib, PERSONAL_DDL_EXAMPLE)
}

/// The paper's organization site over 100 people.
fn org_site() -> SiteBuilder {
    let data = org::generate(&org::OrgConfig {
        people: 100,
        ..Default::default()
    });
    sites::org_site(
        &data.people_csv,
        &data.departments_csv,
        &data.projects_rec,
        &data.demos_rec,
        &data.legacy_html,
    )
}

/// The served pages of `builder`'s site, checked against its static build.
fn served_equals_static(builder: SiteBuilder) -> BTreeMap<String, String> {
    let site = builder.build().expect("site builds");
    let built = built_pages(&site);
    let served = served_pages(&SiteService::new(&site, Mode::Context));
    assert_same_site(&served, &built, &site.name);
    served
}

/// The static build of `site`, its pages named by the router.
fn built_pages(site: &strudel::Site) -> BTreeMap<String, String> {
    static_pages(
        &site.result.graph,
        &site.result.skolem,
        &site.templates,
        &site.roots(),
    )
}

#[test]
fn news_site_served_equals_static_build() {
    let served = served_equals_static(news_site());
    assert_eq!(served.len(), 109, "front, 8 sections, 100 articles");
}

#[test]
fn homepage_site_served_equals_static_build() {
    let served = served_equals_static(homepage_site());
    assert_eq!(served.len(), 113);

    // `<SFMT Abstract EMBED UL>` keeps each embedded abstract's link to
    // its paper.
    let abstracts = &served["/page/AbstractsPage"];
    let papers = abstracts
        .matches("<p><a href=\"/page/PaperPresentation/")
        .count();
    assert_eq!(papers, 100, "one paper link per embedded abstract");
    assert!(
        !abstracts.contains("<p></p>"),
        "no embedded link is dropped"
    );
    // A page without a title is named by its Skolem term.
    assert!(served["/page/HomePage"].contains("\">AbstractsPage</a>"));
}

#[test]
fn org_site_served_equals_static_build() {
    let served = served_equals_static(org_site());
    // The legacy documents are data objects: served on `/data/` routes
    // with their collection's template, not the built-in listing.
    assert_eq!(served.len(), 181);
    let docs: Vec<&String> = served.keys().filter(|u| u.starts_with("/data/")).collect();
    assert_eq!(docs.len(), 8, "departments link their legacy documents");
    for url in docs {
        assert!(
            !served[url].contains("<dl>"),
            "{url} uses the legacy-doc template"
        );
    }
}

/// `warm` renders the pages the site links and nothing else: an object a
/// page only `EMBED`s (the homepage's 100 abstracts) is not a page of the
/// site, and a click on every page the static build writes is a hit.
#[test]
fn warm_caches_exactly_the_static_build_pages() {
    for (builder, pages) in [
        (news_site(), 109),
        (homepage_site(), 113),
        (org_site(), 173),
    ] {
        let site = builder.build().expect("site builds");
        let built = built_pages(&site);
        let urls: Vec<&String> = built.keys().filter(|u| u.starts_with("/page/")).collect();
        assert_eq!(urls.len(), pages, "{}: static /page/ URLs", site.name);

        let service = SiteService::new(&site, Mode::Context);
        let report = service.warm(Parallelism::Sequential).expect("warm renders");
        assert_eq!(report.pages, pages, "{}: {report:?}", site.name);
        assert_eq!(service.cache().len(), pages, "{}: pages cached", site.name);
        for url in &urls {
            assert_eq!(service.handle(url).status, 200, "{url}");
        }
        let cache = service.cache().stats();
        assert_eq!(
            (cache.hits, cache.misses),
            (pages as u64, 0),
            "{}: every static page is a hit after warm",
            site.name
        );
    }
}
