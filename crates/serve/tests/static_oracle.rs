//! The served site is the built site: for each of the three paper sites,
//! a fresh `SiteService` crawled by href from `/` serves exactly the
//! static build's pages, named by the router, byte for byte.

#[path = "common/oracle.rs"]
mod oracle;

use oracle::{assert_same_site, served_pages, static_pages};
use std::collections::BTreeMap;
use strudel::sites::{self, PERSONAL_DDL_EXAMPLE};
use strudel::SiteBuilder;
use strudel_schema::dynamic::Mode;
use strudel_serve::SiteService;
use strudel_workload::{bib, news, org};

/// The served pages of `builder`'s site, checked against its static build.
fn served_equals_static(builder: SiteBuilder) -> BTreeMap<String, String> {
    let site = builder.build().expect("site builds");
    let built = static_pages(
        &site.result.graph,
        &site.result.skolem,
        &site.templates,
        &site.roots(),
    );
    let served = served_pages(&SiteService::new(&site, Mode::Context));
    assert_same_site(&served, &built, &site.name);
    served
}

#[test]
fn news_site_served_equals_static_build() {
    let corpus = news::generate(&news::NewsConfig {
        articles: 100,
        ..Default::default()
    });
    let served = served_equals_static(sites::news_site(&corpus.pages));
    assert_eq!(served.len(), 109, "front, 8 sections, 100 articles");
}

#[test]
fn homepage_site_served_equals_static_build() {
    let bib = bib::generate(&bib::BibConfig {
        entries: 100,
        ..Default::default()
    });
    let site = sites::homepage_site(&bib, PERSONAL_DDL_EXAMPLE);
    let served = served_equals_static(site);
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
    let data = org::generate(&org::OrgConfig {
        people: 100,
        ..Default::default()
    });
    let served = served_equals_static(sites::org_site(
        &data.people_csv,
        &data.departments_csv,
        &data.projects_rec,
        &data.demos_rec,
        &data.legacy_html,
    ));
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
