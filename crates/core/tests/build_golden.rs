//! The build path's output is pinned: for the three paper sites at smoke
//! scale, every rendered page (name and HTML, in output order) and the
//! site graph's DDL printout digest to values recorded at the commit
//! before the build path was made copy-free (8128d7e). A change to the
//! wrappers, the warehouse merge, index construction, the construction
//! stage or the HTML generator that moves one byte of output — one oid,
//! edge or label in the site graph, or one page name — fails here.

use strudel::sites::{self, PERSONAL_DDL_EXAMPLE};
use strudel::SiteBuilder;
use strudel_graph::ddl;
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

/// What one site digests to.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    pages: usize,
    html: u64,
    site_graph_ddl: u64,
}

fn digest(builder: SiteBuilder) -> Golden {
    let site = builder.build().expect("site builds");
    let out = site.render().expect("site renders");
    let html = out.pages.iter().fold(FNV_OFFSET, |h, page| {
        fold(fold(h, page.name.as_bytes()), page.html.as_bytes())
    });
    Golden {
        pages: out.pages.len(),
        html,
        site_graph_ddl: fold(FNV_OFFSET, ddl::print(&site.result.graph).as_bytes()),
    }
}

#[test]
fn homepage_site_output_is_pinned() {
    let bib = bib::generate(&bib::BibConfig {
        entries: 20,
        ..Default::default()
    });
    assert_eq!(
        digest(sites::homepage_site(&bib, PERSONAL_DDL_EXAMPLE)),
        Golden {
            pages: 33,
            html: 13_760_216_126_855_141_773,
            site_graph_ddl: 8_166_488_252_513_924_155,
        }
    );
}

#[test]
fn org_site_output_is_pinned() {
    let data = org::generate(&org::OrgConfig {
        people: 60,
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
            pages: 141,
            html: 6_150_868_088_034_460_428,
            site_graph_ddl: 1_063_095_063_016_328_010,
        }
    );
}

#[test]
fn news_site_output_is_pinned() {
    let corpus = news::generate(&news::NewsConfig {
        articles: 40,
        ..Default::default()
    });
    assert_eq!(
        digest(sites::news_site(&corpus.pages)),
        Golden {
            pages: 49,
            html: 9_414_500_822_589_808_146,
            site_graph_ddl: 9_012_615_873_283_736_413,
        }
    );
}
