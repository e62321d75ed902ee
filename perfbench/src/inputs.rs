//! Generated inputs and their fingerprint.
//!
//! The program under test only ever sees inputs generated here. The
//! source corpora come from `strudel-workload` at its fixed default
//! seeds, so the *work* is the same on every run; `--seed` moves the
//! click mix, the popularity permutation and the delta schedule. The
//! fingerprints of both are pinned in [`crate::pins`]: if
//! `strudel-workload` changes what it generates, the run fails instead
//! of silently measuring a different load.

use crate::http::fnv1a;
use strudel::sites;
use strudel::{Site, SiteBuilder};
use strudel_graph::{Oid, Value};
use strudel_schema::dynamic::PageKey;
use strudel_serve::router;
use strudel_workload::{bib, news, org};

/// The seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1998;

/// Fingerprints of one run's inputs: the generated source text (the same
/// for every seed) and the seeded load (URL list, click mix, delta
/// schedule).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InputPin {
    /// Digest of the source text handed to the builders.
    pub sources: u64,
    /// Digest of the URL list and the seeded draws.
    pub load: u64,
}

impl InputPin {
    /// The pin of a news-site click workload.
    pub fn of_clicks(
        articles: usize,
        urls: &UrlSet,
        mix: &crate::mix::ClickMix,
        seed: u64,
    ) -> InputPin {
        let mut sources = Fingerprint::default();
        sources.add_pages(&news_corpus(articles));
        let mut load = Fingerprint::default();
        load.add(&urls.fingerprint().to_le_bytes());
        load.add(&mix.fingerprint(seed).to_le_bytes());
        InputPin {
            sources: sources.finish(),
            load: load.finish(),
        }
    }
}

/// The CNN-shaped article corpus at `articles` pages.
pub fn news_corpus(articles: usize) -> Vec<(String, String)> {
    news::generate(&news::NewsConfig {
        articles,
        ..Default::default()
    })
    .pages
}

/// The builder for the paper's news site over `articles` pages.
pub fn news_builder(articles: usize) -> SiteBuilder {
    sites::news_site(&news_corpus(articles))
}

/// Raw source text of the three paper sites, as `site-build` consumes it.
pub struct BuildSources {
    /// BibTeX behind the homepage site.
    pub bib: String,
    /// The five organization sources.
    pub org: org::OrgData,
    /// The news article pages.
    pub news: Vec<(String, String)>,
}

/// Sizes of the three `site-build` inputs.
#[derive(Clone, Copy, Debug)]
pub struct BuildScale {
    /// Bibliography entries (paper: ≈30).
    pub bib_entries: usize,
    /// People in the organization (paper: ≈400).
    pub org_people: usize,
    /// News articles (paper: ≈300).
    pub news_articles: usize,
}

impl BuildSources {
    /// Generates all three at `scale`.
    pub fn generate(scale: BuildScale) -> BuildSources {
        BuildSources {
            bib: bib::generate(&bib::BibConfig {
                entries: scale.bib_entries,
                ..Default::default()
            }),
            org: org::generate(&org::OrgConfig {
                people: scale.org_people,
                ..Default::default()
            }),
            news: news_corpus(scale.news_articles),
        }
    }

    /// The three site builders, in build order.
    pub fn builders(&self) -> [SiteBuilder; 3] {
        [
            sites::homepage_site(&self.bib, sites::PERSONAL_DDL_EXAMPLE),
            sites::org_site(
                &self.org.people_csv,
                &self.org.departments_csv,
                &self.org.projects_rec,
                &self.org.demos_rec,
                &self.org.legacy_html,
            ),
            sites::news_site(&self.news),
        ]
    }

    /// Digest of every source byte.
    pub fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::default();
        fp.add(self.bib.as_bytes());
        for text in [
            &self.org.people_csv,
            &self.org.departments_csv,
            &self.org.projects_rec,
            &self.org.demos_rec,
        ] {
            fp.add(text.as_bytes());
        }
        fp.add_pages(&self.org.legacy_html);
        fp.add_pages(&self.news);
        fp.finish()
    }
}

/// An order-sensitive digest over byte strings.
#[derive(Default)]
pub struct Fingerprint(Vec<u8>);

impl Fingerprint {
    /// Folds one field in (length-prefixed, so field boundaries count).
    pub fn add(&mut self, bytes: &[u8]) {
        self.0
            .extend_from_slice(&(bytes.len() as u64).to_le_bytes());
        self.0.extend_from_slice(&fnv1a(bytes).to_le_bytes());
    }

    /// Folds `(name, text)` pairs in.
    pub fn add_pages(&mut self, pages: &[(String, String)]) {
        for (name, text) in pages {
            self.add(name.as_bytes());
            self.add(text.as_bytes());
        }
    }

    /// The digest.
    pub fn finish(&self) -> u64 {
        fnv1a(&self.0)
    }
}

/// The URLs of a news site, with each request pre-encoded.
pub struct UrlSet {
    /// Request paths.
    pub paths: Vec<String>,
    /// `paths[i]` as the wire bytes of a keep-alive GET.
    pub requests: Vec<Vec<u8>>,
    /// Data-graph oid of the article behind `paths[i]`, for article pages.
    pub article_oids: Vec<Option<Oid>>,
    /// Indexes of the article pages.
    pub articles: Vec<u32>,
    /// Indexes of the category pages.
    pub categories: Vec<u32>,
    /// Index of the front page.
    pub front: u32,
}

impl UrlSet {
    /// Every page URL of a built news site: the front page, one page per
    /// category, one per member of `Articles`.
    pub fn of_news_site(site: &Site) -> UrlSet {
        let graph = site.database.graph();
        let mut set = UrlSet {
            paths: Vec::new(),
            requests: Vec::new(),
            article_oids: Vec::new(),
            articles: Vec::new(),
            categories: Vec::new(),
            front: 0,
        };
        set.push(article_key("FrontPage", vec![]), graph, None);
        let mut seen = std::collections::BTreeSet::new();
        let articles: Vec<Oid> = graph
            .members_str("Articles")
            .iter()
            .filter_map(Value::as_node)
            .collect();
        for &a in &articles {
            for c in graph.attr_str(a, "category") {
                if seen.insert(c.display_text().into_owned()) {
                    let i = set.push(article_key("CategoryPage", vec![c.clone()]), graph, None);
                    set.categories.push(i);
                }
            }
        }
        for &a in &articles {
            let i = set.push(
                article_key("ArticlePage", vec![Value::Node(a)]),
                graph,
                Some(a),
            );
            set.articles.push(i);
        }
        set
    }

    /// A one-URL set (the stub services of the layer ladder).
    pub fn single(path: &str) -> UrlSet {
        UrlSet {
            paths: vec![path.to_owned()],
            requests: vec![crate::http::encode_get(path)],
            article_oids: vec![None],
            articles: vec![0],
            categories: Vec::new(),
            front: 0,
        }
    }

    fn push(&mut self, key: PageKey, graph: &strudel_graph::Graph, oid: Option<Oid>) -> u32 {
        let path = router::page_path(&key, graph);
        self.requests.push(crate::http::encode_get(&path));
        self.paths.push(path);
        self.article_oids.push(oid);
        (self.paths.len() - 1) as u32
    }

    /// Number of URLs.
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// Digest of the URL list.
    pub fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::default();
        for p in &self.paths {
            fp.add(p.as_bytes());
        }
        fp.finish()
    }
}

/// The page key `symbol(args…)`.
pub fn article_key(symbol: &str, args: Vec<Value>) -> PageKey {
    PageKey {
        symbol: symbol.to_owned(),
        args,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn url_set_covers_front_categories_and_articles() {
        let site = news_builder(40).build().unwrap();
        let urls = UrlSet::of_news_site(&site);
        assert_eq!(urls.articles.len(), 40);
        assert!(!urls.categories.is_empty() && urls.categories.len() <= 8);
        assert_eq!(urls.len(), 1 + urls.categories.len() + 40);
        assert_eq!(urls.paths[urls.front as usize], "/page/FrontPage");
        // Every URL is a real page of the site.
        let svc = strudel_serve::SiteService::new(&site, strudel_schema::dynamic::Mode::Context);
        for p in &urls.paths {
            let r = svc.handle(p);
            assert_eq!(r.status, 200, "{p}");
            assert!(r.body.len() > 50, "{p} rendered empty");
        }
        assert_eq!(
            urls.fingerprint(),
            UrlSet::of_news_site(&site).fingerprint()
        );
    }

    #[test]
    fn source_fingerprint_is_stable_and_scale_sensitive() {
        let small = BuildScale {
            bib_entries: 5,
            org_people: 20,
            news_articles: 10,
        };
        let a = BuildSources::generate(small).fingerprint();
        assert_eq!(a, BuildSources::generate(small).fingerprint());
        let bigger = BuildScale {
            news_articles: 11,
            ..small
        };
        assert_ne!(a, BuildSources::generate(bigger).fingerprint());
    }
}
