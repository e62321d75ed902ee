//! The seeded delta schedule of `delta-stream`, and the harness's own
//! model of what the data graph should hold afterwards.
//!
//! Mix: 70 % retitle (remove + add the `title` edge), 10 % add a
//! `paragraph`, 10 % new article (node, five edges, `collect`), 5 %
//! remove an article from `Articles`, 5 % one delta of 32 retitles.
//! Every step names the page it must show up on and the text that must
//! appear (or disappear) there, so the writer can time delta → visible.
//! The schedule depends only on the seed and the initial graph — never
//! on what the system answered — and never asks for something that can
//! fail (a removed article is not touched again).

use crate::http::encode_get;
use crate::inputs::{Fingerprint, UrlSet};
use strudel_graph::{Graph, GraphDelta, Oid, Value};
use strudel_prng::{Rng, SmallRng};

/// The kinds of delta, as the per-layer metrics name them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// Replace one article's title.
    Retitle,
    /// Add a paragraph to one article.
    Paragraph,
    /// Add a new article.
    Insert,
    /// Remove an article from the `Articles` collection.
    Remove,
    /// Replace 32 articles' titles in one delta.
    Bulk32,
}

impl Kind {
    /// Draws a kind with the schedule's shares.
    fn draw(rng: &mut SmallRng) -> Kind {
        match rng.gen_range(0..100u32) {
            0..=69 => Kind::Retitle,
            70..=79 => Kind::Paragraph,
            80..=89 => Kind::Insert,
            90..=94 => Kind::Remove,
            _ => Kind::Bulk32,
        }
    }
}

/// One scheduled delta with its visibility check.
pub struct Step {
    /// What kind of delta this is.
    pub kind: Kind,
    /// The mutation.
    pub delta: GraphDelta,
    /// Path of the page the delta must show on.
    pub path: String,
    /// `path` as a pre-encoded GET.
    pub request: Vec<u8>,
    /// Text to look for in that page's body.
    pub needle: String,
    /// Whether the text must be there (`true`) or gone (`false`).
    pub present: bool,
}

impl Step {
    /// Whether `body` shows the delta.
    pub fn visible_in(&self, body: &[u8]) -> bool {
        let found = self.needle.is_empty()
            || body
                .windows(self.needle.len())
                .any(|w| w == self.needle.as_bytes());
        found == self.present
    }
}

struct Article {
    oid: Oid,
    title: Value,
    path: String,
}

/// The generator's view of the `Articles` collection.
pub struct Model {
    alive: Vec<Article>,
    categories: Vec<Value>,
    node_count: usize,
    seq: u64,
    /// Paths of articles inserted so far (for the end-state oracle).
    pub inserted_paths: Vec<String>,
}

/// Fewer live articles than this and removals turn into retitles, so a
/// 32-retitle delta always finds 32 distinct targets.
const MIN_ALIVE: usize = 64;

impl Model {
    /// Reads the initial articles out of the built site's data graph.
    pub fn new(graph: &Graph, urls: &UrlSet) -> Model {
        let mut categories = Vec::new();
        let alive = urls
            .articles
            .iter()
            .map(|&u| {
                let oid = urls.article_oids[u as usize].expect("article URL has an oid");
                for c in graph.attr_str(oid, "category") {
                    if !categories.contains(c) {
                        categories.push(c.clone());
                    }
                }
                Article {
                    oid,
                    title: graph
                        .first_attr_str(oid, "title")
                        .cloned()
                        .unwrap_or_else(|| Value::string("")),
                    path: urls.paths[u as usize].clone(),
                }
            })
            .collect();
        Model {
            alive,
            categories,
            node_count: graph.node_count(),
            seq: 0,
            inserted_paths: Vec::new(),
        }
    }

    fn retitle(&mut self, i: usize, delta: &mut GraphDelta) -> String {
        self.seq += 1;
        let title = format!("Retitled story #{}#", self.seq);
        let a = &mut self.alive[i];
        delta.remove_edge(a.oid, "title", a.title.clone());
        a.title = Value::string(title.as_str());
        delta.add_edge(a.oid, "title", a.title.clone());
        title
    }

    /// The next step of the schedule.
    pub fn next(&mut self, rng: &mut SmallRng) -> Step {
        let kind = Kind::draw(rng);
        self.step(kind, rng)
    }

    /// A step of a given kind (the per-layer probes time kinds apart).
    pub fn step(&mut self, kind: Kind, rng: &mut SmallRng) -> Step {
        let kind = match kind {
            Kind::Remove if self.alive.len() <= MIN_ALIVE => Kind::Retitle,
            k => k,
        };
        let mut delta = GraphDelta::new();
        let (path, needle, present) = match kind {
            Kind::Remove => {
                let a = self.alive.swap_remove(rng.gen_range(0..self.alive.len()));
                delta.uncollect("Articles", Value::Node(a.oid));
                let needle = a.title.display_text().into_owned();
                (a.path, needle, false)
            }
            Kind::Retitle => {
                let i = rng.gen_range(0..self.alive.len());
                let title = self.retitle(i, &mut delta);
                (self.alive[i].path.clone(), title, true)
            }
            Kind::Paragraph => {
                self.seq += 1;
                let text = format!("Inserted paragraph #{}# follows the story.", self.seq);
                let a = &self.alive[rng.gen_range(0..self.alive.len())];
                delta.add_edge(a.oid, "paragraph", Value::string(text.as_str()));
                (a.path.clone(), text, true)
            }
            Kind::Insert => {
                self.seq += 1;
                let oid = Oid::from_index(self.node_count);
                self.node_count += 1;
                let title = format!("Breaking story #{}#", self.seq);
                let category = strudel_prng::choose(rng, &self.categories).clone();
                delta.add_node(None);
                delta.add_edge(oid, "title", Value::string(title.as_str()));
                delta.add_edge(oid, "headline", Value::string(title.as_str()));
                delta.add_edge(oid, "category", category);
                delta.add_edge(oid, "date", Value::string("1998-06-01"));
                delta.add_edge(oid, "paragraph", Value::string("Just in."));
                delta.collect("Articles", Value::Node(oid));
                let path = format!("/page/ArticlePage/o:{}", oid.index());
                self.inserted_paths.push(path.clone());
                self.alive.push(Article {
                    oid,
                    title: Value::string(title.as_str()),
                    path: path.clone(),
                });
                (path, title, true)
            }
            Kind::Bulk32 => {
                // 32 distinct targets: a seeded partial shuffle of the front.
                let mut last = (String::new(), String::new());
                for k in 0..32 {
                    let j = rng.gen_range(k..self.alive.len());
                    self.alive.swap(k, j);
                    let title = self.retitle(k, &mut delta);
                    last = (self.alive[k].path.clone(), title);
                }
                (last.0, last.1, true)
            }
        };
        Step {
            kind,
            delta,
            request: encode_get(&path),
            path,
            needle,
            present,
        }
    }

    /// Digest of the first `steps` steps a fresh model would schedule —
    /// the delta-schedule part of the input pin.
    pub fn schedule_fingerprint(mut self, rng: &mut SmallRng, steps: usize) -> u64 {
        let mut fp = Fingerprint::default();
        for _ in 0..steps {
            let s = self.next(rng);
            fp.add(format!("{:?} {} {} {}", s.kind, s.delta.len(), s.path, s.needle).as_bytes());
        }
        fp.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::news_builder;
    use strudel_prng::SeedableRng;

    #[test]
    fn schedule_is_seeded_applies_cleanly_and_holds_its_shares() {
        let site = news_builder(120).build().unwrap();
        let urls = UrlSet::of_news_site(&site);
        let graph = site.database.graph();
        let a = Model::new(graph, &urls).schedule_fingerprint(&mut SmallRng::seed_from_u64(5), 300);
        let b = Model::new(graph, &urls).schedule_fingerprint(&mut SmallRng::seed_from_u64(5), 300);
        let c = Model::new(graph, &urls).schedule_fingerprint(&mut SmallRng::seed_from_u64(6), 300);
        assert_eq!(a, b);
        assert_ne!(a, c);

        // Every step applies to the graph it was scheduled against: no
        // missing edge, no unknown node, no touching a removed article.
        let mut model = Model::new(graph, &urls);
        let mut mirror = graph.clone();
        let mut rng = SmallRng::seed_from_u64(9);
        let mut kinds = std::collections::BTreeMap::new();
        for _ in 0..2000 {
            let step = model.next(&mut rng);
            step.delta
                .apply(&mut mirror)
                .expect("scheduled delta applies");
            *kinds.entry(step.kind).or_insert(0usize) += 1;
            if step.kind == Kind::Bulk32 {
                assert_eq!(step.delta.len(), 64);
            }
        }
        assert_eq!(mirror.node_count(), model.node_count);
        let share = |k| kinds[&k] as f64 / 2000.0;
        assert!((share(Kind::Paragraph) - 0.10).abs() < 0.03);
        assert!((share(Kind::Insert) - 0.10).abs() < 0.03);
        assert!((share(Kind::Bulk32) - 0.05).abs() < 0.02);
        assert!(share(Kind::Retitle) > 0.65);
    }

    #[test]
    fn visibility_check_looks_for_presence_or_absence() {
        let step = Step {
            kind: Kind::Retitle,
            delta: GraphDelta::new(),
            path: "/p".into(),
            request: Vec::new(),
            needle: "Retitled story #7#".into(),
            present: true,
        };
        assert!(step.visible_in(b"<h1>Retitled story #7#</h1>"));
        assert!(!step.visible_in(b"<h1>Retitled story #70#</h1>"));
        let gone = Step {
            present: false,
            ..step
        };
        assert!(gone.visible_in(b"<html></html>"));
    }
}
