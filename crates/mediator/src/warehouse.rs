//! Warehouse construction and refresh.

use crate::{MediatorError, Source, SourceFormat};
use std::borrow::Cow;
use strudel_graph::Graph;
use strudel_repo::{Database, IndexLevel};
use strudel_struql::Evaluator;
use strudel_wrappers::{bibtex, html, relational, structured};

/// Per-source statistics from the last build.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SourceReport {
    /// Source name.
    pub name: String,
    /// Nodes contributed.
    pub nodes: usize,
    /// Edges contributed.
    pub edges: usize,
    /// Whether this build re-wrapped the source (false = cache hit).
    pub rewrapped: bool,
}

/// The materialized integrated view.
#[derive(Clone, Debug)]
pub struct Warehouse {
    /// The integrated data graph.
    pub graph: Graph,
    /// Per-source contributions, in registration order.
    pub reports: Vec<SourceReport>,
}

/// A registered source and its snapshot: the wrapped (and mapped) graph
/// of the source's current content, `None` until a build has wrapped it
/// or after the content changed.
#[derive(Debug)]
struct Registered {
    source: Source,
    snapshot: Option<Graph>,
}

/// The warehousing mediator: registered sources plus a per-source snapshot
/// cache. The mediator owns its sources, so the cache is invalidated where
/// a source changes ([`Mediator::add_source`], [`Mediator::set_content`])
/// rather than by comparing content at build time.
#[derive(Debug, Default)]
pub struct Mediator {
    sources: Vec<Registered>,
}

impl Mediator {
    /// An empty mediator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a source. A source with the same name replaces the old
    /// one, and the next build re-wraps it unless the two are equal
    /// (re-registering an unchanged source keeps its snapshot).
    pub fn add_source(&mut self, source: Source) {
        match self
            .sources
            .iter_mut()
            .find(|r| r.source.name == source.name)
        {
            Some(existing) if existing.source == source => {}
            Some(existing) => {
                existing.source = source;
                existing.snapshot = None;
            }
            None => self.sources.push(Registered {
                source,
                snapshot: None,
            }),
        }
    }

    /// Updates a source's content in place (unchanged content keeps its
    /// snapshot). Returns `false` when no source has that name.
    pub fn set_content(&mut self, name: &str, content: &str) -> bool {
        match self.sources.iter_mut().find(|r| r.source.name == name) {
            Some(r) => {
                if r.source.content != content {
                    r.source.content = content.to_owned();
                    r.snapshot = None;
                }
                true
            }
            None => false,
        }
    }

    /// Number of registered sources.
    pub fn source_count(&self) -> usize {
        self.sources.len()
    }

    /// Builds (or rebuilds) the warehouse. Unchanged sources are served
    /// from the snapshot cache; changed ones are re-wrapped and re-mapped.
    /// The cache keeps every snapshot, and the warehouse graph is merged
    /// from references to them.
    pub fn build(&mut self) -> Result<Warehouse, MediatorError> {
        assemble(self.sources.iter_mut().map(|r| {
            let rewrapped = r.snapshot.is_none();
            let snapshot: &Graph = match &mut r.snapshot {
                Some(cached) => cached,
                empty => empty.insert(materialize(&r.source)?),
            };
            Ok((r.source.name.clone(), Cow::Borrowed(snapshot), rewrapped))
        }))
    }

    /// Builds the warehouse once and gives the mediator up: nothing is
    /// cached, and each wrapped graph is moved into the warehouse instead
    /// of being copied out of a cache that is about to be dropped.
    pub fn into_warehouse(self) -> Result<Warehouse, MediatorError> {
        assemble(self.sources.into_iter().map(|r| {
            let rewrapped = r.snapshot.is_none();
            let snapshot = match r.snapshot {
                Some(g) => g,
                None => materialize(&r.source)?,
            };
            Ok((r.source.name, Cow::Owned(snapshot), rewrapped))
        }))
    }
}

/// Merges per-source snapshots, in registration order, into one graph.
/// The first snapshot *becomes* the warehouse graph (moved when owned);
/// later ones are imported into it.
fn assemble<'a>(
    snapshots: impl Iterator<Item = Result<(String, Cow<'a, Graph>, bool), MediatorError>>,
) -> Result<Warehouse, MediatorError> {
    let mut graph: Option<Graph> = None;
    let mut reports = Vec::new();
    for part in snapshots {
        let (name, snapshot, rewrapped) = part?;
        let (before_nodes, before_edges) = graph
            .as_ref()
            .map_or((0, 0), |g| (g.node_count(), g.edge_count()));
        let merged = match graph.take() {
            None => snapshot.into_owned(),
            Some(mut g) => {
                g.import_graph(&snapshot);
                g
            }
        };
        reports.push(SourceReport {
            name,
            nodes: merged.node_count() - before_nodes,
            edges: merged.edge_count() - before_edges,
            rewrapped,
        });
        graph = Some(merged);
    }
    Ok(Warehouse {
        graph: graph.unwrap_or_default(),
        reports,
    })
}

/// Wraps one source and applies its GAV mapping.
fn materialize(source: &Source) -> Result<Graph, MediatorError> {
    let wrap_err = |error| MediatorError::Wrap {
        source: source.name.clone(),
        error,
    };
    let wrapped = match &source.format {
        SourceFormat::Bibtex => bibtex::wrap(&source.content).map_err(wrap_err)?,
        SourceFormat::BibtexWith(opts) => {
            bibtex::wrap_with(&source.content, opts).map_err(wrap_err)?
        }
        SourceFormat::Relational(opts) => {
            relational::wrap(&source.content, opts).map_err(wrap_err)?
        }
        SourceFormat::Structured(opts) => {
            structured::wrap(&source.content, opts).map_err(wrap_err)?
        }
        SourceFormat::Html { collection } => {
            html::wrap_documents(&source.html_docs, collection).map_err(wrap_err)?
        }
        SourceFormat::Ddl => {
            strudel_graph::ddl::parse(&source.content).map_err(|error| MediatorError::Ddl {
                source: source.name.clone(),
                error,
            })?
        }
    };
    match &source.mapping {
        None => Ok(wrapped),
        Some(mapping) => {
            let program =
                strudel_struql::parse(mapping).map_err(|error| MediatorError::Mapping {
                    source: source.name.clone(),
                    error,
                })?;
            let db = Database::from_graph(wrapped, IndexLevel::ExtensionOnly);
            let result = Evaluator::new(&db)
                .eval(&program)
                .map_err(|error| MediatorError::Mapping {
                    source: source.name.clone(),
                    error,
                })?;
            Ok(result.graph)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn people_source() -> Source {
        Source::new(
            "people",
            SourceFormat::Relational(relational::TableOptions::new("PeopleRows")),
            "id,name,dept\nmff,Mary Fernandez,db\nsuciu,Dan Suciu,db\n",
        )
    }

    #[test]
    fn integrates_multiple_sources() {
        let mut m = Mediator::new();
        m.add_source(people_source());
        m.add_source(Source::new(
            "bib",
            SourceFormat::Bibtex,
            "@article{p1, title={T1}, author={Mary Fernandez}, year=1997}",
        ));
        m.add_source(Source::new(
            "projects",
            SourceFormat::Structured(structured::RecordOptions::new("Projects")),
            "id: strudel\nname: Strudel\nmember: mff\n",
        ));
        let w = m.build().unwrap();
        assert_eq!(w.reports.len(), 3);
        assert_eq!(w.graph.members_str("PeopleRows").len(), 2);
        assert_eq!(w.graph.members_str("Publications").len(), 1);
        assert_eq!(w.graph.members_str("Projects").len(), 1);
        assert!(w.reports.iter().all(|r| r.rewrapped));
    }

    #[test]
    fn gav_mapping_reshapes_a_source() {
        let mut m = Mediator::new();
        // Mediated schema wants a People collection of Person(x) objects
        // with a uniform `fullname` attribute.
        m.add_source(people_source().with_mapping(
            r#"
            where PeopleRows(x), x -> "name" -> n
            create Person(x)
            link Person(x) -> "fullname" -> n
            collect People(Person(x))
        "#,
        ));
        let w = m.build().unwrap();
        let people = w.graph.members_str("People");
        assert_eq!(people.len(), 2);
        let p = people[0].as_node().unwrap();
        assert_eq!(w.graph.attr_str(p, "fullname").count(), 1);
    }

    #[test]
    fn rebuild_uses_cache_for_unchanged_sources() {
        let mut m = Mediator::new();
        m.add_source(people_source());
        m.add_source(Source::new(
            "bib",
            SourceFormat::Bibtex,
            "@article{p1, title={T}, year=1998}",
        ));
        let w1 = m.build().unwrap();
        assert!(w1.reports.iter().all(|r| r.rewrapped));

        let w2 = m.build().unwrap();
        assert!(w2.reports.iter().all(|r| !r.rewrapped), "all cache hits");
        assert_eq!(w2.graph.node_count(), w1.graph.node_count());

        m.set_content("bib", "@article{p2, title={T2}, year=1999}");
        let w3 = m.build().unwrap();
        assert!(!w3.reports[0].rewrapped, "people unchanged");
        assert!(w3.reports[1].rewrapped, "bib changed");
        assert!(w3.graph.node_by_name("p2").is_some());
        assert!(w3.graph.node_by_name("p1").is_none());
    }

    #[test]
    fn one_shot_build_equals_the_cached_build() {
        let mediator = || {
            let mut m = Mediator::new();
            m.add_source(people_source());
            m.add_source(Source::new(
                "bib",
                SourceFormat::Bibtex,
                "@article{p1, title={T1}, author={Mary Fernandez}, year=1997}",
            ));
            m.add_source(Source::new(
                "extra",
                SourceFormat::Ddl,
                r#"object People_mff in People { phone : 5551234; }"#,
            ));
            m
        };
        let cached = mediator().build().unwrap();
        let one_shot = mediator().into_warehouse().unwrap();
        assert_eq!(one_shot.reports, cached.reports);
        assert_eq!(
            strudel_graph::ddl::print(&one_shot.graph),
            strudel_graph::ddl::print(&cached.graph)
        );
        // A mediator that has built before hands its snapshots over.
        let mut m = mediator();
        m.build().unwrap();
        let handed_over = m.into_warehouse().unwrap();
        assert!(handed_over.reports.iter().all(|r| !r.rewrapped));
        assert_eq!(
            strudel_graph::ddl::print(&handed_over.graph),
            strudel_graph::ddl::print(&cached.graph)
        );
    }

    #[test]
    fn setting_the_same_content_keeps_the_snapshot() {
        let mut m = Mediator::new();
        m.add_source(people_source());
        m.build().unwrap();
        assert!(m.set_content("people", &people_source().content));
        assert!(!m.build().unwrap().reports[0].rewrapped);
        assert!(!m.set_content("nobody", "x"));
        // So does registering an equal source again; one that differs in
        // content, format or mapping is re-wrapped.
        m.add_source(people_source());
        assert!(!m.build().unwrap().reports[0].rewrapped);
        m.add_source(people_source().with_mapping("where PeopleRows(x) collect P(x)"));
        assert!(m.build().unwrap().reports[0].rewrapped);
        m.add_source(Source::new(
            "people",
            SourceFormat::Relational(relational::TableOptions::new("Staff")),
            &people_source().content,
        ));
        let w = m.build().unwrap();
        assert!(w.reports[0].rewrapped);
        assert_eq!(w.graph.members_str("Staff").len(), 2);
    }

    #[test]
    fn replacing_a_source_by_name() {
        let mut m = Mediator::new();
        m.add_source(people_source());
        m.add_source(Source::new(
            "people",
            SourceFormat::Relational(relational::TableOptions::new("PeopleRows")),
            "id,name\nx,Someone New\n",
        ));
        assert_eq!(m.source_count(), 1);
        let w = m.build().unwrap();
        assert_eq!(w.graph.members_str("PeopleRows").len(), 1);
    }

    #[test]
    fn wrap_errors_carry_source_name() {
        let mut m = Mediator::new();
        m.add_source(Source::new(
            "badbib",
            SourceFormat::Bibtex,
            "@article{broken, title = {unclosed",
        ));
        let err = m.build().unwrap_err();
        assert!(err.to_string().contains("badbib"));
    }

    #[test]
    fn mapping_errors_carry_source_name() {
        let mut m = Mediator::new();
        m.add_source(people_source().with_mapping("where ( create"));
        let err = m.build().unwrap_err();
        assert!(err.to_string().contains("people"));
    }

    #[test]
    fn ddl_sources_import_directly() {
        let mut m = Mediator::new();
        m.add_source(Source::new(
            "extra",
            SourceFormat::Ddl,
            r#"object mff in People { phone : 5551234; }"#,
        ));
        let w = m.build().unwrap();
        assert_eq!(w.graph.members_str("People").len(), 1);
    }

    #[test]
    fn html_sources_wrap_documents() {
        let mut m = Mediator::new();
        m.add_source(Source::html(
            "cnn",
            "Articles",
            vec![
                html::HtmlDoc {
                    name: "a.html".into(),
                    html: "<title>A</title><a href=\"b.html\">b</a>".into(),
                },
                html::HtmlDoc {
                    name: "b.html".into(),
                    html: "<title>B</title>".into(),
                },
            ],
        ));
        let w = m.build().unwrap();
        assert_eq!(w.graph.members_str("Articles").len(), 2);
    }
}
