//! The site-building façade.

use crate::error::StrudelError;
use crate::stats::{count_spec_lines, SiteStats};
use strudel_graph::Oid;
use strudel_mediator::{Mediator, Source, SourceReport};
use strudel_repo::{Database, IndexLevel};
use strudel_schema::constraint::runtime::{self, CheckResult};
use strudel_schema::constraint::verify::{self, Verdict};
use strudel_schema::constraint::{parse_constraint, Constraint};
use strudel_schema::SiteSchema;
use strudel_struql::{EvalResult, Evaluator, Program};
use std::sync::Arc;
use strudel_template::{HtmlGenerator, SiteOutput, TemplateSet};

/// Declarative description of a site, built fluently and materialized by
/// [`SiteBuilder::build`].
#[derive(Default)]
pub struct SiteBuilder {
    name: String,
    sources: Vec<Source>,
    query: String,
    templates: Vec<(String, String)>,
    object_assignments: Vec<(String, String)>,
    collection_assignments: Vec<(String, String)>,
    default_template: Option<String>,
    root_collection: String,
    constraints: Vec<String>,
    index_level: Option<IndexLevel>,
}

impl SiteBuilder {
    /// Starts a builder for a site called `name`.
    pub fn new(name: &str) -> Self {
        SiteBuilder {
            name: name.to_owned(),
            ..Default::default()
        }
    }

    /// Registers a data source.
    pub fn source(mut self, source: Source) -> Self {
        self.sources.push(source);
        self
    }

    /// Sets the site-definition query (STRUQL).
    pub fn query(mut self, query: &str) -> Self {
        self.query = query.to_owned();
        self
    }

    /// Registers a named HTML template.
    pub fn template(mut self, name: &str, src: &str) -> Self {
        self.templates.push((name.to_owned(), src.to_owned()));
        self
    }

    /// Assigns a template to a specific object (by Skolem-derived name,
    /// e.g. `RootPage`).
    pub fn assign_object(mut self, object: &str, template: &str) -> Self {
        self.object_assignments
            .push((object.to_owned(), template.to_owned()));
        self
    }

    /// Assigns a template to every member of a collection.
    pub fn assign_collection(mut self, collection: &str, template: &str) -> Self {
        self.collection_assignments
            .push((collection.to_owned(), template.to_owned()));
        self
    }

    /// Sets the fallback template.
    pub fn default_template(mut self, template: &str) -> Self {
        self.default_template = Some(template.to_owned());
        self
    }

    /// Names the output collection whose members are the site's root
    /// pages.
    pub fn root_collection(mut self, collection: &str) -> Self {
        self.root_collection = collection.to_owned();
        self
    }

    /// Adds an integrity constraint, verified statically at build time and
    /// checked at runtime on the materialized site graph.
    pub fn constraint(mut self, constraint: &str) -> Self {
        self.constraints.push(constraint.to_owned());
        self
    }

    /// Overrides the repository index level (default: full indexing).
    pub fn index_level(mut self, level: IndexLevel) -> Self {
        self.index_level = Some(level);
        self
    }

    /// Runs the pipeline: wrap → mediate → evaluate → extract schema →
    /// verify constraints.
    pub fn build(self) -> Result<Site, StrudelError> {
        if self.query.trim().is_empty() {
            return Err(StrudelError::Config("no site-definition query set".into()));
        }
        if self.root_collection.is_empty() {
            return Err(StrudelError::Config("no root collection set".into()));
        }

        let mut mediator = Mediator::new();
        let source_count = self.sources.len();
        for s in self.sources {
            mediator.add_source(s);
        }
        let warehouse = mediator.into_warehouse()?;
        let database = Arc::new(Database::from_graph(
            warehouse.graph,
            self.index_level.unwrap_or(IndexLevel::Full),
        ));

        let program = strudel_struql::parse(&self.query)?;
        let result = Evaluator::new(&database).eval(&program)?;
        let schema = SiteSchema::extract(&program);

        let mut templates = TemplateSet::new();
        let mut template_lines = 0usize;
        for (name, src) in &self.templates {
            template_lines += count_spec_lines(src);
            templates.add_template(name, src)?;
        }
        for (object, t) in &self.object_assignments {
            templates.assign_object(object, t);
        }
        for (coll, t) in &self.collection_assignments {
            templates.assign_collection(coll, t);
        }
        if let Some(d) = &self.default_template {
            templates.set_default(d);
        }

        let mut verifications = Vec::with_capacity(self.constraints.len());
        // Made by the first constraint: a site without any copies no graph.
        let site_graph = std::cell::OnceCell::new();
        for src in &self.constraints {
            let constraint = parse_constraint(src)?;
            let static_verdict = verify::verify(&schema, database.graph(), &constraint);
            let site_graph = site_graph
                .get_or_init(|| Database::from_graph(result.graph.clone(), IndexLevel::Full));
            let runtime_result = runtime::check(site_graph, &constraint);
            verifications.push(Verification {
                constraint,
                static_verdict,
                runtime_result,
            });
        }

        let stats = SiteStats {
            name: self.name.clone(),
            sources: source_count,
            query_lines: count_spec_lines(&self.query),
            link_clauses: program.link_clause_count(),
            templates: templates.template_count(),
            template_lines,
            data_nodes: database.graph().node_count(),
            data_edges: database.graph().edge_count(),
            site_nodes: result.new_nodes.len(),
            pages: 0,
        };

        Ok(Site {
            name: self.name,
            database,
            program,
            result,
            schema,
            templates,
            root_collection: self.root_collection,
            verifications,
            source_reports: warehouse.reports,
            stats,
        })
    }
}

/// The outcome of one constraint, both ways.
#[derive(Debug)]
pub struct Verification {
    /// The parsed constraint.
    pub constraint: Constraint,
    /// The sound static verdict from the site schema.
    pub static_verdict: Verdict,
    /// The complete runtime check on the materialized site graph.
    pub runtime_result: CheckResult,
}

/// A fully built site: warehoused data, materialized site graph, schema,
/// templates, and verification results.
#[derive(Debug)]
pub struct Site {
    /// Site name.
    pub name: String,
    /// The warehoused, indexed data graph, shareable across threads
    /// (the click-time server hands it to a whole worker pool).
    pub database: Arc<Database>,
    /// The parsed site-definition query.
    pub program: Program,
    /// The evaluation result (site graph + Skolem table).
    pub result: EvalResult,
    /// The query's site schema.
    pub schema: SiteSchema,
    /// The registered templates.
    pub templates: TemplateSet,
    /// The collection holding root pages.
    pub root_collection: String,
    /// Constraint outcomes.
    pub verifications: Vec<Verification>,
    /// Per-source warehouse reports.
    pub source_reports: Vec<SourceReport>,
    /// T1 statistics (pages filled in by [`Site::render`]).
    pub stats: SiteStats,
}

impl Site {
    /// Shortcut: the node a zero-ary Skolem symbol produced, if any.
    pub fn skolem_oid(&self, symbol: &str) -> Option<Oid> {
        self.result.skolem.lookup(symbol, &[])
    }

    /// The root page oids: node members of the root collection.
    pub fn roots(&self) -> Vec<Oid> {
        self.result
            .graph
            .members_str(&self.root_collection)
            .iter()
            .filter_map(strudel_graph::Value::as_node)
            .collect()
    }

    /// Renders the site with its own templates.
    pub fn render(&self) -> Result<SiteOutput, StrudelError> {
        self.render_with(&self.templates)
    }

    /// Renders the same site graph with a different template set — how
    /// Strudel produces "multiple HTML renderings of the same site graph"
    /// (§1), e.g. the AT&T external site from the internal site graph.
    pub fn render_with(&self, templates: &TemplateSet) -> Result<SiteOutput, StrudelError> {
        let roots = self.roots();
        if roots.is_empty() {
            return Err(StrudelError::Config(format!(
                "root collection '{}' has no node members",
                self.root_collection
            )));
        }
        Ok(HtmlGenerator::new(&self.result.graph, templates).generate(&roots)?)
    }

    /// Derives a new site by applying another STRUQL query to **this
    /// site's graph** — the §5.1 suciu pattern: "its site graph is built
    /// in several successive steps by multiple, composed STRUQL queries;
    /// for example, the last step copies the entire site graph and adds a
    /// navigation bar to each page". The derived site inherits this site's
    /// templates (override assignments as needed) and names its own root
    /// collection.
    pub fn derive(
        &self,
        name: &str,
        query: &str,
        root_collection: &str,
    ) -> Result<Site, StrudelError> {
        let database = Arc::new(Database::from_graph(
            self.result.graph.clone(),
            IndexLevel::Full,
        ));
        let program = strudel_struql::parse(query)?;
        let result = Evaluator::new(&database).eval(&program)?;
        let schema = SiteSchema::extract(&program);
        let stats = SiteStats {
            name: name.to_owned(),
            sources: self.stats.sources,
            query_lines: count_spec_lines(query),
            link_clauses: program.link_clause_count(),
            templates: self.templates.template_count(),
            template_lines: self.stats.template_lines,
            data_nodes: database.graph().node_count(),
            data_edges: database.graph().edge_count(),
            site_nodes: result.new_nodes.len(),
            pages: 0,
        };
        Ok(Site {
            name: name.to_owned(),
            database,
            program,
            result,
            schema,
            templates: self.templates.clone(),
            root_collection: root_collection.to_owned(),
            verifications: Vec::new(),
            source_reports: self.source_reports.clone(),
            stats,
        })
    }

    /// T1 statistics including the page count of a render.
    pub fn stats_with_render(&self) -> Result<SiteStats, StrudelError> {
        let out = self.render()?;
        let mut stats = self.stats.clone();
        stats.pages = out.pages.len();
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strudel_mediator::SourceFormat;

    fn builder() -> SiteBuilder {
        SiteBuilder::new("test")
            .source(Source::new(
                "bib",
                SourceFormat::Bibtex,
                r#"
                @article{p1, title={Alpha}, author={A One and B Two}, year=1997}
                @inproceedings{p2, title={Beta}, author={C Three}, year=1998, booktitle={S}}
                "#,
            ))
            .query(
                r#"
                create RootPage()
                where Publications(x)
                create PaperPage(x)
                link RootPage() -> "paper" -> PaperPage(x)
                { where x -> l -> v link PaperPage(x) -> l -> v }
                collect Roots(RootPage()), Pages(PaperPage(x))
            "#,
            )
            .template("root", "<h1>Papers</h1><SFMT paper UL>")
            .template("paper", "<h2><SFMT title></h2>")
            .assign_object("RootPage", "root")
            .assign_collection("Pages", "paper")
            .root_collection("Roots")
    }

    #[test]
    fn full_pipeline_builds_and_renders() {
        let site = builder().build().unwrap();
        assert_eq!(site.stats.sources, 1);
        assert_eq!(site.stats.site_nodes, 3);
        assert!(site.stats.query_lines >= 6);
        assert_eq!(site.stats.link_clauses, 2);

        let out = site.render().unwrap();
        assert_eq!(out.pages.len(), 3);
        let stats = site.stats_with_render().unwrap();
        assert_eq!(stats.pages, 3);
    }

    #[test]
    fn multiple_renderings_of_one_site_graph() {
        let site = builder().build().unwrap();
        let plain = site.render().unwrap();

        let mut loud = TemplateSet::new();
        loud.add_template("root", "<h1>PAPERS!!</h1><SFMT paper UL>")
            .unwrap();
        loud.add_template("paper", "<h2>** <SFMT title> **</h2>").unwrap();
        loud.assign_object("RootPage", "root");
        loud.assign_collection("Pages", "paper");
        let loud_out = site.render_with(&loud).unwrap();
        assert_eq!(plain.pages.len(), loud_out.pages.len());
        assert_ne!(plain.pages[0].html, loud_out.pages[0].html);
    }

    #[test]
    fn constraints_are_verified_both_ways() {
        let site = builder()
            .constraint("forall p in Pages : exists r in Roots : r -> * -> p")
            .constraint(r#"forall p in Pages : p -> "editor" -> e"#)
            .build()
            .unwrap();
        assert_eq!(site.verifications.len(), 2);
        assert_eq!(site.verifications[0].static_verdict, Verdict::Proved);
        assert!(site.verifications[0].runtime_result.holds);
        assert_eq!(site.verifications[1].static_verdict, Verdict::Unknown);
        assert!(!site.verifications[1].runtime_result.holds);
    }

    #[test]
    fn missing_query_is_a_config_error() {
        let err = SiteBuilder::new("x").root_collection("R").build().unwrap_err();
        assert!(matches!(err, StrudelError::Config(_)));
    }

    #[test]
    fn missing_root_collection_is_a_config_error() {
        let err = SiteBuilder::new("x")
            .query("create RootPage()")
            .build()
            .unwrap_err();
        assert!(matches!(err, StrudelError::Config(_)));
    }

    #[test]
    fn empty_roots_error_mentions_collection() {
        let site = builder().root_collection("Nothing").build().unwrap();
        let err = site.render().unwrap_err();
        assert!(err.to_string().contains("Nothing"));
    }

    #[test]
    fn derive_composes_queries_over_the_site_graph() {
        let site = builder().build().unwrap();
        // Second stage: frame every paper page with a navigation bar.
        let framed = site
            .derive(
                "framed",
                r#"
                create NavBar()
                link NavBar() -> "home" -> "RootPage.html"
                where Pages(p)
                create Framed(p)
                link Framed(p) -> "content" -> p,
                     Framed(p) -> "nav" -> NavBar()
                collect FramedRoots(Framed(p))
            "#,
                "FramedRoots",
            )
            .unwrap();
        assert_eq!(framed.roots().len(), 2);
        let nav = framed.skolem_oid("NavBar");
        assert!(nav.is_some());
        // The derived site still sees the first stage's pages as data.
        for r in framed.roots() {
            let content = framed
                .result
                .graph
                .first_attr_str(r, "content")
                .and_then(strudel_graph::Value::as_node)
                .unwrap();
            assert!(framed.result.graph.attr_str(content, "title").count() > 0);
        }
    }
}
