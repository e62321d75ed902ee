//! The site HTML generator.
//!
//! Takes a site graph, a [`TemplateSet`], and a set of root objects, and
//! produces the browsable web site: one HTML page per *realized* object.
//! Realization is decided during generation (§2.4): the roots are pages,
//! and every object rendered by a format expression *without* `EMBED`
//! becomes a page too, reached by a hyperlink. Objects rendered with
//! `EMBED` stay page components.

use crate::ast::{AttrId, Template};
use crate::error::TemplateError;
use crate::escape::escape_into;
use crate::eval::{render_nodes, write_text, Env};
use crate::parser::parse_template;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet, VecDeque};
use strudel_graph::{CollectionId, Graph, Label, Oid, Value};

/// A registry of named templates plus the selection rules of §2.4.
///
/// Selection order for an object:
/// 1. a template assigned to the object by name
///    ([`TemplateSet::assign_object`]);
/// 2. the template named by the object's `html-template` attribute;
/// 3. the template assigned to a collection the object belongs to (first
///    collection in declaration order wins);
/// 4. the default template, if set;
/// 5. a built-in attribute listing.
#[derive(Clone, Debug, Default)]
pub struct TemplateSet {
    templates: Vec<Template>,
    /// Template name → position in `templates`.
    by_name: HashMap<String, usize>,
    object_assignments: HashMap<String, String>,
    collection_assignments: HashMap<String, String>,
    default: Option<String>,
}

impl TemplateSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Parses and registers a named template.
    pub fn add_template(&mut self, name: &str, src: &str) -> Result<(), TemplateError> {
        let t = parse_template(src)?;
        match self.by_name.entry(name.to_owned()) {
            Entry::Occupied(e) => self.templates[*e.get()] = t,
            Entry::Vacant(e) => {
                e.insert(self.templates.len());
                self.templates.push(t);
            }
        }
        Ok(())
    }

    /// Assigns a registered template to an object (by the object's
    /// symbolic name).
    pub fn assign_object(&mut self, object_name: &str, template: &str) {
        self.object_assignments
            .insert(object_name.to_owned(), template.to_owned());
    }

    /// Assigns a registered template to every member of a collection.
    pub fn assign_collection(&mut self, collection: &str, template: &str) {
        self.collection_assignments
            .insert(collection.to_owned(), template.to_owned());
    }

    /// Sets the fallback template.
    pub fn set_default(&mut self, template: &str) {
        self.default = Some(template.to_owned());
    }

    /// Number of registered templates (a T1 site statistic).
    pub fn template_count(&self) -> usize {
        self.templates.len()
    }

    /// Total source lines across registered templates (a T1 site
    /// statistic).
    pub fn total_line_count(&self) -> usize {
        self.templates.iter().map(|t| t.line_count).sum()
    }

    /// The registered template named `name`, by position.
    fn index_of(&self, name: &str) -> Result<usize, TemplateError> {
        self.by_name.get(name).copied().ok_or_else(|| {
            TemplateError::new(0, format!("no template named '{name}' is registered"))
        })
    }
}

/// A template assignment resolved against a set: the template's position,
/// or the unregistered name, reported when an object selects it.
type Choice<'g> = Result<usize, &'g str>;

/// The §2.4 selection rules of a [`TemplateSet`] with every name resolved
/// against one graph, so choosing a page's template hashes no name.
struct Selection<'g> {
    /// Object assignments, by oid.
    objects: Vec<(Oid, Choice<'g>)>,
    html_template: Option<Label>,
    /// Collection assignments, in collection declaration order.
    collections: Vec<(CollectionId, Choice<'g>)>,
    default: Option<Choice<'g>>,
}

impl<'g> Selection<'g> {
    fn new(graph: &Graph, templates: &'g TemplateSet) -> Self {
        let choice = |name: &'g String| templates.by_name.get(name).copied().ok_or(name.as_str());
        let mut objects: Vec<_> = templates
            .object_assignments
            .iter()
            .filter_map(|(obj, t)| Some((graph.node_by_name(obj)?, choice(t))))
            .collect();
        objects.sort_unstable_by_key(|&(oid, _)| oid);
        let mut collections: Vec<_> = templates
            .collection_assignments
            .iter()
            .filter_map(|(coll, t)| Some((graph.collection_id(coll)?, choice(t))))
            .collect();
        collections.sort_unstable_by_key(|&(cid, _)| cid);
        Selection {
            objects,
            html_template: graph.label("html-template"),
            collections,
            default: templates.default.as_ref().map(choice),
        }
    }

    /// The template for `oid`, by position; `None` means "use the built-in
    /// default rendering".
    fn select(
        &self,
        graph: &Graph,
        templates: &TemplateSet,
        oid: Oid,
    ) -> Result<Option<usize>, TemplateError> {
        let chosen = |c: Choice<'_>| match c {
            Ok(t) => Ok(Some(t)),
            Err(name) => templates.index_of(name).map(Some),
        };
        if let Ok(i) = self.objects.binary_search_by_key(&oid, |&(o, _)| o) {
            return chosen(self.objects[i].1);
        }
        if let Some(Value::Str(name)) = self.html_template.and_then(|l| graph.first_attr(oid, l)) {
            return templates.index_of(name).map(Some);
        }
        let member = Value::Node(oid);
        for &(cid, c) in &self.collections {
            if graph.in_collection(cid, &member) {
                return chosen(c);
            }
        }
        self.default.map_or(Ok(None), chosen)
    }
}

/// One generated page.
#[derive(Clone, Debug)]
pub struct Page {
    /// The realized object.
    pub oid: Oid,
    /// The page's file name, e.g. `YearPage_1998.html`.
    pub name: String,
    /// The page's HTML.
    pub html: String,
    /// Every object whose content this page read while rendering, sorted
    /// and deduplicated — the dependency set driving incremental
    /// regeneration.
    pub deps: Vec<Oid>,
}

impl Page {
    /// Whether the page read any object in `changed`.
    fn reads_any(&self, changed: &[Oid]) -> bool {
        changed.iter().any(|c| self.deps.binary_search(c).is_ok())
    }
}

/// The generated site.
#[derive(Clone, Debug, Default)]
pub struct SiteOutput {
    /// Pages in realization order (roots first).
    pub pages: Vec<Page>,
}

impl SiteOutput {
    /// The page realizing `oid`, if any.
    pub fn page_for(&self, oid: Oid) -> Option<&Page> {
        self.pages.iter().find(|p| p.oid == oid)
    }

    /// A page by file name.
    pub fn page_named(&self, name: &str) -> Option<&Page> {
        self.pages.iter().find(|p| p.name == name)
    }

    /// Total HTML bytes.
    pub fn total_bytes(&self) -> usize {
        self.pages.iter().map(|p| p.html.len()).sum()
    }

    /// Pages whose dependency sets intersect `changed` — the pages an
    /// incremental regeneration must re-render.
    pub fn affected_pages(&self, changed: &[Oid]) -> Vec<Oid> {
        self.pages
            .iter()
            .filter(|p| p.reads_any(changed))
            .map(|p| p.oid)
            .collect()
    }

    /// Checks every intra-site link: returns `(page, href)` pairs whose
    /// `href` names a generated page that does not exist. External links
    /// (containing `://`) and non-`.html` targets are skipped. An empty
    /// result is the §6.2 connectedness story at the HTML level.
    pub fn broken_links(&self) -> Vec<(String, String)> {
        let known: std::collections::HashSet<&str> =
            self.pages.iter().map(|p| p.name.as_str()).collect();
        let mut out = Vec::new();
        for p in &self.pages {
            let mut rest = p.html.as_str();
            while let Some(i) = rest.find("href=\"") {
                rest = &rest[i + 6..];
                let Some(end) = rest.find('"') else { break };
                let href = &rest[..end];
                if href.ends_with(".html")
                    && !href.contains("://")
                    && !known.contains(href)
                {
                    out.push((p.name.clone(), href.to_owned()));
                }
                rest = &rest[end..];
            }
        }
        out
    }

    /// Writes every page into `dir` (created if missing).
    pub fn write_to_dir(&self, dir: &std::path::Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        for p in &self.pages {
            std::fs::write(dir.join(&p.name), &p.html)?;
        }
        Ok(())
    }
}

/// Resolves external file references for `EMBED` of text files.
pub type FileResolver<'a> = dyn Fn(&str) -> Option<String> + 'a;

/// Maps a realized object to an externally chosen URL (e.g. a click-time
/// server route). Returning `None` falls back to the generated `.html`
/// page name.
pub type PageNamer<'a> = dyn Fn(Oid) -> Option<String> + 'a;

/// The HTML generator.
pub struct HtmlGenerator<'g> {
    graph: &'g Graph,
    templates: &'g TemplateSet,
    file_resolver: Option<&'g FileResolver<'g>>,
}

impl<'g> HtmlGenerator<'g> {
    /// A generator over `graph` using `templates`.
    pub fn new(graph: &'g Graph, templates: &'g TemplateSet) -> Self {
        HtmlGenerator {
            graph,
            templates,
            file_resolver: None,
        }
    }

    /// Supplies a resolver used to inline the contents of text files on
    /// `EMBED` (e.g. paper abstracts).
    pub fn with_file_resolver(mut self, resolver: &'g FileResolver<'g>) -> Self {
        self.file_resolver = Some(resolver);
        self
    }

    /// Generates the site starting from `roots`.
    pub fn generate(&self, roots: &[Oid]) -> Result<SiteOutput, TemplateError> {
        let mut ctx = GenCtx::new(self, None);
        for &r in roots {
            ctx.realize(r);
        }
        ctx.render_worklist(&HashMap::new())
    }

    /// Incrementally regenerates `previous` after the objects in `changed`
    /// were modified: only pages whose dependency sets intersect `changed`
    /// (plus any newly reachable pages) are re-rendered; the rest are
    /// carried over verbatim, with stable page names.
    ///
    /// This is the §1 promise "to update a site incrementally when changes
    /// occur in the underlying data", applied to the presentation stage;
    /// pair it with the schema crate's `incremental::MaintainedSite` for
    /// the site-graph stage.
    pub fn regenerate(
        &self,
        previous: &SiteOutput,
        changed: &[Oid],
    ) -> Result<SiteOutput, TemplateError> {
        let mut ctx = GenCtx::new(self, None);
        // Keep page names stable, carry clean pages over, and enqueue the
        // previous inventory in its order (realize() short-circuits on
        // known names, so it is enqueued explicitly).
        let mut clean = HashMap::with_capacity(previous.pages.len());
        for p in &previous.pages {
            ctx.page_names.insert(p.oid, p.name.clone());
            ctx.used_names.insert(p.name.clone());
            ctx.worklist.push_back(p.oid);
            if !p.reads_any(changed) {
                clean.insert(p.oid, p);
            }
        }
        ctx.render_worklist(&clean)
    }

    /// Renders the single page for `oid` without materializing the rest of
    /// the site — the click-time entry point. Hyperlinks to other objects
    /// are resolved through `namer` (mapping objects to server URLs);
    /// objects the namer declines get generated `.html` names, but are
    /// *not* rendered. The returned [`Page`] carries the dependency set of
    /// every object whose content the render read.
    pub fn render_one(&self, oid: Oid, namer: &PageNamer<'_>) -> Result<Page, TemplateError> {
        let mut ctx = GenCtx::new(self, Some(namer));
        let name = ctx.realize(oid).to_owned();
        ctx.render_page(oid, name, &mut String::new())
    }

    /// [`HtmlGenerator::render_one`] for a caller that wants the HTML
    /// only: it is written to `out` (cleared first), whose allocation a
    /// caller rendering page after page keeps, and no page name or
    /// dependency list is copied out.
    pub fn render_one_into(
        &self,
        oid: Oid,
        namer: &PageNamer<'_>,
        out: &mut String,
    ) -> Result<(), TemplateError> {
        let mut ctx = GenCtx::new(self, Some(namer));
        ctx.realize(oid);
        ctx.render_root(oid, out)
    }
}

/// Mutable generation state shared across pages; crate-internal, used by
/// the evaluator to realize links and render embeds.
pub(crate) struct GenCtx<'g> {
    pub(crate) graph: &'g Graph,
    templates: &'g TemplateSet,
    selection: Selection<'g>,
    /// Per template, where its attribute labels start in `labels`, once
    /// the template is first rendered.
    label_starts: Vec<Option<usize>>,
    /// The labels of the rendered templates' attribute names in `graph`
    /// (`None`: the graph has no such edge label).
    labels: Vec<Option<Label>>,
    /// `title`, `name` and `label`: the attributes link text is read from.
    link_text: [Option<Label>; 3],
    file_resolver: Option<&'g FileResolver<'g>>,
    /// External URL assignment for single-page (click-time) rendering.
    namer: Option<&'g PageNamer<'g>>,
    page_names: HashMap<Oid, String>,
    used_names: HashSet<String>,
    worklist: VecDeque<Oid>,
    embed_stack: Vec<Oid>,
    /// Objects read while rendering the current page, with repeats.
    deps: Vec<Oid>,
    /// Emptied value lists, kept for the next attribute expression.
    spare: Vec<Vec<&'g Value>>,
}

impl<'g> GenCtx<'g> {
    fn new(gen: &HtmlGenerator<'g>, namer: Option<&'g PageNamer<'g>>) -> Self {
        let graph = gen.graph;
        GenCtx {
            graph,
            templates: gen.templates,
            selection: Selection::new(graph, gen.templates),
            label_starts: vec![None; gen.templates.templates.len()],
            labels: Vec::new(),
            link_text: ["title", "name", "label"].map(|a| graph.label(a)),
            file_resolver: gen.file_resolver,
            namer,
            page_names: HashMap::new(),
            used_names: HashSet::new(),
            worklist: VecDeque::new(),
            embed_stack: Vec::new(),
            deps: Vec::new(),
            spare: Vec::new(),
        }
    }

    /// Renders every page on the worklist, in order, carrying the pages of
    /// `clean` over instead of rendering them.
    fn render_worklist(
        &mut self,
        clean: &HashMap<Oid, &Page>,
    ) -> Result<SiteOutput, TemplateError> {
        let mut out = SiteOutput::default();
        let mut done: HashSet<Oid> = HashSet::new();
        let mut buf = String::new();
        while let Some(oid) = self.worklist.pop_front() {
            if !done.insert(oid) {
                continue;
            }
            if let Some(&page) = clean.get(&oid) {
                out.pages.push(page.clone());
                continue;
            }
            let name = self.page_names[&oid].clone();
            out.pages.push(self.render_page(oid, name, &mut buf)?);
        }
        Ok(out)
    }

    /// Marks `oid` as realized (a page) and returns its file name.
    pub(crate) fn realize(&mut self, oid: Oid) -> &str {
        match self.page_names.entry(oid) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                if let Some(url) = self.namer.and_then(|namer| namer(oid)) {
                    return e.insert(url);
                }
                let base = match self.graph.node_name(oid) {
                    Some(n) => sanitize(n),
                    None => format!("object_{}", oid.index()),
                };
                let mut name = format!("{base}.html");
                let mut counter = 1;
                while !self.used_names.insert(name.clone()) {
                    name = format!("{base}_{counter}.html");
                    counter += 1;
                }
                self.worklist.push_back(oid);
                e.insert(name)
            }
        }
    }

    /// Writes a hyperlink to `oid`'s page, realizing it.
    pub(crate) fn write_link(&mut self, oid: Oid, out: &mut String) {
        out.push_str("<a href=\"");
        escape_into(out, self.realize(oid));
        out.push_str("\">");
        self.write_link_text(oid, out);
        out.push_str("</a>");
    }

    /// Writes human-readable link text for an object, escaped: its `title`,
    /// `name`, or `label` attribute, else its symbolic name, else its oid.
    fn write_link_text(&self, oid: Oid, out: &mut String) {
        for label in self.link_text.into_iter().flatten() {
            if let Some(v) = self.graph.first_attr(oid, label) {
                if v.is_atomic() {
                    write_text(out, v);
                    return;
                }
            }
        }
        match self.graph.node_name(oid) {
            Some(n) => escape_into(out, n),
            None => escape_into(out, &oid.to_string()),
        }
    }

    /// The label attribute `id` of the template rendered in `env` names in
    /// this graph.
    pub(crate) fn label(&self, env: &Env<'_>, id: AttrId) -> Option<Label> {
        self.labels[env.labels + id.index()]
    }

    /// Where template `t`'s labels start in `labels`, resolving its
    /// attribute names on its first render.
    fn labels_of(&mut self, t: usize) -> usize {
        if let Some(start) = self.label_starts[t] {
            return start;
        }
        let start = self.labels.len();
        let (graph, templates) = (self.graph, self.templates);
        let attrs = &templates.templates[t].attrs;
        self.labels.extend(attrs.iter().map(|a| graph.label(a)));
        self.label_starts[t] = Some(start);
        start
    }

    /// An empty value list, reusing an earlier one's allocation.
    pub(crate) fn take_values(&mut self) -> Vec<&'g Value> {
        self.spare.pop().unwrap_or_default()
    }

    /// Returns a value list for reuse.
    pub(crate) fn give_values(&mut self, mut values: Vec<&'g Value>) {
        values.clear();
        self.spare.push(values);
    }

    /// Whether `oid` is already being embedded (cycle guard).
    pub(crate) fn embedding(&self, oid: Oid) -> bool {
        self.embed_stack.contains(&oid)
    }

    /// Records that the current page read `oid`'s content.
    pub(crate) fn note_dep(&mut self, oid: Oid) {
        self.deps.push(oid);
    }

    pub(crate) fn resolve_file(&self, path: &str) -> Option<String> {
        self.file_resolver.and_then(|f| f(path))
    }

    /// Renders `oid` inline (EMBED).
    pub(crate) fn render_embedded(
        &mut self,
        oid: Oid,
        out: &mut String,
    ) -> Result<(), TemplateError> {
        self.embed_stack.push(oid);
        let r = self.render_body(oid, out);
        self.embed_stack.pop();
        r
    }

    /// Renders the page `name` for `oid` through `buf`, whose allocation
    /// the next page reuses.
    fn render_page(
        &mut self,
        oid: Oid,
        name: String,
        buf: &mut String,
    ) -> Result<Page, TemplateError> {
        self.render_root(oid, buf)?;
        self.deps.sort_unstable();
        self.deps.dedup();
        Ok(Page {
            oid,
            name,
            html: buf.as_str().to_owned(),
            deps: self.deps.to_vec(),
        })
    }

    /// Renders `oid` as a page into `out`, cleared first, recording what
    /// it reads in `deps`. The page's own object joins the embed stack so
    /// a template that (transitively) embeds its own page degrades to a
    /// link instead of recursing.
    fn render_root(&mut self, oid: Oid, out: &mut String) -> Result<(), TemplateError> {
        out.clear();
        self.deps.clear();
        self.embed_stack.push(oid);
        let r = self.render_body(oid, out);
        self.embed_stack.pop();
        r
    }

    fn render_body(&mut self, oid: Oid, out: &mut String) -> Result<(), TemplateError> {
        self.note_dep(oid);
        // The template borrows the set (`'g`), not this context, so
        // rendering can take `&mut self` beside it.
        let templates: &'g TemplateSet = self.templates;
        match self.selection.select(self.graph, templates, oid)? {
            Some(t) => {
                let mut env = Env {
                    current: oid,
                    labels: self.labels_of(t),
                    loops: Vec::new(),
                };
                render_nodes(&templates.templates[t].nodes, &mut env, self, out)
            }
            None => {
                self.render_default(oid, out);
                Ok(())
            }
        }
    }

    /// The built-in default rendering: a definition list of the object's
    /// attributes.
    fn render_default(&mut self, oid: Oid, out: &mut String) {
        let graph = self.graph;
        out.push_str("<html><head><title>");
        self.write_link_text(oid, out);
        out.push_str("</title></head><body><h1>");
        self.write_link_text(oid, out);
        out.push_str("</h1>\n<dl>\n");
        for e in graph.edges(oid) {
            out.push_str("<dt>");
            escape_into(out, graph.label_name(e.label));
            out.push_str("</dt><dd>");
            match &e.to {
                Value::Node(o) => {
                    self.note_dep(*o);
                    self.write_link(*o, out);
                }
                atomic => write_text(out, atomic),
            }
            out.push_str("</dd>\n");
        }
        out.push_str("</dl></body></html>\n");
    }
}

fn sanitize(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    if out.is_empty() {
        out.push('p');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use strudel_graph::{FileKind, Graph};

    /// A tiny two-publication site graph shaped like Fig. 4.
    fn site() -> (Graph, Oid) {
        let mut g = Graph::new();
        let root = g.add_named_node("RootPage");
        let pres1 = g.add_named_node("Pres_p1");
        let pres2 = g.add_named_node("Pres_p2");
        g.add_edge_str(root, "title", Value::string("Home"));
        g.add_edge_str(root, "Paper", Value::Node(pres1));
        g.add_edge_str(root, "Paper", Value::Node(pres2));
        g.add_edge_str(pres1, "title", Value::string("First <paper>"));
        g.add_edge_str(pres1, "year", Value::Int(1998));
        g.add_edge_str(pres1, "author", Value::string("Mary"));
        g.add_edge_str(pres1, "author", Value::string("Dan"));
        g.add_edge_str(pres1, "abstract", Value::file(FileKind::Text, "abs/p1.txt"));
        g.add_edge_str(pres2, "title", Value::string("Second"));
        g.add_edge_str(pres2, "year", Value::Int(1997));
        g.collect_str("Presentations", pres1);
        g.collect_str("Presentations", pres2);
        g.collect_str("Roots", root);
        (g, root)
    }

    #[test]
    fn generates_pages_for_linked_objects() {
        let (g, root) = site();
        let mut ts = TemplateSet::new();
        ts.add_template(
            "root",
            "<html><h1><SFMT title></h1><SFMT Paper ENUM DELIM=\", \"></html>",
        )
        .unwrap();
        ts.add_template("pres", "<h2><SFMT title></h2>Year: <SFMT year>")
            .unwrap();
        ts.assign_object("RootPage", "root");
        ts.assign_collection("Presentations", "pres");

        let out = HtmlGenerator::new(&g, &ts).generate(&[root]).unwrap();
        assert_eq!(out.pages.len(), 3, "root + two linked presentations");
        let root_page = out.page_for(root).unwrap();
        assert!(root_page.html.contains("<h1>Home</h1>"));
        // Links use escaped titles and .html names.
        assert!(root_page.html.contains("First &lt;paper&gt;"));
        assert!(root_page.html.contains("Pres_p1.html"));
        let p1 = out.page_named("Pres_p1.html").unwrap();
        assert!(p1.html.contains("Year: 1998"));
    }

    #[test]
    fn embed_inlines_instead_of_linking() {
        let (g, root) = site();
        let mut ts = TemplateSet::new();
        ts.add_template("root", "<SFMT Paper ENUM EMBED>").unwrap();
        ts.add_template("pres", "[<SFMT title>]").unwrap();
        ts.assign_object("RootPage", "root");
        ts.assign_collection("Presentations", "pres");

        let out = HtmlGenerator::new(&g, &ts).generate(&[root]).unwrap();
        assert_eq!(out.pages.len(), 1, "embedded objects are not pages");
        assert!(out.pages[0].html.contains("[First &lt;paper&gt;][Second]"));
    }

    #[test]
    fn html_template_attribute_selects() {
        let (mut g, root) = site();
        g.add_edge_str(root, "html-template", Value::string("special"));
        let mut ts = TemplateSet::new();
        ts.add_template("special", "SPECIAL <SFMT title>").unwrap();
        let out = HtmlGenerator::new(&g, &ts).generate(&[root]).unwrap();
        assert!(out.page_for(root).unwrap().html.starts_with("SPECIAL"));
    }

    #[test]
    fn object_assignment_beats_collection_assignment() {
        let (g, root) = site();
        let mut ts = TemplateSet::new();
        ts.add_template("obj", "OBJ").unwrap();
        ts.add_template("coll", "COLL").unwrap();
        ts.assign_object("RootPage", "obj");
        ts.assign_collection("Roots", "coll");
        let out = HtmlGenerator::new(&g, &ts).generate(&[root]).unwrap();
        assert_eq!(out.page_for(root).unwrap().html, "OBJ");
    }

    #[test]
    fn default_rendering_lists_attributes() {
        let (g, root) = site();
        let ts = TemplateSet::new();
        let out = HtmlGenerator::new(&g, &ts).generate(&[root]).unwrap();
        let html = &out.page_for(root).unwrap().html;
        assert!(html.contains("<dt>Paper</dt>"));
        assert!(html.contains("<dt>title</dt>"));
        // Default rendering realizes node targets as pages too.
        assert_eq!(out.pages.len(), 3);
    }

    #[test]
    fn missing_template_is_an_error() {
        let (g, root) = site();
        let mut ts = TemplateSet::new();
        ts.assign_object("RootPage", "ghost");
        assert!(HtmlGenerator::new(&g, &ts).generate(&[root]).is_err());
    }

    #[test]
    fn sfor_enumerates_with_delims() {
        let (g, _root) = site();
        let p1 = g.node_by_name("Pres_p1").unwrap();
        let mut ts = TemplateSet::new();
        ts.add_template("pres", r#"<SFOR a IN author DELIM="; ">(<SFMT $a>)</SFOR>"#)
            .unwrap();
        ts.assign_collection("Presentations", "pres");
        let out = HtmlGenerator::new(&g, &ts).generate(&[p1]).unwrap();
        assert!(out.pages[0].html.contains("(Mary); (Dan)"));
    }

    #[test]
    fn sif_takes_else_branch_when_empty() {
        let (g, _) = site();
        let p2 = g.node_by_name("Pres_p2").unwrap();
        let mut ts = TemplateSet::new();
        ts.add_template(
            "pres",
            "<SIF abstract>has abstract<SELSE>no abstract</SIF>",
        )
        .unwrap();
        ts.assign_collection("Presentations", "pres");
        let out = HtmlGenerator::new(&g, &ts).generate(&[p2]).unwrap();
        assert!(out.pages[0].html.contains("no abstract"));
        let p1 = g.node_by_name("Pres_p1").unwrap();
        let out = HtmlGenerator::new(&g, &ts).generate(&[p1]).unwrap();
        assert!(out.pages[0].html.contains("has abstract"));
    }

    #[test]
    fn order_sorts_by_key() {
        let (g, root) = site();
        let mut ts = TemplateSet::new();
        ts.add_template("root", "<SFMT Paper UL ORDER=ascend KEY=year>")
            .unwrap();
        ts.add_template("pres", "x").unwrap();
        ts.assign_object("RootPage", "root");
        ts.assign_collection("Presentations", "pres");
        let out = HtmlGenerator::new(&g, &ts).generate(&[root]).unwrap();
        let html = &out.page_for(root).unwrap().html;
        let pos_97 = html.find("Second").unwrap();
        let pos_98 = html.find("First").unwrap();
        assert!(pos_97 < pos_98, "1997 paper sorts before 1998: {html}");
        assert!(html.contains("<ul>"));
        assert!(html.contains("<li>"));
    }

    #[test]
    fn order_descend_reverses() {
        let (g, root) = site();
        let mut ts = TemplateSet::new();
        ts.add_template("root", "<SFMT Paper ENUM ORDER=descend KEY=year DELIM=\"|\">")
            .unwrap();
        ts.add_template("pres", "x").unwrap();
        ts.assign_object("RootPage", "root");
        ts.assign_collection("Presentations", "pres");
        let out = HtmlGenerator::new(&g, &ts).generate(&[root]).unwrap();
        let html = &out.page_for(root).unwrap().html;
        assert!(html.find("First").unwrap() < html.find("Second").unwrap());
    }

    /// A hub whose `item` targets carry `KEY=k` values of mixed types: two
    /// equal to 7 (an `Int` and a numeric `Str`) beside a third, a
    /// numeric `Str` below them, an `Int` above, a non-numeric `Str`
    /// (the structural fallback puts it after every number), and two
    /// objects without `k`, which sort by their own oids (objects first).
    fn keyed_hub() -> (Graph, Oid) {
        let mut g = Graph::new();
        let nokey2 = g.add_named_node("nokey2");
        let root = g.add_named_node("R");
        let keyed = [
            ("eqA", Some(Value::Int(7))),
            ("numStr", Some(Value::string("5"))),
            ("strSeven", Some(Value::string("7"))),
            ("nokey", None),
            ("eqB", Some(Value::Int(7))),
            ("word", Some(Value::string("apple"))),
            ("ten", Some(Value::Int(10))),
        ];
        for (title, k) in keyed {
            let n = g.add_named_node(title);
            g.add_edge_str(n, "title", Value::string(title));
            if let Some(k) = k {
                g.add_edge_str(n, "k", k);
            }
            g.add_edge_str(root, "item", Value::Node(n));
            g.collect_str("Items", n);
        }
        g.add_edge_str(nokey2, "title", Value::string("nokey2"));
        g.add_edge_str(root, "item", Value::Node(nokey2));
        g.collect_str("Items", nokey2);
        for t in ["b", "a", "c"] {
            g.add_edge_str(root, "tag", Value::string(t));
        }
        (g, root)
    }

    #[test]
    fn order_key_sorts_are_stable_and_total_over_mixed_keys() {
        let (g, root) = keyed_hub();
        let render = |src: &str| {
            let mut ts = TemplateSet::new();
            ts.add_template("root", src).unwrap();
            ts.add_template("item", "<SFMT title>").unwrap();
            ts.assign_object("R", "root");
            ts.assign_collection("Items", "item");
            let out = HtmlGenerator::new(&g, &ts).generate(&[root]).unwrap();
            out.page_for(root).unwrap().html.clone()
        };
        let ascend = "nokey2|nokey|numStr|eqA|strSeven|eqB|ten|word";
        let descend = "word|ten|eqA|strSeven|eqB|numStr|nokey|nokey2";
        for (dir, want) in [("ascend", ascend), ("descend", descend)] {
            let sfor =
                format!(r#"<SFOR v IN item ORDER={dir} KEY=k DELIM="|"><SFMT $v.title></SFOR>"#);
            assert_eq!(render(&sfor), want, "SFOR ORDER={dir}");
            let sfmt = format!(r#"<SFMT item ENUM EMBED ORDER={dir} KEY=k DELIM="|">"#);
            assert_eq!(render(&sfmt), want, "SFMT ORDER={dir}");
        }
        // Atomic values sort by themselves; KEY= does not apply to them.
        let tags = r#"<SFOR t IN tag ORDER=descend KEY=k DELIM=","><SFMT $t></SFOR>"#;
        assert_eq!(render(tags), "c,b,a");
    }

    #[test]
    fn embed_cycles_degrade_to_links() {
        let mut g = Graph::new();
        let a = g.add_named_node("a");
        let b = g.add_named_node("b");
        g.add_edge_str(a, "next", Value::Node(b));
        g.add_edge_str(b, "next", Value::Node(a));
        let mut ts = TemplateSet::new();
        ts.add_template("t", "(<SFMT next EMBED>)").unwrap();
        ts.set_default("t");
        let out = HtmlGenerator::new(&g, &ts).generate(&[a]).unwrap();
        let html = &out.page_for(a).unwrap().html;
        // a embeds b, which would embed a again → link instead.
        assert!(html.contains("a.html"), "{html}");
    }

    #[test]
    fn file_resolver_inlines_text_files() {
        let (g, _) = site();
        let p1 = g.node_by_name("Pres_p1").unwrap();
        let mut ts = TemplateSet::new();
        ts.add_template("pres", "<SFMT abstract EMBED>").unwrap();
        ts.assign_collection("Presentations", "pres");
        let resolver = |path: &str| {
            if path == "abs/p1.txt" {
                Some("the abstract text".to_string())
            } else {
                None
            }
        };
        let out = HtmlGenerator::new(&g, &ts)
            .with_file_resolver(&resolver)
            .generate(&[p1])
            .unwrap();
        assert!(out.pages[0]
            .html
            .contains("<blockquote>the abstract text</blockquote>"));
    }

    #[test]
    fn images_render_as_img_tags() {
        let mut g = Graph::new();
        let n = g.add_named_node("n");
        g.add_edge_str(n, "pic", Value::file(FileKind::Image, "me.gif"));
        let mut ts = TemplateSet::new();
        ts.add_template("t", "<SFMT pic>").unwrap();
        ts.set_default("t");
        let out = HtmlGenerator::new(&g, &ts).generate(&[n]).unwrap();
        assert!(out.pages[0].html.contains("<img src=\"me.gif\""));
    }

    #[test]
    fn urls_render_as_anchors() {
        let mut g = Graph::new();
        let n = g.add_named_node("n");
        g.add_edge_str(n, "home", Value::url("http://example.org"));
        let mut ts = TemplateSet::new();
        ts.add_template("t", "<SFMT home>").unwrap();
        ts.set_default("t");
        let out = HtmlGenerator::new(&g, &ts).generate(&[n]).unwrap();
        assert!(out.pages[0]
            .html
            .contains("<a href=\"http://example.org\">http://example.org</a>"));
    }

    #[test]
    fn page_names_deduplicate() {
        let mut g = Graph::new();
        let a = g.add_node(); // anonymous
        let b = g.add_node();
        g.add_edge_str(a, "x", Value::Int(1));
        g.add_edge_str(b, "x", Value::Int(2));
        let ts = TemplateSet::new();
        let out = HtmlGenerator::new(&g, &ts).generate(&[a, b]).unwrap();
        let names: HashSet<&str> = out.pages.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names.len(), 2);
    }

    #[test]
    fn attribute_paths_navigate() {
        let (g, root) = site();
        let mut ts = TemplateSet::new();
        ts.add_template("root", "<SFMT Paper.title ENUM DELIM=\"/\">")
            .unwrap();
        ts.assign_object("RootPage", "root");
        ts.add_template("x", "x").unwrap();
        ts.assign_collection("Presentations", "x");
        let out = HtmlGenerator::new(&g, &ts).generate(&[root]).unwrap();
        let html = &out.page_for(root).unwrap().html;
        assert!(html.contains("First &lt;paper&gt;/Second"));
    }

    #[test]
    fn write_to_dir_round_trips(){
        let (g, root) = site();
        let ts = TemplateSet::new();
        let out = HtmlGenerator::new(&g, &ts).generate(&[root]).unwrap();
        let dir = std::env::temp_dir().join(format!("strudel-gen-{}", std::process::id()));
        out.write_to_dir(&dir).unwrap();
        let on_disk = std::fs::read_to_string(dir.join(&out.pages[0].name)).unwrap();
        assert_eq!(on_disk, out.pages[0].html);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn regenerate_rerenders_only_affected_pages() {
        let (mut g, root) = site();
        let mut ts = TemplateSet::new();
        ts.add_template(
            "root",
            "<html><h1><SFMT title></h1><SFMT Paper ENUM DELIM=\", \"></html>",
        )
        .unwrap();
        ts.add_template("pres", "<h2><SFMT title></h2>Year: <SFMT year>")
            .unwrap();
        ts.assign_object("RootPage", "root");
        ts.assign_collection("Presentations", "pres");

        let first = HtmlGenerator::new(&g, &ts).generate(&[root]).unwrap();
        assert_eq!(first.pages.len(), 3);

        // Change pres2's year; only its own page and the root (which links
        // to it and reads its title) can be affected.
        let p2 = g.node_by_name("Pres_p2").unwrap();
        let year = g.label("year").unwrap();
        g.remove_edge(p2, year, &Value::Int(1997));
        g.add_edge(p2, year, Value::Int(1999));

        let affected = first.affected_pages(&[p2]);
        assert!(affected.contains(&p2));

        let second = HtmlGenerator::new(&g, &ts)
            .regenerate(&first, &[p2])
            .unwrap();
        assert_eq!(second.pages.len(), 3);
        // The untouched paper's page is carried over byte-identical; the
        // changed paper re-rendered.
        let p1 = g.node_by_name("Pres_p1").unwrap();
        assert_eq!(
            first.page_for(p1).unwrap().html,
            second.page_for(p1).unwrap().html
        );
        assert!(second.page_for(p2).unwrap().html.contains("Year: 1999"));
        assert!(first.page_for(p2).unwrap().html.contains("Year: 1997"));

        // Regeneration equals a full re-render.
        let full = HtmlGenerator::new(&g, &ts).generate(&[root]).unwrap();
        for p in &full.pages {
            assert_eq!(
                p.html,
                second.page_for(p.oid).unwrap().html,
                "page {} diverged",
                p.name
            );
        }
    }

    #[test]
    fn regenerate_keeps_page_names_stable() {
        let (g, root) = site();
        let ts = TemplateSet::new();
        let first = HtmlGenerator::new(&g, &ts).generate(&[root]).unwrap();
        let second = HtmlGenerator::new(&g, &ts)
            .regenerate(&first, &[root])
            .unwrap();
        for p in &first.pages {
            assert_eq!(
                second.page_for(p.oid).unwrap().name,
                p.name,
                "names must not shift between runs"
            );
        }
    }

    #[test]
    fn deps_include_embedded_and_keyed_objects() {
        let (g, root) = site();
        let mut ts = TemplateSet::new();
        ts.add_template("root", "<SFMT Paper UL ORDER=ascend KEY=year>")
            .unwrap();
        ts.add_template("pres", "x").unwrap();
        ts.assign_object("RootPage", "root");
        ts.assign_collection("Presentations", "pres");
        let out = HtmlGenerator::new(&g, &ts).generate(&[root]).unwrap();
        let root_page = out.page_for(root).unwrap();
        let p1 = g.node_by_name("Pres_p1").unwrap();
        let p2 = g.node_by_name("Pres_p2").unwrap();
        assert!(root_page.deps.contains(&root));
        assert!(root_page.deps.contains(&p1), "KEY read p1's year");
        assert!(root_page.deps.contains(&p2));
    }

    #[test]
    fn nested_sfor_shadows_loop_variables() {
        let mut g = Graph::new();
        let n = g.add_named_node("n");
        g.add_edge_str(n, "x", Value::string("outer"));
        let inner = g.add_node();
        g.add_edge_str(inner, "x", Value::string("inner"));
        g.add_edge_str(n, "child", Value::Node(inner));
        let mut ts = TemplateSet::new();
        // The inner loop rebinds $v; after it closes, $v is the outer
        // binding again.
        ts.add_template(
            "t",
            "<SFOR v IN x>[<SFMT $v>]<SFOR v IN child><SFOR v IN $v.x>(<SFMT $v>)</SFOR></SFOR>{<SFMT $v>}</SFOR>",
        )
        .unwrap();
        ts.set_default("t");
        let out = HtmlGenerator::new(&g, &ts).generate(&[n]).unwrap();
        assert_eq!(out.pages[0].html, "[outer](inner){outer}");
    }

    #[test]
    fn broken_links_detection() {
        let (g, root) = site();
        let ts = TemplateSet::new();
        let mut out = HtmlGenerator::new(&g, &ts).generate(&[root]).unwrap();
        assert!(out.broken_links().is_empty(), "{:?}", out.broken_links());
        // Break it: drop a linked page.
        out.pages.retain(|p| !p.name.starts_with("Pres_p1"));
        let broken = out.broken_links();
        assert_eq!(broken.len(), 1);
        assert_eq!(broken[0].1, "Pres_p1.html");
    }

    #[test]
    fn render_one_uses_namer_urls_and_renders_nothing_else() {
        let (g, root) = site();
        let mut ts = TemplateSet::new();
        ts.add_template(
            "root",
            "<html><h1><SFMT title></h1><SFMT Paper UL ORDER=ascend KEY=year></html>",
        )
        .unwrap();
        ts.add_template("pres", "unused here").unwrap();
        ts.assign_object("RootPage", "root");
        ts.assign_collection("Presentations", "pres");

        let namer = |oid: Oid| {
            g.node_name(oid).map(|n| format!("/page/{n}"))
        };
        let page = HtmlGenerator::new(&g, &ts).render_one(root, &namer).unwrap();
        assert_eq!(page.name, "/page/RootPage");
        assert!(page.html.contains("href=\"/page/Pres_p1\""), "{}", page.html);
        assert!(page.html.contains("href=\"/page/Pres_p2\""));
        // KEY= reads were recorded as dependencies.
        let p1 = g.node_by_name("Pres_p1").unwrap();
        assert!(page.deps.contains(&p1));
    }

    #[test]
    fn render_one_falls_back_to_html_names_when_namer_declines() {
        let (g, root) = site();
        let ts = TemplateSet::new();
        let namer = |_| None;
        let page = HtmlGenerator::new(&g, &ts).render_one(root, &namer).unwrap();
        assert_eq!(page.name, "RootPage.html");
        assert!(page.html.contains("Pres_p1.html"));
    }

    #[test]
    fn template_set_statistics() {
        let mut ts = TemplateSet::new();
        ts.add_template("a", "one\ntwo\nthree").unwrap();
        ts.add_template("b", "one line").unwrap();
        assert_eq!(ts.template_count(), 2);
        assert_eq!(ts.total_line_count(), 4);
    }
}
