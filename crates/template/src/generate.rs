//! The site HTML generator.
//!
//! Takes a site, a [`TemplateSet`], and a set of root objects, and
//! produces the browsable web site: one HTML page per *realized* object.
//! Realization is decided during generation (§2.4): the roots are pages,
//! and every object rendered by a format expression *without* `EMBED`
//! becomes a page too, reached by a hyperlink. Objects rendered with
//! `EMBED` stay page components.
//!
//! The generator reads the site through [`SiteSource`]. The static build
//! hands it the materialized site [`Graph`]; the click-time server hands
//! it an adapter over the page views it computes. One evaluator renders
//! both.

use crate::ast::{AttrId, Template};
use crate::error::TemplateError;
use crate::escape::escape_into;
use crate::eval::{render_nodes, write_text, Env};
use crate::parser::parse_template;
use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt::Write;
use std::hash::Hash;
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

    /// The registered template named `name`.
    fn index_of(&self, name: &str) -> Result<TemplateId, TemplateError> {
        self.by_name.get(name).map(|&i| TemplateId(i)).ok_or_else(|| {
            TemplateError::new(0, format!("no template named '{name}' is registered"))
        })
    }

    /// The rules of §2.4 that read no attribute, resolved once for a class
    /// of objects — every page of one Skolem symbol, say: objects named
    /// `name` (if they have a name) that belong to `collections`, given in
    /// declaration order.
    pub fn rule<'c>(
        &self,
        name: Option<&str>,
        collections: impl IntoIterator<Item = &'c str>,
    ) -> Rule {
        let pick = |t: &String| self.index_of(t).map_err(|_| t.as_str().into());
        let otherwise = collections
            .into_iter()
            .find_map(|c| self.collection_assignments.get(c))
            .or(self.default.as_ref());
        Rule {
            named: name.and_then(|n| self.object_assignments.get(n)).map(pick),
            otherwise: otherwise.map(pick),
        }
    }

    /// The template §2.4 selects for `oid` of `graph`; `None` means the
    /// built-in listing.
    pub fn select_in(&self, graph: &Graph, oid: Oid) -> Result<Option<TemplateId>, TemplateError> {
        Selection::new(graph, self).select(graph, self, oid)
    }
}

/// A template of a [`TemplateSet`], by position.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TemplateId(usize);

/// A template assignment resolved against a set: the template, or the
/// unregistered name, reported when an object selects it.
type Choice<'g> = Result<TemplateId, &'g str>;

/// §2.4's choice for a class of objects, resolved by
/// [`TemplateSet::rule`]. Rule 2, an object's own `html-template`
/// attribute, is read per object by [`Rule::select`].
#[derive(Clone, Debug, Default)]
pub struct Rule {
    named: Option<Result<TemplateId, Box<str>>>,
    otherwise: Option<Result<TemplateId, Box<str>>>,
}

impl Rule {
    /// The template for an object of the class whose first `html-template`
    /// value is `html_template`; `None` means the built-in listing.
    pub fn select(
        &self,
        templates: &TemplateSet,
        html_template: Option<&Value>,
    ) -> Result<Option<TemplateId>, TemplateError> {
        let chosen = match (&self.named, html_template, &self.otherwise) {
            (Some(chosen), _, _) => chosen,
            (None, Some(Value::Str(name)), _) => return templates.index_of(name).map(Some),
            (None, _, Some(chosen)) => chosen,
            (None, _, None) => return Ok(None),
        };
        match chosen {
            Ok(t) => Ok(Some(*t)),
            Err(name) => templates.index_of(name).map(Some),
        }
    }
}

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
        let choice = |name: &'g String| templates.index_of(name).map_err(|_| name.as_str());
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

    /// The template for `oid`; `None` means "use the built-in default
    /// rendering".
    fn select(
        &self,
        graph: &Graph,
        templates: &TemplateSet,
        oid: Oid,
    ) -> Result<Option<TemplateId>, TemplateError> {
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

/// The attributes link text is read from, in order of preference.
pub const LINK_TEXT_ATTRS: [&str; 3] = ["title", "name", "label"];

/// A value as the generator reads it: atomic, or an object it can link,
/// embed or navigate from.
#[derive(Clone, Copy, Debug)]
pub enum Item<'g, N> {
    /// An atomic value (never a [`Value::Node`]).
    Value(&'g Value),
    /// An object of the site.
    Node(N),
}

/// What the generator reads of a site: out-edges by label, link text,
/// names, the §2.4 template choice and page URLs. The static build reads
/// its materialized [`Graph`]; the click-time server reads an adapter
/// over the page views it computes. Implemented for a shared reference,
/// so every borrow a method hands out lasts the whole render (`'g`), and
/// dispatched statically.
pub trait SiteSource<'g>: Copy {
    /// An object: a page or a page component.
    type Node: Copy + Eq + Hash;
    /// An attribute name, resolved once per template.
    type Label: Copy;

    /// The label attribute `name` stands for; `None` when no object of
    /// the site has one.
    fn label(self, name: &'g str) -> Option<Self::Label>;
    /// The attribute name `label` stands for.
    fn label_name(self, label: Self::Label) -> &'g str;
    /// `node`'s out-edges in edge order: all of them, or those labelled
    /// `label`.
    fn edges(
        self,
        node: Self::Node,
        label: Option<Self::Label>,
    ) -> impl Iterator<Item = (Self::Label, Item<'g, Self::Node>)> + 'g;
    /// `node`'s link text: the first value of its [`LINK_TEXT_ATTRS`], in
    /// that order, that is atomic.
    fn link_text(self, node: Self::Node) -> Option<&'g Value>;
    /// Appends `node`'s name to `out`: its link text when it has none.
    fn write_name(self, node: Self::Node, out: &mut String);
    /// The template §2.4 selects for `node`; `None` means the built-in
    /// listing.
    fn template(
        self,
        node: Self::Node,
        templates: &TemplateSet,
    ) -> Result<Option<TemplateId>, TemplateError>;
    /// Appends the URL of `node`'s page to `out` and answers `true`; or,
    /// for a page the site has no URL for, appends the stem of a generated
    /// `.html` file name and answers `false`.
    fn url(self, node: Self::Node, out: &mut String) -> bool;
    /// The order of two objects that `ORDER=` compares as values; by
    /// default none, so objects keep their edge order.
    fn cmp_nodes(self, _: Self::Node, _: Self::Node) -> Ordering {
        Ordering::Equal
    }
}

/// A [`Graph`] as the generator reads it, with §2.4's rules and the
/// link-text labels resolved against it once.
pub(crate) struct GraphSource<'g> {
    graph: &'g Graph,
    selection: Selection<'g>,
    /// `title`, `name` and `label`: the attributes link text is read from.
    link_text: [Option<Label>; 3],
    /// The lowest of `link_text`'s label ids and the distance to the
    /// highest: one subtraction and compare passes over an edge that
    /// carries none of them.
    link_text_ids: (usize, usize),
    namer: Option<&'g PageNamer<'g>>,
}

impl<'g> GraphSource<'g> {
    pub(crate) fn new(
        graph: &'g Graph,
        templates: &'g TemplateSet,
        namer: Option<&'g PageNamer<'g>>,
    ) -> Self {
        let link_text = LINK_TEXT_ATTRS.map(|a| graph.label(a));
        let ids = link_text.iter().flatten().map(|l| l.index());
        let lo = ids.clone().min().unwrap_or(usize::MAX);
        GraphSource {
            graph,
            selection: Selection::new(graph, templates),
            link_text,
            link_text_ids: (lo, ids.max().map_or(0, |hi| hi - lo)),
            namer,
        }
    }
}

/// A graph edge's target as the generator reads it.
fn graph_item(v: &Value) -> Item<'_, Oid> {
    match v {
        Value::Node(o) => Item::Node(*o),
        atomic => Item::Value(atomic),
    }
}

impl<'g> SiteSource<'g> for &'g GraphSource<'g> {
    type Node = Oid;
    type Label = Label;

    fn label(self, name: &'g str) -> Option<Label> {
        self.graph.label(name)
    }

    fn label_name(self, label: Label) -> &'g str {
        self.graph.label_name(label)
    }

    fn edges(
        self,
        oid: Oid,
        label: Option<Label>,
    ) -> impl Iterator<Item = (Label, Item<'g, Oid>)> + 'g {
        let edges = self.graph.edges(oid).iter();
        let kept = edges.filter(move |e| label.map_or(true, |l| e.label == l));
        kept.map(|e| (e.label, graph_item(&e.to)))
    }

    /// One scan of the edges finds all three first values, and it stops
    /// as soon as the earlier attributes are settled.
    fn link_text(self, oid: Oid) -> Option<&'g Value> {
        let (lo, span) = self.link_text_ids;
        let mut first: [Option<&Value>; 3] = [None; 3];
        'scan: for e in self.graph.edges(oid) {
            if e.label.index().wrapping_sub(lo) > span {
                continue;
            }
            let Some(i) = self.link_text.iter().position(|&l| l == Some(e.label)) else {
                continue;
            };
            if first[i].is_some() {
                continue;
            }
            first[i] = Some(&e.to);
            // Settled once an atomic first value is found and so is every
            // attribute before it that the graph has, or once all are.
            for (label, v) in self.link_text.iter().zip(first) {
                match v {
                    Some(v) if v.is_atomic() => break 'scan,
                    None if label.is_some() => continue 'scan,
                    _ => {}
                }
            }
            break;
        }
        first.into_iter().flatten().find(|v| v.is_atomic())
    }

    fn write_name(self, oid: Oid, out: &mut String) {
        match self.graph.node_name(oid) {
            Some(n) => out.push_str(n),
            None => {
                let _ = write!(out, "{oid}");
            }
        }
    }

    fn template(self, oid: Oid, templates: &TemplateSet) -> Result<Option<TemplateId>, TemplateError> {
        self.selection.select(self.graph, templates, oid)
    }

    fn url(self, oid: Oid, out: &mut String) -> bool {
        if let Some(url) = self.namer.and_then(|namer| namer(oid)) {
            out.push_str(&url);
            return true;
        }
        match self.graph.node_name(oid) {
            Some(n) => sanitize_into(out, n),
            None => {
                let _ = write!(out, "object_{}", oid.index());
            }
        }
        false
    }

    fn cmp_nodes(self, a: Oid, b: Oid) -> Ordering {
        a.cmp(&b)
    }
}

/// The HTML generator over a materialized site graph.
pub struct HtmlGenerator<'g> {
    graph: &'g Graph,
    templates: &'g TemplateSet,
    file_resolver: Option<&'g FileResolver<'g>>,
    namer: Option<&'g PageNamer<'g>>,
}

impl<'g> HtmlGenerator<'g> {
    /// A generator over `graph` using `templates`.
    pub fn new(graph: &'g Graph, templates: &'g TemplateSet) -> Self {
        HtmlGenerator {
            graph,
            templates,
            file_resolver: None,
            namer: None,
        }
    }

    /// Supplies a resolver used to inline the contents of text files on
    /// `EMBED` (e.g. paper abstracts).
    pub fn with_file_resolver(mut self, resolver: &'g FileResolver<'g>) -> Self {
        self.file_resolver = Some(resolver);
        self
    }

    /// Names realized objects through `namer` (mapping objects to server
    /// URLs, say) wherever it answers, instead of by generated `.html`
    /// file names.
    pub fn with_namer(mut self, namer: &'g PageNamer<'g>) -> Self {
        self.namer = Some(namer);
        self
    }

    /// Generates the site starting from `roots`.
    pub fn generate(&self, roots: &[Oid]) -> Result<SiteOutput, TemplateError> {
        let src = GraphSource::new(self.graph, self.templates, self.namer);
        let mut ctx = GenCtx::new(&src, self.templates, self.file_resolver, false);
        for &r in roots {
            ctx.realize(r);
        }
        ctx.render_worklist()
    }
}

/// Renders `node` of `site` as one page into `out` (cleared first), and
/// nothing else: the click-time entry point. Hyperlinks take the site's
/// URLs ([`SiteSource::url`]). A caller rendering page after page keeps
/// `out`'s allocation.
pub fn render_page<'g, S: SiteSource<'g>>(
    site: S,
    templates: &'g TemplateSet,
    node: S::Node,
    out: &mut String,
) -> Result<(), TemplateError> {
    GenCtx::new(site, templates, None, true).render_root(node, out)
}

/// Mutable generation state shared across pages; crate-internal, used by
/// the evaluator to realize links and render embeds.
pub(crate) struct GenCtx<'g, S: SiteSource<'g>> {
    pub(crate) src: S,
    templates: &'g TemplateSet,
    /// Per template, where its attribute labels start in `labels`, once
    /// the template is first rendered.
    label_starts: Vec<Option<usize>>,
    /// The labels of the rendered templates' attribute names in the site
    /// (`None`: no object has such an attribute).
    labels: Vec<Option<S::Label>>,
    file_resolver: Option<&'g FileResolver<'g>>,
    /// Rendering one page: a link takes the site's URL and realizes
    /// nothing.
    one_page: bool,
    page_names: HashMap<S::Node, String>,
    used_names: HashSet<String>,
    worklist: VecDeque<S::Node>,
    embed_stack: Vec<S::Node>,
    /// A link's URL or an object's name, before it is escaped.
    text: String,
    /// Emptied value lists, kept for the next attribute expression.
    spare: Vec<Vec<Item<'g, S::Node>>>,
}

impl<'g> GenCtx<'g, &'g GraphSource<'g>> {
    /// Renders every page on the worklist, in order; `realize` enqueues
    /// each object once, when it first names its page.
    fn render_worklist(&mut self) -> Result<SiteOutput, TemplateError> {
        let mut out = SiteOutput::default();
        let mut buf = String::new();
        while let Some(oid) = self.worklist.pop_front() {
            self.render_root(oid, &mut buf)?;
            out.pages.push(Page {
                oid,
                name: self.page_names[&oid].clone(),
                html: buf.as_str().to_owned(),
            });
        }
        Ok(out)
    }
}

impl<'g, S: SiteSource<'g>> GenCtx<'g, S> {
    fn new(
        src: S,
        templates: &'g TemplateSet,
        file_resolver: Option<&'g FileResolver<'g>>,
        one_page: bool,
    ) -> Self {
        GenCtx {
            src,
            templates,
            label_starts: vec![None; templates.templates.len()],
            labels: Vec::new(),
            file_resolver,
            one_page,
            page_names: HashMap::new(),
            used_names: HashSet::new(),
            worklist: VecDeque::new(),
            embed_stack: Vec::new(),
            text: String::new(),
            spare: Vec::new(),
        }
    }

    /// Marks `node` as realized (a page) and returns its URL or file name.
    fn realize(&mut self, node: S::Node) -> &str {
        match self.page_names.entry(node) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                let mut name = String::new();
                if !self.src.url(node, &mut name) {
                    let base = std::mem::take(&mut name);
                    name = format!("{base}.html");
                    let mut counter = 1;
                    while !self.used_names.insert(name.clone()) {
                        name = format!("{base}_{counter}.html");
                        counter += 1;
                    }
                }
                self.worklist.push_back(node);
                e.insert(name)
            }
        }
    }

    /// Writes a hyperlink to `node`'s page, realizing it.
    pub(crate) fn write_link(&mut self, node: S::Node, out: &mut String) {
        out.push_str("<a href=\"");
        self.text.clear();
        if self.one_page && self.src.url(node, &mut self.text) {
            escape_into(out, &self.text);
        } else {
            escape_into(out, self.realize(node));
        }
        out.push_str("\">");
        self.write_link_text(node, out);
        out.push_str("</a>");
    }

    /// Writes human-readable link text for an object, escaped: its
    /// [`SiteSource::link_text`], else its name.
    fn write_link_text(&mut self, node: S::Node, out: &mut String) {
        match self.src.link_text(node) {
            Some(v) => write_text(out, v),
            None => {
                self.text.clear();
                self.src.write_name(node, &mut self.text);
                escape_into(out, &self.text);
            }
        }
    }

    /// The label attribute `id` of the template rendered in `env` names in
    /// the site.
    pub(crate) fn label(&self, env: &Env<'g, S::Node>, id: AttrId) -> Option<S::Label> {
        self.labels[env.labels + id.index()]
    }

    /// Where template `t`'s labels start in `labels`, resolving its
    /// attribute names on its first render.
    fn labels_of(&mut self, t: TemplateId) -> usize {
        if let Some(start) = self.label_starts[t.0] {
            return start;
        }
        let start = self.labels.len();
        let (src, templates) = (self.src, self.templates);
        let attrs = &templates.templates[t.0].attrs;
        self.labels.extend(attrs.iter().map(|a| src.label(a)));
        self.label_starts[t.0] = Some(start);
        start
    }

    /// An empty value list, reusing an earlier one's allocation.
    pub(crate) fn take_values(&mut self) -> Vec<Item<'g, S::Node>> {
        self.spare.pop().unwrap_or_default()
    }

    /// Returns a value list for reuse.
    pub(crate) fn give_values(&mut self, mut values: Vec<Item<'g, S::Node>>) {
        values.clear();
        self.spare.push(values);
    }

    /// Whether `node` is already being embedded (cycle guard).
    pub(crate) fn embedding(&self, node: S::Node) -> bool {
        self.embed_stack.contains(&node)
    }

    pub(crate) fn resolve_file(&self, path: &str) -> Option<String> {
        self.file_resolver.and_then(|f| f(path))
    }

    /// Renders `node` inline (EMBED).
    pub(crate) fn render_embedded(
        &mut self,
        node: S::Node,
        out: &mut String,
    ) -> Result<(), TemplateError> {
        self.embed_stack.push(node);
        let r = self.render_body(node, out);
        self.embed_stack.pop();
        r
    }

    /// Renders `node` as a page into `out`, cleared first. The page's own
    /// object joins the embed stack so a template that (transitively)
    /// embeds its own page degrades to a link instead of recursing.
    fn render_root(&mut self, node: S::Node, out: &mut String) -> Result<(), TemplateError> {
        out.clear();
        self.embed_stack.push(node);
        let r = self.render_body(node, out);
        self.embed_stack.pop();
        r
    }

    fn render_body(&mut self, node: S::Node, out: &mut String) -> Result<(), TemplateError> {
        // The template borrows the set (`'g`), not this context, so
        // rendering can take `&mut self` beside it.
        let templates: &'g TemplateSet = self.templates;
        match self.src.template(node, templates)? {
            Some(t) => {
                let mut env = Env {
                    current: node,
                    labels: self.labels_of(t),
                    loops: Vec::new(),
                };
                render_nodes(&templates.templates[t.0].nodes, &mut env, self, out)
            }
            None => {
                self.render_default(node, out);
                Ok(())
            }
        }
    }

    /// The built-in default rendering: a definition list of the object's
    /// attributes.
    fn render_default(&mut self, node: S::Node, out: &mut String) {
        out.push_str("<html><head><title>");
        self.write_link_text(node, out);
        out.push_str("</title></head><body><h1>");
        self.write_link_text(node, out);
        out.push_str("</h1>\n<dl>\n");
        let src = self.src;
        for (label, item) in src.edges(node, None) {
            out.push_str("<dt>");
            escape_into(out, src.label_name(label));
            out.push_str("</dt><dd>");
            match item {
                Item::Node(n) => self.write_link(n, out),
                Item::Value(v) => write_text(out, v),
            }
            out.push_str("</dd>\n");
        }
        out.push_str("</dl></body></html>\n");
    }
}

/// Appends `name` to `out` with every character but ASCII letters and
/// digits replaced, or `p` for an empty name.
fn sanitize_into(out: &mut String, name: &str) {
    out.extend(name.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }));
    if name.is_empty() {
        out.push('p');
    }
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
        let mut html = String::from("stale");
        let src = GraphSource::new(&g, &ts, Some(&namer));
        render_page(&src, &ts, root, &mut html).unwrap();
        assert!(html.starts_with("<html><h1>Home</h1>"), "{html}");
        assert!(html.contains("href=\"/page/Pres_p1\""), "{html}");
        assert!(html.contains("href=\"/page/Pres_p2\""));
        assert!(!html.contains("unused here"), "linked pages are not rendered");
    }

    #[test]
    fn render_one_falls_back_to_html_names_when_namer_declines() {
        let (g, root) = site();
        let ts = TemplateSet::new();
        let namer = |_| None;
        let mut html = String::new();
        let src = GraphSource::new(&g, &ts, Some(&namer));
        render_page(&src, &ts, root, &mut html).unwrap();
        assert!(html.contains("href=\"Pres_p1.html\""), "{html}");
        assert!(html.contains("href=\"Pres_p2.html\""));
    }

    #[test]
    fn template_set_statistics() {
        let mut ts = TemplateSet::new();
        ts.add_template("a", "one\ntwo\nthree").unwrap();
        ts.add_template("b", "one line").unwrap();
        assert_eq!(ts.template_count(), 2);
        assert_eq!(ts.total_line_count(), 4);
    }

    /// Link text from one scan of the edges picks what one scan per
    /// candidate attribute picked: the first value of `title`, `name` or
    /// `label`, in that order, that is atomic.
    #[test]
    fn link_text_in_one_scan_matches_a_scan_per_attribute() {
        fn reference(g: &Graph, oid: Oid) -> String {
            let mut out = String::new();
            let labels = ["title", "name", "label"].map(|a| g.label(a));
            for label in labels.into_iter().flatten() {
                if let Some(v) = g.first_attr(oid, label) {
                    if v.is_atomic() {
                        write_text(&mut out, v);
                        return out;
                    }
                }
            }
            match g.node_name(oid) {
                Some(n) => escape_into(&mut out, n),
                None => escape_into(&mut out, &oid.to_string()),
            }
            out
        }

        let mut g = Graph::new();
        let target = g.add_named_node("Target");
        let node_title = g.add_named_node("NodeTitle");
        g.add_edge_str(node_title, "title", Value::Node(target));
        g.add_edge_str(node_title, "title", Value::string("later title"));
        g.add_edge_str(node_title, "label", Value::string("a label"));
        g.add_edge_str(node_title, "name", Value::string("Ann & Bob"));
        let only_label = g.add_named_node("OnlyLabel");
        g.add_edge_str(only_label, "Story", Value::Node(target));
        g.add_edge_str(only_label, "label", Value::Int(7));
        let deep = g.add_named_node("Deep");
        g.add_edge_str(deep, "name", Value::string("a name"));
        for _ in 0..300 {
            g.add_edge_str(deep, "Story", Value::Node(target));
        }
        g.add_edge_str(deep, "title", Value::string("deep title"));
        let two_titles = g.add_named_node("TwoTitles");
        g.add_edge_str(two_titles, "title", Value::string("first"));
        g.add_edge_str(two_titles, "title", Value::string("second"));
        let all_nodes = g.add_named_node("All<Nodes>");
        for l in ["label", "name", "title"] {
            g.add_edge_str(all_nodes, l, Value::Node(target));
        }
        let anonymous = g.add_node();
        g.add_edge_str(anonymous, "Story", Value::Node(target));

        let ts = TemplateSet::new();
        let src = GraphSource::new(&g, &ts, None);
        let mut ctx = GenCtx::new(&src, &ts, None, false);
        let mut text = |oid| {
            let mut out = String::new();
            ctx.write_link_text(oid, &mut out);
            assert_eq!(out, reference(&g, oid), "{oid}");
            out
        };
        assert_eq!(text(node_title), "Ann &amp; Bob");
        assert_eq!(text(only_label), "7");
        assert_eq!(text(deep), "deep title");
        assert_eq!(text(two_titles), "first");
        assert_eq!(text(all_nodes), "All&lt;Nodes&gt;");
        assert_eq!(text(anonymous), anonymous.to_string().replace('&', "&amp;"));
        assert_eq!(text(target), "Target");

        // A graph that never interned `title` or `name`.
        let mut g = Graph::new();
        let only_label = g.add_node();
        g.add_edge_str(only_label, "label", Value::string("just a label"));
        let src = GraphSource::new(&g, &ts, None);
        let mut out = String::new();
        GenCtx::new(&src, &ts, None, false).write_link_text(only_label, &mut out);
        assert_eq!(out, "just a label");
        assert_eq!(out, reference(&g, only_label));
    }
}
