//! Click-time HTML rendering: a [`PageView`] becomes a real templated
//! page, not an attribute dump.
//!
//! The static pipeline renders templates against the materialized site
//! graph. At click time there is no site graph, only the page views the
//! engine computes on demand, and the generator reads those through
//! [`SiteSource`]. An object is a page (a [`PageKey`]) or a raw
//! data-graph object. A template that reads through a linked page — its
//! link text, a `KEY=` sort key, an `EMBED` — fetches that page's view
//! from the engine's shared page-view cache, to any depth; a view no
//! template reads is never fetched. Every view read is recorded: the
//! rendition's dependency set for delta invalidation.
//!
//! Rendering agrees with the static build byte for byte. Template choice
//! follows §2.4, its name and collection rules resolved once per Skolem
//! symbol ([`PageTemplates`]); a page without a `title`, `name` or
//! `label` is named by its Skolem term, as the static build names the
//! node; URLs come from the stable router; and a data object takes the
//! template the static build selects for it, on a page and on its own
//! `/data/` route.
//!
//! The data graph is read in brief reads under the engine's database lock
//! — for a URL, a name, or a data object's edges, copied out when a
//! template first reads them — and never held across template
//! evaluation: a snapshot kept for a render would make a delta landing
//! mid-render copy the engine's database.

use crate::router::{data_path, page_path};
use crate::{CachedPage, ServeError};
use std::cell::{OnceCell, RefCell};
use std::fmt::Write;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use strudel_graph::{write_skolem_name, Graph, Oid, Value};
use strudel_schema::dynamic::{DynTarget, DynamicSite, PageKey, PageView};
use strudel_template::{
    escape_html, Item, Rule, SiteSource, TemplateError, TemplateId, TemplateSet, LINK_TEXT_ATTRS,
};

/// A site's templates with §2.4's name and collection rules resolved per
/// Skolem symbol: by schema node, the rule for a page with arguments and
/// the rule for the nullary page, which the symbol alone names.
pub struct PageTemplates(Vec<[Rule; 2]>);

impl PageTemplates {
    /// Resolves `templates`' rules for every page symbol of `engine`'s
    /// site.
    pub fn new(engine: &DynamicSite, templates: &TemplateSet) -> Self {
        let rules = engine.schema().nodes.iter().map(|node| {
            let symbol = node.name();
            let collections = || engine.collections_of(symbol).iter().map(String::as_str);
            [
                templates.rule(None, collections()),
                templates.rule(Some(symbol), collections()),
            ]
        });
        PageTemplates(rules.collect())
    }
}

/// What the render has read of one object: its out-edges (a page's
/// view, or a data object's edges) and, per edge, its target's slot.
struct Slot {
    view: Arc<PageView>,
    kids: OnceCell<Box<[OnceCell<Slot>]>>,
}

impl Slot {
    /// The out-edges, or those labelled `label`, in view order.
    fn edges<'s>(
        &'s self,
        label: Option<&'s str>,
    ) -> impl Iterator<Item = (&'s str, Item<'s, ViewNode<'s>>)> {
        let edges = self.view.edges.iter().enumerate();
        let kept = edges.filter(move |(_, (l, _))| label.map_or(true, |label| l == label));
        kept.map(move |(i, (l, target))| {
            let object = match target {
                DynTarget::Page(key) => Object::Page(key),
                DynTarget::Data(Value::Node(oid)) => Object::Data(*oid),
                DynTarget::Data(atomic) => return (l.as_str(), Item::Value(atomic)),
            };
            let kids = self
                .kids
                .get_or_init(|| self.view.edges.iter().map(|_| OnceCell::new()).collect());
            let slot = &kids[i];
            (l.as_str(), Item::Node(ViewNode { object, slot }))
        })
    }
}

/// An object of the rendition and the slot the render reads it into.
/// Equal when the objects are, however the template reached them.
#[derive(Clone, Copy)]
struct ViewNode<'s> {
    object: Object<'s>,
    slot: &'s OnceCell<Slot>,
}

/// What the click path renders: a page, or a raw data-graph object.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub enum Object<'a> {
    /// A dynamic page.
    Page(&'a PageKey),
    /// A data-graph object (a `/data` route).
    Data(Oid),
}

impl PartialEq for ViewNode<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.object == other.object
    }
}

impl Eq for ViewNode<'_> {}

impl Hash for ViewNode<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.object.hash(state);
    }
}

/// The click-time [`SiteSource`]: the page views one rendition reads.
struct PageViews<'a> {
    engine: &'a DynamicSite,
    choice: &'a PageTemplates,
    /// The linked pages whose views the render read.
    deps: RefCell<Vec<PageKey>>,
    /// The first fetch that failed: the render answers with it.
    error: RefCell<Option<ServeError>>,
}

impl PageViews<'_> {
    /// What the render has read of `node`, reading it now if it has not.
    /// A failed fetch reads as a page without links.
    fn slot<'s>(&'s self, node: ViewNode<'s>) -> &'s Slot {
        node.slot.get_or_init(|| {
            let view = match node.object {
                Object::Page(key) => match self.engine.visit(key) {
                    Ok(view) => {
                        self.deps.borrow_mut().push(key.clone());
                        view
                    }
                    Err(e) => {
                        self.error.borrow_mut().get_or_insert(e.into());
                        Arc::default()
                    }
                },
                Object::Data(oid) => self.data(|data| {
                    let edges = data.edges(oid).iter();
                    let edges = edges.map(|e| {
                        (
                            data.label_name(e.label).to_owned(),
                            DynTarget::Data(e.to.clone()),
                        )
                    });
                    Arc::new(PageView {
                        edges: edges.collect(),
                    })
                }),
            };
            Slot {
                view,
                kids: OnceCell::new(),
            }
        })
    }

    /// `f` over the data graph, in one brief read.
    fn data<T>(&self, f: impl FnOnce(&Graph) -> T) -> T {
        self.engine.with_database(|db| f(db.graph()))
    }
}

impl<'s> SiteSource<'s> for &'s PageViews<'_> {
    type Node = ViewNode<'s>;
    type Label = &'s str;

    fn label(self, name: &'s str) -> Option<&'s str> {
        Some(name)
    }

    fn label_name(self, label: &'s str) -> &'s str {
        label
    }

    fn edges(
        self,
        node: ViewNode<'s>,
        label: Option<&'s str>,
    ) -> impl Iterator<Item = (&'s str, Item<'s, ViewNode<'s>>)> + 's {
        self.slot(node).edges(label)
    }

    /// One scan of the edges, stopped once an atomic title is found.
    fn link_text(self, node: ViewNode<'s>) -> Option<&'s Value> {
        let atomic = |target: Option<&'s DynTarget>| match target? {
            DynTarget::Data(v) if v.is_atomic() => Some(v),
            _ => None,
        };
        let mut first = [None; 3];
        for (label, target) in &self.slot(node).view.edges {
            let Some(i) = LINK_TEXT_ATTRS.iter().position(|a| a == label) else {
                continue;
            };
            first[i] = first[i].or(Some(target));
            if atomic(first[0]).is_some() {
                break;
            }
        }
        first.into_iter().find_map(atomic)
    }

    fn write_name(self, node: ViewNode<'s>, out: &mut String) {
        self.data(|data| match node.object {
            Object::Page(key) => write_skolem_name(out, data, &key.symbol, &key.args),
            Object::Data(oid) => match data.node_name(oid) {
                Some(name) => out.push_str(name),
                None => {
                    let _ = write!(out, "{oid}");
                }
            },
        })
    }

    fn template(
        self,
        node: ViewNode<'s>,
        templates: &TemplateSet,
    ) -> Result<Option<TemplateId>, TemplateError> {
        let key = match node.object {
            Object::Page(key) => key,
            Object::Data(oid) => return self.data(|data| templates.select_in(data, oid)),
        };
        let Some(rules) = self.engine.schema().node_index(&key.symbol) else {
            return Ok(None);
        };
        let html_template = match self.edges(node, Some("html-template")).next() {
            Some((_, Item::Value(v))) => Some(v),
            _ => None,
        };
        self.choice.0[rules][usize::from(key.args.is_empty())].select(templates, html_template)
    }

    fn url(self, node: ViewNode<'s>, out: &mut String) -> bool {
        out.push_str(&self.data(|data| match node.object {
            Object::Page(key) => page_path(key, data),
            Object::Data(oid) => data_path(oid, data),
        }));
        true
    }
}

/// Renders one dynamic page with the site's templates, resolving their
/// choice first (see [`render`]).
pub fn render_page(
    engine: &DynamicSite,
    templates: &TemplateSet,
    key: &PageKey,
) -> Result<CachedPage, ServeError> {
    let choice = PageTemplates::new(engine, templates);
    render(engine, templates, &choice, Object::Page(key))
}

/// Renders `object` with the site's templates, their choice resolved by
/// [`PageTemplates::new`]. [`ServeError::NoSuchPage`] when the site never
/// creates the page.
pub fn render(
    engine: &DynamicSite,
    templates: &TemplateSet,
    choice: &PageTemplates,
    object: Object<'_>,
) -> Result<CachedPage, ServeError> {
    let root = OnceCell::new();
    if let Object::Page(key) = object {
        let view = engine.lookup(key)?.ok_or(ServeError::NoSuchPage)?;
        let _ = root.set(Slot {
            view,
            kids: OnceCell::new(),
        });
    }
    let views = PageViews {
        engine,
        choice,
        deps: RefCell::default(),
        error: RefCell::default(),
    };
    let mut html = String::new();
    let page = ViewNode {
        object,
        slot: &root,
    };
    strudel_template::render_page(&views, templates, page, &mut html)?;
    match views.error.into_inner() {
        Some(e) => Err(e),
        None => Ok(CachedPage {
            html: html.into(),
            deps: views.deps.into_inner().into(),
        }),
    }
}

/// Renders the `/` index: one link per root page, named by its Skolem
/// term.
pub fn render_roots_index(
    engine: &DynamicSite,
    root_collection: &str,
) -> Result<String, ServeError> {
    let roots = engine.roots(root_collection)?;
    let mut html = String::from(
        "<html><head><title>strudel-serve</title></head><body><h1>Site roots</h1>\n<ul>\n",
    );
    engine.with_database(|db| {
        let data = db.graph();
        for root in &roots {
            let mut name = String::new();
            write_skolem_name(&mut name, data, &root.symbol, &root.args);
            html.push_str(&format!(
                "<li><a href=\"{}\">{}</a></li>\n",
                escape_html(&page_path(root, data)),
                escape_html(&name)
            ));
        }
    });
    html.push_str("</ul>\n<p><a href=\"/metrics\">metrics</a></p></body></html>\n");
    Ok(html)
}
