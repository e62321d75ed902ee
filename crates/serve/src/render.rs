//! Click-time HTML rendering: a [`PageView`] becomes a real templated
//! page, not an attribute dump.
//!
//! The static pipeline renders templates against the materialized site
//! graph. At click time there is no site graph — only the visited page's
//! computed out-edges. The bridge is a *transient graph*: one node for
//! the page (named by its Skolem symbol and entered into its `collect`ed
//! collections, so the site's template-selection rules apply unchanged),
//! atomic edges copied verbatim, and one stub node per linked page
//! carrying that child's atomic attributes — enough for link text and
//! `KEY=` sorting, the two things templates read through links. Stub
//! URLs come from the stable router, via the generator's namer hook.
//!
//! Children are fetched through the engine itself, so their views come
//! from (and warm) the shared page-view cache — a hit is a pointer to the
//! view every reader shares, not a copy; the set of children read is
//! returned as the rendition's dependency set for delta invalidation.

use crate::router::{data_path, page_path};
use crate::ServeError;
use std::cell::RefCell;
use std::fmt::Write;
use std::sync::Arc;
use strudel_graph::hash::FastMap;
use strudel_graph::{Graph, Oid, Value};
use strudel_schema::dynamic::{DynTarget, DynamicSite, PageKey, PageView};
use strudel_template::{escape_html, HtmlGenerator, TemplateSet};

/// A finished click-time rendition.
#[derive(Clone, Debug)]
pub struct RenderedPage {
    /// The page's HTML.
    pub html: Arc<str>,
    /// The other pages whose content the render read.
    pub deps: Vec<PageKey>,
}

/// Writes the display name of a child-page stub: the Skolem term over
/// its values.
fn write_stub_name(out: &mut String, key: &PageKey) {
    out.clear();
    out.push_str(&key.symbol);
    out.push('(');
    for (i, v) in key.args.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        match v {
            // `display_text` would allocate these.
            Value::Node(o) => {
                let _ = write!(out, "{o}");
            }
            Value::Int(n) => {
                let _ = write!(out, "{n}");
            }
            v => out.push_str(&v.display_text()),
        }
    }
    out.push(')');
}

/// A display name for a child-page stub.
fn stub_name(key: &PageKey) -> String {
    let mut name = String::new();
    write_stub_name(&mut name, key);
    name
}

const LINK_TEXT_ATTRS: [&str; 3] = ["title", "name", "label"];

/// What click-time renders on one thread reuse: the transient graph (its
/// label interner and its node, edge and collection allocations survive
/// [`Graph::clear`]), the URL table and the text buffers.
#[derive(Default)]
struct Scratch {
    graph: Graph,
    /// Per transient node, the URL the namer hands out once.
    urls: Vec<Option<String>>,
    html: String,
    name: String,
}

/// A scratch whose last render had more edges than this (a hub page's)
/// or wrote more HTML is dropped, not kept: an idle thread does not pin
/// the largest page it ever rendered.
const SCRATCH_KEEP_EDGES: usize = 4096;
const SCRATCH_KEEP_HTML: usize = 256 << 10;

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// Renders one dynamic page with the site's templates.
/// [`ServeError::NoSuchPage`] when the site never creates `key`.
pub fn render_page(
    engine: &DynamicSite,
    templates: &TemplateSet,
    key: &PageKey,
) -> Result<RenderedPage, ServeError> {
    let view = engine.lookup(key)?.ok_or(ServeError::NoSuchPage)?;
    // Taken, not borrowed, for the render: a panic mid-render loses the
    // scratch instead of leaving it half-built for the next one.
    let mut scratch = SCRATCH.with(RefCell::take);
    let page = render_view(engine, templates, key, &view, &mut scratch);
    if scratch.graph.edge_count() <= SCRATCH_KEEP_EDGES
        && scratch.html.capacity() <= SCRATCH_KEEP_HTML
    {
        SCRATCH.with(|s| *s.borrow_mut() = scratch);
    }
    page
}

/// Renders `view`, the view of `key`, through `scratch`.
fn render_view(
    engine: &DynamicSite,
    templates: &TemplateSet,
    key: &PageKey,
    view: &PageView,
    scratch: &mut Scratch,
) -> Result<RenderedPage, ServeError> {
    let Scratch {
        graph: tg,
        urls,
        html,
        name,
    } = scratch;
    tg.clear();
    // The transient graph's shape comes from views alone; what the data
    // graph adds — URLs, and the attributes of raw data objects — is
    // filled in afterwards under one brief snapshot.
    let mut child_nodes: FastMap<&PageKey, Oid> = FastMap::default();
    let mut data_nodes: FastMap<Oid, Oid> = FastMap::default();
    let mut deps: Vec<PageKey> = Vec::new();

    let page_oid = tg.add_named_node(&key.symbol);
    child_nodes.insert(key, page_oid);
    for coll in engine.collections_of(&key.symbol) {
        tg.collect_str(coll, page_oid);
    }

    for (label, target) in &view.edges {
        match target {
            DynTarget::Data(v) if v.is_atomic() => {
                tg.add_edge_str(page_oid, label, v.clone());
            }
            DynTarget::Data(Value::Node(src)) => {
                // A raw data-graph object: a stub routed to the /data view.
                let dn = *data_nodes.entry(*src).or_insert_with(|| tg.add_node());
                tg.add_edge_str(page_oid, label, Value::Node(dn));
            }
            DynTarget::Data(_) => unreachable!("atomic covered above"),
            DynTarget::Page(child) => {
                let cn = match child_nodes.get(child) {
                    Some(&cn) => cn,
                    None => {
                        write_stub_name(name, child);
                        let cn = tg.add_named_node(name);
                        // The child's atomic attributes feed link text and
                        // KEY= sorting on this page; its view is cached, so
                        // this is one lookup after the first render.
                        let child_view = engine.visit(child)?;
                        for (l, t) in &child_view.edges {
                            if let DynTarget::Data(v) = t {
                                if v.is_atomic() {
                                    tg.add_edge_str(cn, l, v.clone());
                                }
                            }
                        }
                        for coll in engine.collections_of(&child.symbol) {
                            tg.collect_str(coll, cn);
                        }
                        child_nodes.insert(child, cn);
                        deps.push(child.clone());
                        cn
                    }
                };
                tg.add_edge_str(page_oid, label, Value::Node(cn));
            }
        }
    }

    // Held for the naming pass only: a snapshot kept through template
    // evaluation would pin the engine's standby twin across the next
    // delta and turn the one after into an O(site) rebuild.
    urls.clear();
    urls.resize(tg.node_count(), None);
    {
        let db = engine.database();
        let data = db.graph();
        for (page, &node) in &child_nodes {
            urls[node.index()] = Some(page_path(page, data));
        }
        for (&src, &dn) in &data_nodes {
            // The object's atomic attributes, for link text.
            let mut has_text = false;
            for e in data.edges(src) {
                if e.to.is_atomic() {
                    let l = data.label_name(e.label);
                    has_text |= LINK_TEXT_ATTRS.contains(&l);
                    tg.add_edge_str(dn, l, e.to.clone());
                }
            }
            if !has_text {
                if let Some(n) = data.node_name(src) {
                    tg.add_edge_str(dn, "name", Value::string(n));
                }
            }
            urls[dn.index()] = Some(data_path(src, data));
        }
    }

    // The generator asks for each node's URL once, so it takes it.
    let urls = RefCell::new(urls);
    let namer = |oid: Oid| {
        urls.borrow_mut()
            .get_mut(oid.index())
            .and_then(Option::take)
    };
    HtmlGenerator::new(tg, templates).render_one_into(page_oid, &namer, html)?;
    Ok(RenderedPage {
        html: Arc::from(html.as_str()),
        deps,
    })
}

/// Renders the raw attribute view of one data-graph object (the `/data`
/// routes): the built-in listing, with node targets linked back into
/// `/data` space.
pub fn render_data_node(data: &Graph, oid: Oid) -> Result<String, ServeError> {
    let templates = TemplateSet::new();
    let namer = |o: Oid| Some(data_path(o, data));
    let mut html = String::new();
    HtmlGenerator::new(data, &templates).render_one_into(oid, &namer, &mut html)?;
    Ok(html)
}

/// Renders the `/` index: one link per root page.
pub fn render_roots_index(engine: &DynamicSite, root_collection: &str) -> Result<String, ServeError> {
    let roots = engine.roots(root_collection)?;
    let db = engine.database();
    let data = db.graph();
    let mut html = String::from(
        "<html><head><title>strudel-serve</title></head><body><h1>Site roots</h1>\n<ul>\n",
    );
    for root in &roots {
        let href = page_path(root, data);
        html.push_str(&format!(
            "<li><a href=\"{}\">{}</a></li>\n",
            escape_html(&href),
            escape_html(&stub_name(root))
        ));
    }
    html.push_str("</ul>\n<p><a href=\"/metrics\">metrics</a></p></body></html>\n");
    Ok(html)
}
