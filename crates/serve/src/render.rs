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
use std::collections::HashMap;
use strudel_graph::{Graph, Oid, Value};
use strudel_schema::dynamic::{DynTarget, DynamicSite, PageKey};
use strudel_struql::Term;
use strudel_template::{escape_html, HtmlGenerator, TemplateSet};

/// A finished click-time rendition.
#[derive(Clone, Debug)]
pub struct RenderedPage {
    /// The page's HTML.
    pub html: String,
    /// The other pages whose content the render read.
    pub deps: Vec<PageKey>,
}

/// The collections a Skolem symbol's pages are collected into.
fn collections_of<'e>(engine: &'e DynamicSite, symbol: &str) -> Vec<&'e str> {
    engine
        .schema()
        .collects
        .iter()
        .filter_map(|(c, _)| match &c.arg {
            Term::Skolem { symbol: s, .. } if s == symbol => Some(c.collection.as_str()),
            _ => None,
        })
        .collect()
}

/// A display name for a child-page stub: the Skolem term over its values.
fn stub_name(key: &PageKey) -> String {
    let args: Vec<String> = key.args.iter().map(|v| v.display_text().into_owned()).collect();
    format!("{}({})", key.symbol, args.join(", "))
}

const LINK_TEXT_ATTRS: [&str; 3] = ["title", "name", "label"];

/// Renders one dynamic page with the site's templates.
pub fn render_page(
    engine: &DynamicSite,
    templates: &TemplateSet,
    key: &PageKey,
) -> Result<RenderedPage, ServeError> {
    let view = engine.visit(key)?;

    // The transient graph's shape comes from views alone; what the data
    // graph adds — URLs, and the attributes of raw data objects — is
    // filled in afterwards under one brief snapshot.
    let mut tg = Graph::new();
    let mut child_nodes: HashMap<&PageKey, Oid> = HashMap::new();
    let mut data_nodes: HashMap<Oid, Oid> = HashMap::new();
    let mut deps: Vec<PageKey> = Vec::new();
    // A hub page links a thousand children of one symbol: scan the schema
    // for a symbol's collections once per render.
    let mut collections: HashMap<&str, Vec<&str>> = HashMap::new();

    let page_oid = tg.add_named_node(&key.symbol);
    child_nodes.insert(key, page_oid);
    for coll in collections_of(engine, &key.symbol) {
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
                        let cn = tg.add_named_node(&stub_name(child));
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
                        let colls = collections
                            .entry(child.symbol.as_str())
                            .or_insert_with(|| collections_of(engine, &child.symbol));
                        for coll in colls.iter() {
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
    let mut urls: HashMap<Oid, String> = HashMap::with_capacity(child_nodes.len());
    {
        let db = engine.database();
        let data = db.graph();
        for (page, &node) in &child_nodes {
            urls.insert(node, page_path(page, data));
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
            urls.insert(dn, data_path(src, data));
        }
    }

    let namer = |oid: Oid| urls.get(&oid).cloned();
    let page = HtmlGenerator::new(&tg, templates).render_one(page_oid, &namer)?;
    Ok(RenderedPage {
        html: page.html,
        deps,
    })
}

/// Renders the raw attribute view of one data-graph object (the `/data`
/// routes): the built-in listing, with node targets linked back into
/// `/data` space.
pub fn render_data_node(data: &Graph, oid: Oid) -> Result<String, ServeError> {
    let templates = TemplateSet::new();
    let namer = |o: Oid| Some(data_path(o, data));
    let page = HtmlGenerator::new(data, &templates).render_one(oid, &namer)?;
    Ok(page.html)
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
