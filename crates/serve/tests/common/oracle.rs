//! The static ≡ served oracle: the static build of a site, its pages named
//! by the router, against a service crawled by href from `/`. The paper
//! has one site definition and two ways to produce it — the static
//! pipeline (§2.2–2.4) and click-time evaluation (§7) — and they must
//! produce the same site.

use std::collections::{BTreeMap, HashMap};
use strudel_graph::{Graph, Oid, SkolemTable};
use strudel_schema::dynamic::PageKey;
use strudel_serve::router::{data_path, page_path};
use strudel_serve::SiteService;
use strudel_template::{HtmlGenerator, TemplateSet};

/// The static build of `graph` from `roots`, every page named as the
/// server routes it: `page_path` per Skolem node of `skolem`, `data_path`
/// per data object. Bodies by URL.
pub fn static_pages(
    graph: &Graph,
    skolem: &SkolemTable,
    templates: &TemplateSet,
    roots: &[Oid],
) -> BTreeMap<String, String> {
    let keys: HashMap<Oid, PageKey> = skolem
        .iter()
        .map(|(key, oid)| {
            let key = PageKey {
                symbol: key.symbol.to_owned(),
                args: key.args.to_vec(),
            };
            (oid, key)
        })
        .collect();
    let namer = |oid: Oid| {
        Some(match keys.get(&oid) {
            Some(key) => page_path(key, graph),
            None => data_path(oid, graph),
        })
    };
    let site = HtmlGenerator::new(graph, templates)
        .with_namer(&namer)
        .generate(roots)
        .expect("the static build renders");
    site.pages.into_iter().map(|p| (p.name, p.html)).collect()
}

/// Every `/page/` and `/data/` URL reachable from `/` on `service` by
/// following hrefs, with its body. Every one must answer 200.
pub fn served_pages(service: &SiteService) -> BTreeMap<String, String> {
    let mut pages = BTreeMap::new();
    let mut queue = vec![service.handle("/").body];
    while let Some(body) = queue.pop() {
        for part in body.split("href=\"").skip(1) {
            let Some(end) = part.find('"') else { continue };
            let href = &part[..end];
            let routed = href.starts_with("/page/") || href.starts_with("/data/");
            if !routed || pages.contains_key(href) {
                continue;
            }
            let r = service.handle(href);
            assert_eq!(r.status, 200, "{href}: {}", r.body);
            pages.insert(href.to_owned(), r.body.clone());
            queue.push(r.body);
        }
    }
    pages
}

/// The served site is the static site: the same URLs, each with the same
/// bytes.
pub fn assert_same_site(
    served: &BTreeMap<String, String>,
    built: &BTreeMap<String, String>,
    context: &str,
) {
    let only_served: Vec<&String> = served.keys().filter(|u| !built.contains_key(*u)).collect();
    let only_built: Vec<&String> = built.keys().filter(|u| !served.contains_key(*u)).collect();
    assert!(
        only_served.is_empty() && only_built.is_empty(),
        "{context}: URL sets differ: served only {only_served:?}, static only {only_built:?}"
    );
    for (url, body) in served {
        assert_eq!(
            body, &built[url],
            "{context}: {url} differs from its static page"
        );
    }
}
