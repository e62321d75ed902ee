//! Seeded randomized testing of patched page views.
//!
//! The click-time engine keeps a cached page as guard rows plus a link
//! table and patches both with the signed rows a delta routes to the page
//! (see "Differential maintenance" in `dynamic.rs`). The properties, over
//! hub-shaped programs and chains of random deltas, for every cached page
//! after every delta:
//!
//! * **the order contract** — the served `PageView` equals, element for
//!   element, the first-occurrence re-projection of the page's stored rows
//!   in (schema edge, stored row) order; the oracle is the quadratic loop
//!   the engine used before it kept a link table;
//! * **content** — as a multiset the view equals a fresh engine's over the
//!   post-delta database;
//! * **counts** — the stored rows and their multiplicities equal what a
//!   fresh engine computes.
//!
//! The program has what makes a hub hard: a zero-argument page with one
//! link per member (`Headline`) *and* a many-rows-to-few-links edge
//! (`Section`), a `(label, target)` pair derived by two schema edges
//! (`Headline` through `title` and through `pin`), node-keyed, string-keyed
//! and integer-keyed pages, and a Kleene edge whose rows carry counts above
//! one. Deltas retitle, insert, uncollect, move between categories and
//! years, pin and unpin, rewire `rel`, alone and in bulk — which retracts
//! first supporters of links that other rows still support. Everything
//! reproduces from its seed.

use std::collections::HashSet;
use std::sync::Arc;

use strudel_graph::{Graph, GraphDelta, Oid, Value};
use strudel_prng::{Rng, SeedableRng, SmallRng};
use strudel_repo::{Database, IndexLevel};
use strudel_schema::dynamic::{DynTarget, DynamicSite, Mode, PageKey, PageView};
use strudel_struql::Program;

const QUERY: &str = r#"
    create Front()
    collect Roots(Front())
    where Items(a), a -> "cat" -> c
    create CatPage(c), ItemPage(a)
    link Front() -> "Section" -> CatPage(c),
         CatPage(c) -> "Name" -> c,
         CatPage(c) -> "Story" -> ItemPage(a),
         ItemPage(a) -> "Section" -> CatPage(c)
    { where a -> "title" -> t
      link ItemPage(a) -> "title" -> t,
           Front() -> "Headline" -> ItemPage(a) }
    { where a -> "pin" -> p
      link Front() -> "Headline" -> ItemPage(a) }
    { where a -> "year" -> y
      create YearPage(y)
      link YearPage(y) -> "Item" -> ItemPage(a),
           ItemPage(a) -> "Year" -> YearPage(y) }
    { where a -> "rel"* -> b, Items(b), b -> "title" -> t
      link ItemPage(a) -> "related" -> t }
"#;

const CATS: [&str; 3] = ["news", "sport", "arts"];

fn corpus(rng: &mut SmallRng, n: usize) -> Graph {
    let mut g = Graph::new();
    let mut nodes: Vec<Oid> = Vec::new();
    for i in 0..n {
        let node = g.add_named_node(&format!("item{i}"));
        g.collect_str("Items", node);
        g.add_edge_str(
            node,
            "cat",
            Value::string(CATS[rng.gen_range(0..CATS.len())]),
        );
        g.add_edge_str(node, "title", Value::string(format!("Title {i}")));
        g.add_edge_str(node, "year", Value::Int(1995 + rng.gen_range(0..3i64)));
        if rng.gen_bool(0.3) {
            g.add_edge_str(node, "pin", Value::Bool(true));
        }
        // Two routes to an earlier item give its `related` rows count 2.
        if i >= 2 && rng.gen_bool(0.5) {
            g.add_edge_str(node, "rel", Value::Node(nodes[i - 1]));
            g.add_edge_str(node, "rel", Value::Node(nodes[i - 2]));
            g.add_edge_str(nodes[i - 1], "rel", Value::Node(nodes[i - 2]));
        }
        nodes.push(node);
    }
    g
}

/// The edges of `oid` with `label`, as delta-ready values.
fn attrs(g: &Graph, oid: Oid, label: &str) -> Vec<Value> {
    g.attr_str(oid, label).cloned().collect()
}

/// One random, always-applicable op appended to `delta`; `touched` keeps
/// one delta from editing an object twice.
fn random_op(
    rng: &mut SmallRng,
    g: &Graph,
    delta: &mut GraphDelta,
    touched: &mut HashSet<Oid>,
    next_oid: &mut usize,
    serial: &mut u64,
) {
    *serial += 1;
    let members: Vec<Oid> = g
        .members_str("Items")
        .iter()
        .filter_map(Value::as_node)
        .filter(|o| !touched.contains(o))
        .collect();
    let kind = rng.gen_range(0..9u32);
    if kind == 0 || members.is_empty() {
        // A new item.
        let oid = Oid::from_index(*next_oid);
        *next_oid += 1;
        delta.add_node(None);
        delta.add_edge(oid, "title", Value::string(format!("New {serial}")));
        delta.add_edge(
            oid,
            "cat",
            Value::string(CATS[rng.gen_range(0..CATS.len())]),
        );
        delta.add_edge(oid, "year", Value::Int(1995 + rng.gen_range(0..4i64)));
        if !members.is_empty() {
            delta.add_edge(
                oid,
                "rel",
                Value::Node(*strudel_prng::choose(rng, &members)),
            );
        }
        delta.collect("Items", Value::Node(oid));
        return;
    }
    let oid = *strudel_prng::choose(rng, &members);
    touched.insert(oid);
    match kind {
        1 | 2 => {
            // Retitle: for a pinned item this retracts the first supporter
            // of a `Headline` the `pin` edge still supports.
            for old in attrs(g, oid, "title") {
                delta.remove_edge(oid, "title", old);
            }
            delta.add_edge(oid, "title", Value::string(format!("Retitled {serial}")));
        }
        3 => {
            // A second title: one more row behind the same `Headline`.
            delta.add_edge(oid, "title", Value::string(format!("Alias {serial}")));
        }
        4 => delta.uncollect("Items", Value::Node(oid)),
        5 => {
            // Move to another category: the old one may lose the first
            // supporter of its `Section` link, or the link itself.
            for old in attrs(g, oid, "cat") {
                delta.remove_edge(oid, "cat", old);
            }
            delta.add_edge(
                oid,
                "cat",
                Value::string(CATS[rng.gen_range(0..CATS.len())]),
            );
        }
        6 => {
            for old in attrs(g, oid, "year") {
                delta.remove_edge(oid, "year", old);
            }
            delta.add_edge(oid, "year", Value::Int(1995 + rng.gen_range(0..4i64)));
        }
        7 => match attrs(g, oid, "pin").pop() {
            Some(pin) => delta.remove_edge(oid, "pin", pin),
            None => delta.add_edge(oid, "pin", Value::Bool(true)),
        },
        _ => match attrs(g, oid, "rel").pop() {
            Some(rel) => delta.remove_edge(oid, "rel", rel),
            None => delta.add_edge(
                oid,
                "rel",
                Value::Node(*strudel_prng::choose(rng, &members)),
            ),
        },
    }
}

/// Today's view, the way the engine built it before it kept a link
/// table: project every stored row in order, keep first occurrences.
fn reprojection(site: &DynamicSite, key: &PageKey) -> PageView {
    let mut view = PageView::default();
    for (_, _, link) in site.stored_rows(key).expect("page is cached with rows") {
        if let Some(entry) = link {
            if !view.edges.contains(&entry) {
                view.edges.push(entry);
            }
        }
    }
    view
}

fn sorted<T: std::fmt::Debug>(items: impl IntoIterator<Item = T>) -> Vec<String> {
    let mut out: Vec<String> = items.into_iter().map(|i| format!("{i:?}")).collect();
    out.sort_unstable();
    out
}

fn check_all(site: &DynamicSite, program: &Program, cached: &[PageKey], context: &str) {
    let fresh = DynamicSite::new(site.database(), program, site.mode());
    for key in cached {
        let view = site.visit(key).unwrap();
        assert_eq!(
            *view,
            reprojection(site, key),
            "{context}: {key:?} is not the first-occurrence projection of its rows"
        );
        let fresh_view = fresh.visit(key).unwrap();
        assert_eq!(
            sorted(&view.edges),
            sorted(&fresh_view.edges),
            "{context}: {key:?} differs from a fresh engine's view"
        );
        let rows = |s: &DynamicSite| {
            sorted(
                s.stored_rows(key)
                    .unwrap()
                    .into_iter()
                    .map(|(ei, row, _)| (ei, row)),
            )
        };
        assert_eq!(
            rows(site),
            rows(&fresh),
            "{context}: {key:?} stores other rows or counts than a fresh compute"
        );
    }
}

fn run_chain(seed: u64, mode: Mode) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut g = corpus(&mut rng, 24);
    let program = strudel_struql::parse(QUERY).unwrap();
    let db = Arc::new(Database::from_graph(g.clone(), IndexLevel::Full));
    let site = DynamicSite::new(db, &program, mode);
    let mut cached = site.crawl("Roots").unwrap();
    check_all(
        &site,
        &program,
        &cached,
        &format!("seed {seed} before any delta"),
    );

    let mut serial = 0u64;
    for round in 0..16 {
        let mut delta = GraphDelta::new();
        let mut touched = HashSet::new();
        let mut next_oid = g.node_count();
        // One op, a few, or a bulk of them.
        let ops = [1usize, 1, 3, 8][rng.gen_range(0..4usize)];
        for _ in 0..ops {
            random_op(
                &mut rng,
                &g,
                &mut delta,
                &mut touched,
                &mut next_oid,
                &mut serial,
            );
        }
        delta.apply(&mut g).expect("generated deltas always apply");
        let context = format!("seed {seed} round {round} after {:?}", delta.ops());
        let outcome = site
            .apply_delta(&delta)
            .unwrap_or_else(|e| panic!("{context}: {e}"));
        assert_eq!(
            outcome.evicted, 0,
            "{context}: a cached page was not patched"
        );
        check_all(&site, &program, &cached, &context);
        // Pages the delta created join the cached set from here on.
        for key in site.crawl("Roots").unwrap() {
            if !cached.contains(&key) {
                cached.push(key);
            }
        }
    }
    let m = site.metrics();
    assert!(
        m.diff_pages_updated > 16,
        "seed {seed}: patches never engaged: {m:?}"
    );
    assert_eq!(m.diff_fallbacks, 0, "seed {seed}: {m:?}");
}

#[test]
fn patched_views_keep_the_order_contract_and_match_fresh_engines() {
    for seed in 0..6u64 {
        run_chain(0xface_0000 + seed, Mode::Context);
    }
}

#[test]
fn patched_views_hold_under_lookahead() {
    for seed in 0..2u64 {
        run_chain(0x100c_0000 + seed, Mode::ContextLookahead);
    }
}

/// The one case a link moves backwards: its first supporter goes while
/// another row keeps it alive.
#[test]
fn retracting_a_first_supporter_moves_the_link_to_its_next_one() {
    let mut g = Graph::new();
    let items: Vec<Oid> = (0..4)
        .map(|i| {
            let node = g.add_named_node(&format!("item{i}"));
            g.collect_str("Items", node);
            g.add_edge_str(node, "title", Value::string(format!("Title {i}")));
            g.add_edge_str(node, "cat", Value::string(["news", "sport"][i % 2]));
            node
        })
        .collect();
    let program = strudel_struql::parse(QUERY).unwrap();
    let db = Arc::new(Database::from_graph(g, IndexLevel::Full));
    let site = DynamicSite::new(db, &program, Mode::Context);
    let front = site.roots("Roots").unwrap().remove(0);
    let sections = |view: &PageView| -> Vec<Value> {
        view.edges
            .iter()
            .filter(|(label, _)| label == "Section")
            .map(|(_, target)| match target {
                DynTarget::Page(k) => k.args[0].clone(),
                other => panic!("{other:?}"),
            })
            .collect()
    };
    let before = site.visit(&front).unwrap();
    assert_eq!(
        sections(&before),
        [Value::string("news"), Value::string("sport")]
    );

    // item0 was the first supporter of Section -> CatPage("news"); item2
    // still supports it, from behind item1's "sport" row.
    let mut delta = GraphDelta::new();
    delta.uncollect("Items", Value::Node(items[0]));
    let outcome = site.apply_delta(&delta).unwrap();
    assert!(outcome.updated >= 1 && outcome.evicted == 0, "{outcome:?}");
    let after = site.visit(&front).unwrap();
    assert_eq!(
        sections(&after),
        [Value::string("sport"), Value::string("news")]
    );
    assert_eq!(*after, reprojection(&site, &front));
    assert_eq!(
        sections(&before).len(),
        2,
        "the pre-delta view is untouched"
    );
}
