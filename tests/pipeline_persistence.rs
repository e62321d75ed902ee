//! Persistence integration: warehoused data graphs survive a round trip
//! through the paged store and keep producing identical sites.

use strudel::repo::{Database, IndexLevel, PagedRepo, PagerConfig};
use strudel::struql::Evaluator;
use strudel_bench::paper_news_corpus;

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("strudel-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn warehouse_survives_restart_and_regenerates_the_same_site() {
    let dir = tmpdir("site");
    let corpus = paper_news_corpus(40);
    let docs = strudel::wrappers::html::HtmlDoc::from_pairs(&corpus);
    let wrapped = strudel::wrappers::html::wrap_documents(&docs, "Articles").unwrap();
    let program = strudel::struql::parse(strudel::sites::NEWS_QUERY).unwrap();

    // Session 1: bulk-load the wrapped graph into the durable store (which
    // ends in a checkpoint) and evaluate over an in-memory database.
    let (nodes1, edges1) = {
        PagedRepo::bulk_load(&dir, PagerConfig::default(), &wrapped).unwrap();
        let db = Database::from_graph(wrapped.clone(), IndexLevel::Full);
        let r = Evaluator::new(&db).eval(&program).unwrap();
        (r.new_nodes.len(), r.graph.edge_count())
    };

    // Session 2: reopen from disk, materialize, and re-evaluate.
    let reopen = || {
        let repo = PagedRepo::open(&dir, PagerConfig::default()).unwrap();
        let graph = repo.materialize().unwrap();
        (repo, Database::from_graph(graph, IndexLevel::Full))
    };
    {
        let (_repo, db) = reopen();
        assert_eq!(db.graph().node_count(), wrapped.node_count());
        let r = Evaluator::new(&db).eval(&program).unwrap();
        assert_eq!(r.new_nodes.len(), nodes1);
        assert_eq!(r.graph.edge_count(), edges1);
    }

    // Session 3: an update lands in the WAL only (no checkpoint), then the
    // store reopens and still reflects it.
    {
        let (repo, db) = reopen();
        let a = db.graph().node_by_name("article0.html").unwrap();
        let mut delta = strudel::graph::GraphDelta::new();
        delta.add_edge(a, "paragraph", strudel::graph::Value::string("breaking update"));
        repo.apply_delta(&delta).unwrap();
    }
    {
        let (_repo, db) = reopen();
        let a = db.graph().node_by_name("article0.html").unwrap();
        assert!(db
            .graph()
            .attr_str(a, "paragraph")
            .any(|v| v.as_str() == Some("breaking update")));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn ddl_export_reimports_into_equivalent_warehouse() {
    // DDL is the exchange format between wrappers and the repository: a
    // warehoused graph printed to DDL and re-parsed drives the same site.
    let corpus = paper_news_corpus(25);
    let site = strudel::sites::news_site(&corpus).build().unwrap();
    let data = site.database.graph();

    let text = strudel::graph::ddl::print(data);
    let reparsed = strudel::graph::ddl::parse(&text).unwrap();
    assert_eq!(reparsed.node_count(), data.node_count());
    assert_eq!(reparsed.edge_count(), data.edge_count());

    let db2 = Database::from_graph(reparsed, IndexLevel::Full);
    let program = strudel::struql::parse(strudel::sites::NEWS_QUERY).unwrap();
    let r2 = Evaluator::new(&db2).eval(&program).unwrap();
    assert_eq!(r2.new_nodes.len(), site.result.new_nodes.len());
}

#[test]
fn snapshot_of_site_graph_round_trips() {
    let corpus = paper_news_corpus(25);
    let site = strudel::sites::news_site(&corpus).build().unwrap();
    let mut buf = Vec::new();
    strudel::repo::snapshot::save_graph(&site.result.graph, &mut buf).unwrap();
    let loaded = strudel::repo::snapshot::load_graph(&mut &buf[..]).unwrap();
    assert_eq!(loaded.node_count(), site.result.graph.node_count());
    assert_eq!(loaded.edge_count(), site.result.graph.edge_count());

    // The loaded site graph renders identically.
    let roots: Vec<strudel::graph::Oid> = loaded
        .members_str("FrontRoot")
        .iter()
        .filter_map(strudel::graph::Value::as_node)
        .collect();
    let out = strudel::template::HtmlGenerator::new(&loaded, &site.templates)
        .generate(&roots)
        .unwrap();
    let original = site.render().unwrap();
    assert_eq!(out.pages.len(), original.pages.len());
}
