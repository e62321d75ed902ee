//! Tests that pin the paper's central qualitative claims, so regressions
//! in any crate that would break the reproduction story fail loudly.

use strudel::repo::{Database, IndexLevel};
use strudel::schema::constraint::{parse_constraint, runtime, verify};
use strudel::sites;
use strudel_bench::{paper_homepage_site, paper_news_corpus};

/// §5.1: "STRUDEL's power is revealed in the definition of the external
/// site: no new queries were written for that site. Both the internal and
/// external sites share the same site graph."
#[test]
fn external_site_shares_site_graph_and_costs_no_query_lines() {
    let data = strudel_workload::org::generate(&strudel_workload::org::OrgConfig {
        people: 60,
        ..Default::default()
    });
    let site = sites::org_site(
        &data.people_csv,
        &data.departments_csv,
        &data.projects_rec,
        &data.demos_rec,
        &data.legacy_html,
    )
    .build()
    .unwrap();

    let internal = site.render().unwrap();
    // Same Site value, same site graph; only templates differ.
    let external = site.render_with(&sites::org_external_templates()).unwrap();
    assert_eq!(internal.pages.len(), external.pages.len());
    // Internal-only information disappears from the external rendering.
    let phones_internal = internal.pages.iter().filter(|p| p.html.contains("Phone")).count();
    let phones_external = external.pages.iter().filter(|p| p.html.contains("Phone")).count();
    assert!(phones_internal > 0);
    assert_eq!(phones_external, 0);
}

/// §5.1: "The sports-only query is derived from the original query and
/// only differs in two extra predicates in one where clause. Both sites
/// use the same templates."
#[test]
fn sports_only_is_two_predicates_away() {
    let lines_a: Vec<&str> = sites::NEWS_QUERY.lines().map(str::trim).collect();
    let lines_b: Vec<&str> = sites::SPORTS_QUERY.lines().map(str::trim).collect();
    let differing: Vec<(&&str, &&str)> = lines_a
        .iter()
        .filter(|l| !l.starts_with("--"))
        .zip(lines_b.iter().filter(|l| !l.starts_with("--")))
        .filter(|(a, b)| a != b)
        .collect();
    assert_eq!(differing.len(), 1, "exactly one where clause differs");
    let (_, sports_line) = differing[0];
    // The two extra predicates.
    assert!(sports_line.contains("isString(c)"));
    assert!(sports_line.contains("c = \"sports\""));
}

/// §2.2: Skolem-function semantics — "a Skolem function applied to the
/// same inputs produces the same node oid" across an entire program.
#[test]
fn skolem_identity_holds_across_blocks() {
    let site = paper_homepage_site(30);
    // YearPage(y) appears in links of several blocks; the number of year
    // pages equals the number of distinct years in the data.
    let mut years: Vec<i64> = Vec::new();
    for m in site.database.graph().members_str("Publications") {
        let o = m.as_node().unwrap();
        for v in site.database.graph().attr_str(o, "year") {
            if let strudel::graph::Value::Int(y) = v {
                if !years.contains(y) {
                    years.push(*y);
                }
            }
        }
    }
    let year_pages = site
        .result
        .graph
        .members_str("YearPages")
        .len();
    assert_eq!(year_pages, years.len());
}

/// §6.2: arc variables "carry over irregularities in the data to the site
/// graph" — a presentation object has exactly its publication's
/// attributes, whatever they are.
#[test]
fn arc_variables_preserve_irregularity() {
    let site = paper_homepage_site(50);
    let data = site.database.graph();
    for m in data.members_str("Publications") {
        let pub_oid = m.as_node().unwrap();
        let pres = site
            .result
            .skolem_node("PaperPresentation", std::slice::from_ref(m))
            .expect("every publication has a presentation");
        assert_eq!(
            site.result.graph.edges(pres).len(),
            data.edges(pub_oid).len(),
            "presentation copies exactly the publication's edges"
        );
    }
}

/// §2.5: static verification is sound — everything it proves holds at
/// runtime on materialized sites of several sizes.
#[test]
fn static_verification_is_sound() {
    let constraints = [
        "forall p in PaperPages : exists r in HomeRoot : r -> * -> p",
        "forall a in AbstractPages : exists r in HomeRoot : r -> * -> a",
        r#"forall y in YearPages : y -> "Year" -> v"#,
    ];
    for entries in [5usize, 40] {
        let site = paper_homepage_site(entries);
        let site_graph = Database::from_graph(site.result.graph.clone(), IndexLevel::Full);
        for src in constraints {
            let c = parse_constraint(src).unwrap();
            if verify::verify(&site.schema, site.database.graph(), &c) == verify::Verdict::Proved {
                let r = runtime::check(&site_graph, &c);
                assert!(r.holds, "proved but violated at {entries}: {src}");
            }
        }
    }
}

/// §6.3: author order survives the order-free data model through integer
/// keys.
#[test]
fn author_order_is_preserved_via_keys() {
    let bib = "@article{k, title={T}, author={First Person and Second Person and Third Person}, year=1998}";
    let g = strudel::wrappers::bibtex::wrap(bib).unwrap();
    let k = g.node_by_name("k").unwrap();
    let keyed: Vec<_> = g.attr_str(k, "author-keyed").collect();
    assert_eq!(keyed.len(), 3);
    for (i, v) in keyed.iter().enumerate() {
        let node = v.as_node().unwrap();
        assert_eq!(
            g.first_attr_str(node, "key"),
            Some(&strudel::graph::Value::Int(i as i64 + 1))
        );
    }
}

/// §1: "multiple versions … by applying different site-definition queries
/// to the same underlying data" — general and sports-only sites from one
/// corpus, where the sports site graph embeds into the general one.
#[test]
fn multiple_sites_from_one_database() {
    let corpus = paper_news_corpus(60);
    let general = sites::news_site(&corpus).build().unwrap();
    let sports = sites::sports_only_site(&corpus).build().unwrap();
    assert!(sports.stats.site_nodes < general.stats.site_nodes);

    // Every sports article page also exists in the general site.
    for m in sports.result.graph.members_str("ArticlePages") {
        let oid = m.as_node().unwrap();
        let name = sports.result.graph.node_name(oid).unwrap();
        // Skolem display names match across sites for the same argument.
        assert!(
            general
                .result
                .graph
                .node_by_name(name)
                .is_some(),
            "{name} missing from the general site"
        );
    }
}

/// §2.3: collection `default` directives type bare strings but "are not
/// constraints and can be overridden".
#[test]
fn ddl_defaults_type_but_do_not_constrain() {
    let g = strudel::graph::ddl::parse(
        r#"
        collection Publications { default abstract : text; }
        object a in Publications { abstract : "abs/a.txt"; }
        object b in Publications { abstract : image("shot.png"); }
    "#,
    )
    .unwrap();
    let a = g.node_by_name("a").unwrap();
    let b = g.node_by_name("b").unwrap();
    assert!(g
        .first_attr_str(a, "abstract")
        .unwrap()
        .is_file_kind(strudel::graph::FileKind::Text));
    assert!(g
        .first_attr_str(b, "abstract")
        .unwrap()
        .is_file_kind(strudel::graph::FileKind::Image));
}
