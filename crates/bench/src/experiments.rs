//! The experiment suite: one function per table/figure of the paper.
//!
//! Every function prints a self-contained table to stdout and asserts the
//! count-based half of its EXPERIMENTS.md shape check (line counts, rows,
//! pages, verdicts, result equality); each assertion message names the
//! check it holds. The timing half stays prose, since wall-clock ratios
//! depend on the machine. Shapes to look for (see EXPERIMENTS.md):
//!
//! * T1 — declarative specs stay small at paper scale; second versions
//!   cost ~0 query lines.
//! * F8 — the procedural/declarative spec-size and change-cost gap grows
//!   with structural complexity, not with data size.
//! * E-dynamic — context seeding beats naive re-evaluation per click, and
//!   look-ahead converts link follows into cache hits.
//! * E-incremental — patching a crawled site's pages is far cheaper than
//!   re-evaluation, and its cost tracks the delta, not the site.
//! * E-index — the full-indexing win grows with data size.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};
use strudel::repo::{Database, IndexLevel};
use strudel::schema::constraint::{parse_constraint, runtime, verify};
use strudel::schema::dynamic::{DynTarget, DynamicSite, Mode, PageKey};
use strudel::schema::{SchemaNode, SiteSchema};
use strudel::sites;
use strudel::struql::rpe::Nfa;
use strudel::struql::{Condition, EvalOptions, Evaluator, Parallelism, PathSpec};
use strudel::template::{HtmlGenerator, TemplateSet};
use strudel::SiteStats;
use strudel_graph::{graphs_equivalent, GraphDelta, Oid, Value};
use strudel_mediator::{Mediator, Source, SourceFormat};
use strudel_procgen::{news as proc_news, sweep};
use strudel_serve::crawl::site_urls;
use strudel_serve::SiteService;
use strudel_workload::{bib, org};

fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

fn ms(d: Duration) -> String {
    format!("{:.2}ms", d.as_secs_f64() * 1e3)
}

/// T1 — the §5.1 site-statistics table for every site of the paper,
/// rebuilt on synthetic corpora at paper scale.
pub fn exp_site_stats() {
    println!("== T1: site statistics (paper §5.1) ==");
    println!(
        "paper reference: AT&T internal 115-line query / 17 templates (380 lines) / ~400 home pages;"
    );
    println!(
        "  external +0 query lines, 5 changed templates; mff 48-line query / 13 templates (202 lines);"
    );
    println!("  CNN 44-line query / 9 templates / ~300 articles; sports-only +2 predicates.\n");
    println!("{}", SiteStats::header());

    let homepage = crate::paper_homepage_site(40);
    let homepage_stats = homepage.stats_with_render().unwrap();
    println!("{}", homepage_stats.row());

    let org_site = crate::paper_org_site(400);
    let mut org_stats = org_site.stats_with_render().unwrap();
    println!("{}", org_stats.row());
    let org_query_lines = org_stats.query_lines;
    let org_pages = org_stats.pages;

    // External org site: same data, same query, external template set.
    let external = sites::org_external_templates();
    let ext_render = org_site.render_with(&external).unwrap();
    org_stats.name = "org-external".into();
    org_stats.query_lines = 0; // "no new queries were written for that site"
    org_stats.templates = 5; // changed templates only
    org_stats.template_lines = 0;
    org_stats.pages = ext_render.pages.len();
    println!("{}", org_stats.row());

    let corpus = crate::paper_news_corpus(300);
    let news_site = sites::news_site(&corpus).build().unwrap();
    let news_stats = news_site.stats_with_render().unwrap();
    println!("{}", news_stats.row());

    let sports = sites::sports_only_site(&corpus).build().unwrap();
    let mut sports_stats = sports.stats_with_render().unwrap();
    sports_stats.name = "news-sports".into();
    println!("{}", sports_stats.row());

    let bilingual = sites::bilingual_site(BILINGUAL_ITEMS).build().unwrap();
    let bilingual_stats = bilingual.stats_with_render().unwrap();
    println!("{}", bilingual_stats.row());
    println!();

    let lines = [
        org_query_lines,
        homepage_stats.query_lines,
        news_stats.query_lines,
        bilingual_stats.query_lines,
    ];
    assert!(
        lines.windows(2).all(|w| w[0] > w[1]),
        "T1 shape check: query lines order org > homepage > news > bilingual, got {lines:?}"
    );
    assert_eq!(
        org_stats.pages, org_pages,
        "T1 shape check: the external version renders the same site graph"
    );
    assert!(
        sports_stats.templates == news_stats.templates && sports_stats.pages < news_stats.pages,
        "T1 shape check: sports-only reuses the news templates on fewer pages"
    );
}

const BILINGUAL_ITEMS: &str = r#"
object i1 in Items {
  title-en : "The Strudel project"; title-fr : "Le projet Strudel";
  body-en  : "Declarative web sites."; body-fr : "Sites web declaratifs.";
}
object i2 in Items {
  title-en : "Publications"; title-fr : "Publications";
  body-en  : "Papers and reports."; body-fr : "Articles et rapports.";
}
object i3 in Items {
  title-en : "People"; title-fr : "Equipe";
  body-en  : "Researchers and students.";
}
"#;

/// F8 — the tool-suitability study: spec size, change cost, and
/// generation time across (data size × structural complexity) for Strudel
/// vs the procedural baseline.
pub fn exp_suitability() {
    println!("== F8: suitability study (paper Fig. 8) ==");
    println!("spec = maintained lines; change = lines touched to add one facet\n");
    println!(
        "{:>8} {:>7} | {:>10} {:>10} {:>12} | {:>10} {:>10} {:>12} | winner(spec)",
        "entities", "facets", "strudel", "proc", "strudel-gen", "strudel-chg", "proc-chg", "proc-gen"
    );
    let mut spec_gaps = Vec::new();
    for &k in &[2usize, 8, 24] {
        let (s_spec, p_spec) = (sweep::strudel_spec_lines(k), sweep::procedural_spec_lines(k));
        spec_gaps.push(p_spec as i64 - s_spec as i64);
        let (s_change, p_change) =
            (sweep::strudel_change_lines(k), sweep::procedural_change_lines(k));
        for &n in &[20usize, 200, 2000] {
            let entities = sweep::sweep_entities(n, k);
            let ddl = sweep::sweep_ddl(&entities);
            let g = strudel_graph::ddl::parse(&ddl).unwrap();
            let db = Database::from_graph(g, IndexLevel::Full);
            let program = strudel::struql::parse(&sweep::strudel_query(k)).unwrap();
            let mut templates = TemplateSet::new();
            for (name, src, assign) in sweep::strudel_templates(k) {
                templates.add_template(&name, &src).unwrap();
                if assign == "Home" {
                    templates.assign_object("Home", &name);
                } else {
                    templates.assign_collection(&assign, &name);
                }
            }
            let (result, strudel_gen) = time(|| Evaluator::new(&db).eval(&program).unwrap());
            let roots: Vec<Oid> = result
                .graph
                .members_str("Roots")
                .iter()
                .filter_map(Value::as_node)
                .collect();
            let (_pages, strudel_render) =
                time(|| HtmlGenerator::new(&result.graph, &templates).generate(&roots).unwrap());

            let (_proc_pages, proc_gen) = time(|| sweep::generate_procedural(&entities, k));

            println!(
                "{:>8} {:>7} | {:>10} {:>10} {:>12} | {:>11} {:>10} {:>12} | {}",
                n,
                k,
                s_spec,
                p_spec,
                ms(strudel_gen + strudel_render),
                s_change,
                p_change,
                ms(proc_gen),
                if s_spec < p_spec { "strudel" } else { "procedural" }
            );
        }
        assert!(
            s_change < p_change,
            "F8 shape check: adding a facet costs Strudel fewer lines at {k} facets"
        );
    }
    assert!(
        spec_gaps[0] <= 0 && 0 < spec_gaps[1] && spec_gaps[1] < spec_gaps[2],
        "F8 shape check: the procedural spec wins at 2 facets and loses at 8 and 24 by a \
         growing gap, got procedural minus Strudel lines {spec_gaps:?}"
    );
    println!("\nsecond-site cost (CNN sports-only): strudel = 2 extra predicates in one clause;");
    let sports_lines = proc_news::sports_variant_changed_lines();
    println!(
        "procedural = {sports_lines} duplicated generator lines (measured from the baseline's source)\n"
    );
    assert!(
        sports_lines > 2,
        "F8 shape check: the sports-only variant costs the procedural baseline more than 2 lines"
    );
}

/// E-multiversion — multiple versions from one data/site graph.
pub fn exp_multiversion() {
    println!("== E-multiversion: versions from one site graph (paper §1/§5.1/§6.1) ==");
    let org_site = crate::paper_org_site(400);
    let (internal, t_int) = time(|| org_site.render().unwrap());
    let external_templates = sites::org_external_templates();
    let (external, t_ext) = time(|| org_site.render_with(&external_templates).unwrap());
    println!(
        "org internal: {} pages in {}; external (same site graph, 5 changed templates): {} pages in {}",
        internal.pages.len(),
        ms(t_int),
        external.pages.len(),
        ms(t_ext)
    );
    assert_eq!(
        internal.pages.len(),
        external.pages.len(),
        "E-multiversion shape check: both versions render every page of one site graph"
    );

    let corpus = crate::paper_news_corpus(300);
    let (general, t_gen) = time(|| sites::news_site(&corpus).build().unwrap());
    let (sports, t_sports) = time(|| sites::sports_only_site(&corpus).build().unwrap());
    println!(
        "news general: {} site nodes in {}; sports-only (+2 predicates, same templates): {} site nodes in {}",
        general.stats.site_nodes,
        ms(t_gen),
        sports.stats.site_nodes,
        ms(t_sports)
    );
    assert!(
        sports.stats.site_nodes < general.stats.site_nodes,
        "E-multiversion shape check: the sports-only version is a strict subset"
    );
    println!();
}

/// E-schema — the Fig. 7 site schema of the homepage query.
pub fn exp_site_schema() {
    println!("== E-schema: site schema extraction (paper §2.5 / Fig. 7) ==");
    let program = strudel::struql::parse(sites::HOMEPAGE_QUERY).unwrap();
    let schema = SiteSchema::extract(&program);
    println!(
        "homepage query: {} schema nodes, {} edges, {} collects",
        schema.nodes.len(),
        schema.edges.len(),
        schema.collects.len()
    );
    for e in &schema.edges {
        let label = match &e.label {
            strudel::struql::LabelTerm::Const(s) => s.clone(),
            strudel::struql::LabelTerm::Var(v) => format!("<{v}>"),
        };
        println!(
            "  {} -[{} | Q: {} cond(s)]-> {}",
            schema.nodes[e.from].name(),
            label,
            e.guard.len(),
            schema.nodes[e.to].name()
        );
    }
    println!("\ndot rendering:\n{}", schema.to_dot());
    assert_eq!(
        (schema.nodes.len(), schema.edges.len()),
        (7, 18),
        "E-schema shape check: 6 Skolem symbols plus NS, 18 edges"
    );
    let edge = |from: &str, label: &str, to: &str| {
        schema.edges.iter().find(|e| {
            schema.nodes[e.from].name() == from
                && schema.nodes[e.to].name() == to
                && matches!(&e.label, strudel::struql::LabelTerm::Const(l) if l == label)
        })
    };
    assert_eq!(
        edge("YearPage", "Paper", "PaperPresentation").map(|e| e.guard.len()),
        Some(2),
        "E-schema shape check: the Fig. 7 YearPage -Paper-> PaperPresentation edge carries Q1 ∧ Q2"
    );
    assert!(
        schema.edges.iter().any(|e| matches!(e.label, strudel::struql::LabelTerm::Var(_))
            && schema.nodes[e.to].name() == "NS"
            && e.guard.len() == 2),
        "E-schema shape check: the arc-variable copy edge targets NS with a 2-condition guard"
    );
}

/// E-verify — static verification vs runtime checking.
pub fn exp_verify() {
    println!("== E-verify: integrity-constraint verification (paper §2.5) ==");
    let site = crate::paper_homepage_site(40);
    let large = crate::paper_homepage_site(400);
    let root_reaches = "forall p in PaperPages : exists r in HomeRoot : r -> * -> p";
    // Each row carries its site, and the verdict and runtime outcome its
    // shape check expects.
    let constraints = [
        (
            "reachability (satisfied by construction)",
            "forall p in PaperPages : exists a in AbstractPages : a -> \"Paper\" -> p",
            &site,
            verify::Verdict::Proved,
            true,
        ),
        (
            "root reaches every paper (satisfied)",
            root_reaches,
            &site,
            verify::Verdict::Proved,
            true,
        ),
        (
            "root reaches every paper (satisfied)",
            root_reaches,
            &large,
            verify::Verdict::Proved,
            true,
        ),
        (
            "every paper page from a year page (data-dependent)",
            "forall p in PaperPages : exists y in YearPages : y -> \"Paper\" -> p",
            &site,
            verify::Verdict::Unknown,
            true,
        ),
        (
            "every paper has an editor (violated)",
            "forall p in PaperPages : p -> \"editor\" -> e",
            &site,
            verify::Verdict::Unknown,
            false,
        ),
    ];
    println!(
        "{:<50} {:>6} {:>9} {:>12} {:>11} {:>12}",
        "constraint", "papers", "static", "static-time", "runtime", "runtime-time"
    );
    for (label, src, site, expect_verdict, expect_holds) in constraints {
        let c = parse_constraint(src).unwrap();
        let papers = site.result.graph.members_str("PaperPages").len();
        let (verdict, t_static) = time(|| verify::verify(&site.schema, site.database.graph(), &c));
        // The runtime column times the check on a fresh database of the
        // site graph, as a build makes one; the graph copy is not timed.
        let site_graph = Database::from_graph(site.result.graph.clone(), IndexLevel::Full);
        let (check, t_runtime) = time(|| runtime::check(&site_graph, &c));
        assert!(
            verdict != verify::Verdict::Proved || check.holds,
            "verifier proved \"{label}\" but the runtime check found a violation"
        );
        println!(
            "{:<50} {:>6} {:>9} {:>12} {:>11} {:>12}",
            label,
            papers,
            format!("{verdict:?}"),
            ms(t_static),
            if check.holds { "holds" } else { "violated" },
            ms(t_runtime)
        );
        assert_eq!(
            (verdict, check.holds),
            (expect_verdict, expect_holds),
            "E-verify shape check: \"{label}\""
        );
    }
    println!();
}

/// E-dynamic — click-time evaluation: naive vs context vs look-ahead,
/// §2.5's three strategies run over the one (context-seeded) engine on
/// the same browse trail.
pub fn exp_dynamic() {
    println!("== E-dynamic: click-time evaluation (paper §2.5/§7) ==");
    println!(
        "{:>9} {:>18} {:>12} {:>12} {:>10} {:>12}",
        "articles", "strategy", "clicks", "rows", "cache-hits", "time"
    );
    let mut naive_rows = Vec::new();
    for &n in &[100usize, 1000, 3000] {
        let corpus = crate::paper_news_corpus(n);
        let site = sites::news_site(&corpus).build().unwrap();
        let engine = || DynamicSite::new(site.database.clone(), &site.program, Mode::Context);
        let print = |strategy: &str, clicks: usize, rows: usize, hits: usize, t: Duration| {
            println!(
                "{n:>9} {strategy:>18} {clicks:>12} {rows:>12} {hits:>10} {:>12}",
                ms(t)
            )
        };

        let context = engine();
        let ((trail, hits), t) = time(|| browse(&context, 25, false));
        let context_rows = context.metrics().rows_produced;
        let naive = engine();
        let (rows, t_naive) = time(|| naive_rows_on(&naive, &trail));
        let distinct = trail.iter().collect::<HashSet<_>>().len();
        print("naive", trail.len(), rows, trail.len() - distinct, t_naive);
        print("context", trail.len(), context_rows, hits, t);
        let lookahead = engine();
        let ((ahead, ahead_hits), t) = time(|| browse(&lookahead, 25, true));
        print(
            "context+lookahead",
            ahead.len(),
            lookahead.metrics().rows_produced,
            ahead_hits,
            t,
        );
        assert!(
            ahead_hits + 1 >= ahead.len(),
            "E-dynamic shape check: look-ahead turns every link follow into a cache \
             hit at {n} articles ({ahead_hits} of {} clicks)",
            ahead.len()
        );
        assert!(
            rows >= 10 * context_rows,
            "E-dynamic shape check: naive rows at least 10x context rows at {n} articles, \
             got {rows} vs {context_rows}"
        );
        naive_rows.push(rows);
    }
    assert!(
        naive_rows.windows(2).all(|w| w[0] < w[1]),
        "E-dynamic shape check: naive rows grow with articles, got {naive_rows:?}"
    );
    println!();
}

/// A deterministic browse trail of `clicks` clicks: the front page, then
/// repeatedly the first unvisited page link (falling back to the front
/// page). Returns the pages clicked and how many clicks found their page
/// cached already. With `lookahead`, each click also visits the clicked
/// page's page children, so following a link finds its page cached.
fn browse(site: &DynamicSite, clicks: usize, lookahead: bool) -> (Vec<PageKey>, usize) {
    let roots = site.roots("FrontRoot").unwrap();
    let mut current: PageKey = roots[0].clone();
    let (mut trail, mut hits) = (Vec::new(), 0);
    for _ in 0..clicks {
        let cached = site.cached_pages();
        let view = site.visit(&current).unwrap();
        hits += usize::from(site.cached_pages() == cached);
        trail.push(current);
        let children = view.edges.iter().filter_map(|(_, t)| match t {
            DynTarget::Page(k) => Some(k),
            DynTarget::Data(_) => None,
        });
        if lookahead {
            for child in children.clone() {
                site.visit(child).unwrap();
            }
        }
        current = match children.into_iter().find(|k| !trail.contains(k)) {
            Some(k) => k.clone(),
            None => roots[0].clone(),
        };
    }
    (trail, hits)
}

/// The rows naive evaluation produces on `trail`, counted as the engine
/// counts its own: the site's roots, then, for each page the trail
/// visits for the first time, every out-edge guard of the page's symbol
/// evaluated unseeded over the whole database — the rows the page's links
/// are then filtered out of.
fn naive_rows_on(site: &DynamicSite, trail: &[PageKey]) -> usize {
    site.roots("FrontRoot").unwrap();
    let mut rows = site.metrics().rows_produced;
    let db = site.database();
    let ev = Evaluator::new(&db);
    let schema = site.schema();
    let mut seen = HashSet::new();
    for key in trail.iter().filter(|k| seen.insert(*k)) {
        for edge in &schema.edges {
            if schema.nodes[edge.from] == SchemaNode::Skolem(key.symbol.clone())
                && edge.src_args.len() == key.args.len()
            {
                rows += ev.eval_where_bindings(&edge.guard, &[]).unwrap().1.len();
            }
        }
    }
    rows
}

/// E-diff — differential maintenance of cached page views: per-delta
/// cost must track |Δ|, not site size, and beat from-scratch
/// re-evaluation by a wide margin. The from-scratch arm is built here
/// from public API — the engine has one delta path: re-index the
/// post-delta graph, stand up a fresh engine, and re-run the guards of
/// the pages the differential arm reported dirty. The hub arms
/// (`exp_diff_hub`) repeat the question on `news_site`, whose front
/// page links every article: there the cost must not track the page
/// either.
pub fn exp_diff() {
    use strudel_graph::Graph;

    const DIFF_QUERY: &str = r#"
        create RootPage()
        where Articles(x)
        create ArticlePage(x)
        link RootPage() -> "story" -> ArticlePage(x)
        collect Roots(RootPage()), ArticlePages(ArticlePage(x))
        { where x -> "title" -> t
          link ArticlePage(x) -> "title" -> t }
        { where x -> "rel"* -> y, Articles(y), y -> "title" -> t
          link ArticlePage(x) -> "related" -> t }
    "#;

    /// `n` articles, each titled, chained by `rel` edges inside clusters
    /// of 8 (so every `rel*` cone stays small at any site size).
    fn diff_corpus(n: usize) -> Graph {
        let mut g = Graph::new();
        let mut prev = None;
        for i in 0..n {
            let node = g.add_named_node(&format!("a{i}"));
            g.collect_str("Articles", node);
            g.add_edge_str(node, "title", Value::string(format!("Title {i:06}").as_str()));
            if i % 8 != 0 {
                g.add_edge_str(node, "rel", Value::from(prev.unwrap()));
            }
            prev = Some(node);
        }
        g
    }

    println!("== E-diff: differential plan maintenance vs from-scratch re-evaluation ==");
    println!(
        "{:>9} {:>5} | {:>12} {:>14} {:>9} | updated/fallbacks",
        "articles", "|Δ|", "differential", "from-scratch", "speedup"
    );
    let program = strudel::struql::parse(DIFF_QUERY).unwrap();
    const ROUNDS: usize = 12;
    for &n in &[1_000usize, 4_000, 16_000] {
        let graph = diff_corpus(n);
        let db = std::sync::Arc::new(Database::from_graph(graph, IndexLevel::Full));

        // The delta schedule is generated once and replayed on both arms
        // so their database lineages stay identical. Every tranche
        // retitles its own disjoint range of articles; `titles` tracks
        // the current value so every removal is applicable.
        let mut titles: Vec<String> = (0..n).map(|i| format!("Title {i:06}")).collect();
        let mut cursor = 0usize;
        let mut schedule: Vec<(usize, GraphDelta)> = Vec::new();
        // Warmup (untimed): the first delta copies the database, which
        // the from-scratch arm still shares.
        let mut warm = GraphDelta::new();
        warm.add_edge(Oid::from_index(n - 1), "note", Value::string("warm"));
        schedule.push((0, warm));
        for &ops in &[1usize, 8, 64] {
            for round in 0..ROUNDS {
                let mut delta = GraphDelta::new();
                if ops == 1 {
                    let i = cursor;
                    cursor += 1;
                    delta.add_edge(
                        Oid::from_index(i),
                        "title",
                        Value::string(format!("Extra {round}").as_str()),
                    );
                } else {
                    for _ in 0..ops / 2 {
                        let i = cursor;
                        cursor += 1;
                        let next = format!("Title {i:06} r{round}");
                        delta.remove_edge(
                            Oid::from_index(i),
                            "title",
                            Value::string(titles[i].as_str()),
                        );
                        delta.add_edge(
                            Oid::from_index(i),
                            "title",
                            Value::string(next.as_str()),
                        );
                        titles[i] = next;
                    }
                }
                schedule.push((ops, delta));
            }
        }
        assert!(cursor < n, "schedule exhausted the corpus");

        let diff_site = DynamicSite::new(db.clone(), &program, Mode::Context);
        let mut scratch_db = db;
        // Every page cached, so deltas hit a fully materialized cache.
        let pages = diff_site.crawl("Roots").unwrap().len();

        let mut diff_us: Vec<(usize, f64)> = Vec::new();
        let mut scratch_us: Vec<(usize, f64)> = Vec::new();
        for (ops, delta) in &schedule {
            let (outcome, t) = time(|| diff_site.apply_delta(delta).unwrap());
            assert!(
                outcome.evicted == 0 || *ops == 0,
                "maintenance must absorb every dirty page: {outcome:?}"
            );
            if *ops > 0 {
                diff_us.push((*ops, t.as_secs_f64() * 1e6));
            }
            // The from-scratch arm: re-index the post-delta graph and
            // re-run the dirty pages' guards on a cold engine to restore
            // the same served state.
            let (_, t) = time(|| {
                let mut graph = scratch_db.graph().clone();
                delta.apply(&mut graph).unwrap();
                scratch_db = std::sync::Arc::new(Database::from_graph(graph, IndexLevel::Full));
                let scratch_site =
                    DynamicSite::new(scratch_db.clone(), &program, Mode::Context);
                for key in &outcome.dirty.pages {
                    scratch_site.visit(key).unwrap();
                }
            });
            if *ops > 0 {
                scratch_us.push((*ops, t.as_secs_f64() * 1e6));
            }
        }
        assert_eq!(
            diff_site.cached_pages(),
            pages,
            "every page stays materialized through maintenance"
        );
        let m = diff_site.metrics();
        assert_eq!(m.diff_fallbacks, 0, "no maintenance fallbacks: {m:?}");

        // Correctness: the maintained cache serves exactly what a cold
        // engine computes on the final database.
        let fresh = DynamicSite::new(diff_site.database(), &program, Mode::Context);
        for i in [0usize, 1, cursor.saturating_sub(1)] {
            let key = PageKey {
                symbol: "ArticlePage".into(),
                args: vec![Value::from(Oid::from_index(i))],
            };
            let sort = |mut v: Vec<(Arc<str>, DynTarget)>| {
                v.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
                v
            };
            assert_eq!(
                sort(diff_site.visit(&key).unwrap().edges.clone()),
                sort(fresh.visit(&key).unwrap().edges.clone()),
                "article a{i} diverged at n={n}"
            );
        }

        for &ops in &[1usize, 8, 64] {
            let mean = |v: &[(usize, f64)]| {
                let s: Vec<f64> =
                    v.iter().filter(|(o, _)| *o == ops).map(|(_, t)| *t).collect();
                s.iter().sum::<f64>() / s.len() as f64
            };
            let d = mean(&diff_us);
            let s = mean(&scratch_us);
            println!(
                "{:>9} {:>5} | {:>10.0}us {:>12.0}us {:>8.1}x | {}/{}",
                n,
                ops,
                d,
                s,
                s / d,
                m.diff_pages_updated,
                m.diff_fallbacks
            );
        }
    }
    println!();
    exp_diff_hub();
}

/// The hub arms of E-diff: `news_site` with its front page (one
/// `Headline` per article) and category pages warm, under retitles of 1,
/// 8 and 64 articles, one insert and one uncollect per round. Every delta
/// dirties the front page; the patch must cost the delta, not the page —
/// asserted as flatness of the 1-retitle delta from 1 000 to 16 000
/// articles.
fn exp_diff_hub() {
    println!("== E-diff (hub): news_site, front and category pages warm ==");
    println!(
        "{:>9} | {:>10} {:>10} {:>10} {:>10} {:>10} | updated/fallbacks/copies",
        "articles", "retitle 1", "retitle 8", "retitle 64", "insert", "uncollect"
    );
    const ROUNDS: usize = 12;
    const KINDS: [&str; 5] = ["retitle1", "retitle8", "retitle64", "insert", "uncollect"];
    let median = |samples: &[f64]| {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        sorted[sorted.len() / 2]
    };
    let mut one_retitle: Vec<(usize, f64)> = Vec::new();
    for &n in &[1_000usize, 4_000, 16_000] {
        let built = crate::paper_news_site(n);
        // A database of the engine's own: one `built` still shared would
        // make the first delta copy it.
        let db = std::sync::Arc::new(Database::from_graph(
            built.database.graph().clone(),
            IndexLevel::Full,
        ));
        let program = built.program.clone();
        drop(built);
        let graph = db.graph();
        let mut articles: Vec<(Oid, Value)> = graph
            .members_str("Articles")
            .iter()
            .filter_map(Value::as_node)
            .map(|a| (a, graph.first_attr_str(a, "title").cloned().expect("titled")))
            .collect();
        let category = graph
            .first_attr_str(articles[0].0, "category")
            .cloned()
            .expect("categorised");
        let mut next_oid = graph.node_count();

        let site = DynamicSite::new(db, &program, Mode::Context);
        let front = site.roots("FrontRoot").unwrap().remove(0);
        let mut warm = vec![front.clone()];
        for (label, target) in &site.visit(&front).unwrap().edges {
            if let (true, DynTarget::Page(k)) = (&**label == "Section", target) {
                site.visit(k).unwrap();
                warm.push(k.clone());
            }
        }

        // Untimed: the first delta counts the statistics' per-end counts.
        let mut first = GraphDelta::new();
        first.add_edge(articles[0].0, "note", Value::string("warm"));
        site.apply_delta(&first).unwrap();

        // Each kind runs its rounds back to back, as the arms above do, so
        // a kind is timed in a stream of its own.
        let mut serial = 0usize;
        let mut cursor = 0usize;
        let mut samples: Vec<Vec<f64>> = Vec::new();
        for kind in KINDS {
            let mut us = Vec::with_capacity(ROUNDS);
            for _ in 0..ROUNDS {
                serial += 1;
                let mut delta = GraphDelta::new();
                match kind {
                    "insert" => {
                        let oid = Oid::from_index(next_oid);
                        next_oid += 1;
                        let title = Value::string(format!("Breaking story #{serial}#").as_str());
                        delta.add_node(None);
                        delta.add_edge(oid, "title", title.clone());
                        delta.add_edge(oid, "category", category.clone());
                        delta.add_edge(oid, "date", Value::string("1998-06-01"));
                        delta.collect("Articles", Value::Node(oid));
                        articles.push((oid, title));
                    }
                    "uncollect" => {
                        let (gone, _) = articles.pop().expect("articles left");
                        delta.uncollect("Articles", Value::Node(gone));
                    }
                    _ => {
                        let retitles: usize = kind["retitle".len()..].parse().expect("a count");
                        for _ in 0..retitles {
                            let (oid, title) = &mut articles[cursor];
                            cursor += 1;
                            delta.remove_edge(*oid, "title", title.clone());
                            *title =
                                Value::string(format!("Retitled story #{serial}.{cursor}#").as_str());
                            delta.add_edge(*oid, "title", title.clone());
                        }
                    }
                }
                let (outcome, t) = time(|| site.apply_delta(&delta).unwrap());
                assert!(outcome.dirty.contains(&front), "every delta here dirties the hub");
                assert_eq!(outcome.evicted, 0, "{outcome:?}");
                us.push(t.as_secs_f64() * 1e6);
            }
            samples.push(us);
        }

        let m = site.metrics();
        assert_eq!(m.diff_fallbacks, 0, "no maintenance fallbacks: {m:?}");
        assert_eq!(m.snapshot_copies, 0, "the engine's database is never shared: {m:?}");
        // Correctness: the patched hub pages hold exactly the rows a cold
        // engine derives on the final database.
        let fresh = DynamicSite::new(site.database(), &program, Mode::Context);
        let sort = |v: &[(Arc<str>, DynTarget)]| {
            let mut v: Vec<String> = v.iter().map(|e| format!("{e:?}")).collect();
            v.sort_unstable();
            v
        };
        for key in &warm {
            assert_eq!(
                sort(&site.visit(key).unwrap().edges),
                sort(&fresh.visit(key).unwrap().edges),
                "{key:?} diverged at n={n}"
            );
        }

        let medians: Vec<f64> = samples.iter().map(|s| median(s)).collect();
        println!(
            "{:>9} | {:>8.0}us {:>8.0}us {:>8.0}us {:>8.0}us {:>8.0}us | {}/{}/{}",
            n,
            medians[0],
            medians[1],
            medians[2],
            medians[3],
            medians[4],
            m.diff_pages_updated,
            m.diff_fallbacks,
            m.snapshot_copies
        );
        one_retitle.push((n, medians[0]));
    }
    let (small, large) = (one_retitle[0], one_retitle[one_retitle.len() - 1]);
    assert!(
        large.1 <= 2.0 * small.1,
        "a 1-retitle delta must not track the hub page: {:.0}us at {} articles, {:.0}us at {}",
        small.1,
        small.0,
        large.1,
        large.0
    );
    println!(
        "flatness: 1 retitle at {} articles = {:.2}x of {} articles\n",
        large.0,
        large.1 / small.1,
        small.0
    );
}

/// E-incremental — incremental site update (§7) on the click engine: a
/// crawled `DynamicSite` patches its counted pages with a delta's signed
/// rows, against full re-evaluation. The crawl is a one-time cost (the
/// one `SiteService::warm` pays); `apply_delta` is timed after one untimed
/// priming delta. Every arm asserts that each page equals a fresh
/// engine's.
pub fn exp_incremental() {
    println!("== E-incremental: incremental site update on the click engine (paper §7) ==");
    println!(
        "{:>8} {:>9} | {:>10} {:>12} {:>12} {:>6} | pages",
        "people", "delta", "crawl", "apply_delta", "full-reeval", "rows"
    );
    let mut rows_by_size: Vec<Vec<usize>> = Vec::new();
    for &people in &[400usize, 1000] {
        let mut arm_rows = Vec::new();
        let data = org::generate(&org::OrgConfig {
            people,
            ..Default::default()
        });
        // Insert 1, 10 or 50 new people; `None` removes one person from
        // the People collection.
        for arm in [Some(1usize), Some(10), Some(50), None] {
            let site = sites::org_site(
                &data.people_csv,
                &data.departments_csv,
                &data.projects_rec,
                &data.demos_rec,
                &data.legacy_html,
            )
            .build()
            .unwrap();
            let root = site.root_collection.as_str();
            let engine = DynamicSite::new(site.database, &site.program, Mode::Context);
            let (known, t_crawl) = time(|| engine.crawl(root).unwrap());
            let mut primer = GraphDelta::new();
            primer.add_node(Some("primer"));
            engine.apply_delta(&primer).unwrap();

            let pre = engine.database().graph().clone();
            let mut delta = GraphDelta::new();
            let name = match arm {
                Some(count) => {
                    let base = pre.node_count();
                    for i in 0..count {
                        delta.add_node(Some(&format!("newp{i}")));
                        let oid = Oid::from_index(base + i);
                        delta.add_edge(oid, "id", Value::string(format!("newp{i}")));
                        delta.add_edge(oid, "name", Value::string(format!("New Person {i}")));
                        delta.add_edge(oid, "dept", Value::string("dept0"));
                        delta.collect("People", Value::Node(oid));
                    }
                    format!("+{count}p")
                }
                None => {
                    let victim = pre
                        .node_by_name(&format!("People_{}", data.people_ids[0]))
                        .unwrap();
                    delta.uncollect("People", Value::Node(victim));
                    "-1p".to_owned()
                }
            };

            let before = engine.metrics();
            let (_, t_apply) = time(|| engine.apply_delta(&delta).unwrap());
            let after = engine.metrics();
            let rows = after.diff_rows_added + after.diff_rows_retracted
                - before.diff_rows_added
                - before.diff_rows_retracted;
            let (_, t_full) = time(|| {
                let mut g = pre.clone();
                delta.apply(&mut g).unwrap();
                let db = Database::from_graph(g, IndexLevel::Full);
                Evaluator::new(&db).eval(&site.program).unwrap()
            });

            // Every page reachable now, and every page reachable before
            // (the removed person's page is cut off), equals a fresh
            // engine's on the post-delta database.
            let sorted = |site: &DynamicSite, key: &PageKey| {
                let view = site.visit(key).unwrap();
                let mut edges: Vec<String> = view.edges.iter().map(|e| format!("{e:?}")).collect();
                edges.sort_unstable();
                edges
            };
            let pages = |site: &DynamicSite| -> HashMap<PageKey, Vec<String>> {
                let keys = site.crawl(root).unwrap();
                keys.into_iter()
                    .map(|key| {
                        let edges = sorted(site, &key);
                        (key, edges)
                    })
                    .collect()
            };
            let fresh = DynamicSite::new(engine.database(), &site.program, Mode::Context);
            let reachable = pages(&engine);
            assert!(
                reachable == pages(&fresh),
                "E-incremental shape check: reachable pages equal a fresh engine's at \
                 {people} {name}"
            );
            for key in known.iter().filter(|k| !reachable.contains_key(*k)) {
                assert!(
                    sorted(&engine, key) == sorted(&fresh, key),
                    "E-incremental shape check: {key:?} equals a fresh engine's at {people} {name}"
                );
            }
            let m = engine.metrics();
            assert!(
                m.diff_fallbacks == 0 && m.snapshot_copies == 0,
                "E-incremental shape check: every dirty page patched, no database copy at \
                 {people} {name}: {m:?}"
            );
            println!(
                "{:>8} {:>9} | {:>10} {:>12} {:>12} {:>6} | {}",
                people,
                name,
                ms(t_crawl),
                ms(t_apply),
                ms(t_full),
                rows,
                reachable.len()
            );
            arm_rows.push(rows);
        }
        assert!(
            arm_rows[..3].windows(2).all(|w| w[0] < w[1]),
            "E-incremental shape check: rows grow with the insertion at {people} people, \
             got {arm_rows:?}"
        );
        rows_by_size.push(arm_rows);
    }
    assert!(
        rows_by_size.windows(2).all(|w| w[0] == w[1]),
        "E-incremental shape check: rows track the delta, not the site, got {rows_by_size:?}"
    );
    println!();
}

/// E-index — what full indexing buys in a schemaless repository.
pub fn exp_indexing() {
    println!("== E-index: repository indexing ablation (paper §2.1) ==");
    println!(
        "{:>9} {:>15} | {:>12} {:>12} {:>12}",
        "articles", "query", "none", "ext-only", "full"
    );
    for &n in &[100usize, 1000, 3000] {
        let corpus = crate::paper_news_corpus(n);
        let docs = strudel::wrappers::html::HtmlDoc::from_pairs(&corpus);
        let g = strudel::wrappers::html::wrap_documents(&docs, "Articles").unwrap();

        // Two selective queries: a bound-target label step (served by the
        // inverted extension index) and an arc-variable value lookup
        // (served only by the global value index — "indexes on atomic
        // values are global to the graph").
        let queries = [
            (
                "cat+date",
                r#"
                where Articles(a), a -> "category" -> "sports", a -> "date" -> d
                create P(a)
                link P(a) -> "date" -> d
                collect Out(P(a))
            "#,
            ),
            (
                "value-lookup",
                r#"
                where Articles(a), a -> l -> "sports"
                create P(a)
                link P(a) -> "hit" -> l
                collect Out(P(a))
            "#,
            ),
        ];
        for (qname, query) in queries {
            let program = strudel::struql::parse(query).unwrap();
            let mut row = format!("{:>9} {:>15} |", n, qname);
            let mut build_row = format!("{:>9} {:>15} |", "", "+ first probe");
            let mut reference = None;
            for level in [IndexLevel::None, IndexLevel::ExtensionOnly, IndexLevel::Full] {
                let db = Database::from_graph(g.clone(), level);
                // Build the statistics first, so we time the query, not them.
                let _ = db.stats();
                // A fresh Database holds no index: the first evaluation
                // builds every family it probes. Run it apart so the query
                // columns compare probes, and report what it paid on top.
                let (_r, t_first) = time(|| Evaluator::new(&db).eval(&program).unwrap());
                let (r, t) = time(|| Evaluator::new(&db).eval(&program).unwrap());
                match &reference {
                    None => reference = Some(r.graph),
                    Some(g) => assert!(
                        graphs_equivalent(g, &r.graph),
                        "E-index shape check: {qname} at {n} articles answers the same at \
                         {level:?}"
                    ),
                }
                row.push_str(&format!(" {:>12}", ms(t)));
                build_row.push_str(&format!(" {:>12}", ms(t_first.saturating_sub(t))));
            }
            println!("{row}");
            println!("{build_row}");
        }
    }
    println!("(+ first probe: what the lazy index build added to the first evaluation)\n");
}

/// E-struql-scale — evaluation scaling and the join-ordering ablation.
pub fn exp_struql_scale() {
    println!("== E-struql-scale: query evaluation scaling (paper §2.2/§6.2) ==");
    println!(
        "{:>9} | {:>12} {:>12} | {:>14} {:>14}",
        "entries", "optimized", "naive-order", "rows(opt)", "rows(naive)"
    );
    let mut row_ratios = Vec::new();
    for &n in &[50usize, 200, 800] {
        let src = bib::generate(&bib::BibConfig {
            entries: n,
            ..Default::default()
        });
        let g = strudel::wrappers::bibtex::wrap(&src).unwrap();
        let db = Database::from_graph(g, IndexLevel::Full);
        // A join-heavy query: co-author pairs within a year.
        let query = r#"
            where Publications(x), Publications(y),
                  x -> "year" -> yr, y -> "year" -> yr,
                  x -> "author" -> a, y -> "author" -> a,
                  x != y
            create CoAuthored(x, y)
            collect Pairs(CoAuthored(x, y))
        "#;
        let program = strudel::struql::parse(query).unwrap();
        let (r_opt, t_opt) = time(|| Evaluator::new(&db).eval(&program).unwrap());
        let (r_naive, t_naive) = time(|| {
            Evaluator::with_options(&db, EvalOptions { optimize: false })
                .eval(&program)
                .unwrap()
        });
        println!(
            "{:>9} | {:>12} {:>12} | {:>14} {:>14}",
            n,
            ms(t_opt),
            ms(t_naive),
            r_opt.rows_evaluated,
            r_naive.rows_evaluated
        );
        assert!(
            r_opt.rows_evaluated < r_naive.rows_evaluated
                && graphs_equivalent(&r_opt.graph, &r_naive.graph),
            "E-struql-scale shape check: at {n} entries the optimized order evaluates fewer \
             rows than textual order and builds the same site graph"
        );
        row_ratios.push(r_naive.rows_evaluated as f64 / r_opt.rows_evaluated as f64);
    }
    assert!(
        row_ratios.windows(2).all(|w| w[0] < w[1]),
        "E-struql-scale shape check: the row gap widens with entries, got {row_ratios:?}"
    );

    // Kleene-star reachability (the TextOnly copy query of §2.2).
    println!("\nKleene-star TextOnly copy query (reachability):");
    let mut copied = Vec::new();
    for &n in &[100usize, 400] {
        let corpus = crate::paper_news_corpus(n);
        let docs = strudel::wrappers::html::HtmlDoc::from_pairs(&corpus);
        let mut g = strudel::wrappers::html::wrap_documents(&docs, "Articles").unwrap();
        // Related links point to earlier articles, so the last article
        // reaches a large backward cone.
        let root = g.node_by_name(&format!("article{}.html", n - 1)).unwrap();
        g.collect_str("Root", root);
        let db = Database::from_graph(g, IndexLevel::Full);
        let program = strudel::struql::parse(
            r#"
            where Root(p), p -> * -> q, q -> l -> r, not(isImageFile(r))
            create New(p), New(q), New(r)
            link New(q) -> l -> New(r)
            collect TextOnlyRoot(New(p))
        "#,
        )
        .unwrap();
        let (r, t) = time(|| Evaluator::new(&db).eval(&program).unwrap());
        println!("  {n} articles: copied {} nodes in {}", r.new_nodes.len(), ms(t));
        copied.push(r.new_nodes.len());
    }
    assert!(
        copied[0] < copied[1],
        "E-struql-scale shape check: the copy grows with the reachable cone, got {copied:?}"
    );
    println!();
}

/// E-htmlgen — HTML generation throughput, and a one-article delta
/// re-rendered through the serving path.
pub fn exp_htmlgen() {
    println!("== E-htmlgen: HTML generation (paper §2.4) ==");
    for &n in &[100usize, 300, 1000] {
        let site = crate::paper_news_site(n);
        let (out, t) = time(|| site.render().unwrap());
        let pages_per_sec = out.pages.len() as f64 / t.as_secs_f64();
        println!(
            "{:>5} articles: {:>5} pages, {:>8} bytes in {:>10} ({:.0} pages/s)",
            n,
            out.pages.len(),
            out.total_bytes(),
            ms(t),
            pages_per_sec
        );
        assert!(
            out.pages.len() > n,
            "E-htmlgen shape check: every one of {n} articles gets a page"
        );
    }

    // Incremental re-render through the serving path ("update a site
    // incrementally when changes occur in the underlying data", §1): warm a
    // service, add a paragraph to one article, and re-crawl every URL. The
    // HTML cache evicts the renditions the delta dirtied and their
    // dependents; the re-crawl renders those again and serves the rest
    // from cache.
    let site = crate::paper_news_site(1000);
    let service = SiteService::new(&site, Mode::Context);
    service.warm(Parallelism::Sequential).unwrap();
    let urls = site_urls(|u| service.handle(u));
    let before: Vec<String> = urls.iter().map(|u| service.handle(u).body).collect();
    let article = site
        .database
        .graph()
        .node_by_name("article500.html")
        .unwrap();
    let mut delta = GraphDelta::new();
    delta.add_edge(article, "paragraph", Value::string("correction appended"));
    let outcome = service.apply_delta(&delta).unwrap();
    let (after, t_recrawl) = time(|| {
        urls.iter()
            .map(|u| service.handle(u).body)
            .collect::<Vec<_>>()
    });
    let changed = before.iter().zip(&after).filter(|(b, a)| b != a).count();

    // A fresh service over the post-delta data is the reference.
    let mut graph = site.database.graph().clone();
    delta.apply(&mut graph).unwrap();
    let fresh = SiteService::from_parts(
        std::sync::Arc::new(Database::from_graph(graph, IndexLevel::Full)),
        &site.program,
        site.templates.clone(),
        &site.root_collection,
        Mode::Context,
    );
    let (_, t_fresh) = time(|| fresh.warm(Parallelism::Sequential).unwrap());
    assert_eq!(
        site_urls(|u| fresh.handle(u)),
        urls,
        "the delta changed the set of pages"
    );
    for (url, body) in urls.iter().zip(&after) {
        assert_eq!(
            *body,
            fresh.handle(url).body,
            "{url} diverged from a fresh service"
        );
    }
    println!(
        "add a paragraph to 1 of 1000 articles: {} renditions evicted, {} of {} pages changed; \
         re-crawl in {} (fresh service warm: {}); every page equals a fresh service's",
        outcome.html_evicted,
        changed,
        urls.len(),
        ms(t_recrawl),
        ms(t_fresh)
    );
    assert!(
        changed == 1 && (changed..=urls.len() / 100).contains(&outcome.html_evicted),
        "E-htmlgen shape check: one page changes and at most 1% of renditions are evicted"
    );
    println!();
}

/// E-mediate — GAV warehousing of the five AT&T-style sources, and
/// refresh after one source changes.
pub fn exp_mediate() {
    println!("== E-mediate: warehousing mediator (paper §2.1) ==");
    let data = org::generate(&org::OrgConfig::default());
    let mut mediator = Mediator::new();
    mediator.add_source(Source::new(
        "people",
        SourceFormat::Relational(strudel::wrappers::relational::TableOptions::new("People")),
        &data.people_csv,
    ));
    mediator.add_source(Source::new(
        "departments",
        SourceFormat::Relational(strudel::wrappers::relational::TableOptions::new(
            "Departments",
        )),
        &data.departments_csv,
    ));
    mediator.add_source(Source::new(
        "projects",
        SourceFormat::Structured(strudel::wrappers::structured::RecordOptions::new("Projects")),
        &data.projects_rec,
    ));
    mediator.add_source(Source::new(
        "demos",
        SourceFormat::Structured(strudel::wrappers::structured::RecordOptions::new("Demos")),
        &data.demos_rec,
    ));
    let docs = strudel::wrappers::html::HtmlDoc::from_pairs(&data .legacy_html);
    mediator.add_source(Source::html("legacy", "LegacyDocs", docs));

    let (w1, t_initial) = time(|| mediator.build().unwrap());
    println!(
        "initial warehouse: {} sources, {} nodes, {} edges in {}",
        w1.reports.len(),
        w1.graph.node_count(),
        w1.graph.edge_count(),
        ms(t_initial)
    );
    let (w2, t_noop) = time(|| mediator.build().unwrap());
    let all_hits = w2.reports.iter().all(|r| !r.rewrapped);
    println!("no-op rebuild (all cache hits): {all_hits} in {}", ms(t_noop));
    assert!(
        all_hits && graphs_equivalent(&w1.graph, &w2.graph),
        "E-mediate shape check: a no-op rebuild re-wraps nothing and yields the same warehouse"
    );
    let mut demos2 = data.demos_rec.clone();
    demos2.push_str("id: demoX\nname: Fresh Demo\nurl: http://demos.example.com/x\n");
    mediator.set_content("demos", &demos2);
    let (w3, t_refresh) = time(|| mediator.build().unwrap());
    let rewrapped: Vec<&str> = w3
        .reports
        .iter()
        .filter(|r| r.rewrapped)
        .map(|r| r.name.as_str())
        .collect();
    println!(
        "refresh after editing one source: re-wrapped {rewrapped:?} in {}\n",
        ms(t_refresh)
    );
    assert_eq!(
        (w1.reports.len(), rewrapped),
        (5, vec!["demos"]),
        "E-mediate shape check: five sources, and editing one re-wraps exactly that one"
    );
}

/// E-batch — batched path evaluation: the Kleene-star reachability query
/// of the news corpus with a bound destination, the engine against a
/// per-row strategy, and the compiled click-time query cache on the same
/// site. The per-row strategy is built here from public API — the engine
/// has one way to run a where clause: one forward closure per article,
/// keeping the articles whose closure reaches the target.
pub fn exp_batch() {
    println!("== E-batch: batched path evaluation (reverse adjacency + memoization) ==");
    let n = 1000usize;
    let corpus = crate::paper_news_corpus(n);

    // Part 1 — "which articles reach the oldest one?": a Kleene-star
    // reachability query whose *destination* is bound. Related links all
    // point backwards, so nearly the whole corpus qualifies. The per-row
    // strategy pays a forward traversal per candidate source; the engine
    // answers from one reverse-adjacency walk plus set lookups.
    let docs = strudel::wrappers::html::HtmlDoc::from_pairs(&corpus);
    let g = strudel::wrappers::html::wrap_documents(&docs, "Articles").unwrap();
    let target = g.node_by_name("article0.html").unwrap();
    let db = Database::from_graph(g, IndexLevel::Full);
    let program =
        strudel::struql::parse(r#"where Articles(a), a -> * -> t create R(a)"#).unwrap();
    let conds = &program.blocks[0].where_;
    let seed = vec![("t".to_string(), Value::Node(target))];

    let Condition::Path {
        path: PathSpec::Regex(regex),
        ..
    } = &conds[1]
    else {
        unreachable!("the second condition is the path")
    };
    // Untimed: the database's lazily built statistics and indexes are
    // paid for here, by neither arm.
    Evaluator::new(&db).eval_where_bindings(conds, &seed).unwrap();
    let (per_row, t_per_row) = time(|| {
        let graph = db.graph();
        let nfa = Nfa::compile(regex, graph);
        let t = Value::Node(target);
        graph
            .members_str("Articles")
            .iter()
            .filter(|a| nfa.eval_from(graph, a).contains(&t))
            .cloned()
            .collect::<HashSet<Value>>()
    });
    let ((vars, rows), t_engine) =
        time(|| Evaluator::new(&db).eval_where_bindings(conds, &seed).unwrap());
    let a = vars.iter().position(|v| v == "a").unwrap();
    let engine: HashSet<Value> = rows.iter().map(|r| r[a].clone().unwrap()).collect();
    assert!(
        engine == per_row && engine.len() == rows.len(),
        "E-batch shape check: the engine yields the per-row strategy's rows, each once"
    );
    let speedup = t_per_row.as_secs_f64() / t_engine.as_secs_f64().max(1e-9);
    println!(
        "Kleene-star reachability, {n} articles, bound destination: \
         per-row strategy {} vs engine {} ({speedup:.1}x), {} rows",
        ms(t_per_row),
        ms(t_engine),
        rows.len()
    );

    // Part 2 — the compiled click-time query cache: first-visit (page
    // cache miss) latency across every article page, plans prepared once
    // per epoch.
    let site = sites::news_site(&corpus).build().unwrap();
    let dynsite = DynamicSite::new(site.database.clone(), &site.program, Mode::Context);
    let roots = dynsite.roots("FrontRoot").unwrap();
    let front = dynsite.visit(&roots[0]).unwrap();
    let pages: Vec<PageKey> = front
        .edges
        .iter()
        .filter_map(|(_, t)| match t {
            DynTarget::Page(k) => Some(k.clone()),
            _ => None,
        })
        .collect();
    let ((), t) = time(|| {
        for k in &pages {
            dynsite.visit(k).unwrap();
        }
    });
    let m = dynsite.metrics();
    let us = t.as_secs_f64() * 1e6 / pages.len().max(1) as f64;
    println!(
        "first visits: {} pages in {} ({us:.1} us/click), plan cache {} hits / {} misses",
        pages.len(),
        ms(t),
        m.plan_cache_hits,
        m.plan_cache_misses
    );
    println!();
}

/// Runs every experiment in order.
pub fn run_all() {
    exp_site_stats();
    exp_suitability();
    exp_multiversion();
    exp_site_schema();
    exp_verify();
    exp_dynamic();
    exp_diff();
    exp_incremental();
    exp_indexing();
    exp_struql_scale();
    exp_batch();
    exp_htmlgen();
    exp_mediate();
}
