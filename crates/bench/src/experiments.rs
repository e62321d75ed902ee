//! The experiment suite: one function per table/figure of the paper.
//!
//! Every function prints a self-contained table to stdout. Shapes to look
//! for (absolute numbers depend on the machine; see EXPERIMENTS.md):
//!
//! * T1 — declarative specs stay small at paper scale; second versions
//!   cost ~0 query lines.
//! * F8 — the procedural/declarative spec-size and change-cost gap grows
//!   with structural complexity, not with data size.
//! * E-dynamic — context seeding beats naive re-evaluation per click, and
//!   look-ahead converts link follows into cache hits.
//! * E-incremental — small deltas are far cheaper than re-evaluation.
//! * E-index — the full-indexing win grows with data size.

use crate::json;
use std::time::{Duration, Instant};
use strudel::repo::{Database, IndexLevel};
use strudel::schema::constraint::{parse_constraint, runtime, verify};
use strudel::schema::dynamic::{DynTarget, DynamicSite, Mode, PageKey};
use strudel::schema::incremental::{equivalent_modulo_orphans, MaintainedSite};
use strudel::schema::SiteSchema;
use strudel::sites;
use strudel::struql::{EvalOptions, Evaluator};
use strudel::template::{HtmlGenerator, TemplateSet};
use strudel::SiteStats;
use strudel_graph::{graphs_equivalent, GraphDelta, Oid, Value};
use strudel_mediator::{Mediator, Source, SourceFormat};
use strudel_procgen::{news as proc_news, sweep};
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
    println!("{}", homepage.stats_with_render().unwrap().row());

    let org_site = crate::paper_org_site(400);
    let mut org_stats = org_site.stats_with_render().unwrap();
    println!("{}", org_stats.row());

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
    println!("{}", news_site.stats_with_render().unwrap().row());

    let sports = sites::sports_only_site(&corpus).build().unwrap();
    let mut sports_stats = sports.stats_with_render().unwrap();
    sports_stats.name = "news-sports".into();
    println!("{}", sports_stats.row());

    let bilingual = sites::bilingual_site(BILINGUAL_ITEMS).build().unwrap();
    println!("{}", bilingual.stats_with_render().unwrap().row());
    println!();
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
    for &k in &[2usize, 8, 24] {
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

            let s_spec = sweep::strudel_spec_lines(k);
            let p_spec = sweep::procedural_spec_lines(k);
            println!(
                "{:>8} {:>7} | {:>10} {:>10} {:>12} | {:>11} {:>10} {:>12} | {}",
                n,
                k,
                s_spec,
                p_spec,
                ms(strudel_gen + strudel_render),
                sweep::strudel_change_lines(k),
                sweep::procedural_change_lines(k),
                ms(proc_gen),
                if s_spec < p_spec { "strudel" } else { "procedural" }
            );
        }
    }
    println!("\nsecond-site cost (CNN sports-only): strudel = 2 extra predicates in one clause;");
    println!(
        "procedural = {} duplicated generator lines (measured from the baseline's source)\n",
        proc_news::sports_variant_changed_lines()
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
}

/// E-verify — static verification vs runtime checking.
pub fn exp_verify() {
    println!("== E-verify: integrity-constraint verification (paper §2.5) ==");
    let site = crate::paper_homepage_site(40);
    let constraints = [
        (
            "reachability (satisfied by construction)",
            "forall p in PaperPages : exists a in AbstractPages : a -> \"Paper\" -> p",
        ),
        (
            "root reaches every paper (satisfied)",
            "forall p in PaperPages : exists r in HomeRoot : r -> * -> p",
        ),
        (
            "every paper page from a year page (data-dependent)",
            "forall p in PaperPages : exists y in YearPages : y -> \"Paper\" -> p",
        ),
        (
            "every paper has an editor (violated)",
            "forall p in PaperPages : p -> \"editor\" -> e",
        ),
    ];
    println!(
        "{:<50} {:>9} {:>12} {:>11} {:>12}",
        "constraint", "static", "static-time", "runtime", "runtime-time"
    );
    for (label, src) in constraints {
        let c = parse_constraint(src).unwrap();
        let (verdict, t_static) = time(|| verify::verify(&site.schema, &c));
        let (check, t_runtime) = time(|| runtime::check(&site.result.graph, &c));
        println!(
            "{:<50} {:>9} {:>12} {:>11} {:>12}",
            label,
            format!("{verdict:?}"),
            ms(t_static),
            if check.holds { "holds" } else { "violated" },
            ms(t_runtime)
        );
    }
    println!();
}

/// E-dynamic — click-time evaluation: naive vs context vs look-ahead.
pub fn exp_dynamic() {
    println!("== E-dynamic: click-time evaluation (paper §2.5/§7) ==");
    println!(
        "{:>9} {:>18} {:>12} {:>12} {:>10} {:>12}",
        "articles", "mode", "clicks", "rows", "cache-hits", "time"
    );
    for &n in &[100usize, 1000, 3000] {
        let corpus = crate::paper_news_corpus(n);
        let site = sites::news_site(&corpus).build().unwrap();
        let program = site.program.clone();
        let db = site.database.clone();
        for mode in [Mode::Naive, Mode::Context, Mode::ContextLookahead] {
            let dynsite = DynamicSite::new(db.clone(), &program, mode);
            let ((), t) = time(|| browse(&dynsite, 25));
            let m = dynsite.metrics();
            println!(
                "{:>9} {:>18} {:>12} {:>12} {:>10} {:>12}",
                n,
                format!("{mode:?}"),
                m.clicks,
                m.rows_produced,
                m.cache_hits,
                ms(t)
            );
            let case = format!("{mode:?}-{n}").to_lowercase();
            json::record("serve", "E-dynamic", &case, "browse_ms", t.as_secs_f64() * 1e3, "ms");
            json::record("serve", "E-dynamic", &case, "rows", m.rows_produced as f64, "rows");
            json::record(
                "serve",
                "E-dynamic",
                &case,
                "cache_hits",
                m.cache_hits as f64,
                "hits",
            );
        }
    }
    println!();
}

/// A deterministic browse trail: front page, then repeatedly follow the
/// first unvisited page link (falling back to the front page).
fn browse(site: &DynamicSite, clicks: usize) {
    let roots = site.roots("FrontRoot").unwrap();
    let mut current: PageKey = roots[0].clone();
    let mut trail = vec![current.clone()];
    for _ in 0..clicks {
        let view = site.visit(&current).unwrap();
        let next = view.edges.iter().find_map(|(_, t)| match t {
            DynTarget::Page(k) if !trail.contains(k) => Some(k.clone()),
            _ => None,
        });
        current = match next {
            Some(k) => k,
            None => roots[0].clone(),
        };
        trail.push(current.clone());
    }
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

    /// Pre-warms every page so deltas hit a fully materialized cache.
    fn prewarm(site: &DynamicSite) -> usize {
        let root = site.roots("Roots").unwrap().remove(0);
        let view = site.visit(&root).unwrap();
        let mut pages = 1;
        for (_, t) in &view.edges {
            if let DynTarget::Page(k) = t {
                site.visit(k).unwrap();
                pages += 1;
            }
        }
        pages
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
        // Warmup (untimed): the first delta pays the one-time standby
        // twin construction.
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
        let pages = prewarm(&diff_site);

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
            let sort = |mut v: Vec<(String, DynTarget)>| {
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
            let case = format!("n{n}-d{ops}");
            json::record("diff", "E-diff", &case, "diff_us", d, "us");
            json::record("diff", "E-diff", &case, "scratch_us", s, "us");
            json::record("diff", "E-diff", &case, "speedup", s / d, "x");
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
        "{:>9} | {:>10} {:>10} {:>10} {:>10} {:>10} | updated/fallbacks/rebuilds",
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
        // A database of the engine's own: a snapshot someone else still
        // holds cannot become the standby twin.
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
            if let (true, DynTarget::Page(k)) = (label == "Section", target) {
                site.visit(k).unwrap();
                warm.push(k.clone());
            }
        }

        // Untimed: the first delta builds the standby twin.
        let mut first = GraphDelta::new();
        first.add_edge(articles[0].0, "note", Value::string("warm"));
        site.apply_delta(&first).unwrap();

        // Each kind runs its rounds back to back, as the arms above do:
        // a delta also replays its predecessor onto the standby twin, so
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
        assert_eq!(m.standby_rebuilds, 1, "only the first delta builds a twin: {m:?}");
        // Correctness: the patched hub pages hold exactly the rows a cold
        // engine derives on the final database.
        let fresh = DynamicSite::new(site.database(), &program, Mode::Context);
        let sort = |v: &[(String, DynTarget)]| {
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
            m.standby_rebuilds
        );
        for (kind, us) in KINDS.iter().zip(&medians) {
            json::record("diff", "E-diff", &format!("hub-n{n}-{kind}"), "diff_us", *us, "us");
        }
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

/// E-incremental — incremental maintenance vs full re-evaluation. The
/// one-time count build of a maintained site is its own column; every
/// arm asserts equivalence with the fresh evaluation.
pub fn exp_incremental() {
    println!("== E-incremental: site-graph maintenance (paper §7, built as extension) ==");
    println!(
        "{:>8} {:>9} | {:>12} {:>12} {:>12} {:>10} | orphans",
        "people", "delta", "count-build", "incremental", "full-reeval", "rows"
    );
    for &people in &[400usize, 1000] {
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
            let graph = site.database.graph();
            let mut delta = GraphDelta::new();
            let name = match arm {
                Some(count) => {
                    let base = graph.node_count();
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
                    let victim = graph
                        .node_by_name(&format!("People_{}", data.people_ids[0]))
                        .unwrap();
                    delta.uncollect("People", Value::Node(victim));
                    "-1p".to_owned()
                }
            };

            let (mut maintained, t_count) = time(|| {
                MaintainedSite::new(&site.program, site.database.clone(), site.result).unwrap()
            });
            let (rows, t_inc) = time(|| maintained.apply(&delta).unwrap());
            let (full, t_full) = time(|| {
                let mut g = site.database.graph().clone();
                delta.apply(&mut g).unwrap();
                let db = Database::from_graph(g, IndexLevel::Full);
                Evaluator::new(&db).eval(&site.program).unwrap()
            });

            // A retraction leaves the removed person's page objects
            // lingering unreferenced; an insertion leaves nothing behind.
            let inc = &maintained.result().graph;
            if arm.is_some() {
                assert!(graphs_equivalent(inc, &full.graph), "{people} {name}");
            } else {
                assert!(equivalent_modulo_orphans(inc, &full.graph), "{people} {name}");
            }
            println!(
                "{:>8} {:>9} | {:>12} {:>12} {:>12} {:>10} | {}",
                people,
                name,
                ms(t_count),
                ms(t_inc),
                ms(t_full),
                rows,
                inc.node_count() - full.graph.node_count()
            );
        }
    }
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
            for level in [IndexLevel::None, IndexLevel::ExtensionOnly, IndexLevel::Full] {
                let db = Database::from_graph(g.clone(), level);
                // Warm the stats cache so we time the query, not stats.
                let _ = db.stats();
                // A fresh Database holds no index: the first evaluation
                // builds every family it probes. Run it apart so the query
                // columns compare probes, and report what it paid on top.
                let (_r, t_first) = time(|| Evaluator::new(&db).eval(&program).unwrap());
                let (_r, t) = time(|| Evaluator::new(&db).eval(&program).unwrap());
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
            Evaluator::with_options(&db, EvalOptions { optimize: false, ..Default::default() })
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
    }

    // Kleene-star reachability (the TextOnly copy query of §2.2).
    println!("\nKleene-star TextOnly copy query (reachability):");
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
    }
    println!();
}

/// E-htmlgen — HTML generation throughput and incremental regeneration.
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
    }

    // Incremental regeneration: edit one article, re-render only the pages
    // that read it ("update a site incrementally when changes occur in the
    // underlying data", §1).
    let site = crate::paper_news_site(1000);
    let previous = site.render().unwrap();
    let mut graph = site.result.graph.clone();
    let article = graph.node_by_name("article500.html").unwrap();
    let changed_page = site
        .result
        .skolem_node("ArticlePage", &[Value::Node(article)])
        .unwrap();
    graph.add_edge_str(changed_page, "paragraph", Value::string("correction appended"));
    let generator = HtmlGenerator::new(&graph, &site.templates);
    let (regen, t_regen) = time(|| generator.regenerate(&previous, &[changed_page]).unwrap());
    let (full, t_full) = time(|| {
        let roots: Vec<Oid> = graph
            .members_str("FrontRoot")
            .iter()
            .filter_map(Value::as_node)
            .collect();
        generator.generate(&roots).unwrap()
    });
    let rerendered = regen
        .pages
        .iter()
        .filter(|p| {
            previous
                .page_for(p.oid)
                .map(|old| old.html != p.html)
                .unwrap_or(true)
        })
        .count();
    println!(
        "regenerate after editing 1 of 1000 articles: {} of {} pages re-rendered in {} (full re-render: {}, {} pages)",
        rerendered,
        regen.pages.len(),
        ms(t_regen),
        ms(t_full),
        full.pages.len()
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
    println!(
        "no-op rebuild (all cache hits): {} in {}",
        w2.reports.iter().all(|r| !r.rewrapped),
        ms(t_noop)
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
}

/// E-trace — observability overhead and span-derived accounting: the
/// same warm click workload with tracing disabled vs enabled, then the
/// request/engine numbers read back out of the recorded spans and
/// counters (this is where the EXPERIMENTS.md tracing row comes from).
pub fn exp_trace() {
    println!("== E-trace: tracing overhead & span-derived accounting ==");
    let corpus = crate::paper_news_corpus(300);
    let site = sites::news_site(&corpus).build().unwrap();

    // Every URL reachable from the front page; the measured workload
    // replays this list `PASSES` times against a warm service.
    let scout = SiteService::new(&site, Mode::Context);
    let mut urls = vec!["/".to_string()];
    let mut i = 0;
    while i < urls.len() {
        let body = scout.handle(&urls[i]).body;
        for part in body.split("href=\"").skip(1) {
            if let Some(end) = part.find('"') {
                let href = &part[..end];
                if href.starts_with("/page/") && !urls.iter().any(|u| u == href) {
                    urls.push(href.to_string());
                }
            }
        }
        i += 1;
    }
    drop(scout);

    const PASSES: usize = 20;
    let measure = |enabled: bool| {
        strudel_trace::set_enabled(enabled);
        let service = SiteService::new(&site, Mode::Context);
        for u in &urls {
            service.handle(u); // warm the caches outside the timed region
        }
        strudel_trace::global().reset();
        let ((), t) = time(|| {
            for _ in 0..PASSES {
                for u in &urls {
                    service.handle(u);
                }
            }
        });
        (t, strudel_trace::snapshot())
    };

    let (t_off, _) = measure(false);
    let (t_on, snap) = measure(true);
    strudel_trace::set_enabled(false);

    let requests = (PASSES * urls.len()) as u64;
    println!(
        "{:>9} {:>9} {:>10} {:>9}",
        "tracing", "requests", "time", "us/req"
    );
    for (label, t) in [("disabled", t_off), ("enabled", t_on)] {
        let us_per_req = t.as_secs_f64() * 1e6 / requests as f64;
        println!("{:>9} {:>9} {:>10} {:>9.2}", label, requests, ms(t), us_per_req);
        json::record(
            "serve",
            "E-trace",
            &format!("tracing-{label}"),
            "warm_request_latency",
            us_per_req,
            "us",
        );
    }

    // Cross-check: the span table must account for exactly the requests
    // the warm loop issued (all HTML-cache hits, so no engine work).
    match snap.spans.iter().find(|(n, _)| n == "serve.request") {
        Some((_, agg)) => println!(
            "span-derived (warm): serve.request count={} mean={}us (loop issued {requests})",
            agg.count,
            agg.mean_us()
        ),
        None => println!("span-derived (warm): serve.request span missing!"),
    }

    // A cold crawl with tracing on, to read the engine-side accounting
    // (warm requests never reach the engine — the HTML cache absorbs
    // them, which is itself visible here as zero guard evaluations).
    strudel_trace::set_enabled(true);
    let cold = SiteService::new(&site, Mode::Context);
    strudel_trace::global().reset();
    for u in &urls {
        cold.handle(u);
    }
    let snap = strudel_trace::snapshot();
    strudel_trace::set_enabled(false);
    let counter = |name: &str| {
        snap.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    };
    // Span aggregates are keyed by hierarchical path ("a/b/c"), so sum
    // every path that ends in the leaf we care about.
    let span_of = |leaf: &str| {
        snap.spans
            .iter()
            .filter(|(n, _)| n == leaf || n.ends_with(&format!("/{leaf}")))
            .fold((0u64, 0u64), |(c, t), (_, agg)| {
                (c + agg.count, t + agg.total_us)
            })
    };
    let (computes, compute_us) = span_of("engine.compute");
    println!(
        "span-derived (cold crawl, {} pages): engine.compute count={computes} total={compute_us}us; \
         page-view cache hits={} misses={}; guard evals={}",
        urls.len(),
        counter("engine.cache.hits"),
        counter("engine.cache.misses"),
        counter("engine.guard.evals")
    );
    println!();
}

/// E-batch — batched path evaluation: the Kleene-star reachability query
/// of the news corpus with a bound destination, per-row vs batched, and
/// the compiled click-time query cache on the same site.
pub fn exp_batch() {
    println!("== E-batch: batched path evaluation (reverse adjacency + memoization) ==");
    let n = 1000usize;
    let corpus = crate::paper_news_corpus(n);

    // Part 1 — "which articles reach the oldest one?": a Kleene-star
    // reachability query whose *destination* is bound. Related links all
    // point backwards, so nearly the whole corpus qualifies. The per-row
    // engine pays a forward traversal per candidate source; the batched
    // engine answers from one reverse-adjacency walk plus set lookups.
    let docs = strudel::wrappers::html::HtmlDoc::from_pairs(&corpus);
    let g = strudel::wrappers::html::wrap_documents(&docs, "Articles").unwrap();
    let target = g.node_by_name("article0.html").unwrap();
    let db = Database::from_graph(g, IndexLevel::Full);
    let program =
        strudel::struql::parse(r#"where Articles(a), a -> * -> t create R(a)"#).unwrap();
    let conds = &program.blocks[0].where_;
    let seed = vec![("t".to_string(), Value::Node(target))];

    let run = |batch: bool| {
        let ev = Evaluator::with_options(
            &db,
            EvalOptions {
                batch,
                ..Default::default()
            },
        );
        time(|| ev.eval_where_bindings(conds, &seed).unwrap())
    };
    let ((_, rows_old), t_old) = run(false);
    let ((_, rows_new), t_new) = run(true);
    assert_eq!(rows_old, rows_new, "batched relation must be byte-identical");
    let speedup = t_old.as_secs_f64() / t_new.as_secs_f64().max(1e-9);
    println!(
        "Kleene-star reachability, {n} articles, bound destination: \
         per-row {} vs batched {} ({speedup:.1}x), {} rows",
        ms(t_old),
        ms(t_new),
        rows_new.len()
    );
    let case = format!("kleene-reach-{n}");
    json::record("struql", "E-batch", &case, "per_row_ms", t_old.as_secs_f64() * 1e3, "ms");
    json::record("struql", "E-batch", &case, "batched_ms", t_new.as_secs_f64() * 1e3, "ms");
    json::record("struql", "E-batch", &case, "speedup", speedup, "x");
    json::record("struql", "E-batch", &case, "rows", rows_new.len() as f64, "rows");

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
    let case = format!("first-visit-{n}");
    json::record("serve", "E-batch", &case, "click_latency", us, "us");
    json::record("serve", "E-batch", &case, "plan_cache_hits", m.plan_cache_hits as f64, "hits");
    json::record(
        "serve",
        "E-batch",
        &case,
        "plan_cache_misses",
        m.plan_cache_misses as f64,
        "misses",
    );
    println!();
}

/// E-crash — recovery cost and crash-point coverage of the durable
/// store. Measures the four open paths a deployment actually hits (clean
/// checkpoint, replay-heavy WAL, torn-tail repair, checkpoint itself),
/// each as `PagedRepo::open` plus the `materialize` that hands the
/// service its in-memory graph, then sweeps a seeded workload crashing
/// at every injected storage fault point and verifies each reopen
/// against a fault-free in-memory oracle.
pub fn exp_crash() {
    use strudel::repo::vfs::{FaultMode, FaultVfs};
    use strudel::repo::{PagedRepo, PagerConfig};
    use strudel_prng::{Rng, SeedableRng, SmallRng};

    println!("== E-crash: recovery cost & crash-point coverage (durable store) ==");
    let dir = std::env::temp_dir().join(format!("strudel-bench-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = PagerConfig::default();

    // Delta i adds node i (graphs here grow one node per delta) plus one
    // attribute edge on it — enough to exercise both WAL record kinds.
    let delta_for = |i: usize| {
        let mut d = GraphDelta::new();
        d.add_node(Some(&format!("n{i}")));
        d.add_edge(Oid::from_index(i), "seq", Value::from(i as i64));
        d
    };

    const DELTAS: usize = 2000;
    {
        let repo = PagedRepo::open(&dir, cfg).unwrap();
        for i in 0..DELTAS {
            repo.apply_delta(&delta_for(i)).unwrap();
        }
    }

    println!(
        "{:>10} {:>16} {:>10} {:>12}",
        "wal frames", "open path", "open", "materialize"
    );
    let open_row = |label: &str, frames: usize, nodes: usize| {
        let (repo, t_open) = time(|| PagedRepo::open(&dir, cfg).unwrap());
        let (graph, t_mat) = time(|| repo.materialize().unwrap());
        assert_eq!(graph.node_count(), nodes, "{label}: recovered node count");
        println!(
            "{:>10} {:>16} {:>10} {:>12}",
            frames,
            label,
            ms(t_open),
            ms(t_mat)
        );
        for (metric, t) in [("open_latency", t_open), ("materialize_latency", t_mat)] {
            json::record("crash", "E-crash", label, metric, t.as_secs_f64() * 1e3, "ms");
        }
        repo
    };

    // Replay-heavy: every delta still sits in the WAL.
    let repo = open_row("replay-open", DELTAS, DELTAS);
    let ((), t_ckpt) = time(|| repo.checkpoint().unwrap());
    drop(repo);
    println!("{:>10} {:>16} {:>10}", DELTAS, "checkpoint", ms(t_ckpt));
    json::record(
        "crash",
        "E-crash",
        "checkpoint",
        "latency",
        t_ckpt.as_secs_f64() * 1e3,
        "ms",
    );

    // Clean: the image only, empty WAL.
    drop(open_row("clean-open", 0, DELTAS));

    // Torn tail: a frame sheared mid-write must be repaired, not fatal.
    {
        let repo = PagedRepo::open(&dir, cfg).unwrap();
        repo.apply_delta(&delta_for(DELTAS)).unwrap();
        drop(repo);
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join("pager.wal"))
            .unwrap();
        f.write_all(&[0x40, 0, 0, 0, 0xde, 0xad]).unwrap(); // claims 64 bytes, has 0
    }
    drop(open_row("torn-tail-open", 1, DELTAS + 1));

    // Crash-point sweep: replay a seeded workload, crash at fault point k,
    // reopen cleanly, compare with the same workload run fault-free. Fault
    // points land in store creation, in WAL appends, and in every step of
    // a checkpoint's image replacement and WAL reset.
    let seed = 0x51EDu64;
    let sweep_dir = |tag: &str| {
        let d = std::env::temp_dir().join(format!(
            "strudel-bench-crash-sweep-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    };
    // Returns how many deltas were acknowledged before the crash.
    let run = |dir: &std::path::Path, vfs: std::sync::Arc<FaultVfs>| {
        let mut rng = SmallRng::seed_from_u64(seed);
        let Ok(repo) = PagedRepo::open_with(vfs, dir, cfg) else {
            return 0usize; // crashed during open
        };
        let mut ok = 0usize;
        for i in 0..40 {
            if repo.apply_delta(&delta_for(i)).is_err() {
                break; // crash point hit
            }
            ok += 1;
            if rng.gen_bool(0.15) && repo.checkpoint().is_err() {
                break;
            }
        }
        ok
    };

    let probe = std::sync::Arc::new(FaultVfs::new());
    let total_ops = {
        let d = sweep_dir("count");
        run(&d, probe.clone());
        let n = probe.op_count();
        let _ = std::fs::remove_dir_all(&d);
        n
    };

    let mut covered = 0u64;
    let mut worst_recovery = Duration::ZERO;
    for k in 0..total_ops {
        let d = sweep_dir("point");
        let vfs = std::sync::Arc::new(FaultVfs::new());
        vfs.arm_crash(k, FaultMode::Fail);
        let ok_ops = run(&d, vfs.clone());
        if !vfs.fired() {
            let _ = std::fs::remove_dir_all(&d);
            continue;
        }
        covered += 1;
        let (recovered, t) = time(|| {
            let repo = PagedRepo::open(&d, cfg).unwrap();
            repo.materialize().unwrap()
        });
        worst_recovery = worst_recovery.max(t);
        // Every acknowledged delta survives and nothing is half-applied:
        // the oracle is the acknowledged prefix replayed in memory. A
        // commit's one write is its WAL frame, so the delta in flight at
        // the crash never survives.
        let mut expect = Database::new(IndexLevel::None);
        for i in 0..ok_ops {
            expect.apply_delta(&delta_for(i)).unwrap();
        }
        assert!(
            graphs_equivalent(expect.graph(), &recovered),
            "crash at op {k}: recovered state is not the {ok_ops}-delta oracle"
        );
        let _ = std::fs::remove_dir_all(&d);
    }
    println!(
        "\ncrash sweep: {covered}/{total_ops} fault points crashed & recovered; \
         worst reopen {}",
        ms(worst_recovery)
    );
    json::record("crash", "E-crash", "sweep", "points_recovered", covered as f64, "count");
    json::record(
        "crash",
        "E-crash",
        "sweep",
        "worst_recovery",
        worst_recovery.as_secs_f64() * 1e3,
        "ms",
    );

    let _ = std::fs::remove_dir_all(&dir);
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
    exp_trace();
    exp_crash();
}
