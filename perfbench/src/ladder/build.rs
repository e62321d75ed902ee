//! Build-path rungs: each wrapper on its own source format, then the
//! news site's pipeline stage by stage — mediator, `Database`, STRUQL
//! parse and evaluation, schema extraction, template compilation, HTML
//! generation — beside `SiteBuilder::build` + `Site::render` as a whole.
//! The stages summed against the whole is `budget.build.residual_ratio`.

use super::Measures;
use crate::inputs::BuildSources;
use crate::run::{Cfg, TempDir};
use crate::sitedir::NEWS_PAGE_TEMPLATES;
use crate::spans::Recorder;
use crate::workloads::site_build;
use std::hint::black_box;
use strudel::sites::{self, NEWS_QUERY};
use strudel_mediator::{Mediator, Source};
use strudel_repo::{Database, IndexLevel, PagedRepo, PagerConfig};
use strudel_schema::SiteSchema;
use strudel_struql::Evaluator;
use strudel_template::parse_template;
use strudel_wrappers::html::HtmlDoc;
use strudel_wrappers::relational::TableOptions;
use strudel_wrappers::structured::RecordOptions;
use strudel_wrappers::{bibtex, html, relational, structured};

/// Passes over the staged pipeline (medians are reported).
const PASSES: usize = 3;

/// Runs the build rungs at `site-build`'s input sizes.
pub fn probe(cfg: &Cfg, rec: &mut Recorder, m: &mut Measures) -> Result<(), String> {
    let src = BuildSources::generate(site_build::scale(cfg));
    let docs = HtmlDoc::from_pairs(&src.news);
    let fail = |what: &str, e: &dyn std::fmt::Display| format!("build ladder, {what}: {e}");

    for _ in 0..PASSES {
        // Wrappers, one per source format.
        rec.time("wrappers.bibtex.parse", |_| bibtex::wrap(&src.bib))
            .map_err(|e| fail("bibtex", &e))?;
        rec.time("wrappers.relational.parse", |_| {
            relational::wrap(&src.org.people_csv, &TableOptions::new("People"))?;
            relational::wrap(&src.org.departments_csv, &TableOptions::new("Departments"))
        })
        .map_err(|e| fail("relational", &e))?;
        rec.time("wrappers.structured.parse", |_| {
            structured::wrap(&src.org.projects_rec, &RecordOptions::new("Projects"))?;
            structured::wrap(&src.org.demos_rec, &RecordOptions::new("Demos"))
        })
        .map_err(|e| fail("structured", &e))?;
        rec.time("wrappers.html.parse", |_| {
            html::wrap_documents(&docs, "Articles")
        })
        .map_err(|e| fail("html", &e))?;

        // The news site, stage by stage …
        let stages = rec.enter("budget.build.stages");
        let warehouse = rec
            .time("mediator.warehouse.build", |_| {
                let mut mediator = Mediator::new();
                mediator.add_source(Source::html("articles", "Articles", docs.clone()));
                mediator.build()
            })
            .map_err(|e| fail("mediator", &e))?;
        let db = rec.time("repo.database.from_graph", |_| {
            Database::from_graph(warehouse.graph, IndexLevel::Full)
        });
        let program = rec
            .time("struql.parser.parse", |_| strudel_struql::parse(NEWS_QUERY))
            .map_err(|e| fail("struql parse", &e))?;
        let result = rec
            .time("struql.eval.eval", |_| Evaluator::new(&db).eval(&program))
            .map_err(|e| fail("struql eval", &e))?;
        m.set("struql.eval.rows", result.rows_evaluated as f64);
        rec.time("schema.site_schema.extract", |_| {
            black_box(SiteSchema::extract(&program))
        });
        rec.time("template.parser.compile", |_| {
            for (_, text) in NEWS_PAGE_TEMPLATES {
                black_box(parse_template(text).expect("news templates parse"));
            }
        });
        rec.exit(stages);

        // … and as the builder runs it.
        let whole = rec.enter("budget.build.whole");
        let site = rec
            .time("core.builder.build", |_| {
                sites::news_site(&src.news).build()
            })
            .map_err(|e| fail("builder", &e))?;
        let out = rec
            .time("template.generate.render", |_| site.render())
            .map_err(|e| fail("render", &e))?;
        rec.exit(whole);
        m.set("template.generate.bytes", out.total_bytes() as f64);
        let render_ns = *rec
            .durations_ns("template.generate.render")
            .last()
            .expect("render span");
        m.set(
            "template.generate.us_per_page",
            render_ns as f64 / 1e3 / out.pages.len().max(1) as f64,
        );

        // Loading the built data graph into a fresh paged store.
        let dir = TempDir::new("bulk-load").map_err(|e| e.to_string())?;
        rec.time("repo.pager.bulk_load", |_| {
            PagedRepo::bulk_load(dir.path(), PagerConfig::default(), site.database.graph())
        })
        .map_err(|e| fail("bulk load", &e))?;
    }

    for (name, span, per) in [
        ("wrappers.bibtex.parse_ms", "wrappers.bibtex.parse", 1e6),
        (
            "wrappers.relational.parse_ms",
            "wrappers.relational.parse",
            1e6,
        ),
        (
            "wrappers.structured.parse_ms",
            "wrappers.structured.parse",
            1e6,
        ),
        ("wrappers.html.parse_ms", "wrappers.html.parse", 1e6),
        (
            "mediator.warehouse.build_ms",
            "mediator.warehouse.build",
            1e6,
        ),
        (
            "repo.database.from_graph_ms",
            "repo.database.from_graph",
            1e6,
        ),
        ("struql.parser.parse_us", "struql.parser.parse", 1e3),
        ("struql.eval.eval_ms", "struql.eval.eval", 1e6),
        (
            "schema.site_schema.extract_us",
            "schema.site_schema.extract",
            1e3,
        ),
        ("template.parser.compile_us", "template.parser.compile", 1e3),
        (
            "template.generate.render_ms",
            "template.generate.render",
            1e6,
        ),
        ("core.builder.build_ms", "core.builder.build", 1e6),
        ("repo.pager.bulk_load_ms", "repo.pager.bulk_load", 1e6),
    ] {
        m.set_from_spans(name, rec, span, per);
    }
    // Stages (whose last, rendering, is shared with the whole) against
    // the builder's own run of them.
    let median_ms = |rec: &Recorder, span: &str| {
        let mut ns = rec.durations_ns(span);
        ns.sort_unstable();
        crate::stats::median(&ns) / 1e6
    };
    let render = m.get("template.generate.render_ms");
    let stages = median_ms(rec, "budget.build.stages") + render;
    let whole = median_ms(rec, "budget.build.whole");
    m.set(
        "budget.build.residual_ratio",
        (stages - whole).abs() / whole.max(1e-9),
    );
    Ok(())
}
