//! The `strudel` command-line tool: build browsable web sites from a site
//! directory, the way a site builder would actually use the system.
//!
//! ## Site directory layout
//!
//! ```text
//! mysite/
//!   site.struql            the site-definition query (STRUQL)
//!   site.conf              assignments and options, line-based:
//!                            root <collection>
//!                            object <ObjectName> <template>
//!                            collection <CollectionName> <template>
//!                            default <template>
//!                            constraint <constraint text>
//!   templates/<name>.tmpl  HTML templates (name = file stem)
//!   sources/               data sources, dispatched by extension:
//!     *.bib                BibTeX        (collection: Publications)
//!     *.csv                relational    (table = file stem)
//!     *.rec                record files  (collection = file stem)
//!     *.ddl                Strudel DDL
//!     html/*.html          wrapped pages (collection: Pages)
//! ```
//!
//! ## Commands
//!
//! ```text
//! strudel build <dir> [-o <outdir>]   build, verify, render, write pages
//! strudel check <dir>                 parse + statically check everything
//! strudel schema <dir>                print the site schema (Graphviz dot)
//! strudel stats <dir>                 print the site-statistics row
//! strudel guide <dir>                 print discovered data-graph schemas
//!                                     (strong DataGuides per collection)
//! strudel serve <dir> [--addr A] [--workers N]
//!                     [--warm] [--slow-us T] [--backlog B] [--trace]
//!                     [--keepalive-secs S] [--max-connections N]
//!                     [--cluster N]
//!                     [--store DIR]
//!                                     serve the site at click time:
//!                                     pages computed on demand, cached,
//!                                     metrics on /metrics, trace snapshot
//!                                     on /debug/trace, plan explain on
//!                                     /debug/explain
//!                                     (--warm crawls the site from /
//!                                      and pre-renders every linked page
//!                                      before accepting requests;
//!                                      T: slow-request threshold in µs,
//!                                      0 disables;
//!                                      B: max requests queued for the
//!                                      render pool before new ones are
//!                                      shed with a 503;
//!                                      the front end is the event-driven
//!                                      epoll reactor (HTTP/1.1
//!                                      keep-alive; Linux only);
//!                                      --keepalive-secs is its
//!                                      idle-connection deadline;
//!                                      --max-connections caps its open
//!                                      sockets (503 beyond);
//!                                      --trace turns the strudel-trace
//!                                      recorder on at startup;
//!                                      --store attaches a durable store
//!                                      at DIR (a checkpointed graph
//!                                      image plus a write-ahead log of
//!                                      deltas) — bulk-loaded from the
//!                                      built site on first run, reopened
//!                                      after that, refused if DIR holds
//!                                      the retired page-file format;
//!                                      the store's recovered graph is
//!                                      what is served, and deltas
//!                                      commit to it write-through;
//!                                      --cluster N supervises N shard
//!                                      worker *processes* — crash-
//!                                      isolated, restarted with backoff,
//!                                      WAL-replay recovery from the
//!                                      shared --store, degraded last-
//!                                      known-good responses while a
//!                                      worker is down — requires --store)
//! ```
//!
//! There is also a hidden `shard-worker` verb — the body of one cluster
//! worker process. The supervisor spawns it; it is not part of the
//! user-facing surface:
//!
//! ```text
//! strudel shard-worker <dir> --shard I --of N --store DIR
//!                            --ready-file PATH
//! strudel explain <dir>               print, for every root page, each
//!                                     schema edge's chosen plan with the
//!                                     optimizer's cardinality estimates
//!                                     next to measured rows and timings
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use strudel::schema::dynamic::Mode;
use strudel::wrappers::html::HtmlDoc;
use strudel::wrappers::relational::TableOptions;
use strudel::wrappers::structured::RecordOptions;
use strudel::{SiteBuilder, Source, SourceFormat};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let usage =
        "usage: strudel <build|check|schema|stats|guide|serve|explain> <site-dir> \
         [-o <outdir>] [--addr <ip:port>] [--workers <n>] \
         [--warm] [--slow-us <t>] \
         [--backlog <n>] [--keepalive-secs <s>] [--max-connections <n>] [--trace] \
         [--store <dir>] [--cluster <n>]";
    let command = args.first().ok_or(usage)?;
    let dir = PathBuf::from(args.get(1).ok_or(usage)?);
    let outdir = match args.iter().position(|a| a == "-o") {
        Some(i) => PathBuf::from(args.get(i + 1).ok_or("-o needs a directory")?),
        None => dir.join("out"),
    };

    let site = load_site(&dir)?;
    match command.as_str() {
        "check" => {
            let built = site.build().map_err(|e| e.to_string())?;
            println!(
                "ok: {} sources, {} query lines, {} templates, {} site nodes",
                built.stats.sources,
                built.stats.query_lines,
                built.stats.templates,
                built.stats.site_nodes
            );
            report_verifications(&built);
            // Structural lint: site nodes a browser cannot reach from the
            // root pages (§6.2's connectedness constraint, as a warning).
            let roots = built.roots();
            let reachable =
                strudel::graph::traverse::reachable(&built.result.graph, &roots);
            let unreachable: Vec<_> = built
                .result
                .new_nodes
                .iter()
                .filter(|o| !reachable.contains(**o))
                .collect();
            if unreachable.is_empty() {
                println!("reachability: every site node is reachable from the roots");
            } else {
                println!(
                    "warning: {} site node(s) unreachable from the roots, e.g. {}",
                    unreachable.len(),
                    built
                        .result
                        .graph
                        .node_name(*unreachable[0])
                        .unwrap_or("<anonymous>")
                );
            }
            Ok(())
        }
        "schema" => {
            let built = site.build().map_err(|e| e.to_string())?;
            print!("{}", built.schema.to_dot());
            Ok(())
        }
        "stats" => {
            let built = site.build().map_err(|e| e.to_string())?;
            println!("{}", strudel::SiteStats::header());
            println!(
                "{}",
                built.stats_with_render().map_err(|e| e.to_string())?.row()
            );
            Ok(())
        }
        "guide" => {
            let built = site.build().map_err(|e| e.to_string())?;
            let data = built.database.graph();
            for (cid, name) in data.collections() {
                let roots: Vec<strudel::graph::Oid> = data
                    .members(cid)
                    .iter()
                    .filter_map(strudel::graph::Value::as_node)
                    .collect();
                if roots.is_empty() {
                    continue;
                }
                let guide = strudel::repo::DataGuide::build(data, &roots);
                println!("collection {name} ({} members):", roots.len());
                for fact in guide.attribute_report(data, &roots) {
                    let req = if fact.required() { "required" } else { "optional" };
                    let types: Vec<String> = fact
                        .value_types
                        .iter()
                        .map(|(t, c)| format!("{t}×{c}"))
                        .collect();
                    println!(
                        "  {:<14} {:>4}/{:<4} {req:<8} {}",
                        fact.name,
                        fact.carriers,
                        fact.total,
                        types.join(", ")
                    );
                }
            }
            Ok(())
        }
        "build" => {
            let built = site.build().map_err(|e| e.to_string())?;
            report_verifications(&built);
            let output = built.render().map_err(|e| e.to_string())?;
            let broken = output.broken_links();
            if broken.is_empty() {
                println!("links: all intra-site links resolve");
            } else {
                for (page, href) in &broken {
                    println!("warning: {page} links to missing {href}");
                }
            }
            output
                .write_to_dir(&outdir)
                .map_err(|e| format!("writing {}: {e}", outdir.display()))?;
            println!(
                "built '{}': {} pages ({} bytes) -> {}",
                built.name,
                output.pages.len(),
                output.total_bytes(),
                outdir.display()
            );
            Ok(())
        }
        "shard-worker" => {
            // Hidden: one supervised cluster worker (see the module docs).
            let built = site.build().map_err(|e| e.to_string())?;
            let flag = |name: &str| {
                args.iter()
                    .position(|a| a == name)
                    .and_then(|i| args.get(i + 1).cloned())
            };
            let need = |name: &str| flag(name).ok_or(format!("shard-worker needs {name}"));
            let shard: usize = need("--shard")?
                .parse()
                .map_err(|_| "--shard needs a number")?;
            let of: usize = need("--of")?.parse().map_err(|_| "--of needs a number")?;
            let opts = strudel_serve::cluster::WorkerOptions {
                shard,
                of,
                store_dir: PathBuf::from(need("--store")?),
                ready_file: PathBuf::from(need("--ready-file")?),
            };
            strudel_serve::cluster::run_worker(&built, opts)
        }
        "serve" => {
            if args.iter().any(|a| a == "--transport") {
                return Err("the --transport flag was removed: the front end is the \
                            epoll reactor"
                    .into());
            }
            if args.iter().any(|a| a == "--mode") {
                return Err("the --mode flag was removed: every page is evaluated seeded \
                            by its own arguments (context evaluation)"
                    .into());
            }
            if args.windows(2).any(|w| w[0] == "--warm" && !w[1].starts_with('-')) {
                return Err("the --warm worker count was removed: --warm is a switch, and the \
                            warm-up crawls the site from / on one thread"
                    .into());
            }
            if args.iter().any(|a| a == "--shards") {
                return Err("the --shards flag was removed: one process serves from one \
                            engine; for worker processes behind a router use --cluster N"
                    .into());
            }
            if let Some(flag) = args
                .iter()
                .find(|a| *a == "--pool-pages" || *a == "--page-size")
            {
                return Err(format!(
                    "the {flag} flag was removed: the store keeps its graph in memory \
                     over a checkpointed image and a WAL, with no pages or buffer pool to size"
                ));
            }
            let built = site.build().map_err(|e| e.to_string())?;
            report_verifications(&built);
            // Claim SIGTERM/SIGINT on the main thread before any server
            // thread exists, so the graceful-drain loop below is the only
            // place they land.
            let signals =
                strudel_epoll::SignalFd::new(&[strudel_epoll::SIGTERM, strudel_epoll::SIGINT])
                    .ok();
            let flag = |name: &str| {
                args.iter()
                    .position(|a| a == name)
                    .and_then(|i| args.get(i + 1).cloned())
            };
            let addr = flag("--addr").unwrap_or_else(|| "127.0.0.1:8080".into());
            let workers: usize = match flag("--workers") {
                Some(w) => w.parse().map_err(|_| "--workers needs a number")?,
                None => 4,
            };
            let warm = args.iter().any(|a| a == "--warm");
            if args.iter().any(|a| a == "--trace") {
                strudel_trace::set_enabled(true);
            }
            let slow_us: Option<u64> = match flag("--slow-us") {
                Some(t) => Some(t.parse().map_err(|_| "--slow-us needs a number (µs)")?),
                None => None,
            };
            let store = open_store(args, &built)?;
            let max_backlog: usize = match flag("--backlog") {
                Some(b) => b.parse().map_err(|_| "--backlog needs a number")?,
                None => strudel_serve::ServerConfig::default().max_backlog,
            };
            let keepalive_timeout = match flag("--keepalive-secs") {
                Some(s) => std::time::Duration::from_secs(
                    s.parse().map_err(|_| "--keepalive-secs needs a number")?,
                ),
                None => strudel_serve::ServerConfig::default().keepalive_timeout,
            };
            let max_connections: usize = match flag("--max-connections") {
                Some(n) => n.parse().map_err(|_| "--max-connections needs a number")?,
                None => strudel_serve::ServerConfig::default().max_connections,
            };
            let config = strudel_serve::ServerConfig {
                addr,
                workers,
                max_backlog,
                keepalive_timeout,
                max_connections,
                ..Default::default()
            };
            let cluster_workers: Option<usize> = match flag("--cluster") {
                Some(n) => Some(n.parse().map_err(|_| "--cluster needs a number")?),
                None => None,
            };
            let mut cluster: Option<std::sync::Arc<strudel_serve::ClusterService>> = None;
            let server = if let Some(n) = cluster_workers {
                let (store, _) = store.ok_or("--cluster requires --store <dir>")?;
                let store_dir = PathBuf::from(flag("--store").expect("--store checked above"));
                let binary = std::env::current_exe()
                    .map_err(|e| format!("locating the strudel binary: {e}"))?;
                let ccfg = strudel_serve::ClusterConfig::new(n, binary, dir.clone(), store_dir);
                let service = strudel_serve::ClusterService::start(store, ccfg)
                    .map_err(|e| format!("starting cluster: {e}"))?;
                println!(
                    "cluster: {} worker processes ready ({} broken)",
                    service.ready_workers(),
                    service.broken_workers()
                );
                cluster = Some(service.clone());
                warm_and_serve(service, warm, config)?
            } else {
                // With a store, serve the graph it recovered — what the
                // cluster workers replay too — not the one built from the
                // sources, which misses the deltas its WAL holds.
                let mut service = match store {
                    Some((store, graph)) => strudel_serve::SiteService::from_parts(
                        std::sync::Arc::new(strudel::repo::Database::from_graph(
                            graph,
                            built.database.level(),
                        )),
                        &built.program,
                        built.templates.clone(),
                        &built.root_collection,
                        Mode::Context,
                    )
                    .with_paged_store(store),
                    None => strudel_serve::SiteService::new(&built, Mode::Context),
                };
                if let Some(t) = slow_us {
                    service = service.with_slow_threshold_us(t);
                }
                warm_and_serve(std::sync::Arc::new(service), warm, config)?
            };
            println!(
                "serving '{}' at http://{}/ ({workers} workers, {}; ^C stops)",
                built.name,
                server.addr(),
                match cluster_workers {
                    Some(n) => format!("{n} supervised worker processes"),
                    None => "1 engine".to_string(),
                }
            );
            match signals {
                Some(fd) => {
                    // Graceful drain: wait for SIGTERM/SIGINT, stop
                    // accepting, finish in-flight requests, reap workers.
                    let signal = loop {
                        if let Some(sig) = fd.try_take() {
                            break sig;
                        }
                        std::thread::sleep(std::time::Duration::from_millis(50));
                    };
                    println!("signal {signal}: draining and shutting down");
                    server.shutdown();
                    if let Some(cluster) = cluster {
                        cluster.shutdown();
                    }
                    Ok(())
                }
                // No signalfd on this platform: serve until killed.
                None => loop {
                    std::thread::park();
                },
            }
        }
        "explain" => {
            let built = site.build().map_err(|e| e.to_string())?;
            let service = strudel_serve::SiteService::new(&built, Mode::Context);
            let roots = service
                .engine()
                .roots(service.root_collection())
                .map_err(|e| e.to_string())?;
            if roots.is_empty() {
                println!("no root pages in collection '{}'", service.root_collection());
            }
            for key in &roots {
                print!("{}", service.explain_page_text(key).map_err(|e| e.to_string())?);
                println!();
            }
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n{usage}")),
    }
}

/// Warms `service` when `--warm` asked for it — here rather than inside
/// [`strudel_serve::serve`], so the report can be printed — then binds
/// and serves it. Every front goes through here: the transport is
/// generic over [`strudel_serve::ClickService`].
fn warm_and_serve<S: strudel_serve::ClickService>(
    service: std::sync::Arc<S>,
    warm: bool,
    config: strudel_serve::ServerConfig,
) -> Result<strudel_serve::ServerHandle, String> {
    if warm {
        let report = service
            .warm(strudel::struql::Parallelism::Sequential)
            .map_err(|e| format!("warming cache: {e}"))?;
        println!(
            "warmed {} pages in {} levels ({:.1} ms)",
            report.pages,
            report.levels,
            report.elapsed_us as f64 / 1000.0
        );
    }
    strudel_serve::serve(service, config).map_err(|e| format!("binding server: {e}"))
}

/// Opens (or bulk-loads) the durable store named by `--store`, if any,
/// with the graph it recovered. Shared by the single-process and
/// `--cluster` serve paths — either way deltas commit to it exactly once,
/// and what is served is the store's graph.
fn open_store(
    args: &[String],
    built: &strudel::Site,
) -> Result<Option<(strudel::repo::PagedRepo, strudel::graph::Graph)>, String> {
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let Some(store_dir) = flag("--store") else {
        return Ok(None);
    };
    let cfg = strudel::repo::PagerConfig::default();
    let store_dir = PathBuf::from(store_dir);
    // No image: a fresh directory to bulk-load — or one in the retired
    // page-file format, which the store refuses with an error saying so.
    let fresh = !store_dir.join(strudel::repo::pager::IMAGE_FILE).exists();
    let store = if fresh {
        strudel::repo::PagedRepo::bulk_load(&store_dir, cfg, built.database.graph())
            .map_err(|e| format!("bulk-loading store: {e}"))?
    } else {
        strudel::repo::PagedRepo::open(&store_dir, cfg)
            .map_err(|e| format!("opening store: {e}"))?
    };
    // An existing store may legitimately be ahead of the sources (deltas
    // applied through a previous serve run); flag a divergence and serve
    // the store.
    let mut built_bytes = Vec::new();
    strudel::repo::snapshot::save_graph(built.database.graph(), &mut built_bytes)
        .map_err(|e| format!("encoding site graph: {e}"))?;
    let stored = store
        .materialize()
        .map_err(|e| format!("materializing store: {e}"))?;
    let mut store_bytes = Vec::new();
    strudel::repo::snapshot::save_graph(&stored, &mut store_bytes)
        .map_err(|e| format!("encoding stored graph: {e}"))?;
    if store_bytes == built_bytes {
        println!(
            "store at {} ({} nodes, generation {}{})",
            store_dir.display(),
            store.node_count(),
            store.generation(),
            if fresh { ", bulk-loaded" } else { "" }
        );
    } else {
        println!(
            "warning: store at {} has diverged from the site sources \
             ({} stored nodes vs {} built); serving the store's graph, \
             which includes the deltas committed to it",
            store_dir.display(),
            store.node_count(),
            built.database.graph().node_count()
        );
    }
    Ok(Some((store, stored)))
}

fn report_verifications(site: &strudel::Site) {
    for v in &site.verifications {
        let runtime = if v.runtime_result.holds {
            "holds".to_string()
        } else {
            // Render counterexample bindings with symbolic node names.
            let witness = v
                .runtime_result
                .counterexample
                .as_deref()
                .unwrap_or(&[])
                .iter()
                .map(|(var, value)| {
                    let shown = match value.as_node() {
                        Some(o) => site
                            .result
                            .graph
                            .node_name(o)
                            .map(str::to_owned)
                            .unwrap_or_else(|| o.to_string()),
                        None => value.display_text().into_owned(),
                    };
                    format!("{var} = {shown}")
                })
                .collect::<Vec<_>>()
                .join(", ");
            format!("VIOLATED ({witness})")
        };
        println!(
            "constraint [{}]: static {:?}, runtime {}",
            v.constraint.source, v.static_verdict, runtime
        );
    }
}

/// Assembles a `SiteBuilder` from a site directory.
fn load_site(dir: &Path) -> Result<SiteBuilder, String> {
    let read = |p: &Path| -> Result<String, String> {
        std::fs::read_to_string(p).map_err(|e| format!("reading {}: {e}", p.display()))
    };

    let name = dir
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "site".to_string());
    let mut builder = SiteBuilder::new(&name).query(&read(&dir.join("site.struql"))?);

    // Sources.
    let sources_dir = dir.join("sources");
    if sources_dir.is_dir() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&sources_dir)
            .map_err(|e| format!("reading {}: {e}", sources_dir.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for path in entries {
            let stem = path
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_default();
            match path.extension().and_then(|e| e.to_str()) {
                Some("bib") => {
                    builder = builder.source(Source::new(
                        &stem,
                        SourceFormat::Bibtex,
                        &read(&path)?,
                    ));
                }
                Some("csv") => {
                    builder = builder.source(Source::new(
                        &stem,
                        SourceFormat::Relational(TableOptions::new(&stem)),
                        &read(&path)?,
                    ));
                }
                Some("rec") => {
                    builder = builder.source(Source::new(
                        &stem,
                        SourceFormat::Structured(RecordOptions::new(&stem)),
                        &read(&path)?,
                    ));
                }
                Some("ddl") => {
                    builder = builder.source(Source::new(&stem, SourceFormat::Ddl, &read(&path)?));
                }
                _ if path.is_dir() && stem == "html" => {
                    let mut docs = Vec::new();
                    let mut pages: Vec<PathBuf> = std::fs::read_dir(&path)
                        .map_err(|e| format!("reading {}: {e}", path.display()))?
                        .filter_map(|e| e.ok().map(|e| e.path()))
                        .collect();
                    pages.sort();
                    for page in pages {
                        if page.extension().and_then(|e| e.to_str()) == Some("html") {
                            docs.push(HtmlDoc {
                                name: page
                                    .file_name()
                                    .map(|n| n.to_string_lossy().into_owned())
                                    .unwrap_or_default(),
                                html: read(&page)?,
                            });
                        }
                    }
                    builder = builder.source(Source::html("html", "Pages", docs));
                }
                _ => {
                    return Err(format!(
                        "unrecognized source {} (expected .bib/.csv/.rec/.ddl or html/)",
                        path.display()
                    ))
                }
            }
        }
    }

    // Templates.
    let templates_dir = dir.join("templates");
    if templates_dir.is_dir() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&templates_dir)
            .map_err(|e| format!("reading {}: {e}", templates_dir.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for path in entries {
            if path.extension().and_then(|e| e.to_str()) == Some("tmpl") {
                let stem = path
                    .file_stem()
                    .map(|s| s.to_string_lossy().into_owned())
                    .unwrap_or_default();
                builder = builder.template(&stem, &read(&path)?);
            }
        }
    }

    // Configuration.
    let conf = read(&dir.join("site.conf"))?;
    for (line_no, raw) in conf.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut words = line.splitn(3, char::is_whitespace);
        let kind = words.next().unwrap_or_default();
        let err = |msg: &str| format!("site.conf line {}: {msg}", line_no + 1);
        match kind {
            "root" => {
                let coll = words.next().ok_or_else(|| err("root needs a collection"))?;
                builder = builder.root_collection(coll);
            }
            "object" => {
                let (obj, tmpl) = (
                    words.next().ok_or_else(|| err("object needs a name"))?,
                    words.next().ok_or_else(|| err("object needs a template"))?,
                );
                builder = builder.assign_object(obj, tmpl.trim());
            }
            "collection" => {
                let (coll, tmpl) = (
                    words.next().ok_or_else(|| err("collection needs a name"))?,
                    words
                        .next()
                        .ok_or_else(|| err("collection needs a template"))?,
                );
                builder = builder.assign_collection(coll, tmpl.trim());
            }
            "default" => {
                let tmpl = words.next().ok_or_else(|| err("default needs a template"))?;
                builder = builder.default_template(tmpl);
            }
            "constraint" => {
                let rest: String = {
                    let a = words.next().unwrap_or_default();
                    let b = words.next().unwrap_or_default();
                    if b.is_empty() {
                        a.to_string()
                    } else {
                        format!("{a} {b}")
                    }
                };
                builder = builder.constraint(rest.trim());
            }
            other => return Err(err(&format!("unknown directive '{other}'"))),
        }
    }
    Ok(builder)
}
