//! The experiment driver: regenerates every table and figure of the
//! paper's evaluation on the synthetic corpora.
//!
//! ```text
//! cargo run --release -p strudel-bench --bin experiments            # all
//! cargo run --release -p strudel-bench --bin experiments -- <ids…>  # some
//! cargo run --release -p strudel-bench --bin experiments -- all --json
//! ```
//!
//! Ids: `site-stats` (T1), `suitability` (F8), `multiversion`,
//! `site-schema`, `verify`, `dynamic`, `diff`, `incremental`, `indexing`,
//! `struql-scale`, `batch`, `htmlgen`, `mediate`, `trace`, `crash`,
//! `all`.
//!
//! `--json` additionally writes `BENCH_<suite>.json` files (machine-
//! readable rows; schema in EXPERIMENTS.md) into the current directory.

use strudel_bench::experiments as e;
use strudel_bench::json;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let write_json = args.iter().any(|a| a == "--json");
    let ids: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| !a.starts_with("--"))
        .collect();
    let ids = if ids.is_empty() { vec!["all"] } else { ids };
    for id in ids {
        match id {
            "all" => e::run_all(),
            "site-stats" => e::exp_site_stats(),
            "suitability" => e::exp_suitability(),
            "multiversion" => e::exp_multiversion(),
            "site-schema" => e::exp_site_schema(),
            "verify" => e::exp_verify(),
            "dynamic" => e::exp_dynamic(),
            "diff" => e::exp_diff(),
            "incremental" => e::exp_incremental(),
            "indexing" => e::exp_indexing(),
            "struql-scale" => e::exp_struql_scale(),
            "batch" => e::exp_batch(),
            "htmlgen" => e::exp_htmlgen(),
            "mediate" => e::exp_mediate(),
            "trace" => e::exp_trace(),
            "crash" => e::exp_crash(),
            other => {
                eprintln!("unknown experiment '{other}'");
                eprintln!(
                    "known: site-stats suitability multiversion site-schema verify dynamic diff \
                     incremental indexing struql-scale batch htmlgen mediate trace crash all \
                     (plus --json)"
                );
                std::process::exit(2);
            }
        }
    }
    if write_json {
        match json::write_files(std::path::Path::new(".")) {
            Ok(paths) => {
                for p in paths {
                    println!("wrote {}", p.display());
                }
            }
            Err(e) => {
                eprintln!("failed to write BENCH files: {e}");
                std::process::exit(1);
            }
        }
    }
}
