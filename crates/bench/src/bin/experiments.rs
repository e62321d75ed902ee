//! The experiment driver: regenerates every table and figure of the
//! paper's evaluation on the synthetic corpora.
//!
//! ```text
//! cargo run --release -p strudel-bench --bin experiments            # all
//! cargo run --release -p strudel-bench --bin experiments -- <ids…>  # some
//! ```
//!
//! Ids: `site-stats` (T1), `suitability` (F8), `multiversion`,
//! `site-schema`, `verify`, `dynamic`, `diff`, `incremental`, `indexing`,
//! `struql-scale`, `batch`, `htmlgen`, `mediate`, `all`.
//!
//! Each experiment prints its table and panics if a count-based shape
//! check fails, so the exit code is the verdict.

use strudel_bench::experiments as e;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--json") {
        eprintln!(
            "the --json flag was removed: timings are measured by the benchmark \
             (perfbench/, `bash perfbench/run.sh`) and the experiments' numbers live \
             in EXPERIMENTS.md"
        );
        std::process::exit(2);
    }
    let ids: Vec<&str> = args.iter().map(String::as_str).collect();
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
            other => {
                eprintln!("unknown experiment '{other}'");
                eprintln!(
                    "known: site-stats suitability multiversion site-schema verify dynamic diff \
                     incremental indexing struql-scale batch htmlgen mediate all"
                );
                std::process::exit(2);
            }
        }
    }
}
