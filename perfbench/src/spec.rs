//! The benchmark's fixed vocabulary: workload names, end-to-end metrics
//! with their bounds, per-layer metric names. `BENCHMARK.json` at the
//! repository root states the same lists; a test keeps the two equal.

use crate::json::Json;

/// Which direction is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric definition.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only; per-layer metrics have none).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// Seconds one run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

/// Workloads, with the one-line reason each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "warm-clicks",
        "4000-article news site, every click a published-cache hit: transport, proto and body copy do all the work",
    ),
    (
        "cold-crawl",
        "2000-article site, every URL once per fresh service: guard evaluation and template render dominate, cache only inserts",
    ),
    (
        "delta-stream",
        "seeded deltas on a paged store beside a reader; op = delta applied until visible: WAL, diff/patch/evict, re-render",
    ),
    (
        "site-build",
        "raw sources to HTML for the three paper sites, no sockets, caches or store: wrappers, mediator, STRUQL, templates",
    ),
    (
        "cluster-clicks",
        "warm click mix through the router and 2 shard-worker processes: the proxy hop and two reactors per click",
    ),
];

use Better::{Higher, Lower};

/// End-to-end metrics. Every workload reports every one of them, for
/// its own operation: a click, a delta becoming visible, or one build of
/// the three sites. Times are host-calibrated (see `host`).
pub const END_TO_END: &[MetricDef] = &[
    e2e("op_p50_us", "us", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("cpu_us_per_op", "us", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Per-layer metrics, measured from outside by timing calls into public
/// functions during a traced run.
pub const PER_LAYER: &[MetricDef] = &[
    // The host, and the traced workload itself seen from the client.
    // Per-layer times are raw wall-clock, not calibrated.
    layer("host.speed_factor", "ratio", Higher),
    layer("client.op_p50_raw_us", "us", Lower),
    layer("client.ops_per_s_raw", "1/s", Higher),
    layer("client.cpu_us_per_op_raw", "us", Lower),
    layer("client.op_tail_us", "us", Lower),
    layer("client.op_tail_pct", "%", Higher),
    layer("client.op_n", "count", Higher),
    layer("client.bytes_per_op", "B", Lower),
    layer("trace.overhead_ratio", "ratio", Lower),
    // Transport.
    layer("os.loopback.echo_rt_us", "us", Lower),
    layer("serve.proto.parse_request_ns", "ns", Lower),
    layer("serve.proto.encode_response_ns.small", "ns", Lower),
    layer("serve.proto.encode_response_ns.front", "ns", Lower),
    layer("serve.event.stub_rt_us", "us", Lower),
    layer("serve.server.stub_rt_us", "us", Lower),
    layer("serve.event.site_rt_us", "us", Lower),
    // Service fronts.
    layer("serve.router.parse_page_path_ns", "ns", Lower),
    layer("serve.router.shard_of_path_ns", "ns", Lower),
    layer("serve.cache.get_ns", "ns", Lower),
    layer("serve.service.handle_warm_ns", "ns", Lower),
    layer("serve.shard.handle_warm_ns", "ns", Lower),
    layer("serve.cluster.handle_us", "us", Lower),
    layer("serve.cluster.worker_direct_rt_us", "us", Lower),
    layer("serve.cluster.proxy_hop_us", "us", Lower),
    // Click-time engine.
    layer("schema.dynamic.visit_cold_us.article", "us", Lower),
    layer("schema.dynamic.visit_cold_us.category", "us", Lower),
    layer("schema.dynamic.visit_cold_us.front", "us", Lower),
    layer("schema.dynamic.rows_per_visit", "count", Lower),
    layer("schema.dynamic.plan_cache_hit_ratio", "ratio", Higher),
    layer("serve.render.render_page_cold_us", "us", Lower),
    layer("template.eval.self_us", "us", Lower),
    layer("serve.service.handle_cold_us", "us", Lower),
    layer("serve.service.warm_ms", "ms", Lower),
    layer("serve.cache.insert_promote_us", "us", Lower),
    // Delta path.
    layer("repo.pager.apply_delta_us", "us", Lower),
    layer("repo.vfs.syncs_per_delta", "count", Lower),
    layer("repo.vfs.bytes_per_delta", "B", Lower),
    layer("repo.database.apply_delta_us", "us", Lower),
    layer("schema.dynamic.apply_delta_us.retitle", "us", Lower),
    layer("schema.dynamic.apply_delta_us.insert", "us", Lower),
    layer("schema.dynamic.apply_delta_us.remove", "us", Lower),
    layer("schema.dynamic.apply_delta_us.bulk32", "us", Lower),
    layer("schema.dynamic.patched_ratio", "ratio", Higher),
    layer("schema.dynamic.fallbacks_per_delta", "count", Lower),
    layer("serve.cache.invalidate_us", "us", Lower),
    layer("serve.cache.evicted_per_delta", "count", Lower),
    layer("serve.service.apply_delta_us", "us", Lower),
    layer("serve.shard.apply_delta_us", "us", Lower),
    layer("serve.cluster.apply_delta_us", "us", Lower),
    layer("serve.service.rerender_after_delta_us", "us", Lower),
    layer("repo.pager.wal_bytes_end", "B", Lower),
    layer("repo.pager.reopen_ms", "ms", Lower),
    layer("repo.pager.replay_committed_ms", "ms", Lower),
    layer("repo.pager.checkpoint_ms", "ms", Lower),
    layer("repo.pager.pool_hit_ratio", "ratio", Higher),
    // Build path.
    layer("wrappers.bibtex.parse_ms", "ms", Lower),
    layer("wrappers.relational.parse_ms", "ms", Lower),
    layer("wrappers.structured.parse_ms", "ms", Lower),
    layer("wrappers.html.parse_ms", "ms", Lower),
    layer("mediator.warehouse.build_ms", "ms", Lower),
    layer("repo.database.from_graph_ms", "ms", Lower),
    layer("struql.parser.parse_us", "us", Lower),
    layer("struql.eval.eval_ms", "ms", Lower),
    layer("struql.eval.rows", "count", Lower),
    layer("schema.site_schema.extract_us", "us", Lower),
    layer("template.parser.compile_us", "us", Lower),
    layer("template.generate.render_ms", "ms", Lower),
    layer("template.generate.us_per_page", "us", Lower),
    layer("template.generate.bytes", "B", Lower),
    layer("core.builder.build_ms", "ms", Lower),
    layer("repo.pager.bulk_load_ms", "ms", Lower),
    // Supervision.
    layer("serve.cluster.start_ready_ms", "ms", Lower),
    layer("serve.cluster.recover_ready_ms", "ms", Lower),
    layer("serve.cluster.degraded_ratio", "ratio", Lower),
    layer("serve.cluster.dropped", "count", Lower),
    // Budget: each rung's own share of a warm click, and how much of
    // each path's end-to-end time its rungs leave unexplained.
    layer("budget.click.loopback_self_us", "us", Lower),
    layer("budget.click.proto_self_us", "us", Lower),
    layer("budget.click.service_self_us", "us", Lower),
    layer("budget.click.shard_self_us", "us", Lower),
    layer("budget.click.event_self_us", "us", Lower),
    layer("budget.click.site_self_us", "us", Lower),
    layer("budget.click.cluster_self_us", "us", Lower),
    layer("budget.click.residual_ratio", "ratio", Lower),
    layer("budget.delta.residual_ratio", "ratio", Lower),
    layer("budget.build.residual_ratio", "ratio", Lower),
];

/// The command `BENCHMARK.json` gives the driver: a script beside this
/// package that builds the harness and the `strudel` worker binary, then
/// runs the harness with the driver's arguments.
pub const COMMAND: &[&str] = &["bash", "perfbench/run.sh"];

/// The directory that holds the benchmark and nothing else.
pub const PATHS: &[&str] = &["perfbench"];

/// `BENCHMARK.json`, generated from the lists above.
pub fn benchmark_json() -> Json {
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    let metric = |m: &MetricDef, bounded: bool| {
        let mut members = vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.word())),
        ];
        if bounded {
            members.push(("bound", Json::Num(m.bound)));
        }
        Json::obj(members)
    };
    Json::obj([
        ("command", strings(COMMAND)),
        ("paths", strings(PATHS)),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Json::obj([("name", Json::str(*name)), ("why", Json::str(*why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(|m| metric(m, true)).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(|m| metric(m, false)).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn is_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn lists_meet_the_contracts_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        names.extend(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name));
        for n in &names {
            assert!(is_name(n), "`{n}` is not a valid name");
        }
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for (_, why) in WORKLOADS {
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "why too long: {why}"
            );
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{} bound", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        // The run budget: 4 + 22 runs per workload within 3420 s.
        assert!(benchmark_json().to_line().len() < 64 * 1024);
    }

    #[test]
    fn benchmark_json_at_the_repository_root_is_this_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text =
            std::fs::read_to_string(path).expect("BENCHMARK.json exists at the repository root");
        let on_disk = json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate it with `benchmark spec`"
        );
        let keys: Vec<&str> = on_disk
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }
}
