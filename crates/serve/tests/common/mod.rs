//! Shared test support for serve's end-to-end suites: response framing
//! off a kept-alive connection, polling, and the golden list of
//! `/metrics` rows, which the `SiteService` and cluster suites both hold
//! their front to.

// Each suite uses the half of this module it needs.
#![allow(dead_code)]

use std::io::{BufRead, BufReader, Read};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// The rows of a `/metrics` body with their values masked: one
/// `name{labels}` per line, in exposition order.
pub fn metric_row_names(text: &str) -> Vec<String> {
    text.lines()
        .map(|l| l.rsplit_once(' ').map_or(l, |(name, _)| name).to_owned())
        .collect()
}

/// [`metric_row_names`] minus the trace-counter family, which is there
/// only while some test of the process has tracing switched on.
pub fn untraced_metric_rows(text: &str) -> Vec<String> {
    let mut rows = metric_row_names(text);
    rows.retain(|r| !r.starts_with("strudel_trace_counter{"));
    rows
}

/// One complete response off a (possibly kept-alive) connection: the
/// head up to the blank line, then exactly `Content-Length` body bytes.
/// `None` at EOF.
pub fn read_response(reader: &mut BufReader<TcpStream>) -> Option<(String, String)> {
    let mut head = String::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line).ok()? == 0 {
            return None;
        }
        if line == "\r\n" {
            break;
        }
        head.push_str(&line);
    }
    let length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.trim().parse().ok())?;
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body).ok()?;
    Some((head, String::from_utf8_lossy(&body).into_owned()))
}

/// Polls `done` until it holds; panics naming `what` after ten seconds.
pub fn wait_for(what: &str, done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The ordered `strudel_*` rows every front's `/metrics` starts with,
/// given the routes (sorted by name) that have served a request. The
/// cluster router appends `strudel_cluster_*` rows after these.
pub fn standard_metric_rows(routes: &[&str]) -> Vec<String> {
    let mut rows: Vec<String> = [
        "strudel_requests_total",
        "strudel_request_latency_us{quantile=\"0.5\"}",
        "strudel_request_latency_us{quantile=\"0.99\"}",
        "strudel_request_latency_us_mean",
    ]
    .map(String::from)
    .to_vec();
    for le in [
        "1", "2", "5", "10", "20", "50", "100", "200", "500", "1000", "2000", "5000", "10000",
        "20000", "50000", "100000", "200000", "500000", "1000000", "2000000", "5000000",
        "10000000", "+Inf",
    ] {
        rows.push(format!("strudel_request_latency_us_bucket{{le=\"{le}\"}}"));
    }
    rows.push("strudel_request_latency_us_sum".into());
    rows.push("strudel_request_latency_us_count".into());
    for route in routes {
        rows.push(format!("strudel_route_requests_total{{route=\"{route}\"}}"));
        rows.push(format!("strudel_route_latency_us{{route=\"{route}\",quantile=\"0.5\"}}"));
        rows.push(format!("strudel_route_latency_us{{route=\"{route}\",quantile=\"0.99\"}}"));
    }
    rows.extend(
        [
            "strudel_html_cache_hits_total",
            "strudel_html_cache_misses_total",
            "strudel_html_cache_evictions_total",
            "strudel_html_cache_entries",
            "strudel_html_cache_published_hits_total",
            "strudel_html_cache_hit_rate",
            "strudel_engine_clicks_total",
            "strudel_engine_queries_total",
            "strudel_engine_rows_produced_total",
            "strudel_engine_view_cache_hits_total",
            "strudel_engine_view_evictions_total",
            "strudel_engine_plan_cache_hits_total",
            "strudel_engine_plan_cache_misses_total",
            "strudel_diff_pages_updated_total",
            "strudel_diff_fallbacks_total",
            "strudel_diff_rows_added_total",
            "strudel_diff_rows_retracted_total",
            "strudel_diff_snapshot_copies_total",
            "strudel_delta_epoch",
            "strudel_slow_requests_total",
            "strudel_panics_total",
            "strudel_shed_total",
            "strudel_accept_errors_total",
            "strudel_open_connections",
            "strudel_keepalive_reuse_total",
            "strudel_idle_closed_total",
            "strudel_inline_hits_total",
            "strudel_pool_dispatches_total",
            "strudel_pool_handbacks_total",
            "strudel_inline_declined_total{reason=\"miss\"}",
            "strudel_inline_declined_total{reason=\"delta_in_flight\"}",
            "strudel_inline_declined_total{reason=\"probe\"}",
            "strudel_inline_declined_total{reason=\"contended\"}",
            "strudel_store_poisoned",
        ]
        .map(String::from),
    );
    rows
}
