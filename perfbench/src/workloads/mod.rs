//! The five workloads. Each sets its system up (timed, several times),
//! runs an unrecorded warm-up and a measured window of closed-loop
//! operations, checks its oracles, and returns an [`Outcome`].

pub mod cluster_clicks;
pub mod cold_crawl;
pub mod delta_stream;
pub mod site_build;
pub mod warm_clicks;

use crate::run::{Cfg, Outcome};

/// Runs the workload named `name`.
pub fn run(name: &str, cfg: &Cfg) -> Result<Outcome, String> {
    Ok(match name {
        "warm-clicks" => warm_clicks::run(cfg),
        "cold-crawl" => cold_crawl::run(cfg),
        "delta-stream" => delta_stream::run(cfg),
        "site-build" => site_build::run(cfg),
        "cluster-clicks" => cluster_clicks::run(cfg)?,
        other => return Err(format!("unknown workload `{other}`")),
    })
}
