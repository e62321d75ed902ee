//! `site-build`: the paper's primary path. One operation takes the raw
//! source text of all three paper sites — the homepage site (BibTeX +
//! DDL), the organization site (two CSV tables, two record files, legacy
//! HTML) and the news site (HTML) — through `SiteBuilder::build` and
//! `Site::render` with the builder's defaults, on each of two threads at
//! once. No sockets, no caches, no store: serve-layer work must not move
//! it.

use crate::clicks::{self, Plan, Step, Worker};
use crate::http::fnv1a;
use crate::inputs::{BuildScale, BuildSources, InputPin};
use crate::procfs;
use crate::run::{now_ns, timed_setups, Cfg, Outcome};
use crate::spans::Recorder;
use std::time::Duration;

/// `site-build` input sizes: ≈10× the paper's sites, or a smoke size.
pub fn scale(cfg: &Cfg) -> BuildScale {
    BuildScale {
        bib_entries: cfg.scale(300, 20),
        org_people: cfg.scale(4000, 60),
        news_articles: cfg.scale(3000, 40),
    }
}

/// What one iteration produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BuildDigest {
    /// Pages rendered across the three sites.
    pub pages: usize,
    /// HTML bytes across the three sites.
    pub bytes: usize,
    /// FNV-1a folded over every page name and body, in output order.
    pub digest: u64,
}

/// One iteration: sources → three rendered sites.
pub fn build_all(sources: &BuildSources, rec: &mut Recorder) -> BuildDigest {
    let mut out = BuildDigest {
        pages: 0,
        bytes: 0,
        digest: 0,
    };
    let iteration = rec.enter("client.build_iteration");
    for builder in sources.builders() {
        let site = rec.time("core.builder.build", |_| {
            builder.build().expect("site builds")
        });
        let html = rec.time("core.site.render", |_| site.render().expect("site renders"));
        for page in &html.pages {
            out.pages += 1;
            out.bytes += page.html.len();
            out.digest = out
                .digest
                .rotate_left(5)
                .wrapping_add(fnv1a(page.name.as_bytes()) ^ fnv1a(page.html.as_bytes()));
        }
    }
    rec.exit(iteration);
    out
}

/// Builder threads: one per core of the reference machine, like the
/// connections of the click workloads. One thread alone would leave the
/// other core idle, and the host runs single-threaded work 1.5× faster
/// whenever it notices (see [`crate::host`]).
pub const BUILDERS: usize = clicks::CONNECTIONS;

/// Runs the workload.
pub fn run(cfg: &Cfg) -> Outcome {
    // Set-up is input generation plus one unrecorded iteration, which
    // warms the allocator and fixes the digest every later one must equal.
    let ((sources, reference), setups) = timed_setups(cfg.setup_reps, || {
        let sources = BuildSources::generate(scale(cfg));
        let reference = build_all(&sources, &mut Recorder::new(false));
        (sources, reference)
    });
    /// One builder thread's tallies.
    struct Builder {
        recorder: Recorder,
        wrong: Vec<BuildDigest>,
        bytes: u64,
    }
    let mut builders: Vec<Builder> = (0..BUILDERS)
        .map(|_| Builder {
            recorder: Recorder::new(cfg.traced),
            wrong: Vec::new(),
            bytes: 0,
        })
        .collect();
    let workers = builders
        .iter_mut()
        .map(|b| {
            let sources = &sources;
            Box::new(move |record| {
                let t0 = now_ns();
                let got = build_all(sources, &mut b.recorder);
                let ns = now_ns() - t0;
                if got == reference {
                    if record {
                        b.bytes += got.bytes as u64;
                    }
                    Step::Done(ns)
                } else {
                    b.wrong.push(got);
                    Step::Failed
                }
            }) as Worker<'_>
        })
        .collect();
    // A slice is one iteration on every thread. The set-up's reference
    // iteration was the warm-up.
    let plan = Plan {
        warmup: Duration::ZERO,
        window: cfg.window,
        slice: Duration::ZERO,
    };
    let slices = clicks::drive(workers, plan, &procfs::cpu_us_self);
    let window_s: f64 = slices.iter().map(|s| s.span_ns as f64 / 1e9).sum();
    let built: usize = slices.iter().map(|s| s.latencies_ns.len()).sum();
    let mut recorder = Recorder::new(true);
    let mut violations = Vec::new();
    let mut bytes = 0;
    for b in builders {
        recorder.absorb(b.recorder);
        bytes += b.bytes;
        violations.extend(
            b.wrong
                .iter()
                .map(|got| format!("an iteration built {got:?}, not {reference:?}")),
        );
    }
    Outcome {
        slices,
        setups,
        peak_rss_mib: procfs::peak_rss_mib_with_children(),
        bytes,
        violations,
        recorder,
        notes: vec![
            (
                "pages_per_iteration".into(),
                reference.pages as f64,
                "count",
            ),
            (
                "build_pages_per_s".into(),
                (reference.pages * built) as f64 / window_s.max(1e-9),
                "1/s",
            ),
        ],
        // Nothing about a build is seeded: the load is the sources.
        pin: InputPin {
            sources: sources.fingerprint(),
            load: sources.fingerprint(),
        },
    }
}
