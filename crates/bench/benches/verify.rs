//! E-verify: static constraint verification against the site schema vs
//! runtime checking on materialized graphs of growing size.

use std::time::Duration;
use strudel_bench::microbench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use strudel::schema::constraint::{parse_constraint, runtime, verify};

fn bench_static_vs_runtime(c: &mut Criterion) {
    let constraint = parse_constraint(
        "forall p in PaperPages : exists r in HomeRoot : r -> * -> p",
    )
    .unwrap();
    let mut group = c.benchmark_group("verify/reachability");
    group.sample_size(20);
    for entries in [50usize, 400] {
        let site = strudel_bench::paper_homepage_site(entries);
        group.bench_with_input(
            BenchmarkId::new("static", entries),
            &site,
            |b, site| {
                b.iter(|| verify::verify(&site.schema, site.database.graph(), &constraint));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("runtime", entries),
            &site,
            |b, site| {
                b.iter(|| runtime::check(&site.result.graph, &constraint));
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    // Bounded measurement so `cargo bench --workspace` finishes in
    // minutes; raise for publication-grade confidence intervals.
    config = Criterion::default()
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(2));
    targets = bench_static_vs_runtime
}
criterion_main!(benches);
