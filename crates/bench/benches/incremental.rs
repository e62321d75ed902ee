//! E-incremental: incremental site-graph maintenance vs full
//! re-evaluation, across delta sizes. A delta moves a maintained site
//! forward, so each incremental iteration sets one up, evaluating the
//! site and building its support counts as well;
//! `experiments -- incremental` times the three apart.

use std::time::Duration;
use strudel_bench::microbench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use strudel::repo::{Database, IndexLevel};
use strudel::schema::incremental::MaintainedSite;
use strudel::struql::Evaluator;
use strudel_graph::{GraphDelta, Oid, Value};

fn person_delta(base: usize, count: usize) -> GraphDelta {
    let mut delta = GraphDelta::new();
    for i in 0..count {
        delta.add_node(Some(&format!("newp{i}")));
        let oid = Oid::from_index(base + i);
        delta.add_edge(oid, "id", Value::string(format!("newp{i}")));
        delta.add_edge(oid, "name", Value::string(format!("New Person {i}")));
        delta.add_edge(oid, "dept", Value::string("dept0"));
        delta.collect("People", Value::Node(oid));
    }
    delta
}

fn bench_incremental_vs_full(c: &mut Criterion) {
    let site = strudel_bench::paper_org_site(400);
    let base = site.database.graph().node_count();
    let mut group = c.benchmark_group("incremental/org-400");
    group.sample_size(10);
    for delta_people in [1usize, 10, 50] {
        let delta = person_delta(base, delta_people);
        group.bench_with_input(
            BenchmarkId::new("incremental", delta_people),
            &delta,
            |b, delta| {
                b.iter(|| {
                    let old = Evaluator::new(&site.database).eval(&site.program).unwrap();
                    let mut maintained =
                        MaintainedSite::new(&site.program, site.database.clone(), old).unwrap();
                    maintained.apply(delta).unwrap();
                    maintained
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("full-reeval", delta_people),
            &delta,
            |b, delta| {
                b.iter(|| {
                    let mut g = site.database.graph().clone();
                    delta.apply(&mut g).unwrap();
                    let db = Database::from_graph(g, IndexLevel::Full);
                    Evaluator::new(&db).eval(&site.program).unwrap()
                });
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
    targets = bench_incremental_vs_full
}
criterion_main!(benches);
