//! Commit-route snapshot bench: wall-clock of the contended 8-writer
//! workload (the `routes` acceptance experiment, quick-sized) under the
//! direct route versus the submitted route. One iteration = one full
//! verified experiment — build the cluster, run every transaction to a
//! decision, check serializability — so the per-iteration time is the
//! simulator cost of the whole workload, and the committed-tx/s relation
//! between the two rows tracks the simulated-time relation reported by
//! `experiments -- routes` (the submitted row also does strictly more
//! committing per iteration; see `docs/BENCHMARKS.md`).

use bench_suite::route_spec;
use criterion::{criterion_group, criterion_main, Criterion};
use mdstore::CommitRoute;
use workload::run_load;

fn bench_commit_routes(c: &mut Criterion) {
    let mut group = c.benchmark_group("commit_routes");
    group.sample_size(10);
    for route in [CommitRoute::Direct, CommitRoute::Submitted] {
        group.bench_function(format!("contended_8writers/{}", route.name()), |b| {
            let spec = route_spec(route, 8, true);
            b.iter(|| {
                let result = run_load(&spec);
                assert!(result.totals.committed > 0);
                assert!(result.committed_tps() > 0.0);
                result.totals.committed
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_commit_routes);
criterion_main!(benches);
