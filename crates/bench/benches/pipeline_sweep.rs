//! Wall-clock view of the pipelined commit engine.
//!
//! Each benchmark runs one full simulated burst workload at equal offered
//! load (every cell drains the same per-writer quota): depth 1/2/4 ×
//! batch cap 1/4/8. Wall time per run tracks simulated drain time, so
//! lower ns/iter at depth ≥ 2 versus depth 1 is the pipelining win —
//! overlapping instances at positions p, p+1 amortize the replication
//! round trips a flush-and-wait committer serializes. The
//! `adaptive_trickle` pair measures the latency side: an uncontended
//! trickle under a static batch-4 window versus the adaptive controller
//! (which shrinks to latency mode and commits on submit).

use bench_suite::{adaptive_latency_specs, pipeline_sweep_specs, run_scaling};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_pipeline_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline_sweep");
    group.sample_size(5);
    for spec in pipeline_sweep_specs(false) {
        let id = format!("depth{}_cap{}", spec.pipeline_depth, spec.batch_size);
        group.bench_with_input(BenchmarkId::new("burst64", id), &spec, |b, spec| {
            b.iter(|| {
                let result = run_scaling(spec);
                assert_eq!(result.committed, result.attempted);
                result.committed
            });
        });
    }
    group.finish();
}

fn bench_adaptive_trickle(c: &mut Criterion) {
    let mut group = c.benchmark_group("adaptive_trickle");
    group.sample_size(5);
    for spec in adaptive_latency_specs(true) {
        let name = if spec.adaptive { "adaptive" } else { "static" };
        group.bench_with_input(BenchmarkId::new("windows", name), &spec, |b, spec| {
            b.iter(|| {
                let result = run_scaling(spec);
                assert!(result.committed > 0);
                result.committed
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pipeline_sweep, bench_adaptive_trickle);
criterion_main!(benches);
