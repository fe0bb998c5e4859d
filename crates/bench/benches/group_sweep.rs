//! Wall-clock view of the sharded multi-group scaling sweep.
//!
//! Each benchmark runs one full simulated workload: a fixed pool of
//! batching writers sharded over N groups (see `bench_suite::scaling`).
//! The measured wall time per run falls as the group count rises — with
//! one group every writer contends for the same log positions (promotion
//! retries burn both simulated time and real work), with many groups the
//! same load commits in parallel — so lower ns/iter here is higher
//! aggregate throughput.

use bench_suite::{run_scaling, ScalingSpec};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_group_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("group_sweep");
    group.sample_size(5);
    for groups in [1usize, 4, 16, 64] {
        group.bench_with_input(
            BenchmarkId::new("commit_256txns_groups", groups),
            &groups,
            |b, &groups| {
                let spec = ScalingSpec::new(groups, 4)
                    .with_writers(16)
                    .with_rounds(4)
                    .with_seed(7 + groups as u64);
                b.iter(|| {
                    let result = run_scaling(&spec);
                    assert!(result.committed > 0);
                    result.committed
                });
            },
        );
    }
    group.finish();
}

fn bench_batch_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_sweep");
    group.sample_size(5);
    for batch in [1usize, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("commit_256txns_batch", batch),
            &batch,
            |b, &batch| {
                let spec = ScalingSpec::new(4, batch)
                    .with_writers(16)
                    .with_rounds(64 / batch.max(1) / 4)
                    .with_seed(17 + batch as u64);
                b.iter(|| {
                    let result = run_scaling(&spec);
                    assert!(result.committed > 0);
                    result.committed
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_group_sweep, bench_batch_sweep);
criterion_main!(benches);
