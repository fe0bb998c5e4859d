//! One Criterion target per paper figure: each runs a scaled-down version of
//! the figure's workload end to end (cluster simulation, commit protocol,
//! serializability verification). The full-size runs that regenerate the
//! numbers in EXPERIMENTS.md live in the `experiments` binary; these bench
//! targets exist so `cargo bench` exercises every experiment path and tracks
//! the simulator's throughput over time.

use criterion::{criterion_group, criterion_main, Criterion};
use workload::{run_load, LoadSpec};

fn shrink(spec: LoadSpec) -> LoadSpec {
    // 2 clients × 15 transactions keeps each iteration around a million
    // simulated events or less, so the whole suite stays in benchmark
    // territory rather than experiment territory.
    spec.with_clients(2, 15).with_target_tps(4.0)
}

fn bench_figure(c: &mut Criterion, figure: &str, specs: Vec<LoadSpec>) {
    let mut group = c.benchmark_group(figure);
    group.sample_size(10);
    for spec in specs {
        let spec = shrink(spec);
        group.bench_function(spec.name.clone(), |b| {
            b.iter(|| {
                let result = run_load(&spec);
                assert_eq!(Some(result.totals.attempted), spec.total_transactions());
                result.totals.committed
            });
        });
    }
    group.finish();
}

fn fig4(c: &mut Criterion) {
    // Benchmark the two extremes (2 and 5 replicas) for both protocols.
    let specs = bench_suite::fig4_specs(true)
        .into_iter()
        .filter(|s| s.name.contains("-VV-") || s.name.contains("VVVOC"))
        .collect();
    bench_figure(c, "fig4_replicas", specs);
}

fn fig5(c: &mut Criterion) {
    let specs = bench_suite::fig5_specs(true)
        .into_iter()
        .filter(|s| s.name.contains("-OV-") || s.name.contains("-COV-"))
        .collect();
    bench_figure(c, "fig5_datacenter_combinations", specs);
}

fn fig6(c: &mut Criterion) {
    let specs = bench_suite::fig6_specs(true)
        .into_iter()
        .filter(|s| s.name.contains("20attrs") || s.name.contains("500attrs"))
        .collect();
    bench_figure(c, "fig6_contention", specs);
}

fn fig7(c: &mut Criterion) {
    let specs = bench_suite::fig7_specs(true)
        .into_iter()
        .filter(|s| s.name.contains("8tps"))
        .collect();
    bench_figure(c, "fig7_concurrency", specs);
}

fn fig8(c: &mut Criterion) {
    bench_figure(c, "fig8_per_datacenter", bench_suite::fig8_specs(true));
}

fn ablation(c: &mut Criterion) {
    let specs = bench_suite::ablation_specs(true)
        .into_iter()
        .filter(|s| s.name.contains("no-combination") || s.name.contains("full-paxos-cp"))
        .collect();
    bench_figure(c, "ablation", specs);
}

criterion_group!(figures, fig4, fig5, fig6, fig7, fig8, ablation);
criterion_main!(figures);
