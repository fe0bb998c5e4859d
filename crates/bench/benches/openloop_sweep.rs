//! Open-loop smoke points on the parallel runtime, as criterion rows.
//!
//! Unlike the simulated-time benches, these run in wall-clock time on real
//! worker threads, so the measured quantity is the wall time of one small
//! unsaturated open-loop point (fixed offered window + drain). The value
//! of the row is regression tracking of the runtime's fixed costs —
//! thread bring-up, channel routing, drain — not throughput (the
//! `experiments -- openloop` sweep measures that and snapshots
//! `openloop/*` rows directly).

use bench_suite::OpenLoopSweepConfig;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use workload::run_load;

fn openloop_points(c: &mut Criterion) {
    let mut group = c.benchmark_group("openloop_sweep");
    group.sample_size(2);
    let config = OpenLoopSweepConfig::quick();
    for workers in [1usize, 2] {
        let offered = config.base_tps_per_worker * workers as f64;
        let spec = config.point(workers, offered, 0);
        group.bench_with_input(
            BenchmarkId::new("quick_point_wall", format!("w{workers}")),
            &spec,
            |b, spec| {
                b.iter(|| {
                    let result = run_load(spec);
                    assert!(result.totals.committed > 0);
                    result.totals.committed
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, openloop_points);
criterion_main!(benches);
