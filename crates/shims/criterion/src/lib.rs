//! Offline stand-in for the `criterion` crate.
//!
//! The build environment has no access to crates.io, so this workspace ships
//! a small wall-clock micro-benchmark harness with the criterion surface the
//! bench targets use: `Criterion::benchmark_group`, `bench_function`,
//! `bench_with_input`, `BenchmarkId`, `Bencher::iter`, `sample_size`,
//! and the `criterion_group!`/`criterion_main!` macros.
//!
//! Differences from real criterion, deliberately accepted: no statistical
//! outlier analysis, no HTML reports. Each benchmark is calibrated to a
//! fixed measurement window, timed over `sample_size` samples, and reported
//! as median/mean ns-per-iteration on stdout.

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Identifier of one benchmark within a group.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    name: String,
}

impl BenchmarkId {
    /// A compound id `function/parameter`, as in criterion.
    pub fn new(function: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            name: format!("{}/{}", function.into(), parameter),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId {
            name: s.to_string(),
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { name: s }
    }
}

/// One measured result.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// `group/name` of the benchmark.
    pub id: String,
    /// Median nanoseconds per iteration over the samples.
    pub median_ns: f64,
    /// Mean nanoseconds per iteration over the samples.
    pub mean_ns: f64,
    /// Total iterations executed during measurement.
    pub iterations: u64,
}

/// The benchmark harness root.
#[derive(Default)]
pub struct Criterion {
    test_mode: bool,
    results: Vec<BenchResult>,
}

impl Criterion {
    /// Build from CLI arguments: `--test` (passed by `cargo test` to
    /// `harness = false` targets) switches to a one-iteration smoke mode.
    pub fn from_args() -> Self {
        let test_mode = std::env::args().any(|a| a == "--test");
        Criterion {
            test_mode,
            results: Vec::new(),
        }
    }

    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: 20,
        }
    }

    /// Criterion's end-of-run hook: every benchmark already printed its own
    /// line, so the shim has nothing left to report.
    pub fn final_summary(&self) {}
}

/// A named group of benchmarks sharing settings.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Run one benchmark closure.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let full = format!("{}/{}", self.name, id.name);
        let mut bencher = Bencher {
            test_mode: self.criterion.test_mode,
            sample_size: self.sample_size,
            result: None,
        };
        f(&mut bencher);
        if let Some(mut result) = bencher.result {
            result.id = full.clone();
            println!(
                "{full:<55} median {:>12} mean {:>12}  ({} iters)",
                format_ns(result.median_ns),
                format_ns(result.mean_ns),
                result.iterations
            );
            self.criterion.results.push(result);
        } else {
            println!("{full:<55} (skipped: no measurement)");
        }
        self
    }

    /// Run one parameterized benchmark closure.
    pub fn bench_with_input<I, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        self.bench_function(id, |b| f(b, input))
    }

    /// Close the group (kept for API compatibility).
    pub fn finish(self) {}
}

/// Timer handle passed to benchmark closures.
pub struct Bencher {
    test_mode: bool,
    sample_size: usize,
    result: Option<BenchResult>,
}

impl Bencher {
    /// Measure a closure: calibrate the per-sample iteration count to a
    /// ~2 ms window, then time `sample_size` samples.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        if self.test_mode {
            std::hint::black_box(f());
            self.result = Some(BenchResult {
                id: String::new(),
                median_ns: 0.0,
                mean_ns: 0.0,
                iterations: 1,
            });
            return;
        }
        // Calibrate: find an iteration count that takes at least ~2 ms,
        // capped so pathological single-iteration costs still finish.
        let mut iters_per_sample: u64 = 1;
        loop {
            let start = Instant::now();
            for _ in 0..iters_per_sample {
                std::hint::black_box(f());
            }
            let elapsed = start.elapsed();
            if elapsed >= Duration::from_millis(2) || iters_per_sample >= 1 << 20 {
                break;
            }
            iters_per_sample *= 4;
        }
        let mut samples_ns: Vec<f64> = Vec::with_capacity(self.sample_size);
        let mut total_iters = 0u64;
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..iters_per_sample {
                std::hint::black_box(f());
            }
            let elapsed = start.elapsed();
            total_iters += iters_per_sample;
            samples_ns.push(elapsed.as_nanos() as f64 / iters_per_sample as f64);
        }
        samples_ns.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        let median = samples_ns[samples_ns.len() / 2];
        let mean = samples_ns.iter().sum::<f64>() / samples_ns.len() as f64;
        self.result = Some(BenchResult {
            id: String::new(),
            median_ns: median,
            mean_ns: mean,
            iterations: total_iters,
        });
    }
}

fn format_ns(ns: f64) -> String {
    if ns >= 1_000_000_000.0 {
        format!("{:.3} s", ns / 1_000_000_000.0)
    } else if ns >= 1_000_000.0 {
        format!("{:.3} ms", ns / 1_000_000.0)
    } else if ns >= 1_000.0 {
        format!("{:.3} µs", ns / 1_000.0)
    } else {
        format!("{ns:.1} ns")
    }
}

/// Bundle benchmark functions into a callable group.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name(criterion: &mut $crate::Criterion) {
            $($target(criterion);)+
        }
    };
}

/// Generate the benchmark binary's `main`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut criterion = $crate::Criterion::from_args();
            $($group(&mut criterion);)+
            criterion.final_summary();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_measures_something() {
        let mut c = Criterion::default();
        {
            let mut group = c.benchmark_group("g");
            group.sample_size(3);
            group.bench_function("trivial", |b| b.iter(|| 1 + 1));
            group.bench_with_input(BenchmarkId::new("param", 7), &7, |b, &n| b.iter(|| n * 2));
            group.finish();
        }
        assert_eq!(c.results.len(), 2);
        assert_eq!(c.results[0].id, "g/trivial");
        assert_eq!(c.results[1].id, "g/param/7");
        assert!(c.results[0].iterations > 0);
    }

    #[test]
    fn format_ns_scales_units() {
        assert!(format_ns(5.0).ends_with("ns"));
        assert!(format_ns(5_000.0).ends_with("µs"));
        assert!(format_ns(5_000_000.0).ends_with("ms"));
        assert!(format_ns(5_000_000_000.0).ends_with(" s"));
    }
}
