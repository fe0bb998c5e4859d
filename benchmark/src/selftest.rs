//! Self-tests of the benchmark as a whole, on 1/20-size workloads:
//! determinism of everything on the simulated clock, agreement between the
//! registry, `BENCHMARK.json` and `README.md`, and scratch clean-up.

use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::run::{run_workload, Outcome, RunOptions};
use crate::sut::Scratch;
use crate::workloads::WORKLOADS;
use std::collections::BTreeSet;
use std::path::PathBuf;

const SIMULATED: [&str; 4] = [
    "contended-direct",
    "sharded-mem",
    "sharded-durable",
    "chaos-durable",
];

/// An `out/` directory of the test's own, so parallel tests never share a
/// trace file; removed on drop.
struct TestDir(PathBuf);

impl TestDir {
    fn new(label: &str) -> TestDir {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("selftest-{label}-{}", std::process::id()));
        std::fs::create_dir_all(&path).unwrap();
        TestDir(path)
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn small_run(dir: &TestDir, workload: &str, seed: u64, trace: bool) -> Outcome {
    let opts = RunOptions {
        workload: workload.into(),
        seed,
        seconds: 0.01,
        trace,
        shrink: 20,
        out_dir: dir.0.clone(),
    };
    run_workload(&opts).unwrap_or_else(|why| panic!("{workload} failed a correctness gate: {why}"))
}

/// The metrics that must repeat exactly for a seed: everything on the
/// simulated clock and every count.
fn repeatable(outcome: &Outcome) -> Vec<(&'static str, f64)> {
    let exact = |clock: &str| clock == "count" || clock.starts_with("sim");
    let clocks: Vec<(&str, &str)> = END_TO_END
        .iter()
        .map(|m| (m.name, m.clock))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.clock)))
        .collect();
    outcome
        .metrics
        .iter()
        .filter(|(name, _, _)| clocks.iter().any(|(n, clock)| n == name && exact(clock)))
        .map(|(name, value, _)| (*name, *value))
        .collect()
}

#[test]
fn same_seed_repeats_exactly_and_another_seed_differs() {
    let dir = TestDir::new("determinism");
    for workload in SIMULATED {
        for trace in [false, true] {
            let first = small_run(&dir, workload, 7, trace);
            let again = small_run(&dir, workload, 7, trace);
            let other = small_run(&dir, workload, 8, trace);
            assert!(!repeatable(&first).is_empty());
            assert_eq!(
                repeatable(&first),
                repeatable(&again),
                "{workload} trace={trace}: same seed, different numbers"
            );
            assert_eq!(
                (first.attempted, first.failed),
                (again.attempted, again.failed)
            );
            assert_ne!(
                repeatable(&first),
                repeatable(&other),
                "{workload} trace={trace}: the seed changed nothing"
            );
            assert_eq!(
                first.failed, 0,
                "{workload}: workloads are chosen so that no operation fails"
            );
        }
    }
}

#[test]
fn parallel_workload_passes_its_gates() {
    let dir = TestDir::new("parallel");
    for trace in [false, true] {
        let outcome = small_run(&dir, "readmostly-par", 7, trace);
        assert_eq!(outcome.failed, 0);
        assert!(outcome.attempted >= 3_000);
    }
}

#[test]
fn printed_names_are_the_manifest_names() {
    let dir = TestDir::new("names");
    let manifest_path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&manifest_path)
        .expect("BENCHMARK.json sits at the repository root");
    assert_eq!(
        text,
        crate::metrics::manifest(crate::RUN_SECONDS),
        "BENCHMARK.json is `benchmark manifest`'s output"
    );
    let manifest = Json::parse(&text).unwrap();
    let names_of = |key: &str| -> BTreeSet<String> {
        manifest
            .get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| match m.get("name") {
                Some(Json::Str(name)) => name.clone(),
                other => panic!("a {key} entry without a name: {other:?}"),
            })
            .collect()
    };
    let printed = |trace: bool| -> BTreeSet<String> {
        small_run(&dir, "sharded-mem", 3, trace)
            .metrics
            .iter()
            .map(|(name, _, _)| name.to_string())
            .collect()
    };
    assert_eq!(printed(false), names_of("end_to_end"));
    assert_eq!(printed(true), names_of("per_layer"));
    assert_eq!(
        names_of("workloads"),
        WORKLOADS.iter().map(|w| w.name.to_string()).collect()
    );
}

#[test]
fn manifest_respects_the_contract_limits() {
    let name_ok = |name: &str| {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let unit_ok = |unit: &str| {
        unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    let mut names = BTreeSet::new();
    for (name, unit) in END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
    {
        assert!(name_ok(name), "bad metric name {name}");
        assert!(unit_ok(unit), "bad unit {unit} of {name}");
        assert!(names.insert(name), "{name} is used twice");
    }
    for workload in WORKLOADS {
        assert!(name_ok(workload.name) && names.insert(workload.name));
        assert!(
            workload.why.len() <= 200 && !workload.why.contains('\n'),
            "{}: why must be one line of at most 200 characters",
            workload.name
        );
    }
    assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s"));
    assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    assert!(crate::metrics::manifest(crate::RUN_SECONDS).len() < 64 * 1024);
}

#[test]
fn readme_explains_every_metric_and_workload() {
    let readme =
        std::fs::read_to_string(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("README.md"))
            .unwrap();
    for name in END_TO_END
        .iter()
        .map(|m| m.name)
        .chain(PER_LAYER.iter().map(|m| m.name))
        .chain(WORKLOADS.iter().map(|w| w.name))
    {
        assert!(
            readme.contains(&format!("`{name}`")),
            "README.md does not mention `{name}`"
        );
    }
}

#[test]
fn scratch_is_removed_even_when_a_run_panics() {
    let dir = TestDir::new("scratch");
    let root = dir.0.clone();
    let created = std::sync::Mutex::new(None);
    let result = std::panic::catch_unwind(|| {
        let scratch = Scratch::new(&root, "panic");
        std::fs::write(scratch.path().join("wal-000000.seg"), b"x").unwrap();
        *created.lock().unwrap() = Some(scratch.path().to_path_buf());
        panic!("a correctness gate fired mid-run");
    });
    assert!(result.is_err());
    let path = created
        .lock()
        .unwrap()
        .clone()
        .expect("the scratch directory was created");
    assert!(!path.exists(), "{} survived the panic", path.display());
}
