//! One command, five workloads: the end-to-end and per-layer benchmark of
//! the Paxos-CP datastore. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! benchmark run [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--quick] [--out FILE]
//! benchmark compare A.json B.json
//! benchmark manifest            # the text of BENCHMARK.json
//! benchmark glossary            # the metric tables of README.md
//! ```
//!
//! `run --workload W` measures one workload in this process and prints, as
//! its last line, `{"correct", "attempted", "failed", "metrics"}`. Without
//! `--workload` it runs every workload in a child process of its own, one
//! after another, so `peak_rss_mb` and the page cache of one cannot leak
//! into the next.

mod compare;
mod inputs;
mod json;
mod metrics;
mod procfs;
mod run;
#[cfg(test)]
mod selftest;
mod sut;
mod tally;
mod trace;
mod workloads;

use json::Json;
use run::{run_workload, Outcome, RunOptions};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// `run_seconds` of `BENCHMARK.json`, and the default of `--seconds`.
pub const RUN_SECONDS: u64 = 15;

/// The line a workload process prints before its result, carrying what the
/// result line's fixed shape has no room for.
const DETAIL_PREFIX: &str = "#detail ";

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
}

fn parse_run_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 42,
        seconds: None,
        trace: false,
        quick: false,
        out: None,
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => cli.workload = Some(value(&mut i, "--workload")?),
            "--seed" => {
                cli.seed = value(&mut i, "--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                let seconds: f64 = value(&mut i, "--seconds")?
                    .parse()
                    .map_err(|_| "--seconds takes a number")?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                cli.seconds = Some(seconds);
            }
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => {
                    cli.trace = false;
                    i += 1;
                }
                Some("1") => {
                    cli.trace = true;
                    i += 1;
                }
                _ => cli.trace = true,
            },
            "--quick" => cli.quick = true,
            "--out" => cli.out = Some(PathBuf::from(value(&mut i, "--out")?)),
            other => return Err(format!("unknown argument '{other}'")),
        }
        i += 1;
    }
    Ok(cli)
}

/// The benchmark's own directory: where `cargo run` says the manifest is,
/// else where it was at build time.
fn benchmark_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

fn metrics_json(outcome: &Outcome) -> Json {
    Json::obj(outcome.metrics.iter().map(|(name, value, unit)| {
        (
            *name,
            Json::obj([
                ("value", Json::Num(*value)),
                ("unit", Json::Str((*unit).into())),
            ]),
        )
    }))
}

/// Measure one workload in this process.
fn run_one(cli: &Cli, workload: &str) -> ExitCode {
    let opts = RunOptions {
        workload: workload.to_owned(),
        seed: cli.seed,
        // `--quick` makes one repetition of each workload.
        seconds: cli
            .seconds
            .unwrap_or(if cli.quick { 0.01 } else { RUN_SECONDS as f64 }),
        trace: cli.trace,
        shrink: if cli.quick { 10 } else { 1 },
        out_dir: benchmark_dir().join("out"),
    };
    let started = Instant::now();
    let outcome = match run_workload(&opts) {
        Ok(outcome) => outcome,
        Err(why) => {
            // A failed correctness gate prints no metrics at all.
            eprintln!("{workload}: INCORRECT: {why}");
            return ExitCode::FAILURE;
        }
    };
    for (name, value, unit) in &outcome.metrics {
        println!("{workload} {name} {value} {unit}");
    }
    for note in &outcome.notes {
        println!("# {workload}: {note}");
    }
    let detail = Json::obj([
        ("wall_s", Json::Num(started.elapsed().as_secs_f64())),
        ("repetitions", Json::Num(outcome.repetitions as f64)),
        (
            "samples",
            Json::obj(outcome.samples.iter().map(|(name, values)| {
                (
                    *name,
                    Json::Arr(values.iter().map(|v| Json::Num(*v)).collect()),
                )
            })),
        ),
    ]);
    println!("{DETAIL_PREFIX}{}", detail.render());
    let result = Json::obj([
        ("correct", Json::Bool(true)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", metrics_json(&outcome)),
    ]);
    println!("{}", result.render());
    ExitCode::SUCCESS
}

fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(benchmark_dir())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|| "unknown".into())
}

/// Run every workload, each in a child process of its own, one after another.
fn run_all(cli: &Cli) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut workloads = Vec::new();
    let mut all_correct = true;
    for workload in workloads::WORKLOADS {
        let mut command = Command::new(&exe);
        command.args([
            "run",
            "--workload",
            workload.name,
            "--seed",
            &cli.seed.to_string(),
        ]);
        command.args(["--trace", if cli.trace { "1" } else { "0" }]);
        if let Some(seconds) = cli.seconds {
            command.args(["--seconds", &seconds.to_string()]);
        }
        if cli.quick {
            command.arg("--quick");
        }
        // `output` waits for the child to end before returning.
        let output = match command.stderr(Stdio::inherit()).output() {
            Ok(output) => output,
            Err(e) => {
                eprintln!("cannot start the {} process: {e}", workload.name);
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        let lines: Vec<&str> = stdout.lines().collect();
        let result = lines
            .last()
            .and_then(|line| Json::parse(line).ok())
            .filter(|_| output.status.success());
        let Some(Json::Obj(mut result)) = result else {
            eprintln!(
                "{}: no result (exit {:?})",
                workload.name,
                output.status.code()
            );
            all_correct = false;
            continue;
        };
        for line in &lines[..lines.len() - 1] {
            match line.strip_prefix(DETAIL_PREFIX).map(Json::parse) {
                Some(Ok(Json::Obj(detail))) => result.extend(detail),
                _ => println!("{line}"),
            }
        }
        workloads.push((workload.name, Json::Obj(result)));
    }
    if let Some(path) = &cli.out {
        let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
        let file = Json::obj([
            ("host_cores", Json::Num(cores as f64)),
            ("seed", Json::Num(cli.seed as f64)),
            ("git_commit", Json::Str(git_commit())),
            ("quick", Json::Bool(cli.quick)),
            ("trace", Json::Bool(cli.trace)),
            ("workloads", Json::obj(workloads)),
        ]);
        if let Err(e) = std::fs::write(path, file.render() + "\n") {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => match parse_run_args(&args[1..]) {
            Ok(cli) => match cli.workload.clone() {
                Some(workload) => run_one(&cli, &workload),
                None => run_all(&cli),
            },
            Err(why) => {
                eprintln!("{why}");
                ExitCode::from(2)
            }
        },
        Some("compare") if args.len() == 3 => {
            let read = |path: &String| {
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
            };
            match read(&args[1]).and_then(|a| read(&args[2]).and_then(|b| compare::compare(&a, &b)))
            {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::FAILURE,
                Err(why) => {
                    eprintln!("{why}");
                    ExitCode::from(2)
                }
            }
        }
        Some("manifest") => {
            print!("{}", metrics::manifest(RUN_SECONDS));
            ExitCode::SUCCESS
        }
        Some("glossary") => {
            print!("{}", metrics::glossary());
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("usage: benchmark run [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--quick] [--out FILE]");
            eprintln!("       benchmark compare A.json B.json");
            eprintln!("       benchmark manifest | glossary");
            ExitCode::from(2)
        }
    }
}
