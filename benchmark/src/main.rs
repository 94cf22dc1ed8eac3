//! The vC²M benchmark: five seeded workloads, end-to-end metrics from
//! untraced passes and a per-layer breakdown from one traced pass.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --seed 42 [--workload NAME] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --compare DIR_A DIR_B
//! ```
//!
//! Without `--workload` every workload runs in its own child process,
//! one at a time, so `peak_rss_mb` is per workload. The last line of a
//! single-workload run is a JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`, and both without `--trace`.
//! Every run also writes a JSON document and a flat TSV to `--out`
//! (default `target/benchmark`), and the traced pass's spans to
//! `<out>/<workload>.spans.tsv`. See `README.md` beside this package.

mod admission;
mod calls;
mod compare;
mod json;
mod report;
mod sim;
mod spans;
mod stats;
mod sweep;

use report::{Header, Report};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// The workloads, in the order a full run executes them.
pub const WORKLOADS: [&str; 5] = ["steady", "overload", "retry_storm", "sweep", "sim"];

/// Set-ups per run, at least; `setup_s` is their median. A cheap
/// set-up repeats until [`SETUP_SECONDS`] have passed (at most
/// [`SETUP_MAX_REPEATS`] times), so its median is as steady as a long
/// one's.
const SETUP_REPEATS: usize = 3;
/// Time a run spends on set-up repeats, at least.
const SETUP_SECONDS: f64 = 0.25;
/// Upper bound on set-up repeats.
const SETUP_MAX_REPEATS: usize = 200;
/// Timed passes run even when `--seconds` is already spent.
const MIN_PASSES: usize = 3;
/// Upper bound on timed passes.
const MAX_PASSES: usize = 1000;

/// One workload run's settings.
#[derive(Debug, Clone)]
pub struct Run {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// How long the timed passes run.
    pub seconds: f64,
    /// Smoke scale (for tests).
    pub smoke: bool,
    /// Run the traced pass and report per-layer metrics.
    pub per_layer: bool,
    /// Where the traced pass writes its spans.
    pub spans_dir: Option<PathBuf>,
}

/// Runs `make` repeatedly (see [`SETUP_REPEATS`]), reports the median
/// time as `setup_s` (and as the input generation layer), and returns
/// the last input made.
pub fn setup<T>(report: &mut Report, mut make: impl FnMut() -> T) -> T {
    let mut times = Vec::new();
    let mut value = None;
    let start = Instant::now();
    while times.len() < SETUP_REPEATS
        || (start.elapsed().as_secs_f64() < SETUP_SECONDS && times.len() < SETUP_MAX_REPEATS)
    {
        let begin = Instant::now();
        let made = make();
        times.push(begin.elapsed().as_secs_f64());
        value = Some(made);
    }
    let median = stats::median(&stats::sorted(&times));
    report.set("setup_s", "s", median);
    report.set("workload.generate_s", "s", median);
    value.expect("at least one set-up")
}

/// One untimed warm-up pass, then timed passes until `run.seconds`
/// have passed (at least [`MIN_PASSES`]).
pub fn timed_passes<P>(run: &Run, mut pass: impl FnMut() -> P) -> Vec<P> {
    drop(pass());
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < MIN_PASSES
        || (start.elapsed().as_secs_f64() < run.seconds && passes.len() < MAX_PASSES)
    {
        passes.push(pass());
    }
    passes
}

/// Writes the traced pass's spans to `<dir>/<workload>.spans.tsv`.
pub fn write_spans(dir: &Path, workload: &str, tracer: &spans::Tracer) {
    let path = dir.join(format!("{workload}.spans.tsv"));
    if let Err(e) =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tracer.to_tsv()))
    {
        eprintln!("could not write {}: {e}", path.display());
    }
}

/// Runs one workload into `report`; returns the timed passes run.
pub fn run_workload(run: &Run, report: &mut Report) -> Option<usize> {
    use calls::TraceShape;
    let spec = |shape, streams, requests, smoke_requests, journaled| admission::Spec {
        shape,
        streams,
        requests,
        smoke_requests,
        journaled,
    };
    let passes = match run.workload.as_str() {
        "steady" => admission::run(
            spec(TraceShape::UnderCapacity, 2, 10_000, 300, true),
            run,
            report,
        ),
        "overload" => admission::run(
            spec(TraceShape::DefaultChurn, 2, 2_500, 200, true),
            run,
            report,
        ),
        "retry_storm" => admission::run(
            spec(TraceShape::RejectionHeavy { hosts: 2 }, 8, 500, 200, false),
            run,
            report,
        ),
        "sweep" => sweep::run(run, report),
        "sim" => sim::run(run, report),
        _ => return None,
    };
    report.put("peak_rss_mb", "MiB", report::peak_rss_mb());
    if run.per_layer {
        report.zero_untouched_layers();
    }
    Some(passes)
}

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: f64,
    trace: Option<u8>,
    smoke: bool,
    out: PathBuf,
    compare: Option<(PathBuf, PathBuf)>,
}

const USAGE: &str = "usage: benchmark --seed N [--workload NAME] [--seconds S] [--trace 0|1] \
                     [--smoke] [--out DIR]\n       benchmark --compare DIR_A DIR_B";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: None,
        seconds: 15.0,
        trace: None,
        smoke: false,
        out: PathBuf::from("target/benchmark"),
        compare: None,
    };
    let mut it = argv.iter();
    let value = |it: &mut std::slice::Iter<String>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let name = value(&mut it, flag)?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!(
                        "unknown workload '{name}' (one of {})",
                        WORKLOADS.join(", ")
                    ));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                let raw = value(&mut it, flag)?;
                args.seed = Some(
                    raw.parse()
                        .map_err(|_| format!("--seed takes a u64, got '{raw}'"))?,
                );
            }
            "--seconds" => {
                let raw = value(&mut it, flag)?;
                args.seconds = raw
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0 && *s <= 3600.0)
                    .ok_or_else(|| format!("--seconds takes 0..=3600, got '{raw}'"))?;
            }
            "--trace" => match value(&mut it, flag)?.as_str() {
                "0" => args.trace = Some(0),
                "1" => args.trace = Some(1),
                other => return Err(format!("--trace takes 0 or 1, got '{other}'")),
            },
            "--smoke" => args.smoke = true,
            "--out" => args.out = PathBuf::from(value(&mut it, flag)?),
            "--compare" => {
                let a = value(&mut it, flag)?;
                let b = value(&mut it, flag)?;
                args.compare = Some((a.into(), b.into()));
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.compare.is_none() && args.seed.is_none() {
        return Err("--seed is required".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return match compare::run(a, b) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("compare failed: {e}");
                ExitCode::from(2)
            }
        };
    }
    match &args.workload {
        Some(workload) => run_one(&args, workload),
        None => run_all(&argv),
    }
}

/// Runs every workload in a child process of its own, one at a time.
fn run_all(argv: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate the benchmark executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = Vec::new();
    for workload in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(argv)
            .args(["--workload", workload])
            .status();
        if !status.is_ok_and(|s| s.success()) {
            failed.push(workload);
        }
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("failed workloads: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

fn run_one(args: &Args, workload: &str) -> ExitCode {
    let seed = args.seed.expect("checked by parse_args");
    let run = Run {
        workload: workload.to_string(),
        seed,
        seconds: args.seconds,
        smoke: args.smoke,
        per_layer: args.trace != Some(0),
        spans_dir: Some(args.out.clone()),
    };
    let mut report = Report::default();
    let passes = run_workload(&run, &mut report).expect("workload names are checked");
    let root = std::env::current_dir().unwrap_or_default();
    let header = Header {
        workload: workload.to_string(),
        seed,
        scale: if args.smoke { "smoke" } else { "default" },
        passes,
        host_cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
        profile: if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        revision: report::git_revision(&root),
    };
    for m in &report.metrics {
        println!(
            "{workload} {} {} {}",
            m.name,
            report::number(m.value),
            m.unit
        );
    }
    for c in &report.checks {
        println!(
            "{workload} check {} {} ({} ops)",
            c.name,
            if c.ok { "ok" } else { "FAILED" },
            c.ops
        );
    }
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let stem = args.out.join(format!("{workload}-seed{seed}-{stamp}"));
    let written = std::fs::create_dir_all(&args.out)
        .and_then(|()| {
            std::fs::write(
                stem.with_extension("json"),
                report::to_json(&header, &report),
            )
        })
        .and_then(|()| {
            std::fs::write(stem.with_extension("tsv"), report::to_tsv(&header, &report))
        });
    if let Err(e) = written {
        eprintln!("could not write results under {}: {e}", args.out.display());
    }
    let owned = |list: &[(&str, &'static str)]| -> Vec<(String, &'static str)> {
        list.iter().map(|&(n, u)| (n.to_string(), u)).collect()
    };
    let wanted = match args.trace {
        Some(0) => owned(report::END_TO_END),
        Some(_) => report::per_layer(),
        None => {
            let mut all = owned(report::END_TO_END);
            all.extend(report::per_layer());
            all
        }
    };
    println!("{}", report::result_line(&report, &wanted));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use json::Json;

    fn smoke(workload: &str, seed: u64) -> Report {
        let run = Run {
            workload: workload.to_string(),
            seed,
            seconds: 0.0,
            smoke: true,
            per_layer: true,
            spans_dir: None,
        };
        let mut report = Report::default();
        run_workload(&run, &mut report).expect("known workload");
        report
    }

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
    }

    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .expect("metric list")
            .items()
            .iter()
            .map(|m| {
                let field = |k| {
                    m.get(k)
                        .and_then(Json::str)
                        .expect("name and unit")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_what_the_benchmark_emits() {
        let doc = benchmark_json();
        let e2e: Vec<(String, String)> = report::END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed(&doc, "end_to_end"), e2e);
        let layers: Vec<(String, String)> = report::per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(listed(&doc, "per_layer"), layers);
        let workloads: Vec<&str> = doc
            .get("workloads")
            .expect("workloads")
            .items()
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::str))
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn smoke_runs_emit_every_listed_metric_and_pass_their_checks() {
        let doc = benchmark_json();
        for workload in WORKLOADS {
            let report = smoke(workload, 5);
            for c in &report.checks {
                assert!(c.ok, "{workload}: check {} failed", c.name);
            }
            assert!(!report.checks.is_empty() && report.ops > 0, "{workload}");
            for (name, _) in listed(&doc, "end_to_end") {
                let value = report.value(&name);
                assert!(
                    value.is_some_and(|v| v.is_finite() && v > 0.0),
                    "{workload}: end-to-end {name} = {value:?}"
                );
            }
            for (name, _) in listed(&doc, "per_layer") {
                let metric = report.metrics.iter().find(|m| m.name == name);
                assert!(
                    metric.is_some_and(|m| m.value.is_none_or(f64::is_finite)),
                    "{workload}: per-layer {name} missing or not finite"
                );
            }
        }
    }

    #[test]
    fn smoke_runs_repeat_their_deterministic_metrics_exactly() {
        for workload in WORKLOADS {
            let (a, b) = (smoke(workload, 9), smoke(workload, 9));
            let deterministic = |r: &Report| -> Vec<(String, Option<f64>)> {
                r.metrics
                    .iter()
                    .filter(|m| {
                        matches!(m.unit, "count" | "bytes")
                            || ["quality", "admit_ratio", "sched_auc"].contains(&m.name.as_str())
                    })
                    .map(|m| (m.name.clone(), m.value))
                    .collect()
            };
            let (da, db) = (deterministic(&a), deterministic(&b));
            assert!(
                da.len() > 10,
                "{workload}: only {} deterministic metrics",
                da.len()
            );
            assert_eq!(da, db, "{workload}");
        }
    }

    #[test]
    fn class_counts_sum_to_the_decisions() {
        for workload in ["steady", "overload", "retry_storm"] {
            let report = smoke(workload, 11);
            let classes: f64 = report::CLASSES
                .iter()
                .map(|c| {
                    report
                        .value(&format!("admission.{c}.count"))
                        .expect("class count")
                })
                .sum();
            let requests = 200.0 + if workload == "steady" { 100.0 } else { 0.0 };
            assert_eq!(classes, requests, "{workload}");
        }
    }

    #[test]
    fn arguments_are_checked_where_they_enter() {
        let parse =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        assert!(parse("--seed 7 --workload sweep --seconds 3 --trace 1").is_ok());
        assert!(parse("--workload sweep").unwrap_err().contains("--seed"));
        assert!(parse("--seed x").unwrap_err().contains("u64"));
        assert!(parse("--seed 1 --workload nope")
            .unwrap_err()
            .contains("unknown workload"));
        assert!(parse("--seed 1 --trace 2").is_err());
        assert!(parse("--seed 1 --seconds -1").is_err());
        assert!(parse("--seed 1 --bogus").is_err());
        assert!(parse("--compare a b").is_ok());
    }
}
