//! Golden tests for the observability outputs: `vc2m simulate
//! --metrics-out/--trace-out` and `vc2m sweep --metrics-out`.
//!
//! The metrics JSON is pinned byte-for-byte. That is deliberate: the
//! document is the machine-readable contract (`vc2m-metrics-v1`) that
//! downstream tooling diffs across runs, so any change to the name
//! schema, the key order, or the number formatting must show up here
//! as a conscious golden update — never as silent drift. The pin also
//! re-proves determinism: every value in the document derives from
//! simulated time, so a wall-clock leak or iteration-order change
//! breaks the test immediately.

use std::path::PathBuf;
use vc2m_cli::run;

fn run_capture(args: &[&str]) -> (i32, String) {
    let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let mut buf = Vec::new();
    let code = run(&argv, &mut buf);
    (code, String::from_utf8(buf).expect("utf8 output"))
}

/// A per-test scratch path that is removed on drop, keeping reruns
/// hermetic without any tempdir dependency.
struct ScratchFile(PathBuf);

impl ScratchFile {
    fn new(name: &str) -> Self {
        let path = std::env::temp_dir().join(format!("vc2m-golden-{}-{name}", std::process::id()));
        ScratchFile(path)
    }

    fn as_str(&self) -> &str {
        self.0.to_str().expect("utf8 temp path")
    }

    fn read(&self) -> String {
        std::fs::read_to_string(&self.0).expect("output file written")
    }
}

impl Drop for ScratchFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

const SIMULATE_GOLDEN: &str = r#"{
  "schema": "vc2m-metrics-v1",
  "command": "simulate",
  "runs": [
    {
      "solution": "Baseline (existing CSA)",
      "metrics": {
        "counters": {
          "membw.cores": 1,
          "membw.periods_elapsed": 250,
          "membw.throttles": 0,
          "sim.context.switches": 1,
          "sim.deadline.misses": 0,
          "sim.jobs.completed": 2,
          "sim.jobs.released": 3,
          "sim.throttle.events": 0,
          "sim.trace.dropped": 284,
          "sim.trace.recorded": 0
        },
        "gauges": {
          "membw.period_ms": 1,
          "sim.core0.busy_ms": 237.200125,
          "sim.core0.throttled_ms": 0,
          "sim.horizon_ms": 250
        },
        "histograms": {
          "sim.response_ms.T0": {
            "count": 1,
            "min": 47.700857,
            "avg": 47.700857,
            "max": 47.700857
          },
          "sim.response_ms.T1": {
            "count": 1,
            "min": 122.461298,
            "avg": 122.461298,
            "max": 122.461298
          },
          "sim.response_ms.T2": {
            "count": 0,
            "min": null,
            "avg": null,
            "max": null
          }
        }
      }
    }
  ]
}
"#;

/// The same workload as [`SIMULATE_GOLDEN`] with a seeded fault plan
/// attached (`--fault-seed 7 --fault-count 4`). Pins three contracts
/// at once: the `faults.*` counter family (names and values) is
/// exported exactly when a plan is attached, fault injection is
/// bit-reproducible from the seed, and the injected faults genuinely
/// perturb the run (throttled time appears, T1's response shifts)
/// without breaking the fault-free counters' schema.
const FAULTED_SIMULATE_GOLDEN: &str = r#"{
  "schema": "vc2m-metrics-v1",
  "command": "simulate",
  "runs": [
    {
      "solution": "Baseline (existing CSA)",
      "metrics": {
        "counters": {
          "faults.core_stalls": 1,
          "faults.injected": 4,
          "faults.load_spike_jobs": 0,
          "faults.load_spikes": 0,
          "faults.overrun_jobs": 0,
          "faults.overruns": 3,
          "faults.replenish_delays": 0,
          "faults.throttle_faults": 0,
          "membw.cores": 1,
          "membw.periods_elapsed": 250,
          "membw.throttles": 0,
          "sim.context.switches": 1,
          "sim.deadline.misses": 0,
          "sim.jobs.completed": 2,
          "sim.jobs.released": 3,
          "sim.throttle.events": 1,
          "sim.trace.dropped": 291,
          "sim.trace.recorded": 0
        },
        "gauges": {
          "membw.period_ms": 1,
          "sim.core0.busy_ms": 233.132998,
          "sim.core0.throttled_ms": 4.920452,
          "sim.horizon_ms": 250
        },
        "histograms": {
          "sim.response_ms.T0": {
            "count": 1,
            "min": 47.700857,
            "avg": 47.700857,
            "max": 47.700857
          },
          "sim.response_ms.T1": {
            "count": 1,
            "min": 127.38175,
            "avg": 127.38175,
            "max": 127.38175
          },
          "sim.response_ms.T2": {
            "count": 0,
            "min": null,
            "avg": null,
            "max": null
          }
        }
      }
    }
  ]
}
"#;

const SWEEP_GOLDEN: &str = r#"{
  "schema": "vc2m-metrics-v1",
  "command": "sweep",
  "metrics": {
    "counters": {
      "analysis.checkpoints.emitted": 2760,
      "analysis.checkpoints.fallback_horizons": 0,
      "analysis.checkpoints.merges": 567,
      "analysis.checkpoints.truncated": 0,
      "analysis.kernel.min_budget": 2835,
      "analysis.kernel.vcpu_builds": 567,
      "sweep.points": 10,
      "sweep.solutions": 1,
      "sweep.tasksets.analyzed": 80,
      "sweep.tasksets.schedulable": 23
    },
    "gauges": {
      "sweep.breakdown.Baseline (existing CSA)": 0.4
    },
    "histograms": {}
  }
}
"#;

const SIMULATE_ARGS: &[&str] = &[
    "simulate",
    "--utilization",
    "0.2",
    "--solution",
    "baseline",
    "--horizon-ms",
    "250",
    "--seed",
    "42",
];

#[test]
fn simulate_metrics_json_matches_golden() {
    let file = ScratchFile::new("sim-metrics.json");
    let mut args = SIMULATE_ARGS.to_vec();
    args.extend(["--metrics-out", file.as_str()]);
    let (code, out) = run_capture(&args);
    assert_eq!(code, 0, "output: {out}");
    assert!(out.contains(&format!("wrote {}", file.as_str())));
    assert_eq!(file.read(), SIMULATE_GOLDEN);
}

#[test]
fn faulted_simulate_metrics_json_matches_golden() {
    let file = ScratchFile::new("sim-metrics-faulted.json");
    let mut args = SIMULATE_ARGS.to_vec();
    args.extend([
        "--fault-seed",
        "7",
        "--fault-count",
        "4",
        "--metrics-out",
        file.as_str(),
    ]);
    let (code, out) = run_capture(&args);
    assert_eq!(code, 0, "output: {out}");
    assert!(
        out.contains("injecting 4 faults (seed 7)"),
        "unexpected output: {out}"
    );
    assert_eq!(file.read(), FAULTED_SIMULATE_GOLDEN);
}

#[test]
fn fault_seed_rejects_garbage() {
    let (code, out) = run_capture(&[
        "simulate",
        "--utilization",
        "0.2",
        "--solution",
        "baseline",
        "--fault-seed",
        "not-a-seed",
    ]);
    assert_eq!(code, 2);
    assert!(
        out.contains("--fault-seed must be a u64"),
        "unexpected output: {out}"
    );
}

#[test]
fn simulate_trace_is_deterministic_and_complete() {
    let file = ScratchFile::new("sim-trace.txt");
    let mut args = SIMULATE_ARGS.to_vec();
    args.extend(["--trace-out", file.as_str()]);
    let (code, _) = run_capture(&args);
    assert_eq!(code, 0);
    let trace = file.read();
    let mut lines = trace.lines();
    // Header carries the recorded/dropped accounting; under the 4096
    // ring nothing is dropped at this horizon, so every emitted event
    // is on disk: one line per record plus the header.
    assert_eq!(
        lines.next(),
        Some("# Baseline (existing CSA) (284 recorded, 0 dropped)")
    );
    assert_eq!(lines.next(), Some("[0.000000ms] run V0 task T2 for 15.463730ms"));
    assert_eq!(trace.lines().count(), 285);
    assert_eq!(trace.lines().last(), Some("[250.000000ms] refill woke 0 cores"));
}

#[test]
fn simulate_metrics_agree_between_traced_and_untraced_runs() {
    // The report-level conformance lives in the hypervisor tests; this
    // pins it end to end: enabling the trace ring must change nothing
    // in the metrics document except the recorded/dropped split, whose
    // total is the invariant number of emitted events.
    let plain = ScratchFile::new("sim-metrics-plain.json");
    let traced = ScratchFile::new("sim-metrics-traced.json");
    let trace = ScratchFile::new("sim-trace-side.txt");

    let mut args = SIMULATE_ARGS.to_vec();
    args.extend(["--metrics-out", plain.as_str()]);
    assert_eq!(run_capture(&args).0, 0);

    let mut args = SIMULATE_ARGS.to_vec();
    args.extend(["--metrics-out", traced.as_str(), "--trace-out", trace.as_str()]);
    assert_eq!(run_capture(&args).0, 0);

    let normalize = |text: String| -> (Vec<String>, u64) {
        let mut total = 0;
        let kept = text
            .lines()
            .filter(|line| {
                let split = line.trim().strip_prefix("\"sim.trace.recorded\": ").or_else(|| {
                    line.trim().strip_prefix("\"sim.trace.dropped\": ")
                });
                match split {
                    Some(value) => {
                        total += value
                            .trim_end_matches(',')
                            .parse::<u64>()
                            .expect("integer counter");
                        false
                    }
                    None => true,
                }
            })
            .map(str::to_string)
            .collect();
        (kept, total)
    };
    let (plain_doc, plain_events) = normalize(plain.read());
    let (traced_doc, traced_events) = normalize(traced.read());
    assert_eq!(plain_doc, traced_doc);
    assert_eq!(plain_events, traced_events);
    assert_eq!(plain_events, 284);
}

#[test]
fn sweep_metrics_json_matches_golden() {
    let file = ScratchFile::new("sweep-metrics.json");
    let (code, out) = run_capture(&[
        "sweep",
        "--solution",
        "baseline",
        "--seed",
        "42",
        "--threads",
        "2",
        "--metrics-out",
        file.as_str(),
    ]);
    assert_eq!(code, 0, "output: {out}");
    assert!(out.contains(&format!("wrote {}", file.as_str())));
    assert_eq!(file.read(), SWEEP_GOLDEN);
}

#[test]
fn metrics_out_reports_unwritable_path() {
    let (code, out) = run_capture(&[
        "simulate",
        "--utilization",
        "0.2",
        "--horizon-ms",
        "250",
        "--solution",
        "baseline",
        "--metrics-out",
        "/nonexistent-dir/metrics.json",
    ]);
    assert_eq!(code, 2);
    assert!(
        out.contains("cannot write /nonexistent-dir/metrics.json"),
        "unexpected output: {out}"
    );
}
