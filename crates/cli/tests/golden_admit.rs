//! Golden tests for `vc2m admit`: the committed 50-request trace at
//! `tests/data/admit_50.trace` is replayed through the streaming
//! admission engine and both outputs are pinned byte-for-byte — the
//! decision log (`--report-out`) and the `admission.*` metrics
//! document (`--metrics-out`, schema `vc2m-metrics-v1`).
//!
//! The pins are the CLI-level half of the determinism guarantee: the
//! same trace and seed must produce the identical decision log on
//! every machine and every run, so any change to the engine's
//! placement order, verdict rendering, float formatting, or metric
//! names must show up here as a conscious golden update. The
//! reference-mode replay additionally re-proves the differential
//! contract end to end: the slow oracle engine emits the exact same
//! log bytes as the warm-start engine.

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
        let path = std::env::temp_dir().join(format!("vc2m-admit-{}-{name}", std::process::id()));
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

/// The committed trace, resolved relative to this crate.
fn trace_path() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/admit_50.trace");
    path.to_str().expect("utf8 path").to_string()
}

const REPORT_GOLDEN: &str = "\
#00000 arrive vm=1 u=0.206838 -> admitted/incremental | vms=1 vcpus=3 cores=1 load=0.206838
#00001 arrive vm=2 u=0.237193 -> admitted/incremental | vms=2 vcpus=10 cores=1 load=0.444031
#00002 arrive vm=5 u=0.232248 -> admitted/incremental | vms=3 vcpus=14 cores=1 load=0.676279
#00003 arrive vm=4 u=0.201503 -> admitted/incremental | vms=4 vcpus=18 cores=1 load=0.877782
#00004 arrive vm=3 u=0.128844 -> admitted/repack | vms=5 vcpus=21 cores=2 load=1.006626
#00005 arrive vm=6 u=0.217524 -> admitted/incremental | vms=6 vcpus=27 cores=2 load=1.224151
#00006 mode vm=4 u=0.182100 -> admitted/incremental | vms=6 vcpus=26 cores=2 load=1.204747
#00007 arrive vm=7 u=0.211871 -> admitted/repack | vms=7 vcpus=29 cores=2 load=1.416618
#00008 arrive vm=8 u=0.315959 -> rejected (workload not schedulable) | vms=7 vcpus=29 cores=2 load=1.416618
#00009 arrive vm=9 u=0.260077 -> rejected (workload not schedulable) | vms=7 vcpus=29 cores=2 load=1.416618
#00010 arrive vm=10 u=0.135253 -> rejected (workload not schedulable) | vms=7 vcpus=29 cores=2 load=1.416618
#00011 arrive vm=11 u=0.164946 -> rejected (workload not schedulable) | vms=7 vcpus=29 cores=2 load=1.416618
#00012 arrive vm=12 u=0.115398 -> rejected (workload not schedulable) | vms=7 vcpus=29 cores=2 load=1.416618
#00013 depart vm=5 u=0.232248 -> departed | vms=6 vcpus=25 cores=2 load=1.184370
#00014 arrive vm=13 u=0.252952 -> admitted/repack | vms=7 vcpus=30 cores=4 load=1.437322
#00015 depart vm=6 u=0.217524 -> departed | vms=6 vcpus=24 cores=4 load=1.219798
#00016 arrive vm=14 u=0.098322 -> admitted/incremental | vms=7 vcpus=26 cores=4 load=1.318120
#00017 arrive vm=15 u=0.094620 -> admitted/incremental | vms=8 vcpus=30 cores=4 load=1.412740
#00018 arrive vm=16 u=0.275826 -> rejected (workload not schedulable) | vms=8 vcpus=30 cores=4 load=1.412740
#00019 depart vm=9 u=0.000000 -> rejected (vm 9 not admitted) | vms=8 vcpus=30 cores=4 load=1.412740
#00020 depart vm=1 u=0.206838 -> departed | vms=7 vcpus=27 cores=4 load=1.205902
#00021 mode vm=14 u=0.271812 -> admitted/incremental | vms=7 vcpus=30 cores=4 load=1.379392
#00022 arrive vm=18 u=0.278349 -> rejected (workload not schedulable) | vms=7 vcpus=30 cores=4 load=1.379392
#00023 arrive vm=17 u=0.086363 -> rejected (workload not schedulable) | vms=7 vcpus=30 cores=4 load=1.379392
#00024 depart vm=13 u=0.252952 -> departed | vms=6 vcpus=25 cores=4 load=1.126440
#00025 arrive vm=20 u=0.140549 -> admitted/incremental | vms=7 vcpus=28 cores=4 load=1.266989
#00026 arrive vm=19 u=0.136428 -> admitted/incremental | vms=8 vcpus=30 cores=4 load=1.403417
#00027 depart vm=10 u=0.000000 -> rejected (vm 10 not admitted) | vms=8 vcpus=30 cores=4 load=1.403417
#00028 depart vm=2 u=0.237193 -> departed | vms=7 vcpus=23 cores=4 load=1.166224
#00029 arrive vm=21 u=0.286585 -> admitted/incremental | vms=8 vcpus=30 cores=4 load=1.452809
#00030 depart vm=20 u=0.140549 -> departed | vms=7 vcpus=27 cores=4 load=1.312260
#00031 depart vm=21 u=0.286585 -> departed | vms=6 vcpus=20 cores=4 load=1.025675
#00032 depart vm=3 u=0.128844 -> departed | vms=5 vcpus=17 cores=4 load=0.896831
#00033 depart vm=17 u=0.000000 -> rejected (vm 17 not admitted) | vms=5 vcpus=17 cores=4 load=0.896831
#00034 arrive vm=22 u=0.270794 -> admitted/incremental | vms=6 vcpus=22 cores=4 load=1.167625
#00035 arrive vm=23 u=0.202699 -> admitted/incremental | vms=7 vcpus=29 cores=4 load=1.370324
#00036 depart vm=23 u=0.202699 -> departed | vms=6 vcpus=22 cores=4 load=1.167625
#00037 depart vm=4 u=0.182100 -> departed | vms=5 vcpus=19 cores=4 load=0.985525
#00038 arrive vm=24 u=0.277978 -> admitted/incremental | vms=6 vcpus=27 cores=4 load=1.263503
#00039 arrive vm=25 u=0.151723 -> rejected (workload not schedulable) | vms=6 vcpus=27 cores=4 load=1.263503
#00040 depart vm=18 u=0.000000 -> rejected (vm 18 not admitted) | vms=6 vcpus=27 cores=4 load=1.263503
#00041 arrive vm=26 u=0.142123 -> admitted/incremental | vms=7 vcpus=32 cores=4 load=1.405626
#00042 depart vm=26 u=0.142123 -> departed | vms=6 vcpus=27 cores=4 load=1.263503
#00043 arrive vm=27 u=0.139479 -> admitted/incremental | vms=7 vcpus=29 cores=4 load=1.402982
#00044 arrive vm=30 u=0.295840 -> rejected (workload not schedulable) | vms=7 vcpus=29 cores=4 load=1.402982
#00045 arrive vm=28 u=0.105572 -> rejected (workload not schedulable) | vms=7 vcpus=29 cores=4 load=1.402982
#00046 arrive vm=29 u=0.070749 -> rejected (workload not schedulable) | vms=7 vcpus=29 cores=4 load=1.402982
#00047 depart vm=12 u=0.000000 -> rejected (vm 12 not admitted) | vms=7 vcpus=29 cores=4 load=1.402982
#00048 depart vm=22 u=0.270794 -> departed | vms=6 vcpus=24 cores=4 load=1.132188
#00049 arrive vm=31 u=0.108251 -> admitted/incremental | vms=7 vcpus=26 cores=4 load=1.240440
";

const METRICS_GOLDEN: &str = r#"{
  "schema": "vc2m-metrics-v1",
  "command": "admit",
  "metrics": {
    "counters": {
      "admission.admitted_incremental": 18,
      "admission.admitted_repack": 3,
      "admission.batches": 5,
      "admission.capacity_rejects": 0,
      "admission.core_upgrades": 43,
      "admission.cores_opened": 1,
      "admission.degraded": 0,
      "admission.departed": 12,
      "admission.dirty_cores_verified": 37,
      "admission.full_verifies": 0,
      "admission.memo_hits": 0,
      "admission.memo_inserts": 12,
      "admission.memo_invalidations": 5,
      "admission.rejected": 17,
      "admission.repack_attempts": 15,
      "admission.requests": 50
    },
    "gauges": {
      "admission.cores": 4,
      "admission.load": 1.2404396366831993,
      "admission.vcpus": 26,
      "admission.vms": 7
    },
    "histograms": {}
  }
}
"#;

/// A trace line whose utilization rounds to zero milli-units is a
/// parse error, not a generator panic: the real binary exits with the
/// CLI's error code and a line-numbered message.
#[test]
fn zero_utilization_trace_is_a_line_numbered_error_not_a_panic() {
    let trace = ScratchFile::new("zero.trace");
    std::fs::write(&trace.0, "arrive 1 0.000 5\n").expect("trace written");
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_vc2m"))
        .args(["admit", "--trace-in", trace.as_str()])
        .output()
        .expect("vc2m runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(
        output.status.code(),
        Some(2),
        "stdout: {stdout}\nstderr: {stderr}"
    );
    assert!(
        stdout.contains("line 1") && stdout.contains("rounds to zero"),
        "{stdout}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn admit_report_matches_golden() {
    let report = ScratchFile::new("report.log");
    let (code, out) = run_capture(&[
        "admit",
        "--trace-in",
        &trace_path(),
        "--seed",
        "42",
        "--report-out",
        report.as_str(),
    ]);
    assert_eq!(code, 0, "output: {out}");
    assert!(out.contains(&format!("wrote {}", report.as_str())));
    assert_eq!(report.read(), REPORT_GOLDEN);
}

#[test]
fn admit_metrics_json_matches_golden() {
    let metrics = ScratchFile::new("metrics.json");
    let (code, out) = run_capture(&[
        "admit",
        "--trace-in",
        &trace_path(),
        "--seed",
        "42",
        "--metrics-out",
        metrics.as_str(),
    ]);
    assert_eq!(code, 0, "output: {out}");
    assert_eq!(metrics.read(), METRICS_GOLDEN);
}

#[test]
fn admit_reference_engine_emits_identical_report() {
    // The CLI-level differential check: the slow oracle (full verify
    // everywhere, no memo or state cache) replays the committed trace
    // to the exact same decision-log bytes as the warm-start engine.
    let report = ScratchFile::new("reference-report.log");
    let (code, out) = run_capture(&[
        "admit",
        "--trace-in",
        &trace_path(),
        "--seed",
        "42",
        "--reference",
        "--report-out",
        report.as_str(),
    ]);
    assert_eq!(code, 0, "output: {out}");
    assert!(out.contains("(reference mode)"));
    assert_eq!(report.read(), REPORT_GOLDEN);
}

#[test]
fn committed_trace_regenerates_from_its_seed() {
    // `--requests 50 --seed 42` is how tests/data/admit_50.trace was
    // produced; the generator must keep reproducing it byte-for-byte,
    // or the committed trace and the documented provenance diverge.
    let trace = ScratchFile::new("regen.trace");
    let (code, out) = run_capture(&[
        "admit",
        "--requests",
        "50",
        "--seed",
        "42",
        "--trace-out",
        trace.as_str(),
    ]);
    assert_eq!(code, 0, "output: {out}");
    let committed = std::fs::read_to_string(trace_path()).expect("committed trace");
    assert_eq!(trace.read(), committed);
}

#[test]
fn admit_summary_agrees_with_the_pinned_log() {
    let (code, out) = run_capture(&["admit", "--trace-in", &trace_path(), "--seed", "42"]);
    assert_eq!(code, 0, "output: {out}");
    assert!(
        out.contains("admitted 21 (18 incremental, 3 repack), rejected 17 (0 at capacity), degraded 0, departed 12"),
        "unexpected summary: {out}"
    );
    assert!(out.contains("final state: 7 VMs on 4 cores"), "{out}");
}
