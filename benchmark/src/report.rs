//! What one workload run reports, and how it is written out.

use std::fmt::Write as _;
use std::path::Path;

/// Schema tag every output file carries.
pub const SCHEMA: &str = "vc2m-benchmark-v1";

/// The end-to-end metrics, as listed in `BENCHMARK.json`: every
/// workload reports each of them on its untraced passes.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_tail_us", "us"),
    ("quality", "fraction"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Admission decision classes, in report order.
pub const CLASSES: [&str; 10] = [
    "arrive_incremental",
    "arrive_repack",
    "arrive_reject_solver",
    "arrive_reject_memo",
    "arrive_reject_fast",
    "mode_admitted",
    "mode_degraded",
    "depart_ok",
    "depart_unknown",
    "batch",
];

/// Classes whose calls run the solver, with per-class kernel counts.
pub const SOLVER_CLASSES: [&str; 3] = ["arrive_repack", "arrive_reject_solver", "mode_degraded"];

/// Engine counters reported as per-layer counts.
pub const ENGINE_COUNTERS: [&str; 7] = [
    "dirty_cores_verified",
    "repack_attempts",
    "memo_hits",
    "memo_inserts",
    "memo_invalidations",
    "core_upgrades",
    "cores_opened",
];

/// Short solution names used in metric names.
pub const SOLUTIONS: [&str; 5] = [
    "flattening",
    "overhead_free",
    "existing",
    "even",
    "baseline",
];

/// Schedulability-kernel counters.
pub const KERNEL_COUNTERS: [&str; 8] = [
    "checkpoint_merges",
    "checkpoints_emitted",
    "checkpoints_truncated",
    "fallback_horizons",
    "can_schedule_calls",
    "min_budget_calls",
    "solver_calls",
    "vcpu_builds",
];

/// Simulator handler kinds, in the paper's table order.
pub const HANDLERS: [&str; 5] = [
    "throttle",
    "bw_replenish",
    "cpu_replenish",
    "scheduling",
    "context_switch",
];

/// The per-layer metrics listed in `BENCHMARK.json`: every workload
/// reports each of them on its traced pass. Layers a workload does not
/// exercise read 0 (a count of nothing, or a zero share of busy time);
/// layer times are given as shares of the traced pass's busy time so
/// that every entry is meaningful on every workload.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = vec![
        ("traced.busy_s".into(), "s"),
        ("workload.generate_s".into(), "s"),
        ("trace_overhead_pct".into(), "%"),
    ];
    for class in CLASSES {
        out.push((format!("admission.{class}.count"), "count"));
        out.push((format!("admission.{class}.busy_share"), "fraction"));
    }
    for class in SOLVER_CLASSES {
        out.push((format!("admission.{class}.min_budget_calls"), "count"));
        out.push((format!("admission.{class}.can_schedule_calls"), "count"));
    }
    for counter in ENGINE_COUNTERS {
        out.push((format!("admission.{counter}"), "count"));
    }
    out.push(("admission.memo_hit_ratio".into(), "fraction"));
    out.push(("admission.incremental_share".into(), "fraction"));
    out.push(("fleet.route.busy_share".into(), "fraction"));
    for counter in ["best_fit_routes", "retry_routes", "saturated_routes"] {
        out.push((format!("fleet.{counter}"), "count"));
    }
    out.push(("fleet.host_skew".into(), "fraction"));
    for stage in ["append", "render", "parse", "replay"] {
        out.push((format!("recovery.{stage}.busy_share"), "fraction"));
    }
    out.push(("recovery.journal_bytes".into(), "bytes"));
    for sol in SOLUTIONS {
        out.push((format!("solution.{sol}.vm_level_share"), "fraction"));
        out.push((format!("solution.{sol}.hv_level_share"), "fraction"));
        out.push((format!("solution.{sol}.min_budget_calls"), "count"));
        out.push((format!("solution.{sol}.schedulable"), "count"));
    }
    for counter in KERNEL_COUNTERS {
        out.push((format!("sched.kernel.{counter}"), "count"));
    }
    for counter in ["jobs", "context_switches", "throttles"] {
        out.push((format!("sim.{counter}"), "count"));
    }
    out.push(("sim.build_share".into(), "fraction"));
    out.push(("sim.run_share".into(), "fraction"));
    for kind in HANDLERS {
        out.push((format!("sim.handler.{kind}.count"), "count"));
    }
    out
}

/// One reported metric. `None` prints as `null`.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: Option<f64>,
}

/// One correctness check over `ops` operations.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// Operations the check covered.
    pub ops: u64,
}

/// Everything one workload run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics in emission order.
    pub metrics: Vec<Metric>,
    /// Correctness checks.
    pub checks: Vec<Check>,
    /// Operations performed by the timed passes.
    pub ops: u64,
}

impl Report {
    /// Records a metric (replacing an earlier one of the same name).
    pub fn put(&mut self, name: impl Into<String>, unit: &'static str, value: Option<f64>) {
        let name = name.into();
        match self.metrics.iter_mut().find(|m| m.name == name) {
            Some(m) => {
                m.unit = unit;
                m.value = value;
            }
            None => self.metrics.push(Metric { name, unit, value }),
        }
    }

    /// Records a metric that always has a value.
    pub fn set(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.put(name, unit, Some(value));
    }

    /// The value of metric `name`, if reported and not null.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .and_then(|m| m.value)
    }

    /// Records a check.
    pub fn check(&mut self, name: &'static str, ok: bool, ops: u64) {
        self.checks.push(Check { name, ok, ops });
    }

    /// Whether every check held.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// Operations covered by failed checks, capped at `ops`.
    pub fn ops_failed(&self) -> u64 {
        self.checks
            .iter()
            .filter(|c| !c.ok)
            .map(|c| c.ops)
            .sum::<u64>()
            .min(self.ops)
    }

    /// Fills every listed per-layer metric the workload did not touch
    /// with 0: the layer did no work on this workload.
    pub fn zero_untouched_layers(&mut self) {
        for (name, unit) in per_layer() {
            if !self.metrics.iter().any(|m| m.name == name) {
                self.set(name, unit, 0.0);
            }
        }
    }
}

/// The run header every output file starts with.
#[derive(Debug, Clone)]
pub struct Header {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// `default` or `smoke`.
    pub scale: &'static str,
    /// Timed passes run.
    pub passes: usize,
    /// CPUs available to the process.
    pub host_cpus: usize,
    /// `release` or `debug`.
    pub profile: &'static str,
    /// Git revision of the checkout, or `unknown`.
    pub revision: String,
}

impl Header {
    fn pairs(&self) -> Vec<(&'static str, String)> {
        vec![
            ("schema", SCHEMA.to_string()),
            ("workload", self.workload.clone()),
            ("seed", self.seed.to_string()),
            ("scale", self.scale.to_string()),
            ("passes", self.passes.to_string()),
            ("host_cpus", self.host_cpus.to_string()),
            ("profile", self.profile.to_string()),
            ("revision", self.revision.clone()),
        ]
    }
}

/// The git revision of the repository at `root`, read from
/// `.git/HEAD` (following one symbolic ref, loose or packed).
pub fn git_revision(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (id, name) = line.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Renders a number with all its digits, or `null`.
pub fn number(value: Option<f64>) -> String {
    match value {
        Some(v) if v.is_finite() => format!("{v:?}"),
        _ => "null".to_string(),
    }
}

fn quoted(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The run as a JSON document.
pub fn to_json(header: &Header, report: &Report) -> String {
    let mut out = String::from("{\n");
    for (key, value) in header.pairs() {
        let rendered = match key {
            "seed" | "passes" | "host_cpus" => value,
            _ => quoted(&value),
        };
        let _ = writeln!(out, "  {}: {},", quoted(key), rendered);
    }
    let _ = writeln!(out, "  \"correct\": {},", report.correct());
    let _ = writeln!(out, "  \"ops\": {},", report.ops);
    let _ = writeln!(out, "  \"ops_failed\": {},", report.ops_failed());
    out.push_str("  \"checks\": [\n");
    for (i, c) in report.checks.iter().enumerate() {
        let comma = if i + 1 < report.checks.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"ok\": {}, \"ops\": {}}}{comma}",
            quoted(c.name),
            c.ok,
            c.ops
        );
    }
    out.push_str("  ],\n  \"metrics\": {\n");
    for (i, m) in report.metrics.iter().enumerate() {
        let comma = if i + 1 < report.metrics.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "    {}: {{\"value\": {}, \"unit\": {}}}{comma}",
            quoted(&m.name),
            number(m.value),
            quoted(m.unit)
        );
    }
    out.push_str("  }\n}\n");
    out
}

/// The run as a flat TSV: `# key=value` header lines, then one
/// `workload metric unit value` row per metric.
pub fn to_tsv(header: &Header, report: &Report) -> String {
    let mut out = String::new();
    for (key, value) in header.pairs() {
        let _ = writeln!(out, "# {key}={value}");
    }
    let _ = writeln!(out, "# correct={}", report.correct());
    let _ = writeln!(
        out,
        "# ops={} ops_failed={}",
        report.ops,
        report.ops_failed()
    );
    out.push_str("workload\tmetric\tunit\tvalue\n");
    for m in &report.metrics {
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}",
            header.workload,
            m.name,
            m.unit,
            number(m.value)
        );
    }
    out
}

/// The one-line result: `correct`, `attempted`, `failed` and the
/// `(name, unit)` metrics requested.
pub fn result_line(report: &Report, wanted: &[(String, &'static str)]) -> String {
    let metrics: Vec<String> = wanted
        .iter()
        .map(|(name, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quoted(name),
                number(report.value(name)),
                quoted(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.ops.max(1),
        report.ops_failed(),
        metrics.join(", ")
    )
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_names_are_unique() {
        let names = per_layer();
        let mut unique: Vec<&String> = names.iter().map(|(n, _)| n).collect();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
        assert!(names.len() <= 128);
    }

    #[test]
    fn result_line_renders_null_and_counts() {
        let mut report = Report::default();
        report.set("a", "s", 1.25);
        report.check("x", false, 3);
        report.ops = 10;
        let line = result_line(
            &report,
            &[("a".to_string(), "s"), ("b".to_string(), "count")],
        );
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 10, \"failed\": 3, \"metrics\": \
             {\"a\": {\"value\": 1.25, \"unit\": \"s\"}, \"b\": {\"value\": null, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn git_revision_follows_symbolic_refs() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("target")
            .join(format!("git-revision-test-{}", std::process::id()));
        let git = dir.join(".git/refs/heads");
        std::fs::create_dir_all(&git).unwrap();
        std::fs::write(dir.join(".git/HEAD"), "ref: refs/heads/main\n").unwrap();
        assert_eq!(git_revision(&dir), "unknown");
        std::fs::write(
            dir.join(".git/packed-refs"),
            "# pack\nabc123 refs/heads/main\n",
        )
        .unwrap();
        assert_eq!(git_revision(&dir), "abc123");
        std::fs::write(git.join("main"), "def456\n").unwrap();
        assert_eq!(git_revision(&dir), "def456");
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(git_revision(&dir), "unknown");
    }
}
