//! Minimal wall-clock measurement harness for the `[[bench]]` targets.
//!
//! The bench targets are plain `fn main()` programs (`harness = false`)
//! that time their hot paths with [`std::time::Instant`] and print
//! paper-style `min | avg | max` rows. Compared to a statistical
//! harness this trades confidence intervals for zero dependencies and
//! deterministic iteration counts; the reproduction targets are
//! order-of-magnitude *shapes* (see each bench's module docs), which
//! min/avg/max over a few hundred iterations resolves comfortably.
//!
//! `VC2M_BENCH_ITERS=<n>` overrides every measurement's iteration
//! count (e.g. a quick smoke value of 1 in CI).
//!
//! Besides the human-readable rows, benches that feed automated
//! tracking (e.g. `sweep_scaling` → `results/BENCH_sweep.json`) render
//! machine-readable JSON through [`JsonBuilder`] / [`json_array`] — a
//! hand-rolled writer covering exactly the subset the benches emit,
//! since the workspace's dependency policy admits no serialization
//! crates.

use std::time::Instant;

/// Timing summary of one measured routine.
#[derive(Debug, Clone)]
pub struct Measurement {
    name: String,
    iters: u64,
    min_ns: f64,
    total_ns: f64,
    max_ns: f64,
}

impl Measurement {
    /// The routine's label.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Iterations actually measured (after the override).
    pub fn iters(&self) -> u64 {
        self.iters
    }

    /// Fastest iteration, in microseconds.
    pub fn min_us(&self) -> f64 {
        self.min_ns / 1e3
    }

    /// Mean iteration, in microseconds.
    pub fn avg_us(&self) -> f64 {
        self.total_ns / self.iters as f64 / 1e3
    }

    /// Slowest iteration, in microseconds.
    pub fn max_us(&self) -> f64 {
        self.max_ns / 1e3
    }

    /// Formats the paper-style row: `name  min | avg | max  us`.
    pub fn row(&self) -> String {
        format!(
            "{:<40} min {:>10.3} | avg {:>10.3} | max {:>10.3}  us  ({} iters)",
            self.name,
            self.min_us(),
            self.avg_us(),
            self.max_us(),
            self.iters
        )
    }

    /// Renders the measurement as a JSON object (microsecond stats).
    pub fn json(&self) -> String {
        JsonBuilder::new()
            .str("name", &self.name)
            .int("iters", self.iters)
            .num("min_us", self.min_us())
            .num("avg_us", self.avg_us())
            .num("max_us", self.max_us())
            .build()
    }
}

/// Builds one JSON object, member by member, in insertion order.
///
/// Rendering is pretty-printed with two-space indentation; nested
/// objects and arrays passed through [`JsonBuilder::raw`] are
/// re-indented line by line, so composing builders yields uniformly
/// indented documents. Numbers use Rust's shortest-roundtrip `{}`
/// formatting; non-finite floats become `null` (JSON has no NaN).
#[derive(Debug, Clone, Default)]
pub struct JsonBuilder {
    members: Vec<(String, String)>,
}

impl JsonBuilder {
    /// An empty object (`{}` until members are added).
    pub fn new() -> Self {
        JsonBuilder::default()
    }

    /// Adds a string member (escaped).
    pub fn str(self, key: &str, value: &str) -> Self {
        let rendered = format!("\"{}\"", escape_json(value));
        self.raw(key, rendered)
    }

    /// Adds a floating-point member; non-finite values become `null`.
    pub fn num(self, key: &str, value: f64) -> Self {
        let rendered = if value.is_finite() {
            format!("{value}")
        } else {
            "null".to_string()
        };
        self.raw(key, rendered)
    }

    /// Adds an unsigned-integer member.
    pub fn int(self, key: &str, value: u64) -> Self {
        self.raw(key, value.to_string())
    }

    /// Adds a boolean member.
    pub fn bool(self, key: &str, value: bool) -> Self {
        self.raw(key, value.to_string())
    }

    /// Adds an already-rendered JSON value (nested object or array).
    pub fn raw(mut self, key: &str, rendered: String) -> Self {
        self.members.push((key.to_string(), rendered));
        self
    }

    /// Renders the object.
    pub fn build(self) -> String {
        if self.members.is_empty() {
            return "{}".to_string();
        }
        let mut out = String::from("{\n");
        let last = self.members.len() - 1;
        for (i, (key, value)) in self.members.iter().enumerate() {
            out.push_str("  \"");
            out.push_str(&escape_json(key));
            out.push_str("\": ");
            out.push_str(&value.replace('\n', "\n  "));
            if i < last {
                out.push(',');
            }
            out.push('\n');
        }
        out.push('}');
        out
    }
}

/// Renders already-rendered JSON values as a pretty-printed array.
pub fn json_array(items: impl IntoIterator<Item = String>) -> String {
    let items: Vec<String> = items.into_iter().collect();
    if items.is_empty() {
        return "[]".to_string();
    }
    let mut out = String::from("[\n");
    let last = items.len() - 1;
    for (i, item) in items.iter().enumerate() {
        out.push_str("  ");
        out.push_str(&item.replace('\n', "\n  "));
        if i < last {
            out.push(',');
        }
        out.push('\n');
    }
    out.push(']');
    out
}

/// Renders a [`MetricsRegistry`](vc2m::simcore::MetricsRegistry) as one
/// schema-stable JSON object:
///
/// ```json
/// {
///   "counters": { "name": 1, ... },
///   "gauges": { "name": 0.5, ... },
///   "histograms": { "name": { "count": 2, "min": ..., "avg": ..., "max": ... }, ... }
/// }
/// ```
///
/// All three sections are always present (empty objects when unused)
/// and iterate in name order, so the rendered text is byte-identical
/// run to run for equal registries — the property the CLI golden tests
/// pin for `--metrics-out`.
pub fn metrics_json(metrics: &vc2m::simcore::MetricsRegistry) -> String {
    let counters = metrics
        .counters()
        .fold(JsonBuilder::new(), |b, (name, value)| b.int(name, value))
        .build();
    let gauges = metrics
        .gauges()
        .fold(JsonBuilder::new(), |b, (name, value)| b.num(name, value))
        .build();
    let histograms = metrics
        .histograms()
        .fold(JsonBuilder::new(), |b, (name, summary)| {
            let rendered = JsonBuilder::new()
                .int("count", summary.count())
                .num("min", summary.min().unwrap_or(f64::NAN))
                .num("avg", summary.avg().unwrap_or(f64::NAN))
                .num("max", summary.max().unwrap_or(f64::NAN))
                .build();
            b.raw(name, rendered)
        })
        .build();
    JsonBuilder::new()
        .raw("counters", counters)
        .raw("gauges", gauges)
        .raw("histograms", histograms)
        .build()
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

fn iteration_count(default_iters: u64) -> u64 {
    match std::env::var("VC2M_BENCH_ITERS") {
        Ok(raw) => raw
            .parse()
            .unwrap_or_else(|_| panic!("VC2M_BENCH_ITERS must be a u64, got {raw:?}")),
        Err(_) => default_iters,
    }
    .max(1)
}

/// Times `routine` for `default_iters` iterations (plus an untimed
/// warmup of one tenth) and prints the resulting row.
///
/// The routine's return value is passed through [`std::hint::black_box`]
/// so the work is not optimized away.
pub fn run<T>(name: &str, default_iters: u64, mut routine: impl FnMut() -> T) -> Measurement {
    run_batched(name, default_iters, || (), |()| routine())
}

/// Like [`run`], but re-creates mutable input state with `setup`
/// before every iteration; only `routine` is timed.
///
/// This is the shape the regulator and scheduler benches need, where
/// the routine mutates its input (a drained ready queue, a throttled
/// regulator) and must start each iteration from a fresh state.
pub fn run_batched<S, T>(
    name: &str,
    default_iters: u64,
    setup: impl FnMut() -> S,
    mut routine: impl FnMut(&mut S) -> T,
) -> Measurement {
    run_consuming(name, default_iters, setup, |mut state| routine(&mut state))
}

/// Like [`run_batched`], but the routine takes the per-iteration state
/// by value — for routines that consume their input (e.g. a simulator
/// whose `run` takes `self`). Dropping the state happens outside the
/// timed region.
pub fn run_consuming<S, T>(
    name: &str,
    default_iters: u64,
    mut setup: impl FnMut() -> S,
    mut routine: impl FnMut(S) -> T,
) -> Measurement {
    let iters = iteration_count(default_iters);
    let warmup = (iters / 10).clamp(1, 100);
    for _ in 0..warmup {
        let state = setup();
        std::hint::black_box(routine(state));
    }

    let mut min_ns = f64::INFINITY;
    let mut max_ns = 0.0f64;
    let mut total_ns = 0.0f64;
    for _ in 0..iters {
        let state = setup();
        let start = Instant::now();
        let out = routine(state);
        let elapsed = start.elapsed().as_nanos() as f64;
        std::hint::black_box(out);
        min_ns = min_ns.min(elapsed);
        max_ns = max_ns.max(elapsed);
        total_ns += elapsed;
    }

    let measurement = Measurement {
        name: name.to_string(),
        iters,
        min_ns,
        total_ns,
        max_ns,
    };
    println!("{}", measurement.row());
    measurement
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurement_statistics_are_consistent() {
        let m = run("noop", 32, || 1 + 1);
        assert_eq!(m.iters(), 32);
        assert!(m.min_us() <= m.avg_us() && m.avg_us() <= m.max_us());
        assert!(m.row().contains("noop"));
    }

    #[test]
    fn batched_setup_runs_per_iteration() {
        use std::cell::Cell;
        let setups = Cell::new(0u64);
        let m = run_batched(
            "counting",
            8,
            || setups.set(setups.get() + 1),
            |()| (),
        );
        // Warmup iterations also call setup, so at least `iters` total.
        assert!(setups.get() >= m.iters());
    }

    #[test]
    fn json_builder_renders_members_in_order() {
        let json = JsonBuilder::new()
            .str("name", "quick")
            .int("units", 72)
            .num("speedup", 1.5)
            .bool("cache", true)
            .build();
        assert_eq!(
            json,
            "{\n  \"name\": \"quick\",\n  \"units\": 72,\n  \"speedup\": 1.5,\n  \"cache\": true\n}"
        );
        assert_eq!(JsonBuilder::new().build(), "{}");
    }

    #[test]
    fn json_builder_escapes_and_nulls() {
        let json = JsonBuilder::new()
            .str("path", "a\\b\"c\nd\u{1}")
            .num("nan", f64::NAN)
            .num("inf", f64::INFINITY)
            .build();
        assert!(json.contains("\"a\\\\b\\\"c\\nd\\u0001\""));
        assert!(json.contains("\"nan\": null"));
        assert!(json.contains("\"inf\": null"));
    }

    #[test]
    fn json_nesting_reindents() {
        let inner = JsonBuilder::new().int("x", 1).build();
        let arr = json_array([inner.clone(), inner.clone()]);
        assert_eq!(json_array(Vec::<String>::new()), "[]");
        let outer = JsonBuilder::new().raw("runs", arr).build();
        // Every line of the nested object gains one indent level per
        // wrapping, so the innermost member sits at three levels.
        assert!(outer.contains("\n      \"x\": 1"));
        assert!(outer.ends_with("  ]\n}"));
    }

    #[test]
    fn metrics_json_is_schema_stable() {
        use vc2m::simcore::MetricsRegistry;
        let mut m = MetricsRegistry::new();
        m.counter_add("sim.jobs.completed", 42);
        m.counter_add("analysis.kernel.vcpu_builds", 7);
        m.gauge_set("sim.horizon_ms", 1000.0);
        m.observe("sim.response_ms.T0", 2.0);
        m.observe("sim.response_ms.T0", 4.0);
        let json = metrics_json(&m);
        assert_eq!(
            json,
            concat!(
                "{\n",
                "  \"counters\": {\n",
                "    \"analysis.kernel.vcpu_builds\": 7,\n",
                "    \"sim.jobs.completed\": 42\n",
                "  },\n",
                "  \"gauges\": {\n",
                "    \"sim.horizon_ms\": 1000\n",
                "  },\n",
                "  \"histograms\": {\n",
                "    \"sim.response_ms.T0\": {\n",
                "      \"count\": 2,\n",
                "      \"min\": 2,\n",
                "      \"avg\": 3,\n",
                "      \"max\": 4\n",
                "    }\n",
                "  }\n",
                "}"
            )
        );
        // Equal registries render byte-identically.
        assert_eq!(metrics_json(&m.clone()), json);
        // An empty registry still carries all three sections.
        assert_eq!(
            metrics_json(&MetricsRegistry::new()),
            "{\n  \"counters\": {},\n  \"gauges\": {},\n  \"histograms\": {}\n}"
        );
    }

    #[test]
    fn measurement_json_has_all_stats() {
        let m = run("jsonable", 4, || 2 + 2);
        let json = m.json();
        for key in ["\"name\": \"jsonable\"", "\"iters\": 4", "\"min_us\"", "\"avg_us\"", "\"max_us\""] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}
