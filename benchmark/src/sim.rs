//! The `sim` workload: the hypervisor simulator on the Table-2 stress
//! system. No allocator code runs here.

use crate::calls::{self, SimInput, SimReport};
use crate::report::{Report, HANDLERS};
use crate::spans::Tracer;
use crate::stats;
use crate::Run;
use std::time::Instant;

/// VCPUs of the stress system (the paper's larger Table-2 setting).
const VCPUS: usize = 96;

struct SimPass {
    build_s: f64,
    run_s: f64,
    report: SimReport,
}

fn pass(input: &SimInput, horizon_ms: f64, t: &mut Tracer) -> SimPass {
    let root = t.begin("sim.pass", 0);
    let start = Instant::now();
    let span = t.begin("sim.build", 0);
    let sim = calls::sim_build(input, horizon_ms).expect("the stress system builds");
    t.end(span);
    let build_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let span = t.begin("sim.run", 0);
    let report = calls::sim_run(sim).expect("the stress system simulates");
    t.end(span);
    let run_s = start.elapsed().as_secs_f64();
    t.end(root);
    SimPass {
        build_s,
        run_s,
        report,
    }
}

/// Runs the sim workload.
pub fn run(run: &Run, report: &mut Report) -> usize {
    let horizon_ms = if run.smoke { 1_000.0 } else { 60_000.0 };
    // Set-up generates the system and constructs a simulator of it;
    // each pass then builds its own, since a run consumes it.
    let input = crate::setup(report, || {
        let input = calls::sim_input(VCPUS, run.seed);
        drop(calls::sim_build(&input, horizon_ms).expect("the stress system builds"));
        input
    });
    let passes = crate::timed_passes(run, || pass(&input, horizon_ms, &mut Tracer::off()));
    let first = &passes[0].report;
    report.ops = first.jobs_released * passes.len() as u64;

    // End to end: a run's wall time, minimised over the passes.
    let runs = stats::sorted(&passes.iter().map(|p| p.run_s).collect::<Vec<_>>());
    let run_us: Vec<f64> = runs.iter().map(|s| s * 1e6).collect();
    let (tail_p, tail_us) = stats::tail(&run_us);
    let quality = first.jobs_completed as f64 / first.jobs_released.max(1) as f64;
    report.set("ops_per_s", "1/s", first.jobs_completed as f64 / runs[0]);
    report.set("op_p50_us", "us", stats::median(&run_us));
    report.set("op_tail_us", "us", tail_us);
    report.set("op_tail_pct", "pct", tail_p);
    report.set("op_samples", "count", run_us.len() as f64);
    report.set("quality", "fraction", quality);
    report.set("sim_speed_x", "x", horizon_ms / 1e3 / runs[0]);
    report.set(
        "sim_speed_x.median_pass",
        "x",
        horizon_ms / 1e3 / stats::median(&runs),
    );

    let mut traced = None;
    if run.per_layer {
        let mut tracer = Tracer::on();
        let p = pass(&input, horizon_ms, &mut tracer);
        let busy = tracer.busy_s();
        let untraced = stats::sorted(
            &passes
                .iter()
                .map(|p| p.build_s + p.run_s)
                .collect::<Vec<_>>(),
        );
        report.set("traced.busy_s", "s", busy);
        report.set(
            "trace_overhead_pct",
            "%",
            (busy / stats::median(&untraced) - 1.0) * 100.0,
        );
        report.set("sim.build_s", "s", p.build_s);
        report.set("sim.run_s", "s", p.run_s);
        report.set("sim.build_share", "fraction", p.build_s / busy);
        report.set("sim.run_share", "fraction", p.run_s / busy);
        let r = &p.report;
        report.set("sim.jobs", "count", r.jobs_completed as f64);
        report.set("sim.context_switches", "count", r.context_switches as f64);
        report.set("sim.throttles", "count", r.throttle_events as f64);
        report.set(
            "sim.ns_per_job",
            "ns",
            p.run_s * 1e9 / r.jobs_completed.max(1) as f64,
        );
        for (kind, (count, avg_us)) in HANDLERS.iter().zip(calls::sim_handlers(r)) {
            report.set(format!("sim.handler.{kind}.count"), "count", count as f64);
            report.put(format!("sim.handler.{kind}.avg_us"), "us", avg_us);
        }
        if let Some(dir) = &run.spans_dir {
            crate::write_spans(dir, &run.workload, &tracer);
        }
        traced = Some(p);
    }

    let all = || passes.iter().chain(&traced);
    report.check(
        "no_deadline_misses",
        all().all(|p| p.report.deadline_misses.is_empty()),
        report.ops,
    );
    let same = all().all(|p| calls::sim_reports_equal(&p.report, first));
    report.check("reports_structurally_equal_across_passes", same, report.ops);
    passes.len()
}
