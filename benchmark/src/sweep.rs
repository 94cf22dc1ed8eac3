//! The `sweep` workload: batch schedulability analysis (Figs 2–4).

use crate::calls::{self, KernelCounters, Solution, SweepConfig, VmSpec};
use crate::report::{Report, KERNEL_COUNTERS};
use crate::spans::Tracer;
use crate::stats;
use crate::Run;
use std::time::Instant;

/// Worker threads of the measured sweep.
const THREADS: usize = 2;

/// One taskset of the grid, generated in set-up.
struct Taskset {
    seed: u64,
    vms: Vec<VmSpec>,
}

/// What one parallel sweep pass measured.
struct SweepPass {
    wall_s: f64,
    csv_digest: u64,
    cells: Vec<(usize, usize, f64)>,
    kernel: KernelCounters,
}

fn sweep_pass(config: &SweepConfig) -> SweepPass {
    let start = Instant::now();
    let results = calls::sweep(config, THREADS);
    let wall_s = start.elapsed().as_secs_f64();
    SweepPass {
        wall_s,
        csv_digest: stats::digest(calls::sweep_fractions_csv(&results).as_bytes()),
        cells: calls::sweep_cells(&results),
        kernel: calls::sweep_kernel(&results),
    }
}

/// Per solution over a serial pass: (min_budget_calls, schedulable).
type SerialCounts = Vec<(u64, u64)>;

/// The serial pass: each taskset's VM level and full allocation timed
/// separately per solution, as spans when `t` records.
fn serial_pass(
    tasksets: &[Taskset],
    solutions: &[Solution],
    t: &mut Tracer,
) -> (SerialCounts, f64) {
    let mut counts = vec![(0u64, 0u64); solutions.len()];
    let start = Instant::now();
    for (i, ts) in tasksets.iter().enumerate() {
        let id = i as u64;
        let root = t.begin("sweep.taskset", id);
        for (s, &solution) in solutions.iter().enumerate() {
            let [vm_span, alloc_span] = span_names(solution);
            let span = t.begin(vm_span, id);
            std::hint::black_box(calls::vm_level(solution, &ts.vms, ts.seed));
            t.end(span);
            let before = calls::kernel_counters();
            let span = t.begin(alloc_span, id);
            let schedulable = calls::allocate(solution, &ts.vms, ts.seed);
            t.end(span);
            counts[s].0 += calls::kernel_counters().since(&before).min_budget_calls;
            counts[s].1 += u64::from(schedulable);
        }
        t.end(root);
    }
    (counts, start.elapsed().as_secs_f64())
}

fn span_names(solution: Solution) -> [&'static str; 2] {
    match calls::solution_name(solution) {
        "flattening" => [
            "solution.flattening.vm_level",
            "solution.flattening.allocate",
        ],
        "overhead_free" => [
            "solution.overhead_free.vm_level",
            "solution.overhead_free.allocate",
        ],
        "existing" => ["solution.existing.vm_level", "solution.existing.allocate"],
        "even" => ["solution.even.vm_level", "solution.even.allocate"],
        "baseline" => ["solution.baseline.vm_level", "solution.baseline.allocate"],
        _ => ["solution.other.vm_level", "solution.other.allocate"],
    }
}

/// Runs the sweep workload.
pub fn run(run: &Run, report: &mut Report) -> usize {
    let (step, per_point) = if run.smoke { (0.95, 2) } else { (0.05, 16) };
    let config = calls::sweep_config(step, per_point, run.seed);
    let solutions = calls::sweep_solutions(&config);
    let tasksets = crate::setup(report, || {
        let mut out = Vec::new();
        for (point, &u) in config.utilizations.iter().enumerate() {
            for rep in 0..config.tasksets_per_point {
                let seed = calls::sweep_taskset_seed(config.base_seed, point, rep);
                out.push(Taskset {
                    seed,
                    vms: calls::sweep_taskset(&config, u, seed),
                });
            }
        }
        out
    });
    let passes = crate::timed_passes(run, || sweep_pass(&config));
    let n = tasksets.len() as u64;
    report.ops = n * solutions.len() as u64 * passes.len() as u64;

    // End to end. An analysis latency is one cell's mean time for one
    // solution to analyse one taskset (the Fig. 4 axis), minimised
    // over the passes.
    let walls = stats::sorted(&passes.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let rate = n as f64 / walls[0];
    let per_cell: Vec<Vec<f64>> = passes
        .iter()
        .map(|p| {
            p.cells
                .iter()
                .map(|&(_, total, s)| s * 1e6 / total.max(1) as f64)
                .collect()
        })
        .collect();
    let samples = stats::sorted(&stats::per_item_minimum(&per_cell));
    let (tail_p, tail_us) = stats::tail(&samples);
    let (sched, total) = passes[0]
        .cells
        .iter()
        .fold((0, 0), |(a, b), &(s, t, _)| (a + s, b + t));
    let auc = sched as f64 / total.max(1) as f64;
    report.set("ops_per_s", "1/s", rate);
    report.set("op_p50_us", "us", stats::median(&samples));
    report.set("op_tail_us", "us", tail_us);
    report.set("op_tail_pct", "pct", tail_p);
    report.set("op_samples", "count", samples.len() as f64);
    report.set("quality", "fraction", auc);
    report.set("tasksets_per_s", "1/s", rate);
    report.set(
        "tasksets_per_s.median_pass",
        "1/s",
        n as f64 / stats::median(&walls),
    );
    report.set("sched_auc", "fraction", auc);
    let k = passes[0].kernel;
    let kernel = [
        k.checkpoint_merges,
        k.checkpoints_emitted,
        k.checkpoints_truncated,
        k.fallback_horizons,
        k.can_schedule_calls,
        k.min_budget_calls,
        k.solver_calls,
        k.vcpu_builds,
    ];
    for (name, value) in KERNEL_COUNTERS.iter().zip(kernel) {
        report.set(format!("sched.kernel.{name}"), "count", value as f64);
    }

    // The serial pass checks the sweep's verdicts; traced, it also
    // gives the per-solution breakdown.
    let (counts, serial_s) = serial_pass(&tasksets, &solutions, &mut Tracer::off());
    if run.per_layer {
        let mut tracer = Tracer::on();
        let (traced_counts, _) = serial_pass(&tasksets, &solutions, &mut tracer);
        let layers = tracer.layers();
        let busy = tracer.busy_s();
        report.set("traced.busy_s", "s", busy);
        report.set("trace_overhead_pct", "%", (busy / serial_s - 1.0) * 100.0);
        for (s, &solution) in solutions.iter().enumerate() {
            let name = calls::solution_name(solution);
            let [vm_span, alloc_span] = span_names(solution);
            let vm_s = layers.get(vm_span).map_or(0.0, |l| l.self_s);
            let alloc_s = layers.get(alloc_span).map_or(0.0, |l| l.self_s);
            let hv_s = (alloc_s - vm_s).max(0.0);
            report.set(format!("solution.{name}.vm_level_s"), "s", vm_s);
            report.set(format!("solution.{name}.hv_level_s"), "s", hv_s);
            report.set(
                format!("solution.{name}.vm_level_share"),
                "fraction",
                vm_s / busy,
            );
            report.set(
                format!("solution.{name}.hv_level_share"),
                "fraction",
                hv_s / busy,
            );
            report.set(
                format!("solution.{name}.min_budget_calls"),
                "count",
                traced_counts[s].0 as f64,
            );
            report.set(
                format!("solution.{name}.schedulable"),
                "count",
                traced_counts[s].1 as f64,
            );
        }
        if let Some(dir) = &run.spans_dir {
            crate::write_spans(dir, &run.workload, &tracer);
        }
    }

    // Correctness.
    let digest_ok = passes.iter().all(|p| p.csv_digest == passes[0].csv_digest);
    report.check(
        "fractions_csv_identical_across_passes",
        digest_ok,
        report.ops,
    );
    let kernel_ok = passes.iter().all(|p| p.kernel == passes[0].kernel);
    report.check(
        "kernel_counters_identical_across_passes",
        kernel_ok,
        report.ops,
    );
    let width = solutions.len();
    let agree = (0..width).all(|s| {
        let swept: usize = passes[0]
            .cells
            .iter()
            .skip(s)
            .step_by(width)
            .map(|c| c.0)
            .sum();
        swept as u64 == counts[s].1
    });
    report.check("serial_verdicts_match_sweep", agree, n * width as u64);
    passes.len()
}
