//! End-to-end sweep scaling: the serial sweep against the
//! coarse-grained (whole-utilization-point) parallel scheduler, on
//! identical work.
//!
//! ```text
//! cargo run --release -p vc2m-bench --bin sweep_scaling             # quick preset
//! cargo run --release -p vc2m-bench --bin sweep_scaling -- --full   # paper scale
//! cargo run --release -p vc2m-bench --bin sweep_scaling -- --fleet  # campaign scale
//! ```
//!
//! Every variant must produce the *same* schedulable-fraction table —
//! the run aborts otherwise — so the timings compare genuinely
//! equivalent computations. Results land in
//! `results/BENCH_sweep.json`: per-run wall-clock, speedup over the
//! serial baseline, and the host's available parallelism (a 4-thread
//! run on a 1-core container documents itself). The headline speedup
//! is derived from the runs table — the most parallel variant — never
//! from a hard-coded run name. Setting
//! `VC2M_SWEEP_SPEEDUP_FLOOR=<f64>` turns the headline into a hard
//! gate: the run fails if the speedup falls below the floor (the CI
//! smoke sets this on multicore runners).

use std::time::Instant;
use vc2m::model::SimDuration;
use vc2m::prelude::*;
use vc2m::sweep::{run_sweep, run_sweep_parallel, SweepConfig};
use vc2m_bench::timing::{json_array, JsonBuilder};
use vc2m_bench::{full_scale_requested, scheduler_stress_system, write_results};

/// One timed sweep variant. `threads == 0` means the serial driver
/// ([`run_sweep`]); positive counts go through [`run_sweep_parallel`].
struct Run {
    name: &'static str,
    threads: usize,
}

const RUNS: &[Run] = &[
    Run { name: "serial", threads: 0 },
    Run { name: "parallel x1", threads: 1 },
    Run { name: "parallel x2", threads: 2 },
    Run { name: "parallel x4", threads: 4 },
];

fn main() {
    let platform = Platform::platform_a();
    let fleet_requested = std::env::args().any(|a| a == "--fleet");
    let (scale, config) = if fleet_requested {
        ("fleet", SweepConfig::fleet(platform, UtilizationDist::Uniform))
    } else if full_scale_requested() {
        ("paper", SweepConfig::paper(platform, UtilizationDist::Uniform))
    } else {
        ("quick", SweepConfig::quick(platform, UtilizationDist::Uniform))
    };
    let host_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "sweep scaling ({scale}): {} | {} points x {} tasksets x {} solutions | host parallelism {}",
        platform,
        config.utilizations.len(),
        config.tasksets_per_point,
        config.solutions.len(),
        host_parallelism,
    );

    // One untimed warmup (page-cache / branch-predictor / allocator
    // steady state), then best-of-N timed repeats per variant: the
    // sweep is deterministic, so min is the noise-robust estimator.
    let repeats = if fleet_requested || full_scale_requested() { 1 } else { 3 };
    let mut baseline: Option<(f64, String)> = None;
    let mut rendered = Vec::with_capacity(RUNS.len());
    let mut speedups: Vec<(usize, f64)> = Vec::with_capacity(RUNS.len());
    for run in RUNS {
        let execute = || {
            if run.threads == 0 {
                run_sweep(&config)
            } else {
                run_sweep_parallel(&config, run.threads, |_, _| {})
            }
        };
        std::hint::black_box(execute());
        let mut wall_s = f64::INFINITY;
        let mut results = None;
        for _ in 0..repeats {
            let start = Instant::now();
            let sweep = execute();
            wall_s = wall_s.min(start.elapsed().as_secs_f64());
            results = Some(sweep);
        }
        let results = results.expect("at least one timed repeat");

        let csv = results.fractions_csv();
        let (baseline_s, baseline_csv) =
            baseline.get_or_insert_with(|| (wall_s, csv.clone()));
        assert_eq!(
            &csv, baseline_csv,
            "variant '{}' diverged from the serial sweep",
            run.name
        );
        let speedup = *baseline_s / wall_s;
        speedups.push((run.threads, speedup));

        println!("{:<20} {:>8.3} s  speedup {:>5.2}x", run.name, wall_s, speedup);
        rendered.push(
            JsonBuilder::new()
                .str("name", run.name)
                .int("threads", run.threads as u64)
                .num("wall_s", wall_s)
                .num("speedup_vs_serial", speedup)
                .build(),
        );
    }

    // Typed-trace overhead on the simulator itself: the same stress
    // system, run with the trace ring disabled and enabled. The typed
    // event path copies a small enum either way (no per-event
    // allocation — pinned by the hypervisor's trace_alloc test), so
    // the delta should stay within noise of zero.
    let (allocation, tasks) = scheduler_stress_system(&platform, 24);
    let horizon_ms = if full_scale_requested() { 10_000.0 } else { 2_500.0 };
    let time_sim = |trace_capacity: usize| -> (f64, u64) {
        let config = SimConfig::default()
            .with_horizon(SimDuration::from_ms(horizon_ms))
            .with_trace_capacity(trace_capacity);
        let run = || {
            HypervisorSim::new(&platform, &allocation, &tasks, config)
                .expect("stress system simulates")
                .run_observed()
                .expect("fault-free run succeeds")
        };
        std::hint::black_box(run());
        let mut wall_s = f64::INFINITY;
        let mut events = 0;
        for _ in 0..repeats {
            let start = Instant::now();
            let (_, observation) = run();
            wall_s = wall_s.min(start.elapsed().as_secs_f64());
            events = observation.trace.len() as u64 + observation.trace_dropped;
        }
        (wall_s, events)
    };
    // Headline: the most parallel run, taken from the timed runs
    // table itself — renaming or reordering RUNS can no longer detach
    // the headline (historically a hard-coded `threads == 4` match
    // left it NaN when the table changed).
    let (headline_threads, headline_speedup) = speedups
        .iter()
        .copied()
        .max_by_key(|&(threads, _)| threads)
        .filter(|&(threads, _)| threads > 0)
        .expect("RUNS contains a parallel variant");

    let (untraced_s, sim_events) = time_sim(0);
    let (traced_s, _) = time_sim(4096);
    let trace_overhead_pct = 100.0 * (traced_s - untraced_s) / untraced_s;
    println!(
        "\nsim trace delta ({horizon_ms:.0} ms horizon, {sim_events} events): \
         off {untraced_s:.3} s | on {traced_s:.3} s | {trace_overhead_pct:+.1}%"
    );

    let json = JsonBuilder::new()
        .str("bench", "sweep_scaling")
        .str("scale", scale)
        .str("platform", &platform.to_string())
        .str("distribution", UtilizationDist::Uniform.name())
        .int("utilization_points", config.utilizations.len() as u64)
        .int("tasksets_per_point", config.tasksets_per_point as u64)
        .int("solutions", config.solutions.len() as u64)
        .int("total_units", config.total_units() as u64)
        .int("host_parallelism", host_parallelism as u64)
        .bool("conformant", true)
        .num("headline_speedup", headline_speedup)
        .int("headline_threads", headline_threads as u64)
        .raw("runs", json_array(rendered))
        .raw(
            "sim_trace",
            JsonBuilder::new()
                .num("horizon_ms", horizon_ms)
                .int("events", sim_events)
                .num("untraced_s", untraced_s)
                .num("traced_s", traced_s)
                .num("overhead_pct", trace_overhead_pct)
                .build(),
        )
        .build();
    let path = write_results("BENCH_sweep.json", &json);
    println!(
        "\nheadline: {headline_threads} threads = {headline_speedup:.2}x over serial \
         (host parallelism {host_parallelism})"
    );
    println!("wrote {}", path.display());

    // Optional hard gate, checked after the artifact is written so a
    // failing run still leaves its numbers behind for debugging. CI
    // sets the floor on multicore runners; a single-core host (where
    // extra threads cannot beat serial, as host_parallelism records)
    // leaves it unset.
    if let Ok(floor) = std::env::var("VC2M_SWEEP_SPEEDUP_FLOOR") {
        let floor: f64 = floor
            .parse()
            .unwrap_or_else(|_| panic!("VC2M_SWEEP_SPEEDUP_FLOOR must be a float, got '{floor}'"));
        assert!(
            headline_speedup >= floor,
            "headline speedup {headline_speedup:.2}x fell below the required floor {floor:.2}x"
        );
    }
}
