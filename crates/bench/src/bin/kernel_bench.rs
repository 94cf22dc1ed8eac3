//! Schedulability-kernel microbenchmarks: the naive allocating
//! minimal-budget search (fresh checkpoint/demand vectors per call)
//! against the [`MinBudgetSolver`] floor table, at the period the
//! table was built for and at a quarter of it (a prefix of the table),
//! one whole existing-CSA VCPU build naive against solver, plus the
//! end-to-end serial sweep those kernels drive.
//!
//! [`MinBudgetSolver`]: vc2m::sched::sbf::MinBudgetSolver
//!
//! ```text
//! cargo run --release -p vc2m-bench --bin kernel_bench            # quick preset
//! cargo run --release -p vc2m-bench --bin kernel_bench -- --full  # more iterations
//! ```
//!
//! Every naive/incremental pair is checked **bit-for-bit equal** before
//! timing — the run aborts on any divergence, so the speedups compare
//! provably identical computations. Results land in
//! `results/BENCH_kernels.json`: per-kernel min/avg/max timings, the
//! per-pair speedups and their geometric mean, the headline, the
//! end-to-end sweep wall time, and the kernel telemetry counters
//! accumulated over the whole run. The per-search pairs time the
//! solver's searches only (`"table_build_timed": false`: its merge and
//! floor table are built once, outside the timed region), so their
//! speedups overstate the kernel's; the headline is the whole-VCPU
//! pair, where both arms pay for all of their work.

use vc2m::analysis::existing::{existing_vcpu, existing_vcpu_reference};
use vc2m::model::{Task, TaskId, TaskSet, VcpuId, VcpuSpec, VmId, WcetSurface};
use vc2m::prelude::*;
use vc2m::sched::dbf::Demand;
use vc2m::sched::kernel;
use vc2m::sched::sbf::{min_budget, MinBudgetSolver};
use vc2m::sweep::run_sweep;
use vc2m_bench::timing::{self, json_array, metrics_json, JsonBuilder, Measurement};
use vc2m_bench::{full_scale_requested, write_results};

/// One demand workload the kernel pairs are exercised on.
struct Workload {
    name: &'static str,
    /// `(period, wcet)` pairs, in milliseconds.
    tasks: &'static [(f64, f64)],
    /// The resource period Π of the budget search.
    period: f64,
}

const WORKLOADS: &[Workload] = &[
    // Harmonic periods: small hyperperiod, few checkpoints — the
    // regime Theorem 2 targets and the sweep generator produces.
    Workload {
        name: "harmonic-8",
        tasks: &[
            (5.0, 0.5),
            (10.0, 1.0),
            (10.0, 0.8),
            (20.0, 2.0),
            (20.0, 1.5),
            (40.0, 3.0),
            (40.0, 2.5),
            (80.0, 4.0),
        ],
        period: 5.0,
    },
    Workload {
        name: "harmonic-16",
        tasks: &[
            (5.0, 0.2),
            (5.0, 0.25),
            (10.0, 0.4),
            (10.0, 0.5),
            (20.0, 0.8),
            (20.0, 1.0),
            (40.0, 1.6),
            (40.0, 2.0),
            (80.0, 3.2),
            (80.0, 4.0),
            (160.0, 6.4),
            (160.0, 8.0),
            (320.0, 12.8),
            (320.0, 16.0),
            (640.0, 25.6),
            (640.0, 32.0),
        ],
        period: 5.0,
    },
    // Near-incommensurate periods at the nanosecond grid: the pairwise
    // LCM overflows the 1e12 ns bound, so no hyperperiod exists and
    // the analysis walks the bounded fallback horizon (~2 400 merged
    // checkpoints) — the worst case for the collect-sort path.
    Workload {
        name: "incommensurate-3",
        tasks: &[(9.999991, 1.0), (10.000019, 1.5), (7.000003, 0.7)],
        period: 10.0,
    },
];

/// Asserts two optional budgets are the same f64 bit pattern.
fn assert_bits(kernel: &str, workload: &str, fast: Option<f64>, reference: Option<f64>) {
    assert_eq!(
        fast.map(f64::to_bits),
        reference.map(f64::to_bits),
        "{kernel} diverged from the reference on {workload}: {fast:?} vs {reference:?}"
    );
}

/// Asserts two VCPU interfaces agree bit-for-bit: period and every
/// budget-surface cell.
fn assert_vcpus_identical(fast: &VcpuSpec, reference: &VcpuSpec) {
    assert_eq!(fast.period().to_bits(), reference.period().to_bits());
    for alloc in fast.budget_surface().space().iter() {
        assert_eq!(
            fast.budget(alloc).to_bits(),
            reference.budget(alloc).to_bits(),
            "budget surfaces diverged at {alloc:?}"
        );
    }
}

/// A timed naive/incremental pair and its speedup on the fastest
/// iteration — the deterministic kernels make min the noise-robust
/// estimator (scheduler jitter only ever inflates a sample), matching
/// the best-of-N convention of `sweep_scaling`.
struct Pair {
    naive: Measurement,
    incremental: Measurement,
    /// Whether the incremental arm's timed region includes building
    /// its checkpoint table, as the naive arm's always does.
    table_build_timed: bool,
}

impl Pair {
    fn speedup(&self) -> f64 {
        self.naive.min_us() / self.incremental.min_us()
    }

    fn json(&self) -> String {
        JsonBuilder::new()
            .raw("naive", self.naive.json())
            .raw("incremental", self.incremental.json())
            .num("speedup", self.speedup())
            .bool("table_build_timed", self.table_build_timed)
            .build()
    }
}

fn main() {
    let iters: u64 = if full_scale_requested() { 20_000 } else { 4_000 };
    let surface_iters = iters / 100;
    let sweep_iters = if full_scale_requested() { 5 } else { 3 };
    let kernel_before = kernel::counters();
    let mut pairs: Vec<(String, Pair)> = Vec::new();

    println!("kernel microbench ({} iters per kernel)\n", iters);
    for w in WORKLOADS {
        let demand = Demand::new(w.tasks.to_vec()).expect("workload parameters are valid");
        // One table, built outside the timed region: the analysis
        // builds one per VCPU and runs every search of that VCPU on it.
        let solver =
            MinBudgetSolver::new(demand.periods(), w.period).expect("workload parameters are valid");
        // At the table's own period, then at a quarter of it, which
        // reads a prefix of the table as the period search's smaller
        // candidates do.
        for (kernel, period) in [("min_budget", w.period), ("min_budget_prefix", w.period / 4.0)] {
            // Conformance first: the solver must reproduce the
            // reference bit patterns before its timings mean anything.
            assert_bits(
                kernel,
                w.name,
                solver.min_budget(period, demand.wcets()).expect("period within range"),
                min_budget(&demand, period),
            );
            let naive = timing::run(&format!("{kernel} naive [{}]", w.name), iters, || {
                min_budget(&demand, period)
            });
            let incremental = timing::run(&format!("{kernel} solver [{}]", w.name), iters, || {
                solver.min_budget(period, demand.wcets())
            });
            let pair = Pair { naive, incremental, table_build_timed: false };
            pairs.push((format!("{kernel}/{}", w.name), pair));
        }
    }

    // The call site the solver's floor table serves: one whole VCPU
    // under the existing CSA (the five-period search, then one
    // min-budget search per surface cell), naive fresh-`Demand`-per-
    // search vs one shared-checkpoint solver.
    let platform = Platform::platform_a();
    let space = platform.resources();
    let taskset: TaskSet = WORKLOADS[0]
        .tasks
        .iter()
        .enumerate()
        .map(|(i, &(period, wcet))| {
            // Allocation-dependent WCETs so every surface cell runs a
            // distinct budget search (flat surfaces would be atypically
            // kind to the naive arm's branch predictor).
            let surface = WcetSurface::from_fn(&space, |a| {
                wcet * (1.0 + 1.0 / f64::from(a.cache + a.bandwidth))
            })
            .expect("wcets fit their periods");
            Task::new(TaskId(i), period, surface).expect("workload parameters are valid")
        })
        .collect();
    let fast = existing_vcpu(VcpuId(0), VmId(0), &taskset).expect("taskset is analyzable");
    let reference =
        existing_vcpu_reference(VcpuId(0), VmId(0), &taskset).expect("taskset is analyzable");
    assert_vcpus_identical(&fast, &reference);
    let naive = timing::run("vcpu surface naive per-cell", surface_iters.max(1), || {
        existing_vcpu_reference(VcpuId(0), VmId(0), &taskset)
    });
    let incremental = timing::run("vcpu surface solver", surface_iters.max(1), || {
        existing_vcpu(VcpuId(0), VmId(0), &taskset)
    });
    let surface = Pair { naive, incremental, table_build_timed: true };
    let headline = surface.speedup();
    pairs.push(("vcpu_surface/harmonic-8".into(), surface));

    // End-to-end: the serial quick sweep — every budget search hits
    // the kernels directly, so this wall time is the macro view of the
    // same optimization (BENCH_sweep.json tracks it across thread
    // counts).
    let config = SweepConfig::quick(platform, UtilizationDist::Uniform);
    let sweep = timing::run("sweep serial (quick)", sweep_iters, || {
        run_sweep(&config)
    });

    let geomean =
        (pairs.iter().map(|(_, p)| p.speedup().ln()).sum::<f64>() / pairs.len() as f64).exp();
    println!("\nheadline: whole-VCPU solver speedup {headline:.2}x over naive");
    println!("geomean incremental speedup {geomean:.2}x over every pair");

    let kernel_delta = kernel::counters().since(&kernel_before);
    let mut metrics = vc2m::simcore::MetricsRegistry::new();
    vc2m::analysis::export_kernel_metrics(&kernel_delta, &mut metrics);

    let json = JsonBuilder::new()
        .str("bench", "kernel_bench")
        .str("scale", if full_scale_requested() { "full" } else { "quick" })
        .int("iters", pairs[0].1.naive.iters())
        .int(
            "host_parallelism",
            std::thread::available_parallelism().map_or(1, |n| n.get()) as u64,
        )
        .bool("conformant", true)
        .str("headline", "vcpu_surface/harmonic-8")
        .num("speedup_headline", headline)
        .num("speedup_geomean", geomean)
        .raw(
            "kernels",
            json_array(pairs.iter().map(|(name, pair)| {
                JsonBuilder::new()
                    .str("name", name)
                    .raw("pair", pair.json())
                    .build()
            })),
        )
        .raw("sweep_end_to_end", sweep.json())
        .raw("kernel_counters", metrics_json(&metrics))
        .build();
    let path = write_results("BENCH_kernels.json", &json);
    println!("wrote {}", path.display());
}
