//! The schedulability-experiment engine behind Figures 2–4.
//!
//! A *sweep* generates random tasksets at each target reference
//! utilization (0.1 to 2.0 in the paper, 50 tasksets per point),
//! analyzes every taskset with each of the five solutions, and records
//! the fraction of schedulable tasksets (Figures 2 and 3) and the
//! analysis running time (Figure 4). The same tasksets are presented
//! to every solution, as in the paper.
//!
//! The unit of work is one whole utilization point: every repetition
//! of the point derives its own `(point, repetition)` seed, generates
//! its taskset, and analyzes it with every configured solution. A
//! point's analysis — results and kernel telemetry alike — is a pure
//! function of the configuration and the point index.
//!
//! [`run_sweep_parallel`] hands these point units to worker threads
//! through a single atomic counter. Each worker owns its results and
//! its kernel-counter deltas outright; nothing is shared or locked on
//! the work path, and the per-thread accumulators merge once after the
//! join. Per-cell results merge by plain integer addition, which is
//! order-independent, so the parallel sweep is cell-for-cell *and*
//! telemetry-counter identical to the serial one at every thread count
//! (the sweep conformance suite pins this).

use std::fmt;
use std::time::{Duration, Instant};
use vc2m_alloc::Solution;
use vc2m_analysis::KernelCounters;
use vc2m_model::{Platform, VmId, VmSpec};
use vc2m_workload::{TasksetConfig, TasksetGenerator, UtilizationDist};

/// Inclusive floating-point range with step, e.g.
/// `utilization_steps(0.1, 2.0, 0.05)` for the paper's x-axis.
///
/// # Panics
///
/// Panics if `step` is not positive or `to < from`.
pub fn utilization_steps(from: f64, to: f64, step: f64) -> Vec<f64> {
    assert!(step > 0.0, "step must be positive");
    assert!(to >= from, "need to >= from");
    let n = ((to - from) / step).round() as usize;
    (0..=n).map(|i| from + i as f64 * step).collect()
}

/// Configuration of a schedulability sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepConfig {
    /// The platform (Figures 2a/2b/2c use Platforms A/B/C).
    pub platform: Platform,
    /// Task utilization distribution (Figure 3 uses the bimodals).
    pub distribution: UtilizationDist,
    /// The taskset reference utilizations to sweep.
    pub utilizations: Vec<f64>,
    /// Independent tasksets per utilization point (50 in the paper).
    pub tasksets_per_point: usize,
    /// The solutions to compare.
    pub solutions: Vec<Solution>,
    /// Base RNG seed; every (point, taskset) pair derives its own.
    pub base_seed: u64,
}

impl SweepConfig {
    /// The paper's full experimental scale: utilization 0.1..2.0 step
    /// 0.05, 50 tasksets per point, all five solutions (1950 tasksets,
    /// each analyzed five ways — expect minutes of compute in release
    /// mode, dominated by the existing-CSA solutions).
    pub fn paper(platform: Platform, distribution: UtilizationDist) -> Self {
        SweepConfig {
            platform,
            distribution,
            utilizations: utilization_steps(0.1, 2.0, 0.05),
            tasksets_per_point: 50,
            solutions: Solution::ALL.to_vec(),
            base_seed: 0xDAC_2019,
        }
    }

    /// A scaled-down sweep (step 0.2, 8 tasksets per point) that
    /// reproduces the curves' shape in seconds. Used by examples and
    /// smoke benches.
    pub fn quick(platform: Platform, distribution: UtilizationDist) -> Self {
        SweepConfig {
            platform,
            distribution,
            utilizations: utilization_steps(0.2, 2.0, 0.2),
            tasksets_per_point: 8,
            solutions: Solution::ALL.to_vec(),
            base_seed: 0xDAC_2019,
        }
    }

    /// A campaign-scale sweep: the paper's utilization range at step
    /// 0.001 (1 901 points, 3 tasksets each — 5 703 work units, ~3×
    /// the paper preset) with all five solutions. This is the regime
    /// the coarse-grained parallel scheduler is built for — thousands
    /// of independent points to spread over threads — and the headline
    /// configuration of the `sweep_scaling` bench (`--fleet`). The
    /// dense utilization grid is also what a search-based allocator's
    /// fitness loop would evaluate.
    pub fn fleet(platform: Platform, distribution: UtilizationDist) -> Self {
        SweepConfig {
            platform,
            distribution,
            utilizations: utilization_steps(0.1, 2.0, 0.001),
            tasksets_per_point: 3,
            solutions: Solution::ALL.to_vec(),
            base_seed: 0xDAC_2019,
        }
    }

    /// Returns a copy with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Returns a copy restricted to the given solutions.
    pub fn with_solutions(mut self, solutions: Vec<Solution>) -> Self {
        self.solutions = solutions;
        self
    }

    /// Total `(point, repetition)` work units of this sweep.
    pub fn total_units(&self) -> usize {
        self.utilizations.len() * self.tasksets_per_point
    }
}

/// Aggregate result for one (utilization, solution) cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SweepCell {
    /// Tasksets deemed schedulable.
    pub schedulable: usize,
    /// Tasksets analyzed.
    pub total: usize,
    /// Total analysis wall-clock time over all tasksets in the cell.
    pub runtime: Duration,
}

impl SweepCell {
    /// Fraction of schedulable tasksets (0 if the cell is empty).
    pub fn fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.schedulable as f64 / self.total as f64
        }
    }

    /// Mean analysis time per taskset, in seconds.
    pub fn avg_runtime_s(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.runtime.as_secs_f64() / self.total as f64
        }
    }
}

/// One row of a sweep: a utilization point with one cell per solution.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// The taskset reference utilization of this point.
    pub utilization: f64,
    /// One cell per configured solution, in configuration order.
    pub cells: Vec<SweepCell>,
}

/// The complete result of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResults {
    solutions: Vec<Solution>,
    rows: Vec<SweepRow>,
    kernel: KernelCounters,
}

impl SweepResults {
    /// The solutions, in column order.
    pub fn solutions(&self) -> &[Solution] {
        &self.solutions
    }

    /// Aggregated schedulability-kernel telemetry over all work units:
    /// checkpoint merges/emissions/truncations, fallback horizons, and
    /// `can_schedule`/`min_budget`/solver-probe call counts. Every work
    /// unit snapshots its thread's counters before and after analysis
    /// and contributes the delta, so the totals are exact and
    /// order-independent regardless of how units were distributed over
    /// worker threads.
    pub fn kernel_stats(&self) -> KernelCounters {
        self.kernel
    }

    /// The rows, in utilization order.
    pub fn rows(&self) -> &[SweepRow] {
        &self.rows
    }

    /// The cell for `solution` at row `row`.
    ///
    /// # Panics
    ///
    /// Panics if the solution was not part of the sweep or the row is
    /// out of range.
    pub fn cell(&self, row: usize, solution: Solution) -> &SweepCell {
        let col = self
            .solutions
            .iter()
            .position(|&s| s == solution)
            .expect("solution was part of the sweep");
        &self.rows[row].cells[col]
    }

    /// The *breakdown utilization* of a solution: the largest swept
    /// utilization at which every taskset was still schedulable
    /// (the paper: "the utilization after which tasksets start to
    /// become unschedulable"). `None` if even the smallest point had
    /// failures.
    pub fn breakdown_utilization(&self, solution: Solution) -> Option<f64> {
        let col = self
            .solutions
            .iter()
            .position(|&s| s == solution)
            .expect("solution was part of the sweep");
        self.rows
            .iter()
            .take_while(|row| row.cells[col].fraction() >= 1.0 - 1e-12)
            .last()
            .map(|row| row.utilization)
    }

    /// Serializes the schedulable fractions as CSV
    /// (`utilization,<solution>...`).
    pub fn fractions_csv(&self) -> String {
        let mut out = String::from("utilization");
        for s in &self.solutions {
            out.push(',');
            out.push_str(s.name());
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&format!("{:.2}", row.utilization));
            for cell in &row.cells {
                out.push_str(&format!(",{:.4}", cell.fraction()));
            }
            out.push('\n');
        }
        out
    }

    /// Serializes the average running times (seconds) as CSV.
    pub fn runtimes_csv(&self) -> String {
        let mut out = String::from("utilization");
        for s in &self.solutions {
            out.push(',');
            out.push_str(s.name());
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&format!("{:.2}", row.utilization));
            for cell in &row.cells {
                out.push_str(&format!(",{:.6}", cell.avg_runtime_s()));
            }
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for SweepResults {
    /// Renders the schedulable-fraction table with one column per
    /// solution.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:>6}", "u*")?;
        for s in &self.solutions {
            write!(f, " {:>9}", short_name(*s))?;
        }
        writeln!(f)?;
        for row in &self.rows {
            write!(f, "{:>6.2}", row.utilization)?;
            for cell in &row.cells {
                write!(f, " {:>9.2}", cell.fraction())?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

fn short_name(s: Solution) -> &'static str {
    match s {
        Solution::HeuristicFlattening => "flatten",
        Solution::HeuristicOverheadFree => "ovh-free",
        Solution::HeuristicExisting => "heur-csa",
        Solution::EvenlyPartition => "even",
        Solution::Baseline => "baseline",
        Solution::Auto => "auto",
    }
}

/// Runs a sweep, invoking `progress` after each utilization point with
/// `(points_done, points_total)`.
pub fn run_sweep_with_progress(
    config: &SweepConfig,
    mut progress: impl FnMut(usize, usize),
) -> SweepResults {
    let points = config.utilizations.len();
    let mut rows = Vec::with_capacity(points);
    let mut kernel_total = KernelCounters::new();
    for pi in 0..points {
        let outcome = sweep_point(config, pi);
        kernel_total.merge(&outcome.kernel);
        rows.push(outcome.row);
        progress(pi + 1, points);
    }
    SweepResults {
        solutions: config.solutions.clone(),
        rows,
        kernel: kernel_total,
    }
}

/// Runs a sweep silently.
pub fn run_sweep(config: &SweepConfig) -> SweepResults {
    run_sweep_with_progress(config, |_, _| {})
}

/// Runs a sweep with whole-utilization-point work units distributed
/// over `threads` worker threads.
///
/// Results are **identical** to [`run_sweep`]: every `(point,
/// repetition)` pair derives its own seed, and per-thread partial
/// results merge by order-independent addition — so the partitioning
/// cannot change any outcome, including the aggregated
/// [`KernelCounters`] totals; only the wall-clock time differs.
/// Workers share nothing on the work path: points are claimed from one
/// atomic counter, and each thread accumulates its rows and kernel
/// deltas privately until one merge after the join.
///
/// `progress` is called with monotonically strictly increasing
/// `(points_done, points_total)` counts — the same granularity as
/// [`run_sweep_with_progress`] — ending at `(points_total,
/// points_total)` (when there is at least one point). The callback
/// runs *outside* every lock a worker can block on: completions are
/// published through an atomic counter, and whichever thread finds the
/// reporting slot free drains the counter, so a slow callback
/// coalesces several completions into one call instead of stalling the
/// other workers.
///
/// # Panics
///
/// Panics if `threads` is zero, or if a worker thread panics.
pub fn run_sweep_parallel(
    config: &SweepConfig,
    threads: usize,
    progress: impl Fn(usize, usize) + Sync,
) -> SweepResults {
    use std::sync::atomic::{AtomicUsize, Ordering};
    assert!(threads > 0, "need at least one thread");
    let points = config.utilizations.len();
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    // Last progress count actually reported. Workers only `try_lock`
    // it: under contention (another thread is inside the callback)
    // they skip reporting entirely — the holder's drain loop picks the
    // missed counts up — so nobody ever blocks here.
    let reported = std::sync::Mutex::new(0usize);
    let progress = &progress;

    let per_thread: Vec<ThreadOutcome> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.min(points.max(1)))
            .map(|_| {
                scope.spawn(|| {
                    let mut outcome = ThreadOutcome::default();
                    loop {
                        let pi = next.fetch_add(1, Ordering::Relaxed);
                        if pi >= points {
                            break;
                        }
                        let unit = sweep_point(config, pi);
                        outcome.rows.push((pi, unit.row));
                        outcome.kernel.merge(&unit.kernel);
                        done.fetch_add(1, Ordering::Release);
                        drain_progress(&reported, &done, points, progress);
                    }
                    outcome
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|worker| worker.join().expect("sweep worker panicked"))
            .collect()
    });

    // Terminal catch-up: if the last completions raced with a busy
    // reporter, the documented final (points, points) call happens
    // here, still strictly monotone (guarded by `reported`).
    {
        let mut last = reported.lock().expect("progress reporting never panicked");
        if *last < points {
            *last = points;
            progress(points, points);
        }
    }

    let mut rows: Vec<Option<SweepRow>> = (0..points).map(|_| None).collect();
    let mut kernel = KernelCounters::new();
    for outcome in per_thread {
        for (pi, row) in outcome.rows {
            debug_assert!(rows[pi].is_none(), "point {pi} swept twice");
            rows[pi] = Some(row);
        }
        kernel.merge(&outcome.kernel);
    }
    SweepResults {
        solutions: config.solutions.clone(),
        rows: rows
            .into_iter()
            .map(|row| row.expect("every point was swept"))
            .collect(),
        kernel,
    }
}

/// One worker thread's private accumulator: finished rows tagged with
/// their point index, plus the thread's kernel totals.
#[derive(Default)]
struct ThreadOutcome {
    rows: Vec<(usize, SweepRow)>,
    kernel: KernelCounters,
}

/// Reports the newest completion count if the reporting slot is free.
///
/// The holder drains in a loop: each pass reports the *latest* count,
/// so completions that landed while the callback ran are coalesced
/// into the next call rather than queued behind it. Reported counts
/// are strictly increasing because only the `reported` holder calls
/// `progress`, and only with counts above the last reported one.
fn drain_progress(
    reported: &std::sync::Mutex<usize>,
    done: &std::sync::atomic::AtomicUsize,
    total: usize,
    progress: &(impl Fn(usize, usize) + Sync),
) {
    let Ok(mut last) = reported.try_lock() else {
        return;
    };
    loop {
        let current = done.load(std::sync::atomic::Ordering::Acquire);
        if current <= *last {
            break;
        }
        *last = current;
        progress(current, total);
    }
}

/// Per-point outcome of one whole-point work unit.
struct PointOutcome {
    row: SweepRow,
    /// The worker thread's kernel-counter delta over this point's
    /// analyses (thread-local snapshots taken before and after).
    kernel: KernelCounters,
}

/// A point's row with every cell still empty.
fn empty_row(config: &SweepConfig, point_index: usize) -> SweepRow {
    SweepRow {
        utilization: config.utilizations[point_index],
        cells: vec![SweepCell::default(); config.solutions.len()],
    }
}

/// Computes one whole-point work unit: all repetitions of the point,
/// each generating its `(point, repetition)`-seeded taskset and
/// analyzing it with every configured solution.
///
/// The point's entire outcome — cells and kernel deltas — is
/// deterministic in `(config, point_index)` alone, which is what keeps
/// the aggregated telemetry independent of the thread count.
fn sweep_point(config: &SweepConfig, point_index: usize) -> PointOutcome {
    let kernel_before = vc2m_sched::kernel::counters();
    let mut row = empty_row(config, point_index);
    let utilization = config.utilizations[point_index];
    for rep in 0..config.tasksets_per_point {
        let seed = config
            .base_seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((point_index as u64) << 32)
            .wrapping_add(rep as u64);
        let mut generator = TasksetGenerator::new(
            config.platform.resources(),
            TasksetConfig::new(utilization, config.distribution),
            seed,
        );
        let tasks = generator.generate();
        let vms = vec![VmSpec::new(VmId(0), tasks).expect("generated taskset is non-empty")];
        for (cell, &solution) in row.cells.iter_mut().zip(&config.solutions) {
            let start = Instant::now();
            let outcome = solution.allocate(&vms, &config.platform, seed);
            cell.total += 1;
            cell.runtime += start.elapsed();
            if outcome.is_schedulable() {
                cell.schedulable += 1;
            }
        }
    }
    PointOutcome {
        row,
        kernel: vc2m_sched::kernel::counters().since(&kernel_before),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_cover_range_inclusively() {
        let s = utilization_steps(0.1, 2.0, 0.05);
        assert_eq!(s.len(), 39);
        assert!((s[0] - 0.1).abs() < 1e-12);
        assert!((s[38] - 2.0).abs() < 1e-9);
        assert_eq!(utilization_steps(1.0, 1.0, 0.5), vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "step must be positive")]
    fn zero_step_rejected() {
        let _ = utilization_steps(0.1, 2.0, 0.0);
    }

    #[test]
    fn cell_math() {
        let cell = SweepCell {
            schedulable: 3,
            total: 4,
            runtime: Duration::from_millis(200),
        };
        assert_eq!(cell.fraction(), 0.75);
        assert!((cell.avg_runtime_s() - 0.05).abs() < 1e-12);
        assert_eq!(SweepCell::default().fraction(), 0.0);
    }

    #[test]
    fn tiny_sweep_has_expected_shape() {
        let config = SweepConfig {
            platform: Platform::platform_a(),
            distribution: UtilizationDist::Uniform,
            utilizations: vec![0.3, 3.0],
            tasksets_per_point: 3,
            solutions: vec![Solution::HeuristicFlattening, Solution::Baseline],
            base_seed: 7,
        };
        let results = run_sweep(&config);
        assert_eq!(results.rows().len(), 2);
        // Utilization 0.3 on 4 cores: everything schedulable under
        // flattening.
        assert_eq!(
            results.cell(0, Solution::HeuristicFlattening).fraction(),
            1.0
        );
        // Utilization 3.0 with slowdown ≥ 1: baseline cannot schedule.
        assert_eq!(results.cell(1, Solution::Baseline).fraction(), 0.0);
        // Flattening dominates the baseline everywhere.
        for row in 0..2 {
            assert!(
                results.cell(row, Solution::HeuristicFlattening).fraction()
                    >= results.cell(row, Solution::Baseline).fraction()
            );
        }
    }

    #[test]
    fn breakdown_utilization_detects_cliff() {
        let config = SweepConfig {
            platform: Platform::platform_a(),
            distribution: UtilizationDist::Uniform,
            utilizations: vec![0.3, 0.6],
            tasksets_per_point: 2,
            solutions: vec![Solution::HeuristicFlattening],
            base_seed: 3,
        };
        let results = run_sweep(&config);
        let breakdown = results.breakdown_utilization(Solution::HeuristicFlattening);
        assert!(breakdown.is_some());
        assert!(breakdown.unwrap() >= 0.3);
    }

    #[test]
    fn csv_serialization() {
        let config = SweepConfig {
            platform: Platform::platform_c(),
            distribution: UtilizationDist::Uniform,
            utilizations: vec![0.4],
            tasksets_per_point: 1,
            solutions: vec![Solution::Baseline],
            base_seed: 1,
        };
        let results = run_sweep(&config);
        let csv = results.fractions_csv();
        assert!(csv.starts_with("utilization,Baseline (existing CSA)\n"));
        assert!(csv.lines().count() == 2);
        assert!(results.runtimes_csv().contains("0.40,"));
        let display = results.to_string();
        assert!(display.contains("baseline"));
    }

    #[test]
    fn progress_callback_fires_per_point() {
        let config = SweepConfig {
            platform: Platform::platform_a(),
            distribution: UtilizationDist::Uniform,
            utilizations: vec![0.2, 0.4, 0.6],
            tasksets_per_point: 1,
            solutions: vec![Solution::HeuristicFlattening],
            base_seed: 1,
        };
        let mut calls = Vec::new();
        let _ = run_sweep_with_progress(&config, |done, total| calls.push((done, total)));
        assert_eq!(calls, vec![(1, 3), (2, 3), (3, 3)]);
    }

    #[test]
    fn parallel_equals_serial() {
        let config = SweepConfig {
            platform: Platform::platform_a(),
            distribution: UtilizationDist::Uniform,
            utilizations: vec![0.4, 0.8, 1.2],
            tasksets_per_point: 2,
            solutions: vec![Solution::HeuristicFlattening, Solution::Baseline],
            base_seed: 13,
        };
        let serial = run_sweep(&config);
        let parallel = run_sweep_parallel(&config, 3, |_, _| {});
        assert_eq!(serial.fractions_csv(), parallel.fractions_csv());
        assert_eq!(serial.solutions(), parallel.solutions());
        // Kernel telemetry is a sum of per-unit deltas: identical no
        // matter how the units were spread over worker threads.
        assert_eq!(serial.kernel_stats(), parallel.kernel_stats());
        assert!(serial.kernel_stats().vcpu_builds > 0, "no VCPUs built?");
        assert!(serial.kernel_stats().checkpoint_merges > 0);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let config = SweepConfig::quick(Platform::platform_a(), UtilizationDist::Uniform);
        let _ = run_sweep_parallel(&config, 0, |_, _| {});
    }

    #[test]
    fn determinism() {
        let config = SweepConfig::quick(Platform::platform_a(), UtilizationDist::Uniform)
            .with_solutions(vec![Solution::HeuristicFlattening])
            .with_seed(5);
        let mut small = config;
        small.utilizations = vec![0.5, 1.0];
        small.tasksets_per_point = 2;
        let a = run_sweep(&small);
        let b = run_sweep(&small);
        assert_eq!(a.fractions_csv(), b.fractions_csv());
    }

    /// A cheap many-point configuration for the progress tests: 12
    /// single-repetition points under the lightest solution.
    fn progress_config() -> SweepConfig {
        SweepConfig {
            platform: Platform::platform_a(),
            distribution: UtilizationDist::Uniform,
            utilizations: (1..=12).map(|i| 0.1 * i as f64).collect(),
            tasksets_per_point: 1,
            solutions: vec![Solution::HeuristicFlattening],
            base_seed: 11,
        }
    }

    #[test]
    fn parallel_progress_is_point_granular_and_monotone() {
        // With one worker there is never reporter contention, so every
        // point reports individually: the exact serial sequence.
        let config = progress_config();
        let calls = std::sync::Mutex::new(Vec::new());
        let _ = run_sweep_parallel(&config, 1, |done, total| {
            calls.lock().unwrap().push((done, total));
        });
        let calls = calls.into_inner().unwrap();
        assert_eq!(calls, (1..=12).map(|done| (done, 12)).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_progress_coalesces_instead_of_stalling_workers() {
        // Regression for the historical driver, which invoked the
        // callback while holding the global merge lock: a slow callback
        // stalled every worker, and exactly one call per unit was the
        // observable signature. Under the coalescing reporter the
        // workers keep completing points while a callback sleeps, and
        // the drain loop folds those completions into later calls —
        // strictly monotone, terminal (total, total), but fewer calls
        // than points.
        let config = progress_config();
        let calls = std::sync::Mutex::new(Vec::<(usize, usize)>::new());
        let _ = run_sweep_parallel(&config, 4, |done, total| {
            let first = {
                let mut calls = calls.lock().unwrap();
                calls.push((done, total));
                calls.len() == 1
            };
            // One long stall on the first call: points completed by the
            // other workers in the meantime must coalesce.
            std::thread::sleep(std::time::Duration::from_millis(if first {
                500
            } else {
                10
            }));
        });
        let calls = calls.into_inner().unwrap();
        assert!(!calls.is_empty());
        for pair in calls.windows(2) {
            assert!(
                pair[1].0 > pair[0].0,
                "progress counts must be strictly monotone: {calls:?}"
            );
        }
        assert!(calls.iter().all(|&(_, total)| total == 12));
        assert_eq!(calls.last(), Some(&(12, 12)));
        assert!(
            calls.len() < 12,
            "a sleeping callback must coalesce completions, not stall workers: {calls:?}"
        );
    }

    #[test]
    fn zero_repetitions_yield_empty_cells() {
        let config = SweepConfig {
            platform: Platform::platform_a(),
            distribution: UtilizationDist::Uniform,
            utilizations: vec![0.5, 1.0],
            tasksets_per_point: 0,
            solutions: vec![Solution::Baseline],
            base_seed: 1,
        };
        for results in [run_sweep(&config), run_sweep_parallel(&config, 2, |_, _| {})] {
            assert_eq!(results.rows().len(), 2);
            assert_eq!(results.cell(0, Solution::Baseline).total, 0);
            assert_eq!(results.cell(0, Solution::Baseline).fraction(), 0.0);
        }
    }
}
