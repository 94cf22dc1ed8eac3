//! Random taskset synthesis following Section 5.1 of the paper.

use crate::table::SlowdownTable;
use crate::{ParsecBenchmark, UtilizationDist};
use vc2m_rng::{DetRng, Rng};
use std::fmt;
use vc2m_model::{ResourceSpace, Task, TaskId, TaskSet, VmId, VmSpec};

/// Configuration of taskset generation.
///
/// Defaults mirror the paper: harmonic periods uniformly covering
/// \[100, 1100\] ms (four power-of-two harmonic levels), tasks drawn
/// until the target *reference* utilization is reached.
#[derive(Debug, Clone, PartialEq)]
pub struct TasksetConfig {
    target_utilization: f64,
    distribution: UtilizationDist,
    period_min: f64,
    period_max: f64,
    harmonic_levels: u32,
    vm_count: usize,
    benchmarks: Vec<ParsecBenchmark>,
}

impl TasksetConfig {
    /// Creates a configuration targeting the given taskset reference
    /// utilization with the given utilization distribution.
    ///
    /// # Panics
    ///
    /// Panics if `target_utilization` is not positive and finite.
    pub fn new(target_utilization: f64, distribution: UtilizationDist) -> Self {
        assert!(
            target_utilization.is_finite() && target_utilization > 0.0,
            "target utilization must be positive, got {target_utilization}"
        );
        TasksetConfig {
            target_utilization,
            distribution,
            period_min: 100.0,
            period_max: 1100.0,
            harmonic_levels: 4,
            vm_count: 1,
            benchmarks: ParsecBenchmark::ALL.to_vec(),
        }
    }

    /// Overrides the period range (default \[100, 1100\] ms).
    ///
    /// # Panics
    ///
    /// Panics unless `1e-6 ≤ min < max < ∞` (periods are quantized to
    /// whole nanoseconds, so a shorter one would round to zero) and the
    /// range fits the harmonic levels (`min · 2^(levels−1) ≤ max`).
    pub fn with_period_range(mut self, min: f64, max: f64) -> Self {
        assert!(
            min >= 1e-6 && min < max && max.is_finite(),
            "need 1e-6 <= min < max < inf, got [{min}, {max}]"
        );
        assert!(
            min * f64::from(1u32 << (self.harmonic_levels - 1)) <= max,
            "period range too narrow for {} harmonic levels",
            self.harmonic_levels
        );
        self.period_min = min;
        self.period_max = max;
        self
    }

    /// Overrides the number of power-of-two harmonic levels
    /// (default 4: periods r, 2r, 4r, 8r).
    ///
    /// # Panics
    ///
    /// Panics if `levels` is zero or above 31 (so every level factor
    /// `2^k` stays below 2³¹), or the period range cannot fit it.
    pub fn with_harmonic_levels(mut self, levels: u32) -> Self {
        assert!(levels >= 1, "need at least one harmonic level");
        assert!(levels <= 31, "at most 31 harmonic levels, got {levels}");
        assert!(
            self.period_min * f64::from(1u32 << (levels - 1)) <= self.period_max,
            "period range too narrow for {levels} harmonic levels"
        );
        self.harmonic_levels = levels;
        self
    }

    /// Splits the generated workload across `vms` virtual machines
    /// (round-robin; default 1).
    ///
    /// # Panics
    ///
    /// Panics if `vms` is zero.
    pub fn with_vm_count(mut self, vms: usize) -> Self {
        assert!(vms >= 1, "need at least one VM");
        self.vm_count = vms;
        self
    }

    /// The target taskset reference utilization.
    pub fn target_utilization(&self) -> f64 {
        self.target_utilization
    }

    /// The utilization distribution.
    pub fn distribution(&self) -> UtilizationDist {
        self.distribution
    }

    /// The number of VMs the workload is split across.
    pub fn vm_count(&self) -> usize {
        self.vm_count
    }

    /// Restricts the benchmark pool tasks draw their WCET surfaces
    /// from (default: the whole PARSEC suite). Useful for sensitivity
    /// studies, e.g. memory-bound-only workloads.
    ///
    /// # Panics
    ///
    /// Panics if `benchmarks` is empty.
    pub fn with_benchmarks(mut self, benchmarks: Vec<ParsecBenchmark>) -> Self {
        assert!(!benchmarks.is_empty(), "need at least one benchmark");
        self.benchmarks = benchmarks;
        self
    }

    /// The benchmark pool.
    pub fn benchmarks(&self) -> &[ParsecBenchmark] {
        &self.benchmarks
    }
}

/// A seeded random taskset generator.
///
/// Generation follows Section 5.1:
///
/// 1. a harmonic *period base* `r` is drawn so that the levels
///    `r·2^k` cover the period range;
/// 2. each task draws a period uniformly among the levels, a
///    utilization `uᵢ` from the configured distribution, and a PARSEC
///    benchmark uniformly;
/// 3. the task's maximum WCET is `eᵢᵐᵃˣ = uᵢ·pᵢ`; its reference WCET is
///    `e*ᵢ = eᵢᵐᵃˣ / sᵐᵃˣ` (the benchmark's maximum slowdown factor);
///    its WCET surface is `eᵢ(c,b) = e*ᵢ · s(c,b)`, preserving the
///    benchmark's sensitivity to cache and bandwidth;
/// 4. tasks are added until the sum of `e*ᵢ/pᵢ` reaches the target
///    reference utilization.
#[derive(Debug)]
pub struct TasksetGenerator {
    space: ResourceSpace,
    config: TasksetConfig,
    rng: DetRng,
    next_task_id: usize,
}

impl TasksetGenerator {
    /// Creates a generator over the platform resource space `space`,
    /// deterministic in `seed`.
    pub fn new(space: ResourceSpace, config: TasksetConfig, seed: u64) -> Self {
        TasksetGenerator {
            space,
            config,
            rng: DetRng::seed_from_u64(seed),
            next_task_id: 0,
        }
    }

    /// Generates one taskset, together with each task's source
    /// benchmark.
    pub fn generate_with_benchmarks(&mut self) -> Vec<(Task, ParsecBenchmark)> {
        let levels = self.config.harmonic_levels;
        let top_factor = f64::from(1u32 << (levels - 1));
        let base = self
            .rng
            .gen_range(self.config.period_min..=self.config.period_max / top_factor);
        // Quantize the base to whole nanoseconds so that every
        // power-of-two multiple is *exactly* representable: analysis
        // and simulation agree on divisibility, and hyperperiods stay
        // equal to the longest period instead of exploding through
        // rounding residue.
        let base = (base * 1e6).round() / 1e6;

        let table = SlowdownTable::for_space(&self.space);
        let mut tasks = Vec::new();
        let mut total_ref_util = 0.0;
        while total_ref_util < self.config.target_utilization {
            let level = self.rng.gen_range(0..levels);
            let period = base * f64::from(1u32 << level);
            let utilization = self.config.distribution.sample(&mut self.rng);
            let benchmark =
                self.config.benchmarks[self.rng.gen_range(0..self.config.benchmarks.len())];
            let slowdown = table.entry(benchmark);
            let e_max = utilization * period;
            let e_ref = e_max / slowdown.max_slowdown;
            let surface = slowdown.surface.scaled(e_ref);
            let id = TaskId(self.next_task_id);
            self.next_task_id += 1;
            // Audited expect: the period is at least 1 ns (the base is
            // quantized from a range starting there) and finite, and
            // e_ref = u·p / s_max with u < 1 ≤ s_max is below it.
            #[allow(clippy::expect_used)]
            let task = Task::new(id, period, surface)
                .expect("generated task parameters are valid by construction");
            total_ref_util += task.reference_utilization();
            tasks.push((task, benchmark));
        }
        tasks
    }

    /// Generates one taskset.
    pub fn generate(&mut self) -> TaskSet {
        self.generate_with_benchmarks()
            .into_iter()
            .map(|(t, _)| t)
            .collect()
    }

    /// Generates one workload split across the configured number of
    /// VMs (round-robin by generation order).
    ///
    /// VMs are only created if they receive at least one task, so the
    /// result may have fewer than `vm_count` VMs for tiny tasksets.
    pub fn generate_vms(&mut self) -> Vec<VmSpec> {
        let tasks = self.generate();
        let vm_count = self.config.vm_count;
        let mut buckets: Vec<TaskSet> = (0..vm_count).map(|_| TaskSet::new()).collect();
        for (i, task) in tasks.into_iter().enumerate() {
            buckets[i % vm_count].push(task);
        }
        buckets
            .into_iter()
            .enumerate()
            // An empty bucket is `VmSpec::new`'s only error.
            .filter_map(|(i, b)| VmSpec::new(VmId(i), b).ok())
            .collect()
    }
}

impl fmt::Display for TasksetGenerator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TasksetGenerator(target u*={}, {}, {} VMs)",
            self.config.target_utilization, self.config.distribution, self.config.vm_count
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc2m_model::Platform;

    fn generator(target: f64, seed: u64) -> TasksetGenerator {
        TasksetGenerator::new(
            Platform::platform_a().resources(),
            TasksetConfig::new(target, UtilizationDist::Uniform),
            seed,
        )
    }

    #[test]
    fn reaches_target_utilization_without_overshooting_much() {
        let ts = generator(1.0, 1).generate();
        let u = ts.reference_utilization();
        assert!(u >= 1.0, "must reach the target, got {u}");
        // The last task adds at most max utilization 0.4.
        assert!(u < 1.45, "overshoot bounded by one task, got {u}");
    }

    #[test]
    fn periods_are_harmonic_and_in_range() {
        for seed in 0..20 {
            let ts = generator(2.0, seed).generate();
            assert!(ts.is_harmonic(), "seed {seed}");
            for t in ts.iter() {
                assert!(
                    (100.0..=1100.0).contains(&t.period()),
                    "seed {seed}: period {}",
                    t.period()
                );
            }
        }
    }

    #[test]
    fn determinism_per_seed() {
        let a = generator(1.0, 42).generate();
        let b = generator(1.0, 42).generate();
        assert_eq!(a, b);
        let c = generator(1.0, 43).generate();
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn wcet_surfaces_preserve_benchmark_sensitivity() {
        let space = Platform::platform_a().resources();
        for (task, bench) in generator(1.0, 5).generate_with_benchmarks() {
            let expected = bench.profile().slowdown_surface(&space);
            let actual = task.slowdown_vector();
            for (alloc, e) in expected.iter() {
                assert!(
                    (actual.at(alloc) - e).abs() < 1e-9,
                    "slowdown mismatch for {bench} at {alloc}"
                );
            }
        }
    }

    #[test]
    fn max_wcet_is_utilization_times_period() {
        for (task, bench) in generator(1.0, 9).generate_with_benchmarks() {
            let s_max = bench
                .profile()
                .slowdown_surface(task.wcet_surface().space())
                .max_slowdown();
            // e_max = e_ref * s_max must not exceed the period (u <= 0.4),
            // and reference utilization is u / s_max.
            let e_max = task.reference_wcet() * s_max;
            let u = e_max / task.period();
            assert!((0.1..0.4).contains(&u), "recovered utilization {u}");
        }
    }

    #[test]
    fn task_ids_are_unique_across_generations() {
        let mut g = generator(0.5, 3);
        let a = g.generate();
        let b = g.generate();
        let mut ids: Vec<usize> = a.iter().chain(b.iter()).map(|t| t.id().index()).collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }

    #[test]
    fn vm_split_partitions_all_tasks() {
        let mut g = TasksetGenerator::new(
            Platform::platform_a().resources(),
            TasksetConfig::new(2.0, UtilizationDist::BimodalMedium).with_vm_count(3),
            11,
        );
        let vms = g.generate_vms();
        assert!(vms.len() <= 3 && !vms.is_empty());
        let total: usize = vms.iter().map(|vm| vm.tasks().len()).sum();
        assert!(
            total >= 5,
            "2.0 utilization needs several tasks, got {total}"
        );
        // Each VM's taskset is itself harmonic (subsets of harmonic sets).
        for vm in &vms {
            assert!(vm.tasks().is_harmonic());
        }
    }

    #[test]
    fn custom_period_range() {
        let config = TasksetConfig::new(0.5, UtilizationDist::Uniform)
            .with_period_range(10.0, 160.0)
            .with_harmonic_levels(3);
        let mut g = TasksetGenerator::new(Platform::platform_c().resources(), config, 2);
        for t in g.generate().iter() {
            assert!((10.0..=160.0).contains(&t.period()));
        }
    }

    #[test]
    fn restricted_benchmark_pool_is_respected() {
        let config = TasksetConfig::new(1.0, UtilizationDist::Uniform)
            .with_benchmarks(vec![ParsecBenchmark::Canneal, ParsecBenchmark::Swaptions]);
        let mut g = TasksetGenerator::new(Platform::platform_a().resources(), config, 4);
        for (_, bench) in g.generate_with_benchmarks() {
            assert!(
                matches!(bench, ParsecBenchmark::Canneal | ParsecBenchmark::Swaptions),
                "got {bench}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one benchmark")]
    fn empty_benchmark_pool_rejected() {
        let _ = TasksetConfig::new(1.0, UtilizationDist::Uniform).with_benchmarks(vec![]);
    }

    #[test]
    #[should_panic(expected = "too narrow")]
    fn narrow_period_range_rejected() {
        let _ = TasksetConfig::new(0.5, UtilizationDist::Uniform).with_period_range(100.0, 200.0);
    }

    #[test]
    #[should_panic(expected = "need 1e-6 <= min")]
    fn sub_nanosecond_period_range_rejected() {
        // The quantized period base would round to zero.
        let _ = TasksetConfig::new(0.5, UtilizationDist::Uniform).with_period_range(1e-9, 1e-6);
    }

    #[test]
    #[should_panic(expected = "need 1e-6 <= min")]
    fn unbounded_period_range_rejected() {
        let _ =
            TasksetConfig::new(0.5, UtilizationDist::Uniform).with_period_range(1.0, f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "at most 31 harmonic levels")]
    fn too_many_harmonic_levels_rejected() {
        // 2^32 would overflow the u32 level factor; a range wide
        // enough for it must still be refused.
        let _ = TasksetConfig::new(0.5, UtilizationDist::Uniform)
            .with_period_range(1.0, 1e12)
            .with_harmonic_levels(33);
    }

    #[test]
    fn thirty_one_harmonic_levels_accepted() {
        let config = TasksetConfig::new(0.5, UtilizationDist::Uniform)
            .with_period_range(1.0, 1e12)
            .with_harmonic_levels(31);
        let mut g = TasksetGenerator::new(Platform::platform_a().resources(), config, 6);
        for t in g.generate().iter() {
            assert!((1.0..=1e12).contains(&t.period()));
        }
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_target_rejected() {
        let _ = TasksetConfig::new(0.0, UtilizationDist::Uniform);
    }
}
