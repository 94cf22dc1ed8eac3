//! Property-based tests for workload generation, driven by the
//! in-tree seeded case harness (`vc2m_rng::cases`).

use vc2m_model::{Platform, ResourceSpace};
use vc2m_rng::{cases::check, DetRng, Rng};
use vc2m_workload::{ParsecBenchmark, TasksetConfig, TasksetGenerator, UtilizationDist};

fn arb_dist(rng: &mut DetRng) -> UtilizationDist {
    let dists = [
        UtilizationDist::Uniform,
        UtilizationDist::BimodalLight,
        UtilizationDist::BimodalMedium,
        UtilizationDist::BimodalHeavy,
    ];
    dists[rng.gen_range(0..dists.len())]
}

fn arb_platform(rng: &mut DetRng) -> Platform {
    let platforms = [
        Platform::platform_a(),
        Platform::platform_b(),
        Platform::platform_c(),
    ];
    platforms[rng.gen_range(0..platforms.len())]
}

/// The paper's workload invariants for one generated taskset: target
/// utilization reached without large overshoot, harmonic periods in
/// range, monotone WCET surfaces with bounded worst corners.
fn assert_paper_invariants(platform: Platform, dist: UtilizationDist, target: f64, seed: u64) {
    let mut generator =
        TasksetGenerator::new(platform.resources(), TasksetConfig::new(target, dist), seed);
    let tasks = generator.generate();
    // Reaches the target, overshooting by at most one task's
    // utilization (≤ 0.9 for bimodal-heavy).
    let u = tasks.reference_utilization();
    assert!(u >= target);
    assert!(u < target + 0.91, "overshoot too large: {u} vs {target}");
    // Harmonic periods in [100, 1100].
    assert!(tasks.is_harmonic());
    for t in tasks.iter() {
        assert!((100.0..=1100.0 + 1e-9).contains(&t.period()));
        // The WCET surface is monotone (more resources never hurt)
        // and the worst corner matches e_max = u_i * p_i <= 0.9 p_i.
        assert!(t.wcet_surface().is_monotone_non_increasing());
        let e_max = t.wcet_surface().at_minimum();
        assert!(e_max <= 0.9 * t.period() + 1e-9);
        assert!(t.reference_wcet() <= e_max + 1e-12);
    }
}

#[test]
fn generated_tasksets_satisfy_all_paper_invariants() {
    check(48, |rng| {
        let platform = arb_platform(rng);
        let dist = arb_dist(rng);
        let target = rng.gen_range(0.1f64..2.0);
        let seed = rng.gen_range(0u64..10_000);
        assert_paper_invariants(platform, dist, target, seed);
    });
}

/// Regression (from a retired shrinker seed that shrank to platform A,
/// 4 cores / cache 2..=20 / bandwidth 1..=20): pin the invariant run
/// on that exact platform across every distribution and a spread of
/// targets and seeds, independent of the harness's case sampling.
#[test]
fn regression_platform_a_paper_invariants_pinned() {
    let dists = [
        UtilizationDist::Uniform,
        UtilizationDist::BimodalLight,
        UtilizationDist::BimodalMedium,
        UtilizationDist::BimodalHeavy,
    ];
    for dist in dists {
        for (target, seed) in [(0.1, 0u64), (0.7, 17), (1.3, 4242), (2.0, 9001)] {
            assert_paper_invariants(Platform::platform_a(), dist, target, seed);
        }
    }
}

#[test]
fn benchmark_profiles_are_sane_on_any_platform() {
    check(48, |rng| {
        let platform = arb_platform(rng);
        let space = platform.resources();
        for bench in ParsecBenchmark::ALL {
            let s = bench.profile().slowdown_surface(&space);
            assert!((s.reference() - 1.0).abs() < 1e-12, "{bench}");
            assert!(s.is_monotone_non_increasing(), "{bench}");
            assert!(s.max_slowdown() >= 1.0 && s.max_slowdown() < 16.0, "{bench}");
        }
    });
}

#[test]
fn vm_split_conserves_tasks() {
    check(48, |rng| {
        let vm_count = rng.gen_range(1usize..6);
        let target = rng.gen_range(0.3f64..1.5);
        let seed = rng.gen_range(0u64..1000);
        let platform = Platform::platform_a();
        let mut generator = TasksetGenerator::new(
            platform.resources(),
            TasksetConfig::new(target, UtilizationDist::Uniform).with_vm_count(vm_count),
            seed,
        );
        let vms = generator.generate_vms();
        assert!(!vms.is_empty() && vms.len() <= vm_count);
        // Union of VM tasksets = the full workload, utilization intact.
        let total: f64 = vms.iter().map(|vm| vm.reference_utilization()).sum();
        assert!(total >= target);
        // Ids unique across VMs.
        let mut ids: Vec<usize> = vms
            .iter()
            .flat_map(|vm| vm.tasks().iter().map(|t| t.id().index()))
            .collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n);
    });
}

#[test]
fn same_seed_same_taskset_different_seed_probably_not() {
    check(48, |rng| {
        let seed = rng.gen_range(0u64..1000);
        let dist = arb_dist(rng);
        let space: ResourceSpace = Platform::platform_a().resources();
        let make = |s: u64| TasksetGenerator::new(space, TasksetConfig::new(0.8, dist), s).generate();
        assert_eq!(make(seed), make(seed));
    });
}

/// A random valid resource space, small enough to keep cases cheap.
fn arb_space(rng: &mut DetRng) -> ResourceSpace {
    let cache_min = rng.gen_range(1u32..4);
    let bw_min = rng.gen_range(1u32..4);
    ResourceSpace::new(
        cache_min,
        cache_min + rng.gen_range(0u32..16),
        bw_min,
        bw_min + rng.gen_range(0u32..16),
    )
    .expect("minimums are positive and below their maximums")
}

/// A random non-empty benchmark pool (repeats allowed, as the
/// configuration permits).
fn arb_pool(rng: &mut DetRng) -> Vec<ParsecBenchmark> {
    let len = rng.gen_range(1usize..8);
    (0..len).map(|_| ParsecBenchmark::sample(rng)).collect()
}

fn arb_generator(rng: &mut DetRng, space: ResourceSpace) -> TasksetGenerator {
    let config = TasksetConfig::new(rng.gen_range(0.05f64..1.0), arb_dist(rng))
        .with_benchmarks(arb_pool(rng));
    TasksetGenerator::new(space, config, rng.gen_range(0u64..10_000))
}

/// Every generated task's WCET surface is, bit for bit, its
/// benchmark's slowdown surface computed afresh and scaled by the
/// task's reference WCET — the per-task computation the per-space
/// table must reproduce.
fn assert_surfaces_match_per_task_path(generator: &mut TasksetGenerator, space: ResourceSpace) {
    for (task, bench) in generator.generate_with_benchmarks() {
        let surface = task.wcet_surface();
        assert_eq!(surface.space(), &space);
        let oracle = bench
            .profile()
            .slowdown_surface(&space)
            .scaled(surface.reference());
        for ((alloc, got), (_, want)) in surface.iter().zip(oracle.iter()) {
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{bench} at {alloc} over {space}"
            );
        }
    }
}

#[test]
fn slowdown_table_is_bit_identical_to_the_per_task_surfaces() {
    check(48, |rng| {
        // Two to five spaces, the paper's platforms among random ones,
        // generated from in interleaved rounds on this thread: a table
        // keyed or indexed wrongly, or evicted and rebuilt wrongly,
        // hands one generator another space's or benchmark's surface.
        let spaces: Vec<ResourceSpace> = (0..rng.gen_range(2usize..6))
            .map(|_| {
                if rng.gen_bool(0.5) {
                    arb_platform(rng).resources()
                } else {
                    arb_space(rng)
                }
            })
            .collect();
        let mut generators: Vec<TasksetGenerator> = spaces
            .iter()
            .map(|&space| arb_generator(rng, space))
            .collect();
        for _ in 0..2 {
            for (generator, &space) in generators.iter_mut().zip(&spaces) {
                assert_surfaces_match_per_task_path(generator, space);
            }
        }
        // The same on two spawned threads, each with its own cache, in
        // a quarter of the cases (spawning dominates a case's cost).
        if !rng.gen_bool(0.25) {
            return;
        }
        let mut workers: Vec<(TasksetGenerator, ResourceSpace)> = spaces[..2]
            .iter()
            .map(|&space| (arb_generator(rng, space), space))
            .collect();
        std::thread::scope(|scope| {
            for (generator, space) in &mut workers {
                scope.spawn(move || assert_surfaces_match_per_task_path(generator, *space));
            }
        });
    });
}
