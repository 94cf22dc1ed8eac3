//! Ablations of vC²M's design choices (beyond the paper's figures).
//!
//! `DESIGN.md` calls out three load-bearing choices in the allocation
//! heuristic; these measurements show what each one costs:
//!
//! * **Phase-1 restarts** — how much work the random-permutation
//!   retries add (1 vs 10 permutations);
//! * **balance rounds** — the Phase-3 ↔ Phase-2 iteration budget;
//! * **checkpoint-cached budget search** — the periodic-resource-model
//!   minimal-budget computation that dominates existing-CSA runs
//!   (single tasks vs 10-task demands).

use vc2m::alloc::hypervisor_level::{heuristic, HeuristicConfig};
use vc2m::prelude::*;
use vc2m::sched::{dbf::Demand, sbf::min_budget};
use vc2m_bench::timing::run;
use vc2m_rng::DetRng;

fn vcpus_for_ablation(utilization: f64) -> (Platform, Vec<VcpuSpec>) {
    let platform = Platform::platform_a();
    let mut generator = TasksetGenerator::new(
        platform.resources(),
        TasksetConfig::new(utilization, UtilizationDist::Uniform),
        0xAB1A,
    );
    let tasks = generator.generate();
    let vms = vec![VmSpec::new(VmId(0), tasks).expect("non-empty")];
    let mut rng = DetRng::seed_from_u64(1);
    let vcpus = Solution::HeuristicOverheadFree
        .vm_level(&vms, &platform, &mut rng)
        .expect("vm level succeeds");
    (platform, vcpus)
}

fn bench_permutations() {
    let (platform, vcpus) = vcpus_for_ablation(1.6);
    for permutations in [1usize, 4, 10] {
        let config = HeuristicConfig {
            max_permutations: permutations,
            ..HeuristicConfig::default()
        };
        run(&format!("permutations/{permutations}"), 10, || {
            let mut rng = DetRng::seed_from_u64(2);
            heuristic(&vcpus, &platform, config, &mut rng)
        });
    }
}

fn bench_balance_rounds() {
    let (platform, vcpus) = vcpus_for_ablation(1.6);
    for rounds in [1usize, 4, 8] {
        let config = HeuristicConfig {
            max_balance_rounds: rounds,
            ..HeuristicConfig::default()
        };
        run(&format!("balance_rounds/{rounds}"), 10, || {
            let mut rng = DetRng::seed_from_u64(2);
            heuristic(&vcpus, &platform, config, &mut rng)
        });
    }
}

fn bench_min_budget() {
    let single = Demand::new(vec![(10.0, 1.0)]).expect("valid demand");
    run("min_budget/single_task", 1_000, || min_budget(&single, 10.0));
    let many = Demand::new(
        (0..10)
            .map(|i| (100.0 * f64::from(1 << (i % 4)), 5.0))
            .collect(),
    )
    .expect("valid demand");
    run("min_budget/ten_tasks_harmonic", 1_000, || {
        min_budget(&many, 100.0)
    });
}

fn main() {
    println!("ablation: design-choice costs");
    bench_permutations();
    bench_balance_rounds();
    bench_min_budget();
}
