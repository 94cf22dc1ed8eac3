//! Bandwidth regulation and isolation, exercised directly.
//!
//! Part 1 drives the MemGuard-style regulator substrate by hand: a
//! core with a small bandwidth budget, a traffic source that exceeds
//! it, throttle on overflow, un-throttle at the refill boundary.
//!
//! Part 2 shows the same mechanism end-to-end in the hypervisor
//! simulator: a memory-hog task is throttled into missing deadlines,
//! while the identical task under a sufficient budget runs cleanly.
//!
//! Part 3 reproduces the shape of the paper's Section 3.3 study: the
//! WCET of each PARSEC-style benchmark with and without cache/BW
//! isolation.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example bandwidth_regulation
//! ```

use vc2m::rng::DetRng;
use vc2m::alloc::{CoreAssignment, SystemAllocation};
use vc2m::hypervisor::interference::{self, InterferenceConfig};
use vc2m::membw::{budget_requests_per_period, BwRegulator, RegulatorConfig, ThrottleAction};
use vc2m::model::{BudgetSurface, SimDuration};
use vc2m::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    part1_regulator_state_machine()?;
    part2_throttling_in_the_hypervisor()?;
    part3_isolation_study();
    Ok(())
}

fn part1_regulator_state_machine() -> Result<(), Box<dyn std::error::Error>> {
    println!("== part 1: the regulator state machine ==\n");
    // 4 cores, 1 ms regulation period; core 0 gets 2 bandwidth
    // partitions of 60 MB/s.
    let mut regulator = BwRegulator::new(RegulatorConfig::new(4, 1.0)?);
    let budget = budget_requests_per_period(2, 60, 1.0);
    regulator.set_budget(0, budget)?;
    println!("core 0 budget: {budget} memory requests per 1 ms period");

    // A burst below the budget: nothing happens.
    let action = regulator.record_requests(0, budget - 1)?;
    println!("burst of {} requests -> {action:?}", budget - 1);

    // The next request overflows the preset counter: the overflow
    // interrupt fires and the core is throttled (left idle).
    let action = regulator.record_requests(0, 1)?;
    println!("one more request     -> {action:?}");
    assert_eq!(action, ThrottleAction::Throttle);
    let throttled: Vec<usize> = regulator.throttled_cores().collect();
    println!("throttled cores: {throttled:?}");

    // The periodic refiller replenishes every budget and reports which
    // cores the scheduler must wake.
    let mut woken = Vec::new();
    regulator.replenish_all(&mut woken);
    println!("refill boundary     -> wake cores {woken:?}\n");
    Ok(())
}

fn part2_throttling_in_the_hypervisor() -> Result<(), Box<dyn std::error::Error>> {
    println!("== part 2: throttling end-to-end ==\n");
    let platform = Platform::platform_a();
    let space = platform.resources();
    let task = Task::new(TaskId(0), 10.0, WcetSurface::flat(&space, 5.0)?)?;
    let tasks: TaskSet = std::iter::once(task).collect();
    let vcpu = VcpuSpec::new(
        VcpuId(0),
        VmId(0),
        10.0,
        BudgetSurface::flat(&space, 5.0)?,
        vec![TaskId(0)],
    )?;

    for (label, bw_partitions, traffic) in [
        ("within budget   (b=10, traffic 0.5x)", 10u32, 0.5),
        ("hog vs tight bw (b=2,  traffic 3.0x)", 2u32, 3.0),
    ] {
        let allocation = SystemAllocation::new(
            vec![vcpu.clone()],
            vec![CoreAssignment {
                vcpus: vec![0],
                alloc: Alloc::new(10, bw_partitions),
            }],
        );
        let config = SimConfig::default()
            .with_horizon(SimDuration::from_ms(1000.0))
            .with_traffic_fraction(traffic);
        let report = HypervisorSim::new(&platform, &allocation, &tasks, config)?.run()?;
        println!(
            "{label}: {} throttles, {} misses in 1 s",
            report.throttle_events,
            report.deadline_misses.len()
        );
    }
    println!();
    Ok(())
}

fn part3_isolation_study() {
    println!("== part 3: WCET impact of isolation (Section 3.3 shape) ==\n");
    let space = Platform::platform_a().resources();
    let alloc = Alloc::new(10, 10);
    let config = InterferenceConfig::default();
    println!(
        "{:<14} {:>10} {:>10} {:>10}",
        "benchmark", "isolated", "shared", "reduction"
    );
    for benchmark in ParsecBenchmark::ALL {
        let mut rng = DetRng::seed_from_u64(0xb10c);
        let m = interference::measure(&benchmark.profile(), &space, alloc, &config, &mut rng);
        println!(
            "{:<14} {:>10.2} {:>10.2} {:>9.2}x",
            benchmark.name(),
            m.isolated.max().unwrap_or(f64::NAN),
            m.shared.max().unwrap_or(f64::NAN),
            m.wcet_reduction().unwrap_or(f64::NAN)
        );
    }
    println!("\n(worst observed slowdown relative to the reference WCET, 25 runs each;");
    println!(" 'reduction' is the WCET saving isolation buys — compare the paper's");
    println!(" finding that the benefit varies strongly across benchmarks)");
}
