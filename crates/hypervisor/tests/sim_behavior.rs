//! Behavioral tests of the hypervisor simulator: scheduling
//! correctness, budget enforcement, throttling, and agreement with the
//! analyses' verdicts.

use vc2m_alloc::{CoreAssignment, Solution, SystemAllocation};
use vc2m_hypervisor::{HypervisorSim, SimBuildError, SimConfig, SimError, TraceEvent};
use vc2m_model::{
    Alloc, BudgetSurface, Platform, SimDuration, SimTime, Task, TaskId, TaskSet, VcpuId, VcpuSpec,
    VmId, VmSpec, WcetSurface,
};

fn space() -> vc2m_model::ResourceSpace {
    Platform::platform_a().resources()
}

fn flat_task(id: usize, period: f64, wcet: f64) -> Task {
    Task::new(
        TaskId(id),
        period,
        WcetSurface::flat(&space(), wcet).unwrap(),
    )
    .unwrap()
}

fn vcpu(id: usize, period: f64, budget: f64, tasks: Vec<TaskId>) -> VcpuSpec {
    VcpuSpec::new(
        VcpuId(id),
        VmId(0),
        period,
        BudgetSurface::flat(&space(), budget).unwrap(),
        tasks,
    )
    .unwrap()
}

fn short_config() -> SimConfig {
    SimConfig::default().with_horizon(SimDuration::from_ms(400.0))
}

#[test]
fn single_task_on_dedicated_vcpu_never_misses() {
    let tasks: TaskSet = std::iter::once(flat_task(0, 10.0, 4.0)).collect();
    let allocation = SystemAllocation::new(
        vec![vcpu(0, 10.0, 4.0, vec![TaskId(0)])],
        vec![CoreAssignment {
            vcpus: vec![0],
            alloc: Alloc::new(10, 10),
        }],
    );
    let report = HypervisorSim::new(&Platform::platform_a(), &allocation, &tasks, short_config())
        .unwrap()
        .run()
        .unwrap();
    assert!(
        report.all_deadlines_met(),
        "misses: {:?}",
        report.deadline_misses
    );
    // 400 ms / 10 ms: the 40th job's deadline is at the horizon.
    assert!(
        report.jobs_completed >= 39,
        "completed {}",
        report.jobs_completed
    );
    assert!(report.worst_response_ms(TaskId(0)).unwrap() <= 10.0);
}

#[test]
fn full_utilization_core_with_two_servers_meets_all_deadlines() {
    // Theorem 2 setting: harmonic tasks, well-regulated servers,
    // total bandwidth exactly 1.0.
    let t0 = flat_task(0, 10.0, 4.0); // U = 0.4
    let t1 = flat_task(1, 20.0, 8.0); // U = 0.4
    let t2 = flat_task(2, 40.0, 8.0); // U = 0.2
    let tasks: TaskSet = vec![t0, t1, t2].into_iter().collect();
    // VCPU 0 serves tasks 0; VCPU 1 serves tasks 1 and 2 (Π = 20,
    // Θ = 20·0.6 = 12).
    let allocation = SystemAllocation::new(
        vec![
            vcpu(0, 10.0, 4.0, vec![TaskId(0)]),
            vcpu(1, 20.0, 12.0, vec![TaskId(1), TaskId(2)]),
        ],
        vec![CoreAssignment {
            vcpus: vec![0, 1],
            alloc: Alloc::new(10, 10),
        }],
    );
    let report = HypervisorSim::new(&Platform::platform_a(), &allocation, &tasks, short_config())
        .unwrap()
        .run()
        .unwrap();
    assert!(
        report.all_deadlines_met(),
        "theorem 2 violated in simulation: {:?}",
        report.deadline_misses
    );
    assert!(report.context_switches > 10);
}

#[test]
fn undersized_budget_causes_misses() {
    // WCET 5 but budget 4: every job falls 1 ms short.
    let tasks: TaskSet = std::iter::once(flat_task(0, 10.0, 5.0)).collect();
    let allocation = SystemAllocation::new(
        vec![vcpu(0, 10.0, 4.0, vec![TaskId(0)])],
        vec![CoreAssignment {
            vcpus: vec![0],
            alloc: Alloc::new(10, 10),
        }],
    );
    let report = HypervisorSim::new(&Platform::platform_a(), &allocation, &tasks, short_config())
        .unwrap()
        .run()
        .unwrap();
    assert!(!report.all_deadlines_met());
    assert!(report.deadline_misses.len() > 10);
    assert_eq!(report.deadline_misses[0].task, TaskId(0));
}

#[test]
fn edf_tie_break_prefers_smaller_period_then_index() {
    // Two servers with equal deadlines at t=0: period 10 (index 1) and
    // period 10 (index 0) — index 0 must run first; against period 5
    // (index 2), the period-5 server wins the tie at common deadlines.
    // Behavioral proxy: all deadlines met at full utilization requires
    // the deterministic order; a wrong tie-break (e.g. random) still
    // schedules this workload, so instead assert the response-time
    // signature: the smaller-period task 2 always finishes first.
    let t0 = flat_task(0, 10.0, 3.0);
    let t1 = flat_task(1, 10.0, 3.0);
    let t2 = flat_task(2, 5.0, 2.0);
    let tasks: TaskSet = vec![t0, t1, t2].into_iter().collect();
    let allocation = SystemAllocation::new(
        vec![
            vcpu(0, 10.0, 3.0, vec![TaskId(0)]),
            vcpu(1, 10.0, 3.0, vec![TaskId(1)]),
            vcpu(2, 5.0, 2.0, vec![TaskId(2)]),
        ],
        vec![CoreAssignment {
            vcpus: vec![0, 1, 2],
            alloc: Alloc::new(10, 10),
        }],
    );
    let report = HypervisorSim::new(&Platform::platform_a(), &allocation, &tasks, short_config())
        .unwrap()
        .run()
        .unwrap();
    assert!(report.all_deadlines_met(), "{:?}", report.deadline_misses);
    // Period-5 server has the earliest deadline at t=0 → runs first:
    // its first response is exactly its WCET.
    let r2 = report.response_times.get(&TaskId(2)).unwrap();
    assert!((r2.min().unwrap() - 2.0).abs() < 1e-6);
    // Among the period-10 servers, index 0 beats index 1 after the
    // period-5 server: task 0 responds at 5, task 1 at 8.
    let r0 = report.response_times.get(&TaskId(0)).unwrap();
    let r1 = report.response_times.get(&TaskId(1)).unwrap();
    assert!(r0.max().unwrap() < r1.max().unwrap());
}

#[test]
fn heavy_traffic_triggers_throttling() {
    // Utilization 0.5 task with traffic at 3× its core's budget rate:
    // the regulator must throttle, stretching execution.
    let tasks: TaskSet = std::iter::once(flat_task(0, 10.0, 5.0)).collect();
    let allocation = SystemAllocation::new(
        vec![vcpu(0, 10.0, 5.0, vec![TaskId(0)])],
        vec![CoreAssignment {
            vcpus: vec![0],
            alloc: Alloc::new(10, 2), // tight bandwidth budget
        }],
    );
    let config = short_config().with_traffic_fraction(3.0);
    let report = HypervisorSim::new(&Platform::platform_a(), &allocation, &tasks, config)
        .unwrap()
        .run()
        .unwrap();
    assert!(report.throttle_events > 0, "regulator never throttled");
    // 3× overload: the task needs ~3 regulation periods of wall time
    // per period of execution — it cannot keep its deadlines.
    assert!(!report.all_deadlines_met());
}

#[test]
fn moderate_traffic_within_budget_never_throttles() {
    let tasks: TaskSet = std::iter::once(flat_task(0, 10.0, 5.0)).collect();
    let allocation = SystemAllocation::new(
        vec![vcpu(0, 10.0, 5.0, vec![TaskId(0)])],
        vec![CoreAssignment {
            vcpus: vec![0],
            alloc: Alloc::new(10, 10),
        }],
    );
    let config = short_config().with_traffic_fraction(0.5);
    let report = HypervisorSim::new(&Platform::platform_a(), &allocation, &tasks, config)
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(report.throttle_events, 0);
    assert!(report.all_deadlines_met());
}

#[test]
fn solution_pipeline_allocations_simulate_cleanly() {
    // End-to-end: allocations produced by each solution must run
    // without misses.
    let platform = Platform::platform_a();
    let tasks: TaskSet = vec![
        flat_task(0, 100.0, 20.0),
        flat_task(1, 200.0, 30.0),
        flat_task(2, 400.0, 40.0),
        flat_task(3, 100.0, 10.0),
    ]
    .into_iter()
    .collect();
    let vms = vec![VmSpec::new(VmId(0), tasks.clone()).unwrap()];
    for solution in Solution::ALL {
        let Some(allocation) = solution.allocate(&vms, &platform, 5).into_allocation() else {
            continue;
        };
        let config = SimConfig::default().with_horizon(SimDuration::from_ms(1200.0));
        let report = HypervisorSim::new(&platform, &allocation, &tasks, config)
            .unwrap()
            .run()
            .unwrap();
        assert!(
            report.all_deadlines_met(),
            "{solution}: allocation declared schedulable but missed: {:?}",
            report.deadline_misses
        );
    }
}

#[test]
fn reports_are_deterministic() {
    let tasks: TaskSet = vec![flat_task(0, 10.0, 3.0), flat_task(1, 20.0, 8.0)]
        .into_iter()
        .collect();
    let allocation = SystemAllocation::new(
        vec![
            vcpu(0, 10.0, 3.0, vec![TaskId(0)]),
            vcpu(1, 20.0, 8.0, vec![TaskId(1)]),
        ],
        vec![CoreAssignment {
            vcpus: vec![0, 1],
            alloc: Alloc::new(10, 10),
        }],
    );
    let run = || {
        let report =
            HypervisorSim::new(&Platform::platform_a(), &allocation, &tasks, short_config())
                .unwrap()
                .run()
                .unwrap();
        (
            report.deadline_misses.len(),
            report.jobs_completed,
            report.context_switches,
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn unknown_task_rejected() {
    let tasks = TaskSet::new();
    let allocation = SystemAllocation::new(
        vec![vcpu(0, 10.0, 4.0, vec![TaskId(9)])],
        vec![CoreAssignment {
            vcpus: vec![0],
            alloc: Alloc::new(10, 10),
        }],
    );
    let err = HypervisorSim::new(&Platform::platform_a(), &allocation, &tasks, short_config())
        .unwrap_err();
    assert_eq!(err, SimBuildError::UnknownTask { task: TaskId(9) });
}

#[test]
fn infeasible_budget_rejected() {
    // Budget 15 > period 10 at the assigned allocation.
    let surface =
        BudgetSurface::from_fn(&space(), |a| if a == Alloc::new(2, 1) { 15.0 } else { 5.0 })
            .unwrap();
    let v = VcpuSpec::new(VcpuId(0), VmId(0), 10.0, surface, vec![TaskId(0)]).unwrap();
    let tasks: TaskSet = std::iter::once(flat_task(0, 10.0, 5.0)).collect();
    let allocation = SystemAllocation::new(
        vec![v],
        vec![CoreAssignment {
            vcpus: vec![0],
            alloc: Alloc::new(2, 1),
        }],
    );
    let err = HypervisorSim::new(&Platform::platform_a(), &allocation, &tasks, short_config())
        .unwrap_err();
    assert_eq!(err, SimBuildError::InfeasibleBudget { vcpu: 0 });
}

#[test]
fn overhead_probes_populate() {
    let tasks: TaskSet = std::iter::once(flat_task(0, 10.0, 4.0)).collect();
    let allocation = SystemAllocation::new(
        vec![vcpu(0, 10.0, 4.0, vec![TaskId(0)])],
        vec![CoreAssignment {
            vcpus: vec![0],
            alloc: Alloc::new(10, 10),
        }],
    );
    let config = short_config().with_handler_timing(true);
    let report = HypervisorSim::new(&Platform::platform_a(), &allocation, &tasks, config)
        .unwrap()
        .run()
        .unwrap();
    use vc2m_hypervisor::HandlerKind;
    for kind in [
        HandlerKind::CpuBudgetReplenish,
        HandlerKind::Scheduling,
        HandlerKind::ContextSwitch,
        HandlerKind::BwReplenish,
    ] {
        let stats = report
            .handler_overheads
            .get(&kind)
            .unwrap_or_else(|| panic!("no samples for {kind}"));
        assert!(stats.count() > 0);
        assert!(stats.min().unwrap() >= 0.0);
    }
}

#[test]
fn release_synchronization_rescues_offset_tasks() {
    // A zero-slack flattened VCPU (Π = 10, Θ = 4) whose task is first
    // released at t = 3, sharing its core with a non-harmonic
    // competitor (Π = 7): without the Section 3.2 hypercall the task's
    // windows straddle two server periods and come up short; with it,
    // Theorem 1 holds exactly.
    let victim = flat_task(0, 10.0, 4.0);
    let competitor = flat_task(1, 7.0, 4.1);
    let tasks: TaskSet = vec![victim, competitor].into_iter().collect();
    let allocation = SystemAllocation::new(
        vec![
            vcpu(0, 10.0, 4.0, vec![TaskId(0)]),
            vcpu(1, 7.0, 4.1, vec![TaskId(1)]),
        ],
        vec![CoreAssignment {
            vcpus: vec![0, 1],
            alloc: Alloc::new(10, 10),
        }],
    );
    let run = |synchronized: bool| {
        let config = SimConfig::default()
            .with_horizon(SimDuration::from_ms(5000.0))
            .with_release_synchronization(synchronized);
        HypervisorSim::new(&Platform::platform_a(), &allocation, &tasks, config)
            .expect("realizable")
            .with_task_offset(TaskId(0), 3.0)
            .unwrap()
            .run()
            .unwrap()
    };
    let without = run(false);
    let with = run(true);
    let victim_misses = |r: &vc2m_hypervisor::SimReport| {
        r.deadline_misses
            .iter()
            .filter(|m| m.task == TaskId(0))
            .count()
    };
    assert!(
        victim_misses(&without) > 0,
        "unsynchronized zero-slack VCPU should miss"
    );
    assert_eq!(
        victim_misses(&with),
        0,
        "the hypercall must rescue the task"
    );
}

#[test]
fn synchronized_server_is_inactive_before_its_release() {
    // A lone synchronized server must not burn budget before its first
    // release: the task released at t = 7 with budget = WCET completes
    // immediately.
    let tasks: TaskSet = std::iter::once(flat_task(0, 10.0, 4.0)).collect();
    let allocation = SystemAllocation::new(
        vec![vcpu(0, 10.0, 4.0, vec![TaskId(0)])],
        vec![CoreAssignment {
            vcpus: vec![0],
            alloc: Alloc::new(10, 10),
        }],
    );
    let report = HypervisorSim::new(&Platform::platform_a(), &allocation, &tasks, short_config())
        .expect("realizable")
        .with_task_offset(TaskId(0), 7.0)
        .unwrap()
        .run()
        .unwrap();
    assert!(report.all_deadlines_met(), "{:?}", report.deadline_misses);
    // Response equals the WCET: the server was fresh at the release.
    let worst = report.worst_response_ms(TaskId(0)).expect("jobs ran");
    assert!((worst - 4.0).abs() < 1e-6, "worst response {worst}");
}

#[test]
fn offset_for_unknown_task_is_a_typed_error() {
    let tasks: TaskSet = std::iter::once(flat_task(0, 10.0, 4.0)).collect();
    let allocation = SystemAllocation::new(
        vec![vcpu(0, 10.0, 4.0, vec![TaskId(0)])],
        vec![CoreAssignment {
            vcpus: vec![0],
            alloc: Alloc::new(10, 10),
        }],
    );
    let err = HypervisorSim::new(&Platform::platform_a(), &allocation, &tasks, short_config())
        .expect("realizable")
        .with_task_offset(TaskId(9), 1.0)
        .unwrap_err();
    assert_eq!(err, SimError::UnknownTask { task: TaskId(9) });
}

#[test]
fn negative_offset_is_a_typed_error() {
    let tasks: TaskSet = std::iter::once(flat_task(0, 10.0, 4.0)).collect();
    let allocation = SystemAllocation::new(
        vec![vcpu(0, 10.0, 4.0, vec![TaskId(0)])],
        vec![CoreAssignment {
            vcpus: vec![0],
            alloc: Alloc::new(10, 10),
        }],
    );
    let err = HypervisorSim::new(&Platform::platform_a(), &allocation, &tasks, short_config())
        .expect("realizable")
        .with_task_offset(TaskId(0), -1.0)
        .unwrap_err();
    assert!(matches!(err, SimError::InvalidOffset { .. }), "{err}");
}

#[test]
fn harmonic_servers_are_well_regulated() {
    // Theorem 2's premise, verified empirically: harmonic periodic
    // servers with synchronized releases and the deterministic EDF
    // tie-break have supply patterns that repeat every period.
    use vc2m_model::{SimDuration as D, SimTime};
    let t0 = flat_task(0, 10.0, 4.0);
    let t1 = flat_task(1, 20.0, 8.0);
    let t2 = flat_task(2, 40.0, 8.0);
    let tasks: TaskSet = vec![t0, t1, t2].into_iter().collect();
    let allocation = SystemAllocation::new(
        vec![
            vcpu(0, 10.0, 4.0, vec![TaskId(0)]),
            vcpu(1, 20.0, 8.0, vec![TaskId(1)]),
            vcpu(2, 40.0, 8.0, vec![TaskId(2)]),
        ],
        vec![CoreAssignment {
            vcpus: vec![0, 1, 2],
            alloc: Alloc::new(10, 10),
        }],
    );
    let config = SimConfig::default()
        .with_horizon(D::from_ms(400.0))
        .with_supply_recording(true);
    let report = HypervisorSim::new(&Platform::platform_a(), &allocation, &tasks, config)
        .unwrap()
        .run()
        .unwrap();
    assert!(report.all_deadlines_met());
    assert_eq!(report.supply_logs.len(), 3);
    let horizon = SimTime::from_ms(400.0);
    for (id, log) in &report.supply_logs {
        assert!(log.complete_periods(horizon) >= 10);
        assert_eq!(
            log.regulation_violation(horizon, vc2m_model::SimDuration(1_000)),
            None,
            "{id} is not well-regulated"
        );
    }
}

#[test]
fn non_harmonic_servers_are_not_well_regulated() {
    // Periods 10 and 7 on one core: EDF priorities drift period to
    // period, so at least one server's supply pattern cannot repeat.
    use vc2m_model::{SimDuration as D, SimTime};
    let t0 = flat_task(0, 10.0, 4.0);
    let t1 = flat_task(1, 7.0, 4.0);
    let tasks: TaskSet = vec![t0, t1].into_iter().collect();
    let allocation = SystemAllocation::new(
        vec![
            vcpu(0, 10.0, 4.0, vec![TaskId(0)]),
            vcpu(1, 7.0, 4.0, vec![TaskId(1)]),
        ],
        vec![CoreAssignment {
            vcpus: vec![0, 1],
            alloc: Alloc::new(10, 10),
        }],
    );
    let config = SimConfig::default()
        .with_horizon(D::from_ms(700.0))
        .with_supply_recording(true);
    let report = HypervisorSim::new(&Platform::platform_a(), &allocation, &tasks, config)
        .unwrap()
        .run()
        .unwrap();
    let horizon = SimTime::from_ms(700.0);
    let violated = report.supply_logs.values().any(|log| {
        log.regulation_violation(horizon, vc2m_model::SimDuration(1_000))
            .is_some()
    });
    assert!(violated, "non-harmonic competition must break regulation");
}

#[test]
fn overhead_free_solution_produces_well_regulated_vcpus() {
    // End-to-end: the overhead-free solution's harmonic workloads run
    // as well-regulated servers, the property its analysis relies on.
    use vc2m_model::{SimDuration as D, SimTime};
    let platform = Platform::platform_a();
    let mut generator = vc2m_workload::TasksetGenerator::new(
        platform.resources(),
        vc2m_workload::TasksetConfig::new(1.0, vc2m_workload::UtilizationDist::Uniform),
        77,
    );
    let tasks = generator.generate();
    let vms = vec![VmSpec::new(VmId(0), tasks.clone()).unwrap()];
    let allocation = Solution::HeuristicOverheadFree
        .allocate(&vms, &platform, 77)
        .into_allocation()
        .expect("schedulable at utilization 1.0");
    let horizon_ms = 4.0 * tasks.min_period().unwrap().max(1100.0);
    let config = SimConfig::default()
        .with_horizon(D::from_ms(horizon_ms))
        .with_supply_recording(true);
    let report = HypervisorSim::new(&platform, &allocation, &tasks, config)
        .unwrap()
        .run()
        .unwrap();
    assert!(report.all_deadlines_met());
    let horizon = SimTime::from_ms(horizon_ms);
    for (id, log) in &report.supply_logs {
        if log.complete_periods(horizon) < 2 {
            continue;
        }
        assert_eq!(
            log.regulation_violation(horizon, vc2m_model::SimDuration(2_000)),
            None,
            "{id} is not well-regulated"
        );
    }
}

#[test]
fn dynamic_reallocation_rescues_a_starved_task() {
    // A cache-hungry task: WCET 12 ms at (2,1) (hopeless for a 10 ms
    // period), 4 ms at (14, 8). The core starts at the minimum
    // allocation and is re-programmed at t = 100 ms — a vCAT-style
    // mode change. Misses occur only before the switch.
    let surface = WcetSurface::from_fn(&space(), |a| {
        4.0 + 8.0 * (1.0 - f64::from(a.cache - 2) / 18.0)
    })
    .unwrap();
    let task = Task::new(TaskId(0), 10.0, surface.clone()).unwrap();
    let tasks: TaskSet = std::iter::once(task).collect();
    // Full-period budget: the server owns the core, so post-switch
    // slack can drain the backlog built up while starved.
    let v = VcpuSpec::new(
        VcpuId(0),
        VmId(0),
        10.0,
        BudgetSurface::flat(&space(), 10.0).unwrap(),
        vec![TaskId(0)],
    )
    .unwrap();
    let allocation = SystemAllocation::new(
        vec![v],
        vec![CoreAssignment {
            vcpus: vec![0],
            alloc: Alloc::new(2, 1),
        }],
    );
    let report = HypervisorSim::new(
        &Platform::platform_a(),
        &allocation,
        &tasks,
        SimConfig::default().with_horizon(SimDuration::from_ms(1000.0)),
    )
    .unwrap()
    .with_reallocation(30.0, 0, Alloc::new(14, 8))
    .unwrap()
    .run()
    .unwrap();
    assert!(
        !report.all_deadlines_met(),
        "the starved phase must miss deadlines"
    );
    // The FIFO backlog built up during the starved phase drains at the
    // new allocation's slack; after that, no further misses. Assert
    // full recovery over the last half of the run.
    let recovery = vc2m_model::SimTime::from_ms(500.0);
    let late_misses = report
        .deadline_misses
        .iter()
        .filter(|m| m.deadline > recovery)
        .count();
    assert_eq!(
        late_misses, 0,
        "the mode change must eventually cure all misses"
    );
    assert!(!report.deadline_misses.is_empty(), "the early phase misses");
}

#[test]
fn reallocation_tightening_bandwidth_starts_throttling() {
    // Plenty of bandwidth initially; at t = 200 ms the core drops to
    // one partition and its (traffic-generating) task starts hitting
    // the regulator.
    let tasks: TaskSet = std::iter::once(flat_task(0, 10.0, 5.0)).collect();
    let allocation = SystemAllocation::new(
        vec![vcpu(0, 10.0, 5.0, vec![TaskId(0)])],
        vec![CoreAssignment {
            vcpus: vec![0],
            alloc: Alloc::new(10, 10),
        }],
    );
    let config = SimConfig::default()
        .with_horizon(SimDuration::from_ms(400.0))
        .with_traffic_fraction(0.5);
    let report = HypervisorSim::new(&Platform::platform_a(), &allocation, &tasks, config)
        .unwrap()
        .with_reallocation(200.0, 0, Alloc::new(10, 1))
        .unwrap()
        .run()
        .unwrap();
    assert!(
        report.throttle_events > 0,
        "halved relative budget must throttle the 0.5x-of-old-budget traffic"
    );
}

#[test]
fn reallocation_outside_space_is_a_typed_error() {
    let tasks: TaskSet = std::iter::once(flat_task(0, 10.0, 4.0)).collect();
    let allocation = SystemAllocation::new(
        vec![vcpu(0, 10.0, 4.0, vec![TaskId(0)])],
        vec![CoreAssignment {
            vcpus: vec![0],
            alloc: Alloc::new(10, 10),
        }],
    );
    let err = HypervisorSim::new(&Platform::platform_a(), &allocation, &tasks, short_config())
        .unwrap()
        .with_reallocation(10.0, 0, Alloc::new(1, 1))
        .unwrap_err();
    assert!(
        matches!(err, SimError::InvalidReallocation { core: 0, .. }),
        "{err}"
    );
}

#[test]
fn reallocation_of_unknown_core_is_a_typed_error() {
    let tasks: TaskSet = std::iter::once(flat_task(0, 10.0, 4.0)).collect();
    let allocation = SystemAllocation::new(
        vec![vcpu(0, 10.0, 4.0, vec![TaskId(0)])],
        vec![CoreAssignment {
            vcpus: vec![0],
            alloc: Alloc::new(10, 10),
        }],
    );
    let err = HypervisorSim::new(&Platform::platform_a(), &allocation, &tasks, short_config())
        .unwrap()
        .with_reallocation(10.0, 5, Alloc::new(10, 10))
        .unwrap_err();
    assert_eq!(err, SimError::UnknownCore { core: 5, cores: 1 });
}

#[test]
fn overcommitted_reallocation_surfaces_from_run() {
    // The overcommitment is only detectable when the event fires
    // (against the allocations current at that moment), so it must
    // surface as a typed error from `run`, not a panic mid-simulation.
    let tasks: TaskSet = (0..2).map(|i| flat_task(i, 10.0, 2.0)).collect();
    let allocation = SystemAllocation::new(
        vec![
            vcpu(0, 10.0, 3.0, vec![TaskId(0)]),
            vcpu(1, 10.0, 3.0, vec![TaskId(1)]),
        ],
        vec![
            CoreAssignment {
                vcpus: vec![0],
                alloc: Alloc::new(10, 10),
            },
            CoreAssignment {
                vcpus: vec![1],
                alloc: Alloc::new(10, 10),
            },
        ],
    );
    let err = HypervisorSim::new(&Platform::platform_a(), &allocation, &tasks, short_config())
        .unwrap()
        .with_reallocation(10.0, 0, Alloc::new(11, 10))
        .unwrap()
        .run()
        .unwrap_err();
    assert!(
        matches!(err, SimError::OvercommittedReallocation { core: 0, .. }),
        "{err}"
    );
}

#[test]
fn energy_accounting_favors_idle_throttling() {
    // The paper's energy argument: with heavy throttling, idling the
    // throttled core (vC2M) costs strictly less than spinning it
    // (MemGuard-style). Without throttling the policies coincide.
    use vc2m_hypervisor::{EnergyModel, ThrottlePolicy};
    let tasks: TaskSet = std::iter::once(flat_task(0, 10.0, 5.0)).collect();
    let allocation = SystemAllocation::new(
        vec![vcpu(0, 10.0, 5.0, vec![TaskId(0)])],
        vec![CoreAssignment {
            vcpus: vec![0],
            alloc: Alloc::new(10, 2),
        }],
    );
    let model = EnergyModel::default();

    let throttled_report = HypervisorSim::new(
        &Platform::platform_a(),
        &allocation,
        &tasks,
        SimConfig::default()
            .with_horizon(SimDuration::from_ms(1000.0))
            .with_traffic_fraction(3.0),
    )
    .unwrap()
    .run()
    .unwrap();
    assert!(throttled_report.throttle_events > 0);
    let idle = throttled_report.energy_joules(&model, ThrottlePolicy::Idle);
    let busy = throttled_report.energy_joules(&model, ThrottlePolicy::Busy);
    assert!(
        idle < busy * 0.95,
        "idling must save energy under heavy throttling: {idle} vs {busy}"
    );
    // Sanity: throttled time was actually accounted.
    let throttled_ms: f64 = throttled_report
        .core_times
        .iter()
        .map(|c| c.throttled_ms)
        .sum();
    assert!(throttled_ms > 100.0, "got {throttled_ms}");

    let calm_report = HypervisorSim::new(
        &Platform::platform_a(),
        &allocation,
        &tasks,
        SimConfig::default().with_horizon(SimDuration::from_ms(1000.0)),
    )
    .unwrap()
    .run()
    .unwrap();
    assert_eq!(calm_report.throttle_events, 0);
    let idle = calm_report.energy_joules(&model, ThrottlePolicy::Idle);
    let busy = calm_report.energy_joules(&model, ThrottlePolicy::Busy);
    assert!((idle - busy).abs() < 1e-9, "no throttling: policies equal");
}

#[test]
fn busy_time_is_bounded_by_demand() {
    // A 0.4-utilization task on a 1-second run: busy time ~400 ms.
    let tasks: TaskSet = std::iter::once(flat_task(0, 10.0, 4.0)).collect();
    let allocation = SystemAllocation::new(
        vec![vcpu(0, 10.0, 4.0, vec![TaskId(0)])],
        vec![CoreAssignment {
            vcpus: vec![0],
            alloc: Alloc::new(10, 10),
        }],
    );
    let report = HypervisorSim::new(
        &Platform::platform_a(),
        &allocation,
        &tasks,
        SimConfig::default().with_horizon(SimDuration::from_ms(1000.0)),
    )
    .unwrap()
    .run()
    .unwrap();
    let busy = report.core_times[0].busy_ms;
    assert!((390.0..=404.0).contains(&busy), "busy time {busy} ms");
    assert_eq!(report.core_times[0].throttled_ms, 0.0);
    assert_eq!(report.horizon_ms, 1000.0);
}

#[test]
fn shared_mode_disables_partitioning_and_regulation() {
    // IsolationMode::Shared models the pre-vC2M world: no CAT plan is
    // programmed and the regulator never throttles, no matter how much
    // traffic tasks generate.
    use vc2m_hypervisor::IsolationMode;
    let tasks: TaskSet = std::iter::once(flat_task(0, 10.0, 5.0)).collect();
    let allocation = SystemAllocation::new(
        vec![vcpu(0, 10.0, 5.0, vec![TaskId(0)])],
        vec![CoreAssignment {
            vcpus: vec![0],
            alloc: Alloc::new(2, 1), // would throttle hard if isolated
        }],
    );
    let mut config = SimConfig::default()
        .with_horizon(SimDuration::from_ms(500.0))
        .with_traffic_fraction(5.0);
    config.isolation = IsolationMode::Shared;
    let report = HypervisorSim::new(&Platform::platform_a(), &allocation, &tasks, config)
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(report.throttle_events, 0, "shared mode must never throttle");
    assert!(report.all_deadlines_met());
}

#[test]
fn sixty_five_core_system_builds_and_runs() {
    // Regression: the bandwidth regulator cached its throttle state in
    // a `u64` mask, so programming core 64 overflowed the shift and
    // building any simulation past 64 cores panicked in debug builds.
    let platform = Platform::symmetric(65, 130).unwrap();
    let space = platform.resources();
    let tasks: TaskSet = (0..65)
        .map(|i| Task::new(TaskId(i), 10.0, WcetSurface::flat(&space, 5.0).unwrap()).unwrap())
        .collect();
    let vcpus = (0..65)
        .map(|i| {
            VcpuSpec::new(
                VcpuId(i),
                VmId(0),
                10.0,
                BudgetSurface::flat(&space, 5.0).unwrap(),
                vec![TaskId(i)],
            )
            .unwrap()
        })
        .collect();
    let cores = (0..65)
        .map(|k| CoreAssignment {
            vcpus: vec![k],
            alloc: Alloc::new(2, 1),
        })
        .collect();
    let allocation = SystemAllocation::new(vcpus, cores);
    // Traffic at twice every core's budget rate: each core throttles.
    let config = SimConfig::default()
        .with_horizon(SimDuration::from_ms(100.0))
        .with_traffic_fraction(2.0);
    let report = HypervisorSim::new(&platform, &allocation, &tasks, config)
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(report.core_times.len(), 65);
    assert!(report.core_times.iter().all(|c| c.throttled_ms > 0.0));
}

#[test]
fn release_at_the_horizon_delivers_its_folded_deadline_check() {
    // Π = 10, e = 8, Θ = 5: every job misses. Job 1's deadline, 20 ms,
    // is the horizon; its check rides on the release of job 2 at that
    // instant and must still be delivered.
    let tasks: TaskSet = std::iter::once(flat_task(0, 10.0, 8.0)).collect();
    let allocation = SystemAllocation::new(
        vec![vcpu(0, 10.0, 5.0, vec![TaskId(0)])],
        vec![CoreAssignment {
            vcpus: vec![0],
            alloc: Alloc::new(10, 10),
        }],
    );
    let config = SimConfig::default().with_horizon(SimDuration::from_ms(20.0));
    let report = HypervisorSim::new(&Platform::platform_a(), &allocation, &tasks, config)
        .unwrap()
        .run()
        .unwrap();
    let misses: Vec<(u64, SimTime)> = report
        .deadline_misses
        .iter()
        .map(|m| (m.job, m.deadline))
        .collect();
    assert_eq!(
        misses,
        vec![(0, SimTime::from_ms(10.0)), (1, SimTime::from_ms(20.0))]
    );
    assert_eq!(report.jobs_released, 3);
}

#[test]
fn deadline_checks_at_an_instant_follow_all_its_releases() {
    // Two VCPUs on one core: V0 (Π = 10, Θ = 3) serves T0 (e = 8),
    // which misses every job; V1 (Π = 5, Θ = 1) serves T1 (e = 1). At
    // 10 ms both tasks release, V1 leads on its earlier deadline, and
    // T1's release turns V1's idle segment into a T1 segment. Both
    // checks come after both releases: T0's job 0 misses after that
    // segment started, and then the check of T1's job 1 closes and
    // restarts the running T1 segment.
    let tasks: TaskSet = vec![flat_task(0, 10.0, 8.0), flat_task(1, 5.0, 1.0)]
        .into_iter()
        .collect();
    let allocation = SystemAllocation::new(
        vec![
            vcpu(0, 10.0, 3.0, vec![TaskId(0)]),
            vcpu(1, 5.0, 1.0, vec![TaskId(1)]),
        ],
        vec![CoreAssignment {
            vcpus: vec![0, 1],
            alloc: Alloc::new(10, 10),
        }],
    );
    let config = SimConfig::default()
        .with_horizon(SimDuration::from_ms(20.0))
        .with_trace_capacity(1024);
    let (_, observation) = HypervisorSim::new(&Platform::platform_a(), &allocation, &tasks, config)
        .unwrap()
        .run_observed()
        .unwrap();
    assert_eq!(observation.trace_dropped, 0);
    let at_10: Vec<TraceEvent> = observation
        .trace
        .iter()
        .filter(|&&(time, event)| {
            time == SimTime::from_ms(10.0)
                && matches!(
                    event,
                    TraceEvent::Miss { .. }
                        | TraceEvent::RunSegment {
                            task: Some(TaskId(1)),
                            ..
                        }
                )
        })
        .map(|&(_, event)| event)
        .collect();
    assert_eq!(
        at_10,
        vec![
            TraceEvent::RunSegment {
                vcpu: VcpuId(1),
                task: Some(TaskId(1)),
                limit: SimDuration::from_ms(1.0),
            },
            TraceEvent::Miss {
                task: TaskId(0),
                job: 0,
            },
            TraceEvent::RunSegment {
                vcpu: VcpuId(1),
                task: Some(TaskId(1)),
                limit: SimDuration::from_ms(1.0),
            },
        ]
    );
}
