//! Seeded property tests for the fault-injection subsystem: plan
//! determinism, run determinism under faults, the overrun containment
//! invariant, and the delivery order of fault events among
//! simultaneous events.
//!
//! **Containment argument.** The core's EDF scheduler picks servers by
//! `(deadline, period, index)` only — never by job content — and a
//! periodic server drains its budget even while its tasks idle. So the
//! server-level supply pattern is invariant under changes to job
//! execution demand: a VM-scoped fault (WCET overrun, load spike) can
//! only inflate the *faulty* VM's backlog inside its own server's
//! windows. Every other VM's misses and response times are therefore
//! bit-identical to the fault-free baseline. Core-scoped faults
//! (throttle fault, core stall) and replenishment delays change the
//! supply itself and are deliberately excluded from
//! [`FaultKind::VM_SCOPED`].

use vc2m_alloc::{CoreAssignment, SystemAllocation};
use vc2m_hypervisor::{
    Fault, FaultKind, FaultPlan, FaultPlanSpec, FaultTargets, HypervisorSim, SimConfig, SimError,
    SimReport, TraceEvent,
};
use vc2m_model::{
    Alloc, BudgetSurface, Platform, SimDuration, SimTime, Task, TaskId, TaskSet, VcpuId, VcpuSpec,
    VmId, WcetSurface,
};
use vc2m_rng::{cases::check, DetRng, Rng};

fn space() -> vc2m_model::ResourceSpace {
    Platform::platform_a().resources()
}

/// A single-core system of per-VM single-task VCPUs (flattening-style,
/// budget = WCET): one task and one VCPU per VM, `specs[i]` giving VM
/// `i`'s `(period, wcet)`.
fn multi_vm_system(specs: &[(f64, f64)]) -> (SystemAllocation, TaskSet) {
    let mut tasks = TaskSet::new();
    let mut vcpus = Vec::new();
    for (i, &(p, e)) in specs.iter().enumerate() {
        tasks.push(Task::new(TaskId(i), p, WcetSurface::flat(&space(), e).unwrap()).unwrap());
        vcpus.push(
            VcpuSpec::new(
                VcpuId(i),
                VmId(i),
                p,
                BudgetSurface::flat(&space(), e).unwrap(),
                vec![TaskId(i)],
            )
            .unwrap(),
        );
    }
    let allocation = SystemAllocation::new(
        vcpus,
        vec![CoreAssignment {
            vcpus: (0..specs.len()).collect(),
            alloc: Alloc::new(10, 10),
        }],
    );
    (allocation, tasks)
}

/// Harmonic `(period, wcet)` specs with total utilization ≤ ~0.9,
/// at least two VMs (so there is always a non-faulty victim).
fn arb_specs(rng: &mut DetRng) -> Vec<(f64, f64)> {
    let base = rng.gen_range(5.0f64..20.0);
    let n = rng.gen_range(2usize..5);
    let raw: Vec<(u32, f64)> = (0..n)
        .map(|_| (rng.gen_range(0u32..3), rng.gen_range(0.05f64..0.3)))
        .collect();
    let total: f64 = raw.iter().map(|&(_, u)| u).sum();
    let scale = if total > 0.9 { 0.9 / total } else { 1.0 };
    raw.into_iter()
        .map(|(exp, u)| {
            let p = base * f64::from(1u32 << exp);
            (p, (u * scale * p).max(0.001))
        })
        .collect()
}

fn sim(
    allocation: &SystemAllocation,
    tasks: &TaskSet,
    horizon: SimDuration,
) -> HypervisorSim {
    HypervisorSim::new(
        &Platform::platform_a(),
        allocation,
        tasks,
        SimConfig::default().with_horizon(horizon),
    )
    .expect("realizable")
}

fn misses_of(report: &SimReport, task: TaskId) -> Vec<(u64, SimTime)> {
    report
        .deadline_misses
        .iter()
        .filter(|m| m.task == task)
        .map(|m| (m.job, m.deadline))
        .collect()
}

fn full_targets(specs: &[(f64, f64)]) -> FaultTargets {
    FaultTargets {
        tasks: (0..specs.len()).map(TaskId).collect(),
        vcpus: (0..specs.len()).map(VcpuId).collect(),
        vms: (0..specs.len()).map(VmId).collect(),
        cores: 1,
    }
}

#[test]
fn fault_plans_are_deterministic_and_in_range() {
    check(32, |rng| {
        let seed = rng.next_u64();
        let horizon = SimDuration::from_ms(rng.gen_range(50.0f64..500.0));
        let targets = full_targets(&[(10.0, 1.0), (20.0, 2.0), (40.0, 4.0)]);
        let spec = FaultPlanSpec::new(rng.gen_range(1usize..12), horizon);
        let a = FaultPlan::generate(seed, &targets, &spec);
        let b = FaultPlan::generate(seed, &targets, &spec);
        assert_eq!(a, b, "same seed must give the identical plan");
        let mut last = SimTime::ZERO;
        for f in a.faults() {
            assert!(f.at >= last, "plan must be sorted by injection time");
            assert!(f.at < SimTime::ZERO + horizon, "fault beyond horizon");
            last = f.at;
        }
        assert_eq!(a.len(), spec.count);
    });
}

#[test]
fn faulted_runs_are_deterministic() {
    check(16, |rng| {
        let specs = arb_specs(rng);
        let (allocation, tasks) = multi_vm_system(&specs);
        let horizon = SimDuration::from_ms(300.0);
        let plan = FaultPlan::generate(
            rng.next_u64(),
            &full_targets(&specs),
            &FaultPlanSpec::new(6, horizon),
        );
        let run = || {
            sim(&allocation, &tasks, horizon)
                .with_fault_plan(plan.clone())
                .expect("valid plan")
                .run()
                .expect("fault runs are contained, not fatal")
        };
        let a = run();
        let b = run();
        assert!(
            a.structural_eq(&b),
            "same plan, same seed: reports must be bit-identical"
        );
    });
}

#[test]
fn vm_scoped_faults_are_contained_to_the_faulty_vm() {
    check(24, |rng| {
        let specs = arb_specs(rng);
        let (allocation, tasks) = multi_vm_system(&specs);
        if !allocation.is_schedulable() {
            return;
        }
        let horizon = SimDuration::from_ms(400.0);
        let baseline = sim(&allocation, &tasks, horizon)
            .run()
            .expect("fault-free run");

        // Target exactly one VM with VM-scoped faults.
        let faulty = rng.gen_range(0usize..specs.len());
        let targets = FaultTargets {
            tasks: vec![TaskId(faulty)],
            vcpus: vec![],
            vms: vec![VmId(faulty)],
            cores: 0,
        };
        let mut spec = FaultPlanSpec::vm_targeted(rng.gen_range(1usize..6), horizon);
        // Make overruns severe so the faulty VM visibly suffers.
        spec.overrun_factor = (3.0, 6.0);
        let plan = FaultPlan::generate(rng.next_u64(), &targets, &spec);
        for f in plan.faults() {
            assert!(
                FaultKind::VM_SCOPED.contains(&f.fault.kind()),
                "vm_targeted spec must only draw VM-scoped kinds"
            );
        }
        let faulted = sim(&allocation, &tasks, horizon)
            .with_fault_plan(plan)
            .expect("valid plan")
            .run()
            .expect("contained");

        // The isolation invariant: every non-faulty VM's misses and
        // response statistics are bit-identical to the baseline.
        for i in 0..specs.len() {
            if i == faulty {
                continue;
            }
            let t = TaskId(i);
            assert_eq!(
                misses_of(&baseline, t),
                misses_of(&faulted, t),
                "VM{i} must be unaffected by faults in VM{faulty}"
            );
            let base_resp = baseline.response_times.get(&t);
            let fault_resp = faulted.response_times.get(&t);
            assert_eq!(
                base_resp, fault_resp,
                "VM{i} response times must be bit-identical"
            );
        }
    });
}

#[test]
fn overrun_demand_is_capped_by_the_server_budget() {
    // A flattened VCPU (budget = WCET) given a 10x overrun: the fault
    // inflates demand far beyond the budget, so the overrunning job
    // can only consume its own server's supply — it misses deadlines
    // in its own VM while the sibling VM stays clean (checked by the
    // containment property above); here we check the faulty VM really
    // does miss and the simulation still terminates and accounts.
    let specs = [(10.0, 4.0), (20.0, 8.0)];
    let (allocation, tasks) = multi_vm_system(&specs);
    let horizon = SimDuration::from_ms(400.0);
    let plan = FaultPlan::new().inject(
        SimTime::from_ms(50.0),
        Fault::WcetOverrun {
            task: TaskId(0),
            factor: 10.0,
            window: SimDuration::from_ms(100.0),
        },
    );
    let report = sim(&allocation, &tasks, horizon)
        .with_fault_plan(plan)
        .expect("valid plan")
        .run()
        .expect("contained");
    assert!(
        !misses_of(&report, TaskId(0)).is_empty(),
        "a 10x overrun of a zero-slack task must miss"
    );
    assert!(
        misses_of(&report, TaskId(1)).is_empty(),
        "the sibling VM must be unaffected"
    );
    assert!(report.jobs_completed > 0, "the system keeps running");
}

#[test]
fn all_fault_kinds_run_clean_and_are_counted() {
    check(16, |rng| {
        let specs = arb_specs(rng);
        let (allocation, tasks) = multi_vm_system(&specs);
        let horizon = SimDuration::from_ms(300.0);
        let plan = FaultPlan::generate(
            rng.next_u64(),
            &full_targets(&specs),
            &FaultPlanSpec::new(8, horizon),
        );
        let planned = plan.len() as u64;
        let (_, observation) = sim(&allocation, &tasks, horizon)
            .with_fault_plan(plan)
            .expect("valid plan")
            .run_observed()
            .expect("faults are contained, not fatal");
        assert_eq!(
            observation.metrics.counter("faults.injected"),
            Some(planned),
            "every planned fault must inject (all lie within the horizon)"
        );
    });
}

#[test]
fn fault_metrics_appear_exactly_when_a_plan_is_attached() {
    let specs = [(10.0, 2.0), (20.0, 3.0)];
    let (allocation, tasks) = multi_vm_system(&specs);
    let horizon = SimDuration::from_ms(100.0);
    let (_, without) = sim(&allocation, &tasks, horizon)
        .run_observed()
        .expect("fault-free run");
    assert_eq!(without.metrics.counter("faults.injected"), None);

    // An attached-but-empty plan exports zeroed counters.
    let (_, with_empty) = sim(&allocation, &tasks, horizon)
        .with_fault_plan(FaultPlan::new())
        .expect("empty plan is valid")
        .run_observed()
        .expect("fault-free run");
    assert_eq!(with_empty.metrics.counter("faults.injected"), Some(0));
}

#[test]
fn malformed_plans_are_rejected_up_front() {
    let specs = [(10.0, 2.0), (20.0, 3.0)];
    let (allocation, tasks) = multi_vm_system(&specs);
    let horizon = SimDuration::from_ms(100.0);
    let at = SimTime::from_ms(10.0);
    let window = SimDuration::from_ms(10.0);

    type ErrCheck = fn(&SimError) -> bool;
    let cases: Vec<(Fault, ErrCheck)> = vec![
        (
            Fault::WcetOverrun {
                task: TaskId(99),
                factor: 2.0,
                window,
            },
            |e| matches!(e, SimError::UnknownTask { task: TaskId(99) }),
        ),
        (
            Fault::WcetOverrun {
                task: TaskId(0),
                factor: f64::NAN,
                window,
            },
            |e| matches!(e, SimError::InvalidFault { .. }),
        ),
        (
            Fault::WcetOverrun {
                task: TaskId(0),
                factor: 0.5,
                window,
            },
            |e| matches!(e, SimError::InvalidFault { .. }),
        ),
        (
            Fault::WcetOverrun {
                task: TaskId(0),
                factor: 2.0,
                window: SimDuration::ZERO,
            },
            |e| matches!(e, SimError::InvalidFault { .. }),
        ),
        (
            Fault::ReplenishDelay {
                vcpu: VcpuId(42),
                delay: window,
            },
            |e| matches!(e, SimError::UnknownVcpu { vcpu: VcpuId(42) }),
        ),
        (
            Fault::ReplenishDelay {
                vcpu: VcpuId(0),
                delay: SimDuration::ZERO,
            },
            |e| matches!(e, SimError::InvalidFault { .. }),
        ),
        (
            Fault::ThrottleFault { core: 7 },
            |e| matches!(e, SimError::UnknownCore { core: 7, cores: 1 }),
        ),
        (
            Fault::CoreStall {
                core: 0,
                duration: SimDuration::ZERO,
            },
            |e| matches!(e, SimError::InvalidFault { .. }),
        ),
        (
            Fault::LoadSpike { vm: VmId(9) },
            |e| matches!(e, SimError::UnknownVm { vm: VmId(9) }),
        ),
    ];
    for (fault, matches_expected) in cases {
        let err = sim(&allocation, &tasks, horizon)
            .with_fault_plan(FaultPlan::new().inject(at, fault))
            .expect_err("malformed fault must be rejected");
        assert!(matches_expected(&err), "unexpected error: {err}");
    }
}

#[test]
fn replenish_delay_starves_only_until_the_late_replenishment() {
    // A zero-slack VCPU whose replenishment arrives half a period
    // late: the period that absorbed the delay can miss, but the
    // server must return to the period grid afterwards (no permanent
    // drift — `PeriodicServer::replenish` advances by whole periods).
    let specs = [(10.0, 4.0), (20.0, 8.0)];
    let (allocation, tasks) = multi_vm_system(&specs);
    let horizon = SimDuration::from_ms(400.0);
    let plan = FaultPlan::new().inject(
        SimTime::from_ms(15.0),
        Fault::ReplenishDelay {
            vcpu: VcpuId(0),
            delay: SimDuration::from_ms(5.0),
        },
    );
    let report = sim(&allocation, &tasks, horizon)
        .with_fault_plan(plan)
        .expect("valid plan")
        .run()
        .expect("contained");
    // Misses, if any, are confined to shortly after the injection.
    for (_, deadline) in misses_of(&report, TaskId(0)) {
        assert!(
            deadline <= SimTime::from_ms(50.0),
            "late-replenishment damage must not persist (miss at {deadline})"
        );
    }
    assert!(report.jobs_completed > 0);
}

#[test]
fn simultaneous_reallocation_refill_and_stall_expiry_follow_the_key_order() {
    // At 10 ms three priority-class-2 events coincide on core 0: a
    // scheduled reallocation, the bandwidth refill and the expiry of a
    // stall injected at 5 ms. The stall's `FaultClear` is pushed at
    // 5 ms, before the 10 ms refill is pushed at 9 ms, so insertion
    // order alone would deliver it first; the content-derived keys
    // deliver the reallocation, then the refill, then the expiry.
    let (allocation, tasks) = multi_vm_system(&[(10.0, 2.0), (10.0, 3.0)]);
    let at = SimTime::from_ms(10.0);
    let alloc = Alloc::new(8, 8);
    let plan = FaultPlan::new().inject(
        SimTime::from_ms(5.0),
        Fault::CoreStall {
            core: 0,
            duration: SimDuration::from_ms(5.0),
        },
    );
    let config = SimConfig::default()
        .with_horizon(SimDuration::from_ms(20.0))
        .with_trace_capacity(1024);
    let (_, observation) = HypervisorSim::new(&Platform::platform_a(), &allocation, &tasks, config)
        .expect("realizable")
        .with_reallocation(10.0, 0, alloc)
        .expect("valid reallocation")
        .with_fault_plan(plan)
        .expect("valid plan")
        .run_observed()
        .expect("contained");
    assert_eq!(observation.trace_dropped, 0);
    let class_2: Vec<TraceEvent> = observation
        .trace
        .iter()
        .filter(|(time, _)| *time == at)
        .map(|&(_, event)| event)
        .filter(|event| {
            matches!(
                event,
                TraceEvent::Reallocate { .. }
                    | TraceEvent::Refill { .. }
                    | TraceEvent::Unthrottle { .. }
            )
        })
        .collect();
    assert_eq!(
        class_2,
        vec![
            TraceEvent::Reallocate { core: 0, alloc },
            TraceEvent::Refill { woken: 0 },
            TraceEvent::Unthrottle { core: 0 },
        ]
    );
}

/// A one-task VM (Π = 10 ms, e = 8 ms) whose VCPU gets a 5 ms budget,
/// so every job misses.
fn starved_task_system() -> (SystemAllocation, TaskSet) {
    let tasks: TaskSet = std::iter::once(
        Task::new(TaskId(0), 10.0, WcetSurface::flat(&space(), 8.0).unwrap()).unwrap(),
    )
    .collect();
    let allocation = SystemAllocation::new(
        vec![VcpuSpec::new(
            VcpuId(0),
            VmId(0),
            10.0,
            BudgetSurface::flat(&space(), 5.0).unwrap(),
            vec![TaskId(0)],
        )
        .unwrap()],
        vec![CoreAssignment {
            vcpus: vec![0],
            alloc: Alloc::new(10, 10),
        }],
    );
    (allocation, tasks)
}

#[test]
fn spike_check_tied_with_a_folded_check_is_delivered_first() {
    // A load spike at 10 ms, the instant of the task's second release,
    // adds job 1 with the same deadline as the regular job 2: 20 ms.
    // The spike's check is a heap event, pushed by the fault
    // (priority 3) before the release (priority 4) that folds job 2's
    // check, so at 20 ms job 1 must miss before job 2, as it did when
    // both checks were heap events.
    let (allocation, tasks) = starved_task_system();
    let plan = FaultPlan::new().inject(SimTime::from_ms(10.0), Fault::LoadSpike { vm: VmId(0) });
    let config = SimConfig::default()
        .with_horizon(SimDuration::from_ms(30.0))
        .with_trace_capacity(1024);
    let (report, observation) =
        HypervisorSim::new(&Platform::platform_a(), &allocation, &tasks, config)
            .expect("realizable")
            .with_fault_plan(plan)
            .expect("valid plan")
            .run_observed()
            .expect("contained");
    assert_eq!(observation.trace_dropped, 0);
    let misses_at_20: Vec<TraceEvent> = observation
        .trace
        .iter()
        .filter(|&&(time, event)| {
            time == SimTime::from_ms(20.0) && matches!(event, TraceEvent::Miss { .. })
        })
        .map(|&(_, event)| event)
        .collect();
    assert_eq!(
        misses_at_20,
        vec![
            TraceEvent::Miss {
                task: TaskId(0),
                job: 1
            },
            TraceEvent::Miss {
                task: TaskId(0),
                job: 2
            },
        ]
    );
    assert_eq!(
        misses_of(&report, TaskId(0))[..3],
        [
            (0, SimTime::from_ms(10.0)),
            (1, SimTime::from_ms(20.0)),
            (2, SimTime::from_ms(20.0)),
        ]
    );
}

#[test]
fn scheduler_skips_an_expired_server_left_queued_by_a_replenish_delay() {
    // V0 (Π = 10, Θ = 4) and V1 (Π = 5, Θ = 2) share a core. A stall
    // over [2, 8) ms keeps V0 from running, and V1 wins the deadline
    // tie at 10 over [8, 10), so V0 reaches 10 ms still `Ready` with
    // its whole budget. Its replenishment at 10 is delayed to 15, so
    // over [10, 15) V0 stays in the ready order under its expired
    // deadline, ahead of V1. The scheduler must skip it: only V1 runs
    // from 10, the core idles from 12, and V0 runs again at its late
    // replenishment.
    let (allocation, tasks) = multi_vm_system(&[(10.0, 4.0), (5.0, 2.0)]);
    let plan = FaultPlan::new()
        .inject(
            SimTime::from_ms(2.0),
            Fault::CoreStall {
                core: 0,
                duration: SimDuration::from_ms(6.0),
            },
        )
        .inject(
            SimTime::from_ms(9.0),
            Fault::ReplenishDelay {
                vcpu: VcpuId(0),
                delay: SimDuration::from_ms(5.0),
            },
        );
    let config = SimConfig::default()
        .with_horizon(SimDuration::from_ms(30.0))
        .with_trace_capacity(1024);
    let (_, observation) = HypervisorSim::new(&Platform::platform_a(), &allocation, &tasks, config)
        .expect("realizable")
        .with_fault_plan(plan)
        .expect("valid plan")
        .run_observed()
        .expect("contained");
    assert_eq!(observation.trace_dropped, 0);
    let starts: Vec<(SimTime, VcpuId)> = observation
        .trace
        .iter()
        .filter_map(|&(time, event)| match event {
            TraceEvent::RunSegment { vcpu, .. } => Some((time, vcpu)),
            _ => None,
        })
        .collect();
    let in_window = |from: f64, to: f64| -> Vec<VcpuId> {
        starts
            .iter()
            .filter(|&&(time, _)| SimTime::from_ms(from) <= time && time < SimTime::from_ms(to))
            .map(|&(_, vcpu)| vcpu)
            .collect()
    };
    assert!(
        !in_window(8.0, 10.0).contains(&VcpuId(0)),
        "V0 must keep its budget to 10 ms"
    );
    let skipped = in_window(10.0, 15.0);
    assert!(
        !skipped.is_empty() && skipped.iter().all(|&v| v == VcpuId(1)),
        "only V1 may run while V0's window is expired: {skipped:?}"
    );
    let resumed = starts
        .iter()
        .find(|&&(time, vcpu)| vcpu == VcpuId(0) && time >= SimTime::from_ms(10.0))
        .map(|&(time, _)| time);
    assert_eq!(resumed, Some(SimTime::from_ms(15.0)));
}
