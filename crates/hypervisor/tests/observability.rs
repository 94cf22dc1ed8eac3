//! Regression tests for the horizon-flush accounting fix, the pinned
//! tardy-job semantics, and the passivity of the observability layer
//! (typed trace + metrics registry).

use vc2m_alloc::{CoreAssignment, SystemAllocation};
use vc2m_hypervisor::{HypervisorSim, SimConfig, TraceEvent};
use vc2m_model::{
    Alloc, BudgetSurface, Platform, SimDuration, Task, TaskId, TaskSet, VcpuId, VcpuSpec, VmId,
    WcetSurface,
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

fn dedicated(period: f64, budget: f64, wcet: f64) -> (TaskSet, SystemAllocation) {
    let tasks: TaskSet = std::iter::once(flat_task(0, period, wcet)).collect();
    let allocation = SystemAllocation::new(
        vec![vcpu(0, period, budget, vec![TaskId(0)])],
        vec![CoreAssignment {
            vcpus: vec![0],
            alloc: Alloc::new(10, 10),
        }],
    );
    (tasks, allocation)
}

#[test]
fn horizon_flush_accounts_straddling_segment() {
    // Period 10, WCET 8, horizon 995 ms: the 100th job (released at
    // 990) runs 990→998, so 5 ms of its segment lie inside the
    // horizon. Before the flush fix those 5 ms vanished from busy
    // time; now busy is exactly 99 × 8 + 5 = 797 ms.
    let (tasks, allocation) = dedicated(10.0, 8.0, 8.0);
    let config = SimConfig::default().with_horizon(SimDuration::from_ms(995.0));
    let report = HypervisorSim::new(&Platform::platform_a(), &allocation, &tasks, config)
        .unwrap()
        .run()
        .unwrap();
    let busy = report.core_times[0].busy_ms;
    assert!(
        (busy - 797.0).abs() < 1e-6,
        "busy time {busy} ms, expected 797 (flush must count the straddling 5 ms)"
    );
    // The flush must NOT complete the in-flight job: its 3 remaining
    // milliseconds lie beyond the horizon.
    assert_eq!(report.jobs_released, 100);
    assert_eq!(report.jobs_completed, 99);
    assert!(report.all_deadlines_met());
}

#[test]
fn horizon_flush_closes_open_throttle_interval() {
    // Heavy traffic: the core alternates run segments and throttle
    // intervals with no idle gap, so busy + throttled must tile the
    // horizon exactly — including the final partial period, where the
    // pre-fix simulator dropped both the in-flight segment and the
    // open `throttled_since` interval.
    let (tasks, allocation) = dedicated(10.0, 5.0, 5.0);
    let config = SimConfig::default()
        .with_horizon(SimDuration::from_ms(400.5))
        .with_traffic_fraction(3.0);
    let report = HypervisorSim::new(&Platform::platform_a(), &allocation, &tasks, config)
        .unwrap()
        .run()
        .unwrap();
    assert!(report.throttle_events > 0, "workload must throttle");
    let ct = &report.core_times[0];
    assert!(ct.throttled_ms > 100.0, "throttled {} ms", ct.throttled_ms);
    let covered = ct.busy_ms + ct.throttled_ms;
    assert!(
        covered <= report.horizon_ms + 1e-6,
        "covered {covered} ms exceeds the horizon"
    );
    assert!(
        covered >= report.horizon_ms - 1e-6,
        "covered {covered} of {} ms — the flush must close the final \
         segment and throttle interval",
        report.horizon_ms
    );
}

#[test]
fn tardy_job_keeps_running_and_is_counted_once() {
    // Pinned semantics: a job that misses its deadline stays pending
    // and keeps executing to completion. Period 20, WCET 12, served by
    // a half-rate VCPU (Π = 10, Θ = 5): job 0 has received only 10 ms
    // by its deadline at t = 20 (miss), then finishes its last 2 ms in
    // the server's [20, 25] budget window — completing at t = 22,
    // response 22 ms, counted exactly once.
    let tasks: TaskSet = std::iter::once(flat_task(0, 20.0, 12.0)).collect();
    let allocation = SystemAllocation::new(
        vec![vcpu(0, 10.0, 5.0, vec![TaskId(0)])],
        vec![CoreAssignment {
            vcpus: vec![0],
            alloc: Alloc::new(10, 10),
        }],
    );
    let config = SimConfig::default().with_horizon(SimDuration::from_ms(25.0));
    let (report, observation) = HypervisorSim::new(
        &Platform::platform_a(),
        &allocation,
        &tasks,
        config.with_trace_capacity(256),
    )
    .unwrap()
    .run_observed()
    .unwrap();

    // The miss is recorded exactly once, for job 0 at its deadline.
    assert_eq!(report.deadline_misses.len(), 1);
    assert_eq!(report.deadline_misses[0].task, TaskId(0));
    assert_eq!(report.deadline_misses[0].job, 0);
    assert_eq!(report.deadline_misses[0].deadline.as_ms(), 20.0);
    let miss_events = observation
        .trace
        .iter()
        .filter(|(_, e)| matches!(e, TraceEvent::Miss { .. }))
        .count();
    assert_eq!(miss_events, 1, "exactly one miss event in the trace");

    // The tardy job still completes (late), and only once.
    assert_eq!(report.jobs_released, 2, "releases at t = 0 and t = 20");
    assert_eq!(report.jobs_completed, 1, "job 0 completes late at t = 22");
    let response = report.response_times.get(&TaskId(0)).unwrap();
    assert_eq!(response.count(), 1);
    assert!(
        (response.max().unwrap() - 22.0).abs() < 1e-6,
        "tardy response {:?}",
        response.max()
    );
}

/// Asserts two reports are bit-identical in every deterministic field,
/// the handler invocation counts included; only handler durations
/// (wall-clock) may differ.
fn assert_reports_identical(a: &vc2m_hypervisor::SimReport, b: &vc2m_hypervisor::SimReport) {
    assert!(a.structural_eq(b), "reports differ structurally");
}

#[test]
fn observability_is_passive() {
    // Enabling the trace ring and collecting metrics must not change a
    // single bit of the report — a workload with misses, throttling and
    // supply recording exercises every accounting path.
    let t0 = flat_task(0, 10.0, 5.0);
    let t1 = flat_task(1, 20.0, 11.0); // tardy on its half-rate server
    let tasks: TaskSet = vec![t0, t1].into_iter().collect();
    let allocation = SystemAllocation::new(
        vec![
            vcpu(0, 10.0, 5.0, vec![TaskId(0)]),
            vcpu(1, 10.0, 5.0, vec![TaskId(1)]),
        ],
        vec![
            CoreAssignment {
                vcpus: vec![0],
                alloc: Alloc::new(10, 2),
            },
            CoreAssignment {
                vcpus: vec![1],
                alloc: Alloc::new(10, 10),
            },
        ],
    );
    let config = SimConfig::default()
        .with_horizon(SimDuration::from_ms(400.5))
        .with_traffic_fraction(2.0)
        .with_supply_recording(true);
    let build = |trace_capacity: usize| {
        HypervisorSim::new(
            &Platform::platform_a(),
            &allocation,
            &tasks,
            config.with_trace_capacity(trace_capacity),
        )
        .unwrap()
    };

    let plain = build(0).run().unwrap();
    let (observed, observation) = build(4096).run_observed().unwrap();
    assert_reports_identical(&plain, &observed);
    assert!(!observation.trace.is_empty());
    assert!(!observation.metrics.is_empty());

    // A disabled ring observes the same report too (and retains no
    // records), so `--metrics-out` without `--trace-out` is also free.
    let (disabled, observation) = build(0).run_observed().unwrap();
    assert_reports_identical(&plain, &disabled);
    assert!(observation.trace.is_empty());
    assert!(observation.trace_dropped > 0, "drops still counted");
}

#[test]
fn metrics_mirror_the_report() {
    let (tasks, allocation) = dedicated(10.0, 5.0, 5.0);
    let config = SimConfig::default()
        .with_horizon(SimDuration::from_ms(400.0))
        .with_traffic_fraction(3.0)
        .with_trace_capacity(128);
    let (report, observation) =
        HypervisorSim::new(&Platform::platform_a(), &allocation, &tasks, config)
            .unwrap()
            .run_observed()
            .unwrap();
    let m = &observation.metrics;
    assert_eq!(m.counter("sim.jobs.released"), Some(report.jobs_released));
    assert_eq!(m.counter("sim.jobs.completed"), Some(report.jobs_completed));
    assert_eq!(
        m.counter("sim.deadline.misses"),
        Some(report.deadline_misses.len() as u64)
    );
    assert_eq!(
        m.counter("sim.throttle.events"),
        Some(report.throttle_events)
    );
    assert_eq!(
        m.counter("sim.context.switches"),
        Some(report.context_switches)
    );
    assert_eq!(
        m.counter("sim.trace.recorded"),
        Some(observation.trace.len() as u64)
    );
    assert_eq!(
        m.counter("sim.trace.dropped"),
        Some(observation.trace_dropped)
    );
    assert_eq!(m.gauge("sim.horizon_ms"), Some(report.horizon_ms));
    assert_eq!(
        m.gauge("sim.core0.busy_ms"),
        Some(report.core_times[0].busy_ms)
    );
    assert_eq!(
        m.gauge("sim.core0.throttled_ms"),
        Some(report.core_times[0].throttled_ms)
    );
    let response = m.histogram("sim.response_ms.T0").unwrap();
    assert_eq!(
        response.count(),
        report.response_times.get(&TaskId(0)).unwrap().count()
    );
    // Isolated mode: the regulator's counters ride along.
    assert_eq!(
        m.counter("membw.throttles"),
        Some(report.throttle_events),
        "regulator and simulator must agree on throttle counts"
    );
    assert!(m.counter("membw.periods_elapsed").unwrap_or(0) > 300);
    assert_eq!(m.gauge("membw.period_ms"), Some(1.0));
    // Wall-clock overheads stay out of the registry (determinism).
    assert_eq!(m.histogram("sim.handler_us.Scheduling"), None);
}

#[test]
fn trace_records_typed_events_in_order() {
    let (tasks, allocation) = dedicated(10.0, 4.0, 4.0);
    let config = SimConfig::default()
        .with_horizon(SimDuration::from_ms(100.0))
        .with_trace_capacity(4096);
    let (_, observation) =
        HypervisorSim::new(&Platform::platform_a(), &allocation, &tasks, config)
            .unwrap()
            .run_observed()
            .unwrap();
    assert_eq!(observation.trace_dropped, 0, "ring big enough to keep all");
    // Timestamps are monotone.
    assert!(observation
        .trace
        .windows(2)
        .all(|w| w[0].0 <= w[1].0));
    // The dedicated 0.4-utilization server replenishes once per period
    // boundary and the refiller fires once per regulation millisecond
    // (both boundaries at the 100 ms horizon included). Run segments
    // are scheduler-internal (boundary rescheduling may split them), so
    // only a lower bound is pinned: at least one per job.
    let count = |f: fn(&TraceEvent) -> bool| observation.trace.iter().filter(|(_, e)| f(e)).count();
    assert_eq!(
        count(|e| matches!(e, TraceEvent::Replenish { .. })),
        10,
        "one replenishment per boundary"
    );
    assert_eq!(
        count(|e| matches!(e, TraceEvent::Refill { .. })),
        100,
        "one refill per regulation period inside the horizon"
    );
    assert!(count(|e| matches!(e, TraceEvent::RunSegment { .. })) >= 10);
    assert_eq!(count(|e| matches!(e, TraceEvent::Miss { .. })), 0);
    assert_eq!(count(|e| matches!(e, TraceEvent::Throttle { .. })), 0);
    // The very first record is the typed segment start at t = 0.
    assert_eq!(
        observation.trace[0],
        (
            vc2m_model::SimTime::ZERO,
            TraceEvent::RunSegment {
                vcpu: VcpuId(0),
                task: Some(TaskId(0)),
                limit: SimDuration::from_ms(4.0),
            }
        )
    );
}
