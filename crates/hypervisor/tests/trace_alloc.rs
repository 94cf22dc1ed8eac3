//! Pins the zero-allocation guarantee of the event loop and of the
//! typed trace path.
//!
//! The simulator used to build a `format!` `String` for every trace
//! call site *before* the buffer could reject it, so even a disabled
//! trace paid one heap allocation per event. With the typed
//! [`TraceEvent`](vc2m_hypervisor::TraceEvent) (a `Copy` enum) the
//! payload lives on the stack, and an enabled ring allocates only its
//! preallocated storage at build time. The bandwidth refill, once per
//! regulation period, reuses buffers the simulator owns.
//!
//! The test installs a counting global allocator and compares whole
//! build+run allocation counts: between a trace-disabled and a
//! trace-enabled simulation the difference must be a handful of
//! buffer-setup allocations, not one-per-event; and doubling the
//! horizon must not add any. This file deliberately holds a single
//! `#[test]` — a second concurrent test would pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

use vc2m_alloc::{CoreAssignment, SystemAllocation};
use vc2m_hypervisor::{HypervisorSim, SimConfig, SimReport};
use vc2m_model::{
    Alloc, BudgetSurface, Platform, SimDuration, Task, TaskId, TaskSet, VcpuId, VcpuSpec, VmId,
    WcetSurface,
};

fn workload() -> (TaskSet, SystemAllocation) {
    let space = Platform::platform_a().resources();
    let tasks: TaskSet = (0..3)
        .map(|i| {
            Task::new(
                TaskId(i),
                10.0 * (i + 1) as f64,
                WcetSurface::flat(&space, 2.0 + i as f64).unwrap(),
            )
        })
        .collect::<Result<_, _>>()
        .unwrap();
    let vcpus: Vec<VcpuSpec> = (0..3)
        .map(|i| {
            VcpuSpec::new(
                VcpuId(i),
                VmId(0),
                10.0 * (i + 1) as f64,
                BudgetSurface::flat(&space, 2.0 + i as f64).unwrap(),
                vec![TaskId(i)],
            )
            .unwrap()
        })
        .collect();
    let allocation = SystemAllocation::new(
        vcpus,
        vec![CoreAssignment {
            vcpus: vec![0, 1, 2],
            alloc: Alloc::new(10, 10),
        }],
    );
    (tasks, allocation)
}

/// Builds and runs one simulation, returning the report plus the
/// number of heap allocations (alloc + realloc calls) it performed.
fn measured_run(horizon_ms: f64, trace_capacity: usize) -> (SimReport, u64, u64) {
    let (tasks, allocation) = workload();
    let config = SimConfig::default()
        .with_horizon(SimDuration::from_ms(horizon_ms))
        .with_trace_capacity(trace_capacity);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let (report, observation) =
        HypervisorSim::new(&Platform::platform_a(), &allocation, &tasks, config)
            .unwrap()
            .run_observed()
            .unwrap();
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let events = observation.trace.len() as u64 + observation.trace_dropped;
    (report, allocs, events)
}

#[test]
fn trace_payloads_never_allocate() {
    // Warm-up run so lazy one-time allocations don't skew the counts.
    let (baseline_report, _, _) = measured_run(1000.0, 0);

    let (disabled_report, disabled_allocs, disabled_events) = measured_run(1000.0, 0);
    let (enabled_report, enabled_allocs, enabled_events) = measured_run(1000.0, 4096);

    // The comparison is meaningful only if the run emits far more
    // events than the allowed allocation delta.
    assert!(disabled_events > 1_000, "only {disabled_events} events");
    assert_eq!(disabled_events, enabled_events);
    // Deterministic fields agree across all three runs (the full
    // bit-identity conformance lives in tests/observability.rs;
    // `handler_overheads` is wall-clock and excluded here).
    assert_eq!(baseline_report.core_times, disabled_report.core_times);
    assert_eq!(
        disabled_report.core_times, enabled_report.core_times,
        "tracing must not perturb the simulation"
    );
    assert_eq!(disabled_report.jobs_completed, enabled_report.jobs_completed);

    // Stringly tracing cost ~1 allocation per event (> 1000 here).
    // The typed path costs none; enabling the ring adds only its
    // one-off preallocated storage (metrics collection is identical on
    // both sides). Allow a small constant slack for allocator noise.
    let delta = enabled_allocs.abs_diff(disabled_allocs);
    assert!(
        delta <= 8,
        "enabling tracing cost {delta} extra allocations over \
         {enabled_events} events (disabled {disabled_allocs}, enabled \
         {enabled_allocs}) — the event path must not allocate per event"
    );

    // Twice the simulated time, twice the events, no more allocations:
    // nothing in the loop allocates per event or per regulation period.
    let (_, long_allocs, long_events) = measured_run(2000.0, 0);
    assert!(long_events > disabled_events * 3 / 2);
    assert_eq!(
        long_allocs, disabled_allocs,
        "a 2000 ms run allocated {long_allocs} times, a 1000 ms run {disabled_allocs}"
    );
}
