//! Pins the zero-allocation guarantee of the steady-state kernel path.
//!
//! The naive kernels allocate a checkpoint vector and a demand vector
//! on every `min_budget` / `can_schedule` call. The incremental
//! kernels ([`AnalysisWorkspace`], [`MinBudgetSolver`]) reuse their
//! buffers, the certified bisection's per-checkpoint threshold vector
//! included: after a warm-up call sized the buffers, repeated calls on
//! demands of the same (or smaller) footprint must perform **zero**
//! heap allocations.
//!
//! The test installs a counting global allocator, warms the workspace
//! and solver once, then asserts an exact zero allocation delta over
//! hundreds of further kernel calls. This file deliberately holds a
//! single `#[test]` — a second concurrent test would pollute the
//! counter.

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

use vc2m_sched::dbf::Demand;
use vc2m_sched::kernel::AnalysisWorkspace;
use vc2m_sched::sbf::{MinBudgetSolver, PeriodicResource};

#[test]
fn steady_state_kernels_never_allocate() {
    let demand = Demand::new(vec![
        (5.0, 0.5),
        (10.0, 1.0),
        (20.0, 2.0),
        (40.0, 3.0),
        (80.0, 4.0),
    ])
    .expect("valid demand");
    // A second, smaller demand: switching inputs must also stay
    // allocation-free once the buffers fit the larger one.
    let small = Demand::new(vec![(10.0, 1.5), (20.0, 2.0)]).expect("valid demand");

    let mut workspace = AnalysisWorkspace::new();
    let solver = MinBudgetSolver::new(demand.periods(), 5.0).unwrap();
    let wcets: Vec<f64> = demand.wcets().to_vec();

    // Warm-up: size every reusable buffer (merge scratch, checkpoint,
    // demand and threshold vectors). One pass suffices: each buffer is
    // cleared and refilled per call, so the larger demand sizes it for
    // good.
    let budget = workspace.min_budget(&demand, 5.0).expect("feasible");
    let _ = workspace.min_budget(&small, 5.0);
    let solver_budget = solver.min_budget(&wcets).expect("feasible");
    assert_eq!(budget.to_bits(), solver_budget.to_bits());
    // A resource with ~5% headroom over the larger demand's minimal
    // budget: schedules both demands (the smaller strictly dominates).
    let resource = PeriodicResource::new(5.0, (budget * 1.05).min(5.0));
    assert!(workspace.can_schedule(&resource, &demand));
    assert!(workspace.can_schedule(&resource, &small));

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut acc = 0.0f64;
    let mut verdicts = 0u32;
    for _ in 0..200 {
        acc += workspace.min_budget(&demand, 5.0).expect("feasible");
        acc += workspace.min_budget(&small, 5.0).expect("feasible");
        acc += solver.min_budget(&wcets).expect("feasible");
        verdicts += u32::from(workspace.can_schedule(&resource, &demand));
        verdicts += u32::from(workspace.can_schedule(&resource, &small));
    }
    let delta = ALLOCATIONS.load(Ordering::Relaxed) - before;
    std::hint::black_box((acc, verdicts));

    assert!(acc.is_finite());
    assert_eq!(verdicts, 400, "the warm resource schedules both demands");
    assert_eq!(
        delta, 0,
        "steady-state kernel calls performed {delta} heap allocations \
         over 1000 invocations — the incremental path must reuse its \
         buffers"
    );
}
