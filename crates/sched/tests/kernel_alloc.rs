//! Pins the zero-allocation guarantee of the steady-state kernel path.
//!
//! The naive `min_budget` allocates a checkpoint vector and a demand
//! vector on every call. [`MinBudgetSolver`] reuses its buffers, the
//! certified bisection's per-checkpoint threshold vector included:
//! after warm-up searches sized the buffers, repeated searches at any
//! period the solver serves must perform **zero** heap allocations.
//!
//! The test installs a counting global allocator, warms the solver
//! once, then asserts an exact zero allocation delta over hundreds of
//! further searches at two periods. This file deliberately holds a
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
use vc2m_sched::sbf::{min_budget, MinBudgetSolver};

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
    // A second, lighter WCET vector over the same periods: switching
    // inputs must also stay allocation-free once the buffers fit.
    let light = [0.2, 0.5, 1.0, 1.5, 2.0];
    let solver = MinBudgetSolver::new(demand.periods(), 5.0).unwrap();
    let wcets: Vec<f64> = demand.wcets().to_vec();

    // Warm-up: size the demand and threshold buffers. One search at
    // the largest period suffices: each buffer is cleared and refilled
    // per search, and no smaller period reads a longer prefix.
    let budget = solver.min_budget(5.0, &wcets).unwrap().expect("feasible");
    assert_eq!(budget.to_bits(), min_budget(&demand, 5.0).expect("feasible").to_bits());

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut acc = 0.0f64;
    for _ in 0..200 {
        for period in [5.0, 1.25] {
            for wcets in [&wcets[..], &light[..]] {
                if let Ok(Some(theta)) = solver.min_budget(period, wcets) {
                    acc += theta;
                }
            }
        }
    }
    let delta = ALLOCATIONS.load(Ordering::Relaxed) - before;
    std::hint::black_box(acc);

    assert!(acc > 0.0 && acc.is_finite());
    assert_eq!(
        delta, 0,
        "steady-state solver searches performed {delta} heap allocations \
         over 800 searches — the solver must reuse its buffers"
    );
}
