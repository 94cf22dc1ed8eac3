//! Pins the single-allocation guarantee of the decision-line renderer.
//!
//! `AdmissionDecision::log_line` and `FleetDecision::log_line(hosts)`
//! measure the line first and then fill a buffer of exactly that size:
//! one heap allocation per call and no reallocation, whatever the
//! verdict, the index width or the float values (the `{:.6}` fallback
//! for `-0.0`, NaN and huge values writes into the sized buffer too).
//!
//! The test installs a counting global allocator. This file
//! deliberately holds a single `#[test]` — a second concurrent test
//! would pollute the counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static REALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

use vc2m_alloc::{AdmissionDecision, AdmissionPath, AdmissionVerdict, FleetDecision, RequestKind};
use vc2m_model::VmId;

/// Heap allocations and reallocations `f` performs.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let allocations = ALLOCATIONS.load(Ordering::Relaxed);
    let reallocations = REALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (
        out,
        ALLOCATIONS.load(Ordering::Relaxed) - allocations,
        REALLOCATIONS.load(Ordering::Relaxed) - reallocations,
    )
}

#[test]
fn every_line_is_one_allocation() {
    let verdicts = [
        AdmissionVerdict::Admitted {
            path: AdmissionPath::Incremental,
        },
        AdmissionVerdict::Admitted {
            path: AdmissionPath::Repack,
        },
        AdmissionVerdict::Rejected {
            reason: "demand 8.120000 exceeds capacity 8.000080".to_string(),
        },
        AdmissionVerdict::Degraded {
            reason: "no feasible allocation".to_string(),
        },
        AdmissionVerdict::Departed,
    ];
    let floats = [
        0.18,
        0.0078125,
        0.0,
        -0.0,
        f64::NAN,
        f64::INFINITY,
        -2.5,
        1e300,
    ];
    let indices = [0, 42, 99_999, 100_000, u64::MAX];
    let mut decisions = Vec::new();
    for (i, verdict) in verdicts.iter().enumerate() {
        for (j, &u) in floats.iter().enumerate() {
            for &index in &indices {
                decisions.push(AdmissionDecision {
                    index,
                    kind: RequestKind::Arrival,
                    vm: VmId(i * 1_000 + j),
                    utilization: u,
                    verdict: verdict.clone(),
                    vms: j,
                    vcpus: 3 * j,
                    cores: usize::MAX,
                    load: floats[(j + 1) % floats.len()],
                });
            }
        }
    }

    for decision in &decisions {
        let (line, allocations, reallocations) = counted(|| decision.log_line());
        assert_eq!((allocations, reallocations), (1, 0), "{line}");

        let fleet = FleetDecision {
            host: 7,
            decision: decision.clone(),
            evac: decision.index % 2 == 0,
        };
        for hosts in [1, 2, 16] {
            let (line, allocations, reallocations) = counted(|| fleet.log_line(hosts));
            assert_eq!((allocations, reallocations), (1, 0), "{line}");
        }
    }
}
