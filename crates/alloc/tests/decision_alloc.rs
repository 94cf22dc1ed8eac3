//! Pins an upper bound on the heap allocations of each admission
//! decision path: incremental arrival, departure, memo hit and solver
//! rejection.
//!
//! The failing heuristic search runs k-means and Phases 1–3 over
//! buffers that the engine keeps for the repacks of one state
//! (DESIGN.md §3l). A solver rejection therefore allocates what the
//! newcomer's two VM-level passes (warm start and repack) build, the
//! warm start's copy of the cores, the decision and the memo entry,
//! plus, on the first repack of a state, the state's repack prefix
//! (the incumbents' VM-level pass and feature rows) and the buffers'
//! growth. The two kinds of rejection are pinned apart; a rejection
//! over the state's cached prefix and buffers allocates at most 64
//! times on average. The streams are the benchmark's `overload` stream
//! 0 and a one-host rejection-heavy stream, both at seed 42.
//!
//! Debug builds check every cached repack prefix against a fresh build
//! (DESIGN.md §3h), which allocates inside the decision, so the bounds
//! are checked only in builds without debug assertions (CI runs this
//! file with `CARGO_PROFILE_RELEASE_DEBUG_ASSERTIONS=false`).
//!
//! The test installs a counting global allocator. This file
//! deliberately holds a single `#[test]`: a second concurrent test
//! would pollute the counters.

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
        // A growth is an allocation too: count it.
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

use vc2m_alloc::codec::{fleet_items, generate, TraceSpec};
use vc2m_alloc::{
    AdmissionConfig, AdmissionEngine, AdmissionPath, AdmissionVerdict, FleetWorkItem, RequestKind,
};
use vc2m_model::Platform;

/// The paths whose allocations are pinned, each with the most
/// allocations one decision on it may make.
const PATHS: [(&str, u64); 5] = [
    ("incremental arrival", 48),
    ("departure", 4),
    ("memo hit", 4),
    ("solver rejection, first repack of its state", 192),
    ("solver rejection, later repack of its state", 96),
];

/// The most allocations a solver rejection over the state's cached
/// prefix and buffers may make on average.
const LATER_REJECTION_MEAN: f64 = 64.0;

/// Allocations seen on one path.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    decisions: u64,
    total: u64,
    max: u64,
}

impl Tally {
    fn mean(&self) -> f64 {
        self.total as f64 / self.decisions.max(1) as f64
    }
}

/// The seed of benchmark stream `k` at `seed`.
fn stream_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(k)
}

/// Replays `spec`'s trace into one engine seeded like the benchmark's
/// controllers, tallying the allocations of every single request by
/// path. Batches are served but not tallied.
///
/// Any decision other than a rejection, and any batch, may have
/// changed the state; the first solver rejection after one counts as
/// its state's first repack.
fn replay(spec: &TraceSpec) -> [Tally; 5] {
    let platform = Platform::platform_a();
    let items = fleet_items(&generate(spec), platform.resources());
    let mut engine = AdmissionEngine::new(platform, AdmissionConfig::new(spec.seed));
    let mut tallies = [Tally::default(); 5];
    let mut fresh_state = true;
    for item in items {
        let request = match item {
            FleetWorkItem::Single(request) => request,
            FleetWorkItem::Batch(requests) => {
                engine.submit_batch(requests);
                fresh_state = true;
                continue;
            }
        };
        let before = *engine.stats();
        let start = ALLOCATIONS.load(Ordering::Relaxed);
        let decision = engine.submit(request);
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - start;
        let arrival = decision.kind == RequestKind::Arrival;
        let rejected = matches!(decision.verdict, AdmissionVerdict::Rejected { .. });
        let incremental = matches!(
            decision.verdict,
            AdmissionVerdict::Admitted {
                path: AdmissionPath::Incremental
            }
        );
        let departed = matches!(decision.verdict, AdmissionVerdict::Departed);
        let after = engine.stats();
        // Indices into `PATHS`.
        let path = if arrival && incremental {
            Some(0)
        } else if departed {
            Some(1)
        } else if !(arrival && rejected) {
            None
        } else if after.memo_hits > before.memo_hits {
            Some(2)
        } else if after.repack_attempts > before.repack_attempts {
            Some(if fresh_state { 3 } else { 4 })
        } else {
            None
        };
        fresh_state = match path {
            Some(3 | 4) => false,
            _ => fresh_state || !rejected,
        };
        if let Some(path) = path {
            let tally = &mut tallies[path];
            tally.decisions += 1;
            tally.total += allocations;
            tally.max = tally.max.max(allocations);
        }
    }
    tallies
}

#[test]
fn decision_paths_allocate_within_their_bounds() {
    if cfg!(debug_assertions) {
        eprintln!(
            "decision_alloc: skipped, debug assertions are on and the engine's \
             prefix checks allocate inside every decision"
        );
        return;
    }
    let streams = [
        (
            "overload stream 0",
            TraceSpec::new(2_500, stream_seed(42, 0)),
        ),
        (
            "rejection-heavy stream 0",
            TraceSpec::rejection_heavy(500, stream_seed(42, 0), 1),
        ),
    ];
    for (name, spec) in streams {
        let tallies = replay(&spec);
        for ((path, bound), tally) in PATHS.iter().zip(tallies) {
            eprintln!(
                "{name}: {path}: {} decisions, mean {:.1}, max {} allocations",
                tally.decisions,
                tally.mean(),
                tally.max
            );
            assert!(
                tally.max <= *bound,
                "{name}: a {path} made {} allocations, above its bound {bound}",
                tally.max
            );
        }
        // Both streams reach both kinds of solver rejection.
        assert!(
            tallies[3].decisions > 0,
            "{name}: no first-repack rejection"
        );
        assert!(
            tallies[4].decisions > 0,
            "{name}: no later-repack rejection"
        );
        assert!(
            tallies[4].mean() <= LATER_REJECTION_MEAN,
            "{name}: later-repack rejections made {:.1} allocations on average",
            tallies[4].mean()
        );
    }
}
