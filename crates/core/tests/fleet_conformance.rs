//! Fleet conformance suite: the sharded [`AdmissionFleet`] against its
//! three ground truths.
//!
//! 1. A one-host fleet IS the plain engine — merged decision log
//!    byte-for-byte, allocation, and counters.
//! 2. Replay is thread-count invariant — the routing pass fixes each
//!    decision's host and global ticket before any engine runs, so the
//!    merged log cannot depend on scheduling.
//! 3. The rejection memo is an invisible cache — memo-on and memo-off
//!    produce bit-identical decision logs on the rejection-heavy
//!    preset the memo exists for (only the `memo_*` counters differ).
//!
//! Plus two seeded properties: shard routing is a pure function of the
//! canonical batch order, so permuting a batch's member order never
//! changes the merged log; and `replay` equals the interleaved fleet,
//! which serves every item through `submit` / `submit_batch` before
//! routing the next.

use vc2m::admission::{fleet_items, generate, replay, TraceItem, TraceSpec};
use vc2m::prelude::*;
use vc2m_rng::cases::check;
use vc2m_rng::Rng;

const SEED: u64 = 42;

fn fleet(platform: Platform, hosts: usize) -> AdmissionFleet {
    AdmissionFleet::new(platform, FleetConfig::new(hosts, SEED))
}

/// Asserts two fleets agree on merged log bytes, engine counters,
/// router loads, and every host's allocation.
fn assert_same_fleet(a: &AdmissionFleet, b: &AdmissionFleet, what: &str) {
    assert_eq!(a.log_text(), b.log_text(), "{what}: merged log");
    assert_eq!(a.aggregate_stats(), b.aggregate_stats(), "{what}: counters");
    assert_eq!(a.router().loads(), b.router().loads(), "{what}: router loads");
    for (host, (x, y)) in a.engines().iter().zip(b.engines()).enumerate() {
        assert_eq!(x.allocation(), y.allocation(), "{what}: host {host}");
    }
}

/// 1-host fleet == plain engine: byte-identical log, equal final
/// allocation and counters, over a churn trace exercising every
/// request kind (arrivals, departures, mode changes, batches).
#[test]
fn one_host_fleet_equals_plain_engine_byte_for_byte() {
    let platform = Platform::platform_a();
    let trace = generate(&TraceSpec::new(150, 7));
    let mut engine = AdmissionEngine::new(platform, AdmissionConfig::new(SEED));
    replay(&mut engine, &trace);
    let mut one = fleet(platform, 1);
    one.replay(&fleet_items(&trace, platform.resources()), 1).unwrap();
    assert_eq!(one.log_text(), engine.log_text());
    assert_eq!(one.engines()[0].allocation(), engine.allocation());
    assert_eq!(&one.aggregate_stats(), engine.stats());
}

/// N-host replay at 1, 2, and 8 threads == at one thread: merged log
/// bytes, per-host allocations, aggregate counters, and router loads.
#[test]
fn parallel_replay_is_thread_count_invariant() {
    let platform = Platform::platform_a();
    let config = FleetConfig::new(4, SEED);
    let trace = generate(&TraceSpec::new(150, 7).with_hosts(4));
    let items = fleet_items(&trace, platform.resources());
    let mut serial = AdmissionFleet::new(platform, config);
    serial.replay(&items, 1).unwrap();
    for threads in [1, 2, 8] {
        let mut parallel = AdmissionFleet::new(platform, config);
        parallel.replay(&items, threads).unwrap();
        assert_eq!(
            parallel.log_text(),
            serial.log_text(),
            "merged log diverged at {threads} threads"
        );
        assert_eq!(parallel.aggregate_stats(), serial.aggregate_stats());
        assert_eq!(parallel.router().loads(), serial.router().loads());
        for (host, (p, s)) in parallel.engines().iter().zip(serial.engines()).enumerate() {
            assert_eq!(p.allocation(), s.allocation(), "host {host} diverged");
        }
    }
}

/// Memo-on == memo-off, bit for bit, on the rejection-heavy preset —
/// and the memo actually fires there (otherwise this test proves
/// nothing about it).
#[test]
fn memo_is_invisible_on_rejection_heavy_trace() {
    let platform = Platform::platform_a();
    let trace = generate(&TraceSpec::rejection_heavy(120, 13, 2));
    let items = fleet_items(&trace, platform.resources());
    let run = |engine_config: AdmissionConfig| {
        let mut f = AdmissionFleet::new(
            platform,
            FleetConfig::new(trace.hosts(), SEED).with_engine(engine_config),
        );
        f.replay(&items, 1).unwrap();
        f
    };
    let on = run(AdmissionConfig::new(SEED));
    let off = run(AdmissionConfig::new(SEED).without_memo());
    let on_stats = on.aggregate_stats();
    let off_stats = off.aggregate_stats();
    assert!(
        on_stats.memo_hits > 0,
        "rejection-heavy preset never hit the memo"
    );
    assert_eq!(off_stats.memo_hits, 0);
    assert_eq!(on.log_text(), off.log_text());
    for (p, s) in on.engines().iter().zip(off.engines()) {
        assert_eq!(p.allocation(), s.allocation());
    }
    // Only the memo_* counters may differ.
    let normalized = |mut stats: AdmissionStats| {
        stats.memo_hits = 0;
        stats.memo_inserts = 0;
        stats.memo_invalidations = 0;
        // A memo hit skips the placement attempt and repack its miss
        // would have run, so the work counters legitimately shrink.
        stats.repack_attempts = 0;
        stats.core_upgrades = 0;
        stats
    };
    assert_eq!(normalized(on_stats), normalized(off_stats));
}

/// Seeded property: shard routing is deterministic under batch
/// permutation. Arrivals are routed in canonical order regardless of
/// submission order, so shuffling a batch's members never changes the
/// merged log or any host's final state.
#[test]
fn routing_is_deterministic_under_batch_permutation() {
    let platform = Platform::platform_a();
    let trace = generate(&TraceSpec::new(60, 23).with_hosts(3));
    let baseline_items = fleet_items(&trace, platform.resources());
    let mut baseline = fleet(platform, 3);
    baseline.replay(&baseline_items, 1).unwrap();
    let baseline_log = baseline.log_text();
    check(12, |rng| {
        // Fisher–Yates-shuffle every batch's member order.
        let shuffled: Vec<TraceItem> = trace
            .items()
            .iter()
            .map(|item| match item {
                TraceItem::Batch(members) => {
                    let mut members = members.clone();
                    for i in (1..members.len()).rev() {
                        members.swap(i, rng.gen_range(0usize..i + 1));
                    }
                    TraceItem::Batch(members)
                }
                single => single.clone(),
            })
            .collect();
        let shuffled = AdmissionTrace::from_items(shuffled)
            .and_then(|trace| trace.with_hosts(3))
            .unwrap();
        let items = fleet_items(&shuffled, platform.resources());
        let mut f = fleet(platform, 3);
        f.replay(&items, 1).unwrap();
        assert_eq!(f.log_text(), baseline_log);
        for (a, b) in f.engines().iter().zip(baseline.engines()) {
            assert_eq!(a.allocation(), b.allocation());
        }
    });
}

/// Seeded property: `replay` is the interleaved fleet. Serving each
/// work item through `submit` / `submit_batch` (every request executed
/// before the next is routed) equals `replay` at 1, 2, and 8 threads,
/// and replaying a trace in two calls equals replaying it in one.
/// Fault-free churn traces of up to 40 requests over 1–4 hosts, with
/// batches, mode changes, and retries; VMs are large enough that
/// arrivals spill across hosts and some are rejected.
#[test]
fn replay_equals_interleaved_submission_and_appends() {
    let platform = Platform::platform_a();
    check(16, |rng| {
        let hosts = rng.gen_range(1usize..5);
        let requests = rng.gen_range(1usize..41);
        let mut spec = TraceSpec::new(requests, rng.gen_range(0u64..1 << 32)).with_hosts(hosts);
        spec.utilization_milli = (100, 450);
        spec.live_range = (3, 12);
        spec.mode_fraction = 0.15;
        spec.batch_fraction = 0.25;
        spec.max_batch = 4;
        spec.retry_fraction = 0.1;
        let items = fleet_items(&generate(&spec), platform.resources());
        let mut interleaved = fleet(platform, hosts);
        for item in &items {
            match item.clone() {
                FleetWorkItem::Single(request) => {
                    interleaved.submit(request);
                }
                FleetWorkItem::Batch(requests) => {
                    interleaved.submit_batch(requests);
                }
            }
        }
        let split = rng.gen_range(0usize..items.len() + 1);
        for threads in [1, 2, 8] {
            let mut whole = fleet(platform, hosts);
            whole.replay(&items, threads).unwrap();
            assert_same_fleet(&whole, &interleaved, &format!("replay at {threads} threads"));
            let mut halves = fleet(platform, hosts);
            halves.replay(&items[..split], threads).unwrap();
            halves.replay(&items[split..], threads).unwrap();
            assert_same_fleet(&halves, &whole, &format!("split at {split}, {threads} threads"));
        }
    });
}
