//! Property-based tests for the bandwidth-regulation substrate,
//! driven by the in-tree seeded case harness (`vc2m_rng::cases`).

use vc2m_membw::{
    budget_requests_per_period, BwRegulator, PerfCounter, RegulatorConfig, ThrottleAction,
};
use vc2m_rng::{cases::check, Rng};

#[test]
fn counter_overflows_exactly_at_budget() {
    check(64, |rng| {
        let budget = rng.gen_range(1u64..1_000_000);
        let n = rng.gen_range(1usize..50);
        let chunks: Vec<u64> = (0..n).map(|_| rng.gen_range(1u64..10_000)).collect();
        let mut counter = PerfCounter::preset(budget);
        let mut consumed = 0u64;
        let mut fired = false;
        for chunk in chunks {
            let fired_now = counter.add(chunk);
            let before = consumed;
            consumed += chunk;
            if fired_now {
                // The overflow fires on the call that crosses the
                // budget boundary, and only once.
                assert!(before < budget && consumed >= budget);
                assert!(!fired, "overflow fired twice");
                fired = true;
            }
        }
        assert_eq!(fired, consumed >= budget);
        assert_eq!(counter.has_overflowed(), consumed >= budget);
    });
}

#[test]
fn regulator_guarantees_budget_every_period() {
    check(64, |rng| {
        let budget = rng.gen_range(1u64..100_000);
        let periods = rng.gen_range(1usize..20);
        let mut r = BwRegulator::new(RegulatorConfig::new(1, 1.0).unwrap());
        r.set_budget(0, budget).unwrap();
        for _ in 0..periods {
            // The core can always issue exactly its budget without an
            // early throttle...
            if budget > 1 {
                assert_eq!(r.record_requests(0, budget - 1).unwrap(), ThrottleAction::None);
                assert_eq!(r.record_requests(0, 1).unwrap(), ThrottleAction::Throttle);
            } else {
                assert_eq!(r.record_requests(0, 1).unwrap(), ThrottleAction::Throttle);
            }
            // ...and never more.
            assert_eq!(
                r.record_requests(0, 1).unwrap(),
                ThrottleAction::AlreadyThrottled
            );
            let mut woken = Vec::new();
            r.replenish_all(&mut woken);
            assert_eq!(woken, vec![0]);
            assert!(!r.is_throttled(0));
        }
        assert_eq!(r.total_throttles(), periods as u64);
    });
}

#[test]
fn throttled_cores_match_throttle_flags() {
    // Core counts reach past 64, where a `u64` mask would overflow.
    check(64, |rng| {
        let cores = rng.gen_range(1usize..160);
        let n = rng.gen_range(1usize..160);
        let overloads: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
        let mut r = BwRegulator::new(RegulatorConfig::new(cores, 1.0).unwrap());
        for core in 0..cores {
            r.set_budget(core, 100).unwrap();
        }
        for (core, &overload) in overloads.iter().take(cores).enumerate() {
            if overload {
                r.record_requests(core, 200).unwrap();
            }
        }
        let mut expected_cores = Vec::new();
        for core in 0..cores {
            let expected = overloads.get(core).copied().unwrap_or(false);
            assert_eq!(r.is_throttled(core), expected);
            if expected {
                expected_cores.push(core);
            }
        }
        assert_eq!(r.throttled_cores().collect::<Vec<_>>(), expected_cores);
    });
}

#[test]
fn budget_conversion_is_monotone_and_linear_in_partitions() {
    check(64, |rng| {
        let partitions = rng.gen_range(1u32..64);
        let mbps = rng.gen_range(1u32..500);
        let period_ms = rng.gen_range(0.1f64..10.0);
        let one = budget_requests_per_period(1, mbps, period_ms);
        let many = budget_requests_per_period(partitions, mbps, period_ms);
        // Monotone and (up to flooring) linear.
        assert!(many >= one);
        let linear = one * u64::from(partitions);
        assert!(many >= linear.saturating_sub(u64::from(partitions)));
        assert!(many <= linear + u64::from(partitions));
    });
}
