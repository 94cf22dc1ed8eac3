//! Pins the benchmark's simulated system bit for bit.
//!
//! The `sim` benchmark workload runs the 96-VCPU Table-2 stress system
//! on Platform A with `traffic_fraction` 0.6 and seed-42 release
//! offsets in [0, 10) ms. That is the preemption-heavy regime: many
//! run segments end early because a replenishment, release or refill
//! preempted them. The golden tests elsewhere use small systems, so
//! this one pins the large one over 1 000 ms of simulated time: a
//! digest of the whole trace, a digest of every deterministic report
//! field, and the exact number of invocations of each handler.

use vc2m::hypervisor::{HandlerKind, HypervisorSim, SimConfig};
use vc2m::model::{Platform, SimDuration};
use vc2m::rng::{DetRng, Rng};

/// Enough trace slots to keep every record of the 1 000 ms run.
const TRACE_CAPACITY: usize = 1 << 20;

/// FNV-1a over `bytes`, continuing from `hash`.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The benchmark's system over 1 000 ms, built with `config`'s other
/// settings.
fn stress_sim(config: SimConfig) -> HypervisorSim {
    let platform = Platform::platform_a();
    let (allocation, tasks) = vc2m_bench::scheduler_stress_system(&platform, 96);
    let mut rng = DetRng::seed_from_u64(42);
    let offsets: Vec<_> = tasks
        .iter()
        .map(|t| (t.id(), rng.gen_f64() * 10.0))
        .collect();
    let config = config
        .with_horizon(SimDuration::from_ms(1_000.0))
        .with_traffic_fraction(0.6);
    let mut sim = HypervisorSim::new(&platform, &allocation, &tasks, config).unwrap();
    for (task, offset) in offsets {
        sim = sim.with_task_offset(task, offset).unwrap();
    }
    sim
}

#[test]
fn stress_system_run_is_pinned() {
    let sim = stress_sim(SimConfig::default().with_trace_capacity(TRACE_CAPACITY));
    let (report, observation) = sim.run_observed().unwrap();

    assert_eq!(
        observation.trace_dropped, 0,
        "the ring must keep every record"
    );
    let trace_digest = observation.trace.iter().fold(FNV_OFFSET, |h, record| {
        fnv1a(h, format!("{record:?}").as_bytes())
    });

    // Every field `structural_eq` compares, rendered with `Debug`
    // (floats print their shortest round-trip form, so equal text
    // means equal bits).
    let fields = format!(
        "{:?}|{}|{}|{}|{}|{:?}|{:?}|{:?}|{:?}",
        report.deadline_misses,
        report.jobs_completed,
        report.jobs_released,
        report.throttle_events,
        report.context_switches,
        report.response_times,
        report.supply_logs,
        report.core_times,
        report.horizon_ms,
    );
    let report_digest = fnv1a(FNV_OFFSET, fields.as_bytes());

    let counts: Vec<u64> = HandlerKind::ALL
        .iter()
        .map(|k| report.handler_overheads.get(k).map_or(0, |s| s.count()))
        .collect();

    assert!(report.all_deadlines_met());
    assert_eq!(observation.trace.len(), 26_364);
    assert_eq!(trace_digest, 0xbc8c_20a6_c259_36b0);
    assert_eq!(report_digest, 0x8d32_9694_668c_7ee5);
    // Table order: throttle, bw_replenish, cpu_replenish, scheduling,
    // context_switch.
    assert_eq!(counts, vec![0, 1_000, 9_504, 34_077, 15_860]);
}

#[test]
fn handler_timing_changes_only_the_durations() {
    let untimed = stress_sim(SimConfig::default()).run().unwrap();
    let timed = stress_sim(SimConfig::default().with_handler_timing(true))
        .run()
        .unwrap();

    // `structural_eq` compares the handler counts too.
    assert!(untimed.structural_eq(&timed));
    assert_eq!(untimed.handler_overheads.len(), 4, "all but throttle run");
    for stats in untimed.handler_overheads.values() {
        assert_eq!((stats.min(), stats.avg(), stats.max()), (None, None, None));
    }
    for (kind, stats) in &timed.handler_overheads {
        let (min, avg, max) = (stats.min(), stats.avg(), stats.max());
        assert!(min.is_some() && avg.is_some() && max.is_some(), "{kind}");
        assert!(min <= avg && avg <= max, "{kind}: {min:?} {avg:?} {max:?}");
    }
}
