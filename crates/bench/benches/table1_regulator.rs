//! Table 1 — memory-bandwidth regulator overhead.
//!
//! The paper reports microsecond-scale costs for the two regulator hot
//! paths on its Xen prototype:
//!
//! ```text
//! Throttle:                    min 0.33 | avg 0.37  | max 1.15   us
//! Memory BW budget replenish.: min 8.81 | avg 52.22 | max 108.65 us
//! ```
//!
//! The measurements below time the corresponding simulator code paths
//! with a plain `Instant` harness (`vc2m_bench::timing`). The expected
//! *shape* (the reproduction target): the throttle path is over an
//! order of magnitude cheaper than the refiller, which touches every
//! core's counter.

use vc2m::membw::{BwRegulator, RegulatorConfig};
use vc2m_bench::timing::run_batched;

fn regulator(cores: usize) -> BwRegulator {
    let mut r = BwRegulator::new(RegulatorConfig::new(cores, 1.0).expect("valid config"));
    for core in 0..cores {
        r.set_budget(core, 1_000).expect("core in range");
    }
    r
}

fn main() {
    println!("table1: memory-bandwidth regulator overhead");

    // The throttle path: a request burst crosses the budget boundary,
    // the counter overflows, and the core is marked throttled.
    run_batched(
        "throttle",
        10_000,
        || regulator(4),
        |r| r.record_requests(0, 1_001).expect("core in range"),
    );

    // Counting below the budget — the no-interrupt fast path the
    // regulator takes on every quantum.
    run_batched(
        "count_under_budget",
        10_000,
        || regulator(4),
        |r| r.record_requests(0, 10).expect("core in range"),
    );

    // The refiller: reset every core's counter, clear overflow status,
    // collect the throttled cores to wake into a caller-owned buffer
    // (the simulator reuses one across periods).
    for cores in [4usize, 16, 64] {
        run_batched(
            &format!("bw_replenish_{cores}_cores"),
            10_000,
            || {
                let mut r = regulator(cores);
                // Half the cores throttled, as in a busy system.
                for core in (0..cores).step_by(2) {
                    r.record_requests(core, 2_000).expect("core in range");
                }
                (r, Vec::with_capacity(cores))
            },
            |(r, woken)| r.replenish_all(woken),
        );
    }
}
