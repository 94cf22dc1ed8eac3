//! Regenerates Table 1: the bandwidth regulator's overhead
//! (throttle and budget replenishment), in microseconds.
//!
//! ```text
//! cargo run --release -p vc2m-bench --bin table1
//! ```
//!
//! Absolute values measure the simulator on the host machine, not Xen
//! on a Xeon; the reproduction target is the shape — throttling is
//! much cheaper than replenishment.

use vc2m::hypervisor::{HandlerKind, HandlerStats};
use vc2m::model::SimDuration;
use vc2m::prelude::*;
use vc2m_bench::{require_handler_timing, scheduler_stress_system, stat_cells, write_results};

fn main() {
    // A 4-core system whose tasks generate 1.5× their bandwidth
    // budgets, so the regulator throttles and refills constantly for a
    // simulated ten seconds.
    let platform = Platform::platform_a();
    let (allocation, tasks) = scheduler_stress_system(&platform, 24);
    let config = SimConfig::default()
        .with_horizon(SimDuration::from_ms(10_000.0))
        .with_traffic_fraction(1.5)
        .with_handler_timing(true);
    let report = HypervisorSim::new(&platform, &allocation, &tasks, config)
        .expect("realizable allocation")
        .run()
        .expect("fault-free run succeeds");
    if let Err(e) = require_handler_timing(&report) {
        eprintln!("table1: {e}");
        std::process::exit(1);
    }

    println!("Table 1: memory bandwidth regulator's overhead (us)\n");
    println!(
        "{:<34} {:>8} {:>8} {:>8}   (samples)",
        "handler", "min", "avg", "max"
    );
    let mut csv = String::from("handler,min_us,avg_us,max_us,samples\n");
    for kind in [HandlerKind::Throttle, HandlerKind::BwReplenish] {
        let stats = report.handler_overheads.get(&kind);
        let (min, avg, max) = stat_cells(stats.and_then(HandlerStats::timing));
        let samples = stats.map_or(0, |s| s.count());
        println!(
            "{:<34} {min:>8.3} {avg:>8.3} {max:>8.3}   ({samples})",
            kind.label()
        );
        csv.push_str(&format!(
            "{},{min:.4},{avg:.4},{max:.4},{samples}\n",
            kind.label()
        ));
    }
    println!(
        "\nthrottle events: {}, simulated time: 10 s",
        report.throttle_events
    );
    println!("paper (Xen/Xeon): throttle 0.33|0.37|1.15, replenishment 8.81|52.22|108.65");
    let path = write_results("table1.csv", &csv);
    println!("wrote {}", path.display());
}
