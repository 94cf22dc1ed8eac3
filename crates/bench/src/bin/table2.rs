//! Regenerates Table 2: scheduler overhead at 24 and 96 VCPUs
//! (CPU budget replenishment, scheduling, context switching), in
//! microseconds.
//!
//! ```text
//! cargo run --release -p vc2m-bench --bin table2
//! ```
//!
//! Reproduction target: overheads grow slowly as the number of VCPUs
//! quadruples.

use vc2m::hypervisor::{HandlerKind, HandlerStats};
use vc2m::model::SimDuration;
use vc2m::prelude::*;
use vc2m_bench::{require_handler_timing, scheduler_stress_system, stat_cells, write_results};

fn main() {
    let platform = Platform::platform_a();
    let mut csv = String::from("vcpus,handler,min_us,avg_us,max_us,samples\n");
    println!("Table 2: scheduler's overhead (us)\n");
    for vcpu_count in [24usize, 96] {
        let (allocation, tasks) = scheduler_stress_system(&platform, vcpu_count);
        let config = SimConfig::default()
            .with_horizon(SimDuration::from_ms(10_000.0))
            .with_handler_timing(true);
        let report = HypervisorSim::new(&platform, &allocation, &tasks, config)
            .expect("realizable allocation")
            .run()
            .expect("fault-free run succeeds");
        if let Err(e) = require_handler_timing(&report) {
            eprintln!("table2: {e}");
            std::process::exit(1);
        }
        println!("{vcpu_count} VCPUs:");
        println!(
            "  {:<26} {:>8} {:>8} {:>8}   (samples)",
            "handler", "min", "avg", "max"
        );
        for kind in [
            HandlerKind::CpuBudgetReplenish,
            HandlerKind::Scheduling,
            HandlerKind::ContextSwitch,
        ] {
            let stats = report.handler_overheads.get(&kind);
            let (min, avg, max) = stat_cells(stats.and_then(HandlerStats::timing));
            let samples = stats.map_or(0, |s| s.count());
            println!(
                "  {:<26} {min:>8.3} {avg:>8.3} {max:>8.3}   ({samples})",
                kind.label()
            );
            csv.push_str(&format!(
                "{vcpu_count},{},{min:.4},{avg:.4},{max:.4},{samples}\n",
                kind.label()
            ));
        }
        println!(
            "  ({} jobs, {} context switches over 10 simulated seconds)\n",
            report.jobs_completed, report.context_switches
        );
    }
    println!("paper (Xen/Xeon), 24 -> 96 VCPUs:");
    println!("  CPU budget replenish. 0.29|0.74|2.95  -> 0.34|1.26|3.73");
    println!("  Scheduling            0.13|0.57|1.73  -> 0.13|0.55|2.03");
    println!("  Context switching     0.04|0.23|32.07 -> 0.04|0.27|24.67");
    let path = write_results("table2.csv", &csv);
    println!("wrote {}", path.display());
}
