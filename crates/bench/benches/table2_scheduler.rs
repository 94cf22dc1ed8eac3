//! Table 2 — scheduler overhead at 24 and 96 VCPUs.
//!
//! The paper reports, for its extended RTDS scheduler:
//!
//! ```text
//!                       24 VCPUs              96 VCPUs
//! CPU budget replenish. 0.29 | 0.74 | 2.95    0.34 | 1.26 | 3.73
//! Scheduling            0.13 | 0.57 | 1.73    0.13 | 0.55 | 2.03
//! Context switching     0.04 | 0.23 | 32.07   0.04 | 0.27 | 24.67
//! ```
//!
//! Reproduction target: overheads grow *slowly* from 24 to 96 VCPUs.
//! The measurements below time a complete simulated second of the
//! hypervisor at each VCPU count (thousands of handler invocations),
//! so the per-VCPU scaling is directly visible in the runtime ratio;
//! the `table2` binary prints the per-handler min/avg/max rows from
//! the in-simulator probes.

use vc2m::model::SimDuration;
use vc2m::prelude::*;
use vc2m_bench::scheduler_stress_system;
use vc2m_bench::timing::{run_batched, run_consuming};

fn bench_simulated_second() {
    let platform = Platform::platform_a();
    for vcpu_count in [24usize, 96] {
        let (allocation, tasks) = scheduler_stress_system(&platform, vcpu_count);
        run_consuming(
            &format!("simulated_second_{vcpu_count}_vcpus"),
            20,
            || {
                HypervisorSim::new(
                    &platform,
                    &allocation,
                    &tasks,
                    SimConfig::default().with_horizon(SimDuration::from_ms(1000.0)),
                )
                .expect("realizable allocation")
            },
            |sim| sim.run().expect("fault-free run succeeds"),
        );
    }
}

fn bench_scheduling_decision() {
    // The simulator's decision path: `HypervisorSim::schedule` reads
    // its server from the front of the core's `ReadyQueue`, and the
    // server's replenishment re-files it one period later. One
    // iteration is that pair, at the queue length a single core sees
    // (24 or 96 VCPUs over 4 cores): peek the head, remove it, and
    // re-insert it with its deadline advanced by its period.
    use vc2m::model::SimTime;
    use vc2m::sched::edf::{EdfKey, ReadyQueue};
    for per_core in [6usize, 24] {
        run_batched(
            &format!("edf_pick_{per_core}_per_core"),
            10_000,
            || {
                let mut q = ReadyQueue::with_capacity(per_core);
                for i in 0..per_core {
                    q.insert(EdfKey::new(SimTime::from_ms(10.0 + i as f64), 10_000_000, i));
                }
                q
            },
            |q| {
                let head = *q.peek().expect("non-empty");
                q.remove(&head);
                q.insert(EdfKey::new(
                    head.deadline + SimDuration(head.period_ns),
                    head.period_ns,
                    head.index,
                ));
            },
        );
    }
}

fn main() {
    println!("table2: scheduler overhead at 24 and 96 VCPUs");
    bench_simulated_second();
    bench_scheduling_decision();
}
