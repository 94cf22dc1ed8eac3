//! Shared helpers for the vC²M benchmark harness.
//!
//! The harness regenerates every table and figure of the paper's
//! evaluation:
//!
//! | paper artifact | bench target | driver binary |
//! |----------------|-----------------|---------------|
//! | Table 1 (regulator overhead) | `table1_regulator` | `table1` |
//! | Table 2 (scheduler overhead, 24/96 VCPUs) | `table2_scheduler` | `table2` |
//! | §3.3 isolation study | — | `isolation_study` |
//! | Figure 2(a–c) (schedulability per platform) | — | `fig2 -- a\|b\|c [--full]` |
//! | Figure 3(a–c) (bimodal distributions) | — | `fig3 -- light\|medium\|heavy [--full]` |
//! | Figure 4 (analysis running time) | `fig4_runtime` | `fig4 [--full]` |
//! | design-choice ablations | `ablation` | — |
//!
//! Binaries print the paper-style table and drop a CSV under
//! `results/`. `--full` switches from the quick preset to the paper's
//! full experimental scale (50 tasksets per point, step 0.05).

pub mod timing;

use std::fs;
use std::path::PathBuf;
use vc2m::alloc::{CoreAssignment, SystemAllocation};
use vc2m::hypervisor::SimReport;
use vc2m::model::{
    Alloc, BudgetSurface, Platform, Task, TaskId, TaskSet, VcpuId, VcpuSpec, VmId, WcetSurface,
};

/// Builds a synthetic system with `vcpu_count` single-task VCPUs
/// spread over the platform's cores — the configuration of the paper's
/// Table 2 (24 and 96 VCPUs).
///
/// Each VCPU has period 10 ms and a light budget so all cores stay
/// schedulable, keeping the scheduler permanently busy with
/// replenishments, decisions and context switches.
///
/// # Panics
///
/// Panics if `vcpu_count` is zero.
pub fn scheduler_stress_system(
    platform: &Platform,
    vcpu_count: usize,
) -> (SystemAllocation, TaskSet) {
    assert!(vcpu_count > 0, "need at least one vcpu");
    let space = platform.resources();
    let cores = platform.cores();
    // Keep each core's total utilization at ~0.9 regardless of count.
    let per_vcpu_budget = (9.0 * cores as f64 / vcpu_count as f64).min(9.0);

    let mut tasks = TaskSet::new();
    let mut vcpus = Vec::with_capacity(vcpu_count);
    for i in 0..vcpu_count {
        tasks.push(
            Task::new(
                TaskId(i),
                10.0,
                WcetSurface::flat(&space, per_vcpu_budget).expect("valid surface"),
            )
            .expect("valid task"),
        );
        vcpus.push(
            VcpuSpec::new(
                VcpuId(i),
                VmId(0),
                10.0,
                BudgetSurface::flat(&space, per_vcpu_budget).expect("valid surface"),
                vec![TaskId(i)],
            )
            .expect("valid vcpu"),
        );
    }
    let per_core_cache = space.cache_max() / cores as u32;
    let per_core_bw = space.bw_max() / cores as u32;
    let assignments = (0..cores)
        .map(|k| CoreAssignment {
            vcpus: (0..vcpu_count).filter(|i| i % cores == k).collect(),
            alloc: Alloc::new(per_core_cache, per_core_bw),
        })
        .collect();
    (SystemAllocation::new(vcpus, assignments), tasks)
}

/// Whether `--full` was passed (paper-scale experiments).
pub fn full_scale_requested() -> bool {
    std::env::args().any(|a| a == "--full")
}

/// The first non-flag CLI argument, lowercased.
pub fn first_arg() -> Option<String> {
    std::env::args()
        .skip(1)
        .find(|a| !a.starts_with("--"))
        .map(|a| a.to_lowercase())
}

/// Writes `contents` to `results/<name>` (created on demand) and
/// returns the path.
///
/// # Panics
///
/// Panics if the file cannot be written — experiment results must not
/// be silently lost.
pub fn write_results(name: &str, contents: &str) -> PathBuf {
    let dir = PathBuf::from("results");
    fs::create_dir_all(&dir).expect("create results directory");
    let path = dir.join(name);
    fs::write(&path, contents).expect("write results file");
    path
}

/// Formats a `MinAvgMax` as the paper's `min | avg | max` row cells.
pub fn stat_cells(stats: Option<&vc2m::simcore::MinAvgMax>) -> (f64, f64, f64) {
    match stats {
        Some(s) => (
            s.min().unwrap_or(f64::NAN),
            s.avg().unwrap_or(f64::NAN),
            s.max().unwrap_or(f64::NAN),
        ),
        None => (f64::NAN, f64::NAN, f64::NAN),
    }
}

/// Checks that the run timed every handler it invoked, so a table
/// never prints NaN for a handler that ran.
///
/// # Errors
///
/// Names the first invoked handler without durations: the run was
/// built without
/// [`SimConfig::with_handler_timing`](vc2m::hypervisor::SimConfig::with_handler_timing).
pub fn require_handler_timing(report: &SimReport) -> Result<(), String> {
    match report
        .handler_overheads
        .iter()
        .find(|(_, stats)| stats.timing().is_none())
    {
        Some((kind, stats)) => Err(format!(
            "handler \"{kind}\" ran {} times untimed; build the run with \
             SimConfig::with_handler_timing(true)",
            stats.count()
        )),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stress_system_is_valid_and_schedulable() {
        let platform = Platform::platform_a();
        for count in [24, 96] {
            let (allocation, tasks) = scheduler_stress_system(&platform, count);
            allocation.verify(&platform).expect("valid allocation");
            assert_eq!(allocation.vcpus().len(), count);
            assert_eq!(tasks.len(), count);
            for k in 0..allocation.cores_used() {
                let u = allocation.core_utilization(k);
                assert!(u <= 1.0 + 1e-9, "core {k} overloaded: {u}");
                assert!(u > 0.5, "core {k} underloaded: {u}");
            }
        }
    }

    #[test]
    fn untimed_handlers_are_refused() {
        use vc2m::hypervisor::{HandlerKind, HandlerStats};
        let mut report = SimReport::default();
        assert_eq!(require_handler_timing(&report), Ok(()));
        report.handler_overheads.insert(
            HandlerKind::Scheduling,
            HandlerStats::timed([1.0, 3.0].into_iter().collect()),
        );
        assert_eq!(require_handler_timing(&report), Ok(()));
        report
            .handler_overheads
            .insert(HandlerKind::ContextSwitch, HandlerStats::untimed(7));
        let err = require_handler_timing(&report).unwrap_err();
        assert!(
            err.contains("Context switching") && err.contains("7 times"),
            "{err}"
        );
    }

    #[test]
    fn stat_cells_handles_missing() {
        let (min, avg, max) = stat_cells(None);
        assert!(min.is_nan() && avg.is_nan() && max.is_nan());
        let stats: vc2m::simcore::MinAvgMax = [1.0, 3.0].into_iter().collect();
        assert_eq!(stat_cells(Some(&stats)), (1.0, 2.0, 3.0));
    }
}
