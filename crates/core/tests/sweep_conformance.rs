//! Differential conformance for the sweep engine: the production
//! existing-CSA interface builders and whole-utilization-point (coarse
//! work unit) parallelism.
//!
//! Neither is allowed to change a single result bit. These tests prove
//! it differentially, against the unoptimized implementations as the
//! reference:
//!
//! * the existing-CSA VCPU builders ([`existing_vcpu`] and
//!   [`existing_vcpu_worst_case`]) reproduce their naive `*_reference`
//!   oracles — period and every budget cell, compared bit for bit — on
//!   generated tasksets across Platforms A/B/C and utilizations, both
//!   called directly and through each existing-CSA solution's VM level;
//! * [`run_sweep_parallel`] at 1, 2, 4 and 8 threads reproduces
//!   [`run_sweep`] cell for cell (schedulable and total counts;
//!   runtimes are wall-clock and legitimately differ);
//! * the aggregated kernel counters are thread-count independent: each
//!   point's counter delta is a pure function of the configuration,
//!   however points land on worker threads.

use vc2m::analysis::existing::{
    existing_vcpu, existing_vcpu_reference, existing_vcpu_worst_case,
    existing_vcpu_worst_case_reference,
};
use vc2m::model::{VcpuSpec, VmId, VmSpec};
use vc2m::prelude::*;
use vc2m::rng::{cases::check, DetRng, Rng};
use vc2m::sweep::{run_sweep, run_sweep_parallel, SweepConfig};

/// A sweep configuration small enough for a debug-build test but still
/// covering infeasible, contended and easy utilization points.
fn small_config() -> SweepConfig {
    let mut config = SweepConfig::quick(Platform::platform_a(), UtilizationDist::Uniform);
    config.utilizations = vec![0.4, 1.2, 2.0];
    config.tasksets_per_point = 2;
    config
}

fn generate_taskset(platform: &Platform, utilization: f64, seed: u64) -> TaskSet {
    TasksetGenerator::new(
        platform.resources(),
        TasksetConfig::new(utilization, UtilizationDist::Uniform),
        seed,
    )
    .generate()
}

/// Asserts two VM-level interfaces are bit-identical: same VCPUs, same
/// periods, and budget surfaces equal in their `f64` bits.
fn assert_interfaces_bit_identical(reference: &[VcpuSpec], optimized: &[VcpuSpec], context: &str) {
    assert_eq!(reference.len(), optimized.len(), "{context}: VCPU count");
    for (r, o) in reference.iter().zip(optimized) {
        assert_eq!(r.id(), o.id(), "{context}: id");
        assert_eq!(r.vm(), o.vm(), "{context}: vm");
        assert_eq!(
            r.period().to_bits(),
            o.period().to_bits(),
            "{context}: period bits of {:?}",
            r.id()
        );
        assert_eq!(r.tasks(), o.tasks(), "{context}: task assignment");
        let rb: Vec<(vc2m::model::Alloc, f64)> = r.budget_surface().iter().collect();
        let ob: Vec<(vc2m::model::Alloc, f64)> = o.budget_surface().iter().collect();
        assert_eq!(rb.len(), ob.len(), "{context}: surface size");
        for ((alloc, a), (_, b)) in rb.iter().zip(&ob) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{context}: budget bits of {:?} at {alloc:?} ({a} vs {b})",
                r.id()
            );
        }
    }
}

/// Builds `taskset` with both existing-CSA builders and their naive
/// oracles, and asserts each pair bit-identical.
fn assert_builders_match_reference(taskset: &TaskSet, context: &str) {
    let fast = existing_vcpu(VcpuId(0), VmId(0), taskset).expect("non-empty taskset");
    let reference = existing_vcpu_reference(VcpuId(0), VmId(0), taskset).expect("non-empty");
    assert_interfaces_bit_identical(&[reference], &[fast], &format!("{context} (aware)"));
    let fast = existing_vcpu_worst_case(VcpuId(0), VmId(0), taskset).expect("non-empty taskset");
    let reference =
        existing_vcpu_worst_case_reference(VcpuId(0), VmId(0), taskset).expect("non-empty");
    assert_interfaces_bit_identical(&[reference], &[fast], &format!("{context} (worst case)"));
}

#[test]
fn existing_builders_match_reference_on_generated_tasksets() {
    let platforms = [
        Platform::platform_a(),
        Platform::platform_b(),
        Platform::platform_c(),
    ];
    check(64, |rng| {
        let platform = &platforms[rng.gen_range(0..platforms.len())];
        let utilization = [0.3, 0.6, 1.0, 1.4, 1.8][rng.gen_range(0usize..5)];
        let seed = rng.next_u64();
        let taskset = generate_taskset(platform, utilization, seed);
        let context = format!("{platform} u={utilization} seed={seed:#x}");
        assert_builders_match_reference(&taskset, &context);
        // A random non-empty sub-taskset: the per-VCPU groups the VM
        // level actually sizes are subsets, mostly feasible ones.
        let mut subset: TaskSet = taskset
            .iter()
            .filter(|_| rng.gen_bool(0.5))
            .cloned()
            .collect();
        if subset.is_empty() {
            subset = taskset.iter().take(1).cloned().collect();
        }
        assert_builders_match_reference(&subset, &format!("{context} subset"));
    });
}

#[test]
fn vm_level_existing_interfaces_match_reference() {
    // Every VCPU the existing-CSA solutions size through their VM level
    // must equal the naive oracle rebuilt from the same task group.
    let platform = Platform::platform_a();
    for &(utilization, seed) in &[(0.5, 7u64), (1.0, 42), (1.6, 1234)] {
        let vm = VmSpec::new(VmId(0), generate_taskset(&platform, utilization, seed))
            .expect("non-empty taskset");
        for solution in [Solution::HeuristicExisting, Solution::Baseline] {
            let mut rng = DetRng::seed_from_u64(seed);
            let produced = solution
                .vm_level(std::slice::from_ref(&vm), &platform, &mut rng)
                .expect("existing-CSA analysis accepts any taskset");
            let reference: Vec<VcpuSpec> = produced
                .iter()
                .map(|v| {
                    let group: TaskSet = v
                        .tasks()
                        .iter()
                        .map(|id| {
                            vm.tasks()
                                .iter()
                                .find(|t| t.id() == *id)
                                .expect("VCPU tasks come from the VM")
                                .clone()
                        })
                        .collect();
                    match solution {
                        Solution::Baseline => {
                            existing_vcpu_worst_case_reference(v.id(), v.vm(), &group)
                        }
                        _ => existing_vcpu_reference(v.id(), v.vm(), &group),
                    }
                    .expect("non-empty group")
                })
                .collect();
            let context = format!("{solution:?} at u={utilization} seed={seed}");
            assert_interfaces_bit_identical(&reference, &produced, &context);
        }
    }
}

/// Cell-for-cell equality of two sweeps: utilizations, schedulable
/// counts and totals (runtime is wall-clock and may differ).
fn assert_sweeps_equal(reference: &vc2m::sweep::SweepResults, other: &vc2m::sweep::SweepResults, context: &str) {
    assert_eq!(reference.solutions(), other.solutions(), "{context}: solutions");
    assert_eq!(reference.rows().len(), other.rows().len(), "{context}: rows");
    for (row, (r, o)) in reference.rows().iter().zip(other.rows()).enumerate() {
        assert_eq!(
            r.utilization.to_bits(),
            o.utilization.to_bits(),
            "{context}: row {row} utilization"
        );
        assert_eq!(r.cells.len(), o.cells.len(), "{context}: row {row} width");
        for (col, (rc, oc)) in r.cells.iter().zip(&o.cells).enumerate() {
            assert_eq!(
                (rc.schedulable, rc.total),
                (oc.schedulable, oc.total),
                "{context}: cell ({row}, {col})"
            );
        }
    }
    // The rendered artifact the figures are built from must also agree.
    assert_eq!(reference.fractions_csv(), other.fractions_csv(), "{context}: csv");
}

#[test]
fn parallel_sweep_matches_serial_at_every_thread_count() {
    let config = small_config();
    let serial = run_sweep(&config);
    for threads in [1, 2, 8] {
        let parallel = run_sweep_parallel(&config, threads, |_, _| {});
        assert_sweeps_equal(&serial, &parallel, &format!("{threads} threads"));
    }
}

#[test]
fn parallel_cached_sweep_matches_serial_uncached() {
    // The name predates the retired analysis cache; with one analysis
    // path left, this pins the multi-threaded driver at 4 workers (an
    // uneven split of the 3 utilization points) against the serial
    // reference.
    let config = small_config();
    let reference = run_sweep(&config);
    let optimized = run_sweep_parallel(&config, 4, |_, _| {});
    assert_sweeps_equal(&reference, &optimized, "parallel, 4 threads");
}

#[test]
fn aggregated_telemetry_is_thread_count_independent() {
    // Each point's KernelCounters delta depends only on the
    // configuration and the point index — never on which worker thread
    // processed it or on what ran before it on that thread. The
    // order-independent merge then makes the aggregated totals equal
    // across every thread count, including the serial driver.
    let config = small_config();
    let serial = run_sweep(&config);
    assert!(serial.kernel_stats().vcpu_builds > 0, "no VCPUs built");
    for threads in [1, 2, 8] {
        let parallel = run_sweep_parallel(&config, threads, |_, _| {});
        assert_eq!(
            serial.kernel_stats(),
            parallel.kernel_stats(),
            "kernel counters drifted at {threads} threads"
        );
    }
}
