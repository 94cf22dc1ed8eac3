//! The five evaluated solutions (Section 5) as a single entry point.

use crate::hypervisor_level::{evenly_partitioned, heuristic, HeuristicConfig};
use crate::result::{AllocationOutcome, SystemAllocation};
use crate::vm_level::{self, VcpuSizing};
use crate::AllocError;
use std::fmt;
use vc2m_analysis::flattening;
use vc2m_model::{Alloc, Platform, VcpuSpec, VmSpec};
use vc2m_rng::DetRng;

/// One of the five solutions compared in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Solution {
    /// *Heuristic (flattening)*: vC²M with one VCPU per task
    /// (Theorem 1) and the three-phase hypervisor heuristic.
    HeuristicFlattening,
    /// *Heuristic (overhead-free CSA)*: vC²M with well-regulated VCPUs
    /// (Theorem 2) and the three-phase hypervisor heuristic.
    HeuristicOverheadFree,
    /// *Heuristic (existing CSA)*: the heuristic allocation with VCPU
    /// parameters from the periodic resource model \[13\].
    HeuristicExisting,
    /// *Evenly-partition (overhead-free CSA)*: well-regulated VCPUs,
    /// but cache/BW split evenly and best-fit bin packing.
    EvenlyPartition,
    /// *Baseline (existing CSA)*: periodic resource model with
    /// worst-case WCETs (no cache, worst-case bandwidth) and best-fit
    /// bin packing.
    Baseline,
    /// The deployed vC²M behavior (Section 3.1): flattening for VMs
    /// whose VCPU cap admits one VCPU per task (most practical
    /// systems), the well-regulated analysis for the rest. Not part of
    /// the paper's five evaluated solutions ([`Solution::ALL`]).
    Auto,
}

impl Solution {
    /// All five solutions, in the paper's legend order.
    pub const ALL: [Solution; 5] = [
        Solution::Baseline,
        Solution::EvenlyPartition,
        Solution::HeuristicExisting,
        Solution::HeuristicOverheadFree,
        Solution::HeuristicFlattening,
    ];

    /// The label used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Solution::HeuristicFlattening => "Heuristic (flattening)",
            Solution::HeuristicOverheadFree => "Heuristic (overhead-free CSA)",
            Solution::HeuristicExisting => "Heuristic (existing CSA)",
            Solution::EvenlyPartition => "Evenly-partition (overhead-free CSA)",
            Solution::Baseline => "Baseline (existing CSA)",
            Solution::Auto => "vC2M (auto)",
        }
    }

    /// Whether this solution uses the vC²M three-phase hypervisor
    /// heuristic (as opposed to best-fit with even resources).
    pub fn uses_heuristic_allocation(self) -> bool {
        matches!(
            self,
            Solution::HeuristicFlattening
                | Solution::HeuristicOverheadFree
                | Solution::HeuristicExisting
                | Solution::Auto
        )
    }

    /// Runs the full two-level allocation for `vms` on `platform`.
    ///
    /// Deterministic in `seed`. Workloads the solution's analysis
    /// cannot handle — a non-harmonic taskset under the overhead-free
    /// analysis, or a VM with more tasks than VCPUs under flattening —
    /// are reported as unschedulable, which matches how the paper's
    /// evaluation scores them. An empty VM list needs nothing: it gets
    /// the empty schedulable allocation.
    pub fn allocate(self, vms: &[VmSpec], platform: &Platform, seed: u64) -> AllocationOutcome {
        match self.try_allocate(vms, platform, seed) {
            Ok(outcome) => outcome,
            Err(AllocError::NoVms) => {
                AllocationOutcome::schedulable(SystemAllocation::new(Vec::new(), Vec::new()))
            }
            Err(AllocError::Analysis(_)) => AllocationOutcome::unschedulable(),
            // Invariant: `try_allocate` fails only with `NoVms` or with
            // the VM level's errors, and every VM-level routine
            // (flattening and the VCPU sizing analyses) fails with an
            // `AnalysisError`.
            #[allow(clippy::panic)]
            Err(e) => panic!("allocation failed structurally: {e}"),
        }
    }

    /// Like [`Solution::allocate`], but surfaces analysis errors
    /// instead of scoring them unschedulable.
    ///
    /// # Errors
    ///
    /// * [`AllocError::NoVms`] if `vms` is empty.
    /// * [`AllocError::Analysis`] if a VM's workload violates the
    ///   solution's analysis premise.
    pub fn try_allocate(
        self,
        vms: &[VmSpec],
        platform: &Platform,
        seed: u64,
    ) -> Result<AllocationOutcome, AllocError> {
        if vms.is_empty() {
            return Err(AllocError::NoVms);
        }
        let mut rng = DetRng::seed_from_u64(seed);
        let vcpus = self.vm_level(vms, platform, &mut rng)?;
        Ok(if self.uses_heuristic_allocation() {
            heuristic(&vcpus, platform, HeuristicConfig::default(), &mut rng)
        } else {
            evenly_partitioned(&vcpus, platform)
        })
    }

    /// Runs only the VM level: tasks → VCPUs with computed parameters.
    ///
    /// # Errors
    ///
    /// Propagates VM-level analysis errors.
    pub fn vm_level(
        self,
        vms: &[VmSpec],
        platform: &Platform,
        rng: &mut DetRng,
    ) -> Result<Vec<VcpuSpec>, AllocError> {
        let mut vcpus = Vec::new();
        self.vm_level_into(vms, platform, rng, 0, &mut vcpus)?;
        Ok(vcpus)
    }

    /// Runs the VM level for `vms` and appends their VCPUs to `out`,
    /// numbered consecutively from `first_id`: the VCPUs
    /// [`Solution::vm_level`] returns, with every id shifted by
    /// `first_id`. On an error, `out` may hold the VCPUs of the VMs
    /// before the failing one.
    pub(crate) fn vm_level_into(
        self,
        vms: &[VmSpec],
        platform: &Platform,
        rng: &mut DetRng,
        first_id: usize,
        out: &mut Vec<VcpuSpec>,
    ) -> Result<(), AllocError> {
        let even = even_alloc(platform);
        let start = out.len();
        for vm in vms {
            let first_id = first_id + (out.len() - start);
            let produced = match self {
                Solution::HeuristicFlattening => flattening::flatten_vm(vm, first_id)?,
                Solution::HeuristicOverheadFree => vm_level::clustered(
                    vm,
                    vm.tasks().len().min(platform.cores()),
                    VcpuSizing::OverheadFree,
                    first_id,
                    rng,
                )?,
                Solution::HeuristicExisting => vm_level::clustered(
                    vm,
                    vm.tasks().len().min(platform.cores()),
                    VcpuSizing::Existing,
                    first_id,
                    rng,
                )?,
                Solution::EvenlyPartition => {
                    vm_level::best_fit(vm, VcpuSizing::OverheadFree, even, first_id)?
                }
                Solution::Baseline => vm_level::best_fit(
                    vm,
                    VcpuSizing::ExistingWorstCase,
                    platform.resources().minimum(),
                    first_id,
                )?,
                // Per-VM strategy choice: the direct mapping when the
                // VCPU cap allows it, the well-regulated fallback
                // otherwise (Section 3.1's two insights combined).
                Solution::Auto => {
                    if vm.supports_flattening() {
                        flattening::flatten_vm(vm, first_id)?
                    } else {
                        vm_level::clustered(
                            vm,
                            vm.max_vcpus().min(platform.cores()),
                            VcpuSizing::OverheadFree,
                            first_id,
                            rng,
                        )?
                    }
                }
            };
            out.extend(produced);
        }
        Ok(())
    }
}

/// The even per-core allocation the Evenly-partition solution uses.
fn even_alloc(platform: &Platform) -> Alloc {
    let space = platform.resources();
    let m = platform.max_usable_cores().max(1) as u32;
    Alloc::new(
        (space.cache_max() / m).max(space.cache_min()),
        (space.bw_max() / m).max(space.bw_min()),
    )
}

impl fmt::Display for Solution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc2m_model::{Task, TaskId, TaskSet, VmId, WcetSurface};

    fn flat_vm(n: usize, period: f64, wcet: f64) -> VmSpec {
        let space = Platform::platform_a().resources();
        let tasks: TaskSet = (0..n)
            .map(|i| {
                Task::new(TaskId(i), period, WcetSurface::flat(&space, wcet).unwrap()).unwrap()
            })
            .collect();
        VmSpec::new(VmId(0), tasks).unwrap()
    }

    #[test]
    fn all_solutions_handle_a_light_workload() {
        let platform = Platform::platform_a();
        let vms = vec![flat_vm(4, 100.0, 10.0)]; // total utilization 0.4
        for solution in Solution::ALL {
            let outcome = solution.allocate(&vms, &platform, 1);
            assert!(
                outcome.is_schedulable(),
                "{solution} failed a trivially light workload"
            );
            outcome.allocation().unwrap().verify(&platform).unwrap();
        }
    }

    #[test]
    fn no_solution_schedules_an_impossible_workload() {
        let platform = Platform::platform_a();
        // Reference utilization 5.0 > 4 cores.
        let vms = vec![flat_vm(10, 100.0, 50.0)];
        for solution in Solution::ALL {
            assert!(
                !solution.allocate(&vms, &platform, 1).is_schedulable(),
                "{solution} schedules > M utilization"
            );
        }
    }

    #[test]
    fn flattening_beats_baseline_on_cache_sensitive_tasks() {
        // 20 tasks of reference utilization 0.1 whose WCET is 2.33×
        // worse without cache. vC²M grants each core the 4 partitions
        // that restore the reference WCET and schedules all of them;
        // the baseline assumes no cache (utilization 0.233 per task →
        // total 4.67 > 4 cores) and gives up.
        let platform = Platform::platform_a();
        let space = platform.resources();
        let surface = WcetSurface::from_fn(&space, |a| {
            1.0 + 2.0 * ((4.0 - f64::from(a.cache)) / 3.0).max(0.0)
        })
        .unwrap();
        let tasks: TaskSet = (0..20)
            .map(|i| Task::new(TaskId(i), 10.0, surface.clone()).unwrap())
            .collect();
        let heavy = vec![VmSpec::new(VmId(0), tasks).unwrap()]; // reference utilization 2.0
        assert!(Solution::HeuristicFlattening
            .allocate(&heavy, &platform, 1)
            .is_schedulable());
        assert!(Solution::HeuristicOverheadFree
            .allocate(&heavy, &platform, 1)
            .is_schedulable());
        assert!(!Solution::Baseline
            .allocate(&heavy, &platform, 1)
            .is_schedulable());
    }

    #[test]
    fn flattening_falls_to_unschedulable_when_vcpu_cap_too_small() {
        let platform = Platform::platform_a();
        let space = platform.resources();
        let tasks: TaskSet = (0..4)
            .map(|i| Task::new(TaskId(i), 100.0, WcetSurface::flat(&space, 10.0).unwrap()).unwrap())
            .collect();
        let vm = VmSpec::with_max_vcpus(VmId(0), tasks, 2).unwrap();
        let outcome =
            Solution::HeuristicFlattening.allocate(std::slice::from_ref(&vm), &platform, 1);
        assert!(!outcome.is_schedulable());
        // try_allocate surfaces the reason.
        assert!(matches!(
            Solution::HeuristicFlattening.try_allocate(&[vm], &platform, 1),
            Err(AllocError::Analysis(_))
        ));
        // The overhead-free analysis handles the same VM fine.
    }

    #[test]
    fn overhead_free_handles_capped_vms() {
        let platform = Platform::platform_a();
        let space = platform.resources();
        let tasks: TaskSet = (0..4)
            .map(|i| Task::new(TaskId(i), 100.0, WcetSurface::flat(&space, 10.0).unwrap()).unwrap())
            .collect();
        let vm = VmSpec::with_max_vcpus(VmId(0), tasks, 2).unwrap();
        // Note: the clustered VM level produces min(tasks, cores) VCPUs,
        // which may exceed the cap; Theorem 2 exists precisely for this
        // case, packing all tasks onto fewer VCPUs. Here 4 tasks → up
        // to 4 VCPUs but the analysis succeeds regardless of cap since
        // clustering can fold tasks together.
        let outcome = Solution::HeuristicOverheadFree.allocate(&[vm], &platform, 1);
        assert!(outcome.is_schedulable());
    }

    #[test]
    fn empty_vm_list_is_an_error() {
        assert!(matches!(
            Solution::Baseline.try_allocate(&[], &Platform::platform_a(), 1),
            Err(AllocError::NoVms)
        ));
    }

    #[test]
    fn allocating_no_vms_gives_the_empty_schedulable_allocation() {
        let platform = Platform::platform_a();
        for solution in Solution::ALL.into_iter().chain([Solution::Auto]) {
            let outcome = solution.allocate(&[], &platform, 1);
            let allocation = outcome.allocation().expect("nothing to schedule");
            assert_eq!(allocation.cores_used(), 0, "{solution}");
            assert!(allocation.vcpus().is_empty(), "{solution}");
            allocation.verify(&platform).unwrap();
        }
    }

    #[test]
    fn names_match_paper_legend() {
        assert_eq!(Solution::Baseline.name(), "Baseline (existing CSA)");
        assert_eq!(
            Solution::HeuristicOverheadFree.to_string(),
            "Heuristic (overhead-free CSA)"
        );
        assert_eq!(Solution::ALL.len(), 5);
    }

    #[test]
    fn auto_flattens_when_possible_and_falls_back_when_capped() {
        let platform = Platform::platform_a();
        let space = platform.resources();
        let tasks: TaskSet = (0..6)
            .map(|i| Task::new(TaskId(i), 100.0, WcetSurface::flat(&space, 10.0).unwrap()).unwrap())
            .collect();
        // Uncapped VM: one VCPU per task.
        let open = VmSpec::new(VmId(0), tasks.clone()).unwrap();
        let mut rng = DetRng::seed_from_u64(1);
        let vcpus = Solution::Auto
            .vm_level(std::slice::from_ref(&open), &platform, &mut rng)
            .unwrap();
        assert_eq!(vcpus.len(), 6, "flattening path: one VCPU per task");
        // Capped VM (2 VCPUs for 6 tasks): the well-regulated fallback.
        let capped = VmSpec::with_max_vcpus(VmId(0), tasks, 2).unwrap();
        let mut rng = DetRng::seed_from_u64(1);
        let vcpus = Solution::Auto
            .vm_level(std::slice::from_ref(&capped), &platform, &mut rng)
            .unwrap();
        assert!(
            vcpus.len() <= 2,
            "must respect the cap, got {}",
            vcpus.len()
        );
        // And the whole pipeline still schedules it.
        assert!(Solution::Auto
            .allocate(std::slice::from_ref(&capped), &platform, 1)
            .is_schedulable());
    }

    #[test]
    fn auto_matches_flattening_on_uncapped_workloads() {
        let platform = Platform::platform_a();
        let vms = vec![flat_vm(5, 100.0, 15.0)];
        let auto = Solution::Auto.allocate(&vms, &platform, 3);
        let flat = Solution::HeuristicFlattening.allocate(&vms, &platform, 3);
        assert_eq!(
            auto, flat,
            "uncapped VMs take the identical flattening path"
        );
    }

    #[test]
    fn determinism() {
        let platform = Platform::platform_a();
        let vms = vec![flat_vm(6, 100.0, 20.0)];
        for solution in Solution::ALL {
            let a = solution.allocate(&vms, &platform, 99);
            let b = solution.allocate(&vms, &platform, 99);
            assert_eq!(a, b, "{solution} is not deterministic");
        }
    }
}
