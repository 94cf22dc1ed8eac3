//! VM-level resource allocation: tasks → VCPUs (Section 4.2).
//!
//! Two packing disciplines are provided:
//!
//! * [`clustered`] — the vC²M heuristic: k-means over task slowdown
//!   vectors groups tasks with similar cache/bandwidth sensitivity, so
//!   tasks sharing a VCPU (and ultimately a core) make similar use of
//!   the resources given to that core. Each cluster receives a number
//!   of VCPUs proportional to its utilization mass, and tasks are
//!   packed worst-fit in decreasing reference utilization to balance
//!   VCPU loads.
//! * [`best_fit`] — the baseline discipline: best-fit decreasing bin
//!   packing by task utilization, capacity-1 bins, opening VCPUs as
//!   needed.
//!
//! VCPU parameters come from the selected [`VcpuSizing`] analysis.

use crate::kmeans::{kmeans, Features};
use crate::packing::{best_fit_open, sort_decreasing, Item};
use crate::AllocError;
use vc2m_analysis::{existing, regulated, AnalysisCache};
use vc2m_model::{Alloc, Surface, Task, TaskSet, VcpuId, VcpuSpec, VmSpec};
use vc2m_rng::Rng;

/// Which analysis computes a VCPU's `(Π, Θ(c,b))` from its tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VcpuSizing {
    /// Theorem 2: well-regulated VCPU, zero abstraction overhead
    /// (requires harmonic tasksets).
    OverheadFree,
    /// The periodic resource model \[13\], allocation-aware.
    Existing,
    /// The periodic resource model with worst-case WCETs (no cache,
    /// worst-case bandwidth) — the Baseline solution's assumption.
    ExistingWorstCase,
}

/// Computes one VCPU's parameters for `taskset` under `sizing`.
///
/// The existing-CSA sizings route their minimal-budget computations
/// through `cache` (bit-identical results either way; pass
/// [`AnalysisCache::disabled`] to opt out). The overhead-free sizing
/// has no budget search to memoize.
///
/// # Errors
///
/// Propagates the underlying analysis error (empty taskset,
/// non-harmonic taskset for [`VcpuSizing::OverheadFree`]).
pub fn size_vcpu(
    sizing: VcpuSizing,
    id: VcpuId,
    vm: vc2m_model::VmId,
    taskset: &TaskSet,
    cache: &AnalysisCache,
) -> Result<VcpuSpec, AllocError> {
    let vcpu = match sizing {
        VcpuSizing::OverheadFree => regulated::regulated_vcpu(id, vm, taskset)?,
        VcpuSizing::Existing => existing::existing_vcpu_cached(id, vm, taskset, cache)?,
        VcpuSizing::ExistingWorstCase => {
            existing::existing_vcpu_worst_case_cached(id, vm, taskset, cache)?
        }
    };
    Ok(vcpu)
}

/// The vC²M VM-level heuristic: clusters the VM's tasks by slowdown
/// vector into (at most) `m` groups, distributes `m` VCPUs over the
/// clusters proportionally to their reference-utilization mass, packs
/// each cluster's tasks worst-fit in decreasing reference utilization,
/// and sizes each VCPU with `sizing`.
///
/// `m` is the paper's `min(#tasks, #cores)`; VCPU ids are assigned
/// consecutively from `first_id`.
///
/// # Errors
///
/// Propagates analysis errors; `m = 0` or an empty VM is a caller bug
/// and reported as [`AllocError::Analysis`] via the empty-taskset path.
pub fn clustered<R: Rng>(
    vm: &VmSpec,
    m: usize,
    sizing: VcpuSizing,
    first_id: usize,
    cache: &AnalysisCache,
    rng: &mut R,
) -> Result<Vec<VcpuSpec>, AllocError> {
    let tasks: Vec<&Task> = vm.tasks().iter().collect();
    let m = m.min(tasks.len()).max(1);

    // Cluster by slowdown vector (batch-evaluated over the taskset).
    let features = Features::from_rows(Surface::batch_slowdown_rows(
        tasks.iter().map(|t| t.wcet_surface()),
    ));
    let clustering = kmeans(&features, m, rng);
    let clusters = clustering.members();

    // VCPU quota per non-empty cluster: proportional to utilization
    // mass by D'Hondt apportionment (no minimum — a dominant cluster
    // must receive enough VCPUs to keep each VCPU's load below one;
    // starving it for the sake of tiny clusters would manufacture
    // infeasible VCPUs).
    let non_empty: Vec<&Vec<usize>> = clusters.iter().filter(|c| !c.is_empty()).collect();
    let masses: Vec<f64> = non_empty
        .iter()
        .map(|members| {
            members
                .iter()
                .map(|&i| tasks[i].reference_utilization())
                .sum()
        })
        .collect();
    let quotas = dhondt_quotas(&masses, m);

    // Pack each quota-holding cluster worst-fit decreasing into its
    // VCPU slots; quota-zero clusters' tasks spill into the globally
    // least-loaded slot, keeping all VCPU loads similar (the paper's
    // balancing objective).
    let mut bins: Vec<Vec<usize>> = Vec::new(); // task indices per VCPU slot
    let mut loads: Vec<f64> = Vec::new();
    let mut orphans: Vec<Item> = Vec::new();
    for (members, quota) in non_empty.iter().zip(&quotas) {
        let mut items: Vec<Item> = members
            .iter()
            .map(|&i| Item::new(i, tasks[i].reference_utilization()))
            .collect();
        sort_decreasing(&mut items);
        if *quota == 0 {
            orphans.extend(items);
            continue;
        }
        let base = bins.len();
        bins.extend(std::iter::repeat_with(Vec::new).take(*quota));
        loads.extend(std::iter::repeat_n(0.0, *quota));
        for item in items {
            let slot = (base..base + quota)
                .min_by(|&a, &b| {
                    loads[a]
                        .partial_cmp(&loads[b])
                        .expect("finite")
                        .then(a.cmp(&b))
                })
                .expect("quota >= 1");
            bins[slot].push(item.id);
            loads[slot] += item.size;
        }
    }
    sort_decreasing(&mut orphans);
    for item in orphans {
        let slot = (0..bins.len())
            .min_by(|&a, &b| {
                loads[a]
                    .partial_cmp(&loads[b])
                    .expect("finite")
                    .then(a.cmp(&b))
            })
            .expect("at least one cluster has quota >= 1");
        bins[slot].push(item.id);
        loads[slot] += item.size;
    }

    let mut vcpus = Vec::new();
    for (next_id, bin) in (first_id..).zip(bins.iter().filter(|b| !b.is_empty())) {
        let group: TaskSet = bin.iter().map(|&i| tasks[i].clone()).collect();
        vcpus.push(size_vcpu(sizing, VcpuId(next_id), vm.id(), &group, cache)?);
    }
    Ok(vcpus)
}

/// D'Hondt (highest averages) apportionment of `total` units over
/// `masses`: repeatedly award a unit to the entry maximizing
/// `mass / (quota + 1)`. Zero-mass entries receive nothing.
fn dhondt_quotas(masses: &[f64], total: usize) -> Vec<usize> {
    let mut quotas = vec![0usize; masses.len()];
    if masses.iter().all(|&m| m <= 0.0) {
        // Degenerate: give everything to the first entry (callers then
        // balance by count anyway).
        if let Some(q) = quotas.first_mut() {
            *q = total;
        }
        return quotas;
    }
    for _ in 0..total {
        let (winner, _) = masses
            .iter()
            .enumerate()
            .map(|(i, &m)| (i, m / (quotas[i] + 1) as f64))
            .max_by(|(i, a), (j, b)| a.partial_cmp(b).expect("finite").then(j.cmp(i)))
            .expect("masses is non-empty");
        quotas[winner] += 1;
    }
    quotas
}

/// The baseline VM-level discipline: best-fit decreasing bin packing
/// of tasks into capacity-1 VCPUs, measuring each task by its
/// utilization at `packing_alloc` (the Baseline uses the worst-case
/// corner; Evenly-partition uses the even per-core allocation). Each
/// resulting VCPU is sized with `sizing`.
///
/// # Errors
///
/// Propagates analysis errors from VCPU sizing.
pub fn best_fit(
    vm: &VmSpec,
    sizing: VcpuSizing,
    packing_alloc: Alloc,
    first_id: usize,
    cache: &AnalysisCache,
) -> Result<Vec<VcpuSpec>, AllocError> {
    let tasks: Vec<&Task> = vm.tasks().iter().collect();
    let mut items: Vec<Item> = tasks
        .iter()
        .enumerate()
        .map(|(i, t)| Item::new(i, t.utilization(packing_alloc)))
        .collect();
    sort_decreasing(&mut items);
    let bins = best_fit_open(&items);
    let mut vcpus = Vec::new();
    for (offset, bin) in bins.iter().filter(|b| !b.is_empty()).enumerate() {
        let group: TaskSet = bin.iter().map(|&i| tasks[i].clone()).collect();
        vcpus.push(size_vcpu(
            sizing,
            VcpuId(first_id + offset),
            vm.id(),
            &group,
            cache,
        )?);
    }
    Ok(vcpus)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc2m_rng::DetRng;
    use vc2m_model::{Platform, ResourceSpace, TaskId, VmId, WcetSurface};

    fn space() -> ResourceSpace {
        Platform::platform_a().resources()
    }

    fn flat_task(id: usize, period: f64, wcet: f64) -> Task {
        Task::new(
            TaskId(id),
            period,
            WcetSurface::flat(&space(), wcet).unwrap(),
        )
        .unwrap()
    }

    /// A task whose WCET scales with cache sensitivity `gain`.
    fn sensitive_task(id: usize, period: f64, wcet: f64, gain: f64) -> Task {
        let surface = WcetSurface::from_fn(&space(), |a| {
            wcet * (1.0 + gain * (20.0 - f64::from(a.cache)) / 18.0)
        })
        .unwrap();
        Task::new(TaskId(id), period, surface).unwrap()
    }

    fn vm(tasks: Vec<Task>) -> VmSpec {
        VmSpec::new(VmId(0), tasks.into_iter().collect()).unwrap()
    }

    #[test]
    fn dhondt_quotas_are_proportional_without_minimums() {
        assert_eq!(dhondt_quotas(&[1.0, 1.0], 4), vec![2, 2]);
        assert_eq!(dhondt_quotas(&[3.0, 1.0], 4), vec![3, 1]);
        // A dominant cluster takes nearly everything; tiny clusters can
        // end up with zero (their tasks spill into other VCPUs).
        let q = dhondt_quotas(&[1.05, 0.056, 0.082, 0.258], 4);
        assert_eq!(q.iter().sum::<usize>(), 4);
        assert!(q[0] >= 3, "dominant cluster was starved: {q:?}");
        let q = dhondt_quotas(&[0.0, 0.0], 5);
        assert_eq!(q.iter().sum::<usize>(), 5);
    }

    #[test]
    fn heavy_cluster_never_yields_an_infeasible_vcpu() {
        // 11 similar heavy tasks + 3 light oddballs, m = 4: the old
        // min-one-per-cluster policy gave the heavy cluster a single
        // VCPU with utilization > 1.
        let mut tasks: Vec<Task> = (0..11)
            .map(|i| sensitive_task(i, 100.0, 10.0, 2.0))
            .collect();
        tasks.extend((11..14).map(|i| sensitive_task(i, 200.0, 4.0, 0.05)));
        let vm = vm(tasks);
        let mut rng = DetRng::seed_from_u64(4);
        let vcpus = clustered(&vm, 4, VcpuSizing::OverheadFree, 0, &AnalysisCache::disabled(), &mut rng).unwrap();
        for v in &vcpus {
            assert!(
                v.reference_utilization() <= 1.0 + 1e-9,
                "vcpu with reference utilization {} is infeasible",
                v.reference_utilization()
            );
        }
    }

    #[test]
    fn clustered_covers_all_tasks_once() {
        let tasks: Vec<Task> = (0..8)
            .map(|i| sensitive_task(i, 100.0, 10.0, if i < 4 { 0.1 } else { 2.0 }))
            .collect();
        let vm = vm(tasks);
        let mut rng = DetRng::seed_from_u64(3);
        let vcpus = clustered(&vm, 4, VcpuSizing::OverheadFree, 0, &AnalysisCache::disabled(), &mut rng).unwrap();
        assert!(!vcpus.is_empty() && vcpus.len() <= 4);
        let mut covered: Vec<usize> = vcpus
            .iter()
            .flat_map(|v| v.tasks().iter().map(|t| t.index()))
            .collect();
        covered.sort_unstable();
        assert_eq!(covered, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn clustered_separates_sensitivity_groups() {
        // 4 cache-insensitive + 4 strongly sensitive tasks, 2 VCPUs:
        // clustering should not mix the groups.
        let tasks: Vec<Task> = (0..8)
            .map(|i| sensitive_task(i, 100.0, 10.0, if i < 4 { 0.05 } else { 2.5 }))
            .collect();
        let vm = vm(tasks);
        let mut rng = DetRng::seed_from_u64(9);
        let vcpus = clustered(&vm, 2, VcpuSizing::OverheadFree, 0, &AnalysisCache::disabled(), &mut rng).unwrap();
        assert_eq!(vcpus.len(), 2);
        for v in &vcpus {
            let groups: std::collections::HashSet<bool> =
                v.tasks().iter().map(|t| t.index() < 4).collect();
            assert_eq!(groups.len(), 1, "vcpu mixes sensitivity groups");
        }
    }

    #[test]
    fn clustered_balances_loads() {
        // Homogeneous tasks: with m=2 the two VCPUs should carry equal
        // load.
        let tasks: Vec<Task> = (0..6).map(|i| flat_task(i, 100.0, 10.0)).collect();
        let vm = vm(tasks);
        let mut rng = DetRng::seed_from_u64(1);
        let vcpus = clustered(&vm, 2, VcpuSizing::OverheadFree, 0, &AnalysisCache::disabled(), &mut rng).unwrap();
        assert_eq!(vcpus.len(), 2);
        let u0 = vcpus[0].reference_utilization();
        let u1 = vcpus[1].reference_utilization();
        assert!((u0 - u1).abs() < 1e-9, "u0={u0}, u1={u1}");
    }

    #[test]
    fn clustered_m_capped_by_task_count() {
        let vm = vm(vec![flat_task(0, 100.0, 10.0)]);
        let mut rng = DetRng::seed_from_u64(1);
        let vcpus = clustered(&vm, 8, VcpuSizing::OverheadFree, 0, &AnalysisCache::disabled(), &mut rng).unwrap();
        assert_eq!(vcpus.len(), 1);
    }

    #[test]
    fn vcpu_ids_consecutive_from_first_id() {
        let tasks: Vec<Task> = (0..4).map(|i| flat_task(i, 100.0, 10.0)).collect();
        let vm = vm(tasks);
        let mut rng = DetRng::seed_from_u64(1);
        let vcpus = clustered(&vm, 4, VcpuSizing::OverheadFree, 10, &AnalysisCache::disabled(), &mut rng).unwrap();
        let mut ids: Vec<usize> = vcpus.iter().map(|v| v.id().index()).collect();
        ids.sort_unstable();
        assert_eq!(ids, (10..10 + vcpus.len()).collect::<Vec<_>>());
    }

    #[test]
    fn best_fit_packs_within_capacity() {
        // Utilization 0.4 each → best-fit pairs them two per VCPU.
        let tasks: Vec<Task> = (0..4).map(|i| flat_task(i, 100.0, 40.0)).collect();
        let vm = vm(tasks);
        let vcpus = best_fit(&vm, VcpuSizing::OverheadFree, space().reference(), 0, &AnalysisCache::disabled()).unwrap();
        assert_eq!(vcpus.len(), 2);
        for v in &vcpus {
            assert_eq!(v.tasks().len(), 2);
            assert!((v.reference_utilization() - 0.8).abs() < 1e-9);
        }
    }

    #[test]
    fn best_fit_worst_case_sizing_is_flat() {
        let tasks: Vec<Task> = vec![sensitive_task(0, 100.0, 10.0, 1.0)];
        let vm = vm(tasks);
        let vcpus = best_fit(&vm, VcpuSizing::ExistingWorstCase, space().minimum(), 0, &AnalysisCache::disabled()).unwrap();
        assert_eq!(vcpus.len(), 1);
        let v = &vcpus[0];
        assert_eq!(v.budget(space().minimum()), v.budget(space().reference()));
    }

    #[test]
    fn existing_sizing_carries_overhead() {
        // Compare CPU-bandwidths (budgets are not comparable across
        // different server periods): the existing analysis always pays
        // some abstraction overhead even after its period search.
        let vm = vm(vec![flat_task(0, 10.0, 1.0)]);
        let mut rng = DetRng::seed_from_u64(1);
        let of = clustered(&vm, 1, VcpuSizing::OverheadFree, 0, &AnalysisCache::disabled(), &mut rng).unwrap();
        let ex = clustered(&vm, 1, VcpuSizing::Existing, 0, &AnalysisCache::disabled(), &mut rng).unwrap();
        assert!(
            ex[0].reference_utilization() > of[0].reference_utilization() + 0.005,
            "existing {} vs overhead-free {}",
            ex[0].reference_utilization(),
            of[0].reference_utilization()
        );
    }
}
