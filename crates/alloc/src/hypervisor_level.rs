//! Hypervisor-level resource allocation: VCPUs → cores, and cache/BW
//! partitions → cores (Section 4.3).
//!
//! The vC²M heuristic ([`heuristic`]) tries increasing core counts
//! `m = 1..M`. For each `m` it clusters VCPUs by slowdown vector and
//! repeats three phases until the system is schedulable or an
//! iteration cap is hit:
//!
//! * **Phase 1 (packing)** — a random permutation of the clusters is
//!   packed, cluster by cluster, worst-fit in decreasing reference
//!   utilization, keeping core loads balanced;
//! * **Phase 2 (resource allocation)** — every core starts at
//!   `(Cmin, Bmin)`; while some core fails the schedulability test,
//!   the spare partition (cache or bandwidth) giving the largest
//!   utilization reduction on an unschedulable core is assigned; the
//!   phase fails when no partition helps ("no impact on utilization")
//!   or the pools run dry;
//! * **Phase 3 (load balancing)** — VCPUs migrate from unschedulable
//!   cores to the schedulable core that will have the smallest
//!   utilization after the migration; then Phase 2 re-runs.
//!
//! The baseline discipline ([`evenly_partitioned`]) splits cache and
//! bandwidth evenly over all cores and packs VCPUs best-fit decreasing.

use crate::kmeans::{kmeans, Features};
use crate::packing::{best_fit_open, sort_decreasing, Item};
use crate::result::{AllocationOutcome, CoreAssignment, SystemAllocation};
use vc2m_analysis::core_check::{core_schedulable, core_utilization, UTILIZATION_EPS};
use vc2m_model::{Alloc, Platform, ResourceSpace, Surface, VcpuSpec};
use vc2m_rng::Rng;

/// Tuning knobs of the three-phase heuristic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeuristicConfig {
    /// Phase-1 restarts per core count (random cluster permutations).
    pub max_permutations: usize,
    /// Phase-3 ↔ Phase-2 rounds per packing.
    pub max_balance_rounds: usize,
}

impl Default for HeuristicConfig {
    /// 10 permutations × 4 balance rounds, a good cost/quality
    /// trade-off in our experiments.
    fn default() -> Self {
        HeuristicConfig {
            max_permutations: 10,
            max_balance_rounds: 4,
        }
    }
}

/// The vC²M hypervisor-level heuristic.
///
/// Returns a schedulable [`SystemAllocation`] (using the fewest cores
/// the heuristic could make work) or an unschedulable outcome.
pub fn heuristic<R: Rng>(
    vcpus: Vec<VcpuSpec>,
    platform: &Platform,
    config: HeuristicConfig,
    rng: &mut R,
) -> AllocationOutcome {
    if vcpus.is_empty() {
        return AllocationOutcome::schedulable(SystemAllocation::new(vcpus, Vec::new()));
    }
    let space = platform.resources();
    let reference_total: f64 = vcpus.iter().map(|v| v.utilization(space.reference())).sum();

    // Features are computed once; only the cluster count depends on m.
    let features = Features::from_rows(Surface::batch_slowdown_rows(
        vcpus.iter().map(|v| v.budget_surface()),
    ));

    for m in 1..=platform.max_usable_cores() {
        // Necessary condition: even with all resources, total
        // utilization cannot exceed m.
        if reference_total > m as f64 + UTILIZATION_EPS {
            continue;
        }
        let k = m.min(vcpus.len());
        let clusters = kmeans(&features, k, rng).members();
        if let Ok(allocation) = search_core_count(&vcpus, &clusters, platform, m, config, rng) {
            return AllocationOutcome::schedulable(allocation);
        }
    }
    AllocationOutcome::unschedulable()
}

/// Phases 1–3 at core count `m`: `config.max_permutations` random
/// cluster orders, each packed and then refined by Phase-2/3 rounds.
///
/// Every permutation draws its shuffle, but Phases 2 and 3 are a pure
/// function of the packing and draw nothing, so a packing that already
/// failed at this `m` is skipped: it would fail the same way again.
/// Returns the first schedulable allocation, or the number of distinct
/// packings that failed.
fn search_core_count<R: Rng>(
    vcpus: &[VcpuSpec],
    clusters: &[Vec<usize>],
    platform: &Platform,
    m: usize,
    config: HeuristicConfig,
    rng: &mut R,
) -> Result<SystemAllocation, usize> {
    let mut failed: Vec<Vec<Vec<usize>>> = Vec::new();
    for _ in 0..config.max_permutations {
        let mut order: Vec<usize> = (0..clusters.len()).collect();
        rng.shuffle(&mut order);
        let packing = pack_by_clusters(vcpus, clusters, &order, m);
        if failed.contains(&packing) {
            continue;
        }
        let mut assignment = packing.clone();
        for _ in 0..config.max_balance_rounds {
            let (allocs, schedulable) = allocate_resources(vcpus, &assignment, platform, m);
            if schedulable {
                let allocation = build(vcpus, assignment, allocs);
                debug_assert!(allocation.verify(platform).is_ok());
                return Ok(allocation);
            }
            if !balance_load(vcpus, &mut assignment, &allocs) {
                break; // no benefit in balancing: new permutation
            }
        }
        failed.push(packing);
    }
    Err(failed.len())
}

/// Phase 1: packs clusters (in `order`) onto `m` cores, worst-fit in
/// decreasing reference utilization, with core loads carried across
/// clusters.
fn pack_by_clusters(
    vcpus: &[VcpuSpec],
    clusters: &[Vec<usize>],
    order: &[usize],
    m: usize,
) -> Vec<Vec<usize>> {
    let mut cores: Vec<Vec<usize>> = vec![Vec::new(); m];
    let mut loads = vec![0.0f64; m];
    for &cluster in order {
        let mut items: Vec<Item> = clusters[cluster]
            .iter()
            .map(|&i| Item::new(i, vcpus[i].reference_utilization()))
            .collect();
        sort_decreasing(&mut items);
        for item in items {
            let (best, _) = loads
                .iter()
                .enumerate()
                .min_by(|(i, a), (j, b)| a.partial_cmp(b).expect("loads are finite").then(i.cmp(j)))
                .expect("m >= 1");
            cores[best].push(item.id);
            loads[best] += item.size;
        }
    }
    cores
}

/// Phase-2 view of one core at its current allocation: whether it is
/// schedulable and, if not, the utilization one more partition of each
/// resource would save (`None` at that resource's maximum).
struct CoreState {
    schedulable: bool,
    cache_gain: Option<f64>,
    bw_gain: Option<f64>,
}

impl CoreState {
    fn of(vcpus: &[VcpuSpec], members: &[usize], alloc: Alloc, space: &ResourceSpace) -> Self {
        let on_core = || members.iter().map(|&i| &vcpus[i]);
        if core_schedulable(on_core(), alloc) {
            return CoreState {
                schedulable: true,
                cache_gain: None,
                bw_gain: None,
            };
        }
        let now = core_utilization(on_core(), alloc);
        let gain = |upgraded: Alloc| now - core_utilization(on_core(), upgraded);
        CoreState {
            schedulable: false,
            cache_gain: (alloc.cache < space.cache_max())
                .then(|| gain(Alloc::new(alloc.cache + 1, alloc.bandwidth))),
            bw_gain: (alloc.bandwidth < space.bw_max())
                .then(|| gain(Alloc::new(alloc.cache, alloc.bandwidth + 1))),
        }
    }
}

/// Phase 2: greedy marginal-utility resource allocation. Every core
/// starts at `(Cmin, Bmin)`; spare partitions go one at a time to the
/// unschedulable core with the highest utilization reduction.
///
/// A core's state depends only on its own VCPUs and allocation, so it
/// is computed once per core and then only for the core just upgraded.
/// Candidates are scanned in core order, cache before bandwidth, and a
/// later one wins only with a strictly larger gain; the pools are
/// checked at selection time.
///
/// Returns the per-core allocations and whether every core ended up
/// schedulable.
fn allocate_resources(
    vcpus: &[VcpuSpec],
    assignment: &[Vec<usize>],
    platform: &Platform,
    m: usize,
) -> (Vec<Alloc>, bool) {
    let space = platform.resources();
    let mut allocs = vec![space.minimum(); m];
    let mut cache_left = space.cache_max() - space.cache_min() * m as u32;
    let mut bw_left = space.bw_max() - space.bw_min() * m as u32;
    let mut states: Vec<CoreState> = (0..m)
        .map(|k| CoreState::of(vcpus, &assignment[k], allocs[k], &space))
        .collect();

    loop {
        let mut all_schedulable = true;
        let mut best: Option<(usize, bool, f64)> = None; // (core, is_cache, gain)
        for (k, state) in states.iter().enumerate().filter(|(_, s)| !s.schedulable) {
            all_schedulable = false;
            let candidates = [
                (true, state.cache_gain.filter(|_| cache_left > 0)),
                (false, state.bw_gain.filter(|_| bw_left > 0)),
            ];
            for (is_cache, gain) in candidates {
                if let Some(gain) = gain {
                    if best.is_none_or(|(_, _, g)| gain > g) {
                        best = Some((k, is_cache, gain));
                    }
                }
            }
        }
        if all_schedulable {
            return (allocs, true);
        }
        match best {
            Some((k, is_cache, gain)) if gain > UTILIZATION_EPS => {
                let Alloc { cache, bandwidth } = allocs[k];
                allocs[k] = if is_cache {
                    cache_left -= 1;
                    Alloc::new(cache + 1, bandwidth)
                } else {
                    bw_left -= 1;
                    Alloc::new(cache, bandwidth + 1)
                };
                states[k] = CoreState::of(vcpus, &assignment[k], allocs[k], &space);
            }
            // No spare partition has any impact on utilization.
            _ => return (allocs, false),
        }
    }
}

/// Phase 3: migrates VCPUs off unschedulable cores. For each
/// unschedulable core (largest-utilization VCPU first), the VCPU moves
/// to the schedulable core that will have the smallest utilization
/// after the migration. Returns whether anything moved.
fn balance_load(vcpus: &[VcpuSpec], assignment: &mut [Vec<usize>], allocs: &[Alloc]) -> bool {
    let m = assignment.len();
    let mut moved_any = false;
    let mut moves_left = vcpus.len(); // global guard against cycles

    for k in 0..m {
        loop {
            if moves_left == 0
                || core_schedulable(assignment[k].iter().map(|&i| &vcpus[i]), allocs[k])
                || assignment[k].is_empty()
            {
                break;
            }
            // Largest-utilization VCPU on the source core.
            let (pos, &vcpu_idx) = assignment[k]
                .iter()
                .enumerate()
                .max_by(|(_, &a), (_, &b)| {
                    vcpus[a]
                        .utilization(allocs[k])
                        .partial_cmp(&vcpus[b].utilization(allocs[k]))
                        .expect("utilizations are finite")
                })
                .expect("core is non-empty");
            // Destination: schedulable core with smallest post-move
            // utilization.
            let dest = (0..m)
                .filter(|&j| j != k)
                .filter(|&j| core_schedulable(assignment[j].iter().map(|&i| &vcpus[i]), allocs[j]))
                .map(|j| {
                    let after =
                        core_utilization(assignment[j].iter().map(|&i| &vcpus[i]), allocs[j])
                            + vcpus[vcpu_idx].utilization(allocs[j]);
                    (j, after)
                })
                .min_by(|(i, a), (j, b)| {
                    a.partial_cmp(b)
                        .expect("utilizations are finite")
                        .then(i.cmp(j))
                });
            match dest {
                Some((j, after)) if after <= 1.0 + UTILIZATION_EPS => {
                    assignment[k].remove(pos);
                    assignment[j].push(vcpu_idx);
                    moved_any = true;
                    moves_left -= 1;
                }
                _ => break, // no destination can absorb anything useful
            }
        }
    }
    moved_any
}

fn build(vcpus: &[VcpuSpec], assignment: Vec<Vec<usize>>, allocs: Vec<Alloc>) -> SystemAllocation {
    let cores = assignment
        .into_iter()
        .zip(allocs)
        .map(|(vcpu_indices, alloc)| CoreAssignment {
            vcpus: vcpu_indices,
            alloc,
        })
        .collect();
    SystemAllocation::new(vcpus.to_vec(), cores)
}

/// The baseline hypervisor-level discipline: cache and bandwidth are
/// split evenly over all (usable) cores, and VCPUs are packed best-fit
/// in decreasing utilization at the even allocation.
pub fn evenly_partitioned(vcpus: Vec<VcpuSpec>, platform: &Platform) -> AllocationOutcome {
    if vcpus.is_empty() {
        return AllocationOutcome::schedulable(SystemAllocation::new(vcpus, Vec::new()));
    }
    let space = platform.resources();
    let m = platform.max_usable_cores();
    if m == 0 {
        return AllocationOutcome::unschedulable();
    }
    let even = Alloc::new(
        (space.cache_max() / m as u32).max(space.cache_min()),
        (space.bw_max() / m as u32).max(space.bw_min()),
    );
    // The max() above can only fire when the floor is below the
    // minimum, which max_usable_cores() excludes; assert the invariant.
    debug_assert!(space.contains(even));
    debug_assert!(even.cache * m as u32 <= space.cache_max());
    debug_assert!(even.bandwidth * m as u32 <= space.bw_max());

    let mut items: Vec<Item> = vcpus
        .iter()
        .enumerate()
        .map(|(i, v)| Item::new(i, v.utilization(even)))
        .collect();
    sort_decreasing(&mut items);
    let bins = best_fit_open(&items);
    if bins.len() > m {
        return AllocationOutcome::unschedulable();
    }
    let assignment: Vec<Vec<usize>> = bins;
    let allocs = vec![even; assignment.len()];
    let allocation = build(&vcpus, assignment, allocs);
    if allocation.is_schedulable() && allocation.verify(platform).is_ok() {
        AllocationOutcome::schedulable(allocation)
    } else {
        AllocationOutcome::unschedulable()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc2m_rng::DetRng;
    use vc2m_model::{BudgetSurface, ResourceSpace, TaskId, VcpuId, VmId};

    fn space() -> ResourceSpace {
        Platform::platform_a().resources()
    }

    fn flat_vcpu(id: usize, period: f64, budget: f64) -> VcpuSpec {
        VcpuSpec::new(
            VcpuId(id),
            VmId(0),
            period,
            BudgetSurface::flat(&space(), budget).unwrap(),
            vec![TaskId(id)],
        )
        .unwrap()
    }

    /// A VCPU whose budget shrinks as its core gets more cache.
    fn cache_hungry_vcpu(id: usize, period: f64, base: f64, gain: f64) -> VcpuSpec {
        let surface = BudgetSurface::from_fn(&space(), |a| {
            base * (1.0 + gain * (20.0 - f64::from(a.cache)) / 18.0)
        })
        .unwrap();
        VcpuSpec::new(VcpuId(id), VmId(0), period, surface, vec![TaskId(id)]).unwrap()
    }

    fn rng() -> DetRng {
        DetRng::seed_from_u64(2024)
    }

    #[test]
    fn empty_vcpu_set_is_trivially_schedulable() {
        let outcome = heuristic(
            Vec::new(),
            &Platform::platform_a(),
            HeuristicConfig::default(),
            &mut rng(),
        );
        assert!(outcome.is_schedulable());
        assert_eq!(outcome.allocation().unwrap().cores_used(), 0);
    }

    #[test]
    fn single_light_vcpu_fits_one_core() {
        let outcome = heuristic(
            vec![flat_vcpu(0, 10.0, 3.0)],
            &Platform::platform_a(),
            HeuristicConfig::default(),
            &mut rng(),
        );
        let a = outcome.allocation().expect("schedulable");
        assert_eq!(a.cores_used(), 1);
        a.verify(&Platform::platform_a()).unwrap();
    }

    #[test]
    fn load_spreads_over_cores() {
        // Four VCPUs of utilization 0.8 need all four cores.
        let vcpus: Vec<VcpuSpec> = (0..4).map(|i| flat_vcpu(i, 10.0, 8.0)).collect();
        let outcome = heuristic(
            vcpus,
            &Platform::platform_a(),
            HeuristicConfig::default(),
            &mut rng(),
        );
        let a = outcome.allocation().expect("schedulable");
        assert_eq!(a.cores_used(), 4);
        for k in 0..4 {
            assert!((a.core_utilization(k) - 0.8).abs() < 1e-9);
        }
        a.verify(&Platform::platform_a()).unwrap();
    }

    #[test]
    fn overload_is_unschedulable() {
        // Total utilization 4.5 on a 4-core platform.
        let vcpus: Vec<VcpuSpec> = (0..5).map(|i| flat_vcpu(i, 10.0, 9.0)).collect();
        let outcome = heuristic(
            vcpus,
            &Platform::platform_a(),
            HeuristicConfig::default(),
            &mut rng(),
        );
        assert!(!outcome.is_schedulable());
    }

    #[test]
    fn resources_rescue_cache_hungry_vcpus() {
        // Utilization 1.25 per core at (Cmin, Bmin), 0.625 at full cache:
        // schedulable only if Phase 2 grants cache partitions.
        let vcpus: Vec<VcpuSpec> = (0..2)
            .map(|i| cache_hungry_vcpu(i, 10.0, 6.25, 1.0))
            .collect();
        let platform = Platform::platform_a();
        let outcome = heuristic(vcpus, &platform, HeuristicConfig::default(), &mut rng());
        let a = outcome.allocation().expect("schedulable with enough cache");
        a.verify(&platform).unwrap();
        // The cores that got VCPUs must hold more than the minimum cache.
        let total_cache: u32 = a.cores().iter().map(|c| c.alloc.cache).sum();
        assert!(total_cache > 2 * 2, "phase 2 never granted cache");
    }

    #[test]
    fn heuristic_uses_fewest_possible_cores() {
        // Two 0.4 VCPUs fit one core; m-loop must stop at 1.
        let vcpus: Vec<VcpuSpec> = (0..2).map(|i| flat_vcpu(i, 10.0, 4.0)).collect();
        let outcome = heuristic(
            vcpus,
            &Platform::platform_a(),
            HeuristicConfig::default(),
            &mut rng(),
        );
        assert_eq!(outcome.allocation().unwrap().cores_used(), 1);
    }

    #[test]
    fn evenly_partitioned_balanced_load() {
        let vcpus: Vec<VcpuSpec> = (0..4).map(|i| flat_vcpu(i, 10.0, 5.0)).collect();
        let platform = Platform::platform_a();
        let outcome = evenly_partitioned(vcpus, &platform);
        let a = outcome.allocation().expect("schedulable");
        a.verify(&platform).unwrap();
        // Even allocation: every used core has C/M = 5 cache partitions.
        for core in a.cores() {
            assert_eq!(core.alloc, Alloc::new(5, 5));
        }
    }

    #[test]
    fn evenly_partitioned_fails_when_bins_exceed_cores() {
        let vcpus: Vec<VcpuSpec> = (0..5).map(|i| flat_vcpu(i, 10.0, 9.0)).collect();
        assert!(!evenly_partitioned(vcpus, &Platform::platform_a()).is_schedulable());
    }

    #[test]
    fn evenly_partitioned_wastes_resources_heuristic_recovers() {
        // A smoothly cache-hungry VCPU that fits only with a *skewed*
        // cache split (it needs ≥ 17 partitions; the modest peer needs
        // 2). The even split (5 each on platform A) is not enough for
        // the hungry one; the heuristic's marginal-utility phase walks
        // up the smooth slope and finds the skew.
        let hungry = {
            let surface = BudgetSurface::from_fn(&space(), |a| {
                9.0 + 6.0 * (20.0 - f64::from(a.cache)) / 18.0
            })
            .unwrap();
            VcpuSpec::new(VcpuId(0), VmId(0), 10.0, surface, vec![TaskId(0)]).unwrap()
        };
        let modest = flat_vcpu(1, 10.0, 5.0);
        let platform = Platform::platform_a();
        let even = evenly_partitioned(vec![hungry.clone(), modest.clone()], &platform);
        assert!(!even.is_schedulable(), "even split should fail");
        let heur = heuristic(
            vec![hungry, modest],
            &platform,
            HeuristicConfig::default(),
            &mut rng(),
        );
        assert!(
            heur.is_schedulable(),
            "heuristic should find the skewed split"
        );
    }

    #[test]
    fn determinism_for_seed() {
        let vcpus: Vec<VcpuSpec> = (0..6)
            .map(|i| cache_hungry_vcpu(i, 10.0, 2.0, 0.8))
            .collect();
        let platform = Platform::platform_a();
        let a = heuristic(
            vcpus.clone(),
            &platform,
            HeuristicConfig::default(),
            &mut DetRng::seed_from_u64(7),
        );
        let b = heuristic(
            vcpus,
            &platform,
            HeuristicConfig::default(),
            &mut DetRng::seed_from_u64(7),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn repeated_packings_are_skipped_but_still_shuffled() {
        // Two clusters of two 0.6 VCPUs: 2.4 cannot fit two cores, and
        // flat surfaces leave Phase 2 nothing to gain. The ten
        // permutations can only produce the two cluster orders.
        let vcpus: Vec<VcpuSpec> = (0..4).map(|i| flat_vcpu(i, 10.0, 6.0)).collect();
        let clusters = vec![vec![0, 1], vec![2, 3]];
        let config = HeuristicConfig::default();
        let mut searched = rng();
        let outcome = search_core_count(
            &vcpus,
            &clusters,
            &Platform::platform_a(),
            2,
            config,
            &mut searched,
        );
        assert_eq!(outcome.err(), Some(2), "exactly two distinct packings run");
        // Every permutation still drew its shuffle.
        let mut shuffled = rng();
        for _ in 0..config.max_permutations {
            shuffled.shuffle(&mut [0usize, 1]);
        }
        assert_eq!(searched.next_u64(), shuffled.next_u64());
    }
}
