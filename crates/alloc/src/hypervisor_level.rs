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

use crate::kmeans::{kmeans_into, Features, KmeansScratch};
use crate::packing::{best_fit_open, least_loaded, sort_decreasing, Item};
use crate::result::{AllocationOutcome, CoreAssignment, SystemAllocation};
use vc2m_analysis::core_check::{core_schedulable, core_utilization, UTILIZATION_EPS};
use vc2m_model::{Alloc, Platform, ResourceSpace, VcpuSpec};
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
/// the heuristic could make work, holding a copy of `vcpus`) or an
/// unschedulable outcome.
pub fn heuristic<R: Rng>(
    vcpus: &[VcpuSpec],
    platform: &Platform,
    config: HeuristicConfig,
    rng: &mut R,
) -> AllocationOutcome {
    // Features are computed once; only the cluster count depends on m.
    let features = Features::from_surfaces(vcpus.iter().map(VcpuSpec::budget_surface));
    heuristic_with_features(
        vcpus,
        &features,
        platform,
        config,
        rng,
        &mut Search::default(),
    )
}

/// [`heuristic`] over VCPUs whose k-means feature rows the caller
/// already holds: `features` must equal [`Features::from_surfaces`]
/// over the budget surfaces of `vcpus`. The admission engine keeps the
/// incumbents' rows across repacks and appends only the newcomer's,
/// and passes the same `search` buffers to every repack of one state.
pub(crate) fn heuristic_with_features<R: Rng>(
    vcpus: &[VcpuSpec],
    features: &Features,
    platform: &Platform,
    config: HeuristicConfig,
    rng: &mut R,
    search: &mut Search,
) -> AllocationOutcome {
    debug_assert_eq!(features.len(), vcpus.len());
    if vcpus.is_empty() {
        return AllocationOutcome::schedulable(SystemAllocation::new(Vec::new(), Vec::new()));
    }
    let space = platform.resources();
    let reference_total: f64 = vcpus.iter().map(|v| v.utilization(space.reference())).sum();

    for m in 1..=platform.max_usable_cores() {
        // Necessary condition: even with all resources, total
        // utilization cannot exceed m.
        if reference_total > m as f64 + UTILIZATION_EPS {
            continue;
        }
        let k = kmeans_into(features, m.min(vcpus.len()), rng, &mut search.kmeans);
        search.sort_clusters(vcpus, k);
        if let Ok(allocation) = search.core_count(vcpus, platform, m, config, rng) {
            return AllocationOutcome::schedulable(allocation);
        }
    }
    AllocationOutcome::unschedulable()
}

/// The buffers a heuristic search works in: k-means' and those of
/// Phases 1–3. They are reused across core counts, permutations and
/// balance rounds, and by the admission engine across the repacks of
/// one state, so a search allocates only while they grow and when it
/// builds the allocation it returns. No value outlives the step that
/// wrote it, except the clusters [`Search::sort_clusters`] leaves for
/// [`Search::core_count`].
#[derive(Debug, Default)]
pub(crate) struct Search {
    kmeans: KmeansScratch,
    /// Each cluster's VCPUs as items sized by reference utilization,
    /// in decreasing order, cluster after cluster.
    items: Vec<Item>,
    /// Cluster `c`'s items are `items[starts[c]..starts[c + 1]]`.
    starts: Vec<usize>,
    /// The permutation's cluster order.
    order: Vec<usize>,
    /// Phase 1's per-core reference utilization.
    loads: Vec<f64>,
    /// Each core's VCPUs, as Phase 1 packs them and Phase 3 moves them.
    assignment: Vec<Vec<usize>>,
    /// The permutation's packing, flat: each core's VCPUs followed by
    /// [`CORE_END`].
    packing: Vec<usize>,
    /// Every distinct packing that failed at this core count, each
    /// laid out as `packing`, one after the other.
    failed: Vec<usize>,
    /// Phase 2's per-core allocation.
    allocs: Vec<Alloc>,
    /// Phase 2's view of each core.
    states: Vec<CoreState>,
    /// Phase 3's (feasibility, utilization) of each core.
    cores: Vec<CoreLoad>,
}

/// Ends a core's VCPUs in a flat packing; no VCPU index equals it.
const CORE_END: usize = usize::MAX;

impl Search {
    /// Groups the VCPUs by the cluster the last clustering put them in
    /// (`k` clusters, some possibly empty), each cluster's VCPUs sorted
    /// once: only the cluster order varies between permutations.
    fn sort_clusters(&mut self, vcpus: &[VcpuSpec], k: usize) {
        let assignment = self.kmeans.assignment();
        self.items.clear();
        self.items.reserve(assignment.len());
        self.starts.clear();
        for c in 0..k {
            let start = self.items.len();
            self.starts.push(start);
            self.items.extend(
                (0..assignment.len())
                    .filter(|&i| assignment[i] == c)
                    .map(|i| Item::new(i, vcpus[i].reference_utilization())),
            );
            sort_decreasing(&mut self.items[start..]);
        }
        self.starts.push(self.items.len());
    }

    /// Phases 1–3 at core count `m` over the clusters
    /// [`Search::sort_clusters`] left: `config.max_permutations` random
    /// cluster orders, each packed and then refined by Phase-2/3
    /// rounds.
    ///
    /// Every permutation draws its shuffle, but Phases 2 and 3 are a
    /// pure function of the packing and draw nothing, so a packing that
    /// already failed at this `m` is skipped: it would fail the same way
    /// again. Returns the first schedulable allocation, or the number of
    /// distinct packings that failed.
    fn core_count<R: Rng>(
        &mut self,
        vcpus: &[VcpuSpec],
        platform: &Platform,
        m: usize,
        config: HeuristicConfig,
        rng: &mut R,
    ) -> Result<SystemAllocation, usize> {
        // Room for every packing this core count can fail with.
        let stride = self.items.len() + m;
        self.packing.clear();
        self.packing.reserve(stride);
        self.failed.clear();
        self.failed.reserve(config.max_permutations * stride);
        for _ in 0..config.max_permutations {
            self.order.clear();
            self.order.extend(0..self.starts.len() - 1);
            rng.shuffle(&mut self.order);
            self.pack_by_clusters(m);
            self.packing.clear();
            for core in &self.assignment {
                self.packing.extend_from_slice(core);
                self.packing.push(CORE_END);
            }
            if self
                .failed
                .chunks_exact(self.packing.len())
                .any(|packing| packing == self.packing)
            {
                continue;
            }
            for _ in 0..config.max_balance_rounds {
                if self.allocate_resources(vcpus, platform) {
                    let allocation = self.build(vcpus);
                    debug_assert!(allocation.verify(platform).is_ok());
                    return Ok(allocation);
                }
                if !self.balance_load(vcpus) {
                    break; // no benefit in balancing: new permutation
                }
            }
            self.failed.extend_from_slice(&self.packing);
        }
        Err(self.failed.len() / self.packing.len().max(1))
    }

    /// Phase 1: packs the clusters, in `order`, onto `m` cores,
    /// worst-fit in decreasing reference utilization, with core loads
    /// carried across clusters.
    fn pack_by_clusters(&mut self, m: usize) {
        // Room for every VCPU on every core: no core reallocates while
        // Phase 1 packs or Phase 3 moves VCPUs onto it.
        let total = self.items.len();
        self.assignment.resize_with(m, || Vec::with_capacity(total));
        for core in &mut self.assignment {
            core.clear();
        }
        self.loads.clear();
        self.loads.resize(m, 0.0);
        for &cluster in &self.order {
            for item in &self.items[self.starts[cluster]..self.starts[cluster + 1]] {
                let best = least_loaded(&self.loads);
                self.assignment[best].push(item.id);
                self.loads[best] += item.size;
            }
        }
    }

    /// Phase 2: greedy marginal-utility resource allocation. Every core
    /// starts at `(Cmin, Bmin)`; spare partitions go one at a time to
    /// the unschedulable core with the highest utilization reduction.
    ///
    /// A core's state depends only on its own VCPUs and allocation, so
    /// it is computed once per core and then only for the core just
    /// upgraded, whose new utilization is the upgrade's sum its state
    /// already holds. Candidates are scanned in core order, cache
    /// before bandwidth, and a later one wins only with a strictly
    /// larger gain; the pools are checked at selection time.
    ///
    /// Leaves each core's allocation in `allocs` and its state in
    /// `states`, and returns whether every core ended up schedulable.
    fn allocate_resources(&mut self, vcpus: &[VcpuSpec], platform: &Platform) -> bool {
        let space = platform.resources();
        let m = self.assignment.len();
        let Search {
            assignment,
            allocs,
            states,
            ..
        } = self;
        allocs.clear();
        allocs.resize(m, space.minimum());
        let mut cache_left = space.cache_max() - space.cache_min() * m as u32;
        let mut bw_left = space.bw_max() - space.bw_min() * m as u32;
        states.clear();
        states
            .extend((0..m).map(|k| CoreState::of(vcpus, &assignment[k], allocs[k], &space, None)));

        loop {
            let mut all_schedulable = true;
            let mut best: Option<(usize, bool, f64)> = None; // (core, is_cache, gain)
            for (k, state) in states.iter().enumerate() {
                if state.load.schedulable() {
                    continue;
                }
                all_schedulable = false;
                let now = state.load.utilization;
                let candidates = [
                    (true, state.cache_up.filter(|_| cache_left > 0)),
                    (false, state.bw_up.filter(|_| bw_left > 0)),
                ];
                for (is_cache, after) in candidates {
                    if let Some(after) = after {
                        let gain = now - after;
                        if best.is_none_or(|(_, _, g)| gain > g) {
                            best = Some((k, is_cache, gain));
                        }
                    }
                }
            }
            if all_schedulable {
                return true;
            }
            match best {
                Some((k, is_cache, gain)) if gain > UTILIZATION_EPS => {
                    let Alloc { cache, bandwidth } = allocs[k];
                    let now = if is_cache {
                        cache_left -= 1;
                        allocs[k] = Alloc::new(cache + 1, bandwidth);
                        states[k].cache_up
                    } else {
                        bw_left -= 1;
                        allocs[k] = Alloc::new(cache, bandwidth + 1);
                        states[k].bw_up
                    };
                    states[k] = CoreState::of(vcpus, &assignment[k], allocs[k], &space, now);
                }
                // No spare partition has any impact on utilization.
                _ => return false,
            }
        }
    }

    /// Phase 3: migrates VCPUs off unschedulable cores, at the
    /// allocations Phase 2 left. For each unschedulable core
    /// (largest-utilization VCPU first), the VCPU moves to the
    /// schedulable core that will have the smallest utilization after
    /// the migration. Returns whether anything moved.
    ///
    /// Each core's (feasibility, utilization) starts from Phase 2's
    /// state and is kept current: a source core is summed afresh after
    /// losing a VCPU, and a destination's new utilization is its old
    /// one plus the moved VCPU's. That sum is exact, because `push`
    /// appends the VCPU at the end of the member order and the
    /// utilization sums in member order.
    fn balance_load(&mut self, vcpus: &[VcpuSpec]) -> bool {
        let Search {
            assignment,
            allocs,
            states,
            cores,
            ..
        } = self;
        let m = assignment.len();
        cores.clear();
        cores.extend(states.iter().map(|state| state.load));
        debug_assert!(loads_match(vcpus, assignment, allocs, cores));
        let mut moved_any = false;
        let mut moves_left = vcpus.len(); // global guard against cycles

        for k in 0..m {
            loop {
                if moves_left == 0 || cores[k].schedulable() || assignment[k].is_empty() {
                    break;
                }
                // Largest-utilization VCPU on the source core, the last
                // on ties.
                let (mut pos, mut top) = (0, f64::NEG_INFINITY);
                for (p, &i) in assignment[k].iter().enumerate() {
                    let u = vcpus[i].utilization(allocs[k]);
                    if u >= top {
                        (pos, top) = (p, u);
                    }
                }
                let vcpu_idx = assignment[k][pos];
                // Destination: schedulable core with smallest post-move
                // utilization, the lowest index on ties.
                let mut dest: Option<(usize, f64)> = None;
                for (j, core) in cores.iter().enumerate() {
                    if j == k || !core.schedulable() {
                        continue;
                    }
                    let after = core.utilization + vcpus[vcpu_idx].utilization(allocs[j]);
                    if dest.is_none_or(|(_, best)| after < best) {
                        dest = Some((j, after));
                    }
                }
                match dest {
                    Some((j, after)) if after <= 1.0 + UTILIZATION_EPS => {
                        assignment[k].remove(pos);
                        assignment[j].push(vcpu_idx);
                        cores[j] = CoreLoad {
                            feasible: vcpus[vcpu_idx].is_feasible_at(allocs[j]),
                            utilization: after,
                        };
                        cores[k] = CoreLoad::of(vcpus, &assignment[k], allocs[k]);
                        debug_assert!(loads_match(vcpus, assignment, allocs, cores));
                        moved_any = true;
                        moves_left -= 1;
                    }
                    _ => break, // no destination can absorb anything useful
                }
            }
        }
        moved_any
    }

    /// The schedulable allocation Phase 2 just found: a copy of the
    /// VCPUs, each core's VCPUs and its allocation.
    fn build(&self, vcpus: &[VcpuSpec]) -> SystemAllocation {
        let cores = self
            .assignment
            .iter()
            .zip(&self.allocs)
            .map(|(members, &alloc)| CoreAssignment {
                vcpus: members.clone(),
                alloc,
            })
            .collect();
        SystemAllocation::new(vcpus.to_vec(), cores)
    }
}

/// Whether every cached (feasibility, utilization) equals the
/// from-scratch `core_schedulable` verdict and `core_utilization` sum
/// (compared with `==`, under which the `-0.0` an empty
/// `core_utilization` starts from equals the cache's `0.0`).
fn loads_match(
    vcpus: &[VcpuSpec],
    assignment: &[Vec<usize>],
    allocs: &[Alloc],
    cores: &[CoreLoad],
) -> bool {
    assignment
        .iter()
        .zip(allocs)
        .zip(cores)
        .all(|((members, &alloc), core)| {
            let members = || members.iter().map(|&i| &vcpus[i]);
            core.schedulable() == core_schedulable(members(), alloc)
                && core.feasible == members().all(|v| v.is_feasible_at(alloc))
                && core.utilization == core_utilization(members(), alloc)
        })
}

/// One core at its current allocation: whether every VCPU's budget
/// fits its period, and the VCPUs' total utilization, summed in member
/// order from `0.0`, as `core_schedulable` sums it.
#[derive(Debug, Clone, Copy)]
struct CoreLoad {
    feasible: bool,
    utilization: f64,
}

impl CoreLoad {
    /// The load of a core holding `members` at `alloc`, summed afresh.
    fn of(vcpus: &[VcpuSpec], members: &[usize], alloc: Alloc) -> Self {
        let (mut feasible, mut utilization) = (true, 0.0);
        for &i in members {
            let budget = vcpus[i].budget(alloc);
            feasible &= vcpus[i].fits_period(budget);
            utilization += budget / vcpus[i].period();
        }
        CoreLoad {
            feasible,
            utilization,
        }
    }

    /// `core_schedulable`'s verdict.
    fn schedulable(self) -> bool {
        self.feasible && self.utilization <= 1.0 + UTILIZATION_EPS
    }
}

/// Phase-2 view of one core at its current allocation: its load, and
/// the utilization after one more partition of each resource (`None`
/// at that resource's maximum).
#[derive(Debug, Clone, Copy)]
struct CoreState {
    load: CoreLoad,
    cache_up: Option<f64>,
    bw_up: Option<f64>,
}

impl CoreState {
    /// One pass over the members, in order, reads each budget surface
    /// at `alloc` and at both upgrades through precomputed offsets. The
    /// utilization sums accumulate in member order, the order
    /// `core_schedulable` and `core_utilization` sum in, so the verdict
    /// and the sums are theirs bit for bit. `now`, when known, is the
    /// utilization at `alloc`: the sum the upgrade to `alloc` held.
    fn of(
        vcpus: &[VcpuSpec],
        members: &[usize],
        alloc: Alloc,
        space: &ResourceSpace,
        now: Option<f64>,
    ) -> Self {
        let at = space.index_of(alloc);
        let cache_up = (alloc.cache < space.cache_max()).then_some(at + space.bw_levels());
        let bw_up = (alloc.bandwidth < space.bw_max()).then_some(at + 1);
        let (mut feasible, mut sum, mut cache_sum, mut bw_sum) = (true, 0.0, 0.0, 0.0);
        for &i in members {
            let vcpu = &vcpus[i];
            debug_assert_eq!(vcpu.budget_surface().space(), space);
            let (budgets, period) = (vcpu.budget_surface().as_slice(), vcpu.period());
            feasible &= vcpu.fits_period(budgets[at]);
            if now.is_none() {
                sum += budgets[at] / period;
            }
            if let Some(up) = cache_up {
                cache_sum += budgets[up] / period;
            }
            if let Some(up) = bw_up {
                bw_sum += budgets[up] / period;
            }
        }
        CoreState {
            load: CoreLoad {
                feasible,
                utilization: now.unwrap_or(sum),
            },
            cache_up: cache_up.map(|_| cache_sum),
            bw_up: bw_up.map(|_| bw_sum),
        }
    }
}

/// The baseline hypervisor-level discipline: cache and bandwidth are
/// split evenly over all (usable) cores, and VCPUs are packed best-fit
/// in decreasing utilization at the even allocation.
pub fn evenly_partitioned(vcpus: &[VcpuSpec], platform: &Platform) -> AllocationOutcome {
    if vcpus.is_empty() {
        return AllocationOutcome::schedulable(SystemAllocation::new(Vec::new(), Vec::new()));
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
    let cores = bins
        .into_iter()
        .map(|vcpus| CoreAssignment { vcpus, alloc: even })
        .collect();
    let allocation = SystemAllocation::new(vcpus.to_vec(), cores);
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
            &[],
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
            &[flat_vcpu(0, 10.0, 3.0)],
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
            &vcpus,
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
            &vcpus,
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
        let outcome = heuristic(&vcpus, &platform, HeuristicConfig::default(), &mut rng());
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
            &vcpus,
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
        let outcome = evenly_partitioned(&vcpus, &platform);
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
        assert!(!evenly_partitioned(&vcpus, &Platform::platform_a()).is_schedulable());
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
        let pair = [hungry, modest];
        let even = evenly_partitioned(&pair, &platform);
        assert!(!even.is_schedulable(), "even split should fail");
        let heur = heuristic(&pair, &platform, HeuristicConfig::default(), &mut rng());
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
            &vcpus,
            &platform,
            HeuristicConfig::default(),
            &mut DetRng::seed_from_u64(7),
        );
        let b = heuristic(
            &vcpus,
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
        let mut search = Search::default();
        for cluster in [[0, 1], [2, 3]] {
            search.starts.push(search.items.len());
            search
                .items
                .extend(cluster.map(|i| Item::new(i, vcpus[i].reference_utilization())));
        }
        search.starts.push(search.items.len());
        let config = HeuristicConfig::default();
        let mut searched = rng();
        let outcome = search.core_count(&vcpus, &Platform::platform_a(), 2, config, &mut searched);
        assert_eq!(outcome.err(), Some(2), "exactly two distinct packings run");
        // Every permutation still drew its shuffle.
        let mut shuffled = rng();
        for _ in 0..config.max_permutations {
            shuffled.shuffle(&mut [0usize, 1]);
        }
        assert_eq!(searched.next_u64(), shuffled.next_u64());
    }
}
