//! Conformance of the hypervisor-level heuristic against an oracle: a
//! verbatim copy of the from-scratch implementation it replaced, which
//! re-checked every core on every Phase-2 round, ran Phases 2–3 for
//! every packing (repeats included), and computed each k-means
//! distance as one serial sum.
//!
//! The production heuristic must return the same `AllocationOutcome`
//! and leave the caller's RNG at the same stream position.

use vc2m_alloc::hypervisor_level::{heuristic, HeuristicConfig};
use vc2m_alloc::packing::{sort_decreasing, Item};
use vc2m_alloc::{AllocationOutcome, CoreAssignment, SystemAllocation};
use vc2m_analysis::core_check::{core_schedulable, core_utilization, UTILIZATION_EPS};
use vc2m_model::{Alloc, BudgetSurface, Platform, Surface, TaskId, VcpuId, VcpuSpec, VmId};
use vc2m_rng::{cases::check, DetRng, Rng};

mod oracle {
    use super::*;

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

        let features: Vec<Vec<f64>> =
            Surface::batch_slowdown_rows(vcpus.iter().map(|v| v.budget_surface()));
        let feature_refs: Vec<&[f64]> = features.iter().map(|f| f.as_slice()).collect();

        for m in 1..=platform.max_usable_cores() {
            if reference_total > m as f64 + UTILIZATION_EPS {
                continue;
            }
            let k = m.min(vcpus.len());
            let clusters = members(&kmeans(&feature_refs, k, rng), k);

            for _ in 0..config.max_permutations {
                let mut order: Vec<usize> = (0..clusters.len()).collect();
                rng.shuffle(&mut order);
                let mut assignment = pack_by_clusters(&vcpus, &clusters, &order, m);

                for _ in 0..config.max_balance_rounds {
                    let (allocs, schedulable) =
                        allocate_resources(&vcpus, &assignment, platform, m);
                    if schedulable {
                        return AllocationOutcome::schedulable(build(&vcpus, assignment, allocs));
                    }
                    if !balance_load(&vcpus, &mut assignment, &allocs) {
                        break;
                    }
                }
            }
        }
        AllocationOutcome::unschedulable()
    }

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
                    .min_by(|(i, a), (j, b)| a.partial_cmp(b).unwrap().then(i.cmp(j)))
                    .unwrap();
                cores[best].push(item.id);
                loads[best] += item.size;
            }
        }
        cores
    }

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

        let util =
            |k: usize, a: Alloc| core_utilization(assignment[k].iter().map(|&i| &vcpus[i]), a);
        let sched = |k: usize, a: Alloc| {
            core_schedulable(
                assignment[k]
                    .iter()
                    .map(|&i| &vcpus[i])
                    .collect::<Vec<_>>()
                    .iter()
                    .copied(),
                a,
            )
        };

        loop {
            let unschedulable: Vec<usize> = (0..m).filter(|&k| !sched(k, allocs[k])).collect();
            if unschedulable.is_empty() {
                return (allocs, true);
            }
            let mut best: Option<(usize, bool, f64)> = None;
            for &k in &unschedulable {
                let now = util(k, allocs[k]);
                if cache_left > 0 && allocs[k].cache < space.cache_max() {
                    let upgraded = Alloc::new(allocs[k].cache + 1, allocs[k].bandwidth);
                    let gain = now - util(k, upgraded);
                    if best.is_none_or(|(_, _, g)| gain > g) {
                        best = Some((k, true, gain));
                    }
                }
                if bw_left > 0 && allocs[k].bandwidth < space.bw_max() {
                    let upgraded = Alloc::new(allocs[k].cache, allocs[k].bandwidth + 1);
                    let gain = now - util(k, upgraded);
                    if best.is_none_or(|(_, _, g)| gain > g) {
                        best = Some((k, false, gain));
                    }
                }
            }
            match best {
                Some((k, true, gain)) if gain > UTILIZATION_EPS => {
                    allocs[k] = Alloc::new(allocs[k].cache + 1, allocs[k].bandwidth);
                    cache_left -= 1;
                }
                Some((k, false, gain)) if gain > UTILIZATION_EPS => {
                    allocs[k] = Alloc::new(allocs[k].cache, allocs[k].bandwidth + 1);
                    bw_left -= 1;
                }
                _ => return (allocs, false),
            }
        }
    }

    fn balance_load(vcpus: &[VcpuSpec], assignment: &mut [Vec<usize>], allocs: &[Alloc]) -> bool {
        let m = assignment.len();
        let mut moved_any = false;
        let mut moves_left = vcpus.len();

        for k in 0..m {
            loop {
                let source_vcpus: Vec<&VcpuSpec> =
                    assignment[k].iter().map(|&i| &vcpus[i]).collect();
                if moves_left == 0
                    || core_schedulable(source_vcpus.iter().copied(), allocs[k])
                    || assignment[k].is_empty()
                {
                    break;
                }
                let (pos, &vcpu_idx) = assignment[k]
                    .iter()
                    .enumerate()
                    .max_by(|(_, &a), (_, &b)| {
                        vcpus[a]
                            .utilization(allocs[k])
                            .partial_cmp(&vcpus[b].utilization(allocs[k]))
                            .unwrap()
                    })
                    .unwrap();
                let dest = (0..m)
                    .filter(|&j| j != k)
                    .filter(|&j| {
                        core_schedulable(
                            assignment[j]
                                .iter()
                                .map(|&i| &vcpus[i])
                                .collect::<Vec<_>>()
                                .iter()
                                .copied(),
                            allocs[j],
                        )
                    })
                    .map(|j| {
                        let after =
                            core_utilization(assignment[j].iter().map(|&i| &vcpus[i]), allocs[j])
                                + vcpus[vcpu_idx].utilization(allocs[j]);
                        (j, after)
                    })
                    .min_by(|(i, a), (j, b)| a.partial_cmp(b).unwrap().then(i.cmp(j)));
                match dest {
                    Some((j, after)) if after <= 1.0 + UTILIZATION_EPS => {
                        assignment[k].remove(pos);
                        assignment[j].push(vcpu_idx);
                        moved_any = true;
                        moves_left -= 1;
                    }
                    _ => break,
                }
            }
        }
        moved_any
    }

    fn build(
        vcpus: &[VcpuSpec],
        assignment: Vec<Vec<usize>>,
        allocs: Vec<Alloc>,
    ) -> SystemAllocation {
        let cores = assignment
            .into_iter()
            .zip(allocs)
            .map(|(vcpus, alloc)| CoreAssignment { vcpus, alloc })
            .collect();
        SystemAllocation::new(vcpus.to_vec(), cores)
    }

    fn members(assignment: &[usize], k: usize) -> Vec<Vec<usize>> {
        let mut groups = vec![Vec::new(); k];
        for (i, &c) in assignment.iter().enumerate() {
            groups[c].push(i);
        }
        groups
    }

    const MAX_ITERATIONS: usize = 50;

    /// The from-scratch k-means: returns the assignment vector.
    pub fn kmeans<R: Rng>(points: &[&[f64]], k: usize, rng: &mut R) -> Vec<usize> {
        let dim = points[0].len();
        let k = k.min(points.len());
        let mut centroids = init_plus_plus(points, k, rng);
        let mut assignment = vec![0usize; points.len()];
        for _ in 0..MAX_ITERATIONS {
            let mut changed = false;
            for (i, p) in points.iter().enumerate() {
                let nearest = nearest_centroid(p, &centroids);
                if assignment[i] != nearest {
                    assignment[i] = nearest;
                    changed = true;
                }
            }
            let mut sums = vec![vec![0.0; dim]; k];
            let mut counts = vec![0usize; k];
            for (i, p) in points.iter().enumerate() {
                counts[assignment[i]] += 1;
                for (s, v) in sums[assignment[i]].iter_mut().zip(*p) {
                    *s += v;
                }
            }
            for c in 0..k {
                if counts[c] == 0 {
                    let candidate = points
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| counts[assignment[*i]] >= 2)
                        .map(|(i, p)| (i, distance_sq(p, &centroids[assignment[i]])))
                        .max_by(|(i, a), (j, b)| a.partial_cmp(b).unwrap().then(i.cmp(j)));
                    if let Some((far, dist)) = candidate {
                        if dist > 0.0 {
                            counts[assignment[far]] -= 1;
                            assignment[far] = c;
                            counts[c] = 1;
                            centroids[c] = points[far].to_vec();
                            changed = true;
                        }
                    }
                } else {
                    for (d, s) in centroids[c].iter_mut().zip(&sums[c]) {
                        *d = s / counts[c] as f64;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        assignment
    }

    fn init_plus_plus<R: Rng>(points: &[&[f64]], k: usize, rng: &mut R) -> Vec<Vec<f64>> {
        let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
        centroids.push(points[rng.gen_range(0..points.len())].to_vec());
        while centroids.len() < k {
            let weights: Vec<f64> = points
                .iter()
                .map(|p| {
                    centroids
                        .iter()
                        .map(|c| distance_sq(p, c))
                        .fold(f64::INFINITY, f64::min)
                })
                .collect();
            let total: f64 = weights.iter().sum();
            let chosen = if total <= 0.0 {
                rng.gen_range(0..points.len())
            } else {
                let mut target = rng.gen_f64() * total;
                let mut chosen = points.len() - 1;
                for (i, w) in weights.iter().enumerate() {
                    if target < *w {
                        chosen = i;
                        break;
                    }
                    target -= w;
                }
                chosen
            };
            centroids.push(points[chosen].to_vec());
        }
        centroids
    }

    fn nearest_centroid(p: &[f64], centroids: &[Vec<f64>]) -> usize {
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for (i, c) in centroids.iter().enumerate() {
            let d = distance_sq(p, c);
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        best
    }

    fn distance_sq(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
    }
}

/// A VCPU with a flat budget, or one whose budget falls as its core
/// gets more cache and bandwidth (`cache_slope`, `bw_slope` ≥ 0 scale
/// the extra budget at the minimum allocation).
fn vcpu(
    id: usize,
    platform: &Platform,
    period: f64,
    reference_budget: f64,
    cache_slope: f64,
    bw_slope: f64,
) -> VcpuSpec {
    let space = platform.resources();
    let (c_span, b_span) = (
        f64::from(space.cache_max() - space.cache_min()),
        f64::from(space.bw_max() - space.bw_min()),
    );
    let surface = BudgetSurface::from_fn(&space, |a| {
        let cache_short = f64::from(space.cache_max() - a.cache) / c_span;
        let bw_short = f64::from(space.bw_max() - a.bandwidth) / b_span;
        reference_budget * (1.0 + cache_slope * cache_short + bw_slope * bw_short)
    })
    .unwrap();
    VcpuSpec::new(VcpuId(id), VmId(id % 3), period, surface, vec![TaskId(id)]).unwrap()
}

/// A random VCPU set of 1–48 VCPUs whose total reference utilization
/// ranges from well under to just over the platform's core count, so
/// cases land on every side of the search: immediate fits, fits after
/// resource upgrades or balancing, and exhausted searches. Half the
/// sets draw utilizations and slopes from a coarse grid, so identical
/// VCPUs and equal upgrade gains exercise every tie-break.
fn random_vcpus(rng: &mut DetRng, platform: &Platform) -> Vec<VcpuSpec> {
    const SLOPES: [f64; 3] = [0.25, 0.5, 1.0];
    let n = rng.gen_range(1usize..=48);
    let load = rng.gen_range(0.2f64..1.15) * platform.cores() as f64;
    let hungry_share = rng.gen_range(0.0f64..=1.0);
    let coarse = rng.gen_f64() < 0.5;
    (0..n)
        .map(|id| {
            let period = [10.0, 20.0, 25.0, 40.0, 50.0][rng.gen_range(0usize..5)];
            let mut utilization = (load / n as f64 * rng.gen_range(0.5f64..1.5)).min(0.98);
            if coarse {
                utilization = ((utilization * 20.0).round() / 20.0).max(0.05);
            }
            let (cache_slope, bw_slope) = if rng.gen_f64() >= hungry_share {
                (0.0, 0.0)
            } else if coarse {
                (
                    SLOPES[rng.gen_range(0usize..3)],
                    SLOPES[rng.gen_range(0usize..3)],
                )
            } else {
                (rng.gen_range(0.0f64..1.5), rng.gen_range(0.0f64..0.8))
            };
            vcpu(
                id,
                platform,
                period,
                utilization * period,
                cache_slope,
                bw_slope,
            )
        })
        .collect()
}

#[test]
fn heuristic_matches_from_scratch_oracle() {
    check(160, |rng| {
        let platform = [
            Platform::platform_a(),
            Platform::platform_b(),
            Platform::platform_c(),
        ][rng.gen_range(0usize..3)];
        let vcpus = random_vcpus(rng, &platform);
        let config = if rng.gen_f64() < 0.5 {
            HeuristicConfig::default()
        } else {
            HeuristicConfig {
                max_permutations: rng.gen_range(1usize..=12),
                max_balance_rounds: rng.gen_range(1usize..=5),
            }
        };
        let seed = rng.next_u64();
        let mut fast_rng = DetRng::seed_from_u64(seed);
        let mut oracle_rng = DetRng::seed_from_u64(seed);
        let fast = heuristic(vcpus.clone(), &platform, config, &mut fast_rng);
        let expected = oracle::heuristic(vcpus, &platform, config, &mut oracle_rng);
        assert_eq!(fast, expected, "outcome diverged (seed {seed:#x})");
        assert_eq!(
            fast_rng.next_u64(),
            oracle_rng.next_u64(),
            "RNG stream position diverged (seed {seed:#x})"
        );
    });
}

#[test]
fn exhausted_two_cluster_search_leaves_rng_where_oracle_does() {
    // Two cores, two clusters: two cache-starved VCPUs that fit only
    // with the whole cache (unreachable with two cores), and two light
    // flat ones. Total reference utilization 1.2 rules out m = 1, so
    // the whole search happens at m = 2, where the ten permutations
    // can only yield two distinct packings and every one fails.
    let platform = Platform::symmetric(2, 20).unwrap();
    let space = platform.resources();
    let starved = |id: usize| {
        let surface = BudgetSurface::from_fn(&space, |a| {
            if a.cache == space.cache_max() {
                3.0
            } else {
                9.0
            }
        })
        .unwrap();
        VcpuSpec::new(VcpuId(id), VmId(0), 10.0, surface, vec![TaskId(id)]).unwrap()
    };
    let vcpus = vec![
        starved(0),
        vcpu(1, &platform, 10.0, 3.0, 0.0, 0.0),
        starved(2),
        vcpu(3, &platform, 10.0, 3.0, 0.0, 0.0),
    ];
    for seed in 0..16 {
        let mut fast_rng = DetRng::seed_from_u64(seed);
        let mut oracle_rng = DetRng::seed_from_u64(seed);
        let config = HeuristicConfig::default();
        let fast = heuristic(vcpus.clone(), &platform, config, &mut fast_rng);
        let expected = oracle::heuristic(vcpus.clone(), &platform, config, &mut oracle_rng);
        assert!(!fast.is_schedulable());
        assert_eq!(fast, expected);
        assert_eq!(fast_rng.next_u64(), oracle_rng.next_u64(), "seed {seed}");
    }
}
