//! Seeded conformance properties for the schedulability kernels: the
//! k-way checkpoint merge behind [`Demand::checkpoints`] and the
//! [`MinBudgetSolver`] floor table must reproduce the naive reference
//! implementations **bit for bit** on random tasksets — harmonic,
//! non-harmonic, zero-WCET, and near-incommensurate (no-hyperperiod)
//! alike. One solver, built at the largest resource period, serves
//! every smaller period from a prefix of its table; the budget
//! properties query it that way, adversarial inputs aimed at the
//! certified-threshold bisection and streams cut by the checkpoint
//! cap included. Cases come from the in-tree seeded harness
//! (`vc2m_rng::cases`); CI reruns this file with `VC2M_CASES=20000`.

use vc2m_rng::{cases::check, DetRng, Rng};
use vc2m_sched::dbf::Demand;
use vc2m_sched::kernel::{analysis_horizon, MAX_CHECKPOINTS};
use vc2m_sched::sbf::{min_budget, MinBudgetSolver, PeriodicResource};

/// The shortest task period: the largest server period the existing-CSA
/// period search tries.
fn p_min(demand: &Demand) -> f64 {
    demand.periods().iter().copied().fold(f64::INFINITY, f64::min)
}

/// A harmonic taskset (periods base·2^k), the regime the sweep
/// generator produces. Bases are quantized to whole nanoseconds so the
/// hyperperiod is exact.
fn arb_harmonic_demand(rng: &mut DetRng) -> Demand {
    let base = (rng.gen_range(1.0f64..50.0) * 1e6).round() / 1e6;
    let n = rng.gen_range(1usize..6);
    let tasks: Vec<(f64, f64)> = (0..n)
        .map(|_| {
            let period = base * f64::from(1u32 << rng.gen_range(0u32..4));
            (period, rng.gen_range(0.01f64..0.24) * period)
        })
        .collect();
    Demand::new(tasks).expect("valid demand")
}

/// An unconstrained taskset: independent ns-quantized periods, and
/// roughly one task in five carries a zero WCET (contributing no
/// checkpoints — the kernels must skip it exactly like the reference).
fn arb_general_demand(rng: &mut DetRng) -> Demand {
    let n = rng.gen_range(1usize..7);
    let tasks: Vec<(f64, f64)> = (0..n)
        .map(|_| {
            let period = (rng.gen_range(0.5f64..80.0) * 1e6).round() / 1e6;
            let wcet = if rng.gen_range(0u32..5) == 0 {
                0.0
            } else {
                rng.gen_range(0.01f64..0.2) * period
            };
            (period, wcet)
        })
        .collect();
    Demand::new(tasks).expect("valid demand")
}

/// Near-incommensurate periods: a handful of milliseconds apart on the
/// nanosecond grid, so pairwise LCMs usually overflow the 1e12 ns
/// hyperperiod bound and the analysis walks the bounded fallback
/// horizon — the densest checkpoint regime.
fn arb_incommensurate_demand(rng: &mut DetRng) -> Demand {
    let n = rng.gen_range(2usize..5);
    let tasks: Vec<(f64, f64)> = (0..n)
        .map(|_| {
            let period = 7.0 + f64::from(rng.gen_range(0u32..4_000_000)) * 1e-6;
            (period, rng.gen_range(0.05f64..0.2) * period)
        })
        .collect();
    Demand::new(tasks).expect("valid demand")
}

/// Draws from all three regimes.
fn arb_any_demand(rng: &mut DetRng) -> Demand {
    match rng.gen_range(0u32..3) {
        0 => arb_harmonic_demand(rng),
        1 => arb_general_demand(rng),
        _ => arb_incommensurate_demand(rng),
    }
}

/// Harmonic WCETs scaled down to a few multiples of the 1e-9
/// tolerance: checkpoint demands straddle `d = 1e-9`, and the
/// utilization reaches down to ~1e-12.
fn arb_near_tolerance_case(rng: &mut DetRng) -> (Demand, f64) {
    let base = arb_harmonic_demand(rng);
    let scale = 1e-9 * rng.gen_range(0.3f64..4.0);
    let tasks = base
        .pairs()
        .map(|(p, _)| (p, scale * f64::from(rng.gen_range(0u32..4))))
        .collect();
    let demand = Demand::new(tasks).expect("valid demand");
    let period = p_min(&demand) / f64::from(rng.gen_range(1u32..9));
    (demand, period)
}

/// One task whose threshold at its first deadline `t = p` lands
/// exactly on a job-count boundary: with `m = ⌊p/Π⌋` and
/// `θ_b = (m+1)Π − p`, so that `t − Π + θ_b = mΠ`, the supply at θ_b
/// is `m·θ_b`, and the WCET `m·θ_b + 1e-9` puts the minimal budget on
/// the kink. A second, lighter task sometimes adds later checkpoints.
fn arb_boundary_case(rng: &mut DetRng) -> (Demand, f64) {
    let p = (rng.gen_range(1.0f64..50.0) * 1e6).round() / 1e6;
    let period = p / rng.gen_range(1.05f64..9.0);
    let m = (p / period).floor();
    let wcet = (m * ((m + 1.0) * period - p) + 1e-9).min(p);
    let mut tasks = vec![(p, wcet)];
    if rng.gen_range(0u32..2) == 0 {
        let q = p * f64::from(1u32 << rng.gen_range(1u32..4));
        tasks.push((q, rng.gen_range(0.0f64..0.1) * q));
    }
    (Demand::new(tasks).expect("valid demand"), period)
}

/// Harmonic tasksets rescaled to a utilization at or just around 1:
/// thresholds crowd Π, and `lo = U·Π` starts the bisection next to it.
fn arb_saturated_case(rng: &mut DetRng) -> (Demand, f64) {
    let base = arb_harmonic_demand(rng);
    let target = [1.0, 1.0 - 1e-3, 1.0 - 1e-9, 1.0 - 1e-12, 1.0 + 5e-13, 1.0 + 1e-9]
        [rng.gen_range(0usize..6)];
    let factor = target / base.utilization();
    let tasks = base.pairs().map(|(p, e)| (p, (e * factor).min(p))).collect();
    let demand = Demand::new(tasks).expect("valid demand");
    let divisor = f64::from(1u32 << rng.gen_range(0u32..5));
    let period = p_min(&demand) / divisor;
    (demand, period)
}

/// Any demand regime, with the server period an odd or fractional
/// divisor of the shortest task period, so checkpoints fall at
/// non-integer multiples of Π.
fn arb_odd_divisor_case(rng: &mut DetRng) -> (Demand, f64) {
    let demand = arb_any_demand(rng);
    let divisor = [1.5, 3.0, 5.0, 7.0, 2.5, 3.7, 11.0, 13.0][rng.gen_range(0usize..8)];
    let period = p_min(&demand) / divisor;
    (demand, period)
}

/// Incommensurate periods of 1.3–4.3 ms on the microsecond grid: the
/// hyperperiod runs to seconds or is unrepresentable (then the bounded
/// 10 000 ms horizon applies), so each search walks thousands of
/// checkpoints.
fn arb_long_stream_case(rng: &mut DetRng) -> (Demand, f64) {
    let n = rng.gen_range(2usize..4);
    let tasks: Vec<(f64, f64)> = (0..n)
        .map(|_| {
            let period = 1.3 + f64::from(rng.gen_range(0u32..3_000_000)) * 1e-6;
            (period, rng.gen_range(0.05f64..0.3) * period)
        })
        .collect();
    let period = rng.gen_range(0.2f64..1.3);
    (Demand::new(tasks).expect("valid demand"), period)
}

/// Budget-search inputs aimed at the certified bisection's edges:
/// the 1e-9 tolerance, job-count boundaries, `U → 1`, odd server
/// periods and long checkpoint streams.
fn arb_adversarial_case(rng: &mut DetRng) -> (Demand, f64) {
    match rng.gen_range(0u32..5) {
        0 => arb_near_tolerance_case(rng),
        1 => arb_boundary_case(rng),
        2 => arb_saturated_case(rng),
        3 => arb_odd_divisor_case(rng),
        _ => arb_long_stream_case(rng),
    }
}

/// The historical checkpoint enumeration, written out naively:
/// per-task deadline multiples by running addition (the same float
/// progression the merge cursors follow), capped at `max_points`
/// multiples per task, then collect–sort–dedup–truncate. This is the
/// specification `Demand::checkpoints` documents — earliest points
/// survive both caps.
fn reference_checkpoints(demand: &Demand, horizon: f64, max_points: usize) -> Vec<f64> {
    let mut all = Vec::new();
    for (period, wcet) in demand.pairs() {
        if wcet == 0.0 {
            continue;
        }
        let mut t = period;
        let mut multiples = 0usize;
        while t <= horizon + 1e-9 && multiples < max_points {
            all.push(t);
            multiples += 1;
            t += period;
        }
    }
    all.sort_by(|a, b| a.partial_cmp(b).expect("checkpoints are finite"));
    all.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
    all.truncate(max_points);
    all
}

fn bits(points: &[f64]) -> Vec<u64> {
    points.iter().map(|p| p.to_bits()).collect()
}

#[test]
fn merged_checkpoint_stream_matches_sorted_dedup_reference() {
    check(192, |rng| {
        let demand = arb_any_demand(rng);
        let period = rng.gen_range(0.5f64..20.0);
        let horizon = analysis_horizon(&demand, period);
        // Mostly the production cap; sometimes a tiny one, so the
        // truncation path (keep the earliest points) is pinned too.
        let max_points = if rng.gen_range(0u32..4) == 0 {
            rng.gen_range(1usize..40)
        } else {
            MAX_CHECKPOINTS
        };
        let merged = demand.checkpoints(horizon, max_points);
        let reference = reference_checkpoints(&demand, horizon, max_points);
        assert_eq!(
            bits(&merged),
            bits(&reference),
            "merge diverged for tasks {:?} (horizon {horizon}, cap {max_points})",
            demand.pairs().collect::<Vec<_>>(),
        );
    });
}

/// The solver's search at `period` against the reference search on a
/// freshly built demand, compared bitwise.
fn assert_search_matches(solver: &MinBudgetSolver, demand: &Demand, period: f64) {
    let fast = solver.min_budget(period, demand.wcets()).expect("period within range");
    let reference = min_budget(demand, period);
    assert_eq!(
        fast.map(f64::to_bits),
        reference.map(f64::to_bits),
        "solver (Π_max {}) diverged for tasks {:?} at period {period}: {fast:?} vs {reference:?}",
        solver.max_period(),
        demand.pairs().collect::<Vec<_>>(),
    );
}

#[test]
fn workspace_can_schedule_matches_reference_verdict() {
    // The reference verdict accepts the solver's minimal budget and
    // refuses one well below the bisection's 1e-9 stop width.
    check(192, |rng| {
        let demand = arb_any_demand(rng);
        let max_period = rng.gen_range(0.5f64..20.0);
        let solver = MinBudgetSolver::new(demand.periods(), max_period).unwrap();
        let period = max_period / f64::from(1u32 << rng.gen_range(0u32..5));
        let Some(theta) = solver.min_budget(period, demand.wcets()).unwrap() else {
            // Infeasible: not even a dedicated processor schedules it.
            assert!(!PeriodicResource::new(period, period).can_schedule(&demand));
            return;
        };
        let tasks = demand.pairs().collect::<Vec<_>>();
        assert!(
            PeriodicResource::new(period, theta).can_schedule(&demand),
            "Γ({period}, {theta}) refuses {tasks:?}"
        );
        if theta > 1e-6 {
            assert!(
                !PeriodicResource::new(period, theta - 1e-6).can_schedule(&demand),
                "Γ({period}, {theta} − 1e-6) still schedules {tasks:?}"
            );
        }
    });
}

/// A WCET vector over `demand`'s periods: each task's WCET rescaled,
/// and now and then zeroed (the solver's reference route).
fn arb_wcets(rng: &mut DetRng, demand: &Demand) -> Vec<f64> {
    demand
        .pairs()
        .map(|(p, e)| match rng.gen_range(0u32..8) {
            0 => 0.0,
            1 => rng.gen_range(0.0f64..1.0) * p,
            _ => (e * rng.gen_range(0.25f64..2.0)).min(p),
        })
        .collect()
}

#[test]
fn workspace_min_budget_matches_fresh_demand_bitwise() {
    // One solver serves many WCET vectors at periods whose prefixes
    // grow and shrink from search to search: the demand and threshold
    // buffers of one search must not leak into the next. Incommensurate
    // tasksets are left out: every period walks the same fallback
    // horizon, so their prefixes never change length.
    check(96, |rng| {
        let demand = if rng.gen_range(0u32..2) == 0 {
            arb_harmonic_demand(rng)
        } else {
            arb_general_demand(rng)
        };
        let max_period = p_min(&demand).max(rng.gen_range(0.5f64..20.0));
        let solver = MinBudgetSolver::new(demand.periods(), max_period).unwrap();
        for _ in 0..2 {
            let wcets = arb_wcets(rng, &demand);
            let drawn = Demand::new(demand.periods().iter().copied().zip(wcets).collect())
                .expect("valid demand");
            let period = max_period / rng.gen_range(1.0f64..16.0);
            assert_search_matches(&solver, &drawn, period);
        }
    });
}

/// Checks a solver built at `max_period` at `max_period / divisor`
/// for a divisor drawn from {1, 2, 4, 8, 16}: the period search's
/// candidates, read from a prefix of the table.
fn assert_candidate_budget_matches(rng: &mut DetRng, demand: &Demand, max_period: f64) {
    let solver = MinBudgetSolver::new(demand.periods(), max_period).unwrap();
    let divisor = f64::from(1u32 << rng.gen_range(0u32..5));
    assert_search_matches(&solver, demand, max_period / divisor);
}

#[test]
fn solver_floor_table_matches_fresh_demand_bitwise() {
    // One table at Π_max serves every smaller period from its prefix.
    // Zero-WCET draws exercise the solver's fallback route;
    // all-positive draws its floor-table fast path.
    //
    // Π_max drawn apart from p_min: above it, the horizon 2Π can pass
    // the hyperperiod, so smaller periods read a strict prefix.
    check(128, |rng| {
        let demand = arb_any_demand(rng);
        let max_period = rng.gen_range(0.5f64..20.0);
        assert_candidate_budget_matches(rng, &demand, max_period);
    });
    // The certified bisection's edges, each at its own period, from a
    // table built at p_min whenever that period lies below it.
    check(192, |rng| {
        let (demand, period) = arb_adversarial_case(rng);
        let solver = MinBudgetSolver::new(demand.periods(), period.max(p_min(&demand))).unwrap();
        assert_search_matches(&solver, &demand, period);
    });
}

#[test]
fn solver_serves_period_search_candidates_from_one_table() {
    // The production shape: Π_max = p_min, queried at p_min/{1,2,4,8,16},
    // on harmonic, general and incommensurate (fallback-horizon)
    // tasksets.
    check(128, |rng| {
        let demand = arb_any_demand(rng);
        let max_period = p_min(&demand);
        assert_candidate_budget_matches(rng, &demand, max_period);
    });
    // Streams the checkpoint cap cuts (fixed cases: each reference
    // search walks 10⁵ points). With a hyperperiod of 0.003 ms the
    // horizon is 2Π, so the cap bites at Π_max = 300 but not at
    // Π_max/16, whose prefix ends near t = 37.5; without a hyperperiod
    // every period walks the same capped 10 000 ms stream.
    for (tasks, max_period) in [
        (vec![(0.001, 0.0001), (0.0015, 0.0002)], 300.0),
        (vec![(0.070001, 0.01), (0.070003, 0.02), (0.070007, 0.005)], 0.07),
    ] {
        let demand = Demand::new(tasks).expect("valid demand");
        let horizon = analysis_horizon(&demand, max_period);
        assert_eq!(demand.checkpoints(horizon, MAX_CHECKPOINTS).len(), MAX_CHECKPOINTS);
        let solver = MinBudgetSolver::new(demand.periods(), max_period).unwrap();
        for divisor in [1.0, 2.0, 4.0, 8.0, 16.0] {
            assert_search_matches(&solver, &demand, max_period / divisor);
        }
    }
}

#[test]
fn streaming_demand_equals_naive_dbf_at_every_checkpoint() {
    check(128, |rng| {
        let demand = arb_any_demand(rng);
        let period = rng.gen_range(0.5f64..20.0);
        let horizon = analysis_horizon(&demand, period);
        // The kernels evaluate per-point demand through the same
        // task-order expression as `dbf`; job-counter shortcuts would
        // drift. Pin dbf's own identity on the merged stream: each
        // point's demand equals the naive per-task floor sum.
        for t in demand.checkpoints(horizon, 512) {
            let naive: f64 = demand
                .pairs()
                .map(|(p, e)| ((t / p) + 1e-9).floor() * e)
                .sum();
            assert_eq!(demand.dbf(t).to_bits(), naive.to_bits());
        }
    });
}
