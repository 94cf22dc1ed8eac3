//! Streaming-admission benchmark: the warm-start [`AdmissionEngine`]
//! against a from-scratch comparator that re-runs the full
//! `allocate_with_degradation` solver after every request — the naive
//! admission controller the engine's incremental path replaces.
//!
//! ```text
//! cargo run --release -p vc2m-bench --bin admission_bench            # 1000 requests
//! cargo run --release -p vc2m-bench --bin admission_bench -- --full  # 5000 requests
//! VC2M_ADMIT_REQUESTS=120 ... admission_bench                        # CI smoke scale
//! ```
//!
//! Conformance comes first and gates the timings: the fast engine and
//! the reference engine (no memo or state cache, full verification
//! after every request) must produce byte-identical decision logs and
//! equal final allocations over the whole trace, the replay must be
//! deterministic (two fast runs, identical bytes), and the final
//! admitted state must pass `verify()`. Only then are the arms timed,
//! over the *same pre-materialized request stream* (trace decoding and
//! taskset generation are the workload author's cost, identical for
//! any controller, so they stay outside both timed regions).
//!
//! Two speedups are reported, deliberately separated:
//!
//! * `speedup_incremental_vs_scratch` — the headline: on the requests
//!   the engine served with warm-start work alone (incremental
//!   admissions, departures, incremental mode changes), the summed
//!   engine time against the summed time the from-scratch controller
//!   spends on those same requests. This is the direct price of a
//!   solver pass versus an in-place state update.
//! * `speedup_vs_scratch` — the whole-trace ratio, including the
//!   requests where the engine itself falls back to the full solver
//!   (repacks and solver rejections). Fallbacks cost both arms the
//!   same solver pass, so this ratio is diluted toward 1 exactly in
//!   proportion to the trace's rejection rate; it is the honest
//!   end-to-end number, not the headline.
//!
//! Results land in `results/BENCH_admission.json` with the engine's
//! `admission.*` metrics. `VC2M_ADMIT_FLOOR=<f64>` turns
//! `decisions_per_sec` into a hard gate (checked after the artifact is
//! written, so a failing run still leaves its numbers behind).

use std::time::Instant;
use vc2m::admission::{fleet_items, generate, replay, AdmissionTrace, TraceSpec};
use vc2m::prelude::*;
use vc2m_bench::timing::{metrics_json, JsonBuilder};
use vc2m_bench::{full_scale_requested, write_results};

/// The engine seed; also the trace-generator seed, matching the CLI's
/// `vc2m admit --seed 42` default so the two artifacts correspond.
const SEED: u64 = 42;

/// The no-shed policy of the engine's repack path, reused by the
/// comparator so both arms solve the same problem per request.
const NO_SHED: DegradationPolicy = DegradationPolicy { max_attempts: 1 };

fn requested_trace_size() -> usize {
    // No `.max(1)`: an explicit `VC2M_ADMIT_REQUESTS=0` is a valid
    // degenerate run (all rate fields become `null`), not something to
    // silently round up.
    match std::env::var("VC2M_ADMIT_REQUESTS") {
        Ok(raw) => raw
            .parse()
            .unwrap_or_else(|_| panic!("VC2M_ADMIT_REQUESTS must be a usize, got {raw:?}")),
        Err(_) => {
            if full_scale_requested() {
                5000
            } else {
                1000
            }
        }
    }
}

/// `numerator / denominator`, or `None` when the denominator is not a
/// positive finite quantity — an empty or all-departure trace can make
/// elapsed time or decision counts zero, and `0/0` must surface as
/// `null` in the JSON, not as NaN/inf.
fn guarded_rate(numerator: f64, denominator: f64) -> Option<f64> {
    (denominator.is_finite() && denominator > 0.0).then(|| numerator / denominator)
}

/// Renders a guarded rate for the console (`n/a` instead of NaN).
fn show(rate: Option<f64>, precision: usize) -> String {
    match rate {
        Some(value) => format!("{value:.precision$}"),
        None => "n/a".to_string(),
    }
}

/// Whether every decision in `decisions` was served without a solver
/// pass: incremental admissions, departures (including unknown-VM
/// rejections, which are O(1) lookups) — anything but a repack, a
/// solver rejection, or a degraded mode change.
fn all_incremental(decisions: &[AdmissionDecision]) -> bool {
    decisions.iter().all(|d| {
        let line = d.log_line();
        !line.contains("admitted/repack")
            && !line.contains("rejected (workload not schedulable)")
            && !line.contains("rejected (verification failed")
            && !line.contains("degraded")
    })
}

/// Replays the pre-materialized stream through a fresh engine, timing
/// each item. Returns the engine plus per-item microseconds.
fn timed_engine_pass(
    platform: &Platform,
    items: &[FleetWorkItem],
) -> (AdmissionEngine, Vec<f64>, Vec<bool>) {
    let mut engine = AdmissionEngine::new(*platform, AdmissionConfig::new(SEED));
    let mut per_item = Vec::with_capacity(items.len());
    let mut incremental = Vec::with_capacity(items.len());
    for item in items {
        let before = engine.decisions().len();
        let t = Instant::now();
        match item.clone() {
            FleetWorkItem::Single(request) => {
                engine.submit(request);
            }
            FleetWorkItem::Batch(requests) => {
                engine.submit_batch(requests);
            }
        }
        per_item.push(t.elapsed().as_secs_f64() * 1e6);
        incremental.push(all_incremental(&engine.decisions()[before..]));
    }
    (engine, per_item, incremental)
}

/// The from-scratch comparator: a working set of VM specs and one full
/// `allocate_with_degradation` pass per request — arrivals and mode
/// changes solve for the candidate set, departures re-solve for the
/// survivor set. Returns per-item microseconds.
fn timed_scratch_pass(platform: &Platform, items: &[FleetWorkItem]) -> Vec<f64> {
    let mut working: Vec<VmSpec> = Vec::new();
    let mut per_item = Vec::with_capacity(items.len());
    for item in items {
        let t = Instant::now();
        let requests = match item {
            FleetWorkItem::Single(request) => std::slice::from_ref(request),
            FleetWorkItem::Batch(requests) => requests,
        };
        for request in requests {
            match request {
                AdmissionRequest::Arrival(vm) | AdmissionRequest::ModeChange(vm) => {
                    let previous = working.clone();
                    working.retain(|w| w.id() != vm.id());
                    working.push(vm.clone());
                    let outcome =
                        allocate_with_degradation(Solution::Auto, &working, platform, SEED, &NO_SHED);
                    if outcome.allocation.is_none() {
                        working = previous;
                    }
                    std::hint::black_box(&outcome);
                }
                AdmissionRequest::Departure(id) => {
                    let had = working.iter().any(|w| w.id() == *id);
                    working.retain(|w| w.id() != *id);
                    if had && !working.is_empty() {
                        std::hint::black_box(allocate_with_degradation(
                            Solution::Auto,
                            &working,
                            platform,
                            SEED,
                            &NO_SHED,
                        ));
                    }
                }
            }
        }
        per_item.push(t.elapsed().as_secs_f64() * 1e6);
    }
    per_item
}

/// Best-of-`iters` total plus the per-item vector of the best pass.
fn best_of<T>(iters: usize, mut pass: impl FnMut() -> (Vec<f64>, T)) -> (f64, Vec<f64>, T) {
    let mut best: Option<(f64, Vec<f64>, T)> = None;
    for _ in 0..iters.max(1) {
        let (per_item, extra) = pass();
        let total: f64 = per_item.iter().sum();
        if best.as_ref().is_none_or(|(b, _, _)| total < *b) {
            best = Some((total, per_item, extra));
        }
    }
    best.expect("at least one iteration")
}

/// Everything but env/CLI plumbing and the floor gate: conformance,
/// the timed arms, the printed summary, and the JSON document. Returns
/// the document and the headline rate (`None` on a degenerate trace).
fn run(trace: &AdmissionTrace, iters: usize) -> (String, Option<f64>) {
    let platform = Platform::platform_a();
    let space = platform.resources();
    println!(
        "admission bench on {platform}: {} requests (seed {SEED})\n",
        trace.len()
    );

    // Conformance gates the timings: warm-start vs the full-verify
    // reference oracle, plus replay determinism and final safety.
    let mut fast = AdmissionEngine::new(platform, AdmissionConfig::new(SEED));
    replay(&mut fast, trace);
    let mut reference =
        AdmissionEngine::new(platform, AdmissionConfig::new(SEED).reference_mode());
    replay(&mut reference, trace);
    assert_eq!(
        fast.log_text(),
        reference.log_text(),
        "fast engine diverged from the reference oracle"
    );
    assert_eq!(
        fast.allocation(),
        reference.allocation(),
        "final allocations diverged between fast and reference engines"
    );
    let mut rerun = AdmissionEngine::new(platform, AdmissionConfig::new(SEED));
    replay(&mut rerun, trace);
    assert_eq!(
        fast.log_text(),
        rerun.log_text(),
        "fast engine replay is not deterministic"
    );
    if !fast.working_set().is_empty() {
        fast.allocation()
            .verify(&platform)
            .expect("admitted final state must be schedulable");
    }
    let stats = *fast.stats();
    println!(
        "conformant: {} admitted ({} incremental, {} repack), {} rejected, {} degraded, {} departed",
        stats.admitted_incremental + stats.admitted_repack,
        stats.admitted_incremental,
        stats.admitted_repack,
        stats.rejected,
        stats.degraded,
        stats.departed,
    );

    // Timed arms over the identical pre-materialized stream.
    let items = fleet_items(trace, space);
    let (engine_total, engine_items, (engine, incremental)) = best_of(iters, || {
        let (engine, per_item, incremental) = timed_engine_pass(&platform, &items);
        (per_item, (engine, incremental))
    });
    let (scratch_total, scratch_items, ()) =
        best_of(iters, || (timed_scratch_pass(&platform, &items), ()));

    // The paired incremental-path comparison: engine vs solver on the
    // requests the engine served without any solver pass.
    let mut engine_incremental_us = 0.0;
    let mut scratch_incremental_us = 0.0;
    let mut incremental_items = 0usize;
    for (i, &is_incremental) in incremental.iter().enumerate() {
        if is_incremental {
            engine_incremental_us += engine_items[i];
            scratch_incremental_us += scratch_items[i];
            incremental_items += 1;
        }
    }
    let incremental_speedup = guarded_rate(scratch_incremental_us, engine_incremental_us);
    let whole_trace_speedup = guarded_rate(scratch_total, engine_total);
    let decisions_per_sec = guarded_rate(trace.len() as f64, engine_total / 1e6);

    println!(
        "\nwarm-start engine:       {engine_total:>12.0} us total ({} us/request)",
        show(guarded_rate(engine_total, trace.len() as f64), 1)
    );
    println!(
        "from-scratch comparator: {scratch_total:>12.0} us total ({} us/request)",
        show(guarded_rate(scratch_total, trace.len() as f64), 1)
    );
    println!(
        "incremental-path pairs:  {incremental_items} items, {:.1} us engine vs {:.1} us scratch",
        engine_incremental_us, scratch_incremental_us
    );
    println!(
        "\nheadline: {} decisions/s; incremental admission {}x over from-scratch \
         re-allocation ({}x whole-trace incl. solver fallbacks)",
        show(decisions_per_sec, 0),
        show(incremental_speedup, 1),
        show(whole_trace_speedup, 2),
    );

    let mut metrics = vc2m::simcore::MetricsRegistry::new();
    engine.export_metrics(&mut metrics);
    // `JsonBuilder::num` renders non-finite values as `null`, so the
    // guarded `None`s are passed through as NaN deliberately.
    let json = JsonBuilder::new()
        .str("bench", "admission_bench")
        .str("scale", if full_scale_requested() { "full" } else { "quick" })
        .int("requests", trace.len() as u64)
        .int(
            "host_parallelism",
            std::thread::available_parallelism().map_or(1, |n| n.get()) as u64,
        )
        .int("seed", SEED)
        .bool("conformant", true)
        .num("decisions_per_sec", decisions_per_sec.unwrap_or(f64::NAN))
        .num(
            "speedup_incremental_vs_scratch",
            incremental_speedup.unwrap_or(f64::NAN),
        )
        .num("speedup_vs_scratch", whole_trace_speedup.unwrap_or(f64::NAN))
        .int("incremental_items", incremental_items as u64)
        .num("engine_total_us", engine_total)
        .num("scratch_total_us", scratch_total)
        .num("engine_incremental_us", engine_incremental_us)
        .num("scratch_incremental_us", scratch_incremental_us)
        .raw("engine_metrics", metrics_json(&metrics))
        .build();
    (json, decisions_per_sec)
}

fn main() {
    let requests = requested_trace_size();
    let trace = generate(&TraceSpec::new(requests, SEED));
    let iters = if full_scale_requested() { 5 } else { 3 };
    let (json, decisions_per_sec) = run(&trace, iters);
    let path = write_results("BENCH_admission.json", &json);
    println!("wrote {}", path.display());

    // Optional hard gate, after the artifact is written so a failing
    // run still leaves its numbers behind for debugging. A degenerate
    // run has no rate to gate on.
    if let Ok(floor) = std::env::var("VC2M_ADMIT_FLOOR") {
        let floor: f64 = floor
            .parse()
            .unwrap_or_else(|_| panic!("VC2M_ADMIT_FLOOR must be a float, got '{floor}'"));
        match decisions_per_sec {
            Some(rate) => assert!(
                rate >= floor,
                "decisions_per_sec {rate:.0} fell below the required floor {floor:.0}"
            ),
            None => println!("degenerate trace: no decisions_per_sec to gate on"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guarded_rate_handles_degenerate_denominators() {
        assert_eq!(guarded_rate(10.0, 2.0), Some(5.0));
        assert_eq!(guarded_rate(10.0, 0.0), None);
        assert_eq!(guarded_rate(0.0, 0.0), None);
        assert_eq!(guarded_rate(10.0, -1.0), None);
        assert_eq!(guarded_rate(10.0, f64::NAN), None);
        assert_eq!(show(None, 1), "n/a");
        assert_eq!(show(Some(1.25), 1), "1.2");
    }

    /// `VC2M_ADMIT_REQUESTS=0` end-to-end: the empty trace runs clean
    /// through conformance and both timed arms, every rate field is
    /// `null` (never NaN/inf text), and there is no rate to gate on.
    #[test]
    fn zero_request_trace_emits_null_rates() {
        let trace = generate(&TraceSpec::new(0, SEED));
        assert_eq!(trace.len(), 0);
        let (json, rate) = run(&trace, 1);
        assert_eq!(rate, None);
        assert!(json.contains("\"decisions_per_sec\": null"), "{json}");
        assert!(json.contains("\"speedup_vs_scratch\": null"), "{json}");
        assert!(
            json.contains("\"speedup_incremental_vs_scratch\": null"),
            "{json}"
        );
        assert!(!json.contains("NaN") && !json.contains("inf"), "{json}");
    }

    /// An all-departure trace (every request an unknown-VM departure)
    /// also stays finite-or-null: decisions exist, but no incremental
    /// admission pair and no scratch solver pass ever runs.
    #[test]
    fn all_departure_trace_stays_finite_or_null() {
        use vc2m::admission::{TraceItem, TraceRequest};
        let items = (1..=5)
            .map(|vm| TraceItem::Single(TraceRequest::Depart { vm }))
            .collect();
        let trace = AdmissionTrace::from_items(items).unwrap();
        let (json, _) = run(&trace, 1);
        assert!(!json.contains("NaN") && !json.contains("inf"), "{json}");
    }
}
