//! The admission workloads: `steady`, `overload` and `retry_storm`.
//!
//! Each is a closed loop with one client: the next work item goes out
//! when the previous decision returns. Every pass replays the identical
//! pre-materialised stream into a fresh controller.

use crate::calls::{
    self, AdmissionInput, AdmissionVerdict, Controller, FleetWorkItem, RequestKind,
};
use crate::report::{Report, CLASSES, ENGINE_COUNTERS, KERNEL_COUNTERS, SOLVER_CLASSES};
use crate::spans::Tracer;
use crate::stats::{self, percentile};
use crate::Run;
use std::time::Instant;

/// Journal record item id for spans outside any work item.
const NO_ITEM: u64 = u64::MAX;

/// One admission workload's shape.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Trace generator preset.
    pub shape: calls::TraceShape,
    /// Independent streams at default scale.
    pub streams: usize,
    /// Requests per stream at default scale.
    pub requests: usize,
    /// Requests at smoke scale.
    pub smoke_requests: usize,
    /// Whether decisions are journaled and recovery is measured.
    pub journaled: bool,
}

/// The seed of stream `k`: each stream is an independent trace, so a
/// run averages over several traces rather than one.
fn stream_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(k as u64)
}

/// The class of a work item, decided from outside by its request kind,
/// verdict and the engine-counter deltas across the call.
fn classify(
    ctl: &Controller,
    batch: bool,
    first: usize,
    before: &calls::AdmissionStats,
    after: &calls::AdmissionStats,
) -> usize {
    let index = |name: &str| {
        CLASSES
            .iter()
            .position(|c| *c == name)
            .expect("known class")
    };
    if batch {
        return index("batch");
    }
    let (decision, _) = ctl.decision(first);
    let name = match (decision.kind, &decision.verdict) {
        (RequestKind::Arrival, AdmissionVerdict::Admitted { path }) => match path {
            calls::AdmissionPath::Incremental => "arrive_incremental",
            calls::AdmissionPath::Repack => "arrive_repack",
        },
        (RequestKind::Arrival, _) if after.repack_attempts > before.repack_attempts => {
            "arrive_reject_solver"
        }
        (RequestKind::Arrival, _) if after.memo_hits > before.memo_hits => "arrive_reject_memo",
        (RequestKind::Arrival, _) => "arrive_reject_fast",
        (RequestKind::ModeChange, AdmissionVerdict::Admitted { .. }) => "mode_admitted",
        (RequestKind::ModeChange, _) => "mode_degraded",
        (RequestKind::Departure, AdmissionVerdict::Departed) => "depart_ok",
        (RequestKind::Departure, _) => "depart_unknown",
    };
    index(name)
}

/// What one pass over the stream measured.
struct Pass {
    /// Per work item: submit plus journal append, microseconds.
    item_us: Vec<f64>,
    /// Per work item: its class index.
    class: Vec<usize>,
    /// Per work item: decisions it produced.
    decisions: Vec<usize>,
    /// Per solver class: (min_budget_calls, can_schedule_calls).
    class_kernel: [(u64, u64); 3],
    kernel: calls::KernelCounters,
    stats: calls::AdmissionStats,
    log_digest: u64,
    admitted: u64,
    admission_requests: u64,
    /// Sum over decisions of the admitted utilization held by all hosts
    /// after the decision.
    held_load: f64,
    per_host: Vec<u64>,
    /// Render + parse + recover, seconds (journaled workloads).
    recover_s: Option<f64>,
    recovered_ok: bool,
    journal_bytes: usize,
    /// Singles whose host disagreed with the shadow router.
    route_mismatches: u64,
    route_stats: Option<[u64; 3]>,
    /// Decisions in the controller's log after the pass.
    logged: usize,
}

impl Pass {
    fn decision_total(&self) -> usize {
        self.decisions.iter().sum()
    }
}

/// One pass over every stream, each into a fresh controller. With
/// `shadow`, every request is also routed by a shadow `FleetRouter` (a
/// root span of its own) and its host compared with the fleet's.
fn pass(streams: &[AdmissionInput], journaled: bool, shadow: bool, t: &mut Tracer) -> Pass {
    let n: usize = streams.iter().map(|s| s.items.len()).sum();
    let mut out = Pass {
        item_us: Vec::with_capacity(n),
        class: Vec::with_capacity(n),
        decisions: Vec::with_capacity(n),
        class_kernel: [(0, 0); 3],
        kernel: calls::KernelCounters::new(),
        stats: Default::default(),
        log_digest: 0,
        admitted: 0,
        admission_requests: 0,
        held_load: 0.0,
        per_host: vec![0; streams[0].hosts],
        recover_s: journaled.then_some(0.0),
        recovered_ok: true,
        journal_bytes: 0,
        route_mismatches: 0,
        route_stats: shadow.then_some([0; 3]),
        logged: 0,
    };
    let mut logs = String::new();
    for stream in streams {
        logs.push_str(&stream_pass(stream, journaled, shadow, t, &mut out));
    }
    out.log_digest = stats::digest(logs.as_bytes());
    out
}

/// Replays one stream into a fresh controller, adding to `out`;
/// returns the stream's decision log.
fn stream_pass(
    input: &AdmissionInput,
    journaled: bool,
    shadow: bool,
    t: &mut Tracer,
    out: &mut Pass,
) -> String {
    let mut ctl = Controller::new(input.hosts, input.seed);
    let mut router = shadow.then(|| calls::shadow_router(input.hosts));
    let mut journal = calls::DecisionJournal::new();
    let mut host_load = vec![0.0; input.hosts];
    for (i, item) in input.items.iter().enumerate() {
        let id = out.item_us.len() as u64;
        // Only single requests are shadow-routed: the fleet routes a
        // batch's members in its own canonical order, and the traces
        // of the multi-host workload carry no batches.
        let mut shadow_host = None;
        if let (Some(router), FleetWorkItem::Single(request)) = (router.as_mut(), item) {
            let span = t.begin("fleet.route", id);
            shadow_host = Some(calls::route(router, request));
            t.end(span);
        }
        let batch = matches!(item, FleetWorkItem::Batch(_));
        let request = item.clone();
        let lines = if journaled {
            input.lines[i].clone()
        } else {
            Vec::new()
        };
        let before = ctl.stats();
        let first = ctl.decision_count();
        let kernel_before = calls::kernel_counters();

        let root = t.begin("admission.item", id);
        let start = Instant::now();
        let submit = t.begin("admission.submit", id);
        ctl.submit(request);
        t.end(submit);
        if journaled {
            let append = t.begin("recovery.append", id);
            let decisions = (first..ctl.decision_count())
                .map(|d| calls::decision_line(ctl.decision(d).0))
                .collect();
            calls::journal_append(&mut journal, batch, lines, decisions);
            t.end(append);
        }
        let elapsed = start.elapsed();
        t.end(root);

        let kernel = calls::kernel_counters().since(&kernel_before);
        let after = ctl.stats();
        let class = classify(&ctl, batch, first, &before, &after);
        t.rename(submit, class_span(class));
        if let Some(k) = SOLVER_CLASSES.iter().position(|c| *c == CLASSES[class]) {
            out.class_kernel[k].0 += kernel.min_budget_calls;
            out.class_kernel[k].1 += kernel.can_schedule_calls;
        }
        out.kernel.merge(&kernel);
        let count = ctl.decision_count();
        for d in first..count {
            let (decision, host) = ctl.decision(d);
            out.per_host[host] += 1;
            host_load[host] = decision.load;
            out.held_load += host_load.iter().sum::<f64>();
            if decision.kind != RequestKind::Departure {
                out.admission_requests += 1;
                if matches!(decision.verdict, AdmissionVerdict::Admitted { .. }) {
                    out.admitted += 1;
                }
            }
            if shadow_host.is_some_and(|h| h != host) {
                out.route_mismatches += 1;
            }
        }
        out.item_us.push(elapsed.as_secs_f64() * 1e6);
        out.class.push(class);
        out.decisions.push(count - first);
    }
    out.stats = out.stats.merged(&ctl.stats());
    out.logged += ctl.decision_count();
    let log = ctl.log_text();
    if let (Some(router), Some(sum)) = (router, out.route_stats.as_mut()) {
        let s = router.stats();
        sum[0] += s.best_fit_routes;
        sum[1] += s.retry_routes;
        sum[2] += s.saturated_routes;
    }
    if journaled {
        let start = Instant::now();
        let span = t.begin("recovery.render", NO_ITEM);
        let text = calls::journal_render(&journal);
        t.end(span);
        let span = t.begin("recovery.parse", NO_ITEM);
        let parsed = calls::journal_parse(&text);
        t.end(span);
        let span = t.begin("recovery.replay", NO_ITEM);
        let recovered = parsed.and_then(|j| calls::journal_recover(&j, input.seed));
        t.end(span);
        if let Some(total) = out.recover_s.as_mut() {
            *total += start.elapsed().as_secs_f64();
        }
        out.recovered_ok &= recovered.is_ok_and(|l| l == log);
        out.journal_bytes += text.len();
    }
    log
}

/// Span names of the classes (spans carry `&'static str` names).
fn class_span(class: usize) -> &'static str {
    const SPANS: [&str; 10] = [
        "admission.arrive_incremental",
        "admission.arrive_repack",
        "admission.arrive_reject_solver",
        "admission.arrive_reject_memo",
        "admission.arrive_reject_fast",
        "admission.mode_admitted",
        "admission.mode_degraded",
        "admission.depart_ok",
        "admission.depart_unknown",
        "admission.batch",
    ];
    SPANS[class]
}

/// The untimed check pass: the full verifier after every admitting
/// decision, and on a fleet a shadow `FleetRouter` whose host must
/// match every single request's. Returns (admitting decisions
/// verified, verifier failures, router disagreements, log digest).
fn verify_pass(streams: &[AdmissionInput]) -> (u64, u64, u64, u64) {
    let (mut verified, mut failed, mut mismatches) = (0, 0, 0);
    let mut logs = String::new();
    for input in streams {
        let mut ctl = Controller::new(input.hosts, input.seed);
        let mut router = (input.hosts > 1).then(|| calls::shadow_router(input.hosts));
        for item in &input.items {
            let shadow = match (router.as_mut(), item) {
                (Some(router), FleetWorkItem::Single(request)) => {
                    Some(calls::route(router, request))
                }
                _ => None,
            };
            let first = ctl.decision_count();
            ctl.submit(item.clone());
            for d in first..ctl.decision_count() {
                let (decision, host) = ctl.decision(d);
                if shadow.is_some_and(|h| h != host) {
                    mismatches += 1;
                }
                if matches!(decision.verdict, AdmissionVerdict::Admitted { .. }) {
                    verified += 1;
                    if ctl.verify_host(host).is_err() {
                        failed += 1;
                    }
                }
            }
        }
        logs.push_str(&ctl.log_text());
    }
    (verified, failed, mismatches, stats::digest(logs.as_bytes()))
}

/// Runs one admission workload.
pub fn run(spec: Spec, run: &Run, report: &mut Report) -> usize {
    let (streams, requests) = if run.smoke {
        (1, spec.smoke_requests)
    } else {
        (spec.streams, spec.requests)
    };
    let input = crate::setup(report, || {
        (0..streams)
            .map(|k| calls::admission_input(spec.shape, requests, stream_seed(run.seed, k)))
            .collect::<Vec<_>>()
    });
    let journaled = spec.journaled;
    let passes = crate::timed_passes(run, || pass(&input, journaled, false, &mut Tracer::off()));
    let decisions = passes[0].decision_total() as u64;
    report.ops = decisions * passes.len() as u64;

    // End to end: each request's minimum over the passes.
    let item_min =
        stats::per_item_minimum(&passes.iter().map(|p| p.item_us.clone()).collect::<Vec<_>>());
    let arrival = |us: &[f64]| -> Vec<f64> {
        let v: Vec<f64> = us
            .iter()
            .zip(&passes[0].class)
            .filter(|(_, &c)| !CLASSES[c].starts_with("depart"))
            .map(|(&u, _)| u)
            .collect();
        stats::sorted(&v)
    };
    let samples = arrival(&item_min);
    let busy_min_s: f64 = item_min.iter().sum::<f64>() / 1e6;
    let rate = decisions as f64 / busy_min_s;
    let (tail_p, tail_us) = stats::tail(&samples);
    report.set("ops_per_s", "1/s", rate);
    report.set("op_p50_us", "us", stats::median(&samples));
    report.set("op_tail_us", "us", tail_us);
    report.set("op_tail_pct", "pct", tail_p);
    report.set("op_samples", "count", samples.len() as f64);
    // Quality: the share of the platform's cores the controller keeps
    // filled with admitted utilization, averaged over its decisions.
    let capacity = (input[0].hosts * calls::platform().cores()) as f64;
    let held = passes[0].held_load / decisions as f64 / capacity;
    report.set("quality", "fraction", held);
    let admit_ratio = passes[0].admitted as f64 / passes[0].admission_requests.max(1) as f64;

    report.set("decisions_per_s", "1/s", rate);
    report.put("arrival_p50_us", "us", percentile(&samples, 50.0));
    report.put("arrival_p99_us", "us", percentile(&samples, 99.0));
    report.set("arrival_samples", "count", samples.len() as f64);
    report.set("admit_ratio", "fraction", admit_ratio);
    let live_s = |p: &Pass| p.item_us.iter().sum::<f64>() / 1e6;
    let pass_live: Vec<f64> = stats::sorted(&passes.iter().map(live_s).collect::<Vec<_>>());
    report.set(
        "decisions_per_s.median_pass",
        "1/s",
        decisions as f64 / stats::median(&pass_live),
    );
    let pass_busy: Vec<f64> = stats::sorted(
        &passes
            .iter()
            .map(|p| live_s(p) + p.recover_s.unwrap_or(0.0))
            .collect::<Vec<_>>(),
    );
    let pass_p99: Vec<f64> = passes
        .iter()
        .filter_map(|p| percentile(&arrival(&p.item_us), 99.0))
        .collect();
    report.put(
        "arrival_p99_us.median_pass",
        "us",
        (!pass_p99.is_empty()).then(|| stats::median(&stats::sorted(&pass_p99))),
    );
    if journaled {
        let recover: Vec<f64> = stats::sorted(
            &passes
                .iter()
                .filter_map(|p| p.recover_s)
                .collect::<Vec<_>>(),
        );
        report.set("recover_s", "s", recover[0]);
        report.set("recover_s.median_pass", "s", stats::median(&recover));
    }

    // Per layer: the traced pass.
    let multi_host = input[0].hosts > 1;
    let mut traced = None;
    if run.per_layer {
        let mut tracer = Tracer::on();
        let p = pass(&input, journaled, multi_host, &mut tracer);
        per_layer(report, &p, &tracer, &pass_busy);
        if let Some(dir) = &run.spans_dir {
            crate::write_spans(dir, &run.workload, &tracer);
        }
        traced = Some(p);
    }

    // Correctness.
    let (verified, verify_failed, route_mismatches, verify_digest) = verify_pass(&input);
    let digest = passes[0].log_digest;
    let all_digests =
        passes.iter().chain(&traced).all(|p| p.log_digest == digest) && verify_digest == digest;
    report.check(
        "decision_log_identical_across_passes",
        all_digests,
        report.ops,
    );
    report.check("verify_after_every_admission", verify_failed == 0, verified);
    if journaled {
        let ok = passes.iter().chain(&traced).all(|p| p.recovered_ok);
        report.check("recovered_log_equals_live_log", ok, report.ops);
    }
    if multi_host {
        let traced_mismatches = traced.as_ref().map_or(0, |p| p.route_mismatches);
        let agree = route_mismatches + traced_mismatches == 0;
        report.check("shadow_router_agrees_with_fleet", agree, decisions);
    }
    let requests: usize = input.iter().flat_map(|s| &s.lines).map(Vec::len).sum();
    let counts_ok = passes.iter().all(|p| {
        p.decision_total() == p.logged && p.logged == requests && p.class == passes[0].class
    });
    report.check(
        "classes_repeat_and_cover_every_decision",
        counts_ok,
        decisions,
    );
    passes.len()
}

/// Per-layer metrics from the traced pass `p`.
fn per_layer(report: &mut Report, p: &Pass, tracer: &Tracer, untraced_busy: &[f64]) {
    let layers = tracer.layers();
    let busy = tracer.busy_s();
    let fleet_route_s = layers.get("fleet.route").map_or(0.0, |l| l.self_s);
    report.set("traced.busy_s", "s", busy);
    // The shadow router is extra work of the traced pass, not tracing
    // overhead, so it is left out of the comparison.
    let traced_loop = busy - fleet_route_s;
    report.set(
        "trace_overhead_pct",
        "%",
        (traced_loop / stats::median(untraced_busy) - 1.0) * 100.0,
    );
    let share = |s: f64| if busy > 0.0 { s / busy } else { 0.0 };
    for (c, class) in CLASSES.iter().enumerate() {
        let count: usize = p
            .class
            .iter()
            .zip(&p.decisions)
            .filter(|(&k, _)| k == c)
            .map(|(_, &d)| d)
            .sum();
        let layer = layers.get(class_span(c));
        let busy_s = layer.map_or(0.0, |l| l.self_s);
        let durations = layer
            .map(|l| stats::sorted(&l.durations_us))
            .unwrap_or_default();
        report.set(format!("admission.{class}.count"), "count", count as f64);
        report.set(format!("admission.{class}.busy_s"), "s", busy_s);
        report.set(
            format!("admission.{class}.busy_share"),
            "fraction",
            share(busy_s),
        );
        report.put(
            format!("admission.{class}.p50_us"),
            "us",
            percentile(&durations, 50.0),
        );
        report.put(
            format!("admission.{class}.p99_us"),
            "us",
            percentile(&durations, 99.0),
        );
    }
    for (k, class) in SOLVER_CLASSES.iter().enumerate() {
        report.set(
            format!("admission.{class}.min_budget_calls"),
            "count",
            p.class_kernel[k].0 as f64,
        );
        report.set(
            format!("admission.{class}.can_schedule_calls"),
            "count",
            p.class_kernel[k].1 as f64,
        );
    }
    let s = &p.stats;
    let counters = [
        s.dirty_cores_verified,
        s.repack_attempts,
        s.memo_hits,
        s.memo_inserts,
        s.memo_invalidations,
        s.core_upgrades,
        s.cores_opened,
    ];
    for (name, value) in ENGINE_COUNTERS.iter().zip(counters) {
        report.set(format!("admission.{name}"), "count", value as f64);
    }
    let ratio = |a: u64, b: u64| {
        if a + b > 0 {
            a as f64 / (a + b) as f64
        } else {
            0.0
        }
    };
    report.set(
        "admission.memo_hit_ratio",
        "fraction",
        ratio(s.memo_hits, s.memo_inserts),
    );
    report.set(
        "admission.incremental_share",
        "fraction",
        ratio(s.admitted_incremental, s.admitted_repack),
    );
    let k = &p.kernel;
    let kernel = [
        k.checkpoint_merges,
        k.checkpoints_emitted,
        k.checkpoints_truncated,
        k.fallback_horizons,
        k.can_schedule_calls,
        k.min_budget_calls,
        k.solver_calls,
        k.vcpu_builds,
    ];
    for (name, value) in KERNEL_COUNTERS.iter().zip(kernel) {
        report.set(format!("sched.kernel.{name}"), "count", value as f64);
    }
    if let Some([best_fit, retry, saturated]) = p.route_stats {
        let durations = layers
            .get("fleet.route")
            .map(|l| stats::sorted(&l.durations_us))
            .unwrap_or_default();
        report.put("fleet.route.p50_us", "us", percentile(&durations, 50.0));
        report.put("fleet.route.p99_us", "us", percentile(&durations, 99.0));
        report.set("fleet.route.busy_s", "s", fleet_route_s);
        report.set("fleet.route.busy_share", "fraction", share(fleet_route_s));
        report.set("fleet.best_fit_routes", "count", best_fit as f64);
        report.set("fleet.retry_routes", "count", retry as f64);
        report.set("fleet.saturated_routes", "count", saturated as f64);
        let loads: Vec<f64> = p.per_host.iter().map(|&n| n as f64).collect();
        let mean = loads.iter().sum::<f64>() / loads.len() as f64;
        let spread = loads.iter().cloned().fold(f64::MIN, f64::max)
            - loads.iter().cloned().fold(f64::MAX, f64::min);
        report.set(
            "fleet.host_skew",
            "fraction",
            if mean > 0.0 { spread / mean } else { 0.0 },
        );
    }
    if let Some(append) = layers.get("recovery.append") {
        report.put(
            "recovery.append.p50_us",
            "us",
            percentile(&stats::sorted(&append.durations_us), 50.0),
        );
        report.set("recovery.append.busy_s", "s", append.self_s);
        report.set("recovery.journal_bytes", "bytes", p.journal_bytes as f64);
        for stage in ["append", "render", "parse", "replay"] {
            let self_s = layers
                .get(format!("recovery.{stage}").as_str())
                .map_or(0.0, |l| l.self_s);
            if stage != "append" {
                report.set(format!("recovery.{stage}_s"), "s", self_s);
            }
            report.set(
                format!("recovery.{stage}.busy_share"),
                "fraction",
                share(self_s),
            );
        }
    }
}
