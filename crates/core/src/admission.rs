//! Replayable admission-request traces and the streaming driver.
//!
//! The admission engine ([`vc2m_alloc::admission`]) consumes a stream
//! of arrival/departure/mode-change requests. This module defines the
//! *trace*: a seeded, fully replayable representation of such a stream
//! with a stable text format (`vc2m-admission-trace-v1`), a generator
//! producing fleet-style churn (bounded live-set size, small VMs,
//! occasional mode changes and concurrent-arrival batches), and the
//! driver that replays a trace into an engine. A fleet replays the
//! same trace through [`fleet_items`] and [`AdmissionFleet::replay`].
//!
//! [`AdmissionFleet::replay`]: vc2m_alloc::AdmissionFleet::replay
//!
//! # Text format
//!
//! One request per line; `#` starts a comment. Utilizations are stored
//! in milli-units and rendered with three decimals, so parse → render
//! round-trips byte-for-byte:
//!
//! ```text
//! # vc2m-admission-trace-v1
//! hosts 4
//! arrive 1 0.180 9054
//! mode 1 0.240 117
//! depart 1
//! batch 2
//! arrive 2 0.120 53
//! arrive 3 0.305 99
//! ```
//!
//! A `batch n` header (`n >= 1`) groups the next `n` arrivals into one
//! concurrent batch (admitted order-independently by the engine). An
//! optional `hosts n` directive (before any request) sizes the fleet
//! the trace targets; it is omitted from the rendering when `n == 1`, so
//! single-host traces keep their historical byte form. An optional
//! `crit <vm> <vm> ...` directive (at most one, before any request,
//! ids strictly increasing) marks those VMs HI-criticality — every VM
//! it does not name is LO, and the directive is omitted from the
//! rendering when no VM is HI, so historical trace bytes are
//! unchanged. Directives are strict: a duplicate `hosts`/`crit` line,
//! an out-of-order directive, or an unknown keyword is rejected with
//! the offending line number rather than silently tolerated.
//!
//! # Determinism
//!
//! A request's VM is materialized from `(vm id, utilization, taskset
//! seed)` alone — independent of the rest of the trace — so replaying
//! any trace against [`AdmissionEngine`]s with equal configuration
//! yields byte-identical decision logs, and a trace file pins its
//! whole workload.

// Library code reports failures as values: malformed traces are
// line-numbered errors, and the two generator invariants in
// `trace_vm` carry audited `#[allow]`s with their reasons. CI runs
// clippy with `-D warnings`, which makes these denials there.
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::fmt::Write as _;
use vc2m_alloc::recovery::{recover_engine, DecisionJournal, RecoveryError};
use vc2m_alloc::{AdmissionConfig, AdmissionEngine, AdmissionRequest, Criticality, FleetWorkItem};
use vc2m_model::Platform;
use vc2m_model::{ResourceSpace, Task, TaskId, TaskSet, VmId, VmSpec};
use vc2m_rng::{DetRng, Rng};
use vc2m_workload::{TasksetConfig, TasksetGenerator, UtilizationDist};

/// The first line every rendered trace carries.
pub const TRACE_HEADER: &str = "# vc2m-admission-trace-v1";

/// One request of a trace, in its replayable (pre-materialized) form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceRequest {
    /// A VM arrives: `arrive <vm> <utilization> <seed>`.
    Arrive {
        /// The VM id.
        vm: usize,
        /// Target reference utilization in milli-units (`180` ⇒ `0.180`).
        utilization_milli: u32,
        /// Seed for the VM's taskset.
        seed: u64,
    },
    /// A VM departs: `depart <vm>`.
    Depart {
        /// The VM id.
        vm: usize,
    },
    /// A VM changes mode (replaces its taskset):
    /// `mode <vm> <utilization> <seed>`.
    Mode {
        /// The VM id.
        vm: usize,
        /// The new mode's utilization in milli-units.
        utilization_milli: u32,
        /// Seed for the new mode's taskset.
        seed: u64,
    },
}

impl TraceRequest {
    /// Renders the request's stable one-line text form (also the
    /// request half of a journal record — see [`replay`]).
    ///
    /// The utilization prints as `milli / 1000`, `.`, and `milli %
    /// 1000` padded to three digits: the bytes `{:.3}` prints for
    /// `milli as f64 / 1000.0`, without rendering a float.
    pub fn render(&self) -> String {
        let (keyword, vm, milli, seed) = match *self {
            TraceRequest::Arrive {
                vm,
                utilization_milli,
                seed,
            } => ("arrive", vm, utilization_milli, seed),
            TraceRequest::Depart { vm } => return format!("depart {vm}"),
            TraceRequest::Mode {
                vm,
                utilization_milli,
                seed,
            } => ("mode", vm, utilization_milli, seed),
        };
        format!("{keyword} {vm} {}.{:03} {seed}", milli / 1000, milli % 1000)
    }

    /// Parses a single request line — the inverse of [`render`], for
    /// callers (like journal recovery) that hold one request line
    /// outside a full trace. The error carries no line number.
    ///
    /// [`render`]: TraceRequest::render
    pub fn parse_line(line: &str) -> Result<TraceRequest, String> {
        parse_request_bare(line.trim())
    }

    /// Whether the request can be materialized, with the parser's
    /// message where it cannot: an arrival or a mode change must ask
    /// for some utilization, and for no more than the parser accepts.
    fn check(&self) -> Result<(), String> {
        match *self {
            TraceRequest::Arrive {
                utilization_milli,
                ..
            }
            | TraceRequest::Mode {
                utilization_milli,
                ..
            } => {
                if utilization_milli == 0 {
                    Err(rounds_to_zero(0.0))
                } else if utilization_milli > MAX_UTILIZATION_MILLI {
                    Err(out_of_range(f64::from(utilization_milli) / 1000.0))
                } else {
                    Ok(())
                }
            }
            TraceRequest::Depart { .. } => Ok(()),
        }
    }
}

/// The largest utilization a request may ask for, in milli-units.
const MAX_UTILIZATION_MILLI: u32 = 1_000_000;

/// The error for a utilization below 0.0005, which rounds to zero
/// milli-units: no taskset can be generated for it.
fn rounds_to_zero(utilization: f64) -> String {
    format!("utilization {utilization} rounds to zero (the least is 0.0005)")
}

/// The error for a utilization past the largest one accepted.
fn out_of_range(utilization: f64) -> String {
    format!("utilization {utilization} out of range")
}

/// The error for a batch with no member.
const EMPTY_BATCH: &str = "batch arity must be at least 1";

/// The error for a batch member other than an arrival.
const BATCH_MEMBER: &str = "only arrivals may appear in a batch";

/// The error for a `crit` directive out of canonical order.
const CRIT_ORDER: &str = "crit vm ids must be strictly increasing";

/// One scheduling unit of a trace: a single request, or a batch of
/// concurrent arrivals admitted in one pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceItem {
    /// One request processed on its own.
    Single(TraceRequest),
    /// Concurrent arrivals admitted as one order-independent batch.
    Batch(Vec<TraceRequest>),
}

/// A replayable admission-request trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmissionTrace {
    items: Vec<TraceItem>,
    hosts: usize,
    /// HI-criticality VM ids, strictly increasing (the `crit`
    /// directive); every other VM is LO.
    hi_vms: Vec<usize>,
}

impl Default for AdmissionTrace {
    fn default() -> Self {
        AdmissionTrace {
            items: Vec::new(),
            hosts: 1,
            hi_vms: Vec::new(),
        }
    }
}

impl AdmissionTrace {
    /// Builds a single-host, all-LO trace from items.
    ///
    /// # Errors
    ///
    /// Refuses exactly the items [`AdmissionTrace::parse`] refuses,
    /// with the parser's message naming the 1-based item: a request
    /// whose utilization rounds to zero or is out of range (see
    /// [`materialize`]), an empty batch, and a batch member that is not
    /// an arrival.
    pub fn from_items(items: Vec<TraceItem>) -> Result<Self, String> {
        for (number, item) in (1..).zip(&items) {
            let checked = match item {
                TraceItem::Single(request) => request.check(),
                TraceItem::Batch(requests) if requests.is_empty() => Err(EMPTY_BATCH.to_string()),
                // Member by member, as the parser reads them: the
                // request first, then whether it is an arrival.
                TraceItem::Batch(requests) => requests.iter().try_for_each(|request| {
                    request.check()?;
                    match request {
                        TraceRequest::Arrive { .. } => Ok(()),
                        _ => Err(BATCH_MEMBER.to_string()),
                    }
                }),
            };
            checked.map_err(|e| format!("item {number}: {e}"))?;
        }
        Ok(AdmissionTrace {
            items,
            hosts: 1,
            hi_vms: Vec::new(),
        })
    }

    /// Marks the given VM ids HI-criticality (the `crit` directive).
    ///
    /// # Errors
    ///
    /// Refuses ids that are not strictly increasing, with the parser's
    /// message: that is the canonical form the parser enforces, so
    /// render → parse stays an exact round trip.
    pub fn with_hi_vms(mut self, hi_vms: Vec<usize>) -> Result<Self, String> {
        if !hi_vms.windows(2).all(|w| w[0] < w[1]) {
            return Err(CRIT_ORDER.to_string());
        }
        self.hi_vms = hi_vms;
        Ok(self)
    }

    /// The HI-criticality VM ids, strictly increasing (empty when the
    /// trace carries no `crit` directive).
    pub fn hi_vms(&self) -> &[usize] {
        &self.hi_vms
    }

    /// The criticality of `vm` under this trace's `crit` directive
    /// (LO when unnamed).
    pub fn criticality_of(&self, vm: usize) -> Criticality {
        if self.hi_vms.binary_search(&vm).is_ok() {
            Criticality::Hi
        } else {
            Criticality::Lo
        }
    }

    /// Sets the fleet size the trace targets (the `hosts` directive).
    ///
    /// # Panics
    ///
    /// Panics if `hosts` is zero.
    pub fn with_hosts(mut self, hosts: usize) -> Self {
        assert!(hosts >= 1, "a trace targets at least one host");
        self.hosts = hosts;
        self
    }

    /// The fleet size the trace targets (1 when no directive was set).
    pub fn hosts(&self) -> usize {
        self.hosts
    }

    /// The trace's items in replay order.
    pub fn items(&self) -> &[TraceItem] {
        &self.items
    }

    /// Total number of requests (batch members count individually).
    pub fn len(&self) -> usize {
        self.items
            .iter()
            .map(|item| match item {
                TraceItem::Single(_) => 1,
                TraceItem::Batch(requests) => requests.len(),
            })
            .sum()
    }

    /// Whether the trace holds no requests.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Renders the stable text form (header + one line per request,
    /// newline-terminated). `parse` of the result reproduces `self`.
    pub fn render(&self) -> String {
        let mut text = String::from(TRACE_HEADER);
        text.push('\n');
        // Writing into a `String` cannot fail, so the results below
        // are discarded.
        if self.hosts > 1 {
            let _ = writeln!(text, "hosts {}", self.hosts);
        }
        if !self.hi_vms.is_empty() {
            text.push_str("crit");
            for vm in &self.hi_vms {
                let _ = write!(text, " {vm}");
            }
            text.push('\n');
        }
        for item in &self.items {
            match item {
                TraceItem::Single(request) => {
                    text.push_str(&request.render());
                    text.push('\n');
                }
                TraceItem::Batch(requests) => {
                    let _ = writeln!(text, "batch {}", requests.len());
                    for request in requests {
                        text.push_str(&request.render());
                        text.push('\n');
                    }
                }
            }
        }
        text
    }

    /// Parses the text form. Comment (`#`) and blank lines are
    /// ignored; `batch n` (`n >= 1`) consumes the next `n` arrival
    /// lines; a `hosts n` directive (at most one, before any request)
    /// sets the fleet size; a `crit <vm> ...` directive (at most one, before
    /// any request, strictly increasing ids) marks the HI VMs.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line on malformed input
    /// — including duplicate or misplaced directives and unknown
    /// keywords, which are never silently tolerated.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut items = Vec::new();
        let mut hosts: Option<usize> = None;
        let mut hi_vms: Option<Vec<usize>> = None;
        let mut lines = text
            .lines()
            .enumerate()
            .map(|(i, l)| (i + 1, l.trim()))
            .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'));
        while let Some((number, line)) = lines.next() {
            let mut fields = line.split_whitespace();
            let Some(keyword) = fields.next() else {
                return Err(format!("line {number}: no keyword"));
            };
            if keyword == "hosts" {
                if !items.is_empty() {
                    return Err(format!(
                        "line {number}: hosts directive must precede all requests"
                    ));
                }
                if hosts.is_some() {
                    return Err(format!("line {number}: duplicate hosts directive"));
                }
                let n: usize = parse_field(fields.next(), "host count")
                    .map_err(|e| format!("line {number}: {e}"))?;
                if n == 0 {
                    return Err(format!("line {number}: host count must be at least 1"));
                }
                if fields.next().is_some() {
                    return Err(format!("line {number}: trailing fields"));
                }
                hosts = Some(n);
            } else if keyword == "crit" {
                if !items.is_empty() {
                    return Err(format!(
                        "line {number}: crit directive must precede all requests"
                    ));
                }
                if hi_vms.is_some() {
                    return Err(format!("line {number}: duplicate crit directive"));
                }
                let mut ids = Vec::new();
                for field in fields {
                    let vm: usize = field
                        .parse()
                        .map_err(|_| format!("line {number}: malformed vm id '{field}'"))?;
                    if ids.last().is_some_and(|&last| last >= vm) {
                        return Err(format!("line {number}: {CRIT_ORDER}"));
                    }
                    ids.push(vm);
                }
                if ids.is_empty() {
                    return Err(format!("line {number}: crit directive names no vm"));
                }
                hi_vms = Some(ids);
            } else if keyword == "batch" {
                let arity: usize = parse_field(fields.next(), "batch arity")
                    .map_err(|e| format!("line {number}: {e}"))?;
                if arity == 0 {
                    return Err(format!("line {number}: {EMPTY_BATCH}"));
                }
                let mut batch = Vec::with_capacity(arity);
                for _ in 0..arity {
                    let (member_number, member_line) = lines
                        .next()
                        .ok_or_else(|| format!("line {number}: batch truncated"))?;
                    let request = parse_request(member_line, member_number)?;
                    if !matches!(request, TraceRequest::Arrive { .. }) {
                        return Err(format!("line {member_number}: {BATCH_MEMBER}"));
                    }
                    batch.push(request);
                }
                items.push(TraceItem::Batch(batch));
            } else {
                items.push(TraceItem::Single(parse_request(line, number)?));
            }
        }
        Ok(AdmissionTrace {
            items,
            hosts: hosts.unwrap_or(1),
            hi_vms: hi_vms.unwrap_or_default(),
        })
    }
}

fn parse_request(line: &str, number: usize) -> Result<TraceRequest, String> {
    parse_request_bare(line).map_err(|e| format!("line {number}: {e}"))
}

fn parse_request_bare(line: &str) -> Result<TraceRequest, String> {
    let mut fields = line.split_whitespace();
    let keyword = fields.next().ok_or_else(|| "empty request".to_string())?;
    let request = match keyword {
        "arrive" | "mode" => {
            let vm = parse_field(fields.next(), "vm id")?;
            let utilization: f64 = parse_field(fields.next(), "utilization")?;
            // Rust's f64 parser accepts "NaN"/"inf"; reject them by
            // name instead of relying on range-comparison fall-through
            // (NaN fails any comparison, but the resulting "out of
            // range" message would misname the defect).
            if !utilization.is_finite() {
                return Err(format!("non-finite utilization '{utilization}'"));
            }
            if !(0.0..=1000.0).contains(&utilization) {
                return Err(out_of_range(utilization));
            }
            let utilization_milli = (utilization * 1000.0).round() as u32;
            if utilization_milli == 0 {
                return Err(rounds_to_zero(utilization));
            }
            let seed = parse_field(fields.next(), "seed")?;
            if keyword == "arrive" {
                TraceRequest::Arrive {
                    vm,
                    utilization_milli,
                    seed,
                }
            } else {
                TraceRequest::Mode {
                    vm,
                    utilization_milli,
                    seed,
                }
            }
        }
        "depart" => TraceRequest::Depart {
            vm: parse_field(fields.next(), "vm id")?,
        },
        other => return Err(format!("unknown request '{other}'")),
    };
    if fields.next().is_some() {
        return Err("trailing fields".to_string());
    }
    Ok(request)
}

fn parse_field<T: std::str::FromStr>(field: Option<&str>, what: &str) -> Result<T, String> {
    field
        .ok_or_else(|| format!("missing {what}"))?
        .parse()
        .map_err(|_| format!("malformed {what}"))
}

/// Parameters of the fleet-churn trace generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSpec {
    /// Total requests to emit (batch members count individually).
    pub requests: usize,
    /// Generator seed (also seeds nothing else — per-VM taskset seeds
    /// are drawn from this stream and stored in the trace).
    pub seed: u64,
    /// Per-VM target utilization range, milli-units, inclusive. A
    /// lower end of 0 counts as 1: a VM must ask for some utilization;
    /// an upper end past 1 000 000 (a utilization of 1000) counts as
    /// that, the most a trace line may ask for.
    pub utilization_milli: (u32, u32),
    /// Live-set bounds: below `lo` only arrivals are emitted, at or
    /// above `hi` only departures — the churn regime in between.
    pub live_range: (usize, usize),
    /// Fraction of in-regime requests that are mode changes.
    pub mode_fraction: f64,
    /// Fraction of in-regime requests that open a concurrent batch.
    pub batch_fraction: f64,
    /// Maximum batch arity.
    pub max_batch: usize,
    /// Fraction of in-regime requests that *retry* a live VM's
    /// original arrival line verbatim (same id, utilization, and
    /// taskset seed). Retries of admitted VMs hit the cheap
    /// duplicate-id rejection; retries of rejected VMs against an
    /// unchanged state are exactly what the engine's rejection memo
    /// short-circuits.
    pub retry_fraction: f64,
    /// The fleet size stamped into the generated trace.
    pub hosts: usize,
    /// Fraction of fresh arrivals marked HI-criticality (the `crit`
    /// directive). Zero draws nothing from the generator stream, so
    /// all-LO traces keep their historical bytes.
    pub hi_fraction: f64,
}

impl TraceSpec {
    /// The default fleet-churn shape for `requests` requests: small
    /// VMs (0.060–0.280), live set bounded to 6..14, 10% mode
    /// changes, 8% batches of up to 3, no retries, one host.
    pub fn new(requests: usize, seed: u64) -> Self {
        TraceSpec {
            requests,
            seed,
            utilization_milli: (60, 280),
            live_range: (6, 14),
            mode_fraction: 0.10,
            batch_fraction: 0.08,
            max_batch: 3,
            retry_fraction: 0.0,
            hosts: 1,
            hi_fraction: 0.0,
        }
    }

    /// The rejection-heavy preset: mid-size VMs (0.300–0.500) arriving
    /// far past fleet capacity with essentially no departures
    /// (live set bounded to 50..400), no mode changes or batches, and
    /// 90% retries. Once the fleet saturates, every fresh arrival runs
    /// the expensive failing search and every retry repeats it — the
    /// regime the rejection memo is built for.
    pub fn rejection_heavy(requests: usize, seed: u64, hosts: usize) -> Self {
        TraceSpec {
            requests,
            seed,
            utilization_milli: (300, 500),
            live_range: (50, 400),
            mode_fraction: 0.0,
            batch_fraction: 0.0,
            max_batch: 2,
            retry_fraction: 0.90,
            hosts,
            hi_fraction: 0.0,
        }
    }

    /// Replaces the fleet size stamped into the generated trace.
    pub fn with_hosts(mut self, hosts: usize) -> Self {
        self.hosts = hosts;
        self
    }

    /// Replaces the HI-criticality arrival fraction.
    pub fn with_hi_fraction(mut self, hi_fraction: f64) -> Self {
        self.hi_fraction = hi_fraction;
        self
    }
}

/// Generates a seeded fleet-churn trace: VM ids are never reused,
/// departures, mode changes, and retries target VMs the generator has
/// arrived and not yet departed (whether or not the engine admitted
/// them — departures of rejected VMs exercise the unknown-VM path,
/// retries of rejected VMs exercise the rejection memo).
pub fn generate(spec: &TraceSpec) -> AdmissionTrace {
    let mut rng = DetRng::seed_from_u64(spec.seed);
    let (lo, hi) = (
        spec.utilization_milli.0.max(1),
        spec.utilization_milli.1.min(MAX_UTILIZATION_MILLI),
    );
    let (live_lo, live_hi) = spec.live_range;
    let mut items = Vec::new();
    // Live VMs with their original arrival lines (re-emitted verbatim
    // by retries).
    let mut live: Vec<(usize, TraceRequest)> = Vec::new();
    let mut next_vm = 1usize;
    let mut emitted = 0usize;
    let mut hi_vms: Vec<usize> = Vec::new();
    let hi_fraction = spec.hi_fraction;
    let arrival = |rng: &mut DetRng,
                   live: &mut Vec<(usize, TraceRequest)>,
                   next_vm: &mut usize,
                   hi_vms: &mut Vec<usize>| {
        let vm = *next_vm;
        *next_vm += 1;
        let request = TraceRequest::Arrive {
            vm,
            utilization_milli: rng.gen_range(lo as usize..hi as usize + 1) as u32,
            seed: rng.gen_range(0u64..1 << 48),
        };
        // Guarded so an all-LO spec draws nothing here — the generator
        // stream (and thus every historical trace byte) is unchanged.
        if hi_fraction > 0.0 && rng.gen_f64() < hi_fraction {
            hi_vms.push(vm);
        }
        live.push((vm, request));
        request
    };
    while emitted < spec.requests {
        let must_arrive = live.len() < live_lo;
        let must_depart = live.len() >= live_hi;
        let roll = rng.gen_f64();
        if !must_arrive && !must_depart && roll < spec.mode_fraction {
            let vm = live[rng.gen_range(0usize..live.len())].0;
            items.push(TraceItem::Single(TraceRequest::Mode {
                vm,
                utilization_milli: rng.gen_range(lo as usize..hi as usize + 1) as u32,
                seed: rng.gen_range(0u64..1 << 48),
            }));
            emitted += 1;
        } else if !must_depart && roll < spec.mode_fraction + spec.batch_fraction {
            let arity = rng
                .gen_range(2usize..spec.max_batch.max(2) + 1)
                .min(spec.requests - emitted);
            if arity < 2 {
                items.push(TraceItem::Single(arrival(&mut rng, &mut live, &mut next_vm, &mut hi_vms)));
                emitted += 1;
            } else {
                let batch: Vec<TraceRequest> = (0..arity)
                    .map(|_| arrival(&mut rng, &mut live, &mut next_vm, &mut hi_vms))
                    .collect();
                emitted += batch.len();
                items.push(TraceItem::Batch(batch));
            }
        } else if !must_arrive
            && !must_depart
            && spec.retry_fraction > 0.0
            && roll < spec.mode_fraction + spec.batch_fraction + spec.retry_fraction
        {
            // Verbatim re-submission of a live VM's arrival line.
            let request = live[rng.gen_range(0usize..live.len())].1;
            items.push(TraceItem::Single(request));
            emitted += 1;
        } else if must_depart || (!must_arrive && rng.gen_f64() < 0.5) {
            let position = rng.gen_range(0usize..live.len());
            let (vm, _) = live.swap_remove(position);
            items.push(TraceItem::Single(TraceRequest::Depart { vm }));
            emitted += 1;
        } else {
            items.push(TraceItem::Single(arrival(&mut rng, &mut live, &mut next_vm, &mut hi_vms)));
            emitted += 1;
        }
    }
    // Fresh arrivals are drawn with monotonically increasing VM ids,
    // so the HI set is already in the parser's canonical strictly
    // increasing order.
    AdmissionTrace {
        items,
        hosts: spec.hosts.max(1),
        hi_vms,
    }
}

/// Materializes a trace request into an engine request: the VM's
/// taskset is generated from `(utilization, seed)` alone, with task
/// ids offset into a per-VM range so ids stay globally unique across
/// the whole stream.
///
/// # Errors
///
/// Returns the trace parser's "rounds to zero" message for an arrival
/// or mode change with `utilization_milli: 0`, which no taskset can be
/// generated for.
pub fn materialize(
    request: &TraceRequest,
    space: ResourceSpace,
) -> Result<AdmissionRequest, String> {
    request.check()?;
    Ok(engine_request(request, space))
}

/// [`materialize`] for a request known to pass its check: every
/// request of an [`AdmissionTrace`] does, since each way of building
/// one ([`AdmissionTrace::parse`], [`AdmissionTrace::from_items`],
/// [`generate`]) refuses or never makes a utilization out of range.
fn engine_request(request: &TraceRequest, space: ResourceSpace) -> AdmissionRequest {
    match *request {
        TraceRequest::Arrive {
            vm,
            utilization_milli,
            seed,
        } => AdmissionRequest::Arrival(trace_vm(vm, utilization_milli, seed, space)),
        TraceRequest::Depart { vm } => AdmissionRequest::Departure(VmId(vm)),
        TraceRequest::Mode {
            vm,
            utilization_milli,
            seed,
        } => AdmissionRequest::ModeChange(trace_vm(vm, utilization_milli, seed, space)),
    }
}

/// Task-id range reserved per VM (ids are `vm * TASK_ID_STRIDE + i`).
const TASK_ID_STRIDE: usize = 100_000;

fn trace_vm(vm: usize, utilization_milli: u32, seed: u64, space: ResourceSpace) -> VmSpec {
    let config = TasksetConfig::new(utilization_milli as f64 / 1000.0, UtilizationDist::Uniform);
    let mut generator = TasksetGenerator::new(space, config, seed);
    let tasks: TaskSet = generator
        .generate()
        .iter()
        .enumerate()
        .map(|(i, task)| {
            // Invariant: `Task::new` checks only the period and the
            // surface, never the id, and the generator built `task`
            // through it from this very period and surface.
            #[allow(clippy::expect_used)]
            Task::new(
                TaskId(vm * TASK_ID_STRIDE + i),
                task.period(),
                task.wcet_surface().clone(),
            )
            .expect("re-identified task keeps its validity")
        })
        .collect();
    // Invariant: `TasksetConfig::new` accepted a positive target, and
    // the generator emits tasks until their utilization reaches it, so
    // the taskset is non-empty (`VmSpec::new`'s only error).
    #[allow(clippy::expect_used)]
    VmSpec::new(VmId(vm), tasks).expect("generated taskset is non-empty")
}

/// Replays `trace` into `engine` (appending to its decision log):
/// singles via [`AdmissionEngine::submit`], batches via
/// [`AdmissionEngine::submit_batch`]. Returns the write-ahead
/// [`DecisionJournal`] of the replayed items, one record per item:
/// the request's canonical trace line paired with the engine's
/// byte-stable decision line (batch records keep requests in
/// submission order and decisions in the engine's canonical order).
/// Persisting the rendered journal lets [`recover`] reconstruct a
/// bit-identical replacement engine after a crash.
pub fn replay(engine: &mut AdmissionEngine, trace: &AdmissionTrace) -> DecisionJournal {
    let space = engine.platform().resources();
    let mut journal = DecisionJournal::new();
    for item in trace.items() {
        match item {
            TraceItem::Single(request) => {
                let decision = engine.submit(engine_request(request, space));
                journal.append_single(request.render(), decision.log_line());
            }
            TraceItem::Batch(requests) => {
                let lines: Vec<String> = requests.iter().map(|r| r.render()).collect();
                let decisions = engine
                    .submit_batch(requests.iter().map(|r| engine_request(r, space)).collect())
                    .iter()
                    .map(|d| d.log_line())
                    .collect();
                journal.append_batch(lines, decisions);
            }
        }
    }
    journal
}

/// Materializes a whole trace into fleet work items (the
/// pre-materialized form [`AdmissionFleet::replay`] consumes).
///
/// [`AdmissionFleet::replay`]: vc2m_alloc::AdmissionFleet::replay
pub fn fleet_items(trace: &AdmissionTrace, space: ResourceSpace) -> Vec<FleetWorkItem> {
    trace
        .items()
        .iter()
        .map(|item| match item {
            TraceItem::Single(request) => FleetWorkItem::Single(engine_request(request, space)),
            TraceItem::Batch(requests) => {
                FleetWorkItem::Batch(requests.iter().map(|r| engine_request(r, space)).collect())
            }
        })
        .collect()
}

/// Reconstructs a replacement [`AdmissionEngine`] from a journal
/// written by [`replay`] (or any journal whose request lines
/// are canonical trace request lines): every journaled request is
/// re-parsed, re-materialized, and replayed into a fresh engine with
/// `config`, and each regenerated decision line is byte-compared
/// against the journaled one — corruption or configuration drift that
/// perturbs any decision byte surfaces as a typed
/// [`RecoveryError::Divergence`] instead of silently diverging state.
pub fn recover(
    platform: Platform,
    config: AdmissionConfig,
    journal: &DecisionJournal,
) -> Result<AdmissionEngine, RecoveryError> {
    let space = platform.resources();
    recover_engine(platform, config, journal, |line| {
        TraceRequest::parse_line(line).map(|request| engine_request(&request, space))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc2m_alloc::{AdmissionConfig, AdmissionFleet, FleetConfig};
    use vc2m_model::Platform;

    #[test]
    fn request_render_matches_float_formatting_over_the_parsed_range() {
        // Every milli value the parser accepts (0.001 ..= 1000.000).
        for milli in 1..=1_000_000u32 {
            let expected = format!("{:.3}", milli as f64 / 1000.0);
            let arrive = TraceRequest::Arrive {
                vm: 7,
                utilization_milli: milli,
                seed: 42,
            };
            assert_eq!(arrive.render(), format!("arrive 7 {expected} 42"));
            let mode = TraceRequest::Mode {
                vm: 7,
                utilization_milli: milli,
                seed: 42,
            };
            assert_eq!(mode.render(), format!("mode 7 {expected} 42"));
        }
    }

    #[test]
    fn generate_is_deterministic_and_sized() {
        let spec = TraceSpec::new(120, 9);
        let a = generate(&spec);
        let b = generate(&spec);
        assert_eq!(a, b);
        assert_eq!(a.len(), 120);
    }

    #[test]
    fn generated_trace_exercises_every_request_kind() {
        let trace = generate(&TraceSpec::new(300, 4));
        let mut arrivals = 0;
        let mut departures = 0;
        let mut modes = 0;
        let mut batches = 0;
        for item in trace.items() {
            match item {
                TraceItem::Batch(b) => {
                    batches += 1;
                    arrivals += b.len();
                }
                TraceItem::Single(TraceRequest::Arrive { .. }) => arrivals += 1,
                TraceItem::Single(TraceRequest::Depart { .. }) => departures += 1,
                TraceItem::Single(TraceRequest::Mode { .. }) => modes += 1,
            }
        }
        assert!(arrivals > 0 && departures > 0 && modes > 0 && batches > 0);
    }

    #[test]
    fn render_parse_round_trips() {
        let trace = generate(&TraceSpec::new(150, 33));
        let text = trace.render();
        let parsed = AdmissionTrace::parse(&text).unwrap();
        assert_eq!(parsed, trace);
        assert_eq!(parsed.render(), text);
        assert!(text.starts_with(TRACE_HEADER));
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(AdmissionTrace::parse("arrive").unwrap_err().contains("missing"));
        assert!(AdmissionTrace::parse("arrive x 0.1 3")
            .unwrap_err()
            .contains("malformed"));
        assert!(AdmissionTrace::parse("frob 1").unwrap_err().contains("unknown"));
        assert!(AdmissionTrace::parse("batch 2\narrive 1 0.1 3")
            .unwrap_err()
            .contains("truncated"));
        assert!(AdmissionTrace::parse("batch 1\ndepart 1")
            .unwrap_err()
            .contains("only arrivals"));
        // An empty batch is rejected with its line number: it would
        // decide nothing yet still count as an engine batch.
        let err =
            AdmissionTrace::parse("arrive 1 0.100 3\nbatch 0\narrive 2 0.100 4").unwrap_err();
        assert!(err.contains("line 2") && err.contains("at least 1"), "{err}");
        assert!(AdmissionTrace::parse("arrive 1 0.1 3 9")
            .unwrap_err()
            .contains("trailing"));
        // Non-finite utilizations are rejected by name, with the line
        // number, for both arrivals and mode changes.
        let err = AdmissionTrace::parse("arrive 1 NaN 3").unwrap_err();
        assert!(err.contains("line 1") && err.contains("non-finite"), "{err}");
        let err = AdmissionTrace::parse("depart 2\nmode 1 inf 3").unwrap_err();
        assert!(err.contains("line 2") && err.contains("non-finite"), "{err}");
        let err = AdmissionTrace::parse("arrive 1 -inf 3").unwrap_err();
        assert!(err.contains("non-finite"), "{err}");
        // A utilization that rounds to zero milli-units is rejected
        // with its line number; the least accepted one is 0.0005.
        let err = AdmissionTrace::parse("arrive 1 0.000 5").unwrap_err();
        assert!(err.contains("line 1") && err.contains("rounds to zero"), "{err}");
        let err = AdmissionTrace::parse("depart 2\nmode 1 0.0004 5").unwrap_err();
        assert!(err.contains("line 2") && err.contains("rounds to zero"), "{err}");
        assert!(TraceRequest::parse_line("arrive 1 0 5").is_err());
        assert_eq!(
            AdmissionTrace::parse("arrive 1 0.0005 5").unwrap().items(),
            [TraceItem::Single(TraceRequest::Arrive {
                vm: 1,
                utilization_milli: 1,
                seed: 5,
            })]
        );
        // Host-dimension directive errors carry line numbers too.
        let err = AdmissionTrace::parse("hosts 0").unwrap_err();
        assert!(err.contains("line 1") && err.contains("at least 1"), "{err}");
        assert!(AdmissionTrace::parse("hosts x")
            .unwrap_err()
            .contains("malformed host count"));
        assert!(AdmissionTrace::parse("hosts")
            .unwrap_err()
            .contains("missing host count"));
        assert!(AdmissionTrace::parse("hosts 2 3")
            .unwrap_err()
            .contains("trailing"));
        assert!(AdmissionTrace::parse("hosts 2\nhosts 3")
            .unwrap_err()
            .contains("duplicate"));
        let err = AdmissionTrace::parse("depart 1\nhosts 2").unwrap_err();
        assert!(err.contains("line 2") && err.contains("precede"), "{err}");
    }

    #[test]
    fn hosts_directive_round_trips_and_defaults_to_one() {
        let plain = AdmissionTrace::parse("arrive 1 0.100 3").unwrap();
        assert_eq!(plain.hosts(), 1);
        assert!(!plain.render().contains("hosts"));
        let fleet = generate(&TraceSpec::rejection_heavy(40, 7, 4));
        assert_eq!(fleet.hosts(), 4);
        let text = fleet.render();
        assert!(text.contains("\nhosts 4\n"), "{}", &text[..80]);
        let parsed = AdmissionTrace::parse(&text).unwrap();
        assert_eq!(parsed, fleet);
        assert_eq!(parsed.render(), text);
    }

    #[test]
    fn retries_re_emit_live_arrival_lines_verbatim() {
        let trace = generate(&TraceSpec::rejection_heavy(200, 11, 2));
        assert_eq!(trace.len(), 200);
        let mut first_arrival: std::collections::HashMap<usize, TraceRequest> =
            std::collections::HashMap::new();
        let mut retries = 0usize;
        for item in trace.items() {
            if let TraceItem::Single(request @ TraceRequest::Arrive { vm, .. }) = item {
                match first_arrival.get(vm) {
                    Some(original) => {
                        assert_eq!(request, original, "retry must be verbatim");
                        retries += 1;
                    }
                    None => {
                        first_arrival.insert(*vm, *request);
                    }
                }
            }
        }
        assert!(retries > 50, "only {retries} retries in 200 requests");
        // Determinism: same spec, same bytes.
        assert_eq!(
            generate(&TraceSpec::rejection_heavy(200, 11, 2)).render(),
            trace.render()
        );
    }

    #[test]
    fn fleet_replay_matches_engine_on_one_host() {
        let trace = generate(&TraceSpec::new(60, 17));
        let platform = Platform::platform_a();
        let mut engine = AdmissionEngine::new(platform, AdmissionConfig::new(42));
        replay(&mut engine, &trace);
        let mut fleet = AdmissionFleet::new(platform, FleetConfig::new(1, 42));
        fleet.replay(&fleet_items(&trace, platform.resources()), 1).unwrap();
        assert_eq!(fleet.log_text(), engine.log_text());
        assert_eq!(&fleet.aggregate_stats(), engine.stats());
    }

    #[test]
    fn materialized_vms_have_disjoint_task_ids() {
        let space = Platform::platform_a().resources();
        let a = trace_vm(1, 200, 7, space);
        let b = trace_vm(2, 200, 7, space);
        let ids_a: Vec<usize> = a.tasks().iter().map(|t| t.id().0).collect();
        let ids_b: Vec<usize> = b.tasks().iter().map(|t| t.id().0).collect();
        assert!(ids_a.iter().all(|i| !ids_b.contains(i)));
    }

    #[test]
    fn replay_produces_one_decision_per_request() {
        let trace = generate(&TraceSpec::new(80, 21));
        let mut engine =
            AdmissionEngine::new(Platform::platform_a(), AdmissionConfig::new(42));
        replay(&mut engine, &trace);
        assert_eq!(engine.decisions().len(), trace.len());
        engine.allocation().verify(engine.platform()).unwrap();
    }

    #[test]
    fn crit_directive_round_trips_and_marks_hi_vms() {
        let trace = AdmissionTrace::parse(
            "hosts 2\ncrit 1 4\narrive 1 0.100 3\narrive 2 0.100 4\narrive 4 0.100 5\n",
        )
        .unwrap();
        assert_eq!(trace.hi_vms(), &[1, 4]);
        assert_eq!(trace.criticality_of(1), Criticality::Hi);
        assert_eq!(trace.criticality_of(2), Criticality::Lo);
        assert_eq!(trace.criticality_of(4), Criticality::Hi);
        assert_eq!(trace.criticality_of(99), Criticality::Lo);
        let text = trace.render();
        assert!(text.contains("\ncrit 1 4\n"), "{text}");
        let parsed = AdmissionTrace::parse(&text).unwrap();
        assert_eq!(parsed, trace);
        assert_eq!(parsed.render(), text);
        // No crit directive ⇒ everyone LO, and none rendered — the
        // historical trace format is unchanged.
        let plain = AdmissionTrace::parse("arrive 1 0.100 3").unwrap();
        assert!(plain.hi_vms().is_empty());
        assert!(!plain.render().contains("crit"));
    }

    #[test]
    fn crit_directive_rejections_carry_line_numbers() {
        let err = AdmissionTrace::parse("crit 1\ncrit 2").unwrap_err();
        assert!(err.contains("line 2") && err.contains("duplicate"), "{err}");
        let err = AdmissionTrace::parse("arrive 1 0.100 3\ncrit 1").unwrap_err();
        assert!(err.contains("line 2") && err.contains("precede"), "{err}");
        let err = AdmissionTrace::parse("crit 1 x").unwrap_err();
        assert!(err.contains("line 1") && err.contains("malformed vm id"), "{err}");
        let err = AdmissionTrace::parse("crit 3 2").unwrap_err();
        assert!(err.contains("strictly increasing"), "{err}");
        let err = AdmissionTrace::parse("crit 2 2").unwrap_err();
        assert!(err.contains("strictly increasing"), "{err}");
        let err = AdmissionTrace::parse("crit").unwrap_err();
        assert!(err.contains("names no vm"), "{err}");
    }

    #[test]
    fn hi_fraction_marks_vms_deterministically() {
        let spec = TraceSpec::new(120, 9).with_hi_fraction(0.4);
        let a = generate(&spec);
        let b = generate(&spec);
        assert_eq!(a, b);
        assert!(!a.hi_vms().is_empty(), "0.4 of 120 requests draws some HI");
        assert!(
            a.hi_vms().windows(2).all(|w| w[0] < w[1]),
            "hi set is strictly increasing"
        );
        assert!(a.render().contains("\ncrit "), "{}", &a.render()[..120]);
        // The hi draw is gated on the fraction, so a zero-fraction
        // spec consumes no extra randomness: byte-identical to the
        // plain spec (this is what keeps committed traces stable).
        assert_eq!(
            generate(&TraceSpec::new(120, 9).with_hi_fraction(0.0)).render(),
            generate(&TraceSpec::new(120, 9)).render(),
        );
    }

    #[test]
    fn journal_round_trips_and_recovers_the_exact_engine() {
        let trace = generate(&TraceSpec::new(60, 13));
        let platform = Platform::platform_a();
        let config = AdmissionConfig::new(42);
        let mut engine = AdmissionEngine::new(platform, config);
        let journal = replay(&mut engine, &trace);
        assert_eq!(journal.decisions(), trace.len());
        // The persisted text form round-trips.
        let text = journal.render();
        let parsed = DecisionJournal::parse(&text).unwrap();
        assert_eq!(parsed, journal);
        // A replacement engine recovered from the journal is in the
        // exact state of the one that wrote it.
        let recovered = recover(platform, config, &parsed).unwrap();
        assert_eq!(recovered.log_text(), engine.log_text());
        assert_eq!(recovered.stats(), engine.stats());
        assert_eq!(recovered.allocation(), engine.allocation());
    }

    #[test]
    fn zero_utilization_requests_are_refused_not_materialized() {
        let space = Platform::platform_a().resources();
        let valid = TraceRequest::Arrive {
            vm: 1,
            utilization_milli: 100,
            seed: 3,
        };
        assert!(matches!(
            materialize(&valid, space),
            Ok(AdmissionRequest::Arrival(_))
        ));
        let zero_arrival = TraceRequest::Arrive {
            vm: 2,
            utilization_milli: 0,
            seed: 5,
        };
        let zero_mode = TraceRequest::Mode {
            vm: 1,
            utilization_milli: 0,
            seed: 5,
        };
        for zero in [zero_arrival, zero_mode] {
            let err = materialize(&zero, space).expect_err("zero utilization materializes");
            assert_eq!(err, "utilization 0 rounds to zero (the least is 0.0005)");
            let err = AdmissionTrace::from_items(vec![
                TraceItem::Single(valid),
                TraceItem::Batch(vec![valid, zero]),
            ])
            .expect_err("a trace holding a zero-utilization request builds");
            assert!(err.starts_with("item 2: ") && err.contains("rounds to zero"), "{err}");
        }
        // A generator range starting at 0 draws from 1 up, so its trace
        // replays.
        let mut spec = TraceSpec::new(40, 3);
        spec.utilization_milli = (0, 2);
        let trace = generate(&spec);
        let mut engine = AdmissionEngine::new(Platform::platform_a(), AdmissionConfig::new(42));
        assert_eq!(replay(&mut engine, &trace).decisions(), trace.len());
    }

    /// A random request over a few VM ids; arrivals and mode changes
    /// ask for a utilization in the accepted range or past either end.
    fn random_request(rng: &mut DetRng) -> TraceRequest {
        let vm = rng.gen_range(1usize..=6);
        let utilization_milli = match rng.gen_range(0u32..10) {
            0 => 0,
            1 => MAX_UTILIZATION_MILLI + 1,
            2 => u32::MAX,
            _ => rng.gen_range(1u32..=300),
        };
        let seed = rng.gen_range(0u64..1000);
        match rng.gen_range(0u32..4) {
            0 => TraceRequest::Depart { vm },
            1 => TraceRequest::Mode {
                vm,
                utilization_milli,
                seed,
            },
            _ => TraceRequest::Arrive {
                vm,
                utilization_milli,
                seed,
            },
        }
    }

    /// The message of a parse or build error, without its line or item.
    fn message(error: &str) -> &str {
        error.split_once(": ").map_or(error, |(_, message)| message)
    }

    #[test]
    fn from_items_refuses_exactly_what_parse_refuses() {
        vc2m_rng::cases::check(256, |rng| {
            let items: Vec<TraceItem> = (0..rng.gen_range(1usize..=6))
                .map(|_| {
                    if rng.gen_bool(0.3) {
                        let arity = rng.gen_range(0usize..=3);
                        TraceItem::Batch((0..arity).map(|_| random_request(rng)).collect())
                    } else {
                        TraceItem::Single(random_request(rng))
                    }
                })
                .collect();
            let text = AdmissionTrace {
                items: items.clone(),
                ..AdmissionTrace::default()
            }
            .render();
            match (AdmissionTrace::from_items(items), AdmissionTrace::parse(&text)) {
                (Ok(trace), Ok(parsed)) => {
                    assert_eq!(parsed, trace, "{text}");
                    assert_eq!(parsed.render(), text);
                    let mut engine =
                        AdmissionEngine::new(Platform::platform_a(), AdmissionConfig::new(42));
                    let journal = replay(&mut engine, &trace);
                    let reparsed = DecisionJournal::parse(&journal.render())
                        .unwrap_or_else(|e| panic!("{e}\n{text}"));
                    assert_eq!(reparsed, journal, "{text}");
                }
                (Err(built), Err(parsed)) => {
                    assert!(built.starts_with("item "), "{built}");
                    assert_eq!(message(&built), message(&parsed), "{text}");
                }
                (built, parsed) => panic!("from_items {built:?}, parse {parsed:?}\n{text}"),
            }
        });
    }

    #[test]
    fn with_hi_vms_refuses_what_parse_refuses() {
        vc2m_rng::cases::check(256, |rng| {
            let ids: Vec<usize> = (0..rng.gen_range(0usize..=4))
                .map(|_| rng.gen_range(1usize..=8))
                .collect();
            let trace = AdmissionTrace::parse("arrive 1 0.100 3").unwrap();
            match trace.with_hi_vms(ids.clone()) {
                Ok(trace) => {
                    assert_eq!(trace.hi_vms(), ids);
                    assert_eq!(AdmissionTrace::parse(&trace.render()).unwrap(), trace);
                }
                Err(error) => {
                    let text = format!("crit {}", ids.iter().map(usize::to_string).collect::<Vec<_>>().join(" "));
                    let parsed = AdmissionTrace::parse(&text).unwrap_err();
                    assert_eq!(error, message(&parsed), "{text}");
                }
            }
        });
    }

    #[test]
    fn recovery_refuses_a_zero_utilization_request() {
        let mut journal = DecisionJournal::new();
        journal.append_single("arrive 1 0.000 5".to_string(), "#00000 arrive".to_string());
        let err = recover(Platform::platform_a(), AdmissionConfig::new(42), &journal)
            .expect_err("a zero-utilization request cannot be recovered");
        assert!(err.to_string().contains("rounds to zero"), "{err}");
    }
}
