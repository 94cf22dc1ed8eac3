//! The admission text formats and the trace model: one codec for the
//! `vc2m-admission-trace-v1` request trace and the
//! `vc2m-admission-journal-v1` decision journal.
//!
//! A *trace* is a seeded, fully replayable stream of the requests the
//! admission engine ([`crate::admission`]) serves; [`generate`]
//! produces fleet-style churn (bounded live-set size, small VMs,
//! occasional mode changes and concurrent-arrival batches).
//! [`recovery`](crate::recovery) replays a trace into an engine, which
//! writes a journal, and a journal into a replacement engine. A fleet
//! replays a trace through [`fleet_items`] and
//! [`AdmissionFleet::replay`].
//!
//! [`AdmissionFleet::replay`]: crate::AdmissionFleet::replay
//!
//! # Trace format (`vc2m-admission-trace-v1`)
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
//! # Journal format (`vc2m-admission-journal-v1`)
//!
//! One record per decision, append-only (a record is a pure byte
//! append — nothing earlier in the file is ever rewritten, so a
//! producer issues one buffered, fsync-free append per decision):
//!
//! ```text
//! # vc2m-admission-journal-v1
//! arrive 1 0.180 9054 => #00000 arrive vm=1 u=0.180000 -> admitted/incremental | ...
//! batch 2
//! arrive 2 0.120 53
//! arrive 3 0.305 99
//! => #00001 arrive vm=3 u=0.305000 -> ...
//! => #00002 arrive vm=2 u=0.120000 -> ...
//! ```
//!
//! A single record is `<request line> => <decision line>`. A batch
//! record keeps the batch grouping (batch admission is
//! order-canonicalized and counted differently from singles, so the
//! grouping is part of the state): a `batch n` header, the `n` member
//! request lines in submission order, then the `n` decision lines in
//! the engine's canonical emission order, each prefixed `=> `. The
//! request half of a record is a trace request line, kept as text
//! until recovery replays it ([`materialize`]).
//!
//! Both parsers read through one line reader, so they number, trim and
//! skip lines alike, read `batch n` records alike, and never size a
//! vector from the `n` the input claims.
//!
//! # Determinism
//!
//! A request's VM is materialized from `(vm id, utilization, taskset
//! seed)` alone — independent of the rest of the trace — so replaying
//! any trace against [`AdmissionEngine`](crate::AdmissionEngine)s with
//! equal configuration yields byte-identical decision logs, and a
//! trace file pins its whole workload.

use crate::admission::AdmissionRequest;
use crate::fleet::FleetWorkItem;
use crate::text::{self, Render, Sink};
use std::str::SplitWhitespace;
use vc2m_model::{ResourceSpace, Task, TaskId, TaskSet, VmId, VmSpec};
use vc2m_rng::{DetRng, Rng};
use vc2m_workload::{TasksetConfig, TasksetGenerator, UtilizationDist};

/// The first line every rendered trace carries.
pub const TRACE_HEADER: &str = "# vc2m-admission-trace-v1";

/// The first line every rendered journal carries.
pub const JOURNAL_HEADER: &str = "# vc2m-admission-journal-v1";

/// The request/decision separator of a single journal record. Request
/// lines never contain it, so parsing splits on the first occurrence.
const SEPARATOR: &str = " => ";

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
    /// request half of a journal record).
    ///
    /// The utilization prints as `milli / 1000`, `.`, and `milli %
    /// 1000` padded to three digits: the bytes `{:.3}` prints for
    /// `milli as f64 / 1000.0`, without rendering a float.
    pub fn render(&self) -> String {
        text::exact(self)
    }

    /// Parses one request line — the inverse of [`render`], through
    /// which the trace parser and [`materialize`] read every request
    /// line. The error carries no line number.
    ///
    /// [`render`]: TraceRequest::render
    pub fn parse_line(line: &str) -> Result<TraceRequest, String> {
        let mut fields = line.split_whitespace();
        let keyword = fields.next().ok_or("empty request")?;
        let request = match keyword {
            "arrive" | "mode" => {
                let vm = parse_field(fields.next(), "vm id")?;
                let utilization_milli = milli(parse_field(fields.next(), "utilization")?)?;
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
        no_trailing(fields)?;
        request.check()?;
        Ok(request)
    }

    /// Whether the request can be materialized, with the parser's
    /// message where it cannot: an arrival or a mode change must pass
    /// the utilization rule ([`milli`]) and name a VM whose task ids
    /// fit a `usize`.
    fn check(&self) -> Result<(), String> {
        let (_, vm, load) = self.fields();
        if let Some((utilization_milli, _)) = load {
            milli(f64::from(utilization_milli) / 1000.0)?;
            if vm >= VM_LIMIT {
                return Err(format!("vm id {vm} out of range"));
            }
        }
        Ok(())
    }

    /// The request's keyword and VM id, plus the utilization in
    /// milli-units and the taskset seed of an arrival or a mode change.
    fn fields(&self) -> (&'static str, usize, Option<(u32, u64)>) {
        match *self {
            TraceRequest::Arrive {
                vm,
                utilization_milli,
                seed,
            } => ("arrive", vm, Some((utilization_milli, seed))),
            TraceRequest::Depart { vm } => ("depart", vm, None),
            TraceRequest::Mode {
                vm,
                utilization_milli,
                seed,
            } => ("mode", vm, Some((utilization_milli, seed))),
        }
    }
}

impl Render for TraceRequest {
    fn render<S: Sink>(&self, out: &mut S) {
        let (keyword, vm, load) = self.fields();
        out.put(keyword);
        out.put(" ");
        text::put_u64(out, vm as u64, 0);
        if let Some((milli, seed)) = load {
            out.put(" ");
            text::put_u64(out, u64::from(milli / 1000), 0);
            out.put(".");
            text::put_u64(out, u64::from(milli % 1000), 3);
            out.put(" ");
            text::put_u64(out, seed, 0);
        }
    }
}

/// The largest utilization a request may ask for, in milli-units.
const MAX_UTILIZATION_MILLI: u32 = 1_000_000;

/// Task-id range reserved per VM (ids are `vm * TASK_ID_STRIDE + i`).
const TASK_ID_STRIDE: usize = 100_000;

/// The least VM id whose task ids would not fit a `usize`.
const VM_LIMIT: usize = usize::MAX / TASK_ID_STRIDE;

/// The utilization rule every request is held to, whether parsed,
/// built or materialized: finite, at most 1000, and at least 0.0005 so
/// it rounds to a positive number of milli-units. Returns those
/// milli-units, or a message naming `utilization` as the caller gave
/// it.
fn milli(utilization: f64) -> Result<u32, String> {
    // Rust's f64 parser accepts "NaN"/"inf"; name them instead of
    // letting NaN fall through the range test as "out of range".
    if !utilization.is_finite() {
        return Err(format!("non-finite utilization '{utilization}'"));
    }
    if !(0.0..=f64::from(MAX_UTILIZATION_MILLI) / 1000.0).contains(&utilization) {
        return Err(format!("utilization {utilization} out of range"));
    }
    match (utilization * 1000.0).round() as u32 {
        0 => Err(format!(
            "utilization {utilization} rounds to zero (the least is 0.0005)"
        )),
        milli => Ok(milli),
    }
}

/// The error for a batch with no member.
const EMPTY_BATCH: &str = "batch arity must be at least 1";

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
    /// [`materialize`] refuses, an empty batch, and a batch member that
    /// is not an arrival.
    pub fn from_items(items: Vec<TraceItem>) -> Result<Self, String> {
        for (number, item) in (1..).zip(&items) {
            let checked = match item {
                TraceItem::Single(request) => request.check(),
                TraceItem::Batch(requests) if requests.is_empty() => Err(EMPTY_BATCH.to_string()),
                TraceItem::Batch(requests) => requests.iter().try_for_each(batch_member),
            };
            checked.map_err(|e| format!("item {number}: {e}"))?;
        }
        Ok(AdmissionTrace {
            items,
            ..AdmissionTrace::default()
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
            return Err("crit vm ids must be strictly increasing".to_string());
        }
        self.hi_vms = hi_vms;
        Ok(self)
    }

    /// The HI-criticality VM ids, strictly increasing (empty when the
    /// trace carries no `crit` directive).
    pub fn hi_vms(&self) -> &[usize] {
        &self.hi_vms
    }

    /// Sets the fleet size the trace targets (the `hosts` directive).
    ///
    /// # Errors
    ///
    /// Refuses zero hosts, with the parser's message.
    pub fn with_hosts(mut self, hosts: usize) -> Result<Self, String> {
        if hosts == 0 {
            return Err("host count must be at least 1".to_string());
        }
        self.hosts = hosts;
        Ok(self)
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
        let mut out = String::from(TRACE_HEADER);
        out.push('\n');
        if self.hosts > 1 {
            out.push_str("hosts ");
            text::put_u64(&mut out, self.hosts as u64, 0);
            out.push('\n');
        }
        if !self.hi_vms.is_empty() {
            out.push_str("crit");
            for &vm in &self.hi_vms {
                out.push(' ');
                text::put_u64(&mut out, vm as u64, 0);
            }
            out.push('\n');
        }
        for item in &self.items {
            let requests = match item {
                TraceItem::Single(request) => std::slice::from_ref(request),
                TraceItem::Batch(requests) => {
                    put_batch_header(&mut out, requests.len());
                    requests
                }
            };
            for request in requests {
                Render::render(request, &mut out);
                out.push('\n');
            }
        }
        out
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
        read(text, |lines| {
            let mut trace = AdmissionTrace::default();
            let (mut hosts_seen, mut crit_seen) = (false, false);
            while let Some(line) = lines.next_line() {
                let mut fields = line.split_whitespace();
                match fields.next() {
                    Some("hosts") => {
                        directive("hosts", &mut hosts_seen, &trace)?;
                        trace = trace.with_hosts(parse_field(fields.next(), "host count")?)?;
                        no_trailing(fields)?;
                    }
                    Some("crit") => {
                        directive("crit", &mut crit_seen, &trace)?;
                        let ids = fields
                            .map(|field| {
                                field.parse().map_err(|_| format!("malformed vm id '{field}'"))
                            })
                            .collect::<Result<Vec<usize>, String>>()?;
                        if ids.is_empty() {
                            return Err("crit directive names no vm".to_string());
                        }
                        trace = trace.with_hi_vms(ids)?;
                    }
                    Some("batch") => {
                        let batch = lines.batch(fields, 1, |_, member| {
                            let request = TraceRequest::parse_line(member)?;
                            batch_member(&request)?;
                            Ok(request)
                        })?;
                        trace.items.push(TraceItem::Batch(batch));
                    }
                    _ => trace
                        .items
                        .push(TraceItem::Single(TraceRequest::parse_line(line)?)),
                }
            }
            Ok(trace)
        })
    }
}

/// Refuses a batch member the engine would not admit concurrently,
/// after the checks every request gets.
fn batch_member(request: &TraceRequest) -> Result<(), String> {
    request.check()?;
    match request {
        TraceRequest::Arrive { .. } => Ok(()),
        _ => Err("only arrivals may appear in a batch".to_string()),
    }
}

/// Refuses a `hosts`/`crit` directive after a request or after
/// another of its kind, and marks `name` as seen.
fn directive(name: &str, seen: &mut bool, trace: &AdmissionTrace) -> Result<(), String> {
    if !trace.items.is_empty() {
        return Err(format!("{name} directive must precede all requests"));
    }
    if std::mem::replace(seen, true) {
        return Err(format!("duplicate {name} directive"));
    }
    Ok(())
}

/// One journaled decision record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalRecord {
    /// One request submitted on its own.
    Single {
        /// The request's stable one-line text form.
        request: String,
        /// The decision's `log_line()` bytes.
        decision: String,
    },
    /// A concurrent-arrival batch submitted in one pass.
    Batch {
        /// Member request lines, in submission order.
        requests: Vec<String>,
        /// Decision lines, in the engine's canonical emission order.
        decisions: Vec<String>,
    },
}

impl JournalRecord {
    /// Number of decisions the record carries.
    pub fn decisions(&self) -> usize {
        match self {
            JournalRecord::Single { .. } => 1,
            JournalRecord::Batch { decisions, .. } => decisions.len(),
        }
    }
}

/// The write-ahead decision journal (see the [module docs](self) for
/// its format and [`recovery`](crate::recovery) for its replay).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DecisionJournal {
    records: Vec<JournalRecord>,
}

impl DecisionJournal {
    /// An empty journal.
    pub fn new() -> Self {
        DecisionJournal::default()
    }

    /// The journaled records, in decision order.
    pub fn records(&self) -> &[JournalRecord] {
        &self.records
    }

    /// Number of records (a batch is one record).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the journal holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total number of journaled decisions (batch members count
    /// individually).
    pub fn decisions(&self) -> usize {
        self.records.iter().map(JournalRecord::decisions).sum()
    }

    /// Appends a single-request record.
    pub fn append_single(&mut self, request: String, decision: String) {
        self.records.push(JournalRecord::Single { request, decision });
    }

    /// Appends a batch record.
    ///
    /// # Panics
    ///
    /// Panics unless exactly one decision was journaled per member
    /// request — a batch always decides each member.
    pub fn append_batch(&mut self, requests: Vec<String>, decisions: Vec<String>) {
        assert_eq!(
            requests.len(),
            decisions.len(),
            "a batch decides each member exactly once"
        );
        self.records.push(JournalRecord::Batch { requests, decisions });
    }

    /// The journal truncated to its first `records` records — a crash
    /// point for the conformance suite.
    pub fn prefix(&self, records: usize) -> DecisionJournal {
        DecisionJournal {
            records: self.records[..records.min(self.records.len())].to_vec(),
        }
    }

    /// Renders the stable text form (header + records,
    /// newline-terminated). [`parse`](DecisionJournal::parse) of the
    /// result reproduces `self`.
    pub fn render(&self) -> String {
        let mut out = String::from(JOURNAL_HEADER);
        out.push('\n');
        for record in &self.records {
            match record {
                JournalRecord::Single { request, decision } => {
                    out.push_str(request);
                    out.push_str(SEPARATOR);
                    out.push_str(decision);
                    out.push('\n');
                }
                JournalRecord::Batch { requests, decisions } => {
                    put_batch_header(&mut out, requests.len());
                    for request in requests {
                        out.push_str(request);
                        out.push('\n');
                    }
                    for decision in decisions {
                        out.push_str("=> ");
                        out.push_str(decision);
                        out.push('\n');
                    }
                }
            }
        }
        out
    }

    /// Parses the text form. Comment (`#`) and blank lines are
    /// ignored; a `batch n` header consumes the next `n` member
    /// request lines and then `n` `=> `-prefixed decision lines.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line on malformed input.
    pub fn parse(text: &str) -> Result<Self, String> {
        read(text, |lines| {
            let mut records = Vec::new();
            while let Some(line) = lines.next_line() {
                let mut fields = line.split_whitespace();
                if fields.next() == Some("batch") {
                    // Part 0 holds the member requests, part 1 the decisions.
                    let mut requests = lines.batch(fields, 2, |part, member| {
                        match (part, member.strip_prefix("=> ")) {
                            (0, None) => Ok(member),
                            (0, Some(_)) => {
                                Err("decision line where a batch member request was expected")
                            }
                            (_, Some(decision)) => Ok(decision),
                            (_, None) => Err("batch decision line must start with '=> '"),
                        }
                        .map(str::to_string)
                        .map_err(str::to_string)
                    })?;
                    let decisions = requests.split_off(requests.len() / 2);
                    records.push(JournalRecord::Batch { requests, decisions });
                } else if let Some((request, decision)) = line.split_once(SEPARATOR) {
                    records.push(JournalRecord::Single {
                        request: request.to_string(),
                        decision: decision.to_string(),
                    });
                } else {
                    return Err(format!("record has no '{SEPARATOR}' separator"));
                }
            }
            Ok(DecisionJournal { records })
        })
    }
}

/// Writes the `batch n` header line both formats share.
fn put_batch_header(out: &mut String, arity: usize) {
    out.push_str("batch ");
    text::put_u64(out, arity as u64, 0);
    out.push('\n');
}

/// The meaningful lines of a text form: trimmed, with blank and `#`
/// lines skipped. It keeps the 1-based number of the line it read
/// last, which [`read`] puts in front of any error.
struct Reader<'a> {
    lines: std::iter::Enumerate<std::str::Lines<'a>>,
    number: usize,
}

impl<'a> Reader<'a> {
    /// The next meaningful line.
    fn next_line(&mut self) -> Option<&'a str> {
        for (index, line) in self.lines.by_ref() {
            let line = line.trim();
            if !line.is_empty() && !line.starts_with('#') {
                self.number = index + 1;
                return Some(line);
            }
        }
        None
    }

    /// Reads the record a `batch n` header opens (`fields` follow the
    /// `batch` keyword): `parts` runs of `n` lines, each line passed to
    /// `member` with the index of its run. The members come back in
    /// line order. A record that ends early names its header line.
    fn batch<T>(
        &mut self,
        mut fields: SplitWhitespace<'_>,
        parts: usize,
        mut member: impl FnMut(usize, &'a str) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let arity: usize = parse_field(fields.next(), "batch arity")?;
        no_trailing(fields)?;
        if arity == 0 {
            return Err(EMPTY_BATCH.to_string());
        }
        let header = self.number;
        // Grown from the lines read: `arity` is the input's claim.
        let mut members = Vec::new();
        for part in 0..parts {
            for _ in 0..arity {
                let Some(line) = self.next_line() else {
                    self.number = header;
                    return Err("batch truncated".to_string());
                };
                members.push(member(part, line)?);
            }
        }
        Ok(members)
    }
}

/// Runs `parse` over `text`'s [`Reader`], prefixing any error with
/// the number of the line it arose on.
fn read<'a, T>(
    text: &'a str,
    parse: impl FnOnce(&mut Reader<'a>) -> Result<T, String>,
) -> Result<T, String> {
    let mut reader = Reader {
        lines: text.lines().enumerate(),
        number: 0,
    };
    parse(&mut reader).map_err(|e| format!("line {}: {e}", reader.number))
}

fn parse_field<T: std::str::FromStr>(field: Option<&str>, what: &str) -> Result<T, String> {
    field
        .ok_or_else(|| format!("missing {what}"))?
        .parse()
        .map_err(|_| format!("malformed {what}"))
}

fn no_trailing(mut fields: SplitWhitespace<'_>) -> Result<(), String> {
    match fields.next() {
        Some(_) => Err("trailing fields".to_string()),
        None => Ok(()),
    }
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
            let batch: Vec<TraceRequest> = (0..arity)
                .map(|_| arrival(&mut rng, &mut live, &mut next_vm, &mut hi_vms))
                .collect();
            emitted += arity;
            // Only the last request of a trace can cut a batch to one.
            items.push(match batch[..] {
                [single] => TraceItem::Single(single),
                _ => TraceItem::Batch(batch),
            });
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

/// Parses one request line and materializes it into an engine request
/// — the request half of a journal record, as recovery replays it. The
/// VM's taskset is generated from `(utilization, seed)` alone, with
/// task ids offset into a per-VM range so ids stay globally unique
/// across the whole stream.
///
/// # Errors
///
/// Returns [`TraceRequest::parse_line`]'s message.
pub fn materialize(line: &str, space: ResourceSpace) -> Result<AdmissionRequest, String> {
    TraceRequest::parse_line(line).map(|request| engine_request(&request, space))
}

/// [`materialize`] for a request that passed its checks: every request
/// of an [`AdmissionTrace`] did, since each way of building one
/// ([`AdmissionTrace::parse`], [`AdmissionTrace::from_items`],
/// [`generate`]) refuses or never makes a request out of range.
pub(crate) fn engine_request(request: &TraceRequest, space: ResourceSpace) -> AdmissionRequest {
    let (_, vm, load) = request.fields();
    match (request, load) {
        (_, None) => AdmissionRequest::Departure(VmId(vm)),
        (TraceRequest::Arrive { .. }, Some((milli, seed))) => {
            AdmissionRequest::Arrival(trace_vm(vm, milli, seed, space))
        }
        (_, Some((milli, seed))) => AdmissionRequest::ModeChange(trace_vm(vm, milli, seed, space)),
    }
}

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

/// Materializes a whole trace into fleet work items (the
/// pre-materialized form [`AdmissionFleet::replay`] consumes).
///
/// [`AdmissionFleet::replay`]: crate::AdmissionFleet::replay
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_untrusted_batch_arity_reads_only_the_lines_present() {
        for arity in [usize::MAX, 1 << 40] {
            let err = AdmissionTrace::parse(&format!("batch {arity}\narrive 1 0.1 3")).unwrap_err();
            assert_eq!(err, "line 1: batch truncated");
            let err = DecisionJournal::parse(&format!("batch {arity}\na 1")).unwrap_err();
            assert_eq!(err, "line 1: batch truncated");
        }
    }

    #[test]
    fn vm_ids_past_the_task_id_range_are_refused() {
        let line = format!("arrive {VM_LIMIT} 0.100 3");
        let err = AdmissionTrace::parse(&line).unwrap_err();
        assert_eq!(err, format!("line 1: vm id {VM_LIMIT} out of range"));
        let below = format!("mode {} 0.100 3", VM_LIMIT - 1);
        assert!(TraceRequest::parse_line(&below).is_ok());
        // A departure materializes no task, so any id is one.
        assert!(TraceRequest::parse_line(&format!("depart {}", usize::MAX)).is_ok());
    }
}
