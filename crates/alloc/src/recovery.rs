//! Journaled admission recovery: a write-ahead decision journal from
//! which a replacement [`AdmissionEngine`] is reconstructed
//! **bit-identically**.
//!
//! # Why replay works
//!
//! The engine's state is a pure function of its request sequence: a
//! VM's VCPU parameters are derived from `(engine seed, VmId, mode
//! revision)` alone, placement is deterministic, and no decision
//! depends on wall-clock time or external state. Re-submitting the
//! journaled requests to a fresh engine with the same configuration
//! therefore reproduces the crashed engine's state *exactly* — and
//! because each regenerated decision is compared byte-for-byte against
//! the journaled line, corruption or configuration drift that perturbs
//! any decision byte is caught as a typed
//! [`RecoveryError::Divergence`] instead of being absorbed. A
//! recovered engine's *subsequent* decision log is then byte-identical
//! to an engine that never crashed, which the differential conformance
//! suite pins at every journal prefix.
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
//! the engine's canonical emission order, each prefixed `=> `.
//!
//! The request half of every record is format-agnostic to this module:
//! callers supply the line when appending and a materializer closure
//! when recovering, so the journal works for any request encoding with
//! a stable one-line form (the trace model's `TraceRequest::render`
//! in practice).

use crate::admission::{AdmissionConfig, AdmissionEngine, AdmissionRequest};
use crate::text;
use std::error::Error;
use std::fmt;
use vc2m_model::Platform;

/// The first line every rendered journal carries.
pub const JOURNAL_HEADER: &str = "# vc2m-admission-journal-v1";

/// The request/decision separator of a single record. Request lines
/// never contain it, so parsing splits on the first occurrence.
const SEPARATOR: &str = " => ";

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

/// The write-ahead decision journal (see the [module docs](self)).
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
        let mut text = String::from(JOURNAL_HEADER);
        text.push('\n');
        for record in &self.records {
            match record {
                JournalRecord::Single { request, decision } => {
                    text.push_str(request);
                    text.push_str(SEPARATOR);
                    text.push_str(decision);
                    text.push('\n');
                }
                JournalRecord::Batch { requests, decisions } => {
                    text.push_str("batch ");
                    text::put_u64(&mut text, requests.len() as u64, 0);
                    text.push('\n');
                    for request in requests {
                        text.push_str(request);
                        text.push('\n');
                    }
                    for decision in decisions {
                        text.push_str("=> ");
                        text.push_str(decision);
                        text.push('\n');
                    }
                }
            }
        }
        text
    }

    /// Parses the text form. Comment (`#`) and blank lines are
    /// ignored; a `batch n` header consumes the next `n` member
    /// request lines and then `n` `=> `-prefixed decision lines.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line on malformed input.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut records = Vec::new();
        let mut lines = text
            .lines()
            .enumerate()
            .map(|(i, l)| (i + 1, l.trim()))
            .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'));
        while let Some((number, line)) = lines.next() {
            if let Some(arity) = line.strip_prefix("batch ") {
                let arity: usize = arity
                    .trim()
                    .parse()
                    .map_err(|_| format!("line {number}: malformed batch arity"))?;
                if arity == 0 {
                    return Err(format!("line {number}: batch arity must be at least 1"));
                }
                let mut requests = Vec::with_capacity(arity);
                for _ in 0..arity {
                    let (member_number, member) = lines
                        .next()
                        .ok_or_else(|| format!("line {number}: batch truncated"))?;
                    if member.starts_with("=> ") {
                        return Err(format!(
                            "line {member_number}: decision line where a batch member request \
                             was expected"
                        ));
                    }
                    requests.push(member.to_string());
                }
                let mut decisions = Vec::with_capacity(arity);
                for _ in 0..arity {
                    let (member_number, member) = lines
                        .next()
                        .ok_or_else(|| format!("line {number}: batch truncated"))?;
                    let decision = member.strip_prefix("=> ").ok_or_else(|| {
                        format!("line {member_number}: batch decision line must start with '=> '")
                    })?;
                    decisions.push(decision.to_string());
                }
                records.push(JournalRecord::Batch { requests, decisions });
            } else if let Some((request, decision)) = line.split_once(SEPARATOR) {
                records.push(JournalRecord::Single {
                    request: request.to_string(),
                    decision: decision.to_string(),
                });
            } else {
                return Err(format!("line {number}: record has no '{SEPARATOR}' separator"));
            }
        }
        Ok(DecisionJournal { records })
    }
}

/// Why a journal could not be replayed into a fresh engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryError {
    /// A journaled request line failed to materialize.
    BadRequest {
        /// Zero-based record index.
        record: usize,
        /// The materializer's message.
        detail: String,
    },
    /// The reconstructed engine's decision diverged from the journaled
    /// line — the journal was produced under a different configuration
    /// (or was corrupted), so the recovered state cannot be trusted.
    Divergence {
        /// Zero-based record index.
        record: usize,
        /// The decision line the journal holds.
        journaled: String,
        /// The decision line the fresh engine produced.
        replayed: String,
    },
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::BadRequest { record, detail } => {
                write!(f, "journal record {record}: bad request: {detail}")
            }
            RecoveryError::Divergence {
                record,
                journaled,
                replayed,
            } => write!(
                f,
                "journal record {record}: replay diverged\n  journaled: {journaled}\n  \
                 replayed:  {replayed}"
            ),
        }
    }
}

impl Error for RecoveryError {}

/// Reconstructs a replacement engine from `journal`: replays every
/// journaled request (materialized from its text line by
/// `materialize`) into a fresh engine with `config`, comparing each
/// regenerated decision line byte-for-byte against the journaled one.
///
/// On success the returned engine is in the exact state of the engine
/// that wrote the journal — same working set, allocation, decision
/// log, statistics, and memo — so its subsequent decisions are
/// byte-identical to an engine that never crashed (see the
/// [module docs](self) for the argument, and the conformance suite
/// for the pin).
pub fn recover_engine<F>(
    platform: Platform,
    config: AdmissionConfig,
    journal: &DecisionJournal,
    mut materialize: F,
) -> Result<AdmissionEngine, RecoveryError>
where
    F: FnMut(&str) -> Result<AdmissionRequest, String>,
{
    let mut engine = AdmissionEngine::new(platform, config);
    // One buffer holds each regenerated line in turn.
    let mut line = String::new();
    for (record, entry) in journal.records().iter().enumerate() {
        match entry {
            JournalRecord::Single { request, decision } => {
                let materialized =
                    materialize(request).map_err(|detail| RecoveryError::BadRequest {
                        record,
                        detail,
                    })?;
                line.clear();
                engine.submit(materialized).write_log_line(&mut line);
                if line != *decision {
                    return Err(RecoveryError::Divergence {
                        record,
                        journaled: decision.clone(),
                        replayed: line,
                    });
                }
            }
            JournalRecord::Batch { requests, decisions } => {
                let mut materialized = Vec::with_capacity(requests.len());
                for request in requests {
                    materialized.push(materialize(request).map_err(|detail| {
                        RecoveryError::BadRequest { record, detail }
                    })?);
                }
                let replayed = engine.submit_batch(materialized);
                for (journaled, replayed) in decisions.iter().zip(replayed) {
                    line.clear();
                    replayed.write_log_line(&mut line);
                    if *journaled != line {
                        return Err(RecoveryError::Divergence {
                            record,
                            journaled: journaled.clone(),
                            replayed: line,
                        });
                    }
                }
                if replayed.len() != decisions.len() {
                    return Err(RecoveryError::Divergence {
                        record,
                        journaled: format!("{} decisions", decisions.len()),
                        replayed: format!("{} decisions", replayed.len()),
                    });
                }
            }
        }
    }
    Ok(engine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc2m_model::{Task, TaskId, TaskSet, VmId, VmSpec, WcetSurface};

    fn vm(id: usize, wcet_ms: f64, n: usize) -> VmSpec {
        let platform = Platform::platform_a();
        let space = platform.resources();
        let tasks: TaskSet = (0..n)
            .map(|i| {
                Task::new(
                    TaskId(id * 1000 + i),
                    10.0,
                    WcetSurface::flat(&space, wcet_ms).unwrap(),
                )
                .unwrap()
            })
            .collect();
        VmSpec::new(VmId(id), tasks).unwrap()
    }

    /// A toy one-line request encoding for these unit tests: `a <id>`
    /// arrives a small VM, `d <id>` departs it. (The production
    /// encoding lives in the trace model; the journal is agnostic.)
    fn materialize(line: &str) -> Result<AdmissionRequest, String> {
        let (kind, id) = line.split_once(' ').ok_or("missing id")?;
        let id: usize = id.parse().map_err(|_| "bad id".to_string())?;
        match kind {
            "a" => Ok(AdmissionRequest::Arrival(vm(id, 1.0, 2))),
            "d" => Ok(AdmissionRequest::Departure(VmId(id))),
            other => Err(format!("unknown kind '{other}'")),
        }
    }

    fn journaled_engine() -> (AdmissionEngine, DecisionJournal) {
        let mut engine = AdmissionEngine::new(Platform::platform_a(), AdmissionConfig::new(42));
        let mut journal = DecisionJournal::new();
        for line in ["a 1", "a 2", "d 1", "a 3"] {
            let decision = engine.submit(materialize(line).unwrap()).log_line();
            journal.append_single(line.to_string(), decision);
        }
        let batch = ["a 4", "a 5"];
        let decisions = engine
            .submit_batch(batch.iter().map(|l| materialize(l).unwrap()).collect())
            .iter()
            .map(|d| d.log_line())
            .collect();
        journal.append_batch(batch.iter().map(|l| l.to_string()).collect(), decisions);
        (engine, journal)
    }

    #[test]
    fn render_parse_round_trips() {
        let (_, journal) = journaled_engine();
        let text = journal.render();
        assert!(text.starts_with(JOURNAL_HEADER));
        let parsed = DecisionJournal::parse(&text).unwrap();
        assert_eq!(parsed, journal);
        assert_eq!(parsed.render(), text);
        assert_eq!(parsed.decisions(), 6);
    }

    #[test]
    fn parse_rejects_malformed_records() {
        let err = DecisionJournal::parse("a 1 no separator").unwrap_err();
        assert!(err.contains("line 1") && err.contains("separator"), "{err}");
        let err = DecisionJournal::parse("batch x").unwrap_err();
        assert!(err.contains("malformed batch arity"), "{err}");
        let err =
            DecisionJournal::parse("a 1 => #00000 ok\nbatch 0\na 2 => #00001 ok").unwrap_err();
        assert!(err.contains("line 2") && err.contains("at least 1"), "{err}");
        let err = DecisionJournal::parse("batch 2\na 1").unwrap_err();
        assert!(err.contains("truncated"), "{err}");
        let err = DecisionJournal::parse("batch 1\n=> #00000 oops").unwrap_err();
        assert!(err.contains("member request"), "{err}");
        let err = DecisionJournal::parse("batch 1\na 1\n#comment\nno prefix").unwrap_err();
        assert!(err.contains("must start with '=> '"), "{err}");
    }

    #[test]
    fn recovery_reconstructs_the_exact_engine_state() {
        let (original, journal) = journaled_engine();
        let recovered = recover_engine(
            Platform::platform_a(),
            AdmissionConfig::new(42),
            &journal,
            materialize,
        )
        .unwrap();
        assert_eq!(recovered.log_text(), original.log_text());
        assert_eq!(recovered.stats(), original.stats());
        assert_eq!(recovered.allocation(), original.allocation());
    }

    #[test]
    fn recovery_continues_byte_identically_at_every_prefix() {
        // For every crash point: recover from the journal prefix,
        // replay the remaining requests live, and demand the full log
        // byte-identical to the never-crashed engine's.
        let (original, journal) = journaled_engine();
        let tail = ["a 6", "d 2", "a 7"];
        let mut never_crashed = recover_engine(
            Platform::platform_a(),
            AdmissionConfig::new(42),
            &journal,
            materialize,
        )
        .unwrap();
        for line in tail {
            never_crashed.submit(materialize(line).unwrap());
        }
        for crash_point in 0..=journal.len() {
            let mut recovered = recover_engine(
                Platform::platform_a(),
                AdmissionConfig::new(42),
                &journal.prefix(crash_point),
                materialize,
            )
            .unwrap();
            // Re-drive what the prefix missed from the journal's own
            // request lines, then the live tail.
            for record in &journal.records()[crash_point..] {
                match record {
                    JournalRecord::Single { request, .. } => {
                        recovered.submit(materialize(request).unwrap());
                    }
                    JournalRecord::Batch { requests, .. } => {
                        recovered.submit_batch(
                            requests.iter().map(|l| materialize(l).unwrap()).collect(),
                        );
                    }
                }
            }
            for line in tail {
                recovered.submit(materialize(line).unwrap());
            }
            assert_eq!(
                recovered.log_text(),
                never_crashed.log_text(),
                "crash point {crash_point}"
            );
            assert_eq!(recovered.allocation(), never_crashed.allocation());
        }
        assert_eq!(original.decisions().len(), 6);
    }

    #[test]
    fn divergence_is_detected_not_absorbed() {
        let (_, journal) = journaled_engine();
        // Tamper with one decision byte: recovery under the same
        // config must fail loudly.
        let mut text = journal.render();
        text = text.replace("vm=2", "vm=9");
        let tampered = DecisionJournal::parse(&text).unwrap();
        let err = recover_engine(
            Platform::platform_a(),
            AdmissionConfig::new(42),
            &tampered,
            materialize,
        )
        .unwrap_err();
        assert!(matches!(err, RecoveryError::Divergence { .. }), "{err}");
        let err = recover_engine(
            Platform::platform_a(),
            AdmissionConfig::new(42),
            &DecisionJournal::parse("frob 1 => #00000 x").unwrap(),
            materialize,
        )
        .unwrap_err();
        assert!(matches!(err, RecoveryError::BadRequest { .. }), "{err}");
        assert!(err.to_string().contains("record 0"), "{err}");
    }
}
