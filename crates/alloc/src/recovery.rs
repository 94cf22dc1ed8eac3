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
//! The journal's format (`vc2m-admission-journal-v1`) belongs to the
//! admission codec, [`codec`](crate::codec), beside the trace format
//! whose request lines it journals.

use crate::admission::{AdmissionConfig, AdmissionEngine};
use crate::codec::{engine_request, materialize, AdmissionTrace, TraceItem};
use crate::codec::{DecisionJournal, JournalRecord};
use std::error::Error;
use std::fmt;
use vc2m_model::Platform;

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

/// Replays `trace` into `engine` (appending to its decision log):
/// singles via [`AdmissionEngine::submit`], batches via
/// [`AdmissionEngine::submit_batch`]. Returns the write-ahead
/// [`DecisionJournal`] of the replayed items, one record per item:
/// the request's canonical trace line paired with the engine's
/// byte-stable decision line (batch records keep requests in
/// submission order and decisions in the engine's canonical order).
/// Persisting the rendered journal lets [`recover_engine`] reconstruct
/// a bit-identical replacement engine after a crash.
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

/// Reconstructs a replacement engine from `journal`: every journaled
/// request line is parsed and materialized ([`materialize`]) and
/// replayed into a fresh engine with `config`, and each regenerated
/// decision line is compared byte-for-byte against the journaled one.
///
/// On success the returned engine is in the exact state of the engine
/// that wrote the journal — same working set, allocation, decision
/// log, statistics, and memo — so its subsequent decisions are
/// byte-identical to an engine that never crashed (see the
/// [module docs](self) for the argument, and the conformance suite
/// for the pin).
///
/// # Errors
///
/// [`RecoveryError::BadRequest`] for a request line the codec refuses,
/// [`RecoveryError::Divergence`] for a replayed decision that differs
/// from the journaled one.
pub fn recover_engine(
    platform: Platform,
    config: AdmissionConfig,
    journal: &DecisionJournal,
) -> Result<AdmissionEngine, RecoveryError> {
    let space = platform.resources();
    let mut engine = AdmissionEngine::new(platform, config);
    // One buffer holds each regenerated line in turn.
    let mut line = String::new();
    for (record, entry) in journal.records().iter().enumerate() {
        let parse = |request: &String| {
            materialize(request, space)
                .map_err(|detail| RecoveryError::BadRequest { record, detail })
        };
        let (journaled, replayed) = match entry {
            JournalRecord::Single { request, decision } => (
                std::slice::from_ref(decision),
                std::slice::from_ref(engine.submit(parse(request)?)),
            ),
            JournalRecord::Batch { requests, decisions } => {
                let materialized = requests.iter().map(parse).collect::<Result<_, _>>()?;
                (decisions.as_slice(), engine.submit_batch(materialized))
            }
        };
        for (journaled, replayed) in journaled.iter().zip(replayed) {
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
        if replayed.len() != journaled.len() {
            return Err(RecoveryError::Divergence {
                record,
                journaled: format!("{} decisions", journaled.len()),
                replayed: format!("{} decisions", replayed.len()),
            });
        }
    }
    Ok(engine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{generate, TraceSpec, JOURNAL_HEADER};

    /// A generated trace with batches, mode changes and departures,
    /// replayed into an engine, and the journal it wrote.
    fn journaled_engine() -> (AdmissionEngine, DecisionJournal) {
        let trace = generate(&TraceSpec::new(30, 13));
        assert!(trace.items().iter().any(|item| matches!(item, TraceItem::Batch(_))));
        let mut engine = AdmissionEngine::new(Platform::platform_a(), AdmissionConfig::new(42));
        let journal = replay(&mut engine, &trace);
        assert_eq!(journal.decisions(), trace.len());
        (engine, journal)
    }

    fn recover(journal: &DecisionJournal) -> Result<AdmissionEngine, RecoveryError> {
        recover_engine(Platform::platform_a(), AdmissionConfig::new(42), journal)
    }

    #[test]
    fn render_parse_round_trips() {
        let (_, journal) = journaled_engine();
        let text = journal.render();
        assert!(text.starts_with(JOURNAL_HEADER));
        let parsed = DecisionJournal::parse(&text).unwrap();
        assert_eq!(parsed, journal);
        assert_eq!(parsed.render(), text);
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

    /// The persisted text form round-trips, and a replacement engine
    /// recovered from it is in the exact state of the one that wrote
    /// it.
    #[test]
    fn recovery_reconstructs_the_exact_engine_state() {
        let (original, journal) = journaled_engine();
        let parsed = DecisionJournal::parse(&journal.render()).unwrap();
        assert_eq!(parsed, journal);
        let recovered = recover(&parsed).unwrap();
        assert_eq!(recovered.log_text(), original.log_text());
        assert_eq!(recovered.stats(), original.stats());
        assert_eq!(recovered.allocation(), original.allocation());
    }

    /// For every crash point: recover the journal prefix, re-drive the
    /// records it missed, serve a live tail, and the engine equals the
    /// one that never crashed.
    #[test]
    fn recovery_continues_byte_identically_at_every_prefix() {
        let (_, journal) = journaled_engine();
        let request = |line: &str| materialize(line, Platform::platform_a().resources()).unwrap();
        let tail = ["arrive 1000 0.150 6", "depart 2", "mode 3 0.120 7"];
        let serve = |engine: &mut AdmissionEngine, records: &[JournalRecord]| {
            for record in records {
                match record {
                    JournalRecord::Single { request: line, .. } => {
                        engine.submit(request(line));
                    }
                    JournalRecord::Batch { requests, .. } => {
                        engine.submit_batch(requests.iter().map(|l| request(l)).collect());
                    }
                }
            }
            for line in tail {
                engine.submit(request(line));
            }
        };
        let mut never_crashed = recover(&journal).unwrap();
        serve(&mut never_crashed, &[]);
        for crash_point in 0..=journal.len() {
            let mut recovered = recover(&journal.prefix(crash_point)).unwrap();
            serve(&mut recovered, &journal.records()[crash_point..]);
            assert_eq!(recovered.log_text(), never_crashed.log_text(), "crash point {crash_point}");
            assert_eq!(recovered.allocation(), never_crashed.allocation());
            assert_eq!(recovered.stats(), never_crashed.stats());
        }
    }

    #[test]
    fn divergence_is_detected_not_absorbed() {
        let (_, journal) = journaled_engine();
        // Tamper with one decision byte: recovery under the same
        // config must fail loudly.
        let text = journal.render().replacen("vm=2 ", "vm=9 ", 1);
        let tampered = DecisionJournal::parse(&text).unwrap();
        let err = recover(&tampered).unwrap_err();
        assert!(matches!(err, RecoveryError::Divergence { .. }), "{err}");
        let err = recover(&DecisionJournal::parse("frob 1 => #00000 x").unwrap()).unwrap_err();
        assert!(matches!(err, RecoveryError::BadRequest { .. }), "{err}");
        assert!(err.to_string().contains("record 0"), "{err}");
    }
}
