//! Seeded byte-mutation suite for the admission codec.
//!
//! Rendered traces and journals of generated workloads are truncated,
//! have a byte replaced, are spliced with another input, have a line
//! duplicated, or have a number replaced by a boundary value — one to
//! three mutations stacked. Every mutated input must end in `Ok` or
//! `Err`, never a panic, from `AdmissionTrace::parse`,
//! `DecisionJournal::parse` and, for a journal that parses,
//! `recover_engine`. Every input that parses must round-trip
//! render → parse byte for byte.
//!
//! `VC2M_CASES` scales the case count (CI runs 2 000 in release).

use vc2m_alloc::codec::{generate, AdmissionTrace, DecisionJournal, TraceSpec};
use vc2m_alloc::recovery::{recover_engine, replay};
use vc2m_alloc::{AdmissionConfig, AdmissionEngine};
use vc2m_model::Platform;
use vc2m_rng::{cases::check, DetRng, Rng};

/// Values at the edges of what a numeric field holds, written over a
/// run of digits: the largest utilization, a batch arity of `1 << 40`,
/// the largest VM id whose task ids fit a `usize`, `usize::MAX`, and
/// one past it.
const BOUNDARIES: [&str; 6] = [
    "0",
    "1000",
    "1099511627776",
    "184467440737094",
    "18446744073709551615",
    "18446744073709551616",
];

/// The rendered trace of a small generated workload (batches, mode
/// changes, departures, retries, `hosts` and `crit` directives) and
/// the rendered journal its replay wrote.
fn corpus(rng: &mut DetRng) -> [Vec<u8>; 2] {
    let mut spec = TraceSpec::new(rng.gen_range(1usize..=10), rng.gen_range(0u64..1 << 32))
        .with_hosts(rng.gen_range(1usize..=3))
        .with_hi_fraction(if rng.gen_bool(0.5) { 0.3 } else { 0.0 });
    spec.live_range = (2, 5);
    spec.batch_fraction = 0.3;
    spec.retry_fraction = 0.1;
    let trace = generate(&spec);
    let mut engine = AdmissionEngine::new(Platform::platform_a(), AdmissionConfig::new(42));
    let journal = replay(&mut engine, &trace);
    [trace.render().into_bytes(), journal.render().into_bytes()]
}

/// Applies one random mutation to `input`; `other` is a second input
/// to splice from.
fn mutate(rng: &mut DetRng, input: &mut Vec<u8>, other: &[u8]) {
    // A uniform draw from `0..=max`.
    let mut pick = |max: usize| rng.gen_range(0usize..max + 1);
    match pick(4) {
        0 => input.truncate(pick(input.len())),
        1 if !input.is_empty() => {
            let at = pick(input.len() - 1);
            input[at] = pick(255) as u8;
        }
        2 => {
            input.truncate(pick(input.len()));
            input.extend_from_slice(&other[pick(other.len())..]);
        }
        3 if !input.is_empty() => {
            let mut lines: Vec<&[u8]> = input.split_inclusive(|&b| b == b'\n').collect();
            let line = lines[pick(lines.len() - 1)];
            lines.insert(pick(lines.len()), line);
            *input = lines.concat();
        }
        _ => {
            let digit = |i: usize| input[i].is_ascii_digit();
            let runs: Vec<usize> = (0..input.len())
                .filter(|&i| digit(i) && (i == 0 || !digit(i - 1)))
                .collect();
            if let Some(&start) = runs.get(pick(runs.len())) {
                let digits = input[start..].iter().take_while(|b| b.is_ascii_digit()).count();
                let value = BOUNDARIES[pick(BOUNDARIES.len() - 1)];
                input.splice(start..start + digits, value.bytes());
            }
        }
    }
}

#[test]
fn mutated_traces_and_journals_parse_or_fail_without_panicking() {
    check(512, |rng| {
        let corpus = corpus(rng);
        let mut input = corpus[rng.gen_range(0usize..2)].clone();
        for _ in 0..rng.gen_range(1u32..=3) {
            let other = &corpus[rng.gen_range(0usize..2)];
            mutate(rng, &mut input, other);
        }
        let text = String::from_utf8_lossy(&input);
        if let Ok(trace) = AdmissionTrace::parse(&text) {
            let rendered = trace.render();
            let again = AdmissionTrace::parse(&rendered).unwrap_or_else(|e| panic!("{e}\n{text}"));
            assert_eq!((&again, again.render()), (&trace, rendered), "{text}");
        }
        if let Ok(journal) = DecisionJournal::parse(&text) {
            let rendered = journal.render();
            let again = DecisionJournal::parse(&rendered).unwrap_or_else(|e| panic!("{e}\n{text}"));
            assert_eq!((&again, again.render()), (&journal, rendered), "{text}");
            // Ok or a typed error; a panic fails the case.
            let _ = recover_engine(Platform::platform_a(), AdmissionConfig::new(42), &journal);
        }
    });
}
