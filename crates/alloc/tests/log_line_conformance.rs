//! Byte conformance of the decision-line renderer.
//!
//! `AdmissionDecision::log_line` and `FleetDecision::log_line(hosts)`
//! render without `core::fmt` (fixed-point floats through an exact
//! `u128` rounding). Their contract is byte identity with the
//! `format!` expressions they replaced, which this suite keeps
//! verbatim as oracles and compares over seeded decisions:
//!
//! - floats drawn from random in-domain bit patterns, exact dyadic
//!   ties with seven decimals (`k·2^-7`, e.g. `0.0078125`), `0.0`,
//!   `-0.0`, subnormals, values straddling the exact domain's limit
//!   `2^53 / 10^6`, NaN, ±inf and negatives;
//! - all four verdicts with their reasons, and indices at and past
//!   the 5-digit pad.

use vc2m_alloc::{AdmissionDecision, AdmissionPath, AdmissionVerdict, FleetDecision, RequestKind};
use vc2m_model::VmId;
use vc2m_rng::{cases::check, DetRng, Rng};

/// The original `AdmissionDecision::log_line`, verbatim.
fn oracle_log_line(d: &AdmissionDecision) -> String {
    let verdict = match &d.verdict {
        AdmissionVerdict::Admitted { path } => format!("admitted/{}", path.name()),
        AdmissionVerdict::Rejected { reason } => format!("rejected ({reason})"),
        AdmissionVerdict::Degraded { reason } => format!("degraded ({reason})"),
        AdmissionVerdict::Departed => "departed".to_string(),
    };
    format!(
        "#{:05} {} vm={} u={:.6} -> {} | vms={} vcpus={} cores={} load={:.6}",
        d.index,
        d.kind.name(),
        d.vm.0,
        d.utilization,
        verdict,
        d.vms,
        d.vcpus,
        d.cores,
        d.load,
    )
}

/// The original `FleetDecision::log_line`, verbatim.
fn oracle_fleet_line(d: &FleetDecision, hosts: usize) -> String {
    let mut line = if hosts > 1 {
        format!("{} host={}", oracle_log_line(&d.decision), d.host)
    } else {
        oracle_log_line(&d.decision)
    };
    if d.evac {
        line.push_str(" evac");
    }
    line
}

/// `2^53 / 10^6`, the exact domain's (exclusive) upper end.
fn limit() -> f64 {
    (1u64 << 53) as f64 / 1e6
}

/// One float from the families the module docs name.
fn value(rng: &mut DetRng) -> f64 {
    match rng.gen_range(0u32..7) {
        // Random in-domain bit pattern: biased exponents up to 2^33.
        0 => f64::from_bits((rng.gen_range(0u64..=1056) << 52) | rng.gen_range(0u64..1 << 52)),
        // Exact ties: an odd multiple of 2^-7 has seven decimals, the
        // last one a 5.
        1 => (2 * rng.gen_range(0u64..1 << 40) + 1) as f64 / 128.0,
        2 => *pick(
            rng,
            &[
                0.0,
                -0.0,
                f64::MIN_POSITIVE,
                5e-7,
                0.999_999_5,
                1.0,
                0.0078125,
                0.0234375,
            ],
        ),
        // Subnormals.
        3 => f64::from_bits(rng.gen_range(1u64..1 << 52)),
        // A few ulps either side of the domain limit.
        4 => f64::from_bits(limit().to_bits() - 8 + rng.gen_range(0u64..16)),
        // NaN, ±inf, negatives and values far past the limit.
        5 => match rng.gen_range(0u32..5) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => -f64::from_bits(rng.gen_range(0u64..2047 << 52)),
            _ => f64::from_bits(rng.gen_range(limit().to_bits()..2047 << 52)),
        },
        // The engine's own range: utilizations and loads.
        _ => rng.gen_range(0.0f64..16.0),
    }
}

fn pick<'a, T>(rng: &mut DetRng, items: &'a [T]) -> &'a T {
    &items[rng.gen_range(0usize..items.len())]
}

fn count(rng: &mut DetRng) -> usize {
    if rng.gen_bool(0.2) {
        rng.gen_range(0usize..=usize::MAX)
    } else {
        rng.gen_range(0usize..200)
    }
}

fn reason(rng: &mut DetRng) -> String {
    match rng.gen_range(0u32..4) {
        0 => format!("vm {} already admitted", count(rng)),
        1 => format!(
            "demand {:.6} exceeds capacity {:.6}",
            value(rng),
            value(rng)
        ),
        2 => "no feasible allocation".to_string(),
        _ => String::new(),
    }
}

fn decision(rng: &mut DetRng) -> AdmissionDecision {
    let verdict = match rng.gen_range(0u32..4) {
        0 => AdmissionVerdict::Admitted {
            path: *pick(rng, &[AdmissionPath::Incremental, AdmissionPath::Repack]),
        },
        1 => AdmissionVerdict::Rejected {
            reason: reason(rng),
        },
        2 => AdmissionVerdict::Degraded {
            reason: reason(rng),
        },
        _ => AdmissionVerdict::Departed,
    };
    let index = match rng.gen_range(0u32..3) {
        0 => rng.gen_range(0u64..100_000),
        1 => rng.gen_range(100_000u64..10_000_000),
        _ => rng.gen_range(0u64..=u64::MAX),
    };
    AdmissionDecision {
        index,
        kind: *pick(
            rng,
            &[
                RequestKind::Arrival,
                RequestKind::Departure,
                RequestKind::ModeChange,
            ],
        ),
        vm: VmId(count(rng)),
        utilization: value(rng),
        verdict,
        vms: count(rng),
        vcpus: count(rng),
        cores: count(rng),
        load: value(rng),
    }
}

#[test]
fn decision_lines_match_the_format_oracle() {
    check(2_000, |rng| {
        let d = decision(rng);
        let line = d.log_line();
        assert_eq!(line, oracle_log_line(&d), "{d:?}");
        let mut appended = String::from("prefix ");
        d.write_log_line(&mut appended);
        assert_eq!(appended, format!("prefix {line}"));
    });
}

#[test]
fn fleet_lines_match_the_format_oracle() {
    check(2_000, |rng| {
        let d = FleetDecision {
            host: count(rng),
            decision: decision(rng),
            evac: rng.gen_bool(0.5),
        };
        for hosts in [1, 2, rng.gen_range(3usize..64)] {
            assert_eq!(d.log_line(hosts), oracle_fleet_line(&d, hosts), "{d:?}");
        }
    });
}

#[test]
fn decision_lines_keep_exact_size_buffers() {
    check(500, |rng| {
        let line = decision(rng).log_line();
        assert_eq!(line.capacity(), line.len());
    });
}
