//! Exact, allocation-lean rendering of the byte-stable log lines.
//!
//! The decision log, the fleet log and the journal's decision half are
//! byte-stable: goldens pin them and recovery compares them byte for
//! byte. Every journaled decision renders one, and `core::fmt`'s
//! `{:.6}` float path would be most of that cost. This module pushes
//! the same bytes straight into a [`Sink`]:
//!
//! * unsigned integers, optionally zero-padded ([`put_u64`]);
//! * fixed six-decimal floats ([`put_fixed6`]), exactly std's `{:.6}`.
//!
//! A [`Render`] value is turned into a `String` by [`exact`]: one pass
//! into a [`Measure`] counts the bytes, the second fills a buffer of
//! exactly that capacity, so a line costs one heap allocation and
//! keeps no slack.
//!
//! # Why `put_fixed6` prints what `{:.6}` prints
//!
//! std rounds `{:.6}` correctly: the decimal it prints is the float's
//! exact value rounded to six decimals, ties to even (`0.0078125`
//! prints `0.007812`, `0.0234375` prints `0.023438`). A finite `v`
//! with its sign bit clear is exactly `m·2^e` for integers `m < 2^53`
//! and `e`. Below `2^53 / 10^6` every such value has `e < 0`, so
//!
//! ```text
//! v·10^6 = (m·10^6) / 2^s,  s = -e,  m·10^6 < 2^73
//! ```
//!
//! and `N = round_half_even(v·10^6)` is one `u128` right shift by `s`
//! plus a test of the shifted-out remainder against `2^(s-1)`: no
//! step approximates. `N / 10^6`, a `.`, and `N % 10^6` padded to six
//! digits are then the bytes std prints.
//!
//! Every other value goes to std itself (`write!(out, "{v:.6}")`):
//! negative values, NaN, ±inf, values at or above `2^53 / 10^6`, and
//! `-0.0`, which std prints as `-0.000000`.

use std::fmt;

/// Upper end (exclusive) of [`put_fixed6`]'s exact domain:
/// `2^53 / 10^6`, so `N` stays below `2^53`.
const EXACT_LIMIT: f64 = (1u64 << 53) as f64 / 1e6;

/// A byte sink: a `String` being filled, or a [`Measure`] counting
/// the bytes a fill would push.
pub(crate) trait Sink {
    /// Pushes `s`.
    fn put(&mut self, s: &str);
    /// Pushes ASCII `bytes` (digits).
    fn put_ascii(&mut self, bytes: &[u8]);
    /// Pushes std's rendering of `args` (the out-of-domain fallback).
    fn put_fmt(&mut self, args: fmt::Arguments<'_>);
}

impl Sink for String {
    fn put(&mut self, s: &str) {
        self.push_str(s);
    }

    fn put_ascii(&mut self, bytes: &[u8]) {
        self.extend(bytes.iter().map(|&b| char::from(b)));
    }

    fn put_fmt(&mut self, args: fmt::Arguments<'_>) {
        // Writing into a `String` cannot fail.
        let _ = fmt::Write::write_fmt(self, args);
    }
}

/// Counts the bytes a render would push.
#[derive(Debug, Default)]
pub(crate) struct Measure(usize);

impl fmt::Write for Measure {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 += s.len();
        Ok(())
    }
}

impl Sink for Measure {
    fn put(&mut self, s: &str) {
        self.0 += s.len();
    }

    fn put_ascii(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }

    fn put_fmt(&mut self, args: fmt::Arguments<'_>) {
        // `write_str` above never fails.
        let _ = fmt::Write::write_fmt(self, args);
    }
}

/// A value with a byte-stable text form.
pub(crate) trait Render {
    /// Pushes the text form into `out`. Must push the same bytes on
    /// every call: [`exact`] sizes its buffer from a first pass.
    fn render<S: Sink>(&self, out: &mut S);
}

/// `value`'s text form in a `String` of exactly its length, built
/// with a single allocation.
pub(crate) fn exact<R: Render>(value: &R) -> String {
    let mut measure = Measure::default();
    value.render(&mut measure);
    let mut text = String::with_capacity(measure.0);
    value.render(&mut text);
    debug_assert_eq!(
        text.len(),
        measure.0,
        "measuring and filling passes disagree"
    );
    text
}

/// Pushes `n` in decimal, zero-padded on the left to at least `width`
/// digits (`{n:0width$}`).
pub(crate) fn put_u64<S: Sink>(out: &mut S, mut n: u64, width: usize) {
    // u64::MAX has 20 digits.
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    for _ in digits.len() - start..width {
        out.put_ascii(b"0");
    }
    out.put_ascii(&digits[start..]);
}

/// Pushes `v` with exactly six decimals, byte-identical to std's
/// `{v:.6}` (see the [module docs](self) for the argument).
pub(crate) fn put_fixed6<S: Sink>(out: &mut S, v: f64) {
    match micros_half_even(v) {
        Some(n) => {
            put_u64(out, n / 1_000_000, 0);
            out.put(".");
            put_u64(out, n % 1_000_000, 6);
        }
        None => out.put_fmt(format_args!("{v:.6}")),
    }
}

/// `round_half_even(v·10^6)` for `v` in the exact domain (finite,
/// sign bit clear, below `2^53 / 10^6`); `None` outside it.
fn micros_half_even(v: f64) -> Option<u64> {
    // -0.0 and negatives fail the sign test, ±inf the limit.
    if v.is_nan() || v.is_sign_negative() || v >= EXACT_LIMIT {
        return None;
    }
    let bits = v.to_bits();
    let fraction = bits & ((1u64 << 52) - 1);
    let biased = (bits >> 52) as u32;
    // v = m·2^-s exactly; subnormals have no implicit leading bit.
    let (m, s) = if biased == 0 {
        (fraction, 1074)
    } else {
        (fraction | (1u64 << 52), 1075 - biased)
    };
    // m·10^6 < 2^73 ≤ 2^(s-1) once s > 73: the value is under half a
    // millionth and rounds to 0 (this also keeps the shifts in range).
    if s > 73 {
        return Some(0);
    }
    let scaled = u128::from(m) * 1_000_000;
    let quotient = scaled >> s;
    let remainder = scaled & ((1u128 << s) - 1);
    let half = 1u128 << (s - 1);
    let round_up = remainder > half || (remainder == half && quotient & 1 == 1);
    // quotient ≤ v·10^6 < 2^53, so the cast is lossless.
    Some(quotient as u64 + u64::from(round_up))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed6(v: f64) -> String {
        let mut out = String::new();
        put_fixed6(&mut out, v);
        out
    }

    fn padded(n: u64, width: usize) -> String {
        let mut out = String::new();
        put_u64(&mut out, n, width);
        out
    }

    #[test]
    fn integers_match_std_padding() {
        for n in [0, 7, 10, 99_999, 100_000, 123_456_789, u64::MAX] {
            for width in [0, 1, 5, 6, 20, 22] {
                assert_eq!(padded(n, width), format!("{n:0width$}"));
            }
        }
    }

    #[test]
    fn ties_round_to_even_like_std() {
        // Exactly representable seven-decimal values: k·2^-7.
        for k in 0..=1024u32 {
            let v = f64::from(k) / 128.0;
            assert_eq!(fixed6(v), format!("{v:.6}"), "k = {k}");
        }
        assert_eq!(fixed6(0.0078125), "0.007812");
        assert_eq!(fixed6(0.0234375), "0.023438");
    }

    #[test]
    fn edges_match_std() {
        let limit_below = f64::from_bits(EXACT_LIMIT.to_bits() - 1);
        for v in [
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            5e-7,
            4.999_999_999_999_999e-7,
            0.999_999_5,
            1.0,
            limit_below,
            EXACT_LIMIT,
            1e300,
            f64::MAX,
            -1.5,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            assert_eq!(fixed6(v), format!("{v:.6}"), "v = {v:e}");
        }
    }
}
