//! Time representation.
//!
//! Analysis code works in *milliseconds as `f64`* (the unit of the
//! paper's task periods, which are drawn from \[100, 1100\] ms).
//! The discrete-event simulator works in *integer nanoseconds* so that
//! event ordering is exact and runs are bit-for-bit reproducible.
//! [`SimTime`] and [`SimDuration`] are the simulator-side newtypes;
//! [`ms_to_ns`]/[`ns_to_ms`] convert between the two worlds.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An absolute instant on the simulator clock, in nanoseconds since the
/// start of the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

/// Converts milliseconds (analysis units) to integer nanoseconds
/// (simulation units), rounding to the nearest nanosecond.
///
/// # Panics
///
/// Panics if `ms` is negative or too large to represent in a `u64`
/// nanosecond count (≈ 584 years — far beyond any simulation horizon).
pub fn ms_to_ns(ms: f64) -> u64 {
    assert!(
        ms.is_finite() && ms >= 0.0,
        "time in ms must be finite and non-negative, got {ms}"
    );
    let ns = ms * 1e6;
    assert!(ns <= u64::MAX as f64, "time {ms} ms overflows u64 ns");
    ns.round() as u64
}

/// Converts integer nanoseconds back to milliseconds.
pub fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

impl SimTime {
    /// The simulation origin, t = 0.
    pub const ZERO: SimTime = SimTime(0);

    /// Builds an instant from a millisecond value.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`ms_to_ns`].
    pub fn from_ms(ms: f64) -> Self {
        SimTime(ms_to_ns(ms))
    }

    /// Returns this instant expressed in milliseconds.
    pub fn as_ms(self) -> f64 {
        ns_to_ms(self.0)
    }

    /// Returns the raw nanosecond count.
    pub fn as_ns(self) -> u64 {
        self.0
    }

    /// Duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`; elapsed time cannot be
    /// negative on a forward-only simulation clock.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        assert!(
            earlier <= self,
            "since() requires earlier ({earlier}) <= self ({self})"
        );
        SimDuration(self.0 - earlier.0)
    }

    /// Saturating difference: zero if `earlier` is after `self`.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Builds a duration from a millisecond value.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`ms_to_ns`].
    pub fn from_ms(ms: f64) -> Self {
        SimDuration(ms_to_ns(ms))
    }

    /// Returns this duration expressed in milliseconds.
    pub fn as_ms(self) -> f64 {
        ns_to_ms(self.0)
    }

    /// Returns the raw nanosecond count.
    pub fn as_ns(self) -> u64 {
        self.0
    }

    /// Saturating subtraction of durations.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Returns the smaller of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    // Like the integer types' `-`, an underflow here is a bug in the
    // caller, never input: callers that may underflow use
    // `saturating_sub`. Panicking keeps a wrapped duration from
    // silently corrupting a schedule.
    #[allow(clippy::expect_used)]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("duration subtraction underflow"),
        )
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}ms", self.as_ms())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}ms", self.as_ms())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ms_ns_roundtrip() {
        for ms in [0.0, 0.001, 1.0, 100.0, 1100.0, 123.456_789] {
            let ns = ms_to_ns(ms);
            assert!(
                (ns_to_ms(ns) - ms).abs() < 1e-9,
                "roundtrip failed for {ms}"
            );
        }
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_ms(10.0);
        let d = SimDuration::from_ms(2.5);
        assert_eq!((t + d).as_ms(), 12.5);
        assert_eq!((t + d).since(t), d);
        assert_eq!(d + d, SimDuration::from_ms(5.0));
        assert_eq!(d - SimDuration::from_ms(1.0), SimDuration::from_ms(1.5));
    }

    #[test]
    fn saturating_ops() {
        let early = SimTime::from_ms(1.0);
        let late = SimTime::from_ms(2.0);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_ms(1.0).saturating_sub(SimDuration::from_ms(3.0)),
            SimDuration::ZERO
        );
    }

    #[test]
    #[should_panic(expected = "since() requires earlier")]
    fn since_panics_on_negative_elapsed() {
        let early = SimTime::from_ms(1.0);
        let late = SimTime::from_ms(2.0);
        let _ = early.since(late);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_ms_rejected() {
        let _ = ms_to_ns(-1.0);
    }

    #[test]
    fn display_mentions_unit() {
        assert!(SimTime::from_ms(1.5).to_string().contains("ms"));
        assert!(SimDuration::from_ms(1.5).to_string().contains("ms"));
    }

    #[test]
    fn ordering_is_exact() {
        // The motivation for integer time: equal ms values collide exactly.
        assert_eq!(SimTime::from_ms(0.1 + 0.2), SimTime::from_ms(0.3));
    }
}
