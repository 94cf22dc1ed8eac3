//! Wall-clock probes for the hypervisor's handler hot paths.
//!
//! The paper measures its prototype's run-time overhead by
//! timestamping each handler invocation (the approach of \[14\]) and
//! reporting min/avg/max (Tables 1 and 2). The simulator does the
//! same: every throttle, refill, budget replenishment, scheduling
//! decision and context switch is timed. Absolute values measure *this
//! simulator on this machine*, not Xen on a Xeon — what carries over
//! is the shape: which handlers are cheap, which are expensive, and
//! how costs scale with the number of VCPUs.
//!
//! A probe reads a raw tick counter twice and adds the difference to
//! an integer accumulator of its kind; nothing is converted or
//! allocated per invocation. On x86_64 the ticks are the CPU's
//! time-stamp counter (`rdtsc`), which costs about half of a monotonic
//! clock read; elsewhere they are nanoseconds of [`Instant`]. Ticks
//! become microseconds only in [`Probes::into_map`], scaled by the
//! tick rate observed against [`Instant`] between the first probe and
//! that call.

use crate::HandlerKind;
use std::collections::BTreeMap;
use std::time::Instant;
use vc2m_simcore::MinAvgMax;

/// The raw tick counter behind every probe.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn ticks(_epoch: Instant) -> u64 {
    // SAFETY: `rdtsc` exists on every x86_64 CPU and only reads the
    // time-stamp counter.
    unsafe { core::arch::x86_64::_rdtsc() }
}

/// The raw tick counter behind every probe: nanoseconds since `epoch`.
#[cfg(not(target_arch = "x86_64"))]
#[inline(always)]
fn ticks(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// Count, sum, min and max of one handler kind's durations, in ticks.
#[derive(Debug, Clone, Copy)]
struct Accumulator {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Accumulator {
    const EMPTY: Accumulator = Accumulator {
        count: 0,
        sum: 0,
        min: u64::MAX,
        max: 0,
    };
}

/// A set of per-handler wall-clock accumulators.
#[derive(Debug, Clone)]
pub struct Probes {
    acc: [Accumulator; HandlerKind::ALL.len()],
    /// Origin of the tick counter where it counts nanoseconds.
    epoch: Instant,
    /// The instant and tick reading of the first probe: the
    /// calibration anchor.
    anchor: Option<(Instant, u64)>,
}

impl Default for Probes {
    fn default() -> Self {
        Probes::new()
    }
}

impl Probes {
    /// Creates an empty probe set.
    pub fn new() -> Self {
        Probes {
            acc: [Accumulator::EMPTY; HandlerKind::ALL.len()],
            epoch: Instant::now(),
            anchor: None,
        }
    }

    /// Runs `f`, recording its wall-clock duration under `kind`.
    pub fn time<T>(&mut self, kind: HandlerKind, f: impl FnOnce() -> T) -> T {
        if self.anchor.is_none() {
            self.anchor = Some((Instant::now(), ticks(self.epoch)));
        }
        let start = ticks(self.epoch);
        let out = f();
        let elapsed = ticks(self.epoch).saturating_sub(start);
        let acc = &mut self.acc[kind as usize];
        acc.count += 1;
        acc.sum += elapsed;
        acc.min = acc.min.min(elapsed);
        acc.max = acc.max.max(elapsed);
        out
    }

    /// All gathered statistics in microseconds, keyed by handler. Kinds
    /// never invoked are absent.
    pub fn into_map(self) -> BTreeMap<HandlerKind, MinAvgMax> {
        let Some((at, start)) = self.anchor else {
            return BTreeMap::new();
        };
        let span_ticks = ticks(self.epoch).saturating_sub(start);
        let us_per_tick = if span_ticks == 0 {
            1e-3
        } else {
            at.elapsed().as_nanos() as f64 / 1e3 / span_ticks as f64
        };
        HandlerKind::ALL
            .iter()
            .zip(&self.acc)
            .filter(|(_, acc)| acc.count > 0)
            .map(|(&kind, acc)| {
                let sum = acc.sum as f64 * us_per_tick;
                // Scaling rounds each value on its own; clamp so the
                // mean stays within [min, max] as it does in ticks.
                let avg = sum / acc.count as f64;
                let min = (acc.min as f64 * us_per_tick).min(avg);
                let max = (acc.max as f64 * us_per_tick).max(avg);
                (kind, MinAvgMax::from_parts(acc.count, sum, min, max))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_records_samples() {
        let mut p = Probes::new();
        let value = p.time(HandlerKind::Scheduling, || 21 * 2);
        assert_eq!(value, 42);
        let map = p.into_map();
        let s = &map[&HandlerKind::Scheduling];
        assert_eq!(s.count(), 1);
        assert!(s.min().unwrap() >= 0.0);
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn counts_match_invocations_and_bounds_hold() {
        // The accumulators are indexed by discriminant.
        for (i, kind) in HandlerKind::ALL.iter().enumerate() {
            assert_eq!(*kind as usize, i);
        }
        let mut p = Probes::new();
        for i in 0..1_000u64 {
            p.time(HandlerKind::ContextSwitch, || std::hint::black_box(i));
            if i % 4 == 0 {
                p.time(HandlerKind::Throttle, || std::hint::black_box(i * i));
            }
        }
        let map = p.into_map();
        assert_eq!(map[&HandlerKind::ContextSwitch].count(), 1_000);
        assert_eq!(map[&HandlerKind::Throttle].count(), 250);
        for stats in map.values() {
            let (min, avg, max) = (stats.min(), stats.avg(), stats.max());
            assert!(min <= avg && avg <= max, "{min:?} {avg:?} {max:?}");
        }
    }

    #[test]
    fn busy_wait_is_reported_within_ten_percent() {
        let mut p = Probes::new();
        let mut measured_us = 0.0;
        p.time(HandlerKind::Scheduling, || {
            let start = Instant::now();
            while start.elapsed().as_micros() < 200 {
                std::hint::spin_loop();
            }
            measured_us = start.elapsed().as_nanos() as f64 / 1e3;
        });
        let reported = p.into_map()[&HandlerKind::Scheduling].avg().unwrap();
        assert!(
            (reported - measured_us).abs() <= 0.1 * measured_us,
            "probe reported {reported} us for a {measured_us} us busy wait"
        );
    }

    #[test]
    fn untouched_handler_has_no_stats() {
        assert!(Probes::new().into_map().is_empty());
    }
}
