//! Invocation counts and wall-clock probes for the hypervisor's
//! handler hot paths.
//!
//! The paper measures its prototype's run-time overhead by
//! timestamping each handler invocation (the approach of \[14\]) and
//! reporting min/avg/max (Tables 1 and 2). The simulator counts every
//! throttle, refill, budget replenishment, scheduling decision and
//! context switch on every run; it times them only when the run asks
//! for it ([`SimConfig::handler_timing`](crate::SimConfig)), since only
//! those two tables read the durations and the timer reads are the
//! event loop's largest cost. Absolute values measure *this simulator
//! on this machine*, not Xen on a Xeon — what carries over is the
//! shape: which handlers are cheap, which are expensive, and how costs
//! scale with the number of VCPUs.
//!
//! An untimed probe only bumps its kind's count. A timed probe reads a
//! raw tick counter twice and adds the difference to an integer
//! accumulator of its kind; nothing is converted or allocated per
//! invocation. On x86_64 the ticks are the CPU's time-stamp counter
//! (`rdtsc`), which costs about half of a monotonic clock read;
//! elsewhere they are nanoseconds of [`Instant`]. Ticks become
//! microseconds only in [`Probes::into_map`], scaled by the tick rate
//! observed against [`Instant`] between the first probe and that call.

use crate::{HandlerKind, HandlerStats};
use std::collections::BTreeMap;
use std::time::Instant;
use vc2m_simcore::MinAvgMax;

/// The raw tick counter behind every timed probe.
#[inline(always)]
fn ticks(epoch: Instant) -> u64 {
    #[cfg(test)]
    tests::TICK_READS.with(|reads| reads.set(reads.get() + 1));
    raw_ticks(epoch)
}

/// The CPU's time-stamp counter.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn raw_ticks(_epoch: Instant) -> u64 {
    // SAFETY: `rdtsc` exists on every x86_64 CPU and only reads the
    // time-stamp counter.
    unsafe { core::arch::x86_64::_rdtsc() }
}

/// Nanoseconds since `epoch`.
#[cfg(not(target_arch = "x86_64"))]
#[inline(always)]
fn raw_ticks(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// Count, sum, min and max of one handler kind's durations, in ticks.
/// Untimed probes move only `count`.
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

/// A set of per-handler counters, with wall-clock accumulators when
/// timing is on.
#[derive(Debug, Clone)]
pub struct Probes {
    acc: [Accumulator; HandlerKind::ALL.len()],
    /// Whether [`Probes::time`] reads the tick counter.
    timed: bool,
    /// Origin of the tick counter where it counts nanoseconds.
    epoch: Instant,
    /// The instant and tick reading of the first timed probe: the
    /// calibration anchor.
    anchor: Option<(Instant, u64)>,
}

impl Probes {
    /// Creates an empty probe set that times its probes iff `timed`.
    pub fn new(timed: bool) -> Self {
        Probes {
            acc: [Accumulator::EMPTY; HandlerKind::ALL.len()],
            timed,
            epoch: Instant::now(),
            anchor: None,
        }
    }

    /// Runs `f`, counting it under `kind` and, when timing is on,
    /// recording its wall-clock duration there too.
    pub fn time<T>(&mut self, kind: HandlerKind, f: impl FnOnce() -> T) -> T {
        if !self.timed {
            self.acc[kind as usize].count += 1;
            return f();
        }
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

    /// All gathered statistics, durations in microseconds, keyed by
    /// handler. Kinds never invoked are absent; untimed kinds carry
    /// their count alone.
    pub fn into_map(self) -> BTreeMap<HandlerKind, HandlerStats> {
        // The anchor is set by the first timed probe, so it exists iff
        // the probes were timed and ran at least once.
        let us_per_tick = self.anchor.map(|(at, start)| {
            let span_ticks = ticks(self.epoch).saturating_sub(start);
            if span_ticks == 0 {
                1e-3
            } else {
                at.elapsed().as_nanos() as f64 / 1e3 / span_ticks as f64
            }
        });
        HandlerKind::ALL
            .iter()
            .zip(&self.acc)
            .filter(|(_, acc)| acc.count > 0)
            .map(|(&kind, acc)| {
                let Some(us_per_tick) = us_per_tick else {
                    return (kind, HandlerStats::untimed(acc.count));
                };
                let sum = acc.sum as f64 * us_per_tick;
                // Scaling rounds each value on its own; clamp so the
                // mean stays within [min, max] as it does in ticks.
                let avg = sum / acc.count as f64;
                let min = (acc.min as f64 * us_per_tick).min(avg);
                let max = (acc.max as f64 * us_per_tick).max(avg);
                let durations = MinAvgMax::from_parts(acc.count, sum, min, max);
                (kind, HandlerStats::timed(durations))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        /// Tick-counter reads on this thread, so a test sees only its
        /// own probes.
        pub(super) static TICK_READS: Cell<u64> = const { Cell::new(0) };
    }

    fn tick_reads() -> u64 {
        TICK_READS.with(Cell::get)
    }

    #[test]
    fn timing_records_samples() {
        let mut p = Probes::new(true);
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
        let mut p = Probes::new(true);
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
        let mut p = Probes::new(true);
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
        assert!(Probes::new(true).into_map().is_empty());
        assert!(Probes::new(false).into_map().is_empty());
    }

    #[test]
    fn timed_probe_reads_the_counter_twice_after_anchoring() {
        let mut p = Probes::new(true);
        let before = tick_reads();
        p.time(HandlerKind::Scheduling, || ());
        // Anchor, start and end.
        assert_eq!(tick_reads() - before, 3);
        p.time(HandlerKind::Scheduling, || ());
        assert_eq!(tick_reads() - before, 5);
        assert!(p.anchor.is_some());
    }

    #[test]
    fn untimed_probes_count_without_reading_the_counter() {
        let mut p = Probes::new(false);
        let before = tick_reads();
        for i in 0..1_000u64 {
            let value = p.time(HandlerKind::ContextSwitch, || std::hint::black_box(i));
            assert_eq!(value, i);
            if i % 4 == 0 {
                p.time(HandlerKind::Throttle, || ());
            }
        }
        assert_eq!(tick_reads(), before, "an untimed probe read the counter");
        assert!(p.anchor.is_none(), "an untimed probe set the anchor");
        let map = p.into_map();
        assert_eq!(
            tick_reads(),
            before,
            "reading out untimed probes read the counter"
        );
        assert_eq!(map.len(), 2);
        for (kind, count) in [
            (HandlerKind::ContextSwitch, 1_000),
            (HandlerKind::Throttle, 250),
        ] {
            let stats = &map[&kind];
            assert_eq!(stats.count(), count);
            assert_eq!(stats.timing(), None);
        }
    }
}
