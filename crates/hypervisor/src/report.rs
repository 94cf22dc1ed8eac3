//! Simulation reports.

use crate::energy::{CoreTime, EnergyModel, ThrottlePolicy};
use crate::regulation::SupplyLog;
use std::collections::BTreeMap;
use std::fmt;
use vc2m_model::{SimTime, TaskId, VcpuId};
use vc2m_simcore::MinAvgMax;

/// A deadline miss observed during simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeadlineMiss {
    /// The task whose job missed.
    pub task: TaskId,
    /// The job index (0 = first release).
    pub job: u64,
    /// The missed absolute deadline.
    pub deadline: SimTime,
}

/// The hypervisor handler paths whose cost the simulator measures —
/// the rows of the paper's overhead Tables 1 and 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HandlerKind {
    /// De-scheduling a VCPU when its core's bandwidth budget overflows
    /// (Table 1, "Throttle").
    Throttle,
    /// The periodic bandwidth refiller (Table 1, "Memory BW budget
    /// replenishment").
    BwReplenish,
    /// Replenishing a VCPU's CPU budget at a period boundary (Table 2,
    /// "CPU budget replenish.").
    CpuBudgetReplenish,
    /// Picking the next VCPU on a core (Table 2, "Scheduling").
    Scheduling,
    /// Switching the running VCPU on a core (Table 2, "Context
    /// switching").
    ContextSwitch,
}

impl HandlerKind {
    /// All handler kinds, in table order.
    pub const ALL: [HandlerKind; 5] = [
        HandlerKind::Throttle,
        HandlerKind::BwReplenish,
        HandlerKind::CpuBudgetReplenish,
        HandlerKind::Scheduling,
        HandlerKind::ContextSwitch,
    ];

    /// The row label used in the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            HandlerKind::Throttle => "Throttle",
            HandlerKind::BwReplenish => "Memory BW budget replenishment",
            HandlerKind::CpuBudgetReplenish => "CPU budget replenish.",
            HandlerKind::Scheduling => "Scheduling",
            HandlerKind::ContextSwitch => "Context switching",
        }
    }
}

impl fmt::Display for HandlerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One handler kind's invocations in a run: the exact count, always,
/// and the wall-clock durations when the run timed its handlers
/// ([`SimConfig::handler_timing`](crate::SimConfig)).
///
/// The count is deterministic — the same system and configuration
/// invoke each handler the same number of times on every run — while
/// the durations are wall-clock measurements of this host.
#[derive(Debug, Clone, PartialEq)]
pub struct HandlerStats {
    count: u64,
    timing: Option<MinAvgMax>,
}

impl HandlerStats {
    /// `count` invocations that were not timed.
    pub fn untimed(count: u64) -> Self {
        HandlerStats {
            count,
            timing: None,
        }
    }

    /// Timed invocations, one duration sample (in microseconds) each.
    pub fn timed(durations_us: MinAvgMax) -> Self {
        HandlerStats {
            count: durations_us.count(),
            timing: Some(durations_us),
        }
    }

    /// Number of invocations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The durations in microseconds, or `None` if untimed.
    pub fn timing(&self) -> Option<&MinAvgMax> {
        self.timing.as_ref()
    }

    /// Shortest invocation in microseconds, or `None` if untimed.
    pub fn min(&self) -> Option<f64> {
        self.timing.as_ref().and_then(MinAvgMax::min)
    }

    /// Mean invocation in microseconds, or `None` if untimed.
    pub fn avg(&self) -> Option<f64> {
        self.timing.as_ref().and_then(MinAvgMax::avg)
    }

    /// Longest invocation in microseconds, or `None` if untimed.
    pub fn max(&self) -> Option<f64> {
        self.timing.as_ref().and_then(MinAvgMax::max)
    }
}

impl fmt::Display for HandlerStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.timing {
            Some(timing) => write!(f, "{timing} us"),
            None => write!(f, "{} calls, untimed", self.count),
        }
    }
}

/// The outcome of a simulation run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SimReport {
    /// All deadline misses, in time order (at most one per job).
    pub deadline_misses: Vec<DeadlineMiss>,
    /// Jobs that completed within the horizon.
    pub jobs_completed: u64,
    /// Jobs released within the horizon.
    pub jobs_released: u64,
    /// Bandwidth throttle events.
    pub throttle_events: u64,
    /// VCPU context switches across all cores.
    pub context_switches: u64,
    /// Each handler path's invocation count and, when
    /// [`SimConfig::handler_timing`](crate::SimConfig) is on, its
    /// wall-clock cost in microseconds. A kind is present iff it was
    /// invoked.
    pub handler_overheads: BTreeMap<HandlerKind, HandlerStats>,
    /// Observed response times per task, in milliseconds.
    pub response_times: BTreeMap<TaskId, MinAvgMax>,
    /// Per-VCPU execution-interval logs, present when
    /// [`SimConfig::record_supply`](crate::SimConfig) was enabled.
    pub supply_logs: BTreeMap<VcpuId, SupplyLog>,
    /// Per-core busy/throttled time accounting.
    pub core_times: Vec<CoreTime>,
    /// Simulated horizon, in milliseconds.
    pub horizon_ms: f64,
}

impl SimReport {
    /// Whether the run completed with no deadline miss.
    pub fn all_deadlines_met(&self) -> bool {
        self.deadline_misses.is_empty()
    }

    /// The largest observed response time of `task`, if it completed
    /// any job.
    pub fn worst_response_ms(&self, task: TaskId) -> Option<f64> {
        self.response_times.get(&task).and_then(MinAvgMax::max)
    }

    /// Exact field-wise equality over every **deterministic** field:
    /// everything but the durations in `handler_overheads` — the
    /// wall-clock measurements, which legitimately differ run to run
    /// and are absent from untimed runs. The handler counts are
    /// compared.
    ///
    /// This is the single notion of report equality the suites pin:
    /// replay determinism, observation passivity (a traced run reports
    /// what an untraced one does) and fault-containment baselines all
    /// compare with it. Float fields compare bitwise (via `PartialEq`
    /// on `f64`), so "equal" here means *bit-identical*, not
    /// approximately equal.
    pub fn structural_eq(&self, other: &SimReport) -> bool {
        self.deadline_misses == other.deadline_misses
            && self.jobs_completed == other.jobs_completed
            && self.jobs_released == other.jobs_released
            && self.throttle_events == other.throttle_events
            && self.context_switches == other.context_switches
            && self.handler_counts().eq(other.handler_counts())
            && self.response_times == other.response_times
            && self.supply_logs == other.supply_logs
            && self.core_times == other.core_times
            && self.horizon_ms == other.horizon_ms
    }

    /// Each invoked handler kind with its invocation count.
    fn handler_counts(&self) -> impl Iterator<Item = (HandlerKind, u64)> + '_ {
        self.handler_overheads
            .iter()
            .map(|(&kind, stats)| (kind, stats.count()))
    }

    /// Total energy of the run under `model` and the given throttling
    /// policy (the paper's regulator uses [`ThrottlePolicy::Idle`];
    /// MemGuard-style regulation corresponds to
    /// [`ThrottlePolicy::Busy`]).
    pub fn energy_joules(&self, model: &EnergyModel, policy: ThrottlePolicy) -> f64 {
        self.core_times
            .iter()
            .map(|ct| model.joules(policy, ct.busy_ms, ct.throttled_ms, self.horizon_ms))
            .sum()
    }
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "simulation: {}/{} jobs completed, {} misses, {} throttles, {} context switches",
            self.jobs_completed,
            self.jobs_released,
            self.deadline_misses.len(),
            self.throttle_events,
            self.context_switches
        )?;
        for (kind, stats) in &self.handler_overheads {
            writeln!(f, "  {kind}: {stats}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_report_meets_deadlines() {
        let r = SimReport::default();
        assert!(r.all_deadlines_met());
        assert_eq!(r.worst_response_ms(TaskId(0)), None);
    }

    #[test]
    fn labels_match_tables() {
        assert_eq!(HandlerKind::Throttle.label(), "Throttle");
        assert_eq!(HandlerKind::ALL.len(), 5);
        assert!(HandlerKind::BwReplenish
            .to_string()
            .contains("replenishment"));
    }

    #[test]
    fn structural_eq_ignores_only_wall_clock_fields() {
        let mut a = SimReport {
            jobs_released: 4,
            jobs_completed: 4,
            horizon_ms: 100.0,
            ..SimReport::default()
        };
        a.handler_overheads
            .insert(HandlerKind::Scheduling, HandlerStats::untimed(2));
        let mut b = a.clone();
        assert!(a.structural_eq(&b));

        // Wall-clock durations differing (or absent on one side) must
        // NOT break equality.
        b.handler_overheads.insert(
            HandlerKind::Scheduling,
            HandlerStats::timed([1.0, 2.0].into_iter().collect()),
        );
        assert!(a.structural_eq(&b));
        a.handler_overheads.insert(
            HandlerKind::Scheduling,
            HandlerStats::timed([3.0, 4.0].into_iter().collect()),
        );
        assert!(a.structural_eq(&b));

        // Different handler counts must break it, as must a kind
        // invoked on one side only.
        b.handler_overheads
            .insert(HandlerKind::Scheduling, HandlerStats::untimed(3));
        assert!(!a.structural_eq(&b));
        b.handler_overheads
            .insert(HandlerKind::Scheduling, HandlerStats::untimed(2));
        b.handler_overheads
            .insert(HandlerKind::Throttle, HandlerStats::untimed(1));
        assert!(!a.structural_eq(&b));
        b.handler_overheads.remove(&HandlerKind::Throttle);
        assert!(a.structural_eq(&b));

        // Any deterministic field differing must break it.
        b.jobs_completed = 3;
        assert!(!a.structural_eq(&b));
        b.jobs_completed = 4;
        b.context_switches = 1;
        assert!(!a.structural_eq(&b));
        b.context_switches = 0;
        a.deadline_misses.push(DeadlineMiss {
            task: TaskId(0),
            job: 0,
            deadline: SimTime::from_ms(10.0),
        });
        assert!(!a.structural_eq(&b));
    }

    #[test]
    fn handler_stats_report_timing_only_when_timed() {
        let untimed = HandlerStats::untimed(5);
        assert_eq!(untimed.count(), 5);
        assert_eq!(
            (untimed.min(), untimed.avg(), untimed.max()),
            (None, None, None)
        );
        assert_eq!(untimed.to_string(), "5 calls, untimed");
        let timed = HandlerStats::timed([1.0, 3.0].into_iter().collect());
        assert_eq!(timed.count(), 2);
        assert_eq!(
            (timed.min(), timed.avg(), timed.max()),
            (Some(1.0), Some(2.0), Some(3.0))
        );
        assert_eq!(timed.to_string(), "min 1.00 | avg 2.00 | max 3.00 us");
    }

    #[test]
    fn report_display_summarizes() {
        let mut r = SimReport {
            jobs_released: 10,
            jobs_completed: 9,
            ..SimReport::default()
        };
        r.deadline_misses.push(DeadlineMiss {
            task: TaskId(1),
            job: 3,
            deadline: SimTime::from_ms(40.0),
        });
        assert!(!r.all_deadlines_met());
        let s = r.to_string();
        assert!(s.contains("9/10"));
        assert!(s.contains("1 misses"));
    }
}
