//! The discrete-event hypervisor simulation.
//!
//! Realizes a [`SystemAllocation`] as a running two-level system:
//!
//! * each physical core runs the VCPUs assigned to it under
//!   partitioned EDF with the paper's deterministic tie-break
//!   (deadline, then period, then VCPU index);
//! * each VCPU is a **periodic server** — its budget replenishes every
//!   period, drains while it runs (even when its tasks are idle, which
//!   is what makes the supply pattern *well-regulated*), and is lost at
//!   the period boundary;
//! * tasks inside a VCPU run under EDF (for implicit deadlines this is
//!   FIFO per task with earliest-deadline-first across tasks);
//! * the CAT partition plan and the bandwidth regulator are programmed
//!   from the allocation; task memory traffic (when enabled) drains
//!   per-core request budgets, and overflow throttles the core — the
//!   core idles until the refiller's next period.
//!
//! Execution requirements are the allocation-dependent WCETs
//! `eᵢ(c, b)` of each task's core — exactly the quantities the
//! analyses reason about — so a run is a direct check of the analyses'
//! verdicts: an allocation declared schedulable must produce zero
//! deadline misses.

use crate::config::{IsolationMode, SimConfig};
use crate::error::{SimConfigError, SimError};
use crate::fault::{Fault, FaultKind, FaultPlan, FaultStats};
use crate::probes::Probes;
use crate::report::{DeadlineMiss, HandlerKind, SimReport};
use crate::trace::{SimObservation, TraceEvent};
use std::collections::{HashMap, VecDeque};
use std::error::Error;
use std::fmt;
use vc2m_alloc::SystemAllocation;
use vc2m_cat::{CatController, PartitionPlan};
use vc2m_membw::{budget_requests_per_period, BwRegulator, RegulatorConfig, ThrottleAction};
use vc2m_model::{
    Alloc, BudgetSurface, Platform, SimDuration, SimTime, Task, TaskId, TaskSet, VmId, WcetSurface,
};
use vc2m_sched::edf::{EdfKey, ReadyQueue};
use vc2m_sched::server::{PeriodicServer, ServerState};
use vc2m_simcore::{EventQueue, MetricsRegistry, MinAvgMax, TraceBuffer};

/// Error building a simulation from an allocation.
#[derive(Debug, Clone, PartialEq)]
pub enum SimBuildError {
    /// A task referenced by the allocation was missing from the task
    /// table.
    UnknownTask {
        /// The missing task id.
        task: TaskId,
    },
    /// A VCPU's budget exceeds its period at its core's allocation —
    /// the allocation is infeasible and cannot be realized as a
    /// periodic server.
    InfeasibleBudget {
        /// Index of the offending VCPU in the allocation.
        vcpu: usize,
    },
    /// The allocation failed CAT programming (overcommitted
    /// partitions).
    Cat(vc2m_cat::CatError),
    /// The simulation configuration is malformed (see
    /// [`SimConfig::validate`]).
    Config(SimConfigError),
}

impl fmt::Display for SimBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimBuildError::UnknownTask { task } => {
                write!(f, "allocation references unknown task {task}")
            }
            SimBuildError::InfeasibleBudget { vcpu } => {
                write!(
                    f,
                    "vcpu #{vcpu} has budget exceeding its period at its core's allocation"
                )
            }
            SimBuildError::Cat(e) => write!(f, "cache programming failed: {e}"),
            SimBuildError::Config(e) => write!(f, "invalid simulation config: {e}"),
        }
    }
}

impl Error for SimBuildError {}

impl From<vc2m_cat::CatError> for SimBuildError {
    fn from(e: vc2m_cat::CatError) -> Self {
        SimBuildError::Cat(e)
    }
}

impl From<SimConfigError> for SimBuildError {
    fn from(e: SimConfigError) -> Self {
        SimBuildError::Config(e)
    }
}

/// A pending job of a task.
#[derive(Debug, Clone, Copy)]
struct Job {
    index: u64,
    release: SimTime,
    deadline: SimTime,
    remaining: SimDuration,
}

#[derive(Debug, Clone)]
struct SimTask {
    id: TaskId,
    period: SimDuration,
    exec: SimDuration,
    /// The full WCET surface, for dynamic reallocations.
    wcet_surface: WcetSurface,
    /// First-release offset (the delay L between task initialization
    /// and first release of Section 3.2).
    offset: SimDuration,
    vcpu: usize,
    /// Memory requests per millisecond of execution.
    request_rate: f64,
    /// Pending jobs, oldest first (FIFO = EDF for implicit deadlines).
    pending: Vec<Job>,
    next_index: u64,
    /// Index of the latest job released by the period chain (not by a
    /// load spike): its deadline check is delivered at the next
    /// release (see [`HypervisorSim::advance`]).
    last_regular: Option<u64>,
    response: MinAvgMax,
    /// Active WCET-overrun fault: jobs released before `overrun_until`
    /// carry `overrun_factor ×` their declared demand.
    overrun_factor: f64,
    overrun_until: SimTime,
}

impl SimTask {
    /// The execution demand of a job released at `now`, including any
    /// active overrun fault. Returns the demand and whether the
    /// overrun applied.
    fn release_demand(&self, now: SimTime) -> (SimDuration, bool) {
        if now < self.overrun_until && self.overrun_factor > 1.0 {
            let inflated = (self.exec.as_ns() as f64 * self.overrun_factor).round() as u64;
            (SimDuration(inflated), true)
        } else {
            (self.exec, false)
        }
    }
}

#[derive(Debug, Clone)]
struct SimVcpu {
    server: PeriodicServer,
    tasks: Vec<usize>,
    core: usize,
    /// The VM this VCPU belongs to (fault targeting).
    vm: VmId,
    /// The full budget surface, for dynamic reallocations.
    budget_surface: BudgetSurface,
    /// A pending replenishment-delay fault: the next replenishment is
    /// postponed by this much.
    pending_replenish_delay: Option<SimDuration>,
    /// The key this VCPU is filed under in its core's ready order, if
    /// it is filed (see [`HypervisorSim::refile`]).
    filed: Option<EdfKey>,
}

#[derive(Debug, Clone, Copy)]
struct Running {
    vcpu: usize,
    task: Option<usize>,
    start: SimTime,
    /// The planned end of the segment (completion, budget exhaustion,
    /// server deadline, or traffic overflow): the core's timer.
    end: SimTime,
}

#[derive(Debug, Clone)]
struct SimCore {
    vcpus: Vec<usize>,
    /// The core's servers that are not `Depleted`, in EDF order
    /// `(deadline, period, vcpu)`: the scheduler reads its choice from
    /// the front.
    ready: ReadyQueue,
    running: Option<Running>,
    throttled: bool,
    /// When the current throttle/stall began (for time accounting).
    throttled_since: Option<SimTime>,
    /// An injected throttle fault or core stall holds the core idle
    /// until this instant (cleared by its `FaultClear` event).
    fault_until: Option<SimTime>,
    last_vcpu: Option<usize>,
    /// Nanoseconds spent executing tasks.
    busy_ns: u64,
    /// Nanoseconds spent bandwidth-throttled or fault-stalled.
    throttled_ns: u64,
}

impl SimCore {
    /// Whether the core may not execute anything right now.
    fn is_held(&self) -> bool {
        self.throttled || self.fault_until.is_some()
    }
}

/// A fault with its targets resolved to internal indices (validated by
/// [`HypervisorSim::with_fault_plan`]).
#[derive(Debug, Clone)]
enum ResolvedFault {
    WcetOverrun {
        task: usize,
        factor: f64,
        window: SimDuration,
    },
    ReplenishDelay {
        vcpu: usize,
        delay: SimDuration,
    },
    ThrottleFault {
        core: usize,
    },
    CoreStall {
        core: usize,
        duration: SimDuration,
    },
    LoadSpike {
        tasks: Vec<usize>,
    },
}

/// A heap event. Run-segment ends are not events: each core's running
/// segment carries its own end (see [`HypervisorSim::advance`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// A VCPU's period boundary: replenish its budget.
    ServerReplenish { vcpu: usize },
    /// The bandwidth refiller's period boundary.
    Refill,
    /// A scheduled dynamic reallocation (vCAT-style mode change).
    Reallocate { index: usize },
    /// A scheduled fault is injected (index into the resolved plan).
    FaultInject { index: usize },
    /// An injected throttle fault or core stall expires.
    FaultClear { core: usize },
    /// A task releases its next job.
    JobRelease { task: usize },
    /// A load-spike job's deadline passes: check for a miss. Regular
    /// jobs' checks are not heap events (see
    /// [`HypervisorSim::advance`]).
    DeadlineCheck { task: usize, job: u64 },
}

/// Where [`HypervisorSim::advance`] takes its next delivery from.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// A core's segment timer.
    Timer,
    /// The event heap.
    Heap,
    /// The folded deadline checks.
    Due,
}

// Same-instant ordering: end run segments first, then replenish
// CPU budgets, then refill bandwidth (fault expiries behave like
// refill wakes), then inject faults, then release jobs (so an overrun
// window opening at t already covers releases at t), then check
// deadlines. The relative order of the pre-fault event kinds is
// unchanged from before fault injection existed, which keeps every
// fault-free schedule — and the golden traces pinned over them —
// bit-identical.
const PRIO_SEGMENT_END: u64 = 0;
const PRIO_REPLENISH: u64 = 1;
const PRIO_REFILL: u64 = 2;
const PRIO_REALLOC: u64 = 2;
const PRIO_FAULT: u64 = 3;
const PRIO_RELEASE: u64 = 4;
const PRIO_DEADLINE: u64 = 5;

// Keys order simultaneous equal-priority events by content, never by
// insertion history, so the delivery order (and every golden pinned
// over it) follows from the events alone. Within the shared priority
// class 2 the order is: reallocations (key = index), then the bandwidth
// refill (`REFILL_KEY`), then fault-stall expiries (`FAULT_CLEAR_BASE +
// core`) — the historical insertion order, where the refill chain and
// reallocations are seeded up front while `FaultClear` is pushed
// mid-run.
const REFILL_KEY: u64 = 1 << 60;
const FAULT_CLEAR_BASE: u64 = REFILL_KEY + 1;

/// Numeric-residue tolerance at a deadline: real-valued budgets meet
/// integer-nanosecond time, so up to ~a microsecond of a job can
/// remain at its deadline purely from rounding. See
/// [`HypervisorSim::check_deadline`].
const MISS_TOLERANCE: SimDuration = SimDuration(1_000);

/// Buffers of the refill phases, kept across regulation periods so the
/// event loop does not allocate.
#[derive(Debug, Clone, Default)]
struct RefillScratch {
    /// Cores suspended in phase 0, then every core phase 3
    /// reschedules.
    suspended: Vec<usize>,
    /// Cores the regulator woke in phase 1.
    woken: Vec<usize>,
}

/// The simulated hypervisor (see the [crate docs](crate) for the
/// model).
#[derive(Debug, Clone)]
pub struct HypervisorSim {
    config: SimConfig,
    tasks: Vec<SimTask>,
    vcpus: Vec<SimVcpu>,
    cores: Vec<SimCore>,
    queue: EventQueue<Event>,
    regulator: BwRegulator,
    /// Fractional memory-request carry per core (exact long-run
    /// traffic accounting).
    traffic_carry: Vec<f64>,
    /// Current per-core allocations (change under dynamic
    /// reallocation).
    core_allocs: Vec<Alloc>,
    /// Scheduled dynamic reallocations: (time, core, new allocation).
    reallocations: Vec<(SimTime, usize, Alloc)>,
    /// Platform geometry, needed to validate reallocations.
    platform: Platform,
    #[allow(dead_code)] // programmed for fidelity; queried by tests
    cat: CatController,
    probes: Probes,
    trace: TraceBuffer<TraceEvent>,
    /// Per-VCPU execution logs (only when config.record_supply).
    supply_logs: Vec<Option<crate::regulation::SupplyLog>>,
    /// The attached fault plan, if any (kept for replay/reporting; the
    /// `faults.*` metrics are exported exactly when this is set).
    fault_plan: Option<FaultPlan>,
    /// The plan with targets resolved to internal indices.
    resolved_faults: Vec<(SimTime, ResolvedFault)>,
    fault_stats: FaultStats,
    misses: Vec<DeadlineMiss>,
    jobs_completed: u64,
    jobs_released: u64,
    throttle_events: u64,
    context_switches: u64,
    refill_scratch: RefillScratch,
    /// Folded deadline checks `(deadline, task, job)` of regular jobs,
    /// in delivery order (see [`HypervisorSim::advance`]).
    due_checks: VecDeque<(SimTime, usize, u64)>,
}

impl HypervisorSim {
    /// Builds a simulation of `allocation` running `tasks` on
    /// `platform`.
    ///
    /// # Errors
    ///
    /// * [`SimBuildError::UnknownTask`] if the allocation references a
    ///   task not present in `tasks`.
    /// * [`SimBuildError::InfeasibleBudget`] if some VCPU's budget
    ///   exceeds its period at its core's allocation.
    /// * [`SimBuildError::Cat`] if the cache plan cannot be programmed.
    /// * [`SimBuildError::Config`] if the configuration fails
    ///   [`SimConfig::validate`].
    pub fn new(
        platform: &Platform,
        allocation: &SystemAllocation,
        tasks: &TaskSet,
        config: SimConfig,
    ) -> Result<Self, SimBuildError> {
        config.validate()?;
        let by_id: HashMap<TaskId, &Task> = tasks.iter().map(|t| (t.id(), t)).collect();
        let core_count = allocation.cores_used().max(1);

        // Cache plan: disjoint contiguous masks per core (isolated
        // mode) or the full cache for everyone (shared mode).
        let mut cat = CatController::new(
            core_count,
            core_count.max(1) as u32,
            platform.cache_partitions(),
        )?;
        if config.isolation == IsolationMode::Isolated && allocation.cores_used() > 0 {
            let counts: Vec<u32> = allocation.cores().iter().map(|c| c.alloc.cache).collect();
            PartitionPlan::contiguous(platform.cache_partitions(), &counts)?.program(&mut cat)?;
        }

        // Bandwidth regulator: per-core request budgets from the
        // allocation (isolated mode only).
        let regulation_ms = config.regulation_period.as_ms();
        // Audited expect: `config.validate()` above established a
        // positive regulation period and `core_count` is >= 1, the
        // only `RegulatorConfig::new` failure modes.
        #[allow(clippy::expect_used)]
        let mut regulator = BwRegulator::new(
            RegulatorConfig::new(core_count, regulation_ms).expect("validated config"),
        );
        if config.isolation == IsolationMode::Isolated {
            for (k, core) in allocation.cores().iter().enumerate() {
                let budget = budget_requests_per_period(
                    core.alloc.bandwidth,
                    platform.bw_partition_mbps(),
                    regulation_ms,
                );
                // Audited expect: `k` enumerates `allocation.cores()`
                // and the regulator was sized from the same count.
                #[allow(clippy::expect_used)]
                regulator
                    .set_budget(k, budget)
                    .expect("core index is in range");
            }
        }

        // Task and VCPU tables.
        let mut sim_tasks: Vec<SimTask> = Vec::new();
        let mut sim_vcpus: Vec<SimVcpu> = Vec::new();
        let mut cores: Vec<SimCore> = Vec::new();
        for (k, core) in allocation.cores().iter().enumerate() {
            let mut core_vcpus = Vec::new();
            // Traffic rates are defined relative to the *enforced*
            // budget; in shared mode there is no regulation and no
            // request accounting.
            let budget_rate = if config.isolation == IsolationMode::Isolated {
                regulator.budget(k).unwrap_or(u64::MAX) as f64 / regulation_ms
            } else {
                0.0
            };
            for &vi in &core.vcpus {
                let spec = &allocation.vcpus()[vi];
                let period = SimDuration::from_ms(spec.period());
                let budget_ms = spec.budget(core.alloc);
                if budget_ms > spec.period() + 1e-9 {
                    return Err(SimBuildError::InfeasibleBudget { vcpu: vi });
                }
                let budget = SimDuration::from_ms(budget_ms.min(spec.period()));
                let mut task_indices = Vec::new();
                for &tid in spec.tasks() {
                    let task = by_id
                        .get(&tid)
                        .ok_or(SimBuildError::UnknownTask { task: tid })?;
                    task_indices.push(sim_tasks.len());
                    sim_tasks.push(SimTask {
                        id: tid,
                        period: SimDuration::from_ms(task.period()),
                        exec: SimDuration::from_ms(task.wcet(core.alloc)),
                        wcet_surface: task.wcet_surface().clone(),
                        offset: SimDuration::ZERO,
                        vcpu: sim_vcpus.len(),
                        request_rate: config.traffic_fraction * budget_rate,
                        pending: Vec::new(),
                        next_index: 0,
                        last_regular: None,
                        response: MinAvgMax::new(),
                        overrun_factor: 1.0,
                        overrun_until: SimTime::ZERO,
                    });
                }
                core_vcpus.push(sim_vcpus.len());
                sim_vcpus.push(SimVcpu {
                    server: PeriodicServer::new(spec.id(), period, budget, SimTime::ZERO),
                    tasks: task_indices,
                    core: k,
                    vm: spec.vm(),
                    budget_surface: spec.budget_surface().clone(),
                    pending_replenish_delay: None,
                    filed: None,
                });
            }
            cores.push(SimCore {
                ready: ReadyQueue::with_capacity(core_vcpus.len()),
                vcpus: core_vcpus,
                running: None,
                throttled: false,
                throttled_since: None,
                fault_until: None,
                last_vcpu: None,
                busy_ns: 0,
                throttled_ns: 0,
            });
        }

        let trace = TraceBuffer::with_capacity(config.trace_capacity);
        let supply_logs = vec![None; sim_vcpus.len()];
        let core_count = cores.len();
        let task_count = sim_tasks.len();
        Ok(HypervisorSim {
            config,
            tasks: sim_tasks,
            vcpus: sim_vcpus,
            cores,
            queue: EventQueue::new(),
            regulator,
            traffic_carry: vec![0.0; core_count],
            core_allocs: allocation.cores().iter().map(|c| c.alloc).collect(),
            reallocations: Vec::new(),
            platform: *platform,
            cat,
            probes: Probes::new(config.handler_timing),
            trace,
            supply_logs,
            fault_plan: None,
            resolved_faults: Vec::new(),
            fault_stats: FaultStats::default(),
            misses: Vec::new(),
            jobs_completed: 0,
            jobs_released: 0,
            throttle_events: 0,
            context_switches: 0,
            refill_scratch: RefillScratch::default(),
            // Releases at one instant append at most one check per
            // task, and those are delivered before time moves on.
            due_checks: VecDeque::with_capacity(task_count),
        })
    }

    /// Runs the simulation and returns the report together with the
    /// full [`SimObservation`] — the retained trace and a
    /// [`MetricsRegistry`] of the run's deterministic counters,
    /// gauges and histograms (simulator event counts, per-core time
    /// accounting, per-task response summaries, trace ring statistics,
    /// and the bandwidth regulator's counters).
    ///
    /// Observation is passive: the report is bit-identical to what
    /// [`HypervisorSim::run`] produces for the same configuration.
    ///
    /// # Errors
    ///
    /// See [`HypervisorSim::run`].
    pub fn run_observed(mut self) -> Result<(SimReport, SimObservation), SimError> {
        let report = self.run_inner()?;
        let metrics = self.collect_metrics(&report);
        let observation = SimObservation {
            trace: self.trace.iter().map(|r| (r.time, r.payload)).collect(),
            trace_dropped: self.trace.dropped(),
            metrics,
        };
        Ok((report, observation))
    }

    /// Builds the metrics registry from the finished run. Strictly a
    /// read-out of already-accumulated state — nothing here may touch
    /// simulation behavior. Wall-clock handler overheads are left out
    /// deliberately: the registry holds only deterministic values, so
    /// its JSON rendering can be golden-pinned.
    fn collect_metrics(&self, report: &SimReport) -> MetricsRegistry {
        let mut m = MetricsRegistry::new();
        m.counter_add("sim.jobs.released", report.jobs_released);
        m.counter_add("sim.jobs.completed", report.jobs_completed);
        m.counter_add("sim.deadline.misses", report.deadline_misses.len() as u64);
        m.counter_add("sim.throttle.events", report.throttle_events);
        m.counter_add("sim.context.switches", report.context_switches);
        m.counter_add("sim.trace.recorded", self.trace.len() as u64);
        m.counter_add("sim.trace.dropped", self.trace.dropped());
        m.gauge_set("sim.horizon_ms", report.horizon_ms);
        for (k, ct) in report.core_times.iter().enumerate() {
            m.gauge_set(&format!("sim.core{k}.busy_ms"), ct.busy_ms);
            m.gauge_set(&format!("sim.core{k}.throttled_ms"), ct.throttled_ms);
        }
        for (task, response) in &report.response_times {
            m.observe_summary(&format!("sim.response_ms.{task}"), response);
        }
        if self.config.isolation == IsolationMode::Isolated {
            self.regulator.export_metrics("membw.", &mut m);
        }
        // Fault counters appear exactly when a plan was attached, so
        // fault-free runs keep their metrics renderings byte-identical
        // to before fault injection existed (golden-pinned).
        if self.fault_plan.is_some() {
            let s = &self.fault_stats;
            m.counter_add("faults.injected", s.injected);
            m.counter_add("faults.overruns", s.overruns);
            m.counter_add("faults.overrun_jobs", s.overrun_jobs);
            m.counter_add("faults.replenish_delays", s.replenish_delays);
            m.counter_add("faults.throttle_faults", s.throttle_faults);
            m.counter_add("faults.core_stalls", s.core_stalls);
            m.counter_add("faults.load_spikes", s.load_spikes);
            m.counter_add("faults.load_spike_jobs", s.load_spike_jobs);
        }
        m
    }

    /// Runs the simulation to the configured horizon and produces the
    /// report.
    ///
    /// # Errors
    ///
    /// * [`SimError::OvercommittedReallocation`] if a scheduled
    ///   dynamic reallocation, applied at its switch instant against
    ///   the allocations current at that moment, would overcommit the
    ///   platform's partition budgets. This is the only failure mode
    ///   detectable strictly at event-fire time; everything else is
    ///   rejected by the `with_*` builders.
    pub fn run(mut self) -> Result<SimReport, SimError> {
        self.run_inner()
    }

    /// Sets a task's first-release offset: the task is initialized at
    /// time zero but releases its first job `offset_ms` later (the
    /// delay `L` of Section 3.2's release-synchronization hypercall).
    ///
    /// When [`SimConfig::synchronize_releases`] is on (the default),
    /// each VCPU's first release is aligned with the earliest offset
    /// among its tasks — the hypercall's effect. When off, VCPUs are
    /// released at time zero regardless, exposing the abstraction
    /// overhead the paper eliminates.
    ///
    /// # Errors
    ///
    /// * [`SimError::InvalidOffset`] if the offset is negative or
    ///   non-finite.
    /// * [`SimError::UnknownTask`] if the task is not part of the
    ///   simulated system.
    pub fn with_task_offset(mut self, task: TaskId, offset_ms: f64) -> Result<Self, SimError> {
        if !offset_ms.is_finite() || offset_ms < 0.0 {
            return Err(SimError::InvalidOffset { task, offset_ms });
        }
        let index = self
            .tasks
            .iter()
            .position(|t| t.id == task)
            .ok_or(SimError::UnknownTask { task })?;
        self.tasks[index].offset = SimDuration::from_ms(offset_ms);
        Ok(self)
    }

    /// Schedules a dynamic reallocation: at `at_ms`, core `core`
    /// switches to `alloc` (a vCAT-style mode change). VCPU budgets
    /// and task WCETs follow their surfaces at the new allocation;
    /// budgets exceeding the VCPU period are clamped to it (the core
    /// is then overloaded and will miss deadlines — visible in the
    /// report). In-flight jobs keep their remaining work; new releases
    /// use the new WCET.
    ///
    /// # Errors
    ///
    /// * [`SimError::InvalidReallocation`] if the switch time is
    ///   negative/non-finite or the allocation lies outside the
    ///   platform's resource space.
    /// * [`SimError::UnknownCore`] if `core` is out of range.
    ///
    /// An *overcommitment* of the total partition budgets is only
    /// detectable when the event fires (against the allocations
    /// current at that moment) and surfaces from `run*` as
    /// [`SimError::OvercommittedReallocation`].
    pub fn with_reallocation(
        mut self,
        at_ms: f64,
        core: usize,
        alloc: Alloc,
    ) -> Result<Self, SimError> {
        if !at_ms.is_finite() || at_ms < 0.0 {
            return Err(SimError::InvalidReallocation {
                core,
                detail: format!("switch time must be finite and >= 0, got {at_ms}"),
            });
        }
        if core >= self.cores.len() {
            return Err(SimError::UnknownCore {
                core,
                cores: self.cores.len(),
            });
        }
        self.platform
            .resources()
            .check(alloc)
            .map_err(|e| SimError::InvalidReallocation {
                core,
                detail: e.to_string(),
            })?;
        self.reallocations
            .push((SimTime::from_ms(at_ms), core, alloc));
        Ok(self)
    }

    /// Attaches a [`FaultPlan`]: each scheduled fault is injected at
    /// its instant during the run. Targets are resolved and parameters
    /// validated here, up front — a malformed plan never starts
    /// running. Attaching a plan (even an empty one) switches on the
    /// `faults.*` metrics in [`HypervisorSim::run_observed`].
    ///
    /// # Errors
    ///
    /// * [`SimError::UnknownTask`] / [`SimError::UnknownVcpu`] /
    ///   [`SimError::UnknownVm`] / [`SimError::UnknownCore`] if a
    ///   fault targets an entity not part of the simulated system.
    /// * [`SimError::InvalidFault`] if a parameter is out of range
    ///   (non-finite or sub-unity overrun factor; zero window, delay,
    ///   or stall duration).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Result<Self, SimError> {
        let mut resolved = Vec::with_capacity(plan.len());
        for scheduled in plan.faults() {
            let fault = match scheduled.fault {
                Fault::WcetOverrun {
                    task,
                    factor,
                    window,
                } => {
                    if !factor.is_finite() || factor < 1.0 {
                        return Err(SimError::InvalidFault {
                            detail: format!(
                                "overrun factor for {task} must be finite and >= 1, got {factor}"
                            ),
                        });
                    }
                    if window <= SimDuration::ZERO {
                        return Err(SimError::InvalidFault {
                            detail: format!("overrun window for {task} must be positive"),
                        });
                    }
                    let index = self
                        .tasks
                        .iter()
                        .position(|t| t.id == task)
                        .ok_or(SimError::UnknownTask { task })?;
                    ResolvedFault::WcetOverrun {
                        task: index,
                        factor,
                        window,
                    }
                }
                Fault::ReplenishDelay { vcpu, delay } => {
                    if delay <= SimDuration::ZERO {
                        return Err(SimError::InvalidFault {
                            detail: format!("replenish delay for {vcpu} must be positive"),
                        });
                    }
                    let index = self
                        .vcpus
                        .iter()
                        .position(|v| v.server.id() == vcpu)
                        .ok_or(SimError::UnknownVcpu { vcpu })?;
                    ResolvedFault::ReplenishDelay {
                        vcpu: index,
                        delay,
                    }
                }
                Fault::ThrottleFault { core } => {
                    if core >= self.cores.len() {
                        return Err(SimError::UnknownCore {
                            core,
                            cores: self.cores.len(),
                        });
                    }
                    ResolvedFault::ThrottleFault { core }
                }
                Fault::CoreStall { core, duration } => {
                    if core >= self.cores.len() {
                        return Err(SimError::UnknownCore {
                            core,
                            cores: self.cores.len(),
                        });
                    }
                    if duration <= SimDuration::ZERO {
                        return Err(SimError::InvalidFault {
                            detail: format!("stall duration for core {core} must be positive"),
                        });
                    }
                    ResolvedFault::CoreStall { core, duration }
                }
                Fault::LoadSpike { vm } => {
                    let tasks: Vec<usize> = self
                        .tasks
                        .iter()
                        .enumerate()
                        .filter(|(_, t)| self.vcpus[t.vcpu].vm == vm)
                        .map(|(i, _)| i)
                        .collect();
                    if tasks.is_empty() {
                        return Err(SimError::UnknownVm { vm });
                    }
                    ResolvedFault::LoadSpike { tasks }
                }
            };
            resolved.push((scheduled.at, fault));
        }
        self.resolved_faults = resolved;
        self.fault_plan = Some(plan);
        Ok(self)
    }

    fn run_inner(&mut self) -> Result<SimReport, SimError> {
        self.seed_events();
        let horizon = SimTime::ZERO + self.config.horizon;
        self.advance(horizon)?;
        self.finish(horizon);
        Ok(self.build_report())
    }

    // ---- Event keying --------------------------------------------------

    /// The ordering key of `event`: derived from content, never from
    /// insertion history, so simultaneous equal-priority events are
    /// delivered in an order fixed by the events themselves.
    fn event_key(&self, event: &Event) -> u64 {
        match *event {
            Event::ServerReplenish { vcpu } => vcpu as u64,
            Event::Refill => REFILL_KEY,
            Event::Reallocate { index } => index as u64,
            Event::FaultInject { index } => index as u64,
            Event::FaultClear { core } => FAULT_CLEAR_BASE + core as u64,
            Event::JobRelease { task } => task as u64,
            Event::DeadlineCheck { task, .. } => task as u64,
        }
    }

    fn push_event(&mut self, time: SimTime, priority: u64, event: Event) {
        let key = self.event_key(&event);
        self.queue.push_keyed(time, priority, key, event);
    }

    // ---- Run phases ----------------------------------------------------

    /// Seeds the initial event population.
    fn seed_events(&mut self) {
        // Release synchronization (Section 3.2): align each VCPU's
        // first release with its earliest task release.
        if self.config.synchronize_releases {
            for v in 0..self.vcpus.len() {
                let earliest = self.vcpus[v]
                    .tasks
                    .iter()
                    .map(|&t| self.tasks[t].offset)
                    .min()
                    .unwrap_or(SimDuration::ZERO);
                if earliest > SimDuration::ZERO {
                    self.vcpus[v]
                        .server
                        .synchronize_release(SimTime::ZERO + earliest);
                }
            }
        }
        for v in 0..self.vcpus.len() {
            self.refile(v);
        }
        if self.config.record_supply {
            for v in 0..self.vcpus.len() {
                let server = &self.vcpus[v].server;
                self.supply_logs[v] = Some(crate::regulation::SupplyLog::new(
                    server.period(),
                    server.release(),
                ));
            }
        }
        // Initial events: task releases at their offsets, server
        // replenishments at the first period boundaries, the refiller.
        for t in 0..self.tasks.len() {
            let offset = self.tasks[t].offset;
            self.push_event(
                SimTime::ZERO + offset,
                PRIO_RELEASE,
                Event::JobRelease { task: t },
            );
        }
        for v in 0..self.vcpus.len() {
            let deadline = self.vcpus[v].server.deadline();
            self.push_event(deadline, PRIO_REPLENISH, Event::ServerReplenish { vcpu: v });
        }
        if self.config.isolation == IsolationMode::Isolated && !self.cores.is_empty() {
            self.push_event(
                SimTime::ZERO + self.config.regulation_period,
                PRIO_REFILL,
                Event::Refill,
            );
        }
        for index in 0..self.reallocations.len() {
            let (at, _, _) = self.reallocations[index];
            self.push_event(at, PRIO_REALLOC, Event::Reallocate { index });
        }
        for index in 0..self.resolved_faults.len() {
            let at = self.resolved_faults[index].0;
            self.push_event(at, PRIO_FAULT, Event::FaultInject { index });
        }
    }

    /// Delivers every event up to `horizon`, in `(time, priority, key)`
    /// order.
    ///
    /// Three sources feed the loop, and it takes the smallest head:
    ///
    /// * the event heap;
    /// * the cores' segment timers. A timer orders as
    ///   `(end, PRIO_SEGMENT_END, core)`, the prefix a heap segment-end
    ///   event would carry. A preempted segment takes its timer with
    ///   it, so no stale end is ever delivered;
    /// * the folded deadline checks. A regular job's deadline is the
    ///   instant its task's next job is released, so instead of a heap
    ///   event per job, each `JobRelease` at `d` appends the previous
    ///   regular job's check, ordered as `(d, PRIO_DEADLINE, task)`.
    ///   Releases at one instant pop in task order, before any check
    ///   at that instant, so the list is sorted as appended. The heap
    ///   still holds the checks of load-spike jobs. On an exact tie the
    ///   heap goes first: a spike check tied with a folded one was
    ///   pushed by its fault at priority 3, before the release at
    ///   priority 4 that pushed the regular check, so it came first in
    ///   the single heap too.
    ///
    /// The merge delivers in the order of one heap holding all three.
    fn advance(&mut self, horizon: SimTime) -> Result<(), SimError> {
        loop {
            // A later source takes over only when strictly smaller, so
            // the heap wins an exact tie with a folded check. Timers
            // never tie: no other source has priority 0.
            let mut next = self.queue.peek_order().map(|order| (order, Source::Heap));
            if let Some(&(time, task, _)) = self.due_checks.front() {
                let order = (time, PRIO_DEADLINE, task as u64);
                if next.is_none_or(|(head, _)| order < head) {
                    next = Some((order, Source::Due));
                }
            }
            if let Some(order) = self.next_segment_end() {
                if next.is_none_or(|(head, _)| order < head) {
                    next = Some((order, Source::Timer));
                }
            }
            let Some(((time, _, key), source)) = next else {
                break;
            };
            if time > horizon {
                break;
            }
            match source {
                Source::Timer => {
                    let core = key as usize;
                    self.suspend(core, time);
                    self.schedule(core, time);
                }
                Source::Heap => {
                    if let Some((now, _, event)) = self.queue.pop() {
                        self.handle(now, event)?;
                    }
                }
                Source::Due => {
                    if let Some((now, task, job)) = self.due_checks.pop_front() {
                        self.check_deadline(now, task, job);
                    }
                }
            }
        }
        Ok(())
    }

    /// The earliest segment timer of the cores, as the ordering prefix
    /// `(end, PRIO_SEGMENT_END, core)`.
    fn next_segment_end(&self) -> Option<(SimTime, u64, u64)> {
        self.cores
            .iter()
            .enumerate()
            .filter_map(|(core, c)| c.running.map(|r| (r.end, core)))
            .min()
            .map(|(end, core)| (end, PRIO_SEGMENT_END, core as u64))
    }

    /// Horizon flush: close in-flight run segments and open
    /// throttle intervals, or busy/throttled time (and supply logs,
    /// and the energy model on top of them) undercount the final
    /// partial period. The flush cannot complete a job: every event
    /// at or before the horizon has been drained, so an in-flight
    /// segment's planned end lies strictly beyond it, and the
    /// elapsed slice is strictly shorter than the job's remaining
    /// work. A flush-induced throttle opens its interval *at* the
    /// horizon and closes immediately — zero length, as it must be.
    fn finish(&mut self, horizon: SimTime) {
        for core in 0..self.cores.len() {
            self.suspend(core, horizon);
            if let Some(since) = self.cores[core].throttled_since.take() {
                self.cores[core].throttled_ns += horizon.since(since).as_ns();
            }
        }
    }

    /// Reads the finished run out into a report.
    fn build_report(&mut self) -> SimReport {
        SimReport {
            deadline_misses: std::mem::take(&mut self.misses),
            jobs_completed: self.jobs_completed,
            jobs_released: self.jobs_released,
            throttle_events: self.throttle_events,
            context_switches: self.context_switches,
            handler_overheads: std::mem::replace(&mut self.probes, Probes::new(false))
                .into_map(),
            response_times: self
                .tasks
                .iter()
                .map(|t| (t.id, t.response.clone()))
                .collect(),
            supply_logs: self
                .vcpus
                .iter()
                .zip(std::mem::take(&mut self.supply_logs))
                .filter_map(|(v, log)| log.map(|l| (v.server.id(), l)))
                .collect(),
            core_times: self
                .cores
                .iter()
                .map(|c| crate::energy::CoreTime {
                    busy_ms: c.busy_ns as f64 / 1e6,
                    throttled_ms: c.throttled_ns as f64 / 1e6,
                })
                .collect(),
            horizon_ms: self.config.horizon.as_ms(),
        }
    }

    fn handle(&mut self, now: SimTime, event: Event) -> Result<(), SimError> {
        match event {
            Event::ServerReplenish { vcpu } => {
                let core = self.vcpus[vcpu].core;
                // If this server is mid-segment, close the segment
                // first (its unused budget is lost at the boundary).
                if self.cores[core].running.is_some_and(|r| r.vcpu == vcpu) {
                    self.suspend(core, now);
                }
                // An injected replenishment-delay fault postpones this
                // replenishment: the server keeps its expired window
                // (deadline <= now, so the scheduler skips it — no
                // supply) until the delayed event fires. The server's
                // replenishment then advances its window by whole
                // periods, so later replenishments return to the
                // period grid.
                if let Some(delay) = self.vcpus[vcpu].pending_replenish_delay.take() {
                    self.push_event(now + delay, PRIO_REPLENISH, Event::ServerReplenish { vcpu });
                    self.schedule(core, now);
                    return Ok(());
                }
                self.probes.time(HandlerKind::CpuBudgetReplenish, || {
                    self.vcpus[vcpu].server.replenish(now);
                });
                self.refile(vcpu);
                let next = self.vcpus[vcpu].server.deadline();
                self.push_event(next, PRIO_REPLENISH, Event::ServerReplenish { vcpu });
                let id = self.vcpus[vcpu].server.id();
                self.trace(now, TraceEvent::Replenish { vcpu: id });
                self.schedule(core, now);
            }
            Event::Refill => {
                self.refill_phases(now);
                self.push_event(
                    now + self.config.regulation_period,
                    PRIO_REFILL,
                    Event::Refill,
                );
            }
            Event::Reallocate { index } => {
                let (_, core, alloc) = self.reallocations[index];
                self.apply_reallocation(core, alloc, now)?;
            }
            Event::FaultInject { index } => {
                self.inject_fault(index, now);
            }
            Event::FaultClear { core } => {
                let Some(until) = self.cores[core].fault_until else {
                    return Ok(());
                };
                if now < until {
                    return Ok(()); // superseded by a longer stall
                }
                self.cores[core].fault_until = None;
                if !self.cores[core].throttled {
                    if let Some(since) = self.cores[core].throttled_since.take() {
                        self.cores[core].throttled_ns += now.since(since).as_ns();
                    }
                    self.trace(now, TraceEvent::Unthrottle { core });
                    self.schedule(core, now);
                }
            }
            Event::JobRelease { task } => {
                let (index, overran) = {
                    let t = &mut self.tasks[task];
                    let index = t.next_index;
                    t.next_index += 1;
                    let deadline = now + t.period;
                    let (remaining, overran) = t.release_demand(now);
                    t.pending.push(Job {
                        index,
                        release: now,
                        deadline,
                        remaining,
                    });
                    (index, overran)
                };
                if overran {
                    self.fault_stats.overrun_jobs += 1;
                }
                self.jobs_released += 1;
                // The previous regular job's deadline is now.
                if let Some(previous) = self.tasks[task].last_regular.replace(index) {
                    self.due_checks.push_back((now, task, previous));
                }
                let period = self.tasks[task].period;
                self.push_event(now + period, PRIO_RELEASE, Event::JobRelease { task });
                let core = self.vcpus[self.tasks[task].vcpu].core;
                // A new job may preempt the current guest-level choice.
                self.schedule(core, now);
            }
            Event::DeadlineCheck { task, job } => {
                self.check_deadline(now, task, job);
            }
        }
        Ok(())
    }

    /// A job's deadline passes: retire it if it finished (up to the
    /// numeric residue tolerance) or record a miss.
    fn check_deadline(&mut self, now: SimTime, task: usize, job: u64) {
        // Account the in-flight segment if the core is running this
        // task, so completions that land exactly on the deadline are
        // not scored as misses. The running job is the task's FIFO
        // head, which need not be `job`: an older job that already
        // missed stays pending ahead of it.
        let core = self.vcpus[self.tasks[task].vcpu].core;
        let running_task = self.cores[core]
            .running
            .is_some_and(|r| r.task == Some(task));
        if running_task {
            self.suspend(core, now);
        }
        // Budgets are real-valued (Θ = Π·ΣU) while simulated
        // time is integer nanoseconds, so a job can be left
        // with a few nanoseconds of numeric residue at its
        // deadline. Anything below the tolerance (1 µs, i.e.
        // 10⁻⁵ of the shortest paper-scale period) counts as
        // completed on time and is retired here.
        let position = self.tasks[task].pending.iter().position(|j| j.index == job);
        if let Some(pos) = position {
            if self.tasks[task].pending[pos].remaining <= MISS_TOLERANCE {
                let done = self.tasks[task].pending.remove(pos);
                let response = now.since(done.release).as_ms();
                self.tasks[task].response.record(response);
                self.jobs_completed += 1;
            } else {
                self.misses.push(DeadlineMiss {
                    task: self.tasks[task].id,
                    job,
                    deadline: now,
                });
                let id = self.tasks[task].id;
                self.trace(now, TraceEvent::Miss { task: id, job });
            }
        }
        if running_task {
            self.schedule(core, now);
        }
    }

    /// The bandwidth refiller's period boundary, in its fixed phase
    /// order over all cores: (0) close in-flight segments of
    /// traffic-generating tasks so their requests are charged to the
    /// period that just ended, not lumped into a later one;
    /// (1) replenish budgets and emit the `Refill` trace record;
    /// (2) wake throttled cores; (3) re-run the scheduler on every
    /// unheld core, ascending.
    fn refill_phases(&mut self, now: SimTime) {
        let RefillScratch {
            mut suspended,
            mut woken,
        } = std::mem::take(&mut self.refill_scratch);
        suspended.clear();
        woken.clear();
        for core in 0..self.cores.len() {
            let generates_traffic = self.cores[core]
                .running
                .and_then(|r| r.task)
                .is_some_and(|t| self.tasks[t].request_rate > 0.0);
            if generates_traffic {
                self.suspend(core, now);
                suspended.push(core);
            }
        }
        self.probes.time(HandlerKind::BwReplenish, || {
            self.regulator.replenish_all(&mut woken);
        });
        self.trace(now, TraceEvent::Refill { woken: woken.len() });
        for &core in &woken {
            self.cores[core].throttled = false;
            // A concurrent fault stall keeps the core held (and
            // its idle interval open); its FaultClear closes
            // both.
            if self.cores[core].fault_until.is_none() {
                if let Some(since) = self.cores[core].throttled_since.take() {
                    self.cores[core].throttled_ns += now.since(since).as_ns();
                }
                self.trace(now, TraceEvent::Unthrottle { core });
            }
        }
        suspended.extend((0..self.cores.len()).filter(|&c| !self.cores[c].is_held()));
        suspended.sort_unstable();
        suspended.dedup();
        for &core in &suspended {
            self.schedule(core, now);
        }
        self.refill_scratch = RefillScratch { suspended, woken };
    }

    /// Injects the `index`-th resolved fault at `now` (see
    /// [`fault`](crate::fault) for the taxonomy and containment
    /// semantics).
    fn inject_fault(&mut self, index: usize, now: SimTime) {
        let fault = self.resolved_faults[index].1.clone();
        self.fault_stats.injected += 1;
        let kind = match &fault {
            ResolvedFault::WcetOverrun { .. } => FaultKind::WcetOverrun,
            ResolvedFault::ReplenishDelay { .. } => FaultKind::ReplenishDelay,
            ResolvedFault::ThrottleFault { .. } => FaultKind::ThrottleFault,
            ResolvedFault::CoreStall { .. } => FaultKind::CoreStall,
            ResolvedFault::LoadSpike { .. } => FaultKind::LoadSpike,
        };
        self.trace(now, TraceEvent::FaultInjected { kind });
        match fault {
            ResolvedFault::WcetOverrun {
                task,
                factor,
                window,
            } => {
                self.fault_stats.overruns += 1;
                let t = &mut self.tasks[task];
                t.overrun_factor = factor;
                t.overrun_until = now + window;
            }
            ResolvedFault::ReplenishDelay { vcpu, delay } => {
                self.fault_stats.replenish_delays += 1;
                self.vcpus[vcpu].pending_replenish_delay = Some(delay);
            }
            ResolvedFault::ThrottleFault { core } => {
                self.fault_stats.throttle_faults += 1;
                // Held until the next regulation-period boundary — the
                // same wake instant a genuine budget overflow would
                // observe (a refill exactly at `now` has already fired:
                // PRIO_REFILL < PRIO_FAULT).
                let period = self.config.regulation_period.as_ns();
                let into_period = now.as_ns() % period;
                let until = SimTime(now.as_ns() + (period - into_period));
                self.stall_core(core, until, now);
            }
            ResolvedFault::CoreStall { core, duration } => {
                self.fault_stats.core_stalls += 1;
                self.stall_core(core, now + duration, now);
            }
            ResolvedFault::LoadSpike { tasks } => {
                self.fault_stats.load_spikes += 1;
                for task in tasks {
                    let (deadline, job_index, overran) = {
                        let t = &mut self.tasks[task];
                        let job_index = t.next_index;
                        t.next_index += 1;
                        let deadline = now + t.period;
                        let (remaining, overran) = t.release_demand(now);
                        // Spike jobs join the back of the FIFO: same
                        // period, so their deadline is no earlier than
                        // any backlogged job's.
                        t.pending.push(Job {
                            index: job_index,
                            release: now,
                            deadline,
                            remaining,
                        });
                        (deadline, job_index, overran)
                    };
                    if overran {
                        self.fault_stats.overrun_jobs += 1;
                    }
                    self.jobs_released += 1;
                    self.fault_stats.load_spike_jobs += 1;
                    self.push_event(
                        deadline,
                        PRIO_DEADLINE,
                        Event::DeadlineCheck {
                            task,
                            job: job_index,
                        },
                    );
                    let core = self.vcpus[self.tasks[task].vcpu].core;
                    self.schedule(core, now);
                }
            }
        }
    }

    /// Holds `core` idle until `until` (throttle fault / core stall).
    /// Overlapping stalls extend to the furthest expiry; the stale
    /// `FaultClear` events of shorter stalls are ignored when they
    /// fire.
    fn stall_core(&mut self, core: usize, until: SimTime, now: SimTime) {
        self.suspend(core, now);
        if self.cores[core].fault_until.is_none_or(|u| until > u) {
            self.cores[core].fault_until = Some(until);
            self.push_event(until, PRIO_REFILL, Event::FaultClear { core });
        }
        if !self.cores[core].throttled && self.cores[core].throttled_since.is_none() {
            self.cores[core].throttled_since = Some(now);
            self.throttle_events += 1;
            self.trace(now, TraceEvent::Throttle { core });
        }
    }

    /// Closes the current run segment on `core`: consumes server
    /// budget, advances the running job, accounts memory traffic, and
    /// (on overflow) throttles the core.
    fn suspend(&mut self, core: usize, now: SimTime) {
        let Some(run) = self.cores[core].running.take() else {
            return;
        };
        let elapsed = now.since(run.start);
        self.vcpus[run.vcpu].server.stop_running(elapsed);
        if self.vcpus[run.vcpu].server.state() == ServerState::Depleted {
            self.refile(run.vcpu);
        }
        if elapsed > SimDuration::ZERO {
            if let Some(log) = &mut self.supply_logs[run.vcpu] {
                log.record(run.start, now);
            }
            if run.task.is_some() {
                self.cores[core].busy_ns += elapsed.as_ns();
            }
        }
        if let Some(task) = run.task {
            let completed = {
                let t = &mut self.tasks[task];
                // Audited expect: a segment only starts for a task with
                // a pending head job, and the job can only be retired
                // by this very accounting.
                #[allow(clippy::expect_used)]
                let job = t.pending.first_mut().expect("running task has a job");
                job.remaining = job.remaining.saturating_sub(elapsed);
                if job.remaining == SimDuration::ZERO {
                    let job = t.pending.remove(0);
                    let response = now.since(job.release).as_ms();
                    t.response.record(response);
                    true
                } else {
                    false
                }
            };
            if completed {
                self.jobs_completed += 1;
            }
            // Memory traffic of this segment, with a fractional carry
            // per core so long-run request counts are exact.
            let rate = self.tasks[task].request_rate;
            if rate > 0.0 && elapsed > SimDuration::ZERO {
                let total = rate * elapsed.as_ms() + self.traffic_carry[core];
                let requests = total.floor();
                self.traffic_carry[core] = total - requests;
                // Audited expect: `core` indexes `self.cores`, and the
                // regulator was sized from the same count.
                #[allow(clippy::expect_used)]
                let action = self
                    .regulator
                    .record_requests(core, requests as u64)
                    .expect("core index is in range");
                if action == ThrottleAction::Throttle {
                    self.probes.time(HandlerKind::Throttle, || {
                        self.cores[core].throttled = true;
                    });
                    // A concurrent fault stall already opened the idle
                    // interval; keep its start.
                    if self.cores[core].throttled_since.is_none() {
                        self.cores[core].throttled_since = Some(now);
                    }
                    self.throttle_events += 1;
                    self.trace(now, TraceEvent::Throttle { core });
                }
            }
        }
    }

    /// Re-files `vcpu` in its core's ready order after its server's
    /// window or state changed: a server is filed exactly when it is
    /// not `Depleted`, under `(deadline, period, vcpu)`.
    fn refile(&mut self, vcpu: usize) {
        let v = &mut self.vcpus[vcpu];
        let ready = &mut self.cores[v.core].ready;
        if let Some(key) = v.filed.take() {
            ready.remove(&key);
        }
        if v.server.state() != ServerState::Depleted {
            let key = EdfKey::new(v.server.deadline(), v.server.period().as_ns(), vcpu);
            ready.insert(key);
            v.filed = Some(key);
        }
    }

    /// The scheduler: picks the highest-priority ready server on
    /// `core` (deadline, period, index), and within it the
    /// earliest-deadline pending job, preempting as needed.
    ///
    /// The server comes from the core's ready order: the first filed
    /// server whose window `[deadline − period, deadline)` contains
    /// `now`. A server exactly at its period boundary waits for its
    /// replenishment event (same instant, later priority), and a
    /// server whose (synchronized) first release lies in the future is
    /// not active yet. Debug builds check every choice against
    /// [`HypervisorSim::scan_choice`].
    fn schedule(&mut self, core: usize, now: SimTime) {
        if self.cores[core].is_held() {
            // Throttled or fault-stalled cores idle until the refiller
            // (or the fault expiry) wakes them.
            if self.cores[core].running.is_some() {
                self.suspend(core, now);
            }
            return;
        }
        let current = self.cores[core].running;
        let choice = self.probes.time(HandlerKind::Scheduling, || {
            self.cores[core]
                .ready
                .iter()
                .find(|k| k.deadline > now && k.deadline.as_ns() - k.period_ns <= now.as_ns())
                .map(|k| k.index)
        });
        debug_assert_eq!(choice, self.scan_choice(core, now, current));
        let Some(next_vcpu) = choice else {
            // Nothing runnable: idle the core.
            if current.is_some() {
                self.suspend(core, now);
            }
            return;
        };
        let next_task = self.pick_job(next_vcpu);
        if let Some(run) = current {
            if run.vcpu == next_vcpu && run.task == next_task {
                return; // no change
            }
            self.suspend(core, now);
        }
        self.start(core, next_vcpu, next_task, now);
    }

    /// The scheduler's choice by a scan of every VCPU on `core`: the
    /// smallest `(deadline, period, vcpu)` among servers that are
    /// ready, or running as `current`, and active at `now`. The oracle
    /// for the ready order.
    fn scan_choice(&self, core: usize, now: SimTime, current: Option<Running>) -> Option<usize> {
        let mut best: Option<(SimTime, SimDuration, usize)> = None;
        for &v in &self.cores[core].vcpus {
            let server = &self.vcpus[v].server;
            let ready = match server.state() {
                ServerState::Ready => true,
                ServerState::Running => current.is_some_and(|r| r.vcpu == v),
                ServerState::Depleted => false,
            };
            if !ready || server.deadline() <= now || server.release() > now {
                continue;
            }
            let key = (server.deadline(), server.period(), v);
            if best.is_none_or(|b| key < b) {
                best = Some(key);
            }
        }
        best.map(|(_, _, v)| v)
    }

    /// The earliest-deadline pending job among a VCPU's tasks.
    fn pick_job(&self, vcpu: usize) -> Option<usize> {
        self.vcpus[vcpu]
            .tasks
            .iter()
            .filter_map(|&t| self.tasks[t].pending.first().map(|j| (j.deadline, t)))
            .min()
            .map(|(_, t)| t)
    }

    /// Starts a run segment for `vcpu` (running `task`'s head job, or
    /// idling its budget away) and plans the segment's end.
    fn start(&mut self, core: usize, vcpu: usize, task: Option<usize>, now: SimTime) {
        let is_switch = self.cores[core].last_vcpu != Some(vcpu);
        self.probes.time(HandlerKind::ContextSwitch, || {
            self.cores[core].last_vcpu = Some(vcpu);
        });
        if is_switch {
            self.context_switches += 1;
        }

        let server = &mut self.vcpus[vcpu].server;
        server.start_running();
        let mut limit = server.remaining_budget();
        // Budget not used by the period boundary is lost.
        limit = limit.min(server.deadline().saturating_since(now));
        if let Some(t) = task {
            // Audited expect: `pick_job` only returns tasks with a
            // pending head job, and nothing ran in between.
            #[allow(clippy::expect_used)]
            let job = self.tasks[t].pending.first().expect("picked job exists");
            limit = limit.min(job.remaining);
            // Traffic overflow caps the segment just past the throttle
            // point (one extra request and one extra nanosecond, so the
            // overflow is guaranteed to fire rather than land short of
            // the boundary by rounding).
            let rate = self.tasks[t].request_rate;
            if rate > 0.0 {
                // Audited expect: `core` indexes `self.cores`, and the
                // regulator was sized from the same count.
                #[allow(clippy::expect_used)]
                let remaining = self
                    .regulator
                    .remaining(core)
                    .expect("core index is in range");
                let to_overflow_ms =
                    (remaining as f64 + 1.0 - self.traffic_carry[core]).max(0.0) / rate;
                let cap = SimDuration(vc2m_model::ms_to_ns(to_overflow_ms) + 1);
                limit = limit.min(cap);
            }
        }
        self.cores[core].running = Some(Running {
            vcpu,
            task,
            start: now,
            end: now + limit,
        });
        self.trace(
            now,
            TraceEvent::RunSegment {
                vcpu: self.vcpus[vcpu].server.id(),
                task: task.map(|t| self.tasks[t].id),
                limit,
            },
        );
    }

    /// Applies a dynamic reallocation to `core` (see
    /// [`HypervisorSim::with_reallocation`]).
    fn apply_reallocation(&mut self, core: usize, alloc: Alloc, now: SimTime) -> Result<(), SimError> {
        // Validate the global partition budgets with the new value in
        // place.
        let space = self.platform.resources();
        let mut cache_total = 0u32;
        let mut bw_total = 0u32;
        for (k, a) in self.core_allocs.iter().enumerate() {
            let effective = if k == core { alloc } else { *a };
            cache_total += effective.cache;
            bw_total += effective.bandwidth;
        }
        if cache_total > space.cache_max() || bw_total > space.bw_max() {
            return Err(SimError::OvercommittedReallocation {
                core,
                cache_total,
                cache_max: space.cache_max(),
                bw_total,
                bw_max: space.bw_max(),
            });
        }

        // Close the in-flight segment so consumption is accounted at
        // the old parameters.
        self.suspend(core, now);
        self.core_allocs[core] = alloc;

        // Reprogram the bandwidth regulator.
        if self.config.isolation == IsolationMode::Isolated {
            let budget = budget_requests_per_period(
                alloc.bandwidth,
                self.platform.bw_partition_mbps(),
                self.config.regulation_period.as_ms(),
            );
            // Audited expect: `core` was range-checked by
            // `with_reallocation`.
            #[allow(clippy::expect_used)]
            self.regulator
                .set_budget(core, budget)
                .expect("core index is in range");
        }

        // New VCPU budgets and task WCETs from the surfaces. Task
        // request rates are left unchanged: a task's memory demand is a
        // property of the task, so tightening the budget makes the old
        // traffic rate throttle-prone — exactly the regulator's job.
        for vi in self.cores[core].vcpus.clone() {
            let period = self.vcpus[vi].server.period();
            let budget_ms = self.vcpus[vi].budget_surface.at(alloc);
            let budget = SimDuration::from_ms(budget_ms).min(period);
            self.vcpus[vi].server.set_full_budget(budget);
            self.refile(vi);
            for ti in self.vcpus[vi].tasks.clone() {
                let wcet = self.tasks[ti].wcet_surface.at(alloc);
                self.tasks[ti].exec = SimDuration::from_ms(wcet);
            }
        }
        self.trace(now, TraceEvent::Reallocate { core, alloc });
        self.schedule(core, now);
        Ok(())
    }

    /// Records a trace event. `TraceEvent` is `Copy`, so the event is
    /// built on the caller's stack and pushing is allocation-free
    /// whether or not the buffer is enabled — the disabled-path
    /// guarantee the `trace_alloc` test pins. A disabled buffer counts
    /// the push as dropped, so `recorded + dropped` is always the total
    /// number of events the run emitted.
    fn trace(&mut self, now: SimTime, event: TraceEvent) {
        self.trace.push(now, event);
    }
}
