//! Deterministic fault injection.
//!
//! The paper's central claim is *isolation*: under vC²M's holistic
//! CPU + cache + memory-bandwidth allocation, a misbehaving VM cannot
//! steal resources from its schedulable neighbors. A simulator that
//! only ever runs well-behaved workloads never tests that claim. This
//! module supplies the adversary: a [`FaultPlan`] is a replayable
//! schedule of injected faults — WCET overruns, budget-replenishment
//! delays, spurious regulator throttles, transient core stalls, and VM
//! load spikes — that the simulator executes as first-class
//! discrete events.
//!
//! # Determinism
//!
//! A plan is either built explicitly ([`FaultPlan::inject`]) or drawn
//! from a seeded [`DetRng`] ([`FaultPlan::generate`]); either way the
//! plan is plain data, and the simulator injects it at fixed event
//! priorities, so the same plan over the same workload yields a
//! bit-identical [`SimReport`](crate::SimReport) every run. That is
//! what makes chaos campaigns diffable: a failing seed *is* the
//! reproduction recipe.
//!
//! # Containment semantics
//!
//! The simulator's periodic servers drain budget even while their
//! tasks idle, and the core scheduler picks servers by
//! (deadline, period, index) only — never by job content. VM-scoped
//! faults (overruns, load spikes) therefore inflate only the faulty
//! VM's own job backlog: an overrunning job is capped by its VCPU's
//! server budget, so the damage surfaces as deadline misses in the
//! faulty VM alone, while every other VM's supply, response times and
//! miss counts stay bit-identical to a fault-free run (pinned by the
//! `fault_properties` suite and the `chaos_soak` bench). Core-scoped
//! faults (throttle faults, stalls) deliberately break this: they
//! model the infrastructure itself failing, and harm every VM sharing
//! the core.

use std::fmt;
use vc2m_model::{SimDuration, SimTime, TaskId, VcpuId, VmId};
use vc2m_rng::{DetRng, Rng};

/// The kind of an injected fault (used in metrics and traces).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A task's jobs run a multiple of their declared cost.
    WcetOverrun,
    /// A VCPU's next budget replenishment arrives late.
    ReplenishDelay,
    /// A core is spuriously throttled until the next regulation
    /// boundary.
    ThrottleFault,
    /// A core stalls (executes nothing) for a fixed duration.
    CoreStall,
    /// Every task of a VM releases one extra job immediately.
    LoadSpike,
}

impl FaultKind {
    /// All fault kinds.
    pub const ALL: [FaultKind; 5] = [
        FaultKind::WcetOverrun,
        FaultKind::ReplenishDelay,
        FaultKind::ThrottleFault,
        FaultKind::CoreStall,
        FaultKind::LoadSpike,
    ];

    /// The kinds whose blast radius is a single VM — the kinds the
    /// containment invariant is stated over. Core-scoped kinds
    /// (throttle faults, stalls) and replenishment delays act on
    /// shared infrastructure or the supply side and are excluded.
    pub const VM_SCOPED: [FaultKind; 2] = [FaultKind::WcetOverrun, FaultKind::LoadSpike];

    /// A stable kebab-case name (used in traces).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::WcetOverrun => "wcet-overrun",
            FaultKind::ReplenishDelay => "replenish-delay",
            FaultKind::ThrottleFault => "throttle-fault",
            FaultKind::CoreStall => "core-stall",
            FaultKind::LoadSpike => "load-spike",
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One injectable fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// Jobs of `task` released within `window` of the injection
    /// instant carry `factor ×` their declared execution demand. The
    /// overrun is still capped by the VCPU's server budget each
    /// period, so it cannot consume another VM's supply.
    WcetOverrun {
        /// The misbehaving task.
        task: TaskId,
        /// Execution-demand multiplier (finite, ≥ 1).
        factor: f64,
        /// How long after injection releases are inflated (> 0).
        window: SimDuration,
    },
    /// The target VCPU's next budget replenishment is delivered
    /// `delay` late; the VCPU has no supply between its period
    /// boundary and the late replenishment. Subsequent replenishments
    /// return to the period grid (the server window advances by whole
    /// periods).
    ReplenishDelay {
        /// The starved VCPU.
        vcpu: VcpuId,
        /// How late the replenishment arrives (> 0).
        delay: SimDuration,
    },
    /// The core is throttled as if its bandwidth budget had
    /// overflowed, until the next regulation-period boundary. The
    /// regulator's own request accounting is untouched — this models a
    /// spurious throttle (e.g. a misread performance counter).
    ThrottleFault {
        /// The throttled core.
        core: usize,
    },
    /// The core executes nothing for `duration` (an SMI storm, a
    /// firmware hiccup). Server budgets on the core keep draining —
    /// unavailable time is real time.
    CoreStall {
        /// The stalled core.
        core: usize,
        /// Stall length (> 0).
        duration: SimDuration,
    },
    /// Every task of `vm` releases one extra job at the injection
    /// instant (a burst arrival / retry storm inside the guest).
    LoadSpike {
        /// The spiking VM.
        vm: VmId,
    },
}

impl Fault {
    /// This fault's kind.
    pub fn kind(&self) -> FaultKind {
        match self {
            Fault::WcetOverrun { .. } => FaultKind::WcetOverrun,
            Fault::ReplenishDelay { .. } => FaultKind::ReplenishDelay,
            Fault::ThrottleFault { .. } => FaultKind::ThrottleFault,
            Fault::CoreStall { .. } => FaultKind::CoreStall,
            Fault::LoadSpike { .. } => FaultKind::LoadSpike,
        }
    }
}

/// A fault with its injection instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledFault {
    /// When the fault is injected.
    pub at: SimTime,
    /// What happens.
    pub fault: Fault,
}

/// The valid targets a generated plan may aim at. Collections left
/// empty simply exclude the corresponding fault kinds from the draw.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultTargets {
    /// Tasks eligible for WCET overruns.
    pub tasks: Vec<TaskId>,
    /// VCPUs eligible for replenishment delays.
    pub vcpus: Vec<VcpuId>,
    /// VMs eligible for load spikes.
    pub vms: Vec<VmId>,
    /// Number of cores eligible for throttle faults and stalls
    /// (cores `0..cores`).
    pub cores: usize,
}

impl FaultTargets {
    /// Whether `kind` has at least one target to aim at.
    pub fn supports(&self, kind: FaultKind) -> bool {
        match kind {
            FaultKind::WcetOverrun => !self.tasks.is_empty(),
            FaultKind::ReplenishDelay => !self.vcpus.is_empty(),
            FaultKind::ThrottleFault | FaultKind::CoreStall => self.cores > 0,
            FaultKind::LoadSpike => !self.vms.is_empty(),
        }
    }
}

/// Shape of a randomly generated plan: how many faults, over what
/// horizon, which kinds, and the parameter ranges to draw from.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlanSpec {
    /// Number of faults to draw.
    pub count: usize,
    /// Injection instants are uniform in `[0, horizon)`.
    pub horizon: SimDuration,
    /// Kinds to draw from (uniformly). Kinds without a target in the
    /// [`FaultTargets`] are skipped at generation time.
    pub kinds: Vec<FaultKind>,
    /// WCET-overrun factor range (inclusive).
    pub overrun_factor: (f64, f64),
    /// WCET-overrun window range in milliseconds (inclusive).
    pub overrun_window_ms: (f64, f64),
    /// Replenishment-delay range in milliseconds (inclusive).
    pub delay_ms: (f64, f64),
    /// Core-stall duration range in milliseconds (inclusive).
    pub stall_ms: (f64, f64),
}

impl FaultPlanSpec {
    /// A spec drawing all five kinds with paper-scale default
    /// parameter ranges (periods are 10–1100 ms, so windows, delays
    /// and stalls of a few milliseconds to tens of milliseconds are
    /// disruptive without being degenerate).
    pub fn new(count: usize, horizon: SimDuration) -> Self {
        FaultPlanSpec {
            count,
            horizon,
            kinds: FaultKind::ALL.to_vec(),
            overrun_factor: (1.5, 4.0),
            overrun_window_ms: (5.0, 50.0),
            delay_ms: (0.5, 5.0),
            stall_ms: (0.5, 5.0),
        }
    }

    /// A spec restricted to the VM-scoped kinds
    /// ([`FaultKind::VM_SCOPED`]) — the configuration the containment
    /// invariant is checked under.
    pub fn vm_targeted(count: usize, horizon: SimDuration) -> Self {
        FaultPlanSpec {
            kinds: FaultKind::VM_SCOPED.to_vec(),
            ..FaultPlanSpec::new(count, horizon)
        }
    }
}

/// A replayable schedule of faults to inject into a simulation run.
///
/// Attach with
/// [`HypervisorSim::with_fault_plan`](crate::HypervisorSim::with_fault_plan);
/// targets and parameters are validated there, so a plan itself is
/// just data. Faults sharing an injection instant fire in plan order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    faults: Vec<ScheduledFault>,
}

impl FaultPlan {
    /// An empty plan (attachable; enables `faults.*` metrics export
    /// with zero counts).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds a fault at `at` (builder style).
    pub fn inject(mut self, at: SimTime, fault: Fault) -> Self {
        self.faults.push(ScheduledFault { at, fault });
        self
    }

    /// The scheduled faults, in plan order.
    pub fn faults(&self) -> &[ScheduledFault] {
        &self.faults
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Draws a plan from a seeded RNG: `spec.count` faults, each with
    /// a uniform instant in `[0, spec.horizon)`, a uniform kind among
    /// those `targets` supports, a uniform target, and parameters
    /// uniform in the spec's ranges. Fully determined by
    /// `(seed, targets, spec)`; the result is sorted by injection
    /// instant (stable, so equal instants keep draw order).
    pub fn generate(seed: u64, targets: &FaultTargets, spec: &FaultPlanSpec) -> Self {
        let mut rng = DetRng::seed_from_u64(seed);
        let kinds: Vec<FaultKind> = spec
            .kinds
            .iter()
            .copied()
            .filter(|&k| targets.supports(k))
            .collect();
        let mut faults = Vec::new();
        if kinds.is_empty() || spec.horizon == SimDuration::ZERO {
            return FaultPlan { faults };
        }
        let horizon_ns = spec.horizon.as_ns();
        for _ in 0..spec.count {
            let at = SimTime(rng.gen_range(0..horizon_ns));
            let kind = kinds[rng.gen_range(0..kinds.len() as u64) as usize];
            let fault = match kind {
                FaultKind::WcetOverrun => Fault::WcetOverrun {
                    task: pick(&mut rng, &targets.tasks),
                    factor: rng.gen_range(spec.overrun_factor.0..=spec.overrun_factor.1),
                    window: ms_range(&mut rng, spec.overrun_window_ms),
                },
                FaultKind::ReplenishDelay => Fault::ReplenishDelay {
                    vcpu: pick(&mut rng, &targets.vcpus),
                    delay: ms_range(&mut rng, spec.delay_ms),
                },
                FaultKind::ThrottleFault => Fault::ThrottleFault {
                    core: rng.gen_range(0..targets.cores as u64) as usize,
                },
                FaultKind::CoreStall => Fault::CoreStall {
                    core: rng.gen_range(0..targets.cores as u64) as usize,
                    duration: ms_range(&mut rng, spec.stall_ms),
                },
                FaultKind::LoadSpike => Fault::LoadSpike {
                    vm: pick(&mut rng, &targets.vms),
                },
            };
            faults.push(ScheduledFault { at, fault });
        }
        faults.sort_by_key(|f| f.at);
        FaultPlan { faults }
    }
}

fn pick<T: Copy>(rng: &mut DetRng, from: &[T]) -> T {
    from[rng.gen_range(0..from.len() as u64) as usize]
}

fn ms_range(rng: &mut DetRng, (lo, hi): (f64, f64)) -> SimDuration {
    SimDuration::from_ms(rng.gen_range(lo..=hi))
}

/// Counters of what a run actually injected, exported as the
/// `faults.*` metrics family when a plan is attached (see
/// DESIGN.md, "Fault model").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Faults whose injection event fired within the horizon.
    pub injected: u64,
    /// WCET-overrun faults injected.
    pub overruns: u64,
    /// Jobs released with inflated execution demand.
    pub overrun_jobs: u64,
    /// Replenishment-delay faults injected.
    pub replenish_delays: u64,
    /// Spurious throttle faults injected.
    pub throttle_faults: u64,
    /// Core stalls injected.
    pub core_stalls: u64,
    /// Load-spike faults injected.
    pub load_spikes: u64,
    /// Extra jobs released by load spikes.
    pub load_spike_jobs: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn targets() -> FaultTargets {
        FaultTargets {
            tasks: vec![TaskId(0), TaskId(1), TaskId(2)],
            vcpus: vec![VcpuId(0), VcpuId(1)],
            vms: vec![VmId(0), VmId(1)],
            cores: 2,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = FaultPlanSpec::new(32, SimDuration::from_ms(1000.0));
        let a = FaultPlan::generate(7, &targets(), &spec);
        let b = FaultPlan::generate(7, &targets(), &spec);
        assert_eq!(a, b);
        assert_eq!(a.len(), 32);
        let c = FaultPlan::generate(8, &targets(), &spec);
        assert_ne!(a, c, "different seeds draw different plans");
    }

    #[test]
    fn generated_plans_are_time_sorted_and_in_range() {
        let horizon = SimDuration::from_ms(500.0);
        let spec = FaultPlanSpec::new(64, horizon);
        let plan = FaultPlan::generate(3, &targets(), &spec);
        let mut last = SimTime::ZERO;
        for sf in plan.faults() {
            assert!(sf.at >= last);
            assert!(sf.at < SimTime::ZERO + horizon);
            last = sf.at;
            match sf.fault {
                Fault::WcetOverrun { factor, window, .. } => {
                    assert!((1.5..=4.0).contains(&factor));
                    assert!(window > SimDuration::ZERO);
                }
                Fault::ReplenishDelay { delay, .. } => assert!(delay > SimDuration::ZERO),
                Fault::CoreStall { core, duration } => {
                    assert!(core < 2);
                    assert!(duration > SimDuration::ZERO);
                }
                Fault::ThrottleFault { core } => assert!(core < 2),
                Fault::LoadSpike { .. } => {}
            }
        }
    }

    #[test]
    fn vm_targeted_spec_draws_only_vm_scoped_kinds() {
        let spec = FaultPlanSpec::vm_targeted(64, SimDuration::from_ms(1000.0));
        let plan = FaultPlan::generate(11, &targets(), &spec);
        assert_eq!(plan.len(), 64);
        for sf in plan.faults() {
            assert!(
                FaultKind::VM_SCOPED.contains(&sf.fault.kind()),
                "unexpected kind {:?}",
                sf.fault.kind()
            );
        }
    }

    #[test]
    fn unsupported_kinds_are_skipped() {
        let only_cores = FaultTargets {
            cores: 1,
            ..FaultTargets::default()
        };
        let spec = FaultPlanSpec::new(16, SimDuration::from_ms(100.0));
        let plan = FaultPlan::generate(1, &only_cores, &spec);
        assert_eq!(plan.len(), 16);
        for sf in plan.faults() {
            assert!(matches!(
                sf.fault.kind(),
                FaultKind::ThrottleFault | FaultKind::CoreStall
            ));
        }
        let nothing = FaultTargets::default();
        assert!(FaultPlan::generate(1, &nothing, &spec).is_empty());
    }

    #[test]
    fn builder_keeps_plan_order() {
        let plan = FaultPlan::new()
            .inject(SimTime::from_ms(5.0), Fault::ThrottleFault { core: 0 })
            .inject(
                SimTime::from_ms(1.0),
                Fault::LoadSpike { vm: VmId(0) },
            );
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.faults()[0].at, SimTime::from_ms(5.0));
        assert!(!plan.is_empty());
        assert!(FaultPlan::new().is_empty());
    }

    #[test]
    fn kind_names_are_stable() {
        for kind in FaultKind::ALL {
            assert!(!kind.name().is_empty());
            assert_eq!(kind.to_string(), kind.name());
        }
    }
}
