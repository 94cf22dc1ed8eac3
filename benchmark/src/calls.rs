//! Every call the benchmark makes into the vC²M crates.
//!
//! The benchmark measures each layer from outside: it times calls into
//! public entry points and reads counters the program already exports.
//! Keeping all of those calls in this one file means an API change in
//! the program touches one benchmark file. Only entry points that are
//! meant to stay are used here: no analysis cache, no `*_with_cache`
//! variants, no traced, observed or sharded simulator runs, and no
//! parallel fleet replays.

use vc2m::admission::{fleet_items, generate, recover, TraceItem, TraceSpec};
use vc2m::model::SimDuration;
use vc2m::prelude::*;
use vc2m::rng::{DetRng, Rng};
use vc2m::sweep::{run_sweep_parallel, SweepResults};

pub use vc2m::hypervisor::HandlerKind;
pub use vc2m::prelude::{
    AdmissionDecision, AdmissionPath, AdmissionStats, AdmissionVerdict, DecisionJournal,
    FleetRouter, FleetWorkItem, Platform, RequestKind, SimReport, Solution, SweepConfig,
    SystemAllocation, TaskSet, VmSpec,
};
pub use vc2m::sched::kernel::KernelCounters;

/// The platform every workload runs on (the paper's Platform A).
pub fn platform() -> Platform {
    Platform::platform_a()
}

/// Snapshot of this thread's schedulability-kernel counters.
pub fn kernel_counters() -> KernelCounters {
    vc2m::sched::kernel::counters()
}

// ---------------------------------------------------------------- admission

/// Which trace generator preset an admission workload uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceShape {
    /// `TraceSpec::new` with small VMs and a low live-set bound, so the
    /// host stays under capacity.
    UnderCapacity,
    /// The default `TraceSpec::new` churn, which overloads one host.
    DefaultChurn,
    /// `TraceSpec::rejection_heavy` over `hosts` hosts.
    RejectionHeavy { hosts: usize },
}

/// An admission workload's inputs: the materialised work items plus
/// each item's canonical request lines (the journal's request half).
pub struct AdmissionInput {
    /// Pre-materialised work items, in trace order.
    pub items: Vec<FleetWorkItem>,
    /// The rendered request lines of each item.
    pub lines: Vec<Vec<String>>,
    /// Hosts the controller runs.
    pub hosts: usize,
    /// The trace seed, which also seeds the controller.
    pub seed: u64,
}

/// Generates and materialises an admission trace.
pub fn admission_input(shape: TraceShape, requests: usize, seed: u64) -> AdmissionInput {
    let spec = match shape {
        TraceShape::UnderCapacity => {
            let mut spec = TraceSpec::new(requests, seed);
            spec.utilization_milli = (60, 200);
            spec.live_range = (2, 6);
            spec
        }
        TraceShape::DefaultChurn => TraceSpec::new(requests, seed),
        TraceShape::RejectionHeavy { hosts } => TraceSpec::rejection_heavy(requests, seed, hosts),
    };
    let trace = generate(&spec);
    let lines = trace
        .items()
        .iter()
        .map(|item| match item {
            TraceItem::Single(request) => vec![request.render()],
            TraceItem::Batch(requests) => requests.iter().map(|r| r.render()).collect(),
        })
        .collect();
    AdmissionInput {
        items: fleet_items(&trace, platform().resources()),
        lines,
        hosts: trace.hosts(),
        seed,
    }
}

/// The engine configuration every admission workload uses.
pub fn engine_config(seed: u64) -> AdmissionConfig {
    AdmissionConfig::new(seed)
}

/// A single-host engine or a multi-host fleet, driven one work item at
/// a time.
pub enum Controller {
    /// One `AdmissionEngine`.
    Engine(AdmissionEngine),
    /// An `AdmissionFleet` of several hosts.
    Fleet(AdmissionFleet),
}

impl Controller {
    /// A fresh controller: an engine for one host, a fleet otherwise.
    pub fn new(hosts: usize, seed: u64) -> Self {
        if hosts == 1 {
            Controller::Engine(AdmissionEngine::new(platform(), engine_config(seed)))
        } else {
            Controller::Fleet(AdmissionFleet::new(
                platform(),
                FleetConfig::new(hosts, seed).with_engine(engine_config(seed)),
            ))
        }
    }

    /// Serves one work item.
    pub fn submit(&mut self, item: FleetWorkItem) {
        match (self, item) {
            (Controller::Engine(engine), FleetWorkItem::Single(request)) => {
                engine.submit(request);
            }
            (Controller::Engine(engine), FleetWorkItem::Batch(requests)) => {
                engine.submit_batch(requests);
            }
            (Controller::Fleet(fleet), FleetWorkItem::Single(request)) => {
                fleet.submit(request);
            }
            (Controller::Fleet(fleet), FleetWorkItem::Batch(requests)) => {
                fleet.submit_batch(requests);
            }
        }
    }

    /// Decisions made so far.
    pub fn decision_count(&self) -> usize {
        match self {
            Controller::Engine(engine) => engine.decisions().len(),
            Controller::Fleet(fleet) => fleet.decisions().len(),
        }
    }

    /// Decision `index` and the host that made it.
    pub fn decision(&self, index: usize) -> (&AdmissionDecision, usize) {
        match self {
            Controller::Engine(engine) => (&engine.decisions()[index], 0),
            Controller::Fleet(fleet) => {
                let d = &fleet.decisions()[index];
                (&d.decision, d.host)
            }
        }
    }

    /// Engine counters (summed over hosts for a fleet).
    pub fn stats(&self) -> AdmissionStats {
        match self {
            Controller::Engine(engine) => *engine.stats(),
            Controller::Fleet(fleet) => fleet.aggregate_stats(),
        }
    }

    /// The byte-stable decision log.
    pub fn log_text(&self) -> String {
        match self {
            Controller::Engine(engine) => engine.log_text(),
            Controller::Fleet(fleet) => fleet.log_text(),
        }
    }

    /// Runs the full verifier over `host`'s current allocation.
    pub fn verify_host(&self, host: usize) -> Result<(), String> {
        let engine = match self {
            Controller::Engine(engine) => engine,
            Controller::Fleet(fleet) => &fleet.engines()[host],
        };
        engine
            .allocation()
            .verify(engine.platform())
            .map_err(|e| e.to_string())
    }
}

/// The decision's byte-stable log line (the journal's decision half).
pub fn decision_line(decision: &AdmissionDecision) -> String {
    decision.log_line()
}

/// Appends one journal record for a work item, in the record shape
/// `vc2m::admission::replay_journaled` writes: a batch record for a
/// batch item, a single record otherwise.
pub fn journal_append(
    journal: &mut DecisionJournal,
    batch: bool,
    mut lines: Vec<String>,
    mut decisions: Vec<String>,
) {
    if batch {
        journal.append_batch(lines, decisions);
    } else {
        journal.append_single(lines.swap_remove(0), decisions.swap_remove(0));
    }
}

/// Renders a journal to its persisted text form.
pub fn journal_render(journal: &DecisionJournal) -> String {
    journal.render()
}

/// Parses a persisted journal.
pub fn journal_parse(text: &str) -> Result<DecisionJournal, String> {
    DecisionJournal::parse(text)
}

/// Rebuilds an engine from a journal; returns its decision log.
pub fn journal_recover(journal: &DecisionJournal, seed: u64) -> Result<String, String> {
    recover(platform(), engine_config(seed), journal)
        .map(|engine| engine.log_text())
        .map_err(|e| e.to_string())
}

/// A fresh fleet router over `hosts` hosts (the shadow router).
pub fn shadow_router(hosts: usize) -> FleetRouter {
    FleetRouter::new(hosts, &platform())
}

/// Routes one request through a router.
pub fn route(router: &mut FleetRouter, request: &vc2m::prelude::AdmissionRequest) -> usize {
    router.route(request)
}

// -------------------------------------------------------------------- sweep

/// The sweep configuration: Platform A, uniform task utilizations,
/// all five solutions, `base_seed = seed`.
pub fn sweep_config(step: f64, tasksets_per_point: usize, seed: u64) -> SweepConfig {
    let mut config = SweepConfig::quick(platform(), UtilizationDist::Uniform).with_seed(seed);
    config.utilizations = vc2m::sweep::utilization_steps(0.10, 2.00, step);
    config.tasksets_per_point = tasksets_per_point;
    config
}

/// Runs the sweep on `threads` worker threads.
pub fn sweep(config: &SweepConfig, threads: usize) -> SweepResults {
    run_sweep_parallel(config, threads, |_, _| {})
}

/// The seed the sweep derives for repetition `rep` of point `point`.
/// The traced pass recomputes it so that it analyses the very tasksets
/// the sweep analysed; the check that their schedulable counts agree
/// catches any drift between this copy and the sweep's own rule.
pub fn sweep_taskset_seed(base_seed: u64, point: usize, rep: usize) -> u64 {
    base_seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((point as u64) << 32)
        .wrapping_add(rep as u64)
}

/// Generates the single-VM workload of one sweep taskset.
pub fn sweep_taskset(config: &SweepConfig, utilization: f64, seed: u64) -> Vec<VmSpec> {
    let mut generator = TasksetGenerator::new(
        config.platform.resources(),
        TasksetConfig::new(utilization, config.distribution),
        seed,
    );
    let tasks = generator.generate();
    vec![VmSpec::new(VmId(0), tasks).expect("generated taskset is non-empty")]
}

/// Runs only the VM level of `solution`; true when it succeeded.
pub fn vm_level(solution: Solution, vms: &[VmSpec], seed: u64) -> bool {
    let mut rng = DetRng::seed_from_u64(seed);
    solution.vm_level(vms, &platform(), &mut rng).is_ok()
}

/// Runs the full two-level allocation; true when schedulable.
pub fn allocate(solution: Solution, vms: &[VmSpec], seed: u64) -> bool {
    solution.allocate(vms, &platform(), seed).is_schedulable()
}

// ---------------------------------------------------------------------- sim

/// The Table-2 scheduler-stress system plus a seeded release offset in
/// [0, 10) ms for every task.
pub struct SimInput {
    /// The allocation the simulator runs.
    pub allocation: SystemAllocation,
    /// Its tasks.
    pub tasks: TaskSet,
    /// `(task, offset_ms)` pairs.
    pub offsets: Vec<(TaskId, f64)>,
}

/// Builds the stress system with `vcpus` VCPUs and seeded offsets.
pub fn sim_input(vcpus: usize, seed: u64) -> SimInput {
    let (allocation, tasks) = vc2m_bench::scheduler_stress_system(&platform(), vcpus);
    let mut rng = DetRng::seed_from_u64(seed);
    let offsets = tasks
        .iter()
        .map(|t| (t.id(), rng.gen_f64() * 10.0))
        .collect();
    SimInput {
        allocation,
        tasks,
        offsets,
    }
}

/// Builds a simulator of the stress system over `horizon_ms`.
pub fn sim_build(input: &SimInput, horizon_ms: f64) -> Result<HypervisorSim, String> {
    let config = SimConfig::default()
        .with_horizon(SimDuration::from_ms(horizon_ms))
        .with_traffic_fraction(0.6);
    let mut sim = HypervisorSim::new(&platform(), &input.allocation, &input.tasks, config)
        .map_err(|e| e.to_string())?;
    for &(task, offset) in &input.offsets {
        sim = sim
            .with_task_offset(task, offset)
            .map_err(|e| e.to_string())?;
    }
    Ok(sim)
}

/// Runs a built simulator to its horizon.
pub fn sim_run(sim: HypervisorSim) -> Result<SimReport, String> {
    sim.run().map_err(|e| e.to_string())
}

/// The solutions a sweep analyses, in its column order.
pub fn sweep_solutions(config: &SweepConfig) -> Vec<Solution> {
    config.solutions.clone()
}

/// The short name the benchmark's metric names use for a solution.
pub fn solution_name(solution: Solution) -> &'static str {
    match solution {
        Solution::HeuristicFlattening => "flattening",
        Solution::HeuristicOverheadFree => "overhead_free",
        Solution::HeuristicExisting => "existing",
        Solution::EvenlyPartition => "even",
        Solution::Baseline => "baseline",
        Solution::Auto => "auto",
    }
}

/// Every cell of a sweep, row-major in the configuration's solution
/// order: `(schedulable, total, summed analysis seconds)`.
pub fn sweep_cells(results: &SweepResults) -> Vec<(usize, usize, f64)> {
    results
        .rows()
        .iter()
        .flat_map(|row| row.cells.iter())
        .map(|cell| (cell.schedulable, cell.total, cell.runtime.as_secs_f64()))
        .collect()
}

/// The sweep's schedulable fractions as CSV.
pub fn sweep_fractions_csv(results: &SweepResults) -> String {
    results.fractions_csv()
}

/// The sweep's aggregated kernel counters.
pub fn sweep_kernel(results: &SweepResults) -> KernelCounters {
    results.kernel_stats()
}

/// Per handler kind, in the paper's table order: the simulator's own
/// measurement count and mean cost in microseconds.
pub fn sim_handlers(report: &SimReport) -> Vec<(u64, Option<f64>)> {
    HandlerKind::ALL
        .iter()
        .map(|kind| {
            report
                .handler_overheads
                .get(kind)
                .map_or((0, None), |stats| (stats.count(), stats.avg()))
        })
        .collect()
}

/// Whether two simulation reports agree on every deterministic field.
pub fn sim_reports_equal(a: &SimReport, b: &SimReport) -> bool {
    a.structural_eq(b)
}
