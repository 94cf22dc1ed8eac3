//! Sharded parallel execution of the hypervisor simulation.
//!
//! Under partitioned EDF the simulated cores couple through exactly
//! one mechanism: the shared bandwidth-regulation clock (the per-period
//! refill in [`BwRegulator`]). Everything else — server scheduling,
//! job release/completion, traffic accounting, fault effects — is
//! core-local. So *any* partition of the cores into groups yields
//! independent sub-simulations between regulation-period boundaries,
//! and a run decomposes into windows:
//!
//! 1. each shard drains its own event heap and its own cores' segment
//!    timers up to (but not through) the barrier's refill point
//!    `(t, PRIO_REFILL, REFILL_KEY)`;
//! 2. at the barrier, each shard replenishes *its own* cores
//!    ([`BwRegulator::replenish_cores`]) and re-runs its scheduler —
//!    the refill phases touch no foreign state, so the barrier needs
//!    no serial section at all;
//! 3. after the last window, shards drain to the horizon and flush.
//!
//! # Why the merge is deterministic and exact
//!
//! The event queue orders simultaneous events by
//! `(time, priority, key, seq)` where `key` is derived from event
//! *content* (target core/task/VCPU index — see `event_key`), never
//! from insertion history. Two events that land in different shards
//! therefore have the same relative order as in the serial queue, and
//! events that could tie completely (same time, priority and key)
//! always target the same entity, hence the same shard, where local
//! insertion order applies exactly as serially. The scheduler itself
//! is content-deterministic (deadline, period, index tie-breaks), so
//! equal event order means equal state trajectories per core.
//!
//! Merging after the run is then pure bookkeeping, in fixed core- or
//! key-order, independent of thread count and completion order:
//!
//! * **counters** (`jobs_*`, `throttle_events`, `context_switches`)
//!   add — each increment happens in exactly one shard;
//! * **deadline misses** sort by `(deadline, task index)` — the serial
//!   pop order of `DeadlineCheck` events — with a stable sort, and
//!   exact ties never span shards;
//! * **response times / supply logs** are unions over disjoint task
//!   and VCPU sets, so each per-task `MinAvgMax` is accumulated by a
//!   single shard in serial sample order — bit-identical floats, not
//!   merely equivalent ones;
//! * **core times** come from each core's owning shard;
//! * **trace records** carry a canonical tag (the ordering prefix of
//!   the event being handled plus an intra-handler lane, see
//!   `TaggedRing`); sorting the union of the per-shard rings and the
//!   coordinator's synthesized `Refill` records by tag reproduces the
//!   serial emission order, and keeping the newest `capacity` of them
//!   reproduces the serial ring's eviction: a shard ring evicts
//!   oldest-first in tag order, so a locally evicted record can never
//!   be among the globally newest `capacity`;
//! * **metrics** render through the same formatting path as the serial
//!   read-out (`render_metrics`) from the merged inputs.
//!
//! One caveat is inherited from the serial semantics: a zero-length
//! run segment (a zero-WCET task) would emit records *after* the
//! event that scheduled it while tagging them with an earlier
//! canonical position. Task WCETs in this codebase are strictly
//! positive (they come from positive utilizations over positive
//! periods), so segment ends always fall strictly later than the event
//! that planned them.
//!
//! In [`IsolationMode::Shared`] there is no regulation and therefore
//! no barrier at all: shards run to the horizon fully independently.
//!
//! Errors (an overcommitted dynamic reallocation) are replicated:
//! every shard validates every reallocation against the same
//! deterministically-ordered allocation table, so a failing
//! reallocation fails identically in all shards and the run reports
//! the serial error.

use super::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};

/// A partition of the simulated cores into independently-advancing
/// groups for [`HypervisorSim::run_sharded_with`]. Any partition is
/// valid (cores couple only through the regulation barrier, which is
/// group-structure-independent); the choice affects load balance, not
/// results — pinned by the conformance suite's random-partition
/// property.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorePartition {
    groups: Vec<Vec<usize>>,
}

impl CorePartition {
    /// One group per core — the maximally parallel partition, and the
    /// default of [`HypervisorSim::run_sharded`].
    pub fn singletons(cores: usize) -> Self {
        CorePartition {
            groups: (0..cores).map(|c| vec![c]).collect(),
        }
    }

    /// At most `groups` contiguous core ranges of near-equal size.
    pub fn chunks(cores: usize, groups: usize) -> Self {
        if cores == 0 {
            return CorePartition { groups: Vec::new() };
        }
        let groups = groups.clamp(1, cores);
        let per = cores.div_ceil(groups);
        CorePartition {
            groups: (0..cores)
                .collect::<Vec<_>>()
                .chunks(per)
                .map(<[usize]>::to_vec)
                .collect(),
        }
    }

    /// An explicit grouping. Group members are normalized to ascending
    /// order (the refill phases iterate a shard's cores ascending, as
    /// the serial refiller does); validity against a concrete
    /// simulation — every core exactly once, no empty group — is
    /// checked when a run starts.
    pub fn from_groups(groups: Vec<Vec<usize>>) -> Self {
        let mut groups = groups;
        for group in &mut groups {
            group.sort_unstable();
        }
        CorePartition { groups }
    }

    /// The core groups, each ascending.
    pub fn groups(&self) -> &[Vec<usize>] {
        &self.groups
    }

    /// Checks that the groups are a partition of `0..cores`.
    fn validate(&self, cores: usize) -> Result<(), SimError> {
        let mut seen = vec![false; cores];
        for group in &self.groups {
            if group.is_empty() {
                return Err(SimError::InvalidPartition {
                    detail: "partition contains an empty group".into(),
                });
            }
            for &core in group {
                if core >= cores {
                    return Err(SimError::InvalidPartition {
                        detail: format!("core {core} is out of range (simulation has {cores})"),
                    });
                }
                if seen[core] {
                    return Err(SimError::InvalidPartition {
                        detail: format!("core {core} appears twice"),
                    });
                }
                seen[core] = true;
            }
        }
        if let Some(missing) = seen.iter().position(|&s| !s) {
            return Err(SimError::InvalidPartition {
                detail: format!("core {missing} is missing from the partition"),
            });
        }
        Ok(())
    }
}

/// The shared state of one barrier-synchronized worker crew.
struct BarrierLoop<'a> {
    windows: u64,
    period: SimDuration,
    horizon: SimTime,
    barrier: &'a Barrier,
    /// Earliest window in which any shard failed (`u64::MAX` = none).
    /// Workers may observe a failure raised by a worker already one
    /// window ahead of them, so the exit test must be *window-bound* —
    /// "leave after the barrier of the failing window", which every
    /// worker still reaches — not a bare flag, or the early observer
    /// would leave one barrier short and strand the others.
    failed_window: &'a AtomicU64,
    error: &'a Mutex<Option<(usize, SimError)>>,
}

impl BarrierLoop<'_> {
    /// Advances `shards` (global indices `base..`) through every
    /// regulation window and the final drain, recording one wake count
    /// per shard per window into `woken`.
    fn run(&self, shards: &mut [HypervisorSim], woken: &mut [Vec<usize>], base: usize) {
        for w in 1..=self.windows {
            let boundary = SimTime(self.period.as_ns() * w);
            for (i, (shard, wok)) in shards.iter_mut().zip(woken.iter_mut()).enumerate() {
                match shard.advance(Some(boundary), self.horizon) {
                    Ok(()) => wok.push(shard.barrier_refill(boundary)),
                    Err(e) => self.record_error(base + i, w, e),
                }
            }
            // The barrier orders every shard's pre-boundary work before
            // any shard's next window. An error raised in window w' is
            // published before its raiser arrives at barrier w', so
            // after barrier w every worker sees every failure with
            // w' <= w — and exits — while a failure observed early
            // (w' > w: the raiser ran ahead) keeps everyone marching
            // to barrier w', where the raiser is provably waiting.
            self.barrier.wait();
            if self.failed_window.load(Ordering::Acquire) <= w {
                return;
            }
        }
        // Past the last barrier there is nothing left to rendezvous
        // for: each worker drains and flushes its own shards.
        for (i, shard) in shards.iter_mut().enumerate() {
            match shard.advance(None, self.horizon) {
                Ok(()) => shard.finish(self.horizon),
                Err(e) => {
                    self.record_error(base + i, u64::MAX, e);
                    return;
                }
            }
        }
    }

    /// Keeps the error of the lowest-indexed failing shard (all shards
    /// fail identically — see the module docs — so this is belt and
    /// braces for determinism, not semantics).
    fn record_error(&self, shard: usize, window: u64, e: SimError) {
        if let Ok(mut slot) = self.error.lock() {
            if slot.as_ref().is_none_or(|(s, _)| shard < *s) {
                *slot = Some((shard, e));
            }
        }
        self.failed_window.fetch_min(window, Ordering::AcqRel);
    }
}

impl HypervisorSim {
    /// Runs the simulation sharded one-group-per-core over `threads`
    /// OS threads and returns a report **bit-identical** to
    /// [`HypervisorSim::run`] — same misses, same counters, same
    /// float-for-float response times (only the wall-clock
    /// `handler_overheads` differ, as they do between any two runs).
    ///
    /// # Errors
    ///
    /// See [`HypervisorSim::run`].
    pub fn run_sharded(self, threads: usize) -> Result<SimReport, SimError> {
        let partition = CorePartition::singletons(self.cores.len());
        self.run_sharded_with(&partition, threads)
    }

    /// [`HypervisorSim::run_sharded`] with an explicit core partition.
    ///
    /// # Errors
    ///
    /// See [`HypervisorSim::run`]; additionally
    /// [`SimError::InvalidPartition`] if `partition` is not a
    /// partition of this simulation's cores.
    pub fn run_sharded_with(
        self,
        partition: &CorePartition,
        threads: usize,
    ) -> Result<SimReport, SimError> {
        Ok(self.run_partitioned(partition, threads)?.0)
    }

    /// Sharded [`HypervisorSim::run_traced`]: the returned trace is
    /// bit-identical to the serial one — same records, same order,
    /// same ring eviction.
    ///
    /// # Errors
    ///
    /// See [`HypervisorSim::run_sharded`].
    pub fn run_traced_sharded(
        self,
        threads: usize,
    ) -> Result<(SimReport, Vec<(SimTime, TraceEvent)>), SimError> {
        let partition = CorePartition::singletons(self.cores.len());
        self.run_traced_sharded_with(&partition, threads)
    }

    /// [`HypervisorSim::run_traced_sharded`] with an explicit core
    /// partition.
    ///
    /// # Errors
    ///
    /// See [`HypervisorSim::run_sharded_with`].
    pub fn run_traced_sharded_with(
        self,
        partition: &CorePartition,
        threads: usize,
    ) -> Result<(SimReport, Vec<(SimTime, TraceEvent)>), SimError> {
        let (report, observation) = self.run_partitioned(partition, threads)?;
        Ok((report, observation.trace))
    }

    /// Sharded [`HypervisorSim::run_observed`]: trace, drop count and
    /// metrics registry are all bit-identical to the serial ones.
    ///
    /// # Errors
    ///
    /// See [`HypervisorSim::run_sharded`].
    pub fn run_observed_sharded(
        self,
        threads: usize,
    ) -> Result<(SimReport, SimObservation), SimError> {
        let partition = CorePartition::singletons(self.cores.len());
        self.run_observed_sharded_with(&partition, threads)
    }

    /// [`HypervisorSim::run_observed_sharded`] with an explicit core
    /// partition.
    ///
    /// # Errors
    ///
    /// See [`HypervisorSim::run_sharded_with`].
    pub fn run_observed_sharded_with(
        self,
        partition: &CorePartition,
        threads: usize,
    ) -> Result<(SimReport, SimObservation), SimError> {
        self.run_partitioned(partition, threads)
    }

    /// The sharded engine: clone-and-restrict, barrier loop, merge.
    fn run_partitioned(
        mut self,
        partition: &CorePartition,
        threads: usize,
    ) -> Result<(SimReport, SimObservation), SimError> {
        partition.validate(self.cores.len())?;
        if self.cores.is_empty() {
            // Degenerate: nothing to shard; the serial path is exact.
            let report = self.run_inner()?;
            let metrics = self.collect_metrics(&report);
            let observation = SimObservation {
                trace: self.trace.iter().map(|r| (r.time, r.payload)).collect(),
                trace_dropped: self.trace.dropped(),
                metrics,
            };
            return Ok((report, observation));
        }

        let horizon = SimTime::ZERO + self.config.horizon;
        let period = self.config.regulation_period;
        // One barrier per refill the serial run would execute: the
        // refiller first fires at `period` and re-arms while at or
        // before the horizon.
        let windows = if self.config.isolation == IsolationMode::Isolated {
            self.config.horizon.as_ns() / period.as_ns()
        } else {
            0
        };

        let groups = partition.groups();
        let shard_count = groups.len();
        let mut shards: Vec<HypervisorSim> =
            groups.iter().map(|g| self.shard_clone(g)).collect();
        let mut woken: Vec<Vec<usize>> = vec![Vec::with_capacity(windows as usize); shard_count];

        let worker_count = threads.clamp(1, shard_count);
        let chunk = shard_count.div_ceil(worker_count);
        let barrier = Barrier::new(shard_count.div_ceil(chunk));
        let failed_window = AtomicU64::new(u64::MAX);
        let error: Mutex<Option<(usize, SimError)>> = Mutex::new(None);
        let crew = BarrierLoop {
            windows,
            period,
            horizon,
            barrier: &barrier,
            failed_window: &failed_window,
            error: &error,
        };
        std::thread::scope(|s| {
            for (index, (shard_chunk, woken_chunk)) in shards
                .chunks_mut(chunk)
                .zip(woken.chunks_mut(chunk))
                .enumerate()
            {
                let crew = &crew;
                s.spawn(move || crew.run(shard_chunk, woken_chunk, index * chunk));
            }
        });
        if let Ok(Some((_, e))) = error.into_inner() {
            return Err(e);
        }

        // Coordinator stream: one `Refill` record per barrier, from
        // the summed per-shard wake counts, ring-capped like any other
        // emission stream. Its tag subkey slots it between the
        // barrier's phase-0 (suspend) and phase-2 (unthrottle) record
        // lanes — where the serial refill handler emits it.
        let capacity = self.config.trace_capacity;
        let mut refill_records: VecDeque<ShardTraceRecord> = VecDeque::new();
        for w in 1..=windows {
            let woken_total: usize = woken.iter().map(|per| per[(w - 1) as usize]).sum();
            if capacity == 0 {
                continue;
            }
            if refill_records.len() == capacity {
                refill_records.pop_front();
            }
            refill_records.push_back(ShardTraceRecord {
                time: SimTime(period.as_ns() * w),
                priority: PRIO_REFILL,
                key: REFILL_KEY,
                subkey: TAG_SPAN,
                order: w,
                event: TraceEvent::Refill { woken: woken_total },
            });
        }

        let reports: Vec<SimReport> = shards.iter_mut().map(HypervisorSim::build_report).collect();
        let report = self.merged_report(&shards, reports);
        let (trace, trace_recorded, trace_dropped) =
            merged_trace(&mut shards, refill_records, windows, capacity);

        let mut regulator = shards[0].regulator.clone();
        for shard in &shards[1..] {
            regulator.merge_stats(&shard.regulator);
        }
        let mut fault_stats = FaultStats::default();
        for shard in &shards {
            fault_stats.absorb(&shard.fault_stats);
        }
        let metrics = Self::render_metrics(
            &self.config,
            &report,
            trace_recorded,
            trace_dropped,
            &regulator,
            self.fault_plan.is_some().then_some(fault_stats),
        );
        let observation = SimObservation {
            trace,
            trace_dropped,
            metrics,
        };
        Ok((report, observation))
    }

    /// A clone of this (not-yet-started) simulation restricted to one
    /// core group: scope set, tagged trace ring armed, and the event
    /// population seeded under that scope.
    fn shard_clone(&self, group: &[usize]) -> HypervisorSim {
        let mut shard = self.clone();
        let mut local = vec![false; self.cores.len()];
        for &core in group {
            local[core] = true;
        }
        shard.own = group.to_vec();
        shard.scope = Some(ShardScope { local });
        shard.tagged = Some(TaggedRing::new(self.config.trace_capacity));
        shard.seed_events();
        shard
    }

    /// Merges per-shard reports in fixed core-/key-order (see the
    /// module docs for why each field merge is exact).
    fn merged_report(&self, shards: &[HypervisorSim], reports: Vec<SimReport>) -> SimReport {
        let task_order: HashMap<TaskId, usize> = self
            .tasks
            .iter()
            .enumerate()
            .map(|(i, t)| (t.id, i))
            .collect();
        let mut merged = SimReport {
            core_times: vec![crate::energy::CoreTime::default(); self.cores.len()],
            horizon_ms: self.config.horizon.as_ms(),
            ..SimReport::default()
        };
        for (shard, mut rep) in shards.iter().zip(reports) {
            merged.deadline_misses.append(&mut rep.deadline_misses);
            merged.jobs_completed += rep.jobs_completed;
            merged.jobs_released += rep.jobs_released;
            merged.throttle_events += rep.throttle_events;
            merged.context_switches += rep.context_switches;
            for (kind, stats) in &rep.handler_overheads {
                merged
                    .handler_overheads
                    .entry(*kind)
                    .or_default()
                    .merge(stats);
            }
            merged.response_times.extend(rep.response_times);
            merged.supply_logs.extend(rep.supply_logs);
            for &core in &shard.own {
                merged.core_times[core] = rep.core_times[core];
            }
        }
        // Serial miss order is the pop order of `DeadlineCheck` events:
        // `(deadline, task key)`, with exact ties (same task, same
        // deadline) in shard-local — i.e. serial — order, preserved
        // here because the sort is stable and such ties never span
        // shards.
        merged
            .deadline_misses
            .sort_by_key(|m| (m.deadline, task_order.get(&m.task).copied().unwrap_or(usize::MAX)));
        merged
    }
}

/// Merges the per-shard tagged rings and the coordinator's refill
/// stream into the exact serial trace: sort by canonical tag, keep the
/// newest `capacity`. Returns `(trace, recorded, dropped)`.
fn merged_trace(
    shards: &mut [HypervisorSim],
    refill_records: VecDeque<ShardTraceRecord>,
    refill_emitted: u64,
    capacity: usize,
) -> (Vec<(SimTime, TraceEvent)>, u64, u64) {
    let mut emitted = refill_emitted;
    let mut all: Vec<ShardTraceRecord> = refill_records.into_iter().collect();
    for shard in shards.iter_mut() {
        if let Some(ring) = shard.tagged.take() {
            emitted += ring.emitted;
            all.extend(ring.ring);
        }
    }
    all.sort_by_key(ShardTraceRecord::sort_key);
    let kept = (capacity as u64).min(emitted) as usize;
    let tail = all.split_off(all.len().saturating_sub(kept));
    let dropped = emitted - tail.len() as u64;
    let trace = tail.into_iter().map(|r| (r.time, r.event)).collect();
    (trace, kept as u64, dropped)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singleton_partition_covers_every_core() {
        let p = CorePartition::singletons(4);
        assert_eq!(p.groups().len(), 4);
        assert!(p.validate(4).is_ok());
    }

    #[test]
    fn chunked_partition_is_valid_and_balanced() {
        let p = CorePartition::chunks(10, 3);
        assert!(p.validate(10).is_ok());
        assert_eq!(p.groups().len(), 3);
        assert!(p.groups().iter().all(|g| g.len() <= 4));
        // Degenerate shapes.
        assert_eq!(CorePartition::chunks(0, 3).groups().len(), 0);
        assert_eq!(CorePartition::chunks(2, 9).groups().len(), 2);
    }

    #[test]
    fn from_groups_normalizes_and_validates() {
        let p = CorePartition::from_groups(vec![vec![2, 0], vec![1]]);
        assert_eq!(p.groups()[0], vec![0, 2]);
        assert!(p.validate(3).is_ok());

        let dup = CorePartition::from_groups(vec![vec![0, 1], vec![1]]);
        assert!(matches!(
            dup.validate(2),
            Err(SimError::InvalidPartition { .. })
        ));
        let missing = CorePartition::from_groups(vec![vec![0]]);
        assert!(matches!(
            missing.validate(2),
            Err(SimError::InvalidPartition { .. })
        ));
        let out_of_range = CorePartition::from_groups(vec![vec![0, 5]]);
        assert!(matches!(
            out_of_range.validate(2),
            Err(SimError::InvalidPartition { .. })
        ));
        let empty_group = CorePartition::from_groups(vec![vec![0], vec![]]);
        assert!(matches!(
            empty_group.validate(1),
            Err(SimError::InvalidPartition { .. })
        ));
    }
}
