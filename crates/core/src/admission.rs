//! The admission-control service (§4.2): on-line AUB schedulability tests
//! for dynamically arriving aperiodic and periodic tasks.
//!
//! The controller keeps the [`UtilizationLedger`] of synthetic utilization,
//! the registry of *current* entries (admitted jobs whose deadlines have not
//! expired, plus per-task reservations), and the configured
//! [`LoadBalancer`]. An arrival is admitted iff, after tentatively adding
//! its contributions under the proposed placement, the AUB condition holds
//! for it **and every current entry** — the tentative contributions are
//! rolled back on rejection, leaving the ledger untouched.
//!
//! Strategy semantics:
//!
//! * **AC per task** (periodic tasks): the test runs once, at the task's
//!   first arrival, with [`Lifetime::Reserved`] contributions kept for the
//!   task's lifetime; later jobs release immediately. A task that fails its
//!   first test is rejected permanently (until
//!   [`AdmissionController::withdraw_task`]).
//! * **AC per job**: every job is tested with contributions expiring at the
//!   job's absolute deadline; rejected jobs are *skipped* (criterion C1).
//! * **Aperiodic tasks** are always tested per arrival — each aperiodic job
//!   is "an independent aperiodic task with one release" (§5) — regardless
//!   of the AC strategy.
//!
//! # Incremental bound maintenance
//!
//! The naive test is O(current set × visits) per arrival. This controller
//! instead caches each current entry's AUB sum `Σ_j f(U_{V_ij})` and keeps
//! a per-processor inverted index of the entries visiting it: every ledger
//! mutation flows through one funnel that delta-applies `f(U_new) −
//! f(U_old)` to exactly the entries listed under the *touched* processors.
//! `f` depends only on a processor's synthetic utilization, so an entry
//! visiting no touched processor has a provably unchanged sum — the
//! decision then costs O(candidate visits + touched entries). The original
//! scan survives as [`AdmissionController::system_schedulable_brute`] (see
//! [`AdmissionMode`]), serving as the differential-testing oracle
//! (`crates/core/tests/differential.rs`) and the ablation baseline
//! (`micro_admission` bench).
//!
//! # Examples
//!
//! ```
//! use rtcm_core::admission::{AdmissionController, Decision};
//! use rtcm_core::strategy::ServiceConfig;
//! use rtcm_core::task::{ProcessorId, TaskBuilder, TaskId};
//! use rtcm_core::time::{Duration, Time};
//!
//! let cfg: ServiceConfig = "J_N_N".parse()?;
//! let mut ac = AdmissionController::new(cfg, 2)?;
//!
//! let task = TaskBuilder::aperiodic(TaskId(0))
//!     .deadline(Duration::from_millis(100))
//!     .subtask(Duration::from_millis(10), ProcessorId(0), [])
//!     .build()?;
//!
//! match ac.handle_arrival(&task, 0, Time::ZERO)? {
//!     Decision::Accept { assignment, .. } => assert_eq!(assignment.len(), 1),
//!     Decision::Reject { .. } => unreachable!("an empty system admits a tiny task"),
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::aub::{aub_delta, aub_term, bound_lhs, BOUND_EPSILON};
use crate::balance::{Assignment, LoadBalancer};
use crate::ledger::{ContributionKey, Lifetime, UtilizationLedger};
use crate::reconfig::{HandoverReport, ReconfigPlan, TransitionStep};
use crate::strategy::{AcStrategy, InvalidConfigError, ServiceConfig};
use crate::task::{JobId, ProcessorId, TaskId, TaskSet, TaskSpec};
use crate::time::Time;

/// Sentinel job sequence number used for per-task reservations, so reserved
/// contribution keys can never collide with real job keys.
pub const RESERVED_SEQ: u64 = u64::MAX;

/// Job sequence numbers at or above this value are sentinels owned by the
/// controller ([`RESERVED_SEQ`] plus the per-drain ids handed out when a
/// reservation is converted to deadline-bound contributions during a
/// reconfiguration). Real jobs must stay below it — enforced at every
/// arrival entry point ([`AdmissionError::SentinelSequence`]); at one
/// drain per nanosecond the space still lasts decades.
pub const SENTINEL_SEQ_FLOOR: u64 = u64::MAX - (1 << 40);

/// How the controller evaluates the system-wide AUB condition per decision.
///
/// Both modes keep the same bookkeeping (inverted index + cached per-entry
/// sums), so switching modes mid-flight is free; the mode only selects the
/// decision procedure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum AdmissionMode {
    /// Maintain each current entry's AUB sum `Σ_j f(U_{V_ij})` incrementally
    /// through the per-processor inverted index: a ledger mutation touching
    /// processor `p` delta-applies `f(U_new) − f(U_old)` to exactly the
    /// entries visiting `p`; every other entry's sum is provably unchanged.
    /// A decision then costs O(candidate visits + touched entries) instead
    /// of O(current set × visits).
    #[default]
    Incremental,
    /// Re-evaluate every current entry's bound per decision — the original
    /// O(current set × visits) scan, kept alive as the differential-testing
    /// oracle and the ablation baseline (see
    /// [`AdmissionController::system_schedulable_brute`]).
    BruteForce,
}

impl fmt::Display for AdmissionMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AdmissionMode::Incremental => "incremental",
            AdmissionMode::BruteForce => "brute-force",
        })
    }
}

/// Outcome of an admission test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decision {
    /// Release the job under `assignment`.
    Accept {
        /// Placement to release under.
        assignment: Assignment,
        /// False when a per-task-admitted periodic task's later job passes
        /// through without a new test.
        newly_admitted: bool,
    },
    /// Do not release the job.
    Reject {
        /// Why the job was rejected.
        reason: RejectReason,
    },
}

impl Decision {
    /// Returns true for [`Decision::Accept`].
    #[must_use]
    pub fn is_accept(&self) -> bool {
        matches!(self, Decision::Accept { .. })
    }

    /// The assignment, if accepted.
    #[must_use]
    pub fn assignment(&self) -> Option<&Assignment> {
        match self {
            Decision::Accept { assignment, .. } => Some(assignment),
            Decision::Reject { .. } => None,
        }
    }
}

/// Why an arrival was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RejectReason {
    /// Admitting the arrival would violate the AUB condition for it or for
    /// a current task.
    Unschedulable,
    /// The owning periodic task already failed its per-task admission test.
    TaskPreviouslyRejected,
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RejectReason::Unschedulable => "unschedulable under the AUB condition",
            RejectReason::TaskPreviouslyRejected => "task was rejected at its first arrival",
        })
    }
}

/// Errors for misuse of the admission controller (as opposed to legitimate
/// rejections, which are [`Decision::Reject`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionError {
    /// The task references a processor outside the deployment.
    UnknownProcessor {
        /// The offending processor.
        processor: ProcessorId,
        /// Processors available.
        processor_count: usize,
    },
    /// The same job was offered twice.
    DuplicateArrival {
        /// The duplicated job.
        job: JobId,
    },
    /// A caller-supplied assignment does not fit the task's chain.
    InvalidAssignment {
        /// The owning task.
        task: TaskId,
    },
    /// The job's sequence number lies in the controller-owned sentinel
    /// range at or above [`SENTINEL_SEQ_FLOOR`] (reservation and drain
    /// ids); admitting it could collide with handover bookkeeping.
    SentinelSequence {
        /// The offending job.
        job: JobId,
    },
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::UnknownProcessor { processor, processor_count } => {
                write!(f, "task references {processor} outside 0..{processor_count}")
            }
            AdmissionError::DuplicateArrival { job } => {
                write!(f, "job {job} was already offered for admission")
            }
            AdmissionError::InvalidAssignment { task } => {
                write!(f, "assignment does not match the subtask chain of {task}")
            }
            AdmissionError::SentinelSequence { job } => {
                write!(
                    f,
                    "job {job} uses a sequence number in the controller-owned sentinel range \
                     (>= {SENTINEL_SEQ_FLOOR})"
                )
            }
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Counters exposed by the controller (diagnostics and the evaluation
/// harnesses).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct AcStats {
    /// Arrivals offered (excluding pass-throughs of reserved tasks).
    pub tested: u64,
    /// Arrivals admitted by a fresh test.
    pub admitted: u64,
    /// Arrivals rejected (either test failure or previously-rejected task).
    pub rejected: u64,
    /// Job releases that passed through on an existing per-task reservation.
    pub pass_throughs: u64,
    /// Idle-reset reports applied.
    pub reset_reports: u64,
    /// Total synthetic utilization released early by idle resetting.
    pub reset_utilization: f64,
}

#[derive(Debug, Clone)]
struct CurrentEntry {
    job: JobId,
    visits: Vec<ProcessorId>,
    /// Subtask contributions not yet removed by idle resetting. Entries at
    /// zero are provably complete and are skipped by the bound check.
    outstanding: usize,
    /// Registration generation, unique per [`register_entry`] call. Heap
    /// entries in `entry_expiry` carry the generation they were queued
    /// for, so an entry unregistered early (reservation reseeding converts
    /// entries in place) can never be aliased by a recycled slot when its
    /// stale heap entry finally surfaces.
    gen: u64,
}

/// The per-entry state the delta-application inner loop touches, kept in a
/// dense parallel array (16 bytes per slot) so a funnel pass stays cache
/// resident even with ten-thousand-entry current sets.
#[derive(Debug, Clone, Copy)]
struct HotEntry {
    /// Cached left-hand side of eq. 1 for this entry under the *current*
    /// ledger utilizations: `Σ_j f(U_{V_ij})` over the entry's visits.
    /// Maintained incrementally — when a ledger mutation moves processor
    /// `p` from `U_old` to `U_new`, every entry visiting `p` receives
    /// `multiplicity × (f(U_new) − f(U_old))`; entries not visiting any
    /// touched processor keep a bound sum that is exactly unchanged.
    cached_lhs: f64,
    /// True while `counted` and `cached_lhs` exceeds the bound; mirrored
    /// into the controller's `violating_count` so the incremental
    /// admission condition is a single integer comparison.
    violating: bool,
    /// Mirror of `outstanding > 0`: entries fully idle-reset are excluded
    /// from the admission condition.
    counted: bool,
}

impl HotEntry {
    fn is_violating(&self) -> bool {
        self.counted && self.cached_lhs > 1.0 + BOUND_EPSILON
    }
}

/// Index into the controller's entry slab. Slots are recycled through a
/// free list; the lazy registry-expiry heap guards against recycled-slot
/// aliasing with per-registration generation stamps (see
/// [`CurrentEntry::gen`]): a heap entry only unregisters the slot if the
/// generation still matches.
type EntryId = usize;

/// A read-only view of one current entry's AUB bookkeeping, exposed for
/// the design-time auditor (`rtcm_core::analysis::audit_controller`) and
/// the differential test harness.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EntryBound {
    /// The owning job (for reservations, the task's first admitted job).
    pub job: JobId,
    /// The incrementally maintained sum `Σ_j f(U_{V_ij})`.
    pub cached_lhs: f64,
    /// The same sum recomputed from scratch against the live ledger.
    pub fresh_lhs: f64,
    /// Subtask contributions not yet idle-reset; entries at zero are
    /// excluded from the admission condition.
    pub outstanding: usize,
}

/// The configurable admission-control component (with its co-located load
/// balancer, mirroring the paper's central Task Manager processor).
#[derive(Debug, Clone)]
pub struct AdmissionController {
    config: ServiceConfig,
    mode: AdmissionMode,
    ledger: UtilizationLedger,
    balancer: LoadBalancer,
    /// Slab of current entries, indexed by [`EntryId`]; `None` slots are
    /// recycled through `free_entries`. Dense storage keeps the
    /// delta-application inner loop free of hashing.
    entries: Vec<Option<CurrentEntry>>,
    /// Parallel hot array for `entries` (same indices); free slots hold
    /// stale values that are re-seeded on registration.
    hot: Vec<HotEntry>,
    free_entries: Vec<EntryId>,
    live_entries: usize,
    by_job: HashMap<JobId, EntryId>,
    /// Min-heap of (deadline, entry, generation) registry expiries, with
    /// lazy deletion: a popped record whose generation no longer matches
    /// the slot (the entry was unregistered early, e.g. converted into a
    /// reservation by a reconfiguration) is discarded.
    entry_expiry: BinaryHeap<Reverse<(Time, EntryId, u64)>>,
    reserved: HashMap<TaskId, EntryId>,
    rejected_tasks: HashSet<TaskId>,
    /// Inverted index: processor → entries visiting it, one record per
    /// visit (an entry visiting a processor twice appears twice, which
    /// makes a per-record delta application equivalent to multiplying by
    /// the visit multiplicity). The touched-set of any ledger mutation is
    /// read from here instead of scanning the whole current set; dense
    /// buckets keep that inner loop hash-free.
    proc_index: Vec<Vec<EntryId>>,
    /// Number of entries with `outstanding > 0` whose cached AUB sum
    /// exceeds `1 + BOUND_EPSILON`. The incremental admission condition is
    /// `violating_count == 0` (plus the candidate's own bound) — remote
    /// commits can legitimately push current entries over the bound, so
    /// this is not always zero.
    violating_count: usize,
    /// Reusable buffer for the funnel's touched-processor record (avoids a
    /// per-decision allocation on the hot path).
    scratch_touched: Vec<(usize, f64)>,
    /// Next sentinel sequence number for drained reservations, counting
    /// down from just below [`RESERVED_SEQ`]. Uniqueness keeps a drained
    /// reservation's registry entry and ledger keys from ever colliding
    /// with a later reservation (or drain) of the same task.
    next_drain_seq: u64,
    /// Source of registry-entry generation stamps (see
    /// [`CurrentEntry::gen`]).
    next_entry_gen: u64,
    last_expire: Time,
    stats: AcStats,
}

impl AdmissionController {
    /// Creates a controller for `processor_count` processors in the default
    /// [`AdmissionMode::Incremental`].
    ///
    /// # Errors
    ///
    /// Returns [`InvalidConfigError`] for the contradictory AC-per-task +
    /// IR-per-job combinations (§4.5).
    pub fn new(config: ServiceConfig, processor_count: usize) -> Result<Self, InvalidConfigError> {
        Self::with_mode(config, processor_count, AdmissionMode::default())
    }

    /// Creates a controller with an explicit [`AdmissionMode`].
    ///
    /// # Errors
    ///
    /// Returns [`InvalidConfigError`] for the contradictory AC-per-task +
    /// IR-per-job combinations (§4.5).
    pub fn with_mode(
        config: ServiceConfig,
        processor_count: usize,
        mode: AdmissionMode,
    ) -> Result<Self, InvalidConfigError> {
        config.validate()?;
        Ok(AdmissionController {
            config,
            mode,
            ledger: UtilizationLedger::new(processor_count),
            balancer: LoadBalancer::new(config.lb),
            entries: Vec::new(),
            hot: Vec::new(),
            free_entries: Vec::new(),
            live_entries: 0,
            by_job: HashMap::new(),
            entry_expiry: BinaryHeap::new(),
            reserved: HashMap::new(),
            rejected_tasks: HashSet::new(),
            proc_index: vec![Vec::new(); processor_count],
            violating_count: 0,
            scratch_touched: Vec::new(),
            next_drain_seq: RESERVED_SEQ - 1,
            next_entry_gen: 1,
            last_expire: Time::ZERO,
            stats: AcStats::default(),
        })
    }

    /// The active service configuration.
    #[must_use]
    pub fn config(&self) -> ServiceConfig {
        self.config
    }

    /// The active admission mode.
    #[must_use]
    pub fn mode(&self) -> AdmissionMode {
        self.mode
    }

    /// Switches the admission mode. Free at any point: both modes maintain
    /// the same incremental bookkeeping, the mode only selects the decision
    /// procedure.
    pub fn set_mode(&mut self, mode: AdmissionMode) {
        self.mode = mode;
    }

    /// Hot-swaps the full service configuration, executing the
    /// [`ReconfigPlan`] between the current and the target configuration
    /// (§5's run-time attribute modification, generalized to all three
    /// axes).
    ///
    /// The handover keeps every admitted job's ledger contributions — and
    /// therefore its AUB guarantee — across the swap:
    ///
    /// * **AC per-task → per-job** (*drain*): each reservation's
    ///   contributions are converted in place to deadline-bound entries
    ///   expiring at `now + deadline(task)`, the latest instant any job
    ///   released under the reservation can still be running toward its
    ///   deadline. In-flight jobs stay covered; the capacity frees once
    ///   they cannot exist anymore. Sticky per-task rejections are
    ///   cleared. Reservations of tasks absent from `tasks` have no known
    ///   deadline horizon and are withdrawn outright.
    /// * **AC per-job → per-task** (*reseed*): each periodic task with a
    ///   live current entry is re-reserved on its most recent placement,
    ///   guarded by the same system-wide AUB check an admission runs — a
    ///   reseed that would violate any current entry's bound is skipped
    ///   (the task is simply tested at its next arrival). Reseeds are
    ///   processed in ascending task-id order for determinism.
    /// * **IR swaps** need no ledger work (the strategy only selects which
    ///   completions get reported); **LB swaps** forget pinned plans.
    ///
    /// Validation is atomic: an invalid target (§4.5) returns an error
    /// with the controller untouched.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidConfigError`] for invalid target combinations.
    pub fn reconfigure(
        &mut self,
        target: ServiceConfig,
        now: Time,
        tasks: &TaskSet,
    ) -> Result<HandoverReport, InvalidConfigError> {
        let plan = ReconfigPlan::between(self.config, target)?;
        self.expire(now);
        let mut report = HandoverReport::new(self.config, target);
        for step in plan.steps().to_vec() {
            match step {
                TransitionStep::DrainReservations => {
                    self.drain_reservations(now, tasks, &mut report);
                    report.rejections_cleared = self.rejected_tasks.len();
                    self.rejected_tasks.clear();
                }
                TransitionStep::ReseedReservations => {
                    self.reseed_reservations(tasks, &mut report);
                }
                TransitionStep::SwapIr(_) => {}
                TransitionStep::SwapLb(lb) => {
                    report.pins_forgotten = self.balancer.set_strategy(lb);
                }
            }
        }
        self.config = target;
        report.entries_carried = self.live_entries;
        Ok(report)
    }

    /// AC per-task → per-job handover: convert every reservation into
    /// deadline-bound contributions under a fresh sentinel job id (so the
    /// reserved key space is immediately free for a later reseed), keeping
    /// utilization per processor exactly unchanged.
    fn drain_reservations(&mut self, now: Time, tasks: &TaskSet, report: &mut HandoverReport) {
        let mut drained: Vec<(TaskId, EntryId)> = self.reserved.drain().collect();
        drained.sort_by_key(|(task, _)| *task);
        for (task_id, eid) in drained {
            let Some(entry) = self.unregister_entry(eid) else { continue };
            let reserved_job = JobId::new(task_id, RESERVED_SEQ);
            let Some(task) = tasks.get(task_id) else {
                // No deadline horizon known: withdraw the reservation.
                self.mutate_ledger(|ledger| {
                    for (subtask, processor) in entry.visits.iter().enumerate() {
                        ledger.remove(*processor, ContributionKey::new(reserved_job, subtask));
                    }
                });
                report.reservations_withdrawn += 1;
                continue;
            };
            let deadline = now.saturating_add(task.deadline());
            self.next_drain_seq -= 1;
            let drained_job = JobId::new(task_id, self.next_drain_seq);
            self.mutate_ledger(|ledger| {
                for (subtask, processor) in entry.visits.iter().enumerate() {
                    if let Some(u) =
                        ledger.remove(*processor, ContributionKey::new(reserved_job, subtask))
                    {
                        ledger
                            .add(
                                *processor,
                                ContributionKey::new(drained_job, subtask),
                                u,
                                Lifetime::UntilDeadline(deadline),
                            )
                            .expect("drain ids are unique, so the key is free");
                    }
                }
            });
            let new_eid = self.register_entry(drained_job, entry.visits.clone());
            self.entry_expiry.push(Reverse((deadline, new_eid, self.entry(new_eid).gen)));
            report.reservations_drained += 1;
        }
    }

    /// AC per-job → per-task handover: re-reserve periodic tasks from
    /// their most recent live entry.
    ///
    /// The normal case is an *in-place conversion* — the exact inverse of
    /// [`AdmissionController::drain_reservations`]: the latest intact
    /// entry's deadline-bound contributions are re-keyed as the task's
    /// reservation, a net-zero utilization move, guarded by the same
    /// system-wide AUB condition an admission checks (a violated system —
    /// e.g. under un-tested remote load — refuses to extend guarantees
    /// indefinitely, and the task is simply re-tested at its next
    /// arrival). Entries already partially freed by idle resetting cannot
    /// be converted exactly, so those tasks reseed *additively*: the full
    /// reservation is added on top of the remaining contributions, under
    /// the same guard. Candidates are processed in ascending task-id
    /// order for determinism.
    fn reseed_reservations(&mut self, tasks: &TaskSet, report: &mut HandoverReport) {
        // Latest live entry per periodic task = the placement evidence. A
        // drained leftover from an earlier per-task phase (sentinel seq)
        // outranks real jobs: it carries the old reservation's placement.
        let mut latest: HashMap<TaskId, (u64, EntryId)> = HashMap::new();
        for (eid, entry) in self.entries.iter().enumerate() {
            let Some(entry) = entry else { continue };
            if !tasks.get(entry.job.task).is_some_and(TaskSpec::is_periodic) {
                continue;
            }
            let slot = latest.entry(entry.job.task).or_insert((entry.job.seq, eid));
            if entry.job.seq >= slot.0 {
                *slot = (entry.job.seq, eid);
            }
        }
        let mut candidates: Vec<(TaskId, EntryId)> =
            latest.into_iter().map(|(task, (_, eid))| (task, eid)).collect();
        candidates.sort_by_key(|(task, _)| *task);

        for (task_id, eid) in candidates {
            if self.reserved.contains_key(&task_id) {
                continue;
            }
            let entry = self.entry(eid);
            let visits = entry.visits.clone();
            let old_job = entry.job;
            let task = tasks.get(task_id).expect("filtered on membership above");
            let reserved_job = JobId::new(task_id, RESERVED_SEQ);
            // Intact = convertible: nothing idle-reset yet *and* every
            // ledger key actually present (a remote-commit collision can
            // leave an entry with fewer keys than visits). The
            // utilization-neutrality premise of the up-front AUB guard
            // below rests on this, so it is checked, not assumed.
            let intact = entry.outstanding == visits.len()
                && visits.iter().enumerate().all(|(subtask, processor)| {
                    self.ledger
                        .contribution(*processor, ContributionKey::new(old_job, subtask))
                        .is_some()
                });

            if intact {
                // The conversion is utilization-neutral, so the guard can
                // run up front and no rollback path is needed. Its stale
                // expiry-heap record is discarded by the generation check.
                if !self.system_schedulable_with(&visits) {
                    report.reseeds_skipped += 1;
                    continue;
                }
                self.unregister_entry(eid);
                self.mutate_ledger(|ledger| {
                    for (subtask, processor) in visits.iter().enumerate() {
                        let u = ledger
                            .remove(*processor, ContributionKey::new(old_job, subtask))
                            .expect("intact entries hold every contribution (checked above)");
                        ledger
                            .add(
                                *processor,
                                ContributionKey::new(reserved_job, subtask),
                                u,
                                Lifetime::Reserved,
                            )
                            .expect("the reserved key space was free");
                    }
                });
                let new_eid = self.register_entry(old_job, visits);
                self.reserved.insert(task_id, new_eid);
                report.reservations_reseeded += 1;
                continue;
            }

            // Additive fallback: the partial entry keeps its remaining
            // contributions until its deadline; the reservation is added
            // fresh, guarded by the post-addition system-wide check.
            self.ledger.begin_touch_epoch();
            for (subtask, processor) in visits.iter().enumerate() {
                self.ledger
                    .add(
                        *processor,
                        ContributionKey::new(reserved_job, subtask),
                        task.subtask_utilization(subtask),
                        Lifetime::Reserved,
                    )
                    .expect("the reserved key space was free");
            }
            self.settle_epoch();
            if self.system_schedulable_with(&visits) {
                let new_eid = self.register_entry(reserved_job, visits);
                self.reserved.insert(task_id, new_eid);
                report.reservations_reseeded += 1;
            } else {
                self.mutate_ledger(|ledger| {
                    for (subtask, processor) in visits.iter().enumerate() {
                        ledger.remove(*processor, ContributionKey::new(reserved_job, subtask));
                    }
                });
                report.reseeds_skipped += 1;
            }
        }
    }

    /// Read access to the synthetic-utilization ledger.
    #[must_use]
    pub fn ledger(&self) -> &UtilizationLedger {
        &self.ledger
    }

    /// Accumulated counters.
    #[must_use]
    pub fn stats(&self) -> AcStats {
        self.stats
    }

    /// Number of current registry entries (jobs + reservations).
    #[must_use]
    pub fn current_entries(&self) -> usize {
        self.live_entries
    }

    /// Number of per-task reservations held.
    #[must_use]
    pub fn reserved_tasks(&self) -> usize {
        self.reserved.len()
    }

    /// Handles the arrival of job `seq` of `task` at time `now`: proposes a
    /// placement via the configured load balancer and runs the admission
    /// test per the configured strategy.
    ///
    /// # Errors
    ///
    /// Returns [`AdmissionError`] on caller misuse (unknown processors,
    /// duplicate jobs); legitimate refusals come back as
    /// [`Decision::Reject`].
    pub fn handle_arrival(
        &mut self,
        task: &TaskSpec,
        seq: u64,
        now: Time,
    ) -> Result<Decision, AdmissionError> {
        Self::check_seq(task.id(), seq)?;
        self.check_processors(task)?;

        if self.uses_reservation(task) {
            // Reservation path (pass-throughs, relocation): funnel-per-step.
            self.expire(now);
            if let Some(decision) = self.try_pass_through(task)? {
                return Ok(decision);
            }
            let assignment = self.balancer.assignment_for(task, &self.ledger);
            return self.admit_with_checked(task, seq, now, assignment);
        }

        // Hot path (aperiodic and per-job arrivals): expiry and the
        // tentative placement share one touch epoch, so each touched
        // processor's entries receive a single *net* `f` delta.
        self.ledger.begin_touch_epoch();
        self.expire_in_epoch(now);
        let assignment = self.balancer.assignment_for(task, &self.ledger);
        self.admit_in_open_epoch(task, seq, now, assignment)
    }

    /// Like [`AdmissionController::handle_arrival`] but with a
    /// caller-supplied placement (used by the runtime to time the balancer
    /// and the test separately, and by tests to force placements).
    ///
    /// # Errors
    ///
    /// As [`AdmissionController::handle_arrival`], plus
    /// [`AdmissionError::InvalidAssignment`] if the placement does not cover
    /// the task's chain with declared candidates.
    pub fn admit_with(
        &mut self,
        task: &TaskSpec,
        seq: u64,
        now: Time,
        assignment: Assignment,
    ) -> Result<Decision, AdmissionError> {
        Self::check_seq(task.id(), seq)?;
        self.expire(now);
        self.check_processors(task)?;
        if !assignment.is_valid_for(task) {
            return Err(AdmissionError::InvalidAssignment { task: task.id() });
        }
        if let Some(decision) = self.try_pass_through(task)? {
            return Ok(decision);
        }
        self.admit_with_checked(task, seq, now, assignment)
    }

    /// Proposes a placement for `task` without running the admission test
    /// (the paper's "Location" call from AC to LB).
    pub fn propose_assignment(&mut self, task: &TaskSpec) -> Assignment {
        self.balancer.assignment_for(task, &self.ledger)
    }

    /// Records a job admitted by a *peer* controller, without running the
    /// admission test — the synchronization primitive of a **distributed**
    /// AC architecture (§3 discusses this as the alternative to the paper's
    /// centralized design: "the AC components on multiple processors may
    /// need to coordinate and synchronize with each other").
    ///
    /// Contributions are entered with the job's real deadline so expiry
    /// stays consistent across peers. Duplicate commits are ignored (the
    /// peer may re-broadcast).
    ///
    /// # Errors
    ///
    /// Returns [`AdmissionError`] if the assignment does not fit the task
    /// or references unknown processors.
    pub fn apply_remote_commit(
        &mut self,
        task: &TaskSpec,
        seq: u64,
        arrival: Time,
        assignment: &Assignment,
    ) -> Result<(), AdmissionError> {
        Self::check_seq(task.id(), seq)?;
        self.check_processors(task)?;
        if !assignment.is_valid_for(task) {
            return Err(AdmissionError::InvalidAssignment { task: task.id() });
        }
        let job = JobId::new(task.id(), seq);
        if self.by_job.contains_key(&job) {
            return Ok(()); // idempotent: already known
        }
        let deadline = arrival.saturating_add(task.deadline());
        if deadline <= self.ledger_now_floor() {
            return Ok(()); // stale commit: already past its deadline
        }
        self.mutate_ledger(|ledger| {
            for (subtask, processor) in assignment.iter() {
                let key = ContributionKey::new(job, subtask);
                // A collision here means the peer double-assigned; keep the
                // first contribution (idempotence beats precision for views).
                let _ = ledger.add(
                    processor,
                    key,
                    task.subtask_utilization(subtask),
                    Lifetime::UntilDeadline(deadline),
                );
            }
        });
        let eid = self.register_entry(job, assignment.as_slice().to_vec());
        self.entry_expiry.push(Reverse((deadline, eid, self.entry(eid).gen)));
        Ok(())
    }

    /// The most recent expiry point processed; remote commits whose
    /// deadlines are already behind it are dropped as stale. (Late
    /// insertions past this floor would still self-heal at the next
    /// [`AdmissionController::expire`] call; the floor just avoids the
    /// churn.)
    fn ledger_now_floor(&self) -> Time {
        self.last_expire
    }

    /// Applies an idle-reset report from processor `processor`: removes the
    /// listed completed contributions from the ledger. Returns the total
    /// synthetic utilization freed. Keys already expired are ignored.
    pub fn apply_idle_reset(&mut self, processor: ProcessorId, keys: &[ContributionKey]) -> f64 {
        self.ledger.begin_touch_epoch();
        let mut freed = 0.0;
        for key in keys {
            let Some(u) = self.ledger.remove(processor, *key) else { continue };
            freed += u;
            if let Some(&eid) = self.by_job.get(&key.job) {
                if let Some(entry) = self.entries[eid].as_mut() {
                    entry.outstanding = entry.outstanding.saturating_sub(1);
                    if entry.outstanding == 0 {
                        // Provably complete: excluded from the admission
                        // condition from here on.
                        let hot = &mut self.hot[eid];
                        hot.counted = false;
                        Self::sync_violating(hot, &mut self.violating_count);
                    }
                }
            }
        }
        self.settle_epoch();
        self.stats.reset_reports += 1;
        self.stats.reset_utilization += freed;
        freed
    }

    /// Removes expired jobs from the current set (`S(t)`); called
    /// automatically at every arrival, and callable eagerly.
    pub fn expire(&mut self, now: Time) {
        self.ledger.begin_touch_epoch();
        self.expire_in_epoch(now);
        self.settle_epoch();
    }

    /// [`AdmissionController::expire`] without epoch bracketing, for
    /// callers that fold expiry into a larger touch epoch. The caller owns
    /// settling the epoch on every path out.
    fn expire_in_epoch(&mut self, now: Time) {
        self.last_expire = self.last_expire.max(now);
        self.ledger.expire_until(now);
        while let Some(&Reverse((deadline, eid, gen))) = self.entry_expiry.peek() {
            if deadline > now {
                break;
            }
            self.entry_expiry.pop();
            // Lazy deletion: a generation mismatch means the entry left
            // the registry early (e.g. converted into a reservation) and
            // the slot may have been recycled — skip the stale record.
            if self.entries.get(eid).and_then(Option::as_ref).is_some_and(|e| e.gen == gen) {
                self.unregister_entry(eid);
            }
        }
    }

    /// Withdraws a periodic task entirely: releases its reservation (if
    /// any), forgets its pinned placement and clears a previous rejection,
    /// allowing re-admission.
    pub fn withdraw_task(&mut self, task: TaskId) {
        if let Some(eid) = self.reserved.remove(&task) {
            if let Some(entry) = self.unregister_entry(eid) {
                let reserved_job = JobId::new(task, RESERVED_SEQ);
                self.mutate_ledger(|ledger| {
                    for (subtask, processor) in entry.visits.iter().enumerate() {
                        ledger.remove(*processor, ContributionKey::new(reserved_job, subtask));
                    }
                });
            }
        }
        self.rejected_tasks.remove(&task);
        self.balancer.forget_task(task);
    }

    /// True if `task` holds a per-task reservation.
    #[must_use]
    pub fn is_reserved(&self, task: TaskId) -> bool {
        self.reserved.contains_key(&task)
    }

    /// True if `task` was permanently rejected by a per-task test.
    #[must_use]
    pub fn is_rejected(&self, task: TaskId) -> bool {
        self.rejected_tasks.contains(&task)
    }

    /// Rejects caller-supplied sequence numbers inside the sentinel range
    /// the controller owns for reservations and drained-reservation ids —
    /// without this, a hostile seq near `u64::MAX` could collide with
    /// handover bookkeeping mid-reconfiguration.
    fn check_seq(task: TaskId, seq: u64) -> Result<(), AdmissionError> {
        if seq >= SENTINEL_SEQ_FLOOR {
            return Err(AdmissionError::SentinelSequence { job: JobId::new(task, seq) });
        }
        Ok(())
    }

    fn check_processors(&self, task: &TaskSpec) -> Result<(), AdmissionError> {
        let count = self.ledger.processor_count();
        for sub in task.subtasks() {
            for candidate in sub.candidates() {
                if candidate.index() >= count {
                    return Err(AdmissionError::UnknownProcessor {
                        processor: candidate,
                        processor_count: count,
                    });
                }
            }
        }
        Ok(())
    }

    fn uses_reservation(&self, task: &TaskSpec) -> bool {
        task.is_periodic() && self.config.ac == AcStrategy::PerTask
    }

    /// Pre-test short-circuits for per-task periodic tasks: pass-through on
    /// an existing reservation, immediate reject after an earlier failure.
    fn try_pass_through(&mut self, task: &TaskSpec) -> Result<Option<Decision>, AdmissionError> {
        if !self.uses_reservation(task) {
            return Ok(None);
        }
        if self.rejected_tasks.contains(&task.id()) {
            self.stats.rejected += 1;
            return Ok(Some(Decision::Reject { reason: RejectReason::TaskPreviouslyRejected }));
        }
        if let Some(&eid) = self.reserved.get(&task.id()) {
            self.stats.pass_throughs += 1;
            // Under LB-per-job an accepted per-task task's plan "can be
            // changed for each job" (§5): try to relocate the reservation to
            // the currently least-loaded replicas, keeping the old plan if
            // the move would break the bound for anyone.
            let assignment = if self.config.lb == crate::strategy::LbStrategy::PerJob {
                self.relocate_reservation(task, eid)
            } else {
                Assignment::new(self.entry(eid).visits.clone())
            };
            return Ok(Some(Decision::Accept { assignment, newly_admitted: false }));
        }
        Ok(None)
    }

    /// Moves a per-task reservation to a freshly balanced placement if that
    /// keeps the whole system schedulable; otherwise keeps the old plan.
    fn relocate_reservation(&mut self, task: &TaskSpec, eid: EntryId) -> Assignment {
        let old_visits = self.entry(eid).visits.clone();
        let reserved_job = JobId::new(task.id(), RESERVED_SEQ);

        // Lift the old contributions out so the proposal does not see the
        // task's own load on its old processors. The entry is de-indexed
        // across the move: deltas flow to everyone else, and its own sum is
        // recomputed once the new placement is in.
        self.deindex_entry(eid, &old_visits);
        self.mutate_ledger(|ledger| {
            for (subtask, processor) in old_visits.iter().enumerate() {
                ledger.remove(*processor, ContributionKey::new(reserved_job, subtask));
            }
        });
        let proposal = self.balancer.assignment_for(task, &self.ledger);
        self.mutate_ledger(|ledger| {
            for (subtask, processor) in proposal.iter() {
                ledger
                    .add(
                        processor,
                        ContributionKey::new(reserved_job, subtask),
                        task.subtask_utilization(subtask),
                        Lifetime::Reserved,
                    )
                    .expect("reserved keys were just removed");
            }
        });
        self.index_entry(eid, proposal.as_slice());
        if let Some(entry) = self.entries[eid].as_mut() {
            entry.visits = proposal.as_slice().to_vec();
        }
        self.refresh_entry(eid);

        if self.system_schedulable_with(proposal.as_slice()) {
            return proposal;
        }

        // Revert: the relocation would violate someone's bound.
        self.deindex_entry(eid, proposal.as_slice());
        self.mutate_ledger(|ledger| {
            for (subtask, processor) in proposal.iter() {
                ledger.remove(processor, ContributionKey::new(reserved_job, subtask));
            }
        });
        self.mutate_ledger(|ledger| {
            for (subtask, processor) in old_visits.iter().enumerate() {
                ledger
                    .add(
                        *processor,
                        ContributionKey::new(reserved_job, subtask),
                        task.subtask_utilization(subtask),
                        Lifetime::Reserved,
                    )
                    .expect("restoring the original reservation cannot collide");
            }
        });
        self.index_entry(eid, &old_visits);
        if let Some(entry) = self.entries[eid].as_mut() {
            entry.visits = old_visits.clone();
        }
        self.refresh_entry(eid);
        Assignment::new(old_visits)
    }

    fn admit_with_checked(
        &mut self,
        task: &TaskSpec,
        seq: u64,
        now: Time,
        assignment: Assignment,
    ) -> Result<Decision, AdmissionError> {
        let job = JobId::new(task.id(), seq);
        if self.by_job.contains_key(&job) {
            return Err(AdmissionError::DuplicateArrival { job });
        }
        self.ledger.begin_touch_epoch();
        self.decide_in_open_epoch(task, job, now, assignment)
    }

    /// The hot-path variant of [`AdmissionController::admit_with_checked`]:
    /// identical decision logic, but the caller has already opened a touch
    /// epoch (covering expiry) that the tentative contributions join.
    fn admit_in_open_epoch(
        &mut self,
        task: &TaskSpec,
        seq: u64,
        now: Time,
        assignment: Assignment,
    ) -> Result<Decision, AdmissionError> {
        let job = JobId::new(task.id(), seq);
        if self.by_job.contains_key(&job) {
            self.settle_epoch();
            return Err(AdmissionError::DuplicateArrival { job });
        }
        self.decide_in_open_epoch(task, job, now, assignment)
    }

    /// The admission decision proper, shared by both entry points above:
    /// tentatively adds the candidate's contributions into the open touch
    /// epoch, settles it exactly once (delta-applying every touched
    /// processor's `f(U)` step to the entries visiting it), runs the
    /// system-wide check, and commits the entry or reverts the
    /// contributions. Every path out settles the epoch.
    fn decide_in_open_epoch(
        &mut self,
        task: &TaskSpec,
        job: JobId,
        now: Time,
        assignment: Assignment,
    ) -> Result<Decision, AdmissionError> {
        self.stats.tested += 1;

        let reserve = self.uses_reservation(task);
        let (key_job, lifetime, entry_deadline) = if reserve {
            (JobId::new(task.id(), RESERVED_SEQ), Lifetime::Reserved, Time::MAX)
        } else {
            let deadline = now.saturating_add(task.deadline());
            (job, Lifetime::UntilDeadline(deadline), deadline)
        };

        let mut added = 0usize;
        let mut collided = false;
        for (subtask, processor) in assignment.iter() {
            let key = ContributionKey::new(key_job, subtask);
            match self.ledger.add(processor, key, task.subtask_utilization(subtask), lifetime) {
                Ok(()) => added += 1,
                Err(_) => {
                    collided = true;
                    break;
                }
            }
        }
        if collided {
            for (subtask, processor) in assignment.iter().take(added) {
                self.ledger.remove(processor, ContributionKey::new(key_job, subtask));
            }
            self.settle_epoch();
            return Err(AdmissionError::DuplicateArrival { job });
        }
        self.settle_epoch();

        if self.system_schedulable_with(assignment.as_slice()) {
            let eid = self.register_entry(job, assignment.as_slice().to_vec());
            if reserve {
                self.reserved.insert(task.id(), eid);
            } else {
                self.entry_expiry.push(Reverse((entry_deadline, eid, self.entry(eid).gen)));
            }
            self.stats.admitted += 1;
            Ok(Decision::Accept { assignment, newly_admitted: true })
        } else {
            self.mutate_ledger(|ledger| {
                for (subtask, processor) in assignment.iter() {
                    ledger.remove(processor, ContributionKey::new(key_job, subtask));
                }
            });
            if reserve {
                self.rejected_tasks.insert(task.id());
            }
            self.balancer.forget_task(task.id());
            self.stats.rejected += 1;
            Ok(Decision::Reject { reason: RejectReason::Unschedulable })
        }
    }

    /// Checks the AUB condition for the candidate visits *and* every
    /// outstanding current entry against the ledger (which already includes
    /// the candidate's tentative contributions).
    ///
    /// The candidate's own bound is always evaluated fresh; how the current
    /// set is checked depends on the [`AdmissionMode`]: the incremental
    /// path reads the `violating` set maintained by delta application
    /// (entries not visiting a touched processor are provably unchanged),
    /// the brute-force path rescans everything.
    fn system_schedulable_with(&self, candidate_visits: &[ProcessorId]) -> bool {
        let candidate = bound_lhs(candidate_visits.iter().map(|p| self.ledger.utilization(*p)));
        if candidate > 1.0 + BOUND_EPSILON {
            return false;
        }
        match self.mode {
            AdmissionMode::Incremental => self.violating_count == 0,
            AdmissionMode::BruteForce => self.system_schedulable_brute(),
        }
    }

    /// The original O(current set × visits) system-wide AUB check: every
    /// outstanding current entry's bound recomputed from the live ledger.
    /// Kept public as the differential-testing oracle and the ablation
    /// baseline for the incremental path.
    #[must_use]
    pub fn system_schedulable_brute(&self) -> bool {
        let u = self.ledger.utilizations();
        self.entries.iter().flatten().filter(|entry| entry.outstanding > 0).all(|entry| {
            bound_lhs(entry.visits.iter().map(|p| u[p.index()])) <= 1.0 + BOUND_EPSILON
        })
    }

    /// Per-entry cached vs. freshly recomputed AUB sums — the raw material
    /// for `rtcm_core::analysis::audit_controller` and the differential
    /// harness.
    #[must_use]
    pub fn entry_bounds(&self) -> Vec<EntryBound> {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(eid, slot)| slot.as_ref().map(|e| (eid, e)))
            .map(|(eid, e)| EntryBound {
                job: e.job,
                cached_lhs: self.hot[eid].cached_lhs,
                fresh_lhs: bound_lhs(e.visits.iter().map(|p| self.ledger.utilization(*p))),
                outstanding: e.outstanding,
            })
            .collect()
    }

    /// Number of current entries whose cached AUB sum exceeds the bound
    /// (diagnostic; non-zero only after un-tested load such as remote
    /// commits).
    #[must_use]
    pub fn violating_entries(&self) -> usize {
        self.violating_count
    }

    /// Recomputes the ledger totals *and* every cached AUB sum from
    /// scratch, returning the largest absolute drift corrected anywhere.
    /// Incremental `+=`/`-=` bookkeeping accumulates floating-point drift
    /// over long runs; periodic reconciliation bounds it without giving up
    /// the hot path's incrementality.
    pub fn reconcile(&mut self) -> f64 {
        let mut max_drift = self.ledger.recompute_totals();
        for eid in 0..self.entries.len() {
            if self.entries[eid].is_none() {
                continue;
            }
            let old = self.hot[eid].cached_lhs;
            self.refresh_entry(eid);
            let drift = (old - self.hot[eid].cached_lhs).abs();
            if drift.is_finite() {
                max_drift = max_drift.max(drift);
            }
        }
        max_drift
    }

    /// The entry behind `eid`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is free — internal ids are only read while live.
    fn entry(&self, eid: EntryId) -> &CurrentEntry {
        self.entries[eid].as_ref().expect("entry ids are only read while live")
    }

    /// Runs `f` against the ledger, then delta-applies every touched
    /// processor's `f(U_new) − f(U_old)` step to the cached AUB sums of the
    /// entries its inverted-index bucket lists. This is the single funnel
    /// through which every ledger mutation flows, keeping the cached sums
    /// consistent with the ledger by construction. The ledger's own
    /// touch-tracking makes the whole pass O(touched processors + touched
    /// entries), independent of both the processor count and the current
    /// set size.
    fn mutate_ledger<R>(&mut self, f: impl FnOnce(&mut UtilizationLedger) -> R) -> R {
        self.ledger.begin_touch_epoch();
        let result = f(&mut self.ledger);
        self.settle_epoch();
        result
    }

    /// Ends the open touch epoch: delta-applies every touched processor's
    /// net `f` step to the entries indexed under it.
    fn settle_epoch(&mut self) {
        let mut touched = std::mem::take(&mut self.scratch_touched);
        self.ledger.copy_touched_into(&mut touched);
        self.apply_deltas(&touched);
        self.scratch_touched = touched;
    }

    /// Above this per-term magnitude the delta path is numerically unsafe:
    /// `cached + (f_new − f_old)` cancels catastrophically when the terms
    /// dwarf the sum (ulp(1e4) ≈ 2e-12 caps the per-application error;
    /// near saturation `f` reaches 1e15 where ulp is ~0.25). Only
    /// processors within ~1e-4 of `U = 1` produce terms this large, and
    /// entries there are far over the bound anyway, so the fallback
    /// recompute is both rare and cheap.
    const DELTA_REFRESH_LIMIT: f64 = 1e4;

    fn apply_deltas(&mut self, touched: &[(usize, f64)]) {
        // Processors whose `f` step cannot be delta-applied: crossing the
        // saturation boundary (`U ≥ 1` has `f = ∞`) or grazing it (just
        // below, `f` is so large that `cached + (f_new − f_old)` cancels
        // catastrophically). Their entries are refreshed from scratch
        // *after* every finite delta has been applied — a refresh reads
        // the final ledger state across all processors, so interleaving
        // it with per-processor deltas would double-count an entry that
        // visits both a refreshed and a delta'd processor.
        let mut needs_refresh: Vec<usize> = Vec::new();
        for &(idx, old) in touched {
            let new = self.ledger.utilization(ProcessorId(idx as u16));
            if new == old {
                continue;
            }
            let delta = aub_delta(old, new);
            if delta == 0.0 {
                continue;
            }
            if delta.is_finite() && aub_term(old).max(aub_term(new)) <= Self::DELTA_REFRESH_LIMIT {
                for &eid in &self.proc_index[idx] {
                    let hot = &mut self.hot[eid];
                    hot.cached_lhs += delta;
                    Self::sync_violating(hot, &mut self.violating_count);
                }
            } else {
                needs_refresh.push(idx);
            }
        }
        for idx in needs_refresh {
            // Duplicate records (visit multiplicity) refresh twice, which
            // is idempotent.
            let eids = self.proc_index[idx].clone();
            for eid in eids {
                self.refresh_entry(eid);
            }
        }
    }

    /// Recomputes one entry's cached AUB sum from the live ledger and
    /// re-derives its `violating` status.
    fn refresh_entry(&mut self, eid: EntryId) {
        let Some(entry) = self.entries[eid].as_ref() else { return };
        let cached = bound_lhs(entry.visits.iter().map(|p| self.ledger.utilization(*p)));
        let hot = &mut self.hot[eid];
        hot.cached_lhs = cached;
        Self::sync_violating(hot, &mut self.violating_count);
    }

    /// Re-derives one hot entry's `violating` flag from its current state
    /// and folds the transition into the global count — the single place
    /// the violating condition is evaluated.
    fn sync_violating(hot: &mut HotEntry, violating_count: &mut usize) {
        let violating = hot.is_violating();
        if violating != hot.violating {
            hot.violating = violating;
            if violating {
                *violating_count += 1;
            } else {
                *violating_count -= 1;
            }
        }
    }

    fn index_entry(&mut self, eid: EntryId, visits: &[ProcessorId]) {
        for p in visits {
            self.proc_index[p.index()].push(eid);
        }
    }

    fn deindex_entry(&mut self, eid: EntryId, visits: &[ProcessorId]) {
        for p in visits {
            let bucket = &mut self.proc_index[p.index()];
            if let Some(pos) = bucket.iter().rposition(|&e| e == eid) {
                bucket.swap_remove(pos);
            }
        }
    }

    /// Inserts a new current entry, indexes it, and seeds its cached sum
    /// from the live ledger.
    fn register_entry(&mut self, job: JobId, visits: Vec<ProcessorId>) -> EntryId {
        let outstanding = visits.len();
        let eid = match self.free_entries.pop() {
            Some(eid) => eid,
            None => {
                self.entries.push(None);
                self.hot.push(HotEntry { cached_lhs: 0.0, violating: false, counted: false });
                self.entries.len() - 1
            }
        };
        let gen = self.next_entry_gen;
        self.next_entry_gen += 1;
        self.index_entry(eid, &visits);
        self.entries[eid] = Some(CurrentEntry { job, visits, outstanding, gen });
        self.hot[eid] = HotEntry { cached_lhs: 0.0, violating: false, counted: outstanding > 0 };
        self.live_entries += 1;
        self.by_job.insert(job, eid);
        self.refresh_entry(eid);
        eid
    }

    /// Removes a current entry from the registry, the inverted index and
    /// the violating count (but not its ledger contributions — callers own
    /// those).
    fn unregister_entry(&mut self, eid: EntryId) -> Option<CurrentEntry> {
        let entry = self.entries.get_mut(eid)?.take()?;
        self.free_entries.push(eid);
        self.live_entries -= 1;
        self.by_job.remove(&entry.job);
        if self.hot[eid].violating {
            self.hot[eid].violating = false;
            self.violating_count -= 1;
        }
        self.deindex_entry(eid, &entry.visits);
        Some(entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{IrStrategy, LbStrategy};
    use crate::task::TaskBuilder;
    use crate::time::Duration;

    fn cfg(label: &str) -> ServiceConfig {
        label.parse().unwrap()
    }

    fn at(ms: u64) -> Time {
        Time::ZERO + Duration::from_millis(ms)
    }

    /// One-stage aperiodic task with utilization `exec_ms / 100`.
    fn aperiodic(id: u32, exec_ms: u64, proc: u16) -> TaskSpec {
        TaskBuilder::aperiodic(TaskId(id))
            .deadline(Duration::from_millis(100))
            .subtask(Duration::from_millis(exec_ms), ProcessorId(proc), [])
            .build()
            .unwrap()
    }

    fn periodic(id: u32, exec_ms: u64, proc: u16) -> TaskSpec {
        TaskBuilder::periodic(TaskId(id), Duration::from_millis(100))
            .subtask(Duration::from_millis(exec_ms), ProcessorId(proc), [])
            .build()
            .unwrap()
    }

    #[test]
    fn invalid_config_rejected_at_construction() {
        let err = AdmissionController::new(cfg("T_J_N"), 1).unwrap_err();
        assert_eq!(err.config.label(), "T_J_N");
    }

    #[test]
    fn admits_until_single_stage_bound() {
        // Single-stage tasks at U = 0.2 each: f(0.2) ≈ 0.225, f(0.4) = 0.533,
        // f(0.6) = inf-region (0.6 > 0.586 bound) -> third task rejected.
        let mut ac = AdmissionController::new(cfg("J_N_N"), 1).unwrap();
        for (seq, id) in [(0u64, 0u32), (0, 1)] {
            let t = aperiodic(id, 20, 0);
            assert!(ac.handle_arrival(&t, seq, Time::ZERO).unwrap().is_accept(), "task {id}");
        }
        let t = aperiodic(2, 20, 0);
        let d = ac.handle_arrival(&t, 0, Time::ZERO).unwrap();
        assert_eq!(d, Decision::Reject { reason: RejectReason::Unschedulable });
        // Ledger unchanged by the rejection.
        assert!((ac.ledger().utilization(ProcessorId(0)) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn expired_jobs_free_capacity() {
        let mut ac = AdmissionController::new(cfg("J_N_N"), 1).unwrap();
        for id in 0..2 {
            assert!(ac.handle_arrival(&aperiodic(id, 20, 0), 0, Time::ZERO).unwrap().is_accept());
        }
        assert!(!ac.handle_arrival(&aperiodic(2, 20, 0), 0, at(50)).unwrap().is_accept());
        // After both deadlines pass, the same task is admitted.
        assert!(ac.handle_arrival(&aperiodic(3, 20, 0), 0, at(100)).unwrap().is_accept());
        assert_eq!(ac.current_entries(), 1);
    }

    #[test]
    fn per_task_reserves_and_passes_through() {
        let mut ac = AdmissionController::new(cfg("T_N_N"), 1).unwrap();
        let t = periodic(0, 20, 0);
        let first = ac.handle_arrival(&t, 0, Time::ZERO).unwrap();
        assert_eq!(
            first,
            Decision::Accept {
                assignment: Assignment::new(vec![ProcessorId(0)]),
                newly_admitted: true
            }
        );
        assert!(ac.is_reserved(t.id()));
        // Second job passes through without a test, even long after.
        let second = ac.handle_arrival(&t, 1, at(100)).unwrap();
        assert!(matches!(second, Decision::Accept { newly_admitted: false, .. }));
        // Reservation persists beyond job deadlines.
        ac.expire(at(10_000));
        assert!((ac.ledger().utilization(ProcessorId(0)) - 0.2).abs() < 1e-12);
        assert_eq!(ac.stats().pass_throughs, 1);
    }

    #[test]
    fn per_task_rejection_is_sticky() {
        let mut ac = AdmissionController::new(cfg("T_N_N"), 1).unwrap();
        // Fill the processor so the periodic task fails its first test.
        for id in 0..2 {
            assert!(ac.handle_arrival(&aperiodic(id, 20, 0), 0, Time::ZERO).unwrap().is_accept());
        }
        let t = periodic(10, 25, 0);
        assert!(!ac.handle_arrival(&t, 0, Time::ZERO).unwrap().is_accept());
        assert!(ac.is_rejected(t.id()));
        // Even after the aperiodic load expires, the task stays rejected...
        let d = ac.handle_arrival(&t, 1, at(500)).unwrap();
        assert_eq!(d, Decision::Reject { reason: RejectReason::TaskPreviouslyRejected });
        // ...until withdrawn.
        ac.withdraw_task(t.id());
        assert!(ac.handle_arrival(&t, 2, at(600)).unwrap().is_accept());
    }

    #[test]
    fn per_job_periodic_skips_only_overloaded_jobs() {
        let mut ac = AdmissionController::new(cfg("J_N_N"), 1).unwrap();
        let hog = aperiodic(0, 40, 0);
        assert!(ac.handle_arrival(&hog, 0, Time::ZERO).unwrap().is_accept());
        let t = periodic(1, 25, 0);
        // Job 0 collides with the hog: f(0.4+0.25) = f(0.65) -> reject.
        assert!(!ac.handle_arrival(&t, 0, at(10)).unwrap().is_accept());
        // Job 1 arrives after the hog expired: accept.
        assert!(ac.handle_arrival(&t, 1, at(110)).unwrap().is_accept());
    }

    #[test]
    fn idle_reset_frees_capacity_early() {
        let mut ac = AdmissionController::new(cfg("J_J_N"), 1).unwrap();
        let a = aperiodic(0, 20, 0);
        let b = aperiodic(1, 20, 0);
        assert!(ac.handle_arrival(&a, 0, Time::ZERO).unwrap().is_accept());
        assert!(ac.handle_arrival(&b, 0, Time::ZERO).unwrap().is_accept());
        // System full; c would be rejected.
        let c = aperiodic(2, 20, 0);
        assert!(!ac.handle_arrival(&c, 0, at(1)).unwrap().is_accept());
        // a's subjob completes and the processor idles: reset.
        let freed = ac
            .apply_idle_reset(ProcessorId(0), &[ContributionKey::new(JobId::new(TaskId(0), 0), 0)]);
        assert!((freed - 0.2).abs() < 1e-12);
        assert!(ac.handle_arrival(&c, 1, at(2)).unwrap().is_accept());
        assert!(ac.stats().reset_utilization > 0.0);
    }

    #[test]
    fn reset_of_expired_key_is_noop() {
        let mut ac = AdmissionController::new(cfg("J_T_N"), 1).unwrap();
        let a = aperiodic(0, 20, 0);
        assert!(ac.handle_arrival(&a, 0, Time::ZERO).unwrap().is_accept());
        ac.expire(at(200));
        let freed = ac
            .apply_idle_reset(ProcessorId(0), &[ContributionKey::new(JobId::new(TaskId(0), 0), 0)]);
        assert_eq!(freed, 0.0);
    }

    #[test]
    fn fully_reset_entry_is_skipped_by_bound_check() {
        // Two-stage task over two processors; once both stages are reset,
        // a new arrival must not be blocked by the completed entry's bound.
        let two_stage = TaskBuilder::aperiodic(TaskId(0))
            .deadline(Duration::from_millis(100))
            .subtask(Duration::from_millis(30), ProcessorId(0), [])
            .subtask(Duration::from_millis(30), ProcessorId(1), [])
            .build()
            .unwrap();
        let mut ac = AdmissionController::new(cfg("J_J_N"), 2).unwrap();
        assert!(ac.handle_arrival(&two_stage, 0, Time::ZERO).unwrap().is_accept());
        let job = JobId::new(TaskId(0), 0);
        ac.apply_idle_reset(ProcessorId(0), &[ContributionKey::new(job, 0)]);
        ac.apply_idle_reset(ProcessorId(1), &[ContributionKey::new(job, 1)]);
        // Load both processors to U = 0.4 with fresh single-stage tasks. If
        // the fully-reset two-stage entry were still bound-checked, its sum
        // f(0.4) + f(0.4) ≈ 1.07 > 1 would block the second arrival.
        assert!(ac.handle_arrival(&aperiodic(1, 40, 0), 0, at(1)).unwrap().is_accept());
        assert!(ac.handle_arrival(&aperiodic(2, 40, 1), 0, at(1)).unwrap().is_accept());
    }

    #[test]
    fn duplicate_job_is_an_error() {
        let mut ac = AdmissionController::new(cfg("J_N_N"), 1).unwrap();
        let t = aperiodic(0, 10, 0);
        ac.handle_arrival(&t, 0, Time::ZERO).unwrap();
        let err = ac.handle_arrival(&t, 0, at(1)).unwrap_err();
        assert_eq!(err, AdmissionError::DuplicateArrival { job: JobId::new(TaskId(0), 0) });
    }

    #[test]
    fn sentinel_sequence_numbers_are_rejected_at_every_entry_point() {
        // Sequence numbers in the controller-owned sentinel range could
        // collide with reservation/drain bookkeeping mid-reconfiguration,
        // so every arrival path refuses them up front.
        let mut ac = AdmissionController::new(cfg("J_N_N"), 1).unwrap();
        let t = aperiodic(0, 10, 0);
        for seq in [SENTINEL_SEQ_FLOOR, RESERVED_SEQ - 2, RESERVED_SEQ] {
            let err = ac.handle_arrival(&t, seq, Time::ZERO).unwrap_err();
            assert!(matches!(err, AdmissionError::SentinelSequence { .. }), "seq {seq}");
            let err = ac.admit_with(&t, seq, Time::ZERO, Assignment::primaries(&t)).unwrap_err();
            assert!(matches!(err, AdmissionError::SentinelSequence { .. }), "seq {seq}");
            let err = ac
                .apply_remote_commit(&t, seq, Time::ZERO, &Assignment::primaries(&t))
                .unwrap_err();
            assert!(matches!(err, AdmissionError::SentinelSequence { .. }), "seq {seq}");
        }
        // The largest legitimate sequence number still works.
        assert!(ac.handle_arrival(&t, SENTINEL_SEQ_FLOOR - 1, Time::ZERO).unwrap().is_accept());
    }

    #[test]
    fn unknown_processor_is_an_error() {
        let mut ac = AdmissionController::new(cfg("J_N_N"), 1).unwrap();
        let t = aperiodic(0, 10, 5);
        let err = ac.handle_arrival(&t, 0, Time::ZERO).unwrap_err();
        assert!(matches!(err, AdmissionError::UnknownProcessor { .. }));
    }

    #[test]
    fn admit_with_validates_assignment() {
        let mut ac = AdmissionController::new(cfg("J_N_N"), 2).unwrap();
        let t = aperiodic(0, 10, 0);
        let err =
            ac.admit_with(&t, 0, Time::ZERO, Assignment::new(vec![ProcessorId(1)])).unwrap_err();
        assert_eq!(err, AdmissionError::InvalidAssignment { task: TaskId(0) });
    }

    #[test]
    fn load_balancing_spreads_arrivals() {
        let mut ac = AdmissionController::new(
            ServiceConfig::new(AcStrategy::PerJob, IrStrategy::None, LbStrategy::PerJob),
            2,
        )
        .unwrap();
        let replicated = |id: u32| {
            TaskBuilder::aperiodic(TaskId(id))
                .deadline(Duration::from_millis(100))
                .subtask(Duration::from_millis(20), ProcessorId(0), [ProcessorId(1)])
                .build()
                .unwrap()
        };
        let d0 = ac.handle_arrival(&replicated(0), 0, Time::ZERO).unwrap();
        let d1 = ac.handle_arrival(&replicated(1), 0, Time::ZERO).unwrap();
        let p0 = d0.assignment().unwrap().processor(0);
        let p1 = d1.assignment().unwrap().processor(0);
        assert_ne!(p0, p1, "second arrival balances to the other processor");
    }

    #[test]
    fn per_task_reservation_relocates_under_lb_per_job() {
        // T_N_J: a reserved periodic task's plan follows the load each job.
        let mut ac = AdmissionController::new(cfg("T_N_J"), 2).unwrap();
        let replicated = TaskBuilder::periodic(TaskId(0), Duration::from_millis(100))
            .subtask(Duration::from_millis(20), ProcessorId(0), [ProcessorId(1)])
            .build()
            .unwrap();
        let first = ac.handle_arrival(&replicated, 0, Time::ZERO).unwrap();
        assert_eq!(first.assignment().unwrap().processor(0), ProcessorId(0));
        // Load P0 heavily with an aperiodic job; next periodic job should
        // relocate to P1.
        let hog = aperiodic(5, 30, 0);
        assert!(ac.handle_arrival(&hog, 0, at(1)).unwrap().is_accept());
        let second = ac.handle_arrival(&replicated, 1, at(2)).unwrap();
        assert_eq!(second.assignment().unwrap().processor(0), ProcessorId(1));
        // The reservation's utilization moved with it.
        assert!((ac.ledger().utilization(ProcessorId(1)) - 0.2).abs() < 1e-12);
        assert!((ac.ledger().utilization(ProcessorId(0)) - 0.3).abs() < 1e-12);
        assert!(matches!(second, Decision::Accept { newly_admitted: false, .. }));
    }

    #[test]
    fn relocation_reverts_when_it_would_break_the_bound() {
        let mut ac = AdmissionController::new(cfg("T_N_J"), 2).unwrap();
        // Two-stage reserved task pinned initially across P0 and P1.
        let spread = TaskBuilder::periodic(TaskId(0), Duration::from_millis(100))
            .subtask(Duration::from_millis(25), ProcessorId(0), [ProcessorId(1)])
            .subtask(Duration::from_millis(25), ProcessorId(1), [ProcessorId(0)])
            .build()
            .unwrap();
        assert!(ac.handle_arrival(&spread, 0, Time::ZERO).unwrap().is_accept());
        // A second identical task: bounds hold in the spread placement
        // (f(0.5)+f(0.5) = 1.5 > 1? no — need per-processor 0.5 only if both
        // land together). Verify ledger stays consistent regardless of the
        // decision: total reserved utilization must be conserved.
        let spread2 = TaskBuilder::periodic(TaskId(1), Duration::from_millis(100))
            .subtask(Duration::from_millis(25), ProcessorId(0), [ProcessorId(1)])
            .subtask(Duration::from_millis(25), ProcessorId(1), [ProcessorId(0)])
            .build()
            .unwrap();
        let _ = ac.handle_arrival(&spread2, 0, at(1)).unwrap();
        let before: f64 = ac.ledger().utilizations().iter().sum();
        let _ = ac.handle_arrival(&spread, 1, at(2)).unwrap();
        let after: f64 = ac.ledger().utilizations().iter().sum();
        assert!((before - after).abs() < 1e-12, "relocation conserves reserved load");
    }

    #[test]
    fn remote_commit_counts_against_local_admission() {
        let mut ac = AdmissionController::new(cfg("J_N_N"), 1).unwrap();
        let peer_job = aperiodic(0, 40, 0);
        ac.apply_remote_commit(&peer_job, 0, Time::ZERO, &Assignment::new(vec![ProcessorId(0)]))
            .unwrap();
        assert!((ac.ledger().utilization(ProcessorId(0)) - 0.4).abs() < 1e-12);
        // A local arrival that would overflow together with the remote one
        // is rejected.
        let local = aperiodic(1, 30, 0);
        assert!(!ac.handle_arrival(&local, 0, at(1)).unwrap().is_accept());
        // After the remote job's deadline the capacity frees up.
        assert!(ac.handle_arrival(&local, 1, at(150)).unwrap().is_accept());
    }

    #[test]
    fn remote_commit_is_idempotent() {
        let mut ac = AdmissionController::new(cfg("J_N_N"), 1).unwrap();
        let t = aperiodic(0, 20, 0);
        let plan = Assignment::new(vec![ProcessorId(0)]);
        ac.apply_remote_commit(&t, 0, Time::ZERO, &plan).unwrap();
        ac.apply_remote_commit(&t, 0, Time::ZERO, &plan).unwrap();
        assert!((ac.ledger().utilization(ProcessorId(0)) - 0.2).abs() < 1e-12);
        assert_eq!(ac.current_entries(), 1);
    }

    #[test]
    fn stale_remote_commit_is_dropped() {
        let mut ac = AdmissionController::new(cfg("J_N_N"), 1).unwrap();
        ac.expire(at(500));
        let t = aperiodic(0, 20, 0);
        // Deadline at 100ms is behind the expiry floor of 500ms.
        ac.apply_remote_commit(&t, 0, Time::ZERO, &Assignment::new(vec![ProcessorId(0)])).unwrap();
        assert_eq!(ac.ledger().utilization(ProcessorId(0)), 0.0);
        assert_eq!(ac.current_entries(), 0);
    }

    #[test]
    fn remote_commit_validates_inputs() {
        let mut ac = AdmissionController::new(cfg("J_N_N"), 1).unwrap();
        let t = aperiodic(0, 20, 0);
        let err = ac.apply_remote_commit(&t, 0, Time::ZERO, &Assignment::new(vec![])).unwrap_err();
        assert_eq!(err, AdmissionError::InvalidAssignment { task: TaskId(0) });
        let far = aperiodic(1, 20, 9);
        let err = ac
            .apply_remote_commit(&far, 0, Time::ZERO, &Assignment::new(vec![ProcessorId(9)]))
            .unwrap_err();
        assert!(matches!(err, AdmissionError::UnknownProcessor { .. }));
    }

    #[test]
    fn modes_agree_and_caches_stay_fresh() {
        // Drive an arrival/reset/expiry mix through paired controllers and
        // require identical decisions plus bit-consistent cached sums.
        let mut inc =
            AdmissionController::with_mode(cfg("J_J_T"), 3, AdmissionMode::Incremental).unwrap();
        let mut brute =
            AdmissionController::with_mode(cfg("J_J_T"), 3, AdmissionMode::BruteForce).unwrap();
        assert_eq!(inc.mode(), AdmissionMode::Incremental);
        assert_eq!(brute.mode(), AdmissionMode::BruteForce);

        let mk = |id: u32, exec: u64, p: u16| {
            TaskBuilder::aperiodic(TaskId(id))
                .deadline(Duration::from_millis(100))
                .subtask(Duration::from_millis(exec), ProcessorId(p), [ProcessorId((p + 1) % 3)])
                .subtask(Duration::from_millis(exec), ProcessorId((p + 2) % 3), [])
                .build()
                .unwrap()
        };
        for step in 0..40u64 {
            let t = mk(step as u32, 5 + (step % 17), (step % 3) as u16);
            let a = inc.handle_arrival(&t, 0, at(step * 7)).unwrap();
            let b = brute.handle_arrival(&t, 0, at(step * 7)).unwrap();
            assert_eq!(a, b, "step {step}");
            if step % 5 == 0 {
                let key = ContributionKey::new(JobId::new(TaskId(step as u32), 0), 0);
                let p = a.assignment().map_or(ProcessorId(0), |plan| plan.processor(0));
                assert_eq!(inc.apply_idle_reset(p, &[key]), brute.apply_idle_reset(p, &[key]));
            }
        }
        assert_eq!(inc.stats(), brute.stats());
        for bound in inc.entry_bounds() {
            assert!(
                (bound.cached_lhs - bound.fresh_lhs).abs() < 1e-9,
                "cached {} drifted from fresh {}",
                bound.cached_lhs,
                bound.fresh_lhs
            );
        }
        assert_eq!(
            inc.ledger().utilizations(),
            brute.ledger().utilizations(),
            "paired controllers share arithmetic exactly"
        );
    }

    #[test]
    fn remote_overload_blocks_all_arrivals_in_both_modes() {
        // A remote commit is applied without a test and can push a current
        // entry over the bound; until it expires, *every* arrival must be
        // rejected — even one landing on an untouched processor, because
        // the violated entry stays violated.
        for mode in [AdmissionMode::Incremental, AdmissionMode::BruteForce] {
            let mut ac = AdmissionController::with_mode(cfg("J_N_N"), 2, mode).unwrap();
            assert!(ac.handle_arrival(&aperiodic(0, 20, 0), 0, Time::ZERO).unwrap().is_accept());
            let hog = aperiodic(1, 75, 0);
            ac.apply_remote_commit(&hog, 0, Time::ZERO, &Assignment::primaries(&hog)).unwrap();
            assert!(ac.violating_entries() > 0, "{mode}: f(0.95) far exceeds the bound");
            assert!(!ac.system_schedulable_brute(), "{mode}: oracle agrees");
            let elsewhere = aperiodic(2, 5, 1);
            assert!(
                !ac.handle_arrival(&elsewhere, 0, at(1)).unwrap().is_accept(),
                "{mode}: violated entry rejects arrivals on untouched processors"
            );
            // Once the overload expires, admission resumes and the
            // violating set drains.
            assert!(ac.handle_arrival(&aperiodic(3, 5, 1), 0, at(200)).unwrap().is_accept());
            assert_eq!(ac.violating_entries(), 0, "{mode}");
        }
    }

    #[test]
    fn saturated_processor_recovers_through_delta_path() {
        // Push a processor to U ≥ 1 (f = ∞) via remote commits, then let
        // the load expire: cached sums must come back finite and fresh
        // (the ∞ boundary cannot be crossed by finite deltas).
        let mut ac = AdmissionController::new(cfg("J_N_N"), 2).unwrap();
        assert!(ac.handle_arrival(&aperiodic(0, 10, 0), 0, Time::ZERO).unwrap().is_accept());
        for id in 1..=3 {
            let hog = aperiodic(id, 40, 0);
            ac.apply_remote_commit(&hog, 0, Time::ZERO, &Assignment::primaries(&hog)).unwrap();
        }
        assert!(ac.ledger().utilization(ProcessorId(0)) >= 1.0);
        assert!(ac.entry_bounds().iter().any(|b| b.cached_lhs.is_infinite()));
        ac.expire(at(100));
        assert_eq!(ac.current_entries(), 0);
        assert!(ac.handle_arrival(&aperiodic(9, 20, 0), 0, at(101)).unwrap().is_accept());
        let bounds = ac.entry_bounds();
        assert!(bounds.iter().all(|b| b.cached_lhs.is_finite()));
        for b in &bounds {
            assert!((b.cached_lhs - b.fresh_lhs).abs() < 1e-9);
        }
    }

    #[test]
    fn reconcile_reports_and_repairs_drift() {
        let mut ac = AdmissionController::new(cfg("J_T_N"), 2).unwrap();
        // Long churn: thousands of admit/expire rounds accumulate ledger
        // and cached-sum drift; reconcile must keep it within 1e-6 and
        // leave the caches exactly fresh.
        let mut now = Time::ZERO;
        for round in 0..10_000u64 {
            let t = aperiodic((round % 7) as u32, 1 + (round % 23), (round % 2) as u16);
            let _ = ac.handle_arrival(&t, round, now).unwrap();
            now = now.saturating_add(Duration::from_millis(29));
        }
        let drift = ac.reconcile();
        assert!(drift < 1e-6, "drift {drift} exceeded the reconcilable budget");
        for b in ac.entry_bounds() {
            assert!((b.cached_lhs - b.fresh_lhs).abs() < 1e-12, "reconcile left stale caches");
        }
        // Reconciling twice is idempotent (second pass corrects ~nothing).
        assert!(ac.reconcile() < 1e-12);
    }

    #[test]
    fn set_mode_switches_decision_procedure_in_place() {
        let mut ac = AdmissionController::new(cfg("J_N_N"), 1).unwrap();
        assert!(ac.handle_arrival(&aperiodic(0, 20, 0), 0, Time::ZERO).unwrap().is_accept());
        ac.set_mode(AdmissionMode::BruteForce);
        assert_eq!(ac.mode(), AdmissionMode::BruteForce);
        assert!(ac.handle_arrival(&aperiodic(1, 20, 0), 0, at(1)).unwrap().is_accept());
        ac.set_mode(AdmissionMode::Incremental);
        // The bookkeeping never stopped, so the incremental path picks up
        // mid-flight: the third task overflows and is rejected.
        assert!(!ac.handle_arrival(&aperiodic(2, 20, 0), 0, at(2)).unwrap().is_accept());
        assert!((ac.ledger().utilization(ProcessorId(0)) - 0.4).abs() < 1e-12);
    }

    fn set_of(tasks: &[&TaskSpec]) -> crate::task::TaskSet {
        crate::task::TaskSet::from_tasks(tasks.iter().map(|t| (*t).clone())).unwrap()
    }

    #[test]
    fn reconfigure_rejects_invalid_target_atomically() {
        let mut ac = AdmissionController::new(cfg("T_N_N"), 1).unwrap();
        let t = periodic(0, 20, 0);
        assert!(ac.handle_arrival(&t, 0, Time::ZERO).unwrap().is_accept());
        let err = ac.reconfigure(cfg("T_J_N"), at(1), &set_of(&[&t])).unwrap_err();
        assert_eq!(err.config.label(), "T_J_N");
        assert_eq!(ac.config().label(), "T_N_N", "failed swap leaves the config untouched");
        assert!(ac.is_reserved(t.id()), "failed swap leaves the reservation untouched");
    }

    #[test]
    fn reconfigure_with_zero_entries_is_clean() {
        // Edge case: swap on a completely empty controller.
        let mut ac = AdmissionController::new(cfg("T_T_T"), 2).unwrap();
        let report = ac.reconfigure(cfg("J_J_J"), Time::ZERO, &set_of(&[])).unwrap();
        assert_eq!(ac.config().label(), "J_J_J");
        assert_eq!(report.entries_carried, 0);
        assert_eq!(report.reservations_drained, 0);
        assert_eq!(report.reservations_reseeded, 0);
        // The empty controller behaves exactly like a fresh per-job one.
        assert!(ac.handle_arrival(&aperiodic(0, 20, 0), 0, at(1)).unwrap().is_accept());
    }

    #[test]
    fn drain_converts_reservations_and_frees_after_deadline() {
        let mut ac = AdmissionController::new(cfg("T_N_N"), 1).unwrap();
        let t = periodic(0, 40, 0);
        assert!(ac.handle_arrival(&t, 0, Time::ZERO).unwrap().is_accept());
        // A second heavy periodic task fails and is sticky-rejected.
        let hog = periodic(1, 40, 0);
        assert!(!ac.handle_arrival(&hog, 0, at(1)).unwrap().is_accept());
        assert!(ac.is_rejected(hog.id()));

        let report = ac.reconfigure(cfg("J_N_N"), at(10), &set_of(&[&t, &hog])).unwrap();
        assert_eq!(report.reservations_drained, 1);
        assert_eq!(report.rejections_cleared, 1);
        assert_eq!(report.entries_carried, 1);
        assert!(!ac.is_reserved(t.id()));
        assert!(!ac.is_rejected(hog.id()), "sticky rejection cleared by the swap");
        // The drained contribution still guards in-flight jobs...
        assert!((ac.ledger().utilization(ProcessorId(0)) - 0.4).abs() < 1e-12);
        // ...then frees at now + deadline (10 + 100 ms).
        ac.expire(at(110));
        assert_eq!(ac.ledger().utilization(ProcessorId(0)), 0.0);
        assert_eq!(ac.current_entries(), 0);
        // Per-job semantics now apply: each job of t is tested afresh.
        assert!(ac.handle_arrival(&t, 1, at(120)).unwrap().is_accept());
        assert!(!ac.is_reserved(t.id()));
    }

    #[test]
    fn reseed_restores_pass_through_from_live_placement() {
        let mut ac = AdmissionController::new(cfg("J_N_N"), 2).unwrap();
        let t = periodic(0, 20, 0);
        assert!(ac.handle_arrival(&t, 0, Time::ZERO).unwrap().is_accept());
        let report = ac.reconfigure(cfg("T_N_N"), at(1), &set_of(&[&t])).unwrap();
        assert_eq!(report.reservations_reseeded, 1);
        assert!(ac.is_reserved(t.id()));
        // Later jobs pass through without a fresh test.
        let d = ac.handle_arrival(&t, 1, at(5)).unwrap();
        assert!(matches!(d, Decision::Accept { newly_admitted: false, .. }));
        // The reservation persists after the seeding job's deadline.
        ac.expire(at(1_000));
        assert!((ac.ledger().utilization(ProcessorId(0)) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn reseed_is_skipped_at_aub_saturation() {
        // Edge case: swap while the system is saturated by un-tested
        // remote load — reseeding must not push a violated system deeper.
        let mut ac = AdmissionController::new(cfg("J_N_N"), 1).unwrap();
        let t = periodic(0, 20, 0);
        assert!(ac.handle_arrival(&t, 0, Time::ZERO).unwrap().is_accept());
        let hog = aperiodic(1, 75, 0);
        ac.apply_remote_commit(&hog, 0, Time::ZERO, &Assignment::primaries(&hog)).unwrap();
        assert!(ac.violating_entries() > 0);

        let report = ac.reconfigure(cfg("T_N_N"), at(1), &set_of(&[&t])).unwrap();
        assert_eq!(report.reservations_reseeded, 0);
        assert_eq!(report.reseeds_skipped, 1);
        assert!(!ac.is_reserved(t.id()));
        // Utilization unchanged by the skipped reseed (0.2 + 0.75).
        assert!((ac.ledger().utilization(ProcessorId(0)) - 0.95).abs() < 1e-12);
        // Once the overload expires, the task is tested (and reserved) at
        // its next arrival as usual.
        let d = ac.handle_arrival(&t, 1, at(200)).unwrap();
        assert!(matches!(d, Decision::Accept { newly_admitted: true, .. }));
        assert!(ac.is_reserved(t.id()));
    }

    #[test]
    fn swap_back_with_drained_expiry_pending_in_heap() {
        // Edge case: T -> J drains the reservation (queueing its expiry in
        // the lazy-deletion machinery), then J -> T reseeds *before* that
        // expiry fires. The reseed converts the drained leftover back into
        // the reservation — an exact round trip — and the stale heap
        // record left behind must not disturb the revived reservation
        // when it surfaces.
        let mut ac = AdmissionController::new(cfg("T_N_N"), 1).unwrap();
        let t = periodic(0, 20, 0);
        let tasks = set_of(&[&t]);
        assert!(ac.handle_arrival(&t, 0, Time::ZERO).unwrap().is_accept());

        let drain = ac.reconfigure(cfg("J_N_N"), at(10), &tasks).unwrap();
        assert_eq!(drain.reservations_drained, 1);
        let reseed = ac.reconfigure(cfg("T_N_N"), at(20), &tasks).unwrap();
        assert_eq!(reseed.reservations_reseeded, 1, "{reseed}");
        assert!(ac.is_reserved(t.id()));
        // The conversion is utilization-neutral: no double count.
        assert!((ac.ledger().utilization(ProcessorId(0)) - 0.2).abs() < 1e-12);
        assert_eq!(ac.current_entries(), 1);

        // The drained entry's pending heap record surfaces at 10 + 100 ms;
        // the generation check must discard it, keeping the reservation.
        ac.expire(at(200));
        assert_eq!(ac.current_entries(), 1);
        assert!(ac.is_reserved(t.id()));
        assert!((ac.ledger().utilization(ProcessorId(0)) - 0.2).abs() < 1e-12);
        // And the reservation still passes jobs through.
        let d = ac.handle_arrival(&t, 7, at(210)).unwrap();
        assert!(matches!(d, Decision::Accept { newly_admitted: false, .. }));
        for b in ac.entry_bounds() {
            assert!((b.cached_lhs - b.fresh_lhs).abs() < 1e-9, "caches stale after round trip");
        }
    }

    #[test]
    fn reseed_of_partially_reset_entry_falls_back_to_additive() {
        // A job with one of two stages idle-reset cannot be converted
        // exactly; the reseed adds a full fresh reservation on top of the
        // remaining contribution (conservative, AUB-guarded).
        let two_stage = TaskBuilder::periodic(TaskId(0), Duration::from_millis(100))
            .subtask(Duration::from_millis(20), ProcessorId(0), [])
            .subtask(Duration::from_millis(20), ProcessorId(1), [])
            .build()
            .unwrap();
        let mut ac = AdmissionController::new(cfg("J_J_N"), 2).unwrap();
        assert!(ac.handle_arrival(&two_stage, 0, Time::ZERO).unwrap().is_accept());
        let job = JobId::new(TaskId(0), 0);
        ac.apply_idle_reset(ProcessorId(0), &[ContributionKey::new(job, 0)]);

        let report = ac.reconfigure(cfg("T_T_N"), at(1), &set_of(&[&two_stage])).unwrap();
        assert_eq!(report.reservations_reseeded, 1);
        assert!(ac.is_reserved(TaskId(0)));
        // P0: reservation only (0.2); P1: reservation + un-reset job
        // contribution (0.4) until the job's deadline.
        assert!((ac.ledger().utilization(ProcessorId(0)) - 0.2).abs() < 1e-12);
        assert!((ac.ledger().utilization(ProcessorId(1)) - 0.4).abs() < 1e-12);
        ac.expire(at(150));
        assert!((ac.ledger().utilization(ProcessorId(1)) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn swap_with_idle_reset_stale_heap_entry_pending() {
        // Edge case: a job contribution removed early by idle resetting
        // leaves a stale entry in the ledger's lazy-deletion heap; a swap
        // right after must not resurrect or double-free anything.
        let mut ac = AdmissionController::new(cfg("J_T_N"), 2).unwrap();
        let a = aperiodic(0, 20, 0);
        let t = periodic(1, 20, 1);
        assert!(ac.handle_arrival(&a, 0, Time::ZERO).unwrap().is_accept());
        assert!(ac.handle_arrival(&t, 0, Time::ZERO).unwrap().is_accept());
        let freed = ac
            .apply_idle_reset(ProcessorId(0), &[ContributionKey::new(JobId::new(TaskId(0), 0), 0)]);
        assert!((freed - 0.2).abs() < 1e-12);

        let report = ac.reconfigure(cfg("T_T_N"), at(1), &set_of(&[&a, &t])).unwrap();
        assert_eq!(report.reservations_reseeded, 1);
        ac.expire(at(500));
        assert_eq!(ac.ledger().utilization(ProcessorId(0)), 0.0);
        assert!((ac.ledger().utilization(ProcessorId(1)) - 0.2).abs() < 1e-12);
        assert_eq!(ac.reserved_tasks(), 1);
    }

    #[test]
    fn lb_swap_forgets_pins_and_ir_swap_is_free() {
        let mut ac = AdmissionController::new(cfg("J_N_T"), 2).unwrap();
        let replicated = TaskBuilder::aperiodic(TaskId(0))
            .deadline(Duration::from_millis(100))
            .subtask(Duration::from_millis(10), ProcessorId(0), [ProcessorId(1)])
            .build()
            .unwrap();
        assert!(ac.handle_arrival(&replicated, 0, Time::ZERO).unwrap().is_accept());
        let report = ac.reconfigure(cfg("J_J_J"), at(1), &set_of(&[&replicated])).unwrap();
        assert_eq!(report.pins_forgotten, 1);
        assert_eq!(ac.config().label(), "J_J_J");
        assert_eq!(report.reservations_drained + report.reservations_reseeded, 0);
    }

    #[test]
    fn repeated_swaps_keep_modes_agreeing() {
        // Ping-pong the full configuration while arrivals flow; the
        // incremental and brute-force decision procedures must stay in
        // lockstep, and caches must stay fresh.
        let mut inc =
            AdmissionController::with_mode(cfg("J_J_T"), 3, AdmissionMode::Incremental).unwrap();
        let mut brute =
            AdmissionController::with_mode(cfg("J_J_T"), 3, AdmissionMode::BruteForce).unwrap();
        let specs: Vec<TaskSpec> = (0..4)
            .map(|i| {
                if i % 2 == 0 {
                    periodic(i, 10 + u64::from(i), (i % 3) as u16)
                } else {
                    aperiodic(i, 8 + u64::from(i), (i % 3) as u16)
                }
            })
            .collect();
        let tasks = crate::task::TaskSet::from_tasks(specs.clone()).unwrap();
        let targets = ["T_T_T", "J_N_N", "T_N_J", "J_J_J"];
        for (round, target) in targets.iter().cycle().take(12).enumerate() {
            let now = at(round as u64 * 17);
            for (i, spec) in specs.iter().enumerate() {
                let seq = (round * specs.len() + i) as u64;
                let a = inc.handle_arrival(spec, seq, now).unwrap();
                let b = brute.handle_arrival(spec, seq, now).unwrap();
                assert_eq!(a, b, "round {round} task {i}");
            }
            let ra = inc.reconfigure(target.parse().unwrap(), now, &tasks).unwrap();
            let rb = brute.reconfigure(target.parse().unwrap(), now, &tasks).unwrap();
            assert_eq!(ra, rb, "round {round} handover diverged");
        }
        assert_eq!(inc.current_entries(), brute.current_entries());
        for b in inc.entry_bounds().iter().chain(brute.entry_bounds().iter()) {
            assert!((b.cached_lhs - b.fresh_lhs).abs() < 1e-9);
        }
    }

    #[test]
    fn stats_count_all_paths() {
        let mut ac = AdmissionController::new(cfg("T_N_N"), 1).unwrap();
        let t = periodic(0, 20, 0);
        ac.handle_arrival(&t, 0, Time::ZERO).unwrap();
        ac.handle_arrival(&t, 1, at(1)).unwrap();
        let hog = periodic(1, 60, 0);
        ac.handle_arrival(&hog, 0, at(2)).unwrap();
        let s = ac.stats();
        assert_eq!(s.tested, 2);
        assert_eq!(s.admitted, 1);
        assert_eq!(s.rejected, 1);
        assert_eq!(s.pass_throughs, 1);
    }
}
