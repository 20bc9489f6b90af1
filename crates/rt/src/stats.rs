//! Shared runtime statistics, including the per-operation delay
//! accounting behind the paper's Figure 8.
//!
//! The accumulator is split along the hot/cold line:
//!
//! * **Hot-path metrics** — per-job counters, the utilization ratio parts
//!   and every per-operation delay series — live in the lock-free
//!   [`RtMetrics`] registry (`rtcm-telemetry`): recording a sample is a
//!   couple of relaxed atomic adds into a log2 histogram, so nodes, the
//!   manager, and reactor threads never touch the report mutex while
//!   jobs flow. The histograms keep exact counts/sums/extremes, so
//!   [`SharedStats::snapshot`] reconstructs the familiar
//!   [`DelayStats`] mean/min/max rows losslessly — and additionally
//!   serves p50/p90/p99/p999 within log2-bucket resolution.
//! * **Cold fields** — once-per-swap and once-per-window accounting
//!   (reconfiguration outcomes, governor gauges) — stay under the report
//!   mutex via [`SharedStats::with`], where contention is structurally
//!   impossible.
//!
//! [`SharedStats::render_exposition`] turns a report plus the live
//! registry into one Prometheus-style text page for the OAM endpoint.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant};

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use rtcm_core::metrics::{DelayStats, UtilizationRatio};
use rtcm_core::time::Duration;
use rtcm_telemetry::{
    Counter, Exposition, Gauge, Histogram, HistogramSnapshot, Registry, TraceBuffer,
};

use crate::proto::{self, ReconfigAbortReason};

/// Per-reason counts of abandoned reconfigurations, so a governor's
/// failed actuations are diagnosable from the report alone: `ack_timeout`
/// and `foreign_coordinator` count protocol aborts (a prepare was
/// published and rolled back — these also increment
/// [`SystemReport::reconfig_aborts`]); `validation` counts targets
/// refused before any phase was published.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReconfigAbortBreakdown {
    /// Prepare quorum incomplete at the ack deadline (a node or a
    /// registered bridged host never voted).
    pub ack_timeout: u64,
    /// Target failed the §4.5 validity rule.
    pub validation: u64,
    /// A quorum member refused the prepare because it was fenced for a
    /// different coordinator's in-flight swap.
    pub foreign_coordinator: u64,
}

impl ReconfigAbortBreakdown {
    /// Counts one abort of the given reason.
    pub fn record(&mut self, reason: ReconfigAbortReason) {
        match reason {
            ReconfigAbortReason::AckTimeout => self.ack_timeout += 1,
            ReconfigAbortReason::Validation => self.validation += 1,
            ReconfigAbortReason::ForeignCoordinator => self.foreign_coordinator += 1,
        }
    }

    /// Total failed reconfiguration attempts across all reasons.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.ack_timeout + self.validation + self.foreign_coordinator
    }
}

/// Snapshot of everything the runtime measured.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SystemReport {
    /// Accepted utilization ratio (arrivals weighted by `Σ C/D`).
    pub ratio: UtilizationRatio,
    /// End-to-end response times of completed jobs.
    pub response: DelayStats,
    /// Jobs that completed their last subtask.
    pub jobs_completed: u64,
    /// Completed jobs that missed their end-to-end deadline.
    pub deadline_misses: u64,
    /// Accepted jobs released on a non-primary placement.
    pub reallocations: u64,
    /// Idle-reset reports applied by the manager.
    pub ir_reports: u64,

    /// Op 1: TE hold + "Task Arrive" publish cost.
    pub hold: DelayStats,
    /// Op 2: one-way event-channel delay (TE → AC), measured directly on
    /// the shared clock.
    pub comm: DelayStats,
    /// Op 3: LB plan generation.
    pub lb_plan: DelayStats,
    /// Op 4: admission test.
    pub ac_test: DelayStats,
    /// Op 5/6: release of the first subjob at the TE.
    pub release: DelayStats,
    /// Op 7 + comm: idle-report assembly and delivery (app side; runs in
    /// idle time).
    pub ir_path: DelayStats,
    /// Op 8: synthetic-utilization update at the AC.
    pub ir_update: DelayStats,
    /// Total arrival→release delay when the job ran on its arrival
    /// processor (AC path without re-allocation).
    pub total_no_realloc: DelayStats,
    /// Total arrival→release delay when the first stage was re-allocated to
    /// a duplicate on another processor.
    pub total_realloc: DelayStats,

    /// Completed live `ServiceConfig` swaps (two-phase protocol runs that
    /// reached commit).
    pub reconfig_swaps: u64,
    /// Swaps abandoned because a node never acknowledged the prepare
    /// phase.
    pub reconfig_aborts: u64,
    /// End-to-end swap latency: reconfigure request at the AC → commit
    /// published (one sample per completed swap).
    pub reconfig_latency: DelayStats,
    /// Admission decisions deferred during prepare windows (arrivals held
    /// at the AC and decided under the new configuration after commit).
    pub reconfig_deferred: u64,
    /// Largest number of jobs in flight observed at the commit point of
    /// any swap — how much live work each handover carried.
    pub reconfig_max_inflight: i64,
    /// Per-reason breakdown of failed reconfiguration attempts (ack
    /// timeout vs. validation vs. foreign coordinator).
    pub reconfig_abort_reasons: ReconfigAbortBreakdown,

    /// Gauge: AUB headroom `1 − max_p U_p` over the admission ledger's
    /// per-processor synthetic utilizations. Refreshed by the manager once
    /// per governor sensing window (after expiring the current set), so
    /// the decision hot paths pay nothing for sensing; 0 until a governor
    /// attaches and probes.
    pub aub_slack: f64,
    /// Gauge: synthetic-utilization spread `max_p U_p − min_p U_p`,
    /// refreshed alongside [`SystemReport::aub_slack`].
    pub util_imbalance: f64,
    /// Sensing windows closed by an attached adaptation governor.
    pub governor_windows: u64,
    /// Committed swaps initiated by the governor (a subset of
    /// [`SystemReport::reconfig_swaps`]).
    pub governor_swaps: u64,
    /// Governor windows whose sense+actuate work overran one or more
    /// absolute window deadlines (each skipped boundary counts once).
    /// Windows are scheduled on absolute deadlines, so an overrun shifts
    /// no subsequent boundary — it is counted here instead of silently
    /// stretching the window like the pre-reactor loop did.
    pub governor_overruns: u64,

    /// Events published through the federation (every protocol message —
    /// arrivals, decisions, triggers, IR reports, reconfig phases,
    /// injected submissions — crosses the event fast path once).
    pub events_published: u64,
    /// Per-subscriber fan-out deliveries (local pushes plus delivered
    /// remote parcels).
    pub events_delivered: u64,
    /// Events dropped at bounded subscribers under backpressure
    /// (drop-oldest; 0 for the runtime's own unbounded mailboxes).
    pub events_dropped: u64,
    /// Parcels handed to the in-process network for cross-node delivery.
    pub remote_parcels: u64,
    /// Corrupt or undecodable frames received on this host's TCP bridges
    /// (each one closes its link).
    pub bridge_rx_errors: u64,
    /// TCP bridge links torn down for any reason (peer loss, write
    /// failure, corrupt frame, or local shutdown).
    pub bridge_disconnects: u64,
    /// Outbound events a bridge dropped for exceeding the wire frame
    /// limit.
    pub bridge_tx_dropped: u64,

    /// Timer-deadline wakeups performed by reactor threads (slice
    /// boundaries, prepare-fence deadlines, governor window boundaries,
    /// intermediate wheel cascades). An **idle** system records none:
    /// every thread parks on its mailbox with an empty wheel, where the
    /// polling design paid ~2000 wakeups/s/node. Pinned by the
    /// zero-wakeup runtime test.
    pub timer_wakeups: u64,

    /// Protocol events dropped because their payload did not decode
    /// (e.g. garbage bridged in from a TCP peer). The receiving thread
    /// drops the event and keeps running.
    pub malformed_events: u64,

    /// Admission decisions taken by the task manager's one controller:
    /// the sample count of [`SystemReport::ac_test`]. Kept under this
    /// name only because the perfbench harness reads it.
    pub admission_shard_local: u64,
    /// Always 0: there is one admission controller and no cross-shard
    /// path. Kept only because the perfbench harness reads it.
    pub admission_cross_shard: u64,
    /// Always 0: there are no shard summaries to refresh. Kept only
    /// because the perfbench harness reads it.
    pub admission_summary_refreshes: u64,
}

/// The lock-free half of the runtime's accounting: every metric a hot
/// path records lives here as an atomic counter, gauge or log2 latency
/// histogram from `rtcm-telemetry`, registered under stable
/// `rtcm_*` exposition names. [`SharedStats::snapshot`] folds these back
/// into the [`SystemReport`] rows; the OAM endpoint renders them (with
/// full bucket distributions) straight from the registry.
#[derive(Debug)]
pub struct RtMetrics {
    registry: Arc<Registry>,
    /// The bounded job/reconfig tracer shared by every thread of one
    /// system (arrival → admission → (re)allocation → release →
    /// completion, plus reconfiguration phases).
    pub trace: Arc<TraceBuffer>,

    /// Σ C/D of arrived jobs ([`UtilizationRatio`] numerator part).
    pub arrived_utilization: Arc<Gauge>,
    /// Σ C/D of released (admitted) jobs.
    pub released_utilization: Arc<Gauge>,
    /// Jobs arrived (count behind the ratio).
    pub arrived_jobs: Arc<Counter>,
    /// Jobs released (count behind the ratio).
    pub released_jobs: Arc<Counter>,
    /// Jobs that completed their last subtask.
    pub jobs_completed: Arc<Counter>,
    /// Completed jobs that missed their end-to-end deadline.
    pub deadline_misses: Arc<Counter>,
    /// Accepted jobs released on a non-primary placement.
    pub reallocations: Arc<Counter>,
    /// Idle-reset reports applied by the manager.
    pub ir_reports: Arc<Counter>,
    /// Timer-deadline wakeups performed by reactor threads.
    pub timer_wakeups: Arc<Counter>,
    /// Protocol events dropped for an undecodable payload.
    pub malformed_events: Arc<Counter>,

    /// End-to-end response times (ns).
    pub response: Arc<Histogram>,
    /// Op 1: TE hold + publish cost (ns).
    pub hold: Arc<Histogram>,
    /// Op 2: one-way TE → AC event delay (ns).
    pub comm: Arc<Histogram>,
    /// Op 3: LB plan generation (ns).
    pub lb_plan: Arc<Histogram>,
    /// Op 4: admission test (ns).
    pub ac_test: Arc<Histogram>,
    /// Op 5/6: first-subjob release at the TE (ns).
    pub release: Arc<Histogram>,
    /// Op 7 + comm: idle-report assembly and delivery (ns).
    pub ir_path: Arc<Histogram>,
    /// Op 8: synthetic-utilization update (ns).
    pub ir_update: Arc<Histogram>,
    /// Arrival→release total, no re-allocation (ns).
    pub total_no_realloc: Arc<Histogram>,
    /// Arrival→release total with re-allocation (ns).
    pub total_realloc: Arc<Histogram>,
    /// End-to-end two-phase swap latency (ns).
    pub reconfig_latency: Arc<Histogram>,
}

impl Default for RtMetrics {
    fn default() -> Self {
        RtMetrics::new()
    }
}

impl RtMetrics {
    /// Builds the registry with every runtime metric registered under its
    /// exposition name. Registration order is the scrape order (pinned by
    /// the golden exposition test).
    #[must_use]
    pub fn new() -> Self {
        RtMetrics::with_trace_sampling(1)
    }

    /// Like [`RtMetrics::new`] but the job tracer keeps only 1-in-N
    /// traces (per trace id, so jobs keep all stages or none).
    #[must_use]
    pub fn with_trace_sampling(sample_every: u64) -> Self {
        let r = Registry::new();
        RtMetrics {
            arrived_jobs: r.counter("rtcm_jobs_arrived_total", "Jobs injected at task effectors."),
            released_jobs: r
                .counter("rtcm_jobs_released_total", "Admitted jobs released for execution."),
            jobs_completed: r
                .counter("rtcm_jobs_completed_total", "Jobs that completed their last subtask."),
            deadline_misses: r.counter(
                "rtcm_deadline_misses_total",
                "Completed jobs that missed their end-to-end deadline.",
            ),
            reallocations: r.counter(
                "rtcm_reallocations_total",
                "Accepted jobs released on a non-primary placement.",
            ),
            ir_reports: r
                .counter("rtcm_ir_reports_total", "Idle-reset reports applied by the manager."),
            timer_wakeups: r.counter(
                "rtcm_timer_wakeups_total",
                "Timer-deadline wakeups performed by reactor threads.",
            ),
            malformed_events: r.counter(
                "rtcm_malformed_events_total",
                "Protocol events dropped for an undecodable payload.",
            ),
            arrived_utilization: r.gauge(
                "rtcm_arrived_utilization",
                "Cumulative utilization weight (sum C/D) of arrived jobs.",
            ),
            released_utilization: r.gauge(
                "rtcm_released_utilization",
                "Cumulative utilization weight (sum C/D) of released jobs.",
            ),
            response: r
                .histogram("rtcm_response_ns", "End-to-end response time of completed jobs."),
            hold: r.histogram("rtcm_op_hold_ns", "Op 1: TE hold plus Task-Arrive publish cost."),
            comm: r.histogram("rtcm_op_comm_ns", "Op 2: one-way TE to AC event-channel delay."),
            lb_plan: r.histogram("rtcm_op_lb_plan_ns", "Op 3: LB plan generation."),
            ac_test: r.histogram("rtcm_op_ac_test_ns", "Op 4: admission test."),
            release: r.histogram("rtcm_op_release_ns", "Op 5/6: first-subjob release at the TE."),
            ir_path: r
                .histogram("rtcm_op_ir_path_ns", "Op 7 plus comm: idle-report assembly/delivery."),
            ir_update: r.histogram("rtcm_op_ir_update_ns", "Op 8: synthetic-utilization update."),
            total_no_realloc: r.histogram(
                "rtcm_total_no_realloc_ns",
                "Arrival-to-release total without re-allocation.",
            ),
            total_realloc: r
                .histogram("rtcm_total_realloc_ns", "Arrival-to-release total with re-allocation."),
            reconfig_latency: r
                .histogram("rtcm_reconfig_latency_ns", "End-to-end two-phase swap latency."),
            trace: Arc::new(TraceBuffer::sampled(
                rtcm_telemetry::DEFAULT_TRACE_CAPACITY,
                sample_every,
            )),
            registry: Arc::new(r),
        }
    }

    /// The underlying registry (for build-info labels and rendering).
    #[must_use]
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Records a core [`Duration`] into a nanosecond histogram.
    #[inline]
    pub fn record_delay(hist: &Histogram, delay: Duration) {
        hist.record(delay.as_nanos());
    }
}

/// Reconstructs a [`DelayStats`] row from a histogram's exact parts,
/// refilling the caller's pooled snapshot instead of allocating one.
fn delay_from(hist: &Histogram, scratch: &mut HistogramSnapshot) -> DelayStats {
    hist.snapshot_into(scratch);
    DelayStats::from_parts(
        scratch.count,
        u128::from(scratch.sum),
        Duration::from_nanos(scratch.min),
        Duration::from_nanos(scratch.max),
    )
}

/// Thread-shared accumulator handed to every node.
#[derive(Debug, Default)]
pub struct SharedStats {
    /// Cold fields only (reconfiguration outcomes, governor gauges); hot
    /// paths record into [`SharedStats::metrics`] instead.
    report: Mutex<SystemReport>,
    in_flight: AtomicI64,
    metrics: RtMetrics,
    /// Completion notification: `job_out` reaching zero in-flight jobs
    /// notifies here, so `wait_quiet` blocks instead of polling.
    quiet: std::sync::Mutex<()>,
    quiet_cv: std::sync::Condvar,
}

impl SharedStats {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Arc<Self> {
        Arc::new(SharedStats::default())
    }

    /// Creates an empty accumulator whose job tracer keeps 1-in-N traces
    /// (see [`RtMetrics::with_trace_sampling`]).
    #[must_use]
    pub fn with_trace_sampling(sample_every: u64) -> Arc<Self> {
        Arc::new(SharedStats {
            metrics: RtMetrics::with_trace_sampling(sample_every),
            ..SharedStats::default()
        })
    }

    /// The lock-free telemetry registry (hot-path metric handles, job
    /// tracer).
    #[must_use]
    pub fn metrics(&self) -> &RtMetrics {
        &self.metrics
    }

    /// Runs `f` with exclusive access to the report's **cold** fields.
    /// Hot fields (per-job counters, delay series) are overwritten from
    /// the registry at snapshot time — mutate them through
    /// [`SharedStats::metrics`] instead.
    pub fn with<R>(&self, f: impl FnOnce(&mut SystemReport) -> R) -> R {
        f(&mut self.report.lock())
    }

    /// Clones the current snapshot, folding the lock-free registry back
    /// into the report's rows (delay series reconstructed from exact
    /// histogram parts).
    #[must_use]
    pub fn snapshot(&self) -> SystemReport {
        let mut report = self.report.lock().clone();
        let m = &self.metrics;
        report.ratio = UtilizationRatio::from_parts(
            m.arrived_utilization.get(),
            m.released_utilization.get(),
            m.arrived_jobs.get(),
            m.released_jobs.get(),
        );
        report.jobs_completed = m.jobs_completed.get();
        report.deadline_misses = m.deadline_misses.get();
        report.reallocations = m.reallocations.get();
        report.ir_reports = m.ir_reports.get();
        report.timer_wakeups = m.timer_wakeups.get();
        report.malformed_events = m.malformed_events.get();
        let mut scratch = HistogramSnapshot::default();
        report.response = delay_from(&m.response, &mut scratch);
        report.hold = delay_from(&m.hold, &mut scratch);
        report.comm = delay_from(&m.comm, &mut scratch);
        report.lb_plan = delay_from(&m.lb_plan, &mut scratch);
        report.ac_test = delay_from(&m.ac_test, &mut scratch);
        report.admission_shard_local = report.ac_test.count();
        report.release = delay_from(&m.release, &mut scratch);
        report.ir_path = delay_from(&m.ir_path, &mut scratch);
        report.ir_update = delay_from(&m.ir_update, &mut scratch);
        report.total_no_realloc = delay_from(&m.total_no_realloc, &mut scratch);
        report.total_realloc = delay_from(&m.total_realloc, &mut scratch);
        report.reconfig_latency = delay_from(&m.reconfig_latency, &mut scratch);
        report
    }

    /// A reactor thread woke for a timer deadline.
    pub fn timer_wakeup(&self) {
        self.metrics.timer_wakeups.inc();
    }

    /// Decodes a protocol event's payload, counting it in
    /// [`SystemReport::malformed_events`] and returning `None` if it does
    /// not decode. Every runtime thread decodes through here, so a
    /// malformed event (e.g. from a bridged peer) is dropped instead of
    /// killing the thread.
    pub(crate) fn decode<T: for<'de> Deserialize<'de>>(&self, payload: &[u8]) -> Option<T> {
        let decoded = proto::decode(payload).ok();
        if decoded.is_none() {
            self.metrics.malformed_events.inc();
        }
        decoded
    }

    /// A job entered the system (arrived at a TE).
    pub fn job_in(&self) {
        self.in_flight.fetch_add(1, Ordering::SeqCst);
    }

    /// A job left the system (completed, rejected or dropped). Reaching
    /// zero in-flight jobs notifies [`SharedStats::wait_quiet`] blockers.
    pub fn job_out(&self) {
        if self.in_flight.fetch_sub(1, Ordering::SeqCst) <= 1 {
            // Take the lock so the notification cannot slip between a
            // waiter's counter check and its wait.
            drop(self.quiet.lock().unwrap_or_else(std::sync::PoisonError::into_inner));
            self.quiet_cv.notify_all();
        }
    }

    /// Jobs currently somewhere between arrival and completion.
    #[must_use]
    pub fn in_flight(&self) -> i64 {
        self.in_flight.load(Ordering::SeqCst)
    }

    /// Blocks until no jobs are in flight (completion notification from
    /// [`SharedStats::job_out`] — no polling). Returns false on timeout.
    #[must_use]
    pub fn wait_quiet(&self, timeout: StdDuration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut guard = self.quiet.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        while self.in_flight() > 0 {
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                return false;
            };
            let (g, _) = self
                .quiet_cv
                .wait_timeout(guard, left)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            guard = g;
        }
        true
    }

    /// Renders `report` plus the live registry as one Prometheus-style
    /// text page (exposition format v0.0.4): the lock-free metrics with
    /// their full bucket distributions first, then every remaining
    /// [`SystemReport`] counter and gauge. Pass the *merged* report (with
    /// federation counters folded in) so the bridge rows are live.
    #[must_use]
    pub fn render_exposition(&self, report: &SystemReport) -> String {
        let mut e = Exposition::new();
        self.metrics.registry().render(&mut e);
        e.gauge(
            "rtcm_accepted_ratio",
            "Accepted utilization ratio (released / arrived weight).",
            report.ratio.ratio(),
        );
        e.gauge(
            "rtcm_jobs_in_flight",
            "Jobs currently between arrival and completion.",
            self.in_flight() as f64,
        );
        e.counter(
            "rtcm_reconfig_swaps_total",
            "Committed two-phase configuration swaps.",
            report.reconfig_swaps,
        );
        e.counter(
            "rtcm_reconfig_aborts_total",
            "Two-phase swaps abandoned mid-protocol.",
            report.reconfig_aborts,
        );
        e.counter(
            "rtcm_reconfig_aborts_ack_timeout_total",
            "Aborts: prepare quorum incomplete at the ack deadline.",
            report.reconfig_abort_reasons.ack_timeout,
        );
        e.counter(
            "rtcm_reconfig_aborts_validation_total",
            "Aborts: target refused by the validity rule.",
            report.reconfig_abort_reasons.validation,
        );
        e.counter(
            "rtcm_reconfig_aborts_foreign_coordinator_total",
            "Aborts: a quorum member was fenced for another coordinator.",
            report.reconfig_abort_reasons.foreign_coordinator,
        );
        e.counter(
            "rtcm_reconfig_deferred_total",
            "Admission decisions deferred during prepare windows.",
            report.reconfig_deferred,
        );
        e.gauge(
            "rtcm_reconfig_max_inflight",
            "Largest in-flight job count observed at any commit point.",
            report.reconfig_max_inflight as f64,
        );
        e.gauge(
            "rtcm_aub_slack",
            "AUB headroom (1 - max synthetic utilization).",
            report.aub_slack,
        );
        e.gauge(
            "rtcm_util_imbalance",
            "Synthetic-utilization spread across processors.",
            report.util_imbalance,
        );
        e.counter(
            "rtcm_governor_windows_total",
            "Sensing windows closed by the adaptation governor.",
            report.governor_windows,
        );
        e.counter(
            "rtcm_governor_swaps_total",
            "Committed swaps initiated by the governor.",
            report.governor_swaps,
        );
        e.counter(
            "rtcm_governor_overruns_total",
            "Governor window boundaries overrun by sense+actuate work.",
            report.governor_overruns,
        );
        e.counter(
            "rtcm_events_published_total",
            "Events published through the federation.",
            report.events_published,
        );
        e.counter(
            "rtcm_events_delivered_total",
            "Per-subscriber fan-out deliveries.",
            report.events_delivered,
        );
        e.counter(
            "rtcm_events_dropped_total",
            "Events dropped at bounded subscribers under backpressure.",
            report.events_dropped,
        );
        e.counter(
            "rtcm_remote_parcels_total",
            "Parcels handed to the in-process network for cross-node delivery.",
            report.remote_parcels,
        );
        e.counter(
            "rtcm_bridge_rx_errors_total",
            "Corrupt or undecodable frames received on TCP bridges.",
            report.bridge_rx_errors,
        );
        e.counter(
            "rtcm_bridge_disconnects_total",
            "TCP bridge links torn down for any reason.",
            report.bridge_disconnects,
        );
        e.counter(
            "rtcm_bridge_tx_dropped_total",
            "Outbound events dropped for exceeding the wire frame limit.",
            report.bridge_tx_dropped,
        );
        e.counter(
            "rtcm_trace_records_dropped_total",
            "Trace records evicted from the bounded ring.",
            self.metrics.trace.dropped(),
        );
        e.counter(
            "rtcm_trace_records_sampled_out_total",
            "Trace records discarded by the 1-in-N trace sampler.",
            self.metrics.trace.sampled_out(),
        );
        e.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtcm_core::time::Duration;

    #[test]
    fn trace_sampling_knob_reaches_the_tracer() {
        let stats = SharedStats::with_trace_sampling(8);
        assert_eq!(stats.metrics().trace.sample_every(), 8);
        assert_eq!(SharedStats::new().metrics().trace.sample_every(), 1);
    }

    #[test]
    fn metrics_fold_into_snapshot() {
        let stats = SharedStats::new();
        let m = stats.metrics();
        m.jobs_completed.add(3);
        RtMetrics::record_delay(&m.comm, Duration::from_micros(100));
        let snap = stats.snapshot();
        assert_eq!(snap.jobs_completed, 3);
        assert_eq!(snap.comm.count(), 1);
        assert_eq!(snap.comm.min(), Duration::from_micros(100));
        assert_eq!(snap.comm.max(), Duration::from_micros(100));
    }

    #[test]
    fn cold_fields_still_go_through_with() {
        let stats = SharedStats::new();
        stats.with(|r| r.governor_windows = 7);
        assert_eq!(stats.snapshot().governor_windows, 7);
    }

    #[test]
    fn ratio_reconstructs_from_parts() {
        let stats = SharedStats::new();
        let m = stats.metrics();
        m.arrived_utilization.add(0.5);
        m.arrived_jobs.inc();
        m.arrived_utilization.add(0.25);
        m.arrived_jobs.inc();
        m.released_utilization.add(0.5);
        m.released_jobs.inc();
        let ratio = stats.snapshot().ratio;
        assert_eq!(ratio.arrived_jobs(), 2);
        assert!((ratio.ratio() - (0.5 / 0.75)).abs() < 1e-12);
    }

    #[test]
    fn in_flight_counts() {
        let stats = SharedStats::new();
        stats.job_in();
        stats.job_in();
        stats.job_out();
        assert_eq!(stats.in_flight(), 1);
    }

    #[test]
    fn wait_quiet_blocks_until_drained() {
        let stats = SharedStats::new();
        assert!(stats.wait_quiet(StdDuration::from_millis(1)), "empty system is quiet");
        stats.job_in();
        assert!(!stats.wait_quiet(StdDuration::from_millis(5)), "in-flight job times out");
        let s2 = Arc::clone(&stats);
        let t = std::thread::spawn(move || {
            std::thread::sleep(StdDuration::from_millis(10));
            s2.job_out();
        });
        assert!(stats.wait_quiet(StdDuration::from_secs(5)), "notified on drain");
        t.join().unwrap();
    }

    #[test]
    fn report_serializes() {
        let stats = SharedStats::new();
        let json = serde_json::to_string(&stats.snapshot()).unwrap();
        assert!(json.contains("jobs_completed"));
    }

    #[test]
    fn exposition_covers_registry_and_report() {
        let stats = SharedStats::new();
        stats.metrics().jobs_completed.inc();
        RtMetrics::record_delay(&stats.metrics().response, Duration::from_micros(250));
        let mut report = stats.snapshot();
        report.events_published = 42;
        let page = stats.render_exposition(&report);
        assert!(page.contains("rtcm_jobs_completed_total 1"));
        assert!(page.contains("# TYPE rtcm_response_ns histogram"));
        assert!(page.contains("rtcm_response_ns_count 1"));
        assert!(page.contains("rtcm_events_published_total 42"));
    }
}
