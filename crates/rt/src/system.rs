//! The runtime system: the DAnCE-style launcher that turns a
//! [`Deployment`] into running threads — one task-manager node plus one
//! node per application processor, wired by the federated event channel.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant};

use crossbeam::channel::{bounded, unbounded, Sender};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use rtcm_config::Deployment;
use rtcm_core::admission::AdmissionController;
use rtcm_core::govern::GovernorPolicy;
use rtcm_core::priority::Priority;
use rtcm_core::reconfig::HandoverReport;
use rtcm_core::strategy::{InvalidConfigError, ServiceConfig};
use rtcm_core::task::{TaskId, TaskSet};
use rtcm_core::time::Duration;
use rtcm_events::{topics, ChannelHandle, Federation, FederationStats, Latency, NodeId};
use rtcm_telemetry::{OamRoutes, OamServer};

use crate::clock::Clock;
use crate::govern::{spawn_governor_thread, GovernorHandle};
use crate::manager::{run_manager, ManagerConfig, ManagerCtl};
use crate::node::{run_node, ExecMode, NodeConfig};
use crate::proto::{self, ReconfigAbortReason};
use crate::stats::{RtMetrics, SharedStats, SystemReport};

/// Runtime options.
#[derive(Debug, Clone, Copy)]
pub struct RtOptions {
    /// One-way network latency between nodes. Defaults to the paper's
    /// measured 283–361 µs band.
    pub latency: Latency,
    /// How subtask execution consumes time.
    pub exec: ExecMode,
    /// Dispatcher slice length (preemption granularity).
    pub slice: StdDuration,
    /// Seed for latency jitter.
    pub seed: u64,
    /// How long a reconfiguration's prepare phase waits for node acks
    /// before aborting the swap (see [`System::reconfigure`]).
    pub reconfig_ack_timeout: StdDuration,
    /// Keep 1-in-N job traces in the bounded tracer (1 = trace every
    /// job). Sampling is per trace id, so a sampled job keeps all of its
    /// lifecycle stages and an unsampled one records nothing.
    pub trace_sample_every: u64,
}

impl Default for RtOptions {
    fn default() -> Self {
        RtOptions {
            latency: Latency::Uniform {
                lo: StdDuration::from_micros(283),
                hi: StdDuration::from_micros(361),
            },
            exec: ExecMode::Sleep,
            slice: StdDuration::from_micros(200),
            seed: 0,
            reconfig_ack_timeout: StdDuration::from_secs(2),
            trace_sample_every: 1,
        }
    }
}

impl RtOptions {
    /// Options for control-plane tests: no network latency, instant
    /// execution.
    #[must_use]
    pub fn fast() -> Self {
        RtOptions { latency: Latency::None, exec: ExecMode::Noop, ..RtOptions::default() }
    }
}

/// Errors from [`System::launch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LaunchError {
    /// The deployment carries an invalid strategy combination (cannot occur
    /// for engine-built deployments).
    InvalidConfig(InvalidConfigError),
}

impl fmt::Display for LaunchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LaunchError::InvalidConfig(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for LaunchError {}

/// Errors from [`System::submit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The task is not part of the deployment.
    UnknownTask {
        /// The offending id.
        task: TaskId,
    },
    /// The system is shutting down.
    Closed,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::UnknownTask { task } => write!(f, "unknown task {task}"),
            SubmitError::Closed => f.write_str("system is shut down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Errors from [`System::reconfigure`]. A failed reconfiguration never
/// partially applies: either every node committed the new configuration,
/// or the system still runs the old one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReconfigureError {
    /// The target combination violates the §4.5 validity rule.
    InvalidConfig(InvalidConfigError),
    /// The two-phase protocol aborted: the prepare quorum (every local
    /// node plus every registered bridged host) was not satisfied — a
    /// member stayed silent past the ack timeout, or vetoed the prepare.
    /// The old configuration stays in force everywhere.
    Aborted {
        /// Why the swap was abandoned.
        reason: ReconfigAbortReason,
        /// Quorum members (local nodes + remote hosts) that acked in time.
        acked: usize,
        /// Quorum members expected to ack.
        expected: usize,
    },
    /// The system is shutting down.
    Closed,
}

impl fmt::Display for ReconfigureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReconfigureError::InvalidConfig(e) => write!(f, "{e}"),
            ReconfigureError::Aborted { reason, acked, expected } => write!(
                f,
                "reconfiguration aborted ({reason}): {acked} of {expected} quorum members \
                 acknowledged the prepare phase"
            ),
            ReconfigureError::Closed => f.write_str("system is shut down"),
        }
    }
}

impl std::error::Error for ReconfigureError {}

/// Outcome of one completed [`System::reconfigure`] call — the transition
/// cost of the swap.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReconfigReport {
    /// The protocol epoch of this swap.
    pub epoch: u64,
    /// What the admission-state handover did (entries carried,
    /// reservations drained/reseeded, ...).
    pub handover: HandoverReport,
    /// Reconfigure request at the AC → commit published.
    pub swap_latency: Duration,
    /// Admission decisions deferred during the prepare window and decided
    /// under the new configuration after commit.
    pub decisions_deferred: u64,
    /// Jobs somewhere between arrival and completion at the commit point —
    /// all carried across the swap with their guarantees intact.
    pub jobs_in_flight: i64,
    /// Local nodes that acknowledged the prepare phase (always all of them
    /// for a committed swap).
    pub acked_nodes: usize,
    /// Registered bridged hosts that acknowledged the prepare phase
    /// (always all of them for a committed swap).
    pub acked_remote: usize,
}

impl fmt::Display for ReconfigReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "swap #{} ({}) in {}: {} decisions deferred, {} jobs in flight",
            self.epoch,
            self.handover,
            self.swap_latency,
            self.decisions_deferred,
            self.jobs_in_flight
        )
    }
}

/// A running middleware system.
///
/// # Examples
///
/// ```
/// use rtcm_config::{configure, CpsCharacteristics, WorkloadSpec};
/// use rtcm_rt::{RtOptions, System};
/// use rtcm_core::task::TaskId;
///
/// let spec = WorkloadSpec::parse(
///     "workload demo\nprocessors 2\n\
///      task scan periodic period=50ms\n  subtask exec=1ms proc=0 replicas=1\n",
/// )?;
/// let deployment = configure(&spec, &CpsCharacteristics::default())?;
/// let system = System::launch(&deployment, RtOptions::fast())?;
///
/// system.submit(TaskId(0), 0)?;
/// assert!(system.quiesce(std::time::Duration::from_secs(5)));
/// let report = system.shutdown();
/// assert_eq!(report.jobs_completed, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct System {
    tasks: Arc<TaskSet>,
    swap: SwapClient,
    stats: Arc<SharedStats>,
    clock: Clock,
    federation: Federation,
    remote_voters: Arc<Mutex<HashSet<u64>>>,
    /// One channel handle per application processor: `submit` publishes
    /// injected arrivals on the processor's reserved inject topic, and
    /// shutdown publishes its control topic — launcher↔node traffic rides
    /// the same event fast path as everything else.
    node_handles: Vec<ChannelHandle>,
    mgr_shutdown: Sender<()>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

/// The reconfiguration endpoint shared by [`System::reconfigure`] and the
/// governor thread: the cached active configuration (whose lock doubles as
/// the caller-serialization token) plus the manager control channel.
#[derive(Clone)]
pub(crate) struct SwapClient {
    services: Arc<Mutex<ServiceConfig>>,
    mgr_ctl: Sender<ManagerCtl>,
    /// Publishes `topics::MANAGER_WAKE` after every control-channel send,
    /// so the manager parks on its mailbox instead of polling.
    wake: ChannelHandle,
}

impl SwapClient {
    /// The active configuration.
    pub(crate) fn services(&self) -> ServiceConfig {
        *self.services.lock()
    }

    /// Runs the two-phase protocol with the services lock held (concurrent
    /// reconfigurers — callers and the governor — queue here, so the
    /// cached value can never lag the manager's configuration).
    pub(crate) fn reconfigure(
        &self,
        target: ServiceConfig,
    ) -> Result<ReconfigReport, ReconfigureError> {
        let mut services = self.services.lock();
        self.run_swap(&mut services, target)
    }

    /// Asks the manager for fresh `(aub_slack, imbalance)` gauges (the
    /// manager expires the current set first, so an idle system's gauges
    /// still track entry expiry). `Err` once the system has shut down;
    /// `Ok(None)` if the manager is tied up past `timeout` (e.g.
    /// mid-prepare) — the caller keeps its previous gauges for that
    /// window.
    pub(crate) fn sense_gauges(
        &self,
        timeout: StdDuration,
    ) -> Result<Option<(f64, f64)>, ReconfigureError> {
        let (reply_tx, reply_rx) = bounded(1);
        self.mgr_ctl
            .send(ManagerCtl::SenseGauges { reply: reply_tx })
            .map_err(|_| ReconfigureError::Closed)?;
        self.kick();
        Ok(reply_rx.recv_timeout(timeout).ok())
    }

    /// Wakes the manager's mailbox after a control-channel send.
    fn kick(&self) {
        let _ = self.wake.publish(topics::MANAGER_WAKE, &b""[..]);
    }

    /// The channel handle control-plane threads (the governor) subscribe
    /// and publish their wake kicks on.
    pub(crate) fn ctl_channel(&self) -> &ChannelHandle {
        &self.wake
    }

    /// Validation (and its abort-reason accounting) lives in exactly one
    /// place: the manager, which every reconfigure path funnels through.
    fn run_swap(
        &self,
        services: &mut ServiceConfig,
        target: ServiceConfig,
    ) -> Result<ReconfigReport, ReconfigureError> {
        let (reply_tx, reply_rx) = bounded(1);
        self.mgr_ctl
            .send(ManagerCtl::Reconfigure { target, reply: reply_tx })
            .map_err(|_| ReconfigureError::Closed)?;
        self.kick();
        let report = reply_rx.recv().map_err(|_| ReconfigureError::Closed)??;
        *services = target;
        Ok(report)
    }
}

impl fmt::Debug for System {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("System")
            .field("services", &self.swap.services().label())
            .field("processors", &self.node_handles.len())
            .finish()
    }
}

impl System {
    /// Launches all nodes of `deployment` (the runtime half of DAnCE's
    /// plan-launcher → node-application pipeline).
    ///
    /// # Errors
    ///
    /// Returns [`LaunchError::InvalidConfig`] if the deployment's strategy
    /// combination is invalid — impossible for deployments built by
    /// `rtcm-config`, which validates first.
    pub fn launch(deployment: &Deployment, options: RtOptions) -> Result<Self, LaunchError> {
        let procs = deployment.processors;
        let tasks = Arc::new(deployment.tasks.clone());
        let priorities: Arc<HashMap<TaskId, Priority>> = Arc::new(deployment.priorities.clone());
        let services = deployment.services;
        let ac = AdmissionController::new(services, procs as usize)
            .map_err(LaunchError::InvalidConfig)?;

        let clock = Clock::new();
        let stats = SharedStats::with_trace_sampling(options.trace_sample_every);
        // Node 0 is the task manager; app processor p is node p + 1.
        let federation = Federation::new(procs + 1, options.latency, options.seed);

        let mut handles = Vec::with_capacity(procs as usize + 1);

        let (mgr_shutdown_tx, mgr_shutdown_rx) = unbounded();
        let (mgr_ctl_tx, mgr_ctl_rx) = unbounded();
        let remote_voters: Arc<Mutex<HashSet<u64>>> = Arc::new(Mutex::new(HashSet::new()));
        // Subscribe every consumer on this thread, before any node runs, so
        // no early publication can be dropped for lack of subscribers.
        let mgr_channel = federation.handle(NodeId(0)).expect("node 0 exists");
        let mgr_mailbox = mgr_channel.subscribe_many(&[
            topics::TASK_ARRIVE,
            topics::IDLE_RESET,
            topics::RECONFIG_ACK,
            topics::MANAGER_WAKE,
        ]);
        let mgr_wake = mgr_channel.clone();
        let mgr_cfg = ManagerConfig {
            ac,
            tasks: Arc::clone(&tasks),
            channel: mgr_channel,
            clock,
            stats: Arc::clone(&stats),
            processors: procs,
            ack_timeout: options.reconfig_ack_timeout,
            remote_voters: Arc::clone(&remote_voters),
            shutdown_rx: mgr_shutdown_rx,
            ctl_rx: mgr_ctl_rx,
            mailbox: mgr_mailbox,
        };
        handles.push(
            std::thread::Builder::new()
                .name("rtcm-manager".into())
                .spawn(move || run_manager(mgr_cfg))
                .expect("spawn manager thread"),
        );

        let mut node_handles = Vec::with_capacity(procs as usize);
        for p in 0..procs {
            let channel = federation.handle(NodeId(p + 1)).expect("app nodes exist");
            let mailbox = channel.subscribe_many(&[
                topics::ACCEPT,
                topics::REJECT,
                topics::TRIGGER,
                topics::RECONFIG,
                topics::inject(p),
                topics::node_ctl(p),
            ]);
            node_handles.push(channel.clone());
            let cfg = NodeConfig {
                processor: p,
                services,
                tasks: Arc::clone(&tasks),
                priorities: Arc::clone(&priorities),
                channel,
                clock,
                stats: Arc::clone(&stats),
                exec: options.exec,
                slice: options.slice,
                mailbox,
            };
            handles.push(
                std::thread::Builder::new()
                    .name(format!("rtcm-app-{p}"))
                    .spawn(move || run_node(cfg))
                    .expect("spawn node thread"),
            );
        }

        Ok(System {
            tasks,
            swap: SwapClient {
                services: Arc::new(Mutex::new(services)),
                mgr_ctl: mgr_ctl_tx,
                wake: mgr_wake,
            },
            stats,
            clock,
            federation,
            remote_voters,
            node_handles,
            mgr_shutdown: mgr_shutdown_tx,
            handles,
        })
    }

    /// The active strategy combination (reflects runtime reconfiguration).
    #[must_use]
    pub fn services(&self) -> ServiceConfig {
        self.swap.services()
    }

    /// Hot-swaps the **full service configuration** of the running system
    /// — the paper's §5 run-time attribute modification generalized from
    /// the IR axis to all three — via a quiesce-free two-phase protocol
    /// over the federated event channel (see DESIGN.md "Live
    /// reconfiguration"):
    ///
    /// 1. **Prepare**: the AC publishes a fence on `topics::RECONFIG`;
    ///    every node disables its task-effector fast path and acks.
    ///    Arrivals keep flowing (they are deferred at the AC), running
    ///    subjobs keep executing — nothing quiesces.
    /// 2. **Commit**: once all nodes acked, the admission controller
    ///    executes the ledger handover (reservations drained/reseeded,
    ///    every admitted job's contributions — and guarantee — carried),
    ///    the commit is published, nodes adopt the new configuration, and
    ///    deferred decisions are made under it.
    ///
    /// If a quorum member fails to ack within
    /// `RtOptions::reconfig_ack_timeout` (or vetoes the prepare), the swap
    /// **aborts**: an abort event lifts the fences, the old configuration
    /// stays in force everywhere, and [`ReconfigureError::Aborted`] is
    /// returned with the reason — there is no partially applied state.
    ///
    /// Bridging `topics::RECONFIG` through a TCP gateway
    /// (`rtcm_events::remote`) makes the swap observable on remote
    /// federations, the paper's multi-host testbed topology. Bridging
    /// `topics::RECONFIG_ACK` *back* and registering the remote host via
    /// [`System::register_remote_voter`] upgrades that host from observer
    /// to **voting prepare-quorum member** (see `rtcm_rt::quorum`): its
    /// ack becomes required for commit, and withholding it aborts the
    /// swap with [`ReconfigAbortReason::AckTimeout`].
    ///
    /// # Errors
    ///
    /// [`ReconfigureError::InvalidConfig`] for §4.5-invalid targets
    /// (checked before anything is touched),
    /// [`ReconfigureError::Aborted`] for aborted swaps,
    /// [`ReconfigureError::Closed`] after shutdown began.
    pub fn reconfigure(&self, target: ServiceConfig) -> Result<ReconfigReport, ReconfigureError> {
        self.swap.reconfigure(target)
    }

    /// Hot-swaps only the idle-resetting strategy — a thin wrapper over
    /// the same protocol kept for the common single-axis case. The target
    /// is derived from the current configuration *under the services
    /// lock*, so a concurrent [`System::reconfigure`] can never be
    /// silently reverted by a stale read-modify-write. The §4.5 validity
    /// rule still applies: switching to IR-per-job under per-task
    /// admission control is refused.
    ///
    /// # Errors
    ///
    /// As [`System::reconfigure`] — in particular, a swap no node
    /// acknowledged reports [`ReconfigureError::Aborted`] instead of
    /// silently half-applying.
    pub fn reconfigure_ir(
        &self,
        ir: rtcm_core::strategy::IrStrategy,
    ) -> Result<ServiceConfig, ReconfigureError> {
        let mut services = self.swap.services.lock();
        let target = ServiceConfig::new(services.ac, ir, services.lb);
        self.swap.run_swap(&mut services, target)?;
        Ok(target)
    }

    /// Attaches an **adaptation governor**: a background task that closes
    /// the sensing → policy → actuation loop every `window` by sampling
    /// this system's report (accepted ratio, AUB slack, idle-reset and
    /// deferral counters, per-processor imbalance — all maintained
    /// incrementally on paths the runtime takes anyway), evaluating
    /// `policy`, and actuating decisions through the same two-phase
    /// protocol as [`System::reconfigure`]. The governor and manual
    /// reconfigurers serialize on the same lock, so they can coexist.
    ///
    /// The returned [`GovernorHandle`] logs every decision with its
    /// outcome; dropping it (or calling [`GovernorHandle::stop`]) detaches
    /// the governor. The governor survives nothing it shouldn't: once the
    /// system shuts down, its next actuation observes `Closed` and the
    /// thread exits.
    ///
    /// # Errors
    ///
    /// Returns [`rtcm_core::govern::PolicyError`] for unusable policies
    /// (invalid targets, zero hysteresis, non-finite thresholds).
    pub fn spawn_governor(
        &self,
        policy: GovernorPolicy,
        window: StdDuration,
    ) -> Result<GovernorHandle, rtcm_core::govern::PolicyError> {
        spawn_governor_thread(
            policy,
            window,
            Arc::clone(&self.stats),
            self.swap.clone(),
            self.clock,
        )
    }

    /// Registers a TCP-bridged federation (by its `Federation::host_id`)
    /// as a **required voting member** of every subsequent
    /// reconfiguration's prepare quorum. The bridge must forward
    /// `topics::RECONFIG` out and `topics::RECONFIG_ACK` back, and the
    /// remote side must run a `rtcm_rt::quorum::QuorumMember` (or a full
    /// system's equivalent) to cast the vote. A swap already in its
    /// prepare window keeps the voter set it started with.
    ///
    /// # Panics
    ///
    /// Panics if `host` is this system's own host id: local nodes already
    /// vote under it (and a same-federation `QuorumMember` ignores
    /// own-host prepares), so registering it could never be satisfied and
    /// would wedge every subsequent swap into an ack-timeout abort.
    pub fn register_remote_voter(&self, host: u64) {
        assert_ne!(
            host,
            self.host_id(),
            "register_remote_voter takes a *remote* federation's host id; this system's own \
             nodes already vote under {host}"
        );
        self.remote_voters.lock().insert(host);
    }

    /// Removes a bridged federation from the prepare quorum (e.g. after a
    /// planned partition). Unknown ids are ignored.
    pub fn deregister_remote_voter(&self, host: u64) {
        self.remote_voters.lock().remove(&host);
    }

    /// Registered remote voting hosts.
    #[must_use]
    pub fn remote_voter_count(&self) -> usize {
        self.remote_voters.lock().len()
    }

    /// This system's federation host identity (convenience for wiring
    /// cross-host quorums).
    #[must_use]
    pub fn host_id(&self) -> u64 {
        self.federation.host_id()
    }

    /// The federated event channel this system runs on. Exposed so callers
    /// can bridge topics (e.g. `topics::RECONFIG`) to other hosts over TCP
    /// via `rtcm_events::remote`.
    #[must_use]
    pub fn federation(&self) -> &Federation {
        &self.federation
    }

    /// The deployed task set.
    #[must_use]
    pub fn tasks(&self) -> &TaskSet {
        &self.tasks
    }

    /// The shared runtime clock.
    #[must_use]
    pub fn clock(&self) -> Clock {
        self.clock
    }

    /// Injects job `seq` of `task` at the task effector of its arrival
    /// processor (its first subtask's primary).
    ///
    /// # Errors
    ///
    /// [`SubmitError::UnknownTask`] if the task is not deployed;
    /// [`SubmitError::Closed`] after shutdown began.
    pub fn submit(&self, task: TaskId, seq: u64) -> Result<(), SubmitError> {
        let spec = self.tasks.get(task).ok_or(SubmitError::UnknownTask { task })?;
        let proc = spec.subtasks()[0].primary.index();
        let handle = self.node_handles.get(proc).ok_or(SubmitError::Closed)?;
        // Count the job in *before* handing it to the node thread so that
        // quiesce() cannot observe a spuriously empty system.
        self.stats.job_in();
        // One deterministic trace id follows the job through every stage
        // (arrival, admission, release, completion) on every host.
        let msg = proto::InjectMsg {
            task,
            seq,
            trace: proto::mint_trace(self.federation.host_id(), task, seq),
        };
        // Delivered count 0 means the node's mailbox is gone (thread
        // exited): the system is shutting down.
        if handle.publish(topics::inject(proc as u16), proto::encode(&msg)) > 0 {
            Ok(())
        } else {
            self.stats.job_out();
            Err(SubmitError::Closed)
        }
    }

    /// Replays an arrival trace against wall-clock time, sped up by
    /// `speed` (1.0 = real time, 10.0 = ten times faster). Blocks until the
    /// last arrival has been submitted; call [`System::quiesce`] afterwards
    /// to wait for completions.
    ///
    /// Note that speeding up a trace compresses interarrival gaps but not
    /// execution times or deadlines, so high speed factors overload the
    /// system — useful deliberately, e.g. for stress tests.
    ///
    /// # Errors
    ///
    /// Propagates the first [`SubmitError`]; already-submitted arrivals
    /// keep running.
    ///
    /// # Panics
    ///
    /// Panics if `speed` is not finite and positive.
    pub fn replay(
        &self,
        trace: &rtcm_workload::ArrivalTrace,
        speed: f64,
    ) -> Result<(), SubmitError> {
        assert!(speed.is_finite() && speed > 0.0, "replay speed must be positive");
        let start = Instant::now();
        for arrival in trace.iter() {
            let due = StdDuration::from_nanos(replay_due_ns(arrival.time.as_nanos(), speed));
            if let Some(wait) = due.checked_sub(start.elapsed()) {
                std::thread::sleep(wait);
            }
            self.submit(arrival.task, arrival.seq)?;
        }
        Ok(())
    }

    /// Jobs currently between arrival and completion/rejection.
    #[must_use]
    pub fn in_flight(&self) -> i64 {
        self.stats.in_flight()
    }

    /// Waits until no jobs are in flight. Returns false on timeout.
    ///
    /// This blocks on the drained-notification from the last completing
    /// job (no polling): the caller wakes *at* the completion, not up to a
    /// poll period later.
    #[must_use]
    pub fn quiesce(&self, timeout: StdDuration) -> bool {
        self.stats.wait_quiet(timeout)
    }

    /// Snapshot of the statistics so far, with the federation's
    /// event-path counters (publishes, fan-out deliveries, backpressure
    /// drops, remote parcels, bridge errors/disconnects) merged in.
    #[must_use]
    pub fn stats(&self) -> SystemReport {
        self.merged_report()
    }

    /// The live telemetry plane: the lock-free counters, gauges and
    /// histograms the hot paths record into, plus the job trace buffer.
    /// Reading them never touches the report mutex.
    #[must_use]
    pub fn telemetry(&self) -> &RtMetrics {
        self.stats.metrics()
    }

    /// Mounts the OAM scrape endpoint on `addr` (port 0 for an
    /// OS-assigned port): `GET /metrics` serves the Prometheus-style text
    /// exposition of the full merged report — registry metrics plus
    /// federation event-path counters — and `GET /trace` serves the job
    /// tracer's JSON-lines dump. The endpoint outlives this system
    /// gracefully: scrapes after shutdown serve the final counters.
    ///
    /// # Errors
    ///
    /// I/O errors from binding `addr`.
    pub fn serve_oam(&self, addr: impl std::net::ToSocketAddrs) -> std::io::Result<OamServer> {
        self.stats.metrics().registry().set_build_info(vec![
            ("version".to_string(), env!("CARGO_PKG_VERSION").to_string()),
            ("config".to_string(), self.services().label()),
            ("host".to_string(), self.host_id().to_string()),
        ]);
        let stats = Arc::clone(&self.stats);
        let channel = self.swap.wake.clone();
        let trace_stats = Arc::clone(&self.stats);
        OamServer::start(
            addr,
            OamRoutes {
                metrics: Arc::new(move || {
                    let mut report = stats.snapshot();
                    fold_federation(&mut report, &channel.federation_stats());
                    stats.render_exposition(&report)
                }),
                trace: Arc::new(move || trace_stats.metrics().trace.dump_json_lines()),
            },
        )
    }

    /// Stops all node threads and returns the final report.
    #[must_use]
    pub fn shutdown(mut self) -> SystemReport {
        self.stop_threads();
        self.merged_report()
    }

    fn merged_report(&self) -> SystemReport {
        let mut report = self.stats.snapshot();
        fold_federation(&mut report, &self.federation.stats());
        report
    }

    fn stop_threads(&mut self) {
        let _ = self.mgr_shutdown.send(());
        self.swap.kick();
        for (p, handle) in self.node_handles.iter().enumerate() {
            let _ = handle.publish(topics::node_ctl(p as u16), &b""[..]);
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for System {
    fn drop(&mut self) {
        self.stop_threads();
    }
}

/// Merges the federation's event-path counters into a report snapshot.
fn fold_federation(report: &mut SystemReport, events: &FederationStats) {
    report.events_published = events.events_published;
    report.events_delivered = events.local_deliveries;
    report.events_dropped = events.events_dropped;
    report.remote_parcels = events.remote_parcels;
    report.bridge_rx_errors = events.bridge_rx_errors;
    report.bridge_disconnects = events.bridge_disconnects;
    report.bridge_tx_dropped = events.bridge_tx_dropped;
}

/// Scaled due time for a replayed arrival: `nanos / speed` in u128 integer
/// math. The speed factor is held as the rational `num / 1e9`, so every
/// nanosecond timestamp divides exactly — the old `as f64 / speed` path
/// lost nanosecond precision above 2^53 ns (~104 days of trace time) and
/// let long-trace arrival schedules drift.
fn replay_due_ns(nanos: u64, speed: f64) -> u64 {
    const SCALE: u128 = 1_000_000_000;
    // speed > 0 is asserted by the caller; max(1) guards sub-1e-9 factors.
    let num = ((speed * SCALE as f64).round() as u128).max(1);
    let due = (u128::from(nanos) * SCALE + num / 2) / num;
    u64::try_from(due).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::replay_due_ns;

    #[test]
    fn replay_due_matches_plain_division_at_small_scales() {
        assert_eq!(replay_due_ns(1_000, 10.0), 100);
        assert_eq!(replay_due_ns(1_000, 0.5), 2_000);
        assert_eq!(replay_due_ns(999, 1.0), 999);
        assert_eq!(replay_due_ns(0, 3.0), 0);
    }

    #[test]
    fn replay_due_is_exact_beyond_f64_precision() {
        // 2^60 + 12345 ns ≈ 36 years of trace time. f64 has a 53-bit
        // mantissa, so the old float path quantized this to a multiple of
        // 128 ns; integer math must not.
        let t = (1u64 << 60) + 12_345;
        assert_eq!(replay_due_ns(t, 1.0), t);
        let drifted = (t as f64 / 1.0).round() as u64;
        assert_ne!(drifted, t, "float path demonstrably drifts at this scale");
    }

    #[test]
    fn replay_due_keeps_large_interarrival_gaps_distinct() {
        // Two arrivals 10 ns apart at a large offset must stay distinct
        // and ordered after scaling — the float path collapsed them.
        let base = (1u64 << 59) + 7;
        let a = replay_due_ns(base, 2.0);
        let b = replay_due_ns(base + 10, 2.0);
        assert_eq!(b - a, 5);
    }

    #[test]
    fn replay_due_saturates_rather_than_wrapping() {
        assert_eq!(replay_due_ns(u64::MAX, 1e-9), u64::MAX);
    }
}
