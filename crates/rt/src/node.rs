//! An application-processor node: one thread hosting the task effector,
//! the idle resetter, and the prioritized subtask dispatcher (the F/I and
//! Last Subtask components of Figure 3).
//!
//! Subjobs execute in **time slices** (default 200 µs): the dispatcher
//! checks for more-urgent ready work at every slice boundary, giving
//! quasi-preemptive EDMS scheduling without relying on OS real-time
//! priorities (see DESIGN.md for this substitution). Execution itself is
//! simulated by sleeping or spinning for the subtask's execution time
//! ([`ExecMode`]).
//!
//! The loop is reactor-driven: in [`ExecMode::Sleep`] a slice boundary is a
//! timer-wheel entry and the thread parks on `min(slice deadline, mailbox)`
//! — mid-slice events are enqueued immediately but preemption still only
//! happens at the boundary. An idle node holds no wheel entries and blocks
//! on its mailbox indefinitely: **zero wakeups while idle**, where the old
//! design paid a 500 µs `recv_timeout` poll (~2000 wakeups/s/node).

use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant};

use rtcm_core::ledger::ContributionKey;
use rtcm_core::priority::Priority;
use rtcm_core::reset::IdleResetter;
use rtcm_core::strategy::{AcStrategy, LbStrategy, ServiceConfig};
use rtcm_core::task::{JobId, ProcessorId, TaskId, TaskSet};
use rtcm_core::time::{Duration, Time};
use rtcm_events::{topics, ChannelHandle, Event, EventReceiver, Topic};

use crate::clock::Clock;
use crate::proto::{
    self, AcceptMsg, ArriveMsg, IdleResetMsg, InjectMsg, ReconfigAckMsg, ReconfigMsg,
    ReconfigPhase, RejectMsg, TriggerMsg,
};
use crate::reactor::{Reactor, TimerId, Wake, DEFAULT_TICK};
use crate::stats::SharedStats;

/// How subtask execution consumes time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Sleep for the execution time (cooperative; default).
    #[default]
    Sleep,
    /// Busy-spin for the execution time (burns CPU; closest to real work).
    Spin,
    /// Complete instantly (control-plane tests).
    Noop,
}

#[derive(Debug, Clone)]
enum TeDecision {
    Admitted(Vec<u16>),
    Rejected,
}

/// Wheel tags for the node's reactor.
#[derive(Debug, Clone, Copy)]
enum NodeTimer {
    /// The current execution slice reached its boundary.
    SliceEnd,
}

#[derive(Debug)]
struct ReadySubjob {
    priority: Priority,
    enqueue_seq: u64,
    job: JobId,
    subtask: usize,
    remaining: StdDuration,
    assignment: Vec<u16>,
    arrival_ns: u64,
    deadline_ns: u64,
    trace: u64,
}

impl PartialEq for ReadySubjob {
    fn eq(&self, other: &Self) -> bool {
        self.enqueue_seq == other.enqueue_seq
    }
}
impl Eq for ReadySubjob {}
impl PartialOrd for ReadySubjob {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ReadySubjob {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.priority
            .cmp_urgency(other.priority)
            .then_with(|| other.enqueue_seq.cmp(&self.enqueue_seq))
    }
}

/// Everything a node thread needs at spawn time.
///
/// The **mailbox** is the node's single inbox: one subscription merging
/// accept/reject/trigger/reconfig traffic with this processor's reserved
/// inject and control topics, created by the *launcher* before any thread
/// starts, so no publication can race past an unsubscribed consumer. One
/// queue means one wait point and a global FIFO over everything the node
/// reacts to.
pub(crate) struct NodeConfig {
    pub processor: u16,
    pub services: ServiceConfig,
    pub tasks: Arc<TaskSet>,
    pub priorities: Arc<std::collections::HashMap<TaskId, Priority>>,
    pub channel: ChannelHandle,
    pub clock: Clock,
    pub stats: Arc<SharedStats>,
    pub exec: ExecMode,
    pub slice: StdDuration,
    pub mailbox: EventReceiver,
}

/// Runs the node loop until shutdown. Spawned by `System::launch`.
pub(crate) fn run_node(cfg: NodeConfig) {
    let mut node = Node::new(cfg);
    node.run();
}

struct Node {
    cfg: NodeConfig,
    inject_topic: Topic,
    ctl_topic: Topic,
    te_cache: std::collections::HashMap<TaskId, TeDecision>,
    resetter: IdleResetter,
    ready: BinaryHeap<ReadySubjob>,
    current: Option<ReadySubjob>,
    next_seq: u64,
    /// Set between a reconfiguration *prepare* and its *commit*/*abort*,
    /// keyed by `(coordinator, epoch)`: while fenced, the TE fast path is
    /// disabled so every arrival routes through the AC and no local
    /// decision can straddle the swap. A commit is adopted only under its
    /// matching fence, so an unrelated (e.g. bridged-in foreign) commit
    /// can never half-apply.
    fence: Option<(u64, u64)>,
    running: bool,
    /// Timer wheel + single-wait loop. In [`ExecMode::Sleep`] the pending
    /// slice boundary is the only steady-state entry.
    reactor: Reactor<Clock, NodeTimer>,
    /// Wheel entry for the in-flight slice; `Some` exactly while `current`
    /// holds a subjob mid-slice.
    slice_timer: Option<TimerId>,
    /// Wall instant the in-flight slice started (for consumed-time
    /// compensation on kernels with coarse timers).
    slice_started: Instant,
    /// Nominal length of the in-flight slice.
    slice_len: StdDuration,
    /// Scratch buffer for fired timers (avoids per-wake allocation).
    fired: Vec<(TimerId, NodeTimer)>,
}

impl Node {
    fn new(cfg: NodeConfig) -> Self {
        let resetter = IdleResetter::new(cfg.services.ir, ProcessorId(cfg.processor));
        Node {
            inject_topic: topics::inject(cfg.processor),
            ctl_topic: topics::node_ctl(cfg.processor),
            te_cache: std::collections::HashMap::new(),
            resetter,
            ready: BinaryHeap::new(),
            current: None,
            next_seq: 0,
            fence: None,
            running: true,
            reactor: Reactor::new(cfg.clock, DEFAULT_TICK),
            slice_timer: None,
            slice_started: Instant::now(),
            slice_len: StdDuration::ZERO,
            fired: Vec::new(),
            cfg,
        }
    }

    fn run(&mut self) {
        while self.running {
            let mut fired = std::mem::take(&mut self.fired);
            fired.clear();
            self.reactor.poll(&mut fired);
            for (_, timer) in fired.drain(..) {
                self.on_timer(timer);
            }
            self.fired = fired;
            self.drain_messages();
            if !self.running {
                break;
            }
            self.pump();
            if !self.running {
                break;
            }
            match self.reactor.wait(&self.cfg.mailbox) {
                Wake::Event(ev) => self.dispatch(&ev),
                Wake::Timer => self.cfg.stats.timer_wakeup(),
                // Federation gone (launcher dropped without a shutdown
                // event): nothing can ever arrive again, so stop instead
                // of spinning.
                Wake::Closed => self.running = false,
            }
        }
    }

    /// Routes one mailbox event to its handler. All node input — protocol
    /// events, injected arrivals, shutdown — arrives through the single
    /// mailbox in publish order. A payload that does not decode is dropped
    /// and counted (see [`SharedStats::decode`]).
    fn dispatch(&mut self, ev: &Event) {
        let topic = ev.topic;
        let stats = &self.cfg.stats;
        if topic == topics::ACCEPT {
            if let Some(msg) = stats.decode(&ev.payload) {
                self.on_accept(msg);
            }
        } else if topic == topics::REJECT {
            if let Some(msg) = stats.decode(&ev.payload) {
                self.on_reject(&msg);
            }
        } else if topic == topics::TRIGGER {
            if let Some(msg) = stats.decode(&ev.payload) {
                self.on_trigger(msg);
            }
        } else if topic == topics::RECONFIG {
            if let Some(msg) = stats.decode(&ev.payload) {
                self.on_reconfig(msg);
            }
        } else if topic == self.inject_topic {
            if let Some(msg) = stats.decode(&ev.payload) {
                self.on_inject(msg);
            }
        } else if topic == self.ctl_topic {
            self.running = false;
        }
    }

    /// One phase of a live reconfiguration (published by the AC on the
    /// event channel — and possibly bridged in from a remote host). Phases
    /// whose coordinator lives on a *foreign* federation are ignored
    /// outright: a bridged-in foreign swap concerns that host's nodes (and
    /// this host's `QuorumMember`, if one is attached), never this node's
    /// local configuration — so it can neither poison the fence nor
    /// half-apply.
    fn on_reconfig(&mut self, msg: ReconfigMsg) {
        if msg.host != self.cfg.channel.host_id() {
            return;
        }
        match msg.phase {
            ReconfigPhase::Prepare => {
                self.fence = Some((msg.coordinator, msg.epoch));
                let ack = ReconfigAckMsg {
                    coordinator: msg.coordinator,
                    epoch: msg.epoch,
                    host: self.cfg.channel.host_id(),
                    processor: self.cfg.processor,
                    vote: proto::ReconfigVote::Ack,
                    sent_ns: self.cfg.clock.now().as_nanos(),
                    trace: msg.trace,
                };
                self.cfg.channel.publish(topics::RECONFIG_ACK, proto::encode(&ack));
            }
            ReconfigPhase::Abort => {
                if self.fence == Some((msg.coordinator, msg.epoch)) {
                    self.fence = None;
                }
            }
            ReconfigPhase::Commit => {
                // Only the swap this node actually fenced for may commit;
                // anything else (a foreign coordinator's commit bridged in
                // without its prepare, a stale epoch) is ignored rather
                // than half-applied.
                if self.fence != Some((msg.coordinator, msg.epoch)) {
                    return;
                }
                // Adopt the committed configuration: swap the resetter
                // strategy in place and drop cached TE decisions — they
                // were taken under the old configuration (a drained
                // reservation must not keep fast-path releasing).
                self.cfg.services = msg.services;
                self.resetter.set_strategy(msg.services.ir);
                self.te_cache.clear();
                self.fence = None;
            }
        }
    }

    fn drain_messages(&mut self) {
        while let Ok(ev) = self.cfg.mailbox.try_recv() {
            self.dispatch(&ev);
            if !self.running {
                return;
            }
        }
    }

    /// The TE component: record the arrival, fast-path per-task decisions,
    /// otherwise hold and push "Task Arrive" to the AC (ops 1–2).
    fn on_inject(&mut self, inj: InjectMsg) {
        // `System::submit` already counted the job in (so quiesce() sees it
        // immediately); this thread only records the arrival weight.
        let Some(task) = self.cfg.tasks.get(inj.task) else {
            self.cfg.stats.job_out();
            return;
        };
        let m = self.cfg.stats.metrics();
        m.arrived_utilization.add(task.job_utilization());
        m.arrived_jobs.inc();
        m.trace.record(
            inj.trace,
            self.cfg.clock.now().as_nanos(),
            self.cfg.channel.host_id(),
            "arrival",
            format!("{} at proc {}", JobId::new(inj.task, inj.seq), self.cfg.processor),
        );

        // While fenced for a pending reconfiguration, the fast path is
        // disabled: every arrival routes through the AC, which defers it
        // to whichever configuration wins the swap.
        let per_task = self.fence.is_none()
            && self.cfg.services.ac == AcStrategy::PerTask
            && task.is_periodic();
        if per_task {
            match self.te_cache.get(&inj.task) {
                Some(TeDecision::Admitted(assignment))
                    if self.cfg.services.lb != LbStrategy::PerJob =>
                {
                    let assignment = assignment.clone();
                    let now = self.cfg.clock.now().as_nanos();
                    let deadline = now + task.deadline().as_nanos();
                    let job = JobId::new(inj.task, inj.seq);
                    m.released_utilization.add(task.job_utilization());
                    m.released_jobs.inc();
                    m.trace.record(
                        inj.trace,
                        now,
                        self.cfg.channel.host_id(),
                        "release",
                        format!("{job} fast path, proc {}", assignment[0]),
                    );
                    if assignment[0] == self.cfg.processor {
                        self.enqueue(job, 0, assignment, now, deadline, inj.trace);
                    } else {
                        // Release the duplicate on its processor via a
                        // trigger-style handoff.
                        let msg = TriggerMsg {
                            job,
                            next_subtask: 0,
                            assignment,
                            arrival_ns: now,
                            deadline_ns: deadline,
                            sent_ns: now,
                            trace: inj.trace,
                        };
                        self.cfg.channel.publish(topics::TRIGGER, proto::encode(&msg));
                    }
                    return;
                }
                Some(TeDecision::Rejected) => {
                    self.cfg.stats.job_out();
                    return;
                }
                _ => {}
            }
        }

        let hold_start = Instant::now();
        let arrival_ns = self.cfg.clock.now().as_nanos();
        let msg = ArriveMsg {
            job: JobId::new(inj.task, inj.seq),
            arrival_proc: self.cfg.processor,
            arrival_ns,
            sent_ns: self.cfg.clock.now().as_nanos(),
            trace: inj.trace,
        };
        self.cfg.channel.publish(topics::TASK_ARRIVE, proto::encode(&msg));
        let hold = Duration::from(hold_start.elapsed());
        self.cfg.stats.metrics().hold.record(hold.as_nanos());
    }

    /// "Accept" from the AC: the arrival TE learns the decision; the
    /// releasing TE performs the release (op 5/6).
    fn on_accept(&mut self, msg: AcceptMsg) {
        let Some(task) = self.cfg.tasks.get(msg.job.task) else { return };
        let arrival_proc = task.subtasks()[0].primary.0;

        if arrival_proc == self.cfg.processor
            && task.is_periodic()
            && self.cfg.services.ac == AcStrategy::PerTask
            && self.cfg.services.lb != LbStrategy::PerJob
        {
            self.te_cache.insert(msg.job.task, TeDecision::Admitted(msg.assignment.clone()));
        }

        if msg.release_proc != self.cfg.processor {
            return;
        }
        let release_start = Instant::now();
        let now = self.cfg.clock.now();
        let total = now.elapsed_since(Time::from_nanos(msg.arrival_ns));
        let m = self.cfg.stats.metrics();
        m.released_utilization.add(task.job_utilization());
        m.released_jobs.inc();
        if msg.release_proc == arrival_proc {
            m.total_no_realloc.record(total.as_nanos());
        } else {
            m.total_realloc.record(total.as_nanos());
        }
        if msg.assignment.iter().zip(task.subtasks()).any(|(c, s)| *c != s.primary.0) {
            m.reallocations.inc();
        }
        m.trace.record(
            msg.trace,
            now.as_nanos(),
            self.cfg.channel.host_id(),
            "release",
            format!("{} on proc {}", msg.job, msg.release_proc),
        );
        self.enqueue(msg.job, 0, msg.assignment, msg.arrival_ns, msg.deadline_ns, msg.trace);
        let release = Duration::from(release_start.elapsed());
        self.cfg.stats.metrics().release.record(release.as_nanos());
    }

    fn on_reject(&mut self, msg: &RejectMsg) {
        if msg.arrival_proc != self.cfg.processor {
            return;
        }
        if msg.task_rejected {
            self.te_cache.insert(msg.job.task, TeDecision::Rejected);
        }
        self.cfg.stats.job_out();
    }

    fn on_trigger(&mut self, msg: TriggerMsg) {
        let subtask = msg.next_subtask as usize;
        if msg.assignment.get(subtask).copied() != Some(self.cfg.processor) {
            return;
        }
        self.enqueue(msg.job, subtask, msg.assignment, msg.arrival_ns, msg.deadline_ns, msg.trace);
    }

    fn enqueue(
        &mut self,
        job: JobId,
        subtask: usize,
        assignment: Vec<u16>,
        arrival_ns: u64,
        deadline_ns: u64,
        trace: u64,
    ) {
        let Some(task) = self.cfg.tasks.get(job.task) else { return };
        let exec: StdDuration = task.subtasks()[subtask].execution_time.into();
        let remaining = match self.cfg.exec {
            ExecMode::Noop => StdDuration::ZERO,
            ExecMode::Sleep | ExecMode::Spin => exec,
        };
        let priority = self.cfg.priorities[&job.task];
        let seq = self.next_seq;
        self.next_seq += 1;
        self.ready.push(ReadySubjob {
            priority,
            enqueue_seq: seq,
            job,
            subtask,
            remaining,
            assignment,
            arrival_ns,
            deadline_ns,
            trace,
        });
    }

    /// At slice boundaries, a more urgent ready subjob preempts the current
    /// one.
    fn maybe_preempt(&mut self) {
        let preempt = match (&self.current, self.ready.peek()) {
            (Some(cur), Some(head)) => head.priority.is_higher_than(cur.priority),
            _ => false,
        };
        if preempt {
            let cur = self.current.take().expect("checked above");
            self.ready.push(cur);
        }
    }

    /// Advances execution until the node either goes mid-slice (Sleep mode:
    /// a `SliceEnd` wheel entry stands and the thread can park) or runs out
    /// of ready work. Spin and Noop modes execute inline — a spinning slice
    /// cannot park, and a no-op one completes instantly — draining the
    /// mailbox between slices exactly like the boundary discipline.
    fn pump(&mut self) {
        if self.slice_timer.is_some() {
            // Mid-slice: the boundary lives on the wheel; events are only
            // enqueued until it fires (preemption stays slice-granular).
            return;
        }
        loop {
            self.maybe_preempt();
            if self.current.is_none() {
                self.current = self.ready.pop();
            }
            let Some(mut run) = self.current.take() else {
                self.report_idle();
                return;
            };
            if run.remaining.is_zero() {
                self.complete(run);
            } else {
                let slice = run.remaining.min(self.cfg.slice);
                match self.cfg.exec {
                    ExecMode::Sleep => {
                        // Park until the boundary: the slice becomes a
                        // wheel entry and run() waits on
                        // min(boundary, mailbox).
                        self.slice_started = Instant::now();
                        self.slice_len = slice;
                        let deadline = self.cfg.clock.now().as_nanos() + slice.as_nanos() as u64;
                        self.slice_timer =
                            Some(self.reactor.schedule_at(deadline, NodeTimer::SliceEnd));
                        self.current = Some(run);
                        return;
                    }
                    ExecMode::Spin => {
                        let started = Instant::now();
                        let until = started + slice;
                        while Instant::now() < until {
                            std::hint::spin_loop();
                        }
                        // Charge the time that actually passed (see
                        // finish_slice).
                        run.remaining = run.remaining.saturating_sub(started.elapsed().max(slice));
                        if run.remaining.is_zero() {
                            self.complete(run);
                        } else {
                            self.current = Some(run);
                        }
                    }
                    ExecMode::Noop => {
                        run.remaining = StdDuration::ZERO;
                        self.complete(run);
                    }
                }
            }
            self.drain_messages();
            if !self.running {
                return;
            }
        }
    }

    /// A `SliceEnd` wheel entry fired: charge the in-flight subjob and
    /// return to the boundary state.
    fn on_timer(&mut self, timer: NodeTimer) {
        match timer {
            NodeTimer::SliceEnd => {
                self.slice_timer = None;
                if let Some(mut run) = self.current.take() {
                    // Charge the subjob for the time that actually passed:
                    // on kernels with coarse timers a 200 µs slice can
                    // overshoot past a millisecond, and without this
                    // compensation total execution would silently exceed
                    // the declared C and break deadlines the admission
                    // test guaranteed.
                    let consumed = self.slice_started.elapsed().max(self.slice_len);
                    run.remaining = run.remaining.saturating_sub(consumed);
                    if run.remaining.is_zero() {
                        self.complete(run);
                    } else {
                        self.current = Some(run);
                    }
                }
            }
        }
    }

    fn complete(&mut self, run: ReadySubjob) {
        let Some(task) = self.cfg.tasks.get(run.job.task) else { return };
        let now = self.cfg.clock.now();
        self.resetter.record_completion(
            ContributionKey::new(run.job, run.subtask),
            Time::from_nanos(run.deadline_ns),
            task.is_periodic(),
        );
        if run.subtask + 1 == task.subtasks().len() {
            let response = now.elapsed_since(Time::from_nanos(run.arrival_ns));
            let missed = now.as_nanos() > run.deadline_ns;
            let m = self.cfg.stats.metrics();
            m.response.record(response.as_nanos());
            m.jobs_completed.inc();
            if missed {
                m.deadline_misses.inc();
            }
            m.trace.record(
                run.trace,
                now.as_nanos(),
                self.cfg.channel.host_id(),
                "completion",
                format!(
                    "{} on proc {}, deadline {}",
                    run.job,
                    self.cfg.processor,
                    if missed { "missed" } else { "met" }
                ),
            );
            self.cfg.stats.job_out();
        } else {
            let msg = TriggerMsg {
                job: run.job,
                next_subtask: (run.subtask + 1) as u32,
                assignment: run.assignment,
                arrival_ns: run.arrival_ns,
                deadline_ns: run.deadline_ns,
                sent_ns: now.as_nanos(),
                trace: run.trace,
            };
            self.cfg.channel.publish(topics::TRIGGER, proto::encode(&msg));
        }
    }

    /// Idle transition: run the idle detector (op 7) once. `on_idle` drains
    /// every pending completion in one call, so no periodic probe is
    /// needed — the node then parks on its mailbox with an empty wheel
    /// until the next event arrives.
    fn report_idle(&mut self) {
        if let Some(report) = self.resetter.on_idle(self.cfg.clock.now()) {
            let started_ns = self.cfg.clock.now().as_nanos();
            let msg = IdleResetMsg {
                processor: self.cfg.processor,
                completed: report.completed.iter().map(|k| (k.job, k.subtask as u32)).collect(),
                started_ns,
            };
            self.cfg.channel.publish(topics::IDLE_RESET, proto::encode(&msg));
        }
    }
}
