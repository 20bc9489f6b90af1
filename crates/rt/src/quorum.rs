//! Bridged-host quorum membership: the voting delegate that makes a
//! TCP-bridged federation a **full member** of the reconfiguration
//! prepare quorum instead of a passive observer.
//!
//! Topology (the paper's multi-host testbed, upgraded from §5's
//! observation to participation):
//!
//! 1. the coordinator host bridges `topics::RECONFIG` *out* and
//!    `topics::RECONFIG_ACK` *back* over a `rtcm_events::remote` gateway;
//! 2. the remote host attaches a [`QuorumMember`] to its federation and
//!    the coordinator registers the member's host id via
//!    `System::register_remote_voter`;
//! 3. every subsequent swap's prepare now *requires* the member's vote:
//!    it acks foreign prepares (fencing itself for exactly one coordinator
//!    at a time), vetoes prepares that collide with a different
//!    coordinator's in-flight swap (`ReconfigVote::Nack` with
//!    [`ForeignCoordinator`](crate::proto::ReconfigAbortReason::ForeignCoordinator)),
//!    and releases its fence on the matching commit/abort.
//!
//! Partition safety is timeout-symmetric: a member that cannot reach the
//! coordinator simply never acks, and the coordinator aborts at its ack
//! deadline with [`AckTimeout`](crate::proto::ReconfigAbortReason::AckTimeout); a member whose
//! commit/abort was lost drops its stale fence after
//! [`QuorumOptions::fence_timeout`] so one lost packet can never wedge the
//! host out of all future quorums.
//!
//! The voting/fencing logic itself lives in the pure
//! [`MemberSm`](crate::quorum_sm::MemberSm) state machine (shared with the
//! deterministic federation simulator); this module is only the threaded
//! shell around it. All fence timestamps are read off the member's
//! [`TimerDriver`] clock — never `Instant` — so the identical machine runs
//! under a skewed virtual clock in `rtcm-sim`.
//!
//! The delegate thread is reactor-driven: a standing fence's expiry
//! deadline is a timer-wheel entry, so recovery happens *at* the deadline
//! instead of up to a 20 ms poll period late, and an unfenced idle member
//! blocks on its mailbox without any wakeups. Stop requests publish a
//! `topics::QUORUM_CTL` kick so the indefinite block stays interruptible.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration as StdDuration;

use crossbeam::channel::{unbounded, Sender, TryRecvError};
use parking_lot::Mutex;

use rtcm_core::strategy::ServiceConfig;
use rtcm_events::{topics, ChannelHandle, Federation, NodeId, UnknownNodeError};
use rtcm_telemetry::{TraceBuffer, DEFAULT_TRACE_CAPACITY};

use crate::clock::{Clock, TimerDriver};
use crate::proto::{self, ReconfigMsg, ReconfigVote};
use crate::quorum_sm::{MemberReaction, MemberSm};
use crate::reactor::{Reactor, TimerId, Wake, DEFAULT_TICK};

/// Tunables for a [`QuorumMember`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuorumOptions {
    /// How long a fence may stand without its commit/abort arriving before
    /// the member forgets it (lost-packet / partition recovery).
    pub fence_timeout: StdDuration,
}

impl Default for QuorumOptions {
    fn default() -> Self {
        QuorumOptions { fence_timeout: StdDuration::from_secs(5) }
    }
}

/// A federation's voting delegate in foreign reconfiguration quorums.
/// Dropping it stops voting (the coordinator will then abort on timeout —
/// deregister the host first for a clean departure).
pub struct QuorumMember {
    host: u64,
    hold: Arc<AtomicBool>,
    malformed: Arc<AtomicU64>,
    state: Arc<Mutex<MemberSm>>,
    trace: Arc<TraceBuffer>,
    stop: Sender<()>,
    /// Publishes the `topics::QUORUM_CTL` kick that wakes the delegate's
    /// blocking mailbox wait after a stop request is enqueued.
    wake: ChannelHandle,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for QuorumMember {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QuorumMember").field("host", &self.host).finish()
    }
}

impl QuorumMember {
    /// Attaches a voting member to `federation`, publishing and consuming
    /// through `node` (use a dedicated gateway-side node). Register the
    /// returned [`QuorumMember::host_id`] at the coordinator to make this
    /// host's vote required.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownNodeError`] if `node` is outside the federation.
    pub fn attach(
        federation: &Federation,
        node: NodeId,
        options: QuorumOptions,
    ) -> Result<Self, UnknownNodeError> {
        let handle = federation.handle(node)?;
        let wake = handle.clone();
        let host = federation.host_id();
        // One merged mailbox: reconfiguration phases plus the stop kick.
        let mailbox = handle.subscribe_many(&[topics::RECONFIG, topics::QUORUM_CTL]);
        let hold = Arc::new(AtomicBool::new(false));
        let malformed = Arc::new(AtomicU64::new(0));
        let state: Arc<Mutex<MemberSm>> = Arc::new(Mutex::new(MemberSm::new()));
        let trace = Arc::new(TraceBuffer::new(DEFAULT_TRACE_CAPACITY));
        let (stop_tx, stop_rx) = unbounded::<()>();
        let clock = Clock::new();
        let fence_timeout_ns = options.fence_timeout.as_nanos() as u64;
        let thread_hold = Arc::clone(&hold);
        let thread_malformed = Arc::clone(&malformed);
        let thread_state = Arc::clone(&state);
        let thread_trace = Arc::clone(&trace);
        let thread = std::thread::Builder::new()
            .name("rtcm-quorum-member".into())
            .spawn(move || {
                let mut reactor: Reactor<Clock, ()> = Reactor::new(clock, DEFAULT_TICK);
                // Wheel entry mirroring the standing fence, keyed by
                // `(coordinator, epoch)` so a superseding prepare reslots
                // the deadline.
                let mut fence_timer: Option<(TimerId, (u64, u64))> = None;
                let mut fired: Vec<(TimerId, ())> = Vec::new();
                loop {
                    match stop_rx.try_recv() {
                        Ok(()) | Err(TryRecvError::Disconnected) => return,
                        Err(TryRecvError::Empty) => {}
                    }
                    fired.clear();
                    reactor.poll(&mut fired);
                    if !fired.is_empty() {
                        // The fence deadline fired (the only entry this
                        // wheel ever holds; intermediate cascade wakes fire
                        // nothing) — drop the stale fence *at* the
                        // deadline, not up to a poll period later.
                        fence_timer = None;
                        thread_state.lock().expire_fence(clock.now_ns(), fence_timeout_ns);
                    }
                    // Re-sync the wheel with the current fence.
                    let fence = thread_state.lock().fence();
                    match fence {
                        Some(f) => {
                            let key = (f.coordinator, f.epoch);
                            let stale = fence_timer.is_none_or(|(_, k)| k != key);
                            if stale {
                                if let Some((id, _)) = fence_timer.take() {
                                    reactor.cancel(id);
                                }
                                let deadline_ns = f.raised_ns + fence_timeout_ns;
                                let id = reactor.schedule_at(deadline_ns, ());
                                fence_timer = Some((id, key));
                            }
                        }
                        None => {
                            if let Some((id, _)) = fence_timer.take() {
                                reactor.cancel(id);
                            }
                        }
                    }
                    match reactor.wait(&mailbox) {
                        Wake::Event(ev) if ev.topic == topics::RECONFIG => {
                            // A payload that does not decode (garbage
                            // bridged in from a peer) is dropped and
                            // counted; the member keeps voting.
                            let Ok(msg) = proto::decode::<ReconfigMsg>(&ev.payload) else {
                                thread_malformed.fetch_add(1, Ordering::Relaxed);
                                continue;
                            };
                            let holding = thread_hold.load(Ordering::SeqCst);
                            let reaction = thread_state.lock().on_phase(
                                &msg,
                                host,
                                clock.now_ns(),
                                fence_timeout_ns,
                                holding,
                            );
                            react(&msg, host, &handle, clock, &thread_trace, reaction);
                        }
                        // A QUORUM_CTL kick: loop back to the stop check.
                        Wake::Event(_) | Wake::Timer => {}
                        Wake::Closed => return,
                    }
                }
            })
            .expect("spawn quorum member");
        Ok(QuorumMember {
            host,
            hold,
            malformed,
            state,
            trace,
            stop: stop_tx,
            wake,
            thread: Some(thread),
        })
    }

    /// The host identity this member votes as (its federation's id).
    #[must_use]
    pub fn host_id(&self) -> u64 {
        self.host
    }

    /// While holding, the member ignores prepares entirely — it neither
    /// fences nor votes, simulating a partitioned or crashed host. The
    /// coordinator's swap then aborts at the ack deadline.
    pub fn set_holding(&self, hold: bool) {
        self.hold.store(hold, Ordering::SeqCst);
    }

    /// Configurations whose commits this member witnessed, in order.
    #[must_use]
    pub fn observed_commits(&self) -> Vec<ServiceConfig> {
        self.state.lock().commits().to_vec()
    }

    /// Phase events dropped because their payload did not decode.
    #[must_use]
    pub fn malformed_events(&self) -> u64 {
        self.malformed.load(Ordering::Relaxed)
    }

    /// Prepares acked so far.
    #[must_use]
    pub fn ack_count(&self) -> u64 {
        self.state.lock().acks()
    }

    /// Prepares vetoed so far (foreign-coordinator collisions).
    #[must_use]
    pub fn nack_count(&self) -> u64 {
        self.state.lock().nacks()
    }

    /// True while the member is fenced for a pending foreign swap.
    #[must_use]
    pub fn is_fenced(&self) -> bool {
        self.state.lock().fence().is_some()
    }

    /// The member's trace buffer: every foreign reconfiguration phase it
    /// witnessed, keyed by the coordinator's deterministic swap trace id so
    /// dumps from both hosts correlate without extra wire traffic.
    #[must_use]
    pub fn trace(&self) -> &Arc<TraceBuffer> {
        &self.trace
    }

    /// Detaches the member, joining its thread.
    pub fn shutdown(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        let _ = self.stop.send(());
        // Kick the mailbox *after* the stop request is visible, so the
        // delegate's indefinite block wakes and observes it. Other members
        // sharing the federation just re-check their own stop channel.
        self.wake.publish(topics::QUORUM_CTL, Vec::new());
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for QuorumMember {
    fn drop(&mut self) {
        self.halt();
    }
}

/// Carries a [`MemberReaction`] out into the world: publishes the vote
/// and records the witnessed phase in the member's trace ring.
fn react(
    msg: &ReconfigMsg,
    host: u64,
    handle: &ChannelHandle,
    clock: Clock,
    trace: &Arc<TraceBuffer>,
    reaction: MemberReaction,
) {
    match reaction {
        MemberReaction::Ignored => {}
        MemberReaction::Vote(ack) => {
            trace.record(
                msg.trace,
                clock.now_ns(),
                host,
                "reconfig_prepare",
                format!(
                    "foreign epoch {} from coordinator {}, voted {}",
                    msg.epoch,
                    msg.coordinator,
                    if matches!(ack.vote, ReconfigVote::Ack) { "ack" } else { "nack" }
                ),
            );
            handle.publish(topics::RECONFIG_ACK, proto::encode(&ack));
        }
        MemberReaction::Committed(services) => {
            trace.record(
                msg.trace,
                clock.now_ns(),
                host,
                "reconfig_commit",
                format!("foreign epoch {} committed {}", msg.epoch, services.label()),
            );
        }
        MemberReaction::Aborted => {
            trace.record(
                msg.trace,
                clock.now_ns(),
                host,
                "reconfig_abort",
                format!("foreign epoch {} aborted", msg.epoch),
            );
        }
    }
}
