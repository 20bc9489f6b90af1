//! Wire messages exchanged over the federated event channel, mirroring the
//! event payloads of Figure 3 ("Task Arrive", "Accept", "Trigger", "Idle
//! Resetting").
//!
//! Payloads are serialized with `serde_json`: human-readable in traces and
//! cheap at the message rates of a control plane (admission decisions, not
//! data). Timestamps ride along as nanoseconds on the shared
//! [`crate::clock::Clock`] axis so receivers can measure one-way delays.

use serde::{Deserialize, Serialize};

use rtcm_core::strategy::ServiceConfig;
use rtcm_core::task::{JobId, TaskId};

/// Launcher → TE: an arrival injected by `System::submit`. Rides the
/// federated event channel on the arrival processor's reserved
/// `topics::inject` topic, so submissions take the same fast path (and
/// the same mailbox wakeup) as every other middleware event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InjectMsg {
    /// The arriving task.
    pub task: TaskId,
    /// Job sequence number.
    pub seq: u64,
    /// Trace correlation id, minted at submission (`splitmix64` over host,
    /// task and sequence) and carried through every downstream protocol
    /// message — including bridged wire frames — so one job's lifecycle
    /// correlates across hosts in the OAM trace dump.
    pub trace: u64,
}

/// TE → AC: a held task awaiting an admission decision (op 1 → op 2).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArriveMsg {
    /// The arriving job.
    pub job: JobId,
    /// Processor the job arrived on (where its TE holds it).
    pub arrival_proc: u16,
    /// Arrival instant (clock ns).
    pub arrival_ns: u64,
    /// When the TE finished holding and published this event (clock ns).
    pub sent_ns: u64,
    /// Trace correlation id (see [`InjectMsg::trace`]).
    pub trace: u64,
}

/// AC → TE: release the job under the given placement.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AcceptMsg {
    /// The admitted job.
    pub job: JobId,
    /// Placement: processor per subtask.
    pub assignment: Vec<u16>,
    /// Processor whose TE must perform the release (first stage).
    pub release_proc: u16,
    /// Original arrival instant (clock ns), for end-to-end accounting.
    pub arrival_ns: u64,
    /// Absolute deadline (clock ns).
    pub deadline_ns: u64,
    /// True if this decision came from a fresh admission test (as opposed
    /// to a per-task reservation pass-through).
    pub newly_admitted: bool,
    /// When the AC published this event (clock ns).
    pub sent_ns: u64,
    /// Trace correlation id (see [`InjectMsg::trace`]).
    pub trace: u64,
}

/// AC → TE: drop the held job.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RejectMsg {
    /// The rejected job.
    pub job: JobId,
    /// Processor whose TE holds the job.
    pub arrival_proc: u16,
    /// True if the whole (periodic, per-task) task is now rejected.
    pub task_rejected: bool,
    /// Trace correlation id (see [`InjectMsg::trace`]).
    pub trace: u64,
}

/// F/I subtask → next subtask component: start the next stage.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TriggerMsg {
    /// The in-flight job.
    pub job: JobId,
    /// Index of the stage to start.
    pub next_subtask: u32,
    /// Full placement, so downstream stages can route further triggers.
    pub assignment: Vec<u16>,
    /// Original arrival instant (clock ns).
    pub arrival_ns: u64,
    /// Absolute deadline (clock ns).
    pub deadline_ns: u64,
    /// When the previous stage published this event (clock ns).
    pub sent_ns: u64,
    /// Trace correlation id (see [`InjectMsg::trace`]).
    pub trace: u64,
}

/// IR → AC: completed subjobs whose contributions may be removed (op 7).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IdleResetMsg {
    /// The idle processor.
    pub processor: u16,
    /// Completed subjobs as `(job, subtask index)` pairs.
    pub completed: Vec<(JobId, u32)>,
    /// When the idle detector started assembling the report (clock ns).
    pub started_ns: u64,
}

/// Why a two-phase reconfiguration was abandoned. Carried on the wire in
/// [`ReconfigVote::Nack`], surfaced in `ReconfigureError::Aborted`, and
/// accumulated per reason in `SystemReport::reconfig_abort_reasons` so
/// governor-triggered aborts are diagnosable after the fact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReconfigAbortReason {
    /// Not every prepare-quorum member (local node or registered bridged
    /// host) acknowledged before the ack timeout — the partition-safe
    /// default outcome when a remote federation withholds its vote.
    AckTimeout,
    /// The target combination failed the §4.5 validity rule before any
    /// phase was published.
    Validation,
    /// A quorum member refused the prepare because it was already fenced
    /// for a *different* coordinator's in-flight swap.
    ForeignCoordinator,
}

impl std::fmt::Display for ReconfigAbortReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ReconfigAbortReason::AckTimeout => "ack-timeout",
            ReconfigAbortReason::Validation => "validation",
            ReconfigAbortReason::ForeignCoordinator => "foreign-coordinator",
        })
    }
}

/// A prepare-quorum member's vote on a pending reconfiguration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReconfigVote {
    /// The member fenced its fast paths and accepts the swap.
    Ack,
    /// The member refuses the swap (e.g. it is fenced for a different
    /// coordinator); the coordinator must abort with the given reason.
    Nack(ReconfigAbortReason),
}

/// Phase of the two-phase live-reconfiguration protocol (§5's run-time
/// attribute modification, generalized to the whole `ServiceConfig`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReconfigPhase {
    /// AC → nodes: fence local fast paths (task-effector decision caches)
    /// and acknowledge; execution continues — the protocol is quiesce-free.
    Prepare,
    /// AC → nodes: the ledger handover is done; adopt `services`, clear
    /// decision caches, lift the fence.
    Commit,
    /// AC → nodes: the swap was abandoned (a node never acked); lift the
    /// fence and keep the old configuration.
    Abort,
}

/// AC → all nodes (and, when the topic is bridged, remote hosts): one
/// phase of a live `ServiceConfig` swap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReconfigMsg {
    /// Identity of the coordinating manager (unique per manager instance,
    /// process-qualified). Acks echo it so a bridged-in reconfiguration
    /// stream from *another* host's coordinator can never satisfy a local
    /// prepare quorum, and nodes commit only the swap they fenced for.
    pub coordinator: u64,
    /// Host identity of the coordinator's federation
    /// (`Federation::host_id`). Local nodes ignore phases from foreign
    /// hosts entirely — a bridged-in foreign commit can never half-apply —
    /// while bridged quorum members use it to recognize foreign prepares
    /// they must vote on.
    pub host: u64,
    /// Monotone swap epoch within the coordinator; acks echo it so a slow
    /// ack for an abandoned swap can never satisfy a later one.
    pub epoch: u64,
    /// The protocol phase.
    pub phase: ReconfigPhase,
    /// The configuration being entered (the *old* configuration for
    /// [`ReconfigPhase::Abort`]).
    pub services: ServiceConfig,
    /// When the AC published this event (clock ns).
    pub sent_ns: u64,
    /// Trace correlation id for this swap, minted deterministically from
    /// `(coordinator, epoch)` so every phase of one reconfiguration —
    /// including phases bridged to remote hosts — correlates in trace
    /// dumps without any extra wire round-trip.
    pub trace: u64,
}

/// Sentinel processor id used by bridged quorum members (which represent a
/// whole host, not one of the coordinator's application processors), so a
/// remote vote can never alias a local node's ack.
pub const QUORUM_MEMBER_PROC: u16 = u16::MAX;

/// Quorum member → AC: this member's vote on a prepare. Local nodes vote
/// [`ReconfigVote::Ack`] with their own processor id and host; bridged
/// federations vote through a `QuorumMember` carrying *their* host id and
/// [`QUORUM_MEMBER_PROC`]. The coordinator commits only once every local
/// processor **and** every registered remote host has acked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReconfigAckMsg {
    /// The coordinator whose prepare is voted on.
    pub coordinator: u64,
    /// The epoch being voted on.
    pub epoch: u64,
    /// Host identity of the voting federation.
    pub host: u64,
    /// The acknowledging processor ([`QUORUM_MEMBER_PROC`] for bridged
    /// hosts).
    pub processor: u16,
    /// The vote.
    pub vote: ReconfigVote,
    /// When the voter published this message (clock ns on the voter's
    /// clock).
    pub sent_ns: u64,
    /// The swap's trace correlation id, echoed from
    /// [`ReconfigMsg::trace`].
    pub trace: u64,
}

/// Serializes a message for the event channel.
///
/// # Panics
///
/// Never for the message types in this module (plain data).
#[must_use]
pub fn encode<T: Serialize>(msg: &T) -> Vec<u8> {
    serde_json::to_vec(msg).expect("protocol messages are plain data")
}

/// Deserializes a message from an event payload.
///
/// # Errors
///
/// Returns the parse error for a payload that is not a well-formed `T`.
/// Payloads can arrive from TCP-bridged peers, so callers drop (and
/// count) a bad event rather than trusting it.
pub fn decode<T: for<'de> Deserialize<'de>>(payload: &[u8]) -> Result<T, serde_json::Error> {
    serde_json::from_slice(payload)
}

/// Convenience: `JobId` for a `(task, seq)` pair.
#[must_use]
pub fn job(task: u32, seq: u64) -> JobId {
    JobId::new(TaskId(task), seq)
}

/// Mints a job's trace correlation id: a splitmix64 mix of the host
/// identity and the `(task, seq)` pair, so ids are deterministic per job
/// yet never collide across bridged hosts in practice.
#[must_use]
pub fn mint_trace(host: u64, task: TaskId, seq: u64) -> u64 {
    let key = (u64::from(task.0) << 40) ^ seq;
    rtcm_telemetry::splitmix64(rtcm_telemetry::splitmix64(host) ^ key)
}

/// Mints a reconfiguration's trace correlation id from the protocol
/// identity `(coordinator, epoch)`. Deterministic, so a bridged quorum
/// member derives the same id from the prepare it receives.
#[must_use]
pub fn swap_trace(coordinator: u64, epoch: u64) -> u64 {
    rtcm_telemetry::splitmix64(coordinator ^ rtcm_telemetry::splitmix64(epoch))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrive_round_trip() {
        let msg =
            ArriveMsg { job: job(3, 7), arrival_proc: 2, arrival_ns: 10, sent_ns: 12, trace: 9 };
        let back: ArriveMsg = decode(&encode(&msg)).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn accept_round_trip() {
        let msg = AcceptMsg {
            job: job(1, 0),
            assignment: vec![0, 2, 1],
            release_proc: 0,
            arrival_ns: 5,
            deadline_ns: 500,
            newly_admitted: true,
            sent_ns: 9,
            trace: 11,
        };
        let back: AcceptMsg = decode(&encode(&msg)).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn trigger_and_reset_round_trip() {
        let t = TriggerMsg {
            job: job(0, 1),
            next_subtask: 2,
            assignment: vec![0, 1, 2],
            arrival_ns: 1,
            deadline_ns: 2,
            sent_ns: 3,
            trace: 4,
        };
        let back: TriggerMsg = decode(&encode(&t)).unwrap();
        assert_eq!(back, t);

        let r = IdleResetMsg {
            processor: 1,
            completed: vec![(job(0, 1), 0), (job(2, 0), 1)],
            started_ns: 42,
        };
        let back: IdleResetMsg = decode(&encode(&r)).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn reconfig_round_trip() {
        let msg = ReconfigMsg {
            coordinator: 42,
            host: 7,
            epoch: 3,
            phase: ReconfigPhase::Prepare,
            services: "T_T_J".parse().unwrap(),
            sent_ns: 99,
            trace: swap_trace(42, 3),
        };
        let back: ReconfigMsg = decode(&encode(&msg)).unwrap();
        assert_eq!(back, msg);

        let ack = ReconfigAckMsg {
            coordinator: 42,
            epoch: 3,
            host: 7,
            processor: 1,
            vote: ReconfigVote::Ack,
            sent_ns: 120,
            trace: swap_trace(42, 3),
        };
        let back: ReconfigAckMsg = decode(&encode(&ack)).unwrap();
        assert_eq!(back, ack);

        let nack = ReconfigAckMsg {
            coordinator: 42,
            epoch: 3,
            host: 9,
            processor: QUORUM_MEMBER_PROC,
            vote: ReconfigVote::Nack(ReconfigAbortReason::ForeignCoordinator),
            sent_ns: 130,
            trace: swap_trace(42, 3),
        };
        let back: ReconfigAckMsg = decode(&encode(&nack)).unwrap();
        assert_eq!(back, nack);
        assert_eq!(ReconfigAbortReason::AckTimeout.to_string(), "ack-timeout");
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode::<ArriveMsg>(b"not json").is_err());
        assert!(decode::<ReconfigMsg>(b"{}").is_err());
    }
}
