//! Per-job outcome stamps read from the runtime's existing job tracer.
//!
//! The tracer is a fixed ring that evicts its oldest records, so the
//! observer drains it incrementally: each poll takes a snapshot and keeps
//! only the records after the last one it already consumed. A poll that
//! cannot find that record has lost records to eviction, which is counted.
//!
//! Records are matched to scheduled jobs by trace id (minted from the job
//! id), never by order: under per-task admission the task effector's fast
//! path releases a job without any admission record, so the AC's verdicts
//! and the releases do not line up one to one.

use std::collections::HashMap;

use rtcm_telemetry::{TraceBuffer, TraceRecord};

/// Incremental reader over a [`TraceBuffer`].
#[derive(Debug, Default)]
pub struct RingReader {
    last: Option<TraceRecord>,
    /// Polls that found their resume point evicted (records lost).
    pub gaps: u64,
    /// Records consumed.
    pub consumed: u64,
}

impl RingReader {
    /// Hands each record pushed since the previous poll to `apply`; none
    /// is kept.
    pub fn poll(&mut self, ring: &TraceBuffer, apply: impl FnMut(&TraceRecord)) {
        self.take_new(ring.snapshot(), apply);
    }

    fn take_new(&mut self, mut snap: Vec<TraceRecord>, apply: impl FnMut(&TraceRecord)) {
        let start = match &self.last {
            None => 0,
            Some(last) => match snap.iter().rposition(|r| r == last) {
                Some(i) => i + 1,
                None => {
                    self.gaps += 1;
                    0
                }
            },
        };
        self.consumed += (snap.len() - start) as u64;
        snap[start..].iter().for_each(apply);
        if let Some(last) = snap.pop() {
            self.last = Some(last);
        }
    }
}

/// How a job's admission was resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Released after an AC accept.
    Accepted,
    /// Released by the task effector's per-task fast path (no AC visit).
    FastPath,
    /// Rejected by the AC.
    Rejected,
    /// Rejected at the task effector from its cached per-task verdict;
    /// the tracer records only the arrival for these.
    TeRejected,
}

/// Everything stamped for one job, in clock nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct JobStamps {
    /// Intended arrival instant from the open-loop schedule.
    pub intended_ns: u64,
    /// Tracer "arrival" at the task effector.
    pub arrival_ns: Option<u64>,
    /// AC verdict instant (accept or reject).
    pub verdict_ns: Option<u64>,
    /// True when the AC verdict was a reject.
    pub verdict_rejected: bool,
    /// Release instant (AC path or fast path).
    pub release_ns: Option<u64>,
    /// True when the release came from the fast path.
    pub fast_path: bool,
    /// Last-subtask completion instant.
    pub completion_ns: Option<u64>,
    /// True when the completion missed its deadline.
    pub missed: bool,
}

impl JobStamps {
    /// The resolved outcome and its instant, once the system is quiet.
    /// `None` means the job left no trace of a decision at all.
    #[must_use]
    pub fn outcome(&self) -> Option<(Outcome, u64)> {
        if let Some(at) = self.release_ns {
            let kind = if self.fast_path { Outcome::FastPath } else { Outcome::Accepted };
            return Some((kind, at));
        }
        match (self.verdict_ns, self.arrival_ns) {
            (Some(at), _) if self.verdict_rejected => Some((Outcome::Rejected, at)),
            (Some(_), _) => None,
            (None, Some(at)) => Some((Outcome::TeRejected, at)),
            (None, None) => None,
        }
    }
}

/// Stamps for every scheduled job, keyed by trace id.
#[derive(Debug, Default)]
pub struct JobTable {
    index: HashMap<u64, usize>,
    /// One entry per scheduled job, in schedule order.
    pub jobs: Vec<JobStamps>,
}

impl JobTable {
    /// A table over `(trace id, intended ns)` pairs.
    #[must_use]
    pub fn new(scheduled: impl IntoIterator<Item = (u64, u64)>) -> Self {
        let mut table = JobTable::default();
        for (trace, intended_ns) in scheduled {
            table.index.insert(trace, table.jobs.len());
            table.jobs.push(JobStamps { intended_ns, ..JobStamps::default() });
        }
        table
    }

    /// Folds one tracer record into its job; records of other traces
    /// (swaps, unsampled jobs) are ignored.
    pub fn apply(&mut self, r: &TraceRecord) {
        let Some(&i) = self.index.get(&r.trace) else { return };
        let job = &mut self.jobs[i];
        match r.stage.as_str() {
            "arrival" => job.arrival_ns = Some(r.at_ns),
            "admission" => {
                job.verdict_ns = Some(r.at_ns);
                job.verdict_rejected = r.detail.contains("rejected");
            }
            "release" => {
                job.release_ns = Some(r.at_ns);
                job.fast_path = r.detail.contains("fast path");
            }
            "completion" => {
                job.completion_ns = Some(r.at_ns);
                job.missed = r.detail.contains("missed");
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(trace: u64, at_ns: u64, stage: &str, detail: &str) -> TraceRecord {
        TraceRecord { trace, at_ns, host: 0, stage: stage.into(), detail: detail.into() }
    }

    #[test]
    fn matches_by_trace_id_across_ac_and_fast_paths() {
        let mut t = JobTable::new([(11, 100), (22, 200), (33, 300), (44, 400)]);
        // Interleaved out of order: job 22 (fast path) resolves before job
        // 11's AC accept, job 33 is AC-rejected, job 44 is TE-rejected.
        for r in [
            rec(11, 110, "arrival", "t0#0 at proc 0"),
            rec(22, 205, "arrival", "t1#0 at proc 1"),
            rec(22, 206, "release", "t1#0 fast path, proc 1"),
            rec(33, 310, "arrival", "t2#0 at proc 2"),
            rec(11, 150, "admission", "t0#0 accepted (fresh test: true)"),
            rec(33, 350, "admission", "t2#0 rejected (task rejected: false)"),
            rec(11, 180, "release", "t0#0 on proc 0"),
            rec(44, 410, "arrival", "t3#0 at proc 0"),
            rec(22, 900, "completion", "t1#0 on proc 1, deadline met"),
            rec(11, 950, "completion", "t0#0 on proc 2, deadline missed"),
            rec(99, 1, "reconfig_prepare", "epoch 1"),
        ] {
            t.apply(&r);
        }
        let outcome = |i: usize| t.jobs[i].outcome().unwrap();
        assert_eq!(outcome(0), (Outcome::Accepted, 180));
        assert_eq!(outcome(1), (Outcome::FastPath, 206));
        assert_eq!(outcome(2), (Outcome::Rejected, 350));
        assert_eq!(outcome(3), (Outcome::TeRejected, 410));
        assert!(t.jobs[0].missed && !t.jobs[1].missed);
        // An AC accept with no release yet is unresolved, not a reject.
        let mut pending = JobTable::new([(5, 0)]);
        pending.apply(&rec(5, 1, "arrival", ""));
        pending.apply(&rec(5, 2, "admission", "t#0 accepted (fresh test: true)"));
        assert_eq!(pending.jobs[0].outcome(), None);
    }

    #[test]
    fn ring_reader_resumes_and_counts_gaps() {
        let mut reader = RingReader::default();
        let mut out = Vec::new();
        let r = |i: u64| rec(i, i, "arrival", "");
        reader.take_new(vec![r(1), r(2), r(3)], |x| out.push(x.trace));
        // The ring evicted 1 and gained 4, 5: only the new ones are taken.
        reader.take_new(vec![r(2), r(3), r(4), r(5)], |x| out.push(x.trace));
        assert_eq!(out, [1, 2, 3, 4, 5]);
        assert_eq!(reader.gaps, 0);
        // Everything up to the resume point was evicted: a gap.
        reader.take_new(vec![r(8), r(9)], |x| out.push(x.trace));
        assert_eq!(reader.gaps, 1);
        assert_eq!(reader.consumed, 7);
    }
}
