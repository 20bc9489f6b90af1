//! Open-loop runs against the threaded `System`.
//!
//! Two benchmark threads: the generator (the calling thread) submits each
//! arrival at its intended instant, and the observer drains the job tracer
//! and, under `mode_swap`, issues the live reconfigurations. Everything
//! else that runs belongs to the system and is charged to it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration as StdDuration, Instant};

use rtcm_core::strategy::ServiceConfig;
use rtcm_rt::proto::mint_trace;
use rtcm_rt::stats::RtMetrics;
use rtcm_rt::{ReconfigReport, System, SystemReport};
use rtcm_telemetry::HistogramSnapshot;

use crate::cpu;
use crate::observe::{JobTable, Outcome, RingReader};
use crate::plan::{self, SetupTimes, Workload};
use crate::report::{Metrics, RunOutput};
use crate::spans::{Span, Spans};
use crate::stats::{median, quantile, sorted, tail, windowed};

/// Set-ups per run; `setup_s` is the fastest of them. Each repeats the
/// same work from the same seed into a fresh system, so a cost added to
/// set-up is paid by every one, the fastest included. On a shared 2-vCPU
/// guest the same set-up runs at two host speeds about 1.45x apart that
/// switch every few seconds, which made a per-run median flip between the
/// two from run to run.
const SETUP_REPEATS: u64 = 24;
/// Pause before each set-up, so one run's set-ups span several host-speed
/// phases instead of one.
const SETUP_GAP: StdDuration = StdDuration::from_millis(100);
/// Gap between the last set-up and the first intended arrival.
const LEAD_NS: u64 = 20_000_000;
/// Window length for the per-run medians of end-to-end figures.
const WINDOW_NS: u64 = 1_000_000_000;
/// The generator yields instead of sleeping this close to an instant.
const SPIN_NS: u64 = 100_000;
/// Observer poll interval (the tracer ring holds 8192 records).
const POLL: StdDuration = StdDuration::from_millis(200);
/// Upper bound on waiting for in-flight jobs after the last arrival.
const QUIESCE_TIMEOUT: StdDuration = StdDuration::from_secs(30);
/// A run whose generator was later than this at p50 fell behind its own
/// schedule: it measured the benchmark host, not the system, and is
/// declared invalid. (The tail is charged to latency, not gated: on a
/// 2-vCPU guest even a yielding thread sees ms-long stalls at p90-p99.)
pub const LATE_P50_LIMIT_US: f64 = 1_000.0;

/// One live reconfiguration as the observer saw it.
#[derive(Debug)]
struct SwapResult {
    target: ServiceConfig,
    call_ms: f64,
    result: Result<ReconfigReport, String>,
}

/// What the observer thread hands back (the job stamps go straight into
/// the run's [`JobTable`]).
struct Observed {
    tid: u32,
    reader: RingReader,
    swaps: Vec<SwapResult>,
    /// `(clock ns, system CPU ns)` at every poll.
    cpu_samples: Vec<(u64, u64)>,
    spans: Vec<Span>,
}

/// The Figure-7 op histograms, snapshotted at the window's edges.
struct OpHists {
    hold: HistogramSnapshot,
    comm: HistogramSnapshot,
    lb_plan: HistogramSnapshot,
    ac_test: HistogramSnapshot,
    release: HistogramSnapshot,
    ir_path: HistogramSnapshot,
    ir_update: HistogramSnapshot,
}

impl OpHists {
    fn take(m: &RtMetrics) -> Self {
        OpHists {
            hold: m.hold.snapshot(),
            comm: m.comm.snapshot(),
            lb_plan: m.lb_plan.snapshot(),
            ac_test: m.ac_test.snapshot(),
            release: m.release.snapshot(),
            ir_path: m.ir_path.snapshot(),
            ir_update: m.ir_update.snapshot(),
        }
    }
}

/// `after − before` for a histogram (min/max are the window end's: they
/// only clamp the in-bucket interpolation).
fn delta(before: &HistogramSnapshot, after: &HistogramSnapshot) -> HistogramSnapshot {
    HistogramSnapshot {
        buckets: after
            .buckets
            .iter()
            .enumerate()
            .map(|(i, &c)| c - before.buckets.get(i).copied().unwrap_or(0))
            .collect(),
        count: after.count - before.count,
        sum: after.sum - before.sum,
        min: after.min,
        max: after.max,
    }
}

/// Median of a histogram delta in µs, and its sample count.
fn hist_p50_us(before: &HistogramSnapshot, after: &HistogramSnapshot) -> (f64, u64) {
    let d = delta(before, after);
    (d.quantile(0.5) as f64 / 1e3, d.count)
}

/// Runs `workload` once: set-up (repeated), the open-loop window, quiesce,
/// checks, shutdown.
#[must_use]
pub fn run(workload: Workload, seed: u64, seconds: u64, traced: bool) -> RunOutput {
    let origin = Instant::now();
    let mut spans = Spans::new(origin, traced);
    let main_tid = cpu::current_tid();

    // Set-up, repeated (see SETUP_REPEATS): half before the window (the
    // last of these systems is the one measured), half after it.
    let mut setups: Vec<SetupTimes> = Vec::new();
    let mut setup = |k: u64, spans: &mut Spans| {
        std::thread::sleep(SETUP_GAP);
        let opened = spans.open();
        let (plan, mut times) = plan::build(workload, seed, seconds, spans, Some(opened.0));
        let t = Instant::now();
        let system = spans
            .time("System::launch", Some(opened.0), k, || {
                System::launch(&plan.deployment, plan.options)
            })
            .expect("engine-built deployments launch");
        times.launch = t.elapsed().as_secs_f64();
        spans.close(opened, "setup", None, k);
        setups.push(times);
        (plan, system)
    };
    for k in 1..SETUP_REPEATS / 2 {
        let (_, system) = setup(k, &mut spans);
        let _ = spans.time("System::shutdown", None, k, || system.shutdown());
    }
    let (plan, system) = setup(0, &mut spans);

    let host = system.host_id();
    let clock = system.clock();
    let ring = &system.telemetry().trace;
    let base = clock.now().as_nanos() + LEAD_NS;
    let traces: Vec<u64> = plan.arrivals.iter().map(|a| mint_trace(host, a.task, a.seq)).collect();
    let mut table = JobTable::new(
        traces
            .iter()
            .zip(&plan.arrivals)
            .filter(|(t, _)| ring.keeps(**t))
            .map(|(&t, a)| (t, base + a.offset_ns)),
    );
    let report0 = system.stats();
    let ops0 = OpHists::take(system.telemetry());

    let done = AtomicBool::new(false);
    let mut late_us = Vec::with_capacity(plan.arrivals.len());
    let mut submit_us = Vec::with_capacity(plan.arrivals.len());
    let mut submit_errors = 0u64;
    let (cpu0, observed) = std::thread::scope(|s| {
        let (tid_tx, tid_rx) = mpsc::channel();
        let observer = s.spawn(|| {
            let spans = Spans::new(origin, traced);
            observe(&system, &plan.swaps, base, &done, tid_tx, main_tid, spans, &mut table)
        });
        let obs_tid = tid_rx.recv().expect("observer reports its thread id");
        let cpu0 = cpu::system_cpu_ns(&[main_tid, obs_tid]);
        for (a, &trace) in plan.arrivals.iter().zip(&traces) {
            let due = base + a.offset_ns;
            let mut now = clock.now().as_nanos();
            while now < due {
                // Sleep overshoots by tens of µs (ms in the tail) here;
                // sleep short of the instant and yield the rest.
                match (due - now).checked_sub(SPIN_NS) {
                    Some(nap) if nap > 0 => std::thread::sleep(StdDuration::from_nanos(nap)),
                    _ => std::thread::yield_now(),
                }
                now = clock.now().as_nanos();
            }
            late_us.push((now - due) as f64 / 1e3);
            let opened = spans.open();
            let t = Instant::now();
            let submitted = system.submit(a.task, a.seq);
            submit_us.push(t.elapsed().as_nanos() as f64 / 1e3);
            spans.close(opened, "System::submit", None, trace);
            if submitted.is_err() {
                submit_errors += 1;
            }
        }
        done.store(true, Ordering::Release);
        (cpu0, observer.join().expect("observer thread"))
    });
    let Observed { tid: obs_tid, mut reader, swaps, mut cpu_samples, spans: obs_spans } = observed;
    let quiesced = spans.time("System::quiesce", None, 0, || system.quiesce(QUIESCE_TIMEOUT));
    let window_end = clock.now().as_nanos();
    reader.poll(ring, |r| table.apply(r));
    let cpu_ns = cpu::system_cpu_ns(&[main_tid, obs_tid]);
    cpu_samples.push((window_end, cpu_ns));
    let cpu_ns = cpu_ns - cpu0;
    let report1 = system.stats();
    let ops1 = OpHists::take(system.telemetry());
    let final_services = system.services();
    let _ = spans.time("System::shutdown", None, 0, || system.shutdown());
    for k in SETUP_REPEATS / 2..SETUP_REPEATS {
        let (_, system) = setup(k, &mut spans);
        let _ = spans.time("System::shutdown", None, k, || system.shutdown());
    }
    spans.items.extend(obs_spans);

    let window = Window {
        workload,
        base,
        window_end,
        submitted: plan.arrivals.len() as u64 - submit_errors,
        submit_errors,
        quiesced,
        cpu_ns,
        cpu_samples,
        intended: plan.arrivals.iter().map(|a| base + a.offset_ns).collect(),
        late_us,
        submit_us,
        setups,
    };
    let mut out = window.evaluate(&table, &reader, &report0, &report1, &ops0, &ops1);
    check_swaps(&mut out, &swaps, &plan.swaps, final_services);
    push_swap_layers(&mut out.layers, &swaps);
    out.spans = spans.items;
    out
}

/// The observer: drains the tracer into `table` every [`POLL`] and runs
/// the swap schedule, until the generator is done and no swap is left.
#[allow(clippy::too_many_arguments)]
fn observe(
    system: &System,
    schedule: &[(u64, ServiceConfig)],
    base: u64,
    done: &AtomicBool,
    tid_tx: mpsc::Sender<u32>,
    generator_tid: u32,
    mut spans: Spans,
    table: &mut JobTable,
) -> Observed {
    let tid = cpu::current_tid();
    let _ = tid_tx.send(tid);
    let clock = system.clock();
    let ring = &system.telemetry().trace;
    let mut reader = RingReader::default();
    let mut swaps = Vec::new();
    let mut cpu_samples = Vec::new();
    let mut pending = schedule.iter().peekable();
    let mut next_poll = clock.now().as_nanos();
    loop {
        let now = clock.now().as_nanos();
        if let Some(&&(offset, target)) = pending.peek() {
            if now >= base + offset {
                pending.next();
                let t = Instant::now();
                let result = spans.time("System::reconfigure", None, swaps.len() as u64, || {
                    system.reconfigure(target)
                });
                let call_ms = t.elapsed().as_secs_f64() * 1e3;
                swaps.push(SwapResult {
                    target,
                    call_ms,
                    result: result.map_err(|e| e.to_string()),
                });
                continue;
            }
        }
        if now >= next_poll {
            reader.poll(ring, |r| table.apply(r));
            cpu_samples.push((now, cpu::system_cpu_ns(&[generator_tid, tid])));
            next_poll = now + POLL.as_nanos() as u64;
        }
        if done.load(Ordering::Acquire) && pending.peek().is_none() {
            break;
        }
        let mut wake = next_poll;
        if let Some(&&(offset, _)) = pending.peek() {
            wake = wake.min(base + offset);
        }
        // Short naps keep the exit prompt once the generator finishes.
        let nap = wake.saturating_sub(clock.now().as_nanos()).min(5_000_000);
        std::thread::sleep(StdDuration::from_nanos(nap.max(1)));
    }
    Observed { tid, reader, swaps, cpu_samples, spans: spans.items }
}

/// The measured window's raw results.
struct Window {
    workload: Workload,
    base: u64,
    window_end: u64,
    submitted: u64,
    submit_errors: u64,
    quiesced: bool,
    cpu_ns: u64,
    cpu_samples: Vec<(u64, u64)>,
    /// Intended instants of every arrival (clock ns), ascending.
    intended: Vec<u64>,
    late_us: Vec<f64>,
    submit_us: Vec<f64>,
    setups: Vec<SetupTimes>,
}

impl Window {
    /// System CPU per job: the median over [`WINDOW_NS`] windows (bounded
    /// by the observer's CPU samples) of window CPU / jobs due in it; the
    /// whole-run figure when the run is shorter than two windows.
    fn cpu_per_job_us(&self) -> f64 {
        let first_at = |t: u64| self.cpu_samples.iter().find(|s| s.0 >= t).copied();
        let mut per_window = Vec::new();
        for k in 0.. {
            let start = self.base + k * WINDOW_NS;
            let (Some(a), Some(b)) = (first_at(start), first_at(start + WINDOW_NS)) else { break };
            let jobs = self.intended.iter().filter(|&&t| t >= a.0 && t < b.0).count();
            if jobs > 0 {
                per_window.push((b.1 - a.1) as f64 / 1e3 / jobs as f64);
            }
        }
        if per_window.len() < 2 {
            return self.cpu_ns as f64 / 1e3 / self.submitted.max(1) as f64;
        }
        median(&per_window)
    }

    fn evaluate(
        &self,
        table: &JobTable,
        reader: &RingReader,
        r0: &SystemReport,
        r1: &SystemReport,
        ops0: &OpHists,
        ops1: &OpHists,
    ) -> RunOutput {
        let mut out = RunOutput::default();
        let jobs = self.submitted.max(1) as f64;

        // Per-job outcomes, matched by trace id.
        let mut decision_us = Vec::new();
        let mut response_ms = Vec::new();
        let mut decision_at = Vec::new();
        let mut response_at = Vec::new();
        let (mut unresolved, mut released, mut fast, mut rejected) = (0u64, 0u64, 0u64, 0u64);
        let mut last_outcome = self.base;
        for job in &table.jobs {
            let Some((kind, at)) = job.outcome() else {
                unresolved += 1;
                continue;
            };
            last_outcome = last_outcome.max(at);
            let offset = job.intended_ns - self.base;
            decision_us.push(at.saturating_sub(job.intended_ns) as f64 / 1e3);
            decision_at.push((offset, *decision_us.last().expect("just pushed")));
            match kind {
                Outcome::Accepted | Outcome::FastPath => {
                    released += 1;
                    fast += u64::from(kind == Outcome::FastPath);
                    match job.completion_ns {
                        Some(c) => {
                            response_ms.push(c.saturating_sub(job.intended_ns) as f64 / 1e6);
                            response_at.push((offset, *response_ms.last().expect("just pushed")));
                        }
                        None => unresolved += 1,
                    }
                }
                Outcome::Rejected | Outcome::TeRejected => rejected += 1,
            }
        }
        let decision_us = sorted(&decision_us);
        let response_ms = sorted(&response_ms);

        // Counter deltas over the window.
        let arrived = r1.ratio.arrived_jobs() - r0.ratio.arrived_jobs();
        let accepted = r1.ratio.released_jobs() - r0.ratio.released_jobs();
        let completed = r1.jobs_completed - r0.jobs_completed;
        let misses = r1.deadline_misses - r0.deadline_misses;
        let dropped = r1.events_dropped - r0.events_dropped;
        let arrived_util = r1.ratio.arrived_utilization() - r0.ratio.arrived_utilization();
        let released_util = r1.ratio.released_utilization() - r0.ratio.released_utilization();

        // Correctness gate.
        let mut gate = |ok: bool, what: String| {
            if !ok {
                out.violations.push(what);
            }
        };
        gate(self.submit_errors == 0, format!("{} submits failed", self.submit_errors));
        gate(self.quiesced, "jobs still in flight at the quiesce timeout".into());
        gate(
            arrived == self.submitted,
            format!("arrived {arrived} != submitted {}", self.submitted),
        );
        gate(completed == accepted, format!("completed {completed} != accepted {accepted}"));
        gate(unresolved == 0, format!("{unresolved} traced jobs left unresolved"));
        gate(reader.gaps == 0, format!("tracer ring overran the observer {} times", reader.gaps));
        if table.jobs.len() as u64 == self.submitted {
            // Every job traced: the per-job view must close against the
            // runtime's own counters.
            gate(
                released == accepted && released + rejected == arrived,
                format!("traced {released} released + {rejected} rejected vs counters {accepted}/{arrived}"),
            );
        }
        if matches!(self.workload, Workload::SteadyMix | Workload::ModeSwap) {
            gate(misses == 0, format!("{misses} deadline misses"));
            gate(dropped == 0, format!("{dropped} events dropped"));
        }
        out.attempted = self.submitted + self.submit_errors;
        out.failed = self.submit_errors + misses + unresolved;

        let late = sorted(&self.late_us);
        if quantile(&late, 0.5) > LATE_P50_LIMIT_US {
            out.invalid = Some(format!(
                "generator p50 lateness {:.0} us exceeds {LATE_P50_LIMIT_US} us",
                quantile(&late, 0.5)
            ));
        }

        // End-to-end.
        let setup_total: Vec<f64> = self.setups.iter().map(SetupTimes::total).collect();
        let e = &mut out.e2e;
        e.push("setup_s", setup_total.iter().copied().fold(f64::INFINITY, f64::min), "s");
        e.push("decision_p50_us", windowed(&decision_at, WINDOW_NS, 0.5), "us");
        e.push("decision_p90_us", windowed(&decision_at, WINDOW_NS, 0.9), "us");
        e.push("response_p50_ms", windowed(&response_at, WINDOW_NS, 0.5), "ms");
        e.push("response_p90_ms", windowed(&response_at, WINDOW_NS, 0.9), "ms");
        e.push("accept_util_ratio", released_util / arrived_util, "ratio");
        e.push("cpu_us_per_job", self.cpu_per_job_us(), "us");
        e.push("peak_rss_mb", cpu::peak_rss_mb(), "MiB");

        // Per-layer.
        let l = &mut out.layers;
        push_setup_layers(l, &self.setups);
        let (hold, hold_n) = hist_p50_us(&ops0.hold, &ops1.hold);
        let (comm, comm_n) = hist_p50_us(&ops0.comm, &ops1.comm);
        let (lb, lb_n) = hist_p50_us(&ops0.lb_plan, &ops1.lb_plan);
        let (ac, ac_n) = hist_p50_us(&ops0.ac_test, &ops1.ac_test);
        let (rel, rel_n) = hist_p50_us(&ops0.release, &ops1.release);
        let (ir_path, ir_path_n) = hist_p50_us(&ops0.ir_path, &ops1.ir_path);
        let (ir_update, ir_update_n) = hist_p50_us(&ops0.ir_update, &ops1.ir_update);
        let per_job = |n: u64| n as f64 / jobs;
        let decisions = (r1.admission_shard_local + r1.admission_cross_shard)
            - (r0.admission_shard_local + r0.admission_cross_shard);
        let per_decision = |n: u64| n as f64 / decisions.max(1) as f64;
        l.push("rt.hold_p50_us", hold, "us");
        l.push("rt.hold_n", hold_n as f64, "count");
        l.push("rt.release_p50_us", rel, "us");
        l.push("rt.release_n", rel_n as f64, "count");
        l.push("rt.fast_path_per_job", per_job(fast), "count/job");
        l.push(
            "rt.timer_wakeups_per_job",
            per_job(r1.timer_wakeups - r0.timer_wakeups),
            "count/job",
        );
        l.push(
            "rt.reallocations_per_job",
            per_job(r1.reallocations - r0.reallocations),
            "count/job",
        );
        l.push("rt.ir_reports_per_job", per_job(r1.ir_reports - r0.ir_reports), "count/job");
        l.push("rt.ir_path_p50_us", ir_path, "us");
        l.push("rt.ir_path_n", ir_path_n as f64, "count");
        // The decision path: generator lateness, op 1 hold, op 2 to the AC,
        // op 3 plan, op 4 test, op 2 back, op 5/6 release. Op terms are the
        // histograms' exact means (their p50s carry log2 bucket error).
        // What the path leaves over is mailbox queueing and wakeups.
        let mean_us = |a: &HistogramSnapshot, b: &HistogramSnapshot| delta(a, b).mean() / 1e3;
        let path = quantile(&late, 0.5)
            + mean_us(&ops0.hold, &ops1.hold)
            + 2.0 * mean_us(&ops0.comm, &ops1.comm)
            + mean_us(&ops0.lb_plan, &ops1.lb_plan)
            + mean_us(&ops0.ac_test, &ops1.ac_test)
            + mean_us(&ops0.release, &ops1.release);
        l.push("rt.residual_p50_us", quantile(&decision_us, 0.5) - path, "us");
        l.push("events.comm_p50_us", comm, "us");
        l.push("events.comm_n", comm_n as f64, "count");
        l.push(
            "events.published_per_job",
            per_job(r1.events_published - r0.events_published),
            "count/job",
        );
        l.push(
            "events.delivered_per_job",
            per_job(r1.events_delivered - r0.events_delivered),
            "count/job",
        );
        l.push(
            "events.remote_parcels_per_job",
            per_job(r1.remote_parcels - r0.remote_parcels),
            "count/job",
        );
        l.push("events.dropped", dropped as f64, "count");
        l.push("core.lb_plan_p50_us", lb, "us");
        l.push("core.lb_plan_n", lb_n as f64, "count");
        l.push("core.ac_test_p50_us", ac, "us");
        l.push("core.ac_test_n", ac_n as f64, "count");
        l.push("core.ir_update_p50_us", ir_update, "us");
        l.push("core.ir_update_n", ir_update_n as f64, "count");
        l.push(
            "core.shard_local_per_decision",
            per_decision(r1.admission_shard_local - r0.admission_shard_local),
            "ratio",
        );
        l.push(
            "core.cross_shard_per_decision",
            per_decision(r1.admission_cross_shard - r0.admission_cross_shard),
            "ratio",
        );
        l.push(
            "core.summary_refreshes_per_decision",
            per_decision(r1.admission_summary_refreshes - r0.admission_summary_refreshes),
            "ratio",
        );
        l.push(
            "core.accepts_per_decision",
            (accepted - fast) as f64 / decisions.max(1) as f64,
            "ratio",
        );
        l.push("telemetry.trace_records_per_job", per_job(reader.consumed), "count/job");
        l.push("telemetry.trace_dropped", reader.gaps as f64, "count");
        l.push("gen.late_p50_us", quantile(&late, 0.5), "us");
        l.push("gen.late_p90_us", quantile(&late, 0.9), "us");
        l.push("gen.late_p99_us", quantile(&late, 0.99), "us");
        l.push("gen.submit_p50_us", median(&self.submit_us), "us");
        push_tails(l, &decision_us, &response_ms);
        l.push("e2e.deadline_misses", misses as f64, "count");
        l.push("e2e.quiesce_ms", (self.window_end.saturating_sub(last_outcome)) as f64 / 1e6, "ms");
        out
    }
}

/// `setup.*`: the fastest of the repeated set-up phases, in ms.
fn push_setup_layers(l: &mut Metrics, setups: &[SetupTimes]) {
    let phase =
        |f: fn(&SetupTimes) -> f64| setups.iter().map(f).fold(f64::INFINITY, f64::min) * 1e3;
    l.push("setup.generate_ms", phase(|s| s.generate), "ms");
    l.push("setup.configure_ms", phase(|s| s.configure), "ms");
    l.push("setup.launch_ms", phase(|s| s.launch), "ms");
}

/// `e2e.*_tail*`: the tail rule (highest percentile with ten samples
/// beyond it) with its quantile and sample count.
fn push_tails(l: &mut Metrics, decision: &[f64], response: &[f64]) {
    for (name, unit, sorted) in [("decision", "us", decision), ("response", "ms", response)] {
        let t = tail(sorted);
        l.push(&format!("e2e.{name}_tail"), t.map_or(0.0, |t| t.value), unit);
        l.push(&format!("e2e.{name}_tail_q"), t.map_or(0.0, |t| t.q), "quantile");
        l.push(&format!("e2e.{name}_n"), sorted.len() as f64, "count");
    }
}

fn check_swaps(
    out: &mut RunOutput,
    swaps: &[SwapResult],
    schedule: &[(u64, ServiceConfig)],
    final_services: ServiceConfig,
) {
    out.attempted += schedule.len() as u64;
    let aborted = swaps.iter().filter(|s| s.result.is_err()).count() as u64;
    out.failed += aborted;
    for s in swaps.iter().filter(|s| s.result.is_err()) {
        out.violations.push(format!("swap to {} failed: {:?}", s.target.label(), s.result));
    }
    if swaps.len() != schedule.len() {
        out.violations.push(format!("{} of {} swaps ran", swaps.len(), schedule.len()));
    }
    if let Some(&(_, last)) = schedule.last() {
        if final_services != last {
            out.violations.push(format!(
                "services ended on {} instead of {}",
                final_services.label(),
                last.label()
            ));
        }
    }
}

/// `reconfig.*`, all 0 when the workload runs no swaps.
fn push_swap_layers(l: &mut Metrics, swaps: &[SwapResult]) {
    let ok: Vec<&ReconfigReport> = swaps.iter().filter_map(|s| s.result.as_ref().ok()).collect();
    let n = ok.len().max(1) as f64;
    let calls = sorted(&swaps.iter().map(|s| s.call_ms).collect::<Vec<_>>());
    let latency: Vec<f64> = ok.iter().map(|r| r.swap_latency.as_nanos() as f64 / 1e3).collect();
    let handover = |r: &&ReconfigReport| {
        (r.handover.entries_carried
            + r.handover.reservations_drained
            + r.handover.reservations_reseeded) as f64
    };
    l.push("reconfig.swaps", swaps.len() as f64, "count");
    l.push("reconfig.call_p50_ms", quantile(&calls, 0.5), "ms");
    l.push("reconfig.call_p90_ms", quantile(&calls, 0.9), "ms");
    l.push("reconfig.swap_latency_p50_us", median(&latency), "us");
    l.push(
        "reconfig.deferred_per_swap",
        0.0 + ok.iter().map(|r| r.decisions_deferred as f64).sum::<f64>() / n,
        "count/swap",
    );
    l.push(
        "reconfig.handover_entries_per_swap",
        0.0 + ok.iter().map(handover).sum::<f64>() / n,
        "count/swap",
    );
    l.push(
        "reconfig.inflight_at_commit_max",
        ok.iter().map(|r| r.jobs_in_flight).max().unwrap_or(0) as f64,
        "count",
    );
}
