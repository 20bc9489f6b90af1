//! Workload definitions: everything a run submits is fixed here, from the
//! seed, before the system is launched.

use std::str::FromStr;
use std::time::Instant;

use rtcm_config::{configure_with, Deployment, WorkloadSpec};
use rtcm_core::strategy::ServiceConfig;
use rtcm_core::task::{TaskId, TaskSet};
use rtcm_core::time::Duration;
use rtcm_events::Latency;
use rtcm_rt::RtOptions;
use rtcm_workload::{ArrivalConfig, ArrivalTrace, Phasing, RandomWorkload};

use crate::spans::Spans;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Workload {
    /// The paper's §7 random workload replayed in real time under `J_J_T`.
    SteadyMix,
    /// An aperiodic flood at a fixed offered rate (arrivals/s), no network
    /// latency; almost every arrival is rejected.
    EventStorm {
        /// Offered aperiodic arrivals per second.
        rate: f64,
    },
    /// `SteadyMix` traffic plus a live swap to `T_T_T` for
    /// [`DEFENSIVE_DWELL_MS`] of every [`DEFENSIVE_EVERY_MS`].
    ModeSwap,
}

/// `event_storm`'s offered rate. `--probe-knee` put the knee (decision p90
/// leaving its low-load level) at 12–17k arrivals/s on a 2-vCPU x86-64
/// guest. At 8k/s the run-to-run spread of the decision p90 was 0.43; at
/// 1k and 2k/s it wandered more than at 4k/s (see README.md).
pub const STORM_RATE: f64 = 4_000.0;

/// `mode_swap` enters its defensive configuration once per this period...
pub const DEFENSIVE_EVERY_MS: u64 = 1_000;
/// ...and stays in it this long. A quarter of the time keeps fast-path
/// decisions (µs) a minority, so the decision median stays on the AC path
/// (at half the time it flipped between the two modes from run to run).
pub const DEFENSIVE_DWELL_MS: u64 = 250;

/// 1-in-N job tracing under `event_storm`, so the tracer ring (8192
/// records, ~1.5 s of the storm at 1-in-2) is not overrun between observer
/// polls. At 1-in-8 the response figures spread 0.09 from run to run, from
/// sampling alone.
pub const STORM_TRACE_SAMPLE: u64 = 2;

impl FromStr for Workload {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "steady_mix" => Ok(Workload::SteadyMix),
            "event_storm" => Ok(Workload::EventStorm { rate: STORM_RATE }),
            "mode_swap" => Ok(Workload::ModeSwap),
            other => Err(format!("unknown workload {other:?}")),
        }
    }
}

impl Workload {
    /// The workload's name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::SteadyMix => "steady_mix",
            Workload::EventStorm { .. } => "event_storm",
            Workload::ModeSwap => "mode_swap",
        }
    }
}

/// One arrival of the open-loop schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Planned {
    /// Intended instant, relative to the start of the measured window.
    pub offset_ns: u64,
    /// The task.
    pub task: TaskId,
    /// The job's sequence number within its task.
    pub seq: u64,
}

/// A threaded run, fully determined before launch.
#[derive(Debug)]
pub struct ThreadedPlan {
    /// The configured deployment.
    pub deployment: Deployment,
    /// Runtime options.
    pub options: RtOptions,
    /// Arrivals in intended order.
    pub arrivals: Vec<Planned>,
    /// Live reconfigurations: `(offset_ns, target)`.
    pub swaps: Vec<(u64, ServiceConfig)>,
}

/// Wall time of each set-up phase, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Task set, arrival trace and schedule generation.
    pub generate: f64,
    /// `configure_with` (spec to deployment).
    pub configure: f64,
    /// `System::launch`.
    pub launch: f64,
}

impl SetupTimes {
    /// Total set-up time.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.generate + self.configure + self.launch
    }
}

/// The §7 random workload scaled for percentiles: 48 periodic + 48
/// aperiodic tasks on 6 processors, 100 ms – 1 s deadlines, 1–5 subtasks.
/// (With 50–500 ms deadlines a stalled 2-vCPU guest made jobs miss.)
#[must_use]
pub fn steady_shape() -> RandomWorkload {
    RandomWorkload {
        periodic_tasks: 48,
        aperiodic_tasks: 48,
        subtasks: (1, 5),
        deadline: (Duration::from_millis(100), Duration::from_secs(1)),
        processors: 6,
        ..RandomWorkload::default()
    }
}

/// Seed of the fixed task sets. A workload is one deployment (drawn once
/// by the paper's generator) under a random arrival stream: `--seed` drives
/// the arrivals only, so run-to-run spread measures the system rather than
/// the spread between task sets.
pub const TASK_SET_SEED: u64 = 2008;

/// Builds the task set and open-loop schedule for `workload` over
/// `seconds`; the second value is the deployment's processor count.
///
/// # Panics
///
/// On generator parameter errors, which are fixed here and cannot come
/// from outside.
#[must_use]
pub fn generate(workload: Workload, seed: u64, seconds: u64) -> (TaskSet, u16, Vec<Planned>) {
    // The storm floods the same deployment as `steady_mix`.
    let shape = steady_shape();
    let tasks = shape.generate(TASK_SET_SEED).expect("fixed shapes are satisfiable");
    let poisson_factor = match workload {
        // Aperiodic interarrivals have mean `poisson_factor × deadline`:
        // size it so the aperiodic streams sum to `rate`.
        Workload::EventStorm { rate } => {
            tasks
                .iter()
                .filter(|t| !t.is_periodic())
                .map(|t| 1.0 / t.deadline().as_secs_f64())
                .sum::<f64>()
                / rate
        }
        _ => ArrivalConfig::default().poisson_factor,
    };
    let config = ArrivalConfig {
        horizon: Duration::from_secs(seconds),
        poisson_factor,
        phasing: Phasing::RandomPhase,
    };
    let arrivals = ArrivalTrace::generate(&tasks, &config, seed)
        .iter()
        .map(|a| Planned { offset_ns: a.time.as_nanos(), task: a.task, seq: a.seq })
        .collect();
    (tasks, shape.processors, arrivals)
}

/// The configuration `workload` starts in.
#[must_use]
pub fn initial_services() -> ServiceConfig {
    "J_J_T".parse().expect("static label")
}

/// `mode_swap`'s defensive target (as in `ModeChangeScenario`).
#[must_use]
pub fn defensive_services() -> ServiceConfig {
    "T_T_T".parse().expect("static label")
}

/// The swap schedule inside the window: into the defensive target
/// [`DEFENSIVE_DWELL_MS`] before the end of every [`DEFENSIVE_EVERY_MS`],
/// back to the initial configuration at its end.
#[must_use]
pub fn swap_schedule(seconds: u64) -> Vec<(u64, ServiceConfig)> {
    let (every, dwell) = (DEFENSIVE_EVERY_MS * 1_000_000, DEFENSIVE_DWELL_MS * 1_000_000);
    (1..)
        .flat_map(|k| [(k * every - dwell, defensive_services()), (k * every, initial_services())])
        .take_while(|&(t, _)| t < seconds * 1_000_000_000)
        .collect()
}

/// Runtime options for `workload`.
#[must_use]
pub fn options(workload: Workload, seed: u64) -> RtOptions {
    match workload {
        Workload::EventStorm { .. } => RtOptions {
            latency: Latency::None,
            seed,
            trace_sample_every: STORM_TRACE_SAMPLE,
            ..RtOptions::default()
        },
        _ => RtOptions { seed, ..RtOptions::default() },
    }
}

/// Generates and configures a threaded run, timing both phases (and
/// recording them as spans under `parent`).
#[must_use]
pub fn build(
    workload: Workload,
    seed: u64,
    seconds: u64,
    spans: &mut Spans,
    parent: Option<u64>,
) -> (ThreadedPlan, SetupTimes) {
    let t = Instant::now();
    let (tasks, processors, arrivals) =
        spans.time("generate", parent, seed, || generate(workload, seed, seconds));
    let swaps = if workload == Workload::ModeSwap { swap_schedule(seconds) } else { Vec::new() };
    let generated = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let deployment = spans.time("configure_with", parent, seed, || {
        let spec = WorkloadSpec::from_task_set(workload.name(), processors, &tasks);
        configure_with(&spec, initial_services()).expect("engine accepts generated workloads")
    });
    let configured = t.elapsed().as_secs_f64();
    let plan = ThreadedPlan { deployment, options: options(workload, seed), arrivals, swaps };
    (plan, SetupTimes { generate: generated, configure: configured, launch: 0.0 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        for w in ["steady_mix", "event_storm", "mode_swap"] {
            let w: Workload = w.parse().unwrap();
            let mut spans = Spans::new(Instant::now(), false);
            let (a, _) = build(w, 7, 3, &mut spans, None);
            let (b, _) = build(w, 7, 3, &mut spans, None);
            let (c, _) = build(w, 8, 3, &mut spans, None);
            assert_eq!(a.arrivals, b.arrivals, "{w:?}");
            assert_eq!(a.swaps, b.swaps);
            assert_eq!(a.deployment.tasks.tasks(), b.deployment.tasks.tasks());
            assert_eq!(a.deployment.tasks.tasks(), c.deployment.tasks.tasks(), "fixed task set");
            assert_ne!(a.arrivals, c.arrivals, "{w:?}: the seed must matter");
            assert!(a.arrivals.windows(2).all(|p| p[0].offset_ns <= p[1].offset_ns));
            assert!(a.arrivals.iter().all(|p| p.offset_ns < 3_000_000_000));
        }
    }

    #[test]
    fn storm_rate_is_as_configured() {
        let (_, _, arrivals) = generate(Workload::EventStorm { rate: 5_000.0 }, 3, 4);
        let per_s = arrivals.len() as f64 / 4.0;
        assert!((4_500.0..5_700.0).contains(&per_s), "offered {per_s}/s");
    }

    #[test]
    fn swaps_alternate_and_end_inside_the_window() {
        let s = swap_schedule(2);
        let at = |i: usize| s[i].0 / 1_000_000;
        assert_eq!(s.len(), 3);
        assert_eq!((at(0), s[0].1), (750, defensive_services()));
        assert_eq!((at(1), s[1].1), (1_000, initial_services()));
        assert_eq!((at(2), s[2].1), (1_750, defensive_services()));
    }
}
