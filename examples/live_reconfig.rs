//! Live reconfiguration: an overloaded per-job system recovers by
//! switching to per-task admission **mid-burst** — the paper's §5
//! run-time attribute modification generalized to the full
//! `ServiceConfig`, executed without dropping a single admitted job.
//!
//! Three acts:
//!
//! 1. **Simulation**: the same 8× aperiodic alert burst hits a `J_N_N`
//!    system twice — once statically, once with a defensive mode schedule
//!    that swaps to `T_T_T` five seconds into the burst (reseeding the
//!    live periodic tasks into reservations) and relaxes back afterwards.
//! 2. **Threaded runtime**: a running `System` executes the same swap via
//!    the quiesce-free two-phase protocol, reporting its transition cost
//!    (swap latency, decisions deferred, jobs in flight).
//! 3. **Federation**: a TCP-bridged remote host observes the prepare and
//!    commit events of that swap, the way the paper's multi-machine
//!    testbed would learn of a mode change.
//!
//! ```sh
//! cargo run --release --example live_reconfig
//! ```

use std::time::Duration as StdDuration;

use rtcm::core::task::TaskId;
use rtcm::core::time::{Duration, Time};
use rtcm::events::{remote, topics, Federation, Latency, NodeId};
use rtcm::rt::proto::{ReconfigMsg, ReconfigPhase};
use rtcm::rt::{RtOptions, System};
use rtcm::sim::{simulate_recorded, simulate_recorded_with_schedule, JobRecord, SimConfig};
use rtcm::workload::ModeChangeScenario;
use rtcm_config::configure_with;

/// Utilization-weighted accepted ratio of the arrivals inside `[lo, hi)`.
fn window_ratio(records: &[JobRecord], lo: Time, hi: Time) -> f64 {
    let mut arrived = 0.0;
    let mut released = 0.0;
    for r in records.iter().filter(|r| r.arrival >= lo && r.arrival < hi) {
        arrived += r.utilization;
        if r.released {
            released += r.utilization;
        }
    }
    if arrived > 0.0 {
        released / arrived
    } else {
        1.0
    }
}

fn print_buckets(label: &str, records: &[JobRecord], horizon_secs: u64) {
    print!("  {label:<26}");
    for bucket in 0..horizon_secs / 10 {
        let lo = Time::ZERO + Duration::from_secs(bucket * 10);
        let hi = Time::ZERO + Duration::from_secs((bucket + 1) * 10);
        print!("{:>5.0}", window_ratio(records, lo, hi) * 100.0);
    }
    println!("   (% accepted / 10 s)");
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- Act 1: simulated mode-change experiment ------------------------
    let scenario = ModeChangeScenario::default();
    let (tasks, trace, schedule) = scenario.generate(7)?;
    println!(
        "burst: {}x aperiodic rate during [{}, {}); defensive switch {} -> {} at {}\n",
        scenario.burst.intensity,
        scenario.burst.burst_start,
        scenario.burst.burst_end(),
        scenario.baseline,
        scenario.defensive,
        scenario.switch_at()
    );

    let cfg = SimConfig::new(scenario.baseline);
    let (static_report, static_records) = simulate_recorded(&tasks, &trace, &cfg)?;
    let (switched_report, switched_records) =
        simulate_recorded_with_schedule(&tasks, &trace, &cfg, &schedule)?;

    let horizon_secs = scenario.burst.horizon.as_secs_f64() as u64;
    print_buckets(&format!("static {}", scenario.baseline), &static_records, horizon_secs);
    print_buckets("with mode schedule", &switched_records, horizon_secs);

    for handover in &switched_report.mode_changes {
        println!("  handover: {handover}");
    }

    // Recovery metric: accepted ratio from the switch to the burst end.
    let lo = scenario.switch_at();
    let hi = Time::ZERO + scenario.burst.burst_end();
    let before = window_ratio(&static_records, lo, hi);
    let after = window_ratio(&switched_records, lo, hi);
    println!(
        "\n  in-burst accepted ratio after the switch point: {:.3} static vs {:.3} switched",
        before, after
    );
    println!(
        "  deadline misses: {} static, {} switched",
        static_report.deadline_misses, switched_report.deadline_misses
    );
    assert!(after > before, "the defensive mode change must recover accepted utilization");

    // ---- Act 2: the same swap on the threaded runtime -------------------
    println!("\nthreaded runtime: swapping a live system J_N_N -> T_T_T under load");
    let deployment = configure_with(
        &rtcm::config::WorkloadSpec::parse(
            "workload live\nprocessors 2\n\
             task scan periodic period=20ms\n  subtask exec=1ms proc=0 replicas=1\n\
             task alert aperiodic deadline=50ms\n  subtask exec=1ms proc=1\n",
        )?,
        "J_N_N".parse()?,
    )?;
    let system = System::launch(&deployment, RtOptions::fast())?;

    // A TCP-bridged observer federation (Act 3) watches the swap.
    let (addr, _server) =
        remote::listen(system.federation(), NodeId(1), "127.0.0.1:0", vec![topics::RECONFIG])?;
    let observer_host = Federation::new(2, Latency::None, 0);
    let _client = remote::connect(&observer_host, NodeId(0), addr, vec![topics::RECONFIG])?;
    let observer = observer_host.handle(NodeId(1))?.subscribe(topics::RECONFIG);

    for seq in 0..25 {
        system.submit(TaskId(0), seq)?;
        system.submit(TaskId(1), seq)?;
        if seq == 12 {
            let report = system.reconfigure("T_T_T".parse()?)?;
            println!("  {report}");
        }
    }
    assert!(system.quiesce(StdDuration::from_secs(10)));
    let stats = system.shutdown();
    println!(
        "  runtime: {} jobs completed, {} swaps, mean swap latency {}, {} decisions deferred",
        stats.jobs_completed,
        stats.reconfig_swaps,
        stats.reconfig_latency.mean(),
        stats.reconfig_deferred,
    );

    // ---- Act 3: the swap as seen from the remote host -------------------
    for _ in 0..2 {
        let event = observer.recv_timeout(StdDuration::from_secs(5))?;
        let msg: ReconfigMsg = rtcm::rt::proto::decode(&event.payload)?;
        println!(
            "  remote host observed: epoch {} {} -> {}",
            msg.epoch,
            match msg.phase {
                ReconfigPhase::Prepare => "prepare",
                ReconfigPhase::Commit => "commit",
                ReconfigPhase::Abort => "abort",
            },
            msg.services
        );
    }

    println!("\nthe full ServiceConfig is now a run-time attribute: admitted jobs kept their");
    println!("guarantees across the swap, and the mode change propagated over real TCP.");
    Ok(())
}
