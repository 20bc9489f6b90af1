//! Open-loop end-to-end benchmark of the rtcm middleware.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload steady_mix --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the workload
//! twice for half the time each (untraced, then traced) and prints the
//! per-layer metrics plus the overhead of the benchmark's own spans.
//! `--probe-knee` sweeps the storm's offered rate; `--write-sim-reference`
//! regenerates `sim_reference.txt`. See README.md.

mod cpu;
mod observe;
mod plan;
mod report;
mod sim;
mod spans;
mod stats;
mod threaded;

use std::process::ExitCode;

use plan::Workload;
use report::{result_line, Metrics, RunOutput};
use spans::Spans;

/// End-to-end metrics and units, in output order.
const E2E: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("decision_p50_us", "us"),
    ("decision_p90_us", "us"),
    ("response_p50_ms", "ms"),
    ("response_p90_ms", "ms"),
    ("accept_util_ratio", "ratio"),
    ("cpu_us_per_job", "us"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics and units, in output order. A layer a workload does
/// not exercise reports 0.
const LAYERS: [(&str, &str); 59] = [
    ("setup.generate_ms", "ms"),
    ("setup.configure_ms", "ms"),
    ("setup.launch_ms", "ms"),
    ("rt.hold_p50_us", "us"),
    ("rt.hold_n", "count"),
    ("rt.release_p50_us", "us"),
    ("rt.release_n", "count"),
    ("rt.fast_path_per_job", "count/job"),
    ("rt.timer_wakeups_per_job", "count/job"),
    ("rt.reallocations_per_job", "count/job"),
    ("rt.ir_reports_per_job", "count/job"),
    ("rt.ir_path_p50_us", "us"),
    ("rt.ir_path_n", "count"),
    ("rt.residual_p50_us", "us"),
    ("events.comm_p50_us", "us"),
    ("events.comm_n", "count"),
    ("events.published_per_job", "count/job"),
    ("events.delivered_per_job", "count/job"),
    ("events.remote_parcels_per_job", "count/job"),
    ("events.dropped", "count"),
    ("core.lb_plan_p50_us", "us"),
    ("core.lb_plan_n", "count"),
    ("core.ac_test_p50_us", "us"),
    ("core.ac_test_n", "count"),
    ("core.ir_update_p50_us", "us"),
    ("core.ir_update_n", "count"),
    ("core.shard_local_per_decision", "ratio"),
    ("core.cross_shard_per_decision", "ratio"),
    ("core.summary_refreshes_per_decision", "ratio"),
    ("core.accepts_per_decision", "ratio"),
    ("reconfig.swaps", "count"),
    ("reconfig.call_p50_ms", "ms"),
    ("reconfig.call_p90_ms", "ms"),
    ("reconfig.swap_latency_p50_us", "us"),
    ("reconfig.deferred_per_swap", "count/swap"),
    ("reconfig.handover_entries_per_swap", "count/swap"),
    ("reconfig.inflight_at_commit_max", "count"),
    ("telemetry.trace_records_per_job", "count/job"),
    ("telemetry.trace_dropped", "count"),
    ("sim.simulate_ms_p50", "ms"),
    ("sim.simulate_ms_max", "ms"),
    ("sim.calls", "count"),
    ("sim.mismatches", "count"),
    ("gen.late_p50_us", "us"),
    ("gen.late_p90_us", "us"),
    ("gen.late_p99_us", "us"),
    ("gen.submit_p50_us", "us"),
    ("e2e.decision_tail", "us"),
    ("e2e.decision_tail_q", "quantile"),
    ("e2e.decision_n", "count"),
    ("e2e.response_tail", "ms"),
    ("e2e.response_tail_q", "quantile"),
    ("e2e.response_n", "count"),
    ("e2e.deadline_misses", "count"),
    ("e2e.quiesce_ms", "ms"),
    ("e2e.failed_ratio", "ratio"),
    ("trace.overhead_decision_p50_us", "us"),
    ("trace.spans", "count"),
    ("trace.pass_s", "s"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    rates: Vec<f64>,
}

fn parse_args() -> Result<(String, Args), String> {
    let mut mode = "run".to_string();
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        rates: vec![5_000.0, 10_000.0, 15_000.0, 20_000.0, 25_000.0, 30_000.0],
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--rates" => {
                args.rates = value()?
                    .split(',')
                    .map(|r| r.parse().map_err(|e| format!("--rates: {e}")))
                    .collect::<Result<_, _>>()?;
            }
            "--probe-knee" => mode = "knee".into(),
            "--write-sim-reference" => mode = "reference".into(),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    if mode == "run" {
        args.workload.parse::<Workload>()?;
    }
    Ok((mode, args))
}

/// Metrics in the order of `names`, 0 where missing.
fn ordered(found: &Metrics, names: &[(&str, &'static str)]) -> Metrics {
    let mut m = Metrics::default();
    for &(name, unit) in names {
        m.push(name, found.get(name).unwrap_or(0.0), unit);
    }
    m
}

/// A full benchmark run of one workload: the result plus whether it held.
fn measure(name: &str, a: &Args) -> Result<(bool, u64, u64, Metrics), String> {
    let workload: Workload = name.parse()?;
    // A traced run splits its time between an untraced and a traced pass
    // of equal length, so both modes take `--seconds`.
    let seconds = if a.trace { a.seconds.div_ceil(2) } else { a.seconds };
    let untraced = threaded::run(workload, a.seed, seconds, false);
    let mut runs = vec![&untraced];
    let mut traced;
    let metrics = if a.trace {
        let started = std::time::Instant::now();
        traced = threaded::run(workload, a.seed, seconds, true);
        let pass_s = started.elapsed().as_secs_f64();
        let mut layers = traced.layers.clone();
        if workload == Workload::SteadyMix {
            // The simulator layer rides on the steady workload's traced run:
            // its CPU-bound timings follow the shared host's speed too
            // closely to gate.
            let mut sim_spans = Spans::new(std::time::Instant::now(), true);
            let (call_ms, mismatches) = sim::reference_sample(a.seed, &mut sim_spans);
            sim::push_layers(&mut layers, &call_ms, mismatches);
            if mismatches > 0 {
                traced
                    .violations
                    .push(format!("{mismatches} simulator calls differ from the reference"));
            }
            traced.failed += mismatches;
            traced.attempted += call_ms.len() as u64;
            traced.spans.extend(sim_spans.items);
        }
        runs.push(&traced);
        write_spans(name, &traced);
        // The runtime's job tracer is on in both passes (the per-job stamps
        // come from it); only the benchmark's own spans differ, and they run
        // on the generator and observer threads.
        let diff = |m: &str| traced.e2e.get(m).unwrap_or(0.0) - untraced.e2e.get(m).unwrap_or(0.0);
        layers.push("trace.overhead_decision_p50_us", diff("decision_p50_us"), "us");
        layers.push("trace.spans", traced.spans.len() as f64, "count");
        layers.push("trace.pass_s", pass_s, "s");
        layers.push(
            "e2e.failed_ratio",
            traced.failed as f64 / traced.attempted.max(1) as f64,
            "ratio",
        );
        ordered(&layers, &LAYERS)
    } else {
        ordered(&untraced.e2e, &E2E)
    };
    for r in &runs {
        if let Some(why) = &r.invalid {
            return Err(format!("{name}: invalid run: {why}"));
        }
        for v in &r.violations {
            eprintln!("{name}: correctness violation: {v}");
        }
    }
    let correct = runs.iter().all(|r| r.violations.is_empty());
    let attempted = runs.iter().map(|r| r.attempted).sum();
    let failed = runs.iter().map(|r| r.failed).sum();
    Ok((correct, attempted, failed, metrics))
}

fn write_spans(name: &str, run: &RunOutput) {
    let dir = std::path::Path::new("perfbench/out");
    if std::fs::create_dir_all(dir).is_ok() {
        let _ =
            std::fs::write(dir.join(format!("{name}-spans.jsonl")), spans::json_lines(&run.spans));
    }
}

fn print_table(name: &str, metrics: &Metrics) {
    for m in &metrics.0 {
        println!("{name:<12} {:<38} {:>14.4} {}", m.name, m.value, m.unit);
    }
}

fn run_mode(a: &Args) -> Result<bool, String> {
    let (correct, attempted, failed, metrics) = measure(&a.workload, a)?;
    print_table(&a.workload, &metrics);
    println!("{}", result_line(correct, attempted, failed, &metrics));
    Ok(correct)
}

fn knee_mode(a: &Args) {
    println!(
        "{:>8} {:>10} {:>10} {:>10} {:>10} {:>8} {:>10}",
        "rate/s", "p50_us", "p90_us", "late_p99", "quiesce", "misses", "cpu_us/job"
    );
    for &rate in &a.rates {
        let out = threaded::run(Workload::EventStorm { rate }, a.seed, a.seconds, false);
        let layers = &out.layers;
        let get = |m: &Metrics, n: &str| m.get(n).unwrap_or(0.0);
        println!(
            "{rate:>8.0} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>8.0} {:>10.1} {}",
            get(&out.e2e, "decision_p50_us"),
            get(&out.e2e, "decision_p90_us"),
            get(layers, "gen.late_p99_us"),
            get(layers, "e2e.quiesce_ms"),
            get(layers, "e2e.deadline_misses"),
            get(&out.e2e, "cpu_us_per_job"),
            out.violations.join("; "),
        );
    }
}

fn main() -> ExitCode {
    let (mode, args) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match mode.as_str() {
        "knee" => knee_mode(&args),
        "reference" => {
            if let Err(e) = std::fs::write("perfbench/sim_reference.txt", sim::write_reference()) {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
        _ => match run_mode(&args) {
            Ok(true) => {}
            Ok(false) => return ExitCode::FAILURE,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(3);
            }
        },
    }
    ExitCode::SUCCESS
}
