//! **Micro-benchmark: the event-channel publish fast path.**
//!
//! Every layer of the middleware — arrivals, accept/reject decisions,
//! triggers, IR reports, reconfiguration phases, governor ticks — funnels
//! through `Federation::publish`, so its cost at high aperiodic rates is
//! the paper's event-handling overhead in miniature.
//!
//! Two measurement styles:
//!
//! * **Criterion arms** (`publish_steady_*`): per-publish cost against a
//!   long-lived fixture whose subscribers are *bounded* — the steady state
//!   of a sustained storm, drop-oldest backpressure path included, with
//!   flat memory and no fixture teardown inside the timing.
//! * **Burst section** (below the arms, also written to
//!   `BENCH_events.json` at the workspace root): publish bursts against
//!   unbounded subscribers with queue drains *outside* the timed windows —
//!   the apples-to-apples number tracked across commits (throughput plus
//!   p50/p99 per-publish latency over 16-publish samples).
//! * **Delay-emulation arm** (`remote_delayed_4`, also in the JSON): node 0
//!   publishes to 4 remote subscribers under a constant 300 µs injected
//!   delay, paced at 1 000 publishes/s on an open-loop schedule. It
//!   reports how late parcels land (receive instant − (publish instant +
//!   delay), p50/p99) and the network thread's CPU per parcel — the cost
//!   and accuracy of the in-process network's wait.

use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, Criterion};
use rtcm_bench::events::{
    delayed_fixture, fanout_fixture, gateway_fixture, remote_fixture, run_delayed, EventsFixture,
    FANOUT_TOPIC, PAYLOAD,
};

fn bench_events(c: &mut Criterion) {
    let mut group = c.benchmark_group("events");

    // Steady-state arms: long-lived fixtures, bounded co-subscribers so
    // queues self-limit (measures the publish+drop path, nothing else).
    for subs in [1usize, 8, 64] {
        let fx = fanout_fixture(0);
        let _bounded: Vec<_> =
            (0..subs).map(|_| fx.publisher.subscribe_bounded(FANOUT_TOPIC, 1024)).collect();
        group.bench_function(format!("publish_steady_{subs}_subs"), |b| {
            b.iter(|| black_box(fx.publisher.publish(FANOUT_TOPIC, PAYLOAD)));
        });
    }

    // Gateway flatness: nodes registered on unrelated topics must cost a
    // pure-local publish nothing. The fixture's unbounded local subscriber
    // is swapped for a bounded one so the undrained steady loop cannot
    // accumulate events (the quiet gateways' receivers stay live — their
    // logs are never published to).
    for gateways in [0u16, 16, 64] {
        let mut fx = gateway_fixture(gateways);
        fx.receivers.remove(0);
        let _bounded = fx.publisher.subscribe_bounded(FANOUT_TOPIC, 1024);
        group.bench_function(format!("publish_steady_quiet_{gateways}_gateways"), |b| {
            b.iter(|| black_box(fx.publisher.publish(FANOUT_TOPIC, PAYLOAD)));
        });
    }
    group.finish();
}

/// Times publish bursts only — fixture construction and queue drains sit
/// between the timed windows. Returns `(publishes/s, p50 ns, p99 ns)` over
/// 16-publish samples.
fn measure_bursts(fx: &EventsFixture, bursts: usize, burst: usize) -> (f64, f64, f64) {
    const SAMPLE: usize = 16;
    let mut samples: Vec<f64> = Vec::with_capacity(bursts * burst / SAMPLE);
    let mut total = Duration::ZERO;
    let mut published = 0usize;
    for _ in 0..bursts {
        for _ in 0..burst / SAMPLE {
            let start = Instant::now();
            for _ in 0..SAMPLE {
                black_box(fx.publisher.publish(FANOUT_TOPIC, PAYLOAD));
            }
            let elapsed = start.elapsed();
            total += elapsed;
            published += SAMPLE;
            samples.push(elapsed.as_secs_f64() / SAMPLE as f64);
        }
        fx.drain(); // untimed: keep queues flat between bursts
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let pct = |p: f64| samples[((samples.len() - 1) as f64 * p) as usize] * 1e9;
    (published as f64 / total.as_secs_f64(), pct(0.50), pct(0.99))
}

fn emit_json() {
    let quick = std::env::var("RTCM_QUICK").is_ok_and(|v| v != "0");
    let (bursts, burst) = if quick { (20, 512) } else { (200, 512) };
    let mut rows = Vec::new();
    let mut run = |arm: String, fx: &EventsFixture| {
        let (throughput, p50_ns, p99_ns) = measure_bursts(fx, bursts, burst);
        println!(
            "events/burst_{arm:<32} {throughput:>12.0} publishes/s  \
             p50 {p50_ns:>8.0} ns  p99 {p99_ns:>8.0} ns"
        );
        rows.push(serde_json::json!({
            "arm": arm,
            "publishes_per_sec": throughput,
            "p50_publish_ns": p50_ns,
            "p99_publish_ns": p99_ns,
        }));
    };
    for subs in [1usize, 8, 64] {
        run(format!("publish_local_{subs}_subs"), &fanout_fixture(subs));
    }
    for gateways in [0u16, 16, 64] {
        run(format!("publish_quiet_{gateways}_gateways"), &gateway_fixture(gateways));
    }
    for remotes in [4u16, 16] {
        run(format!("publish_remote_{remotes}"), &remote_fixture(remotes));
    }
    let publishes = if quick { 200 } else { 2000 };
    let delayed = run_delayed(&delayed_fixture(4), publishes, Duration::from_millis(1));
    let pct = |p: f64| delayed.late_us[((delayed.late_us.len() - 1) as f64 * p) as usize];
    let net_cpu_us_per_parcel = delayed.net_cpu_ns as f64 / 1e3 / delayed.sent as f64;
    println!(
        "events/remote_delayed_4 {} of {} parcels  late p50 {:>6.1} us  p99 {:>6.1} us  \
         net cpu {net_cpu_us_per_parcel:>6.2} us/parcel",
        delayed.delivered,
        delayed.sent,
        pct(0.50),
        pct(0.99)
    );
    rows.push(serde_json::json!({
        "arm": "remote_delayed_4",
        "parcels": delayed.sent,
        "delivered": delayed.delivered,
        "late_p50_us": pct(0.50),
        "late_p99_us": pct(0.99),
        "net_cpu_us_per_parcel": net_cpu_us_per_parcel,
    }));
    let doc = serde_json::json!({
        "bench": "micro_events",
        "quick": quick,
        "burst": burst,
        "bursts": bursts,
        "results": rows,
    });
    // CARGO_MANIFEST_DIR = crates/bench → the workspace root is two up.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = root.join("BENCH_events.json");
    match std::fs::write(&path, serde_json::to_string_pretty(&doc).expect("plain data")) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

criterion_group!(benches, bench_events);

fn main() {
    benches();
    emit_json();
}
