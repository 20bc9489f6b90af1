//! The `rtcm-sim` layer: the deterministic simulator over the §7.1 paper
//! workload, every valid strategy combination, checked against a
//! committed reference. A traced `steady_mix` run times one reference
//! seed's 15 calls as spans and fails on any mismatch.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

use rtcm_core::strategy::ServiceConfig;
use rtcm_core::task::TaskSet;
use rtcm_sim::{simulate, SimConfig, SimReport};
use rtcm_workload::{ArrivalConfig, ArrivalTrace, RandomWorkload};

use crate::report::Metrics;
use crate::spans::Spans;
use crate::stats::{quantile, sorted};

/// The committed reference: one line per `(seed, config)` cell.
const REFERENCE: &str = include_str!("../sim_reference.txt");
/// Workload seeds the reference covers (`0..REFERENCE_SEEDS`).
pub const REFERENCE_SEEDS: u64 = 128;

/// What must repeat exactly: ratio bits, completions, misses,
/// reallocations.
type Fingerprint = (u64, u64, u64, u64);

fn fingerprint(r: &SimReport) -> Fingerprint {
    (r.ratio.ratio().to_bits(), r.jobs_completed, r.deadline_misses, r.reallocations)
}

/// One seed's paper workload (§7.1 defaults, 300 s of arrivals).
fn workload(seed: u64) -> (TaskSet, ArrivalTrace) {
    let tasks = RandomWorkload::default().generate(seed).expect("paper workload is satisfiable");
    let trace = ArrivalTrace::generate(&tasks, &ArrivalConfig::default(), seed);
    (tasks, trace)
}

fn simulate_cell(tasks: &TaskSet, trace: &ArrivalTrace, seed: u64, c: ServiceConfig) -> SimReport {
    simulate(tasks, trace, &SimConfig { seed, ..SimConfig::new(c) }).expect("valid config")
}

/// Renders the reference for every seed below [`REFERENCE_SEEDS`].
#[must_use]
pub fn write_reference() -> String {
    let mut out =
        String::from("# seed config ratio_bits jobs_completed deadline_misses reallocations\n");
    for seed in 0..REFERENCE_SEEDS {
        let (tasks, trace) = workload(seed);
        for c in ServiceConfig::all_valid() {
            let (bits, done, missed, realloc) =
                fingerprint(&simulate_cell(&tasks, &trace, seed, c));
            let _ = writeln!(out, "{seed} {} {bits:016x} {done} {missed} {realloc}", c.label());
        }
    }
    out
}

fn parse_reference() -> HashMap<(u64, String), Fingerprint> {
    let mut map = HashMap::new();
    for line in REFERENCE.lines().filter(|l| !l.starts_with('#') && !l.trim().is_empty()) {
        let f: Vec<&str> = line.split_whitespace().collect();
        let num = |i: usize| f[i].parse::<u64>().expect("reference counts are integers");
        let bits = u64::from_str_radix(f[2], 16).expect("reference ratio bits are hex");
        map.insert((num(0), f[1].to_string()), (bits, num(3), num(4), num(5)));
    }
    map
}

/// `sim.*` from ascending per-call times.
pub fn push_layers(l: &mut Metrics, call_ms: &[f64], mismatches: u64) {
    l.push("sim.simulate_ms_p50", quantile(call_ms, 0.5), "ms");
    l.push("sim.simulate_ms_max", call_ms.last().copied().unwrap_or(0.0), "ms");
    l.push("sim.calls", call_ms.len() as f64, "count");
    l.push("sim.mismatches", mismatches as f64, "count");
}

/// The simulator layer as measured inside a traced `steady_mix` run: the
/// valid configs over reference seed `seed % REFERENCE_SEEDS`, each one
/// timed as a span and checked against the reference. Returns the
/// ascending call times (ms) and the mismatch count.
#[must_use]
pub fn reference_sample(seed: u64, spans: &mut Spans) -> (Vec<f64>, u64) {
    let reference = parse_reference();
    let s = seed % REFERENCE_SEEDS;
    let (tasks, trace) = workload(s);
    let mut call_ms = Vec::new();
    let mut mismatches = 0;
    for c in ServiceConfig::all_valid() {
        let t = Instant::now();
        let r = spans.time("simulate", None, s, || simulate_cell(&tasks, &trace, s, c));
        call_ms.push(t.elapsed().as_secs_f64() * 1e3);
        mismatches += u64::from(reference.get(&(s, c.label())) != Some(&fingerprint(&r)));
    }
    (sorted(&call_ms), mismatches)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_matches_a_fresh_simulation() {
        assert_eq!(parse_reference().len() as u64, REFERENCE_SEEDS * 15);
        let mut spans = Spans::new(Instant::now(), true);
        let (call_ms, mismatches) = reference_sample(REFERENCE_SEEDS + 5, &mut spans);
        assert_eq!((call_ms.len(), mismatches), (15, 0));
        assert_eq!(spans.items.len(), 15);
        assert!(spans.items.iter().all(|s| s.subject == 5));
    }
}
