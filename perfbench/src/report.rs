//! Run results and the benchmark's output format.

use std::fmt::Write as _;

use crate::spans::Span;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Metrics in insertion order.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends a metric (non-finite values are reported as 0).
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push(Metric { name: name.to_string(), value, unit });
    }

    /// The value of `name`, if present.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// The outcome of one pass over a workload.
#[derive(Debug, Default)]
pub struct RunOutput {
    /// Operations attempted (jobs submitted, swaps, simulator calls).
    pub attempted: u64,
    /// Failed operations.
    pub failed: u64,
    /// Correctness-gate violations; any one fails the run.
    pub violations: Vec<String>,
    /// The generator fell behind its own schedule: the run measures the
    /// benchmark, not the system, and is invalid.
    pub invalid: Option<String>,
    /// End-to-end metrics.
    pub e2e: Metrics,
    /// Per-layer metrics (all names, 0 where a layer does not apply).
    pub layers: Metrics,
    /// Spans, when traced.
    pub spans: Vec<Span>,
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics`.
#[must_use]
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut body = String::new();
    for (i, m) in metrics.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ =
            write!(body, r#"{sep}"{}": {{"value": {}, "unit": "{}"}}"#, m.name, m.value, m.unit);
    }
    format!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{body}}}}}"#
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_shape() {
        let mut m = Metrics::default();
        m.push("latency_ms", 1.25, "ms");
        m.push("bad", f64::NAN, "s");
        assert_eq!(
            result_line(true, 3, 0, &m),
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"latency_ms": {"value": 1.25, "unit": "ms"}, "bad": {"value": 0, "unit": "s"}}}"#
        );
    }
}
