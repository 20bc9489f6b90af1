//! Order statistics over per-job samples.
//!
//! End-to-end percentiles come from exact per-job stamps, never from the
//! runtime's log2 histograms (those carry up to 2x bucket error).

/// Nearest-rank quantile (`q` in `[0, 1]`) of an ascending slice; 0.0 when
/// empty.
#[must_use]
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of unsorted values (sorts a copy).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// An ascending copy.
#[must_use]
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The reported tail of a distribution: the highest percentile on the
/// ladder p50, p90, p99, p99.9, p99.99 that still has at least ten samples
/// beyond it, with its value and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The quantile reported, e.g. 0.99.
    pub q: f64,
    /// Its value.
    pub value: f64,
    /// Samples in the distribution.
    pub samples: usize,
}

/// The tail rule over an ascending slice; `None` when fewer than ten samples
/// lie beyond even the median.
#[must_use]
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    const LADDER: [f64; 5] = [0.9999, 0.999, 0.99, 0.9, 0.5];
    let n = sorted.len();
    LADDER.iter().find(|&&q| n - ((q * n as f64).ceil() as usize).min(n) >= 10).map(|&q| Tail {
        q,
        value: quantile(sorted, q),
        samples: n,
    })
}

/// Robust per-run statistic: split `(instant_ns, value)` samples into
/// consecutive windows of `window_ns`, take the `q`-quantile inside each
/// window, and report the median over windows. A host stall that lifts a
/// minority of windows does not set the figure; a program cost that lifts
/// half the windows or more does.
#[must_use]
pub fn windowed(samples: &[(u64, f64)], window_ns: u64, q: f64) -> f64 {
    let mut windows: Vec<Vec<f64>> = Vec::new();
    for &(at, v) in samples {
        let w = (at / window_ns.max(1)) as usize;
        if windows.len() <= w {
            windows.resize_with(w + 1, Vec::new);
        }
        windows[w].push(v);
    }
    let per_window: Vec<f64> =
        windows.iter().filter(|w| !w.is_empty()).map(|w| quantile(&sorted(w), q)).collect();
    median(&per_window)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v = ramp(10);
        assert_eq!(quantile(&v, 0.5), 5.0);
        assert_eq!(quantile(&v, 0.9), 9.0);
        assert_eq!(quantile(&v, 1.0), 10.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn windowed_median_ignores_a_minority_of_stalled_windows() {
        // Eight 1 s windows of 1..=100; windows 2, 3 and 5 are stalled
        // (x100), the rest a touch slower each.
        let samples: Vec<(u64, f64)> = (0..8u64)
            .flat_map(|w| {
                let scale = if [2, 3, 5].contains(&w) { 100.0 } else { 1.0 + w as f64 / 100.0 };
                (1..=100).map(move |i| (w * 1_000_000_000 + i, i as f64 * scale))
            })
            .collect();
        // Per-window p90s ascending: 90 × 1.00, 1.01, 1.04, 1.06, 1.07, then
        // the stalled three; the median (4th of 8) is window 4's.
        assert_eq!(windowed(&samples, 1_000_000_000, 0.9), 90.0 * 1.06);
        assert_eq!(windowed(&samples, 1_000_000_000, 0.5), 50.0 * 1.06);
        assert_eq!(windowed(&[], 1_000_000_000, 0.5), 0.0);
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        // 10 samples beyond p99 needs at least 1000 samples.
        assert_eq!(tail(&ramp(1000)).map(|t| t.q), Some(0.99));
        assert_eq!(tail(&ramp(999)).map(|t| t.q), Some(0.9));
        assert_eq!(tail(&ramp(100)).map(|t| t.q), Some(0.9));
        assert_eq!(tail(&ramp(99)).map(|t| t.q), Some(0.5));
        assert_eq!(tail(&ramp(10_000)).map(|t| t.q), Some(0.999));
        assert_eq!(tail(&ramp(19)), None);
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.value, t.samples), (990.0, 1000));
    }
}
