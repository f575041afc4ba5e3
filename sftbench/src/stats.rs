//! Order statistics and the result line.

use std::fmt::Write as _;

/// The nearest-rank `q`-quantile (`0 < q ≤ 1`) of `sorted`.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of nothing");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values`, or `0.0` for none.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

/// A latency sample summarized as its median and tail.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Samples summarized.
    pub count: usize,
    /// The median.
    pub p50: f64,
    /// The tail percentile reported, in percent.
    pub tail_pct: f64,
    /// Its value.
    pub tail: f64,
}

/// Tail percentiles in the order tried: the first with at least ten
/// samples beyond it is reported.
const TAILS: [f64; 3] = [99.0, 90.0, 50.0];

/// Summarizes `values`: the median, and the highest percentile of
/// [`TAILS`] with at least ten samples beyond it (the median when even
/// that has fewer).
pub fn summarize(values: &[f64]) -> Summary {
    if values.is_empty() {
        return Summary {
            count: 0,
            p50: 0.0,
            tail_pct: 50.0,
            tail: 0.0,
        };
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len() as f64;
    let tail_pct = TAILS
        .into_iter()
        .find(|p| n * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0);
    Summary {
        count: sorted.len(),
        p50: quantile(&sorted, 0.5),
        tail_pct,
        tail: quantile(&sorted, tail_pct / 100.0),
    }
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Its name, as `BENCHMARK.json` lists it.
    pub name: String,
    /// Its unit.
    pub unit: &'static str,
    /// Its value.
    pub value: f64,
}

/// Builds a [`Metric`].
pub fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// The result line: `correct`, `attempted`, `failed` and every metric
/// with its unit, as one JSON object.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // JSON has no NaN or infinity; a metric that could not be
        // computed reads as zero.
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = summarize(&values);
        assert_eq!((s.p50, s.tail_pct, s.tail), (500.0, 99.0, 990.0));
        let values: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(summarize(&values).tail_pct, 90.0);
        assert_eq!(summarize(&[1.0, 2.0]).tail_pct, 50.0);
    }

    #[test]
    fn result_line_is_json_with_every_metric() {
        let line = result_json(
            true,
            10,
            0,
            &[metric("a", "ms", 1.5), metric("b", "s", 2.0)],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 2, \"unit\": \"s\"}}}"
        );
    }
}
