//! Samples, statistics and the result line.

use ripple_net::QueryMetrics;
use std::fmt::Write as _;

/// The query families the latency metrics are split by.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// Top-k.
    TopK,
    /// Plain or constrained skyline.
    Skyline,
    /// Single-tuple diversification.
    Div,
}

/// One completed query.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Its family.
    pub family: Family,
    /// Latency in nanoseconds: closed loop, send to completion; open loop,
    /// scheduled send to completion.
    pub latency_ns: u64,
    /// The cost ledger (visit trace dropped), with the service's stamps.
    pub metrics: QueryMetrics,
    /// Tiles in the answer certificate.
    pub cert_regions: usize,
}

impl Sample {
    /// A sample; the ledger's visit trace is dropped to keep samples small.
    pub fn new(family: Family, latency_ns: u64, mut metrics: QueryMetrics, regions: usize) -> Self {
        metrics.visited = Vec::new();
        Self {
            family,
            latency_ns,
            metrics,
            cert_regions: regions,
        }
    }
}

/// Nearest-rank percentile of an ascending slice (0 for an empty one).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Ascending copy of `values`.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 50.0)
}

/// Mean of `values` (0 for none).
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// `a / b`, 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// p50 and p99 of latencies given in time order, in milliseconds. The
/// samples are split into an odd number of equal consecutive windows of at
/// least [`MIN_WINDOW`] samples each (so each window's p99 has ten samples
/// beyond it); each percentile is the median of the windows' percentiles,
/// which one burst of interference cannot move. Logs the windows, and
/// warns when even one window is too small.
pub fn windowed(name: &str, latencies_ns: &[f64]) -> (f64, f64) {
    let n = latencies_ns.len();
    if n > 0 && n < MIN_WINDOW {
        eprintln!("warning: {name} p99 rests on {n} samples (fewer than 10 beyond it)");
    }
    let mut k = (n / MIN_WINDOW).clamp(1, MAX_WINDOWS);
    if k.is_multiple_of(2) {
        k -= 1;
    }
    let (mut p50, mut p99) = (Vec::new(), Vec::new());
    for w in 0..k {
        let window = &latencies_ns[w * n / k..(w + 1) * n / k];
        let s = sorted(window.iter().map(|ns| ns / 1e6).collect());
        p50.push(percentile(&s, 50.0));
        p99.push(percentile(&s, 99.0));
    }
    eprintln!("{name}: {n} samples in {k} windows; p50 {p50:.4?} p99 {p99:.4?} ms");
    (median(&p50), median(&p99))
}

/// Fewest samples in one latency window.
pub const MIN_WINDOW: usize = 1000;
/// Most latency windows per population.
const MAX_WINDOWS: usize = 9;

/// Named metrics in insertion order.
#[derive(Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Records a metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.entries.push((name.to_string(), value, unit));
    }

    /// Records [`windowed`] p50 and p99 of latencies, in milliseconds.
    pub fn latency(&mut self, prefix: &str, latencies_ns: &[f64]) {
        let (p50, p99) = windowed(prefix, latencies_ns);
        self.put(&format!("{prefix}_p50_ms"), p50, "ms");
        self.put(&format!("{prefix}_p99_ms"), p99, "ms");
    }

    /// The `"metrics"` JSON object. Non-finite values become 0.
    pub fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            let v = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }
}

/// Everything a workload reports.
pub struct Outcomes {
    /// End-to-end (`--trace 0`) or per-layer (`--trace 1`) metrics.
    pub metrics: Metrics,
    /// Queries attempted.
    pub attempted: u64,
    /// Queries that failed (incomplete coverage).
    pub failed: u64,
    /// Correctness violations.
    pub errors: Vec<String>,
    /// Sample counts per latency family, for the log.
    pub note: String,
    /// [`peak_rss_mb`] once the work it covers is done.
    pub peak_rss_mb: f64,
}

/// The result line the benchmark ends with.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.json()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn windowed_percentiles_shrug_off_one_burst() {
        // 3000 samples of 1 ms, with a 100 ms burst in the first window.
        let mut ns = vec![1e6; 3000];
        for v in &mut ns[..100] {
            *v = 1e8;
        }
        let mut m = Metrics::default();
        m.latency("q", &ns);
        assert_eq!(
            m.json(),
            "{\"q_p50_ms\": {\"value\": 1.0, \"unit\": \"ms\"}, \
             \"q_p99_ms\": {\"value\": 1.0, \"unit\": \"ms\"}}"
        );
    }

    #[test]
    fn metrics_render_as_json_numbers() {
        let mut m = Metrics::default();
        m.put("a", 1.0, "ms");
        m.put("b", f64::NAN, "s");
        assert_eq!(
            m.json(),
            "{\"a\": {\"value\": 1.0, \"unit\": \"ms\"}, \"b\": {\"value\": 0.0, \"unit\": \"s\"}}"
        );
    }
}
