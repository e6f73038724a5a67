//! Statistics over raw samples, process readings and the result line.

use std::fmt::Write as _;
use std::time::Duration;

/// Nearest-rank percentile of raw samples (`p` in 0..=100). Percentiles
/// come from the benchmark's own samples, never from bucketed histograms.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(samples.len(), p) - 1]
}

/// The 1-based nearest rank of percentile `p` among `n` samples (the
/// epsilon keeps `0.9 * 100` from rounding up to rank 91).
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The highest percentile of a fixed ladder, at most `cap`, that still has
/// at least ten samples beyond it, with its value.
pub fn tail(samples: &[f64], cap: f64) -> (f64, f64) {
    let n = samples.len();
    let p = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .filter(|&p| p <= cap)
        .find(|&p| n.saturating_sub(rank(n, p)) >= 10)
        .unwrap_or(50.0);
    (p, percentile(samples, p))
}

/// The tail over windows of one run: the ladder percentile (at most `cap`)
/// with at least ten samples beyond it in the smallest window, taken in
/// every window, and the median of those values. One window is the plain
/// pooled tail; several windows keep a burst of host load that covers one
/// window from moving the run's tail.
pub fn windowed_tail(windows: &[Vec<f64>], cap: f64) -> (f64, f64) {
    let (p, _) = tail(
        windows.iter().min_by_key(|w| w.len()).expect("a window"),
        cap,
    );
    let values: Vec<f64> = windows.iter().map(|w| percentile(w, p)).collect();
    (p, median(&values))
}

/// Puts the latency metrics of one run: the geometric mean of every raw
/// sample of a window and the windowed tail (percentile at most `cap`),
/// each the median over the windows, so that a burst of host load that
/// covers one window moves neither. The pooled median, p99 and geometric
/// mean, the tail's percentile and the sample counts go to stderr. (A set
/// of one-off requests as different as the paper set has its median on one
/// or two targets whose time moves 20–40 % between processes; the
/// geometric mean over every sample does not.)
pub fn put_latency(report: &mut Report, windows: &[Vec<f64>], cap: f64) {
    let samples: Vec<f64> = windows.concat();
    let (tail_p, tail_ms) = windowed_tail(windows, cap);
    let geomeans: Vec<f64> = windows.iter().map(|w| geomean(w)).collect();
    let geomean_ms = median(&geomeans);
    eprintln!(
        "latency: {} samples in {} windows, p50 {:.4} ms, p99 {:.4} ms, pooled geomean {:.4} ms, geomean (median over windows) {geomean_ms:.4} ms, tail p{tail_p} (median over windows) {:.4} ms",
        samples.len(),
        windows.len(),
        median(&samples),
        percentile(&samples, 99.0),
        geomean(&samples),
        tail_ms
    );
    report.put("latency_geomean_ms", geomean_ms, "ms");
    report.put("latency_tail_ms", tail_ms, "ms");
}

pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of nothing");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn proc_status_kb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// The process's resident-set high-water mark in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:").unwrap_or(0.0) / 1024.0
}

/// The process's current thread count.
pub fn threads_now() -> f64 {
    proc_status_kb("Threads:").unwrap_or(0.0)
}

/// The metrics of one run, in print order.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Prints every metric as a readable line on stderr and the result
    /// object as the last line of stdout.
    pub fn finish(&self, correct: bool, attempted: u64, failed: u64) {
        let mut line = String::new();
        let _ = write!(
            line,
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            eprintln!("  {name:<32} {value:>16.6} {unit}");
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                line,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        line.push_str("}}");
        println!("{line}");
    }
}

/// Set-up repetitions of a run whose set-up takes tens of milliseconds:
/// enough that the median does not move with one slow repetition.
pub const SETUP_REPS: usize = 21;

/// Runs `setup` `reps` times and returns the median wall time in seconds
/// together with the last set-up's product.
pub fn timed_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        // The previous product is dropped before the next set-up starts, so
        // set-ups never overlap (threads of a service are joined).
        drop(last.take());
        let start = std::time::Instant::now();
        last = Some(setup());
        times.push(start.elapsed().as_secs_f64());
    }
    (median(&times), last.expect("at least one set-up"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), 50.0);
        assert_eq!(percentile(&samples, 99.0), 99.0);
        assert_eq!(percentile(&samples, 0.0), 1.0);
        assert_eq!(percentile(&samples, 100.0), 100.0);
        assert_eq!(tail(&samples, 100.0), (90.0, 90.0));
        assert_eq!(tail(&samples[..20], 100.0).0, 50.0);
        assert_eq!(tail(&samples[..19], 100.0).0, 50.0);
        let many: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&many, 100.0), (99.9, 9990.0));
        assert_eq!(tail(&many, 75.0), (75.0, 7500.0));
        let windows = vec![samples.clone(), samples.iter().map(|v| v * 2.0).collect()];
        assert_eq!(windowed_tail(&windows, 100.0), (90.0, 90.0));
        let three = vec![samples.clone(), samples.clone(), samples[..50].to_vec()];
        assert_eq!(windowed_tail(&three, 100.0), (75.0, 75.0));
    }

    #[test]
    fn geometric_mean_of_ratios() {
        assert!((geomean(&[0.5, 2.0]) - 1.0).abs() < 1e-12);
    }
}
