//! Exact order statistics over raw samples.
//!
//! Every percentile the benchmark reports comes from here, computed on the
//! full per-op sample vector (nearest-rank), never from a bucketed
//! histogram: a quarter-octave bucket hides any change under about 19%.

use std::sync::OnceLock;
use std::time::Instant;

/// Nearest-rank percentile `q` in `(0, 1]` of `samples` (sorted in place).
/// `None` when there are no samples.
pub fn percentile(samples: &mut [f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil() as usize;
    Some(samples[rank.clamp(1, samples.len()) - 1])
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 })
}

/// `num / den`, or 0 when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Host clock in seconds: on-CPU time of the calling thread (first field
/// of `/proc/thread-self/schedstat`), so time the machine gives to other
/// processes is not charged to the code under test. Falls back to wall
/// time where the platform does not report it.
pub fn host_seconds() -> f64 {
    static START: OnceLock<Instant> = OnceLock::new();
    let on_cpu = std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok());
    match on_cpu {
        Some(ns) if ns > 0 => ns as f64 / 1e9,
        _ => START.get_or_init(Instant::now).elapsed().as_secs_f64(),
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 when the
/// platform does not report it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_is_exact() {
        let mut s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut s, 0.5), Some(50.0));
        assert_eq!(percentile(&mut s, 0.99), Some(99.0));
        assert_eq!(percentile(&mut s, 1.0), Some(100.0));
        assert_eq!(percentile(&mut [], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), Some(2.5));
    }
}
