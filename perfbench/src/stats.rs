//! Order statistics and process measurements.

use std::time::Duration;

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nearest-rank percentile `q` (0–100) of `values`; 0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of `values`, the mean of the middle two for an even count; 0
/// when empty.
pub fn median(values: &[f64]) -> f64 {
    let n = values.len();
    if n % 2 == 1 || n == 0 {
        return percentile(values, 50.0);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    (v[n / 2 - 1] + v[n / 2]) / 2.0
}

/// The highest of these percentiles that leaves at least ten of `n`
/// samples beyond it.
pub fn tail_percentile(n: usize) -> f64 {
    [99.0, 97.5, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|q| n as f64 * (1.0 - q / 100.0) >= 10.0)
        .unwrap_or(50.0)
}

/// `part / whole` in percent; 0 when `whole` is 0.
pub fn pct(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        100.0 * part / whole
    }
}

/// The process's resident-set high-water mark (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(3427), 99.0);
        assert_eq!(tail_percentile(420), 97.5);
        assert_eq!(tail_percentile(160), 90.0);
        assert_eq!(tail_percentile(48), 75.0);
        assert_eq!(tail_percentile(5), 50.0);
    }

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
