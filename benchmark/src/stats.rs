//! Order statistics for the report: nearest-rank percentiles, the tail
//! percentile a sample can support, and Python-compatible quartiles.

/// Tail percentiles the report may name, highest first.
const TAIL_CANDIDATES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Number of samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` in a sample of `n`.
fn rank(n: usize, p: f64) -> usize {
    (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// The highest candidate percentile, at most `wanted`, that still leaves
/// [`MIN_BEYOND`] samples beyond it; `None` when the sample cannot support
/// even the median that way (fewer than 20 samples).
pub fn supported_tail(n: usize, wanted: f64) -> Option<f64> {
    TAIL_CANDIDATES.iter().copied().find(|&p| p <= wanted && n >= rank(n, p) + MIN_BEYOND)
}

/// Nearest-rank percentile of an unsorted sample; `None` when it is empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// Median as the mean of the two middle values for even counts.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 { sorted[mid] } else { 0.5 * (sorted[mid - 1] + sorted[mid]) })
}

/// `(q1, q2, q3)` exactly as Python's `statistics.quantiles(values, n=4)`
/// (the default exclusive method) gives them; needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let len = values.len();
    if len < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Interquartile distance as a share of the median (the spread the driver
/// and `compare` judge noise by); 0 for fewer than two values or a zero
/// median.
pub fn relative_spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, q2, q3)) if q2 != 0.0 => ((q3 - q1) / q2).abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_picker_keeps_ten_samples_beyond() {
        // 240 pooled iterations: p95 is rank 228, 12 beyond; p99 leaves 2.
        assert_eq!(supported_tail(240, 95.0), Some(95.0));
        assert_eq!(supported_tail(240, 99.9), Some(95.0));
        assert_eq!(supported_tail(480, 99.0), Some(95.0));
        assert_eq!(supported_tail(1000, 99.0), Some(99.0));
        // One 60-iteration session cannot support p95 (3 beyond) or p90 (6).
        assert_eq!(supported_tail(60, 95.0), Some(75.0));
        // 20 samples: the median has exactly 10 beyond it; 19 has 9.
        assert_eq!(supported_tail(20, 95.0), Some(50.0));
        assert_eq!(supported_tail(19, 95.0), None);
        assert_eq!(supported_tail(0, 95.0), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 95.0), Some(95.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&[3.0], 95.0), Some(3.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), Some((7.5, 15.0, 22.5)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((relative_spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(relative_spread(&[4.0]), 0.0);
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
