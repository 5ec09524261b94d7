//! Exact sample statistics: nearest-rank percentiles over sorted samples
//! (no histogram buckets), the sample-count rule for reporting a
//! percentile, and the quartiles `compare` uses.

/// Sorts samples ascending (NaN-free input; the benchmark records times).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// Whether percentile `p` (in `0..1`) is reportable from `n` samples: at
/// least ten samples must lie beyond it, so p99 needs 1,000 samples and the
/// median needs 20.
pub fn supported(n: usize, p: f64) -> bool {
    n as f64 * (1.0 - p) >= 10.0 - 1e-9
}

/// Nearest-rank percentile of ascending `sorted` samples (`None` when
/// empty). Rank `ceil(p·n)`, so p50 of `[1, 2]` is 1 and p100 is the max.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// First quartile, median and third quartile, computed like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method), so
/// spreads printed here match the ones an external check computes.
/// `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let data = sorted(values.to_vec());
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut q = [0.0f64; 3];
    for (i, slot) in q.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some((q[0], q[1], q[2]))
}

/// Interquartile distance as a share of the median (`None` when undefined).
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, med, q3) = quartiles(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_over_exact_samples() {
        let s = sorted((1..=1000).map(f64::from).rev().collect());
        assert_eq!(percentile(&s, 0.5), Some(500.0));
        assert_eq!(percentile(&s, 0.99), Some(990.0));
        assert_eq!(percentile(&s, 1.0), Some(1000.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert!(supported(1000, 0.99));
        assert!(!supported(999, 0.99));
        assert!(supported(20, 0.5));
        assert!(!supported(19, 0.5));
        assert!(supported(100, 0.9));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        let s = spread(&v).unwrap();
        assert!((s - 5.5 / 5.5).abs() < 1e-12);
    }
}
