//! Order statistics used by the benchmark's reports and by `agree`.

/// Nearest-rank percentile of an ascending slice: the value at 1-based
/// rank `ceil(p/100 · n)`. `p` is in `(0, 100]`; the slice is non-empty.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly above the nearest-rank position of percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// A percentile is reportable only with at least ten samples beyond it.
pub fn supported(n: usize, p: f64) -> bool {
    n > 0 && samples_beyond(n, p) >= 10
}

/// Sorts a copy ascending (timings are never NaN).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median as Python's `statistics.median` computes it (mean of the two
/// middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the default "exclusive" method) computes them; needs ≥ 2 values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Distance between the quartiles as a share of the median — the spread
/// the driver holds against each metric's bound.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values);
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), 50.0);
        assert_eq!(nearest_rank(&v, 90.0), 90.0);
        assert_eq!(nearest_rank(&v, 100.0), 100.0);
        assert_eq!(nearest_rank(&v, 0.5), 1.0);
        let five = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(nearest_rank(&five, 30.0), 20.0);
        assert_eq!(nearest_rank(&five, 40.0), 20.0);
        assert_eq!(nearest_rank(&five, 50.0), 35.0);
        assert_eq!(nearest_rank(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // p90 of 100 samples sits at rank 90: exactly ten beyond.
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert!(supported(100, 90.0));
        assert!(!supported(99, 90.0));
        assert!(!supported(100, 95.0));
        assert!(supported(200, 95.0));
        // The median needs twenty samples.
        assert!(supported(20, 50.0));
        assert!(!supported(19, 50.0));
        assert!(!supported(0, 50.0));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(median(&v), 5.5);
        assert_eq!(quartile_spread(&v), Some(1.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), Some((1.0, 4.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
