//! Streaming summary statistics and empirical distributions.
//!
//! The measurement experiments (paper Fig. 2) need means, deviations and
//! CDFs of latency samples; the algorithm-comparison experiments (Fig. 13)
//! need percentile summaries of converged utilities. [`Summary`] accumulates
//! moments online (Welford), and [`Ecdf`] materializes an empirical CDF.

/// Online mean/variance accumulator (Welford's algorithm) with min/max.
///
/// # Example
///
/// ```
/// use mvcom_simnet::stats::Summary;
///
/// let mut s = Summary::new();
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     s.add(x);
/// }
/// assert_eq!(s.mean(), 2.5);
/// assert_eq!(s.count(), 4);
/// assert_eq!(s.min(), 1.0);
/// assert_eq!(s.max(), 4.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// An empty accumulator.
    pub fn new() -> Summary {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn add(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (`0.0` with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`+∞` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`−∞` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64) * (other.count as f64) / total as f64;
        self.mean += delta * other.count as f64 / total as f64;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl Default for Summary {
    fn default() -> Self {
        Summary::new()
    }
}

impl Extend<f64> for Summary {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.add(x);
        }
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Summary {
        let mut s = Summary::new();
        s.extend(iter);
        s
    }
}

/// An empirical cumulative distribution function over a finite sample.
///
/// # Example
///
/// ```
/// use mvcom_simnet::stats::Ecdf;
///
/// let cdf = Ecdf::from_samples(vec![3.0, 1.0, 2.0, 4.0]);
/// assert_eq!(cdf.eval(2.5), 0.5);
/// assert_eq!(cdf.quantile(0.5), 2.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds the CDF from raw samples (NaNs are removed).
    pub fn from_samples(mut samples: Vec<f64>) -> Ecdf {
        samples.retain(|x| !x.is_nan());
        mvcom_types::sort_by_f64(&mut samples, |&x| x);
        Ecdf { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Returns `true` when built from no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `P(X <= x)` under the empirical distribution.
    pub fn eval(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&s| s <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile, `q ∈ [0, 1]`, by the nearest-rank method.
    ///
    /// # Panics
    ///
    /// Panics if the CDF is empty or `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(!self.sorted.is_empty(), "quantile of an empty ECDF");
        assert!((0.0..=1.0).contains(&q), "quantile level out of range: {q}");
        // q = 0 needs no special case: ceil(0) = 0 clamps to rank 1, the minimum.
        let rank = (q * self.sorted.len() as f64).ceil() as usize;
        self.sorted[rank.clamp(1, self.sorted.len()) - 1]
    }

    /// Iterates over `(value, cumulative probability)` steps — one point
    /// per sample — ready for plotting.
    pub fn points(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        let n = self.sorted.len() as f64;
        self.sorted
            .iter()
            .enumerate()
            .map(move |(i, &v)| (v, (i + 1) as f64 / n))
    }

    /// The underlying sorted samples.
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_moments() {
        let s: Summary = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Population variance is 4.0; unbiased sample variance = 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn empty_summary_is_safe() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn single_observation() {
        let mut s = Summary::new();
        s.add(3.0);
        assert_eq!(s.mean(), 3.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), 3.0);
        assert_eq!(s.max(), 3.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0 + 5.0).collect();
        let sequential: Summary = xs.iter().copied().collect();
        let mut left: Summary = xs[..37].iter().copied().collect();
        let right: Summary = xs[37..].iter().copied().collect();
        left.merge(&right);
        assert_eq!(left.count(), sequential.count());
        assert!((left.mean() - sequential.mean()).abs() < 1e-9);
        assert!((left.variance() - sequential.variance()).abs() < 1e-9);
        assert_eq!(left.min(), sequential.min());
        assert_eq!(left.max(), sequential.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s: Summary = [1.0, 2.0].into_iter().collect();
        let before = s;
        s.merge(&Summary::new());
        assert_eq!(s, before);
        let mut e = Summary::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn ecdf_eval_steps() {
        let cdf = Ecdf::from_samples(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(cdf.eval(0.5), 0.0);
        assert_eq!(cdf.eval(1.0), 0.25);
        assert_eq!(cdf.eval(2.999), 0.5);
        assert_eq!(cdf.eval(4.0), 1.0);
        assert_eq!(cdf.eval(100.0), 1.0);
    }

    #[test]
    fn ecdf_quantiles() {
        let cdf = Ecdf::from_samples((1..=100).map(|i| i as f64).collect());
        assert_eq!(cdf.quantile(0.0), 1.0);
        assert_eq!(cdf.quantile(0.5), 50.0);
        assert_eq!(cdf.quantile(0.95), 95.0);
        assert_eq!(cdf.quantile(1.0), 100.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn ecdf_quantile_of_empty_panics() {
        Ecdf::from_samples(vec![]).quantile(0.5);
    }

    #[test]
    fn ecdf_drops_nans_and_sorts() {
        let cdf = Ecdf::from_samples(vec![3.0, f64::NAN, 1.0]);
        assert_eq!(cdf.len(), 2);
        assert_eq!(cdf.samples(), &[1.0, 3.0]);
    }

    #[test]
    fn ecdf_points_are_monotone() {
        let cdf = Ecdf::from_samples(vec![5.0, 1.0, 3.0]);
        let pts: Vec<(f64, f64)> = cdf.points().collect();
        assert_eq!(pts.len(), 3);
        for w in pts.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 < w[1].1);
        }
        assert_eq!(pts.last().unwrap().1, 1.0);
    }
}
