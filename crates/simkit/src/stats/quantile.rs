//! Empirical quantiles and CDFs over collected samples.

/// Linear-interpolated percentile of a **sorted** slice.
///
/// `p` is in `[0, 100]`. Returns 0.0 for an empty slice (simulation metrics
/// sometimes legitimately have no samples, e.g. zero failed tasks).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    if sorted.is_empty() {
        return 0.0;
    }
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "input must be sorted"
    );
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi || sorted[lo] == sorted[hi] {
        // the equal-sample shortcut also avoids last-ulp wobble from
        // interpolating between identical values, keeping the quantile
        // function exactly monotone
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        // clamp: interpolation must stay inside [sorted[lo], sorted[hi]]
        (sorted[lo] * (1.0 - frac) + sorted[hi] * frac).clamp(sorted[lo], sorted[hi])
    }
}

/// Empirical CDF evaluated at `points.len()` evenly spaced probabilities,
/// returned as `(value, cumulative_probability)` pairs — the series a
/// figure plots directly. Input need not be sorted.
pub fn cdf_points(samples: &[f64], points: usize) -> Vec<(f64, f64)> {
    assert!(points >= 2, "need at least two CDF points");
    if samples.is_empty() {
        return Vec::new();
    }
    let mut xs = samples.to_vec();
    xs.sort_by(f64::total_cmp);
    (0..points)
        .map(|i| {
            let p = i as f64 / (points - 1) as f64;
            (percentile(&xs, p * 100.0), p)
        })
        .collect()
}

/// A sample collector that yields quantiles on demand.
///
/// Stores all samples (experiments are small enough for that); sorting is
/// deferred and cached.
///
/// ```
/// use simkit::stats::Quantiles;
///
/// let mut q = Quantiles::new();
/// q.extend_from(&[4.0, 1.0, 3.0, 2.0]);
/// assert_eq!(q.median(), 2.5);
/// assert_eq!(q.fraction_at_most(3.0), 0.75);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Quantiles {
    samples: Vec<f64>,
    sorted: bool,
}

impl Quantiles {
    /// Empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a sample.
    pub fn observe(&mut self, x: f64) {
        debug_assert!(x.is_finite(), "non-finite sample: {x}");
        self.samples.push(x);
        self.sorted = false;
    }

    /// Record many samples.
    pub fn extend_from(&mut self, xs: &[f64]) {
        self.samples.extend_from_slice(xs);
        self.sorted = false;
    }

    /// Merge another collector's samples into this one. Order-insensitive
    /// (quantiles are computed over the sorted multiset), so merging is
    /// associative and commutative.
    pub fn merge(&mut self, other: &Quantiles) {
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// The p-th percentile (`p ∈ [0, 100]`).
    pub fn percentile(&mut self, p: f64) -> f64 {
        self.ensure_sorted();
        percentile(&self.samples, p)
    }

    /// Median shorthand.
    pub fn median(&mut self) -> f64 {
        self.percentile(50.0)
    }

    /// Arithmetic mean; 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Fraction of samples `<= x`.
    pub fn fraction_at_most(&mut self, x: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let n = self.samples.partition_point(|&s| s <= x);
        n as f64 / self.samples.len() as f64
    }

    /// CDF series for plotting.
    pub fn cdf(&mut self, points: usize) -> Vec<(f64, f64)> {
        self.ensure_sorted();
        cdf_points(&self.samples, points)
    }

    /// Borrow the raw samples (unsorted order not guaranteed).
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_of_known_data() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert!((percentile(&xs, 0.0) - 1.0).abs() < 1e-12);
        assert!((percentile(&xs, 100.0) - 100.0).abs() < 1e-12);
        assert!((percentile(&xs, 50.0) - 50.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_empty_is_zero() {
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn percentile_single_sample() {
        assert_eq!(percentile(&[7.0], 0.0), 7.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn quantiles_collector() {
        let mut q = Quantiles::new();
        for i in (1..=10).rev() {
            q.observe(i as f64);
        }
        assert_eq!(q.count(), 10);
        assert!((q.median() - 5.5).abs() < 1e-12);
        assert!((q.mean() - 5.5).abs() < 1e-12);
        assert!((q.fraction_at_most(5.0) - 0.5).abs() < 1e-12);
        assert_eq!(q.fraction_at_most(0.0), 0.0);
        assert_eq!(q.fraction_at_most(10.0), 1.0);
    }

    #[test]
    fn cdf_is_monotone() {
        let mut q = Quantiles::new();
        let mut rng = crate::rng::Rng::new(5);
        for _ in 0..1000 {
            q.observe(rng.exponential(2.0));
        }
        let cdf = q.cdf(50);
        assert_eq!(cdf.len(), 50);
        for w in cdf.windows(2) {
            assert!(w[0].0 <= w[1].0, "values must be nondecreasing");
            assert!(w[0].1 <= w[1].1, "probs must be nondecreasing");
        }
        assert_eq!(cdf[0].1, 0.0);
        assert_eq!(cdf.last().unwrap().1, 1.0);
    }

    #[test]
    fn observe_after_query_resorts() {
        let mut q = Quantiles::new();
        q.observe(1.0);
        q.observe(3.0);
        assert_eq!(q.median(), 2.0);
        q.observe(2.0);
        assert_eq!(q.median(), 2.0);
        q.observe(100.0);
        assert!((q.percentile(100.0) - 100.0).abs() < 1e-12);
    }

    #[test]
    fn extend_from_bulk() {
        let mut q = Quantiles::new();
        q.extend_from(&[3.0, 1.0, 2.0]);
        assert_eq!(q.count(), 3);
        assert_eq!(q.median(), 2.0);
    }
}
