//! Fixed-bin histograms (linear or logarithmic bin edges).

/// A histogram with precomputed bin edges.
///
/// Samples below the first edge land in an underflow bin and samples at or
/// above the last edge in an overflow bin, so no observation is ever lost —
/// important when rendering figure-style distributions from simulations with
/// occasional extreme stragglers.
///
/// ```
/// use simkit::stats::Histogram;
///
/// let mut h = Histogram::linear(0.0, 10.0, 5);
/// for x in [0.5, 1.0, 7.3, 42.0] {
///     h.observe(x);
/// }
/// assert_eq!(h.bin_count(0), 2);   // 0.5 and 1.0 fall in [0, 2)
/// assert_eq!(h.overflow(), 1);     // 42.0
/// assert_eq!(h.total(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    edges: Vec<f64>,
    counts: Vec<u64>, // len = edges.len() + 1 (underflow .. overflow)
    total: u64,
}

impl Histogram {
    /// Build from explicit, strictly increasing bin edges.
    pub fn from_edges(edges: Vec<f64>) -> Self {
        assert!(edges.len() >= 2, "need at least two edges");
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "edges must be strictly increasing"
        );
        let n = edges.len() + 1;
        Histogram {
            edges,
            counts: vec![0; n],
            total: 0,
        }
    }

    /// `bins` equal-width bins covering `[lo, hi)`.
    pub fn linear(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins >= 1 && hi > lo, "invalid linear histogram spec");
        let w = (hi - lo) / bins as f64;
        Self::from_edges((0..=bins).map(|i| lo + w * i as f64).collect())
    }

    /// `bins` logarithmically spaced bins covering `[lo, hi)`; `lo > 0`.
    pub fn logarithmic(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(
            bins >= 1 && lo > 0.0 && hi > lo,
            "invalid log histogram spec"
        );
        let (llo, lhi) = (lo.ln(), hi.ln());
        let w = (lhi - llo) / bins as f64;
        Self::from_edges((0..=bins).map(|i| (llo + w * i as f64).exp()).collect())
    }

    /// Record one sample.
    pub fn observe(&mut self, x: f64) {
        debug_assert!(x.is_finite(), "non-finite sample: {x}");
        let idx = match self.edges.binary_search_by(|e| e.total_cmp(&x)) {
            Ok(i) => i + 1, // exactly on edge i → bin i (right-open bins)
            Err(i) => i,    // first edge greater than x
        };
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Total number of samples recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Count in the i-th *interior* bin `[edges[i], edges[i+1])`.
    pub fn bin_count(&self, i: usize) -> u64 {
        self.counts[i + 1]
    }

    /// Number of interior bins.
    pub fn num_bins(&self) -> usize {
        self.edges.len() - 1
    }

    /// Samples below the first edge.
    pub fn underflow(&self) -> u64 {
        self.counts[0]
    }

    /// Samples at or above the last edge.
    pub fn overflow(&self) -> u64 {
        *self.counts.last().expect("counts nonempty")
    }

    /// The bin edges.
    pub fn edges(&self) -> &[f64] {
        &self.edges
    }

    /// Iterator over `(bin_low, bin_high, count)` for interior bins.
    pub fn iter_bins(&self) -> impl Iterator<Item = (f64, f64, u64)> + '_ {
        self.edges
            .windows(2)
            .zip(&self.counts[1..self.counts.len() - 1])
            .map(|(w, &c)| (w[0], w[1], c))
    }

    /// Merge another histogram with identical bin edges into this one
    /// (bin-wise count addition). Merging is associative and commutative,
    /// so per-shard histograms can be combined in any grouping — the
    /// property tests in `tests/proptests.rs` pin this down.
    ///
    /// Panics if the edge vectors differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.edges, other.edges,
            "merging histograms with different bin edges"
        );
        for (c, &o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.total += other.total;
    }

    /// Fraction of samples strictly below `x` (piecewise-constant estimate
    /// using whole bins; `x` should normally be a bin edge).
    pub fn fraction_below(&self, x: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let mut acc = self.counts[0];
        for (i, w) in self.edges.windows(2).enumerate() {
            if w[1] <= x {
                acc += self.counts[i + 1];
            } else {
                break;
            }
        }
        acc as f64 / self.total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_bins_count_correctly() {
        let mut h = Histogram::linear(0.0, 10.0, 10);
        for x in [0.0, 0.5, 1.0, 5.5, 9.99] {
            h.observe(x);
        }
        assert_eq!(h.total(), 5);
        assert_eq!(h.bin_count(0), 2); // 0.0 and 0.5
        assert_eq!(h.bin_count(1), 1); // 1.0 on the edge goes right
        assert_eq!(h.bin_count(5), 1);
        assert_eq!(h.bin_count(9), 1);
    }

    #[test]
    fn under_and_overflow() {
        let mut h = Histogram::linear(0.0, 1.0, 2);
        h.observe(-3.0);
        h.observe(1.0); // at the top edge → overflow (right-open)
        h.observe(42.0);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn log_bins_are_increasing_and_span() {
        let h = Histogram::logarithmic(1.0, 1024.0, 10);
        let e = h.edges();
        assert!((e[0] - 1.0).abs() < 1e-9);
        assert!((e[10] - 1024.0).abs() < 1e-6);
        assert!(e.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn fraction_below_matches_counts() {
        let mut h = Histogram::linear(0.0, 10.0, 10);
        for i in 0..10 {
            h.observe(i as f64 + 0.5);
        }
        assert!((h.fraction_below(4.0) - 0.4).abs() < 1e-12);
        assert!((h.fraction_below(10.0) - 1.0).abs() < 1e-12);
        assert_eq!(h.fraction_below(0.0), 0.0);
    }

    #[test]
    fn iter_bins_yields_all() {
        let mut h = Histogram::linear(0.0, 3.0, 3);
        h.observe(0.1);
        h.observe(2.9);
        let bins: Vec<_> = h.iter_bins().collect();
        assert_eq!(bins.len(), 3);
        assert_eq!(bins[0].2, 1);
        assert_eq!(bins[2].2, 1);
    }

    #[test]
    fn empty_fraction_is_zero() {
        let h = Histogram::linear(0.0, 1.0, 4);
        assert_eq!(h.fraction_below(0.5), 0.0);
    }
}
