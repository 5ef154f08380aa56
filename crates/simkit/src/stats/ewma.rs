//! Exponentially weighted moving average.

/// An exponentially weighted moving average over `f64` samples.
///
/// `alpha` is the weight of the newest sample: `v ← alpha·x + (1−alpha)·v`.
/// Until the first observation the average is undefined and [`Ewma::get`]
/// returns `None`; callers that need a prior can use [`Ewma::get_or`].
///
/// This is the estimator DYRS slaves use for per-block migration time
/// (paper §IV-A): it smooths random disk-bandwidth fluctuation while still
/// tracking recent conditions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// Create an EWMA with the given newest-sample weight `alpha ∈ (0, 1]`.
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "alpha must be in (0,1], got {alpha}"
        );
        Ewma { alpha, value: None }
    }

    /// Fold in a new observation.
    pub fn observe(&mut self, x: f64) {
        debug_assert!(x.is_finite(), "non-finite EWMA sample: {x}");
        self.value = Some(match self.value {
            None => x,
            Some(v) => self.alpha * x + (1.0 - self.alpha) * v,
        });
    }

    /// Current average, if at least one sample has been observed.
    pub fn get(&self) -> Option<f64> {
        self.value
    }

    /// Current average, or `default` before the first sample.
    pub fn get_or(&self, default: f64) -> f64 {
        self.value.unwrap_or(default)
    }

    /// True if no samples have been observed yet.
    pub fn is_empty(&self) -> bool {
        self.value.is_none()
    }

    /// The configured newest-sample weight.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Forget all history (used when a slave restarts).
    pub fn reset(&mut self) {
        self.value = None;
    }

    /// Raise the average to at least `x` *without* lowering it.
    ///
    /// DYRS refreshes an in-progress migration's estimate every heartbeat
    /// once its elapsed time exceeds the current estimate (paper §IV-A):
    /// the elapsed time is a **lower bound** on the true duration, so it
    /// must only ever push the estimate up.
    pub fn observe_lower_bound(&mut self, x: f64) {
        debug_assert!(x.is_finite(), "non-finite EWMA sample: {x}");
        match self.value {
            None => self.value = Some(x),
            Some(v) if x > v => {
                // Blend like a normal observation but never drop below the
                // previous value (x > v guarantees the blend is above v).
                self.value = Some(self.alpha * x + (1.0 - self.alpha) * v);
            }
            Some(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_sample_sets_value() {
        let mut e = Ewma::new(0.3);
        assert!(e.is_empty());
        e.observe(10.0);
        assert_eq!(e.get(), Some(10.0));
    }

    #[test]
    fn blends_with_alpha() {
        let mut e = Ewma::new(0.5);
        e.observe(10.0);
        e.observe(20.0);
        assert_eq!(e.get(), Some(15.0));
        e.observe(15.0);
        assert_eq!(e.get(), Some(15.0));
    }

    #[test]
    fn converges_to_constant_input() {
        let mut e = Ewma::new(0.2);
        e.observe(100.0);
        for _ in 0..200 {
            e.observe(3.0);
        }
        assert!((e.get().unwrap() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn get_or_default() {
        let e = Ewma::new(0.3);
        assert_eq!(e.get_or(7.0), 7.0);
    }

    #[test]
    fn lower_bound_never_decreases() {
        let mut e = Ewma::new(0.5);
        e.observe(10.0);
        e.observe_lower_bound(4.0); // below current: ignored
        assert_eq!(e.get(), Some(10.0));
        e.observe_lower_bound(30.0); // above: blended upward
        assert_eq!(e.get(), Some(20.0));
    }

    #[test]
    fn lower_bound_seeds_empty() {
        let mut e = Ewma::new(0.5);
        e.observe_lower_bound(12.0);
        assert_eq!(e.get(), Some(12.0));
    }

    #[test]
    fn reset_clears() {
        let mut e = Ewma::new(0.5);
        e.observe(1.0);
        e.reset();
        assert!(e.is_empty());
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn zero_alpha_rejected() {
        Ewma::new(0.0);
    }
}
