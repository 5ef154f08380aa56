//! Per-slave migration-time estimation (paper §IV-A).
//!
//! Each slave estimates how long migrating a block will take on its disk
//! using an EWMA of past migration durations, normalized to
//! seconds-per-byte so that blocks of different sizes share one estimate.
//!
//! The paper adds a crucial refinement: "when the elapsed duration of an
//! active migration becomes greater than its estimate, we update the
//! estimate periodically (every heartbeat) until migration completes."
//! Without it, a sudden bandwidth drop would go unnoticed until the
//! (now very slow) migration finally finishes. [`MigrationEstimator::refresh_in_progress`]
//! implements that early, monotone update.

use simkit::stats::Ewma;
use simkit::SimDuration;

/// EWMA estimator of migration cost, in seconds per byte.
///
/// ```
/// use dyrs::MigrationEstimator;
/// use simkit::SimDuration;
///
/// const MB: u64 = 1 << 20;
/// let mut est = MigrationEstimator::new(100.0 * MB as f64, 0.5);
/// // before any sample the prior is the idle-disk rate: 1 s per 100 MB
/// assert!((est.estimate(100 * MB).as_secs_f64() - 1.0).abs() < 1e-6);
///
/// // a slow migration pushes the estimate up …
/// est.on_complete(100 * MB, SimDuration::from_secs(3));
/// assert!(est.estimate(100 * MB).as_secs_f64() > 2.9);
///
/// // … and an overdue in-progress migration raises it immediately,
/// // without waiting for completion (§IV-A)
/// assert!(est.refresh_in_progress(100 * MB, SimDuration::from_secs(10)));
/// assert!(est.estimate(100 * MB).as_secs_f64() > 6.0);
/// ```
#[derive(Debug, Clone)]
pub struct MigrationEstimator {
    ewma: Ewma,
    /// Prior used before any migration completes: the disk's idle
    /// sequential rate (optimistic, like a freshly started slave).
    default_secs_per_byte: f64,
}

impl MigrationEstimator {
    /// An estimator for a slave whose idle disk reads at `disk_bw`
    /// bytes/sec, blending new samples with weight `alpha`.
    pub fn new(disk_bw: f64, alpha: f64) -> Self {
        assert!(disk_bw > 0.0, "disk bandwidth must be positive");
        MigrationEstimator {
            ewma: Ewma::new(alpha),
            default_secs_per_byte: 1.0 / disk_bw,
        }
    }

    /// Current cost estimate in seconds per byte.
    pub fn secs_per_byte(&self) -> f64 {
        self.ewma.get_or(self.default_secs_per_byte)
    }

    /// Estimated migration time for a block of `bytes`.
    pub fn estimate(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(self.secs_per_byte() * bytes as f64)
    }

    /// Fold in a completed migration of `bytes` that took `duration`.
    /// Zero-byte migrations carry no signal and are ignored.
    pub fn on_complete(&mut self, bytes: u64, duration: SimDuration) {
        if bytes == 0 {
            return;
        }
        self.ewma.observe(duration.as_secs_f64() / bytes as f64);
    }

    /// Heartbeat-time refresh for an in-progress migration of `bytes`
    /// that has been running for `elapsed`: since elapsed time is a lower
    /// bound on the eventual duration, push the estimate up if the lower
    /// bound already exceeds it (never down). Returns `true` if the
    /// estimate changed.
    pub fn refresh_in_progress(&mut self, bytes: u64, elapsed: SimDuration) -> bool {
        if bytes == 0 {
            return false;
        }
        let lower_bound = elapsed.as_secs_f64() / bytes as f64;
        if lower_bound > self.secs_per_byte() {
            self.ewma.observe_lower_bound(lower_bound);
            true
        } else {
            false
        }
    }

    /// Forget all history (slave restart).
    pub fn reset(&mut self) {
        self.ewma.reset();
    }

    /// True if no migration has ever been observed.
    pub fn is_cold(&self) -> bool {
        self.ewma.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1 << 20;

    fn est() -> MigrationEstimator {
        // 100 MB/s disk, alpha 0.5 for easy arithmetic
        MigrationEstimator::new(100.0 * MB as f64, 0.5)
    }

    #[test]
    fn cold_estimator_uses_disk_speed() {
        let e = est();
        assert!(e.is_cold());
        let t = e.estimate(100 * MB);
        assert!((t.as_secs_f64() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn completions_move_the_estimate() {
        let mut e = est();
        // first sample: 2 s for 100 MB → 2x slower than prior
        e.on_complete(100 * MB, SimDuration::from_secs(2));
        assert!((e.estimate(100 * MB).as_secs_f64() - 2.0).abs() < 1e-6);
        // second sample: 4 s → blended to 3 s with alpha 0.5
        e.on_complete(100 * MB, SimDuration::from_secs(4));
        assert!((e.estimate(100 * MB).as_secs_f64() - 3.0).abs() < 1e-6);
    }

    #[test]
    fn estimate_scales_with_block_size() {
        let mut e = est();
        e.on_complete(100 * MB, SimDuration::from_secs(2));
        let half = e.estimate(50 * MB);
        assert!((half.as_secs_f64() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn refresh_raises_but_never_lowers() {
        let mut e = est();
        e.on_complete(100 * MB, SimDuration::from_secs(2));
        // elapsed 1 s on a 100 MB block: lower bound 1 s < estimate 2 s → no-op
        assert!(!e.refresh_in_progress(100 * MB, SimDuration::from_secs(1)));
        assert!((e.estimate(100 * MB).as_secs_f64() - 2.0).abs() < 1e-6);
        // elapsed 10 s: lower bound far above → estimate rises
        assert!(e.refresh_in_progress(100 * MB, SimDuration::from_secs(10)));
        let after = e.estimate(100 * MB).as_secs_f64();
        assert!(after > 2.0 && after <= 10.0, "estimate {after}");
    }

    #[test]
    fn repeated_refresh_converges_upward_monotonically() {
        let mut e = est();
        e.on_complete(100 * MB, SimDuration::from_secs(2));
        let mut last = e.secs_per_byte();
        for s in 3..20 {
            e.refresh_in_progress(100 * MB, SimDuration::from_secs(s));
            let now = e.secs_per_byte();
            assert!(now >= last, "estimate must not decrease during refresh");
            last = now;
        }
    }

    #[test]
    fn zero_byte_samples_ignored() {
        let mut e = est();
        e.on_complete(0, SimDuration::from_secs(100));
        assert!(e.is_cold());
        assert!(!e.refresh_in_progress(0, SimDuration::from_secs(100)));
    }

    #[test]
    fn reset_returns_to_prior() {
        let mut e = est();
        e.on_complete(100 * MB, SimDuration::from_secs(50));
        e.reset();
        assert!(e.is_cold());
        assert!((e.estimate(100 * MB).as_secs_f64() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn recovery_after_interference_ends() {
        // Estimate climbs during interference, then falls back once fast
        // migrations resume — the adaptation shown in Fig. 9b/9c.
        let mut e = est();
        for _ in 0..5 {
            e.on_complete(100 * MB, SimDuration::from_secs(8)); // slow period
        }
        let slow = e.estimate(100 * MB).as_secs_f64();
        assert!(slow > 6.0);
        for _ in 0..10 {
            e.on_complete(100 * MB, SimDuration::from_secs(1)); // fast period
        }
        let fast = e.estimate(100 * MB).as_secs_f64();
        assert!(fast < 1.5, "estimate should recover, got {fast}");
    }
}
