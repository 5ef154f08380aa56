//! Time-series recorder for figure data (estimates over time, memory
//! usage over time, utilization traces, ...).

use crate::time::{SimDuration, SimTime};

/// An append-only series of `(time, value)` observations.
///
/// Figures 1, 7 and 9 of the paper are time-series plots; the experiment
/// harness records raw points during a run and resamples them onto a
/// regular grid when rendering.
///
/// ```
/// use simkit::stats::TimeSeries;
/// use simkit::SimTime;
///
/// let mut ts = TimeSeries::new();
/// ts.record(SimTime::from_secs(1), 10.0);
/// ts.record(SimTime::from_secs(5), 20.0);
/// // sample-and-hold semantics
/// assert_eq!(ts.value_at(SimTime::from_secs(3)), Some(10.0));
/// let mean = ts.time_weighted_mean(SimTime::from_secs(1), SimTime::from_secs(9), 0.0);
/// assert!((mean - 15.0).abs() < 1e-9); // 4s at 10 + 4s at 20
/// ```
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an observation. Times must be nondecreasing.
    pub fn record(&mut self, t: SimTime, v: f64) {
        debug_assert!(v.is_finite(), "non-finite sample: {v}");
        if let Some(&(last, _)) = self.points.last() {
            debug_assert!(t >= last, "time went backwards: {t} < {last}");
        }
        self.points.push((t, v));
    }

    /// Number of raw points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if no points recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Borrow the raw points.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Value at time `t` under sample-and-hold (step) interpolation:
    /// the most recent observation at or before `t`. `None` before the
    /// first observation.
    pub fn value_at(&self, t: SimTime) -> Option<f64> {
        let idx = self.points.partition_point(|&(pt, _)| pt <= t);
        if idx == 0 {
            None
        } else {
            Some(self.points[idx - 1].1)
        }
    }

    /// Resample onto a regular grid `[start, end]` with the given step,
    /// using sample-and-hold. Instants before the first observation yield
    /// `fill`.
    pub fn resample(
        &self,
        start: SimTime,
        end: SimTime,
        step: SimDuration,
        fill: f64,
    ) -> Vec<(SimTime, f64)> {
        assert!(!step.is_zero(), "zero resample step");
        let mut out = Vec::new();
        let mut t = start;
        while t <= end {
            out.push((t, self.value_at(t).unwrap_or(fill)));
            t += step;
        }
        out
    }

    /// Time-weighted mean over `[start, end]` under sample-and-hold, with
    /// `fill` used before the first observation. Returns `fill` for an
    /// empty window.
    pub fn time_weighted_mean(&self, start: SimTime, end: SimTime, fill: f64) -> f64 {
        if end <= start {
            return fill;
        }
        let total = (end - start).as_micros() as f64;
        let mut acc = 0.0;
        let mut cur_t = start;
        let mut cur_v = self.value_at(start).unwrap_or(fill);
        for &(pt, pv) in &self.points {
            if pt <= start {
                continue;
            }
            if pt >= end {
                break;
            }
            acc += cur_v * (pt - cur_t).as_micros() as f64;
            cur_t = pt;
            cur_v = pv;
        }
        acc += cur_v * (end - cur_t).as_micros() as f64;
        acc / total
    }

    /// Merge another series into this one, interleaving by time with a
    /// stable two-pointer pass: on equal timestamps `self`'s points come
    /// first. The left-priority tie rule makes the operation associative
    /// (`(a·b)·c == a·(b·c)`), so per-shard series can be combined in any
    /// grouping — pinned down by the property tests in
    /// `tests/proptests.rs`.
    pub fn merge(&mut self, other: &TimeSeries) {
        if other.points.is_empty() {
            return;
        }
        let left = std::mem::take(&mut self.points);
        let mut out = Vec::with_capacity(left.len() + other.points.len());
        let (mut i, mut j) = (0, 0);
        while i < left.len() && j < other.points.len() {
            if left[i].0 <= other.points[j].0 {
                out.push(left[i]);
                i += 1;
            } else {
                out.push(other.points[j]);
                j += 1;
            }
        }
        out.extend_from_slice(&left[i..]);
        out.extend_from_slice(&other.points[j..]);
        self.points = out;
    }

    /// Maximum recorded value; `None` if empty.
    pub fn max_value(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|&(_, v)| v)
            .fold(None, |m, v| Some(m.map_or(v, |m: f64| m.max(v))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn value_at_is_sample_and_hold() {
        let mut ts = TimeSeries::new();
        ts.record(t(1), 10.0);
        ts.record(t(5), 20.0);
        assert_eq!(ts.value_at(t(0)), None);
        assert_eq!(ts.value_at(t(1)), Some(10.0));
        assert_eq!(ts.value_at(t(3)), Some(10.0));
        assert_eq!(ts.value_at(t(5)), Some(20.0));
        assert_eq!(ts.value_at(t(100)), Some(20.0));
    }

    #[test]
    fn resample_grid() {
        let mut ts = TimeSeries::new();
        ts.record(t(2), 1.0);
        ts.record(t(4), 2.0);
        let grid = ts.resample(t(0), t(5), SimDuration::from_secs(1), 0.0);
        let vals: Vec<f64> = grid.iter().map(|&(_, v)| v).collect();
        assert_eq!(vals, vec![0.0, 0.0, 1.0, 1.0, 2.0, 2.0]);
    }

    #[test]
    fn time_weighted_mean_steps() {
        let mut ts = TimeSeries::new();
        ts.record(t(0), 0.0);
        ts.record(t(5), 10.0);
        // [0,5): 0.0, [5,10): 10.0 → mean 5.0 over [0,10)
        let m = ts.time_weighted_mean(t(0), t(10), 0.0);
        assert!((m - 5.0).abs() < 1e-9);
    }

    #[test]
    fn time_weighted_mean_uses_fill_before_first() {
        let mut ts = TimeSeries::new();
        ts.record(t(5), 10.0);
        let m = ts.time_weighted_mean(t(0), t(10), 2.0);
        // [0,5): 2.0, [5,10): 10.0 → 6.0
        assert!((m - 6.0).abs() < 1e-9);
    }

    #[test]
    fn empty_window_returns_fill() {
        let ts = TimeSeries::new();
        assert_eq!(ts.time_weighted_mean(t(5), t(5), 7.0), 7.0);
        assert_eq!(ts.value_at(t(1)), None);
        assert_eq!(ts.max_value(), None);
    }

    #[test]
    fn max_value() {
        let mut ts = TimeSeries::new();
        ts.record(t(1), 3.0);
        ts.record(t(2), 9.0);
        ts.record(t(3), 4.0);
        assert_eq!(ts.max_value(), Some(9.0));
    }
}
