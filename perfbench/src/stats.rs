//! Timing samples and the percentile rule every reported timing follows:
//! its median, and the highest percentile that still has at least ten
//! samples beyond it, together with the sample count.

/// Percentiles the tail rule chooses from, highest first.
const TAIL_CANDIDATES: [f64; 6] = [0.999, 0.99, 0.95, 0.9, 0.75, 0.5];

/// Samples a tail percentile needs beyond it to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A named set of durations, in seconds.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    secs: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, secs: f64) {
        self.secs.push(secs);
    }

    pub fn len(&self) -> usize {
        self.secs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.secs.is_empty()
    }

    pub fn last(&self) -> Option<f64> {
        self.secs.last().copied()
    }

    pub fn sum(&self) -> f64 {
        self.secs.iter().sum()
    }

    /// The `q` quantile by linear interpolation between order statistics
    /// (0 for an empty set).
    pub fn quantile(&self, q: f64) -> f64 {
        let mut v = self.secs.clone();
        v.sort_by(f64::total_cmp);
        quantile_sorted(&v, q)
    }

    pub fn p50(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The highest percentile with at least [`TAIL_MIN_BEYOND`] samples
    /// beyond it, as `(q, value)`; `None` below 20 samples.
    pub fn tail(&self) -> Option<(f64, f64)> {
        tail_quantile(self.len()).map(|q| (q, self.quantile(q)))
    }

    /// One human-readable line: n, median, p90 and the tail rule's pick,
    /// in milliseconds.
    pub fn describe(&self, name: &str) -> String {
        let tail = match self.tail() {
            Some((q, v)) => format!("p{} {:.3} ms", pct(q), v * 1e3),
            None => "tail n/a (n < 20)".to_owned(),
        };
        format!(
            "{name:<28} n={:<6} p50 {:.3} ms  p90 {:.3} ms  {tail}",
            self.len(),
            self.p50() * 1e3,
            self.quantile(0.9) * 1e3,
        )
    }
}

fn quantile_sorted(v: &[f64], q: f64) -> f64 {
    match v.len() {
        0 => 0.0,
        1 => v[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        }
    }
}

/// The highest candidate percentile `q` with `n·(1−q) ≥ 10` samples
/// beyond it.
pub fn tail_quantile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&q| (n as f64) * (1.0 - q) + 1e-9 >= TAIL_MIN_BEYOND as f64)
}

fn pct(q: f64) -> String {
    let p = q * 100.0;
    if (p - p.round()).abs() < 1e-9 {
        format!("{}", p.round() as u64)
    } else {
        format!("{p}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_interpolation() {
        let mut s = Samples::default();
        for x in [4.0, 1.0, 3.0, 2.0] {
            s.push(x);
        }
        assert_eq!(s.p50(), 2.5);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 4.0);
        assert_eq!(Samples::default().p50(), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(19), None);
        assert_eq!(tail_quantile(20), Some(0.5));
        assert_eq!(tail_quantile(40), Some(0.75));
        assert_eq!(tail_quantile(100), Some(0.9));
        assert_eq!(tail_quantile(199), Some(0.9));
        assert_eq!(tail_quantile(200), Some(0.95));
        assert_eq!(tail_quantile(1_000), Some(0.99));
        assert_eq!(tail_quantile(10_000), Some(0.999));
        for n in 20..2_000 {
            let q = tail_quantile(n).expect("n >= 20 has a tail");
            assert!((n as f64) * (1.0 - q) >= 9.999, "n={n} q={q}");
        }
    }

    #[test]
    fn describe_names_n_and_the_chosen_percentile() {
        let mut s = Samples::default();
        for i in 0..100 {
            s.push(i as f64 * 1e-3);
        }
        let line = s.describe("op");
        assert!(line.contains("n=100"), "{line}");
        assert!(line.contains("p90 "), "{line}");
        assert!(line.ends_with("ms"), "{line}");
    }
}
