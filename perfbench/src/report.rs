//! The result every workload hands back: metrics with units, the
//! correctness ledger, and the one-line JSON the command ends with.

use std::collections::BTreeMap;
use std::fmt::Write;

/// Named metric values with their units, in insertion-independent order.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    values: BTreeMap<String, (f64, &'static str)>,
}

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.values.insert(name.to_owned(), (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|v| v.0)
    }

    /// Keep only `keep` (in the order given); a missing name is reported
    /// back so the caller can treat it as a benchmark bug.
    pub fn select(&self, keep: &[&str]) -> Result<Metrics, String> {
        let mut out = Metrics::default();
        for name in keep {
            let v = self
                .values
                .get(*name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            out.values.insert((*name).to_owned(), *v);
        }
        Ok(out)
    }
}

/// Operations attempted and failed, with the first few violations.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
}

impl Checks {
    /// Record one operation; `problems` lists every check it violated.
    pub fn op(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                if self.violations.len() < 20 {
                    self.violations.push(p);
                }
            }
        }
    }

    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// A run is correct when it attempted something and nothing failed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }
}

/// Check helper: push `what` onto `problems` unless `ok`.
pub fn expect(problems: &mut Vec<String>, ok: bool, what: impl FnOnce() -> String) {
    if !ok {
        problems.push(what());
    }
}

/// Format a metric value as JSON: every digit Rust's shortest
/// round-trip representation gives, `0` for a non-finite value.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v:?}");
        s.strip_suffix(".0").map(str::to_owned).unwrap_or(s)
    } else {
        "0".to_owned()
    }
}

/// The final line: `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
pub fn result_line(checks: &Checks, metrics: &Metrics) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        checks.correct(),
        checks.attempted,
        checks.failed
    );
    for (i, (name, (v, unit))) in metrics.values.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*v)
        );
    }
    out.push_str("}}");
    out
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forced_failure_counts_and_flips_correct() {
        let mut c = Checks::default();
        c.op(vec![]);
        c.op(vec![]);
        assert!(c.correct());
        c.op(vec!["forced".to_owned()]);
        assert_eq!((c.attempted, c.failed), (3, 1));
        assert!(!c.correct());
        assert!((c.fail_frac() - 1.0 / 3.0).abs() < 1e-12);
        let line = result_line(&c, &Metrics::default());
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 1"));
    }

    #[test]
    fn nothing_attempted_is_not_correct() {
        assert!(!Checks::default().correct());
    }

    #[test]
    fn result_line_keeps_every_digit() {
        let mut m = Metrics::default();
        m.set("a_ms", 1.203_456_789_012_3, "ms");
        m.set("n", 3.0, "count");
        let line = result_line(&Checks::default(), &m);
        assert!(line.contains("\"a_ms\": {\"value\": 1.2034567890123, \"unit\": \"ms\"}"));
        assert!(line.contains("\"n\": {\"value\": 3, \"unit\": \"count\"}"));
        assert!(m.select(&["a_ms", "missing"]).is_err());
    }
}
