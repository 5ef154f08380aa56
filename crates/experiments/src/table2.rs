//! Table II — Sort runtime under the five interference patterns.
//!
//! Paper numbers: (a) persistent on node1 → 137 s; (b) 10 s alternation →
//! 127 s; (c) 20 s alternation → 129 s; (d) 10 s anti-phased on two nodes
//! → 135 s; (e) 20 s anti-phased → 137 s. The shape: setups with the same
//! *total* amount of interference have the same runtime — (b) ≈ (c) (half
//! a node of interference) faster than (a) ≈ (d) ≈ (e) (one full node's
//! worth) — because DYRS keeps adapting and uses all residual bandwidth.

use crate::fig09;
use crate::render::TextTable;

/// One Table II row.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Pattern label.
    pub pattern: String,
    /// Effective interference (node-equivalents).
    pub interference_nodes: f64,
    /// Sort runtime, seconds.
    pub runtime_secs: f64,
}
simkit::json_fields!(Table2Row: pattern, interference_nodes, runtime_secs);

/// Table II data.
#[derive(Debug, Clone)]
pub struct Table2 {
    /// Rows in paper order (9a..9e).
    pub rows: Vec<Table2Row>,
}
simkit::json_fields!(Table2: rows);

impl Table2 {
    /// Runtime of a pattern by prefix.
    pub fn runtime(&self, prefix: &str) -> f64 {
        self.rows
            .iter()
            .find(|r| r.pattern.starts_with(prefix))
            .unwrap_or_else(|| panic!("missing {prefix}"))
            .runtime_secs
    }
}

/// Run the five patterns (same runs as Fig. 9).
pub fn run(seed: u64, input_gb: u64) -> Table2 {
    let f = fig09::run(seed, input_gb);
    let duty = [1.0, 0.5, 0.5, 1.0, 1.0];
    Table2 {
        rows: f
            .series
            .iter()
            .zip(duty)
            .map(|(s, d)| Table2Row {
                pattern: s.label.clone(),
                interference_nodes: d,
                runtime_secs: s.job_secs,
            })
            .collect(),
    }
}

/// Render in the paper's layout.
pub fn render(t: &Table2) -> String {
    let mut tt = TextTable::new(vec![
        "Interference pattern",
        "Total interference (nodes)",
        "Sort runtime (s)",
    ]);
    for r in &t.rows {
        tt.row(vec![
            r.pattern.clone(),
            format!("{:.1}", r.interference_nodes),
            format!("{:.1}", r.runtime_secs),
        ]);
    }
    format!(
        "TABLE II: Sort runtime vs interference pattern\n\
         (paper: same total interference => same runtime;\n\
          137/127/129/135/137s for a/b/c/d/e)\n\n{}",
        tt.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_interference_gives_equal_runtime() {
        let t = run(7, 10);
        let a = t.runtime("9a");
        let b = t.runtime("9b");
        let c = t.runtime("9c");
        let d = t.runtime("9d");
        let e = t.runtime("9e");
        let close = |x: f64, y: f64, tol: f64| (x - y).abs() / x.max(y) <= tol;
        // same-duty setups match within tolerance. Pattern (e) — 20s
        // anti-phased alternation — is allowed a wider band: our modeled
        // interference kills a node outright while it is on, and the
        // longer phase can sync adversarially with the estimator's trust
        // cycle, a deviation EXPERIMENTS.md documents.
        assert!(close(b, c, 0.10), "b {b:.1} vs c {c:.1}");
        assert!(close(a, d, 0.10), "a {a:.1} vs d {d:.1}");
        assert!(close(d, e, 0.25), "d {d:.1} vs e {e:.1}");
        // half-duty patterns are no slower than full-duty ones
        assert!(
            b.min(c) <= a.max(d).max(e) * 1.02,
            "half-duty must not exceed full-duty: b={b:.1} c={c:.1} vs a={a:.1} d={d:.1} e={e:.1}"
        );
    }

    #[test]
    fn render_has_five_rows() {
        let t = run(7, 5);
        let s = render(&t);
        assert_eq!(t.rows.len(), 5);
        assert!(s.contains("9a"));
        assert!(s.contains("9e"));
    }
}
