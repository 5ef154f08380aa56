//! Table I — average job duration and speedup across the SWIM workload.
//!
//! Paper numbers: HDFS 31.5 s; HDFS-Inputs-in-RAM 16.9 s (+46%); Ignem
//! 66.4 s (−111%); DYRS 20.9 s (+33%). The shape that must hold: RAM bound
//! > DYRS > 0 > Ignem, with DYRS capturing most of the bound.

use crate::render::{pct, secs, TextTable};
use crate::scenarios::swim_runs;
use dyrs::MigrationPolicy;

/// One row of Table I.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Configuration name.
    pub config: String,
    /// Mean job duration, seconds.
    pub mean_duration_secs: f64,
    /// Speedup w.r.t. HDFS (1 − d/d_hdfs); `None` for the HDFS row.
    pub speedup_vs_hdfs: Option<f64>,
}
simkit::json_fields!(Table1Row: config, mean_duration_secs, speedup_vs_hdfs);

/// Full Table I result.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// Rows in paper order (HDFS, RAM, Ignem, DYRS).
    pub rows: Vec<Table1Row>,
}
simkit::json_fields!(Table1: rows);

impl Table1 {
    /// Row lookup by policy name.
    pub fn row(&self, name: &str) -> &Table1Row {
        self.rows
            .iter()
            .find(|r| r.config == name)
            .unwrap_or_else(|| panic!("missing row {name}"))
    }

    /// Speedup of `name` vs HDFS.
    pub fn speedup(&self, name: &str) -> f64 {
        self.row(name).speedup_vs_hdfs.unwrap_or(0.0)
    }
}

/// Run the experiment.
pub fn run(seed: u64, scale: f64) -> Table1 {
    let runs = swim_runs(seed, scale);
    let hdfs_mean = runs
        .iter()
        .find(|(p, _)| *p == MigrationPolicy::Disabled)
        .expect("HDFS run present")
        .1
        .mean_job_duration_secs();
    let rows = runs
        .iter()
        .map(|(p, r)| {
            let mean = r.mean_job_duration_secs();
            Table1Row {
                config: p.name().to_string(),
                mean_duration_secs: mean,
                speedup_vs_hdfs: (*p != MigrationPolicy::Disabled).then(|| 1.0 - mean / hdfs_mean),
            }
        })
        .collect();
    Table1 { rows }
}

/// Render in the paper's layout.
pub fn render(t: &Table1) -> String {
    let mut tt = TextTable::new(vec![
        "Configuration",
        "Mean job duration (s)",
        "Speedup w.r.t HDFS",
    ]);
    for r in &t.rows {
        tt.row(vec![
            r.config.clone(),
            secs(r.mean_duration_secs),
            r.speedup_vs_hdfs.map(pct).unwrap_or_default(),
        ]);
    }
    format!(
        "TABLE I: Average job duration and speedup, SWIM workload\n\
         (paper: HDFS 31.5s; RAM +46%; Ignem -111%; DYRS +33%)\n\n{}",
        tt.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_matches_paper_at_reduced_scale() {
        let t = run(7, 0.25);
        assert_eq!(t.rows.len(), 4);
        let ram = t.speedup("HDFS-Inputs-in-RAM");
        let dyrs = t.speedup("DYRS");
        let ignem = t.speedup("Ignem");
        // ordering: RAM bound ≥ DYRS > 0 > Ignem
        assert!(ram > 0.15, "RAM speedup {ram}");
        assert!(dyrs > 0.10, "DYRS speedup {dyrs}");
        assert!(
            dyrs <= ram + 0.03,
            "DYRS {dyrs} cannot beat the bound {ram}"
        );
        assert!(
            ignem < 0.0,
            "Ignem must slow down under heterogeneity: {ignem}"
        );
        // DYRS captures a meaningful share of the bound (paper: 33/46 ≈ 72%)
        assert!(dyrs / ram > 0.45, "DYRS/bound ratio {}", dyrs / ram);
    }

    #[test]
    fn render_contains_all_rows() {
        let t = run(7, 0.1);
        let s = render(&t);
        for name in ["HDFS", "HDFS-Inputs-in-RAM", "Ignem", "DYRS"] {
            assert!(s.contains(name), "missing {name} in:\n{s}");
        }
    }
}
