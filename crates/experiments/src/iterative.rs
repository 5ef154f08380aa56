//! Motivation experiment: iterative analytics (paper §I).
//!
//! The paper motivates DYRS partly through iterative applications whose
//! *first* iteration reads cold data — 15× slower than later iterations
//! for Logistic Regression, 2.5× for K-Means. This experiment runs both
//! application shapes under plain HDFS and under DYRS and reports the
//! first-iteration penalty (iteration-1 duration ÷ mean later-iteration
//! duration): DYRS should collapse it toward 1×.

use crate::render::TextTable;
use crate::runner::{run_all, SimTask};
use crate::scenarios::{homogeneous_config, with_workload};
use dyrs::MigrationPolicy;
use dyrs_workloads::iterative;

/// Result for one (application, policy) pair.
#[derive(Debug, Clone)]
pub struct IterRun {
    /// Application name.
    pub app: String,
    /// Policy name.
    pub config: String,
    /// Iteration-1 duration, seconds.
    pub first_iter_secs: f64,
    /// Mean of iterations 2+, seconds.
    pub later_iter_secs: f64,
}
simkit::json_fields!(IterRun: app, config, first_iter_secs, later_iter_secs);

impl IterRun {
    /// The first-iteration penalty (the paper's 15× / 2.5×).
    pub fn penalty(&self) -> f64 {
        if self.later_iter_secs == 0.0 {
            0.0
        } else {
            self.first_iter_secs / self.later_iter_secs
        }
    }
}

/// Full experiment data.
#[derive(Debug, Clone)]
pub struct IterStudy {
    /// All runs.
    pub runs: Vec<IterRun>,
}
simkit::json_fields!(IterStudy: runs);

impl IterStudy {
    /// Lookup.
    pub fn get(&self, app: &str, config: &str) -> &IterRun {
        self.runs
            .iter()
            .find(|r| r.app == app && r.config == config)
            .unwrap_or_else(|| panic!("missing {app}/{config}"))
    }
}

/// Run both applications under HDFS and DYRS.
pub fn run(seed: u64) -> IterStudy {
    let mut tasks = Vec::new();
    for app in iterative::apps() {
        for p in [MigrationPolicy::Disabled, MigrationPolicy::Dyrs] {
            let w = iterative::workload(&app, 0);
            let (cfg, jobs) = with_workload(homogeneous_config(p, seed), w);
            tasks.push(SimTask::new(
                format!("{}/{}", app.name, p.name()),
                cfg,
                jobs,
            ));
        }
    }
    let results = run_all(tasks, 0);
    let runs = results
        .into_iter()
        .map(|(label, r)| {
            let (app, config) = label.split_once('/').expect("label format");
            // iteration time = the map phase (the paper's Spark iterations
            // carry no per-iteration job-submission overhead, so comparing
            // end-to-end would dilute the penalty with platform costs)
            let mut iters: Vec<f64> = r
                .jobs
                .iter()
                .map(|j| (j.name.clone(), j.map_phase.as_secs_f64()))
                .collect::<std::collections::BTreeMap<_, _>>()
                .into_values()
                .collect();
            // BTreeMap sorts "iter1" < "iter2" ... (single-digit counts)
            let first = iters.remove(0);
            let later = iters.iter().sum::<f64>() / iters.len().max(1) as f64;
            IterRun {
                app: app.to_string(),
                config: config.to_string(),
                first_iter_secs: first,
                later_iter_secs: later,
            }
        })
        .collect();
    IterStudy { runs }
}

/// Render the comparison.
pub fn render(s: &IterStudy) -> String {
    let mut tt = TextTable::new(vec![
        "App",
        "Config",
        "Iter 1 (s)",
        "Iters 2+ (s)",
        "Penalty",
    ]);
    for r in &s.runs {
        tt.row(vec![
            r.app.clone(),
            r.config.clone(),
            format!("{:.1}", r.first_iter_secs),
            format!("{:.1}", r.later_iter_secs),
            format!("{:.1}x", r.penalty()),
        ]);
    }
    format!(
        "MOTIVATION — iterative analytics first-iteration penalty (paper §I)\n\
         (paper: cold first iterations run 15x (LogReg) / 2.5x (K-Means)\n\
          longer than later ones; DYRS collapses the gap)\n\n{}",
        tt.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_first_iteration_is_the_outlier() {
        let s = run(7);
        let lr = s.get("logreg", "HDFS");
        let km = s.get("kmeans", "HDFS");
        assert!(
            lr.penalty() > 4.0,
            "LogReg cold penalty {:.1}x (paper 15x)",
            lr.penalty()
        );
        assert!(
            km.penalty() > 1.3 && km.penalty() < lr.penalty(),
            "K-Means penalty {:.1}x must be mild (paper 2.5x)",
            km.penalty()
        );
    }

    #[test]
    fn dyrs_collapses_the_penalty() {
        let s = run(7);
        for app in ["logreg", "kmeans"] {
            let hdfs = s.get(app, "HDFS").penalty();
            let dyrs = s.get(app, "DYRS").penalty();
            assert!(
                dyrs < hdfs,
                "{app}: DYRS penalty {dyrs:.1}x must beat HDFS {hdfs:.1}x"
            );
            assert!(
                dyrs < 3.0,
                "{app}: DYRS first iteration should be near-normal, got {dyrs:.1}x"
            );
        }
        // the read-dominated app sees the big collapse
        {
            let hdfs = s.get("logreg", "HDFS").penalty();
            let dyrs = s.get("logreg", "DYRS").penalty();
            assert!(
                dyrs < hdfs * 0.6,
                "logreg: collapse too weak ({hdfs:.1}x → {dyrs:.1}x)"
            );
        }
    }

    #[test]
    fn later_iterations_unaffected_by_policy() {
        // DYRS accelerates only the cold read; iterations 2+ are
        // framework-cached and must cost the same under both policies.
        let s = run(7);
        for app in ["logreg", "kmeans"] {
            let h = s.get(app, "HDFS").later_iter_secs;
            let d = s.get(app, "DYRS").later_iter_secs;
            // DYRS also migrates the tiny cache partitions, so allow a
            // small benefit — but nothing like the iteration-1 effect
            assert!(
                (h - d).abs() / h < 0.25,
                "{app}: later iterations {h:.1}s vs {d:.1}s must roughly match"
            );
        }
    }

    #[test]
    fn render_names_both_apps() {
        let out = render(&run(7));
        assert!(out.contains("logreg") && out.contains("kmeans"));
    }
}
