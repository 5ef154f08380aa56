//! Google-conditions replay: the motivation meets the evaluation.
//!
//! §II of the paper argues production clusters have the conditions for
//! migration — low mean disk utilization (3.1%) with strong per-node
//! heterogeneity. This experiment closes the loop: it replays synthesized
//! Google-trace utilization (the same generator behind Figs. 1–3) as
//! background disk load on **every** node of the evaluation cluster and
//! runs the SWIM workload on top. DYRS must keep (most of) its speedup
//! under these realistic dynamic conditions — the paper's core deployment
//! claim — while Ignem keeps losing.

use crate::render::{pct, secs, TextTable};
use crate::runner::{run_all, SimTask};
use crate::scenarios::swim_params;
use dyrs::MigrationPolicy;
use dyrs_cluster::NodeId;
use dyrs_sim::SimConfig;
use dyrs_workloads::{google, swim};
use simkit::{SimDuration, SimTime};

/// One configuration's outcome under replayed conditions.
#[derive(Debug, Clone)]
pub struct ReplayRow {
    /// Configuration name.
    pub config: String,
    /// Mean job duration, seconds.
    pub mean_job_secs: f64,
    /// Speedup vs HDFS under the same background load.
    pub speedup_vs_hdfs: Option<f64>,
    /// Fraction of input read from memory.
    pub memory_fraction: f64,
}
simkit::json_fields!(ReplayRow: config, mean_job_secs, speedup_vs_hdfs, memory_fraction);

/// The replay study.
#[derive(Debug, Clone)]
pub struct Replay {
    /// Mean background utilization per node (duty cycles of the replayed
    /// traces).
    pub background_means: Vec<f64>,
    /// Rows in paper-config order.
    pub rows: Vec<ReplayRow>,
}
simkit::json_fields!(Replay: background_means, rows);

impl Replay {
    /// Row lookup by config name.
    pub fn row(&self, name: &str) -> &ReplayRow {
        self.rows
            .iter()
            .find(|r| r.config == name)
            .unwrap_or_else(|| panic!("missing config {name}"))
    }
}

/// Run SWIM under replayed Google-trace background load.
pub fn run(seed: u64, scale: f64) -> Replay {
    let params = swim_params(scale);
    // Background traces long enough to cover any run; sampled every 20 s
    // so the load is dynamic on the timescale of jobs.
    let horizon = SimTime::from_secs(4 * 3600);
    let step = SimDuration::from_secs(20);
    let schedules: Vec<_> = (0..7u32)
        .map(|n| google::background_schedule(seed, NodeId(n), horizon, step))
        .collect();
    let background_means = schedules.iter().map(|s| s.duty_cycle(horizon)).collect();

    let tasks: Vec<SimTask> = MigrationPolicy::paper_configs()
        .into_iter()
        .map(|policy| {
            let mut cfg = SimConfig::paper_default(policy, seed);
            cfg.interference = schedules.clone();
            let w = swim::generate(&params, seed);
            cfg.files = w.files;
            SimTask::new(policy.name(), cfg, w.jobs)
        })
        .collect();
    let results = run_all(tasks, 0);
    let hdfs_mean = results
        .iter()
        .find(|(l, _)| l == "HDFS")
        .expect("HDFS run")
        .1
        .mean_job_duration_secs();
    let rows = results
        .iter()
        .map(|(label, r)| ReplayRow {
            config: label.clone(),
            mean_job_secs: r.mean_job_duration_secs(),
            speedup_vs_hdfs: (label != "HDFS")
                .then(|| 1.0 - r.mean_job_duration_secs() / hdfs_mean),
            memory_fraction: r.memory_read_fraction(),
        })
        .collect();
    Replay {
        background_means,
        rows,
    }
}

/// Render the study.
pub fn render(r: &Replay) -> String {
    let mut tt = TextTable::new(vec!["Config", "Mean job(s)", "Speedup", "Mem reads"]);
    for row in &r.rows {
        tt.row(vec![
            row.config.clone(),
            secs(row.mean_job_secs),
            row.speedup_vs_hdfs.map(pct).unwrap_or_default(),
            format!("{:.0}%", row.memory_fraction * 100.0),
        ]);
    }
    let bg: Vec<String> = r
        .background_means
        .iter()
        .map(|m| format!("{:.1}%", m * 100.0))
        .collect();
    format!(
        "GOOGLE-CONDITIONS REPLAY — SWIM under trace-driven background load\n\
         (the §II motivation conditions replayed onto the evaluation cluster;\n\
          per-node mean background utilization: {})\n\n{}",
        bg.join(" "),
        tt.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dyrs_keeps_its_edge_under_replayed_conditions() {
        let r = run(7, 0.25);
        let dyrs = r.row("DYRS").speedup_vs_hdfs.expect("speedup");
        let ram = r.row("HDFS-Inputs-in-RAM").speedup_vs_hdfs.expect("bound");
        assert!(dyrs > 0.1, "DYRS speedup under replay {dyrs:.2}");
        assert!(dyrs <= ram + 0.05, "bound respected");
        assert!(r.row("DYRS").memory_fraction > 0.4);
    }

    #[test]
    fn background_is_light_on_average_but_heterogeneous() {
        let r = run(7, 0.1);
        let mean = r.background_means.iter().sum::<f64>() / r.background_means.len() as f64;
        assert!(
            mean < 0.25,
            "background must be light on average: {mean:.2}"
        );
        let max = r.background_means.iter().cloned().fold(0.0, f64::max);
        let min = r.background_means.iter().cloned().fold(1.0, f64::min);
        assert!(
            max / min.max(1e-6) > 2.0,
            "heterogeneous: {max:.3} vs {min:.3}"
        );
    }

    #[test]
    fn render_lists_configs() {
        let s = render(&run(7, 0.1));
        assert!(s.contains("DYRS") && s.contains("Ignem"));
    }
}
