//! Figure 6 — map-task durations in the SWIM workload.
//!
//! Paper claims: "Mapper tasks run 1.8x faster under DYRS than with
//! HDFS", improving cluster utilization (IO-bound mappers hold slots for
//! less time). Ignem produces a bimodal mix: very short tasks on fast
//! nodes, very long ones on the slow node.

use crate::render::{secs, TextTable};
use crate::scenarios::swim_runs;
use simkit::stats::Quantiles;

/// Map-task duration summary for one configuration.
#[derive(Debug, Clone)]
pub struct MapTaskSummary {
    /// Configuration name.
    pub config: String,
    /// Number of map tasks.
    pub count: usize,
    /// Mean duration, seconds.
    pub mean: f64,
    /// Median duration.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile (the straggler tail).
    pub p99: f64,
    /// CDF points for plotting.
    pub cdf: Vec<(f64, f64)>,
}
simkit::json_fields!(MapTaskSummary: config, count, mean, p50, p90, p99, cdf);

/// Figure 6 data.
#[derive(Debug, Clone)]
pub struct Fig6 {
    /// Summaries in paper-config order.
    pub summaries: Vec<MapTaskSummary>,
}
simkit::json_fields!(Fig6: summaries);

impl Fig6 {
    /// Summary lookup.
    pub fn summary(&self, config: &str) -> &MapTaskSummary {
        self.summaries
            .iter()
            .find(|s| s.config == config)
            .unwrap_or_else(|| panic!("missing config {config}"))
    }

    /// Mean map-task speed ratio HDFS ÷ DYRS (the paper's 1.8×).
    pub fn dyrs_map_ratio(&self) -> f64 {
        self.summary("HDFS").mean / self.summary("DYRS").mean
    }
}

/// Run SWIM and summarize map-task durations.
pub fn run(seed: u64, scale: f64) -> Fig6 {
    let runs = swim_runs(seed, scale);
    let summaries = runs
        .iter()
        .map(|(p, r)| {
            let mut q = Quantiles::new();
            for t in r.tasks.iter().filter(|t| t.is_map) {
                q.observe(t.duration.as_secs_f64());
            }
            MapTaskSummary {
                config: p.name().to_string(),
                count: q.count(),
                mean: q.mean(),
                p50: q.percentile(50.0),
                p90: q.percentile(90.0),
                p99: q.percentile(99.0),
                cdf: q.cdf(50),
            }
        })
        .collect();
    Fig6 { summaries }
}

/// Render the distribution table.
pub fn render(f: &Fig6) -> String {
    let mut tt = TextTable::new(vec!["Config", "Tasks", "Mean(s)", "p50", "p90", "p99"]);
    for s in &f.summaries {
        tt.row(vec![
            s.config.clone(),
            s.count.to_string(),
            secs(s.mean),
            secs(s.p50),
            secs(s.p90),
            secs(s.p99),
        ]);
    }
    format!(
        "FIG 6: SWIM map-task durations\n\
         (paper: DYRS mappers 1.8x faster than HDFS; Ignem bimodal)\n\n{}\n\
         HDFS/DYRS mean map-task ratio: {:.2}x\n",
        tt.render(),
        f.dyrs_map_ratio()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dyrs_mappers_substantially_faster() {
        let f = run(7, 0.25);
        let ratio = f.dyrs_map_ratio();
        // paper: 1.8x; shape: meaningfully faster but below the RAM bound
        assert!(ratio > 1.3, "HDFS/DYRS map ratio {ratio}");
        let ram_ratio = f.summary("HDFS").mean / f.summary("HDFS-Inputs-in-RAM").mean;
        assert!(
            ratio <= ram_ratio + 0.2,
            "DYRS {ratio} above RAM bound {ram_ratio}"
        );
    }

    #[test]
    fn ignem_has_the_longest_tail() {
        let f = run(7, 0.25);
        // Ignem's slow-node-bound reads create the worst stragglers
        assert!(
            f.summary("Ignem").p99 > f.summary("DYRS").p99,
            "Ignem p99 {} vs DYRS p99 {}",
            f.summary("Ignem").p99,
            f.summary("DYRS").p99
        );
    }

    #[test]
    fn cdfs_are_monotone() {
        let f = run(7, 0.1);
        for s in &f.summaries {
            assert!(s.cdf.windows(2).all(|w| w[0].0 <= w[1].0));
        }
    }

    #[test]
    fn render_reports_ratio() {
        assert!(render(&run(7, 0.1)).contains("map-task ratio"));
    }
}
