//! Figure 1 — disk bandwidth utilization over 24 h for three servers.
//!
//! Paper claim: "There is heterogeneity in the residual disk bandwidth
//! across both nodes and time" — one node consistently much busier (13×
//! and 5× the others on average).

use crate::render::ascii_series;
use dyrs_workloads::google;

/// Figure 1 data: three representative utilization traces.
#[derive(Debug, Clone)]
pub struct Fig1 {
    /// Per-node traces, 5-minute samples over 24 h, utilization in `[0, 1]`.
    pub traces: Vec<Vec<f64>>,
    /// Mean utilization per node.
    pub means: Vec<f64>,
}
simkit::json_fields!(Fig1: traces, means);

impl Fig1 {
    /// Ratio of the busiest node's mean to the quietest node's mean.
    pub fn heterogeneity_ratio(&self) -> f64 {
        let max = self.means.iter().cloned().fold(f64::MIN, f64::max);
        let min = self.means.iter().cloned().fold(f64::MAX, f64::min);
        max / min
    }
}

/// Pick three representative nodes out of a synthesized population: the
/// busiest, the median, and a quiet one — the paper's node 1 / node 2 /
/// node 3 pattern.
pub fn run(seed: u64) -> Fig1 {
    let pop = google::cluster_utilization(seed, 60, google::SAMPLES_24H);
    let mut by_mean: Vec<(f64, usize)> = pop
        .iter()
        .enumerate()
        .map(|(i, t)| (t.iter().sum::<f64>() / t.len() as f64, i))
        .collect();
    by_mean.sort_by(|a, b| b.0.total_cmp(&a.0));
    let picks = [by_mean[0].1, by_mean[30].1, by_mean[50].1];
    let traces: Vec<Vec<f64>> = picks.iter().map(|&i| pop[i].clone()).collect();
    let means = traces
        .iter()
        .map(|t| t.iter().sum::<f64>() / t.len() as f64)
        .collect();
    Fig1 { traces, means }
}

/// Render the three traces as ASCII series.
pub fn render(f: &Fig1) -> String {
    let mut out = String::from(
        "FIG 1: Disk bandwidth utilization over 24h for three servers\n\
         (paper: node 1 consistently busier — 13x and 5x nodes 2 and 3)\n\n",
    );
    for (i, t) in f.traces.iter().enumerate() {
        let pts: Vec<(f64, f64)> = t
            .iter()
            .enumerate()
            .map(|(k, &v)| (k as f64 * 5.0 / 60.0, v * 100.0))
            .collect();
        out.push_str(&format!(
            "node {} (mean {:.1}% util, x-axis hours):\n{}",
            i + 1,
            f.means[i] * 100.0,
            ascii_series(&pts, 72, 6)
        ));
        out.push('\n');
    }
    out.push_str(&format!(
        "heterogeneity: busiest/quietest mean ratio = {:.1}x\n",
        f.heterogeneity_ratio()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_heterogeneous_traces() {
        let f = run(1);
        assert_eq!(f.traces.len(), 3);
        assert_eq!(f.traces[0].len(), google::SAMPLES_24H);
        // node 1 busier than node 2 busier than node 3
        assert!(f.means[0] > f.means[1]);
        assert!(f.means[1] > f.means[2]);
        // the paper's busiest node is an order of magnitude above quiet ones
        assert!(
            f.heterogeneity_ratio() > 4.0,
            "ratio {:.1}",
            f.heterogeneity_ratio()
        );
    }

    #[test]
    fn traces_vary_over_time() {
        let f = run(1);
        for t in &f.traces {
            let mean = t.iter().sum::<f64>() / t.len() as f64;
            let var = t.iter().map(|u| (u - mean).powi(2)).sum::<f64>() / t.len() as f64;
            assert!(var > 0.0);
        }
    }

    #[test]
    fn render_has_three_panels() {
        let s = render(&run(1));
        assert!(s.contains("node 1"));
        assert!(s.contains("node 3"));
        assert!(s.contains("heterogeneity"));
    }
}
