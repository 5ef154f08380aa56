//! Figure 3 — CDF of disk utilization samples across servers over 24 h.
//!
//! Paper claims: "For 80% of these measurements, the utilization is under
//! 4%"; mean utilization 3.1% over the day. Clusters are heavily
//! over-provisioned for IO, so residual bandwidth for migration abounds.

use dyrs_workloads::google;
use simkit::stats::Quantiles;

/// Figure 3 data.
#[derive(Debug, Clone)]
pub struct Fig3 {
    /// CDF points `(utilization, cumulative probability)`.
    pub cdf: Vec<(f64, f64)>,
    /// Fraction of samples under 4% utilization.
    pub under_4pct: f64,
    /// Mean utilization across all samples.
    pub mean: f64,
}
simkit::json_fields!(Fig3: cdf, under_4pct, mean);

/// Sample `servers` servers over 24 h and build the CDF.
pub fn run(seed: u64, servers: usize) -> Fig3 {
    let traces = google::cluster_utilization(seed, servers, google::SAMPLES_24H);
    let mut q = Quantiles::new();
    for t in &traces {
        q.extend_from(t);
    }
    let mean = q.mean();
    let under = q.fraction_at_most(0.04);
    Fig3 {
        cdf: q.cdf(100),
        under_4pct: under,
        mean,
    }
}

/// Render the CDF summary.
pub fn render(f: &Fig3) -> String {
    let mut out = String::from(
        "FIG 3: CDF of disk utilization over 24h, 40 servers\n\
         (paper: 80% of samples under 4%; mean 3.1%)\n\n",
    );
    for p in [10, 25, 50, 75, 80, 90, 99] {
        let idx = (p * (f.cdf.len() - 1)) / 100;
        out.push_str(&format!("p{p:>2}: {:.2}% util\n", f.cdf[idx].0 * 100.0));
    }
    out.push_str(&format!(
        "\nunder 4% utilization: {:.1}% of samples   mean: {:.2}%\n",
        f.under_4pct * 100.0,
        f.mean * 100.0
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_stats_match_paper() {
        let f = run(1, 40);
        assert!(
            (0.70..=0.90).contains(&f.under_4pct),
            "under-4% fraction {} (paper 0.80)",
            f.under_4pct
        );
        assert!(
            (0.015..=0.05).contains(&f.mean),
            "mean {} (paper 0.031)",
            f.mean
        );
    }

    #[test]
    fn cdf_monotone() {
        let f = run(2, 40);
        assert!(f
            .cdf
            .windows(2)
            .all(|w| w[0].0 <= w[1].0 && w[0].1 <= w[1].1));
    }

    #[test]
    fn render_mentions_mean() {
        assert!(render(&run(1, 10)).contains("mean"));
    }
}
