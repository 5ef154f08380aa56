//! Figure 2 — distribution of lead-time ÷ read-time across jobs.
//!
//! Paper claim: "81% of jobs in the Google trace have enough lead-time to
//! migrate the entire input into memory" (lead-time ≥ read-time), with
//! mean lead-time 8.8 s.

use dyrs_workloads::google;

/// Figure 2 data.
#[derive(Debug, Clone)]
pub struct Fig2 {
    /// Histogram of log10(lead/read) — the PDF the figure plots.
    pub bins: Vec<(f64, f64, f64)>, // (lo, hi, density)
    /// Fraction of jobs with lead ≥ read.
    pub migratable_fraction: f64,
    /// Mean lead-time, seconds.
    pub mean_lead_secs: f64,
}
simkit::json_fields!(Fig2: bins, migratable_fraction, mean_lead_secs);

/// Build the job population and its ratio distribution.
pub fn run(seed: u64, jobs: usize) -> Fig2 {
    let pop = google::job_population(seed, jobs);
    let mut hist = simkit::stats::Histogram::linear(-3.0, 3.0, 36);
    for j in &pop {
        hist.observe(j.lead_to_read_ratio().max(1e-9).log10().clamp(-2.99, 2.99));
    }
    let total = hist.total() as f64;
    let bins = hist
        .iter_bins()
        .map(|(lo, hi, c)| (lo, hi, c as f64 / total))
        .collect();
    Fig2 {
        bins,
        migratable_fraction: google::migratable_fraction(&pop),
        mean_lead_secs: pop.iter().map(|j| j.lead_secs).sum::<f64>() / pop.len() as f64,
    }
}

/// Render the PDF and the headline fraction.
pub fn render(f: &Fig2) -> String {
    let mut out = String::from(
        "FIG 2: PDF of lead-time/read-time ratio (log10 bins)\n\
         (paper: 81% of jobs have lead-time >= read-time; mean lead 8.8s)\n\n",
    );
    for &(lo, hi, d) in &f.bins {
        let bar = "#".repeat((d * 400.0).round() as usize);
        out.push_str(&format!("[{lo:+.1},{hi:+.1}) {d:>6.3} {bar}\n"));
    }
    out.push_str(&format!(
        "\nmigratable (lead >= read): {:.1}%   mean lead-time: {:.1}s\n",
        f.migratable_fraction * 100.0,
        f.mean_lead_secs
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eighty_one_percent_migratable() {
        let f = run(1, 50_000);
        assert!(
            (0.78..=0.84).contains(&f.migratable_fraction),
            "fraction {}",
            f.migratable_fraction
        );
        assert!(
            (7.5..=10.0).contains(&f.mean_lead_secs),
            "mean lead {}",
            f.mean_lead_secs
        );
    }

    #[test]
    fn pdf_sums_to_one() {
        let f = run(1, 20_000);
        let mass: f64 = f.bins.iter().map(|&(_, _, d)| d).sum();
        assert!((mass - 1.0).abs() < 1e-9, "mass {mass}");
    }

    #[test]
    fn mode_is_positive_ratio() {
        // most jobs have lead > read → the density peak sits at ratio > 1
        let f = run(1, 50_000);
        let peak = f
            .bins
            .iter()
            .max_by(|a, b| a.2.total_cmp(&b.2))
            .expect("non-empty");
        assert!(peak.0 >= -0.5, "peak bin starts at {}", peak.0);
    }

    #[test]
    fn render_shows_fraction() {
        let s = render(&run(1, 5_000));
        assert!(s.contains("migratable"));
    }
}
