//! Figure 5 — SWIM job durations binned by input size.
//!
//! Paper claims: DYRS speeds up small (<64 MB), medium (64 MB–1 GB) and
//! large (>1 GB) jobs by 34%, 47% and 26% respectively; medium jobs gain
//! most (non-read overheads amortized better than small jobs, more of the
//! input migratable than large jobs); DYRS keeps >75% of the in-RAM bound
//! for small and medium jobs.

use crate::render::{pct, secs, TextTable};
use crate::scenarios::swim_runs;
use dyrs::MigrationPolicy;
use dyrs_engine::JobMetrics;
use dyrs_workloads::swim::{size_bin, SizeBin};

/// Per-bin mean durations for each configuration.
#[derive(Debug, Clone)]
pub struct Fig5 {
    /// Bin labels in order (Small, Medium, Large).
    pub bins: Vec<String>,
    /// Jobs per bin.
    pub counts: Vec<usize>,
    /// `means[config][bin]` mean duration in seconds; configs in
    /// paper order (HDFS, RAM, Ignem, DYRS).
    pub configs: Vec<String>,
    /// Mean duration per config per bin.
    pub means: Vec<Vec<f64>>,
}
simkit::json_fields!(Fig5: bins, counts, configs, means);

impl Fig5 {
    fn config_idx(&self, name: &str) -> usize {
        self.configs
            .iter()
            .position(|c| c == name)
            .unwrap_or_else(|| panic!("missing config {name}"))
    }

    /// Speedup of `config` vs HDFS in the given bin index.
    pub fn speedup(&self, config: &str, bin: usize) -> f64 {
        let hdfs = self.means[self.config_idx("HDFS")][bin];
        let own = self.means[self.config_idx(config)][bin];
        1.0 - own / hdfs
    }
}

fn bin_index(m: &JobMetrics) -> usize {
    match size_bin(m.input_bytes) {
        SizeBin::Small => 0,
        SizeBin::Medium => 1,
        SizeBin::Large => 2,
    }
}

/// Run SWIM under all policies and bin the durations.
pub fn run(seed: u64, scale: f64) -> Fig5 {
    let runs = swim_runs(seed, scale);
    let configs: Vec<String> = runs.iter().map(|(p, _)| p.name().to_string()).collect();
    let mut means = Vec::new();
    let mut counts = vec![0usize; 3];
    for (p, r) in &runs {
        let mut sums = [0.0f64; 3];
        let mut ns = [0usize; 3];
        for j in &r.jobs {
            let b = bin_index(j);
            sums[b] += j.duration.as_secs_f64();
            ns[b] += 1;
        }
        if *p == MigrationPolicy::Disabled {
            counts = ns.to_vec();
        }
        means.push(
            (0..3)
                .map(|b| {
                    if ns[b] == 0 {
                        0.0
                    } else {
                        sums[b] / ns[b] as f64
                    }
                })
                .collect(),
        );
    }
    Fig5 {
        bins: vec![
            "Small(<64MB)".into(),
            "Medium(64MB-1GB)".into(),
            "Large(>1GB)".into(),
        ],
        counts,
        configs,
        means,
    }
}

/// Render the per-bin table.
pub fn render(f: &Fig5) -> String {
    let mut tt = TextTable::new(vec![
        "Bin",
        "Jobs",
        "HDFS(s)",
        "RAM(s)",
        "Ignem(s)",
        "DYRS(s)",
        "DYRS speedup",
    ]);
    for b in 0..3 {
        tt.row(vec![
            f.bins[b].clone(),
            f.counts[b].to_string(),
            secs(f.means[f.config_idx("HDFS")][b]),
            secs(f.means[f.config_idx("HDFS-Inputs-in-RAM")][b]),
            secs(f.means[f.config_idx("Ignem")][b]),
            secs(f.means[f.config_idx("DYRS")][b]),
            pct(f.speedup("DYRS", b)),
        ]);
    }
    format!(
        "FIG 5: SWIM job duration by input-size bin\n\
         (paper: DYRS +34% small, +47% medium, +26% large)\n\n{}",
        tt.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_bins_speed_up_and_ram_bounds() {
        let f = run(7, 0.25);
        for b in 0..3 {
            assert!(f.counts[b] > 0, "bin {b} empty");
            let dyrs = f.speedup("DYRS", b);
            let ram = f.speedup("HDFS-Inputs-in-RAM", b);
            assert!(dyrs > 0.05, "bin {b}: DYRS speedup {dyrs}");
            assert!(dyrs <= ram + 0.05, "bin {b}: DYRS {dyrs} above bound {ram}");
        }
        // small+medium capture most of the bound (paper: >75%)
        for b in 0..2 {
            let ratio = f.speedup("DYRS", b) / f.speedup("HDFS-Inputs-in-RAM", b);
            assert!(ratio > 0.5, "bin {b}: bound capture {ratio}");
        }
    }

    #[test]
    fn large_jobs_gain_least_of_the_bound() {
        // the paper's ordering driver: a smaller share of a large input is
        // migratable within the fixed lead-time
        let f = run(7, 0.25);
        let capture = |b: usize| f.speedup("DYRS", b) / f.speedup("HDFS-Inputs-in-RAM", b);
        assert!(
            capture(2) < capture(1) + 0.2,
            "large-bin capture {} should not exceed medium {}",
            capture(2),
            capture(1)
        );
    }

    #[test]
    fn render_has_three_bins() {
        let s = render(&run(7, 0.1));
        assert!(s.contains("Small"));
        assert!(s.contains("Medium"));
        assert!(s.contains("Large"));
    }
}
