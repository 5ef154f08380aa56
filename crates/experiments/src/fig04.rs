//! Figure 4 — Hive query durations (normalized to HDFS) and input sizes.
//!
//! Paper shapes: HDFS-Inputs-in-RAM ≈ 50% faster on average; DYRS up to
//! ~48% (best on q15), ~36% on average, still >25% on the largest
//! queries; Ignem *slower* than HDFS because it cannot avoid the slow
//! node. Queries are sorted by input size (Fig. 4b).

use crate::render::{bytes, pct, TextTable};
use crate::runner::{run_all, SimTask};
use crate::scenarios::{hetero_config, with_workload};
use dyrs::MigrationPolicy;
use dyrs_sim::SimResult;
use dyrs_workloads::hive;

/// Result for one query under one configuration.
#[derive(Debug, Clone)]
pub struct QueryRun {
    /// Query label ("q15").
    pub query: String,
    /// Configuration name.
    pub config: String,
    /// End-to-end query duration (sum of its sequential stages), seconds.
    pub duration_secs: f64,
}
simkit::json_fields!(QueryRun: query, config, duration_secs);

/// Full Figure 4 data.
#[derive(Debug, Clone)]
pub struct Fig4 {
    /// Query labels in input-size order.
    pub queries: Vec<String>,
    /// Query input sizes (Fig. 4b).
    pub input_bytes: Vec<u64>,
    /// All runs.
    pub runs: Vec<QueryRun>,
}
simkit::json_fields!(Fig4: queries, input_bytes, runs);

impl Fig4 {
    /// Duration of `query` under `config`.
    pub fn duration(&self, query: &str, config: &str) -> f64 {
        self.runs
            .iter()
            .find(|r| r.query == query && r.config == config)
            .unwrap_or_else(|| panic!("missing run {query}/{config}"))
            .duration_secs
    }

    /// Normalized duration (vs HDFS) of `query` under `config`.
    pub fn normalized(&self, query: &str, config: &str) -> f64 {
        self.duration(query, config) / self.duration(query, "HDFS")
    }

    /// Mean speedup of `config` across queries (1 − normalized).
    pub fn mean_speedup(&self, config: &str) -> f64 {
        let s: f64 = self
            .queries
            .iter()
            .map(|q| 1.0 - self.normalized(q, config))
            .sum();
        s / self.queries.len() as f64
    }

    /// Best speedup of `config` across queries, with the query name.
    pub fn best_speedup(&self, config: &str) -> (String, f64) {
        self.queries
            .iter()
            .map(|q| (q.clone(), 1.0 - self.normalized(q, config)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("non-empty")
    }
}

/// Run all queries under all four configurations. `scale` scales the
/// TPC-DS table sizes (1.0 = paper-like).
pub fn run(seed: u64, scale: f64) -> Fig4 {
    let queries = hive::queries();
    let mut tasks = Vec::new();
    for policy in MigrationPolicy::paper_configs() {
        for (qi, q) in queries.iter().enumerate() {
            let w = hive::query_workload(q, scale, (qi * 10) as u64);
            let (cfg, jobs) = with_workload(hetero_config(policy, seed), w);
            tasks.push(SimTask::new(
                format!("{}/{}", policy.name(), q.name),
                cfg,
                jobs,
            ));
        }
    }
    let results = run_all(tasks, 0);
    let mut runs = Vec::with_capacity(results.len());
    for (label, r) in &results {
        let (config, query) = label.split_once('/').expect("label format");
        runs.push(QueryRun {
            query: query.to_string(),
            config: config.to_string(),
            duration_secs: query_duration(r),
        });
    }
    Fig4 {
        queries: queries.iter().map(|q| q.name.to_string()).collect(),
        input_bytes: queries
            .iter()
            .map(|q| (q.scan_bytes as f64 * scale) as u64)
            .collect(),
        runs,
    }
}

/// A Hive query's stages run strictly sequentially (each stage is
/// submitted at its predecessor's completion), so the query duration is
/// the sum of its stage durations.
fn query_duration(r: &SimResult) -> f64 {
    r.jobs.iter().map(|j| j.duration.as_secs_f64()).sum()
}

/// Render Fig. 4a (normalized durations) and 4b (input sizes).
pub fn render(f: &Fig4) -> String {
    let mut tt = TextTable::new(vec![
        "Query",
        "Input",
        "HDFS",
        "RAM(norm)",
        "Ignem(norm)",
        "DYRS(norm)",
        "DYRS speedup",
    ]);
    for (q, &ib) in f.queries.iter().zip(&f.input_bytes) {
        tt.row(vec![
            q.clone(),
            bytes(ib),
            format!("{:.1}s", f.duration(q, "HDFS")),
            format!("{:.2}", f.normalized(q, "HDFS-Inputs-in-RAM")),
            format!("{:.2}", f.normalized(q, "Ignem")),
            format!("{:.2}", f.normalized(q, "DYRS")),
            pct(1.0 - f.normalized(q, "DYRS")),
        ]);
    }
    // bar panel: normalized DYRS durations, one row per query
    let mut bars = String::from("\nnormalized DYRS duration (shorter is better, | = HDFS):\n");
    for q in &f.queries {
        let norm = f.normalized(q, "DYRS").min(2.0);
        let width = (norm * 30.0).round() as usize;
        bars.push_str(&format!(
            "{q:>4} {}{} {:.2}\n",
            "#".repeat(width),
            if norm <= 1.0 {
                " ".repeat(30 - width) + "|"
            } else {
                String::new()
            },
            f.normalized(q, "DYRS")
        ));
    }
    let (best_q, best) = f.best_speedup("DYRS");
    format!(
        "FIG 4: Hive query durations normalized to HDFS, sorted by input size\n\
         (paper: DYRS up to +48% (q15), avg +36%; RAM avg +50%; Ignem slower)\n\n{}{}\n\
         DYRS: mean speedup {}, best {} on {}\n\
         RAM bound: mean speedup {}\nIgnem: mean speedup {}\n",
        tt.render(),
        bars,
        pct(f.mean_speedup("DYRS")),
        pct(best),
        best_q,
        pct(f.mean_speedup("HDFS-Inputs-in-RAM")),
        pct(f.mean_speedup("Ignem")),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_matches_paper_at_reduced_scale() {
        let f = run(11, 0.2);
        assert_eq!(f.queries.len(), 10);
        let ram = f.mean_speedup("HDFS-Inputs-in-RAM");
        let dyrs = f.mean_speedup("DYRS");
        let ignem = f.mean_speedup("Ignem");
        assert!(ram > 0.25, "RAM mean speedup {ram}");
        assert!(dyrs > 0.2, "DYRS mean speedup {dyrs}");
        assert!(dyrs <= ram + 0.03, "DYRS cannot beat the bound");
        assert!(ignem < dyrs - 0.1, "Ignem must trail DYRS badly: {ignem}");
        // every query individually speeds up under DYRS
        for q in &f.queries {
            assert!(
                f.normalized(q, "DYRS") < 1.0,
                "{q} must be faster under DYRS"
            );
        }
    }

    #[test]
    fn input_sizes_sorted() {
        let f = run(11, 0.1);
        assert!(f.input_bytes.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn render_mentions_all_queries() {
        let f = run(11, 0.1);
        let s = render(&f);
        for q in &f.queries {
            assert!(s.contains(q.as_str()));
        }
    }
}
