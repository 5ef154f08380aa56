//! Figure 8 — distribution of reads across DataNodes for a Sort job.
//!
//! Paper claims: on a homogeneous cluster every scheme spreads reads
//! evenly (8a-style); with a handicapped node, DYRS and HDFS serve fewer
//! reads from the slow node while Ignem "still distributes the migration
//! load equally" — its reads stay uniform because they follow the random
//! submission-time binding (8b–8d).

use crate::render::TextTable;
use crate::runner::{run_all, SimTask};
use crate::scenarios::{hetero_config, homogeneous_config, with_workload, SLOW_NODE};
use dyrs::MigrationPolicy;
use dyrs_workloads::sort;
use simkit::SimDuration;

/// Reads per DataNode for one (configuration, cluster) pair.
#[derive(Debug, Clone)]
pub struct ReadDistribution {
    /// Configuration name.
    pub config: String,
    /// True for the handicapped-node cluster.
    pub heterogeneous: bool,
    /// Reads served by each node.
    pub reads: Vec<u64>,
}
simkit::json_fields!(ReadDistribution: config, heterogeneous, reads);

impl ReadDistribution {
    /// Slow-node reads relative to the per-node mean.
    pub fn slow_node_share(&self) -> f64 {
        let total: u64 = self.reads.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let mean = total as f64 / self.reads.len() as f64;
        self.reads[SLOW_NODE.index()] as f64 / mean
    }
}

/// Figure 8 data.
#[derive(Debug, Clone)]
pub struct Fig8 {
    /// All distributions (3 policies × 2 clusters).
    pub distributions: Vec<ReadDistribution>,
}
simkit::json_fields!(Fig8: distributions);

impl Fig8 {
    /// Lookup by config name and cluster kind.
    pub fn get(&self, config: &str, heterogeneous: bool) -> &ReadDistribution {
        self.distributions
            .iter()
            .find(|d| d.config == config && d.heterogeneous == heterogeneous)
            .unwrap_or_else(|| panic!("missing {config}/{heterogeneous}"))
    }
}

/// Run the Sort job under HDFS / Ignem / DYRS on both cluster flavours.
pub fn run(seed: u64, input_gb: u64) -> Fig8 {
    let policies = [
        MigrationPolicy::Disabled,
        MigrationPolicy::Ignem,
        MigrationPolicy::Dyrs,
    ];
    let mut tasks = Vec::new();
    for hetero in [false, true] {
        for p in policies {
            let cfg = if hetero {
                hetero_config(p, seed)
            } else {
                homogeneous_config(p, seed)
            };
            let w = sort::sort_workload(input_gb << 30, SimDuration::ZERO, 0);
            let (cfg, jobs) = with_workload(cfg, w);
            tasks.push(SimTask::new(format!("{}/{}", p.name(), hetero), cfg, jobs));
        }
    }
    let results = run_all(tasks, 0);
    let distributions = results
        .iter()
        .map(|(label, r)| {
            let (config, hetero) = label.split_once('/').expect("label format");
            ReadDistribution {
                config: config.to_string(),
                heterogeneous: hetero == "true",
                reads: r.reads_per_node(7),
            }
        })
        .collect();
    Fig8 { distributions }
}

/// Render both panels.
pub fn render(f: &Fig8) -> String {
    let mut out = String::from(
        "FIG 8: Reads per DataNode, Sort job\n\
         (paper: homogeneous => all equal; handicapped node => DYRS & HDFS\n\
          shift reads away from it, Ignem stays uniform)\n\n",
    );
    for hetero in [false, true] {
        out.push_str(if hetero {
            "--- handicapped node0 ---\n"
        } else {
            "--- homogeneous ---\n"
        });
        let mut tt = TextTable::new(vec![
            "Config",
            "n0",
            "n1",
            "n2",
            "n3",
            "n4",
            "n5",
            "n6",
            "slow/mean",
        ]);
        for cfg_name in ["HDFS", "Ignem", "DYRS"] {
            let d = f.get(cfg_name, hetero);
            let mut row: Vec<String> = vec![cfg_name.to_string()];
            row.extend(d.reads.iter().map(|r| r.to_string()));
            row.push(format!("{:.2}", d.slow_node_share()));
            tt.row(row);
        }
        out.push_str(&tt.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_is_roughly_uniform() {
        let f = run(7, 14);
        for cfg_name in ["HDFS", "Ignem", "DYRS"] {
            let d = f.get(cfg_name, false);
            let share = d.slow_node_share();
            assert!(
                (0.5..=1.6).contains(&share),
                "{cfg_name} homogeneous slow-node share {share}"
            );
        }
    }

    #[test]
    fn dyrs_and_hdfs_avoid_slow_node_ignem_does_not() {
        let f = run(7, 14);
        let dyrs = f.get("DYRS", true).slow_node_share();
        let ignem = f.get("Ignem", true).slow_node_share();
        assert!(dyrs < 0.6, "DYRS slow-node share {dyrs}");
        assert!(
            ignem > 0.6,
            "Ignem must keep loading the slow node: {ignem}"
        );
        assert!(
            ignem > dyrs + 0.2,
            "separation: ignem {ignem} vs dyrs {dyrs}"
        );
    }

    #[test]
    fn totals_preserved_across_configs() {
        let f = run(7, 14);
        // every config reads the same number of blocks (the job's input)
        let totals: Vec<u64> = f
            .distributions
            .iter()
            .map(|d| d.reads.iter().sum())
            .collect();
        for &t in &totals {
            assert!(t >= 56, "at least one read per block: {totals:?}");
        }
    }

    #[test]
    fn render_has_both_panels() {
        let s = render(&run(7, 7));
        assert!(s.contains("homogeneous"));
        assert!(s.contains("handicapped"));
    }
}
