//! Tier sweep — 2-tier DYRS baseline vs 3-/4-tier stacks on job speedup
//! and wasted-migration rate.
//!
//! The legacy stack evicts by dropping: every byte a finished job leaves
//! behind must be re-migrated from HDD if a later job wants it, and the
//! first read after eviction pays the disk. A deeper stack demotes the
//! copy to NVMe/SSD instead, so re-reads are served from the middle tier
//! and fewer completed migrations end up wasted. The sweep drives a
//! reuse-heavy workload (rounds of jobs re-reading the same files) under
//! a tight memory limit, where that difference is visible:
//!
//! * **speedup** — mean job duration vs the 2-tier baseline;
//! * **wasted-migration rate** — evict-drops ÷ completed migrations
//!   (a completed migration whose bytes are dropped bought nothing that
//!   outlives the evicting job; a demoted one keeps serving).
//!
//! The 2-tier row runs today's exact configuration (`tiers: None`), so
//! its trace digest doubles as the legacy-equivalence witness replayed by
//! CI and pinned in `tests/determinism.rs`.

use crate::render::TextTable;
use crate::runner::{run_all, SimTask};
use crate::scenarios::hetero_config;
use dyrs::{MigrationPolicy, TierStackSpec};
use dyrs_dfs::JobId;
use dyrs_engine::JobSpec;
use dyrs_sim::{FileSpec, SimConfig};
use simkit::SimTime;

/// Files in the working set.
const FILES: usize = 6;
/// Rounds of re-reads over the working set.
const ROUNDS: usize = 3;
/// Seconds between job arrivals. Shorter than a job's runtime, so jobs
/// overlap and their migrations contend for disk: a re-read of a file
/// evicted at the end of the previous round races its own re-migration,
/// which is exactly where a demoted NVMe copy beats a dropped one. (The
/// same file is only re-read `FILES` arrivals later, so the previous
/// reader has always finished and its implicit eviction has fired.)
const ARRIVAL_GAP_SECS: u64 = 8;

/// One storage-stack configuration in the sweep.
#[derive(Debug, Clone)]
pub struct TierSweepRow {
    /// Stack label ("2-tier", "3-tier", ...).
    pub stack: String,
    /// Tier policy: always "baseline" (migrations land in memory;
    /// evictions demote when a lower tier has room).
    pub policy: String,
    /// Mean job duration, seconds.
    pub mean_job_secs: f64,
    /// Improvement over the 2-tier baseline, percent (positive = faster).
    pub speedup_pct: f64,
    /// Migrations completed (master roll-up).
    pub completed: u64,
    /// Evictions salvaged by demoting the copy down-tier.
    pub demoted: u64,
    /// Evictions that dropped the copy outright (no tier below had room,
    /// or none exists).
    pub dropped: u64,
    /// Wasted-migration rate: `dropped / completed`.
    pub wasted_rate: f64,
    /// Event-trace digest of the run (the 2-tier row's digest is the
    /// legacy-equivalence witness; CI replays it).
    pub trace_digest: u64,
}
simkit::json_fields!(TierSweepRow: stack, policy, mean_job_secs, speedup_pct, completed, demoted,
    dropped, wasted_rate, trace_digest);

/// Full tier-sweep data.
#[derive(Debug, Clone)]
pub struct TierSweep {
    /// Rows in sweep order: 2-tier, 3-tier, 4-tier.
    pub rows: Vec<TierSweepRow>,
}
simkit::json_fields!(TierSweep: rows);

impl TierSweep {
    /// Lookup a row by stack label.
    pub fn get(&self, stack: &str) -> &TierSweepRow {
        self.rows
            .iter()
            .find(|r| r.stack == stack)
            .unwrap_or_else(|| panic!("missing {stack}"))
    }
}

/// The reuse workload: `ROUNDS` passes over `FILES` files, one map-only
/// job per (round, file). Files are sized so a job's migrations outlast
/// the engine's platform lead — re-reads race their re-migrations and
/// actually touch the storage stack instead of always landing in memory.
fn reuse_workload(cfg: &mut SimConfig, scale: f64) -> Vec<JobSpec> {
    let file_bytes = ((8.0 * (1u64 << 30) as f64 * scale) as u64).max(512 << 20);
    let mut jobs = Vec::with_capacity(FILES * ROUNDS);
    for f in 0..FILES {
        cfg.files
            .push(FileSpec::new(format!("reuse/input-{f}"), file_bytes));
    }
    for round in 0..ROUNDS {
        for f in 0..FILES {
            let i = round * FILES + f;
            jobs.push(JobSpec::map_only(
                JobId(i as u64),
                format!("reuse-{round}-{f}"),
                SimTime::from_secs((i as u64) * ARRIVAL_GAP_SECS),
                vec![format!("reuse/input-{f}")],
            ));
        }
    }
    jobs
}

fn stack_for(spec: &dyrs_cluster::NodeSpec, stack: &str) -> Option<TierStackSpec> {
    match stack {
        "2-tier" => None,
        "3-tier" => Some(TierStackSpec::three_tier(
            spec.mem_capacity,
            spec.membus_bw,
            spec.disk_bw,
            spec.disk_degradation,
        )),
        "4-tier" => Some(TierStackSpec::four_tier(
            spec.mem_capacity,
            spec.membus_bw,
            spec.disk_bw,
            spec.disk_degradation,
        )),
        other => panic!("unknown stack {other}"),
    }
}

/// Run the sweep: 2/3/4-tier stacks on the heterogeneous evaluation
/// cluster with a migration buffer tight enough to force eviction
/// pressure.
pub fn run(seed: u64, scale: f64) -> TierSweep {
    let stacks = ["2-tier", "3-tier", "4-tier"];
    let tasks: Vec<SimTask> = stacks
        .iter()
        .map(|&stack| {
            let mut cfg = hetero_config(MigrationPolicy::Dyrs, seed);
            for spec in &mut cfg.cluster.nodes {
                spec.tiers = stack_for(spec, stack);
            }
            // A buffer two files deep: round r's files cannot all stay
            // resident until round r+1, so evictions (and, with a middle
            // tier, demotions) are guaranteed.
            let jobs = reuse_workload(&mut cfg, scale);
            cfg.mem_limit = Some(2 * cfg.files[0].bytes);
            SimTask::new(stack, cfg, jobs)
        })
        .collect();
    let results = run_all(tasks, 0);
    let base_secs = results[0].1.mean_job_duration_secs();
    let rows = results
        .into_iter()
        .map(|(label, r)| {
            let mean = r.mean_job_duration_secs();
            let dropped = r.obs.counter("tier.evict_drop");
            TierSweepRow {
                stack: label,
                policy: "baseline".to_string(),
                mean_job_secs: mean,
                speedup_pct: (base_secs - mean) / base_secs * 100.0,
                completed: r.master.completed,
                demoted: r.obs.counter("tier.evict_demote"),
                dropped,
                wasted_rate: dropped as f64 / r.master.completed.max(1) as f64,
                trace_digest: r.trace_digest,
            }
        })
        .collect();
    TierSweep { rows }
}

/// Render the sweep table.
pub fn render(t: &TierSweep) -> String {
    let mut tt = TextTable::new(vec![
        "Stack",
        "Policy",
        "Mean job (s)",
        "Speedup",
        "Migrations",
        "Demoted",
        "Dropped",
        "Wasted rate",
    ]);
    for r in &t.rows {
        tt.row(vec![
            r.stack.clone(),
            r.policy.clone(),
            format!("{:.1}", r.mean_job_secs),
            format!("{:+.1}%", r.speedup_pct),
            format!("{}", r.completed),
            format!("{}", r.demoted),
            format!("{}", r.dropped),
            format!("{:.2}", r.wasted_rate),
        ]);
    }
    format!(
        "TIER SWEEP: storage stacks under eviction pressure\n\
         (2-tier evictions drop bytes back to HDD; deeper stacks demote\n\
          to NVMe/SSD, cutting wasted migrations and re-read cost)\n\n{}",
        tt.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_contrasts_drop_vs_demote() {
        let t = run(7, 0.25);
        let two = t.get("2-tier");
        let three = t.get("3-tier");
        // every stack actually migrated and evicted under pressure
        for r in &t.rows {
            assert!(r.completed > 0, "{}: no migrations completed", r.stack);
            assert!(r.mean_job_secs > 0.0, "{}: no jobs ran", r.stack);
        }
        // the legacy stack can only drop; deeper stacks salvage by demoting
        assert_eq!(two.demoted, 0, "2-tier has nowhere to demote");
        assert!(two.dropped > 0, "pressure must evict on the 2-tier stack");
        assert!(three.demoted > 0, "3-tier must demote under pressure");
        assert!(
            three.wasted_rate < two.wasted_rate,
            "demotion must cut the wasted-migration rate: 3-tier {:.2} vs 2-tier {:.2}",
            three.wasted_rate,
            two.wasted_rate
        );
        // re-reads served from NVMe keep the deeper stack no slower
        assert!(
            three.mean_job_secs <= two.mean_job_secs * 1.05,
            "3-tier must not be slower: {:.1}s vs {:.1}s",
            three.mean_job_secs,
            two.mean_job_secs
        );
    }

    #[test]
    fn two_tier_row_is_deterministic() {
        let a = run(7, 0.1);
        let b = run(7, 0.1);
        for (ra, rb) in a.rows.iter().zip(&b.rows) {
            assert_eq!(ra.trace_digest, rb.trace_digest, "{}", ra.stack);
        }
    }

    #[test]
    fn render_names_every_stack() {
        let s = render(&run(7, 0.1));
        assert!(s.contains("2-tier") && s.contains("3-tier") && s.contains("4-tier"));
        assert!(s.contains("Wasted rate"));
    }
}
