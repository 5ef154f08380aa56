//! Future-work study: alternative migration-scheduling policies at the
//! master.
//!
//! The paper ships FIFO and writes (§III): "In future work, we plan to
//! explore how alternative policies, and cooperation with the job
//! scheduler, can improve performance." This module runs the SWIM
//! workload under the three implemented pending-list disciplines —
//! FIFO (the paper), smallest-job-first, and earliest-deadline-first —
//! and reports the numbers that discriminate them: mean job duration,
//! small-job duration (SJF's target), and missed-read counts (work
//! wasted on blocks that were read before their migration was bound).

use crate::render::{secs, TextTable};
use crate::runner::{run_all, SimTask};
use crate::scenarios::{hetero_config, swim_params};
use dyrs::{MigrationOrder, MigrationPolicy};
use dyrs_workloads::swim::{self, size_bin, SizeBin};

/// Metrics for one ordering discipline.
#[derive(Debug, Clone)]
pub struct OrderRow {
    /// Discipline name ("FIFO" / "SJF" / "EDF").
    pub order: String,
    /// Mean job duration, seconds.
    pub mean_job_secs: f64,
    /// Mean duration of small (<64 MB) jobs — the majority class.
    pub small_job_secs: f64,
    /// Mean duration of large (>1 GB) jobs — SJF's potential victims.
    pub large_job_secs: f64,
    /// Fraction of input bytes read from memory.
    pub memory_fraction: f64,
    /// Pending migrations cancelled by reads (wasted intent).
    pub missed_reads: u64,
}
simkit::json_fields!(OrderRow: order, mean_job_secs, small_job_secs, large_job_secs,
    memory_fraction, missed_reads);

/// The full study.
#[derive(Debug, Clone)]
pub struct PolicyStudy {
    /// One row per discipline, in [`MigrationOrder::all`] order.
    pub rows: Vec<OrderRow>,
}
simkit::json_fields!(PolicyStudy: rows);

impl PolicyStudy {
    /// Row lookup.
    pub fn row(&self, name: &str) -> &OrderRow {
        self.rows
            .iter()
            .find(|r| r.order == name)
            .unwrap_or_else(|| panic!("missing order {name}"))
    }
}

/// Run SWIM under DYRS with each pending-list discipline.
pub fn run(seed: u64, scale: f64) -> PolicyStudy {
    let params = swim_params(scale);
    let tasks: Vec<SimTask> = MigrationOrder::all()
        .into_iter()
        .map(|order| {
            let mut cfg = hetero_config(MigrationPolicy::Dyrs, seed);
            cfg.dyrs.migration_order = order;
            let w = swim::generate(&params, seed);
            cfg.files = w.files;
            SimTask::new(order.name(), cfg, w.jobs)
        })
        .collect();
    let results = run_all(tasks, 0);
    let rows = results
        .iter()
        .map(|(label, r)| {
            let mean_of = |bin: Option<SizeBin>| {
                let xs: Vec<f64> = r
                    .jobs
                    .iter()
                    .filter(|j| bin.map(|b| size_bin(j.input_bytes) == b).unwrap_or(true))
                    .map(|j| j.duration.as_secs_f64())
                    .collect();
                if xs.is_empty() {
                    0.0
                } else {
                    xs.iter().sum::<f64>() / xs.len() as f64
                }
            };
            OrderRow {
                order: label.clone(),
                mean_job_secs: mean_of(None),
                small_job_secs: mean_of(Some(SizeBin::Small)),
                large_job_secs: mean_of(Some(SizeBin::Large)),
                memory_fraction: r.memory_read_fraction(),
                missed_reads: r.master.missed_reads,
            }
        })
        .collect();
    PolicyStudy { rows }
}

/// Render the comparison table.
pub fn render(p: &PolicyStudy) -> String {
    let mut tt = TextTable::new(vec![
        "Order",
        "Mean job(s)",
        "Small jobs(s)",
        "Large jobs(s)",
        "Mem reads",
        "Missed",
    ]);
    for r in &p.rows {
        tt.row(vec![
            r.order.clone(),
            secs(r.mean_job_secs),
            secs(r.small_job_secs),
            secs(r.large_job_secs),
            format!("{:.0}%", r.memory_fraction * 100.0),
            r.missed_reads.to_string(),
        ]);
    }
    format!(
        "FUTURE WORK — migration-order policies on SWIM (DYRS master)\n\
         (paper ships FIFO and defers alternatives to future work)\n\n{}",
        tt.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_orders_complete_the_workload() {
        let p = run(7, 0.2);
        assert_eq!(p.rows.len(), 3);
        for r in &p.rows {
            assert!(r.mean_job_secs > 0.0, "{} produced no jobs", r.order);
            assert!(r.memory_fraction > 0.2, "{} barely migrated", r.order);
        }
    }

    #[test]
    fn alternative_orders_do_not_tank_the_mean() {
        // the study's point is the trade-off space; sanity: no discipline
        // should catastrophically regress the FIFO baseline
        let p = run(7, 0.2);
        let fifo = p.row("FIFO").mean_job_secs;
        for name in ["SJF", "EDF"] {
            let x = p.row(name).mean_job_secs;
            assert!(x < fifo * 1.3, "{name} mean {x:.1}s vs FIFO {fifo:.1}s");
        }
    }

    #[test]
    fn sjf_favors_small_jobs() {
        let p = run(7, 0.25);
        // SJF must not make the majority class slower than FIFO does
        assert!(
            p.row("SJF").small_job_secs <= p.row("FIFO").small_job_secs * 1.05,
            "SJF small-job mean {:.1}s vs FIFO {:.1}s",
            p.row("SJF").small_job_secs,
            p.row("FIFO").small_job_secs
        );
    }

    #[test]
    fn render_lists_orders() {
        let s = render(&run(7, 0.1));
        for n in ["FIFO", "SJF", "EDF"] {
            assert!(s.contains(n));
        }
    }
}
