//! Ablation studies of the design choices DESIGN.md calls out.
//!
//! Each ablation isolates one DYRS mechanism and measures what the paper's
//! headline workload loses without it:
//!
//! * **binding** — delayed+targeted (DYRS) vs delayed-any (naive) vs
//!   immediate-random (Ignem) on a heterogeneous Sort;
//! * **in-progress refresh** — the §IV-A heartbeat refresh on/off under
//!   suddenly-appearing interference;
//! * **queue depth** — the §III-A1 idleness-vs-early-binding trade-off,
//!   sweeping the slack;
//! * **eviction mode** — implicit vs explicit eviction memory footprint.

use crate::render::TextTable;
use crate::runner::{run_all, SimTask};
use crate::scenarios::{hetero_config, with_workload, SLOW_NODE};
use dyrs::MigrationPolicy;
use dyrs_cluster::InterferenceSchedule;
use dyrs_workloads::sort;
use simkit::{SimDuration, SimTime};

/// One ablation measurement.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Variant label.
    pub variant: String,
    /// Sort job end-to-end duration, seconds.
    pub job_secs: f64,
    /// Fraction of input read from memory.
    pub memory_fraction: f64,
    /// Peak migration-buffer footprint across nodes, bytes.
    pub peak_buffer_bytes: u64,
}
simkit::json_fields!(AblationRow: variant, job_secs, memory_fraction, peak_buffer_bytes);

/// A complete ablation study result.
#[derive(Debug, Clone)]
pub struct Ablation {
    /// Which mechanism was ablated.
    pub name: String,
    /// Variants in declared order.
    pub rows: Vec<AblationRow>,
}
simkit::json_fields!(Ablation: name, rows);

impl Ablation {
    /// Lookup by variant prefix.
    pub fn row(&self, prefix: &str) -> &AblationRow {
        self.rows
            .iter()
            .find(|r| r.variant.starts_with(prefix))
            .unwrap_or_else(|| panic!("missing variant {prefix}"))
    }
}

fn summarize(variant: String, r: &dyrs_sim::SimResult) -> AblationRow {
    AblationRow {
        variant,
        job_secs: r
            .jobs
            .first()
            .map(|j| j.duration.as_secs_f64())
            .unwrap_or(0.0),
        memory_fraction: r.memory_read_fraction(),
        peak_buffer_bytes: r
            .nodes
            .iter()
            .map(|n| n.peak_buffer_bytes)
            .max()
            .unwrap_or(0),
    }
}

/// Binding policy ablation: DYRS vs naive delayed binding vs Ignem on the
/// heterogeneous cluster.
pub fn binding(seed: u64, input_gb: u64) -> Ablation {
    let tasks = [
        MigrationPolicy::Dyrs,
        MigrationPolicy::Naive,
        MigrationPolicy::Ignem,
    ]
    .into_iter()
    .map(|p| {
        let cfg = hetero_config(p, seed);
        let w = sort::sort_workload(input_gb << 30, SimDuration::from_secs(20), 0);
        let (cfg, jobs) = with_workload(cfg, w);
        SimTask::new(p.name(), cfg, jobs)
    })
    .collect();
    Ablation {
        name: "binding".into(),
        rows: run_all(tasks, 0)
            .iter()
            .map(|(l, r)| summarize(l.clone(), r))
            .collect(),
    }
}

/// In-progress-refresh ablation: interference starts mid-job; without the
/// refresh the master keeps binding to the (suddenly slow) node until a
/// migration completes there.
pub fn refresh(seed: u64, input_gb: u64) -> Ablation {
    let tasks = [true, false]
        .into_iter()
        .map(|on| {
            let mut cfg = hetero_config(MigrationPolicy::Dyrs, seed);
            // interference arrives only at t=10s, after estimates settled
            cfg.interference = vec![InterferenceSchedule {
                node: SLOW_NODE,
                streams: 2,
                weight: dyrs_cluster::DD_WEIGHT,
                pattern: dyrs_cluster::InterferencePattern::Custom(vec![dyrs_cluster::Toggle {
                    at: SimTime::from_secs(10),
                    on: true,
                }]),
            }];
            cfg.dyrs.in_progress_refresh = on;
            let w = sort::sort_workload(input_gb << 30, SimDuration::from_secs(30), 0);
            let (cfg, jobs) = with_workload(cfg, w);
            SimTask::new(if on { "refresh-on" } else { "refresh-off" }, cfg, jobs)
        })
        .collect();
    Ablation {
        name: "in-progress refresh".into(),
        rows: run_all(tasks, 0)
            .iter()
            .map(|(l, r)| summarize(l.clone(), r))
            .collect(),
    }
}

/// Queue-depth ablation: sweep the §III-A1 slack.
pub fn queue_depth(seed: u64, input_gb: u64) -> Ablation {
    let tasks = [0usize, 1, 2, 4, 8]
        .into_iter()
        .map(|slack| {
            let mut cfg = hetero_config(MigrationPolicy::Dyrs, seed);
            cfg.dyrs.queue_slack = slack;
            let w = sort::sort_workload(input_gb << 30, SimDuration::from_secs(20), 0);
            let (cfg, jobs) = with_workload(cfg, w);
            SimTask::new(format!("slack-{slack}"), cfg, jobs)
        })
        .collect();
    Ablation {
        name: "queue depth".into(),
        rows: run_all(tasks, 0)
            .iter()
            .map(|(l, r)| summarize(l.clone(), r))
            .collect(),
    }
}

/// Serialization ablation (§III-B): the paper migrates one block at a
/// time per disk "to limit disk read concurrency"; this sweeps the
/// concurrency limit to quantify the choice. Higher concurrency batches
/// completions (every block finishes late) and adds disk contention, so
/// it should never beat the serialized default on time-to-first-byte
/// workloads like Sort.
pub fn serialization(seed: u64, input_gb: u64) -> Ablation {
    let tasks = [1usize, 2, 4, 8]
        .into_iter()
        .map(|limit| {
            let mut cfg = hetero_config(MigrationPolicy::Dyrs, seed);
            cfg.dyrs.max_concurrent_migrations = limit;
            let w = sort::sort_workload(input_gb << 30, SimDuration::from_secs(10), 0);
            let (cfg, jobs) = with_workload(cfg, w);
            SimTask::new(format!("concurrent-{limit}"), cfg, jobs)
        })
        .collect();
    Ablation {
        name: "migration serialization".into(),
        rows: run_all(tasks, 0)
            .iter()
            .map(|(l, r)| summarize(l.clone(), r))
            .collect(),
    }
}

/// Eviction-mode ablation: implicit (evict on read) vs explicit
/// (evict at job end) memory footprints.
pub fn eviction(seed: u64, input_gb: u64) -> Ablation {
    let tasks = [true, false]
        .into_iter()
        .map(|implicit| {
            let cfg = hetero_config(MigrationPolicy::Dyrs, seed);
            let mut w = sort::sort_workload(input_gb << 30, SimDuration::from_secs(30), 0);
            w.jobs[0].implicit_eviction = implicit;
            let (cfg, jobs) = with_workload(cfg, w);
            SimTask::new(if implicit { "implicit" } else { "explicit" }, cfg, jobs)
        })
        .collect();
    Ablation {
        name: "eviction mode".into(),
        rows: run_all(tasks, 0)
            .iter()
            .map(|(l, r)| summarize(l.clone(), r))
            .collect(),
    }
}

/// Memory-limit ablation (§IV-A1 hard limit, §V-E3 diminishing returns):
/// sweep the per-node migration-buffer cap on the SWIM workload. The
/// paper observes "a diminishing return in speedup from using more
/// memory"; the sweep regenerates that curve — speedup rises steeply from
/// tiny buffers and flattens well below unlimited RAM.
pub fn memory_limit(seed: u64, scale: f64) -> Ablation {
    use crate::scenarios::swim_params;
    use dyrs_workloads::swim;
    const BLOCK: u64 = 256 << 20;
    let params = swim_params(scale);
    let mut tasks: Vec<SimTask> = Vec::new();
    // HDFS baseline for the speedup reference
    {
        let cfg = hetero_config(MigrationPolicy::Disabled, seed);
        let w = swim::generate(&params, seed);
        let (mut cfg2, jobs) = (cfg, w.jobs);
        cfg2.files = w.files;
        tasks.push(SimTask::new("baseline-hdfs", cfg2, jobs));
    }
    for blocks in [1u64, 2, 4, 8, 16, 64] {
        let mut cfg = hetero_config(MigrationPolicy::Dyrs, seed);
        cfg.mem_limit = Some(blocks * BLOCK);
        let w = swim::generate(&params, seed);
        cfg.files = w.files;
        tasks.push(SimTask::new(format!("limit-{blocks}blk"), cfg, w.jobs));
    }
    let results = run_all(tasks, 0);
    let rows = results
        .iter()
        .map(|(label, r)| AblationRow {
            variant: label.clone(),
            job_secs: r.mean_job_duration_secs(),
            memory_fraction: r.memory_read_fraction(),
            peak_buffer_bytes: r
                .nodes
                .iter()
                .map(|n| n.peak_buffer_bytes)
                .max()
                .unwrap_or(0),
        })
        .collect();
    Ablation {
        name: "memory hard limit".into(),
        rows,
    }
}

/// Render one ablation as a table.
pub fn render(a: &Ablation) -> String {
    let mut tt = TextTable::new(vec!["Variant", "Sort(s)", "Mem reads", "Peak buffer"]);
    for r in &a.rows {
        tt.row(vec![
            r.variant.clone(),
            format!("{:.1}", r.job_secs),
            format!("{:.0}%", r.memory_fraction * 100.0),
            crate::render::bytes(r.peak_buffer_bytes),
        ]);
    }
    format!("ABLATION — {}:\n{}", a.name, tt.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn targeted_binding_wins() {
        let a = binding(7, 10);
        let dyrs = a.row("DYRS");
        let ignem = a.row("Ignem");
        assert!(dyrs.job_secs <= a.row("Naive").job_secs * 1.02);
        assert!(dyrs.job_secs < ignem.job_secs, "DYRS must beat Ignem");
    }

    #[test]
    fn refresh_speeds_adaptation() {
        let a = refresh(7, 10);
        let on = a.row("refresh-on");
        let off = a.row("refresh-off");
        // without the refresh the system adapts slower (or at best equal)
        assert!(
            on.job_secs <= off.job_secs * 1.05,
            "refresh-on {:.1}s vs refresh-off {:.1}s",
            on.job_secs,
            off.job_secs
        );
        assert!(
            on.memory_fraction + 0.02 >= off.memory_fraction,
            "refresh must not lose coverage: {} vs {}",
            on.memory_fraction,
            off.memory_fraction
        );
    }

    #[test]
    fn zero_slack_never_helps() {
        let a = queue_depth(7, 10);
        let s0 = a.row("slack-0").job_secs;
        let s1 = a.row("slack-1").job_secs;
        // slack 0 risks disk idleness between heartbeats; it should never
        // beat the default meaningfully
        assert!(s1 <= s0 * 1.05, "slack-1 {s1:.1}s vs slack-0 {s0:.1}s");
    }

    #[test]
    fn serialization_never_loses() {
        let a = serialization(7, 10);
        let one = a.row("concurrent-1");
        for limit in ["concurrent-2", "concurrent-4", "concurrent-8"] {
            let x = a.row(limit);
            assert!(
                one.job_secs <= x.job_secs * 1.08,
                "serialized {:.1}s must not lose to {limit} {:.1}s",
                one.job_secs,
                x.job_secs
            );
            assert!(
                one.memory_fraction + 0.05 >= x.memory_fraction,
                "serialized coverage {:.2} vs {limit} {:.2}",
                one.memory_fraction,
                x.memory_fraction
            );
        }
    }

    #[test]
    fn implicit_eviction_keeps_footprint_lower() {
        let a = eviction(7, 10);
        let imp = a.row("implicit");
        let exp = a.row("explicit");
        assert!(
            imp.peak_buffer_bytes <= exp.peak_buffer_bytes,
            "implicit {} must not exceed explicit {}",
            imp.peak_buffer_bytes,
            exp.peak_buffer_bytes
        );
        // and performance is essentially unchanged
        assert!((imp.job_secs - exp.job_secs).abs() / exp.job_secs < 0.1);
    }

    #[test]
    fn memory_limit_shows_diminishing_returns() {
        let a = memory_limit(7, 0.2);
        let hdfs = a.row("baseline-hdfs").job_secs;
        let tiny = a.row("limit-1blk").job_secs;
        let mid = a.row("limit-8blk").job_secs;
        let big = a.row("limit-64blk").job_secs;
        // more memory never hurts …
        assert!(mid <= tiny * 1.05, "8blk {mid:.1}s vs 1blk {tiny:.1}s");
        assert!(big <= mid * 1.05, "64blk {big:.1}s vs 8blk {mid:.1}s");
        // … and even a modest buffer captures most of the benefit
        // (the paper's diminishing-returns observation, §V-E3)
        let gain_mid = hdfs - mid;
        let gain_big = hdfs - big;
        assert!(
            gain_mid >= 0.7 * gain_big,
            "8 blocks should capture most of the speedup: {gain_mid:.1} vs {gain_big:.1}"
        );
        // hard limits hold
        assert!(a.row("limit-1blk").peak_buffer_bytes <= 256 << 20);
        assert!(a.row("limit-8blk").peak_buffer_bytes <= 8 * (256 << 20));
    }

    #[test]
    fn render_lists_variants() {
        let a = binding(7, 5);
        let s = render(&a);
        assert!(s.contains("DYRS") && s.contains("Ignem"));
    }
}
