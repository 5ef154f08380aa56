//! Simulation outputs.

use dyrs::master::MasterStats;
use dyrs::slave::SlaveStats;
use dyrs_cluster::NodeId;
use dyrs_dfs::{BlockId, JobId, Medium};
use dyrs_engine::{JobMetrics, TaskMetrics};
use simkit::stats::TimeSeries;
use simkit::{SimDuration, SimTime};

/// One block read, as it completed (drives Figs. 8 and 10).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockReadRecord {
    /// When the read finished.
    pub at: SimTime,
    /// The block.
    pub block: BlockId,
    /// Node that served the bytes.
    pub source: NodeId,
    /// Storage tier / locality.
    pub medium: Medium,
    /// Reading job.
    pub job: JobId,
    /// Bytes served.
    pub bytes: u64,
}

/// Per-node roll-up.
#[derive(Debug, Clone)]
pub struct NodeReport {
    /// The node.
    pub node: NodeId,
    /// Reads served from its disk.
    pub disk_reads: u64,
    /// Reads served from its memory (local or via NIC).
    pub memory_reads: u64,
    /// Bytes served from disk.
    pub disk_bytes: u64,
    /// Bytes served from memory.
    pub memory_bytes: u64,
    /// Peak migration-buffer footprint.
    pub peak_buffer_bytes: u64,
    /// Slave counters (completed migrations, migrated bytes, evictions —
    /// the single source of truth for migration roll-ups).
    pub slave: SlaveStats,
    /// Total time the disk had at least one active stream.
    pub disk_busy: SimDuration,
    /// Estimated migration time per reference block over time (Fig. 9).
    pub estimate_series: TimeSeries,
    /// Migration-buffer bytes over time (Fig. 7).
    pub buffer_series: TimeSeries,
    /// Measured disk utilization (busy fraction per heartbeat interval) —
    /// the run's own Fig.-1-style trace.
    pub utilization_series: TimeSeries,
}

/// Everything a run produces.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Per-job metrics, in completion order.
    pub jobs: Vec<JobMetrics>,
    /// Per-task metrics, in completion order.
    pub tasks: Vec<TaskMetrics>,
    /// Per-node roll-ups.
    pub nodes: Vec<NodeReport>,
    /// Master counters.
    pub master: MasterStats,
    /// Every completed block read.
    pub reads: Vec<BlockReadRecord>,
    /// Jobs that failed (killed or unservable reads).
    pub failed_jobs: Vec<JobId>,
    /// Speculative task re-executions triggered.
    pub speculations: u64,
    /// Re-replication repair copies completed.
    pub repairs: u64,
    /// Discrete events the run loop dispatched.
    pub events_processed: u64,
    /// Admin-plane scrapes the run loop performed (see
    /// `SimConfig::scrape_interval`). Scrapes are pure reads layered on
    /// top of the event stream: any `scrapes > 0` run must produce the
    /// same `trace_digest` and the same exported report as the
    /// `scrapes == 0` run of the identical scenario.
    pub scrapes: u64,
    /// FNV-1a digest of the dispatched event stream (time + event, in
    /// order). Identical scenarios under identical seeds must reproduce
    /// this bit-for-bit; a mismatch means nondeterminism reached the
    /// event loop.
    pub trace_digest: u64,
    /// Simulated instant the last event fired.
    pub end_time: SimTime,
    /// Protocol frames moved through the wire codec. Zero under
    /// [`WireMode::InProcess`](crate::config::WireMode::InProcess); under
    /// `Loopback` every master↔slave interaction pays the full
    /// encode→frame→decode round trip and is counted here.
    pub wire_frames: u64,
    /// Encoded protocol bytes (headers included) moved through the wire
    /// codec; zero in `InProcess` mode.
    pub wire_bytes: u64,
    /// Observability report: migration lifecycle spans, metric registry,
    /// and Algorithm 1 decision provenance. Empty (with `enabled: false`)
    /// when the `obs` feature is off. Export with
    /// [`write_to_dir`](dyrs_obs::ObsReport::write_to_dir).
    pub obs: dyrs_obs::ObsReport,
}

impl SimResult {
    /// Mean job duration in seconds (the Table I statistic).
    pub fn mean_job_duration_secs(&self) -> f64 {
        if self.jobs.is_empty() {
            return 0.0;
        }
        self.jobs
            .iter()
            .map(|j| j.duration.as_secs_f64())
            .sum::<f64>()
            / self.jobs.len() as f64
    }

    /// Mean map-task duration in seconds (Fig. 6 statistic).
    pub fn mean_map_task_secs(&self) -> f64 {
        let maps: Vec<f64> = self
            .tasks
            .iter()
            .filter(|t| t.is_map)
            .map(|t| t.duration.as_secs_f64())
            .collect();
        if maps.is_empty() {
            0.0
        } else {
            maps.iter().sum::<f64>() / maps.len() as f64
        }
    }

    /// Fraction of map input bytes served from memory, across all jobs.
    pub fn memory_read_fraction(&self) -> f64 {
        let (mem, total) = self.reads.iter().fold((0u64, 0u64), |(m, t), r| {
            (
                m + if r.medium.is_memory() { r.bytes } else { 0 },
                t + r.bytes,
            )
        });
        if total == 0 {
            0.0
        } else {
            mem as f64 / total as f64
        }
    }

    /// Reads served per node (Fig. 8's bar heights).
    pub fn reads_per_node(&self, nodes: usize) -> Vec<u64> {
        let mut counts = vec![0u64; nodes];
        for r in &self.reads {
            counts[r.source.index()] += 1;
        }
        counts
    }

    /// The job metrics for `job`, if it completed.
    pub fn job(&self, job: JobId) -> Option<&JobMetrics> {
        self.jobs.iter().find(|j| j.job == job)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_result() -> SimResult {
        SimResult {
            jobs: vec![],
            tasks: vec![],
            nodes: vec![],
            master: MasterStats::default(),
            reads: vec![
                BlockReadRecord {
                    at: SimTime::ZERO,
                    block: BlockId(1),
                    source: NodeId(0),
                    medium: Medium::LocalMemory,
                    job: JobId(1),
                    bytes: 75,
                },
                BlockReadRecord {
                    at: SimTime::ZERO,
                    block: BlockId(2),
                    source: NodeId(1),
                    medium: Medium::RemoteDisk,
                    job: JobId(1),
                    bytes: 25,
                },
            ],
            failed_jobs: vec![],
            speculations: 0,
            repairs: 0,
            events_processed: 0,
            scrapes: 0,
            trace_digest: 0,
            end_time: SimTime::ZERO,
            wire_frames: 0,
            wire_bytes: 0,
            obs: Default::default(),
        }
    }

    #[test]
    fn memory_fraction_weighted_by_bytes() {
        let r = mk_result();
        assert!((r.memory_read_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn reads_per_node_counts() {
        let r = mk_result();
        assert_eq!(r.reads_per_node(3), vec![1, 1, 0]);
    }

    #[test]
    fn empty_means_are_zero() {
        let mut r = mk_result();
        r.reads.clear();
        assert_eq!(r.mean_job_duration_secs(), 0.0);
        assert_eq!(r.mean_map_task_secs(), 0.0);
        assert_eq!(r.memory_read_fraction(), 0.0);
    }
}
