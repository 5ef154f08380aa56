//! Per-job and per-task result records — the raw material every table and
//! figure in the evaluation is rendered from.

use dyrs_cluster::NodeId;
use dyrs_dfs::{JobId, Medium};
use simkit::{SimDuration, SimTime};

/// Completed-task record.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskMetrics {
    /// Owning job.
    pub job: JobId,
    /// True for map tasks.
    pub is_map: bool,
    /// Node it ran on.
    pub node: NodeId,
    /// Input size.
    pub bytes: u64,
    /// Where the input read was served from (maps only).
    pub read_medium: Option<Medium>,
    /// Time spent reading input.
    pub read_time: SimDuration,
    /// Total task duration (start → done).
    pub duration: SimDuration,
}

/// Completed-job record.
#[derive(Debug, Clone, PartialEq)]
pub struct JobMetrics {
    /// The job.
    pub job: JobId,
    /// Its name.
    pub name: String,
    /// Total input bytes.
    pub input_bytes: u64,
    /// Number of map tasks.
    pub map_tasks: usize,
    /// When the job was submitted.
    pub submitted_at: SimTime,
    /// When it completed.
    pub completed_at: SimTime,
    /// Submission → completion.
    pub duration: SimDuration,
    /// Submission → first task start.
    pub lead_time: SimDuration,
    /// First task start → last map done.
    pub map_phase: SimDuration,
    /// Fraction of map input bytes served from memory.
    pub memory_read_fraction: f64,
}

impl JobMetrics {
    /// Speedup of this run relative to `baseline` (same job under another
    /// policy): `1 − duration/baseline`, i.e. 0.33 = "33% faster", matching
    /// how the paper reports Table I ("Speedup w.r.t HDFS"). Negative means
    /// slower (Ignem's −111%).
    pub fn speedup_vs(&self, baseline: &JobMetrics) -> f64 {
        let base = baseline.duration.as_secs_f64();
        if base == 0.0 {
            return 0.0;
        }
        1.0 - self.duration.as_secs_f64() / base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jm(secs: u64) -> JobMetrics {
        JobMetrics {
            job: JobId(1),
            name: "j".into(),
            input_bytes: 1,
            map_tasks: 1,
            submitted_at: SimTime::ZERO,
            completed_at: SimTime::from_secs(secs),
            duration: SimDuration::from_secs(secs),
            lead_time: SimDuration::ZERO,
            map_phase: SimDuration::ZERO,
            memory_read_fraction: 0.0,
        }
    }

    #[test]
    fn speedup_matches_paper_convention() {
        let hdfs = jm(100);
        let dyrs = jm(67);
        let ignem = jm(211);
        assert!((dyrs.speedup_vs(&hdfs) - 0.33).abs() < 1e-9);
        assert!((ignem.speedup_vs(&hdfs) + 1.11).abs() < 1e-9);
        assert_eq!(hdfs.speedup_vs(&jm(0)), 0.0, "degenerate baseline");
    }
}
