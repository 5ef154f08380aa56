//! Jobs: specs and live state.

use dyrs_dfs::JobId;
use simkit::{SimDuration, SimTime};

/// How a job releases its migrated blocks — re-exported shape of
/// `dyrs::EvictionMode`, kept as a plain bool here so the engine does not
/// depend on the dyrs core crate (dependencies point the other way in the
/// real system too: the framework is oblivious to the file system's
/// migration layer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Submitted but not yet runnable (platform overhead / dependencies).
    Submitted,
    /// Tasks are runnable / running.
    Running,
    /// All stages finished.
    Completed,
    /// Killed by failure injection.
    Failed,
}

/// Static description of one MapReduce job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Unique id.
    pub id: JobId,
    /// Human-readable name ("swim-017", "q15-stage2", "sort-10g").
    pub name: String,
    /// Submission time. For dependent jobs, the effective submission is
    /// `max(submit_at, completion of all dependencies)`.
    pub submit_at: SimTime,
    /// Jobs that must complete before this one is submitted to the
    /// cluster (Hive stages).
    pub depends_on: Vec<JobId>,
    /// Input files read by the map stage.
    pub input_files: Vec<String>,
    /// Total map-output (shuffle) bytes.
    pub shuffle_bytes: u64,
    /// Number of reduce tasks; 0 for map-only jobs.
    pub reduce_tasks: usize,
    /// Extra artificial lead-time inserted before tasks become runnable
    /// (the Fig. 11 experiment); zero normally.
    pub extra_lead_time: SimDuration,
    /// Whether the job's migrations use implicit eviction.
    pub implicit_eviction: bool,
    /// Multiplier on the engine's per-byte map compute cost: 1.0 for
    /// light trace-replay mappers, higher for CPU-heavy Hive operators.
    pub cpu_factor: f64,
}

impl JobSpec {
    /// A minimal map-only job over `files` submitted at `submit_at`.
    pub fn map_only(
        id: JobId,
        name: impl Into<String>,
        submit_at: SimTime,
        files: Vec<String>,
    ) -> Self {
        JobSpec {
            id,
            name: name.into(),
            submit_at,
            depends_on: Vec::new(),
            input_files: files,
            shuffle_bytes: 0,
            reduce_tasks: 0,
            extra_lead_time: SimDuration::ZERO,
            implicit_eviction: true,
            cpu_factor: 1.0,
        }
    }

    /// Start a fluent builder.
    ///
    /// ```
    /// use dyrs_dfs::JobId;
    /// use dyrs_engine::JobSpec;
    /// use simkit::{SimDuration, SimTime};
    ///
    /// let job = JobSpec::builder(JobId(3), "etl-nightly")
    ///     .submit_at(SimTime::from_secs(10))
    ///     .input("logs/day-1")
    ///     .input("logs/day-2")
    ///     .shuffle(1 << 30)
    ///     .reduces(4)
    ///     .extra_lead_time(SimDuration::from_secs(15))
    ///     .explicit_eviction()
    ///     .cpu_factor(2.0)
    ///     .after(JobId(2))
    ///     .build();
    /// assert_eq!(job.input_files.len(), 2);
    /// assert_eq!(job.reduce_tasks, 4);
    /// assert_eq!(job.depends_on, vec![JobId(2)]);
    /// assert!(!job.implicit_eviction);
    /// ```
    pub fn builder(id: JobId, name: impl Into<String>) -> JobSpecBuilder {
        JobSpecBuilder {
            spec: JobSpec::map_only(id, name, SimTime::ZERO, Vec::new()),
        }
    }
}

/// Fluent constructor for [`JobSpec`] (see [`JobSpec::builder`]).
#[derive(Debug, Clone)]
pub struct JobSpecBuilder {
    spec: JobSpec,
}

impl JobSpecBuilder {
    /// Submission time (default t = 0).
    pub fn submit_at(mut self, t: SimTime) -> Self {
        self.spec.submit_at = t;
        self
    }

    /// Add one input file.
    pub fn input(mut self, file: impl Into<String>) -> Self {
        self.spec.input_files.push(file.into());
        self
    }

    /// Total shuffle bytes (map output).
    pub fn shuffle(mut self, bytes: u64) -> Self {
        self.spec.shuffle_bytes = bytes;
        self
    }

    /// Number of reduce tasks (default 0 = map-only).
    pub fn reduces(mut self, n: usize) -> Self {
        self.spec.reduce_tasks = n;
        self
    }

    /// Artificial extra lead-time before tasks launch.
    pub fn extra_lead_time(mut self, d: SimDuration) -> Self {
        self.spec.extra_lead_time = d;
        self
    }

    /// Use explicit eviction (default is implicit).
    pub fn explicit_eviction(mut self) -> Self {
        self.spec.implicit_eviction = false;
        self
    }

    /// Per-byte map compute multiplier (default 1.0).
    pub fn cpu_factor(mut self, f: f64) -> Self {
        assert!(f > 0.0, "non-positive cpu factor");
        self.spec.cpu_factor = f;
        self
    }

    /// Add a dependency: this job is submitted when `dep` completes.
    pub fn after(mut self, dep: JobId) -> Self {
        self.spec.depends_on.push(dep);
        self
    }

    /// Finish building.
    pub fn build(self) -> JobSpec {
        self.spec
    }
}

/// Live job state: stage progress and the timestamps the evaluation
/// reports (submission → first task → map phase end → job end).
#[derive(Debug, Clone)]
pub struct JobState {
    /// The spec.
    pub spec: JobSpec,
    /// Current status.
    pub status: JobStatus,
    /// Map tasks not yet completed.
    pub maps_remaining: usize,
    /// Total map tasks.
    pub maps_total: usize,
    /// Reduce tasks not yet completed.
    pub reduces_remaining: usize,
    /// When the job was submitted (after dependencies resolved).
    pub submitted_at: SimTime,
    /// When tasks became runnable.
    pub launched_at: Option<SimTime>,
    /// When the first task actually started (lead-time endpoint).
    pub first_task_at: Option<SimTime>,
    /// When the last map finished.
    pub maps_done_at: Option<SimTime>,
    /// When everything finished.
    pub completed_at: Option<SimTime>,
}

impl JobState {
    /// Fresh state for `spec`, effective-submitted at `submitted_at`.
    pub fn new(spec: JobSpec, submitted_at: SimTime) -> Self {
        JobState {
            status: JobStatus::Submitted,
            maps_remaining: 0,
            maps_total: 0,
            reduces_remaining: spec.reduce_tasks,
            submitted_at,
            launched_at: None,
            first_task_at: None,
            maps_done_at: None,
            completed_at: None,
            spec,
        }
    }

    /// Record that the map stage has `n` tasks (known once inputs are
    /// resolved against the namespace).
    pub fn set_map_count(&mut self, n: usize) {
        self.maps_total = n;
        self.maps_remaining = n;
    }

    /// One map task finished. Returns `true` if that was the last map
    /// (the reduce stage may start).
    pub fn on_map_done(&mut self, now: SimTime) -> bool {
        assert!(self.maps_remaining > 0, "map completion underflow");
        self.maps_remaining -= 1;
        if self.maps_remaining == 0 {
            self.maps_done_at = Some(now);
            true
        } else {
            false
        }
    }

    /// One reduce task finished. Returns `true` if the job is now done.
    pub fn on_reduce_done(&mut self) -> bool {
        assert!(self.reduces_remaining > 0, "reduce completion underflow");
        self.reduces_remaining -= 1;
        self.reduces_remaining == 0
    }

    /// True once all stages completed.
    pub fn is_finished(&self) -> bool {
        self.maps_total > 0 && self.maps_remaining == 0 && self.reduces_remaining == 0
    }

    /// End-to-end duration (submission → completion), once complete.
    pub fn duration(&self) -> Option<SimDuration> {
        Some(self.completed_at?.saturating_since(self.submitted_at))
    }

    /// Achieved lead-time: submission → first task start.
    pub fn lead_time(&self) -> Option<SimDuration> {
        Some(self.first_task_at?.saturating_since(self.submitted_at))
    }

    /// Map-phase duration: first task start → last map completion.
    pub fn map_phase(&self) -> Option<SimDuration> {
        Some(self.maps_done_at?.saturating_since(self.first_task_at?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        let mut s = JobSpec::map_only(JobId(1), "test", SimTime::from_secs(5), vec!["f".into()]);
        s.reduce_tasks = 2;
        s
    }

    #[test]
    fn lifecycle_and_timings() {
        let mut j = JobState::new(spec(), SimTime::from_secs(5));
        j.set_map_count(2);
        assert!(!j.is_finished());
        j.first_task_at = Some(SimTime::from_secs(13));
        assert_eq!(j.lead_time().unwrap(), SimDuration::from_secs(8));
        assert!(!j.on_map_done(SimTime::from_secs(20)));
        assert!(j.on_map_done(SimTime::from_secs(22)));
        assert_eq!(j.map_phase().unwrap(), SimDuration::from_secs(9));
        assert!(!j.on_reduce_done());
        assert!(j.on_reduce_done());
        assert!(j.is_finished());
        j.completed_at = Some(SimTime::from_secs(30));
        assert_eq!(j.duration().unwrap(), SimDuration::from_secs(25));
    }

    #[test]
    fn map_only_finishes_without_reduces() {
        let mut j = JobState::new(
            JobSpec::map_only(JobId(1), "m", SimTime::ZERO, vec![]),
            SimTime::ZERO,
        );
        j.set_map_count(1);
        assert!(j.on_map_done(SimTime::from_secs(1)));
        assert!(j.is_finished());
    }

    #[test]
    fn builder_defaults_match_map_only() {
        let a = JobSpec::builder(JobId(1), "x").input("f").build();
        let b = JobSpec::map_only(JobId(1), "x", SimTime::ZERO, vec!["f".into()]);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "non-positive")]
    fn builder_rejects_bad_cpu_factor() {
        let _ = JobSpec::builder(JobId(1), "x").cpu_factor(0.0);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn extra_map_completion_panics() {
        let mut j = JobState::new(spec(), SimTime::ZERO);
        j.set_map_count(1);
        j.on_map_done(SimTime::ZERO);
        j.on_map_done(SimTime::ZERO);
    }
}
