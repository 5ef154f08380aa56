//! Tasks: the unit of scheduled work.

use dyrs_cluster::NodeId;
use dyrs_dfs::{BlockId, JobId, Medium};
use simkit::SimTime;
use std::fmt;

/// Identifies one task across the whole simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub u64);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task_{}", self.0)
    }
}

/// Lifecycle phase of a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskPhase {
    /// Waiting for a slot.
    Ready,
    /// Reading its input block (maps only).
    Reading,
    /// Computing (map) or fetching+merging+computing (reduce).
    Computing,
    /// Finished.
    Done,
}

/// One task's mutable state.
#[derive(Debug, Clone)]
pub struct TaskState {
    /// Task id.
    pub id: TaskId,
    /// Owning job.
    pub job: JobId,
    /// Input block (`None` for reduce tasks).
    pub block: Option<BlockId>,
    /// Input bytes (block size for maps, shuffle share for reduces).
    pub bytes: u64,
    /// Current phase.
    pub phase: TaskPhase,
    /// Node the task was placed on (once scheduled).
    pub node: Option<NodeId>,
    /// Where its input read was served from (maps, once reading).
    pub read_medium: Option<Medium>,
    /// When the task became ready.
    pub ready_at: SimTime,
    /// When it got a slot and started.
    pub started_at: Option<SimTime>,
    /// When its input read finished.
    pub read_done_at: Option<SimTime>,
    /// When it finished completely.
    pub done_at: Option<SimTime>,
}

impl TaskState {
    /// A fresh map task over `block`.
    pub fn map(id: TaskId, job: JobId, block: BlockId, bytes: u64, ready_at: SimTime) -> Self {
        TaskState {
            id,
            job,
            block: Some(block),
            bytes,
            phase: TaskPhase::Ready,
            node: None,
            read_medium: None,
            ready_at,
            started_at: None,
            read_done_at: None,
            done_at: None,
        }
    }

    /// A fresh reduce task over `bytes` of shuffle input.
    pub fn reduce(id: TaskId, job: JobId, bytes: u64, ready_at: SimTime) -> Self {
        TaskState {
            id,
            job,
            block: None,
            bytes,
            phase: TaskPhase::Ready,
            node: None,
            read_medium: None,
            ready_at,
            started_at: None,
            read_done_at: None,
            done_at: None,
        }
    }

    /// True for map tasks.
    pub fn is_map(&self) -> bool {
        self.block.is_some()
    }

    /// Wall-clock duration from start to completion (once done).
    pub fn duration(&self) -> Option<simkit::SimDuration> {
        Some(self.done_at?.saturating_since(self.started_at?))
    }

    /// Time spent reading input (maps, once read finished).
    pub fn read_duration(&self) -> Option<simkit::SimDuration> {
        Some(self.read_done_at?.saturating_since(self.started_at?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_task_lifecycle_timings() {
        let mut t = TaskState::map(TaskId(1), JobId(1), BlockId(9), 256, SimTime::from_secs(1));
        assert!(t.is_map());
        assert_eq!(t.duration(), None);
        t.started_at = Some(SimTime::from_secs(2));
        t.read_done_at = Some(SimTime::from_secs(5));
        t.done_at = Some(SimTime::from_secs(7));
        assert_eq!(t.duration().unwrap().as_micros(), 5_000_000);
        assert_eq!(t.read_duration().unwrap().as_micros(), 3_000_000);
    }

    #[test]
    fn reduce_task_has_no_block() {
        let t = TaskState::reduce(TaskId(2), JobId(1), 100, SimTime::ZERO);
        assert!(!t.is_map());
        assert_eq!(t.block, None);
    }

    #[test]
    fn display() {
        assert_eq!(TaskId(3).to_string(), "task_3");
    }
}
