//! Migration lifecycle spans and Algorithm 1 decision provenance.
//!
//! A migration's life is a span of state transitions
//! `pending → targeted → bound(node) → started → finished | aborted |
//! evicted`. Each transition is one [`SpanEvent`]: a flat, self-contained
//! record (migration id, block, bytes, node, cause) so a single JSONL line
//! can be understood without joining against other tables.

use simkit::SimTime;

/// One state in a migration's lifecycle.
///
/// The non-terminal states mirror the paper's pipeline: the master queues a
/// request (`Pending`, §III-A), Algorithm 1 picks a preferred source
/// replica (`Targeted`, §III-A2), binding is delayed until that node's
/// heartbeat pull (`Bound`, §III-A1), and the slave starts streaming when
/// disk bandwidth and memory admit it (`Started`). Every migration ends in
/// exactly one terminal state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanState {
    /// Queued at the master, not yet assigned a preferred source node.
    Pending,
    /// Algorithm 1 chose (or re-chose) a preferred source node.
    Targeted,
    /// Handed to a slave on its heartbeat pull (delayed binding).
    Bound,
    /// The slave began streaming the block disk→memory.
    Started,
    /// Terminal: the block landed in memory.
    Finished,
    /// Terminal: cancelled before the block landed (first read beat the
    /// migration, job eviction, restart, discard at the slave, ...).
    Aborted,
    /// Terminal: the block landed but was evicted in the same instant to
    /// relieve memory pressure (never served a read from memory).
    Evicted,
}

impl SpanState {
    /// Every state, in declaration order: `state as usize` indexes it.
    #[cfg(any(feature = "enabled", test))]
    pub(crate) const ALL: [SpanState; 7] = [
        SpanState::Pending,
        SpanState::Targeted,
        SpanState::Bound,
        SpanState::Started,
        SpanState::Finished,
        SpanState::Aborted,
        SpanState::Evicted,
    ];

    /// Whether this state ends the span.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            SpanState::Finished | SpanState::Aborted | SpanState::Evicted
        )
    }

    /// Stable lowercase name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            SpanState::Pending => "pending",
            SpanState::Targeted => "targeted",
            SpanState::Bound => "bound",
            SpanState::Started => "started",
            SpanState::Finished => "finished",
            SpanState::Aborted => "aborted",
            SpanState::Evicted => "evicted",
        }
    }
}

/// Transition causes. Static strings so recording never allocates; the
/// catalog is documented in `docs/OBSERVABILITY.md`.
pub mod cause {
    /// Job submission asked the master to migrate this block (§III-A).
    pub const REQUESTED: &str = "requested";
    /// Algorithm 1 retarget pass picked a preferred source node.
    pub const RETARGET: &str = "retarget";
    /// Ignem mode bound immediately at request time, skipping delayed
    /// binding (the paper's strawman baseline).
    pub const IGNEM_IMMEDIATE: &str = "ignem-immediate";
    /// No live replica holds the block, so the request was dropped.
    pub const NO_LIVE_REPLICA: &str = "no-live-replica";
    /// The targeted node's heartbeat pull bound the migration (§III-A1).
    pub const HEARTBEAT_PULL: &str = "heartbeat-pull";
    /// Disk bandwidth and memory admitted the stream.
    pub const ADMITTED: &str = "admitted";
    /// The stream completed and the block is served from memory.
    pub const COMPLETED: &str = "completed";
    /// A task read the block from disk before migration finished, so the
    /// copy became useless (§III-C3 implicit eviction, pre-completion).
    pub const MISSED_READ: &str = "missed-read";
    /// Every referencing job finished or was evicted (§III-C3).
    pub const JOB_EVICTED: &str = "job-evicted";
    /// Memory pressure scavenged the queued entry before it started.
    pub const SCAVENGED: &str = "scavenged";
    /// By the time the slave dequeued the entry no live job referenced it.
    pub const UNREFERENCED: &str = "unreferenced";
    /// The block was already resident in this slave's memory.
    pub const ALREADY_BUFFERED: &str = "already-buffered";
    /// Memory pressure evicted the block in the instant it landed.
    pub const PRESSURE: &str = "pressure";
    /// The master restarted and dropped its soft state (§III-C).
    pub const MASTER_RESTART: &str = "master-restart";
    /// The slave restarted (or its node died) and dropped its queue.
    pub const SLAVE_RESTART: &str = "slave-restart";
    /// A successor migration re-queued after its predecessor was unbound
    /// from a suspect/stuck node (bounded retry, carries attempt count).
    pub const RETRY: &str = "retry";
    /// The failure detector suspected the bound node (missed heartbeat
    /// deadline) and unbound the not-yet-started migration.
    pub const NODE_SUSPECT: &str = "node-suspect";
    /// The bound migration exceeded its progress deadline without
    /// finishing (gray failure: stream wedged or node crawling).
    pub const STUCK_STREAM: &str = "stuck-stream";
    /// Terminal: the bounded-retry budget ran out; the master gives up on
    /// this block rather than retrying forever.
    pub const RETRIES_EXHAUSTED: &str = "retries-exhausted";
    /// The bound node started draining; the not-yet-started migration was
    /// revoked so a surviving replica can cover it (no strike — drains
    /// are intentional).
    pub const NODE_DRAINED: &str = "node-drained";
    /// A successor migration re-queued at its original admission position
    /// after its predecessor was revoked from a draining node.
    pub const DRAIN_RETARGET: &str = "drain-retarget";
    /// Terminal: the run ended with the span still open (work cut short by
    /// the last job completing or the horizon).
    pub const RUN_END: &str = "run-end";
    /// A pressure eviction demoted the block copy one tier down the
    /// storage stack instead of dropping it (a lower tier had room).
    pub const EVICT_DEMOTE: &str = "evict-demote";
    /// A pressure eviction dropped the block copy outright: no tier below
    /// had room (or none exists — the legacy 2-tier stack).
    pub const EVICT_DROP: &str = "evict-drop";
}

/// One lifecycle transition of one migration.
#[derive(Debug, Clone)]
pub struct SpanEvent {
    /// Simulated time of the transition.
    pub at: SimTime,
    /// Migration id (`dyrs::MigrationId.0`).
    pub migration: u64,
    /// Block being migrated (`BlockId.0`).
    pub block: u64,
    /// Block size in bytes.
    pub bytes: u64,
    /// New lifecycle state.
    pub state: SpanState,
    /// Node involved, when one is (target / bound / executing node).
    pub node: Option<u32>,
    /// Why the transition happened; one of the [`cause`] constants.
    pub cause: &'static str,
    /// Requesting job, when known (set on the `Pending` transition).
    pub job: Option<u64>,
}

/// Estimated finish time for one candidate replica node considered by
/// Algorithm 1 (`finish[n] = spb[n]·queued_bytes[n] + spb[n]·bytes`).
#[derive(Debug, Clone)]
pub struct CandidateScore {
    /// Candidate source node.
    pub node: u32,
    /// Placement rank of the replica on this node (tie-break key).
    pub rank: u32,
    /// Estimated finish time in seconds if this node is chosen.
    pub est_finish_secs: f64,
}

/// One migration's scoring inside one Algorithm 1 retarget pass.
///
/// `winner` is the candidate with the minimum `(est_finish_secs, rank)`;
/// `None` means no live replica was available. A placement is thus fully
/// explainable from this record alone: the winner's score is ≤ every other
/// candidate's, with rank breaking exact ties.
#[derive(Debug, Clone)]
pub struct ProvenanceRecord {
    /// Simulated time of the retarget pass.
    pub at: SimTime,
    /// Index of the retarget pass (0-based, monotone over the run).
    pub pass: u64,
    /// Migration being (re)targeted.
    pub migration: u64,
    /// Block being migrated.
    pub block: u64,
    /// Block size in bytes.
    pub bytes: u64,
    /// All live candidate replicas with their scores, in replica order.
    pub candidates: Vec<CandidateScore>,
    /// The chosen node, if any candidate was live.
    pub winner: Option<u32>,
    /// How many pending entries the pass containing this record rescored
    /// (stamped by the recorder, identical across one pass's records).
    pub rescored: u64,
    /// How many pending entries the pass skipped as provably unchanged
    /// (always 0 for the reference full-rescan engine).
    pub skipped: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminal_states() {
        assert!(!SpanState::Pending.is_terminal());
        assert!(!SpanState::Targeted.is_terminal());
        assert!(!SpanState::Bound.is_terminal());
        assert!(!SpanState::Started.is_terminal());
        assert!(SpanState::Finished.is_terminal());
        assert!(SpanState::Aborted.is_terminal());
        assert!(SpanState::Evicted.is_terminal());
    }

    #[test]
    fn names_are_lowercase_and_distinct() {
        let all = SpanState::ALL;
        assert!(all.iter().enumerate().all(|(i, &s)| s as usize == i));
        let names: std::collections::BTreeSet<&str> = all.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), all.len());
        assert!(names.iter().all(|n| *n == n.to_lowercase()));
    }
}
