//! Shared DYRS types.

use dyrs_cluster::NodeId;
use dyrs_dfs::{BlockId, JobId};
use std::fmt;

/// Identifies one migration (one block copied into one node's memory).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MigrationId(pub u64);

impl fmt::Display for MigrationId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mig_{}", self.0)
    }
}

/// How a job's references to its migrated blocks are released (§III-C3).
///
/// A job opts in "when the job submitter issues the migration instruction".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EvictionMode {
    /// The job (or a caching framework acting for it) issues an explicit
    /// evict command when it finishes.
    Explicit,
    /// The slave drops the job's reference as soon as the job reads the
    /// block — data is evicted sooner, keeping the footprint low.
    Implicit,
}

/// One job's interest in a migrated block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobRef {
    /// The interested job.
    pub job: JobId,
    /// Its eviction mode.
    pub eviction: EvictionMode,
}

/// One unit of migration work: copy `bytes` of `block` into memory. The
/// block may be wanted by several jobs; all of them land on the slave's
/// reference list when the migration is bound (§III-C3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Migration {
    /// Unique id assigned by the master.
    pub id: MigrationId,
    /// Block to migrate.
    pub block: BlockId,
    /// Block size in bytes.
    pub bytes: u64,
    /// Jobs expecting to read the block.
    pub jobs: Vec<JobRef>,
    /// Nodes holding an on-disk replica the migration could run on.
    pub replicas: Vec<NodeId>,
    /// How many earlier bindings of this block were unbound by the failure
    /// detector (0 for a first attempt). Retry successors get a fresh
    /// [`MigrationId`] but carry the predecessor's count + 1 so the
    /// bounded-retry budget spans the whole chain.
    pub attempt: u32,
    /// Destination buffer tier, kept on the wire because the protocol is
    /// append-only. Migrations always land in memory: the master always
    /// sends 0, and a slave ignores the field, so a bound migration with
    /// any other value still lands in memory.
    pub dest_tier: u8,
}

/// A migration bound to a slave, as delivered by a pull response or by
/// Ignem's immediate binding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundMigration {
    /// The migration.
    pub migration: Migration,
    /// The slave it was bound to.
    pub node: NodeId,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert_eq!(MigrationId(4).to_string(), "mig_4");
    }

    #[test]
    fn eviction_modes_distinct() {
        assert_ne!(EvictionMode::Explicit, EvictionMode::Implicit);
    }

    #[test]
    fn migration_carries_all_jobs() {
        let m = Migration {
            id: MigrationId(0),
            block: BlockId(1),
            bytes: 10,
            jobs: vec![
                JobRef {
                    job: JobId(1),
                    eviction: EvictionMode::Implicit,
                },
                JobRef {
                    job: JobId(2),
                    eviction: EvictionMode::Explicit,
                },
            ],
            replicas: vec![NodeId(0)],
            attempt: 0,
            dest_tier: 0,
        };
        assert_eq!(m.jobs.len(), 2);
    }
}
