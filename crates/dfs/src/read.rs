//! Read-path replica selection.
//!
//! "Once a block has been migrated, reads will be directed to the
//! in-memory replica whether it is local or remote to the task making the
//! read" (paper §III). Preference order:
//!
//! 1. local in-memory replica,
//! 2. remote in-memory replica,
//! 3. local on-disk replica,
//! 4. remote on-disk replica (least-loaded live replica).
//!
//! A remote *memory* read is still far faster than any disk read on the
//! paper's 10 GbE testbed, which is why migration to a non-local node is
//! worthwhile at all.

use crate::ids::BlockId;
use dyrs_cluster::NodeId;

/// Where a read is served from, relative to the reading task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Medium {
    /// The block is buffered in RAM on the reader's own node.
    LocalMemory,
    /// The block is buffered in RAM on another node (served over the NIC).
    RemoteMemory,
    /// On-disk replica on the reader's own node.
    LocalDisk,
    /// On-disk replica on another node.
    RemoteDisk,
}

impl Medium {
    /// True for the two memory media.
    pub fn is_memory(self) -> bool {
        matches!(self, Medium::LocalMemory | Medium::RemoteMemory)
    }
}

/// The outcome of replica selection: read `block` from `source` via `medium`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadPlan {
    /// Block being read.
    pub block: BlockId,
    /// Node that serves the bytes.
    pub source: NodeId,
    /// Relative placement / storage tier.
    pub medium: Medium,
}

/// Select the serving replica for a read of `block` issued on `reader`.
///
/// * `memory_replicas` — nodes holding an in-memory copy (live ones only).
/// * `disk_replicas` — nodes holding an on-disk copy (live ones only).
/// * `load` — tie-breaking load metric for remote disk replicas (e.g.
///   active disk streams); the minimum wins, with node id as the final
///   deterministic tie-break.
///
/// Returns `None` when no live replica exists anywhere (total failure of
/// all hosting nodes).
///
/// ```
/// use dyrs_cluster::NodeId;
/// use dyrs_dfs::{read::select_replica, BlockId, Medium};
///
/// // the block is on disk at nodes 1 and 2, and DYRS migrated it into
/// // node 5's memory; a task on node 1 still prefers the memory copy
/// let plan = select_replica(
///     BlockId(9), NodeId(1), &[NodeId(5)], &[NodeId(1), NodeId(2)], |_| 0,
/// ).unwrap();
/// assert_eq!(plan.medium, Medium::RemoteMemory);
/// assert_eq!(plan.source, NodeId(5));
/// ```
pub fn select_replica(
    block: BlockId,
    reader: NodeId,
    memory_replicas: &[NodeId],
    disk_replicas: &[NodeId],
    load: impl Fn(NodeId) -> u64,
) -> Option<ReadPlan> {
    if memory_replicas.contains(&reader) {
        return Some(ReadPlan {
            block,
            source: reader,
            medium: Medium::LocalMemory,
        });
    }
    if let Some(&src) = memory_replicas.iter().min_by_key(|&&n| (load(n), n)) {
        return Some(ReadPlan {
            block,
            source: src,
            medium: Medium::RemoteMemory,
        });
    }
    if disk_replicas.contains(&reader) {
        return Some(ReadPlan {
            block,
            source: reader,
            medium: Medium::LocalDisk,
        });
    }
    disk_replicas
        .iter()
        .min_by_key(|&&n| (load(n), n))
        .map(|&src| ReadPlan {
            block,
            source: src,
            medium: Medium::RemoteDisk,
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    const B: BlockId = BlockId(1);

    fn no_load(_: NodeId) -> u64 {
        0
    }

    #[test]
    fn local_memory_wins() {
        let plan =
            select_replica(B, NodeId(3), &[NodeId(5), NodeId(3)], &[NodeId(3)], no_load).unwrap();
        assert_eq!(plan.medium, Medium::LocalMemory);
        assert_eq!(plan.source, NodeId(3));
    }

    #[test]
    fn remote_memory_beats_local_disk() {
        let plan = select_replica(B, NodeId(3), &[NodeId(5)], &[NodeId(3)], no_load).unwrap();
        assert_eq!(plan.medium, Medium::RemoteMemory);
        assert_eq!(plan.source, NodeId(5));
    }

    #[test]
    fn local_disk_beats_remote_disk() {
        let plan = select_replica(B, NodeId(3), &[], &[NodeId(1), NodeId(3)], no_load).unwrap();
        assert_eq!(plan.medium, Medium::LocalDisk);
        assert_eq!(plan.source, NodeId(3));
    }

    #[test]
    fn remote_disk_picks_least_loaded() {
        let load = |n: NodeId| if n == NodeId(1) { 10 } else { 2 };
        let plan = select_replica(B, NodeId(9), &[], &[NodeId(1), NodeId(4)], load).unwrap();
        assert_eq!(plan.medium, Medium::RemoteDisk);
        assert_eq!(plan.source, NodeId(4));
    }

    #[test]
    fn remote_disk_tie_breaks_by_node_id() {
        let plan = select_replica(B, NodeId(9), &[], &[NodeId(4), NodeId(2)], no_load).unwrap();
        assert_eq!(plan.source, NodeId(2));
    }

    #[test]
    fn remote_memory_picks_least_loaded() {
        let load = |n: NodeId| if n == NodeId(5) { 3 } else { 0 };
        let plan = select_replica(B, NodeId(9), &[NodeId(5), NodeId(6)], &[], load).unwrap();
        assert_eq!(plan.source, NodeId(6));
    }

    #[test]
    fn no_replicas_anywhere_is_none() {
        assert!(select_replica(B, NodeId(0), &[], &[], no_load).is_none());
    }

    #[test]
    fn medium_is_memory() {
        assert!(Medium::LocalMemory.is_memory());
        assert!(Medium::RemoteMemory.is_memory());
        assert!(!Medium::LocalDisk.is_memory());
        assert!(!Medium::RemoteDisk.is_memory());
    }
}
