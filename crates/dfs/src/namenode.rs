//! NameNode: namespace + block map + the in-memory replica registry that
//! the read path consults.
//!
//! Mirrors the HDFS master's role in the paper (§III-C, §IV): it tracks
//! where every block's disk replicas are and — once DYRS migrates a block
//! — which nodes hold an in-memory copy so that reads can be redirected
//! to it. Node liveness is not kept here: every query that must skip dead
//! nodes takes the caller's `is_up` predicate.

use crate::block::BlockMap;
use crate::ids::{BlockId, FileId};
use crate::namespace::Namespace;
use crate::placement::PlacementPolicy;
use crate::read::{select_replica, ReadPlan};
use dyrs_cluster::NodeId;
use std::collections::BTreeMap;

/// The file system master.
#[derive(Debug)]
pub struct NameNode {
    /// File namespace.
    pub namespace: Namespace,
    /// Block metadata.
    pub blocks: BlockMap,
    placement: PlacementPolicy,
    /// block → nodes holding an in-memory replica.
    memory_registry: BTreeMap<BlockId, Vec<NodeId>>,
}

impl NameNode {
    /// A NameNode for a cluster of `nodes` DataNodes with the given
    /// replication factor.
    pub fn new(nodes: u32, replication: usize, rng: simkit::Rng) -> Self {
        Self::with_placement(PlacementPolicy::new(nodes, replication, rng))
    }

    /// A NameNode with an explicit placement policy (e.g. rack-aware).
    pub fn with_placement(placement: PlacementPolicy) -> Self {
        NameNode {
            namespace: Namespace::new(),
            blocks: BlockMap::new(),
            placement,
            memory_registry: BTreeMap::new(),
        }
    }

    /// Create a file and place its replicas (client write path, simulated
    /// instantaneously at setup time — all evaluation inputs pre-exist).
    pub fn create_file(&mut self, name: impl Into<String>, size: u64, block_size: u64) -> FileId {
        self.namespace.create_file(
            name,
            size,
            block_size,
            &mut self.blocks,
            &mut self.placement,
        )
    }

    /// Register that `node` now holds an in-memory replica of `block`.
    pub fn register_memory_replica(&mut self, block: BlockId, node: NodeId) {
        let entry = self.memory_registry.entry(block).or_default();
        if !entry.contains(&node) {
            entry.push(node);
        }
    }

    /// Remove the in-memory replica record of `block` on `node`.
    pub fn unregister_memory_replica(&mut self, block: BlockId, node: NodeId) {
        if let Some(entry) = self.memory_registry.get_mut(&block) {
            entry.retain(|&n| n != node);
            if entry.is_empty() {
                self.memory_registry.remove(&block);
            }
        }
    }

    /// Drop the whole memory registry (DYRS master restart starts with no
    /// state about which blocks are in memory, §III-C1).
    pub fn clear_memory_registry(&mut self) {
        self.memory_registry.clear();
    }

    /// Nodes holding an in-memory replica of `block` that are up,
    /// according to the provided predicate.
    pub fn live_memory_replicas(
        &self,
        block: BlockId,
        is_up: impl Fn(NodeId) -> bool,
    ) -> Vec<NodeId> {
        self.memory_registry
            .get(&block)
            .map(|nodes| nodes.iter().copied().filter(|&n| is_up(n)).collect())
            .unwrap_or_default()
    }

    /// True if any node that is up has `block` in memory.
    pub fn has_memory_replica(&self, block: BlockId, is_up: impl Fn(NodeId) -> bool) -> bool {
        self.memory_registry
            .get(&block)
            .is_some_and(|nodes| nodes.iter().any(|&n| is_up(n)))
    }

    /// Total number of (block, node) in-memory replica records.
    pub fn memory_replica_count(&self) -> usize {
        self.memory_registry.values().map(|v| v.len()).sum()
    }

    /// Plan a read of `block` issued on `reader` from the replicas on
    /// nodes that are up: memory before disk, local before remote,
    /// least-loaded remote disk replica.
    pub fn plan_read(
        &self,
        block: BlockId,
        reader: NodeId,
        is_up: impl Fn(NodeId) -> bool,
        load: impl Fn(NodeId) -> u64,
    ) -> Option<ReadPlan> {
        let mem = self.live_memory_replicas(block, &is_up);
        let disk = self.blocks.live_replicas(block, &is_up);
        select_replica(block, reader, &mem, &disk, load)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::read::Medium;
    use simkit::Rng;

    fn nn() -> NameNode {
        NameNode::new(7, 3, Rng::new(1))
    }

    fn all_up(_: NodeId) -> bool {
        true
    }

    #[test]
    fn memory_registry_lifecycle() {
        let mut nn = nn();
        let f = nn.create_file("a", 100, 100);
        let b = nn.namespace.get(f).unwrap().blocks[0];
        assert!(!nn.has_memory_replica(b, all_up));
        nn.register_memory_replica(b, NodeId(2));
        nn.register_memory_replica(b, NodeId(2)); // idempotent
        assert_eq!(nn.live_memory_replicas(b, all_up), vec![NodeId(2)]);
        assert_eq!(nn.memory_replica_count(), 1);
        nn.unregister_memory_replica(b, NodeId(2));
        assert!(!nn.has_memory_replica(b, all_up));
    }

    #[test]
    fn dead_node_memory_replicas_invisible() {
        let mut nn = nn();
        let f = nn.create_file("a", 100, 100);
        let b = nn.namespace.get(f).unwrap().blocks[0];
        nn.register_memory_replica(b, NodeId(2));
        let up = |n: NodeId| n != NodeId(2);
        assert!(nn.live_memory_replicas(b, up).is_empty());
        assert!(!nn.has_memory_replica(b, up));
    }

    #[test]
    fn plan_read_prefers_memory_and_fails_over() {
        let mut nn = nn();
        let f = nn.create_file("a", 100, 100);
        let b = nn.namespace.get(f).unwrap().blocks[0];
        let replicas = nn.blocks.expect(b).replicas.clone();
        let reader = replicas[0];

        // no memory: local disk
        let p = nn.plan_read(b, reader, all_up, |_| 0).unwrap();
        assert_eq!(p.medium, Medium::LocalDisk);

        // memory on another node: remote memory
        let other = replicas[1];
        nn.register_memory_replica(b, other);
        let p = nn.plan_read(b, reader, all_up, |_| 0).unwrap();
        assert_eq!(p.medium, Medium::RemoteMemory);
        assert_eq!(p.source, other);

        // all replica hosts dead: read fails
        let up = |n: NodeId| !replicas.contains(&n);
        assert!(nn.plan_read(b, reader, up, |_| 0).is_none());
    }

    #[test]
    fn master_restart_clears_registry() {
        let mut nn = nn();
        let f = nn.create_file("a", 100, 100);
        let b = nn.namespace.get(f).unwrap().blocks[0];
        nn.register_memory_replica(b, NodeId(3));
        nn.clear_memory_registry();
        assert_eq!(nn.memory_replica_count(), 0);
        // reads still work from disk — DYRS failures degrade, never break
        let p = nn.plan_read(b, NodeId(6), all_up, |_| 0).unwrap();
        assert!(!p.medium.is_memory());
    }
}
