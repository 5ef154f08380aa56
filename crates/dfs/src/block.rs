//! Block metadata and the cluster-wide block map.

use crate::ids::BlockId;
use dyrs_cluster::NodeId;
use std::collections::BTreeMap;

/// Metadata for one block: its size and where its disk replicas live.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockInfo {
    /// The block's id.
    pub id: BlockId,
    /// Size in bytes (the last block of a file may be short).
    pub size: u64,
    /// Nodes holding an on-disk replica. Order is the placement order;
    /// selection logic must not depend on it beyond determinism.
    pub replicas: Vec<NodeId>,
}

/// The NameNode's block → metadata table.
#[derive(Debug, Clone, Default)]
pub struct BlockMap {
    blocks: BTreeMap<BlockId, BlockInfo>,
    next_id: u64,
}

impl BlockMap {
    /// Empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate a new block of `size` bytes replicated on `replicas`.
    pub fn allocate(&mut self, size: u64, replicas: Vec<NodeId>) -> BlockId {
        assert!(!replicas.is_empty(), "block must have at least one replica");
        let id = BlockId(self.next_id);
        self.next_id += 1;
        self.blocks.insert(id, BlockInfo { id, size, replicas });
        id
    }

    /// Look up a block.
    pub fn get(&self, id: BlockId) -> Option<&BlockInfo> {
        self.blocks.get(&id)
    }

    /// Look up a block, panicking on a dangling id (callers hold ids they
    /// obtained from this map; a miss is a logic error).
    pub fn expect(&self, id: BlockId) -> &BlockInfo {
        self.blocks
            .get(&id)
            .unwrap_or_else(|| panic!("BlockMap invariant violated: {id} was never allocated"))
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True if no blocks are allocated.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Record a new replica of `id` on `node` (re-replication repair).
    /// No-op if already present or the block is unknown.
    pub fn add_replica(&mut self, id: BlockId, node: NodeId) {
        if let Some(b) = self.blocks.get_mut(&id) {
            if !b.replicas.contains(&node) {
                b.replicas.push(node);
            }
        }
    }

    /// Remove the replica of `id` hosted on `node` (lost with a dead
    /// server). Returns `true` if a replica was removed.
    pub fn remove_replica(&mut self, id: BlockId, node: NodeId) -> bool {
        match self.blocks.get_mut(&id) {
            Some(b) => {
                let before = b.replicas.len();
                b.replicas.retain(|&n| n != node);
                b.replicas.len() != before
            }
            None => false,
        }
    }

    /// Blocks that list `node` as a replica holder (the repair work list
    /// after that node dies). Sorted for determinism.
    pub fn blocks_on(&self, node: NodeId) -> Vec<BlockId> {
        let mut v: Vec<BlockId> = self
            .blocks
            .values()
            .filter(|b| b.replicas.contains(&node))
            .map(|b| b.id)
            .collect();
        v.sort();
        v
    }

    /// Replica locations of a block that are currently up, according to the
    /// provided predicate.
    pub fn live_replicas(&self, id: BlockId, is_up: impl Fn(NodeId) -> bool) -> Vec<NodeId> {
        self.get(id)
            .map(|b| b.replicas.iter().copied().filter(|&n| is_up(n)).collect())
            .unwrap_or_default()
    }

    /// Iterate over all blocks in ascending [`BlockId`] order.
    pub fn iter(&self) -> impl Iterator<Item = &BlockInfo> {
        self.blocks.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn allocate_assigns_unique_ids() {
        let mut m = BlockMap::new();
        let a = m.allocate(100, vec![n(0)]);
        let b = m.allocate(200, vec![n(1), n(2)]);
        assert_ne!(a, b);
        assert_eq!(m.len(), 2);
        assert_eq!(m.expect(a).size, 100);
        assert_eq!(m.expect(b).replicas, vec![n(1), n(2)]);
    }

    #[test]
    fn live_replicas_filters_down_nodes() {
        let mut m = BlockMap::new();
        let b = m.allocate(1, vec![n(0), n(1), n(2)]);
        let live = m.live_replicas(b, |id| id != n(1));
        assert_eq!(live, vec![n(0), n(2)]);
    }

    #[test]
    fn live_replicas_of_unknown_block_is_empty() {
        let m = BlockMap::new();
        assert!(m.live_replicas(BlockId(99), |_| true).is_empty());
    }

    #[test]
    fn replica_repair_roundtrip() {
        let mut m = BlockMap::new();
        let b = m.allocate(10, vec![n(0), n(1), n(2)]);
        assert!(m.remove_replica(b, n(1)));
        assert!(!m.remove_replica(b, n(1)), "second removal is a no-op");
        assert_eq!(m.expect(b).replicas, vec![n(0), n(2)]);
        m.add_replica(b, n(4));
        m.add_replica(b, n(4)); // idempotent
        assert_eq!(m.expect(b).replicas, vec![n(0), n(2), n(4)]);
        assert!(!m.remove_replica(BlockId(99), n(0)), "unknown block");
    }

    #[test]
    fn blocks_on_lists_hosted_sorted() {
        let mut m = BlockMap::new();
        let b2 = m.allocate(1, vec![n(1), n(2)]);
        let b1 = m.allocate(1, vec![n(1)]);
        let _ = m.allocate(1, vec![n(3)]);
        let mut expect = vec![b1, b2];
        expect.sort();
        assert_eq!(m.blocks_on(n(1)), expect);
        assert!(m.blocks_on(n(6)).is_empty());
    }

    #[test]
    #[should_panic(expected = "never allocated")]
    fn expect_panics_on_miss() {
        BlockMap::new().expect(BlockId(1));
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn zero_replicas_rejected() {
        BlockMap::new().allocate(1, vec![]);
    }
}
