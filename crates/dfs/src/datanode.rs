//! DataNode state.
//!
//! A DataNode hosts on-disk block replicas and, when DYRS has migrated a
//! block, an in-memory buffered copy. The actual byte movement is simulated
//! on the owning node's fluid resources by `dyrs-sim`; this struct tracks
//! *which* blocks are where plus serving statistics used by Figure 8
//! (reads per DataNode).

use crate::ids::BlockId;
use dyrs_cluster::NodeId;
use std::collections::BTreeSet;

/// One DataNode's block inventory and serving counters.
#[derive(Debug, Clone)]
pub struct DataNode {
    /// The node this DataNode runs on.
    pub node: NodeId,
    disk_blocks: BTreeSet<BlockId>,
    memory_blocks: BTreeSet<BlockId>,
    /// Reads served from disk (count).
    pub disk_reads: u64,
    /// Reads served from memory (count).
    pub memory_reads: u64,
    /// Bytes served from disk.
    pub disk_bytes: u64,
    /// Bytes served from memory.
    pub memory_bytes: u64,
}

impl DataNode {
    /// Empty DataNode on `node`.
    pub fn new(node: NodeId) -> Self {
        DataNode {
            node,
            disk_blocks: BTreeSet::new(),
            memory_blocks: BTreeSet::new(),
            disk_reads: 0,
            memory_reads: 0,
            disk_bytes: 0,
            memory_bytes: 0,
        }
    }

    /// Record that this node holds an on-disk replica of `block`.
    pub fn add_disk_replica(&mut self, block: BlockId) {
        self.disk_blocks.insert(block);
    }

    /// True if an on-disk replica of `block` lives here.
    pub fn has_disk_replica(&self, block: BlockId) -> bool {
        self.disk_blocks.contains(&block)
    }

    /// Mark `block` as buffered in this node's memory (migration complete).
    /// Returns `false` if it was already buffered.
    pub fn add_memory_replica(&mut self, block: BlockId) -> bool {
        self.memory_blocks.insert(block)
    }

    /// True if `block` is buffered in memory here.
    pub fn has_memory_replica(&self, block: BlockId) -> bool {
        self.memory_blocks.contains(&block)
    }

    /// Evict `block` from memory. Returns `true` if it was present.
    pub fn drop_memory_replica(&mut self, block: BlockId) -> bool {
        self.memory_blocks.remove(&block)
    }

    /// Drop all memory replicas (slave process restart, §III-C2) and return
    /// the ids that were buffered so the caller can release accounting.
    pub fn clear_memory(&mut self) -> Vec<BlockId> {
        // BTreeSet: already in ascending BlockId order.
        std::mem::take(&mut self.memory_blocks)
            .into_iter()
            .collect()
    }

    /// Number of blocks currently buffered in memory.
    pub fn memory_block_count(&self) -> usize {
        self.memory_blocks.len()
    }

    /// Number of on-disk replicas hosted.
    pub fn disk_block_count(&self) -> usize {
        self.disk_blocks.len()
    }

    /// Account one read served from disk.
    pub fn record_disk_read(&mut self, bytes: u64) {
        self.disk_reads += 1;
        self.disk_bytes += bytes;
    }

    /// Account one read served from memory.
    pub fn record_memory_read(&mut self, bytes: u64) {
        self.memory_reads += 1;
        self.memory_bytes += bytes;
    }

    /// Total reads served by this DataNode.
    pub fn total_reads(&self) -> u64 {
        self.disk_reads + self.memory_reads
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replica_lifecycle() {
        let mut d = DataNode::new(NodeId(0));
        d.add_disk_replica(BlockId(1));
        assert!(d.has_disk_replica(BlockId(1)));
        assert!(!d.has_memory_replica(BlockId(1)));
        assert!(d.add_memory_replica(BlockId(1)));
        assert!(
            !d.add_memory_replica(BlockId(1)),
            "double add reports false"
        );
        assert!(d.has_memory_replica(BlockId(1)));
        assert!(d.drop_memory_replica(BlockId(1)));
        assert!(!d.drop_memory_replica(BlockId(1)));
    }

    #[test]
    fn clear_memory_returns_sorted_ids() {
        let mut d = DataNode::new(NodeId(0));
        for i in [5u64, 1, 3] {
            d.add_memory_replica(BlockId(i));
        }
        let cleared = d.clear_memory();
        assert_eq!(cleared, vec![BlockId(1), BlockId(3), BlockId(5)]);
        assert_eq!(d.memory_block_count(), 0);
    }

    #[test]
    fn read_counters() {
        let mut d = DataNode::new(NodeId(2));
        d.record_disk_read(100);
        d.record_memory_read(50);
        d.record_memory_read(25);
        assert_eq!(d.disk_reads, 1);
        assert_eq!(d.memory_reads, 2);
        assert_eq!(d.disk_bytes, 100);
        assert_eq!(d.memory_bytes, 75);
        assert_eq!(d.total_reads(), 3);
    }
}
