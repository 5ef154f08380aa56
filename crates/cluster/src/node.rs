//! Nodes and clusters.

use dyrs_tiers::TierStackSpec;
use simkit::FluidResource;
use std::fmt;

/// Identifies a node (DataNode / DYRS slave host) within a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Index into per-node vectors.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Static description of one node's hardware.
#[derive(Debug, Clone)]
pub struct NodeSpec {
    /// Sequential disk bandwidth with a single reader, bytes/sec.
    pub disk_bw: f64,
    /// Disk capacity degradation per extra concurrent stream
    /// (`cap(n) = bw / (1 + d·(n−1))` — seek thrashing).
    pub disk_degradation: f64,
    /// RAM available for migrated blocks, bytes (the DYRS hard limit).
    pub mem_capacity: u64,
    /// Memory-bus bandwidth for local in-memory reads, bytes/sec.
    pub membus_bw: f64,
    /// NIC bandwidth for serving remote in-memory reads, bytes/sec.
    pub nic_bw: f64,
    /// Rack the node lives in (HDFS-style topology; the paper's testbed
    /// is a single rack, so the default is rack 0 everywhere).
    pub rack: u32,
    /// Explicit storage hierarchy, fastest tier first. `None` (the
    /// default, and every pre-tier config) means the legacy 2-tier
    /// memory-over-disk stack derived from the fields above.
    pub tiers: Option<TierStackSpec>,
}

impl NodeSpec {
    /// The paper's testbed node (§V-A): ~1 TB HDD at ≈140 MB/s sequential,
    /// 128 GB RAM (we cap the migration buffer well below that), 10 GbE.
    pub fn paper_default() -> Self {
        NodeSpec {
            disk_bw: 140.0 * 1024.0 * 1024.0,
            disk_degradation: 0.02,
            mem_capacity: 96 * crate::GIB,
            membus_bw: 8.0 * 1024.0 * 1024.0 * 1024.0,
            nic_bw: 1.25 * 1024.0 * 1024.0 * 1024.0, // 10 Gbps
            rack: 0,
            tiers: None,
        }
    }

    /// The node's storage hierarchy: the explicit stack when configured,
    /// otherwise the legacy 2-tier memory-over-disk stack synthesized
    /// from the scalar fields (so every pre-tier config keeps its exact
    /// hardware model).
    pub fn tier_stack(&self) -> TierStackSpec {
        match &self.tiers {
            Some(s) => s.clone(),
            None => TierStackSpec::legacy(
                self.mem_capacity,
                self.membus_bw,
                self.disk_bw,
                self.disk_degradation,
            ),
        }
    }
}

impl Default for NodeSpec {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Live state of one node: its fluid resources (disk, memory bus, NIC and
/// one device per middle buffer tier) and whether it is up.
#[derive(Debug)]
pub struct Node {
    /// This node's id.
    pub id: NodeId,
    /// The static spec it was built from.
    pub spec: NodeSpec,
    /// Spinning disk (reads and migrations contend here).
    pub disk: FluidResource,
    /// Memory bus (local in-memory reads).
    pub membus: FluidResource,
    /// NIC (serving remote in-memory reads).
    pub nic: FluidResource,
    /// Middle buffer tiers (NVMe/SSD between memory and the backing
    /// disk): one device resource per tier index `1..`, stored at
    /// `mid_tiers[t - 1]`. Empty on the legacy 2-tier stack, where
    /// memory (tier 0) is the only buffer and is served by `membus`.
    pub mid_tiers: Vec<FluidResource>,
    /// Whether the node (server) is up. A failed server serves nothing.
    pub up: bool,
}

impl Node {
    fn new(id: NodeId, spec: NodeSpec) -> Self {
        let stack = spec.tier_stack();
        let mid_tiers = stack.buffer_tiers()[1..]
            .iter()
            .map(|t| FluidResource::new(t.read_bw, t.degradation))
            .collect();
        Node {
            disk: FluidResource::new(spec.disk_bw, spec.disk_degradation),
            membus: FluidResource::new(spec.membus_bw, 0.0),
            nic: FluidResource::new(spec.nic_bw, 0.0),
            mid_tiers,
            spec,
            id,
            up: true,
        }
    }

    /// The device resource behind middle buffer tier `t` (`1..`).
    pub fn mid_tier(&self, t: u8) -> &FluidResource {
        &self.mid_tiers[t as usize - 1]
    }

    /// Mutably borrow the device resource behind middle buffer tier `t`.
    pub fn mid_tier_mut(&mut self, t: u8) -> &mut FluidResource {
        &mut self.mid_tiers[t as usize - 1]
    }
}

/// Static description of a whole cluster.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// One spec per worker node (the NameNode/master host is not modeled
    /// as a storage node, matching the paper's 1 + 7 layout).
    pub nodes: Vec<NodeSpec>,
}

impl ClusterSpec {
    /// `n` identical nodes of the paper's default hardware.
    pub fn uniform(n: usize) -> Self {
        ClusterSpec {
            nodes: vec![NodeSpec::paper_default(); n],
        }
    }

    /// The paper's 7 worker nodes.
    pub fn paper_default() -> Self {
        Self::uniform(7)
    }

    /// `n` identical nodes spread round-robin over `racks` racks.
    pub fn uniform_racked(n: usize, racks: u32) -> Self {
        assert!(racks > 0, "need at least one rack");
        ClusterSpec {
            nodes: (0..n)
                .map(|i| NodeSpec {
                    rack: i as u32 % racks,
                    ..NodeSpec::paper_default()
                })
                .collect(),
        }
    }

    /// The rack of each node, by index.
    pub fn racks(&self) -> Vec<u32> {
        self.nodes.iter().map(|n| n.rack).collect()
    }

    /// Number of worker nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the spec has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Instantiate live cluster state.
    pub fn build(&self) -> Cluster {
        Cluster {
            nodes: self
                .nodes
                .iter()
                .enumerate()
                .map(|(i, s)| Node::new(NodeId(i as u32), s.clone()))
                .collect(),
        }
    }
}

/// Live cluster state: the per-node fluid resources and memory stores.
#[derive(Debug)]
pub struct Cluster {
    nodes: Vec<Node>,
}

impl Cluster {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the cluster has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Borrow a node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Mutably borrow a node.
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.index()]
    }

    /// Iterate over all nodes.
    pub fn iter(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter()
    }

    /// Iterate mutably over all nodes.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut Node> {
        self.nodes.iter_mut()
    }

    /// All node ids.
    pub fn ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Ids of nodes currently up.
    pub fn up_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.iter().filter(|n| n.up).map(|n| n.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::SimTime;

    #[test]
    fn build_assigns_sequential_ids() {
        let c = ClusterSpec::uniform(7).build();
        assert_eq!(c.len(), 7);
        for (i, n) in c.iter().enumerate() {
            assert_eq!(n.id, NodeId(i as u32));
            assert!(n.up);
        }
    }

    #[test]
    fn paper_default_matches_testbed() {
        let spec = ClusterSpec::paper_default();
        assert_eq!(spec.len(), 7);
        let n = &spec.nodes[0];
        assert!((n.nic_bw - 1.25 * 1024.0 * 1024.0 * 1024.0).abs() < 1.0);
        assert!(n.membus_bw / n.disk_bw > 50.0, "RAM must dwarf disk");
    }

    #[test]
    fn node_resources_are_independent() {
        let mut c = ClusterSpec::uniform(2).build();
        let t = SimTime::ZERO;
        c.node_mut(NodeId(0)).disk.add_stream(t, 1e6, 1.0, 0);
        assert_eq!(c.node(NodeId(0)).disk.active_streams(), 1);
        assert_eq!(c.node(NodeId(1)).disk.active_streams(), 0);
    }

    #[test]
    fn up_ids_filters_failed() {
        let mut c = ClusterSpec::uniform(3).build();
        c.node_mut(NodeId(1)).up = false;
        let up: Vec<NodeId> = c.up_ids().collect();
        assert_eq!(up, vec![NodeId(0), NodeId(2)]);
    }

    #[test]
    fn racked_layout_round_robins() {
        let spec = ClusterSpec::uniform_racked(7, 3);
        assert_eq!(spec.racks(), vec![0, 1, 2, 0, 1, 2, 0]);
        assert_eq!(ClusterSpec::uniform(3).racks(), vec![0, 0, 0]);
    }

    #[test]
    fn default_tier_stack_is_legacy_two_tier() {
        let spec = NodeSpec::paper_default();
        let stack = spec.tier_stack();
        assert_eq!(stack.len(), 2);
        assert_eq!(stack.tiers[0].capacity, spec.mem_capacity);
        assert_eq!(stack.tiers[0].read_bw, spec.membus_bw);
        assert_eq!(stack.disk().read_bw, spec.disk_bw);
        assert_eq!(stack.disk().degradation, spec.disk_degradation);
        let node = ClusterSpec::uniform(1).build();
        assert!(node.node(NodeId(0)).mid_tiers.is_empty());
    }

    #[test]
    fn explicit_stack_builds_middle_tier_resources() {
        let mut spec = ClusterSpec::uniform(1);
        spec.nodes[0].tiers = Some(dyrs_tiers::TierStackSpec::four_tier(
            spec.nodes[0].mem_capacity,
            spec.nodes[0].membus_bw,
            spec.nodes[0].disk_bw,
            spec.nodes[0].disk_degradation,
        ));
        let c = spec.build();
        let n = c.node(NodeId(0));
        assert_eq!(n.mid_tiers.len(), 2, "nvme + ssd");
        assert!(n.mid_tier(1).base_capacity() > n.mid_tier(2).base_capacity());
    }

    #[test]
    fn display_and_index() {
        assert_eq!(NodeId(3).to_string(), "node3");
        assert_eq!(NodeId(3).index(), 3);
    }
}
