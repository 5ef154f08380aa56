//! Property-based tests for the DFS substrate invariants.

use dyrs_cluster::NodeId;
use dyrs_dfs::{BlockMap, NameNode, Namespace, PlacementPolicy};
use proptest::prelude::*;
use simkit::Rng;

proptest! {
    /// File creation always covers the byte range exactly: block sizes
    /// sum to the file size and only the last block may be short.
    #[test]
    fn file_blocks_cover_exactly(
        size in 0u64..10_000_000,
        block in 1u64..1_000_000,
        seed in any::<u64>(),
    ) {
        let mut ns = Namespace::new();
        let mut bm = BlockMap::new();
        let mut pl = PlacementPolicy::new(7, 3, Rng::new(seed));
        let id = ns.create_file("f", size, block, &mut bm, &mut pl);
        let meta = ns.get(id).expect("created");
        let sizes: Vec<u64> = meta.blocks.iter().map(|&b| bm.expect(b).size).collect();
        prop_assert_eq!(sizes.iter().sum::<u64>(), size);
        for (i, &s) in sizes.iter().enumerate() {
            if i + 1 < sizes.len() {
                prop_assert_eq!(s, block, "only the last block may be short");
            } else {
                prop_assert!(s <= block);
            }
        }
        // expected count: ceil(size/block), min 1
        let expect = if size == 0 { 1 } else { size.div_ceil(block) };
        prop_assert_eq!(sizes.len() as u64, expect);
    }

    /// Placement always yields `replication` distinct, in-range nodes.
    #[test]
    fn placement_invariants(
        nodes in 1u32..20,
        replication_seed in any::<u64>(),
        count in 1usize..200,
    ) {
        let mut rng = Rng::new(replication_seed);
        let replication = 1 + (rng.below(nodes as u64) as usize);
        let mut p = PlacementPolicy::new(nodes, replication, rng);
        for _ in 0..count {
            let r = p.place();
            prop_assert_eq!(r.len(), replication);
            let mut s: Vec<NodeId> = r.clone();
            s.sort();
            s.dedup();
            prop_assert_eq!(s.len(), replication, "replicas must be distinct");
            prop_assert!(r.iter().all(|n| n.0 < nodes));
        }
        let placed: u64 = p.placement_counts().iter().sum();
        prop_assert_eq!(placed, (count * replication) as u64);
    }

    /// The NameNode read plan never selects a dead node and always
    /// prefers memory over disk and local over remote.
    #[test]
    fn read_plan_invariants(
        seed in any::<u64>(),
        reader in 0u32..7,
        dead_mask in 0u8..0b111_1111,
        mem_mask in 0u8..0b111_1111,
    ) {
        let mut nn = NameNode::new(7, 3, Rng::new(seed));
        let f = nn.create_file("f", 100, 100);
        let block = nn.namespace.get(f).expect("created").blocks[0];
        let replicas = nn.blocks.expect(block).replicas.clone();
        for i in 0..7u32 {
            if mem_mask & (1 << i) != 0 {
                nn.register_memory_replica(block, NodeId(i));
            }
        }
        let reader = NodeId(reader);
        let live = |n: NodeId| dead_mask & (1 << n.0) == 0;
        let plan = nn.plan_read(block, reader, live, |_| 0);
        let live_mem: Vec<NodeId> = (0..7u32)
            .map(NodeId)
            .filter(|&n| live(n) && mem_mask & (1 << n.0) != 0)
            .collect();
        let live_disk: Vec<NodeId> =
            replicas.iter().copied().filter(|&n| live(n)).collect();
        match plan {
            None => prop_assert!(
                live_mem.is_empty() && live_disk.is_empty(),
                "plan must exist when any live replica exists"
            ),
            Some(p) => {
                prop_assert!(live(p.source), "dead node selected");
                use dyrs_dfs::Medium::*;
                match p.medium {
                    LocalMemory => {
                        prop_assert_eq!(p.source, reader);
                        prop_assert!(live_mem.contains(&reader));
                    }
                    RemoteMemory => {
                        prop_assert!(live_mem.contains(&p.source));
                        prop_assert!(!live_mem.contains(&reader), "local memory preferred");
                    }
                    LocalDisk => {
                        prop_assert_eq!(p.source, reader);
                        prop_assert!(live_mem.is_empty(), "memory preferred over disk");
                    }
                    RemoteDisk => {
                        prop_assert!(live_disk.contains(&p.source));
                        prop_assert!(live_mem.is_empty());
                        prop_assert!(!live_disk.contains(&reader), "local disk preferred");
                    }
                }
            }
        }
    }

    /// Memory-registry bookkeeping: registrations minus unregistrations
    /// equals the registry count, and a registry clear (master restart)
    /// empties it.
    #[test]
    fn memory_registry_consistent(
        ops in proptest::collection::vec((0u64..20, 0u32..7, prop::bool::ANY), 1..200),
    ) {
        let mut nn = NameNode::new(7, 3, Rng::new(1));
        let f = nn.create_file("f", 20 * 10, 10);
        let blocks = nn.namespace.get(f).expect("created").blocks.clone();
        let mut model: std::collections::HashSet<(u64, u32)> = Default::default();
        for (bi, node, add) in ops {
            let block = blocks[bi as usize % blocks.len()];
            if add {
                nn.register_memory_replica(block, NodeId(node));
                model.insert((block.0, node));
            } else {
                nn.unregister_memory_replica(block, NodeId(node));
                model.remove(&(block.0, node));
            }
            prop_assert_eq!(nn.memory_replica_count(), model.len());
        }
        nn.clear_memory_registry();
        prop_assert_eq!(nn.memory_replica_count(), 0);
    }
}
