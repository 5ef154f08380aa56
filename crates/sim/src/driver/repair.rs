//! Re-replication repair (HDFS behaviour): once a failed server's grace
//! period expires, the NameNode restores the replication factor of every
//! block it hosted by copying from a surviving replica to a fresh node.
//!
//! Repairs are serialized per source disk (like HDFS's throttled
//! `dfs.namenode.replication.max-streams`) and their read traffic
//! contends with task reads, migrations and interference on the fluid
//! disk model — failure recovery is not free, exactly as in production.

use super::Simulation;
use crate::events::{Ev, ResourceKind, StreamMeta};
use dyrs_cluster::NodeId;
use dyrs_dfs::BlockId;

impl Simulation {
    /// Schedule the repair scan for a failed node (called by the
    /// `NodeDown` handler when re-replication is enabled).
    pub(crate) fn schedule_re_replication(&mut self, node: NodeId) {
        if !self.cfg.re_replication {
            return;
        }
        self.queue.schedule(
            self.now + self.cfg.re_replication_delay,
            Ev::ReReplicate(node),
        );
    }

    /// Grace period expired: if the node is still down, enqueue one repair
    /// per block it hosted and start pumping them.
    pub(crate) fn on_re_replicate(&mut self, node: NodeId) {
        if self.cluster.node(node).up {
            return; // came back within the grace period — nothing lost
        }
        let lost = self.namenode.blocks.blocks_on(node);
        for block in lost {
            // The dead node's copy is gone for good.
            self.namenode.blocks.remove_replica(block, node);
            let survivors = self
                .namenode
                .blocks
                .live_replicas(block, |n| self.cluster.node(n).up);
            if survivors.is_empty() {
                continue; // unrecoverable (all replicas down); reads fail over later
            }
            if survivors.len() >= self.cfg.replication {
                continue; // already fully replicated
            }
            self.repair_queue.push_back(block);
        }
        self.pump_repairs();
    }

    /// Start queued repairs wherever a source disk is free (at most one
    /// repair stream per source node).
    pub(crate) fn pump_repairs(&mut self) {
        if self.repair_queue.is_empty() {
            return;
        }
        // Disk replicas per node, the target tie-break. Counts change only
        // at re-replication and repair completion, which both pump after.
        let mut hosted = vec![0usize; self.cluster.len()];
        for b in self.namenode.blocks.iter() {
            for r in &b.replicas {
                hosted[r.index()] += 1;
            }
        }
        let mut requeue = std::collections::VecDeque::new();
        while let Some(block) = self.repair_queue.pop_front() {
            match self.try_start_repair(block, &hosted) {
                RepairStart::Started => {}
                RepairStart::Busy => requeue.push_back(block),
                RepairStart::Unneeded => {}
            }
        }
        self.repair_queue = requeue;
    }

    fn try_start_repair(&mut self, block: BlockId, hosted: &[usize]) -> RepairStart {
        let info = match self.namenode.blocks.get(block) {
            Some(i) => i.clone(),
            None => return RepairStart::Unneeded,
        };
        let live: Vec<NodeId> = info
            .replicas
            .iter()
            .copied()
            .filter(|&n| self.cluster.node(n).up)
            .collect();
        if live.is_empty() || live.len() >= self.cfg.replication {
            return RepairStart::Unneeded;
        }
        // Source: a live holder whose disk has no active repair.
        let source = live
            .iter()
            .copied()
            .find(|&n| !self.repair_active[n.index()]);
        let Some(source) = source else {
            return RepairStart::Busy;
        };
        // Target: live node not holding a replica, fewest disk blocks first
        // (spreads repairs), lowest id tie-break.
        let target = self
            .cluster
            .ids()
            .filter(|&n| self.cluster.node(n).up && !info.replicas.contains(&n))
            .min_by_key(|&n| (hosted[n.index()], n));
        let Some(target) = target else {
            return RepairStart::Unneeded; // no eligible target (tiny cluster)
        };
        self.repair_active[source.index()] = true;
        self.start_stream(
            source,
            ResourceKind::Disk,
            info.size,
            StreamMeta::Repair {
                block,
                source,
                target,
            },
        );
        RepairStart::Started
    }

    /// A repair copy finished: the target now hosts a disk replica.
    pub(crate) fn on_repair_done(&mut self, block: BlockId, source: NodeId, target: NodeId) {
        self.repair_active[source.index()] = false;
        if self.cluster.node(target).up {
            self.namenode.blocks.add_replica(block, target);
            self.repairs_completed += 1;
        } else {
            // target died mid-copy: try again elsewhere
            self.repair_queue.push_back(block);
        }
        self.pump_repairs();
    }
}

enum RepairStart {
    Started,
    Busy,
    Unneeded,
}
