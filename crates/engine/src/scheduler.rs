//! Slot-based task scheduling with locality preference.
//!
//! Models the YARN side of the paper's testbed: each node offers a fixed
//! number of map and reduce containers; ready tasks queue FIFO and are
//! placed with locality preference — a map task would rather run where a
//! (memory, then disk) replica of its input lives, like HDFS/YARN delay
//! scheduling achieves in practice.
//!
//! Queueing for busy slots is one of the two lead-time sources (§II-C1),
//! so the pool exposes exactly when slots free up; the simulator re-runs
//! assignment at those instants.

use dyrs_cluster::NodeId;

/// Which kind of container a task needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotKind {
    /// Map container.
    Map,
    /// Reduce container.
    Reduce,
}

/// Free-slot accounting for the whole cluster.
///
/// ```
/// use dyrs_cluster::NodeId;
/// use dyrs_engine::scheduler::{SlotKind, SlotPool};
///
/// let mut pool = SlotPool::new(2, 1, 1); // 2 nodes, 1 map slot each
/// // locality preference wins while the preferred node has room …
/// assert_eq!(pool.acquire(SlotKind::Map, &[NodeId(1)], |_| true), Some(NodeId(1)));
/// // … then the task falls through to whoever is free
/// assert_eq!(pool.acquire(SlotKind::Map, &[NodeId(1)], |_| true), Some(NodeId(0)));
/// // cluster full → the task keeps queueing (lead-time for DYRS!)
/// assert_eq!(pool.acquire(SlotKind::Map, &[], |_| true), None);
/// pool.release(NodeId(1), SlotKind::Map);
/// assert!(pool.acquire(SlotKind::Map, &[], |_| true).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct SlotPool {
    map_free: Vec<usize>,
    reduce_free: Vec<usize>,
    map_capacity: usize,
    reduce_capacity: usize,
}

impl SlotPool {
    /// A pool over `nodes` nodes with the given per-node capacities.
    pub fn new(nodes: usize, map_per_node: usize, reduce_per_node: usize) -> Self {
        SlotPool {
            map_free: vec![map_per_node; nodes],
            reduce_free: vec![reduce_per_node; nodes],
            map_capacity: map_per_node,
            reduce_capacity: reduce_per_node,
        }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.map_free.len()
    }

    /// Free slots of `kind` on `node`.
    pub fn free(&self, node: NodeId, kind: SlotKind) -> usize {
        match kind {
            SlotKind::Map => self.map_free[node.index()],
            SlotKind::Reduce => self.reduce_free[node.index()],
        }
    }

    /// Total free slots of `kind` across live nodes (`alive` predicate).
    pub fn total_free(&self, kind: SlotKind, alive: impl Fn(NodeId) -> bool) -> usize {
        (0..self.nodes() as u32)
            .map(NodeId)
            .filter(|&n| alive(n))
            .map(|n| self.free(n, kind))
            .sum()
    }

    /// Choose a node for a task and acquire the slot.
    ///
    /// Preference: any live node in `preferred` with a free slot (first
    /// match wins — callers order `preferred` as memory-replica holders
    /// then disk-replica holders); otherwise the live node with the most
    /// free slots (load balance), lowest id on ties. Returns `None` when
    /// the cluster is full — the task keeps queueing (lead-time!).
    pub fn acquire(
        &mut self,
        kind: SlotKind,
        preferred: &[NodeId],
        alive: impl Fn(NodeId) -> bool,
    ) -> Option<NodeId> {
        for &p in preferred {
            if p.index() < self.nodes() && alive(p) && self.free(p, kind) > 0 {
                self.take(p, kind);
                return Some(p);
            }
        }
        let best = (0..self.nodes() as u32)
            .map(NodeId)
            .filter(|&n| alive(n) && self.free(n, kind) > 0)
            .max_by_key(|&n| (self.free(n, kind), std::cmp::Reverse(n)))?;
        self.take(best, kind);
        Some(best)
    }

    fn take(&mut self, node: NodeId, kind: SlotKind) {
        match kind {
            SlotKind::Map => self.map_free[node.index()] -= 1,
            SlotKind::Reduce => self.reduce_free[node.index()] -= 1,
        }
    }

    /// Release a slot after task completion.
    pub fn release(&mut self, node: NodeId, kind: SlotKind) {
        match kind {
            SlotKind::Map => {
                assert!(
                    self.map_free[node.index()] < self.map_capacity,
                    "map slot over-release on {node}"
                );
                self.map_free[node.index()] += 1;
            }
            SlotKind::Reduce => {
                assert!(
                    self.reduce_free[node.index()] < self.reduce_capacity,
                    "reduce slot over-release on {node}"
                );
                self.reduce_free[node.index()] += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }
    fn up(_: NodeId) -> bool {
        true
    }

    #[test]
    fn preferred_node_wins_when_free() {
        let mut p = SlotPool::new(3, 2, 1);
        let got = p.acquire(SlotKind::Map, &[n(2)], up).unwrap();
        assert_eq!(got, n(2));
        assert_eq!(p.free(n(2), SlotKind::Map), 1);
    }

    #[test]
    fn preference_order_respected() {
        let mut p = SlotPool::new(3, 1, 1);
        // fill node 1
        assert_eq!(p.acquire(SlotKind::Map, &[n(1)], up), Some(n(1)));
        // now prefer 1 then 2: falls through to 2
        assert_eq!(p.acquire(SlotKind::Map, &[n(1), n(2)], up), Some(n(2)));
    }

    #[test]
    fn fallback_balances_by_most_free() {
        let mut p = SlotPool::new(2, 2, 1);
        assert_eq!(p.acquire(SlotKind::Map, &[], up), Some(n(0))); // ties → lowest id
        assert_eq!(p.acquire(SlotKind::Map, &[], up), Some(n(1))); // node 1 now freer
        assert_eq!(p.acquire(SlotKind::Map, &[], up), Some(n(0)));
        assert_eq!(p.acquire(SlotKind::Map, &[], up), Some(n(1)));
        assert_eq!(p.acquire(SlotKind::Map, &[], up), None, "cluster full");
    }

    #[test]
    fn release_returns_capacity() {
        let mut p = SlotPool::new(1, 1, 1);
        let got = p.acquire(SlotKind::Map, &[], up).unwrap();
        assert_eq!(p.acquire(SlotKind::Map, &[], up), None);
        p.release(got, SlotKind::Map);
        assert!(p.acquire(SlotKind::Map, &[], up).is_some());
    }

    #[test]
    fn dead_nodes_never_chosen() {
        let mut p = SlotPool::new(2, 1, 1);
        let alive = |x: NodeId| x != n(0);
        assert_eq!(p.acquire(SlotKind::Map, &[n(0)], alive), Some(n(1)));
        assert_eq!(p.acquire(SlotKind::Map, &[], alive), None);
    }

    #[test]
    fn map_and_reduce_slots_independent() {
        let mut p = SlotPool::new(1, 1, 1);
        assert!(p.acquire(SlotKind::Map, &[], up).is_some());
        assert!(p.acquire(SlotKind::Reduce, &[], up).is_some());
        assert_eq!(p.acquire(SlotKind::Map, &[], up), None);
        assert_eq!(p.acquire(SlotKind::Reduce, &[], up), None);
    }

    #[test]
    fn total_free_counts_live_only() {
        let p = SlotPool::new(3, 2, 1);
        assert_eq!(p.total_free(SlotKind::Map, up), 6);
        assert_eq!(p.total_free(SlotKind::Map, |x| x != n(1)), 4);
    }

    #[test]
    #[should_panic(expected = "over-release")]
    fn over_release_panics() {
        let mut p = SlotPool::new(1, 1, 1);
        p.release(n(0), SlotKind::Map);
    }
}
