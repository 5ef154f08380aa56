//! Replica placement.
//!
//! HDFS places replicas pseudo-randomly across the cluster (rack awareness
//! is irrelevant on the paper's single-rack 8-node testbed). The policy
//! here samples `replication` distinct nodes uniformly, with a
//! deterministic RNG, and also tracks per-node placement counts so tests
//! can assert the balance the evaluation relies on.

use dyrs_cluster::NodeId;
use simkit::Rng;

/// Uniform random placement of `replication` distinct replicas over
/// `nodes` nodes, optionally rack-aware (HDFS's default policy).
#[derive(Debug, Clone)]
pub struct PlacementPolicy {
    nodes: u32,
    replication: usize,
    rng: Rng,
    placed: Vec<u64>,
    /// Rack of each node; `None` disables rack awareness (single rack).
    racks: Option<Vec<u32>>,
}

impl PlacementPolicy {
    /// Policy over node ids `0..nodes` with the given replication factor
    /// (single-rack: uniform distinct sampling).
    pub fn new(nodes: u32, replication: usize, rng: Rng) -> Self {
        assert!(nodes > 0, "empty cluster");
        assert!(
            replication >= 1 && replication <= nodes as usize,
            "replication {replication} impossible on {nodes} nodes"
        );
        PlacementPolicy {
            nodes,
            replication,
            rng,
            placed: vec![0; nodes as usize],
            racks: None,
        }
    }

    /// Rack-aware policy (HDFS default): the first replica lands on a
    /// random node, the second on a node in a *different* rack, and the
    /// third in the same rack as the second — surviving both a node and
    /// a whole-rack failure with only one off-rack transfer. Falls back
    /// to uniform sampling when every node shares one rack.
    pub fn rack_aware(racks: Vec<u32>, replication: usize, rng: Rng) -> Self {
        let nodes = racks.len() as u32;
        let mut p = Self::new(nodes, replication, rng);
        let distinct: std::collections::HashSet<u32> = racks.iter().copied().collect();
        if distinct.len() > 1 {
            p.racks = Some(racks);
        }
        p
    }

    /// Replication factor.
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// Choose replica nodes for one new block: `replication` distinct
    /// nodes, sampled without replacement (rack-aware when configured).
    pub fn place(&mut self) -> Vec<NodeId> {
        let ids = match self.racks.clone() {
            Some(racks) => self.place_rack_aware(&racks),
            None => self.place_uniform(),
        };
        for &i in &ids {
            self.placed[i as usize] += 1;
        }
        ids.into_iter().map(NodeId).collect()
    }

    fn place_uniform(&mut self) -> Vec<u32> {
        // Floyd's algorithm would be fancier; with n ≤ dozens a partial
        // Fisher-Yates over the id range is simplest and exact.
        let mut ids: Vec<u32> = (0..self.nodes).collect();
        for i in 0..self.replication {
            let j = i + self.rng.below((ids.len() - i) as u64) as usize;
            ids.swap(i, j);
        }
        ids.truncate(self.replication);
        ids
    }

    fn place_rack_aware(&mut self, racks: &[u32]) -> Vec<u32> {
        fn pick(
            rng: &mut Rng,
            racks: &[u32],
            chosen: &[u32],
            pred: impl Fn(u32) -> bool,
        ) -> Option<u32> {
            let candidates: Vec<u32> = (0..racks.len() as u32)
                .filter(|&n| pred(n) && !chosen.contains(&n))
                .collect();
            if candidates.is_empty() {
                None
            } else {
                Some(candidates[rng.below(candidates.len() as u64) as usize])
            }
        }
        let mut chosen: Vec<u32> = Vec::with_capacity(self.replication);
        // replica 1: anywhere
        let first = pick(&mut self.rng, racks, &chosen, |_| true).expect("cluster non-empty");
        chosen.push(first);
        let first_rack = racks[first as usize];
        // replica 2: a different rack (fall back to anywhere)
        if self.replication >= 2 {
            let n = pick(&mut self.rng, racks, &chosen, |n| {
                racks[n as usize] != first_rack
            })
            .or_else(|| pick(&mut self.rng, racks, &chosen, |_| true))
            .expect("replication feasible");
            chosen.push(n);
        }
        // replica 3: same rack as replica 2 (fall back to anywhere)
        if self.replication >= 3 {
            let second_rack = racks[chosen[1] as usize];
            let n = pick(&mut self.rng, racks, &chosen, |n| {
                racks[n as usize] == second_rack
            })
            .or_else(|| pick(&mut self.rng, racks, &chosen, |_| true))
            .expect("replication feasible");
            chosen.push(n);
        }
        // extras: anywhere
        while chosen.len() < self.replication {
            let n = pick(&mut self.rng, racks, &chosen, |_| true).expect("replication feasible");
            chosen.push(n);
        }
        chosen
    }

    /// How many replicas have been placed on each node so far.
    pub fn placement_counts(&self) -> &[u64] {
        &self.placed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn places_distinct_nodes() {
        let mut p = PlacementPolicy::new(7, 3, Rng::new(42));
        for _ in 0..1000 {
            let r = p.place();
            assert_eq!(r.len(), 3);
            let mut s = r.clone();
            s.sort();
            s.dedup();
            assert_eq!(s.len(), 3, "replicas must be distinct: {r:?}");
            assert!(r.iter().all(|n| n.0 < 7));
        }
    }

    #[test]
    fn placement_is_roughly_balanced() {
        let mut p = PlacementPolicy::new(7, 3, Rng::new(7));
        for _ in 0..7000 {
            p.place();
        }
        // 21000 replicas over 7 nodes → expect 3000 ± 10%
        for &c in p.placement_counts() {
            assert!((2700..=3300).contains(&c), "unbalanced count {c}");
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let mut a = PlacementPolicy::new(5, 2, Rng::new(9));
        let mut b = PlacementPolicy::new(5, 2, Rng::new(9));
        for _ in 0..100 {
            assert_eq!(a.place(), b.place());
        }
    }

    #[test]
    fn full_replication_uses_all_nodes() {
        let mut p = PlacementPolicy::new(3, 3, Rng::new(1));
        let mut r = p.place();
        r.sort();
        assert_eq!(r, vec![NodeId(0), NodeId(1), NodeId(2)]);
    }

    #[test]
    #[should_panic(expected = "impossible")]
    fn over_replication_rejected() {
        PlacementPolicy::new(2, 3, Rng::new(1));
    }

    #[test]
    fn rack_aware_spans_exactly_two_racks() {
        // HDFS default: replicas 2 and 3 share a rack different from
        // replica 1's → a 3-replica block spans exactly two racks.
        // every rack has ≥ 2 nodes, so the strict HDFS pattern always fits
        let racks = vec![0, 0, 0, 1, 1, 2, 2]; // 7 nodes, 3 racks
        let mut p = PlacementPolicy::rack_aware(racks.clone(), 3, Rng::new(5));
        for _ in 0..500 {
            let r = p.place();
            let mut distinct = r.clone();
            distinct.sort();
            distinct.dedup();
            assert_eq!(distinct.len(), 3, "replicas distinct: {r:?}");
            let rs: std::collections::HashSet<u32> = r.iter().map(|n| racks[n.index()]).collect();
            assert_eq!(rs.len(), 2, "block must span exactly 2 racks: {r:?}");
            // replicas 2 and 3 share a rack, different from replica 1's
            assert_ne!(racks[r[0].index()], racks[r[1].index()]);
            assert_eq!(racks[r[1].index()], racks[r[2].index()]);
        }
    }

    #[test]
    fn rack_aware_singleton_rack_falls_back_but_stays_valid() {
        // rack 2 has a single node; when replica 2 lands there the third
        // replica cannot share its rack and falls back to anywhere —
        // replicas stay distinct and still span ≥ 2 racks.
        let racks = vec![0, 0, 0, 1, 1, 1, 2];
        let mut p = PlacementPolicy::rack_aware(racks.clone(), 3, Rng::new(5));
        for _ in 0..500 {
            let r = p.place();
            let mut d = r.clone();
            d.sort();
            d.dedup();
            assert_eq!(d.len(), 3);
            let rs: std::collections::HashSet<u32> = r.iter().map(|n| racks[n.index()]).collect();
            assert!(rs.len() >= 2, "must span racks: {r:?}");
            assert_ne!(racks[r[0].index()], racks[r[1].index()]);
        }
    }

    #[test]
    fn rack_aware_falls_back_on_single_rack() {
        // one rack: exactly the uniform policy's placements
        let mut p = PlacementPolicy::rack_aware(vec![0; 7], 3, Rng::new(5));
        let mut uniform = PlacementPolicy::new(7, 3, Rng::new(5));
        for _ in 0..50 {
            assert_eq!(p.place(), uniform.place());
        }
    }

    #[test]
    fn rack_aware_with_two_node_rack_exhausts_gracefully() {
        // rack 1 has a single node: replica 3 cannot share replica 2's
        // rack when that rack is exhausted → falls back to anywhere.
        let racks = vec![0, 0, 1];
        let mut p = PlacementPolicy::rack_aware(racks, 3, Rng::new(5));
        for _ in 0..100 {
            let r = p.place();
            let mut d = r.clone();
            d.sort();
            d.dedup();
            assert_eq!(d.len(), 3);
        }
    }

    #[test]
    fn rack_aware_stays_balanced() {
        let racks = vec![0, 0, 0, 1, 1, 1];
        let mut p = PlacementPolicy::rack_aware(racks, 3, Rng::new(7));
        for _ in 0..4000 {
            p.place();
        }
        // 12000 replicas over 6 nodes → 2000 each ±20%
        for &c in p.placement_counts() {
            assert!((1600..=2400).contains(&c), "unbalanced: {c}");
        }
    }
}
