//! Static tier descriptions.

use std::fmt;

/// Identifies one tier within a node's stack. Tier 0 is the fastest
/// (memory); the highest index is the backing disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TierId(pub u8);

impl TierId {
    /// Index into per-tier vectors.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TierId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tier{}", self.0)
    }
}

/// Static description of one storage tier on one node.
#[derive(Debug, Clone, PartialEq)]
pub struct TierSpec {
    /// Human-readable tier name ("mem", "nvme", "ssd", "hdd").
    pub name: String,
    /// Capacity in bytes. Ignored for the backing (last) tier, which is
    /// where blocks live permanently and is not capacity-modeled.
    pub capacity: u64,
    /// Sequential read bandwidth, bytes/sec.
    pub read_bw: f64,
    /// Bandwidth degradation per extra concurrent stream
    /// (`cap(n) = bw / (1 + d·(n−1))`); non-zero only for seek-bound
    /// media.
    pub degradation: f64,
}

impl TierSpec {
    fn new(name: &str, capacity: u64, read_bw: f64, degradation: f64) -> Self {
        TierSpec {
            name: name.to_string(),
            capacity,
            read_bw,
            degradation,
        }
    }
}

const GIB: u64 = 1 << 30;
const MIB_F: f64 = (1u64 << 20) as f64;
const GIB_F: f64 = (1u64 << 30) as f64;

/// A node's storage hierarchy, fastest tier first. The last tier is the
/// backing disk; every tier above it is a buffer tier with finite
/// capacity. Memory holds migrated copies, the tiers below it demoted
/// ones.
#[derive(Debug, Clone, PartialEq)]
pub struct TierStackSpec {
    /// Tiers fastest→slowest; at least two (a buffer over a backing disk).
    pub tiers: Vec<TierSpec>,
}

impl TierStackSpec {
    /// The legacy 2-tier DYRS stack: memory over the spinning disk.
    pub fn legacy(mem_capacity: u64, membus_bw: f64, disk_bw: f64, disk_degradation: f64) -> Self {
        TierStackSpec {
            tiers: vec![
                TierSpec::new("mem", mem_capacity, membus_bw, 0.0),
                TierSpec::new("hdd", u64::MAX, disk_bw, disk_degradation),
            ],
        }
    }

    /// 3-tier stack: memory / NVMe / HDD. NVMe numbers follow a
    /// datacenter U.2 drive (~3.2 GB/s read).
    pub fn three_tier(
        mem_capacity: u64,
        membus_bw: f64,
        disk_bw: f64,
        disk_degradation: f64,
    ) -> Self {
        TierStackSpec {
            tiers: vec![
                TierSpec::new("mem", mem_capacity, membus_bw, 0.0),
                TierSpec::new("nvme", 256 * GIB, 3200.0 * MIB_F, 0.0),
                TierSpec::new("hdd", u64::MAX, disk_bw, disk_degradation),
            ],
        }
    }

    /// 4-tier stack: memory / NVMe / SATA SSD / HDD.
    pub fn four_tier(
        mem_capacity: u64,
        membus_bw: f64,
        disk_bw: f64,
        disk_degradation: f64,
    ) -> Self {
        TierStackSpec {
            tiers: vec![
                TierSpec::new("mem", mem_capacity, membus_bw, 0.0),
                TierSpec::new("nvme", 256 * GIB, 3200.0 * MIB_F, 0.0),
                TierSpec::new("ssd", GIB_F as u64, 550.0 * MIB_F, 0.0),
                TierSpec::new("hdd", u64::MAX, disk_bw, disk_degradation),
            ],
        }
    }

    /// Number of tiers including the backing disk.
    pub fn len(&self) -> usize {
        self.tiers.len()
    }

    /// True if the stack has no tiers (invalid; see [`Self::validate`]).
    pub fn is_empty(&self) -> bool {
        self.tiers.is_empty()
    }

    /// The buffer tiers — everything above the backing disk.
    pub fn buffer_tiers(&self) -> &[TierSpec] {
        &self.tiers[..self.tiers.len() - 1]
    }

    /// Number of buffer tiers.
    pub fn num_buffer_tiers(&self) -> usize {
        self.tiers.len() - 1
    }

    /// The backing disk tier (always the last entry).
    pub fn disk(&self) -> &TierSpec {
        self.tiers.last().expect("validated stack has a disk tier")
    }

    /// Buffer-tier capacities in tier order (what a [`crate::TierStore`]
    /// is built from).
    pub fn buffer_capacities(&self) -> Vec<u64> {
        self.buffer_tiers().iter().map(|t| t.capacity).collect()
    }

    /// Check the stack is well-formed: at least a buffer over a disk,
    /// positive buffer capacities, and positive finite read bandwidths.
    pub fn validate(&self) -> Result<(), String> {
        if self.tiers.len() < 2 {
            return Err(format!(
                "tier stack needs a buffer over a backing disk, got {} tier(s)",
                self.tiers.len()
            ));
        }
        for (i, t) in self.tiers.iter().enumerate() {
            if i < self.num_buffer_tiers() && t.capacity == 0 {
                return Err(format!("buffer tier {i} ({}) has zero capacity", t.name));
            }
            if !(t.read_bw > 0.0 && t.read_bw.is_finite()) {
                return Err(format!(
                    "tier {i} ({}) read_bw must be finite positive",
                    t.name
                ));
            }
            if !(t.degradation >= 0.0 && t.degradation.is_finite()) {
                return Err(format!(
                    "tier {i} ({}) degradation must be finite ≥ 0",
                    t.name
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legacy_stack_is_memory_over_disk() {
        let s = TierStackSpec::legacy(96 * GIB, 8.0 * GIB_F, 140.0 * MIB_F, 0.02);
        assert_eq!(s.len(), 2);
        assert_eq!(s.num_buffer_tiers(), 1);
        assert_eq!(s.disk().name, "hdd");
        s.validate().expect("legacy stack is valid");
    }

    #[test]
    fn validate_rejects_malformed_stacks() {
        let good = TierStackSpec::three_tier(GIB, GIB_F, 140.0 * MIB_F, 0.02);
        good.validate().expect("preset is valid");
        let mut one = good.clone();
        one.tiers.truncate(1);
        assert!(one.validate().is_err(), "single tier rejected");
        let mut zero_cap = good.clone();
        zero_cap.tiers[1].capacity = 0;
        assert!(
            zero_cap.validate().is_err(),
            "zero-capacity buffer rejected"
        );
    }

    #[test]
    fn tier_id_display_and_index() {
        assert_eq!(TierId(2).to_string(), "tier2");
        assert_eq!(TierId(2).index(), 2);
    }
}
