//! Per-node tier occupancy accounting.

use crate::spec::TierId;
use std::collections::BTreeMap;

/// Accounting for one buffer tier.
#[derive(Debug, Clone, PartialEq, Eq)]
struct TierUsage {
    capacity: u64,
    used: u64,
    peak: u64,
    /// Cumulative bytes ever admitted to this tier (monotone).
    total_admitted: u64,
}

impl TierUsage {
    fn new(capacity: u64) -> Self {
        TierUsage {
            capacity,
            used: 0,
            peak: 0,
            total_admitted: 0,
        }
    }

    fn fits(&self, bytes: u64) -> bool {
        bytes <= self.capacity - self.used
    }

    fn admit(&mut self, bytes: u64) {
        self.used += bytes;
        self.total_admitted += bytes;
        self.peak = self.peak.max(self.used);
    }
}

/// One block copy held in a middle tier (demoted out of memory but not
/// yet dropped back to disk-only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierResident {
    /// The tier holding the copy (always ≥ 1; memory residency is the
    /// owner's business, see [`TierStore`]).
    pub tier: TierId,
    /// Block size in bytes.
    pub bytes: u64,
}

/// Per-node occupancy tracker for a stack of buffer tiers.
///
/// Generalizes the old `MemoryStore`: tier 0 (memory) keeps the exact
/// byte-pool pin/unpin semantics the slave always used — the slave's
/// `buffered` map remains the source of truth for *which* blocks are in
/// memory, this store only meters bytes. Middle tiers (1..) instead
/// track individual resident blocks, because demoted copies are looked
/// up per block on the read path and must never be double-resident.
#[derive(Debug, Clone, PartialEq)]
pub struct TierStore {
    /// One slot per buffer tier; `tiers[0]` is memory.
    tiers: Vec<TierUsage>,
    /// Middle-tier residents: block → (tier, bytes). Never contains a
    /// tier-0 entry.
    resident: BTreeMap<u64, TierResident>,
    /// Per-tier admission order (oldest first); `order[0]` stays empty.
    order: Vec<Vec<u64>>,
}

impl TierStore {
    /// A store over the given buffer-tier capacities (tier 0 = memory
    /// first). Needs at least the memory tier.
    pub fn new(buffer_capacities: &[u64]) -> Self {
        assert!(
            !buffer_capacities.is_empty(),
            "a tier store needs at least the memory tier"
        );
        TierStore {
            tiers: buffer_capacities
                .iter()
                .map(|&c| TierUsage::new(c))
                .collect(),
            resident: BTreeMap::new(),
            order: vec![Vec::new(); buffer_capacities.len()],
        }
    }

    /// Number of buffer tiers.
    pub fn num_tiers(&self) -> usize {
        self.tiers.len()
    }

    // ------------------------------------------------------------------
    // tier 0 (memory) — the legacy MemoryStore surface, bit-identical
    // ------------------------------------------------------------------

    /// Memory hard limit in bytes.
    pub fn capacity(&self) -> u64 {
        self.tiers[0].capacity
    }

    /// Memory bytes currently pinned.
    pub fn used(&self) -> u64 {
        self.tiers[0].used
    }

    /// Free memory bytes under the limit.
    pub fn available(&self) -> u64 {
        self.tiers[0].capacity - self.tiers[0].used
    }

    /// Highest pinned memory footprint seen so far.
    pub fn peak(&self) -> u64 {
        self.tiers[0].peak
    }

    /// Cumulative bytes ever pinned in memory (monotone).
    pub fn total_pinned(&self) -> u64 {
        self.tiers[0].total_admitted
    }

    /// True if `bytes` more fit in memory.
    pub fn fits(&self, bytes: u64) -> bool {
        self.tiers[0].fits(bytes)
    }

    /// Pin `bytes` in memory; `false` (and no change) if it doesn't fit.
    #[must_use]
    pub fn pin(&mut self, bytes: u64) -> bool {
        if !self.tiers[0].fits(bytes) {
            return false;
        }
        self.tiers[0].admit(bytes);
        true
    }

    /// Unpin memory bytes. Panics on over-release — always a caller bug.
    pub fn unpin(&mut self, bytes: u64) {
        assert!(
            bytes <= self.tiers[0].used,
            "unpin {bytes} exceeds pinned {}",
            self.tiers[0].used
        );
        self.tiers[0].used -= bytes;
    }

    /// Drop everything (slave process failure: the OS reclaims memory and
    /// the tier daemons lose their maps). Peaks and cumulative counters
    /// are preserved.
    pub fn clear(&mut self) {
        for t in &mut self.tiers {
            t.used = 0;
        }
        self.resident.clear();
        for o in &mut self.order {
            o.clear();
        }
    }

    // ------------------------------------------------------------------
    // middle tiers — demoted residents
    // ------------------------------------------------------------------

    /// Bytes currently held in tier `t`.
    pub fn tier_used(&self, t: TierId) -> u64 {
        self.tiers[t.index()].used
    }

    /// High-water mark of tier `t`.
    pub fn tier_peak(&self, t: TierId) -> u64 {
        self.tiers[t.index()].peak
    }

    /// Demote a block copy leaving memory: place it in the first middle
    /// tier with room, oldest-first ordering preserved per tier. Returns
    /// the receiving tier, or `None` when every middle tier is full (the
    /// caller drops the copy). The caller has already unpinned the block
    /// from memory via [`Self::unpin`].
    pub fn demote(&mut self, block: u64, bytes: u64) -> Option<TierId> {
        assert!(
            !self.resident.contains_key(&block),
            "block {block} already resident in a middle tier"
        );
        for t in 1..self.tiers.len() {
            if self.tiers[t].fits(bytes) {
                self.tiers[t].admit(bytes);
                let tier = TierId(t as u8);
                self.resident.insert(block, TierResident { tier, bytes });
                self.order[t].push(block);
                return Some(tier);
            }
        }
        None
    }

    /// The middle tier holding `block`, if any.
    pub fn resident(&self, block: u64) -> Option<TierResident> {
        self.resident.get(&block).copied()
    }

    /// Drop a middle-tier resident (eviction, or the block landed back in
    /// memory via a fresh migration). Returns what was released.
    pub fn release(&mut self, block: u64) -> Option<TierResident> {
        let r = self.resident.remove(&block)?;
        self.tiers[r.tier.index()].used -= r.bytes;
        self.order[r.tier.index()].retain(|&b| b != block);
        Some(r)
    }

    /// Blocks resident in tier `t`, oldest admission first.
    pub fn tier_blocks(&self, t: TierId) -> &[u64] {
        &self.order[t.index()]
    }
}

impl simkit::audit::Audit for TierStore {
    fn audit(&self, report: &mut simkit::audit::AuditReport) {
        let c = "tier-store";
        for (i, t) in self.tiers.iter().enumerate() {
            report.check(
                t.used <= t.capacity,
                c,
                "per-tier occupancy stays under capacity",
                || format!("tier{i}: used {} > capacity {}", t.used, t.capacity),
            );
            report.check(
                t.used <= t.peak && t.peak <= t.total_admitted,
                c,
                "per-tier peak is a high-water mark bounded by admissions",
                || {
                    format!(
                        "tier{i}: used {} peak {} total {}",
                        t.used, t.peak, t.total_admitted
                    )
                },
            );
        }
        let mut per_tier = vec![0u64; self.tiers.len()];
        for (&block, r) in &self.resident {
            report.check(
                r.tier.index() >= 1 && r.tier.index() < self.tiers.len(),
                c,
                "residents live strictly in middle tiers",
                || format!("block {block} resident in {}", r.tier),
            );
            if r.tier.index() < per_tier.len() {
                per_tier[r.tier.index()] += r.bytes;
            }
            report.check(
                self.order[r.tier.index()].contains(&block),
                c,
                "admission order covers every resident",
                || format!("block {block} missing from {} order", r.tier),
            );
        }
        for (i, t) in self.tiers.iter().enumerate().skip(1) {
            report.check(
                per_tier[i] == t.used,
                c,
                "middle-tier used bytes equal the sum of residents",
                || format!("tier{i}: residents {} != used {}", per_tier[i], t.used),
            );
            report.check(
                self.order[i].len()
                    == self
                        .resident
                        .values()
                        .filter(|r| r.tier.index() == i)
                        .count(),
                c,
                "admission order holds exactly the tier's residents",
                || format!("tier{i}: order len {}", self.order[i].len()),
            );
        }
        report.check(
            self.order[0].is_empty(),
            c,
            "memory residency is tracked by the owner, not the store",
            || format!("tier0 order has {} entries", self.order[0].len()),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::audit::{Audit, AuditReport};

    fn clean(s: &TierStore) {
        let mut report = AuditReport::new();
        s.audit(&mut report);
        assert!(report.is_clean(), "{report:?}");
    }

    #[test]
    fn tier0_mirrors_memory_store_semantics() {
        let mut s = TierStore::new(&[100]);
        assert!(s.pin(60));
        assert_eq!(s.used(), 60);
        assert_eq!(s.available(), 40);
        assert!(!s.pin(50), "over-limit pin rejected without change");
        assert_eq!(s.used(), 60);
        s.unpin(20);
        assert_eq!(s.used(), 40);
        assert_eq!(s.peak(), 60);
        assert_eq!(s.total_pinned(), 60);
        s.clear();
        assert_eq!(s.used(), 0);
        assert_eq!(s.peak(), 60);
        clean(&s);
    }

    #[test]
    #[should_panic(expected = "unpin")]
    fn over_unpin_panics() {
        let mut s = TierStore::new(&[100]);
        assert!(s.pin(10));
        s.unpin(11);
    }

    #[test]
    fn two_tier_store_never_demotes() {
        let mut s = TierStore::new(&[100]);
        assert_eq!(s.demote(7, 10), None, "no tier below memory");
        assert_eq!(s.resident(7), None);
        clean(&s);
    }

    #[test]
    fn demote_lands_in_first_tier_with_room() {
        let mut s = TierStore::new(&[100, 25, 50]);
        assert_eq!(s.demote(1, 20), Some(TierId(1)));
        // tier 1 has 5 bytes left: the next 20-byte demotion skips to tier 2
        assert_eq!(s.demote(2, 20), Some(TierId(2)));
        assert_eq!(s.tier_used(TierId(1)), 20);
        assert_eq!(s.tier_used(TierId(2)), 20);
        assert_eq!(
            s.resident(1),
            Some(TierResident {
                tier: TierId(1),
                bytes: 20
            })
        );
        // both lower tiers full enough → the copy is droppable
        assert_eq!(s.demote(3, 40), None);
        clean(&s);
    }

    #[test]
    fn release_roundtrip() {
        let mut s = TierStore::new(&[30, 50]);
        assert!(s.pin(30));
        s.unpin(30);
        assert_eq!(s.demote(9, 30), Some(TierId(1)));
        assert_eq!(s.tier_used(TierId(1)), 30);
        assert_eq!(
            s.release(9),
            Some(TierResident {
                tier: TierId(1),
                bytes: 30
            })
        );
        assert_eq!(s.tier_used(TierId(1)), 0);
        assert_eq!(s.resident(9), None);
        assert_eq!(s.release(9), None, "a second release finds nothing");
        clean(&s);
    }

    #[test]
    fn admission_order_is_oldest_first() {
        let mut s = TierStore::new(&[100, 100]);
        for b in [4u64, 2, 9] {
            assert_eq!(s.demote(b, 10), Some(TierId(1)));
        }
        assert_eq!(s.tier_blocks(TierId(1)), &[4, 2, 9]);
        s.release(2);
        assert_eq!(s.tier_blocks(TierId(1)), &[4, 9]);
        clean(&s);
    }

    #[test]
    fn clear_drops_residents_but_keeps_peaks() {
        let mut s = TierStore::new(&[100, 100]);
        assert!(s.pin(40));
        assert_eq!(s.demote(1, 30), Some(TierId(1)));
        s.clear();
        assert_eq!(s.used(), 0);
        assert_eq!(s.tier_used(TierId(1)), 0);
        assert_eq!(s.resident(1), None);
        assert_eq!(s.peak(), 40);
        assert_eq!(s.tier_peak(TierId(1)), 30);
        clean(&s);
    }

    #[test]
    #[should_panic(expected = "already resident")]
    fn double_demote_panics() {
        let mut s = TierStore::new(&[100, 100]);
        assert_eq!(s.demote(1, 10), Some(TierId(1)));
        let _ = s.demote(1, 10);
    }
}
