//! Property-based tests for tier-store invariants: per-tier capacity
//! conservation, no block resident in two tiers on one node, and
//! admission order preserved across demote/evict/release sequences.

use dyrs_tiers::{TierId, TierStore};
use proptest::prelude::*;
use simkit::audit::{Audit, AuditReport};
use std::collections::BTreeMap;

/// A shadow model of one node's tier state: which blocks are in memory
/// (the slave's `buffered` map) and which are demoted residents, plus
/// per-tier FIFO admission orders.
#[derive(Default)]
struct Model {
    buffered: BTreeMap<u64, u64>,
    resident: BTreeMap<u64, (u8, u64)>,
    orders: BTreeMap<u8, Vec<u64>>,
}

fn check(store: &TierStore, model: &Model, caps: &[u64]) -> Result<(), TestCaseError> {
    let mut report = AuditReport::new();
    store.audit(&mut report);
    prop_assert!(report.is_clean(), "{report:?}");
    // capacity conservation, per tier
    let mem_used: u64 = model.buffered.values().sum();
    prop_assert_eq!(store.used(), mem_used, "tier0 used tracks buffered bytes");
    prop_assert!(store.used() <= caps[0]);
    for t in 1..caps.len() {
        let used: u64 = model
            .resident
            .values()
            .filter(|&&(tier, _)| tier as usize == t)
            .map(|&(_, b)| b)
            .sum();
        prop_assert_eq!(store.tier_used(TierId(t as u8)), used);
        prop_assert!(used <= caps[t], "tier{} over capacity", t);
    }
    // no dual residency
    for block in model.resident.keys() {
        prop_assert!(
            !model.buffered.contains_key(block),
            "block {} resident in memory and a middle tier",
            block
        );
    }
    for (block, &(tier, bytes)) in &model.resident {
        let r = store
            .resident(*block)
            .expect("model resident must be in store");
        prop_assert_eq!(r.tier, TierId(tier));
        prop_assert_eq!(r.bytes, bytes);
    }
    // admission order preserved
    for t in 1..caps.len() as u8 {
        let empty = Vec::new();
        let want = model.orders.get(&t).unwrap_or(&empty);
        prop_assert_eq!(store.tier_blocks(TierId(t)), &want[..], "tier{} order", t);
    }
    Ok(())
}

proptest! {
    /// Drive a random demote/evict/admit/release sequence against both
    /// the store and an independent shadow model; every step preserves
    /// capacity conservation, single-residency, and admission order.
    #[test]
    fn tier_sequences_preserve_invariants(
        mem_cap in 50u64..200,
        mid_caps in proptest::collection::vec(30u64..150, 0..3),
        ops in proptest::collection::vec((0u8..4, 0u64..12, 10u64..60), 1..120),
    ) {
        let mut caps = vec![mem_cap];
        caps.extend(mid_caps.iter().copied());
        let mut store = TierStore::new(&caps);
        let mut model = Model::default();
        for (op, block, bytes) in ops {
            match op {
                // admit: a migration lands the block in memory
                0 => {
                    if !model.buffered.contains_key(&block)
                        && !model.resident.contains_key(&block)
                        && store.fits(bytes)
                    {
                        prop_assert!(store.pin(bytes));
                        model.buffered.insert(block, bytes);
                    }
                }
                // pressure eviction with demotion: unpin, push down-stack
                1 => {
                    if let Some(bytes) = model.buffered.remove(&block) {
                        store.unpin(bytes);
                        if let Some(t) = store.demote(block, bytes) {
                            model.resident.insert(block, (t.0, bytes));
                            model.orders.entry(t.0).or_default().push(block);
                        }
                    }
                }
                // hard eviction: unpin and drop
                2 => {
                    if let Some(bytes) = model.buffered.remove(&block) {
                        store.unpin(bytes);
                    }
                }
                // drop a middle-tier resident (re-migration landed, or GC)
                _ => {
                    let got = store.release(block);
                    if let Some(&(tier, bytes)) = model.resident.get(&block) {
                        let r = got.expect("model says resident");
                        prop_assert_eq!(r.tier, TierId(tier));
                        prop_assert_eq!(r.bytes, bytes);
                        model.resident.remove(&block);
                        model.orders.entry(tier).or_default().retain(|&b| b != block);
                    } else {
                        prop_assert!(got.is_none());
                    }
                }
            }
            check(&store, &model, &caps)?;
        }
        // a crash clears occupancy everywhere but preserves peaks
        let peak0 = store.peak();
        store.clear();
        prop_assert_eq!(store.used(), 0);
        prop_assert_eq!(store.peak(), peak0);
        for t in 1..caps.len() as u8 {
            prop_assert_eq!(store.tier_used(TierId(t)), 0);
            prop_assert_eq!(store.tier_blocks(TierId(t)), &[] as &[u64]);
        }
    }
}
