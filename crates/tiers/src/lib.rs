//! Multi-tier storage model (ROADMAP item 2).
//!
//! DYRS as published migrates cold data along a single disk→memory edge.
//! Real big-data clusters sit on a memory / NVMe / SSD / HDD hierarchy,
//! so this crate generalizes the buffer to an N-tier *stack*:
//!
//! * [`TierSpec`] / [`TierStackSpec`] — the static hardware description.
//!   A stack lists tiers fastest→slowest; the last tier is the backing
//!   disk where blocks live permanently, everything above it is a
//!   *buffer tier* with finite capacity. The legacy 2-tier DYRS layout
//!   (memory over disk) is [`TierStackSpec::legacy`].
//! * [`TierStore`] — per-node occupancy accounting generalizing the old
//!   `MemoryStore`. Tier 0 (memory) keeps the exact pin/unpin arithmetic
//!   the slave always had; middle tiers hold *demoted* residents, blocks
//!   pushed down instead of dropped when memory pressure evicts them.
//!
//! Migrations always land in memory, as in the paper; the tiers below
//! it only hold demoted copies and serve re-reads from them.
//!
//! Everything here is deterministic: ties break on tier index and
//! residency maps are BTree-ordered. Block keys are raw `u64`s (the DFS
//! `BlockId.0`) so this crate stays a leaf below `dyrs-cluster`.

mod spec;
mod store;

pub use spec::{TierId, TierSpec, TierStackSpec};
pub use store::{TierResident, TierStore};
