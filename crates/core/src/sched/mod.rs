//! Indexed pending-migration scheduler (paper §III-D, scaled up).
//!
//! The paper's master keeps "a list of pending migrations" and rescans it
//! wholesale: every Algorithm 1 pass rescores every entry, and every
//! slave pull walks the whole list. The rescan stays (see `engine.rs`),
//! but the pull is the hottest path in the system, so this module
//! replaces the flat list with an indexed store:
//!
//! * a **slab** of entries with LIFO slot reuse, and a block → slot
//!   [`BTreeMap`];
//! * the global **admission queue**, ordered by the configured
//!   [`MigrationOrder`] encoded as an `OrderKey` (so the BTree *is* the
//!   sort);
//! * per-node **bind queues** (`targeted`, and `replica_idx` for the
//!   untargeted Naive policy);
//! * one `dirty` flag: whether anything a pass reads changed since the
//!   last one, so a pass with nothing to do skips the walk.
//!
//! Everything is deterministic: slots are reused LIFO and all indexes are
//! BTree-ordered.
//!
//! The raw entry slab (`raw_pending`) must not be touched outside this
//! module — `dyrs-verify`'s `pending-fence` lint enforces that the rest
//! of the workspace goes through the Scheduler API.

mod engine;

use crate::master::JobHint;
use crate::policy::MigrationOrder;
use crate::types::{JobRef, Migration, MigrationId};
use dyrs_cluster::NodeId;
use dyrs_dfs::{BlockId, JobId};
use simkit::SimTime;
use std::collections::{BTreeMap, BTreeSet};

/// Position of an entry in the admission order, independent of the
/// discipline: the BTree indexes sort by `(OrderKey, slot)` and binding /
/// retargeting walk that order directly.
///
/// `primary` encodes the discipline's sort key (`0` for FIFO,
/// `hint.total_bytes` for SJF, `hint.expected_launch` in microseconds for
/// EDF — lossless, since `SimTime` is microseconds internally) and `seq`
/// is the arrival sequence, so ties break exactly like the old stable
/// sort over `(key, seq)` did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct OrderKey {
    primary: u64,
    seq: u64,
}

impl OrderKey {
    fn new(order: MigrationOrder, hint: &JobHint, seq: u64) -> Self {
        let primary = match order {
            MigrationOrder::Fifo => 0,
            MigrationOrder::SmallestJobFirst => hint.total_bytes,
            MigrationOrder::EarliestDeadlineFirst => hint.expected_launch.as_micros(),
        };
        OrderKey { primary, seq }
    }
}

/// An index entry: an admission-order key and the slab slot it names.
/// Every index orders by `(key, slot)`; with unique keys (the master
/// mints unique seqs) the slot half never decides.
type Pos = (OrderKey, usize);

/// One pending migration and its current target.
#[derive(Debug, Clone)]
pub(crate) struct Entry {
    /// The migration being scheduled.
    pub(crate) migration: Migration,
    /// Algorithm 1's current choice of source node, if any.
    pub(crate) target: Option<NodeId>,
    /// Arrival sequence (FIFO key and stable tie-break).
    pub(crate) seq: u64,
    /// Requesting job's scheduling hint.
    pub(crate) hint: JobHint,
    /// Retry backoff: the entry may not bind before this instant.
    pub(crate) not_before: SimTime,
}

/// What one retarget pass did. A pass either walks the whole queue
/// (`rescored` = pending depth, `skipped` = 0) or, when nothing changed
/// since the last walk, skips it (`rescored` = 0, `skipped` = depth).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetargetStats {
    /// Entries whose candidate scores were recomputed this pass.
    pub rescored: u64,
    /// Entries left untouched (their decision provably cannot change).
    pub skipped: u64,
    /// Always 0: there is no density ceiling any more. Kept only because
    /// the repository benchmark reads it.
    pub ceiling_hits: u64,
}

/// The indexed pending store. Owned by the master; every read or write of
/// pending-migration state goes through this API.
pub(crate) struct Scheduler {
    /// Entry slab; `None` slots are free (LIFO reuse via `free`). All raw
    /// slab access lives in this module (`pending-fence`).
    raw_pending: Vec<Option<Entry>>,
    /// Free slots in `raw_pending`.
    free: Vec<usize>,
    /// block → slot.
    by_block: BTreeMap<BlockId, usize>,
    /// The admission order.
    queue: BTreeSet<Pos>,
    /// Per-node bind queues (entries targeted at the node).
    targeted: Vec<BTreeSet<Pos>>,
    /// Per-node replica membership (the Naive policy's bind queue).
    replica_idx: Vec<BTreeSet<Pos>>,
    /// Running total of pending bytes.
    pending_bytes: u64,
    /// Active admission discipline.
    order: MigrationOrder,
    /// Per-node scoring snapshot: seconds-per-byte estimate. The pass
    /// scores exclusively from the snapshot.
    snap_spb: Vec<f64>,
    /// Per-node scoring snapshot: queued bytes.
    snap_queued: Vec<f64>,
    /// Per-node scoring snapshot: Algorithm 1 candidacy (up && targetable).
    snap_candidate: Vec<bool>,
    /// Whether a walk could decide differently from the last one: set by
    /// a changed node snapshot, an admission, and the removal of a
    /// targeted entry; cleared by a walk.
    dirty: bool,
    /// The scores of the entry the walk is on, by replica rank (∞ for a
    /// non-candidate), in its first `replicas.len()` slots; kept between
    /// passes, as long as the longest replica list seen.
    scores: Vec<f64>,
    /// Per node, the bind-queue moves a full walk defers to the end of
    /// its pass; empty between passes (kept for their capacity).
    settle: Vec<engine::QueueMoves>,
}

impl Scheduler {
    /// An empty scheduler for `num_nodes` slaves with a uniform
    /// seconds-per-byte prior of `default_spb`.
    pub(crate) fn new(num_nodes: usize, default_spb: f64) -> Self {
        Scheduler {
            raw_pending: Vec::new(),
            free: Vec::new(),
            by_block: BTreeMap::new(),
            queue: BTreeSet::new(),
            targeted: vec![BTreeSet::new(); num_nodes],
            replica_idx: vec![BTreeSet::new(); num_nodes],
            pending_bytes: 0,
            order: MigrationOrder::Fifo,
            snap_spb: vec![default_spb; num_nodes],
            snap_queued: vec![0.0; num_nodes],
            snap_candidate: vec![true; num_nodes],
            dirty: false,
            scores: Vec::new(),
            settle: vec![engine::QueueMoves::default(); num_nodes],
        }
    }

    // ------------------------------------------------------------------
    // configuration
    // ------------------------------------------------------------------

    /// Select the admission discipline. Must be called before entries are
    /// admitted (the master configures order at startup, like the old
    /// `sort_pending` path assumed stable input).
    pub(crate) fn set_order(&mut self, order: MigrationOrder) {
        debug_assert!(
            self.len() == 0,
            "order change with entries enqueued would not re-key them"
        );
        self.order = order;
    }

    /// The active admission discipline.
    pub(crate) fn order(&self) -> MigrationOrder {
        self.order
    }

    // ------------------------------------------------------------------
    // node snapshot — the pass's only scoring input
    // ------------------------------------------------------------------

    /// Update a node's scoring snapshot from the master's heartbeat view.
    /// The snapshot is an exact mirror: any change dirties the scheduler.
    pub(crate) fn set_node_load(&mut self, node: usize, spb: f64, queued_bytes: f64) {
        if self.snap_spb[node] != spb || self.snap_queued[node] != queued_bytes {
            self.snap_spb[node] = spb;
            self.snap_queued[node] = queued_bytes;
            self.dirty = true;
        }
    }

    /// Update a node's Algorithm 1 candidacy (liveness ∧ detector health).
    pub(crate) fn set_node_candidacy(&mut self, node: usize, candidate: bool) {
        if self.snap_candidate[node] != candidate {
            self.snap_candidate[node] = candidate;
            self.dirty = true;
        }
    }

    /// The node's scoring snapshot, `(spb, queued_bytes, candidate)`
    /// (exposed for auditing).
    pub(crate) fn node_snapshot(&self, node: usize) -> (f64, f64, bool) {
        (
            self.snap_spb[node],
            self.snap_queued[node],
            self.snap_candidate[node],
        )
    }

    // ------------------------------------------------------------------
    // admission / removal
    // ------------------------------------------------------------------

    /// Admit a migration, untargeted; the next pass walks. The caller
    /// guarantees the block is not already pending (checked by
    /// `contains_block`).
    pub(crate) fn insert(
        &mut self,
        migration: Migration,
        seq: u64,
        hint: JobHint,
        not_before: SimTime,
    ) {
        debug_assert!(!self.contains_block(migration.block));
        let key = OrderKey::new(self.order, &hint, seq);
        let entry = Entry {
            migration,
            target: None,
            seq,
            hint,
            not_before,
        };
        self.pending_bytes += entry.migration.bytes;
        let idx = match self.free.pop() {
            Some(i) => i,
            None => {
                self.raw_pending.push(None);
                self.raw_pending.len() - 1
            }
        };
        debug_assert!(self.raw_pending[idx].is_none(), "free list slot is live");
        self.by_block.insert(entry.migration.block, idx);
        self.queue.insert((key, idx));
        for &r in &entry.migration.replicas {
            self.replica_idx[r.index()].insert((key, idx));
        }
        self.dirty = true;
        self.raw_pending[idx] = Some(entry);
    }

    /// Whether `block` is pending.
    pub(crate) fn contains_block(&self, block: BlockId) -> bool {
        self.by_block.contains_key(&block)
    }

    /// Add a job reference to the pending entry for `block` (no-op if the
    /// job is already referenced). Job references do not affect scoring.
    pub(crate) fn add_job_ref(&mut self, block: BlockId, jref: JobRef) {
        if let Some(&idx) = self.by_block.get(&block) {
            let e = self.raw_pending[idx].as_mut().expect("indexed slot live");
            if !e.migration.jobs.iter().any(|r| r.job == jref.job) {
                e.migration.jobs.push(jref);
            }
        }
    }

    /// Drop `job`'s reference from the pending entry for `block`. If that
    /// leaves the entry with no interested job it is removed; the removed
    /// migration's id is returned so the caller can close its span.
    pub(crate) fn drop_job_ref(&mut self, block: BlockId, job: JobId) -> Option<MigrationId> {
        let &idx = self.by_block.get(&block)?;
        let e = self.raw_pending[idx].as_mut().expect("indexed slot live");
        e.migration.jobs.retain(|r| r.job != job);
        if e.migration.jobs.is_empty() {
            Some(self.remove_slot(idx).migration.id)
        } else {
            None
        }
    }

    /// Cancel the pending migration for `block` (missed read), returning
    /// the removed entry if one was pending.
    pub(crate) fn remove_block(&mut self, block: BlockId) -> Option<Entry> {
        let idx = self.by_block.get(&block).copied()?;
        Some(self.remove_slot(idx))
    }

    /// Unlink slot `idx` from every index and free it.
    fn remove_slot(&mut self, idx: usize) -> Entry {
        let entry = self.raw_pending[idx].take().expect("removing a live entry");
        let pos = (OrderKey::new(self.order, &entry.hint, entry.seq), idx);
        self.queue.remove(&pos);
        self.by_block.remove(&entry.migration.block);
        for &r in &entry.migration.replicas {
            self.replica_idx[r.index()].remove(&pos);
        }
        if let Some(t) = entry.target {
            self.targeted[t.index()].remove(&pos);
            // The node's finish-time trajectory shrinks for every later
            // entry. An untargeted entry charged no node, so its removal
            // changes no other decision.
            self.dirty = true;
        }
        self.pending_bytes -= entry.migration.bytes;
        self.free.push(idx);
        entry
    }

    /// Drop all pending state (master restart). Snapshots return to the
    /// prior; nothing is left to walk.
    pub(crate) fn reset(&mut self, default_spb: f64) {
        self.raw_pending.clear();
        self.free.clear();
        self.by_block.clear();
        self.queue.clear();
        for t in &mut self.targeted {
            t.clear();
        }
        for r in &mut self.replica_idx {
            r.clear();
        }
        self.pending_bytes = 0;
        for s in &mut self.snap_spb {
            *s = default_spb;
        }
        for q in &mut self.snap_queued {
            *q = 0.0;
        }
        // Candidacy resets with the detector state (everyone healthy); the
        // master re-syncs liveness right after.
        for c in &mut self.snap_candidate {
            *c = true;
        }
        self.dirty = false;
    }

    // ------------------------------------------------------------------
    // binding — the pull path
    // ------------------------------------------------------------------

    /// Pop up to `limit` entries eligible to bind on `node` right now, in
    /// admission order: entries targeted at the node (`targeted = true`,
    /// Dyrs) or entries with any replica on it (Naive), skipping entries
    /// still inside their retry backoff. Skipped and unpicked entries stay
    /// queued in their original positions.
    pub(crate) fn pull(
        &mut self,
        node: NodeId,
        targeted: bool,
        now: SimTime,
        limit: usize,
    ) -> Vec<Entry> {
        let index = if targeted {
            &self.targeted[node.index()]
        } else {
            &self.replica_idx[node.index()]
        };
        let picked: Vec<usize> = index
            .iter()
            .map(|&(_, idx)| idx)
            // retry-backoff entries (`not_before`) are not yet eligible
            .filter(|&idx| {
                self.raw_pending[idx]
                    .as_ref()
                    .expect("indexed slot live")
                    .not_before
                    <= now
            })
            .take(limit)
            .collect();
        picked
            .into_iter()
            .map(|idx| self.remove_slot(idx))
            .collect()
    }

    // ------------------------------------------------------------------
    // read-only views
    // ------------------------------------------------------------------

    /// Number of pending entries.
    pub(crate) fn len(&self) -> usize {
        self.queue.len()
    }

    /// Total pending bytes.
    pub(crate) fn bytes(&self) -> u64 {
        self.pending_bytes
    }

    /// Number of pending entries currently targeted at `node` — the depth
    /// of its bind queue. A draining node may only be decommissioned once
    /// this reaches zero (its pending work has been re-targeted away).
    pub(crate) fn targeted_len(&self, node: NodeId) -> usize {
        self.targeted[node.index()].len()
    }

    /// The node `block` is currently targeted at, if pending and targeted.
    pub(crate) fn target_of(&self, block: BlockId) -> Option<NodeId> {
        let &idx = self.by_block.get(&block)?;
        self.raw_pending[idx]
            .as_ref()
            .expect("indexed slot live")
            .target
    }

    /// Pending block ids in ascending order.
    pub(crate) fn block_ids(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.by_block.keys().copied()
    }

    /// Pending entries in admission order.
    pub(crate) fn entries(&self) -> impl Iterator<Item = &Entry> + '_ {
        self.queue
            .iter()
            .map(|&(_, idx)| self.raw_pending[idx].as_ref().expect("queued slot live"))
    }

    // ------------------------------------------------------------------
    // audit
    // ------------------------------------------------------------------

    /// Index invariants: every index agrees with the slab, and bytes and
    /// free slots balance.
    pub(crate) fn audit(&self, report: &mut simkit::audit::AuditReport) {
        let c = "sched";
        let live = self.raw_pending.iter().flatten().count();
        report.check(
            self.queue.len() == live && self.by_block.len() == live,
            c,
            "queue and block index cover exactly the live slots",
            || {
                format!(
                    "live {live}, queue {}, by_block {}",
                    self.queue.len(),
                    self.by_block.len()
                )
            },
        );
        report.check(
            self.free.len() + live == self.raw_pending.len(),
            c,
            "free list and live slots partition the slab",
            || {
                format!(
                    "free {} + live {live} != slab {}",
                    self.free.len(),
                    self.raw_pending.len()
                )
            },
        );
        let mut bytes = 0u64;
        let mut targeted_live = 0usize;
        for &(key, idx) in &self.queue {
            let Some(e) = self.raw_pending.get(idx).and_then(|s| s.as_ref()) else {
                report.check(false, c, "queued slots are live", || {
                    format!("queue references freed slot {idx}")
                });
                continue;
            };
            bytes += e.migration.bytes;
            report.check(
                OrderKey::new(self.order, &e.hint, e.seq) == key,
                c,
                "queue keys match their entries",
                || format!("{} queued under a stale key", e.migration.block),
            );
            report.check(
                self.by_block.get(&e.migration.block) == Some(&idx),
                c,
                "block index points back at the slot",
                || format!("{} not indexed at slot {idx}", e.migration.block),
            );
            for &r in &e.migration.replicas {
                report.check(
                    self.replica_idx[r.index()].contains(&(key, idx)),
                    c,
                    "replica index covers every replica holder",
                    || format!("{} missing from replica index of {r}", e.migration.block),
                );
            }
            if let Some(t) = e.target {
                targeted_live += 1;
                report.check(
                    self.targeted[t.index()].contains(&(key, idx)),
                    c,
                    "targeted entries sit in their node's bind queue",
                    || format!("{} targeted at {t} but not in its queue", e.migration.block),
                );
            }
        }
        report.check(
            bytes == self.pending_bytes,
            c,
            "pending byte total matches the entries",
            || format!("counted {bytes}, cached {}", self.pending_bytes),
        );
        let targeted_total: usize = self.targeted.iter().map(BTreeSet::len).sum();
        report.check(
            targeted_total == targeted_live,
            c,
            "bind queues hold exactly the targeted entries",
            || format!("{targeted_total} bind-queue entries for {targeted_live} targeted"),
        );
    }

    /// Make the next pass walk even if nothing changed, as if every
    /// input had.
    #[cfg(test)]
    pub(crate) fn mark_dirty(&mut self) {
        self.dirty = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::EvictionMode;
    use simkit::audit::AuditReport;

    fn mig(id: u64, block: u64, replicas: &[u32]) -> Migration {
        Migration {
            id: MigrationId(id),
            block: BlockId(block),
            bytes: 256 << 20,
            jobs: vec![JobRef {
                job: JobId(1),
                eviction: EvictionMode::Implicit,
            }],
            replicas: replicas.iter().map(|&n| NodeId(n)).collect(),
            attempt: 0,
            dest_tier: 0,
        }
    }

    fn sched() -> Scheduler {
        Scheduler::new(4, 1.0 / (140.0 * (1u64 << 20) as f64))
    }

    #[test]
    fn insert_remove_roundtrip_keeps_indexes_clean() {
        let mut s = sched();
        s.insert(mig(0, 1, &[0, 1]), 1, JobHint::default(), SimTime::ZERO);
        s.insert(mig(1, 2, &[1, 2]), 2, JobHint::default(), SimTime::ZERO);
        assert_eq!(s.len(), 2);
        assert_eq!(s.bytes(), 512 << 20);
        assert!(s.contains_block(BlockId(1)));
        let e = s.remove_block(BlockId(1)).expect("pending");
        assert_eq!(e.migration.id, MigrationId(0));
        assert_eq!(s.len(), 1);
        assert!(!s.contains_block(BlockId(1)));
        let mut report = AuditReport::new();
        s.audit(&mut report);
        assert!(report.is_clean(), "{report:?}");
    }

    #[test]
    fn slots_are_reused_lifo() {
        let mut s = sched();
        s.insert(mig(0, 1, &[0]), 1, JobHint::default(), SimTime::ZERO);
        s.insert(mig(1, 2, &[0]), 2, JobHint::default(), SimTime::ZERO);
        s.remove_block(BlockId(1));
        s.insert(mig(2, 3, &[0]), 3, JobHint::default(), SimTime::ZERO);
        // the freed slot 0 is reused, and the slab did not grow
        assert_eq!(s.raw_pending.len(), 2);
        let mut report = AuditReport::new();
        s.audit(&mut report);
        assert!(report.is_clean(), "{report:?}");
    }

    #[test]
    fn job_ref_drop_removes_orphaned_entries() {
        let mut s = sched();
        s.insert(mig(0, 1, &[0]), 1, JobHint::default(), SimTime::ZERO);
        s.add_job_ref(
            BlockId(1),
            JobRef {
                job: JobId(2),
                eviction: EvictionMode::Implicit,
            },
        );
        assert_eq!(s.drop_job_ref(BlockId(1), JobId(1)), None);
        assert_eq!(s.drop_job_ref(BlockId(1), JobId(2)), Some(MigrationId(0)));
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn pull_respects_limit_and_backoff() {
        let mut s = sched();
        for i in 0..5 {
            s.insert(mig(i, i, &[0, 1]), i + 1, JobHint::default(), SimTime::ZERO);
        }
        // entry 0 is still backing off
        let e = s.remove_block(BlockId(0)).expect("pending");
        s.insert(e.migration, 1, e.hint, SimTime::from_secs(100));
        let picked = s.pull(NodeId(0), false, SimTime::ZERO, 2);
        let blocks: Vec<u64> = picked.iter().map(|e| e.migration.block.0).collect();
        assert_eq!(blocks, vec![1, 2], "backoff skipped, limit enforced");
        assert_eq!(s.len(), 3, "unpicked entries stay queued");
        let mut report = AuditReport::new();
        s.audit(&mut report);
        assert!(report.is_clean(), "{report:?}");
    }

    #[test]
    fn store_drains_in_admission_order() {
        let mut s = sched();
        // Block ids descend while admission order (seq) ascends: the
        // queue and the pulls follow admission, the block view ascends.
        for i in 0..8u64 {
            s.insert(
                mig(i, 7 - i, &[0]),
                i + 1,
                JobHint::default(),
                SimTime::ZERO,
            );
        }
        let seqs: Vec<u64> = s.entries().map(|e| e.seq).collect();
        assert_eq!(seqs, (1..=8).collect::<Vec<u64>>(), "queue is FIFO");
        let blocks: Vec<u64> = s.block_ids().map(|b| b.0).collect();
        assert!(blocks.windows(2).all(|w| w[0] < w[1]), "block ids ascend");
        let picked = s.pull(NodeId(0), false, SimTime::ZERO, 3);
        let pulled: Vec<u64> = picked.iter().map(|e| e.seq).collect();
        assert_eq!(pulled, vec![1, 2, 3], "pull drains in admission order");
        let mut report = AuditReport::new();
        s.audit(&mut report);
        assert!(report.is_clean(), "{report:?}");
    }

    #[test]
    fn full_walks_settle_bind_queues_whole() {
        // 600 entries only node 0 holds, then 600 on nodes 0 and 1, every
        // 30th of those also on node 2. Swapping the two big nodes' speeds
        // moves hundreds of entries each pass, all after node 0's first
        // 600, so node 0's queue (over 256 entries, a quarter of them
        // edited) is rebuilt from a head it keeps and a tail the walk
        // noted, while node 2's small queue is edited during the walk. A
        // last pass moves only node 2's few entries, so the big queues
        // take their deferred edits one by one. Every pass must leave
        // each bind queue holding exactly the entries targeted at its
        // node.
        let mut s = Scheduler::new(3, 1.0);
        for i in 0..1200u64 {
            let replicas: &[u32] = match i {
                0..600 => &[0],
                _ if i % 30 == 0 => &[2, 0, 1],
                _ => &[0, 1],
            };
            s.insert(
                mig(i, i, replicas),
                i + 1,
                JobHint::default(),
                SimTime::ZERO,
            );
        }
        let obs = dyrs_obs::ObsHandle::disconnected();
        for pass in 0..7u32 {
            let fast = (pass.min(5) % 2) as usize;
            let slow2 = if pass == 6 {
                900.0
            } else {
                1.5 + f64::from(pass)
            };
            s.set_node_load(fast, 1.0, 0.0);
            s.set_node_load(1 - fast, 3.0, 0.0);
            s.set_node_load(2, slow2, 0.0);
            s.retarget(&obs);
            let mut report = AuditReport::new();
            s.audit(&mut report);
            assert!(report.is_clean(), "pass {pass}: {report:?}");
            for node in 0..3 {
                let targeted = s
                    .entries()
                    .filter(|e| e.target == Some(NodeId(node)))
                    .count();
                assert_eq!(s.targeted_len(NodeId(node)), targeted, "pass {pass}");
            }
        }
        assert!(s.targeted_len(NodeId(0)) >= engine::REBUILD_MIN);
    }

    #[test]
    fn order_keys_reproduce_the_disciplines() {
        let hint = |launch: u64, bytes: u64| JobHint {
            expected_launch: SimTime::from_secs(launch),
            total_bytes: bytes,
        };
        let fifo = |seq| OrderKey::new(MigrationOrder::Fifo, &hint(9, 9), seq);
        assert!(fifo(1) < fifo(2));
        let sjf = |b, seq| OrderKey::new(MigrationOrder::SmallestJobFirst, &hint(0, b), seq);
        assert!(sjf(1, 9) < sjf(2, 1));
        assert!(sjf(1, 1) < sjf(1, 2), "stable tie-break on arrival");
        let edf = |l, seq| OrderKey::new(MigrationOrder::EarliestDeadlineFirst, &hint(l, 0), seq);
        assert!(edf(10, 9) < edf(20, 1));
    }
}
