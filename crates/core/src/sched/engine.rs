//! The Algorithm 1 pass: the paper's full walk (§III-A2), with one
//! shortcut.
//!
//! The walk visits the queue in admission order carrying a per-node
//! finish-time trajectory `finish[n]`, initialized to
//! `spb[n]·queued[n]` from the scheduler's snapshot (`snap_spb` /
//! `snap_queued` / `snap_candidate`), gives each entry to the candidate
//! with the strict minimum `(est_finish, rank)` (`<` on the float score),
//! and advances the winner's trajectory to its score.
//!
//! # The clean-pass skip
//!
//! A walk's decisions are a pure function of the snapshot and of the
//! queue (its entries in order, with their replicas and sizes). If
//! neither changed since the last walk, the walk would recompute every
//! target as it stands, so the pass returns without touching an entry.
//! One `dirty` flag tracks this: a changed node snapshot sets it, and so
//! do an admission and the removal of a targeted entry. Removing an
//! untargeted entry leaves it clear: such an entry charged no node's
//! trajectory, so no other decision depended on it. The master's
//! `clean_pass_skips_match_full_walks` proptest checks the skip against
//! a master forced to walk every pass, and `tests/sched_equivalence.rs`
//! against a fresh master restored from the running one's checkpoint.

use super::{Entry, Pos, RetargetStats, Scheduler};
use dyrs_cluster::NodeId;
use dyrs_obs::ObsHandle;
use std::collections::BTreeSet;

/// A scored winner: `(score, rank, node)`.
type Winner = (f64, usize, NodeId);

/// The winner rule: strictly better score, or an exact score tie broken
/// by placement rank (the first replica is the likeliest data-local
/// reader, so binding there keeps the migrated copy next to the map task
/// that wants it). The winner is a pure minimum over `(score, rank)`, so
/// it cannot depend on the order candidates are scanned in.
#[inline]
fn better(candidate: f64, rank: usize, best: Option<Winner>) -> bool {
    best.is_none_or(|(bf, br, _)| candidate < bf || (candidate == bf && rank < br))
}

/// Commit a scored entry's winner: update the target and emit the span
/// event when the target changed. Returns the `(old, new)` targets when
/// they differ, for the caller to move the entry between per-node bind
/// queues.
fn commit(
    entry: &mut Entry,
    winner: Option<NodeId>,
    obs: &ObsHandle,
) -> Option<(Option<NodeId>, Option<NodeId>)> {
    let old_target = entry.target;
    entry.target = winner; // `None`: all replicas down right now
    if winner == old_target {
        return None;
    }
    if let Some(node) = winner {
        obs.migration_targeted(entry.migration.id.0, node);
    }
    Some((old_target, winner))
}

/// A full walk defers the edits to a node's bind queue when the queue is
/// empty or holds at least `REBUILD_MIN` entries, and rebuilds a deferred
/// queue once its edits reach `1 / REBUILD_SHARE` of its length (an
/// empty queue always). A bulk build costs a few nanoseconds per entry
/// and an edit tens of nanoseconds, but deferring has a fixed price
/// (noting every entry the walk targets at the node, a buffer, fresh tree
/// nodes) that only a queue spanning many tree leaves earns back:
/// rebuilding small queues made a 64-node × 500-entry dense pass slower.
const REBUILD_SHARE: usize = 4;
pub(super) const REBUILD_MIN: usize = 256;

/// The edits a full walk deferred for one node's bind queue, each list
/// in queue order.
#[derive(Debug, Clone, Default)]
pub(super) struct QueueMoves {
    /// The first deferred edit of the pass, if any.
    first: Option<Pos>,
    removed: Vec<Pos>,
    inserted: Vec<Pos>,
    /// Every entry targeted at the node from `first` on.
    tail: Vec<Pos>,
}

impl QueueMoves {
    /// The entry at `pos` leaves `queue`, the node's bind queue, or
    /// arrives in it. The edit is deferred, and `true` returned, when the
    /// queue is empty or holds at least `REBUILD_MIN` entries, and from
    /// then on: a deferred queue is not touched again until the settle.
    /// Any other edit is made at once.
    fn note(&mut self, queue: &mut BTreeSet<Pos>, pos: Pos, arrives: bool) -> bool {
        let defer = self.first.is_some() || queue.is_empty() || queue.len() >= REBUILD_MIN;
        match (defer, arrives) {
            (true, true) => self.inserted.push(pos),
            (true, false) => self.removed.push(pos),
            (false, true) => {
                queue.insert(pos);
            }
            (false, false) => {
                queue.remove(&pos);
            }
        }
        if defer {
            self.first.get_or_insert(pos);
        }
        defer
    }

    /// The entry at `pos` ends the walk targeted at the node.
    fn keep(&mut self, pos: Pos) {
        if self.first.is_some() {
            self.tail.push(pos);
        }
    }
}

impl Scheduler {
    /// One Algorithm 1 pass (§III-A2 / Algorithm 1): greedily set each
    /// pending block's target to the replica expected to finish earliest
    /// given snapshot cost and backlog, walking the queue in admission
    /// order and charging each winner's score to its node's trajectory.
    /// A pass with nothing changed since the last walk skips it (see the
    /// module docs).
    ///
    /// A walk emits `migration_targeted` span events for every entry whose
    /// winner changed and a provenance batch of every pending entry; a
    /// skipped pass records none. Nothing reads the bind queues during the
    /// walk, so it defers the edits to big queues and settles them once,
    /// at the end of the pass ([`Scheduler::settle_bind_queues`]).
    pub(crate) fn retarget(&mut self, obs: &ObsHandle) -> RetargetStats {
        let total = self.queue.len() as u64;
        if !self.dirty {
            obs.retarget_pass(0, total);
            return RetargetStats {
                rescored: 0,
                skipped: total,
                ceiling_hits: 0,
            };
        }
        let mut finish: Vec<f64> = self
            .snap_spb
            .iter()
            .zip(&self.snap_queued)
            .map(|(spb, queued)| spb * queued)
            .collect();
        // Whether some queue's edits are deferred yet: until then no entry
        // needs noting, so a pass that changes no target adds no work.
        let mut deferring = false;
        for &pos in &self.queue {
            let entry = self.raw_pending[pos.1]
                .as_mut()
                .expect("queued slots are live");
            let bytes = entry.migration.bytes as f64;
            let mut best: Option<Winner> = None;
            // Stored by index into a kept buffer: pushing, or a fresh
            // buffer per pass, made a 200-entry walk ≈40 % slower.
            let replicas = &entry.migration.replicas;
            if self.scores.len() < replicas.len() {
                self.scores.resize(replicas.len(), f64::INFINITY);
            }
            let scores = &mut self.scores[..replicas.len()];
            for ((rank, &loc), score) in replicas.iter().enumerate().zip(scores.iter_mut()) {
                let i = loc.index();
                if !self.snap_candidate[i] {
                    *score = f64::INFINITY;
                    continue;
                }
                *score = finish[i] + self.snap_spb[i] * bytes;
                if better(*score, rank, best) {
                    best = Some((*score, rank, loc));
                }
            }
            if let Some((old, new)) = commit(entry, best.map(|(_, _, n)| n), obs) {
                if let Some(t) = old {
                    let t = t.index();
                    deferring |= self.settle[t].note(&mut self.targeted[t], pos, false);
                }
                if let Some(t) = new {
                    let t = t.index();
                    deferring |= self.settle[t].note(&mut self.targeted[t], pos, true);
                }
            }
            if let (true, Some(t)) = (deferring, entry.target) {
                self.settle[t.index()].keep(pos);
            }
            // Charge the winner to its node's trajectory: later entries
            // queue behind it.
            if let Some((f, _, w)) = best {
                finish[w.index()] = f;
            }
            record_provenance(obs, entry, scores);
        }
        if deferring {
            self.settle_bind_queues();
        }
        self.dirty = false;
        obs.retarget_pass(total, 0);
        RetargetStats {
            rescored: total,
            skipped: 0,
            ceiling_hits: 0,
        }
    }

    /// Apply the bind-queue edits a full walk deferred. A queue whose
    /// edits are a large share of it is rebuilt from queue order with one
    /// bulk build (`BTreeSet::from_iter` over sorted input): the queue up
    /// to its first deferred edit, then every entry the walk targeted at
    /// the node from there on. Any other deferred queue takes its edits
    /// one by one.
    fn settle_bind_queues(&mut self) {
        for (queue, moves) in self.targeted.iter_mut().zip(&mut self.settle) {
            let Some(first) = moves.first.take() else {
                continue;
            };
            let edits = moves.removed.len() + moves.inserted.len();
            if edits * REBUILD_SHARE >= queue.len() {
                let head = queue.range(..first).copied();
                let rebuilt: BTreeSet<Pos> = head.chain(moves.tail.iter().copied()).collect();
                *queue = rebuilt;
            } else {
                for pos in &moves.removed {
                    queue.remove(pos);
                }
                queue.extend(moves.inserted.iter().copied());
            }
            moves.removed.clear();
            moves.inserted.clear();
            moves.tail.clear();
        }
    }
}

/// Stream one scored entry into the pass's provenance batch: its
/// replicas, their scores by rank (∞ for a non-candidate) and the
/// committed winner.
fn record_provenance(obs: &ObsHandle, entry: &Entry, scores: &[f64]) {
    obs.provenance_push(
        entry.migration.id.0,
        entry.migration.block,
        entry.migration.bytes,
        entry.target,
        &entry.migration.replicas,
        scores,
    );
}
