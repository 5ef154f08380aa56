//! The Algorithm 1 passes: the production plan walk
//! ([`SchedEngine::Planned`]) and the paper-shaped full rescan
//! ([`SchedEngine::Reference`]), which is both the test oracle and the
//! plan walk's dense fallback.
//!
//! Both score exclusively from the scheduler's per-node snapshot
//! (`snap_spb` / `snap_queued` / `snap_candidate`) with the
//! same winner rule — the strict minimum over `(est_finish, rank)` with
//! `<` on the float score — so their decisions are bit-identical, not
//! merely close.
//!
//! # Equivalence argument
//!
//! The reference pass walks the queue in admission order carrying a
//! per-node finish-time trajectory `finish[n]`, initialized to
//! `spb[n]·queued[n]` and advanced to the winner's score whenever an
//! entry picks `n`. An entry's candidate score on `n` therefore depends
//! only on (a) the snapshot values of `n` and (b) the set of *earlier*
//! queue entries targeted at `n`. The plan walk exploits the
//! contrapositive: if neither changed since the last pass, the cached
//! score is still exact.
//!
//! * Every entry whose decision *could* change is in the visit set: a
//!   snapshot change dirties the node, and `replica_idx[node]` contains
//!   every entry that can see it; new admissions enter via
//!   `dirty_entries`; a removal of a targeted entry dirties its node.
//! * Visits happen in ascending queue order (the plan is sorted), so when
//!   entry `e` is scored every dirty node's trajectory is live-correct up
//!   to `e`'s position, and every clean candidate's cached score is exact
//!   by induction.
//! * When a visited entry's winner moves between *clean* nodes, those
//!   nodes' trajectories change downstream of `e`: the walk materializes
//!   the node's live trajectory from the `targeted` index (the previous
//!   targeted entry's cached winner score — an exact cached value, never
//!   re-derived arithmetic, because `a + b − b ≠ a` in floating point)
//!   and extends the visit set with the node's replica holders after
//!   `e`'s position. This is the cascade that keeps the greedy chain
//!   identical to the reference walk.
//!
//! `crates/core/tests/sched_equivalence.rs` checks the argument per pass.
//!
//! # Density ceiling
//!
//! The plan walk pays per visit for what the full walk gets for free: a
//! sorted, deduped visit plan, tree lookups for cascade trajectories, and
//! slab reads in admission order rather than slab order. Once a pass
//! would visit more than [`CASCADE_CEILING`] of the queue, the sequential
//! full walk is cheaper, so the pass checks at three prices:
//!
//! 1. before building the plan, against the summed dirty index sizes (an
//!    upper bound on the deduped plan, O(dirty nodes) to compute);
//! 2. after building it, against the deduped plan;
//! 3. while walking, against the plan plus its cascade growth.
//!
//! Whichever check trips hands the pass to the full walk. Decisions are
//! unaffected by construction — every target the abandoned prefix
//! committed is the target the full walk recomputes — so the switch costs
//! time, never fidelity. Each switch bumps the `sched.cascade_ceiling`
//! counter and is flagged via [`RetargetStats::ceiling_hits`].

use super::{Entry, Pos, RetargetStats, SchedEngine, Scheduler, CASCADE_CEILING};
use dyrs_cluster::NodeId;
use dyrs_obs::ObsHandle;
use std::collections::BTreeSet;
use std::ops::Bound::{Excluded, Unbounded};

/// A scored winner: `(score, rank, node)`.
type Winner = (f64, usize, NodeId);

/// The winner rule shared by both passes: strictly better score, or an
/// exact score tie broken by placement rank (the first replica is the
/// likeliest data-local reader, so binding there keeps the migrated copy
/// next to the map task that wants it). The winner is a pure minimum over
/// `(score, rank)`, so it cannot depend on the order candidates are
/// scanned in.
#[inline]
fn better(candidate: f64, rank: usize, best: Option<Winner>) -> bool {
    best.is_none_or(|(bf, br, _)| candidate < bf || (candidate == bf && rank < br))
}

/// Touch-sweep block size for the plan walk: how many upcoming planned
/// slots get streamed into cache ahead of the scoring cursor. Sized so a
/// block's entry lines and side buffers (~a few hundred bytes per slot)
/// sit comfortably in L2 until the cursor consumes them.
const TOUCH_BLOCK: usize = 256;

/// Touch one planned slot's slab lines so they are in flight before the
/// walk cursor arrives. The crate forbids unsafe code, so streaming is
/// expressed as ordinary loads pinned by `black_box` rather than
/// prefetch intrinsics; called from a tight sweep loop the loads
/// pipeline across iterations and run at memory bandwidth.
#[inline]
fn touch_entry(slab: &[Option<Entry>], idx: usize) {
    use std::hint::black_box;
    let Some(Some(e)) = slab.get(idx) else {
        return;
    };
    // A load per region of the entry the visit will read (field order is
    // unspecified, so spread the touches across the struct).
    black_box(e.migration.bytes);
    black_box(e.migration.id.0);
    black_box(e.seq);
    black_box(e.winner_score);
    black_box(e.cache_valid);
}

/// Touch a slot's heap-side buffers (scores, replicas). Run as a
/// second sweep over a block whose entry lines are already resident:
/// the buffer pointers then come from cache and the buffer misses
/// themselves pipeline, instead of serializing behind the slab miss.
#[inline]
fn touch_buffers(slab: &[Option<Entry>], idx: usize) {
    use std::hint::black_box;
    let Some(Some(e)) = slab.get(idx) else {
        return;
    };
    black_box(e.scores.first().copied());
    black_box(e.migration.replicas.first().copied());
}

/// Commit a scored entry's winner: update the target, cache the winner
/// score, and emit the span event when the target changed. Returns the
/// `(old, new)` targets when they differ, for the caller to move the
/// entry between per-node bind queues.
fn commit(
    entry: &mut Entry,
    best: Option<Winner>,
    obs: &ObsHandle,
) -> Option<(Option<NodeId>, Option<NodeId>)> {
    let old_target = entry.target;
    match best {
        Some((f, _, node)) => {
            entry.target = Some(node);
            entry.winner_score = f;
            if old_target != Some(node) {
                obs.migration_targeted(entry.migration.id.0, node);
            }
        }
        None => {
            entry.target = None; // all replicas down right now
            entry.winner_score = f64::INFINITY;
        }
    }
    entry.cache_valid = true;
    (entry.target != old_target).then_some((old_target, entry.target))
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
    /// One Algorithm 1 pass with the configured engine. Emits
    /// `migration_targeted` span events for every entry whose winner
    /// changed and a provenance batch covering the rescored entries.
    pub(crate) fn retarget(&mut self, obs: &ObsHandle) -> RetargetStats {
        match self.cfg.engine {
            SchedEngine::Planned => self.pass_planned(obs),
            SchedEngine::Reference => self.pass_reference(obs),
        }
    }

    /// A candidate node's finish-time trajectory just *before* queue
    /// position `pos`: the cached winner score of the last earlier entry
    /// targeted at the node, or the snapshot base when none is. Reading
    /// the cached value back (rather than recomputing) is what keeps the
    /// cascade bit-identical to the reference walk.
    fn finish_before(&self, node: usize, pos: Pos) -> f64 {
        match self.targeted[node].range(..pos).next_back() {
            Some(&(_, idx)) => {
                self.raw_pending[idx]
                    .as_ref()
                    .expect("targeted slots are live")
                    .winner_score
            }
            None => self.snap_spb[node] * self.snap_queued[node],
        }
    }

    /// The paper's full rescan (§III-A2 / Algorithm 1): greedily set each
    /// pending block's target to the replica expected to finish earliest
    /// given snapshot cost and backlog, walking the queue in admission
    /// order and charging each winner's score to its node's trajectory.
    /// Entries are scored in place in their slab slots.
    ///
    /// Nothing reads the bind queues during the walk, so it defers the
    /// edits to big queues and settles them once, at the end of the pass
    /// ([`Scheduler::settle_bind_queues`]).
    fn pass_reference(&mut self, obs: &ObsHandle) -> RetargetStats {
        let mut finish: Vec<f64> = self
            .snap_spb
            .iter()
            .zip(&self.snap_queued)
            .map(|(spb, queued)| spb * queued)
            .collect();
        let total = self.queue.len() as u64;
        // Whether some queue's edits are deferred yet: until then no entry
        // needs noting, so a pass that changes no target adds no work.
        let mut deferring = false;
        for &pos in &self.queue {
            let entry = self.raw_pending[pos.1]
                .as_mut()
                .expect("queued slots are live");
            let bytes = entry.migration.bytes as f64;
            let mut best: Option<Winner> = None;
            for (rank, &loc) in entry.migration.replicas.iter().enumerate() {
                let i = loc.index();
                if !self.snap_candidate[i] {
                    entry.scores[rank] = f64::INFINITY;
                    continue;
                }
                let score = finish[i] + self.snap_spb[i] * bytes;
                entry.scores[rank] = score;
                if better(score, rank, best) {
                    best = Some((score, rank, loc));
                }
            }
            if let Some((old, new)) = commit(entry, best, obs) {
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
            record_provenance(obs, entry);
        }
        if deferring {
            self.settle_bind_queues();
        }
        // A full pass leaves nothing stale.
        self.dirty_nodes.clear();
        self.dirty_entries.clear();
        obs.retarget_pass(total, 0);
        RetargetStats {
            rescored: total,
            skipped: 0,
            ceiling_hits: 0,
        }
    }

    /// The production pass: rescore only entries whose decision inputs
    /// changed since the last pass (dirty nodes' replica holders, new
    /// admissions, and cascade-affected entries), in admission order —
    /// unless that visit set is dense, in which case the full walk runs
    /// (see the module docs on the density ceiling).
    ///
    /// * The visit plan is a sorted `Vec` (dirty entries plus dirty
    ///   nodes' replica holders, deduped), so the walk is a pointer bump
    ///   that can stream slab lines ahead of the cursor.
    /// * Cascade extensions go to a (usually tiny) side set, consulted
    ///   alongside the plan head.
    /// * Entry score buffers are rewritten in place; the steady-state hot
    ///   path allocates nothing per entry.
    fn pass_planned(&mut self, obs: &ObsHandle) -> RetargetStats {
        let total = self.queue.len() as u64;
        if self.dirty_nodes.is_empty() && self.dirty_entries.is_empty() {
            // Steady state: nothing moved, every cached decision stands.
            obs.retarget_pass(0, total);
            return RetargetStats {
                rescored: 0,
                skipped: total,
                ceiling_hits: 0,
            };
        }
        let dense = |visits: usize| visits as f64 > CASCADE_CEILING * total as f64;
        // Ceiling check 1: the summed dirty index sizes bound the deduped
        // plan from above, and every index length is O(1). At that density
        // the plan sort alone costs more than the full walk, so skip it.
        let bound = self.dirty_entries.len()
            + self
                .dirty_nodes
                .iter()
                .map(|&d| self.replica_idx[d].len())
                .sum::<usize>();
        if dense(bound) {
            return self.finish_at_ceiling(obs);
        }
        // The visit plan, sorted by (OrderKey, slot). Every dirty node's
        // replica set is drained one element per turn, round-robin: each
        // set's iteration is a serial pointer chase through scattered tree
        // leaves, but the chases are mutually independent, so interleaving
        // them keeps many leaf misses in flight. The order they land in
        // does not matter; the plan is sorted below.
        let mut plan: Vec<Pos> = Vec::with_capacity(bound);
        plan.extend(self.dirty_entries.iter().copied());
        let mut iters: Vec<_> = self
            .dirty_nodes
            .iter()
            .map(|&d| self.replica_idx[d].iter())
            .collect();
        loop {
            let mut any = false;
            for it in &mut iters {
                if let Some(&x) = it.next() {
                    plan.push(x);
                    any = true;
                }
            }
            if !any {
                break;
            }
        }
        plan.sort_unstable();
        plan.dedup();
        // Ceiling check 2: the bound double-counts entries with several
        // dirty replicas; the deduped plan is exact.
        if dense(plan.len()) {
            return self.finish_at_ceiling(obs);
        }
        // Live finish-time trajectories, maintained only for nodes whose
        // downstream scores are in motion; `None` means the node's cached
        // trajectory is still exact and entries read their cached scores.
        let mut finish: Vec<Option<f64>> = vec![None; self.snap_spb.len()];
        for &d in &self.dirty_nodes {
            finish[d] = Some(self.snap_spb[d] * self.snap_queued[d]);
        }
        let mut extra: BTreeSet<Pos> = BTreeSet::new();
        // Cascade growth, for the mid-pass ceiling check.
        let mut grown = 0usize;
        let mut rescored = 0u64;
        // Cursor into `plan`, and the touch-sweep frontier. The sweep
        // streams the next block of planned slots through a tight,
        // dependency-free loop so the core keeps many cache misses in
        // flight at once; the walk then scores against L2-warm lines.
        // Two designs that do NOT work: touching slots one-by-one from
        // inside the walk (the per-visit scoring work fills the reorder
        // window, collapsing the overlap to a couple of loads in flight),
        // and sweeping the whole plan up front (a large plan's early lines
        // are evicted again before the cursor reaches them).
        let mut pi = 0usize;
        let mut swept = 0usize;
        // Reusable per-visit score scratch (rank → score).
        let mut scratch: Vec<f64> = Vec::new();
        loop {
            if swept < plan.len() && swept < pi + TOUCH_BLOCK / 2 {
                let hi = (pi + TOUCH_BLOCK).min(plan.len());
                for &(_, idx) in &plan[swept..hi] {
                    touch_entry(&self.raw_pending, idx);
                }
                for &(_, idx) in &plan[swept..hi] {
                    touch_buffers(&self.raw_pending, idx);
                }
                swept = hi;
            }
            // Visit the minimum of the plan head and the cascade side
            // set, advancing both when they hold the same entry (a cascade
            // can re-add a planned entry; it is still visited once).
            let pos = match (plan.get(pi).copied(), extra.first().copied()) {
                (None, None) => break,
                (Some(a), None) => {
                    pi += 1;
                    a
                }
                (Some(a), Some(b)) if a <= b => {
                    pi += 1;
                    if a == b {
                        extra.pop_first();
                    }
                    a
                }
                (_, Some(b)) => {
                    extra.pop_first();
                    b
                }
            };
            rescored += 1;
            // Phase 1 — score with shared borrows only, so the cascade can
            // read other entries' cached trajectories. Scores land in the
            // scratch vector rank by rank, non-candidates as ∞.
            let entry = self.raw_pending[pos.1]
                .as_ref()
                .expect("visited slots are live");
            let bytes = entry.migration.bytes as f64;
            let had_cache = entry.cache_valid;
            let old_target = entry.target;
            let mut best: Option<Winner> = None;
            scratch.clear();
            for (rank, &loc) in entry.migration.replicas.iter().enumerate() {
                let i = loc.index();
                if !self.snap_candidate[i] {
                    scratch.push(f64::INFINITY);
                    continue;
                }
                let score = match finish[i] {
                    // Node in motion: live trajectory, like the reference.
                    Some(f) => f + self.snap_spb[i] * bytes,
                    // Clean node: the cached score is exact.
                    None if had_cache && entry.scores[rank].is_finite() => entry.scores[rank],
                    // Never scored here (new admission, or a candidacy
                    // flip that dirtied the node in any case): materialize
                    // from the targeted index.
                    None => self.finish_before(i, pos) + self.snap_spb[i] * bytes,
                };
                scratch.push(score);
                if better(score, rank, best) {
                    best = Some((score, rank, loc));
                }
            }
            let new_target = best.map(|(_, _, n)| n);
            // A winner moving on or off a *clean* node changes that node's
            // trajectory for every later queue position: switch the node
            // to live accounting (seeded from the exact cached state just
            // before this position) and cascade to its later replica
            // holders.
            if old_target != new_target {
                for moved in [old_target, new_target].into_iter().flatten() {
                    let i = moved.index();
                    if finish[i].is_none() {
                        finish[i] = Some(self.finish_before(i, pos));
                        let before = extra.len();
                        extra.extend(
                            self.replica_idx[i]
                                .range((Excluded(pos), Unbounded))
                                .copied(),
                        );
                        grown += extra.len() - before;
                    }
                }
            }
            // Phase 2 — commit the scratch scores and the winner in place.
            let entry = self.raw_pending[pos.1]
                .as_mut()
                .expect("visited slots are live");
            entry.scores.copy_from_slice(&scratch);
            // The cascade reads the bind queues (`finish_before`), so the
            // plan walk moves the entry at once.
            if let Some((old, new)) = commit(entry, best, obs) {
                if let Some(t) = old {
                    self.targeted[t.index()].remove(&pos);
                }
                if let Some(t) = new {
                    self.targeted[t.index()].insert(pos);
                }
            }
            record_provenance(obs, entry);
            // Charge the winner to its node's live trajectory (the clean
            // same-winner case needs no update: the cached chain already
            // carries this exact score forward).
            if let Some((f, _, w)) = best {
                if let Some(live) = &mut finish[w.index()] {
                    *live = f;
                }
            }
            // Ceiling check 3: a cascade that keeps fanning out can blow
            // past the plan. Decisions committed so far are final-correct,
            // so switching to the full walk mid-pass is safe (it
            // recomputes them identically).
            if dense(plan.len() + grown) {
                return self.finish_at_ceiling(obs);
            }
        }
        self.dirty_nodes.clear();
        self.dirty_entries.clear();
        let skipped = total - rescored;
        obs.retarget_pass(rescored, skipped);
        RetargetStats {
            rescored,
            skipped,
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

    /// Hand a dense pass to the full walk. Any targets an abandoned plan
    /// walk committed are recomputed identically (so no duplicate
    /// `migration_targeted` events fire — the winners already match);
    /// the provenance it staged is discarded in favor of the full batch.
    fn finish_at_ceiling(&mut self, obs: &ObsHandle) -> RetargetStats {
        obs.counter_add("sched.cascade_ceiling", 1);
        obs.provenance_discard();
        let mut stats = self.pass_reference(obs);
        stats.ceiling_hits = 1;
        stats
    }
}

/// Stream one scored entry into the pass's provenance batch: its
/// replicas, their scores by rank (∞ for a non-candidate) and the
/// committed winner.
fn record_provenance(obs: &ObsHandle, entry: &Entry) {
    obs.provenance_push(
        entry.migration.id.0,
        entry.migration.block,
        entry.migration.bytes,
        entry.target,
        &entry.migration.replicas,
        &entry.scores,
    );
}
