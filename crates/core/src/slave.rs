//! The DYRS slave (paper §III-A1, §III-B, §IV).
//!
//! Runs inside each DataNode. It keeps a **short FIFO local queue** of
//! bound migrations — deep enough that the disk never idles while the
//! slave waits for the next heartbeat, as shallow as possible so binding
//! stays late (§III-A1) — executes migrations **strictly one at a time**
//! to avoid seek thrashing (§III-B), estimates its per-byte migration cost
//! with an EWMA refreshed mid-migration (§IV-A), and manages the memory
//! buffer with per-block job reference lists (§III-C3).
//!
//! The slave is a reactive state machine: the caller (the simulator's
//! event loop) invokes `try_start` after anything that could unblock work
//! and applies the returned actions to the hardware model.

use crate::config::DyrsConfig;
use crate::estimator::MigrationEstimator;
use crate::refs::ReferenceLists;
use crate::types::{EvictionMode, JobRef, Migration};
use dyrs_cluster::NodeId;
use dyrs_dfs::{BlockId, JobId};
use dyrs_obs::{cause, ObsHandle};
use dyrs_tiers::{TierResident, TierStore};
use simkit::{SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// A migration the slave has started on its disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StartedMigration {
    /// The block being copied.
    pub block: BlockId,
    /// Its size in bytes.
    pub bytes: u64,
}

/// A finished migration, reported back to the caller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompletedMigration {
    /// The block now buffered in memory.
    pub block: BlockId,
    /// Its size.
    pub bytes: u64,
    /// How long the copy took (the simulated `mlock` duration).
    pub duration: SimDuration,
    /// True if the block was evicted immediately on completion because
    /// every interested job already read it from disk mid-migration.
    pub evicted_immediately: bool,
}

/// A block evicted from the buffer, with its size for unpinning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Evicted block.
    pub block: BlockId,
    /// Bytes released.
    pub bytes: u64,
    /// Where the copy went: `Some(tier)` when a lower buffer tier had
    /// room and kept it (demotion), `None` when it was dropped back to
    /// disk-only — always `None` on the legacy 2-tier stack.
    pub demoted_to: Option<u8>,
}

/// What the slave tells the master each heartbeat (§III-D).
///
/// This is a wire payload (`dyrs-net`'s `Message::Heartbeat` carries
/// it): scalar fields only, so its encoding is trivially byte-stable —
/// any roll-up added later must use `BTreeMap`/sorted collections.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeartbeatReport {
    /// Estimated migration cost, seconds per byte.
    pub secs_per_byte: f64,
    /// Bytes bound to this slave but not yet migrated (queue + active).
    pub queued_bytes: u64,
    /// Free slots in the local queue (how much the slave can pull).
    pub queue_space: usize,
}

/// The migration cost (seconds per byte) an uncalibrated slave
/// advertises: finite but prohibitive, so Algorithm 1 never targets a
/// node whose actual conditions are still unknown.
pub const UNCALIBRATED_SECS_PER_BYTE: f64 = 1.0;

/// Counters for reporting and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlaveStats {
    /// Migrations completed into memory.
    pub completed: u64,
    /// Bytes migrated into memory.
    pub bytes_migrated: u64,
    /// Queued migrations cancelled because the block was read first.
    pub missed_reads: u64,
    /// Blocks evicted from the buffer.
    pub evictions: u64,
    /// Times `try_start` stalled because the buffer was full.
    pub memory_stalls: u64,
}

struct Active {
    migration: Migration,
    started: SimTime,
}

/// What [`Slave::revoke`] found bound for the block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Revoked {
    /// A queued (unstarted) entry was removed.
    Queued,
    /// An in-flight migration was cancelled; the caller must cancel its
    /// disk stream.
    Active,
    /// Nothing was bound for the block (stale revocation).
    NotBound,
}

/// The DYRS slave state machine for one node.
///
/// ```
/// use dyrs::slave::Slave;
/// use dyrs::types::{EvictionMode, JobRef, Migration, MigrationId};
/// use dyrs::DyrsConfig;
/// use dyrs_cluster::NodeId;
/// use dyrs_dfs::{BlockId, JobId};
/// use simkit::{SimDuration, SimTime};
///
/// const MB: u64 = 1 << 20;
/// let bw = 140.0 * MB as f64;
/// let mut slave = Slave::new(NodeId(0), DyrsConfig::default(), bw, 8 * 256 * MB, 256 * MB);
///
/// // the startup probe measures the disk before any work is accepted
/// assert_eq!(slave.queue_space(), 0);
/// slave.calibrate(32 * MB, SimDuration::from_secs_f64(32.0 * MB as f64 / bw));
/// assert!(slave.queue_space() > 0);
///
/// // bind one migration, run it, and the block lands in the buffer
/// slave.on_bind(vec![Migration {
///     id: MigrationId(0),
///     block: BlockId(9),
///     bytes: 256 * MB,
///     jobs: vec![JobRef { job: JobId(1), eviction: EvictionMode::Implicit }],
///     replicas: vec![NodeId(0)],
///     attempt: 0,
///     dest_tier: 0,
/// }]);
/// let started = slave.try_start(SimTime::ZERO).unwrap();
/// assert_eq!(started.block, BlockId(9));
/// let done = slave.on_migration_complete(SimTime::from_secs(2));
/// assert!(slave.has_buffered(BlockId(9)));
///
/// // implicit eviction: the buffered copy is dropped as soon as the job reads it
/// let evicted = slave.on_read(BlockId(9), JobId(1));
/// assert_eq!(evicted.len(), 1);
/// assert_eq!(slave.buffered_bytes(), 0);
/// # let _ = done;
/// ```
pub struct Slave {
    /// Node this slave runs on.
    pub node: NodeId,
    config: DyrsConfig,
    /// Best-case disk bandwidth (for queue-depth sizing).
    disk_bw: f64,
    /// Reference block size for queue-depth sizing.
    reference_block: u64,
    queue: VecDeque<Migration>,
    /// In-flight migrations (length ≤ `config.max_concurrent_migrations`;
    /// exactly one under the paper's serialized default, §III-B).
    active: Vec<Active>,
    estimator: MigrationEstimator,
    memory: TierStore,
    refs: ReferenceLists,
    /// block → bytes pinned for it.
    buffered: BTreeMap<BlockId, u64>,
    /// Jobs that opted into implicit eviction.
    implicit_jobs: BTreeSet<JobId>,
    /// False until the startup probe read has measured the disk. An
    /// uncalibrated slave reports zero queue space so binding decisions
    /// never rely on the optimistic idle-disk prior (a cold slow node
    /// would otherwise accept migrations it takes tens of seconds to run —
    /// and binding is final, §III-A).
    calibrated: bool,
    stats: SlaveStats,
    /// Lifecycle span + gauge recorder; disconnected unless the driver
    /// attached one.
    obs: ObsHandle,
}

impl Slave {
    /// A slave on `node` with the given buffer capacity and disk speed.
    pub fn new(
        node: NodeId,
        config: DyrsConfig,
        disk_bw: f64,
        mem_capacity: u64,
        reference_block: u64,
    ) -> Self {
        Self::new_tiered(node, config, disk_bw, &[mem_capacity], reference_block)
    }

    /// A slave over an explicit buffer-tier stack (`buffer_capacities[0]`
    /// = memory, then NVMe/SSD/... fastest first). Migrations land in
    /// memory; pressure evictions demote to the first lower tier with
    /// room. [`Slave::new`] is the memory-only special case.
    pub fn new_tiered(
        node: NodeId,
        config: DyrsConfig,
        disk_bw: f64,
        buffer_capacities: &[u64],
        reference_block: u64,
    ) -> Self {
        let estimator = MigrationEstimator::new(disk_bw, config.ewma_alpha);
        Slave {
            node,
            config,
            disk_bw,
            reference_block,
            queue: VecDeque::new(),
            active: Vec::new(),
            estimator,
            memory: TierStore::new(buffer_capacities),
            refs: ReferenceLists::new(),
            buffered: BTreeMap::new(),
            implicit_jobs: BTreeSet::new(),
            calibrated: false,
            stats: SlaveStats::default(),
            obs: ObsHandle::default(),
        }
    }

    /// Attach an observability recorder. Lifecycle transitions owned by
    /// the slave (started / finished / evicted / slave-side aborts) and
    /// the per-heartbeat estimate-overdue gauge are recorded through it.
    pub fn attach_obs(&mut self, obs: ObsHandle) {
        self.obs = obs;
    }

    /// Statistics so far.
    pub fn stats(&self) -> SlaveStats {
        self.stats
    }

    /// The estimator (exposed for Fig. 9's estimate time-series).
    pub fn estimator(&self) -> &MigrationEstimator {
        &self.estimator
    }

    /// Buffer accounting (exposed for Fig. 7's memory-usage series).
    /// Tier 0 of the store carries the legacy memory-pool counters.
    pub fn memory(&self) -> &TierStore {
        &self.memory
    }

    /// The middle tier (if any) holding a demoted copy of `block`.
    pub fn tier_resident(&self, block: BlockId) -> Option<TierResident> {
        self.memory.resident(block.0)
    }

    /// Bytes currently buffered.
    pub fn buffered_bytes(&self) -> u64 {
        self.memory.used()
    }

    /// True if `block` is buffered here.
    pub fn has_buffered(&self, block: BlockId) -> bool {
        self.buffered.contains_key(&block)
    }

    /// Number of queued (not yet started) migrations.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// True if at least one migration is currently running.
    pub fn is_migrating(&self) -> bool {
        !self.active.is_empty()
    }

    /// Blocks currently being migrated (at most one under the paper's
    /// serialized default).
    pub fn active_blocks(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.active.iter().map(|a| a.migration.block)
    }

    /// The block currently being migrated, if exactly one is in flight
    /// (convenience for the serialized default).
    pub fn active_block(&self) -> Option<BlockId> {
        match self.active.as_slice() {
            [a] => Some(a.migration.block),
            _ => None,
        }
    }

    /// True if `block` is bound here but not yet buffered (queued or
    /// actively migrating) — used to route missed-read notifications.
    pub fn has_pending(&self, block: BlockId) -> bool {
        self.active_blocks().any(|b| b == block) || self.queue.iter().any(|m| m.block == block)
    }

    /// The ideal local queue depth (§III-B): enough blocks to cover one
    /// heartbeat interval at full disk speed, plus configured slack.
    pub fn queue_depth(&self) -> usize {
        self.config.queue_depth(self.reference_block, self.disk_bw)
    }

    /// Free queue slots — how many migrations the slave may pull now.
    /// Zero until the startup calibration probe completes.
    pub fn queue_space(&self) -> usize {
        if !self.calibrated {
            return 0;
        }
        let occupied = self.queue.len() + self.active.len();
        self.queue_depth().saturating_sub(occupied)
    }

    /// True once the startup probe has measured the disk.
    pub fn is_calibrated(&self) -> bool {
        self.calibrated
    }

    /// Feed the startup probe result: a `bytes`-sized raw disk read that
    /// took `duration` under current conditions. Seeds the estimator and
    /// opens the local queue for pulls.
    pub fn calibrate(&mut self, bytes: u64, duration: SimDuration) {
        self.estimator.on_complete(bytes, duration);
        self.calibrated = true;
    }

    /// Blocks bound here but not yet buffered: local queue, then active
    /// migrations (exposed for auditing).
    pub fn bound_blocks(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.queue
            .iter()
            .map(|m| m.block)
            .chain(self.active_blocks())
    }

    /// Bytes bound here but not yet buffered (queue + active).
    pub fn backlog_bytes(&self) -> u64 {
        let q: u64 = self.queue.iter().map(|m| m.bytes).sum();
        q + self.active.iter().map(|a| a.migration.bytes).sum::<u64>()
    }

    /// Accept migrations bound to this slave by the master. Reference
    /// lists gain every interested job now ("a job ID is appended ... when
    /// the slave receives a command to migrate the block", §III-C3).
    pub fn on_bind(&mut self, migrations: Vec<Migration>) {
        for m in migrations {
            for r in &m.jobs {
                self.note_job_ref(*r, m.block);
            }
            self.queue.push_back(m);
        }
    }

    /// Register one more job's interest in an already-buffered block
    /// (the master's `add_refs` outcome).
    pub fn add_ref(&mut self, block: BlockId, r: JobRef) {
        self.note_job_ref(r, block);
    }

    fn note_job_ref(&mut self, r: JobRef, block: BlockId) {
        self.refs.add(r.job, block);
        if r.eviction == EvictionMode::Implicit {
            self.implicit_jobs.insert(r.job);
        }
    }

    /// Start the next queued migration if the disk is free and the buffer
    /// has room. Returns the migration to start as a disk stream, or
    /// `None` if idle, busy, or stalled on memory.
    ///
    /// Queued migrations whose blocks lost all job references (cancelled
    /// by reads or evictions) are silently discarded here.
    pub fn try_start(&mut self, now: SimTime) -> Option<StartedMigration> {
        if self.active.len() >= self.config.max_concurrent_migrations {
            return None;
        }
        while let Some(head) = self.queue.front() {
            if self.refs.is_unreferenced(head.block) {
                // Every interested job already read it or died — skip.
                self.obs
                    .migration_aborted(head.id.0, Some(self.node), cause::UNREFERENCED);
                self.queue.pop_front();
                continue;
            }
            if self.buffered.contains_key(&head.block) {
                // Already buffered here (possible when a master restart
                // loses the soft state and a later request re-binds a block
                // this slave still holds, §III-C1). The references added at
                // bind time keep the copy alive; migrating again would
                // double-pin the buffer.
                self.obs
                    .migration_aborted(head.id.0, Some(self.node), cause::ALREADY_BUFFERED);
                self.queue.pop_front();
                continue;
            }
            // Every migration lands in memory (whatever `dest_tier` a peer
            // sent), so the bytes are pinned for the flight.
            if !self.memory.fits(head.bytes) {
                // §IV-A1: migrations queue until buffer space is available.
                self.stats.memory_stalls += 1;
                return None;
            }
            let m = self
                .queue
                .pop_front()
                .expect("queue non-empty: front was just peeked");
            assert!(self.memory.pin(m.bytes), "fits() checked above");
            let start = StartedMigration {
                block: m.block,
                bytes: m.bytes,
            };
            self.obs.migration_started(m.id.0, self.node);
            self.active.push(Active {
                migration: m,
                started: now,
            });
            return Some(start);
        }
        None
    }

    /// The active migration's disk stream finished: the block is now in
    /// memory (simulated `mlock` returned). With the serialized default
    /// there is exactly one in flight; under the concurrency ablation the
    /// caller identifies which block's stream completed.
    pub fn on_migration_complete(&mut self, now: SimTime) -> CompletedMigration {
        assert_eq!(
            self.active.len(),
            1,
            "ambiguous completion; use on_migration_complete_block"
        );
        let block = self.active[0].migration.block;
        self.on_migration_complete_block(now, block)
    }

    /// Complete the in-flight migration of `block` specifically.
    pub fn on_migration_complete_block(
        &mut self,
        now: SimTime,
        block: BlockId,
    ) -> CompletedMigration {
        let idx = self
            .active
            .iter()
            .position(|a| a.migration.block == block)
            .expect("no active migration for block");
        let active = self.active.remove(idx);
        let duration = now.saturating_since(active.started);
        let m = active.migration;
        if self.obs.is_enabled() {
            // Realized-vs-estimated error (signed, seconds), sampled
            // before this completion teaches the estimator.
            let est = self.estimator.estimate(m.bytes).as_secs_f64();
            self.obs.gauge(
                "node.estimate_error_secs",
                self.node.index() as u64,
                duration.as_secs_f64() - est,
            );
        }
        self.estimator.on_complete(m.bytes, duration);
        self.stats.completed += 1;
        self.stats.bytes_migrated += m.bytes;
        // If every interested job already read the block from disk while it
        // was migrating, buffering it would be a pure memory leak.
        if self.refs.is_unreferenced(m.block) {
            self.memory.unpin(m.bytes);
            self.stats.evictions += 1;
            self.obs
                .migration_evicted(m.id.0, self.node, cause::UNREFERENCED);
            return CompletedMigration {
                block: m.block,
                bytes: m.bytes,
                duration,
                evicted_immediately: true,
            };
        }
        // A stale demoted copy is superseded by the fresh copy in memory;
        // releasing it keeps residency single-tier.
        self.memory.release(m.block.0);
        self.buffered.insert(m.block, m.bytes);
        self.obs.migration_finished(m.id.0, self.node, duration);
        CompletedMigration {
            block: m.block,
            bytes: m.bytes,
            duration,
            evicted_immediately: false,
        }
    }

    /// Heartbeat processing: refresh the in-progress estimate if the
    /// active migration is overdue (§IV-A) and report estimate + backlog.
    pub fn on_heartbeat(&mut self, now: SimTime) -> HeartbeatReport {
        if self.obs.is_enabled() {
            // How far the worst in-flight migration is past its *current*
            // estimate, sampled before the refresh below corrects it. A
            // nonzero sample is exactly the condition that fires the
            // §IV-A in-progress refresh (elapsed > estimate).
            let overdue = self
                .active
                .iter()
                .map(|a| {
                    let elapsed = now.saturating_since(a.started).as_secs_f64();
                    let estimate = self.estimator.estimate(a.migration.bytes).as_secs_f64();
                    (elapsed - estimate).max(0.0)
                })
                .fold(0.0, f64::max);
            self.obs.gauge(
                "node.estimate_overdue_secs",
                self.node.index() as u64,
                overdue,
            );
        }
        if self.config.in_progress_refresh {
            // borrow dance: collect first, estimator is a separate field
            let samples: Vec<(u64, SimDuration)> = self
                .active
                .iter()
                .map(|a| (a.migration.bytes, now.saturating_since(a.started)))
                .collect();
            for (bytes, elapsed) in samples {
                self.estimator.refresh_in_progress(bytes, elapsed);
            }
        }
        HeartbeatReport {
            secs_per_byte: if self.calibrated {
                self.estimator.secs_per_byte()
            } else {
                UNCALIBRATED_SECS_PER_BYTE
            },
            queued_bytes: self.backlog_bytes(),
            queue_space: self.queue_space(),
        }
    }

    /// A task on some node read `block` (served from this slave's buffer
    /// or anywhere else — the slave only cares about its own state):
    ///
    /// * a queued (unstarted) migration of the block is cancelled — a
    ///   missed read;
    /// * if `job` opted into implicit eviction, its reference is dropped;
    ///   a buffered block whose list empties is evicted.
    ///
    /// Returns evictions the caller must apply (unregister + unpin).
    pub fn on_read(&mut self, block: BlockId, job: JobId) -> Vec<Eviction> {
        // Cancel a queued migration of this block (missed read): the
        // reader got it from disk; migrating afterwards is wasted work
        // *if nobody else wants it*. Drop only this job's ref; try_start
        // discards the entry once all refs are gone.
        let mut evictions = Vec::new();
        let queued = self.queue.iter().any(|m| m.block == block);
        if self.implicit_jobs.contains(&job) || queued {
            let became_free = self.refs.remove(job, block);
            if became_free {
                if queued {
                    for m in self.queue.iter().filter(|m| m.block == block) {
                        self.obs
                            .migration_aborted(m.id.0, Some(self.node), cause::MISSED_READ);
                    }
                    self.queue.retain(|m| m.block != block);
                    self.stats.missed_reads += 1;
                }
                if let Some(bytes) = self.buffered.remove(&block) {
                    evictions.push(self.evict_buffered(block, bytes));
                } else if let Some(ev) = self.evict_tier_resident(block) {
                    evictions.push(ev);
                }
            }
        }
        evictions
    }

    /// Explicit evict command for `job` (§III-C3): drop all its references
    /// and evict buffered blocks that became unreferenced.
    pub fn evict_job(&mut self, job: JobId) -> Vec<Eviction> {
        let freed = self.refs.remove_job(job);
        self.implicit_jobs.remove(&job);
        self.apply_evictions(freed, cause::JOB_EVICTED)
    }

    /// Memory-pressure scavenge (§III-C3): query the cluster scheduler via
    /// `is_active` and clear references of finished/failed jobs.
    pub fn scavenge(&mut self, is_active: impl Fn(JobId) -> bool) -> Vec<Eviction> {
        let freed = self.refs.scavenge(&is_active);
        self.implicit_jobs.retain(|&j| is_active(j));
        self.apply_evictions(freed, cause::SCAVENGED)
    }

    /// True once buffer usage crosses the scavenge threshold.
    pub fn needs_scavenge(&self) -> bool {
        self.memory.used() as f64 >= self.config.scavenge_threshold * self.memory.capacity() as f64
    }

    /// Release a buffered block's memory and decide its fate: demoted to
    /// the first lower tier with room, dropped back to disk-only when
    /// there is none. Every eviction path routes through here so none
    /// silently discards bytes — the outcome is cause-stamped
    /// (`evict-demote` vs `evict-drop`) on the recorder.
    fn evict_buffered(&mut self, block: BlockId, bytes: u64) -> Eviction {
        self.memory.unpin(bytes);
        self.stats.evictions += 1;
        let demoted_to = self.memory.demote(block.0, bytes).map(|t| t.0);
        self.obs.tier_evicted(block, self.node, demoted_to);
        Eviction {
            block,
            bytes,
            demoted_to,
        }
    }

    /// Drop an unreferenced middle-tier copy of `block` (the job(s) that
    /// wanted it are done; a demoted copy with no remaining interest is
    /// reclaimed like any buffered block). `None` when the block is not
    /// tier-resident — always on the legacy stack.
    fn evict_tier_resident(&mut self, block: BlockId) -> Option<Eviction> {
        let r = self.memory.release(block.0)?;
        self.stats.evictions += 1;
        self.obs.tier_evicted(block, self.node, None);
        Some(Eviction {
            block,
            bytes: r.bytes,
            demoted_to: None,
        })
    }

    fn apply_evictions(&mut self, freed: Vec<BlockId>, why: &'static str) -> Vec<Eviction> {
        let mut out = Vec::new();
        for block in freed {
            if let Some(bytes) = self.buffered.remove(&block) {
                let ev = self.evict_buffered(block, bytes);
                out.push(ev);
            } else if let Some(ev) = self.evict_tier_resident(block) {
                out.push(ev);
            }
            // Unstarted queue entries for freed blocks are discarded lazily
            // by try_start; drop them eagerly so backlog reporting is honest.
            for m in self.queue.iter().filter(|m| m.block == block) {
                self.obs.migration_aborted(m.id.0, Some(self.node), why);
            }
            self.queue.retain(|m| m.block != block);
        }
        out
    }

    /// Revoke the binding of `block` on the master's orders (failure
    /// detector re-binding): a queued entry is removed outright; an active
    /// migration is cancelled and its pinned memory released — the caller
    /// must also cancel the corresponding disk stream. Deliberately
    /// **obs-silent**: the master owns the abort event for detector
    /// unbinds, so the span gets exactly one terminal record.
    ///
    /// Job references added at bind time are dropped unless the block is
    /// also buffered here (a master-restart re-bind), where they keep the
    /// existing copy alive.
    pub fn revoke(&mut self, block: BlockId) -> Revoked {
        if let Some(idx) = self.queue.iter().position(|m| m.block == block) {
            let m = self
                .queue
                .remove(idx)
                .expect("index from position() is in bounds");
            if !self.buffered.contains_key(&block) {
                for r in &m.jobs {
                    self.refs.remove(r.job, block);
                }
            }
            return Revoked::Queued;
        }
        if let Some(idx) = self.active.iter().position(|a| a.migration.block == block) {
            let a = self.active.remove(idx);
            self.memory.unpin(a.migration.bytes);
            for r in &a.migration.jobs {
                self.refs.remove(r.job, block);
            }
            return Revoked::Active;
        }
        Revoked::NotBound
    }

    /// Blocks in the local queue (bound but not started), front first.
    pub fn queued_blocks(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.queue.iter().map(|m| m.block)
    }

    /// Slave process restart (§III-C2): the OS reclaims all buffer space;
    /// the new process tells the master to drop its state. Returns the
    /// blocks that were buffered (for unregistration).
    pub fn restart(&mut self) -> Vec<BlockId> {
        for m in &self.queue {
            self.obs
                .migration_aborted(m.id.0, Some(self.node), cause::SLAVE_RESTART);
        }
        for a in &self.active {
            self.obs
                .migration_aborted(a.migration.id.0, Some(self.node), cause::SLAVE_RESTART);
        }
        // BTreeMap: already in ascending BlockId order.
        let blocks: Vec<BlockId> = std::mem::take(&mut self.buffered).into_keys().collect();
        self.memory.clear();
        self.queue.clear();
        self.active.clear();
        self.refs.clear();
        self.implicit_jobs.clear();
        self.estimator.reset();
        self.calibrated = false;
        blocks
    }
}

impl simkit::audit::Audit for Slave {
    /// Conservation invariants at this slave:
    ///
    /// * pinned bytes are exactly the buffered blocks plus in-flight
    ///   migrations (every pin has an owner, every owner is pinned);
    /// * in-flight migrations respect the configured concurrency (one
    ///   under the paper's serialized default, §III-B);
    /// * every buffered block still has a non-empty reference list
    ///   (§III-C3: empty list ⇒ evicted);
    /// * a block is bound here at most once and is never migrating while
    ///   already buffered (§III-A1: binding is final);
    /// * the advertised migration-cost estimate is finite and positive
    ///   (§IV-A) — Algorithm 1 divides the cluster's work by it.
    ///
    /// * a block never lives in memory and a middle tier at once (single
    ///   residency across the tier stack).
    ///
    /// Delegates to the [`TierStore`] and [`ReferenceLists`] audits.
    fn audit(&self, report: &mut simkit::audit::AuditReport) {
        let name = format!("slave[{}]", self.node.index());
        let c = name.as_str();
        self.memory.audit(report);
        self.refs.audit(report);
        report.check(
            self.active.len() <= self.config.max_concurrent_migrations,
            c,
            "§III-B: in-flight migrations within the configured concurrency",
            || {
                format!(
                    "{} active > limit {}",
                    self.active.len(),
                    self.config.max_concurrent_migrations
                )
            },
        );
        let owned: u64 = self.buffered.values().sum::<u64>()
            + self.active.iter().map(|a| a.migration.bytes).sum::<u64>();
        report.check(
            self.memory.used() == owned,
            c,
            "pinned bytes equal buffered plus in-flight migration bytes",
            || format!("pinned {} != buffered+active {}", self.memory.used(), owned),
        );
        for &block in self.buffered.keys() {
            report.check(
                !self.refs.is_unreferenced(block),
                c,
                "§III-C3: every buffered block has a non-empty reference list",
                || format!("{block} is buffered but unreferenced"),
            );
            report.check(
                self.memory.resident(block.0).is_none(),
                c,
                "a block is never both in memory and demoted to a middle tier",
                || format!("{block} is buffered and middle-tier resident"),
            );
        }
        let mut seen = std::collections::BTreeSet::new();
        for a in &self.active {
            report.check(
                !self.buffered.contains_key(&a.migration.block),
                c,
                "§III-A1: a block is never migrating while already buffered",
                || format!("{} is both active and buffered", a.migration.block),
            );
            report.check(
                seen.insert(a.migration.block),
                c,
                "§III-A1: a block is in flight here at most once",
                || format!("{} is active twice", a.migration.block),
            );
        }
        let spb = if self.calibrated {
            self.estimator.secs_per_byte()
        } else {
            UNCALIBRATED_SECS_PER_BYTE
        };
        report.check(
            spb.is_finite() && spb > 0.0,
            c,
            "§IV-A: the advertised migration-cost estimate is finite and positive",
            || format!("secs_per_byte = {spb}"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::MigrationId;
    use dyrs_tiers::TierId;

    const MB: u64 = 1 << 20;
    const BLOCK: u64 = 256 * MB;
    const BW: f64 = 140.0 * MB as f64;

    fn j(i: u64) -> JobId {
        JobId(i)
    }
    fn b(i: u64) -> BlockId {
        BlockId(i)
    }
    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn mig(i: u64, bytes: u64, jobs: &[(u64, EvictionMode)]) -> Migration {
        Migration {
            id: MigrationId(i),
            block: b(i),
            bytes,
            jobs: jobs
                .iter()
                .map(|&(job, eviction)| JobRef {
                    job: j(job),
                    eviction,
                })
                .collect(),
            replicas: vec![NodeId(0)],
            attempt: 0,
            dest_tier: 0,
        }
    }

    fn slave() -> Slave {
        let mut s = Slave::new(NodeId(0), DyrsConfig::default(), BW, 4 * BLOCK, BLOCK);
        // probe read at the idle-disk rate
        s.calibrate(32 * MB, SimDuration::from_secs_f64(32.0 * MB as f64 / BW));
        s
    }

    #[test]
    fn serialized_execution_one_at_a_time() {
        let mut s = slave();
        s.on_bind(vec![
            mig(1, BLOCK, &[(1, EvictionMode::Explicit)]),
            mig(2, BLOCK, &[(1, EvictionMode::Explicit)]),
        ]);
        let first = s.try_start(t(0)).unwrap();
        assert_eq!(first.block, b(1));
        assert!(s.try_start(t(0)).is_none(), "strictly one active migration");
        let done = s.on_migration_complete(t(2));
        assert_eq!(done.block, b(1));
        assert!(!done.evicted_immediately);
        assert!(s.has_buffered(b(1)));
        let second = s.try_start(t(2)).unwrap();
        assert_eq!(second.block, b(2));
    }

    #[test]
    fn concurrency_ablation_allows_parallel_migrations() {
        let cfg = DyrsConfig {
            max_concurrent_migrations: 2,
            ..DyrsConfig::default()
        };
        let mut s = Slave::new(NodeId(0), cfg, BW, 8 * BLOCK, BLOCK);
        s.calibrate(32 * MB, SimDuration::from_secs_f64(32.0 * MB as f64 / BW));
        s.on_bind(vec![
            mig(1, BLOCK, &[(1, EvictionMode::Explicit)]),
            mig(2, BLOCK, &[(1, EvictionMode::Explicit)]),
            mig(3, BLOCK, &[(1, EvictionMode::Explicit)]),
        ]);
        assert_eq!(s.try_start(t(0)).unwrap().block, b(1));
        assert_eq!(s.try_start(t(0)).unwrap().block, b(2));
        assert!(s.try_start(t(0)).is_none(), "limit is two");
        assert!(s.has_pending(b(1)) && s.has_pending(b(2)) && s.has_pending(b(3)));
        assert_eq!(s.active_block(), None, "ambiguous with two in flight");
        // completions can land out of order
        let done = s.on_migration_complete_block(t(3), b(2));
        assert_eq!(done.block, b(2));
        assert_eq!(s.try_start(t(3)).unwrap().block, b(3));
        s.on_migration_complete_block(t(5), b(1));
        s.on_migration_complete_block(t(6), b(3));
        assert!(!s.is_migrating());
        assert_eq!(s.buffered_bytes(), 3 * BLOCK);
    }

    #[test]
    #[should_panic(expected = "ambiguous")]
    fn ambiguous_completion_panics() {
        let cfg = DyrsConfig {
            max_concurrent_migrations: 2,
            ..DyrsConfig::default()
        };
        let mut s = Slave::new(NodeId(0), cfg, BW, 8 * BLOCK, BLOCK);
        s.calibrate(32 * MB, SimDuration::from_secs_f64(32.0 * MB as f64 / BW));
        s.on_bind(vec![
            mig(1, BLOCK, &[(1, EvictionMode::Explicit)]),
            mig(2, BLOCK, &[(1, EvictionMode::Explicit)]),
        ]);
        s.try_start(t(0));
        s.try_start(t(0));
        s.on_migration_complete(t(2)); // must use the _block variant
    }

    #[test]
    fn completion_updates_estimator() {
        let mut s = slave();
        s.on_bind(vec![mig(1, BLOCK, &[(1, EvictionMode::Explicit)])]);
        s.try_start(t(0)).unwrap();
        let cold = s.estimator().estimate(BLOCK);
        s.on_migration_complete(t(20)); // much slower than the idle prior
        assert!(s.estimator().estimate(BLOCK) > cold);
    }

    #[test]
    fn queue_space_respects_depth() {
        let s = slave();
        // 256MB at 140MB/s ≈ 1.83 s/block; 1 s heartbeat → depth 1+slack = 2
        assert_eq!(s.queue_depth(), 2);
        assert_eq!(s.queue_space(), 2);
        let mut s = s;
        s.on_bind(vec![mig(1, BLOCK, &[(1, EvictionMode::Explicit)])]);
        assert_eq!(s.queue_space(), 1);
        s.try_start(t(0)).unwrap();
        assert_eq!(s.queue_space(), 1, "active migration still occupies a slot");
        s.on_bind(vec![mig(2, BLOCK, &[(1, EvictionMode::Explicit)])]);
        assert_eq!(s.queue_space(), 0);
    }

    #[test]
    fn heartbeat_reports_backlog_and_refreshes_estimate() {
        let mut s = slave();
        s.on_bind(vec![
            mig(1, BLOCK, &[(1, EvictionMode::Explicit)]),
            mig(2, BLOCK, &[(1, EvictionMode::Explicit)]),
        ]);
        s.try_start(t(0)).unwrap();
        let hb = s.on_heartbeat(t(0));
        assert_eq!(hb.queued_bytes, 2 * BLOCK);
        let before = hb.secs_per_byte;
        // 60 s into a ~2 s migration: estimate must have been pushed up
        let hb = s.on_heartbeat(t(60));
        assert!(hb.secs_per_byte > before);
    }

    #[test]
    fn memory_stall_blocks_start_until_eviction() {
        let mut s = Slave::new(NodeId(0), DyrsConfig::default(), BW, BLOCK, BLOCK);
        s.calibrate(32 * MB, SimDuration::from_secs_f64(32.0 * MB as f64 / BW));
        s.on_bind(vec![
            mig(1, BLOCK, &[(1, EvictionMode::Explicit)]),
            mig(2, BLOCK, &[(2, EvictionMode::Explicit)]),
        ]);
        s.try_start(t(0)).unwrap();
        s.on_migration_complete(t(2));
        // buffer is full: block 2 cannot start
        assert!(s.try_start(t(2)).is_none());
        assert_eq!(s.stats().memory_stalls, 1);
        // job 1 finishes → eviction frees space
        let ev = s.evict_job(j(1));
        assert_eq!(ev.len(), 1);
        assert!(s.try_start(t(3)).is_some());
    }

    #[test]
    fn implicit_eviction_on_read() {
        let mut s = slave();
        s.on_bind(vec![mig(1, BLOCK, &[(1, EvictionMode::Implicit)])]);
        s.try_start(t(0)).unwrap();
        s.on_migration_complete(t(2));
        assert!(s.has_buffered(b(1)));
        let ev = s.on_read(b(1), j(1));
        assert_eq!(
            ev,
            vec![Eviction {
                block: b(1),
                bytes: BLOCK,
                demoted_to: None,
            }]
        );
        assert!(!s.has_buffered(b(1)));
        assert_eq!(s.buffered_bytes(), 0);
    }

    #[test]
    fn explicit_mode_survives_reads() {
        let mut s = slave();
        s.on_bind(vec![mig(1, BLOCK, &[(1, EvictionMode::Explicit)])]);
        s.try_start(t(0)).unwrap();
        s.on_migration_complete(t(2));
        assert!(s.on_read(b(1), j(1)).is_empty());
        assert!(s.has_buffered(b(1)));
        let ev = s.evict_job(j(1));
        assert_eq!(ev.len(), 1);
    }

    #[test]
    fn shared_block_evicted_after_last_implicit_reader() {
        let mut s = slave();
        s.on_bind(vec![mig(
            1,
            BLOCK,
            &[(1, EvictionMode::Implicit), (2, EvictionMode::Implicit)],
        )]);
        s.try_start(t(0)).unwrap();
        s.on_migration_complete(t(2));
        assert!(s.on_read(b(1), j(1)).is_empty(), "job 2 still expects it");
        assert_eq!(s.on_read(b(1), j(2)).len(), 1);
    }

    #[test]
    fn missed_read_cancels_queued_migration() {
        let mut s = slave();
        s.on_bind(vec![
            mig(1, BLOCK, &[(1, EvictionMode::Implicit)]),
            mig(2, BLOCK, &[(1, EvictionMode::Implicit)]),
        ]);
        s.try_start(t(0)).unwrap(); // block 1 active
                                    // block 2 is read from disk before its migration started
        let ev = s.on_read(b(2), j(1));
        assert!(ev.is_empty());
        assert_eq!(s.queue_len(), 0);
        assert_eq!(s.stats().missed_reads, 1);
        // completing block 1 leaves nothing else to start
        s.on_migration_complete(t(2));
        assert!(s.try_start(t(2)).is_none());
    }

    #[test]
    fn read_during_active_migration_evicts_on_completion() {
        let mut s = slave();
        s.on_bind(vec![mig(1, BLOCK, &[(1, EvictionMode::Implicit)])]);
        s.try_start(t(0)).unwrap();
        // the only interested job reads the block from disk mid-migration
        let ev = s.on_read(b(1), j(1));
        assert!(
            ev.is_empty(),
            "migration still running; nothing buffered yet"
        );
        let done = s.on_migration_complete(t(2));
        assert!(done.evicted_immediately, "nobody wants the buffered copy");
        assert_eq!(s.buffered_bytes(), 0);
    }

    #[test]
    fn scavenge_clears_dead_jobs() {
        let mut s = slave();
        s.on_bind(vec![
            mig(1, BLOCK, &[(1, EvictionMode::Explicit)]),
            mig(2, BLOCK, &[(2, EvictionMode::Explicit)]),
        ]);
        s.try_start(t(0)).unwrap();
        s.on_migration_complete(t(2));
        s.try_start(t(2)).unwrap();
        s.on_migration_complete(t(4));
        assert_eq!(s.buffered_bytes(), 2 * BLOCK);
        // job 1 died without evicting
        let ev = s.scavenge(|job| job == j(2));
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].block, b(1));
        assert!(s.has_buffered(b(2)));
    }

    #[test]
    fn needs_scavenge_threshold() {
        let mut s = Slave::new(NodeId(0), DyrsConfig::default(), BW, 2 * BLOCK, BLOCK);
        s.calibrate(32 * MB, SimDuration::from_secs_f64(32.0 * MB as f64 / BW));
        assert!(!s.needs_scavenge());
        s.on_bind(vec![
            mig(1, BLOCK, &[(1, EvictionMode::Explicit)]),
            mig(2, BLOCK, &[(1, EvictionMode::Explicit)]),
        ]);
        s.try_start(t(0)).unwrap();
        s.on_migration_complete(t(2));
        s.try_start(t(2)).unwrap();
        s.on_migration_complete(t(4));
        assert!(s.needs_scavenge(), "buffer 100% full ≥ 80% threshold");
    }

    #[test]
    fn restart_drops_everything_and_reports_buffered() {
        let mut s = slave();
        s.on_bind(vec![
            mig(1, BLOCK, &[(1, EvictionMode::Explicit)]),
            mig(2, BLOCK, &[(1, EvictionMode::Explicit)]),
        ]);
        s.try_start(t(0)).unwrap();
        s.on_migration_complete(t(2));
        let dropped = s.restart();
        assert_eq!(dropped, vec![b(1)]);
        assert_eq!(s.buffered_bytes(), 0);
        assert_eq!(s.queue_len(), 0);
        assert!(!s.is_migrating());
        assert!(s.estimator().is_cold());
    }

    #[test]
    fn evict_job_cancels_its_queued_migrations() {
        let mut s = slave();
        s.on_bind(vec![
            mig(1, BLOCK, &[(1, EvictionMode::Explicit)]),
            mig(2, BLOCK, &[(1, EvictionMode::Explicit)]),
        ]);
        s.try_start(t(0)).unwrap();
        s.evict_job(j(1));
        assert_eq!(s.queue_len(), 0, "queued migration for evicted job dropped");
        // the active one finishes but is discarded immediately
        let done = s.on_migration_complete(t(2));
        assert!(done.evicted_immediately);
    }

    #[test]
    fn add_ref_keeps_buffered_block_alive() {
        let mut s = slave();
        s.on_bind(vec![mig(1, BLOCK, &[(1, EvictionMode::Implicit)])]);
        s.try_start(t(0)).unwrap();
        s.on_migration_complete(t(2));
        s.add_ref(
            b(1),
            JobRef {
                job: j(2),
                eviction: EvictionMode::Implicit,
            },
        );
        assert!(s.on_read(b(1), j(1)).is_empty(), "job 2 still referenced");
        assert_eq!(s.on_read(b(1), j(2)).len(), 1);
    }

    #[test]
    fn revoke_removes_queued_entry_and_its_refs() {
        let mut s = slave();
        s.on_bind(vec![
            mig(1, BLOCK, &[(1, EvictionMode::Implicit)]),
            mig(2, BLOCK, &[(1, EvictionMode::Implicit)]),
        ]);
        assert_eq!(s.revoke(b(2)), Revoked::Queued);
        assert_eq!(s.queue_len(), 1);
        assert_eq!(s.queued_blocks().collect::<Vec<_>>(), vec![b(1)]);
        assert!(!s.has_pending(b(2)));
        // the dropped reference cannot resurrect the block on a later read
        assert!(s.on_read(b(2), j(1)).is_empty());
        assert_eq!(s.revoke(b(2)), Revoked::NotBound, "stale revoke is a no-op");
    }

    #[test]
    fn revoke_cancels_active_migration_and_unpins() {
        let mut s = slave();
        s.on_bind(vec![mig(1, BLOCK, &[(1, EvictionMode::Explicit)])]);
        s.try_start(t(0)).unwrap();
        assert_eq!(s.buffered_bytes(), BLOCK, "in-flight bytes pinned");
        assert_eq!(s.revoke(b(1)), Revoked::Active);
        assert_eq!(s.buffered_bytes(), 0, "pin released on cancellation");
        assert!(!s.is_migrating());
        // the queue is free to start other work immediately
        s.on_bind(vec![mig(2, BLOCK, &[(1, EvictionMode::Explicit)])]);
        assert!(s.try_start(t(1)).is_some());
    }

    fn tiered_slave(buffer_capacities: &[u64]) -> Slave {
        let mut s = Slave::new_tiered(
            NodeId(0),
            DyrsConfig::default(),
            BW,
            buffer_capacities,
            BLOCK,
        );
        s.calibrate(32 * MB, SimDuration::from_secs_f64(32.0 * MB as f64 / BW));
        s
    }

    #[test]
    fn eviction_demotes_when_a_lower_tier_has_room() {
        let mut s = tiered_slave(&[4 * BLOCK, 2 * BLOCK]);
        s.on_bind(vec![mig(1, BLOCK, &[(1, EvictionMode::Implicit)])]);
        s.try_start(t(0)).unwrap();
        s.on_migration_complete(t(2));
        let ev = s.on_read(b(1), j(1));
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].demoted_to, Some(1), "copy retained one tier down");
        assert!(!s.has_buffered(b(1)));
        assert_eq!(s.tier_resident(b(1)).map(|r| r.tier), Some(TierId(1)));
        assert_eq!(s.memory().tier_used(TierId(1)), BLOCK);
        assert_eq!(s.buffered_bytes(), 0);
    }

    #[test]
    fn eviction_drops_when_every_lower_tier_is_full() {
        let mut s = tiered_slave(&[4 * BLOCK, BLOCK]);
        for i in 1..=2 {
            s.on_bind(vec![mig(i, BLOCK, &[(i, EvictionMode::Implicit)])]);
            s.try_start(t(i)).unwrap();
            s.on_migration_complete(t(i + 10));
        }
        // first eviction fills tier 1; the second has nowhere to go
        assert_eq!(s.on_read(b(1), j(1))[0].demoted_to, Some(1));
        assert_eq!(s.on_read(b(2), j(2))[0].demoted_to, None);
        assert_eq!(s.tier_resident(b(2)), None);
    }

    #[test]
    fn remigration_supersedes_the_demoted_copy() {
        let mut s = tiered_slave(&[4 * BLOCK, 2 * BLOCK]);
        s.on_bind(vec![mig(1, BLOCK, &[(1, EvictionMode::Implicit)])]);
        s.try_start(t(0)).unwrap();
        s.on_migration_complete(t(2));
        s.on_read(b(1), j(1));
        assert!(s.tier_resident(b(1)).is_some());
        // a fresh migration of the same block lands back in memory
        s.on_bind(vec![mig(1, BLOCK, &[(2, EvictionMode::Explicit)])]);
        s.try_start(t(3)).unwrap();
        s.on_migration_complete(t(5));
        assert!(s.has_buffered(b(1)));
        assert_eq!(s.tier_resident(b(1)), None, "stale resident released");
        assert_eq!(s.memory().tier_used(TierId(1)), 0);
    }

    #[test]
    fn a_lower_dest_tier_still_lands_in_memory() {
        // The wire keeps `dest_tier`, so a peer may still bind a migration
        // aimed at tier 1. The slave ignores it: memory is pinned for the
        // flight, and the block lands buffered in memory.
        let mut s = tiered_slave(&[4 * BLOCK, 2 * BLOCK]);
        let mut m = mig(1, BLOCK, &[(1, EvictionMode::Explicit)]);
        m.dest_tier = 1;
        s.on_bind(vec![m]);
        s.try_start(t(0)).unwrap();
        assert_eq!(s.buffered_bytes(), BLOCK, "memory pinned at start");
        assert_eq!(s.memory().tier_used(TierId(1)), 0);
        let done = s.on_migration_complete(t(2));
        assert!(!done.evicted_immediately);
        assert!(s.has_buffered(b(1)));
        assert_eq!(s.buffered_bytes(), BLOCK);
        assert_eq!(s.tier_resident(b(1)), None);
        assert_eq!(s.memory().tier_used(TierId(1)), 0);
    }

    #[test]
    fn revoke_keeps_buffered_copy_alive() {
        let mut s = slave();
        s.on_bind(vec![mig(1, BLOCK, &[(1, EvictionMode::Explicit)])]);
        s.try_start(t(0)).unwrap();
        s.on_migration_complete(t(2));
        // master restart re-binds the same block here, then revokes it
        s.on_bind(vec![mig(1, BLOCK, &[(2, EvictionMode::Explicit)])]);
        assert_eq!(s.revoke(b(1)), Revoked::Queued);
        assert!(s.has_buffered(b(1)), "existing copy survives the revoke");
        assert_eq!(s.buffered_bytes(), BLOCK);
    }
}
