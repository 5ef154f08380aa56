//! The DYRS master (paper §III, §III-D).
//!
//! Lives inside the NameNode in the real system. Responsibilities:
//!
//! 1. accept migration/eviction requests for files (already mapped to
//!    blocks by the namespace),
//! 2. run the **Algorithm 1** targeting pass over the pending list in a
//!    background thread (here: a periodic [`Master::retarget`] call),
//! 3. answer slave pulls with migrations **bound at the last moment**
//!    (delayed binding, §III-A1),
//! 4. track where blocks are buffered so reads can be redirected and
//!    evictions routed.
//!
//! All state is soft (§III-C): [`Master::restart`] drops everything and
//! the system degrades to plain HDFS until slaves repopulate it.

use crate::config::FailureDetectorConfig;
use crate::policy::{MigrationOrder, MigrationPolicy};
use crate::sched::{RetargetStats, Scheduler};
use crate::types::{BoundMigration, EvictionMode, JobRef, Migration, MigrationId};
use dyrs_cluster::NodeId;
use dyrs_dfs::{BlockId, JobId};
use dyrs_obs::{cause, ObsHandle};
use simkit::{Rng, SimTime};
use std::collections::{BTreeMap, VecDeque};

/// Scheduling hints about the requesting job, used by the non-FIFO
/// migration orders (future-work policies, see
/// [`MigrationOrder`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobHint {
    /// When the job is expected to start reading (submission + platform
    /// overhead + any artificial lead-time).
    pub expected_launch: simkit::SimTime,
    /// The job's total input size in bytes.
    pub total_bytes: u64,
}

impl Default for JobHint {
    fn default() -> Self {
        JobHint {
            expected_launch: simkit::SimTime::ZERO,
            total_bytes: 0,
        }
    }
}

/// A client's request to migrate one block.
///
/// Wire payload (`dyrs-net`'s `Message::RequestMigration` carries a list
/// of these). `replicas` keeps submission order — a `Vec`, not a hash
/// set — so the encoded bytes are identical across runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockRequest {
    /// Block to migrate.
    pub block: BlockId,
    /// Block size in bytes.
    pub bytes: u64,
    /// Disk replica locations.
    pub replicas: Vec<NodeId>,
}

/// What a migration request produced.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RequestOutcome {
    /// Migrations bound immediately (Ignem only).
    pub immediate: Vec<BoundMigration>,
    /// Blocks already buffered somewhere: the hosting slave must add a job
    /// reference (no new migration needed).
    pub add_refs: Vec<(NodeId, BlockId, JobRef)>,
}

/// Per-slave knowledge at the master, fed by heartbeats (§III-D: "During
/// heartbeats, the master stores each slave's estimate of migration time
/// and the number of blocks currently queued on the slave").
#[derive(Debug, Clone, Copy)]
struct NodeState {
    /// Estimated migration cost, seconds per byte.
    spb: f64,
    /// Bytes queued (or actively migrating) on the slave.
    queued_bytes: f64,
    /// Liveness, mirrored from the file system's view.
    up: bool,
}

/// Counters for reporting and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MasterStats {
    /// Blocks ever requested for migration.
    pub requested_blocks: u64,
    /// Bytes ever requested.
    pub requested_bytes: u64,
    /// Migrations handed to slaves (bound).
    pub bound: u64,
    /// Migrations reported complete.
    pub completed: u64,
    /// Pending migrations cancelled because the block was read first.
    pub missed_reads: u64,
    /// Retargeting passes executed.
    pub retarget_passes: u64,
}

/// A node's health as classified by the gray-failure detector and the
/// membership plane. Only `Healthy`, `Probation` and `Joining` nodes are
/// Algorithm 1 candidates (a joining node under a bounded pull ramp).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeHealth {
    /// Heartbeating on time; full candidacy.
    Healthy,
    /// Missed its heartbeat deadline; its bound-but-unstarted migrations
    /// are unbound and it leaves candidacy until it heartbeats again.
    Suspect,
    /// Struck out (`quarantine_strikes` within `strike_window`); barred
    /// from candidacy until the quarantine backoff elapses.
    Quarantined,
    /// Quarantine backoff elapsed; allowed exactly one probation
    /// migration, whose completion restores `Healthy`.
    Probation,
    /// Freshly (re-)admitted to the cluster; a candidate, but pulls are
    /// capped by the admission ramp until `join_ramp_target` migrations
    /// complete, so a cold estimator never absorbs a full queue.
    Joining,
    /// Being intentionally emptied: no new binds, bound-but-unstarted
    /// work is re-targeted away, and the node is decommissioned once its
    /// bind queues drain.
    Draining,
}

impl NodeHealth {
    /// Stable lowercase name used in exports and test output.
    pub fn name(self) -> &'static str {
        match self {
            NodeHealth::Healthy => "healthy",
            NodeHealth::Suspect => "suspect",
            NodeHealth::Quarantined => "quarantined",
            NodeHealth::Probation => "probation",
            NodeHealth::Joining => "joining",
            NodeHealth::Draining => "draining",
        }
    }

    /// Numeric encoding for the `node.health` gauge (0 = healthy,
    /// 1 = suspect, 2 = probation, 3 = quarantined — ordered by how far
    /// the node is from full candidacy; the membership states append at
    /// 4 = joining, 5 = draining so the detector ordering stays stable).
    pub fn as_gauge(self) -> f64 {
        match self {
            NodeHealth::Healthy => 0.0,
            NodeHealth::Suspect => 1.0,
            NodeHealth::Probation => 2.0,
            NodeHealth::Quarantined => 3.0,
            NodeHealth::Joining => 4.0,
            NodeHealth::Draining => 5.0,
        }
    }
}

/// A node's coarse cluster-membership phase, derived from its health
/// state plus the `removed` flag: `Joining → Active → Draining → Removed`
/// (a removed node re-enters at `Joining` via [`Master::join_node`]).
/// `Active` covers every detector state — a suspect or quarantined node
/// is still a member, just not a candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Membership {
    /// Admitted but still inside the warm-up ramp.
    Joining,
    /// A full member (any detector health).
    Active,
    /// Emptying its bind queues ahead of removal.
    Draining,
    /// Decommissioned: never a candidate, never bound work.
    Removed,
}

impl Membership {
    /// Stable lowercase name used in exports and admin replies.
    pub fn name(self) -> &'static str {
        match self {
            Membership::Joining => "joining",
            Membership::Active => "active",
            Membership::Draining => "draining",
            Membership::Removed => "removed",
        }
    }

    /// Numeric encoding for the `node.membership` gauge and the
    /// `DecommissionAck` wire payload (0 = joining, 1 = active,
    /// 2 = draining, 3 = removed — lifecycle order).
    pub fn as_gauge(self) -> f64 {
        f64::from(self.code())
    }

    /// The one-byte wire code (same ordering as [`Membership::as_gauge`]).
    pub fn code(self) -> u8 {
        match self {
            Membership::Joining => 0,
            Membership::Active => 1,
            Membership::Draining => 2,
            Membership::Removed => 3,
        }
    }

    /// Decode a wire code (inverse of [`Membership::code`]).
    pub fn from_code(code: u8) -> Option<Membership> {
        match code {
            0 => Some(Membership::Joining),
            1 => Some(Membership::Active),
            2 => Some(Membership::Draining),
            3 => Some(Membership::Removed),
            _ => None,
        }
    }
}

/// Per-node detector bookkeeping.
#[derive(Debug, Clone)]
struct DetectorState {
    /// Last heartbeat instant; `None` means the deadline is not armed
    /// (fresh start, node restart, or master restart) and arms at the
    /// next health check — so a resuming master never mass-suspects
    /// nodes it simply was not listening to.
    last_heartbeat: Option<SimTime>,
    health: NodeHealth,
    /// Strike instants inside the sliding window.
    strikes: VecDeque<SimTime>,
    quarantined_until: SimTime,
    /// The one in-flight probation migration, when on probation.
    probation_block: Option<BlockId>,
    /// Decommissioned: the slot exists (node ids are stable) but the node
    /// is never a candidate and never bound work until it re-joins.
    removed: bool,
    /// Migrations completed since the node started `Joining`; drives the
    /// admission ramp (`1 + join_completed` pulls allowed per heartbeat).
    join_completed: u32,
}

impl Default for DetectorState {
    fn default() -> Self {
        DetectorState {
            last_heartbeat: None,
            health: NodeHealth::Healthy,
            strikes: VecDeque::new(),
            quarantined_until: SimTime::ZERO,
            probation_block: None,
            removed: false,
            join_completed: 0,
        }
    }
}

/// A binding the master is tracking until the slave reports completion;
/// the raw material for stuck detection and for minting retry successors.
#[derive(Debug, Clone)]
struct BoundRecord {
    node: NodeId,
    bound_at: SimTime,
    /// The node's estimated stream time (`spb · bytes`) when the binding
    /// was made. The stuck deadline is measured against this snapshot, not
    /// the live estimate: a node that degrades after binding inflates its
    /// own estimate, and judging it by the inflated number would let a
    /// crawling queue keep its work forever.
    est_secs_at_bind: f64,
    hint: JobHint,
    /// The entry's original admission stamp, carried through the binding
    /// so a drain re-target can re-enqueue the successor at its original
    /// FIFO position (SJF/EDF keys travel in `hint`).
    seq: u64,
    migration: Migration,
}

impl BoundRecord {
    /// How long the binding may run before a sweep flags it stuck: the
    /// bind-time estimate times `stuck_multiple`, floored by
    /// `stuck_floor`.
    fn stuck_deadline(&self, cfg: &FailureDetectorConfig) -> simkit::SimDuration {
        simkit::SimDuration::from_secs_f64(self.est_secs_at_bind * cfg.stuck_multiple)
            .max(cfg.stuck_floor)
    }
}

/// What one [`Master::check_health`] pass found. The caller (the sim
/// driver, or an RPC layer in a real deployment) owns the slave channel,
/// so the master reports *candidates* and the caller confirms them against
/// the slave before calling [`Master::on_unbound`] / [`Master::discard_bound`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HealthReport {
    /// Nodes that just transitioned to `Suspect` (or failed probation):
    /// their bound-but-unstarted migrations should be revoked and
    /// unbound.
    pub newly_suspect: Vec<NodeId>,
    /// Bound migrations past their progress deadline, as (bound node,
    /// block) pairs.
    pub stuck: Vec<(NodeId, BlockId)>,
}

/// Checkpoint schema version. Bump on any layout change; a restarted
/// master refuses snapshots from a different version rather than guessing.
pub const CHECKPOINT_VERSION: u16 = 1;

/// A deterministic, versioned snapshot of the master's soft state — the
/// payload of the `Checkpoint` wire message and the unit `run_master`
/// writes on demand and reloads on restart. Built by
/// [`Master::checkpoint`], consumed by [`Master::restore_from`].
#[derive(Debug, Clone, PartialEq)]
pub struct MasterCheckpoint {
    /// Layout version ([`CHECKPOINT_VERSION`]).
    pub version: u16,
    /// Policy the checkpointing master ran (restore refuses a mismatch).
    pub policy: MigrationPolicy,
    /// Active pending-list discipline.
    pub order: MigrationOrder,
    /// Next migration-id counter (monotone across restarts so successor
    /// ids never collide with pre-checkpoint ones).
    pub next_id: u64,
    /// The detector clock at checkpoint time.
    pub clock: SimTime,
    /// Rolled-up counters.
    pub stats: MasterStats,
    /// Per-node view, indexed by node id.
    pub nodes: Vec<NodeCheckpoint>,
    /// Pending migrations in admission order (sorted by `seq`).
    pub pending: Vec<PendingCheckpoint>,
    /// block → node buffer map (memory-replica registry).
    pub migrated: Vec<(BlockId, NodeId)>,
    /// Ignem's submission-time bindings.
    pub ignem_bindings: Vec<(BlockId, NodeId)>,
    /// job → requested blocks (eviction routing).
    pub job_blocks: Vec<(JobId, Vec<BlockId>)>,
    /// Outstanding bindings awaiting completion.
    pub bound: Vec<BoundCheckpoint>,
}

/// One node's estimate, liveness, and detector/membership state inside a
/// [`MasterCheckpoint`].
#[derive(Debug, Clone, PartialEq)]
pub struct NodeCheckpoint {
    /// Seconds-per-byte estimate at checkpoint time.
    pub spb: f64,
    /// The master's view of the node's queued backlog, in bytes.
    pub queued_bytes: f64,
    /// Liveness.
    pub up: bool,
    /// Detector/membership classification.
    pub health: NodeHealth,
    /// Strike instants inside the sliding window, oldest first.
    pub strikes: Vec<SimTime>,
    /// Quarantine expiry (meaningful while `health` is `Quarantined`).
    pub quarantined_until: SimTime,
    /// The in-flight probation migration, when on probation.
    pub probation_block: Option<BlockId>,
    /// Decommissioned flag.
    pub removed: bool,
    /// Admission-ramp progress, when joining.
    pub join_completed: u32,
}

/// One pending migration inside a [`MasterCheckpoint`].
#[derive(Debug, Clone, PartialEq)]
pub struct PendingCheckpoint {
    /// The migration.
    pub migration: Migration,
    /// Original admission stamp (FIFO key and stable tie-break).
    pub seq: u64,
    /// Requesting job's scheduling hint.
    pub hint: JobHint,
    /// Retry backoff: may not bind before this instant.
    pub not_before: SimTime,
}

/// One outstanding binding inside a [`MasterCheckpoint`].
#[derive(Debug, Clone, PartialEq)]
pub struct BoundCheckpoint {
    /// The slave it is bound to.
    pub node: NodeId,
    /// When the binding was made.
    pub bound_at: SimTime,
    /// The node's estimated stream time when the binding was made.
    pub est_secs_at_bind: f64,
    /// Requesting job's scheduling hint.
    pub hint: JobHint,
    /// Original admission stamp.
    pub seq: u64,
    /// The bound migration.
    pub migration: Migration,
}

/// The DYRS master state machine.
///
/// ```
/// use dyrs::master::{BlockRequest, Master};
/// use dyrs::types::EvictionMode;
/// use dyrs::MigrationPolicy;
/// use dyrs_cluster::NodeId;
/// use dyrs_dfs::{BlockId, JobId};
/// use simkit::Rng;
///
/// const MB: f64 = (1u64 << 20) as f64;
/// let mut master = Master::new(MigrationPolicy::Dyrs, 3, 140.0 * MB, Rng::new(1));
///
/// // heartbeats teach the master each slave's migration cost
/// master.on_heartbeat(NodeId(0), 1.0 / (140.0 * MB), 0); // fast
/// master.on_heartbeat(NodeId(1), 1.0 / (10.0 * MB), 0);  // slow
/// master.on_heartbeat(NodeId(2), 1.0 / (140.0 * MB), 0); // fast
///
/// // a client asks to migrate one block replicated on nodes 0 and 1
/// master.request_migration(
///     JobId(7),
///     vec![BlockRequest {
///         block: BlockId(0),
///         bytes: 256 << 20,
///         replicas: vec![NodeId(0), NodeId(1)],
///     }],
///     EvictionMode::Implicit,
/// );
///
/// // Algorithm 1 targets the replica expected to finish earliest …
/// master.retarget();
/// assert_eq!(master.target_of(BlockId(0)), Some(NodeId(0)));
///
/// // … and binding happens lazily, when the *targeted* slave pulls:
/// assert!(master.on_slave_pull(NodeId(1), 4).is_empty(), "slow node gets nothing");
/// let bound = master.on_slave_pull(NodeId(0), 4);
/// assert_eq!(bound.len(), 1);
/// ```
pub struct Master {
    policy: MigrationPolicy,
    nodes: Vec<NodeState>,
    /// The indexed pending-migration store and Algorithm 1 engine. All
    /// pending bookkeeping goes through its API (`pending-fence` lint).
    sched: Scheduler,
    /// block → node currently buffering it.
    migrated: BTreeMap<BlockId, NodeId>,
    /// Ignem only: block → the replica chosen at submission time. Ignem's
    /// read path trusts this binding — reads are directed to the chosen
    /// node whether or not the migration has completed, which is why
    /// Fig. 8 shows Ignem's reads staying uniform even with a slow node.
    ignem_bindings: BTreeMap<BlockId, NodeId>,
    /// job → blocks it requested (eviction routing).
    job_blocks: BTreeMap<JobId, Vec<BlockId>>,
    rng: Rng,
    next_id: u64,
    stats: MasterStats,
    /// Prior for a node we have not heard a heartbeat from yet.
    default_spb: f64,
    /// Lifecycle span + provenance recorder; disconnected unless the
    /// driver attached one.
    obs: ObsHandle,
    /// Gray-failure detector config; `None` = detector off (the paper's
    /// exact behavior).
    detector: Option<FailureDetectorConfig>,
    /// Per-node detector state (only meaningful while `detector` is on).
    det: Vec<DetectorState>,
    /// Bindings awaiting completion, tracked for stuck detection and
    /// retry successors.
    bound_records: BTreeMap<BlockId, BoundRecord>,
    /// The detector's monotone view of simulated time, advanced by
    /// [`Master::on_heartbeat_at`] and [`Master::check_health`].
    clock: SimTime,
    /// No sweep before this instant can change a verdict: it is no later
    /// than any live heartbeat, quarantine or stuck deadline, and `ZERO`
    /// while an up node's deadline is unarmed. [`Master::check_health`]
    /// sets it after each full sweep; sites that add a deadline lower it,
    /// and sites that reshape detector state reset it to `ZERO`.
    health_due: SimTime,
}

impl Master {
    /// A master for `num_nodes` slaves under the given policy.
    ///
    /// `default_disk_bw` seeds the per-node cost prior (used only until
    /// the first heartbeat from each slave); `rng` drives Ignem's random
    /// replica choice.
    pub fn new(policy: MigrationPolicy, num_nodes: usize, default_disk_bw: f64, rng: Rng) -> Self {
        assert!(default_disk_bw > 0.0, "invalid disk bandwidth");
        Master {
            policy,
            nodes: vec![
                NodeState {
                    spb: 1.0 / default_disk_bw,
                    queued_bytes: 0.0,
                    up: true,
                };
                num_nodes
            ],
            sched: Scheduler::new(num_nodes, 1.0 / default_disk_bw),
            migrated: BTreeMap::new(),
            ignem_bindings: BTreeMap::new(),
            job_blocks: BTreeMap::new(),
            rng,
            next_id: 0,
            stats: MasterStats::default(),
            default_spb: 1.0 / default_disk_bw,
            obs: ObsHandle::disconnected(),
            detector: None,
            det: vec![DetectorState::default(); num_nodes],
            bound_records: BTreeMap::new(),
            clock: SimTime::ZERO,
            health_due: SimTime::ZERO,
        }
    }

    /// Enable the gray-failure detector. Only meaningful under delayed
    /// binding (Dyrs / Naive): the other policies never hold master-side
    /// bindings to unbind.
    pub fn configure_detector(&mut self, cfg: FailureDetectorConfig) {
        if cfg.enabled && self.policy.delayed_binding() {
            self.detector = Some(cfg);
        } else {
            self.detector = None;
            // Stale detector verdicts make no sense with the detector off;
            // membership state (joining/draining/removed) survives.
            for d in &mut self.det {
                if matches!(
                    d.health,
                    NodeHealth::Suspect | NodeHealth::Quarantined | NodeHealth::Probation
                ) {
                    d.health = NodeHealth::Healthy;
                    d.probation_block = None;
                }
            }
        }
        self.health_due = SimTime::ZERO;
        // Toggling the detector changes every node's candidacy rule.
        self.sync_all_nodes();
    }

    /// Push the master's live view of `node` — cost estimate, queued
    /// backlog, and candidacy (liveness ∧ detector health) — into the
    /// scheduler's scoring snapshot. Every mutation site calls this, so
    /// the snapshot is an exact mirror of the live view.
    fn sync_node(&mut self, node: NodeId) {
        let i = node.index();
        let s = self.nodes[i];
        self.sched.set_node_load(i, s.spb, s.queued_bytes);
        let candidate = s.up && self.targetable(node);
        self.sched.set_node_candidacy(i, candidate);
    }

    fn sync_all_nodes(&mut self) {
        for i in 0..self.nodes.len() {
            self.sync_node(NodeId(i as u32));
        }
    }

    /// Whether the gray-failure detector is active.
    pub fn detector_enabled(&self) -> bool {
        self.detector.is_some()
    }

    /// The node's current health classification. With the detector off,
    /// only the membership states (`Joining` / `Draining`) are reachable
    /// besides `Healthy`, so this stays `Healthy` for the paper's exact
    /// protocol until a membership operation runs.
    pub fn node_health(&self, node: NodeId) -> NodeHealth {
        self.det[node.index()].health
    }

    /// The node's cluster-membership phase
    /// (`Joining → Active → Draining → Removed`).
    pub fn membership(&self, node: NodeId) -> Membership {
        let d = &self.det[node.index()];
        if d.removed {
            Membership::Removed
        } else {
            match d.health {
                NodeHealth::Joining => Membership::Joining,
                NodeHealth::Draining => Membership::Draining,
                _ => Membership::Active,
            }
        }
    }

    /// Attach an observability recorder. Migration lifecycle transitions
    /// owned by the master (pending / targeted / bound / master-side
    /// aborts) and Algorithm 1 provenance are recorded through it.
    pub fn attach_obs(&mut self, obs: ObsHandle) {
        self.obs = obs;
    }

    /// Select the pending-list discipline (default FIFO).
    pub fn set_order(&mut self, order: MigrationOrder) {
        self.sched.set_order(order);
    }

    /// The active pending-list discipline.
    pub fn order(&self) -> MigrationOrder {
        self.sched.order()
    }

    /// The active policy.
    pub fn policy(&self) -> MigrationPolicy {
        self.policy
    }

    /// Statistics so far.
    pub fn stats(&self) -> MasterStats {
        self.stats
    }

    /// Number of migrations waiting to be bound.
    pub fn pending_len(&self) -> usize {
        self.sched.len()
    }

    /// Total bytes waiting to be bound.
    pub fn pending_bytes(&self) -> u64 {
        self.sched.bytes()
    }

    /// The node a pending block is currently targeted at, if any.
    pub fn target_of(&self, block: BlockId) -> Option<NodeId> {
        self.sched.target_of(block)
    }

    /// Where a block is buffered, if anywhere.
    pub fn memory_location(&self, block: BlockId) -> Option<NodeId> {
        self.migrated.get(&block).copied()
    }

    /// Blocks awaiting binding, in ascending id order (exposed for
    /// auditing).
    pub fn pending_block_ids(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.sched.block_ids()
    }

    /// Every (block, hosting node) buffering record, in ascending block
    /// order (exposed for auditing).
    pub fn buffered_locations(&self) -> impl Iterator<Item = (BlockId, NodeId)> + '_ {
        self.migrated.iter().map(|(&b, &n)| (b, n))
    }

    /// The master's heartbeat-fed view of `node`'s queued backlog in
    /// bytes (exposed for auditing). Between heartbeats this can only
    /// overestimate the slave's true backlog: binds add to both sides
    /// synchronously, while completions and cancellations shrink the
    /// slave's side first.
    pub fn queued_bytes_view(&self, node: NodeId) -> f64 {
        self.nodes[node.index()].queued_bytes
    }

    /// Ignem's submission-time binding for `block`, if the bound node is
    /// still up. Ignem's read path serves the block from this node (its
    /// disk until migration completes, its memory afterwards).
    pub fn ignem_read_target(&self, block: BlockId) -> Option<NodeId> {
        self.ignem_bindings
            .get(&block)
            .copied()
            .filter(|n| self.nodes[n.index()].up)
    }

    // ------------------------------------------------------------------
    // client requests
    // ------------------------------------------------------------------

    /// Handle a client migration request: `job` wants `blocks` in memory.
    ///
    /// * policy `Disabled` / `InstantRam`: no-op here (the simulator wires
    ///   InstantRam by pre-buffering outside the master);
    /// * `Ignem`: every block is bound immediately to a uniformly random
    ///   replica (§VI);
    /// * `Naive` / `Dyrs`: blocks join the pending list for delayed binding.
    ///
    /// Blocks already pending gain an extra job reference; blocks already
    /// buffered produce `add_refs` entries for the hosting slave.
    pub fn request_migration(
        &mut self,
        job: JobId,
        blocks: Vec<BlockRequest>,
        eviction: EvictionMode,
    ) -> RequestOutcome {
        self.request_migration_hinted(job, blocks, eviction, JobHint::default())
    }

    /// Like [`Master::request_migration`], with scheduling hints for the
    /// non-FIFO migration orders.
    pub fn request_migration_hinted(
        &mut self,
        job: JobId,
        blocks: Vec<BlockRequest>,
        eviction: EvictionMode,
        hint: JobHint,
    ) -> RequestOutcome {
        let mut out = RequestOutcome::default();
        if !self.policy.migrates() || self.policy == MigrationPolicy::InstantRam {
            return out;
        }
        let jref = JobRef { job, eviction };
        for req in blocks {
            if req.bytes == 0 || req.replicas.is_empty() {
                continue; // nothing to move / nowhere to read from
            }
            self.job_blocks.entry(job).or_default().push(req.block);
            if let Some(&node) = self.migrated.get(&req.block) {
                out.add_refs.push((node, req.block, jref));
                continue;
            }
            if self.sched.contains_block(req.block) {
                self.sched.add_job_ref(req.block, jref);
                continue;
            }
            self.stats.requested_blocks += 1;
            self.stats.requested_bytes += req.bytes;
            let migration = Migration {
                id: MigrationId(self.next_id),
                block: req.block,
                bytes: req.bytes,
                jobs: vec![jref],
                replicas: req.replicas,
                attempt: 0,
                dest_tier: 0,
            };
            self.next_id += 1;
            self.obs
                .migration_pending(migration.id.0, req.block, req.bytes, Some(job));
            if self.policy == MigrationPolicy::Ignem {
                // Immediate random-replica binding; the block never enters
                // the pending list.
                let up: Vec<NodeId> = migration
                    .replicas
                    .iter()
                    .copied()
                    .filter(|n| self.nodes[n.index()].up)
                    .collect();
                if let Some(&node) = up.get(self.rng.below(up.len().max(1) as u64) as usize) {
                    self.nodes[node.index()].queued_bytes += migration.bytes as f64;
                    self.stats.bound += 1;
                    self.ignem_bindings.insert(migration.block, node);
                    self.obs
                        .migration_bound(migration.id.0, node, cause::IGNEM_IMMEDIATE);
                    out.immediate.push(BoundMigration { migration, node });
                    self.sync_node(node);
                } else {
                    self.obs
                        .migration_aborted(migration.id.0, None, cause::NO_LIVE_REPLICA);
                }
            } else {
                let seq = self.next_id; // ids are monotone → arrival order
                self.sched.insert(migration, seq, hint, SimTime::ZERO);
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // heartbeats & liveness
    // ------------------------------------------------------------------

    /// Record a slave heartbeat: its migration-cost estimate (seconds per
    /// byte) and its queued backlog in bytes. Timeless variant for callers
    /// without a clock (keeps the heartbeat at the detector's current
    /// time, so deadlines never regress).
    pub fn on_heartbeat(&mut self, node: NodeId, secs_per_byte: f64, queued_bytes: u64) {
        let now = self.clock;
        self.on_heartbeat_at(node, secs_per_byte, queued_bytes, now);
    }

    /// Record a slave heartbeat at simulated time `now`: feeds the cost /
    /// backlog view and re-arms the node's failure-detector deadline. A
    /// heartbeat from a `Suspect` node clears the suspicion (its strike
    /// stays on the record).
    pub fn on_heartbeat_at(
        &mut self,
        node: NodeId,
        secs_per_byte: f64,
        queued_bytes: u64,
        now: SimTime,
    ) {
        self.clock = self.clock.max(now);
        let s = &mut self.nodes[node.index()];
        s.spb = secs_per_byte;
        s.queued_bytes = queued_bytes as f64;
        let was_up = std::mem::replace(&mut s.up, true);
        if let Some(cfg) = &self.detector {
            let d = &mut self.det[node.index()];
            d.last_heartbeat = Some(self.clock);
            if d.health == NodeHealth::Suspect {
                d.health = NodeHealth::Healthy;
            }
            // A suspect node's recovery re-arms its deadline; a node the
            // heartbeat brings back up may carry any deadline.
            self.health_due = if was_up {
                self.health_due.min(self.clock + cfg.suspect_after)
            } else {
                SimTime::ZERO
            };
        }
        self.sync_node(node);
    }

    /// Mark a slave up or down (mirrors the file system's liveness view).
    pub fn set_node_up(&mut self, node: NodeId, up: bool) {
        self.nodes[node.index()].up = up;
        if !up {
            // Blocks buffered there are gone; pending targets get fixed by
            // the next retarget pass.
            self.migrated.retain(|_, &mut n| n != node);
            // Fail-stop: the slave aborts its own queue when it dies; the
            // master re-pends successors so surviving replicas can cover
            // the work (no strike — this is a detected crash, not a gray
            // failure). With the detector off the records are simply
            // forgotten, matching the paper's soft-state story.
            let lost: Vec<BlockId> = self
                .bound_records
                .iter()
                .filter(|(_, r)| r.node == node)
                .map(|(&b, _)| b)
                .collect();
            for block in lost {
                if self.detector.is_some() {
                    self.respawn_bound(block, false);
                } else {
                    self.bound_records.remove(&block);
                }
            }
            // Detector verdicts reset with the crash; membership survives
            // it (a draining node that flaps is still draining).
            let d = &mut self.det[node.index()];
            let membership_health =
                matches!(d.health, NodeHealth::Joining | NodeHealth::Draining).then_some(d.health);
            let (removed, join_completed) = (d.removed, d.join_completed);
            *d = DetectorState::default();
            if let Some(h) = membership_health {
                d.health = h;
            }
            d.removed = removed;
            d.join_completed = join_completed;
        } else if self.detector.is_some() {
            // Re-arm the deadline at the next health check rather than
            // inheriting the pre-crash one.
            self.det[node.index()].last_heartbeat = None;
        }
        self.health_due = SimTime::ZERO;
        self.sync_node(node);
    }

    /// One failure-detector pass at simulated time `now`: classify nodes
    /// whose heartbeat deadline lapsed as `Suspect`, lift expired
    /// quarantines into `Probation`, and flag bound migrations past their
    /// progress deadline. The caller confirms the report against the
    /// slaves (which it owns) and feeds confirmed unbinds back through
    /// [`Master::on_unbound`] / [`Master::discard_bound`].
    ///
    /// Cheap enough to call on every heartbeat arrival: the sweep itself
    /// runs only once `now` reaches the earliest deadline that could
    /// change a verdict. Before that a sweep would find nothing, so the
    /// call just advances the clock and returns an empty report.
    pub fn check_health(&mut self, now: SimTime) -> HealthReport {
        let mut report = HealthReport::default();
        let Some(cfg) = self.detector.clone() else {
            return report;
        };
        self.clock = self.clock.max(now);
        let now = self.clock;
        if now < self.health_due {
            return report;
        }
        for i in 0..self.nodes.len() {
            // Removed nodes are out of the cluster: no heartbeat deadline,
            // no verdicts, even if a stale peer keeps the socket open.
            if !self.nodes[i].up || self.det[i].removed {
                continue;
            }
            let node = NodeId(i as u32);
            let d = &mut self.det[i];
            if d.health == NodeHealth::Quarantined && now >= d.quarantined_until {
                d.health = NodeHealth::Probation;
                d.probation_block = None;
                self.obs.counter_add("detector.probations", 1);
            }
            match d.last_heartbeat {
                None => d.last_heartbeat = Some(now), // arm the deadline
                Some(hb) => {
                    let lapsed = now.saturating_since(hb) > cfg.suspect_after;
                    if lapsed && matches!(d.health, NodeHealth::Healthy | NodeHealth::Probation) {
                        let failed_probation = d.health == NodeHealth::Probation;
                        d.health = NodeHealth::Suspect;
                        report.newly_suspect.push(node);
                        self.obs.counter_add("detector.suspects", 1);
                        self.strike(node, &cfg, now);
                        // A node that goes dark on probation has not
                        // earned its way back (unless the strike itself
                        // just quarantined it).
                        if failed_probation && self.det[i].health != NodeHealth::Quarantined {
                            self.quarantine(node, &cfg, now);
                        }
                    }
                }
            }
        }
        for (&block, rec) in &self.bound_records {
            let i = rec.node.index();
            if !self.nodes[i].up {
                continue;
            }
            if now.saturating_since(rec.bound_at) > rec.stuck_deadline(&cfg) {
                report.stuck.push((rec.node, block));
            }
        }
        self.health_due = self.next_health_due(&cfg);
        // Health transitions above change candidacy; push the new view.
        self.sync_all_nodes();
        report
    }

    /// The earliest instant a sweep could change a verdict: a heartbeat
    /// deadline of an up node that can still be suspected, a quarantine
    /// lift, or a bound migration's stuck deadline (`SimTime::MAX` when
    /// none is live). `ZERO` while an up node's deadline is unarmed,
    /// since the next sweep arms it.
    fn next_health_due(&self, cfg: &FailureDetectorConfig) -> SimTime {
        let mut due = SimTime::MAX;
        for (s, d) in self.nodes.iter().zip(&self.det) {
            if !s.up || d.removed {
                continue;
            }
            match (d.health, d.last_heartbeat) {
                (_, None) => return SimTime::ZERO,
                (NodeHealth::Healthy | NodeHealth::Probation, Some(hb)) => {
                    due = due.min(hb + cfg.suspect_after);
                }
                (NodeHealth::Quarantined, _) => due = due.min(d.quarantined_until),
                _ => {}
            }
        }
        for rec in self.bound_records.values() {
            if self.nodes[rec.node.index()].up {
                due = due.min(rec.bound_at + rec.stuck_deadline(cfg));
            }
        }
        due
    }

    /// Count one strike against `node` inside the sliding window;
    /// quarantine it when it strikes out.
    fn strike(&mut self, node: NodeId, cfg: &FailureDetectorConfig, now: SimTime) {
        self.obs.counter_add("detector.strikes", 1);
        let d = &mut self.det[node.index()];
        d.strikes.push_back(now);
        while let Some(&t) = d.strikes.front() {
            if now.saturating_since(t) > cfg.strike_window {
                d.strikes.pop_front();
            } else {
                break;
            }
        }
        if d.strikes.len() as u32 >= cfg.quarantine_strikes {
            self.quarantine(node, cfg, now);
        }
    }

    fn quarantine(&mut self, node: NodeId, cfg: &FailureDetectorConfig, now: SimTime) {
        let d = &mut self.det[node.index()];
        d.health = NodeHealth::Quarantined;
        d.quarantined_until = now + cfg.quarantine_backoff;
        d.probation_block = None;
        d.strikes.clear();
        self.health_due = SimTime::ZERO;
        self.obs.counter_add("detector.quarantines", 1);
        // Crash flight recorder: a quarantine is exactly the moment an
        // operator wants the recent span history, dumped and named.
        self.obs.flight_auto_dump("node-quarantined", Some(node));
    }

    /// A confirmed unbind: the caller revoked `block` from `node`'s queue
    /// (suspect node or stuck stream). Strikes the node, aborts the old
    /// span, and — while the bounded-retry budget lasts — re-pends a
    /// successor migration under a fresh id with deterministic exponential
    /// backoff, so Algorithm 1 can re-target a surviving replica.
    pub fn on_unbound(&mut self, node: NodeId, block: BlockId, why: &'static str) {
        let Some(cfg) = self.detector.clone() else {
            return;
        };
        match self.bound_records.get(&block) {
            Some(rec) if rec.node == node => {}
            _ => return, // stale: completed or re-bound meanwhile
        }
        let rec = self.bound_records.remove(&block).expect("presence checked");
        let s = &mut self.nodes[node.index()];
        s.queued_bytes = (s.queued_bytes - rec.migration.bytes as f64).max(0.0);
        self.strike(node, &cfg, self.clock);
        self.sync_node(node);
        let old = rec.migration;
        let attempt = old.attempt + 1;
        if attempt >= cfg.max_attempts {
            // Bounded retry: give up on the chain; the jobs read from disk.
            self.obs
                .migration_aborted(old.id.0, Some(node), cause::RETRIES_EXHAUSTED);
            self.obs.counter_add("detector.retries_exhausted", 1);
            return;
        }
        self.obs.migration_aborted(old.id.0, Some(node), why);
        if self.sched.contains_block(block) {
            // A newer request already re-pended the block; no successor.
            return;
        }
        self.spawn_successor(old, attempt, rec.hint, true);
    }

    /// Forget a binding without a strike or a successor: the caller found
    /// the slave no longer holds it (completed, cancelled by a read,
    /// scavenged, ...) so the slave owned the span's terminal event.
    ///
    /// Deliberately leaves `queued_bytes` alone: the slave dropped the
    /// block before this call, so the node's next heartbeat report (often
    /// already the last one) excludes its bytes — decrementing here on top
    /// of that sync would push the master's view *below* the slave's true
    /// backlog, breaking the §III-D overestimate invariant. A stale
    /// overestimate until the next heartbeat is the safe direction.
    pub fn discard_bound(&mut self, block: BlockId) {
        self.bound_records.remove(&block);
    }

    /// Re-pend a bound migration whose node fail-stopped. The dying slave
    /// owns the old span's terminal event (`slave-restart`), so this mints
    /// the successor silently on the old id and loudly on the new one.
    fn respawn_bound(&mut self, block: BlockId, strike: bool) {
        let Some(cfg) = self.detector.clone() else {
            return;
        };
        let Some(rec) = self.bound_records.remove(&block) else {
            return;
        };
        let s = &mut self.nodes[rec.node.index()];
        s.queued_bytes = (s.queued_bytes - rec.migration.bytes as f64).max(0.0);
        if strike {
            self.strike(rec.node, &cfg, self.clock);
        }
        self.sync_node(rec.node);
        let attempt = rec.migration.attempt + 1;
        if attempt >= cfg.max_attempts || self.sched.contains_block(block) {
            return;
        }
        self.spawn_successor(rec.migration, attempt, rec.hint, true);
    }

    /// The configured join admission ramp, falling back to the default
    /// when the detector is off (membership works either way).
    fn join_ramp_target(&self) -> u32 {
        self.detector.as_ref().map_or_else(
            || FailureDetectorConfig::default().join_ramp_target,
            |c| c.join_ramp_target,
        )
    }

    /// Deterministic seeded jitter in `[0, backoff/2)`: successors minted
    /// together (a drained node's whole queue, a crashed node's bindings)
    /// spread out instead of re-binding in lockstep.
    fn retry_jitter(&mut self, backoff: simkit::SimDuration) -> simkit::SimDuration {
        backoff.mul_f64(self.rng.below(512) as f64 / 1024.0)
    }

    /// Mint and enqueue the retry successor for an unbound migration.
    fn spawn_successor(&mut self, old: Migration, attempt: u32, hint: JobHint, backoff: bool) {
        let Some(cfg) = self.detector.clone() else {
            return;
        };
        let id = MigrationId(self.next_id);
        self.next_id += 1;
        let not_before = if backoff {
            // retry_backoff · 2^(attempt−1) + jitter, exponent capped well
            // below overflow; attempt ≥ 1 here.
            self.clock
                + cfg
                    .retry_backoff
                    .mul_f64(f64::powi(2.0, (attempt - 1).min(16) as i32))
                + self.retry_jitter(cfg.retry_backoff)
        } else {
            self.clock
        };
        let migration = Migration {
            id,
            block: old.block,
            bytes: old.bytes,
            jobs: old.jobs,
            replicas: old.replicas,
            attempt,
            dest_tier: 0,
        };
        self.obs
            .migration_pending_why(id.0, old.block, old.bytes, None, cause::RETRY);
        self.obs.counter_add("detector.retries", 1);
        let seq = self.next_id;
        self.sched.insert(migration, seq, hint, not_before);
    }

    // ------------------------------------------------------------------
    // Algorithm 1 — finish-time targeting
    // ------------------------------------------------------------------

    /// Whether the detector and membership plane admit `node` as an
    /// Algorithm 1 candidate. A joining node is a candidate (its pulls
    /// are ramp-capped instead); draining and removed nodes are not.
    fn targetable(&self, node: NodeId) -> bool {
        let d = &self.det[node.index()];
        !d.removed
            && matches!(
                d.health,
                NodeHealth::Healthy | NodeHealth::Probation | NodeHealth::Joining
            )
    }

    /// One pass of Algorithm 1: greedily set each pending block's target
    /// to the replica node where it is expected to finish earliest, given
    /// each node's estimated cost and already-queued backlog.
    ///
    /// Generalized from blocks to bytes: the paper's
    /// `finishTime[n] = migTime[n] × (numQueued[n]+1)` becomes
    /// `finish[n] = spb[n] × queued_bytes[n]` plus the candidate block's
    /// own `spb[n] × bytes` evaluated per candidate, which reduces to the
    /// paper's formula when all blocks are the same size.
    ///
    /// The heavy lifting lives in [`crate::sched`]: the pass walks the
    /// whole queue, unless nothing it reads (a node's snapshot, the
    /// admitted entries, the targeted entries) changed since the last
    /// walk, in which case every target stands and the walk is skipped.
    /// bench-snapshot's `algo1/*` benches time the walk against the
    /// §III-D scalability claim (50 GB of pending migrations retargeted in
    /// under a millisecond).
    ///
    /// Returns how many pending entries the pass rescored vs skipped.
    pub fn retarget(&mut self) -> RetargetStats {
        if !self.policy.uses_targeting() {
            return RetargetStats::default();
        }
        self.stats.retarget_passes += 1;
        self.sched.retarget(&self.obs)
    }

    // ------------------------------------------------------------------
    // slave pull — delayed binding
    // ------------------------------------------------------------------

    /// A slave with `space` free local-queue slots asks for work.
    ///
    /// * `Dyrs`: only blocks *targeted* at this slave may bind — a slow
    ///   node gets nothing once faster nodes can cover the tail (§V-F3);
    /// * `Naive`: any pending block with a replica on this slave binds
    ///   (FIFO) — the straggler-prone baseline of Fig. 10;
    /// * other policies: nothing (no delayed binding).
    pub fn on_slave_pull(&mut self, node: NodeId, space: usize) -> Vec<Migration> {
        if !self.policy.delayed_binding() || space == 0 || !self.nodes[node.index()].up {
            return Vec::new();
        }
        // Detector and membership gating: suspect, quarantined, draining
        // and removed nodes get no work; a probation node gets exactly one
        // migration in flight; a joining node is capped by the admission
        // ramp (`1 + completions` since it joined).
        let mut allow = usize::MAX;
        {
            let d = &self.det[node.index()];
            if d.removed {
                return Vec::new();
            }
            match d.health {
                NodeHealth::Suspect | NodeHealth::Quarantined | NodeHealth::Draining => {
                    return Vec::new()
                }
                NodeHealth::Probation => {
                    if d.probation_block.is_some() {
                        return Vec::new();
                    }
                    allow = 1;
                }
                NodeHealth::Joining => {
                    allow = 1 + d.join_completed as usize;
                }
                NodeHealth::Healthy => {}
            }
        }
        let targeted = self.policy.uses_targeting();
        let now = self.clock;
        // The per-node index pops exactly the eligible entries in
        // admission order — no scan over unrelated pending work, and no
        // popping past the `space.min(allow)` budget.
        let picked = self.sched.pull(node, targeted, now, space.min(allow));
        let mut taken = Vec::with_capacity(picked.len());
        for entry in picked {
            self.nodes[node.index()].queued_bytes += entry.migration.bytes as f64;
            self.stats.bound += 1;
            self.obs
                .migration_bound(entry.migration.id.0, node, cause::HEARTBEAT_PULL);
            if self.det[node.index()].health == NodeHealth::Probation {
                self.det[node.index()].probation_block = Some(entry.migration.block);
            }
            // Tracked regardless of the detector: drain needs to know what
            // is bound where even under the paper's exact protocol.
            let rec = BoundRecord {
                node,
                bound_at: now,
                est_secs_at_bind: self.nodes[node.index()].spb * entry.migration.bytes as f64,
                hint: entry.hint,
                seq: entry.seq,
                migration: entry.migration.clone(),
            };
            if let Some(cfg) = &self.detector {
                self.health_due = self.health_due.min(now + rec.stuck_deadline(cfg));
            }
            self.bound_records.insert(entry.migration.block, rec);
            taken.push(entry.migration);
        }
        self.sync_node(node);
        taken
    }

    // ------------------------------------------------------------------
    // completion / reads / eviction
    // ------------------------------------------------------------------

    /// Migration id and bind time currently recorded for `block` on
    /// `node`, if any. A wire daemon uses this to close its own span when
    /// the completion frame arrives; in the simulator the slave model
    /// shares the obs handle and owns the terminal event, so the master
    /// never emits one itself.
    pub fn bound_migration(&self, node: NodeId, block: BlockId) -> Option<(u64, SimTime)> {
        self.bound_records
            .get(&block)
            .filter(|r| r.node == node)
            .map(|r| (r.migration.id.0, r.bound_at))
    }

    /// A slave finished migrating `block` into its memory.
    pub fn on_migration_complete(&mut self, node: NodeId, block: BlockId) {
        self.migrated.insert(block, node);
        self.stats.completed += 1;
        if matches!(self.bound_records.get(&block), Some(rec) if rec.node == node) {
            self.bound_records.remove(&block);
        }
        let ramp = self.join_ramp_target();
        let d = &mut self.det[node.index()];
        if d.health == NodeHealth::Probation && d.probation_block == Some(block) {
            // The probation migration finished: the circuit closes.
            d.health = NodeHealth::Healthy;
            d.probation_block = None;
            d.strikes.clear();
            self.health_due = SimTime::ZERO;
            self.obs.counter_add("detector.probations_passed", 1);
        } else if d.health == NodeHealth::Joining {
            // Admission ramp: each completion widens the pull cap; after
            // `join_ramp_target` completions the node is a full member.
            d.join_completed += 1;
            if d.join_completed >= ramp {
                d.health = NodeHealth::Healthy;
                d.join_completed = 0;
                // A graduate's heartbeat deadline counts from here on.
                self.health_due = SimTime::ZERO;
                self.obs.counter_add("membership.joins_completed", 1);
            }
        }
        self.sync_node(node);
    }

    /// A slave evicted `block` from its memory.
    pub fn on_evicted(&mut self, block: BlockId) {
        self.migrated.remove(&block);
    }

    /// A block was read before its migration was bound: cancel the pending
    /// migration (a *missed read* — migrating it now would be wasted work).
    /// Returns `true` if a pending migration was cancelled.
    pub fn on_block_read(&mut self, block: BlockId) -> bool {
        // One O(log n) index lookup replaces the old double scan (find for
        // the obs event, then retain to drop the entry).
        match self.sched.remove_block(block) {
            Some(entry) => {
                self.obs
                    .migration_aborted(entry.migration.id.0, None, cause::MISSED_READ);
                self.stats.missed_reads += 1;
                true
            }
            None => false,
        }
    }

    /// Explicit evict command for `job` (routed through the master,
    /// §III-C3). Removes the job from pending migrations (dropping entries
    /// nobody else wants) and returns the set of nodes that must drop the
    /// job's references.
    pub fn evict_job(&mut self, job: JobId) -> Vec<NodeId> {
        // Drop the job from pending migrations. `job_blocks` records every
        // block the job ever requested (every pending job-ref was added
        // alongside a `job_blocks` push), so this visits only the job's
        // own blocks instead of scanning the whole pending list.
        let blocks = self.job_blocks.remove(&job).unwrap_or_default();
        for &block in &blocks {
            if let Some(id) = self.sched.drop_job_ref(block, job) {
                self.obs.migration_aborted(id.0, None, cause::JOB_EVICTED);
            }
        }
        // Tell every slave buffering one of the job's blocks.
        let mut nodes: Vec<NodeId> = blocks
            .iter()
            .filter_map(|b| self.migrated.get(b).copied())
            .collect();
        nodes.sort();
        nodes.dedup();
        nodes
    }

    /// Master (process) failure + restart: all soft state is lost
    /// (§III-C1). Slaves keep their buffers and clean them up themselves;
    /// the only cost is that reads cannot be redirected to memory until
    /// state is repopulated.
    pub fn restart(&mut self) {
        for entry in self.sched.entries() {
            self.obs
                .migration_aborted(entry.migration.id.0, None, cause::MASTER_RESTART);
        }
        self.sched.reset(self.default_spb);
        self.migrated.clear();
        self.ignem_bindings.clear();
        self.job_blocks.clear();
        self.bound_records.clear();
        for s in &mut self.nodes {
            s.spb = self.default_spb;
            s.queued_bytes = 0.0;
        }
        // Detector state is soft too: everyone restarts healthy with an
        // unarmed deadline (no mass-suspect storm after the outage).
        for d in &mut self.det {
            *d = DetectorState::default();
        }
        self.health_due = SimTime::ZERO;
        // Nodes that were down stay down across a *master* restart; push
        // the post-reset load and candidacy view into the scheduler.
        self.sync_all_nodes();
    }

    // ------------------------------------------------------------------
    // membership lifecycle — drain / decommission / join
    // ------------------------------------------------------------------

    /// Begin draining `node`: it stops receiving new binds immediately
    /// (its pulls return empty) and leaves Algorithm 1 candidacy, but its
    /// active streams run to completion. Returns the blocks currently
    /// bound to it — the caller revokes the *not-yet-started* ones from
    /// the slave's queue and feeds each confirmed revocation back through
    /// [`Master::on_drain_unbound`]. Idempotent: re-draining a draining
    /// node just returns its remaining bound blocks.
    pub fn drain_node(&mut self, node: NodeId) -> Vec<BlockId> {
        let d = &mut self.det[node.index()];
        if d.removed {
            return Vec::new();
        }
        if d.health != NodeHealth::Draining {
            d.health = NodeHealth::Draining;
            d.probation_block = None;
            d.join_completed = 0;
            self.health_due = SimTime::ZERO;
            self.obs.counter_add("membership.drains", 1);
        }
        self.sync_node(node);
        self.bound_records
            .iter()
            .filter(|(_, r)| r.node == node)
            .map(|(&b, _)| b)
            .collect()
    }

    /// A confirmed drain revocation: the caller removed `block` from the
    /// draining `node`'s local queue before the stream started. Unlike
    /// [`Master::on_unbound`] this is intentional — no strike, no attempt
    /// increment — and the successor re-enters the pending list at the
    /// predecessor's original admission position, so FIFO/SJF/EDF order
    /// is preserved for re-targeted work.
    pub fn on_drain_unbound(&mut self, node: NodeId, block: BlockId) {
        match self.bound_records.get(&block) {
            Some(rec) if rec.node == node => {}
            _ => return, // stale: completed or re-bound meanwhile
        }
        let rec = self.bound_records.remove(&block).expect("presence checked");
        let s = &mut self.nodes[node.index()];
        s.queued_bytes = (s.queued_bytes - rec.migration.bytes as f64).max(0.0);
        self.sync_node(node);
        let old = rec.migration;
        self.obs
            .migration_aborted(old.id.0, Some(node), cause::NODE_DRAINED);
        if self.sched.contains_block(block) {
            // A newer request already re-pended the block; no successor.
            return;
        }
        let id = MigrationId(self.next_id);
        self.next_id += 1;
        // Jittered short hold-off so a whole drained queue doesn't slam
        // back into one successor node in lockstep; attempt carries over
        // unchanged (a drain is not a failure, so the retry budget is
        // untouched and a quiet drain run sees zero retries-exhausted).
        let backoff_unit = self.detector.as_ref().map_or_else(
            || FailureDetectorConfig::default().retry_backoff,
            |c| c.retry_backoff,
        );
        let not_before = self.clock + self.retry_jitter(backoff_unit);
        let migration = Migration {
            id,
            block: old.block,
            bytes: old.bytes,
            jobs: old.jobs,
            replicas: old.replicas,
            attempt: old.attempt,
            dest_tier: 0,
        };
        self.obs
            .migration_pending_why(id.0, block, migration.bytes, None, cause::DRAIN_RETARGET);
        self.obs.counter_add("membership.drain_retargets", 1);
        self.sched.insert(migration, rec.seq, rec.hint, not_before);
    }

    /// Whether a draining `node` has fully emptied: nothing pending is
    /// targeted at it and nothing bound to it awaits completion. Only
    /// then is [`Master::decommission`] safe.
    pub fn drain_complete(&self, node: NodeId) -> bool {
        self.det[node.index()].health == NodeHealth::Draining
            && self.sched.targeted_len(node) == 0
            && !self.bound_records.values().any(|r| r.node == node)
    }

    /// Remove a fully drained node from the cluster. Returns `false` (and
    /// does nothing) unless [`Master::drain_complete`] holds — callers
    /// poll until the queues empty. The slot stays allocated (node ids
    /// are stable) but the node is never a candidate and never bound work
    /// until it re-joins.
    pub fn decommission(&mut self, node: NodeId) -> bool {
        if !self.drain_complete(node) {
            return false;
        }
        // Its memory buffers leave the cluster with it.
        self.migrated.retain(|_, &mut n| n != node);
        self.ignem_bindings.retain(|_, &mut n| n != node);
        let d = &mut self.det[node.index()];
        *d = DetectorState::default();
        d.removed = true;
        self.health_due = SimTime::ZERO;
        self.obs.counter_add("membership.decommissions", 1);
        self.sync_node(node);
        true
    }

    /// (Re-)admit `node` to the cluster in the `Joining` state: cost
    /// estimate reset to the prior, empty queue view, candidacy restored
    /// under the admission ramp. Works both for a brand-new node and for
    /// one previously decommissioned.
    pub fn join_node(&mut self, node: NodeId) {
        let i = node.index();
        self.nodes[i] = NodeState {
            spb: self.default_spb,
            queued_bytes: 0.0,
            up: true,
        };
        // Stale buffer records from a previous life must not route reads.
        self.migrated.retain(|_, &mut n| n != node);
        self.det[i] = DetectorState {
            health: NodeHealth::Joining,
            ..DetectorState::default() // last_heartbeat: None re-arms
        };
        self.health_due = SimTime::ZERO;
        self.obs.counter_add("membership.joins", 1);
        self.sync_node(node);
    }

    // ------------------------------------------------------------------
    // checkpoint / restore
    // ------------------------------------------------------------------

    /// Capture a deterministic snapshot of the master's soft state:
    /// scheduler entries in admission order, per-node estimates and
    /// detector/membership state, the reference and buffer maps, and the
    /// outstanding bindings. Two masters in the same state produce
    /// byte-identical checkpoints once encoded (all maps are `BTreeMap`s
    /// and the pending list is sorted by admission stamp).
    pub fn checkpoint(&self) -> MasterCheckpoint {
        let mut pending: Vec<PendingCheckpoint> = self
            .sched
            .entries()
            .map(|e| PendingCheckpoint {
                migration: e.migration.clone(),
                seq: e.seq,
                hint: e.hint,
                not_before: e.not_before,
            })
            .collect();
        pending.sort_by_key(|p| p.seq);
        MasterCheckpoint {
            version: CHECKPOINT_VERSION,
            policy: self.policy,
            order: self.sched.order(),
            next_id: self.next_id,
            clock: self.clock,
            stats: self.stats,
            nodes: self
                .nodes
                .iter()
                .zip(&self.det)
                .map(|(s, d)| NodeCheckpoint {
                    spb: s.spb,
                    queued_bytes: s.queued_bytes,
                    up: s.up,
                    health: d.health,
                    strikes: d.strikes.iter().copied().collect(),
                    quarantined_until: d.quarantined_until,
                    probation_block: d.probation_block,
                    removed: d.removed,
                    join_completed: d.join_completed,
                })
                .collect(),
            pending,
            migrated: self.migrated.iter().map(|(&b, &n)| (b, n)).collect(),
            ignem_bindings: self.ignem_bindings.iter().map(|(&b, &n)| (b, n)).collect(),
            job_blocks: self
                .job_blocks
                .iter()
                .map(|(&j, bs)| (j, bs.clone()))
                .collect(),
            bound: self
                .bound_records
                .values()
                .map(|r| BoundCheckpoint {
                    node: r.node,
                    bound_at: r.bound_at,
                    est_secs_at_bind: r.est_secs_at_bind,
                    hint: r.hint,
                    seq: r.seq,
                    migration: r.migration.clone(),
                })
                .collect(),
        }
    }

    /// Rebuild the master's soft state from a checkpoint taken by a
    /// same-shaped master (same policy, same node count). Heartbeat
    /// deadlines restore *unarmed* — they re-arm at the first health
    /// check after restart, so reloading a checkpoint never mass-suspects
    /// a fleet that was merely unobserved during the outage. The RNG is
    /// deliberately not part of the snapshot: it only drives Ignem's
    /// random replica choice and the retry jitter, and the restarted
    /// process seeds its own.
    pub fn restore_from(&mut self, cp: &MasterCheckpoint) -> Result<(), String> {
        if cp.version != CHECKPOINT_VERSION {
            return Err(format!(
                "checkpoint version {} (this master speaks {})",
                cp.version, CHECKPOINT_VERSION
            ));
        }
        if cp.policy != self.policy {
            return Err(format!(
                "checkpoint policy {:?} != master policy {:?}",
                cp.policy, self.policy
            ));
        }
        if cp.nodes.len() != self.nodes.len() {
            return Err(format!(
                "checkpoint has {} nodes, master has {}",
                cp.nodes.len(),
                self.nodes.len()
            ));
        }
        let in_range = |n: NodeId| n.index() < self.nodes.len();
        for p in &cp.pending {
            if let Some(bad) = p.migration.replicas.iter().find(|&&n| !in_range(n)) {
                return Err(format!(
                    "pending {} replica {bad} out of range",
                    p.migration.block
                ));
            }
        }
        for b in &cp.bound {
            if !in_range(b.node) {
                return Err(format!(
                    "bound {} node {} out of range",
                    b.migration.block, b.node
                ));
            }
        }
        self.sched.reset(self.default_spb);
        self.sched.set_order(cp.order);
        for (i, n) in cp.nodes.iter().enumerate() {
            self.nodes[i] = NodeState {
                spb: n.spb,
                queued_bytes: n.queued_bytes,
                up: n.up,
            };
            self.det[i] = DetectorState {
                last_heartbeat: None, // re-arm: no mass-suspect after restart
                health: n.health,
                strikes: n.strikes.iter().copied().collect(),
                quarantined_until: n.quarantined_until,
                probation_block: n.probation_block,
                removed: n.removed,
                join_completed: n.join_completed,
            };
        }
        self.migrated = cp.migrated.iter().copied().collect();
        self.ignem_bindings = cp.ignem_bindings.iter().copied().collect();
        self.job_blocks = cp.job_blocks.iter().cloned().collect();
        self.bound_records.clear();
        for b in &cp.bound {
            if self
                .bound_records
                .insert(
                    b.migration.block,
                    BoundRecord {
                        node: b.node,
                        bound_at: b.bound_at,
                        est_secs_at_bind: b.est_secs_at_bind,
                        hint: b.hint,
                        seq: b.seq,
                        migration: b.migration.clone(),
                    },
                )
                .is_some()
            {
                return Err(format!("duplicate bound block {}", b.migration.block));
            }
        }
        // Re-insert pending silently: the spans were never closed (the
        // checkpoint captured them mid-life), so re-opening them would
        // double-count pending transitions.
        for p in &cp.pending {
            if self.sched.contains_block(p.migration.block) {
                return Err(format!("duplicate pending block {}", p.migration.block));
            }
            self.sched
                .insert(p.migration.clone(), p.seq, p.hint, p.not_before);
        }
        self.next_id = self.next_id.max(cp.next_id);
        self.clock = self.clock.max(cp.clock);
        self.stats = cp.stats;
        self.health_due = SimTime::ZERO;
        self.sync_all_nodes();
        Ok(())
    }
}

impl simkit::audit::Audit for Master {
    /// Master-side invariants:
    ///
    /// * every pending migration carries at least one interested job, a
    ///   positive size, and an in-range target (§III-A1's "bind once"
    ///   per-block uniqueness is structural now: the scheduler's block
    ///   index cannot hold two entries for one block, and
    ///   [`crate::sched`]'s own audit cross-checks every index);
    /// * the scheduler's per-node snapshot mirrors the master's live view
    ///   exactly;
    /// * per-node state from heartbeats is sane: cost estimates finite and
    ///   positive (§IV-A), queued-byte views finite and non-negative;
    /// * buffering records point at nodes that are up (§III-C2: a dead
    ///   node's records are dropped with it);
    /// * with the detector on, the sweep gate opens no later than any
    ///   live deadline, so a skipped sweep never hides a verdict.
    fn audit(&self, report: &mut simkit::audit::AuditReport) {
        let c = "master";
        for e in self.sched.entries() {
            let block = e.migration.block;
            report.check(
                !e.migration.jobs.is_empty(),
                c,
                "every pending migration has an interested job",
                || format!("{block} has no job references"),
            );
            report.check(
                e.migration.bytes > 0,
                c,
                "every pending migration moves at least one byte",
                || format!("{block} is zero-sized"),
            );
            if let Some(t) = e.target {
                report.check(
                    t.index() < self.nodes.len(),
                    c,
                    "targets index a known node",
                    || format!("{block} targets out-of-range {t}"),
                );
            }
        }
        for (i, s) in self.nodes.iter().enumerate() {
            let node = NodeId(i as u32);
            let (spb, queued, candidate) = self.sched.node_snapshot(i);
            report.check(
                spb == s.spb && queued == s.queued_bytes,
                c,
                "scheduler load snapshot mirrors the master's live view",
                || {
                    format!(
                        "node {i}: snapshot ({spb}, {queued}) vs live ({}, {})",
                        s.spb, s.queued_bytes
                    )
                },
            );
            report.check(
                candidate == (s.up && self.targetable(node)),
                c,
                "scheduler candidacy snapshot mirrors health gating",
                || format!("node {i}: snapshot candidate = {candidate}"),
            );
        }
        self.sched.audit(report);
        for (i, s) in self.nodes.iter().enumerate() {
            report.check(
                s.spb.is_finite() && s.spb > 0.0,
                c,
                "§IV-A: per-node cost estimates are finite and positive",
                || format!("node {i}: spb = {}", s.spb),
            );
            report.check(
                s.queued_bytes.is_finite() && s.queued_bytes >= 0.0,
                c,
                "per-node queued-byte views are finite and non-negative",
                || format!("node {i}: queued_bytes = {}", s.queued_bytes),
            );
        }
        for (&block, &node) in &self.migrated {
            report.check(
                node.index() < self.nodes.len() && self.nodes[node.index()].up,
                c,
                "§III-C2: buffering records point at live nodes",
                || format!("{block} recorded on {node}, which is not up"),
            );
        }
        for (&block, &node) in &self.ignem_bindings {
            report.check(
                node.index() < self.nodes.len(),
                c,
                "Ignem bindings index a known node",
                || format!("{block} bound to out-of-range {node}"),
            );
        }
        for (&block, rec) in &self.bound_records {
            report.check(
                rec.node.index() < self.nodes.len(),
                c,
                "bound records index a known node",
                || format!("{block} bound on out-of-range {}", rec.node),
            );
            report.check(
                rec.migration.block == block,
                c,
                "bound records are keyed by their migration's block",
                || format!("record for {block} holds {}", rec.migration.block),
            );
        }
        if let Some(cfg) = &self.detector {
            let due = self.next_health_due(cfg);
            report.check(
                self.health_due <= due,
                c,
                "the health sweep is due no later than any live deadline",
                || {
                    format!(
                        "health_due {} but a deadline falls at {due}",
                        self.health_due
                    )
                },
            );
            for (i, d) in self.det.iter().enumerate() {
                report.check(
                    d.probation_block.is_none() || d.health == NodeHealth::Probation,
                    c,
                    "only probation nodes hold a probation migration",
                    || format!("node {i} is {:?} with a probation block", d.health),
                );
                report.check(
                    d.health != NodeHealth::Quarantined || d.quarantined_until > SimTime::ZERO,
                    c,
                    "quarantines always carry a lift deadline",
                    || format!("node {i} quarantined with no deadline"),
                );
            }
        }
        for (i, d) in self.det.iter().enumerate() {
            let node = NodeId(i as u32);
            report.check(
                !d.removed || d.health == NodeHealth::Healthy,
                c,
                "removed nodes carry no residual health verdict",
                || format!("removed node {i} is {:?}", d.health),
            );
            if d.removed || d.health == NodeHealth::Draining {
                report.check(
                    self.sched.targeted_len(node) == 0 || d.health == NodeHealth::Draining,
                    c,
                    "nothing pending is targeted at a removed node",
                    || format!("node {i} removed with targeted pending work"),
                );
            }
            if d.removed {
                report.check(
                    !self.bound_records.values().any(|r| r.node == node),
                    c,
                    "nothing is bound to a removed node",
                    || format!("node {i} removed with outstanding bindings"),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1 << 20;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }
    fn j(i: u64) -> JobId {
        JobId(i)
    }
    fn b(i: u64) -> BlockId {
        BlockId(i)
    }

    fn req(i: u64, replicas: &[u32]) -> BlockRequest {
        BlockRequest {
            block: b(i),
            bytes: 256 * MB,
            replicas: replicas.iter().map(|&x| n(x)).collect(),
        }
    }

    fn master(policy: MigrationPolicy) -> Master {
        Master::new(policy, 4, 140.0 * MB as f64, Rng::new(7))
    }

    #[test]
    fn dyrs_requests_enter_pending() {
        let mut m = master(MigrationPolicy::Dyrs);
        let out = m.request_migration(
            j(1),
            vec![req(1, &[0, 1, 2]), req(2, &[1, 2, 3])],
            EvictionMode::Implicit,
        );
        assert!(out.immediate.is_empty());
        assert_eq!(m.pending_len(), 2);
        assert_eq!(m.pending_bytes(), 512 * MB);
        assert_eq!(m.stats().requested_blocks, 2);
    }

    #[test]
    fn ignem_binds_immediately_to_a_replica() {
        let mut m = master(MigrationPolicy::Ignem);
        let out = m.request_migration(j(1), vec![req(1, &[0, 1, 2])], EvictionMode::Implicit);
        assert_eq!(out.immediate.len(), 1);
        let bound = &out.immediate[0];
        assert!(bound.migration.replicas.contains(&bound.node));
        assert_eq!(m.pending_len(), 0);
        assert_eq!(m.stats().bound, 1);
    }

    #[test]
    fn ignem_spreads_uniformly_regardless_of_estimates() {
        let mut m = master(MigrationPolicy::Ignem);
        // node 0 is catastrophically slow — Ignem must not care
        m.on_heartbeat(n(0), 1.0, 0);
        let mut counts = [0usize; 4];
        for i in 0..4000 {
            let out =
                m.request_migration(j(i), vec![req(i, &[0, 1, 2, 3])], EvictionMode::Implicit);
            counts[out.immediate[0].node.index()] += 1;
        }
        for &c in &counts {
            assert!((800..=1200).contains(&c), "Ignem skew: {counts:?}");
        }
    }

    #[test]
    fn disabled_policy_ignores_requests() {
        let mut m = master(MigrationPolicy::Disabled);
        let out = m.request_migration(j(1), vec![req(1, &[0])], EvictionMode::Explicit);
        assert!(out.immediate.is_empty() && out.add_refs.is_empty());
        assert_eq!(m.pending_len(), 0);
    }

    #[test]
    fn duplicate_block_requests_merge_job_refs() {
        let mut m = master(MigrationPolicy::Dyrs);
        m.request_migration(j(1), vec![req(1, &[0, 1])], EvictionMode::Implicit);
        m.request_migration(j(2), vec![req(1, &[0, 1])], EvictionMode::Explicit);
        assert_eq!(m.pending_len(), 1, "same block must not migrate twice");
        assert_eq!(m.stats().requested_blocks, 1);
    }

    #[test]
    fn request_for_buffered_block_yields_add_ref() {
        let mut m = master(MigrationPolicy::Dyrs);
        m.request_migration(j(1), vec![req(1, &[0, 1])], EvictionMode::Implicit);
        m.retarget();
        let tgt = m.target_of(b(1)).unwrap();
        let taken = m.on_slave_pull(tgt, 4);
        assert_eq!(taken.len(), 1);
        m.on_migration_complete(tgt, b(1));
        let node = m.memory_location(b(1)).unwrap();
        let out = m.request_migration(j(2), vec![req(1, &[0, 1])], EvictionMode::Implicit);
        assert_eq!(out.add_refs.len(), 1);
        assert_eq!(out.add_refs[0].0, node);
        assert_eq!(out.add_refs[0].2.job, j(2));
    }

    #[test]
    fn retarget_prefers_fast_nodes() {
        let mut m = master(MigrationPolicy::Dyrs);
        // node 0 is 100x slower per byte
        m.on_heartbeat(n(0), 100.0 / (140.0 * MB as f64), 0);
        m.on_heartbeat(n(1), 1.0 / (140.0 * MB as f64), 0);
        m.request_migration(
            j(1),
            vec![req(1, &[0, 1]), req(2, &[0, 1])],
            EvictionMode::Implicit,
        );
        m.retarget();
        assert_eq!(m.target_of(b(1)), Some(n(1)));
        assert_eq!(
            m.target_of(b(2)),
            Some(n(1)),
            "greedy still avoids the slow node"
        );
    }

    #[test]
    fn retarget_balances_equal_nodes() {
        let mut m = master(MigrationPolicy::Dyrs);
        let blocks: Vec<BlockRequest> = (0..10).map(|i| req(i, &[0, 1])).collect();
        m.request_migration(j(1), blocks, EvictionMode::Implicit);
        m.retarget();
        let on0 = (0..10).filter(|&i| m.target_of(b(i)) == Some(n(0))).count();
        assert_eq!(on0, 5, "equal nodes split the batch evenly");
    }

    #[test]
    fn retarget_accounts_for_existing_queues() {
        let mut m = master(MigrationPolicy::Dyrs);
        let spb = 1.0 / (140.0 * MB as f64);
        m.on_heartbeat(n(0), spb, 10 * 256 * MB); // long backlog
        m.on_heartbeat(n(1), spb, 0);
        m.request_migration(j(1), vec![req(1, &[0, 1])], EvictionMode::Implicit);
        m.retarget();
        assert_eq!(m.target_of(b(1)), Some(n(1)));
    }

    #[test]
    fn retarget_skips_down_replicas() {
        let mut m = master(MigrationPolicy::Dyrs);
        m.set_node_up(n(1), false);
        m.request_migration(j(1), vec![req(1, &[0, 1])], EvictionMode::Implicit);
        m.retarget();
        assert_eq!(m.target_of(b(1)), Some(n(0)));
        m.set_node_up(n(0), false);
        m.retarget();
        assert_eq!(m.target_of(b(1)), None, "no live replica → no target");
    }

    #[test]
    fn dyrs_pull_honours_targets_and_space() {
        let mut m = master(MigrationPolicy::Dyrs);
        m.on_heartbeat(n(0), 1.0 / (140.0 * MB as f64), 0);
        // node 1 never heartbeats but has the prior; make it slow instead:
        m.on_heartbeat(n(1), 1.0, 0);
        let blocks: Vec<BlockRequest> = (0..5).map(|i| req(i, &[0, 1])).collect();
        m.request_migration(j(1), blocks, EvictionMode::Implicit);
        m.retarget();
        // everything targeted at fast node 0
        let slow_pull = m.on_slave_pull(n(1), 10);
        assert!(
            slow_pull.is_empty(),
            "slow node must not bind targeted work"
        );
        let fast_pull = m.on_slave_pull(n(0), 3);
        assert_eq!(fast_pull.len(), 3, "space limits the take");
        assert_eq!(m.pending_len(), 2);
        // FIFO order preserved
        assert_eq!(fast_pull[0].block, b(0));
        assert_eq!(fast_pull[1].block, b(1));
    }

    #[test]
    fn naive_pull_takes_any_replica_fifo() {
        let mut m = master(MigrationPolicy::Naive);
        m.request_migration(
            j(1),
            vec![req(1, &[0, 1]), req(2, &[2, 3]), req(3, &[0, 2])],
            EvictionMode::Implicit,
        );
        // no retarget needed for naive
        let pull = m.on_slave_pull(n(0), 10);
        let got: Vec<BlockId> = pull.iter().map(|p| p.block).collect();
        assert_eq!(got, vec![b(1), b(3)]);
        assert_eq!(m.pending_len(), 1);
    }

    #[test]
    fn pull_from_down_node_is_empty() {
        let mut m = master(MigrationPolicy::Naive);
        m.request_migration(j(1), vec![req(1, &[0, 1])], EvictionMode::Implicit);
        m.set_node_up(n(0), false);
        assert!(m.on_slave_pull(n(0), 10).is_empty());
    }

    #[test]
    fn missed_read_cancels_pending() {
        let mut m = master(MigrationPolicy::Dyrs);
        m.request_migration(j(1), vec![req(1, &[0, 1])], EvictionMode::Implicit);
        assert!(m.on_block_read(b(1)));
        assert_eq!(m.pending_len(), 0);
        assert_eq!(m.stats().missed_reads, 1);
        assert!(!m.on_block_read(b(1)), "second read is not a cancel");
    }

    #[test]
    fn evict_job_routes_to_hosting_nodes_and_cleans_pending() {
        let mut m = master(MigrationPolicy::Dyrs);
        m.request_migration(
            j(1),
            vec![req(1, &[0, 1]), req(2, &[0, 1])],
            EvictionMode::Explicit,
        );
        m.retarget();
        // bind and complete block 1 on its target
        let tgt = m.target_of(b(1)).unwrap();
        let taken = m.on_slave_pull(tgt, 1);
        assert_eq!(taken[0].block, b(1));
        m.on_migration_complete(tgt, b(1));
        // block 2 still pending; eviction should drop it and point at tgt
        let nodes = m.evict_job(j(1));
        assert_eq!(nodes, vec![tgt]);
        assert_eq!(m.pending_len(), 0, "sole-job pending entries dropped");
    }

    #[test]
    fn evict_job_keeps_shared_pending_entries() {
        let mut m = master(MigrationPolicy::Dyrs);
        m.request_migration(j(1), vec![req(1, &[0, 1])], EvictionMode::Explicit);
        m.request_migration(j(2), vec![req(1, &[0, 1])], EvictionMode::Explicit);
        m.evict_job(j(1));
        assert_eq!(m.pending_len(), 1, "job 2 still wants the block");
    }

    #[test]
    fn node_failure_drops_its_buffered_blocks() {
        let mut m = master(MigrationPolicy::Dyrs);
        m.on_migration_complete(n(2), b(9));
        assert_eq!(m.memory_location(b(9)), Some(n(2)));
        m.set_node_up(n(2), false);
        assert_eq!(m.memory_location(b(9)), None);
    }

    #[test]
    fn restart_clears_soft_state() {
        let mut m = master(MigrationPolicy::Dyrs);
        m.request_migration(j(1), vec![req(1, &[0, 1])], EvictionMode::Implicit);
        m.on_migration_complete(n(0), b(5));
        m.restart();
        assert_eq!(m.pending_len(), 0);
        assert_eq!(m.memory_location(b(5)), None);
        // and it keeps working after restart
        m.request_migration(j(2), vec![req(2, &[0, 1])], EvictionMode::Implicit);
        assert_eq!(m.pending_len(), 1);
    }

    #[test]
    fn zero_byte_and_replica_less_requests_skipped() {
        let mut m = master(MigrationPolicy::Dyrs);
        let out = m.request_migration(
            j(1),
            vec![
                BlockRequest {
                    block: b(1),
                    bytes: 0,
                    replicas: vec![n(0)],
                },
                BlockRequest {
                    block: b(2),
                    bytes: 10,
                    replicas: vec![],
                },
            ],
            EvictionMode::Implicit,
        );
        assert!(out.immediate.is_empty() && out.add_refs.is_empty());
        assert_eq!(m.pending_len(), 0);
    }

    #[test]
    fn sjf_order_puts_small_jobs_first() {
        let mut m = master(MigrationPolicy::Naive);
        m.set_order(crate::MigrationOrder::SmallestJobFirst);
        let hint = |bytes| JobHint {
            expected_launch: simkit::SimTime::ZERO,
            total_bytes: bytes,
        };
        m.request_migration_hinted(
            j(1),
            vec![req(1, &[0]), req(2, &[0])],
            EvictionMode::Implicit,
            hint(2 * 256 * MB),
        );
        m.request_migration_hinted(
            j(2),
            vec![req(3, &[0])],
            EvictionMode::Implicit,
            hint(256 * MB),
        );
        // job 2 is smaller → its block jumps the queue
        let pulled = m.on_slave_pull(n(0), 10);
        let order: Vec<BlockId> = pulled.iter().map(|p| p.block).collect();
        assert_eq!(order, vec![b(3), b(1), b(2)]);
    }

    #[test]
    fn edf_order_puts_imminent_jobs_first() {
        let mut m = master(MigrationPolicy::Naive);
        m.set_order(crate::MigrationOrder::EarliestDeadlineFirst);
        let hint = |secs| JobHint {
            expected_launch: simkit::SimTime::from_secs(secs),
            total_bytes: 0,
        };
        m.request_migration_hinted(j(1), vec![req(1, &[0])], EvictionMode::Implicit, hint(30));
        m.request_migration_hinted(j(2), vec![req(2, &[0])], EvictionMode::Implicit, hint(10));
        m.request_migration_hinted(j(3), vec![req(3, &[0])], EvictionMode::Implicit, hint(20));
        let pulled = m.on_slave_pull(n(0), 10);
        let order: Vec<BlockId> = pulled.iter().map(|p| p.block).collect();
        assert_eq!(order, vec![b(2), b(3), b(1)]);
    }

    #[test]
    fn fifo_order_is_arrival_order() {
        let mut m = master(MigrationPolicy::Naive);
        assert_eq!(m.order(), crate::MigrationOrder::Fifo);
        let hint = |bytes| JobHint {
            expected_launch: simkit::SimTime::ZERO,
            total_bytes: bytes,
        };
        // larger job arrives first and stays first under FIFO
        m.request_migration_hinted(j(1), vec![req(1, &[0])], EvictionMode::Implicit, hint(999));
        m.request_migration_hinted(j(2), vec![req(2, &[0])], EvictionMode::Implicit, hint(1));
        let pulled = m.on_slave_pull(n(0), 10);
        assert_eq!(pulled[0].block, b(1));
    }

    #[test]
    fn restart_then_reheartbeat_resumes_targeting() {
        let mut m = master(MigrationPolicy::Dyrs);
        m.on_heartbeat(n(0), 1.0, 0); // slow before restart
        m.restart();
        // post-restart the stale slow estimate is gone (back to priors):
        // targeting works immediately and no node is unfairly avoided
        m.request_migration(j(5), vec![req(9, &[0, 1])], EvictionMode::Implicit);
        m.retarget();
        assert!(m.target_of(b(9)).is_some());
        // fresh heartbeats take effect as usual
        m.on_heartbeat(n(0), 1.0, 0); // slow again
        m.retarget();
        assert_eq!(m.target_of(b(9)), Some(n(1)));
    }

    #[test]
    fn evict_unknown_job_is_noop() {
        let mut m = master(MigrationPolicy::Dyrs);
        assert!(m.evict_job(j(42)).is_empty());
        assert_eq!(m.pending_len(), 0);
    }

    #[test]
    fn ignem_read_target_tracks_liveness() {
        let mut m = master(MigrationPolicy::Ignem);
        let out = m.request_migration(j(1), vec![req(1, &[2])], EvictionMode::Implicit);
        let node = out.immediate[0].node;
        assert_eq!(m.ignem_read_target(b(1)), Some(node));
        m.set_node_up(node, false);
        assert_eq!(m.ignem_read_target(b(1)), None, "down node is no target");
        m.set_node_up(node, true);
        assert_eq!(m.ignem_read_target(b(1)), Some(node));
    }

    #[test]
    fn naive_pull_ignores_targets_entirely() {
        let mut m = master(MigrationPolicy::Naive);
        m.on_heartbeat(n(0), 1.0, 0); // catastrophically slow
        m.request_migration(j(1), vec![req(1, &[0])], EvictionMode::Implicit);
        // naive binds to any replica holder with space — even the slow one
        assert_eq!(m.on_slave_pull(n(0), 1).len(), 1);
    }

    #[test]
    fn straggler_avoidance_shape() {
        // End-of-batch behaviour (§V-F3): with a slow and a fast node and a
        // short tail of work, everything targets the fast node.
        let mut m = master(MigrationPolicy::Dyrs);
        let fast = 1.0 / (140.0 * MB as f64);
        m.on_heartbeat(n(0), fast * 20.0, 0); // slow node
        m.on_heartbeat(n(1), fast, 0);
        let blocks: Vec<BlockRequest> = (0..3).map(|i| req(i, &[0, 1])).collect();
        m.request_migration(j(1), blocks, EvictionMode::Implicit);
        m.retarget();
        for i in 0..3 {
            assert_eq!(
                m.target_of(b(i)),
                Some(n(1)),
                "tail block {i} must avoid the slow node"
            );
        }
        // but with a long batch the slow node eventually gets some work
        let blocks: Vec<BlockRequest> = (10..80).map(|i| req(i, &[0, 1])).collect();
        m.request_migration(j(2), blocks, EvictionMode::Implicit);
        m.retarget();
        let slow_count = (10..80)
            .filter(|&i| m.target_of(b(i)) == Some(n(0)))
            .count();
        assert!(
            slow_count > 0,
            "a long batch should use residual slow-node bandwidth"
        );
        assert!(slow_count < 35, "but far less than half");
    }

    // ------------------------------------------------------------------
    // gray-failure detector
    // ------------------------------------------------------------------

    use crate::config::FailureDetectorConfig;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn detector_master() -> Master {
        let mut m = master(MigrationPolicy::Dyrs);
        m.configure_detector(FailureDetectorConfig::default());
        for i in 0..4 {
            m.on_heartbeat_at(n(i), 1.0 / (140.0 * MB as f64), 0, t(0));
        }
        m
    }

    /// Bind one block (replicated on `reps`) and return its bound node.
    fn bind_one(m: &mut Master, block: u64, reps: &[u32]) -> NodeId {
        m.request_migration(j(block), vec![req(block, reps)], EvictionMode::Implicit);
        m.retarget();
        let tgt = m.target_of(b(block)).expect("live replica");
        let taken = m.on_slave_pull(tgt, 4);
        assert!(taken.iter().any(|mig| mig.block == b(block)));
        tgt
    }

    #[test]
    fn detector_off_for_non_delayed_binding_policies() {
        for policy in [MigrationPolicy::Ignem, MigrationPolicy::Disabled] {
            let mut m = master(policy);
            m.configure_detector(FailureDetectorConfig::default());
            assert!(!m.detector_enabled(), "{policy:?} holds no bindings");
        }
        let mut m = master(MigrationPolicy::Naive);
        m.configure_detector(FailureDetectorConfig::default());
        assert!(m.detector_enabled());
        m.configure_detector(FailureDetectorConfig {
            enabled: false,
            ..FailureDetectorConfig::default()
        });
        assert!(!m.detector_enabled());
    }

    #[test]
    fn missed_heartbeats_suspect_the_node_and_unbind_rebinds_elsewhere() {
        let mut m = detector_master();
        let tgt = bind_one(&mut m, 1, &[0, 1]);
        // everyone else heartbeats on; the bound node goes dark
        for i in 0..4 {
            if n(i) != tgt {
                m.on_heartbeat_at(n(i), 1.0 / (140.0 * MB as f64), 0, t(4));
            }
        }
        let report = m.check_health(t(4));
        assert_eq!(report.newly_suspect, vec![tgt]);
        assert_eq!(m.node_health(tgt), NodeHealth::Suspect);
        // the caller confirms the revocation; a successor re-pends
        m.on_unbound(tgt, b(1), cause::NODE_SUSPECT);
        assert_eq!(m.pending_len(), 1);
        // suspect nodes are not candidates; the survivor is
        m.retarget();
        let new_target = m.target_of(b(1)).expect("survivor replica");
        assert_ne!(new_target, tgt);
        // backoff: the successor may not bind before clock + retry_backoff
        assert!(m.on_slave_pull(new_target, 4).is_empty(), "backoff gates");
        m.on_heartbeat_at(new_target, 1.0 / (140.0 * MB as f64), 0, t(6));
        let taken = m.on_slave_pull(new_target, 4);
        assert_eq!(taken.len(), 1);
        assert_eq!(taken[0].block, b(1));
        assert_eq!(taken[0].attempt, 1, "successor carries the retry count");
    }

    #[test]
    fn heartbeat_clears_suspicion() {
        let mut m = detector_master();
        m.check_health(t(4));
        assert_eq!(m.node_health(n(0)), NodeHealth::Suspect);
        m.on_heartbeat_at(n(0), 1.0, 0, t(5));
        assert_eq!(m.node_health(n(0)), NodeHealth::Healthy);
    }

    #[test]
    fn strikes_quarantine_then_probation_then_healthy() {
        let mut m = detector_master();
        // three stuck-stream strikes inside the window → quarantine
        for i in 0..3 {
            let tgt = bind_one(&mut m, i, &[0]);
            assert_eq!(tgt, n(0));
            m.on_unbound(n(0), b(i), cause::STUCK_STREAM);
        }
        assert_eq!(m.node_health(n(0)), NodeHealth::Quarantined);
        assert!(
            m.on_slave_pull(n(0), 8).is_empty(),
            "quarantined binds nothing"
        );
        // quarantined node is not a candidate even as sole replica: the
        // successors stay pending rather than being dropped
        m.retarget();
        assert!(m.pending_len() > 0);
        for blk in m.pending_block_ids().collect::<Vec<_>>() {
            assert_eq!(m.target_of(blk), None, "{blk} targeted a quarantined node");
        }
        // backoff elapses → probation admits exactly one migration
        m.on_heartbeat_at(n(0), 1.0 / (140.0 * MB as f64), 0, t(11));
        m.check_health(t(11));
        assert_eq!(m.node_health(n(0)), NodeHealth::Probation);
        m.retarget();
        let taken = m.on_slave_pull(n(0), 8);
        assert_eq!(taken.len(), 1, "probation allows one in-flight migration");
        assert!(m.on_slave_pull(n(0), 8).is_empty(), "second pull gated");
        // completing the probation migration closes the circuit
        m.on_migration_complete(n(0), taken[0].block);
        assert_eq!(m.node_health(n(0)), NodeHealth::Healthy);
        m.on_heartbeat_at(n(0), 1.0 / (140.0 * MB as f64), 0, t(13));
        assert!(!m.on_slave_pull(n(0), 8).is_empty(), "healthy again");
    }

    #[test]
    fn quarantine_auto_dumps_the_flight_recorder_naming_the_node() {
        let obs = ObsHandle::new();
        let mut m = detector_master();
        m.attach_obs(obs.clone());
        // Three stuck-stream strikes inside the window force a quarantine
        // — the crash the flight recorder exists to explain.
        for i in 0..3 {
            let tgt = bind_one(&mut m, i, &[0]);
            assert_eq!(tgt, n(0));
            m.on_unbound(n(0), b(i), cause::STUCK_STREAM);
        }
        assert_eq!(m.node_health(n(0)), NodeHealth::Quarantined);
        let dumps = obs.auto_flight_dumps();
        if !obs.is_enabled() {
            assert!(dumps.is_empty(), "no-op handles never dump");
            return;
        }
        assert_eq!(dumps.len(), 1, "exactly one quarantine, one dump");
        let d = &dumps[0];
        assert_eq!(d.reason, "node-quarantined");
        assert_eq!(d.node, Some(0), "the dump names the quarantined node");
        // The ring holds the span history that led here: the striking
        // aborts on node 0, then the marker entry stamped at dump time.
        assert!(
            d.entries
                .iter()
                .any(|e| e.node == Some(0) && e.cause == cause::STUCK_STREAM),
            "recent transitions explain the strikes: {:?}",
            d.entries
        );
        let marker = d.entries.last().expect("ring is not empty");
        assert_eq!(marker.cause, "node-quarantined");
        assert_eq!(
            d.entries_for(0).count(),
            d.entries.iter().filter(|e| e.node == Some(0)).count(),
            "per-node filter matches a manual scan"
        );
    }

    #[test]
    fn bounded_retry_gives_up_after_max_attempts() {
        let mut m = detector_master();
        m.configure_detector(FailureDetectorConfig {
            max_attempts: 3,
            quarantine_strikes: 100, // isolate the retry budget
            ..FailureDetectorConfig::default()
        });
        bind_one(&mut m, 1, &[0]);
        let mut clock = 0;
        for attempt in 1..3u32 {
            m.on_unbound(n(0), b(1), cause::STUCK_STREAM);
            assert_eq!(m.pending_len(), 1, "attempt {attempt} re-pends");
            // advance past the backoff and re-bind
            clock += 10;
            m.on_heartbeat_at(n(0), 1.0 / (140.0 * MB as f64), 0, t(clock));
            m.retarget();
            let taken = m.on_slave_pull(n(0), 4);
            assert_eq!(taken.len(), 1);
            assert_eq!(taken[0].attempt, attempt);
        }
        // third unbind exhausts the budget: no successor
        m.on_unbound(n(0), b(1), cause::STUCK_STREAM);
        assert_eq!(m.pending_len(), 0, "retries exhausted → chain ends");
    }

    #[test]
    fn node_down_repends_bound_work_without_a_strike() {
        let mut m = detector_master();
        let tgt = bind_one(&mut m, 1, &[0, 1]);
        m.set_node_up(tgt, false);
        assert_eq!(m.pending_len(), 1, "fail-stop re-pends the binding");
        assert_eq!(m.node_health(tgt), NodeHealth::Healthy, "crash ≠ strike");
        m.retarget();
        let new_target = m.target_of(b(1)).expect("survivor");
        assert_ne!(new_target, tgt);
    }

    #[test]
    fn stuck_streams_are_reported_after_the_deadline() {
        let mut m = detector_master();
        let tgt = bind_one(&mut m, 1, &[0, 1]);
        // keep the node heartbeating (not suspect), but the migration
        // never completes: past the floor deadline it is flagged
        m.on_heartbeat_at(tgt, 1.0 / (140.0 * MB as f64), 256 * MB, t(20));
        assert!(m.check_health(t(20)).stuck.is_empty(), "deadline not yet");
        m.on_heartbeat_at(tgt, 1.0 / (140.0 * MB as f64), 256 * MB, t(21));
        let report = m.check_health(t(21));
        assert_eq!(report.stuck, vec![(tgt, b(1))]);
    }

    #[test]
    fn discard_bound_forgets_without_strike_or_successor() {
        let mut m = detector_master();
        let tgt = bind_one(&mut m, 1, &[0, 1]);
        m.discard_bound(b(1));
        assert_eq!(m.pending_len(), 0);
        assert_eq!(m.node_health(tgt), NodeHealth::Healthy);
        assert!(m.check_health(t(30)).stuck.is_empty(), "record is gone");
    }

    #[test]
    fn stale_unbound_is_ignored() {
        let mut m = detector_master();
        let tgt = bind_one(&mut m, 1, &[0, 1]);
        m.on_migration_complete(tgt, b(1));
        // a stale revocation after completion must not strike or re-pend
        m.on_unbound(tgt, b(1), cause::STUCK_STREAM);
        assert_eq!(m.pending_len(), 0);
        assert_eq!(m.node_health(tgt), NodeHealth::Healthy);
    }

    #[test]
    fn drain_blocks_new_binds_and_retargets_queued_work() {
        let mut m = detector_master();
        let tgt = bind_one(&mut m, 1, &[0, 1]);
        let bound = m.drain_node(tgt);
        assert_eq!(bound, vec![b(1)]);
        assert_eq!(m.node_health(tgt), NodeHealth::Draining);
        assert_eq!(m.membership(tgt), Membership::Draining);
        assert!(m.on_slave_pull(tgt, 4).is_empty(), "draining → no new work");
        m.on_drain_unbound(tgt, b(1));
        assert_eq!(m.pending_len(), 1, "successor re-pended");
        m.retarget();
        let successor = m.target_of(b(1)).expect("live replica");
        assert_ne!(successor, tgt);
        // The jittered hold-off (< 0.5 s) expires before the next beat.
        m.on_heartbeat_at(successor, 1.0 / (140.0 * MB as f64), 0, t(1));
        let taken = m.on_slave_pull(successor, 4);
        assert_eq!(taken.len(), 1);
        assert_eq!(
            taken[0].attempt, 0,
            "a drain is not a failure: retry budget untouched"
        );
    }

    #[test]
    fn decommission_waits_for_queues_to_empty() {
        let mut m = detector_master();
        let tgt = bind_one(&mut m, 1, &[0, 1]);
        let other = if tgt == n(0) { n(1) } else { n(0) };
        m.drain_node(tgt);
        assert!(!m.drain_complete(tgt), "binding still outstanding");
        assert!(!m.decommission(tgt), "refused until queues empty");
        m.on_migration_complete(tgt, b(1)); // in-flight stream finishes
        assert!(m.drain_complete(tgt));
        assert!(m.decommission(tgt));
        assert_eq!(m.membership(tgt), Membership::Removed);
        assert_eq!(
            m.memory_location(b(1)),
            None,
            "buffers leave the cluster with the node"
        );
        // A removed node is never a candidate and never bound work.
        m.request_migration(
            j(2),
            vec![req(2, &[tgt.0, other.0])],
            EvictionMode::Implicit,
        );
        m.retarget();
        assert_eq!(m.target_of(b(2)), Some(other));
        assert!(m.on_slave_pull(tgt, 4).is_empty());
    }

    #[test]
    fn join_ramp_caps_pulls_until_graduation() {
        let mut m = detector_master();
        m.join_node(n(0));
        assert_eq!(m.membership(n(0)), Membership::Joining);
        let blocks: Vec<BlockRequest> = (0..8).map(|i| req(i, &[0])).collect();
        m.request_migration(j(1), blocks, EvictionMode::Implicit);
        m.retarget();
        let first = m.on_slave_pull(n(0), 8);
        assert_eq!(first.len(), 1, "fresh joiner starts with one");
        m.on_migration_complete(n(0), first[0].block);
        let second = m.on_slave_pull(n(0), 8);
        assert_eq!(second.len(), 2, "ramp widens with completions");
        for mig in &second {
            m.on_migration_complete(n(0), mig.block);
        }
        assert_eq!(m.node_health(n(0)), NodeHealth::Joining, "3 of 4 done");
        let third = m.on_slave_pull(n(0), 8);
        assert!(!third.is_empty());
        m.on_migration_complete(n(0), third[0].block);
        assert_eq!(m.node_health(n(0)), NodeHealth::Healthy, "ramp complete");
        assert_eq!(m.membership(n(0)), Membership::Active);
    }

    #[test]
    fn drain_retarget_jitter_is_seeded_and_bounded() {
        let run = || {
            let mut m = detector_master();
            let tgt = bind_one(&mut m, 1, &[0, 1]);
            m.drain_node(tgt);
            m.on_drain_unbound(tgt, b(1));
            m.checkpoint().pending[0].not_before
        };
        let a = run();
        assert_eq!(a, run(), "same seed → same jitter");
        assert!(
            a < t(0) + simkit::SimDuration::from_millis(500),
            "jitter bounded by half the retry backoff, got {a:?}"
        );
    }

    #[test]
    fn checkpoint_preserves_membership_and_pending() {
        let mut m = detector_master();
        let tgt = bind_one(&mut m, 1, &[0, 1]);
        m.drain_node(tgt);
        m.on_drain_unbound(tgt, b(1));
        m.join_node(n(3));
        let cp = m.checkpoint();
        let mut m2 = master(MigrationPolicy::Dyrs);
        m2.configure_detector(FailureDetectorConfig::default());
        m2.restore_from(&cp).expect("same-shape restore");
        assert_eq!(m2.membership(tgt), Membership::Draining);
        assert_eq!(m2.membership(n(3)), Membership::Joining);
        assert_eq!(m2.pending_len(), 1);
        assert_eq!(m2.checkpoint(), cp, "restore is lossless");
    }

    #[test]
    fn restore_rearms_heartbeat_deadlines() {
        let m = detector_master();
        let cp = m.checkpoint();
        let mut m2 = master(MigrationPolicy::Dyrs);
        m2.configure_detector(FailureDetectorConfig::default());
        m2.restore_from(&cp).expect("same-shape restore");
        // Long after the checkpoint: deadlines re-arm, no mass-suspect.
        assert!(
            m2.check_health(t(1000)).newly_suspect.is_empty(),
            "restored deadlines are unarmed"
        );
        // Once re-armed, silence counts again.
        assert!(
            !m2.check_health(t(2000)).newly_suspect.is_empty(),
            "post-restart silence is still a fault"
        );
    }

    #[test]
    fn master_restart_resets_detector_state() {
        let mut m = detector_master();
        for i in 0..3 {
            bind_one(&mut m, i, &[0]);
            m.on_unbound(n(0), b(i), cause::STUCK_STREAM);
        }
        assert_eq!(m.node_health(n(0)), NodeHealth::Quarantined);
        m.restart();
        assert_eq!(m.node_health(n(0)), NodeHealth::Healthy);
        // no mass-suspect storm: deadlines re-arm at the first check
        let report = m.check_health(t(100));
        assert!(report.newly_suspect.is_empty());
    }

    #[test]
    fn a_failed_probation_quarantines_once() {
        let obs = ObsHandle::new();
        let mut m = master(MigrationPolicy::Dyrs);
        m.attach_obs(obs.clone());
        m.configure_detector(FailureDetectorConfig {
            quarantine_strikes: 1,
            ..FailureDetectorConfig::default()
        });
        let spb = 1.0 / (140.0 * MB as f64);
        for i in 0..4 {
            m.on_heartbeat_at(n(i), spb, 0, t(0));
        }
        // Node 0 goes silent: suspected (and struck out) at 4 s, on
        // probation at 14 s, where its lapsed deadline strikes it out
        // again.
        for s in 1..=14 {
            for i in 1..4 {
                m.on_heartbeat_at(n(i), spb, 0, t(s));
            }
            m.check_health(t(s));
        }
        assert_eq!(m.node_health(n(0)), NodeHealth::Quarantined);
        if !obs.is_enabled() {
            return;
        }
        let snap = obs.snapshot();
        assert_eq!(
            snap.counter("detector.quarantines"),
            2,
            "one per strike-out"
        );
        assert_eq!(snap.counter("detector.probations"), 1);
        assert_eq!(obs.auto_flight_dumps().len(), 2, "one dump per quarantine");
    }

    use proptest::prelude::*;

    /// The bound records of `m` in block order, as (node, block).
    fn bound_pairs(m: &Master) -> Vec<(NodeId, BlockId)> {
        m.bound_records
            .values()
            .map(|r| (r.node, r.migration.block))
            .collect()
    }

    /// Confirm a health report the way the simulator driver does: revoke
    /// a suspect's bindings, and revoke or forget each stuck one.
    fn apply_report(m: &mut Master, report: &HealthReport, x: u64) {
        for &node in &report.newly_suspect {
            for (n, block) in bound_pairs(m) {
                if n == node {
                    m.on_unbound(node, block, cause::NODE_SUSPECT);
                }
            }
        }
        for &(node, block) in &report.stuck {
            if x % 2 == 0 {
                m.on_unbound(node, block, cause::STUCK_STREAM);
            } else {
                m.discard_bound(block);
            }
        }
    }

    /// One operation of the gate-equivalence schedule; returns the
    /// health report when the operation ran a health check.
    fn step(m: &mut Master, op: u8, node: NodeId, x: u64, now: SimTime) -> Option<HealthReport> {
        let spb = (1 + x % 3) as f64 / (140.0 * MB as f64);
        let pick = |m: &Master| {
            let bound = bound_pairs(m);
            (!bound.is_empty()).then(|| bound[x as usize % bound.len()])
        };
        match op {
            0..=6 => m.on_heartbeat_at(node, spb, (x % 2) * 256 * MB, now),
            7 | 8 => {
                let other = n((node.0 + 1 + (x % 3) as u32) % 4);
                m.request_migration(
                    j(x),
                    vec![req(x, &[node.0, other.0])],
                    EvictionMode::Implicit,
                );
                m.retarget();
            }
            9 | 10 => {
                m.on_slave_pull(node, 1 + (x % 3) as usize);
            }
            // Complete one of `node`'s bindings if it has any (so joiners
            // graduate and probations pass), else any binding.
            11 => {
                let own = bound_pairs(m).into_iter().find(|&(n, _)| n == node);
                if let Some((n, block)) = own.or_else(|| pick(m)) {
                    m.on_migration_complete(n, block);
                }
            }
            12 => match pick(m) {
                Some((n, block)) if x % 2 == 0 => m.on_unbound(n, block, cause::STUCK_STREAM),
                Some((_, block)) => m.discard_bound(block),
                None => {}
            },
            13 => m.set_node_up(node, x % 3 != 0),
            14 => {
                for block in m.drain_node(node) {
                    if x % 2 == 0 {
                        m.on_drain_unbound(node, block);
                    }
                }
            }
            15 if x % 2 == 0 => {
                m.decommission(node);
            }
            15 => m.join_node(node),
            16 if x % 5 == 0 => m.restart(),
            16 if x % 5 == 1 => {
                let cp = m.checkpoint();
                m.restore_from(&cp).expect("same-shape restore");
            }
            _ => {
                let report = m.check_health(now);
                apply_report(m, &report, x);
                return Some(report);
            }
        }
        None
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The deadline gate never changes a verdict: a master that skips
        /// sweeps until `health_due` and one forced to sweep on every
        /// call report, classify and checkpoint identically through
        /// random heartbeat gaps, binds, completions, unbinds, flaps,
        /// membership churn, restarts and checkpoint reloads. The gated
        /// master's audit (which checks the gate's invariant) stays
        /// clean throughout.
        #[test]
        fn gated_sweeps_match_full_sweeps(
            knobs in (2u64..8, 200u64..20_000, 1u32..4, 1u64..12, 1u32..4),
            ops in proptest::collection::vec((0u8..20, 0u32..4, 0u64..1000, 0u64..1 << 16), 1..200),
        ) {
            let (suspect_s, floor_ms, strikes, backoff_s, ramp) = knobs;
            let cfg = FailureDetectorConfig {
                suspect_after: simkit::SimDuration::from_secs(suspect_s),
                stuck_multiple: 1.0,
                stuck_floor: simkit::SimDuration::from_millis(floor_ms),
                quarantine_strikes: strikes,
                quarantine_backoff: simkit::SimDuration::from_secs(backoff_s),
                join_ramp_target: ramp,
                ..FailureDetectorConfig::default()
            };
            let (obs_gated, obs_full) = (ObsHandle::new(), ObsHandle::new());
            let mut gated = master(MigrationPolicy::Dyrs);
            let mut full = master(MigrationPolicy::Dyrs);
            for (m, obs) in [(&mut gated, &obs_gated), (&mut full, &obs_full)] {
                m.attach_obs(obs.clone());
                m.configure_detector(cfg.clone());
            }
            let mut now = SimTime::ZERO;
            for (k, &(op, node, dt_ms, x)) in ops.iter().enumerate() {
                now += simkit::SimDuration::from_millis(dt_ms);
                let node = n(node);
                let a = step(&mut gated, op, node, x, now);
                full.health_due = SimTime::ZERO;
                let b = step(&mut full, op, node, x, now);
                prop_assert_eq!(&a, &b, "op {} ({}) at {}: health reports", k, op, now);
                for i in 0..4 {
                    let (dg, df) = (&gated.det[i], &full.det[i]);
                    prop_assert_eq!(
                        (dg.health, dg.last_heartbeat, gated.membership(n(i as u32))),
                        (df.health, df.last_heartbeat, full.membership(n(i as u32))),
                        "op {} ({}) at {}: node {}", k, op, now, i
                    );
                }
                prop_assert_eq!(gated.checkpoint(), full.checkpoint(), "op {} ({}): checkpoint", k, op);
                prop_assert_eq!(
                    obs_gated.snapshot().counters,
                    obs_full.snapshot().counters,
                    "op {} ({}): counters", k, op
                );
                let mut audit = simkit::audit::AuditReport::new();
                simkit::audit::Audit::audit(&gated, &mut audit);
                prop_assert!(audit.is_clean(), "op {} ({}): {:?}", k, op, audit.violations());
            }
        }
    }

    const BW: f64 = 140.0 * MB as f64;

    /// A Dyrs master over `nodes` slaves for the clean-pass-skip
    /// proptests, recording into `obs`.
    fn skip_master(nodes: u32, order: MigrationOrder, detector: bool, obs: &ObsHandle) -> Master {
        let mut m = Master::new(MigrationPolicy::Dyrs, nodes as usize, BW, Rng::new(7));
        m.set_order(order);
        m.attach_obs(obs.clone());
        if detector {
            m.configure_detector(FailureDetectorConfig::default());
        }
        for i in 0..nodes {
            m.on_heartbeat_at(n(i), 1.0 / BW, 0, SimTime::ZERO);
        }
        m
    }

    /// The provenance recorded since the last call, one record per line.
    fn provenance(obs: &ObsHandle) -> Vec<String> {
        let report = obs.take_report();
        report.provenance.iter().map(|r| format!("{r:?}")).collect()
    }

    /// One pass on each master of the pair, `walk` forced to walk. The
    /// forced pass walks every entry; the other walks too, recording the
    /// same provenance, or skips every entry and records none.
    fn pass_pair(
        skip: &mut Master,
        walk: &mut Master,
        obs: &[ObsHandle; 2],
    ) -> Result<RetargetStats, TestCaseError> {
        let a = skip.retarget();
        walk.sched.mark_dirty();
        let b = walk.retarget();
        let depth = walk.pending_len() as u64;
        prop_assert_eq!((b.rescored, b.skipped, b.ceiling_hits), (depth, 0, 0));
        let skipped = RetargetStats {
            rescored: 0,
            skipped: depth,
            ceiling_hits: 0,
        };
        prop_assert!(a == b || a == skipped, "a pass walks or skips: {a:?}");
        let (batch, walked) = (provenance(&obs[0]), provenance(&obs[1]));
        if a.rescored > 0 {
            prop_assert_eq!(batch, walked, "a walk's provenance");
        } else {
            prop_assert!(batch.is_empty(), "a skipped pass records nothing");
        }
        Ok(a)
    }

    /// What the pair must agree on after every op: depth, bytes, every
    /// pending block's target, and a clean audit on both sides.
    fn agree(a: &Master, b: &Master, k: usize) -> Result<(), TestCaseError> {
        let view = |m: &Master| {
            let targets: Vec<_> = m.pending_block_ids().map(|x| (x, m.target_of(x))).collect();
            (m.pending_len(), m.pending_bytes(), targets)
        };
        prop_assert_eq!(view(a), view(b), "op {}: pending state", k);
        for m in [a, b] {
            let mut audit = simkit::audit::AuditReport::new();
            simkit::audit::Audit::audit(m, &mut audit);
            prop_assert!(audit.is_clean(), "op {}: {:?}", k, audit.violations());
        }
        Ok(())
    }

    /// One op of the clean-pass-skip schedule other than a pass; returns
    /// what `m` answered, for the pair to compare. Op `k` admits blocks
    /// `8k..` for job `k`; read-cancels and evictions may name ids already
    /// gone or never admitted.
    fn skip_step(m: &mut Master, op: u8, k: u64, node: NodeId, x: u64, now: SimTime) -> String {
        let nodes = m.nodes.len() as u32;
        match op {
            // Admit 1–3 blocks (1–6 on a wide cluster), two replicas each,
            // with sizes and a hint that exercise the SJF and EDF keys.
            0 => {
                let count = 1 + x % if nodes > 6 { 6 } else { 3 };
                let reqs = (0..count)
                    .map(|i| {
                        let r0 = (node.0 + i as u32) % nodes;
                        BlockRequest {
                            block: b(8 * k + i),
                            bytes: (1 + (x + i) % 8) * 64 * MB,
                            replicas: vec![n(r0), n((r0 + 1 + x as u32 % 2) % nodes)],
                        }
                    })
                    .collect();
                let hint = JobHint {
                    expected_launch: now + simkit::SimDuration::from_secs(x % 30),
                    total_bytes: (1 + x % 10) * 256 * MB,
                };
                let out = m.request_migration_hinted(j(k), reqs, EvictionMode::Implicit, hint);
                format!("{out:?}")
            }
            2 => format!("{:?}", m.on_slave_pull(node, 1 + x as usize % 4)),
            3 => {
                let bound = bound_pairs(m);
                if let Some(&(on, block)) = bound.get(x as usize % bound.len().max(1)) {
                    m.on_migration_complete(on, block);
                }
                String::new()
            }
            4 => format!("{}", m.on_block_read(b(8 * (x % (k + 1)) + x % 6))),
            5 => format!("{:?}", m.evict_job(j(x % (k + 1)))),
            // Cost and backlog drift through a heartbeat.
            6 => {
                let spb = (1.0 + (x % 16) as f64) / BW;
                m.on_heartbeat_at(node, spb, (x % 5) * 128 * MB, now);
                String::new()
            }
            7 => {
                m.set_node_up(node, x % 2 == 0);
                let report = m.check_health(now);
                apply_report(m, &report, x);
                format!("{report:?}")
            }
            _ => {
                m.restart();
                String::new()
            }
        }
    }

    /// The 20-node generator's op mix in `skip_step`'s codes (1 is a
    /// pass): more admissions and passes, so queues grow deep, and no
    /// read-cancels, flaps or restarts.
    const WIDE_OPS: [u8; 8] = [0, 0, 1, 1, 2, 3, 6, 5];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The clean-pass skip never changes a decision. Two masters take
        /// the same random admissions, passes, pulls, completions,
        /// read-cancels, evictions, load drift, flaps and restarts; one
        /// ships as is, the other is forced to walk on every pass. After
        /// every op they agree on every target, pull result (bind order
        /// included), depth and bytes, and both audit clean; a pass the
        /// shipped master walks records the provenance of the forced
        /// walk. Two generators: 6 nodes with every op (and the detector
        /// on or off), and 20 nodes with `WIDE_OPS`.
        #[test]
        fn clean_pass_skips_match_full_walks(
            wide in prop::bool::ANY,
            order in 0u8..3,
            detector in prop::bool::ANY,
            ops in proptest::collection::vec((0u8..9, 0u32..20, 0u64..64, 1u64..40), 1..120),
        ) {
            let (nodes, detector) = if wide { (20, false) } else { (6, detector) };
            let order = [
                MigrationOrder::Fifo,
                MigrationOrder::SmallestJobFirst,
                MigrationOrder::EarliestDeadlineFirst,
            ][order as usize];
            let obs = [ObsHandle::new(), ObsHandle::new()];
            let mut skip = skip_master(nodes, order, detector, &obs[0]);
            let mut walk = skip_master(nodes, order, detector, &obs[1]);
            let mut now = SimTime::ZERO;
            for (k, &(op, node, x, dt)) in ops.iter().enumerate() {
                now += simkit::SimDuration::from_secs(dt);
                let op = if wide { WIDE_OPS[op as usize % 8] } else { op };
                let node = n(node % nodes);
                if op == 1 {
                    pass_pair(&mut skip, &mut walk, &obs)?;
                } else {
                    let a = skip_step(&mut skip, op, k as u64, node, x, now);
                    let b = skip_step(&mut walk, op, k as u64, node, x, now);
                    prop_assert_eq!(a, b, "op {} ({})", k, op);
                }
                agree(&skip, &walk, k)?;
            }
            // Drain: pass and pull everything bindable, comparing the
            // whole bind order.
            for round in 0..64 {
                pass_pair(&mut skip, &mut walk, &obs)?;
                let mut any = false;
                for i in 0..nodes {
                    let a = skip.on_slave_pull(n(i), 8);
                    prop_assert_eq!(&a, &walk.on_slave_pull(n(i), 8), "drain {} node {}", round, i);
                    any |= !a.is_empty();
                }
                agree(&skip, &walk, usize::MAX)?;
                if !any {
                    break;
                }
            }
        }

        /// Steady state: a pass with nothing changed skips every entry,
        /// and one node's drift walks them all.
        #[test]
        fn steady_state_skips_and_drift_walks(
            spbs in proptest::collection::vec(1.0f64..20.0, 6),
            blocks in 1u64..40,
        ) {
            let obs = [ObsHandle::new(), ObsHandle::new()];
            let mut skip = skip_master(6, MigrationOrder::Fifo, false, &obs[0]);
            let mut walk = skip_master(6, MigrationOrder::Fifo, false, &obs[1]);
            for m in [&mut skip, &mut walk] {
                for (i, s) in (0..).zip(&spbs) {
                    m.on_heartbeat_at(n(i), s / BW, 0, SimTime::ZERO);
                }
                for i in 0..blocks {
                    let holders = [i as u32 % 6, (i as u32 + 1) % 6];
                    m.request_migration(j(i), vec![req(i, &holders)], EvictionMode::Implicit);
                }
            }
            let first = pass_pair(&mut skip, &mut walk, &obs)?;
            prop_assert_eq!((first.rescored, first.skipped), (blocks, 0), "the first pass walks");
            let steady = pass_pair(&mut skip, &mut walk, &obs)?;
            prop_assert_eq!((steady.rescored, steady.skipped), (0, blocks), "a clean pass skips");
            for m in [&mut skip, &mut walk] {
                m.on_heartbeat_at(n(0), 30.0 / BW, 64 * MB, SimTime::from_secs(1));
            }
            let drift = pass_pair(&mut skip, &mut walk, &obs)?;
            prop_assert_eq!((drift.rescored, drift.skipped), (blocks, 0), "a drift walks");
            agree(&skip, &walk, 0)?;
        }
    }
}
