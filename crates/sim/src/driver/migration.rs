//! The DYRS protocol wiring: heartbeats, pulls, retargeting, migration
//! execution, read notifications and evictions.

use super::Simulation;
use crate::events::{Ev, ResourceKind, StreamMeta};
use dyrs::slave::Eviction;
use dyrs_cluster::NodeId;
use dyrs_dfs::{BlockId, JobId};

/// Size of the slave startup probe read (small enough to be cheap, large
/// enough to average over interference).
pub(crate) const CALIBRATION_BYTES: u64 = 8 << 20;

/// An idle slave re-probes its disk this often so its advertised estimate
/// tracks current conditions even when no migrations are being assigned
/// to it (without this, a node whose estimate spiked during interference
/// would be avoided forever — the estimate could never recover, unlike
/// the continuous tracking of the paper's Fig. 9).
pub(crate) const REPROBE_INTERVAL: simkit::SimDuration = simkit::SimDuration::from_secs(3);

impl Simulation {
    /// Heartbeat from `node`'s slave: refresh estimates, report to the
    /// master, pull new migrations, record figure series, and scavenge
    /// under memory pressure. Node 0's heartbeat also paces the
    /// cluster-wide speculation check, whether or not node 0 is up.
    pub(crate) fn on_heartbeat(&mut self, node: NodeId) {
        // Always re-arm first so heartbeats survive node failures.
        self.queue
            .schedule(self.now + self.hb_interval(), Ev::Heartbeat(node));
        if node.index() == 0 {
            self.check_speculation();
        }
        if !self.cluster.node(node).up {
            return;
        }
        let now = self.now;
        let report = self.slaves[node.index()].on_heartbeat(now);
        // A gray heartbeat-loss window severs only the slave ↔ DYRS-master
        // channel: the node is not dead, so job reads and replica liveness
        // are unaffected.
        let hb_lost = now < self.hb_lost_until[node.index()];
        if self.master_reachable() && !hb_lost {
            // The wire seam: under `WireMode::Loopback` the report the
            // master sees is the one that survived encode→frame→decode.
            let report = self.wire.heartbeat(node, report, now);
            self.master
                .on_heartbeat_at(node, report.secs_per_byte, report.queued_bytes, now);

            // Failure-detector pass: this heartbeat's arrival is also the
            // master's chance to notice *other* nodes going quiet or
            // sitting on stuck migrations. The master skips the sweep
            // until a deadline can be due, so this costs O(1) amortized.
            if self.master.detector_enabled() {
                let health = self.master.check_health(now);
                self.apply_health_report(health);
            }

            // Delayed binding: the slave pulls just enough work to stay
            // busy until the next heartbeat (§III-A1).
            let pulled = self.master.on_slave_pull(node, report.queue_space);
            if !pulled.is_empty() {
                let pulled = self.wire.bind(pulled);
                self.slaves[node.index()].on_bind(pulled);
                self.try_start_migrations(node);
            }
        }
        if self.master.detector_enabled() && self.obs.is_enabled() {
            self.obs.gauge(
                "node.health",
                node.0 as u64,
                self.master.node_health(node).as_gauge(),
            );
        }
        // Membership lifecycle: a draining node whose queues have emptied
        // is decommissioned on the next heartbeat that observes it; the
        // gauge is emitted regardless of detector state (membership is an
        // operator concern, not a failure-detector one).
        self.maybe_decommission(node);
        self.emit_membership(node);

        // Figure series: per-block migration-time estimate (Fig. 9) and
        // buffer footprint (Fig. 7). The estimate is only meaningful once
        // the startup probe has measured the disk.
        if self.slaves[node.index()].is_calibrated() {
            let est = self.slaves[node.index()]
                .estimator()
                .estimate(self.cfg.block_size)
                .as_secs_f64();
            self.estimate_series[node.index()].record(now, est);
            self.obs
                .gauge("node.estimate_secs_per_block", node.0 as u64, est);
        }
        self.buffer_series[node.index()]
            .record(now, self.slaves[node.index()].buffered_bytes() as f64);
        // Measured utilization: disk busy fraction over the last interval.
        // Advance the fluid state first — busy time accrues lazily.
        self.touch(node, crate::events::ResourceKind::Disk);
        let busy = self.cluster.node(node).disk.busy_time();
        let delta = busy.saturating_sub(self.last_disk_busy[node.index()]);
        self.last_disk_busy[node.index()] = busy;
        let util = delta.as_secs_f64() / self.hb_interval().as_secs_f64().max(1e-9);
        self.utilization_series[node.index()].record(now, util.min(1.0));
        if self.obs.is_enabled() {
            let key = node.0 as u64;
            self.obs
                .gauge("node.queue_backlog_bytes", key, report.queued_bytes as f64);
            self.obs.gauge(
                "node.buffer_bytes",
                key,
                self.slaves[node.index()].buffered_bytes() as f64,
            );
            self.obs.gauge("node.disk_utilization", key, util.min(1.0));
            // Per-tier occupancy and device-utilization gauges, keyed
            // `(node << 8) | tier` (tier 0 = memory over the membus).
            // Busy time is read lazily — no resource is advanced, so the
            // sample can never perturb the event stream.
            let iv = self.hb_interval().as_secs_f64().max(1e-9);
            for t in 0..self.slaves[node.index()].memory().num_tiers() {
                let gkey = (key << 8) | t as u64;
                let used = self.slaves[node.index()]
                    .memory()
                    .tier_used(dyrs::TierId(t as u8));
                self.obs.gauge("tier.occupancy_bytes", gkey, used as f64);
                let busy = self
                    .resource(
                        node,
                        if t == 0 {
                            ResourceKind::Membus
                        } else {
                            ResourceKind::Tier(t as u8)
                        },
                    )
                    .busy_time();
                let delta = busy.saturating_sub(self.last_tier_busy[node.index()][t]);
                self.last_tier_busy[node.index()][t] = busy;
                self.obs.gauge(
                    "tier.utilization",
                    gkey,
                    (delta.as_secs_f64() / iv).min(1.0),
                );
            }
        }

        // Idle estimate freshness: if nothing has exercised this disk's
        // estimator recently and no migration is running, send a re-probe.
        if !self.slaves[node.index()].is_migrating()
            && !self.calib_inflight[node.index()]
            && now.saturating_since(self.last_estimate_signal[node.index()]) >= REPROBE_INTERVAL
        {
            self.start_calibration(node);
        }

        // Memory-pressure scavenge (§III-C3): query the scheduler for live
        // jobs and drop references of dead ones.
        if self.slaves[node.index()].needs_scavenge() {
            let live = &self.live_jobs;
            let evictions = self.slaves[node.index()].scavenge(|j| live.contains_key(&j));
            self.apply_evictions(node, evictions);
        }

        #[cfg(feature = "verify-audit")]
        self.audit_heartbeat(node);
    }

    /// Act on a failure-detector report: revoke the queued work of newly
    /// suspect nodes and confirm (or refute) stuck-migration flags.
    ///
    /// Terminal-event ownership: [`dyrs::Slave::revoke`] is obs-silent;
    /// the master's `on_unbound` emits the single abort for each revoked
    /// binding and mints the retry successor.
    pub(crate) fn apply_health_report(&mut self, report: dyrs::HealthReport) {
        for node in report.newly_suspect {
            // Unbind bound-but-unstarted migrations so Algorithm 1 can
            // re-target surviving replicas. Active streams are left to the
            // stuck detector — they may well complete.
            let queued: Vec<BlockId> = self.slaves[node.index()].queued_blocks().collect();
            for block in queued {
                let block = self.wire.revoke(block);
                self.slaves[node.index()].revoke(block);
                self.master
                    .on_unbound(node, block, dyrs::obs::cause::NODE_SUSPECT);
            }
        }
        for (node, block) in report.stuck {
            // Confirm against the slave before punishing: the completion
            // may simply not have reached the master yet.
            if self.slaves[node.index()].has_pending(block) {
                let block = self.wire.revoke(block);
                if let dyrs::slave::Revoked::Active = self.slaves[node.index()].revoke(block) {
                    if let Some(sid) = self.active_migration_stream[node.index()].remove(&block) {
                        self.cancel_stream(node, ResourceKind::Disk, sid);
                    }
                }
                self.master
                    .on_unbound(node, block, dyrs::obs::cause::STUCK_STREAM);
                self.try_start_migrations(node);
            } else {
                // The binding is gone slave-side (completed, evicted, or
                // restarted away): forget the record without a strike.
                self.master.discard_bound(block);
            }
        }
    }

    /// Start a slave's calibration probe: a small raw sequential read that
    /// measures what migration currently costs on this disk. Until it
    /// completes the slave reports zero queue space, so no migration is
    /// ever bound on a stale idle-disk prior.
    pub(crate) fn start_calibration(&mut self, node: NodeId) {
        if !self.cluster.node(node).up || self.calib_inflight[node.index()] {
            return;
        }
        self.calib_inflight[node.index()] = true;
        self.calib_start[node.index()] = self.now;
        self.start_stream(
            node,
            crate::events::ResourceKind::Disk,
            CALIBRATION_BYTES,
            StreamMeta::Calibration { node },
        );
    }

    /// The probe finished: seed the estimator with the measured rate.
    pub(crate) fn on_calibration_done(&mut self, node: NodeId) {
        self.calib_inflight[node.index()] = false;
        self.last_estimate_signal[node.index()] = self.now;
        let dur = self.now.saturating_since(self.calib_start[node.index()]);
        self.slaves[node.index()].calibrate(CALIBRATION_BYTES, dur);
    }

    /// Periodic Algorithm 1 pass.
    pub(crate) fn on_retarget(&mut self) {
        let stats = self.master.retarget();
        // Scheduler health gauges (series key 0): how much of the pass
        // was rescored, and the depth it was working against.
        if self.obs.is_enabled() {
            self.obs
                .gauge("sched.dirty_entries", 0, stats.rescored as f64);
            self.obs
                .gauge("sched.pending_depth", 0, self.master.pending_len() as f64);
        }
        self.queue
            .schedule(self.now + self.cfg.dyrs.retarget_interval, Ev::Retarget);
    }

    /// Start queued migrations on `node` up to the configured concurrency
    /// (exactly one under the paper's serialized default, §III-B). Called
    /// after binds, completions and evictions.
    pub(crate) fn try_start_migrations(&mut self, node: NodeId) {
        if !self.cluster.node(node).up {
            return;
        }
        let now = self.now;
        let stuck = self.streams_stuck(node);
        while let Some(start) = self.slaves[node.index()].try_start(now) {
            let sid = self.start_stream(
                node,
                ResourceKind::Disk,
                start.bytes,
                StreamMeta::Migration {
                    node,
                    block: start.block,
                },
            );
            if stuck {
                // The node's migration IO path is wedged (gray fault): the
                // new stream starts frozen and thaws with the window.
                self.touch(node, ResourceKind::Disk);
                let _ = self.cluster.node_mut(node).disk.set_stream_cap(
                    now,
                    sid,
                    super::grayfault::FROZEN_STREAM_CAP,
                );
                self.reschedule(node, ResourceKind::Disk);
            }
            self.active_migration_stream[node.index()].insert(start.block, sid);
        }
    }

    /// A migration's disk stream finished: the block is in memory.
    pub(crate) fn on_migration_stream_done(&mut self, node: NodeId, block: BlockId) {
        self.active_migration_stream[node.index()].remove(&block);
        let now = self.now;
        let done = self.slaves[node.index()].on_migration_complete_block(now, block);
        self.last_estimate_signal[node.index()] = now;
        debug_assert_eq!(done.block, block);
        if !done.evicted_immediately {
            self.namenode.register_memory_replica(block, node);
            let (node, block) = self.wire.migration_complete(node, block);
            self.master.on_migration_complete(node, block);
        }
        self.buffer_series[node.index()]
            .record(now, self.slaves[node.index()].buffered_bytes() as f64);
        self.try_start_migrations(node);
    }

    /// Propagate a completed read of `block` by `job` to the migration
    /// layer: the serving slave sees the read directly (implicit-eviction
    /// path, §IV-A1) and the master forwards the missed-read signal to any
    /// slave it bound the block's migration to.
    pub(crate) fn notify_read(&mut self, block: BlockId, job: JobId, served_by: NodeId) {
        // `forwarded` marks master-relayed notifications, which travel the
        // wire under `WireMode::Loopback`; the serving slave sees the read
        // directly on its own data path, so that one never hits the wire.
        let notify = |sim: &mut Simulation, n: NodeId, forwarded: bool| {
            let (block, job) = if forwarded {
                sim.wire.read_notify(block, job)
            } else {
                (block, job)
            };
            let evictions = sim.slaves[n.index()].on_read(block, job);
            sim.apply_evictions(n, evictions);
        };
        notify(self, served_by, false);
        // Slaves holding the block queued or active (bound migrations), in
        // node order. Each node hears of the read once, so the holder list
        // is kept (in a reused buffer) to dedupe the buffering host below.
        let mut holders = std::mem::take(&mut self.read_holders);
        holders.clear();
        holders.extend(
            (0..self.cluster.len() as u32)
                .map(NodeId)
                .filter(|&n| n != served_by && self.slaves[n.index()].has_pending(block)),
        );
        for &n in &holders {
            notify(self, n, true);
        }
        // The slave buffering the block (implicit eviction on remote reads).
        if let Some(host) = self.master.memory_location(block) {
            if host != served_by && !holders.contains(&host) {
                notify(self, host, true);
            }
        }
        self.read_holders = holders;
    }

    /// Apply slave-reported evictions: unregister everywhere and let the
    /// disk pick up any migration that was stalled on memory.
    pub(crate) fn apply_evictions(&mut self, node: NodeId, evictions: Vec<Eviction>) {
        if evictions.is_empty() {
            return;
        }
        for ev in evictions {
            self.namenode.unregister_memory_replica(ev.block, node);
            if let Some(t) = ev.demoted_to {
                // The demoted copy's write lands on the receiving tier's
                // device — overlapped, like a spill (the tier store has
                // already accounted the occupancy).
                self.start_stream(node, ResourceKind::Tier(t), ev.bytes, StreamMeta::TierWrite);
            }
            let block = self.wire.evicted(node, ev.block);
            self.master.on_evicted(block);
        }
        self.buffer_series[node.index()]
            .record(self.now, self.slaves[node.index()].buffered_bytes() as f64);
        self.try_start_migrations(node);
    }
}
