//! Heartbeat-boundary invariant auditing (the `verify-audit` feature).
//!
//! Each component checks its own conservation invariants via
//! [`simkit::audit::Audit`]; this module adds the cross-component checks
//! only the driver can see — the master's per-node backlog view against
//! the slaves' actual queues, binding uniqueness across slaves, the
//! buffering records against the slaves that hold the bytes and the
//! NameNode registry that serves them, and the driver's live-job records
//! against the job states. Any violation panics with the full report,
//! pinning the failure to the heartbeat where the invariant first broke.

use super::Simulation;
use dyrs_cluster::NodeId;
use dyrs_dfs::{BlockId, JobId};
use dyrs_engine::JobStatus;
use simkit::audit::{Audit, AuditReport};
use std::collections::BTreeMap;

impl Simulation {
    /// Audit every component at the end of `node`'s heartbeat processing.
    pub(crate) fn audit_heartbeat(&self, node: NodeId) {
        let mut report = AuditReport::new();
        self.master.audit(&mut report);
        for slave in &self.slaves {
            slave.audit(&mut report);
        }

        // Buffering records always trail the truth conservatively: a block
        // the master believes buffered on a node must actually be there,
        // and registered with the NameNode's memory registry (restarts
        // clear the master's record first, so this direction survives
        // every failure drill).
        for (block, host) in self.master.buffered_locations() {
            report.check(
                self.slaves[host.index()].has_buffered(block),
                "driver",
                "§III-D: the master's buffering records match the slaves",
                || format!("master records {block} on {host}, slave does not hold it"),
            );
            report.check(
                self.namenode.has_memory_replica(block, |n| n == host),
                "driver",
                "buffered blocks are registered as memory replicas",
                || format!("{block} buffered on {host} but not registered with the NameNode"),
            );
        }

        // Live-job records: one per submitted or running job, each holding
        // the sorted durations of exactly the maps that job has finished.
        let live: Vec<JobId> = self
            .jobs
            .iter()
            .filter(|(_, j)| matches!(j.status, JobStatus::Submitted | JobStatus::Running))
            .map(|(&id, _)| id)
            .collect();
        report.check(
            self.live_jobs.keys().eq(&live),
            "driver",
            "live-job records are exactly the submitted and running jobs",
            || {
                let records: Vec<&JobId> = self.live_jobs.keys().collect();
                format!("records for {records:?}, live jobs {live:?}")
            },
        );
        for (id, rec) in &self.live_jobs {
            let done = self
                .jobs
                .get(id)
                .map_or(0, |j| j.maps_total - j.maps_remaining);
            let secs = rec.map_secs();
            report.check(
                secs.len() == done && secs.windows(2).all(|w| w[0].total_cmp(&w[1]).is_le()),
                "driver",
                "a live job's peer baseline holds its finished maps, sorted",
                || format!("{id}: {done} maps finished, map_secs {secs:?}"),
            );
        }

        // The remaining checks assume the master's soft state is
        // authoritative, which stops being true once a restart discards it
        // (§III-C): slaves may then hold bindings the new master never saw.
        if self.soft_state_reset {
            report.assert_clean(&format!("heartbeat({node}) @ {:?}", self.now));
            return;
        }

        // §III-A1: a block's migration is bound to at most one slave, and
        // a block still pending at the master is bound nowhere.
        let mut bound_on: BTreeMap<BlockId, NodeId> = BTreeMap::new();
        for slave in &self.slaves {
            for block in slave.bound_blocks() {
                if let Some(other) = bound_on.insert(block, slave.node) {
                    report.fail(
                        "driver",
                        "§III-A1: a migration is bound to at most one slave",
                        format!("{block} is bound on both {other} and {}", slave.node),
                    );
                }
            }
        }
        for block in self.master.pending_block_ids() {
            if let Some(holder) = bound_on.get(&block) {
                report.fail(
                    "driver",
                    "§III-A1: a pending migration is not yet bound anywhere",
                    format!("{block} is pending at the master but bound on {holder}"),
                );
            }
        }

        // §III-D: the master's queued-bytes view can only overestimate a
        // slave's true backlog between heartbeats (binds grow both sides
        // together; completions, cancellations and evictions shrink the
        // slave first and reach the master at its next heartbeat).
        for (i, slave) in self.slaves.iter().enumerate() {
            let view = self.master.queued_bytes_view(NodeId(i as u32));
            let backlog = slave.backlog_bytes() as f64;
            report.check(
                view + 1.0 >= backlog,
                "driver",
                "§III-D: the master's backlog view bounds the slave's true backlog",
                || format!("node {i}: master sees {view} B, slave holds {backlog} B"),
            );
        }

        report.assert_clean(&format!("heartbeat({node}) @ {:?}", self.now));
    }
}
