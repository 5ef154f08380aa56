//! Failure injection (paper §III-C): master restarts, slave restarts, job
//! kills and whole-server failures. In every case DYRS degrades to plain
//! HDFS behaviour; the only loss is migration speedup.

use super::Simulation;
use crate::config::FailureEvent;
use crate::events::ResourceKind;
use dyrs_cluster::NodeId;
use dyrs_engine::scheduler::SlotKind;
use dyrs_engine::{TaskId, TaskPhase};

impl Simulation {
    pub(crate) fn on_failure(&mut self, f: FailureEvent) {
        match f {
            FailureEvent::MasterRestart { .. } => self.master_restart(),
            FailureEvent::MasterServerFailure { reroute, .. } => {
                self.master_restart();
                // New master elsewhere: clients need rerouting before any
                // migration traffic flows again (zero for a live backup).
                self.master_down_until = Some(self.now + reroute);
            }
            FailureEvent::SlaveRestart { node, .. } => self.slave_restart(node),
            FailureEvent::KillJob { job, .. } => self.fail_job(job),
            FailureEvent::NodeDown { node, .. } => self.node_down(node),
            FailureEvent::NodeUp { node, .. } => self.node_up(node),
            FailureEvent::DrainNode { node, .. } => self.drain_node(node),
            FailureEvent::JoinNode { node, .. } => self.join_node(node),
            FailureEvent::CheckpointRestart { .. } => self.checkpoint_restart(),
        }
    }

    /// DYRS master process restart (§III-C1): all soft state lost. The new
    /// master "starts up with no state about which blocks are in memory at
    /// the slaves" — reads fall back to disk until slaves clean up.
    fn master_restart(&mut self) {
        self.soft_state_reset = true;
        self.master.restart();
        self.namenode.clear_memory_registry();
    }

    /// Slave process restart (§III-C2): the OS reclaims buffer space; the
    /// new slave "directs the master to drop state about blocks that were
    /// previously buffered on that server".
    fn slave_restart(&mut self, node: NodeId) {
        self.soft_state_reset = true;
        // Abort any in-flight migrations' disk streams.
        for (_, sid) in std::mem::take(&mut self.active_migration_stream[node.index()]) {
            self.cancel_stream(node, ResourceKind::Disk, sid);
        }
        let dropped = self.slaves[node.index()].restart();
        for block in dropped {
            self.namenode.unregister_memory_replica(block, node);
            self.master.on_evicted(block);
        }
        // The fresh slave process re-probes its disk before pulling work.
        if self.cluster.node(node).up {
            self.start_calibration(node);
        }
    }

    /// Whole-server failure: everything it serves becomes unreachable.
    /// Reads fail over to surviving replicas; its running tasks re-execute
    /// elsewhere (the compute framework's standard retry).
    fn node_down(&mut self, node: NodeId) {
        if !self.cluster.node(node).up {
            return;
        }
        self.cluster.node_mut(node).up = false;
        self.master.set_node_up(node, false);

        // Its migration state is gone (same as a slave restart).
        self.slave_restart(node);
        // Interference and background streams die with the node.
        for sid in std::mem::take(&mut self.interference_streams[node.index()]) {
            self.cancel_stream(node, ResourceKind::Disk, sid);
        }
        if let Some(sid) = self.background_stream[node.index()].take() {
            self.cancel_stream(node, ResourceKind::Disk, sid);
        }

        // Reads *served by* this node fail over: cancel and re-plan.
        let served_here: Vec<TaskId> = self
            .task_streams
            .iter()
            .filter(|(_, &(n, _, _))| n == node)
            .map(|(&t, _)| t)
            .collect();
        for tid in served_here {
            let (n, k, sid) = self.task_streams.remove(&tid).expect("listed");
            self.cancel_stream(n, k, sid);
            self.replan_read(tid);
        }

        // HDFS will restore the lost replicas after a grace period.
        self.schedule_re_replication(node);

        // Tasks *running on* this node re-execute from scratch elsewhere.
        let running_here: Vec<TaskId> = self
            .tasks
            .iter()
            .filter(|t| {
                t.node == Some(node) && matches!(t.phase, TaskPhase::Reading | TaskPhase::Computing)
            })
            .map(|t| t.id)
            .collect();
        for tid in running_here {
            if let Some((n, k, sid)) = self.task_streams.remove(&tid) {
                self.cancel_stream(n, k, sid);
            }
            let is_map = self.tasks[tid.0 as usize].is_map();
            self.slots.release(
                node,
                if is_map {
                    SlotKind::Map
                } else {
                    SlotKind::Reduce
                },
            );
            self.requeue_task(tid);
        }
        self.kick_schedule();
    }

    /// Failed server comes back with empty buffers.
    fn node_up(&mut self, node: NodeId) {
        if self.cluster.node(node).up {
            return;
        }
        self.cluster.node_mut(node).up = true;
        self.master.set_node_up(node, true);
        self.start_calibration(node);
        self.kick_schedule();
    }

    /// Operator drain: the master stops binding to the node and its
    /// bound-but-unstarted work is revoked and re-targeted through the
    /// successor path. Active migration streams are left to finish —
    /// a drain is planned, not a failure, so nothing is lost.
    fn drain_node(&mut self, node: NodeId) {
        let bound = self.master.drain_node(node);
        let queued: std::collections::BTreeSet<dyrs_dfs::BlockId> =
            self.slaves[node.index()].queued_blocks().collect();
        for block in bound {
            if !queued.contains(&block) {
                continue; // in-flight stream: completes naturally
            }
            let block = self.wire.revoke(block);
            self.slaves[node.index()].revoke(block);
            self.master.on_drain_unbound(node, block);
        }
        self.emit_membership(node);
        self.maybe_decommission(node);
    }

    /// Operator (re)join: the node enters the `Joining` admission ramp and
    /// re-probes its disk before pulling any work.
    fn join_node(&mut self, node: NodeId) {
        self.master.join_node(node);
        self.emit_membership(node);
        if self.cluster.node(node).up {
            self.start_calibration(node);
        }
    }

    /// If `node` is draining and its queues have emptied, complete the
    /// removal: the master forgets it as a reference target and the
    /// slave's memory buffers are released (the operator is taking the
    /// machine away). Called after drains, completions and heartbeats.
    pub(crate) fn maybe_decommission(&mut self, node: NodeId) {
        if !self.master.drain_complete(node) || !self.master.decommission(node) {
            return;
        }
        let dropped = self.slaves[node.index()].restart();
        for block in dropped {
            self.namenode.unregister_memory_replica(block, node);
        }
        self.emit_membership(node);
    }

    pub(crate) fn emit_membership(&mut self, node: NodeId) {
        if self.obs.is_enabled() {
            self.obs.gauge(
                "node.membership",
                node.0 as u64,
                self.master.membership(node).as_gauge(),
            );
        }
    }

    /// Master checkpoint immediately followed by a restart restored from
    /// it: the snapshot makes the full encode→decode roundtrip through
    /// the versioned checkpoint codec, so the sim exercises exactly the
    /// bytes `dyrs-node checkpoint` would put on disk. Soft state
    /// survives — no `soft_state_reset`, no memory-registry clear, and
    /// heartbeat timers re-arm so the fleet is not mass-suspected.
    fn checkpoint_restart(&mut self) {
        self.obs.counter_add("membership.checkpoints", 1);
        let bytes = dyrs_net::checkpoint_to_bytes(&self.master.checkpoint());
        let cp = dyrs_net::checkpoint_from_bytes(&bytes)
            .expect("checkpoint roundtrip cannot fail on bytes we just encoded");
        self.master
            .restore_from(&cp)
            .expect("restoring a same-config checkpoint cannot fail");
        // The restarted master re-runs Algorithm 1 over the restored
        // pending set before the next scheduled pass.
        self.master.retarget();
    }

    /// Re-plan an interrupted read on its (still-running) task's node.
    fn replan_read(&mut self, tid: TaskId) {
        let t = &self.tasks[tid.0 as usize];
        if t.phase != TaskPhase::Reading || !self.job_alive(t.job) {
            return;
        }
        let node = t.node.expect("reading task is placed");
        self.start_read(tid, node);
    }

    /// Put a task back in the ready queue for a fresh attempt.
    pub(crate) fn requeue_task(&mut self, tid: TaskId) {
        self.attempts[tid.0 as usize] += 1;
        let t = &mut self.tasks[tid.0 as usize];
        t.phase = TaskPhase::Ready;
        t.node = None;
        t.read_medium = None;
        t.started_at = None;
        t.read_done_at = None;
        t.ready_at = self.now;
        if t.is_map() {
            self.ready_maps.push_back(tid);
        } else {
            self.ready_reduces.push_back(tid);
        }
    }
}
