//! Fluid-resource plumbing: every byte that moves in the simulation moves
//! through here.
//!
//! Invariants:
//!
//! * a resource is always `advance`d to `self.now` before its membership
//!   changes (handled by [`Simulation::touch`]);
//! * after any membership change a fresh `StreamDone` event is scheduled,
//!   stamped with the resource generation; stale events are ignored.

use super::Simulation;
use crate::events::{ResourceKind, StreamMeta};
use dyrs_cluster::NodeId;
use simkit::{FluidResource, StreamId};

impl Simulation {
    pub(crate) fn resource_mut(&mut self, node: NodeId, kind: ResourceKind) -> &mut FluidResource {
        let n = self.cluster.node_mut(node);
        match kind {
            ResourceKind::Disk => &mut n.disk,
            ResourceKind::Membus => &mut n.membus,
            ResourceKind::Nic => &mut n.nic,
            ResourceKind::Tier(t) => n.mid_tier_mut(t),
        }
    }

    pub(crate) fn resource(&self, node: NodeId, kind: ResourceKind) -> &FluidResource {
        let n = self.cluster.node(node);
        match kind {
            ResourceKind::Disk => &n.disk,
            ResourceKind::Membus => &n.membus,
            ResourceKind::Nic => &n.nic,
            ResourceKind::Tier(t) => n.mid_tier(t),
        }
    }

    /// Advance a resource to now, dispatch any completions that fell due,
    /// and reschedule its next completion event.
    pub(crate) fn touch(&mut self, node: NodeId, kind: ResourceKind) {
        let now = self.now;
        let completions = self.resource_mut(node, kind).advance(now);
        for c in completions {
            // Completion frees the metadata slot; a tag that somehow
            // outlived its record resolves to the inert Dead variant.
            let meta = self.stream_meta.take(c.tag).unwrap_or(StreamMeta::Dead);
            self.on_stream_complete(node, meta);
        }
        self.reschedule(node, kind);
    }

    /// Schedule the resource's next completion check.
    pub(crate) fn reschedule(&mut self, node: NodeId, kind: ResourceKind) {
        if let Some(at) = self.resource(node, kind).next_completion() {
            let gen = self.resource(node, kind).generation();
            self.queue.schedule(
                at.max(self.now),
                crate::events::Ev::StreamDone { node, kind, gen },
            );
        }
    }

    /// `StreamDone` event handler: fire only if the generation still
    /// matches (membership changes invalidate in-flight events).
    pub(crate) fn on_stream_done(&mut self, node: NodeId, kind: ResourceKind, gen: u64) {
        if self.resource(node, kind).generation() != gen {
            return; // stale — whoever changed membership rescheduled
        }
        self.touch(node, kind);
    }

    /// Start a stream of `bytes` on `(node, kind)` carrying `meta`.
    /// Uncapped: used for migrations (full-speed sequential reads).
    pub(crate) fn start_stream(
        &mut self,
        node: NodeId,
        kind: ResourceKind,
        bytes: u64,
        meta: StreamMeta,
    ) -> StreamId {
        self.start_stream_capped(node, kind, bytes, f64::INFINITY, meta)
    }

    /// Start a rate-capped stream (application-level task reads).
    pub(crate) fn start_stream_capped(
        &mut self,
        node: NodeId,
        kind: ResourceKind,
        bytes: u64,
        cap: f64,
        meta: StreamMeta,
    ) -> StreamId {
        self.touch(node, kind);
        let tag = self.stream_meta.insert(meta);
        let now = self.now;
        let id = self
            .resource_mut(node, kind)
            .add_stream_capped(now, bytes as f64, 1.0, cap, tag);
        self.reschedule(node, kind);
        id
    }

    /// Start an interference stream (infinite bytes, never completes) with
    /// the configured per-reader weight.
    pub(crate) fn start_interference_stream(&mut self, node: NodeId, weight: f64) -> StreamId {
        self.touch(node, ResourceKind::Disk);
        let tag = self.stream_meta.insert(StreamMeta::Interference);
        let now = self.now;
        let id = self
            .cluster
            .node_mut(node)
            .disk
            .add_stream(now, f64::INFINITY, weight, tag);
        self.reschedule(node, ResourceKind::Disk);
        id
    }

    /// Cancel a stream before completion. Safe to call with an id that
    /// already completed (no-op).
    pub(crate) fn cancel_stream(&mut self, node: NodeId, kind: ResourceKind, id: StreamId) {
        self.touch(node, kind);
        let now = self.now;
        let tag = self.resource(node, kind).stream_tag(id);
        self.resource_mut(node, kind).remove_stream(now, id);
        if let Some(tag) = tag {
            // Cancelled streams used to leak their metadata slot for the
            // life of the run; the slab reclaims it.
            self.stream_meta.take(tag);
        }
        self.reschedule(node, kind);
    }

    /// Completion dispatch.
    fn on_stream_complete(&mut self, node: NodeId, meta: StreamMeta) {
        match meta {
            StreamMeta::TaskRead { task, attempt } => self.on_task_read_done(task, attempt, node),
            StreamMeta::Migration {
                node: slave_node,
                block,
            } => {
                debug_assert_eq!(node, slave_node, "migration stream on wrong disk");
                self.on_migration_stream_done(slave_node, block);
            }
            StreamMeta::Calibration { node } => self.on_calibration_done(node),
            StreamMeta::SpillWrite => {} // overlapped spill: nothing to do
            StreamMeta::TierWrite => {}  // overlapped demotion write: ditto
            StreamMeta::Repair {
                block,
                source,
                target,
            } => self.on_repair_done(block, source, target),
            StreamMeta::Interference => {
                unreachable!("interference streams are infinite and never complete")
            }
            StreamMeta::Dead => {}
        }
    }

    /// Trace-driven background load: replace the node's background stream
    /// with a rate-capped infinite stream consuming `frac` of its base
    /// disk bandwidth (the §II Google-trace replay).
    pub(crate) fn on_background(&mut self, node: NodeId, frac: f64) {
        if let Some(id) = self.background_stream[node.index()].take() {
            self.cancel_stream(node, ResourceKind::Disk, id);
        }
        if frac <= 0.0 || !self.cluster.node(node).up {
            return;
        }
        let cap = self.cluster.node(node).spec.disk_bw * frac.min(0.99);
        self.touch(node, ResourceKind::Disk);
        let tag = self.stream_meta.insert(StreamMeta::Interference);
        let now = self.now;
        let id =
            self.cluster
                .node_mut(node)
                .disk
                .add_stream_capped(now, f64::INFINITY, 1.0, cap, tag);
        self.reschedule(node, ResourceKind::Disk);
        self.background_stream[node.index()] = Some(id);
    }

    /// Interference toggle handler.
    pub(crate) fn on_interference(&mut self, node: NodeId, on: bool, streams: u32, weight: f64) {
        // Always clear the current state first: toggles are idempotent.
        let existing = std::mem::take(&mut self.interference_streams[node.index()]);
        for id in existing {
            self.cancel_stream(node, ResourceKind::Disk, id);
        }
        if on {
            let ids: Vec<StreamId> = (0..streams)
                .map(|_| self.start_interference_stream(node, weight))
                .collect();
            self.interference_streams[node.index()] = ids;
        }
    }
}
