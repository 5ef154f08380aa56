//! Zero-cost stand-in for the live `ObsHandle` when the `enabled` feature
//! is off (the `dyrs-bench` configuration).
//!
//! Same API surface, but the handle is a zero-sized type, `is_enabled()`
//! is a constant `false` the optimizer folds away, and every recording
//! method has an empty `#[inline]` body — instrumented call sites compile
//! to nothing, with no allocation and no branches.

use crate::report::ObsReport;
use crate::snapshot::{FlightRecord, StatsSnapshot};
use dyrs_cluster::NodeId;
use dyrs_dfs::{BlockId, JobId};
use simkit::{SimDuration, SimTime};

/// No-op recording handle: zero-sized, never enabled, and every
/// recording method compiles to nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct ObsHandle;

#[allow(clippy::unused_self)]
impl ObsHandle {
    /// A (no-op) recorder.
    #[inline]
    pub fn new() -> Self {
        ObsHandle
    }

    /// The same no-op handle: with recording compiled out, every handle
    /// is disconnected.
    #[inline]
    pub fn disconnected() -> Self {
        ObsHandle
    }

    /// Always `false`: callers guard recording-only payload construction
    /// on this, so those paths dead-code-eliminate.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        false
    }

    /// No-op.
    #[inline]
    pub fn set_now(&self, _t: SimTime) {}

    /// No-op.
    #[inline]
    pub fn migration_pending(
        &self,
        _migration: u64,
        _block: BlockId,
        _bytes: u64,
        _job: Option<JobId>,
    ) {
    }

    /// No-op.
    #[inline]
    pub fn migration_pending_why(
        &self,
        _migration: u64,
        _block: BlockId,
        _bytes: u64,
        _job: Option<JobId>,
        _why: &'static str,
    ) {
    }

    /// No-op.
    #[inline]
    pub fn migration_targeted(&self, _migration: u64, _node: NodeId) {}

    /// No-op.
    #[inline]
    pub fn migration_bound(&self, _migration: u64, _node: NodeId, _why: &'static str) {}

    /// No-op.
    #[inline]
    pub fn migration_started(&self, _migration: u64, _node: NodeId) {}

    /// No-op.
    #[inline]
    pub fn migration_finished(&self, _migration: u64, _node: NodeId, _took: SimDuration) {}

    /// No-op.
    #[inline]
    pub fn migration_evicted(&self, _migration: u64, _node: NodeId, _why: &'static str) {}

    /// No-op.
    #[inline]
    pub fn migration_aborted(&self, _migration: u64, _node: Option<NodeId>, _why: &'static str) {}

    /// No-op.
    #[inline]
    pub fn tier_evicted(&self, _block: BlockId, _node: NodeId, _to: Option<u8>) {}

    /// No-op.
    #[inline]
    pub fn provenance_push(
        &self,
        _migration: u64,
        _block: BlockId,
        _bytes: u64,
        _winner: Option<NodeId>,
        _replicas: &[NodeId],
        _scores: &[f64],
    ) {
    }

    /// No-op.
    #[inline]
    pub fn retarget_pass(&self, _rescored: u64, _skipped: u64) {}

    /// No-op.
    #[inline]
    pub fn counter_add(&self, _name: &'static str, _by: u64) {}

    /// No-op.
    #[inline]
    pub fn gauge(&self, _name: &'static str, _key: u64, _value: f64) {}

    /// No-op.
    #[inline]
    pub fn observe(&self, _name: &'static str, _value: f64) {}

    /// No-op.
    #[inline]
    pub fn close_dangling(&self, _why: &'static str) {}

    /// Always the empty, `enabled: false` report.
    #[inline]
    pub fn take_report(&self) -> ObsReport {
        ObsReport::default()
    }

    /// Always the empty, `enabled: false` snapshot.
    #[inline]
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot::default()
    }

    /// Always the empty record.
    #[inline]
    pub fn flight_dump(&self, _reason: &str, _node: Option<NodeId>) -> FlightRecord {
        FlightRecord::default()
    }

    /// No-op.
    #[inline]
    pub fn flight_auto_dump(&self, _reason: &'static str, _node: Option<NodeId>) {}

    /// Always empty.
    #[inline]
    pub fn auto_flight_dumps(&self) -> Vec<FlightRecord> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_handle_is_zero_sized_and_disabled() {
        assert_eq!(std::mem::size_of::<ObsHandle>(), 0);
        let h = ObsHandle::new();
        assert!(!h.is_enabled());
        h.migration_pending(1, BlockId(1), 8, None);
        let r = h.take_report();
        assert!(!r.enabled);
        assert!(r.events.is_empty());
    }
}
