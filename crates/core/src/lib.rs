//! # dyrs — bandwidth-aware disk-to-memory migration of cold data
//!
//! This crate is the paper's contribution: the DYRS migration framework
//! (Dzinamarira, Dinu, Ng — IPPS 2019). It implements:
//!
//! * the **master** ([`master::Master`]): keeps the list of pending
//!   migrations, runs the greedy finish-time targeting pass (Algorithm 1),
//!   and binds migrations to slaves *lazily* when slaves pull for work —
//!   the delayed binding that lets DYRS adapt to residual bandwidth;
//! * the **slave** ([`slave::Slave`]): a short local FIFO queue (deep
//!   enough to ride out one heartbeat interval, no deeper), strictly
//!   serialized migrations (one disk read at a time, §III-B), the
//!   EWMA migration-time estimator with in-progress refresh (§IV-A), and
//!   buffer-memory management with per-block job reference lists and
//!   explicit/implicit eviction (§III-C3);
//! * the **policies** ([`policy`]): DYRS itself plus the paper's
//!   comparison points — Ignem (immediate random-replica binding),
//!   naive delayed binding without finish-time targeting (Fig. 10),
//!   no migration (plain HDFS), and instant-in-RAM (the upper bound).
//!
//! The master and slave are *reactive state machines*: every method takes
//! the current [`SimTime`](simkit::SimTime) and returns the actions the
//! caller must apply (streams to start, replicas to register, blocks to
//! evict). The `dyrs-sim` crate owns the event loop; everything here is
//! deterministic, synchronous, and directly unit-testable.
//!
//! Both state machines accept an [`ObsHandle`] (`attach_obs`) that records
//! migration lifecycle spans, registry metrics, and Algorithm 1 decision
//! provenance — see the re-exported [`obs`] crate and
//! `docs/OBSERVABILITY.md`. Without the `obs` cargo feature the handle is
//! a zero-sized no-op and the instrumentation compiles away.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod estimator;
pub mod master;
pub mod policy;
pub mod refs;
pub mod sched;
pub mod slave;
pub mod types;

pub use config::{DyrsConfig, FailureDetectorConfig};
pub use dyrs_obs as obs;
pub use dyrs_obs::ObsHandle;
pub use dyrs_tiers as tiers;
pub use dyrs_tiers::{TierId, TierStackSpec};
pub use estimator::MigrationEstimator;
pub use master::JobHint;
pub use master::Master;
pub use master::{
    BlockRequest, BoundCheckpoint, HealthReport, MasterCheckpoint, Membership, NodeCheckpoint,
    NodeHealth, PendingCheckpoint, RequestOutcome, CHECKPOINT_VERSION,
};
pub use policy::{MigrationOrder, MigrationPolicy};
pub use refs::ReferenceLists;
pub use sched::RetargetStats;
pub use slave::{HeartbeatReport, Slave};
pub use types::{BoundMigration, EvictionMode, JobRef, Migration, MigrationId};
