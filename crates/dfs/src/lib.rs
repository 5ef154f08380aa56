//! # dyrs-dfs — HDFS-like distributed file system model
//!
//! A faithful-in-structure model of the parts of HDFS that DYRS interacts
//! with (the paper implements the DYRS master inside the HDFS NameNode and
//! the slave inside the DataNode, §IV):
//!
//! * a **namespace** mapping file names to block lists ([`namespace`]),
//! * a **block map** tracking each block's size and replica locations
//!   ([`block`]),
//! * a **placement policy** choosing replica nodes at write time
//!   ([`placement`]),
//! * a **NameNode** holding the namespace, the block map and the
//!   in-memory replica registry that read requests consult
//!   ([`namenode`]); node liveness is the caller's, passed in as an
//!   `is_up` predicate,
//! * the **read path**: replica selection preferring memory over disk and
//!   local over remote ([`read`]).
//!
//! These are *reactive state machines*: no event loop here. The `dyrs-sim`
//! crate drives them and turns read plans into fluid streams on the
//! `dyrs-cluster` resources.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod ids;
pub mod namenode;
pub mod namespace;
pub mod placement;
pub mod read;

pub use block::{BlockInfo, BlockMap};
pub use ids::{BlockId, FileId, JobId};
pub use namenode::NameNode;
pub use namespace::{FileMeta, Namespace};
pub use placement::PlacementPolicy;
pub use read::{Medium, ReadPlan};

/// Default HDFS block size used throughout the evaluation (256 MB — the
/// size the paper's worst-case memory analysis assumes, §II-C2).
pub const DEFAULT_BLOCK_SIZE: u64 = 256 * 1024 * 1024;

/// Default replication factor (HDFS default of 3).
pub const DEFAULT_REPLICATION: usize = 3;
