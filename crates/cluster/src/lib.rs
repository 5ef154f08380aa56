//! # dyrs-cluster — cluster hardware model
//!
//! Models the physical substrate the DYRS evaluation runs on: a set of
//! nodes, each with a spinning disk (a fluid-share resource with
//! concurrency degradation), a memory bus, and a NIC. Migration-buffer
//! accounting lives with each slave (`dyrs_tiers::TierStore`).
//!
//! The paper's testbed is 8 servers — 1 master + 7 workers — each with a
//! 1 TB HDD, 128 GB RAM, and 10 GbE ([`NodeSpec::paper_default`] mirrors
//! those numbers). Heterogeneity is introduced exactly the way the paper
//! does it (§V-C): interference readers that consume disk bandwidth on
//! selected nodes, either persistently or alternating on fixed periods
//! ([`interference`]).
//!
//! Every read in the simulator maps to a stream on exactly one fluid
//! resource:
//!
//! | read | resource |
//! |---|---|
//! | local disk | that node's [`Node::disk`] |
//! | remote disk | the *serving* node's disk (10 GbE is never the bottleneck for a ~140 MB/s HDD) |
//! | local memory | the node's [`Node::membus`] |
//! | remote memory | the serving node's [`Node::nic`] |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod interference;
pub mod node;

pub use interference::{InterferencePattern, InterferenceSchedule, Toggle, DD_WEIGHT};
pub use node::{Cluster, ClusterSpec, Node, NodeId, NodeSpec};

/// Bytes in one mebibyte.
pub const MIB: u64 = 1 << 20;
/// Bytes in one gibibyte.
pub const GIB: u64 = 1 << 30;
