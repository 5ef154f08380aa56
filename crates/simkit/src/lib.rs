//! # simkit — deterministic discrete-event simulation kernel
//!
//! `simkit` is the substrate every other crate in this workspace builds on.
//! It deliberately contains **no domain knowledge**: it provides simulated
//! time, a deterministic event queue, a seedable random-number generator with
//! the distributions the workload generators need, online statistics, and a
//! fluid-flow (processor-sharing) resource model used for disks and NICs.
//!
//! ## Determinism
//!
//! Everything in this crate is deterministic under a seed:
//!
//! * [`queue::EventQueue`] breaks time ties by insertion sequence number, so
//!   two runs with the same inputs pop events in the same order.
//! * [`rng::Rng`] is a small, fully specified xoshiro256++ generator; no
//!   platform-dependent entropy is ever consulted.
//!
//! ## Layout
//!
//! | module | contents |
//! |---|---|
//! | [`audit`] | runtime invariant auditing ([`audit::Audit`]) and event-trace digests |
//! | [`time`] | [`SimTime`], [`SimDuration`] — microsecond-resolution simulated clock types |
//! | [`queue`] | deterministic binary-heap event queue |
//! | [`rng`] | xoshiro256++ RNG + uniform/exponential/normal/lognormal/pareto/zipf sampling |
//! | [`stats`] | EWMA, histograms, quantiles, time-series recorder |
//! | [`fluid`] | fluid-flow shared resource (processor sharing with concurrency degradation) |
//! | [`json`] | the workspace's JSON output rules and a pretty writer ([`json::ToJson`]) |
//! | [`slab`] | generational slab allocator for hot-path records |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod fluid;
pub mod json;
pub mod queue;
pub mod rng;
pub mod slab;
pub mod stats;
pub mod time;

pub use fluid::{FluidResource, StreamId};
pub use queue::EventQueue;
pub use rng::Rng;
pub use slab::Slab;
pub use time::{SimDuration, SimTime};
