//! # dyrs-obs — deterministic observability for the DYRS pipeline
//!
//! The paper's core claims are claims about *decisions*: delayed binding
//! uses the freshest bandwidth information (§III-A1), Algorithm 1 balances
//! load and avoids end-of-batch stragglers (§III-A2), and the EWMA refresh
//! reacts to sudden bandwidth drops (§IV-A). End-of-run roll-ups cannot
//! explain a wrong decision; this crate records the decisions themselves.
//!
//! Three pillars:
//!
//! 1. **Lifecycle spans** ([`SpanLog`] of [`SpanEvent`]s): every migration gets a span
//!    `pending → targeted → bound(node) → started → finished | aborted |
//!    evicted`, each transition stamped with [`SimTime`](simkit::SimTime)
//!    and a cause (see [`cause`]).
//! 2. **Metrics registry**: typed counters, per-key gauge time series
//!    (reusing [`simkit::stats::TimeSeries`]) sampled at heartbeat
//!    boundaries, and histograms.
//! 3. **Decision provenance** ([`ProvenanceLog`] of [`ProvenanceRecord`]s):
//!    each Algorithm 1 targeting pass records, for every entry it
//!    rescored, the candidate replica set with estimated finish times and
//!    the chosen winner, so a misplacement is explainable from the trace
//!    alone.
//!
//! Recording goes through [`ObsHandle`], a clonable handle the simulation
//! driver attaches to the master and every slave. The handle is real only
//! under the `enabled` cargo feature; otherwise it is a zero-sized no-op
//! and every recording call compiles away — hot paths pay nothing.
//!
//! Everything is keyed by simulated time and stored in deterministic
//! containers, so same-seed runs produce **byte-identical** trace files
//! (pinned by `tests/determinism.rs`). There is no wall clock anywhere,
//! consistent with `dyrs-verify lint`'s no-wall-clock rule.
//!
//! The collected [`ObsReport`] is plain owned data (it crosses threads in
//! sweep runners) and exports itself as JSONL plus a Chrome `trace_event`
//! file loadable in `chrome://tracing` / [Perfetto](https://ui.perfetto.dev).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod export;
#[cfg(any(feature = "enabled", test))]
mod ids;
mod pages;
mod report;
pub mod rpc;
mod snapshot;
mod span;

pub use report::{ObsReport, ProvenanceLog, SpanLog};
pub use snapshot::{
    FlightEntry, FlightRecord, GaugeSample, StatsSnapshot, FLIGHT_CAPACITY, MAX_AUTO_DUMPS,
    TOP_WINNERS,
};
pub use span::{cause, CandidateScore, ProvenanceRecord, SpanEvent, SpanState};

#[cfg(feature = "enabled")]
mod handle;
#[cfg(feature = "enabled")]
pub use handle::ObsHandle;

#[cfg(not(feature = "enabled"))]
mod noop;
#[cfg(not(feature = "enabled"))]
pub use noop::ObsHandle;
