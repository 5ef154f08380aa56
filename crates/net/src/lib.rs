//! # dyrs-net — wire protocol and pluggable transports for DYRS
//!
//! Everything the master and slaves say to each other, extracted from
//! the in-process call graph into a versioned, framed wire protocol:
//!
//! * [`proto::Message`] — the protocol: heartbeats, delayed-binding
//!   pulls (`Bind`), revocation, eviction, migration-complete reports,
//!   client migration requests and read notifications, plus the
//!   handshake (`Hello`/`Welcome`/`Reject`) and the shutdown barrier
//!   (`Shutdown`/`Bye`).
//! * [`wire`] — a hand-rolled, byte-stable binary codec (big-endian,
//!   fixed-width, append-only enum tags). Serialization is explicit
//!   rather than derived, so the encoding is trivially auditable and
//!   pinned by tests.
//! * [`frame`] — `DYRS`-magic, version-tagged, length-prefixed framing
//!   with hard caps, for byte streams and for datagram-style buffers.
//! * [`transport::Transport`] — how an endpoint sends/receives framed
//!   messages, with two implementations:
//!   [`loopback::LoopbackHub`] (deterministic in-memory channels for
//!   tests and benches) and [`tcp`] (real `std::net` sockets,
//!   thread-per-connection, handshake with version negotiation,
//!   timeouts and bounded outbound queues).
//! * [`node`] — the `dyrs-node` daemon loops: the *same*
//!   [`Master`](dyrs::Master)/[`Slave`](dyrs::Slave) state machines the
//!   simulator uses, driven off a transport on a virtual tick clock.
//!
//! Both transports, and the simulator's loopback wire mode, move encoded
//! frames end to end — a message always pays encode → frame → decode,
//! so the loopback path exercises the exact bytes TCP puts on the wire.
//! That is what makes the in-process ↔ loopback trace-digest equivalence
//! test (`tests/transport.rs` at the workspace root) a statement about
//! the codec, not just about the state machines.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod frame;
pub mod loopback;
pub mod node;
pub mod proto;
pub mod stats;
pub mod tcp;
pub mod transport;
pub mod wire;

pub use checkpoint::{
    checkpoint_from_bytes, checkpoint_to_bytes, load_checkpoint, save_checkpoint,
};
pub use frame::{FrameError, MAX_FRAME};
pub use loopback::{LoopbackEndpoint, LoopbackHub};
pub use node::{
    run_master, run_slave, MasterConfig, MasterProgress, MasterReport, SlaveConfig, SlaveReport,
};
pub use proto::{Message, Role, StatsScope, PROTOCOL_VERSION};
pub use stats::{scrape_flight, scrape_stats, Scrape};
pub use tcp::{TcpAcceptor, TcpConfig, TcpConnector};
pub use transport::{Peer, Transport, TransportError};
pub use wire::{DecodeError, Wire};
