//! The simulator's seam between the state machines and the wire.
//!
//! Under [`WireMode::InProcess`] every protocol interaction is the
//! direct method call it always was — zero overhead, the historical
//! fast path. Under [`WireMode::Loopback`] the *same* interaction is
//! first packed into a [`Message`], encoded into a complete frame (the
//! bytes the TCP daemons put on a socket), counted, decoded in place,
//! and only then applied to the state machine. The driver is
//! single-threaded and every frame is received the instant it is sent,
//! so nothing sits between encode and decode: no channel, no peer
//! routing. (`dyrs-net`'s `LoopbackHub` serves the net tests and the
//! benches.)
//!
//! Because the event loop, the virtual clock and the state machines are
//! untouched, a scenario must produce an **identical trace digest** in
//! both modes; `tests/transport.rs` pins that equivalence. Any codec
//! asymmetry (a field dropped, a reordered map, a lossy float) shows up
//! as digest divergence rather than silent corruption.

use crate::config::WireMode;
use dyrs::master::BlockRequest;
use dyrs::types::{EvictionMode, JobRef, Migration};
use dyrs::{HeartbeatReport, JobHint};
use dyrs_cluster::NodeId;
use dyrs_dfs::{BlockId, JobId};
use dyrs_net::frame;
use dyrs_net::proto::{Message, PROTOCOL_VERSION};
use simkit::SimTime;

/// Routes protocol interactions either directly or through the codec.
pub(crate) enum WireLink {
    /// Direct calls; messages are never materialized.
    InProcess,
    /// Encode → frame → decode for every interaction.
    Loopback {
        /// Frames moved through the codec.
        frames: u64,
        /// Encoded bytes moved, headers included.
        bytes: u64,
        /// The frame being routed; its capacity serves every frame.
        buf: Vec<u8>,
    },
}

impl WireLink {
    pub(crate) fn new(mode: WireMode) -> Self {
        match mode {
            WireMode::InProcess => WireLink::InProcess,
            WireMode::Loopback => WireLink::Loopback {
                frames: 0,
                bytes: 0,
                buf: Vec::new(),
            },
        }
    }

    /// Total frames moved through the codec (0 in `InProcess` mode).
    pub(crate) fn frames(&self) -> u64 {
        match self {
            WireLink::InProcess => 0,
            WireLink::Loopback { frames, .. } => *frames,
        }
    }

    /// Total encoded bytes moved (0 in `InProcess` mode).
    pub(crate) fn bytes(&self) -> u64 {
        match self {
            WireLink::InProcess => 0,
            WireLink::Loopback { bytes, .. } => *bytes,
        }
    }

    /// Encode `msg` as one frame, count it, and decode it back: the
    /// message the far side would receive.
    fn route(&mut self, msg: Message) -> Message {
        let WireLink::Loopback { frames, bytes, buf } = self else {
            unreachable!("route is only called in Loopback mode")
        };
        frame::encode_frame_into(buf, PROTOCOL_VERSION, &msg);
        *frames += 1;
        *bytes += buf.len() as u64;
        let (_, decoded) =
            frame::decode_frame(buf, frame::supported_versions()).expect("loopback frame decodes");
        decoded
    }

    /// Slave → master heartbeat.
    pub(crate) fn heartbeat(
        &mut self,
        node: NodeId,
        report: HeartbeatReport,
        at: SimTime,
    ) -> HeartbeatReport {
        match self {
            WireLink::InProcess => report,
            link => {
                let msg = link.route(Message::Heartbeat { node, report, at });
                let Message::Heartbeat { report, .. } = msg else {
                    unreachable!("heartbeat decodes as heartbeat")
                };
                report
            }
        }
    }

    /// Master → slave binding (delayed-binding pull response, or Ignem's
    /// immediate submission-time binding).
    pub(crate) fn bind(&mut self, migrations: Vec<Migration>) -> Vec<Migration> {
        match self {
            WireLink::InProcess => migrations,
            link => {
                let msg = link.route(Message::Bind { migrations });
                let Message::Bind { migrations } = msg else {
                    unreachable!("bind decodes as bind")
                };
                migrations
            }
        }
    }

    /// Master → slave revocation of a bound migration.
    pub(crate) fn revoke(&mut self, block: BlockId) -> BlockId {
        match self {
            WireLink::InProcess => block,
            link => {
                let msg = link.route(Message::Revoke { block });
                let Message::Revoke { block } = msg else {
                    unreachable!("revoke decodes as revoke")
                };
                block
            }
        }
    }

    /// Slave → master migration-complete report.
    pub(crate) fn migration_complete(&mut self, node: NodeId, block: BlockId) -> (NodeId, BlockId) {
        match self {
            WireLink::InProcess => (node, block),
            link => {
                let msg = link.route(Message::MigrationComplete { node, block });
                let Message::MigrationComplete { node, block } = msg else {
                    unreachable!("completion decodes as completion")
                };
                (node, block)
            }
        }
    }

    /// Slave → master eviction report.
    pub(crate) fn evicted(&mut self, node: NodeId, block: BlockId) -> BlockId {
        match self {
            WireLink::InProcess => block,
            link => {
                let msg = link.route(Message::Evicted { node, block });
                let Message::Evicted { block, .. } = msg else {
                    unreachable!("eviction decodes as eviction")
                };
                block
            }
        }
    }

    /// Read notification: client → master (drives missed-read migration
    /// cancellation) or master → slave (drives implicit eviction and
    /// queued-migration cancellation on the slave).
    pub(crate) fn read_notify(&mut self, block: BlockId, job: JobId) -> (BlockId, JobId) {
        match self {
            WireLink::InProcess => (block, job),
            link => {
                let msg = link.route(Message::ReadNotify { block, job });
                let Message::ReadNotify { block, job } = msg else {
                    unreachable!("read notify decodes as read notify")
                };
                (block, job)
            }
        }
    }

    /// Client → master migration request at job submission.
    #[allow(clippy::type_complexity)]
    pub(crate) fn request_migration(
        &mut self,
        job: JobId,
        blocks: Vec<BlockRequest>,
        eviction: EvictionMode,
        hint: JobHint,
    ) -> (JobId, Vec<BlockRequest>, EvictionMode, JobHint) {
        match self {
            WireLink::InProcess => (job, blocks, eviction, hint),
            link => {
                let msg = link.route(Message::RequestMigration {
                    job,
                    blocks,
                    eviction,
                    hint,
                });
                let Message::RequestMigration {
                    job,
                    blocks,
                    eviction,
                    hint,
                } = msg
                else {
                    unreachable!("request decodes as request")
                };
                (job, blocks, eviction, hint)
            }
        }
    }

    /// Master → slave reference registration (implicit-eviction lists).
    pub(crate) fn add_ref(&mut self, block: BlockId, job: JobRef) -> (BlockId, JobRef) {
        match self {
            WireLink::InProcess => (block, job),
            link => {
                let msg = link.route(Message::AddRef { block, job });
                let Message::AddRef { block, job } = msg else {
                    unreachable!("add-ref decodes as add-ref")
                };
                (block, job)
            }
        }
    }

    /// Client → master explicit eviction when a job finishes.
    pub(crate) fn evict_job_request(&mut self, job: JobId) -> JobId {
        match self {
            WireLink::InProcess => job,
            link => {
                let msg = link.route(Message::EvictJobRequest { job });
                let Message::EvictJobRequest { job } = msg else {
                    unreachable!("evict request decodes as evict request")
                };
                job
            }
        }
    }

    /// Master → slave job-eviction fan-out.
    pub(crate) fn evict_job(&mut self, job: JobId) -> JobId {
        match self {
            WireLink::InProcess => job,
            link => {
                let msg = link.route(Message::EvictJob { job });
                let Message::EvictJob { job } = msg else {
                    unreachable!("evict decodes as evict")
                };
                job
            }
        }
    }
}
