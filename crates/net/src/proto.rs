//! The DYRS protocol: every message that crosses the master ↔ slave ↔
//! client boundary, extracted from the in-process call graph of
//! `crates/core` (paper §III-D describes the heartbeat fields; the rest
//! mirror the `Master`/`Slave` state-machine entry points).
//!
//! The enum is the *schema*: each variant's payload is exactly the
//! argument list of the state-machine method it drives, so a transport
//! can deliver a decoded message straight into `Master`/`Slave` without
//! translation. Variants carry explicit `u8` wire tags (see the `Wire`
//! impl) that are append-only: new messages take new tags, existing tags
//! never change meaning — that, plus the handshake's version range, is
//! the whole compatibility story.

use crate::wire::{DecodeError, Reader, Wire};
use dyrs::master::{BlockRequest, JobHint};
use dyrs::slave::HeartbeatReport;
use dyrs::types::{JobRef, Migration};
use dyrs::EvictionMode;
use dyrs_cluster::NodeId;
use dyrs_dfs::{BlockId, JobId};
use dyrs_obs::{FlightRecord, StatsSnapshot};
use simkit::SimTime;

/// Protocol version this build speaks (both minimum and maximum — each
/// breaking payload change bumps it; v2 added `Migration.dest_tier` for
/// the multi-tier buffer stacks).
pub const PROTOCOL_VERSION: u16 = 2;

/// What kind of endpoint is introducing itself in a [`Message::Hello`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// A DataNode-side migration slave.
    Slave,
    /// A job submitter / scheduler client.
    Client,
}

/// What a [`Message::StatsRequest`] is asking for (admin/telemetry
/// plane). The master answers `Local*` scopes from its own recorder and
/// relays `Node*` scopes to the named slave, rewriting the scope on the
/// reply so the requester can tell whose data arrived. A slave only
/// answers `Local*` scopes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatsScope {
    /// The receiving daemon's own stats snapshot.
    Local,
    /// The stats snapshot of slave `node`, relayed by the master.
    Node(u32),
    /// The receiving daemon's own flight-recorder dump.
    LocalFlight,
    /// The flight-recorder dump of slave `node`, relayed by the master.
    NodeFlight(u32),
}

/// One protocol message. Direction is part of the contract and noted on
/// every variant; a peer receiving a message flowing the wrong way must
/// treat it as a protocol error.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    // -- handshake -------------------------------------------------------
    /// Connector → acceptor: identify and negotiate. `node` is the
    /// connector's NodeId for slaves and an arbitrary client id for
    /// clients.
    Hello {
        /// What the connector is.
        role: Role,
        /// Slave NodeId or client id.
        node: u32,
        /// Oldest protocol version the connector accepts.
        min_version: u16,
        /// Newest protocol version the connector speaks.
        max_version: u16,
    },
    /// Acceptor → connector: handshake accepted at `version`.
    Welcome {
        /// The negotiated version (within the connector's range).
        version: u16,
    },
    /// Acceptor → connector: handshake refused; the connection closes.
    Reject {
        /// Human-readable refusal reason.
        reason: String,
    },

    // -- slave → master --------------------------------------------------
    /// Periodic report (§III-D): migration-cost estimate, queued bytes
    /// and free queue slots. Doubles as the work pull of delayed binding
    /// (§III-A1): the master answers with [`Message::Bind`] when it has
    /// migrations for this slave.
    Heartbeat {
        /// Reporting slave.
        node: NodeId,
        /// The roll-up (scalar fields only — byte-stable by construction).
        report: HeartbeatReport,
        /// Slave-local time of the report.
        at: SimTime,
    },
    /// A bound migration finished; the block is now in this slave's
    /// memory buffer.
    MigrationComplete {
        /// The executing slave.
        node: NodeId,
        /// The migrated block.
        block: BlockId,
    },
    /// The slave evicted `block` from its buffer (reference list empty,
    /// scavenge, or revocation).
    Evicted {
        /// The evicting slave.
        node: NodeId,
        /// The evicted block.
        block: BlockId,
    },
    /// Orderly-shutdown reply to [`Message::Shutdown`]: `sent` is the
    /// total number of frames this slave sent on the connection, so the
    /// master can prove it lost nothing.
    Bye {
        /// Frames the slave sent, including this one.
        sent: u64,
    },

    // -- master → slave --------------------------------------------------
    /// Delayed-binding pull response: migrations bound to this slave,
    /// in execution order.
    Bind {
        /// Migrations to enqueue, FIFO.
        migrations: Vec<Migration>,
    },
    /// A new job also wants `block`, which is already buffered or bound
    /// on this slave: extend the block's reference list.
    AddRef {
        /// The buffered/bound block.
        block: BlockId,
        /// The interested job and its eviction mode.
        job: JobRef,
    },
    /// Unbind `block` if still queued (failure detector / missed read);
    /// the slave answers nothing — the master already unbound its side.
    Revoke {
        /// The block whose binding is revoked.
        block: BlockId,
    },
    /// Drop every reference `job` holds on this slave, evicting blocks
    /// whose reference lists empty out.
    EvictJob {
        /// The finished job.
        job: JobId,
    },
    /// Orderly shutdown: `sent` counts every frame the master sent this
    /// slave, including this one. The slave drains, verifies the count,
    /// replies [`Message::Bye`] and closes.
    Shutdown {
        /// Frames the master sent this peer, including this one.
        sent: u64,
    },

    // -- client → master --------------------------------------------------
    /// Submit a job's migration request: one entry per cold block, with
    /// the scheduling hint Algorithm 1 uses for finish-time targeting.
    RequestMigration {
        /// The requesting job.
        job: JobId,
        /// The job's cold input blocks.
        blocks: Vec<BlockRequest>,
        /// How the job's references are released (§III-C3).
        eviction: EvictionMode,
        /// Expected launch time and total input size.
        hint: JobHint,
    },
    /// The job read `block` (possibly from disk): the master cancels a
    /// still-pending migration and routes implicit evictions.
    ReadNotify {
        /// The block that was read.
        block: BlockId,
        /// The reading job.
        job: JobId,
    },
    /// The job finished: release its references cluster-wide.
    EvictJobRequest {
        /// The finished job.
        job: JobId,
    },

    // -- admin plane (any peer → master, master → slave) -------------------
    /// Scrape request: ask the receiver for a live stats snapshot or a
    /// flight-recorder dump. Any connected peer may send this to the
    /// master mid-run; the master relays `Node*` scopes to slaves.
    StatsRequest {
        /// Whose data, and which kind.
        scope: StatsScope,
    },
    /// Scrape reply carrying a snapshot. `scope` names whose data this is
    /// (the master rewrites `Local` → `Node(n)` when relaying a slave's
    /// answer back to the requester).
    StatsReply {
        /// Whose snapshot this is.
        scope: StatsScope,
        /// The point-in-time telemetry view.
        snapshot: StatsSnapshot,
    },
    /// A flight-recorder dump: the reply to a `*Flight` scrape, and also
    /// pushed unsolicited by a daemon that auto-dumped on a quarantine or
    /// protocol violation.
    FlightDump {
        /// Whose recorder this is.
        scope: StatsScope,
        /// The dump itself.
        record: FlightRecord,
    },

    // -- membership & recovery plane (admin peer → master) -----------------
    /// (Re-)admit `node` to the cluster in the `Joining` state (admission
    /// ramp). The master answers with [`Message::DecommissionAck`]
    /// carrying the node's post-transition membership code.
    JoinRequest {
        /// The node to admit.
        node: u32,
    },
    /// Begin draining `node`: no new binds, bound-but-unstarted work is
    /// re-targeted, and the master decommissions the node once its bind
    /// queues empty. Idempotent — poll with repeated sends; each gets a
    /// [`Message::DecommissionAck`] with the current membership code.
    DrainNode {
        /// The node to drain.
        node: u32,
    },
    /// Master → admin peer: reply to [`Message::JoinRequest`] /
    /// [`Message::DrainNode`] with the node's current membership phase
    /// (`dyrs::master::Membership::code`: 0 joining, 1 active, 2
    /// draining, 3 removed).
    DecommissionAck {
        /// The node the verdict is about.
        node: u32,
        /// Its membership code after applying the request.
        membership: u8,
    },
    /// Ask the master to serialize its soft state. Answered with
    /// [`Message::Checkpoint`].
    CheckpointRequest,
    /// A versioned master checkpoint (the `Wire` encoding of
    /// `dyrs::master::MasterCheckpoint`), opaque at this layer so the
    /// snapshot schema can evolve behind its own version stamp.
    Checkpoint {
        /// The encoded snapshot.
        data: Vec<u8>,
    },
}

impl Message {
    /// The variant's wire tag (append-only; see module docs).
    pub fn tag(&self) -> u8 {
        match self {
            Message::Hello { .. } => 0,
            Message::Welcome { .. } => 1,
            Message::Reject { .. } => 2,
            Message::Heartbeat { .. } => 3,
            Message::MigrationComplete { .. } => 4,
            Message::Evicted { .. } => 5,
            Message::Bye { .. } => 6,
            Message::Bind { .. } => 7,
            Message::AddRef { .. } => 8,
            Message::Revoke { .. } => 9,
            Message::EvictJob { .. } => 10,
            Message::Shutdown { .. } => 11,
            Message::RequestMigration { .. } => 12,
            Message::ReadNotify { .. } => 13,
            Message::EvictJobRequest { .. } => 14,
            Message::StatsRequest { .. } => 15,
            Message::StatsReply { .. } => 16,
            Message::FlightDump { .. } => 17,
            Message::JoinRequest { .. } => 18,
            Message::DrainNode { .. } => 19,
            Message::DecommissionAck { .. } => 20,
            Message::CheckpointRequest => 21,
            Message::Checkpoint { .. } => 22,
        }
    }

    /// Short stable name for logs and counters.
    pub fn name(&self) -> &'static str {
        match self {
            Message::Hello { .. } => "hello",
            Message::Welcome { .. } => "welcome",
            Message::Reject { .. } => "reject",
            Message::Heartbeat { .. } => "heartbeat",
            Message::MigrationComplete { .. } => "migration_complete",
            Message::Evicted { .. } => "evicted",
            Message::Bye { .. } => "bye",
            Message::Bind { .. } => "bind",
            Message::AddRef { .. } => "add_ref",
            Message::Revoke { .. } => "revoke",
            Message::EvictJob { .. } => "evict_job",
            Message::Shutdown { .. } => "shutdown",
            Message::RequestMigration { .. } => "request_migration",
            Message::ReadNotify { .. } => "read_notify",
            Message::EvictJobRequest { .. } => "evict_job_request",
            Message::StatsRequest { .. } => "stats_request",
            Message::StatsReply { .. } => "stats_reply",
            Message::FlightDump { .. } => "flight_dump",
            Message::JoinRequest { .. } => "join_request",
            Message::DrainNode { .. } => "drain_node",
            Message::DecommissionAck { .. } => "decommission_ack",
            Message::CheckpointRequest => "checkpoint_request",
            Message::Checkpoint { .. } => "checkpoint",
        }
    }
}

impl Wire for Role {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            Role::Slave => 0,
            Role::Client => 1,
        });
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            0 => Ok(Role::Slave),
            1 => Ok(Role::Client),
            tag => Err(DecodeError::BadTag { what: "Role", tag }),
        }
    }
}

impl Wire for StatsScope {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            StatsScope::Local => out.push(0),
            StatsScope::Node(node) => {
                out.push(1);
                node.encode(out);
            }
            StatsScope::LocalFlight => out.push(2),
            StatsScope::NodeFlight(node) => {
                out.push(3);
                node.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            0 => Ok(StatsScope::Local),
            1 => Ok(StatsScope::Node(u32::decode(r)?)),
            2 => Ok(StatsScope::LocalFlight),
            3 => Ok(StatsScope::NodeFlight(u32::decode(r)?)),
            tag => Err(DecodeError::BadTag {
                what: "StatsScope",
                tag,
            }),
        }
    }
}

impl Wire for Message {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(self.tag());
        match self {
            Message::Hello {
                role,
                node,
                min_version,
                max_version,
            } => {
                role.encode(out);
                node.encode(out);
                min_version.encode(out);
                max_version.encode(out);
            }
            Message::Welcome { version } => version.encode(out),
            Message::Reject { reason } => reason.encode(out),
            Message::Heartbeat { node, report, at } => {
                node.encode(out);
                report.encode(out);
                at.encode(out);
            }
            Message::MigrationComplete { node, block } | Message::Evicted { node, block } => {
                node.encode(out);
                block.encode(out);
            }
            Message::Bye { sent } | Message::Shutdown { sent } => sent.encode(out),
            Message::Bind { migrations } => migrations.encode(out),
            Message::AddRef { block, job } => {
                block.encode(out);
                job.encode(out);
            }
            Message::Revoke { block } => block.encode(out),
            Message::EvictJob { job } | Message::EvictJobRequest { job } => job.encode(out),
            Message::RequestMigration {
                job,
                blocks,
                eviction,
                hint,
            } => {
                job.encode(out);
                blocks.encode(out);
                eviction.encode(out);
                hint.encode(out);
            }
            Message::ReadNotify { block, job } => {
                block.encode(out);
                job.encode(out);
            }
            Message::StatsRequest { scope } => scope.encode(out),
            Message::StatsReply { scope, snapshot } => {
                scope.encode(out);
                snapshot.encode(out);
            }
            Message::FlightDump { scope, record } => {
                scope.encode(out);
                record.encode(out);
            }
            Message::JoinRequest { node } | Message::DrainNode { node } => node.encode(out),
            Message::DecommissionAck { node, membership } => {
                node.encode(out);
                membership.encode(out);
            }
            Message::CheckpointRequest => {}
            Message::Checkpoint { data } => data.encode(out),
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let tag = u8::decode(r)?;
        Ok(match tag {
            0 => Message::Hello {
                role: Role::decode(r)?,
                node: u32::decode(r)?,
                min_version: u16::decode(r)?,
                max_version: u16::decode(r)?,
            },
            1 => Message::Welcome {
                version: u16::decode(r)?,
            },
            2 => Message::Reject {
                reason: String::decode(r)?,
            },
            3 => Message::Heartbeat {
                node: NodeId::decode(r)?,
                report: HeartbeatReport::decode(r)?,
                at: SimTime::decode(r)?,
            },
            4 => Message::MigrationComplete {
                node: NodeId::decode(r)?,
                block: BlockId::decode(r)?,
            },
            5 => Message::Evicted {
                node: NodeId::decode(r)?,
                block: BlockId::decode(r)?,
            },
            6 => Message::Bye {
                sent: u64::decode(r)?,
            },
            7 => Message::Bind {
                migrations: Vec::decode(r)?,
            },
            8 => Message::AddRef {
                block: BlockId::decode(r)?,
                job: JobRef::decode(r)?,
            },
            9 => Message::Revoke {
                block: BlockId::decode(r)?,
            },
            10 => Message::EvictJob {
                job: JobId::decode(r)?,
            },
            11 => Message::Shutdown {
                sent: u64::decode(r)?,
            },
            12 => Message::RequestMigration {
                job: JobId::decode(r)?,
                blocks: Vec::decode(r)?,
                eviction: EvictionMode::decode(r)?,
                hint: JobHint::decode(r)?,
            },
            13 => Message::ReadNotify {
                block: BlockId::decode(r)?,
                job: JobId::decode(r)?,
            },
            14 => Message::EvictJobRequest {
                job: JobId::decode(r)?,
            },
            15 => Message::StatsRequest {
                scope: StatsScope::decode(r)?,
            },
            16 => Message::StatsReply {
                scope: StatsScope::decode(r)?,
                snapshot: StatsSnapshot::decode(r)?,
            },
            17 => Message::FlightDump {
                scope: StatsScope::decode(r)?,
                record: FlightRecord::decode(r)?,
            },
            18 => Message::JoinRequest {
                node: u32::decode(r)?,
            },
            19 => Message::DrainNode {
                node: u32::decode(r)?,
            },
            20 => Message::DecommissionAck {
                node: u32::decode(r)?,
                membership: u8::decode(r)?,
            },
            21 => Message::CheckpointRequest,
            22 => Message::Checkpoint {
                data: Vec::decode(r)?,
            },
            tag => {
                return Err(DecodeError::BadTag {
                    what: "Message",
                    tag,
                })
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{from_bytes, to_bytes};

    #[test]
    fn tags_are_unique_and_stable() {
        // The decode table is the source of truth; spot-check the
        // encode-side tags stay aligned with it.
        let msgs = [
            Message::Welcome { version: 1 },
            Message::Revoke { block: BlockId(9) },
            Message::Bye { sent: 3 },
            Message::Shutdown { sent: 4 },
        ];
        for m in msgs {
            let bytes = to_bytes(&m);
            assert_eq!(bytes[0], m.tag());
            assert_eq!(from_bytes::<Message>(&bytes).expect("roundtrip"), m);
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        assert_eq!(
            from_bytes::<Message>(&[0xFF]),
            Err(DecodeError::BadTag {
                what: "Message",
                tag: 0xFF
            })
        );
    }
}
