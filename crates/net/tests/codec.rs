//! Codec properties: every [`Message`] variant roundtrips through the
//! framed wire format byte-exactly, encoding is deterministic, and the
//! decoder rejects malformed input (truncation, bad magic, oversized
//! lengths, unknown versions, trailing bytes) instead of misparsing it.

use dyrs::master::{BlockRequest, JobHint};
use dyrs::slave::HeartbeatReport;
use dyrs::types::{JobRef, Migration, MigrationId};
use dyrs::EvictionMode;
use dyrs::{FailureDetectorConfig, Master, MigrationPolicy};
use dyrs_cluster::NodeId;
use dyrs_dfs::{BlockId, JobId};
use dyrs_net::frame::{
    self, decode_frame, encode_frame, supported_versions, FrameError, MAX_FRAME,
};
use dyrs_net::wire::{from_bytes, to_bytes, DecodeError};
use dyrs_net::{
    checkpoint_from_bytes, checkpoint_to_bytes, Message, Role, StatsScope, PROTOCOL_VERSION,
};
use dyrs_obs::{FlightEntry, FlightRecord, GaugeSample, ObsHandle, StatsSnapshot};
use proptest::prelude::*;
use proptest::{Strategy, TestRng};
use simkit::{Rng, SimTime};
use std::sync::{Arc, OnceLock};

// ---------------------------------------------------------------------------
// Generators: one arbitrary value per payload type, then an arbitrary
// Message covering ALL eighteen variants (the tag is drawn uniformly).
// ---------------------------------------------------------------------------

fn arb_f64(rng: &mut TestRng) -> f64 {
    // Finite and positive: the wire moves any bit pattern, but Message's
    // PartialEq (and the daemons) never deal in NaN, and NaN != NaN would
    // fail the roundtrip equality check for the wrong reason.
    rng.unit_f64() * 1e6
}

fn arb_string(rng: &mut TestRng) -> String {
    let len = rng.below(24) as usize;
    (0..len)
        .map(|_| char::from(b' ' + rng.below(95) as u8))
        .collect()
}

fn arb_job_ref(rng: &mut TestRng) -> JobRef {
    JobRef {
        job: JobId(rng.next_u64()),
        eviction: if rng.below(2) == 0 {
            EvictionMode::Explicit
        } else {
            EvictionMode::Implicit
        },
    }
}

fn arb_migration(rng: &mut TestRng) -> Migration {
    Migration {
        id: MigrationId(rng.next_u64()),
        block: BlockId(rng.next_u64()),
        bytes: rng.next_u64(),
        jobs: (0..rng.below(4)).map(|_| arb_job_ref(rng)).collect(),
        replicas: (0..rng.below(4))
            .map(|_| NodeId(rng.below(64) as u32))
            .collect(),
        attempt: rng.below(5) as u32,
        dest_tier: rng.below(4) as u8,
    }
}

fn arb_block_request(rng: &mut TestRng) -> BlockRequest {
    BlockRequest {
        block: BlockId(rng.next_u64()),
        bytes: rng.next_u64(),
        replicas: (0..rng.below(4))
            .map(|_| NodeId(rng.below(64) as u32))
            .collect(),
    }
}

fn arb_stats_scope(rng: &mut TestRng) -> StatsScope {
    match rng.below(4) {
        0 => StatsScope::Local,
        1 => StatsScope::Node(rng.below(64) as u32),
        2 => StatsScope::LocalFlight,
        _ => StatsScope::NodeFlight(rng.below(64) as u32),
    }
}

/// Gauge names for [`arb_gauge_sample`]: a small pool, so a snapshot's
/// samples often repeat the previous sample's name (the decoder then
/// shares it), with an empty name and a non-ASCII one among them.
const GAUGE_NAMES: [&str; 4] = ["node.health", "tier.utilization", "", "jöb.ready"];

fn arb_gauge_sample(rng: &mut TestRng) -> GaugeSample {
    GaugeSample {
        name: GAUGE_NAMES[rng.below(GAUGE_NAMES.len() as u64) as usize].into(),
        key: rng.next_u64(),
        value: arb_f64(rng),
        at: SimTime::from_micros(rng.next_u64() >> 16),
    }
}

fn arb_snapshot(rng: &mut TestRng) -> StatsSnapshot {
    StatsSnapshot {
        at: SimTime::from_micros(rng.next_u64() >> 16),
        enabled: rng.below(2) == 0,
        counters: (0..rng.below(4))
            .map(|_| (arb_string(rng), rng.next_u64()))
            .collect(),
        gauges: (0..rng.below(8)).map(|_| arb_gauge_sample(rng)).collect(),
        open_spans: (0..rng.below(4))
            .map(|_| (arb_string(rng), rng.next_u64()))
            .collect(),
        top_winners: (0..rng.below(4))
            .map(|_| (rng.below(64) as u32, rng.next_u64()))
            .collect(),
    }
}

fn arb_flight_record(rng: &mut TestRng) -> FlightRecord {
    FlightRecord {
        reason: arb_string(rng),
        node: if rng.below(2) == 0 {
            Some(rng.below(64) as u32)
        } else {
            None
        },
        at: SimTime::from_micros(rng.next_u64() >> 16),
        dropped: rng.next_u64(),
        entries: (0..rng.below(4))
            .map(|_| FlightEntry {
                at: SimTime::from_micros(rng.next_u64() >> 16),
                migration: rng.next_u64(),
                block: rng.next_u64(),
                state: arb_string(rng),
                node: if rng.below(2) == 0 {
                    Some(rng.below(64) as u32)
                } else {
                    None
                },
                cause: arb_string(rng),
            })
            .collect(),
    }
}

fn arb_message(rng: &mut TestRng) -> Message {
    match rng.below(18) {
        0 => Message::Hello {
            role: if rng.below(2) == 0 {
                Role::Slave
            } else {
                Role::Client
            },
            node: rng.below(1 << 16) as u32,
            min_version: rng.below(8) as u16,
            max_version: rng.below(8) as u16,
        },
        1 => Message::Welcome {
            version: rng.below(8) as u16,
        },
        2 => Message::Reject {
            reason: arb_string(rng),
        },
        3 => Message::Heartbeat {
            node: NodeId(rng.below(64) as u32),
            report: HeartbeatReport {
                secs_per_byte: arb_f64(rng),
                queued_bytes: rng.next_u64(),
                queue_space: rng.below(1 << 20) as usize,
            },
            at: SimTime::from_micros(rng.next_u64() >> 16),
        },
        4 => Message::MigrationComplete {
            node: NodeId(rng.below(64) as u32),
            block: BlockId(rng.next_u64()),
        },
        5 => Message::Evicted {
            node: NodeId(rng.below(64) as u32),
            block: BlockId(rng.next_u64()),
        },
        6 => Message::Bye {
            sent: rng.next_u64(),
        },
        7 => Message::Bind {
            migrations: (0..rng.below(5)).map(|_| arb_migration(rng)).collect(),
        },
        8 => Message::AddRef {
            block: BlockId(rng.next_u64()),
            job: arb_job_ref(rng),
        },
        9 => Message::Revoke {
            block: BlockId(rng.next_u64()),
        },
        10 => Message::EvictJob {
            job: JobId(rng.next_u64()),
        },
        11 => Message::Shutdown {
            sent: rng.next_u64(),
        },
        12 => Message::RequestMigration {
            job: JobId(rng.next_u64()),
            blocks: (0..rng.below(5)).map(|_| arb_block_request(rng)).collect(),
            eviction: if rng.below(2) == 0 {
                EvictionMode::Explicit
            } else {
                EvictionMode::Implicit
            },
            hint: JobHint {
                expected_launch: SimTime::from_micros(rng.next_u64() >> 16),
                total_bytes: rng.next_u64(),
            },
        },
        13 => Message::ReadNotify {
            block: BlockId(rng.next_u64()),
            job: JobId(rng.next_u64()),
        },
        14 => Message::EvictJobRequest {
            job: JobId(rng.next_u64()),
        },
        15 => Message::StatsRequest {
            scope: arb_stats_scope(rng),
        },
        16 => Message::StatsReply {
            scope: arb_stats_scope(rng),
            snapshot: arb_snapshot(rng),
        },
        _ => Message::FlightDump {
            scope: arb_stats_scope(rng),
            record: arb_flight_record(rng),
        },
    }
}

/// Strategy wrapper so `proptest!` can draw whole messages.
#[derive(Debug)]
struct ArbMessage;

impl Strategy for ArbMessage {
    type Value = Message;
    fn generate(&self, rng: &mut TestRng) -> Message {
        arb_message(rng)
    }
}

// ---------------------------------------------------------------------------
// Roundtrip + determinism properties
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Payload codec: encode → decode is the identity for every variant,
    /// and `from_bytes` consumes every byte it was given.
    #[test]
    fn payload_roundtrips(msg in ArbMessage) {
        let bytes = to_bytes(&msg);
        prop_assert_eq!(bytes[0], msg.tag(), "first byte is the variant tag");
        let back = from_bytes::<Message>(&bytes);
        prop_assert_eq!(back.as_ref(), Ok(&msg));
    }

    /// Frame codec: header + payload roundtrips at the negotiated
    /// version and reports the version it decoded.
    #[test]
    fn frame_roundtrips(msg in ArbMessage) {
        let bytes = encode_frame(PROTOCOL_VERSION, &msg);
        prop_assert_eq!(&bytes[0..4], &frame::MAGIC);
        let (ver, back) = match decode_frame(&bytes, supported_versions()) {
            Ok(v) => v,
            Err(e) => return Err(TestCaseError::fail(format!("decode failed: {e}"))),
        };
        prop_assert_eq!(ver, PROTOCOL_VERSION);
        prop_assert_eq!(back, msg);
    }

    /// Encoding is a pure function of the value: two encodes of the same
    /// message are byte-identical (the sorted-collection satellite —
    /// nothing on the wire depends on hash order or ambient state).
    #[test]
    fn encoding_is_deterministic(msg in ArbMessage) {
        prop_assert_eq!(to_bytes(&msg), to_bytes(&msg.clone()));
        prop_assert_eq!(
            encode_frame(PROTOCOL_VERSION, &msg),
            encode_frame(PROTOCOL_VERSION, &msg)
        );
    }

    /// Every strict prefix of a valid frame is rejected, never misread:
    /// header cuts yield `Truncated`, payload cuts yield `Truncated` or a
    /// payload error — but no prefix ever decodes successfully.
    #[test]
    fn truncated_frames_rejected(msg in ArbMessage) {
        let bytes = encode_frame(PROTOCOL_VERSION, &msg);
        for cut in 0..bytes.len() {
            let r = decode_frame(&bytes[..cut], supported_versions());
            prop_assert!(r.is_err(), "prefix of length {cut} decoded: {r:?}");
        }
    }

    /// A frame followed by trailing bytes is a protocol violation, not a
    /// silently-ignored suffix.
    #[test]
    fn trailing_bytes_rejected(msg in ArbMessage) {
        let mut bytes = encode_frame(PROTOCOL_VERSION, &msg);
        bytes.push(0);
        let r = decode_frame(&bytes, supported_versions());
        prop_assert!(r.is_err(), "frame with trailing byte decoded: {r:?}");
    }
}

// ---------------------------------------------------------------------------
// Targeted rejection tests
// ---------------------------------------------------------------------------

#[test]
fn bad_magic_rejected() {
    let mut bytes = encode_frame(PROTOCOL_VERSION, &Message::Bye { sent: 1 });
    bytes[0] = b'X';
    assert_eq!(
        decode_frame(&bytes, supported_versions()),
        Err(FrameError::BadMagic([b'X', b'Y', b'R', b'S']))
    );
}

#[test]
fn unknown_version_rejected() {
    // A frame from a hypothetical future build: valid magic and payload,
    // version outside the supported range.
    let bytes = encode_frame(PROTOCOL_VERSION + 1, &Message::Bye { sent: 1 });
    assert_eq!(
        decode_frame(&bytes, supported_versions()),
        Err(FrameError::UnsupportedVersion(PROTOCOL_VERSION + 1))
    );
    // ...and version 0, predating the protocol.
    let bytes = encode_frame(0, &Message::Bye { sent: 1 });
    assert_eq!(
        decode_frame(&bytes, supported_versions()),
        Err(FrameError::UnsupportedVersion(0))
    );
}

#[test]
fn oversized_length_rejected() {
    // Forge a header whose length field exceeds the cap; the decoder must
    // reject on the header alone without trusting the length.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&frame::MAGIC);
    bytes.extend_from_slice(&PROTOCOL_VERSION.to_be_bytes());
    bytes.extend_from_slice(&(MAX_FRAME + 1).to_be_bytes());
    assert_eq!(
        decode_frame(&bytes, supported_versions()),
        Err(FrameError::Oversized(MAX_FRAME + 1))
    );
}

#[test]
fn oversized_sequence_inside_payload_rejected() {
    // A Bind whose vec length prefix claims 2^20 + 1 migrations: the
    // payload decoder must refuse before allocating.
    let mut payload = vec![7u8]; // Bind tag
    payload.extend_from_slice(&(dyrs_net::wire::MAX_SEQ_LEN + 1).to_be_bytes());
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&frame::MAGIC);
    bytes.extend_from_slice(&PROTOCOL_VERSION.to_be_bytes());
    bytes.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    bytes.extend_from_slice(&payload);
    assert_eq!(
        decode_frame(&bytes, supported_versions()),
        Err(FrameError::Payload(DecodeError::OversizedSeq(
            dyrs_net::wire::MAX_SEQ_LEN + 1
        )))
    );
}

#[test]
fn unknown_message_tag_rejected() {
    let payload = vec![0xEEu8];
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&frame::MAGIC);
    bytes.extend_from_slice(&PROTOCOL_VERSION.to_be_bytes());
    bytes.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    bytes.extend_from_slice(&payload);
    assert_eq!(
        decode_frame(&bytes, supported_versions()),
        Err(FrameError::Payload(DecodeError::BadTag {
            what: "Message",
            tag: 0xEE
        }))
    );
}

#[test]
fn every_tag_is_covered_by_the_generator() {
    // The roundtrip property is only as strong as its generator: check it
    // actually reaches all eighteen variants.
    let mut rng = TestRng::from_seed(7);
    let mut seen = [false; 18];
    for _ in 0..2_000 {
        seen[arb_message(&mut rng).tag() as usize] = true;
    }
    assert!(
        seen.iter().all(|&s| s),
        "generator missed a variant: {seen:?}"
    );
}

#[test]
fn oversized_snapshot_reply_rejected_by_frame_cap() {
    // A stats reply is operator traffic riding the same 16 MiB frame cap
    // as the protocol: a pathological snapshot (say a runaway counter
    // namespace) must be refused at the framing layer, not OOM the peer.
    let big_name = "x".repeat(1 << 10);
    let snapshot = StatsSnapshot {
        at: SimTime::from_micros(1),
        enabled: true,
        counters: (0..(MAX_FRAME as u64 / 1024 + 16))
            .map(|i| (big_name.clone(), i))
            .collect(),
        gauges: Vec::new(),
        open_spans: Vec::new(),
        top_winners: Vec::new(),
    };
    let msg = Message::StatsReply {
        scope: StatsScope::Local,
        snapshot,
    };
    let bytes = encode_frame(PROTOCOL_VERSION, &msg);
    assert!(bytes.len() > MAX_FRAME as usize);
    let len = u32::from_be_bytes([bytes[6], bytes[7], bytes[8], bytes[9]]);
    assert_eq!(
        decode_frame(&bytes, supported_versions()),
        Err(FrameError::Oversized(len))
    );
}

// ---------------------------------------------------------------------------
// A scrape at volume
// ---------------------------------------------------------------------------

/// FNV-1a over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Nodes in [`volume_recorder`]'s heartbeat pattern.
const VOLUME_NODES: u64 = 64;

/// Per-job series in [`volume_recorder`]: a long scaled-SWIM run keeps one
/// `job.lead_time_ready_fraction` series for every job it launched.
const VOLUME_JOBS: u64 = 1_800;

/// A recorder fed what a 64-node simulation records: eight rounds of
/// heartbeats, each sampling the per-node and per-tier gauges (tier keys
/// `(node << 8) | tier`), then the scheduler gauges and a counter; then
/// one series per job; then one migration and one Algorithm 1 pass.
fn volume_recorder() -> ObsHandle {
    let h = ObsHandle::new();
    for round in 0..8u64 {
        for node in 0..VOLUME_NODES {
            h.set_now(SimTime::from_micros(round * 1_000_000 + node * 10_000));
            let x = (round * 131 + node * 17) % 1000;
            h.gauge("node.health", node, (x % 4) as f64);
            h.gauge("node.estimate_secs_per_block", node, x as f64 / 64.0);
            h.gauge("node.queue_backlog_bytes", node, (x << 20) as f64);
            h.gauge("node.buffer_bytes", node, ((x * 3) << 16) as f64);
            h.gauge("node.disk_utilization", node, x as f64 / 1000.0);
            for tier in 0..2 {
                let key = (node << 8) | tier;
                h.gauge("tier.occupancy_bytes", key, ((x + tier) << 20) as f64);
                h.gauge("tier.utilization", key, (x % 100) as f64 / 100.0);
            }
            h.counter_add("detector.heartbeats", 1);
        }
        h.gauge("sched.pending_depth", 0, (round * 7) as f64);
        h.gauge("sched.dirty_entries", 0, round as f64);
    }
    for job in 0..VOLUME_JOBS {
        h.gauge("job.lead_time_ready_fraction", job, (job % 9) as f64 / 8.0);
    }
    h.migration_pending(1, BlockId(1), 64 << 20, Some(JobId(1)));
    h.provenance_push(
        1,
        BlockId(1),
        64 << 20,
        Some(NodeId(3)),
        &[NodeId(3), NodeId(5)],
        &[1.5, 2.5],
    );
    h.retarget_pass(1, 0);
    h
}

/// `(byte length, FNV-1a)` of the `StatsReply` frame carrying
/// [`volume_recorder`]'s snapshot, captured before gauge samples shared
/// their names: the wire bytes of a scrape may not change with the
/// recorder's or the decoder's internals.
const VOLUME_REPLY_PIN: (usize, u64) = (128_268, 0x5A49_19FA_0E9D_CC43);

#[test]
fn volume_stats_reply_matches_the_pin() {
    let h = volume_recorder();
    if !h.is_enabled() {
        return;
    }
    let msg = Message::StatsReply {
        scope: StatsScope::Local,
        snapshot: h.snapshot(),
    };
    let bytes = encode_frame(PROTOCOL_VERSION, &msg);
    assert_eq!((bytes.len(), fnv1a(&bytes)), VOLUME_REPLY_PIN);
    let (_, back) = decode_frame(&bytes, supported_versions()).expect("decodes");
    assert_eq!(back, msg);
}

#[test]
fn runs_of_equal_gauge_names_share_one_allocation() {
    let sample = |name: &str, key| GaugeSample {
        name: name.into(),
        key,
        value: key as f64,
        at: SimTime::from_micros(key),
    };
    let msg = Message::StatsReply {
        scope: StatsScope::Local,
        snapshot: StatsSnapshot {
            gauges: vec![
                sample("node.health", 0),
                sample("node.health", 1),
                sample("node.health_x", 0),
                sample("node.health", 2),
            ],
            ..StatsSnapshot::default()
        },
    };
    let bytes = encode_frame(PROTOCOL_VERSION, &msg);
    let (_, back) = decode_frame(&bytes, supported_versions()).expect("decodes");
    assert_eq!(encode_frame(PROTOCOL_VERSION, &back), bytes);
    assert_eq!(back, msg);
    let Message::StatsReply { snapshot, .. } = back else {
        panic!("a stats reply decodes as one");
    };
    let g = &snapshot.gauges;
    assert!(Arc::ptr_eq(&g[0].name, &g[1].name), "one run, one name");
    assert!(!Arc::ptr_eq(&g[1].name, &g[2].name));
    assert!(!Arc::ptr_eq(&g[2].name, &g[3].name));
    assert_eq!(&*g[3].name, "node.health");
}

// ---------------------------------------------------------------------------
// Decode robustness: damaged frames and checkpoints
// ---------------------------------------------------------------------------

/// The `StatsReply` frame of [`volume_recorder`]'s snapshot: 2,378 gauge
/// samples in runs of shared names (empty when recording is compiled
/// out).
fn volume_frame() -> &'static [u8] {
    static FRAME: OnceLock<Vec<u8>> = OnceLock::new();
    FRAME.get_or_init(|| {
        let msg = Message::StatsReply {
            scope: StatsScope::Local,
            snapshot: volume_recorder().snapshot(),
        };
        encode_frame(PROTOCOL_VERSION, &msg)
    })
}

/// A master in the state `seed` draws: 3–6 nodes with the failure
/// detector on, a few jobs of blocks over random replicas, a retarget
/// pass, and some pulls, so its checkpoint carries nodes, pending
/// entries and bindings.
fn drawn_master(seed: u64) -> Master {
    let mut rng = TestRng::from_seed(seed);
    let nodes = 3 + rng.below(4) as u32;
    let mut m = Master::new(MigrationPolicy::Dyrs, nodes as usize, 140e6, Rng::new(seed));
    m.configure_detector(FailureDetectorConfig::default());
    for n in 0..nodes {
        m.on_heartbeat(
            NodeId(n),
            (1.0 + rng.unit_f64()) / 140e6,
            rng.below(1 << 30),
        );
    }
    for job in 0..1 + rng.below(3) {
        let blocks = (0..1 + rng.below(6))
            .map(|b| BlockRequest {
                block: BlockId(job * 100 + b),
                bytes: (1 + rng.below(256)) << 20,
                replicas: (0..1 + rng.below(3))
                    .map(|_| NodeId(rng.below(u64::from(nodes)) as u32))
                    .collect(),
            })
            .collect();
        let eviction = if rng.below(2) == 0 {
            EvictionMode::Explicit
        } else {
            EvictionMode::Implicit
        };
        let _ = m.request_migration(JobId(job), blocks, eviction);
    }
    m.retarget();
    for n in 0..nodes {
        let _ = m.on_slave_pull(NodeId(n), rng.below(3) as usize);
    }
    m
}

/// `bytes` cut to `at % len` bytes, or with the byte at `at % len`
/// XORed with `mask`.
fn damage(bytes: &[u8], cut: bool, at: u64, mask: u8) -> Vec<u8> {
    let i = (at % bytes.len() as u64) as usize;
    let mut out = bytes.to_vec();
    if cut {
        out.truncate(i);
    } else {
        out[i] ^= mask;
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A truncated frame, or one with a byte flipped, never panics the
    /// decoder, and whatever still decodes re-encodes to exactly the
    /// damaged bytes: the decoder accepts only canonical encodings. One
    /// case in four damages the large scrape reply with shared names.
    #[test]
    fn damaged_frames_decode_canonically_or_not_at_all(
        msg in ArbMessage,
        big in 0u8..4,
        cut in any::<bool>(),
        at in any::<u64>(),
        mask in 1u8..=255,
    ) {
        let frame = if big == 0 {
            volume_frame().to_vec()
        } else {
            encode_frame(PROTOCOL_VERSION, &msg)
        };
        let damaged = damage(&frame, cut, at, mask);
        if let Ok((version, back)) = decode_frame(&damaged, supported_versions()) {
            prop_assert_eq!(encode_frame(version, &back), damaged);
        }
    }

    /// The same for master checkpoints: damaged checkpoint bytes never
    /// panic the decoder, and a checkpoint that still decodes re-encodes
    /// to the damaged bytes.
    #[test]
    fn damaged_checkpoints_decode_canonically_or_not_at_all(
        seed in any::<u64>(),
        cut in any::<bool>(),
        at in any::<u64>(),
        mask in 1u8..=255,
    ) {
        let bytes = checkpoint_to_bytes(&drawn_master(seed).checkpoint());
        prop_assert_eq!(
            checkpoint_from_bytes(&bytes).map(|cp| checkpoint_to_bytes(&cp)),
            Ok(bytes.clone())
        );
        let damaged = damage(&bytes, cut, at, mask);
        if let Ok(cp) = checkpoint_from_bytes(&damaged) {
            prop_assert_eq!(checkpoint_to_bytes(&cp), damaged);
        }
    }
}
