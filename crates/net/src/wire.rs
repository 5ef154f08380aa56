//! Deterministic binary encoding for protocol payloads.
//!
//! The wire format is written by hand here and is — deliberately — *fully
//! specified*: big-endian fixed-width integers, `f64` as its IEEE-754 bit
//! pattern, `u8` discriminant tags for enums, and `u32` length prefixes
//! for sequences and strings. There is no padding, no alignment, and no
//! map type whose iteration order could leak into the bytes: every
//! sequence is encoded in the order the sending state machine produced
//! it, which the workspace keeps deterministic (`dyrs-verify -- lint`
//! bans hash-ordered iteration in decision paths). The same value
//! therefore always encodes to the same bytes, which
//! `tests/determinism.rs` pins with a digest.

use dyrs::master::{BlockRequest, JobHint};
use dyrs::slave::HeartbeatReport;
use dyrs::types::{BoundMigration, JobRef, Migration, MigrationId};
use dyrs::EvictionMode;
use dyrs_cluster::NodeId;
use dyrs_dfs::{BlockId, FileId, JobId};
use dyrs_obs::{FlightEntry, FlightRecord, GaugeSample, StatsSnapshot};
use simkit::{SimDuration, SimTime};
use std::fmt;
use std::sync::Arc;

/// Longest sequence the decoder will allocate for (elements). Protects
/// against a corrupt or hostile length prefix causing an OOM before the
/// frame-level size cap can help.
pub const MAX_SEQ_LEN: u32 = 1 << 20;

/// Why a payload failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the value was complete.
    Truncated,
    /// An enum tag byte had no corresponding variant.
    BadTag {
        /// Which type was being decoded.
        what: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A length prefix exceeded [`MAX_SEQ_LEN`].
    OversizedSeq(u32),
    /// A string's bytes were not valid UTF-8.
    BadUtf8,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "payload truncated"),
            DecodeError::BadTag { what, tag } => {
                write!(f, "unknown tag {tag:#04x} while decoding {what}")
            }
            DecodeError::OversizedSeq(n) => {
                write!(f, "sequence length {n} exceeds the {MAX_SEQ_LEN} cap")
            }
            DecodeError::BadUtf8 => write!(f, "string is not valid UTF-8"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Cursor over a received payload.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// A sequence's `u32` length prefix, refused above [`MAX_SEQ_LEN`].
    fn seq_len(&mut self) -> Result<u32, DecodeError> {
        let len = u32::decode(self)?;
        if len > MAX_SEQ_LEN {
            return Err(DecodeError::OversizedSeq(len));
        }
        Ok(len)
    }

    /// A string's bytes (length prefix, then the bytes), not yet checked
    /// for UTF-8.
    fn str_bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.seq_len()?;
        self.take(len as usize)
    }
}

fn utf8(bytes: &[u8]) -> Result<&str, DecodeError> {
    std::str::from_utf8(bytes).map_err(|_| DecodeError::BadUtf8)
}

/// A value with a canonical binary encoding.
///
/// `decode(encode(v)) == v` for every value (pinned by proptest in
/// `crates/net/tests/codec.rs`), and `encode` is a pure function of the
/// value — no environment, time, or allocation order can change the
/// bytes.
pub trait Wire: Sized {
    /// Append this value's canonical encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decode one value from the reader, consuming exactly the bytes
    /// `encode` produced.
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError>;
}

macro_rules! wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_be_bytes());
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                let bytes = r.take(std::mem::size_of::<$t>())?;
                let arr: [u8; std::mem::size_of::<$t>()] =
                    bytes.try_into().map_err(|_| DecodeError::Truncated)?;
                Ok(<$t>::from_be_bytes(arr))
            }
        }
    )*};
}

wire_int!(u8, u16, u32, u64);

impl Wire for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        // Bit pattern, not text: round-trips NaN payloads and subnormals
        // exactly, and is byte-stable across platforms.
        out.extend_from_slice(&self.to_bits().to_be_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(f64::from_bits(u64::decode(r)?))
    }
}

impl Wire for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(DecodeError::BadTag { what: "bool", tag }),
        }
    }
}

/// `usize` travels as `u64` so 32- and 64-bit peers agree on the bytes.
impl Wire for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(u64::decode(r)? as usize)
    }
}

fn encode_str(s: &str, out: &mut Vec<u8>) {
    (s.len() as u32).encode(out);
    out.extend_from_slice(s.as_bytes());
}

impl Wire for String {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_str(self, out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        utf8(r.str_bytes()?).map(str::to_owned)
    }
}

/// The same bytes as a `String`.
impl Wire for Arc<str> {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_str(self, out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        utf8(r.str_bytes()?).map(Arc::from)
    }
}

/// Room for a sequence of `len` elements. Reserved conservatively: a
/// corrupt prefix may claim more elements than the buffer can hold, so
/// the capacity is capped by the bytes remaining.
fn seq_with_capacity<T>(len: u32, r: &Reader<'_>) -> Vec<T> {
    Vec::with_capacity((len as usize).min(r.remaining()))
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        for item in self {
            item.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let len = r.seq_len()?;
        let mut v = seq_with_capacity(len, r);
        for _ in 0..len {
            v.push(T::decode(r)?);
        }
        Ok(v)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(DecodeError::BadTag {
                what: "Option",
                tag,
            }),
        }
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

macro_rules! wire_newtype {
    ($($t:ty => $inner:ty),*) => {$(
        impl Wire for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                self.0.encode(out);
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                Ok(Self(<$inner>::decode(r)?))
            }
        }
    )*};
}

wire_newtype!(
    NodeId => u32,
    BlockId => u64,
    JobId => u64,
    FileId => u32,
    MigrationId => u64
);

impl Wire for SimTime {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_micros().encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(SimTime::from_micros(u64::decode(r)?))
    }
}

impl Wire for SimDuration {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_micros().encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(SimDuration::from_micros(u64::decode(r)?))
    }
}

impl Wire for EvictionMode {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            EvictionMode::Explicit => 0,
            EvictionMode::Implicit => 1,
        });
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            0 => Ok(EvictionMode::Explicit),
            1 => Ok(EvictionMode::Implicit),
            tag => Err(DecodeError::BadTag {
                what: "EvictionMode",
                tag,
            }),
        }
    }
}

impl Wire for JobRef {
    fn encode(&self, out: &mut Vec<u8>) {
        self.job.encode(out);
        self.eviction.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(JobRef {
            job: JobId::decode(r)?,
            eviction: EvictionMode::decode(r)?,
        })
    }
}

impl Wire for Migration {
    fn encode(&self, out: &mut Vec<u8>) {
        self.id.encode(out);
        self.block.encode(out);
        self.bytes.encode(out);
        self.jobs.encode(out);
        self.replicas.encode(out);
        self.attempt.encode(out);
        self.dest_tier.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Migration {
            id: MigrationId::decode(r)?,
            block: BlockId::decode(r)?,
            bytes: u64::decode(r)?,
            jobs: Vec::decode(r)?,
            replicas: Vec::decode(r)?,
            attempt: u32::decode(r)?,
            dest_tier: u8::decode(r)?,
        })
    }
}

impl Wire for BoundMigration {
    fn encode(&self, out: &mut Vec<u8>) {
        self.migration.encode(out);
        self.node.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(BoundMigration {
            migration: Migration::decode(r)?,
            node: NodeId::decode(r)?,
        })
    }
}

impl Wire for HeartbeatReport {
    fn encode(&self, out: &mut Vec<u8>) {
        self.secs_per_byte.encode(out);
        self.queued_bytes.encode(out);
        self.queue_space.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(HeartbeatReport {
            secs_per_byte: f64::decode(r)?,
            queued_bytes: u64::decode(r)?,
            queue_space: usize::decode(r)?,
        })
    }
}

impl Wire for BlockRequest {
    fn encode(&self, out: &mut Vec<u8>) {
        self.block.encode(out);
        self.bytes.encode(out);
        self.replicas.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(BlockRequest {
            block: BlockId::decode(r)?,
            bytes: u64::decode(r)?,
            replicas: Vec::decode(r)?,
        })
    }
}

impl Wire for JobHint {
    fn encode(&self, out: &mut Vec<u8>) {
        self.expected_launch.encode(out);
        self.total_bytes.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(JobHint {
            expected_launch: SimTime::decode(r)?,
            total_bytes: u64::decode(r)?,
        })
    }
}

impl Wire for GaugeSample {
    fn encode(&self, out: &mut Vec<u8>) {
        self.name.encode(out);
        self.key.encode(out);
        self.value.encode(out);
        self.at.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let name = Arc::decode(r)?;
        gauge_sample_after(name, r)
    }
}

/// The rest of a gauge sample whose name is decoded.
fn gauge_sample_after(name: Arc<str>, r: &mut Reader<'_>) -> Result<GaugeSample, DecodeError> {
    Ok(GaugeSample {
        name,
        key: u64::decode(r)?,
        value: f64::decode(r)?,
        at: SimTime::decode(r)?,
    })
}

/// A snapshot's gauge samples, as `Vec<GaugeSample>` encodes them. They
/// come in (name, key) order, so the samples of one name are adjacent: a
/// sample whose name bytes match the previous sample's shares its
/// allocation, and a scrape allocates each name once.
fn decode_gauges(r: &mut Reader<'_>) -> Result<Vec<GaugeSample>, DecodeError> {
    let len = r.seq_len()?;
    let mut gauges: Vec<GaugeSample> = seq_with_capacity(len, r);
    for _ in 0..len {
        let bytes = r.str_bytes()?;
        let name = match gauges.last() {
            Some(prev) if prev.name.as_bytes() == bytes => Arc::clone(&prev.name),
            _ => Arc::from(utf8(bytes)?),
        };
        gauges.push(gauge_sample_after(name, r)?);
    }
    Ok(gauges)
}

impl Wire for StatsSnapshot {
    fn encode(&self, out: &mut Vec<u8>) {
        self.at.encode(out);
        self.enabled.encode(out);
        self.counters.encode(out);
        self.gauges.encode(out);
        self.open_spans.encode(out);
        self.top_winners.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(StatsSnapshot {
            at: SimTime::decode(r)?,
            enabled: bool::decode(r)?,
            counters: Vec::decode(r)?,
            gauges: decode_gauges(r)?,
            open_spans: Vec::decode(r)?,
            top_winners: Vec::decode(r)?,
        })
    }
}

impl Wire for FlightEntry {
    fn encode(&self, out: &mut Vec<u8>) {
        self.at.encode(out);
        self.migration.encode(out);
        self.block.encode(out);
        self.state.encode(out);
        self.node.encode(out);
        self.cause.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(FlightEntry {
            at: SimTime::decode(r)?,
            migration: u64::decode(r)?,
            block: u64::decode(r)?,
            state: String::decode(r)?,
            node: Option::decode(r)?,
            cause: String::decode(r)?,
        })
    }
}

impl Wire for FlightRecord {
    fn encode(&self, out: &mut Vec<u8>) {
        self.reason.encode(out);
        self.node.encode(out);
        self.at.encode(out);
        self.dropped.encode(out);
        self.entries.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(FlightRecord {
            reason: String::decode(r)?,
            node: Option::decode(r)?,
            at: SimTime::decode(r)?,
            dropped: u64::decode(r)?,
            entries: Vec::decode(r)?,
        })
    }
}

/// Convenience: encode a value into a fresh buffer.
pub fn to_bytes<T: Wire>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.encode(&mut out);
    out
}

/// Convenience: decode a value that must consume the whole buffer.
pub fn from_bytes<T: Wire>(buf: &[u8]) -> Result<T, DecodeError> {
    let mut r = Reader::new(buf);
    let v = T::decode(&mut r)?;
    if r.remaining() != 0 {
        // Trailing garbage means sender and receiver disagree on the
        // schema — surface it rather than silently ignoring bytes.
        return Err(DecodeError::Truncated);
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = to_bytes(&v);
        assert_eq!(from_bytes::<T>(&bytes), Ok(v));
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(u16::MAX);
        roundtrip(0xDEAD_BEEFu32);
        roundtrip(u64::MAX);
        roundtrip(1.5f64);
        roundtrip(true);
        roundtrip(String::from("héllo"));
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Option::<u32>::None);
        roundtrip(Some(7u32));
    }

    #[test]
    fn nan_bit_pattern_survives() {
        let weird = f64::from_bits(0x7FF8_0000_0000_1234);
        let bytes = to_bytes(&weird);
        let back = from_bytes::<f64>(&bytes).expect("decodes");
        assert_eq!(back.to_bits(), weird.to_bits());
    }

    #[test]
    fn encoding_is_big_endian_and_prefix_free() {
        assert_eq!(to_bytes(&0x0102_0304u32), vec![1, 2, 3, 4]);
        assert_eq!(to_bytes(&String::from("ab")), vec![0, 0, 0, 2, b'a', b'b']);
    }

    #[test]
    fn truncation_is_an_error() {
        let bytes = to_bytes(&0xAABB_CCDDu32);
        assert_eq!(from_bytes::<u32>(&bytes[..3]), Err(DecodeError::Truncated));
    }

    #[test]
    fn oversized_seq_rejected_without_allocation() {
        let mut buf = Vec::new();
        (MAX_SEQ_LEN + 1).encode(&mut buf);
        assert_eq!(
            from_bytes::<Vec<u64>>(&buf),
            Err(DecodeError::OversizedSeq(MAX_SEQ_LEN + 1))
        );
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = to_bytes(&7u32);
        bytes.push(0);
        assert_eq!(from_bytes::<u32>(&bytes), Err(DecodeError::Truncated));
    }
}
