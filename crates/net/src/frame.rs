//! Length-prefixed framing for [`Message`]s over a byte stream.
//!
//! ```text
//!  0       4       6       10            10+len
//!  +-------+-------+-------+--------------+
//!  | magic | ver   | len   |   payload    |
//!  | DYRS  | u16BE | u32BE |  Wire bytes  |
//!  +-------+-------+-------+--------------+
//! ```
//!
//! * `magic` — the 4 bytes `DYRS`; rejects cross-talk from anything that
//!   is not this protocol (port scans, misdirected HTTP).
//! * `ver` — the protocol version the payload was encoded under. The
//!   framing layer rejects versions outside the range negotiated by the
//!   handshake (and, before any handshake, outside this build's range).
//! * `len` — payload length in bytes, capped at [`MAX_FRAME`] so a
//!   corrupt prefix cannot trigger an unbounded allocation.
//!
//! The payload must decode to exactly `len` bytes — trailing garbage is
//! a framing error, not silently ignored.

use crate::proto::{Message, PROTOCOL_VERSION};
use crate::wire::{DecodeError, Reader, Wire};
use std::fmt;
use std::io::{self, Read, Write};

/// Frame preamble: `DYRS`.
pub const MAGIC: [u8; 4] = *b"DYRS";

/// Fixed header size: magic + version + length.
pub const HEADER_LEN: usize = 4 + 2 + 4;

/// Hard cap on a frame payload (16 MiB — a `Bind` of thousands of
/// migrations fits with orders of magnitude to spare).
pub const MAX_FRAME: u32 = 16 << 20;

/// Why a frame failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The stream ended inside a header or payload.
    Truncated,
    /// The first four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// The header's version is outside the accepted range.
    UnsupportedVersion(u16),
    /// The header's length exceeds [`MAX_FRAME`].
    Oversized(u32),
    /// The payload failed to decode, or decoded short of `len`.
    Payload(DecodeError),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "frame truncated"),
            FrameError::BadMagic(m) => write!(f, "bad magic {m:02x?} (expected 44 59 52 53)"),
            FrameError::UnsupportedVersion(v) => {
                write!(f, "unsupported protocol version {v}")
            }
            FrameError::Oversized(n) => {
                write!(f, "frame length {n} exceeds the {MAX_FRAME}-byte cap")
            }
            FrameError::Payload(e) => write!(f, "payload: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<DecodeError> for FrameError {
    fn from(e: DecodeError) -> Self {
        FrameError::Payload(e)
    }
}

/// Encode `msg` as one complete frame at `version`.
pub fn encode_frame(version: u16, msg: &Message) -> Vec<u8> {
    let mut out = Vec::new();
    encode_frame_into(&mut out, version, msg);
    out
}

/// Replace `out`'s contents with `msg` as one complete frame at
/// `version`, the bytes [`encode_frame`] returns. The header is written
/// first and the payload encoded behind it, then the length is patched
/// in, so nothing is encoded twice or copied; a caller that keeps `out`
/// between frames reuses its capacity.
pub fn encode_frame_into(out: &mut Vec<u8>, version: u16, msg: &Message) {
    out.clear();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&version.to_be_bytes());
    out.extend_from_slice(&[0; 4]);
    msg.encode(out);
    let len = (out.len() - HEADER_LEN) as u32;
    out[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&len.to_be_bytes());
}

/// Decode one complete frame from `buf`, accepting only versions in
/// `versions` (inclusive range). Returns the version and the message;
/// `buf` must contain exactly one frame.
pub fn decode_frame(
    buf: &[u8],
    versions: std::ops::RangeInclusive<u16>,
) -> Result<(u16, Message), FrameError> {
    if buf.len() < HEADER_LEN {
        return Err(FrameError::Truncated);
    }
    let magic: [u8; 4] = buf[0..4].try_into().map_err(|_| FrameError::Truncated)?;
    if magic != MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    let version = u16::from_be_bytes([buf[4], buf[5]]);
    if !versions.contains(&version) {
        return Err(FrameError::UnsupportedVersion(version));
    }
    let len = u32::from_be_bytes([buf[6], buf[7], buf[8], buf[9]]);
    if len > MAX_FRAME {
        return Err(FrameError::Oversized(len));
    }
    let payload = &buf[HEADER_LEN..];
    if payload.len() != len as usize {
        return Err(FrameError::Truncated);
    }
    let mut r = Reader::new(payload);
    let msg = Message::decode(&mut r)?;
    if r.remaining() != 0 {
        return Err(FrameError::Payload(DecodeError::Truncated));
    }
    Ok((version, msg))
}

/// The version range this build accepts before a handshake has pinned
/// one (currently a single version).
pub fn supported_versions() -> std::ops::RangeInclusive<u16> {
    PROTOCOL_VERSION..=PROTOCOL_VERSION
}

/// Write one frame to a blocking stream.
pub fn write_frame(w: &mut impl Write, version: u16, msg: &Message) -> io::Result<()> {
    let frame = encode_frame(version, msg);
    w.write_all(&frame)?;
    w.flush()
}

/// Read one frame from a blocking stream, accepting versions in
/// `versions`. The outer `io::Result` carries transport failures
/// (including read timeouts); the inner `Result` carries protocol
/// violations from a peer that did deliver bytes.
pub fn read_frame(
    r: &mut impl Read,
    versions: std::ops::RangeInclusive<u16>,
) -> io::Result<Result<(u16, Message), FrameError>> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    let magic: [u8; 4] = [header[0], header[1], header[2], header[3]];
    if magic != MAGIC {
        return Ok(Err(FrameError::BadMagic(magic)));
    }
    let version = u16::from_be_bytes([header[4], header[5]]);
    if !versions.contains(&version) {
        return Ok(Err(FrameError::UnsupportedVersion(version)));
    }
    let len = u32::from_be_bytes([header[6], header[7], header[8], header[9]]);
    if len > MAX_FRAME {
        return Ok(Err(FrameError::Oversized(len)));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    let mut reader = Reader::new(&payload);
    match Message::decode(&mut reader) {
        Ok(msg) if reader.remaining() == 0 => Ok(Ok((version, msg))),
        Ok(_) => Ok(Err(FrameError::Payload(DecodeError::Truncated))),
        Err(e) => Ok(Err(FrameError::Payload(e))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Message {
        Message::Welcome {
            version: PROTOCOL_VERSION,
        }
    }

    #[test]
    fn frame_roundtrip() {
        let frame = encode_frame(PROTOCOL_VERSION, &sample());
        let (v, msg) = decode_frame(&frame, supported_versions()).expect("roundtrip");
        assert_eq!(v, PROTOCOL_VERSION);
        assert_eq!(msg, sample());
    }

    #[test]
    fn truncated_frame_rejected() {
        let frame = encode_frame(PROTOCOL_VERSION, &sample());
        for cut in [0, 3, HEADER_LEN - 1, frame.len() - 1] {
            assert_eq!(
                decode_frame(&frame[..cut], supported_versions()),
                Err(FrameError::Truncated),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut frame = encode_frame(PROTOCOL_VERSION, &sample());
        frame[0] = b'X';
        assert!(matches!(
            decode_frame(&frame, supported_versions()),
            Err(FrameError::BadMagic(_))
        ));
    }

    #[test]
    fn unknown_version_rejected() {
        let frame = encode_frame(99, &sample());
        assert_eq!(
            decode_frame(&frame, supported_versions()),
            Err(FrameError::UnsupportedVersion(99))
        );
    }

    #[test]
    fn oversized_length_rejected() {
        let mut frame = encode_frame(PROTOCOL_VERSION, &sample());
        frame[6..10].copy_from_slice(&(MAX_FRAME + 1).to_be_bytes());
        assert_eq!(
            decode_frame(&frame, supported_versions()),
            Err(FrameError::Oversized(MAX_FRAME + 1))
        );
    }

    #[test]
    fn stream_read_write_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, PROTOCOL_VERSION, &sample()).expect("write");
        let mut cursor = std::io::Cursor::new(buf);
        let got = read_frame(&mut cursor, supported_versions())
            .expect("io")
            .expect("frame");
        assert_eq!(got, (PROTOCOL_VERSION, sample()));
    }
}
