//! Length-prefixed, checksummed binary frames: the one codec behind both
//! the persistent cache tier's entries and `cmind`'s wire messages.
//!
//! A frame carries one value in the derive-emitted positional binary codec
//! ([`serde::BinSerialize`] / [`serde::BinDeserialize`]): no field names,
//! no intermediate tree, each string and vector allocated once on load.
//! Layout (all integers little-endian):
//!
//! ```text
//! magic [u8; 4] | version u8 | tag u8 | payload_len u32 | payload | fnv64(payload)
//! ```
//!
//! Each user picks its own [`FrameFormat`] — magic, version and payload
//! cap — and its own tags, so a frame of one kind can never decode as
//! another. Every check failure is a typed [`FrameError`]: a protocol peer
//! reports why a frame was rejected, and the cache treats any error as a
//! miss.

use ipra_core::fingerprint::Fnv64;
use serde::{BinDeserialize, BinSerialize};
use std::fmt;

/// Bytes before the payload: magic, version, tag, length prefix.
pub const HEADER_LEN: usize = 10;

/// One family of frames: its magic, the single version it reads and
/// writes, and the largest payload a header may announce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameFormat {
    /// The four-byte signature every frame starts with.
    pub magic: [u8; 4],
    /// The accepted version; any other is [`FrameError::UnsupportedVersion`].
    pub version: u8,
    /// Largest payload a length prefix may claim; larger is rejected from
    /// the header alone, before anything is allocated.
    pub max_payload: u32,
}

/// Why a frame was rejected. Every decoder check maps to exactly one
/// variant; [`kind`](FrameError::kind) is its stable short name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The first four bytes were not the format's magic.
    BadMagic([u8; 4]),
    /// A version byte other than the format's.
    UnsupportedVersion(u8),
    /// A tag byte other than the expected one.
    UnknownTag(u8),
    /// The length prefix claimed more than the format's payload cap.
    Oversize(u32),
    /// The frame ended before its declared length (byte counts are for the
    /// whole frame including header and checksum).
    Truncated {
        /// Whole-frame bytes the header promised.
        need: usize,
        /// Whole-frame bytes actually present.
        have: usize,
    },
    /// The payload's FNV-64 checksum did not match.
    Checksum,
    /// The payload failed to deserialize as the tagged type.
    Decode(String),
    /// The frame or its payload left unconsumed bytes (a codec bug or a
    /// foreign encoder; treated as corruption).
    TrailingBytes(usize),
    /// An I/O error while reading the frame from a stream.
    Io(String),
}

impl FrameError {
    /// Stable short name for counters and corpus expectations.
    pub fn kind(&self) -> &'static str {
        match self {
            FrameError::BadMagic(_) => "bad-magic",
            FrameError::UnsupportedVersion(_) => "unsupported-version",
            FrameError::UnknownTag(_) => "unknown-tag",
            FrameError::Oversize(_) => "oversize",
            FrameError::Truncated { .. } => "truncated",
            FrameError::Checksum => "checksum",
            FrameError::Decode(_) => "decode",
            FrameError::TrailingBytes(_) => "trailing-bytes",
            FrameError::Io(_) => "io",
        }
    }
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            FrameError::UnsupportedVersion(v) => write!(f, "unsupported frame version {v}"),
            FrameError::UnknownTag(t) => write!(f, "unknown frame tag {t}"),
            FrameError::Oversize(n) => write!(f, "frame payload length {n} exceeds the cap"),
            FrameError::Truncated { need, have } => {
                write!(f, "truncated frame: need {need} bytes, have {have}")
            }
            FrameError::Checksum => write!(f, "frame checksum mismatch"),
            FrameError::Decode(d) => write!(f, "frame payload malformed: {d}"),
            FrameError::TrailingBytes(n) => write!(f, "frame payload has {n} trailing bytes"),
            FrameError::Io(d) => write!(f, "socket i/o: {d}"),
        }
    }
}

impl std::error::Error for FrameError {}

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

impl FrameFormat {
    /// Encodes `value` as a self-checking frame with the given tag.
    ///
    /// # Panics
    ///
    /// When the payload exceeds the format's cap (a frame no decoder of
    /// this format would accept).
    pub fn encode<T: BinSerialize>(&self, tag: u8, value: &T) -> Vec<u8> {
        let mut payload = Vec::with_capacity(256);
        value.bin_serialize(&mut payload);
        assert!(payload.len() <= self.max_payload as usize, "frame payload exceeds its cap");
        let mut out = Vec::with_capacity(payload.len() + HEADER_LEN + 8);
        out.extend_from_slice(&self.magic);
        out.push(self.version);
        out.push(tag);
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        let checksum = fnv64(&payload);
        out.extend_from_slice(&payload);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Validates a header and returns the declared payload length.
    ///
    /// # Errors
    ///
    /// The [`FrameError`] for the first check that fails; checks run in
    /// wire order (magic, version, tag, length cap).
    pub fn check_header(&self, header: &[u8; HEADER_LEN], tag: u8) -> Result<usize, FrameError> {
        let magic: [u8; 4] = header[..4].try_into().expect("4-byte slice");
        if magic != self.magic {
            return Err(FrameError::BadMagic(magic));
        }
        if header[4] != self.version {
            return Err(FrameError::UnsupportedVersion(header[4]));
        }
        if header[5] != tag {
            return Err(FrameError::UnknownTag(header[5]));
        }
        let payload_len = u32::from_le_bytes(header[6..10].try_into().expect("4-byte slice"));
        if payload_len > self.max_payload {
            return Err(FrameError::Oversize(payload_len));
        }
        Ok(payload_len as usize)
    }

    /// Decodes one complete frame of the expected tag into its payload
    /// type.
    ///
    /// # Errors
    ///
    /// The [`FrameError`] for the first failing check: header checks (see
    /// [`check_header`](FrameFormat::check_header)), then whole-frame
    /// length, checksum, payload decode, and trailing-byte strictness.
    pub fn decode<T: BinDeserialize>(&self, bytes: &[u8], tag: u8) -> Result<T, FrameError> {
        let Some(header) = bytes.first_chunk::<HEADER_LEN>() else {
            return Err(FrameError::Truncated { need: HEADER_LEN, have: bytes.len() });
        };
        let payload_len = self.check_header(header, tag)?;
        let need = HEADER_LEN + payload_len + 8;
        if bytes.len() < need {
            return Err(FrameError::Truncated { need, have: bytes.len() });
        }
        if bytes.len() > need {
            return Err(FrameError::TrailingBytes(bytes.len() - need));
        }
        let (payload, checksum) = bytes[HEADER_LEN..].split_at(payload_len);
        if u64::from_le_bytes(checksum.try_into().expect("8-byte slice")) != fnv64(payload) {
            return Err(FrameError::Checksum);
        }
        let mut cursor = payload;
        let value =
            T::bin_deserialize(&mut cursor).map_err(|e| FrameError::Decode(e.to_string()))?;
        if !cursor.is_empty() {
            return Err(FrameError::TrailingBytes(cursor.len()));
        }
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};

    const FORMAT: FrameFormat = FrameFormat { magic: *b"TEST", version: 3, max_payload: 1 << 20 };

    /// Exercises every shape the derive emits binary code for: named and
    /// newtype structs, unit/newtype/tuple/struct enum variants, options,
    /// strings, vectors and nesting.
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    enum Node {
        Leaf,
        Count(u64),
        Pair(i32, bool),
        Labeled { label: String, weight: f64 },
    }

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Sample {
        key: u64,
        neg: i64,
        name: String,
        nodes: Vec<Node>,
        maybe: Option<String>,
        empty: Vec<u8>,
    }

    fn sample() -> Sample {
        Sample {
            key: u64::MAX,
            neg: -42,
            name: "mödule".to_string(),
            nodes: vec![
                Node::Leaf,
                Node::Count(7),
                Node::Pair(-3, true),
                Node::Labeled { label: "w".to_string(), weight: 3.5 },
            ],
            maybe: None,
            empty: Vec::new(),
        }
    }

    #[test]
    fn frames_round_trip() {
        let v = sample();
        let frame = FORMAT.encode(1, &v);
        assert_eq!(FORMAT.decode::<Sample>(&frame, 1), Ok(v));
    }

    #[test]
    fn tag_magic_and_version_are_enforced() {
        let frame = FORMAT.encode(1, &sample());
        assert_eq!(FORMAT.decode::<Sample>(&frame, 2).unwrap_err().kind(), "unknown-tag");
        for version in [1, FORMAT.version + 1] {
            let mut other = frame.clone();
            other[4] = version;
            let err = FORMAT.decode::<Sample>(&other, 1).unwrap_err();
            assert_eq!(err, FrameError::UnsupportedVersion(version));
        }
        let foreign = FrameFormat { magic: *b"ELSE", ..FORMAT };
        assert_eq!(foreign.decode::<Sample>(&frame, 1).unwrap_err().kind(), "bad-magic");
    }

    #[test]
    fn corruption_is_a_typed_error() {
        let frame = FORMAT.encode(2, &sample());
        // Flip each byte in turn: no single-byte corruption may decode.
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x41;
            assert!(FORMAT.decode::<Sample>(&bad, 2).is_err(), "byte {i}");
        }
        for len in 0..frame.len() {
            let err = FORMAT.decode::<Sample>(&frame[..len], 2).unwrap_err();
            assert_eq!(err.kind(), "truncated", "len {len}");
        }
        let mut longer = frame;
        longer.push(0);
        assert_eq!(FORMAT.decode::<Sample>(&longer, 2), Err(FrameError::TrailingBytes(1)));
        assert!(FORMAT.decode::<Sample>(b"this is not a frame at all", 1).is_err());
    }

    #[test]
    fn oversize_prefix_is_rejected_from_the_header_alone() {
        let mut header = [0u8; HEADER_LEN];
        header[..4].copy_from_slice(&FORMAT.magic);
        header[4] = FORMAT.version;
        header[5] = 1;
        header[6..].copy_from_slice(&(FORMAT.max_payload + 1).to_le_bytes());
        let err = FORMAT.check_header(&header, 1).unwrap_err();
        assert_eq!(err, FrameError::Oversize(FORMAT.max_payload + 1));
    }
}
