//! The `cmind` wire protocol: length-prefixed, checksummed binary frames
//! over a Unix-domain socket.
//!
//! Frames use the codec the persistent cache tier uses too
//! ([`ipra_artifact::frame`]), under `cmind`'s own magic and version:
//!
//! ```text
//! magic "CMND" | version u8 | tag u8 | payload_len u32 | payload | fnv64(payload)
//! ```
//!
//! All integers are little-endian. `tag` separates requests from responses
//! so a frame can never deserialize as the wrong direction. Payloads are
//! the derive-emitted positional binary codec ([`serde::BinSerialize`] /
//! [`serde::BinDeserialize`]), not JSON.
//!
//! Unlike the cache tier (where any mismatch is just a miss), a protocol
//! peer needs to know *why* a frame was rejected, so every check failure
//! is a typed [`ProtocolError`]. Version 1 frames (the JSON-payload
//! prototype) are explicitly rejected as [`ProtocolError::UnsupportedVersion`].
//!
//! The length prefix is validated against [`MAX_FRAME`] *before* the
//! payload is read, so a hostile or corrupt prefix cannot balloon memory.

use ipra_artifact::frame::{FrameError, FrameFormat};
use ipra_core::fingerprint::Fnv64;
use serde::{Deserialize, Serialize};
use std::io::Read;

pub use ipra_artifact::frame::HEADER_LEN;

/// Frame magic: `cmind`'s four-byte signature.
pub const MAGIC: [u8; 4] = *b"CMND";
/// Current protocol version. Version 1 was the JSON-payload prototype;
/// its frames are rejected with a typed error, never half-decoded.
pub const VERSION: u8 = 2;
/// Frame tag for client → daemon requests.
pub const TAG_REQUEST: u8 = 1;
/// Frame tag for daemon → client responses.
pub const TAG_RESPONSE: u8 = 2;
/// Hard cap on a frame's payload length. A length prefix above this is
/// rejected before any allocation.
pub const MAX_FRAME: u32 = 64 << 20;

const FRAMES: FrameFormat = FrameFormat { magic: MAGIC, version: VERSION, max_payload: MAX_FRAME };

/// Why a frame was rejected: the frame codec's typed error. Every decoder
/// check failure maps to exactly one variant; [`kind`](FrameError::kind)
/// gives the stable short name the corpus tests and counters key on.
pub type ProtocolError = FrameError;

/// One module source on the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireSource {
    /// Module name.
    pub name: String,
    /// Full source text.
    pub text: String,
}

/// A build job: the same inputs `cminc build` takes from the command line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BuildRequest {
    /// Paper configuration name (`L2`, `A`..`F`, `P`).
    pub config: String,
    /// Run the level-2 optimizer (the `build` default).
    pub optimize: bool,
    /// Module sources, in link order.
    pub sources: Vec<WireSource>,
    /// Training input for profile-fed configurations (B/F).
    pub training_input: Vec<i64>,
}

impl BuildRequest {
    /// The dedup key: a fingerprint over every input that affects the
    /// output bytes. Two requests with equal fingerprints are the same
    /// job — byte-determinism (PR 5) guarantees their results are
    /// byte-identical, which is what makes coalescing them sound.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write(self.config.as_bytes());
        h.write_u64(u64::from(self.optimize));
        h.write_u64(self.sources.len() as u64);
        for s in &self.sources {
            h.write_u64(s.name.len() as u64);
            h.write(s.name.as_bytes());
            h.write_u64(s.text.len() as u64);
            h.write(s.text.as_bytes());
        }
        h.write_u64(self.training_input.len() as u64);
        for &v in &self.training_input {
            h.write_u64(v as u64);
        }
        h.finish()
    }
}

/// Client → daemon messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Compile a program.
    Build(BuildRequest),
    /// Snapshot the daemon's counters.
    Stats,
    /// Drain in-flight builds and exit.
    Shutdown,
}

/// One daemon counter on the wire (sorted by name in [`StatsResponse`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Counter {
    /// Counter name (e.g. `daemon.builds`).
    pub name: String,
    /// Cumulative value.
    pub value: u64,
}

/// A successful build.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BuildResponse {
    /// The `.vx` executable artifact text — byte-identical to what
    /// `cminc build -o prog.vx` writes for the same inputs.
    pub vx: String,
    /// FNV-64 over the artifact text. The client re-hashes and refuses a
    /// response that fails this cross-check, mirroring the cache tier's
    /// fingerprint discipline: degrade loudly, never accept wrong bytes.
    pub fingerprint: u64,
    /// Did this response ride on another client's identical in-flight
    /// build rather than computing its own?
    pub coalesced: bool,
    /// Modules whose second phase actually re-ran, in source order.
    pub recompiled: Vec<String>,
}

/// Daemon counter snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatsResponse {
    /// All counters, sorted by name (deterministic wire bytes).
    pub counters: Vec<Counter>,
}

/// A request-level failure, reported in-band (the connection survives).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WireError {
    /// The request itself was unacceptable (unknown config, no modules).
    BadRequest(String),
    /// The program failed to compile.
    Compile(String),
    /// The profile-feedback training run trapped.
    Training(String),
    /// The build exceeded the daemon's per-request timeout (seconds).
    Timeout(u64),
    /// The daemon is draining for shutdown and took no new work.
    ShuttingDown,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadRequest(d) => write!(f, "bad request: {d}"),
            WireError::Compile(d) => write!(f, "compile error: {d}"),
            WireError::Training(d) => write!(f, "training run failed: {d}"),
            WireError::Timeout(s) => write!(f, "build timed out after {s}s"),
            WireError::ShuttingDown => write!(f, "daemon is shutting down"),
        }
    }
}

/// Daemon → client messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Liveness reply.
    Pong,
    /// Build result.
    Built(BuildResponse),
    /// Counter snapshot.
    Stats(StatsResponse),
    /// Shutdown acknowledged; the daemon drains and exits.
    ShuttingDown,
    /// Request-level failure.
    Error(WireError),
}

/// Validates a header and returns the declared payload length.
///
/// # Errors
///
/// The typed [`ProtocolError`] for the first check that fails; checks run
/// in wire order (magic, version, tag, length cap).
pub fn check_header(header: &[u8; HEADER_LEN], expect_tag: u8) -> Result<usize, ProtocolError> {
    FRAMES.check_header(header, expect_tag)
}

/// Encodes a request frame.
pub fn encode_request(req: &Request) -> Vec<u8> {
    FRAMES.encode(TAG_REQUEST, req)
}

/// Decodes a request frame.
///
/// # Errors
///
/// Any [`ProtocolError`] (see [`FrameFormat::decode`]).
pub fn decode_request(bytes: &[u8]) -> Result<Request, ProtocolError> {
    FRAMES.decode(bytes, TAG_REQUEST)
}

/// Encodes a response frame.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    FRAMES.encode(TAG_RESPONSE, resp)
}

/// Decodes a response frame.
///
/// # Errors
///
/// Any [`ProtocolError`] (see [`FrameFormat::decode`]).
pub fn decode_response(bytes: &[u8]) -> Result<Response, ProtocolError> {
    FRAMES.decode(bytes, TAG_RESPONSE)
}

/// Fills `buf` from `r`, tolerating short reads; returns how many bytes
/// arrived before EOF.
fn read_full(r: &mut impl Read, buf: &mut [u8]) -> Result<usize, ProtocolError> {
    let mut have = 0;
    while have < buf.len() {
        match r.read(&mut buf[have..]) {
            Ok(0) => break,
            Ok(n) => have += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ProtocolError::Io(e.to_string())),
        }
    }
    Ok(have)
}

/// Reads one complete frame of the expected tag from a stream. Returns
/// `Ok(None)` on a clean EOF at a frame boundary (the peer hung up between
/// requests — not an error). The header is validated *before* the payload
/// is read, so an oversize length prefix is rejected without allocating.
///
/// # Errors
///
/// [`ProtocolError::Truncated`] when the stream ends mid-frame, any header
/// check failure, or [`ProtocolError::Io`].
pub fn read_frame(r: &mut impl Read, expect_tag: u8) -> Result<Option<Vec<u8>>, ProtocolError> {
    let mut header = [0u8; HEADER_LEN];
    match read_full(r, &mut header)? {
        0 => return Ok(None),
        n if n < HEADER_LEN => return Err(ProtocolError::Truncated { need: HEADER_LEN, have: n }),
        _ => {}
    }
    let payload_len = check_header(&header, expect_tag)?;
    let need = HEADER_LEN + payload_len + 8;
    let mut frame = vec![0u8; need];
    frame[..HEADER_LEN].copy_from_slice(&header);
    let got = read_full(r, &mut frame[HEADER_LEN..])?;
    if got < need - HEADER_LEN {
        return Err(ProtocolError::Truncated { need, have: HEADER_LEN + got });
    }
    Ok(Some(frame))
}

/// Encodes a linked executable as `.vx` artifact text plus its FNV-64
/// fingerprint — exactly the bytes `cminc build -o prog.vx` writes, which
/// is what makes a daemon response byte-comparable to a local build.
pub fn executable_artifact(exe: &vpr::program::Executable) -> (String, u64) {
    let text = ipra_artifact::encode(
        ipra_artifact::ArtifactKind::Executable,
        &ipra_artifact::ExecutableArtifact { exe: exe.clone() },
    );
    let mut h = Fnv64::new();
    h.write(text.as_bytes());
    (text, h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> Request {
        Request::Build(BuildRequest {
            config: "E".to_string(),
            optimize: true,
            sources: vec![
                WireSource { name: "main".to_string(), text: "fn main() { ret 0; }".to_string() },
                WireSource { name: "üñí".to_string(), text: String::new() },
            ],
            training_input: vec![-7, 0, 42],
        })
    }

    #[test]
    fn requests_round_trip() {
        for req in [sample_request(), Request::Ping, Request::Stats, Request::Shutdown] {
            let frame = encode_request(&req);
            assert_eq!(decode_request(&frame), Ok(req));
        }
    }

    #[test]
    fn responses_round_trip() {
        let responses = [
            Response::Pong,
            Response::Built(BuildResponse {
                vx: ";ipra-artifact executable v1 fnv64:0\n{}\n".to_string(),
                fingerprint: 0xDEAD_BEEF,
                coalesced: true,
                recompiled: vec!["m0".to_string()],
            }),
            Response::Stats(StatsResponse {
                counters: vec![Counter { name: "daemon.builds".to_string(), value: 3 }],
            }),
            Response::ShuttingDown,
            Response::Error(WireError::Timeout(30)),
        ];
        for resp in responses {
            let frame = encode_response(&resp);
            assert_eq!(decode_response(&frame), Ok(resp));
        }
    }

    #[test]
    fn every_single_byte_corruption_is_a_typed_error() {
        let frame = encode_request(&sample_request());
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x41;
            assert!(decode_request(&bad).is_err(), "byte {i} flip must not decode");
        }
        for len in 0..frame.len() {
            assert_eq!(
                decode_request(&frame[..len]).unwrap_err().kind(),
                "truncated",
                "prefix of length {len}"
            );
        }
    }

    #[test]
    fn tag_direction_is_enforced() {
        let frame = encode_request(&Request::Ping);
        assert_eq!(decode_response(&frame).unwrap_err().kind(), "unknown-tag");
    }

    #[test]
    fn fingerprints_key_on_every_input() {
        let Request::Build(base) = sample_request() else { unreachable!() };
        let fp = base.fingerprint();
        let mut other = base.clone();
        other.config = "C".to_string();
        assert_ne!(fp, other.fingerprint());
        let mut other = base.clone();
        other.optimize = false;
        assert_ne!(fp, other.fingerprint());
        let mut other = base.clone();
        other.sources[0].text.push(' ');
        assert_ne!(fp, other.fingerprint());
        let mut other = base.clone();
        other.training_input.push(1);
        assert_ne!(fp, other.fingerprint());
        assert_eq!(fp, base.clone().fingerprint());
    }

    #[test]
    fn stream_reader_matches_slice_decoder() {
        let frame = encode_request(&sample_request());
        let mut cursor: &[u8] = &frame;
        let got = read_frame(&mut cursor, TAG_REQUEST).unwrap().expect("one frame");
        assert_eq!(got, frame);
        assert_eq!(read_frame(&mut cursor, TAG_REQUEST).unwrap(), None, "clean EOF after");
        // Mid-frame EOF is typed truncation.
        let mut partial: &[u8] = &frame[..frame.len() - 3];
        assert_eq!(read_frame(&mut partial, TAG_REQUEST).unwrap_err().kind(), "truncated");
    }

    #[test]
    fn oversize_prefix_is_rejected_from_the_header_alone() {
        let mut header = [0u8; HEADER_LEN];
        header[..4].copy_from_slice(&MAGIC);
        header[4] = VERSION;
        header[5] = TAG_REQUEST;
        header[6..10].copy_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        let mut stream: &[u8] = &header;
        assert_eq!(read_frame(&mut stream, TAG_REQUEST).unwrap_err().kind(), "oversize");
    }
}
