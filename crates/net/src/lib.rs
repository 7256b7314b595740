//! The FedSZ networking layer: the FMSG wire protocol and the framed
//! stream I/O that moves it across OS processes.
//!
//! The paper's implementation rides on APPFL's gRPC/MPI stack; this
//! crate is the repo's homegrown equivalent, shared by every byte
//! mover in the workspace:
//!
//! * [`Message`] — the framed FMSG message format (magic + type tag +
//!   fields + CRC-32 trailer). It lives here so the server, relay
//!   and worker processes of the socket runtime encode/decode through
//!   literally the same code. One per-tag field table drives its
//!   encoder, its decoder and [`frame_len`] — one source of truth for
//!   the framing rules documented in `ARCHITECTURE.md`.
//! * [`FrameReader`] / [`FrameWriter`] — framed message I/O over any
//!   [`std::io::Read`] / [`std::io::Write`]. The reader buffers
//!   partial reads (a TCP segment boundary can land anywhere, even
//!   mid-varint) and CRC-verifies every frame before handing it up.
//! * [`Session`] — a connected TCP peer speaking FMSG: handshake-ready
//!   `send`/`recv` with per-call timeouts, used by `fedsz serve` and
//!   `fedsz worker`.
//! * [`MetricsServer`] — a detached Prometheus text-exposition
//!   endpoint (`fedsz serve --metrics-addr`) answering every HTTP
//!   request with a live counter/gauge snapshot.
//! * [`Reactor`] — the C10K runtime: one thread multiplexing every
//!   session over nonblocking sockets through a `poll(2)` readiness
//!   loop, with per-connection inbound frame reassembly (the same
//!   [`FrameReader`]), outbound write-backpressure queues, and an
//!   encode-once broadcast fan-out; whoever drives the loop keeps its
//!   own round and barrier timers.
//! * [`Backoff`] — bounded exponential retry schedule with seeded
//!   jitter, used by workers reconnecting after an eviction or a
//!   relay failure (the seed keeps a restarted cohort from stampeding
//!   its parent in lockstep).
//!
//! The crate deliberately knows nothing about federated learning:
//! models, aggregation and round logic stay in `fedsz-fl`, which
//! builds its multi-process runtime (`fedsz_fl::net`) on these
//! primitives.

// `deny` rather than `forbid`: the whole crate stays safe Rust except
// the one `poll(2)` FFI declaration in `poll.rs`, which carries a
// module-scoped `allow` and a safety argument.
#![deny(unsafe_code)]
// Every decoder here faces socket bytes: a frame that breaks a rule is
// an error, never an arm assumed away.
#![deny(clippy::unreachable)]
#![warn(missing_docs)]

pub mod backoff;
pub mod frame;
pub mod metrics;
pub mod poll;
pub mod reactor;
pub mod session;
pub mod wire;

pub use backoff::Backoff;
pub use frame::{FrameReader, FrameWriter};
pub use metrics::MetricsServer;
pub use reactor::{Reactor, ReactorEvent, Token};
pub use session::Session;
pub use wire::{frame_len, Message, MAX_FRAME_BYTES};

use fedsz_codec::CodecError;

/// Errors from the framed-socket layer.
#[derive(Debug)]
pub enum NetError {
    /// An OS-level socket failure.
    Io(std::io::Error),
    /// A malformed, corrupt or oversized frame.
    Codec(CodecError),
    /// The peer did not produce a full frame within the deadline.
    Timeout,
    /// The peer closed the connection at a frame boundary.
    Closed,
    /// A well-formed frame that violates the conversation (wrong
    /// message kind, duplicate handshake, round mismatch, ...).
    Protocol(String),
    /// A configuration the socket runtime refuses before any socket
    /// work (the rule it breaks).
    Config(String),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "socket error: {e}"),
            NetError::Codec(e) => write!(f, "frame error: {e}"),
            NetError::Timeout => write!(f, "timed out waiting for a frame"),
            NetError::Closed => write!(f, "peer closed the connection"),
            NetError::Protocol(what) => write!(f, "protocol violation: {what}"),
            NetError::Config(rule) => write!(f, "invalid configuration: {rule}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            NetError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for NetError {
    /// Read/write timeouts surface as [`NetError::Timeout`] (the OS
    /// reports them as `WouldBlock` or `TimedOut` depending on the
    /// platform); everything else stays an I/O error.
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => NetError::Timeout,
            _ => NetError::Io(e),
        }
    }
}

impl From<CodecError> for NetError {
    fn from(e: CodecError) -> Self {
        NetError::Codec(e)
    }
}
