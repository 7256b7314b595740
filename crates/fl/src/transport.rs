//! Byte-movement abstraction between clients and the server.
//!
//! The round engine is transport-agnostic: it hands payloads to a
//! [`Transport`] and gets back the bytes "the other side" observes, plus
//! the wire cost of moving them. Two implementations:
//!
//! * [`InMemoryTransport`] — the analytic path: payloads pass through
//!   untouched and the wire cost is the payload size. This is what
//!   `Experiment` models.
//! * [`WireTransport`] — the protocol path: every payload is framed as a
//!   [`Message`] (magic + tag + CRC-32 trailer), pushed through a
//!   loopback byte pipe, decoded and checksum-verified on the far side.
//!   The wire cost is the full frame, so framing overhead is part of
//!   the accounting.
//!
//! Both transports are lossless byte movers, which is what makes the
//! wire-vs-analytic parity test meaningful: the same engine over either
//! transport must produce bit-identical global models. Real sockets are
//! the [`crate::net`] runtime's job, not a third transport: `fedsz
//! serve`/`worker` run the same client and fold steps across processes.

use fedsz_codec::{CodecError, Result};
use fedsz_net::{FrameReader, FrameWriter, Message, NetError};

/// Bytes delivered to the far side of a transport.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivered {
    /// The payload as the receiver observes it. Left empty when
    /// `verbatim` is set on a broadcast: the receiver observes the
    /// sender's bytes unchanged, so no copy is materialized.
    pub payload: Vec<u8>,
    /// Whether the payload is a FedSZ stream (a compressed upload, or a
    /// downlink-encoded broadcast).
    pub compressed: bool,
    /// Bytes that crossed the wire, including any framing.
    pub wire_bytes: usize,
    /// Whether the transport guarantees `payload` is byte-identical to
    /// what the sender handed in. Lossless transports set this so the
    /// engine can share one parsed global dict across the cohort instead
    /// of re-parsing per client; a transport that may alter bytes must
    /// report `false`.
    pub verbatim: bool,
}

/// Moves bytes between the server and a client, reporting wire cost.
pub trait Transport {
    /// Short human-readable transport name (for reports).
    fn name(&self) -> &'static str;

    /// Ships the (possibly downlink-encoded) global model to one
    /// client; `compressed` states whether `dict_bytes` is a FedSZ
    /// stream rather than raw state-dict bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] when the transport corrupts or rejects
    /// the frame (cannot happen on the in-memory path).
    fn broadcast(
        &mut self,
        round: u32,
        client_id: u64,
        dict_bytes: &[u8],
        compressed: bool,
    ) -> Result<Delivered>;

    /// Ships one client's (possibly compressed) update to the server.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on frame corruption or protocol
    /// violations.
    fn upload(
        &mut self,
        round: u32,
        client_id: u64,
        payload: Vec<u8>,
        compressed: bool,
    ) -> Result<Delivered>;
}

/// The analytic transport: payloads are handed over untouched and wire
/// cost equals payload size. Zero overhead, zero copies beyond the
/// payload itself.
#[derive(Debug, Default, Clone)]
pub struct InMemoryTransport;

impl Transport for InMemoryTransport {
    fn name(&self) -> &'static str {
        "in-memory"
    }

    fn broadcast(
        &mut self,
        _round: u32,
        _client_id: u64,
        dict_bytes: &[u8],
        compressed: bool,
    ) -> Result<Delivered> {
        // Verbatim delivery: the receiver reads the sender's bytes, so
        // copying them here would be O(model) dead allocation per client.
        Ok(Delivered {
            payload: Vec::new(),
            compressed,
            wire_bytes: dict_bytes.len(),
            verbatim: true,
        })
    }

    fn upload(
        &mut self,
        _round: u32,
        _client_id: u64,
        payload: Vec<u8>,
        compressed: bool,
    ) -> Result<Delivered> {
        let wire_bytes = payload.len();
        Ok(Delivered { payload, compressed, wire_bytes, verbatim: true })
    }
}

/// The framed-wire transport: every payload round-trips through the
/// `FMSG` message format — pushed through the shared
/// [`FrameWriter`] into an in-memory pipe, then read back by the
/// shared [`FrameReader`] exactly as a socket peer would. One framing
/// implementation serves this loopback pipe and the real TCP runtime
/// ([`crate::net`]); only the byte carrier differs.
#[derive(Debug, Default, Clone, Copy)]
pub struct WireTransport;

impl WireTransport {
    /// Creates the loopback wire.
    pub fn new() -> Self {
        Self
    }

    fn send_and_receive(&mut self, message: Message) -> Result<(Message, usize)> {
        let mut pipe = Vec::new();
        let wire_bytes = FrameWriter::new(&mut pipe)
            .write_message(&message)
            .expect("writes to a Vec cannot fail");
        let decoded = match FrameReader::new(pipe.as_slice()).read_message() {
            Ok(Some(decoded)) => decoded,
            Ok(None) => return Err(CodecError::UnexpectedEof),
            Err(NetError::Codec(e)) => return Err(e),
            // An in-memory pipe has no socket to fail or time out.
            Err(_) => unreachable!("Vec-backed pipe cannot fail at the I/O layer"),
        };
        Ok((decoded, wire_bytes))
    }
}

impl Transport for WireTransport {
    fn name(&self) -> &'static str {
        "framed-wire"
    }

    fn broadcast(
        &mut self,
        round: u32,
        _client_id: u64,
        dict_bytes: &[u8],
        compressed: bool,
    ) -> Result<Delivered> {
        let message = if compressed {
            Message::EncodedGlobal { round, payload: dict_bytes.to_vec() }
        } else {
            Message::GlobalModel { round, dict_bytes: dict_bytes.to_vec() }
        };
        // Decode of a CRC-verified frame reproduces the sender's bytes
        // exactly, so either frame kind delivers verbatim.
        match self.send_and_receive(message)? {
            (Message::GlobalModel { dict_bytes, .. }, wire_bytes) => {
                Ok(Delivered { payload: dict_bytes, compressed: false, wire_bytes, verbatim: true })
            }
            (Message::EncodedGlobal { payload, .. }, wire_bytes) => {
                Ok(Delivered { payload, compressed: true, wire_bytes, verbatim: true })
            }
            _ => Err(CodecError::Corrupt("broadcast decoded to a different message")),
        }
    }

    fn upload(
        &mut self,
        round: u32,
        client_id: u64,
        payload: Vec<u8>,
        compressed: bool,
    ) -> Result<Delivered> {
        let message = Message::Update { round, client_id, payload, compressed };
        match self.send_and_receive(message)? {
            (Message::Update { round: r, payload, compressed, .. }, wire_bytes) => {
                if r != round {
                    return Err(CodecError::Corrupt("round mismatch on the wire"));
                }
                Ok(Delivered { payload, compressed, wire_bytes, verbatim: true })
            }
            _ => Err(CodecError::Corrupt("upload decoded to a different message")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_memory_is_identity_with_payload_cost() {
        let mut transport = InMemoryTransport;
        let delivered = transport.upload(3, 1, vec![9u8; 100], true).unwrap();
        assert_eq!(delivered.payload, vec![9u8; 100]);
        assert!(delivered.compressed);
        assert_eq!(delivered.wire_bytes, 100);
        assert!(delivered.verbatim);
        let b = transport.broadcast(3, 1, &[1, 2, 3], false).unwrap();
        assert!(b.verbatim, "in-memory broadcast is verbatim");
        assert!(b.payload.is_empty(), "verbatim broadcast skips the copy");
        assert_eq!(b.wire_bytes, 3);
        let enc = transport.broadcast(3, 1, &[1, 2, 3], true).unwrap();
        assert!(enc.compressed, "the encoded flag must survive delivery");
    }

    #[test]
    fn wire_round_trips_and_counts_framing() {
        let mut transport = WireTransport::new();
        let payload = vec![7u8; 256];
        let delivered = transport.upload(2, 5, payload.clone(), false).unwrap();
        assert_eq!(delivered.payload, payload);
        assert!(!delivered.compressed);
        assert!(
            delivered.wire_bytes > payload.len(),
            "framing overhead must be accounted: {} <= {}",
            delivered.wire_bytes,
            payload.len()
        );
    }

    #[test]
    fn wire_broadcast_round_trips() {
        let mut transport = WireTransport::new();
        let dict_bytes = vec![42u8; 64];
        let delivered = transport.broadcast(0, 0, &dict_bytes, false).unwrap();
        assert_eq!(delivered.payload, dict_bytes);
        assert!(!delivered.compressed);
        assert!(delivered.wire_bytes > dict_bytes.len());
        let encoded = transport.broadcast(0, 0, &dict_bytes, true).unwrap();
        assert_eq!(encoded.payload, dict_bytes);
        assert!(encoded.compressed, "encoded broadcasts ride the EncodedGlobal frame");
        assert!(encoded.wire_bytes > dict_bytes.len());
    }

    #[test]
    fn transports_deliver_identical_payloads() {
        // The byte-level property the engine parity test builds on.
        let payload = (0u8..=255).collect::<Vec<_>>();
        let a = InMemoryTransport.upload(1, 2, payload.clone(), true).unwrap();
        let b = WireTransport::new().upload(1, 2, payload.clone(), true).unwrap();
        assert_eq!(a.payload, b.payload);
        assert_eq!(a.compressed, b.compressed);
    }
}
