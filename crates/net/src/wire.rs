//! The FMSG wire format: framed protocol messages.
//!
//! Every message is one self-contained frame:
//!
//! ```text
//! ┌──────┬─────┬───────────────────────┬────────┐
//! │ FMSG │ tag │ tag-specific fields   │ CRC-32 │
//! │ 4 B  │ 1 B │ varints / u32 / bytes │ 4 B    │
//! └──────┴─────┴───────────────────────┴────────┘
//! ```
//!
//! The CRC trailer covers magic, tag and fields, so one bit flip
//! anywhere in the frame is rejected. Variable-length payloads are
//! length-prefixed (LEB128 varints), which is what lets [`frame_len`]
//! compute a frame's total size from its header alone — the property
//! the stream reader ([`FrameReader`](crate::FrameReader)) relies on
//! to find frame boundaries in a TCP byte stream without a separate
//! length envelope.
//!
//! The per-tag field table lives in `layout`; `encode`, `decode` and
//! [`frame_len`] all follow it. This module is the single home of the
//! framing rules tabulated in `ARCHITECTURE.md` — every process of the
//! multi-process socket runtime links here.

use fedsz_codec::checksum::crc32;
use fedsz_codec::varint::{
    read_f64, read_u32, read_uvarint, uvarint_len, write_f64, write_u32, write_uvarint,
};
use fedsz_codec::{CodecError, Result};

/// Frame magic.
pub(crate) const MAGIC: &[u8; 4] = b"FMSG";

/// Upper bound on a single frame accepted from a stream. A corrupt or
/// hostile length header must fail with a [`CodecError`], not drive a
/// multi-gigabyte allocation.
pub const MAX_FRAME_BYTES: usize = 1 << 30;

/// A protocol message.
///
/// The engine-backed loopback session only exchanges
/// [`Message::GlobalModel`]-family and [`Message::Update`] frames; the
/// multi-process runtime (`fedsz serve` / `fedsz worker`) additionally
/// uses [`Message::Join`] as its handshake, [`Message::Shutdown`] as
/// its teardown, and relays [`Message::PartialSum`] /
/// [`Message::PartialSumCompressed`] between aggregator tiers.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// A client (or an edge aggregator joining its parent) announces
    /// itself — the first frame on every connection.
    Join {
        /// Client identifier (for a relay: its shard index).
        client_id: u64,
        /// The round the sender expects to start at (0 for a fresh
        /// session; lets a reconnecting worker state where it left off
        /// so the server can resume it mid-barrier).
        round: u32,
        /// Whether the sender is a relay (shard aggregator) rather
        /// than a leaf worker. A re-parenting root needs the
        /// distinction: after a relay dies, its orphaned workers join
        /// the root directly, and their client ids overlap the relay
        /// shard-id space.
        relay: bool,
    },
    /// Server ships the global model for a round (state-dict bytes).
    GlobalModel {
        /// Round index.
        round: u32,
        /// Serialized `StateDict`.
        dict_bytes: Vec<u8>,
    },
    /// Client returns its (possibly FedSZ-compressed) update.
    Update {
        /// Round index.
        round: u32,
        /// Client identifier.
        client_id: u64,
        /// FedSZ bitstream or raw state-dict bytes.
        payload: Vec<u8>,
        /// Whether `payload` is a FedSZ stream.
        compressed: bool,
    },
    /// Server ends the session.
    Shutdown,
    /// Server ships a FedSZ-encoded global model for a round (the
    /// download-path twin of [`Message::GlobalModel`]; encoded once,
    /// fanned out to the whole cohort).
    EncodedGlobal {
        /// Round index.
        round: u32,
        /// FedSZ bitstream of the global model.
        payload: Vec<u8>,
    },
    /// An edge aggregator forwards its shard's weighted partial sum to
    /// its parent.
    PartialSum {
        /// Round index.
        round: u32,
        /// The forwarding node's index within its tree level.
        shard: u32,
        /// Contributions merged into this partial.
        clients: u32,
        /// Total aggregation weight of the partial.
        weight: f64,
        /// `Σ w_i · x_i` per element (an `encode_payload` or
        /// `encode_exact` image, per the runtime in use).
        payload: Vec<u8>,
    },
    /// [`Message::PartialSum`]'s losslessly-compressed twin: the same
    /// metadata, but the payload is a `PsumCodec` frame (one entropy
    /// code per byte plane of the image's elements, CRC-32 of the
    /// image) that decompresses bit-exactly to the uncompressed
    /// partial-sum image. The frame declares the image's length; a
    /// receiver bounds it by its own template before allocating.
    PartialSumCompressed {
        /// Round index.
        round: u32,
        /// The forwarding node's index within its tree level.
        shard: u32,
        /// Contributions merged into this partial.
        clients: u32,
        /// Total aggregation weight of the partial.
        weight: f64,
        /// `PsumCodec`-compressed partial-sum image.
        payload: Vec<u8>,
    },
}

/// One field of a message body, as the framing table declares it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Field {
    /// A LEB128 varint (ids, counts).
    UVarint,
    /// A little-endian `u32` (round indices).
    U32,
    /// A single flag byte.
    U8,
    /// A little-endian `f64` (aggregation weights).
    F64,
    /// A varint length prefix followed by that many payload bytes.
    Payload,
}

/// The framing table: which fields follow each tag byte. `encode`,
/// `decode` and [`frame_len`] all conform to this single table.
const fn layout(tag: u8) -> Option<&'static [Field]> {
    match tag {
        1 => Some(&[Field::UVarint, Field::U32, Field::U8]),
        2 | 5 => Some(&[Field::U32, Field::Payload]),
        3 => Some(&[Field::U32, Field::UVarint, Field::U8, Field::Payload]),
        4 => Some(&[]),
        6 | 7 => Some(&[Field::U32, Field::UVarint, Field::UVarint, Field::F64, Field::Payload]),
        _ => None,
    }
}

/// Computes the total byte length of the frame starting at `buf[0]`
/// from its header alone, without needing the payload or trailer bytes
/// to be present yet.
///
/// Returns `Ok(None)` when `buf` is a valid-so-far prefix that is too
/// short to determine the length (the stream reader's "read more"
/// signal).
///
/// # Errors
///
/// Returns a [`CodecError`] for bad magic, an unknown tag, a malformed
/// varint, or a frame whose claimed size exceeds [`MAX_FRAME_BYTES`] —
/// all unrecoverable stream corruption.
pub fn frame_len(buf: &[u8]) -> Result<Option<usize>> {
    // Reject bad magic on however many bytes we have: a corrupt stream
    // fails on its first byte instead of stalling in "need more data".
    let probe = buf.len().min(MAGIC.len());
    if buf[..probe] != MAGIC[..probe] {
        return Err(CodecError::Corrupt("bad message magic"));
    }
    if buf.len() < MAGIC.len() + 1 {
        return Ok(None);
    }
    let tag = buf[MAGIC.len()];
    let Some(fields) = layout(tag) else {
        return Err(CodecError::Corrupt("unknown message tag"));
    };
    let mut pos = MAGIC.len() + 1;
    for field in fields {
        let stepped = match field {
            Field::UVarint => read_uvarint(buf, &mut pos).map(|_| ()),
            Field::U32 => read_u32(buf, &mut pos).map(|_| ()),
            Field::F64 => read_f64(buf, &mut pos).map(|_| ()),
            Field::U8 => {
                if pos < buf.len() {
                    pos += 1;
                    Ok(())
                } else {
                    Err(CodecError::UnexpectedEof)
                }
            }
            Field::Payload => read_uvarint(buf, &mut pos).map(|len| {
                // The payload itself need not be buffered yet; its
                // length is all the frame size needs. Saturate so a
                // hostile length falls into the cap check below.
                pos = pos.saturating_add(usize::try_from(len).unwrap_or(usize::MAX));
            }),
        };
        match stepped {
            Ok(()) => {}
            // The header itself is still arriving.
            Err(CodecError::UnexpectedEof) => return Ok(None),
            Err(e) => return Err(e),
        }
    }
    let total = pos.saturating_add(4); // CRC-32 trailer
    if total > MAX_FRAME_BYTES {
        return Err(CodecError::Corrupt("frame exceeds the size cap"));
    }
    Ok(Some(total))
}

impl Message {
    /// A round's global-model broadcast: [`Message::EncodedGlobal`] for
    /// a FedSZ stream, else [`Message::GlobalModel`].
    pub fn broadcast(round: u32, bytes: Vec<u8>, compressed: bool) -> Message {
        if compressed {
            Message::EncodedGlobal { round, payload: bytes }
        } else {
            Message::GlobalModel { round, dict_bytes: bytes }
        }
    }

    /// [`Message::broadcast`]'s inverse: `(round, bytes, compressed)`,
    /// or `Err(self)` for a message that is no broadcast.
    pub fn into_broadcast(self) -> std::result::Result<(u32, Vec<u8>, bool), Message> {
        match self {
            Message::GlobalModel { round, dict_bytes } => Ok((round, dict_bytes, false)),
            Message::EncodedGlobal { round, payload } => Ok((round, payload, true)),
            other => Err(other),
        }
    }

    fn tag(&self) -> u8 {
        match self {
            Message::Join { .. } => 1,
            Message::GlobalModel { .. } => 2,
            Message::Update { .. } => 3,
            Message::Shutdown => 4,
            Message::EncodedGlobal { .. } => 5,
            Message::PartialSum { .. } => 6,
            Message::PartialSumCompressed { .. } => 7,
        }
    }

    /// Serializes the message into a framed byte vector.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.push(self.tag());
        match self {
            Message::Join { client_id, round, relay } => {
                write_uvarint(&mut out, *client_id);
                write_u32(&mut out, *round);
                out.push(u8::from(*relay));
            }
            Message::GlobalModel { round, dict_bytes } => {
                write_u32(&mut out, *round);
                write_uvarint(&mut out, dict_bytes.len() as u64);
                out.extend_from_slice(dict_bytes);
            }
            Message::Update { round, client_id, payload, compressed } => {
                write_u32(&mut out, *round);
                write_uvarint(&mut out, *client_id);
                out.push(u8::from(*compressed));
                write_uvarint(&mut out, payload.len() as u64);
                out.extend_from_slice(payload);
            }
            Message::Shutdown => {}
            Message::EncodedGlobal { round, payload } => {
                write_u32(&mut out, *round);
                write_uvarint(&mut out, payload.len() as u64);
                out.extend_from_slice(payload);
            }
            Message::PartialSum { round, shard, clients, weight, payload }
            | Message::PartialSumCompressed { round, shard, clients, weight, payload } => {
                write_u32(&mut out, *round);
                write_uvarint(&mut out, u64::from(*shard));
                write_uvarint(&mut out, u64::from(*clients));
                write_f64(&mut out, *weight);
                write_uvarint(&mut out, payload.len() as u64);
                out.extend_from_slice(payload);
            }
        }
        let crc = crc32(&out);
        write_u32(&mut out, crc);
        out
    }

    /// The exact byte length [`Message::encode`] would produce, without
    /// materializing the frame — the accounting paths (partial-sum
    /// pricing, bench harnesses) charge for frames they never build.
    /// Conformance with `encode` is unit-tested per variant.
    pub fn encoded_len(&self) -> usize {
        let body = match self {
            Message::Join { client_id, round: _, relay: _ } => uvarint_len(*client_id) + 4 + 1,
            Message::GlobalModel { round: _, dict_bytes } => {
                4 + uvarint_len(dict_bytes.len() as u64) + dict_bytes.len()
            }
            Message::Update { round: _, client_id, payload, compressed: _ } => {
                4 + uvarint_len(*client_id) + 1 + uvarint_len(payload.len() as u64) + payload.len()
            }
            Message::Shutdown => 0,
            Message::EncodedGlobal { round: _, payload } => {
                4 + uvarint_len(payload.len() as u64) + payload.len()
            }
            Message::PartialSum { shard, clients, payload, .. }
            | Message::PartialSumCompressed { shard, clients, payload, .. } => {
                4 + uvarint_len(u64::from(*shard))
                    + uvarint_len(u64::from(*clients))
                    + 8
                    + uvarint_len(payload.len() as u64)
                    + payload.len()
            }
        };
        MAGIC.len() + 1 + body + 4
    }

    /// Parses a complete framed message.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] for truncation, bad magic, unknown tags
    /// or checksum mismatches.
    pub fn decode(bytes: &[u8]) -> Result<Message> {
        if bytes.len() < 9 {
            return Err(CodecError::UnexpectedEof);
        }
        let (body, trailer) = bytes.split_at(bytes.len() - 4);
        let mut tpos = 0usize;
        let stored = read_u32(trailer, &mut tpos)?;
        let computed = crc32(body);
        if stored != computed {
            return Err(CodecError::ChecksumMismatch { stored, computed });
        }
        if &body[..4] != MAGIC {
            return Err(CodecError::Corrupt("bad message magic"));
        }
        let tag = body[4];
        let mut pos = 5usize;
        let msg = match tag {
            1 => {
                let client_id = read_uvarint(body, &mut pos)?;
                let round = read_u32(body, &mut pos)?;
                let relay = *body.get(pos).ok_or(CodecError::UnexpectedEof)? == 1;
                pos += 1;
                Message::Join { client_id, round, relay }
            }
            2 => {
                let round = read_u32(body, &mut pos)?;
                let len = read_uvarint(body, &mut pos)? as usize;
                let dict_bytes =
                    body.get(pos..pos + len).ok_or(CodecError::UnexpectedEof)?.to_vec();
                pos += len;
                Message::GlobalModel { round, dict_bytes }
            }
            3 => {
                let round = read_u32(body, &mut pos)?;
                let client_id = read_uvarint(body, &mut pos)?;
                let compressed = *body.get(pos).ok_or(CodecError::UnexpectedEof)? == 1;
                pos += 1;
                let len = read_uvarint(body, &mut pos)? as usize;
                let payload = body.get(pos..pos + len).ok_or(CodecError::UnexpectedEof)?.to_vec();
                pos += len;
                Message::Update { round, client_id, payload, compressed }
            }
            4 => Message::Shutdown,
            5 => {
                let round = read_u32(body, &mut pos)?;
                let len = read_uvarint(body, &mut pos)? as usize;
                let payload = body.get(pos..pos + len).ok_or(CodecError::UnexpectedEof)?.to_vec();
                pos += len;
                Message::EncodedGlobal { round, payload }
            }
            6 | 7 => {
                let round = read_u32(body, &mut pos)?;
                let shard = u32::try_from(read_uvarint(body, &mut pos)?)
                    .map_err(|_| CodecError::Corrupt("shard index overflow"))?;
                let clients = u32::try_from(read_uvarint(body, &mut pos)?)
                    .map_err(|_| CodecError::Corrupt("client count overflow"))?;
                let weight = read_f64(body, &mut pos)?;
                let len = read_uvarint(body, &mut pos)? as usize;
                let payload = body.get(pos..pos + len).ok_or(CodecError::UnexpectedEof)?.to_vec();
                pos += len;
                if tag == 6 {
                    Message::PartialSum { round, shard, clients, weight, payload }
                } else {
                    Message::PartialSumCompressed { round, shard, clients, weight, payload }
                }
            }
            _ => return Err(CodecError::Corrupt("unknown message tag")),
        };
        if pos != body.len() {
            return Err(CodecError::Corrupt("trailing bytes in message"));
        }
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_messages() -> Vec<Message> {
        vec![
            Message::Join { client_id: 7, round: 2, relay: false },
            Message::Join { client_id: 3, round: 11, relay: true },
            Message::GlobalModel { round: 3, dict_bytes: vec![1, 2, 3, 4] },
            Message::Update { round: 3, client_id: 7, payload: vec![9; 100], compressed: true },
            Message::Shutdown,
            Message::EncodedGlobal { round: 4, payload: vec![8; 33] },
            Message::PartialSum {
                round: 4,
                shard: 2,
                clients: 61,
                weight: 61.5,
                payload: vec![1, 2, 3],
            },
            Message::PartialSumCompressed {
                round: 9,
                shard: 5,
                clients: 200,
                weight: 199.25,
                payload: vec![0xF5, 9, 8, 7],
            },
        ]
    }

    #[test]
    fn messages_round_trip() {
        for msg in sample_messages() {
            let frame = msg.encode();
            assert_eq!(Message::decode(&frame).unwrap(), msg);
        }
    }

    #[test]
    fn broadcast_pair_round_trips_and_refuses_other_messages() {
        for compressed in [false, true] {
            let message = Message::broadcast(5, vec![1, 2, 3], compressed);
            assert_eq!(matches!(message, Message::EncodedGlobal { .. }), compressed);
            assert_eq!(message.into_broadcast(), Ok((5, vec![1, 2, 3], compressed)));
        }
        for other in sample_messages() {
            let broadcast =
                matches!(other, Message::GlobalModel { .. } | Message::EncodedGlobal { .. });
            assert_eq!(other.clone().into_broadcast().is_ok(), broadcast, "{other:?}");
            if !broadcast {
                assert_eq!(other.clone().into_broadcast(), Err(other));
            }
        }
    }

    #[test]
    fn encoded_len_matches_encode_for_every_variant() {
        for msg in sample_messages() {
            assert_eq!(msg.encoded_len(), msg.encode().len(), "{msg:?}");
        }
        // Sizes that push the varints past one byte.
        let wide = Message::PartialSum {
            round: u32::MAX,
            shard: 70_000,
            clients: 1_000_000,
            weight: -0.0,
            payload: vec![3; 300],
        };
        assert_eq!(wide.encoded_len(), wide.encode().len());
    }

    #[test]
    fn corrupt_frames_rejected() {
        let frame =
            Message::Update { round: 1, client_id: 2, payload: vec![5; 64], compressed: false }
                .encode();
        // Bit flip anywhere must be caught by the CRC.
        for idx in [0usize, 5, 20, frame.len() - 1] {
            let mut bad = frame.clone();
            bad[idx] ^= 0x10;
            assert!(Message::decode(&bad).is_err(), "flip at {idx} accepted");
        }
        assert!(Message::decode(&frame[..6]).is_err());
        assert!(Message::decode(&[]).is_err());
    }

    #[test]
    fn unknown_tag_rejected() {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.push(99);
        let crc = crc32(&out);
        write_u32(&mut out, crc);
        assert!(matches!(Message::decode(&out), Err(CodecError::Corrupt(_))));
        assert!(matches!(frame_len(&out), Err(CodecError::Corrupt(_))));
    }

    #[test]
    fn frame_len_matches_encoded_length_for_every_message() {
        for msg in sample_messages() {
            let frame = msg.encode();
            assert_eq!(
                frame_len(&frame).unwrap(),
                Some(frame.len()),
                "length mismatch for {msg:?}"
            );
            // The length must already be known once the header (but not
            // necessarily the payload) is buffered; and a concatenated
            // stream must report the FIRST frame's boundary.
            let mut doubled = frame.clone();
            doubled.extend_from_slice(&frame);
            assert_eq!(frame_len(&doubled).unwrap(), Some(frame.len()));
        }
    }

    #[test]
    fn frame_len_asks_for_more_on_short_prefixes() {
        let frame = Message::Update {
            round: 7,
            client_id: 300, // multi-byte varint
            payload: vec![1; 50],
            compressed: true,
        }
        .encode();
        // Every strict header prefix either resolves to the full length
        // (header complete, payload pending) or asks for more — never
        // errors, never reports a wrong length.
        for cut in 0..frame.len() {
            match frame_len(&frame[..cut]).unwrap() {
                Some(total) => assert_eq!(total, frame.len(), "cut {cut}"),
                None => assert!(cut < frame.len(), "cut {cut} undecided"),
            }
        }
    }

    #[test]
    fn frame_len_rejects_bad_magic_immediately() {
        assert!(frame_len(b"X").is_err(), "first wrong byte must fail fast");
        assert!(frame_len(b"FMSX").is_err());
        assert_eq!(frame_len(b"FM").unwrap(), None, "valid prefix still undecided");
        assert_eq!(frame_len(b"").unwrap(), None);
    }

    #[test]
    fn frame_len_caps_hostile_sizes() {
        // A header claiming a multi-gigabyte payload must error, not
        // instruct the reader to buffer it.
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.push(5); // EncodedGlobal
        write_u32(&mut out, 0);
        write_uvarint(&mut out, u64::MAX >> 8);
        assert!(matches!(frame_len(&out), Err(CodecError::Corrupt(_))));
    }
}
