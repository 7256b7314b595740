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
//! The per-tag field table lives in `layout`: `encode` and `encoded_len`
//! write and size a message's field values in its order, one checked
//! reader walks it for `decode` and [`frame_len`], and a variant's own
//! code only maps it to and from those values. This module is the
//! single home of the framing rules tabulated in `ARCHITECTURE.md` —
//! every process of the multi-process socket runtime links here.

use fedsz_codec::checksum::crc32;
use fedsz_codec::varint::{
    read_f64, read_u32, read_uvarint, uvarint_len, write_bytes, write_f64, write_u32, write_uvarint,
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
/// The multi-process runtime (`fedsz serve` / `fedsz worker`) opens
/// every connection with [`Message::Join`], broadcasts each round's
/// model as [`Message::GlobalModel`] or [`Message::EncodedGlobal`],
/// collects [`Message::Update`]s, relays [`Message::PartialSum`]s
/// between aggregator tiers and ends the session with
/// [`Message::Shutdown`].
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
    /// its parent: tag 6 raw, tag 7 compressed.
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
        /// `encode_exact` image, per the runtime in use), or that
        /// image's `PsumCodec` frame when `compressed`.
        payload: Vec<u8>,
        /// Whether `payload` is a `PsumCodec` frame (one entropy code
        /// per byte plane of the image's elements, CRC-32 of the image)
        /// that decompresses bit-exactly to the raw image. The frame
        /// declares the image's length; a receiver bounds it by its own
        /// template before allocating.
        compressed: bool,
    },
}

/// One field of a message body, as the framing table declares it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Field {
    /// A LEB128 varint (ids, counts).
    UVarint,
    /// A little-endian `u32` (round indices).
    U32,
    /// A flag byte: 0 or 1.
    Flag,
    /// A little-endian `f64` (aggregation weights).
    F64,
    /// A varint length prefix followed by that many payload bytes.
    Payload,
}

/// The framing table: which fields follow each tag byte.
const fn layout(tag: u8) -> Option<&'static [Field]> {
    match tag {
        1 => Some(&[Field::UVarint, Field::U32, Field::Flag]),
        2 | 5 => Some(&[Field::U32, Field::Payload]),
        3 => Some(&[Field::U32, Field::UVarint, Field::Flag, Field::Payload]),
        4 => Some(&[]),
        6 | 7 => Some(&[Field::U32, Field::UVarint, Field::UVarint, Field::F64, Field::Payload]),
        _ => None,
    }
}

/// The most fields a layout lists (a unit test holds every tag to it).
const MAX_FIELDS: usize = 5;

/// One field's value: what `encode` writes and the field reader reads.
#[derive(Debug, Clone, Copy)]
enum Value<'a> {
    UVarint(u64),
    U32(u32),
    Flag(bool),
    F64(f64),
    Payload(&'a [u8]),
}

impl Value<'_> {
    /// The bytes [`Value::write`] appends.
    fn encoded_len(self) -> usize {
        match self {
            Value::UVarint(v) => uvarint_len(v),
            Value::U32(_) => 4,
            Value::Flag(_) => 1,
            Value::F64(_) => 8,
            Value::Payload(bytes) => uvarint_len(bytes.len() as u64) + bytes.len(),
        }
    }

    fn write(self, out: &mut Vec<u8>) {
        match self {
            Value::UVarint(v) => write_uvarint(out, v),
            Value::U32(v) => write_u32(out, v),
            Value::Flag(v) => out.push(u8::from(v)),
            Value::F64(v) => write_f64(out, v),
            Value::Payload(bytes) => write_bytes(out, bytes),
        }
    }

    /// Reads a `field` at `*pos` and steps past it. A payload steps by
    /// its declared length whether or not `buf` holds its bytes
    /// (saturating, so a hostile length cannot wrap) and is the part
    /// of them `buf` holds.
    fn read<'a>(buf: &'a [u8], pos: &mut usize, field: Field) -> Result<Value<'a>> {
        Ok(match field {
            Field::UVarint => Value::UVarint(read_uvarint(buf, pos)?),
            Field::U32 => Value::U32(read_u32(buf, pos)?),
            Field::F64 => Value::F64(read_f64(buf, pos)?),
            Field::Flag => {
                let byte = *buf.get(*pos).ok_or(CodecError::UnexpectedEof)?;
                *pos += 1;
                match byte {
                    0 | 1 => Value::Flag(byte == 1),
                    _ => return Err(CodecError::Corrupt("flag byte is neither 0 nor 1")),
                }
            }
            Field::Payload => {
                let len = usize::try_from(read_uvarint(buf, pos)?).unwrap_or(usize::MAX);
                let start = *pos;
                *pos = start.saturating_add(len);
                Value::Payload(&buf[start..buf.len().min(*pos)])
            }
        })
    }
}

/// A frame body as [`read_body`] found it.
struct Body<'a> {
    tag: u8,
    /// The first `count` hold the tag's field values, in `layout` order.
    values: [Value<'a>; MAX_FIELDS],
    count: usize,
    /// Where the body ends: past the end of the buffer while the
    /// trailing payload is still arriving.
    end: usize,
}

/// The one checked field reader, shared by [`Message::decode`] and
/// [`frame_len`]: reads the tag that follows the magic in `buf`, then
/// walks its `layout`.
fn read_body(buf: &[u8]) -> Result<Body<'_>> {
    let tag = *buf.get(MAGIC.len()).ok_or(CodecError::UnexpectedEof)?;
    let fields = layout(tag).ok_or(CodecError::Corrupt("unknown message tag"))?;
    let mut body = Body {
        tag,
        values: [Value::Flag(false); MAX_FIELDS],
        count: fields.len(),
        end: MAGIC.len() + 1,
    };
    for (slot, &field) in body.values.iter_mut().zip(fields) {
        *slot = Value::read(buf, &mut body.end, field)?;
    }
    Ok(body)
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
/// varint or flag byte, or a frame whose claimed size exceeds
/// [`MAX_FRAME_BYTES`] — all unrecoverable stream corruption.
pub fn frame_len(buf: &[u8]) -> Result<Option<usize>> {
    // Reject bad magic on however many bytes we have: a corrupt stream
    // fails on its first byte instead of stalling in "need more data".
    let probe = buf.len().min(MAGIC.len());
    if buf[..probe] != MAGIC[..probe] {
        return Err(CodecError::Corrupt("bad message magic"));
    }
    let end = match read_body(buf) {
        Ok(body) => body.end,
        // The header itself is still arriving.
        Err(CodecError::UnexpectedEof) => return Ok(None),
        Err(e) => return Err(e),
    };
    let total = end.saturating_add(4); // CRC-32 trailer
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

    /// Hands `f` the message's tag and field values, in `layout` order.
    fn with_values<R>(&self, f: impl FnOnce(u8, &[Value<'_>]) -> R) -> R {
        use Value::{Flag, Payload, UVarint, F64, U32};
        match self {
            Message::Join { client_id, round, relay } => {
                f(1, &[UVarint(*client_id), U32(*round), Flag(*relay)])
            }
            Message::GlobalModel { round, dict_bytes } => f(2, &[U32(*round), Payload(dict_bytes)]),
            Message::Update { round, client_id, payload, compressed } => {
                f(3, &[U32(*round), UVarint(*client_id), Flag(*compressed), Payload(payload)])
            }
            Message::Shutdown => f(4, &[]),
            Message::EncodedGlobal { round, payload } => f(5, &[U32(*round), Payload(payload)]),
            Message::PartialSum { round, shard, clients, weight, payload, compressed } => f(
                6 + u8::from(*compressed),
                &[
                    U32(*round),
                    UVarint(u64::from(*shard)),
                    UVarint(u64::from(*clients)),
                    F64(*weight),
                    Payload(payload),
                ],
            ),
        }
    }

    /// [`Message::with_values`]' inverse, for values read by `layout`.
    fn from_values(tag: u8, values: &[Value<'_>]) -> Result<Message> {
        use Value::{Flag, Payload, UVarint, F64, U32};
        let narrow = |v, what| u32::try_from(v).map_err(|_| CodecError::Corrupt(what));
        Ok(match (tag, values) {
            (1, &[UVarint(client_id), U32(round), Flag(relay)]) => {
                Message::Join { client_id, round, relay }
            }
            (2, &[U32(round), Payload(dict)]) => {
                Message::GlobalModel { round, dict_bytes: dict.to_vec() }
            }
            (3, &[U32(round), UVarint(client_id), Flag(compressed), Payload(payload)]) => {
                Message::Update { round, client_id, payload: payload.to_vec(), compressed }
            }
            (4, []) => Message::Shutdown,
            (5, &[U32(round), Payload(payload)]) => {
                Message::EncodedGlobal { round, payload: payload.to_vec() }
            }
            (
                6 | 7,
                &[U32(round), UVarint(shard), UVarint(clients), F64(weight), Payload(payload)],
            ) => Message::PartialSum {
                round,
                shard: narrow(shard, "shard index overflow")?,
                clients: narrow(clients, "client count overflow")?,
                weight,
                payload: payload.to_vec(),
                compressed: tag == 7,
            },
            _ => return Err(CodecError::Corrupt("unknown message tag")),
        })
    }

    /// Serializes the message into a framed byte vector.
    pub fn encode(&self) -> Vec<u8> {
        self.with_values(|tag, values| {
            let mut out = Vec::with_capacity(self.encoded_len());
            out.extend_from_slice(MAGIC);
            out.push(tag);
            for value in values {
                value.write(&mut out);
            }
            let crc = crc32(&out);
            write_u32(&mut out, crc);
            out
        })
    }

    /// The exact byte length [`Message::encode`] would produce, without
    /// materializing the frame — the accounting paths (partial-sum
    /// pricing, bench harnesses) charge for frames they never build.
    pub fn encoded_len(&self) -> usize {
        self.with_values(|_, values| {
            MAGIC.len() + 1 + values.iter().map(|v| v.encoded_len()).sum::<usize>() + 4
        })
    }

    /// Parses a complete framed message.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] for truncation, bad magic, unknown tags,
    /// flag bytes other than 0 and 1, or checksum mismatches.
    pub fn decode(bytes: &[u8]) -> Result<Message> {
        if bytes.len() < 9 {
            return Err(CodecError::UnexpectedEof);
        }
        let (body, trailer) = bytes.split_at(bytes.len() - 4);
        let stored = read_u32(trailer, &mut 0)?;
        let computed = crc32(body);
        if stored != computed {
            return Err(CodecError::ChecksumMismatch { stored, computed });
        }
        if &body[..4] != MAGIC {
            return Err(CodecError::Corrupt("bad message magic"));
        }
        // The CRC held: fields that overrun the body lie, not truncate.
        let read = read_body(body)?;
        if read.end != body.len() {
            return Err(CodecError::Corrupt("message fields disagree with its length"));
        }
        Message::from_values(read.tag, &read.values[..read.count])
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
                compressed: false,
            },
            Message::PartialSum {
                round: 9,
                shard: 5,
                clients: 200,
                weight: 199.25,
                payload: vec![0xF5, 9, 8, 7],
                compressed: true,
            },
        ]
    }

    #[test]
    fn every_layout_fits_the_reader_and_ends_in_its_payload() {
        // A payload only last is what lets `frame_len` size a frame
        // from its header.
        for fields in (0..=u8::MAX).filter_map(layout) {
            assert!(fields.len() <= MAX_FIELDS, "{fields:?}");
            let payloads = fields.iter().filter(|&&f| f == Field::Payload).count();
            assert!(payloads == usize::from(fields.last() == Some(&Field::Payload)), "{fields:?}");
        }
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
            compressed: false,
        };
        assert_eq!(wide.encoded_len(), wide.encode().len());
    }

    /// A flipped byte in the first or last 64, or at every 7th between,
    /// is refused: in a short frame, and in one long enough that its CRC
    /// takes the folding kernel.
    #[test]
    fn corrupt_frames_rejected() {
        let long: Vec<u8> =
            (0..4500u32).map(|i| (i.wrapping_mul(2654435761) >> 24) as u8).collect();
        for payload in [vec![5; 64], long] {
            let mut frame =
                Message::Update { round: 1, client_id: 2, payload, compressed: false }.encode();
            let len = frame.len();
            for idx in (0..len).filter(|&i| i < 64 || i >= len - 64 || i % 7 == 0) {
                frame[idx] = !frame[idx];
                assert!(Message::decode(&frame).is_err(), "flip at {idx} of {len} accepted");
                frame[idx] = !frame[idx];
            }
            assert!(Message::decode(&frame).is_ok());
            assert!(Message::decode(&frame[..6]).is_err());
        }
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

    /// Re-seals an edited frame: replaces its trailer with the CRC-32
    /// of everything before it.
    fn resealed(mut frame: Vec<u8>) -> Vec<u8> {
        frame.truncate(frame.len() - 4);
        let crc = crc32(&frame);
        write_u32(&mut frame, crc);
        frame
    }

    #[test]
    fn a_payload_length_past_the_body_is_an_error_not_a_panic() {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.push(3); // Update
        write_u32(&mut out, 1);
        write_uvarint(&mut out, 2);
        out.push(1);
        write_uvarint(&mut out, u64::MAX - 3);
        out.extend_from_slice(&[0; 4]);
        let frame = resealed(out);
        assert!(
            matches!(
                Message::decode(&frame),
                Err(CodecError::UnexpectedEof | CodecError::Corrupt(_))
            ),
            "{:?}",
            Message::decode(&frame)
        );
        assert!(matches!(frame_len(&frame), Err(CodecError::Corrupt(_))));
    }

    #[test]
    fn a_flag_byte_other_than_0_or_1_is_corrupt() {
        let join = Message::Join { client_id: 3, round: 1, relay: true }.encode();
        let update =
            Message::Update { round: 1, client_id: 3, payload: vec![5; 8], compressed: true }
                .encode();
        // Join's flag is its last body byte; Update's sits after the
        // one-byte client id.
        for (mut frame, at) in [(join.clone(), join.len() - 5), (update, 4 + 1 + 4 + 1)] {
            assert_eq!(frame[at], 1);
            frame[at] = 7;
            let frame = resealed(frame);
            assert!(matches!(Message::decode(&frame), Err(CodecError::Corrupt(_))), "{frame:?}");
        }
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
