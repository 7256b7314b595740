//! Property tests of the FMSG stream layer: a frame stream split at
//! *arbitrary* byte boundaries — the short reads a real TCP socket
//! produces — must round-trip bit-exactly through `FrameReader`, and
//! corruption anywhere must be rejected, never mis-decoded.

use fedsz::FedSz;
use fedsz_codec::checksum::crc32;
use fedsz_net::{frame_len, FrameReader, FrameWriter, Message, NetError};
use fedsz_nn::models::tiny::TinyArch;
use fedsz_nn::Model;
use proptest::collection::vec;
use proptest::prelude::*;
use std::io::Read;

/// A nonblocking-socket stand-in: bytes become readable only as the
/// "reactor" grants readiness, and reading past the granted window
/// returns `WouldBlock` — exactly what a `poll(2)`-woken read sees.
/// Once the stream is exhausted, reads return 0 (clean EOF).
struct GrantedReads {
    bytes: Vec<u8>,
    pos: usize,
    granted: usize,
}

impl Read for GrantedReads {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        if self.pos == self.bytes.len() {
            return Ok(0);
        }
        if self.granted == 0 {
            return Err(std::io::ErrorKind::WouldBlock.into());
        }
        let n = self.granted.min(self.bytes.len() - self.pos).min(out.len());
        out[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
        self.pos += n;
        self.granted -= n;
        Ok(n)
    }
}

/// A reader that serves its bytes in caller-chosen slice sizes,
/// cycling through `cuts` — so frame boundaries land mid-header,
/// mid-varint, mid-payload and mid-CRC across cases.
struct Chopped {
    bytes: Vec<u8>,
    cuts: Vec<usize>,
    pos: usize,
    turn: usize,
}

impl Read for Chopped {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let step = self.cuts[self.turn % self.cuts.len()].max(1);
        self.turn += 1;
        let n = step.min(self.bytes.len() - self.pos).min(out.len());
        out[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

fn payload() -> impl Strategy<Value = Vec<u8>> + 'static {
    vec(any::<u8>(), 0..900)
}

/// Every message kind, payload sizes drawn small-to-large so varint
/// length prefixes cross width boundaries.
fn message() -> impl Strategy<Value = Message> {
    prop_oneof![
        (any::<u64>(), any::<u32>(), any::<bool>())
            .prop_map(|(client_id, round, relay)| Message::Join { client_id, round, relay })
            .boxed(),
        (0u32..9000, payload())
            .prop_map(|(round, dict_bytes)| Message::GlobalModel { round, dict_bytes })
            .boxed(),
        ((0u32..9000, any::<u64>()), payload(), any::<bool>())
            .prop_map(|((round, client_id), payload, compressed)| Message::Update {
                round,
                client_id,
                payload,
                compressed,
            })
            .boxed(),
        Just(Message::Shutdown).boxed(),
        (0u32..9000, payload())
            .prop_map(|(round, payload)| Message::EncodedGlobal { round, payload })
            .boxed(),
        ((0u32..9000, 0u32..512), (0u32..100_000, 0.0f64..1e6), payload())
            .prop_map(|((round, shard), (clients, weight), payload)| Message::PartialSum {
                round,
                shard,
                clients,
                weight,
                payload,
                compressed: false,
            })
            .boxed(),
        ((0u32..9000, 0u32..512), (0u32..100_000, 0.0f64..1e6), payload())
            .prop_map(|((round, shard), (clients, weight), payload)| Message::PartialSum {
                round,
                shard,
                clients,
                weight,
                payload,
                compressed: true,
            })
            .boxed(),
    ]
}

/// A tag byte and a body to seal under it: arbitrary bytes after a
/// known or unknown tag, or a real message's body with one byte
/// overwritten — a forged length, a flag byte that is neither 0 nor 1,
/// an overflowing varint.
fn hostile_body() -> impl Strategy<Value = (u8, Vec<u8>)> {
    prop_oneof![
        (prop_oneof![(0u8..9).boxed(), any::<u8>().boxed()], vec(any::<u8>(), 0..40)).boxed(),
        (message(), any::<u64>(), any::<u8>())
            .prop_map(|(message, at, byte)| {
                let frame = message.encode();
                let mut body = frame[5..frame.len() - 4].to_vec();
                if !body.is_empty() {
                    let at = (at % body.len() as u64) as usize;
                    body[at] = byte;
                }
                (frame[4], body)
            })
            .boxed(),
    ]
}

fn stream_of(messages: &[Message]) -> Vec<u8> {
    let mut bytes = Vec::new();
    let mut writer = FrameWriter::new(&mut bytes);
    for m in messages {
        writer.write_message(m).expect("Vec sink cannot fail");
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn arbitrarily_split_streams_round_trip_bit_exactly(
        messages in vec(message(), 1..8),
        cuts in vec(1usize..64, 1..12),
    ) {
        let stream = stream_of(&messages);
        let mut reader = FrameReader::new(Chopped { bytes: stream, cuts, pos: 0, turn: 0 });
        for want in &messages {
            let got = reader.read_message().expect("valid stream").expect("frame available");
            prop_assert_eq!(&got, want);
        }
        prop_assert!(reader.read_message().expect("clean close").is_none());
    }

    #[test]
    fn reactor_interleaved_sessions_round_trip_bit_exactly(
        streams in vec(vec(message(), 1..6), 2..7),
        schedule in vec((any::<u16>(), 1usize..96), 4..64),
    ) {
        // The reactor's actual read pattern: many concurrent sessions,
        // each woken with an arbitrary number of readable bytes at a
        // time, each drained until WouldBlock — with wakeups
        // interleaved across sessions in arbitrary order. Every
        // session must still round-trip its own frame sequence
        // bit-exactly, unperturbed by the others' progress.
        let mut sessions: Vec<(FrameReader<GrantedReads>, Vec<Message>)> = streams
            .iter()
            .map(|messages| {
                let source =
                    GrantedReads { bytes: stream_of(messages), pos: 0, granted: 0 };
                (FrameReader::new(source), Vec::new())
            })
            .collect();
        // Readiness phase: grant `size` bytes to session `who`, then
        // drain that session exactly the way the reactor does — read
        // frames until the source would block.
        let mut grants: Vec<(usize, usize)> = schedule
            .iter()
            .map(|&(who, size)| (who as usize % sessions.len(), size))
            .collect();
        // Completion phase: unbounded grants so every session reaches
        // its clean EOF regardless of how the schedule was drawn.
        for who in 0..sessions.len() {
            grants.push((who, usize::MAX));
        }
        let mut closed = vec![false; sessions.len()];
        for (who, size) in grants {
            if closed[who] {
                continue;
            }
            let (reader, decoded) = &mut sessions[who];
            reader.get_mut().granted = reader.get_mut().granted.saturating_add(size);
            loop {
                match reader.read_message() {
                    Ok(Some(frame)) => decoded.push(frame),
                    Ok(None) => { closed[who] = true; break; }
                    Err(NetError::Timeout) => break, // WouldBlock: wait for the next wakeup
                    Err(e) => return Err(TestCaseError::Fail(format!(
                        "session {who} failed mid-stream: {e}"
                    ))),
                }
            }
        }
        for (who, ((_, decoded), want)) in sessions.iter().zip(&streams).enumerate() {
            prop_assert!(closed[who], "session {} never reached its clean EOF", who);
            prop_assert_eq!(decoded, want, "session {} frames diverged", who);
        }
    }

    #[test]
    fn frame_len_never_lies_on_any_prefix(message in message()) {
        // For every strict prefix, frame_len either asks for more or
        // reports exactly the true frame length — the invariant the
        // stream reader's buffering rests on.
        let frame = message.encode();
        for cut in 0..=frame.len() {
            match frame_len(&frame[..cut]).expect("valid prefix never errors") {
                Some(total) => prop_assert_eq!(total, frame.len()),
                None => prop_assert!(cut < frame.len()),
            }
        }
    }

    #[test]
    fn corrupt_byte_is_rejected_not_misdecoded(
        messages in vec(message(), 1..5),
        cuts in vec(1usize..48, 1..8),
        flip_at in any::<u64>(),
        flip_bit in 0u8..8,
    ) {
        let clean = stream_of(&messages);
        let idx = (flip_at % clean.len() as u64) as usize;
        let mut corrupt = clean.clone();
        corrupt[idx] ^= 1 << flip_bit;
        let mut reader =
            FrameReader::new(Chopped { bytes: corrupt, cuts, pos: 0, turn: 0 });
        // Frames before the flipped byte may decode fine, but every
        // decoded frame must equal its original, and the stream must
        // end in a codec error — never a clean close or a mis-decode.
        // (The flip always lands: every byte of every frame is either
        // CRC-covered or IS the CRC.)
        let mut decoded = 0usize;
        let outcome = loop {
            match reader.read_message() {
                Ok(Some(got)) => {
                    prop_assert_eq!(&got, &messages[decoded], "frame {} mis-decoded", decoded);
                    decoded += 1;
                }
                other => break other,
            }
        };
        prop_assert!(decoded < messages.len());
        match outcome {
            Err(NetError::Codec(_)) => {}
            other => return Err(TestCaseError::Fail(format!(
                "corrupt stream ended with {other:?} after {decoded} frames"
            ))),
        }
    }

    #[test]
    fn truncated_streams_error_at_the_cut(
        messages in vec(message(), 1..5),
        keep_fraction in 0.0f64..1.0,
    ) {
        let stream = stream_of(&messages);
        let keep = ((stream.len() as f64) * keep_fraction) as usize;
        let mut reader = FrameReader::new(&stream[..keep]);
        let mut decoded = 0usize;
        let ended = loop {
            match reader.read_message() {
                Ok(Some(got)) => {
                    prop_assert_eq!(&got, &messages[decoded]);
                    decoded += 1;
                }
                other => break other,
            }
        };
        match ended {
            // Cut exactly at a frame boundary: a clean close of a
            // shorter-but-valid stream.
            Ok(None) => prop_assert!(decoded <= messages.len()),
            // Cut mid-frame: an explicit error.
            Err(NetError::Codec(_)) => prop_assert!(decoded < messages.len()),
            other => return Err(TestCaseError::Fail(format!("unexpected end: {other:?}"))),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn any_checksummed_body_decodes_or_errors_and_never_panics(
        (tag, body) in hostile_body(),
    ) {
        // A hostile peer can seal any bytes with a valid CRC: decode
        // must then be total, over every tag, known or not.
        let mut frame = b"FMSG".to_vec();
        frame.push(tag);
        frame.extend_from_slice(&body);
        let crc = crc32(&frame);
        frame.extend_from_slice(&crc.to_le_bytes());
        let _ = frame_len(&frame);
        if let Ok(message) = Message::decode(&frame) {
            // Compared as frames: encoding is injective, and it tells
            // NaN weights apart where `PartialEq` cannot.
            let again = Message::decode(&message.encode());
            prop_assert_eq!(again.map(|m| m.encode()), Ok(message.encode()));
        }
    }
}

/// The bytes a flip test corrupts in a buffer of `len`: the first and
/// last 64 and every 7th between.
fn flip_sites(len: usize) -> impl Iterator<Item = usize> {
    (0..len).filter(move |&i| i < 64 || i >= len.saturating_sub(64) || i % 7 == 0)
}

/// A worker's real upload, tiny AlexNet's FedSZ stream (kilobytes, so
/// every CRC over it takes the folding kernel): one flipped byte, in
/// the stream or anywhere in the FMSG frame carrying it, is refused by
/// the layer whose CRC covers it.
#[test]
fn a_flipped_byte_in_a_real_update_is_refused() {
    let model = TinyArch::AlexNet.build(5, 3, 16, 10).state_dict();
    let codec = FedSz::default();
    let mut stream = codec.compress(&model).expect("compresses").into_bytes();
    assert!(stream.len() >= 4096, "a {}-byte stream", stream.len());
    for idx in flip_sites(stream.len()) {
        stream[idx] = !stream[idx];
        assert!(codec.decompress(&stream).is_err(), "stream flip at {idx} accepted");
        stream[idx] = !stream[idx];
    }
    let mut frame =
        Message::Update { round: 1, client_id: 3, payload: stream, compressed: true }.encode();
    for idx in flip_sites(frame.len()) {
        frame[idx] = !frame[idx];
        assert!(Message::decode(&frame).is_err(), "frame flip at {idx} accepted");
        frame[idx] = !frame[idx];
    }
    let Ok(Message::Update { payload, .. }) = Message::decode(&frame) else {
        panic!("the unflipped frame does not decode");
    };
    assert!(codec.decompress(&payload).is_ok());
}
