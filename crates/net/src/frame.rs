//! Framed message I/O over arbitrary byte streams.
//!
//! TCP delivers a byte stream, not messages: one `read` may return half
//! a frame header, three frames and the first byte of a fourth.
//! [`FrameReader`] owns that problem — it buffers whatever the inner
//! reader produces, uses [`frame_len`] to find the next frame boundary
//! (computable from the header alone, so a frame's payload never has to
//! arrive in one read), and CRC-verifies the complete frame through
//! [`Message::decode`]. [`FrameWriter`] is the mirror image: it turns a
//! [`Message`] into its frame and pushes the bytes whole into any
//! [`Write`].
//!
//! Both socket front-ends — the blocking TCP [`Session`](crate::Session)
//! a worker holds and the [`Reactor`](crate::Reactor)'s nonblocking
//! connections — use these two types, so there is exactly one encode
//! path and one decode path for FMSG frames in the workspace. Frames
//! exist only where sockets do: the in-process simulator hands payloads
//! over unframed and prices them by length.

use crate::wire::{frame_len, Message};
use crate::NetError;
use fedsz_codec::CodecError;
use std::io::{Read, Write};

/// Bytes requested from the inner reader per refill.
const READ_CHUNK: usize = 64 * 1024;

/// Buffered-consumption threshold beyond which the reader compacts its
/// internal buffer (drops already-decoded bytes).
const COMPACT_THRESHOLD: usize = 256 * 1024;

/// Writes framed [`Message`]s to any byte sink.
#[derive(Debug)]
pub struct FrameWriter<W: Write> {
    inner: W,
    written: u64,
}

impl<W: Write> FrameWriter<W> {
    /// Wraps a sink.
    pub fn new(inner: W) -> Self {
        Self { inner, written: 0 }
    }

    /// Encodes `message` and writes the complete frame, returning the
    /// frame's size in bytes (the wire cost the caller accounts).
    ///
    /// # Errors
    ///
    /// Propagates the sink's I/O errors; the frame is either fully
    /// written and flushed or the stream must be considered broken.
    pub fn write_message(&mut self, message: &Message) -> std::io::Result<usize> {
        self.write_frame(&message.encode())
    }

    /// Writes an already-encoded frame verbatim — the fan-out path:
    /// a broadcast to N peers is encoded once and written N times,
    /// instead of cloning and re-encoding per peer.
    ///
    /// # Errors
    ///
    /// Propagates the sink's I/O errors, as [`FrameWriter::write_message`].
    pub fn write_frame(&mut self, frame: &[u8]) -> std::io::Result<usize> {
        self.inner.write_all(frame)?;
        self.inner.flush()?;
        self.written += frame.len() as u64;
        Ok(frame.len())
    }

    /// Total frame bytes written so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// The wrapped sink.
    pub fn get_ref(&self) -> &W {
        &self.inner
    }

    /// Unwraps the sink.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

/// Reads framed [`Message`]s from any byte source, tolerating reads
/// split at arbitrary byte boundaries.
#[derive(Debug)]
pub struct FrameReader<R: Read> {
    inner: R,
    buf: Vec<u8>,
    /// Offset of the first unconsumed byte in `buf`.
    start: usize,
    consumed: u64,
}

impl<R: Read> FrameReader<R> {
    /// Wraps a source.
    pub fn new(inner: R) -> Self {
        Self { inner, buf: Vec::new(), start: 0, consumed: 0 }
    }

    /// Total frame bytes decoded so far (headers and trailers
    /// included — the wire cost of everything returned).
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// The wrapped source (e.g. to set socket timeouts).
    pub fn get_ref(&self) -> &R {
        &self.inner
    }

    /// The wrapped source, mutably (e.g. for test sources whose
    /// readiness the caller drives by hand).
    pub fn get_mut(&mut self) -> &mut R {
        &mut self.inner
    }

    /// Bytes currently buffered but not yet decoded (a partially
    /// received frame survives across calls — and across timeouts).
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Reads the next complete frame.
    ///
    /// Returns `Ok(None)` when the source reports end-of-stream exactly
    /// at a frame boundary (a clean close).
    ///
    /// # Errors
    ///
    /// * [`NetError::Codec`] — corrupt stream (bad magic, unknown tag,
    ///   CRC mismatch, oversized frame, or EOF mid-frame).
    /// * [`NetError::Timeout`] / [`NetError::Io`] — the source failed;
    ///   on a timeout any partially buffered frame is kept, so the call
    ///   can simply be retried.
    pub fn read_message(&mut self) -> Result<Option<Message>, NetError> {
        self.read_message_with(|_| Ok(()))
    }

    /// [`FrameReader::read_message`] with a hook invoked before every
    /// refill from the source. The hook sees the source and may fail
    /// the read — this is how [`Session`](crate::Session) enforces a
    /// *total* receive deadline: a peer trickling one byte per read
    /// would reset a per-read socket timeout forever, so the hook
    /// shrinks the socket timeout to the time remaining (and errors
    /// once it hits zero) on every iteration.
    ///
    /// # Errors
    ///
    /// Everything [`FrameReader::read_message`] returns, plus whatever
    /// `before_read` raises.
    pub fn read_message_with(
        &mut self,
        mut before_read: impl FnMut(&R) -> Result<(), NetError>,
    ) -> Result<Option<Message>, NetError> {
        loop {
            // Reclaim consumed space so a long-lived session does not
            // grow its buffer without bound.
            if self.start == self.buf.len() {
                self.buf.clear();
                self.start = 0;
            } else if self.start >= COMPACT_THRESHOLD {
                self.buf.drain(..self.start);
                self.start = 0;
            }
            let avail = &self.buf[self.start..];
            if !avail.is_empty() {
                if let Some(total) = frame_len(avail)? {
                    if avail.len() >= total {
                        let message = Message::decode(&avail[..total])?;
                        self.start += total;
                        self.consumed += total as u64;
                        return Ok(Some(message));
                    }
                }
            }
            // Not decidable yet: pull more bytes from the source.
            before_read(&self.inner)?;
            let mut chunk = [0u8; READ_CHUNK];
            let n = self.inner.read(&mut chunk).map_err(NetError::from)?;
            if n == 0 {
                return if self.buffered() == 0 {
                    Ok(None) // clean close at a frame boundary
                } else {
                    Err(NetError::Codec(CodecError::UnexpectedEof))
                };
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reader that hands out its bytes in fixed-size dribbles,
    /// simulating short TCP reads.
    struct Dribble {
        bytes: Vec<u8>,
        pos: usize,
        step: usize,
    }

    impl Read for Dribble {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let end = (self.pos + self.step).min(self.bytes.len());
            let n = (end - self.pos).min(out.len());
            out[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    fn stream_of(messages: &[Message]) -> Vec<u8> {
        let mut bytes = Vec::new();
        let mut writer = FrameWriter::new(&mut bytes);
        for m in messages {
            writer.write_message(m).expect("Vec sink cannot fail");
        }
        bytes
    }

    fn sample() -> Vec<Message> {
        vec![
            Message::Join { client_id: 3, round: 0, relay: false },
            Message::GlobalModel { round: 0, dict_bytes: (0u8..=255).collect() },
            Message::Update { round: 0, client_id: 3, payload: vec![7; 1000], compressed: true },
            Message::PartialSum {
                round: 1,
                shard: 2,
                clients: 8,
                weight: 8.0,
                payload: vec![0xAB; 300],
                compressed: true,
            },
            Message::Shutdown,
        ]
    }

    #[test]
    fn writer_reports_frame_bytes() {
        let msg = Message::Join { client_id: 1, round: 0, relay: false };
        let mut bytes = Vec::new();
        let n = FrameWriter::new(&mut bytes).write_message(&msg).unwrap();
        assert_eq!(n, bytes.len());
        assert_eq!(bytes, msg.encode());
    }

    #[test]
    fn reader_survives_one_byte_reads() {
        let messages = sample();
        let stream = stream_of(&messages);
        for step in [1usize, 2, 3, 7, 64, 100_000] {
            let mut reader = FrameReader::new(Dribble { bytes: stream.clone(), pos: 0, step });
            for want in &messages {
                let got = reader.read_message().unwrap().expect("stream has more frames");
                assert_eq!(&got, want, "step {step}");
            }
            assert!(reader.read_message().unwrap().is_none(), "clean EOF after last frame");
        }
    }

    #[test]
    fn truncated_stream_is_an_error_not_a_clean_close() {
        let stream = stream_of(&sample());
        let cut = stream.len() - 3;
        let mut reader = FrameReader::new(&stream[..cut]);
        let mut decoded = 0;
        loop {
            match reader.read_message() {
                Ok(Some(_)) => decoded += 1,
                Ok(None) => panic!("truncation mistaken for a clean close"),
                Err(NetError::Codec(CodecError::UnexpectedEof)) => break,
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert_eq!(decoded, sample().len() - 1);
    }

    #[test]
    fn corrupt_byte_rejected_with_crc() {
        let mut stream = stream_of(&sample());
        stream[10] ^= 0x40;
        let mut reader = FrameReader::new(stream.as_slice());
        assert!(matches!(reader.read_message(), Err(NetError::Codec(_))));
    }

    #[test]
    fn garbage_prefix_rejected_immediately() {
        let mut reader = FrameReader::new(&b"HTTP/1.1 200 OK\r\n"[..]);
        assert!(matches!(reader.read_message(), Err(NetError::Codec(_))));
    }

    #[test]
    fn empty_stream_is_a_clean_close() {
        let mut reader = FrameReader::new(&b""[..]);
        assert!(reader.read_message().unwrap().is_none());
    }
}
