//! The C10K readiness loop: one thread, thousands of framed sessions.
//!
//! [`Reactor`] owns a nonblocking listener plus a slab of nonblocking
//! connections and multiplexes them through the [`poll(2)`
//! shim](crate::poll). Each connection is a small state machine:
//!
//! ```text
//!             ┌───────────┐ Join/frames  ┌──────────┐
//!  accept ──▶ │ ACCEPTED  │ ───────────▶ │  OPEN    │──┐ read: FrameReader
//!             └───────────┘              └──────────┘  │ write: outbox
//!                   │ caller close()          │        │ (offset-resumed)
//!                   ▼                         ▼        │
//!             ┌──────────────────────────────────┐◀────┘
//!             │ CLOSED (EOF / IO error / evicted)│
//!             └──────────────────────────────────┘
//! ```
//!
//! * **Inbound** rides the existing partial-read-safe
//!   [`FrameReader`]: on read-readiness the reactor drains the socket
//!   until `WouldBlock` (surfaced as [`NetError::Timeout`], which the
//!   reader guarantees leaves any partial frame buffered), emitting
//!   one [`ReactorEvent::Frame`] per complete frame.
//! * **Outbound** is an outbox of reference-counted pre-encoded
//!   frames with a resume offset: a broadcast is encoded **once** and
//!   the same `Arc<Vec<u8>>` is queued on every session
//!   ([`Reactor::send`]). Write interest is registered only while the
//!   outbox is non-empty — that is the write-backpressure rule: a
//!   slow reader costs queue memory on its own connection, never a
//!   blocked server thread.
//! * **Liveness** belongs to the caller: the reactor itself never
//!   times anything out, it just bounds each [`Reactor::poll`] by the
//!   caller's next deadline.
//!
//! The reactor is protocol-agnostic (any FMSG conversation);
//! `fedsz-fl`'s `NetServer` builds the round barrier, elastic
//! membership and relay re-parenting on top of these events.

use crate::frame::FrameReader;
use crate::poll::PollSet;
use crate::wire::Message;
use crate::NetError;
use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Handle to one reactor connection.
///
/// Tokens are generation-stamped: a token kept after its connection
/// closed can never alias a newer connection that reused the slot —
/// stale sends are ignored instead of hitting the wrong peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Token {
    slot: u32,
    gen: u32,
}

/// What a [`Reactor::poll`] tick observed.
#[derive(Debug)]
pub enum ReactorEvent {
    /// A new connection was accepted (no frames yet — the caller
    /// decides what a handshake is and arms its own deadline).
    Accepted(Token),
    /// One complete, CRC-verified frame arrived.
    Frame(Token, Message),
    /// The connection is gone: clean EOF, I/O failure, corrupt
    /// stream, or a send failure detected on flush. The token is
    /// already released; the reason is human-readable.
    Closed(Token, String),
}

/// One pre-encoded frame queued for a connection, with the resume
/// offset for partially completed nonblocking writes.
#[derive(Debug)]
struct OutFrame {
    frame: Arc<Vec<u8>>,
    offset: usize,
}

#[derive(Debug)]
struct Conn {
    reader: FrameReader<TcpStream>,
    outbox: VecDeque<OutFrame>,
    gen: u32,
    /// Set when a flush fails outside `poll` (e.g. inside `send`);
    /// the next tick reports the connection closed with this reason.
    dying: Option<String>,
    sent: u64,
}

impl Conn {
    /// Pushes queued bytes into the socket until the outbox drains or
    /// the kernel pushes back. Returns the failure reason, if any.
    fn flush(&mut self) -> Option<String> {
        while let Some(out) = self.outbox.front_mut() {
            let pending = &out.frame[out.offset..];
            if pending.is_empty() {
                self.outbox.pop_front();
                continue;
            }
            let mut stream: &TcpStream = self.reader.get_ref();
            match stream.write(pending) {
                Ok(0) => return Some("write stalled: socket accepted 0 bytes".into()),
                Ok(n) => {
                    out.offset += n;
                    self.sent += n as u64;
                    if out.offset == out.frame.len() {
                        self.outbox.pop_front();
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return None,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Some(format!("socket error: {e}")),
            }
        }
        None
    }
}

/// A nonblocking, single-threaded session multiplexer (see the module
/// docs for the design).
#[derive(Debug)]
pub struct Reactor {
    listener: TcpListener,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_gen: u32,
    max_sessions: usize,
    accepting: bool,
    pollset: PollSet,
    scratch: Vec<crate::poll::Readiness>,
    refused: u64,
}

/// Poll tag reserved for the listener (connection slots use their
/// index, which is always below this).
const LISTENER_TAG: usize = usize::MAX;

impl Reactor {
    /// Wraps a bound listener, capping concurrent sessions at
    /// `max_sessions` (connections beyond the cap are accepted and
    /// immediately dropped, so the backlog cannot fill with zombies).
    ///
    /// # Errors
    ///
    /// Fails if the listener cannot be switched to nonblocking mode.
    pub fn new(listener: TcpListener, max_sessions: usize) -> io::Result<Self> {
        listener.set_nonblocking(true)?;
        Ok(Self {
            listener,
            conns: Vec::new(),
            free: Vec::new(),
            next_gen: 1,
            max_sessions: max_sessions.max(1),
            accepting: true,
            pollset: PollSet::new(),
            scratch: Vec::new(),
            refused: 0,
        })
    }

    /// The listener's bound address.
    ///
    /// # Panics
    ///
    /// Panics if the OS cannot report the address of a bound listener
    /// (cannot happen for a successfully bound socket).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("bound listener has an address")
    }

    /// Whether new connections are accepted (`false` parks the
    /// listener: pending connections stay in the OS backlog).
    pub fn set_accepting(&mut self, accepting: bool) {
        self.accepting = accepting;
    }

    /// Live connections currently multiplexed.
    pub fn sessions(&self) -> usize {
        self.conns.iter().filter(|c| c.is_some()).count()
    }

    /// Connections dropped at accept because the session cap was hit.
    pub fn refused(&self) -> u64 {
        self.refused
    }

    /// The peer address of a live connection.
    pub fn peer_addr(&self, token: Token) -> Option<SocketAddr> {
        self.conn(token).and_then(|c| c.reader.get_ref().peer_addr().ok())
    }

    /// Whether the connection exists and its outbox has fully
    /// drained into the kernel (the teardown flush predicate).
    pub fn outbox_empty(&self, token: Token) -> bool {
        self.conn(token).is_none_or(|c| c.outbox.is_empty())
    }

    fn conn(&self, token: Token) -> Option<&Conn> {
        self.conns.get(token.slot as usize).and_then(|c| c.as_ref()).filter(|c| c.gen == token.gen)
    }

    fn conn_mut(&mut self, token: Token) -> Option<&mut Conn> {
        self.conns
            .get_mut(token.slot as usize)
            .and_then(|c| c.as_mut())
            .filter(|c| c.gen == token.gen)
    }

    /// Queues one pre-encoded frame on a connection (the encode-once
    /// fan-out path: clone the `Arc`, not the bytes) and
    /// opportunistically flushes. Returns `false` when the token no
    /// longer names a live connection — callers treat that like a
    /// send to the void, the `Closed` event carries the real reason.
    pub fn send(&mut self, token: Token, frame: Arc<Vec<u8>>) -> bool {
        let Some(conn) = self.conn_mut(token) else { return false };
        if conn.dying.is_some() {
            return false;
        }
        conn.outbox.push_back(OutFrame { frame, offset: 0 });
        // Try to hand the bytes to the kernel right away: on an idle
        // socket this completes inline and the next poll tick needs no
        // write interest at all.
        if let Some(reason) = conn.flush() {
            conn.dying = Some(reason);
        }
        true
    }

    /// Queues the same frame on every listed connection (encode-once
    /// broadcast). Tokens that no longer resolve are skipped.
    pub fn broadcast(&mut self, tokens: &[Token], frame: &Arc<Vec<u8>>) {
        for &token in tokens {
            self.send(token, Arc::clone(frame));
        }
    }

    /// Closes a connection immediately and releases its slot. No
    /// `Closed` event follows — the caller initiated it. Queued
    /// outbound frames that have not reached the kernel are dropped
    /// (use [`Reactor::outbox_empty`] first when the last frame
    /// matters, e.g. a Shutdown notice).
    pub fn close(&mut self, token: Token) {
        let slot = token.slot as usize;
        if self.conn(token).is_some() {
            if let Some(conn) = self.conns[slot].take() {
                let _ = conn.reader.get_ref().shutdown(std::net::Shutdown::Both);
            }
            self.free.push(slot);
        }
    }

    fn release(&mut self, slot: usize) {
        if let Some(conn) = self.conns[slot].take() {
            let _ = conn.reader.get_ref().shutdown(std::net::Shutdown::Both);
        }
        self.free.push(slot);
    }

    fn install(&mut self, stream: TcpStream) -> io::Result<Token> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        let gen = self.next_gen;
        self.next_gen = self.next_gen.wrapping_add(1).max(1);
        let conn = Conn {
            reader: FrameReader::new(stream),
            outbox: VecDeque::new(),
            gen,
            dying: None,
            sent: 0,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.conns[slot] = Some(conn);
                slot
            }
            None => {
                self.conns.push(Some(conn));
                self.conns.len() - 1
            }
        };
        Ok(Token { slot: slot as u32, gen })
    }

    /// Runs one readiness tick: blocks up to `timeout` for socket
    /// activity, then appends everything observed to `events`
    /// (cleared first). Returning with no events simply means the
    /// deadline hit first — the caller checks its own timers.
    ///
    /// # Errors
    ///
    /// Only unrecoverable multiplexer failures (the `poll(2)` call
    /// itself, or the listener breaking). Per-connection failures are
    /// events, not errors.
    pub fn poll(
        &mut self,
        timeout: Duration,
        events: &mut Vec<ReactorEvent>,
    ) -> Result<(), NetError> {
        events.clear();

        // Sweep connections condemned outside poll (failed flush in
        // `send`): report and release before arming interest.
        for slot in 0..self.conns.len() {
            let Some(conn) = &self.conns[slot] else { continue };
            if let Some(reason) = conn.dying.clone() {
                let token = Token { slot: slot as u32, gen: conn.gen };
                self.release(slot);
                events.push(ReactorEvent::Closed(token, reason));
            }
        }

        self.pollset.clear();
        if self.accepting {
            self.pollset.push(&self.listener, true, false, LISTENER_TAG);
        }
        for (slot, conn) in self.conns.iter().enumerate() {
            if let Some(conn) = conn {
                self.pollset.push(conn.reader.get_ref(), true, !conn.outbox.is_empty(), slot);
            }
        }
        if self.pollset.is_empty() {
            // Nothing to watch: honor the deadline without spinning.
            std::thread::sleep(timeout.min(Duration::from_millis(20)));
            return Ok(());
        }
        let ready = self.pollset.wait(timeout).map_err(NetError::Io)?;
        if ready == 0 && events.is_empty() {
            return Ok(());
        }

        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        scratch.extend(self.pollset.ready());
        for r in &scratch {
            if r.tag == LISTENER_TAG {
                self.accept_burst(events)?;
                continue;
            }
            let slot = r.tag;
            let Some(conn) = self.conns.get_mut(slot).and_then(|c| c.as_mut()) else {
                continue;
            };
            let token = Token { slot: slot as u32, gen: conn.gen };
            if r.writable {
                if let Some(reason) = conn.flush() {
                    self.release(slot);
                    events.push(ReactorEvent::Closed(token, reason));
                    continue;
                }
            }
            if r.readable || r.error {
                self.drain(slot, token, events);
            }
        }
        self.scratch = scratch;
        Ok(())
    }

    /// Accepts until the listener would block, installing each
    /// connection (or dropping it at the session cap).
    fn accept_burst(&mut self, events: &mut Vec<ReactorEvent>) -> Result<(), NetError> {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.sessions() >= self.max_sessions {
                        self.refused += 1;
                        drop(stream); // RST/EOF tells the peer to back off and retry
                        continue;
                    }
                    match self.install(stream) {
                        Ok(token) => events.push(ReactorEvent::Accepted(token)),
                        Err(_) => continue, // the socket died mid-setup
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Per-connection accept failures (ECONNABORTED etc.)
                // are not listener death; skip the connection.
                Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => continue,
                Err(e) => return Err(NetError::Io(e)),
            }
        }
    }

    /// Reads a connection dry: every complete frame becomes an event;
    /// `WouldBlock` ends the burst with partial bytes safely buffered
    /// in the `FrameReader`; EOF and errors close the connection.
    fn drain(&mut self, slot: usize, token: Token, events: &mut Vec<ReactorEvent>) {
        loop {
            let Some(conn) = self.conns.get_mut(slot).and_then(|c| c.as_mut()) else { return };
            match conn.reader.read_message() {
                Ok(Some(message)) => events.push(ReactorEvent::Frame(token, message)),
                Ok(None) => {
                    self.release(slot);
                    events.push(ReactorEvent::Closed(token, NetError::Closed.to_string()));
                    return;
                }
                Err(NetError::Timeout) => return, // drained for now
                Err(e) => {
                    self.release(slot);
                    events.push(ReactorEvent::Closed(token, e.to_string()));
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Session;
    use std::thread;
    use std::time::Instant;

    fn reactor(max_sessions: usize) -> Reactor {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        Reactor::new(listener, max_sessions).unwrap()
    }

    fn pump(
        reactor: &mut Reactor,
        events: &mut Vec<ReactorEvent>,
        out: &mut Vec<ReactorEvent>,
        deadline: Instant,
    ) {
        while out.is_empty() && Instant::now() < deadline {
            reactor.poll(Duration::from_millis(20), events).unwrap();
            out.append(events);
        }
    }

    #[test]
    fn many_sessions_echo_through_one_thread() {
        const SESSIONS: usize = 25;
        const FRAMES: usize = 3;
        let mut reactor = reactor(SESSIONS);
        let addr = reactor.local_addr().to_string();
        let clients: Vec<_> = (0..SESSIONS as u64)
            .map(|id| {
                let addr = addr.clone();
                thread::spawn(move || {
                    let mut s = Session::connect(&addr, Duration::from_secs(5)).unwrap();
                    for round in 0..FRAMES as u32 {
                        let msg = Message::Update {
                            round,
                            client_id: id,
                            payload: vec![id as u8; 2048],
                            compressed: false,
                        };
                        s.send(&msg).unwrap();
                        let echoed = s.recv(Some(Duration::from_secs(10))).unwrap();
                        assert_eq!(echoed, msg, "client {id} round {round}");
                    }
                    assert!(matches!(
                        s.recv(Some(Duration::from_secs(10))).unwrap(),
                        Message::Shutdown
                    ));
                })
            })
            .collect();

        let shutdown = Arc::new(Message::Shutdown.encode());
        let mut events = Vec::new();
        let mut echoed = 0usize;
        let mut closed = 0usize;
        let deadline = Instant::now() + Duration::from_secs(30);
        while closed < SESSIONS && Instant::now() < deadline {
            reactor.poll(Duration::from_millis(50), &mut events).unwrap();
            for event in events.drain(..) {
                match event {
                    ReactorEvent::Accepted(_) => {}
                    ReactorEvent::Frame(token, msg) => {
                        let frame = Arc::new(msg.encode());
                        assert!(reactor.send(token, frame));
                        echoed += 1;
                        if matches!(&msg, Message::Update { round, .. } if *round as usize == FRAMES - 1)
                        {
                            reactor.send(token, Arc::clone(&shutdown));
                        }
                    }
                    ReactorEvent::Closed(_, _) => closed += 1,
                }
            }
        }
        assert_eq!(echoed, SESSIONS * FRAMES);
        for c in clients {
            c.join().unwrap();
        }
    }

    #[test]
    fn session_cap_refuses_the_excess() {
        let mut reactor = reactor(2);
        let addr = reactor.local_addr().to_string();
        let mut events = Vec::new();
        let mut accepted = Vec::new();
        let _a = Session::connect(&addr, Duration::from_secs(5)).unwrap();
        let _b = Session::connect(&addr, Duration::from_secs(5)).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while accepted.len() < 2 && Instant::now() < deadline {
            reactor.poll(Duration::from_millis(20), &mut events).unwrap();
            for e in events.drain(..) {
                if let ReactorEvent::Accepted(t) = e {
                    accepted.push(t);
                }
            }
        }
        assert_eq!(reactor.sessions(), 2);
        // The third connects at the TCP level but is dropped by the
        // reactor: its next read sees EOF/reset, never a frame.
        let mut c = Session::connect(&addr, Duration::from_secs(5)).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while reactor.refused() == 0 && Instant::now() < deadline {
            reactor.poll(Duration::from_millis(20), &mut events).unwrap();
        }
        assert_eq!(reactor.refused(), 1);
        assert_eq!(reactor.sessions(), 2);
        assert!(c.recv(Some(Duration::from_secs(5))).is_err());
    }

    #[test]
    fn backpressured_broadcast_resumes_across_partial_writes() {
        // A receiver that doesn't read while the reactor queues ~8 MiB
        // forces short writes; every byte must still arrive, in order,
        // once the receiver starts draining.
        let mut reactor = reactor(4);
        let addr = reactor.local_addr().to_string();
        let big = Message::GlobalModel { round: 9, dict_bytes: vec![0xAC; 1 << 20] };
        let frame = Arc::new(big.encode());
        let copies = 8usize;

        let reader = {
            let addr = addr.clone();
            let want = big.clone();
            thread::spawn(move || {
                let mut s = Session::connect(&addr, Duration::from_secs(5)).unwrap();
                // Let the server-side outbox fill before draining.
                thread::sleep(Duration::from_millis(150));
                for i in 0..copies {
                    let got = s.recv(Some(Duration::from_secs(20))).unwrap();
                    assert_eq!(got, want, "copy {i}");
                }
            })
        };

        let mut events = Vec::new();
        let mut out = Vec::new();
        pump(&mut reactor, &mut events, &mut out, Instant::now() + Duration::from_secs(10));
        let token = match out.remove(0) {
            ReactorEvent::Accepted(t) => t,
            other => panic!("expected an accept, got {other:?}"),
        };
        for _ in 0..copies {
            assert!(reactor.send(token, Arc::clone(&frame)));
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        while !reactor.outbox_empty(token) && Instant::now() < deadline {
            reactor.poll(Duration::from_millis(20), &mut events).unwrap();
        }
        assert!(reactor.outbox_empty(token), "outbox never drained");
        reader.join().unwrap();
    }

    #[test]
    fn stale_tokens_never_alias_a_reused_slot() {
        let mut reactor = reactor(4);
        let addr = reactor.local_addr().to_string();
        let mut events = Vec::new();
        let mut out = Vec::new();
        let first = Session::connect(&addr, Duration::from_secs(5)).unwrap();
        pump(&mut reactor, &mut events, &mut out, Instant::now() + Duration::from_secs(10));
        let ReactorEvent::Accepted(stale) = out.remove(0) else { panic!("expected accept") };
        drop(first);
        // Wait for the close, freeing the slot.
        pump(&mut reactor, &mut events, &mut out, Instant::now() + Duration::from_secs(10));
        assert!(matches!(out.remove(0), ReactorEvent::Closed(t, _) if t == stale));
        let _second = Session::connect(&addr, Duration::from_secs(5)).unwrap();
        pump(&mut reactor, &mut events, &mut out, Instant::now() + Duration::from_secs(10));
        let ReactorEvent::Accepted(fresh) = out.remove(0) else { panic!("expected accept") };
        // Same slot, different generation: the stale token is inert.
        assert_ne!(stale, fresh);
        assert!(!reactor.send(stale, Arc::new(Message::Shutdown.encode())));
        assert!(reactor.send(fresh, Arc::new(Message::Shutdown.encode())));
    }
}
