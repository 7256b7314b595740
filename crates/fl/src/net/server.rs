//! The reactor-based TCP server: `fedsz serve` as root or relay
//! aggregator.
//!
//! One [`NetServer`] multiplexes every child session (workers, or
//! downstream relays) through a single [`Reactor`] thread. Root and
//! relay share one round loop; the private `Parent` holds the two ends
//! that differ: where a round's broadcast comes from (the root's
//! global, or the relay's upstream) and where the folded round goes
//! (into the global, or upstream as an exact partial-sum frame). Each
//! round's broadcast is encoded once for every live session, and the
//! barrier pumps the reactor until nobody is awaited or the deadline
//! hits. Who is awaited, and who is evicted, is `membership.rs`'s rule.
//!
//! Worker updates go through the shared [`FoldStep`] into a
//! [`PartialSum`] in ascending child order, relay frames are
//! [`PartialSum::decode_exact`]-ed and merged: the fixed-point
//! accumulator makes the result independent of process placement.

use crate::agg::{decode_broadcast, Downlink, PartialSum};
use crate::net::membership::{ChildKey, Membership};
use crate::net::{global_checksum, invalid};
use crate::plan::{check_ranges, RoundPlan, AT_LEAST_ONE, POSITIVE};
use crate::step::FoldStep;
use crate::FlConfig;
use fedsz_lossless::PsumCodec;
use fedsz_net::{Message, NetError, Reactor, ReactorEvent, Session, Token};
use fedsz_nn::{Model, StateDict};
use fedsz_telemetry::{Telemetry, Value};
use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What this server is in the aggregation hierarchy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Role {
    /// The root: owns the global model and finishes every round.
    Root,
    /// An edge aggregator: serves a contiguous worker shard, relays
    /// one exact partial-sum frame per round to its parent.
    Relay {
        /// This relay's index among the tree's first-tier aggregators
        /// ([`RoundPlan::reparent_range`] is the worker range it
        /// serves).
        shard: u32,
        /// The parent server's `host:port`.
        upstream: String,
    },
}

/// Configuration of one `fedsz serve` process.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The federated-learning configuration — **must match every
    /// worker's and relay's** (data seeds, architecture, codec and
    /// cohort size all shape the bits).
    pub fl: FlConfig,
    /// Root or relay.
    pub role: Role,
    /// How long to wait for the expected children to connect and join.
    pub accept_timeout: Duration,
    /// Per-round barrier: children silent for longer are evicted.
    pub round_timeout: Duration,
    /// Cap on concurrently multiplexed sessions; connections beyond it
    /// are dropped at accept.
    pub max_sessions: usize,
    /// After a child disconnects, how long the round barrier keeps its
    /// seat open for a resumed session (and how long a failed relay's
    /// orphans have to re-parent) before the round completes without
    /// it.
    pub reconnect_grace: Duration,
    /// Fault-injection knob for the churn tests: a *relay* aborts
    /// abruptly — children and upstream left to discover the dead
    /// sockets — when its upstream broadcast reaches this round. A root
    /// refuses it at plan time. `None` (the default) never fires.
    pub fail_at_round: Option<u32>,
    /// Session-lifecycle telemetry: connects, round/barrier spans,
    /// frame-byte counters and `serve.evict` events land here.
    /// Disabled by default.
    pub telemetry: Telemetry,
}

impl ServeConfig {
    /// A root server over `fl` with test-friendly timeouts.
    pub fn root(fl: FlConfig) -> Self {
        Self {
            fl,
            role: Role::Root,
            accept_timeout: Duration::from_secs(30),
            round_timeout: Duration::from_secs(60),
            max_sessions: 1024,
            reconnect_grace: Duration::from_secs(3),
            fail_at_round: None,
            telemetry: Telemetry::disabled(),
        }
    }

    /// A relay for `shard`, reporting to `upstream`.
    pub fn relay(fl: FlConfig, shard: u32, upstream: String) -> Self {
        Self { role: Role::Relay { shard, upstream }, ..Self::root(fl) }
    }

    /// Validates the configuration into its [`RoundPlan`] (the socket
    /// runtime consumes the plan, not the raw fields). This is the one
    /// place a `fedsz serve` configuration is range-checked: the CLI
    /// only parses.
    ///
    /// On top of [`FlConfig::plan`] and what the socket runtime cannot
    /// honour ([`RoundPlan::validate_for_workers`]), this checks the
    /// server's own fields: positive timeouts and grace, a session cap
    /// of at least one, a relay role whose shard the plan's tree has,
    /// and `fail_at_round` only on a relay (a root has no upstream to
    /// fail).
    ///
    /// # Errors
    ///
    /// Returns the [`PlanError`](crate::plan::PlanError) (or one of the
    /// constraints above) as a [`NetError::Config`] so `run` surfaces
    /// it before any socket work.
    pub fn plan(&self) -> Result<RoundPlan, NetError> {
        let plan = self.fl.plan().map_err(invalid)?;
        plan.validate_for_workers().map_err(invalid)?;
        check_ranges(&[
            ("accept_timeout", self.accept_timeout.as_secs_f64(), POSITIVE),
            ("round_timeout", self.round_timeout.as_secs_f64(), POSITIVE),
            ("reconnect_grace", self.reconnect_grace.as_secs_f64(), POSITIVE),
            ("max_sessions", self.max_sessions as f64, AT_LEAST_ONE),
        ])
        .map_err(invalid)?;
        match &self.role {
            Role::Root if self.fail_at_round.is_some() => Err(invalid(
                "fail_at_round is the relay fault-injection knob; a root has no upstream to fail",
            )),
            Role::Relay { shard, .. } if plan.reparent_range(*shard as usize).is_none() => {
                Err(invalid(match plan.shard_count() {
                    Some(shards) => format!("relay shard {shard} outside the {shards}-shard plan"),
                    None => format!("relay shard {shard} needs a tree on the config (flat plan)"),
                }))
            }
            _ => Ok(plan),
        }
    }

    /// The client ids a server in `role` expects as direct children:
    /// the whole cohort (flat root), one id per relay shard (sharded
    /// root), or the relay's contiguous worker range. `plan` is the
    /// one [`ServeConfig::plan`] validated for `role`.
    ///
    /// # Panics
    ///
    /// Panics when a relay role names a shard the plan does not have
    /// (which [`ServeConfig::plan`] rejects).
    pub fn expected_children_of(plan: &RoundPlan, role: &Role) -> Vec<u64> {
        let ids = match role {
            Role::Root => 0..plan.shard_count().unwrap_or(plan.config.clients),
            Role::Relay { shard, .. } => plan
                .reparent_range(*shard as usize)
                .expect("ServeConfig::plan validated the relay's shard"),
        };
        ids.map(|id| id as u64).collect()
    }
}

/// One finished round as the server observed it.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NetRound {
    /// Round index.
    pub round: u32,
    /// Bytes this server sent to its children (framed broadcasts).
    pub downstream_bytes: usize,
    /// Bytes this server received from its children (framed updates
    /// or partial-sum frames).
    pub upstream_bytes: usize,
    /// Client contributions folded into the aggregate (through relays
    /// included).
    pub merged: usize,
    /// Children evicted during this round.
    pub evicted: usize,
    /// Disconnected children that rejoined during this round (adopted
    /// orphans included).
    pub reconnects: usize,
    /// Orphaned workers adopted from a failed relay's shard during
    /// this round.
    pub reparented: usize,
    /// Wall-clock duration of the round at this server.
    pub wall_secs: f64,
    /// Wall nanoseconds this server spent folding the round's
    /// contributions: every `PartialSum::accumulate` / `merge_from`,
    /// plus the root's `finish`. Decode is excluded, which is how
    /// [`aggregate_flat`](crate::agg::aggregate_flat) times its merge.
    pub merge_nanos: u64,
    /// [`global_checksum`] of the post-round global model (0 for a
    /// relay, which never holds the global).
    pub checksum: u32,
}

/// What a completed `serve` run produced.
#[derive(Debug)]
pub struct ServeReport {
    /// Per-round accounting.
    pub rounds: Vec<NetRound>,
    /// The final global model (root only).
    pub global: Option<StateDict>,
    /// [`global_checksum`] of the final global model (0 for a relay).
    pub checksum: u32,
    /// Children evicted across the whole session.
    pub evicted: usize,
    /// Why each evicted child was dropped: `(child id, round, reason)`.
    /// Children that simply went silent past the barrier deadline are
    /// recorded as `"silent past the round deadline"`.
    pub evictions: Vec<(u64, u32, String)>,
    /// Disconnected children that rejoined across the whole session.
    pub reconnects: usize,
    /// Orphaned workers adopted from failed relay shards across the
    /// whole session.
    pub reparented: usize,
    /// Raw partial-sum frames this server received from relays.
    pub psum_raw_frames: usize,
    /// Losslessly-compressed partial-sum frames received from relays.
    pub psum_compressed_frames: usize,
}

/// The round's contributions, by seat.
type Uploads = BTreeMap<ChildKey, Upload>;

/// What a child sent back for one round: a worker's (possibly
/// FedSZ-compressed) update, or a relay's exact partial-sum image
/// (possibly `PsumCodec`-packed).
enum Upload {
    Update { payload: Vec<u8>, compressed: bool },
    Partial { payload: Vec<u8>, compressed: bool },
}

/// The membership table and the round barrier around one [`Reactor`].
struct Runtime<'a> {
    reactor: Reactor,
    config: &'a ServeConfig,
    members: Membership,
    events: Vec<ReactorEvent>,
    /// The round's encoded broadcast, while its barrier is open.
    frame: Option<Arc<Vec<u8>>>,
    got: Uploads,
    /// The round being filled (joins and evictions before round 0
    /// count in round 0).
    row: NetRound,
}

impl Runtime<'_> {
    /// One poll-and-dispatch tick, bounded by `timeout`.
    fn pump(&mut self, timeout: Duration) -> Result<(), NetError> {
        let mut events = std::mem::take(&mut self.events);
        let result = self.reactor.poll(timeout, &mut events);
        for event in events.drain(..).filter(|_| result.is_ok()) {
            let now = Instant::now();
            match event {
                ReactorEvent::Accepted(token) => self.members.accepted(token, now),
                ReactorEvent::Frame(token, message) => self.handle_frame(token, message),
                ReactorEvent::Closed(token, reason) => {
                    self.members.closed(token, reason, now, &mut self.row)
                }
            }
        }
        self.events = events;
        result
    }

    /// Pumps until `done` or the instant `until`, waking whenever a
    /// handshake window or a barrier hold ends.
    fn pump_until(&mut self, until: Instant, done: impl Fn(&Self) -> bool) -> Result<(), NetError> {
        loop {
            let now = Instant::now();
            let reactor = &mut self.reactor;
            self.members.expire_handshakes(now, |token| reactor.close(token));
            if now >= until || done(self) {
                return Ok(());
            }
            let wake = self.members.next_wake(&self.got, until, now);
            self.pump(wake.saturating_duration_since(now).max(Duration::from_millis(1)))?;
        }
    }

    fn handle_frame(&mut self, token: Token, message: Message) {
        if self.members.take_pending(token) {
            // A first frame that is no Join is not our protocol. A
            // refused Join is closed without a Shutdown frame, so a
            // retrying worker sees a dead socket and keeps retrying.
            let joined = match message {
                Message::Join { client_id, relay, .. } => {
                    self.members.join(token, client_id, relay, &mut self.row)
                }
                _ => None,
            };
            let Some((key, replaced)) = joined else { return self.reactor.close(token) };
            // A replaced connection is a dead socket the reactor has not
            // noticed yet; closing it here suppresses its obituary.
            if let Some(old) = replaced {
                self.reactor.close(old);
            }
            // A mid-round (re)join gets the round's broadcast at once,
            // so it can resend its cached update (or an adopted orphan
            // train) before the barrier closes.
            if let Some(frame) = self.frame.as_ref().filter(|_| !self.got.contains_key(&key)) {
                self.reactor.send(token, Arc::clone(frame));
            }
            return;
        }
        let Some(key) = self.members.key_of(token) else {
            return; // raced a close; nothing to attribute the frame to
        };
        let wire_in = message.encoded_len();
        let (claimed, r, upload) = match message {
            Message::Update { round, client_id, payload, compressed } => {
                (client_id, round, Upload::Update { payload, compressed })
            }
            Message::PartialSum { round, shard, payload, compressed, .. } => {
                (u64::from(shard), round, Upload::Partial { payload, compressed })
            }
            other => return self.protocol_evict(key, format!("unexpected reply {other:?}")),
        };
        let (id, round) = (key.id(), self.row.round);
        if claimed != id {
            let reason = format!("contribution claims id {claimed} on a session joined as {id}");
            return self.protocol_evict(key, reason);
        }
        if r > round {
            let reason = format!("contribution for future round {r} during round {round}");
            return self.protocol_evict(key, reason);
        }
        // Stale rounds are resume resends, duplicates the reconnect
        // race resending into a seat that contributed: both ignored.
        let Some(frame) = &self.frame else { return };
        if r == round && !self.got.contains_key(&key) {
            self.row.upstream_bytes += wire_in;
            self.row.downstream_bytes += frame.len();
            self.got.insert(key, upload);
        }
    }

    /// Bans a child for a protocol violation and drops what it sent.
    fn protocol_evict(&mut self, key: ChildKey, reason: String) {
        if let Some(token) = self.members.ban(key, reason, Instant::now(), &mut self.row) {
            self.reactor.close(token);
        }
        self.got.remove(&key);
    }

    /// Round `round`'s barrier: queues `frame` on every live session,
    /// pumps until nobody is awaited or the deadline hits, settles the
    /// membership and hands back the contributions.
    fn run_barrier(&mut self, round: u32, frame: Arc<Vec<u8>>) -> Result<Uploads, NetError> {
        self.row.round = round;
        let tokens = self.members.live_tokens();
        self.reactor.broadcast(&tokens, &frame);
        self.frame = Some(frame);
        let labels =
            [("round", Value::U64(u64::from(round))), ("live", Value::U64(tokens.len() as u64))];
        let span = self.config.telemetry.span_with("serve.barrier", &labels);
        let deadline = Instant::now() + self.config.round_timeout;
        self.pump_until(deadline, |rt| !rt.members.awaiting(&rt.got, Instant::now()))?;
        drop(span);
        let reactor = &mut self.reactor;
        self.members.settle(&self.got, Instant::now(), &mut self.row, |token| reactor.close(token));
        for (dir, bytes) in [("out", self.row.downstream_bytes), ("in", self.row.upstream_bytes)] {
            let telemetry = &self.config.telemetry;
            telemetry.add_labeled("fedsz_net_frame_bytes_total", "dir", dir, bytes as f64);
        }
        self.frame = None;
        Ok(std::mem::take(&mut self.got))
    }

    /// Broadcasts Shutdown, pumps until the outboxes drain (at most 2 s;
    /// a failed poll ends it early), then closes every session.
    fn teardown(&mut self) {
        let tokens = self.members.live_tokens();
        let sessions = [("sessions", Value::U64(tokens.len() as u64))];
        let _span = self.config.telemetry.span_with("reactor.flush", &sessions);
        self.reactor.set_accepting(false);
        self.reactor.broadcast(&tokens, &Arc::new(Message::Shutdown.encode()));
        let deadline = Instant::now() + Duration::from_secs(2);
        let _ = self.pump_until(deadline, |rt| tokens.iter().all(|&t| rt.reactor.outbox_empty(t)));
        for token in tokens {
            self.reactor.close(token);
        }
    }
}

/// Where this server's rounds come from and where they go.
enum Parent {
    /// The root encodes each round's broadcast from its global model.
    Root { global: StateDict, downlink: Downlink },
    /// A relay follows its upstream session and ships each round's
    /// exact partial-sum image back up it, from round-persistent
    /// buffers lent to each message and reclaimed after the send.
    Relay {
        upstream: Session,
        shard: u32,
        psum: Option<PsumCodec>,
        image: Vec<u8>,
        packed: Vec<u8>,
    },
}

impl Parent {
    /// The root over `template` (the initial global, as the engine
    /// builds it), or a relay joined upstream — before it accepts its
    /// own children, so a deep deployment can start in any order.
    fn new(config: &ServeConfig, plan: &RoundPlan, template: &StateDict) -> Result<Self, NetError> {
        let Role::Relay { shard, upstream } = &config.role else {
            let downlink = Downlink::from_policy(&plan.config.downlink).map_err(invalid)?;
            return Ok(Parent::Root { global: template.clone(), downlink });
        };
        let mut upstream =
            Session::connect(upstream, config.accept_timeout).map_err(NetError::Io)?;
        upstream.send(&Message::Join { client_id: u64::from(*shard), round: 0, relay: true })?;
        // With no LinkProfile to price Eqn 1 against, a priced policy
        // degrades to Lossless (plan() admits no other codec here).
        let psum = plan.config.psum.compresses();
        let psum = psum.then(|| PsumCodec::with_stride(PartialSum::EXACT_STRIDE));
        Ok(Parent::Relay { upstream, shard: *shard, psum, image: Vec::new(), packed: Vec::new() })
    }

    /// The next broadcast as `(round, bytes, compressed)`, `None` once
    /// the session is over: the root encodes round `next` until
    /// `fl.rounds` are done, a relay relays its upstream's.
    fn broadcast(
        &mut self,
        next: u32,
        config: &ServeConfig,
        live: usize,
    ) -> Result<Option<(u32, Vec<u8>, bool)>, NetError> {
        match self {
            Parent::Root { .. } if next as usize >= config.fl.rounds => Ok(None),
            Parent::Root { global, downlink } => {
                let payload = downlink.encode(global, None, live);
                Ok(Some((next, payload.bytes, payload.compressed)))
            }
            Parent::Relay { upstream, .. } => {
                let message = upstream.recv(Some(config.round_timeout))?;
                if matches!(message, Message::Shutdown) {
                    return Ok(None);
                }
                let broadcast = message.into_broadcast().map_err(|other| {
                    NetError::Protocol(format!("relay expected a broadcast, got {other:?}"))
                })?;
                // The churn-test chaos knob: die abruptly, workers and
                // upstream left to find the dead sockets.
                let round = broadcast.0;
                if config.fail_at_round.is_some_and(|fail| round >= fail) {
                    let reason = format!("fault injection: relay terminated at round {round}");
                    return Err(NetError::Protocol(reason));
                }
                Ok(Some(broadcast))
            }
        }
    }

    /// Closes round `round` over its folded `partial`, returning the
    /// row's checksum. The root finishes into its global (an empty
    /// round keeps the previous one, as in the engine; the finish is
    /// merge time). A relay ships the exact image upward, empty ones
    /// too so its parent never waits on it, and reports 0.
    fn close(
        &mut self,
        round: u32,
        partial: &PartialSum,
        merge_time: &mut Duration,
    ) -> Result<u32, NetError> {
        match self {
            Parent::Root { global, .. } => {
                let t0 = Instant::now();
                let next = partial.finish();
                *merge_time += t0.elapsed();
                if let Some(next) = next {
                    *global = next;
                }
                Ok(global_checksum(global))
            }
            Parent::Relay { upstream, shard, psum, image, packed } => {
                partial.encode_exact_into(image);
                let (clients, weight) = (partial.contributions() as u32, partial.weight_total());
                let shard = *shard;
                let buffer = match psum {
                    Some(codec) => {
                        codec.compress_into(image, packed);
                        packed
                    }
                    None => image,
                };
                let (payload, compressed) = (std::mem::take(buffer), psum.is_some());
                let message =
                    Message::PartialSum { round, shard, clients, weight, payload, compressed };
                upstream.send(&message)?;
                if let Message::PartialSum { payload, .. } = message {
                    *buffer = payload;
                }
                Ok(0)
            }
        }
    }
}

/// A bound, not-yet-running `fedsz serve` listener. Splitting bind
/// from [`NetServer::run`] lets callers bind port 0 and learn the
/// ephemeral address before spawning workers (how the loopback tests
/// and benches avoid port races).
#[derive(Debug)]
pub struct NetServer {
    listener: TcpListener,
}

impl NetServer {
    /// Binds the listener (e.g. `127.0.0.1:7070`, or `127.0.0.1:0`
    /// for an ephemeral port).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(addr: &str) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(Self { listener })
    }

    /// The bound address.
    ///
    /// # Panics
    ///
    /// Panics if the OS cannot report the listener's address (cannot
    /// happen for a successfully bound socket).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("bound listener has an address")
    }

    /// Runs the full session: handshake barrier, `fl.rounds` rounds of
    /// broadcast → barrier → aggregate (→ relay upstream), teardown.
    ///
    /// # Errors
    ///
    /// Returns a [`NetError`] when no child joins before the accept
    /// deadline, when a relay loses its upstream, or on unrecoverable
    /// protocol corruption. A child failing mid-session is *not* an
    /// error — it is evicted (and may reconnect) while the session
    /// continues.
    ///
    /// # Panics
    ///
    /// Panics on invariant violations in self-produced state (e.g. a
    /// merged aggregate with non-positive weight).
    pub fn run(self, config: ServeConfig) -> Result<ServeReport, NetError> {
        // One validation pass: the rest of the session works off the plan.
        let plan = config.plan()?;
        // Pre-declare the lifecycle counters so a `/metrics` scrape
        // during the accept barrier already sees them at zero.
        config.telemetry.declare_counter("fedsz_net_sessions_total");
        config.telemetry.declare_counter("fedsz_net_evictions_total");
        config.telemetry.declare_counter("fedsz_net_reconnects_total");
        config.telemetry.declare_counter("fedsz_net_reparent_total");
        // The shared fold step validates every contribution against the
        // architecture's template, which is also the root's first global.
        let fold = FoldStep::new(&plan.config.uplink, config.fl.build_model().state_dict());
        let mut parent = Parent::new(&config, &plan, fold.template())?;

        let mut rt = Runtime {
            reactor: Reactor::new(self.listener, config.max_sessions).map_err(NetError::Io)?,
            config: &config,
            members: Membership::new(&config, &plan),
            events: Vec::new(),
            frame: None,
            got: Uploads::new(),
            row: NetRound::default(),
        };
        // The handshake barrier: every expected child joined once, or
        // the accept deadline (joins stay open after it).
        let expected = ServeConfig::expected_children_of(&plan, &config.role).len();
        let expected = [("expected", Value::U64(expected as u64))];
        let accept = config.telemetry.span_with("reactor.accept", &expected);
        rt.pump_until(Instant::now() + config.accept_timeout, |rt| rt.members.all_joined())?;
        drop(accept);
        if !rt.members.any_joined() {
            let reason = "no expected child joined before the accept deadline";
            return Err(NetError::Protocol(reason.into()));
        }

        let mut rounds = Vec::new();
        let (mut psum_raw_frames, mut psum_compressed_frames) = (0usize, 0usize);
        // The model-sized accumulator is allocated once, reset per round.
        let mut partial = PartialSum::new();
        let mut next = 0u32;
        while let Some((round, bytes, compressed)) =
            parent.broadcast(next, &config, rt.members.live_tokens().len())?
        {
            // Family delta streams decode against the exact broadcast
            // the workers received: re-decoding the frame's own bytes
            // keeps both sides bit-identical under a lossy downlink.
            let reference =
                fold.needs_reference().then(|| decode_broadcast(&bytes, compressed)).transpose()?;
            // One encode, shared by every session's outbox.
            let frame = Arc::new(Message::broadcast(round, bytes, compressed).encode());
            let labels = [("round", Value::U64(u64::from(round)))];
            let round_span = config.telemetry.span_with("serve.round", &labels);
            let t0 = Instant::now();
            let got = rt.run_barrier(round, frame)?;

            // Merge in ascending child order (the fixed order keeps even
            // intermediate state reproducible). A contribution that fails
            // decoding or validation evicts its sender.
            partial.reset();
            let (mut merged, mut merge_time) = (0usize, Duration::ZERO);
            let reference = reference.as_ref();
            let mut relays = Vec::new();
            for (key, upload) in got {
                // Relay seats sort first. A worker at a sharded root is an
                // adopted orphan, already inside its old relay's sum when
                // that arrived before the relay died.
                if let ChildKey::Relay(shard) = key {
                    relays.push(shard);
                } else if rt.members.shard_of(key.id()).is_some_and(|s| relays.contains(&s)) {
                    continue;
                }
                let relay = matches!(key, ChildKey::Relay(_));
                let (raw, packed) = (&mut psum_raw_frames, &mut psum_compressed_frames);
                match fold_upload(upload, relay, &fold, reference, &mut partial, raw, packed) {
                    Ok((contributions, fold_time)) => {
                        merged += contributions;
                        merge_time += fold_time;
                    }
                    Err(reason) => rt.protocol_evict(key, reason),
                }
            }

            let checksum = parent.close(round, &partial, &mut merge_time)?;
            let row = std::mem::replace(&mut rt.row, NetRound { round, ..NetRound::default() });
            let wall_secs = t0.elapsed().as_secs_f64();
            let merge_nanos = merge_time.as_nanos() as u64;
            rounds.push(NetRound { merged, wall_secs, merge_nanos, checksum, ..row });
            drop(round_span);
            next = round + 1;
            if !rt.members.any_prospect(Instant::now()) {
                break; // nobody left to serve, and nobody coming back
            }
        }

        rt.teardown();
        let global = match parent {
            Parent::Root { global, .. } => Some(global),
            Parent::Relay { .. } => None,
        };
        let members = rt.members;
        Ok(ServeReport {
            rounds,
            checksum: global.as_ref().map_or(0, global_checksum),
            global,
            evicted: members.evictions.len(),
            evictions: members.evictions,
            reconnects: members.reconnects,
            reparented: members.reparented,
            psum_raw_frames,
            psum_compressed_frames,
        })
    }
}

/// Folds one child's upload into the round's partial sum: a worker
/// update through the shared [`FoldStep`], a relay's partial-sum frame
/// through the checked merge. Returns the client contributions folded
/// in and the time the fold itself took (the decode before it
/// excluded), or the reason the sender must be evicted — wrong frame
/// kinds for this server's role, undecodable payloads, shape mismatches
/// and non-finite/extreme values all evict exactly one child instead of
/// panicking the whole server inside the merge machinery.
fn fold_upload(
    upload: Upload,
    expect_partial: bool,
    fold: &FoldStep,
    reference: Option<&StateDict>,
    partial: &mut PartialSum,
    psum_raw_frames: &mut usize,
    psum_compressed_frames: &mut usize,
) -> Result<(usize, Duration), String> {
    match upload {
        // A sharded root that accepts a stray worker's single update in
        // a relay slot (operator pointed a worker at the root) would
        // silently aggregate 1 client where a whole shard belonged —
        // the checksum-divergence class these checks exist to prevent.
        Upload::Update { .. } if expect_partial => {
            Err("expected a partial-sum frame from a relay, got a worker update".into())
        }
        Upload::Partial { .. } if !expect_partial => {
            Err("expected a worker update, got a partial-sum frame".into())
        }
        Upload::Update { payload, compressed } => {
            let dict = fold.decode(&payload, compressed, reference)?;
            let t0 = Instant::now();
            partial.accumulate(&dict, 1.0);
            Ok((1, t0.elapsed()))
        }
        Upload::Partial { payload, compressed } => {
            let remote = fold.decode_partial(payload, compressed)?;
            let contributions = remote.contributions();
            // Checked merge: extreme accumulator bits in a frame must
            // evict the relay, not overflow-panic the server.
            let t0 = Instant::now();
            partial.merge_from(&remote).map_err(|e| format!("unmergeable psum frame: {e}"))?;
            let fold_time = t0.elapsed();
            if compressed {
                *psum_compressed_frames += 1;
            } else {
                *psum_raw_frames += 1;
            }
            Ok((contributions, fold_time))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::FamilyCodec;
    use crate::plan::StagePolicy;
    use fedsz_codec::varint::{uvarint_len, write_uvarint};
    use fedsz_tensor::Tensor;

    fn dict(entries: &[(&str, usize)]) -> StateDict {
        let mut out = StateDict::new();
        for (name, len) in entries {
            out.insert(*name, Tensor::filled(vec![*len], 1.0));
        }
        out
    }

    #[test]
    fn oversized_shard_expectation_is_a_plan_error_not_a_clamp() {
        // Every shard of the socket runtime is a real relay process: a
        // tree that out-leafs the cohort passes the simulator's plan
        // (empty leaves are legal there) but not this one, so a root
        // can never wait for relay ids that cannot legally exist.
        let mut fl = FlConfig::smoke_test();
        fl.clients = 4;
        fl.tree = Some(vec![8]);
        assert!(fl.plan().is_ok(), "the simulator accepts surplus-leaf trees");
        let err = ServeConfig::root(fl.clone()).plan().unwrap_err();
        assert!(err.to_string().contains("shards <= clients"), "{err}");
        // The full-width count remains legal.
        fl.tree = Some(vec![4]);
        let children = |config: ServeConfig| {
            ServeConfig::expected_children_of(&config.plan().unwrap(), &config.role)
        };
        assert_eq!(children(ServeConfig::root(fl.clone())), vec![0, 1, 2, 3]);
        // A relay role the plan's tree cannot place is refused the same
        // way (`NetServer::run` starts with this call), not panicked
        // on: an out-of-range shard, or any shard of a flat plan.
        let relay = |fl: &FlConfig, shard| ServeConfig::relay(fl.clone(), shard, "h:1".into());
        assert_eq!(children(relay(&fl, 3)), vec![3]);
        let err = relay(&fl, 4).plan().unwrap_err();
        assert!(matches!(err, NetError::Config(_)), "{err}");
        assert!(err.to_string().contains("outside the 4-shard plan"), "{err}");
        let err = relay(&FlConfig::smoke_test(), 3).plan().unwrap_err();
        assert!(matches!(err, NetError::Config(_)), "{err}");
        assert!(err.to_string().contains("flat plan"), "{err}");
        // Likewise what the fold cannot honour: a config built in code
        // (no CLI flag check in the way) is refused, not run wrong.
        let mut fl = FlConfig::smoke_test();
        fl.weighted_aggregation = true;
        let err = ServeConfig::root(fl).plan().unwrap_err();
        assert!(err.to_string().contains("weighted aggregation is simulator-only"), "{err}");
    }

    #[test]
    fn server_fields_are_range_checked_by_the_plan() {
        let fl = FlConfig::smoke_test();
        let root = || ServeConfig::root(fl.clone());
        assert!(root().plan().is_ok());
        let mut config = root();
        config.round_timeout = Duration::ZERO;
        assert!(config.plan().unwrap_err().to_string().contains("round_timeout must be positive"));
        let mut config = root();
        config.max_sessions = 0;
        assert!(config.plan().unwrap_err().to_string().contains("max_sessions must be at least 1"));
        // The relay fault-injection knob means nothing on a root.
        let mut config = root();
        config.fail_at_round = Some(2);
        assert!(config.plan().unwrap_err().to_string().contains("fail_at_round"));
        let mut fl = fl.clone();
        fl.tree = Some(vec![2]);
        let mut relay = ServeConfig::relay(fl, 1, "h:1".into());
        relay.fail_at_round = Some(2);
        assert!(relay.plan().is_ok());
    }

    #[test]
    fn incompatible_uploads_are_rejected_not_panicked() {
        let step = FoldStep::new(&StagePolicy::Raw, dict(&[("a.weight", 4), ("b.weight", 2)]));
        let mut partial = PartialSum::new();
        let (mut raw, mut packed) = (0usize, 0usize);
        let mut fold = |upload| {
            fold_upload(upload, false, &step, None, &mut partial, &mut raw, &mut packed)
                .map(|(n, _)| n)
        };
        // Wrong shape, wrong entry count, garbage bytes: all evictions.
        let wrong_shape = dict(&[("a.weight", 3), ("b.weight", 2)]);
        let upload = Upload::Update { payload: wrong_shape.to_bytes(), compressed: false };
        assert!(fold(upload).is_err());
        let missing = dict(&[("a.weight", 4)]);
        assert!(fold(Upload::Update { payload: missing.to_bytes(), compressed: false }).is_err());
        assert!(fold(Upload::Update { payload: vec![9, 9, 9], compressed: false }).is_err());
        // A partial-sum frame where a worker update belongs: eviction
        // (this server's children are workers).
        assert!(fold(Upload::Partial { payload: vec![1, 2], compressed: false }).is_err());
        // A compressed update when the server has no codec: eviction.
        assert!(fold(Upload::Update { payload: vec![0; 16], compressed: true }).is_err());
        // Shape-correct but value-poisoned updates (diverged training):
        // eviction, not a quantize panic.
        let mut poisoned = StateDict::new();
        poisoned.insert("a.weight", Tensor::filled(vec![4], f32::NAN));
        poisoned.insert("b.weight", Tensor::filled(vec![2], 1.0));
        assert!(fold(Upload::Update { payload: poisoned.to_bytes(), compressed: false }).is_err());
        let mut huge = StateDict::new();
        huge.insert("a.weight", Tensor::filled(vec![4], 1e30));
        huge.insert("b.weight", Tensor::filled(vec![2], 1.0));
        assert!(fold(Upload::Update { payload: huge.to_bytes(), compressed: false }).is_err());
        // The matching dict folds cleanly after all those rejections.
        let ok = dict(&[("a.weight", 4), ("b.weight", 2)]);
        assert_eq!(fold(Upload::Update { payload: ok.to_bytes(), compressed: false }), Ok(1));
        assert_eq!(partial.contributions(), 1);
    }

    #[test]
    fn family_uploads_fold_against_the_broadcast_reference() {
        let template = dict(&[("a.weight", 4), ("b.weight", 2)]);
        let mut update = template.clone();
        update.get_mut("a.weight").unwrap().data_mut().copy_from_slice(&[2.0, 0.5, 1.0, 1.5]);
        let codec = FamilyCodec::top_k(1.0).unwrap();
        let payload = codec.encode_delta(&update, &template, None, 0).unwrap();
        let topk = StagePolicy::Family { codec, error_feedback: false };
        let step = FoldStep::new(&topk, template.clone());
        let mut partial = PartialSum::new();
        let (mut raw, mut packed) = (0usize, 0usize);
        // Without a broadcast reference the frame must evict its
        // sender, not panic or silently decode against garbage.
        let out = fold_upload(
            Upload::Update { payload: payload.clone(), compressed: true },
            false,
            &step,
            None,
            &mut partial,
            &mut raw,
            &mut packed,
        );
        assert!(out.is_err(), "family frame without a reference must evict, got {out:?}");
        // With the reference it folds exactly one contribution, and at
        // keep-ratio 1.0 the delta round-trips bit-exactly.
        let out = fold_upload(
            Upload::Update { payload, compressed: true },
            false,
            &step,
            Some(&template),
            &mut partial,
            &mut raw,
            &mut packed,
        );
        assert_eq!(out.map(|(n, _)| n), Ok(1));
        let folded = partial.finish().expect("one contribution");
        assert_eq!(folded.get("a.weight").unwrap().data(), update.get("a.weight").unwrap().data());
    }

    #[test]
    fn mismatched_psum_frames_are_rejected_not_panicked() {
        let step = FoldStep::new(&StagePolicy::Raw, dict(&[("a.weight", 4)]));
        let mut other = PartialSum::new();
        other.accumulate(&dict(&[("a.weight", 5)]), 2.0);
        let mut partial = PartialSum::new();
        let (mut raw, mut packed) = (0usize, 0usize);
        let mut fold = |upload, partial: &mut PartialSum| {
            fold_upload(upload, true, &step, None, partial, &mut raw, &mut packed).map(|(n, _)| n)
        };
        let out = fold(
            Upload::Partial { payload: other.encode_exact(), compressed: false },
            &mut partial,
        );
        assert!(out.is_err(), "shape-mismatched frame must evict, got {out:?}");
        assert!(partial.is_empty(), "nothing may leak into the merge");
        // A worker update where a relay frame belongs: eviction.
        let stray = dict(&[("a.weight", 4)]);
        let out =
            fold(Upload::Update { payload: stray.to_bytes(), compressed: false }, &mut partial);
        assert!(out.is_err(), "stray worker update must evict, got {out:?}");
        // A compressed frame whose declared length is forged to 2^60
        // (once an allocator abort, not an eviction), and an honest one
        // of an image no sum over this template can have: both refused
        // before anything is sized by them.
        let codec = PsumCodec::with_stride(PartialSum::EXACT_STRIDE);
        let mut honest = PartialSum::new();
        honest.accumulate(&dict(&[("a.weight", 4)]), 2.0);
        let image = honest.encode_exact();
        let frame = codec.compress(&image);
        let mut forged = frame[..2].to_vec();
        write_uvarint(&mut forged, 1 << 60);
        forged.extend_from_slice(&frame[2 + uvarint_len(image.len() as u64)..]);
        for payload in [forged, codec.compress(&other.encode_exact())] {
            let out = fold(Upload::Partial { payload, compressed: true }, &mut partial);
            assert!(out.unwrap_err().contains("larger than the receiver accepts"));
        }
        assert!(partial.is_empty());
        // An empty frame (a relay whose workers all died) is fine.
        let empty = codec.compress(&PartialSum::new().encode_exact());
        let out = fold(Upload::Partial { payload: empty, compressed: true }, &mut partial);
        assert_eq!(out, Ok(0));
        assert_eq!(packed, 1, "empty frames still count as received frames");
    }

    #[test]
    fn overflowing_psum_frames_are_rejected_not_panicked() {
        // Two frames whose accumulator bits are near i128::MAX merge to
        // an overflow; merge_from must refuse the second frame and leave
        // the first intact.
        let step = FoldStep::new(&StagePolicy::Raw, dict(&[("a.weight", 1)]));
        let extreme = {
            let mut sum = PartialSum::new();
            sum.accumulate(&dict(&[("a.weight", 1)]), 1.0);
            let mut image = sum.encode_exact();
            // Entry count varint, name, rank, dim are a short prefix;
            // overwrite the single 16-byte accumulator with MAX bits.
            let acc_at = image.len() - 16 - 16 - 1; // acc | weight | contributions
            image[acc_at..acc_at + 16].copy_from_slice(&i128::MAX.to_le_bytes());
            image
        };
        let mut partial = PartialSum::new();
        let (mut raw, mut packed) = (0usize, 0usize);
        let mut fold = |payload, partial: &mut PartialSum| {
            fold_upload(
                Upload::Partial { payload, compressed: false },
                true,
                &step,
                None,
                partial,
                &mut raw,
                &mut packed,
            )
            .map(|(n, _)| n)
        };
        assert_eq!(fold(extreme.clone(), &mut partial), Ok(1), "one extreme frame still merges");
        let out = fold(extreme, &mut partial);
        assert!(out.is_err(), "the overflowing second frame must evict, got {out:?}");
        assert_eq!(partial.contributions(), 1, "the failed merge must not corrupt the partial");
    }
}
