//! The reactor-based TCP server: `fedsz serve` as root or relay
//! aggregator.
//!
//! One [`NetServer`] owns a listener and multiplexes **every** child
//! session (workers, or downstream relays) through a single
//! [`Reactor`] thread — nonblocking sockets, a `poll(2)` readiness
//! loop, per-connection frame reassembly and write-backpressured
//! outboxes. Each round the main loop queues one encode-once broadcast
//! frame on every live session, then runs the round barrier by pumping
//! reactor events until every awaited child has contributed or the
//! deadline hits — evicting the silent, merging what arrived, and
//! moving on.
//!
//! Membership is *elastic*: an evicted or disconnected worker may
//! reconnect (its `Join` replaces the dead session) and re-enter at
//! the next round barrier; within `reconnect_grace` of a disconnect
//! the barrier even holds the current round open so a resumed session
//! can resend its cached update. When a relay dies mid-tree, a sharded
//! root opens that shard's client range for *adoption*: the orphaned
//! workers re-parent directly to the root and the round completes
//! degraded instead of hanging.
//!
//! Aggregation reuses the simulator's exact machinery: every worker
//! update goes through the shared [`FoldStep`] (decode → validate
//! against the architecture), then into a [`PartialSum`] in ascending
//! child order; relay
//! frames are [`PartialSum::decode_exact`]-ed and merged, and the
//! fixed-point accumulator makes the result independent of process
//! placement — the bit-parity the integration tests pin down.

use crate::agg::{Downlink, PartialSum};
use crate::net::{global_checksum, invalid};
use crate::plan::RoundPlan;
use crate::step::FoldStep;
use crate::FlConfig;
use fedsz::FedSz;
use fedsz_lossless::PsumCodec;
use fedsz_net::{Message, NetError, Reactor, ReactorEvent, Session, Token};
use fedsz_nn::{Model, StateDict};
use fedsz_telemetry::{Telemetry, Value};
use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Longest one connection may sit in the handshake before it is
/// dropped (kept well under any sane accept window so a stalled
/// connection cannot starve the join barrier).
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(2);

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
        let durations = [
            ("accept_timeout", self.accept_timeout),
            ("round_timeout", self.round_timeout),
            ("reconnect_grace", self.reconnect_grace),
        ];
        if let Some((name, _)) = durations.iter().find(|(_, d)| d.is_zero()) {
            return Err(invalid(format!("{name} must be positive")));
        }
        if self.max_sessions == 0 {
            return Err(invalid("max_sessions must be at least 1"));
        }
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

    /// The client ids this server expects as direct children: the
    /// whole cohort (flat root), one id per relay shard (sharded
    /// root), or the relay's contiguous worker range.
    ///
    /// # Panics
    ///
    /// Panics when the configuration fails [`ServeConfig::plan`]
    /// validation. Fallible callers should validate via
    /// [`ServeConfig::plan`] first (the CLI does).
    pub fn expected_children(&self) -> Vec<u64> {
        let plan = self.plan().unwrap_or_else(|e| panic!("{e}"));
        Self::expected_children_of(&plan, &self.role)
    }

    /// [`ServeConfig::expected_children`] over a plan
    /// [`ServeConfig::plan`] already validated for `role`.
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
#[derive(Debug, Clone, Copy, PartialEq)]
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
    /// contributions: every `PartialSum::accumulate` / `try_merge`,
    /// plus the root's `finish`. Decode is excluded, which is how
    /// [`FlatAggregator`](crate::agg::FlatAggregator) times its merge.
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

/// What a child sent back for one round.
enum Upload {
    /// A leaf worker's (possibly FedSZ-compressed) update.
    Update { payload: Vec<u8>, compressed: bool },
    /// A relay's partial-sum frame (exact accumulator image, possibly
    /// `PsumCodec`-compressed).
    Partial { payload: Vec<u8>, compressed: bool },
}

/// One child seat in the membership table. Relay and worker id spaces
/// overlap (shard 0 and client 0 are distinct children), so the key
/// carries the kind — the `Join.relay` flag on the wire resolves which
/// seat a connection claims.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum ChildKey {
    /// A downstream relay, by shard index (sharded root only).
    Relay(u32),
    /// A leaf worker, by client id.
    Worker(u64),
}

impl ChildKey {
    fn id(self) -> u64 {
        match self {
            ChildKey::Relay(shard) => u64::from(shard),
            ChildKey::Worker(id) => id,
        }
    }
}

/// Per-child membership state, persisting across connections: the seat
/// survives a disconnect so a resumed session can rebind to it.
#[derive(Debug, Default)]
struct Slot {
    /// The live reactor connection, when bound.
    token: Option<Token>,
    /// When the last connection died (grace windows key off this).
    disconnected_at: Option<Instant>,
    /// Why the last connection died, for the eviction record.
    disconnect_reason: Option<String>,
    /// Protocol violators and dead relays never rebind.
    permanent: bool,
    /// An eviction has been recorded for the current disconnection
    /// episode — cleared on rebind, so one outage is one eviction row
    /// however many rounds it spans.
    episode_evicted: bool,
    /// Whether any connection ever bound this seat (a never-joined
    /// expected child is not evicted — it just never existed).
    ever_bound: bool,
}

/// The reactor-driven server runtime: membership table, round barrier
/// and elastic reconnect/re-parent bookkeeping around one [`Reactor`].
struct Runtime<'a> {
    reactor: Reactor,
    config: &'a ServeConfig,
    /// The worker range of each relay shard; non-empty exactly at a
    /// sharded root (whose children are relays and whose adoption
    /// windows map shards to client ranges).
    shard_ranges: Vec<Range<usize>>,
    slots: BTreeMap<ChildKey, Slot>,
    by_token: BTreeMap<Token, ChildKey>,
    /// Accepted connections that have not sent their Join yet, with
    /// their handshake deadlines.
    pending: Vec<(Token, Instant)>,
    /// Shards whose relay died, with the death instant: their workers
    /// may re-parent here, and the barrier holds one grace window for
    /// them.
    failed_shards: BTreeMap<u32, Instant>,
    events: Vec<ReactorEvent>,
    // --- current-round state ---
    round: u32,
    in_round: bool,
    frame: Option<Arc<Vec<u8>>>,
    got: BTreeMap<ChildKey, Upload>,
    up_bytes: usize,
    down_bytes: usize,
    evicted_now: usize,
    reconnects_now: usize,
    reparented_now: usize,
    reconnects_total: usize,
    reparented_total: usize,
    evictions: Vec<(u64, u32, String)>,
}

impl<'a> Runtime<'a> {
    fn new(
        reactor: Reactor,
        config: &'a ServeConfig,
        shard_ranges: Vec<Range<usize>>,
        expected: &[ChildKey],
    ) -> Self {
        let slots = expected.iter().map(|&key| (key, Slot::default())).collect();
        Self {
            reactor,
            config,
            shard_ranges,
            slots,
            by_token: BTreeMap::new(),
            pending: Vec::new(),
            failed_shards: BTreeMap::new(),
            events: Vec::new(),
            round: 0,
            in_round: false,
            frame: None,
            got: BTreeMap::new(),
            up_bytes: 0,
            down_bytes: 0,
            evicted_now: 0,
            reconnects_now: 0,
            reparented_now: 0,
            reconnects_total: 0,
            reparented_total: 0,
            evictions: Vec::new(),
        }
    }

    fn live_tokens(&self) -> Vec<Token> {
        self.slots.values().filter(|s| !s.permanent).filter_map(|s| s.token).collect()
    }

    /// Whether a worker id falls inside a failed relay's shard — the
    /// adoption rule. The window never closes (the relay is never
    /// coming back); only the *barrier hold* for prospective adoptees
    /// is grace-bounded.
    fn adoptable(&self, id: u64) -> bool {
        self.shard_of(id).is_some_and(|shard| self.failed_shards.contains_key(&shard))
    }

    /// The relay shard whose range holds worker `id` (`None` off a
    /// sharded root, or for an id outside the cohort).
    fn shard_of(&self, id: u64) -> Option<u32> {
        let id = usize::try_from(id).ok()?;
        self.shard_ranges.iter().position(|range| range.contains(&id)).map(|shard| shard as u32)
    }

    /// Whether a failed relay's shard still has a worker that has not
    /// re-parented here.
    fn orphan_missing(&self, shard: u32) -> bool {
        self.shard_ranges[shard as usize]
            .clone()
            .any(|id| !self.slots.contains_key(&ChildKey::Worker(id as u64)))
    }

    /// One poll-and-dispatch tick, bounded by `timeout`.
    fn pump(&mut self, timeout: Duration) -> Result<(), NetError> {
        let mut events = std::mem::take(&mut self.events);
        let result = self.reactor.poll(timeout, &mut events);
        if result.is_err() {
            self.events = events;
            return result;
        }
        for event in events.drain(..) {
            match event {
                ReactorEvent::Accepted(token) => {
                    self.pending.push((token, Instant::now() + HANDSHAKE_TIMEOUT));
                }
                ReactorEvent::Frame(token, message) => self.handle_frame(token, message),
                ReactorEvent::Closed(token, reason) => self.handle_closed(token, reason),
            }
        }
        self.events = events;
        Ok(())
    }

    /// Drops pending connections that never produced their Join.
    fn expire_handshakes(&mut self, now: Instant) {
        let mut i = 0;
        while i < self.pending.len() {
            if now >= self.pending[i].1 {
                let (token, _) = self.pending.swap_remove(i);
                self.reactor.close(token);
            } else {
                i += 1;
            }
        }
    }

    /// The handshake barrier: pumps the reactor until every expected
    /// child has joined at least once or the accept deadline passes.
    /// The listener keeps accepting afterwards — membership is
    /// elastic, this phase only front-loads the common case.
    fn accept_phase(&mut self) -> Result<(), NetError> {
        let span = self
            .config
            .telemetry
            .span_with("reactor.accept", &[("expected", Value::U64(self.slots.len() as u64))]);
        let deadline = Instant::now() + self.config.accept_timeout;
        loop {
            let now = Instant::now();
            self.expire_handshakes(now);
            if now >= deadline || self.slots.values().all(|s| s.ever_bound) {
                break;
            }
            let mut wake = deadline;
            for &(_, at) in &self.pending {
                if at > now {
                    wake = wake.min(at);
                }
            }
            self.pump(wake.saturating_duration_since(now).max(Duration::from_millis(1)))?;
        }
        drop(span);
        Ok(())
    }

    /// A connection's first frame was a Join: bind it to its seat, or
    /// drop it. Rejected joins are closed *without* a Shutdown frame —
    /// a retrying worker sees a dead socket and keeps retrying, while
    /// Shutdown is reserved for real teardown.
    fn handle_join(&mut self, token: Token, client_id: u64, relay: bool) {
        let key =
            if relay { ChildKey::Relay(client_id as u32) } else { ChildKey::Worker(client_id) };
        let known = self.slots.contains_key(&key);
        let adoption = !known && !relay && self.adoptable(client_id);
        if (!known && !adoption) || (known && self.slots[&key].permanent) {
            self.reactor.close(token);
            return;
        }
        if adoption {
            self.slots.insert(key, Slot::default());
        }
        let slot = self.slots.get_mut(&key).expect("seat exists or was just created");
        // A rebind on an occupied seat wins: the old connection is a
        // dead socket the reactor has not noticed yet (the reconnect
        // race), and closing it here suppresses its obituary.
        if let Some(old) = slot.token.take() {
            self.by_token.remove(&old);
            self.reactor.close(old);
        }
        let rejoin = slot.ever_bound;
        slot.token = Some(token);
        slot.ever_bound = true;
        slot.disconnected_at = None;
        slot.disconnect_reason = None;
        slot.episode_evicted = false;
        self.by_token.insert(token, key);
        let telemetry = &self.config.telemetry;
        let labels =
            [("child", Value::U64(client_id)), ("round", Value::U64(u64::from(self.round)))];
        if adoption {
            telemetry.event("serve.reparent", &labels);
            telemetry.add("fedsz_net_sessions_total", 1.0);
            telemetry.add("fedsz_net_reparent_total", 1.0);
            telemetry.add("fedsz_net_reconnects_total", 1.0);
            self.reparented_now += 1;
            self.reparented_total += 1;
            self.reconnects_now += 1;
            self.reconnects_total += 1;
        } else if rejoin {
            telemetry.event("serve.rejoin", &labels);
            telemetry.add("fedsz_net_reconnects_total", 1.0);
            self.reconnects_now += 1;
            self.reconnects_total += 1;
        } else {
            telemetry.event("serve.connect", &[("child", Value::U64(client_id))]);
            telemetry.add("fedsz_net_sessions_total", 1.0);
        }
        // A mid-round (re)join gets the current broadcast immediately,
        // so a resumed session can resend its cached update (and an
        // adopted orphan can train) before the barrier closes.
        if self.in_round && !self.got.contains_key(&key) {
            if let Some(frame) = &self.frame {
                self.reactor.send(token, Arc::clone(frame));
            }
        }
    }

    fn handle_frame(&mut self, token: Token, message: Message) {
        if let Some(pos) = self.pending.iter().position(|&(t, _)| t == token) {
            self.pending.swap_remove(pos);
            match message {
                Message::Join { client_id, relay, .. } => self.handle_join(token, client_id, relay),
                // Anything else before the Join is not our protocol.
                _ => self.reactor.close(token),
            }
            return;
        }
        let Some(&key) = self.by_token.get(&token) else {
            return; // raced a close; nothing to attribute the frame to
        };
        let wire_in = message.encoded_len();
        let (claimed, r, upload) = match message {
            Message::Update { round, client_id, payload, compressed } => {
                (client_id, round, Upload::Update { payload, compressed })
            }
            Message::PartialSum { round, shard, payload, .. } => {
                (u64::from(shard), round, Upload::Partial { payload, compressed: false })
            }
            Message::PartialSumCompressed { round, shard, payload, .. } => {
                (u64::from(shard), round, Upload::Partial { payload, compressed: true })
            }
            other => {
                self.protocol_evict(key, format!("unexpected reply {other:?}"));
                return;
            }
        };
        if claimed != key.id() {
            self.protocol_evict(
                key,
                format!("contribution claims id {claimed} on a session joined as {}", key.id()),
            );
            return;
        }
        if r > self.round {
            self.protocol_evict(
                key,
                format!("contribution for future round {r} during round {}", self.round),
            );
            return;
        }
        // Stale rounds are resume resends whose original already
        // merged (or missed its barrier); duplicates are the reconnect
        // race resending into a seat that already contributed. Both
        // are ignored, never evicted.
        if r < self.round || !self.in_round || self.got.contains_key(&key) {
            return;
        }
        self.up_bytes += wire_in;
        self.down_bytes += self.frame.as_ref().map_or(0, |f| f.len());
        self.got.insert(key, upload);
    }

    fn handle_closed(&mut self, token: Token, reason: String) {
        if let Some(pos) = self.pending.iter().position(|&(t, _)| t == token) {
            self.pending.swap_remove(pos);
            return;
        }
        let Some(key) = self.by_token.remove(&token) else { return };
        let Some(slot) = self.slots.get_mut(&key) else { return };
        if slot.token != Some(token) {
            return; // a replaced connection's obituary
        }
        slot.token = None;
        slot.disconnected_at = Some(Instant::now());
        slot.disconnect_reason = Some(reason.clone());
        // A dead relay cannot resume its shard's mid-round state:
        // evict it permanently and open the shard for adoption so its
        // orphaned workers can re-parent here.
        if let ChildKey::Relay(shard) = key {
            slot.permanent = true;
            if !slot.episode_evicted {
                slot.episode_evicted = true;
                record_eviction(&self.config.telemetry, key.id(), self.round, &reason);
                self.evictions.push((key.id(), self.round, reason));
                self.evicted_now += 1;
            }
            self.failed_shards.entry(shard).or_insert_with(Instant::now);
        }
    }

    /// Evicts a child for a protocol violation (bad frame, undecodable
    /// upload): the seat is closed permanently — unlike a disconnect,
    /// rejoining cannot cure bad bytes.
    fn protocol_evict(&mut self, key: ChildKey, reason: String) {
        let Some(slot) = self.slots.get_mut(&key) else { return };
        if let Some(token) = slot.token.take() {
            self.by_token.remove(&token);
            self.reactor.close(token);
        }
        slot.permanent = true;
        if !slot.episode_evicted {
            slot.episode_evicted = true;
            record_eviction(&self.config.telemetry, key.id(), self.round, &reason);
            self.evictions.push((key.id(), self.round, reason));
            self.evicted_now += 1;
        }
        if let ChildKey::Relay(shard) = key {
            self.failed_shards.entry(shard).or_insert_with(Instant::now);
        }
        self.got.remove(&key);
    }

    /// Queues the round's broadcast on every live session and resets
    /// the per-round collection state.
    fn begin_round(&mut self, round: u32, frame: Arc<Vec<u8>>) {
        self.round = round;
        self.in_round = true;
        self.got.clear();
        self.up_bytes = 0;
        self.down_bytes = 0;
        let tokens = self.live_tokens();
        self.reactor.broadcast(&tokens, &frame);
        self.frame = Some(frame);
    }

    /// Whether the barrier still has someone to wait for: a live
    /// uncontributed seat, a disconnected seat inside its grace
    /// window, or a freshly failed shard whose orphans may still
    /// re-parent.
    fn awaiting(&self, now: Instant) -> bool {
        let grace = self.config.reconnect_grace;
        for (key, slot) in &self.slots {
            if slot.permanent || slot.episode_evicted || self.got.contains_key(key) {
                continue;
            }
            match slot.token {
                Some(_) => return true,
                None => {
                    if slot.ever_bound && slot.disconnected_at.is_some_and(|at| now < at + grace) {
                        return true;
                    }
                }
            }
        }
        self.failed_shards.iter().any(|(&shard, &died)| {
            now < died + grace
                && !self.got.contains_key(&ChildKey::Relay(shard))
                && self.orphan_missing(shard)
        })
    }

    /// The earliest instant after `now` at which waiting state can
    /// change without socket activity.
    fn next_wake(&self, deadline: Instant, now: Instant) -> Instant {
        let grace = self.config.reconnect_grace;
        let mut wake = deadline;
        let mut consider = |at: Instant| {
            if at > now && at < wake {
                wake = at;
            }
        };
        for &(_, at) in &self.pending {
            consider(at);
        }
        for (key, slot) in &self.slots {
            if slot.permanent || slot.episode_evicted || self.got.contains_key(key) {
                continue;
            }
            if slot.token.is_none() {
                if let Some(at) = slot.disconnected_at {
                    consider(at + grace);
                }
            }
        }
        for &died in self.failed_shards.values() {
            consider(died + grace);
        }
        wake
    }

    /// The round barrier: pumps the reactor until nobody is awaited or
    /// the round deadline hits.
    fn run_barrier(&mut self) -> Result<(), NetError> {
        let live = self.live_tokens().len();
        let span = self.config.telemetry.span_with(
            "serve.barrier",
            &[("round", Value::U64(u64::from(self.round))), ("live", Value::U64(live as u64))],
        );
        let deadline = Instant::now() + self.config.round_timeout;
        loop {
            let now = Instant::now();
            self.expire_handshakes(now);
            if now >= deadline || !self.awaiting(now) {
                break;
            }
            let wake = self.next_wake(deadline, now);
            self.pump(wake.saturating_duration_since(now).max(Duration::from_millis(1)))?;
        }
        drop(span);
        Ok(())
    }

    /// Settles the round after the barrier: evicts the silent and the
    /// disconnected (once per outage), charges the frame-byte
    /// counters, and hands back the round's contributions.
    fn finish_barrier(&mut self) -> BTreeMap<ChildKey, Upload> {
        let now = Instant::now();
        let keys: Vec<ChildKey> = self.slots.keys().copied().collect();
        for key in keys {
            let slot = self.slots.get_mut(&key).expect("key came from the map");
            if slot.permanent || slot.episode_evicted || self.got.contains_key(&key) {
                continue;
            }
            let reason = match slot.token.take() {
                Some(token) => {
                    // Silent but connected: drop the session. The seat
                    // stays rebindable — the child may reconnect and
                    // re-enter at a later barrier.
                    self.by_token.remove(&token);
                    self.reactor.close(token);
                    slot.disconnected_at = Some(now);
                    "silent past the round deadline".to_string()
                }
                None => {
                    if !slot.ever_bound {
                        continue; // never joined: not a child, not an eviction
                    }
                    slot.disconnect_reason
                        .clone()
                        .unwrap_or_else(|| "silent past the round deadline".to_string())
                }
            };
            slot.episode_evicted = true;
            record_eviction(&self.config.telemetry, key.id(), self.round, &reason);
            self.evictions.push((key.id(), self.round, reason));
            self.evicted_now += 1;
        }
        self.config.telemetry.add_labeled(
            "fedsz_net_frame_bytes_total",
            "dir",
            "out",
            self.down_bytes as f64,
        );
        self.config.telemetry.add_labeled(
            "fedsz_net_frame_bytes_total",
            "dir",
            "in",
            self.up_bytes as f64,
        );
        self.in_round = false;
        std::mem::take(&mut self.got)
    }

    /// Resets the per-round counters after the round row is recorded.
    fn end_round(&mut self) {
        self.evicted_now = 0;
        self.reconnects_now = 0;
        self.reparented_now = 0;
        self.frame = None;
    }

    /// Whether anyone is connected or could still legally return —
    /// the session keeps running while this holds.
    fn any_prospect(&self, now: Instant) -> bool {
        let grace = self.config.reconnect_grace;
        if self.slots.values().any(|s| !s.permanent && s.token.is_some()) {
            return true;
        }
        if self.slots.values().any(|s| {
            !s.permanent && s.ever_bound && s.disconnected_at.is_some_and(|at| now < at + grace)
        }) {
            return true;
        }
        self.failed_shards
            .iter()
            .any(|(&shard, &died)| now < died + grace && self.orphan_missing(shard))
    }

    /// Broadcasts Shutdown to every live session and pumps until the
    /// outboxes drain (bounded), then closes everything.
    fn teardown(&mut self) {
        let tokens = self.live_tokens();
        let span = self
            .config
            .telemetry
            .span_with("reactor.flush", &[("sessions", Value::U64(tokens.len() as u64))]);
        self.reactor.set_accepting(false);
        let frame = Arc::new(Message::Shutdown.encode());
        self.reactor.broadcast(&tokens, &frame);
        let deadline = Instant::now() + Duration::from_secs(2);
        while tokens.iter().any(|&t| !self.reactor.outbox_empty(t)) && Instant::now() < deadline {
            if self.pump(Duration::from_millis(20)).is_err() {
                break;
            }
        }
        for token in tokens {
            self.reactor.close(token);
        }
        drop(span);
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
        // One validation pass up front: the rest of the session works
        // off the plan.
        let plan = config.plan()?;
        // Pre-declare the lifecycle counters so a `/metrics` scrape
        // during the accept barrier already sees them at zero.
        config.telemetry.declare_counter("fedsz_net_sessions_total");
        config.telemetry.declare_counter("fedsz_net_evictions_total");
        config.telemetry.declare_counter("fedsz_net_reconnects_total");
        config.telemetry.declare_counter("fedsz_net_reparent_total");
        let expected = ServeConfig::expected_children_of(&plan, &config.role);
        // A relay announces itself upstream before accepting its own
        // children, so a deep deployment can start in any order.
        let mut upstream = match &config.role {
            Role::Root => None,
            Role::Relay { shard, upstream } => {
                let mut session =
                    Session::connect(upstream, config.accept_timeout).map_err(NetError::Io)?;
                session.send(&Message::Join {
                    client_id: u64::from(*shard),
                    round: 0,
                    relay: true,
                })?;
                Some(session)
            }
        };

        // A sharded root's children are relays speaking partial-sum
        // frames; everyone else's children are workers speaking
        // updates (the per-seat ChildKey encodes which).
        let shard_ranges: Vec<Range<usize>> = match config.role {
            Role::Root => (0..).map_while(|shard| plan.reparent_range(shard)).collect(),
            Role::Relay { .. } => Vec::new(),
        };
        let root_sharded = !shard_ranges.is_empty();
        let expected_keys: Vec<ChildKey> = expected
            .iter()
            .map(|&id| if root_sharded { ChildKey::Relay(id as u32) } else { ChildKey::Worker(id) })
            .collect();

        let reactor = Reactor::new(self.listener, config.max_sessions).map_err(NetError::Io)?;
        let mut rt = Runtime::new(reactor, &config, shard_ranges, &expected_keys);
        rt.accept_phase()?;
        if !rt.slots.values().any(|s| s.ever_bound) {
            return Err(NetError::Protocol(
                "no expected child joined before the accept deadline".into(),
            ));
        }

        // Root state. A relay never materializes the global — it
        // forwards the broadcast bytes verbatim.
        let downlink = Downlink::from_policy(&plan.config.downlink).map_err(invalid)?;
        let psum_codec = PsumCodec::with_stride(PartialSum::EXACT_STRIDE);
        // The shared fold step, over the architecture-derived shape
        // template every child's contribution is validated against
        // before it may touch the merge (whose asserts would otherwise
        // panic the server on a misconfigured child). For the root the
        // template doubles as the initial global model, exactly as the
        // engine builds it.
        let fold = FoldStep::new(&plan.config.uplink, config.fl.build_model().state_dict());
        let mut global = match config.role {
            Role::Root => Some(fold.template().clone()),
            Role::Relay { .. } => None,
        };

        let mut rounds = Vec::new();
        let mut psum_raw_frames = 0usize;
        let mut psum_compressed_frames = 0usize;
        // Round-persistent merge state: the model-sized accumulator and
        // the relay's wire buffers are allocated once and reset/refilled
        // every round instead of reallocated.
        let mut partial = PartialSum::new();
        let mut image: Vec<u8> = Vec::new();
        let mut packed: Vec<u8> = Vec::new();
        let mut round = 0u32;
        loop {
            // Round source: the root drives `fl.rounds` rounds; a relay
            // follows its upstream until Shutdown.
            let (bytes, compressed) = match (&mut upstream, &global) {
                (None, Some(global)) => {
                    if round as usize >= config.fl.rounds {
                        break;
                    }
                    let live = rt.live_tokens().len();
                    let payload = downlink.encode(global, None, live);
                    (payload.bytes, payload.compressed)
                }
                (Some(upstream), _) => match upstream.recv(Some(config.round_timeout))? {
                    Message::GlobalModel { round: r, dict_bytes } => {
                        round = r;
                        (dict_bytes, false)
                    }
                    Message::EncodedGlobal { round: r, payload } => {
                        round = r;
                        (payload, true)
                    }
                    Message::Shutdown => break,
                    other => {
                        return Err(NetError::Protocol(format!(
                            "relay expected a broadcast, got {other:?}"
                        )))
                    }
                },
                (None, None) => unreachable!("a root always holds the global"),
            };
            if let Some(fail) = config.fail_at_round {
                if upstream.is_some() && round >= fail {
                    // The churn-test chaos knob: die abruptly, workers
                    // and upstream left to find the dead sockets.
                    return Err(NetError::Protocol(format!(
                        "fault injection: relay terminated at round {round}"
                    )));
                }
            }

            // Family delta streams decode against the exact broadcast
            // the workers received, so the server re-decodes its own
            // frame bytes once per round — even under a lossy downlink
            // both sides then hold bit-identical reference dicts.
            let uplink_reference: Option<StateDict> = if fold.needs_reference() {
                Some(if compressed {
                    FedSz::decompress_with_config(&bytes)?.0
                } else {
                    StateDict::from_bytes(&bytes)?
                })
            } else {
                None
            };

            // One encode serves the whole fan-out: every child receives
            // byte-identical frames, queued as one shared `Arc` on each
            // session's outbox instead of cloned per child.
            let frame = Arc::new(
                if compressed {
                    Message::EncodedGlobal { round, payload: bytes }
                } else {
                    Message::GlobalModel { round, dict_bytes: bytes }
                }
                .encode(),
            );

            let round_span = config
                .telemetry
                .span_with("serve.round", &[("round", Value::U64(u64::from(round)))]);
            let t0 = Instant::now();
            rt.begin_round(round, frame);
            rt.run_barrier()?;
            let got = rt.finish_barrier();

            // Merge in ascending child order (the exact accumulator
            // makes grouping irrelevant to the bits; the fixed order
            // keeps intermediate state reproducible too). A child whose
            // contribution fails decoding or shape validation is
            // evicted — never allowed near the merge asserts.
            partial.reset();
            let mut merged = 0usize;
            let mut merge_time = Duration::ZERO;
            let relay_contributed: Vec<u32> = got
                .keys()
                .filter_map(|k| match k {
                    ChildKey::Relay(shard) => Some(*shard),
                    ChildKey::Worker(_) => None,
                })
                .collect();
            for (key, upload) in got {
                // A worker seat at a sharded root is an adopted orphan.
                // If its old relay's partial sum for this round arrived
                // before the relay died, the worker's resent update is
                // already inside that sum — drop it here rather than
                // count it twice.
                if let ChildKey::Worker(id) = key {
                    if rt.shard_of(id).is_some_and(|shard| relay_contributed.contains(&shard)) {
                        continue;
                    }
                }
                match fold_upload(
                    upload,
                    matches!(key, ChildKey::Relay(_)),
                    &fold,
                    uplink_reference.as_ref(),
                    &mut partial,
                    &mut psum_raw_frames,
                    &mut psum_compressed_frames,
                ) {
                    Ok((contributions, fold_time)) => {
                        merged += contributions;
                        merge_time += fold_time;
                    }
                    Err(reason) => rt.protocol_evict(key, reason),
                }
            }

            let checksum = match (&mut upstream, &mut global) {
                (None, Some(global)) => {
                    // Root: an empty round keeps the previous global,
                    // exactly like the engine with zero contributions.
                    let t_finish = Instant::now();
                    let next = partial.finish();
                    merge_time += t_finish.elapsed();
                    if let Some(next) = next {
                        *global = next;
                    }
                    global_checksum(global)
                }
                (Some(upstream), _) => {
                    // Relay: ship the exact accumulator image upward
                    // (empty partials included, so the parent's barrier
                    // never waits on a silent relay). The image and the
                    // compressed frame are built in round-persistent
                    // buffers lent to the message and reclaimed after
                    // the send.
                    partial.encode_exact_into(&mut image);
                    let clients = partial.contributions() as u32;
                    let weight = partial.weight_total();
                    let shard = match &config.role {
                        Role::Relay { shard, .. } => *shard,
                        Role::Root => unreachable!("only relays have an upstream"),
                    };
                    // A relay has no per-edge LinkProfile to price
                    // Eqn 1 against, so a priced policy degrades to
                    // Lossless here (the conservative choice on an
                    // unknown uplink); plan() admits no other codec
                    // on this leg.
                    let message = if plan.config.psum.compresses() {
                        psum_codec.compress_into(&image, &mut packed);
                        let payload = std::mem::take(&mut packed);
                        Message::PartialSumCompressed { round, shard, clients, weight, payload }
                    } else {
                        let payload = std::mem::take(&mut image);
                        Message::PartialSum { round, shard, clients, weight, payload }
                    };
                    upstream.send(&message)?;
                    match message {
                        Message::PartialSum { payload, .. } => image = payload,
                        Message::PartialSumCompressed { payload, .. } => packed = payload,
                        _ => unreachable!("relay uplinks are partial-sum frames"),
                    }
                    0
                }
                (None, None) => unreachable!("a root always holds the global"),
            };

            rounds.push(NetRound {
                round,
                downstream_bytes: rt.down_bytes,
                upstream_bytes: rt.up_bytes,
                merged,
                evicted: rt.evicted_now,
                reconnects: rt.reconnects_now,
                reparented: rt.reparented_now,
                wall_secs: t0.elapsed().as_secs_f64(),
                merge_nanos: merge_time.as_nanos() as u64,
                checksum,
            });
            drop(round_span);
            rt.end_round();
            round += 1;
            if !rt.any_prospect(Instant::now()) {
                break; // nobody left to serve, and nobody coming back
            }
        }

        rt.teardown();
        let checksum = global.as_ref().map_or(0, global_checksum);
        Ok(ServeReport {
            rounds,
            global,
            checksum,
            evicted: rt.evictions.len(),
            evictions: std::mem::take(&mut rt.evictions),
            reconnects: rt.reconnects_total,
            reparented: rt.reparented_total,
            psum_raw_frames,
            psum_compressed_frames,
        })
    }
}

/// One eviction, observable two ways: a `serve.evict` instant event
/// (child id, round, reason — the event's `ts` is trace-relative, so
/// the trace records *when* the child was dropped) and the
/// `fedsz_net_evictions_total` counter a `/metrics` scrape sees.
fn record_eviction(telemetry: &Telemetry, id: u64, round: u32, reason: &str) {
    telemetry.event(
        "serve.evict",
        &[
            ("child", Value::U64(id)),
            ("round", Value::U64(u64::from(round))),
            ("reason", Value::Str(reason)),
        ],
    );
    telemetry.add("fedsz_net_evictions_total", 1.0);
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
            partial.try_merge(remote).map_err(|e| format!("unmergeable psum frame: {e}"))?;
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
        assert_eq!(ServeConfig::root(fl.clone()).expected_children(), vec![0, 1, 2, 3]);
        // A relay role the plan's tree cannot place is refused the same
        // way (`NetServer::run` starts with this call), not panicked
        // on: an out-of-range shard, or any shard of a flat plan.
        let relay = |fl: &FlConfig, shard| ServeConfig::relay(fl.clone(), shard, "h:1".into());
        assert_eq!(relay(&fl, 3).expected_children(), vec![3]);
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
        // an overflow; try_merge must refuse the second frame and leave
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
