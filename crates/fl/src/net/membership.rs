//! The membership table of `fedsz serve`: child seats, pending
//! handshakes and failed relay shards, with the join, close and evict
//! rules over them.
//!
//! Every expected child (a worker by client id, or at a sharded root a
//! relay by shard index) owns one [`Seat`], which outlives its
//! connections so a resumed session can rebind to it:
//!
//! ```text
//!   Empty ──Join──▶ Live(token) ── conn lost, or silent ──▶ Away { since, reason, evicted }
//!                    │  ▲  ▲        at the round deadline       │
//!                    │  │  └─────── Join (rebind/resume) ───────┘
//!                    │  └── Join (rebind: the older connection is closed)
//!                    ▼ protocol violation, or a dead relay
//!                  Banned (refuses every Join)
//! ```
//!
//! A connection is *pending* until its first frame, which must be a
//! `Join` for a known seat, or for a worker of a failed relay's shard
//! (*adopted* onto a new seat). [`Seat::hold`] is the one hold rule:
//! the barrier, its wake instant and the session-continues check all
//! read it. `Membership::evict` is the one eviction record, written
//! once per outage. The table never touches a socket: it hands back the
//! connections to close, so its tests drive it with integer tokens.

use crate::net::server::{NetRound, Role, ServeConfig};
use crate::plan::RoundPlan;
use fedsz_net::Token;
use fedsz_telemetry::{Telemetry, Value};
use std::collections::BTreeMap;
use std::ops::Range;
use std::time::{Duration, Instant};

/// Longest a connection may sit in the handshake: a stalled one must
/// not starve the join barrier.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(2);

/// Why a connected child that sent nothing by the deadline is evicted.
const SILENT: &str = "silent past the round deadline";

/// A seat's key: relay and worker ids overlap, so it carries the kind
/// the `Join.relay` flag names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(super) enum ChildKey {
    /// A downstream relay, by shard index (sharded root only).
    Relay(u32),
    /// A leaf worker, by client id.
    Worker(u64),
}

impl ChildKey {
    pub(super) fn id(self) -> u64 {
        match self {
            ChildKey::Relay(shard) => u64::from(shard),
            ChildKey::Worker(id) => id,
        }
    }
}

/// One child seat; `T` is the connection handle (a reactor [`Token`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) enum Seat<T = Token> {
    /// Expected but never joined: not a child yet, so never evicted.
    Empty,
    /// Bound to a live connection.
    Live(T),
    /// Lost its connection at `since`, rebindable; `evicted` once the
    /// outage is recorded.
    Away { since: Instant, reason: String, evicted: bool },
    /// A protocol violator or a dead relay: never rebinds.
    Banned,
}

/// How long a seat or a failed shard is waited on: for the whole round
/// (a live seat), or until an instant (a lost seat, a failed shard).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Hold {
    Open,
    Until(Instant),
}

impl<T> Seat<T> {
    /// The hold rule: a live seat is held, a lost one until `grace`
    /// after it left, an empty or banned one not at all.
    pub(super) fn hold(&self, grace: Duration) -> Option<Hold> {
        match self {
            Seat::Live(_) => Some(Hold::Open),
            Seat::Away { since, .. } => Some(Hold::Until(*since + grace)),
            Seat::Empty | Seat::Banned => None,
        }
    }
}

/// One server's membership table.
#[derive(Debug)]
pub(super) struct Membership<T = Token> {
    seats: BTreeMap<ChildKey, Seat<T>>,
    /// The key of every `Live` seat's connection.
    by_token: BTreeMap<T, ChildKey>,
    /// Connections that have not sent their Join, with their deadlines.
    pending: Vec<(T, Instant)>,
    /// Each relay shard's worker range (a sharded root only).
    shard_ranges: Vec<Range<usize>>,
    /// Shards whose relay died, and when: their workers may re-parent.
    failed_shards: BTreeMap<u32, Instant>,
    grace: Duration,
    telemetry: Telemetry,
    /// The session's evictions, rejoins and adoptions.
    pub(super) evictions: Vec<(u64, u32, String)>,
    pub(super) reconnects: usize,
    pub(super) reparented: usize,
}

impl<T: Copy + Ord> Membership<T> {
    /// One empty seat per [`ServeConfig::expected_children_of`].
    pub(super) fn new(config: &ServeConfig, plan: &RoundPlan) -> Self {
        let shard_ranges: Vec<Range<usize>> = match config.role {
            Role::Root => (0..).map_while(|shard| plan.reparent_range(shard)).collect(),
            Role::Relay { .. } => Vec::new(),
        };
        let sharded = !shard_ranges.is_empty();
        let key = |id| if sharded { ChildKey::Relay(id as u32) } else { ChildKey::Worker(id) };
        let expected = ServeConfig::expected_children_of(plan, &config.role);
        let seats = expected.into_iter().map(|id| (key(id), Seat::Empty)).collect();
        Self {
            seats,
            by_token: BTreeMap::new(),
            pending: Vec::new(),
            shard_ranges,
            failed_shards: BTreeMap::new(),
            grace: config.reconnect_grace,
            telemetry: config.telemetry.clone(),
            evictions: Vec::new(),
            reconnects: 0,
            reparented: 0,
        }
    }

    /// Whether every seat, or any, has ever been bound.
    pub(super) fn all_joined(&self) -> bool {
        self.seats.values().all(|seat| !matches!(seat, Seat::Empty))
    }

    pub(super) fn any_joined(&self) -> bool {
        self.seats.values().any(|seat| !matches!(seat, Seat::Empty))
    }

    /// The connections of every live seat, in key order.
    pub(super) fn live_tokens(&self) -> Vec<T> {
        let live = |seat: &Seat<T>| if let Seat::Live(token) = seat { Some(*token) } else { None };
        self.seats.values().filter_map(live).collect()
    }

    /// The seat a live connection is bound to.
    pub(super) fn key_of(&self, token: T) -> Option<ChildKey> {
        self.by_token.get(&token).copied()
    }

    /// The relay shard whose range holds worker `id`, at a sharded root.
    pub(super) fn shard_of(&self, id: u64) -> Option<u32> {
        let id = usize::try_from(id).ok()?;
        self.shard_ranges.iter().position(|range| range.contains(&id)).map(|shard| shard as u32)
    }

    /// A new connection: it has one handshake window to send its Join.
    pub(super) fn accepted(&mut self, token: T, now: Instant) {
        self.pending.push((token, now + HANDSHAKE_TIMEOUT));
    }

    /// Takes `token` off the pending handshakes; whether it was there.
    pub(super) fn take_pending(&mut self, token: T) -> bool {
        let pos = self.pending.iter().position(|&(t, _)| t == token);
        pos.map(|pos| self.pending.swap_remove(pos)).is_some()
    }

    /// Hands `close` every pending connection past its deadline.
    pub(super) fn expire_handshakes(&mut self, now: Instant, mut close: impl FnMut(T)) {
        self.pending.retain(|&(token, deadline)| {
            let expired = now >= deadline;
            if expired {
                close(token);
            }
            !expired
        });
    }

    /// A pending connection's Join: binds its seat and returns it with
    /// the older connection it replaced, or `None` for a refused Join
    /// (an unknown or banned seat, a relay id that is no shard index).
    pub(super) fn join(
        &mut self,
        token: T,
        client_id: u64,
        relay: bool,
        row: &mut NetRound,
    ) -> Option<(ChildKey, Option<T>)> {
        // A relay id that no shard index can have is refused.
        let key = if relay {
            ChildKey::Relay(u32::try_from(client_id).ok()?)
        } else {
            ChildKey::Worker(client_id)
        };
        // The adoption window never closes (the relay is never coming
        // back); only the barrier's hold for adoptees is grace-bounded.
        let orphan = |id| self.shard_of(id).is_some_and(|s| self.failed_shards.contains_key(&s));
        let adoption = !relay && !self.seats.contains_key(&key) && orphan(client_id);
        match self.seats.get(&key) {
            Some(Seat::Banned) => return None,
            None if !adoption => return None,
            _ => {}
        }
        let seat = self.seats.entry(key).or_insert(Seat::Empty);
        let rejoin = !matches!(seat, Seat::Empty);
        let replaced = match std::mem::replace(seat, Seat::Live(token)) {
            Seat::Live(old) => self.by_token.remove(&old).map(|_| old),
            _ => None,
        };
        self.by_token.insert(token, key);
        let telemetry = &self.telemetry;
        let labels = [("child", Value::U64(client_id)), ("round", Value::U64(row.round.into()))];
        if !adoption && !rejoin {
            telemetry.event("serve.connect", &labels[..1]);
            telemetry.add("fedsz_net_sessions_total", 1.0);
            return Some((key, replaced));
        }
        if adoption {
            telemetry.event("serve.reparent", &labels);
            telemetry.add("fedsz_net_sessions_total", 1.0);
            telemetry.add("fedsz_net_reparent_total", 1.0);
            row.reparented += 1;
            self.reparented += 1;
        } else {
            telemetry.event("serve.rejoin", &labels);
        }
        telemetry.add("fedsz_net_reconnects_total", 1.0);
        row.reconnects += 1;
        self.reconnects += 1;
        Some((key, replaced))
    }

    /// The reactor reports `token` gone. A worker's seat goes `Away`; a
    /// dead relay cannot resume its shard's mid-round state, so its
    /// seat is banned and the shard opens for adoption.
    pub(super) fn closed(&mut self, token: T, reason: String, now: Instant, row: &mut NetRound) {
        if self.take_pending(token) {
            return;
        }
        // A replaced connection's obituary finds no key.
        let Some(key) = self.key_of(token) else { return };
        if let ChildKey::Relay(_) = key {
            self.ban(key, reason, now, row);
        } else {
            self.by_token.remove(&token);
            self.seats.insert(key, Seat::Away { since: now, reason, evicted: false });
        }
    }

    /// Bans `key`'s seat (rejoining cannot cure bad bytes), records the
    /// eviction unless this outage has one, opens a relay's shard for
    /// adoption, and returns the live connection to close.
    pub(super) fn ban(
        &mut self,
        key: ChildKey,
        reason: String,
        now: Instant,
        row: &mut NetRound,
    ) -> Option<T> {
        let previous = std::mem::replace(self.seats.get_mut(&key)?, Seat::Banned);
        if !matches!(previous, Seat::Banned | Seat::Away { evicted: true, .. }) {
            self.evict(key, reason, row);
        }
        let token = match previous {
            Seat::Live(token) => self.by_token.remove(&token).map(|_| token),
            _ => None,
        };
        if let ChildKey::Relay(shard) = key {
            self.failed_shards.entry(shard).or_insert(now);
        }
        token
    }

    /// Settles a round's barrier: every seat that did not contribute is
    /// evicted once per outage. A silent live one hands its connection
    /// to `close` and goes `Away`, free to re-enter a later round.
    pub(super) fn settle<U>(
        &mut self,
        got: &BTreeMap<ChildKey, U>,
        now: Instant,
        row: &mut NetRound,
        mut close: impl FnMut(T),
    ) {
        let mut charged = Vec::new();
        for (&key, seat) in &mut self.seats {
            let (since, reason) = match seat {
                _ if got.contains_key(&key) => continue,
                Seat::Live(token) => {
                    self.by_token.remove(&*token);
                    close(*token);
                    (now, SILENT.to_string())
                }
                Seat::Away { since, reason, evicted: false } => (*since, std::mem::take(reason)),
                _ => continue,
            };
            charged.push((key, reason.clone()));
            *seat = Seat::Away { since, reason, evicted: true };
        }
        for (key, reason) in charged {
            self.evict(key, reason, row);
        }
    }

    /// The one eviction record: the `serve.evict` event (its `ts` says
    /// when), the `fedsz_net_evictions_total` counter, the session's
    /// eviction row and the round's count.
    fn evict(&mut self, key: ChildKey, reason: String, row: &mut NetRound) {
        self.telemetry.event(
            "serve.evict",
            &[
                ("child", Value::U64(key.id())),
                ("round", Value::U64(u64::from(row.round))),
                ("reason", Value::Str(&reason)),
            ],
        );
        self.telemetry.add("fedsz_net_evictions_total", 1.0);
        row.evicted += 1;
        self.evictions.push((key.id(), row.round, reason));
    }

    /// The holds still running at `now`, by the hold rule. The
    /// barrier's view (`got`) skips who contributed and outages already
    /// recorded; the session's view (`None`) counts every seat. A failed
    /// shard holds while an orphan is still out.
    fn holds<'a, U>(
        &'a self,
        got: Option<&'a BTreeMap<ChildKey, U>>,
        now: Instant,
    ) -> impl Iterator<Item = Hold> + 'a {
        let contributed = move |key: &ChildKey| got.is_some_and(|got| got.contains_key(key));
        let seats = self.seats.iter().filter_map(move |(key, seat)| match seat {
            Seat::Away { evicted: true, .. } if got.is_some() => None,
            _ if contributed(key) => None,
            _ => seat.hold(self.grace),
        });
        let shards = self.failed_shards.iter().filter_map(move |(&shard, &died)| {
            let mut range = self.shard_ranges[shard as usize].clone();
            let orphan_out = range.any(|id| !self.seats.contains_key(&ChildKey::Worker(id as u64)));
            (orphan_out && !contributed(&ChildKey::Relay(shard)))
                .then_some(Hold::Until(died + self.grace))
        });
        seats.chain(shards).filter(move |hold| !matches!(hold, Hold::Until(end) if now >= *end))
    }

    /// Whether the round barrier still waits on someone at `now`.
    pub(super) fn awaiting<U>(&self, got: &BTreeMap<ChildKey, U>, now: Instant) -> bool {
        self.holds(Some(got), now).next().is_some()
    }

    /// The first instant after `now`, by `deadline` at the latest, at
    /// which a handshake window or a barrier hold ends.
    pub(super) fn next_wake<U>(
        &self,
        got: &BTreeMap<ChildKey, U>,
        deadline: Instant,
        now: Instant,
    ) -> Instant {
        let holds = self.holds(Some(got), now).filter_map(|hold| match hold {
            Hold::Until(end) => Some(end),
            Hold::Open => None,
        });
        let handshakes = self.pending.iter().map(|&(_, at)| at).filter(|&at| at > now);
        handshakes.chain(holds).fold(deadline, Instant::min)
    }

    /// Whether anyone is connected or may still return: the session
    /// runs while this holds.
    pub(super) fn any_prospect(&self, now: Instant) -> bool {
        self.holds::<()>(None, now).next().is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlConfig;

    const GRACE: Duration = Duration::from_secs(3);

    /// A root's table with a 3 s grace: flat over workers 0 and 1, or
    /// sharded over relays 0 and 1 whose shards hold workers 0..2 and
    /// 2..4.
    fn table(sharded: bool) -> Membership<u32> {
        let mut fl = FlConfig::smoke_test();
        if sharded {
            fl.clients = 4;
            fl.tree = Some(vec![2]);
        }
        let mut config = ServeConfig::root(fl);
        config.reconnect_grace = GRACE;
        let plan = config.plan().expect("valid test plan");
        Membership::new(&config, &plan)
    }

    /// One event in a seat's life.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        /// A new connection joins the seat.
        Join(u32),
        /// The reactor reports the connection gone.
        Lost(u32),
        /// A round barrier settles with no contribution.
        Barrier,
        /// A protocol violation.
        Ban,
    }

    #[test]
    fn seat_transitions_follow_the_state_machine() {
        let t0 = Instant::now();
        let at = |secs| t0 + Duration::from_secs(secs);
        let away = |since, reason: &str, evicted| Seat::Away {
            since: at(since),
            reason: reason.to_string(),
            evicted,
        };
        let mut m = table(false);
        let mut row = NetRound::default();
        let key = ChildKey::Worker(0);
        let no_uploads = BTreeMap::<ChildKey, ()>::new();
        // (step, at second, the seat after it, the connection the
        // caller must close, evictions recorded so far)
        let steps = [
            (Step::Join(10), 0, Seat::Live(10), None, 0),
            // A rebind wins over the older connection.
            (Step::Join(11), 1, Seat::Live(11), Some(10), 0),
            (Step::Lost(11), 2, away(2, "reset", false), None, 0),
            // One outage is one eviction, however many barriers pass.
            (Step::Barrier, 3, away(2, "reset", true), None, 1),
            (Step::Barrier, 9, away(2, "reset", true), None, 1),
            (Step::Join(12), 10, Seat::Live(12), None, 1),
            // Silent at the deadline: dropped, but free to return.
            (Step::Barrier, 11, away(11, SILENT, true), Some(12), 2),
            (Step::Join(13), 12, Seat::Live(13), None, 2),
            (Step::Ban, 13, Seat::Banned, Some(13), 3),
            // A banned seat refuses the rebind; the caller closes it.
            (Step::Join(14), 14, Seat::Banned, Some(14), 3),
            (Step::Ban, 15, Seat::Banned, None, 3),
        ];
        for (i, (step, secs, seat, closed, evictions)) in steps.into_iter().enumerate() {
            let now = at(secs);
            let to_close = match step {
                Step::Join(token) => {
                    m.accepted(token, now);
                    assert!(m.take_pending(token));
                    match m.join(token, 0, false, &mut row) {
                        Some((bound, replaced)) => {
                            assert_eq!((bound, m.key_of(token)), (key, Some(key)));
                            replaced
                        }
                        None => Some(token),
                    }
                }
                Step::Lost(token) => {
                    m.closed(token, "reset".into(), now, &mut row);
                    assert_eq!(m.key_of(token), None);
                    None
                }
                Step::Barrier => {
                    let mut to_close = None;
                    m.settle(&no_uploads, now, &mut row, |token| to_close = Some(token));
                    to_close
                }
                Step::Ban => m.ban(key, "bad bytes".into(), now, &mut row),
            };
            assert_eq!(m.seats[&key], seat, "step {i} ({step:?})");
            assert_eq!(to_close, closed, "step {i} ({step:?})");
            assert_eq!(m.evictions.len(), evictions, "step {i} ({step:?})");
        }
        // The never-joined worker 1 is never evicted.
        assert_eq!(m.seats[&ChildKey::Worker(1)], Seat::Empty);
        let rows: Vec<_> = m.evictions.iter().map(|(id, _, why)| (*id, why.as_str())).collect();
        assert_eq!(rows, [(0, "reset"), (0, SILENT), (0, "bad bytes")]);
        assert_eq!((row.evicted, row.reconnects, m.reconnects), (3, 3, 3));
    }

    #[test]
    fn holds_and_wakes_follow_each_state_inside_and_past_grace() {
        let t0 = Instant::now();
        let at = |ms| t0 + Duration::from_millis(ms);
        let (inside, past, deadline) = (at(2_999), at(3_000), at(60_000));
        // The rule, state by state.
        let lost = Seat::<u32>::Away { since: t0, reason: "reset".into(), evicted: false };
        assert_eq!(Seat::<u32>::Empty.hold(GRACE), None);
        assert_eq!(Seat::Live(1).hold(GRACE), Some(Hold::Open));
        assert_eq!(lost.hold(GRACE), Some(Hold::Until(t0 + GRACE)));
        assert_eq!(Seat::<u32>::Banned.hold(GRACE), None);

        // Its three readers: the barrier, its wake instant, and the
        // session-continues check.
        let mut m = table(false);
        let mut row = NetRound::default();
        let none = BTreeMap::<ChildKey, ()>::new();
        let first = BTreeMap::from([(ChildKey::Worker(0), ())]);
        assert!(!m.awaiting(&none, t0) && !m.any_prospect(t0), "empty seats hold nothing");
        for token in [1, 2] {
            m.accepted(token, t0);
            assert!(m.take_pending(token));
            assert!(m.join(token, u64::from(token) - 1, false, &mut row).is_some());
        }
        // Live: awaited until the deadline, unless it contributed.
        let both = BTreeMap::from([(ChildKey::Worker(0), ()), (ChildKey::Worker(1), ())]);
        assert!(m.awaiting(&none, past) && !m.awaiting(&both, t0));
        assert_eq!(m.next_wake(&none, deadline, t0), deadline);
        // Away: held for the grace window, and the barrier wakes as it
        // ends.
        m.closed(2, "reset".into(), t0, &mut row);
        assert!(m.awaiting(&first, inside) && !m.awaiting(&first, past));
        assert_eq!(m.next_wake(&first, deadline, at(1_000)), t0 + GRACE);
        assert_eq!(m.next_wake(&first, deadline, past), deadline);
        m.closed(1, "reset".into(), t0, &mut row);
        assert!(m.any_prospect(inside) && !m.any_prospect(past));
        // Recorded at a barrier inside grace: the barrier stops waiting,
        // while the session still waits for a return.
        m.settle(&none, at(1_000), &mut row, |_| panic!("nobody is live"));
        assert!(!m.awaiting(&none, at(1_000)));
        assert_eq!(m.next_wake(&none, deadline, at(1_000)), deadline);
        assert!(m.any_prospect(inside) && !m.any_prospect(past));
        // Banned: never held.
        for id in [0, 1] {
            assert_eq!(m.ban(ChildKey::Worker(id), "bad bytes".into(), t0, &mut row), None);
        }
        assert!(!m.any_prospect(t0));
        assert_eq!(m.evictions.len(), 2, "the bans follow recorded outages");
        // A pending handshake wakes the barrier at its deadline, then
        // expires.
        m.accepted(3, t0);
        assert_eq!(m.next_wake(&none, deadline, t0), t0 + HANDSHAKE_TIMEOUT);
        let mut expired = Vec::new();
        m.expire_handshakes(at(1_999), |token| expired.push(token));
        m.expire_handshakes(t0 + HANDSHAKE_TIMEOUT, |token| expired.push(token));
        assert_eq!(expired, [3]);
    }

    #[test]
    fn a_dead_relay_opens_its_shard_for_adoption() {
        let t0 = Instant::now();
        let mut m = table(true);
        let mut row = NetRound::default();
        for (token, shard) in [(1, 0), (2, 1)] {
            m.accepted(token, t0);
            assert!(m.take_pending(token));
            assert_eq!(
                m.join(token, shard, true, &mut row),
                Some((ChildKey::Relay(shard as u32), None))
            );
        }
        // A relay id past u32 is no shard index: refused, not wrapped
        // onto shard 0.
        assert_eq!(m.join(3, 1 << 32, true, &mut row), None);
        // A worker of a live relay's shard has no seat here.
        assert_eq!(m.join(3, 2, false, &mut row), None);

        m.closed(1, "reset".into(), t0, &mut row);
        assert_eq!(m.seats[&ChildKey::Relay(0)], Seat::Banned);
        assert_eq!(m.evictions, [(0, 0, "reset".to_string())]);
        assert_eq!(m.join(3, 0, true, &mut row), None, "a dead relay never rebinds");
        // Shard 0's orphans are awaited for one grace window.
        let mut got = BTreeMap::from([(ChildKey::Relay(1), ())]);
        let inside = t0 + GRACE - Duration::from_millis(1);
        assert!(m.awaiting(&got, inside) && !m.awaiting(&got, t0 + GRACE));
        assert_eq!(m.next_wake(&got, t0 + GRACE * 10, t0), t0 + GRACE);
        for (token, id) in [(4, 0), (5, 1)] {
            assert_eq!(m.join(token, id, false, &mut row), Some((ChildKey::Worker(id), None)));
            got.insert(ChildKey::Worker(id), ());
        }
        assert_eq!(m.shard_of(1), Some(0));
        assert!(!m.awaiting(&got, t0), "every orphan re-parented and contributed");
        assert_eq!((row.reparented, row.reconnects, m.reparented), (2, 2, 2));
    }
}
