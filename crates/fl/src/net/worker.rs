//! The `fedsz worker` client: one real training process per client.
//!
//! A worker owns exactly one [`Client`], built
//! through [`FlConfig::make_client`] — the same constructor, seeds and
//! data sharding the in-memory engine uses, which is what makes a
//! worker's update bit-identical to the simulation of the same client.
//! The loop is the client half of the round protocol: Join, then per
//! round receive the (possibly FedSZ-encoded) global, train locally,
//! and upload the update — raw or compressed.
//!
//! **Elastic sessions.** The TCP session and the training state have
//! different lifetimes: momentum and RNG state live on the [`Client`]
//! across rounds, so a worker must survive a dropped socket without
//! retraining anything. When the connection dies the worker retries
//! with a bounded, id-seeded [`Backoff`] schedule (decorrelated
//! jitter: a relay failure orphans its whole shard at once, and the
//! seeded draws keep the cohort from stampeding), escalating to the
//! `fallback` address — typically the root — when the primary stops
//! answering. The last trained update is cached *before* every send;
//! if the server re-broadcasts a round the worker already trained
//! (the resume path after a reconnect), the cached frame is resent
//! verbatim instead of training twice — which would silently advance
//! the client's RNG and momentum and break bit-parity.
//!
//! The round itself is not written here: the worker runs the shared
//! client step ([`crate::step`]) — the same load → train → DP → encode
//! the in-memory engine runs for this client — and differs only in
//! what it feeds the Eqn 1 codec choice: **measurements** instead of
//! simulated [`LinkProfile`](crate::link::LinkProfile)s. It times its
//! own frame sends to estimate the link bandwidth and its own codec to
//! maintain the stage's [`CostProfile`](fedsz::timing::CostProfile)s;
//! until both exist a priced policy compresses (which is how the first
//! measurements are taken), exactly like the engine's.
//!
//! [`FlConfig::make_client`]: crate::FlConfig::make_client

use crate::agg::decode_broadcast;
use crate::net::invalid;
use crate::plan::{check_ranges, POSITIVE};
use crate::step::{emit_dp_noise, emit_eqn1, FoldStep, UplinkStage};
use crate::{Client, FlConfig, RoundPlan};
use fedsz_net::{Backoff, Message, NetError, Session};
use fedsz_telemetry::{Telemetry, Value};
use std::time::{Duration, Instant};

/// Configuration of one `fedsz worker` process.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// The federated-learning configuration — must match the server's.
    pub fl: FlConfig,
    /// This worker's client id within the cohort.
    pub id: usize,
    /// The server (root, or this shard's relay) as `host:port`.
    pub connect: String,
    /// A second parent to fail over to — typically the root — once the
    /// primary stops answering (see `retry_uses_fallback` for the
    /// schedule). `None` retries the primary only.
    pub fallback: Option<String>,
    /// Reconnect attempts per outage before giving up (the budget
    /// resets every time the server answers).
    pub retries: u32,
    /// First backoff window; attempt `n` draws from the jittered
    /// window `[base·2ⁿ/2, base·2ⁿ]`.
    pub backoff_base: Duration,
    /// Ceiling on the backoff window.
    pub backoff_cap: Duration,
    /// Fault-injection knob for the churn tests: drop the session
    /// (once) upon receiving this round's broadcast, then reconnect
    /// and resume. `None` (the default) never fires.
    pub drop_session_at_round: Option<u32>,
    /// Connect deadline, and how long to wait for each broadcast.
    pub timeout: Duration,
    /// Join/round spans and this worker's measured-Eqn-1
    /// `eqn1.decision` events land here. Disabled by default.
    pub telemetry: Telemetry,
}

impl WorkerConfig {
    /// A worker for client `id` against `connect`, with a 60 s
    /// timeout, no fallback, and an 8-attempt 50 ms → 2 s reconnect
    /// schedule.
    pub fn new(fl: FlConfig, id: usize, connect: String) -> Self {
        Self {
            fl,
            id,
            connect,
            fallback: None,
            retries: 8,
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            drop_session_at_round: None,
            timeout: Duration::from_secs(60),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Validates the configuration into its [`RoundPlan`]: the one place
    /// a `fedsz worker` configuration is range-checked. On top of
    /// [`FlConfig::plan`] and what the socket runtime cannot honour
    /// ([`RoundPlan::validate_for_workers`]), the id must name a client
    /// of the cohort and the timeout must be positive.
    ///
    /// # Errors
    ///
    /// Returns the violated rule as a [`NetError::Config`].
    pub fn plan(&self) -> Result<RoundPlan, NetError> {
        let plan = self.fl.plan().map_err(invalid)?;
        plan.validate_for_workers().map_err(invalid)?;
        if self.id >= plan.config.clients {
            return Err(invalid(format!(
                "worker id {} outside the cohort of {} clients (set clients to the full \
                 cohort size)",
                self.id, plan.config.clients
            )));
        }
        check_ranges(&[("timeout", self.timeout.as_secs_f64(), POSITIVE)]).map_err(invalid)?;
        Ok(plan)
    }
}

/// What a completed worker session did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkerReport {
    /// Rounds trained.
    pub rounds: usize,
    /// Total framed bytes uploaded (all sessions).
    pub uploaded_bytes: usize,
    /// Total framed bytes received (all sessions).
    pub downloaded_bytes: usize,
    /// Rounds whose upload was FedSZ-compressed (under measured-Eqn-1
    /// adaptive mode this can be fewer than `rounds`).
    pub compressed_rounds: usize,
    /// Sessions re-established after the first (reconnects to the
    /// primary and failovers to the fallback both count).
    pub reconnects: usize,
    /// The measured uplink bandwidth estimate after the final round
    /// (bits/second; 0.0 when nothing was sent).
    pub measured_bps: f64,
}

/// Whether retry number `attempt` (0-based) should aim at the
/// fallback address instead of the primary: the first two attempts
/// stay on the primary (a restarting parent deserves a beat), then
/// even attempts probe the fallback while odd ones keep trying the
/// primary. Without a fallback every attempt hits the primary.
fn retry_uses_fallback(attempt: u32, has_fallback: bool) -> bool {
    has_fallback && attempt >= 2 && attempt.is_multiple_of(2)
}

/// The round-r update a worker already trained and (tried to) send:
/// kept as the fully encoded frame so a resumed session resends the
/// byte-identical upload instead of training the round twice.
struct CachedUpload {
    round: u32,
    frame: Vec<u8>,
}

/// EWMA of the measured wall-clock send bandwidth (the real-link
/// replacement for a simulated `LinkProfile`).
///
/// Caveat: the sample times `write_all` + flush into the kernel, so an
/// update smaller than the socket send buffer measures enqueue speed,
/// not link drain — on a loopback or LAN that overestimates bandwidth
/// and biases Eqn 1 toward raw (harmless there: fast links *should*
/// send raw). The measurement becomes link-bound exactly when it
/// matters: once payloads exceed the send buffer — full-size model
/// updates on constrained links, the paper's regime — `write_all`
/// blocks on drain. An application-level ack would measure small
/// transfers honestly too; `ROADMAP.md` lists it as a next step.
#[derive(Debug, Clone, Copy, Default)]
struct MeasuredLink {
    bps: Option<f64>,
}

impl MeasuredLink {
    fn observe(&mut self, bytes: usize, secs: f64) {
        if secs <= 0.0 || bytes == 0 {
            return;
        }
        let sample = bytes as f64 * 8.0 / secs;
        self.bps = Some(match self.bps {
            None => sample,
            Some(prev) => 0.5 * prev + 0.5 * sample,
        });
    }
}

/// Runs one worker session to completion (until the server's
/// Shutdown frame), reconnecting through outages along the way.
///
/// # Errors
///
/// Returns a [`NetError`] when the server cannot be reached within the
/// retry budget, or violates the protocol (protocol and codec
/// failures are never retried — reconnecting cannot cure bad bytes),
/// and before any socket work when [`WorkerConfig::plan`] refuses the
/// configuration.
pub fn run_worker(config: WorkerConfig) -> Result<WorkerReport, NetError> {
    // The worker consumes the validated plan, never the raw knobs, and
    // refuses what the socket runtime cannot honour with the typed
    // error rather than run wrong.
    let plan = config.plan()?;
    let mut stage = UplinkStage::new(&plan);
    let mut client: Client = config.fl.build_client(config.id);
    // The id seeds the jitter: a whole shard orphaned at once retries
    // on decorrelated clocks instead of stampeding the fallback.
    let backoff = Backoff::new(config.backoff_base, config.backoff_cap, config.id as u64);
    // One step of the bounded retry schedule: gives up with `err` once
    // the budget is spent, else sleeps out the jittered window.
    let back_off = |attempt: &mut u32, err: NetError| -> Result<(), NetError> {
        if *attempt >= config.retries {
            return Err(err);
        }
        std::thread::sleep(backoff.delay(*attempt));
        *attempt += 1;
        Ok(())
    };
    let mut primary = config.connect.clone();
    let mut fallback = config.fallback.clone();

    let mut link = MeasuredLink::default();
    // Built on the first priced probe only: the decoder the server
    // will run, for timing what this upload costs it.
    let mut fold: Option<FoldStep> = None;
    let mut cached: Option<CachedUpload> = None;
    let mut rounds = 0usize;
    let mut compressed_rounds = 0usize;
    let mut reconnects = 0usize;
    let mut uploaded = 0usize;
    let mut downloaded = 0usize;
    let mut sessions = 0usize;
    let mut attempt = 0u32;
    let mut last_round = 0u32;
    let mut dropped_once = false;

    loop {
        // ---- (re)connect with the bounded, jittered schedule ----
        let (mut session, mut on_fallback) = loop {
            let use_fallback = retry_uses_fallback(attempt, fallback.is_some());
            let target =
                if use_fallback { fallback.as_deref().unwrap_or(&primary) } else { &primary };
            match Session::connect(target, config.timeout) {
                Ok(session) => break (session, use_fallback),
                Err(e) => back_off(&mut attempt, NetError::Io(e))?,
            }
        };

        // ---- this session, until Shutdown (`None`) or an outage ----
        let outage: Option<NetError> = 'session: {
            let join =
                Message::Join { client_id: config.id as u64, round: last_round, relay: false };
            if session.send(&join).is_err() {
                break 'session Some(NetError::Closed);
            }
            if sessions == 0 {
                config.telemetry.event("worker.join", &[("client", Value::U64(config.id as u64))]);
            } else {
                reconnects += 1;
                config.telemetry.event(
                    "worker.reconnect",
                    &[
                        ("client", Value::U64(config.id as u64)),
                        ("attempt", Value::U64(u64::from(attempt))),
                        ("fallback", Value::Bool(on_fallback)),
                    ],
                );
            }
            sessions += 1;

            loop {
                let message = match session.recv(Some(config.timeout)) {
                    Ok(message) => message,
                    // Corrupt frames and protocol violations are fatal —
                    // reconnecting cannot cure bad bytes.
                    Err(e @ (NetError::Codec(_) | NetError::Protocol(_))) => return Err(e),
                    Err(e) => break 'session Some(e),
                };
                // The server answered: the outage (if any) is over, and
                // a session that proved the fallback works makes it the
                // new primary for whatever comes next.
                attempt = 0;
                if on_fallback {
                    if let Some(fb) = fallback.take() {
                        fallback = Some(std::mem::replace(&mut primary, fb));
                    }
                    on_fallback = false;
                }

                let (round, bytes, compressed) = match message {
                    Message::Shutdown => break 'session None,
                    other => other.into_broadcast().map_err(|other| {
                        NetError::Protocol(format!("worker expected a broadcast, got {other:?}"))
                    })?,
                };
                let dict = decode_broadcast(&bytes, compressed)?;
                last_round = round;

                if config.drop_session_at_round == Some(round) && !dropped_once {
                    // The churn-test chaos knob: one abrupt mid-run
                    // disconnect, then the regular reconnect/resume
                    // path. The drop consumes retry budget like any
                    // real outage (`--retries 0` turns it into a
                    // permanent death).
                    dropped_once = true;
                    session.close();
                    break 'session Some(NetError::Closed);
                }

                // The resume path: a re-broadcast of a round this client
                // already trained means the server never saw (or lost)
                // the upload — resend the cached frame byte-identically.
                // Training again instead would advance the client's RNG
                // and momentum a second time and diverge from `fedsz fl`.
                if let Some(c) = cached.as_ref().filter(|c| c.round == round) {
                    config.telemetry.event(
                        "worker.resume",
                        &[
                            ("client", Value::U64(config.id as u64)),
                            ("round", Value::U64(u64::from(round))),
                        ],
                    );
                    if session.send_frame(&c.frame).is_err() {
                        break 'session Some(NetError::Closed);
                    }
                    continue;
                }

                let _round_span = config.telemetry.span_with(
                    "worker.round",
                    &[
                        ("round", Value::U64(u64::from(round))),
                        ("client", Value::U64(config.id as u64)),
                    ],
                );
                // The shared client step, against the exact broadcast
                // this worker decoded (the server decodes delta streams
                // against the same bytes, so the bases agree), priced on
                // the measured link. Error-feedback plans were rejected
                // above, so no residual is carried.
                let choice =
                    stage.choose(round as usize, config.id, dict.byte_size(), link.bps, 1.0);
                let step = stage
                    .client_step(&mut client, &dict, round as usize, choice, None)
                    .map_err(|e| NetError::Protocol(format!("global dict rejected: {e}")))?;
                if let Some(dp) = &step.dp {
                    emit_dp_noise(&config.telemetry, round as usize, config.id, dp);
                }
                // The measured twin of the engine's per-client uplink
                // record: predictions exist only once both the codec
                // profile and a bandwidth sample do (the probe rounds
                // before that show `null` predictions in the trace,
                // like the simulator's).
                emit_eqn1(&config.telemetry, &choice.decision(config.id, step.compress_secs));
                if let Some(codec) = choice.codec {
                    // The decompression the server will pay is measured
                    // on a priced codec's first upload only — it is a
                    // stable per-byte cost, and re-measuring it would
                    // mean one redundant full decode of every later
                    // upload. The EWMA carries the sample forward.
                    let decompress_secs = if stage.pricing.wants_decompress_sample(codec) {
                        let fold = fold.get_or_insert_with(|| {
                            FoldStep::new(&plan.config.uplink, dict.clone())
                        });
                        let t0 = Instant::now();
                        fold.decode(&step.payload, true, Some(&dict)).map_err(|e| {
                            NetError::Protocol(format!("own upload does not decode: {e}"))
                        })?;
                        Some(t0.elapsed().as_secs_f64())
                    } else {
                        None
                    };
                    stage.pricing.observe(
                        codec,
                        step.raw_bytes,
                        step.payload.len(),
                        step.compress_secs,
                        decompress_secs,
                    );
                }

                // Cache the encoded frame *before* the send: a send that
                // dies mid-frame must leave the worker able to resend
                // this exact round on the resumed session, never retrain
                // it.
                let frame = Message::Update {
                    round,
                    client_id: config.id as u64,
                    payload: step.payload,
                    compressed: step.compressed,
                }
                .encode();
                let frame = &cached.insert(CachedUpload { round, frame }).frame;
                rounds += 1;
                compressed_rounds += usize::from(step.compressed);
                let t_send = Instant::now();
                match session.send_frame(frame) {
                    Ok(wire_bytes) => link.observe(wire_bytes, t_send.elapsed().as_secs_f64()),
                    Err(_) => break 'session Some(NetError::Closed),
                }
            }
        };
        uploaded += session.bytes_sent() as usize;
        downloaded += session.bytes_received() as usize;
        match outage {
            None => break,
            Some(err) => back_off(&mut attempt, err)?,
        }
    }
    Ok(WorkerReport {
        rounds,
        uploaded_bytes: uploaded,
        downloaded_bytes: downloaded,
        compressed_rounds,
        reconnects,
        measured_bps: link.bps.unwrap_or(0.0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_schedule_prefers_the_primary_then_alternates() {
        // No fallback: every attempt hits the primary.
        for attempt in 0..10 {
            assert!(!retry_uses_fallback(attempt, false), "attempt {attempt}");
        }
        // With a fallback: two patient attempts on the primary, then
        // even attempts probe the fallback while odd ones keep the
        // primary warm.
        let pattern: Vec<bool> = (0..8).map(|a| retry_uses_fallback(a, true)).collect();
        assert_eq!(pattern, vec![false, false, true, false, true, false, true, false]);
    }

    #[test]
    fn an_id_outside_the_cohort_is_a_plan_error_not_a_panic() {
        let fl = FlConfig::smoke_test();
        let clients = fl.clients;
        assert!(WorkerConfig::new(fl.clone(), clients - 1, "h:1".into()).plan().is_ok());
        let outside = WorkerConfig::new(fl.clone(), clients, "h:1".into());
        let err = run_worker(outside).unwrap_err();
        assert!(err.to_string().contains("outside the cohort"), "{err}");
        let mut config = WorkerConfig::new(fl, 0, "h:1".into());
        config.timeout = Duration::ZERO;
        assert!(config.plan().unwrap_err().to_string().contains("timeout must be positive"));
    }
}
