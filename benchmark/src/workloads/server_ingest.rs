//! `server_ingest`: a real `NetServer` root on its reactor thread, fed
//! over host loopback by one driver thread holding two blocking sessions
//! that replay cached FedSZ updates. No training.
//!
//! `net` (`wire`, `frame`, `reactor`, `session`) and `fl::net::server`
//! (frame decode, CRC, FedSZ decompress of a small model, shape
//! validation, fold, downlink encode) do all the work, `nn` none. It is
//! the only workload a framing, reactor or `fold_upload` change can move,
//! and it runs `FedSz::decompress` at per-call-overhead scale where
//! `codec_models` runs it at streaming scale.

use super::{Metric, Op, Summary, Workload};
use crate::inputs;
use crate::stats::median;
use crate::trace::{ProgramTrace, Tracer};
use fedsz::FedSz;
use fedsz_fl::agg::PartialSum;
use fedsz_fl::net::{global_checksum, NetServer, ServeConfig, ServeReport};
use fedsz_fl::FlConfig;
use fedsz_net::{Message, NetError, Session};
use std::path::Path;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long the driver waits for a broadcast before the op fails.
const RECV_TIMEOUT: Duration = Duration::from_secs(20);
/// Where the sockets live; stated in every result.
pub const TRANSPORT: &str = "host loopback (127.0.0.1), one machine";

/// See the module docs.
pub struct ServerIngest {
    server: Option<JoinHandle<Result<ServeReport, NetError>>>,
    sessions: Vec<Session>,
    /// One cached FedSZ stream per session, compressed once in set-up.
    payloads: Vec<Vec<u8>>,
    /// Checksum of the in-process exact fold of the decoded payloads:
    /// what the server's global must be after every round.
    expected: u32,
    model_bytes: usize,
    round: u32,
    first_timed_round: u32,
    op_ms: Vec<f64>,
    /// Per round since set-up: whether the driver already saw it fail.
    op_failed: Vec<bool>,
    serve_trace: Option<ProgramTrace>,
}

impl ServerIngest {
    /// Flips one byte of a session's cached payload: the server must
    /// refuse it and the checker must count it.
    #[cfg(test)]
    fn corrupt_payload(&mut self, session: usize) {
        let payload = &mut self.payloads[session];
        let mid = payload.len() / 2;
        payload[mid] ^= 0x01;
    }

    fn exchange(&mut self, tracer: &mut Tracer) -> Result<(), NetError> {
        let round = self.round;
        for session in &mut self.sessions {
            match tracer.scope("net.session.recv", || session.recv(Some(RECV_TIMEOUT)))? {
                Message::GlobalModel { round: r, .. } | Message::EncodedGlobal { round: r, .. }
                    if r == round => {}
                other => {
                    return Err(NetError::Protocol(format!(
                        "expected the round {round} broadcast, got {other:?}"
                    )))
                }
            }
        }
        for (id, session) in self.sessions.iter_mut().enumerate() {
            let update = Message::Update {
                round,
                client_id: id as u64,
                payload: self.payloads[id].clone(),
                compressed: true,
            };
            tracer.scope("net.session.send", || session.send(&update))?;
        }
        Ok(())
    }
}

impl Workload for ServerIngest {
    const NAME: &'static str = "server_ingest";
    /// The reactor thread and the driver thread.
    const THREADS: usize = 2;
    const CONNECTIONS: usize = 2;
    const WARMUP: usize = 20;
    const LEDGER_OPS: usize = 200;

    fn setup(seed: u64, trace_dir: Option<&Path>) -> Self {
        let mut fl = inputs::fl_config(seed);
        // The driver ends the run by hanging up, not the round count.
        fl.rounds = u32::MAX as usize;
        let template = inputs::tiny_state(seed);
        let fedsz = FedSz::new(FlConfig::tiny_model_compression());
        let mut fold = PartialSum::new();
        let payloads: Vec<Vec<u8>> = (0..Self::CONNECTIONS)
            .map(|id| {
                let update = inputs::perturbed(&template, seed, 100 + id as u64, 0.01);
                let bytes = fedsz.compress(&update).expect("finite weights").into_bytes();
                fold.accumulate(&fedsz.decompress(&bytes).expect("own stream"), 1.0);
                bytes
            })
            .collect();
        let expected = global_checksum(&fold.finish().expect("two updates"));

        let server = NetServer::bind("127.0.0.1:0").expect("bind a loopback port");
        let addr = server.local_addr().to_string();
        let mut config = ServeConfig::root(fl);
        // Hold a hung-up seat for a moment only: hanging up is how the
        // driver stops the server.
        config.reconnect_grace = Duration::from_millis(1);
        let serve_trace = trace_dir.map(|dir| ProgramTrace::open(dir, "server_ingest.serve.jsonl"));
        if let Some(trace) = &serve_trace {
            config.telemetry = trace.telemetry();
        }
        let server = std::thread::spawn(move || server.run(config));
        let sessions = (0..Self::CONNECTIONS)
            .map(|id| {
                let mut session = Session::connect(&addr, Duration::from_secs(10))
                    .expect("connect to own server");
                session
                    .send(&Message::Join { client_id: id as u64, round: 0, relay: false })
                    .expect("join own server");
                session
            })
            .collect();
        Self {
            server: Some(server),
            sessions,
            payloads,
            expected,
            model_bytes: template.byte_size(),
            round: 0,
            first_timed_round: 0,
            op_ms: Vec::new(),
            op_failed: Vec::new(),
            serve_trace,
        }
    }

    fn end_warmup(&mut self) {
        self.first_timed_round = self.round;
        self.op_ms.clear();
    }

    /// One round as the two clients see it: read the broadcast on each
    /// session, then upload on each. Waiting for the server to fold the
    /// previous round is part of the next op's read.
    fn op(&mut self, tracer: &mut Tracer) -> Op {
        let t0 = Instant::now();
        let outcome = self.exchange(tracer);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if let Err(why) = &outcome {
            eprintln!("server_ingest: round {}: {why}", self.round);
        }
        self.round += 1;
        self.op_ms.push(ms);
        self.op_failed.push(outcome.is_err());
        Op { ms, failed: outcome.is_err() }
    }

    fn finish(mut self, tracer: &mut Tracer) -> Summary {
        for session in &mut self.sessions {
            session.close();
        }
        let report = self.server.take().expect("set up once").join().expect("server thread");
        if let Some(trace) = &self.serve_trace {
            trace.collect(tracer);
        }
        let timed = self.first_timed_round as usize..self.round as usize;
        // The server's own account of the rounds the driver completed;
        // the round it was waiting on when the driver hung up is not one.
        let rows = report.as_ref().map(|r| r.rounds.as_slice()).unwrap_or(&[]);
        if let Err(why) = &report {
            eprintln!("server_ingest: server failed: {why}");
        }
        let mut late_failures = 0;
        let (mut wall_ms, mut upstream) = (Vec::new(), Vec::new());
        for round in timed {
            match rows.get(round) {
                Some(row)
                    if row.merged == Self::CONNECTIONS
                        && row.evicted == 0
                        && row.checksum == self.expected =>
                {
                    wall_ms.push(row.wall_secs * 1e3);
                    upstream.push(row.upstream_bytes as f64);
                }
                _ if self.op_failed[round] => {}
                _ => late_failures += 1,
            }
        }
        let carried = (self.model_bytes * Self::CONNECTIONS) as f64;
        let round_ms = median(&wall_ms);
        let upstream = median(&upstream);
        Summary {
            model_bytes_per_op: carried,
            wire_ratio: carried / upstream,
            late_failures,
            extras: Vec::new(),
            layers: vec![
                Metric::new("fl.net.serve.round_ms", round_ms, "ms"),
                Metric::new("fl.net.serve.driver_gap_ms", median(&self.op_ms) - round_ms, "ms"),
                Metric::new(
                    "fl.net.serve.per_update_ms",
                    round_ms / Self::CONNECTIONS as f64,
                    "ms",
                ),
                Metric::new("fl.net.serve.upstream_bytes_per_round", upstream, "B"),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(corrupt: bool) -> (usize, Summary) {
        let mut tracer = Tracer::new(false);
        let mut workload = ServerIngest::setup(11, None);
        if corrupt {
            workload.corrupt_payload(0);
        }
        workload.end_warmup();
        let failed = (0..4).filter(|_| workload.op(&mut tracer).failed).count();
        (failed, workload.finish(&mut tracer))
    }

    #[test]
    fn clean_rounds_match_the_in_process_fold() {
        let (failed, summary) = run(false);
        assert_eq!((failed, summary.late_failures), (0, 0));
        assert!(summary.wire_ratio > 2.0, "FedSZ payloads are smaller than raw state");
    }

    #[test]
    fn one_flipped_payload_byte_is_a_failure() {
        let (failed, summary) = run(true);
        assert!(failed + summary.late_failures > 0, "a corrupted upload must be counted");
    }
}
