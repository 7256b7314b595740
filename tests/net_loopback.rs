//! End-to-end tests of the multi-process socket runtime: `NetServer` +
//! `run_worker` over real loopback TCP connections, asserted
//! bit-identical to the in-memory engine on the same configuration.
//!
//! Threads stand in for processes here (each side still talks through
//! a real kernel socket, which is what the runtime abstracts over);
//! the CI smoke job runs the same topology with actual `fedsz serve` /
//! `fedsz worker` child processes.

use fedsz_fl::net::{
    global_checksum, run_worker, NetServer, ServeConfig, WorkerConfig, WorkerReport,
};
use fedsz_fl::{Experiment, FlConfig, StageLeg, StagePolicy};
use fedsz_net::{Message, NetError, Session};
use std::thread;
use std::time::Duration;

fn quick_config() -> FlConfig {
    let mut config = FlConfig::smoke_test();
    config.rounds = 2;
    config.data.train_per_class = 4;
    config
}

fn test_timeouts(config: &mut ServeConfig) {
    config.accept_timeout = Duration::from_secs(20);
    config.round_timeout = Duration::from_secs(60);
}

/// Spawns `ids` workers against `addr`, returning their reports.
fn spawn_workers(
    config: &FlConfig,
    ids: impl IntoIterator<Item = usize>,
    addr: String,
) -> Vec<thread::JoinHandle<Result<WorkerReport, NetError>>> {
    ids.into_iter()
        .map(|id| {
            let fl = config.clone();
            let addr = addr.clone();
            thread::spawn(move || run_worker(WorkerConfig::new(fl, id, addr)))
        })
        .collect()
}

#[test]
fn flat_socket_run_is_bit_identical_to_in_memory() {
    // One pass per uplink codec route: FedSZ (the config's default
    // `lossy`), a `FUC1` sparse stream, and the stochastic quantizer —
    // whose dither seed must agree across processes or the checksums
    // part ways.
    let codec = FlConfig::tiny_model_compression();
    let policies = [
        quick_config().uplink,
        StagePolicy::parse("topk:0.1", StageLeg::Uplink, codec).unwrap(),
        StagePolicy::parse("q8s", StageLeg::Uplink, codec).unwrap(),
    ];
    for uplink in policies {
        let mut config = quick_config();
        config.uplink = uplink.clone();

        // Reference: the in-memory engine.
        let mut reference = Experiment::new(config.clone());
        let simulated = reference.run();
        let want = reference.global_state().to_bytes();

        // Real sockets: one root, one worker thread per client.
        let server = NetServer::bind("127.0.0.1:0").expect("bind loopback");
        let addr = server.local_addr().to_string();
        let mut serve_config = ServeConfig::root(config.clone());
        test_timeouts(&mut serve_config);
        let root = thread::spawn(move || server.run(serve_config));
        let workers = spawn_workers(&config, 0..config.clients, addr);

        let report = root.join().expect("root thread").expect("serve succeeds");
        for w in workers {
            let r = w.join().expect("worker thread").expect("worker succeeds");
            assert_eq!(r.rounds, config.rounds, "worker must train every round");
            assert!(r.compressed_rounds == config.rounds, "{uplink:?} compresses every round");
        }
        // Round by round first, so a divergence names its round.
        assert_eq!(report.rounds.len(), config.rounds);
        for (net, sim) in report.rounds.iter().zip(&simulated) {
            assert_eq!(net.checksum, sim.checksum, "{uplink:?}: diverged at round {}", sim.round);
        }
        let got = report.global.as_ref().expect("root holds the global").to_bytes();
        assert_eq!(got, want, "{uplink:?}: socket run diverged from the in-memory engine");
        assert_eq!(report.checksum, global_checksum(reference.global_state()));
        assert_eq!(report.evicted, 0);
        assert!(report.rounds.iter().all(|r| r.merged == config.clients));
        assert!(report.rounds.iter().all(|r| r.upstream_bytes > 0 && r.downstream_bytes > 0));
    }
}

#[test]
fn sharded_relay_run_ships_compressed_psums_and_keeps_parity() {
    // 4 clients through 2 relay processes, lossless partial-sum frames:
    // the acceptance topology — compressed PartialSum frames relayed over real
    // sockets, still bit-identical to the flat in-memory run.
    let mut config = quick_config();
    config.clients = 4;
    config.tree = Some(vec![2]);
    config.psum = StagePolicy::Lossless;

    let mut reference = Experiment::new(config.clone());
    reference.run();
    let want = reference.global_state().to_bytes();

    let root = NetServer::bind("127.0.0.1:0").expect("bind root");
    let root_addr = root.local_addr().to_string();
    let mut root_config = ServeConfig::root(config.clone());
    test_timeouts(&mut root_config);
    let root_thread = thread::spawn(move || root.run(root_config));

    let mut worker_threads = Vec::new();
    let mut relay_threads = Vec::new();
    for shard in 0..2u32 {
        let relay = NetServer::bind("127.0.0.1:0").expect("bind relay");
        let relay_addr = relay.local_addr().to_string();
        let mut relay_config = ServeConfig::relay(config.clone(), shard, root_addr.clone());
        test_timeouts(&mut relay_config);
        relay_threads.push(thread::spawn(move || relay.run(relay_config)));
        // Contiguous balanced ranges: shard 0 owns clients 0..2, shard 1
        // owns 2..4.
        let ids = (shard as usize * 2)..(shard as usize * 2 + 2);
        worker_threads.extend(spawn_workers(&config, ids, relay_addr));
    }

    let report = root_thread.join().expect("root thread").expect("root serve succeeds");
    for relay in relay_threads {
        let r = relay.join().expect("relay thread").expect("relay serve succeeds");
        assert_eq!(r.checksum, 0, "relays never hold the global");
        assert_eq!(r.rounds.len(), config.rounds);
    }
    for w in worker_threads {
        w.join().expect("worker thread").expect("worker succeeds");
    }

    let got = report.global.as_ref().expect("root holds the global").to_bytes();
    assert_eq!(got, want, "sharded socket run diverged from the in-memory engine");
    assert_eq!(
        report.psum_compressed_frames,
        2 * config.rounds,
        "every relay round must ship a compressed PartialSum frame"
    );
    assert_eq!(report.psum_raw_frames, 0);
    assert!(report.rounds.iter().all(|r| r.merged == config.clients));
}

#[test]
fn silent_worker_is_evicted_and_the_round_continues() {
    let mut config = quick_config();
    config.clients = 2;

    let server = NetServer::bind("127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr().to_string();
    let mut serve_config = ServeConfig::root(config.clone());
    serve_config.accept_timeout = Duration::from_secs(20);
    serve_config.round_timeout = Duration::from_secs(5);
    let root = thread::spawn(move || server.run(serve_config));

    // Client 0 participates fully; client 1 joins the handshake, then
    // vanishes before ever replying to a broadcast.
    let healthy = spawn_workers(&config, [0usize], addr.clone());
    let ghost = thread::spawn(move || {
        let mut session = Session::connect(&addr, Duration::from_secs(10)).unwrap();
        session.send(&Message::Join { client_id: 1, round: 0, relay: false }).unwrap();
        // Wait for the round-0 broadcast so the handshake completed,
        // then drop the connection without answering.
        let _ = session.recv(Some(Duration::from_secs(15))).unwrap();
    });

    let report = root.join().expect("root thread").expect("eviction is not a serve error");
    ghost.join().unwrap();
    for w in healthy {
        let r = w.join().expect("worker thread").expect("healthy worker unaffected");
        assert_eq!(r.rounds, config.rounds);
    }
    assert_eq!(report.evicted, 1, "the ghost must be evicted exactly once");
    assert!(
        report.evictions.iter().any(|(id, round, _)| *id == 1 && *round == 0),
        "eviction must name the ghost at round 0: {:?}",
        report.evictions
    );
    assert_eq!(report.rounds.len(), config.rounds, "rounds continue after the eviction");
    assert!(
        report.rounds.iter().all(|r| r.merged == 1),
        "every round aggregates the surviving client"
    );
    // And the global genuinely moved: a one-client session still learns.
    assert_ne!(report.checksum, 0);
}

#[test]
fn misconfigured_worker_is_evicted_not_fatal() {
    // A client replying with an update whose shapes disagree with the
    // configured architecture would trip the merge asserts and panic
    // the server; it must instead be evicted, with the healthy cohort
    // unaffected. (A real `run_worker` with the wrong --arch already
    // fails client-side on load_global, so this speaks raw frames.)
    let mut config = quick_config();
    config.clients = 2;

    let server = NetServer::bind("127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr().to_string();
    let mut serve_config = ServeConfig::root(config.clone());
    serve_config.accept_timeout = Duration::from_secs(20);
    serve_config.round_timeout = Duration::from_secs(10);
    let root = thread::spawn(move || server.run(serve_config));

    let healthy = spawn_workers(&config, [0usize], addr.clone());
    let misfit = thread::spawn(move || {
        let mut session = Session::connect(&addr, Duration::from_secs(10)).unwrap();
        session.send(&Message::Join { client_id: 1, round: 0, relay: false }).unwrap();
        let round = match session.recv(Some(Duration::from_secs(15))).unwrap() {
            Message::GlobalModel { round, .. } | Message::EncodedGlobal { round, .. } => round,
            other => panic!("expected a broadcast, got {other:?}"),
        };
        let mut wrong = fedsz_nn::StateDict::new();
        wrong.insert("w.weight", fedsz_tensor::Tensor::filled(vec![3], 1.0));
        let update =
            Message::Update { round, client_id: 1, payload: wrong.to_bytes(), compressed: false };
        session.send(&update).unwrap();
        // The server cuts this client off; drain until it does.
        let _ = session.recv(Some(Duration::from_secs(15)));
    });

    let report = root.join().expect("root thread").expect("a bad child is not a serve error");
    for w in healthy {
        let r = w.join().expect("worker thread").expect("healthy worker unaffected");
        assert_eq!(r.rounds, config.rounds);
    }
    misfit.join().expect("misfit thread");
    assert_eq!(report.evicted, 1, "exactly the misconfigured worker is evicted");
    assert!(
        report.evictions.iter().any(|(id, _, reason)| *id == 1 && reason.contains("architecture")),
        "eviction must name the shape mismatch: {:?}",
        report.evictions
    );
    assert_eq!(report.rounds.len(), config.rounds, "rounds continue after the eviction");
    assert!(report.rounds.iter().all(|r| r.merged == 1));
}

#[test]
fn idle_connection_cannot_starve_the_handshake() {
    // A port scanner or health probe that connects and never speaks
    // must cost the join barrier at most one handshake slot, not the
    // whole accept window.
    let mut config = quick_config();
    config.clients = 1;
    config.rounds = 1;

    let server = NetServer::bind("127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr().to_string();
    let mut serve_config = ServeConfig::root(config.clone());
    serve_config.accept_timeout = Duration::from_secs(30);
    serve_config.round_timeout = Duration::from_secs(30);
    let root = thread::spawn(move || server.run(serve_config));

    // The lurker connects first and holds the socket open silently.
    let lurker = std::net::TcpStream::connect(&addr).expect("lurker connects");
    thread::sleep(Duration::from_millis(100));
    let t0 = std::time::Instant::now();
    let workers = spawn_workers(&config, [0usize], addr);

    let report = root.join().expect("root thread").expect("serve succeeds");
    for w in workers {
        w.join().expect("worker thread").expect("worker succeeds");
    }
    drop(lurker);
    assert_eq!(report.evicted, 0);
    assert_eq!(report.rounds.len(), 1);
    assert!(
        t0.elapsed() < Duration::from_secs(15),
        "the lurker stalled the session for {:?}",
        t0.elapsed()
    );
}

#[test]
fn relay_join_past_u32_is_refused_not_wrapped_onto_a_shard() {
    // A relay `Join` for id 2^32 names no shard. Truncated to a `u32` it
    // would bind shard 0 and receive the round-0 broadcast; it must see
    // its connection closed instead.
    let mut config = quick_config();
    config.tree = Some(vec![2]);

    let server = NetServer::bind("127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr().to_string();
    let mut serve_config = ServeConfig::root(config);
    serve_config.accept_timeout = Duration::from_secs(2);
    let root = thread::spawn(move || server.run(serve_config));

    let mut session = Session::connect(&addr, Duration::from_secs(10)).unwrap();
    session.send(&Message::Join { client_id: 1 << 32, round: 0, relay: true }).unwrap();
    if let Ok(reply) = session.recv(Some(Duration::from_secs(15))) {
        panic!("the out-of-range relay was served a {}-byte frame", reply.encoded_len());
    }
    let err = root.join().expect("root thread").expect_err("no relay ever joined");
    assert!(err.to_string().contains("no expected child joined"), "{err}");
}
