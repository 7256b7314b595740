//! Churn tests of the elastic socket runtime: sessions drop mid-round,
//! relays die mid-run — and the run must complete with the global
//! model still bit-identical to the in-memory engine, because
//! reconnecting workers resend their cached updates (never retrain)
//! and a dead relay's orphans are re-parented to the root on the same
//! shard ranges the relay owned.
//!
//! The fault-injection knobs drive the chaos deterministically:
//! `WorkerConfig::drop_session_at_round` makes a worker sever its
//! session upon receiving that round's broadcast, and
//! `ServeConfig::fail_at_round` makes a relay process terminate at the
//! start of that round. The shell churn smoke (`scripts/
//! net_churn_smoke.sh`) exercises the same paths with real process
//! kills and asserts the Prometheus counters.

use fedsz_fl::net::{run_worker, NetServer, ServeConfig, WorkerConfig};
use fedsz_fl::{Experiment, FlConfig};
use std::thread;
use std::time::Duration;

fn quick_config() -> FlConfig {
    let mut config = FlConfig::smoke_test();
    config.rounds = 3;
    config.data.train_per_class = 4;
    config
}

fn test_timeouts(config: &mut ServeConfig) {
    config.accept_timeout = Duration::from_secs(20);
    config.round_timeout = Duration::from_secs(60);
}

/// A churn-capable worker config: fast retry clock, optional fallback
/// parent, optional scripted mid-run session drop.
fn churn_worker(
    fl: &FlConfig,
    id: usize,
    connect: &str,
    fallback: Option<&str>,
    drop_at: Option<u32>,
) -> WorkerConfig {
    let mut config = WorkerConfig::new(fl.clone(), id, connect.to_string());
    config.fallback = fallback.map(str::to_string);
    config.drop_session_at_round = drop_at;
    config.backoff_base = Duration::from_millis(10);
    config.backoff_cap = Duration::from_millis(200);
    config
}

#[test]
fn dropped_worker_session_resumes_with_bit_parity() {
    // Worker 1 severs its connection the moment round 1's broadcast
    // arrives, then reconnects and resumes. Nothing may retrain: the
    // client's RNG and momentum advanced through round 0, so a retrain
    // would silently diverge — bit-parity with the in-memory engine is
    // the proof the resume path resent the cached update instead.
    let config = quick_config();

    let mut reference = Experiment::new(config.clone());
    reference.run();
    let want = reference.global_state().to_bytes();

    let server = NetServer::bind("127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr().to_string();
    let mut serve_config = ServeConfig::root(config.clone());
    test_timeouts(&mut serve_config);
    let root = thread::spawn(move || server.run(serve_config));

    let workers: Vec<_> = (0..config.clients)
        .map(|id| {
            let drop_at = (id == 1).then_some(1u32);
            let wc = churn_worker(&config, id, &addr, None, drop_at);
            thread::spawn(move || run_worker(wc))
        })
        .collect();

    let report = root.join().expect("root thread").expect("serve survives the drop");
    let mut worker_reconnects = 0usize;
    for w in workers {
        let r = w.join().expect("worker thread").expect("worker survives its own drop");
        assert_eq!(r.rounds, config.rounds, "every round trains exactly once");
        worker_reconnects += r.reconnects;
    }
    assert_eq!(worker_reconnects, 1, "exactly the scripted drop reconnects");

    let got = report.global.as_ref().expect("root holds the global").to_bytes();
    assert_eq!(got, want, "resume must be bit-identical: a retrain would diverge here");
    assert_eq!(report.evicted, 0, "a session that resumes within grace is never evicted");
    assert!(report.reconnects >= 1, "the server must account the rebind");
    assert_eq!(report.reparented, 0);
    assert!(report.rounds.iter().all(|r| r.merged == config.clients));
    // The rebind lands in the round it happened in, not smeared.
    assert_eq!(report.rounds.iter().map(|r| r.reconnects).sum::<usize>(), report.reconnects);
}

#[test]
fn dead_relay_reparents_its_cohort_to_the_root_with_parity() {
    // 4 clients through 2 relays; relay 1 terminates at the start of
    // round 1 (fault injection). Its two workers must fail over to the
    // root, be adopted onto relay 1's shard range, and the run must
    // still produce the exact in-memory checksum — the adopted raw
    // updates fold where the relay's partial sum would have.
    let mut config = quick_config();
    config.clients = 4;
    config.tree = Some(vec![2]);

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
        if shard == 1 {
            relay_config.fail_at_round = Some(1);
        }
        relay_threads.push(thread::spawn(move || relay.run(relay_config)));
        for id in (shard as usize * 2)..(shard as usize * 2 + 2) {
            let wc = churn_worker(&config, id, &relay_addr, Some(&root_addr), None);
            worker_threads.push(thread::spawn(move || run_worker(wc)));
        }
    }

    let report = root_thread.join().expect("root thread").expect("root completes degraded");
    let healthy = relay_threads.remove(0).join().expect("relay 0 thread");
    healthy.expect("the surviving relay completes normally");
    let doomed = relay_threads.remove(0).join().expect("relay 1 thread");
    let failure = doomed.expect_err("the scripted relay failure surfaces as its error");
    assert!(failure.to_string().contains("fault injection"), "{failure}");

    let mut reconnects = 0usize;
    for w in worker_threads {
        let r = w.join().expect("worker thread").expect("every worker survives the failover");
        assert_eq!(r.rounds, config.rounds, "adoption must not cost anyone a round");
        reconnects += r.reconnects;
    }
    assert!(reconnects >= 2, "both orphans reconnected somewhere, got {reconnects}");

    let got = report.global.as_ref().expect("root holds the global").to_bytes();
    assert_eq!(got, want, "re-parented run diverged from the in-memory engine");
    assert_eq!(report.reparented, 2, "both orphans adopted by the root");
    assert!(report.reconnects >= 2);
    assert_eq!(report.evicted, 1, "exactly the dead relay is evicted");
    assert!(
        report.evictions.iter().any(|(id, round, _)| *id == 1 && *round == 1),
        "the eviction must name relay 1 at round 1: {:?}",
        report.evictions
    );
    assert!(
        report.rounds.iter().all(|r| r.merged == config.clients),
        "every round folds the full cohort, degraded or not: {:?}",
        report.rounds.iter().map(|r| r.merged).collect::<Vec<_>>()
    );
}

#[test]
fn permanently_dead_worker_degrades_without_hanging() {
    // A worker whose process dies for good (no reconnect) is evicted
    // after the grace window and every later round completes without
    // it — the barrier must not hang on the corpse's seat.
    let mut config = quick_config();
    config.clients = 2;

    let server = NetServer::bind("127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr().to_string();
    let mut serve_config = ServeConfig::root(config.clone());
    serve_config.accept_timeout = Duration::from_secs(20);
    serve_config.round_timeout = Duration::from_secs(60);
    serve_config.reconnect_grace = Duration::from_millis(300);
    let root = thread::spawn(move || server.run(serve_config));

    let healthy = {
        let wc = churn_worker(&config, 0, &addr, None, None);
        thread::spawn(move || run_worker(wc))
    };
    // The corpse: completes round 0 honestly, then dies on receiving
    // round 1's broadcast — with zero retries, so it never comes back.
    let corpse = {
        let mut wc = churn_worker(&config, 1, &addr, None, Some(1));
        wc.retries = 0;
        thread::spawn(move || run_worker(wc))
    };

    let report = root.join().expect("root thread").expect("a permanent death is not fatal");
    let r = healthy.join().expect("healthy thread").expect("healthy worker unaffected");
    assert_eq!(r.rounds, config.rounds);
    assert!(corpse.join().expect("corpse thread").is_err(), "the corpse exhausted its budget");

    assert_eq!(report.rounds.len(), config.rounds, "rounds continue after the death");
    assert_eq!(report.evicted, 1, "the corpse is evicted exactly once");
    assert!(report.evictions.iter().any(|(id, round, _)| *id == 1 && *round == 1));
    assert_eq!(report.rounds[0].merged, config.clients);
    assert!(
        report.rounds[1..].iter().all(|r| r.merged == 1),
        "later rounds aggregate only the survivor: {:?}",
        report.rounds.iter().map(|r| r.merged).collect::<Vec<_>>()
    );
    assert_ne!(report.checksum, 0);
}
