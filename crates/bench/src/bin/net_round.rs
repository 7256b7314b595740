//! Loopback benchmark of the multi-process socket runtime: one
//! `NetServer` root plus N `run_worker` clients over real TCP
//! connections on `127.0.0.1`, timed wall-clock.
//!
//! The simulator *prices* communication analytically; this bench
//! measures what the real runtime costs — session setup, framing,
//! kernel socket hops, the round barrier — and pins the bit-parity
//! contract at the same time: a gate requires every sweep point's
//! socket checksum to equal the in-memory engine's for the same config,
//! so CI cannot silently ship a runtime that drifts.
//!
//! The server side is the single-threaded poll(2) reactor: one OS
//! thread multiplexes every session, so each point also records
//! `sessions`, `server_threads` (always 1 per serve process) and
//! `sessions_per_thread` — the C10K ratio a gate holds above 1, and
//! the tracked ≥100-worker point demonstrates at scale.
//!
//! Flags (see [`USAGE`]): `--workers 2,4,100` (cohort sweep), `--rounds
//! N` (default 2), `--relays S` (adds a relay tier: S relay servers
//! between root and workers, forwarding losslessly compressed
//! `PartialSum` frames), `--train-per-class N`, `--seed N`, `--out PATH` (default
//! `BENCH_net_round.json`, `-` disables).

use fedsz_bench::{row, Args, Report};
use fedsz_fl::net::{global_checksum, run_worker, NetServer, ServeConfig, WorkerConfig};
use fedsz_fl::{Experiment, FlConfig, StagePolicy};
use std::thread;
use std::time::{Duration, Instant};

const USAGE: &str = "net_round [--workers N,N] [--rounds N] [--relays S] [--train-per-class N] \
                     [--seed N] [--out PATH]";
const TIMING: &str = "wall_secs;in_memory_secs;secs_per_round";
const COLUMNS: &str = "workers;wall_secs;in_memory_secs;secs_per_round;root_upstream_bytes;\
                       root_downstream_bytes;evicted;sessions;server_threads;sessions_per_thread;\
                       checksum;in_memory_checksum";

/// The bench's base configuration: the CLI smoke shape, parameterized.
fn base_config(clients: usize, rounds: usize, train_per_class: usize, seed: u64) -> FlConfig {
    let mut config = FlConfig::smoke_test();
    config.clients = clients;
    config.rounds = rounds;
    config.seed = seed;
    config.data.seed = seed;
    config.data.train_per_class = train_per_class;
    config.data.test_per_class = (train_per_class / 2).max(2);
    config
}

/// One loopback deployment: root (+ optional relay tier) + workers,
/// all threads, every hop a real TCP connection. Returns (checksum,
/// total wall seconds, root upstream bytes, root downstream bytes,
/// evicted sessions).
fn run_deployment(config: &FlConfig, shards: Option<usize>) -> (u32, f64, usize, usize, usize) {
    let timeout = Duration::from_secs(120);
    let mut fl = config.clone();
    fl.tree = shards.map(|s| vec![s]);
    if shards.is_some() {
        fl.psum = StagePolicy::Lossless;
    }
    let t0 = Instant::now();
    let root = NetServer::bind("127.0.0.1:0").expect("bind loopback root");
    let root_addr = root.local_addr().to_string();
    let mut serve_config = ServeConfig::root(fl.clone());
    serve_config.accept_timeout = timeout;
    serve_config.round_timeout = timeout;
    let root_thread = thread::spawn(move || root.run(serve_config));

    let mut workers = Vec::new();
    let mut relays = Vec::new();
    match shards {
        None => {
            for id in 0..fl.clients {
                let worker_config = WorkerConfig::new(fl.clone(), id, root_addr.clone());
                workers.push(thread::spawn(move || run_worker(worker_config)));
            }
        }
        Some(shards) => {
            let plan = fl.plan().expect("valid bench config");
            for shard in 0..shards {
                let relay = NetServer::bind("127.0.0.1:0").expect("bind loopback relay");
                let relay_addr = relay.local_addr().to_string();
                let mut relay_config =
                    ServeConfig::relay(fl.clone(), shard as u32, root_addr.clone());
                relay_config.accept_timeout = timeout;
                relay_config.round_timeout = timeout;
                relays.push(thread::spawn(move || relay.run(relay_config)));
                for id in plan.reparent_range(shard).expect("shard in range") {
                    let worker_config = WorkerConfig::new(fl.clone(), id, relay_addr.clone());
                    workers.push(thread::spawn(move || run_worker(worker_config)));
                }
            }
        }
    }
    let report = root_thread.join().expect("root thread").expect("serve succeeds");
    for relay in relays {
        relay.join().expect("relay thread").expect("relay succeeds");
    }
    for worker in workers {
        worker.join().expect("worker thread").expect("worker succeeds");
    }
    let wall = t0.elapsed().as_secs_f64();
    let up: usize = report.rounds.iter().map(|r| r.upstream_bytes).sum();
    let down: usize = report.rounds.iter().map(|r| r.downstream_bytes).sum();
    (report.checksum, wall, up, down, report.evicted)
}

fn main() {
    let args = Args::parse(USAGE);
    let rounds: usize = args.get("--rounds", 2);
    let train_per_class: usize = args.get("--train-per-class", 4);
    let seed: u64 = args.get("--seed", 9);
    let shards: usize = args.get("--relays", 0);
    let workers_list: Vec<usize> = args.list("--workers", "2,4,100");

    let mut r = Report::new("fedsz.net_round.v3", TIMING);
    r.setting("rounds", rounds);
    r.setting("relays", shards);
    r.setting("train_per_class", train_per_class);
    r.setting("seed", seed);
    let mut points = Vec::new();
    // Per point: (checksums agree, no evictions, sessions > threads).
    let mut checks = Vec::new();
    for &clients in &workers_list {
        let config = base_config(clients, rounds, train_per_class, seed);

        // The in-memory reference the socket run must reproduce.
        let t_mem = Instant::now();
        let mut reference = Experiment::new(config.clone());
        reference.run();
        let mem_secs = t_mem.elapsed().as_secs_f64();
        let want = global_checksum(reference.global_state());

        let shard_plan = (shards > 0).then_some(shards);
        let (checksum, wall, up, down, evicted) = run_deployment(&config, shard_plan);
        // The root's session count: direct worker connections when
        // flat, one relay connection per shard when sharded. Either
        // way the reactor multiplexes them on exactly one OS thread —
        // the C10K ratio the schema tracks.
        let sessions = if shards > 0 { shards } else { clients };
        let server_threads = 1usize;
        eprintln!(
            "{clients} workers{}: {rounds} rounds in {wall:.2} s (in-memory {mem_secs:.2} s), \
             root up {up} B / down {down} B, {sessions} sessions on {server_threads} thread, \
             checksum 0x{checksum:08x} (in-memory 0x{want:08x})",
            if shards > 0 { format!(" via {shards} relays") } else { String::new() },
        );
        checks.push((checksum == want, evicted == 0, sessions > server_threads));
        points.push(row![
            clients,
            wall,
            mem_secs,
            wall / rounds.max(1) as f64,
            up,
            down,
            evicted,
            sessions,
            server_threads,
            sessions as f64 / server_threads as f64,
            format!("0x{checksum:08x}"),
            format!("0x{want:08x}"),
        ]);
    }
    r.grid("points", "workers", COLUMNS, &points);
    let count = |pass: fn(&(bool, bool, bool)) -> bool| checks.iter().filter(|c| pass(c)).count();
    let n = checks.len();
    let agree = count(|c| c.0);
    let detail = format!("{agree} of {n} socket runs end on the in-memory engine's checksum");
    r.gate("checksum_parity", agree == n, &detail);
    let kept = count(|c| c.1);
    r.gate("no_evictions", kept == n, &format!("{kept} of {n} loopback runs evict no session"));
    let multiplexed = count(|c| c.2);
    let detail = format!("{multiplexed} of {n} points hold more sessions than server threads");
    r.gate("sessions_exceed_threads", multiplexed == n, &detail);
    std::process::exit(r.finish(&args.get("--out", "BENCH_net_round.json".to_string())));
}
