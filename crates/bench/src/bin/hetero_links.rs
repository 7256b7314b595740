//! Heterogeneous-link and asynchronous-aggregation study on the round
//! engine (an extension beyond the paper's single shared 10 Mbps pipe).
//!
//! Runs the same federated session three ways — shared pipe, per-client
//! dedicated links with one straggler, and FedBuff-style buffered
//! aggregation over the same links — and prints per-round accuracy,
//! virtual comm time and virtual round-completion time side by side.
//!
//! Flags: `--clients N` (default 4), `--rounds N` (default 4),
//! `--straggler-slowdown F` (default 25).

use fedsz_bench::{print_table, Args};
use fedsz_data::DatasetKind;
use fedsz_fl::{AggregationPolicy, Experiment, FlConfig, LinkProfile, RoundMetrics, Topology};
use fedsz_nn::models::tiny::TinyArch;

fn base_config(clients: usize, rounds: usize) -> FlConfig {
    let mut config = FlConfig::paper_default(TinyArch::AlexNet, DatasetKind::Cifar10Like);
    config.clients = clients;
    config.rounds = rounds;
    config.data.train_per_class = 8;
    config.data.test_per_class = 4;
    config
}

fn hetero_links(clients: usize, slowdown: f64) -> Vec<LinkProfile> {
    (0..clients)
        .map(|id| {
            if id == clients - 1 {
                // The straggler: slow uplink, slow hardware.
                LinkProfile::symmetric(1e6).with_slowdown(slowdown)
            } else {
                LinkProfile::symmetric(50e6)
            }
        })
        .collect()
}

fn summarize(label: &str, metrics: &[RoundMetrics]) -> Vec<String> {
    let last = metrics.last().expect("at least one round");
    let comm: f64 = metrics.iter().map(|m| m.comm_secs).sum();
    let round: f64 = metrics.iter().map(|m| m.round_secs).sum();
    let stale: usize = metrics.iter().map(|m| m.stale_updates).sum();
    vec![
        label.to_string(),
        format!("{:.1}", last.test_accuracy * 100.0),
        format!("{comm:.3}"),
        format!("{round:.3}"),
        format!("{stale}"),
    ]
}

fn main() {
    let args = Args::parse();
    let clients: usize = args.get("--clients", 4);
    let rounds: usize = args.get("--rounds", 4);
    let slowdown: f64 = args.get("--straggler-slowdown", 25.0);

    let shared = base_config(clients, rounds);
    let mut dedicated = shared.clone();
    dedicated.links = Some(Topology::Dedicated(hetero_links(clients, slowdown)));
    let mut buffered = dedicated.clone();
    buffered.aggregation = AggregationPolicy::Buffered { target: clients.saturating_sub(1).max(1) };

    let rows = vec![
        summarize("shared 10 Mbps pipe", &Experiment::new(shared).run()),
        summarize("dedicated links + straggler", &Experiment::new(dedicated).run()),
        summarize("buffered async (K = N-1)", &Experiment::new(buffered).run()),
    ];
    print_table(
        "Heterogeneous links and buffered-asynchronous aggregation",
        &["Scenario", "Final acc %", "Comm (s)", "Virtual time (s)", "Stale applied"],
        &rows,
    );
    println!(
        "\nDedicated links overlap transfers (comm = slowest link, not the sum); the \
         buffered policy stops waiting for the straggler, shrinking virtual round time \
         while its updates still arrive one round late."
    );
}
