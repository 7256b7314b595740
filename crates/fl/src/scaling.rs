//! Weak/strong scaling harness (paper Figure 9).
//!
//! The paper scales MPI ranks on a cluster: weak scaling assigns one
//! client per core (2–128), strong scaling fixes 127 clients and grows
//! the core count. Here *workers* are OS threads doing real local
//! training and compression, while the shared 10 Mbps server link is
//! simulated — transfers serialize at the server, which is what makes
//! the uncompressed curves blow up and the FedSZ curves stay flat.
//!
//! The study past the paper's flat server — edge aggregators, deeper
//! hierarchies, lossless partial-sum frames — runs on the real
//! [`ShardedTree`](crate::agg::ShardedTree) in the `agg_scale` bench
//! (`BENCH_agg_scale.json`).

use crate::client::Client;
use crate::link::{self, Departure, LinkProfile, Topology};
use fedsz::{FedSz, FedSzConfig};
use fedsz_data::{DatasetKind, SyntheticConfig};
use fedsz_nn::models::tiny::TinyArch;
use fedsz_nn::Model;
use std::time::Instant;

/// One point of a scaling curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalingPoint {
    /// Worker (thread) count — the paper's "MPI cores" axis.
    pub workers: usize,
    /// Clients participating in the round.
    pub clients: usize,
    /// Measured parallel compute time (train + compress) in seconds.
    pub compute_secs: f64,
    /// Simulated serialized transfer time at the server in seconds.
    pub comm_secs: f64,
}

impl ScalingPoint {
    /// The figure's y-axis: epoch time per client (compute + its share
    /// of the serialized link).
    pub fn epoch_secs(&self) -> f64 {
        self.compute_secs + self.comm_secs
    }
}

/// Parameters shared by both scaling modes.
#[derive(Debug, Clone)]
pub struct ScalingConfig {
    /// Model architecture (the paper uses MobileNet-V2).
    pub arch: TinyArch,
    /// Dataset (the paper uses CIFAR-10).
    pub dataset: DatasetKind,
    /// Simulated server-link bandwidth in bits/s (the paper uses 10 Mbps).
    pub bandwidth_bps: f64,
    /// FedSZ configuration; `None` for the uncompressed baseline.
    pub compression: Option<FedSzConfig>,
    /// Synthetic data geometry (small defaults keep sweeps fast).
    pub data: SyntheticConfig,
    /// Base seed.
    pub seed: u64,
}

impl Default for ScalingConfig {
    fn default() -> Self {
        Self {
            arch: TinyArch::MobileNetV2,
            dataset: DatasetKind::Cifar10Like,
            bandwidth_bps: 10e6,
            compression: Some(FedSzConfig { threshold: 128, ..FedSzConfig::default() }),
            data: SyntheticConfig {
                seed: 3,
                train_per_class: 4,
                test_per_class: 1,
                resolution: 16,
            },
            seed: 3,
        }
    }
}

/// Runs one federated round with `clients` clients on `workers` threads,
/// measuring compute and simulating communication.
pub fn run_round(config: &ScalingConfig, clients: usize, workers: usize) -> ScalingPoint {
    assert!(workers > 0, "workers must be positive");
    let (train, _) = config.dataset.generate(&config.data);
    let shards = train.shard(clients);
    let channels = config.dataset.channels();
    let classes = config.dataset.classes();
    let hw = config.data.resolution;
    let mut all_clients: Vec<Client> = shards
        .into_iter()
        .enumerate()
        .map(|(id, shard)| {
            Client::new(
                id,
                config.arch.build(config.seed, channels, hw, classes),
                shard,
                8,
                0.05,
                config.seed.wrapping_add(id as u64),
            )
        })
        .collect();
    let fedsz = config.compression.map(FedSz::new);
    let global = config.arch.build(config.seed, channels, hw, classes).state_dict();

    // Partition clients across `workers` threads; each worker processes
    // its clients sequentially (like MPI ranks hosting many clients).
    let per_worker = clients.div_ceil(workers);
    let t0 = Instant::now();
    let payload_sizes: Vec<usize> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for chunk in all_clients.chunks_mut(per_worker) {
            let fedsz = fedsz.clone();
            let global = &global;
            handles.push(scope.spawn(move || {
                let mut sizes = Vec::with_capacity(chunk.len());
                for client in chunk {
                    client.load_global(global).expect("matching architecture");
                    client.train_epoch();
                    let update = client.update();
                    let bytes = match &fedsz {
                        Some(f) => f.compress(&update).expect("finite weights").into_bytes(),
                        None => update.to_bytes(),
                    };
                    sizes.push(bytes.len());
                }
                sizes
            }));
        }
        handles.into_iter().flat_map(|h| h.join().expect("worker thread panicked")).collect()
    });
    let compute_secs = t0.elapsed().as_secs_f64();

    // Serialized shared-pipe accounting via the virtual-time event
    // queue (equivalent to summing per-payload transfer times, but the
    // same machinery the round engine uses).
    let topology = Topology::Shared(LinkProfile::symmetric(config.bandwidth_bps));
    let departures: Vec<Departure> = payload_sizes
        .iter()
        .enumerate()
        .map(|(client, &bytes)| Departure { client, ready_secs: 0.0, bytes, dropped: false })
        .collect();
    let arrivals = link::schedule(&departures, &topology);
    ScalingPoint {
        workers,
        clients,
        compute_secs,
        comm_secs: link::comm_secs(&arrivals, &topology),
    }
}

/// Weak scaling: one client per worker, workers in `worker_counts`.
pub fn weak_scaling(config: &ScalingConfig, worker_counts: &[usize]) -> Vec<ScalingPoint> {
    worker_counts.iter().map(|&w| run_round(config, w, w)).collect()
}

/// Strong scaling: a fixed client population spread over growing worker
/// counts (the paper fixes 127 clients).
pub fn strong_scaling(
    config: &ScalingConfig,
    clients: usize,
    worker_counts: &[usize],
) -> Vec<ScalingPoint> {
    worker_counts.iter().map(|&w| run_round(config, clients, w)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config(compress: bool) -> ScalingConfig {
        ScalingConfig {
            compression: compress.then(|| FedSzConfig { threshold: 128, ..FedSzConfig::default() }),
            data: SyntheticConfig {
                seed: 5,
                train_per_class: 2,
                test_per_class: 1,
                resolution: 16,
            },
            ..ScalingConfig::default()
        }
    }

    #[test]
    fn weak_scaling_comm_grows_with_clients() {
        let config = tiny_config(true);
        let points = weak_scaling(&config, &[1, 4]);
        assert_eq!(points.len(), 2);
        assert!(points[1].comm_secs > points[0].comm_secs * 2.0);
        assert_eq!(points[1].clients, 4);
    }

    #[test]
    fn compression_cuts_simulated_comm_time() {
        let plain = run_round(&tiny_config(false), 2, 2);
        let packed = run_round(&tiny_config(true), 2, 2);
        assert!(
            packed.comm_secs < plain.comm_secs / 1.5,
            "compressed {:.3}s vs plain {:.3}s",
            packed.comm_secs,
            plain.comm_secs
        );
    }

    #[test]
    fn strong_scaling_keeps_client_count() {
        let config = tiny_config(true);
        let points = strong_scaling(&config, 6, &[1, 2]);
        assert!(points.iter().all(|p| p.clients == 6));
        assert_eq!(points[0].workers, 1);
        assert_eq!(points[1].workers, 2);
        // Communication volume is worker-independent.
        let rel = (points[0].comm_secs - points[1].comm_secs).abs() / points[0].comm_secs;
        assert!(rel < 0.05, "comm should not depend on workers: {rel:.3}");
    }
}
