//! Federated-learning substrate for the FedSZ reproduction.
//!
//! Plays the role APPFL + gRPC/MPI play in the paper: a FedAvg server,
//! local-SGD clients, per-client simulated links, an experiment driver
//! that produces per-round metrics (accuracy, train time, compression
//! time, communication time).
//!
//! The paper emulates constrained networks by sleeping inside MPI sends;
//! this crate instead *accounts* transfer time analytically on a
//! virtual-time event queue ([`link`]) while measuring compute and codec
//! times for real — same methodology, no wasted wall-clock.
//!
//! The round's pipeline is written once, in [`step`]: the client step
//! (load the broadcast → local epochs → DP clip+noise → Eqn-1 codec
//! choice → encode) and the fold step (decode → validate against the
//! architecture → fold). Three runtimes call it and differ only in how
//! bytes move and how rounds are scheduled: the in-process
//! [`engine::RoundEngine`], where a payload never leaves the process
//! and transfer time is priced from its length, and the socket [`net`]
//! worker and server, where it crosses TCP as a CRC-framed message.
//!
//! There is one in-process runtime, named both [`Experiment`] and
//! [`engine::RoundEngine`]; the CLI, the bench bins and the
//! benchmark all build it from an [`FlConfig`], which selects a link
//! [`link::Topology`] (one shared pipe, per-client heterogeneous
//! links, or an aggregation tree of any depth), a fold (the flat
//! [`agg::aggregate_flat`] or an [`agg::ShardedTree`] hierarchy with
//! bit-identical results at any depth, optionally forwarding
//! losslessly-compressed partial-sum frames) and an [`agg::Downlink`]
//! stage (raw, FedSZ-encoded, or Eqn-1 adaptive broadcasts).
//!
//! See `ARCHITECTURE.md` at the repository root for the full layer
//! walk-through and the wire-frame formats.
//!
//! Every fold goes through [`agg::ExactAcc::add_slice`], which on an
//! x86-64 host runs an eight-lane AVX-512 or a four-lane AVX2 kernel
//! (the private `agg::simd` module, this crate's only `unsafe`) and
//! elsewhere the portable loop. All three compute the same integers,
//! so no global model, checksum or golden depends on which one ran.
//!
//! # Examples
//!
//! ```
//! use fedsz_fl::{Experiment, FlConfig};
//!
//! let mut config = FlConfig::smoke_test();
//! config.rounds = 1;
//! let mut exp = Experiment::new(config);
//! let metrics = exp.run();
//! assert_eq!(metrics.len(), 1);
//! assert!(metrics[0].test_accuracy >= 0.0);
//! ```

// `deny` rather than `forbid`: the crate stays safe Rust except the
// wide kernels in `agg/simd.rs`, which carry a module-scoped `allow`
// and a safety argument per block (the pattern `net::poll` set).
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod agg;
pub mod client;
pub mod codec;
pub mod engine;
pub mod link;
pub mod net;
pub mod plan;
pub mod step;
pub mod sweep;

pub use agg::TreePlan;
pub use client::Client;
pub use engine::RoundEngine;
pub use fedsz_dp::{DpMechanism, DpPolicy};
pub use link::{LinkProfile, Topology};
pub use plan::{PlanError, RoundPlan, StageLeg, StagePolicy};

use fedsz::FedSzConfig;
use fedsz_data::{DatasetKind, SyntheticConfig};
use fedsz_nn::models::tiny::TinyArch;

/// Configuration of one federated-learning experiment.
#[derive(Debug, Clone)]
pub struct FlConfig {
    /// Client/global model architecture.
    pub arch: TinyArch,
    /// Task to train on.
    pub dataset: DatasetKind,
    /// Number of clients (one shard each, IID).
    pub clients: usize,
    /// Communication rounds.
    pub rounds: usize,
    /// Local epochs per round (the paper uses 1).
    pub local_epochs: usize,
    /// Mini-batch size for local SGD.
    pub batch_size: usize,
    /// Local learning rate.
    pub lr: f32,
    /// Base seed controlling data generation and model init.
    pub seed: u64,
    /// Synthetic dataset geometry.
    pub data: SyntheticConfig,
    /// Dirichlet label-skew parameter for non-IID sharding; `None` uses
    /// IID round-robin shards (the paper's setting).
    pub non_iid_alpha: Option<f64>,
    /// Weight client updates by their sample counts (recommended with
    /// non-IID shards, where counts are uneven).
    pub weighted_aggregation: bool,
    /// Fraction of clients participating each round (cross-device FL
    /// samples a subset). 1.0 = everyone, the paper's setting.
    pub participation: f64,
    /// The client link model: [`Topology::Shared`] is one pipe the
    /// whole cohort's uploads serialize on (the paper's constrained
    /// server link), [`Topology::Dedicated`] one profile per client
    /// (bandwidth, latency, drop probability, straggler slowdown).
    /// `None` skips the network model entirely. With a
    /// [`FlConfig::tree`], [`FlConfig::plan`] gives every client its
    /// own last mile: a shared pipe becomes one dedicated copy per
    /// client.
    pub links: Option<Topology>,
    /// Policy of the client → server upload leg: raw, FedSZ on every
    /// upload ([`StagePolicy::Lossy`], the paper's setting), a codec
    /// family (Top-K, quantization, optionally with error feedback), or
    /// Eqn 1 choosing per client among candidate codecs and raw
    /// ([`StagePolicy::Priced`]).
    pub uplink: StagePolicy,
    /// Policy of the server → client broadcast leg: raw every round
    /// (the paper's setting), FedSZ-encoded once per round
    /// ([`StagePolicy::Lossy`]), or Eqn 1 with a raw fallback.
    pub downlink: StagePolicy,
    /// Policy of the aggregator → aggregator partial-sum leg: raw
    /// `f64` frames, [`StagePolicy::Lossless`]
    /// ([`fedsz_lossless::PsumCodec`]), or per-edge Eqn 1 over it.
    /// Lossless by construction, so bit-parity is unaffected;
    /// non-raw policies need a [`FlConfig::tree`].
    pub psum: StagePolicy,
    /// Per-level fan-outs of the aggregation hierarchy, root downward
    /// (`--tree 4x8` is `Some(vec![4, 8])`: the root merges 4 mid-tier
    /// nodes, each merging 8 leaf aggregators; a two-level tree of `S`
    /// edge aggregators is `Some(vec![S])`). `None` keeps the paper's
    /// flat server. Bit-parity with the flat server holds at any depth
    /// and fan-out; surplus leaves own empty client ranges. With a link
    /// model, every non-root aggregator forwards over a
    /// [`DEFAULT_EDGE_BPS`](plan::DEFAULT_EDGE_BPS) backbone link
    /// (aggregators live in well-provisioned tiers, unlike clients).
    pub tree: Option<Vec<usize>>,
    /// Worker width for the aggregation hot path (leaf merges and
    /// partial-sum frame pricing run on a pool this wide). `None`
    /// resolves to the host's available parallelism at plan time.
    /// Exact integer accumulation is order-invariant, so the width
    /// cannot change a single bit of the global model — only how fast
    /// it is produced. `Some(0)` is rejected by [`FlConfig::plan`].
    pub worker_threads: Option<usize>,
    /// Differential-privacy stage: clip each client's update delta to
    /// a global L2 norm and add seeded Gaussian/Laplace noise *before*
    /// the uplink codec (the order DP-SGD requires — the codec must see
    /// the noised delta, which is what makes the privacy/bytes
    /// trade-off measurable). `None` disables the stage. Validated by
    /// [`FlConfig::plan`].
    pub dp: Option<DpPolicy>,
}

impl FlConfig {
    /// FedSZ configuration adapted to the tiny trainable models: the
    /// paper's threshold of 1000 elements is tuned to full-size models
    /// whose weight tensors hold 10^4–10^7 elements; the CPU-scale
    /// variants here have weight tensors in the 10^2–10^5 range, so the
    /// threshold scales down with them (the rule itself is unchanged).
    pub fn tiny_model_compression() -> FedSzConfig {
        FedSzConfig { threshold: 128, ..FedSzConfig::default() }
    }

    /// The paper's main setting: 4 clients, FedAvg, 1 epoch/round.
    pub fn paper_default(arch: TinyArch, dataset: DatasetKind) -> Self {
        Self {
            arch,
            dataset,
            clients: 4,
            rounds: 10,
            local_epochs: 1,
            batch_size: 16,
            lr: 0.05,
            seed: 42,
            data: SyntheticConfig::default(),
            non_iid_alpha: None,
            weighted_aggregation: false,
            participation: 1.0,
            links: Some(Topology::Shared(LinkProfile::symmetric(10e6))),
            uplink: StagePolicy::Lossy(Self::tiny_model_compression()),
            downlink: StagePolicy::Raw,
            psum: StagePolicy::Raw,
            tree: None,
            worker_threads: None,
            dp: None,
        }
    }

    /// A minimal configuration for fast tests.
    pub fn smoke_test() -> Self {
        Self {
            clients: 2,
            rounds: 2,
            batch_size: 8,
            seed: 7,
            data: SyntheticConfig {
                seed: 7,
                train_per_class: 4,
                test_per_class: 2,
                resolution: 16,
            },
            ..Self::paper_default(TinyArch::AlexNet, DatasetKind::Cifar10Like)
        }
    }

    /// The seed for client `id`'s local RNG stream.
    ///
    /// One definition for every entry point: the analytic and wire
    /// paths historically mixed seeds differently (`seed + id` could
    /// even overflow); this helper is the single source of truth.
    pub fn client_seed(&self, id: usize) -> u64 {
        self.seed.wrapping_add(id as u64)
    }

    /// Shards the training split across the cohort (IID round-robin,
    /// or Dirichlet label-skew when [`FlConfig::non_iid_alpha`] is
    /// set) — the one sharding rule both the in-process engine and the
    /// worker processes use.
    pub fn shard_training_data(&self, train: &fedsz_data::Dataset) -> Vec<fedsz_data::Dataset> {
        match self.non_iid_alpha {
            Some(alpha) => train.shard_dirichlet(self.clients, alpha, self.seed),
            None => train.shard(self.clients),
        }
    }

    /// Instantiates the configured architecture with the configured
    /// init seed and data geometry — the one model-construction rule
    /// every bit-parity surface shares: client models
    /// ([`FlConfig::make_client`]), the engine's evaluation/global
    /// model, and the socket server's shape-validation template and
    /// initial global. A divergence between any two of those would
    /// move the global checksum, so they all call through here.
    pub fn build_model(&self) -> fedsz_nn::models::tiny::TinyModel {
        self.arch.build(
            self.seed,
            self.dataset.channels(),
            self.data.resolution,
            self.dataset.classes(),
        )
    }

    /// Builds client `id` over its data shard: same architecture, same
    /// model-init seed and same local-RNG seed everywhere. The round
    /// engine and the multi-process worker both construct clients
    /// through here, which is what makes a worker process's training
    /// bit-identical to the in-memory simulation of the same client.
    pub fn make_client(&self, id: usize, shard: fedsz_data::Dataset) -> Client {
        Client::new(id, self.build_model(), shard, self.batch_size, self.lr, self.client_seed(id))
    }

    /// Builds client `id` standalone — the worker-process entry point:
    /// generates the dataset, takes the client's shard and constructs
    /// the client exactly as [`engine::RoundEngine::new`] would.
    ///
    /// # Panics
    ///
    /// Panics when `id` is outside the cohort.
    pub fn build_client(&self, id: usize) -> Client {
        assert!(id < self.clients, "client {id} outside cohort of {}", self.clients);
        let (train, _test) = self.dataset.generate(&self.data);
        let shard = self
            .shard_training_data(&train)
            .into_iter()
            .nth(id)
            .expect("sharding covers every client id");
        self.make_client(id, shard)
    }
}

/// Metrics from one communication round, averaged over clients where
/// applicable.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundMetrics {
    /// Round index (0-based).
    pub round: usize,
    /// Global-model top-1 accuracy on the held-out test split.
    pub test_accuracy: f64,
    /// Mean per-client local training wall time (seconds, measured).
    pub train_secs: f64,
    /// Mean per-client compression wall time (seconds, measured; zero
    /// when compression is disabled).
    pub compress_secs: f64,
    /// Server-side decompression wall time summed over clients.
    pub decompress_secs: f64,
    /// Network busy time for this round's uploads from the virtual-time
    /// event queue: the serialized sum on a shared pipe, the slowest
    /// single transfer when per-client links overlap (dedicated links
    /// or a tree's client→edge hop).
    pub comm_secs: f64,
    /// Virtual wall-clock time until the aggregation condition was met
    /// (straggler-scaled compute + queueing + transfer of every upload
    /// the policy waited for; under a sharded tree this also covers
    /// each edge's merge and its partial-sum forward to the root).
    /// Without a network model this is the compute makespan alone — no
    /// transfer component.
    pub round_secs: f64,
    /// Server-side validation wall time (seconds, measured).
    pub validation_secs: f64,
    /// Mean update payload size in bytes (compressed when enabled).
    pub update_bytes: f64,
    /// Mean compression ratio across clients (1.0 when disabled).
    pub ratio: f64,
    /// Server→client payload bytes this round: one (possibly
    /// downlink-encoded) copy of the global per cohort client.
    pub downstream_bytes: usize,
    /// Client→server payload bytes this round: the sum of the cohort's
    /// encoded uploads, dropped ones included (they were sent).
    pub upstream_bytes: usize,
    /// Bytes arriving at the root aggregator: every update's payload
    /// bytes on a flat server, or one partial-sum frame per active
    /// shard under the sharded tree (where it drops by the fan-in).
    pub root_ingress_bytes: usize,
    /// Bytes leaving the root on the broadcast: one copy per cohort
    /// client on a flat server, one per active shard under the tree
    /// (the edges fan the encoded stream out).
    pub root_egress_bytes: usize,
    /// Broadcast compression ratio (raw model bytes over shipped
    /// payload; just under 1 when the downlink sends raw bytes).
    pub downlink_ratio: f64,
    /// Lossless compression ratio of the tree's partial-sum frames
    /// (payload over shipped bytes; 1.0 for a flat server or raw
    /// frames).
    pub psum_ratio: f64,
    /// Measured downlink codec wall time this round (one encode + one
    /// decode; zero for raw broadcasts).
    pub downlink_secs: f64,
    /// Updates folded into this round's average: every delivered
    /// upload of the cohort.
    pub aggregated_updates: usize,
    /// Uploads lost in transit this round.
    pub dropped_updates: usize,
    /// Wall nanoseconds spent merging into each tree level, root
    /// first; index `depth - 1` is the leaf accumulation pass. A flat
    /// backend reports a single element, and a round that aggregated
    /// nothing reports an empty vector.
    pub level_merge_nanos: Vec<u64>,
    /// Every Eqn-1 compression decision this round, in emission order:
    /// the round's one downlink decision, then one uplink decision per
    /// cohort client (ascending id), then the tree's partial-sum
    /// decisions level by level.
    pub eqn1: Vec<fedsz::timing::Eqn1Decision>,
    /// Per-element DP noise scale applied to every client delta this
    /// round (`clip_norm × noise_multiplier`); `None` when the plan
    /// carries no DP stage.
    pub dp_sigma: Option<f64>,
    /// Fraction of this round's cohort whose update delta exceeded the
    /// DP clip norm and was scaled down; `None` without a DP stage.
    pub clipped_fraction: Option<f64>,
    /// [`net::global_checksum`] of the global model after this round's
    /// aggregation — the per-round fingerprint `fedsz serve` reports
    /// too, so a run that diverges from its twin names the round.
    pub checksum: u32,
}

/// The paper's experiment driver: [`engine::RoundEngine`] under the
/// name the examples, the CLI and the benchmark build it by.
pub type Experiment = RoundEngine;

#[cfg(test)]
mod tests {
    use super::*;
    use fedsz::ErrorBound;

    fn lossy_at(rel: f64) -> StagePolicy {
        StagePolicy::Lossy(
            FlConfig::tiny_model_compression().with_error_bound(ErrorBound::Relative(rel)),
        )
    }

    #[test]
    fn smoke_experiment_runs_and_learns_something() {
        let mut config = FlConfig::smoke_test();
        config.rounds = 4;
        config.data.train_per_class = 8;
        let mut exp = Experiment::new(config);
        let metrics = exp.run();
        assert_eq!(metrics.len(), 4);
        // Synthetic task is learnable: accuracy should beat random (0.1)
        // by the final round.
        let last = metrics.last().unwrap();
        assert!(
            last.test_accuracy > 0.15,
            "final accuracy {:.3} not above random",
            last.test_accuracy
        );
        // Compression must actually compress.
        assert!(last.ratio > 1.5, "ratio {:.2}", last.ratio);
        assert!(last.comm_secs > 0.0);
        assert!(last.round_secs >= last.comm_secs, "round time includes compute");
    }

    #[test]
    fn uncompressed_baseline_runs() {
        let mut config = FlConfig::smoke_test();
        config.uplink = StagePolicy::Raw;
        let mut exp = Experiment::new(config);
        let metrics = exp.run();
        // Uncompressed payloads carry a small serialization header, so
        // the raw/payload ratio sits just below 1.
        assert!(metrics.iter().all(|m| (m.ratio - 1.0).abs() < 0.05), "{metrics:?}");
        assert!(metrics.iter().all(|m| m.compress_secs >= 0.0));
    }

    #[test]
    fn compressed_and_uncompressed_converge_similarly_at_1e2() {
        // The paper's central claim: REL 1e-2 does not cost accuracy.
        // One-sided, because that is the claim: on one seed, four
        // rounds and 80 test samples the compressed run can land well
        // *ahead* of the plain one (0.838 against 0.625 with SZ2's
        // version 2 stream, 0.912 with its bound one `f32` ulp wider),
        // which is noise in its favour, not a failure to converge.
        let mut base = FlConfig::smoke_test();
        base.rounds = 4;
        base.data.train_per_class = 8;
        // A 20-sample test split quantizes accuracy in 0.05 steps;
        // widen it so the comparison measures convergence, not noise.
        base.data.test_per_class = 8;
        base.uplink = StagePolicy::Raw;
        let acc_plain = Experiment::new(base.clone()).run().last().unwrap().test_accuracy;
        base.uplink = lossy_at(1e-2);
        let acc_fedsz = Experiment::new(base).run().last().unwrap().test_accuracy;
        assert!(
            acc_fedsz >= acc_plain - 0.25,
            "fedsz {acc_fedsz:.3} fell behind plain {acc_plain:.3}"
        );
    }

    #[test]
    fn huge_error_bound_destroys_learning_signal() {
        // At REL ~0.5 the update is mostly quantization noise; accuracy
        // should be at or near random while 1e-3 stays healthy.
        let mut config = FlConfig::smoke_test();
        config.rounds = 3;
        config.uplink = lossy_at(0.5);
        let noisy = Experiment::new(config.clone()).run().last().unwrap().test_accuracy;
        config.uplink = lossy_at(1e-3);
        let clean = Experiment::new(config).run().last().unwrap().test_accuracy;
        assert!(
            clean + 0.02 >= noisy,
            "clean {clean:.3} should be at least as good as noisy {noisy:.3}"
        );
    }

    #[test]
    fn client_seed_mixing_never_overflows() {
        let mut config = FlConfig::smoke_test();
        config.seed = u64::MAX;
        assert_eq!(config.client_seed(0), u64::MAX);
        assert_eq!(config.client_seed(3), 2, "wrapping add, not panicking add");
    }
}

#[cfg(test)]
mod participation_tests {
    use super::*;

    #[test]
    fn partial_participation_shrinks_round_cost() {
        let mut config = FlConfig::smoke_test();
        config.clients = 4;
        config.rounds = 1;
        config.participation = 0.5;
        let mut exp = Experiment::new(config.clone());
        let partial = exp.run_round(0);
        config.participation = 1.0;
        let mut exp = Experiment::new(config);
        let full = exp.run_round(0);
        // Half the cohort -> roughly half the serialized comm time.
        assert!(
            partial.comm_secs < full.comm_secs * 0.7,
            "partial {:.3}s vs full {:.3}s",
            partial.comm_secs,
            full.comm_secs
        );
    }

    #[test]
    fn cohorts_rotate_across_rounds() {
        // With 4 clients at 25% participation, four rounds must involve
        // all four clients: the global model keeps changing every round.
        let mut config = FlConfig::smoke_test();
        config.clients = 4;
        config.rounds = 4;
        config.participation = 0.25;
        let mut exp = Experiment::new(config);
        let mut last = exp.global_state().clone();
        for r in 0..4 {
            exp.run_round(r);
            assert_ne!(exp.global_state(), &last, "round {r} changed nothing");
            last = exp.global_state().clone();
        }
    }

    #[test]
    fn participation_still_learns() {
        let mut config = FlConfig::smoke_test();
        config.clients = 4;
        config.rounds = 6;
        config.participation = 0.5;
        config.data.train_per_class = 8;
        let metrics = Experiment::new(config).run();
        let best = metrics.iter().map(|m| m.test_accuracy).fold(0.0f64, f64::max);
        assert!(best > 0.12, "partial participation stuck at {best:.3}");
    }
}
