//! The in-process federated round engine.
//!
//! [`RoundEngine`] — also named [`Experiment`](crate::Experiment) — is
//! the in-process runtime of the paper's Fig. 1 round loop: it owns
//! cohort selection, the virtual-time event queue over per-client
//! [`LinkProfile`]s, aggregation and evaluation. Payloads never leave
//! the process: a client's encoded upload is the very buffer the
//! server decodes, and every byte count the round reports is a payload
//! length (frames exist only where sockets do, in [`crate::net`]). The
//! pipeline itself — what a client does with the broadcast and what the
//! server does with an upload — is not written here: every client
//! thread runs the shared [`crate::step`] client step and every upload
//! is decoded by the shared [`FoldStep`], exactly as the socket
//! runtime's worker and server do. The CLI and the bench bins build
//! this type directly from an [`FlConfig`].
//!
//! # Layering
//!
//! ```text
//! fedsz fl CLI / benchmark / bench bins    (callers)
//!        └── RoundEngine = Experiment      (cohort, schedule, fold)
//!              ├── step::UplinkStage       (choose, client step, cost profiles)
//!              ├── step::FoldStep          (decode + validate an upload)
//!              ├── link::schedule          (virtual clock, per-client links)
//!              ├── agg::aggregate_flat     (flat fold, exact merge)
//!              ├── agg::ShardedTree        (tree fold, exact merge)
//!              ├── agg::Downlink           (broadcast codec, Eqn 1 fallback)
//!              └── fedsz::timing           (Eqn 1 compress-or-not advisor)
//! ```
//!
//! # Rounds
//!
//! Every round is synchronous FedAvg, as in the paper: the server folds
//! every delivered upload of the cohort, then advances. A straggler
//! gates the round's virtual clock; a dropped upload is left out of the
//! average.

use crate::agg::{aggregate_flat, Contribution, Downlink, ShardedTree};
use crate::link::{self, Departure, LinkProfile, Topology};
use crate::plan::{RoundPlan, DEFAULT_EDGE_BPS};
use crate::step::{emit_dp_noise, emit_eqn1, ClientStep, FoldStep, StageChoice, UplinkStage};
use crate::{Client, FlConfig, RoundMetrics};
use fedsz::timing::Eqn1Decision;
use fedsz_nn::loss::top1_accuracy;
use fedsz_nn::{Model, StateDict};
use fedsz_telemetry::{Telemetry, Value};
use std::time::Instant;

/// One cohort client's round: the upload-leg decision made for it and
/// what its client step produced.
struct ClientOutcome {
    id: usize,
    choice: StageChoice,
    step: ClientStep,
}

/// One codec's measured cost over a round's surviving uploads — what
/// the round folds into that codec's Eqn 1 profile.
#[derive(Clone, Copy, Default)]
struct CodecCosts {
    raw_bytes: usize,
    payload_bytes: usize,
    compress_secs: f64,
    decompress_secs: f64,
}

/// The in-process federated round loop: one global model, sharded
/// clients, a test split and a link topology.
pub struct RoundEngine {
    config: FlConfig,
    clients: Vec<Client>,
    global: StateDict,
    /// One evaluation model per validation worker, kept across rounds:
    /// as many as the plan's worker width, or test chunks if fewer. The
    /// first is built with the engine (it gives the initial global);
    /// each other one by its worker, at the first evaluation.
    eval_models: Vec<Option<Box<dyn Model>>>,
    test_inputs: fedsz_tensor::Tensor,
    test_targets: Vec<usize>,
    topology: Option<Topology>,
    /// The aggregation tree; without one, rounds fold flat.
    tree: Option<ShardedTree>,
    downlink: Downlink,
    /// Recycled broadcast buffer: each round's encoded global is built
    /// in last round's allocation (`Downlink::encode_reusing`), so the
    /// steady-state broadcast path allocates nothing.
    broadcast_buf: Vec<u8>,
    /// The client half of the upload pipeline (codec list, Eqn-1
    /// selection, per-codec cost profiles, DP stage) — the same stage
    /// a socket worker runs.
    uplink: UplinkStage,
    /// The server half: decodes and validates every upload — the same
    /// step the socket server folds with.
    fold: FoldStep,
    /// Whether the uplink policy carries error feedback.
    error_feedback: bool,
    /// Per-client error-feedback residuals (all empty dicts until an
    /// EF policy lazily initializes them from the first update).
    residuals: Vec<StateDict>,
    /// Stage spans and Eqn-1 decision events land here; disabled by
    /// default (one branch per call, no allocation).
    telemetry: Telemetry,
}

impl RoundEngine {
    /// Builds the engine from an ergonomic [`FlConfig`], validating it
    /// through [`FlConfig::plan`] first.
    ///
    /// # Panics
    ///
    /// Panics with the [`PlanError`](crate::plan::PlanError) message
    /// when the configuration is invalid (mismatched link lists,
    /// zero fan-outs, …). Fallible callers should run
    /// [`FlConfig::plan`] themselves and use
    /// [`RoundEngine::from_plan`].
    pub fn new(config: FlConfig) -> Self {
        Self::from_plan(config.plan().unwrap_or_else(|e| panic!("{e}")))
    }

    /// Builds the engine from a validated [`RoundPlan`]: generates
    /// data, shards it across clients (IID round-robin or Dirichlet
    /// non-IID), initializes the global model and instantiates the
    /// plan's topology, aggregator and stage executors.
    pub fn from_plan(plan: RoundPlan) -> Self {
        // Every leg re-validates at executor construction (downlink
        // and psum below via their from_policy constructors), so even
        // a hand-built plan cannot smuggle an illegal policy in.
        plan.config
            .uplink
            .validate_for(crate::plan::StageLeg::Uplink)
            .unwrap_or_else(|e| panic!("{e}"));
        let uplink_stage = UplinkStage::new(&plan);
        let RoundPlan { config, tree, topology, worker_threads } = plan;
        let (train, test) = config.dataset.generate(&config.data);
        // Client construction is shared with the multi-process worker
        // path (`FlConfig::build_client`): both must produce the same
        // models and RNG streams or socket runs lose bit-parity.
        let clients: Vec<Client> = config
            .shard_training_data(&train)
            .into_iter()
            .enumerate()
            .map(|(id, shard)| config.make_client(id, shard))
            .collect();
        let (test_inputs, test_targets) = test.full_batch();
        // One model-construction rule everywhere (clients, the eval/
        // global models, the fold step's template here and on the
        // socket server) or checksums diverge.
        let eval_width = worker_threads.min(test_targets.len().div_ceil(EVAL_CHUNK)).max(1);
        let mut eval_models: Vec<Option<Box<dyn Model>>> = Vec::new();
        eval_models.resize_with(eval_width, || None);
        let global = eval_models[0].insert(Box::new(config.build_model())).state_dict();
        let tree = tree.map(|tree| {
            // With a link model, every non-root aggregator forwards its
            // partial sums over the backbone.
            let tiers = topology.as_ref().map(|_| {
                (1..tree.depth())
                    .map(|l| vec![LinkProfile::symmetric(DEFAULT_EDGE_BPS); tree.nodes_at(l)])
                    .collect()
            });
            ShardedTree::from_policy(tree, tiers, &config.psum)
                .expect("plan validated the psum policy")
                .with_threads(worker_threads)
        });
        let downlink =
            Downlink::from_policy(&config.downlink).expect("plan validated the downlink");
        let residuals = vec![StateDict::new(); clients.len()];
        Self {
            fold: FoldStep::new(&config.uplink, global.clone()),
            error_feedback: config.uplink.error_feedback(),
            config,
            clients,
            global,
            eval_models,
            test_inputs,
            test_targets,
            topology,
            tree,
            downlink,
            broadcast_buf: Vec::new(),
            uplink: uplink_stage,
            residuals,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry handle: every round then opens stage spans
    /// (`engine.round` and the broadcast/train/comm/decode/merge/
    /// validate phases), emits one `eqn1.decision` event per priced
    /// compression decision, and threads the handle into the
    /// aggregation tree for per-level merge spans and pool counters.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.tree = self.tree.map(|tree| tree.with_telemetry(telemetry.clone()));
        self.telemetry = telemetry;
        self
    }

    /// The engine's configuration.
    pub fn config(&self) -> &FlConfig {
        &self.config
    }

    /// Current global state dictionary.
    pub fn global_state(&self) -> &StateDict {
        &self.global
    }

    /// Runs all configured rounds, returning per-round metrics.
    pub fn run(&mut self) -> Vec<RoundMetrics> {
        (0..self.config.rounds).map(|r| self.run_round(r)).collect()
    }

    /// The deterministic rotating cohort for `round`: the ascending
    /// list of selected client ids.
    fn select_cohort(&self, round: usize) -> Vec<usize> {
        let total = self.clients.len();
        let cohort = ((self.config.participation.clamp(0.0, 1.0) * total as f64).ceil() as usize)
            .clamp(1, total);
        let first = (round * cohort) % total;
        // A mask keeps selection O(total) instead of the old
        // O(cohort * total) `selected.contains` scan per client.
        let mut mask = vec![false; total];
        for i in 0..cohort {
            mask[(first + i) % total] = true;
        }
        (0..total).filter(|&id| mask[id]).collect()
    }

    /// Deterministic uniform coin in `[0, 1)` for transit-loss decisions
    /// (a pure function of seed, round and client, so repeated runs
    /// agree).
    fn transit_coin(&self, round: usize, client: usize) -> f64 {
        let mut x = self
            .config
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((round as u64) << 32)
            .wrapping_add(client as u64 + 1);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (x ^ (x >> 31)) as f64 / (u64::MAX as f64 + 1.0)
    }

    /// Runs a single communication round.
    ///
    /// # Panics
    ///
    /// Panics on malformed self-produced payloads (this is a research
    /// harness, not a hardened server).
    pub fn run_round(&mut self, round: usize) -> RoundMetrics {
        let selected = self.select_cohort(round);
        // Declared first so it drops last: the round span must close
        // after every stage span nested inside it.
        let round_span = self.telemetry.span_with(
            "engine.round",
            &[("round", Value::U64(round as u64)), ("cohort", Value::U64(selected.len() as u64))],
        );
        let mut eqn1: Vec<Eqn1Decision> = Vec::new();

        // Downlink stage: encode the global model ONCE for the whole
        // round (Eqn 1 may fall back to raw on fast cohorts), then fan
        // the same bytes out. The adaptive decision keys on the
        // cohort's bottleneck downlink.
        let broadcast_span = self.telemetry.span("engine.broadcast");
        let bottleneck_bps = self.topology.as_ref().map(|t| {
            selected.iter().map(|&id| t.link(id).bandwidth_bps).fold(f64::INFINITY, f64::min)
        });
        let payload = self.downlink.encode_reusing(
            &self.global,
            bottleneck_bps,
            selected.len(),
            std::mem::take(&mut self.broadcast_buf),
        );

        // Every cohort client receives one copy of the same bytes.
        // Under a sharded tree the root sends one copy per active
        // shard and the edges fan out; flat servers send one per
        // client.
        let downstream_bytes = selected.len() * payload.bytes.len();
        let fanout = self.tree.as_ref().map_or(selected.len(), |tree| tree.fanout(&selected));
        let root_egress_bytes = fanout * payload.bytes.len();
        // One decode stands in for every client's (they all see
        // identical bytes); the virtual clock still charges each
        // client its own straggler-scaled share below.
        let (decoded_global, decode_secs) = if payload.compressed {
            let t0 = Instant::now();
            let dict =
                self.downlink.decode(&payload.bytes, true).expect("self-produced downlink stream");
            (Some(dict), t0.elapsed().as_secs_f64())
        } else {
            (None, 0.0)
        };
        let downlink_ratio = payload.ratio();
        let downlink_secs = payload.encode_secs + decode_secs;
        // The downlink leg makes one Eqn-1 call per round (the payload
        // is shared by the whole cohort), recorded against node 0.
        let downlink_decision = payload.choice.decision(0, downlink_secs);
        emit_eqn1(&self.telemetry, &downlink_decision);
        eqn1.push(downlink_decision);
        self.downlink.observe(&payload, decode_secs);
        // Hand the buffer back so next round's encode reuses it.
        self.broadcast_buf = payload.bytes;
        drop(broadcast_span);
        // What every client loads, and what family streams decode
        // against below (aggregation has not run yet, so `self.global`
        // is still the round's reference).
        let shared_global: &StateDict = decoded_global.as_ref().unwrap_or(&self.global);
        // Local work runs in parallel threads (clients own disjoint
        // state); wall time is measured per client and later scaled by
        // the link's straggler factor on the virtual clock. Each client
        // first gets its upload-leg decision, priced (when the policy
        // prices at all) on its simulated link: the link's bandwidth,
        // and its straggler slowdown on the codec time.
        let train_span = self.telemetry.span_with(
            "engine.train",
            &[("round", Value::U64(round as u64)), ("cohort", Value::U64(selected.len() as u64))],
        );
        let raw_bytes = self.global.byte_size();
        let (ef, stage, topology) = (self.error_feedback, &self.uplink, &self.topology);
        let mut outcomes: Vec<ClientOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .zip(self.residuals.iter_mut())
                .enumerate()
                // `selected` is ascending, like this enumeration.
                .filter(|(id, _)| selected.binary_search(id).is_ok())
                .map(|(id, (client, residual))| {
                    scope.spawn(move || {
                        let link = topology.as_ref().map(|t| t.link(id));
                        let bandwidth = link.map(|l| l.bandwidth_bps);
                        let slowdown = link.map_or(1.0, |l| l.compute_slowdown);
                        let choice = stage.choose(round, id, raw_bytes, bandwidth, slowdown);
                        let step = stage
                            .client_step(
                                client,
                                shared_global,
                                round,
                                choice,
                                ef.then_some(residual),
                            )
                            .expect("global dict matches client model");
                        ClientOutcome { id, choice, step }
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
        });
        outcomes.sort_by_key(|o| o.id);
        drop(train_span);

        // One `dp.noise` event per noised client and one uplink Eqn-1
        // record per cohort client, with the client's measured codec
        // seconds next to the prediction that picked the path
        // (telemetry lives on `self`, so these are emitted after the
        // scoped threads join).
        for outcome in &outcomes {
            if let Some(dp) = &outcome.step.dp {
                emit_dp_noise(&self.telemetry, round, outcome.id, dp);
            }
        }
        for outcome in &outcomes {
            let decision = outcome.choice.decision(outcome.id, outcome.step.compress_secs);
            emit_eqn1(&self.telemetry, &decision);
            eqn1.push(decision);
        }

        let comm_span = self.telemetry.span("engine.comm");
        let upstream_bytes: usize = outcomes.iter().map(|o| o.step.payload.len()).sum();

        // Virtual-time event queue: departures -> arrivals per link.
        // A compressed broadcast charges every client its own
        // straggler-scaled decode before training can start.
        let departures: Vec<Departure> = outcomes
            .iter()
            .map(|o| {
                let (slowdown, drop_prob) = match &self.topology {
                    Some(t) => {
                        let l = t.link(o.id);
                        (l.compute_slowdown, l.drop_prob)
                    }
                    None => (1.0, 0.0),
                };
                Departure {
                    client: o.id,
                    ready_secs: (decode_secs + o.step.train_secs + o.step.compress_secs) * slowdown,
                    // The payload size is what the link is charged.
                    bytes: o.step.payload.len(),
                    dropped: drop_prob > 0.0 && self.transit_coin(round, o.id) < drop_prob,
                }
            })
            .collect();
        let arrivals = match &self.topology {
            Some(topology) => link::schedule(&departures, topology),
            // No network model: uploads "arrive" when computed.
            None => departures
                .iter()
                .map(|d| link::Arrival {
                    client: d.client,
                    ready_secs: d.ready_secs,
                    done_secs: d.ready_secs,
                    transfer_secs: 0.0,
                    dropped: false,
                })
                .collect(),
        };
        let comm_secs = match &self.topology {
            Some(topology) => link::comm_secs(&arrivals, topology),
            None => 0.0,
        };
        drop(comm_span);

        let decode_span = self.telemetry.span("engine.decode");
        // Server-side decode of everything that survived transit: each
        // delivered upload becomes one contribution at its arrival
        // time. Each codec's share of the time and bytes is tracked
        // separately so its Eqn 1 cost profile is not polluted by
        // raw-payload parse time; dropped uploads are excluded
        // throughout — they were never decompressed, so keeping their
        // bytes in the denominator would bias the per-byte decompress
        // cost downward.
        let mut arrived_at: Vec<Option<f64>> = vec![None; self.clients.len()];
        for a in arrivals.iter().filter(|a| !a.dropped) {
            arrived_at[a.client] = Some(a.done_secs);
        }
        let dropped_count = arrivals.iter().filter(|a| a.dropped).count();
        let mut decompress_secs = 0.0f64;
        let mut codec_costs = vec![CodecCosts::default(); self.uplink.codec_count()];
        let contributions: Vec<Contribution> = outcomes
            .iter()
            .filter_map(|o| {
                let done_secs = arrived_at[o.id]?;
                let t_dec = Instant::now();
                let dict = self
                    .fold
                    .decode(&o.step.payload, o.step.compressed, Some(shared_global))
                    .expect("self-produced upload");
                let elapsed = t_dec.elapsed().as_secs_f64();
                decompress_secs += elapsed;
                if let Some(codec) = o.choice.codec {
                    let costs = &mut codec_costs[codec];
                    costs.raw_bytes += o.step.raw_bytes;
                    costs.payload_bytes += o.step.payload.len();
                    costs.compress_secs += o.step.compress_secs;
                    costs.decompress_secs += elapsed;
                }
                let weight = if self.config.weighted_aggregation {
                    o.step.samples.max(1) as f64
                } else {
                    1.0
                };
                Some(Contribution {
                    client: o.id,
                    dict,
                    weight,
                    wire_bytes: o.step.payload.len(),
                    done_secs,
                })
            })
            .collect();
        drop(decode_span);

        let merge_span =
            self.telemetry.span_with("engine.merge", &[("round", Value::U64(round as u64))]);
        let outcome = match &mut self.tree {
            Some(tree) => tree.aggregate(round, contributions),
            None => aggregate_flat(contributions),
        };
        let outcome = outcome.map(|mut o| {
            // The merged model moves into the engine; the outcome keeps
            // only the accounting fields.
            self.global = std::mem::take(&mut o.global);
            o
        });
        drop(merge_span);
        let (aggregated_updates, round_secs, root_ingress_bytes, psum_ratio) = match &outcome {
            Some(o) => (o.merged, o.root_done_secs, o.root_ingress_bytes, o.psum_ratio()),
            None => (0, 0.0, 0, 1.0),
        };
        let (level_merge_nanos, psum_eqn1) = match outcome {
            Some(o) => (o.level_merge_nanos, o.eqn1),
            None => (Vec::new(), Vec::new()),
        };
        eqn1.extend(psum_eqn1);

        let validate_span = self.telemetry.span("engine.validate");
        let t_val = Instant::now();
        let test_accuracy = self.evaluate();
        let validation_secs = t_val.elapsed().as_secs_f64();
        // Fingerprinted inside the stage span, so the stages still sum
        // to the round.
        let checksum = crate::net::global_checksum(&self.global);
        drop(validate_span);

        // Refresh the Eqn 1 cost profiles from this round's
        // measurements, one fold per codec that carried an upload.
        for (codec, costs) in codec_costs.iter().enumerate() {
            self.uplink.pricing.observe(
                codec,
                costs.raw_bytes,
                costs.payload_bytes,
                costs.compress_secs,
                Some(costs.decompress_secs),
            );
        }

        let n = outcomes.len().max(1) as f64;
        let train_secs = outcomes.iter().map(|o| o.step.train_secs).sum::<f64>() / n;
        let compress_secs = outcomes.iter().map(|o| o.step.compress_secs).sum::<f64>() / n;
        let update_bytes = upstream_bytes as f64 / n;
        let ratio = outcomes
            .iter()
            .map(|o| o.step.raw_bytes as f64 / o.step.payload.len().max(1) as f64)
            .sum::<f64>()
            / n;
        let dp_sigma = outcomes.iter().find_map(|o| o.step.dp).map(|d| d.sigma);
        let clipped_fraction = dp_sigma.map(|_| {
            outcomes.iter().filter(|o| o.step.dp.is_some_and(|d| d.clipped)).count() as f64 / n
        });
        let metrics = RoundMetrics {
            round,
            test_accuracy,
            train_secs,
            compress_secs,
            decompress_secs,
            comm_secs,
            round_secs,
            validation_secs,
            update_bytes,
            ratio,
            downstream_bytes,
            upstream_bytes,
            root_ingress_bytes,
            root_egress_bytes,
            downlink_ratio,
            downlink_secs,
            psum_ratio,
            aggregated_updates,
            dropped_updates: dropped_count,
            level_merge_nanos,
            eqn1,
            dp_sigma,
            clipped_fraction,
            checksum,
        };
        drop(round_span);
        metrics
    }

    /// Evaluates the current global model on the test split, in chunks
    /// of `EVAL_CHUNK` (64) samples to bound peak memory. Chunk `c` runs on
    /// eval model `c % width`, each model on its own thread, and the
    /// chunks' `accuracy × len` are added in chunk order, so the result
    /// does not depend on the width.
    pub fn evaluate(&mut self) -> f64 {
        let n = self.test_targets.len();
        if n == 0 {
            return 0.0;
        }
        let (config, global) = (&self.config, &self.global);
        let (inputs, targets) = (&self.test_inputs, &self.test_targets);
        let shape = inputs.shape();
        let sample = shape[1] * shape[2] * shape[3];
        let chunks = n.div_ceil(EVAL_CHUNK);
        let width = self.eval_models.len();
        let per_worker: Vec<Vec<f64>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .eval_models
                .iter_mut()
                .enumerate()
                .map(|(worker, slot)| {
                    scope.spawn(move || {
                        let model = slot.get_or_insert_with(|| Box::new(config.build_model()));
                        model.load_state_dict(global).expect("aggregated dict matches model");
                        (worker..chunks)
                            .step_by(width)
                            .map(|c| {
                                let span = c * EVAL_CHUNK..((c + 1) * EVAL_CHUNK).min(n);
                                let batch = fedsz_tensor::Tensor::from_vec(
                                    vec![span.len(), shape[1], shape[2], shape[3]],
                                    inputs.data()[span.start * sample..span.end * sample].to_vec(),
                                );
                                let logits = model.forward(batch, false);
                                top1_accuracy(&logits, &targets[span.clone()]) * span.len() as f64
                            })
                            .collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("evaluation thread panicked")).collect()
        });
        let correct_weighted =
            (0..chunks).fold(0.0f64, |sum, c| sum + per_worker[c % width][c / width]);
        correct_weighted / n as f64
    }
}

/// Test samples per evaluation forward pass. Fixed: the accuracy is a
/// sum of per-chunk `accuracy × len`, and `(c / l) · l` is not `c` in
/// `f64` for some chunk lengths `l`, so another chunk size could move
/// the last digit of a tracked accuracy.
const EVAL_CHUNK: usize = 64;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{PlanError, StagePolicy};
    use fedsz::timing::Eqn1Leg;

    #[test]
    fn cohort_mask_matches_rotating_selection() {
        let mut config = FlConfig::smoke_test();
        config.clients = 5;
        config.participation = 0.4; // cohort of 2
        let e = RoundEngine::new(config);
        assert_eq!(e.select_cohort(0), vec![0, 1]);
        assert_eq!(e.select_cohort(1), vec![2, 3]);
        assert_eq!(e.select_cohort(2), vec![0, 4]);
    }

    /// 170 test samples are three chunks, the last one short: one, two
    /// and three eval workers all report the serial loop's accuracy,
    /// bit for bit.
    #[test]
    fn evaluation_does_not_depend_on_the_worker_width() {
        for threads in [1, 2, 3] {
            let mut config = FlConfig::smoke_test();
            config.data.test_per_class = 17;
            config.worker_threads = Some(threads);
            let mut e = RoundEngine::new(config);
            assert_eq!(e.eval_models.len(), threads);
            e.run_round(0);
            let mut model = e.config.build_model();
            model.load_state_dict(&e.global).unwrap();
            let (n, sample) = (e.test_targets.len(), e.test_inputs.len() / e.test_targets.len());
            let mut serial = 0.0f64;
            for start in (0..n).step_by(EVAL_CHUNK) {
                let end = (start + EVAL_CHUNK).min(n);
                let mut shape = e.test_inputs.shape().to_vec();
                shape[0] = end - start;
                let data = e.test_inputs.data()[start * sample..end * sample].to_vec();
                let logits = model.forward(fedsz_tensor::Tensor::from_vec(shape, data), false);
                serial +=
                    top1_accuracy(&logits, &e.test_targets[start..end]) * (end - start) as f64;
            }
            assert_eq!(e.evaluate().to_bits(), (serial / n as f64).to_bits(), "{threads} threads");
        }
    }

    #[test]
    fn transit_coin_is_deterministic_and_uniformish() {
        let e = RoundEngine::new(FlConfig::smoke_test());
        let a = e.transit_coin(3, 1);
        assert_eq!(a, e.transit_coin(3, 1));
        assert_ne!(a, e.transit_coin(3, 0));
        let mean: f64 = (0..1000).map(|c| e.transit_coin(0, c)).sum::<f64>() / 1000.0;
        assert!((0.4..0.6).contains(&mean), "coin mean {mean:.3} not uniform-ish");
    }

    #[test]
    fn dropped_uploads_shrink_the_aggregate() {
        let mut config = FlConfig::smoke_test();
        config.clients = 4;
        config.rounds = 1;
        config.links = Some(Topology::Dedicated(vec![
            LinkProfile::symmetric(10e6),
            LinkProfile::symmetric(10e6).with_drop_prob(1.0),
            LinkProfile::symmetric(10e6),
            LinkProfile::symmetric(10e6).with_drop_prob(1.0),
        ]));
        let mut e = RoundEngine::new(config);
        let m = e.run_round(0);
        assert_eq!(m.dropped_updates, 2);
        assert_eq!(m.aggregated_updates, 2);
    }

    #[test]
    #[should_panic(expected = "one link profile per client")]
    fn mismatched_link_count_rejected() {
        let mut config = FlConfig::smoke_test();
        config.clients = 3;
        config.links = Some(Topology::Dedicated(vec![LinkProfile::default()]));
        let _ = RoundEngine::new(config);
    }

    #[test]
    fn sharded_engine_cuts_root_traffic_both_ways() {
        let mut config = FlConfig::smoke_test();
        config.clients = 8;
        config.rounds = 1;
        let mut flat = RoundEngine::new(config.clone());
        let flat_m = flat.run_round(0);
        assert_eq!(flat_m.root_ingress_bytes, flat_m.upstream_bytes);
        assert_eq!(flat_m.root_egress_bytes, flat_m.downstream_bytes);

        config.tree = Some(vec![4]);
        let mut sharded = RoundEngine::new(config);
        let m = sharded.run_round(0);
        // The root receives 4 partial-sum frames instead of 8 uploads,
        // and sends 4 broadcast copies (the edges fan out) instead of 8.
        assert!(m.root_ingress_bytes > 0);
        assert_eq!(m.root_egress_bytes * 2, m.downstream_bytes);
        // Client-facing traffic is unchanged: sharding reshapes the
        // server side only.
        assert_eq!(m.upstream_bytes, flat_m.upstream_bytes);
        assert_eq!(m.downstream_bytes, flat_m.downstream_bytes);
    }

    #[test]
    fn deep_tree_engine_prices_levels_and_compresses_frames() {
        let mut config = FlConfig::smoke_test();
        config.clients = 8;
        config.rounds = 1;
        config.tree = Some(vec![2, 4]); // depth 3: 2 mid nodes, 8 leaves
        config.psum = StagePolicy::Lossless;
        let mut deep = RoundEngine::new(config);
        let m = deep.run_round(0);
        // The root has 2 children, so it sends 2 broadcast copies for
        // the 8-client cohort.
        assert_eq!(m.root_egress_bytes * 4, m.downstream_bytes);
        assert!(m.root_ingress_bytes > 0);
        assert!(m.psum_ratio > 1.0, "lossless frames should compress, got {}", m.psum_ratio);

        // A fan-out no node can have fails the plan, not the round.
        let mut config = FlConfig::smoke_test();
        config.tree = Some(vec![2, 0]);
        assert_eq!(config.plan().unwrap_err(), PlanError::ZeroFanout { level: 1 });
    }

    #[test]
    fn downlink_compression_shrinks_broadcasts() {
        let mut config = FlConfig::smoke_test();
        config.rounds = 1;
        let raw = RoundEngine::new(config.clone()).run_round(0);
        assert!(raw.downlink_ratio <= 1.0, "raw broadcasts carry a small header");
        assert_eq!(raw.downlink_secs, 0.0);

        config.downlink = StagePolicy::Lossy(FlConfig::tiny_model_compression());
        let packed = RoundEngine::new(config).run_round(0);
        assert!(
            packed.downstream_bytes * 2 < raw.downstream_bytes,
            "encoded broadcasts should at least halve downstream: {} vs {}",
            packed.downstream_bytes,
            raw.downstream_bytes
        );
        assert!(packed.downlink_ratio > 1.5, "ratio {:.2}", packed.downlink_ratio);
        assert!(packed.downlink_secs > 0.0);
    }

    #[test]
    fn adaptive_downlink_goes_raw_on_fast_links() {
        let mut config = FlConfig::smoke_test();
        config.rounds = 3;
        config.links = Some(Topology::Dedicated(vec![LinkProfile::symmetric(1e12); 2]));
        config.downlink = StagePolicy::Priced {
            candidates: vec![StagePolicy::Lossy(FlConfig::tiny_model_compression())],
        };
        let metrics = RoundEngine::new(config).run();
        assert!(metrics[0].downlink_ratio > 1.2, "first round must probe the codec");
        let last = metrics.last().unwrap();
        assert!(
            last.downlink_ratio <= 1.0,
            "terabit links should fall back to raw broadcasts, ratio {:.2}",
            last.downlink_ratio
        );
    }

    #[test]
    #[should_panic(expected = "illegal on the uplink leg")]
    fn hand_built_plans_cannot_smuggle_an_illegal_uplink_policy() {
        let mut plan = FlConfig::smoke_test().plan().expect("valid config");
        plan.config.uplink = StagePolicy::Lossless;
        let _ = RoundEngine::from_plan(plan);
    }

    /// The engine hands the tree its backbone tiers exactly when a link
    /// model exists: only then can a priced psum leg predict a raw
    /// transfer time.
    #[test]
    fn psum_decisions_are_priced_only_with_a_link_model() {
        let mut config = FlConfig::smoke_test();
        config.clients = 4;
        config.rounds = 3;
        config.tree = Some(vec![2]);
        config.psum = StagePolicy::Priced { candidates: vec![StagePolicy::Lossless] };
        let psum_decisions = |config: FlConfig| -> Vec<Vec<Eqn1Decision>> {
            let rounds = RoundEngine::new(config).run().into_iter();
            rounds
                .map(|m| m.eqn1.into_iter().filter(|d| d.leg == Eqn1Leg::Psum).collect())
                .collect()
        };
        let linked = psum_decisions(config.clone());
        // Round 1 probes the codec; from round 2 on a profile exists.
        for (round, decisions) in linked.iter().enumerate().skip(1) {
            assert!(!decisions.is_empty(), "round {round} shipped no psum frames");
            assert!(
                decisions.iter().all(|d| d.predicted_raw_secs.is_some()),
                "round {round}: {decisions:?}"
            );
        }
        config.links = None;
        let unlinked = psum_decisions(config);
        assert!(unlinked.iter().flatten().count() > 0);
        assert!(unlinked.iter().flatten().all(|d| d.predicted_raw_secs.is_none()));
    }
}
