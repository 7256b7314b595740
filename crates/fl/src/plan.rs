//! The validated execution plan: [`FlConfig`] in, [`RoundPlan`] out.
//!
//! [`FlConfig`] is the *ergonomic* input surface: a flat struct of
//! knobs that grew one field per feature (`shards` next to `tree`,
//! `links` next to `bandwidth_bps`, a `compression` option next to an
//! explicit `uplink` policy, separate `DownlinkMode`/`PsumMode`
//! enums). Historically each consumer re-derived what those knobs
//! *meant* — with silent precedence (`tree` over `shards`), silent
//! clamping (`ShardPlan` used to clamp out-of-range shard counts) and
//! scattered `assert!`s that fired mid-round instead of at build time.
//!
//! [`FlConfig::plan`] replaces all of that with one fallible
//! canonicalization step:
//!
//! ```text
//! FlConfig ──plan()──► Result<RoundPlan, PlanError>
//!                            │
//!                            ├── tree:      Option<TreePlan>      (shards/tree unified)
//!                            ├── topology:  Option<Topology>      (links/bandwidth unified)
//!                            ├── uplink:    StagePolicy           (compression | uplink)
//!                            ├── downlink:  StagePolicy           (DownlinkMode)
//!                            └── psum:      StagePolicy           (PsumMode)
//! ```
//!
//! Everything that used to be clamped or silently ignored is now a
//! [`PlanError`]: zero/oversized shard counts, `--shards` with
//! `--tree`, participation outside `(0, 1]`, non-positive learning
//! rates, zero batch sizes or round counts, link lists that do not
//! match the cohort, edge-link lists that do not match the leaf
//! count, and compressing stages configured without a codec. The
//! engine ([`RoundEngine`](crate::engine::RoundEngine)), the socket
//! runtime ([`crate::net`]) and the scaling harness
//! ([`crate::scaling`]) all consume the plan — none of them looks at
//! the raw precedence-ridden fields anymore.
//!
//! # One policy type for every compression leg
//!
//! FedSZ is one algorithm applied at three wire legs — client upload,
//! server broadcast, and partial-sum forwarding between aggregator
//! tiers. [`StagePolicy`] is the single vocabulary for all three:
//!
//! | policy | upload | broadcast | partial sums |
//! |---|---|---|---|
//! | `Raw` | ✓ | ✓ | ✓ |
//! | `Lossy(FedSzConfig)` | ✓ | ✓ | ✗ (breaks bit-parity) |
//! | `Lossless` | ✗ (no dict codec) | ✗ | ✓ |
//! | `Adaptive { compressed }` | over `Lossy` | over `Lossy` | over `Lossless` |
//! | `TopK { .. }` | ✓ (delta stream) | ✗ | ✗ |
//! | `Quant { .. }` | ✓ (delta stream) | ✗ | ✗ |
//! | `AutoFamily { .. }` | ✓ (Eqn 1 per family) | ✗ | ✗ |
//!
//! The ✗ cells are *rejected by [`PlanError`]* — a lossy partial-sum
//! leg would silently break the tree's bit-parity guarantee with flat
//! FedAvg, so it cannot be expressed past `plan()`. The executors
//! ([`Downlink`](crate::agg::Downlink),
//! [`PsumForwarder`](crate::agg::PsumForwarder)) validate again at
//! construction, so even hand-built plans cannot smuggle an illegal
//! policy into a round.
//!
//! # Error feedback makes the uplink stateful
//!
//! `TopK`/`Quant` with `error_feedback: true` keep a per-client
//! residual dict: mass the codec dropped this round re-enters next
//! round's delta (FedSparQ-style). That residual is *state the round
//! loop must carry*, which two execution paths cannot do today:
//!
//! * **Buffered aggregation** applies updates asynchronously across
//!   round boundaries, so a client's residual would be folded against
//!   a reference model it never trained on —
//!   [`PlanError::StatefulUplinkBuffered`].
//! * **Socket workers** may disconnect and resume with a fresh
//!   process, silently dropping the residual and the conserved mass
//!   with it — [`RoundPlan::validate_for_workers`] returns
//!   [`PlanError::StatefulUplinkWorker`].
//!
//! Both are typed rejections, the same pattern as lossy psum.
//! [`RoundPlan::validate_for_workers`] rejects three more simulator
//! features the socket runtime has no mechanism for — weighted
//! aggregation, partial participation and buffered aggregation
//! ([`PlanError::SimulatorOnly`]) — so a `ServeConfig` built in code
//! cannot complete with a checksum that silently differs from the
//! in-process run of the same configuration.
//!
//! # The DP stage is stateless, so it composes everywhere
//!
//! [`RoundPlan::dp`] (a validated [`fedsz_dp::DpPolicy`]) clips each
//! client's update delta and adds seeded Gaussian/Laplace noise
//! *before* the uplink codec runs. Unlike error feedback, the stage
//! keeps no per-client state between rounds — the noise stream is
//! derived from `(dp.seed, round, client)` alone — so it is legal with
//! every uplink family, under buffered aggregation, and on socket
//! workers. `plan()` rejects only malformed parameters
//! ([`PlanError::BadDpClipNorm`], [`PlanError::BadDpNoiseMultiplier`]);
//! DP combined with `+ef` still trips the error-feedback rejections
//! above, because the residual — not the noise — is the stateful part.

use crate::agg::{DownlinkMode, PsumMode, ShardPlan, TreePlan};
use crate::engine::AggregationPolicy;
use crate::link::{LinkProfile, Topology};
use crate::FlConfig;
use fedsz::FedSzConfig;
use std::fmt;

/// Default edge-aggregator uplink: edges sit in well-provisioned tiers
/// (1 Gbps), unlike last-mile clients.
pub const DEFAULT_EDGE_BPS: f64 = 1e9;

/// What one compression leg of the round does. See the module docs for
/// the legality table; [`StagePolicy::validate_for`] enforces it.
#[derive(Debug, Clone, PartialEq)]
pub enum StagePolicy {
    /// Ship raw bytes.
    Raw,
    /// FedSZ error-bounded lossy compression with the given codec
    /// configuration.
    Lossy(FedSzConfig),
    /// Lossless byte-shuffle + entropy compression
    /// ([`fedsz_lossless::PsumCodec`]) — safe on the partial-sum leg,
    /// where bit-parity must survive the hop.
    Lossless,
    /// The paper's Eqn 1, per link and per round: ship raw when the
    /// link would move raw bytes faster than codec time plus the
    /// compressed transfer, else fall through to `compressed`.
    Adaptive {
        /// The compressed alternative Eqn 1 prices against raw
        /// transfer (must itself be `Lossy` or `Lossless`).
        compressed: Box<StagePolicy>,
    },
    /// Top-K sparsification of the update *delta* (uplink only): keep
    /// the `ceil(ratio * n)` largest-magnitude entries bit-exactly,
    /// zero the rest, ship an index+value stream.
    TopK {
        /// Fraction of delta entries to keep, in `(0, 1]`.
        ratio: f64,
        /// Carry a per-client residual re-injecting dropped mass into
        /// the next round's delta. Makes the uplink *stateful* — see
        /// the module docs for the paths that must reject it.
        error_feedback: bool,
    },
    /// Uniform 4/8-bit quantization of the update *delta* (uplink
    /// only).
    Quant {
        /// Code width: 4 or 8 bits per entry.
        bits: u8,
        /// Stochastic (unbiased) rounding instead of round-to-nearest.
        stochastic: bool,
        /// Carry a per-client error-feedback residual (stateful, as
        /// for [`StagePolicy::TopK`]).
        error_feedback: bool,
    },
    /// Eqn 1 generalized from compress-or-not to *family selection*
    /// (uplink only): price every candidate codec family through its
    /// measured `CostProfile` and ship whichever predicts the fastest
    /// end-to-end transfer — or raw when raw wins.
    AutoFamily {
        /// The concrete families to price against raw. Each must be
        /// `Lossy`, `TopK`, or `Quant`, without error feedback (a
        /// residual has no meaning when the codec changes per round).
        candidates: Vec<StagePolicy>,
    },
}

/// The compression legs a [`StagePolicy`] can be attached to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageLeg {
    /// Client → server update uploads.
    Uplink,
    /// Server → client global-model broadcasts.
    Downlink,
    /// Aggregator → aggregator partial-sum frames.
    Psum,
}

impl StageLeg {
    /// Short human-readable leg name (for error messages).
    pub fn name(self) -> &'static str {
        match self {
            StageLeg::Uplink => "uplink",
            StageLeg::Downlink => "downlink",
            StageLeg::Psum => "psum",
        }
    }
}

impl StagePolicy {
    /// Short human-readable policy name (for reports and the `family`
    /// key of `eqn1.decision` records). Quantizers encode their width
    /// and rounding in the name (`q8`, `q4s`); error-feedback variants
    /// append `+ef`.
    pub fn name(&self) -> &'static str {
        match self {
            StagePolicy::Raw => "raw",
            StagePolicy::Lossy(_) => "lossy",
            StagePolicy::Lossless => "lossless",
            StagePolicy::Adaptive { .. } => "adaptive",
            StagePolicy::TopK { error_feedback: false, .. } => "topk",
            StagePolicy::TopK { error_feedback: true, .. } => "topk+ef",
            StagePolicy::Quant { bits: 4, stochastic: false, error_feedback: false } => "q4",
            StagePolicy::Quant { bits: 4, stochastic: true, error_feedback: false } => "q4s",
            StagePolicy::Quant { bits: 4, stochastic: false, error_feedback: true } => "q4+ef",
            StagePolicy::Quant { bits: 4, stochastic: true, error_feedback: true } => "q4s+ef",
            StagePolicy::Quant { stochastic: false, error_feedback: false, .. } => "q8",
            StagePolicy::Quant { stochastic: true, error_feedback: false, .. } => "q8s",
            StagePolicy::Quant { stochastic: false, error_feedback: true, .. } => "q8+ef",
            StagePolicy::Quant { stochastic: true, error_feedback: true, .. } => "q8s+ef",
            StagePolicy::AutoFamily { .. } => "auto",
        }
    }

    /// The FedSZ configuration this policy may invoke (`None` for raw,
    /// lossless, and the non-FedSZ codec families). An `AutoFamily`
    /// set reports its `Lossy` candidate's config, if it has one.
    pub fn fedsz(&self) -> Option<FedSzConfig> {
        match self {
            StagePolicy::Lossy(config) => Some(*config),
            StagePolicy::Adaptive { compressed } => compressed.fedsz(),
            StagePolicy::AutoFamily { candidates } => {
                candidates.iter().find_map(StagePolicy::fedsz)
            }
            StagePolicy::Raw
            | StagePolicy::Lossless
            | StagePolicy::TopK { .. }
            | StagePolicy::Quant { .. } => None,
        }
    }

    /// Whether this policy ever compresses (unconditionally or
    /// adaptively).
    pub fn compresses(&self) -> bool {
        !matches!(self, StagePolicy::Raw)
    }

    /// Whether the compress-or-not decision is made per link with
    /// Eqn 1 ([`StagePolicy::AutoFamily`] is the family-selection
    /// generalization of the same pricing loop).
    pub fn is_adaptive(&self) -> bool {
        matches!(self, StagePolicy::Adaptive { .. } | StagePolicy::AutoFamily { .. })
    }

    /// Whether this policy carries a per-client error-feedback
    /// residual — state the executor must persist across rounds (see
    /// the module docs for the combinations that reject it).
    pub fn error_feedback(&self) -> bool {
        match self {
            StagePolicy::TopK { error_feedback, .. }
            | StagePolicy::Quant { error_feedback, .. } => *error_feedback,
            StagePolicy::Adaptive { compressed } => compressed.error_feedback(),
            StagePolicy::AutoFamily { candidates } => {
                candidates.iter().any(StagePolicy::error_feedback)
            }
            StagePolicy::Raw | StagePolicy::Lossy(_) | StagePolicy::Lossless => false,
        }
    }

    /// Checks that this policy is legal on `leg` (the module-level
    /// table): lossy policies would break bit-parity on the
    /// partial-sum leg, the dict legs have no lossless codec, and
    /// `Adaptive` must wrap an actual compressed policy.
    ///
    /// # Errors
    ///
    /// Returns the [`PlanError`] naming the illegal combination.
    pub fn validate_for(&self, leg: StageLeg) -> Result<(), PlanError> {
        let illegal = || PlanError::IllegalStagePolicy { leg, policy: self.name() };
        match (self, leg) {
            (StagePolicy::Raw, _) => Ok(()),
            (StagePolicy::Lossy(_), StageLeg::Uplink | StageLeg::Downlink) => Ok(()),
            (StagePolicy::Lossy(_), StageLeg::Psum) => Err(illegal()),
            (StagePolicy::Lossless, StageLeg::Psum) => Ok(()),
            (StagePolicy::Lossless, StageLeg::Uplink | StageLeg::Downlink) => Err(illegal()),
            (StagePolicy::Adaptive { compressed }, leg) => match compressed.as_ref() {
                // Adaptive stays the binary compress-or-not of the
                // paper: the family codecs route through `AutoFamily`,
                // which owns its own probe/price loop.
                inner @ (StagePolicy::Lossy(_) | StagePolicy::Lossless) => inner.validate_for(leg),
                _ => Err(illegal()),
            },
            // The family codecs encode a *delta* against the broadcast
            // the client just received — a construction only the
            // upload leg has (the broadcast itself has no reference;
            // partial sums must stay bit-exact).
            (StagePolicy::TopK { ratio, .. }, StageLeg::Uplink) => {
                if !(*ratio > 0.0 && *ratio <= 1.0) {
                    return Err(PlanError::BadTopKRatio { ratio: *ratio });
                }
                Ok(())
            }
            (StagePolicy::Quant { bits, .. }, StageLeg::Uplink) => {
                if *bits != 4 && *bits != 8 {
                    return Err(PlanError::BadQuantBits { bits: *bits });
                }
                Ok(())
            }
            (StagePolicy::AutoFamily { candidates }, StageLeg::Uplink) => {
                if candidates.is_empty() {
                    return Err(PlanError::BadAutoFamily {
                        reason: "needs at least one candidate family",
                    });
                }
                for candidate in candidates {
                    match candidate {
                        StagePolicy::Lossy(_)
                        | StagePolicy::TopK { .. }
                        | StagePolicy::Quant { .. } => candidate.validate_for(leg)?,
                        _ => {
                            return Err(PlanError::BadAutoFamily {
                                reason: "candidates must be concrete codec families \
                                         (lossy, topk, or quant)",
                            })
                        }
                    }
                    if candidate.error_feedback() {
                        return Err(PlanError::BadAutoFamily {
                            reason: "error-feedback candidates are not allowed (a residual \
                                     has no meaning when the codec changes per round)",
                        });
                    }
                }
                Ok(())
            }
            (
                StagePolicy::TopK { .. }
                | StagePolicy::Quant { .. }
                | StagePolicy::AutoFamily { .. },
                StageLeg::Downlink | StageLeg::Psum,
            ) => Err(illegal()),
        }
    }
}

/// Why an [`FlConfig`] cannot be turned into a [`RoundPlan`].
///
/// Every variant names the offending field and the legal range, so a
/// config file typo surfaces as an actionable message at build time
/// instead of a clamp, a silent preference, or a mid-round panic.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// `clients == 0`.
    NoClients,
    /// `rounds == 0`.
    NoRounds,
    /// `batch_size == 0`.
    ZeroBatch,
    /// Learning rate not finite and positive.
    BadLearningRate(f32),
    /// Participation outside `(0, 1]`.
    BadParticipation(f64),
    /// Shared-pipe bandwidth not finite and positive.
    BadBandwidth(f64),
    /// Shared-pipe latency negative or non-finite.
    BadLatency(f64),
    /// Dirichlet alpha not finite and positive.
    BadNonIidAlpha(f64),
    /// `Buffered { target: 0 }` can never aggregate.
    ZeroBufferTarget,
    /// A per-client [`LinkProfile`] with out-of-range fields.
    BadLinkProfile {
        /// The offending client id.
        client: usize,
    },
    /// `shards` outside `[1, clients]` (the legacy `ShardPlan` used to
    /// clamp this silently).
    ShardsOutOfRange {
        /// The configured shard count.
        shards: usize,
        /// The cohort size bounding it.
        clients: usize,
    },
    /// `shards` and `tree` both set — the library analogue of the
    /// CLI's `--shards`+`--tree` error (the config used to prefer
    /// `tree` silently).
    TopologyConflict,
    /// `tree` set to an empty fan-out list.
    EmptyTree,
    /// A tree fan-out of zero at the given level.
    ZeroFanout {
        /// The offending level (0 = the root's own fan-out).
        level: usize,
    },
    /// The tree's leaf count overflows `usize`.
    LeafOverflow,
    /// `links` does not provide exactly one profile per client.
    LinkCountMismatch {
        /// Profiles provided.
        links: usize,
        /// Cohort size.
        clients: usize,
    },
    /// `edge_links` does not provide exactly one profile per leaf
    /// aggregator.
    EdgeLinkCountMismatch {
        /// Profiles provided.
        links: usize,
        /// Leaf aggregators in the tree.
        leaves: usize,
    },
    /// `edge_links` set without any aggregation tree to attach it to
    /// (this used to be silently ignored).
    EdgeLinksWithoutTree,
    /// A non-raw `psum` mode without an aggregation tree — there are
    /// no partial-sum frames to compress (this used to be silently
    /// ignored by the library; only the CLI rejected it).
    PsumWithoutTree,
    /// A compressing stage configured while `compression` is `None`.
    MissingCodec {
        /// The leg that needs the codec.
        leg: StageLeg,
    },
    /// A [`StagePolicy`] attached to a leg it is illegal on (e.g. a
    /// lossy partial-sum policy, which would break bit-parity).
    IllegalStagePolicy {
        /// The leg.
        leg: StageLeg,
        /// The policy's name.
        policy: &'static str,
    },
    /// `worker_threads` explicitly set to zero — a width-0 pool can
    /// never merge anything (leave it `None` to use the host's
    /// parallelism).
    ZeroWorkerThreads,
    /// A [`StagePolicy::TopK`] ratio outside `(0, 1]`.
    BadTopKRatio {
        /// The configured keep fraction.
        ratio: f64,
    },
    /// A [`StagePolicy::Quant`] width other than 4 or 8 bits.
    BadQuantBits {
        /// The configured code width.
        bits: u8,
    },
    /// A [`StagePolicy::AutoFamily`] candidate set that cannot be
    /// priced (empty, nested selectors, or error-feedback members).
    BadAutoFamily {
        /// What about the candidate set is wrong.
        reason: &'static str,
    },
    /// An error-feedback uplink combined with buffered aggregation:
    /// buffered updates apply across round boundaries, so the residual
    /// would be folded against a reference model the client never
    /// trained on.
    StatefulUplinkBuffered,
    /// An error-feedback uplink on the socket runtime: a worker that
    /// reconnects resumes with a fresh process and silently drops its
    /// residual, breaking mass conservation.
    StatefulUplinkWorker,
    /// A simulator-only feature on the socket runtime, which has no
    /// mechanism for it: `fedsz serve`/`worker` fold every live
    /// worker's update with weight 1 at a synchronous barrier.
    SimulatorOnly {
        /// The offending feature (`"weighted aggregation"`,
        /// `"partial participation"` or `"buffered aggregation"`).
        feature: &'static str,
    },
    /// A DP clip norm that is not a positive finite number.
    BadDpClipNorm(f64),
    /// A DP noise multiplier that is negative or non-finite (`0` is
    /// legal: clip-only).
    BadDpNoiseMultiplier(f64),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::NoClients => write!(f, "need at least one client"),
            PlanError::NoRounds => write!(f, "rounds must be positive (got 0)"),
            PlanError::ZeroBatch => write!(f, "batch_size must be positive (got 0)"),
            PlanError::BadLearningRate(lr) => {
                write!(f, "learning rate must be finite and positive, got {lr}")
            }
            PlanError::BadParticipation(p) => {
                write!(f, "participation must be in (0, 1], got {p}")
            }
            PlanError::BadBandwidth(bw) => {
                write!(f, "bandwidth must be finite and positive, got {bw} bps")
            }
            PlanError::BadLatency(l) => {
                write!(f, "latency must be finite and non-negative, got {l} s")
            }
            PlanError::BadNonIidAlpha(a) => {
                write!(f, "non-IID Dirichlet alpha must be finite and positive, got {a}")
            }
            PlanError::ZeroBufferTarget => {
                write!(f, "buffered aggregation target must be at least 1")
            }
            PlanError::BadLinkProfile { client } => write!(
                f,
                "link profile for client {client} is out of range (want positive finite \
                 bandwidth, non-negative latency, drop probability in [0, 1], slowdown >= 1)"
            ),
            PlanError::ShardsOutOfRange { shards, clients } => write!(
                f,
                "shards must be in [1, clients], got {shards} shards for {clients} clients"
            ),
            PlanError::TopologyConflict => write!(
                f,
                "contradictory topology: `shards` and `tree` both set; pick one \
                 (tree [S] is the two-level equivalent of shards S)"
            ),
            PlanError::EmptyTree => write!(f, "a tree needs at least one aggregator level"),
            PlanError::ZeroFanout { level } => {
                write!(f, "tree fan-out at level {level} must be positive")
            }
            PlanError::LeafOverflow => write!(f, "tree leaf count overflows usize"),
            PlanError::LinkCountMismatch { links, clients } => {
                write!(f, "need one link profile per client ({links} links for {clients} clients)")
            }
            PlanError::EdgeLinkCountMismatch { links, leaves } => write!(
                f,
                "need one edge link per shard ({links} links for {leaves} leaf aggregators)"
            ),
            PlanError::EdgeLinksWithoutTree => {
                write!(f, "edge_links set without an aggregation tree (set shards or tree)")
            }
            PlanError::PsumWithoutTree => {
                write!(f, "a non-raw psum mode needs an aggregation tree (set shards or tree)")
            }
            PlanError::MissingCodec { leg } => write!(
                f,
                "{} compression requires a FedSZ configuration (compression is None)",
                leg.name()
            ),
            PlanError::IllegalStagePolicy { leg, policy } => write!(
                f,
                "a {policy} policy is illegal on the {} leg (see the StagePolicy table)",
                leg.name()
            ),
            PlanError::ZeroWorkerThreads => {
                write!(f, "worker_threads must be at least 1 (leave it unset for host parallelism)")
            }
            PlanError::BadTopKRatio { ratio } => {
                write!(f, "Top-K keep ratio must be in (0, 1], got {ratio}")
            }
            PlanError::BadQuantBits { bits } => {
                write!(f, "quantizer width must be 4 or 8 bits, got {bits}")
            }
            PlanError::BadAutoFamily { reason } => {
                write!(f, "auto family selection is misconfigured: {reason}")
            }
            PlanError::StatefulUplinkBuffered => write!(
                f,
                "error-feedback uplinks are stateful and cannot combine with buffered \
                 aggregation (the residual would be applied against a stale reference); \
                 use synchronous aggregation or drop `+ef`"
            ),
            PlanError::StatefulUplinkWorker => write!(
                f,
                "error-feedback uplinks are stateful and cannot run on socket workers \
                 (a reconnecting worker silently drops its residual); use the in-process \
                 simulator or drop `+ef`"
            ),
            PlanError::SimulatorOnly { feature } => write!(
                f,
                "{feature} is simulator-only: the socket runtime folds every live worker's \
                 update with weight 1 at a synchronous barrier (run it under `fedsz fl`)"
            ),
            PlanError::BadDpClipNorm(c) => {
                write!(f, "DP clip norm must be finite and positive, got {c}")
            }
            PlanError::BadDpNoiseMultiplier(m) => write!(
                f,
                "DP noise multiplier must be finite and non-negative (0 = clip only), got {m}"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

/// The canonical, validated execution plan of one federated run.
///
/// Produced by [`FlConfig::plan`]; consumed by
/// [`RoundEngine::from_plan`](crate::engine::RoundEngine::from_plan),
/// the socket runtime and the scaling harness. Holding a `RoundPlan`
/// is proof the configuration passed every build-time check — the
/// executors can `expect` on it instead of re-validating.
#[derive(Debug, Clone)]
pub struct RoundPlan {
    /// The validated source configuration (training geometry, seeds,
    /// data). Canonical topology and stage decisions live in the
    /// sibling fields — consumers must not re-derive them from the
    /// raw `shards`/`tree`/`links`/`downlink`/`psum` knobs here.
    pub config: FlConfig,
    /// The canonical aggregation hierarchy: `shards`/`tree` unified
    /// into one [`TreePlan`] (`None` = the paper's flat server).
    pub tree: Option<TreePlan>,
    /// The canonical link topology: `links`/`bandwidth_bps`/
    /// `latency_secs` unified into concrete per-client
    /// [`LinkProfile`]s (`None` = no network model).
    pub topology: Option<Topology>,
    /// Per-level aggregator uplinks for pricing partial-sum forwards,
    /// present exactly when the plan has both a tree and a network
    /// model: `level_links[l - 1]` holds one profile per node at tree
    /// level `l`.
    pub level_links: Option<Vec<Vec<LinkProfile>>>,
    /// Policy for the client → server upload leg.
    pub uplink: StagePolicy,
    /// Policy for the server → client broadcast leg.
    pub downlink: StagePolicy,
    /// Policy for the aggregator → aggregator partial-sum leg.
    pub psum: StagePolicy,
    /// Resolved worker width for the aggregation hot path:
    /// [`FlConfig::worker_threads`] when set, otherwise the host's
    /// available parallelism at plan time. Always at least 1. Width is
    /// execution speed, not semantics — the global model's bits are
    /// identical at every value.
    pub worker_threads: usize,
    /// Differential-privacy stage, validated (positive finite clip
    /// norm, non-negative finite multiplier): every executor clips and
    /// noises each client's update delta *before* the uplink codec.
    /// The stage is stateless per `(round, client)` — its noise seed is
    /// derived, not carried — so unlike error feedback it is legal on
    /// socket workers and under buffered aggregation.
    pub dp: Option<fedsz_dp::DpPolicy>,
}

impl RoundPlan {
    /// Number of first-tier aggregators under the root: the relay
    /// count a sharded `fedsz serve` deployment expects, or `None` for
    /// a flat server.
    pub fn shard_count(&self) -> Option<usize> {
        self.tree.as_ref().map(|tree| tree.nodes_at(1))
    }

    /// The per-level fan-outs of the canonical tree (root downward),
    /// or `None` for a flat server.
    pub fn tree_fanouts(&self) -> Option<&[usize]> {
        self.tree.as_ref().map(TreePlan::fanouts)
    }

    /// Checks the extra constraints the socket runtime adds on top of
    /// [`FlConfig::plan`]. An error-feedback uplink cannot survive a
    /// worker reconnect (the residual dies with the process); and the
    /// server folds every live worker's update with weight 1 at a
    /// synchronous barrier, so weighted aggregation, partial
    /// participation and buffered aggregation would complete with a
    /// checksum that silently differs from the in-process run.
    /// `fedsz serve`/`worker` reject all four here before any round
    /// runs.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::StatefulUplinkWorker`] for an
    /// error-feedback uplink and [`PlanError::SimulatorOnly`] for the
    /// aggregation features the socket runtime cannot honour.
    pub fn validate_for_workers(&self) -> Result<(), PlanError> {
        if self.uplink.error_feedback() {
            return Err(PlanError::StatefulUplinkWorker);
        }
        let simulator_only = [
            (self.config.weighted_aggregation, "weighted aggregation"),
            (self.config.participation < 1.0, "partial participation"),
            (
                matches!(self.config.aggregation, AggregationPolicy::Buffered { .. }),
                "buffered aggregation",
            ),
        ];
        match simulator_only.iter().find(|(set, _)| *set) {
            Some(&(_, feature)) => Err(PlanError::SimulatorOnly { feature }),
            None => Ok(()),
        }
    }

    /// The client-id range a sharded root adopts when relay `shard`
    /// dies mid-run: the same contiguous [`ShardPlan`] split every
    /// executor derives from the cohort size, so the re-parented
    /// workers' uploads fold at the root in the identical positions
    /// their relay would have used — which is what keeps the global
    /// checksum bit-identical across the failover. `None` for a flat
    /// server (nothing to re-parent) or an out-of-range shard.
    pub fn reparent_range(&self, shard: usize) -> Option<std::ops::Range<usize>> {
        let shards = self.shard_count()?;
        if shard >= shards {
            return None;
        }
        Some(ShardPlan::new(self.config.clients, shards).range(shard))
    }
}

/// Validates an explicit tree spec's per-level fan-outs: at least one
/// level, every fan-out positive, leaf count representable. Shared by
/// [`FlConfig::plan`] and
/// [`ScalingConfig::plan`](crate::scaling::ScalingConfig::plan) so a
/// new tree-shape rule applies to both.
pub(crate) fn validate_tree_fanouts(fanouts: &[usize]) -> Result<(), PlanError> {
    if fanouts.is_empty() {
        return Err(PlanError::EmptyTree);
    }
    if let Some(level) = fanouts.iter().position(|&f| f == 0) {
        return Err(PlanError::ZeroFanout { level });
    }
    if fanouts.iter().try_fold(1usize, |acc, &f| acc.checked_mul(f)).is_none() {
        return Err(PlanError::LeafOverflow);
    }
    Ok(())
}

fn validate_link(profile: &LinkProfile) -> bool {
    profile.bandwidth_bps.is_finite()
        && profile.bandwidth_bps > 0.0
        && profile.latency_secs.is_finite()
        && profile.latency_secs >= 0.0
        && (0.0..=1.0).contains(&profile.drop_prob)
        && profile.compute_slowdown.is_finite()
        && profile.compute_slowdown >= 1.0
}

/// Validates the tree-shaping fields and canonicalizes them into one
/// [`TreePlan`], or `None` for the flat server.
fn plan_tree(config: &FlConfig) -> Result<Option<TreePlan>, PlanError> {
    let fanouts = match (&config.tree, config.shards) {
        (Some(_), Some(_)) => return Err(PlanError::TopologyConflict),
        (Some(fanouts), None) => {
            validate_tree_fanouts(fanouts)?;
            fanouts.clone()
        }
        (None, Some(shards)) => {
            // The legacy ShardPlan clamped this to [1, clients]; a
            // shard count the cohort cannot fill is now an error
            // (surplus leaves remain legal for explicit `tree` specs,
            // where empty leaves are a documented, deliberate shape).
            if shards == 0 || shards > config.clients {
                return Err(PlanError::ShardsOutOfRange { shards, clients: config.clients });
            }
            vec![shards]
        }
        (None, None) => return Ok(None),
    };
    Ok(Some(TreePlan::new(config.clients, fanouts)))
}

/// Canonicalizes `links`/`bandwidth_bps`/`edge_links` into the link
/// topology and the per-level aggregator uplinks.
#[allow(clippy::type_complexity)]
fn plan_topology(
    config: &FlConfig,
    tree: Option<&TreePlan>,
) -> Result<(Option<Topology>, Option<Vec<Vec<LinkProfile>>>), PlanError> {
    if let Some(links) = &config.links {
        if links.len() != config.clients {
            return Err(PlanError::LinkCountMismatch {
                links: links.len(),
                clients: config.clients,
            });
        }
        if let Some(client) = links.iter().position(|l| !validate_link(l)) {
            return Err(PlanError::BadLinkProfile { client });
        }
    }
    if let Some(bw) = config.bandwidth_bps {
        if !(bw.is_finite() && bw > 0.0) {
            return Err(PlanError::BadBandwidth(bw));
        }
    }
    if !(config.latency_secs.is_finite() && config.latency_secs >= 0.0) {
        return Err(PlanError::BadLatency(config.latency_secs));
    }
    if config.edge_links.is_some() && tree.is_none() {
        return Err(PlanError::EdgeLinksWithoutTree);
    }
    // Per-level aggregator uplinks (tree mode only): explicit
    // `edge_links` profiles apply to the leaf tier; inner tiers always
    // sit on the well-provisioned backbone.
    let level_links: Option<Vec<Vec<LinkProfile>>> = match tree {
        None => None,
        Some(plan) => {
            let mut levels: Vec<Vec<LinkProfile>> = (1..plan.depth())
                .map(|l| vec![LinkProfile::symmetric(DEFAULT_EDGE_BPS); plan.nodes_at(l)])
                .collect();
            if let Some(edges) = &config.edge_links {
                if edges.len() != plan.leaves() {
                    return Err(PlanError::EdgeLinkCountMismatch {
                        links: edges.len(),
                        leaves: plan.leaves(),
                    });
                }
                if let Some(client) = edges.iter().position(|l| !validate_link(l)) {
                    return Err(PlanError::BadLinkProfile { client });
                }
                *levels.last_mut().expect("depth >= 2") = edges.clone();
            }
            Some(levels)
        }
    };
    let topology = match (&config.links, config.bandwidth_bps, &level_links) {
        // Tree mode: every client keeps its own last mile to its leaf
        // aggregator; the tree variant carries every tier's profiles.
        (Some(links), _, Some(levels)) => {
            Some(Topology::Tree { clients: links.clone(), levels: levels.clone() })
        }
        (None, Some(bw), Some(levels)) => Some(Topology::Tree {
            clients: vec![
                LinkProfile::symmetric(bw).with_latency(config.latency_secs);
                config.clients
            ],
            levels: levels.clone(),
        }),
        (Some(links), _, None) => Some(Topology::Dedicated(links.clone())),
        (None, Some(bw), None) => {
            Some(Topology::Shared(LinkProfile::symmetric(bw).with_latency(config.latency_secs)))
        }
        (None, None, _) => None,
    };
    // Aggregator forwards are only priced when a network model exists.
    let gated_levels = if topology.is_some() { level_links } else { None };
    Ok((topology, gated_levels))
}

/// Canonicalizes the three per-leg knobs into [`StagePolicy`]s.
fn plan_stages(
    config: &FlConfig,
    tree: Option<&TreePlan>,
) -> Result<(StagePolicy, StagePolicy, StagePolicy), PlanError> {
    // Uplink: an explicit `uplink` policy wins outright; otherwise
    // FedSZ on every upload when a codec is configured, raw when not.
    let uplink = match (&config.uplink, &config.compression) {
        (Some(policy), _) => policy.clone(),
        (None, Some(codec)) => StagePolicy::Lossy(*codec),
        (None, None) => StagePolicy::Raw,
    };
    // Error feedback is round-loop state; buffered aggregation crosses
    // round boundaries. See the module docs.
    if uplink.error_feedback() && matches!(config.aggregation, AggregationPolicy::Buffered { .. }) {
        return Err(PlanError::StatefulUplinkBuffered);
    }
    let downlink = match config.downlink {
        DownlinkMode::Raw => StagePolicy::Raw,
        DownlinkMode::Compressed => StagePolicy::Lossy(
            config.compression.ok_or(PlanError::MissingCodec { leg: StageLeg::Downlink })?,
        ),
        DownlinkMode::Adaptive => StagePolicy::Adaptive {
            compressed: Box::new(StagePolicy::Lossy(
                config.compression.ok_or(PlanError::MissingCodec { leg: StageLeg::Downlink })?,
            )),
        },
    };
    let psum = match config.psum {
        PsumMode::Raw => StagePolicy::Raw,
        PsumMode::Lossless | PsumMode::Adaptive if tree.is_none() => {
            return Err(PlanError::PsumWithoutTree)
        }
        PsumMode::Lossless => StagePolicy::Lossless,
        PsumMode::Adaptive => StagePolicy::Adaptive { compressed: Box::new(StagePolicy::Lossless) },
    };
    uplink.validate_for(StageLeg::Uplink)?;
    downlink.validate_for(StageLeg::Downlink)?;
    psum.validate_for(StageLeg::Psum)?;
    Ok((uplink, downlink, psum))
}

impl FlConfig {
    /// Validates this configuration and canonicalizes it into a
    /// [`RoundPlan`]: `shards`/`tree` become one [`TreePlan`],
    /// `links`/`bandwidth_bps` become a concrete [`Topology`], and the
    /// three per-leg compression knobs become [`StagePolicy`]s.
    ///
    /// # Errors
    ///
    /// Returns the first [`PlanError`] found — every condition that
    /// was historically clamped, silently preferred, or discovered by
    /// a mid-round panic.
    pub fn plan(&self) -> Result<RoundPlan, PlanError> {
        if self.clients == 0 {
            return Err(PlanError::NoClients);
        }
        if self.rounds == 0 {
            return Err(PlanError::NoRounds);
        }
        if self.batch_size == 0 {
            return Err(PlanError::ZeroBatch);
        }
        if !(self.lr.is_finite() && self.lr > 0.0) {
            return Err(PlanError::BadLearningRate(self.lr));
        }
        if !(self.participation.is_finite()
            && self.participation > 0.0
            && self.participation <= 1.0)
        {
            return Err(PlanError::BadParticipation(self.participation));
        }
        if let Some(alpha) = self.non_iid_alpha {
            if !(alpha.is_finite() && alpha > 0.0) {
                return Err(PlanError::BadNonIidAlpha(alpha));
            }
        }
        if let AggregationPolicy::Buffered { target: 0 } = self.aggregation {
            return Err(PlanError::ZeroBufferTarget);
        }
        let worker_threads = match self.worker_threads {
            Some(0) => return Err(PlanError::ZeroWorkerThreads),
            Some(threads) => threads,
            None => std::thread::available_parallelism().map_or(1, usize::from),
        };
        if let Some(dp) = &self.dp {
            if !(dp.clip_norm.is_finite() && dp.clip_norm > 0.0) {
                return Err(PlanError::BadDpClipNorm(dp.clip_norm));
            }
            if !(dp.noise_multiplier.is_finite() && dp.noise_multiplier >= 0.0) {
                return Err(PlanError::BadDpNoiseMultiplier(dp.noise_multiplier));
            }
        }
        let tree = plan_tree(self)?;
        let (topology, level_links) = plan_topology(self, tree.as_ref())?;
        let (uplink, downlink, psum) = plan_stages(self, tree.as_ref())?;
        Ok(RoundPlan {
            config: self.clone(),
            tree,
            topology,
            level_links,
            uplink,
            downlink,
            psum,
            worker_threads,
            dp: self.dp,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedsz::ErrorBound;

    fn base() -> FlConfig {
        FlConfig::smoke_test()
    }

    #[test]
    fn smoke_config_plans_cleanly() {
        let plan = base().plan().expect("smoke config is valid");
        assert!(plan.tree.is_none());
        assert!(matches!(plan.topology, Some(Topology::Shared(_))));
        assert!(matches!(plan.uplink, StagePolicy::Lossy(_)));
        assert_eq!(plan.downlink, StagePolicy::Raw);
        assert_eq!(plan.psum, StagePolicy::Raw);
        assert!(plan.level_links.is_none());
        assert_eq!(plan.shard_count(), None);
    }

    #[test]
    fn shard_counts_outside_the_cohort_are_errors_not_clamps() {
        // The satellite fix: the legacy ShardPlan clamped these.
        let mut config = base();
        config.clients = 4;
        config.shards = Some(0);
        assert_eq!(
            config.plan().unwrap_err(),
            PlanError::ShardsOutOfRange { shards: 0, clients: 4 }
        );
        config.shards = Some(5);
        assert_eq!(
            config.plan().unwrap_err(),
            PlanError::ShardsOutOfRange { shards: 5, clients: 4 }
        );
        config.shards = Some(4);
        let plan = config.plan().expect("full-width shard count is legal");
        assert_eq!(plan.shard_count(), Some(4));
    }

    #[test]
    fn worker_threads_zero_is_rejected_and_none_resolves_to_the_host() {
        let mut config = base();
        config.worker_threads = Some(0);
        assert_eq!(config.plan().unwrap_err(), PlanError::ZeroWorkerThreads);
        config.worker_threads = Some(3);
        assert_eq!(config.plan().unwrap().worker_threads, 3);
        config.worker_threads = None;
        assert!(config.plan().unwrap().worker_threads >= 1);
    }

    #[test]
    fn shards_with_tree_is_a_conflict() {
        let mut config = base();
        config.clients = 4;
        config.shards = Some(2);
        config.tree = Some(vec![2, 2]);
        assert_eq!(config.plan().unwrap_err(), PlanError::TopologyConflict);
    }

    #[test]
    fn training_fields_are_validated() {
        let mut config = base();
        config.participation = 0.0;
        assert_eq!(config.plan().unwrap_err(), PlanError::BadParticipation(0.0));
        config.participation = 1.5;
        assert_eq!(config.plan().unwrap_err(), PlanError::BadParticipation(1.5));
        config.participation = f64::NAN;
        assert!(matches!(config.plan().unwrap_err(), PlanError::BadParticipation(_)));

        let mut config = base();
        config.lr = 0.0;
        assert_eq!(config.plan().unwrap_err(), PlanError::BadLearningRate(0.0));
        config.lr = -0.1;
        assert!(matches!(config.plan().unwrap_err(), PlanError::BadLearningRate(_)));

        let mut config = base();
        config.batch_size = 0;
        assert_eq!(config.plan().unwrap_err(), PlanError::ZeroBatch);

        let mut config = base();
        config.rounds = 0;
        assert_eq!(config.plan().unwrap_err(), PlanError::NoRounds);

        let mut config = base();
        config.clients = 0;
        assert_eq!(config.plan().unwrap_err(), PlanError::NoClients);

        let mut config = base();
        config.non_iid_alpha = Some(-1.0);
        assert_eq!(config.plan().unwrap_err(), PlanError::BadNonIidAlpha(-1.0));

        let mut config = base();
        config.aggregation = AggregationPolicy::Buffered { target: 0 };
        assert_eq!(config.plan().unwrap_err(), PlanError::ZeroBufferTarget);
    }

    #[test]
    fn link_lists_must_match_the_cohort() {
        let mut config = base();
        config.clients = 3;
        config.links = Some(vec![LinkProfile::default()]);
        assert_eq!(
            config.plan().unwrap_err(),
            PlanError::LinkCountMismatch { links: 1, clients: 3 }
        );
        // A hand-built profile with out-of-range fields is caught too.
        config.links = Some(vec![
            LinkProfile::default(),
            LinkProfile { drop_prob: 2.0, ..LinkProfile::default() },
            LinkProfile::default(),
        ]);
        assert_eq!(config.plan().unwrap_err(), PlanError::BadLinkProfile { client: 1 });
    }

    #[test]
    fn edge_links_must_match_the_leaves_and_need_a_tree() {
        let mut config = base();
        config.clients = 4;
        config.edge_links = Some(vec![LinkProfile::default(); 2]);
        assert_eq!(config.plan().unwrap_err(), PlanError::EdgeLinksWithoutTree);
        config.shards = Some(3);
        assert_eq!(
            config.plan().unwrap_err(),
            PlanError::EdgeLinkCountMismatch { links: 2, leaves: 3 }
        );
        config.edge_links = Some(vec![LinkProfile::default(); 3]);
        let plan = config.plan().expect("matching edge links are valid");
        assert_eq!(plan.level_links.as_ref().map(|l| l[0].len()), Some(3));
    }

    #[test]
    fn compressing_stages_need_a_codec() {
        let mut config = base();
        config.compression = None;
        config.downlink = DownlinkMode::Compressed;
        assert_eq!(config.plan().unwrap_err(), PlanError::MissingCodec { leg: StageLeg::Downlink });
        config.downlink = DownlinkMode::Adaptive;
        assert!(matches!(config.plan().unwrap_err(), PlanError::MissingCodec { .. }));
    }

    #[test]
    fn psum_without_a_tree_is_rejected() {
        let mut config = base();
        config.psum = PsumMode::Lossless;
        assert_eq!(config.plan().unwrap_err(), PlanError::PsumWithoutTree);
        config.shards = Some(2);
        let plan = config.plan().expect("psum over a tree is valid");
        assert_eq!(plan.psum, StagePolicy::Lossless);
    }

    #[test]
    fn stage_policy_legality_table_is_enforced() {
        let lossy = StagePolicy::Lossy(FedSzConfig::default());
        assert!(lossy.validate_for(StageLeg::Uplink).is_ok());
        assert!(lossy.validate_for(StageLeg::Downlink).is_ok());
        // Lossy psum frames would break bit-parity with flat FedAvg.
        assert_eq!(
            lossy.validate_for(StageLeg::Psum).unwrap_err(),
            PlanError::IllegalStagePolicy { leg: StageLeg::Psum, policy: "lossy" }
        );
        assert!(StagePolicy::Lossless.validate_for(StageLeg::Psum).is_ok());
        assert!(StagePolicy::Lossless.validate_for(StageLeg::Uplink).is_err());
        assert!(StagePolicy::Lossless.validate_for(StageLeg::Downlink).is_err());
        // Adaptive must wrap a real compressed policy and inherit its
        // leg legality.
        let adaptive_raw = StagePolicy::Adaptive { compressed: Box::new(StagePolicy::Raw) };
        assert!(adaptive_raw.validate_for(StageLeg::Uplink).is_err());
        let adaptive_lossy = StagePolicy::Adaptive { compressed: Box::new(lossy.clone()) };
        assert!(adaptive_lossy.validate_for(StageLeg::Uplink).is_ok());
        assert!(adaptive_lossy.validate_for(StageLeg::Psum).is_err());
        for leg in [StageLeg::Uplink, StageLeg::Downlink, StageLeg::Psum] {
            assert!(StagePolicy::Raw.validate_for(leg).is_ok());
        }
    }

    #[test]
    fn stage_policy_canonicalization_matches_the_legacy_knobs() {
        let mut config = base();
        config.compression = None;
        assert_eq!(config.plan().unwrap().uplink, StagePolicy::Raw);

        let mut config = base();
        let codec = config.compression.expect("smoke config compresses");
        config.uplink =
            Some(StagePolicy::Adaptive { compressed: Box::new(StagePolicy::Lossy(codec)) });
        let plan = config.plan().unwrap();
        assert!(plan.uplink.is_adaptive());
        assert_eq!(plan.uplink.fedsz(), config.compression);

        let mut config = base();
        config.compression =
            Some(FlConfig::tiny_model_compression().with_error_bound(ErrorBound::Relative(1e-3)));
        config.downlink = DownlinkMode::Compressed;
        let plan = config.plan().unwrap();
        assert_eq!(plan.downlink, StagePolicy::Lossy(config.compression.unwrap()));
        assert_eq!(plan.downlink.fedsz(), config.compression);
    }

    #[test]
    fn tree_canonicalization_unifies_shards_and_tree() {
        let mut config = base();
        config.clients = 8;
        config.shards = Some(4);
        let plan = config.plan().unwrap();
        assert_eq!(plan.tree_fanouts(), Some(&[4][..]));
        assert_eq!(plan.shard_count(), Some(4));

        let mut config = base();
        config.clients = 8;
        config.tree = Some(vec![2, 4]);
        let plan = config.plan().unwrap();
        assert_eq!(plan.tree_fanouts(), Some(&[2, 4][..]));
        assert_eq!(plan.shard_count(), Some(2));
        // Explicit tree specs may legally out-leaf the cohort (surplus
        // leaves own empty ranges); only the `shards` shorthand is
        // strict.
        config.tree = Some(vec![2, 8]);
        assert!(config.plan().is_ok());
        config.tree = Some(vec![2, 0]);
        assert_eq!(config.plan().unwrap_err(), PlanError::ZeroFanout { level: 1 });
        config.tree = Some(Vec::new());
        assert_eq!(config.plan().unwrap_err(), PlanError::EmptyTree);
    }

    #[test]
    fn topology_canonicalization_prefers_links_over_the_shared_pipe() {
        let mut config = base();
        config.clients = 2;
        config.links = Some(vec![LinkProfile::symmetric(1e6); 2]);
        config.bandwidth_bps = Some(10e6);
        let plan = config.plan().unwrap();
        match plan.topology {
            Some(Topology::Dedicated(links)) => assert_eq!(links[0].bandwidth_bps, 1e6),
            other => panic!("expected dedicated links, got {other:?}"),
        }
        // No network model at all.
        config.links = None;
        config.bandwidth_bps = None;
        let plan = config.plan().unwrap();
        assert!(plan.topology.is_none());
    }

    #[test]
    fn family_policies_are_uplink_only_with_validated_parameters() {
        let topk = StagePolicy::TopK { ratio: 0.01, error_feedback: false };
        assert!(topk.validate_for(StageLeg::Uplink).is_ok());
        for leg in [StageLeg::Downlink, StageLeg::Psum] {
            assert_eq!(
                topk.validate_for(leg).unwrap_err(),
                PlanError::IllegalStagePolicy { leg, policy: "topk" }
            );
        }
        // The keep ratio must be a fraction: zero keeps nothing and
        // anything above 1 (or NaN) is meaningless.
        for ratio in [0.0, -0.5, 1.5, f64::NAN] {
            let bad = StagePolicy::TopK { ratio, error_feedback: false };
            assert!(
                matches!(bad.validate_for(StageLeg::Uplink), Err(PlanError::BadTopKRatio { .. })),
                "ratio {ratio} must be rejected"
            );
        }
        assert!(StagePolicy::TopK { ratio: 1.0, error_feedback: true }
            .validate_for(StageLeg::Uplink)
            .is_ok());

        let quant = StagePolicy::Quant { bits: 8, stochastic: false, error_feedback: false };
        assert!(quant.validate_for(StageLeg::Uplink).is_ok());
        for leg in [StageLeg::Downlink, StageLeg::Psum] {
            assert_eq!(
                quant.validate_for(leg).unwrap_err(),
                PlanError::IllegalStagePolicy { leg, policy: "q8" }
            );
        }
        for bits in [0, 1, 2, 16, 32] {
            let bad = StagePolicy::Quant { bits, stochastic: false, error_feedback: false };
            assert_eq!(
                bad.validate_for(StageLeg::Uplink).unwrap_err(),
                PlanError::BadQuantBits { bits }
            );
        }
        assert!(StagePolicy::Quant { bits: 4, stochastic: true, error_feedback: true }
            .validate_for(StageLeg::Uplink)
            .is_ok());
    }

    #[test]
    fn auto_family_candidates_are_constrained() {
        let good = StagePolicy::AutoFamily {
            candidates: vec![
                StagePolicy::Lossy(FedSzConfig::default()),
                StagePolicy::TopK { ratio: 0.01, error_feedback: false },
                StagePolicy::Quant { bits: 8, stochastic: false, error_feedback: false },
            ],
        };
        assert!(good.validate_for(StageLeg::Uplink).is_ok());
        for leg in [StageLeg::Downlink, StageLeg::Psum] {
            assert_eq!(
                good.validate_for(leg).unwrap_err(),
                PlanError::IllegalStagePolicy { leg, policy: "auto" }
            );
        }
        // Empty candidate lists, non-codec candidates and EF candidates
        // are all typed misconfigurations.
        let empty = StagePolicy::AutoFamily { candidates: Vec::new() };
        assert!(matches!(
            empty.validate_for(StageLeg::Uplink),
            Err(PlanError::BadAutoFamily { .. })
        ));
        let raw_candidate = StagePolicy::AutoFamily { candidates: vec![StagePolicy::Raw] };
        assert!(matches!(
            raw_candidate.validate_for(StageLeg::Uplink),
            Err(PlanError::BadAutoFamily { .. })
        ));
        let nested = StagePolicy::AutoFamily {
            candidates: vec![StagePolicy::AutoFamily { candidates: Vec::new() }],
        };
        assert!(matches!(
            nested.validate_for(StageLeg::Uplink),
            Err(PlanError::BadAutoFamily { .. })
        ));
        let ef_candidate = StagePolicy::AutoFamily {
            candidates: vec![StagePolicy::TopK { ratio: 0.1, error_feedback: true }],
        };
        assert!(matches!(
            ef_candidate.validate_for(StageLeg::Uplink),
            Err(PlanError::BadAutoFamily { .. })
        ));
        // A candidate with bad parameters fails its own validation.
        let bad_param = StagePolicy::AutoFamily {
            candidates: vec![StagePolicy::TopK { ratio: 0.0, error_feedback: false }],
        };
        assert!(matches!(
            bad_param.validate_for(StageLeg::Uplink),
            Err(PlanError::BadTopKRatio { .. })
        ));
    }

    #[test]
    fn uplink_override_wins_and_stateful_combinations_are_typed_errors() {
        // The explicit `uplink` field overrides the default derived
        // from `compression` entirely.
        let mut config = base();
        config.uplink = Some(StagePolicy::TopK { ratio: 0.05, error_feedback: false });
        let plan = config.plan().unwrap();
        assert_eq!(plan.uplink, StagePolicy::TopK { ratio: 0.05, error_feedback: false });
        assert!(plan.validate_for_workers().is_ok());

        // EF + buffered aggregation: the residual would fold against a
        // reference the client never trained on.
        let mut config = base();
        config.uplink = Some(StagePolicy::TopK { ratio: 0.05, error_feedback: true });
        config.aggregation = AggregationPolicy::Buffered { target: 2 };
        assert_eq!(config.plan().unwrap_err(), PlanError::StatefulUplinkBuffered);

        // EF + socket workers: the residual dies with the process.
        let mut config = base();
        config.uplink =
            Some(StagePolicy::Quant { bits: 8, stochastic: true, error_feedback: true });
        let plan = config.plan().expect("EF is legal in the simulator");
        assert_eq!(plan.validate_for_workers().unwrap_err(), PlanError::StatefulUplinkWorker);

        // An invalid override surfaces through plan(), same as every
        // other knob.
        let mut config = base();
        config.uplink =
            Some(StagePolicy::Quant { bits: 3, stochastic: false, error_feedback: false });
        assert_eq!(config.plan().unwrap_err(), PlanError::BadQuantBits { bits: 3 });

        // And the new errors render actionable text.
        assert!(PlanError::StatefulUplinkBuffered.to_string().contains("error-feedback"));
        assert!(PlanError::StatefulUplinkWorker.to_string().contains("error-feedback"));
        assert!(PlanError::BadTopKRatio { ratio: 0.0 }.to_string().contains("(0, 1]"));
        assert!(PlanError::BadQuantBits { bits: 3 }.to_string().contains("4 or 8"));
    }

    #[test]
    fn socket_runtime_rejects_what_it_cannot_honour() {
        // The paper's default — what the benchmark's server_ingest
        // workload serves — must keep passing.
        let paper = FlConfig::paper_default(
            fedsz_nn::models::tiny::TinyArch::AlexNet,
            fedsz_data::DatasetKind::Cifar10Like,
        );
        assert!(paper.plan().unwrap().validate_for_workers().is_ok());
        assert!(base().plan().unwrap().validate_for_workers().is_ok());

        // `fold_upload` folds every update with weight 1.
        let mut config = base();
        config.weighted_aggregation = true;
        assert_eq!(
            config.plan().unwrap().validate_for_workers().unwrap_err(),
            PlanError::SimulatorOnly { feature: "weighted aggregation" }
        );
        // The barrier waits for every live worker, not a cohort.
        let mut config = base();
        config.clients = 4;
        config.participation = 0.5;
        assert_eq!(
            config.plan().unwrap().validate_for_workers().unwrap_err(),
            PlanError::SimulatorOnly { feature: "partial participation" }
        );
        // And it is synchronous: nothing buffers a straggler's update.
        let mut config = base();
        config.aggregation = AggregationPolicy::Buffered { target: 1 };
        let err = config.plan().unwrap().validate_for_workers().unwrap_err();
        assert_eq!(err, PlanError::SimulatorOnly { feature: "buffered aggregation" });
        assert!(err.to_string().contains("simulator-only"), "{err}");
    }

    #[test]
    fn reparent_range_matches_the_shard_split() {
        // A flat plan has no relays, hence nothing to re-parent.
        assert_eq!(base().plan().unwrap().reparent_range(0), None);

        // A sharded plan hands back exactly the ShardPlan split: the
        // root adopting relay 1's orphans must fold clients 4..7 — the
        // same contiguous block the relay owned — or parity breaks.
        let mut config = base();
        config.clients = 10;
        config.shards = Some(3);
        let plan = config.plan().unwrap();
        assert_eq!(plan.reparent_range(0), Some(0..4));
        assert_eq!(plan.reparent_range(1), Some(4..7));
        assert_eq!(plan.reparent_range(2), Some(7..10));
        // Every client lands in exactly one relay's range.
        assert_eq!(plan.reparent_range(3), None);
        let covered: usize = (0..3).map(|s| plan.reparent_range(s).unwrap().len()).sum();
        assert_eq!(covered, 10);
    }

    #[test]
    fn policy_names_cover_every_family_variant() {
        assert_eq!(StagePolicy::TopK { ratio: 0.1, error_feedback: false }.name(), "topk");
        assert_eq!(StagePolicy::TopK { ratio: 0.1, error_feedback: true }.name(), "topk+ef");
        assert_eq!(
            StagePolicy::Quant { bits: 4, stochastic: false, error_feedback: false }.name(),
            "q4"
        );
        assert_eq!(
            StagePolicy::Quant { bits: 4, stochastic: true, error_feedback: false }.name(),
            "q4s"
        );
        assert_eq!(
            StagePolicy::Quant { bits: 8, stochastic: false, error_feedback: true }.name(),
            "q8+ef"
        );
        assert_eq!(
            StagePolicy::Quant { bits: 8, stochastic: true, error_feedback: true }.name(),
            "q8s+ef"
        );
        assert_eq!(StagePolicy::AutoFamily { candidates: Vec::new() }.name(), "auto");
        // EF is visible through the accessor the plan gate uses.
        assert!(StagePolicy::TopK { ratio: 0.1, error_feedback: true }.error_feedback());
        assert!(!StagePolicy::Raw.error_feedback());
        assert!(
            !StagePolicy::AutoFamily { candidates: Vec::new() }.error_feedback(),
            "auto never carries EF (candidates with EF are rejected)"
        );
    }

    #[test]
    fn errors_render_actionable_messages() {
        let mut config = base();
        config.clients = 4;
        config.shards = Some(9);
        let message = config.plan().unwrap_err().to_string();
        assert!(message.contains("9 shards for 4 clients"), "{message}");
        config.shards = None;
        config.participation = 2.0;
        let message = config.plan().unwrap_err().to_string();
        assert!(message.contains("(0, 1]"), "{message}");
    }
}
