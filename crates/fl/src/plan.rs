//! The validated execution plan: [`FlConfig`] in, [`RoundPlan`] out.
//!
//! [`FlConfig`] speaks the plan's vocabulary: one [`StagePolicy`] per
//! wire leg (`uplink`, `downlink`, `psum`), one shape field (`tree`,
//! per-level fan-outs) and one client link model (`links`, a shared
//! pipe or per-client profiles). Each concept has one spelling, so
//! [`FlConfig::plan`] has no precedence to arbitrate — it *validates*
//! the fields and *derives* what executors need from them:
//!
//! ```text
//! FlConfig ──plan()──► Result<RoundPlan, PlanError>
//!                            │
//!                            ├── config:         the validated FlConfig, verbatim
//!                            ├── tree:           Option<TreePlan>   (config.tree over the cohort)
//!                            ├── topology:       Option<Topology>   (config.links; under a tree,
//!                            │                   a shared pipe becomes one last mile per client)
//!                            └── worker_threads: resolved pool width
//! ```
//!
//! Every malformed value is a [`PlanError`] at build time, never a
//! clamp or a mid-round panic: participation outside `(0, 1]`,
//! non-positive learning rates, zero batch sizes or round counts,
//! empty or zero fan-outs, link lists that do not match the cohort,
//! and stage policies on legs they are illegal on. The engine
//! ([`RoundEngine`](crate::engine::RoundEngine)) and the socket runtime
//! ([`crate::net`]) consume the plan.
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
//! | `Family { codec, error_feedback }` | ✓ (delta stream) | ✗ | ✗ |
//! | `Priced { candidates }` | Eqn 1 over `Lossy`/`Family` | Eqn 1 over one `Lossy` | Eqn 1 over one `Lossless` |
//!
//! A `Priced` candidate must be legal on its leg by the rows above
//! (and carry no error feedback); the broadcast and partial-sum legs
//! price exactly one against raw, the upload leg any number. The ✗
//! cells are *rejected by [`PlanError`]* — a lossy partial-sum
//! leg would silently break the tree's bit-parity guarantee with flat
//! FedAvg, so it cannot be expressed past `plan()`. The executors
//! ([`Downlink`](crate::agg::Downlink),
//! [`PsumForwarder`](crate::agg::PsumForwarder)) validate again at
//! construction, so a plan whose `config` was edited after `plan()`
//! cannot smuggle an illegal policy into a round either.
//!
//! # One grammar for every leg
//!
//! [`StagePolicy::parse`] reads the same spellings on every leg (the
//! CLI's `--uplink`/`--downlink`/`--psum`, run-spec keys and sweep
//! axes all go through it); whether the result is legal on the leg is
//! still `plan()`'s question:
//!
//! | spelling | policy |
//! |---|---|
//! | `raw` | `Raw` |
//! | `lossy`, `fedsz` | `Lossy(cfg)` (needs compression on) |
//! | `lossless` | `Lossless` |
//! | `topk:R[+ef]`, `q4[s][+ef]`, `q8[s][+ef]` | `Family { codec, error_feedback }` |
//! | `adaptive`, `eqn1` | `Priced` over the leg's default codec (lossy; lossless on psum) |
//! | `auto` | `Priced` over the leg's default slate (uplink: lossy if on, `topk:0.01`, `q8`) |
//!
//! # Error feedback makes the uplink stateful
//!
//! A `Family` policy with `error_feedback: true` keeps a per-client
//! residual dict: mass the codec dropped this round re-enters next
//! round's delta (FedSparQ-style). That residual is *state the round
//! loop must carry*, which socket workers cannot do today: a worker may
//! disconnect and resume with a fresh process, silently dropping the
//! residual and the conserved mass with it —
//! [`RoundPlan::validate_for_workers`] returns
//! [`PlanError::StatefulUplinkWorker`], a typed rejection in the same
//! pattern as lossy psum.
//!
//! [`RoundPlan::validate_for_workers`] rejects the other simulator
//! features the socket runtime has no mechanism for — weighted
//! aggregation, partial participation, a priced downlink and trees
//! deeper than one relay tier
//! ([`PlanError::SimulatorOnly`]), plus shards without clients
//! ([`PlanError::TooManyShards`]) — so a `ServeConfig` built in code
//! cannot complete with a checksum that silently differs from the
//! in-process run of the same configuration. These are the socket
//! runtime's only rules on [`FlConfig`]; `ServeConfig::plan` and
//! `WorkerConfig::plan` add the checks on their own fields.
//!
//! # The DP stage is stateless, so it composes everywhere
//!
//! [`FlConfig::dp`] (a [`fedsz_dp::DpPolicy`], validated here) clips
//! each client's update delta and adds seeded Gaussian/Laplace noise
//! *before* the uplink codec runs. Unlike error feedback, the stage
//! keeps no per-client state between rounds — the noise stream is
//! derived from `(dp.seed, round, client)` alone — so it is legal with
//! every uplink family and on socket workers. `plan()` rejects only
//! malformed parameters ([`PlanError::BadDpClipNorm`],
//! [`PlanError::BadDpNoiseMultiplier`]); DP combined with `+ef` still
//! trips the error-feedback rejection above, because the residual — not
//! the noise — is the stateful part.

use crate::agg::TreePlan;
use crate::codec::FamilyCodec;
use crate::link::{LinkProfile, Topology};
use crate::FlConfig;
use fedsz::FedSzConfig;
use fedsz_lossy::sparse::SparsifyMode;
use std::fmt;
use std::ops::Range;

/// The aggregator backbone: every non-root aggregator of a tree
/// forwards its partial sums over a link this fast (1 Gbps), since
/// aggregators sit in well-provisioned tiers, unlike last-mile clients.
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
    /// Lossless byte-plane entropy coding
    /// ([`fedsz_lossless::PsumCodec`]) — safe on the partial-sum leg,
    /// where bit-parity must survive the hop.
    Lossless,
    /// A family codec over the update *delta* (uplink only): Top-K
    /// sparsification or 4/8-bit quantization, whose parameters its
    /// [`FamilyCodec`] constructor already validated.
    Family {
        /// The codec.
        codec: FamilyCodec,
        /// Carry a per-client residual re-injecting dropped mass into
        /// the next round's delta. Makes the uplink *stateful* — see
        /// the module docs for the paths that must reject it.
        error_feedback: bool,
    },
    /// The paper's Eqn 1, per link and per payload: price every
    /// candidate codec through its measured `CostProfile` and ship
    /// whichever predicts the fastest end-to-end transfer — or raw
    /// when raw is strictly faster. With one candidate this is the
    /// paper's compress-or-not; on the upload leg it generalizes to
    /// codec-family selection.
    Priced {
        /// The concrete codecs to price against raw, each legal on the
        /// leg (see the module docs) and without error feedback (a
        /// residual has no meaning when the codec changes per round).
        /// Exactly one on the broadcast and partial-sum legs.
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
    /// Parses one spelling of the policy grammar (the module docs'
    /// table) for `leg`. `fedsz` is the configuration `lossy` and the
    /// lossy defaults stand for, `None` when compression is off. Only
    /// the spelling is checked here: whether the policy is legal on
    /// `leg` is [`FlConfig::plan`]'s question.
    ///
    /// # Errors
    ///
    /// Returns a message naming the leg and the spelling when the
    /// spelling is unknown, its family codec's constructor rejects a
    /// parameter, or it needs FedSZ while `fedsz` is `None`.
    pub fn parse(spec: &str, leg: StageLeg, fedsz: Option<FedSzConfig>) -> Result<Self, String> {
        let leg_name = leg.name();
        let lossy = || {
            fedsz.map(StagePolicy::Lossy).ok_or_else(|| {
                format!("the {leg_name} policy `{spec}` requires compression, which is off")
            })
        };
        let default = || if leg == StageLeg::Psum { Ok(StagePolicy::Lossless) } else { lossy() };
        let lower = spec.to_ascii_lowercase();
        let candidates = match lower.as_str() {
            "raw" => return Ok(StagePolicy::Raw),
            "lossy" | "fedsz" => return lossy(),
            "lossless" => return Ok(StagePolicy::Lossless),
            // The uplink's slate is EF-free: a priced policy rejects
            // error-feedback candidates.
            "auto" if leg == StageLeg::Uplink => {
                let mut slate: Vec<_> = fedsz.map(StagePolicy::Lossy).into_iter().collect();
                for family in ["topk:0.01", "q8"] {
                    slate.push(Self::parse_family(family, leg, family)?);
                }
                slate
            }
            "adaptive" | "eqn1" | "auto" => vec![default()?],
            _ => return Self::parse_family(spec, leg, &lower),
        };
        Ok(StagePolicy::Priced { candidates })
    }

    /// The `topk:R[+ef]`, `q4[s][+ef]` and `q8[s][+ef]` arms of
    /// [`StagePolicy::parse`], over the lower-cased spelling.
    fn parse_family(spec: &str, leg: StageLeg, lower: &str) -> Result<Self, String> {
        let (base, error_feedback) = match lower.strip_suffix("+ef") {
            Some(base) => (base, true),
            None => (lower, false),
        };
        let codec = match (base, base.strip_prefix("topk:").map(str::parse)) {
            (_, Some(Ok(ratio))) => FamilyCodec::top_k(ratio),
            ("q4", _) => FamilyCodec::quant(4, false),
            ("q4s", _) => FamilyCodec::quant(4, true),
            ("q8", _) => FamilyCodec::quant(8, false),
            ("q8s", _) => FamilyCodec::quant(8, true),
            _ => {
                return Err(format!(
                    "unknown {} codec `{spec}`; try raw, lossy, lossless, adaptive, auto, \
                     topk:RATIO[+ef], q4[s][+ef] or q8[s][+ef]",
                    leg.name()
                ))
            }
        };
        let codec = codec.map_err(|e| format!("{} codec `{spec}`: {e}", leg.name()))?;
        Ok(StagePolicy::Family { codec, error_feedback })
    }

    /// The concrete codecs this policy may ship through: none for
    /// `Raw`, the candidates of a `Priced` set, the policy itself
    /// otherwise.
    pub fn codecs(&self) -> &[StagePolicy] {
        match self {
            StagePolicy::Raw => &[],
            StagePolicy::Priced { candidates } => candidates,
            _ => std::slice::from_ref(self),
        }
    }

    /// Short human-readable policy name (for reports and the `family`
    /// key of `eqn1.decision` records). Quantizers encode their width
    /// and rounding in the name (`q8`, `q4s`); error-feedback variants
    /// append `+ef`.
    pub fn name(&self) -> &'static str {
        match self {
            StagePolicy::Raw => "raw",
            StagePolicy::Lossy(_) => "lossy",
            StagePolicy::Lossless => "lossless",
            StagePolicy::Family { codec, error_feedback } => {
                let names = match codec {
                    FamilyCodec::Sparse(s) if matches!(s.mode(), SparsifyMode::TopK { .. }) => {
                        ["topk", "topk+ef"]
                    }
                    FamilyCodec::Sparse(_) => ["threshold", "threshold+ef"],
                    FamilyCodec::Quant(q) => match (q.bits(), q.stochastic()) {
                        (4, false) => ["q4", "q4+ef"],
                        (4, true) => ["q4s", "q4s+ef"],
                        (_, false) => ["q8", "q8+ef"],
                        (_, true) => ["q8s", "q8s+ef"],
                    },
                };
                names[usize::from(*error_feedback)]
            }
            StagePolicy::Priced { .. } => "auto",
        }
    }

    /// The FedSZ configuration this policy may invoke: its own or its
    /// `Lossy` candidate's, `None` when no codec of it is FedSZ.
    pub fn fedsz(&self) -> Option<FedSzConfig> {
        self.codecs().iter().find_map(|codec| match codec {
            StagePolicy::Lossy(config) => Some(*config),
            _ => None,
        })
    }

    /// Whether this policy ever compresses (unconditionally or when
    /// priced).
    pub fn compresses(&self) -> bool {
        !matches!(self, StagePolicy::Raw)
    }

    /// Whether the codec is chosen per link with Eqn 1
    /// ([`StagePolicy::Priced`]) rather than forced.
    pub fn is_priced(&self) -> bool {
        matches!(self, StagePolicy::Priced { .. })
    }

    /// Whether this policy carries a per-client error-feedback
    /// residual — state the executor must persist across rounds (see
    /// the module docs for the combinations that reject it).
    pub fn error_feedback(&self) -> bool {
        self.codecs()
            .iter()
            .any(|codec| matches!(codec, StagePolicy::Family { error_feedback: true, .. }))
    }

    /// Checks that this policy is legal on `leg` (the module-level
    /// table): lossy policies would break bit-parity on the
    /// partial-sum leg, the dict legs have no lossless codec, and a
    /// `Priced` set must hold concrete codecs legal on the leg.
    ///
    /// # Errors
    ///
    /// Returns the [`PlanError`] naming the illegal combination.
    pub fn validate_for(&self, leg: StageLeg) -> Result<(), PlanError> {
        match (self, leg) {
            (StagePolicy::Raw, _)
            | (StagePolicy::Lossy(_), StageLeg::Uplink | StageLeg::Downlink)
            | (StagePolicy::Lossless, StageLeg::Psum)
            // The family codecs encode a *delta* against the broadcast
            // the client just received — a construction only the
            // upload leg has (the broadcast itself has no reference;
            // partial sums must stay bit-exact).
            | (StagePolicy::Family { .. }, StageLeg::Uplink) => Ok(()),
            (StagePolicy::Priced { candidates }, leg) => {
                let bad = |reason| Err(PlanError::BadPriced { leg, reason });
                if candidates.is_empty() {
                    return bad("needs at least one candidate codec");
                }
                if leg != StageLeg::Uplink && candidates.len() > 1 {
                    return bad("prices exactly one candidate against raw on this leg");
                }
                for candidate in candidates {
                    if matches!(candidate, StagePolicy::Raw | StagePolicy::Priced { .. }) {
                        return bad("candidates must be concrete codecs (raw is always priced)");
                    }
                    candidate.validate_for(leg)?;
                    if candidate.error_feedback() {
                        return bad("error-feedback candidates are not allowed (a residual \
                                    has no meaning when the codec changes per round)");
                    }
                }
                Ok(())
            }
            _ => Err(PlanError::IllegalStagePolicy { leg, policy: self.name() }),
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
    /// Dirichlet alpha not finite and positive.
    BadNonIidAlpha(f64),
    /// A [`LinkProfile`] with an out-of-range field.
    BadLinkProfile {
        /// The offending client id (0 for the shared pipe).
        client: usize,
        /// The first out-of-range field (`"bandwidth_bps"`,
        /// `"latency_secs"`, `"drop_prob"` or `"compute_slowdown"`).
        field: &'static str,
        /// That field's value.
        value: f64,
    },
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
    /// A non-raw `psum` policy without an aggregation tree — there are
    /// no partial-sum frames to compress.
    PsumWithoutTree,
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
    /// A [`StagePolicy::Priced`] candidate set that cannot be priced
    /// (empty, raw or nested members, error-feedback members, or more
    /// than one candidate on a leg that prices one).
    BadPriced {
        /// The leg.
        leg: StageLeg,
        /// What about the candidate set is wrong.
        reason: &'static str,
    },
    /// An error-feedback uplink on the socket runtime: a worker that
    /// reconnects resumes with a fresh process and silently drops its
    /// residual, breaking mass conservation.
    StatefulUplinkWorker,
    /// A simulator-only feature on the socket runtime, which has no
    /// mechanism for it: `fedsz serve`/`worker` fold every live
    /// worker's update with weight 1 at a synchronous barrier, through
    /// at most one tier of relays, with no link model to price.
    SimulatorOnly {
        /// The offending feature (`"weighted aggregation"`,
        /// `"partial participation"`, `"a priced downlink"` or
        /// `"a multi-tier tree"`).
        feature: &'static str,
    },
    /// More first-tier aggregators than clients. The simulator lays a
    /// `tree` over the cohort as given (surplus leaves own empty
    /// ranges), but a socket shard is a relay process that would wait
    /// for workers that cannot exist, and `--shards S` promises S
    /// working edges.
    TooManyShards {
        /// First-tier aggregators in the tree.
        shards: usize,
        /// Cohort size.
        clients: usize,
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
            PlanError::BadNonIidAlpha(a) => {
                write!(f, "non-IID Dirichlet alpha must be finite and positive, got {a}")
            }
            PlanError::BadLinkProfile { client, field, value } => write!(
                f,
                "link profile for client {client} has {field} = {value}, out of range (want \
                 positive finite bandwidth, non-negative latency, drop probability in [0, 1], \
                 slowdown >= 1)"
            ),
            PlanError::EmptyTree => write!(f, "a tree needs at least one aggregator level"),
            PlanError::ZeroFanout { level } => {
                write!(f, "tree fan-out at level {level} must be positive")
            }
            PlanError::LeafOverflow => write!(f, "tree leaf count overflows usize"),
            PlanError::LinkCountMismatch { links, clients } => {
                write!(f, "need one link profile per client ({links} links for {clients} clients)")
            }
            PlanError::PsumWithoutTree => {
                write!(f, "a non-raw psum policy needs an aggregation tree (set tree)")
            }
            PlanError::IllegalStagePolicy { leg, policy } => write!(
                f,
                "a {policy} policy is illegal on the {} leg (see the StagePolicy table)",
                leg.name()
            ),
            PlanError::ZeroWorkerThreads => {
                write!(f, "worker_threads must be at least 1 (leave it unset for host parallelism)")
            }
            PlanError::BadPriced { leg, reason } => {
                write!(f, "the priced {} policy is misconfigured: {reason}", leg.name())
            }
            PlanError::StatefulUplinkWorker => write!(
                f,
                "error-feedback uplinks are stateful and cannot run on socket workers \
                 (a reconnecting worker silently drops its residual); use the in-process \
                 simulator or drop `+ef`"
            ),
            PlanError::SimulatorOnly { feature } => write!(
                f,
                "{feature} is simulator-only: the socket runtime folds every live worker's \
                 update with weight 1 at a synchronous barrier, through at most one relay \
                 tier and without a link model (run it under `fedsz fl`)"
            ),
            PlanError::TooManyShards { shards, clients } => write!(
                f,
                "need shards <= clients, got {shards} shards for {clients} clients (an empty \
                 shard has no client to aggregate)"
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

/// The validated execution plan of one federated run.
///
/// Produced by [`FlConfig::plan`]; consumed by
/// [`RoundEngine::from_plan`](crate::engine::RoundEngine::from_plan)
/// and the socket runtime. Holding a `RoundPlan` is proof the
/// configuration passed every build-time check — the executors can
/// `expect` on it instead of re-validating. Beside the configuration
/// it stores only what is *derived* from it; the stage policies, the
/// DP stage and the training geometry are read from
/// [`RoundPlan::config`].
#[derive(Debug, Clone)]
pub struct RoundPlan {
    /// The validated source configuration.
    pub config: FlConfig,
    /// [`FlConfig::tree`] laid over the cohort (`None` = the paper's
    /// flat server).
    pub tree: Option<TreePlan>,
    /// [`FlConfig::links`], validated. Under a tree every client keeps
    /// its own last mile to its leaf aggregator, so a shared pipe
    /// becomes [`Topology::Dedicated`] with one copy per client. `None`
    /// = no network model.
    pub topology: Option<Topology>,
    /// Resolved worker width for the aggregation hot path:
    /// [`FlConfig::worker_threads`] when set, otherwise the host's
    /// available parallelism at plan time. Always at least 1. Width is
    /// execution speed, not semantics — the global model's bits are
    /// identical at every value.
    pub worker_threads: usize,
}

impl RoundPlan {
    /// Number of first-tier aggregators under the root: the relay
    /// count a sharded `fedsz serve` deployment expects, or `None` for
    /// a flat server.
    pub fn shard_count(&self) -> Option<usize> {
        self.tree.as_ref().map(|tree| tree.nodes_at(1))
    }

    /// Checks the extra constraints the socket runtime adds on top of
    /// [`FlConfig::plan`]. An error-feedback uplink cannot survive a
    /// worker reconnect (the residual dies with the process). The
    /// server folds every live worker's update with weight 1 at a
    /// synchronous barrier, so weighted aggregation and partial
    /// participation would complete with a checksum that silently
    /// differs from the in-process run. It runs at most one tier of
    /// relays, one process per shard, so deeper trees and empty shards
    /// ([`RoundPlan::check_shards`]) cannot be deployed; and it has no
    /// link model for a priced downlink to price. `fedsz serve`/`worker`
    /// reject all of these here before any round runs.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::StatefulUplinkWorker`] for an
    /// error-feedback uplink, [`PlanError::SimulatorOnly`] for the
    /// features the socket runtime cannot honour and
    /// [`PlanError::TooManyShards`] for empty shards.
    pub fn validate_for_workers(&self) -> Result<(), PlanError> {
        let config = &self.config;
        if config.uplink.error_feedback() {
            return Err(PlanError::StatefulUplinkWorker);
        }
        let simulator_only = [
            (config.weighted_aggregation, "weighted aggregation"),
            (config.participation < 1.0, "partial participation"),
            (config.downlink.is_priced(), "a priced downlink"),
            (self.tree.as_ref().is_some_and(|tree| tree.depth() > 2), "a multi-tier tree"),
        ];
        if let Some(&(_, feature)) = simulator_only.iter().find(|(set, _)| *set) {
            return Err(PlanError::SimulatorOnly { feature });
        }
        self.check_shards()
    }

    /// Checks that every first-tier aggregator owns at least one
    /// client. A flat plan always passes.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::TooManyShards`] when the tree's first tier
    /// is wider than the cohort.
    pub fn check_shards(&self) -> Result<(), PlanError> {
        match self.shard_count() {
            Some(shards) if shards > self.config.clients => {
                Err(PlanError::TooManyShards { shards, clients: self.config.clients })
            }
            _ => Ok(()),
        }
    }

    /// The contiguous client-id range first-tier aggregator `shard`
    /// owns: the workers relay `shard` serves, and the range a sharded
    /// root adopts when that relay dies mid-run — the re-parented
    /// workers' uploads then fold at the root in the identical
    /// positions their relay would have used, which is what keeps the
    /// global checksum bit-identical across the failover. `None` for a
    /// flat server (nothing to re-parent) or an out-of-range shard.
    pub fn reparent_range(&self, shard: usize) -> Option<Range<usize>> {
        let tree = self.tree.as_ref()?;
        (shard < tree.nodes_at(1)).then(|| tree.node_range(1, shard))
    }
}

/// Checks `profile`'s ranges, naming the first out-of-range field in a
/// [`PlanError::BadLinkProfile`] for `client`.
fn validate_link(client: usize, profile: &LinkProfile) -> Result<(), PlanError> {
    let p = profile;
    let fields = [
        ("bandwidth_bps", p.bandwidth_bps, p.bandwidth_bps.is_finite() && p.bandwidth_bps > 0.0),
        ("latency_secs", p.latency_secs, p.latency_secs.is_finite() && p.latency_secs >= 0.0),
        ("drop_prob", p.drop_prob, (0.0..=1.0).contains(&p.drop_prob)),
        (
            "compute_slowdown",
            p.compute_slowdown,
            p.compute_slowdown.is_finite() && p.compute_slowdown >= 1.0,
        ),
    ];
    match fields.into_iter().find(|&(_, _, ok)| !ok) {
        Some((field, value, _)) => Err(PlanError::BadLinkProfile { client, field, value }),
        None => Ok(()),
    }
}

/// Validates [`FlConfig::tree`] (at least one level, every fan-out
/// positive, leaf count representable) and lays it over the cohort.
fn plan_tree(config: &FlConfig) -> Result<Option<TreePlan>, PlanError> {
    let Some(fanouts) = &config.tree else { return Ok(None) };
    if fanouts.is_empty() {
        return Err(PlanError::EmptyTree);
    }
    if let Some(level) = fanouts.iter().position(|&f| f == 0) {
        return Err(PlanError::ZeroFanout { level });
    }
    if fanouts.iter().try_fold(1usize, |acc, &f| acc.checked_mul(f)).is_none() {
        return Err(PlanError::LeafOverflow);
    }
    Ok(Some(TreePlan::new(config.clients, fanouts.clone())))
}

/// Validates `links` and derives the engine's topology: under a tree
/// every client keeps its own last mile to its leaf aggregator, so a
/// shared pipe becomes one identical dedicated link each.
fn plan_topology(config: &FlConfig) -> Result<Option<Topology>, PlanError> {
    match &config.links {
        None => Ok(None),
        Some(Topology::Shared(pipe)) => {
            validate_link(0, pipe)?;
            Ok(Some(match config.tree {
                Some(_) => Topology::Dedicated(vec![*pipe; config.clients]),
                None => Topology::Shared(*pipe),
            }))
        }
        Some(Topology::Dedicated(links)) => {
            if links.len() != config.clients {
                return Err(PlanError::LinkCountMismatch {
                    links: links.len(),
                    clients: config.clients,
                });
            }
            for (client, link) in links.iter().enumerate() {
                validate_link(client, link)?;
            }
            Ok(config.links.clone())
        }
    }
}

/// Validates the three per-leg [`StagePolicy`]s against the legality
/// table, and a compressing psum policy against the tree it needs.
fn validate_stages(config: &FlConfig) -> Result<(), PlanError> {
    config.uplink.validate_for(StageLeg::Uplink)?;
    config.downlink.validate_for(StageLeg::Downlink)?;
    config.psum.validate_for(StageLeg::Psum)?;
    if config.psum.compresses() && config.tree.is_none() {
        return Err(PlanError::PsumWithoutTree);
    }
    Ok(())
}

impl FlConfig {
    /// Validates this configuration and derives its [`RoundPlan`]: the
    /// [`TreePlan`] over the cohort, the client [`Topology`] and the
    /// resolved worker width.
    ///
    /// # Errors
    ///
    /// Returns the first [`PlanError`] found.
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
        let topology = plan_topology(self)?;
        validate_stages(self)?;
        Ok(RoundPlan { config: self.clone(), tree, topology, worker_threads })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> FlConfig {
        FlConfig::smoke_test()
    }

    fn uplink(spec: &str) -> StagePolicy {
        StagePolicy::parse(spec, StageLeg::Uplink, Some(FedSzConfig::default())).unwrap()
    }

    #[test]
    fn smoke_config_plans_cleanly() {
        let plan = base().plan().expect("smoke config is valid");
        assert!(plan.tree.is_none());
        assert!(matches!(plan.topology, Some(Topology::Shared(_))));
        assert_eq!(plan.shard_count(), None);
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
    }

    #[test]
    fn link_lists_must_match_the_cohort() {
        let mut config = base();
        config.clients = 3;
        config.links = Some(Topology::Dedicated(vec![LinkProfile::default()]));
        assert_eq!(
            config.plan().unwrap_err(),
            PlanError::LinkCountMismatch { links: 1, clients: 3 }
        );
        // A hand-built profile with out-of-range fields is caught too,
        // on a dedicated link or on the shared pipe.
        config.links = Some(Topology::Dedicated(vec![
            LinkProfile::default(),
            LinkProfile { drop_prob: 2.0, ..LinkProfile::default() },
            LinkProfile::default(),
        ]));
        assert_eq!(
            config.plan().unwrap_err(),
            PlanError::BadLinkProfile { client: 1, field: "drop_prob", value: 2.0 }
        );
        config.links =
            Some(Topology::Shared(LinkProfile { bandwidth_bps: -1.0, ..LinkProfile::default() }));
        assert_eq!(
            config.plan().unwrap_err(),
            PlanError::BadLinkProfile { client: 0, field: "bandwidth_bps", value: -1.0 }
        );
        // No network model at all is legal.
        config.links = None;
        assert!(config.plan().unwrap().topology.is_none());
    }

    #[test]
    fn bad_link_profiles_name_the_field_and_value() {
        let ok = LinkProfile::default();
        for (profile, field, value) in [
            (LinkProfile { bandwidth_bps: 0.0, ..ok }, "bandwidth_bps", 0.0),
            (LinkProfile { latency_secs: -0.5, ..ok }, "latency_secs", -0.5),
            (LinkProfile { drop_prob: 1.5, ..ok }, "drop_prob", 1.5),
            (LinkProfile { compute_slowdown: 0.25, ..ok }, "compute_slowdown", 0.25),
        ] {
            let mut config = base();
            config.clients = 3;
            config.links = Some(Topology::Dedicated(vec![ok, ok, profile]));
            let err = config.plan().unwrap_err();
            assert_eq!(err, PlanError::BadLinkProfile { client: 2, field, value });
            let message = err.to_string();
            assert!(message.contains(&format!("client 2 has {field} = {value}")), "{message}");
        }
    }

    #[test]
    fn psum_without_a_tree_is_rejected() {
        let mut config = base();
        config.psum = StagePolicy::Lossless;
        assert_eq!(config.plan().unwrap_err(), PlanError::PsumWithoutTree);
        config.tree = Some(vec![2]);
        assert!(config.plan().is_ok(), "psum over a tree is valid");
        // The legality table applies to the config's fields directly.
        config.psum = StagePolicy::Lossy(FedSzConfig::default());
        assert_eq!(
            config.plan().unwrap_err(),
            PlanError::IllegalStagePolicy { leg: StageLeg::Psum, policy: "lossy" }
        );
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
        // A priced policy must price a real codec, and each candidate
        // inherits its leg legality.
        let priced_raw = StagePolicy::Priced { candidates: vec![StagePolicy::Raw] };
        assert!(priced_raw.validate_for(StageLeg::Uplink).is_err());
        let priced_lossy = StagePolicy::Priced { candidates: vec![lossy.clone()] };
        assert!(priced_lossy.validate_for(StageLeg::Uplink).is_ok());
        assert!(priced_lossy.validate_for(StageLeg::Downlink).is_ok());
        assert!(priced_lossy.validate_for(StageLeg::Psum).is_err());
        let priced_lossless = StagePolicy::Priced { candidates: vec![StagePolicy::Lossless] };
        assert!(priced_lossless.validate_for(StageLeg::Psum).is_ok());
        assert!(priced_lossless.validate_for(StageLeg::Uplink).is_err());
        for leg in [StageLeg::Uplink, StageLeg::Downlink, StageLeg::Psum] {
            assert!(StagePolicy::Raw.validate_for(leg).is_ok());
        }
    }

    #[test]
    fn tree_shapes_are_validated_and_laid_over_the_cohort() {
        let mut config = base();
        config.clients = 8;
        config.tree = Some(vec![2, 4]);
        let plan = config.plan().unwrap();
        assert_eq!(plan.tree.as_ref().map(TreePlan::fanouts), Some(&[2, 4][..]));
        assert_eq!(plan.shard_count(), Some(2));
        // A tree may legally out-leaf the cohort (surplus leaves own
        // empty ranges).
        config.tree = Some(vec![2, 8]);
        assert!(config.plan().is_ok());
        config.tree = Some(vec![2, 0]);
        assert_eq!(config.plan().unwrap_err(), PlanError::ZeroFanout { level: 1 });
        config.tree = Some(Vec::new());
        assert_eq!(config.plan().unwrap_err(), PlanError::EmptyTree);
        config.tree = Some(vec![usize::MAX, 2]);
        assert_eq!(config.plan().unwrap_err(), PlanError::LeafOverflow);
    }

    #[test]
    fn family_policies_are_uplink_only_with_validated_parameters() {
        for (spec, name) in [("topk:0.01", "topk"), ("q8", "q8"), ("topk:1.0+ef", "topk+ef")] {
            let family = uplink(spec);
            assert!(family.validate_for(StageLeg::Uplink).is_ok());
            for leg in [StageLeg::Downlink, StageLeg::Psum] {
                assert_eq!(
                    family.validate_for(leg).unwrap_err(),
                    PlanError::IllegalStagePolicy { leg, policy: name }
                );
            }
        }
        // The parameters are the codec constructors' to check, so an
        // out-of-range family cannot be built, let alone planned: zero
        // keeps nothing, anything above 1 (or NaN) is meaningless, and
        // only 4- and 8-bit grids exist.
        for ratio in [0.0, -0.5, 1.5, f64::NAN] {
            assert!(FamilyCodec::top_k(ratio).is_err(), "ratio {ratio} must be rejected");
        }
        for bits in [0, 1, 2, 16, 32] {
            assert!(FamilyCodec::quant(bits, false).is_err(), "{bits} bits must be rejected");
        }
    }

    #[test]
    fn auto_family_candidates_are_constrained() {
        let good = uplink("auto");
        assert_eq!(good.codecs().len(), 3);
        assert!(good.validate_for(StageLeg::Uplink).is_ok());
        // The broadcast and partial-sum legs price exactly one codec,
        // and only one legal there.
        let bad_priced = |policy: &StagePolicy, leg| match policy.validate_for(leg) {
            Err(PlanError::BadPriced { leg: l, .. }) => l == leg,
            _ => false,
        };
        for leg in [StageLeg::Downlink, StageLeg::Psum] {
            assert!(bad_priced(&good, leg), "{leg:?}");
        }
        let topk_only = StagePolicy::Priced { candidates: vec![uplink("topk:0.01")] };
        assert_eq!(
            topk_only.validate_for(StageLeg::Downlink).unwrap_err(),
            PlanError::IllegalStagePolicy { leg: StageLeg::Downlink, policy: "topk" }
        );
        // Empty candidate lists, non-codec candidates and EF candidates
        // are all typed misconfigurations.
        let empty = StagePolicy::Priced { candidates: Vec::new() };
        assert!(bad_priced(&empty, StageLeg::Uplink));
        let raw_candidate = StagePolicy::Priced { candidates: vec![StagePolicy::Raw] };
        assert!(bad_priced(&raw_candidate, StageLeg::Psum));
        let nested = StagePolicy::Priced {
            candidates: vec![StagePolicy::Priced { candidates: Vec::new() }],
        };
        assert!(bad_priced(&nested, StageLeg::Uplink));
        let ef_candidate = StagePolicy::Priced { candidates: vec![uplink("topk:0.1+ef")] };
        assert!(bad_priced(&ef_candidate, StageLeg::Uplink));
        let message = ef_candidate.validate_for(StageLeg::Uplink).unwrap_err().to_string();
        assert!(message.contains("priced uplink policy"), "{message}");
    }

    #[test]
    fn stateful_uplink_combinations_are_typed_errors() {
        // A stateless family uplink is legal on every runtime.
        let mut config = base();
        config.uplink = uplink("topk:0.05");
        assert!(config.plan().unwrap().validate_for_workers().is_ok());

        // EF + socket workers: the residual dies with the process.
        let mut config = base();
        config.uplink = uplink("q8s+ef");
        let plan = config.plan().expect("EF is legal in the simulator");
        assert_eq!(plan.validate_for_workers().unwrap_err(), PlanError::StatefulUplinkWorker);

        // And the error renders actionable text.
        assert!(PlanError::StatefulUplinkWorker.to_string().contains("error-feedback"));
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
        let err = config.plan().unwrap().validate_for_workers().unwrap_err();
        assert_eq!(err, PlanError::SimulatorOnly { feature: "weighted aggregation" });
        assert!(err.to_string().contains("simulator-only"), "{err}");
        // The barrier waits for every live worker, not a cohort.
        let mut config = base();
        config.clients = 4;
        config.participation = 0.5;
        assert_eq!(
            config.plan().unwrap().validate_for_workers().unwrap_err(),
            PlanError::SimulatorOnly { feature: "partial participation" }
        );
        // No link model prices a broadcast, and one relay tier is all
        // a deployment has.
        let mut config = base();
        config.downlink =
            StagePolicy::Priced { candidates: vec![StagePolicy::Lossy(FedSzConfig::default())] };
        assert_eq!(
            config.plan().unwrap().validate_for_workers().unwrap_err(),
            PlanError::SimulatorOnly { feature: "a priced downlink" }
        );
        let mut config = base();
        config.clients = 4;
        config.tree = Some(vec![2, 2]);
        assert_eq!(
            config.plan().unwrap().validate_for_workers().unwrap_err(),
            PlanError::SimulatorOnly { feature: "a multi-tier tree" }
        );
        // Every shard is a process: the simulator's surplus leaves are
        // a socket deployment's idle relays.
        config.tree = Some(vec![5]);
        let plan = config.plan().expect("the simulator lays surplus leaves over the cohort");
        let err = PlanError::TooManyShards { shards: 5, clients: 4 };
        assert_eq!(plan.check_shards().unwrap_err(), err);
        assert_eq!(plan.validate_for_workers().unwrap_err(), err);
        assert!(err.to_string().contains("5 shards for 4 clients"), "{err}");
        config.tree = Some(vec![4]);
        assert!(config.plan().unwrap().validate_for_workers().is_ok());
    }

    #[test]
    fn reparent_range_matches_the_shard_split() {
        // A flat plan has no relays, hence nothing to re-parent.
        assert_eq!(base().plan().unwrap().reparent_range(0), None);

        // A sharded plan hands back exactly the tree's first-tier
        // split: the root adopting relay 1's orphans must fold clients
        // 4..7 — the same contiguous block the relay owned — or parity
        // breaks.
        let mut config = base();
        config.clients = 10;
        config.tree = Some(vec![3]);
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
        for (spec, name) in [
            ("topk:0.1", "topk"),
            ("topk:0.1+ef", "topk+ef"),
            ("q4", "q4"),
            ("q4s", "q4s"),
            ("q8+ef", "q8+ef"),
            ("q8s+ef", "q8s+ef"),
        ] {
            assert_eq!(uplink(spec).name(), name);
        }
        let threshold =
            FamilyCodec::Sparse(fedsz_lossy::sparse::Sparsifier::threshold(0.5).unwrap());
        assert_eq!(
            StagePolicy::Family { codec: threshold, error_feedback: true }.name(),
            "threshold+ef"
        );
        assert_eq!(StagePolicy::Priced { candidates: Vec::new() }.name(), "auto");
        // EF is visible through the accessor the plan gate uses.
        assert!(uplink("topk:0.1+ef").error_feedback());
        assert!(!StagePolicy::Raw.error_feedback());
        assert!(
            !StagePolicy::Priced { candidates: Vec::new() }.error_feedback(),
            "auto never carries EF (candidates with EF are rejected)"
        );
    }

    /// What one spelling yields on one leg.
    enum Want {
        /// This exact policy, which `plan()` accepts on the leg.
        Legal(StagePolicy),
        /// A policy of this name, which `plan()` rejects on the leg.
        Illegal(&'static str),
        /// A parse error naming the leg and the spelling.
        Unparsed,
    }

    /// The grammar table of the module docs, spelling by spelling on
    /// each of the three legs. The `Legal` policies are the ones the
    /// per-leg parsers that preceded the grammar produced (`--downlink
    /// lossy`, `--psum lossy`, `--uplink lossless` and `--downlink
    /// topk:R` were unknown spellings there; they now parse and reach
    /// the plan's typed rejection).
    #[test]
    fn every_spelling_parses_alike_on_every_leg() {
        use StageLeg::{Downlink, Psum, Uplink};
        use Want::{Illegal, Legal, Unparsed};
        let cfg = FedSzConfig::default();
        let lossy = StagePolicy::Lossy(cfg);
        let priced = |candidates| Legal(StagePolicy::Priced { candidates });
        let family = |codec: Result<FamilyCodec, _>, error_feedback| StagePolicy::Family {
            codec: codec.unwrap(),
            error_feedback,
        };
        let uplink_only = |policy: StagePolicy| {
            let name = policy.name();
            [Legal(policy), Illegal(name), Illegal(name)]
        };
        let q =
            |bits, stochastic, ef| uplink_only(family(FamilyCodec::quant(bits, stochastic), ef));
        let topk = |ratio, ef| family(FamilyCodec::top_k(ratio), ef);
        let each = |want: fn() -> Want| [want(), want(), want()];
        let slate =
            vec![lossy.clone(), topk(0.01, false), family(FamilyCodec::quant(8, false), false)];
        let rows = vec![
            ("raw", true, each(|| Legal(StagePolicy::Raw))),
            ("lossy", true, [Legal(lossy.clone()), Legal(lossy.clone()), Illegal("lossy")]),
            ("fedsz", true, [Legal(lossy.clone()), Legal(lossy.clone()), Illegal("lossy")]),
            (
                "lossless",
                true,
                [Illegal("lossless"), Illegal("lossless"), Legal(StagePolicy::Lossless)],
            ),
            ("topk:0.5", true, uplink_only(topk(0.5, false))),
            ("topk:0.5+ef", true, uplink_only(topk(0.5, true))),
            ("q4", true, q(4, false, false)),
            ("q4s", true, q(4, true, false)),
            ("q8", true, q(8, false, false)),
            ("q8s", true, q(8, true, false)),
            ("q4+ef", true, q(4, false, true)),
            ("q4s+ef", true, q(4, true, true)),
            ("q8+ef", true, q(8, false, true)),
            ("q8s+ef", true, q(8, true, true)),
            (
                "adaptive",
                true,
                [
                    priced(vec![lossy.clone()]),
                    priced(vec![lossy.clone()]),
                    priced(vec![StagePolicy::Lossless]),
                ],
            ),
            (
                "eqn1",
                true,
                [
                    priced(vec![lossy.clone()]),
                    priced(vec![lossy.clone()]),
                    priced(vec![StagePolicy::Lossless]),
                ],
            ),
            (
                "auto",
                true,
                [priced(slate), priced(vec![lossy.clone()]), priced(vec![StagePolicy::Lossless])],
            ),
            // Spellings are case-insensitive.
            ("TopK:0.5+EF", true, uplink_only(topk(0.5, true))),
            ("Q4S", true, q(4, true, false)),
            ("RAW", true, each(|| Legal(StagePolicy::Raw))),
            // Out-of-range parameters fail in the codec constructors,
            // unknown spellings in the grammar.
            ("topk:0", true, each(|| Unparsed)),
            ("topk:1.5", true, each(|| Unparsed)),
            ("topk:nan", true, each(|| Unparsed)),
            ("topk:", true, each(|| Unparsed)),
            ("q16", true, each(|| Unparsed)),
            ("q8+ef+ef", true, each(|| Unparsed)),
            ("raw+ef", true, each(|| Unparsed)),
            ("auto+ef", true, each(|| Unparsed)),
            ("bogus", true, each(|| Unparsed)),
            // With compression off, FedSZ spellings cannot parse, and
            // the defaults that stand for FedSZ drop it.
            ("lossy", false, each(|| Unparsed)),
            ("adaptive", false, [Unparsed, Unparsed, priced(vec![StagePolicy::Lossless])]),
            (
                "auto",
                false,
                [
                    priced(vec![topk(0.01, false), family(FamilyCodec::quant(8, false), false)]),
                    Unparsed,
                    priced(vec![StagePolicy::Lossless]),
                ],
            ),
            ("q8", false, q(8, false, false)),
        ];
        for (spec, compression, wants) in rows {
            for (leg, want) in [Uplink, Downlink, Psum].into_iter().zip(wants) {
                let context = format!("`{spec}` on {leg:?}, compression {compression}");
                let parsed = StagePolicy::parse(spec, leg, compression.then_some(cfg));
                let planned = |policy: StagePolicy| {
                    let mut config = base();
                    config.tree = Some(vec![2]);
                    *match leg {
                        Uplink => &mut config.uplink,
                        Downlink => &mut config.downlink,
                        Psum => &mut config.psum,
                    } = policy;
                    config.plan().map(drop)
                };
                match want {
                    Legal(policy) => {
                        assert_eq!(parsed.as_ref(), Ok(&policy), "{context}");
                        assert_eq!(planned(policy), Ok(()), "{context}");
                    }
                    Illegal(name) => {
                        let err = planned(parsed.expect(&context)).unwrap_err();
                        assert_eq!(
                            err,
                            PlanError::IllegalStagePolicy { leg, policy: name },
                            "{context}"
                        );
                    }
                    Unparsed => {
                        let err = parsed.expect_err(&context);
                        assert!(err.contains(leg.name()) && err.contains(spec), "{context}: {err}");
                    }
                }
            }
        }
    }

    #[test]
    fn errors_render_actionable_messages() {
        let mut config = base();
        config.clients = 4;
        config.links = Some(Topology::Dedicated(vec![LinkProfile::default(); 9]));
        let message = config.plan().unwrap_err().to_string();
        assert!(message.contains("9 links for 4 clients"), "{message}");
        config.links = None;
        config.participation = 2.0;
        let message = config.plan().unwrap_err().to_string();
        assert!(message.contains("(0, 1]"), "{message}");
    }
}
