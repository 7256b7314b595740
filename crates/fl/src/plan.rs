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
//! clamp or a mid-round panic. Each scalar field is a row of one range
//! table, reported by one rule: [`PlanError::OutOfRange`] names the
//! field, its range and its value (`participation must be in (0, 1],
//! got 1.5`). The other variants say what a row cannot: a zero
//! fan-out's level, a link profile's client, a link list that does not
//! match the cohort, a stage policy on a leg it is illegal on. The
//! engine ([`RoundEngine`](crate::engine::RoundEngine)) and the socket
//! runtime ([`crate::net`]) consume the plan.
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
//! A `Priced` candidate must be legal on its leg by the rows above and
//! carry no error feedback (a residual has no meaning when the codec
//! changes per round); the broadcast and partial-sum legs price exactly
//! one against raw, the upload leg any number. The ✗
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
//! | `lossy`, `fedsz` | `Lossy(cfg)` |
//! | `lossless` | `Lossless` |
//! | `topk:R[+ef]`, `q4[s][+ef]`, `q8[s][+ef]` | `Family { codec, error_feedback }` |
//! | `adaptive`, `eqn1` | `Priced` over the leg's default codec (lossy; lossless on psum) |
//! | `auto` | `Priced` over the leg's default slate (uplink: lossy, `topk:0.01`, `q8`) |
//!
//! # What the socket runtime adds
//!
//! [`RoundPlan::validate_for_workers`] rejects what `fedsz serve` and
//! `fedsz worker` have no mechanism for, so a run built in code cannot
//! end with a checksum that silently differs from the in-process run:
//! an error-feedback uplink (a reconnecting worker's fresh process
//! drops its residual), weighted aggregation, partial participation, a
//! priced downlink, trees deeper than one relay tier and shards without
//! clients. The DP stage ([`FlConfig::dp`]) keeps no state — its noise
//! is a function of `(dp.seed, round, client)` — so it composes with
//! every uplink and both runtimes.

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

/// The quantizer spellings, `([plain, with error feedback], bits,
/// stochastic)`: the one table [`StagePolicy::parse`] reads and
/// [`StagePolicy::name`] writes.
const QUANTIZERS: [([&str; 2], u8, bool); 4] = [
    (["q4", "q4+ef"], 4, false),
    (["q4s", "q4s+ef"], 4, true),
    (["q8", "q8+ef"], 8, false),
    (["q8s", "q8s+ef"], 8, true),
];

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
        /// the next round's delta (a stateful uplink).
        error_feedback: bool,
    },
    /// The paper's Eqn 1, per link and per payload: price every
    /// candidate codec through its measured `CostProfile` and ship
    /// whichever predicts the fastest end-to-end transfer — or raw
    /// when raw is strictly faster. With one candidate this is the
    /// paper's compress-or-not; on the upload leg it generalizes to
    /// codec-family selection.
    Priced {
        /// The concrete codecs to price against raw (see the module
        /// docs for which are legal on each leg).
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
    /// lossy defaults stand for.
    ///
    /// # Errors
    ///
    /// Returns a message naming the leg and the spelling when the
    /// spelling is unknown or its family codec's constructor rejects a
    /// parameter.
    pub fn parse(spec: &str, leg: StageLeg, fedsz: FedSzConfig) -> Result<Self, String> {
        let lossy = StagePolicy::Lossy(fedsz);
        let lower = spec.to_ascii_lowercase();
        let candidates = match lower.as_str() {
            "raw" => return Ok(StagePolicy::Raw),
            "lossy" | "fedsz" => return Ok(lossy),
            "lossless" => return Ok(StagePolicy::Lossless),
            // The uplink's slate is EF-free: a priced policy rejects
            // error-feedback candidates.
            "auto" if leg == StageLeg::Uplink => {
                let mut slate = vec![lossy];
                for family in ["topk:0.01", "q8"] {
                    slate.push(Self::parse_family(family, leg, family)?);
                }
                slate
            }
            "adaptive" | "eqn1" | "auto" if leg == StageLeg::Psum => vec![StagePolicy::Lossless],
            "adaptive" | "eqn1" | "auto" => vec![lossy],
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
        let quantizer = QUANTIZERS.iter().find(|(names, ..)| names[0] == base);
        let codec = match (base.strip_prefix("topk:").map(str::parse), quantizer) {
            (Some(Ok(ratio)), _) => FamilyCodec::top_k(ratio),
            (_, Some(&(_, bits, stochastic))) => FamilyCodec::quant(bits, stochastic),
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
    /// key of `eqn1.decision` records), `+ef` with error feedback.
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
                    FamilyCodec::Quant(q) => {
                        let grid = (q.bits(), q.stochastic());
                        QUANTIZERS
                            .iter()
                            .find(|&&(_, bits, stochastic)| (bits, stochastic) == grid)
                            .expect("FamilyCodec::quant builds only the tabled grids")
                            .0
                    }
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
    /// residual, state the executor must persist across rounds.
    pub fn error_feedback(&self) -> bool {
        self.codecs()
            .iter()
            .any(|codec| matches!(codec, StagePolicy::Family { error_feedback: true, .. }))
    }

    /// Checks that this policy is legal on `leg` (the module docs'
    /// table).
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

/// Why an [`FlConfig`] cannot be turned into a [`RoundPlan`]; each
/// variant names the offending field and its legal range.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// A scalar field outside its legal range (see [`FlConfig::plan`]
    /// for the table of rows).
    OutOfRange {
        /// The field (`"clients"`, `"lr"`, `"dp.clip_norm"`, ...).
        field: &'static str,
        /// Its value.
        value: f64,
        /// The legal range, as the message words it (`"in (0, 1]"`).
        want: &'static str,
    },
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
    /// A [`StagePolicy::Priced`] candidate set that cannot be priced
    /// (empty, raw or nested members, error-feedback members, or more
    /// than one candidate on a leg that prices one).
    BadPriced {
        /// The leg.
        leg: StageLeg,
        /// What about the candidate set is wrong.
        reason: &'static str,
    },
    /// An error-feedback uplink on the socket runtime.
    StatefulUplinkWorker,
    /// A simulator-only feature on the socket runtime.
    SimulatorOnly {
        /// The feature (`"weighted aggregation"`, ...).
        feature: &'static str,
    },
    /// More first-tier aggregators than clients: a socket shard is a
    /// relay process that would wait for workers that cannot exist.
    TooManyShards {
        /// First-tier aggregators in the tree.
        shards: usize,
        /// Cohort size.
        clients: usize,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::OutOfRange { field, value, want } => {
                write!(f, "{field} must be {want}, got {value}")
            }
            PlanError::BadLinkProfile { client, field, value } => write!(
                f,
                "link profile for client {client} has {field} = {value}, out of range (want \
                 positive finite bandwidth, non-negative latency, drop probability in [0, 1], \
                 slowdown >= 1)"
            ),
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
    /// [`FlConfig::links`], validated; under a tree a shared pipe
    /// becomes one dedicated copy per client. `None` = no network model.
    pub topology: Option<Topology>,
    /// [`FlConfig::worker_threads`], or the host's available
    /// parallelism at plan time when unset. Always at least 1.
    pub worker_threads: usize,
}

impl RoundPlan {
    /// Number of first-tier aggregators under the root: the relay
    /// count a sharded `fedsz serve` deployment expects, or `None` for
    /// a flat server.
    pub fn shard_count(&self) -> Option<usize> {
        self.tree.as_ref().map(|tree| tree.nodes_at(1))
    }

    /// Checks what the socket runtime adds on top of [`FlConfig::plan`]
    /// (see the module docs), before any round runs.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::StatefulUplinkWorker`],
    /// [`PlanError::SimulatorOnly`] or [`PlanError::TooManyShards`].
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
        // Every shard is a relay process, so each must own a client.
        match self.shard_count() {
            Some(shards) if shards > config.clients => {
                Err(PlanError::TooManyShards { shards, clients: config.clients })
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

/// A legal range: how [`PlanError::OutOfRange`] words it, and its test.
pub(crate) type Rule = (&'static str, fn(f64) -> bool);
pub(crate) const AT_LEAST_ONE: Rule = ("at least 1", |v| v >= 1.0 && v.is_finite());
pub(crate) const POSITIVE: Rule = ("positive and finite", |v| v > 0.0 && v.is_finite());
const NON_NEGATIVE: Rule = ("non-negative and finite", |v| v >= 0.0 && v.is_finite());

/// Checks `(field, value, rule)` rows in order, naming the first value
/// outside its rule's range.
pub(crate) fn check_ranges(rows: &[(&'static str, f64, Rule)]) -> Result<(), PlanError> {
    match rows.iter().find(|&&(_, value, (_, ok))| !ok(value)) {
        Some(&(field, value, (want, _))) => Err(PlanError::OutOfRange { field, value, want }),
        None => Ok(()),
    }
}

/// Checks `profile`'s ranges, naming the first out-of-range field in a
/// [`PlanError::BadLinkProfile`] for `client`.
fn validate_link(client: usize, profile: &LinkProfile) -> Result<(), PlanError> {
    match check_ranges(&[
        ("bandwidth_bps", profile.bandwidth_bps, POSITIVE),
        ("latency_secs", profile.latency_secs, NON_NEGATIVE),
        ("drop_prob", profile.drop_prob, ("in [0, 1]", |v| (0.0..=1.0).contains(&v))),
        ("compute_slowdown", profile.compute_slowdown, AT_LEAST_ONE),
    ]) {
        Err(PlanError::OutOfRange { field, value, .. }) => {
            Err(PlanError::BadLinkProfile { client, field, value })
        }
        checked => checked,
    }
}

/// Validates [`FlConfig::tree`] (every fan-out positive, leaf count
/// representable) and lays it over the cohort.
fn plan_tree(config: &FlConfig) -> Result<Option<TreePlan>, PlanError> {
    let Some(fanouts) = &config.tree else { return Ok(None) };
    if let Some(level) = fanouts.iter().position(|&f| f == 0) {
        return Err(PlanError::ZeroFanout { level });
    }
    if fanouts.iter().try_fold(1usize, |acc, &f| acc.checked_mul(f)).is_none() {
        return Err(PlanError::LeafOverflow);
    }
    Ok(Some(TreePlan::new(config.clients, fanouts.clone())))
}

/// Validates `links` and derives [`RoundPlan::topology`] from them.
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
        Some(Topology::Dedicated(links)) if links.len() != config.clients => {
            Err(PlanError::LinkCountMismatch { links: links.len(), clients: config.clients })
        }
        Some(Topology::Dedicated(links)) => {
            for (client, link) in links.iter().enumerate() {
                validate_link(client, link)?;
            }
            Ok(config.links.clone())
        }
    }
}

impl FlConfig {
    /// Validates this configuration and derives its [`RoundPlan`]: the
    /// [`TreePlan`] over the cohort, the client [`Topology`] and the
    /// resolved worker width. Every scalar field is a row of one range
    /// table: counts must be at least 1, `lr`, `non_iid_alpha` and
    /// `dp.clip_norm` positive, `participation` in `(0, 1]` and
    /// `dp.noise_multiplier` non-negative (0 is clip-only).
    ///
    /// # Errors
    ///
    /// Returns the first [`PlanError`] found.
    pub fn plan(&self) -> Result<RoundPlan, PlanError> {
        // An unset optional field stands in with a legal value.
        let dp = self.dp.as_ref();
        check_ranges(&[
            ("clients", self.clients as f64, AT_LEAST_ONE),
            ("rounds", self.rounds as f64, AT_LEAST_ONE),
            ("local_epochs", self.local_epochs as f64, AT_LEAST_ONE),
            ("batch_size", self.batch_size as f64, AT_LEAST_ONE),
            ("data.train_per_class", self.data.train_per_class as f64, AT_LEAST_ONE),
            ("lr", f64::from(self.lr), POSITIVE),
            ("participation", self.participation, ("in (0, 1]", |p| p > 0.0 && p <= 1.0)),
            ("non_iid_alpha", self.non_iid_alpha.unwrap_or(1.0), POSITIVE),
            ("worker_threads", self.worker_threads.unwrap_or(1) as f64, AT_LEAST_ONE),
            ("dp.clip_norm", dp.map_or(1.0, |dp| dp.clip_norm), POSITIVE),
            ("dp.noise_multiplier", dp.map_or(0.0, |dp| dp.noise_multiplier), NON_NEGATIVE),
            ("tree levels", self.tree.as_ref().map_or(1, Vec::len) as f64, AT_LEAST_ONE),
        ])?;
        let worker_threads = self
            .worker_threads
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, usize::from));
        let tree = plan_tree(self)?;
        let topology = plan_topology(self)?;
        self.uplink.validate_for(StageLeg::Uplink)?;
        self.downlink.validate_for(StageLeg::Downlink)?;
        self.psum.validate_for(StageLeg::Psum)?;
        if self.psum.compresses() && tree.is_none() {
            return Err(PlanError::PsumWithoutTree);
        }
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
        StagePolicy::parse(spec, StageLeg::Uplink, FedSzConfig::default()).unwrap()
    }

    #[test]
    fn smoke_config_plans_cleanly() {
        let plan = base().plan().expect("smoke config is valid");
        assert!(plan.tree.is_none());
        assert!(matches!(plan.topology, Some(Topology::Shared(_))));
        assert_eq!(plan.shard_count(), None);
    }

    #[test]
    fn worker_threads_none_resolves_to_the_host() {
        let mut config = base();
        config.worker_threads = Some(3);
        assert_eq!(config.plan().unwrap().worker_threads, 3);
        config.worker_threads = None;
        assert!(config.plan().unwrap().worker_threads >= 1);
    }

    fn dp(clip_norm: f64, noise_multiplier: f64) -> Option<fedsz_dp::DpPolicy> {
        let mechanism = fedsz_dp::DpMechanism::Gaussian;
        Some(fedsz_dp::DpPolicy { clip_norm, noise_multiplier, mechanism, seed: 7 })
    }

    /// Every row of `plan()`'s range table, as `(field, setter, the
    /// illegal value at the range's edge, the nearest legal value,
    /// whether the field is a float)`: the edge is rejected naming the
    /// field, so are NaN and infinity on a float, and the legal value
    /// plans.
    #[test]
    fn every_range_row_rejects_its_edge_and_plans_the_nearest_legal_value() {
        type Set = fn(&mut FlConfig, f64);
        let tiny = f64::MIN_POSITIVE;
        let rows: [(&str, Set, f64, f64, bool); 13] = [
            ("clients", |c, v| c.clients = v as usize, 0.0, 1.0, false),
            ("rounds", |c, v| c.rounds = v as usize, 0.0, 1.0, false),
            ("local_epochs", |c, v| c.local_epochs = v as usize, 0.0, 1.0, false),
            ("batch_size", |c, v| c.batch_size = v as usize, 0.0, 1.0, false),
            ("data.train_per_class", |c, v| c.data.train_per_class = v as usize, 0.0, 1.0, false),
            ("lr", |c, v| c.lr = v as f32, 0.0, f64::from(f32::MIN_POSITIVE), true),
            ("participation", |c, v| c.participation = v, 0.0, tiny, true),
            ("participation", |c, v| c.participation = v, 1.0 + f64::EPSILON, 1.0, true),
            ("non_iid_alpha", |c, v| c.non_iid_alpha = Some(v), 0.0, tiny, true),
            ("worker_threads", |c, v| c.worker_threads = Some(v as usize), 0.0, 1.0, false),
            ("dp.clip_norm", |c, v| c.dp = dp(v, 0.5), 0.0, tiny, true),
            // Clip-only (noise multiplier 0) is a legal policy.
            ("dp.noise_multiplier", |c, v| c.dp = dp(1.0, v), -tiny, 0.0, true),
            ("tree levels", |c, v| c.tree = Some(vec![1; v as usize]), 0.0, 1.0, false),
        ];
        for (field, set, edge, legal, float) in rows {
            let planned = |value| {
                let mut config = base();
                set(&mut config, value);
                config.plan().map(drop)
            };
            let rejected = |value: f64| match planned(value) {
                Err(PlanError::OutOfRange { field: f, value: v, .. }) => {
                    f == field && (v == value || value.is_nan() && v.is_nan())
                }
                _ => false,
            };
            assert!(rejected(edge), "{field} = {edge} must be out of range");
            if float {
                for value in [f64::NAN, f64::INFINITY] {
                    assert!(rejected(value), "{field} = {value} must be out of range");
                }
            }
            assert_eq!(planned(legal), Ok(()), "{field} = {legal} must plan");
        }
        let mut config = base();
        config.data.train_per_class = 0;
        let message = config.plan().unwrap_err().to_string();
        assert_eq!(message, "data.train_per_class must be at least 1, got 0");
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
        let err = config.plan().unwrap_err();
        assert!(matches!(err, PlanError::OutOfRange { field: "tree levels", .. }), "{err}");
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
            ("raw", each(|| Legal(StagePolicy::Raw))),
            ("lossy", [Legal(lossy.clone()), Legal(lossy.clone()), Illegal("lossy")]),
            ("fedsz", [Legal(lossy.clone()), Legal(lossy.clone()), Illegal("lossy")]),
            ("lossless", [Illegal("lossless"), Illegal("lossless"), Legal(StagePolicy::Lossless)]),
            ("topk:0.5", uplink_only(topk(0.5, false))),
            ("topk:0.5+ef", uplink_only(topk(0.5, true))),
            ("q4", q(4, false, false)),
            ("q4s", q(4, true, false)),
            ("q8", q(8, false, false)),
            ("q8s", q(8, true, false)),
            ("q4+ef", q(4, false, true)),
            ("q4s+ef", q(4, true, true)),
            ("q8+ef", q(8, false, true)),
            ("q8s+ef", q(8, true, true)),
            (
                "adaptive",
                [
                    priced(vec![lossy.clone()]),
                    priced(vec![lossy.clone()]),
                    priced(vec![StagePolicy::Lossless]),
                ],
            ),
            (
                "eqn1",
                [
                    priced(vec![lossy.clone()]),
                    priced(vec![lossy.clone()]),
                    priced(vec![StagePolicy::Lossless]),
                ],
            ),
            (
                "auto",
                [priced(slate), priced(vec![lossy.clone()]), priced(vec![StagePolicy::Lossless])],
            ),
            // Spellings are case-insensitive.
            ("TopK:0.5+EF", uplink_only(topk(0.5, true))),
            ("Q4S", q(4, true, false)),
            ("RAW", each(|| Legal(StagePolicy::Raw))),
            // Out-of-range parameters fail in the codec constructors,
            // unknown spellings in the grammar.
            ("topk:0", each(|| Unparsed)),
            ("topk:1.5", each(|| Unparsed)),
            ("topk:nan", each(|| Unparsed)),
            ("topk:", each(|| Unparsed)),
            ("q16", each(|| Unparsed)),
            ("q8+ef+ef", each(|| Unparsed)),
            ("raw+ef", each(|| Unparsed)),
            ("auto+ef", each(|| Unparsed)),
            ("bogus", each(|| Unparsed)),
        ];
        for (spec, wants) in rows {
            for (leg, want) in [Uplink, Downlink, Psum].into_iter().zip(wants) {
                let context = format!("`{spec}` on {leg:?}");
                let parsed = StagePolicy::parse(spec, leg, cfg);
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
