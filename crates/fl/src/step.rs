//! The round's two halves, written once: the **client step** and the
//! **fold step**.
//!
//! FedSZ is one pipeline — train → partition → lossy/lossless →
//! serialize → send; receive → decode → fold — and every runtime in
//! this crate runs it through this module: the in-process
//! [`RoundEngine`](crate::engine::RoundEngine), the socket worker
//! ([`run_worker`](crate::net::run_worker)) and the socket server
//! ([`NetServer`](crate::net::NetServer)). The runtimes differ only in
//! transport and scheduling; what they feed the pipeline enters as
//! *arguments* (where the bandwidth estimate comes from, the compute
//! slowdown, whether an error-feedback residual exists, who measures
//! the decompression cost), never as a "which runtime am I" branch.
//!
//! ```text
//!   client half (UplinkStage)                    server half (FoldStep)
//!   choose ── Eqn 1 over the plan's codec list   decode ── FUC1 | FSZ1 | raw
//!   client_step ── load global → local epochs       │      against the template
//!        → DP clip+noise → encode                   └► finite, bounded values
//!   observe ── the one EWMA cost-profile fold
//! ```
//!
//! The client half ships through the plan's concrete uplink policies
//! ([`StagePolicy::codecs`]) and the server half accepts what they can
//! produce, so a new family codec lands as a [`FamilyCodec`] variant
//! and its arm in [`StagePolicy::parse`] — no per-runtime edits.
//!
//! Eqn 1 itself is written once too, in `PricedStage`: the uplink
//! prices its codec list with one, and the broadcast
//! ([`Downlink`](crate::agg::Downlink)) and partial-sum
//! ([`PsumForwarder`](crate::agg::PsumForwarder)) legs each hold a
//! one-candidate stage. Every leg's choice, cost-profile fold and
//! [`Eqn1Decision`] record come from there.

use crate::agg::{template_matches, PartialSum};
use crate::codec::{zero_residual, FamilyCodec};
use crate::plan::{RoundPlan, StagePolicy};
use crate::Client;
use fedsz::timing::{
    select_family, CostProfile, Eqn1Decision, Eqn1Leg, FamilyCandidate, TransferPlan,
};
use fedsz::FedSz;
use fedsz_dp::{DpOutcome, DpPolicy};
use fedsz_lossless::PsumCodec;
use fedsz_nn::{NnError, StateDict};
use fedsz_telemetry::{Telemetry, Value};
use std::time::Instant;

/// Derives the per-(round, client) dither seed for stochastic
/// quantization from the run seed. Distinct inputs land in distinct
/// seeds, and the same run replays the same dither — rounding noise is
/// reproducible, not fresh entropy, and identical on every runtime.
fn derive_dither_seed(seed: u64, round: usize, client: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((round as u64) << 20)
        .wrapping_add(client as u64)
}

/// Applies the plan's DP stage to `update` in place, against the exact
/// `reference` dict the client loaded this round (the same base the
/// delta codecs use): the delta `update - reference` is clipped to the
/// policy's L2 norm, noised with the `(seed, round, client)`-derived
/// stream, and re-based onto `reference`.
fn apply_dp(
    update: &mut StateDict,
    reference: &StateDict,
    policy: &DpPolicy,
    round: usize,
    client: usize,
) -> DpOutcome {
    for (name, t) in update.iter_mut() {
        let base = reference.get(name).expect("reference dict matches the update");
        for (v, &b) in t.data_mut().iter_mut().zip(base.data()) {
            *v -= b;
        }
    }
    let mut chunks: Vec<&mut [f32]> = update.iter_mut().map(|(_, t)| t.data_mut()).collect();
    let outcome = policy.apply(&mut chunks, round as u64, client as u64);
    drop(chunks);
    for (name, t) in update.iter_mut() {
        let base = reference.get(name).expect("reference dict matches the update");
        for (v, &b) in t.data_mut().iter_mut().zip(base.data()) {
            *v += b;
        }
    }
    outcome
}

/// The paper's Eqn 1 for one wire leg, written once: the leg's
/// candidate codecs with their measured [`CostProfile`]s, the choice
/// between them and raw ([`select_family`]), the EWMA fold of each
/// measurement, and (through [`StageChoice::decision`]) the
/// [`Eqn1Decision`] record.
///
/// The uplink holds one with a candidate per codec of its policy; the
/// broadcast and partial-sum legs each hold one with a single
/// candidate (`"lossy"`, `"lossless"`). A *forced* stage always ships
/// its first candidate (raw when it has none) and prices nothing, but
/// still folds what it measures: a forced-lossless partial-sum leg
/// reads its profile to stop verify-decompressing frames.
#[derive(Debug, Clone)]
pub(crate) struct PricedStage {
    leg: Eqn1Leg,
    /// Candidate names and their profiles (`None` until measured).
    candidates: Vec<FamilyCandidate>,
    /// Whether Eqn 1 picks per payload rather than the plan forcing
    /// the first candidate.
    priced: bool,
}

impl PricedStage {
    /// A stage on `leg` over the named candidates, none of them
    /// profiled yet.
    pub(crate) fn new(leg: Eqn1Leg, families: &[&'static str], priced: bool) -> Self {
        let candidates =
            families.iter().map(|&family| FamilyCandidate { family, profile: None }).collect();
        Self { leg, candidates, priced }
    }

    /// Candidate `codec`'s measured cost profile, if it has one.
    pub(crate) fn profile(&self, codec: usize) -> Option<CostProfile> {
        self.candidates[codec].profile
    }

    /// Whether the next [`PricedStage::observe`] of `codec` needs a
    /// measured decompression time: only a priced stage reads the
    /// profile, and once `codec` has one its per-byte decompress cost
    /// can be carried forward.
    pub(crate) fn wants_decompress_sample(&self, codec: usize) -> bool {
        self.priced && self.candidates[codec].profile.is_none()
    }

    /// The leg's choice for one payload of `raw_bytes`. A forced stage
    /// ships its first candidate; a priced one runs [`select_family`]
    /// against `bandwidth_bps` — probing unmeasured candidates from
    /// `probe_hint` on, compressing while no bandwidth is known, and
    /// going raw only when raw is predicted strictly faster.
    ///
    /// Compression runs on hardware `slowdown` times slower than the
    /// one profiled (per byte, before planning), and one encode serves
    /// `fanout` receivers (the planned compress seconds are divided by
    /// it); decompression is priced as measured. `1.0` and `1` leave
    /// the profile's arithmetic untouched.
    pub(crate) fn choose(
        &self,
        raw_bytes: usize,
        bandwidth_bps: Option<f64>,
        probe_hint: usize,
        slowdown: f64,
        fanout: usize,
    ) -> StageChoice {
        let (codec, predicted) = if self.priced {
            let plan = |p: &CostProfile| -> TransferPlan {
                let scaled = CostProfile {
                    compress_secs_per_byte: p.compress_secs_per_byte * slowdown,
                    ..*p
                };
                let mut plan = scaled.plan(raw_bytes);
                plan.compress_secs /= fanout.max(1) as f64;
                plan
            };
            let sel = select_family(raw_bytes, bandwidth_bps, &self.candidates, probe_hint, &plan);
            (sel.choice, sel.predicted_choice_secs.zip(sel.predicted_raw_secs))
        } else {
            ((!self.candidates.is_empty()).then_some(0), None)
        };
        let family = codec.map_or("raw", |i| self.candidates[i].family);
        StageChoice { leg: self.leg, codec, family, predicted }
    }

    /// Folds one measurement of `codec` into its EWMA profile: the
    /// `raw_bytes` it was given (one payload or a round's worth),
    /// the `shipped_bytes` it produced, and the seconds it took.
    /// `decompress_secs` of `None` keeps the previous per-byte
    /// estimate (a sender that measured the receiver's cost once does
    /// not re-measure it).
    pub(crate) fn observe(
        &mut self,
        codec: usize,
        raw_bytes: usize,
        shipped_bytes: usize,
        compress_secs: f64,
        decompress_secs: Option<f64>,
    ) {
        if raw_bytes == 0 {
            return;
        }
        let raw = raw_bytes as f64;
        let prev = self.candidates[codec].profile;
        self.candidates[codec].profile = Some(CostProfile::blend(
            prev,
            CostProfile {
                compress_secs_per_byte: compress_secs / raw,
                decompress_secs_per_byte: match decompress_secs {
                    Some(secs) => secs / raw,
                    None => prev.map_or(0.0, |p| p.decompress_secs_per_byte),
                },
                ratio: raw / shipped_bytes.max(1) as f64,
            },
        ));
    }
}

/// One payload's resolved decision on one leg.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageChoice {
    /// The leg that decided.
    pub leg: Eqn1Leg,
    /// Index into the stage's candidates, or `None` to ship raw.
    pub codec: Option<usize>,
    /// The codec-family name the decision record reports.
    pub family: &'static str,
    /// `(chosen, raw)` predicted end-to-end seconds when a pricing
    /// pass actually ran.
    pub predicted: Option<(f64, f64)>,
}

impl StageChoice {
    /// The auditable record of this choice at `node` (client id,
    /// tree node, or `0` for the broadcast), beside the `codec_secs`
    /// actually paid (counted only when the payload shipped
    /// compressed).
    pub fn decision(&self, node: usize, codec_secs: f64) -> Eqn1Decision {
        let compressed = self.codec.is_some();
        Eqn1Decision {
            leg: self.leg,
            node: node as u64,
            compressed,
            family: self.family,
            predicted_compressed_secs: self.predicted.map(|p| p.0),
            predicted_raw_secs: self.predicted.map(|p| p.1),
            measured_codec_secs: if compressed { codec_secs } else { 0.0 },
        }
    }
}

/// What one client produced for a round.
pub(crate) struct ClientStep {
    /// The bytes to upload.
    pub payload: Vec<u8>,
    /// Whether `payload` is a codec stream rather than raw dict bytes.
    pub compressed: bool,
    /// In-memory size of the update the payload encodes.
    pub raw_bytes: usize,
    /// Measured local-training wall time.
    pub train_secs: f64,
    /// Measured encode (or raw serialization) wall time.
    pub compress_secs: f64,
    /// The client's local sample count (the FedAvg weight).
    pub samples: usize,
    /// What the DP stage did to the delta (`None` without a DP policy).
    pub dp: Option<DpOutcome>,
}

/// The client half of the upload pipeline, built once from the plan.
pub(crate) struct UplinkStage {
    /// The plan's concrete uplink policies ([`StagePolicy::codecs`]).
    codecs: Vec<StagePolicy>,
    /// Eqn 1 over `codecs` (one candidate each): priced per link and
    /// round under a `Priced` policy, forced to codec 0 otherwise.
    /// Runtimes fold their measurements into it.
    pub(crate) pricing: PricedStage,
    dp: Option<DpPolicy>,
    seed: u64,
    local_epochs: usize,
}

impl UplinkStage {
    pub(crate) fn new(plan: &RoundPlan) -> Self {
        let codecs = plan.config.uplink.codecs().to_vec();
        let names: Vec<_> = codecs.iter().map(StagePolicy::name).collect();
        Self {
            codecs,
            pricing: PricedStage::new(Eqn1Leg::Uplink, &names, plan.config.uplink.is_priced()),
            dp: plan.config.dp,
            seed: plan.config.seed,
            local_epochs: plan.config.local_epochs,
        }
    }

    /// How many codecs the plan can route an upload through.
    pub(crate) fn codec_count(&self) -> usize {
        self.codecs.len()
    }

    /// The upload-leg decision for one client and round
    /// ([`PricedStage::choose`]), with the probe rotated by round and
    /// client so every codec gets measured.
    ///
    /// `bandwidth_bps` is whatever the runtime knows about this
    /// client's uplink (a simulated `LinkProfile`, a measured send
    /// rate, or nothing yet). Compression runs on the client's
    /// hardware, so its cost estimate scales with `compute_slowdown`;
    /// decompression is server-side and does not.
    pub(crate) fn choose(
        &self,
        round: usize,
        client: usize,
        raw_bytes: usize,
        bandwidth_bps: Option<f64>,
        compute_slowdown: f64,
    ) -> StageChoice {
        let hint = round.wrapping_mul(self.codecs.len().max(1)).wrapping_add(client);
        self.pricing.choose(raw_bytes, bandwidth_bps, hint, compute_slowdown, 1)
    }

    /// One client's whole round: load the broadcast, train the plan's
    /// local epochs, snapshot the update, clip+noise it when the plan
    /// carries a DP stage, and encode it the way `choice` says.
    ///
    /// `reference` is the exact dict this client received — DP clips
    /// against it and the delta codecs encode against it, and the
    /// server decodes against the same broadcast, so the bases agree.
    /// `residual` is the client's error-feedback carry (`None` where
    /// no such state can live); an empty dict is initialized to zeros
    /// on first use.
    ///
    /// # Errors
    ///
    /// Returns the [`NnError`] when `reference` does not fit the
    /// client's architecture.
    ///
    /// # Panics
    ///
    /// Panics if local training produced non-finite weights (the
    /// codecs refuse them).
    pub(crate) fn client_step(
        &self,
        client: &mut Client,
        reference: &StateDict,
        round: usize,
        choice: StageChoice,
        residual: Option<&mut StateDict>,
    ) -> Result<ClientStep, NnError> {
        client.load_global(reference)?;
        let t0 = Instant::now();
        for _ in 0..self.local_epochs {
            client.train_epoch();
        }
        let train_secs = t0.elapsed().as_secs_f64();
        let mut update = client.update();
        // DP runs before any codec: the uplink must compress the
        // *noised* delta, or the privacy/bytes trade-off is
        // unmeasurable.
        let dp =
            self.dp.map(|policy| apply_dp(&mut update, reference, &policy, round, client.id()));
        let raw_bytes = update.byte_size();
        let t1 = Instant::now();
        let payload = match choice.codec.map(|i| &self.codecs[i]) {
            None => update.to_bytes(),
            Some(StagePolicy::Lossy(config)) => {
                FedSz::new(*config).compress(&update).expect("finite weights").into_bytes()
            }
            Some(StagePolicy::Family { codec, .. }) => {
                let residual = residual.map(|r| {
                    if r.is_empty() {
                        *r = zero_residual(&update);
                    }
                    r
                });
                let dither = derive_dither_seed(self.seed, round, client.id());
                codec.encode_delta(&update, reference, residual, dither).expect("finite weights")
            }
            Some(other) => unreachable!("plan() admits no {} uplink", other.name()),
        };
        Ok(ClientStep {
            payload,
            compressed: choice.codec.is_some(),
            raw_bytes,
            train_secs,
            compress_secs: t1.elapsed().as_secs_f64(),
            samples: client.samples(),
            dp,
        })
    }
}

/// Writes one `eqn1.decision` instant event for a priced (or
/// unconditional) compression choice; absent predictions render as
/// `null` in the trace (the NaN encoding of the trace writer).
pub(crate) fn emit_eqn1(telemetry: &Telemetry, d: &Eqn1Decision) {
    telemetry.event(
        "eqn1.decision",
        &[
            ("leg", Value::Str(d.leg.name())),
            ("node", Value::U64(d.node)),
            ("compressed", Value::Bool(d.compressed)),
            ("family", Value::Str(d.family)),
            (
                "predicted_compressed_secs",
                Value::F64(d.predicted_compressed_secs.unwrap_or(f64::NAN)),
            ),
            ("predicted_raw_secs", Value::F64(d.predicted_raw_secs.unwrap_or(f64::NAN))),
            ("measured_codec_secs", Value::F64(d.measured_codec_secs)),
        ],
    );
}

/// Writes one `dp.noise` instant event for a noised client delta.
pub(crate) fn emit_dp_noise(telemetry: &Telemetry, round: usize, client: usize, dp: &DpOutcome) {
    telemetry.event(
        "dp.noise",
        &[
            ("round", Value::U64(round as u64)),
            ("client", Value::U64(client as u64)),
            ("pre_norm", Value::F64(dp.pre_norm)),
            ("sigma", Value::F64(dp.sigma)),
            ("clipped", Value::Bool(dp.clipped)),
        ],
    );
}

/// Largest weight magnitude an update may carry: safely inside the
/// exact accumulator's `2^47` per-term range with generous headroom
/// for cohort-sized sums, and far beyond any real model weight.
/// Anything outside (or non-finite — diverged local training is the
/// classic producer of NaN weights) is refused; letting it reach the
/// accumulator would trip `quantize`'s panic instead.
const MAX_UPDATE_MAGNITUDE: f32 = 1e9;

/// The server half of the upload pipeline: turns one upload's bytes
/// back into a state dict that is safe to fold.
///
/// Every byte here may come from a peer, so [`FoldStep::decode`] is
/// total: malformed, truncated, forged or mismatched input is an
/// `Err` naming the reason — never a panic, and never an allocation
/// sized by a length field the architecture template does not back.
/// The in-process engine `expect`s on it (its uploads are
/// self-produced); the socket server evicts the sender.
pub struct FoldStep {
    template: StateDict,
    accepts_fedsz: bool,
    accepts_family: bool,
}

impl FoldStep {
    /// A fold step for uploads encoded under `uplink`, validated
    /// against `template` — the architecture's state dict, whose entry
    /// order and shapes every upload must reproduce.
    pub fn new(uplink: &StagePolicy, template: StateDict) -> Self {
        let codecs = uplink.codecs();
        Self {
            template,
            accepts_fedsz: codecs.iter().any(|c| matches!(c, StagePolicy::Lossy(_))),
            accepts_family: codecs.iter().any(|c| matches!(c, StagePolicy::Family { .. })),
        }
    }

    /// The architecture template uploads are validated against.
    pub fn template(&self) -> &StateDict {
        &self.template
    }

    /// Whether the uplink policy can produce `FUC1` delta streams —
    /// those decode against the round's broadcast, so the receiver
    /// must hold that dict as the `reference` of [`FoldStep::decode`].
    pub fn needs_reference(&self) -> bool {
        self.accepts_family
    }

    /// Decodes one upload — a `FUC1` delta stream (against
    /// `reference`), an `FSZ1` FedSZ stream, or raw dict bytes — and
    /// validates it: entry order and shapes must match the template
    /// (the partial sum fixes its layout from the first contribution
    /// and the merge asserts on it), and every value must be finite
    /// and within `MAX_UPDATE_MAGNITUDE` (1e9).
    ///
    /// # Errors
    ///
    /// Returns the reason the upload must not be folded: a codec the
    /// plan's uplink policy never produces, an undecodable stream, an
    /// architecture mismatch, or poisoned values.
    pub fn decode(
        &self,
        payload: &[u8],
        compressed: bool,
        reference: Option<&StateDict>,
    ) -> Result<StateDict, String> {
        let dict = if compressed && FamilyCodec::is_family_stream(payload) {
            let reference = reference.filter(|_| self.accepts_family).ok_or_else(|| {
                "family-coded update but the uplink policy has no family codec".to_string()
            })?;
            FamilyCodec::decode_delta(payload, reference)
                .map_err(|e| format!("undecodable update: {e}"))?
        } else if compressed {
            if !self.accepts_fedsz {
                return Err("compressed update but compression is off".into());
            }
            FedSz::decompress_matching(payload, &self.template)
                .map_err(|e| format!("undecodable update: {e}"))?
        } else {
            StateDict::from_bytes(payload).map_err(|e| format!("malformed update: {e}"))?
        };
        let shapes = dict.iter().map(|(name, t)| (name, t.shape()));
        if !template_matches(&self.template, dict.len(), shapes) {
            return Err("update disagrees with the configured architecture".into());
        }
        // NaNs fail `is_finite`, infinities and huge magnitudes fail
        // the bound — both would panic inside `quantize`.
        let poisoned = |v: f32| !v.is_finite() || v.abs() > MAX_UPDATE_MAGNITUDE;
        if dict.iter().any(|(_, t)| t.data().iter().any(|&v| poisoned(v))) {
            return Err("update carries non-finite or extreme weights".into());
        }
        Ok(dict)
    }

    /// Decodes one relay's partial-sum frame — an exact accumulator
    /// image ([`PartialSum::encode_exact`]), [`PsumCodec`]-compressed
    /// or not — and validates it against the template. A compressed
    /// frame may declare an image no longer than the template's own
    /// ([`PartialSum::max_exact_image_len`]); the merge stays with the
    /// caller, checked ([`PartialSum::merge_from`]).
    ///
    /// # Errors
    ///
    /// Returns the reason the frame must not be merged: an undecodable
    /// or oversized frame, a malformed image, an architecture mismatch,
    /// or a non-positive weight.
    pub fn decode_partial(&self, payload: Vec<u8>, compressed: bool) -> Result<PartialSum, String> {
        let image = if compressed {
            PsumCodec::with_stride(PartialSum::EXACT_STRIDE)
                .decompress_within(&payload, PartialSum::max_exact_image_len(&self.template))
                .map_err(|e| format!("undecodable psum: {e}"))?
        } else {
            payload
        };
        let remote =
            PartialSum::decode_exact(&image).map_err(|e| format!("malformed psum image: {e}"))?;
        if !remote.is_empty() {
            if !remote.shape_matches(&self.template) {
                return Err("partial sum disagrees with the configured architecture".into());
            }
            if remote.weight_total() <= 0.0 {
                return Err("partial sum with non-positive weight".into());
            }
        }
        Ok(remote)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::global_checksum;
    use crate::plan::StageLeg;
    use crate::{Experiment, FlConfig};
    use fedsz_nn::Model;

    /// `(spelling, policy)` for every upload route the CLI can name.
    fn policies() -> Vec<(&'static str, StagePolicy)> {
        let codec = FlConfig::tiny_model_compression();
        ["raw", "lossy", "adaptive", "topk:0.1", "q8", "q4s", "auto"]
            .map(|spec| (spec, StagePolicy::parse(spec, StageLeg::Uplink, codec).unwrap()))
            .into()
    }

    #[test]
    fn engine_and_worker_calls_yield_identical_payloads() {
        for (name, policy) in policies() {
            let mut config = FlConfig::smoke_test();
            config.uplink = policy.clone();
            let plan = config.plan().expect("valid policy");
            let mut stage = UplinkStage::new(&plan);
            let reference = config.build_model().state_dict();
            let raw_bytes = reference.byte_size();
            let (mut sim, mut proc) = (config.build_client(1), config.build_client(1));
            let fold = FoldStep::new(&policy, reference.clone());
            for round in 0..2 {
                // The engine's way: a simulated straggler on a slow
                // link, the (absent) error-feedback residual threaded
                // through. The worker's way: whatever it measured
                // (nothing before its first send), no residual.
                let mut residual = StateDict::new();
                let ef = policy.error_feedback();
                let engine_choice = stage.choose(round, 1, raw_bytes, Some(1e5), 3.0);
                let a = stage
                    .client_step(
                        &mut sim,
                        &reference,
                        round,
                        engine_choice,
                        ef.then_some(&mut residual),
                    )
                    .unwrap();
                let measured = (round > 0).then_some(1e5);
                let worker_choice = stage.choose(round, 1, raw_bytes, measured, 1.0);
                let b =
                    stage.client_step(&mut proc, &reference, round, worker_choice, None).unwrap();
                assert_eq!(engine_choice.family, worker_choice.family, "{name} round {round}");
                assert_eq!(a.payload, b.payload, "{name} round {round}: payloads diverged");
                assert_eq!(a.compressed, name != "raw", "{name}");
                // And the fold step takes back what the client step
                // produced, whichever route it took.
                let dict = fold.decode(&a.payload, a.compressed, Some(&reference)).expect(name);
                assert_eq!(dict.len(), reference.len());
                // Profile every codec so round 1 is priced, not probed.
                for codec in 0..stage.codec_count() {
                    stage.pricing.observe(codec, raw_bytes, raw_bytes / 4, 1e-3, Some(1e-3));
                }
            }
        }
    }

    #[test]
    fn unified_route_reproduces_the_pinned_lossy_checksums() {
        // `tests/plan.rs` pins the smoke config (FedSZ on every
        // upload) at 0x31c90905. `Lossy` is "forced codec 0" and
        // `Priced{[Lossy]}` "priced selection over one candidate" of
        // the same route; with no network model to price against, the
        // latter compresses every round too — so both spellings must
        // land on the golden.
        let codec = FlConfig::tiny_model_compression();
        let lossy = StagePolicy::Lossy(codec);
        let priced = StagePolicy::Priced { candidates: vec![lossy.clone()] };
        for uplink in [lossy, priced] {
            let mut config = FlConfig::smoke_test();
            config.uplink = uplink.clone();
            if uplink.is_priced() {
                config.links = None;
            }
            let mut exp = Experiment::new(config);
            let metrics = exp.run();
            assert_eq!(global_checksum(exp.global_state()), 0x31c9_0905, "{uplink:?}");
            assert!(metrics.iter().all(|m| m.eqn1.iter().all(|d| d.family != "auto")));
        }
    }

    #[test]
    fn pricing_one_candidate_is_eqn1_worthwhile() {
        let mut config = FlConfig::smoke_test();
        let lossy = StagePolicy::Lossy(FlConfig::tiny_model_compression());
        config.uplink = StagePolicy::Priced { candidates: vec![lossy] };
        let mut stage = UplinkStage::new(&config.plan().unwrap());
        // Unprofiled, or no bandwidth estimate: compress (the probe).
        assert_eq!(stage.choose(0, 0, 1_000_000, Some(1e6), 1.0).codec, Some(0));
        assert!(stage.pricing.wants_decompress_sample(0));
        stage.pricing.observe(0, 1_000_000, 100_000, 0.2, Some(0.1));
        assert!(!stage.pricing.wants_decompress_sample(0));
        assert_eq!(stage.choose(1, 0, 1_000_000, None, 1.0).codec, Some(0));
        // Profiled and priced: the verdict and both predictions are
        // `TransferPlan`'s, straggler slowdown on the compress side.
        let plan = TransferPlan {
            compress_secs: 0.2 * 4.0,
            decompress_secs: 0.1,
            original_bytes: 1_000_000,
            compressed_bytes: 100_000,
        };
        for bps in [1e5, 1e6, 1e7, 1e8, 1e9] {
            let choice = stage.choose(1, 0, 1_000_000, Some(bps), 4.0);
            assert_eq!(choice.codec.is_some(), plan.worthwhile(bps), "{bps} bps");
            assert_eq!(choice.family, if plan.worthwhile(bps) { "lossy" } else { "raw" });
            let (chosen, raw) = choice.predicted.expect("priced");
            assert!((chosen - plan.compressed_time(bps)).abs() < 1e-9 * chosen);
            assert_eq!(raw, plan.uncompressed_time(bps));
        }
        // A `None` decompress sample carries the estimate forward.
        stage.pricing.observe(0, 1_000_000, 100_000, 0.2, None);
        let again = stage.choose(2, 0, 1_000_000, Some(1e6), 4.0);
        let (chosen, _) = again.predicted.unwrap();
        assert!((chosen - plan.compressed_time(1e6)).abs() < 1e-9 * chosen);
        // Forced policies fold what they measure but never price, so
        // they never ask for a decompress sample.
        let mut forced = UplinkStage::new(&FlConfig::smoke_test().plan().unwrap());
        forced.pricing.observe(0, 1_000_000, 100_000, 0.2, Some(0.1));
        assert!(forced.pricing.profile(0).is_some());
        assert!(!forced.pricing.wants_decompress_sample(0));
        let choice = forced.choose(5, 1, 1_000_000, Some(1e12), 1.0);
        assert_eq!((choice.codec, choice.family, choice.predicted), (Some(0), "lossy", None));
    }

    #[test]
    fn unpriced_decisions_carry_no_predictions() {
        let psum = PricedStage::new(Eqn1Leg::Psum, &["lossless"], false);
        let d = psum.choose(1_000, Some(1e6), 0, 1.0, 1).decision(3, 0.5);
        assert_eq!((d.predicted_compressed_secs, d.predicted_raw_secs), (None, None));
        // A compressed psum frame is lossless, never "lossy".
        assert_eq!((d.leg.name(), d.node, d.family, d.compressed), ("psum", 3, "lossless", true));
        assert_eq!(d.measured_codec_secs, 0.5);
        // A raw choice is charged no codec time.
        let raw = PricedStage::new(Eqn1Leg::Downlink, &[], false);
        let d = raw.choose(1_000, None, 0, 1.0, 4).decision(0, 0.5);
        assert_eq!(
            (d.leg.name(), d.family, d.compressed, d.measured_codec_secs),
            ("downlink", "raw", false, 0.0)
        );
        assert_eq!(Eqn1Leg::Uplink.name(), "uplink");
    }

    /// The priced stage against the formulas the three legs used
    /// before they shared it, bit for bit: the psum leg's plain
    /// `TransferPlan::worthwhile`, the downlink's planned compress
    /// seconds divided by the cohort, and the uplink's per-byte
    /// compress cost scaled by the straggler slowdown. Ties go to raw;
    /// an unprofiled stage or an unknown bandwidth compresses unpriced.
    #[test]
    fn the_priced_stage_reproduces_each_legs_old_formula() {
        let profile = |c: f64, d: f64, ratio: f64| CostProfile {
            compress_secs_per_byte: c,
            decompress_secs_per_byte: d,
            ratio,
        };
        let profiles = [
            None,
            Some(profile(2e-9, 1e-9, 4.0)),
            Some(profile(3.7e-8, 1.1e-8, 9.3)),
            Some(profile(1e-6, 1e-6, 2.0)),
            // Free and incompressible: both paths cost exactly S·8/B.
            Some(profile(0.0, 0.0, 1.0)),
        ];
        let sizes = [1usize, 4_096, 1_000_003, 92_000_000];
        let bandwidths = [None, Some(1e3), Some(1e6), Some(9.7e7), Some(1e10), Some(1e13)];
        // `(leg, cohort, slowdown)`: what each caller passes.
        let mut cases = vec![(Eqn1Leg::Psum, 1, 1.0)];
        cases.extend([1, 3, 7].map(|cohort| (Eqn1Leg::Downlink, cohort, 1.0)));
        cases.extend([1.0, 2.5].map(|slowdown| (Eqn1Leg::Uplink, 1, slowdown)));
        let mut ties = 0;
        for &(leg, cohort, slowdown) in &cases {
            for p in profiles {
                for raw in sizes {
                    for bw in bandwidths {
                        let mut stage = PricedStage::new(leg, &["codec"], true);
                        stage.candidates[0].profile = p;
                        let got = stage.choose(raw, bw, 0, slowdown, cohort);
                        let (Some(p), Some(bw)) = (p, bw) else {
                            assert_eq!((got.codec, got.predicted), (Some(0), None));
                            continue;
                        };
                        let plan = match leg {
                            Eqn1Leg::Psum => p.plan(raw),
                            Eqn1Leg::Downlink => {
                                let mut plan = p.plan(raw);
                                plan.compress_secs /= cohort as f64;
                                plan
                            }
                            Eqn1Leg::Uplink => CostProfile {
                                compress_secs_per_byte: p.compress_secs_per_byte * slowdown,
                                ..p
                            }
                            .plan(raw),
                        };
                        let want = (plan.compressed_time(bw), plan.uncompressed_time(bw));
                        ties += usize::from(want.0 == want.1);
                        let context = format!("{leg:?} x{cohort} /{slowdown} {p:?} {raw} B {bw}");
                        assert_eq!(got.codec.is_some(), plan.worthwhile(bw), "{context}");
                        let (chosen, raw_secs) = got.predicted.expect("priced");
                        assert_eq!(chosen.to_bits(), want.0.to_bits(), "{context}");
                        assert_eq!(raw_secs.to_bits(), want.1.to_bits(), "{context}");
                    }
                }
            }
        }
        assert!(ties > 0, "the table must hold an exact tie");
    }
}
