//! Download-path compression: encode the global model once, fan it out.
//!
//! The paper compresses only the upload leg, yet every round also
//! broadcasts the full global model to every cohort client. This stage
//! closes that gap: [`Downlink::encode`] FedSZ-encodes the global model
//! *once per round* and the engine ships the same encoded bytes to all
//! `N` clients (or, under a sharded tree, to `S` edge aggregators that
//! fan it out) — so encode cost is paid once while transfer savings
//! multiply by the fan-out.
//!
//! Because decoding is lossy, the clients train from the error-bounded
//! reconstruction, exactly as the server trains from error-bounded
//! uploads on the other leg; the configured bound applies element-wise
//! (the downlink proptest pins this down).
//!
//! [`DownlinkMode::Adaptive`] applies the paper's Eqn 1 to the
//! broadcast leg through a one-candidate `step::PricedStage`: using an
//! EWMA profile of measured encode/decode costs it compares the
//! compressed path (encode once + decode + compressed transfer)
//! against raw transfer on the cohort's *bottleneck* link, and falls
//! back to raw bytes whenever compression loses.

use crate::plan::{PlanError, StageLeg, StagePolicy};
use crate::step::{PricedStage, StageChoice};
use fedsz::timing::Eqn1Leg;
use fedsz::{FedSz, FedSzConfig, Result};
use fedsz_nn::StateDict;
use std::time::Instant;

/// How the global model travels server→client: [`Downlink::new`]'s
/// argument. Configurations say the same with a [`StagePolicy`]
/// ([`Downlink::from_policy`] maps it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DownlinkMode {
    /// Raw state-dict bytes every round (the paper's setting).
    #[default]
    Raw,
    /// FedSZ-encode the broadcast every round.
    Compressed,
    /// Eqn 1 per round: compress unless the cost model says the
    /// bottleneck link would get the raw bytes there faster.
    Adaptive,
}

/// One round's encoded broadcast.
#[derive(Debug, Clone)]
pub struct DownlinkPayload {
    /// The bytes every cohort client receives.
    pub bytes: Vec<u8>,
    /// Whether `bytes` is a FedSZ stream (else raw state-dict bytes).
    pub compressed: bool,
    /// Measured encode wall time (zero for raw).
    pub encode_secs: f64,
    /// In-memory size of the model being broadcast.
    pub raw_bytes: usize,
    /// This round's Eqn-1 choice, with the per-client predictions
    /// when it priced a real plan (`None` for forced modes and
    /// unprofiled probe rounds).
    pub choice: StageChoice,
}

impl DownlinkPayload {
    /// Broadcast compression ratio (raw model bytes over payload
    /// bytes; just under 1 for raw payloads, which carry a small
    /// serialization header).
    pub fn ratio(&self) -> f64 {
        self.raw_bytes as f64 / self.bytes.len().max(1) as f64
    }
}

/// The per-round broadcast encoder.
#[derive(Debug, Clone)]
pub struct Downlink {
    codec: Option<FedSz>,
    /// Eqn 1 over the one broadcast codec (the stage the uplink and
    /// partial-sum legs use too).
    stage: PricedStage,
}

impl Downlink {
    /// Builds the stage.
    ///
    /// # Panics
    ///
    /// Panics when a compressing mode is requested without a codec
    /// configuration.
    pub fn new(mode: DownlinkMode, codec: Option<FedSzConfig>) -> Self {
        assert!(
            mode == DownlinkMode::Raw || codec.is_some(),
            "downlink compression requires a FedSZ configuration"
        );
        let families: &[_] = if mode == DownlinkMode::Raw { &[] } else { &["lossy"] };
        let stage = PricedStage::new(Eqn1Leg::Downlink, families, mode == DownlinkMode::Adaptive);
        Self { codec: codec.map(FedSz::new), stage }
    }

    /// Builds the stage from a validated plan-level [`StagePolicy`] —
    /// the constructor the plan-based engine and socket runtime use.
    ///
    /// # Errors
    ///
    /// Returns a [`PlanError`] when the policy is illegal on the
    /// broadcast leg (lossless, a priced raw, …), so even a
    /// hand-built plan cannot smuggle one in.
    pub fn from_policy(policy: &StagePolicy) -> std::result::Result<Self, PlanError> {
        policy.validate_for(StageLeg::Downlink)?;
        let mode = match (policy.is_priced(), policy.compresses()) {
            (true, _) => DownlinkMode::Adaptive,
            (false, true) => DownlinkMode::Compressed,
            (false, false) => DownlinkMode::Raw,
        };
        Ok(Self::new(mode, policy.fedsz()))
    }

    /// Encodes one round's broadcast. `bottleneck_bps` is the slowest
    /// cohort downlink (drives the adaptive decision; `None` means no
    /// network model, which adaptive treats as "compress") and
    /// `cohort` the number of clients the one encode fans out to: Eqn 1
    /// weighs encode + decode + compressed transfer against raw
    /// transfer *per cohort client*, so the encode cost is amortized
    /// over the cohort while every client pays its own decode. Until a
    /// profile exists the first round compresses to measure one.
    ///
    /// # Panics
    ///
    /// Panics when the global model holds non-finite weights (the
    /// codec's contract).
    pub fn encode(
        &self,
        global: &StateDict,
        bottleneck_bps: Option<f64>,
        cohort: usize,
    ) -> DownlinkPayload {
        self.encode_reusing(global, bottleneck_bps, cohort, Vec::new())
    }

    /// [`Downlink::encode`] with a recycled byte buffer: `bytes` is
    /// cleared and refilled, so a caller that hands last round's
    /// [`DownlinkPayload::bytes`] back in pays zero broadcast
    /// allocations at steady state. Output is byte-identical to
    /// [`Downlink::encode`].
    ///
    /// # Panics
    ///
    /// Panics when the global model holds non-finite weights (the
    /// codec's contract).
    pub fn encode_reusing(
        &self,
        global: &StateDict,
        bottleneck_bps: Option<f64>,
        cohort: usize,
        mut bytes: Vec<u8>,
    ) -> DownlinkPayload {
        let raw_bytes = global.byte_size();
        let choice = self.stage.choose(raw_bytes, bottleneck_bps, 0, 1.0, cohort);
        let compressed = choice.codec.is_some();
        let t0 = Instant::now();
        if compressed {
            let codec = self.codec.as_ref().expect("compressing mode implies a codec");
            codec.compress_into(global, &mut bytes).expect("finite global weights");
        } else {
            global.to_bytes_into(&mut bytes);
        }
        let encode_secs = if compressed { t0.elapsed().as_secs_f64() } else { 0.0 };
        DownlinkPayload { bytes, compressed, encode_secs, raw_bytes, choice }
    }

    /// Decodes a received broadcast ([`decode_broadcast`]).
    ///
    /// # Errors
    ///
    /// Returns a codec error on malformed bytes.
    pub fn decode(&self, bytes: &[u8], compressed: bool) -> Result<StateDict> {
        decode_broadcast(bytes, compressed)
    }

    /// Folds one round's measured costs into the EWMA profile the
    /// adaptive decision uses. No-op for raw rounds (nothing was
    /// measured).
    pub fn observe(&mut self, payload: &DownlinkPayload, decode_secs: f64) {
        if payload.compressed {
            let (raw, shipped) = (payload.raw_bytes, payload.bytes.len());
            self.stage.observe(0, raw, shipped, payload.encode_secs, Some(decode_secs));
        }
    }
}

/// Decodes one round's broadcast bytes (FedSZ stream or raw dict
/// bytes) — the one decode every receiver runs: the engine, a worker,
/// and a root re-reading its own frame. The FedSZ stream embeds its
/// codec configuration, so no local codec is needed (and none can
/// drift from the sender's).
///
/// # Errors
///
/// Returns a codec error on malformed bytes.
pub fn decode_broadcast(bytes: &[u8], compressed: bool) -> Result<StateDict> {
    if compressed {
        Ok(FedSz::decompress_with_config(bytes)?.0)
    } else {
        StateDict::from_bytes(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedsz_tensor::Tensor;

    fn model() -> StateDict {
        let mut dict = StateDict::new();
        let data: Vec<f32> = (0..4096).map(|i| ((i as f32) * 0.01).sin()).collect();
        dict.insert("enc.weight", Tensor::from_vec(vec![4096], data));
        dict.insert("enc.bias", Tensor::filled(vec![16], 0.25));
        dict
    }

    fn config() -> FedSzConfig {
        FedSzConfig { threshold: 128, ..FedSzConfig::default() }
    }

    #[test]
    fn raw_mode_ships_dict_bytes() {
        let downlink = Downlink::new(DownlinkMode::Raw, None);
        let payload = downlink.encode(&model(), Some(10e6), 4);
        assert!(!payload.compressed);
        assert_eq!(payload.bytes, model().to_bytes());
        let back = downlink.decode(&payload.bytes, payload.compressed).unwrap();
        assert_eq!(back, model());
    }

    #[test]
    fn compressed_mode_shrinks_and_round_trips() {
        let downlink = Downlink::new(DownlinkMode::Compressed, Some(config()));
        let payload = downlink.encode(&model(), None, 4);
        assert!(payload.compressed);
        assert!(payload.ratio() > 1.5, "ratio {:.2}", payload.ratio());
        let back = downlink.decode(&payload.bytes, payload.compressed).unwrap();
        assert_eq!(back.len(), model().len());
        // The lossless partition survives exactly.
        assert_eq!(back.get("enc.bias").unwrap().data(), model().get("enc.bias").unwrap().data());
    }

    #[test]
    fn adaptive_probes_then_respects_the_cost_model() {
        let mut downlink = Downlink::new(DownlinkMode::Adaptive, Some(config()));
        let probe = downlink.encode(&model(), Some(1e12), 2);
        assert!(probe.compressed, "first round must probe");
        let back = downlink.decode(&probe.bytes, true).unwrap();
        assert_eq!(back.len(), model().len());
        assert_eq!(probe.choice.predicted, None, "probe rounds price nothing");
        downlink.observe(&probe, 1e-3);
        // Terabit downlink: transfer is free, codec time can never pay.
        let fast = downlink.encode(&model(), Some(1e12), 2);
        assert!(!fast.compressed, "terabit links should get raw broadcasts");
        let (compressed_secs, raw_secs) = fast.choice.predicted.unwrap();
        assert!(compressed_secs >= raw_secs, "raw verdict must match its own prediction");
        // Kilobit downlink: transfer dominates, compression must win.
        let slow = downlink.encode(&model(), Some(1e3), 2);
        assert!(slow.compressed, "crawling links should get compressed broadcasts");
        let (compressed_secs, raw_secs) = slow.choice.predicted.unwrap();
        assert!(compressed_secs < raw_secs, "compressed verdict must match its own prediction");
        assert_eq!((slow.choice.family, fast.choice.family), ("lossy", "raw"));
    }

    #[test]
    #[should_panic(expected = "requires a FedSZ configuration")]
    fn compressing_mode_without_codec_rejected() {
        let _ = Downlink::new(DownlinkMode::Compressed, None);
    }

    #[test]
    fn encode_reusing_is_byte_identical_and_reuses_capacity() {
        for (downlink, label) in [
            (Downlink::new(DownlinkMode::Raw, None), "raw"),
            (Downlink::new(DownlinkMode::Compressed, Some(config())), "compressed"),
        ] {
            let fresh = downlink.encode(&model(), Some(10e6), 4);
            let recycled = downlink.encode_reusing(&model(), Some(10e6), 4, vec![0xFF; 7]);
            assert_eq!(recycled.bytes, fresh.bytes, "{label}");
            assert_eq!(recycled.compressed, fresh.compressed, "{label}");
            // Round-trip the buffer: steady state must not reallocate.
            let warm = downlink.encode_reusing(&model(), Some(10e6), 4, recycled.bytes);
            let cap = warm.bytes.capacity();
            let steady = downlink.encode_reusing(&model(), Some(10e6), 4, warm.bytes);
            assert_eq!(steady.bytes.capacity(), cap, "{label} reallocated at steady state");
            assert_eq!(steady.bytes, fresh.bytes, "{label}");
        }
    }
}
