//! The property-test wall around the uplink codec families.
//!
//! Three codec families feed the uplink leg — Top-K sparsification,
//! 4/8-bit quantization, and the FedSZ pipeline — and each carries an
//! invariant the round loop silently depends on:
//!
//! * Top-K keeps exactly the K largest-magnitude entries **bit-exactly**
//!   (the aggregation math never sees a perturbed survivor),
//! * the linear quantizer's reconstruction error is bounded by half a
//!   quantization step, and the stochastic quantizer is *unbiased* —
//!   its rounding noise averages out instead of pulling the model,
//! * error feedback conserves update mass: across any number of
//!   rounds, `sum(applied) + residual == sum(raw deltas)`.
//!
//! These hold for arbitrary finite inputs, so they are stated as
//! properties, not examples. The legality half of the wall (EF is
//! rejected where its state cannot live, bad TOML specs are hard
//! errors) rides along as example tests.

use fedsz_fl::codec::FamilyCodec;
use fedsz_fl::{FlConfig, PlanError, StagePolicy};
use fedsz_lossy::quant::Quantizer;
use fedsz_lossy::sparse::Sparsifier;
use fedsz_nn::StateDict;
use fedsz_tensor::Tensor;
use proptest::collection::vec;
use proptest::prelude::*;

/// Finite, weight-like floats (mixed magnitudes, zeros included).
fn weights() -> impl Strategy<Value = Vec<f32>> {
    vec(prop_oneof![(-1.0f32..1.0), (-100.0f32..100.0), Just(0.0f32)], 1..400)
}

/// A two-tensor state dict holding `values` (split across entries, so
/// per-entry codec paths are exercised too).
fn dict_of(values: &[f32]) -> StateDict {
    let split = values.len() / 2;
    let mut dict = StateDict::new();
    dict.insert("a.weight", Tensor::from_vec(vec![split.max(1)], values[..split.max(1)].to_vec()));
    if values.len() > split.max(1) {
        let rest = values[split.max(1)..].to_vec();
        dict.insert("b.weight", Tensor::from_vec(vec![rest.len()], rest));
    }
    dict
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Top-K round-trips the K largest-magnitude entries bit-exactly
    /// and zeroes everything else: every survivor equals its original
    /// bits, the survivor count is exactly `ceil(ratio * n)`, and no
    /// dropped entry out-weighs a kept one.
    #[test]
    fn top_k_keeps_the_largest_entries_bit_exactly(values in weights(), keep_pct in 1u32..101) {
        let ratio = f64::from(keep_pct) / 100.0;
        let sparsifier = Sparsifier::top_k(ratio).unwrap();
        let stream = sparsifier.compress(&values).unwrap();
        let restored = Sparsifier::decompress(&stream).unwrap();
        prop_assert_eq!(restored.len(), values.len());

        let expected_kept = ((ratio * values.len() as f64).ceil() as usize).min(values.len());
        let mut kept_min = f32::INFINITY;
        let mut dropped_max = 0.0f32;
        let mut kept = 0usize;
        for (orig, back) in values.iter().zip(&restored) {
            if *back != 0.0 || (*orig == 0.0 && expected_kept == values.len()) {
                // Survivors are bit-exact (compare bits, not floats,
                // so -0.0 vs 0.0 drift would be caught too).
                prop_assert_eq!(orig.to_bits(), back.to_bits());
            }
            if *back != 0.0 {
                kept += 1;
                kept_min = kept_min.min(orig.abs());
            } else {
                dropped_max = dropped_max.max(orig.abs());
            }
        }
        // Zeros among the top-K decode as zeros, so `kept` undercounts
        // exactly when original zeros were selected — never overcounts.
        prop_assert!(kept <= expected_kept, "{kept} > {expected_kept}");
        if kept == expected_kept {
            prop_assert!(kept_min >= dropped_max,
                "kept |{kept_min}| < dropped |{dropped_max}|");
        }
    }

    /// The linear quantizer's error is at most half a step of the
    /// value range it encodes, for both widths.
    #[test]
    fn linear_quantizer_error_is_within_half_a_step(values in weights(), wide in 0u8..2) {
        let bits = if wide == 1 { 8 } else { 4 };
        let quantizer = Quantizer::new(bits, false).unwrap();
        let stream = quantizer.compress(&values, 0).unwrap();
        let restored = Quantizer::decompress(&stream).unwrap();
        prop_assert_eq!(restored.len(), values.len());

        let min = values.iter().copied().fold(f32::INFINITY, f32::min);
        let max = values.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let levels = (1u32 << bits) - 1;
        let step = (max - min) / levels as f32;
        let tolerance = step / 2.0 + step * 1e-4 + 1e-7;
        for (orig, back) in values.iter().zip(&restored) {
            prop_assert!((orig - back).abs() <= tolerance,
                "{bits}-bit: |{orig} - {back}| > {tolerance}");
        }
    }

    /// The stochastic quantizer is deterministic per seed and unbiased
    /// across seeds: a value sitting exactly between two code points
    /// decodes to their average, not systematically to one side (the
    /// deterministic rounder would be half a step off here).
    #[test]
    fn stochastic_quantizer_is_seeded_and_unbiased(offset in 0u32..254, wide in 0u8..2) {
        let bits = if wide == 1 { 8u8 } else { 4 };
        let levels = (1u32 << bits) - 1;
        let step = 2.0f32 / levels as f32;
        let target = -1.0 + ((offset % levels) as f32 + 0.5) * step;
        // Anchor entries pin the [-1, 1] range; the rest all hold the
        // midpoint value whose rounding direction is a coin flip.
        let n = 512usize;
        let mut values = vec![target; n];
        values[0] = -1.0;
        values[1] = 1.0;

        let quantizer = Quantizer::new(bits, true).unwrap();
        // Same seed, same bytes: the dither is pseudo-random, not fresh
        // entropy, so multi-process runs stay reproducible.
        prop_assert_eq!(
            quantizer.compress(&values, 7).unwrap(),
            quantizer.compress(&values, 7).unwrap()
        );

        let mut sum = 0.0f64;
        let mut samples = 0usize;
        for seed in 0..8u64 {
            let restored =
                Quantizer::decompress(&quantizer.compress(&values, seed).unwrap()).unwrap();
            for &back in &restored[2..] {
                sum += f64::from(back);
                samples += 1;
            }
        }
        let mean = sum / samples as f64;
        // 4096 coin flips put the mean's std at ~step/128; a quarter
        // step cleanly separates unbiased from deterministic rounding.
        prop_assert!((mean - f64::from(target)).abs() < f64::from(step) / 4.0,
            "{bits}-bit mean {mean} vs target {target} (step {step})");
    }

    /// Error feedback conserves mass: across 5 rounds of arbitrary
    /// updates, the sum of applied (decoded) deltas plus the residual
    /// still in flight equals the sum of raw deltas — nothing the
    /// codec dropped is ever lost, for sparse and quantized families.
    #[test]
    fn error_feedback_conserves_update_mass(values in weights(), round_scale in 1u32..5) {
        let reference = {
            let mut zero = dict_of(&values);
            for (_, tensor) in zero.iter_mut() {
                tensor.data_mut().fill(0.0);
            }
            zero
        };
        for codec in [
            FamilyCodec::top_k(0.25).unwrap(),
            FamilyCodec::quant(8, false).unwrap(),
            FamilyCodec::quant(4, true).unwrap(),
        ] {
            let mut residual = fedsz_fl::codec::zero_residual(&reference);
            let mut raw_sum = vec![0.0f64; values.len()];
            let mut applied_sum = vec![0.0f64; values.len()];
            for round in 0..5u64 {
                // Vary the update per round (scaled + sign-flipped).
                let scale = round_scale as f32 * if round % 2 == 0 { 1.0 } else { -0.5 };
                let update: Vec<f32> = values.iter().map(|v| v * scale).collect();
                for (acc, v) in raw_sum.iter_mut().zip(&update) {
                    *acc += f64::from(*v);
                }
                let stream = codec
                    .encode_delta(&dict_of(&update), &reference, Some(&mut residual), round)
                    .unwrap();
                let applied = FamilyCodec::decode_delta(&stream, &reference).unwrap();
                let flat: Vec<f32> =
                    applied.iter().flat_map(|(_, t)| t.data().iter().copied()).collect();
                for (acc, v) in applied_sum.iter_mut().zip(&flat) {
                    *acc += f64::from(*v);
                }
            }
            let residual_flat: Vec<f32> =
                residual.iter().flat_map(|(_, t)| t.data().iter().copied()).collect();
            let magnitude: f64 =
                raw_sum.iter().map(|v| v.abs()).fold(0.0f64, f64::max).max(1.0);
            for ((raw, applied), res) in
                raw_sum.iter().zip(&applied_sum).zip(&residual_flat)
            {
                let drift = (raw - (applied + f64::from(*res))).abs();
                prop_assert!(drift <= magnitude * 1e-4,
                    "mass leak {drift} (raw {raw}, applied {applied}, residual {res})");
            }
        }
    }
}

/// EF is typed-rejected where its per-client state cannot live: on
/// socket workers, a reconnect silently drops the residual.
#[test]
fn error_feedback_is_rejected_where_state_cannot_live() {
    let mut config = FlConfig::smoke_test();
    config.uplink =
        StagePolicy::Family { codec: FamilyCodec::top_k(0.1).unwrap(), error_feedback: true };
    let plan = config.plan().expect("EF + synchronous simulation is legal");
    assert_eq!(plan.validate_for_workers().unwrap_err(), PlanError::StatefulUplinkWorker);
}

/// A TOML run spec with an unknown codec key (or a bogus uplink value)
/// is a hard error — silently ignoring either would run a different
/// experiment than the one the spec describes.
#[test]
fn toml_specs_reject_unknown_codec_keys_and_bogus_uplinks() {
    let dir = std::env::temp_dir();
    let run = |name: &str, body: &str| {
        let path = dir.join(name);
        std::fs::write(&path, body).unwrap();
        let args: Vec<String> =
            ["fl", "--config", path.to_str().unwrap()].iter().map(|s| s.to_string()).collect();
        let out = fedsz_cli::run(&args);
        std::fs::remove_file(&path).unwrap();
        out
    };

    let out = run("codec_family_unknown_key.toml", "clients = 2\nuplink-codec = \"topk\"\n");
    assert_ne!(out.code, 0);
    assert!(out.report.contains("unknown key"), "{}", out.report);

    let out = run("codec_family_bogus_uplink.toml", "clients = 2\nuplink = \"bogus\"\n");
    assert_ne!(out.code, 0);
    assert!(out.report.contains("unknown uplink codec"), "{}", out.report);

    // The legal spelling drives a real (tiny) run end to end.
    let out = run(
        "codec_family_good_uplink.toml",
        "clients = 2\nrounds = 1\ntrain-per-class = 2\nuplink = \"topk:0.5\"\n",
    );
    assert_eq!(out.code, 0, "{}", out.report);
}
