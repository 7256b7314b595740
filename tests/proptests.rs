//! Property-based tests over the workspace's core invariants.

use fedsz::{ErrorBound, FedSz, FedSzConfig, LossyKind};
use fedsz_codec::stats::{max_abs_error, value_range};
use fedsz_lossless::LosslessKind;
use fedsz_nn::StateDict;
use fedsz_tensor::Tensor;
use proptest::collection::vec;
use proptest::prelude::*;

/// Finite, reasonably-scaled floats (weight-like magnitudes).
fn weights() -> impl Strategy<Value = Vec<f32>> {
    vec(prop_oneof![(-1.0f32..1.0), (-100.0f32..100.0), Just(0.0f32)], 0..600)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lossless_codecs_round_trip_arbitrary_bytes(data in vec(any::<u8>(), 0..2048)) {
        for kind in LosslessKind::all() {
            let codec = kind.codec();
            let packed = codec.compress(&data);
            let restored = codec.decompress(&packed).unwrap();
            prop_assert_eq!(&restored, &data, "codec {}", kind);
        }
    }

    #[test]
    fn lossless_never_expands_much(data in vec(any::<u8>(), 0..4096)) {
        // The stored-frame fallback bounds expansion to a small header.
        for kind in LosslessKind::all() {
            let codec = kind.codec();
            let packed = codec.compress(&data);
            prop_assert!(packed.len() <= data.len() + 16, "codec {} expanded {} -> {}",
                kind, data.len(), packed.len());
        }
    }

    #[test]
    fn sz_family_respects_absolute_bounds(data in weights(), eb_exp in -5i32..0) {
        let eb = 10f64.powi(eb_exp);
        for kind in [LossyKind::Sz2, LossyKind::Sz3, LossyKind::Szx] {
            let codec = kind.codec();
            let packed = codec.compress(&data, ErrorBound::Absolute(eb)).unwrap();
            let restored = codec.decompress(&packed).unwrap();
            prop_assert_eq!(restored.len(), data.len());
            if !data.is_empty() {
                let err = f64::from(max_abs_error(&data, &restored));
                prop_assert!(err <= eb * (1.0 + 1e-5), "{}: {} > {}", kind, err, eb);
            }
        }
    }

    #[test]
    fn zfp_fixed_accuracy_respects_bounds(data in weights(), eb_exp in -4i32..0) {
        let eb = 10f64.powi(eb_exp);
        let codec = LossyKind::Zfp.codec();
        let packed = codec.compress(&data, ErrorBound::Absolute(eb)).unwrap();
        let restored = codec.decompress(&packed).unwrap();
        prop_assert_eq!(restored.len(), data.len());
        if !data.is_empty() {
            let err = f64::from(max_abs_error(&data, &restored));
            prop_assert!(err <= eb * (1.0 + 1e-5), "{} > {}", err, eb);
        }
    }

    #[test]
    fn relative_bounds_scale_with_value_range(data in weights(), rel_exp in -4i32..-1) {
        prop_assume!(data.len() > 1);
        let rel = 10f64.powi(rel_exp);
        let span = match value_range(&data) {
            Some(r) => f64::from(r.span()),
            None => return Ok(()),
        };
        let codec = LossyKind::Sz2.codec();
        let packed = codec.compress(&data, ErrorBound::Relative(rel)).unwrap();
        let restored = codec.decompress(&packed).unwrap();
        let err = f64::from(max_abs_error(&data, &restored));
        let eps = (rel * span).max(1e-30);
        prop_assert!(err <= eps * (1.0 + 1e-5), "{} > {}", err, eps);
    }

    #[test]
    fn state_dict_wire_format_round_trips(
        entries in vec(("[a-z]{1,8}(\\.(weight|bias|running_mean))?", vec(-10f32..10.0, 0..64)), 0..12)
    ) {
        let mut dict = StateDict::new();
        for (name, values) in entries {
            let n = values.len();
            dict.insert(name, Tensor::from_vec(vec![n], values));
        }
        let revived = StateDict::from_bytes(&dict.to_bytes()).unwrap();
        prop_assert_eq!(revived, dict);
    }

    #[test]
    fn pipeline_round_trips_synthetic_dicts(
        big in vec(-1f32..1.0, 1100..1400),
        small in vec(-1f32..1.0, 1..32),
        eb_exp in -4i32..-1,
    ) {
        let mut dict = StateDict::new();
        let nb = big.len();
        let ns = small.len();
        dict.insert("layer.weight", Tensor::from_vec(vec![nb], big.clone()));
        dict.insert("layer.bias", Tensor::from_vec(vec![ns], small.clone()));
        let fedsz = FedSz::new(
            FedSzConfig::default().with_error_bound(ErrorBound::Relative(10f64.powi(eb_exp))),
        );
        let packed = fedsz.compress(&dict).unwrap();
        let restored = fedsz.decompress(packed.bytes()).unwrap();
        // Bias partition is bit-exact; weight partition bounded.
        prop_assert_eq!(restored.get("layer.bias").unwrap().data(), &small[..]);
        let span = f64::from(value_range(&big).unwrap().span());
        let err = f64::from(max_abs_error(&big, restored.get("layer.weight").unwrap().data()));
        let eps = (10f64.powi(eb_exp) * span).max(1e-30);
        prop_assert!(err <= eps * (1.0 + 1e-5));
    }

    #[test]
    fn fedavg_of_identical_updates_is_identity(values in vec(-5f32..5.0, 1..128), copies in 1usize..5) {
        let mut dict = StateDict::new();
        let n = values.len();
        dict.insert("w.weight", Tensor::from_vec(vec![n], values));
        let mut sum = fedsz_fl::agg::PartialSum::new();
        for _ in 0..copies {
            sum.accumulate(&dict, 1.0);
        }
        let avg = sum.finish().unwrap();
        let got = avg.get("w.weight").unwrap().data();
        let want = dict.get("w.weight").unwrap().data();
        for (a, b) in got.iter().zip(want) {
            prop_assert!((a - b).abs() <= 1e-5);
        }
    }

    #[test]
    fn huffman_round_trips_any_symbol_stream(symbols in vec(0u16..2000, 0..1500)) {
        let block = fedsz_codec::huffman::encode_block(&symbols);
        let mut pos = 0;
        let decoded = fedsz_codec::huffman::decode_block(&block, &mut pos).unwrap();
        prop_assert_eq!(decoded, symbols);
    }

    #[test]
    fn range_coder_round_trips_any_bitstream(bits in vec(any::<bool>(), 0..4000)) {
        use fedsz_codec::range::{BitModel, RangeDecoder, RangeEncoder};
        let mut model = BitModel::new();
        let mut enc = RangeEncoder::new();
        for &b in &bits {
            enc.encode_bit(&mut model, b);
        }
        let bytes = enc.finish();
        let mut model = BitModel::new();
        let mut dec = RangeDecoder::new(&bytes).unwrap();
        for &b in &bits {
            prop_assert_eq!(dec.decode_bit(&mut model).unwrap(), b);
        }
    }

    #[test]
    fn batched_add_slice_is_bit_identical_to_scalar_adds(
        values in vec(
            prop_oneof![
                (-1.0f32..1.0),
                (-100.0f32..100.0),
                Just(0.0f32),
                Just(-0.0f32),
                // Subnormal f32 inputs (positive and negative).
                (1u32..0x0080_0000).prop_map(f32::from_bits),
                (1u32..0x0080_0000).prop_map(|b| f32::from_bits(b | 0x8000_0000)),
                // Large magnitudes whose weighted product still clears
                // the 2^47 ceiling with room to spare.
                (-1.0e9f32..1.0e9),
            ],
            0..400,
        ),
        weights in vec(prop_oneof![(1.0e-6f64..1.0), (0.5f64..1.0e3)], 1..4),
    ) {
        use fedsz_fl::agg::ExactAcc;
        let mut batched = vec![ExactAcc::default(); values.len()];
        let mut scalar = vec![ExactAcc::default(); values.len()];
        // Several accumulation passes, so the fast path also runs over
        // non-zero accumulator state.
        for &w in &weights {
            ExactAcc::add_slice(&mut batched, &values, w);
            for (acc, &v) in scalar.iter_mut().zip(&values) {
                acc.add(w * f64::from(v));
            }
        }
        for (i, (b, s)) in batched.iter().zip(&scalar).enumerate() {
            prop_assert_eq!(
                b.to_bits(), s.to_bits(),
                "kernel diverged at element {} (value {:e})", i, values[i]
            );
        }
    }

    #[test]
    fn tree_merge_parity_holds_at_every_thread_width(
        clients in 4usize..32,
        threads in 1usize..=8,
        seed in any::<u64>(),
    ) {
        use fedsz_fl::agg::{PsumMode, ShardedTree, TreePlan};

        // Small deterministic per-client updates (splitmix64 keyed by
        // the client id).
        let make = move |client: usize| {
            let mut state = seed ^ (client as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut next = move || {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            let mut dict = StateDict::new();
            let data: Vec<f32> =
                (0..24).map(|_| next() as f32 / u64::MAX as f32 - 0.5).collect();
            dict.insert("w.weight", Tensor::from_vec(vec![24], data));
            dict.insert("w.bias", Tensor::from_vec(vec![2], vec![
                next() as f32 / u64::MAX as f32,
                next() as f32 / u64::MAX as f32,
            ]));
            (dict, 1.0 + (client % 5) as f64)
        };

        let streamed_global = |threads: usize| {
            ShardedTree::new(TreePlan::new(clients, vec![2, 2]), None, PsumMode::Raw)
                .with_threads(threads)
                .aggregate_streamed_with(0, || None, |client, slot: &mut Option<StateDict>| {
                    let (dict, weight) = make(client);
                    (&*slot.insert(dict), weight)
                })
                .expect("non-empty cohort")
                .global
        };
        let serial_global = streamed_global(1);
        let pooled_global = streamed_global(threads);
        prop_assert_eq!(
            pooled_global.to_bytes(), serial_global.to_bytes(),
            "aggregation bits depend on the worker-pool width {}", threads
        );
    }
}
