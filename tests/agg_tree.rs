//! Integration tests for the sharded aggregation subsystem: the
//! bit-parity guarantee (sharded tree == flat synchronous FedAvg for
//! any shard count) and the downlink stage's error-bound contract.

use fedsz::{ErrorBound, FedSzConfig};
use fedsz_fl::agg::PartialSum;
use fedsz_fl::engine::RoundEngine;
use fedsz_fl::{FlConfig, StagePolicy};
use fedsz_lossless::PsumCodec;
use fedsz_nn::StateDict;
use fedsz_tensor::Tensor;
use proptest::collection::vec;
use proptest::prelude::*;

fn parity_config() -> FlConfig {
    let mut config = FlConfig::smoke_test();
    config.clients = 16;
    config.rounds = 2;
    config.data.train_per_class = 2;
    config.data.test_per_class = 2;
    config
}

/// The acceptance property of the subsystem: for shards ∈ {1, 2, 7,
/// 16}, the post-round global model is bit-identical to the flat
/// synchronous FedAvg result for the same seed — splitting the cohort
/// across edge aggregators must not move a single bit.
#[test]
fn sharded_tree_is_bit_identical_to_flat_fedavg() {
    let config = parity_config();
    let mut flat = RoundEngine::new(config.clone());
    let mut flat_rounds: Vec<Vec<u8>> = Vec::new();
    for round in 0..config.rounds {
        flat.run_round(round);
        flat_rounds.push(flat.global_state().to_bytes());
    }
    for shards in [1usize, 2, 7, 16] {
        let mut sharded_config = config.clone();
        sharded_config.tree = Some(vec![shards]);
        let mut tree = RoundEngine::new(sharded_config);
        for (round, flat_bytes) in flat_rounds.iter().enumerate() {
            tree.run_round(round);
            assert_eq!(
                &tree.global_state().to_bytes(),
                flat_bytes,
                "{shards} shards diverged from flat FedAvg at round {round}"
            );
        }
    }
}

/// Deep trees inherit the bit-parity guarantee: depths 3 and 4 with
/// uneven fan-outs, a cohort the leaf count does not divide (16
/// clients over 6 or 12 leaves), and more leaves than clients — all
/// with lossless partial-sum frames on, which must not move a bit
/// either.
#[test]
fn deep_trees_are_bit_identical_to_flat_fedavg() {
    let config = parity_config();
    let mut flat = RoundEngine::new(config.clone());
    let mut flat_rounds: Vec<Vec<u8>> = Vec::new();
    for round in 0..config.rounds {
        flat.run_round(round);
        flat_rounds.push(flat.global_state().to_bytes());
    }
    for fanouts in [vec![2, 3], vec![3, 4], vec![2, 2, 3], vec![3, 2, 4]] {
        let mut deep_config = config.clone();
        deep_config.tree = Some(fanouts.clone());
        deep_config.psum = StagePolicy::Lossless;
        let mut tree = RoundEngine::new(deep_config);
        for (round, flat_bytes) in flat_rounds.iter().enumerate() {
            tree.run_round(round);
            assert_eq!(
                &tree.global_state().to_bytes(),
                flat_bytes,
                "depth-{} tree {fanouts:?} diverged from flat FedAvg at round {round}",
                fanouts.len() + 1
            );
        }
    }
}

/// Parity must also survive the harder configurations: weighted
/// non-IID aggregation with partial participation, downlink-encoded
/// broadcasts, and Eqn-1 adaptive compression of the partial-sum
/// frames on the inter-aggregator wire.
#[test]
fn sharded_parity_holds_with_weighting_downlink_and_wire() {
    let mut config = parity_config();
    config.clients = 8;
    config.participation = 0.75;
    config.non_iid_alpha = Some(0.5);
    config.weighted_aggregation = true;
    config.downlink = StagePolicy::Lossy(FlConfig::tiny_model_compression());
    let mut flat = RoundEngine::new(config.clone());
    let mut sharded_config = config.clone();
    sharded_config.tree = Some(vec![3]);
    sharded_config.psum = StagePolicy::Priced { candidates: vec![StagePolicy::Lossless] };
    let mut tree = RoundEngine::new(sharded_config);
    for round in 0..config.rounds {
        flat.run_round(round);
        tree.run_round(round);
        assert_eq!(
            tree.global_state().to_bytes(),
            flat.global_state().to_bytes(),
            "sharded tree diverged at round {round}"
        );
    }
}

/// Sharding reshapes the server side only: with a 16-client cohort on
/// 4 edges, root ingress must drop well below the flat server's while
/// the learning outcome is untouched (bit-parity covers that).
///
/// A partial-sum frame carries `f64` sums — twice a raw `f32` upload
/// per element — so the fan-in must exceed 2x for the tree to win
/// (and `2 · ratio` against FedSZ-compressed uploads; the 10^3-client
/// scale bench is where that crossover is demonstrated). This test
/// pins the raw-upload case at fan-in 4.
#[test]
fn sharded_tree_cuts_root_ingress() {
    let mut config = parity_config();
    config.rounds = 1;
    config.uplink = StagePolicy::Raw;
    let mut flat = RoundEngine::new(config.clone());
    let flat_metrics = flat.run_round(0);
    config.tree = Some(vec![4]);
    let mut tree = RoundEngine::new(config);
    let tree_metrics = tree.run_round(0);
    assert_eq!(flat_metrics.root_ingress_bytes, flat_metrics.upstream_bytes);
    assert!(
        tree_metrics.root_ingress_bytes * 3 < flat_metrics.root_ingress_bytes * 2,
        "4 partial-sum frames ({}) should undercut 16 raw uploads ({})",
        tree_metrics.root_ingress_bytes,
        flat_metrics.root_ingress_bytes
    );
}

/// Weight-like float vectors (finite, mixed magnitudes).
fn weights() -> impl Strategy<Value = Vec<f32>> {
    vec(prop_oneof![(-1.0f32..1.0), (-100.0f32..100.0), Just(0.0f32)], 130..400)
}

fn downlink_for(bound: ErrorBound) -> fedsz_fl::agg::Downlink {
    let codec = FedSzConfig { threshold: 128, error_bound: bound, ..FedSzConfig::default() };
    fedsz_fl::agg::Downlink::from_policy(&StagePolicy::Lossy(codec)).expect("legal on the downlink")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The lossless partial-sum codec's contract: the frame an edge
    /// ships decompresses to the exact `encode_payload` image — every
    /// `f64` bit pattern of the sums survives, so compressing frames
    /// can never break the tree's bit-parity with flat FedAvg.
    #[test]
    fn psum_frames_encode_decode_bit_exactly(
        data in weights(),
        weights in vec(0.25f64..50.0, 1..5),
    ) {
        let mut sum = PartialSum::new();
        for (i, w) in weights.iter().enumerate() {
            let mut dict = StateDict::new();
            let shifted: Vec<f32> = data.iter().map(|&v| v + i as f32 * 0.125).collect();
            dict.insert("enc.weight", Tensor::from_vec(vec![shifted.len()], shifted));
            sum.accumulate(&dict, *w);
        }
        let payload = sum.encode_payload();
        let codec = PsumCodec::new();
        let frame = codec.compress(&payload);
        let restored = codec.decompress(&frame).unwrap();
        prop_assert_eq!(&restored, &payload, "frame must round-trip bit-exactly");
    }

    /// The downlink contract: a broadcast round-trip respects the
    /// configured error bound element-wise on the lossy partition and
    /// is exact on the lossless partition.
    #[test]
    fn downlink_round_trips_respect_the_error_bound(
        data in weights(),
        eb_exp in -4i32..-1,
        relative in any::<bool>(),
    ) {
        let eb = 10f64.powi(eb_exp);
        let bound = if relative { ErrorBound::Relative(eb) } else { ErrorBound::Absolute(eb) };
        let mut global = StateDict::new();
        // Above the 128-element threshold and named "weight": lossy.
        global.insert("enc.weight", Tensor::from_vec(vec![data.len()], data.clone()));
        // Small / unnamed-weight tensors: lossless, must survive exactly.
        global.insert("enc.bias", Tensor::from_vec(vec![4], vec![0.5, -0.25, 3.0, 0.0]));

        let downlink = downlink_for(bound);
        let payload = downlink.encode(&global, None, 1);
        prop_assert!(payload.compressed);
        let restored = downlink.decode(&payload.bytes, payload.compressed).unwrap();

        let eps = bound.absolute_for(&data).expect("positive bound on non-empty data");
        let back = restored.get("enc.weight").unwrap().data();
        prop_assert_eq!(back.len(), data.len());
        for (i, (&a, &b)) in data.iter().zip(back).enumerate() {
            let err = f64::from(a - b).abs();
            prop_assert!(
                err <= eps * (1.0 + 1e-5),
                "element {} off by {:.3e} > bound {:.3e}", i, err, eps
            );
        }
        prop_assert_eq!(
            restored.get("enc.bias").unwrap().data(),
            global.get("enc.bias").unwrap().data(),
            "lossless partition must be exact"
        );
    }
}
