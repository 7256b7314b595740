//! Integration tests for the reproduction's extension features:
//! non-IID federated training, the Eqn 1 crossover, delta encoding and
//! the Laplace mechanism.

use fedsz::timing::{mbps, TransferPlan};
use fedsz::{FedSz, FedSzConfig};
use fedsz_data::DatasetKind;
use fedsz_dp::{analyze_noise, equivalent_epsilon, error_vector, laplace_mechanism};
use fedsz_fl::{Experiment, FlConfig};
use fedsz_nn::models::specs::ModelSpec;
use fedsz_nn::models::tiny::TinyArch;

#[test]
fn non_iid_training_with_weighted_aggregation_learns() {
    let mut config = FlConfig::paper_default(TinyArch::AlexNet, DatasetKind::Cifar10Like);
    config.rounds = 6;
    config.non_iid_alpha = Some(0.3);
    config.weighted_aggregation = true;
    config.data.train_per_class = 12;
    let metrics = Experiment::new(config).run();
    let best = metrics.iter().map(|m| m.test_accuracy).fold(0.0f64, f64::max);
    assert!(best > 0.15, "non-IID run stuck at {best:.3}");
}

#[test]
fn non_iid_shards_are_skewed_but_cover_all_data() {
    let (train, _) = DatasetKind::Cifar10Like.generate(&Default::default());
    let shards = train.shard_dirichlet(4, 0.1, 3);
    assert_eq!(shards.iter().map(|s| s.len()).sum::<usize>(), train.len());
    // At alpha 0.1 at least one client should be visibly specialized.
    let max_share = shards
        .iter()
        .map(|s| {
            let h = s.label_histogram();
            *h.iter().max().unwrap() as f64 / s.len() as f64
        })
        .fold(0.0f64, f64::max);
    assert!(max_share > 0.35, "expected label skew, max share {max_share:.2}");
}

#[test]
fn advisor_agrees_with_figure8_crossover() {
    // Eqn 1 over costs measured on a prefix sample and rescaled to the
    // full model, exactly as `examples/bandwidth_planner.rs` does.
    let spec = ModelSpec::alexnet();
    let sample = spec.instantiate_scaled(3, 0.02);
    let inflate = spec.byte_size() as f64 / sample.byte_size() as f64;
    let fedsz = FedSz::default(); // SZ2 at REL 1e-2
    let t0 = std::time::Instant::now();
    let packed = fedsz.compress(&sample).unwrap();
    let compress_secs = t0.elapsed().as_secs_f64() * inflate;
    let t1 = std::time::Instant::now();
    fedsz.decompress(packed.bytes()).unwrap();
    let plan = TransferPlan {
        compress_secs,
        decompress_secs: t1.elapsed().as_secs_f64() * inflate,
        original_bytes: spec.byte_size(),
        compressed_bytes: (packed.bytes().len() as f64 * inflate) as usize,
    };
    // Well below break-even: compress. Far above: send raw.
    assert!(plan.worthwhile(mbps(10.0)));
    assert!(!plan.worthwhile(mbps(1e6)));
}

#[test]
fn delta_encoding_survives_fl_style_round_trip() {
    // Simulate two FL rounds: server tracks reference, client ships deltas.
    let reference = ModelSpec::mobilenet_v2().instantiate_scaled(5, 0.02);
    let fedsz = FedSz::new(FedSzConfig::default());
    // Round 1 update: reference with a small uniform drift on weights.
    let update: fedsz_nn::StateDict = reference
        .iter()
        .map(|(n, t)| {
            let mut t = t.clone();
            let bump = if n.contains("weight") { 1e-3 } else { 0.0 };
            t.map_inplace(|v| v + bump);
            (n.to_owned(), t)
        })
        .collect();
    let packed = fedsz.compress_delta(&update, &reference).unwrap();
    let restored = fedsz.decompress_delta(packed.bytes(), &reference).unwrap();
    assert_eq!(restored.len(), update.len());
    for (name, tensor) in update.iter() {
        let err =
            fedsz_codec::stats::max_abs_error(tensor.data(), restored.get(name).unwrap().data());
        assert!(err <= 1e-3, "{name}: {err}");
    }
}

#[test]
fn compression_noise_vs_laplace_mechanism_comparison() {
    // The future-work question: how does FedSZ's implicit noise compare
    // with explicit DP noise at matched epsilon?
    let dict = ModelSpec::mobilenet_v2().instantiate_scaled(9, 0.02);
    let fedsz = FedSz::default();
    let packed = fedsz.compress(&dict).unwrap();
    let restored = fedsz.decompress(packed.bytes()).unwrap();
    let mut errors = Vec::new();
    for (name, tensor) in dict.iter() {
        if fedsz::partition::is_lossy(name, tensor.len(), 1000) {
            errors.extend(error_vector(tensor.data(), restored.get(name).unwrap().data()));
        }
    }
    let eps = equivalent_epsilon(&errors, 1.0);
    assert!(eps.is_finite() && eps > 0.0);
    // Now add explicit mechanism noise at that epsilon and check scale.
    let mut synthetic = vec![0.0f32; errors.len()];
    laplace_mechanism(&mut synthetic, 1.0, eps, 11);
    let implicit = analyze_noise(&errors);
    let explicit = analyze_noise(&synthetic);
    let ratio = implicit.laplace.scale / explicit.laplace.scale;
    assert!((0.5..2.0).contains(&ratio), "matched-epsilon noise scales should agree: {ratio:.2}");
}
