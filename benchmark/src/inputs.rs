//! Seeded inputs. One `--seed` drives every generator here, and the
//! program under test only ever sees what these functions return: the
//! same seed gives byte-identical inputs, another seed different ones.

use fedsz_data::DatasetKind;
use fedsz_fl::FlConfig;
use fedsz_nn::models::specs::ModelSpec;
use fedsz_nn::models::tiny::TinyArch;
use fedsz_nn::{Model, StateDict};

/// A splitmix64 stream keyed by `(seed, stream)`.
pub fn splitmix(seed: u64, stream: u64) -> impl FnMut() -> u64 {
    let mut state = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A copy of `base` with every element moved by a uniform step in
/// `±amplitude/2` — one round of local SGD's worth of drift, standing in
/// for a client update where no training runs.
pub fn perturbed(base: &StateDict, seed: u64, stream: u64, amplitude: f32) -> StateDict {
    let mut next = splitmix(seed, stream);
    let mut out = base.clone();
    for (_, tensor) in out.iter_mut() {
        for v in tensor.data_mut() {
            *v += (next() as f32 / u64::MAX as f32 - 0.5) * amplitude;
        }
    }
    out
}

/// The three paper-scale "trained-looking" states `codec_models` runs on
/// (24.4 + 14.2 + 25.6 = 64.2 MB of `f32`).
///
/// `instantiate` draws its heavy tail from `rng::laplace`, whose inverse
/// CDF returns ±inf when the uniform draw is exactly 0 — about once in
/// 2^24 draws, so a fair share of seeds carry one infinite weight (seed 5
/// of MobileNetV2 does) and `FedSz::compress` rightly refuses them. A
/// workload must not fail on its own inputs, so those weights become 0.
pub fn paper_models(seed: u64) -> Vec<(&'static str, StateDict)> {
    let finite = |mut model: StateDict| {
        for (_, tensor) in model.iter_mut() {
            for v in tensor.data_mut().iter_mut().filter(|v| !v.is_finite()) {
                *v = 0.0;
            }
        }
        model
    };
    vec![
        ("alexnet", finite(ModelSpec::alexnet().instantiate_scaled(seed, 0.1))),
        (
            "mobilenet_v2",
            finite(ModelSpec::mobilenet_v2().instantiate_scaled(seed.wrapping_add(1), 1.0)),
        ),
        ("resnet50", finite(ModelSpec::resnet50().instantiate_scaled(seed.wrapping_add(2), 0.25))),
    ]
}

/// The paper's main federated setting at two clients: the configuration
/// `fl_sim` trains, and the one whose architecture the aggregation and
/// socket workloads borrow their model shape from.
pub fn fl_config(seed: u64) -> FlConfig {
    let mut config = FlConfig::paper_default(TinyArch::AlexNet, DatasetKind::Cifar10Like);
    config.clients = 2;
    config.seed = seed;
    config.data.seed = seed;
    config.data.train_per_class = 40;
    config.data.test_per_class = 10;
    // `paper_default`'s 0.05 with momentum 0.9 diverges over the 13
    // batches an epoch has here: accuracy reaches 1.0 by round 2 and
    // falls to chance by round 20, with compression or without. A
    // workload whose ops fail measures nothing, so it trains at 0.01,
    // where every seed tried holds >= 0.98 for as long as it runs.
    config.lr = 0.01;
    config
}

/// The tiny-AlexNet state (72 042 elements) at its seeded initialisation.
pub fn tiny_state(seed: u64) -> StateDict {
    fl_config(seed).build_model().state_dict()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let base = tiny_state(3);
        assert_eq!(base.to_bytes(), tiny_state(3).to_bytes());
        assert_ne!(base.to_bytes(), tiny_state(4).to_bytes());
        let a = perturbed(&base, 3, 0, 0.01);
        assert_eq!(a.to_bytes(), perturbed(&base, 3, 0, 0.01).to_bytes());
        assert_ne!(a.to_bytes(), perturbed(&base, 3, 1, 0.01).to_bytes());
        assert_ne!(a.to_bytes(), perturbed(&base, 4, 0, 0.01).to_bytes());
        assert_eq!(base.total_elements(), 72_042);
    }
}
