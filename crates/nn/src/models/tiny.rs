//! Scaled-down trainable variants of the paper's three architectures.
//!
//! The paper trains AlexNet / MobileNetV2 / ResNet50 on an 8×A100
//! cluster; that substrate is unavailable here, so the FL training
//! experiments run these CPU-scale models instead. Each keeps the
//! architectural signature of its namesake — plain conv+pool stacks for
//! AlexNet, inverted residuals with depthwise convolutions and ReLU6 for
//! MobileNetV2, residual blocks with batch norm for ResNet — so the
//! compression/accuracy phenomena being studied (error-bound thresholds,
//! convergence behaviour) exercise the same code paths.

use crate::layers::{
    BatchNorm2d, Conv2d, Flatten, GlobalAvgPool, InvertedResidual, Layer, Linear, MaxPool2d, Param,
    ReLU, Residual, Sequential,
};
use crate::state_dict::StateDict;
use crate::{Model, NnError};
use fedsz_tensor::rng::seeded;
use fedsz_tensor::Tensor;

/// Identifies one of the tiny architectures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TinyArch {
    /// Conv + pool + MLP head (AlexNet style).
    AlexNet,
    /// Inverted residuals with depthwise convs (MobileNetV2 style).
    MobileNetV2,
    /// Residual blocks with batch norm (ResNet style).
    ResNet,
}

impl TinyArch {
    /// All three architectures in the paper's order.
    pub fn all() -> [TinyArch; 3] {
        [Self::ResNet, Self::MobileNetV2, Self::AlexNet]
    }

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Self::AlexNet => "AlexNet",
            Self::MobileNetV2 => "MobileNetV2",
            Self::ResNet => "ResNet50",
        }
    }

    /// Builds the model for the given input geometry.
    pub fn build(self, seed: u64, in_channels: usize, hw: usize, classes: usize) -> TinyModel {
        match self {
            Self::AlexNet => TinyModel::alexnet(seed, in_channels, hw, classes),
            Self::MobileNetV2 => TinyModel::mobilenet_v2(seed, in_channels, classes),
            Self::ResNet => TinyModel::resnet(seed, in_channels, classes),
        }
    }
}

impl std::fmt::Display for TinyArch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A trainable model built from named sections (PyTorch-style prefixes
/// such as `features.0.weight`).
pub struct TinyModel {
    sections: Vec<(&'static str, Sequential)>,
    arch: TinyArch,
}

impl TinyModel {
    /// AlexNet-style: two conv+pool stages and an MLP head.
    ///
    /// # Panics
    ///
    /// Panics unless `hw` is a multiple of 4 (two 2x2 pools).
    pub fn alexnet(seed: u64, in_channels: usize, hw: usize, classes: usize) -> Self {
        assert!(hw.is_multiple_of(4), "input side must be divisible by 4");
        let mut rng = seeded(seed);
        let features = Sequential::new()
            .push(Conv2d::new(&mut rng, in_channels, 16, 3, 1, 1, 1))
            .push(ReLU::new())
            .push(MaxPool2d::new())
            .push(Conv2d::new(&mut rng, 16, 32, 3, 1, 1, 1))
            .push(ReLU::new())
            .push(MaxPool2d::new());
        let flat = 32 * (hw / 4) * (hw / 4);
        let classifier = Sequential::new()
            .push(Flatten::new())
            .push(Linear::new(&mut rng, flat, 128))
            .push(ReLU::new())
            .push(Linear::new(&mut rng, 128, classes));
        Self {
            sections: vec![("features", features), ("classifier", classifier)],
            arch: TinyArch::AlexNet,
        }
    }

    /// MobileNetV2-style: stem + three inverted residuals + 1x1 head.
    pub fn mobilenet_v2(seed: u64, in_channels: usize, classes: usize) -> Self {
        let mut rng = seeded(seed);
        let features = Sequential::new()
            .push(Conv2d::new(&mut rng, in_channels, 8, 3, 1, 1, 1))
            .push(BatchNorm2d::new(8))
            .push(ReLU::relu6())
            .push(InvertedResidual::new(&mut rng, 8, 16, 2, 2))
            .push(InvertedResidual::new(&mut rng, 16, 16, 1, 2))
            .push(InvertedResidual::new(&mut rng, 16, 24, 2, 2))
            .push(Conv2d::new(&mut rng, 24, 64, 1, 1, 0, 1))
            .push(BatchNorm2d::new(64))
            .push(ReLU::relu6())
            .push(GlobalAvgPool::new());
        let classifier = Sequential::new().push(Linear::new(&mut rng, 64, classes));
        Self {
            sections: vec![("features", features), ("classifier", classifier)],
            arch: TinyArch::MobileNetV2,
        }
    }

    /// ResNet-style: stem + two residual stages + linear head.
    pub fn resnet(seed: u64, in_channels: usize, classes: usize) -> Self {
        let mut rng = seeded(seed);
        let block1 = Residual::new(
            Sequential::new()
                .push(Conv2d::new(&mut rng, 16, 16, 3, 1, 1, 1))
                .push(BatchNorm2d::new(16))
                .push(ReLU::new())
                .push(Conv2d::new(&mut rng, 16, 16, 3, 1, 1, 1))
                .push(BatchNorm2d::new(16)),
            None,
        );
        let block2 = Residual::new(
            Sequential::new()
                .push(Conv2d::new(&mut rng, 16, 32, 3, 2, 1, 1))
                .push(BatchNorm2d::new(32))
                .push(ReLU::new())
                .push(Conv2d::new(&mut rng, 32, 32, 3, 1, 1, 1))
                .push(BatchNorm2d::new(32)),
            Some(
                Sequential::new()
                    .push(Conv2d::new(&mut rng, 16, 32, 1, 2, 0, 1))
                    .push(BatchNorm2d::new(32)),
            ),
        );
        let features = Sequential::new()
            .push(Conv2d::new(&mut rng, in_channels, 16, 3, 1, 1, 1))
            .push(BatchNorm2d::new(16))
            .push(ReLU::new())
            .push(block1)
            .push(block2)
            .push(GlobalAvgPool::new());
        let classifier = Sequential::new().push(Linear::new(&mut rng, 32, classes));
        Self {
            sections: vec![("features", features), ("classifier", classifier)],
            arch: TinyArch::ResNet,
        }
    }

    /// Which architecture family this model belongs to.
    pub fn arch(&self) -> TinyArch {
        self.arch
    }
}

impl Model for TinyModel {
    fn forward(&mut self, input: Tensor, train: bool) -> Tensor {
        self.sections.iter_mut().fold(input, |x, (_, s)| s.forward(x, train))
    }

    /// Nothing reads the gradient of the input batch, so the first
    /// section ends in [`Layer::backward_params`]: its first layer
    /// computes no `dx`.
    fn backward(&mut self, grad: Tensor) {
        if let Some(((_, first), rest)) = self.sections.split_first_mut() {
            first.backward_params(rest.iter_mut().rev().fold(grad, |g, (_, s)| s.backward(g)));
        }
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.sections.iter_mut().flat_map(|(_, s)| s.params_mut()).collect()
    }

    fn state_dict(&self) -> StateDict {
        let mut sd = StateDict::new();
        for (name, section) in &self.sections {
            section.collect_state(&format!("{name}."), &mut sd);
        }
        sd
    }

    fn load_state_dict(&mut self, dict: &StateDict) -> Result<(), NnError> {
        for (name, section) in &mut self.sections {
            section.load_state(&format!("{name}."), dict)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::softmax_cross_entropy;
    use crate::optim::Sgd;
    use fedsz_tensor::rng;

    #[test]
    fn all_archs_produce_logits() {
        for arch in TinyArch::all() {
            let mut model = arch.build(1, 3, 16, 10);
            let mut r = seeded(2);
            let x = rng::randn(&mut r, vec![2, 3, 16, 16], 1.0);
            let y = model.forward(x, false);
            assert_eq!(y.shape(), &[2, 10], "{arch}");
            assert!(y.data().iter().all(|v| v.is_finite()), "{arch}");
        }
    }

    #[test]
    fn single_channel_inputs_supported() {
        let mut model = TinyArch::MobileNetV2.build(1, 1, 16, 10);
        let mut r = seeded(3);
        let x = rng::randn(&mut r, vec![1, 1, 16, 16], 1.0);
        assert_eq!(model.forward(x, false).shape(), &[1, 10]);
    }

    #[test]
    fn state_dict_round_trips_exactly() {
        for arch in TinyArch::all() {
            let model = arch.build(5, 3, 16, 10);
            let sd = model.state_dict();
            let mut other = arch.build(99, 3, 16, 10);
            other.load_state_dict(&sd).unwrap();
            assert_eq!(other.state_dict(), sd, "{arch}");
        }
    }

    #[test]
    fn state_dicts_contain_weight_and_metadata_entries() {
        let model = TinyArch::ResNet.build(1, 3, 16, 10);
        let sd = model.state_dict();
        let names: Vec<&str> = sd.names().collect();
        assert!(names.iter().any(|n| n.contains("weight")));
        assert!(names.iter().any(|n| n.contains("running_mean")));
        assert!(names.iter().any(|n| n.contains("num_batches_tracked")));
    }

    #[test]
    fn one_sgd_step_reduces_loss_on_a_fixed_batch() {
        for arch in TinyArch::all() {
            let mut model = arch.build(11, 3, 16, 4);
            let mut r = seeded(13);
            let x = rng::randn(&mut r, vec![8, 3, 16, 16], 1.0);
            let targets: Vec<usize> = (0..8).map(|i| i % 4).collect();
            let mut sgd = Sgd::new(0.05, 0.9, 0.0);
            let logits = model.forward(x.clone(), true);
            let (loss0, grad) = softmax_cross_entropy(&logits, &targets);
            model.backward(grad);
            sgd.step(&mut model.params_mut());
            model.zero_grad();
            // Loss decreases over a few steps on the same batch.
            let mut loss = loss0;
            for _ in 0..5 {
                let logits = model.forward(x.clone(), true);
                let (l, grad) = softmax_cross_entropy(&logits, &targets);
                model.backward(grad);
                sgd.step(&mut model.params_mut());
                model.zero_grad();
                loss = l;
            }
            assert!(loss < loss0, "{arch}: loss {loss0:.4} -> {loss:.4} did not decrease");
        }
    }

    /// The input gradient is skipped where nobody reads it, and only
    /// there: one backward pass runs one `Conv2d` backward without `dx`,
    /// the last one, on `features.0`'s weights.
    #[test]
    fn only_features_0_skips_its_input_gradient() {
        use crate::layers::tests::CONV_BACKWARDS;
        for arch in TinyArch::all() {
            let mut model = arch.build(1, 3, 16, 10);
            let first = model.state_dict().get("features.0.weight").unwrap().shape().to_vec();
            let x = rng::randn(&mut seeded(2), vec![2, 3, 16, 16], 1.0);
            let logits = model.forward(x, true);
            CONV_BACKWARDS.with_borrow_mut(Vec::clear);
            model.backward(softmax_cross_entropy(&logits, &[0, 1]).1);
            let log = CONV_BACKWARDS.take();
            let (last, rest) = log.split_last().expect("a conv backward ran");
            assert_eq!(last, &(first, false), "{arch}");
            assert!(rest.iter().all(|(_, dx)| *dx), "{arch}: {rest:?}");
        }
    }

    #[test]
    fn loading_changes_predictions() {
        let mut a = TinyArch::AlexNet.build(1, 3, 16, 10);
        let b = TinyArch::AlexNet.build(2, 3, 16, 10);
        let mut r = seeded(17);
        let x = rng::randn(&mut r, vec![1, 3, 16, 16], 1.0);
        let before = a.forward(x.clone(), false);
        a.load_state_dict(&b.state_dict()).unwrap();
        let after = a.forward(x, false);
        assert_ne!(before.data(), after.data());
    }
}
