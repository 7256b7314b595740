//! Optimizers.

use crate::layers::Param;
use fedsz_tensor::Tensor;

/// Stochastic gradient descent with momentum and weight decay, matching
/// PyTorch's `torch.optim.SGD` update rule.
///
/// # Examples
///
/// ```
/// use fedsz_nn::optim::Sgd;
/// use fedsz_nn::Param;
/// use fedsz_tensor::Tensor;
///
/// let mut p = Param::new(Tensor::filled(vec![1], 1.0));
/// p.grad = Tensor::filled(vec![1], 0.5);
/// let mut sgd = Sgd::new(0.1, 0.0, 0.0);
/// sgd.step(&mut [&mut p]);
/// assert!((p.value.data()[0] - 0.95).abs() < 1e-6);
/// ```
#[derive(Debug)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Creates the optimizer.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not positive and finite.
    pub fn new(lr: f32, momentum: f32, weight_decay: f32) -> Self {
        assert!(lr.is_finite() && lr > 0.0, "learning rate must be positive");
        Self { lr, momentum, weight_decay, velocity: Vec::new() }
    }

    /// Applies one update to `params`. The slice must present parameters
    /// in a stable order across calls (momentum buffers are positional).
    pub fn step(&mut self, params: &mut [&mut Param]) {
        if self.velocity.len() != params.len() {
            self.velocity =
                params.iter().map(|p| Tensor::zeros(p.value.shape().to_vec())).collect();
        }
        for (param, vel) in params.iter_mut().zip(&mut self.velocity) {
            let n = param.value.len();
            let v = vel.data_mut();
            let g = param.grad.data();
            let w = param.value.data_mut();
            for i in 0..n {
                let grad = g[i] + self.weight_decay * w[i];
                v[i] = self.momentum * v[i] + grad;
                w[i] -= self.lr * v[i];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn param(vals: &[f32], grads: &[f32]) -> Param {
        let mut p = Param::new(Tensor::from_vec(vec![vals.len()], vals.to_vec()));
        p.grad = Tensor::from_vec(vec![grads.len()], grads.to_vec());
        p
    }

    #[test]
    fn plain_sgd_descends() {
        let mut p = param(&[1.0, -1.0], &[1.0, -1.0]);
        let mut sgd = Sgd::new(0.5, 0.0, 0.0);
        sgd.step(&mut [&mut p]);
        assert_eq!(p.value.data(), &[0.5, -0.5]);
    }

    #[test]
    fn momentum_accumulates() {
        let mut p = param(&[0.0], &[1.0]);
        let mut sgd = Sgd::new(1.0, 0.9, 0.0);
        sgd.step(&mut [&mut p]); // v = 1, w = -1
        assert_eq!(p.value.data(), &[-1.0]);
        p.grad = Tensor::from_vec(vec![1], vec![1.0]);
        sgd.step(&mut [&mut p]); // v = 1.9, w = -2.9
        assert!((p.value.data()[0] + 2.9).abs() < 1e-6);
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let mut p = param(&[10.0], &[0.0]);
        let mut sgd = Sgd::new(0.1, 0.0, 0.5);
        sgd.step(&mut [&mut p]);
        assert!((p.value.data()[0] - 9.5).abs() < 1e-6);
    }

    #[test]
    fn quadratic_converges() {
        // Minimize f(w) = 0.5 * w^2 by hand-fed gradients.
        let mut p = param(&[5.0], &[0.0]);
        let mut sgd = Sgd::new(0.2, 0.5, 0.0);
        for _ in 0..100 {
            p.grad = Tensor::from_vec(vec![1], vec![p.value.data()[0]]);
            sgd.step(&mut [&mut p]);
        }
        assert!(p.value.data()[0].abs() < 1e-3);
    }
}
