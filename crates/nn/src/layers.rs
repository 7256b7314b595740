//! Neural-network layers with forward and backward passes.
//!
//! Layout conventions follow PyTorch: activations are `[N, C, H, W]` (or
//! `[N, F]` after flattening), convolution weights are
//! `[C_out, C_in/groups, KH, KW]`, linear weights `[out, in]`. State-dict
//! names also follow PyTorch (`weight`, `bias`, `running_mean`,
//! `running_var`, `num_batches_tracked`), because FedSZ's partition rule
//! keys off the substring `"weight"` in those names (Algorithm 1).
//!
//! The arithmetic of a layer is part of its contract: the checksums in
//! `tests/plan.rs` pin trained weights bit for bit. `Conv2d` and
//! `MaxPool2d` run on the slice kernels of the private `kernels`
//! module, whose lanes run across channels and never across a
//! reduction — every sum keeps the order of the loop nest it replaced,
//! and an out-of-image tap is skipped, not multiplied by zero. An
//! optimisation that reorders one `f32` sum (a dot-product SIMD
//! reduction, a blocked GEMM that splits `K`) moves every golden; see
//! that module's comment before reaching for one.

use crate::kernels::{self, ConvShape};
use crate::state_dict::StateDict;
use crate::NnError;
use fedsz_tensor::rng;
use fedsz_tensor::Tensor;
use rand::rngs::StdRng;

/// A trainable tensor together with its gradient accumulator.
#[derive(Debug, Clone)]
pub struct Param {
    /// Current value.
    pub value: Tensor,
    /// Accumulated gradient (same shape as `value`).
    pub grad: Tensor,
}

impl Param {
    /// Wraps a tensor as a parameter with zeroed gradient.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape().to_vec());
        Self { value, grad }
    }

    /// Resets the gradient to zero.
    pub fn zero_grad(&mut self) {
        self.grad.map_inplace(|_| 0.0);
    }
}

/// A differentiable network layer.
pub trait Layer: Send {
    /// Computes the layer output. `train` enables caches needed by
    /// [`Layer::backward`] and batch-norm statistics updates.
    fn forward(&mut self, input: Tensor, train: bool) -> Tensor;

    /// Backpropagates `grad` (shaped like the last forward output),
    /// accumulating parameter gradients and returning the input gradient.
    ///
    /// # Panics
    ///
    /// Panics if called before a training-mode forward pass.
    fn backward(&mut self, grad: Tensor) -> Tensor;

    /// [`Layer::backward`] for a layer whose input gradient nobody
    /// reads — the network's first layer: accumulates the parameter
    /// gradients alone. A layer whose input gradient costs work of its
    /// own overrides this to skip that work; the parameter gradients
    /// must come out bit for bit as [`Layer::backward`]'s.
    ///
    /// # Panics
    ///
    /// Panics if called before a training-mode forward pass.
    fn backward_params(&mut self, grad: Tensor) {
        self.backward(grad);
    }

    /// Mutable access to this layer's parameters (empty by default).
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    /// Writes parameters and buffers into `out` under `prefix`.
    fn collect_state(&self, _prefix: &str, _out: &mut StateDict) {}

    /// Restores parameters and buffers from `dict` under `prefix`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError`] for missing or mis-shaped entries.
    fn load_state(&mut self, _prefix: &str, _dict: &StateDict) -> Result<(), NnError> {
        Ok(())
    }
}

/// Fetches `prefix + name` from a dict, validating the shape.
fn fetch(
    dict: &StateDict,
    prefix: &str,
    name: &str,
    expected: &[usize],
) -> Result<Tensor, NnError> {
    let full = format!("{prefix}{name}");
    let t = dict.get(&full).ok_or_else(|| NnError::MissingEntry(full.clone()))?;
    if t.shape() != expected {
        return Err(NnError::ShapeMismatch {
            name: full,
            expected: expected.to_vec(),
            found: t.shape().to_vec(),
        });
    }
    Ok(t.clone())
}

#[inline]
pub(crate) fn idx4(
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    ch: usize,
    hh: usize,
    ww: usize,
) -> usize {
    ((n * ch + c) * hh + h) * ww + w
}

/// 2D convolution with stride, zero padding and channel groups
/// (`groups == in_channels` gives a depthwise convolution).
pub struct Conv2d {
    weight: Param,
    bias: Param,
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    groups: usize,
    cache: Option<(Tensor, ConvShape)>,
}

impl Conv2d {
    /// Creates a Kaiming-initialized convolution.
    ///
    /// # Panics
    ///
    /// Panics if `kernel`, `stride` or a channel count is zero, or if
    /// the channel counts are not divisible by `groups`.
    pub fn new(
        rng: &mut StdRng,
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        groups: usize,
    ) -> Self {
        assert!(
            kernel >= 1 && stride >= 1 && in_channels >= 1 && out_channels >= 1,
            "conv {in_channels}->{out_channels} needs kernel >= 1 and stride >= 1, got kernel \
             {kernel}, stride {stride}"
        );
        assert!(
            groups >= 1
                && in_channels.is_multiple_of(groups)
                && out_channels.is_multiple_of(groups)
        );
        let fan_in = (in_channels / groups) * kernel * kernel;
        let weight =
            rng::kaiming(rng, vec![out_channels, in_channels / groups, kernel, kernel], fan_in);
        Self {
            weight: Param::new(weight),
            bias: Param::new(Tensor::zeros(vec![out_channels])),
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            groups,
            cache: None,
        }
    }

    /// The geometry of a call on an `[n, c, h, w]` input.
    ///
    /// # Panics
    ///
    /// Panics if the channel count is wrong or the padded input is
    /// smaller than the kernel.
    fn shape_for(&self, [n, c, h, w]: [usize; 4]) -> ConvShape {
        assert_eq!(c, self.in_channels, "channel mismatch");
        let (kernel, stride, padding) = (self.kernel, self.stride, self.padding);
        let out = |size: usize| match (size + 2 * padding).checked_sub(kernel) {
            Some(span) => span / stride + 1,
            None => panic!(
                "conv input {h}x{w} with padding {padding} is smaller than the \
                 {kernel}x{kernel} kernel"
            ),
        };
        let (oh, ow) = (out(h), out(w));
        ConvShape {
            n,
            c,
            h,
            w,
            oc: self.out_channels,
            oh,
            ow,
            kernel,
            stride,
            padding,
            groups: self.groups,
        }
    }

    /// Accumulates `dW` and `db` for `grad`, and appends `dx` to an
    /// empty buffer when given one.
    fn accumulate_grads(&mut self, grad: &Tensor, dx: Option<&mut Vec<f32>>) {
        let (input, s) = self.cache.take().expect("backward before forward");
        assert_eq!(grad.shape(), [s.n, s.oc, s.oh, s.ow], "gradient is not shaped like the output");
        #[cfg(test)]
        tests::CONV_BACKWARDS.with_borrow_mut(|log| {
            log.push((self.weight.value.shape().to_vec(), dx.is_some()));
        });
        kernels::conv_backward(
            &s,
            input.data(),
            self.weight.value.data(),
            grad.data(),
            self.weight.grad.data_mut(),
            self.bias.grad.data_mut(),
            dx,
        );
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: Tensor, train: bool) -> Tensor {
        let dims = input.shape().try_into().expect("conv input must be [N, C, H, W]");
        let s = self.shape_for(dims);
        let mut out = Tensor::zeros(vec![s.n, s.oc, s.oh, s.ow]);
        kernels::conv_forward(
            &s,
            input.data(),
            self.weight.value.data(),
            self.bias.value.data(),
            out.data_mut(),
        );
        if train {
            self.cache = Some((input, s));
        }
        out
    }

    fn backward(&mut self, grad: Tensor) -> Tensor {
        let s = self.cache.as_ref().expect("backward before forward").1;
        let mut dx = Vec::with_capacity(s.n * s.c * s.h * s.w);
        self.accumulate_grads(&grad, Some(&mut dx));
        Tensor::from_vec(vec![s.n, s.c, s.h, s.w], dx)
    }

    /// Skips `dx`: its axpys, its accumulator and its transposes.
    fn backward_params(&mut self, grad: Tensor) {
        self.accumulate_grads(&grad, None);
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn collect_state(&self, prefix: &str, out: &mut StateDict) {
        out.insert(format!("{prefix}weight"), self.weight.value.clone());
        out.insert(format!("{prefix}bias"), self.bias.value.clone());
    }

    fn load_state(&mut self, prefix: &str, dict: &StateDict) -> Result<(), NnError> {
        self.weight.value = fetch(dict, prefix, "weight", self.weight.value.shape())?;
        self.bias.value = fetch(dict, prefix, "bias", self.bias.value.shape())?;
        Ok(())
    }
}

/// Batch normalization over the channel dimension of `[N, C, H, W]`.
pub struct BatchNorm2d {
    weight: Param,
    bias: Param,
    running_mean: Tensor,
    running_var: Tensor,
    num_batches: u64,
    channels: usize,
    momentum: f32,
    eps: f32,
    cache: Option<BnCache>,
}

struct BnCache {
    x_hat: Tensor,
    inv_std: Vec<f32>,
    dims: [usize; 4],
}

impl BatchNorm2d {
    /// Creates a batch-norm layer with PyTorch defaults
    /// (`momentum = 0.1`, `eps = 1e-5`).
    pub fn new(channels: usize) -> Self {
        Self {
            weight: Param::new(Tensor::ones(vec![channels])),
            bias: Param::new(Tensor::zeros(vec![channels])),
            running_mean: Tensor::zeros(vec![channels]),
            running_var: Tensor::ones(vec![channels]),
            num_batches: 0,
            channels,
            momentum: 0.1,
            eps: 1e-5,
            cache: None,
        }
    }
}

impl Layer for BatchNorm2d {
    fn forward(&mut self, input: Tensor, train: bool) -> Tensor {
        let s = input.shape();
        assert_eq!(s.len(), 4, "batch norm input must be [N, C, H, W]");
        let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
        assert_eq!(c, self.channels);
        let m = (n * h * w) as f64;
        let x = input.data();
        let mut out = Tensor::zeros(vec![n, c, h, w]);
        if train {
            let mut mean = vec![0.0f64; c];
            let mut var = vec![0.0f64; c];
            for ni in 0..n {
                for ci in 0..c {
                    for hi in 0..h {
                        for wi in 0..w {
                            mean[ci] += f64::from(x[idx4(ni, ci, hi, wi, c, h, w)]);
                        }
                    }
                }
            }
            for v in &mut mean {
                *v /= m;
            }
            for ni in 0..n {
                for ci in 0..c {
                    for hi in 0..h {
                        for wi in 0..w {
                            let d = f64::from(x[idx4(ni, ci, hi, wi, c, h, w)]) - mean[ci];
                            var[ci] += d * d;
                        }
                    }
                }
            }
            for v in &mut var {
                *v /= m;
            }
            let mut x_hat = Tensor::zeros(vec![n, c, h, w]);
            let mut inv_std = vec![0.0f32; c];
            {
                let xh = x_hat.data_mut();
                let o = out.data_mut();
                let gamma = self.weight.value.data();
                let beta = self.bias.value.data();
                for ci in 0..c {
                    inv_std[ci] = (1.0 / (var[ci] + f64::from(self.eps)).sqrt()) as f32;
                }
                for ni in 0..n {
                    for ci in 0..c {
                        for hi in 0..h {
                            for wi in 0..w {
                                let i = idx4(ni, ci, hi, wi, c, h, w);
                                let xv = (f64::from(x[i]) - mean[ci]) as f32 * inv_std[ci];
                                xh[i] = xv;
                                o[i] = gamma[ci] * xv + beta[ci];
                            }
                        }
                    }
                }
            }
            // Update running stats with the unbiased variance, as PyTorch.
            let unbias = if m > 1.0 { m / (m - 1.0) } else { 1.0 };
            for ci in 0..c {
                let rm = self.running_mean.data_mut();
                rm[ci] = (1.0 - self.momentum) * rm[ci] + self.momentum * mean[ci] as f32;
                let rv = self.running_var.data_mut();
                rv[ci] = (1.0 - self.momentum) * rv[ci] + self.momentum * (var[ci] * unbias) as f32;
            }
            self.num_batches += 1;
            self.cache = Some(BnCache { x_hat, inv_std, dims: [n, c, h, w] });
        } else {
            let o = out.data_mut();
            let gamma = self.weight.value.data();
            let beta = self.bias.value.data();
            let rm = self.running_mean.data();
            let rv = self.running_var.data();
            for ni in 0..n {
                for ci in 0..c {
                    let inv = 1.0 / (rv[ci] + self.eps).sqrt();
                    for hi in 0..h {
                        for wi in 0..w {
                            let i = idx4(ni, ci, hi, wi, c, h, w);
                            o[i] = gamma[ci] * (x[i] - rm[ci]) * inv + beta[ci];
                        }
                    }
                }
            }
        }
        out
    }

    fn backward(&mut self, grad: Tensor) -> Tensor {
        let cache = self.cache.take().expect("backward before forward");
        let [n, c, h, w] = cache.dims;
        let m = (n * h * w) as f64;
        let dy = grad.data();
        let xh = cache.x_hat.data();
        let mut dgamma = vec![0.0f64; c];
        let mut dbeta = vec![0.0f64; c];
        for ni in 0..n {
            for ci in 0..c {
                for hi in 0..h {
                    for wi in 0..w {
                        let i = idx4(ni, ci, hi, wi, c, h, w);
                        dgamma[ci] += f64::from(dy[i]) * f64::from(xh[i]);
                        dbeta[ci] += f64::from(dy[i]);
                    }
                }
            }
        }
        {
            let gw = self.weight.grad.data_mut();
            let gb = self.bias.grad.data_mut();
            for ci in 0..c {
                gw[ci] += dgamma[ci] as f32;
                gb[ci] += dbeta[ci] as f32;
            }
        }
        let gamma = self.weight.value.data();
        let mut dx = Tensor::zeros(vec![n, c, h, w]);
        let dxd = dx.data_mut();
        for ni in 0..n {
            for ci in 0..c {
                let scale = f64::from(gamma[ci]) * f64::from(cache.inv_std[ci]) / m;
                for hi in 0..h {
                    for wi in 0..w {
                        let i = idx4(ni, ci, hi, wi, c, h, w);
                        dxd[i] = (scale
                            * (m * f64::from(dy[i]) - dbeta[ci] - f64::from(xh[i]) * dgamma[ci]))
                            as f32;
                    }
                }
            }
        }
        dx
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn collect_state(&self, prefix: &str, out: &mut StateDict) {
        out.insert(format!("{prefix}weight"), self.weight.value.clone());
        out.insert(format!("{prefix}bias"), self.bias.value.clone());
        out.insert(format!("{prefix}running_mean"), self.running_mean.clone());
        out.insert(format!("{prefix}running_var"), self.running_var.clone());
        out.insert(
            format!("{prefix}num_batches_tracked"),
            Tensor::filled(vec![], self.num_batches as f32),
        );
    }

    fn load_state(&mut self, prefix: &str, dict: &StateDict) -> Result<(), NnError> {
        self.weight.value = fetch(dict, prefix, "weight", &[self.channels])?;
        self.bias.value = fetch(dict, prefix, "bias", &[self.channels])?;
        self.running_mean = fetch(dict, prefix, "running_mean", &[self.channels])?;
        self.running_var = fetch(dict, prefix, "running_var", &[self.channels])?;
        let nb = fetch(dict, prefix, "num_batches_tracked", &[])?;
        self.num_batches = nb.data()[0] as u64;
        Ok(())
    }
}

/// Rectified linear unit, optionally capped at 6 (MobileNet's ReLU6).
pub struct ReLU {
    cap: Option<f32>,
    mask: Option<Vec<bool>>,
}

impl ReLU {
    /// Standard ReLU.
    pub fn new() -> Self {
        Self { cap: None, mask: None }
    }

    /// ReLU6 as used by MobileNetV2.
    pub fn relu6() -> Self {
        Self { cap: Some(6.0), mask: None }
    }
}

impl Default for ReLU {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for ReLU {
    /// One pass in training: each element's mask bit is taken from the
    /// input just before it is clamped in place.
    fn forward(&mut self, input: Tensor, train: bool) -> Tensor {
        let cap = self.cap.unwrap_or(f32::INFINITY);
        let mut out = input;
        if train {
            let mut mask = vec![false; out.len()];
            for (v, pass) in out.data_mut().iter_mut().zip(&mut mask) {
                *pass = *v > 0.0 && *v < cap;
                *v = v.clamp(0.0, cap);
            }
            self.mask = Some(mask);
        } else {
            out.map_inplace(|v| v.clamp(0.0, cap));
        }
        out
    }

    fn backward(&mut self, mut grad: Tensor) -> Tensor {
        let mask = self.mask.take().expect("backward before forward");
        gate(grad.data_mut(), &mask);
        grad
    }
}

/// Zeroes (to `+0.0`) every gradient whose lane `pass` blocks and keeps
/// the others bit for bit, `-0.0` included. A select, not a branch: the
/// mask is the sign pattern of ReLU's input, and a branch on it
/// mispredicts about every other element.
fn gate(grad: &mut [f32], pass: &[bool]) {
    for (g, &pass) in grad.iter_mut().zip(pass) {
        *g = if pass { *g } else { 0.0 };
    }
}

/// 2x2 max pooling with stride 2.
pub struct MaxPool2d {
    cache: Option<(Vec<u8>, [usize; 4])>,
}

impl MaxPool2d {
    /// Creates the pool (kernel 2, stride 2).
    pub fn new() -> Self {
        Self { cache: None }
    }
}

impl Default for MaxPool2d {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, input: Tensor, train: bool) -> Tensor {
        let s = input.shape();
        let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
        let mut out = Tensor::zeros(vec![n, c, h / 2, w / 2]);
        // Only `backward` reads where each maximum sat.
        let mut slot = train.then(|| vec![0u8; out.len()]);
        kernels::maxpool_forward(n * c, h, w, input.data(), out.data_mut(), slot.as_deref_mut());
        if let Some(slot) = slot {
            self.cache = Some((slot, [n, c, h, w]));
        }
        out
    }

    fn backward(&mut self, grad: Tensor) -> Tensor {
        let (slot, [n, c, h, w]) = self.cache.take().expect("backward before forward");
        let mut dx = Tensor::zeros(vec![n, c, h, w]);
        kernels::maxpool_backward(n * c, h, w, &slot, grad.data(), dx.data_mut());
        dx
    }
}

/// Global average pooling: `[N, C, H, W] -> [N, C]`.
pub struct GlobalAvgPool {
    dims: Option<[usize; 4]>,
}

impl GlobalAvgPool {
    /// Creates the pool.
    pub fn new() -> Self {
        Self { dims: None }
    }
}

impl Default for GlobalAvgPool {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for GlobalAvgPool {
    fn forward(&mut self, input: Tensor, train: bool) -> Tensor {
        let s = input.shape();
        let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
        let x = input.data();
        let mut out = Tensor::zeros(vec![n, c]);
        let o = out.data_mut();
        let inv = 1.0 / (h * w) as f32;
        for ni in 0..n {
            for ci in 0..c {
                let mut acc = 0.0f32;
                for hi in 0..h {
                    for wi in 0..w {
                        acc += x[idx4(ni, ci, hi, wi, c, h, w)];
                    }
                }
                o[ni * c + ci] = acc * inv;
            }
        }
        if train {
            self.dims = Some([n, c, h, w]);
        }
        out
    }

    fn backward(&mut self, grad: Tensor) -> Tensor {
        let [n, c, h, w] = self.dims.take().expect("backward before forward");
        let mut dx = Tensor::zeros(vec![n, c, h, w]);
        let inv = 1.0 / (h * w) as f32;
        let dxd = dx.data_mut();
        for ni in 0..n {
            for ci in 0..c {
                let g = grad.data()[ni * c + ci] * inv;
                for hi in 0..h {
                    for wi in 0..w {
                        dxd[idx4(ni, ci, hi, wi, c, h, w)] = g;
                    }
                }
            }
        }
        dx
    }
}

/// Flattens `[N, ...] -> [N, prod(...)]`.
pub struct Flatten {
    shape: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates the layer.
    pub fn new() -> Self {
        Self { shape: None }
    }
}

impl Default for Flatten {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for Flatten {
    fn forward(&mut self, input: Tensor, train: bool) -> Tensor {
        let shape = input.shape().to_vec();
        let n = shape[0];
        let rest: usize = shape[1..].iter().product();
        if train {
            self.shape = Some(shape);
        }
        input.reshaped(vec![n, rest])
    }

    fn backward(&mut self, grad: Tensor) -> Tensor {
        let shape = self.shape.take().expect("backward before forward");
        grad.reshaped(shape)
    }
}

/// Inverted dropout: in training, zeroes each activation with
/// probability `p` and scales survivors by `1/(1-p)`; identity in eval
/// mode (as in the real AlexNet classifier).
pub struct Dropout {
    p: f32,
    rng: StdRng,
    mask: Option<Vec<bool>>,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= p < 1`.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&p), "drop probability must be in [0, 1)");
        use rand::SeedableRng;
        Self { p, rng: StdRng::seed_from_u64(seed), mask: None }
    }
}

impl Layer for Dropout {
    fn forward(&mut self, input: Tensor, train: bool) -> Tensor {
        if !train || self.p == 0.0 {
            if train {
                self.mask = Some(vec![true; input.len()]);
            }
            return input;
        }
        use rand::Rng;
        let keep = 1.0 - self.p;
        let scale = 1.0 / keep;
        let mask: Vec<bool> = (0..input.len()).map(|_| self.rng.gen::<f32>() < keep).collect();
        let mut out = input;
        for (v, &m) in out.data_mut().iter_mut().zip(&mask) {
            *v = if m { *v * scale } else { 0.0 };
        }
        self.mask = Some(mask);
        out
    }

    fn backward(&mut self, mut grad: Tensor) -> Tensor {
        let mask = self.mask.take().expect("backward before forward");
        let scale = 1.0 / (1.0 - self.p);
        for (g, &m) in grad.data_mut().iter_mut().zip(&mask) {
            *g = if m { *g * scale } else { 0.0 };
        }
        grad
    }
}

/// Fully connected layer: `y = x W^T + b`.
pub struct Linear {
    weight: Param,
    bias: Param,
    cache: Option<Tensor>,
}

impl Linear {
    /// Creates a Kaiming-initialized linear layer.
    pub fn new(rng: &mut StdRng, in_features: usize, out_features: usize) -> Self {
        let weight = rng::kaiming(rng, vec![out_features, in_features], in_features);
        Self {
            weight: Param::new(weight),
            bias: Param::new(Tensor::zeros(vec![out_features])),
            cache: None,
        }
    }
}

impl Layer for Linear {
    fn forward(&mut self, input: Tensor, train: bool) -> Tensor {
        let mut out = input.matmul_transposed(&self.weight.value);
        let b = self.bias.value.data();
        for row in out.data_mut().chunks_exact_mut(b.len().max(1)) {
            for (v, &bv) in row.iter_mut().zip(b) {
                *v += bv;
            }
        }
        if train {
            self.cache = Some(input);
        }
        out
    }

    fn backward(&mut self, grad: Tensor) -> Tensor {
        let input = self.cache.take().expect("backward before forward");
        // dW = dy^T x ; db = column sums of dy ; dx = dy W.
        let dw = grad.transposed().matmul(&input);
        self.weight.grad.axpy(1.0, &dw);
        let of = self.bias.value.len();
        {
            let gb = self.bias.grad.data_mut();
            for (i, &g) in grad.data().iter().enumerate() {
                gb[i % of] += g;
            }
        }
        grad.matmul(&self.weight.value)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn collect_state(&self, prefix: &str, out: &mut StateDict) {
        out.insert(format!("{prefix}weight"), self.weight.value.clone());
        out.insert(format!("{prefix}bias"), self.bias.value.clone());
    }

    fn load_state(&mut self, prefix: &str, dict: &StateDict) -> Result<(), NnError> {
        self.weight.value = fetch(dict, prefix, "weight", self.weight.value.shape())?;
        self.bias.value = fetch(dict, prefix, "bias", self.bias.value.shape())?;
        Ok(())
    }
}

/// An ordered container applying child layers in sequence.
///
/// Children are named by index, giving PyTorch-style state-dict names
/// like `features.0.weight`.
#[derive(Default)]
pub struct Sequential {
    children: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates an empty container.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a child layer, returning `self` for chaining.
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        self.children.push(Box::new(layer));
        self
    }

    /// Number of children.
    pub fn len(&self) -> usize {
        self.children.len()
    }

    /// Whether the container is empty.
    pub fn is_empty(&self) -> bool {
        self.children.is_empty()
    }
}

impl Layer for Sequential {
    fn forward(&mut self, input: Tensor, train: bool) -> Tensor {
        self.children.iter_mut().fold(input, |x, layer| layer.forward(x, train))
    }

    fn backward(&mut self, grad: Tensor) -> Tensor {
        self.children.iter_mut().rev().fold(grad, |g, layer| layer.backward(g))
    }

    /// Only the first child's input gradient is dropped, so it alone
    /// runs [`Layer::backward_params`].
    fn backward_params(&mut self, grad: Tensor) {
        if let Some((first, rest)) = self.children.split_first_mut() {
            first.backward_params(rest.iter_mut().rev().fold(grad, |g, layer| layer.backward(g)));
        }
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.children.iter_mut().flat_map(|l| l.params_mut()).collect()
    }

    fn collect_state(&self, prefix: &str, out: &mut StateDict) {
        for (i, child) in self.children.iter().enumerate() {
            child.collect_state(&format!("{prefix}{i}."), out);
        }
    }

    fn load_state(&mut self, prefix: &str, dict: &StateDict) -> Result<(), NnError> {
        for (i, child) in self.children.iter_mut().enumerate() {
            child.load_state(&format!("{prefix}{i}."), dict)?;
        }
        Ok(())
    }
}

/// A residual block: `out = relu(main(x) + shortcut(x))`.
///
/// The shortcut is the identity unless a projection is supplied (needed
/// when the main path changes shape).
pub struct Residual {
    main: Sequential,
    shortcut: Option<Sequential>,
    relu_mask: Option<Vec<bool>>,
}

impl Residual {
    /// Creates a residual block.
    pub fn new(main: Sequential, shortcut: Option<Sequential>) -> Self {
        Self { main, shortcut, relu_mask: None }
    }
}

impl Layer for Residual {
    fn forward(&mut self, input: Tensor, train: bool) -> Tensor {
        let main_out = self.main.forward(input.clone(), train);
        let skip = match &mut self.shortcut {
            Some(s) => s.forward(input, train),
            None => input,
        };
        let mut out = main_out.add(&skip);
        if train {
            self.relu_mask = Some(out.data().iter().map(|&v| v > 0.0).collect());
        }
        out.map_inplace(|v| v.max(0.0));
        out
    }

    fn backward(&mut self, mut grad: Tensor) -> Tensor {
        let mask = self.relu_mask.take().expect("backward before forward");
        gate(grad.data_mut(), &mask);
        let d_main = self.main.backward(grad.clone());
        let d_skip = match &mut self.shortcut {
            Some(s) => s.backward(grad),
            None => grad,
        };
        d_main.add(&d_skip)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = self.main.params_mut();
        if let Some(s) = &mut self.shortcut {
            p.extend(s.params_mut());
        }
        p
    }

    fn collect_state(&self, prefix: &str, out: &mut StateDict) {
        self.main.collect_state(&format!("{prefix}main."), out);
        if let Some(s) = &self.shortcut {
            s.collect_state(&format!("{prefix}shortcut."), out);
        }
    }

    fn load_state(&mut self, prefix: &str, dict: &StateDict) -> Result<(), NnError> {
        self.main.load_state(&format!("{prefix}main."), dict)?;
        if let Some(s) = &mut self.shortcut {
            s.load_state(&format!("{prefix}shortcut."), dict)?;
        }
        Ok(())
    }
}

/// MobileNetV2-style inverted residual: expand → depthwise → project,
/// with an additive skip when the shapes allow it.
pub struct InvertedResidual {
    body: Sequential,
    use_skip: bool,
}

impl InvertedResidual {
    /// Creates an inverted-residual block.
    ///
    /// `expand` is the expansion factor `t`; the skip connection is used
    /// iff `stride == 1 && in_c == out_c`, as in the original paper.
    pub fn new(rng: &mut StdRng, in_c: usize, out_c: usize, stride: usize, expand: usize) -> Self {
        let hidden = in_c * expand;
        let mut body = Sequential::new();
        if expand != 1 {
            body = body
                .push(Conv2d::new(rng, in_c, hidden, 1, 1, 0, 1))
                .push(BatchNorm2d::new(hidden))
                .push(ReLU::relu6());
        }
        body = body
            .push(Conv2d::new(rng, hidden, hidden, 3, stride, 1, hidden))
            .push(BatchNorm2d::new(hidden))
            .push(ReLU::relu6())
            .push(Conv2d::new(rng, hidden, out_c, 1, 1, 0, 1))
            .push(BatchNorm2d::new(out_c));
        Self { body, use_skip: stride == 1 && in_c == out_c }
    }
}

impl Layer for InvertedResidual {
    fn forward(&mut self, input: Tensor, train: bool) -> Tensor {
        if self.use_skip {
            let out = self.body.forward(input.clone(), train);
            out.add(&input)
        } else {
            self.body.forward(input, train)
        }
    }

    fn backward(&mut self, grad: Tensor) -> Tensor {
        if self.use_skip {
            let d_body = self.body.backward(grad.clone());
            d_body.add(&grad)
        } else {
            self.body.backward(grad)
        }
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.body.params_mut()
    }

    fn collect_state(&self, prefix: &str, out: &mut StateDict) {
        self.body.collect_state(&format!("{prefix}conv."), out);
    }

    fn load_state(&mut self, prefix: &str, dict: &StateDict) -> Result<(), NnError> {
        self.body.load_state(&format!("{prefix}conv."), dict)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use fedsz_tensor::rng::seeded;
    use proptest::prelude::*;
    use rand::Rng;
    use std::cell::RefCell;

    thread_local! {
        /// Every `Conv2d` backward this thread ran: its weight shape and
        /// whether it computed `dx`.
        pub(crate) static CONV_BACKWARDS: RefCell<Vec<(Vec<usize>, bool)>> =
            const { RefCell::new(Vec::new()) };
    }

    /// The branching loop `gate` replaced, kept as the oracle.
    fn gate_reference(grad: &[f32], pass: impl Iterator<Item = bool>) -> Vec<u32> {
        let mut grad = grad.to_vec();
        for (g, pass) in grad.iter_mut().zip(pass) {
            if !pass {
                *g = 0.0;
            }
        }
        bits(&grad)
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// `len` values drawn from `palette`, a normal sample where it holds
    /// `None`.
    fn drawn(seed: u64, len: usize, palette: &[Option<f32>]) -> Vec<f32> {
        let rng = &mut seeded(seed);
        (0..len)
            .map(|_| {
                palette[rng.gen_range(0..palette.len())]
                    .unwrap_or_else(|| fedsz_tensor::rng::normal(rng) * 8.0)
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// NaN, both zeros, exactly 6, `+inf` and subnormals in, `-0.0`
        /// among the gradients: a lane that passes keeps its gradient's
        /// bits, `-0.0` too, and a blocked lane becomes `+0.0`, as the
        /// branching loop left them.
        #[test]
        fn relu_and_residual_backward_match_the_branching_loop(
            len in 1usize..300,
            seed in any::<u64>(),
        ) {
            let tiny = f32::MIN_POSITIVE / 4.0;
            let x = drawn(seed, len, &[
                Some(f32::NAN), Some(0.0), Some(-0.0), Some(6.0), Some(f32::INFINITY),
                Some(tiny), Some(-tiny), None, None,
            ]);
            let grad = drawn(seed ^ 1, len, &[Some(-0.0), Some(0.0), Some(tiny), None, None]);
            let input = Tensor::from_vec(vec![1, len], x.clone());
            for (mut relu, cap) in [(ReLU::new(), f32::INFINITY), (ReLU::relu6(), 6.0)] {
                relu.forward(input.clone(), true);
                let got = relu.backward(Tensor::from_vec(vec![1, len], grad.clone()));
                let want = gate_reference(&grad, x.iter().map(|&v| v > 0.0 && v < cap));
                prop_assert_eq!(bits(got.data()), want, "cap {}", cap);
            }
            // An empty main path and no shortcut: out = relu(x + x), and
            // the input gradient is the gated gradient added to itself.
            let mut block = Residual::new(Sequential::new(), None);
            block.forward(input, true);
            let got = block.backward(Tensor::from_vec(vec![1, len], grad.clone()));
            let gated = gate_reference(&grad, x.iter().map(|&v| v + v > 0.0));
            let want: Vec<u32> =
                gated.iter().map(|&g| (f32::from_bits(g) + f32::from_bits(g)).to_bits()).collect();
            prop_assert_eq!(bits(got.data()), want);
        }
    }

    /// Finite-difference check of a scalar loss `0.5 * sum(y^2)` through
    /// a layer, at a handful of probe positions.
    fn grad_check(layer: &mut dyn Layer, input: Tensor, probes: &[usize]) {
        let out = layer.forward(input.clone(), true);
        let grad_out = out.clone(); // d(0.5*sum y^2)/dy = y
        let dx = layer.backward(grad_out);
        let loss = |layer: &mut dyn Layer, x: Tensor| -> f64 {
            let y = layer.forward(x, false);
            0.5 * y.data().iter().map(|&v| f64::from(v) * f64::from(v)).sum::<f64>()
        };
        let eps = 1e-3f32;
        for &i in probes {
            let mut xp = input.clone();
            xp.data_mut()[i] += eps;
            let mut xm = input.clone();
            xm.data_mut()[i] -= eps;
            let num = (loss(layer, xp) - loss(layer, xm)) / (2.0 * f64::from(eps));
            let ana = f64::from(dx.data()[i]);
            assert!(
                (num - ana).abs() <= 1e-2 * (1.0 + num.abs().max(ana.abs())),
                "grad mismatch at {i}: numeric {num:.5} vs analytic {ana:.5}"
            );
        }
    }

    #[test]
    fn conv_shapes() {
        let mut rng = seeded(1);
        let mut conv = Conv2d::new(&mut rng, 3, 8, 3, 1, 1, 1);
        let x = fedsz_tensor::rng::randn(&mut rng, vec![2, 3, 8, 8], 1.0);
        let y = conv.forward(x, false);
        assert_eq!(y.shape(), &[2, 8, 8, 8]);
        let mut strided = Conv2d::new(&mut rng, 3, 4, 3, 2, 1, 1);
        let x = fedsz_tensor::rng::randn(&mut rng, vec![1, 3, 8, 8], 1.0);
        assert_eq!(strided.forward(x, false).shape(), &[1, 4, 4, 4]);
    }

    #[test]
    #[should_panic(expected = "conv input 2x5 with padding 1 is smaller than the 5x5 kernel")]
    fn conv_rejects_an_input_smaller_than_its_kernel() {
        let mut rng = seeded(1);
        let mut conv = Conv2d::new(&mut rng, 1, 1, 5, 1, 1, 1);
        conv.forward(Tensor::zeros(vec![1, 1, 2, 5]), false);
    }

    #[test]
    fn conv_accepts_an_input_the_padding_stretches_to_its_kernel() {
        let mut rng = seeded(1);
        let mut conv = Conv2d::new(&mut rng, 1, 1, 5, 2, 2, 1);
        assert_eq!(conv.forward(Tensor::zeros(vec![1, 1, 1, 3]), false).shape(), &[1, 1, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "needs kernel >= 1 and stride >= 1, got kernel 3, stride 0")]
    fn conv_rejects_a_zero_stride() {
        Conv2d::new(&mut seeded(1), 1, 1, 3, 0, 1, 1);
    }

    #[test]
    #[should_panic(expected = "needs kernel >= 1 and stride >= 1, got kernel 0, stride 1")]
    fn conv_rejects_a_zero_kernel() {
        Conv2d::new(&mut seeded(1), 1, 1, 0, 1, 0, 1);
    }

    #[test]
    fn conv_gradients_match_finite_differences() {
        let mut rng = seeded(2);
        let mut conv = Conv2d::new(&mut rng, 2, 3, 3, 1, 1, 1);
        let x = fedsz_tensor::rng::randn(&mut rng, vec![1, 2, 5, 5], 1.0);
        grad_check(&mut conv, x, &[0, 7, 24, 49]);
    }

    #[test]
    fn depthwise_conv_gradients() {
        let mut rng = seeded(3);
        let mut conv = Conv2d::new(&mut rng, 4, 4, 3, 1, 1, 4);
        let x = fedsz_tensor::rng::randn(&mut rng, vec![1, 4, 4, 4], 1.0);
        grad_check(&mut conv, x, &[0, 15, 31, 63]);
    }

    #[test]
    fn linear_gradients() {
        let mut rng = seeded(4);
        let mut lin = Linear::new(&mut rng, 6, 4);
        let x = fedsz_tensor::rng::randn(&mut rng, vec![3, 6], 1.0);
        grad_check(&mut lin, x, &[0, 5, 11, 17]);
    }

    #[test]
    fn relu_masks_gradient() {
        let mut relu = ReLU::new();
        let x = Tensor::from_vec(vec![1, 4], vec![-1.0, 2.0, -3.0, 4.0]);
        let y = relu.forward(x, true);
        assert_eq!(y.data(), &[0.0, 2.0, 0.0, 4.0]);
        let dx = relu.backward(Tensor::ones(vec![1, 4]));
        assert_eq!(dx.data(), &[0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn relu6_caps() {
        let mut relu = ReLU::relu6();
        let x = Tensor::from_vec(vec![1, 3], vec![-1.0, 3.0, 9.0]);
        let y = relu.forward(x, true);
        assert_eq!(y.data(), &[0.0, 3.0, 6.0]);
        let dx = relu.backward(Tensor::ones(vec![1, 3]));
        assert_eq!(dx.data(), &[0.0, 1.0, 0.0]);
    }

    /// The forward's output against `clamp(0, cap)` and its mask
    /// against `0 < v < cap`, bit for bit, in training and in eval,
    /// `-0.0`, NaN payloads and the caps included.
    #[test]
    fn relu_forward_matches_the_mask_then_clamp() {
        let values = [
            -1.0,
            -0.0,
            0.0,
            f32::MIN_POSITIVE / 8.0,
            3.0,
            6.0,
            f32::from_bits(0x40c0_0001),
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::from_bits(0xffc0_0042),
        ];
        for (mut relu, cap) in [(ReLU::new(), f32::INFINITY), (ReLU::relu6(), 6.0)] {
            let want: Vec<u32> = values.iter().map(|v| v.clamp(0.0, cap).to_bits()).collect();
            let mask: Vec<bool> = values.iter().map(|&v| v > 0.0 && v < cap).collect();
            let x = Tensor::from_vec(vec![1, values.len()], values.to_vec());
            let raw = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(raw(&relu.forward(x.clone(), false)), want, "eval, cap {cap}");
            assert_eq!(raw(&relu.forward(x, true)), want, "training, cap {cap}");
            assert_eq!(relu.mask.as_deref(), Some(&mask[..]), "cap {cap}");
        }
    }

    #[test]
    fn maxpool_forward_backward() {
        let mut pool = MaxPool2d::new();
        let x = Tensor::from_vec(vec![1, 1, 2, 2], vec![1.0, 5.0, 3.0, 2.0]);
        let y = pool.forward(x, true);
        assert_eq!(y.data(), &[5.0]);
        let dx = pool.backward(Tensor::ones(vec![1, 1, 1, 1]));
        assert_eq!(dx.data(), &[0.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn global_avg_pool_round_trip() {
        let mut pool = GlobalAvgPool::new();
        let x = Tensor::from_vec(vec![1, 2, 1, 2], vec![1.0, 3.0, 5.0, 7.0]);
        let y = pool.forward(x, true);
        assert_eq!(y.data(), &[2.0, 6.0]);
        let dx = pool.backward(Tensor::ones(vec![1, 2]));
        assert_eq!(dx.data(), &[0.5, 0.5, 0.5, 0.5]);
    }

    #[test]
    fn batchnorm_normalizes_in_train_mode() {
        let mut rng = seeded(5);
        let mut bn = BatchNorm2d::new(2);
        let x = fedsz_tensor::rng::randn(&mut rng, vec![4, 2, 3, 3], 3.0);
        let y = bn.forward(x, true);
        // Per-channel mean ~0, var ~1 after normalization.
        let s = y.shape().to_vec();
        for c in 0..2 {
            let mut vals = Vec::new();
            for n in 0..s[0] {
                for h in 0..s[2] {
                    for w in 0..s[3] {
                        vals.push(y.data()[idx4(n, c, h, w, 2, 3, 3)]);
                    }
                }
            }
            let mean: f64 = vals.iter().map(|&v| f64::from(v)).sum::<f64>() / vals.len() as f64;
            let var: f64 = vals.iter().map(|&v| (f64::from(v) - mean).powi(2)).sum::<f64>()
                / vals.len() as f64;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "var {var}");
        }
    }

    #[test]
    fn batchnorm_gradients() {
        let mut rng = seeded(6);
        let mut bn = BatchNorm2d::new(2);
        // Run one training pass so running stats are sane for eval-mode
        // finite differencing (grad_check evaluates in eval mode).
        let warm = fedsz_tensor::rng::randn(&mut rng, vec![8, 2, 2, 2], 1.0);
        let _ = bn.forward(warm, true);
        let x = fedsz_tensor::rng::randn(&mut rng, vec![2, 2, 2, 2], 1.0);
        // Eval-mode BN is an affine map, so analytic-vs-numeric agreement
        // only holds approximately (train-mode grads couple the batch);
        // verify shape and finiteness plus mask behaviour instead.
        let y = bn.forward(x.clone(), true);
        let dx = bn.backward(y);
        assert_eq!(dx.shape(), x.shape());
        assert!(dx.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn sequential_state_dict_names() {
        let mut rng = seeded(7);
        let model = Sequential::new()
            .push(Conv2d::new(&mut rng, 1, 2, 3, 1, 1, 1))
            .push(BatchNorm2d::new(2))
            .push(ReLU::new());
        let mut sd = StateDict::new();
        model.collect_state("features.", &mut sd);
        let names: Vec<&str> = sd.names().collect();
        assert!(names.contains(&"features.0.weight"));
        assert!(names.contains(&"features.1.running_var"));
        assert!(names.contains(&"features.1.num_batches_tracked"));
    }

    #[test]
    fn state_dict_round_trip_through_layers() {
        let mut rng = seeded(8);
        let mut a = Sequential::new()
            .push(Conv2d::new(&mut rng, 1, 2, 3, 1, 1, 1))
            .push(BatchNorm2d::new(2));
        let mut rng2 = seeded(99);
        let mut b = Sequential::new()
            .push(Conv2d::new(&mut rng2, 1, 2, 3, 1, 1, 1))
            .push(BatchNorm2d::new(2));
        let mut sd = StateDict::new();
        a.collect_state("", &mut sd);
        b.load_state("", &sd).unwrap();
        let mut sd2 = StateDict::new();
        b.collect_state("", &mut sd2);
        assert_eq!(sd, sd2);
        // Outputs must now agree.
        let x = fedsz_tensor::rng::randn(&mut rng, vec![1, 1, 4, 4], 1.0);
        assert_eq!(a.forward(x.clone(), false).data(), b.forward(x, false).data());
    }

    #[test]
    fn load_state_rejects_bad_shapes() {
        let mut rng = seeded(9);
        let mut layer = Linear::new(&mut rng, 4, 2);
        let mut sd = StateDict::new();
        sd.insert("weight", Tensor::zeros(vec![3, 4]));
        sd.insert("bias", Tensor::zeros(vec![2]));
        assert!(matches!(layer.load_state("", &sd), Err(NnError::ShapeMismatch { .. })));
        let empty = StateDict::new();
        assert!(matches!(layer.load_state("", &empty), Err(NnError::MissingEntry(_))));
    }

    #[test]
    fn residual_identity_gradients() {
        let mut rng = seeded(10);
        let main = Sequential::new()
            .push(Conv2d::new(&mut rng, 2, 2, 3, 1, 1, 1))
            .push(BatchNorm2d::new(2));
        let mut block = Residual::new(main, None);
        let x = fedsz_tensor::rng::randn(&mut rng, vec![1, 2, 4, 4], 1.0);
        let y = block.forward(x.clone(), true);
        assert_eq!(y.shape(), x.shape());
        let dx = block.backward(Tensor::ones(vec![1, 2, 4, 4]));
        assert_eq!(dx.shape(), x.shape());
        assert!(dx.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn inverted_residual_skip_rule() {
        let mut rng = seeded(11);
        // stride 1, same channels: skip used, shape preserved.
        let mut ir = InvertedResidual::new(&mut rng, 8, 8, 1, 2);
        let x = fedsz_tensor::rng::randn(&mut rng, vec![1, 8, 4, 4], 1.0);
        assert_eq!(ir.forward(x, false).shape(), &[1, 8, 4, 4]);
        // stride 2: down-samples.
        let mut ir2 = InvertedResidual::new(&mut rng, 8, 16, 2, 2);
        let x = fedsz_tensor::rng::randn(&mut rng, vec![1, 8, 4, 4], 1.0);
        assert_eq!(ir2.forward(x, false).shape(), &[1, 16, 2, 2]);
    }
}

#[cfg(test)]
mod dropout_tests {
    use super::*;
    use fedsz_tensor::rng::seeded;

    #[test]
    fn eval_mode_is_identity() {
        let mut d = Dropout::new(0.5, 1);
        let mut rng = seeded(2);
        let x = fedsz_tensor::rng::randn(&mut rng, vec![4, 8], 1.0);
        assert_eq!(d.forward(x.clone(), false).data(), x.data());
    }

    #[test]
    fn training_preserves_expectation() {
        let mut d = Dropout::new(0.3, 7);
        let x = Tensor::ones(vec![1, 20_000]);
        let y = d.forward(x, true);
        let mean = y.data().iter().map(|&v| f64::from(v)).sum::<f64>() / 20_000.0;
        assert!((mean - 1.0).abs() < 0.05, "inverted dropout mean {mean}");
        // Survivors are scaled by 1/(1-p), the rest are zero.
        for &v in y.data() {
            assert!(v == 0.0 || (v - 1.0 / 0.7).abs() < 1e-6);
        }
    }

    #[test]
    fn backward_uses_the_same_mask() {
        let mut d = Dropout::new(0.5, 3);
        let x = Tensor::ones(vec![1, 1000]);
        let y = d.forward(x, true);
        let dx = d.backward(Tensor::ones(vec![1, 1000]));
        for (&yv, &gv) in y.data().iter().zip(dx.data()) {
            assert_eq!(yv == 0.0, gv == 0.0, "mask mismatch between passes");
        }
    }

    #[test]
    fn zero_probability_passes_through() {
        let mut d = Dropout::new(0.0, 1);
        let x = Tensor::from_vec(vec![3], vec![1.0, -2.0, 3.0]);
        let y = d.forward(x.clone(), true);
        assert_eq!(y.data(), x.data());
        let dx = d.backward(Tensor::ones(vec![3]));
        assert_eq!(dx.data(), &[1.0, 1.0, 1.0]);
    }
}
