//! Seeded random initializers used across models and datasets.
//!
//! Everything in the reproduction is deterministic given a seed, so every
//! experiment binary can be re-run bit-for-bit.

use crate::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Creates the workspace-standard seeded RNG.
pub fn seeded(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Standard normal sample via Box–Muller (keeps `rand` usage minimal).
pub fn normal(rng: &mut StdRng) -> f32 {
    loop {
        let u1: f32 = rng.gen::<f32>();
        let u2: f32 = rng.gen::<f32>();
        if u1 > f32::MIN_POSITIVE {
            let r = (-2.0 * u1.ln()).sqrt();
            return r * (2.0 * std::f32::consts::PI * u2).cos();
        }
    }
}

/// Laplace(0, b) sample by inverse CDF.
pub fn laplace(rng: &mut StdRng, b: f32) -> f32 {
    laplace_inverse_cdf(rng.gen::<f32>() - 0.5, b)
}

/// The Laplace(0, b) quantile at `u + 0.5`, for `u` in `[-0.5, 0.5)`.
fn laplace_inverse_cdf(u: f32, b: f32) -> f32 {
    // The generator draws multiples of 2^-24, so the log argument is a
    // multiple of 2^-23 — and exactly 0 for the draw u = -0.5, where a
    // bare `ln` returns -inf. That draw stands for the interval
    // [0, 2^-23); clamping to its midpoint gives it a ~16.6·b tail in
    // line with its neighbours (a smaller floor such as
    // `f32::MIN_POSITIVE` would stretch a tensor's value range) and
    // leaves every other draw bit-identical.
    const MIN_ARG: f32 = 1.0 / (1u32 << 24) as f32;
    -b * u.signum() * (1.0 - 2.0 * u.abs()).max(MIN_ARG).ln()
}

/// Tensor of N(0, std^2) samples.
pub fn randn(rng: &mut StdRng, shape: Vec<usize>, std: f32) -> Tensor {
    let mut t = Tensor::zeros(shape);
    for v in t.data_mut() {
        *v = normal(rng) * std;
    }
    t
}

/// Tensor of Uniform(-bound, bound) samples.
pub fn rand_uniform(rng: &mut StdRng, shape: Vec<usize>, bound: f32) -> Tensor {
    let mut t = Tensor::zeros(shape);
    for v in t.data_mut() {
        *v = rng.gen_range(-bound..bound);
    }
    t
}

/// Kaiming-normal initialization for a weight with `fan_in` inputs.
pub fn kaiming(rng: &mut StdRng, shape: Vec<usize>, fan_in: usize) -> Tensor {
    let std = (2.0 / fan_in.max(1) as f32).sqrt();
    randn(rng, shape, std)
}

/// "Trained-looking" weights: a Gaussian bulk with a Laplacian spike
/// mixture, matching the spiky per-layer distributions the paper shows in
/// Figures 2–3. Used by the full-size model generators whose weights are
/// never trained here.
pub fn trained_like(rng: &mut StdRng, shape: Vec<usize>, fan_in: usize) -> Tensor {
    let std = (2.0 / fan_in.max(1) as f32).sqrt();
    let mut t = Tensor::zeros(shape);
    for v in t.data_mut() {
        *v =
            if rng.gen::<f32>() < 0.08 { laplace(rng, std * 2.0) } else { normal(rng) * std * 0.7 };
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = seeded(7);
        let mut b = seeded(7);
        let ta = randn(&mut a, vec![100], 1.0);
        let tb = randn(&mut b, vec![100], 1.0);
        assert_eq!(ta.data(), tb.data());
    }

    #[test]
    fn normal_moments_plausible() {
        let mut rng = seeded(42);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| normal(&mut rng)).collect();
        let mean: f64 = samples.iter().map(|&v| f64::from(v)).sum::<f64>() / n as f64;
        let var: f64 =
            samples.iter().map(|&v| (f64::from(v) - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn laplace_is_heavier_tailed_than_normal() {
        let mut rng = seeded(9);
        let n = 20_000;
        let lap: Vec<f32> = (0..n).map(|_| laplace(&mut rng, 1.0)).collect();
        // Laplace(0,1) variance is 2.
        let var: f64 = lap.iter().map(|&v| f64::from(v).powi(2)).sum::<f64>() / n as f64;
        assert!((var - 2.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn laplace_zero_draw_is_finite_and_other_draws_are_untouched() {
        // The one draw whose log argument is 0: finite, on the negative
        // tail, just past its nearest neighbour.
        let tail = laplace_inverse_cdf(-0.5, 1.0);
        assert!(tail.is_finite(), "zero draw gave {tail}");
        assert!((tail + 24.0 * std::f32::consts::LN_2).abs() < 1e-4, "tail {tail}");
        let step = 1.0 / (1u32 << 24) as f32;
        let neighbour = laplace_inverse_cdf(-0.5 + step, 1.0);
        assert!(tail < neighbour && neighbour < -15.0, "{tail} vs {neighbour}");
        // Every other draw keeps the unclamped formula's bits.
        for k in [1u32, 2, 1 << 12, (1 << 23) - 1, 1 << 23, (1 << 23) + 1, (1 << 24) - 1] {
            let u = k as f32 * step - 0.5;
            let bare = -2.5 * u.signum() * (1.0 - 2.0 * u.abs()).ln();
            assert_eq!(laplace_inverse_cdf(u, 2.5).to_bits(), bare.to_bits(), "draw {k}");
        }
    }

    #[test]
    fn kaiming_std_scales_with_fan_in() {
        let mut rng = seeded(3);
        let w = kaiming(&mut rng, vec![64, 64], 64);
        let var: f64 = w.data().iter().map(|&v| f64::from(v).powi(2)).sum::<f64>() / 4096.0;
        assert!((var - 2.0 / 64.0).abs() < 0.01, "var {var}");
    }

    #[test]
    fn trained_like_is_spiky() {
        let mut rng = seeded(5);
        let w = trained_like(&mut rng, vec![10_000], 100);
        let max = w.data().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        let std = (w.data().iter().map(|&v| f64::from(v).powi(2)).sum::<f64>() / 10_000.0).sqrt();
        // Spikes should push the max far beyond the bulk's std.
        assert!(f64::from(max) > 4.0 * std, "max {max} std {std}");
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = seeded(11);
        let t = rand_uniform(&mut rng, vec![1000], 0.25);
        assert!(t.data().iter().all(|&v| (-0.25..0.25).contains(&v)));
    }
}
