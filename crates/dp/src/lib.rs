//! Differential-privacy analysis of lossy-compression error.
//!
//! Section VII-D of the paper observes that the pointwise error
//! introduced by FedSZ's decompression is distributed very much like
//! Laplacian noise — the distribution used by the classic Laplace
//! mechanism for differential privacy. This crate provides the analysis
//! machinery behind Figure 10: error extraction, maximum-likelihood fits
//! of Laplace and Gaussian models, and Kolmogorov–Smirnov distances to
//! judge which fits better — plus the *mechanism* side: [`DpPolicy`], a
//! seeded clip+noise stage the round plan applies to client updates
//! before the uplink codec.
//!
//! # Examples
//!
//! ```
//! use fedsz_dp::{laplace_mle, sample_laplace_errors};
//!
//! let errors = sample_laplace_errors(42, 10_000, 0.05);
//! let fit = laplace_mle(&errors);
//! assert!((fit.scale - 0.05).abs() < 0.005);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use fedsz_lossy::{ErrorBound, ErrorBounded};

/// Pointwise reconstruction errors `original - decompressed`.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn error_vector(original: &[f32], decompressed: &[f32]) -> Vec<f32> {
    assert_eq!(original.len(), decompressed.len(), "length mismatch");
    original.iter().zip(decompressed).map(|(&a, &b)| a - b).collect()
}

/// Compresses `data` with `codec` at `bound` and returns the error
/// vector — the quantity Figure 10 histograms.
///
/// # Errors
///
/// Propagates compressor errors.
pub fn compression_errors(
    codec: &dyn ErrorBounded,
    data: &[f32],
    bound: ErrorBound,
) -> Result<Vec<f32>, fedsz_lossy::LossyError> {
    let packed = codec.compress(data, bound)?;
    let restored = codec.decompress(&packed).expect("self-produced stream decodes");
    Ok(error_vector(data, &restored))
}

/// A fitted Laplace(μ, b) distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaplaceFit {
    /// Location (median).
    pub location: f64,
    /// Scale `b` (mean absolute deviation from the median).
    pub scale: f64,
}

impl LaplaceFit {
    /// Cumulative distribution function.
    pub fn cdf(&self, x: f64) -> f64 {
        let z = (x - self.location) / self.scale;
        if z < 0.0 {
            0.5 * z.exp()
        } else {
            1.0 - 0.5 * (-z).exp()
        }
    }

    /// The ε differential-privacy parameter this noise *would* provide
    /// for a query of the given L1 `sensitivity` under the Laplace
    /// mechanism (`ε = sensitivity / b`). The paper is careful to note
    /// this is suggestive, not a formal guarantee; so are we.
    pub fn epsilon_for_sensitivity(&self, sensitivity: f64) -> f64 {
        sensitivity / self.scale
    }
}

/// A fitted Normal(μ, σ) distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaussianFit {
    /// Mean.
    pub mean: f64,
    /// Standard deviation.
    pub std: f64,
}

impl GaussianFit {
    /// Cumulative distribution function (via `erf`-free approximation).
    pub fn cdf(&self, x: f64) -> f64 {
        // Abramowitz–Stegun style logistic approximation of Φ, accurate
        // to ~1e-4 — plenty for KS comparison purposes.
        let z = (x - self.mean) / self.std.max(1e-300);
        1.0 / (1.0 + (-1.5976 * z - 0.070566 * z * z * z).exp())
    }
}

/// Maximum-likelihood Laplace fit: location = median, scale = mean
/// absolute deviation from it.
///
/// # Panics
///
/// Panics on empty input.
pub fn laplace_mle(errors: &[f32]) -> LaplaceFit {
    assert!(!errors.is_empty(), "cannot fit an empty sample");
    let mut sorted: Vec<f32> = errors.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite errors"));
    let location = f64::from(sorted[sorted.len() / 2]);
    let scale =
        errors.iter().map(|&e| (f64::from(e) - location).abs()).sum::<f64>() / errors.len() as f64;
    LaplaceFit { location, scale: scale.max(1e-300) }
}

/// Maximum-likelihood Gaussian fit.
///
/// # Panics
///
/// Panics on empty input.
pub fn gaussian_mle(errors: &[f32]) -> GaussianFit {
    assert!(!errors.is_empty(), "cannot fit an empty sample");
    let n = errors.len() as f64;
    let mean = errors.iter().map(|&e| f64::from(e)).sum::<f64>() / n;
    let var = errors.iter().map(|&e| (f64::from(e) - mean).powi(2)).sum::<f64>() / n;
    GaussianFit { mean, std: var.sqrt().max(1e-300) }
}

/// Kolmogorov–Smirnov statistic between a sample and a model CDF.
///
/// # Panics
///
/// Panics on empty input.
pub fn ks_statistic(sample: &[f32], cdf: impl Fn(f64) -> f64) -> f64 {
    assert!(!sample.is_empty(), "cannot compare an empty sample");
    let mut sorted: Vec<f64> = sample.iter().map(|&v| f64::from(v)).collect();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    let n = sorted.len() as f64;
    let mut d = 0.0f64;
    for (i, &x) in sorted.iter().enumerate() {
        let model = cdf(x);
        let emp_hi = (i + 1) as f64 / n;
        let emp_lo = i as f64 / n;
        d = d.max((model - emp_lo).abs()).max((emp_hi - model).abs());
    }
    d
}

/// Verdict of the Laplace-vs-Gaussian comparison for one error sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseReport {
    /// Fitted Laplace parameters.
    pub laplace: LaplaceFit,
    /// Fitted Gaussian parameters.
    pub gaussian: GaussianFit,
    /// KS distance of the Laplace fit.
    pub ks_laplace: f64,
    /// KS distance of the Gaussian fit.
    pub ks_gaussian: f64,
}

impl NoiseReport {
    /// Whether the Laplace model explains the errors better (the paper's
    /// Figure 10 claim).
    pub fn laplace_preferred(&self) -> bool {
        self.ks_laplace < self.ks_gaussian
    }
}

/// Fits both models and computes their KS distances.
pub fn analyze_noise(errors: &[f32]) -> NoiseReport {
    let laplace = laplace_mle(errors);
    let gaussian = gaussian_mle(errors);
    let ks_laplace = ks_statistic(errors, |x| laplace.cdf(x));
    let ks_gaussian = ks_statistic(errors, |x| gaussian.cdf(x));
    NoiseReport { laplace, gaussian, ks_laplace, ks_gaussian }
}

/// Synthesizes Laplace(0, b) samples (test helper and doc examples).
pub fn sample_laplace_errors(seed: u64, n: usize, b: f32) -> Vec<f32> {
    let mut rng = fedsz_tensor::rng::seeded(seed);
    (0..n).map(|_| fedsz_tensor::rng::laplace(&mut rng, b)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedsz_lossy::LossyKind;
    use fedsz_tensor::rng::{self, seeded};

    #[test]
    fn laplace_fit_recovers_parameters() {
        let sample = sample_laplace_errors(1, 50_000, 0.02);
        let fit = laplace_mle(&sample);
        assert!(fit.location.abs() < 1e-3, "location {}", fit.location);
        assert!((fit.scale - 0.02).abs() < 1e-3, "scale {}", fit.scale);
    }

    #[test]
    fn gaussian_fit_recovers_parameters() {
        let mut rng = seeded(2);
        let sample: Vec<f32> = (0..50_000).map(|_| rng::normal(&mut rng) * 0.5 + 1.0).collect();
        let fit = gaussian_mle(&sample);
        assert!((fit.mean - 1.0).abs() < 0.01);
        assert!((fit.std - 0.5).abs() < 0.01);
    }

    #[test]
    fn ks_prefers_the_true_model() {
        let laplace_sample = sample_laplace_errors(3, 20_000, 1.0);
        let report = analyze_noise(&laplace_sample);
        assert!(report.laplace_preferred(), "{report:?}");

        let mut rng = seeded(4);
        let gauss_sample: Vec<f32> = (0..20_000).map(|_| rng::normal(&mut rng)).collect();
        let report = analyze_noise(&gauss_sample);
        assert!(!report.laplace_preferred(), "{report:?}");
    }

    #[test]
    fn cdfs_are_monotone_and_bounded() {
        let lap = LaplaceFit { location: 0.0, scale: 1.0 };
        let gauss = GaussianFit { mean: 0.0, std: 1.0 };
        let mut last_l = 0.0;
        let mut last_g = 0.0;
        for i in -40..=40 {
            let x = i as f64 / 10.0;
            let l = lap.cdf(x);
            let g = gauss.cdf(x);
            assert!((0.0..=1.0).contains(&l));
            assert!((0.0..=1.0).contains(&g));
            assert!(l >= last_l && g >= last_g);
            last_l = l;
            last_g = g;
        }
        assert!((lap.cdf(0.0) - 0.5).abs() < 1e-12);
        assert!((gauss.cdf(0.0) - 0.5).abs() < 1e-3);
    }

    #[test]
    fn sz2_whole_model_errors_look_laplacian() {
        // The paper's Fig 10 histograms errors pooled over a whole model
        // update. Per-tensor quantization error is near-uniform within a
        // bin, but each layer gets its own absolute bound (value-range
        // relative mode), so the pooled mixture across layer scales is
        // sharply peaked — the Laplace-like shape the paper reports.
        let mut rng = seeded(5);
        let codec = LossyKind::Sz2.codec();
        let mut errors = Vec::new();
        for &scale in &[0.005f32, 0.02, 0.08, 0.3, 1.0] {
            let data: Vec<f32> = (0..12_000)
                .map(|_| rng::normal(&mut rng) * scale + rng::laplace(&mut rng, scale * 0.2))
                .collect();
            errors.extend(
                compression_errors(codec.as_ref(), &data, ErrorBound::Relative(0.05)).unwrap(),
            );
        }
        let nonzero = errors.iter().filter(|e| e.abs() > 0.0).count();
        assert!(nonzero > errors.len() / 2, "errors should be nontrivial");
        let report = analyze_noise(&errors);
        assert!(report.laplace_preferred(), "expected Laplace-like pooled errors: {report:?}");
    }

    #[test]
    fn epsilon_scales_inversely_with_noise() {
        let small = LaplaceFit { location: 0.0, scale: 0.01 };
        let large = LaplaceFit { location: 0.0, scale: 0.1 };
        assert!(small.epsilon_for_sensitivity(1.0) > large.epsilon_for_sensitivity(1.0));
    }

    #[test]
    fn error_vector_is_signed() {
        let e = error_vector(&[1.0, 2.0], &[0.5, 2.5]);
        assert_eq!(e, vec![0.5, -0.5]);
    }
}

/// The classic Laplace mechanism: adds calibrated Laplace(0, Δ/ε) noise
/// to every element of `data`, giving ε-differential privacy for a query
/// with L1 sensitivity `sensitivity`.
///
/// This is the formal mechanism the paper's Section VII-D gestures at;
/// pairing it with [`analyze_noise`] lets experiments compare the noise
/// FedSZ injects "for free" against the noise a given ε would require.
///
/// # Panics
///
/// Panics unless `sensitivity` and `epsilon` are positive and finite.
pub fn laplace_mechanism(data: &mut [f32], sensitivity: f64, epsilon: f64, seed: u64) {
    assert!(sensitivity.is_finite() && sensitivity > 0.0, "sensitivity must be positive");
    assert!(epsilon.is_finite() && epsilon > 0.0, "epsilon must be positive");
    let scale = (sensitivity / epsilon) as f32;
    let mut rng = fedsz_tensor::rng::seeded(seed);
    for v in data {
        *v += fedsz_tensor::rng::laplace(&mut rng, scale);
    }
}

/// Compares the noise FedSZ's compression injects against the Laplace
/// mechanism: returns the ε whose calibrated noise has the same scale as
/// the measured compression error (for L1 sensitivity `sensitivity`).
///
/// A *smaller* returned ε means the compression error is at least as
/// strong as that mechanism's noise. As the paper stresses, this is an
/// equivalence of noise magnitude, not a DP proof — the compression
/// error is data-dependent, which formal DP forbids.
pub fn equivalent_epsilon(errors: &[f32], sensitivity: f64) -> f64 {
    let fit = laplace_mle(errors);
    fit.epsilon_for_sensitivity(sensitivity)
}

#[cfg(test)]
mod mechanism_tests {
    use super::*;

    #[test]
    fn mechanism_noise_matches_requested_scale() {
        let mut data = vec![0.0f32; 50_000];
        laplace_mechanism(&mut data, 1.0, 10.0, 7);
        let fit = laplace_mle(&data);
        // Δ/ε = 0.1.
        assert!((fit.scale - 0.1).abs() < 0.005, "scale {}", fit.scale);
        assert!(fit.location.abs() < 0.01);
    }

    #[test]
    fn mechanism_is_deterministic_per_seed() {
        let mut a = vec![1.0f32; 100];
        let mut b = vec![1.0f32; 100];
        laplace_mechanism(&mut a, 1.0, 1.0, 3);
        laplace_mechanism(&mut b, 1.0, 1.0, 3);
        assert_eq!(a, b);
        let mut c = vec![1.0f32; 100];
        laplace_mechanism(&mut c, 1.0, 1.0, 4);
        assert_ne!(a, c);
    }

    #[test]
    fn stronger_privacy_means_more_noise() {
        let mut weak = vec![0.0f32; 20_000];
        let mut strong = vec![0.0f32; 20_000];
        laplace_mechanism(&mut weak, 1.0, 10.0, 1); // big epsilon = weak privacy
        laplace_mechanism(&mut strong, 1.0, 0.5, 1);
        let var = |v: &[f32]| v.iter().map(|&x| f64::from(x).powi(2)).sum::<f64>() / v.len() as f64;
        assert!(var(&strong) > 50.0 * var(&weak));
    }

    #[test]
    fn equivalent_epsilon_matches_fit() {
        let errors = sample_laplace_errors(5, 30_000, 0.05);
        let eps = equivalent_epsilon(&errors, 1.0);
        assert!((eps - 20.0).abs() < 1.0, "eps {eps}");
    }

    #[test]
    #[should_panic(expected = "epsilon must be positive")]
    fn zero_epsilon_rejected() {
        laplace_mechanism(&mut [0.0], 1.0, 0.0, 1);
    }
}

// ---------------------------------------------------------------------------
// The DP *mechanism*: a clip-and-noise stage for client updates.
//
// Everything above analyzes noise after the fact; this section injects it
// on purpose. A `DpPolicy` is carried by the round plan and applied to the
// client's update delta *before* the uplink codec, so every runtime
// (simulator engine, socket worker) noises the exact same bits.
// ---------------------------------------------------------------------------

/// Which calibrated distribution a [`DpPolicy`] draws its noise from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DpMechanism {
    /// Per-element `N(0, σ²)` with `σ = clip_norm × noise_multiplier`
    /// (the Gaussian mechanism of DP-SGD).
    Gaussian,
    /// Per-element `Laplace(0, b)` with `b = clip_norm × noise_multiplier`
    /// (the classic Laplace mechanism — the shape the paper's Figure 10
    /// finds in FedSZ's own decompression error).
    Laplace,
}

impl DpMechanism {
    /// Stable lowercase name, used by CLI flags and reports.
    pub fn name(self) -> &'static str {
        match self {
            DpMechanism::Gaussian => "gaussian",
            DpMechanism::Laplace => "laplace",
        }
    }

    /// Parses the CLI/TOML spelling. Returns `None` for anything but
    /// `gaussian` or `laplace`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "gaussian" => Some(DpMechanism::Gaussian),
            "laplace" => Some(DpMechanism::Laplace),
            _ => None,
        }
    }
}

/// A seeded, deterministic clip+noise stage for one client update delta.
///
/// The delta (client update minus the round's broadcast reference) is
/// clipped to global L2 norm ≤ `clip_norm`, then per-element noise of
/// scale [`DpPolicy::sigma`] is added. The noise stream is derived from
/// `(seed, round, client)` only — no per-client state survives a round,
/// which is what makes the stage legal on stateless socket workers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DpPolicy {
    /// Maximum L2 norm of the update delta; larger deltas are scaled down.
    pub clip_norm: f64,
    /// Noise scale as a multiple of `clip_norm` (`0` means clip-only).
    pub noise_multiplier: f64,
    /// Which distribution the noise is drawn from.
    pub mechanism: DpMechanism,
    /// Base seed; the per-(round, client) noise seed is derived from it.
    pub seed: u64,
}

impl DpPolicy {
    /// The per-element noise scale: `clip_norm × noise_multiplier`
    /// (σ for Gaussian, b for Laplace).
    pub fn sigma(&self) -> f64 {
        self.clip_norm * self.noise_multiplier
    }

    /// Derives the noise seed for one `(round, client)` cell so engine and
    /// worker draw bit-identical streams (same mixer shape as the uplink
    /// codec's dither seed).
    pub fn noise_seed(&self, round: u64, client: u64) -> u64 {
        self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(round << 20).wrapping_add(client)
    }

    /// Clips and noises a delta spread across `chunks` (one chunk per
    /// tensor). Two passes: the global L2 norm over every chunk decides
    /// the clip scale, then each element is scaled and noised in place.
    pub fn apply(&self, chunks: &mut [&mut [f32]], round: u64, client: u64) -> DpOutcome {
        let sq: f64 = chunks
            .iter()
            .map(|c| c.iter().map(|&v| f64::from(v) * f64::from(v)).sum::<f64>())
            .sum();
        let pre_norm = sq.sqrt();
        let clipped = pre_norm > self.clip_norm;
        let scale = if clipped { (self.clip_norm / pre_norm) as f32 } else { 1.0 };
        let sigma = self.sigma();
        let mut rng = fedsz_tensor::rng::seeded(self.noise_seed(round, client));
        for chunk in chunks.iter_mut() {
            for v in chunk.iter_mut() {
                let noise = if sigma > 0.0 {
                    match self.mechanism {
                        DpMechanism::Gaussian => fedsz_tensor::rng::normal(&mut rng) * sigma as f32,
                        DpMechanism::Laplace => fedsz_tensor::rng::laplace(&mut rng, sigma as f32),
                    }
                } else {
                    0.0
                };
                *v = *v * scale + noise;
            }
        }
        DpOutcome { pre_norm, clipped, sigma }
    }
}

/// What [`DpPolicy::apply`] did to one client's delta.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DpOutcome {
    /// L2 norm of the delta before clipping.
    pub pre_norm: f64,
    /// Whether the delta exceeded `clip_norm` and was scaled down.
    pub clipped: bool,
    /// The per-element noise scale that was applied.
    pub sigma: f64,
}

#[cfg(test)]
mod policy_tests {
    use super::*;

    fn policy(mechanism: DpMechanism) -> DpPolicy {
        DpPolicy { clip_norm: 1.0, noise_multiplier: 0.5, mechanism, seed: 42 }
    }

    fn apply_to(policy: &DpPolicy, data: &mut [Vec<f32>], round: u64, client: u64) -> DpOutcome {
        let mut chunks: Vec<&mut [f32]> = data.iter_mut().map(|v| v.as_mut_slice()).collect();
        policy.apply(&mut chunks, round, client)
    }

    #[test]
    fn clipping_bounds_the_norm() {
        let policy = DpPolicy { noise_multiplier: 0.0, ..policy(DpMechanism::Gaussian) };
        let mut data = vec![vec![3.0f32; 4], vec![4.0f32; 3]];
        let outcome = apply_to(&policy, &mut data, 0, 0);
        assert!(outcome.clipped);
        assert!((outcome.pre_norm - (9.0f64 * 4.0 + 16.0 * 3.0).sqrt()).abs() < 1e-9);
        let post: f64 = data.iter().flatten().map(|&v| f64::from(v) * f64::from(v)).sum::<f64>();
        assert!((post.sqrt() - 1.0).abs() < 1e-5, "post-clip norm {}", post.sqrt());
    }

    #[test]
    fn small_deltas_pass_unclipped() {
        let policy = DpPolicy { noise_multiplier: 0.0, ..policy(DpMechanism::Laplace) };
        let mut data = vec![vec![0.01f32; 8]];
        let outcome = apply_to(&policy, &mut data, 1, 2);
        assert!(!outcome.clipped);
        assert_eq!(data[0], vec![0.01f32; 8]);
    }

    #[test]
    fn noise_is_deterministic_per_coordinates() {
        for mech in [DpMechanism::Gaussian, DpMechanism::Laplace] {
            let policy = policy(mech);
            let mut a = vec![vec![0.1f32; 64]];
            let mut b = vec![vec![0.1f32; 64]];
            apply_to(&policy, &mut a, 3, 7);
            apply_to(&policy, &mut b, 3, 7);
            assert_eq!(a, b, "{mech:?} must be deterministic per (seed, round, client)");
            let mut c = vec![vec![0.1f32; 64]];
            apply_to(&policy, &mut c, 3, 8);
            assert_ne!(a, c, "{mech:?} must vary across clients");
            let mut d = vec![vec![0.1f32; 64]];
            apply_to(&policy, &mut d, 4, 7);
            assert_ne!(a, d, "{mech:?} must vary across rounds");
        }
    }

    #[test]
    fn noise_scale_matches_sigma() {
        let policy = DpPolicy {
            clip_norm: 1.0,
            noise_multiplier: 0.2,
            mechanism: DpMechanism::Laplace,
            seed: 9,
        };
        let mut data = vec![vec![0.0f32; 50_000]];
        apply_to(&policy, &mut data, 0, 0);
        let fit = laplace_mle(&data[0]);
        assert!((fit.scale - 0.2).abs() < 0.01, "scale {}", fit.scale);
    }

    #[test]
    fn laplace_noise_is_finite_across_seeds() {
        // One uniform draw in 2^24 lands on the Laplace quantile's log
        // singularity; seed 6308 does so at element 633 of its round-0
        // client-0 stream, which used to noise that element to -inf
        // (and the fold step then dropped the whole client).
        for seed in 6300..6316 {
            let policy = DpPolicy { seed, ..policy(DpMechanism::Laplace) };
            let mut data = vec![vec![0.0f32; 1024]];
            apply_to(&policy, &mut data, 0, 0);
            let bad = data[0].iter().position(|v| !v.is_finite());
            assert_eq!(bad, None, "seed {seed}: non-finite noise {:?}", bad.map(|i| data[0][i]));
        }
    }

    #[test]
    fn zero_multiplier_is_clip_only() {
        let policy = DpPolicy { noise_multiplier: 0.0, ..policy(DpMechanism::Gaussian) };
        assert_eq!(policy.sigma(), 0.0);
        let mut data = vec![vec![0.25f32; 4]];
        apply_to(&policy, &mut data, 0, 0);
        assert_eq!(data[0], vec![0.25f32; 4]);
    }

    #[test]
    fn mechanism_names_round_trip() {
        for mech in [DpMechanism::Gaussian, DpMechanism::Laplace] {
            assert_eq!(DpMechanism::parse(mech.name()), Some(mech));
        }
        assert_eq!(DpMechanism::parse("exponential"), None);
    }
}
