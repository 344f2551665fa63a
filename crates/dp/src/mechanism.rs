//! The Gaussian mechanism: `g + N(0, σ²C²I)` (Algorithm 1 line 24).
//!
//! # Sampler and threat model
//!
//! The noise comes from [`DivaRng::add_gaussian`]. Each
//! [`GaussianMechanism::add_noise`] call draws one `u64` key from the
//! caller's generator. The slice is split into fixed chunks of 4096
//! coordinates, and chunk `c` samples from its own xoshiro256++ stream,
//! seeded through SplitMix64 from `(key, c)`, with a 256-layer Ziggurat.
//! [`GaussianMechanism::add_noise_to_grads`] makes one such call per
//! parameter tensor, so every tensor gets its own key.
//!
//! This is a seeded *reproduction* sampler, not a secure one:
//!
//! * xoshiro256++ is not a cryptographically secure generator, and the
//!   seed determines every draw. Anyone who learns the seed, or enough
//!   outputs to recover the state, can subtract the noise exactly.
//! * Floating-point Gaussian samplers leak through the low-order bits of
//!   their outputs: the set of reachable doubles depends on the sample, so
//!   a noised value can reveal the value it was added to (Mironov, CCS'12).
//!   Rounding to `f32` does not remove this.
//!
//! The differential-privacy guarantee the accountants report therefore
//! holds for the mathematical mechanism (exact real-valued Gaussian noise
//! from an unpredictable source), not for this implementation.

use diva_nn::{NetworkGrads, ParamGrads};
use diva_tensor::DivaRng;

/// The Gaussian mechanism used by DP-SGD: adds isotropic noise with standard
/// deviation `noise_multiplier × clip_norm` to a (clipped, summed) gradient.
///
/// # Example
///
/// ```
/// use diva_dp::GaussianMechanism;
/// use diva_tensor::DivaRng;
///
/// let mech = GaussianMechanism::new(1.1, 1.0);
/// let mut rng = DivaRng::seed_from_u64(0);
/// let mut grad = vec![0.0f32; 4];
/// mech.add_noise(&mut grad, &mut rng);
/// assert!(grad.iter().any(|&v| v != 0.0));
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GaussianMechanism {
    noise_multiplier: f64,
    clip_norm: f64,
}

impl GaussianMechanism {
    /// Creates a mechanism with noise multiplier σ and sensitivity bound C.
    ///
    /// # Panics
    ///
    /// Panics if either argument is negative or non-finite.
    pub fn new(noise_multiplier: f64, clip_norm: f64) -> Self {
        assert!(
            noise_multiplier >= 0.0 && noise_multiplier.is_finite(),
            "invalid noise multiplier {noise_multiplier}"
        );
        assert!(
            clip_norm > 0.0 && clip_norm.is_finite(),
            "invalid clip norm {clip_norm}"
        );
        Self {
            noise_multiplier,
            clip_norm,
        }
    }

    /// The noise standard deviation `σ·C`.
    pub fn noise_std(&self) -> f64 {
        self.noise_multiplier * self.clip_norm
    }

    /// Adds `N(0, (σC)²)` noise to every coordinate of a flat gradient.
    ///
    /// Draws one key from `rng` (none when `σC = 0`); the result is
    /// byte-identical at any thread count (see the module docs).
    pub fn add_noise(&self, grad: &mut [f32], rng: &mut DivaRng) {
        let std = self.noise_std();
        if std > 0.0 {
            rng.add_gaussian(grad, std);
        }
    }

    /// Adds noise to every per-batch tensor of a [`NetworkGrads`], one
    /// [`Self::add_noise`] call (one key) per tensor in layer and
    /// parameter order.
    ///
    /// Two calls with identically seeded generators therefore produce
    /// identical noise, the property the DP-SGD ≡ DP-SGD(R) equivalence
    /// tests rely on.
    ///
    /// # Panics
    ///
    /// Panics if any layer gradient is per-example (noise is only ever added
    /// after reduction).
    pub fn add_noise_to_grads(&self, grads: &mut NetworkGrads, rng: &mut DivaRng) {
        for layer in &mut grads.layers {
            match layer {
                ParamGrads::None => {}
                ParamGrads::PerBatch(tensors) => {
                    for t in tensors {
                        self.add_noise(t.data_mut(), rng);
                    }
                }
                other => panic!("noise must be added after reduction, got {other:?}"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diva_nn::{GradMode, Layer, Network};
    use diva_tensor::Tensor;

    #[test]
    fn zero_sigma_is_identity() {
        let mech = GaussianMechanism::new(0.0, 1.0);
        let mut rng = DivaRng::seed_from_u64(1);
        let mut g = vec![1.0f32, 2.0, 3.0];
        mech.add_noise(&mut g, &mut rng);
        assert_eq!(g, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn noise_std_scales_with_clip_norm() {
        assert_eq!(GaussianMechanism::new(2.0, 3.0).noise_std(), 6.0);
    }

    #[test]
    fn noise_is_deterministic_per_seed() {
        let mech = GaussianMechanism::new(1.0, 1.0);
        let mut a = vec![0.0f32; 16];
        let mut b = vec![0.0f32; 16];
        mech.add_noise(&mut a, &mut DivaRng::seed_from_u64(7));
        mech.add_noise(&mut b, &mut DivaRng::seed_from_u64(7));
        assert_eq!(a, b);
    }

    #[test]
    fn empirical_std_is_close() {
        let mech = GaussianMechanism::new(1.5, 2.0); // std 3.0
        let mut rng = DivaRng::seed_from_u64(42);
        let mut g = vec![0.0f32; 100_000];
        mech.add_noise(&mut g, &mut rng);
        let mean: f64 = g.iter().map(|&v| f64::from(v)).sum::<f64>() / g.len() as f64;
        let var: f64 = g
            .iter()
            .map(|&v| (f64::from(v) - mean).powi(2))
            .sum::<f64>()
            / g.len() as f64;
        assert!((var.sqrt() - 3.0).abs() < 0.05, "std was {}", var.sqrt());
    }

    /// `erfc` by the Numerical Recipes Chebyshev fit (fractional error
    /// below 1.2e-7, far under the tolerances below); std has no `erf`.
    fn erfc(x: f64) -> f64 {
        let z = x.abs();
        let t = 1.0 / (1.0 + 0.5 * z);
        let poly = -1.265_512_23
            + t * (1.000_023_68
                + t * (0.374_091_96
                    + t * (0.096_784_18
                        + t * (-0.186_288_06
                            + t * (0.278_868_07
                                + t * (-1.135_203_98
                                    + t * (1.488_515_87
                                        + t * (-0.822_152_23 + t * 0.170_872_77))))))));
        let r = t * (-z * z + poly).exp();
        if x >= 0.0 {
            r
        } else {
            2.0 - r
        }
    }

    fn normal_cdf(x: f64) -> f64 {
        0.5 * erfc(-x / std::f64::consts::SQRT_2)
    }

    /// `n` unit-variance noise draws through `add_noise`.
    fn unit_noise(n: usize, seed: u64) -> Vec<f64> {
        let mut g = vec![0.0f32; n];
        GaussianMechanism::new(1.0, 1.0).add_noise(&mut g, &mut DivaRng::seed_from_u64(seed));
        g.into_iter().map(f64::from).collect()
    }

    /// One-sample Kolmogorov–Smirnov against N(0, 1): D stays below the
    /// 1% critical value `1.63/√n`.
    #[test]
    fn noise_passes_kolmogorov_smirnov() {
        let n = 1 << 20;
        let mut z = unit_noise(n, 2024);
        z.sort_by(f64::total_cmp);
        let d = z
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                let cdf = normal_cdf(x);
                (cdf - i as f64 / n as f64).max((i + 1) as f64 / n as f64 - cdf)
            })
            .fold(0.0, f64::max);
        let critical = 1.63 / (n as f64).sqrt();
        assert!(d < critical, "KS D = {d}, 1% critical value {critical}");
    }

    /// `E[z²] = 1` and `E[z⁴] = 3` within 5σ of their sampling spread
    /// (`Var z² = 2`, `Var z⁴ = 96`). The fourth moment catches a broken
    /// wedge test, which shifts mass too little for KS at this `n`.
    #[test]
    fn noise_moments_match_the_normal() {
        let n = 1 << 20;
        let z = unit_noise(n, 2026);
        let moment = |k: i32| z.iter().map(|x| x.powi(k)).sum::<f64>() / n as f64;
        for (k, expected, var) in [(2, 1.0, 2.0), (4, 3.0, 96.0)] {
            let m = moment(k);
            let bound = 5.0 * (var / n as f64).sqrt();
            assert!(
                (m - expected).abs() < bound,
                "E[z^{k}] = {m}, expected {expected} ± {bound}"
            );
        }
    }

    /// The share of draws beyond the Ziggurat's tail start R matches
    /// `2(1 − Φ(R))` within 5σ of the binomial spread, so the tail
    /// fallback neither truncates nor over-produces.
    #[test]
    fn tail_rate_matches_the_normal() {
        const R: f64 = 3.654_152_885_361_009;
        let n = 1 << 20;
        let tail = unit_noise(n, 2025).iter().filter(|z| z.abs() > R).count() as f64;
        let p = erfc(R / std::f64::consts::SQRT_2);
        assert!((p - 2.58e-4).abs() < 1e-6, "2(1 − Φ(R)) = {p}");
        let mean = n as f64 * p;
        let sd = (mean * (1.0 - p)).sqrt();
        assert!(
            (tail - mean).abs() < 5.0 * sd,
            "{tail} draws beyond R, expected {mean} ± {sd}"
        );
    }

    /// Successive calls, and same-length tensors of one `NetworkGrads`,
    /// each draw a fresh key, so none of them repeats another's noise.
    #[test]
    fn every_call_and_every_tensor_draws_its_own_stream() {
        let mech = GaussianMechanism::new(1.0, 1.0);
        let mut rng = DivaRng::seed_from_u64(11);
        let mut a = vec![0.0f32; 64];
        let mut b = vec![0.0f32; 64];
        mech.add_noise(&mut a, &mut rng);
        mech.add_noise(&mut b, &mut rng);
        assert_ne!(a, b);

        // Zeroed per-batch gradients shaped [1, 64], [64], none, [64, 1]:
        // three tensors of one length, two of them in the same layer.
        let net = Network::new(vec![
            Layer::dense(1, 64, true, &mut rng),
            Layer::relu(),
            Layer::dense(64, 1, false, &mut rng),
        ]);
        let (y, caches) = net.forward(&Tensor::zeros(&[2, 1]));
        let mut grads = net.backward(&caches, &y, GradMode::PerBatch);
        for layer in &mut grads.layers {
            if let ParamGrads::PerBatch(ts) = layer {
                ts.iter_mut().for_each(|t| t.scale(0.0));
            }
        }
        mech.add_noise_to_grads(&mut grads, &mut rng);
        let noise: Vec<&[f32]> = grads
            .layers
            .iter()
            .filter_map(|l| match l {
                ParamGrads::PerBatch(ts) => Some(ts.iter().map(|t| t.data())),
                _ => None,
            })
            .flatten()
            .collect();
        assert_eq!(noise.len(), 3);
        assert!(noise.iter().all(|x| x.len() == 64));
        for (i, x) in noise.iter().enumerate() {
            assert!(x.iter().all(|&v| v != 0.0));
            for y in &noise[i + 1..] {
                assert_ne!(x, y);
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid noise multiplier")]
    fn negative_sigma_panics() {
        let _ = GaussianMechanism::new(-1.0, 1.0);
    }
}
