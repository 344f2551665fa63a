//! Seeded property tests for the RDP accountant and the clipping /
//! reweighting machinery — the DP-side contract that guards the fused
//! convolution backward. Configurations are drawn from a seeded generator
//! (no proptest in the approved dependency set), so every run checks the
//! same deterministic sample:
//!
//! * ε is monotone increasing in steps and monotone decreasing in σ, for
//!   random `(q, σ, steps)` draws.
//! * Clip factors never exceed 1, never vanish for positive norms, and
//!   always bring the clipped norm under the bound.
//! * DP-SGD(R)'s fused reweighted backward (norms-only pass + reweighted
//!   per-batch pass) matches the two-pass reference that materializes
//!   per-example gradients and reduces them — on CNNs, so the shared patch
//!   buffer and packed-B reuse sit on the tested path.

use diva_dp::{clip_factors, event_epsilon, AccountantKind, DpEvent};
use diva_nn::{GradMode, Layer, Network};
use diva_tensor::{softmax_cross_entropy, DivaRng, Tensor};

/// ε of a DP-SGD run under the RDP accountant.
fn rdp_epsilon(q: f64, sigma: f64, steps: u64, delta: f64) -> f64 {
    event_epsilon(
        AccountantKind::Rdp,
        &DpEvent::dp_sgd(q, sigma, steps),
        delta,
    )
    .unwrap()
}

/// ε must grow strictly with composition length for any valid mechanism.
#[test]
fn epsilon_is_monotone_in_steps() {
    let mut gen = DivaRng::seed_from_u64(0xd1);
    for _ in 0..20 {
        let q = 0.001 + 0.2 * f64::from(gen.uniform(0.0, 1.0));
        let sigma = 0.5 + 2.5 * f64::from(gen.uniform(0.0, 1.0));
        let delta = 1e-5;
        let mut prev = 0.0;
        for steps in [50u64, 200, 800, 3200, 12800] {
            let eps = rdp_epsilon(q, sigma, steps, delta);
            assert!(
                eps > prev,
                "epsilon not increasing in steps: q={q} sigma={sigma} steps={steps}: \
                 {eps} <= {prev}"
            );
            prev = eps;
        }
    }
}

/// More noise can never cost more privacy: ε is non-increasing in σ.
#[test]
fn epsilon_is_monotone_in_sigma() {
    let mut gen = DivaRng::seed_from_u64(0xd2);
    for _ in 0..20 {
        let q = 0.001 + 0.1 * f64::from(gen.uniform(0.0, 1.0));
        let steps = 100 + gen.index(5_000) as u64;
        let delta = 1e-5;
        let mut prev = f64::INFINITY;
        for sigma in [0.6, 0.9, 1.4, 2.2, 3.5] {
            let eps = rdp_epsilon(q, sigma, steps, delta);
            assert!(
                eps < prev,
                "epsilon not decreasing in sigma: q={q} steps={steps} sigma={sigma}: \
                 {eps} >= {prev}"
            );
            prev = eps;
        }
    }
}

/// Clip factors are in (0, 1], equal 1 exactly when the norm is within the
/// bound, and always bring the clipped norm under `C` — across random norm
/// magnitudes spanning twelve orders.
#[test]
fn clip_factors_stay_in_unit_interval_and_bound_norms() {
    let mut gen = DivaRng::seed_from_u64(0xd4);
    for _ in 0..40 {
        let c = 10f64.powf(f64::from(gen.uniform(-3.0, 3.0)));
        let n = 1 + gen.index(32);
        let sq_norms: Vec<f64> = (0..n)
            .map(|_| 10f64.powf(f64::from(gen.uniform(-6.0, 6.0))))
            .collect();
        let summary = clip_factors(&sq_norms, c);
        assert_eq!(summary.factors.len(), n);
        let mut clipped = 0;
        for (i, (&f, &sq)) in summary.factors.iter().zip(&sq_norms).enumerate() {
            assert!(f > 0.0 && f <= 1.0, "factor {f} outside (0,1] at {i}");
            let norm = sq.sqrt();
            assert!(
                norm * f <= c * (1.0 + 1e-12),
                "clipped norm {} exceeds bound {c}",
                norm * f
            );
            if norm <= c {
                assert_eq!(f, 1.0, "in-bound example {i} was scaled");
            } else {
                clipped += 1;
            }
        }
        assert_eq!(summary.clipped_count, clipped);
    }
}

fn random_cnn(gen: &mut DivaRng) -> (Network, usize, usize, usize) {
    let cin = 1 + gen.index(3);
    let cout = 2 + gen.index(5);
    let hw = 6 + gen.index(5); // 6..=10
    let classes = 3;
    let seed = gen.index(1_000) as u64;
    let mut rng = DivaRng::seed_from_u64(seed);
    let net = Network::new(vec![
        Layer::conv2d(cin, cout, 3, 1, 1, hw, hw, &mut rng),
        Layer::relu(),
        Layer::flatten(),
        Layer::dense(cout * hw * hw, classes, true, &mut rng),
    ]);
    (net, cin, hw, classes)
}

/// The core DP-SGD(R) identity on CNNs: clip factors from the `NormOnly`
/// pass, applied as per-example loss scales through the fused reweighted
/// backward, reproduce the two-pass reference (materialize per-example
/// gradients, scale, reduce) — and the `NormOnly` norms themselves match
/// the materialized ones.
#[test]
fn reweighted_backward_matches_two_pass_reference_on_cnns() {
    let mut gen = DivaRng::seed_from_u64(0xd5);
    for case in 0..8 {
        let (net, cin, hw, classes) = random_cnn(&mut gen);
        let b = 1 + gen.index(6);
        let clip = 0.05 + 2.0 * f64::from(gen.uniform(0.0, 1.0));
        let mut rng = DivaRng::seed_from_u64(0x5eed ^ case);
        let x = Tensor::uniform(&[b, cin, hw, hw], -1.0, 1.0, &mut rng);
        let labels: Vec<usize> = (0..b).map(|i| i % classes).collect();
        let (y, caches) = net.forward(&x);
        let loss = softmax_cross_entropy(&y, &labels);

        // Pass 1: norms only (fused patch-reuse path).
        let norm_pass = net.backward(&caches, &loss.grad_logits, GradMode::NormOnly);
        let norms = norm_pass.per_example_sq_norms();

        // Reference: materialized per-example gradients.
        let per_ex = net.backward(&caches, &loss.grad_logits, GradMode::PerExample);
        let ref_norms = per_ex.per_example_sq_norms();
        for (i, (a, r)) in norms.iter().zip(&ref_norms).enumerate() {
            assert!(
                (a - r).abs() <= 1e-5 * r.max(1.0),
                "case {case}: norm {i} diverged: {a} vs {r}"
            );
        }

        let summary = clip_factors(&norms, clip);
        // Pass 2: fused reweighted per-batch backward.
        let fused = net.backward_reweighted(&caches, &loss.grad_logits, &summary.factors);
        // Reference: scale the materialized per-example gradients, reduce.
        let reference = per_ex.weighted_reduce(&summary.factors);
        let a = fused.flatten_per_batch();
        let r = reference.flatten_per_batch();
        assert_eq!(a.len(), r.len());
        for (i, (fa, fr)) in a.iter().zip(&r).enumerate() {
            assert!(
                (fa - fr).abs() <= 1e-3,
                "case {case}: reweighted grad {i} diverged: {fa} vs {fr}"
            );
        }
    }
}
