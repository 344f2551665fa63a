//! Elementwise activations, loss functions and small vector utilities.

// Indexed loops below mirror hardware/tensor coordinates; iterator
// rewrites would obscure the (row, column, timestep) structure.
#![allow(clippy::needless_range_loop)]

use crate::tensor::Tensor;

/// Applies ReLU elementwise, returning a new tensor.
pub fn relu(x: &Tensor) -> Tensor {
    let mut out = x.clone();
    for v in out.data_mut() {
        // Comparison (not `f32::max`) preserves NaN propagation.
        if *v < 0.0 {
            *v = 0.0;
        }
    }
    out
}

/// Backpropagates through ReLU: zeroes gradient entries where the forward
/// input was non-positive.
///
/// # Panics
///
/// Panics if the shapes of `grad_out` and `input` differ.
pub fn relu_backward(grad_out: &Tensor, input: &Tensor) -> Tensor {
    assert_eq!(
        grad_out.shape(),
        input.shape(),
        "relu_backward shape mismatch: {} vs {}",
        grad_out.shape(),
        input.shape()
    );
    let mut out = grad_out.clone();
    for (g, &x) in out.data_mut().iter_mut().zip(input.data()) {
        if x <= 0.0 {
            *g = 0.0;
        }
    }
    out
}

/// Adds `scale * src` into `dst` elementwise.
///
/// # Panics
///
/// Panics if shapes differ.
pub fn add_scaled(dst: &mut Tensor, src: &Tensor, scale: f32) {
    assert_eq!(
        dst.shape(),
        src.shape(),
        "add_scaled shape mismatch: {} vs {}",
        dst.shape(),
        src.shape()
    );
    axpy(dst.data_mut(), src.data(), scale);
}

/// `dst[k] = fma(src[k], scale, dst[k])` for every `k`: the axpy kernel at
/// the heart of every weighted clip-reduce, on slices, so a caller can run
/// it tile by tile.
///
/// # Panics
///
/// Panics if the lengths differ.
#[inline]
pub fn axpy(dst: &mut [f32], src: &[f32], scale: f32) {
    assert_eq!(dst.len(), src.len(), "axpy length mismatch");
    // A plain zipped loop: the compiler vectorizes and unrolls it on its
    // own, and it ran the tiled clip-reduce faster than 16-wide strips.
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = s.mul_add(scale, *d);
    }
}

/// The result of a fused softmax + cross-entropy evaluation.
#[derive(Clone, Debug)]
pub struct SoftmaxCrossEntropy {
    /// Mean loss over the batch.
    pub mean_loss: f64,
    /// Per-example losses, length = batch size.
    pub per_example_loss: Vec<f64>,
    /// Gradient of the *per-example* loss with respect to the logits, shape
    /// `(B, classes)`. Note: NOT divided by the batch size; DP-SGD needs the
    /// raw per-example gradients (paper Algorithm 1 line 19).
    pub grad_logits: Tensor,
}

/// Computes softmax cross-entropy over logits of shape `(B, classes)` against
/// integer labels.
///
/// Returns per-example losses and the per-example gradient of the loss with
/// respect to the logits (`softmax(z) - onehot(y)`), which downstream code
/// scales as needed (SGD divides by `B` during reduction; DP-SGD clips first).
///
/// # Panics
///
/// Panics if `logits` is not rank 2, `labels.len()` differs from the batch
/// size, or a label is out of range.
pub fn softmax_cross_entropy(logits: &Tensor, labels: &[usize]) -> SoftmaxCrossEntropy {
    let (b, c) = logits.dims2();
    assert_eq!(labels.len(), b, "expected {b} labels, got {}", labels.len());
    let mut grad = Tensor::zeros(&[b, c]);
    let mut per_example_loss = Vec::with_capacity(b);
    for i in 0..b {
        let row = logits.row(i);
        let label = labels[i];
        assert!(label < c, "label {label} out of range for {c} classes");
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f64> = row.iter().map(|&z| f64::from(z - max).exp()).collect();
        let z: f64 = exps.iter().sum();
        let log_z = z.ln();
        let loss = log_z - f64::from(row[label] - max);
        per_example_loss.push(loss);
        let grow = &mut grad.data_mut()[i * c..(i + 1) * c];
        for j in 0..c {
            let p = (exps[j] / z) as f32;
            grow[j] = if j == label { p - 1.0 } else { p };
        }
    }
    let mean_loss = per_example_loss.iter().sum::<f64>() / b as f64;
    SoftmaxCrossEntropy {
        mean_loss,
        per_example_loss,
        grad_logits: grad,
    }
}

/// Returns the index of the maximum entry in each row of a rank-2 tensor.
///
/// # Panics
///
/// Panics if `t` is not rank 2 or has zero columns.
pub fn argmax_rows(t: &Tensor) -> Vec<usize> {
    let (b, c) = t.dims2();
    assert!(c > 0, "argmax over zero columns");
    (0..b)
        .map(|i| {
            let row = t.row(i);
            row.iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(j, _)| j)
                .unwrap_or(0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DivaRng;

    #[test]
    fn relu_clamps_negatives_only() {
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[3]);
        assert_eq!(relu(&x).data(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn relu_backward_masks_gradient() {
        let x = Tensor::from_vec(vec![-1.0, 0.5, 0.0], &[3]);
        let g = Tensor::from_vec(vec![10.0, 10.0, 10.0], &[3]);
        assert_eq!(relu_backward(&g, &x).data(), &[0.0, 10.0, 0.0]);
    }

    #[test]
    fn softmax_gradient_matches_finite_difference() {
        let mut rng = DivaRng::seed_from_u64(37);
        let mut logits = Tensor::uniform(&[2, 4], -1.0, 1.0, &mut rng);
        let labels = vec![1usize, 3usize];
        let out = softmax_cross_entropy(&logits, &labels);
        let eps = 1e-3f32;
        for idx in 0..8 {
            let orig = logits.data()[idx];
            logits.data_mut()[idx] = orig + eps;
            let up: f64 = softmax_cross_entropy(&logits, &labels)
                .per_example_loss
                .iter()
                .sum();
            logits.data_mut()[idx] = orig - eps;
            let dn: f64 = softmax_cross_entropy(&logits, &labels)
                .per_example_loss
                .iter()
                .sum();
            logits.data_mut()[idx] = orig;
            let fd = (up - dn) / (2.0 * f64::from(eps));
            let an = f64::from(out.grad_logits.data()[idx]);
            assert!(
                (fd - an).abs() < 1e-3,
                "grad mismatch at {idx}: {fd} vs {an}"
            );
        }
    }

    #[test]
    fn softmax_loss_is_log_classes_for_uniform_logits() {
        let logits = Tensor::zeros(&[1, 10]);
        let out = softmax_cross_entropy(&logits, &[4]);
        assert!((out.mean_loss - (10.0f64).ln()).abs() < 1e-6);
    }

    #[test]
    fn argmax_rows_picks_largest() {
        let t = Tensor::from_vec(vec![0.1, 0.9, 0.0, 5.0, -2.0, 3.0], &[2, 3]);
        assert_eq!(argmax_rows(&t), vec![1, 0]);
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]);
        let b = Tensor::from_vec(vec![101.0, 102.0, 103.0], &[1, 3]);
        let ga = softmax_cross_entropy(&a, &[0]);
        let gb = softmax_cross_entropy(&b, &[0]);
        assert!((ga.mean_loss - gb.mean_loss).abs() < 1e-5);
        assert!(ga.grad_logits.max_abs_diff(&gb.grad_logits) < 1e-5);
    }
}
