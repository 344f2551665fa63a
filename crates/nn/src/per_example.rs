//! Storage lifecycle and norm kernel of vanilla DP-SGD's per-example
//! gradients.
//!
//! Vanilla DP-SGD materializes one weight gradient per example (paper
//! Section III-A: a 265 k-parameter MLP at `B = 32` writes 32 MiB per step).
//! Two things here keep that traffic at its floor:
//!
//! * **One recycled set per thread.** When a [`crate::NetworkGrads`] holding
//!   per-example gradients drops, its storage is parked in a one-set,
//!   per-thread slot. The next [`crate::Network::backward`] in `PerExample`
//!   mode on that thread overwrites it in place when its shapes match; a
//!   shape mismatch, or a backward in any other mode, frees it before any
//!   new work starts. The slot is per thread rather than per trainer so that
//!   several live trainers share one set instead of each pinning their own.
//! * **One norm order.** [`SqNorm`] accumulates squares in `LANES` f64
//!   lanes keyed by flat element index, then combines the lanes in a fixed
//!   tree. Every per-example norm — written cache-hot by the dense writer,
//!   or recomputed from stored tensors — goes through it, so the result does
//!   not depend on who computed it or on the thread count.

use std::cell::Cell;

use diva_tensor::{parallel, Tensor};

use crate::layer::ParamGrads;

/// Independent f64 accumulators of [`SqNorm`]: enough for the adds to
/// pipeline on wide vector units. Part of the numeric definition.
const LANES: usize = 16;

/// Running sum of squares over a flat `f32` sequence, in the fixed lane
/// order described in the module docs.
#[derive(Debug, Default)]
pub(crate) struct SqNorm([f64; LANES]);

impl SqNorm {
    /// Adds the squares of `data`, which continues the sequence. Every call
    /// but the last must pass a multiple of `LANES` elements, so that
    /// element `k` of the whole sequence always lands in lane `k % LANES`.
    pub(crate) fn add(&mut self, data: &[f32]) {
        let mut chunks = data.chunks_exact(LANES);
        for chunk in &mut chunks {
            for (acc, &v) in self.0.iter_mut().zip(chunk) {
                let v = f64::from(v);
                *acc += v * v;
            }
        }
        for (acc, &v) in self.0.iter_mut().zip(chunks.remainder()) {
            let v = f64::from(v);
            *acc += v * v;
        }
    }

    /// Combines the lanes pairwise in a fixed tree.
    pub(crate) fn finish(self) -> f64 {
        let mut width = LANES;
        let mut lanes = self.0;
        while width > 1 {
            width /= 2;
            for i in 0..width {
                lanes[i] += lanes[i + width];
            }
        }
        lanes[0]
    }
}

/// Rows of a `(rows, cols)` gradient the dense writer emits between two
/// norm updates: a multiple of `LANES`, so each block holds a multiple of
/// `LANES` elements whatever `cols` is, and small enough that the block is
/// still in L1 when its squares are summed.
pub(crate) const NORM_BLOCK_ROWS: usize = LANES;

/// The squared L2 norm of one tensor in the fixed lane order.
pub(crate) fn sq_norm(data: &[f32]) -> f64 {
    let mut acc = SqNorm::default();
    acc.add(data);
    acc.finish()
}

/// The squared L2 norm of one example's gradient tensors, summed in
/// parameter order.
pub(crate) fn example_sq_norm(tensors: &[Tensor]) -> f64 {
    tensors.iter().fold(0.0, |acc, t| acc + sq_norm(t.data()))
}

/// Per-example squared norms of one layer's gradients: `out[example]`,
/// empty for a layer without parameters.
///
/// # Panics
///
/// Panics on per-batch gradients.
pub(crate) fn layer_sq_norms(grads: &ParamGrads) -> Vec<f64> {
    match grads {
        ParamGrads::None => Vec::new(),
        ParamGrads::PerExample(per_ex) => {
            parallel::par_map(per_ex.len(), |i| example_sq_norm(&per_ex[i]))
        }
        ParamGrads::SqNorms(n) => n.clone(),
        ParamGrads::PerBatch(_) => panic!("per-example norms requested from per-batch gradients"),
    }
}

thread_local! {
    /// The parked per-example gradient set of this thread, if any.
    static SLOT: Cell<Option<Vec<ParamGrads>>> = const { Cell::new(None) };
}

/// Parks `set` in this thread's slot, freeing the set it displaces.
/// During thread teardown, when the slot is gone, `set` is simply freed.
pub(crate) fn park(set: Vec<ParamGrads>) {
    let _displaced = SLOT.try_with(|slot| slot.replace(Some(set)));
}

/// Takes this thread's parked set, leaving the slot empty.
pub(crate) fn take_parked() -> Option<Vec<ParamGrads>> {
    SLOT.try_with(Cell::take).ok().flatten()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocked_accumulation_matches_one_pass() {
        let data: Vec<f32> = (0..1000).map(|i| (i as f32 * 0.37).sin()).collect();
        let mut blocked = SqNorm::default();
        for block in data.chunks(3 * LANES) {
            blocked.add(block);
        }
        assert_eq!(blocked.finish().to_bits(), sq_norm(&data).to_bits());
        let exact: f64 = data.iter().map(|&v| f64::from(v) * f64::from(v)).sum();
        assert!((sq_norm(&data) - exact).abs() <= 1e-12 * exact);
        assert_eq!(sq_norm(&[]), 0.0);
    }

    #[test]
    fn slot_holds_one_set() {
        assert!(take_parked().is_none());
        park(vec![ParamGrads::None]);
        park(vec![ParamGrads::None, ParamGrads::None]);
        assert_eq!(take_parked().map(|s| s.len()), Some(2));
        assert!(take_parked().is_none());
    }
}
