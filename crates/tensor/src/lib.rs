//! Dense `f32` tensor substrate for the DiVa reproduction.
//!
//! This crate provides the minimal linear-algebra toolkit needed to implement
//! DP-SGD from scratch (see the `diva-nn` and `diva-dp` crates): row-major
//! dense tensors, GEMM in all transpose flavours, `im2col`/`col2im` lowering
//! of convolutions (the transformation the paper relies on to express every
//! training step as GEMM, Section II-D of the paper), elementwise kernels,
//! reductions, and a seedable random-number facility including a Gaussian
//! sampler (Box–Muller; implemented here because `rand_distr` is not part of
//! the approved dependency set).
//!
//! The crate uses no external BLAS, and unsafe code is denied crate-wide
//! except at two narrow, audited sites: the lifetime erasure inside the
//! persistent worker pool (`pool` module — sound because a region never
//! returns before all its tasks finish) and the AVX2+FMA intrinsics kernel
//! (`simd` module, compiled only under the `simd` cargo feature). GEMM is a
//! cache-blocked, register-tiled, multi-threaded kernel (see the `gemm`
//! module and [`parallel`]): the safe micro-kernel is written so the
//! autovectorizer emits wide FMA code, the optional explicit-SIMD kernel is
//! bit-identical to it and runtime-detected, and the seed's scalar loop is
//! retained as [`matmul_reference`] for parity testing and benchmarking.
//!
//! # Feature flags
//!
//! * `simd` — compiles the explicit AVX2+FMA and AVX-512 6×16
//!   micro-kernels ([`simd_available`], [`avx512_available`]). Off by
//!   default; results are bit-identical with the feature on or off, on any
//!   CPU.
//!
//! # Execution policy
//!
//! One [`Backend`] value decides how a computation executes: its thread
//! count and, optionally, a forced GEMM micro-kernel arm ([`Kernel`]).
//! [`Backend::install`] scopes it to a closure, and every parallel region
//! carries it to the workers that run its tasks. The crate holds no
//! mutable process-global configuration; the only process-wide value is
//! the default thread count (`DIVA_NUM_THREADS`, else the core count),
//! read once.
//!
//! # Example
//!
//! ```
//! use diva_tensor::{Tensor, matmul};
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::eye(2);
//! let c = matmul(&a, &b);
//! assert_eq!(c.data(), a.data());
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod bf16;
mod conv;
pub mod fft;
mod gemm;
mod matmul;
mod ops;
pub mod parallel;
mod pool;
mod rng;
mod shape;
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod simd;
mod tensor;

pub use bf16::{round_bf16, BF16_MAX_RELATIVE_ERROR};
pub use conv::{
    col2im, conv2d, conv2d_backward_data, conv2d_backward_data_from_rows, conv2d_backward_weight,
    im2col, nchw_to_rows, Conv2dGeom, PatchBuffer,
};
pub use gemm::{avx512_available, avx512_enabled, simd_available, simd_enabled, Kernel, PackCache};
pub use matmul::{
    matmul, matmul_nt, matmul_reference, matmul_tn, matmul_tt, outer_product_accumulate,
};
pub use ops::{
    add_scaled, argmax_rows, relu, relu_backward, softmax_cross_entropy, SoftmaxCrossEntropy,
};
pub use parallel::Backend;
pub use rng::DivaRng;
pub use shape::Shape;
pub use tensor::Tensor;
