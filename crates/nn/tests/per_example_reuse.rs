//! Vanilla DP-SGD's per-example gradients: the dense layers write each
//! example's outer product straight into storage recycled from the last
//! per-example set this thread dropped, sum its squared norm while it is
//! still in cache, and all of it must be bitwise what a fresh computation
//! gives — under every GEMM kernel, after any history of earlier backwards,
//! and at any thread count.

use diva_nn::{GradMode, Layer, LayerCache, Network, NetworkGrads, ParamGrads};
use diva_tensor::{matmul_tn, softmax_cross_entropy, Backend, DivaRng, Kernel, Tensor};

const CLASSES: usize = 5;

/// Odd widths, so norm blocks end in partial lane groups, and a hidden
/// layer without bias.
fn mlp(rng: &mut DivaRng) -> Network {
    Network::new(vec![
        Layer::dense(37, 23, true, rng),
        Layer::relu(),
        Layer::dense(23, 17, false, rng),
        Layer::relu(),
        Layer::dense(17, CLASSES, true, rng),
    ])
}

fn cnn(rng: &mut DivaRng) -> Network {
    Network::new(vec![
        Layer::conv2d(1, 4, 3, 1, 1, 6, 6, rng),
        Layer::relu(),
        Layer::flatten(),
        Layer::dense(4 * 36, 9, true, rng),
        Layer::relu(),
        Layer::dense(9, CLASSES, true, rng),
    ])
}

/// A batch with exact `0.0` and `-0.0` inputs sprinkled in.
fn batch(dims: &[usize], rng: &mut DivaRng) -> (Tensor, Vec<usize>) {
    let mut x = Tensor::uniform(dims, -1.0, 1.0, rng);
    for (k, v) in x.data_mut().iter_mut().enumerate() {
        if k % 7 == 3 {
            *v = 0.0;
        } else if k % 11 == 5 {
            *v = -0.0;
        }
    }
    let labels = (0..dims[0]).map(|i| i % CLASSES).collect();
    (x, labels)
}

fn per_example(net: &Network, (x, labels): &(Tensor, Vec<usize>)) -> NetworkGrads {
    let (logits, caches) = net.forward(x);
    let grad = softmax_cross_entropy(&logits, labels).grad_logits;
    net.backward(&caches, &grad, GradMode::PerExample)
}

/// Everything a per-example set exposes, as bits: every tensor, the total
/// norms and the per-layer norms.
#[derive(Debug, PartialEq)]
struct Bits {
    tensors: Vec<u32>,
    norms: Vec<u64>,
    layer_norms: Vec<Vec<u64>>,
}

fn bits(g: &NetworkGrads) -> Bits {
    let mut tensors = Vec::new();
    for layer in &g.layers {
        if let ParamGrads::PerExample(per_ex) = layer {
            for t in per_ex.iter().flatten() {
                tensors.extend(t.data().iter().map(|v| v.to_bits()));
            }
        }
    }
    Bits {
        tensors,
        norms: g
            .per_example_sq_norms()
            .iter()
            .map(|v| v.to_bits())
            .collect(),
        layer_norms: g
            .per_layer_sq_norms()
            .iter()
            .map(|l| l.iter().map(|v| v.to_bits()).collect())
            .collect(),
    }
}

/// The same backward on a new thread, whose parked slot is empty.
fn fresh(net: &Network, data: &(Tensor, Vec<usize>)) -> Bits {
    std::thread::scope(|s| {
        s.spawn(|| bits(&per_example(net, data)))
            .join()
            .expect("fresh backward panicked")
    })
}

fn first_weight_ptr(g: &NetworkGrads) -> *const f32 {
    let ParamGrads::PerExample(per_ex) = &g.layers[0] else {
        panic!("first layer is dense")
    };
    per_ex[0][0].data().as_ptr()
}

/// Each dense example gradient is bitwise the `K = 1` GEMM
/// `matmul_tn(x_iᵀ, g_i)` under every kernel arm (unavailable arms fall
/// back to `Safe`), including the rows a ReLU zeroed and signed-zero inputs.
#[test]
fn dense_tensors_match_the_k1_gemm_under_every_kernel() {
    let mut rng = DivaRng::seed_from_u64(41);
    let net = mlp(&mut rng);
    let (x, labels) = batch(&[6, 37], &mut rng);
    for kernel in [
        Kernel::Reference,
        Kernel::Safe,
        Kernel::Avx2,
        Kernel::Avx512,
    ] {
        Backend::serial().with_kernel(kernel).install(|| {
            let mut inputs = vec![x.clone()];
            let mut caches: Vec<LayerCache> = Vec::new();
            for layer in net.layers() {
                let (y, cache) = layer.forward(inputs.last().expect("starts with x"));
                inputs.push(y);
                caches.push(cache);
            }
            let zeros_after_relu = inputs[2].data().iter().filter(|&&v| v == 0.0).count();
            assert!(zeros_after_relu > 0, "the ReLU zeroed no dense input");

            let per_ex = per_example(&net, &(x.clone(), labels.clone()));
            let mut grad =
                softmax_cross_entropy(inputs.last().expect("logits"), &labels).grad_logits;
            for idx in (0..net.layers().len()).rev() {
                if let (Layer::Dense(d), ParamGrads::PerExample(ex)) =
                    (&net.layers()[idx], &per_ex.layers[idx])
                {
                    for (i, got) in ex.iter().enumerate() {
                        let xi = Tensor::from_vec(inputs[idx].row(i).to_vec(), &[1, d.input()]);
                        let gi = Tensor::from_vec(grad.row(i).to_vec(), &[1, d.output()]);
                        let want = matmul_tn(&xi, &gi);
                        let same = |a: &Tensor, b: &[f32]| {
                            a.data()
                                .iter()
                                .zip(b)
                                .all(|(p, q)| p.to_bits() == q.to_bits())
                        };
                        assert!(same(&got[0], want.data()), "{kernel:?} layer {idx} ex {i}");
                        assert_eq!(got.len(), d.params().len());
                        if let Some(bias) = got.get(1) {
                            assert!(same(bias, gi.data()), "{kernel:?} bias {idx} ex {i}");
                        }
                    }
                }
                grad = net.layers()[idx]
                    .backward(&caches[idx], &grad, GradMode::PerBatch)
                    .grad_input
                    .expect("input gradient requested");
            }
        });
    }
}

/// Backwards at B = 32 → 32 → 7 → 32, with a dropped clone and a
/// `NormOnly` pass in between, each give bitwise what a fresh thread gives;
/// the second one overwrites the storage the first one parked.
#[test]
fn recycled_storage_matches_a_fresh_thread() {
    let mut rng = DivaRng::seed_from_u64(42);
    let net = mlp(&mut rng);
    let a = batch(&[32, 37], &mut rng);
    let b = batch(&[32, 37], &mut rng);
    let small = batch(&[7, 37], &mut rng);
    let c = batch(&[32, 37], &mut rng);

    let first = per_example(&net, &a);
    assert_eq!(bits(&first), fresh(&net, &a));
    let parked = first_weight_ptr(&first);
    drop(first);

    let second = per_example(&net, &b);
    assert_eq!(
        first_weight_ptr(&second),
        parked,
        "same shapes reuse the set"
    );
    assert_eq!(bits(&second), fresh(&net, &b));
    drop(second);

    let shrunk = per_example(&net, &small);
    assert_eq!(bits(&shrunk), fresh(&net, &small));
    let copy = shrunk.clone();
    drop(shrunk);
    drop(copy);

    let (logits, caches) = net.forward(&c.0);
    let grad = softmax_cross_entropy(&logits, &c.1).grad_logits;
    let norm_only = net.backward(&caches, &grad, GradMode::NormOnly);
    assert_eq!(norm_only.per_example_sq_norms().len(), 32);

    let last = per_example(&net, &c);
    assert_eq!(bits(&last), fresh(&net, &c));
}

/// The lane-order norms stay within 1e-12 relative of a sequential f64 sum
/// of `Tensor::squared_norm` over every layer and parameter.
#[test]
fn norms_match_the_sequential_sum() {
    let mut rng = DivaRng::seed_from_u64(43);
    for (net, dims) in [
        (mlp(&mut rng), vec![9, 37]),
        (cnn(&mut rng), vec![9, 1, 6, 6]),
    ] {
        let data = batch(&dims, &mut rng);
        let g = per_example(&net, &data);
        for (i, got) in g.per_example_sq_norms().iter().enumerate() {
            let want: f64 = g
                .layers
                .iter()
                .filter_map(|l| match l {
                    ParamGrads::PerExample(per_ex) => {
                        Some(per_ex[i].iter().map(Tensor::squared_norm).sum::<f64>())
                    }
                    _ => None,
                })
                .sum();
            assert!(
                (got - want).abs() <= 1e-12 * want,
                "example {i}: {got} vs {want}"
            );
        }
    }
}

/// The per-layer norms, added in layer order, are bitwise the whole-example
/// norms: one norm definition serves flat and per-layer clipping.
#[test]
fn per_layer_norms_add_up_to_the_example_norms() {
    let mut rng = DivaRng::seed_from_u64(44);
    for (net, dims) in [
        (mlp(&mut rng), vec![11, 37]),
        (cnn(&mut rng), vec![11, 1, 6, 6]),
    ] {
        let g = per_example(&net, &batch(&dims, &mut rng));
        let mut summed: Option<Vec<f64>> = None;
        for layer in g.per_layer_sq_norms().into_iter().filter(|l| !l.is_empty()) {
            summed = Some(match summed {
                None => layer,
                Some(acc) => acc.iter().zip(&layer).map(|(a, b)| a + b).collect(),
            });
        }
        let summed: Vec<u64> = summed
            .expect("has parameters")
            .iter()
            .map(|v| v.to_bits())
            .collect();
        let total: Vec<u64> = g
            .per_example_sq_norms()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(summed, total);
    }
}

/// Tensors, norms and the clipped reduce are bitwise the same serially and
/// at 2 and 5 threads.
#[test]
fn serial_and_threaded_runs_are_bit_identical() {
    let mut rng = DivaRng::seed_from_u64(45);
    for (net, dims) in [
        (mlp(&mut rng), vec![33, 37]),
        (cnn(&mut rng), vec![33, 1, 6, 6]),
    ] {
        let data = batch(&dims, &mut rng);
        let run = |backend: Backend| {
            backend.install(|| {
                let g = per_example(&net, &data);
                let weights: Vec<f64> = g
                    .per_example_sq_norms()
                    .iter()
                    .map(|s| (0.5 / s.sqrt()).min(1.0))
                    .collect();
                let reduced: Vec<u32> = g
                    .weighted_reduce(&weights)
                    .flatten_per_batch()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                (bits(&g), reduced)
            })
        };
        let serial = run(Backend::serial());
        for threads in [2, 5] {
            assert_eq!(
                run(Backend::with_threads(threads)),
                serial,
                "{threads} threads"
            );
        }
    }
}
