//! The two training workloads: a closed loop with one trainer running
//! private steps on a fixed network and a seeded dataset.
//!
//! Training runs in *episodes*: each starts from the same initial
//! parameters and noise seed and replays the same shuffled batches, so every
//! completed episode must end on bit-identical parameters however many of
//! them fit in the window. That keeps the output digest and the held-out
//! accuracy check independent of how fast the host is.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use diva_dp::{clip_factors, make_blobs, DpTrainer, GaussianMechanism, TrainingAlgorithm};
use diva_nn::{GradMode, Layer, Network, NetworkGrads, ParamGrads};
use diva_tensor::parallel::pool_stats;
use diva_tensor::{argmax_rows, softmax_cross_entropy, Backend, DivaRng, Tensor};

use crate::host::{peak_rss_mib, ProcSample};
use crate::stats::{median, percentile, Fnv1a};
use crate::trace::Tracer;
use crate::{Check, Outcome};

const BATCH: usize = 32;
const CLASSES: usize = 10;
const CLIP_NORM: f64 = 1.0;
const NOISE_MULTIPLIER: f64 = 1.1;
const TRAIN_EXAMPLES: usize = 2048;
const HELD_OUT_EXAMPLES: usize = 512;
/// Repetitions of the set-up whose median is `setup_s`.
const SETUP_REPEATS: usize = 3;
/// Steps both backends run before their parameters are compared.
const BACKEND_CHECK_STEPS: usize = 3;

/// Which training workload to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Model {
    /// 256-512-256-10 MLP under vanilla DP-SGD.
    Mlp,
    /// conv 8→16 3×3 → ReLU → maxpool 2 → dense 784→256 → ReLU → dense
    /// 256→10 under DP-SGD(R).
    Cnn,
}

impl Model {
    fn algorithm(self) -> TrainingAlgorithm {
        match self {
            Model::Mlp => TrainingAlgorithm::DpSgd,
            Model::Cnn => TrainingAlgorithm::DpSgdReweighted,
        }
    }

    fn learning_rate(self) -> f32 {
        match self {
            Model::Mlp => 0.3,
            Model::Cnn => 0.1,
        }
    }

    /// Steps per episode: enough to clear the accuracy floor, few enough
    /// that several episodes complete in one window.
    fn episode_steps(self) -> usize {
        match self {
            Model::Mlp => 64,
            Model::Cnn => 128,
        }
    }

    /// Within-class standard deviation of the inputs. The noise σ = 1.1
    /// at B = 32 swamps a 200 k-parameter gradient unless the classes are
    /// well separated; at these spreads an episode reaches ~0.98 held-out
    /// accuracy, far above chance (0.1), so a broken noise sampler or
    /// gradient shows as a failed check.
    fn spread(self) -> f32 {
        match self {
            Model::Mlp => 0.15,
            Model::Cnn => 0.5,
        }
    }

    /// Held-out accuracy every completed episode must reach.
    fn accuracy_floor(self) -> f64 {
        match self {
            Model::Mlp => 0.8,
            Model::Cnn => 0.8,
        }
    }

    fn network(self, rng: &mut DivaRng) -> Network {
        match self {
            Model::Mlp => Network::new(vec![
                Layer::dense(256, 512, true, rng),
                Layer::relu(),
                Layer::dense(512, 256, true, rng),
                Layer::relu(),
                Layer::dense(256, CLASSES, true, rng),
            ]),
            Model::Cnn => Network::new(vec![
                Layer::conv2d(8, 16, 3, 1, 1, 14, 14, rng),
                Layer::relu(),
                Layer::max_pool2d(2),
                Layer::flatten(),
                Layer::dense(784, 256, true, rng),
                Layer::relu(),
                Layer::dense(256, CLASSES, true, rng),
            ]),
        }
    }

    /// `(train, held_out)` examples as `(inputs, labels)`.
    fn data(self, rng: &mut DivaRng) -> ((Tensor, Vec<usize>), (Tensor, Vec<usize>)) {
        let spread = self.spread();
        match self {
            Model::Mlp => {
                let train = make_blobs(TRAIN_EXAMPLES, 256, CLASSES, spread, rng);
                let held = make_blobs(HELD_OUT_EXAMPLES, 256, CLASSES, spread, rng);
                ((train.inputs, train.labels), (held.inputs, held.labels))
            }
            Model::Cnn => {
                let templates = Tensor::uniform(&[CLASSES, 8 * 14 * 14], -1.0, 1.0, rng);
                let train = image_blobs(&templates, TRAIN_EXAMPLES, spread, rng);
                let held = image_blobs(&templates, HELD_OUT_EXAMPLES, spread, rng);
                (train, held)
            }
        }
    }
}

/// `n` 8×14×14 images: a random per-class template plus Gaussian noise.
fn image_blobs(
    templates: &Tensor,
    n: usize,
    spread: f32,
    rng: &mut DivaRng,
) -> (Tensor, Vec<usize>) {
    let stride = 8 * 14 * 14;
    let mut data = Vec::with_capacity(n * stride);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let class = i % CLASSES;
        for &v in templates.row(class) {
            data.push(v + rng.gaussian(0.0, f64::from(spread)) as f32);
        }
        labels.push(class);
    }
    (Tensor::from_vec(data, &[n, 8, 14, 14]), labels)
}

/// Everything a run trains on, generated from the seed.
struct Inputs {
    init: Network,
    batches: Vec<(Tensor, Vec<usize>)>,
    held_out: (Tensor, Vec<usize>),
    noise_rng: DivaRng,
}

fn make_inputs(model: Model, seed: u64) -> Inputs {
    let mut rng = DivaRng::seed_from_u64(seed);
    let init = model.network(&mut rng);
    let ((x, labels), held_out) = model.data(&mut rng);
    let stride: usize = x.shape().dims()[1..].iter().product();
    let mut batch_dims = x.shape().dims().to_vec();
    batch_dims[0] = BATCH;
    let mut order: Vec<usize> = (0..labels.len()).collect();
    let mut batches = Vec::with_capacity(model.episode_steps());
    while batches.len() < model.episode_steps() {
        rng.shuffle(&mut order);
        for chunk in order.chunks_exact(BATCH) {
            if batches.len() == model.episode_steps() {
                break;
            }
            let mut data = Vec::with_capacity(BATCH * stride);
            for &i in chunk {
                data.extend_from_slice(&x.data()[i * stride..(i + 1) * stride]);
            }
            let batch_labels = chunk.iter().map(|&i| labels[i]).collect();
            batches.push((Tensor::from_vec(data, &batch_dims), batch_labels));
        }
    }
    Inputs {
        init,
        batches,
        held_out,
        noise_rng: rng.fork(),
    }
}

fn trainer(model: Model, algorithm: TrainingAlgorithm) -> DpTrainer {
    DpTrainer::builder()
        .algorithm(algorithm)
        .clip_norm(CLIP_NORM)
        .noise_multiplier(NOISE_MULTIPLIER)
        .learning_rate(model.learning_rate())
        .build()
}

/// What a traced step measured besides its spans.
struct StepFacts {
    loss: f64,
    per_example_bytes: usize,
}

/// `DpTrainer::step` replayed as its own sequence of public calls, with a
/// span around each, so phase times measure the same program.
fn traced_step(
    tr: &mut Tracer,
    id: u64,
    trainer: &DpTrainer,
    net: &mut Network,
    (x, labels): &(Tensor, Vec<usize>),
    rng: &mut DivaRng,
) -> StepFacts {
    let cfg = *trainer.config();
    let mechanism = GaussianMechanism::new(cfg.noise_multiplier, cfg.clip_norm);
    let root = tr.begin("dp.step", id, None);
    let parent = Some(root);
    let mut per_example_bytes = 0;
    let (mut grads, loss) = trainer.backend().install(|| {
        let (loss, caches) = tr.span("nn.forward", id, parent, || {
            let (logits, caches) = net.forward(x);
            (softmax_cross_entropy(&logits, labels), caches)
        });
        let grads = match cfg.algorithm {
            TrainingAlgorithm::DpSgd => {
                let per_ex = tr.span("nn.backward_per_example", id, parent, || {
                    net.backward(&caches, &loss.grad_logits, GradMode::PerExample)
                });
                per_example_bytes = per_example_grad_bytes(&per_ex);
                let sq = tr.span("nn.sq_norms", id, parent, || per_ex.per_example_sq_norms());
                let clip = tr.span("dp.clip", id, parent, || clip_factors(&sq, cfg.clip_norm));
                tr.span("nn.weighted_reduce", id, parent, || {
                    per_ex.weighted_reduce(&clip.factors)
                })
            }
            TrainingAlgorithm::DpSgdReweighted => {
                let norm_pass = tr.span("nn.backward_norm_only", id, parent, || {
                    net.backward(&caches, &loss.grad_logits, GradMode::NormOnly)
                });
                let sq = tr.span("nn.sq_norms", id, parent, || {
                    norm_pass.per_example_sq_norms()
                });
                let clip = tr.span("dp.clip", id, parent, || clip_factors(&sq, cfg.clip_norm));
                tr.span("nn.backward_reweighted", id, parent, || {
                    net.backward_reweighted(&caches, &loss.grad_logits, &clip.factors)
                })
            }
            TrainingAlgorithm::Sgd => unreachable!("the benchmark trains privately"),
        };
        (grads, loss.mean_loss)
    });
    tr.span("dp.noise", id, parent, || {
        mechanism.add_noise_to_grads(&mut grads, rng)
    });
    tr.span("dp.scale", id, parent, || {
        let b = x.shape().dim(0);
        for layer in &mut grads.layers {
            if let ParamGrads::PerBatch(tensors) = layer {
                for t in tensors {
                    t.scale(1.0 / b as f32);
                }
            }
        }
        // The step's reported update norm.
        let sq: f64 = grads
            .flatten_per_batch()
            .iter()
            .map(|&v| f64::from(v) * f64::from(v))
            .sum();
        std::hint::black_box(sq.sqrt());
    });
    tr.span("nn.apply_update", id, parent, || {
        net.apply_update(&grads, cfg.learning_rate)
    });
    tr.end(root);
    StepFacts {
        loss,
        per_example_bytes,
    }
}

fn per_example_grad_bytes(grads: &NetworkGrads) -> usize {
    grads
        .layers
        .iter()
        .map(|g| match g {
            ParamGrads::PerExample(per_ex) => per_ex
                .iter()
                .flat_map(|ts| ts.iter().map(|t| t.len() * 4))
                .sum(),
            _ => 0,
        })
        .sum()
}

fn params_digest(net: &Network) -> Fnv1a {
    let mut h = Fnv1a::default();
    for layer in net.layers() {
        for p in layer.params() {
            for v in p.data() {
                h.write(&v.to_bits().to_le_bytes());
            }
        }
    }
    h
}

fn same_params(a: &Network, b: &Network) -> bool {
    a.layers().iter().zip(b.layers()).all(|(la, lb)| {
        la.params().iter().zip(lb.params()).all(|(pa, pb)| {
            pa.data()
                .iter()
                .zip(pb.data())
                .all(|(x, y)| x.to_bits() == y.to_bits())
        })
    })
}

fn accuracy(net: &Network, (x, labels): &(Tensor, Vec<usize>)) -> f64 {
    let (logits, _) = net.forward(x);
    let hits = argmax_rows(&logits)
        .iter()
        .zip(labels)
        .filter(|(p, l)| p == l)
        .count();
    hits as f64 / labels.len() as f64
}

/// The pre-window correctness checks: the traced decomposition must
/// reproduce `DpTrainer::step` bit for bit under both private algorithms,
/// and the serial and default backends must agree byte for byte.
fn equivalence_checks(model: Model, inputs: &Inputs, epoch: Instant) -> Vec<Check> {
    let mut checks = Vec::new();
    for algorithm in [TrainingAlgorithm::DpSgd, TrainingAlgorithm::DpSgdReweighted] {
        let t = trainer(model, algorithm);
        let mut via_step = inputs.init.clone();
        t.step(
            &mut via_step,
            &inputs.batches[0].0,
            &inputs.batches[0].1,
            &mut inputs.noise_rng.clone(),
        );
        let mut via_trace = inputs.init.clone();
        traced_step(
            &mut Tracer::new(epoch),
            0,
            &t,
            &mut via_trace,
            &inputs.batches[0],
            &mut inputs.noise_rng.clone(),
        );
        checks.push(Check::new(
            format!("traced {algorithm} step is bit-identical to DpTrainer::step"),
            same_params(&via_step, &via_trace),
        ));
    }
    let auto = trainer(model, model.algorithm());
    let serial = DpTrainer::builder()
        .config(*auto.config())
        .backend(Backend::serial())
        .build();
    let run = |t: &DpTrainer| {
        let mut net = inputs.init.clone();
        let mut rng = inputs.noise_rng.clone();
        for (x, labels) in inputs.batches.iter().take(BACKEND_CHECK_STEPS) {
            t.step(&mut net, x, labels, &mut rng);
        }
        net
    };
    checks.push(Check::new(
        format!("serial and auto backends agree after {BACKEND_CHECK_STEPS} steps"),
        same_params(&run(&serial), &run(&auto)),
    ));
    checks
}

/// The measured loop's progress: the episode in flight and what the
/// finished steps and episodes produced.
struct LoopState {
    net: Network,
    rng: DivaRng,
    step_in_episode: usize,
    steps: u64,
    failed: u64,
    step_ms: Vec<f64>,
    episode_digests: Vec<String>,
    first_episode: Option<Network>,
    per_example_bytes: usize,
}

impl LoopState {
    fn new(inputs: &Inputs) -> Self {
        Self {
            net: inputs.init.clone(),
            rng: inputs.noise_rng.clone(),
            step_in_episode: 0,
            steps: 0,
            failed: 0,
            step_ms: Vec::new(),
            episode_digests: Vec::new(),
            first_episode: None,
            per_example_bytes: 0,
        }
    }

    /// Runs one step (traced when `tracer` is given) and closes the episode
    /// when it was the last.
    fn step(&mut self, inputs: &Inputs, trainer: &DpTrainer, tracer: Option<&mut Tracer>) {
        let batch = &inputs.batches[self.step_in_episode];
        let t = Instant::now();
        let loss = match tracer {
            None => {
                trainer
                    .step(&mut self.net, &batch.0, &batch.1, &mut self.rng)
                    .mean_loss
            }
            Some(tr) => {
                let facts =
                    traced_step(tr, self.steps, trainer, &mut self.net, batch, &mut self.rng);
                self.per_example_bytes = facts.per_example_bytes;
                facts.loss
            }
        };
        self.step_ms.push(t.elapsed().as_secs_f64() * 1e3);
        self.steps += 1;
        if !loss.is_finite() {
            self.failed += 1;
        }
        self.step_in_episode += 1;
        if self.step_in_episode == inputs.batches.len() {
            let done = std::mem::replace(&mut self.net, inputs.init.clone());
            self.rng = inputs.noise_rng.clone();
            self.step_in_episode = 0;
            self.episode_digests.push(params_digest(&done).hex());
            if self.first_episode.is_none() {
                self.first_episode = Some(done);
            }
        }
    }
}

/// Counters sampled at a phase boundary.
struct Snapshot {
    at: Instant,
    proc: ProcSample,
    pool: diva_tensor::parallel::PoolStats,
    steps: u64,
    failed: u64,
}

impl Snapshot {
    fn take(state: &LoopState) -> Self {
        Self {
            at: Instant::now(),
            proc: ProcSample::now(),
            pool: pool_stats(),
            steps: state.steps,
            failed: state.failed,
        }
    }
}

/// Runs the workload for `seconds` (the first half untraced and the
/// second half traced when `traced`).
pub fn run(model: Model, seed: u64, seconds: f64, traced: bool, epoch: Instant) -> Outcome {
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut prepared = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let inputs = make_inputs(model, seed);
        let trainer = trainer(model, model.algorithm());
        // One warm-up step: the default backend spawns its pool workers
        // lazily, at the first parallel region.
        let mut net = inputs.init.clone();
        let (x, labels) = &inputs.batches[0];
        trainer.step(&mut net, x, labels, &mut inputs.noise_rng.clone());
        setup_s.push(t.elapsed().as_secs_f64());
        prepared = Some((inputs, trainer));
    }
    let (inputs, trainer) = prepared.expect("at least one set-up");
    let mut checks = equivalence_checks(model, &inputs, epoch);

    let mut tracer = Tracer::new(epoch);
    let mut state = LoopState::new(&inputs);
    let untraced_window = Duration::from_secs_f64(if traced { seconds / 2.0 } else { seconds });
    let window_start = Snapshot::take(&state);
    while window_start.at.elapsed() < untraced_window {
        state.step(&inputs, &trainer, None);
    }
    let switch = Snapshot::take(&state);
    if traced {
        let window = Duration::from_secs_f64(seconds);
        while window_start.at.elapsed() < window {
            state.step(&inputs, &trainer, Some(&mut tracer));
        }
    }
    let window_end = Snapshot::take(&state);
    while state.episode_digests.is_empty() {
        state.step(&inputs, &trainer, None);
    }

    let final_net = state.first_episode.as_ref().expect("an episode completed");
    let acc = accuracy(final_net, &inputs.held_out);
    checks.push(Check::new(
        format!(
            "held-out accuracy {acc:.3} >= {} after {} steps",
            model.accuracy_floor(),
            inputs.batches.len()
        ),
        acc >= model.accuracy_floor(),
    ));
    let distinct: std::collections::BTreeSet<&String> = state.episode_digests.iter().collect();
    checks.push(Check::new(
        format!(
            "all {} completed episodes end on identical parameters",
            state.episode_digests.len()
        ),
        distinct.len() == 1,
    ));

    let mut metrics = BTreeMap::new();
    if traced {
        let (a, b) = (&window_start, &switch);
        let untraced_rate = (b.steps - a.steps) as f64 / b.at.duration_since(a.at).as_secs_f64();
        let (a, b) = (&switch, &window_end);
        let traced_steps = (b.steps - a.steps).max(1) as f64;
        let traced_rate = traced_steps / b.at.duration_since(a.at).as_secs_f64();
        let proc = b.proc.since(&a.proc);
        let params = inputs.init.param_count() as f64;
        for (metric, span) in [
            ("nn.forward_ms", "nn.forward"),
            ("nn.backward_per_example_ms", "nn.backward_per_example"),
            ("nn.sq_norms_ms", "nn.sq_norms"),
            ("nn.weighted_reduce_ms", "nn.weighted_reduce"),
            ("nn.backward_norm_only_ms", "nn.backward_norm_only"),
            ("nn.backward_reweighted_ms", "nn.backward_reweighted"),
            ("nn.apply_update_ms", "nn.apply_update"),
            ("dp.clip_ms", "dp.clip"),
            ("dp.noise_ms", "dp.noise"),
        ] {
            metrics.insert(metric, tracer.median_ms(span));
        }
        metrics.insert(
            "dp.noise_ns_per_param",
            tracer.median_ms("dp.noise") * 1e6 / params,
        );
        metrics.insert(
            "nn.per_example_grad_mib",
            state.per_example_bytes as f64 / f64::from(1 << 20),
        );
        metrics.insert(
            "tensor.pool.steals_per_step",
            (b.pool.steals - a.pool.steals) as f64 / traced_steps,
        );
        metrics.insert(
            "tensor.pool.inline_runs_per_step",
            (b.pool.inline_runs - a.pool.inline_runs) as f64 / traced_steps,
        );
        metrics.insert(
            "tensor.pool.spawned_in_window",
            (window_end.pool.spawned - window_start.pool.spawned) as f64,
        );
        metrics.insert(
            "proc.minor_faults_per_step",
            proc.minor_faults as f64 / traced_steps,
        );
        metrics.insert("proc.sys_cpu_share", proc.sys_share());
        metrics.insert("trace.overhead_ratio", untraced_rate / traced_rate);
        let untraced_ms = &state.step_ms[window_start.steps as usize..switch.steps as usize];
        metrics.insert("tail.latency_ms_p95", percentile(untraced_ms, 95.0));
    } else {
        let (a, b) = (&window_start, &window_end);
        let steps = (b.steps - a.steps).max(1) as f64;
        let window_ms = &state.step_ms[..(b.steps - a.steps) as usize];
        metrics.insert(
            "throughput_per_s",
            steps / b.at.duration_since(a.at).as_secs_f64(),
        );
        metrics.insert("latency_ms_p50", median(window_ms));
        metrics.insert("cpu_ms_per_op", b.proc.since(&a.proc).cpu_ms() / steps);
        metrics.insert("success_ratio", 1.0 - (b.failed - a.failed) as f64 / steps);
        metrics.insert("peak_rss_mib", peak_rss_mib());
        metrics.insert("setup_s", median(&setup_s));
    }

    Outcome {
        attempted: window_end.steps - window_start.steps,
        failed: window_end.failed - window_start.failed,
        checks,
        metrics,
        digests: vec![("final_params".to_string(), state.episode_digests[0].clone())],
        tracer: traced.then_some(tracer),
        span_files: Vec::new(),
    }
}
