//! The repository benchmark: private training steps and a served
//! design-space mix, measured end to end and per layer.
//!
//! ```text
//! diva-perfbench --workload train_mlp_dpsgd --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no tracing.
//! `--trace 1` measures the first half of the window untraced and the second
//! half traced, prints the per-layer metrics taken from the spans, and
//! writes the spans to `perfbench/out/`. A training run is measured in five
//! child processes (`--part`, see `parts.rs`). The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. A failed correctness check exits 1; a build without the host's
//! target features exits 2 before measuring. See `perfbench/README.md`.

mod host;
mod parts;
mod serve_mix;
mod stats;
mod trace;
mod train;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use host::{cpu_jiffies, Fingerprint};
use stats::json_string;
use trace::Tracer;

/// The end-to-end metrics, reported by every workload with `--trace 0`.
/// An "op" is one training step on the `train_*` workloads and one
/// request on `serve_mix`.
const END_TO_END: &[(&str, &str)] = &[
    ("throughput_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("success_ratio", "ratio"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
];

/// The per-layer metrics, reported by every workload with `--trace 1`; a
/// layer the workload does not exercise reads 0. `tail.latency_ms_p95`, the
/// ops' 95th percentile from the untraced half of the window, is here and
/// not among the bounded end-to-end metrics: on a shared host it follows the
/// hypervisor's steal bursts far more than the program.
const PER_LAYER: &[(&str, &str)] = &[
    ("nn.forward_ms", "ms"),
    ("nn.backward_per_example_ms", "ms"),
    ("nn.sq_norms_ms", "ms"),
    ("nn.weighted_reduce_ms", "ms"),
    ("nn.backward_norm_only_ms", "ms"),
    ("nn.backward_reweighted_ms", "ms"),
    ("nn.apply_update_ms", "ms"),
    ("nn.per_example_grad_mib", "MiB"),
    ("dp.clip_ms", "ms"),
    ("dp.noise_ms", "ms"),
    ("dp.noise_ns_per_param", "ns"),
    ("dp.pld_epsilon_ms", "ms"),
    ("dp.rdp_epsilon_ms", "ms"),
    ("tensor.pool.steals_per_step", "count"),
    ("tensor.pool.inline_runs_per_step", "count"),
    ("tensor.pool.spawned_in_window", "count"),
    ("proc.minor_faults_per_step", "count"),
    ("proc.sys_cpu_share", "ratio"),
    ("serve.hit_ms_p50", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.run_fresh_ms_p50", "ms"),
    ("serve.epsilon_fresh_ms_p50", "ms"),
    ("serve.explore_job_ms_p50", "ms"),
    ("serve.job_wait_ms_p50", "ms"),
    ("serve.internal_errors", "count"),
    ("scenario.run_ms_p50", "ms"),
    ("scenario.cells_per_s", "1/s"),
    ("workload.lower_us_per_cell", "us"),
    ("sim.time_step_us_per_cell", "us"),
    ("energy.step_energy_us_per_cell", "us"),
    ("sim.ops_per_s", "1/s"),
    ("explore.candidates_per_s", "1/s"),
    ("explore.memo_hit_ratio", "ratio"),
    ("tail.latency_ms_p95", "ms"),
    ("bench.generator_lag_ms_max", "ms"),
    ("trace.overhead_ratio", "ratio"),
];

#[derive(Clone, Copy)]
enum Workload {
    Train(train::Model),
    Serve,
}

const WORKLOADS: [(&str, Workload); 3] = [
    ("train_mlp_dpsgd", Workload::Train(train::Model::Mlp)),
    ("train_cnn_dpsgdr", Workload::Train(train::Model::Cnn)),
    ("serve_mix", Workload::Serve),
];

/// One correctness check and whether it held.
pub struct Check {
    what: String,
    passed: bool,
}

impl Check {
    fn new(what: String, passed: bool) -> Self {
        Self { what, passed }
    }
}

/// What one workload run measured and checked.
pub struct Outcome {
    /// Operations in the measured window.
    attempted: u64,
    /// Operations in the window that failed.
    failed: u64,
    checks: Vec<Check>,
    metrics: BTreeMap<&'static str, f64>,
    /// `(output, FNV-1a digest)` pairs.
    digests: Vec<(String, String)>,
    /// The spans, for a traced run.
    tracer: Option<Tracer>,
    /// Span files already written by child processes.
    span_files: Vec<String>,
}

struct Args {
    name: String,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in a child process that measures one part of the window.
    part: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut part = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} wants a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds wants a positive number, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got {value}")),
                })
            }
            "--part" => part = Some(value.parse().map_err(|e| format!("--part: {e}"))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name: String = workload.ok_or("--workload is required")?;
    let Some(&(_, workload)) = WORKLOADS.iter().find(|(n, _)| *n == name) else {
        let known: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        return Err(format!(
            "unknown workload {name}; known: {}",
            known.join(", ")
        ));
    };
    Ok(Args {
        name,
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        part,
    })
}

/// Child processes a training run is split into (see `parts.rs`).
const TRAIN_PARTS: usize = 5;

fn run(args: &Args, wanted: &[(&'static str, &str)], epoch: Instant) -> Result<Outcome, String> {
    match args.workload {
        Workload::Train(_) if args.part.is_none() => parts::run(args, TRAIN_PARTS, wanted),
        Workload::Train(model) => Ok(train::run(
            model,
            args.seed,
            args.seconds,
            args.trace,
            epoch,
        )),
        Workload::Serve => serve_mix::run(args.seed, args.seconds, args.trace, epoch),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let fingerprint = Fingerprint::take();
    if !fingerprint.missing_features().is_empty() {
        eprintln!(
            "perfbench: refusing to measure: the CPU offers {:?} but this binary was built \
             without them; build from the repository root so .cargo/config.toml \
             (target-cpu=native) applies",
            fingerprint.missing_features()
        );
        return ExitCode::from(2);
    }
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let epoch = Instant::now();
    let jiffies0 = cpu_jiffies();
    let outcome = match run(&args, wanted, epoch) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.name);
            return ExitCode::FAILURE;
        }
    };
    let jiffies1 = cpu_jiffies();
    let steal_pct = 100.0 * jiffies1.0.saturating_sub(jiffies0.0) as f64
        / jiffies1.1.saturating_sub(jiffies0.1).max(1) as f64;
    let host = fingerprint.to_json(steal_pct);

    println!("# host {host}");
    for (name, digest) in &outcome.digests {
        println!("# digest {name} {digest}");
    }
    for check in &outcome.checks {
        println!(
            "# check {} {}",
            if check.passed { "ok  " } else { "FAIL" },
            check.what
        );
    }
    if let Some(tracer) = &outcome.tracer {
        let part = args.part.map_or(String::new(), |k| format!("-part{k}"));
        let path = PathBuf::from(format!(
            "perfbench/out/trace-{}-seed{}{part}.jsonl",
            args.name, args.seed
        ));
        let header = format!(
            "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"host\": {host}}}",
            json_string(&args.name),
            args.seed,
            args.seconds
        );
        match tracer.write_jsonl(&path, &header) {
            Ok(()) => println!("# spans {}", path.display()),
            Err(e) => {
                eprintln!("perfbench: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }

    for path in &outcome.span_files {
        println!("# spans {path}");
    }

    let mut fields = Vec::with_capacity(wanted.len());
    for &(name, unit) in wanted {
        let value = match outcome.metrics.get(name) {
            Some(&v) => v,
            // A layer this workload does not run.
            None if args.trace => 0.0,
            None => {
                eprintln!("perfbench: {} produced no {name}", args.name);
                return ExitCode::FAILURE;
            }
        };
        if !value.is_finite() {
            eprintln!("perfbench: {name} is not finite ({value})");
            return ExitCode::FAILURE;
        }
        println!("# {name:<36} {value:>16.4} {unit}");
        fields.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json_string(name),
            json_string(unit)
        ));
    }
    let correct = outcome.checks.iter().all(|c| c.passed);
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
