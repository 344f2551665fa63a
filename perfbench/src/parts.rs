//! Runs a workload's window as several successive child processes of this
//! binary and combines their metrics.
//!
//! Other tenants of a shared host slow the benchmark for stretches of tens
//! of seconds, and that interference only ever adds time; now and then a
//! part also runs unusually fast. So each wall-clock and CPU-time metric is
//! the parts' lower quartile (the second-best of five: the second-lowest
//! step time or CPU time, the second-highest throughput), which holds
//! against one part that ran fast and against up to three that were
//! disturbed. `success_ratio` is the worst part's; every other metric is the
//! median over the parts.
//!
//! Left to itself, glibc's allocator settles, once per process, into one of
//! two modes for the MLP's per-example gradients: in about one process in
//! five a step runs ~25% faster on ~30% less CPU time, with ~14 MiB more
//! resident memory. With five parts, two or more would draw it in about one
//! run in four, and the lower quartile would then report it. The parts
//! therefore run with glibc's mmap threshold fixed (`GLIBC_TUNABLES`) above
//! the size of one per-example gradient. A process so pinned matches the
//! common mode's step time, CPU time and resident memory; 3 of 100 pinned
//! processes measured still drew the rare mode, and the lower quartile
//! ignores one such part.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};

use crate::stats::{median, percentile};
use crate::{Args, Check, Outcome};

/// What one child process reported.
struct Part {
    metrics: BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
    checks: Vec<Check>,
    digests: Vec<(String, String)>,
    span_files: Vec<String>,
}

/// The allocator setting every part runs with (see the module comment).
const ALLOCATOR_TUNABLES: &str = "glibc.malloc.mmap_threshold=4194304";

/// The run's value of metric `name` from the parts' `values`.
fn combine(name: &str, values: &[f64]) -> f64 {
    match name {
        "latency_ms_p50" | "cpu_ms_per_op" | "tail.latency_ms_p95" => percentile(values, 25.0),
        "throughput_per_s" => percentile(values, 75.0),
        "success_ratio" => values.iter().copied().fold(f64::INFINITY, f64::min),
        _ => median(values),
    }
}

/// The number after `"key": ` in `line`.
fn number_after(line: &str, key: &str) -> Option<f64> {
    let rest = &line[line.find(key)? + key.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

fn parse_part(stdout: &str, wanted: &[(&'static str, &str)]) -> Result<Part, String> {
    let mut part = Part {
        metrics: BTreeMap::new(),
        attempted: 0,
        failed: 0,
        checks: Vec::new(),
        digests: Vec::new(),
        span_files: Vec::new(),
    };
    let result = stdout
        .lines()
        .last()
        .filter(|l| l.starts_with('{'))
        .ok_or("printed no result")?;
    for &(name, _) in wanted {
        let v = number_after(result, &format!("\"{name}\": {{\"value\": "))
            .ok_or(format!("reported no {name}"))?;
        part.metrics.insert(name, v);
    }
    part.attempted = number_after(result, "\"attempted\": ").ok_or("no attempted")? as u64;
    part.failed = number_after(result, "\"failed\": ").ok_or("no failed")? as u64;
    for line in stdout.lines() {
        if let Some(rest) = line.strip_prefix("# check ") {
            let (status, what) = rest.split_at(4);
            part.checks
                .push(Check::new(what.trim().to_string(), status == "ok  "));
        } else if let Some(rest) = line.strip_prefix("# digest ") {
            let (name, digest) = rest.split_once(' ').ok_or("malformed digest line")?;
            part.digests.push((name.to_string(), digest.to_string()));
        } else if let Some(path) = line.strip_prefix("# spans ") {
            part.span_files.push(path.to_string());
        }
    }
    Ok(part)
}

/// Runs `args` as `parts` child processes of `args.seconds / parts` each.
pub fn run(args: &Args, parts: usize, wanted: &[(&'static str, &str)]) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let mut reports = Vec::with_capacity(parts);
    for k in 0..parts {
        let out = Command::new(&exe)
            .args(["--workload", &args.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &(args.seconds / parts as f64).to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .args(["--part", &k.to_string()])
            .env("GLIBC_TUNABLES", ALLOCATOR_TUNABLES)
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("starting part {k}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        reports.push(parse_part(&stdout, wanted).map_err(|e| format!("part {k} {e}"))?);
    }

    let mut outcome = Outcome {
        attempted: reports.iter().map(|p| p.attempted).sum(),
        failed: reports.iter().map(|p| p.failed).sum(),
        checks: Vec::new(),
        metrics: BTreeMap::new(),
        digests: reports[0].digests.clone(),
        tracer: None,
        span_files: Vec::new(),
    };
    for &(name, _) in wanted {
        let values: Vec<f64> = reports.iter().map(|p| p.metrics[name]).collect();
        let shown: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
        println!("# parts {name} {}", shown.join(" "));
        outcome.metrics.insert(name, combine(name, &values));
    }
    outcome.checks.push(Check::new(
        format!("all {parts} processes produce the same output digests"),
        reports.iter().all(|p| p.digests == outcome.digests),
    ));
    // The parts run the same deterministic inputs, so their checks read
    // alike: keep each distinct check once, failed if it failed anywhere.
    for p in reports {
        for c in p.checks {
            match outcome.checks.iter_mut().find(|o| o.what == c.what) {
                Some(seen) => seen.passed &= c.passed,
                None => outcome.checks.push(c),
            }
        }
        outcome.span_files.extend(p.span_files);
    }
    Ok(outcome)
}
