//! Shared harness utilities for the figure/table regeneration CLI
//! (`diva-report`) and the performance benchmarks.
//!
//! Every table and figure of the paper's evaluation is a **registered
//! scenario** of the declarative experiment API in [`scenario`]: an
//! `Experiment` (named axes × per-cell eval × declared reductions)
//! executed by one shared runner and rendered as text, JSON or CSV. The
//! `diva-report` binary drives the registry: `diva-report NAME`
//! regenerates one artifact, `diva-report --list` names them all.
//!
//! This library also hosts the other shared pieces: the batch-size
//! policy, aligned table printing, a parallel runner backed by the
//! workspace-wide thread pool, a small measurement harness (`harness`)
//! for the `cargo bench` targets, and the `BENCH_perf.json` emitter
//! (`perf`) that records compute-backend throughput so later PRs have a
//! trajectory to regress against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod explore;
pub mod faults;
pub mod harness;
pub mod perf;
pub mod scenario;

use diva_workload::{Algorithm, ModelSpec};

/// TPUv3 HBM capacity (paper Table II / Section III-A): 16 GB.
pub const HBM_CAPACITY: u64 = 16 * (1 << 30);

/// The paper's batch-size policy (Figure 5 caption): every algorithm runs
/// with the maximum power-of-two mini-batch that *vanilla DP-SGD* can fit
/// in 16 GB, so all three algorithms are compared at identical batch sizes.
pub fn paper_batch(model: &ModelSpec) -> u64 {
    model.max_batch_pow2(Algorithm::DpSgd, HBM_CAPACITY).max(1)
}

/// Prints an aligned text table with a title.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut out = String::new();
        for (i, cell) in cells.iter().enumerate() {
            out.push_str(&format!("{:<w$}  ", cell, w = widths[i]));
        }
        println!("{}", out.trim_end());
    };
    line(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    let rule: usize = widths.iter().sum::<usize>() + 2 * widths.len();
    println!("{}", "-".repeat(rule));
    for row in rows {
        line(row);
    }
}

/// Formats a float with `prec` decimals.
pub fn fmt(v: f64, prec: usize) -> String {
    format!("{v:.prec$}")
}

/// Formats a value as a multiplier, e.g. "3.61x".
pub fn fmt_x(v: f64) -> String {
    format!("{v:.2}x")
}

/// Formats bytes with a binary-unit suffix.
pub fn fmt_bytes(bytes: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = bytes as f64;
    let mut unit = 0;
    while v >= 1024.0 && unit < UNITS.len() - 1 {
        v /= 1024.0;
        unit += 1;
    }
    format!("{v:.1} {}", UNITS[unit])
}

#[cfg(test)]
mod tests {
    use super::*;
    use diva_workload::zoo;

    #[test]
    fn paper_batches_are_modest_for_dp_sgd() {
        // The whole point of Section III-A: DP-SGD fits only small batches.
        for m in zoo::all_models() {
            let b = paper_batch(&m);
            assert!(b >= 1, "{}", m.name);
            // LSTM-small (0.4 M params) legitimately fits batch 8192.
            assert!(b <= 16384, "{} allows suspicious batch {b}", m.name);
        }
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(fmt_bytes(512), "512.0 B");
        assert_eq!(fmt_bytes(16 * (1 << 30)), "16.0 GiB");
    }
}
