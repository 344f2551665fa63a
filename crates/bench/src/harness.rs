//! A small measurement harness for the `cargo bench` targets.
//!
//! The approved dependency set has no criterion, so the bench targets are
//! `harness = false` binaries built on this module. The protocol follows
//! criterion's shape at a fraction of the machinery: calibrate an iteration
//! count from a warm-up, collect several timed samples, report the median
//! (medians are robust to the scheduling noise of shared machines).
//!
//! `DIVA_BENCH_SECS` scales the per-benchmark time budget (default 1.0,
//! split between warm-up and sampling); CI sets it low to smoke-test the
//! bench targets without burning minutes.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Number of timed samples per benchmark; the median is reported.
const SAMPLES: usize = 5;

/// One benchmark's measurement.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Full benchmark id, `suite/name`.
    pub name: String,
    /// Median wall-clock seconds per iteration.
    pub secs_per_iter: f64,
    /// Iterations per timed sample.
    pub iters: u64,
}

impl Measurement {
    /// Iterations per second implied by the median time.
    pub fn per_second(&self) -> f64 {
        1.0 / self.secs_per_iter
    }
}

/// A named group of benchmarks; construct one per bench target.
pub struct Harness {
    suite: String,
    budget: Duration,
    results: Vec<Measurement>,
}

impl Harness {
    /// Creates a harness titled `suite`, reading the time budget from
    /// `DIVA_BENCH_SECS` (default one second per benchmark).
    pub fn new(suite: &str) -> Self {
        let var = std::env::var("DIVA_BENCH_SECS").ok();
        Self::with_budget(suite, budget_secs(var.as_deref()))
    }

    /// A harness with an explicit per-benchmark budget of `secs` seconds.
    fn with_budget(suite: &str, secs: f64) -> Self {
        println!("== bench suite: {suite} (budget {secs:.2}s/benchmark) ==");
        Self {
            suite: suite.to_string(),
            budget: Duration::from_secs_f64(secs),
            results: Vec::new(),
        }
    }

    /// Measures `f`, printing and recording the result. The closure's
    /// return value is passed through [`black_box`] so the work is not
    /// optimized away.
    pub fn bench<R>(&mut self, name: &str, mut f: impl FnMut() -> R) -> &mut Self {
        // Warm-up: run for ~1/5 of the budget to fill caches and estimate
        // the per-iteration cost.
        let warm_budget = self.budget / 5;
        let start = Instant::now();
        let mut warm_iters = 0u64;
        while start.elapsed() < warm_budget || warm_iters == 0 {
            black_box(f());
            warm_iters += 1;
        }
        let est = start.elapsed().as_secs_f64() / warm_iters as f64;
        // Size each timed sample at 1/SAMPLES of the remaining budget.
        let sample_secs = self.budget.as_secs_f64() * 0.8 / SAMPLES as f64;
        let iters = ((sample_secs / est) as u64).max(1);
        let mut samples = Vec::with_capacity(SAMPLES);
        for _ in 0..SAMPLES {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            samples.push(t.elapsed().as_secs_f64() / iters as f64);
        }
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let median = samples[SAMPLES / 2];
        let full = format!("{}/{name}", self.suite);
        println!(
            "{full:<48} {:>12}   ({iters} iters/sample)",
            fmt_time(median)
        );
        self.results.push(Measurement {
            name: full,
            secs_per_iter: median,
            iters,
        });
        self
    }

    /// All measurements so far, in execution order.
    pub fn results(&self) -> &[Measurement] {
        &self.results
    }

    /// Looks up a measurement by its short name within the suite.
    pub fn get(&self, name: &str) -> Option<&Measurement> {
        let full = format!("{}/{name}", self.suite);
        self.results.iter().find(|m| m.name == full)
    }
}

/// The per-benchmark budget in seconds for a `DIVA_BENCH_SECS` value:
/// a positive finite number, else the one-second default.
fn budget_secs(var: Option<&str>) -> f64 {
    var.and_then(|s| s.trim().parse::<f64>().ok())
        .filter(|s| s.is_finite() && *s > 0.0)
        .unwrap_or(1.0)
}

/// Formats a duration in engineering units.
pub fn fmt_time(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.3} s")
    } else if secs >= 1e-3 {
        format!("{:.3} ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.3} µs", secs * 1e6)
    } else {
        format!("{:.1} ns", secs * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_measures_and_records() {
        let mut h = Harness::with_budget("selftest", 0.02);
        h.bench("noop", || 1 + 1);
        let m = h.get("noop").expect("measurement recorded");
        assert!(m.secs_per_iter > 0.0);
        assert!(m.iters >= 1);
    }

    #[test]
    fn budget_parsing_falls_back_to_one_second() {
        assert_eq!(budget_secs(Some("0.05")), 0.05);
        assert_eq!(budget_secs(Some(" 2 ")), 2.0);
        for bad in [
            None,
            Some(""),
            Some("fast"),
            Some("0"),
            Some("-1"),
            Some("inf"),
            Some("NaN"),
        ] {
            assert_eq!(budget_secs(bad), 1.0, "{bad:?}");
        }
    }

    #[test]
    fn time_formatting_spans_units() {
        assert_eq!(fmt_time(2.5), "2.500 s");
        assert_eq!(fmt_time(2.5e-3), "2.500 ms");
        assert_eq!(fmt_time(2.5e-6), "2.500 µs");
        assert_eq!(fmt_time(2.5e-9), "2.5 ns");
    }
}
