//! Host and build fingerprint, and the process counters read from procfs.

use crate::stats::json_string;

/// Linux reports `/proc/*/stat` CPU times in `USER_HZ` ticks, which the
/// kernel ABI fixes at 100 per second on x86-64 and aarch64.
const TICKS_PER_SECOND: f64 = 100.0;

/// Process-wide counters from `/proc/self/stat` and `/proc/self/status`.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProcSample {
    /// Minor page faults since process start.
    pub minor_faults: u64,
    /// User CPU time in milliseconds.
    pub user_ms: f64,
    /// System CPU time in milliseconds.
    pub sys_ms: f64,
}

impl ProcSample {
    /// Reads the current counters; zeros where procfs is unavailable.
    pub fn now() -> Self {
        let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
            return Self::default();
        };
        // Fields after the parenthesised command name, which may hold spaces.
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let field = |i: usize| {
            fields
                .get(i)
                .and_then(|f| f.parse::<u64>().ok())
                .unwrap_or(0)
        };
        // `rest` starts at field 3 (state): minflt is field 10, utime 14, stime 15.
        Self {
            minor_faults: field(7),
            user_ms: field(11) as f64 * 1000.0 / TICKS_PER_SECOND,
            sys_ms: field(12) as f64 * 1000.0 / TICKS_PER_SECOND,
        }
    }

    /// Counter growth from `earlier` to `self`.
    pub fn since(&self, earlier: &ProcSample) -> ProcSample {
        ProcSample {
            minor_faults: self.minor_faults.saturating_sub(earlier.minor_faults),
            user_ms: self.user_ms - earlier.user_ms,
            sys_ms: self.sys_ms - earlier.sys_ms,
        }
    }

    /// User plus system CPU time in milliseconds.
    pub fn cpu_ms(&self) -> f64 {
        self.user_ms + self.sys_ms
    }

    /// System time as a share of all CPU time (0 when no time was charged).
    pub fn sys_share(&self) -> f64 {
        if self.cpu_ms() > 0.0 {
            self.sys_ms / self.cpu_ms()
        } else {
            0.0
        }
    }
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Aggregate CPU jiffies from the first line of `/proc/stat`:
/// `(steal, total)`.
pub fn cpu_jiffies() -> (u64, u64) {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let line = stat.lines().next().unwrap_or_default();
    let values: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already counted in user, so the total stops at steal.
    let total = values.iter().take(8).sum();
    (values.get(7).copied().unwrap_or(0), total)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// One target feature: whether the running CPU has it and whether this
/// binary was compiled to use it.
struct Feature {
    name: &'static str,
    detected: bool,
    compiled: bool,
}

#[cfg(target_arch = "x86_64")]
fn features() -> Vec<Feature> {
    vec![
        Feature {
            name: "fma",
            detected: std::arch::is_x86_feature_detected!("fma"),
            compiled: cfg!(target_feature = "fma"),
        },
        Feature {
            name: "avx2",
            detected: std::arch::is_x86_feature_detected!("avx2"),
            compiled: cfg!(target_feature = "avx2"),
        },
        Feature {
            name: "avx512f",
            detected: std::arch::is_x86_feature_detected!("avx512f"),
            compiled: cfg!(target_feature = "avx512f"),
        },
    ]
}

#[cfg(not(target_arch = "x86_64"))]
fn features() -> Vec<Feature> {
    Vec::new()
}

/// What a result was measured on.
pub struct Fingerprint {
    /// The fields of the fingerprint's JSON object, without braces.
    json: String,
    missing: Vec<&'static str>,
}

impl Fingerprint {
    /// Records the host and build.
    pub fn take() -> Self {
        let features = features();
        let missing: Vec<&'static str> = features
            .iter()
            .filter(|f| f.detected && !f.compiled)
            .map(|f| f.name)
            .collect();
        let feature_json: Vec<String> = features
            .iter()
            .map(|f| {
                format!(
                    "{}: {{\"cpu\": {}, \"built\": {}}}",
                    json_string(f.name),
                    f.detected,
                    f.compiled
                )
            })
            .collect();
        let json = format!(
            "\"nproc\": {}, \"cpu_model\": {}, \"simd_available\": {}, \"simd_enabled\": {}, \
             \"avx512_available\": {}, \"avx512_enabled\": {}, \"target_features\": {{{}}}",
            std::thread::available_parallelism().map_or(1, |n| n.get()),
            json_string(&cpu_model()),
            diva_tensor::simd_available(),
            diva_tensor::simd_enabled(),
            diva_tensor::avx512_available(),
            diva_tensor::avx512_enabled(),
            feature_json.join(", "),
        );
        Self { json, missing }
    }

    /// The target features the CPU offers but this binary was built
    /// without: non-empty means the build skipped the workspace's
    /// `target-cpu=native` setting and would measure a slower program.
    pub fn missing_features(&self) -> &[&'static str] {
        &self.missing
    }

    /// The fingerprint as one JSON object, with the steal share of the
    /// host's CPU time over the run.
    pub fn to_json(&self, steal_pct: f64) -> String {
        format!("{{{}, \"steal_pct\": {steal_pct}}}", self.json)
    }
}
