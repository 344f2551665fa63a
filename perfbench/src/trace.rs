//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions; nothing inside the program is instrumented. Each
//! thread owns its own [`Tracer`], so recording takes no lock; the
//! tracers are merged and written out once the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::stats::{json_string, median};

/// One timed interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `nn.forward`.
    pub name: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's epoch; equal to `start_ns` while open.
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// The training step or request this span belongs to.
    pub id: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span recorder sharing the run's epoch.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    enabled: bool,
}

impl Tracer {
    /// An empty recorder whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
            enabled: true,
        }
    }

    /// Turns recording on or off; while off, spans cost one branch.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its handle for [`Self::end`].
    pub fn begin(&mut self, name: &'static str, id: u64, parent: Option<usize>) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            id,
        });
        self.spans.len() - 1
    }

    /// Closes the span `handle`.
    pub fn end(&mut self, handle: usize) {
        let now = self.now_ns();
        if let Some(span) = self.spans.get_mut(handle) {
            span.end_ns = now;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let handle = self.begin(name, id, parent);
        let out = f();
        self.end(handle);
        out
    }

    /// Appends another thread's spans (same epoch), re-basing parents.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time in milliseconds of every span, grouped by name: the
    /// span's duration minus the time its direct children cover.
    pub fn self_times_ms(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let self_ns = s.duration_ns().saturating_sub(covered);
            out.entry(s.name).or_default().push(self_ns as f64 / 1e6);
        }
        out
    }

    /// Durations in milliseconds of the spans named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Median self time of the spans named `name`, in milliseconds (0 when
    /// the run recorded none).
    pub fn median_ms(&self, name: &str) -> f64 {
        self.self_times_ms().get(name).map_or(0.0, |v| median(v))
    }

    /// Total self time of the spans named `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.self_times_ms()
            .get(name)
            .map_or(0.0, |v| v.iter().sum())
    }

    /// Writes a header line and then one JSON object per span; `parent`
    /// is the `span` index of the enclosing span.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and write failures.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for (index, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\": {index}, \"name\": {}, \"start_us\": {}, \"end_us\": {}, \"parent\": {parent}, \"id\": {}}}",
                json_string(s.name),
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
                s.id
            )?;
        }
        out.flush()
    }
}
