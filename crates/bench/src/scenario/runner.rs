//! Deterministic grid execution for [`Experiment`]s: filtering, parallel
//! evaluation over the shared keep-alive pool, per-cell supervision,
//! checkpoint/resume, derived metrics, and declared reductions.
//!
//! Determinism: the grid is enumerated row-major in axis-declaration
//! order, evaluated with `diva_tensor::parallel::par_map` (which fixes the
//! task-to-slot assignment before execution starts), and every cell's
//! evaluation is a pure function of its coordinates — so results are
//! bit-identical for every worker-thread count. `scenario_determinism` in
//! `crates/bench/tests/scenario_tests.rs` pins this.
//!
//! Fault tolerance: every cell runs under the [supervisor](super::supervisor) — panics and
//! non-finite metrics settle to typed failures instead of unwinding the
//! region, retries are bounded and sequential within the cell's own task
//! (thread-count stable), and with [`RunOptions::resume_dir`] set each
//! completed cell is journaled the moment it finishes so a killed run
//! resumes from its last complete record. Failures abort the run with
//! [`ScenarioError::CellsFailed`] unless [`RunOptions::keep_going`] is
//! set, in which case failed cells become explicit error rows
//! ([`RowStatus::Failed`]) in the artifact; reductions skip them and
//! report the skip count, and a Normalize rule whose baseline arm failed
//! marks its dependents failed rather than silently dropping ratios.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

use super::error::{CellFailure, FailKind, ScenarioError};
use super::journal::{fingerprint_hex, Journal, JournalOutcome, JournalSpec};
use super::supervisor::{supervise, CellOutcome, SupervisorCfg};
use super::{
    norm_label, Axis, AxisValue, CellCtx, Experiment, Normalize, Payload, ReduceKind, Reduction,
    Rename,
};
use crate::faults::FaultPlan;
use diva_arch::ConfigError;
use diva_core::{geomean, Accelerator};
use diva_tensor::parallel::par_map;

/// Options steering one experiment run (the CLI's axis filters,
/// design-space knobs, and fault-tolerance policy).
#[derive(Clone, Debug, Default)]
pub struct RunOptions {
    /// Per-axis label allowlists: `(axis name, allowed labels)`. Labels are
    /// matched via [`norm_label`].
    pub filters: Vec<(String, Vec<String>)>,
    /// Replaces the `"batch"` axis values with these fixed sizes (the
    /// `--batch` flag — a replacement, not a restriction, since the default
    /// axis usually holds the symbolic paper policy).
    pub batch_override: Option<Vec<u64>>,
    /// `(parameter, value)` overrides applied to **every** accelerator arm
    /// of the scenario before running (the `--set key=value` flag).
    /// Parameter names resolve through the `diva_arch::params` registry;
    /// a typo errors with the list of registered names.
    pub set_overrides: Vec<(String, String)>,
    /// Ad-hoc config axes injected into the grid (the `--sweep key=v1,v2`
    /// flag): each entry becomes an [`Payload::Overrides`] axis named
    /// after the parameter, inserted right after the accelerator axis.
    pub sweeps: Vec<(String, Vec<String>)>,
    /// Record failed cells as explicit error rows instead of aborting
    /// (the `--keep-going` flag). The run still exits non-zero.
    pub keep_going: bool,
    /// Extra supervised attempts after a cell's first failure (the
    /// `--max-retries` flag; retries happen inline in the cell's own
    /// task, so they are deterministic across worker-thread counts).
    pub max_retries: u32,
    /// Soft per-cell wall-clock budget in milliseconds (the
    /// `--timeout-ms` flag). Wall-clock classification is inherently
    /// non-deterministic; leave `None` (the default) for byte-identical
    /// artifacts.
    pub cell_timeout_ms: Option<u64>,
    /// Deterministic fault injection (the `--inject` flag); `None` in
    /// production runs.
    pub faults: Option<FaultPlan>,
    /// Journal completed cells under this directory and reuse previous
    /// runs' completed cells (the `--resume` flag).
    pub resume_dir: Option<PathBuf>,
}

impl RunOptions {
    /// Adds a filter for `axis`.
    pub fn filter(mut self, axis: &str, labels: &[&str]) -> Self {
        self.filters.push((
            axis.to_string(),
            labels.iter().map(|l| l.to_string()).collect(),
        ));
        self
    }

    /// Replaces the batch axis with fixed sizes.
    pub fn batches(mut self, batches: &[u64]) -> Self {
        self.batch_override = Some(batches.to_vec());
        self
    }

    /// Overrides a registered parameter on every accelerator arm.
    pub fn set(mut self, param: &str, value: &str) -> Self {
        self.set_overrides
            .push((param.to_string(), value.to_string()));
        self
    }

    /// Injects an ad-hoc config axis sweeping a registered parameter.
    pub fn sweep(mut self, param: &str, values: &[&str]) -> Self {
        self.sweeps.push((
            param.to_string(),
            values.iter().map(|v| v.to_string()).collect(),
        ));
        self
    }

    /// Records failed cells as error rows instead of aborting.
    pub fn keep_going(mut self) -> Self {
        self.keep_going = true;
        self
    }

    /// Allows `n` extra supervised attempts per failing cell.
    pub fn max_retries(mut self, n: u32) -> Self {
        self.max_retries = n;
        self
    }

    /// Sets the soft per-cell wall-clock budget.
    pub fn cell_timeout_ms(mut self, ms: u64) -> Self {
        self.cell_timeout_ms = Some(ms);
        self
    }

    /// Installs a deterministic fault-injection plan.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Journals completed cells under `dir` and resumes from it.
    pub fn resume(mut self, dir: impl Into<PathBuf>) -> Self {
        self.resume_dir = Some(dir.into());
        self
    }
}

/// The labels of one axis after filtering (visible values only).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AxisMeta {
    /// Axis name.
    pub name: String,
    /// Visible value labels, in axis order.
    pub labels: Vec<String>,
}

/// Whether a result row holds real metrics or records a cell failure.
#[derive(Clone, Debug, Default, PartialEq)]
pub enum RowStatus {
    /// The cell completed; the row's metrics are valid.
    #[default]
    Ok,
    /// The cell failed terminally (only present under
    /// [`RunOptions::keep_going`]); the row carries no metrics.
    Failed {
        /// Terminal classification.
        kind: FailKind,
        /// The last attempt's error message.
        error: String,
        /// Total supervised attempts made.
        attempts: u32,
    },
}

impl RowStatus {
    /// `true` for a completed row.
    pub fn is_ok(&self) -> bool {
        matches!(self, RowStatus::Ok)
    }
}

/// One visible result row: coordinates, metrics (declared + derived) and
/// string annotations — or, under `--keep-going`, an explicit error record
/// (see [`RowStatus`]).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ResultRow {
    /// `(axis name, value label)` coordinates in axis order.
    pub coords: Vec<(String, String)>,
    /// Numeric metrics in evaluation-then-derivation order (empty for
    /// failed rows).
    pub metrics: Vec<(String, f64)>,
    /// String annotations (empty for failed rows).
    pub notes: Vec<(String, String)>,
    /// Completed or failed.
    pub status: RowStatus,
}

impl ResultRow {
    /// The label of axis `axis` in this row.
    pub fn coord(&self, axis: &str) -> Option<&str> {
        self.coords
            .iter()
            .find(|(a, _)| a == axis)
            .map(|(_, l)| l.as_str())
    }

    /// The value of metric `key`, if present.
    pub fn get(&self, key: &str) -> Option<f64> {
        self.metrics.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }
}

/// One computed summary value of a declared [`Reduction`].
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// The reduction's display label.
    pub label: String,
    /// The aggregated metric.
    pub metric: String,
    /// The aggregation function.
    pub kind: ReduceKind,
    /// `(axis, label)` pins identifying this group (empty when ungrouped).
    pub group: Vec<(String, String)>,
    /// The aggregated value.
    pub value: f64,
    /// How many cells contributed.
    pub count: usize,
    /// How many matching rows were failed cells and therefore skipped
    /// (only ever non-zero under `--keep-going`).
    pub skipped: usize,
    /// The paper's reference value, if declared.
    pub paper: Option<&'static str>,
}

/// A fully executed experiment, ready for rendering.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioResult {
    /// Registry name.
    pub name: String,
    /// Table title.
    pub title: String,
    /// Post-filter axis metadata (visible labels only).
    pub axes: Vec<AxisMeta>,
    /// Visible result rows in grid order.
    pub rows: Vec<ResultRow>,
    /// Computed summaries in declaration (then group) order.
    pub summaries: Vec<Summary>,
    /// Metrics the text renderer should show (empty = all).
    pub display_metrics: Vec<String>,
    /// Text-table pivot, forwarded from the experiment.
    pub pivot: Option<(String, String)>,
    /// Commentary lines.
    pub notes: Vec<String>,
    /// Names of the ratio metrics the experiment's [`Normalize`] rules
    /// derive. Serialized into the JSON document so `diva-report
    /// --compare` knows which metrics gate the regression exit code.
    pub derived_metrics: Vec<String>,
    /// The `--set` parameter overrides this run was produced under
    /// (empty for a baseline run). Serialized into the JSON document so
    /// an overridden artifact is distinguishable from a baseline one —
    /// `--compare` refuses to diff documents with different overrides.
    pub overrides: Vec<(String, String)>,
    /// Every terminally failed cell (including hidden baseline arms), in
    /// grid order. Non-empty only under `--keep-going` — without it the
    /// run aborts with [`ScenarioError::CellsFailed`] instead.
    pub failures: Vec<CellFailure>,
}

/// One axis after filtering: kept values plus per-value visibility.
struct KeptAxis<'a> {
    name: &'a str,
    values: Vec<AxisValue>,
    visible: Vec<bool>,
}

/// Applies the design-space knobs to a working copy of the experiment's
/// axes: `--set` rebuilds every accelerator arm with the overrides,
/// `--sweep` injects a config axis per swept parameter (right after the
/// accelerator-carrying axis, so the grid reads naturally).
fn effective_axes(exp: &Experiment, opts: &RunOptions) -> Result<Vec<Axis>, ScenarioError> {
    let mut axes: Vec<Axis> = exp.axes.clone();
    if !opts.set_overrides.is_empty() {
        let mut rebuilt = 0usize;
        for axis in &mut axes {
            for value in &mut axis.values {
                if let Payload::Accel(accel) = &value.payload {
                    let new = accel.with_overrides(&opts.set_overrides).map_err(|e| {
                        ScenarioError::Config(format!("--set on arm {:?}: {e}", value.label))
                    })?;
                    value.payload = Payload::Accel(Arc::new(new));
                    rebuilt += 1;
                }
            }
        }
        if rebuilt == 0 {
            return Err(ScenarioError::InvalidOptions(format!(
                "scenario {:?} has no accelerator-carrying axis for --set to override",
                exp.name
            )));
        }
    }
    for (param, values) in &opts.sweeps {
        if !diva_arch::params::is_param(param) {
            return Err(ScenarioError::Config(
                ConfigError::UnknownParameter(param.clone()).to_string(),
            ));
        }
        if values.is_empty() {
            return Err(ScenarioError::InvalidOptions(format!(
                "sweep over {param:?} needs at least one value"
            )));
        }
        if axes.iter().any(|a| &a.name == param) {
            return Err(ScenarioError::InvalidOptions(format!(
                "scenario {:?} already has an axis named {param:?}",
                exp.name
            )));
        }
        let Some(pos) = axes.iter().position(|a| {
            a.values
                .iter()
                .any(|v| matches!(v.payload, Payload::Accel(_)))
        }) else {
            return Err(ScenarioError::InvalidOptions(format!(
                "scenario {:?} has no accelerator-carrying axis for --sweep {param}",
                exp.name
            )));
        };
        let axis = Axis::new(
            param.clone(),
            values
                .iter()
                .map(|v| AxisValue::overrides(v.clone(), &[(param.as_str(), v.as_str())])),
        );
        axes.insert(pos + 1, axis);
    }
    Ok(axes)
}

/// Applies filters and the batch override to the experiment's (effective)
/// axes, retaining filtered-out values that a [`Normalize`] baseline
/// needs (marked invisible).
fn keep_axes<'a>(
    exp: &Experiment,
    exp_axes: &'a [Axis],
    opts: &RunOptions,
) -> Result<Vec<KeptAxis<'a>>, ScenarioError> {
    let invalid = |msg: String| ScenarioError::InvalidOptions(msg);
    // A filter naming an axis the experiment doesn't have is an error, not
    // a no-op: silently ignoring it would return full unfiltered results
    // for a typo'd `--axis` name.
    for (name, _) in &opts.filters {
        if !exp_axes.iter().any(|a| &a.name == name) {
            return Err(invalid(format!(
                "scenario {:?} has no axis named {name:?}; axes: {}",
                exp.name,
                exp_axes
                    .iter()
                    .map(|a| a.name.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            )));
        }
    }
    if opts.batch_override.is_some() && !exp_axes.iter().any(|a| a.name == "batch") {
        return Err(invalid(format!(
            "scenario {:?} has no \"batch\" axis to override",
            exp.name
        )));
    }
    let mut kept = Vec::with_capacity(exp_axes.len());
    for axis in exp_axes {
        let mut values: Vec<AxisValue> = axis.values.clone();
        if axis.name == "batch" {
            if let Some(batches) = &opts.batch_override {
                values = batches.iter().map(|&b| AxisValue::batch(b)).collect();
            }
        }
        let filter = opts.filters.iter().find(|(name, _)| name == &axis.name);
        let mut visible: Vec<bool> = match filter {
            None => vec![true; values.len()],
            Some((_, raw_labels)) => {
                let wanted: Vec<String> = raw_labels.iter().map(|l| norm_label(l)).collect();
                let vis: Vec<bool> = values
                    .iter()
                    .map(|v| wanted.contains(&norm_label(&v.label)))
                    .collect();
                // Every requested label must match something, and at least
                // one value must survive.
                for (raw, w) in raw_labels.iter().zip(&wanted) {
                    if !values.iter().any(|v| &norm_label(&v.label) == w) {
                        return Err(invalid(format!(
                            "axis {:?} has no value matching {raw:?}; available: {}",
                            axis.name,
                            values
                                .iter()
                                .map(|v| v.label.as_str())
                                .collect::<Vec<_>>()
                                .join(", ")
                        )));
                    }
                }
                vis
            }
        };
        if !visible.iter().any(|&v| v) {
            return Err(invalid(format!(
                "axis {:?} filtered down to nothing",
                axis.name
            )));
        }
        // Baseline arms referenced by derived-metric rules are evaluated
        // even when filtered out, so ratios survive aggressive filters.
        let needed: Vec<&String> = exp
            .derived
            .iter()
            .flat_map(|n| n.baseline.iter())
            .filter(|(a, _)| a == &axis.name)
            .map(|(_, label)| label)
            .collect();
        let keep_mask: Vec<bool> = values
            .iter()
            .zip(&visible)
            .map(|(v, &vis)| vis || needed.iter().any(|n| norm_label(n) == norm_label(&v.label)))
            .collect();
        let mut kept_values = Vec::new();
        let mut kept_visible = Vec::new();
        for ((v, keep), vis) in values.into_iter().zip(keep_mask).zip(visible.drain(..)) {
            if keep {
                kept_values.push(v);
                kept_visible.push(vis);
            }
        }
        kept.push(KeptAxis {
            name: &axis.name,
            values: kept_values,
            visible: kept_visible,
        });
    }
    Ok(kept)
}

/// Row-major enumeration of the kept grid: cell `i`'s coordinate along
/// axis `a` is `indices(i)[a]`.
fn grid_shape(axes: &[KeptAxis]) -> Vec<usize> {
    axes.iter().map(|a| a.values.len()).collect()
}

fn unravel(mut i: usize, shape: &[usize]) -> Vec<usize> {
    let mut idx = vec![0; shape.len()];
    for a in (0..shape.len()).rev() {
        idx[a] = i % shape[a];
        i /= shape[a];
    }
    idx
}

fn ravel(idx: &[usize], shape: &[usize]) -> usize {
    let mut flat = 0;
    for (a, &i) in idx.iter().enumerate() {
        flat = flat * shape[a] + i;
    }
    flat
}

/// The stable identity of cell `i` in the kept grid:
/// `axis=label|axis=label` in axis order — hashed by the fault harness,
/// keyed on by the journal, reported in [`CellFailure`]s.
fn cell_key(axes: &[KeptAxis], shape: &[usize], i: usize) -> String {
    let idx = unravel(i, shape);
    let parts: Vec<String> = axes
        .iter()
        .zip(&idx)
        .map(|(a, &vi)| format!("{}={}", a.name, a.values[vi].label))
        .collect();
    parts.join("|")
}

/// The `(axis, label)` coordinates of cell `i` in the kept grid.
fn cell_coords(axes: &[KeptAxis], shape: &[usize], i: usize) -> Vec<(String, String)> {
    let idx = unravel(i, shape);
    axes.iter()
        .zip(&idx)
        .map(|(a, &vi)| (a.name.to_string(), a.values[vi].label.clone()))
        .collect()
}

/// The parts hashed into the resume journal's fingerprint: everything
/// that shapes the kept grid or the derived metrics. Two runs share a
/// journal only if these (plus the crate version) are identical — i.e.
/// `--resume` must be combined with the same filters, batch override,
/// sweeps and `--set` overrides as the run that wrote the journal.
fn fingerprint_parts(exp: &Experiment, axes: &[KeptAxis], opts: &RunOptions) -> Vec<String> {
    let mut parts = vec![exp.name.to_string(), exp.title.clone()];
    for a in axes {
        let labels: Vec<&str> = a.values.iter().map(|v| v.label.as_str()).collect();
        parts.push(format!("axis:{}={}", a.name, labels.join(",")));
    }
    parts.push(format!("derived:{}", derived_names(exp).join(",")));
    parts.push(format!("overrides:{}", join_overrides(&opts.set_overrides)));
    parts
}

fn join_overrides(overrides: &[(String, String)]) -> String {
    overrides
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(",")
}

/// Executes an experiment: filter → supervise/evaluate (reusing journaled
/// cells) → derive → reduce.
///
/// # Errors
///
/// [`ScenarioError::InvalidOptions`] when a filter names an unknown label
/// or empties an axis; [`ScenarioError::Definition`] when a
/// reduction/derivation references an unknown axis;
/// [`ScenarioError::CellsFailed`] when cells fail terminally and
/// [`RunOptions::keep_going`] is off; [`ScenarioError::Journal`] /
/// [`ScenarioError::Io`] for resume-store problems.
pub fn run_experiment(
    exp: &Experiment,
    opts: &RunOptions,
) -> Result<ScenarioResult, ScenarioError> {
    let exp_axes = effective_axes(exp, opts)?;
    let axes = keep_axes(exp, &exp_axes, opts)?;
    for rule in &exp.derived {
        for (axis, _) in &rule.baseline {
            if !axes.iter().any(|a| a.name == axis) {
                return Err(ScenarioError::Definition(format!(
                    "derive rule references unknown axis {axis:?}"
                )));
            }
        }
    }
    for red in &exp.reductions {
        for axis in red.group_by.iter().chain(red.filter.iter().map(|(a, _)| a)) {
            if !axes.iter().any(|a| a.name == axis) {
                return Err(ScenarioError::Definition(format!(
                    "reduction {:?} references unknown axis {axis:?}",
                    red.label
                )));
            }
        }
    }

    let shape = grid_shape(&axes);
    let n_cells: usize = shape.iter().product();

    // Config-axis materialization: when any axis carries
    // [`Payload::Overrides`] values, every distinct (accelerator arm ×
    // config coordinates) combination is built once — base config +
    // overrides, validated — and handed to the cells via
    // `CellCtx::accel_override`. Bad parameter names or out-of-range
    // values surface here as errors, never panics.
    let accel_axis = axes.iter().position(|a| {
        a.values
            .iter()
            .any(|v| matches!(v.payload, Payload::Accel(_)))
    });
    let cfg_axes: Vec<usize> = axes
        .iter()
        .enumerate()
        .filter(|(_, a)| {
            a.values
                .iter()
                .any(|v| matches!(v.payload, Payload::Overrides(_)))
        })
        .map(|(i, _)| i)
        .collect();
    let combo_key = |idx: &[usize], pa: usize| -> Vec<usize> {
        std::iter::once(idx[pa])
            .chain(cfg_axes.iter().map(|&a| idx[a]))
            .collect()
    };
    let mut materialized: Vec<(Vec<usize>, Arc<Accelerator>)> = Vec::new();
    if !cfg_axes.is_empty() {
        let pa = accel_axis.ok_or_else(|| {
            ScenarioError::Definition(format!(
                "scenario {:?} has a config axis but no accelerator-carrying axis",
                exp.name
            ))
        })?;
        for i in 0..n_cells {
            let idx = unravel(i, &shape);
            let key = combo_key(&idx, pa);
            if materialized.iter().any(|(k, _)| *k == key) {
                continue;
            }
            let Payload::Accel(base) = &axes[pa].values[idx[pa]].payload else {
                // A mixed axis (fig17's GPU-label + accelerator arms):
                // non-accelerator arms take no overrides — the swept knob
                // only varies the hardware arms, and those cells keep
                // `accel_override == None`.
                continue;
            };
            let mut overrides: Vec<(String, String)> = Vec::new();
            for &a in &cfg_axes {
                let Payload::Overrides(ovr) = &axes[a].values[idx[a]].payload else {
                    return Err(ScenarioError::Definition(format!(
                        "config axis {:?} mixes override and non-override values",
                        axes[a].name
                    )));
                };
                overrides.extend(ovr.iter().cloned());
            }
            let accel = base.with_overrides(&overrides).map_err(|e| {
                ScenarioError::Config(format!("arm {:?}: {e}", axes[pa].values[idx[pa]].label))
            })?;
            materialized.push((key, Arc::new(accel)));
        }
    }

    let keys: Vec<String> = (0..n_cells).map(|i| cell_key(&axes, &shape, i)).collect();

    // Open the resume journal (when requested) and pull in completed
    // cells from previous runs; previously *failed* cells re-run.
    let (journal, cached) = match &opts.resume_dir {
        Some(dir) => {
            let spec = JournalSpec {
                scenario: exp.name.to_string(),
                fingerprint: fingerprint_hex(&fingerprint_parts(exp, &axes, opts)),
                overrides: join_overrides(&opts.set_overrides),
            };
            let (journal, cached) = Journal::open(dir, &spec)?;
            (Some(journal), cached)
        }
        None => (None, HashMap::new()),
    };
    let mut outcomes: Vec<Option<CellOutcome>> = (0..n_cells)
        .map(|i| match cached.get(&keys[i]) {
            Some(JournalOutcome::Ok(cell)) => Some(CellOutcome::Ok(cell.clone())),
            _ => None,
        })
        .collect();

    let todo: Vec<(usize, CellCtx)> = (0..n_cells)
        .filter(|&i| outcomes[i].is_none())
        .map(|i| {
            let idx = unravel(i, &shape);
            let accel_override = accel_axis.filter(|_| !cfg_axes.is_empty()).and_then(|pa| {
                let key = combo_key(&idx, pa);
                materialized
                    .iter()
                    .find(|(k, _)| *k == key)
                    .map(|(_, a)| Arc::clone(a))
            });
            let ctx = CellCtx {
                coords: axes
                    .iter()
                    .zip(&idx)
                    .map(|(a, &vi)| (a.name, &a.values[vi]))
                    .collect(),
                accel_override,
            };
            (i, ctx)
        })
        .collect();

    // Evaluate the missing cells (visible and hidden baseline cells) on
    // the shared pool, each under the supervisor; `par_map` preserves
    // input order, and each completed cell is journaled (and
    // flushed) the moment it settles so a killed run loses at most the
    // in-flight cells.
    let sup_cfg = SupervisorCfg {
        max_retries: opts.max_retries,
        timeout_ms: opts.cell_timeout_ms,
        faults: opts.faults.clone(),
    };
    let eval = &exp.eval;
    let fresh: Vec<(usize, CellOutcome)> = par_map(todo.len(), |t| {
        let (i, ctx) = &todo[t];
        let key = &keys[*i];
        let outcome = supervise(&sup_cfg, key, || eval(ctx));
        if let Some(journal) = &journal {
            match &outcome {
                CellOutcome::Ok(cell) => journal.append_ok(key, cell),
                CellOutcome::Failed {
                    kind,
                    error,
                    attempts,
                    ..
                } => journal.append_failure(key, *kind, error, *attempts),
            }
        }
        (*i, outcome.clone())
    });
    if let Some(err) = journal.as_ref().and_then(Journal::take_error) {
        return Err(err);
    }
    for (i, outcome) in fresh {
        outcomes[i] = Some(outcome);
    }
    let mut cells: Vec<CellOutcome> = outcomes
        .into_iter()
        .map(|o| o.expect("every cell is cached or freshly evaluated"))
        .collect();

    // Derived metrics: look up each cell's baseline arm and append
    // ratios; a failed baseline marks its dependents failed.
    for rule in &exp.derived {
        apply_normalize(rule, &axes, &shape, &keys, &mut cells)?;
    }

    // Collect terminal failures (hidden baseline arms included) in grid
    // order; without --keep-going they abort the run. The journal already
    // holds every completed cell, so a --resume re-run picks up from here
    // either way.
    let failures: Vec<CellFailure> = cells
        .iter()
        .enumerate()
        .filter_map(|(i, outcome)| match outcome {
            CellOutcome::Ok(_) => None,
            CellOutcome::Failed {
                kind,
                error,
                attempts,
                history,
            } => Some(CellFailure {
                coords: cell_coords(&axes, &shape, i),
                kind: *kind,
                error: error.clone(),
                attempts: *attempts,
                history: history.clone(),
            }),
        })
        .collect();
    if !failures.is_empty() && !opts.keep_going {
        let completed = cells
            .iter()
            .filter(|o| matches!(o, CellOutcome::Ok(_)))
            .count();
        return Err(ScenarioError::CellsFailed {
            failures,
            completed,
        });
    }

    let visible = |idx: &[usize]| -> bool { axes.iter().zip(idx).all(|(a, &vi)| a.visible[vi]) };

    let mut rows = Vec::new();
    for (i, outcome) in cells.iter().enumerate() {
        let idx = unravel(i, &shape);
        if !visible(&idx) {
            continue;
        }
        let coords = cell_coords(&axes, &shape, i);
        rows.push(match outcome {
            CellOutcome::Ok(cell) => ResultRow {
                coords,
                metrics: cell.metrics.clone(),
                notes: cell.notes.clone(),
                status: RowStatus::Ok,
            },
            CellOutcome::Failed {
                kind,
                error,
                attempts,
                ..
            } => ResultRow {
                coords,
                metrics: Vec::new(),
                notes: Vec::new(),
                status: RowStatus::Failed {
                    kind: *kind,
                    error: error.clone(),
                    attempts: *attempts,
                },
            },
        });
    }

    // Ad-hoc `--sweep` axes join every pre-declared reduction's group_by
    // (exactly what the registered dse_* scenarios declare themselves):
    // pooling cells across swept configurations into one aggregate —
    // next to a paper reference valid only at the paper's fixed point —
    // would be misleading.
    let sweep_axes: Vec<&str> = opts
        .sweeps
        .iter()
        .map(|(param, _)| param.as_str())
        .collect();
    let mut summaries = Vec::new();
    for red in &exp.reductions {
        let mut red = red.clone();
        for axis in &sweep_axes {
            if !red.group_by.iter().any(|g| g == axis) {
                red.group_by.push(axis.to_string());
            }
        }
        summaries.extend(apply_reduction(&red, &rows));
    }

    Ok(ScenarioResult {
        name: exp.name.to_string(),
        title: exp.title.clone(),
        axes: axes
            .iter()
            .map(|a| AxisMeta {
                name: a.name.to_string(),
                labels: a
                    .values
                    .iter()
                    .zip(&a.visible)
                    .filter(|(_, &vis)| vis)
                    .map(|(v, _)| v.label.clone())
                    .collect(),
            })
            .collect(),
        rows,
        summaries,
        display_metrics: exp.display_metrics.clone(),
        pivot: exp
            .pivot
            .as_ref()
            .map(|p| (p.axis.clone(), p.metric.clone())),
        notes: {
            let mut notes = exp.notes.clone();
            if !opts.set_overrides.is_empty() {
                let pins: Vec<String> = opts
                    .set_overrides
                    .iter()
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect();
                notes.push(format!(
                    "(every accelerator arm rebuilt with --set {})",
                    pins.join(" ")
                ));
            }
            notes
        },
        derived_metrics: derived_names(exp),
        overrides: opts.set_overrides.clone(),
        failures,
    })
}

/// The metric names the experiment's [`Normalize`] rules derive, deduped
/// in declaration order.
fn derived_names(exp: &Experiment) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for rule in &exp.derived {
        for metric in &rule.metrics {
            let name = rule.derived_name(metric);
            if !names.contains(&name) {
                names.push(name);
            }
        }
    }
    names
}

/// Applies one [`Normalize`] rule across the supervised grid. Cells whose
/// baseline arm failed become [`FailKind::DepFailed`] (their raw metrics
/// are dropped — a row that *looks* complete but has silently-missing
/// ratios would be worse than an explicit error record).
fn apply_normalize(
    rule: &Normalize,
    axes: &[KeptAxis],
    shape: &[usize],
    keys: &[String],
    cells: &mut [CellOutcome],
) -> Result<(), ScenarioError> {
    // Resolve the pinned index on each baseline axis (by normalized label).
    let mut pins: Vec<(usize, usize)> = Vec::new(); // (axis position, value index)
    for (axis_name, label) in &rule.baseline {
        let a = axes
            .iter()
            .position(|a| a.name == axis_name)
            .ok_or_else(|| {
                ScenarioError::Definition(format!(
                    "derive rule references unknown axis {axis_name:?}"
                ))
            })?;
        let Some(vi) = axes[a]
            .values
            .iter()
            .position(|v| norm_label(&v.label) == norm_label(label))
        else {
            // The baseline arm does not exist on this (possibly
            // batch-overridden) axis; skip the rule rather than fail, so
            // e.g. `--batch` replacements don't kill unrelated scenarios.
            return Ok(());
        };
        pins.push((a, vi));
    }
    if let (Rename::To(_), true) = (&rule.rename, rule.metrics.len() != 1) {
        return Err(ScenarioError::Definition(
            "Rename::To requires exactly one metric".to_string(),
        ));
    }
    let base_flat_of = |i: usize| -> usize {
        let mut base_idx = unravel(i, shape);
        for &(a, vi) in &pins {
            base_idx[a] = vi;
        }
        ravel(&base_idx, shape)
    };
    // Pass 1: a completed cell whose baseline arm failed is itself failed
    // for this rule's derived metrics — mark it, naming the baseline.
    let mut dep_failed: Vec<(usize, String)> = Vec::new();
    for i in 0..cells.len() {
        if !matches!(cells[i], CellOutcome::Ok(_)) {
            continue;
        }
        let base_flat = base_flat_of(i);
        if let CellOutcome::Failed { kind, error, .. } = &cells[base_flat] {
            dep_failed.push((
                i,
                format!("baseline arm [{}] {kind}: {error}", keys[base_flat]),
            ));
        }
    }
    for (i, error) in dep_failed {
        cells[i] = CellOutcome::Failed {
            kind: FailKind::DepFailed,
            error: error.clone(),
            attempts: 1,
            history: vec![error],
        };
    }
    // Pass 2: append the derived ratios for cells whose baseline is fine.
    for i in 0..cells.len() {
        let base_flat = base_flat_of(i);
        let mut new_metrics = Vec::new();
        {
            let CellOutcome::Ok(cell) = &cells[i] else {
                continue;
            };
            let CellOutcome::Ok(base) = &cells[base_flat] else {
                continue;
            };
            for metric in &rule.metrics {
                let denom_key = rule.denom_metric.as_deref().unwrap_or(metric.as_str());
                let (Some(num), Some(denom)) = (cell.get(metric), base.get(denom_key)) else {
                    continue;
                };
                if denom == 0.0 || num == 0.0 && rule.invert {
                    continue;
                }
                let value = if rule.invert {
                    denom / num
                } else {
                    num / denom
                };
                new_metrics.push((rule.derived_name(metric), value));
            }
        }
        if let CellOutcome::Ok(cell) = &mut cells[i] {
            cell.metrics.extend(new_metrics);
        }
    }
    Ok(())
}

/// A reduction group's `(axis, label)` key.
type GroupKey = Vec<(String, String)>;

/// Applies one [`Reduction`] over the visible rows, producing one summary
/// per group (groups appear in first-encountered grid order). Failed rows
/// are skipped and counted in [`Summary::skipped`]; a group whose every
/// matching row failed produces no summary (its damage is visible in the
/// error records instead).
fn apply_reduction(red: &Reduction, rows: &[ResultRow]) -> Vec<Summary> {
    let mut groups: Vec<(GroupKey, Vec<f64>, usize)> = Vec::new();
    for row in rows {
        let matches = red.filter.iter().all(|(axis, label)| {
            row.coord(axis)
                .is_some_and(|l| norm_label(l) == norm_label(label))
        });
        if !matches {
            continue;
        }
        let key: Vec<(String, String)> = red
            .group_by
            .iter()
            .filter_map(|axis| row.coord(axis).map(|l| (axis.clone(), l.to_string())))
            .collect();
        if !row.status.is_ok() {
            match groups.iter_mut().find(|(k, _, _)| *k == key) {
                Some((_, _, skipped)) => *skipped += 1,
                None => groups.push((key, Vec::new(), 1)),
            }
            continue;
        }
        let Some(value) = row.get(&red.metric) else {
            continue;
        };
        match groups.iter_mut().find(|(k, _, _)| *k == key) {
            Some((_, values, _)) => values.push(value),
            None => groups.push((key, vec![value], 0)),
        }
    }
    groups
        .into_iter()
        .filter(|(_, values, _)| !values.is_empty())
        .map(|(group, values, skipped)| {
            let value = match red.kind {
                ReduceKind::Mean => values.iter().sum::<f64>() / values.len() as f64,
                ReduceKind::Geomean => geomean(&values),
                ReduceKind::Max => values.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
                ReduceKind::Min => values.iter().cloned().fold(f64::INFINITY, f64::min),
            };
            Summary {
                label: red.label.clone(),
                metric: red.metric.clone(),
                kind: red.kind,
                group,
                value,
                count: values.len(),
                skipped,
                paper: red.paper,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::super::{Axis, Cell};
    use super::*;
    use crate::faults::{FaultKind, FaultPlan};
    use std::sync::Arc;

    /// A tiny synthetic experiment: value = 10 * model-index + point-index.
    fn toy() -> Experiment {
        Experiment::new(
            "toy",
            "toy experiment",
            Arc::new(|ctx: &CellCtx| {
                let m: f64 = ctx
                    .label("model")
                    .strip_prefix('m')
                    .unwrap()
                    .parse()
                    .unwrap();
                let p: f64 = ctx
                    .label("point")
                    .strip_prefix('p')
                    .unwrap()
                    .parse()
                    .unwrap();
                Cell::new().metric("v", 10.0 * m + p + 1.0)
            }),
        )
        .axis(Axis::new(
            "model",
            (0..3).map(|i| AxisValue::label(format!("m{i}"))),
        ))
        .axis(Axis::new(
            "point",
            (0..2).map(|i| AxisValue::label(format!("p{i}"))),
        ))
        .derive(Normalize::speedup("v", &[("point", "p0")], "ratio"))
        .reduce(
            Reduction::new("mean ratio at p1", "ratio", ReduceKind::Mean)
                .filter(&[("point", "p1")]),
        )
    }

    #[test]
    fn grid_is_row_major_and_complete() {
        let res = run_experiment(&toy(), &RunOptions::default()).unwrap();
        assert_eq!(res.rows.len(), 6);
        assert_eq!(
            res.rows[0].coords,
            vec![
                ("model".to_string(), "m0".to_string()),
                ("point".to_string(), "p0".to_string()),
            ]
        );
        assert_eq!(res.rows[1].coord("point"), Some("p1"));
        assert_eq!(res.rows[5].get("v"), Some(22.0));
        assert!(res.rows.iter().all(|r| r.status.is_ok()));
        assert!(res.failures.is_empty());
    }

    #[test]
    fn derived_ratio_uses_baseline_arm() {
        let res = run_experiment(&toy(), &RunOptions::default()).unwrap();
        // ratio at (m1, p1) = v(m1,p0)/v(m1,p1) = 11/12.
        let row = res
            .rows
            .iter()
            .find(|r| r.coord("model") == Some("m1") && r.coord("point") == Some("p1"))
            .unwrap();
        assert_eq!(row.get("ratio"), Some(11.0 / 12.0));
    }

    #[test]
    fn reduction_filters_and_counts() {
        let res = run_experiment(&toy(), &RunOptions::default()).unwrap();
        let s = &res.summaries[0];
        assert_eq!(s.count, 3);
        assert_eq!(s.skipped, 0);
        let expected = (1.0 / 2.0 + 11.0 / 12.0 + 21.0 / 22.0) / 3.0;
        assert!((s.value - expected).abs() < 1e-15);
    }

    #[test]
    fn hidden_baseline_survives_filters() {
        let opts = RunOptions::default().filter("point", &["p1"]);
        let res = run_experiment(&toy(), &opts).unwrap();
        // Only p1 rows are visible, but the p0 baseline was still evaluated.
        assert_eq!(res.rows.len(), 3);
        assert!(res.rows.iter().all(|r| r.coord("point") == Some("p1")));
        assert_eq!(res.rows[0].get("ratio"), Some(1.0 / 2.0));
        assert_eq!(res.axes[1].labels, vec!["p1".to_string()]);
    }

    #[test]
    fn unknown_filter_label_is_an_error() {
        let opts = RunOptions::default().filter("model", &["m0", "bogus"]);
        let err = run_experiment(&toy(), &opts).unwrap_err().to_string();
        assert!(err.contains("bogus"), "{err}");
        assert!(err.contains("available"), "{err}");
    }

    #[test]
    fn cell_failure_aborts_with_coordinates_unless_keep_going() {
        // Panic on every cell, deterministically (sticky so retries can't
        // mask it).
        let opts = RunOptions::default()
            .filter("model", &["m1"])
            .faults(FaultPlan::single(FaultKind::Panic, 1.0, 0).sticky());
        let err = run_experiment(&toy(), &opts).unwrap_err();
        let ScenarioError::CellsFailed { failures, .. } = &err else {
            panic!("expected CellsFailed, got {err}");
        };
        // m1 is filtered in; p0 baseline cells are hidden but supervised
        // too — every cell was injected, so all kept cells fail.
        assert!(!failures.is_empty());
        assert!(failures[0].key().contains("model=m1"), "{}", failures[0]);
        assert_eq!(err.exit_code(), 2);

        // keep_going turns the same failures into explicit error rows.
        let opts = RunOptions::default()
            .filter("model", &["m1"])
            .faults(FaultPlan::single(FaultKind::Panic, 1.0, 0).sticky())
            .keep_going();
        let res = run_experiment(&toy(), &opts).unwrap();
        assert_eq!(res.rows.len(), 2);
        assert!(res.rows.iter().all(|r| !r.status.is_ok()));
        assert_eq!(res.failures.len(), 2);
        assert!(res.summaries.is_empty(), "all-failed groups emit nothing");
    }

    #[test]
    fn failed_baseline_marks_dependents_dep_failed() {
        // Fail only the (m0, p0) baseline cell (a targeted eval, not the
        // hash-based harness): its p1 dependent must be DepFailed even
        // though its own eval succeeded.
        let exp = Experiment::new(
            "toy_dep",
            "dep failure",
            Arc::new(|ctx: &CellCtx| {
                if ctx.label("model") == "m0" && ctx.label("point") == "p0" {
                    panic!("baseline down");
                }
                Cell::new().metric("v", 2.0)
            }),
        )
        .axis(Axis::new(
            "model",
            (0..2).map(|i| AxisValue::label(format!("m{i}"))),
        ))
        .axis(Axis::new(
            "point",
            (0..2).map(|i| AxisValue::label(format!("p{i}"))),
        ))
        .derive(Normalize::speedup("v", &[("point", "p0")], "ratio"))
        .reduce(Reduction::new("mean ratio", "ratio", ReduceKind::Mean).filter(&[("point", "p1")]));
        let res = run_experiment(&exp, &RunOptions::default().keep_going()).unwrap();
        let dep = res
            .rows
            .iter()
            .find(|r| r.coord("model") == Some("m0") && r.coord("point") == Some("p1"))
            .unwrap();
        let RowStatus::Failed { kind, error, .. } = &dep.status else {
            panic!("dependent of a failed baseline must be failed");
        };
        assert_eq!(*kind, FailKind::DepFailed);
        assert!(error.contains("model=m0|point=p0"), "{error}");
        assert!(dep.metrics.is_empty(), "raw metrics must be dropped");
        // The m1 half of the grid is untouched and still reduces, with
        // the dep-failed row counted as skipped.
        let ok = res
            .rows
            .iter()
            .find(|r| r.coord("model") == Some("m1") && r.coord("point") == Some("p1"))
            .unwrap();
        assert_eq!(ok.get("ratio"), Some(1.0));
        let s = &res.summaries[0];
        assert_eq!(s.count, 1);
        assert_eq!(s.skipped, 1);
        // Both the panicked baseline and its dep-failed dependent are in
        // the failure list.
        assert_eq!(res.failures.len(), 2);
    }

    #[test]
    fn retries_recover_nonsticky_injected_faults_byte_identically() {
        let clean = run_experiment(&toy(), &RunOptions::default()).unwrap();
        let opts = RunOptions::default()
            .faults(FaultPlan::single(FaultKind::Panic, 1.0, 3))
            .max_retries(1);
        let recovered = run_experiment(&toy(), &opts).unwrap();
        assert_eq!(clean, recovered);
    }

    #[test]
    fn ravel_unravel_round_trip() {
        let shape = [3usize, 4, 2];
        for i in 0..24 {
            assert_eq!(ravel(&unravel(i, &shape), &shape), i);
        }
    }
}
