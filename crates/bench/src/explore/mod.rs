//! The design-space explorer: a Pareto-frontier search driver over the
//! 12-knob `diva_arch::params` registry.
//!
//! A search is `(space, strategy, seed, budget, workloads, objectives)`.
//! The driver generates candidates in a strictly deterministic sequence
//! (see [`strategy`]), evaluates each batch work-stealing-style over the
//! shared `diva_tensor` worker pool, memoizes repeated accelerator
//! materializations behind a canonical-config key (see [`evaluate`]),
//! folds results into an exact Pareto frontier (see [`frontier`]), and —
//! when a journal directory is given — records every evaluated point
//! through the `scenario::journal` machinery so a killed search resumes
//! byte-identically.
//!
//! Three front doors share this engine: the `diva-explore` CLI
//! (`crates/explore`), the registered `explore_frontier` scenario
//! (regression-gateable via `diva-report --compare`), and `diva-serve`'s
//! `POST /explore` job endpoint.

pub mod evaluate;
pub mod frontier;
pub mod render;
pub mod strategy;

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

use diva_arch::params;
use diva_tensor::parallel::par_map;

use crate::scenario::journal::{fingerprint_hex, Journal, JournalOutcome, JournalSpec};
use crate::scenario::{Cell, ScenarioError};

use evaluate::evaluate_config;
pub use evaluate::{EvalCache, MemoStats, Workload};
pub use frontier::{dominates, Frontier};
pub use strategy::{Knob, SearchSpace, Strategy};

/// One optimization objective; all are minimized.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Objective {
    /// Summed step latency over the workload set (seconds).
    Latency,
    /// Summed step energy over the workload set (joules).
    Energy,
    /// Synthesized engine area (mm², workload-independent).
    Area,
}

impl Objective {
    /// All objectives, in canonical order.
    pub const ALL: [Objective; 3] = [Objective::Latency, Objective::Energy, Objective::Area];

    /// The metric name this objective reads (`latency_s`, `energy_j`,
    /// `area_mm2`).
    pub fn metric(self) -> &'static str {
        match self {
            Objective::Latency => "latency_s",
            Objective::Energy => "energy_j",
            Objective::Area => "area_mm2",
        }
    }

    /// Parses one objective slug (`latency`, `energy`, `area`; the metric
    /// names are accepted too).
    ///
    /// # Errors
    ///
    /// Lists the valid slugs when `text` matches none.
    pub fn parse(text: &str) -> Result<Self, String> {
        match text.trim().to_ascii_lowercase().as_str() {
            "latency" | "latency_s" => Ok(Objective::Latency),
            "energy" | "energy_j" => Ok(Objective::Energy),
            "area" | "area_mm2" => Ok(Objective::Area),
            other => Err(format!(
                "unknown objective {other:?} (expected latency, energy or area)"
            )),
        }
    }

    /// Parses a comma-separated objective list, deduplicated with order
    /// preserved.
    ///
    /// # Errors
    ///
    /// Rejects empty lists and unknown slugs.
    pub fn parse_list(text: &str) -> Result<Vec<Self>, String> {
        let mut out = Vec::new();
        for part in text.split(',').filter(|p| !p.trim().is_empty()) {
            let o = Self::parse(part)?;
            if !out.contains(&o) {
                out.push(o);
            }
        }
        if out.is_empty() {
            return Err("no objectives given".to_string());
        }
        Ok(out)
    }
}

/// One evaluated candidate: its identity, the objective vector dominance
/// is decided on, and the full metric set for rendering/journaling.
#[derive(Clone, Debug, PartialEq)]
pub struct EvaluatedPoint {
    /// Canonical candidate spec, `preset[:k=v,...]` (the journal key).
    pub spec: String,
    /// Canonical resolved-config key (the memo-cache key).
    pub config_key: String,
    /// `(metric, value)` per searched objective, in objective order.
    pub objectives: Vec<(String, f64)>,
    /// The full metric vector, canonical order.
    pub metrics: Vec<(String, f64)>,
}

impl EvaluatedPoint {
    /// The objective values, aligned with the search's objective order.
    pub fn objective_values(&self) -> Vec<f64> {
        self.objectives.iter().map(|(_, v)| *v).collect()
    }
}

/// A full search description; [`explore`] is a pure function of it.
#[derive(Clone, Debug)]
pub struct ExploreConfig {
    /// Base preset and knob grid.
    pub space: SearchSpace,
    /// Workload set the latency/energy objectives sum over.
    pub workloads: Vec<Workload>,
    /// Objectives to minimize (order fixes the dominance vector).
    pub objectives: Vec<Objective>,
    /// Candidate-generation strategy.
    pub strategy: Strategy,
    /// RNG seed for the random/halving strategies.
    pub seed: u64,
    /// Maximum candidates to evaluate.
    pub budget: usize,
    /// Candidates dispatched per parallel batch (the frontier — and with
    /// it the halving strategy — updates between batches).
    pub batch_size: usize,
    /// Journal directory for kill/resume; `None` disables journaling.
    pub journal_dir: Option<PathBuf>,
    /// Test/CI hook: stop (leaving the journal partial) after this many
    /// points have been journaled *by this run*.
    pub kill_after: Option<usize>,
    /// Disables the memo cache (bench baseline; searches always leave
    /// this on).
    pub memo: bool,
}

impl ExploreConfig {
    /// A search over `space` with the explorer's defaults: random
    /// strategy, seed 42, budget 64, batch size 16, all three objectives,
    /// SqueezeNet+MobileNet at batch 32, memoized, no journal.
    pub fn new(space: SearchSpace) -> Self {
        Self {
            space,
            workloads: vec![
                Workload::parse("squeezenet@32").expect("default workload"),
                Workload::parse("mobilenet@32").expect("default workload"),
            ],
            objectives: Objective::ALL.to_vec(),
            strategy: Strategy::Random,
            seed: 42,
            budget: 64,
            batch_size: 16,
            journal_dir: None,
            kill_after: None,
            memo: true,
        }
    }

    /// The parts hashed into the journal fingerprint: everything that
    /// shapes the candidate sequence or a point's metrics.
    fn fingerprint_parts(&self) -> Vec<String> {
        let mut parts = vec![
            "diva-explore/v1".to_string(),
            self.space.base.label().to_string(),
            self.strategy.slug().to_string(),
            self.seed.to_string(),
            self.budget.to_string(),
            self.batch_size.to_string(),
        ];
        for k in &self.space.knobs {
            parts.push(format!("{}={}", k.param, k.values.join("|")));
        }
        for w in &self.workloads {
            parts.push(w.spec_string());
        }
        for o in &self.objectives {
            parts.push(o.metric().to_string());
        }
        parts
    }

    /// The journal header identity for this search.
    pub fn journal_spec(&self) -> JournalSpec {
        JournalSpec {
            scenario: "explore".to_string(),
            fingerprint: fingerprint_hex(&self.fingerprint_parts()),
            overrides: String::new(),
        }
    }

    fn validate(&self) -> Result<(), ScenarioError> {
        let invalid = |msg: String| Err(ScenarioError::InvalidOptions(msg));
        if self.objectives.is_empty() {
            return invalid("no objectives".to_string());
        }
        if self.workloads.is_empty() {
            return invalid("no workloads".to_string());
        }
        if self.budget == 0 {
            return invalid("budget must be positive".to_string());
        }
        if self.batch_size == 0 {
            return invalid("batch size must be positive".to_string());
        }
        if self.space.knobs.is_empty() {
            return invalid("search space has no knobs".to_string());
        }
        for k in &self.space.knobs {
            if !params::is_param(&k.param) {
                return invalid(format!("unknown parameter {:?}", k.param));
            }
            if k.values.is_empty() {
                return invalid(format!("knob {:?} has no values", k.param));
            }
        }
        Ok(())
    }
}

/// Search counters, all deterministic for a fixed config.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// Candidates generated by the strategy.
    pub generated: u64,
    /// Candidates whose config failed validation (skipped, not journaled).
    pub invalid: u64,
    /// Points replayed from the journal instead of re-simulated.
    pub journal_reused: u64,
    /// Memo-cache counters over fresh evaluations.
    pub memo: MemoStats,
}

/// The completed (or killed) search.
#[derive(Clone, Debug)]
pub struct ExploreResult {
    /// The search that produced this result.
    pub config: ExploreConfig,
    /// Every evaluated point, in candidate order.
    pub evaluated: Vec<EvaluatedPoint>,
    /// The exact Pareto frontier over `evaluated`.
    pub frontier: Frontier,
    /// Deterministic counters.
    pub stats: ExploreStats,
    /// `false` when `kill_after` stopped the search early.
    pub complete: bool,
}

/// Builds the journal cell for an evaluated point (full metric vector
/// plus the config key as a note).
fn cell_for(point: &EvaluatedPoint) -> Cell {
    let mut cell = Cell::new().note("config", point.config_key.clone());
    for (k, v) in &point.metrics {
        cell = cell.metric(k.clone(), *v);
    }
    cell
}

/// Rebuilds an evaluated point from its journal cell.
fn point_from_cell(
    spec: &str,
    cell: &Cell,
    objectives: &[Objective],
) -> Result<EvaluatedPoint, ScenarioError> {
    let config_key = cell
        .notes
        .iter()
        .find(|(k, _)| k == "config")
        .map(|(_, v)| v.clone())
        .ok_or_else(|| {
            ScenarioError::Journal(format!("journaled point {spec:?} has no config note"))
        })?;
    let mut objective_vals = Vec::with_capacity(objectives.len());
    for o in objectives {
        let v = cell.get(o.metric()).ok_or_else(|| {
            ScenarioError::Journal(format!(
                "journaled point {spec:?} is missing metric {:?}",
                o.metric()
            ))
        })?;
        objective_vals.push((o.metric().to_string(), v));
    }
    Ok(EvaluatedPoint {
        spec: spec.to_string(),
        config_key,
        objectives: objective_vals,
        metrics: cell.metrics.clone(),
    })
}

/// Runs a search to completion (or to `kill_after`).
///
/// Determinism contract: for a fixed [`ExploreConfig`], the evaluated
/// sequence, frontier, counters and every rendered artifact are bitwise
/// identical across runs, worker-thread counts, and kill/`--resume`
/// boundaries.
///
/// # Errors
///
/// [`ScenarioError::InvalidOptions`] for an ill-formed config,
/// [`ScenarioError::Journal`] for journal open/append/decode failures.
pub fn explore(cfg: &ExploreConfig) -> Result<ExploreResult, ScenarioError> {
    cfg.validate()?;
    let (journal, prior): (Option<Journal>, HashMap<String, JournalOutcome>) =
        match &cfg.journal_dir {
            Some(dir) => {
                let (j, prior) = Journal::open(dir, &cfg.journal_spec())?;
                (Some(j), prior)
            }
            None => (None, HashMap::new()),
        };

    let cache = EvalCache::new();
    let mut gen = strategy::Generator::new(cfg.space.clone(), cfg.strategy, cfg.seed);
    let mut frontier = Frontier::new();
    let mut evaluated: Vec<EvaluatedPoint> = Vec::new();
    let mut stats = ExploreStats::default();
    let mut journaled_this_run = 0usize;
    let mut killed = false;

    'search: while evaluated.len() < cfg.budget && !gen.exhausted() {
        let want = cfg.batch_size.min(cfg.budget - evaluated.len());
        let batch = gen.next_batch(&frontier, want);
        if batch.is_empty() {
            break;
        }
        stats.generated += batch.len() as u64;

        // Sequential planning pass: validate configs and split the batch
        // into journal-replayed points and fresh work (deterministic
        // invalid/reuse accounting, order preserved).
        enum Slot {
            Reused(EvaluatedPoint),
            Fresh(usize),
        }
        let mut slots = Vec::with_capacity(batch.len());
        let mut fresh = Vec::new();
        for spec in &batch {
            let config = match spec.config() {
                Ok(c) => c,
                Err(_) => {
                    stats.invalid += 1;
                    continue;
                }
            };
            let key = spec.spec_string();
            if let Some(JournalOutcome::Ok(cell)) = prior.get(&key) {
                slots.push(Slot::Reused(point_from_cell(&key, cell, &cfg.objectives)?));
                continue;
            }
            slots.push(Slot::Fresh(fresh.len()));
            fresh.push((key, params::config_key(&config), config));
        }

        // Parallel evaluation over the shared worker pool; the memo cache
        // single-flights duplicate config keys across racing workers.
        let results: Vec<Arc<Vec<(String, f64)>>> = par_map(fresh.len(), |i| {
            let (_, config_key, config) = &fresh[i];
            if cfg.memo {
                cache
                    .get_or_compute(config_key, || evaluate_config(config, &cfg.workloads))
                    .0
            } else {
                cache.count_uncached();
                Arc::new(evaluate_config(config, &cfg.workloads))
            }
        });

        // Sequential fold: journal fresh points and grow the frontier in
        // candidate order.
        for slot in slots {
            let point = match slot {
                Slot::Reused(p) => {
                    stats.journal_reused += 1;
                    p
                }
                Slot::Fresh(i) => {
                    let (spec, config_key, _) = &fresh[i];
                    let metrics: Vec<(String, f64)> = results[i].as_ref().clone();
                    let objectives = cfg
                        .objectives
                        .iter()
                        .map(|o| {
                            let v = metrics
                                .iter()
                                .find(|(k, _)| k == o.metric())
                                .map(|(_, v)| *v)
                                .expect("evaluate_config emits every objective metric");
                            (o.metric().to_string(), v)
                        })
                        .collect();
                    let point = EvaluatedPoint {
                        spec: spec.clone(),
                        config_key: config_key.clone(),
                        objectives,
                        metrics,
                    };
                    if let Some(j) = &journal {
                        j.append_ok(&point.spec, &cell_for(&point));
                        journaled_this_run += 1;
                    }
                    point
                }
            };
            evaluated.push(point.clone());
            frontier.offer(point);
            if let Some(k) = cfg.kill_after {
                if journaled_this_run >= k {
                    killed = true;
                    break 'search;
                }
            }
        }
        if let Some(err) = journal.as_ref().and_then(Journal::take_error) {
            return Err(err);
        }
    }
    if let Some(err) = journal.as_ref().and_then(Journal::take_error) {
        return Err(err);
    }

    stats.memo = cache.stats();
    Ok(ExploreResult {
        config: cfg.clone(),
        evaluated,
        frontier,
        stats,
        complete: !killed,
    })
}
