//! The served design-space mix: an open loop at a fixed offered rate
//! against an in-process `diva_serve::Server` over two keep-alive
//! connections.
//!
//! Requests are sent on a fixed schedule whatever the server's state, and
//! each is timed from when it was due, so a stall shows up in the latency
//! of every request queued behind it. The load side uses two threads, one
//! per connection, and nothing else.

use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use diva_bench::scenario;
use diva_core::{Accelerator, Algorithm, DesignPoint, EnergyModel};
use diva_dp::{batch_epsilons, event_epsilon, AccountantKind, DpEvent};
use diva_serve::{api, Connection, Server, ServerConfig};
use diva_tensor::parallel::{par_map, pool_stats};
use diva_tensor::DivaRng;
use diva_workload::{zoo, ModelSpec};

use crate::host::{peak_rss_mib, ProcSample};
use crate::stats::{median, percentile, Fnv1a};
use crate::trace::Tracer;
use crate::{Check, Outcome};

/// Offered load: about an eighth of the mix's capacity on a 2-core host.
/// Queueing on two connections amplifies any slowdown of the host into
/// the mix's median; at higher rates that swung the median by half between
/// runs (see the benchmark's README).
const OFFERED_RPS: f64 = 10.0;
/// Goodput counts correct answers within this limit (stated in
/// `BENCHMARK.json`).
const LATENCY_LIMIT_MS: f64 = 1000.0;
/// A request (including its job polling) that takes longer has failed.
const TIMEOUT: Duration = Duration::from_secs(10);
const POLL_INTERVAL: Duration = Duration::from_millis(1);
/// Repeated keys per endpoint; warmed during set-up, so they are hits.
const HIT_KEYS_PER_ENDPOINT: usize = 4;
const SETUP_REPEATS: usize = 5;
/// Fresh bodies of each kind replayed directly for the per-layer numbers.
const REPLAYS: usize = 6;
const CONNECTIONS: usize = 2;
/// Stretches of the schedule whose medians give `latency_ms_p50`: other
/// tenants of a shared host slow it for stretches of seconds, and the
/// lower quartile of the stretches holds against that (see `parts.rs`).
const STRETCHES: usize = 5;
/// One deck of the mix: 40% repeated keys, 30% fresh `/run` grids, 20%
/// fresh `/epsilon` queries and 10% fresh `/explore` jobs. Hits are the
/// fastest class and fresh grids the next, so with hits below half the
/// mix's median falls inside the fresh-grid latencies rather than on the
/// steep edge between the two classes, where it would swing run to run.
const MIX: [(Class, usize); 4] = [
    (Class::Hit, 8),
    (Class::RunFresh, 6),
    (Class::EpsilonFresh, 4),
    (Class::Explore, 2),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Class {
    Hit,
    RunFresh,
    EpsilonFresh,
    Explore,
}

impl Class {
    fn span(self) -> &'static str {
        match self {
            Class::Hit => "serve.hit",
            Class::RunFresh => "serve.run_fresh",
            Class::EpsilonFresh => "serve.epsilon_fresh",
            Class::Explore => "serve.explore",
        }
    }
}

const FRESH_RUN_MODELS: [&str; 3] = ["ResNet-50", "MobileNet", "BERT-base"];

/// A multi-model `fig13` grid over every design point and both
/// algorithms; the bandwidth override makes its cache key unique.
#[derive(Clone, Debug)]
struct RunBody {
    models: Vec<String>,
    batch: u64,
    bandwidth_gbps: u64,
}

impl RunBody {
    /// A repeated key: three models drawn from the zoo.
    fn random(rng: &mut DivaRng, bandwidth_gbps: u64) -> Self {
        let mut names: Vec<String> = zoo::all_models().into_iter().map(|m| m.name).collect();
        rng.shuffle(&mut names);
        names.truncate(3);
        Self {
            models: names,
            batch: [16, 32, 64][rng.index(3)],
            bandwidth_gbps,
        }
    }

    /// A fresh grid: always the same three models, so that every fresh
    /// `/run` costs about the same and the mix's median does not move with
    /// the seed's model draw; the batch varies.
    fn fresh(rng: &mut DivaRng, bandwidth_gbps: u64) -> Self {
        Self {
            models: FRESH_RUN_MODELS.iter().map(|m| m.to_string()).collect(),
            batch: [16, 32, 64][rng.index(3)],
            bandwidth_gbps,
        }
    }

    fn body(&self) -> String {
        format!(
            "{{\"scenario\": \"fig13\", \"models\": \"{}\", \"points\": \"ws,os+ppu,diva-w/o-ppu,diva\", \
             \"algs\": \"dp-sgd-r,sgd\", \"batch\": \"{}\", \"set.mem.bandwidth_gbps\": {}}}",
            self.models.join(","),
            self.batch,
            self.bandwidth_gbps
        )
    }
}

/// A PLD+RDP ε query with a one-point curve, keyed by its step count. The
/// accountants' cost depends on `q` and `sigma`, so those stay fixed and
/// every query costs about the same.
#[derive(Clone, Copy, Debug)]
struct EpsilonBody {
    steps: u64,
}

impl EpsilonBody {
    const Q: f64 = 0.01;
    const SIGMA: f64 = 1.1;
    const DELTA: f64 = 1e-5;

    fn body(&self) -> String {
        format!(
            "{{\"q\": {}, \"sigma\": {}, \"steps\": {}, \"delta\": {}, \"step_counts\": \"{}\"}}",
            Self::Q,
            Self::SIGMA,
            self.steps,
            Self::DELTA,
            self.steps / 2
        )
    }
}

#[derive(Clone, Debug)]
enum Body {
    Run(RunBody),
    Epsilon(EpsilonBody),
    /// The default 6-knob search with this seed.
    Explore(u64),
}

impl Body {
    fn path(&self) -> &'static str {
        match self {
            Body::Run(_) => "/run",
            Body::Epsilon(_) => "/epsilon",
            Body::Explore(_) => "/explore",
        }
    }

    fn text(&self) -> String {
        match self {
            Body::Run(r) => r.body(),
            Body::Epsilon(e) => e.body(),
            Body::Explore(seed) => format!("{{\"seed\": {seed}}}"),
        }
    }

    /// The document the API layer computes for this body directly.
    fn expected(&self) -> Result<Vec<u8>, String> {
        let text = self.text();
        let bytes = text.as_bytes();
        let result = match self {
            Body::Run(_) => api::parse_run_request(bytes).and_then(|r| api::execute_run(&r)),
            Body::Epsilon(_) => {
                api::parse_epsilon_request(bytes).and_then(|r| api::execute_epsilon(&r))
            }
            Body::Explore(_) => {
                api::parse_explore_request(bytes).and_then(|r| api::execute_explore(&r))
            }
        };
        result.map_err(|e| String::from_utf8_lossy(&e.body()).into_owned())
    }
}

struct Planned {
    class: Class,
    body: Body,
    text: String,
    due: Duration,
}

/// The seeded request schedule: warm keys, then the timed requests.
struct Plan {
    hit_keys: Vec<Body>,
    requests: Vec<Planned>,
}

fn make_plan(seed: u64, seconds: f64) -> Plan {
    let mut rng = DivaRng::seed_from_u64(seed);
    let mut hit_keys = Vec::new();
    for k in 0..HIT_KEYS_PER_ENDPOINT as u64 {
        hit_keys.push(Body::Run(RunBody::random(&mut rng, 400 + k)));
        hit_keys.push(Body::Epsilon(EpsilonBody { steps: 1000 + k }));
    }
    let n = (OFFERED_RPS * seconds).round().max(1.0) as usize;
    let explore_base = 1_000_000 * (seed % 1000 + 1);
    // Classes are dealt from shuffled decks with the mix's exact shares,
    // so every seed offers the same proportions.
    let mut deck: Vec<Class> = Vec::new();
    let requests = (0..n)
        .map(|i| {
            if deck.is_empty() {
                for (class, count) in MIX {
                    deck.extend(std::iter::repeat_n(class, count));
                }
                rng.shuffle(&mut deck);
            }
            let class = deck.pop().expect("refilled above");
            let unique = i as u64;
            let body = match class {
                Class::Hit => hit_keys[rng.index(hit_keys.len())].clone(),
                Class::RunFresh => Body::Run(RunBody::fresh(&mut rng, 1000 + unique)),
                Class::EpsilonFresh => Body::Epsilon(EpsilonBody {
                    steps: 2000 + unique,
                }),
                Class::Explore => Body::Explore(explore_base + unique),
            };
            Planned {
                class,
                text: body.text(),
                body,
                due: Duration::from_secs_f64(i as f64 / OFFERED_RPS),
            }
        })
        .collect();
    Plan { hit_keys, requests }
}

/// A started server with its warmed keys and open connections.
struct Fixture {
    server: Server,
    conns: Vec<Connection>,
}

impl Fixture {
    fn start(plan: &Plan) -> Result<Self, String> {
        let server = Server::start(ServerConfig::default()).map_err(|e| e.to_string())?;
        let mut conns = Vec::with_capacity(CONNECTIONS);
        for _ in 0..CONNECTIONS {
            conns.push(Connection::open(server.addr()).map_err(|e| e.to_string())?);
        }
        for key in &plan.hit_keys {
            let r = conns[0]
                .send("POST", key.path(), Some(key.text().as_bytes()))
                .map_err(|e| e.to_string())?;
            if r.status != 200 {
                return Err(format!("warming {} answered {}", key.path(), r.status));
            }
        }
        Ok(Self { server, conns })
    }

    fn stop(self) {
        drop(self.conns);
        self.server.shutdown();
        self.server.wait();
    }
}

/// What happened to one planned request.
struct Served {
    index: usize,
    status: u16,
    /// From when the request was due until its answer (or its job's
    /// result) arrived.
    latency_ms: f64,
    /// From send until the answer arrived.
    service_ms: f64,
    body: Vec<u8>,
    /// How late the generator sent a request it was idle for.
    lag_ms: Option<f64>,
    traced: bool,
}

fn job_id(body: &[u8]) -> Option<u64> {
    let text = std::str::from_utf8(body).ok()?;
    let rest = &text[text.find("\"job_id\":")? + "\"job_id\":".len()..];
    let digits: String = rest
        .trim_start()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Sends one request and, for a deferred job, polls it to completion.
fn exchange(
    conn: &mut Connection,
    planned: &Planned,
    tr: &mut Tracer,
    root: usize,
) -> std::io::Result<(u16, Vec<u8>)> {
    let id = planned_id(planned);
    let send = tr.begin("serve.send", id, Some(root));
    let first = conn.send("POST", planned.body.path(), Some(planned.text.as_bytes()))?;
    tr.end(send);
    let job = match job_id(&first.body) {
        Some(job) if first.status == 202 => job,
        _ => return Ok((first.status, first.body)),
    };
    let wait = tr.begin("serve.job_wait", id, Some(root));
    let started = Instant::now();
    let path = format!("/jobs/{job}");
    let result = loop {
        std::thread::sleep(POLL_INTERVAL);
        let r = conn.send("GET", &path, None)?;
        if r.status != 202 || started.elapsed() > TIMEOUT {
            break r;
        }
    };
    tr.end(wait);
    Ok((result.status, result.body))
}

/// The request's id in its spans: its due time in microseconds, unique
/// within a schedule.
fn planned_id(planned: &Planned) -> u64 {
    planned.due.as_micros() as u64
}

/// One load thread: takes the next planned request, waits until it is
/// due (if early), sends it and records the outcome.
fn drive(
    addr: SocketAddr,
    mut conn: Connection,
    plan: &Plan,
    next: &AtomicUsize,
    t0: Instant,
    trace_from: Option<Duration>,
    tr: &mut Tracer,
) -> Vec<Served> {
    let mut served = Vec::new();
    loop {
        let index = next.fetch_add(1, Ordering::SeqCst);
        let Some(planned) = plan.requests.get(index) else {
            break;
        };
        let due = t0 + planned.due;
        let mut lag_ms = None;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
            lag_ms = Some(due.elapsed().as_secs_f64() * 1e3);
        }
        let traced = trace_from.is_some_and(|from| planned.due >= from);
        tr.set_enabled(traced);
        let sent = Instant::now();
        let root = tr.begin(planned.class.span(), planned_id(planned), None);
        let outcome = exchange(&mut conn, planned, tr, root);
        tr.end(root);
        let (status, body) = match outcome {
            Ok(ok) => ok,
            Err(_) => {
                // The connection is unusable after an I/O error.
                if let Ok(fresh) = Connection::open(addr) {
                    conn = fresh;
                }
                (0, Vec::new())
            }
        };
        served.push(Served {
            index,
            status,
            latency_ms: due.elapsed().as_secs_f64() * 1e3,
            service_ms: sent.elapsed().as_secs_f64() * 1e3,
            body,
            lag_ms,
            traced,
        });
    }
    served
}

/// `(hits, misses, internal errors)` from `/stats`.
fn server_counters(conn: &mut Connection) -> Result<(u64, u64, u64), String> {
    let r = conn
        .send("GET", "/stats", None)
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&r.body).into_owned();
    let field = |name: &str| -> Result<u64, String> {
        let key = format!("\"{name}\": ");
        let at = text.find(&key).ok_or(format!("/stats has no {name}"))?;
        text[at + key.len()..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse()
            .map_err(|e| format!("/stats {name}: {e}"))
    };
    Ok((field("hits")?, field("misses")?, field("internal")?))
}

fn find_model(name: &str) -> Option<ModelSpec> {
    zoo::all_models().into_iter().find(|m| m.name == name)
}

/// Direct replays of the mix's fresh bodies through the layers below the
/// server, each call in its own span.
fn replay_layers(plan: &Plan, tr: &mut Tracer, metrics: &mut BTreeMap<&'static str, f64>) {
    let energy = EnergyModel::calibrated();
    let mut cells = 0usize;
    let mut ops = 0usize;
    let mut run_ms = Vec::new();
    let mut explore_candidates = 0usize;
    let mut explore_ms = 0.0;
    let (mut lookups, mut computed) = (0u64, 0u64);
    let fresh = |class: Class| {
        plan.requests
            .iter()
            .filter(move |p| p.class == class)
            .take(REPLAYS)
    };
    for p in fresh(Class::RunFresh) {
        let Body::Run(run) = &p.body else { continue };
        let id = planned_id(p);
        let Ok(req) = api::parse_run_request(p.text.as_bytes()) else {
            continue;
        };
        let t = Instant::now();
        let result = tr.span("scenario.run_with", id, None, || {
            scenario::run_with(&req.scenario, &req.opts)
        });
        run_ms.push(t.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(result.is_ok());
        let overrides = [("mem.bandwidth_gbps", run.bandwidth_gbps.to_string())];
        for model in run.models.iter().filter_map(|m| find_model(m)) {
            for point in DesignPoint::ALL {
                let Ok(accel) = Accelerator::from_design_point(point)
                    .and_then(|a| a.with_overrides(&overrides))
                else {
                    continue;
                };
                for alg in [Algorithm::DpSgdReweighted, Algorithm::Sgd] {
                    let lowered =
                        tr.span("workload.lower", id, None, || model.lower(alg, run.batch));
                    let timing = tr.span("sim.time_step", id, None, || {
                        accel.simulator().time_step(&lowered)
                    });
                    let e = tr.span("energy.step_energy", id, None, || {
                        energy.step_energy(accel.config(), &timing)
                    });
                    std::hint::black_box(e);
                    cells += 1;
                    ops += lowered.len();
                }
            }
        }
    }
    for p in fresh(Class::EpsilonFresh) {
        let Body::Epsilon(e) = &p.body else { continue };
        let id = planned_id(p);
        let step = DpEvent::poisson_sampled(EpsilonBody::Q, DpEvent::gaussian(EpsilonBody::SIGMA));
        let run = DpEvent::self_composed(step.clone(), e.steps);
        for (kind, span) in [
            (AccountantKind::Pld, "dp.pld_epsilon"),
            (AccountantKind::Rdp, "dp.rdp_epsilon"),
        ] {
            let answer = tr.span(span, id, None, || {
                (
                    event_epsilon(kind, &run, EpsilonBody::DELTA),
                    batch_epsilons(kind, &step, &[e.steps / 2], EpsilonBody::DELTA),
                )
            });
            let _ = std::hint::black_box(answer);
        }
    }
    for p in fresh(Class::Explore) {
        let Ok(req) = api::parse_explore_request(p.text.as_bytes()) else {
            continue;
        };
        let t = Instant::now();
        let result = tr.span("explore.explore", planned_id(p), None, || {
            diva_explore::explore(&req.config)
        });
        explore_ms += t.elapsed().as_secs_f64() * 1e3;
        if let Ok(r) = result {
            explore_candidates += r.evaluated.len();
            lookups += r.stats.memo.lookups;
            computed += r.stats.memo.computed;
        }
    }
    let per_cell_us = |span: &str| tr.total_ms(span) * 1e3 / cells.max(1) as f64;
    metrics.insert("scenario.run_ms_p50", median(&run_ms));
    metrics.insert(
        "scenario.cells_per_s",
        cells as f64 / (run_ms.iter().sum::<f64>() / 1e3).max(1e-9),
    );
    metrics.insert("workload.lower_us_per_cell", per_cell_us("workload.lower"));
    metrics.insert("sim.time_step_us_per_cell", per_cell_us("sim.time_step"));
    metrics.insert(
        "energy.step_energy_us_per_cell",
        per_cell_us("energy.step_energy"),
    );
    metrics.insert(
        "sim.ops_per_s",
        ops as f64 / (tr.total_ms("sim.time_step") / 1e3).max(1e-9),
    );
    metrics.insert("dp.pld_epsilon_ms", tr.median_ms("dp.pld_epsilon"));
    metrics.insert("dp.rdp_epsilon_ms", tr.median_ms("dp.rdp_epsilon"));
    metrics.insert(
        "explore.candidates_per_s",
        explore_candidates as f64 / (explore_ms / 1e3).max(1e-9),
    );
    metrics.insert(
        "explore.memo_hit_ratio",
        if lookups > 0 {
            1.0 - computed as f64 / lookups as f64
        } else {
            0.0
        },
    );
}

/// Runs the mix for `seconds` of scheduled arrivals (the first half
/// untraced and the second half traced when `traced`).
pub fn run(seed: u64, seconds: f64, traced: bool, epoch: Instant) -> Result<Outcome, String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut prepared = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let plan = make_plan(seed, seconds);
        let fixture = Fixture::start(&plan)?;
        setup_s.push(t.elapsed().as_secs_f64());
        if let Some((_, previous)) = prepared.replace((plan, fixture)) {
            Fixture::stop(previous);
        }
    }
    let (plan, mut fixture) = prepared.expect("at least one set-up");
    let addr = fixture.server.addr();
    let (hits0, misses0, internal0) = server_counters(&mut fixture.conns[0])?;

    let trace_from = traced.then(|| Duration::from_secs_f64(seconds / 2.0));
    let next = AtomicUsize::new(0);
    let proc0 = ProcSample::now();
    let pool0 = pool_stats();
    let t0 = Instant::now();
    let mut conns = std::mem::take(&mut fixture.conns).into_iter();
    let (first, second) = (conns.next().expect("two"), conns.next().expect("two"));
    let mut tracer = Tracer::new(epoch);
    let mut other = Tracer::new(epoch);
    let (mut served, first) = std::thread::scope(|s| {
        let helper = s.spawn(|| drive(addr, second, &plan, &next, t0, trace_from, &mut other));
        let mine = drive(addr, first, &plan, &next, t0, trace_from, &mut tracer);
        (helper.join().expect("load thread panicked"), mine)
    });
    let window_s = t0.elapsed().as_secs_f64();
    let proc = ProcSample::now().since(&proc0);
    let pool1 = pool_stats();
    served.extend(first);
    served.sort_by_key(|s| s.index);
    tracer.absorb(other);

    let mut conn = Connection::open(addr).map_err(|e| e.to_string())?;
    let (hits1, misses1, internal1) = server_counters(&mut conn)?;
    drop(conn);
    fixture.stop();

    // Every answer must equal the API layer's own document for the body,
    // computed once per distinct body on the program's own pool.
    let mut distinct: BTreeMap<&str, &Body> = BTreeMap::new();
    for p in &plan.requests {
        distinct.insert(p.text.as_str(), &p.body);
    }
    let distinct: Vec<(&str, &Body)> = distinct.into_iter().collect();
    let documents = par_map(distinct.len(), |i| distinct[i].1.expected());
    let expected: HashMap<&str, Result<Vec<u8>, String>> = distinct
        .iter()
        .map(|(text, _)| *text)
        .zip(documents)
        .collect();
    let mut failed = 0u64;
    let mut good = 0u64;
    let mut digest = Fnv1a::default();
    for s in &served {
        let planned = &plan.requests[s.index];
        let want = &expected[planned.text.as_str()];
        let ok = s.status == 200
            && s.latency_ms <= TIMEOUT.as_secs_f64() * 1e3
            && want.as_ref().is_ok_and(|w| *w == s.body);
        if !ok {
            failed += 1;
        } else if s.latency_ms <= LATENCY_LIMIT_MS {
            good += 1;
        }
        if ok && matches!(planned.body, Body::Run(_) | Body::Explore(_)) {
            digest.write(&s.body);
        }
    }
    let n = served.len() as f64;
    let internal_errors = internal1.saturating_sub(internal0);
    let checks = vec![
        Check::new(
            format!(
                "all {} answers are 200 and equal the API layer's document",
                served.len()
            ),
            failed == 0,
        ),
        Check::new(
            format!("/stats errors.internal grew by {internal_errors}"),
            internal_errors == 0,
        ),
    ];

    let mut metrics = BTreeMap::new();
    if traced {
        tracer.set_enabled(true);
        let class_ms = |class: Class| median(&tracer.durations_ms(class.span()));
        let busy = |traced: bool| {
            let (count, ms) = served
                .iter()
                .filter(|s| s.traced == traced)
                .fold((0.0, 0.0), |(c, t), s| (c + 1.0, t + s.service_ms));
            count / ms.max(1e-9)
        };
        let (dh, dm) = (hits1 - hits0, misses1 - misses0);
        metrics.insert("serve.hit_ms_p50", class_ms(Class::Hit));
        metrics.insert("serve.run_fresh_ms_p50", class_ms(Class::RunFresh));
        metrics.insert("serve.epsilon_fresh_ms_p50", class_ms(Class::EpsilonFresh));
        metrics.insert("serve.explore_job_ms_p50", class_ms(Class::Explore));
        metrics.insert(
            "serve.job_wait_ms_p50",
            median(&tracer.durations_ms("serve.job_wait")),
        );
        metrics.insert(
            "serve.cache_hit_ratio",
            dh as f64 / ((dh + dm) as f64).max(1.0),
        );
        metrics.insert("serve.internal_errors", internal_errors as f64);
        metrics.insert(
            "bench.generator_lag_ms_max",
            served.iter().filter_map(|s| s.lag_ms).fold(0.0, f64::max),
        );
        metrics.insert("trace.overhead_ratio", busy(false) / busy(true));
        let untraced: Vec<f64> = served
            .iter()
            .filter(|s| !s.traced)
            .map(|s| s.latency_ms)
            .collect();
        metrics.insert("tail.latency_ms_p95", percentile(&untraced, 95.0));
        metrics.insert(
            "tensor.pool.steals_per_step",
            (pool1.steals - pool0.steals) as f64 / n,
        );
        metrics.insert(
            "tensor.pool.inline_runs_per_step",
            (pool1.inline_runs - pool0.inline_runs) as f64 / n,
        );
        metrics.insert(
            "tensor.pool.spawned_in_window",
            (pool1.spawned - pool0.spawned) as f64,
        );
        metrics.insert("proc.minor_faults_per_step", proc.minor_faults as f64 / n);
        metrics.insert("proc.sys_cpu_share", proc.sys_share());
        replay_layers(&plan, &mut tracer, &mut metrics);
    } else {
        // The median of each fifth of the schedule, and their lower
        // quartile, as the training workloads take over their five parts.
        let stretch = served.len().div_ceil(STRETCHES).max(1);
        let stretch_p50: Vec<f64> = served
            .chunks(stretch)
            .map(|c| median(&c.iter().map(|s| s.latency_ms).collect::<Vec<_>>()))
            .collect();
        metrics.insert("throughput_per_s", good as f64 / window_s);
        metrics.insert("latency_ms_p50", percentile(&stretch_p50, 25.0));
        metrics.insert("cpu_ms_per_op", proc.cpu_ms() / n);
        metrics.insert("success_ratio", 1.0 - failed as f64 / n);
        metrics.insert("peak_rss_mib", peak_rss_mib());
        metrics.insert("setup_s", median(&setup_s));
    }

    Ok(Outcome {
        attempted: served.len() as u64,
        failed,
        checks,
        metrics,
        digests: vec![("run_and_explore_documents".to_string(), digest.hex())],
        tracer: traced.then_some(tracer),
        span_files: Vec::new(),
    })
}
