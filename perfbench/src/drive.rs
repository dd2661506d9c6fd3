//! Setup, hand-over loops and the three ways a workload reaches the
//! system: `LocalEngine`, `ParallelEngine` and `ClashSystem`.
//!
//! Every call into the system is wrapped in a span named after the layer
//! it enters; the spans are only recorded when the tracer is enabled.

use crate::report::percentile;
use crate::sink::{Schedule, Sink};
use crate::trace::Tracer;
use crate::workload::{Inputs, Runtime, Spec};
use clash_analyzer::verify_plan;
use clash_catalog::{Catalog, Statistics};
use clash_common::{ClashError, Epoch, EpochConfig, RelationId, Result, Tuple};
use clash_core::{ClashSystem, SystemConfig};
use clash_ilp::{solve, SolveStatus};
use clash_optimizer::{
    build_ilp, enumerate_candidates, extract_selection, Planner, PlannerConfig, Strategy,
    TopologyBuilder, TopologyPlan,
};
use clash_query::JoinQuery;
use clash_runtime::{EngineConfig, LocalEngine, MetricsSnapshot, ParallelEngine};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Expiry cadence of the engines' default configuration, mirrored by the
/// traced run when it calls `expire_stores` itself.
const EXPIRE_EVERY: usize = 1024;

/// Workers of the parallel workload.
const WORKERS: usize = 2;

/// Hands `range` of the stream over as fast as the system takes it.
/// Returns the number of inputs the system rejected with an error.
pub fn unpaced(
    target: &mut Sut,
    tr: &mut Tracer,
    stream: &[(RelationId, Tuple)],
    range: std::ops::Range<usize>,
) -> u64 {
    let mut errors = 0;
    for i in range {
        let span = tr.begin("gen");
        let (relation, tuple) = (stream[i].0, stream[i].1.clone());
        tr.end(span);
        if target.ingest(tr, i, relation, tuple).is_err() {
            errors += 1;
        }
    }
    errors
}

/// Outcome of one open-loop pass.
#[derive(Debug, Default)]
pub struct Paced {
    pub errors: u64,
    /// Largest lateness of a hand-over against its schedule.
    pub lag_max: Duration,
    /// 99th percentile of that lateness, in nanoseconds.
    pub lag_p99_ns: f64,
    /// Per scheduled input: handed over later than the latency limit.
    pub late_handover: Vec<bool>,
}

fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_millis(2) {
            std::thread::sleep(left - Duration::from_millis(1));
        } else {
            // Yield rather than spin hard: on a small machine the engine's
            // worker threads need the core.
            std::thread::yield_now();
        }
    }
}

/// Open loop: hands over the warm-up prefix unpaced, then every further
/// input at its scheduled time, regardless of how the system keeps up.
pub fn paced(
    target: &mut Sut,
    sink: &Sink,
    tr: &mut Tracer,
    stream: &[(RelationId, Tuple)],
    spec: &Spec,
) -> Paced {
    let mut out = Paced {
        errors: unpaced(target, tr, stream, 0..spec.warmup),
        ..Paced::default()
    };
    target.drain(tr);
    let limit = Duration::from_secs_f64(spec.limit_ms / 1e3);
    let scheduled = stream.len() - spec.warmup;
    let schedule = Schedule {
        start: Instant::now(),
        first: spec.warmup,
        ns_per_input: 1e9 / spec.rate,
    };
    sink.start_schedule(schedule, scheduled, limit);
    out.late_handover = vec![false; scheduled];
    let mut lags = Vec::with_capacity(scheduled);
    for (i, (relation, tuple)) in stream.iter().enumerate().skip(spec.warmup) {
        let due = schedule.due(i);
        wait_until(due);
        let lag = Instant::now().saturating_duration_since(due);
        lags.push(lag.as_nanos() as u64);
        out.lag_max = out.lag_max.max(lag);
        out.late_handover[i - spec.warmup] = lag > limit;
        if target.ingest(tr, i, *relation, tuple.clone()).is_err() {
            out.errors += 1;
        }
    }
    target.drain(tr);
    lags.sort_unstable();
    out.lag_p99_ns = percentile(&lags, 99.0);
    out
}

/// What the traced run learns from planning in stages.
#[derive(Debug, Clone)]
pub struct PlanFacts {
    pub probe_orders: usize,
    pub vars: usize,
    pub constraints: usize,
    pub nodes: u64,
    pub optimal: bool,
    pub cost: f64,
    pub stores: usize,
    pub digest: u64,
}

/// Plans like `Planner::plan` with the ILP strategy, one stage at a time,
/// each in its own span under `optimizer.plan`.
pub fn plan_staged(
    catalog: &Catalog,
    stats: &Statistics,
    queries: &[JoinQuery],
    tr: &mut Tracer,
) -> Result<(TopologyPlan, PlanFacts)> {
    let config = PlannerConfig::default();
    let whole = tr.begin("optimizer.plan");
    let candidates = tr.span("optimizer.enumerate", || {
        enumerate_candidates(catalog, stats, queries, &config.plan_space)
    });
    let artifacts = tr.span("ilp.build", || build_ilp(&candidates));
    let solution = tr.span("ilp.solve", || solve(&artifacts.model, config.solver));
    let assignment = solution.assignment.as_ref().ok_or_else(|| {
        ClashError::Optimization(format!("ILP solve failed: {:?}", solution.status))
    })?;
    let selection = tr.span("optimizer.extract", || {
        extract_selection(&candidates, &artifacts, assignment)
    })?;
    let plan = tr.span("optimizer.topology", || {
        TopologyBuilder::new(queries, true).build(&selection)
    })?;
    tr.end(whole);
    let facts = PlanFacts {
        probe_orders: candidates.num_probe_orders(),
        vars: artifacts.stats.variables,
        constraints: artifacts.stats.constraints,
        nodes: solution.nodes,
        optimal: solution.status == SolveStatus::Optimal,
        cost: selection.shared_cost,
        stores: plan.stores.len(),
        digest: plan_digest(&plan, solution.objective, solution.status, solution.nodes),
    };
    Ok((plan, facts))
}

/// A 48-bit fingerprint (exact as a JSON number) of the plan's stores,
/// rule sets and ingest routes in sorted order, plus the ILP objective,
/// status and node count.
fn plan_digest(plan: &TopologyPlan, objective: f64, status: SolveStatus, nodes: u64) -> u64 {
    let mut lines: Vec<String> = plan.stores.iter().map(|s| format!("{s:?}")).collect();
    lines.extend(plan.rules.iter().map(|(k, r)| format!("{k:?}{r:?}")));
    lines.extend(plan.ingest.iter().map(|i| format!("{i:?}")));
    lines.sort();
    // Nine significant digits: the objective's last bits depend on the
    // order in which the solver sums its terms.
    lines.push(format!("{objective:.8e}|{status:?}|{nodes}"));
    // FNV-1a.
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in lines
        .iter()
        .flat_map(|l| l.bytes().chain(std::iter::once(b'\n')))
    {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash & ((1 << 48) - 1)
}

/// Plans with the ILP strategy: one `Planner::plan` call, or in stages
/// with static verification in its own span when tracing.
pub fn plan_for_setup(
    catalog: &Catalog,
    stats: &Statistics,
    queries: &[JoinQuery],
    tr: &mut Tracer,
    facts: &mut Vec<PlanFacts>,
    diagnostics: &mut usize,
) -> Result<TopologyPlan> {
    if !tr.enabled() {
        return Ok(Planner::new(catalog, stats, PlannerConfig::default())
            .plan(queries, Strategy::GlobalIlp)?
            .plan);
    }
    let (plan, f) = plan_staged(catalog, stats, queries, tr)?;
    facts.push(f);
    *diagnostics = tr.span("analyzer.verify", || verify_plan(catalog, &plan).len());
    Ok(plan)
}

/// The engine configuration of a run. The traced run switches the local
/// engines' internal expiry off and calls `expire_stores` itself at the
/// same cadence, so expiry and freezing get spans of their own.
fn engine_config(manual_expiry: bool) -> EngineConfig {
    EngineConfig {
        expire_every: if manual_expiry {
            0
        } else {
            EXPIRE_EVERY as u64
        },
        ..EngineConfig::default()
    }
}

pub struct LocalTarget {
    pub engine: LocalEngine,
    sink: Sink,
    manual_expiry: bool,
    since_expiry: usize,
}

impl LocalTarget {
    pub fn new(
        catalog: &Catalog,
        plan: TopologyPlan,
        sink: &Sink,
        manual_expiry: bool,
        tr: &mut Tracer,
    ) -> Self {
        let mut engine = tr.span("engine.new", || {
            LocalEngine::new(catalog.clone(), plan, engine_config(manual_expiry))
        });
        engine.set_sink(sink.callback());
        LocalTarget {
            engine,
            sink: sink.clone(),
            manual_expiry,
            since_expiry: 0,
        }
    }

    fn ingest(&mut self, tr: &mut Tracer, relation: RelationId, tuple: Tuple) -> Result<()> {
        let span = tr.begin("engine.ingest");
        let out = self.engine.ingest(relation, tuple);
        tr.end(span);
        if tr.enabled() {
            tr.add_child(span, "sink", self.sink.claim_ns());
        }
        if self.manual_expiry {
            self.since_expiry += 1;
            if self.since_expiry == EXPIRE_EVERY {
                tr.span("store.expire", || self.engine.expire_stores());
                self.since_expiry = 0;
            }
        }
        out.map(drop)
    }
}

pub struct ParallelTarget {
    pub engine: ParallelEngine,
    receiver: Option<JoinHandle<()>>,
    since_expiry: usize,
    pub inflight_max: u64,
}

impl ParallelTarget {
    pub fn new(catalog: &Catalog, plan: TopologyPlan, sink: &Sink, tr: &mut Tracer) -> Self {
        let mut engine = tr.span("parallel.new", || {
            ParallelEngine::new(catalog.clone(), plan, engine_config(false), WORKERS)
        });
        let receiver = Some(sink.receive(engine.subscribe()));
        ParallelTarget {
            engine,
            receiver,
            since_expiry: 0,
            inflight_max: 0,
        }
    }

    /// Runs a barrier for the final metrics, then shuts the engine down
    /// and waits until the sink has received every result.
    pub fn finish(mut self) -> (MetricsSnapshot, Vec<Duration>) {
        let snapshot = self.engine.snapshot();
        let busy = self.engine.worker_busy();
        self.engine.shutdown();
        if let Some(receiver) = self.receiver.take() {
            receiver.join().expect("sink thread panicked");
        }
        (snapshot, busy)
    }

    fn ingest(&mut self, tr: &mut Tracer, relation: RelationId, tuple: Tuple) -> Result<()> {
        // Every EXPIRE_EVERY-th ingest also sends the workers their
        // expiry message (the engine's internal cadence).
        self.since_expiry += 1;
        let name = if self.since_expiry == EXPIRE_EVERY {
            self.since_expiry = 0;
            "parallel.expire"
        } else {
            "parallel.ingest"
        };
        let span = tr.begin(name);
        let out = self.engine.ingest(relation, tuple);
        tr.end(span);
        if tr.enabled() {
            self.inflight_max = self.inflight_max.max(self.engine.inflight());
        }
        out.map(drop)
    }

    fn drain(&mut self, tr: &mut Tracer) {
        tr.span("parallel.flush", || self.engine.flush());
    }
}

pub struct ChurnTarget {
    pub system: ClashSystem,
    sink: Sink,
    extra: Vec<JoinQuery>,
    points: (usize, usize),
    epoch: EpochConfig,
    last_epoch: Epoch,
    manual_expiry: bool,
    since_expiry: usize,
}

impl ChurnTarget {
    /// Builds the system from the catalog and statistics and deploys
    /// q1–q5 with the adaptive controller on.
    pub fn new(
        inputs: &Inputs,
        spec: &Spec,
        sink: &Sink,
        manual_expiry: bool,
        tr: &mut Tracer,
    ) -> Result<Self> {
        let span = tr.begin("core.deploy");
        let mut system = ClashSystem::new(SystemConfig {
            engine: engine_config(manual_expiry),
            ..SystemConfig::default()
        });
        for meta in inputs.catalog.iter() {
            let attributes: Vec<String> = meta
                .schema
                .attributes
                .iter()
                .map(|a| a.name.clone())
                .collect();
            system.register_relation(&meta.name, attributes, meta.window, meta.parallelism)?;
        }
        system.set_statistics(inputs.stats.clone());
        for q in &inputs.queries {
            system.register_prepared_query(q.clone())?;
        }
        system.deploy(Strategy::GlobalIlp)?;
        tr.end(span);
        let engine = system
            .engine_mut()
            .ok_or_else(|| ClashError::Runtime("churn runs on the local runtime".into()))?;
        let epoch = engine.epoch_config();
        engine.set_sink(sink.callback());
        Ok(ChurnTarget {
            system,
            sink: sink.clone(),
            extra: inputs.extra.clone(),
            points: spec.churn_points,
            epoch,
            last_epoch: Epoch::ZERO,
            manual_expiry,
            since_expiry: 0,
        })
    }

    fn ingest(
        &mut self,
        tr: &mut Tracer,
        index: usize,
        relation: RelationId,
        tuple: Tuple,
    ) -> Result<()> {
        if index == self.points.0 {
            tr.span("core.queries", || {
                self.extra
                    .iter()
                    .try_for_each(|q| self.system.register_prepared_query(q.clone()).map(drop))
            })?;
        } else if index == self.points.1 {
            tr.span("core.queries", || {
                for q in &self.extra {
                    self.system.remove_query(q.id);
                }
            });
        }
        // `ClashSystem` runs the adaptive controller inside the ingest
        // that first crosses into a new epoch; that call is attributed to
        // the controller.
        let epoch = self.epoch.epoch_of(tuple.ts);
        let crosses = epoch > self.last_epoch;
        self.last_epoch = self.last_epoch.max(epoch);
        let span = tr.begin("engine.ingest");
        let out = self.system.ingest_by_id(relation, tuple);
        tr.end(span);
        if crosses {
            tr.rename(span, "adaptive.on_epoch");
        }
        if tr.enabled() {
            tr.add_child(span, "sink", self.sink.claim_ns());
        }
        if self.manual_expiry {
            self.since_expiry += 1;
            if self.since_expiry == EXPIRE_EVERY {
                if let Some(engine) = self.system.engine_mut() {
                    tr.span("store.expire", || engine.expire_stores());
                }
                self.since_expiry = 0;
            }
        }
        out.map(drop)
    }
}

/// What a system reports once its stream has been handed over.
pub struct Finished {
    pub snapshot: MetricsSnapshot,
    /// Telemetry page (traced run only), for the frozen-tier gauges.
    pub page: String,
    pub worker_busy: Vec<Duration>,
    pub inflight_max: u64,
    pub reconfigurations: usize,
    pub rejected: usize,
}

/// The system under test, reached through one of three entry points.
// One value lives per pass, so the engines' inline size does not matter.
#[allow(clippy::large_enum_variant)]
pub enum Sut {
    Local(LocalTarget),
    Parallel(ParallelTarget),
    Churn(ChurnTarget),
}

impl Sut {
    fn ingest(
        &mut self,
        tr: &mut Tracer,
        index: usize,
        relation: RelationId,
        tuple: Tuple,
    ) -> Result<()> {
        match self {
            Sut::Local(t) => t.ingest(tr, relation, tuple),
            Sut::Parallel(t) => t.ingest(tr, relation, tuple),
            Sut::Churn(t) => t.ingest(tr, index, relation, tuple),
        }
    }

    /// Returns once every result of the inputs handed over so far has
    /// been produced.
    pub fn drain(&mut self, tr: &mut Tracer) {
        if let Sut::Parallel(t) = self {
            t.drain(tr);
        }
    }

    /// A system ready to ingest: an engine built from `plan`, or for churn
    /// a `ClashSystem` deployed from the catalog and queries (it plans
    /// internally). The traced run's local engines expire state themselves.
    pub fn build(
        spec: &Spec,
        inputs: &Inputs,
        plan: Option<&TopologyPlan>,
        sink: &Sink,
        tr: &mut Tracer,
    ) -> Result<Sut> {
        let manual_expiry = tr.enabled();
        let catalog = &inputs.catalog;
        Ok(match (spec.runtime, plan) {
            (Runtime::Churn, _) => {
                Sut::Churn(ChurnTarget::new(inputs, spec, sink, manual_expiry, tr)?)
            }
            (Runtime::Parallel, Some(plan)) => {
                Sut::Parallel(ParallelTarget::new(catalog, plan.clone(), sink, tr))
            }
            (Runtime::Local, Some(plan)) => Sut::Local(LocalTarget::new(
                catalog,
                plan.clone(),
                sink,
                manual_expiry,
                tr,
            )),
            _ => return Err(ClashError::Runtime("a static workload needs a plan".into())),
        })
    }

    /// Takes the final metrics (and, when asked, the telemetry page),
    /// shutting a parallel engine down once its sink has every result.
    pub fn finish(self, with_page: bool) -> Finished {
        let mut out = Finished {
            snapshot: MetricsSnapshot::default(),
            page: String::new(),
            worker_busy: Vec::new(),
            inflight_max: 0,
            reconfigurations: 0,
            rejected: 0,
        };
        match self {
            Sut::Local(t) => {
                out.snapshot = t.engine.snapshot();
                if with_page {
                    out.page = t.engine.telemetry_snapshot();
                }
            }
            Sut::Parallel(t) => {
                out.inflight_max = t.inflight_max;
                (out.snapshot, out.worker_busy) = t.finish();
            }
            Sut::Churn(mut t) => {
                out.reconfigurations = t.system.reconfigurations();
                out.rejected = t.system.rejected_candidates();
                if let Some(engine) = t.system.engine_mut() {
                    out.snapshot = engine.snapshot();
                    if with_page {
                        out.page = engine.telemetry_snapshot();
                    }
                }
            }
        }
        out
    }
}

/// Per-store gauges summed over the stores of a telemetry page.
pub fn page_sum(page: &str, metric: &str) -> f64 {
    page.lines()
        .filter(|l| l.starts_with(metric) && l[metric.len()..].starts_with('{'))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .fold(0.0, |a, b| a + b)
}
