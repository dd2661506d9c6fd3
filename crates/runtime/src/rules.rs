//! The rule interpreter: Algorithm 3/4 of the paper, written once for
//! both engines.
//!
//! [`resolve`] maps a delivery onto its store's partitions, and
//! [`Interpreter::apply`] runs the edge's rule set: `Store` inserts into
//! one partition, `Probe` probes the epochs the window covers and hands
//! each joined match to [`emit`], the single `Emit`/`Forward` path into a
//! caller-supplied [`Outbox`]. [`crate::LocalEngine`] is the single-shard
//! instance (one worker, no sequence guard, its LIFO work queue as the
//! outbox); each worker shard of [`crate::ParallelEngine`] runs it over
//! the partitions it owns, guarded by root sequence numbers. The
//! interpreter owns the stores, so plan installs, freeze-then-expire and
//! the per-store telemetry detail live here too.

use crate::metrics::EngineMetrics;
use crate::parallel::router::workers_of_store;
use crate::stats_collector::StatsCollector;
use crate::store::{partition_hash, StoreInstance};
use clash_catalog::Catalog;
use clash_common::{
    AttrRef, Epoch, EpochConfig, FxHashMap, QueryId, StoreId, Timestamp, TraceEventKind, TraceRing,
    Tuple, Window,
};
use clash_optimizer::{OutputAction, Rule, SendTarget, TopologyPlan};
use std::time::Instant;

/// How a delivery maps onto the partitions of its target store.
#[derive(Debug, Clone)]
pub(crate) struct RouteSpec {
    /// Partitions a probe rule must inspect (one when hashed, all when
    /// broadcast).
    pub probe_partitions: Vec<usize>,
    /// Partition a store rule inserts into.
    pub store_partition: usize,
    /// `true` when the delivery is a broadcast across > 1 partitions.
    pub broadcast: bool,
}

/// Resolves the partitions of `target` that `tuple` must reach — hash the
/// routing key when the tuple carries it, otherwise broadcast (and store
/// into the partition-attribute partition, or partition 0) — and accounts
/// the send in `metrics`: one `tuples_sent` per partition copy (the probe
/// cost unit) and one `broadcasts` per broadcast. `None` when the plan
/// has no such store.
pub(crate) fn resolve(
    plan: &TopologyPlan,
    target: &SendTarget,
    tuple: &Tuple,
    metrics: &mut EngineMetrics,
) -> Option<RouteSpec> {
    let def = plan.store(target.store)?;
    let parallelism = def.descriptor.parallelism.max(1);
    let spec = match target.routing_key.and_then(|a| tuple.get(&a)) {
        Some(value) => {
            let p = partition_hash(value, parallelism);
            RouteSpec {
                probe_partitions: vec![p],
                store_partition: p,
                broadcast: false,
            }
        }
        None => RouteSpec {
            probe_partitions: (0..parallelism).collect(),
            store_partition: def
                .descriptor
                .partition
                .and_then(|a| tuple.get(&a))
                .map(|v| partition_hash(v, parallelism))
                .unwrap_or(0),
            broadcast: parallelism > 1,
        },
    };
    metrics.tuples_sent += spec.probe_partitions.len() as u64;
    metrics.broadcasts += u64::from(spec.broadcast);
    Some(spec)
}

/// Per-store construction data of a plan, in `plan.stores` order: the
/// expiry window and the indexed attributes. The parallel coordinator
/// derives it once per install and ships it to every worker.
#[derive(Debug, Clone)]
pub(crate) struct StoreLayout(Vec<(Window, Vec<AttrRef>)>);

impl StoreLayout {
    /// Derives the layout for a plan from the catalog. A store's window is
    /// the widest window of its member relations (so no potential join
    /// partner expires too early); its indexed attributes are the
    /// stored-side attributes of every probe predicate registered at it.
    pub fn derive(catalog: &Catalog, plan: &TopologyPlan) -> StoreLayout {
        let mut layout: Vec<(Window, Vec<AttrRef>)> = plan
            .stores
            .iter()
            .map(|def| {
                let window = def
                    .descriptor
                    .relations
                    .iter()
                    .filter_map(|r| catalog.relation(r).ok().map(|m| m.window))
                    .max_by_key(|w| w.length)
                    .unwrap_or_default();
                (window, Vec::new())
            })
            .collect();
        for ((sid, _), rules) in &plan.rules {
            let (Some(def), Some((_, attrs))) = (plan.store(*sid), layout.get_mut(sid.index()))
            else {
                continue;
            };
            for rule in rules {
                let Rule::Probe { predicates, .. } = rule else {
                    continue;
                };
                for p in predicates {
                    let stored_side = if def.descriptor.relations.contains(p.left.relation) {
                        p.left
                    } else {
                        p.right
                    };
                    if !attrs.contains(&stored_side) {
                        attrs.push(stored_side);
                    }
                }
            }
        }
        StoreLayout(layout)
    }
}

/// Per-store sizes for the telemetry surface: what one engine or worker
/// shard holds of a store (the coordinator sums them across workers).
#[derive(Debug, Clone, Copy)]
pub(crate) struct StoreDetail {
    /// The store.
    pub store: StoreId,
    /// Tuples held by this shard's partitions.
    pub tuples: usize,
    /// Approximate bytes held by this shard's partitions.
    pub bytes: usize,
    /// Distinct (attribute, value) posting lists in the hash indexes.
    pub posting_lists: usize,
    /// Posting lists spilled past the inline capacity to a heap vector.
    pub spilled_postings: usize,
    /// Frozen columnar segments currently held (cold tier).
    pub segments: usize,
    /// Live flattened bytes held by the frozen segments.
    pub segment_bytes: usize,
    /// Segments built by this shard's stores since startup (monotone).
    pub compactions: u64,
}

/// One delivery as the interpreter applies it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Step<'a> {
    /// Target store and edge label.
    pub target: SendTarget,
    /// The tuple or partial join result being delivered.
    pub tuple: &'a Tuple,
    /// Partitions the `Probe` rules inspect (empty: store-only delivery).
    pub probe_partitions: &'a [usize],
    /// Partition the `Store` rule inserts into (`None`: probe only).
    pub store_partition: Option<usize>,
    /// `true` when the route broadcast to every partition of the store.
    pub broadcast: bool,
    /// Sequence guard: inserts are tagged with it, probes match only state
    /// tagged below it. `None` runs unguarded (sequential execution).
    pub guard: Option<u64>,
    /// Wall-clock ingest instant of the root (latency).
    pub started: Instant,
}

/// The accumulators a rule application records into.
pub(crate) struct Recorders<'a> {
    /// Counters and latency histograms.
    pub metrics: &'a mut EngineMetrics,
    /// Probe observations for the optimizer.
    pub stats: &'a mut StatsCollector,
    /// Insert/probe trace events.
    pub trace: &'a mut TraceRing,
}

/// Where the results of a rule application go.
pub(crate) trait Outbox {
    /// One result emitted for `query` (already counted, latency recorded).
    fn emit(&mut self, query: QueryId, joined: &Tuple);

    /// One partial result sent on to `target`; `guard` and `started` are
    /// those of the probe that produced it.
    fn forward(
        &mut self,
        target: SendTarget,
        joined: Tuple,
        guard: Option<u64>,
        started: Instant,
        metrics: &mut EngineMetrics,
    );

    /// Runs right after the `Store` rule inserted the delivered tuple into
    /// `partition` of `store`.
    fn stored(&mut self, _store: &StoreInstance, _partition: usize, _rec: &mut Recorders<'_>) {}
}

/// Applies a probe rule's outputs to one join result: the single
/// `Emit`/`Forward` path of both engines, at probe time and (in the
/// worker shards) for retroactive matches.
pub(crate) fn emit<O: Outbox>(
    outputs: &[OutputAction],
    joined: &Tuple,
    guard: Option<u64>,
    started: Instant,
    metrics: &mut EngineMetrics,
    out: &mut O,
) {
    for action in outputs {
        match action {
            OutputAction::Emit { query } => {
                *metrics.results.entry(*query).or_default() += 1;
                metrics.record_latency(*query, started.elapsed());
                out.emit(*query, joined);
            }
            OutputAction::Forward(next) => {
                out.forward(*next, joined.clone(), guard, started, metrics);
            }
        }
    }
}

/// The stores of one engine or worker shard and the rules that act on
/// them.
#[derive(Debug)]
pub(crate) struct Interpreter {
    stores: FxHashMap<StoreId, StoreInstance>,
    /// Epoch configuration in use.
    pub epoch: EpochConfig,
    /// Epoch lag before cold epochs freeze into columnar segments
    /// (`EngineConfig::freeze_after_epochs`; `0` disables the cold tier).
    freeze_after: u64,
    /// Worker threads of the engine (`1` for the sequential engine).
    pub workers: usize,
}

impl Interpreter {
    /// An interpreter without stores (install a plan next).
    pub fn new(epoch: EpochConfig, freeze_after: u64, workers: usize) -> Self {
        Interpreter {
            stores: FxHashMap::default(),
            epoch,
            freeze_after,
            workers,
        }
    }

    /// The stores of the installed plan.
    pub fn stores(&self) -> &FxHashMap<StoreId, StoreInstance> {
        &self.stores
    }

    /// Installs a plan. Stores whose descriptor key matches an existing
    /// store keep their state (Section VI-A: rewiring without losing
    /// results) and pick up the new window and indexed attributes; stores
    /// that no longer appear are dropped (reference count reaching zero in
    /// Section VI-B).
    pub fn install(&mut self, plan: &TopologyPlan, layout: &StoreLayout) {
        let mut existing: FxHashMap<String, StoreInstance> = self
            .stores
            .drain()
            .map(|(_, s)| (s.descriptor.key(), s))
            .collect();
        for (def, (window, indexed)) in plan.stores.iter().zip(&layout.0) {
            let instance = match existing.remove(&def.descriptor.key()) {
                Some(mut s) => {
                    for &attr in indexed {
                        s.add_indexed_attr(attr);
                    }
                    s.window = *window;
                    s
                }
                None => StoreInstance::new(def.descriptor, *window, indexed.iter().copied()),
            };
            self.stores.insert(def.id, instance);
        }
    }

    /// Applies the rule set of one delivery in rule order. A delivery to
    /// a store the installed plan lacks is skipped (the plan verifier
    /// rules that out at install time).
    pub fn apply<O: Outbox>(
        &mut self,
        rules: &[Rule],
        step: &Step<'_>,
        rec: &mut Recorders<'_>,
        out: &mut O,
    ) {
        let Some(store) = self.stores.get_mut(&step.target.store) else {
            return;
        };
        let store_id = u64::from(step.target.store.0);
        let epoch = self.epoch.epoch_of(step.tuple.ts);
        for rule in rules {
            match rule {
                Rule::Store => {
                    let Some(partition) = step.store_partition else {
                        continue;
                    };
                    let guard = step.guard.unwrap_or(0);
                    store.insert_seq(partition, epoch, step.tuple.clone(), guard);
                    rec.trace.record(TraceEventKind::Insert, store_id, guard);
                    out.stored(store, partition, rec);
                }
                Rule::Probe {
                    predicates,
                    outputs,
                } => {
                    if step.probe_partitions.is_empty() {
                        continue;
                    }
                    // Epochs that may contain partners: everything from the
                    // window horizon up to the probing tuple's own epoch.
                    let lo = self.epoch.epoch_of(store.window.horizon(step.tuple.ts));
                    let epochs: Vec<Epoch> = (lo.0..=epoch.0).map(Epoch).collect();
                    // Statistics record one probe observation against the
                    // whole-store size per logical probe. A broadcast probe
                    // is split across the sharing workers, so each
                    // contributes its local store slice (the slices sum to
                    // the whole store) and only the worker holding
                    // partition 0 counts the probe itself. A hashed probe
                    // runs on one worker, which extrapolates the whole
                    // store size from its shard. With one worker both
                    // reduce to one probe against the whole store.
                    let counts_probe = !step.broadcast || step.probe_partitions.contains(&0);
                    let est_size = if step.broadcast {
                        store.len() as u64
                    } else {
                        let sharing = workers_of_store(store.parallelism(), self.workers) as u64;
                        store.len() as u64 * sharing
                    };
                    let mut matches = Vec::new();
                    for &p in step.probe_partitions {
                        matches.extend(
                            store.probe_seq(p, &epochs, step.tuple, predicates, step.guard),
                        );
                    }
                    if counts_probe {
                        rec.metrics.probes += 1;
                    }
                    rec.trace
                        .record(TraceEventKind::Probe, store_id, matches.len() as u64);
                    rec.stats.record_probe_obs(
                        epoch,
                        predicates,
                        u64::from(counts_probe),
                        matches.len() as u64,
                        est_size,
                    );
                    for matched in matches {
                        let Some(joined) = step.tuple.join(&matched) else {
                            continue;
                        };
                        emit(outputs, &joined, step.guard, step.started, rec.metrics, out);
                    }
                }
            }
        }
    }

    /// Expires out-of-window tuples from every store, given the stream
    /// clock `upto`. Epochs lagging the clock by `freeze_after` epochs are
    /// first compacted into frozen columnar segments, so cold state is
    /// probed in its read-optimized form and expires by segment drop.
    pub fn expire(&mut self, upto: Timestamp, trace: &mut TraceRing) -> usize {
        if self.freeze_after > 0 {
            let clock = self.epoch.epoch_of(upto);
            let freeze_horizon = Epoch(clock.0.saturating_sub(self.freeze_after));
            for (id, store) in self.stores.iter_mut() {
                let built = store.freeze_before(freeze_horizon);
                if built > 0 {
                    trace.record(TraceEventKind::Compaction, u64::from(id.0), built as u64);
                }
            }
        }
        let mut removed = 0;
        for store in self.stores.values_mut() {
            let horizon = store.window.horizon(upto);
            removed += store.expire(horizon);
        }
        trace.record(TraceEventKind::Expire, removed as u64, 0);
        removed
    }

    /// Per-store size and index shape, sorted by store id.
    pub fn store_detail(&self) -> Vec<StoreDetail> {
        let mut detail: Vec<StoreDetail> = self
            .stores
            .iter()
            .map(|(id, store)| {
                let (posting_lists, spilled_postings) = store.posting_stats();
                let (segments, segment_bytes) = store.segment_stats();
                StoreDetail {
                    store: *id,
                    tuples: store.len(),
                    bytes: store.bytes(),
                    posting_lists,
                    spilled_postings,
                    segments,
                    segment_bytes,
                    compactions: store.compactions(),
                }
            })
            .collect();
        detail.sort_by_key(|d| d.store.0);
        detail
    }
}
