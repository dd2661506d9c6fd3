//! Per-worker shard state: the partitions a worker owns of every store,
//! plus its private metrics and statistics accumulators.
//!
//! A shard runs the same rule interpreter ([`crate::rules`]) as the
//! sequential engine, restricted to the partitions assigned to its worker.
//! What stays here is parallel-specific: the symmetric store set, the
//! pending probers and the retro-match predicate check. Two mechanisms
//! make the union of all shards' results equal to the sequential engine's
//! result set:
//!
//! * **Sequence guard** — inserts are tagged with the logical sequence
//!   position (`guard`) of the root that produced them and probes skip
//!   state at or above their own guard, so racing ahead never matches
//!   later arrivals.
//! * **Symmetric pending probers** — at stores where probes and inserts
//!   can ride different sender paths (forward-fed MIR stores, and stores
//!   probed by worker-forwarded partials while their inserts sit in the
//!   coordinator's micro-batch buffer — see
//!   [`crate::parallel::router::symmetric_stores`]) an insert may arrive
//!   *after* a probe that should have observed it. Probes at such stores
//!   therefore register as pending probers next to the partition, indexed
//!   by join-key value; when a late insert with a smaller guard lands, it
//!   retro-matches the registered probers locally and emits the missed
//!   results through the same outputs. Every (probe, insert) pair matches
//!   exactly once: at probe time if the insert was applied, retroactively
//!   otherwise. Probers are garbage-collected once the completion
//!   watermark proves no earlier root can still insert.
//!
//! Within one delivery the retro-probe runs right after the insert (the
//! interpreter's [`Outbox::stored`] hook) and the prober registers after
//! the whole rule set ran. Retro-produced matches leave through the
//! interpreter's emit/forward path ([`emit`]).

use crate::metrics::EngineMetrics;
use crate::parallel::router::fan_out;
use crate::parallel::worker::{Delivery, ForwardBuffer};
use crate::rules::{emit, Interpreter, Outbox, Recorders, Step, StoreLayout};
use crate::stats_collector::StatsCollector;
use crate::store::StoreInstance;
use clash_common::{
    EdgeId, EpochConfig, FxHashMap, FxHashSet, QueryId, SlotAccessor, StoreId, TraceEventKind,
    TraceRing, Tuple, Value,
};
use clash_optimizer::{Rule, SendTarget, TopologyPlan};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::Instant;

/// A probe that ran against a forward-fed store and stays registered until
/// the watermark proves no earlier insert is still in flight.
#[derive(Debug)]
struct PendingProber {
    /// Logical sequence position of the probe.
    guard: u64,
    /// The probing tuple.
    tuple: Tuple,
    /// Partitions (owned by this worker) the probe inspected.
    partitions: Vec<usize>,
    /// Rule key whose probe rules (predicates, outputs) apply.
    key: (StoreId, EdgeId),
    /// Wall-clock ingest instant of the probe's root.
    started: Instant,
}

/// The pending probers of one forward-fed store, indexed by join-key
/// value so a late insert retro-matches in O(candidate matches) instead
/// of scanning every in-flight prober.
///
/// A prober whose rule set carries at least one equi-predicate is keyed
/// by `(edge, probe-side value of the first predicate)` — the same
/// predicate the store's own hash index would drive — and a late insert
/// looks up the stored-side value of that predicate. Probers without a
/// usable key (no predicates, or the probing tuple lacks the attribute)
/// fall back to the `unkeyed` list and are scanned as before. Keying is
/// purely a pre-filter: every candidate still runs the full predicate,
/// window and guard checks, so a hash hit can never create a spurious
/// match and a hash miss can never lose one (`join_eq` matches imply
/// `Value` equality, and `Null` never `join_eq`-matches anything).
#[derive(Debug, Default)]
struct PendingSet {
    /// edge -> join-key value -> probers awaiting a matching insert.
    /// (Nested rather than keyed by `(EdgeId, Value)` so the insert-side
    /// lookup can borrow the inserted tuple's value — no clone, no
    /// allocation on the store hot path. Fx-hashed: the keys are trusted
    /// join-key values, and the lookup runs once per symmetric insert.)
    keyed: FxHashMap<EdgeId, FxHashMap<Value, Vec<PendingProber>>>,
    /// Probers that could not be keyed; matched by full scan.
    unkeyed: Vec<PendingProber>,
    /// Stored-side accessor of the keying predicate per registered edge
    /// (what a late insert resolves its lookup value with).
    edge_keys: Vec<(EdgeId, SlotAccessor)>,
}

impl PendingSet {
    fn is_empty(&self) -> bool {
        self.keyed.is_empty() && self.unkeyed.is_empty()
    }

    /// Registers a prober under its join-key value (or unkeyed).
    fn register(&mut self, prober: PendingProber, key: Option<(SlotAccessor, Value)>) {
        let edge = prober.key.1;
        match key {
            Some((stored_slot, value)) if !value.is_null() => {
                if !self.edge_keys.iter().any(|(e, _)| *e == edge) {
                    self.edge_keys.push((edge, stored_slot));
                }
                self.keyed
                    .entry(edge)
                    .or_default()
                    .entry(value)
                    .or_default()
                    .push(prober);
            }
            // No usable key (predicate-less rule set, missing attribute,
            // or a Null probe value): fall back to the scanned list.
            _ => self.unkeyed.push(prober),
        }
    }

    /// Drops probers whose guard can no longer receive late inserts.
    fn gc(&mut self, watermark: u64) {
        self.keyed.retain(|_, by_value| {
            by_value.retain(|_, probers| {
                probers.retain(|p| p.guard > watermark + 1);
                !probers.is_empty()
            });
            !by_value.is_empty()
        });
        self.unkeyed.retain(|p| p.guard > watermark + 1);
    }
}

/// The state owned by one worker thread.
#[derive(Debug)]
pub(crate) struct ShardState {
    plan: Arc<TopologyPlan>,
    /// The owned store partitions and the rules that act on them.
    pub rules: Interpreter,
    /// Forward-fed stores requiring symmetric probing.
    symmetric: Arc<FxHashSet<StoreId>>,
    /// Pending probers per forward-fed store, indexed by join-key value.
    pending: FxHashMap<StoreId, PendingSet>,
    /// Metrics delta since the last collection barrier.
    pub metrics: EngineMetrics,
    /// Statistics delta since the last collection barrier.
    pub stats: StatsCollector,
    /// Emitted results since the last collection barrier (only filled when
    /// the coordinator collects results or has a sink registered).
    pub results: Vec<(QueryId, Tuple)>,
    /// Whether emitted result tuples are retained for the coordinator.
    pub forward_results: bool,
    /// Streaming result subscription: emitted results are sent here the
    /// moment they are produced, without waiting for a barrier.
    pub subscription: Option<Sender<(QueryId, Tuple)>>,
    /// This worker's trace-event ring (drained into barrier acks).
    pub trace: TraceRing,
}

impl ShardState {
    /// Creates the shard with instantiated (empty) stores for `plan`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        workers: usize,
        plan: Arc<TopologyPlan>,
        layout: &StoreLayout,
        symmetric: Arc<FxHashSet<StoreId>>,
        epoch: EpochConfig,
        freeze_after: u64,
        forward_results: bool,
        trace: TraceRing,
    ) -> Self {
        let mut shard = ShardState {
            plan: Arc::new(TopologyPlan::default()),
            rules: Interpreter::new(epoch, freeze_after, workers),
            symmetric: Arc::new(FxHashSet::default()),
            pending: FxHashMap::default(),
            metrics: EngineMetrics::default(),
            stats: StatsCollector::new(epoch.length),
            results: Vec::new(),
            forward_results,
            subscription: None,
            trace,
        };
        shard.install(plan, layout, symmetric);
        shard
    }

    /// Replaces the symmetric store set in place (the multi-producer
    /// widening). Already-registered pending probers stay registered: the
    /// exactly-once argument holds for any symmetric set, so widening
    /// mid-stream is safe without a drain.
    pub fn set_symmetric(&mut self, symmetric: Arc<FxHashSet<StoreId>>) {
        self.symmetric = symmetric;
    }

    /// Installs a plan, carrying over the state of stores whose descriptor
    /// key matches (Section VI-A) and dropping the rest — the same
    /// carry-over rule as the sequential engine, applied shard-locally.
    /// Installs only happen after a full drain, so no probers are pending.
    pub fn install(
        &mut self,
        plan: Arc<TopologyPlan>,
        layout: &StoreLayout,
        symmetric: Arc<FxHashSet<StoreId>>,
    ) {
        self.rules.install(&plan, layout);
        self.plan = plan;
        self.symmetric = symmetric;
        self.pending.clear();
        let stores = self.rules.stores().len() as u64;
        self.trace.record(TraceEventKind::PlanInstall, 0, stores);
    }

    /// Executes the rules of one delivery, pushing generated forwards into
    /// `forwards` and recording emissions locally.
    pub fn process(&mut self, delivery: &Delivery, forwards: &mut ForwardBuffer) {
        let plan = Arc::clone(&self.plan);
        let key = (delivery.target.store, delivery.target.edge);
        let Some(rules) = plan.rules.get(&key) else {
            return;
        };
        let symmetric = self.symmetric.contains(&delivery.target.store);
        let step = Step {
            target: delivery.target,
            tuple: &delivery.tuple,
            probe_partitions: &delivery.probe_partitions,
            store_partition: delivery.store_partition,
            broadcast: delivery.broadcast,
            guard: Some(delivery.guard),
            started: delivery.started,
        };
        let mut out = ShardOutbox {
            plan: &plan,
            workers: self.rules.workers,
            epoch: self.rules.epoch,
            delivery,
            forwards,
            pending: symmetric
                .then(|| self.pending.get(&delivery.target.store))
                .flatten(),
            results: &mut self.results,
            forward_results: self.forward_results,
            subscription: &mut self.subscription,
        };
        let mut rec = Recorders {
            metrics: &mut self.metrics,
            stats: &mut self.stats,
            trace: &mut self.trace,
        };
        self.rules.apply(rules, &step, &mut rec, &mut out);
        // Register the probe for symmetric completion: a later-arriving
        // insert with a smaller guard must still find it (via the join-key
        // index when the probe carries one: stored-side accessor and
        // probe-side value of the first probe rule's first predicate).
        if !symmetric || delivery.probe_partitions.is_empty() {
            return;
        }
        let Some(predicates) = rules.iter().find_map(|rule| match rule {
            Rule::Probe { predicates, .. } => Some(predicates),
            _ => None,
        }) else {
            return;
        };
        let probe_key = self
            .rules
            .stores()
            .get(&delivery.target.store)
            .and_then(|store| store.predicate_sides(predicates).next())
            .and_then(|(stored_side, probe_side)| {
                SlotAccessor::of(&probe_side)
                    .get(&delivery.tuple)
                    .map(|v| (SlotAccessor::of(&stored_side), v.clone()))
            });
        self.pending
            .entry(delivery.target.store)
            .or_default()
            .register(
                PendingProber {
                    guard: delivery.guard,
                    tuple: delivery.tuple.clone(),
                    partitions: delivery.probe_partitions.clone(),
                    key,
                    started: delivery.started,
                },
                probe_key,
            );
    }

    /// Drops pending probers that can no longer receive late inserts: all
    /// roots below their guard have completed (watermark >= guard - 1).
    pub fn gc_probers(&mut self, watermark: u64) {
        for pending in self.pending.values_mut() {
            pending.gc(watermark);
        }
        self.pending.retain(|_, p| !p.is_empty());
    }
}

/// A shard's outbox for one delivery: forwards fan out to the owning
/// workers, emitted results stream to the subscription and are retained
/// for the coordinator when requested, and inserts at symmetric stores
/// retro-match the registered pending probers.
struct ShardOutbox<'a> {
    plan: &'a TopologyPlan,
    workers: usize,
    epoch: EpochConfig,
    delivery: &'a Delivery,
    forwards: &'a mut ForwardBuffer,
    /// Pending probers of the target store, when it is symmetric.
    pending: Option<&'a PendingSet>,
    results: &'a mut Vec<(QueryId, Tuple)>,
    forward_results: bool,
    subscription: &'a mut Option<Sender<(QueryId, Tuple)>>,
}

impl Outbox for ShardOutbox<'_> {
    fn emit(&mut self, query: QueryId, joined: &Tuple) {
        if let Some(tx) = self.subscription {
            if tx.send((query, joined.clone())).is_err() {
                // The subscriber hung up: stop paying the per-result clone.
                *self.subscription = None;
            }
        }
        if self.forward_results {
            self.results.push((query, joined.clone()));
        }
    }

    fn forward(
        &mut self,
        target: SendTarget,
        joined: Tuple,
        guard: Option<u64>,
        started: Instant,
        metrics: &mut EngineMetrics,
    ) {
        // Shards always apply rules guarded.
        let guard = guard.unwrap_or(self.delivery.guard);
        let root = &self.delivery.root;
        for (worker, delivery) in fan_out(
            self.plan,
            self.workers,
            target,
            joined,
            guard,
            root,
            started,
            metrics,
        ) {
            self.forwards.push(worker, delivery);
        }
    }

    /// Matches the just-applied insert against the registered pending
    /// probers of the store: the symmetric half of probe processing. Only
    /// probers with a *larger* guard qualify (they logically ran after
    /// this insert), and all timestamp/window/predicate checks mirror
    /// `StoreInstance::probe` exactly. Candidates come from the join-key
    /// index (plus the unkeyed scan list), so the cost is proportional to
    /// the probers that can actually match, not to everything in flight.
    fn stored(&mut self, store: &StoreInstance, partition: usize, rec: &mut Recorders<'_>) {
        let (Some(pending), plan, delivery) = (self.pending, self.plan, self.delivery) else {
            return;
        };
        let inserted = &delivery.tuple;
        let mut candidates: Vec<&PendingProber> = Vec::new();
        for (edge, stored_slot) in &pending.edge_keys {
            let Some(value) = stored_slot.get(inserted) else {
                continue;
            };
            if value.is_null() {
                continue;
            }
            if let Some(probers) = pending.keyed.get(edge).and_then(|m| m.get(value)) {
                candidates.extend(probers.iter());
            }
        }
        candidates.extend(pending.unkeyed.iter());
        for prober in candidates {
            if delivery.guard >= prober.guard || !prober.partitions.contains(&partition) {
                continue;
            }
            if inserted.ts >= prober.tuple.ts
                || !store.window.contains(prober.tuple.ts, inserted.ts)
            {
                continue;
            }
            let Some(rules) = plan.rules.get(&prober.key) else {
                continue;
            };
            for rule in rules {
                let Rule::Probe {
                    predicates,
                    outputs,
                } = rule
                else {
                    continue;
                };
                let all_hold =
                    store
                        .predicate_sides(predicates)
                        .all(|(stored_side, probe_side)| {
                            matches!(
                                (inserted.get(&stored_side), prober.tuple.get(&probe_side)),
                                (Some(sv), Some(pv)) if sv.join_eq(pv)
                            )
                        });
                if !all_hold {
                    continue;
                }
                let Some(joined) = prober.tuple.join(inserted) else {
                    continue;
                };
                // The sequential engine would have counted this match
                // inside the original probe's observation, so contribute
                // the match without another probe count or size share.
                rec.stats.record_probe_obs(
                    self.epoch.epoch_of(prober.tuple.ts),
                    predicates,
                    0,
                    1,
                    0,
                );
                emit(
                    outputs,
                    &joined,
                    Some(prober.guard),
                    prober.started,
                    rec.metrics,
                    self,
                );
            }
        }
    }
}
