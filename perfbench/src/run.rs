//! The untraced and the traced run of one workload.

use crate::alloc;
use crate::drive::{
    paced, page_sum, plan_for_setup, plan_staged, unpaced, Finished, LocalTarget, Paced, PlanFacts,
    Sut,
};
use crate::report::{error_share, median, percentile, Report, MIB};
use crate::sink::{Sink, Tally};
use crate::trace::Tracer;
use crate::workload::{Inputs, Runtime, Spec, Stream};
use clash_analyzer::verify_plan;
use clash_common::Result;
use clash_optimizer::{Planner, PlannerConfig, Strategy, TopologyPlan};
use clash_runtime::MetricsSnapshot;
use std::time::{Duration, Instant};

fn snapshot_counts(snapshot: &MetricsSnapshot) -> Vec<u64> {
    let mut counts = Vec::new();
    for (&q, &n) in &snapshot.results {
        let q = q as usize;
        if counts.len() <= q {
            counts.resize(q + 1, 0);
        }
        counts[q] = n;
    }
    counts
}

/// Checks common to every pass: the sink received exactly what the
/// engine counted, and no input was rejected.
fn check_pass(label: &str, tally: &Tally, fin: &Finished, errors: u64, report: &mut Report) {
    if errors > 0 {
        report.correct = false;
        report.note(format!("{label}: {errors} inputs failed with an error"));
    }
    if !tally.counts_equal(&snapshot_counts(&fin.snapshot)) {
        report.correct = false;
        report.note(format!(
            "{label}: sink received {:?} results per query, engine counted {:?}",
            tally.counts,
            snapshot_counts(&fin.snapshot)
        ));
    }
}

/// Set-up samples per run, for the median.
const SETUPS: usize = 3;

/// Set-up, from catalog and queries in hand to a system ready to ingest:
/// planning, static verification and engine construction, `SETUPS` times.
/// Returns the first plan, which every pass of the run then executes.
/// Churn deploys through `ClashSystem` in every pass instead, so its
/// passes are its set-up samples.
fn set_up(
    spec: &Spec,
    inputs: &Inputs,
    tr: &mut Tracer,
    facts: &mut Vec<PlanFacts>,
    diagnostics: &mut usize,
) -> Result<(Option<TopologyPlan>, Vec<f64>)> {
    if spec.runtime == Runtime::Churn {
        return Ok((None, Vec::new()));
    }
    let mut first = None;
    let mut times = Vec::new();
    for _ in 0..SETUPS {
        let started = Instant::now();
        let (catalog, stats) = (&inputs.catalog, &inputs.stats);
        let plan = plan_for_setup(catalog, stats, &inputs.queries, tr, facts, diagnostics)?;
        let sut = Sut::build(spec, inputs, Some(&plan), &Sink::new(false), tr)?;
        times.push(started.elapsed().as_secs_f64());
        sut.finish(false);
        first.get_or_insert(plan);
    }
    Ok((first, times))
}

struct Closed {
    /// Time to build the system (for churn: the whole deployment).
    build_s: f64,
    loop_s: f64,
    /// Generator-clock time (traced run) when the last result was in.
    end_ns: u64,
    errors: u64,
    allocs: u64,
    peak_bytes: u64,
    live_end_bytes: u64,
    sink_busy_s: f64,
    tally: Tally,
    fin: Finished,
}

/// Closed loop: build the system, hand the whole stream over unpaced, and
/// stop the clock when the last result is in.
fn closed(
    spec: &Spec,
    inputs: &Inputs,
    stream: &Stream,
    plan: Option<&TopologyPlan>,
    tr: &mut Tracer,
) -> Result<Closed> {
    let sink = Sink::new(tr.enabled());
    let live0 = alloc::reset_peak();
    let started = Instant::now();
    let mut sut = Sut::build(spec, inputs, plan, &sink, tr)?;
    let build_s = started.elapsed().as_secs_f64();
    let allocs0 = alloc::allocations();
    let t0 = Instant::now();
    let errors = unpaced(&mut sut, tr, stream, 0..stream.len());
    sut.drain(tr);
    let loop_s = t0.elapsed().as_secs_f64();
    let end_ns = tr.now_ns();
    let allocs = alloc::allocations() - allocs0;
    let peak_bytes = alloc::peak_bytes().saturating_sub(live0);
    let live_end_bytes = alloc::live_bytes().saturating_sub(live0);
    let fin = sut.finish(tr.enabled());
    let state = sink.state();
    Ok(Closed {
        build_s,
        loop_s,
        end_ns,
        errors,
        allocs,
        peak_bytes,
        live_end_bytes,
        sink_busy_s: state.busy_ns as f64 / 1e9,
        tally: state.tally.clone(),
        fin,
    })
}

struct Open {
    build_s: f64,
    paced: Paced,
    /// Result latencies in nanoseconds, sorted.
    latencies: Vec<u64>,
    /// Scheduled inputs handed over, or producing a result, too late.
    late_inputs: usize,
    tally: Tally,
    fin: Finished,
}

/// Open loop at the workload's fixed rate.
fn open(
    spec: &Spec,
    inputs: &Inputs,
    stream: &Stream,
    plan: Option<&TopologyPlan>,
) -> Result<Open> {
    let mut tr = Tracer::new(false);
    let sink = Sink::new(false);
    let started = Instant::now();
    let mut sut = Sut::build(spec, inputs, plan, &sink, &mut tr)?;
    let build_s = started.elapsed().as_secs_f64();
    let paced = paced(&mut sut, &sink, &mut tr, stream, spec);
    let fin = sut.finish(false);
    let mut state = sink.state();
    let mut latencies = std::mem::take(&mut state.latencies_ns);
    latencies.sort_unstable();
    let late_inputs = paced
        .late_handover
        .iter()
        .zip(&state.late)
        .filter(|(h, r)| **h || **r)
        .count();
    Ok(Open {
        build_s,
        paced,
        latencies,
        late_inputs,
        tally: state.tally.clone(),
        fin,
    })
}

/// The exactness reference, computed outside every timed window: the
/// Independent plan for the static local workloads, `LocalEngine` on the
/// measured plan for the parallel one (its single-threaded baseline), and
/// a static q1–q5 deployment for churn's always-registered queries.
fn reference(
    spec: &Spec,
    inputs: &Inputs,
    stream: &Stream,
    plan: Option<&TopologyPlan>,
    tr: &mut Tracer,
) -> Result<(Tally, Finished)> {
    let planner = Planner::new(&inputs.catalog, &inputs.stats, PlannerConfig::default());
    let plan = match (spec.runtime, plan) {
        (Runtime::Parallel, Some(plan)) => plan.clone(),
        (Runtime::Local, _) => planner.plan(&inputs.queries, Strategy::Independent)?.plan,
        _ => planner.plan(&inputs.queries, Strategy::GlobalIlp)?.plan,
    };
    let sink = Sink::new(false);
    let manual_expiry = tr.enabled();
    let mut target = Sut::Local(LocalTarget::new(
        &inputs.catalog,
        plan,
        &sink,
        manual_expiry,
        tr,
    ));
    let errors = unpaced(&mut target, tr, stream, 0..stream.len());
    if errors > 0 {
        return Err(clash_common::ClashError::Runtime(format!(
            "reference run rejected {errors} inputs"
        )));
    }
    let fin = target.finish(tr.enabled());
    let tally = sink.state().tally.clone();
    Ok((tally, fin))
}

/// Queries the reference covers: q1–q5 on every workload.
fn reference_queries(inputs: &Inputs) -> Vec<usize> {
    inputs.queries.iter().map(|q| q.id.0 as usize).collect()
}

/// Whether the workload must match its reference exactly. Where the
/// window covers the whole stream no tuple expires, so every static plan
/// computes the same join. With expiring windows, and across the
/// controller's mid-stream rewiring, the counts are measured against the
/// reference but not required to match (see `result_error_share`).
fn exact(spec: &Spec) -> bool {
    spec.runtime != Runtime::Churn && spec.window_s * 1000 >= spec.inputs as u64
}

fn check_reference(
    label: &str,
    spec: &Spec,
    tally: &Tally,
    reference: &Tally,
    queries: &[usize],
    report: &mut Report,
) -> f64 {
    let differs =
        |q: usize| tally.count(q) != reference.count(q) || tally.ts_sum(q) != reference.ts_sum(q);
    if exact(spec) && queries.iter().any(|&q| differs(q)) {
        report.correct = false;
        report.note(format!(
            "{label}: results per query {:?} (or their timestamps) differ from the reference {:?}",
            tally.counts, reference.counts
        ));
    }
    error_share(&tally.counts, &reference.counts, queries)
}

/// Sum that is +0 for no values (an empty `Sum` of floats is -0).
fn sum(values: &[f64]) -> f64 {
    values.iter().fold(0.0, |a, b| a + b)
}

pub fn untraced(spec: &Spec, seed: u64, seconds: f64) -> Result<Report> {
    let inputs = Inputs::generate(spec, seed)?;
    let n = spec.inputs;
    let queries = reference_queries(&inputs);
    let mut report = Report::new();
    let mut off = Tracer::new(false);
    let (plan, mut setups) = set_up(spec, &inputs, &mut off, &mut Vec::new(), &mut 0)?;
    let plan = plan.as_ref();
    let references = inputs
        .streams
        .iter()
        .map(|stream| Ok(reference(spec, &inputs, stream, plan, &mut off)?.0))
        .collect::<Result<Vec<Tally>>>()?;

    // Closed and open passes share the measured time equally and
    // interleave, so that a slow spell of the machine affects both loops
    // alike: the next pass is of the kind that has used less time so far.
    // Each pass builds a fresh system from the run's plan; passes of a
    // kind cycle through the streams.
    let mut closed_passes = Vec::new();
    let mut open_passes = Vec::new();
    let (mut closed_s, mut open_s) = (0.0, 0.0);
    let of = |pass: usize| pass % inputs.streams.len();
    while closed_passes.is_empty() || open_passes.is_empty() || closed_s + open_s < seconds {
        let started = Instant::now();
        if closed_s <= open_s {
            let stream = &inputs.streams[of(closed_passes.len())];
            closed_passes.push(closed(spec, &inputs, stream, plan, &mut off)?);
            closed_s += started.elapsed().as_secs_f64();
        } else {
            let stream = &inputs.streams[of(open_passes.len())];
            open_passes.push(open(spec, &inputs, stream, plan)?);
            open_s += started.elapsed().as_secs_f64();
        }
    }
    if spec.runtime == Runtime::Churn {
        setups.extend(closed_passes.iter().map(|c| c.build_s));
        setups.extend(open_passes.iter().map(|o| o.build_s));
    }

    let mut shares = Vec::new();
    for (i, c) in closed_passes.iter().enumerate() {
        let label = format!("closed pass {i}");
        check_pass(&label, &c.tally, &c.fin, c.errors, &mut report);
        let reference = &references[of(i)];
        shares.push(check_reference(
            &label,
            spec,
            &c.tally,
            reference,
            &queries,
            &mut report,
        ));
    }
    let mut late = 0;
    for (i, o) in open_passes.iter().enumerate() {
        let label = format!("open pass {i}");
        check_pass(&label, &o.tally, &o.fin, o.paced.errors, &mut report);
        let reference = &references[of(i)];
        shares.push(check_reference(
            &label,
            spec,
            &o.tally,
            reference,
            &queries,
            &mut report,
        ));
        late += o.late_inputs;
    }
    let errors: u64 = closed_passes.iter().map(|c| c.errors).sum::<u64>()
        + open_passes.iter().map(|o| o.paced.errors).sum::<u64>();
    let scheduled = (n - spec.warmup) * open_passes.len();
    report.attempted = (n * (closed_passes.len() + open_passes.len())) as u64;
    report.failed = errors + late as u64;

    let tps: Vec<f64> = closed_passes.iter().map(|c| n as f64 / c.loop_s).collect();
    let ms = |ns: f64| ns / 1e6;
    let p50: Vec<f64> = open_passes
        .iter()
        .map(|o| ms(percentile(&o.latencies, 50.0)))
        .collect();
    let p99: Vec<f64> = open_passes
        .iter()
        .map(|o| ms(percentile(&o.latencies, 99.0)))
        .collect();
    let lag: Vec<f64> = open_passes.iter().map(|o| ms(o.paced.lag_p99_ns)).collect();
    let lag_max: Vec<f64> = open_passes
        .iter()
        .map(|o| o.paced.lag_max.as_secs_f64() * 1e3)
        .collect();
    let state: Vec<f64> = closed_passes
        .iter()
        .map(|c| c.fin.snapshot.store_bytes as f64 / MIB)
        .collect();
    let heap: Vec<f64> = closed_passes
        .iter()
        .map(|c| c.peak_bytes as f64 / MIB)
        .collect();

    // Latency percentiles over the results of every open pass together:
    // a few heavy inputs carry most results, so pooling the passes (one
    // stream each) lets more of them shape the tail.
    let mut pooled: Vec<u64> = open_passes
        .iter()
        .flat_map(|o| o.latencies.iter().copied())
        .collect();
    pooled.sort_unstable();
    let latency_p50 = ms(percentile(&pooled, 50.0));
    let latency_p99 = ms(percentile(&pooled, 99.0));
    report.metric(
        "on_time_share",
        1.0 - late as f64 / scheduled.max(1) as f64,
        "share",
    );
    report.metric("setup_s", median(&setups), "s");
    report.metric("state_mb", median(&state), "MiB");
    report.metric("heap_peak_mb", median(&heap), "MiB");

    report.note(format!(
        "{}: seed {seed}, {n} inputs, {} closed and {} open passes; open loop at {} inputs/s after {} unpaced, limit {} ms",
        spec.name,
        closed_passes.len(),
        open_passes.len(),
        spec.rate,
        spec.warmup,
        spec.limit_ms
    ));
    report.note(format!(
        "throughput_tps {:.1} 1/s (median over closed passes; per pass {tps:.0?})",
        median(&tps)
    ));
    report.note(format!(
        "latency_p50_ms {latency_p50:.4} ms, latency_p99_ms {latency_p99:.4} ms over {} result samples; per open pass p50 {p50:.3?} ms, p99 {p99:.3?} ms",
        pooled.len()
    ));
    report.note(format!(
        "send_lag_ms {:.3} ms (largest hand-over lateness, median over open passes; per pass max {lag_max:.3?} ms, p99 {lag:.3?} ms)",
        median(&lag_max)
    ));
    report.note(format!("late inputs: {late} of {scheduled} scheduled"));
    report.note(format!("set-up samples (s): {setups:.3?}"));
    report.note(format!(
        "results per query, stream 0: measured {:?}, reference {:?}",
        closed_passes[0].tally.counts, references[0].counts
    ));
    report.note(format!(
        "late_share {:.6} share; result_error_share {:.6} share (median over passes, largest {:.6})",
        late as f64 / scheduled.max(1) as f64,
        median(&shares),
        shares.iter().copied().fold(0.0, f64::max)
    ));
    Ok(report)
}

pub fn traced(spec: &Spec, seed: u64) -> Result<Report> {
    let inputs = Inputs::generate(spec, seed)?;
    let n = spec.inputs as f64;
    let stream = &inputs.streams[0];
    let queries = reference_queries(&inputs);
    let mut report = Report::new();

    // The traced window: set-up (planned in stages) and one closed pass.
    let mut tr = Tracer::new(true);
    let mut facts = Vec::new();
    let mut diagnostics = 0;
    let from_ns = tr.now_ns();
    if spec.runtime == Runtime::Churn {
        // `ClashSystem::deploy` plans opaquely; plan q1–q5 in stages
        // beside it for the optimizer's layers.
        for _ in 0..SETUPS {
            let (plan, f) = plan_staged(&inputs.catalog, &inputs.stats, &inputs.queries, &mut tr)?;
            facts.push(f);
            diagnostics = tr.span("analyzer.verify", || {
                verify_plan(&inputs.catalog, &plan).len()
            });
        }
    }
    let (plan, _) = set_up(spec, &inputs, &mut tr, &mut facts, &mut diagnostics)?;
    let plan = plan.as_ref();
    let pass = closed(spec, &inputs, stream, plan, &mut tr)?;
    let to_ns = pass.end_ns;

    // An untraced pass on the same plan: the base for the tracing
    // overhead, and the heap counts (spans allocate too).
    let mut off = Tracer::new(false);
    let base = closed(spec, &inputs, stream, plan, &mut off)?;

    // The reference; for the parallel workload it is the single-threaded
    // baseline on the same plan, traced on its own for the engine layers.
    let is_parallel = spec.runtime == Runtime::Parallel;
    let mut local_tr = Tracer::new(is_parallel);
    let (reference_tally, reference_fin) = reference(spec, &inputs, stream, plan, &mut local_tr)?;
    let local = is_parallel.then_some(reference_fin);

    check_pass(
        "untraced pass",
        &base.tally,
        &base.fin,
        base.errors,
        &mut report,
    );
    check_pass(
        "traced pass",
        &pass.tally,
        &pass.fin,
        pass.errors,
        &mut report,
    );
    check_reference(
        "untraced pass",
        spec,
        &base.tally,
        &reference_tally,
        &queries,
        &mut report,
    );
    check_reference(
        "traced pass",
        spec,
        &pass.tally,
        &reference_tally,
        &queries,
        &mut report,
    );
    report.attempted = 2 * n as u64;
    report.failed = base.errors + pass.errors;

    // Optimizer and analyzer: medians over the staged plans.
    let med = |name: &str, t: &Tracer| median(&t.durations(name));
    let last = facts.last().cloned().expect("at least one staged plan");
    let mut digests: Vec<u64> = facts.iter().map(|f| f.digest).collect();
    digests.sort_unstable();
    digests.dedup();
    let fmed = |f: fn(&PlanFacts) -> f64| median(&facts.iter().map(f).collect::<Vec<_>>());
    report.metric("optimizer.plan_s", med("optimizer.plan", &tr), "s");
    report.metric(
        "optimizer.enumerate_s",
        med("optimizer.enumerate", &tr),
        "s",
    );
    report.metric("optimizer.probe_orders", last.probe_orders as f64, "count");
    report.metric("ilp.build_s", med("ilp.build", &tr), "s");
    report.metric("ilp.solve_s", med("ilp.solve", &tr), "s");
    report.metric("ilp.nodes", fmed(|f| f.nodes as f64), "count");
    report.metric(
        "ilp.optimal",
        fmed(|f| f64::from(u8::from(f.optimal))),
        "share",
    );
    report.metric("ilp.vars", last.vars as f64, "count");
    report.metric("ilp.constraints", last.constraints as f64, "count");
    report.metric("optimizer.topology_s", med("optimizer.topology", &tr), "s");
    report.metric("plan.cost", last.cost, "sends/s");
    report.metric("plan.stores", last.stores as f64, "count");
    report.metric("plan.digest", last.digest as f64, "id");
    report.metric("plan.digests", digests.len() as f64, "count");
    report.metric("analyzer.verify_s", med("analyzer.verify", &tr), "s");
    report.metric("analyzer.diagnostics", diagnostics as f64, "count");

    // The local engine and its stores: the measured engine, or for the
    // parallel workload the single-threaded baseline on the same plan.
    let (etr, efin) = match &local {
        Some(fin) => (&local_tr, fin),
        None => (&tr, &pass.fin),
    };
    let mut ingest = etr.durations("engine.ingest");
    ingest.sort_by(f64::total_cmp);
    let pct = |p: f64| {
        let rank = ((p / 100.0) * ingest.len() as f64).ceil() as usize;
        ingest.get(rank.max(1) - 1).copied().unwrap_or(0.0)
    };
    let max = |v: &[f64]| v.iter().copied().fold(0.0, f64::max);
    let snap = &efin.snapshot;
    report.metric("engine.new_s", med("engine.new", etr), "s");
    report.metric("engine.ingest_s", sum(&ingest), "s");
    report.metric("engine.ingest_p50_us", pct(50.0) * 1e6, "us");
    report.metric("engine.ingest_p99_us", pct(99.0) * 1e6, "us");
    report.metric("engine.ingest_max_ms", max(&ingest) * 1e3, "ms");
    report.metric("engine.tuples_sent", snap.tuples_sent as f64, "count");
    report.metric(
        "engine.sent_per_input",
        snap.tuples_sent as f64 / n,
        "count",
    );
    report.metric("engine.broadcasts", snap.broadcasts as f64, "count");
    report.metric("engine.probes", snap.probes as f64, "count");
    report.metric("engine.results", snap.total_results() as f64, "count");
    report.metric(
        "engine.results_per_probe",
        snap.total_results() as f64 / snap.probes.max(1) as f64,
        "count",
    );
    let expiry = etr.durations("store.expire");
    report.metric("store.expire_calls", expiry.len() as f64, "count");
    report.metric("store.expire_s", sum(&expiry), "s");
    report.metric("store.expire_max_ms", max(&expiry) * 1e3, "ms");
    report.metric("store.tuples", snap.store_tuples as f64, "count");
    report.metric("store.bytes", snap.store_bytes as f64, "bytes");
    let gauge = |metric: &str| page_sum(&efin.page, metric);
    report.metric(
        "store.compactions",
        gauge("clash_compactions_total"),
        "count",
    );
    report.metric("store.segments", gauge("clash_segments_total"), "count");
    report.metric("store.segment_bytes", gauge("clash_segment_bytes"), "bytes");

    // Heap, from the untraced pass.
    let results = base.tally.total().max(1) as f64;
    report.metric("heap.allocs_per_input", base.allocs as f64 / n, "count");
    report.metric(
        "heap.allocs_per_result",
        base.allocs as f64 / results,
        "count",
    );
    report.metric("heap.live_end_mb", base.live_end_bytes as f64 / MIB, "MiB");

    // The parallel runtime (zero on the other workloads).
    let busy: Vec<f64> = pass
        .fin
        .worker_busy
        .iter()
        .map(Duration::as_secs_f64)
        .collect();
    let busy_sum = sum(&busy);
    let mut coordinator = tr.durations("parallel.ingest");
    coordinator.extend(tr.durations("parallel.expire"));
    let local_busy = local.as_ref().map_or(0.0, |f| f.snapshot.busy_secs);
    let psnap = &pass.fin.snapshot;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    report.metric("parallel.new_s", med("parallel.new", &tr), "s");
    report.metric("parallel.ingest_s", sum(&coordinator), "s");
    report.metric("parallel.ingest_max_ms", max(&coordinator) * 1e3, "ms");
    report.metric("parallel.flush_s", tr.total("parallel.flush"), "s");
    report.metric("parallel.expire_s", tr.total("parallel.expire"), "s");
    report.metric(
        "parallel.inflight_max",
        pass.fin.inflight_max as f64,
        "count",
    );
    report.metric("parallel.worker_busy_s", busy_sum, "s");
    report.metric(
        "parallel.busy_balance",
        ratio(max(&busy), busy_sum),
        "share",
    );
    report.metric(
        "parallel.work_inflation",
        ratio(busy_sum, local_busy),
        "ratio",
    );
    report.metric(
        "parallel.local_tps",
        local.as_ref().map_or(0.0, |f| f.snapshot.throughput_tps),
        "1/s",
    );
    let (sent, broadcasts) = if is_parallel {
        (psnap.tuples_sent, psnap.broadcasts)
    } else {
        (0, 0)
    };
    report.metric("parallel.tuples_sent", sent as f64, "count");
    report.metric("parallel.broadcasts", broadcasts as f64, "count");

    // The adaptive controller behind `ClashSystem` (zero on the static
    // workloads).
    let epochs = tr.durations("adaptive.on_epoch");
    report.metric("core.deploy_s", med("core.deploy", &tr), "s");
    report.metric("adaptive.on_epoch_calls", epochs.len() as f64, "count");
    report.metric("adaptive.on_epoch_s", sum(&epochs), "s");
    report.metric("adaptive.on_epoch_max_ms", max(&epochs) * 1e3, "ms");
    report.metric(
        "adaptive.reconfigurations",
        pass.fin.reconfigurations as f64,
        "count",
    );
    report.metric(
        "adaptive.rejected_candidates",
        pass.fin.rejected as f64,
        "count",
    );

    // The benchmark itself.
    let sink_s = if is_parallel {
        pass.sink_busy_s
    } else {
        tr.total("sink")
    };
    report.metric("trace.coverage", tr.coverage(from_ns, to_ns), "share");
    report.metric("trace.overhead", pass.loop_s / base.loop_s - 1.0, "share");
    report.metric("gen.self_s", tr.self_time("gen"), "s");
    report.metric("sink.self_s", sink_s, "s");
    report.metric("sink.results", pass.tally.total() as f64, "count");
    report.metric(
        "check.result_error_share",
        error_share(&pass.tally.counts, &reference_tally.counts, &queries),
        "share",
    );

    report.note(format!(
        "{}: seed {seed}, traced pass {:.3} s vs untraced {:.3} s; plan digests {digests:?}",
        spec.name, pass.loop_s, base.loop_s
    ));
    report.note(format!(
        "results per query: traced {:?}, reference {:?}",
        pass.tally.counts, reference_tally.counts
    ));
    let path = std::path::Path::new(".bench_out").join(format!("trace-{}.csv", spec.name));
    match tr.write_csv(&path) {
        Ok(()) => report.note(format!("spans written to {}", path.display())),
        Err(e) => report.note(format!("spans not written: {e}")),
    }
    Ok(report)
}
