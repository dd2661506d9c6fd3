//! The benchmark's result sink: counts results per query and, in the open
//! loop, measures each result's latency against the scheduled send time
//! of the newest input in it.

use crate::workload::input_index;
use clash_common::{QueryId, Tuple};
use clash_runtime::ResultSink;
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Per-query result counts plus a checksum of the results' timestamps
/// (each result's `ts` names the newest input in it).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    pub counts: Vec<u64>,
    ts_sums: Vec<u64>,
}

impl Tally {
    fn add(&mut self, query: QueryId, ts_ms: u64) {
        let q = query.0 as usize;
        if self.counts.len() <= q {
            self.counts.resize(q + 1, 0);
            self.ts_sums.resize(q + 1, 0);
        }
        self.counts[q] += 1;
        self.ts_sums[q] = self.ts_sums[q].wrapping_add(ts_ms);
    }

    pub fn count(&self, query: usize) -> u64 {
        self.counts.get(query).copied().unwrap_or(0)
    }

    pub fn ts_sum(&self, query: usize) -> u64 {
        self.ts_sums.get(query).copied().unwrap_or(0)
    }

    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Whether the per-query counts equal `counts` (indexed by query id).
    pub fn counts_equal(&self, counts: &[u64]) -> bool {
        let n = self.counts.len().max(counts.len());
        (0..n).all(|q| self.count(q) == counts.get(q).copied().unwrap_or(0))
    }
}

/// The open-loop schedule: input `first + k` is due at `start + k / rate`.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub start: Instant,
    pub first: usize,
    pub ns_per_input: f64,
}

impl Schedule {
    pub fn due(&self, index: usize) -> Instant {
        let k = index.saturating_sub(self.first) as f64;
        self.start + Duration::from_nanos((k * self.ns_per_input) as u64)
    }
}

#[derive(Debug, Default)]
pub struct SinkState {
    pub tally: Tally,
    schedule: Option<Schedule>,
    limit: Duration,
    /// Latency of every result of a scheduled input, in nanoseconds.
    pub latencies_ns: Vec<u64>,
    /// Per scheduled input: whether one of its results came late.
    pub late: Vec<bool>,
    /// Measure the sink's own time (traced run).
    timed: bool,
    /// Sink time not yet claimed by a span (traced run).
    unclaimed_ns: u64,
    pub busy_ns: u64,
}

impl SinkState {
    fn deliver(&mut self, query: QueryId, tuple: &Tuple) {
        let started = self.timed.then(Instant::now);
        let ts_ms = tuple.ts.as_millis();
        self.tally.add(query, ts_ms);
        if let Some(schedule) = self.schedule {
            let index = input_index(ts_ms);
            if index >= schedule.first {
                let latency = Instant::now().saturating_duration_since(schedule.due(index));
                self.latencies_ns.push(latency.as_nanos() as u64);
                if latency > self.limit {
                    if let Some(flag) = self.late.get_mut(index - schedule.first) {
                        *flag = true;
                    }
                }
            }
        }
        if let Some(started) = started {
            let ns = started.elapsed().as_nanos() as u64;
            self.unclaimed_ns += ns;
            self.busy_ns += ns;
        }
    }
}

/// A sink shared between the engine's callback (or the receiver thread)
/// and the generator.
#[derive(Debug, Clone, Default)]
pub struct Sink(Arc<Mutex<SinkState>>);

impl Sink {
    pub fn new(timed: bool) -> Self {
        let sink = Sink::default();
        sink.state().timed = timed;
        sink
    }

    pub fn state(&self) -> MutexGuard<'_, SinkState> {
        self.0
            .lock()
            .expect("sink poisoned by a panicking engine thread")
    }

    /// Starts latency measurement for inputs `schedule.first..first + n`.
    pub fn start_schedule(&self, schedule: Schedule, n: usize, limit: Duration) {
        let mut s = self.state();
        s.schedule = Some(schedule);
        s.limit = limit;
        s.late = vec![false; n];
    }

    /// Takes the sink time accumulated since the last call.
    pub fn claim_ns(&self) -> u64 {
        std::mem::take(&mut self.state().unclaimed_ns)
    }

    /// A callback for `LocalEngine::set_sink`.
    pub fn callback(&self) -> ResultSink {
        let sink = self.clone();
        Box::new(move |query, tuple| sink.state().deliver(query, tuple))
    }

    /// Consumes a result subscription on a thread of its own until the
    /// engine shuts down and the channel disconnects.
    pub fn receive(&self, rx: Receiver<(QueryId, Tuple)>) -> JoinHandle<()> {
        let sink = self.clone();
        std::thread::Builder::new()
            .name("bench-sink".into())
            .spawn(move || {
                // One lock per burst of results, not per result.
                while let Ok((query, tuple)) = rx.recv() {
                    let mut state = sink.state();
                    state.deliver(query, &tuple);
                    for (query, tuple) in rx.try_iter() {
                        state.deliver(query, &tuple);
                    }
                }
            })
            .expect("spawn sink thread")
    }
}
