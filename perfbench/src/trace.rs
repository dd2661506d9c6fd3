//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into the
//! system's public functions (nothing inside the program is traced). Each
//! span has a name, a start and an end on one monotonic clock, and the
//! span that was open when it began. The recorder is disabled in the
//! untraced run, where every call reduces to a branch.

use std::io::Write;
use std::time::Instant;

/// Index of a span in the recorder; `NONE` when tracing is off.
pub type SpanId = u32;
const NONE: SpanId = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    parent: SpanId,
    start_ns: u64,
    end_ns: u64,
}

/// Records spans in memory and summarises them at the end of a run.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return NONE;
        }
        let id = self.spans.len() as SpanId;
        let parent = self.open.last().copied().unwrap_or(NONE);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes a span opened by [`Self::begin`].
    pub fn end(&mut self, id: SpanId) {
        if id == NONE {
            return;
        }
        let end_ns = self.now_ns();
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans must close innermost first");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Renames a span after the fact (a call's layer can depend on what
    /// it turned out to do, e.g. an ingest that crossed an epoch).
    pub fn rename(&mut self, id: SpanId, name: &'static str) {
        if id != NONE {
            self.spans[id as usize].name = name;
        }
    }

    /// Adds an already-measured child of `parent` that starts with it and
    /// lasts `duration_ns`. Used for the sink, whose many short calls
    /// inside one engine call are summed into one span.
    pub fn add_child(&mut self, parent: SpanId, name: &'static str, duration_ns: u64) {
        if parent == NONE || duration_ns == 0 {
            return;
        }
        let start_ns = self.spans[parent as usize].start_ns;
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns + duration_ns,
        });
    }

    /// Durations in seconds of every span with this name.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .collect()
    }

    /// Summed duration in seconds of every span with this name.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().fold(0.0, |a, b| a + b)
    }

    /// Self time in seconds: the spans' durations minus the time their
    /// direct children cover.
    pub fn self_time(&self, name: &str) -> f64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(&child_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(*c) as f64 / 1e9)
            .fold(0.0, |a, b| a + b)
    }

    /// Share of the wall time between `from_ns` and `to_ns` that top-level
    /// spans account for. Top-level spans run one after another on the
    /// generator thread, so they never overlap.
    pub fn coverage(&self, from_ns: u64, to_ns: u64) -> f64 {
        if to_ns <= from_ns {
            return 0.0;
        }
        let covered: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == NONE)
            .map(|s| s.end_ns.min(to_ns).saturating_sub(s.start_ns.max(from_ns)))
            .sum();
        covered as f64 / (to_ns - from_ns) as f64
    }

    /// Writes every span as one CSV line: `id,parent,name,start_ns,end_ns`
    /// (`parent` is empty for top-level spans).
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,parent,name,start_ns,end_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NONE {
                String::new()
            } else {
                s.parent.to_string()
            };
            writeln!(out, "{id},{parent},{},{},{}", s.name, s.start_ns, s.end_ns)?;
        }
        out.flush()
    }
}
