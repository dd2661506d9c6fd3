//! The result line and the statistics behind it.

/// Verdict, operation counts and named metrics of one run.
#[derive(Debug, Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// A report that stays correct until a check fails.
    pub fn new() -> Self {
        Report {
            correct: true,
            ..Report::default()
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        debug_assert!(
            self.metrics.iter().all(|(n, _, _)| *n != name),
            "metric {name} reported twice"
        );
        self.metrics.push((name, value, unit));
    }

    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// The result as one line of JSON. `serde_json` is an offline stub in
    /// this repository, so the line is written by hand. A metric that is
    /// not a finite number makes the run incorrect and is written as 0.
    pub fn to_json(&self) -> String {
        let finite = self.metrics.iter().all(|(_, v, _)| v.is_finite());
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct && finite,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// Nearest-rank percentile of sorted values (`p` in 0..=100).
pub fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// Σ |result − reference| / Σ reference over the given queries.
pub fn error_share(counts: &[u64], reference: &[u64], queries: &[usize]) -> f64 {
    let get = |v: &[u64], q: usize| v.get(q).copied().unwrap_or(0);
    let diff: u64 = queries
        .iter()
        .map(|&q| get(counts, q).abs_diff(get(reference, q)))
        .sum();
    let total: u64 = queries.iter().map(|&q| get(reference, q)).sum();
    if total == 0 {
        if diff == 0 {
            0.0
        } else {
            1.0
        }
    } else {
        diff as f64 / total as f64
    }
}

pub const MIB: f64 = 1024.0 * 1024.0;
