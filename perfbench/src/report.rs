//! What a workload hands back to `main`: counts of attempted and failed
//! operations, the end-to-end and per-layer metrics, and the lines
//! printed above the result.

use std::collections::BTreeMap;

#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics by the names `BENCHMARK.json` lists.
    pub e2e: BTreeMap<&'static str, f64>,
    /// The workload's own names for its end-to-end metrics, with units.
    pub named: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer metrics (traced run only).
    pub layer: BTreeMap<&'static str, f64>,
    /// Self-time table of the traced run.
    pub table: String,
    /// The first few failures, described.
    pub failures: Vec<String>,
}

impl Report {
    /// Counts one attempted operation that failed when `err` is `Some`.
    pub fn record(&mut self, err: Option<String>) {
        self.attempted += 1;
        if let Some(e) = err {
            self.fail(e);
        }
    }

    /// Counts a failure of an operation already counted as attempted.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.layer.insert(name, value);
    }
}

/// How one run is configured from the command line.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl RunConfig {
    /// Length of each measured phase: the whole run untraced, or half
    /// untraced and half traced, so the traced run measures its own
    /// tracing overhead.
    pub fn phase_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// Tracing overhead in percent: the traced phase's median against the
/// untraced phase's.
pub fn overhead_pct(traced_p50: f64, untraced_p50: f64) -> f64 {
    100.0 * (traced_p50 / untraced_p50 - 1.0)
}
