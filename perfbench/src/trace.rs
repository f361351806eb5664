//! The traced run: spans kept in memory by an `sr_obs::MemoryCollector`,
//! written out as JSON lines when the run ends, and folded into a
//! self-time table per layer.
//!
//! A span's self time is its duration minus the durations of its direct
//! children. Spans nest per thread, so the spans under one operation's
//! root span (opened by the benchmark around a call into the program)
//! partition that operation's time exactly: the root's own self time is
//! the part no layer span explains.

use sr_obs::{JsonLines, MemoryCollector, SpanRecord, Subscriber};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::Arc;

/// Collects every span while alive; [`Tracer::finish`] uninstalls it.
pub struct Tracer(Arc<MemoryCollector>);

impl Tracer {
    pub fn start() -> Self {
        let collector = Arc::new(MemoryCollector::new());
        sr_obs::set_subscriber(collector.clone());
        Tracer(collector)
    }

    pub fn finish(self) -> Vec<SpanRecord> {
        sr_obs::clear_subscriber();
        self.0.records()
    }
}

/// Writes `records` in the program's own JSON-lines span schema
/// (`docs/OBSERVABILITY.md`).
pub fn write_json_lines(records: &[SpanRecord], path: &std::path::Path) -> std::io::Result<()> {
    let sink = JsonLines::new(std::io::BufWriter::new(std::fs::File::create(path)?));
    for r in records {
        sink.on_span_end(r);
    }
    sink.flush();
    Ok(())
}

/// Totals of one span name inside the trees of one root name.
#[derive(Debug, Default, Clone, Copy)]
pub struct NameStats {
    pub calls: u64,
    pub total_ns: u128,
    pub self_ns: u128,
}

/// Self-time totals per span name, grouped by the name of the root span
/// of the tree each record belongs to.
pub struct Fold {
    pub by_root: BTreeMap<&'static str, BTreeMap<&'static str, NameStats>>,
}

impl Fold {
    pub fn new(records: &[SpanRecord]) -> Self {
        let by_id: HashMap<u64, &SpanRecord> = records.iter().map(|r| (r.id, r)).collect();
        let mut child_ns: HashMap<u64, u128> = HashMap::new();
        for r in records {
            if let Some(p) = r.parent {
                *child_ns.entry(p).or_default() += r.duration.as_nanos();
            }
        }
        let root_of = |r: &SpanRecord| {
            let (mut name, mut parent) = (r.name, r.parent);
            while let Some(p) = parent.and_then(|id| by_id.get(&id)) {
                (name, parent) = (p.name, p.parent);
            }
            name
        };
        let mut by_root: BTreeMap<&'static str, BTreeMap<&'static str, NameStats>> =
            BTreeMap::new();
        for r in records {
            let total = r.duration.as_nanos();
            let stats = by_root.entry(root_of(r)).or_default().entry(r.name).or_default();
            stats.calls += 1;
            stats.total_ns += total;
            stats.self_ns += total.saturating_sub(child_ns.get(&r.id).copied().unwrap_or(0));
        }
        Fold { by_root }
    }

    /// Mean self time per root operation, in ms, of span `name` inside
    /// the trees rooted at `root` (0 when it never ran there).
    pub fn self_ms_per_op(&self, root: &str, name: &str) -> f64 {
        let Some(tree) = self.by_root.get(root) else { return 0.0 };
        let ops = tree.get(root).map_or(0, |s| s.calls).max(1);
        tree.get(name).map_or(0.0, |s| s.self_ns as f64 / 1e6 / ops as f64)
    }

    /// The layer table: for every root, each span name with its layer,
    /// calls per operation, self time per operation and share of the
    /// operation. The root's own row is the unexplained remainder.
    pub fn table(&self, blocking_root: &str) -> String {
        let mut out = String::new();
        for (root, tree) in &self.by_root {
            let ops = tree.get(root).map_or(1, |s| s.calls.max(1));
            let op_ns = tree.get(root).map_or(0, |s| s.total_ns) as f64 / ops as f64;
            let path = if *root == blocking_root { "blocking path" } else { "beside it" };
            let _ = writeln!(out, "## {root} ({path}): {ops} ops, mean {:.3} ms", op_ns / 1e6);
            let _ = writeln!(
                out,
                "{:<12} {:<34} {:>10} {:>12} {:>8}",
                "layer", "span", "calls/op", "self ms/op", "share"
            );
            let mut rows: Vec<_> = tree.iter().collect();
            rows.sort_by_key(|(_, s)| std::cmp::Reverse(s.self_ns));
            for (name, s) in rows {
                let self_per_op = s.self_ns as f64 / ops as f64;
                // A root's own row is what no span under it covers; off the
                // blocking path its children may run on other threads.
                let (layer, label) = match (name == root, *root == blocking_root) {
                    (true, true) => ("harness", format!("{name} (unexplained)")),
                    (true, false) if name.starts_with("bench.") => {
                        ("harness", format!("{name} (self)"))
                    }
                    (true, false) => (layer_of(name), format!("{name} (self)")),
                    _ => (layer_of(name), name.to_string()),
                };
                let _ = writeln!(
                    out,
                    "{:<12} {:<34} {:>10.2} {:>12.4} {:>7.1}%",
                    layer,
                    label,
                    s.calls as f64 / ops as f64,
                    self_per_op / 1e6,
                    100.0 * self_per_op / op_ns.max(1.0)
                );
            }
            out.push('\n');
        }
        out
    }
}

/// The repository module a span's time belongs to.
pub fn layer_of(name: &str) -> &'static str {
    match name {
        "repartition.normalize" | "repartition.variation_scan" => "sr-grid",
        n if n.starts_with("repartition.") || n.starts_with("streaming.") => "sr-core",
        n if n.starts_with("ingest.") => "sr-ingest",
        n if n.starts_with("serve.") => "sr-serve",
        n if n.starts_with("bench.core.") => "sr-core",
        n if n.starts_with("bench.ingest.") => "sr-ingest",
        n if n.starts_with("bench.serve.") => "sr-serve",
        _ => "harness",
    }
}
