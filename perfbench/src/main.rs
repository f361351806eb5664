//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <batch_publish|query_mix|ingest_fresh> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Each run generates its inputs from the
//! seed, measures for `--seconds`, checks every output it can and prints,
//! as the last line of standard output, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end metrics `BENCHMARK.json` lists; with
//! `--trace 1` the run measures half untraced and half with every span
//! kept in memory, and the metrics are the per-layer ones. Lines above
//! the result name the machine, the workload's own metrics with units
//! and, when traced, the self-time table per layer; the spans themselves
//! go to `.bench_out/<workload>.spans.jsonl`.

mod batch;
mod http;
mod ingest;
mod query;
mod report;
mod trace;
mod util;

use http::Json;
use report::{Report, RunConfig};
use sr_obs::SpanRecord;
use std::fmt::Write as _;
use trace::Fold;

/// The program's own spans on the re-partition path whose self time is
/// reported, with the per-layer metric each one feeds.
pub const CORE_SPANS: [&str; 6] = [
    "repartition.run",
    "repartition.normalize",
    "repartition.variation_scan",
    "repartition.merge_loop",
    "repartition.extract",
    "repartition.score",
];

pub fn span_metric(name: &str) -> &'static str {
    match name {
        "repartition.run" => "span.repartition.run.self_ms",
        "repartition.normalize" => "span.repartition.normalize.self_ms",
        "repartition.variation_scan" => "span.repartition.variation_scan.self_ms",
        "repartition.merge_loop" => "span.repartition.merge_loop.self_ms",
        "repartition.extract" => "span.repartition.extract.self_ms",
        "repartition.score" => "span.repartition.score.self_ms",
        other => panic!("no metric for span {other}"),
    }
}

/// Writes the traced run's spans under `.bench_out/`, folds them into the
/// layer table and records the share of the blocking operation no layer
/// span explains.
pub fn finish_trace(
    report: &mut Report,
    workload: &str,
    records: &[SpanRecord],
    fold: &Fold,
    root: &str,
) -> Result<(), String> {
    let dir = util::out_dir();
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let spans = dir.join(format!("{workload}.spans.jsonl"));
    trace::write_json_lines(records, &spans).map_err(|e| format!("{}: {e}", spans.display()))?;
    report.table = fold.table(root);
    let unexplained = fold.self_ms_per_op(root, root);
    let op_ms = fold
        .by_root
        .get(root)
        .and_then(|t| t.get(root))
        .map_or(f64::NAN, |s| s.total_ns as f64 / 1e6 / s.calls.max(1) as f64);
    report.set("trace.unexplained_pct", 100.0 * unexplained / op_ms);
    report.set("trace.spans", records.len() as f64);
    Ok(())
}

/// The machine a result was measured on, as one JSON object.
fn fingerprint() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let quote = |s: &str| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""));
    format!(
        "{{\"nproc\":{},\"cpu\":{},\"rustc\":{},\"kernel\":{},\"pool_threads\":{},\"server_threads\":{}}}",
        util::nproc(),
        quote(&cpu),
        quote(env!("PERFBENCH_RUSTC")),
        quote(&kernel),
        sr_par::Pool::global().threads(),
        util::nproc()
    )
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(spec: &Json, list: &str) -> Result<Vec<(String, String)>, String> {
    spec.get(list)
        .and_then(Json::arr)
        .ok_or_else(|| format!("BENCHMARK.json has no {list} list"))?
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::str).map(str::to_string);
            field("name").zip(field("unit")).ok_or_else(|| format!("malformed {list} entry"))
        })
        .collect()
}

fn parse_args() -> Result<(String, RunConfig), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = args.iter().position(|a| a == flag).ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1).map(String::as_str).ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    let seed = value("--seed")?.parse().map_err(|_| "--seed must be an integer")?;
    let seconds: f64 = value("--seconds")?.parse().map_err(|_| "--seconds must be a number")?;
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok((workload, RunConfig { seed, seconds, trace }))
}

fn run() -> Result<(), String> {
    let (workload, cfg) = parse_args()?;
    let spec_text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let spec = Json::parse(&spec_text).ok_or("BENCHMARK.json is not valid JSON")?;
    let wanted = declared(&spec, if cfg.trace { "per_layer" } else { "end_to_end" })?;
    let mut report = match workload.as_str() {
        "batch_publish" => batch::run(cfg)?,
        "query_mix" => query::run(cfg)?,
        "ingest_fresh" => ingest::run(cfg)?,
        other => return Err(format!("unknown workload {other}")),
    };
    // One process per workload, so the high-water mark is this workload's.
    report.e2e.insert("peak_rss_mib", util::peak_rss_mib());
    report.set("error_rate", report.failed as f64 / report.attempted.max(1) as f64);

    println!("# machine {}", fingerprint());
    println!(
        "# workload {workload} seed {} seconds {} trace {}",
        cfg.seed, cfg.seconds, cfg.trace as u8
    );
    for (name, value, unit) in &report.named {
        println!("# {name} = {value} {unit}");
    }
    println!(
        "# error_rate = {} ({} failed of {} attempted)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    for f in &report.failures {
        println!("# failure: {f}");
    }
    if cfg.trace {
        for line in report.table.lines() {
            println!("# {line}");
        }
        let table = util::out_dir().join(format!("{workload}.layers.txt"));
        std::fs::write(&table, format!("{}\n{}", fingerprint(), report.table))
            .map_err(|e| format!("{}: {e}", table.display()))?;
    }

    let source = if cfg.trace { &report.layer } else { &report.e2e };
    let mut metrics = String::new();
    for (i, (name, unit)) in wanted.iter().enumerate() {
        // A layer that does not run on this workload reports 0; every
        // end-to-end metric must have been measured.
        let value = match source.get(name.as_str()) {
            Some(v) => *v,
            None if cfg.trace => 0.0,
            None => return Err(format!("{workload} did not measure {name}")),
        };
        let value = if value.is_finite() { value.to_string() } else { "null".into() };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(metrics, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    if let Some(extra) = source.keys().find(|k| !wanted.iter().any(|(n, _)| n == *k)) {
        return Err(format!("{workload} measured {extra}, which BENCHMARK.json does not list"));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed
    );
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
