//! `ingest_fresh`: writes beside reads, the cycle stream → bin →
//! localized re-partition → v2 publish → server reload → first answer.
//!
//! An `IngestEngine` on 320×320 is seeded from a realistic field (a taxi
//! pickup grid, one point per valid cell). Each timed cycle hands one
//! batch of binary frames to a `StreamReader`; the batch re-observes about
//! 1% of the valid cells of the same field with small multiplicative
//! noise, which keeps the stream stationary (tens of thousands of groups,
//! all of them long-lived). Values are not clamped below the field
//! maximum, so the scan-rebuild path stays live and its share is reported.
//! After `apply_batch` → `repartition` → `publish`, the cycle polls
//! `/point` on a dirty probe cell until the answer equals the new
//! outcome's value for that cell (and differs from the previous one).
//!
//! Beside the cycles, one open-loop sender issues `/point` (80%) and
//! `/knn` (20%) at a fixed rate and times each request from when it was
//! due, so a write-path change that costs readers (a bigger snapshot, a
//! slower reload on the request thread, CPU taken from workers) shows.

use crate::http;
use crate::query::{Kind, Query, Server};
use crate::report::{overhead_pct, Report, RunConfig};
use crate::trace::{Fold, Tracer};
use crate::util::{median, ms, quantile, timed, us, Rng, RunDir};
use sr_core::{IterationStrategy, RepartitionConfig, Repartitioned, Repartitioner};
use sr_datasets::{Dataset, GridSize};
use sr_grid::{AggType, CellId, GridDataset};
use sr_ingest::{
    write_binary_point, IngestConfig, IngestEngine, IngestSchema, PointChunk, StreamReader,
};
use sr_obs::span;
use sr_serve::{load_engine, snapshot_to_bytes_v2, Snapshot};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const ROWS: usize = 320;
const COLS: usize = 320;
const THETA: f64 = 0.05;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Untimed cycles before measuring: the first cycles after seeding run
/// cheaper while the stream's re-observations spread over the grid.
const WARMUP_CYCLES: usize = 40;
/// The dataset seed of the observed field. The workload seed drives the
/// stream (backfill noise, which cells each batch re-observes, the noise
/// on them) and the reader's query locations; the field stays fixed,
/// like the snapshot of `query_mix`, so runs differ by stream only.
const FIELD_SEED: u64 = 1;
/// Observations of every valid cell fed before the first re-partition.
/// With a mean per cell, a new observation moves a cell by about
/// `NOISE / observations`; a backfilled history keeps that step nearly
/// constant over a run, so the stream stays stationary.
const BACKFILL_ROUNDS: usize = 10;
/// Share of valid cells one batch re-observes.
const BATCH_SHARE: f64 = 0.01;
/// Relative half-width of the multiplicative noise on re-observations.
const NOISE: f64 = 0.05;
/// Background reader rate, requests per second.
const READER_RATE: f64 = 200.0;
/// Reader mix: `/point` share, the rest `/knn`.
const READER_POINT_SHARE: f64 = 0.8;
/// A cycle whose new data is not served within this long has failed.
const FRESH_TIMEOUT: Duration = Duration::from_secs(5);
/// Bytes per binary frame of one point with one attribute.
const FRAME_BYTES: usize = 2 + 3 * 8;
const ROOT: &str = "bench.ingest.cycle";

/// The field the stream observes: a taxi pickup grid and its valid cells.
struct Field {
    grid: GridDataset,
    valid: Vec<CellId>,
}

impl Field {
    fn new(seed: u64) -> Field {
        let grid = Dataset::TaxiUnivariate.generate(GridSize::Custom(ROWS, COLS), seed);
        let valid = grid.valid_cells().collect();
        Field { grid, valid }
    }

    /// One noisy observation of the field in `cell`.
    fn observe(&self, out: &mut Vec<u8>, cell: CellId, rng: &mut Rng) {
        let noise = 1.0 + NOISE * (2.0 * rng.frac() - 1.0);
        let (lat, lon) = self.grid.cell_centroid(cell);
        let value = self.grid.value(cell, 0) * noise;
        write_binary_point(out, lon, lat, &[value]).expect("writing to a Vec cannot fail");
    }

    /// One backfill round: an observation of every valid cell.
    fn seed_frames(&self, rng: &mut Rng) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.valid.len() * FRAME_BYTES);
        for &cell in &self.valid {
            self.observe(&mut out, cell, rng);
        }
        out
    }

    /// One batch: about 1% of the valid cells re-observed.
    fn batch_frames(&self, rng: &mut Rng) -> (Vec<u8>, Vec<CellId>) {
        let n = (self.valid.len() as f64 * BATCH_SHARE).round() as usize;
        let mut out = Vec::with_capacity(n * FRAME_BYTES);
        let mut cells = Vec::with_capacity(n);
        for _ in 0..n {
            let cell = self.valid[rng.below(self.valid.len())];
            self.observe(&mut out, cell, rng);
            cells.push(cell);
        }
        (out, cells)
    }
}

/// Parses a batch of frames the way a stream consumer would.
fn parse_frames(frames: &[u8]) -> Result<(PointChunk, u64), String> {
    let mut reader = StreamReader::binary(std::io::Cursor::new(frames), 1);
    let mut chunk = PointChunk::with_capacity(frames.len() / FRAME_BYTES, 1);
    reader.next_chunk(usize::MAX, &mut chunk).map_err(|e| format!("read: {e}"))?;
    Ok((chunk, reader.malformed_lines()))
}

/// The value the server must answer for `cell` once `rep` (computed on
/// `grid`) is published: the cell's group representative.
fn served_value(rep: &Repartitioned, grid: &GridDataset, cell: CellId) -> Option<Vec<f64>> {
    if !grid.is_valid(cell) {
        return None;
    }
    let g = rep.partition().group_of(cell);
    let feature = rep.group_feature(g)?;
    let aggs = grid.agg_types();
    let members = if aggs.contains(&AggType::Sum) {
        rep.partition().cells_iter(g).filter(|&c| grid.is_valid(c)).count()
    } else {
        1
    };
    Some(feature.iter().zip(aggs).map(|(&v, &a)| sr_core::representative(v, a, members)).collect())
}

fn new_engine(field: &Field) -> Result<IngestEngine, String> {
    let schema = IngestSchema::parse("pickups:mean").expect("valid schema");
    let config = IngestConfig::new(ROWS, COLS, schema, THETA)
        .with_bounds(field.grid.bounds())
        .with_strategy(IterationStrategy::Exponential { initial_stride: 8, growth: 1.6 });
    IngestEngine::new(config).map_err(|e| format!("engine: {e}"))
}

/// Everything one measured cycle reports.
struct Cycle {
    fresh: Duration,
    read: Duration,
    apply: Duration,
    repartition: Duration,
    publish: Duration,
    first_answer: Duration,
    /// Publish returned → first answer with the new data.
    reload_window: (Instant, Instant),
    dirty_cells: usize,
    scan_rebuild: bool,
    fallback: bool,
    reused_groups: u64,
    groups: usize,
    iterations: usize,
    malformed: u64,
}

/// The write side: engine, served file and the server reading it.
struct Writer<'a> {
    field: &'a Field,
    engine: IngestEngine,
    path: &'a Path,
    server: Server,
}

impl Writer<'_> {
    /// One cycle. The batch and the values the server answers before it
    /// are prepared untimed; the clock starts when the batch is handed to
    /// the reader and stops at the first HTTP answer that contains it.
    fn cycle(&mut self, rng: &mut Rng) -> Result<Cycle, String> {
        let (frames, cells) = self.field.batch_frames(rng);
        let before: Vec<Option<Vec<f64>>> = {
            let rep = &self.engine.last_outcome().ok_or("engine not seeded")?.repartitioned;
            cells.iter().map(|&c| served_value(rep, self.engine.grid(), c)).collect()
        };
        let _cycle = span(ROOT);
        let start = Instant::now();
        let (parsed, read) = timed(|| {
            let _s = span("bench.ingest.read");
            parse_frames(&frames)
        });
        let (chunk, malformed) = parsed?;
        let (batch, apply) = timed(|| {
            let _s = span("bench.ingest.apply");
            self.engine.apply_batch(&chunk)
        });
        let batch = batch.map_err(|e| format!("apply: {e}"))?;
        let (outcome, repartition) = timed(|| {
            let _s = span("bench.ingest.repartition");
            self.engine.repartition().map(|o| (o.repartitioned.num_groups(), o.iterations.len()))
        });
        let (groups, iterations) = outcome.map_err(|e| format!("repartition: {e}"))?;
        let (published, publish) = timed(|| {
            let _s = span("bench.ingest.publish");
            self.engine.publish(self.path)
        });
        published.map_err(|e| format!("publish: {e}"))?;
        let published_at = Instant::now();
        let first_answer = {
            let _s = span("bench.serve.first_answer");
            self.await_fresh(&cells, &before)?
        };
        let done = Instant::now();
        let localized = self.engine.localized();
        Ok(Cycle {
            fresh: done - start,
            read,
            apply,
            repartition,
            publish,
            first_answer,
            reload_window: (published_at, done),
            dirty_cells: batch.dirty_cells,
            scan_rebuild: batch.scan.rebuilt_normalization,
            fallback: localized.last_run_was_fallback(),
            reused_groups: localized.last_reused_groups(),
            groups,
            iterations,
            malformed,
        })
    }

    /// Polls `/point` on a dirty probe cell whose served value changes
    /// until the server answers the new value. An answer that is neither
    /// the old nor the new value is wrong.
    fn await_fresh(
        &self,
        cells: &[CellId],
        before: &[Option<Vec<f64>>],
    ) -> Result<Duration, String> {
        let start = Instant::now();
        let rep = &self.engine.last_outcome().ok_or("engine not seeded")?.repartitioned;
        let grid = self.engine.grid();
        let probe = cells
            .iter()
            .zip(before)
            .map(|(&c, old)| (c, old, served_value(rep, grid, c)))
            .find(|(_, old, new)| *old != new)
            .ok_or("no dirty cell changed its served value")?;
        let (cell, old, new) = probe;
        let (lat, lon) = grid.cell_centroid(cell);
        let target = Query::point(lat, lon).target;
        loop {
            let r = http::get(self.server.addr(), &target).map_err(|e| format!("probe: {e}"))?;
            if r.status != 200 || r.stale {
                return Err(format!("probe: status {} stale {}", r.status, r.stale));
            }
            let got = http::Json::parse(&r.body)
                .and_then(|j| j.get("values").and_then(http::Json::nums))
                .ok_or_else(|| format!("probe: unreadable answer {}", r.body))?;
            let is = |v: &Option<Vec<f64>>| v.as_ref().is_some_and(|v| http::same_values(&got, v));
            if is(&new) {
                return Ok(start.elapsed());
            }
            if !is(old) {
                return Err(format!("probe cell {cell}: answer {got:?} is neither old nor new"));
            }
            if start.elapsed() > FRESH_TIMEOUT {
                return Err(format!(
                    "probe cell {cell}: new value not served within {FRESH_TIMEOUT:?}"
                ));
            }
        }
    }
}

/// One background request: when it was due, sent and answered.
struct Read {
    kind: Kind,
    due: Instant,
    sent: Instant,
    done: Instant,
}

/// The open-loop reader: requests due every `1 / READER_RATE` seconds,
/// sent when due (or as soon as the previous one returns, if late).
fn reader(addr: SocketAddr, queries: &[Query], stop: &AtomicBool) -> (Vec<Read>, Vec<String>) {
    let mut reads = Vec::new();
    let mut errors = Vec::new();
    let start = Instant::now();
    let interval = Duration::from_secs_f64(1.0 / READER_RATE);
    for i in 0.. {
        let due = start + interval * i as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let q = &queries[i % queries.len()];
        let sent = Instant::now();
        let resp = {
            let _s = span("bench.mixed.request");
            http::get(addr, &q.target)
        };
        let done = Instant::now();
        match resp {
            Ok(r) if r.status == 200 && !r.stale => {
                reads.push(Read { kind: q.kind, due, sent, done })
            }
            Ok(r) => errors.push(format!("{} -> status {} stale {}", q.target, r.status, r.stale)),
            Err(e) => errors.push(format!("{} -> {e}", q.target)),
        }
    }
    (reads, errors)
}

struct Phase {
    cycles: Vec<Cycle>,
    reads: Vec<Read>,
    load_ms: Vec<f64>,
    wall: Duration,
}

fn phase(
    w: &mut Writer,
    rng: &mut Rng,
    queries: &[Query],
    seconds: f64,
    time_loads: bool,
    report: &mut Report,
) -> Phase {
    let stop = AtomicBool::new(false);
    let addr = w.server.addr();
    let mut cycles = Vec::new();
    let mut load_ms = Vec::new();
    let start = Instant::now();
    let (reads, errors) = std::thread::scope(|s| {
        let bg = s.spawn(|| reader(addr, queries, &stop));
        while start.elapsed().as_secs_f64() < seconds {
            match w.cycle(rng) {
                Ok(c) => {
                    report.record(None);
                    cycles.push(c);
                }
                Err(e) => report.record(Some(e)),
            }
            if time_loads {
                load_ms.push(ms(timed(|| load_engine(w.path)).1));
            }
        }
        stop.store(true, Ordering::Relaxed);
        bg.join().expect("reader thread panicked")
    });
    let wall = start.elapsed();
    report.attempted += reads.len() as u64;
    for e in errors {
        report.record(Some(e));
    }
    Phase { cycles, reads, load_ms, wall }
}

impl Phase {
    fn fresh_ms(&self) -> Vec<f64> {
        self.cycles.iter().map(|c| ms(c.fresh)).collect()
    }

    fn of(&self, f: impl Fn(&Cycle) -> f64) -> Vec<f64> {
        self.cycles.iter().map(f).collect()
    }

    /// Reader latency from the due time, µs.
    fn mixed_us(&self) -> Vec<f64> {
        self.reads.iter().map(|r| us(r.done - r.due)).collect()
    }

    /// Share of reader requests in flight while a publish was waiting for
    /// its first answer: the ones that can pay a snapshot reload.
    fn reload_hit_share(&self) -> f64 {
        let windows: Vec<(Instant, Instant)> =
            self.cycles.iter().map(|c| c.reload_window).collect();
        let hits = self
            .reads
            .iter()
            .filter(|r| {
                let i = windows.partition_point(|w| w.1 < r.sent);
                windows.get(i).is_some_and(|w| w.0 <= r.done)
            })
            .count();
        hits as f64 / self.reads.len().max(1) as f64
    }
}

pub fn run(cfg: RunConfig) -> Result<Report, String> {
    let mut report = Report::default();
    let mut rng = Rng::new(cfg.seed);
    let dir = RunDir::new("ingest_fresh").map_err(|e| format!("scratch dir: {e}"))?;

    let ((field, backfill, queries), gen) = timed(|| {
        let field = Field::new(FIELD_SEED);
        let backfill: Vec<Vec<u8>> =
            (0..BACKFILL_ROUNDS).map(|_| field.seed_frames(&mut rng)).collect();
        let b = field.grid.bounds();
        let queries: Vec<Query> =
            (0..10_000).map(|_| Query::random(&mut rng, &b, [READER_POINT_SHARE, 1.0])).collect();
        (field, backfill, queries)
    });

    // Set-up: backfill, first cold re-partition, first publish, server
    // start and its first answer, several times; the last one is kept.
    let mut setups = Vec::new();
    let mut kept = None;
    for i in 0..SETUPS {
        drop(kept.take());
        let path = dir.path(&format!("fresh-{i}.snap"));
        let start = Instant::now();
        let (engine, server) = (|| -> Result<(IngestEngine, Server), String> {
            let mut engine = new_engine(&field)?;
            for frames in &backfill {
                let (chunk, _) = parse_frames(frames)?;
                engine.apply_batch(&chunk).map_err(|e| format!("backfill: {e}"))?;
            }
            engine.repartition().map_err(|e| format!("cold re-partition: {e}"))?;
            engine.publish(&path).map_err(|e| format!("publish: {e}"))?;
            let server = Server::start(&path, THETA)?;
            let probe = Query::point(field.grid.bounds().lat_min, field.grid.bounds().lon_min);
            let r = http::get(server.addr(), &probe.target)
                .map_err(|e| format!("first answer: {e}"))?;
            if r.status != 200 {
                return Err(format!("first answer: status {}", r.status));
            }
            Ok((engine, server))
        })()?;
        setups.push(start.elapsed().as_secs_f64());
        kept = Some((engine, server, path));
    }
    let (engine, server, path) = kept.expect("at least one set-up");
    let mut w = Writer { field: &field, engine, path: &path, server };

    let mut baseline = None;
    for _ in 0..WARMUP_CYCLES {
        let c = w.cycle(&mut rng);
        if let Ok(c) = &c {
            baseline = Some((c.groups, c.iterations));
        }
        report.record(c.err());
    }

    let untraced = phase(&mut w, &mut rng, &queries, cfg.phase_seconds(), false, &mut report);
    let fresh = untraced.fresh_ms();
    let mixed = untraced.mixed_us();
    let (p50, p90) = (median(&fresh), quantile(&fresh, 0.9));
    report.e2e.insert("setup_s", median(&setups));
    report.e2e.insert("op_ms.p50", p50);
    report.e2e.insert("op_ms.tail", p90);
    report.named = vec![
        ("fresh_ms.p50", p50, "ms"),
        ("fresh_ms.p90", p90, "ms"),
        ("cycles_per_s", fresh.len() as f64 / untraced.wall.as_secs_f64(), "1/s"),
        ("mixed_query_us.p50", median(&mixed), "us"),
        ("mixed_query_us.p99", quantile(&mixed, 0.99), "us"),
        ("cycles", fresh.len() as f64, "count"),
        ("mixed_queries", mixed.len() as f64, "count"),
    ];

    let traced = if cfg.trace {
        let tracer = Tracer::start();
        let traced = phase(&mut w, &mut rng, &queries, cfg.phase_seconds(), true, &mut report);
        let records = tracer.finish();
        let fold = Fold::new(&records);
        crate::finish_trace(&mut report, "ingest_fresh", &records, &fold, ROOT)?;
        for name in crate::CORE_SPANS {
            report.set(crate::span_metric(name), fold.self_ms_per_op(ROOT, name));
        }
        let handle: Vec<f64> = records
            .iter()
            .filter(|r| matches!(r.name, "serve.point" | "serve.knn"))
            .map(|r| us(r.duration))
            .collect();
        Some((traced, handle))
    } else {
        None
    };

    // Untimed end checks: the engine's next result equals the hinted batch
    // walk on the accumulated grid (docs/INGESTION.md, "Bit-identity
    // contract"), and the reader never saw a stale snapshot.
    report.record(bit_identity(&mut w, &mut rng).err());
    w.server.check_cache(&mut report);
    let malformed: u64 = untraced.cycles.iter().map(|c| c.malformed).sum();
    report.record((malformed > 0).then(|| format!("{malformed} malformed frames")));

    if let Some((traced, handle)) = traced {
        let (groups, iterations) = baseline.ok_or("no warm-up cycle succeeded")?;
        report.set("core.groups", groups as f64);
        report.set("core.walk_iterations", iterations as f64);
        let both: Vec<&Cycle> = untraced.cycles.iter().chain(&traced.cycles).collect();
        let n = both.len().max(1) as f64;
        report.set(
            "core.localized_fallback_ratio",
            both.iter().filter(|c| c.fallback).count() as f64 / n,
        );
        // Rectangle-cache hits per group evaluation: each threshold the
        // walk tries scores every group once.
        report.set(
            "core.localized_reuse_ratio",
            both.iter().map(|c| c.reused_groups as f64).sum::<f64>()
                / both.iter().map(|c| (c.groups * c.iterations) as f64).sum::<f64>().max(1.0),
        );
        report.set(
            "ingest.scan_rebuild_ratio",
            both.iter().filter(|c| c.scan_rebuild).count() as f64 / n,
        );
        report.set("ingest.read_ms", median(&traced.of(|c| ms(c.read))));
        report.set("ingest.apply_ms", median(&traced.of(|c| ms(c.apply))));
        report.set("ingest.repartition_ms", median(&traced.of(|c| ms(c.repartition))));
        report.set("ingest.publish_ms", median(&traced.of(|c| ms(c.publish))));
        report.set("ingest.dirty_cells", median(&traced.of(|c| c.dirty_cells as f64)));
        report.set("ingest.malformed_frames", malformed as f64);
        report.set("serve.first_answer_ms", median(&traced.of(|c| ms(c.first_answer))));
        report.set("serve.load_engine_ms", median(&traced.load_ms));
        report
            .set("serve.snapshot_bytes", std::fs::metadata(&path).map_or(0.0, |m| m.len() as f64));
        let by_kind = |k: Kind| -> Vec<f64> {
            traced.reads.iter().filter(|r| r.kind == k).map(|r| us(r.done - r.sent)).collect()
        };
        let client: Vec<f64> = traced.reads.iter().map(|r| us(r.done - r.sent)).collect();
        report.set("query.point_us.p50", median(&by_kind(Kind::Point)));
        report.set("query.knn_us.p50", median(&by_kind(Kind::Knn)));
        crate::query::request_path(&mut report, &client, &handle);
        let reads = untraced.reads.len().max(1) as f64;
        report.set(
            "mix.point_share",
            untraced.reads.iter().filter(|r| r.kind == Kind::Point).count() as f64 / reads,
        );
        report.set(
            "mix.knn_share",
            untraced.reads.iter().filter(|r| r.kind == Kind::Knn).count() as f64 / reads,
        );
        report.set("mixed_query_us.p50", median(&mixed));
        report.set("mixed_query_us.p99", quantile(&mixed, 0.99));
        report.set("mixed.reload_hit_share", untraced.reload_hit_share());
        let late: Vec<f64> = untraced.reads.iter().map(|r| ms(r.sent - r.due)).collect();
        report.set("gen.late_ms.p99", quantile(&late, 0.99));
        report.set("gen.inputs_s", gen.as_secs_f64());
        report.set("serve.shed_total", w.server.shed_total() as f64);
        report.set("serve.cache.reloads", w.server.cache.reloads() as f64);
        report.set("serve.cache.stale_serves", w.server.cache.stale_serves() as f64);
        report.set("serve.cache.reload_failures", w.server.cache.reload_failures() as f64);
        report.set("obs.trace_overhead_pct", overhead_pct(median(&traced.fresh_ms()), p50));
    }
    Ok(report)
}

/// Feeds one more batch, then checks the engine's re-partition against
/// the hinted batch walk on the same accumulated grid: the v2 snapshot
/// bytes must be identical.
fn bit_identity(w: &mut Writer, rng: &mut Rng) -> Result<(), String> {
    let (frames, _) = w.field.batch_frames(rng);
    let (chunk, _) = parse_frames(&frames)?;
    w.engine.apply_batch(&chunk).map_err(|e| format!("apply: {e}"))?;
    let hint = w.engine.planned_warm_hint();
    w.engine.repartition().map_err(|e| format!("repartition: {e}"))?;
    let engine_bytes = w.engine.snapshot_bytes().map_err(|e| format!("snapshot: {e}"))?;
    let engine_cfg = w.engine.config();
    let cfg = RepartitionConfig {
        threshold: engine_cfg.threshold,
        strategy: engine_cfg.strategy,
        ifl_options: engine_cfg.ifl_options,
        max_iterations: usize::MAX,
    };
    let driver = Repartitioner::with_config(cfg).map_err(|e| format!("driver: {e}"))?;
    let grid = w.engine.grid();
    let reference = driver
        .run_with_pool_warm(grid, sr_par::Pool::global(), hint)
        .map_err(|e| format!("batch walk: {e}"))?;
    let snapshot = Snapshot::build(&reference.repartitioned, grid, THETA)
        .map_err(|e| format!("snapshot: {e}"))?;
    if snapshot_to_bytes_v2(&snapshot) != engine_bytes {
        return Err("engine result differs from the hinted batch walk".into());
    }
    Ok(())
}
