//! `batch_publish`: cold batch jobs, the paper's own use and what
//! `srtool snapshot` does. Each job takes a 315×318 taxi grid in hand,
//! re-partitions it (θ = 0.05, the strided walk srtool picks above 5k
//! cells), builds the serving snapshot and saves it as v2, renamed into
//! place. Every cell is dirty, so the sr-grid scans and the sr-core walk
//! do almost all the work; no HTTP runs and no localized replay happens.
//! One dataset only: home-sales jobs cost about twice as much as taxi
//! jobs, and a mixed stream would give a median that jumps between modes.

use crate::report::{overhead_pct, Report, RunConfig};
use crate::trace::{Fold, Tracer};
use crate::util::{median, ms, quantile, timed, Rng, RunDir};
use sr_core::{IterationStrategy, RepartitionConfig, RepartitionOutcome, Repartitioner};
use sr_datasets::{Dataset, GridSize};
use sr_grid::GridDataset;
use sr_obs::span;
use sr_serve::{load_engine, save_snapshot_v2, snapshot_to_bytes_v2, Snapshot};
use std::path::Path;
use std::time::{Duration, Instant};

pub const THETA: f64 = 0.05;
/// Distinct grids the jobs cycle through, all generated before timing.
const GRIDS: usize = 8;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Jobs keep getting faster for a few seconds after the set-up jobs
/// (allocator and page-cache warm-up), so they run untimed first.
const WARMUP_S: f64 = 4.0;
/// Cells per job whose served answer is checked against reconstruction.
const SAMPLED_CELLS: usize = 32;
const ROOT: &str = "bench.batch.job";

/// The driver `srtool` uses for grids above 5k cells.
pub fn driver() -> Repartitioner {
    let cfg = RepartitionConfig::new(THETA)
        .expect("valid threshold")
        .with_strategy(IterationStrategy::Exponential { initial_stride: 8, growth: 1.6 });
    Repartitioner::with_config(cfg).expect("valid strategy")
}

pub fn grid(seed: u64) -> GridDataset {
    Dataset::TaxiMultivariate.generate(GridSize::Cells100k, seed)
}

/// Where one job's time went.
pub struct JobTimes {
    pub total: Duration,
    pub run: Duration,
    pub build: Duration,
    pub save: Duration,
}

/// One job: grid in hand → snapshot file renamed into place.
pub fn publish(
    drv: &Repartitioner,
    grid: &GridDataset,
    path: &Path,
) -> Result<(RepartitionOutcome, JobTimes), String> {
    let _job = span(ROOT);
    let start = Instant::now();
    let outcome = {
        let _s = span("bench.core.run");
        drv.run(grid).map_err(|e| format!("repartition: {e}"))?
    };
    let t_run = start.elapsed();
    let snapshot = {
        let _s = span("bench.serve.snapshot_build");
        Snapshot::build(&outcome.repartitioned, grid, THETA)
            .map_err(|e| format!("snapshot build: {e}"))?
    };
    let t_build = start.elapsed();
    {
        let _s = span("bench.serve.save_v2");
        save_snapshot_v2(&snapshot, path).map_err(|e| format!("save: {e}"))?;
    }
    let total = start.elapsed();
    Ok((outcome, JobTimes { total, run: t_run, build: t_build - t_run, save: total - t_build }))
}

/// The per-job checks: IFL within θ, the partition tiles the grid, and
/// the saved file reloads and answers sampled points exactly as
/// `Repartitioned::reconstruct` does. Returns the `load_engine` time.
fn check(
    grid: &GridDataset,
    outcome: &RepartitionOutcome,
    path: &Path,
    rng: &mut Rng,
) -> Result<Duration, String> {
    let rep = &outcome.repartitioned;
    if rep.ifl().is_nan() || rep.ifl() > THETA {
        return Err(format!("IFL {} above θ {THETA}", rep.ifl()));
    }
    let part = rep.partition();
    let area: usize = part.rects().iter().map(|r| r.len()).sum();
    if area != grid.num_cells() {
        return Err(format!("group rectangles cover {area} cells, grid has {}", grid.num_cells()));
    }
    for cell in 0..grid.num_cells() {
        let (r, c) = grid.cell_pos(cell as u32);
        let g = part.group_of(cell as u32);
        if !part.rect(g).contains(r as u32, c as u32) {
            return Err(format!("cell {cell} outside its group {g}"));
        }
        if grid.is_valid(cell as u32) && rep.group_feature(g).is_none() {
            return Err(format!("valid cell {cell} in null group {g}"));
        }
    }
    let (engine, load) = timed(|| load_engine(path));
    let engine = engine.map_err(|e| format!("reload: {e}"))?;
    let recon = rep.reconstruct(grid).map_err(|e| format!("reconstruct: {e}"))?;
    for _ in 0..SAMPLED_CELLS {
        let cell = rng.below(grid.num_cells()) as u32;
        let (lat, lon) = grid.cell_centroid(cell);
        let answer = engine.point(lat, lon).ok_or_else(|| format!("cell {cell} outside"))?;
        let expect = recon.features(cell);
        let same = answer.cell == cell
            && match (&answer.values, &expect) {
                (Some(a), Some(b)) => crate::http::same_values(a, b),
                (None, None) => true,
                _ => false,
            };
        if !same {
            return Err(format!("point answer for cell {cell} differs from reconstruction"));
        }
    }
    Ok(load)
}

#[derive(Default)]
struct Phase {
    total_ms: Vec<f64>,
    run_ms: Vec<f64>,
    build_ms: Vec<f64>,
    save_ms: Vec<f64>,
    load_ms: Vec<f64>,
    bytes: Vec<f64>,
    wall: Duration,
}

fn phase(
    drv: &Repartitioner,
    grids: &[GridDataset],
    path: &Path,
    seconds: f64,
    next: &mut usize,
    rng: &mut Rng,
    report: &mut Report,
) -> Phase {
    let mut p = Phase::default();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let grid = &grids[*next % grids.len()];
        *next += 1;
        let err = match publish(drv, grid, path) {
            Ok((outcome, t)) => {
                p.total_ms.push(ms(t.total));
                p.run_ms.push(ms(t.run));
                p.build_ms.push(ms(t.build));
                p.save_ms.push(ms(t.save));
                p.bytes.push(std::fs::metadata(path).map_or(0.0, |m| m.len() as f64));
                match check(grid, &outcome, path, rng) {
                    Ok(load) => {
                        p.load_ms.push(ms(load));
                        None
                    }
                    Err(e) => Some(e),
                }
            }
            Err(e) => Some(e),
        };
        report.record(err);
    }
    p.wall = start.elapsed();
    p
}

/// Same job on the global pool and on a 1-thread pool: the snapshot
/// bytes must be identical. Returns both run times in ms.
fn t1_check(drv: &Repartitioner, grid: &GridDataset) -> Result<(f64, f64), String> {
    let pool1 = sr_par::Pool::new(1);
    let (pooled, t_pool) = timed(|| drv.run(grid));
    let (single, t_one) = timed(|| drv.run_with_pool(grid, &pool1));
    let bytes = |o: Result<RepartitionOutcome, sr_core::CoreError>| {
        let o = o.map_err(|e| format!("repartition: {e}"))?;
        Snapshot::build(&o.repartitioned, grid, THETA)
            .map(|s| snapshot_to_bytes_v2(&s))
            .map_err(|e| format!("snapshot build: {e}"))
    };
    if bytes(pooled)? != bytes(single)? {
        return Err("1-thread re-run is not bit-identical".into());
    }
    Ok((ms(t_pool), ms(t_one)))
}

pub fn run(cfg: RunConfig) -> Result<Report, String> {
    let mut report = Report::default();
    let mut rng = Rng::new(cfg.seed);
    let dir = RunDir::new("batch_publish").map_err(|e| format!("scratch dir: {e}"))?;
    let path = dir.path("job.snap");

    let (grids, gen) = timed(|| (0..GRIDS).map(|_| grid(rng.next_u64())).collect::<Vec<_>>());
    let drv = driver();

    // Set-up: the first jobs of the process, the first one cold.
    let mut setups = Vec::new();
    let mut first = None;
    for grid in &grids[..SETUPS] {
        let (job, t) = timed(|| publish(&drv, grid, &path));
        setups.push(t.as_secs_f64());
        let err = job.and_then(|(outcome, _)| {
            check(grid, &outcome, &path, &mut rng)?;
            first.get_or_insert(outcome);
            Ok(())
        });
        report.record(err.err());
    }
    let mut next = SETUPS;
    phase(&drv, &grids, &path, WARMUP_S, &mut next, &mut rng, &mut report);

    let untraced =
        phase(&drv, &grids, &path, cfg.phase_seconds(), &mut next, &mut rng, &mut report);
    let p50 = median(&untraced.total_ms);
    let p90 = quantile(&untraced.total_ms, 0.9);
    let jobs = untraced.total_ms.len() as f64;
    report.e2e.insert("setup_s", median(&setups));
    report.e2e.insert("op_ms.p50", p50);
    report.e2e.insert("op_ms.tail", p90);
    report.named = vec![
        ("batch_job_ms.p50", p50, "ms"),
        ("batch_job_ms.p90", p90, "ms"),
        ("batch_jobs", jobs, "count"),
        ("batch_jobs_per_s", jobs / untraced.wall.as_secs_f64(), "1/s"),
    ];

    // One seeded job re-run on a 1-thread pool must be bit-identical.
    let sampled = &grids[rng.below(GRIDS)];
    let mut t1 = Vec::new();
    let runs = if cfg.trace { 3 } else { 1 };
    for _ in 0..runs {
        let r = t1_check(&drv, sampled);
        if let Ok(times) = &r {
            t1.push(*times);
        }
        report.record(r.err());
    }

    if cfg.trace {
        let tracer = Tracer::start();
        let traced =
            phase(&drv, &grids, &path, cfg.phase_seconds(), &mut next, &mut rng, &mut report);
        let records = tracer.finish();
        let fold = Fold::new(&records);
        crate::finish_trace(&mut report, "batch_publish", &records, &fold, ROOT)?;
        let first = first.ok_or("no set-up job succeeded")?;
        report.set("core.repartition_ms", median(&traced.run_ms));
        report.set("core.walk_iterations", first.iterations.len() as f64);
        report.set("core.groups", first.repartitioned.num_groups() as f64);
        for name in crate::CORE_SPANS {
            report.set(crate::span_metric(name), fold.self_ms_per_op(ROOT, name));
        }
        let pool_ms: Vec<f64> = t1.iter().map(|t| t.0).collect();
        let one_ms: Vec<f64> = t1.iter().map(|t| t.1).collect();
        report.set("core.repartition_t1_ms", median(&one_ms));
        report.set("core.t1_over_pool_ratio", median(&one_ms) / median(&pool_ms));
        report.set("serve.snapshot_build_ms", median(&traced.build_ms));
        report.set("serve.save_ms", median(&traced.save_ms));
        report.set("serve.snapshot_bytes", median(&traced.bytes));
        report.set("serve.load_engine_ms", median(&traced.load_ms));
        let snap = Snapshot::build(&first.repartitioned, &grids[0], THETA)
            .map_err(|e| format!("snapshot build: {e}"))?;
        let encode: Vec<f64> =
            (0..5).map(|_| ms(timed(|| snapshot_to_bytes_v2(&snap)).1)).collect();
        report.set("serve.v2_encode_ms", median(&encode));
        report.set("gen.inputs_s", gen.as_secs_f64());
        report.set("obs.trace_overhead_pct", overhead_pct(median(&traced.total_ms), p50));
    }
    Ok(report)
}
