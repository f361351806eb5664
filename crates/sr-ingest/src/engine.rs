//! The ingestion engine: accumulate → collapse → patch scan inputs →
//! re-partition incrementally → republish (`docs/INGESTION.md` §4–§6).
//!
//! - **Per batch** ([`IngestEngine::apply_batch`]): points fold into the
//!   [`CellAccumulators`], collapsed values land in the grid, and the
//!   [`ScanCache`] patches the driver's scan inputs over the dirty cells.
//!   The dirty cells are remembered for the next re-partition.
//! - **On demand** ([`IngestEngine::repartition`]): the driver runs its
//!   localized threshold walk over the patched scan inputs
//!   ([`Repartitioner::run_localized`]), at a cost that follows the dirty
//!   region — bit-identical to a from-scratch run on the accumulated data.
//!
//! [`IngestEngine::publish`] then writes the accepted result as a v2
//! snapshot through the same atomic temp-file + rename path the serving
//! tier's [`SnapshotCache`] reload contract expects.
//!
//! [`SnapshotCache`]: sr_serve::SnapshotCache

use crate::binning::{CellAccumulators, IngestSchema};
use crate::stream::PointChunk;
use crate::{IngestError, Result};
use sr_core::incremental::{ScanCache, ScanUpdate};
use sr_core::localized::LocalizedState;
use sr_core::repartition::{
    IterationStrategy, RepartitionConfig, RepartitionOutcome, Repartitioner,
};
use sr_grid::{Bounds, CellId, GridDataset, IflOptions};
use sr_serve::{save_snapshot_v2, snapshot_to_bytes_v2, Snapshot};
use std::path::Path;

/// Configuration of an [`IngestEngine`].
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Grid rows (latitude intervals).
    pub rows: usize,
    /// Grid columns (longitude intervals).
    pub cols: usize,
    /// Geographic bounds points are binned against.
    pub bounds: Bounds,
    /// Stream attribute schema.
    pub schema: IngestSchema,
    /// IFL threshold θ the re-partitions maintain.
    pub threshold: f64,
    /// Driver iteration strategy; [`IngestConfig::new`] picks the strided
    /// default for large grids, mirroring `srtool repartition`.
    pub strategy: IterationStrategy,
    /// IFL options shared by the scan cache and the driver.
    pub ifl_options: IflOptions,
}

impl IngestConfig {
    /// Defaults for an `rows × cols` grid at threshold θ: unit bounds and
    /// the strided walk above 2000 cells (the cutover `sr_core::streaming`
    /// uses too).
    pub fn new(rows: usize, cols: usize, schema: IngestSchema, threshold: f64) -> Self {
        let strategy = if rows * cols > 2_000 {
            IterationStrategy::Exponential { initial_stride: 8, growth: 1.6 }
        } else {
            IterationStrategy::EveryDistinct
        };
        IngestConfig {
            rows,
            cols,
            bounds: Bounds::unit(),
            schema,
            threshold,
            strategy,
            ifl_options: IflOptions::default(),
        }
    }

    /// Replaces the bounds.
    pub fn with_bounds(mut self, bounds: Bounds) -> Self {
        self.bounds = bounds;
        self
    }

    /// Replaces the iteration strategy.
    pub fn with_strategy(mut self, strategy: IterationStrategy) -> Self {
        self.strategy = strategy;
        self
    }
}

/// What one [`IngestEngine::apply_batch`] call did.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchReport {
    /// Points binned from the chunk.
    pub points: usize,
    /// Distinct cells the batch touched.
    pub dirty_cells: usize,
    /// How the scan cache absorbed the batch (patch vs rebuild).
    pub scan: ScanUpdate,
}

/// The out-of-core ingestion and incremental re-partitioning engine.
pub struct IngestEngine {
    config: IngestConfig,
    driver: Repartitioner,
    grid: GridDataset,
    accum: CellAccumulators,
    scan: ScanCache,
    /// Localized-walk state: extraction traces, the group rectangle cache,
    /// and the warm-start θ of the last run.
    localized: LocalizedState,
    /// Dirty-cell bits accumulated since the last exact re-partition (flat
    /// cell index); the localized run consumes and clears them.
    pending_dirty: Vec<bool>,
    /// Count of set bits in `pending_dirty`.
    pending_count: usize,
    /// Last accepted exact result plus the grid state it was computed on
    /// (the grid keeps mutating afterwards; publishing needs the pair).
    last: Option<(RepartitionOutcome, GridDataset)>,
    batches: u64,
    total_points: u64,
}

impl IngestEngine {
    /// Builds an engine over an initially empty (all-null) grid.
    pub fn new(config: IngestConfig) -> Result<Self> {
        if config.rows == 0 || config.cols == 0 {
            return Err(IngestError::Config("grid must have at least one cell".into()));
        }
        let driver = Repartitioner::with_config(RepartitionConfig {
            threshold: config.threshold,
            strategy: config.strategy,
            ifl_options: config.ifl_options,
            max_iterations: usize::MAX,
        })
        .map_err(IngestError::Core)?;
        let grid = config
            .schema
            .empty_grid(config.rows, config.cols, config.bounds)
            .map_err(IngestError::Grid)?;
        let accum = CellAccumulators::new(config.rows, config.cols, &config.schema);
        let scan = ScanCache::build(&grid, config.ifl_options);
        let pending_dirty = vec![false; config.rows * config.cols];
        Ok(IngestEngine {
            config,
            driver,
            grid,
            accum,
            scan,
            localized: LocalizedState::new(),
            pending_dirty,
            pending_count: 0,
            last: None,
            batches: 0,
            total_points: 0,
        })
    }

    /// Ingests one chunk: folds its points into the accumulators, writes
    /// the dirty cells' collapsed values into the grid, patches the scan
    /// cache, and marks the cells dirty for the next re-partition. A
    /// malformed chunk ([`CellAccumulators::bin_chunk`]) is rejected with
    /// [`IngestError::Config`] and leaves the engine untouched.
    ///
    /// Emits an `ingest.batch` span with an `ingest.bin` child and bumps
    /// `ingest.batches_total` / `ingest.points_total` /
    /// `ingest.dirty_cells_total` (+ `ingest.scan_rebuilds_total` when a
    /// batch forced the scan cache to rebuild).
    pub fn apply_batch(&mut self, chunk: &PointChunk) -> Result<BatchReport> {
        let mut span = sr_obs::span("ingest.batch");
        let mut dirty: Vec<CellId> = Vec::new();
        let points = {
            let _bin = sr_obs::span("ingest.bin");
            let points = self.accum.bin_chunk(chunk, &self.config.bounds, &mut dirty)?;
            self.accum.write_into(&mut self.grid, &dirty);
            points
        };
        let scan = self.scan.update(&self.grid, &dirty);
        for &id in &dirty {
            let slot = &mut self.pending_dirty[id as usize];
            if !*slot {
                *slot = true;
                self.pending_count += 1;
            }
        }
        if scan.rebuilt_normalization {
            // Every edge variation was rescaled: recorded probe outcomes
            // and the warm θ no longer describe the edge view. The group
            // rectangle cache inside survives (raw-value based).
            self.localized.invalidate();
        }
        self.batches += 1;
        self.total_points += points as u64;
        let metrics = sr_obs::Registry::global();
        metrics.counter("ingest.batches_total").inc();
        metrics.counter("ingest.points_total").add(points as u64);
        metrics.counter("ingest.dirty_cells_total").add(dirty.len() as u64);
        if scan.rebuilt_normalization {
            metrics.counter("ingest.scan_rebuilds_total").inc();
        }
        span.record("points", points);
        span.record("dirty_cells", dirty.len());
        span.record("edges_recomputed", scan.edges_recomputed);
        Ok(BatchReport { points, dirty_cells: dirty.len(), scan })
    }

    /// Runs the exact incremental re-partition over the maintained scan
    /// inputs. The run is *localized* ([`Repartitioner::run_localized`]):
    /// extraction replays the previous run's traces outside the dirty
    /// region, unchanged groups are served from the rectangle cache, and
    /// the threshold walk warm-starts from the last accepted θ — still
    /// bit-identical to a from-scratch driver run on the accumulated grid
    /// (the convergence guarantee of `docs/INGESTION.md` §5,
    /// property-tested at the root).
    ///
    /// Emits an `ingest.repartition` span (the driver's `repartition.run`
    /// tree nests beneath it) and bumps `ingest.repartitions_total` and
    /// `ingest.localized_runs_total` (+ `ingest.localized_fallbacks_total`
    /// when the run walked cold or missed its warm window).
    pub fn repartition(&mut self) -> Result<&RepartitionOutcome> {
        self.repartition_with(sr_par::Pool::global())
    }

    /// [`IngestEngine::repartition`] on an explicit pool.
    pub fn repartition_with(&mut self, pool: &sr_par::Pool) -> Result<&RepartitionOutcome> {
        let mut span = sr_obs::span("ingest.repartition");
        let dirty: Vec<CellId> = self
            .pending_dirty
            .iter()
            .enumerate()
            .filter_map(|(i, &d)| d.then_some(i as CellId))
            .collect();
        let outcome = self
            .driver
            .run_localized(&self.grid, &self.scan, &mut self.localized, &dirty, pool)
            .map_err(IngestError::Core)?;
        self.pending_dirty.iter_mut().for_each(|d| *d = false);
        self.pending_count = 0;
        span.record("groups", outcome.repartitioned.num_groups());
        span.record("ifl", outcome.repartitioned.ifl());
        span.record("dirty_cells", dirty.len());
        let metrics = sr_obs::Registry::global();
        metrics.counter("ingest.repartitions_total").inc();
        metrics.counter("ingest.localized_runs_total").inc();
        if self.localized.last_run_was_fallback() {
            metrics.counter("ingest.localized_fallbacks_total").inc();
        }
        self.last = Some((outcome, self.grid.clone()));
        Ok(&self.last.as_ref().unwrap().0)
    }

    /// Publishes the last re-partition as a v2 snapshot at `path` —
    /// written to a temp file, fsynced, and atomically renamed, so a
    /// serving [`sr_serve::SnapshotCache`] polling the path either keeps
    /// the old bytes or sees the new ones, never a torn file.
    ///
    /// Emits an `ingest.publish` span and bumps `ingest.publishes_total`,
    /// or `ingest.publish_failures_total` when the build/write fails (the
    /// previous snapshot on disk stays intact either way).
    pub fn publish(&self, path: impl AsRef<Path>) -> Result<()> {
        let mut span = sr_obs::span("ingest.publish");
        let result = self.build_snapshot().and_then(|snapshot| {
            save_snapshot_v2(&snapshot, path.as_ref()).map_err(IngestError::Serve)
        });
        let metrics = sr_obs::Registry::global();
        match &result {
            Ok(()) => {
                metrics.counter("ingest.publishes_total").inc();
                span.record("ok", 1usize);
            }
            Err(_) => {
                metrics.counter("ingest.publish_failures_total").inc();
                span.record("ok", 0usize);
            }
        }
        result
    }

    /// The last re-partition serialized to v2 snapshot bytes without
    /// touching disk — what [`IngestEngine::publish`] would write. The
    /// convergence property tests compare these bytes against a batch
    /// pipeline's.
    pub fn snapshot_bytes(&self) -> Result<Vec<u8>> {
        self.build_snapshot().map(|s| snapshot_to_bytes_v2(&s))
    }

    fn build_snapshot(&self) -> Result<Snapshot> {
        let (outcome, grid_at) = self
            .last
            .as_ref()
            .ok_or_else(|| IngestError::Config("nothing to publish: no re-partition yet".into()))?;
        Snapshot::build(&outcome.repartitioned, grid_at, self.config.threshold)
            .map_err(IngestError::Serve)
    }

    /// The accumulated grid (collapsed values of every touched cell).
    pub fn grid(&self) -> &GridDataset {
        &self.grid
    }

    /// The last exact re-partition outcome.
    pub fn last_outcome(&self) -> Option<&RepartitionOutcome> {
        self.last.as_ref().map(|(o, _)| o)
    }

    /// The warm θ the *next* [`IngestEngine::repartition`] would hand the
    /// driver's threshold walk, given the currently pending dirty cells —
    /// `None` when that run would walk cold (first run, normalization
    /// rebuild since the last run, or an oversized dirty region). A batch
    /// pipeline reproduces the next repartition bit-for-bit by passing
    /// this to [`Repartitioner::run_with_pool_warm`]; the convergence
    /// property tests do exactly that.
    pub fn planned_warm_hint(&self) -> Option<f64> {
        self.localized.planned_hint(self.pending_count, self.grid.num_cells())
    }

    /// Distinct cells dirtied since the last exact re-partition.
    pub fn pending_dirty_cells(&self) -> usize {
        self.pending_count
    }

    /// The localized-walk state (fallback / reuse
    /// telemetry of the last run).
    pub fn localized(&self) -> &LocalizedState {
        &self.localized
    }

    /// Batches ingested so far.
    pub fn num_batches(&self) -> u64 {
        self.batches
    }

    /// Points binned so far.
    pub fn total_points(&self) -> u64 {
        self.total_points
    }

    /// The engine's configuration.
    pub fn config(&self) -> &IngestConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(rows: usize, cols: usize) -> IngestEngine {
        let schema = IngestSchema::parse("v:mean,n:count").unwrap();
        IngestEngine::new(IngestConfig::new(rows, cols, schema, 0.1)).unwrap()
    }

    fn chunk(points: &[(f64, f64, f64)]) -> PointChunk {
        let mut c = PointChunk::with_capacity(points.len(), 2);
        for &(x, y, v) in points {
            c.push(x, y, &[v, 1.0]);
        }
        c
    }

    #[test]
    fn batches_accumulate_and_repartition() {
        let mut e = engine(4, 4);
        let report =
            e.apply_batch(&chunk(&[(0.1, 0.1, 5.0), (0.15, 0.12, 7.0), (0.9, 0.9, 3.0)])).unwrap();
        assert_eq!(report.points, 3);
        assert_eq!(report.dirty_cells, 2);
        assert!(e.grid().is_valid(0));
        assert_eq!(e.grid().value(0, 0), 6.0); // mean(5, 7)
        assert_eq!(e.grid().value(0, 1), 2.0); // count
        let outcome = e.repartition().unwrap();
        assert!(outcome.repartitioned.ifl() <= 0.1);
    }

    #[test]
    fn publish_before_repartition_is_an_error() {
        let e = engine(3, 3);
        assert!(matches!(e.publish("/nonexistent/x.snap"), Err(IngestError::Config(_))));
        assert!(e.snapshot_bytes().is_err());
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        let mut e = engine(3, 3);
        let bad = PointChunk::with_capacity(0, 3);
        assert!(matches!(e.apply_batch(&bad), Err(IngestError::Config(_))));
    }
}
