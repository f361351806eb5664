//! Incremental maintenance of the driver's scan inputs (dirty-region
//! re-partitioning, `docs/INGESTION.md`).
//!
//! A full [`Repartitioner::run`] derives four partition-independent inputs
//! from the grid before walking thresholds: the normalized edge variations,
//! the sorted distinct variation thresholds, the valid-cell list, and the
//! Eq. 3 per-cell term cache. All four are *local* functions of cell values
//! (an edge depends on two cells; a term row on one), so after a batch of
//! cell updates they can be patched in place instead of recomputed. (The
//! threshold walk over them is localized separately, by
//! [`crate::localized`].)
//!
//! [`ScanCache`] holds these four inputs and keeps them **bit-identical**
//! to what a from-scratch run would compute on the updated grid:
//!
//! - Every recomputed edge replays the exact floating-point sequence of
//!   [`EdgeVariations::build_with`] (ascending-attribute accumulation on
//!   normalized values, one divide by `p`, validity patching), with
//!   normalization applied on the fly (`x / m` is the same operation
//!   whether the quotient is stored in a normalized plane or not).
//! - The variation heap's value multiset equals the finite edge values (a
//!   finite edge *is* a valid–valid adjacent pair, and both sides compute
//!   the pair variation with identical operations — pinned by the
//!   `sr-grid` scan-equivalence tests), so the sorted multiset is patched
//!   by removing each changed edge's old finite value and inserting its
//!   new one; thresholds are then regenerated through the *same*
//!   [`VariationHeap::into_sorted_distinct`] dedup chain the batch path
//!   uses. Equal multisets sort to bit-equal vectors, so the chain walks
//!   identical values and emits identical thresholds.
//! - Any change to a normalization denominator (`attr_max_abs`) or to the
//!   validity set falls back to rebuilding the affected structures
//!   outright: the former invalidates every edge (edges + threshold
//!   multiset are rebuilt; the cell list and term cache are kept — their
//!   rows depend on raw values and `zero_eps`, never on normalization),
//!   the latter shifts every cell position after the change (cell list +
//!   term cache are rebuilt). Each fallback recomputes exactly what
//!   [`ScanCache::build`] computes for that structure, so correctness never
//!   depends on the guards being precise — only speed does.
//!
//! Every driver entry point walks thresholds over a `ScanCache`: a batch
//! [`Repartitioner::run`] builds one from scratch, while
//! [`Repartitioner::run_with_scan`] and the localized run take a maintained
//! one. From there the walk is the same code — equal inputs, equal
//! partition bits.
//!
//! [`Repartitioner`]: crate::repartition::Repartitioner
//! [`Repartitioner::run`]: crate::repartition::Repartitioner::run
//! [`Repartitioner::run_with_scan`]: crate::repartition::Repartitioner::run_with_scan
//! [`VariationHeap::into_sorted_distinct`]: crate::heap::VariationHeap::into_sorted_distinct
//! [`VariationHeap::from_grid_with`]: crate::heap::VariationHeap::from_grid_with

use crate::extractor::EdgeVariations;
use crate::heap::sort_key;
use crate::ifl::IflCellCache;
use sr_grid::{normalize_attributes, AggType, CellId, GridDataset, IflOptions};

/// Report of one [`ScanCache::update`] call — how much work the patch
/// actually did, for telemetry and for tests that pin the fast path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScanUpdate {
    /// Distinct dirty cells processed.
    pub dirty_cells: usize,
    /// Incident edges recomputed (0 when a rebuild path was taken).
    pub edges_recomputed: usize,
    /// Whether a normalization-denominator change forced the edge array and
    /// variation multiset to be rebuilt. The cell list and Eq. 3 term cache
    /// are *not* rebuilt for this alone — their rows depend on raw cell
    /// values, not on the normalization denominators.
    pub rebuilt_normalization: bool,
    /// Whether a validity change forced the cell list + term cache rebuild.
    pub rebuilt_cells: bool,
}

/// Incrementally maintained scan inputs of the re-partitioning driver (see
/// the module docs for the invariants).
#[derive(Debug, Clone)]
pub struct ScanCache {
    ifl_options: IflOptions,
    /// Per-attribute normalization denominators the cached edges were
    /// computed with; compared bit-for-bit on update.
    max_abs: Vec<f64>,
    edges: EdgeVariations,
    /// Multiset of all *finite* edge variations, ascending in the heap's
    /// total order (`sort_key`). Mirrors exactly what
    /// [`VariationHeap::from_grid_with`] would collect on the current grid.
    ///
    /// [`VariationHeap::from_grid_with`]: crate::heap::VariationHeap::from_grid_with
    raw: Vec<f64>,
    /// Valid cells, ascending (the order [`GridDataset::valid_cells`]
    /// yields).
    cells: Vec<CellId>,
    /// Bumped whenever `cells` is rebuilt (validity changed); lets callers
    /// cache structures derived from the cell list across updates.
    cells_generation: u64,
    ifl_cache: IflCellCache,
}

impl ScanCache {
    /// Builds the cache from scratch on [`sr_par::Pool::global`].
    pub fn build(grid: &GridDataset, opts: IflOptions) -> Self {
        Self::build_with(grid, opts, sr_par::Pool::global())
    }

    /// [`ScanCache::build`] on an explicit pool.
    pub fn build_with(grid: &GridDataset, opts: IflOptions, pool: &sr_par::Pool) -> Self {
        Self::from_normalized(grid, &normalize_attributes(grid), opts, pool)
    }

    /// [`ScanCache::build_with`] over an already attribute-normalized copy
    /// of `grid` — the driver normalizes under its own span first.
    pub(crate) fn from_normalized(
        grid: &GridDataset,
        normalized: &GridDataset,
        opts: IflOptions,
        pool: &sr_par::Pool,
    ) -> Self {
        let (edges, raw) = edges_and_multiset(normalized, pool);
        let cells: Vec<CellId> = grid.valid_cells().collect();
        let ifl_cache = IflCellCache::build(grid, &cells, opts);
        ScanCache {
            ifl_options: opts,
            max_abs: grid.attr_max_abs(),
            edges,
            raw,
            cells,
            cells_generation: 0,
            ifl_cache,
        }
    }

    /// Patches the cache after `grid` changed in the listed cells (values
    /// and/or validity), on [`sr_par::Pool::global`]. `grid` must already
    /// hold the new state; `dirty` may contain duplicates and need not be
    /// sorted, but must cover every changed cell — a missed cell silently
    /// desynchronizes the cache.
    pub fn update(&mut self, grid: &GridDataset, dirty: &[CellId]) -> ScanUpdate {
        self.update_with(grid, dirty, sr_par::Pool::global())
    }

    /// [`ScanCache::update`] on an explicit pool (used by the rebuild
    /// fallbacks; the in-place patch itself is serial).
    pub fn update_with(
        &mut self,
        grid: &GridDataset,
        dirty: &[CellId],
        pool: &sr_par::Pool,
    ) -> ScanUpdate {
        if dirty.is_empty() {
            return ScanUpdate::default();
        }

        let mut dirty_sorted: Vec<CellId> = dirty.to_vec();
        dirty_sorted.sort_unstable();
        dirty_sorted.dedup();

        // Guard 2: validity changes shift every subsequent cell's position
        // in the valid-cell list, so the list and the position-indexed term
        // cache are rebuilt. (Edges still patch incrementally below — the
        // per-edge recompute reads validity itself.)
        let validity_changed = dirty_sorted
            .iter()
            .any(|&id| self.cells.binary_search(&id).is_ok() != grid.is_valid(id));

        // Guard 1: a normalization denominator moved — every edge value
        // changes, so patching the edge array is pointless and it is rebuilt
        // together with the finite-variation multiset. Bit comparison, not
        // epsilon: the cached edges are only valid for the exact denominators
        // they were computed with. The valid-cell list and the Eq. 3 term
        // cache are *kept*: term rows read raw cell values and `zero_eps`
        // only, never the normalization, so they fall through to the same
        // validity-gated patch as the incremental path below.
        let max_abs = grid.attr_max_abs();
        let denominators_moved = self.max_abs.len() != max_abs.len()
            || self.max_abs.iter().zip(&max_abs).any(|(a, b)| a.to_bits() != b.to_bits());
        let mut recomputed = 0usize;
        if denominators_moved {
            self.max_abs = max_abs;
            let (edges, raw) = edges_and_multiset(&normalize_attributes(grid), pool);
            self.edges = edges;
            self.raw = raw;
        } else {
            // Incident edges of the dirty region: up to 4 per cell, deduped.
            // Encoding: horizontal edge at flat index `i` is `2i`, vertical
            // `2i + 1` — only so one sorted list covers both arrays.
            let cols = self.edges.cols;
            let rows = self.edges.rows;
            let mut edge_keys: Vec<usize> = Vec::with_capacity(dirty_sorted.len() * 4);
            for &id in &dirty_sorted {
                let i = id as usize;
                let (r, c) = (i / cols, i % cols);
                if c > 0 {
                    edge_keys.push(2 * (i - 1));
                }
                if c + 1 < cols {
                    edge_keys.push(2 * i);
                }
                if r > 0 {
                    edge_keys.push(2 * (i - cols) + 1);
                }
                if r + 1 < rows {
                    edge_keys.push(2 * i + 1);
                }
            }
            edge_keys.sort_unstable();
            edge_keys.dedup();

            let mut removals: Vec<f64> = Vec::new();
            let mut insertions: Vec<f64> = Vec::new();
            for &key in &edge_keys {
                let i = key >> 1;
                let (store, other) = if key & 1 == 0 {
                    (&mut self.edges.h[i], (i + 1) as CellId)
                } else {
                    (&mut self.edges.v[i], (i + cols) as CellId)
                };
                let old = *store;
                let new = edge_value(grid, &self.max_abs, i as CellId, other);
                recomputed += 1;
                if old.to_bits() == new.to_bits() {
                    continue;
                }
                *store = new;
                if old.is_finite() {
                    removals.push(old);
                }
                if new.is_finite() {
                    insertions.push(new);
                }
            }
            self.apply_multiset_delta(&mut removals, &mut insertions);
        }

        if validity_changed {
            self.cells.clear();
            self.cells.extend(grid.valid_cells());
            self.cells_generation += 1;
            self.ifl_cache = IflCellCache::build(grid, &self.cells, self.ifl_options);
        } else {
            for &id in &dirty_sorted {
                if let Ok(pos) = self.cells.binary_search(&id) {
                    self.ifl_cache.update_row(grid, pos, id, self.ifl_options);
                }
            }
        }

        ScanUpdate {
            dirty_cells: dirty_sorted.len(),
            edges_recomputed: recomputed,
            rebuilt_normalization: denominators_moved,
            rebuilt_cells: validity_changed,
        }
    }

    /// Single-pass rewrite of the sorted multiset: drop one occurrence per
    /// removal, splice every insertion at its ordered position. Equal keys
    /// hold identical bits, so which occurrence is dropped is immaterial.
    fn apply_multiset_delta(&mut self, removals: &mut [f64], insertions: &mut [f64]) {
        if removals.is_empty() && insertions.is_empty() {
            return;
        }
        removals.sort_unstable_by_key(|&v| sort_key(v));
        insertions.sort_unstable_by_key(|&v| sort_key(v));
        let mut out = Vec::with_capacity(self.raw.len() + insertions.len() - removals.len());
        let (mut ri, mut ii) = (0usize, 0usize);
        for &v in &self.raw {
            let k = sort_key(v);
            if ri < removals.len() && sort_key(removals[ri]) == k {
                ri += 1;
                continue;
            }
            while ii < insertions.len() && sort_key(insertions[ii]) < k {
                out.push(insertions[ii]);
                ii += 1;
            }
            out.push(v);
        }
        debug_assert_eq!(ri, removals.len(), "removed edge value missing from multiset");
        out.extend_from_slice(&insertions[ii..]);
        self.raw = out;
    }

    /// Regenerates the ascending distinct thresholds with the same dedup
    /// chain the batch path uses ([`VariationHeap::into_sorted_distinct`]),
    /// so an equal multiset yields bit-equal thresholds.
    ///
    /// `raw` is already maintained in the heap's total order, and the
    /// heap's lazy sort round-trips every finite value bitwise through the
    /// `sort_key` bijection — so the heap would walk exactly this
    /// sequence. Deduping directly skips re-sorting a couple hundred
    /// thousand values on every run (the `thresholds_match_variation_heap`
    /// test pins the bit equality).
    ///
    /// [`VariationHeap::into_sorted_distinct`]: crate::heap::VariationHeap::into_sorted_distinct
    pub fn sorted_distinct_thresholds(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.raw.len());
        self.sorted_distinct_thresholds_into(&mut out);
        out
    }

    /// [`ScanCache::sorted_distinct_thresholds`] into a caller-owned buffer
    /// (cleared first), so per-run callers can reuse the allocation.
    pub fn sorted_distinct_thresholds_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.reserve(self.raw.len());
        let mut last = f64::NEG_INFINITY;
        for &v in &self.raw {
            if (v - last).abs() <= crate::heap::DEFAULT_DEDUP_EPS {
                continue;
            }
            last = v;
            out.push(v);
        }
    }

    /// The maintained edge variations.
    pub(crate) fn edges(&self) -> &EdgeVariations {
        &self.edges
    }

    /// The maintained valid-cell list (ascending).
    pub(crate) fn cells(&self) -> &[CellId] {
        &self.cells
    }

    /// Generation counter of [`ScanCache::cells`]: bumped on every rebuild
    /// of the list, stable across pure value patches. Structures derived
    /// from the list (e.g. a cell → position index) stay valid while this
    /// and the list length are unchanged on the same cache object.
    pub(crate) fn cells_generation(&self) -> u64 {
        self.cells_generation
    }

    /// The maintained Eq. 3 term cache.
    pub(crate) fn ifl_cache(&self) -> &IflCellCache {
        &self.ifl_cache
    }

    /// The IFL options the term cache was built with.
    pub fn ifl_options(&self) -> IflOptions {
        self.ifl_options
    }

    /// Number of valid cells currently tracked.
    pub fn num_valid_cells(&self) -> usize {
        self.cells.len()
    }

    /// Size of the finite-variation multiset (= valid–valid adjacent pairs).
    pub fn num_variations(&self) -> usize {
        self.raw.len()
    }
}

/// Computes the full edge array and the sorted finite-variation multiset
/// of a normalized grid from scratch — exactly what
/// [`ScanCache::build_with`] computes, shared with the denominator-move
/// path of [`ScanCache::update_with`].
fn edges_and_multiset(normalized: &GridDataset, pool: &sr_par::Pool) -> (EdgeVariations, Vec<f64>) {
    let edges = EdgeVariations::build_with(normalized, pool);
    let mut raw: Vec<f64> =
        edges.h.iter().chain(edges.v.iter()).copied().filter(|v| v.is_finite()).collect();
    raw.sort_unstable_by_key(|&v| sort_key(v));
    (edges, raw)
}

/// Recomputes one edge variation with the exact floating-point sequence of
/// [`EdgeVariations::build_with`]: validity patching first (`-∞` for
/// null–null, `+∞` for mixed), then the ascending-attribute accumulation of
/// per-plane differences on normalized values and a single divide by `p`.
/// Normalization happens on the fly: `x / m` here and `x / m` stored in a
/// normalized plane are the same IEEE operation on the same operands.
fn edge_value(grid: &GridDataset, max_abs: &[f64], a: CellId, b: CellId) -> f64 {
    let (va, vb) = (grid.is_valid(a), grid.is_valid(b));
    if !va && !vb {
        return f64::NEG_INFINITY;
    }
    if va != vb {
        return f64::INFINITY;
    }
    let (a, b) = (a as usize, b as usize);
    let mut sum = 0.0f64;
    for (k, agg) in grid.agg_types().iter().enumerate() {
        let plane = grid.attr_plane(k);
        match agg {
            AggType::Mode => {
                sum += if plane[a] == plane[b] { 0.0 } else { 1.0 };
            }
            _ => {
                let m = max_abs[k];
                let (mut x, mut y) = (plane[a], plane[b]);
                if m > 0.0 {
                    x /= m;
                    y /= m;
                }
                sum += (x - y).abs();
            }
        }
    }
    sum / grid.num_attrs() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::VariationHeap;
    use crate::repartition::Repartitioner;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    fn random_grid(rows: usize, cols: usize, seed: u64) -> GridDataset {
        let mut rng = SmallRng::seed_from_u64(seed);
        let vals: Vec<f64> = (0..rows * cols)
            .map(|i| 100.0 + (i / cols) as f64 + rng.gen_range(-2.0..2.0))
            .collect();
        let mut g = GridDataset::univariate(rows, cols, vals).unwrap();
        // Pin the normalization denominator so value edits below stay under
        // it and exercise the incremental path, not the rebuild guard.
        g.set_value(0, 0, 200.0);
        g
    }

    fn assert_cache_fresh(cache: &ScanCache, grid: &GridDataset) {
        let fresh = ScanCache::build(grid, cache.ifl_options());
        assert_eq!(cache.cells, fresh.cells);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&cache.edges.h), bits(&fresh.edges.h), "h edges diverged");
        assert_eq!(bits(&cache.edges.v), bits(&fresh.edges.v), "v edges diverged");
        assert_eq!(bits(&cache.raw), bits(&fresh.raw), "variation multiset diverged");
        assert_eq!(
            bits(&cache.sorted_distinct_thresholds()),
            bits(&fresh.sorted_distinct_thresholds())
        );
    }

    #[test]
    fn value_updates_patch_to_fresh_build() {
        let mut g = random_grid(10, 12, 1);
        let mut cache = ScanCache::build(&g, IflOptions::default());
        let mut rng = SmallRng::seed_from_u64(2);
        for round in 0..8 {
            let dirty: Vec<CellId> =
                (0..5).map(|_| rng.gen_range(0..g.num_cells()) as CellId).collect();
            for &id in &dirty {
                g.set_value(id, 0, 80.0 + rng.gen_range(0.0..40.0));
            }
            let report = cache.update(&g, &dirty);
            assert!(!report.rebuilt_normalization, "round {round} hit the rebuild guard");
            assert!(report.edges_recomputed > 0);
            assert_cache_fresh(&cache, &g);
        }
    }

    #[test]
    fn validity_flips_rebuild_cells_but_patch_edges() {
        let mut g = random_grid(8, 8, 3);
        let mut cache = ScanCache::build(&g, IflOptions::default());
        g.set_null(27);
        let report = cache.update(&g, &[27]);
        assert!(report.rebuilt_cells);
        assert!(!report.rebuilt_normalization);
        assert_cache_fresh(&cache, &g);
        g.set_value(27, 0, 105.0);
        g.set_valid(27);
        let report = cache.update(&g, &[27]);
        assert!(report.rebuilt_cells);
        assert_cache_fresh(&cache, &g);
    }

    #[test]
    fn denominator_move_rebuilds_edges_but_keeps_cells() {
        let mut g = random_grid(6, 6, 4);
        let mut cache = ScanCache::build(&g, IflOptions::default());
        g.set_value(10, 0, 1e6);
        let report = cache.update(&g, &[10]);
        assert!(report.rebuilt_normalization);
        // A magnitude bump alone must not rebuild the cell list or the term
        // cache: their rows read raw values, not normalized ones.
        assert!(!report.rebuilt_cells);
        assert_eq!(report.edges_recomputed, 0);
        assert_cache_fresh(&cache, &g);

        // The term cache must still be correct end to end — run the driver
        // against a from-scratch batch run on the bumped grid.
        let driver = Repartitioner::new(0.08).unwrap();
        let pool = sr_par::Pool::global();
        let inc = driver.run_with_scan(&g, &cache, pool).unwrap();
        let full = driver.run_with_pool(&g, pool).unwrap();
        assert_eq!(inc.repartitioned.ifl().to_bits(), full.repartitioned.ifl().to_bits());
        assert_eq!(
            inc.repartitioned.partition().cell_to_group(),
            full.repartitioned.partition().cell_to_group()
        );
    }

    #[test]
    fn denominator_move_with_validity_flip_rebuilds_both() {
        let mut g = random_grid(6, 6, 9);
        let mut cache = ScanCache::build(&g, IflOptions::default());
        g.set_value(10, 0, 1e6);
        g.set_null(20);
        let report = cache.update(&g, &[10, 20]);
        assert!(report.rebuilt_normalization);
        assert!(report.rebuilt_cells);
        assert_cache_fresh(&cache, &g);
    }

    #[test]
    fn run_with_scan_matches_batch_run_bit_for_bit() {
        let mut g = random_grid(12, 12, 5);
        let mut cache = ScanCache::build(&g, IflOptions::default());
        let mut rng = SmallRng::seed_from_u64(6);
        let driver = Repartitioner::new(0.08).unwrap();
        for _ in 0..4 {
            let dirty: Vec<CellId> =
                (0..7).map(|_| rng.gen_range(0..g.num_cells()) as CellId).collect();
            for &id in &dirty {
                g.set_value(id, 0, 90.0 + rng.gen_range(0.0..20.0));
            }
            cache.update(&g, &dirty);
            let pool = sr_par::Pool::global();
            let inc = driver.run_with_scan(&g, &cache, pool).unwrap();
            let full = driver.run_with_pool(&g, pool).unwrap();
            assert_eq!(
                inc.repartitioned.partition().cell_to_group(),
                full.repartitioned.partition().cell_to_group()
            );
            assert_eq!(inc.repartitioned.ifl().to_bits(), full.repartitioned.ifl().to_bits());
        }
    }

    #[test]
    fn thresholds_match_variation_heap() {
        let mut g = random_grid(10, 14, 8);
        let mut cache = ScanCache::build(&g, IflOptions::default());
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..4 {
            let dirty: Vec<CellId> =
                (0..6).map(|_| rng.gen_range(0..g.num_cells()) as CellId).collect();
            for &id in &dirty {
                g.set_value(id, 0, 80.0 + rng.gen_range(0.0..40.0));
            }
            cache.update(&g, &dirty);
            let direct = cache.sorted_distinct_thresholds();
            let heap = VariationHeap::from_values(cache.raw.iter().copied()).into_sorted_distinct();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&direct), bits(&heap), "dedup shortcut diverged from the heap chain");
        }
    }

    #[test]
    fn mismatched_ifl_options_are_rejected() {
        let g = random_grid(4, 4, 7);
        let cache = ScanCache::build(&g, IflOptions { zero_eps: 0.5 });
        let driver = Repartitioner::new(0.1).unwrap();
        let err = driver.run_with_scan(&g, &cache, sr_par::Pool::global());
        assert!(matches!(err, Err(crate::CoreError::ScanCacheMismatch)));
    }
}
