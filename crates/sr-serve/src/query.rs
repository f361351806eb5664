//! Online spatial queries against a frozen snapshot.
//!
//! All values the engine serves are *representative* cell values in the
//! §III-C sense: `Avg`/`Mode` group values apply to each member cell
//! directly, `Sum` group values are divided by the group's valid-member
//! count. The v2 encoder precomputes these per-(group, attribute)
//! representatives once, using the same
//! [`sr_core::representative`] function as [`sr_core::reconstruct_grid`],
//! so a served value is bit-identical to the reconstructed grid's value
//! for the same cell.
//!
//! ## One serving form
//!
//! The engine is a thin wrapper around one validated sr-snap v2 buffer
//! ([`SnapshotV2`]). Every query reads typed slices straight out of the
//! snapshot bytes — including the precomputed representatives,
//! centroids, and rectangle index — with no decode allocation. v1 files
//! are transcoded at load ([`crate::engine_from_bytes`]), and
//! [`QueryEngine::new`] encodes an in-process [`Snapshot`] the same way,
//! so one borrowed form serves every query. The derivation of the
//! serving data lives with the v2 encoder (`docs/SNAPSHOT_FORMAT.md`).

use crate::snapshot::Snapshot;
use crate::v2::{snapshot_to_bytes_v2, snapshot_v2_from_bytes, SnapshotV2};
use sr_core::{GroupId, GroupRect, Partition};
use sr_grid::{AdjacencyList, AggType, Bounds, CellId};

/// Answer to a point lookup.
#[derive(Debug, Clone, PartialEq)]
pub struct PointAnswer {
    /// Grid row of the queried location.
    pub row: usize,
    /// Grid column of the queried location.
    pub col: usize,
    /// Flat cell id.
    pub cell: CellId,
    /// Cell-group containing the cell.
    pub group: GroupId,
    /// Representative values per attribute; `None` when the cell is null
    /// in the original dataset (it reconstructs to nothing).
    pub values: Option<Vec<f64>>,
}

/// Per-attribute aggregate over a window.
#[derive(Debug, Clone, PartialEq)]
pub struct AttrAggregate {
    /// Number of contributing (valid) cells.
    pub count: usize,
    /// Sum of representative values over contributing cells.
    pub sum: f64,
    /// Minimum representative value (`None` when no cell contributed).
    pub min: Option<f64>,
    /// Maximum representative value (`None` when no cell contributed).
    pub max: Option<f64>,
}

impl AttrAggregate {
    /// Mean representative value over contributing cells.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }
}

/// Answer to a rectangular window query.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowAnswer {
    /// Total cells inside the window (valid or not).
    pub cells: usize,
    /// Valid cells inside the window.
    pub valid_cells: usize,
    /// Distinct cell-groups intersecting the window.
    pub groups: usize,
    /// One aggregate per attribute.
    pub per_attr: Vec<AttrAggregate>,
}

impl WindowAnswer {
    fn empty(num_attrs: usize) -> Self {
        WindowAnswer {
            cells: 0,
            valid_cells: 0,
            groups: 0,
            per_attr: vec![AttrAggregate { count: 0, sum: 0.0, min: None, max: None }; num_attrs],
        }
    }

    /// Folds one group's contribution into the answer. The canonical
    /// accumulation order is ascending group id — both the unsharded
    /// [`QueryEngine::window`] and the sharded merge feed parts through
    /// this same function in that order, which is what makes sharded
    /// window answers bit-identical to unsharded ones (floating-point
    /// addition order is part of the contract).
    fn fold_part(&mut self, count: usize, rep: Option<&[f64]>) {
        self.groups += 1;
        if count == 0 {
            return;
        }
        self.valid_cells += count;
        if let Some(rep) = rep {
            for (agg, &v) in self.per_attr.iter_mut().zip(rep) {
                agg.count += count;
                agg.sum += v * count as f64;
                agg.min = Some(agg.min.map_or(v, |m| m.min(v)));
                agg.max = Some(agg.max.map_or(v, |m| m.max(v)));
            }
        }
    }

    /// Merges gid-ascending [`WindowGroupPart`]s (e.g. concatenated from
    /// several shards, then sorted by group id) into a full answer.
    /// `cells` is the geometric cell count of the clamped window — a
    /// shard-invariant, so any scatter's value works.
    pub fn merge(num_attrs: usize, cells: usize, parts: &[WindowGroupPart]) -> WindowAnswer {
        debug_assert!(parts.windows(2).all(|w| w[0].group < w[1].group), "parts must ascend");
        let mut out = WindowAnswer::empty(num_attrs);
        out.cells = cells;
        for part in parts {
            out.fold_part(part.count, part.values.as_deref());
        }
        out
    }
}

/// One group's contribution to a window query, as produced by
/// [`QueryEngine::window_scatter`]: enough to replay the canonical
/// accumulation on another process or after a scatter-gather merge.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowGroupPart {
    /// The contributing group.
    pub group: GroupId,
    /// Valid cells of the group inside the window (may be 0 — the group
    /// still counts toward [`WindowAnswer::groups`]).
    pub count: usize,
    /// The group's representative vector; `None` for null groups.
    pub values: Option<Vec<f64>>,
}

/// The scatter half of a window query: the clamped window's geometric
/// cell count plus per-group parts in ascending group-id order.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowScatter {
    /// Total cells inside the clamped window (valid or not); `0` when the
    /// window misses the grid entirely.
    pub cells: usize,
    /// Per-group contributions, ascending by group id.
    pub parts: Vec<WindowGroupPart>,
}

/// One result of a k-nearest-group query.
#[derive(Debug, Clone, PartialEq)]
pub struct NearestGroup {
    /// The group id.
    pub group: GroupId,
    /// Geographic centroid latitude of the group's rectangle.
    pub lat: f64,
    /// Geographic centroid longitude of the group's rectangle.
    pub lon: f64,
    /// Euclidean distance (in coordinate units) from the query point.
    pub distance: f64,
    /// Representative values per attribute.
    pub values: Vec<f64>,
}

/// Summary statistics of a loaded snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Stats {
    /// Grid rows.
    pub rows: usize,
    /// Grid columns.
    pub cols: usize,
    /// Total cells.
    pub cells: usize,
    /// Valid (non-null) cells.
    pub valid_cells: usize,
    /// Total cell-groups.
    pub groups: usize,
    /// Groups with a feature vector (the training instances).
    pub valid_groups: usize,
    /// Attributes per cell.
    pub attrs: usize,
    /// The loss budget the run was given.
    pub theta: f64,
    /// The achieved IFL.
    pub ifl: f64,
    /// Fraction of spatial cells removed, `1 − t / (m·n)`.
    pub cell_reduction: f64,
}

/// A query engine over one validated sr-snap v2 buffer, served borrowed:
/// precomputed per-group representatives, centroids, and the rectangle
/// index are read straight out of the snapshot bytes.
///
/// ```
/// use sr_serve::{QueryEngine, Snapshot};
/// let grid = sr_grid::GridDataset::univariate(
///     8, 8, (0..64).map(|i| 10.0 + (i % 8) as f64).collect(),
/// ).unwrap();
/// let out = sr_core::repartition(&grid, 0.1).unwrap();
/// let snap = Snapshot::build(&out.repartitioned, &grid, 0.1).unwrap();
/// let engine = QueryEngine::new(snap);
/// assert_eq!(engine.stats().cells, 64);
/// ```
#[derive(Debug, Clone)]
pub struct QueryEngine {
    snap: SnapshotV2,
}

impl QueryEngine {
    /// Builds an engine from an in-process snapshot: encodes it to v2
    /// bytes, validates them, and serves the buffer borrowed — the same
    /// path a v1 file takes at load.
    pub fn new(snapshot: Snapshot) -> Self {
        let bytes = snapshot_to_bytes_v2(&snapshot);
        QueryEngine::from_v2(
            snapshot_v2_from_bytes(&bytes)
                .expect("a validated snapshot always encodes to a valid v2 buffer"),
        )
    }

    /// Wraps a validated sr-snap v2 buffer. No allocation, no copies:
    /// every query serves typed slices straight out of the snapshot
    /// bytes.
    ///
    /// ```
    /// use sr_serve::{snapshot_to_bytes_v2, snapshot_v2_from_bytes, QueryEngine, Snapshot};
    /// let grid = sr_grid::GridDataset::univariate(
    ///     8, 8, (0..64).map(|i| 10.0 + (i % 8) as f64).collect(),
    /// ).unwrap();
    /// let out = sr_core::repartition(&grid, 0.1).unwrap();
    /// let snap = Snapshot::build(&out.repartitioned, &grid, 0.1).unwrap();
    /// let bytes = snapshot_to_bytes_v2(&snap);
    /// let engine = QueryEngine::from_v2(snapshot_v2_from_bytes(&bytes).unwrap());
    /// assert_eq!(engine.stats(), QueryEngine::new(snap).stats());
    /// ```
    pub fn from_v2(snapshot: SnapshotV2) -> Self {
        QueryEngine { snap: snapshot }
    }

    /// Total cells, `rows · cols`.
    pub fn num_cells(&self) -> usize {
        self.snap.num_cells()
    }

    /// Attributes per cell.
    pub fn num_attrs(&self) -> usize {
        self.snap.num_attrs()
    }

    /// Total cell-groups.
    pub fn num_groups(&self) -> usize {
        self.snap.num_groups()
    }

    /// The loss budget `θ` the run was given.
    pub fn theta(&self) -> f64 {
        self.snap.theta()
    }

    /// The achieved IFL of the frozen partition.
    pub fn ifl(&self) -> f64 {
        self.snap.ifl()
    }

    /// The accepted min-adjacent variation.
    pub fn min_adjacent_variation(&self) -> f64 {
        self.snap.min_adjacent_variation()
    }

    /// Geographic bounds of the grid.
    pub fn bounds(&self) -> Bounds {
        self.snap.bounds()
    }

    /// Attribute names.
    pub fn attr_names(&self) -> &[String] {
        self.snap.attr_names()
    }

    /// Per-attribute aggregation types.
    pub fn agg_types(&self) -> &[AggType] {
        self.snap.agg_types()
    }

    /// Per-attribute integer-typed flags.
    pub fn integer_attrs(&self) -> &[bool] {
        self.snap.integer_attrs()
    }

    /// Whether `cell` is valid (non-null) in the original dataset.
    pub fn cell_valid(&self, cell: CellId) -> bool {
        self.snap.cell_valid(cell)
    }

    /// The group containing `cell`.
    pub fn group_of(&self, cell: CellId) -> GroupId {
        self.snap.group_of(cell)
    }

    /// One group's rectangle.
    pub fn group_rect(&self, g: GroupId) -> GroupRect {
        self.snap.rects()[g as usize]
    }

    /// The group's *raw* allocated feature vector (Algorithm 2 output,
    /// before the §III-C representative transform); `None` for null
    /// groups.
    pub fn feature(&self, g: GroupId) -> Option<&[f64]> {
        self.snap.feature(g)
    }

    /// Materializes the engine's snapshot as an owned [`Snapshot`] by
    /// decoding the buffer. This is the bridge for code that genuinely
    /// needs owned data (shard splitting, engine fusing, v2 → v1
    /// migration); the query path never calls it.
    pub fn to_snapshot(&self) -> Snapshot {
        self.snap
            .to_snapshot()
            .expect("a validated v2 snapshot always materializes to a valid v1 snapshot")
    }

    /// Clones the frozen partition out of the engine.
    pub fn clone_partition(&self) -> Partition {
        self.snap.clone_partition()
    }

    /// Clones the group adjacency lists out of the engine.
    pub fn clone_adjacency(&self) -> AdjacencyList {
        self.snap.clone_adjacency()
    }

    // -- queries --------------------------------------------------------

    /// Representative values of one cell — exactly what
    /// [`sr_core::reconstruct_grid`] would put there. `None` when the cell
    /// is null in the original dataset.
    pub fn cell_values(&self, cell: CellId) -> Option<&[f64]> {
        if !self.cell_valid(cell) {
            return None;
        }
        self.snap.rep(self.group_of(cell))
    }

    /// Valid-member count of one group.
    pub fn valid_count(&self, g: GroupId) -> usize {
        self.snap.valid_counts()[g as usize] as usize
    }

    /// Point lookup: maps `(lat, lon)` to its cell and serves the cell's
    /// representative values. `None` when the location falls outside the
    /// grid's bounds.
    pub fn point(&self, lat: f64, lon: f64) -> Option<PointAnswer> {
        let (rows, cols) = (self.snap.rows(), self.snap.cols());
        let (row, col) = self.bounds().locate(lat, lon, rows, cols)?;
        let cell = (row * cols + col) as CellId;
        let group = self.group_of(cell);
        Some(PointAnswer {
            row,
            col,
            cell,
            group,
            values: self.cell_values(cell).map(<[f64]>::to_vec),
        })
    }

    /// Rectangular window aggregate: per-attribute count/sum/min/max of the
    /// representative values of all valid cells whose cell rectangle center
    /// falls in the window's cell range.
    ///
    /// The window is given in geographic coordinates; latitude and
    /// longitude pairs may come in either order. Only the part overlapping
    /// the grid's bounds contributes. The walk is over the cell-groups
    /// whose rectangles intersect the window, so cost scales with the
    /// number of intersecting groups (found through the packed rectangle
    /// index), not cells.
    pub fn window(&self, lat_a: f64, lat_b: f64, lon_a: f64, lon_b: f64) -> WindowAnswer {
        let p = self.num_attrs();
        let groups = self.num_groups();
        let Some((cells, parts)) = self.window_parts(lat_a, lat_b, lon_a, lon_b, 0, groups) else {
            return WindowAnswer::empty(p);
        };
        let mut out = WindowAnswer::empty(p);
        out.cells = cells;
        for (g, count) in parts {
            out.fold_part(count, self.snap.rep(g));
        }
        out
    }

    /// The scatter half of [`Self::window`]: per-group contributions in
    /// ascending group-id order, with representative vectors attached so
    /// a router can replay the canonical fold without this engine. The
    /// whole answer is recovered by [`WindowAnswer::merge`]; a sharded
    /// deployment concatenates each shard's *owned* parts first.
    pub fn window_scatter(&self, lat_a: f64, lat_b: f64, lon_a: f64, lon_b: f64) -> WindowScatter {
        let groups = self.num_groups();
        self.window_scatter_range(lat_a, lat_b, lon_a, lon_b, 0, groups)
    }

    /// [`Self::window_scatter`] restricted to Hilbert curve positions
    /// `[pos_lo, pos_hi)` of the index's group order — the same pure
    /// function of the partition a shard split uses, so a router can hand
    /// each shard exactly its own contiguous range and the per-shard
    /// scans sum to one unsharded scan instead of duplicating it K times.
    pub fn window_scatter_range(
        &self,
        lat_a: f64,
        lat_b: f64,
        lon_a: f64,
        lon_b: f64,
        pos_lo: usize,
        pos_hi: usize,
    ) -> WindowScatter {
        match self.window_parts(lat_a, lat_b, lon_a, lon_b, pos_lo, pos_hi) {
            None => WindowScatter { cells: 0, parts: Vec::new() },
            Some((cells, parts)) => WindowScatter {
                cells,
                parts: parts
                    .into_iter()
                    .map(|(g, count)| WindowGroupPart {
                        group: g,
                        count,
                        values: self.snap.rep(g).map(<[f64]>::to_vec),
                    })
                    .collect(),
            },
        }
    }

    /// Shared window walk: clamps the window, finds intersecting groups
    /// through the index, and counts each group's valid cells inside the
    /// intersection. `None` when the window misses the grid (or has NaN
    /// corners). Parts ascend by group id — the canonical fold order.
    fn window_parts(
        &self,
        lat_a: f64,
        lat_b: f64,
        lon_a: f64,
        lon_b: f64,
        pos_lo: usize,
        pos_hi: usize,
    ) -> Option<(usize, Vec<(GroupId, usize)>)> {
        let (lat_lo, lat_hi) = (lat_a.min(lat_b), lat_a.max(lat_b));
        let (lon_lo, lon_hi) = (lon_a.min(lon_b), lon_a.max(lon_b));
        let b = self.bounds();
        if lat_lo.is_nan()
            || lon_lo.is_nan()
            || lat_hi < b.lat_min
            || lat_lo > b.lat_max
            || lon_hi < b.lon_min
            || lon_lo > b.lon_max
        {
            return None;
        }
        let (rows, cols) = (self.snap.rows(), self.snap.cols());
        let (r_lo, c_lo) = b.locate_clamped(lat_lo, lon_lo, rows, cols);
        let (r_hi, c_hi) = b.locate_clamped(lat_hi, lon_hi, rows, cols);
        let cells = (r_hi - r_lo + 1) * (c_hi - c_lo + 1);

        let rects = self.snap.rects();
        let valid = self.snap.validity_bits();
        let mut gids = Vec::new();
        self.snap.index_view().intersecting_in_range(
            rects,
            r_lo as u32,
            r_hi as u32,
            c_lo as u32,
            c_hi as u32,
            pos_lo,
            pos_hi,
            &mut gids,
        );
        let parts = gids
            .into_iter()
            .map(|g| {
                let rect = &rects[g as usize];
                let ir0 = rect.r0.max(r_lo as u32);
                let ir1 = rect.r1.min(r_hi as u32);
                let ic0 = rect.c0.max(c_lo as u32);
                let ic1 = rect.c1.min(c_hi as u32);
                // Every valid member in the intersection carries the same
                // representative vector, so one bitmap pass gives the
                // count and the per-attribute update is O(p).
                let mut count = 0usize;
                for r in ir0..=ir1 {
                    for c in ic0..=ic1 {
                        let cell = (r * cols as u32 + c) as usize;
                        count += (valid[cell / 8] >> (cell % 8) & 1) as usize;
                    }
                }
                (g, count)
            })
            .collect();
        Some((cells, parts))
    }

    /// The `k` featured groups whose rectangle centroids lie nearest to
    /// `(lat, lon)` (Euclidean in coordinate units), nearest first; ties
    /// break toward the lower group id for determinism. Answered by a
    /// best-first search over the packed rectangle index — the result
    /// (order and bits) is identical to the full `(d2, gid)` sort it
    /// replaced, at a fraction of the groups visited.
    pub fn knn(&self, lat: f64, lon: f64, k: usize) -> Vec<NearestGroup> {
        let groups = self.num_groups();
        self.knn_range(lat, lon, k, 0, groups)
    }

    /// [`Self::knn`] restricted to Hilbert curve positions
    /// `[pos_lo, pos_hi)` of the index's group order — the knn analogue
    /// of [`Self::window_scatter_range`]. A sharded engine that owns a
    /// contiguous slice of the deployment's curve order searches a tree
    /// of its own size instead of pruning through the whole grid's.
    pub fn knn_range(
        &self,
        lat: f64,
        lon: f64,
        k: usize,
        pos_lo: usize,
        pos_hi: usize,
    ) -> Vec<NearestGroup> {
        let centroids = self.snap.centroids();
        self.snap
            .index_view()
            .nearest_in_range(centroids, lat, lon, k, pos_lo, pos_hi, |g| self.snap.featured(g))
            .into_iter()
            .map(|(d2, g)| {
                let [clat, clon] = centroids[g as usize];
                NearestGroup {
                    group: g,
                    lat: clat,
                    lon: clon,
                    distance: d2.sqrt(),
                    values: self.snap.rep(g).expect("featured group").to_vec(),
                }
            })
            .collect()
    }

    /// Snapshot summary statistics.
    pub fn stats(&self) -> Stats {
        let cells = self.num_cells();
        let groups = self.num_groups();
        let valid_groups = (0..groups as GroupId).filter(|&g| self.snap.featured(g)).count();
        Stats {
            rows: self.snap.rows(),
            cols: self.snap.cols(),
            cells,
            valid_cells: self.snap.valid_counts().iter().map(|&c| c as usize).sum(),
            groups,
            valid_groups,
            attrs: self.num_attrs(),
            theta: self.theta(),
            ifl: self.ifl(),
            cell_reduction: 1.0 - groups as f64 / cells as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sr_core::{reconstruct_grid, repartition};
    use sr_grid::{AggType, Bounds, GridDataset};

    fn engine_and_grid() -> (QueryEngine, GridDataset) {
        // Mixed-aggregation multivariate grid with a null hole.
        let (rows, cols) = (10, 12);
        let mut data = Vec::new();
        for i in 0..rows * cols {
            let (r, c) = (i / cols, i % cols);
            data.push(50.0 + r as f64 * 0.6 + c as f64 * 0.3); // Avg
            data.push((5 + (r + c) % 4) as f64); // Sum
        }
        let mut grid = GridDataset::new(
            rows,
            cols,
            2,
            data,
            vec![true; rows * cols],
            vec!["price".into(), "count".into()],
            vec![AggType::Avg, AggType::Sum],
            vec![false, false],
            Bounds { lat_min: 40.0, lat_max: 41.0, lon_min: -74.0, lon_max: -73.0 },
        )
        .unwrap();
        grid.set_null(17);
        grid.set_null(18);
        let out = repartition(&grid, 0.08).unwrap();
        let snap = crate::Snapshot::build(&out.repartitioned, &grid, 0.08).unwrap();
        (QueryEngine::new(snap), grid)
    }

    #[test]
    fn cell_values_match_reconstruct_grid_exactly() {
        let (engine, grid) = engine_and_grid();
        let snap = engine.to_snapshot();
        let rec = reconstruct_grid(&grid, snap.partition(), snap.features()).unwrap();
        for cell in 0..grid.num_cells() as CellId {
            match engine.cell_values(cell) {
                Some(vals) => assert_eq!(Some(vals), rec.features(cell).as_deref(), "cell {cell}"),
                None => assert!(rec.features(cell).is_none(), "cell {cell}"),
            }
        }
    }

    #[test]
    fn point_lookup_hits_the_right_cell() {
        let (engine, grid) = engine_and_grid();
        for cell in [0u32, 5, 40, 119] {
            let (lat, lon) = grid.cell_centroid(cell);
            let ans = engine.point(lat, lon).unwrap();
            assert_eq!(ans.cell, cell);
            assert_eq!((ans.row, ans.col), grid.cell_pos(cell));
            assert_eq!(ans.group, engine.group_of(cell));
        }
        // Null cell: located, but no values.
        let (lat, lon) = grid.cell_centroid(17);
        assert!(engine.point(lat, lon).unwrap().values.is_none());
        // Outside the bounds: no answer.
        assert!(engine.point(0.0, 0.0).is_none());
        assert!(engine.point(f64::NAN, -73.5).is_none());
    }

    #[test]
    fn window_matches_per_cell_scan() {
        let (engine, grid) = engine_and_grid();
        let snap = engine.to_snapshot();
        let rec = reconstruct_grid(&grid, snap.partition(), snap.features()).unwrap();
        let b = grid.bounds();
        // A window covering cell rows 2..=6, cols 3..=9.
        let lat_lo = b.lat_min + 2.05 * 0.1;
        let lat_hi = b.lat_min + 6.05 * 0.1;
        let lon_lo = b.lon_min + 3.05 * (1.0 / 12.0);
        let lon_hi = b.lon_min + 9.05 * (1.0 / 12.0);
        let ans = engine.window(lat_lo, lat_hi, lon_lo, lon_hi);
        // Reference: direct scan over the reconstructed grid.
        let mut count = 0usize;
        let mut sum = [0.0f64; 2];
        let (mut min, mut max) = ([f64::INFINITY; 2], [f64::NEG_INFINITY; 2]);
        for r in 2..=6usize {
            for c in 3..=9usize {
                let id = grid.cell_id(r, c);
                if let Some(fv) = rec.features(id) {
                    count += 1;
                    for k in 0..2 {
                        sum[k] += fv[k];
                        min[k] = min[k].min(fv[k]);
                        max[k] = max[k].max(fv[k]);
                    }
                }
            }
        }
        assert_eq!(ans.cells, 5 * 7);
        assert_eq!(ans.valid_cells, count);
        for k in 0..2 {
            assert_eq!(ans.per_attr[k].count, count);
            assert!((ans.per_attr[k].sum - sum[k]).abs() < 1e-9);
            assert_eq!(ans.per_attr[k].min, Some(min[k]));
            assert_eq!(ans.per_attr[k].max, Some(max[k]));
            let mean = ans.per_attr[k].mean().unwrap();
            assert!((mean - sum[k] / count as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn window_outside_bounds_is_empty() {
        let (engine, _) = engine_and_grid();
        let ans = engine.window(10.0, 20.0, 10.0, 20.0);
        assert_eq!(ans.cells, 0);
        assert_eq!(ans.groups, 0);
        assert!(ans.per_attr[0].mean().is_none());
    }

    #[test]
    fn window_swapped_corners_agree() {
        let (engine, _) = engine_and_grid();
        let a = engine.window(40.2, 40.7, -73.9, -73.2);
        let b = engine.window(40.7, 40.2, -73.2, -73.9);
        assert_eq!(a, b);
    }

    #[test]
    fn knn_orders_by_distance() {
        let (engine, grid) = engine_and_grid();
        let (lat, lon) = grid.cell_centroid(0);
        let k = 5;
        let nbs = engine.knn(lat, lon, k);
        assert_eq!(nbs.len(), k.min(engine.stats().valid_groups));
        for w in nbs.windows(2) {
            assert!(w[0].distance <= w[1].distance);
        }
        // The nearest group must contain (or be closest to) the cell.
        let brute_best = (0..engine.num_groups() as u32)
            .filter(|&g| engine.feature(g).is_some())
            .map(|g| {
                let rect = engine.group_rect(g);
                let b = grid.bounds();
                let clat = b.lat_min + (rect.r0 + rect.r1 + 1) as f64 / 2.0 * 0.1;
                let clon = b.lon_min + (rect.c0 + rect.c1 + 1) as f64 / 2.0 / 12.0;
                (g, ((clat - lat).powi(2) + (clon - lon).powi(2)).sqrt())
            })
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap();
        assert_eq!(nbs[0].group, brute_best.0);
        assert!((nbs[0].distance - brute_best.1).abs() < 1e-12);
    }

    #[test]
    fn knn_k_larger_than_groups_returns_all() {
        let (engine, _) = engine_and_grid();
        let nbs = engine.knn(40.5, -73.5, 10_000);
        assert_eq!(nbs.len(), engine.stats().valid_groups);
        // A `k` far beyond any group count must neither allocate for `k`
        // nor overflow: it answers exactly like any `k >= groups`.
        for k in [usize::MAX, 1usize << 32] {
            assert_eq!(engine.knn(40.5, -73.5, k), nbs, "k = {k}");
        }
    }

    #[test]
    fn stats_are_consistent() {
        let (engine, grid) = engine_and_grid();
        let st = engine.stats();
        assert_eq!(st.rows, 10);
        assert_eq!(st.cols, 12);
        assert_eq!(st.cells, 120);
        assert_eq!(st.valid_cells, 118);
        assert_eq!(st.groups, engine.num_groups());
        assert!(st.valid_groups <= st.groups);
        assert_eq!(st.attrs, 2);
        assert!(st.ifl <= st.theta);
        assert!((st.cell_reduction - (1.0 - st.groups as f64 / 120.0)).abs() < 1e-12);
        assert_eq!(grid.num_valid_cells(), st.valid_cells);
    }
}
