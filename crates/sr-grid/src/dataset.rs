//! The grid dataset type, its geographic bounds and cell addressing.

use crate::{GridError, Result};

/// Identifier of a cell inside a grid: the row-major flat index.
///
/// `u32` comfortably addresses the paper's largest grids (≈100k cells) while
/// halving index-array footprints versus `usize`.
pub type CellId = u32;

/// How an attribute's per-cell value is derived from the data instances
/// mapped to the cell, and — symmetrically — how a cell-group's value is
/// derived from its constituent cells (paper §III-A3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggType {
    /// Additive quantities (counts, totals): group value = Σ cell values,
    /// and a reconstructed cell value = group value / group size.
    Sum,
    /// Intensive quantities (averages, prices): group value = best of
    /// mean / mode by local loss, and reconstruction copies the group value.
    Avg,
    /// Categorical attributes encoded as numeric codes (the paper's §VI
    /// future work): variation between cells is a 0/1 mismatch indicator,
    /// the group value is the most frequent code, IFL terms count
    /// mismatches, and reconstruction copies the group code. Codes are
    /// never normalized or averaged.
    Mode,
}

/// Geographic bounding box of a grid. Latitudes map to rows, longitudes to
/// columns; both axes are split into equi-sized intervals (paper §II).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bounds {
    /// Southern edge.
    pub lat_min: f64,
    /// Northern edge.
    pub lat_max: f64,
    /// Western edge.
    pub lon_min: f64,
    /// Eastern edge.
    pub lon_max: f64,
}

impl Bounds {
    /// A unit square, the default when geography does not matter.
    pub fn unit() -> Self {
        Bounds { lat_min: 0.0, lat_max: 1.0, lon_min: 0.0, lon_max: 1.0 }
    }

    /// Maps a geolocation to its `(row, col)` cell in an `rows × cols` grid
    /// over these bounds, or `None` when the point falls outside them.
    ///
    /// Uses the same equi-interval binning as the point binner
    /// (`sr_ingest::CellAccumulators`), so a point's cell and a later lookup
    /// of the same coordinates agree. The maximum edge (`lat == lat_max` /
    /// `lon == lon_max`) belongs to the last row/column.
    pub fn locate(&self, lat: f64, lon: f64, rows: usize, cols: usize) -> Option<(usize, usize)> {
        if !(lat >= self.lat_min
            && lat <= self.lat_max
            && lon >= self.lon_min
            && lon <= self.lon_max)
        {
            return None;
        }
        Some(self.locate_clamped(lat, lon, rows, cols))
    }

    /// Like [`Bounds::locate`], but clamps out-of-bounds coordinates to the
    /// border cells instead of rejecting them (the binner's behaviour for
    /// stray points). NaN coordinates clamp to the first row/column.
    pub fn locate_clamped(&self, lat: f64, lon: f64, rows: usize, cols: usize) -> (usize, usize) {
        let lat_span = (self.lat_max - self.lat_min).max(f64::MIN_POSITIVE);
        let lon_span = (self.lon_max - self.lon_min).max(f64::MIN_POSITIVE);
        let rf = ((lat - self.lat_min) / lat_span * rows as f64).floor();
        let cf = ((lon - self.lon_min) / lon_span * cols as f64).floor();
        let r = (rf as i64).clamp(0, rows as i64 - 1) as usize;
        let c = (cf as i64).clamp(0, cols as i64 - 1) as usize;
        (r, c)
    }
}

/// An `m × n` spatial grid dataset with `p` attributes per cell.
///
/// Storage is attribute-plane struct-of-arrays: attribute `k` of cell
/// `(r, c)` lives at `k * num_cells + (r * cols + c)` in one contiguous
/// buffer — one flat `num_cells`-long plane per attribute, exposed through
/// [`GridDataset::attr_plane`] for the scan kernels. Cell validity is a
/// packed bitmap (`u64` words, bit `i` = cell `i`). Cells with no data are
/// *null* (their bit is clear); their attribute slots hold zeros and must
/// not be interpreted.
#[derive(Debug, Clone, PartialEq)]
pub struct GridDataset {
    rows: usize,
    cols: usize,
    num_attrs: usize,
    /// Plane-major attribute storage, `num_attrs * num_cells` doubles.
    planes: Vec<f64>,
    /// Packed validity bitmap, `ceil(num_cells / 64)` words; bits at and
    /// above `num_cells` are always zero.
    valid_bits: Vec<u64>,
    /// Cached popcount of `valid_bits`.
    num_valid: usize,
    attr_names: Vec<String>,
    agg_types: Vec<AggType>,
    /// Whether the attribute is integer-typed (average representatives get
    /// rounded to the nearest integer, per paper §III-A3 Example 4).
    integer_attrs: Vec<bool>,
    bounds: Bounds,
}

/// Packs a `&[bool]` mask into bitmap words (bit `i` = `mask[i]`).
fn pack_valid_bits(mask: &[bool]) -> (Vec<u64>, usize) {
    let mut words = vec![0u64; mask.len().div_ceil(64)];
    let mut count = 0usize;
    for (i, &v) in mask.iter().enumerate() {
        if v {
            words[i >> 6] |= 1u64 << (i & 63);
            count += 1;
        }
    }
    (words, count)
}

impl GridDataset {
    /// Creates a grid from flattened *cell-major interleaved* data (the
    /// classic `(r * cols + c) * num_attrs + k` layout) and a validity
    /// mask; the data is transposed into attribute planes internally.
    ///
    /// `data.len()` must be `rows * cols * num_attrs` and `valid.len()`
    /// must be `rows * cols`. Attribute slots of null cells are zeroed
    /// regardless of the values passed in.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        rows: usize,
        cols: usize,
        num_attrs: usize,
        data: Vec<f64>,
        valid: Vec<bool>,
        attr_names: Vec<String>,
        agg_types: Vec<AggType>,
        integer_attrs: Vec<bool>,
        bounds: Bounds,
    ) -> Result<Self> {
        if rows == 0 || cols == 0 || num_attrs == 0 {
            return Err(GridError::EmptyGrid);
        }
        if data.len() != rows * cols * num_attrs {
            return Err(GridError::DimensionMismatch {
                context: "data length != rows * cols * num_attrs",
            });
        }
        let n = rows * cols;
        let mut planes = vec![0.0f64; num_attrs * n];
        for (i, &v) in valid.iter().enumerate() {
            if v {
                for (k, plane) in planes.chunks_exact_mut(n).enumerate() {
                    plane[i] = data[i * num_attrs + k];
                }
            }
        }
        Self::from_planes(
            rows,
            cols,
            num_attrs,
            planes,
            valid,
            attr_names,
            agg_types,
            integer_attrs,
            bounds,
        )
    }

    /// Creates a grid directly from plane-major storage: attribute `k`
    /// occupies `planes[k * num_cells .. (k + 1) * num_cells]`. Attribute
    /// slots of null cells are zeroed.
    #[allow(clippy::too_many_arguments)]
    pub fn from_planes(
        rows: usize,
        cols: usize,
        num_attrs: usize,
        mut planes: Vec<f64>,
        valid: Vec<bool>,
        attr_names: Vec<String>,
        agg_types: Vec<AggType>,
        integer_attrs: Vec<bool>,
        bounds: Bounds,
    ) -> Result<Self> {
        if rows == 0 || cols == 0 || num_attrs == 0 {
            return Err(GridError::EmptyGrid);
        }
        let n = rows * cols;
        if planes.len() != n * num_attrs {
            return Err(GridError::DimensionMismatch {
                context: "data length != rows * cols * num_attrs",
            });
        }
        if valid.len() != n {
            return Err(GridError::DimensionMismatch {
                context: "valid mask length != rows * cols",
            });
        }
        if attr_names.len() != num_attrs
            || agg_types.len() != num_attrs
            || integer_attrs.len() != num_attrs
        {
            return Err(GridError::DimensionMismatch {
                context: "attribute metadata length != num_attrs",
            });
        }
        for plane in planes.chunks_exact_mut(n) {
            for (i, &v) in valid.iter().enumerate() {
                if !v {
                    plane[i] = 0.0;
                }
            }
        }
        let (valid_bits, num_valid) = pack_valid_bits(&valid);
        Ok(GridDataset {
            rows,
            cols,
            num_attrs,
            planes,
            valid_bits,
            num_valid,
            attr_names,
            agg_types,
            integer_attrs,
            bounds,
        })
    }

    /// Convenience constructor for a fully valid univariate grid with
    /// average aggregation — the shape used throughout the paper's worked
    /// examples (Fig. 1).
    ///
    /// ```
    /// use sr_grid::GridDataset;
    /// let g = GridDataset::univariate(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
    /// assert_eq!(g.num_cells(), 6);
    /// assert_eq!(g.features(g.cell_id(1, 2)).as_deref(), Some(&[6.0][..]));
    /// ```
    pub fn univariate(rows: usize, cols: usize, values: Vec<f64>) -> Result<Self> {
        let n = rows * cols;
        GridDataset::new(
            rows,
            cols,
            1,
            values,
            vec![true; n],
            vec!["value".to_string()],
            vec![AggType::Avg],
            vec![false],
            Bounds::unit(),
        )
    }

    /// Number of grid rows (latitude intervals, `m`).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of grid columns (longitude intervals, `n`).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of cells, `m · n`.
    #[inline]
    pub fn num_cells(&self) -> usize {
        self.rows * self.cols
    }

    /// Number of attributes per cell, `p`.
    #[inline]
    pub fn num_attrs(&self) -> usize {
        self.num_attrs
    }

    /// Number of non-null cells.
    #[inline]
    pub fn num_valid_cells(&self) -> usize {
        self.num_valid
    }

    /// Attribute names.
    pub fn attr_names(&self) -> &[String] {
        &self.attr_names
    }

    /// Per-attribute aggregation types.
    pub fn agg_types(&self) -> &[AggType] {
        &self.agg_types
    }

    /// Per-attribute integer-typed flags.
    pub fn integer_attrs(&self) -> &[bool] {
        &self.integer_attrs
    }

    /// Geographic bounds.
    pub fn bounds(&self) -> Bounds {
        self.bounds
    }

    /// Flat row-major cell id for `(row, col)`.
    #[inline]
    pub fn cell_id(&self, row: usize, col: usize) -> CellId {
        debug_assert!(row < self.rows && col < self.cols);
        (row * self.cols + col) as CellId
    }

    /// Inverse of [`GridDataset::cell_id`].
    #[inline]
    pub fn cell_pos(&self, id: CellId) -> (usize, usize) {
        let id = id as usize;
        (id / self.cols, id % self.cols)
    }

    /// Whether the cell has a (non-null) feature vector.
    #[inline]
    pub fn is_valid(&self, id: CellId) -> bool {
        let id = id as usize;
        (self.valid_bits[id >> 6] >> (id & 63)) & 1 != 0
    }

    /// The validity mask materialized as one `bool` per cell (row-major).
    /// Hot paths should use [`GridDataset::valid_words`] or
    /// [`GridDataset::is_valid`] instead of allocating this copy.
    pub fn valid_mask(&self) -> Vec<bool> {
        (0..self.num_cells()).map(|i| self.is_valid(i as CellId)).collect()
    }

    /// The packed validity bitmap: bit `i` of word `i / 64` is cell `i`'s
    /// validity. Bits at and above [`GridDataset::num_cells`] are zero.
    #[inline]
    pub fn valid_words(&self) -> &[u64] {
        &self.valid_bits
    }

    /// Feature vector of a cell (`None` for null cells), gathered across
    /// the attribute planes into an owned vector. Hot loops should read
    /// planes directly via [`GridDataset::attr_plane`].
    #[inline]
    pub fn features(&self, id: CellId) -> Option<Vec<f64>> {
        if !self.is_valid(id) {
            return None;
        }
        Some(self.features_unchecked(id))
    }

    /// Feature vector of a cell without the null check (null cells yield
    /// zeros). Allocates; hot loops should read planes directly.
    #[inline]
    pub fn features_unchecked(&self, id: CellId) -> Vec<f64> {
        let n = self.num_cells();
        let id = id as usize;
        self.planes.chunks_exact(n).map(|plane| plane[id]).collect()
    }

    /// Gathers a cell's feature vector into `out` (which must be
    /// `num_attrs` long) without allocating. Null cells yield zeros.
    #[inline]
    pub fn features_into(&self, id: CellId, out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.num_attrs);
        let n = self.num_cells();
        let id = id as usize;
        for (o, plane) in out.iter_mut().zip(self.planes.chunks_exact(n)) {
            *o = plane[id];
        }
    }

    /// Value of attribute `k` for a valid cell.
    #[inline]
    pub fn value(&self, id: CellId, k: usize) -> f64 {
        self.planes[k * self.num_cells() + id as usize]
    }

    /// Sets attribute `k` of a cell (does not change validity).
    pub fn set_value(&mut self, id: CellId, k: usize, v: f64) {
        let n = self.num_cells();
        self.planes[k * n + id as usize] = v;
    }

    /// Marks a cell as valid (its current feature slots become live).
    pub fn set_valid(&mut self, id: CellId) {
        let i = id as usize;
        let bit = 1u64 << (i & 63);
        if self.valid_bits[i >> 6] & bit == 0 {
            self.valid_bits[i >> 6] |= bit;
            self.num_valid += 1;
        }
    }

    /// Marks a cell as null, zeroing its feature slots.
    pub fn set_null(&mut self, id: CellId) {
        let i = id as usize;
        let bit = 1u64 << (i & 63);
        if self.valid_bits[i >> 6] & bit != 0 {
            self.valid_bits[i >> 6] &= !bit;
            self.num_valid -= 1;
        }
        let n = self.num_cells();
        for plane in self.planes.chunks_exact_mut(n) {
            plane[i] = 0.0;
        }
    }

    /// Contiguous plane of attribute `k`: one value per cell, row-major.
    /// This is the hot-path accessor the flat scan kernels stream over.
    #[inline]
    pub fn attr_plane(&self, k: usize) -> &[f64] {
        let n = self.num_cells();
        &self.planes[k * n..(k + 1) * n]
    }

    /// Mutable plane of attribute `k`.
    #[inline]
    pub fn attr_plane_mut(&mut self, k: usize) -> &mut [f64] {
        let n = self.num_cells();
        &mut self.planes[k * n..(k + 1) * n]
    }

    /// All attribute planes as one flat slice (plane `k` at
    /// `k * num_cells ..`), for kernels that walk several planes at once.
    #[inline]
    pub fn planes(&self) -> &[f64] {
        &self.planes
    }

    /// Iterator over the ids of valid (non-null) cells, ascending.
    pub fn valid_cells(&self) -> ValidCells<'_> {
        ValidCells {
            words: &self.valid_bits,
            word_idx: 0,
            current: self.valid_bits.first().copied().unwrap_or(0),
        }
    }

    /// Geographic centroid of a cell, derived from the bounds and grid shape.
    pub fn cell_centroid(&self, id: CellId) -> (f64, f64) {
        let (r, c) = self.cell_pos(id);
        let lat_step = (self.bounds.lat_max - self.bounds.lat_min) / self.rows as f64;
        let lon_step = (self.bounds.lon_max - self.bounds.lon_min) / self.cols as f64;
        (
            self.bounds.lat_min + (r as f64 + 0.5) * lat_step,
            self.bounds.lon_min + (c as f64 + 0.5) * lon_step,
        )
    }

    /// Column-wise copy of attribute `k` over *valid* cells, in cell-id
    /// order, together with the corresponding cell ids.
    pub fn attr_column(&self, k: usize) -> Result<(Vec<CellId>, Vec<f64>)> {
        if k >= self.num_attrs {
            return Err(GridError::AttributeOutOfRange { index: k, num_attrs: self.num_attrs });
        }
        let plane = self.attr_plane(k);
        let mut ids = Vec::with_capacity(self.num_valid);
        let mut vals = Vec::with_capacity(self.num_valid);
        for id in self.valid_cells() {
            ids.push(id);
            vals.push(plane[id as usize]);
        }
        Ok((ids, vals))
    }

    /// Per-attribute maximum absolute value over valid cells (used by
    /// normalization). Returns zeros when the grid has no valid cells.
    ///
    /// Null slots hold zeros, so each plane can be scanned branch-free —
    /// a null cell can never raise a (non-negative) running maximum.
    pub fn attr_max_abs(&self) -> Vec<f64> {
        let n = self.num_cells();
        self.planes
            .chunks_exact(n)
            .map(|plane| {
                let mut m = 0.0f64;
                for &v in plane {
                    let a = v.abs();
                    if a > m {
                        m = a;
                    }
                }
                m
            })
            .collect()
    }

    /// Materialized copy of the data in the classic cell-major interleaved
    /// layout (`id * num_attrs + k`), for serialization and tests. Null
    /// cells contribute zeros.
    pub fn raw_data(&self) -> Vec<f64> {
        let n = self.num_cells();
        let p = self.num_attrs;
        let mut out = vec![0.0f64; n * p];
        for (k, plane) in self.planes.chunks_exact(n).enumerate() {
            for (i, &v) in plane.iter().enumerate() {
                out[i * p + k] = v;
            }
        }
        out
    }
}

/// Word-skipping iterator over the set bits of a validity bitmap (ascending
/// cell ids). Runs of 64 null cells cost one word test.
pub struct ValidCells<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for ValidCells<'_> {
    type Item = CellId;

    #[inline]
    fn next(&mut self) -> Option<CellId> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let bit = self.current.trailing_zeros();
        self.current &= self.current - 1;
        Some((self.word_idx as u32) * 64 + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_grid() -> GridDataset {
        // 2×3 grid, 1 attribute, values 1..=6
        GridDataset::univariate(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap()
    }

    #[test]
    fn construction_validates_shapes() {
        assert_eq!(GridDataset::univariate(0, 3, vec![]).unwrap_err(), GridError::EmptyGrid);
        assert!(GridDataset::univariate(2, 2, vec![1.0; 3]).is_err());
    }

    #[test]
    fn cell_id_roundtrip() {
        let g = small_grid();
        for r in 0..2 {
            for c in 0..3 {
                let id = g.cell_id(r, c);
                assert_eq!(g.cell_pos(id), (r, c));
            }
        }
    }

    #[test]
    fn features_and_validity() {
        let mut g = small_grid();
        assert_eq!(g.features(0).as_deref(), Some(&[1.0][..]));
        g.set_null(0);
        assert!(!g.is_valid(0));
        assert_eq!(g.features(0), None);
        assert_eq!(g.num_valid_cells(), 5);
        let ids: Vec<_> = g.valid_cells().collect();
        assert_eq!(ids, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn attr_column_and_bounds_check() {
        let g = small_grid();
        let (ids, vals) = g.attr_column(0).unwrap();
        assert_eq!(ids.len(), 6);
        assert_eq!(vals, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert!(matches!(g.attr_column(1), Err(GridError::AttributeOutOfRange { index: 1, .. })));
    }

    #[test]
    fn planes_match_interleaved_construction() {
        let g = GridDataset::new(
            2,
            2,
            2,
            vec![1.0, 10.0, 2.0, 20.0, 3.0, 30.0, 4.0, 40.0],
            vec![true; 4],
            vec!["a".into(), "b".into()],
            vec![AggType::Avg, AggType::Avg],
            vec![false, false],
            Bounds::unit(),
        )
        .unwrap();
        assert_eq!(g.attr_plane(0), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(g.attr_plane(1), &[10.0, 20.0, 30.0, 40.0]);
        assert_eq!(g.raw_data(), vec![1.0, 10.0, 2.0, 20.0, 3.0, 30.0, 4.0, 40.0]);
        assert_eq!(g.features_unchecked(2), vec![3.0, 30.0]);
        let mut buf = [0.0; 2];
        g.features_into(3, &mut buf);
        assert_eq!(buf, [4.0, 40.0]);
    }

    #[test]
    fn from_planes_matches_new() {
        let a = GridDataset::new(
            1,
            3,
            2,
            vec![1.0, 4.0, 2.0, 5.0, 3.0, 6.0],
            vec![true, false, true],
            vec!["a".into(), "b".into()],
            vec![AggType::Avg, AggType::Sum],
            vec![false, false],
            Bounds::unit(),
        )
        .unwrap();
        let b = GridDataset::from_planes(
            1,
            3,
            2,
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
            vec![true, false, true],
            vec!["a".into(), "b".into()],
            vec![AggType::Avg, AggType::Sum],
            vec![false, false],
            Bounds::unit(),
        )
        .unwrap();
        assert_eq!(a, b);
        // The null cell's slots were zeroed in both layouts.
        assert_eq!(a.attr_plane(0), &[1.0, 0.0, 3.0]);
        assert_eq!(a.attr_plane(1), &[4.0, 0.0, 6.0]);
    }

    #[test]
    fn null_slots_zeroed_on_construction() {
        let g = GridDataset::new(
            1,
            2,
            1,
            vec![7.0, 9.0],
            vec![false, true],
            vec!["v".into()],
            vec![AggType::Avg],
            vec![false],
            Bounds::unit(),
        )
        .unwrap();
        assert_eq!(g.attr_plane(0), &[0.0, 9.0]);
        assert_eq!(g.features_unchecked(0), vec![0.0]);
    }

    #[test]
    fn valid_words_pack_row_major() {
        let mut g = GridDataset::univariate(2, 3, vec![1.0; 6]).unwrap();
        assert_eq!(g.valid_words(), &[0b111111]);
        g.set_null(2);
        assert_eq!(g.valid_words(), &[0b111011]);
        g.set_valid(2);
        assert_eq!(g.valid_words(), &[0b111111]);
        assert_eq!(g.num_valid_cells(), 6);
        // Idempotent transitions keep the cached count right.
        g.set_null(0);
        g.set_null(0);
        assert_eq!(g.num_valid_cells(), 5);
        g.set_valid(0);
        g.set_valid(0);
        assert_eq!(g.num_valid_cells(), 6);
    }

    #[test]
    fn valid_cells_skips_whole_null_words() {
        // 130 cells spans three bitmap words with a trailing partial word.
        let n = 130usize;
        let mut g = GridDataset::univariate(1, n, vec![1.0; n]).unwrap();
        for i in 0..n as u32 {
            g.set_null(i);
        }
        assert_eq!(g.valid_cells().count(), 0);
        g.set_valid(129);
        assert_eq!(g.valid_cells().collect::<Vec<_>>(), vec![129]);
        g.set_valid(0);
        g.set_valid(64);
        assert_eq!(g.valid_cells().collect::<Vec<_>>(), vec![0, 64, 129]);
        assert_eq!(g.num_valid_cells(), 3);
    }

    #[test]
    fn centroid_of_unit_grid() {
        let g = small_grid();
        let (lat, lon) = g.cell_centroid(g.cell_id(0, 0));
        assert!((lat - 0.25).abs() < 1e-12); // 2 rows => step 0.5
        assert!((lon - 1.0 / 6.0).abs() < 1e-12); // 3 cols => step 1/3
    }

    #[test]
    fn attr_max_abs_ignores_null_cells() {
        let mut g = small_grid();
        g.set_null(5); // removes the 6.0
        assert_eq!(g.attr_max_abs(), vec![5.0]);
    }

    #[test]
    fn bounds_locate_maps_points_to_cells() {
        let b = Bounds::unit();
        assert_eq!(b.locate(0.1, 0.1, 2, 3), Some((0, 0)));
        assert_eq!(b.locate(0.6, 0.9, 2, 3), Some((1, 2)));
        // Max edge belongs to the last row/column.
        assert_eq!(b.locate(1.0, 1.0, 2, 3), Some((1, 2)));
        assert_eq!(b.locate(0.0, 0.0, 2, 3), Some((0, 0)));
        // Outside the bounds (including NaN) → None.
        assert_eq!(b.locate(1.5, 0.5, 2, 3), None);
        assert_eq!(b.locate(0.5, -0.1, 2, 3), None);
        assert_eq!(b.locate(f64::NAN, 0.5, 2, 3), None);
    }

    #[test]
    fn bounds_locate_clamped_keeps_strays_on_border() {
        let b = Bounds::unit();
        assert_eq!(b.locate_clamped(5.0, -3.0, 2, 2), (1, 0));
        assert_eq!(b.locate_clamped(-1.0, 2.0, 2, 2), (0, 1));
        // In-bounds points agree with locate.
        assert_eq!(b.locate_clamped(0.7, 0.2, 4, 4), b.locate(0.7, 0.2, 4, 4).unwrap());
    }

    #[test]
    fn bounds_locate_matches_cell_centroid_roundtrip() {
        let bounds = Bounds { lat_min: -10.0, lat_max: 30.0, lon_min: 100.0, lon_max: 120.0 };
        let g = GridDataset::new(
            5,
            4,
            1,
            vec![0.0; 20],
            vec![true; 20],
            vec!["v".into()],
            vec![AggType::Avg],
            vec![false],
            bounds,
        )
        .unwrap();
        for id in 0..g.num_cells() as CellId {
            let (lat, lon) = g.cell_centroid(id);
            assert_eq!(bounds.locate(lat, lon, 5, 4), Some(g.cell_pos(id)));
        }
    }
}
