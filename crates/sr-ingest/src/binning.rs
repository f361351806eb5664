//! Point-to-cell binning with per-cell collapse (`docs/INGESTION.md` §3).
//!
//! Each ingested point lands in exactly one grid cell
//! ([`Bounds::locate_clamped`]: out-of-bounds points clamp to the border
//! cell), and each cell folds its points' attribute samples into one value
//! per attribute with a [`Collapse`] function — the las-rasterizer method
//! set (mean, median, min, max, count) plus the paper's additive `sum`
//! and categorical `mode` (§II, §IV-A2). This is the workspace's only
//! point binner: batch grids and live streams both fold through it.
//!
//! The accumulators are **batch-split invariant**: every fold consumes
//! samples in stream order and keeps state that does not depend on where
//! chunk boundaries fall (running sums, first-wins extrema, stream-order
//! sample lists), so collapsing after N batches is bit-identical to
//! collapsing the concatenated stream in one batch. The incremental ≡
//! batch convergence guarantee of the ingestion contract starts here.
//!
//! NaN rules: a NaN sample is skipped *per attribute* (the point still
//! counts for the cell); a cell is valid once any point binned into it,
//! even if every sample was NaN; an attribute with zero finite samples in
//! a valid cell collapses to `0.0`.

use crate::stream::PointChunk;
use crate::{IngestError, Result};
use sr_core::allocator::mode;
use sr_grid::{AggType, Bounds, CellId, GridDataset};

/// Per-attribute collapse function applied to a cell's samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Collapse {
    /// Arithmetic mean of finite samples.
    Mean,
    /// Median of finite samples (average of the two middle order
    /// statistics for even counts). With `Mode`, the collapse whose
    /// per-cell state grows with the sample count — see the contract's
    /// memory note.
    Median,
    /// Smallest finite sample (first occurrence wins ties).
    Min,
    /// Largest finite sample (first occurrence wins ties).
    Max,
    /// Number of finite samples.
    Count,
    /// Sum of finite samples (shares `Mean`'s running-sum plane).
    Sum,
    /// Most frequent finite sample, ties broken by first occurrence in
    /// stream order (keeps samples like `Median`).
    Mode,
}

impl Collapse {
    /// The aggregation type the collapsed attribute carries in the grid:
    /// `Count` and `Sum` are additive across cells (`Sum`), `Mode` is a
    /// categorical code (`Mode`), everything else is a per-cell level
    /// (`Avg`).
    pub fn agg_type(self) -> AggType {
        match self {
            Collapse::Count | Collapse::Sum => AggType::Sum,
            Collapse::Mode => AggType::Mode,
            _ => AggType::Avg,
        }
    }

    /// Whether the collapsed attribute is integer-typed (`Count` only).
    pub fn integer_attr(self) -> bool {
        self == Collapse::Count
    }

    /// Parses the lowercase name used by `srtool ingest --attrs`.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "mean" => Collapse::Mean,
            "median" => Collapse::Median,
            "min" => Collapse::Min,
            "max" => Collapse::Max,
            "count" => Collapse::Count,
            "sum" => Collapse::Sum,
            "mode" => Collapse::Mode,
            _ => return None,
        })
    }

    /// The lowercase name [`Collapse::parse`] accepts.
    pub fn name(self) -> &'static str {
        match self {
            Collapse::Mean => "mean",
            Collapse::Median => "median",
            Collapse::Min => "min",
            Collapse::Max => "max",
            Collapse::Count => "count",
            Collapse::Sum => "sum",
            Collapse::Mode => "mode",
        }
    }
}

/// One attribute of the ingestion schema.
#[derive(Debug, Clone)]
pub struct AttrSpec {
    /// Attribute name carried into the grid.
    pub name: String,
    /// Collapse function for this attribute.
    pub collapse: Collapse,
}

/// The ingestion schema: the stream's attribute columns in order.
#[derive(Debug, Clone)]
pub struct IngestSchema {
    /// Attribute specs, one per stream column after `x y`.
    pub attrs: Vec<AttrSpec>,
}

impl IngestSchema {
    /// Parses the `srtool ingest --attrs` syntax:
    /// `name:collapse[,name:collapse…]`, e.g. `temp:mean,hits:count`.
    pub fn parse(spec: &str) -> Option<Self> {
        let mut attrs = Vec::new();
        for part in spec.split(',') {
            let (name, collapse) = part.split_once(':')?;
            if name.is_empty() {
                return None;
            }
            attrs.push(AttrSpec { name: name.to_string(), collapse: Collapse::parse(collapse)? });
        }
        if attrs.is_empty() {
            None
        } else {
            Some(IngestSchema { attrs })
        }
    }

    /// Attribute arity `p`.
    pub fn num_attrs(&self) -> usize {
        self.attrs.len()
    }

    /// Builds the all-null grid this schema's collapsed values land in.
    pub fn empty_grid(
        &self,
        rows: usize,
        cols: usize,
        bounds: Bounds,
    ) -> sr_grid::Result<GridDataset> {
        let p = self.num_attrs();
        GridDataset::new(
            rows,
            cols,
            p,
            vec![0.0; rows * cols * p],
            vec![false; rows * cols],
            self.attrs.iter().map(|a| a.name.clone()).collect(),
            self.attrs.iter().map(|a| a.collapse.agg_type()).collect(),
            self.attrs.iter().map(|a| a.collapse.integer_attr()).collect(),
            bounds,
        )
    }
}

/// Persistent per-cell fold state for every attribute of the schema. Lives
/// across batches; [`CellAccumulators::bin_chunk`] folds a chunk in and
/// [`CellAccumulators::write_into`] materializes collapsed values for the
/// cells a batch touched.
#[derive(Debug, Clone)]
pub struct CellAccumulators {
    rows: usize,
    cols: usize,
    collapses: Vec<Collapse>,
    /// Running sums, plane-major (`k·n + cell`); `Mean` and `Sum`.
    sums: Vec<f64>,
    /// Finite-sample counts, plane-major; every collapse keeps them
    /// (`Mean`'s divisor, `Count`'s value, the others' seen flag).
    counts: Vec<u64>,
    /// Running extremum, plane-major; `Min`/`Max` only.
    extrema: Vec<f64>,
    /// Sample lists of `Median` and `Mode` attributes: `sample_plane[k]`
    /// is `usize::MAX` for the other attributes, else an index `j` such
    /// that `samples[j·n + cell]` holds the cell's samples in stream order.
    sample_plane: Vec<usize>,
    samples: Vec<Vec<f64>>,
    /// Points binned per cell (any attribute, NaN or not) — the validity
    /// rule: a cell is valid iff at least one point landed in it.
    points: Vec<u64>,
    /// Per-call dirty bitmap scratch.
    dirty_bits: Vec<u64>,
}

impl CellAccumulators {
    /// Fresh accumulators for an `rows × cols` grid under `schema`.
    pub fn new(rows: usize, cols: usize, schema: &IngestSchema) -> Self {
        let n = rows * cols;
        let p = schema.num_attrs();
        let collapses: Vec<Collapse> = schema.attrs.iter().map(|a| a.collapse).collect();
        let mut sample_plane = vec![usize::MAX; p];
        let mut planes = 0usize;
        for (k, c) in collapses.iter().enumerate() {
            if matches!(c, Collapse::Median | Collapse::Mode) {
                sample_plane[k] = planes;
                planes += 1;
            }
        }
        CellAccumulators {
            rows,
            cols,
            collapses,
            sums: vec![0.0; n * p],
            counts: vec![0; n * p],
            extrema: vec![0.0; n * p],
            sample_plane,
            samples: vec![Vec::new(); planes * n],
            points: vec![0; n],
            dirty_bits: vec![0; n.div_ceil(64)],
        }
    }

    /// Folds a chunk of points into the accumulators and appends the
    /// distinct cells that received at least one point to `dirty`
    /// (deduplicated within this call, ascending). Returns the number of
    /// points binned.
    ///
    /// A chunk whose arity differs from the schema's, or whose `ys` /
    /// `attrs` lengths disagree with `xs`, is rejected with
    /// [`IngestError::Config`] before anything is folded.
    pub fn bin_chunk(
        &mut self,
        chunk: &PointChunk,
        bounds: &Bounds,
        dirty: &mut Vec<CellId>,
    ) -> Result<usize> {
        let n = self.rows * self.cols;
        let p = self.collapses.len();
        let len = chunk.xs.len();
        if chunk.num_attrs != p
            || chunk.ys.len() != len
            || len.checked_mul(p) != Some(chunk.attrs.len())
        {
            return Err(IngestError::Config(format!(
                "malformed chunk: {len} xs, {} ys, {} attrs at arity {}; the schema has arity {p}",
                chunk.ys.len(),
                chunk.attrs.len(),
                chunk.num_attrs
            )));
        }
        self.dirty_bits.fill(0);
        for i in 0..chunk.len() {
            let (r, c) = bounds.locate_clamped(chunk.ys[i], chunk.xs[i], self.rows, self.cols);
            let cell = r * self.cols + c;
            self.dirty_bits[cell >> 6] |= 1u64 << (cell & 63);
            self.points[cell] += 1;
            for (k, collapse) in self.collapses.iter().enumerate() {
                let s = chunk.attrs[i * p + k];
                if s.is_nan() {
                    continue;
                }
                let idx = k * n + cell;
                match collapse {
                    Collapse::Mean | Collapse::Sum => self.sums[idx] += s,
                    Collapse::Count => {}
                    Collapse::Min => {
                        if self.counts[idx] == 0 || s < self.extrema[idx] {
                            self.extrema[idx] = s;
                        }
                    }
                    Collapse::Max => {
                        if self.counts[idx] == 0 || s > self.extrema[idx] {
                            self.extrema[idx] = s;
                        }
                    }
                    Collapse::Median | Collapse::Mode => {
                        self.samples[self.sample_plane[k] * n + cell].push(s);
                    }
                }
                self.counts[idx] += 1;
            }
        }
        for (w, &word) in self.dirty_bits.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                dirty.push((w * 64 + b) as CellId);
                bits &= bits - 1;
            }
        }
        Ok(len)
    }

    /// The collapsed value of attribute `k` in `cell` under the current
    /// fold state (`0.0` when the attribute has no finite samples).
    pub fn collapsed(&self, cell: CellId, k: usize) -> f64 {
        let n = self.rows * self.cols;
        let idx = k * n + cell as usize;
        let count = self.counts[idx];
        match self.collapses[k] {
            Collapse::Mean => {
                if count == 0 {
                    0.0
                } else {
                    self.sums[idx] / count as f64
                }
            }
            Collapse::Count => count as f64,
            Collapse::Sum => self.sums[idx],
            Collapse::Min | Collapse::Max => {
                if count == 0 {
                    0.0
                } else {
                    self.extrema[idx]
                }
            }
            Collapse::Median => median(&self.samples[self.sample_plane[k] * n + cell as usize]),
            Collapse::Mode => {
                if count == 0 {
                    0.0
                } else {
                    mode(&self.samples[self.sample_plane[k] * n + cell as usize], &mut Vec::new())
                }
            }
        }
    }

    /// Writes the collapsed values of the listed cells into `grid` and
    /// marks them valid. `grid` must share this accumulator's shape and
    /// schema arity.
    pub fn write_into(&self, grid: &mut GridDataset, cells: &[CellId]) {
        debug_assert_eq!(grid.num_cells(), self.rows * self.cols);
        debug_assert_eq!(grid.num_attrs(), self.collapses.len());
        for &cell in cells {
            debug_assert!(self.points[cell as usize] > 0);
            for k in 0..self.collapses.len() {
                grid.set_value(cell, k, self.collapsed(cell, k));
            }
            grid.set_valid(cell);
        }
    }

    /// Points binned into a cell so far.
    pub fn points_in(&self, cell: CellId) -> u64 {
        self.points[cell as usize]
    }

    /// Total cells that have received at least one point.
    pub fn occupied_cells(&self) -> usize {
        self.points.iter().filter(|&&c| c > 0).count()
    }
}

/// Median of a sample multiset: sort a copy in `total_cmp` order (NaN never
/// enters — binning filters it), take the middle value, or for even counts
/// the average of the two middle order statistics.
fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(|a, b| a.total_cmp(b));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema(spec: &str) -> IngestSchema {
        IngestSchema::parse(spec).unwrap()
    }

    fn chunk_of(points: &[(f64, f64, &[f64])], p: usize) -> PointChunk {
        let mut c = PointChunk::with_capacity(points.len(), p);
        for (x, y, attrs) in points {
            c.push(*x, *y, attrs);
        }
        c
    }

    fn bin_all(s: &IngestSchema, points: &[(f64, f64, &[f64])]) -> (CellAccumulators, Vec<CellId>) {
        let mut acc = CellAccumulators::new(2, 2, s);
        let mut dirty = Vec::new();
        acc.bin_chunk(&chunk_of(points, s.num_attrs()), &Bounds::unit(), &mut dirty).unwrap();
        (acc, dirty)
    }

    #[test]
    fn schema_parsing_round_trips() {
        let s = schema("temp:mean,depth:median,lo:min,hi:max,hits:count");
        assert_eq!(s.num_attrs(), 5);
        assert_eq!(s.attrs[1].collapse, Collapse::Median);
        assert_eq!(s.attrs[4].collapse.agg_type(), AggType::Sum);
        assert!(s.attrs[4].collapse.integer_attr());
        assert!(IngestSchema::parse("bad").is_none());
        assert!(IngestSchema::parse("a:histogram").is_none());
        assert!(IngestSchema::parse("").is_none());
    }

    #[test]
    fn mean_min_max_count_collapse() {
        let s = schema("m:mean,lo:min,hi:max,n:count");
        // All three points land in cell (0,0) of the 2×2 unit grid
        // (lat/lon < 0.5).
        let pts: Vec<(f64, f64, &[f64])> = vec![
            (0.1, 0.1, &[1.0, 5.0, 5.0, 0.0][..]),
            (0.2, 0.2, &[2.0, 3.0, 9.0, 0.0][..]),
            (0.3, 0.3, &[6.0, 4.0, 7.0, 0.0][..]),
        ];
        let (acc, dirty) = bin_all(&s, &pts);
        assert_eq!(dirty, vec![0]);
        assert_eq!(acc.collapsed(0, 0), 3.0);
        assert_eq!(acc.collapsed(0, 1), 3.0);
        assert_eq!(acc.collapsed(0, 2), 9.0);
        assert_eq!(acc.collapsed(0, 3), 3.0);
    }

    #[test]
    fn median_odd_and_even_counts() {
        let s = schema("d:median");
        let odd: Vec<(f64, f64, &[f64])> =
            vec![(0.1, 0.1, &[3.0][..]), (0.1, 0.1, &[1.0][..]), (0.1, 0.1, &[2.0][..])];
        let (acc, _) = bin_all(&s, &odd);
        assert_eq!(acc.collapsed(0, 0), 2.0);
        // Even count: average of the two middle order statistics.
        let even: Vec<(f64, f64, &[f64])> = vec![
            (0.1, 0.1, &[4.0][..]),
            (0.1, 0.1, &[1.0][..]),
            (0.1, 0.1, &[3.0][..]),
            (0.1, 0.1, &[2.0][..]),
        ];
        let (acc, _) = bin_all(&s, &even);
        assert_eq!(acc.collapsed(0, 0), 2.5);
    }

    #[test]
    fn median_single_point_cell_is_that_point() {
        let s = schema("d:median");
        let (acc, dirty) = bin_all(&s, &[(0.9, 0.9, &[42.0][..])]);
        assert_eq!(dirty, vec![3]);
        assert_eq!(acc.collapsed(3, 0), 42.0);
    }

    #[test]
    fn all_nan_attr_leaves_cell_valid_with_zero() {
        let s = schema("a:mean,b:median");
        let (acc, dirty) = bin_all(&s, &[(0.1, 0.1, &[f64::NAN, f64::NAN][..])]);
        assert_eq!(dirty, vec![0]);
        assert_eq!(acc.points_in(0), 1);
        assert_eq!(acc.collapsed(0, 0), 0.0);
        assert_eq!(acc.collapsed(0, 1), 0.0);
        let mut grid = s.empty_grid(2, 2, Bounds::unit()).unwrap();
        acc.write_into(&mut grid, &dirty);
        assert!(grid.is_valid(0));
        assert_eq!(grid.value(0, 0), 0.0);
    }

    #[test]
    fn nan_samples_skip_only_their_attribute() {
        let s = schema("a:mean,n:count");
        let pts: Vec<(f64, f64, &[f64])> =
            vec![(0.1, 0.1, &[2.0, 1.0][..]), (0.1, 0.1, &[f64::NAN, 1.0][..])];
        let (acc, _) = bin_all(&s, &pts);
        // Mean over the single finite sample; count sees both finite ones.
        assert_eq!(acc.collapsed(0, 0), 2.0);
        assert_eq!(acc.collapsed(0, 1), 2.0);
    }

    #[test]
    fn out_of_bounds_points_clamp_to_border_cells() {
        let s = schema("v:mean");
        let pts: Vec<(f64, f64, &[f64])> =
            vec![(-5.0, -5.0, &[1.0][..]), (9.0, 9.0, &[2.0][..]), (-3.0, 5.0, &[3.0][..])];
        let (acc, dirty) = bin_all(&s, &pts);
        // x is longitude (columns), y latitude (rows): (x=-3, y=5) clamps
        // to the last row, first column — cell (1,0).
        assert_eq!(dirty, vec![0, 2, 3]);
        assert_eq!(acc.collapsed(2, 0), 3.0);
    }

    #[test]
    fn sum_and_mode_collapse_across_batches() {
        let s = schema("s:sum,c:mode");
        let mut acc = CellAccumulators::new(2, 2, &s);
        let mut dirty = Vec::new();
        let batches: [Vec<(f64, f64, &[f64])>; 2] = [
            vec![(0.1, 0.1, &[1.5, 3.0][..]), (0.9, 0.9, &[f64::NAN, f64::NAN][..])],
            vec![
                (0.1, 0.1, &[2.0, 8.0][..]),
                (0.2, 0.2, &[4.0, 3.0][..]),
                (0.1, 0.1, &[f64::NAN, 8.0][..]),
            ],
        ];
        for batch in &batches {
            acc.bin_chunk(&chunk_of(batch, 2), &Bounds::unit(), &mut dirty).unwrap();
        }
        // Sum skips the NaN sample. Mode sees 3 | 8 3 8: a tie at two
        // samples each, won by 3.0's first occurrence in the earlier batch
        // (the later batch alone, or a last-occurrence rule, picks 8.0).
        assert_eq!(acc.collapsed(0, 0), 7.5);
        assert_eq!(acc.collapsed(0, 1), 3.0);
        // A valid cell with zero finite samples collapses to 0.0.
        assert_eq!((acc.collapsed(3, 0), acc.collapsed(3, 1)), (0.0, 0.0));

        let mut grid = s.empty_grid(2, 2, Bounds::unit()).unwrap();
        assert_eq!(grid.agg_types(), &[AggType::Sum, AggType::Mode]);
        dirty.sort_unstable();
        dirty.dedup();
        acc.write_into(&mut grid, &dirty);
        assert_eq!(grid.features(0).unwrap(), &[7.5, 3.0]);
        assert_eq!(grid.features(3).unwrap(), &[0.0, 0.0]);
        // Cells no point landed in stay invalid.
        assert!(!grid.is_valid(1) && !grid.is_valid(2));
    }

    #[test]
    fn malformed_chunks_are_rejected_untouched() {
        let s = schema("v:mean,n:count");
        let (mut acc, _) = bin_all(&s, &[(0.1, 0.1, &[1.0, 1.0][..])]);
        let before = format!("{acc:?}");
        let malformed = [
            // Arity differs from the schema's.
            PointChunk { xs: vec![0.5], ys: vec![0.5], attrs: vec![1.0, 2.0, 3.0], num_attrs: 3 },
            // Fewer latitudes than longitudes.
            PointChunk { xs: vec![0.5, 0.6], ys: vec![0.5], attrs: vec![1.0; 4], num_attrs: 2 },
            // Too few attribute samples for the point count.
            PointChunk {
                xs: vec![0.5, 0.6],
                ys: vec![0.5, 0.6],
                attrs: vec![1.0; 3],
                num_attrs: 2,
            },
        ];
        for chunk in &malformed {
            let mut dirty = Vec::new();
            let r = acc.bin_chunk(chunk, &Bounds::unit(), &mut dirty);
            assert!(matches!(r, Err(IngestError::Config(_))), "{chunk:?} accepted");
            assert!(dirty.is_empty());
            assert_eq!(format!("{acc:?}"), before);
        }
    }

    #[test]
    fn batch_splits_do_not_change_collapsed_bits() {
        let s = schema("m:mean,d:median,lo:min,hi:max,n:count,s:sum,o:mode");
        let p = s.num_attrs();
        // A stream of awkward values whose folds are sensitive to order.
        let vals = [0.1, 0.7, 1e-9, 3.33, 0.5, 2.25, 1e9, 0.1, -4.5, 7.0, 0.3, 1e-3];
        let pts: Vec<(f64, f64, Vec<f64>)> = vals.iter().map(|&v| (0.2, 0.2, vec![v; p])).collect();

        let one_shot = {
            let mut acc = CellAccumulators::new(2, 2, &s);
            let mut dirty = Vec::new();
            let pts_ref: Vec<(f64, f64, &[f64])> =
                pts.iter().map(|(x, y, a)| (*x, *y, &a[..])).collect();
            acc.bin_chunk(&chunk_of(&pts_ref, p), &Bounds::unit(), &mut dirty).unwrap();
            (0..p).map(|k| acc.collapsed(0, k).to_bits()).collect::<Vec<_>>()
        };
        for split in [1usize, 2, 3, 5, 7] {
            let mut acc = CellAccumulators::new(2, 2, &s);
            for batch in pts.chunks(split) {
                let mut dirty = Vec::new();
                let pts_ref: Vec<(f64, f64, &[f64])> =
                    batch.iter().map(|(x, y, a)| (*x, *y, &a[..])).collect();
                acc.bin_chunk(&chunk_of(&pts_ref, p), &Bounds::unit(), &mut dirty).unwrap();
            }
            let bits = (0..p).map(|k| acc.collapsed(0, k).to_bits()).collect::<Vec<_>>();
            assert_eq!(bits, one_shot, "split {split} diverged");
        }
    }
}
