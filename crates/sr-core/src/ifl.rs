//! Information-loss calculation for a partition — §III-A4 of the paper.
//!
//! Eq. (3) compares every original cell's value with its *representative*
//! value in the re-partitioned dataset. Representatives are aggregation
//! aware (exactly as §III-A4 and §III-C describe): a `Sum`-typed group value
//! is divided back by the group's member count, while an `Avg`-typed group
//! value applies to each member directly.

use crate::allocator::GroupFeatures;
use crate::partition::Partition;
use sr_grid::{AggType, CellId, GridDataset, IflOptions};

/// Representative value of a cell inside a group, given the group's
/// allocated value for one attribute and the group's valid-member count
/// (§III-C): `Sum`-typed values are divided back by the member count,
/// `Avg`/`Mode` values apply to each member directly.
///
/// Public so downstream consumers (the serving layer, reconstruction) can
/// answer per-cell queries without materializing a full grid.
#[inline]
pub fn representative(group_value: f64, agg: AggType, members: usize) -> f64 {
    match agg {
        AggType::Sum => group_value / members as f64,
        AggType::Avg | AggType::Mode => group_value,
    }
}

/// Computes the IFL (Eq. 3) between `original` and the re-partitioned
/// dataset described by (`partition`, `group_features`).
///
/// `group_features.row(g)` is the allocated feature vector of group `g`
/// (`None` for null groups — these contain no valid cells and thus never
/// contribute terms).
///
/// Representatives are pre-computed once per (group, attribute) instead of
/// per (cell, attribute), and the per-cell term sum runs on
/// [`sr_par::Pool::global`] in fixed-grain chunks whose partials fold in
/// chunk order — bit-identical at any thread count.
pub fn partition_ifl(
    original: &GridDataset,
    partition: &Partition,
    group_features: &GroupFeatures,
    opts: IflOptions,
) -> f64 {
    partition_ifl_with(original, partition, group_features, opts, sr_par::Pool::global())
}

/// [`partition_ifl`] on an explicit pool.
pub fn partition_ifl_with(
    original: &GridDataset,
    partition: &Partition,
    group_features: &GroupFeatures,
    opts: IflOptions,
    pool: &sr_par::Pool,
) -> f64 {
    debug_assert_eq!(group_features.num_groups(), partition.num_groups());
    let p = original.num_attrs();
    let aggs = original.agg_types();
    let n_groups = partition.num_groups();
    let cells: Vec<CellId> = original.valid_cells().collect();

    // Per-(group, attribute) representatives, computed once; the arena's
    // valid-member counts un-sum Sum attributes. Null groups keep 0.0 — a
    // valid cell can only live in a group with features, so those slots
    // are never read for a term.
    let valid_counts = group_features.valid_counts();
    let mut reps = vec![0.0f64; n_groups * p];
    for (g, feature) in group_features.iter().enumerate() {
        if let Some(fv) = feature {
            for k in 0..p {
                reps[g * p + k] = representative(fv[k], aggs[k], valid_counts[g] as usize);
            }
        }
    }

    let mut skip = vec![0u64; n_groups.div_ceil(64)];
    for (g, &count) in valid_counts.iter().enumerate() {
        if count == 1 {
            skip[g >> 6] |= 1u64 << (g & 63);
        }
    }
    let cache = IflCellCache::build(original, &cells, opts);
    ifl_over_cells(original, partition, &reps, &skip, &cells, &cache, pool)
}

/// Tests the skip bit of group `g`.
#[inline]
fn skip_bit(skip: &[u64], g: usize) -> bool {
    (skip[g >> 6] >> (g & 63)) & 1 != 0
}

/// Per-run cache of the partition-independent parts of Eq. 3: the inverse
/// denominator of every (cell, attribute) term — 0.0 for skipped
/// zero-denominator terms, unused for `Mode` attributes — and the fixed
/// term count. The driver evaluates the IFL dozens of times per run; the
/// denominators and the averaging count never change between evaluations.
#[derive(Debug, Clone)]
pub(crate) struct IflCellCache {
    /// One `2p`-wide row per listed cell: the cell's `p` attribute values
    /// followed by its `p` inverse denominators (`1 / |d(k)|`, or 0.0 when
    /// the term is skipped because `|d(k)| ≤ zero_eps`; never read for
    /// `Mode` attributes). Values and inverses of a cell share a row so the
    /// kernel touches one contiguous span per cell — at `p = 4` exactly one
    /// cache line — instead of two grid-sized buffers.
    data: Vec<f64>,
    /// Total contributing terms (Eq. 3's averaging denominator).
    terms: usize,
}

impl IflCellCache {
    pub(crate) fn build(original: &GridDataset, cells: &[CellId], opts: IflOptions) -> Self {
        let p = original.num_attrs();
        let aggs = original.agg_types();
        let stride = 2 * p;
        // Single cell-outer pass: each iteration reads one slot from every
        // plane (p near-sequential read streams over ascending cell ids)
        // and fills one contiguous `2p` row — values then inverse
        // denominators — so the 13 MB arena is written exactly once,
        // instead of 2p strided sweeps.
        let mut data = vec![0.0f64; cells.len() * stride];
        let planes: Vec<&[f64]> = (0..p).map(|k| original.attr_plane(k)).collect();
        let mut terms = 0usize;
        for (i, &id) in cells.iter().enumerate() {
            let row = &mut data[i * stride..(i + 1) * stride];
            for k in 0..p {
                let v = planes[k][id as usize];
                row[k] = v;
                if aggs[k] == AggType::Mode {
                    // Categorical terms always contribute (as mismatch
                    // indicators); the inverse slot is never read.
                    terms += 1;
                    continue;
                }
                let denom = v.abs();
                if denom > opts.zero_eps {
                    row[p + k] = 1.0 / denom;
                    terms += 1;
                }
                // else: percentage error undefined at zero; the slot stays
                // 0.0 and the averaging denominator shrinks.
            }
        }
        IflCellCache { data, terms }
    }

    /// Recomputes the row of the cell at position `pos` of the cell list
    /// this cache was built over (which must still map `pos` to `id`),
    /// after `id`'s attribute values changed in `original`. Adjusts the
    /// cached term count by the row's before/after delta, so the result is
    /// bit-identical to a fresh [`IflCellCache::build`] over the updated
    /// grid — rows are built independently, and term counting is exactly
    /// the build-time rule re-applied to one row.
    pub(crate) fn update_row(
        &mut self,
        original: &GridDataset,
        pos: usize,
        id: CellId,
        opts: IflOptions,
    ) {
        let p = original.num_attrs();
        let aggs = original.agg_types();
        let stride = 2 * p;
        let row = &mut self.data[pos * stride..(pos + 1) * stride];
        let mut old_terms = 0usize;
        let mut new_terms = 0usize;
        for k in 0..p {
            if aggs[k] == AggType::Mode {
                // Mode terms always count and never read the inverse slot;
                // the before/after delta for them is zero by construction.
                old_terms += 1;
                new_terms += 1;
                row[k] = original.value(id, k);
                continue;
            }
            if row[p + k] != 0.0 {
                old_terms += 1;
            }
            let v = original.value(id, k);
            row[k] = v;
            row[p + k] = 0.0;
            let denom = v.abs();
            if denom > opts.zero_eps {
                row[p + k] = 1.0 / denom;
                new_terms += 1;
            }
        }
        self.terms = self.terms + new_terms - old_terms;
    }

    /// Total contributing terms — Eq. 3's averaging denominator.
    pub(crate) fn terms(&self) -> usize {
        self.terms
    }
}

/// The shared Eq. 3 kernel: per-cell percentage-error terms against the
/// pre-computed representatives, summed in fixed-grain chunks whose partials
/// fold in chunk order (bit-identical at any thread count).
///
/// Skipped terms carry a 0.0 inverse denominator; adding
/// `|d − r| · 0.0 = 0.0` to a non-negative partial sum leaves it unchanged,
/// so no per-term branch is needed. Cells whose group is flagged in `skip`
/// (single-valid-member groups) contribute only exact-zero terms and are
/// skipped wholesale — fine partitions are dominated by them.
fn ifl_over_cells(
    original: &GridDataset,
    partition: &Partition,
    reps: &[f64],
    skip: &[u64],
    cells: &[CellId],
    cache: &IflCellCache,
    pool: &sr_par::Pool,
) -> f64 {
    let p = original.num_attrs();
    let aggs = original.agg_types();
    let has_mode = aggs.contains(&AggType::Mode);
    let partials =
        pool.par_map_chunks(cells.len(), sr_par::fixed_grain(cells.len(), 64), |range| {
            // Dispatch to a monomorphized kernel for the common attribute
            // counts: a compile-time trip count lets the per-cell term loop
            // unroll fully, which the runtime-`p` loop never does. Each
            // variant adds the same terms to the same accumulator in the
            // same ascending-`k` order — identical bits, only less loop
            // bookkeeping.
            if has_mode {
                chunk_sum_mode(partition, reps, skip, cells, cache, aggs, p, range)
            } else {
                match p {
                    1 => chunk_sum::<1>(partition, reps, skip, cells, cache, range),
                    2 => chunk_sum::<2>(partition, reps, skip, cells, cache, range),
                    4 => chunk_sum::<4>(partition, reps, skip, cells, cache, range),
                    _ => chunk_sum_dyn(partition, reps, skip, cells, cache, p, range),
                }
            }
        });

    if cache.terms == 0 {
        return 0.0;
    }
    partials.iter().sum::<f64>() / cache.terms as f64
}

/// One chunk of the Eq. 3 sum with a compile-time attribute count.
///
/// Each cell's `p` terms are first folded into a per-cell subtotal, and the
/// subtotals are then added to the chunk partial in ascending cell order.
/// This two-level grouping is the canonical association of the Eq. 3 sum:
/// the driver caches exactly these per-cell subtotals and re-folds them in
/// the same order ([`fold_cell_terms`]), so both produce identical bits.
fn chunk_sum<const P: usize>(
    partition: &Partition,
    reps: &[f64],
    skip: &[u64],
    cells: &[CellId],
    cache: &IflCellCache,
    range: std::ops::Range<usize>,
) -> f64 {
    let mut sum = 0.0f64;
    let base = range.start;
    for (i, &id) in cells[range].iter().enumerate() {
        let g = partition.group_of(id) as usize;
        if skip_bit(skip, g) {
            continue;
        }
        let row = (base + i) * 2 * P;
        let d: &[f64; P] = cache.data[row..row + P].try_into().unwrap();
        let inv: &[f64; P] = cache.data[row + P..row + 2 * P].try_into().unwrap();
        let r: &[f64; P] = reps[g * P..g * P + P].try_into().unwrap();
        let mut t = 0.0f64;
        for k in 0..P {
            t += (d[k] - r[k]).abs() * inv[k];
        }
        sum += t;
    }
    sum
}

/// [`chunk_sum`] for attribute counts without a monomorphized variant.
fn chunk_sum_dyn(
    partition: &Partition,
    reps: &[f64],
    skip: &[u64],
    cells: &[CellId],
    cache: &IflCellCache,
    p: usize,
    range: std::ops::Range<usize>,
) -> f64 {
    let mut sum = 0.0f64;
    let base = range.start;
    for (i, &id) in cells[range].iter().enumerate() {
        let g = partition.group_of(id) as usize;
        if skip_bit(skip, g) {
            continue;
        }
        let r = &reps[g * p..g * p + p];
        sum += cell_term_at(cache, base + i, r, &[], false, p);
    }
    sum
}

/// [`chunk_sum_dyn`] with categorical attributes: `Mode` terms are
/// mismatch indicators (§VI), everything else a percentage error.
#[allow(clippy::too_many_arguments)]
fn chunk_sum_mode(
    partition: &Partition,
    reps: &[f64],
    skip: &[u64],
    cells: &[CellId],
    cache: &IflCellCache,
    aggs: &[AggType],
    p: usize,
    range: std::ops::Range<usize>,
) -> f64 {
    let mut sum = 0.0f64;
    let base = range.start;
    for (i, &id) in cells[range].iter().enumerate() {
        let g = partition.group_of(id) as usize;
        if skip_bit(skip, g) {
            continue;
        }
        let r = &reps[g * p..g * p + p];
        sum += cell_term_at(cache, base + i, r, aggs, true, p);
    }
    sum
}

/// The per-cell Eq. 3 subtotal at cell-list position `pos` against a
/// representative row: the cell's `p` terms added in ascending attribute
/// order. This is the exact inner loop of the [`partition_ifl_with`]
/// kernels (including the monomorphized variants — same expression per
/// attribute, same add order), so a cached subtotal can replace a live
/// evaluation bit for bit.
///
/// When `has_mode` is false `aggs` is never read and may be empty.
#[inline]
pub(crate) fn cell_term_at(
    cache: &IflCellCache,
    pos: usize,
    rep_row: &[f64],
    aggs: &[AggType],
    has_mode: bool,
    p: usize,
) -> f64 {
    let row = pos * 2 * p;
    let d = &cache.data[row..row + p];
    let inv = &cache.data[row + p..row + 2 * p];
    let mut t = 0.0f64;
    if has_mode {
        for k in 0..p {
            if aggs[k] == AggType::Mode {
                t += if d[k] == rep_row[k] { 0.0 } else { 1.0 };
            } else {
                t += (d[k] - rep_row[k]).abs() * inv[k];
            }
        }
    } else {
        for k in 0..p {
            t += (d[k] - rep_row[k]).abs() * inv[k];
        }
    }
    t
}

/// Folds a dense array of per-cell subtotals (one slot per listed valid
/// cell, `+0.0` for skipped cells) into the Eq. 3 average, using the same
/// fixed-grain chunking and chunk-order partial fold as [`ifl_over_cells`].
///
/// Adding a `+0.0` subtotal to a non-negative partial is a bitwise no-op,
/// so the result is identical to [`partition_ifl_with`], which skips those
/// cells outright.
pub(crate) fn fold_cell_terms(terms: &[f64], term_count: usize, pool: &sr_par::Pool) -> f64 {
    let partials =
        pool.par_map_chunks(terms.len(), sr_par::fixed_grain(terms.len(), 64), |range| {
            let mut sum = 0.0f64;
            for &t in &terms[range] {
                sum += t;
            }
            sum
        });
    if term_count == 0 {
        return 0.0;
    }
    partials.iter().sum::<f64>() / term_count as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocator::allocate_features;
    use crate::extractor::extract_cell_groups;
    use crate::partition::GroupRect;
    use sr_grid::{normalize_attributes, Bounds};

    #[test]
    fn identity_partition_has_zero_ifl() {
        let g = GridDataset::univariate(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let p = Partition::identity(2, 2);
        let feats = allocate_features(&g, &p);
        let ifl = partition_ifl(&g, &p, &feats, IflOptions::default());
        assert_eq!(ifl, 0.0);
    }

    #[test]
    fn avg_representative_is_group_value() {
        // Group {10, 20} with Avg: representative 15 for both cells.
        // IFL = (|10-15|/10 + |20-15|/20)/2 = (0.5 + 0.25)/2 = 0.375
        let g = GridDataset::univariate(1, 2, vec![10.0, 20.0]).unwrap();
        let p = Partition::new(1, 2, vec![GroupRect { r0: 0, r1: 0, c0: 0, c1: 1 }], vec![0, 0]);
        let feats = allocate_features(&g, &p);
        let ifl = partition_ifl(&g, &p, &feats, IflOptions::default());
        assert!((ifl - 0.375).abs() < 1e-12);
    }

    #[test]
    fn sum_representative_divides_by_member_count() {
        // Counts {10, 20} with Sum: group value 30, representative 15 each.
        let g = GridDataset::new(
            1,
            2,
            1,
            vec![10.0, 20.0],
            vec![true, true],
            vec!["count".into()],
            vec![sr_grid::AggType::Sum],
            vec![false],
            Bounds::unit(),
        )
        .unwrap();
        let p = Partition::new(1, 2, vec![GroupRect { r0: 0, r1: 0, c0: 0, c1: 1 }], vec![0, 0]);
        let feats = allocate_features(&g, &p);
        assert_eq!(feats.row(0), Some(&[30.0][..]));
        let ifl = partition_ifl(&g, &p, &feats, IflOptions::default());
        assert!((ifl - 0.375).abs() < 1e-12);
    }

    #[test]
    fn paper_example5_like_pipeline_keeps_small_ifl() {
        // A near-uniform grid merged at a generous threshold must incur a
        // small but nonzero IFL, and a fully uniform grid exactly zero.
        let uniform = GridDataset::univariate(3, 3, vec![5.0; 9]).unwrap();
        let norm = normalize_attributes(&uniform);
        let p = extract_cell_groups(&norm, 0.0);
        let feats = allocate_features(&uniform, &p);
        assert_eq!(partition_ifl(&uniform, &p, &feats, IflOptions::default()), 0.0);

        let near = GridDataset::univariate(1, 4, vec![100.0, 101.0, 99.0, 100.0]).unwrap();
        let nnorm = normalize_attributes(&near);
        let p2 = extract_cell_groups(&nnorm, 1.0);
        assert_eq!(p2.num_groups(), 1);
        let feats2 = allocate_features(&near, &p2);
        let ifl = partition_ifl(&near, &p2, &feats2, IflOptions::default());
        assert!(ifl > 0.0 && ifl < 0.01, "ifl = {ifl}");
    }

    #[test]
    fn null_cells_do_not_contribute() {
        let mut g = GridDataset::univariate(1, 3, vec![10.0, 10.0, 10.0]).unwrap();
        g.set_null(2);
        let norm = normalize_attributes(&g);
        let p = extract_cell_groups(&norm, 1.0);
        let feats = allocate_features(&g, &p);
        let ifl = partition_ifl(&g, &p, &feats, IflOptions::default());
        assert_eq!(ifl, 0.0);
    }
}
