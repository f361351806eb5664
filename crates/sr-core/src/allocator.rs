//! Feature allocation for cell-groups — Algorithm 2 of the paper (§III-A3).
//!
//! Every cell-group receives one representative feature vector, computed
//! from the **original (unnormalized)** dataset:
//!
//! - `Sum`-aggregated attributes: the sum of the constituent cells' values.
//! - `Avg`-aggregated attributes: the better (by local loss, Eq. 2) of the
//!   mean `A` and the most frequent value `B`; ties favour the mean, and
//!   integer-typed attributes have the mean rounded to the nearest integer
//!   first (Example 4: mean 23.67 → 24, mode 23, equal losses → pick 24).
//!
//! Groups of null cells receive a null (`None`) feature vector.

use crate::partition::Partition;
use sr_grid::{local_loss, GridDataset};

/// Per-chunk scratch reused across groups so the hot allocation loop does
/// zero heap traffic per group: one value column per attribute plus the
/// mode-counting key buffer.
pub(crate) struct Scratch {
    /// `columns[k]` holds attribute `k`'s values of the current group's
    /// valid cells, in row-major cell order.
    columns: Vec<Vec<f64>>,
    /// `(bit pattern, original index)` pairs for the sort-based mode of
    /// large groups.
    keys: Vec<(u64, u32)>,
}

impl Scratch {
    pub(crate) fn new(p: usize) -> Self {
        Scratch { columns: vec![Vec::new(); p], keys: Vec::new() }
    }
}

/// Popcount of validity bits `[start, start + len)`.
#[inline]
fn count_valid_range(words: &[u64], start: usize, len: usize) -> usize {
    debug_assert!(len > 0);
    let last = start + len - 1;
    let (w0, b0) = (start >> 6, start & 63);
    let (w1, b1) = (last >> 6, last & 63);
    let head = !0u64 << b0;
    let tail = !0u64 >> (63 - b1);
    if w0 == w1 {
        return (words[w0] & head & tail).count_ones() as usize;
    }
    let mut c = (words[w0] & head).count_ones() as usize;
    for w in &words[w0 + 1..w1] {
        c += w.count_ones() as usize;
    }
    c + (words[w1] & tail).count_ones() as usize
}

/// Flat arena of allocated group features: one `p`-wide row of values per
/// group plus the group's valid-member count, with no per-group heap
/// allocation. Null groups (no valid member) carry an all-zero row.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupFeatures {
    p: usize,
    /// `values[g·p + k]` = allocated value of attribute `k` for group `g`
    /// (0.0 rows for null groups, which are never read).
    values: Vec<f64>,
    /// Number of valid member cells per group; 0 marks a null group. Also
    /// exactly the count Eq. 3 needs to un-sum `Sum`-typed attributes.
    /// `u32` keeps the per-evaluation count stream half the width of the
    /// pointer-sized form (group counts are bounded by the cell count).
    valid_counts: Vec<u32>,
}

impl GroupFeatures {
    /// Runs Algorithm 2 for every group on [`sr_par::Pool::global`].
    pub fn allocate(original: &GridDataset, partition: &Partition) -> Self {
        Self::allocate_with(original, partition, sr_par::Pool::global())
    }

    /// [`GroupFeatures::allocate`] on an explicit pool. Groups are
    /// independent and emitted in group-id order, so the result is
    /// bit-identical at any thread count.
    pub fn allocate_with(
        original: &GridDataset,
        partition: &Partition,
        pool: &sr_par::Pool,
    ) -> Self {
        let p = original.num_attrs();
        let n_groups = partition.num_groups();
        let mut out = GroupFeatures {
            p,
            values: Vec::with_capacity(n_groups * p),
            valid_counts: Vec::with_capacity(n_groups),
        };
        // Serial pools fill the arena directly — the chunked path below
        // pays for its parallelism with a concatenation copy.
        if pool.threads() <= 1 {
            let mut scratch = Scratch::new(p);
            for gid in 0..n_groups {
                let count = allocate_group_into(
                    original,
                    partition,
                    gid as u32,
                    &mut scratch,
                    &mut out.values,
                );
                out.valid_counts.push(count as u32);
            }
            return out;
        }
        let chunks = pool.par_map_chunks(n_groups, sr_par::fixed_grain(n_groups, 64), |range| {
            let mut scratch = Scratch::new(p);
            let mut values = Vec::with_capacity(range.len() * p);
            let mut counts = Vec::with_capacity(range.len());
            for gid in range {
                counts.push(allocate_group_into(
                    original,
                    partition,
                    gid as u32,
                    &mut scratch,
                    &mut values,
                ) as u32);
            }
            (values, counts)
        });
        for (v, c) in chunks {
            out.values.extend(v);
            out.valid_counts.extend(c);
        }
        out
    }

    /// Number of groups.
    pub fn num_groups(&self) -> usize {
        self.valid_counts.len()
    }

    /// Attribute count per group row.
    pub fn num_attrs(&self) -> usize {
        self.p
    }

    /// The allocated feature row of group `g`, or `None` for a null group.
    pub fn row(&self, g: usize) -> Option<&[f64]> {
        (self.valid_counts[g] > 0).then(|| &self.values[g * self.p..(g + 1) * self.p])
    }

    /// Valid-member count of group `g` (0 for null groups).
    pub fn valid_count(&self, g: usize) -> usize {
        self.valid_counts[g] as usize
    }

    /// Allocated values of every group, row-major: `values()[g·p + k]` is
    /// attribute `k` of group `g` (all-zero rows for null groups).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Valid-member count of every group (0 marks a null group).
    pub fn valid_counts(&self) -> &[u32] {
        &self.valid_counts
    }

    /// Iterates over the groups' feature rows in group-id order (`None`
    /// for null groups).
    pub fn iter(&self) -> impl Iterator<Item = Option<&[f64]>> + '_ {
        (0..self.num_groups()).map(|g| self.row(g))
    }

    /// Number of non-null groups.
    pub fn num_valid_groups(&self) -> usize {
        self.valid_counts.iter().filter(|&&c| c > 0).count()
    }

    /// Assembles an arena from flat parts: `values` holds one `p`-wide row
    /// per entry of `valid_counts`. Rows of null groups (count 0) are
    /// zeroed, so equal features always compare and serialize equal.
    ///
    /// # Panics
    ///
    /// If `values.len() != valid_counts.len() * p`.
    pub fn from_flat(p: usize, mut values: Vec<f64>, valid_counts: Vec<u32>) -> Self {
        assert_eq!(values.len(), valid_counts.len() * p, "from_flat: values are not t × p");
        for (g, _) in valid_counts.iter().enumerate().filter(|(_, &c)| c == 0) {
            values[g * p..(g + 1) * p].fill(0.0);
        }
        GroupFeatures { p, values, valid_counts }
    }
}

/// Representative feature vectors of all groups in `partition`, indexed by
/// group id (null groups have no row). Runs on [`sr_par::Pool::global`];
/// output is bit-identical at any thread count (groups are independent and
/// emitted in group-id order).
pub fn allocate_features(original: &GridDataset, partition: &Partition) -> GroupFeatures {
    GroupFeatures::allocate(original, partition)
}

/// [`allocate_features`] on an explicit pool.
pub fn allocate_features_with(
    original: &GridDataset,
    partition: &Partition,
    pool: &sr_par::Pool,
) -> GroupFeatures {
    GroupFeatures::allocate_with(original, partition, pool)
}

/// Algorithm 2 for one group: gather the group's valid cells plane-wise
/// (each attribute column is a run of contiguous row-segment copies from
/// the SoA planes), aggregate each column, and append the `p` allocated
/// values to `out` (zeroes for a null group). Returns the group's
/// valid-member count.
fn allocate_group_into(
    original: &GridDataset,
    partition: &Partition,
    gid: u32,
    scratch: &mut Scratch,
    out: &mut Vec<f64>,
) -> usize {
    allocate_rect_into(original, partition.rect(gid), scratch, out)
}

/// [`allocate_group_into`] on a bare rectangle. A group's allocation reads
/// nothing but its rectangle and the grid, so this is the whole algorithm;
/// the driver calls it directly for cache-miss groups, which makes cached
/// rows bit-interchangeable with [`GroupFeatures::allocate_with`]'s.
pub(crate) fn allocate_rect_into(
    original: &GridDataset,
    rect: crate::partition::GroupRect,
    scratch: &mut Scratch,
    out: &mut Vec<f64>,
) -> usize {
    let p = original.num_attrs();
    let n = original.num_cells();
    let cols = original.cols();
    let words = original.valid_words();

    // Fast path: single-cell groups keep their exact values (mean = mode =
    // the value, and ties go to the mean, so even integer rounding never
    // alters a singleton — see `best_average_representative`). Early
    // driver iterations are dominated by singletons.
    if rect.len() == 1 {
        let cell = rect.r0 as usize * cols + rect.c0 as usize;
        if (words[cell >> 6] >> (cell & 63)) & 1 != 0 {
            let planes = original.planes();
            out.extend((0..p).map(|k| planes[k * n + cell]));
            return 1;
        }
        out.resize(out.len() + p, 0.0);
        return 0;
    }

    // Fast path: two-cell groups (the most common multi-cell size at the
    // driver's operating thresholds) aggregate a stack pair per attribute —
    // same values, same row-major order, no column gather, no per-row
    // popcounts.
    if rect.len() == 2 {
        let aggs = original.agg_types();
        let ca = rect.r0 as usize * cols + rect.c0 as usize;
        let cb = if rect.r0 == rect.r1 { ca + 1 } else { ca + cols };
        let va = (words[ca >> 6] >> (ca & 63)) & 1 != 0;
        let vb = (words[cb >> 6] >> (cb & 63)) & 1 != 0;
        let valid = usize::from(va) + usize::from(vb);
        if valid == 0 {
            out.resize(out.len() + p, 0.0);
            return 0;
        }
        for (k, &agg) in aggs.iter().enumerate() {
            let plane = original.attr_plane(k);
            let mut vals = [0.0f64; 2];
            let mut m = 0usize;
            if va {
                vals[m] = plane[ca];
                m += 1;
            }
            if vb {
                vals[m] = plane[cb];
                m += 1;
            }
            let values = &vals[..m];
            out.push(match agg {
                sr_grid::AggType::Sum => {
                    let mut s = 0.0f64;
                    for &v in values {
                        s += v;
                    }
                    s
                }
                sr_grid::AggType::Avg => best_average_representative(
                    values,
                    original.integer_attrs()[k],
                    &mut scratch.keys,
                ),
                sr_grid::AggType::Mode => mode(values, &mut scratch.keys),
            });
        }
        return valid;
    }

    let (r0, r1) = (rect.r0 as usize, rect.r1 as usize);
    let (c0, w) = (rect.c0 as usize, (rect.c1 - rect.c0 + 1) as usize);
    let mut valid = 0usize;
    for r in r0..=r1 {
        valid += count_valid_range(words, r * cols + c0, w);
    }
    if valid == 0 {
        out.resize(out.len() + p, 0.0);
        return 0;
    }
    // `Sum` attributes reduce left-to-right over the group's valid cells in
    // row-major order — exactly the order a plane row-segment walk visits
    // them — so they are accumulated straight off the planes with no
    // intermediate column. Only `Avg`/`Mode` attributes, whose aggregation
    // needs the value *multiset* (mode counting, loss passes), gather a
    // column; grids without them (e.g. pure count grids) never touch the
    // scratch columns at all.
    let all_valid = valid == rect.len();
    let aggs = original.agg_types();
    for (k, col) in scratch.columns.iter_mut().enumerate() {
        if aggs[k] == sr_grid::AggType::Sum {
            continue;
        }
        col.clear();
        let plane = original.attr_plane(k);
        for r in r0..=r1 {
            let base = r * cols + c0;
            let seg = &plane[base..base + w];
            if all_valid {
                col.extend_from_slice(seg);
            } else {
                for (j, &val) in seg.iter().enumerate() {
                    let cell = base + j;
                    if (words[cell >> 6] >> (cell & 63)) & 1 != 0 {
                        col.push(val);
                    }
                }
            }
        }
    }

    for (k, &agg) in aggs.iter().enumerate() {
        out.push(match agg {
            sr_grid::AggType::Sum => {
                // Same adds, same order as summing a gathered column.
                let plane = original.attr_plane(k);
                let mut s = 0.0f64;
                for r in r0..=r1 {
                    let base = r * cols + c0;
                    let seg = &plane[base..base + w];
                    if all_valid {
                        for &val in seg {
                            s += val;
                        }
                    } else {
                        for (j, &val) in seg.iter().enumerate() {
                            let cell = base + j;
                            if (words[cell >> 6] >> (cell & 63)) & 1 != 0 {
                                s += val;
                            }
                        }
                    }
                }
                s
            }
            sr_grid::AggType::Avg => best_average_representative(
                &scratch.columns[k],
                original.integer_attrs()[k],
                &mut scratch.keys,
            ),
            // Categorical: the most frequent code (§VI extension).
            sr_grid::AggType::Mode => mode(&scratch.columns[k], &mut scratch.keys),
        });
    }
    valid
}

/// The `Avg` branch of Algorithm 2: candidate `A` is the mean (rounded for
/// integer attributes), candidate `B` the most frequent value; the one with
/// smaller local loss wins, with ties going to `A`.
fn best_average_representative(
    values: &[f64],
    integer_typed: bool,
    keys: &mut Vec<(u64, u32)>,
) -> f64 {
    if let [v] = values {
        // mean == mode == v, and the tie-with-tolerance below always
        // returns the raw value (a rounded mean that differs from `v` has
        // strictly larger loss than the zero-loss mode).
        return *v;
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    let a = if integer_typed { mean.round() } else { mean };
    let b = mode(values, keys);
    let loss_a = local_loss(values, a);
    let loss_b = local_loss(values, b);
    // Ties go to the mean (paper Example 4), with a relative tolerance:
    // two-cell groups tie *exactly* in real arithmetic, and a raw `<=`
    // would let last-ulp rounding flip the winner when the data is
    // uniformly rescaled (breaking the temporal driver's reuse
    // invariance).
    let tol = 1e-9 * loss_a.abs().max(loss_b.abs());
    if loss_b < loss_a - tol {
        b
    } else {
        a
    }
}

/// Group sizes at or below this use the quadratic scan [`mode_small`]; the
/// driver's accepted region is dominated by 2–8-cell groups, where the scan
/// beats any keyed structure by an order of magnitude.
const MODE_SMALL_MAX: usize = 24;

/// Most frequent value of a non-empty slice, with ties broken by first
/// occurrence (deterministic under the extractor's row-major cell order,
/// and under stream order for the ingest binner's `mode` collapse). Exact
/// bit-equality grouping: values come straight from the input, where
/// repeated values (counts, rounded averages, categorical codes) compare
/// exactly. `keys` is caller-provided scratch for the large-group path.
///
/// Selection rule (identical on every path): maximize occurrence count,
/// break count ties by the smallest first-occurrence index.
pub fn mode(values: &[f64], keys: &mut Vec<(u64, u32)>) -> f64 {
    debug_assert!(!values.is_empty());
    // Two values: the first always wins — equal values give it count 2,
    // distinct values tie at count 1 and first occurrence breaks the tie.
    if values.len() == 2 {
        return values[0];
    }
    if values.len() <= MODE_SMALL_MAX {
        return mode_small(values);
    }
    mode_sorted(values, keys)
}

/// Quadratic first-occurrence scan: counts each distinct value at its first
/// occurrence, in ascending index order, so `count > best` keeps the
/// earliest value on ties. No hashing, no allocation — for the small groups
/// that dominate the driver this runs entirely in registers and L1.
fn mode_small(values: &[f64]) -> f64 {
    let mut best_v = values[0];
    let mut best_c = 0usize;
    for (i, &v) in values.iter().enumerate() {
        let bits = v.to_bits();
        if values[..i].iter().any(|&w| w.to_bits() == bits) {
            continue; // counted at its first occurrence
        }
        let count = 1 + values[i + 1..].iter().filter(|&&w| w.to_bits() == bits).count();
        if count > best_c {
            best_c = count;
            best_v = v;
        }
    }
    best_v
}

/// Sort-based mode for large groups: sorting `(bit pattern, index)` pairs
/// clusters equal values into runs whose first element carries the smallest
/// original index, so one linear scan finds the (max count, min first index)
/// winner.
fn mode_sorted(values: &[f64], keys: &mut Vec<(u64, u32)>) -> f64 {
    keys.clear();
    keys.extend(values.iter().enumerate().map(|(i, &v)| (v.to_bits(), i as u32)));
    keys.sort_unstable();
    let mut best_bits = keys[0].0;
    let mut best = (0usize, u32::MAX); // (count, first index)
    let mut run = 0usize;
    let mut run_first = keys[0].1;
    let mut run_bits = keys[0].0;
    for &(bits, idx) in keys.iter() {
        if bits != run_bits {
            if (run, u32::MAX - run_first) > (best.0, u32::MAX - best.1) {
                best = (run, run_first);
                best_bits = run_bits;
            }
            run_bits = bits;
            run = 0;
            run_first = idx;
        }
        run += 1;
    }
    if (run, u32::MAX - run_first) > (best.0, u32::MAX - best.1) {
        best_bits = run_bits;
    }
    f64::from_bits(best_bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extractor::extract_cell_groups;
    use sr_grid::{normalize_attributes, AggType, Bounds};

    #[test]
    fn mode_prefers_highest_count_then_first() {
        let mut scratch = Vec::new();
        assert_eq!(mode(&[1.0, 2.0, 2.0, 3.0], &mut scratch), 2.0);
        // Tie between 1.0 and 2.0: first occurrence wins.
        assert_eq!(mode(&[1.0, 2.0, 1.0, 2.0], &mut scratch), 1.0);
        assert_eq!(mode(&[7.5], &mut scratch), 7.5);
    }

    #[test]
    fn paper_example4_rounding_and_tie() {
        // Six cells with mean 23.67 (rounds to 24) and mode 23; the losses
        // tie, so A (=24) is selected.
        let values = [23.0, 23.0, 23.0, 24.0, 25.0, 24.0];
        let mean: f64 = values.iter().sum::<f64>() / 6.0;
        assert!((mean - 23.666_666).abs() < 1e-3);
        let rep = best_average_representative(&values, true, &mut Vec::new());
        assert_eq!(rep, 24.0);
    }

    #[test]
    fn mode_wins_when_outlier_inflates_mean() {
        let values = [10.0, 10.0, 10.0, 100.0];
        let rep = best_average_representative(&values, false, &mut Vec::new());
        assert_eq!(rep, 10.0);
    }

    #[test]
    fn sum_aggregation_sums_members() {
        let g = GridDataset::new(
            1,
            2,
            1,
            vec![3.0, 4.0],
            vec![true, true],
            vec!["count".into()],
            vec![AggType::Sum],
            vec![false],
            Bounds::unit(),
        )
        .unwrap();
        let norm = normalize_attributes(&g);
        let p = extract_cell_groups(&norm, 1.0);
        assert_eq!(p.num_groups(), 1);
        let feats = allocate_features(&g, &p);
        assert_eq!(feats.row(0), Some(&[7.0][..]));
    }

    #[test]
    fn null_group_gets_none() {
        let mut g = GridDataset::univariate(1, 2, vec![1.0, 1.0]).unwrap();
        g.set_null(0);
        g.set_null(1);
        let norm = normalize_attributes(&g);
        let p = extract_cell_groups(&norm, 1.0);
        let feats = allocate_features(&g, &p);
        assert_eq!(feats.num_groups(), 1);
        assert!(feats.row(0).is_none());
    }

    #[test]
    fn multivariate_mixed_agg_types() {
        // 1×2 grid, two attrs: count (Sum) and price (Avg).
        let g = GridDataset::new(
            1,
            2,
            2,
            vec![2.0, 10.0, 4.0, 20.0],
            vec![true, true],
            vec!["count".into(), "price".into()],
            vec![AggType::Sum, AggType::Avg],
            vec![false, false],
            Bounds::unit(),
        )
        .unwrap();
        let p = Partition::new(
            1,
            2,
            vec![crate::partition::GroupRect { r0: 0, r1: 0, c0: 0, c1: 1 }],
            vec![0, 0],
        );
        let feats = allocate_features(&g, &p);
        let fv = feats.row(0).unwrap();
        assert_eq!(fv[0], 6.0); // sum of counts
        assert_eq!(fv[1], 15.0); // mean of prices (mode loss is worse)
    }

    #[test]
    fn singleton_group_keeps_exact_values() {
        let g = GridDataset::univariate(1, 2, vec![42.0, 7.0]).unwrap();
        let p = Partition::identity(1, 2);
        let feats = allocate_features(&g, &p);
        assert_eq!(feats.row(0), Some(&[42.0][..]));
        assert_eq!(feats.row(1), Some(&[7.0][..]));
    }

    #[test]
    fn from_flat_zeroes_null_rows() {
        let f = GroupFeatures::from_flat(2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], vec![2, 0, 1]);
        assert_eq!(f.values(), &[1.0, 2.0, 0.0, 0.0, 5.0, 6.0]);
        assert_eq!(
            f.iter().collect::<Vec<_>>(),
            vec![Some(&[1.0, 2.0][..]), None, Some(&[5.0, 6.0][..])]
        );
        assert_eq!((f.num_groups(), f.num_valid_groups(), f.valid_count(0)), (3, 2, 2));
    }

    #[test]
    #[should_panic(expected = "from_flat")]
    fn from_flat_rejects_ragged_values() {
        GroupFeatures::from_flat(2, vec![1.0; 5], vec![1, 1, 1]);
    }
}
