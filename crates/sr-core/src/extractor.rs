//! Cell-group extraction — Algorithm 1 of the paper (§III-A2).
//!
//! Given the attribute-normalized grid and the current iteration's
//! `minAdjacentVariation`, extraction greedily tiles the grid with
//! *rectangular* groups of adjacent cells such that **every adjacent pair of
//! cells inside a group** has variation ≤ `minAdjacentVariation` (pairs that
//! are in the same group but not adjacent are unconstrained, exactly as the
//! paper specifies). The scan starts at the top-left corner and proceeds
//! row-major; at each unvisited cell the algorithm compares the maximal
//! horizontal run (`hCount`), vertical run (`vCount`) and anchored rectangle
//! (`rCount`) and takes the largest.
//!
//! Null cells only ever group with adjacent null cells; a valid cell with no
//! compatible neighbor forms a singleton group.

use crate::partition::{GroupRect, Partition};
use sr_grid::GridDataset;

/// Slack added to the variation comparison so a threshold that was itself
/// produced from these variations (heap pops) re-accepts the generating pair
/// despite floating-point noise.
pub(crate) const VARIATION_SLACK: f64 = 1e-12;

/// Pre-computed per-edge variations of a grid, reusable across extraction
/// passes at different thresholds.
///
/// The driver evaluates Algorithm 1 at dozens of thresholds on the *same*
/// normalized grid; the adjacent-pair variations never change between those
/// passes, so computing them once and reducing each pass to a threshold
/// comparison removes the dominant per-iteration cost.
///
/// Encoding: `h[r·cols + c]` is the variation between `(r,c)` and
/// `(r,c+1)`; `v[r·cols + c]` between `(r,c)` and `(r+1,c)`. Null–null
/// edges store `-∞` (always compatible — null cells merge only with null
/// cells, §III-A2), valid–null edges and out-of-grid edges store `+∞`
/// (never compatible), so compatibility at threshold `θ` is exactly
/// `edge ≤ θ + slack`.
#[derive(Debug, Clone)]
pub struct EdgeVariations {
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    pub(crate) h: Vec<f64>,
    pub(crate) v: Vec<f64>,
}

impl EdgeVariations {
    /// Computes the edge variations of `grid` on [`sr_par::Pool::global`].
    pub fn build(grid: &GridDataset) -> Self {
        Self::build_with(grid, sr_par::Pool::global())
    }

    /// [`EdgeVariations::build`] on an explicit pool. Row bands are
    /// computed independently, so the result is identical at any thread
    /// count.
    ///
    /// The raw difference sums are accumulated attribute-plane by
    /// attribute-plane with flat loops over row slices (each edge's sum
    /// receives its terms in ascending-`k` order — the same floating-point
    /// order as a per-edge feature-vector walk), then a finalize pass
    /// divides by `p` and patches validity: null–null edges become `-∞`,
    /// mixed and out-of-grid edges `+∞`.
    pub fn build_with(grid: &GridDataset, pool: &sr_par::Pool) -> Self {
        let rows = grid.rows();
        let cols = grid.cols();
        let aggs = grid.agg_types();
        let pf = grid.num_attrs() as f64;
        let valid = grid.valid_mask();
        let fill_band = |band: std::ops::Range<usize>, h: &mut [f64], v: &mut [f64]| {
            let b0 = band.start;
            for r in band {
                let br = r - b0;
                let base = r * cols;
                let has_below = r + 1 < rows;
                let hrow = &mut h[br * cols..(br + 1) * cols];
                let vrow = &mut v[br * cols..(br + 1) * cols];
                hrow[..cols - 1].fill(0.0);
                if has_below {
                    vrow.fill(0.0);
                }
                for (k, agg) in aggs.iter().enumerate() {
                    let plane = grid.attr_plane(k);
                    let row = &plane[base..base + cols];
                    match agg {
                        sr_grid::AggType::Mode => {
                            for c in 0..cols - 1 {
                                hrow[c] += if row[c] == row[c + 1] { 0.0 } else { 1.0 };
                            }
                            if has_below {
                                let below = &plane[base + cols..base + 2 * cols];
                                for c in 0..cols {
                                    vrow[c] += if row[c] == below[c] { 0.0 } else { 1.0 };
                                }
                            }
                        }
                        _ => {
                            for c in 0..cols - 1 {
                                hrow[c] += (row[c] - row[c + 1]).abs();
                            }
                            if has_below {
                                let below = &plane[base + cols..base + 2 * cols];
                                for c in 0..cols {
                                    vrow[c] += (row[c] - below[c]).abs();
                                }
                            }
                        }
                    }
                }
                for c in 0..cols - 1 {
                    let (a, b) = (valid[base + c], valid[base + c + 1]);
                    hrow[c] = if a && b {
                        hrow[c] / pf
                    } else if !a && !b {
                        f64::NEG_INFINITY
                    } else {
                        f64::INFINITY
                    };
                }
                hrow[cols - 1] = f64::INFINITY;
                if has_below {
                    for c in 0..cols {
                        let (a, b) = (valid[base + c], valid[base + cols + c]);
                        vrow[c] = if a && b {
                            vrow[c] / pf
                        } else if !a && !b {
                            f64::NEG_INFINITY
                        } else {
                            f64::INFINITY
                        };
                    }
                } else {
                    vrow.fill(f64::INFINITY);
                }
            }
        };
        // Serial pools fill the full arrays in place; the banded path pays
        // for its parallelism with a concatenation copy.
        if pool.threads() <= 1 {
            let mut h = vec![0.0; rows * cols];
            let mut v = vec![0.0; rows * cols];
            fill_band(0..rows, &mut h, &mut v);
            return EdgeVariations { rows, cols, h, v };
        }
        let bands = pool.par_map_chunks(rows, sr_par::fixed_grain(rows, 64), |band| {
            let mut h = vec![0.0; band.len() * cols];
            let mut v = vec![0.0; band.len() * cols];
            fill_band(band, &mut h, &mut v);
            (h, v)
        });
        let mut h = Vec::with_capacity(rows * cols);
        let mut v = Vec::with_capacity(rows * cols);
        for (bh, bv) in bands {
            h.extend(bh);
            v.extend(bv);
        }
        EdgeVariations { rows, cols, h, v }
    }

    /// Grid height this was built from.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Grid width this was built from.
    pub fn cols(&self) -> usize {
        self.cols
    }
}

/// Runs Algorithm 1: extracts all cell-groups of `normalized` under the
/// given `min_adjacent_variation` and returns the resulting [`Partition`]
/// (both the `gIndex` and `cIndex` mappings of the paper).
///
/// Edge variations are computed on [`sr_par::Pool::global`]; callers that
/// evaluate several thresholds on the same grid should build
/// [`EdgeVariations`] once and call [`extract_with_edges`] per threshold.
pub fn extract_cell_groups(normalized: &GridDataset, min_adjacent_variation: f64) -> Partition {
    extract_cell_groups_with(normalized, min_adjacent_variation, sr_par::Pool::global())
}

/// [`extract_cell_groups`] on an explicit pool.
pub fn extract_cell_groups_with(
    normalized: &GridDataset,
    min_adjacent_variation: f64,
    pool: &sr_par::Pool,
) -> Partition {
    let edges = EdgeVariations::build_with(normalized, pool);
    extract_with_edges(&edges, min_adjacent_variation)
}

/// Algorithm 1 on pre-computed [`EdgeVariations`]: one threshold pass
/// without recomputing any pair variation. The greedy row-major scan
/// itself is inherently sequential (each group consumes cells the next
/// anchor decision depends on) and cheap next to the variation math. It is
/// the same row cursor (`scan_row`) the driver's threshold walk runs.
pub fn extract_with_edges(
    edge_variations: &EdgeVariations,
    min_adjacent_variation: f64,
) -> Partition {
    let (rows, cols) = (edge_variations.rows, edge_variations.cols);
    let accept = min_adjacent_variation + VARIATION_SLACK;
    let mut bot = vec![0u32; cols];
    let (mut rects, mut reach, mut run_width) = (Vec::new(), Vec::new(), Vec::new());
    for r in 0..rows {
        scan_row(edge_variations, accept, r, &mut bot, &mut rects, &mut reach, &mut run_width);
    }
    Partition::from_rects(rows, cols, rects)
}

/// Scans row `r` of Algorithm 1's row-major cursor, appending the emitted
/// rectangles with their probe footprints and advancing the spill profile.
///
/// `bot[c]` is one past the deepest row covered by any rectangle emitted so
/// far in column `c`. For the scan row `r`, `(rr, c)` with `rr ≥ r` is
/// assigned iff `rr < bot[c]` — every rectangle still covering rows `≥ r`
/// was anchored at a row `≤ r`, so its column coverage at rows `≥ r` is
/// contiguous from `r` down to its bottom row. The cursor skips spilled-over
/// cells, probes at each anchor, and jumps past the emitted width.
///
/// Per rectangle, `reach` records the deepest row its probe visited and
/// `run_width` its anchor-row run width ([`RectProbe`]); the localized
/// replay keys its dirty-region checks on that footprint.
pub(crate) fn scan_row(
    edges: &EdgeVariations,
    accept: f64,
    r: usize,
    bot: &mut [u32],
    rects: &mut Vec<GroupRect>,
    reach: &mut Vec<u32>,
    run_width: &mut Vec<u32>,
) {
    let cols = edges.cols;
    let mut c = 0usize;
    while c < cols {
        if bot[c] as usize > r {
            c += 1;
            continue;
        }
        let probe = probe_anchored_rect(edges, accept, r, c, bot);
        let (h, w) = (probe.height, probe.width);
        rects.push(GroupRect {
            r0: r as u32,
            r1: (r + h - 1) as u32,
            c0: c as u32,
            c1: (c + w - 1) as u32,
        });
        reach.push(probe.reach as u32);
        run_width.push(probe.run_width as u32);
        for col in &mut bot[c..c + w] {
            *col = (r + h) as u32;
        }
        c += w;
    }
}

/// Result of one anchored-rectangle probe, including the extent of the
/// region the probe *read*: every edge it compared lies within rows
/// `[r, reach]` and columns `[c, c + run_width]` (cell coordinates, both
/// endpoints of every compared edge included). The localized replay keys
/// its dirty-region checks on exactly this box.
#[derive(Debug, Clone, Copy)]
struct RectProbe {
    height: usize,
    width: usize,
    /// Last row index the exploration visited (≥ the rect's bottom row).
    reach: usize,
    /// Width of the maximal anchor-row run (≥ the rect's width).
    run_width: usize,
}

/// Finds the maximum-area rectangle anchored at `(r, c)` (its top-left
/// corner) whose internal adjacent pairs are all compatible and whose cells
/// are all unassigned under the spill profile `bot` (see [`scan_row`]).
///
/// This subsumes the paper's separate `hCount` / `vCount` / `rCount`
/// comparison: height 1 yields the maximal horizontal run, width 1 survives
/// exactly as long as the maximal vertical run, and the scan maximizes the
/// area over every anchored height.
fn probe_anchored_rect(
    edges: &EdgeVariations,
    accept: f64,
    r: usize,
    c: usize,
    bot: &[u32],
) -> RectProbe {
    let rows = edges.rows;
    let cols = edges.cols;
    let (eh, ev) = (&edges.h[..], &edges.v[..]);
    let is_assigned = |rr: usize, cc: usize| rr < bot[cc] as usize;

    // Maximal horizontal run in the anchor row.
    let mut width = 1usize;
    while c + width < cols && !is_assigned(r, c + width) && eh[r * cols + c + width - 1] <= accept {
        width += 1;
    }

    let mut best = (1usize, width);
    let mut best_area = width;
    let mut reach = r;

    let mut h = 1usize;
    let mut w = width;
    while r + h < rows && w > 0 {
        let rr = r + h;
        reach = rr;
        // Shrink the window to the longest prefix of row `rr` that is
        // unvisited, vertically compatible with the row above, and
        // horizontally chained within row `rr`.
        let mut w2 = 0usize;
        while w2 < w {
            let cc = rr * cols + c + w2;
            if is_assigned(rr, c + w2) || ev[cc - cols] > accept {
                break;
            }
            if w2 > 0 && eh[cc - 1] > accept {
                break;
            }
            w2 += 1;
        }
        if w2 == 0 {
            break;
        }
        w = w2;
        h += 1;
        let area = h * w;
        if area > best_area {
            best_area = area;
            best = (h, w);
        }
    }

    RectProbe { height: best.0, width: best.1, reach, run_width: width }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sr_grid::normalize_attributes;

    fn partition_of(rows: usize, cols: usize, vals: Vec<f64>, theta: f64) -> Partition {
        let g = GridDataset::univariate(rows, cols, vals).unwrap();
        let norm = normalize_attributes(&g);
        extract_cell_groups(&norm, theta)
    }

    #[test]
    fn zero_threshold_groups_only_equal_neighbors() {
        // 1×4: [5, 5, 7, 7] => two groups of two.
        let p = partition_of(1, 4, vec![5.0, 5.0, 7.0, 7.0], 0.0);
        assert_eq!(p.num_groups(), 2);
        assert_eq!(p.group_of(0), p.group_of(1));
        assert_eq!(p.group_of(2), p.group_of(3));
        assert_ne!(p.group_of(1), p.group_of(2));
    }

    #[test]
    fn all_distinct_values_yield_identity() {
        let p = partition_of(2, 2, vec![1.0, 2.0, 3.0, 4.0], 0.0);
        assert_eq!(p.num_groups(), 4);
    }

    #[test]
    fn huge_threshold_merges_everything_into_one_rect() {
        let p = partition_of(3, 3, (1..=9).map(f64::from).collect(), 1.0);
        assert_eq!(p.num_groups(), 1);
        assert_eq!(p.rect(0), GroupRect { r0: 0, r1: 2, c0: 0, c1: 2 });
    }

    #[test]
    fn rectangle_beats_runs_paper_example3() {
        // Paper Example 3 geometry: a 2×3 block of compatible cells should
        // be extracted as one 6-cell rectangle rather than a 3-cell row.
        // Build a 3×4 grid where the top-left 2×3 block holds near-equal
        // values and everything else is far away.
        #[rustfmt::skip]
        let vals = vec![
            10.0, 10.0, 10.0, 99.0,
            10.0, 10.0, 10.0, 99.0,
            50.0, 50.0, 99.0, 99.0,
        ];
        let p = partition_of(3, 4, vals, 0.0);
        let g = p.group_of(0);
        assert_eq!(p.rect(g), GroupRect { r0: 0, r1: 1, c0: 0, c1: 2 });
        assert_eq!(p.rect(g).len(), 6);
    }

    #[test]
    fn vertical_run_chosen_when_taller_than_wide() {
        // Column of equal values, rows otherwise incompatible.
        #[rustfmt::skip]
        let vals = vec![
            5.0, 90.0,
            5.0, 80.0,
            5.0, 70.0,
        ];
        let p = partition_of(3, 2, vals, 0.0);
        let g = p.group_of(0);
        assert_eq!(p.rect(g), GroupRect { r0: 0, r1: 2, c0: 0, c1: 0 });
    }

    #[test]
    fn incompatible_cell_forms_singleton() {
        let p = partition_of(1, 3, vec![1.0, 100.0, 1.0], 0.0);
        assert_eq!(p.num_groups(), 3);
    }

    #[test]
    fn null_cells_group_together_but_not_with_valid() {
        let mut g = GridDataset::univariate(2, 2, vec![1.0, 1.0, 1.0, 1.0]).unwrap();
        g.set_null(2);
        g.set_null(3);
        let norm = normalize_attributes(&g);
        let p = extract_cell_groups(&norm, 1.0);
        // Top row: one valid group; bottom row: one null group.
        assert_eq!(p.num_groups(), 2);
        assert_eq!(p.group_of(0), p.group_of(1));
        assert_eq!(p.group_of(2), p.group_of(3));
        assert_ne!(p.group_of(0), p.group_of(2));
    }

    #[test]
    fn intra_group_adjacent_pairs_respect_threshold() {
        use sr_grid::variation_between;
        // Stress on a pseudo-random grid: verify the structural guarantee.
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(3);
        let (rows, cols) = (12, 15);
        let vals: Vec<f64> = (0..rows * cols).map(|_| rng.gen_range(0.0..10.0)).collect();
        let g = GridDataset::univariate(rows, cols, vals).unwrap();
        let norm = normalize_attributes(&g);
        let theta = 0.08;
        let p = extract_cell_groups(&norm, theta);
        for gid in 0..p.num_groups() as u32 {
            let rect = p.rect(gid);
            for (r, c) in rect.cells() {
                let id = norm.cell_id(r as usize, c as usize);
                let fv = norm.features_unchecked(id);
                if c < rect.c1 {
                    let right = norm.cell_id(r as usize, c as usize + 1);
                    assert!(
                        variation_between(&fv, &norm.features_unchecked(right)) <= theta + 1e-9
                    );
                }
                if r < rect.r1 {
                    let down = norm.cell_id(r as usize + 1, c as usize);
                    assert!(variation_between(&fv, &norm.features_unchecked(down)) <= theta + 1e-9);
                }
            }
        }
    }

    #[test]
    fn larger_threshold_never_increases_group_count_on_smooth_data() {
        let vals: Vec<f64> = (0..100).map(|i| (i / 10) as f64).collect();
        let g = GridDataset::univariate(10, 10, vals).unwrap();
        let norm = normalize_attributes(&g);
        let mut last = usize::MAX;
        for theta in [0.0, 0.05, 0.1, 0.2, 0.5, 1.0] {
            let p = extract_cell_groups(&norm, theta);
            assert!(p.num_groups() <= last);
            last = p.num_groups();
        }
    }
}
