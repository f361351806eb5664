//! Property-based tests for the re-partitioning framework's structural
//! invariants (DESIGN.md: rectangularity, tiling, threshold guarantee,
//! reconstruction consistency, adjacency symmetry).

use proptest::prelude::*;
use sr_core::{
    allocate_features, extract_cell_groups, group_adjacency, partition_ifl, repartition,
};
use sr_grid::{information_loss, normalize_attributes, variation_between, GridDataset, IflOptions};

/// Strategy: a small random grid (values and a few null cells).
fn grid_strategy() -> impl Strategy<Value = GridDataset> {
    (2usize..10, 2usize..10)
        .prop_flat_map(|(rows, cols)| {
            (
                Just(rows),
                Just(cols),
                prop::collection::vec(0.5f64..20.0, rows * cols),
                prop::collection::vec(0usize..(rows * cols), 0..4),
            )
        })
        .prop_map(|(rows, cols, vals, nulls)| {
            let mut g = GridDataset::univariate(rows, cols, vals).unwrap();
            for id in nulls {
                g.set_null(id as u32);
            }
            g
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every extraction output tiles the grid with rectangles, and every
    /// intra-group adjacent pair respects the variation bound.
    #[test]
    fn extraction_tiles_and_respects_variation(
        g in grid_strategy(),
        theta in 0.0f64..0.5,
    ) {
        let norm = normalize_attributes(&g);
        let p = extract_cell_groups(&norm, theta);

        // Tiling: every cell belongs to the group whose rect contains it,
        // and rect sizes sum to the cell count.
        let total: usize = (0..p.num_groups() as u32).map(|gid| p.rect(gid).len()).sum();
        prop_assert_eq!(total, g.num_cells());
        for cell in 0..g.num_cells() as u32 {
            let gid = p.group_of(cell);
            let (r, c) = g.cell_pos(cell);
            prop_assert!(p.rect(gid).contains(r as u32, c as u32));
        }

        // Variation bound on intra-group adjacent pairs; null cells only
        // share groups with null cells.
        for gid in 0..p.num_groups() as u32 {
            let rect = p.rect(gid);
            let first_valid = {
                let (r, c) = (rect.r0 as usize, rect.c0 as usize);
                norm.is_valid(norm.cell_id(r, c))
            };
            for (r, c) in rect.cells() {
                let id = norm.cell_id(r as usize, c as usize);
                prop_assert_eq!(norm.is_valid(id), first_valid, "mixed null/valid group");
                if !norm.is_valid(id) { continue; }
                let fv = norm.features_unchecked(id);
                if c < rect.c1 {
                    let rid = norm.cell_id(r as usize, c as usize + 1);
                    prop_assert!(variation_between(&fv, &norm.features_unchecked(rid)) <= theta + 1e-9);
                }
                if r < rect.r1 {
                    let did = norm.cell_id(r as usize + 1, c as usize);
                    prop_assert!(variation_between(&fv, &norm.features_unchecked(did)) <= theta + 1e-9);
                }
            }
        }
    }

    /// The driver never returns a partition whose IFL exceeds the threshold,
    /// and never increases the number of groups beyond the cell count.
    #[test]
    fn driver_respects_ifl_budget(
        g in grid_strategy(),
        theta in 0.01f64..0.3,
    ) {
        let out = repartition(&g, theta).unwrap();
        prop_assert!(out.repartitioned.ifl() <= theta + 1e-12);
        prop_assert!(out.repartitioned.num_groups() <= g.num_cells());
        prop_assert!(out.cell_reduction() >= 0.0);
    }

    /// partition_ifl and information_loss-over-reconstruction agree.
    #[test]
    fn reconstruction_matches_partition_ifl(
        g in grid_strategy(),
        theta in 0.0f64..0.4,
    ) {
        let norm = normalize_attributes(&g);
        let p = extract_cell_groups(&norm, theta);
        let feats = allocate_features(&g, &p);
        let direct = partition_ifl(&g, &p, &feats, IflOptions::default());
        let rec = sr_core::reconstruct_grid(&g, &p, &feats).unwrap();
        let via_grid = information_loss(&g, &rec, IflOptions::default()).unwrap();
        prop_assert!((direct - via_grid).abs() < 1e-10);
    }

    /// Group adjacency is symmetric, self-loop free, and connects exactly
    /// the rectangles that share an edge.
    #[test]
    fn group_adjacency_is_sound(
        g in grid_strategy(),
        theta in 0.0f64..0.4,
    ) {
        let norm = normalize_attributes(&g);
        let p = extract_cell_groups(&norm, theta);
        let adj = group_adjacency(&p);
        prop_assert!(adj.is_symmetric());
        for gid in 0..p.num_groups() as u32 {
            prop_assert!(!adj.neighbors(gid).contains(&gid));
        }
        // Cross-check against a brute-force cell-level scan.
        let rows = g.rows();
        let cols = g.cols();
        let mut expected: std::collections::HashSet<(u32, u32)> = Default::default();
        for r in 0..rows {
            for c in 0..cols {
                let a = p.group_at(r, c);
                if c + 1 < cols {
                    let b = p.group_at(r, c + 1);
                    if a != b { expected.insert((a.min(b), a.max(b))); }
                }
                if r + 1 < rows {
                    let b = p.group_at(r + 1, c);
                    if a != b { expected.insert((a.min(b), a.max(b))); }
                }
            }
        }
        let mut got: std::collections::HashSet<(u32, u32)> = Default::default();
        for gid in 0..p.num_groups() as u32 {
            for &n in adj.neighbors(gid) {
                got.insert((gid.min(n), gid.max(n)));
            }
        }
        prop_assert_eq!(got, expected);
    }

    /// Allocated Avg representatives never do worse (by local loss) than
    /// the plain mean.
    #[test]
    fn allocator_beats_or_ties_plain_mean(
        g in grid_strategy(),
        theta in 0.0f64..0.4,
    ) {
        let norm = normalize_attributes(&g);
        let p = extract_cell_groups(&norm, theta);
        let feats = allocate_features(&g, &p);
        for gid in 0..p.num_groups() as u32 {
            let Some(fv) = feats.row(gid as usize) else { continue };
            let member_vals: Vec<f64> = p
                .cells_of(gid)
                .into_iter()
                .filter(|&c| g.is_valid(c))
                .map(|c| g.value(c, 0))
                .collect();
            let mean = member_vals.iter().sum::<f64>() / member_vals.len() as f64;
            let alloc_loss = sr_grid::local_loss(&member_vals, fv[0]);
            let mean_loss = sr_grid::local_loss(&member_vals, mean);
            prop_assert!(alloc_loss <= mean_loss + 1e-12);
        }
    }
}
