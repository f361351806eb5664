//! Re-construction of per-cell values from cell-group values — §III-C.
//!
//! After a spatial ML model predicts at cell-group granularity, users often
//! need values for the original cells. The mapping from groups to cells is
//! the partition itself (constant-time via `cIndex`); the value transform
//! depends on the aggregation type: `Avg` group values are copied to every
//! member cell, `Sum` group values are divided by the member count (paper
//! Example 7: a 2-cell Sum group valued 54 reconstructs to 27 per cell).

use crate::allocator::GroupFeatures;
use crate::ifl::representative;
use crate::partition::Partition;
use sr_grid::{GridDataset, Result};

/// Materializes a full-resolution grid in which every cell carries its
/// representative value from (`partition`, `group_features`).
///
/// `original` supplies the shape, schema, and validity mask (cells that were
/// null stay null — they belong to null groups). The returned grid is
/// directly comparable to `original` via [`sr_grid::information_loss`].
pub fn reconstruct_grid(
    original: &GridDataset,
    partition: &Partition,
    group_features: &GroupFeatures,
) -> Result<GridDataset> {
    let p = original.num_attrs();
    let n_cells = original.num_cells();
    let aggs = original.agg_types();

    let mut data = vec![0.0f64; n_cells * p];
    let mut valid = vec![false; n_cells];
    for id in original.valid_cells() {
        let g = partition.group_of(id) as usize;
        if let Some(fv) = group_features.row(g) {
            valid[id as usize] = true;
            for (k, &gv) in fv.iter().enumerate() {
                data[id as usize * p + k] =
                    representative(gv, aggs[k], group_features.valid_count(g));
            }
        }
    }

    GridDataset::new(
        original.rows(),
        original.cols(),
        p,
        data,
        valid,
        original.attr_names().to_vec(),
        aggs.to_vec(),
        original.integer_attrs().to_vec(),
        original.bounds(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocator::allocate_features;
    use crate::ifl::partition_ifl;
    use crate::partition::GroupRect;
    use sr_grid::{information_loss, AggType, Bounds, IflOptions};

    #[test]
    fn paper_example7_sum_reconstruction() {
        // Univariate Sum dataset; group {(0,0),(0,1)} valued 54 -> 27 each.
        let g = GridDataset::new(
            1,
            2,
            1,
            vec![30.0, 24.0],
            vec![true, true],
            vec!["count".into()],
            vec![AggType::Sum],
            vec![false],
            Bounds::unit(),
        )
        .unwrap();
        let p = Partition::new(1, 2, vec![GroupRect { r0: 0, r1: 0, c0: 0, c1: 1 }], vec![0, 0]);
        let feats = allocate_features(&g, &p);
        assert_eq!(feats.row(0), Some(&[54.0][..]));
        let rec = reconstruct_grid(&g, &p, &feats).unwrap();
        assert_eq!(rec.features(0).unwrap(), &[27.0]);
        assert_eq!(rec.features(1).unwrap(), &[27.0]);
    }

    #[test]
    fn avg_reconstruction_copies_group_value() {
        let g = GridDataset::univariate(1, 2, vec![10.0, 20.0]).unwrap();
        let p = Partition::new(1, 2, vec![GroupRect { r0: 0, r1: 0, c0: 0, c1: 1 }], vec![0, 0]);
        let feats = allocate_features(&g, &p);
        let rec = reconstruct_grid(&g, &p, &feats).unwrap();
        assert_eq!(rec.features(0).unwrap(), &[15.0]);
        assert_eq!(rec.features(1).unwrap(), &[15.0]);
    }

    #[test]
    fn null_cells_stay_null() {
        let mut g = GridDataset::univariate(1, 3, vec![5.0, 5.0, 5.0]).unwrap();
        g.set_null(2);
        let norm = sr_grid::normalize_attributes(&g);
        let p = crate::extractor::extract_cell_groups(&norm, 1.0);
        let feats = allocate_features(&g, &p);
        let rec = reconstruct_grid(&g, &p, &feats).unwrap();
        assert!(!rec.is_valid(2));
        assert_eq!(rec.features(0).unwrap(), &[5.0]);
    }

    #[test]
    fn grid_ifl_equals_partition_ifl() {
        // information_loss(original, reconstruct(...)) must equal
        // partition_ifl(original, ...): the two code paths implement the
        // same Eq. (3).
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(5);
        let vals: Vec<f64> = (0..64).map(|_| rng.gen_range(1.0..9.0)).collect();
        let g = GridDataset::univariate(8, 8, vals).unwrap();
        let norm = sr_grid::normalize_attributes(&g);
        let p = crate::extractor::extract_cell_groups(&norm, 0.15);
        let feats = allocate_features(&g, &p);
        let via_partition = partition_ifl(&g, &p, &feats, IflOptions::default());
        let rec = reconstruct_grid(&g, &p, &feats).unwrap();
        let via_grid = information_loss(&g, &rec, IflOptions::default()).unwrap();
        assert!((via_partition - via_grid).abs() < 1e-12);
    }
}
