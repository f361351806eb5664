//! Property-based determinism tests for the parallel hot paths
//! (docs/PERFORMANCE.md): every `*_with` entry point must produce results
//! bit-identical to the serial path regardless of the pool's thread count.
//!
//! Each test builds private pools (`Pool::new(1)` / `2` / `8`) rather than
//! touching the global pool, so the checks are hermetic and hold for thread
//! counts well above what CI machines physically have.

use proptest::prelude::*;
use sr_core::{
    allocate_features_with, extract_cell_groups_with, group_adjacency_with, partition_ifl_with,
    Repartitioner,
};
use sr_grid::{normalize_attributes, GridDataset, IflOptions};
use sr_par::Pool;

/// Strategy: a small random grid (values and a few null cells).
fn grid_strategy() -> impl Strategy<Value = GridDataset> {
    (2usize..12, 2usize..12)
        .prop_flat_map(|(rows, cols)| {
            (
                Just(rows),
                Just(cols),
                prop::collection::vec(0.5f64..20.0, rows * cols),
                prop::collection::vec(0usize..(rows * cols), 0..5),
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

/// The pool fan-outs exercised against the serial reference.
fn pools() -> Vec<Pool> {
    vec![Pool::new(2), Pool::new(8)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Extraction, allocation, IFL, and group adjacency are bit-identical
    /// across thread counts: same partition, same feature vectors (exact
    /// f64 equality), same IFL bits, same adjacency lists.
    #[test]
    fn pipeline_stages_bit_identical_across_thread_counts(
        g in grid_strategy(),
        theta in 0.0f64..0.5,
    ) {
        let serial = Pool::new(1);
        let norm = normalize_attributes(&g);
        let p1 = extract_cell_groups_with(&norm, theta, &serial);
        let f1 = allocate_features_with(&g, &p1, &serial);
        let ifl1 = partition_ifl_with(&g, &p1, &f1, IflOptions::default(), &serial);
        let adj1 = group_adjacency_with(&p1, &serial);

        for pool in pools() {
            let pn = extract_cell_groups_with(&norm, theta, &pool);
            prop_assert_eq!(&pn, &p1, "partition differs at {} threads", pool.threads());
            let fnn = allocate_features_with(&g, &pn, &pool);
            prop_assert_eq!(fnn.valid_counts(), f1.valid_counts());
            // Exact bit equality, not tolerance: parallel reduction must
            // fold partials in the same order as the serial loop.
            let bits = |f: &sr_core::GroupFeatures| -> Vec<u64> {
                f.values().iter().map(|v| v.to_bits()).collect()
            };
            prop_assert_eq!(bits(&fnn), bits(&f1));
            let ifln = partition_ifl_with(&g, &pn, &fnn, IflOptions::default(), &pool);
            prop_assert_eq!(ifln.to_bits(), ifl1.to_bits(), "IFL bits differ");
            let adjn = group_adjacency_with(&pn, &pool);
            for gid in 0..pn.num_groups() as u32 {
                prop_assert_eq!(adjn.neighbors(gid), adj1.neighbors(gid));
            }
        }
    }

    /// The full repartition driver is deterministic in the thread count:
    /// identical accepted partition, feature vectors, IFL bits, and theta.
    #[test]
    fn driver_bit_identical_across_thread_counts(
        g in grid_strategy(),
        theta in 0.01f64..0.3,
    ) {
        let driver = Repartitioner::new(theta).unwrap();
        let serial = driver.run_with_pool(&g, &Pool::new(1)).unwrap();
        for pool in pools() {
            let par = driver.run_with_pool(&g, &pool).unwrap();
            prop_assert_eq!(
                par.repartitioned.partition(),
                serial.repartitioned.partition()
            );
            prop_assert_eq!(par.repartitioned.features(), serial.repartitioned.features());
            prop_assert_eq!(
                par.repartitioned.ifl().to_bits(),
                serial.repartitioned.ifl().to_bits()
            );
            prop_assert_eq!(
                par.repartitioned.min_adjacent_variation().to_bits(),
                serial.repartitioned.min_adjacent_variation().to_bits()
            );
        }
    }
}
