//! The paper's running example, end to end: Fig. 1's 5×5 univariate grid
//! narrative — iteration 1 merges only zero-variation neighbors (IFL stays
//! 0), iteration 2 uses the second-least variation and produces a small
//! positive IFL — plus the Example 2/3/4 mechanics on the same pipeline.

use spatial_repartition::core::{
    allocate_features, extract_cell_groups, partition_ifl, VariationHeap,
};
use spatial_repartition::prelude::*;

/// A 5×5 univariate grid in the spirit of Fig. 1: clusters of equal and
/// near-equal values whose max is 35, so the second-least adjacent
/// variation is exactly 1/35 = 0.02857143 (the paper's Example 2 constant).
fn fig1_like_grid() -> GridDataset {
    #[rustfmt::skip]
    let values = vec![
        22.0, 23.0, 30.0, 30.0, 31.0,
        23.0, 23.0, 24.0, 31.0, 31.0,
        23.0, 24.0, 25.0, 25.0, 35.0,
        10.0, 10.0, 25.0, 25.0, 35.0,
        10.0, 10.0, 11.0, 26.0, 26.0,
    ];
    GridDataset::univariate(5, 5, values).unwrap()
}

#[test]
fn example2_heap_pops_least_then_second_least() {
    let grid = fig1_like_grid();
    let norm = normalize_attributes(&grid);
    let mut heap = VariationHeap::from_grid(&norm);
    let first = heap.pop_next_distinct().unwrap();
    let second = heap.pop_next_distinct().unwrap();
    assert_eq!(first, 0.0, "least variation is 0 (equal neighbors exist)");
    assert!((second - 1.0 / 35.0).abs() < 1e-9, "second-least should be 0.02857143, got {second}");
}

#[test]
fn iteration1_zero_variation_merge_has_zero_ifl() {
    let grid = fig1_like_grid();
    let norm = normalize_attributes(&grid);
    let partition = extract_cell_groups(&norm, 0.0);
    assert!(partition.num_groups() < 25, "equal neighbors must merge");
    let features = allocate_features(&grid, &partition);
    let ifl = partition_ifl(&grid, &partition, &features, IflOptions::default());
    assert_eq!(ifl, 0.0, "merging identical cells loses nothing");
}

#[test]
fn iteration2_small_positive_ifl_and_fewer_groups() {
    let grid = fig1_like_grid();
    let norm = normalize_attributes(&grid);
    let it1 = extract_cell_groups(&norm, 0.0);
    let it2 = extract_cell_groups(&norm, 1.0 / 35.0);
    assert!(it2.num_groups() < it1.num_groups());
    let features = allocate_features(&grid, &it2);
    let ifl = partition_ifl(&grid, &it2, &features, IflOptions::default());
    assert!(ifl > 0.0 && ifl < 0.05, "Fig. 1 iteration 2 IFL ≈ 0.0187-scale, got {ifl}");
}

#[test]
fn example3_rectangle_of_six_cells() {
    // Example 3's geometry in isolation: from (row1, col0) one can walk 3
    // cells horizontally and 2 rows vertically within the variation budget,
    // and the 2×3 rectangle (rCount = 6) beats both runs. Row 0 is mutually
    // incompatible so the greedy row-major scan cannot absorb the block
    // from above.
    #[rustfmt::skip]
    let values = vec![
        90.0, 80.0, 70.0, 60.0, 50.0,
        23.0, 23.0, 24.0, 31.0, 31.0,
        23.0, 24.0, 25.0, 25.0, 35.0,
        10.0, 10.0, 11.0, 12.0, 13.0,
    ];
    let grid = GridDataset::univariate(4, 5, values).unwrap();
    let norm = normalize_attributes(&grid);
    let partition = extract_cell_groups(&norm, 1.0 / 35.0);
    let g = partition.group_at(1, 0);
    let rect = partition.rect(g);
    assert_eq!(rect.len(), 6, "expected the 2×3 rectangle, got {rect:?}");
    assert_eq!(partition.group_at(1, 1), g);
    assert_eq!(partition.group_at(1, 2), g);
    assert_eq!(partition.group_at(2, 0), g);
    assert_eq!(partition.group_at(2, 2), g);
    // The 31s and the 35 stay out.
    assert_ne!(partition.group_at(1, 3), g);
    assert_ne!(partition.group_at(2, 4), g);
}

#[test]
fn example4_average_rounded_to_integer() {
    // A 6-cell group of integer values {23,23,23,24,25,24}: mean 23.67 →
    // rounds to 24; mode 23; equal losses pick the rounded mean.
    let values = vec![23.0, 23.0, 23.0, 24.0, 25.0, 24.0];
    let grid = GridDataset::new(
        1,
        6,
        1,
        values,
        vec![true; 6],
        vec!["v".into()],
        vec![AggType::Avg],
        vec![true], // integer-typed
        Bounds::unit(),
    )
    .unwrap();
    let norm = normalize_attributes(&grid);
    let partition = extract_cell_groups(&norm, 1.0);
    assert_eq!(partition.num_groups(), 1);
    let features = allocate_features(&grid, &partition);
    assert_eq!(features.row(0), Some(&[24.0][..]));
}

#[test]
fn example6_adjacency_from_rectangles() {
    // Group adjacency from the re-partitioned Fig. 1-like grid: symmetric,
    // self-loop free, and consistent with a brute-force cell scan.
    let grid = fig1_like_grid();
    let norm = normalize_attributes(&grid);
    let partition = extract_cell_groups(&norm, 1.0 / 35.0);
    let adj = spatial_repartition::core::group_adjacency(&partition);
    assert!(adj.is_symmetric());
    for g in 0..partition.num_groups() as u32 {
        assert!(!adj.neighbors(g).contains(&g));
        assert!(adj.degree(g) >= 1, "every group borders another in a 5×5 grid");
    }
}

#[test]
fn example7_sum_reconstruction_halves_group_value() {
    // Fig. 4: a 2-cell Sum group valued 54 reconstructs 27 per cell.
    let grid = GridDataset::new(
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
    let out = repartition(&grid, 0.25).unwrap();
    assert_eq!(out.repartitioned.num_groups(), 1);
    assert_eq!(out.repartitioned.group_feature(0), Some(&[54.0][..]));
    let rec = out.repartitioned.reconstruct(&grid).unwrap();
    assert_eq!(rec.features(0).unwrap(), &[27.0]);
    assert_eq!(rec.features(1).unwrap(), &[27.0]);
}
