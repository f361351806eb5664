//! Quickstart: bin raw points into a grid, re-partition it under
//! an information-loss budget, and inspect everything the framework gives
//! you — the cell-groups, their adjacency (Algorithm 3), the achieved IFL,
//! the preserved spatial autocorrelation, and the §III-C reconstruction.
//!
//! Run: `cargo run --release --example quickstart`

use spatial_repartition::prelude::*;

fn main() {
    // ── 1. Raw data: points (think individual home sales). ──────────────
    // Price varies smoothly from south-west to north-east plus local noise.
    // A chunk stores longitudes as `x` and latitudes as `y`.
    let mut points = PointChunk::with_capacity(4000, 1);
    for i in 0..4000 {
        let lat = (i % 63) as f64 / 63.0;
        let lon = ((i * 37) % 71) as f64 / 71.0;
        let price =
            150_000.0 + 200_000.0 * (lat + lon) / 2.0 + 8_000.0 * ((i * 7919) % 13) as f64 / 13.0;
        points.push(lon, lat, &[price]);
    }

    // ── 2. Bin them into a 24×24 spatial grid (mean price per cell). ────
    let schema = IngestSchema::parse("price:mean").expect("valid schema");
    let mut binner = CellAccumulators::new(24, 24, &schema);
    let mut occupied = Vec::new();
    binner.bin_chunk(&points, &Bounds::unit(), &mut occupied).expect("well-formed chunk");
    let mut grid = schema.empty_grid(24, 24, Bounds::unit()).expect("non-empty grid");
    binner.write_into(&mut grid, &occupied);
    println!(
        "grid: {}x{} = {} cells ({} valid)",
        grid.rows(),
        grid.cols(),
        grid.num_cells(),
        grid.num_valid_cells()
    );

    // The raw grid is spatially autocorrelated — the property the framework
    // preserves and sampling destroys.
    let adj = AdjacencyList::rook_from_grid(&grid);
    let mut prices = vec![0.0; grid.num_cells()];
    for id in grid.valid_cells() {
        prices[id as usize] = grid.value(id, 0);
    }
    println!("Moran's I of the input grid: {:.3}", morans_i(&prices, &adj).unwrap());

    // ── 3. Re-partition with an IFL budget θ = 0.05. ────────────────────
    let outcome = repartition(&grid, 0.05).expect("valid threshold");
    let rep = &outcome.repartitioned;
    println!(
        "\nre-partitioned: {} cells -> {} cell-groups ({:.1}% reduction) at IFL {:.4} <= 0.05",
        grid.num_cells(),
        rep.num_groups(),
        outcome.cell_reduction() * 100.0,
        rep.ifl(),
    );
    println!(
        "driver ran {} iterations; final min-adjacent variation {:.5}",
        outcome.iterations.len(),
        rep.min_adjacent_variation()
    );

    // Every cell-group is a rectangle; show the largest.
    let largest =
        (0..rep.num_groups() as u32).max_by_key(|&g| rep.partition().rect(g).len()).unwrap();
    let rect = rep.partition().rect(largest);
    println!(
        "largest group: rows {}..={}, cols {}..={} ({} cells)",
        rect.r0,
        rect.r1,
        rect.c0,
        rect.c1,
        rect.len()
    );

    // ── 4. Training-ready views (§III-B). ───────────────────────────────
    let prepared = PreparedTrainingData::from_repartitioned(rep);
    println!(
        "\nprepared training data: {} instances, {} attrs, adjacency symmetric: {}",
        prepared.len(),
        prepared.features.first().map_or(0, Vec::len),
        prepared.adjacency.is_symmetric(),
    );

    // ── 5. Reconstruction (§III-C): back to cell granularity. ───────────
    let reconstructed = rep.reconstruct(&grid).expect("shapes match");
    let ifl = information_loss(&grid, &reconstructed, IflOptions::default()).unwrap();
    println!("reconstructed grid IFL (must equal the driver's): {:.4}", ifl);
    assert!((ifl - rep.ifl()).abs() < 1e-12);

    // ── 6. The trade-off: higher budgets, fewer groups. ─────────────────
    println!("\ntheta  groups  reduction  achieved IFL");
    for theta in [0.02, 0.05, 0.10, 0.15] {
        let out = repartition(&grid, theta).expect("valid threshold");
        println!(
            "{theta:.2}   {:>6}  {:>8.1}%  {:.4}",
            out.repartitioned.num_groups(),
            out.cell_reduction() * 100.0,
            out.repartitioned.ifl()
        );
    }
}
