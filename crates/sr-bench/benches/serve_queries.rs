//! Serving-path benchmarks on a paper-scale (≈36k-cell) snapshot:
//! snapshot encode/decode for both `sr-snap` formats, query-engine
//! construction, and the three online query kinds. There is one serving
//! form — a validated v2 buffer served borrowed — so every engine row
//! measures a way into it: `query_engine_build_36k` encodes an
//! in-process snapshot and validates it, `engine_from_v1_bytes_36k` is
//! the one-off cost of serving a v1 file (decode + transcode +
//! validate), and `engine_build_v2_36k` wraps an already validated
//! buffer. Results are exported to `BENCH_serve.json` at the workspace
//! root; `prior/`-prefixed rows keep earlier numbers the current rows are
//! compared against in `docs/PERFORMANCE.md`.
//!
//! Run: `cargo bench -p sr-bench --bench serve_queries`

use criterion::{black_box, Criterion};
use sr_core::{IterationStrategy, RepartitionConfig, Repartitioner};
use sr_datasets::{Dataset, GridSize};
use sr_serve::{
    engine_from_bytes, snapshot_from_bytes, snapshot_to_bytes, snapshot_to_bytes_v2,
    snapshot_v2_from_bytes, QueryEngine, Snapshot,
};

fn main() {
    let size = GridSize::Cells36k;
    let theta = 0.05;
    let grid = Dataset::TaxiMultivariate.generate(size, 1);
    println!(
        "preparing: {}x{} = {} cells, theta {theta}",
        grid.rows(),
        grid.cols(),
        grid.num_cells()
    );
    let cfg = RepartitionConfig::new(theta)
        .unwrap()
        .with_strategy(IterationStrategy::Exponential { initial_stride: 8, growth: 1.6 });
    let start = std::time::Instant::now();
    let outcome = Repartitioner::with_config(cfg).unwrap().run(&grid).unwrap();
    let rep = &outcome.repartitioned;
    println!(
        "repartitioned to {} groups (IFL {:.4}) in {:.1}s",
        rep.num_groups(),
        rep.ifl(),
        start.elapsed().as_secs_f64()
    );
    let snap = Snapshot::build(rep, &grid, theta).unwrap();
    let bytes = snapshot_to_bytes(&snap);
    let bytes_v2 = snapshot_to_bytes_v2(&snap);
    println!("snapshot: {} bytes v1, {} bytes v2\n", bytes.len(), bytes_v2.len());
    let v2 = snapshot_v2_from_bytes(&bytes_v2).unwrap();
    // The query rows serve the validated v2 buffer, as a loaded file does.
    let engine = QueryEngine::from_v2(v2.clone());
    let b = grid.bounds();
    let (lat, lon) = grid.cell_centroid(grid.cell_id(grid.rows() / 2, grid.cols() / 2));
    // A window covering roughly 10% of the grid's area.
    let lat_span = b.lat_max - b.lat_min;
    let lon_span = b.lon_max - b.lon_min;
    let window = (
        b.lat_min + 0.45 * lat_span,
        b.lat_min + 0.55 * lat_span + 0.2 * lat_span,
        b.lon_min + 0.45 * lon_span,
        b.lon_min + 0.55 * lon_span + 0.2 * lon_span,
    );

    let mut c = Criterion::default();
    c.bench_function("snapshot_encode_36k", |bench| {
        bench.iter(|| snapshot_to_bytes(black_box(&snap)))
    });
    c.bench_function("snapshot_decode_36k", |bench| {
        bench.iter(|| snapshot_from_bytes(black_box(&bytes)).unwrap())
    });
    c.bench_function("query_engine_build_36k", |bench| {
        bench.iter(|| QueryEngine::new(black_box(snap.clone())))
    });
    c.bench_function("engine_from_v1_bytes_36k", |bench| {
        bench.iter(|| engine_from_bytes(black_box(&bytes)).unwrap())
    });
    // v2 startup path: encode, validate (the whole load-time cost), and
    // engine construction on top of a validated buffer.
    c.bench_function("snapshot_encode_v2_36k", |bench| {
        bench.iter(|| snapshot_to_bytes_v2(black_box(&snap)))
    });
    c.bench_function("snapshot_validate_v2_36k", |bench| {
        bench.iter(|| snapshot_v2_from_bytes(black_box(&bytes_v2)).unwrap())
    });
    c.bench_function("engine_build_v2_36k", |bench| {
        bench.iter(|| QueryEngine::from_v2(black_box(v2.clone())))
    });
    c.bench_function("point_query", |bench| {
        bench.iter(|| engine.point(black_box(lat), black_box(lon)))
    });
    c.bench_function("window_query_10pct_area", |bench| {
        bench.iter(|| {
            engine.window(
                black_box(window.0),
                black_box(window.1),
                black_box(window.2),
                black_box(window.3),
            )
        })
    });
    c.bench_function("knn_query_k8", |bench| {
        bench.iter(|| engine.knn(black_box(lat), black_box(lon), black_box(8)))
    });

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    c.export_json(out).expect("write BENCH_serve.json");
    println!("\nwrote {out}");
}
