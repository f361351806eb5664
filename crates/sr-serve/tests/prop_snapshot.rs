//! Property tests for the `sr-snap v1` format over *arbitrary* repartitioned
//! grids — not hand-picked examples:
//!
//! 1. write → read → write produces byte-identical output (and an equal
//!    `Snapshot`), for any shape, schema, null mask, value mix, and θ.
//! 2. Flipping any single bit anywhere in the encoding is detected — the
//!    CRC-32 trailer guarantees all single-bit (indeed all single-byte)
//!    corruptions are caught before parsing.
//! 3. Truncating the encoding at any byte is cleanly rejected (format or
//!    checksum error), never decoded into something else and never a
//!    panic — the torn-write half of the robustness contract.
//! 4. Snapshot bytes are invariant to the compute pool's thread count.
//! 5. Loading v1 bytes (transcoded to v2 at load) always yields an
//!    engine, with the same statistics as loading the v2 encoding.

use proptest::prelude::*;
use sr_core::{repartition, Repartitioner};
use sr_grid::{AggType, Bounds, GridDataset};
use sr_serve::{
    engine_from_bytes, snapshot_from_bytes, snapshot_to_bytes, snapshot_to_bytes_v2, ServeError,
    Snapshot,
};

/// Builds a well-formed multivariate grid from strategy-drawn parts and
/// freezes a snapshot of its repartitioning.
fn random_snapshot(
    rows: usize,
    cols: usize,
    p: usize,
    raw: &[f64],
    nulls: &[u8],
    theta: f64,
) -> Snapshot {
    let cells = rows * cols;
    let data: Vec<f64> = raw.to_vec();
    // Sparse nulls (~1 in 6) so repartitioning always has work to do.
    let valid: Vec<bool> = nulls.iter().map(|&n| n != 0).collect();
    let grid = GridDataset::new(
        rows,
        cols,
        p,
        data,
        valid,
        (0..p).map(|k| format!("a{k}")).collect(),
        (0..p).map(|k| if k % 2 == 0 { AggType::Sum } else { AggType::Avg }).collect(),
        vec![false; p],
        Bounds { lat_min: 40.0, lat_max: 41.0, lon_min: -74.0, lon_max: -73.0 },
    )
    .expect("generated grid is well-formed");
    debug_assert_eq!(grid.num_cells(), cells);
    let out = repartition(&grid, theta).expect("repartition succeeds");
    Snapshot::build(&out.repartitioned, &grid, theta).expect("snapshot builds")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Round-trip is bit-exact for arbitrary snapshots: the decoded value
    /// equals the original, and re-encoding reproduces identical bytes.
    #[test]
    fn snapshot_roundtrip_is_byte_identical(
        (rows, cols, p, raw, nulls) in (4usize..12, 4usize..12, 1usize..4)
            .prop_flat_map(|(r, c, p)| (
                Just(r),
                Just(c),
                Just(p),
                prop::collection::vec(1.0f64..500.0, r * c * p),
                prop::collection::vec(0u8..6, r * c),
            )),
        theta in 0.02f64..0.3,
    ) {
        let snap = random_snapshot(rows, cols, p, &raw, &nulls, theta);
        let bytes = snapshot_to_bytes(&snap);
        let back = snapshot_from_bytes(&bytes).expect("decode");
        prop_assert_eq!(&back, &snap);
        prop_assert_eq!(snapshot_to_bytes(&back), bytes);
    }

    /// Every valid v1 file loads into an engine — the v1 → v2 transcode
    /// at load is fallible, never a panic, and never fails on a valid
    /// snapshot — and serves the same statistics as the v2 encoding.
    #[test]
    fn v1_bytes_load_like_v2_bytes(
        (rows, cols, p, raw, nulls) in (4usize..12, 4usize..12, 1usize..4)
            .prop_flat_map(|(r, c, p)| (
                Just(r),
                Just(c),
                Just(p),
                prop::collection::vec(1.0f64..500.0, r * c * p),
                prop::collection::vec(0u8..6, r * c),
            )),
        theta in 0.02f64..0.3,
    ) {
        let snap = random_snapshot(rows, cols, p, &raw, &nulls, theta);
        let from_v1 = engine_from_bytes(&snapshot_to_bytes(&snap)).expect("v1 bytes load");
        let from_v2 = engine_from_bytes(&snapshot_to_bytes_v2(&snap)).expect("v2 bytes load");
        prop_assert_eq!(from_v1.stats(), from_v2.stats());
    }

    /// Any single flipped bit is rejected, and specifically as a checksum
    /// failure: CRC-32 detects every single-bit error, and the checksum is
    /// verified before any field is parsed.
    #[test]
    fn snapshot_detects_any_single_bit_corruption(
        (rows, cols, p, raw, nulls) in (4usize..10, 4usize..10, 1usize..3)
            .prop_flat_map(|(r, c, p)| (
                Just(r),
                Just(c),
                Just(p),
                prop::collection::vec(1.0f64..500.0, r * c * p),
                prop::collection::vec(0u8..6, r * c),
            )),
        theta in 0.02f64..0.3,
        pos_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let snap = random_snapshot(rows, cols, p, &raw, &nulls, theta);
        let bytes = snapshot_to_bytes(&snap);
        let idx = ((pos_frac * bytes.len() as f64) as usize).min(bytes.len() - 1);
        let mut bad = bytes.clone();
        bad[idx] ^= 1 << bit;
        match snapshot_from_bytes(&bad) {
            Err(ServeError::Checksum { stored, computed }) => {
                prop_assert_ne!(stored, computed);
            }
            other => {
                return Err(TestCaseError::Fail(format!(
                    "bit {bit} of byte {idx}/{} flipped, expected Checksum error, got {other:?}",
                    bytes.len()
                )));
            }
        }
    }

    /// A snapshot truncated at *any* byte boundary is cleanly rejected —
    /// as a format or checksum error — never decoded into a different
    /// snapshot and never a panic. This is the property that makes the
    /// atomic-write discipline (`save_snapshot`'s temp + fsync + rename)
    /// sufficient: even if a torn prefix ever became visible, it could
    /// not be served (`docs/ROBUSTNESS.md`).
    #[test]
    fn snapshot_truncated_anywhere_is_cleanly_rejected(
        (rows, cols, p, raw, nulls) in (4usize..10, 4usize..10, 1usize..3)
            .prop_flat_map(|(r, c, p)| (
                Just(r),
                Just(c),
                Just(p),
                prop::collection::vec(1.0f64..500.0, r * c * p),
                prop::collection::vec(0u8..6, r * c),
            )),
        theta in 0.02f64..0.3,
        cut_frac in 0.0f64..1.0,
    ) {
        let snap = random_snapshot(rows, cols, p, &raw, &nulls, theta);
        let bytes = snapshot_to_bytes(&snap);
        // Every prefix length from empty to one-byte-short is invalid.
        let cut = ((cut_frac * bytes.len() as f64) as usize).min(bytes.len() - 1);
        match snapshot_from_bytes(&bytes[..cut]) {
            Err(ServeError::Format { .. }) | Err(ServeError::Checksum { .. }) => {}
            Ok(_) => {
                return Err(TestCaseError::Fail(format!(
                    "truncation to {cut}/{} bytes decoded successfully",
                    bytes.len()
                )));
            }
            Err(other) => {
                return Err(TestCaseError::Fail(format!(
                    "truncation to {cut}/{} bytes gave unexpected error {other:?}",
                    bytes.len()
                )));
            }
        }
    }

    /// Snapshots frozen from parallel repartition runs are byte-identical
    /// (checksum included) to snapshots from serial runs — the end-to-end
    /// consequence of the sr-par determinism contract
    /// (docs/PERFORMANCE.md): thread count can never change what gets
    /// served.
    #[test]
    fn snapshot_bytes_thread_invariant(
        (rows, cols, p, raw, nulls) in (4usize..12, 4usize..12, 1usize..4)
            .prop_flat_map(|(r, c, p)| (
                Just(r),
                Just(c),
                Just(p),
                prop::collection::vec(1.0f64..500.0, r * c * p),
                prop::collection::vec(0u8..6, r * c),
            )),
        theta in 0.02f64..0.3,
    ) {
        let cells = rows * cols;
        let data: Vec<f64> = raw.to_vec();
        let valid: Vec<bool> = nulls.iter().map(|&n| n != 0).collect();
        let grid = GridDataset::new(
            rows,
            cols,
            p,
            data,
            valid,
            (0..p).map(|k| format!("a{k}")).collect(),
            (0..p).map(|k| if k % 2 == 0 { AggType::Sum } else { AggType::Avg }).collect(),
            vec![false; p],
            Bounds { lat_min: 40.0, lat_max: 41.0, lon_min: -74.0, lon_max: -73.0 },
        )
        .expect("generated grid is well-formed");
        debug_assert_eq!(grid.num_cells(), cells);
        let driver = Repartitioner::new(theta).expect("valid theta");
        let serial = driver.run_with_pool(&grid, &sr_par::Pool::new(1)).expect("serial run");
        let serial_bytes =
            snapshot_to_bytes(&Snapshot::build(&serial.repartitioned, &grid, theta).unwrap());
        for threads in [2usize, 8] {
            let pool = sr_par::Pool::new(threads);
            let par = driver.run_with_pool(&grid, &pool).expect("parallel run");
            let par_bytes =
                snapshot_to_bytes(&Snapshot::build(&par.repartitioned, &grid, theta).unwrap());
            prop_assert_eq!(&par_bytes, &serial_bytes, "snapshot differs at {} threads", threads);
        }
    }
}
