//! Property tests for the `sr-snap v2` zero-copy format and the
//! v1 ↔ v2 migration path, over *arbitrary* repartitioned grids:
//!
//! 1. An engine loaded from v1 bytes (transcoded at load) and one
//!    serving the migrated v2 bytes answer point/window/knn queries
//!    bit-identically — the cross-format serving contract — and every
//!    cell value both serve equals `sr_core::reconstruct_grid` bit for
//!    bit, the paper's §III-C reference.
//! 2. Migration is lossless both ways: v1 → v2 → v1 reproduces the
//!    original v1 bytes exactly, and v2 re-encoding is deterministic.
//! 3. Truncating a v2 file at any byte boundary is cleanly rejected
//!    (format or checksum error), never a panic, never a wrong engine.
//! 4. Flipping any single byte anywhere in a v2 file — header, section
//!    table, pad bytes, any section — is detected. Unlike v1's single
//!    trailer CRC, v2 seals each region separately, so the test also
//!    proves there are no coverage gaps between the seals.
//!
//! `ci.sh` runs this file under `SR_THREADS=1` and `SR_THREADS=4`; the
//! answers the two engines produce are already thread-count invariant,
//! so the runs must be byte-for-byte identical too.

use proptest::prelude::*;
use sr_core::{reconstruct_grid, repartition};
use sr_grid::{AggType, Bounds, CellId, GridDataset};
use sr_serve::{
    engine_from_bytes, migrate_snapshot_bytes, peek_version, snapshot_to_bytes,
    snapshot_to_bytes_v2, snapshot_v2_from_bytes, QueryEngine, ServeError, Snapshot,
};

/// Builds a well-formed multivariate grid from strategy-drawn parts and
/// freezes a snapshot of its repartitioning (same generator as the v1
/// property suite, so the two files test the same input distribution).
/// Returns the grid too, as the reconstruction reference.
fn random_snapshot(
    rows: usize,
    cols: usize,
    p: usize,
    raw: &[f64],
    nulls: &[u8],
    theta: f64,
) -> (Snapshot, GridDataset) {
    let valid: Vec<bool> = nulls.iter().map(|&n| n != 0).collect();
    let grid = GridDataset::new(
        rows,
        cols,
        p,
        raw.to_vec(),
        valid,
        (0..p).map(|k| format!("a{k}")).collect(),
        (0..p).map(|k| if k % 2 == 0 { AggType::Sum } else { AggType::Avg }).collect(),
        vec![false; p],
        Bounds { lat_min: 40.0, lat_max: 41.0, lon_min: -74.0, lon_max: -73.0 },
    )
    .expect("generated grid is well-formed");
    let out = repartition(&grid, theta).expect("repartition succeeds");
    let snap = Snapshot::build(&out.repartitioned, &grid, theta).expect("snapshot builds");
    (snap, grid)
}

/// The shared strategy shape: grid dims, attribute count, raw values,
/// null mask.
fn grid_parts(
    max_side: usize,
    max_p: usize,
) -> impl Strategy<Value = (usize, usize, usize, Vec<f64>, Vec<u8>)> {
    (4usize..max_side, 4usize..max_side, 1usize..max_p).prop_flat_map(|(r, c, p)| {
        (
            Just(r),
            Just(c),
            Just(p),
            prop::collection::vec(1.0f64..500.0, r * c * p),
            prop::collection::vec(0u8..6, r * c),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The engine loaded from v1 bytes and the one serving migrate(v1
    /// bytes) answer point, window, and knn queries bit-identically,
    /// across the whole grid (every cell center probed) and across
    /// window shapes and `k` values; both serve exactly the values
    /// `reconstruct_grid` materializes.
    #[test]
    fn migrated_v2_serves_bit_identically_to_v1(
        (rows, cols, p, raw, nulls) in grid_parts(11, 4),
        theta in 0.02f64..0.3,
        k in 1usize..12,
    ) {
        let (snap, grid) = random_snapshot(rows, cols, p, &raw, &nulls, theta);
        let v1 = snapshot_to_bytes(&snap);
        let v2 = migrate_snapshot_bytes(&v1, 2).expect("v1 -> v2 migration");
        prop_assert_eq!(peek_version(&v2), Some(2));
        let from_v1 = engine_from_bytes(&v1).expect("v1 load");
        let borrowed = QueryEngine::from_v2(snapshot_v2_from_bytes(&v2).expect("v2 validate"));
        prop_assert_eq!(from_v1.stats(), borrowed.stats());

        // Independent anchor: every cell's served values equal the
        // reconstructed grid's, bit for bit, on both engines.
        let rec = reconstruct_grid(&grid, snap.partition(), snap.features()).unwrap();
        let bits = |v: Option<&[f64]>| v.map(|v| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>());
        for cell in 0..(rows * cols) as CellId {
            let want = bits(rec.features(cell).as_deref());
            prop_assert_eq!(&bits(from_v1.cell_values(cell)), &want, "v1 engine, cell {}", cell);
            prop_assert_eq!(&bits(borrowed.cell_values(cell)), &want, "v2 engine, cell {}", cell);
        }

        let b = from_v1.bounds();
        let lat_step = (b.lat_max - b.lat_min) / rows as f64;
        let lon_step = (b.lon_max - b.lon_min) / cols as f64;
        // Every cell center: point answers must agree bit-for-bit.
        for r in 0..rows {
            for c in 0..cols {
                let lat = b.lat_min + (r as f64 + 0.5) * lat_step;
                let lon = b.lon_min + (c as f64 + 0.5) * lon_step;
                prop_assert_eq!(from_v1.point(lat, lon), borrowed.point(lat, lon));
            }
        }
        // Windows: full grid, one quadrant, a thin band.
        let windows = [
            (b.lat_min, b.lat_max, b.lon_min, b.lon_max),
            (b.lat_min, (b.lat_min + b.lat_max) / 2.0, b.lon_min, (b.lon_min + b.lon_max) / 2.0),
            (b.lat_min + lat_step, b.lat_min + 2.0 * lat_step, b.lon_min, b.lon_max),
        ];
        for (lat0, lat1, lon0, lon1) in windows {
            prop_assert_eq!(
                from_v1.window(lat0, lat1, lon0, lon1),
                borrowed.window(lat0, lat1, lon0, lon1)
            );
            prop_assert_eq!(
                from_v1.window_scatter(lat0, lat1, lon0, lon1),
                borrowed.window_scatter(lat0, lat1, lon0, lon1)
            );
        }
        // knn from corners and center, including ties and k > groups.
        let probes = [
            (b.lat_min, b.lon_min),
            (b.lat_max, b.lon_max),
            ((b.lat_min + b.lat_max) / 2.0, (b.lon_min + b.lon_max) / 2.0),
        ];
        for (lat, lon) in probes {
            prop_assert_eq!(from_v1.knn(lat, lon, k), borrowed.knn(lat, lon, k));
        }
    }

    /// v1 → v2 → v1 reproduces the original v1 bytes exactly (v2 stores
    /// the raw feature table, so nothing is lost to representative
    /// derivation), and the v2 encoding itself is deterministic.
    #[test]
    fn migration_roundtrip_is_byte_identical(
        (rows, cols, p, raw, nulls) in grid_parts(11, 4),
        theta in 0.02f64..0.3,
    ) {
        let (snap, _) = random_snapshot(rows, cols, p, &raw, &nulls, theta);
        let v1 = snapshot_to_bytes(&snap);
        let v2 = migrate_snapshot_bytes(&v1, 2).expect("v1 -> v2");
        prop_assert_eq!(&migrate_snapshot_bytes(&v2, 1).expect("v2 -> v1"), &v1);
        prop_assert_eq!(&migrate_snapshot_bytes(&v2, 2).expect("v2 -> v2"), &v2);
        prop_assert_eq!(&snapshot_to_bytes_v2(&snap), &v2);
        // The borrowed snapshot materializes back to the original, and
        // every encoder-produced file passes the deep derived-section
        // audit (bit-level recomputation of counts, representatives,
        // centroids, and the packed index).
        let borrowed = snapshot_v2_from_bytes(&v2).unwrap();
        borrowed.verify_derived().expect("encoder output passes the deep audit");
        prop_assert_eq!(borrowed.to_snapshot().unwrap(), snap);
    }

    /// A v2 file truncated at *any* byte boundary is cleanly rejected —
    /// format or checksum error, never a panic, never an engine. The
    /// file-length field in the CRC-sealed header makes every proper
    /// prefix detectable before any section is touched.
    #[test]
    fn v2_truncated_anywhere_is_cleanly_rejected(
        (rows, cols, p, raw, nulls) in grid_parts(9, 3),
        theta in 0.02f64..0.3,
        cut_frac in 0.0f64..1.0,
    ) {
        let (snap, _) = random_snapshot(rows, cols, p, &raw, &nulls, theta);
        let bytes = snapshot_to_bytes_v2(&snap);
        let cut = ((cut_frac * bytes.len() as f64) as usize).min(bytes.len() - 1);
        match snapshot_v2_from_bytes(&bytes[..cut]) {
            Err(ServeError::Format { .. }) | Err(ServeError::Checksum { .. }) => {}
            Ok(_) => {
                return Err(TestCaseError::Fail(format!(
                    "truncation to {cut}/{} bytes validated successfully",
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

    /// Flipping any single byte anywhere in a v2 file is rejected: the
    /// header CRC, table CRC, per-section CRCs, and the zero checks on
    /// the only uncovered bytes (table pad, section padding) leave no
    /// byte whose corruption goes unnoticed.
    #[test]
    fn v2_detects_any_single_byte_corruption(
        (rows, cols, p, raw, nulls) in grid_parts(9, 3),
        theta in 0.02f64..0.3,
        pos_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let (snap, _) = random_snapshot(rows, cols, p, &raw, &nulls, theta);
        let bytes = snapshot_to_bytes_v2(&snap);
        let idx = ((pos_frac * bytes.len() as f64) as usize).min(bytes.len() - 1);
        let mut bad = bytes.clone();
        bad[idx] ^= 1 << bit;
        match snapshot_v2_from_bytes(&bad) {
            Err(ServeError::Format { .. }) | Err(ServeError::Checksum { .. }) => {}
            Ok(_) => {
                return Err(TestCaseError::Fail(format!(
                    "bit {bit} of byte {idx}/{} flipped, yet validation passed",
                    bytes.len()
                )));
            }
            Err(other) => {
                return Err(TestCaseError::Fail(format!(
                    "bit {bit} of byte {idx}/{} flipped, unexpected error {other:?}",
                    bytes.len()
                )));
            }
        }
    }
}
