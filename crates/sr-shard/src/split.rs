//! Spatial shard splitting: Hilbert-contiguous, cell-balanced.
//!
//! The splitter orders the partition's cell-groups along the Hilbert
//! curve of their rectangle centers ([`shard_order`]) and cuts that order
//! into `K` contiguous runs balanced by **cell count** ([`plan_shards`]) —
//! balancing by groups would let one giant rectangle dwarf a shard, while
//! cells track the actual window-scan and memory cost. Hilbert
//! contiguity keeps each shard spatially compact, which is what makes the
//! router's knn centroid-box expansion bound tight.
//!
//! Each shard becomes a *full-grid* snapshot ([`shard_snapshot`]): the
//! complete partition travels with every shard (group ids stay global),
//! and ownership is expressed by masking — the validity bitmap keeps only
//! cells of owned groups, the feature table keeps only owned groups'
//! vectors. Owned groups therefore keep their original valid-member
//! counts, so the per-group representatives a shard engine computes are
//! bit-identical to the unsharded engine's; non-owned groups look like
//! null groups and never answer from the wrong shard.

use crate::manifest::{ShardEntry, ShardManifest};
use crate::Result;
use sr_core::{GroupFeatures, Partition};
use sr_grid::hilbert_key_scaled;
use sr_par::Pool;
use sr_serve::snapshot::Snapshot;
use sr_serve::snapshot_to_bytes_v2;
use std::path::Path;

/// How to cut a snapshot into shards.
#[derive(Debug, Clone)]
pub struct SplitOptions {
    /// Number of shards `K` (clamped to the group count).
    pub shards: usize,
    /// Replicas per shard (minimum 1); replicas are byte-identical files.
    pub replicas: usize,
}

impl Default for SplitOptions {
    fn default() -> Self {
        SplitOptions { shards: 4, replicas: 1 }
    }
}

/// One planned shard: a contiguous run of the Hilbert group order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// Offset into [`shard_order`]'s list.
    pub start: usize,
    /// Number of consecutive groups owned.
    pub count: usize,
    /// Total cells across the owned rectangles.
    pub cells: usize,
}

/// Group ids ordered by `(Hilbert key of rectangle center, id)` — a pure
/// function of the partition, so every process that holds any shard of a
/// deployment derives the identical order.
pub fn shard_order(partition: &Partition) -> Vec<u32> {
    let rects = partition.rects();
    let (rows, cols) = (partition.rows(), partition.cols());
    let mut order: Vec<u32> = (0..rects.len() as u32).collect();
    order.sort_by_key(|&g| {
        let rect = &rects[g as usize];
        let center_r = (rect.r0 + rect.r1 + 1) as f64 / 2.0;
        let center_c = (rect.c0 + rect.c1 + 1) as f64 / 2.0;
        (hilbert_key_scaled(center_r, center_c, rows, cols), g)
    });
    order
}

/// Cuts `order` into `k` contiguous runs balanced by cell count: a
/// greedy walk that closes a shard once it reaches the ideal share of
/// the remaining cells, always leaving enough groups for the remaining
/// shards. Deterministic; `k` is clamped to the group count.
pub fn plan_shards(partition: &Partition, order: &[u32], k: usize) -> Vec<ShardPlan> {
    let rects = partition.rects();
    let k = k.clamp(1, order.len());
    let mut plans = Vec::with_capacity(k);
    let mut start = 0usize;
    let mut cells_left: usize = order.iter().map(|&g| rects[g as usize].len()).sum();
    for s in 0..k {
        let shards_left = k - s;
        let target = cells_left.div_ceil(shards_left);
        // Must keep at least one group per remaining shard.
        let max_end = order.len() - (shards_left - 1);
        let mut end = start;
        let mut cells = 0usize;
        while end < max_end && (cells < target || end == start) {
            cells += rects[order[end] as usize].len();
            end += 1;
        }
        plans.push(ShardPlan { start, count: end - start, cells });
        cells_left -= cells;
        start = end;
    }
    plans
}

/// Builds shard `plan`'s snapshot from the full snapshot by masking: the
/// partition, schema, bounds, and run parameters are copied verbatim;
/// validity keeps only cells whose group the shard owns; features keep
/// only owned groups. The result is a valid standalone snapshot,
/// serializable in either `sr-snap` format.
pub fn shard_snapshot(full: &Snapshot, order: &[u32], plan: &ShardPlan) -> Result<Snapshot> {
    let partition = full.partition();
    let mut owned = vec![false; partition.num_groups()];
    for &g in &order[plan.start..plan.start + plan.count] {
        owned[g as usize] = true;
    }
    let valid: Vec<bool> = full
        .valid_mask()
        .iter()
        .enumerate()
        .map(|(cell, &v)| v && owned[partition.group_of(cell as u32) as usize])
        .collect();
    // Unowned groups become null (count 0); `from_flat` zeroes their rows.
    let full_features = full.features();
    let mut counts = full_features.valid_counts().to_vec();
    for (c, _) in counts.iter_mut().zip(&owned).filter(|(_, &o)| !o) {
        *c = 0;
    }
    let features = GroupFeatures::from_flat(
        full_features.num_attrs(),
        full_features.values().to_vec(),
        counts,
    );
    Ok(Snapshot::from_parts(
        full.theta(),
        full.ifl(),
        full.min_adjacent_variation(),
        full.bounds(),
        full.attr_names().to_vec(),
        full.agg_types().to_vec(),
        full.integer_attrs().to_vec(),
        valid,
        partition.clone(),
        features,
        full.adjacency().clone(),
    )?)
}

/// The centroid bounding box of the owned *featured* groups, using the
/// exact centroid arithmetic the query engine uses.
fn centroid_bbox(full: &Snapshot, order: &[u32], plan: &ShardPlan) -> Option<(f64, f64, f64, f64)> {
    let bounds = full.bounds();
    let lat_step = (bounds.lat_max - bounds.lat_min) / full.rows() as f64;
    let lon_step = (bounds.lon_max - bounds.lon_min) / full.cols() as f64;
    let mut bbox: Option<(f64, f64, f64, f64)> = None;
    for &g in &order[plan.start..plan.start + plan.count] {
        if full.features().row(g as usize).is_none() {
            continue;
        }
        let rect = full.partition().rect(g);
        let lat = bounds.lat_min + (rect.r0 + rect.r1 + 1) as f64 / 2.0 * lat_step;
        let lon = bounds.lon_min + (rect.c0 + rect.c1 + 1) as f64 / 2.0 * lon_step;
        bbox = Some(match bbox {
            None => (lat, lat, lon, lon),
            Some((lat_min, lat_max, lon_min, lon_max)) => {
                (lat_min.min(lat), lat_max.max(lat), lon_min.min(lon), lon_max.max(lon))
            }
        });
    }
    bbox
}

/// Splits `full` into `opts.shards` shard snapshots under `dir`, writes
/// `opts.replicas` byte-identical files per shard
/// (`shard<S>_r<R>.snap`), and writes + returns the checksummed
/// manifest (`manifest.txt`). Shard snapshots are built on `pool`.
pub fn write_shards(
    full: &Snapshot,
    dir: impl AsRef<Path>,
    opts: &SplitOptions,
    pool: &Pool,
) -> Result<ShardManifest> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    let replicas = opts.replicas.max(1);
    let order = shard_order(full.partition());
    let plans = plan_shards(full.partition(), &order, opts.shards);

    // Build + serialize every shard snapshot in parallel (deterministic
    // order-preserving map), then write sequentially. Shards are written
    // in the v2 zero-copy format so routers map them instead of decoding.
    let encoded: Vec<Result<Vec<u8>>> = pool
        .par_map(&plans, 1, |plan| Ok(snapshot_to_bytes_v2(&shard_snapshot(full, &order, plan)?)));
    let mut shards = Vec::with_capacity(plans.len());
    for (s, (plan, bytes)) in plans.iter().zip(encoded).enumerate() {
        let bytes = bytes?;
        let mut replica_paths = Vec::with_capacity(replicas);
        for r in 0..replicas {
            let name = format!("shard{s}_r{r}.snap");
            std::fs::write(dir.join(&name), &bytes)?;
            replica_paths.push(name.into());
        }
        shards.push(ShardEntry {
            start: plan.start,
            count: plan.count,
            cells: plan.cells,
            bbox: centroid_bbox(full, &order, plan),
            replicas: replica_paths,
        });
    }

    let manifest = ShardManifest {
        rows: full.rows(),
        cols: full.cols(),
        groups: full.partition().num_groups(),
        cells: full.num_cells(),
        valid_cells: full.valid_mask().iter().filter(|&&v| v).count(),
        valid_groups: full.features().num_valid_groups(),
        attrs: full.num_attrs(),
        theta: full.theta(),
        ifl: full.ifl(),
        replicas,
        snap_format: 2,
        shards,
    };
    crate::manifest::write_manifest(&manifest, dir.join("manifest.txt"))?;
    Ok(manifest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sr_core::repartition;
    use sr_grid::GridDataset;

    fn full_snapshot() -> Snapshot {
        let vals: Vec<f64> =
            (0..144).map(|i| 10.0 + (i / 12) as f64 * 0.4 + (i % 12) as f64 * 0.15).collect();
        let mut grid = GridDataset::univariate(12, 12, vals).unwrap();
        grid.set_null(7);
        grid.set_null(100);
        let out = repartition(&grid, 0.05).unwrap();
        Snapshot::build(&out.repartitioned, &grid, 0.05).unwrap()
    }

    #[test]
    fn plan_tiles_the_order_and_balances_cells() {
        let snap = full_snapshot();
        let order = shard_order(snap.partition());
        for k in [1usize, 2, 3, 5, 8] {
            let plans = plan_shards(snap.partition(), &order, k);
            assert_eq!(plans.len(), k.min(order.len()));
            let mut next = 0usize;
            let mut total = 0usize;
            for plan in &plans {
                assert_eq!(plan.start, next);
                assert!(plan.count >= 1);
                next += plan.count;
                total += plan.cells;
            }
            assert_eq!(next, order.len(), "k={k}");
            assert_eq!(total, snap.num_cells(), "k={k}");
            // No shard may exceed twice the ideal share (greedy bound).
            let ideal = snap.num_cells().div_ceil(plans.len());
            for plan in &plans {
                let max_rect = snap.partition().rects().iter().map(|r| r.len()).max().unwrap();
                assert!(
                    plan.cells <= 2 * ideal.max(max_rect),
                    "k={k}: shard of {} cells vs ideal {ideal}",
                    plan.cells
                );
            }
        }
    }

    #[test]
    fn shard_snapshots_mask_but_validate() {
        let snap = full_snapshot();
        let order = shard_order(snap.partition());
        let plans = plan_shards(snap.partition(), &order, 3);
        let mut valid_union = 0usize;
        let mut featured_union = 0usize;
        for plan in &plans {
            let shard = shard_snapshot(&snap, &order, plan).unwrap();
            // Same partition, masked validity/features.
            assert_eq!(shard.partition(), snap.partition());
            valid_union += shard.valid_mask().iter().filter(|&&v| v).count();
            featured_union += shard.features().num_valid_groups();
            // Round-trips through both snapshot codecs.
            let v1 = sr_serve::snapshot_to_bytes(&shard);
            assert_eq!(sr_serve::snapshot_from_bytes(&v1).unwrap(), shard);
            let v2 = snapshot_to_bytes_v2(&shard);
            assert_eq!(
                sr_serve::snapshot_v2_from_bytes(&v2).unwrap().to_snapshot().unwrap(),
                shard
            );
        }
        // Masks partition the original validity and feature sets exactly.
        assert_eq!(valid_union, snap.valid_mask().iter().filter(|&&v| v).count());
        assert_eq!(featured_union, snap.features().num_valid_groups());
    }

    #[test]
    fn write_shards_emits_replicas_and_manifest() {
        let snap = full_snapshot();
        let dir = std::env::temp_dir().join(format!("sr_shard_split_{}", std::process::id()));
        let opts = SplitOptions { shards: 3, replicas: 2 };
        let manifest = write_shards(&snap, &dir, &opts, Pool::global()).unwrap();
        assert_eq!(manifest.shards.len(), 3);
        assert_eq!(manifest.replicas, 2);
        assert_eq!(manifest.snap_format, 2);
        for (s, entry) in manifest.shards.iter().enumerate() {
            let paths = manifest.replica_paths(&dir, s);
            assert_eq!(paths.len(), 2);
            let first = std::fs::read(&paths[0]).unwrap();
            assert_eq!(sr_serve::peek_version(&first), Some(2), "shards are written as v2");
            for path in &paths[1..] {
                assert_eq!(std::fs::read(path).unwrap(), first, "replicas are byte-identical");
            }
            assert!(entry.bbox.is_some(), "every shard here owns featured groups");
        }
        let loaded = crate::manifest::load_manifest(dir.join("manifest.txt")).unwrap();
        assert_eq!(loaded, manifest);
        std::fs::remove_dir_all(&dir).ok();
    }
}
