//! Incremental re-partitioning under streaming cell updates — the paper's
//! §VI future work ("extending support for … streaming scenarios"),
//! implemented as split-on-write with periodic compaction.
//!
//! The invariant that makes streaming tractable: when a cell's value
//! changes, *splitting its group into singleton cells* can only lower the
//! information loss (a singleton represents itself exactly), while all
//! other groups' IFL contributions are untouched. So:
//!
//! - [`StreamingRepartitioner::apply`] splits the affected groups into
//!   singletons, writes the new values, and updates the IFL bookkeeping
//!   incrementally — O(affected-group size) per update, never a full pass.
//! - The IFL therefore never exceeds the threshold between compactions
//!   (property-tested).
//! - Fragmentation accumulates; [`StreamingRepartitioner::fragmentation`]
//!   tracks it and [`StreamingRepartitioner::compact`] re-runs the batch
//!   driver to restore the reduction.

use crate::ifl::representative;
use crate::partition::{GroupId, GroupRect};
use crate::repartition::{IterationStrategy, RepartitionConfig, Repartitioner};
use crate::{CoreError, Result};
use sr_grid::{CellId, GridDataset, IflOptions};

/// One streaming update: a cell gets a fresh feature vector (`None` clears
/// the cell to null — e.g. a region going out of coverage).
#[derive(Debug, Clone)]
pub struct CellUpdate {
    /// Target cell.
    pub cell: CellId,
    /// New feature vector, or `None` to null the cell.
    pub features: Option<Vec<f64>>,
}

/// A re-partitioned dataset that absorbs cell updates incrementally.
///
/// ```
/// use sr_core::{CellUpdate, StreamingRepartitioner};
/// use sr_grid::GridDataset;
/// let vals: Vec<f64> = (0..64).map(|i| 50.0 + (i / 8) as f64 * 0.2).collect();
/// let grid = GridDataset::univariate(8, 8, vals).unwrap();
/// let mut s = StreamingRepartitioner::new(grid, 0.05).unwrap();
/// s.apply(&[CellUpdate { cell: 10, features: Some(vec![99.0]) }]).unwrap();
/// assert!(s.ifl() <= 0.05); // the budget holds through updates
/// ```
///
/// IFL bookkeeping note: a singleton group has zero error but its valid
/// cell still contributes *terms* to Eq. 3's denominator (one per countable
/// attribute). Dropping those terms would shrink the denominator and could
/// push the mean *up* past the budget — the accounting keeps them.
#[derive(Debug, Clone)]
pub struct StreamingRepartitioner {
    grid: GridDataset,
    threshold: f64,
    ifl_options: IflOptions,
    // Mutable partition state (same encoding as `Partition`, but growable).
    rects: Vec<GroupRect>,
    cell_to_group: Vec<GroupId>,
    features: Vec<Option<Vec<f64>>>,
    valid_counts: Vec<usize>,
    /// Per-group IFL bookkeeping: (Σ relative-error terms, #terms).
    contributions: Vec<(f64, usize)>,
    /// Group count right after the last compaction (fragmentation anchor).
    compacted_groups: usize,
}

impl StreamingRepartitioner {
    /// Builds the streaming state by running the batch driver on `grid` at
    /// `threshold`.
    pub fn new(grid: GridDataset, threshold: f64) -> Result<Self> {
        let config =
            RepartitionConfig::new(threshold)?.with_strategy(if grid.num_cells() > 2_000 {
                IterationStrategy::Exponential { initial_stride: 8, growth: 1.6 }
            } else {
                IterationStrategy::EveryDistinct
            });
        let outcome = Repartitioner::with_config(config)?.run(&grid)?;
        let rep = outcome.repartitioned;
        let partition = rep.partition();

        let rects = partition.rects().to_vec();
        let cell_to_group = partition.cell_to_group().to_vec();
        let features = rep.features().iter().map(|f| f.map(<[f64]>::to_vec)).collect();

        let mut this = StreamingRepartitioner {
            threshold,
            ifl_options: IflOptions::default(),
            rects,
            cell_to_group,
            features,
            valid_counts: Vec::new(),
            contributions: Vec::new(),
            compacted_groups: 0,
            grid,
        };
        this.rebuild_bookkeeping();
        this.compacted_groups = this.num_groups();
        Ok(this)
    }

    /// Number of cell-groups currently live.
    pub fn num_groups(&self) -> usize {
        self.rects.len()
    }

    /// Group containing a cell.
    pub fn group_of(&self, cell: CellId) -> GroupId {
        self.cell_to_group[cell as usize]
    }

    /// Feature vector of a group.
    pub fn group_feature(&self, g: GroupId) -> Option<&[f64]> {
        self.features[g as usize].as_deref()
    }

    /// Current information loss (maintained incrementally).
    pub fn ifl(&self) -> f64 {
        let (sum, terms) =
            self.contributions.iter().fold((0.0, 0usize), |(s, t), &(gs, gt)| (s + gs, t + gt));
        if terms == 0 {
            0.0
        } else {
            sum / terms as f64
        }
    }

    /// The loss budget this instance maintains.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Growth of the group count since the last compaction:
    /// `groups / groups_at_compaction` (1.0 = no fragmentation).
    pub fn fragmentation(&self) -> f64 {
        self.num_groups() as f64 / self.compacted_groups.max(1) as f64
    }

    /// Borrow the current grid (updates applied).
    pub fn grid(&self) -> &GridDataset {
        &self.grid
    }

    /// Applies a batch of updates: each affected group is split into
    /// singleton groups, the new values written, and IFL bookkeeping
    /// adjusted. Returns the number of groups that were split.
    ///
    /// Emits a `streaming.apply` span and bumps the
    /// `streaming.updates_total` / `streaming.splits_total` counters
    /// (`docs/OBSERVABILITY.md`).
    pub fn apply(&mut self, updates: &[CellUpdate]) -> Result<usize> {
        let mut span = sr_obs::span("streaming.apply");
        let p = self.grid.num_attrs();
        for u in updates {
            if let Some(fv) = &u.features {
                if fv.len() != p {
                    return Err(CoreError::Grid(sr_grid::GridError::DimensionMismatch {
                        context: "update feature arity != grid attributes",
                    }));
                }
            }
            if u.cell as usize >= self.grid.num_cells() {
                return Err(CoreError::Grid(sr_grid::GridError::DimensionMismatch {
                    context: "update cell id out of range",
                }));
            }
        }

        let mut splits = 0usize;
        for u in updates {
            let g = self.cell_to_group[u.cell as usize];
            if self.rects[g as usize].len() > 1 {
                self.split_group(g);
                splits += 1;
            }
            // The cell is now a singleton group; write the value.
            let sg = self.cell_to_group[u.cell as usize] as usize;
            debug_assert_eq!(self.rects[sg].len(), 1);
            match &u.features {
                Some(fv) => {
                    for (k, &v) in fv.iter().enumerate() {
                        self.grid.set_value(u.cell, k, v);
                    }
                    // set_value does not flip validity; a previously nulled
                    // cell becomes live again.
                    self.grid.set_valid(u.cell);
                    self.features[sg] = Some(fv.clone());
                    self.valid_counts[sg] = 1;
                    // Zero loss, but the cell's countable attributes stay in
                    // the denominator.
                    self.contributions[sg] = (0.0, self.countable_terms(u.cell));
                }
                None => {
                    self.grid.set_null(u.cell);
                    self.features[sg] = None;
                    self.valid_counts[sg] = 0;
                    self.contributions[sg] = (0.0, 0);
                }
            }
        }
        let metrics = sr_obs::Registry::global();
        metrics.counter("streaming.updates_total").add(updates.len() as u64);
        metrics.counter("streaming.splits_total").add(splits as u64);
        span.record("updates", updates.len());
        span.record("splits", splits);
        span.record("groups", self.num_groups());
        Ok(splits)
    }

    /// Number of Eq.-3 terms a valid cell contributes: every `Mode`
    /// attribute plus every numeric attribute above the zero guard.
    fn countable_terms(&self, cell: CellId) -> usize {
        let fv = self.grid.features_unchecked(cell);
        fv.iter()
            .zip(self.grid.agg_types())
            .filter(|(v, agg)| {
                **agg == sr_grid::AggType::Mode || v.abs() > self.ifl_options.zero_eps
            })
            .count()
    }

    /// Re-runs the batch driver over the *current* grid, restoring the
    /// reduction lost to update-driven splits. Returns the group counts
    /// (before, after).
    ///
    /// Emits a `streaming.compact` span (the nested batch driver emits its
    /// own `repartition.run` tree beneath it) and bumps
    /// `streaming.compactions_total`.
    pub fn compact(&mut self) -> Result<(usize, usize)> {
        let mut span = sr_obs::span("streaming.compact");
        sr_obs::Registry::global().counter("streaming.compactions_total").inc();
        let before = self.num_groups();
        let fresh = StreamingRepartitioner::new(self.grid.clone(), self.threshold)?;
        *self = fresh;
        span.record("groups_before", before);
        span.record("groups_after", self.num_groups());
        Ok((before, self.num_groups()))
    }

    /// Splits group `g` into singleton groups (one per cell). The first
    /// cell reuses the group id; the rest get fresh ids.
    fn split_group(&mut self, g: GroupId) {
        let rect = self.rects[g as usize];
        let cols = self.grid.cols();
        let mut first = true;
        for (r, c) in rect.cells() {
            let cell = (r as usize * cols + c as usize) as CellId;
            let gid = if first {
                first = false;
                g
            } else {
                let gid = self.rects.len() as GroupId;
                self.rects.push(GroupRect::cell(r, c));
                self.features.push(None);
                self.valid_counts.push(0);
                self.contributions.push((0.0, 0));
                gid
            };
            self.rects[gid as usize] = GroupRect::cell(r, c);
            self.cell_to_group[cell as usize] = gid;
            let (fv, count) = if self.grid.is_valid(cell) {
                (Some(self.grid.features_unchecked(cell).to_vec()), 1)
            } else {
                (None, 0)
            };
            self.features[gid as usize] = fv;
            self.valid_counts[gid as usize] = count;
            // Singletons are loss-free but keep their denominator terms.
            let terms = if count > 0 { self.countable_terms(cell) } else { 0 };
            self.contributions[gid as usize] = (0.0, terms);
        }
    }

    /// Recomputes valid counts and per-group IFL contributions from
    /// scratch (used at construction/compaction only).
    fn rebuild_bookkeeping(&mut self) {
        let n_groups = self.rects.len();
        self.valid_counts = vec![0; n_groups];
        for id in self.grid.valid_cells() {
            self.valid_counts[self.cell_to_group[id as usize] as usize] += 1;
        }
        self.contributions = vec![(0.0, 0); n_groups];
        let aggs = self.grid.agg_types().to_vec();
        for id in self.grid.valid_cells() {
            let g = self.cell_to_group[id as usize] as usize;
            let Some(fv) = &self.features[g] else { continue };
            let d = self.grid.features_unchecked(id);
            for (k, &dk) in d.iter().enumerate() {
                let denom = dk.abs();
                if denom <= self.ifl_options.zero_eps {
                    continue;
                }
                let rep = representative(fv[k], aggs[k], self.valid_counts[g]);
                self.contributions[g].0 += (dk - rep).abs() / denom;
                self.contributions[g].1 += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smooth_grid(n: usize) -> GridDataset {
        let vals: Vec<f64> =
            (0..n * n).map(|i| 100.0 + (i / n) as f64 * 0.6 + (i % n) as f64 * 0.4).collect();
        GridDataset::univariate(n, n, vals).unwrap()
    }

    #[test]
    fn construction_matches_batch_driver() {
        let g = smooth_grid(12);
        let batch = crate::repartition::repartition(&g, 0.05).unwrap();
        let stream = StreamingRepartitioner::new(g, 0.05).unwrap();
        assert_eq!(stream.num_groups(), batch.repartitioned.num_groups());
        assert!((stream.ifl() - batch.repartitioned.ifl()).abs() < 1e-12);
    }

    #[test]
    fn update_splits_group_and_keeps_budget() {
        let g = smooth_grid(12);
        let mut s = StreamingRepartitioner::new(g, 0.05).unwrap();
        let before = s.num_groups();
        let ifl_before = s.ifl();
        let splits = s.apply(&[CellUpdate { cell: 40, features: Some(vec![999.0]) }]).unwrap();
        assert!(splits <= 1);
        assert!(s.num_groups() >= before);
        // The updated cell is now its own exact group.
        let g40 = s.group_of(40);
        assert_eq!(s.group_feature(g40), Some(&[999.0][..]));
        // Splitting never raises the IFL.
        assert!(s.ifl() <= ifl_before + 1e-12);
        assert!(s.ifl() <= s.threshold());
    }

    #[test]
    fn nulling_a_cell_clears_it() {
        let g = smooth_grid(10);
        let mut s = StreamingRepartitioner::new(g, 0.08).unwrap();
        s.apply(&[CellUpdate { cell: 5, features: None }]).unwrap();
        let g5 = s.group_of(5);
        assert!(s.group_feature(g5).is_none());
        assert!(!s.grid().is_valid(5));
        assert!(s.ifl() <= s.threshold());
    }

    #[test]
    fn many_updates_then_compact_restores_reduction() {
        let g = smooth_grid(16);
        let mut s = StreamingRepartitioner::new(g, 0.08).unwrap();
        let initial_groups = s.num_groups();
        // Hammer a block of cells with updates close to the field (so
        // compaction can re-merge them).
        let updates: Vec<CellUpdate> = (0..60u32)
            .map(|i| CellUpdate { cell: i * 4, features: Some(vec![100.0 + i as f64 * 0.1]) })
            .collect();
        s.apply(&updates).unwrap();
        assert!(s.fragmentation() >= 1.0);
        assert!(s.ifl() <= s.threshold());
        let fragmented = s.num_groups();
        assert!(fragmented >= initial_groups);

        let (before, after) = s.compact().unwrap();
        assert_eq!(before, fragmented);
        assert!(after <= fragmented);
        assert!(s.ifl() <= s.threshold());
        assert!((s.fragmentation() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn update_validation() {
        let g = smooth_grid(6);
        let mut s = StreamingRepartitioner::new(g, 0.05).unwrap();
        // Wrong arity.
        assert!(s.apply(&[CellUpdate { cell: 0, features: Some(vec![1.0, 2.0]) }]).is_err());
        // Out-of-range cell.
        assert!(s.apply(&[CellUpdate { cell: 9999, features: Some(vec![1.0]) }]).is_err());
    }

    #[test]
    fn incremental_ifl_matches_full_recompute() {
        let g = smooth_grid(12);
        let mut s = StreamingRepartitioner::new(g, 0.06).unwrap();
        s.apply(&[
            CellUpdate { cell: 10, features: Some(vec![50.0]) },
            CellUpdate { cell: 77, features: Some(vec![140.0]) },
            CellUpdate { cell: 78, features: None },
        ])
        .unwrap();
        let incremental = s.ifl();
        let mut copy = s.clone();
        copy.rebuild_bookkeeping();
        assert!((incremental - copy.ifl()).abs() < 1e-12);
    }
}
