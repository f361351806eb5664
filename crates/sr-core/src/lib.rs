//! The ML-aware spatial data re-partitioning framework — the paper's core
//! contribution (§III).
//!
//! Given an `m × n` grid dataset and an information-loss threshold
//! `θ ∈ (0, 1)`, the framework iteratively merges adjacent, similar cells
//! into rectangular *cell-groups*, stopping just before the information loss
//! (IFL, Eq. 3) would exceed `θ`. The output is a compact dataset of
//! cell-groups that preserves spatial adjacency (so spatial ML models keep
//! their autocorrelation signal) while being much smaller than the input.
//!
//! Pipeline (one iteration, Fig. 2):
//!
//! 1. [`heap::VariationHeap`] — pop the next *min-adjacent variation*
//!    (§III-A1): variations of all adjacent cell pairs on the
//!    attribute-normalized grid, pre-computed once into a min-heap.
//! 2. [`extractor::extract_cell_groups`] — Algorithm 1: greedily grow
//!    rectangular groups of adjacent cells whose adjacent-pair variations
//!    all stay within the iteration's min-adjacent variation.
//! 3. [`allocator::allocate_features`] — Algorithm 2: give each group a
//!    representative feature vector (sum, or the better of mean/mode).
//! 4. [`ifl`] — Eq. 3 between input and re-partitioned data; accept the
//!    iteration if `IFL ≤ θ`, else stop and keep the previous partition.
//!
//! The driver lives in [`repartition::Repartitioner`]; the accepted result
//! is a [`repartition::Repartitioned`], which offers the training-side
//! conveniences of §III-B/§III-C: group adjacency lists (Algorithm 3, in
//! [`group_adjacency()`]), feature-matrix/centroid/vertex preparation
//! ([`prepare`]), and reconstruction of per-cell values
//! ([`reconstruct`]). The naive homogeneous variant of §III-D is in
//! [`homogeneous`].

pub mod allocator;
pub mod extractor;
pub mod group_adjacency;
pub mod heap;
pub mod homogeneous;
pub mod ifl;
pub mod incremental;
pub mod localized;
pub mod partition;
pub mod prepare;
pub mod quadtree;
pub mod reconstruct;
pub mod repartition;
pub mod streaming;
pub mod temporal;

pub use allocator::{allocate_features, allocate_features_with, GroupFeatures};
pub use extractor::{
    extract_cell_groups, extract_cell_groups_with, extract_with_edges, EdgeVariations,
};
pub use group_adjacency::{group_adjacency, group_adjacency_with};
pub use heap::VariationHeap;
pub use homogeneous::{homogeneous_ifl, homogeneous_merge, run_homogeneous, HomogeneousOutcome};
pub use ifl::{partition_ifl, partition_ifl_with, representative};
pub use incremental::{ScanCache, ScanUpdate};
pub use localized::LocalizedState;
pub use partition::{GroupId, GroupRect, Partition};
pub use prepare::PreparedTrainingData;
pub use quadtree::quadtree_partition;
pub use reconstruct::reconstruct_grid;
pub use repartition::{
    repartition, IterationStats, IterationStrategy, RepartitionConfig, RepartitionOutcome,
    Repartitioned, Repartitioner,
};
pub use streaming::{CellUpdate, StreamingRepartitioner};
pub use temporal::{StepOutcome, TemporalRepartitioner};

/// Errors from the re-partitioning framework.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// The loss threshold must lie in (0, 1] (paper §I: "a numerical loss
    /// threshold between 0 and 1").
    InvalidThreshold(f64),
    /// An [`IterationStrategy::Exponential`] walk needs a stride ≥ 1 and a
    /// finite growth factor > 1.
    InvalidStrategy {
        /// Offending first stride.
        initial_stride: usize,
        /// Offending growth factor.
        growth: f64,
    },
    /// A grid-level operation failed.
    Grid(sr_grid::GridError),
    /// The homogeneous variant needs merge factors ≥ 1 that fit the grid.
    InvalidMergeFactor {
        /// Offending factor.
        factor: usize,
    },
    /// A [`ScanCache`] was handed to a driver whose IFL options differ from
    /// the ones the cache was built with — its Eq. 3 term cache would be
    /// silently wrong.
    ScanCacheMismatch,
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::InvalidThreshold(t) => {
                write!(f, "IFL threshold must be in (0, 1], got {t}")
            }
            CoreError::InvalidStrategy { initial_stride, growth } => write!(
                f,
                "exponential strategy needs initial_stride >= 1 and a finite growth > 1, \
                 got initial_stride {initial_stride}, growth {growth}"
            ),
            CoreError::Grid(e) => write!(f, "grid error: {e}"),
            CoreError::InvalidMergeFactor { factor } => {
                write!(f, "merge factor {factor} is invalid for this grid")
            }
            CoreError::ScanCacheMismatch => {
                write!(f, "scan cache was built with different IFL options than the driver")
            }
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Grid(e) => Some(e),
            _ => None,
        }
    }
}

impl From<sr_grid::GridError> for CoreError {
    fn from(e: sr_grid::GridError) -> Self {
        CoreError::Grid(e)
    }
}

/// Result alias for core operations.
pub type Result<T> = std::result::Result<T, CoreError>;
