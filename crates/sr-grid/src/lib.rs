//! Spatial grid substrate for the ML-aware re-partitioning framework.
//!
//! The paper (§II) models geographical space as an `m × n` grid of *spatial
//! cells*, each carrying a `p`-dimensional feature vector (or a null vector
//! for empty regions). This crate provides that substrate:
//!
//! - [`GridDataset`]: the grid itself — flattened row-major storage, a
//!   validity mask for null cells, per-attribute aggregation metadata, and
//!   geographic bounds.
//! - [`normalize`]: attribute normalization to `[0, 1]` (the paper's worked
//!   example divides by the per-attribute maximum).
//! - [`variation`]: attribute variation between cells — Eq. (1).
//! - [`loss`]: local loss of cell-groups — Eq. (2) — and information loss
//!   (IFL, a mean-absolute-percentage error) — Eq. (3).
//! - [`adjacency`]: rook adjacency lists with binary weights, plus the
//!   sparse `W·y` products spatial models need.
//! - [`autocorrelation`]: Moran's I — Eq. (4) — and Geary's C.
//! - [`curve`]: Hilbert space-filling-curve keys, the spatial ordering the
//!   serving tier uses for index packing and sharding.

pub mod adjacency;
pub mod autocorrelation;
pub mod curve;
pub mod dataset;
pub mod io;
pub mod local_stats;
pub mod loss;
pub mod normalize;
pub mod render;
pub mod variation;

pub use adjacency::AdjacencyList;
pub use autocorrelation::{gearys_c, morans_i};
pub use curve::{hilbert_key, hilbert_key_scaled};
pub use dataset::{AggType, Bounds, CellId, GridDataset};
pub use io::{load_grid, read_gal, read_grid, save_grid, write_gal, write_grid};
pub use local_stats::{join_counts, local_morans_i, JoinCounts, LisaQuadrant, LisaResult};
pub use loss::{information_loss, local_loss, IflOptions};
pub use normalize::normalize_attributes;
pub use render::{render_heatmap, render_partition};
pub use variation::{
    adjacent_variation_values_with, adjacent_variations, adjacent_variations_with,
    variation_between, variation_between_typed, AdjacentPair,
};

/// Errors produced by grid construction and grid-level computations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GridError {
    /// A constructor was given inconsistent dimensions or buffer lengths.
    DimensionMismatch {
        /// What was inconsistent.
        context: &'static str,
    },
    /// The grid has zero rows, columns, or attributes where at least one is
    /// required.
    EmptyGrid,
    /// Two grids that must be comparable (same shape / #attributes) are not.
    IncompatibleGrids,
    /// An attribute index was out of range.
    AttributeOutOfRange {
        /// The offending index.
        index: usize,
        /// Number of attributes in the dataset.
        num_attrs: usize,
    },
}

impl std::fmt::Display for GridError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GridError::DimensionMismatch { context } => {
                write!(f, "dimension mismatch: {context}")
            }
            GridError::EmptyGrid => {
                write!(f, "grid must have at least one row, column, and attribute")
            }
            GridError::IncompatibleGrids => write!(f, "grids have incompatible shapes"),
            GridError::AttributeOutOfRange { index, num_attrs } => {
                write!(f, "attribute index {index} out of range (dataset has {num_attrs})")
            }
        }
    }
}

impl std::error::Error for GridError {}

/// Result alias for grid operations.
pub type Result<T> = std::result::Result<T, GridError>;
