//! Adjacency lists with binary weights (paper §III-B).
//!
//! PySAL-style spatial weights reduce to "a neighbors list and a weight per
//! neighbor"; the paper uses binary weights throughout (Table I: weight =
//! `adjacency_list`, adjacency_type = `Binary`). [`AdjacencyList`] is the
//! shared representation used for raw grid cells, re-partitioned cell-groups
//! (built by `sr-core::group_adjacency`), and the spatial lag / error models.

use crate::dataset::{CellId, GridDataset};

/// Binary-weight adjacency over `n` units (cells or cell-groups).
///
/// Stored in compressed sparse row (CSR) form: the neighbors of unit `i`
/// are `neighbors[offsets[i]..offsets[i + 1]]`, and the implied weight of
/// each listed neighbor is 1 (0 otherwise). One flat neighbor array and
/// one offset array replace a heap allocation per unit; the sr-snap v2
/// adjacency section stores exactly these two arrays.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdjacencyList {
    /// `n + 1` monotone offsets into `neighbors`, starting at 0.
    offsets: Vec<u32>,
    /// Every unit's neighbor ids, concatenated in unit order.
    neighbors: Vec<u32>,
}

impl Default for AdjacencyList {
    fn default() -> Self {
        AdjacencyList { offsets: vec![0], neighbors: Vec::new() }
    }
}

impl AdjacencyList {
    /// Creates an adjacency list from pre-built neighbor vectors
    /// (flattened into CSR form).
    pub fn from_neighbors(neighbors: Vec<Vec<u32>>) -> Self {
        let mut out = AdjacencyList {
            offsets: Vec::with_capacity(neighbors.len() + 1),
            neighbors: Vec::with_capacity(neighbors.iter().map(Vec::len).sum()),
        };
        out.offsets.push(0);
        for ns in &neighbors {
            out.push_unit(ns);
        }
        out
    }

    /// Creates an adjacency list from its CSR arrays: unit `i`'s neighbors
    /// are `neighbors[offsets[i]..offsets[i + 1]]`.
    ///
    /// # Panics
    ///
    /// If `offsets` is empty, does not start at 0, decreases anywhere, or
    /// does not end at `neighbors.len()`.
    pub fn from_csr(offsets: Vec<u32>, neighbors: Vec<u32>) -> Self {
        assert!(
            offsets.first() == Some(&0)
                && offsets.windows(2).all(|w| w[0] <= w[1])
                && *offsets.last().unwrap() as usize == neighbors.len(),
            "from_csr: offsets must run monotonically from 0 to neighbors.len()"
        );
        AdjacencyList { offsets, neighbors }
    }

    /// Appends one unit with neighbor list `ns`.
    fn push_unit(&mut self, ns: &[u32]) {
        self.neighbors.extend_from_slice(ns);
        let end = u32::try_from(self.neighbors.len()).expect("adjacency exceeds u32::MAX edges");
        self.offsets.push(end);
    }

    /// Rook adjacency (shared edges) over the *valid* cells of a grid.
    /// Null cells get empty neighbor lists and never appear as neighbors.
    pub fn rook_from_grid(grid: &GridDataset) -> Self {
        let rows = grid.rows();
        let cols = grid.cols();
        let mut out = AdjacencyList {
            offsets: Vec::with_capacity(rows * cols + 1),
            neighbors: Vec::with_capacity(4 * rows * cols),
        };
        out.offsets.push(0);
        let mut ns: Vec<CellId> = Vec::with_capacity(4);
        for r in 0..rows {
            for c in 0..cols {
                let id = grid.cell_id(r, c);
                ns.clear();
                if grid.is_valid(id) {
                    let mut push = |nid: CellId| {
                        if grid.is_valid(nid) {
                            ns.push(nid);
                        }
                    };
                    if r > 0 {
                        push(grid.cell_id(r - 1, c));
                    }
                    if r + 1 < rows {
                        push(grid.cell_id(r + 1, c));
                    }
                    if c > 0 {
                        push(grid.cell_id(r, c - 1));
                    }
                    if c + 1 < cols {
                        push(grid.cell_id(r, c + 1));
                    }
                }
                out.push_unit(&ns);
            }
        }
        out
    }

    /// Number of units.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether there are no units at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Neighbors of unit `i`.
    #[inline]
    pub fn neighbors(&self, i: u32) -> &[u32] {
        let i = i as usize;
        &self.neighbors[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Degree (neighbor count) of unit `i`.
    #[inline]
    pub fn degree(&self, i: u32) -> usize {
        (self.offsets[i as usize + 1] - self.offsets[i as usize]) as usize
    }

    /// The CSR offsets: `len() + 1` monotone values from 0 to the total
    /// neighbor count.
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Every unit's neighbor ids, concatenated in unit order (the CSR
    /// payload [`AdjacencyList::offsets`] indexes).
    pub fn flat_neighbors(&self) -> &[u32] {
        &self.neighbors
    }

    /// Iterates over the units' neighbor lists in unit order.
    fn lists(&self) -> impl Iterator<Item = &[u32]> + '_ {
        self.offsets.windows(2).map(|w| &self.neighbors[w[0] as usize..w[1] as usize])
    }

    /// Total number of directed edges (Σ degrees). For a symmetric list this
    /// is twice the undirected edge count, and equals `Σᵢ Σⱼ wᵢⱼ` in Eq. (4).
    pub fn total_weight(&self) -> f64 {
        self.neighbors.len() as f64
    }

    /// Checks that the relation is symmetric (i ∈ N(j) ⇔ j ∈ N(i)).
    pub fn is_symmetric(&self) -> bool {
        for (i, ns) in self.lists().enumerate() {
            for &j in ns {
                if !self.neighbors(j).contains(&(i as u32)) {
                    return false;
                }
            }
        }
        true
    }

    /// Row-standardized spatial lag of `x`: `(W x)ᵢ = mean of x over N(i)`.
    /// Units with no neighbors get 0. `x` must have one entry per unit.
    ///
    /// Row standardization is the convention the lag/error estimators use;
    /// with binary weights it is the neighbor mean.
    pub fn spatial_lag(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.len(), "spatial_lag: length mismatch");
        self.lists()
            .map(|ns| {
                if ns.is_empty() {
                    0.0
                } else {
                    ns.iter().map(|&j| x[j as usize]).sum::<f64>() / ns.len() as f64
                }
            })
            .collect()
    }

    /// Unstandardized binary lag: `(W x)ᵢ = Σ_{j ∈ N(i)} xⱼ`.
    pub fn binary_lag(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.len(), "binary_lag: length mismatch");
        self.lists().map(|ns| ns.iter().map(|&j| x[j as usize]).sum::<f64>()).collect()
    }

    /// Restricts the adjacency to a subset of units given by `keep` (one
    /// flag per unit), remapping ids to the compacted index space. Used when
    /// training on the valid-cell subset of a grid.
    pub fn restrict(&self, keep: &[bool]) -> AdjacencyList {
        assert_eq!(keep.len(), self.len(), "restrict: mask length mismatch");
        let mut remap = vec![u32::MAX; keep.len()];
        let mut next = 0u32;
        for (i, &k) in keep.iter().enumerate() {
            if k {
                remap[i] = next;
                next += 1;
            }
        }
        let mut out =
            AdjacencyList { offsets: Vec::with_capacity(next as usize + 1), neighbors: Vec::new() };
        out.offsets.push(0);
        for (ns, _) in self.lists().zip(keep).filter(|(_, &k)| k) {
            out.neighbors.extend(ns.iter().map(|&j| remap[j as usize]).filter(|&m| m != u32::MAX));
            out.offsets.push(out.neighbors.len() as u32);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_2x3() -> GridDataset {
        GridDataset::univariate(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap()
    }

    #[test]
    fn rook_adjacency_of_full_grid() {
        let g = grid_2x3();
        let adj = AdjacencyList::rook_from_grid(&g);
        // Corner (0,0)=id0: right id1, down id3.
        let mut n0 = adj.neighbors(0).to_vec();
        n0.sort_unstable();
        assert_eq!(n0, vec![1, 3]);
        // Middle (0,1)=id1: up none, down id4, left id0, right id2.
        let mut n1 = adj.neighbors(1).to_vec();
        n1.sort_unstable();
        assert_eq!(n1, vec![0, 2, 4]);
        assert!(adj.is_symmetric());
        // 2x3 grid: 7 undirected edges => total weight 14.
        assert_eq!(adj.total_weight(), 14.0);
    }

    #[test]
    fn null_cells_are_isolated() {
        let mut g = grid_2x3();
        g.set_null(1);
        let adj = AdjacencyList::rook_from_grid(&g);
        assert_eq!(adj.degree(1), 0);
        assert!(!adj.neighbors(0).contains(&1));
        assert!(!adj.neighbors(2).contains(&1));
        assert!(adj.is_symmetric());
    }

    #[test]
    fn spatial_lag_is_neighbor_mean() {
        let g = grid_2x3();
        let adj = AdjacencyList::rook_from_grid(&g);
        let x = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let lag = adj.spatial_lag(&x);
        // Cell 0 neighbors {1,3}: mean 3.0
        assert_eq!(lag[0], 3.0);
        // Cell 4 neighbors {1,3,5}: mean 4.0
        assert_eq!(lag[4], 4.0);
    }

    #[test]
    fn binary_lag_sums_neighbors() {
        let g = grid_2x3();
        let adj = AdjacencyList::rook_from_grid(&g);
        let x = vec![1.0; 6];
        let lag = adj.binary_lag(&x);
        assert_eq!(lag[0], 2.0);
        assert_eq!(lag[4], 3.0);
    }

    #[test]
    fn lag_of_isolated_unit_is_zero() {
        let adj = AdjacencyList::from_neighbors(vec![vec![], vec![]]);
        assert_eq!(adj.spatial_lag(&[5.0, 7.0]), vec![0.0, 0.0]);
    }

    #[test]
    fn restrict_remaps_ids() {
        let g = grid_2x3();
        let adj = AdjacencyList::rook_from_grid(&g);
        // Keep cells 0,1,2 (top row) only.
        let keep = vec![true, true, true, false, false, false];
        let r = adj.restrict(&keep);
        assert_eq!(r.len(), 3);
        assert_eq!(r.neighbors(0), &[1]);
        let mut n1 = r.neighbors(1).to_vec();
        n1.sort_unstable();
        assert_eq!(n1, vec![0, 2]);
        assert!(r.is_symmetric());
    }

    fn lists(adj: &AdjacencyList) -> Vec<Vec<u32>> {
        (0..adj.len() as u32).map(|i| adj.neighbors(i).to_vec()).collect()
    }

    #[test]
    fn from_neighbors_round_trips() {
        for input in [
            vec![],
            vec![vec![]],
            vec![vec![], vec![]],
            vec![vec![1, 2], vec![0], vec![], vec![0, 1, 2]],
            vec![vec![], vec![3], vec![], vec![1]],
        ] {
            let adj = AdjacencyList::from_neighbors(input.clone());
            assert_eq!(adj.len(), input.len());
            assert_eq!(adj.is_empty(), input.is_empty());
            assert_eq!(lists(&adj), input);
            for (i, ns) in input.iter().enumerate() {
                assert_eq!(adj.degree(i as u32), ns.len());
            }
            assert_eq!(adj.total_weight(), input.iter().map(Vec::len).sum::<usize>() as f64);
            let csr =
                AdjacencyList::from_csr(adj.offsets().to_vec(), adj.flat_neighbors().to_vec());
            assert_eq!(csr, adj);
        }
        assert_eq!(AdjacencyList::default(), AdjacencyList::from_neighbors(Vec::new()));
    }

    #[test]
    fn equality_is_list_equality() {
        let cases = [
            vec![],
            vec![vec![]],
            vec![vec![], vec![]],
            vec![vec![1], vec![0]],
            vec![vec![1], vec![0], vec![]],
            vec![vec![], vec![1], vec![0]],
            vec![vec![1, 0]],
            vec![vec![0, 1]],
        ];
        for a in &cases {
            for b in &cases {
                let (la, lb) = (
                    AdjacencyList::from_neighbors(a.clone()),
                    AdjacencyList::from_neighbors(b.clone()),
                );
                assert_eq!(la == lb, a == b, "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "from_csr")]
    fn from_csr_rejects_inconsistent_offsets() {
        AdjacencyList::from_csr(vec![0, 2, 1], vec![0, 1]);
    }

    #[test]
    fn rook_adjacency_with_null_cells_is_unchanged() {
        // 3×3 grid, nulls at the center and a corner: every valid cell
        // lists its valid rook neighbors in up/down/left/right order.
        let mut g = GridDataset::univariate(3, 3, (1..=9).map(f64::from).collect()).unwrap();
        g.set_null(4);
        g.set_null(8);
        let adj = AdjacencyList::rook_from_grid(&g);
        let want: Vec<Vec<u32>> = vec![
            vec![3, 1],
            vec![0, 2],
            vec![5, 1],
            vec![0, 6],
            vec![],
            vec![2],
            vec![3, 7],
            vec![6],
            vec![],
        ];
        assert_eq!(lists(&adj), want);
        assert!(adj.is_symmetric());
        // Restricting to the valid cells remaps ids and drops the nulls.
        let r = adj.restrict(&g.valid_mask());
        assert_eq!(
            lists(&r),
            vec![vec![3, 1], vec![0, 2], vec![4, 1], vec![0, 5], vec![2], vec![3, 6], vec![5]]
        );
    }
}
