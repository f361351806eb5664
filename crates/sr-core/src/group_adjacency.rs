//! Adjacency-list retrieval for cell-groups — Algorithm 3 of the paper
//! (§III-B).
//!
//! Because every cell-group is a rectangle, its neighbors are found by
//! probing only the cells one step outside its four boundary edges: above
//! `rBeg`, below `rEnd`, left of `cBeg`, right of `cEnd`. The result is a
//! binary adjacency list (weight 1 per listed neighbor), the exact structure
//! the spatial lag/error models and the SCHC clusterer consume.

use crate::partition::{GroupId, Partition};
use sr_grid::AdjacencyList;

/// Builds the cell-group adjacency list of a partition (Algorithm 3).
///
/// The relation is symmetric by construction: if `a`'s boundary probe finds
/// `b`, the shared edge also lies on `b`'s boundary.
///
/// Groups probe their boundaries independently on [`sr_par::Pool::global`];
/// the per-group neighbor lists (and their order) are identical at any
/// thread count. Use [`group_adjacency_with`] to target a specific pool.
pub fn group_adjacency(partition: &Partition) -> AdjacencyList {
    group_adjacency_with(partition, sr_par::Pool::global())
}

/// [`group_adjacency`] on an explicit pool. Writes the CSR arrays of the
/// [`AdjacencyList`] directly — no per-group list — and emits the
/// `repartition.adjacency` span.
pub fn group_adjacency_with(partition: &Partition, pool: &sr_par::Pool) -> AdjacencyList {
    let n_groups = partition.num_groups();
    let mut span = sr_obs::span("repartition.adjacency");
    span.record("groups", n_groups);
    let mut offsets: Vec<u32> = Vec::with_capacity(n_groups + 1);
    offsets.push(0);
    if pool.threads() <= 1 {
        // One shared stamp array gives O(1) dedup on the serial path; the
        // parallel chunks below use the allocation-free linear dedup
        // instead of cloning a grid-sized array per chunk. Both push each
        // neighbor on first encounter in identical probe order, so the
        // lists are the same either way.
        let mut stamp = vec![u32::MAX; n_groups];
        let mut neighbors: Vec<u32> = Vec::with_capacity(4 * n_groups);
        for gid in 0..n_groups as GroupId {
            probe_boundary(partition, gid, |other| {
                if stamp[other as usize] != gid {
                    stamp[other as usize] = gid;
                    neighbors.push(other);
                }
            });
            offsets.push(neighbors.len() as u32);
        }
        return AdjacencyList::from_csr(offsets, neighbors);
    }
    // Each chunk returns its groups' concatenated lists plus per-group
    // degrees; chunks come back in submission order.
    let chunks = pool.par_map_chunks(n_groups, sr_par::fixed_grain(n_groups, 64), |range| {
        let mut flat: Vec<u32> = Vec::with_capacity(4 * range.len());
        let mut degrees: Vec<u32> = Vec::with_capacity(range.len());
        for gid in range {
            let start = flat.len();
            probe_boundary(partition, gid as GroupId, |other| {
                let listed = &flat[start..];
                if listed.last() != Some(&other) && !listed.contains(&other) {
                    flat.push(other);
                }
            });
            degrees.push((flat.len() - start) as u32);
        }
        (flat, degrees)
    });
    let mut neighbors: Vec<u32> = Vec::with_capacity(chunks.iter().map(|(f, _)| f.len()).sum());
    let mut end = 0u32;
    for (flat, degrees) in chunks {
        neighbors.extend_from_slice(&flat);
        for d in degrees {
            end += d;
            offsets.push(end);
        }
    }
    AdjacencyList::from_csr(offsets, neighbors)
}

/// Visits the group of every cell one step outside the four edges of
/// `gid`'s rectangle, in the fixed probe order shared by both dedup
/// strategies: top/bottom rows column by column, then left/right columns
/// row by row. The parallel path dedups against the group's list so far
/// (most recent entry first — consecutive boundary cells along one edge
/// usually border the *same* neighbor rectangle), the serial path with a
/// shared stamp array; both keep first-encounter order.
fn probe_boundary(partition: &Partition, gid: GroupId, mut visit: impl FnMut(GroupId)) {
    let rows = partition.rows();
    let cols = partition.cols();
    let rect = partition.rect(gid);
    // Row above rBeg and row below rEnd.
    for c in rect.c0..=rect.c1 {
        if rect.r0 > 0 {
            visit(partition.group_at(rect.r0 as usize - 1, c as usize));
        }
        if (rect.r1 as usize) + 1 < rows {
            visit(partition.group_at(rect.r1 as usize + 1, c as usize));
        }
    }
    // Column left of cBeg and column right of cEnd.
    for r in rect.r0..=rect.r1 {
        if rect.c0 > 0 {
            visit(partition.group_at(r as usize, rect.c0 as usize - 1));
        }
        if (rect.c1 as usize) + 1 < cols {
            visit(partition.group_at(r as usize, rect.c1 as usize + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extractor::extract_cell_groups;
    use sr_grid::{normalize_attributes, GridDataset};

    #[test]
    fn identity_partition_matches_rook_adjacency() {
        let g = GridDataset::univariate(3, 3, (1..=9).map(f64::from).collect()).unwrap();
        let p = crate::partition::Partition::identity(3, 3);
        let ga = group_adjacency(&p);
        let rook = AdjacencyList::rook_from_grid(&g);
        for i in 0..9u32 {
            let mut a = ga.neighbors(i).to_vec();
            let mut b = rook.neighbors(i).to_vec();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "cell {i}");
        }
    }

    #[test]
    fn merged_grid_adjacency_symmetric_and_deduped() {
        // Two vertical halves of a 4×4 grid merge into two 4×2 groups; each
        // is the sole neighbor of the other, listed once despite sharing 4
        // boundary cells.
        #[rustfmt::skip]
        let vals = vec![
            1.0, 1.0, 9.0, 9.0,
            1.0, 1.0, 9.0, 9.0,
            1.0, 1.0, 9.0, 9.0,
            1.0, 1.0, 9.0, 9.0,
        ];
        let g = GridDataset::univariate(4, 4, vals).unwrap();
        let norm = normalize_attributes(&g);
        let p = extract_cell_groups(&norm, 0.0);
        assert_eq!(p.num_groups(), 2);
        let adj = group_adjacency(&p);
        assert_eq!(adj.neighbors(0), &[1]);
        assert_eq!(adj.neighbors(1), &[0]);
        assert!(adj.is_symmetric());
    }

    #[test]
    fn paper_example6_shape() {
        // Fig. 3 property: a group bordered on all four sides lists each
        // bordering group exactly once. Build a plus-shaped arrangement.
        #[rustfmt::skip]
        let vals = vec![
            1.0, 2.0, 3.0,
            4.0, 5.0, 6.0,
            7.0, 8.0, 9.0,
        ];
        let g = GridDataset::univariate(3, 3, vals).unwrap();
        let norm = normalize_attributes(&g);
        let p = extract_cell_groups(&norm, 0.0); // identity (all distinct)
        let adj = group_adjacency(&p);
        // Center cell (1,1) = group of cell id 4 has 4 neighbors.
        let center = p.group_of(4);
        assert_eq!(adj.degree(center), 4);
        // Corner has 2.
        let corner = p.group_of(0);
        assert_eq!(adj.degree(corner), 2);
    }

    #[test]
    fn adjacency_symmetric_on_random_partitions() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(17);
        for _ in 0..5 {
            let rows = rng.gen_range(3..12);
            let cols = rng.gen_range(3..12);
            let vals: Vec<f64> = (0..rows * cols).map(|_| rng.gen_range(0.0..5.0)).collect();
            let g = GridDataset::univariate(rows, cols, vals).unwrap();
            let norm = normalize_attributes(&g);
            let p = extract_cell_groups(&norm, rng.gen_range(0.0..0.4));
            let adj = group_adjacency(&p);
            assert!(adj.is_symmetric());
            // No self loops.
            for gid in 0..p.num_groups() as u32 {
                assert!(!adj.neighbors(gid).contains(&gid));
            }
        }
    }
}
