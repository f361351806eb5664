//! Partition types: rectangular cell-groups and the two index mappings of
//! Algorithm 1 (`gIndex`: group → rectangle, `cIndex`: cell → group).

use sr_grid::CellId;

/// Identifier of a cell-group within a partition.
pub type GroupId = u32;

/// A rectangular cell-group: inclusive row/column bounds within the grid
/// (the paper's `(rBeg, rEnd, cBeg, cEnd)` tuple stored in `gIndex`).
///
/// Rectangularity is the framework's key structural invariant (§I): it makes
/// the group ↔ cell mapping four integers, keeps adjacency computation
/// boundary-only (Algorithm 3), and lets kriging feature vectors carry a
/// fixed number of vertices.
///
/// `#[repr(C)]` (four `u32`s, 16 bytes, no padding): the sr-snap v2
/// snapshot format stores the partition section as this exact layout so
/// a validated `&[u8]` can be served as `&[GroupRect]` without decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(C)]
pub struct GroupRect {
    /// First row (`rBeg`).
    pub r0: u32,
    /// Last row, inclusive (`rEnd`).
    pub r1: u32,
    /// First column (`cBeg`).
    pub c0: u32,
    /// Last column, inclusive (`cEnd`).
    pub c1: u32,
}

impl GroupRect {
    /// Single-cell rectangle.
    pub fn cell(r: u32, c: u32) -> Self {
        GroupRect { r0: r, r1: r, c0: c, c1: c }
    }

    /// Number of rows spanned.
    #[inline]
    pub fn height(&self) -> usize {
        (self.r1 - self.r0 + 1) as usize
    }

    /// Number of columns spanned.
    #[inline]
    pub fn width(&self) -> usize {
        (self.c1 - self.c0 + 1) as usize
    }

    /// Number of cells in the rectangle (`t` in Eq. 2).
    #[inline]
    pub fn len(&self) -> usize {
        self.height() * self.width()
    }

    /// A rectangle always contains at least one cell.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether `(r, c)` lies inside the rectangle.
    #[inline]
    pub fn contains(&self, r: u32, c: u32) -> bool {
        r >= self.r0 && r <= self.r1 && c >= self.c0 && c <= self.c1
    }

    /// Iterates over the contained cell positions in row-major order.
    /// Takes `self` by value (`GroupRect` is `Copy`) so the iterator owns
    /// its bounds and can outlive the borrow it was created from.
    pub fn cells(self) -> impl Iterator<Item = (u32, u32)> {
        (self.r0..=self.r1).flat_map(move |r| (self.c0..=self.c1).map(move |c| (r, c)))
    }

    /// The four corner vertices in grid coordinates, clockwise from the
    /// top-left: used to build kriging feature vectors (§III-B).
    pub fn vertices(&self) -> [(u32, u32); 4] {
        [
            (self.r0, self.c0),
            (self.r0, self.c1 + 1),
            (self.r1 + 1, self.c1 + 1),
            (self.r1 + 1, self.c0),
        ]
    }
}

/// A complete tiling of an `rows × cols` grid into rectangular cell-groups.
///
/// Holds both mappings Algorithm 1 emits: `groups` is `gIndex` (group id →
/// rectangle) and `cell_to_group` is `cIndex` (flat cell id → group id).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    rows: usize,
    cols: usize,
    groups: Vec<GroupRect>,
    cell_to_group: Vec<GroupId>,
}

impl Partition {
    /// Builds a partition from its parts, checking the tiling invariants:
    /// every cell belongs to exactly one group, and that group's rectangle
    /// contains it.
    pub fn new(
        rows: usize,
        cols: usize,
        groups: Vec<GroupRect>,
        cell_to_group: Vec<GroupId>,
    ) -> Self {
        debug_assert_eq!(cell_to_group.len(), rows * cols);
        #[cfg(debug_assertions)]
        {
            let mut counted = 0usize;
            for (gid, rect) in groups.iter().enumerate() {
                counted += rect.len();
                for (r, c) in rect.cells() {
                    debug_assert_eq!(
                        cell_to_group[r as usize * cols + c as usize] as usize,
                        gid,
                        "cell ({r},{c}) not mapped to its containing group"
                    );
                }
            }
            debug_assert_eq!(counted, rows * cols, "groups do not tile the grid");
        }
        Partition { rows, cols, groups, cell_to_group }
    }

    /// Builds a partition from a tiling given as rectangles in group-id
    /// order, deriving the `cIndex` mapping from them.
    pub(crate) fn from_rects(rows: usize, cols: usize, groups: Vec<GroupRect>) -> Self {
        let mut cell_to_group = vec![0 as GroupId; rows * cols];
        for (g, rect) in groups.iter().enumerate() {
            for rr in rect.r0 as usize..=rect.r1 as usize {
                let base = rr * cols;
                cell_to_group[base + rect.c0 as usize..=base + rect.c1 as usize].fill(g as GroupId);
            }
        }
        Partition::new(rows, cols, groups, cell_to_group)
    }

    /// The identity partition: every cell is its own group (the state before
    /// the first merge iteration; IFL is exactly zero).
    pub fn identity(rows: usize, cols: usize) -> Self {
        let mut groups = Vec::with_capacity(rows * cols);
        let mut cell_to_group = Vec::with_capacity(rows * cols);
        for r in 0..rows as u32 {
            for c in 0..cols as u32 {
                cell_to_group.push(groups.len() as GroupId);
                groups.push(GroupRect::cell(r, c));
            }
        }
        Partition { rows, cols, groups, cell_to_group }
    }

    /// Grid rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Grid columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of cell-groups (`t` in the problem statement).
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// The rectangle of group `g`.
    #[inline]
    pub fn rect(&self, g: GroupId) -> GroupRect {
        self.groups[g as usize]
    }

    /// All rectangles, ordered by group id.
    pub fn rects(&self) -> &[GroupRect] {
        &self.groups
    }

    /// Group containing the cell with flat id `cell`.
    #[inline]
    pub fn group_of(&self, cell: CellId) -> GroupId {
        self.cell_to_group[cell as usize]
    }

    /// Group containing cell `(r, c)`.
    #[inline]
    pub fn group_at(&self, r: usize, c: usize) -> GroupId {
        self.cell_to_group[r * self.cols + c]
    }

    /// The `cIndex` mapping as a flat slice.
    pub fn cell_to_group(&self) -> &[GroupId] {
        &self.cell_to_group
    }

    /// Flat cell ids contained in group `g`, row-major.
    ///
    /// Allocates a fresh `Vec` per call; hot paths that only need to walk
    /// the cells should use [`Partition::cells_iter`] instead.
    pub fn cells_of(&self, g: GroupId) -> Vec<CellId> {
        self.cells_iter(g).collect()
    }

    /// Allocation-free iterator over the flat cell ids of group `g`,
    /// row-major — the same sequence [`Partition::cells_of`] collects.
    pub fn cells_iter(&self, g: GroupId) -> impl Iterator<Item = CellId> + '_ {
        let rect = self.rect(g);
        let cols = self.cols;
        rect.cells().map(move |(r, c)| (r as usize * cols + c as usize) as CellId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rect_geometry() {
        let r = GroupRect { r0: 1, r1: 2, c0: 3, c1: 5 };
        assert_eq!(r.height(), 2);
        assert_eq!(r.width(), 3);
        assert_eq!(r.len(), 6);
        assert!(r.contains(2, 5));
        assert!(!r.contains(0, 3));
        assert_eq!(r.cells().count(), 6);
        assert_eq!(r.vertices()[0], (1, 3));
        assert_eq!(r.vertices()[2], (3, 6));
    }

    #[test]
    fn single_cell_rect() {
        let r = GroupRect::cell(4, 7);
        assert_eq!(r.len(), 1);
        assert_eq!(r.cells().collect::<Vec<_>>(), vec![(4, 7)]);
    }

    #[test]
    fn identity_partition_tiles() {
        let p = Partition::identity(2, 3);
        assert_eq!(p.num_groups(), 6);
        for cell in 0..6u32 {
            let g = p.group_of(cell);
            assert_eq!(p.cells_of(g), vec![cell]);
        }
    }

    #[test]
    fn cells_iter_matches_cells_of() {
        let groups = vec![
            GroupRect { r0: 0, r1: 1, c0: 0, c1: 1 },
            GroupRect { r0: 0, r1: 1, c0: 2, c1: 2 },
        ];
        let p = Partition::new(2, 3, groups, vec![0, 0, 1, 0, 0, 1]);
        for g in 0..p.num_groups() as GroupId {
            assert_eq!(p.cells_iter(g).collect::<Vec<_>>(), p.cells_of(g));
        }
        assert_eq!(p.cells_iter(0).collect::<Vec<_>>(), vec![0, 1, 3, 4]);
    }

    #[test]
    fn partition_accessors() {
        // One 1×2 group + one 1×1 in a 1×3 grid... must tile: groups
        // {(0,0)-(0,1)}, {(0,2)}.
        let groups = vec![GroupRect { r0: 0, r1: 0, c0: 0, c1: 1 }, GroupRect::cell(0, 2)];
        let p = Partition::new(1, 3, groups, vec![0, 0, 1]);
        assert_eq!(p.group_at(0, 1), 0);
        assert_eq!(p.group_of(2), 1);
        assert_eq!(p.cells_of(0), vec![0, 1]);
        assert_eq!(p.rect(1), GroupRect::cell(0, 2));
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn partition_rejects_non_tiling_in_debug() {
        // Group rectangles overlap cell 1 mapping mismatch.
        let groups = vec![GroupRect { r0: 0, r1: 0, c0: 0, c1: 1 }];
        let _ = Partition::new(1, 3, groups, vec![0, 0, 0]);
    }
}
