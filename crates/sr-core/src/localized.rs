//! The driver's threshold walk, with optional state carried between runs
//! so an exact re-partition costs in proportion to the *dirty region*
//! instead of the grid.
//!
//! Every entry point evaluates thresholds here (`Repartitioner::walk_scan`).
//! A one-shot run ([`Repartitioner::run`], [`Repartitioner::run_with_scan`])
//! walks from a fresh state and records no extraction traces, since it has
//! no next run. [`Repartitioner::run_localized`] carries a
//! [`LocalizedState`] between runs, and three mechanisms make its walk
//! local (docs/INGESTION.md, "The localized walk"):
//!
//! 1. **Extraction replay.** Every evaluated threshold records a
//!    `ThetaTrace`: the emitted rectangles plus, per rectangle, the probe
//!    footprint (deepest row visited, anchor-run width) that bounds every
//!    edge the anchored scan compared. On the next run, a row whose traced
//!    footprints contain no dirty cell — and whose incoming spill profile
//!    matches the previous run's — is copied wholesale; only rows near dirt
//!    are re-scanned with Algorithm 1's row cursor
//!    ([`crate::extractor`]'s `scan_row`). Identical probe reads force
//!    identical rectangles, so the replayed tiling equals a from-scratch
//!    extraction bit for bit.
//! 2. **Group-state reuse.** Per-group features and the Eq. 3 per-member
//!    subtotals are cached keyed by the group's rectangle (the "content
//!    fingerprint": under a fixed grid, a rectangle *is* its member set).
//!    The cache is a flat arena (`RectArena`): one `f64` buffer holds every
//!    entry's numbers, and a per-cell anchor index chains the few entries
//!    anchored at each cell — no hashing, no per-entry allocation. An
//!    entry stays valid while no dirty cell lies inside the rectangle; the
//!    IFL then re-folds the cached subtotals in canonical cell order
//!    (`fold_cell_terms`), which the Eq. 3 kernel's two-level grouping
//!    makes bit-identical to a live evaluation. Within one walk (one-shot
//!    runs included) the cache also serves every threshold after the
//!    first, and the winner's features are copied straight out of it.
//! 3. **Warm-started θ search.** The walk starts from the previously
//!    accepted variation and expands outward
//!    ([`Repartitioner::run_with_pool_warm`] runs the same hinted walk from
//!    a fresh state, making it the bit-exact reference). A hint below
//!    every current threshold misses and falls back to the full walk.
//!
//! Fallback conditions (all safe, never wrong — just slower): first run or
//! invalidated state, a dirty fraction above `FULL_WALK_DIRTY_FRACTION`,
//! and warm-window misses. [`LocalizedState::invalidate`] must be called
//! when the scan cache rebuilds its normalization (a max-|value| move
//! rescales every edge variation, so traces and the hint go stale; the
//! rectangle cache survives — it is keyed on raw values and re-validated
//! against the dirty region).

use crate::allocator::{allocate_rect_into, GroupFeatures, Scratch};
use crate::extractor::{scan_row, EdgeVariations, VARIATION_SLACK};
use crate::ifl::{cell_term_at, fold_cell_terms, representative, IflCellCache};
use crate::incremental::ScanCache;
use crate::partition::{GroupRect, Partition};
use crate::repartition::{
    IterationStats, RepartitionOutcome, Repartitioned, Repartitioner, WalkKind,
};
use crate::{CoreError, Result};
use sr_grid::{AggType, CellId, GridDataset};
use std::collections::HashMap;

/// Above this dirty fraction the localized run walks cold (no warm hint):
/// with a quarter of the grid dirty the accepted θ can move arbitrarily and
/// the warm window would mostly miss anyway. Replay and group reuse stay
/// active — they are dirty-guarded and never wrong.
const FULL_WALK_DIRTY_FRACTION: f64 = 0.25;

/// Traces larger than this are not retained (a near-identity tiling costs
/// more to store than to re-extract).
const MAX_TRACE_RECTS: usize = 1 << 16;

/// At most this many per-θ traces are retained across runs; the largest is
/// evicted first.
const MAX_TRACES: usize = 24;

/// The extraction trace of one evaluated threshold: the emitted rectangles
/// in scan order, each with its probe footprint, plus per-row offsets.
#[derive(Debug, Clone)]
struct ThetaTrace {
    /// Run that recorded the trace (only traces exactly one run old are
    /// replayed — the dirty set describes exactly one generation of edits).
    epoch: u64,
    /// Emitted rectangles in Algorithm 1's scan order.
    rects: Vec<GroupRect>,
    /// Per rectangle: deepest row its probe visited (`RectProbe::reach`).
    reach: Vec<u32>,
    /// Per rectangle: its probe's anchor-run width
    /// (`RectProbe::run_width`).
    run_width: Vec<u32>,
    /// `row_start[r]..row_start[r + 1]` indexes the rectangles anchored in
    /// row `r`; length `rows + 1`.
    row_start: Vec<u32>,
}

/// End of an anchor chain / "no cache entry" marker (singleton groups
/// never get one: their Eq. 3 terms are exact zeros).
const NO_ENTRY: u32 = u32::MAX;

/// One cached group: its rectangle, where its numbers live in
/// [`RectArena::data`], and which run last used it.
#[derive(Debug, Clone, Copy)]
struct RectEntry {
    rect: GroupRect,
    /// Last run that used (and thereby revalidated) the entry.
    epoch: u64,
    /// Start of the entry's numbers in the arena: the allocated feature
    /// vector (`p` values; zeros for a null group) followed by one Eq. 3
    /// subtotal per valid member, in row-major member order. The subtotals
    /// are all zero when `valid_count == 1` (the Eq. 3 kernel skips such
    /// groups — their terms are exact zeros).
    offset: usize,
    /// Valid members of the group (0 = null group).
    valid_count: u32,
    /// Next entry anchored at the same cell, or [`NO_ENTRY`].
    next: u32,
}

/// The per-group cache: a hash-free arena of [`RectEntry`] records over
/// one shared `f64` buffer. Lookups walk the short chain of entries
/// anchored at the rectangle's top-left cell (one per distinct extent the
/// walk produced there); scoring then hands entry indices around, so the
/// scatter and the winner's materialization do no lookups at all.
#[derive(Debug, Default)]
struct RectArena {
    /// Attribute count the entries were built with.
    p: usize,
    cols: usize,
    /// Every entry's numbers (see [`RectEntry::offset`]). A rebuilt entry
    /// appends fresh numbers and abandons its old span until the end-of-run
    /// compaction.
    data: Vec<f64>,
    entries: Vec<RectEntry>,
    /// Per cell (row-major): the first entry anchored there, or
    /// [`NO_ENTRY`].
    anchor_head: Vec<u32>,
    /// Compaction target, swapped with `data` by
    /// [`RectArena::retain_epoch`] so steady-state runs reuse both buffers.
    spare: Vec<f64>,
}

impl RectArena {
    /// Sizes the anchor index for a `rows × cols` grid with `p`
    /// attributes, dropping every entry if the shape changed.
    fn prepare(&mut self, rows: usize, cols: usize, p: usize) {
        if self.anchor_head.len() != rows * cols || self.cols != cols || self.p != p {
            *self = RectArena {
                p,
                cols,
                anchor_head: vec![NO_ENTRY; rows * cols],
                ..Default::default()
            };
        }
    }

    /// The entry caching `rect`, if any.
    #[inline]
    fn find(&self, rect: GroupRect) -> Option<u32> {
        let mut i = self.anchor_head[rect.r0 as usize * self.cols + rect.c0 as usize];
        while i != NO_ENTRY {
            let e = &self.entries[i as usize];
            if e.rect == rect {
                return Some(i);
            }
            i = e.next;
        }
        None
    }

    /// Allocated feature vector of entry `i`.
    #[inline]
    fn features(&self, i: u32) -> &[f64] {
        let e = &self.entries[i as usize];
        &self.data[e.offset..e.offset + self.p]
    }

    /// Eq. 3 per-member subtotals of entry `i`.
    #[inline]
    fn terms(&self, i: u32) -> &[f64] {
        let e = &self.entries[i as usize];
        let start = e.offset + self.p;
        &self.data[start..start + e.valid_count as usize]
    }

    /// Records numbers already appended at `data[offset..]` for `rect`:
    /// repoints `stale` (an outdated entry of the same rectangle) or links
    /// a new entry into the anchor chain. Returns the entry index.
    fn commit(
        &mut self,
        rect: GroupRect,
        stale: Option<u32>,
        epoch: u64,
        offset: usize,
        valid_count: u32,
    ) -> u32 {
        if let Some(i) = stale {
            let e = &mut self.entries[i as usize];
            (e.epoch, e.offset, e.valid_count) = (epoch, offset, valid_count);
            return i;
        }
        let idx = self.entries.len() as u32;
        let head = &mut self.anchor_head[rect.r0 as usize * self.cols + rect.c0 as usize];
        self.entries.push(RectEntry { rect, epoch, offset, valid_count, next: *head });
        *head = idx;
        idx
    }

    /// End-of-run eviction: keeps exactly the entries used in run `epoch`,
    /// compacting their numbers into the spare buffer and rebuilding the
    /// anchor chains.
    fn retain_epoch(&mut self, epoch: u64) {
        self.spare.clear();
        self.anchor_head.fill(NO_ENTRY);
        let mut kept = 0usize;
        for i in 0..self.entries.len() {
            let e = self.entries[i];
            if e.epoch != epoch {
                continue;
            }
            let offset = self.spare.len();
            self.spare.extend_from_slice(
                &self.data[e.offset..e.offset + self.p + e.valid_count as usize],
            );
            let head = &mut self.anchor_head[e.rect.r0 as usize * self.cols + e.rect.c0 as usize];
            self.entries[kept] = RectEntry { offset, next: *head, ..e };
            *head = kept as u32;
            kept += 1;
        }
        self.entries.truncate(kept);
        std::mem::swap(&mut self.data, &mut self.spare);
    }
}

/// Cross-run state of the localized path: extraction traces, the per-group
/// cache, and the warm-start hint. One instance per maintained grid, fed
/// with the dirty cell set of each [`Repartitioner::run_localized`] call.
#[derive(Debug, Default)]
pub struct LocalizedState {
    rows: usize,
    cols: usize,
    /// Monotone run counter; epoch tags on traces / rect entries implement
    /// both end-of-run eviction and the "exactly one generation old"
    /// validity rule.
    epoch: u64,
    traces: HashMap<u64, ThetaTrace>,
    arena: RectArena,
    hint: Option<f64>,
    ready: bool,
    last_fallback: bool,
    last_reused: u64,
    /// Run-scoped buffers reused across runs (allocation amortization; no
    /// cross-run meaning except `pos_of`, which is revalidated below).
    thresholds_buf: Vec<f64>,
    prefix_buf: Vec<u32>,
    /// Flat cell index → position in the scan cache's valid-cell list
    /// (`u32::MAX` for invalid cells); rebuilt when `pos_of_stamp` says the
    /// list changed. Keying on the cache's cells generation is sound under
    /// the documented contract that one state tracks one maintained
    /// grid/scan pair.
    pos_of: Vec<u32>,
    /// `(cells_generation, cells_len)` the `pos_of` index was built for.
    pos_of_stamp: Option<(u64, usize)>,
    /// The per-cell subtotal plane; never zeroed between runs — the first
    /// evaluation of a run scores against an empty previous tiling, so it
    /// writes every valid position before the fold reads it.
    terms: Vec<f64>,
    replay: ReplayScratch,
}

impl LocalizedState {
    /// Fresh state: the first run walks cold and seeds the caches.
    pub fn new() -> Self {
        LocalizedState::default()
    }

    /// Drops the extraction traces and the warm-start hint; the next run
    /// walks cold. Call when the scan cache reports a normalization
    /// rebuild: every edge variation was rescaled, so recorded probe
    /// outcomes and the hinted θ no longer describe the current edge view.
    /// The rectangle cache is kept — its features and subtotals depend only
    /// on raw cell values and are re-validated against the dirty region.
    pub fn invalidate(&mut self) {
        self.traces.clear();
        self.hint = None;
        self.ready = false;
    }

    /// The θ the next warm walk would start from (`None` after
    /// [`LocalizedState::invalidate`] or before the first completed run).
    pub fn warm_hint(&self) -> Option<f64> {
        self.hint
    }

    /// Whether at least one localized run has completed since the last
    /// invalidation (i.e. traces and hint describe the previous run).
    pub fn ready(&self) -> bool {
        self.ready
    }

    /// Whether the most recent run fell back to the cold walk (first run,
    /// invalidated state, oversized dirty region, or warm-window miss).
    pub fn last_run_was_fallback(&self) -> bool {
        self.last_fallback
    }

    /// Cache hits of the most recent run: groups whose features and Eq. 3
    /// subtotals were served from the rectangle cache.
    pub fn last_reused_groups(&self) -> u64 {
        self.last_reused
    }

    /// Whether a run over `dirty_len` dirty cells on a `num_cells` grid
    /// would walk cold (no warm hint): unseeded/invalidated state, or a
    /// dirty fraction above `FULL_WALK_DIRTY_FRACTION`.
    fn walks_cold(&self, dirty_len: usize, num_cells: usize) -> bool {
        !self.ready || (dirty_len as f64) > FULL_WALK_DIRTY_FRACTION * num_cells as f64
    }

    /// The warm hint the next [`Repartitioner::run_localized`] call would
    /// hand the threshold walk, given `dirty_len` pending dirty cells on a
    /// `num_cells` grid — `None` when that run would walk cold. Callers
    /// (and the convergence property tests) can reproduce the upcoming walk
    /// bit-for-bit by passing this to
    /// [`Repartitioner::run_with_pool_warm`].
    pub fn planned_hint(&self, dirty_len: usize, num_cells: usize) -> Option<f64> {
        if self.walks_cold(dirty_len, num_cells) {
            None
        } else {
            self.hint
        }
    }
}

/// Scratch buffers of the replay scan, reused across evaluations.
#[derive(Debug, Default)]
struct ReplayScratch {
    /// Per-column spill profile of the *new* tiling: `bot[c]` is one past
    /// the deepest row covered by any emitted rectangle touching column
    /// `c`. For the current scan row `r`, `(rr, c)` with `rr ≥ r` is
    /// assigned iff `rr < bot[c]` — every rectangle still covering rows
    /// `≥ r` was anchored at a row `≤ r`, so its column coverage at rows
    /// `≥ r` is contiguous from `r` up to its bottom row.
    bot_new: Vec<u32>,
    /// The same profile replayed from the previous run's trace.
    bot_old: Vec<u32>,
    /// Columns where the two profiles currently answer differently for
    /// some future row (the divergence set); rows scan instead of copying
    /// while it is non-empty.
    diff: Vec<u32>,
    /// Membership flags backing `diff`.
    in_diff: Vec<bool>,
}

/// Builds a `(rows + 1) × (cols + 1)` inclusive 2-D prefix-sum over the
/// dirty cell indicator, for O(1) "any dirty cell in this box?" queries.
fn build_dirty_prefix(rows: usize, cols: usize, dirty: &[CellId], prefix: &mut Vec<u32>) {
    let w = cols + 1;
    prefix.clear();
    prefix.resize((rows + 1) * w, 0);
    for &id in dirty {
        let id = id as usize;
        prefix[(id / cols + 1) * w + (id % cols + 1)] += 1;
    }
    for r in 1..=rows {
        let mut run = 0u32;
        for c in 1..=cols {
            run += prefix[r * w + c];
            prefix[r * w + c] = run + prefix[(r - 1) * w + c];
        }
    }
}

/// Any dirty cell inside the inclusive cell box `[r0, r1] × [c0, c1]`?
#[inline]
fn dirty_in_box(prefix: &[u32], cols: usize, r0: usize, r1: usize, c0: usize, c1: usize) -> bool {
    let w = cols + 1;
    let (r1, c1) = (r1 + 1, c1 + 1);
    prefix[r1 * w + c1] + prefix[r0 * w + c0] > prefix[r0 * w + c1] + prefix[r1 * w + c0]
}

/// From-scratch trace extraction: every row scanned, every probe recorded.
/// Emits the same rectangles in the same order as the public
/// [`crate::extractor::extract_with_edges`] (the cursor is the same code).
fn extract_full_trace(
    edges: &EdgeVariations,
    accept: f64,
    rows: usize,
    rs: &mut ReplayScratch,
    epoch: u64,
) -> ThetaTrace {
    rs.bot_new.fill(0);
    let mut rects = Vec::new();
    let mut reach = Vec::new();
    let mut run_width = Vec::new();
    let mut row_start = Vec::with_capacity(rows + 1);
    row_start.push(0u32);
    for r in 0..rows {
        scan_row(edges, accept, r, &mut rs.bot_new, &mut rects, &mut reach, &mut run_width);
        row_start.push(rects.len() as u32);
    }
    ThetaTrace { epoch, rects, reach, run_width, row_start }
}

/// Row-granular replay of a recorded trace against the current edge view.
/// A row is copied verbatim when (a) the divergence set is empty — the new
/// tiling's spill into this row matches the traced one at every column, so
/// every assignment query answers as before — and (b) no traced probe
/// footprint in the row contains a dirty cell: the footprint box bounds
/// every edge the probe compared (`RectProbe::reach`), so a dirt-free
/// box means every `edge ≤ accept` comparison still answers as recorded.
/// Otherwise the row is re-scanned live and the divergence set updated
/// from the columns either tiling touched.
#[allow(clippy::too_many_arguments)]
fn replay_trace(
    edges: &EdgeVariations,
    accept: f64,
    rows: usize,
    cols: usize,
    old: &ThetaTrace,
    prefix: &[u32],
    rs: &mut ReplayScratch,
    epoch: u64,
) -> ThetaTrace {
    let mut rects = Vec::with_capacity(old.rects.len());
    let mut reach = Vec::with_capacity(old.rects.len());
    let mut run_width = Vec::with_capacity(old.rects.len());
    let mut row_start = Vec::with_capacity(rows + 1);
    row_start.push(0u32);
    rs.bot_new.fill(0);
    rs.bot_old.fill(0);
    debug_assert!(rs.diff.is_empty());

    for r in 0..rows {
        // Retire divergence columns that healed (equal again) or expired
        // (neither profile covers any row ≥ r anymore — all future
        // queries answer "unassigned" on both sides).
        if !rs.diff.is_empty() {
            let (bot_new, bot_old, in_diff) = (&rs.bot_new, &rs.bot_old, &mut rs.in_diff);
            rs.diff.retain(|&cu| {
                let c = cu as usize;
                let keep = bot_new[c] != bot_old[c] && bot_new[c].max(bot_old[c]) as usize > r;
                if !keep {
                    in_diff[c] = false;
                }
                keep
            });
        }
        let og = old.row_start[r] as usize..old.row_start[r + 1] as usize;
        let mut clean = rs.diff.is_empty();
        if clean {
            for gi in og.clone() {
                let rect = old.rects[gi];
                let c0 = rect.c0 as usize;
                let c1 = (c0 + old.run_width[gi] as usize).min(cols - 1);
                if dirty_in_box(prefix, cols, r, old.reach[gi] as usize, c0, c1) {
                    clean = false;
                    break;
                }
            }
        }
        if clean {
            for gi in og {
                let rect = old.rects[gi];
                rects.push(rect);
                reach.push(old.reach[gi]);
                run_width.push(old.run_width[gi]);
                let b = rect.r1 + 1;
                for c in rect.c0 as usize..=rect.c1 as usize {
                    rs.bot_new[c] = b;
                    rs.bot_old[c] = b;
                }
            }
        } else {
            let start = rects.len();
            scan_row(edges, accept, r, &mut rs.bot_new, &mut rects, &mut reach, &mut run_width);
            for gi in og.clone() {
                let rect = old.rects[gi];
                for c in rect.c0 as usize..=rect.c1 as usize {
                    rs.bot_old[c] = rect.r1 + 1;
                }
            }
            // Refresh the divergence set over every column either tiling
            // wrote this row; untouched columns keep their prior verdict.
            let touched = rects[start..].iter().copied().chain(og.map(|gi| old.rects[gi]));
            for rect in touched {
                for c in rect.c0 as usize..=rect.c1 as usize {
                    if rs.bot_new[c] != rs.bot_old[c] && !rs.in_diff[c] {
                        rs.in_diff[c] = true;
                        rs.diff.push(c as u32);
                    }
                }
            }
        }
        row_start.push(rects.len() as u32);
    }
    for &c in &rs.diff {
        rs.in_diff[c as usize] = false;
    }
    rs.diff.clear();
    ThetaTrace { epoch, rects, reach, run_width, row_start }
}

/// The read-only inputs of group scoring: the grid, the Eq. 3 cell cache,
/// and the cell → valid-cell-position index the subtotal plane is keyed by.
struct GroupInputs<'a> {
    grid: &'a GridDataset,
    cache: &'a IflCellCache,
    aggs: &'a [AggType],
    p: usize,
    has_mode: bool,
    pos_of: &'a [u32],
    cols: usize,
}

impl GroupInputs<'_> {
    /// Builds the cached state of one multi-cell group — allocated
    /// features, then the Eq. 3 per-member subtotals — appending `p +
    /// valid_count` numbers to `out` and returning the valid-member count.
    /// It runs the same `allocate_rect_into` / [`representative`] /
    /// [`cell_term_at`] pipeline the whole-partition kernels
    /// (`GroupFeatures::allocate_with`, `partition_ifl_with`) run, so every
    /// stored number matches their bits. `reps` is scratch for the
    /// representative row.
    fn build_entry(
        &self,
        rect: GroupRect,
        scratch: &mut Scratch,
        reps: &mut Vec<f64>,
        out: &mut Vec<f64>,
    ) -> u32 {
        let p = self.p;
        let start = out.len();
        let count = allocate_rect_into(self.grid, rect, scratch, out);
        if count > 1 {
            reps.clear();
            reps.extend((0..p).map(|k| representative(out[start + k], self.aggs[k], count)));
            for rr in rect.r0 as usize..=rect.r1 as usize {
                let base = rr * self.cols;
                for cc in rect.c0 as usize..=rect.c1 as usize {
                    let pos = self.pos_of[base + cc];
                    if pos != u32::MAX {
                        out.push(cell_term_at(
                            self.cache,
                            pos as usize,
                            reps,
                            self.aggs,
                            self.has_mode,
                            p,
                        ));
                    }
                }
            }
        } else {
            // 0 or 1 valid member: the Eq. 3 kernel contributes nothing for
            // these groups (single-member terms are exact zeros).
            out.resize(start + p + count, 0.0);
        }
        count as u32
    }

    /// Copies one group's cached per-member subtotals into the subtotal
    /// plane, in member scan order (the order [`GroupInputs::build_entry`]
    /// recorded them).
    fn scatter(&self, terms: &mut [f64], rect: GroupRect, src: &[f64]) {
        let mut j = 0usize;
        for rr in rect.r0 as usize..=rect.r1 as usize {
            let base = rr * self.cols;
            for cc in rect.c0 as usize..=rect.c1 as usize {
                let pos = self.pos_of[base + cc];
                if pos != u32::MAX {
                    terms[pos as usize] = src[j];
                    j += 1;
                }
            }
        }
        debug_assert_eq!(j, src.len());
    }
}

/// Scores one extracted tiling: per-group subtotals — cached where the
/// rectangle is untouched by dirt, rebuilt otherwise — scattered into the
/// per-cell subtotal plane and folded in canonical order. Writes the arena
/// entry of every rectangle (or [`NO_ENTRY`] for singletons) to `entries`.
///
/// The subtotal plane (`terms`) persists across the evaluations of one
/// run, and `prev_rects` is the tiling the previous evaluation scored into
/// it (empty on the first), with its entries in `prev_entries`. A
/// rectangle present in both tilings already has its members' subtotals in
/// the plane — the same grid and the same member set produce the same
/// numbers — so it is skipped outright, before any cache probe. Nearby
/// thresholds share almost their whole tiling, which turns the scatter
/// from O(cells) into O(changed groups).
#[allow(clippy::too_many_arguments)]
fn score_trace(
    inputs: &GroupInputs<'_>,
    trace_rects: &[GroupRect],
    prev_rects: &[GroupRect],
    prev_entries: &[u32],
    arena: &mut RectArena,
    entries: &mut Vec<u32>,
    prefix: &[u32],
    epoch: u64,
    scratch: &mut Scratch,
    reps: &mut Vec<f64>,
    terms: &mut [f64],
    reused: &mut u64,
    pool: &sr_par::Pool,
) -> f64 {
    let cols = inputs.cols;
    // Merge cursor into `prev_rects`; both tilings are strictly ascending
    // by anchor (r0, c0), so one forward pass pairs them up.
    let anchor = |rect: GroupRect| ((rect.r0 as u64) << 32) | rect.c0 as u64;
    let mut pi = 0usize;
    entries.clear();
    let mut to_scatter: Vec<u32> = Vec::new();
    // (rect, stale entry of the same rectangle, slot in `entries`).
    let mut to_build: Vec<(GroupRect, Option<u32>, usize)> = Vec::new();
    for &rect in trace_rects {
        let key = anchor(rect);
        while pi < prev_rects.len() && anchor(prev_rects[pi]) < key {
            pi += 1;
        }
        if pi < prev_rects.len() && prev_rects[pi] == rect {
            // Unchanged group: its subtotals are already in the plane.
            entries.push(prev_entries[pi]);
            pi += 1;
            if rect.r0 != rect.r1 || rect.c0 != rect.c1 {
                *reused += 1;
            }
            continue;
        }
        if rect.r0 == rect.r1 && rect.c0 == rect.c1 {
            // Singleton: a skipped (exact-zero) term; not worth an entry.
            let pos = inputs.pos_of[rect.r0 as usize * cols + rect.c0 as usize];
            if pos != u32::MAX {
                terms[pos as usize] = 0.0;
            }
            entries.push(NO_ENTRY);
            continue;
        }
        match arena.find(rect) {
            // Within-run hits are always valid (the grid is fixed for the
            // whole walk); cross-run entries are valid while no dirty cell
            // lies inside the rectangle.
            Some(i)
                if arena.entries[i as usize].epoch == epoch
                    || !dirty_in_box(
                        prefix,
                        cols,
                        rect.r0 as usize,
                        rect.r1 as usize,
                        rect.c0 as usize,
                        rect.c1 as usize,
                    ) =>
            {
                arena.entries[i as usize].epoch = epoch;
                *reused += 1;
                to_scatter.push(i);
                entries.push(i);
            }
            stale => {
                to_build.push((rect, stale, entries.len()));
                entries.push(NO_ENTRY);
            }
        }
    }
    // Rebuilds dominate the first evaluation after a dirty batch (every
    // group the dirt touched), and each one is self-contained — the feature
    // fold and term loop read only the grid and the cell cache — so fan
    // them out. Chunk results come back in submission order and are
    // appended to the arena serially, and the plane writes of a tiling are
    // disjoint, so arena and plane end up bit-identical to a serial pass.
    if to_build.len() >= 16 && pool.threads() > 1 {
        let grain = sr_par::fixed_grain(to_build.len(), 4 * pool.threads());
        let built = pool.par_map_chunks(to_build.len(), grain, |range| {
            let mut scratch = Scratch::new(inputs.p);
            let mut reps = Vec::new();
            let mut data = Vec::new();
            let counts: Vec<u32> = range
                .map(|i| inputs.build_entry(to_build[i].0, &mut scratch, &mut reps, &mut data))
                .collect();
            (data, counts)
        });
        let mut jobs = to_build.iter();
        for (data, counts) in built {
            let mut offset = arena.data.len();
            arena.data.extend_from_slice(&data);
            for (count, &(rect, stale, slot)) in counts.into_iter().zip(jobs.by_ref()) {
                entries[slot] = arena.commit(rect, stale, epoch, offset, count);
                to_scatter.push(entries[slot]);
                offset += inputs.p + count as usize;
            }
        }
    } else {
        for &(rect, stale, slot) in &to_build {
            let offset = arena.data.len();
            let count = inputs.build_entry(rect, scratch, reps, &mut arena.data);
            entries[slot] = arena.commit(rect, stale, epoch, offset, count);
            to_scatter.push(entries[slot]);
        }
    }
    for &i in &to_scatter {
        inputs.scatter(terms, arena.entries[i as usize].rect, arena.terms(i));
    }
    fold_cell_terms(terms, inputs.cache.terms(), pool)
}

/// Retains a freshly recorded trace, respecting the size caps: oversized
/// traces are dropped (re-extraction is cheaper than the memory), and when
/// the table is full the largest stored trace makes room — unless the new
/// one is itself the largest.
fn store_trace(traces: &mut HashMap<u64, ThetaTrace>, key: u64, trace: ThetaTrace) {
    if trace.rects.len() > MAX_TRACE_RECTS {
        return;
    }
    if traces.len() >= MAX_TRACES {
        let victim = traces.iter().map(|(&k, t)| (k, t.rects.len())).max_by_key(|&(_, len)| len);
        match victim {
            Some((k, len)) if len >= trace.rects.len() => {
                traces.remove(&k);
            }
            _ => return,
        }
    }
    traces.insert(key, trace);
}

/// Materializes the winning tiling: the partition from the rectangles
/// (scan order = group-id order) and the feature arena copied from the
/// winner's cache entries; singletons, which have none, keep their cell's
/// values (`allocate_rect_into`'s single-cell path).
fn materialize(
    grid: &GridDataset,
    winner: Vec<GroupRect>,
    winner_entries: &[u32],
    arena: &RectArena,
    scratch: &mut Scratch,
) -> (Partition, GroupFeatures) {
    let p = grid.num_attrs();
    let mut values = Vec::with_capacity(winner.len() * p);
    let mut counts = Vec::with_capacity(winner.len());
    for (&rect, &e) in winner.iter().zip(winner_entries) {
        if e == NO_ENTRY {
            counts.push(allocate_rect_into(grid, rect, scratch, &mut values) as u32);
        } else {
            values.extend_from_slice(arena.features(e));
            counts.push(arena.entries[e as usize].valid_count);
        }
    }
    let partition = Partition::from_rects(grid.rows(), grid.cols(), winner);
    (partition, GroupFeatures::from_flat(p, values, counts))
}

impl Repartitioner {
    /// The localized incremental entry point: like
    /// [`Repartitioner::run_with_scan`], but with cost proportional to the
    /// dirty region. `dirty` is the set of cells whose values changed since
    /// the previous `run_localized` call on this `state` (duplicates are
    /// harmless); `state` carries the traces, the per-group cache, and the
    /// warm-start hint between runs.
    ///
    /// Bit-identity contract: the outcome equals
    /// [`Repartitioner::run_with_pool_warm`] on the same grid with the hint
    /// the state held on entry (`None` when the state was not ready or the
    /// dirty fraction forced a cold walk) — which under a `None` hint or
    /// the [`crate::IterationStrategy::EveryDistinct`] strategy is exactly
    /// the batch driver. This holds at any `SR_THREADS`.
    ///
    /// Emits the `repartition.run` span with `localized`, `dirty_cells`,
    /// `reused_groups`, and `thresholds_walked` fields on top of the batch
    /// fields.
    pub fn run_localized(
        &self,
        grid: &GridDataset,
        scan: &ScanCache,
        state: &mut LocalizedState,
        dirty: &[CellId],
        pool: &sr_par::Pool,
    ) -> Result<RepartitionOutcome> {
        if scan.ifl_options() != self.ifl_options() {
            return Err(CoreError::ScanCacheMismatch);
        }
        let n = grid.num_cells();
        if state.rows != grid.rows() || state.cols != grid.cols() {
            *state = LocalizedState::new();
            state.rows = grid.rows();
            state.cols = grid.cols();
        }
        let mut run_span = self.run_span(grid);
        run_span.record("incremental", 1usize);
        run_span.record("localized", 1usize);
        run_span.record("dirty_cells", dirty.len());

        let mut thresholds = std::mem::take(&mut state.thresholds_buf);
        {
            let mut scan_span = sr_obs::span("repartition.variation_scan");
            scan.sorted_distinct_thresholds_into(&mut thresholds);
            scan_span.record("distinct_variations", thresholds.len());
        }
        let cold = state.walks_cold(dirty.len(), n);
        let warm_hint = state.planned_hint(dirty.len(), n);
        let (outcome, walk, reused) =
            self.walk_scan(grid, scan, &thresholds, warm_hint, Some((state, dirty)), pool);
        state.thresholds_buf = thresholds;

        // End-of-run bookkeeping: the hint moves to this run's winner, and
        // anything not touched this run is evicted — which both bounds
        // memory and keeps every retained item exactly one dirt-generation
        // old, the precondition of the cross-run validity checks in
        // `replay_trace` and `score_trace`.
        let accepted = outcome.iterations.iter().any(|it| it.accepted);
        state.hint = accepted.then(|| outcome.repartitioned.min_adjacent_variation());
        state.ready = true;
        state.last_fallback = cold || walk == WalkKind::WarmMiss;
        state.last_reused = reused;
        let epoch = state.epoch;
        state.traces.retain(|_, t| t.epoch == epoch);
        state.arena.retain_epoch(epoch);

        run_span.record("groups", outcome.repartitioned.num_groups());
        run_span.record("ifl", outcome.repartitioned.ifl());
        run_span.record("reused_groups", reused as usize);
        run_span.record("thresholds_walked", outcome.iterations.len());
        Ok(outcome)
    }

    /// The threshold walk of every driver entry point (§III-A, Fig. 2):
    /// per probed θ, extract the tiling (Algorithm 1), score it (Algorithm
    /// 2 + Eq. 3), and accept or stop; then materialize the coarsest
    /// accepted tiling, or the identity partition when nothing was
    /// accepted. Emits `repartition.merge_loop` with one
    /// `repartition.extract` / `repartition.score` pair per evaluation.
    ///
    /// `carried` is the cross-run state of a localized caller with the
    /// cells dirtied since its previous run; its traces are replayed
    /// against that dirt and new ones recorded. A one-shot run passes
    /// `None`: it walks from a fresh state, and since it has no next run it
    /// records no extraction traces. Returns the outcome, the walk order
    /// taken, and the number of groups served from the rectangle cache.
    pub(crate) fn walk_scan(
        &self,
        grid: &GridDataset,
        scan: &ScanCache,
        thresholds: &[f64],
        warm_hint: Option<f64>,
        carried: Option<(&mut LocalizedState, &[CellId])>,
        pool: &sr_par::Pool,
    ) -> (RepartitionOutcome, WalkKind, u64) {
        let (rows, cols) = (grid.rows(), grid.cols());
        let n = grid.num_cells();
        let keep_traces = carried.is_some();
        let mut fresh = LocalizedState::new();
        let (state, dirty) = carried.unwrap_or((&mut fresh, &[]));
        state.epoch += 1;
        let epoch = state.epoch;
        let edges = scan.edges();
        let cells = scan.cells();
        let ifl_cache = scan.ifl_cache();

        // Run-scoped derived inputs and scratch, all held in the state so
        // steady-state localized runs allocate nothing grid-sized.
        build_dirty_prefix(rows, cols, dirty, &mut state.prefix_buf);
        let stamp = (scan.cells_generation(), cells.len());
        if state.pos_of.len() != n || state.pos_of_stamp != Some(stamp) {
            state.pos_of.clear();
            state.pos_of.resize(n, u32::MAX);
            for (i, &id) in cells.iter().enumerate() {
                state.pos_of[id as usize] = i as u32;
            }
            state.pos_of_stamp = Some(stamp);
        }
        state.terms.resize(cells.len(), 0.0);
        state.replay.bot_new.resize(cols, 0);
        state.replay.bot_old.resize(cols, 0);
        state.replay.in_diff.resize(cols, false);
        let p = grid.num_attrs();
        state.arena.prepare(rows, cols, p);
        let aggs = grid.agg_types();
        let mut scratch = Scratch::new(p);
        let mut reps: Vec<f64> = Vec::new();

        let metrics = sr_obs::Registry::global();
        let iterations_total = metrics.counter("repartition.iterations_total");
        let rejections_total = metrics.counter("repartition.rejections_total");
        let mut iterations: Vec<IterationStats> = Vec::new();
        let mut best: Option<(f64, f64, usize)> = None; // (θ, ifl, groups)
        let mut winner_rects: Vec<GroupRect> = Vec::new();
        let mut winner_entries: Vec<u32> = Vec::new();
        let mut reused: u64 = 0;
        let threshold = self.threshold();

        let walk = {
            let traces = &mut state.traces;
            let arena = &mut state.arena;
            let prefix = &state.prefix_buf;
            let inputs = GroupInputs {
                grid,
                cache: ifl_cache,
                aggs,
                p,
                has_mode: aggs.contains(&AggType::Mode),
                pos_of: &state.pos_of,
                cols,
            };
            let terms = &mut state.terms;
            let rs = &mut state.replay;
            // The tiling the subtotal plane currently holds, with its arena
            // entries (walk-scoped: the plane persists across the
            // evaluations of one run).
            let mut prev_rects: Vec<GroupRect> = Vec::new();
            let mut prev_entries: Vec<u32> = Vec::new();
            let mut entries: Vec<u32> = Vec::new();
            let mut evaluate = |theta: f64| -> IterationStats {
                let key = theta.to_bits();
                let accept = theta + VARIATION_SLACK;
                let old = traces.remove(&key);
                let mut ex_span = sr_obs::span("repartition.extract");
                // 0 = same-run clone, 1 = cross-run replay, 2 = full scan.
                let mut path = 2usize;
                let trace = match &old {
                    // Same θ re-probed within one walk: the grid is fixed,
                    // so the recorded tiling is the tiling.
                    Some(t) if t.epoch == epoch => {
                        path = 0;
                        t.clone()
                    }
                    // Exactly one run old: replay, re-scanning only rows
                    // whose probe footprints contain dirt.
                    Some(t) if t.epoch + 1 == epoch => {
                        path = 1;
                        replay_trace(edges, accept, rows, cols, t, prefix, rs, epoch)
                    }
                    _ => extract_full_trace(edges, accept, rows, rs, epoch),
                };
                let num_groups = trace.rects.len();
                ex_span.record("path", path);
                ex_span.record("groups", num_groups);
                drop(ex_span);
                let sc_span = sr_obs::span("repartition.score");
                let ifl = score_trace(
                    &inputs,
                    &trace.rects,
                    &prev_rects,
                    &prev_entries,
                    arena,
                    &mut entries,
                    prefix,
                    epoch,
                    &mut scratch,
                    &mut reps,
                    terms,
                    &mut reused,
                    pool,
                );
                drop(sc_span);
                let accepted = ifl <= threshold;
                iterations_total.inc();
                if !accepted {
                    rejections_total.inc();
                }
                if accepted && best.is_none_or(|(_, _, groups)| num_groups <= groups) {
                    best = Some((theta, ifl, num_groups));
                    winner_rects.clear();
                    winner_rects.extend_from_slice(&trace.rects);
                    winner_entries.clear();
                    winner_entries.extend_from_slice(&entries);
                }
                std::mem::swap(&mut prev_entries, &mut entries);
                if keep_traces && trace.rects.len() <= MAX_TRACE_RECTS {
                    prev_rects.clear();
                    prev_rects.extend_from_slice(&trace.rects);
                    store_trace(traces, key, trace);
                } else {
                    // Not retained across runs (one-shot walk, or a trace
                    // too large to keep): the tiling moves into `prev`.
                    prev_rects = trace.rects;
                }
                IterationStats { min_adjacent_variation: theta, num_groups, ifl, accepted }
            };

            let mut merge_span = sr_obs::span("repartition.merge_loop");
            let walk = self.drive_walk(thresholds, warm_hint, &mut iterations, &mut evaluate);
            merge_span.record("iterations", iterations.len());
            merge_span.record("rejections", iterations.iter().filter(|it| !it.accepted).count());
            walk
        };

        let repartitioned = match best {
            Some((theta, ifl, _)) => {
                let (partition, features) =
                    materialize(grid, winner_rects, &winner_entries, &state.arena, &mut scratch);
                Repartitioned::from_parts(grid, partition, features, ifl, theta)
            }
            // Nothing accepted (or no adjacent pairs): the identity
            // partition, whose IFL is exactly zero.
            None => {
                let partition = Partition::identity(rows, cols);
                let features = GroupFeatures::allocate_with(grid, &partition, pool);
                Repartitioned::from_parts(grid, partition, features, 0.0, 0.0)
            }
        };
        metrics
            .counter("repartition.cells_merged_total")
            .add((n - repartitioned.num_groups()) as u64);
        (RepartitionOutcome { repartitioned, iterations, input_cells: n }, walk, reused)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repartition::{IterationStrategy, RepartitionConfig};
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    fn smooth_grid(rows: usize, cols: usize, seed: u64) -> GridDataset {
        let mut rng = SmallRng::seed_from_u64(seed);
        let vals: Vec<f64> = (0..rows * cols)
            .map(|i| {
                let (r, c) = (i / cols, i % cols);
                100.0 + (r as f64 * 0.8) + (c as f64 * 0.5) + rng.gen_range(-0.5..0.5)
            })
            .collect();
        GridDataset::univariate(rows, cols, vals).unwrap()
    }

    fn driver(theta: f64, strategy: IterationStrategy) -> Repartitioner {
        Repartitioner::with_config(RepartitionConfig::new(theta).unwrap().with_strategy(strategy))
            .unwrap()
    }

    fn outcome_bits(out: &RepartitionOutcome) -> Vec<u64> {
        let mut bits = vec![
            out.repartitioned.ifl().to_bits(),
            out.repartitioned.min_adjacent_variation().to_bits(),
            out.repartitioned.num_groups() as u64,
            out.iterations.len() as u64,
        ];
        for it in &out.iterations {
            bits.push(it.min_adjacent_variation.to_bits());
            bits.push(it.ifl.to_bits());
            bits.push(it.num_groups as u64);
            bits.push(it.accepted as u64);
        }
        for (g, f) in out.repartitioned.features().iter().enumerate() {
            bits.push(g as u64);
            if let Some(fv) = f {
                bits.extend(fv.iter().map(|v| v.to_bits()));
            }
        }
        bits.extend(
            out.repartitioned
                .partition()
                .rects()
                .iter()
                .flat_map(|r| [r.r0 as u64, r.r1 as u64, r.c0 as u64, r.c1 as u64]),
        );
        bits
    }

    /// A sequence of dirty batches replayed through `run_localized` must
    /// match `run_with_pool_warm` on the same grid and hint, bit for bit,
    /// at 1 and 8 threads — including warm walks, a θ-jump miss, and a
    /// cold restart after invalidation.
    #[test]
    fn localized_matches_hinted_batch_driver() {
        for strategy in [
            IterationStrategy::EveryDistinct,
            IterationStrategy::Exponential { initial_stride: 2, growth: 1.7 },
        ] {
            let drv = driver(0.08, strategy);
            let mut reference: Vec<Vec<u64>> = Vec::new();
            for threads in [1usize, 8] {
                let pool = sr_par::Pool::new(threads);
                let mut grid = smooth_grid(14, 15, 42);
                let mut scan = ScanCache::build(&grid, drv.ifl_options());
                let mut state = LocalizedState::new();
                let mut rng = SmallRng::seed_from_u64(7);
                for round in 0..6 {
                    let dirty: Vec<CellId> = if round == 0 {
                        Vec::new()
                    } else {
                        (0..5).map(|_| rng.gen_range(0..grid.num_cells()) as CellId).collect()
                    };
                    for &id in &dirty {
                        let bump = rng.gen_range(-0.4..0.4);
                        let v = grid.value(id, 0) + bump;
                        grid.set_value(id, 0, v);
                    }
                    let update = scan.update(&grid, &dirty);
                    if update.rebuilt_normalization {
                        state.invalidate();
                    }
                    let hint = if state.ready() { state.warm_hint() } else { None };
                    let local = drv.run_localized(&grid, &scan, &mut state, &dirty, &pool).unwrap();
                    let batch = drv.run_with_pool_warm(&grid, &pool, hint).unwrap();
                    assert_eq!(
                        outcome_bits(&local),
                        outcome_bits(&batch),
                        "strategy {strategy:?} threads {threads} round {round}"
                    );
                    assert_eq!(
                        local.repartitioned.partition().num_groups(),
                        batch.repartitioned.partition().num_groups()
                    );
                    let bits = outcome_bits(&local);
                    if threads == 1 {
                        reference.push(bits);
                    } else {
                        assert_eq!(reference[round], bits, "thread-count divergence");
                    }
                }
            }
        }
    }

    /// A warm hint below every threshold must fall back to the cold walk
    /// and still match the batch driver under the same (missing) hint.
    #[test]
    fn warm_miss_falls_back_to_cold_walk() {
        let strategy = IterationStrategy::Exponential { initial_stride: 2, growth: 1.7 };
        let drv = driver(0.05, strategy);
        let pool = sr_par::Pool::new(2);
        // One near-identical pair (cells 0 and 1) in an otherwise jagged
        // row: the first run's winner is that pair's tiny variation.
        let mut grid =
            GridDataset::univariate(2, 3, vec![100.0, 100.001, 220.0, 390.0, 560.0, 730.0])
                .unwrap();
        let mut scan = ScanCache::build(&grid, drv.ifl_options());
        let mut state = LocalizedState::new();
        let first = drv.run_localized(&grid, &scan, &mut state, &[], &pool).unwrap();
        assert!(first.repartitioned.num_groups() < 6, "expected the pair to merge");
        let hint = state.warm_hint().expect("first run must set the hint");

        // Destroy the pair: the hinted variation vanishes from the
        // threshold list and every remaining variation exceeds it.
        let dirty = vec![1 as CellId];
        grid.set_value(1, 0, 155.0);
        let update = scan.update(&grid, &dirty);
        assert!(!update.rebuilt_normalization);
        let thresholds = scan.sorted_distinct_thresholds();
        assert!(thresholds.iter().all(|&t| t > hint), "hint must sit below all thresholds");

        let local = drv.run_localized(&grid, &scan, &mut state, &dirty, &pool).unwrap();
        assert!(state.last_run_was_fallback(), "warm miss must be reported as fallback");
        let batch = drv.run_with_pool_warm(&grid, &pool, Some(hint)).unwrap();
        assert_eq!(outcome_bits(&local), outcome_bits(&batch));
    }

    /// An all-cells-dirty batch exceeds the dirty-fraction cutover: the run
    /// must walk cold (no hint) and still match the unhinted batch driver.
    #[test]
    fn oversized_dirty_region_walks_cold() {
        let strategy = IterationStrategy::Exponential { initial_stride: 2, growth: 1.7 };
        let drv = driver(0.08, strategy);
        let pool = sr_par::Pool::new(2);
        let mut grid = smooth_grid(9, 9, 3);
        let mut scan = ScanCache::build(&grid, drv.ifl_options());
        let mut state = LocalizedState::new();
        drv.run_localized(&grid, &scan, &mut state, &[], &pool).unwrap();
        assert!(state.ready());

        let dirty: Vec<CellId> = (0..grid.num_cells() as CellId).collect();
        for &id in &dirty {
            let v = grid.value(id, 0) * 1.001 + 0.05;
            grid.set_value(id, 0, v);
        }
        let update = scan.update(&grid, &dirty);
        if update.rebuilt_normalization {
            state.invalidate();
        }
        let local = drv.run_localized(&grid, &scan, &mut state, &dirty, &pool).unwrap();
        assert!(state.last_run_was_fallback());
        let batch = drv.run_with_pool_warm(&grid, &pool, None).unwrap();
        assert_eq!(outcome_bits(&local), outcome_bits(&batch));
    }

    /// Group reuse must actually happen on a small-dirt warm run.
    #[test]
    fn unchanged_groups_are_reused() {
        let strategy = IterationStrategy::Exponential { initial_stride: 2, growth: 1.7 };
        // A tight budget keeps the winner at many small groups, so one
        // dirty cell invalidates one group and the rest hit the cache.
        let drv = driver(0.02, strategy);
        let pool = sr_par::Pool::new(1);
        let mut grid = smooth_grid(24, 24, 11);
        let mut scan = ScanCache::build(&grid, drv.ifl_options());
        let mut state = LocalizedState::new();
        let first = drv.run_localized(&grid, &scan, &mut state, &[], &pool).unwrap();
        assert!(first.repartitioned.num_groups() > 4, "need a multi-group winner");

        let dirty = vec![40 as CellId];
        let v = grid.value(40, 0) + 0.2;
        grid.set_value(40, 0, v);
        let update = scan.update(&grid, &dirty);
        if update.rebuilt_normalization {
            state.invalidate();
        }
        drv.run_localized(&grid, &scan, &mut state, &dirty, &pool).unwrap();
        assert!(!state.last_run_was_fallback());
        assert!(state.last_reused_groups() > 0, "expected rect-cache hits");
    }

    /// Pinned per-round rect-cache hits of a seeded localized sequence —
    /// the counts the `HashMap`-keyed cache produced before the arena
    /// replaced it.
    #[test]
    fn reuse_counts_are_pinned() {
        let strategy = IterationStrategy::Exponential { initial_stride: 2, growth: 1.7 };
        let drv = driver(0.03, strategy);
        let pool = sr_par::Pool::new(1);
        let mut grid = smooth_grid(30, 30, 21);
        let mut scan = ScanCache::build(&grid, drv.ifl_options());
        let mut state = LocalizedState::new();
        let mut rng = SmallRng::seed_from_u64(5);
        let mut reused = Vec::new();
        for round in 0..3 {
            let dirty: Vec<CellId> = if round == 0 {
                Vec::new()
            } else {
                (0..9).map(|_| rng.gen_range(0..grid.num_cells()) as CellId).collect()
            };
            for &id in &dirty {
                let v = grid.value(id, 0) + rng.gen_range(-0.3..0.3);
                grid.set_value(id, 0, v);
            }
            if scan.update(&grid, &dirty).rebuilt_normalization {
                state.invalidate();
            }
            drv.run_localized(&grid, &scan, &mut state, &dirty, &pool).unwrap();
            reused.push(state.last_reused_groups());
        }
        assert_eq!(reused, vec![723, 14, 42]);
    }

    fn rect(r0: u32, r1: u32, c0: u32, c1: u32) -> GroupRect {
        GroupRect { r0, r1, c0, c1 }
    }

    /// Two rectangles anchored at the same cell (the tilings of two
    /// thresholds) get separate arena entries on one anchor chain, and
    /// both are served from the cache when their tiling comes back.
    #[test]
    fn rects_sharing_an_anchor_both_hit() {
        let grid = smooth_grid(2, 3, 4);
        let scan = ScanCache::build(&grid, sr_grid::IflOptions::default());
        let pos_of: Vec<u32> = (0..6).collect();
        let inputs = GroupInputs {
            grid: &grid,
            cache: scan.ifl_cache(),
            aggs: grid.agg_types(),
            p: 1,
            has_mode: false,
            pos_of: &pos_of,
            cols: 3,
        };
        let mut arena = RectArena::default();
        arena.prepare(2, 3, 1);
        let prefix = vec![0u32; 3 * 4];
        let (mut scratch, mut reps, mut terms) = (Scratch::new(1), Vec::new(), vec![0.0; 6]);
        let fine = vec![rect(0, 1, 0, 1), rect(0, 1, 2, 2)];
        let coarse = vec![rect(0, 1, 0, 2)];
        let pool = sr_par::Pool::new(1);
        let mut prev: (Vec<GroupRect>, Vec<u32>) = (Vec::new(), Vec::new());
        let mut hits = Vec::new();
        for tiling in [&fine, &coarse, &fine, &coarse] {
            let mut reused = 0u64;
            let mut entries = Vec::new();
            score_trace(
                &inputs,
                tiling,
                &prev.0,
                &prev.1,
                &mut arena,
                &mut entries,
                &prefix,
                1,
                &mut scratch,
                &mut reps,
                &mut terms,
                &mut reused,
                &pool,
            );
            hits.push(reused);
            prev = (tiling.to_vec(), entries);
        }
        assert_eq!(hits, vec![0, 0, 2, 1]);
        assert_eq!(arena.entries.len(), 3);
        let (a, b) = (arena.find(fine[0]).unwrap(), arena.find(coarse[0]).unwrap());
        assert_ne!(a, b);
        assert_eq!(arena.anchor_head[0], b);
        assert_eq!(arena.entries[b as usize].next, a);
        let mut fresh = Vec::new();
        inputs.build_entry(fine[0], &mut scratch, &mut reps, &mut fresh);
        assert_eq!(arena.features(a), &fresh[..1]);
        assert_eq!(arena.terms(a), &fresh[1..]);
    }

    /// After a run, the arena holds exactly the non-singleton rectangles of
    /// the tilings that run evaluated, and every entry's numbers equal a
    /// fresh build bit for bit.
    #[test]
    fn arena_holds_exactly_the_run_entries() {
        let strategy = IterationStrategy::Exponential { initial_stride: 2, growth: 1.7 };
        let drv = driver(0.05, strategy);
        let pool = sr_par::Pool::new(2);
        let mut grid = smooth_grid(20, 22, 8);
        grid.set_null(45);
        let mut scan = ScanCache::build(&grid, drv.ifl_options());
        let mut state = LocalizedState::new();
        let mut rng = SmallRng::seed_from_u64(9);
        for round in 0..3 {
            let dirty: Vec<CellId> = if round == 0 {
                Vec::new()
            } else {
                (0..6).map(|_| rng.gen_range(0..grid.num_cells()) as CellId).collect()
            };
            for &id in &dirty {
                let v = grid.value(id, 0) + rng.gen_range(-0.5..0.5);
                grid.set_value(id, 0, v);
            }
            if scan.update(&grid, &dirty).rebuilt_normalization {
                state.invalidate();
            }
            let out = drv.run_localized(&grid, &scan, &mut state, &dirty, &pool).unwrap();
            let mut thetas: Vec<u64> =
                out.iterations.iter().map(|it| it.min_adjacent_variation.to_bits()).collect();
            thetas.sort_unstable();
            thetas.dedup();
            assert_eq!(state.traces.len(), thetas.len(), "every evaluated trace retained");

            let mut touched: Vec<GroupRect> = state
                .traces
                .values()
                .flat_map(|t| t.rects.iter().copied())
                .filter(|r| r.len() > 1)
                .collect();
            let key = |r: &GroupRect| (r.r0, r.r1, r.c0, r.c1);
            touched.sort_unstable_by_key(key);
            touched.dedup();
            let arena = &state.arena;
            let mut held: Vec<GroupRect> = arena.entries.iter().map(|e| e.rect).collect();
            held.sort_unstable_by_key(key);
            assert_eq!(held, touched, "round {round}");
            assert!(arena.entries.iter().all(|e| e.epoch == state.epoch));

            let inputs = GroupInputs {
                grid: &grid,
                cache: scan.ifl_cache(),
                aggs: grid.agg_types(),
                p: 1,
                has_mode: false,
                pos_of: &state.pos_of,
                cols: grid.cols(),
            };
            let (mut scratch, mut reps) = (Scratch::new(1), Vec::new());
            for (i, e) in arena.entries.iter().enumerate() {
                assert_eq!(arena.find(e.rect), Some(i as u32));
                let mut fresh = Vec::new();
                let count = inputs.build_entry(e.rect, &mut scratch, &mut reps, &mut fresh);
                assert_eq!(count, e.valid_count);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                let stored = &arena.data[e.offset..e.offset + 1 + count as usize];
                assert_eq!(bits(stored), bits(&fresh), "entry {i} ({:?})", e.rect);
            }
        }
    }
}
