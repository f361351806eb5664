//! The scatter-gather query router over a shard manifest.
//!
//! [`ShardRouter`] implements [`sr_serve::QueryBackend`], so it plugs
//! into the existing HTTP server unchanged (`serve_backend`).
//!
//! # Route state and the fused fast path
//!
//! Replica resolution is cached: at most once per
//! [`RouterConfig::revalidate`] interval the router revalidates every
//! shard through its [`SnapshotCache`] (stat + possible reload), and in
//! between requests route against the cached state — so a query costs
//! one mutex hop, not `K` filesystem stats.
//!
//! Shard snapshots are the full snapshot *masked* (the validity bitmap
//! and feature table keep only owned cells/groups; partition, schema,
//! bounds and adjacency travel verbatim — see `split.rs`). Masking
//! partitions the original validity and feature sets exactly, so when
//! **every** shard is loaded the router fuses them back into the
//! original snapshot (OR the bitmaps, union the features) and serves
//! through one merged [`QueryEngine`]: bit-identical to the unsharded
//! engine *by construction*, at unsharded latency. The fused view is
//! rebuilt only when a shard's engine changes (reload, rotation) and is
//! dropped whenever a shard is browned out or the loaded snapshots
//! disagree on the partition (mid-redeploy) — then requests fall back to
//! true scatter-gather. [`RouterConfig::scatter_only`] disables the
//! fused view outright, which is what a distributed deployment would do
//! and what the property tests exercise.
//!
//! # Scatter-gather routing
//!
//! - **point** — single-shard: the query cell's group determines the one
//!   owning shard; no fan-out.
//! - **window** — scatter to every shard over the [`sr_par`] pool; each
//!   shard scans exactly its own contiguous slice of the (shared)
//!   Hilbert index (`window_scatter_range`), so the per-shard scans sum
//!   to one unsharded scan; concatenate, sort by group id, and replay
//!   the canonical [`WindowAnswer`] fold — the exact floating-point
//!   accumulation order of the unsharded engine.
//! - **knn** — query the home shard (the one owning the query point's
//!   cell) through the same range-restricted index (`knn_range`), then
//!   expand best-first through the remaining shards in ascending
//!   `(mindist² to the shard's centroid box, shard id)` order, merging
//!   each shard's local top-k by `(d², group id)` into a bounded
//!   candidate list. A shard is queried iff its centroid-box lower bound
//!   does not exceed the current kth distance (ties included), which is
//!   exactly the admissibility condition for boundary correctness — the
//!   merged top-k is bit-identical to the unsharded answer.
//!
//! # Degradation
//!
//! A failed replica rotates deterministically to the next one (sticky —
//! the working replica stays active); a shard whose every replica fails
//! **browns out**. Point queries to a browned-out shard fail fast
//! ([`sr_serve::BackendUnavailable`] → HTTP 503); window/knn skip it and
//! report it in `missing_shards` (the `X-SR-Partial` header). A shard
//! whose (re)load blows [`RouterConfig::shard_deadline`] is missing for
//! *that* request only — the finished load is cached, so the next
//! request is whole again. Replica loads go through a [`SnapshotCache`],
//! so a shard that loaded once keeps serving its last good snapshot
//! *stale* under the ordinary [`sr_serve::ReloadPolicy`] rules. All of
//! it is instrumented under `shard.*` (`docs/OBSERVABILITY.md`).

use crate::manifest::{load_manifest, ShardManifest};
use crate::split::shard_order;
use crate::{Result, ShardError};
use sr_core::{GroupFeatures, Partition};
use sr_fault::FaultPlan;
use sr_grid::Bounds;
use sr_obs::{Counter, Histogram, Registry};
use sr_par::Pool;
use sr_serve::{
    BackendAnswer, BackendResult, BackendUnavailable, NearestGroup, PointAnswer, QueryBackend,
    QueryEngine, ReloadPolicy, Served, Snapshot, SnapshotCache, WindowAnswer, WindowGroupPart,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Router construction options.
#[derive(Clone)]
pub struct RouterConfig {
    /// Metrics registry the router (and its snapshot cache) report into.
    pub registry: Registry,
    /// Snapshot-cache capacity; `0` means one slot per replica file (the
    /// whole deployment stays warm).
    pub cache_capacity: usize,
    /// Per-shard time budget, charged against each shard's snapshot
    /// (re)load during route revalidation. A shard blowing it counts as
    /// missing for that request (`shard.deadline_misses_total`) but its
    /// finished load is cached for the next one; `None` disables.
    pub shard_deadline: Option<Duration>,
    /// Fault plan injected into every snapshot load (tests and drills).
    pub fault_plan: Option<FaultPlan>,
    /// Retry/backoff policy for snapshot reloads.
    pub reload: ReloadPolicy,
    /// Thread pool for the window fan-out; `None` uses the global pool.
    /// Answers are bit-identical either way — the pool only sets
    /// wall-clock parallelism.
    pub pool: Option<Arc<Pool>>,
    /// How long a route resolution (per-shard health + engines + fused
    /// view) stays cached before the next request revalidates it. Also
    /// bounds how long a brownout or recovery can go unnoticed.
    pub revalidate: Duration,
    /// Disable the fused fast path: serve every request through the
    /// per-shard scatter-gather even when all shards are healthy —
    /// exactly what a distributed deployment would do. Used by the
    /// property tests and the `*_scatter` benches.
    pub scatter_only: bool,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            registry: Registry::default(),
            cache_capacity: 0,
            shard_deadline: None,
            fault_plan: None,
            reload: ReloadPolicy::default(),
            pool: None,
            revalidate: Duration::from_millis(10),
            scatter_only: false,
        }
    }
}

/// Cached route state, revalidated at most once per
/// [`RouterConfig::revalidate`].
struct FastState {
    /// When this state expires; `None` forces a revalidation.
    until: Option<Instant>,
    /// Per-shard resolution: `None` = browned out.
    res: Vec<Option<Served>>,
    /// The fused engine over all shards, when every shard is loaded and
    /// their snapshots fuse back into the original (see module docs).
    fused: Option<Arc<QueryEngine>>,
    /// `Arc::as_ptr` of each source engine the fused view was built
    /// from; a mismatch after a reload triggers a rebuild.
    fused_src: Vec<usize>,
}

/// How one request is served.
enum Route {
    /// All shards healthy: answer through the merged engine.
    Fused { engine: Arc<QueryEngine>, stale: bool },
    /// Per-shard scatter-gather over whatever is available.
    Scatter(Vec<ShardState>),
}

/// One shard's availability for one request.
enum ShardState {
    Ready(Served),
    /// Browned out or past the shard deadline — skipped for this request.
    Missing,
}

struct Metrics {
    point_routes: Counter,
    window_routes: Counter,
    knn_routes: Counter,
    brownouts: Counter,
    rotations: Counter,
    deadline_misses: Counter,
    partials: Counter,
    expansions: Counter,
    fanout: Histogram,
    merge_ns: Histogram,
}

impl Metrics {
    fn new(registry: &Registry) -> Metrics {
        Metrics {
            point_routes: registry.counter("shard.point_routes_total"),
            window_routes: registry.counter("shard.window_routes_total"),
            knn_routes: registry.counter("shard.knn_routes_total"),
            brownouts: registry.counter("shard.brownouts_total"),
            rotations: registry.counter("shard.replica_rotations_total"),
            deadline_misses: registry.counter("shard.deadline_misses_total"),
            partials: registry.counter("shard.partial_responses_total"),
            expansions: registry.counter("shard.expansions_total"),
            fanout: registry.histogram("shard.fanout_width"),
            merge_ns: registry.histogram("shard.merge_ns"),
        }
    }
}

/// The sharded scatter-gather backend. See the module docs.
pub struct ShardRouter {
    manifest: ShardManifest,
    /// Absolute replica paths per shard, in rotation order.
    replica_paths: Vec<Vec<PathBuf>>,
    /// Active replica index per shard (sticky rotation state).
    active: Vec<AtomicUsize>,
    cache: SnapshotCache,
    theta: f64,
    /// Shared topology, derived from any loaded shard (all shards carry
    /// the identical partition): cell → group → shard.
    partition: Partition,
    bounds: Bounds,
    attr_names: Vec<String>,
    num_attrs: usize,
    group_shard: Vec<u32>,
    deadline: Option<Duration>,
    pool: Option<Arc<Pool>>,
    revalidate: Duration,
    scatter_only: bool,
    fast: Mutex<FastState>,
    m: Metrics,
}

impl ShardRouter {
    /// Opens a router over `manifest_path`: loads and verifies the
    /// manifest, warms every shard (rotating through replicas), derives
    /// the routing topology from the first shard that loads, and builds
    /// the fused view when the whole deployment is up. Per-shard
    /// failures brown the shard out — only a deployment where **no**
    /// shard loads at all is an error.
    pub fn open(manifest_path: impl Into<PathBuf>, config: RouterConfig) -> Result<ShardRouter> {
        let manifest_path = manifest_path.into();
        let manifest = load_manifest(&manifest_path)?;
        let base_dir = manifest_path.parent().unwrap_or_else(|| std::path::Path::new("."));
        let replica_paths: Vec<Vec<PathBuf>> =
            (0..manifest.shards.len()).map(|s| manifest.replica_paths(base_dir, s)).collect();

        let capacity = if config.cache_capacity == 0 {
            manifest.shards.len() * manifest.replicas
        } else {
            config.cache_capacity
        };
        let mut cache = SnapshotCache::with_registry(capacity, &config.registry)
            .with_reload_policy(config.reload.clone());
        if let Some(plan) = config.fault_plan.clone() {
            cache = cache.with_fault_plan(plan);
        }

        let theta = manifest.theta;
        let m = Metrics::new(&config.registry);
        let active: Vec<AtomicUsize> =
            (0..manifest.shards.len()).map(|_| AtomicUsize::new(0)).collect();

        // Warm every shard now (no deadline at open); keep the first
        // loaded engine for topology.
        let res: Vec<Option<Served>> = (0..manifest.shards.len())
            .map(|s| resolve_rotating(&cache, &replica_paths[s], &active[s], theta, &m))
            .collect();
        let Some(topo) = res.iter().flatten().next().map(|sv| sv.engine.clone()) else {
            return Err(ShardError::Unavailable("no shard of the manifest could be loaded".into()));
        };

        let partition = topo.clone_partition();
        if partition.rows() != manifest.rows
            || partition.cols() != manifest.cols
            || partition.num_groups() != manifest.groups
        {
            return Err(ShardError::Invalid(
                "shard snapshot shape does not match the manifest".into(),
            ));
        }
        // The Hilbert order is a pure function of the (shared) partition,
        // so the manifest's [start, count) ranges map groups to shards.
        let order = shard_order(&partition);
        let mut group_shard = vec![0u32; manifest.groups];
        for (s, entry) in manifest.shards.iter().enumerate() {
            for &g in &order[entry.start..entry.start + entry.count] {
                group_shard[g as usize] = s as u32;
            }
        }

        let mut fast = FastState { until: None, res, fused: None, fused_src: Vec::new() };
        refresh_fused(&mut fast, config.scatter_only);
        fast.until = Some(Instant::now() + config.revalidate);

        Ok(ShardRouter {
            partition,
            bounds: topo.bounds(),
            attr_names: topo.attr_names().to_vec(),
            num_attrs: topo.num_attrs(),
            group_shard,
            manifest,
            replica_paths,
            active,
            cache,
            theta,
            deadline: config.shard_deadline,
            pool: config.pool,
            revalidate: config.revalidate,
            scatter_only: config.scatter_only,
            fast: Mutex::new(fast),
            m,
        })
    }

    /// The manifest this router serves.
    pub fn manifest(&self) -> &ShardManifest {
        &self.manifest
    }

    /// The shard owning group `g`.
    pub fn shard_of_group(&self, g: u32) -> u32 {
        self.group_shard[g as usize]
    }

    fn pool(&self) -> &Pool {
        match &self.pool {
            Some(pool) => pool,
            None => Pool::global(),
        }
    }

    fn num_shards(&self) -> usize {
        self.manifest.shards.len()
    }

    /// Revalidates every shard under the lock: re-resolves through the
    /// cache (rotating through replicas), charges (re)load time against
    /// the shard deadline, and refreshes the fused view. Returns which
    /// shards blew the deadline *this* pass — their finished loads are
    /// still cached for the next one.
    fn revalidate_locked(&self, fast: &mut FastState) -> Vec<bool> {
        let mut late = vec![false; self.num_shards()];
        for (s, late_s) in late.iter_mut().enumerate() {
            let t0 = Instant::now();
            let served = resolve_rotating(
                &self.cache,
                &self.replica_paths[s],
                &self.active[s],
                self.theta,
                &self.m,
            );
            if served.is_some() {
                if let Some(deadline) = self.deadline {
                    if t0.elapsed() > deadline {
                        *late_s = true;
                        self.m.deadline_misses.inc();
                    }
                }
            }
            fast.res[s] = served;
        }
        refresh_fused(fast, self.scatter_only);
        fast.until = Some(Instant::now() + self.revalidate);
        late
    }

    /// Resolves how this request is served (see [`Route`]).
    fn route(&self) -> Route {
        let mut fast = self.fast.lock().unwrap();
        if fast.until.is_none_or(|until| Instant::now() >= until) {
            let late = self.revalidate_locked(&mut fast);
            if late.iter().any(|&l| l) {
                // Late shards are missing for this request only; the
                // cached state (and fused view) already has their loads.
                return Route::Scatter(
                    fast.res
                        .iter()
                        .zip(&late)
                        .map(|(r, &l)| match r {
                            Some(served) if !l => ShardState::Ready(served.clone()),
                            _ => ShardState::Missing,
                        })
                        .collect(),
                );
            }
        }
        if let Some(engine) = &fast.fused {
            let stale = fast.res.iter().flatten().any(|sv| sv.stale);
            return Route::Fused { engine: engine.clone(), stale };
        }
        Route::Scatter(
            fast.res
                .iter()
                .map(|r| match r {
                    Some(served) => ShardState::Ready(served.clone()),
                    None => ShardState::Missing,
                })
                .collect(),
        )
    }

    /// Per-shard health for `/healthz` and `/stats`: `Some(stale)` for a
    /// loaded shard, `None` for a browned-out one.
    fn shard_view(&self) -> Vec<Option<bool>> {
        let mut fast = self.fast.lock().unwrap();
        if fast.until.is_none_or(|until| Instant::now() >= until) {
            self.revalidate_locked(&mut fast);
        }
        fast.res.iter().map(|r| r.as_ref().map(|sv| sv.stale)).collect()
    }

    /// Squared distance from the query point to shard `s`'s centroid box;
    /// `0` inside, `None` when the shard owns no featured group (it can
    /// never contribute a knn answer). NaN coordinates clamp to `0`, so a
    /// NaN query expands every shard — reproducing the unsharded engine's
    /// deterministic NaN behavior.
    fn shard_mindist2(&self, s: usize, lat: f64, lon: f64) -> Option<f64> {
        let (lat_min, lat_max, lon_min, lon_max) = self.manifest.shards[s].bbox?;
        let axis = |q: f64, lo: f64, hi: f64| {
            if q < lo {
                lo - q
            } else if q > hi {
                q - hi
            } else {
                0.0
            }
        };
        let dy = axis(lat, lat_min, lat_max);
        let dx = axis(lon, lon_min, lon_max);
        Some(dy * dy + dx * dx)
    }
}

/// Shared rotation walk (used both at open-time warmup and at
/// revalidation): tries replicas starting at the sticky active index,
/// advancing it on success through a different replica.
fn resolve_rotating(
    cache: &SnapshotCache,
    paths: &[PathBuf],
    active: &AtomicUsize,
    theta: f64,
    m: &Metrics,
) -> Option<Served> {
    let n = paths.len();
    let start = active.load(Ordering::Relaxed) % n;
    for i in 0..n {
        let idx = (start + i) % n;
        if let Ok(served) = cache.get_serve(&paths[idx], theta) {
            if idx != start {
                active.store(idx, Ordering::Relaxed);
                m.rotations.inc();
            }
            return Some(served);
        }
    }
    m.brownouts.inc();
    None
}

/// Rebuilds the fused view if (and only if) its sources changed: all
/// shards loaded and their engines' `Arc` identities differ from the
/// last build.
fn refresh_fused(fast: &mut FastState, scatter_only: bool) {
    if scatter_only {
        return;
    }
    let engines: Option<Vec<&Arc<QueryEngine>>> =
        fast.res.iter().map(|r| r.as_ref().map(|sv| &sv.engine)).collect();
    let Some(engines) = engines else {
        fast.fused = None;
        fast.fused_src.clear();
        return;
    };
    let src: Vec<usize> = engines.iter().map(|e| Arc::as_ptr(e) as usize).collect();
    if fast.fused.is_some() && src == fast.fused_src {
        return;
    }
    fast.fused = fuse_engines(&engines);
    fast.fused_src = src;
}

/// Fuses the loaded shard engines back into the original unsharded
/// engine. The shard split masks the validity bitmap and feature table
/// by owner and copies everything else verbatim, and ownership
/// partitions both sets exactly — so OR-ing the bitmaps and taking each
/// group's one `Some` feature reconstructs the original snapshot
/// field-for-field. `None` when the loaded snapshots disagree on the
/// partition (mid-redeploy mixed versions): those cannot be fused and
/// the caller stays on the scatter path.
fn fuse_engines(engines: &[&Arc<QueryEngine>]) -> Option<Arc<QueryEngine>> {
    if engines.len() == 1 {
        // A single shard owns everything: its snapshot *is* the original.
        return Some(engines[0].clone());
    }
    let base = engines[0];
    let partition = base.clone_partition();
    let p = base.num_attrs();
    if engines[1..].iter().any(|e| e.num_attrs() != p || e.clone_partition() != partition) {
        return None;
    }
    let mut valid = vec![false; base.num_cells()];
    let mut values = vec![0.0f64; partition.num_groups() * p];
    for e in engines {
        for cell in 0..e.num_cells() as u32 {
            if e.cell_valid(cell) {
                valid[cell as usize] = true;
            }
        }
        for (g, row) in values.chunks_exact_mut(p).enumerate() {
            if let Some(fv) = e.feature(g as u32) {
                row.copy_from_slice(fv);
            }
        }
    }
    let mut counts = vec![0u32; partition.num_groups()];
    for (&g, _) in partition.cell_to_group().iter().zip(&valid).filter(|(_, &v)| v) {
        counts[g as usize] += 1;
    }
    let features = GroupFeatures::from_flat(p, values, counts);
    let snap = Snapshot::from_parts(
        base.theta(),
        base.ifl(),
        base.min_adjacent_variation(),
        base.bounds(),
        base.attr_names().to_vec(),
        base.agg_types().to_vec(),
        base.integer_attrs().to_vec(),
        valid,
        partition,
        features,
        base.clone_adjacency(),
    )
    .ok()?;
    Some(Arc::new(QueryEngine::new(snap)))
}

impl QueryBackend for ShardRouter {
    fn point(&self, lat: f64, lon: f64) -> BackendResult<Option<PointAnswer>> {
        self.m.point_routes.inc();
        let states = match self.route() {
            Route::Fused { engine, stale } => {
                return Ok(BackendAnswer {
                    value: engine.point(lat, lon),
                    stale,
                    missing_shards: Vec::new(),
                });
            }
            Route::Scatter(states) => states,
        };
        let Some((row, col)) =
            self.bounds.locate(lat, lon, self.partition.rows(), self.partition.cols())
        else {
            return Ok(BackendAnswer::fresh(None));
        };
        let cell = (row * self.partition.cols() + col) as u32;
        let s = self.group_shard[self.partition.group_of(cell) as usize] as usize;
        match &states[s] {
            ShardState::Ready(served) => Ok(BackendAnswer {
                value: served.engine.point(lat, lon),
                stale: served.stale,
                missing_shards: Vec::new(),
            }),
            ShardState::Missing => {
                Err(BackendUnavailable(format!("shard {s} unavailable (all replicas failing)")))
            }
        }
    }

    fn window(
        &self,
        lat0: f64,
        lat1: f64,
        lon0: f64,
        lon1: f64,
    ) -> BackendResult<(Vec<String>, WindowAnswer)> {
        self.m.window_routes.inc();
        self.m.fanout.record_ns(self.num_shards() as u64);
        let states = match self.route() {
            Route::Fused { engine, stale } => {
                return Ok(BackendAnswer {
                    value: (self.attr_names.clone(), engine.window(lat0, lat1, lon0, lon1)),
                    stale,
                    missing_shards: Vec::new(),
                });
            }
            Route::Scatter(states) => states,
        };
        let shard_ids: Vec<usize> = (0..self.num_shards()).collect();
        let scatters = self.pool().par_map(&shard_ids, 1, |&s| {
            // Each shard scans exactly its own contiguous slice of the
            // (shared) Hilbert index — the per-shard scans sum to one
            // unsharded scan and return only *owned* groups.
            let entry = &self.manifest.shards[s];
            let (lo, hi) = (entry.start, entry.start + entry.count);
            match &states[s] {
                ShardState::Ready(served) => Some((
                    served.engine.window_scatter_range(lat0, lat1, lon0, lon1, lo, hi),
                    served.stale,
                )),
                ShardState::Missing => None,
            }
        });

        let t0 = Instant::now();
        let mut cells: Option<usize> = None;
        let mut parts: Vec<WindowGroupPart> = Vec::new();
        let mut stale = false;
        let mut missing_shards = Vec::new();
        for (s, result) in scatters.into_iter().enumerate() {
            match result {
                Some((value, shard_stale)) => {
                    // The geometric cell count is shard-invariant.
                    cells.get_or_insert(value.cells);
                    stale |= shard_stale;
                    parts.extend(value.parts);
                }
                None => missing_shards.push(s as u32),
            }
        }
        let Some(cells) = cells else {
            return Err(BackendUnavailable("all shards unavailable".into()));
        };
        // Canonical fold order: ascending group id, exactly as the
        // unsharded engine accumulates.
        parts.sort_unstable_by_key(|part| part.group);
        let answer = WindowAnswer::merge(self.num_attrs, cells, &parts);
        self.m.merge_ns.record(t0.elapsed());
        if !missing_shards.is_empty() {
            self.m.partials.inc();
        }
        Ok(BackendAnswer { value: (self.attr_names.clone(), answer), stale, missing_shards })
    }

    fn knn(&self, lat: f64, lon: f64, k: usize) -> BackendResult<Vec<NearestGroup>> {
        self.m.knn_routes.inc();
        if k == 0 {
            return Ok(BackendAnswer::fresh(Vec::new()));
        }
        let states = match self.route() {
            Route::Fused { engine, stale } => {
                self.m.fanout.record_ns(self.num_shards() as u64);
                return Ok(BackendAnswer {
                    value: engine.knn(lat, lon, k),
                    stale,
                    missing_shards: Vec::new(),
                });
            }
            Route::Scatter(states) => states,
        };
        // Home shard: the one owning the query point's cell (clamped like
        // the engine's own locate — NaN falls back to pure expansion).
        let home: Option<usize> = if lat.is_nan() || lon.is_nan() {
            None
        } else {
            let (row, col) =
                self.bounds.locate_clamped(lat, lon, self.partition.rows(), self.partition.cols());
            let cell = (row * self.partition.cols() + col) as u32;
            Some(self.group_shard[self.partition.group_of(cell) as usize] as usize)
        };

        // Bounded merge state: candidates ascending by (d², gid), at most
        // k long. d² is recomputed from the returned centroid with the
        // engine's exact arithmetic, so merged ordering (ties included)
        // matches the unsharded sort bit-for-bit.
        let mut candidates: Vec<(f64, NearestGroup)> = Vec::new();
        let mut stale = false;
        let mut missing_shards: Vec<u32> = Vec::new();
        let mut queried = vec![false; self.num_shards()];
        let mut fanout = 0u64;

        loop {
            // Next shard: home first, then unqueried shards ascending by
            // (mindist² to centroid box, shard id). Shards without
            // featured groups can never contribute and are skipped.
            let next = match home.filter(|&h| !queried[h]) {
                Some(h) => Some((self.shard_mindist2(h, lat, lon).unwrap_or(0.0), h)),
                None => (0..self.num_shards())
                    .filter(|&s| !queried[s])
                    .filter_map(|s| self.shard_mindist2(s, lat, lon).map(|d2| (d2, s)))
                    .min_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1))),
            };
            let Some((mindist2, s)) = next else { break };
            // Admissibility: the kth distance can still be beaten (or
            // tied — ties re-rank by group id) by a group of this shard
            // only if the centroid-box lower bound does not exceed it.
            if candidates.len() >= k {
                let kth = candidates[k - 1].0;
                if mindist2.total_cmp(&kth) == std::cmp::Ordering::Greater {
                    break;
                }
            }
            queried[s] = true;
            fanout += 1;
            if home != Some(s) {
                self.m.expansions.inc();
            }
            match &states[s] {
                ShardState::Missing => missing_shards.push(s as u32),
                ShardState::Ready(served) => {
                    // The shard searches only its own slice of the shared
                    // curve order — a tree of its own size.
                    let entry = &self.manifest.shards[s];
                    let value = served.engine.knn_range(
                        lat,
                        lon,
                        k,
                        entry.start,
                        entry.start + entry.count,
                    );
                    stale |= served.stale;
                    let t0 = Instant::now();
                    for nb in value {
                        let d2 = (nb.lat - lat) * (nb.lat - lat) + (nb.lon - lon) * (nb.lon - lon);
                        candidates.push((d2, nb));
                    }
                    candidates.sort_by(|a, b| {
                        a.0.total_cmp(&b.0).then_with(|| a.1.group.cmp(&b.1.group))
                    });
                    candidates.truncate(k);
                    self.m.merge_ns.record(t0.elapsed());
                }
            }
        }
        self.m.fanout.record_ns(fanout);
        if !missing_shards.is_empty() {
            self.m.partials.inc();
            missing_shards.sort_unstable();
        }
        // A knn query that reached no shard at all (every candidate shard
        // browned out) cannot answer; an empty grid of featured groups
        // (no shard has a bbox) legitimately answers with nothing.
        if candidates.is_empty() && !missing_shards.is_empty() {
            return Err(BackendUnavailable("all candidate shards unavailable".into()));
        }
        Ok(BackendAnswer {
            value: candidates.into_iter().map(|(_, nb)| nb).collect(),
            stale,
            missing_shards,
        })
    }

    fn stats_fields(&self) -> BackendResult<String> {
        let view = self.shard_view();
        let healthy = view.iter().filter(|v| v.is_some()).count();
        let stale = view.iter().flatten().any(|&s| s);
        let missing_shards: Vec<u32> =
            view.iter().enumerate().filter(|(_, v)| v.is_none()).map(|(s, _)| s as u32).collect();
        let m = &self.manifest;
        let names: Vec<String> = self.attr_names.iter().map(|n| json_string(n)).collect();
        let fields = format!(
            "\"rows\":{},\"cols\":{},\"cells\":{},\"valid_cells\":{},\"groups\":{},\
             \"valid_groups\":{},\"attrs\":{},\"attr_names\":[{}],\"theta\":{},\"ifl\":{},\
             \"cell_reduction\":{},\"shards\":{{\"healthy\":{healthy},\"browned_out\":{}}}",
            m.rows,
            m.cols,
            m.cells,
            m.valid_cells,
            m.groups,
            m.valid_groups,
            m.attrs,
            names.join(","),
            json_f64(m.theta),
            json_f64(m.ifl),
            json_f64(1.0 - m.groups as f64 / m.cells as f64),
            missing_shards.len(),
        );
        Ok(BackendAnswer { value: fields, stale, missing_shards })
    }

    fn health(&self) -> String {
        let view = self.shard_view();
        let mut states = Vec::with_capacity(self.num_shards());
        let mut any_stale = false;
        let mut any_browned = false;
        for (s, shard) in view.iter().enumerate() {
            let state = match shard {
                Some(true) => {
                    any_stale = true;
                    "stale"
                }
                Some(false) => "healthy",
                None => {
                    any_browned = true;
                    "browned_out"
                }
            };
            states.push(format!(
                "{{\"id\":{s},\"state\":\"{state}\",\"replicas\":{},\"active_replica\":{}}}",
                self.manifest.replicas,
                self.active[s].load(Ordering::Relaxed),
            ));
        }
        let status = if any_browned {
            "degraded"
        } else if any_stale {
            "stale"
        } else {
            "ok"
        };
        format!("{{\"status\":\"{status}\",\"shards\":[{}]}}", states.join(","))
    }

    fn snapshot_shape(&self) -> Option<(usize, usize)> {
        Some((self.manifest.cells, self.manifest.groups))
    }
}

/// JSON number for an `f64` (non-finite → `null`), matching the HTTP
/// layer's rendering so `/stats` fields agree across backends.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split::{write_shards, SplitOptions};
    use sr_core::repartition;
    use sr_grid::GridDataset;

    fn full_snapshot() -> Snapshot {
        let vals: Vec<f64> =
            (0..196).map(|i| 20.0 + (i / 14) as f64 * 0.5 + (i % 14) as f64 * 0.2).collect();
        let mut grid = GridDataset::univariate(14, 14, vals).unwrap();
        grid.set_null(3);
        grid.set_null(77);
        let out = repartition(&grid, 0.05).unwrap();
        Snapshot::build(&out.repartitioned, &grid, 0.05).unwrap()
    }

    fn shard_dir(tag: &str, snap: &Snapshot, shards: usize, replicas: usize) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sr_router_{}_{tag}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        write_shards(snap, &dir, &SplitOptions { shards, replicas }, Pool::global()).unwrap();
        dir
    }

    #[test]
    fn sharded_answers_match_unsharded() {
        let snap = full_snapshot();
        let engine = QueryEngine::new(snap.clone());
        let dir = shard_dir("match", &snap, 4, 1);
        // Both serve paths must agree with the unsharded engine: the
        // fused fast path (default) and true scatter-gather.
        for scatter_only in [false, true] {
            let config = RouterConfig { scatter_only, ..RouterConfig::default() };
            let router = ShardRouter::open(dir.join("manifest.txt"), config).unwrap();

            for (lat, lon) in [(0.05, 0.05), (0.5, 0.5), (0.93, 0.21), (2.0, 2.0)] {
                let got = router.point(lat, lon).unwrap();
                assert_eq!(got.value, engine.point(lat, lon), "point ({lat},{lon})");
                assert!(!got.stale && got.missing_shards.is_empty());
            }
            for rect in [(0.0, 1.0, 0.0, 1.0), (0.2, 0.6, 0.3, 0.9), (0.48, 0.52, 0.48, 0.52)] {
                let got = router.window(rect.0, rect.1, rect.2, rect.3).unwrap();
                let want = engine.window(rect.0, rect.1, rect.2, rect.3);
                assert_eq!(got.value.1, want, "window {rect:?} scatter_only={scatter_only}");
            }
            for k in [1usize, 3, 9, 500] {
                let got = router.knn(0.31, 0.74, k).unwrap();
                assert_eq!(got.value, engine.knn(0.31, 0.74, k), "knn k={k}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dead_replica_rotates_and_keeps_serving() {
        let snap = full_snapshot();
        let engine = QueryEngine::new(snap.clone());
        let dir = shard_dir("rotate", &snap, 3, 2);
        // Kill replica 0 of shard 1 before the router ever sees it.
        std::fs::remove_file(dir.join("shard1_r0.snap")).unwrap();
        let registry = Registry::new();
        let config = RouterConfig { registry: registry.clone(), ..RouterConfig::default() };
        let router = ShardRouter::open(dir.join("manifest.txt"), config).unwrap();

        let got = router.window(0.0, 1.0, 0.0, 1.0).unwrap();
        assert_eq!(got.value.1, engine.window(0.0, 1.0, 0.0, 1.0));
        assert!(got.missing_shards.is_empty(), "replica 1 covers for replica 0");
        let text = registry.render_text();
        assert!(text.contains("counter shard.replica_rotations_total 1"), "{text}");
        assert!(text.contains("counter shard.brownouts_total 0"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn browned_out_shard_degrades_not_blackouts() {
        let snap = full_snapshot();
        let engine = QueryEngine::new(snap.clone());
        let dir = shard_dir("brownout", &snap, 3, 1);
        let registry = Registry::new();
        // Use a 1-attempt policy so the dead shard fails fast.
        let config = RouterConfig {
            registry: registry.clone(),
            reload: ReloadPolicy { attempts: 1, ..ReloadPolicy::default() },
            ..RouterConfig::default()
        };
        let manifest = load_manifest(dir.join("manifest.txt")).unwrap();
        // Kill every replica of shard 0 *before* open: it never loads, so
        // there is no cached entry to serve stale from.
        for path in manifest.replica_paths(&dir, 0) {
            std::fs::remove_file(path).unwrap();
        }
        let router = ShardRouter::open(dir.join("manifest.txt"), config).unwrap();

        // Window: partial answer naming the dead shard.
        let got = router.window(0.0, 1.0, 0.0, 1.0).unwrap();
        assert_eq!(got.missing_shards, vec![0]);
        let want = engine.window(0.0, 1.0, 0.0, 1.0);
        assert!(got.value.1.groups < want.groups, "shard 0's groups are missing");

        // Point: a cell owned by shard 0 fails fast, others serve.
        let order = shard_order(snap.partition());
        let dead_group = order[manifest.shards[0].start];
        let live_group = order[manifest.shards[1].start];
        let rect = snap.partition().rect(dead_group);
        let bounds = snap.bounds();
        let lat_step = (bounds.lat_max - bounds.lat_min) / snap.rows() as f64;
        let lon_step = (bounds.lon_max - bounds.lon_min) / snap.cols() as f64;
        let centroid = |g: u32| {
            let rect = snap.partition().rect(g);
            (
                bounds.lat_min + (rect.r0 + rect.r1 + 1) as f64 / 2.0 * lat_step,
                bounds.lon_min + (rect.c0 + rect.c1 + 1) as f64 / 2.0 * lon_step,
            )
        };
        let (dead_lat, dead_lon) = centroid(dead_group);
        assert!(router.point(dead_lat, dead_lon).is_err(), "rect {rect:?} is browned out");
        let (live_lat, live_lon) = centroid(live_group);
        assert_eq!(
            router.point(live_lat, live_lon).unwrap().value,
            engine.point(live_lat, live_lon)
        );

        // knn: still answers (from the live shards), reporting shard 0.
        let got = router.knn(0.5, 0.5, 1000).unwrap();
        assert_eq!(got.missing_shards, vec![0]);
        assert!(!got.value.is_empty());

        // Health: the dead shard reads browned_out, the server-side view
        // stays available.
        let health = router.health();
        assert!(health.contains("\"status\":\"degraded\""), "{health}");
        assert!(health.contains("\"id\":0,\"state\":\"browned_out\""), "{health}");
        let stats = router.stats_fields().unwrap();
        assert!(stats.value.contains("\"shards\":{\"healthy\":2,\"browned_out\":1}"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn knn_expansion_stays_boundary_correct() {
        // Query right at a shard boundary with a k big enough that the
        // kth neighbor must come from another shard — the expansion rule
        // has to re-query neighbors rather than stopping at the home
        // shard's local top-k. scatter_only keeps the fused fast path
        // from short-circuiting the expansion logic under test.
        let snap = full_snapshot();
        let engine = QueryEngine::new(snap.clone());
        let dir = shard_dir("expand", &snap, 5, 1);
        let config = RouterConfig { scatter_only: true, ..RouterConfig::default() };
        let router = ShardRouter::open(dir.join("manifest.txt"), config).unwrap();
        for k in [2usize, 7, 20] {
            for (lat, lon) in [(0.0, 1.0), (0.5, 0.0), (1.0, 0.5), (0.26, 0.49)] {
                let got = router.knn(lat, lon, k).unwrap();
                assert_eq!(got.value, engine.knn(lat, lon, k), "k={k} at ({lat},{lon})");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fused_view_is_rebuilt_after_reload() {
        // Rewriting a shard file (new mtime, same content) forces a
        // reload at the next revalidation; the fused view must follow the
        // new engine instead of serving the old sources forever.
        let snap = full_snapshot();
        let engine = QueryEngine::new(snap.clone());
        let dir = shard_dir("refresh", &snap, 3, 1);
        let config =
            RouterConfig { revalidate: Duration::from_millis(0), ..RouterConfig::default() };
        let router = ShardRouter::open(dir.join("manifest.txt"), config).unwrap();
        assert_eq!(
            router.window(0.0, 1.0, 0.0, 1.0).unwrap().value.1,
            engine.window(0.0, 1.0, 0.0, 1.0)
        );

        std::thread::sleep(Duration::from_millis(30)); // separate mtimes
        let path = dir.join("shard0_r0.snap");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes).unwrap();
        let got = router.window(0.0, 1.0, 0.0, 1.0).unwrap();
        assert_eq!(got.value.1, engine.window(0.0, 1.0, 0.0, 1.0));
        assert!(got.missing_shards.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
