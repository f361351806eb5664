//! An LRU cache of loaded snapshots, with stale-serving degradation.
//!
//! Serving processes typically host several snapshots (different grids,
//! different loss budgets `θ`) but have memory for only a few decoded
//! [`QueryEngine`]s at a time. The cache is keyed by `(path, θ)` — the
//! same file requested at a different budget is a different logical
//! snapshot — and evicts the least recently used entry once `capacity`
//! is exceeded. Engines are handed out as `Arc`s, so an eviction never
//! invalidates in-flight queries. Loads go through
//! [`crate::load_engine_with`], so either snapshot format serves: v1
//! files are transcoded at load, v2 files validate in place, and one
//! borrowed form serves every query. For v2 files a cache miss or
//! reload is a section-validation pass instead of a full decode +
//! engine build.
//!
//! ## Reload and degradation
//!
//! [`SnapshotCache::get_serve`] is the serving-path lookup: it
//! fingerprints the file (mtime + length) on every call, reloads when the
//! file changed, and — crucially — **keeps the last good entry resident
//! when a reload fails**, returning it marked [`Served::stale`] instead
//! of surfacing the error. Reload attempts retry under a seeded
//! decorrelated-jitter [`Backoff`] (hermetic, `docs/ROBUSTNESS.md` has
//! the parameters), and the load path can be subjected to a
//! [`FaultPlan`] for tests and demos. The plain
//! [`SnapshotCache::get_or_load`] skips the fingerprint check (one
//! `stat` per call) for embedding use.
//!
//! Hit/miss/eviction/reload accounting is kept in [`sr_obs`] counters. A
//! cache built with [`SnapshotCache::new`] uses private counters (exact
//! counts per instance); [`SnapshotCache::with_registry`] binds them to
//! `serve.cache.{hits,misses,evictions,reloads}_total` and
//! `stale.{serves,reload_failures}_total` in a [`Registry`] so the
//! `/metrics` and `/stats` endpoints read the very same cells as the
//! accessors here — the two can never disagree.

use crate::query::QueryEngine;
use crate::v2::load_engine_with;
use crate::Result;
use sr_fault::{Backoff, FaultPlan};
use sr_obs::{Counter, Registry};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, SystemTime};

/// Cache key: canonical path plus the raw bits of `θ` (bit-equality keeps
/// the key `Eq + Hash` without floating-point surprises).
type Key = (PathBuf, u64);

/// Change-detection fingerprint: modification time and length. Either
/// changing (a rewrite always changes mtime; a torn overwrite virtually
/// always changes length) triggers a reload; an unreadable fingerprint
/// (file deleted) reads as "changed" so the reload path decides.
type Fingerprint = (SystemTime, u64);

fn fingerprint(path: &Path) -> Option<Fingerprint> {
    let meta = std::fs::metadata(path).ok()?;
    Some((meta.modified().ok()?, meta.len()))
}

#[derive(Debug, Clone)]
struct Entry {
    engine: Arc<QueryEngine>,
    fingerprint: Option<Fingerprint>,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<Key, Entry>,
    /// Keys in recency order: front = least recently used.
    order: VecDeque<Key>,
}

/// Retry parameters for the reload path: up to `attempts` loads per
/// [`SnapshotCache::get_serve`] call, sleeping a [`Backoff`] delay
/// between consecutive failures.
#[derive(Debug, Clone)]
pub struct ReloadPolicy {
    /// Load attempts per reload (minimum 1).
    pub attempts: u32,
    /// First backoff delay (decorrelated jitter grows from here).
    pub base: Duration,
    /// Backoff delay cap.
    pub cap: Duration,
    /// Seed for the jitter PRNG (hermetic: a fixed seed replays the same
    /// delay schedule).
    pub seed: u64,
}

impl Default for ReloadPolicy {
    fn default() -> Self {
        ReloadPolicy {
            attempts: 3,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(20),
            seed: 0x5eed,
        }
    }
}

/// What [`SnapshotCache::get_serve`] hands back: an engine, plus whether
/// it is a stale last-good snapshot served because a reload failed.
#[derive(Debug, Clone)]
pub struct Served {
    /// The engine to answer from (stays usable after eviction).
    pub engine: Arc<QueryEngine>,
    /// `true` when the file on disk changed (or vanished) but could not
    /// be reloaded, so this is the previous good snapshot. The HTTP layer
    /// surfaces this as the `X-SR-Stale: 1` response header.
    pub stale: bool,
}

/// A thread-safe LRU cache of decoded snapshots.
#[derive(Debug)]
pub struct SnapshotCache {
    capacity: usize,
    inner: Mutex<Inner>,
    fault_plan: Option<FaultPlan>,
    reload: ReloadPolicy,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    reloads: Counter,
    stale_serves: Counter,
    reload_failures: Counter,
}

impl SnapshotCache {
    /// A cache holding at most `capacity` engines (minimum 1), with
    /// private (unregistered) counters.
    pub fn new(capacity: usize) -> Self {
        SnapshotCache {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner::default()),
            fault_plan: None,
            reload: ReloadPolicy::default(),
            hits: Counter::new(),
            misses: Counter::new(),
            evictions: Counter::new(),
            reloads: Counter::new(),
            stale_serves: Counter::new(),
            reload_failures: Counter::new(),
        }
    }

    /// Like [`SnapshotCache::new`], but accounting through
    /// `serve.cache.{hits,misses,evictions,reloads}_total` and
    /// `stale.{serves,reload_failures}_total` in `registry`, so the
    /// counts also show up in that registry's renderings.
    pub fn with_registry(capacity: usize, registry: &Registry) -> Self {
        SnapshotCache {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner::default()),
            fault_plan: None,
            reload: ReloadPolicy::default(),
            hits: registry.counter("serve.cache.hits_total"),
            misses: registry.counter("serve.cache.misses_total"),
            evictions: registry.counter("serve.cache.evictions_total"),
            reloads: registry.counter("serve.cache.reloads_total"),
            stale_serves: registry.counter("stale.serves_total"),
            reload_failures: registry.counter("stale.reload_failures_total"),
        }
    }

    /// Subjects every snapshot load this cache performs to `plan`
    /// (injected read errors / latency / premature EOF — see
    /// [`sr_fault`]).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Overrides the reload retry/backoff parameters.
    pub fn with_reload_policy(mut self, policy: ReloadPolicy) -> Self {
        self.reload = ReloadPolicy { attempts: policy.attempts.max(1), ..policy };
        self
    }

    /// One load with the policy's retries and backoff sleeps.
    fn load_with_retry(&self, path: &Path) -> Result<Arc<QueryEngine>> {
        let mut backoff = Backoff::new(self.reload.base, self.reload.cap, self.reload.seed);
        let mut attempt = 0;
        loop {
            attempt += 1;
            match load_engine_with(path, self.fault_plan.as_ref()) {
                Ok(engine) => return Ok(Arc::new(engine)),
                Err(e) if attempt >= self.reload.attempts.max(1) => return Err(e),
                Err(_) => std::thread::sleep(backoff.next_delay()),
            }
        }
    }

    /// Inserts `entry` under `key`, updating recency and evicting LRU
    /// entries past capacity.
    fn insert(&self, key: Key, entry: Entry) {
        let mut inner = self.inner.lock().expect("cache poisoned");
        if inner.map.insert(key.clone(), entry).is_none() {
            inner.order.push_back(key);
        } else {
            touch(&mut inner.order, &key);
        }
        while inner.map.len() > self.capacity {
            if let Some(oldest) = inner.order.pop_front() {
                inner.map.remove(&oldest);
                self.evictions.inc();
            }
        }
    }

    /// Returns the engine for `(path, theta)`, loading and decoding the
    /// snapshot file on a miss. The returned `Arc` stays usable after the
    /// entry is evicted. Does **not** check whether the file changed since
    /// it was cached — that is [`SnapshotCache::get_serve`]'s job.
    pub fn get_or_load(&self, path: impl AsRef<Path>, theta: f64) -> Result<Arc<QueryEngine>> {
        let path = path.as_ref();
        let key: Key = (path.to_path_buf(), theta.to_bits());
        {
            let mut inner = self.inner.lock().expect("cache poisoned");
            if let Some(entry) = inner.map.get(&key).cloned() {
                self.hits.inc();
                touch(&mut inner.order, &key);
                return Ok(entry.engine);
            }
        }
        // Load outside the lock: decoding a snapshot is the slow part and
        // must not serialize unrelated lookups. A racing load of the same
        // key is harmless — last writer wins, both callers get a valid
        // engine. The fingerprint is taken *before* the read, so a write
        // racing the load re-triggers a reload on the next get_serve.
        self.misses.inc();
        let fp = fingerprint(path);
        let engine = self.load_with_retry(path)?;
        self.insert(key, Entry { engine: engine.clone(), fingerprint: fp });
        Ok(engine)
    }

    /// The serving-path lookup: like [`SnapshotCache::get_or_load`] but
    /// change-aware and degradation-aware. Fingerprints the file on every
    /// call; when it changed, attempts a reload (with retry/backoff), and
    /// when the reload fails **keeps the last good entry resident** and
    /// returns it with [`Served::stale`] set. Only a miss with no prior
    /// entry propagates the load error.
    pub fn get_serve(&self, path: impl AsRef<Path>, theta: f64) -> Result<Served> {
        let path = path.as_ref();
        let key: Key = (path.to_path_buf(), theta.to_bits());
        let current_fp = fingerprint(path);
        let prior = {
            let mut inner = self.inner.lock().expect("cache poisoned");
            match inner.map.get(&key).cloned() {
                Some(entry) if entry.fingerprint == current_fp && current_fp.is_some() => {
                    self.hits.inc();
                    touch(&mut inner.order, &key);
                    return Ok(Served { engine: entry.engine, stale: false });
                }
                prior => prior,
            }
        };
        // Changed (or never seen): reload outside the lock.
        match self.load_with_retry(path) {
            Ok(engine) => {
                if prior.is_some() {
                    self.reloads.inc();
                } else {
                    self.misses.inc();
                }
                self.insert(key, Entry { engine: engine.clone(), fingerprint: current_fp });
                Ok(Served { engine, stale: false })
            }
            Err(e) => {
                self.reload_failures.inc();
                match prior {
                    // Degrade: the bug this guards against is evicting the
                    // last good snapshot just because its replacement is
                    // corrupt — the entry stays resident and serves.
                    Some(entry) => {
                        self.stale_serves.inc();
                        Ok(Served { engine: entry.engine, stale: true })
                    }
                    None => Err(e),
                }
            }
        }
    }

    /// Whether `(path, theta)` is currently cached (does not touch
    /// recency).
    pub fn contains(&self, path: impl AsRef<Path>, theta: f64) -> bool {
        let key: Key = (path.as_ref().to_path_buf(), theta.to_bits());
        self.inner.lock().expect("cache poisoned").map.contains_key(&key)
    }

    /// Number of cached engines.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("cache poisoned").map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Cache misses (initial loads) so far.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Evictions so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.get()
    }

    /// Successful reloads (file changed, new snapshot decoded) so far.
    pub fn reloads(&self) -> u64 {
        self.reloads.get()
    }

    /// Stale serves so far (reload failed, last good entry returned).
    pub fn stale_serves(&self) -> u64 {
        self.stale_serves.get()
    }

    /// Failed reload attempts (after retries) so far.
    pub fn reload_failures(&self) -> u64 {
        self.reload_failures.get()
    }
}

/// Moves `key` to the most-recently-used end of `order`.
fn touch(order: &mut VecDeque<Key>, key: &Key) {
    if let Some(pos) = order.iter().position(|k| k == key) {
        let k = order.remove(pos).expect("position just found");
        order.push_back(k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{save_snapshot, Snapshot};
    use sr_core::repartition;
    use sr_grid::GridDataset;

    /// Writes `n` distinct snapshot files into a fresh temp directory.
    fn snapshot_files(n: usize, tag: &str) -> (PathBuf, Vec<PathBuf>) {
        let dir = std::env::temp_dir().join(format!("sr_cache_test_{}_{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut paths = Vec::new();
        for i in 0..n {
            let vals: Vec<f64> = (0..36).map(|j| 10.0 + i as f64 + (j / 6) as f64 * 0.1).collect();
            let grid = GridDataset::univariate(6, 6, vals).unwrap();
            let out = repartition(&grid, 0.05).unwrap();
            let snap = Snapshot::build(&out.repartitioned, &grid, 0.05).unwrap();
            let path = dir.join(format!("snap_{i}.snap"));
            save_snapshot(&snap, &path).unwrap();
            paths.push(path);
        }
        (dir, paths)
    }

    #[test]
    fn hit_and_miss_accounting() {
        let (dir, paths) = snapshot_files(1, "hits");
        let cache = SnapshotCache::new(2);
        let a = cache.get_or_load(&paths[0], 0.05).unwrap();
        let b = cache.get_or_load(&paths[0], 0.05).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        // Same file, different θ: a distinct logical snapshot.
        cache.get_or_load(&paths[0], 0.10).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
        assert_eq!(cache.len(), 2);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn registry_backed_counters_render() {
        let (dir, paths) = snapshot_files(1, "reg");
        let registry = Registry::new();
        let cache = SnapshotCache::with_registry(2, &registry);
        cache.get_or_load(&paths[0], 0.05).unwrap();
        cache.get_or_load(&paths[0], 0.05).unwrap();
        let text = registry.render_text();
        assert!(text.contains("counter serve.cache.hits_total 1"), "{text}");
        assert!(text.contains("counter serve.cache.misses_total 1"), "{text}");
        assert!(text.contains("counter serve.cache.evictions_total 0"), "{text}");
        assert!(text.contains("counter stale.serves_total 0"), "{text}");
        // The accessors read the same cells the registry renders.
        assert_eq!((cache.hits(), cache.misses(), cache.evictions()), (1, 1, 0));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn evicts_least_recently_used() {
        let (dir, paths) = snapshot_files(3, "lru");
        let cache = SnapshotCache::new(2);
        cache.get_or_load(&paths[0], 0.05).unwrap();
        cache.get_or_load(&paths[1], 0.05).unwrap();
        // Touch 0 so 1 becomes the LRU entry.
        cache.get_or_load(&paths[0], 0.05).unwrap();
        cache.get_or_load(&paths[2], 0.05).unwrap();
        assert_eq!(cache.len(), 2);
        assert!(cache.contains(&paths[0], 0.05), "recently touched entry survived");
        assert!(!cache.contains(&paths[1], 0.05), "LRU entry evicted");
        assert!(cache.contains(&paths[2], 0.05));
        assert_eq!(cache.evictions(), 1);
        // The evicted entry reloads on demand.
        cache.get_or_load(&paths[1], 0.05).unwrap();
        assert!(!cache.contains(&paths[0], 0.05), "0 was LRU after 2's insert");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn evicted_engines_stay_usable() {
        let (dir, paths) = snapshot_files(2, "arc");
        let cache = SnapshotCache::new(1);
        let engine = cache.get_or_load(&paths[0], 0.05).unwrap();
        cache.get_or_load(&paths[1], 0.05).unwrap();
        assert!(!cache.contains(&paths[0], 0.05));
        // The Arc handed out before eviction still answers queries.
        assert!(engine.stats().groups > 0);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn missing_file_is_an_error() {
        let cache = SnapshotCache::new(1);
        assert!(cache.get_or_load("/nonexistent/path.snap", 0.05).is_err());
        assert!(cache.get_serve("/nonexistent/path.snap", 0.05).is_err());
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn capacity_zero_clamps_to_one() {
        let (dir, paths) = snapshot_files(1, "cap0");
        let cache = SnapshotCache::new(0);
        cache.get_or_load(&paths[0], 0.05).unwrap();
        assert_eq!(cache.len(), 1);
        std::fs::remove_dir_all(dir).ok();
    }

    /// Regression test for the PR-1 bug this layer's degradation story
    /// builds on: a failed reload must not evict the last good entry —
    /// the cache keeps serving the prior snapshot, marked stale.
    #[test]
    fn failed_reload_keeps_last_good_entry_and_serves_stale() {
        let (dir, paths) = snapshot_files(1, "stale");
        let cache = SnapshotCache::new(2);
        let first = cache.get_serve(&paths[0], 0.05).unwrap();
        assert!(!first.stale);
        assert_eq!(cache.len(), 1);

        // Simulate a torn overwrite: the file now fails to parse.
        std::fs::write(&paths[0], b"definitely not an sr-snap file").unwrap();
        let degraded = cache.get_serve(&paths[0], 0.05).unwrap();
        assert!(degraded.stale, "corrupt replacement must serve stale");
        assert!(Arc::ptr_eq(&degraded.engine, &first.engine), "serves the last good engine");
        assert_eq!(cache.len(), 1, "entry must stay resident");
        assert_eq!(cache.stale_serves(), 1);
        assert_eq!(cache.reload_failures(), 1);

        // File deleted entirely: still degrades to the last good engine.
        std::fs::remove_file(&paths[0]).unwrap();
        let gone = cache.get_serve(&paths[0], 0.05).unwrap();
        assert!(gone.stale);
        assert!(Arc::ptr_eq(&gone.engine, &first.engine));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn successful_reload_replaces_the_entry() {
        let (dir, paths) = snapshot_files(2, "reload");
        let cache = SnapshotCache::new(2);
        let first = cache.get_serve(&paths[0], 0.05).unwrap();
        // Replace the file with a different valid snapshot (atomic save
        // bumps mtime and, here, the length too).
        std::fs::copy(&paths[1], &paths[0]).unwrap();
        let second = cache.get_serve(&paths[0], 0.05).unwrap();
        assert!(!second.stale);
        assert!(!Arc::ptr_eq(&second.engine, &first.engine), "reload decodes the new file");
        assert_eq!(cache.reloads(), 1);
        // Unchanged since the reload: plain hit.
        let third = cache.get_serve(&paths[0], 0.05).unwrap();
        assert!(Arc::ptr_eq(&third.engine, &second.engine));
        assert_eq!(cache.hits(), 1);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn fault_plan_errors_retry_then_degrade() {
        let (dir, paths) = snapshot_files(1, "fault");
        let registry = Registry::new();
        // First get_serve loads clean (rate 0 via a disabled plan would
        // consume nothing); then swap in an always-failing plan by
        // rebuilding the cache around the same registry.
        let clean = SnapshotCache::with_registry(2, &registry);
        clean.get_serve(&paths[0], 0.05).unwrap();

        let plan = FaultPlan::parse("read.error_rate = 1.0\n", &registry).unwrap();
        let faulty = SnapshotCache::with_registry(2, &registry)
            .with_fault_plan(plan.clone())
            .with_reload_policy(ReloadPolicy {
                attempts: 3,
                base: Duration::from_micros(100),
                cap: Duration::from_millis(1),
                seed: 1,
            });
        // No prior entry in this cache: the error propagates, after the
        // policy's 3 attempts (each consuming one injected error).
        assert!(faulty.get_serve(&paths[0], 0.05).is_err());
        assert_eq!(plan.injected_errors(), 3, "retry policy drives 3 attempts");
        assert_eq!(faulty.reload_failures(), 1);
        std::fs::remove_dir_all(dir).ok();
    }
}
