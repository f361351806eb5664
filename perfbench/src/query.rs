//! `query_mix`: read-only serving. One 100k-cell v2 snapshot, produced by
//! the `batch_publish` pipeline on a fixed dataset seed, is served by
//! `serve_cached` on loopback. A closed loop of `nproc` client threads
//! (one request per connection, the server's model) sends 80% `/point`,
//! 15% `/knn?k=8` and 5% `/window` over about 1% of the area, at seeded
//! locations uniform inside the snapshot's own bounds: the taxi grids use
//! NYC bounds, and unit-square queries would all be cheap misses.
//! Clients that fetch ML features wait for each answer, hence the closed
//! loop; sr-serve's HTTP layer, query engine, v2 index and per-request
//! cache fingerprint do all the work while sr-core is idle.

use crate::http::{self, Json};
use crate::report::{overhead_pct, Report, RunConfig};
use crate::trace::{Fold, Tracer};
use crate::util::{median, nproc, quantile, timed, us, Rng, RunDir};
use sr_grid::Bounds;
use sr_obs::{span, Registry};
use sr_serve::{load_engine, serve_cached, QueryEngine, ServerConfig, ServerHandle, SnapshotCache};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The dataset seed of the served snapshot; the workload seed only moves
/// the query locations.
const SNAPSHOT_SEED: u64 = 1;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Closed-loop warm-up before the measured phase (the first seconds of a
/// fresh server run slower).
const WARMUP_S: f64 = 3.0;
/// Queries generated per client, cycled.
const QUERIES_PER_CLIENT: usize = 20_000;
/// One response in this many is kept and checked against the engine, up
/// to `KEEP_MAX` per client and phase.
const SAMPLE_EVERY: usize = 61;
const KEEP_MAX: usize = 1000;
/// Latencies sampled per client and second.
const PER_SECOND_SAMPLE: usize = 2048;
const KNN_K: usize = 8;
const ROOT: &str = "bench.query.request";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Point,
    Knn,
    Window,
}

/// One generated request: its kind, coordinates and request target.
#[derive(Debug, Clone)]
pub struct Query {
    pub kind: Kind,
    /// `[lat, lon]` for point and knn; `[lat0, lat1, lon0, lon1]` for a
    /// window.
    pub coords: [f64; 4],
    pub target: String,
}

impl Query {
    pub fn point(lat: f64, lon: f64) -> Query {
        Query {
            kind: Kind::Point,
            coords: [lat, lon, 0.0, 0.0],
            target: format!("/point?lat={lat}&lon={lon}"),
        }
    }

    fn knn(lat: f64, lon: f64) -> Query {
        Query {
            kind: Kind::Knn,
            coords: [lat, lon, 0.0, 0.0],
            target: format!("/knn?lat={lat}&lon={lon}&k={KNN_K}"),
        }
    }

    fn window(lat0: f64, lat1: f64, lon0: f64, lon1: f64) -> Query {
        Query {
            kind: Kind::Window,
            coords: [lat0, lat1, lon0, lon1],
            target: format!("/window?lat0={lat0}&lat1={lat1}&lon0={lon0}&lon1={lon1}"),
        }
    }

    /// A seeded query uniform inside `b`; `shares` are the point and knn
    /// shares, the rest are windows covering 1% of the area.
    pub fn random(rng: &mut Rng, b: &Bounds, shares: [f64; 2]) -> Query {
        let (h, w) = (b.lat_max - b.lat_min, b.lon_max - b.lon_min);
        let u = rng.frac();
        if u < shares[0] + shares[1] {
            let lat = b.lat_min + h * rng.frac();
            let lon = b.lon_min + w * rng.frac();
            if u < shares[0] {
                Query::point(lat, lon)
            } else {
                Query::knn(lat, lon)
            }
        } else {
            let lat0 = b.lat_min + 0.9 * h * rng.frac();
            let lon0 = b.lon_min + 0.9 * w * rng.frac();
            Query::window(lat0, lat0 + 0.1 * h, lon0, lon0 + 0.1 * w)
        }
    }

    /// Whether `body` is exactly the engine's answer to this query.
    pub fn matches(&self, engine: &QueryEngine, body: &str) -> bool {
        let Some(json) = Json::parse(body) else { return false };
        let [a, b, c, d] = self.coords;
        match self.kind {
            Kind::Point => match engine.point(a, b) {
                None => json.get("inside") == Some(&Json::Bool(false)),
                Some(p) => {
                    let num = |k: &str| json.get(k).and_then(Json::num);
                    let values_ok = match (&p.values, json.get("values")) {
                        (None, Some(Json::Null)) => true,
                        (Some(v), Some(j)) => {
                            j.nums().is_some_and(|got| http::same_values(&got, v))
                        }
                        _ => false,
                    };
                    json.get("inside") == Some(&Json::Bool(true))
                        && num("row") == Some(p.row as f64)
                        && num("col") == Some(p.col as f64)
                        && num("cell") == Some(p.cell as f64)
                        && num("group") == Some(p.group as f64)
                        && values_ok
                }
            },
            Kind::Knn => {
                let want = engine.knn(a, b, KNN_K);
                let Some(got) = json.get("neighbors").and_then(Json::arr) else { return false };
                got.len() == want.len()
                    && got.iter().zip(&want).all(|(g, w)| {
                        let num = |k: &str| g.get(k).and_then(Json::num).unwrap_or(f64::NAN);
                        num("group") == w.group as f64
                            && http::same_values(
                                &[num("lat"), num("lon"), num("distance")],
                                &[w.lat, w.lon, w.distance],
                            )
                            && g.get("values")
                                .and_then(Json::nums)
                                .is_some_and(|v| http::same_values(&v, &w.values))
                    })
            }
            Kind::Window => {
                let want = engine.window(a, b, c, d);
                let num = |j: &Json, k: &str| j.get(k).and_then(Json::num).unwrap_or(f64::NAN);
                let Some(attrs) = json.get("attrs").and_then(Json::arr) else { return false };
                num(&json, "cells") == want.cells as f64
                    && num(&json, "valid_cells") == want.valid_cells as f64
                    && num(&json, "groups") == want.groups as f64
                    && attrs.len() == want.per_attr.len()
                    && attrs.iter().zip(&want.per_attr).all(|(g, w)| {
                        let nan = f64::NAN;
                        num(g, "count") == w.count as f64
                            && http::same_values(
                                &[num(g, "sum"), num(g, "mean"), num(g, "min"), num(g, "max")],
                                &[
                                    w.sum,
                                    w.mean().unwrap_or(nan),
                                    w.min.unwrap_or(nan),
                                    w.max.unwrap_or(nan),
                                ],
                            )
                    })
            }
        }
    }
}

/// A `serve_cached` server over the snapshot at `path`, with its own
/// registry and cache so every counter belongs to this run.
pub struct Server {
    pub handle: ServerHandle,
    pub cache: Arc<SnapshotCache>,
    pub registry: Registry,
}

impl Server {
    pub fn start(path: &Path, theta: f64) -> Result<Server, String> {
        let registry = Registry::new();
        let cache = Arc::new(SnapshotCache::with_registry(4, &registry));
        let config = ServerConfig {
            threads: nproc(),
            registry: registry.clone(),
            ..ServerConfig::default()
        };
        let handle = serve_cached(cache.clone(), path, theta, "127.0.0.1:0", config)
            .map_err(|e| format!("server start: {e}"))?;
        Ok(Server { handle, cache, registry })
    }

    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    pub fn shed_total(&self) -> u64 {
        self.registry.counter("shed.queue_total").get()
            + self.registry.counter("shed.deadline_total").get()
    }

    /// Cache counters that must stay 0: stale serves and failed reloads.
    pub fn check_cache(&self, report: &mut Report) {
        for (what, n) in [
            ("stale serves", self.cache.stale_serves()),
            ("reload failures", self.cache.reload_failures()),
        ] {
            report.record((n > 0).then(|| format!("{n} {what}")));
        }
    }
}

/// One second of a phase: its request count and a uniform sample of at
/// most `PER_SECOND_SAMPLE` of its latencies per client (Vitter's
/// algorithm R). The harness's memory then does not grow with the request
/// rate, so peak RSS stays a property of the server, not of the load.
#[derive(Default, Clone)]
struct Second {
    count: u64,
    sample: Vec<(Kind, f64)>,
}

/// Client latencies of one phase, in µs, plus the kept response bodies.
#[derive(Default)]
struct Phase {
    seconds: Vec<Second>,
    kept: Vec<(usize, usize, String)>,
    wall: Duration,
}

impl Phase {
    /// Sampled latencies, of one kind or of all.
    fn latencies(&self, kind: Option<Kind>) -> Vec<f64> {
        self.seconds
            .iter()
            .flat_map(|s| &s.sample)
            .filter(|(k, _)| kind.is_none_or(|want| *k == want))
            .map(|&(_, us)| us)
            .collect()
    }

    fn requests(&self) -> u64 {
        self.seconds.iter().map(|s| s.count).sum()
    }

    /// The median over the phase's complete seconds of `stat` applied to
    /// each second. Loopback latency on a small shared box drifts with the
    /// host's load over seconds; the median of per-second figures keeps a
    /// burst that covers a few seconds out of the result.
    fn per_second(&self, stat: impl Fn(&Second) -> f64) -> f64 {
        let full = self.wall.as_secs() as usize;
        let per: Vec<f64> = self.seconds.iter().take(full).map(stat).collect();
        median(&per)
    }
}

/// `stat` over the latencies of one second.
fn of_second(stat: impl Fn(&[f64]) -> f64) -> impl Fn(&Second) -> f64 {
    move |s| stat(&s.sample.iter().map(|&(_, us)| us).collect::<Vec<_>>())
}

fn client_loop(
    addr: SocketAddr,
    queries: &[Query],
    client: usize,
    seconds: f64,
    keep: bool,
) -> (Phase, Vec<String>) {
    let mut phase = Phase::default();
    let mut errors = Vec::new();
    let mut rng = Rng::new(client as u64);
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed().as_secs_f64() < seconds {
        let q = &queries[i % queries.len()];
        let t0 = Instant::now();
        let resp = {
            let _s = span(ROOT);
            http::get(addr, &q.target)
        };
        let dt = us(t0.elapsed());
        match resp {
            Ok(r) if r.status == 200 && !r.stale => {
                let second = start.elapsed().as_secs() as usize;
                if phase.seconds.len() <= second {
                    phase.seconds.resize(second + 1, Second::default());
                }
                let s = &mut phase.seconds[second];
                s.count += 1;
                if s.sample.len() < PER_SECOND_SAMPLE {
                    s.sample.push((q.kind, dt));
                } else {
                    let slot = rng.below(s.count as usize);
                    if slot < PER_SECOND_SAMPLE {
                        s.sample[slot] = (q.kind, dt);
                    }
                }
                if keep && i % SAMPLE_EVERY == 0 && phase.kept.len() < KEEP_MAX {
                    phase.kept.push((client, i % queries.len(), r.body));
                }
            }
            Ok(r) => errors.push(format!("{} -> status {} stale {}", q.target, r.status, r.stale)),
            Err(e) => errors.push(format!("{} -> {e}", q.target)),
        }
        i += 1;
    }
    phase.wall = start.elapsed();
    (phase, errors)
}

/// Runs the closed loop with one thread per client for `seconds`.
fn closed_loop(
    addr: SocketAddr,
    lists: &[Vec<Query>],
    seconds: f64,
    keep: bool,
    report: &mut Report,
) -> Phase {
    let results: Vec<(Phase, Vec<String>)> = std::thread::scope(|s| {
        let handles: Vec<_> = lists
            .iter()
            .enumerate()
            .map(|(c, list)| s.spawn(move || client_loop(addr, list, c, seconds, keep)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let mut phase = Phase::default();
    for (p, errors) in results {
        report.attempted += p.requests();
        if phase.seconds.len() < p.seconds.len() {
            phase.seconds.resize(p.seconds.len(), Second::default());
        }
        for (merged, second) in phase.seconds.iter_mut().zip(p.seconds) {
            merged.count += second.count;
            merged.sample.extend(second.sample);
        }
        phase.kept.extend(p.kept);
        phase.wall = phase.wall.max(p.wall);
        for e in errors {
            report.record(Some(e));
        }
    }
    phase
}

fn verify(phase: &Phase, lists: &[Vec<Query>], engine: &QueryEngine, report: &mut Report) {
    for (client, qi, body) in &phase.kept {
        let q = &lists[*client][*qi];
        if !q.matches(engine, body) {
            report.fail(format!("{} answered {body}", q.target));
        }
    }
}

pub fn run(cfg: RunConfig) -> Result<Report, String> {
    let mut report = Report::default();
    let mut rng = Rng::new(cfg.seed);
    let dir = RunDir::new("query_mix").map_err(|e| format!("scratch dir: {e}"))?;
    let path = dir.path("served.snap");

    let (lists, gen) = timed(|| -> Result<Vec<Vec<Query>>, String> {
        let grid = crate::batch::grid(SNAPSHOT_SEED);
        crate::batch::publish(&crate::batch::driver(), &grid, &path)?;
        let b = grid.bounds();
        Ok((0..nproc())
            .map(|_| {
                (0..QUERIES_PER_CLIENT).map(|_| Query::random(&mut rng, &b, [0.80, 0.15])).collect()
            })
            .collect())
    });
    let lists = lists?;
    let engine = load_engine(&path).map_err(|e| format!("load: {e}"))?;

    // Set-up: server start plus the first snapshot load, several times.
    let probe = Query::point(engine.bounds().lat_min, engine.bounds().lon_min);
    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..SETUPS {
        drop(server.take());
        let start = Instant::now();
        let s = Server::start(&path, crate::batch::THETA)?;
        let first = http::get(s.addr(), &probe.target);
        setups.push(start.elapsed().as_secs_f64());
        report.record(match first {
            Ok(r) if r.status == 200 && probe.matches(&engine, &r.body) => None,
            Ok(r) => Some(format!("first answer: status {} body {}", r.status, r.body)),
            Err(e) => Some(format!("first answer: {e}")),
        });
        server = Some(s);
    }
    let server = server.expect("at least one set-up");

    closed_loop(server.addr(), &lists, WARMUP_S, false, &mut report);

    let untraced = closed_loop(server.addr(), &lists, cfg.phase_seconds(), true, &mut report);
    verify(&untraced, &lists, &engine, &mut report);
    let p50 = untraced.per_second(of_second(median));
    let p90 = untraced.per_second(of_second(|s| quantile(s, 0.9)));
    let p99 = untraced.per_second(of_second(|s| quantile(s, 0.99)));
    let rps = untraced.per_second(|s| s.count as f64);
    report.e2e.insert("setup_s", median(&setups));
    report.e2e.insert("op_ms.p50", p50 / 1e3);
    report.e2e.insert("op_ms.tail", p90 / 1e3);
    report.named = vec![
        ("query_rps", rps, "req/s"),
        ("query_us.p50", p50, "us"),
        ("query_us.p90", p90, "us"),
        ("query_us.p99", p99, "us"),
        ("queries", untraced.requests() as f64, "count"),
    ];
    // Under host CPU steal the closed-loop rate and the p99 swing by 2x
    // and more between runs while the median barely moves, so they are
    // per-layer figures rather than bounded end-to-end ones.
    report.set("query_rps", rps);
    report.set("query_us.p99", p99);

    if cfg.trace {
        let tracer = Tracer::start();
        let traced = closed_loop(server.addr(), &lists, cfg.phase_seconds(), true, &mut report);
        let records = tracer.finish();
        verify(&traced, &lists, &engine, &mut report);
        let fold = Fold::new(&records);
        crate::finish_trace(&mut report, "query_mix", &records, &fold, ROOT)?;
        let client = traced.latencies(None);
        let handle: Vec<f64> = records
            .iter()
            .filter(|r| matches!(r.name, "serve.point" | "serve.knn" | "serve.window"))
            .map(|r| us(r.duration))
            .collect();
        let total = client.len().max(1) as f64;
        for (kind, p50_name, share_name) in [
            (Kind::Point, "query.point_us.p50", "mix.point_share"),
            (Kind::Knn, "query.knn_us.p50", "mix.knn_share"),
            (Kind::Window, "query.window_us.p50", "mix.window_share"),
        ] {
            let lat = traced.latencies(Some(kind));
            report.set(p50_name, median(&lat));
            report.set(share_name, lat.len() as f64 / total);
        }
        request_path(&mut report, &client, &handle);
        // The request's spans run on other threads than its client, so the
        // share no span explains is the part outside the server's handling.
        let overhead = report.layer["http.overhead_us.p50"];
        report.set("trace.unexplained_pct", 100.0 * overhead / median(&client));
        report
            .set("obs.trace_overhead_pct", overhead_pct(traced.per_second(of_second(median)), p50));
        direct_engine_costs(&engine, &lists[0], &mut report);
        let loads: Vec<f64> =
            (0..5).map(|_| crate::util::ms(timed(|| load_engine(&path)).1)).collect();
        report.set("serve.load_engine_ms", median(&loads));
        report
            .set("serve.snapshot_bytes", std::fs::metadata(&path).map_or(0.0, |m| m.len() as f64));
        report.set("serve.shed_total", server.shed_total() as f64);
        report.set("serve.cache.reloads", server.cache.reloads() as f64);
        report.set("serve.cache.stale_serves", server.cache.stale_serves() as f64);
        report.set("serve.cache.reload_failures", server.cache.reload_failures() as f64);
        report.set("gen.inputs_s", gen.as_secs_f64());
    }
    server.check_cache(&mut report);
    Ok(report)
}

/// Splits a request's client-side latency into the server's handling
/// (its `serve.<endpoint>` spans) and the rest: connect, HTTP parsing,
/// queueing for a worker and the response bytes. The two run on
/// different threads, so the split is by medians; it goes into the layer
/// table as the request's blocking path.
pub fn request_path(report: &mut Report, client_us: &[f64], handle_us: &[f64]) {
    let (client, handle) = (median(client_us), median(handle_us));
    report.set("serve.handle_us.p50", handle);
    report.set("http.overhead_us.p50", client - handle);
    report.table.push_str(&format!(
        "## one request (client and server threads, by medians)\n\
         client latency p50        {client:>10.1} us\n\
         sr-serve handling p50     {handle:>10.1} us ({:.1}%)\n\
         HTTP, TCP and queueing    {:>10.1} us ({:.1}%, no span covers it)\n",
        100.0 * handle / client,
        client - handle,
        100.0 * (client - handle) / client
    ));
}

/// Mean ns per direct `QueryEngine` call over the same query list: the
/// engine's share of a request, without HTTP.
fn direct_engine_costs(engine: &QueryEngine, queries: &[Query], report: &mut Report) {
    for (kind, name) in [
        (Kind::Point, "engine.point_ns"),
        (Kind::Knn, "engine.knn_ns"),
        (Kind::Window, "engine.window_ns"),
    ] {
        let qs: Vec<&Query> = queries.iter().filter(|q| q.kind == kind).collect();
        let start = Instant::now();
        for q in &qs {
            let [a, b, c, d] = q.coords;
            match kind {
                Kind::Point => drop(std::hint::black_box(engine.point(a, b))),
                Kind::Knn => drop(std::hint::black_box(engine.knn(a, b, KNN_K))),
                Kind::Window => drop(std::hint::black_box(engine.window(a, b, c, d))),
            }
        }
        report.set(name, start.elapsed().as_nanos() as f64 / qs.len().max(1) as f64);
    }
}
