//! `srtool` — command-line front end for the re-partitioning framework.
//!
//! Subcommands:
//!
//! - `generate  --dataset <name> --size <preset|RxC> [--seed N] --out FILE`
//!   writes a synthetic evaluation grid in grid-tsv format.
//! - `info      --in FILE`
//!   prints shape, schema, validity, and per-attribute Moran's I for a
//!   grid file; for an `sr-snap` snapshot it prints the format version,
//!   shape, and (for v2) the section table.
//! - `repartition --in FILE --theta T [--strided] [--out-grid FILE]
//!   [--out-groups FILE]`
//!   runs the framework; optionally writes the reconstructed grid and/or a
//!   TSV of cell-groups (id, rectangle, features).
//! - `homogeneous --in FILE --rows K --cols K`
//!   reports the §III-D homogeneous-merge IFL.
//! - `snapshot --in FILE --theta T --out FILE.snap [--strided]
//!   [--format v1|v2]`
//!   re-partitions a grid and freezes the result as an `sr-snap`
//!   snapshot for online serving. The default is the zero-copy v2
//!   format (validated once, served borrowed); `--format v1` writes the
//!   legacy stream format. `docs/SNAPSHOT_FORMAT.md` specifies both.
//! - `snapshot migrate --in FILE.snap --out FILE.snap [--to 1|2]`
//!   converts a snapshot between format versions (default target: v2).
//!   Migration is lossless in both directions; serving answers are
//!   bit-identical across formats.
//! - `shard --snapshot FILE.snap --out-dir DIR [--shards K] [--replicas R]`
//!   cuts a snapshot into `K` Hilbert-contiguous shards balanced by cell
//!   count, writes `R` byte-identical replica snapshots per shard plus the
//!   checksummed `manifest.txt` tying them together (`docs/SHARDING.md`).
//! - `serve --snapshot FILE.snap [--addr HOST:PORT] [--threads N]
//!   [--deadline-ms MS] [--max-inflight N] [--fault-plan FILE]`
//!   serves point/window/knn/stats/metrics queries over HTTP from a
//!   snapshot. The snapshot is cache-backed: edits to the file are picked
//!   up live, and a corrupted replacement degrades to serving the last
//!   good version with an `X-SR-Stale: 1` header (`docs/ROBUSTNESS.md`).
//!   `--deadline-ms` sheds requests older than the budget, `--max-inflight`
//!   bounds queued + running requests (both answer `503` + `Retry-After`),
//!   and `--fault-plan` arms deterministic snapshot-I/O fault injection
//!   for drills.
//! - `serve --manifest DIR/manifest.txt [--shard-deadline-ms MS] [...]`
//!   serves the same endpoints from a shard manifest instead: point
//!   queries route to the owning shard, window/knn scatter-gather across
//!   shards, failed replicas rotate, and a shard whose every replica fails
//!   browns out — point queries to it answer `503` while window/knn keep
//!   answering with an `X-SR-Partial: <shards>` header. `GET /healthz`
//!   reports per-shard state.
//! - `ingest --in STREAM --theta T --grid RxC --attrs name:collapse,...
//!   [--batch-size N] [--bounds latmin,latmax,lonmin,lonmax]
//!   [--repartition-every K] [--snapshot-out FILE.snap] [--watch]
//!   [--strided]`
//!   consumes a raw point stream (`x y attr_1 … attr_p` per line) in
//!   bounded-memory batches, bins points into grid cells with the
//!   per-attribute collapse (`mean|median|min|max|count|sum|mode`), and
//!   keeps an exact re-partition current *incrementally*: each batch patches the
//!   driver's scan inputs over the dirty cells, so only the threshold
//!   walk re-runs. `--snapshot-out` republishes each accepted result as
//!   an atomically-replaced v2 snapshot a running `srtool serve` picks
//!   up live; `--watch` keeps polling the file for appended lines.
//!   `docs/INGESTION.md` is the normative contract.
//!
//! The global `--trace` flag (any subcommand) prints hierarchical span
//! timings to stderr; `--trace=json` emits them as JSON-lines instead.
//! `docs/OBSERVABILITY.md` documents the span names and the schema.
//! The global `--threads <n>` flag (before the subcommand) sets the compute
//! pool's thread budget, overriding `SR_THREADS`; results are identical at
//! every thread count (`docs/PERFORMANCE.md`).
//!
//! Example round trip:
//!
//! ```bash
//! srtool generate --dataset taxi-uni --size tiny --out taxi.tsv
//! srtool info --in taxi.tsv
//! srtool repartition --in taxi.tsv --theta 0.05 --out-groups groups.tsv
//! srtool snapshot --in taxi.tsv --theta 0.05 --out taxi.snap
//! srtool serve --snapshot taxi.snap --addr 127.0.0.1:8080
//! ```

use spatial_repartition::core::{
    homogeneous_ifl, IterationStrategy, RepartitionConfig, Repartitioner,
};
use spatial_repartition::datasets::{Dataset, GridSize};
use spatial_repartition::grid::{
    load_grid, morans_i, save_grid, AdjacencyList, Bounds, GridDataset,
};
use spatial_repartition::ingest::{
    IngestConfig, IngestEngine, IngestSchema, PointChunk, StreamReader,
};
use spatial_repartition::serve::{
    load_snapshot, migrate_snapshot_bytes, peek_version, save_snapshot, save_snapshot_v2,
    section_table, serve_backend, serve_cached, FaultPlan, ServerConfig, Snapshot, SnapshotCache,
};
use spatial_repartition::shard::{write_shards, RouterConfig, ShardRouter, SplitOptions};
use std::collections::HashMap;
use std::io::Write;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    match install_tracing(&mut args) {
        Ok(()) => {}
        Err(e) => return usage(&e),
    }
    match install_threads(&mut args) {
        Ok(()) => {}
        Err(e) => return usage(&e),
    }
    let Some((cmd, mut rest)) = args.split_first() else {
        return usage("missing subcommand");
    };
    // `snapshot migrate` is the one two-word subcommand.
    let migrate = cmd == "snapshot" && rest.first().map(String::as_str) == Some("migrate");
    if migrate {
        rest = &rest[1..];
    }
    let opts = match parse_opts(rest) {
        Ok(o) => o,
        Err(e) => return usage(&e),
    };
    let result = match cmd.as_str() {
        "generate" => cmd_generate(&opts),
        "info" => cmd_info(&opts),
        "repartition" => cmd_repartition(&opts),
        "homogeneous" => cmd_homogeneous(&opts),
        "snapshot" if migrate => cmd_snapshot_migrate(&opts),
        "snapshot" => cmd_snapshot(&opts),
        "shard" => cmd_shard(&opts),
        "serve" => cmd_serve(&opts),
        "ingest" => cmd_ingest(&opts),
        "--help" | "-h" | "help" => {
            print_usage();
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown subcommand '{other}'")),
    };
    // Flush any buffered span output before the process exits.
    sr_obs::clear_subscriber();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("srtool: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Handles the global `--trace[=json]` flag: removes it from `args` and
/// installs the matching subscriber. Spans go to stderr so they interleave
/// cleanly with redirected stdout output.
fn install_tracing(args: &mut Vec<String>) -> Result<(), String> {
    let mut mode = None;
    args.retain(|a| match a.as_str() {
        "--trace" | "--trace=pretty" => {
            mode = Some("pretty");
            false
        }
        "--trace=json" => {
            mode = Some("json");
            false
        }
        other if other.starts_with("--trace=") => {
            mode = Some("bad");
            false
        }
        _ => true,
    });
    match mode {
        None => Ok(()),
        Some("pretty") => {
            sr_obs::set_subscriber(std::sync::Arc::new(sr_obs::StderrPretty::new()));
            Ok(())
        }
        Some("json") => {
            sr_obs::set_subscriber(std::sync::Arc::new(sr_obs::JsonLines::new(std::io::stderr())));
            Ok(())
        }
        Some(_) => Err("bad --trace mode (expected --trace or --trace=json)".to_string()),
    }
}

/// Handles the global `--threads <n>` / `--threads=<n>` flag: removes it
/// from the leading (pre-subcommand) arguments and re-budgets the shared
/// compute pool, overriding `SR_THREADS`. Only leading occurrences are
/// global — `serve --threads N` after the subcommand keeps its separate
/// HTTP-worker meaning. Results never depend on the thread count
/// (docs/PERFORMANCE.md), only wall-clock time does.
fn install_threads(args: &mut Vec<String>) -> Result<(), String> {
    let mut threads: Option<usize> = None;
    let mut i = 0;
    while i < args.len() {
        if !args[i].starts_with("--") {
            break; // subcommand reached; later --threads belong to it
        }
        if let Some(v) = args[i].strip_prefix("--threads=") {
            threads = Some(v.parse().map_err(|_| "bad --threads (expected a count >= 1)")?);
            args.remove(i);
        } else if args[i] == "--threads" {
            let v = args.get(i + 1).ok_or("missing value for --threads")?;
            threads = Some(v.parse().map_err(|_| "bad --threads (expected a count >= 1)")?);
            args.drain(i..i + 2);
        } else {
            i += 1;
        }
    }
    match threads {
        Some(0) => Err("bad --threads (expected a count >= 1)".to_string()),
        Some(n) => {
            sr_par::Pool::global().set_threads(n);
            Ok(())
        }
        None => Ok(()),
    }
}

type Opts = HashMap<String, String>;

fn parse_opts(rest: &[String]) -> Result<Opts, String> {
    let mut opts = HashMap::new();
    let mut i = 0;
    while i < rest.len() {
        let key = rest[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got '{}'", rest[i]))?;
        // Boolean flags take no value.
        if key == "strided" || key == "watch" {
            opts.insert(key.to_string(), "true".to_string());
            i += 1;
            continue;
        }
        let value = rest.get(i + 1).ok_or_else(|| format!("missing value for --{key}"))?;
        opts.insert(key.to_string(), value.clone());
        i += 2;
    }
    Ok(opts)
}

fn required<'a>(opts: &'a Opts, key: &str) -> Result<&'a str, String> {
    opts.get(key).map(String::as_str).ok_or_else(|| format!("missing required --{key}"))
}

fn parse_dataset(token: &str) -> Result<Dataset, String> {
    Ok(match token {
        "taxi-multi" => Dataset::TaxiMultivariate,
        "taxi-uni" => Dataset::TaxiUnivariate,
        "homes" => Dataset::HomeSalesMultivariate,
        "vehicles" => Dataset::VehiclesUnivariate,
        "earnings-multi" => Dataset::EarningsMultivariate,
        "earnings-uni" => Dataset::EarningsUnivariate,
        _ => {
            return Err(format!(
                "unknown dataset '{token}' (taxi-multi|taxi-uni|homes|vehicles|earnings-multi|earnings-uni)"
            ))
        }
    })
}

fn parse_size(token: &str) -> Result<GridSize, String> {
    Ok(match token {
        "mini" => GridSize::Mini,
        "tiny" => GridSize::Tiny,
        "small" => GridSize::Small,
        "36k" => GridSize::Cells36k,
        "78k" => GridSize::Cells78k,
        "100k" => GridSize::Cells100k,
        other => {
            let (r, c) = other.split_once('x').ok_or_else(|| format!("bad size '{other}'"))?;
            GridSize::Custom(
                r.parse().map_err(|_| format!("bad size '{other}'"))?,
                c.parse().map_err(|_| format!("bad size '{other}'"))?,
            )
        }
    })
}

fn cmd_generate(opts: &Opts) -> Result<(), String> {
    let dataset = parse_dataset(required(opts, "dataset")?)?;
    let size = parse_size(required(opts, "size")?)?;
    let seed: u64 =
        opts.get("seed").map_or(Ok(42), |s| s.parse().map_err(|_| "bad --seed".to_string()))?;
    let out = required(opts, "out")?;
    let grid = dataset.generate(size, seed);
    save_grid(&grid, out).map_err(|e| e.to_string())?;
    println!(
        "wrote {} ({} cells, {} valid, {} attrs)",
        out,
        grid.num_cells(),
        grid.num_valid_cells(),
        grid.num_attrs()
    );
    Ok(())
}

fn cmd_info(opts: &Opts) -> Result<(), String> {
    let path = required(opts, "in")?;
    // Snapshot files share the magic across both format versions; grids
    // are TSV and never match it.
    if let Ok(bytes) = std::fs::read(path) {
        if let Some(version) = peek_version(&bytes) {
            return snapshot_info(path, version, &bytes);
        }
    }
    let grid = load_grid(path).map_err(|e| e.to_string())?;
    println!("shape: {} x {} = {} cells", grid.rows(), grid.cols(), grid.num_cells());
    println!(
        "valid: {} ({:.1}%)",
        grid.num_valid_cells(),
        100.0 * grid.num_valid_cells() as f64 / grid.num_cells() as f64
    );
    let b = grid.bounds();
    println!("bounds: lat [{}, {}], lon [{}, {}]", b.lat_min, b.lat_max, b.lon_min, b.lon_max);
    let adj = AdjacencyList::rook_from_grid(&grid);
    for k in 0..grid.num_attrs() {
        let mut vals = vec![0.0; grid.num_cells()];
        for id in grid.valid_cells() {
            vals[id as usize] = grid.value(id, k);
        }
        let moran = morans_i(&vals, &adj).map_or("n/a".to_string(), |v| format!("{v:.3}"));
        println!(
            "attr[{k}] {:<16} agg={:?} int={} Moran's I={moran}",
            grid.attr_names()[k],
            grid.agg_types()[k],
            grid.integer_attrs()[k]
        );
    }
    Ok(())
}

/// `info` for an `sr-snap` file: shape and schema for both versions,
/// plus the section table for v2.
fn snapshot_info(path: &str, version: u16, bytes: &[u8]) -> Result<(), String> {
    let engine = spatial_repartition::serve::engine_from_bytes(bytes).map_err(|e| e.to_string())?;
    let st = engine.stats();
    println!("{path}: sr-snap v{version}, {} bytes", bytes.len());
    println!(
        "shape: {} x {} = {} cells, {} groups, {} attrs",
        st.rows, st.cols, st.cells, st.groups, st.attrs
    );
    println!("valid: {} cells, {} featured groups", st.valid_cells, st.valid_groups);
    println!("theta: {} (IFL {})", engine.theta(), engine.ifl());
    for (k, name) in engine.attr_names().iter().enumerate() {
        println!(
            "attr[{k}] {:<16} agg={:?} int={}",
            name,
            engine.agg_types()[k],
            engine.integer_attrs()[k]
        );
    }
    if version == 2 {
        println!("sections:");
        for s in section_table(bytes).map_err(|e| e.to_string())? {
            println!(
                "  {:>2} {:<10} offset {:>10}  len {:>10}  crc 0x{:08X}",
                s.id, s.name, s.offset, s.len, s.crc
            );
        }
        // The load above already proved checksums + structure; run the
        // deep audit too, so `info` doubles as an integrity tool.
        spatial_repartition::serve::snapshot_v2_from_bytes(bytes)
            .and_then(|v2| v2.verify_derived())
            .map_err(|e| e.to_string())?;
        println!("derived sections: verified bit-identical to recomputation");
    }
    Ok(())
}

fn cmd_repartition(opts: &Opts) -> Result<(), String> {
    let grid = load_grid(required(opts, "in")?).map_err(|e| e.to_string())?;
    let theta: f64 = required(opts, "theta")?.parse().map_err(|_| "bad --theta".to_string())?;
    let mut config = RepartitionConfig::new(theta).map_err(|e| e.to_string())?;
    if opts.contains_key("strided") || grid.num_cells() > 5_000 {
        config =
            config.with_strategy(IterationStrategy::Exponential { initial_stride: 8, growth: 1.6 });
    }
    let start = std::time::Instant::now();
    let outcome = Repartitioner::with_config(config)
        .map_err(|e| e.to_string())?
        .run(&grid)
        .map_err(|e| e.to_string())?;
    let secs = start.elapsed().as_secs_f64();
    let rep = &outcome.repartitioned;
    println!(
        "{} cells -> {} groups ({:.1}% reduction) at IFL {:.4} <= {theta} in {secs:.2}s ({} iterations)",
        grid.num_cells(),
        rep.num_groups(),
        outcome.cell_reduction() * 100.0,
        rep.ifl(),
        outcome.iterations.len()
    );

    if let Some(path) = opts.get("out-grid") {
        let rec = rep.reconstruct(&grid).map_err(|e| e.to_string())?;
        save_grid(&rec, path).map_err(|e| e.to_string())?;
        println!("wrote reconstructed grid to {path}");
    }
    if let Some(path) = opts.get("out-groups") {
        write_groups(rep, path).map_err(|e| e.to_string())?;
        println!("wrote {} cell-groups to {path}", rep.num_groups());
    }
    if let Some(path) = opts.get("out-gal") {
        let adj = rep.adjacency();
        let file = std::fs::File::create(path).map_err(|e| e.to_string())?;
        spatial_repartition::grid::write_gal(&adj, std::io::BufWriter::new(file))
            .map_err(|e| e.to_string())?;
        println!("wrote PySAL GAL weights ({} units) to {path}", adj.len());
    }
    Ok(())
}

fn write_groups(rep: &spatial_repartition::core::Repartitioned, path: &str) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    let mut w = std::io::BufWriter::new(file);
    write!(w, "#group\tr0\tr1\tc0\tc1")?;
    for name in rep.attr_names() {
        write!(w, "\t{name}")?;
    }
    writeln!(w)?;
    for gid in 0..rep.num_groups() as u32 {
        let rect = rep.partition().rect(gid);
        write!(w, "{gid}\t{}\t{}\t{}\t{}", rect.r0, rect.r1, rect.c0, rect.c1)?;
        match rep.group_feature(gid) {
            Some(fv) => {
                for v in fv {
                    write!(w, "\t{v}")?;
                }
            }
            None => {
                for _ in 0..rep.attr_names().len() {
                    write!(w, "\tnull")?;
                }
            }
        }
        writeln!(w)?;
    }
    Ok(())
}

fn cmd_homogeneous(opts: &Opts) -> Result<(), String> {
    let grid = load_grid(required(opts, "in")?).map_err(|e| e.to_string())?;
    let rows: usize = required(opts, "rows")?.parse().map_err(|_| "bad --rows".to_string())?;
    let cols: usize = required(opts, "cols")?.parse().map_err(|_| "bad --cols".to_string())?;
    let ifl = homogeneous_ifl(&grid, rows, cols).map_err(|e| e.to_string())?;
    let groups = grid.rows().div_ceil(rows) * grid.cols().div_ceil(cols);
    println!(
        "homogeneous {rows}x{cols} merge: {} -> {} groups, IFL {ifl:.4}",
        grid.num_cells(),
        groups
    );
    Ok(())
}

fn cmd_snapshot(opts: &Opts) -> Result<(), String> {
    let grid = load_grid(required(opts, "in")?).map_err(|e| e.to_string())?;
    let theta: f64 = required(opts, "theta")?.parse().map_err(|_| "bad --theta".to_string())?;
    let out = required(opts, "out")?;
    let mut config = RepartitionConfig::new(theta).map_err(|e| e.to_string())?;
    if opts.contains_key("strided") || grid.num_cells() > 5_000 {
        config =
            config.with_strategy(IterationStrategy::Exponential { initial_stride: 8, growth: 1.6 });
    }
    let start = std::time::Instant::now();
    let outcome = Repartitioner::with_config(config)
        .map_err(|e| e.to_string())?
        .run(&grid)
        .map_err(|e| e.to_string())?;
    let rep = &outcome.repartitioned;
    let snap = Snapshot::build(rep, &grid, theta).map_err(|e| e.to_string())?;
    let format = opts.get("format").map_or("v2", String::as_str);
    match format {
        "v2" | "2" => save_snapshot_v2(&snap, out).map_err(|e| e.to_string())?,
        "v1" | "1" => save_snapshot(&snap, out).map_err(|e| e.to_string())?,
        other => return Err(format!("bad --format '{other}' (expected v1 or v2)")),
    }
    let bytes = std::fs::metadata(out).map(|m| m.len()).unwrap_or(0);
    println!(
        "wrote {out} ({format}): {} cells -> {} groups (IFL {:.4} <= {theta}) in {:.2}s, {bytes} bytes",
        grid.num_cells(),
        rep.num_groups(),
        rep.ifl(),
        start.elapsed().as_secs_f64()
    );
    Ok(())
}

/// `snapshot migrate`: converts a snapshot file between format versions.
fn cmd_snapshot_migrate(opts: &Opts) -> Result<(), String> {
    let input = required(opts, "in")?;
    let out = required(opts, "out")?;
    let to: u16 = match opts.get("to").map(String::as_str) {
        None | Some("2") | Some("v2") => 2,
        Some("1") | Some("v1") => 1,
        Some(other) => return Err(format!("bad --to '{other}' (expected 1 or 2)")),
    };
    let bytes = std::fs::read(input).map_err(|e| e.to_string())?;
    let from = peek_version(&bytes).ok_or_else(|| format!("{input} is not an sr-snap file"))?;
    let migrated = migrate_snapshot_bytes(&bytes, to).map_err(|e| e.to_string())?;
    std::fs::write(out, &migrated).map_err(|e| e.to_string())?;
    println!(
        "migrated {input} (v{from}, {} bytes) -> {out} (v{to}, {} bytes)",
        bytes.len(),
        migrated.len()
    );
    Ok(())
}

fn cmd_shard(opts: &Opts) -> Result<(), String> {
    let path = required(opts, "snapshot")?;
    let out_dir = required(opts, "out-dir")?;
    let shards: usize = opts
        .get("shards")
        .map_or(Ok(4), |s| s.parse().map_err(|_| "bad --shards (expected a count >= 1)"))?;
    let replicas: usize = opts
        .get("replicas")
        .map_or(Ok(1), |s| s.parse().map_err(|_| "bad --replicas (expected a count >= 1)"))?;
    if shards == 0 || replicas == 0 {
        return Err("--shards and --replicas must be >= 1".to_string());
    }
    let snap = load_snapshot(path).map_err(|e| e.to_string())?;
    let start = std::time::Instant::now();
    let manifest = write_shards(
        &snap,
        out_dir,
        &SplitOptions { shards, replicas },
        spatial_repartition::par::Pool::global(),
    )
    .map_err(|e| e.to_string())?;
    println!(
        "sharded {path}: {} groups / {} cells -> {} shards x {} replicas in {:.2}s",
        manifest.groups,
        manifest.cells,
        manifest.shards.len(),
        manifest.replicas,
        start.elapsed().as_secs_f64()
    );
    for (s, entry) in manifest.shards.iter().enumerate() {
        println!("  shard {s}: {} groups, {} cells", entry.count, entry.cells);
    }
    println!("wrote manifest to {out_dir}/manifest.txt");
    Ok(())
}

fn cmd_serve(opts: &Opts) -> Result<(), String> {
    if opts.contains_key("manifest") {
        return cmd_serve_manifest(opts);
    }
    let path = required(opts, "snapshot")?;
    let addr = opts.get("addr").map_or("127.0.0.1:7878", String::as_str);
    let threads: usize = opts
        .get("threads")
        .map_or(Ok(4), |s| s.parse().map_err(|_| "bad --threads".to_string()))?;
    let deadline = opts
        .get("deadline-ms")
        .map(|s| s.parse::<u64>().map_err(|_| "bad --deadline-ms".to_string()))
        .transpose()?
        .map(std::time::Duration::from_millis);
    let max_inflight: usize = opts
        .get("max-inflight")
        .map_or(Ok(0), |s| s.parse().map_err(|_| "bad --max-inflight".to_string()))?;
    let registry = spatial_repartition::obs::Registry::global();
    let mut cache = SnapshotCache::with_registry(2, &registry);
    if let Some(plan_path) = opts.get("fault-plan") {
        let plan = FaultPlan::load(plan_path, &registry)
            .map_err(|e| format!("bad --fault-plan {plan_path}: {e}"))?;
        println!("fault plan loaded from {plan_path} (seed {})", plan.seed());
        cache = cache.with_fault_plan(plan);
    }
    let cache = std::sync::Arc::new(cache);
    let config =
        ServerConfig { threads, deadline, max_inflight, registry, ..ServerConfig::default() };
    // theta is only a cache-key component here; one server serves one
    // snapshot path, so any fixed value works.
    let theta = 0.0;
    // Warm the cache so the common case starts hot — but a failed first
    // load must not stop the server: it starts degraded (engine endpoints
    // answer 503, /metrics works) and recovers when the file does.
    match cache.get_serve(path, theta) {
        Ok(served) => {
            let st = served.engine.stats();
            println!(
                "loaded {path}: {}x{} cells, {} groups, {} attrs",
                st.rows, st.cols, st.groups, st.attrs
            );
        }
        Err(e) => println!("warning: snapshot not loadable yet ({e}); serving degraded"),
    }
    let handle = serve_cached(std::sync::Arc::clone(&cache), path, theta, addr, config)
        .map_err(|e| e.to_string())?;
    println!("serving {path} on http://{}", handle.addr());
    println!(
        "endpoints: /point?lat=&lon=  /window?lat0=&lat1=&lon0=&lon1=  /knn?lat=&lon=&k=  \
         /stats  /healthz  /metrics"
    );
    println!("press Ctrl-C to stop");
    // Serve until killed; the handle's Drop would stop the server, so park
    // this thread indefinitely.
    loop {
        std::thread::park();
    }
}

/// `serve --manifest`: the sharded scatter-gather backend behind the same
/// HTTP surface (docs/SHARDING.md).
fn cmd_serve_manifest(opts: &Opts) -> Result<(), String> {
    let manifest_path = required(opts, "manifest")?;
    let addr = opts.get("addr").map_or("127.0.0.1:7878", String::as_str);
    let threads: usize = opts
        .get("threads")
        .map_or(Ok(4), |s| s.parse().map_err(|_| "bad --threads".to_string()))?;
    let deadline = opts
        .get("deadline-ms")
        .map(|s| s.parse::<u64>().map_err(|_| "bad --deadline-ms".to_string()))
        .transpose()?
        .map(std::time::Duration::from_millis);
    let shard_deadline = opts
        .get("shard-deadline-ms")
        .map(|s| s.parse::<u64>().map_err(|_| "bad --shard-deadline-ms".to_string()))
        .transpose()?
        .map(std::time::Duration::from_millis);
    let max_inflight: usize = opts
        .get("max-inflight")
        .map_or(Ok(0), |s| s.parse().map_err(|_| "bad --max-inflight".to_string()))?;
    let registry = spatial_repartition::obs::Registry::global();
    let mut router_config =
        RouterConfig { registry: registry.clone(), shard_deadline, ..RouterConfig::default() };
    if let Some(plan_path) = opts.get("fault-plan") {
        let plan = FaultPlan::load(plan_path, &registry)
            .map_err(|e| format!("bad --fault-plan {plan_path}: {e}"))?;
        println!("fault plan loaded from {plan_path} (seed {})", plan.seed());
        router_config.fault_plan = Some(plan);
    }
    let router = ShardRouter::open(manifest_path, router_config).map_err(|e| e.to_string())?;
    let m = router.manifest();
    println!(
        "loaded {manifest_path}: {}x{} cells, {} groups, {} shards x {} replicas",
        m.rows,
        m.cols,
        m.groups,
        m.shards.len(),
        m.replicas
    );
    let config =
        ServerConfig { threads, deadline, max_inflight, registry, ..ServerConfig::default() };
    let handle =
        serve_backend(std::sync::Arc::new(router), addr, config).map_err(|e| e.to_string())?;
    println!("serving {manifest_path} on http://{}", handle.addr());
    println!(
        "endpoints: /point?lat=&lon=  /window?lat0=&lat1=&lon0=&lon1=  /knn?lat=&lon=&k=  \
         /stats  /healthz  /metrics"
    );
    println!("press Ctrl-C to stop");
    loop {
        std::thread::park();
    }
}

/// `ingest`: out-of-core point-stream ingestion with incremental
/// re-partitioning and optional live snapshot republishing
/// (`docs/INGESTION.md`).
fn cmd_ingest(opts: &Opts) -> Result<(), String> {
    let path = required(opts, "in")?;
    let theta: f64 = required(opts, "theta")?.parse().map_err(|_| "bad --theta".to_string())?;
    let grid_spec = required(opts, "grid")?;
    let (rows, cols) = grid_spec
        .split_once('x')
        .and_then(|(r, c)| Some((r.parse::<usize>().ok()?, c.parse::<usize>().ok()?)))
        .ok_or_else(|| format!("bad --grid '{grid_spec}' (expected RxC, e.g. 320x320)"))?;
    let attrs = required(opts, "attrs")?;
    let schema = IngestSchema::parse(attrs).ok_or_else(|| {
        format!("bad --attrs '{attrs}' (expected name:mean|median|min|max|count|sum|mode,...)")
    })?;
    let batch_size: usize = opts
        .get("batch-size")
        .map_or(Ok(4096), |s| s.parse().map_err(|_| "bad --batch-size (expected >= 1)"))?;
    if batch_size == 0 {
        return Err("bad --batch-size (expected >= 1)".to_string());
    }
    let every: u64 = opts
        .get("repartition-every")
        .map_or(Ok(1), |s| s.parse().map_err(|_| "bad --repartition-every (expected >= 1)"))?;
    if every == 0 {
        return Err("bad --repartition-every (expected >= 1)".to_string());
    }

    let mut config = IngestConfig::new(rows, cols, schema, theta);
    if let Some(spec) = opts.get("bounds") {
        let parts: Vec<f64> = spec.split(',').filter_map(|t| t.trim().parse().ok()).collect();
        if parts.len() != 4 {
            return Err(format!("bad --bounds '{spec}' (expected latmin,latmax,lonmin,lonmax)"));
        }
        config = config.with_bounds(Bounds {
            lat_min: parts[0],
            lat_max: parts[1],
            lon_min: parts[2],
            lon_max: parts[3],
        });
    }
    if opts.contains_key("strided") {
        config =
            config.with_strategy(IterationStrategy::Exponential { initial_stride: 8, growth: 1.6 });
    }
    let watch = opts.contains_key("watch");
    let snapshot_out = opts.get("snapshot-out");

    let binary = match opts.get("format").map(String::as_str) {
        None | Some("text") => false,
        Some("bin") => true,
        Some(other) => return Err(format!("bad --format '{other}' (expected text|bin)")),
    };

    let p = config.schema.num_attrs();
    let mut engine = IngestEngine::new(config).map_err(|e| e.to_string())?;
    let file = std::fs::File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let buf = std::io::BufReader::new(file);
    let mut reader = if binary { StreamReader::binary(buf, p) } else { StreamReader::new(buf, p) };
    let mut chunk = PointChunk::with_capacity(batch_size, p);
    println!(
        "ingesting {path} ({}) into a {rows}x{cols} grid (theta {theta}, batch {batch_size}{})",
        if binary { "binary frames" } else { "text lines" },
        if watch { ", watching for appended records" } else { "" }
    );

    let start = std::time::Instant::now();
    let mut since_repartition: u64 = 0;
    loop {
        let n = reader.next_chunk(batch_size, &mut chunk).map_err(|e| e.to_string())?;
        if n == 0 {
            // End of the file as it stands. A watched stream may grow —
            // repartition what's pending, then poll for appended lines.
            if since_repartition > 0 {
                report_repartition(&mut engine, snapshot_out, start)?;
                since_repartition = 0;
            }
            if !watch {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(500));
            continue;
        }
        let report = engine.apply_batch(&chunk).map_err(|e| e.to_string())?;
        since_repartition += 1;
        if report.scan.rebuilt_normalization {
            println!(
                "batch {}: {} points, {} dirty cells (scan cache rebuilt: new attribute max)",
                engine.num_batches(),
                report.points,
                report.dirty_cells
            );
        }
        if since_repartition >= every {
            report_repartition(&mut engine, snapshot_out, start)?;
            since_repartition = 0;
        }
    }
    println!(
        "done: {} points in {} batches ({} malformed records skipped) in {:.2}s",
        engine.total_points(),
        engine.num_batches(),
        reader.malformed_lines(),
        start.elapsed().as_secs_f64()
    );
    Ok(())
}

/// One exact incremental re-partition + optional snapshot republish, with
/// a progress line.
fn report_repartition(
    engine: &mut IngestEngine,
    snapshot_out: Option<&String>,
    start: std::time::Instant,
) -> Result<(), String> {
    let outcome = engine.repartition().map_err(|e| e.to_string())?;
    let rep = &outcome.repartitioned;
    let (groups, ifl) = (rep.num_groups(), rep.ifl());
    println!(
        "[{:>8.2}s] {} points -> {groups} groups (IFL {ifl:.4})",
        start.elapsed().as_secs_f64(),
        engine.total_points(),
    );
    if let Some(out) = snapshot_out {
        engine.publish(out).map_err(|e| e.to_string())?;
        println!("  republished {out}");
    }
    Ok(())
}

fn print_usage() {
    println!(
        "srtool — ML-aware spatial re-partitioning CLI

USAGE:
  srtool generate    --dataset taxi-multi|taxi-uni|homes|vehicles|earnings-multi|earnings-uni
                     --size mini|tiny|small|36k|78k|100k|RxC [--seed N] --out FILE
  srtool info        --in FILE
  srtool repartition --in FILE --theta T [--strided] [--out-grid FILE] [--out-groups FILE]
                     [--out-gal FILE]
  srtool homogeneous --in FILE --rows K --cols K
  srtool snapshot    --in FILE --theta T --out FILE.snap [--strided] [--format v1|v2]
  srtool snapshot migrate --in FILE.snap --out FILE.snap [--to 1|2]
  srtool shard       --snapshot FILE.snap --out-dir DIR [--shards K] [--replicas R]
  srtool serve       --snapshot FILE.snap [--addr HOST:PORT] [--threads N]
                     [--deadline-ms MS] [--max-inflight N] [--fault-plan FILE]
  srtool serve       --manifest DIR/manifest.txt [--shard-deadline-ms MS]
                     [--addr HOST:PORT] [--threads N] [--deadline-ms MS]
                     [--max-inflight N] [--fault-plan FILE]
  srtool ingest      --in STREAM --theta T --grid RxC --attrs name:collapse,...
                     [--format text|bin] [--batch-size N]
                     [--bounds latmin,latmax,lonmin,lonmax]
                     [--repartition-every K] [--snapshot-out FILE.snap]
                     [--watch] [--strided]

GLOBAL FLAGS (before the subcommand):
  --threads N    worker threads for the compute pool (overrides SR_THREADS;
                 1 = serial; results are identical at every thread count)
  --trace        print hierarchical span timings to stderr
  --trace=json   emit spans as JSON-lines on stderr (schema: docs/OBSERVABILITY.md)"
    );
}

fn usage(err: &str) -> ExitCode {
    eprintln!("srtool: {err}\n");
    print_usage();
    ExitCode::FAILURE
}

// The grid type is exercised through the public API above; this keeps the
// binary honest about only using exported functionality.
#[allow(dead_code)]
fn _assert_public_api(grid: &GridDataset) -> usize {
    grid.num_cells()
}
