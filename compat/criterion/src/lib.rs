//! Offline stand-in for the `criterion` crate.
//!
//! The build container cannot reach crates.io, so this local path crate
//! provides the criterion API surface the workspace's benches use:
//! [`Criterion::bench_function`], [`Criterion::benchmark_group`] with
//! `sample_size` / `bench_function` / `bench_with_input` / `finish`,
//! [`BenchmarkId`], [`black_box`], and the [`criterion_group!`] /
//! [`criterion_main!`] macros.
//!
//! Measurement model: each benchmark warms up briefly, then runs
//! `sample_size` timed samples, each sized so one sample takes roughly
//! `measurement_time / sample_size`; the reported per-iteration time is the
//! median sample. No plots, no statistical regression — but results are
//! recorded in the [`Criterion`] instance and can be dumped with
//! [`Criterion::export_json`], which the workspace's harnesses use to write
//! `BENCH_*.json` artifacts. Every exported row carries a machine
//! fingerprint (`nproc`, the CPU model, `rustc`) so numbers from
//! different boxes are never compared blind.
//!
//! Setting `SR_BENCH_SMOKE=1` switches every bench to smoke mode: each
//! closure runs exactly once with no warm-up or calibration, and
//! [`Criterion::export_json`] becomes a no-op so checked-in `BENCH_*.json`
//! artifacts are never clobbered by a smoke run. CI uses this to prove the
//! benches still build and execute without paying measurement time.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// True when `SR_BENCH_SMOKE` is set (and not `0`): run each bench body
/// once, skip calibration, and suppress JSON export.
fn smoke_mode() -> bool {
    std::env::var_os("SR_BENCH_SMOKE").is_some_and(|v| !v.is_empty() && v != "0")
}

/// Identifier of one benchmark inside a group: `function_id/parameter`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Benchmark id from a function name and a displayable parameter.
    pub fn new(function_id: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId { id: format!("{}/{parameter}", function_id.into()) }
    }

    /// Id from just a parameter (criterion parity).
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId { id: parameter.to_string() }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { id: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { id: s }
    }
}

/// One completed measurement.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Full benchmark id (`group/function/parameter`).
    pub id: String,
    /// Median per-iteration time in nanoseconds.
    pub ns_per_iter: f64,
    /// Total iterations executed across timed samples.
    pub iterations: u64,
    /// Number of timed samples.
    pub samples: usize,
}

/// Passed to benchmark closures; [`Bencher::iter`] runs the measurement.
pub struct Bencher<'a> {
    samples: usize,
    measurement_time: Duration,
    smoke: bool,
    result: &'a mut Option<(f64, u64)>,
}

impl Bencher<'_> {
    /// Measures `f`, storing the median per-iteration nanoseconds.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        if self.smoke {
            let start = Instant::now();
            black_box(f());
            *self.result = Some((start.elapsed().as_nanos() as f64, 1));
            return;
        }
        // Warm-up & calibration: find an iteration count whose sample time
        // is comfortably measurable.
        let mut calib_iters: u64 = 1;
        let per_iter_ns = loop {
            let start = Instant::now();
            for _ in 0..calib_iters {
                black_box(f());
            }
            let elapsed = start.elapsed();
            if elapsed >= Duration::from_millis(2) || calib_iters >= 1 << 24 {
                break (elapsed.as_nanos() as f64 / calib_iters as f64).max(0.1);
            }
            calib_iters *= 4;
        };

        let per_sample_ns = self.measurement_time.as_nanos() as f64 / self.samples.max(1) as f64;
        let iters_per_sample = ((per_sample_ns / per_iter_ns).ceil() as u64).clamp(1, 1 << 24);

        let mut samples_ns: Vec<f64> = Vec::with_capacity(self.samples);
        let mut total_iters = 0u64;
        for _ in 0..self.samples {
            let start = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(f());
            }
            samples_ns.push(start.elapsed().as_nanos() as f64 / iters_per_sample as f64);
            total_iters += iters_per_sample;
        }
        samples_ns.sort_by(|a, b| a.total_cmp(b));
        let median = samples_ns[samples_ns.len() / 2];
        *self.result = Some((median, total_iters));
    }

    /// Criterion-parity custom measurement: `f` receives an iteration
    /// count, runs that many iterations, and returns only the time it
    /// chooses to count — letting per-iteration setup (input mutation,
    /// cache patching) happen inside the closure without being timed.
    /// Calibration and sampling mirror [`Bencher::iter`], driven by the
    /// durations `f` reports.
    pub fn iter_custom<F: FnMut(u64) -> Duration>(&mut self, mut f: F) {
        if self.smoke {
            let elapsed = f(1);
            *self.result = Some((elapsed.as_nanos() as f64, 1));
            return;
        }
        let mut calib_iters: u64 = 1;
        let per_iter_ns = loop {
            let elapsed = f(calib_iters);
            if elapsed >= Duration::from_millis(2) || calib_iters >= 1 << 24 {
                break (elapsed.as_nanos() as f64 / calib_iters as f64).max(0.1);
            }
            calib_iters *= 4;
        };

        let per_sample_ns = self.measurement_time.as_nanos() as f64 / self.samples.max(1) as f64;
        let iters_per_sample = ((per_sample_ns / per_iter_ns).ceil() as u64).clamp(1, 1 << 24);

        let mut samples_ns: Vec<f64> = Vec::with_capacity(self.samples);
        let mut total_iters = 0u64;
        for _ in 0..self.samples {
            let elapsed = f(iters_per_sample);
            samples_ns.push(elapsed.as_nanos() as f64 / iters_per_sample as f64);
            total_iters += iters_per_sample;
        }
        samples_ns.sort_by(|a, b| a.total_cmp(b));
        let median = samples_ns[samples_ns.len() / 2];
        *self.result = Some((median, total_iters));
    }
}

/// The top-level benchmark driver.
pub struct Criterion {
    results: Vec<BenchResult>,
    default_sample_size: usize,
    default_measurement_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            results: Vec::new(),
            default_sample_size: 20,
            default_measurement_time: Duration::from_millis(600),
        }
    }
}

impl Criterion {
    /// Criterion-parity no-op (CLI args are ignored in the stand-in).
    pub fn configure_from_args(self) -> Self {
        self
    }

    /// Runs one standalone benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Self {
        let (sample_size, measurement_time) =
            (self.default_sample_size, self.default_measurement_time);
        self.run_one(id.to_string(), sample_size, measurement_time, f);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: None,
            measurement_time: None,
        }
    }

    /// All results measured so far, in execution order.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Writes the collected results as a JSON array to `path`, each row
    /// tagged with the machine fingerprint. A no-op in smoke mode:
    /// one-shot timings would overwrite real measurements.
    pub fn export_json(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        if smoke_mode() {
            println!("smoke mode: skipping export to {}", path.as_ref().display());
            return Ok(());
        }
        let machine = machine_json();
        let mut out = String::from("[\n");
        for (i, r) in self.results.iter().enumerate() {
            let _ = write!(
                out,
                "  {{\"id\": \"{}\", \"ns_per_iter\": {:.1}, \"iters_per_sec\": {:.1}, \"iterations\": {}, \"samples\": {}, \"machine\": {machine}}}",
                r.id.replace('"', "'"),
                r.ns_per_iter,
                1e9 / r.ns_per_iter,
                r.iterations,
                r.samples
            );
            out.push_str(if i + 1 < self.results.len() { ",\n" } else { "\n" });
        }
        out.push_str("]\n");
        std::fs::write(path, out)
    }

    fn run_one<F: FnMut(&mut Bencher)>(
        &mut self,
        id: String,
        samples: usize,
        measurement_time: Duration,
        mut f: F,
    ) {
        let mut result: Option<(f64, u64)> = None;
        let mut bencher =
            Bencher { samples, measurement_time, smoke: smoke_mode(), result: &mut result };
        f(&mut bencher);
        let (ns_per_iter, iterations) = result.unwrap_or((f64::NAN, 0));
        println!("{id:<56} {:>14} /iter", format_ns(ns_per_iter));
        self.results.push(BenchResult { id, ns_per_iter, iterations, samples });
    }
}

/// A group of benchmarks sharing a name prefix and sampling settings.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: Option<usize>,
    measurement_time: Option<Duration>,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n);
        self
    }

    /// Sets the target total measurement time per benchmark.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement_time = Some(d);
        self
    }

    /// Runs one benchmark in this group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        f: F,
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, id.into().id);
        let samples = self.sample_size.unwrap_or(self.criterion.default_sample_size);
        let time = self.measurement_time.unwrap_or(self.criterion.default_measurement_time);
        self.criterion.run_one(full, samples, time, f);
        self
    }

    /// Runs one parameterized benchmark in this group.
    pub fn bench_with_input<I, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        self.bench_function(id, |b| f(b, input))
    }

    /// Criterion-parity group terminator (results are already recorded).
    pub fn finish(&mut self) {}
}

/// The machine fingerprint as a JSON object: `nproc` (available
/// parallelism), `cpu` (the first `model name` in `/proc/cpuinfo`), and
/// `rustc` (the compiler version, recorded by `build.rs`). Fields that
/// cannot be read are `0` / `"unknown"`.
fn machine_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let quote = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": \"{}\", \"rustc\": \"{}\"}}",
        quote(&cpu),
        quote(env!("CRITERION_RUSTC"))
    )
}

fn format_ns(ns: f64) -> String {
    if !ns.is_finite() {
        "n/a".to_string()
    } else if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

/// Bundles benchmark functions under one name, criterion-style.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Emits `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_and_records() {
        let mut c = Criterion {
            default_sample_size: 5,
            default_measurement_time: Duration::from_millis(10),
            ..Criterion::default()
        };
        c.bench_function("spin", |b| b.iter(|| (0..100u64).sum::<u64>()));
        {
            let mut g = c.benchmark_group("grp");
            g.sample_size(3);
            g.bench_with_input(BenchmarkId::new("param", 42), &42u64, |b, &n| {
                b.iter(|| (0..n).product::<u64>())
            });
            g.finish();
        }
        c.bench_function("custom", |b| {
            b.iter_custom(|iters| {
                let start = Instant::now();
                for _ in 0..iters {
                    black_box((0..100u64).sum::<u64>());
                }
                start.elapsed()
            })
        });
        assert_eq!(c.results().len(), 3);
        assert_eq!(c.results()[1].id, "grp/param/42");
        assert!(c.results()[2].ns_per_iter > 0.0);
        assert!(c.results()[0].ns_per_iter > 0.0);
        let path = std::env::temp_dir().join("criterion_stub_test.json");
        c.export_json(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"id\": \"spin\""));
        assert_eq!(text.matches("\"machine\": {\"nproc\": ").count(), 3, "{text}");
        assert!(text.contains(&format!("\"rustc\": \"{}\"", env!("CRITERION_RUSTC"))));
        let _ = std::fs::remove_file(&path);
    }
}
