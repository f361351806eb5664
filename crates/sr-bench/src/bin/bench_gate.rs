//! CI bench-threshold gate for the 100k-cell driver.
//!
//! Runs the headline benchmark workload — the 320×320 taxi grid through
//! the strided driver at θ = 0.05 — a few times and enforces two
//! regressions gates:
//!
//! 1. **Absolute**: the best run on the process-global pool (so
//!    `SR_THREADS` applies, and CI exercises the gate at 1 and 4) must
//!    finish within `SR_GATE_MAX_DRIVER_MS` milliseconds.
//! 2. **Fan-out**: a 4-thread pool must never be slower than a 1-thread
//!    pool by more than `SR_GATE_MAX_T4_RATIO` — the regression the
//!    hardware-parallelism cap in `sr-par` exists to prevent.
//!
//! 3. **Incremental**: one localized re-partition round over a 1%-dirty
//!    320×320 grid (value writes + scan-cache patch +
//!    [`Repartitioner::run_localized`] on a warmed state) must finish
//!    within `SR_GATE_MAX_INCR_MS` milliseconds — the regression gate for
//!    the dirty-region walk (`docs/PERFORMANCE.md`).
//! 4. **Incremental ratio**: the same localized round divided by a cold
//!    [`Repartitioner::run_with_scan`] walk over the same patched grid,
//!    both timed in this process, must stay within
//!    `SR_GATE_MAX_INCR_RATIO` — a same-run ratio that carries across
//!    machines where the absolute ceiling of gate 3 does not. It sits
//!    beside gate 3, not instead of it.
//!
//! All thresholds are env-overridable because wall-clock gates are
//! hardware statements: the defaults (250 ms, 1.25×, 40 ms, 0.25) are sized for
//! the 1-vCPU shared reference container, whose best case for the driver
//! workload is ~135–160 ms with ±1.5× scheduler drift, and where a
//! 4-thread pool pays a real per-region worker-handoff cost (~5–10%,
//! measured 1.05–1.10×) that multicore hardware does not
//! (docs/PERFORMANCE.md). On a dedicated multi-core box, tighten with
//! `SR_GATE_MAX_DRIVER_MS=120 SR_GATE_MAX_T4_RATIO=1.10
//! SR_GATE_MAX_INCR_MS=15`.
//!
//! The timing loops double as determinism checks: the t1 and t4 runs
//! must produce bit-identical outcomes, and the localized rounds must
//! match a non-localized run over the same patched scan inputs — every
//! partition rectangle and every feature bit — or the timings compare
//! different work and the gate aborts.

use sr_core::{
    IterationStrategy, LocalizedState, RepartitionConfig, RepartitionOutcome, Repartitioner,
    ScanCache,
};
use sr_datasets::{Dataset, GridSize};
use sr_grid::{CellId, GridDataset, IflOptions};
use std::time::Instant;

/// Samples per timed configuration; the minimum is compared, because on a
/// shared box the minimum is the only statistic that measures the code.
const SAMPLES: usize = 5;

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn driver() -> Repartitioner {
    let cfg = RepartitionConfig::new(0.05)
        .unwrap()
        .with_strategy(IterationStrategy::Exponential { initial_stride: 8, growth: 1.6 });
    Repartitioner::with_config(cfg).unwrap()
}

/// Best-of-[`SAMPLES`] wall clock of one configuration, plus the outcome
/// of the last run for the determinism cross-check.
fn time_best(mut run: impl FnMut() -> RepartitionOutcome) -> (f64, RepartitionOutcome) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..SAMPLES {
        let t = Instant::now();
        let out = run();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
        last = Some(out);
    }
    (best, last.unwrap())
}

/// Asserts that two outcomes did identical work: group count, IFL bits,
/// iteration count, every partition rectangle, and every feature bit.
fn assert_same_outcome(a: &RepartitionOutcome, b: &RepartitionOutcome, what: &str) {
    let (ra, rb) = (&a.repartitioned, &b.repartitioned);
    assert_eq!(ra.num_groups(), rb.num_groups(), "{what}: group counts differ");
    assert_eq!(ra.ifl().to_bits(), rb.ifl().to_bits(), "{what}: IFL bits differ");
    assert_eq!(a.iterations.len(), b.iterations.len(), "{what}: iteration counts differ");
    assert!(
        ra.partition().rects() == rb.partition().rects(),
        "{what}: partition rectangles differ"
    );
    let (fa, fb) = (ra.features(), rb.features());
    assert_eq!(fa.valid_counts(), fb.valid_counts(), "{what}: group valid counts differ");
    assert!(
        fa.values().iter().zip(fb.values()).all(|(x, y)| x.to_bits() == y.to_bits()),
        "{what}: feature bits differ"
    );
}

/// Deterministic xorshift64* (same generator as the bench suite) so the
/// gate's dirty batches are identical on every machine.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn frac(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn main() {
    let max_driver_ms = env_f64("SR_GATE_MAX_DRIVER_MS", 250.0);
    let max_t4_ratio = env_f64("SR_GATE_MAX_T4_RATIO", 1.25);

    let grid = Dataset::TaxiMultivariate.generate(GridSize::Custom(320, 320), 1);
    let drv = driver();

    let (global_ms, _) = time_best(|| drv.run(&grid).unwrap());
    let pool1 = sr_par::Pool::new(1);
    let pool4 = sr_par::Pool::new(4);
    let (t1_ms, out1) = time_best(|| drv.run_with_pool(&grid, &pool1).unwrap());
    let (t4_ms, out4) = time_best(|| drv.run_with_pool(&grid, &pool4).unwrap());

    println!(
        "bench_gate: 320x320_100k driver best-of-{SAMPLES}: global {global_ms:.1} ms, \
         t1 {t1_ms:.1} ms, t4 {t4_ms:.1} ms (gates: ≤{max_driver_ms:.0} ms, t4 ≤ {max_t4_ratio:.2}×t1)"
    );

    // Determinism cross-check: the two pools must have done identical work.
    assert_same_outcome(&out1, &out4, "t1/t4");

    // Gate 3: localized incremental rounds on a warmed state — a smooth
    // 320×320 univariate surface with a pinned maximum (so scan updates
    // patch in place), 1% of the cells rewritten per round. Each timed
    // round is the full incremental unit of work: value writes + scan
    // patch + localized driver run.
    let max_incr_ms = env_f64("SR_GATE_MAX_INCR_MS", 40.0);
    let max_incr_ratio = env_f64("SR_GATE_MAX_INCR_RATIO", 0.25);
    let (rows, cols) = (320usize, 320usize);
    let n = rows * cols;
    let mut rng = Rng(0x1745_90D1);
    let mut vals = vec![0.0f64; n];
    for r in 0..rows {
        for c in 0..cols {
            let x = (c as f64 + 0.5) / cols as f64;
            let y = (r as f64 + 0.5) / rows as f64;
            vals[r * cols + c] = 50.0 + 40.0 * x + 25.0 * y + 10.0 * rng.frac();
        }
    }
    vals[0] = 200.0; // pinned maximum: deltas below never move normalization
    let mut igrid = GridDataset::univariate(rows, cols, vals).unwrap();
    let pool = sr_par::Pool::global();
    let mut scan = ScanCache::build(&igrid, IflOptions::default());
    let mut state = LocalizedState::new();
    drv.run_localized(&igrid, &scan, &mut state, &[], pool).unwrap();
    let mut incr_ms = f64::INFINITY;
    let mut last: Option<(Option<f64>, RepartitionOutcome)> = None;
    for _ in 0..SAMPLES {
        let mut dirty: Vec<CellId> = Vec::with_capacity(n / 100);
        let mut writes: Vec<(CellId, f64)> = Vec::with_capacity(n / 100);
        for _ in 0..n / 100 {
            // Never cell 0 — it holds the pinned maximum.
            let id = 1 + (rng.next() % (n - 1) as u64) as CellId;
            writes.push((id, 50.0 + 140.0 * rng.frac()));
            dirty.push(id);
        }
        let hint = state.planned_hint(dirty.len(), n);
        let t = Instant::now();
        for &(id, v) in &writes {
            igrid.set_value(id, 0, v);
        }
        scan.update(&igrid, &dirty);
        let out = drv.run_localized(&igrid, &scan, &mut state, &dirty, pool).unwrap();
        incr_ms = incr_ms.min(t.elapsed().as_secs_f64() * 1e3);
        last = Some((hint, out));
    }
    // The cold walk over the same patched grid and scan cache, timed in
    // this process: the denominator of the same-run ratio gate.
    let (cold_ms, _) = time_best(|| drv.run_with_scan(&igrid, &scan, pool).unwrap());
    let incr_ratio = incr_ms / cold_ms;
    println!(
        "bench_gate: localized 1%-dirty round best-of-{SAMPLES}: {incr_ms:.1} ms, \
         cold run_with_scan {cold_ms:.1} ms, ratio {incr_ratio:.3} \
         (gates: ≤{max_incr_ms:.0} ms, ratio ≤ {max_incr_ratio:.2})"
    );

    // Determinism cross-check: the last localized round must equal the
    // batch driver's hinted walk over the same patched grid.
    let (hint, out) = last.unwrap();
    let reference = drv.run_with_pool_warm(&igrid, pool, hint).unwrap();
    assert_same_outcome(&out, &reference, "localized/batch");

    let mut failed = false;
    if global_ms > max_driver_ms {
        eprintln!(
            "bench_gate: FAIL — driver {global_ms:.1} ms exceeds SR_GATE_MAX_DRIVER_MS={max_driver_ms:.0}"
        );
        failed = true;
    }
    if t4_ms > t1_ms * max_t4_ratio {
        eprintln!(
            "bench_gate: FAIL — t4 {t4_ms:.1} ms exceeds {max_t4_ratio:.2}× t1 ({t1_ms:.1} ms): \
             pool fan-out is costing wall-clock"
        );
        failed = true;
    }
    if incr_ms > max_incr_ms {
        eprintln!(
            "bench_gate: FAIL — localized round {incr_ms:.1} ms exceeds \
             SR_GATE_MAX_INCR_MS={max_incr_ms:.0}"
        );
        failed = true;
    }
    if incr_ratio > max_incr_ratio {
        eprintln!(
            "bench_gate: FAIL — localized round / cold walk {incr_ratio:.3} exceeds \
             SR_GATE_MAX_INCR_RATIO={max_incr_ratio:.2}"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("bench_gate: ok");
}
