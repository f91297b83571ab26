//! # polygpu-bench — the experiment harness
//!
//! Regenerates every quantitative result of the paper's evaluation
//! (§4) plus the in-text claims, as catalogued below:
//!
//! * **Table 1 / Table 2** — [`run_table`]: wall time of `N`
//!   evaluations of a dimension-32 system and its Jacobian, simulated
//!   GPU (modeled time) vs 1 CPU core (measured), speedups;
//! * **E3** — [`capacity_sweep`]: the constant-memory wall at 2,048
//!   monomials with `k = 16`, and the compact-encoding extension that
//!   lifts it;
//! * **E4** — [`count_multiplications`]: the `5k − 4` / `3k − 6`
//!   multiplication counts;
//! * **E5** — [`measure_cost_factors`]: the double-double arithmetic
//!   overhead factor (the paper's companion work reports ≈ 8);
//! * **A1 / A2** — [`ablate_common_factor`], [`alt_layout`]:
//!   the design choices of §3.1 and §3.3;
//! * **B1** — [`batch_sweep`]: the batched multi-point engine's
//!   launch/transfer amortization over `P ∈ {1, 4, 16, 64, 256}`.
//!
//! The `repro` binary prints these in paper-style tables; the criterion
//! benches under `benches/` track the same quantities as regressions.

use polygpu_complex::{CDd, Complex, Real, C64};
use polygpu_core::pipeline::{GpuEvaluator, GpuOptions};
use polygpu_core::{BatchGpuEvaluator, EncodingKind};
use polygpu_gpusim::prelude::*;
use polygpu_polysys::{
    cost, random_points, random_system, AdEvaluator, BatchSystemEvaluator, BenchmarkParams,
    SystemEvaluator,
};
use std::time::Instant;

pub mod alt_layout;
pub mod multicore;

/// One row of a reproduced table.
#[derive(Debug, Clone)]
pub struct TableRow {
    pub monomials: usize,
    /// Modeled GPU seconds for `reported_evals` evaluations.
    pub gpu_seconds: f64,
    /// Measured 1-core CPU seconds, scaled to `reported_evals`.
    pub cpu_seconds: f64,
    /// `cpu_seconds / gpu_seconds`: the modeled device against *this
    /// host's* CPU — deflated relative to the paper because the host is
    /// ~14 years newer than the Xeon X5690 while the device model stays
    /// a C2050.
    pub speedup: f64,
    /// Modeled single-point evaluation throughput (evals/sec).
    pub gpu_evals_per_sec: f64,
    /// Modeled throughput of the batched engine at `P = 64`.
    pub gpu_batch64_evals_per_sec: f64,
    /// `paper_cpu / gpu_seconds`: the modeled device against the
    /// paper's own 2012 CPU baseline — the era-consistent comparison,
    /// and fully deterministic (no wall-clock measurement involved).
    pub speedup_vs_2012_cpu: f64,
    /// The paper's figures for the same cell.
    pub paper_gpu: f64,
    pub paper_cpu: f64,
    pub paper_speedup: f64,
}

/// A table specification (Table 1 or Table 2 of the paper).
#[derive(Debug, Clone)]
pub struct TableSpec {
    pub name: &'static str,
    pub k: usize,
    pub d: u16,
    pub totals: [usize; 3],
    pub paper_gpu: [f64; 3],
    pub paper_cpu: [f64; 3],
}

/// Table 1: `k = 9`, `d <= 2`; paper GPU 14.514/15.265/17.000 s, CPU
/// 110.9/159.3/238.7 s (1 min 50.9 s etc.).
pub fn table1_spec() -> TableSpec {
    TableSpec {
        name: "Table 1 (k = 9, d <= 2)",
        k: 9,
        d: 2,
        totals: [704, 1024, 1536],
        paper_gpu: [14.514, 15.265, 17.000],
        paper_cpu: [110.9, 159.3, 238.7],
    }
}

/// Table 2: `k = 16`, `d <= 10`; paper GPU 19.068/20.800/21.763 s, CPU
/// 196.9/283.3/425.8 s.
pub fn table2_spec() -> TableSpec {
    TableSpec {
        name: "Table 2 (k = 16, d <= 10)",
        k: 16,
        d: 10,
        totals: [704, 1024, 1536],
        paper_gpu: [19.068, 20.800, 21.763],
        paper_cpu: [196.9, 283.3, 425.8],
    }
}

/// Robust per-evaluation CPU time: **median** over `repeats` timed
/// passes of the whole point batch (one untimed warm-up pass first).
/// The median filters scheduler and frequency noise symmetrically —
/// unlike the minimum it is also robust against a single
/// too-fast outlier pass — which matters in shared environments at the
/// default quick setting (200 evaluations per pass).
fn measure_cpu_per_eval(cpu: &mut AdEvaluator<f64>, points: &[Vec<C64>], repeats: usize) -> f64 {
    let mut sink = 0.0;
    for p in points {
        sink += cpu.evaluate(p).residual_norm();
    }
    let mut times: Vec<f64> = (0..repeats.max(1))
        .map(|_| {
            let t0 = Instant::now();
            for p in points {
                sink += cpu.evaluate(p).residual_norm();
            }
            t0.elapsed().as_secs_f64() / points.len() as f64
        })
        .collect();
    std::hint::black_box(sink);
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Relative tolerance of the **measured** table-shape check: the CPU
/// time of a bigger row must exceed the smaller row's by more than
/// measurement noise allows in the other direction. Median-of-5 timing
/// keeps residual noise in the low percent range; 10% slack makes the
/// check a property assertion, not a benchmark.
pub const MEASURED_SHAPE_TOLERANCE: f64 = 0.10;

/// Reproduce one table. `measured_evals` CPU evaluations are timed per
/// pass (median of 5 passes) and scaled to `reported_evals` (the
/// paper times 100,000); the GPU time is the pipeline's modeled
/// per-evaluation cost times `reported_evals`.
pub fn run_table(spec: &TableSpec, measured_evals: usize, reported_evals: usize) -> Vec<TableRow> {
    let mut rows = Vec::with_capacity(spec.totals.len());
    for (i, &total) in spec.totals.iter().enumerate() {
        let params = BenchmarkParams {
            n: 32,
            m: total / 32,
            k: spec.k,
            d: spec.d,
            seed: 0xC2050 + i as u64,
        };
        let system = random_system::<f64>(&params);
        // --- CPU: measure the sequential AD algorithm. ---
        let mut cpu = AdEvaluator::new(system.clone()).expect("generator yields uniform systems");
        let points = random_points::<f64>(32, measured_evals.max(1), params.seed ^ 0xAB);
        let cpu_per_eval = measure_cpu_per_eval(&mut cpu, &points, 5);
        // --- GPU: modeled time from the simulated pipeline. ---
        let mut gpu =
            GpuEvaluator::new(&system, GpuOptions::default()).expect("table systems fit the C2050");
        for p in points.iter().take(3) {
            let _ = gpu.evaluate(p);
        }
        let gpu_per_eval = gpu.stats().seconds_per_eval();
        let gpu_seconds = gpu_per_eval * reported_evals as f64;
        let cpu_seconds = cpu_per_eval * reported_evals as f64;
        // --- Batched engine at P = 64: one round trip, same math. ---
        let mut batch = BatchGpuEvaluator::new(&system, 64, GpuOptions::default())
            .expect("table systems fit the C2050");
        let batch_points = random_points::<f64>(32, 64, params.seed ^ 0xB);
        let _ = batch.evaluate_batch(&batch_points);
        rows.push(TableRow {
            monomials: total,
            gpu_seconds,
            cpu_seconds,
            speedup: cpu_seconds / gpu_seconds,
            gpu_evals_per_sec: gpu.stats().throughput_evals_per_sec(),
            gpu_batch64_evals_per_sec: batch.stats().throughput_evals_per_sec(),
            speedup_vs_2012_cpu: spec.paper_cpu[i] / gpu_seconds,
            paper_gpu: spec.paper_gpu[i],
            paper_cpu: spec.paper_cpu[i],
            paper_speedup: spec.paper_cpu[i] / spec.paper_gpu[i],
        });
    }
    rows
}

/// Render a reproduced table in markdown, paper figures alongside.
pub fn format_table(spec: &TableSpec, rows: &[TableRow], reported_evals: usize) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "### {} — {} evaluations of a dim-32 system + Jacobian\n\n",
        spec.name, reported_evals
    ));
    s.push_str(
        "| #monomials | GPU-sim (model) | evals/s | evals/s (batch P=64) | 1 CPU core (measured) | speedup | speedup vs 2012 CPU | paper GPU | paper CPU | paper speedup |\n",
    );
    s.push_str(
        "|-----------:|----------------:|--------:|---------------------:|----------------------:|--------:|--------------------:|----------:|----------:|--------------:|\n",
    );
    for r in rows {
        s.push_str(&format!(
            "| {} | {:.3} s | {:.0} | {:.0} | {:.1} s | {:.2} | {:.2} | {:.3} s | {:.1} s | {:.2} |\n",
            r.monomials,
            r.gpu_seconds,
            r.gpu_evals_per_sec,
            r.gpu_batch64_evals_per_sec,
            r.cpu_seconds,
            r.speedup,
            r.speedup_vs_2012_cpu,
            r.paper_gpu,
            r.paper_cpu,
            r.paper_speedup
        ));
    }
    s
}

/// Shape checks on a reproduced table, mirroring the paper's central
/// observations:
///
/// 1. the era-consistent speedup grows with the monomial count and is
///    double-digit at the top (deterministic: modeled GPU vs the
///    paper's own CPU column);
/// 2. the measured CPU time grows with the monomial count;
/// 3. the modeled GPU time grows much slower than the CPU time
///    (latency-bound device, the reason speedup rises).
pub fn table_shape_holds(rows: &[TableRow]) -> bool {
    table_shape_holds_model(rows) && table_shape_holds_measured(rows)
}

/// The measured (wall-clock) side of [`table_shape_holds`], with
/// [`MEASURED_SHAPE_TOLERANCE`] slack per comparison: CPU time grows
/// with the monomial count, and the modeled GPU time grows slower than
/// the measured CPU time. A failure here is a *measurement* anomaly
/// (host noise), never a model regression — the `repro` binary reports
/// it as a warning and keeps its exit status clean.
pub fn table_shape_holds_measured(rows: &[TableRow]) -> bool {
    let tol = 1.0 - MEASURED_SHAPE_TOLERANCE;
    let cpu_grows = rows
        .windows(2)
        .all(|w| w[1].cpu_seconds > w[0].cpu_seconds * tol);
    let gpu_flat = {
        let first = rows.first().map(|r| r.gpu_seconds).unwrap_or(0.0);
        let last = rows.last().map(|r| r.gpu_seconds).unwrap_or(0.0);
        let cpu_ratio = rows.last().map(|r| r.cpu_seconds).unwrap_or(1.0)
            / rows.first().map(|r| r.cpu_seconds).unwrap_or(1.0);
        last / first < cpu_ratio / tol
    };
    cpu_grows && gpu_flat
}

/// The wall-clock-free subset of [`table_shape_holds`]: only the
/// modeled GPU side and the paper's own CPU column, hence fully
/// deterministic (safe under parallel test execution, where measuring
/// this host's CPU is unreliable).
pub fn table_shape_holds_model(rows: &[TableRow]) -> bool {
    rows.windows(2)
        .all(|w| w[1].speedup_vs_2012_cpu > w[0].speedup_vs_2012_cpu)
        && rows.iter().all(|r| r.speedup_vs_2012_cpu > 1.0)
}

/// E3: for each total monomial count, can the `k = 16` system be set
/// up on the device? Returns `(total, direct_ok, compact_ok,
/// direct_bytes_needed)`.
pub fn capacity_sweep(totals: &[usize]) -> Vec<(usize, bool, bool, usize)> {
    totals
        .iter()
        .map(|&total| {
            let params = BenchmarkParams {
                n: 32,
                m: total / 32,
                k: 16,
                d: 10,
                seed: 1,
            };
            let system = random_system::<f64>(&params);
            let direct = GpuEvaluator::new(&system, GpuOptions::default()).is_ok();
            let compact = GpuEvaluator::new(
                &system,
                GpuOptions {
                    encoding: EncodingKind::Compact,
                    ..Default::default()
                },
            )
            .is_ok();
            (total, direct, compact, 2 * total * 16)
        })
        .collect()
}

/// E4: instrumented multiplication counts of kernel 2 per monomial for
/// a range of `k`: `(k, measured, 5k−4 formula, 3k−6 part, k−1 part)`.
pub fn count_multiplications(ks: &[usize]) -> Vec<(usize, u64, u64, u64, u64)> {
    ks.iter()
        .map(|&k| {
            let params = BenchmarkParams {
                n: 32.max(k),
                m: 1,
                k,
                d: 3,
                seed: k as u64,
            };
            let system = random_system::<f64>(&params);
            let mut gpu = GpuEvaluator::new(&system, GpuOptions::default()).unwrap();
            let x = polygpu_polysys::random_point::<f64>(params.n, 9);
            let _ = gpu.evaluate(&x);
            // Kernel 2 is report index 1; complex muls = flops / 6.
            let k2 = &gpu.last_reports()[1];
            let muls_measured = k2.counters.flops / 6 / params.n as u64;
            (
                k,
                muls_measured,
                cost::kernel2_muls(k),
                cost::speelpenning_muls(k),
                cost::common_factor_muls(k),
            )
        })
        .collect()
}

/// E5: measured wall-clock cost factors of complex double-double and
/// quad-double multiplication relative to complex double, on this
/// host. The paper's companion work reports ≈ 8 for double-double.
pub fn measure_cost_factors(iters: usize) -> (f64, f64) {
    fn bench_mul<R: Real>(iters: usize) -> f64 {
        let mut z = Complex::<R>::from_f64(0.999_999, 1.3e-3);
        let w = Complex::<R>::from_f64(1.000_001, -1.1e-3);
        let t0 = Instant::now();
        for _ in 0..iters {
            z = std::hint::black_box(z * w);
        }
        let dt = t0.elapsed().as_secs_f64();
        std::hint::black_box(z);
        dt / iters as f64
    }
    let f = bench_mul::<f64>(iters);
    let dd = bench_mul::<polygpu_qd::Dd>(iters);
    let qd = bench_mul::<polygpu_qd::Qd>(iters / 16 + 1);
    (dd / f, qd / f)
}

/// A1: modeled counters for the two-stage common-factor kernel vs the
/// from-scratch alternative of §3.1, at maximal degree `d`.
pub struct AblationCf {
    pub two_stage: LaunchReport,
    pub from_scratch: LaunchReport,
}

pub fn ablate_common_factor(d: u16) -> AblationCf {
    let params = BenchmarkParams {
        n: 32,
        m: 32,
        k: 9,
        d,
        seed: 77,
    };
    let system = random_system::<f64>(&params);
    let x = polygpu_polysys::random_point::<f64>(32, 3);
    let mut a = GpuEvaluator::new(&system, GpuOptions::default()).unwrap();
    let _ = a.evaluate(&x);
    let mut b = GpuEvaluator::new(
        &system,
        GpuOptions {
            from_scratch_cf: true,
            ..Default::default()
        },
    )
    .unwrap();
    let _ = b.evaluate(&x);
    AblationCf {
        two_stage: a.last_reports()[0].clone(),
        from_scratch: b.last_reports()[0].clone(),
    }
}

/// One row of the dimension-feasibility sweep (paper §3.1–§3.2): for
/// dimension `n` with `m = n` monomials per polynomial and `k = n/2`
/// variables per monomial, does the system fit the device in the given
/// precision?
#[derive(Debug, Clone)]
pub struct DimRow {
    pub n: usize,
    /// Constant-memory bytes the direct encoding needs.
    pub constant_bytes: usize,
    /// Kernel-2 shared memory per block, bytes.
    pub shared_bytes: usize,
    /// Fits with complex double?
    pub fits_f64: bool,
    /// Fits with complex double-double?
    pub fits_dd: bool,
}

/// Reproduce the paper's working-dimension analysis: "those are ranging
/// from 30 to 40" for constant memory, and "we also could increase
/// precision from double to double double and still work with
/// dimensions up to 70, as long as k is less or equal than a half of
/// dimension" for shared memory.
pub fn dimension_sweep(dims: &[usize]) -> Vec<DimRow> {
    let _device = DeviceSpec::tesla_c2050();
    dims.iter()
        .map(|&n| {
            let k = (n / 2).max(1);
            let m = n;
            let params = BenchmarkParams {
                n,
                m,
                k,
                d: 3,
                seed: n as u64,
            };
            let constant_bytes = 2 * n * m * k;
            // Kernel 2 shared: (n + B*(k+1)) elements.
            let elems = n + 32 * (k + 1);
            let shared_bytes_dd = elems * 32;
            let system = random_system::<f64>(&params);
            let fits_f64 = GpuEvaluator::new(&system, GpuOptions::default()).is_ok();
            let system_dd = system.convert::<polygpu_qd::Dd>();
            let fits_dd = GpuEvaluator::new(&system_dd, GpuOptions::default()).is_ok();
            DimRow {
                n,
                constant_bytes,
                shared_bytes: shared_bytes_dd,
                fits_f64,
                fits_dd,
            }
        })
        .collect()
}

/// A batch CPU evaluation helper shared by the criterion benches:
/// evaluates `points.len()` times and returns a residual checksum so
/// the optimizer cannot discard the work.
pub fn cpu_batch<R: Real>(eval: &mut AdEvaluator<R>, points: &[Vec<Complex<R>>]) -> f64 {
    let mut sink = 0.0;
    for p in points {
        sink += eval.evaluate(p).residual_norm().to_f64();
    }
    sink
}

/// Convenience: a table-shaped system and points for benches.
pub fn bench_fixture(
    total: usize,
    k: usize,
    d: u16,
) -> (AdEvaluator<f64>, GpuEvaluator<f64>, Vec<Vec<C64>>) {
    let params = BenchmarkParams {
        n: 32,
        m: total / 32,
        k,
        d,
        seed: 0xBEEF,
    };
    let system = random_system::<f64>(&params);
    let cpu = AdEvaluator::new(system.clone()).unwrap();
    let gpu = GpuEvaluator::new(&system, GpuOptions::default()).unwrap();
    let points = random_points::<f64>(32, 16, 7);
    (cpu, gpu, points)
}

/// One row of the batched-engine sweep (B1).
#[derive(Debug, Clone, Copy)]
pub struct BatchRow {
    /// Batch size.
    pub p: usize,
    /// Modeled seconds per evaluation.
    pub seconds_per_eval: f64,
    /// Modeled evaluations per second.
    pub evals_per_sec: f64,
    /// Modeled fixed-cost (launch overhead + transfer) seconds per
    /// evaluation — the quantity batching amortizes `P`-fold.
    pub overhead_transfer_per_eval: f64,
    /// Throughput relative to the `P = 1` row.
    pub speedup_vs_p1: f64,
}

/// B1: sweep the batched engine over batch sizes on a Table-1-shaped
/// system, reporting the modeled launch/transfer amortization.
pub fn batch_sweep(total: usize, k: usize, d: u16, ps: &[usize]) -> Vec<BatchRow> {
    let params = BenchmarkParams {
        n: 32,
        m: total / 32,
        k,
        d,
        seed: 0xBA7C4,
    };
    let system = random_system::<f64>(&params);
    // Dedicated P = 1 reference so `speedup_vs_p1` means the same
    // thing regardless of which batch sizes (and in which order) the
    // caller asks for.
    let p1_throughput = {
        let mut gpu = BatchGpuEvaluator::new(&system, 1, GpuOptions::default())
            .expect("sweep systems fit the C2050");
        let points = random_points::<f64>(32, 1, params.seed ^ 1);
        let _ = gpu.evaluate_batch(&points);
        gpu.stats().throughput_evals_per_sec()
    };
    let mut rows: Vec<BatchRow> = Vec::with_capacity(ps.len());
    for &p in ps {
        let mut gpu = BatchGpuEvaluator::new(&system, p, GpuOptions::default())
            .expect("sweep systems fit the C2050");
        let points = random_points::<f64>(32, p, params.seed ^ p as u64);
        let _ = gpu.evaluate_batch(&points);
        let s = gpu.stats();
        let evals_per_sec = s.throughput_evals_per_sec();
        rows.push(BatchRow {
            p,
            seconds_per_eval: s.seconds_per_eval(),
            evals_per_sec,
            overhead_transfer_per_eval: s.overhead_transfer_per_eval(),
            speedup_vs_p1: evals_per_sec / p1_throughput,
        });
    }
    rows
}

/// Render the batch sweep in markdown.
pub fn format_batch_sweep(total: usize, rows: &[BatchRow]) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "### B1 — batched evaluation engine ({total} monomials, one 3-launch round trip per batch)\n\n",
    ));
    s.push_str("| P | modeled s/eval | evals/s | overhead+transfer s/eval | speedup vs P=1 |\n");
    s.push_str("|--:|---------------:|--------:|-------------------------:|---------------:|\n");
    for r in rows {
        s.push_str(&format!(
            "| {} | {:.3e} | {:.0} | {:.3e} | {:.2} |\n",
            r.p, r.seconds_per_eval, r.evals_per_sec, r.overhead_transfer_per_eval, r.speedup_vs_p1
        ));
    }
    s
}

/// One row of the cluster scaling sweep.
#[derive(Debug, Clone, Copy)]
pub struct ClusterRow {
    /// Device count.
    pub d: usize,
    /// Modeled cluster wall seconds for the batch.
    pub wall_seconds: f64,
    /// Modeled cluster throughput (evals/sec on the cluster wall
    /// clock, which is the max over devices).
    pub evals_per_sec: f64,
    /// Throughput relative to the `D = 1` row.
    pub speedup_vs_d1: f64,
    /// Seconds stream overlap shaved off the serialized per-device
    /// model, summed over devices.
    pub overlap_savings: f64,
    /// Busiest device wall over mean device wall (1.0 = balanced).
    pub imbalance: f64,
}

/// Cluster scaling sweep: evaluate one `P = p`-point batch of a
/// Table-1-shaped system on `D`-device clusters of identical C2050s
/// with stream overlap enabled, for each `D` in `ds`. Fully modeled,
/// hence deterministic.
pub fn cluster_sweep(
    total: usize,
    k: usize,
    d_exp: u16,
    p: usize,
    ds: &[usize],
) -> Vec<ClusterRow> {
    use polygpu_cluster::{ClusterOptions, ShardedBatchEvaluator};
    let params = BenchmarkParams {
        n: 32,
        m: total / 32,
        k,
        d: d_exp,
        seed: 0xC105,
    };
    let system = random_system::<f64>(&params);
    let points = random_points::<f64>(32, p, params.seed ^ 0xD);
    let run = |d: usize| -> (f64, f64, f64, f64) {
        let specs = vec![DeviceSpec::tesla_c2050(); d];
        let mut cluster =
            ShardedBatchEvaluator::new(&system, &specs, p.div_ceil(d), ClusterOptions::default())
                .expect("sweep systems fit the C2050");
        let _ = cluster.evaluate_batch(&points);
        let s = cluster.cluster_stats();
        (
            s.wall_seconds,
            s.throughput_evals_per_sec(),
            cluster.overlap_savings(),
            s.imbalance(),
        )
    };
    let raw: Vec<(usize, (f64, f64, f64, f64))> = ds.iter().map(|&d| (d, run(d))).collect();
    // `speedup_vs_d1` is relative to the D = 1 row when the sweep has
    // one (the common case), else to a dedicated reference run.
    let d1_throughput = raw
        .iter()
        .find(|(d, _)| *d == 1)
        .map(|(_, m)| m.1)
        .unwrap_or_else(|| run(1).1);
    raw.into_iter()
        .map(|(d, (wall, tput, savings, imbalance))| ClusterRow {
            d,
            wall_seconds: wall,
            evals_per_sec: tput,
            speedup_vs_d1: tput / d1_throughput,
            overlap_savings: savings,
            imbalance,
        })
        .collect()
}

/// Render the cluster sweep in markdown.
pub fn format_cluster_sweep(total: usize, p: usize, rows: &[ClusterRow]) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "### Cluster scaling — {total} monomials, P = {p}, identical C2050s, stream overlap on\n\n",
    ));
    s.push_str("| D | modeled wall | evals/s | speedup vs D=1 | overlap savings | imbalance |\n");
    s.push_str("|--:|-------------:|--------:|---------------:|----------------:|----------:|\n");
    for r in rows {
        s.push_str(&format!(
            "| {} | {:.1} us | {:.0} | {:.2} | {:.1} us | {:.2} |\n",
            r.d,
            r.wall_seconds * 1e6,
            r.evals_per_sec,
            r.speedup_vs_d1,
            r.overlap_savings * 1e6,
            r.imbalance
        ));
    }
    s
}

/// The multi-system residency report behind `repro session`.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// One row per resident system (label, monomials, constant bytes,
    /// modeled setup seconds, activations).
    pub rows: Vec<polygpu_core::ResidencyRow>,
    /// Setup-cost accounting against the re-encode-every-stage
    /// baseline.
    pub amortization: polygpu_core::SessionAmortization,
    /// Bytes of the shared constant arena in use.
    pub constant_used: usize,
    /// The device's constant-memory budget.
    pub constant_budget: usize,
    /// Modeled cost of one system switch, seconds.
    pub switch_seconds: f64,
}

/// S1: multi-system residency. Three homotopy-stage systems (Table-1
/// shaped, growing monomial counts) co-reside in one device's constant
/// memory through an `engine::Session`; the stage sequence cycles
/// through them `rounds` times with a batched evaluation per stage.
/// Fully modeled, hence deterministic. The acceptance bar — a resident
/// stage costs ≥ 5× less than re-encoding its system — is
/// `amortization.steady_state_ratio`.
pub fn session_residency(rounds: usize) -> SessionReport {
    use polygpu_core::{Backend, Engine};
    let builder = Engine::builder().backend(Backend::GpuBatch { capacity: 8 });
    let mut session = builder
        .session::<f64>()
        .expect("GPU backend opens a session");
    let stages: Vec<(String, _)> = [(352usize, 1u64), (704, 2), (1024, 3)]
        .iter()
        .map(|&(total, seed)| {
            let params = BenchmarkParams {
                n: 32,
                m: total / 32,
                k: 9,
                d: 2,
                seed: 0x5E55 + seed,
            };
            (format!("stage-{total}"), random_system::<f64>(&params))
        })
        .collect();
    let ids: Vec<_> = stages
        .iter()
        .map(|(label, sys)| {
            session
                .load(label, sys)
                .expect("three Table-1-shaped systems co-reside")
        })
        .collect();
    let points = random_points::<f64>(32, 4, 0xABC);
    for _ in 0..rounds {
        for &id in &ids {
            let engine = session.activate(id);
            let evals = engine
                .try_evaluate_batch(&points)
                .expect("resident engines evaluate");
            assert_eq!(evals.len(), points.len());
        }
    }
    SessionReport {
        rows: session.residency(),
        amortization: session.amortization(),
        constant_used: session.constant_bytes_used(),
        constant_budget: session.constant_budget(),
        switch_seconds: session.switch_seconds(),
    }
}

/// Render the residency report in markdown.
pub fn format_session(report: &SessionReport) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "### S1 — multi-system residency ({} systems share {} of {} constant-memory bytes)\n\n",
        report.rows.len(),
        report.constant_used,
        report.constant_budget
    ));
    s.push_str("| system | monomials | constant bytes | setup (modeled) | activations | switch (modeled) |\n");
    s.push_str("|--------|----------:|---------------:|----------------:|------------:|-----------------:|\n");
    for r in &report.rows {
        s.push_str(&format!(
            "| {} | {} | {} | {:.1} us | {} | {:.1} us |\n",
            r.label,
            r.monomials,
            r.constant_bytes,
            r.setup_seconds * 1e6,
            r.activations,
            report.switch_seconds * 1e6
        ));
    }
    let am = &report.amortization;
    s.push_str(&format!(
        "\nstages: {} | session setup cost: {:.1} us | re-encode baseline: {:.1} us \
         | per-stage amortization: {:.1}x (cumulative {:.1}x)\n",
        am.stages,
        am.session_seconds * 1e6,
        am.reencode_seconds * 1e6,
        am.steady_state_ratio,
        am.cumulative_ratio()
    ));
    s
}

/// The two queue fronts the solver tables compare: one path at a time,
/// and the front sized to the engine (`devices × per-device capacity`).
const QUEUE_FRONTS: [(polygpu_homotopy::queue::SlotPolicy, &str); 2] = [
    (polygpu_homotopy::queue::SlotPolicy::Fixed(1), "1"),
    (polygpu_homotopy::queue::SlotPolicy::Auto, "auto"),
];

/// One row of the solver sweep (queue front × backend).
#[derive(Debug, Clone)]
pub struct SolveRow {
    /// The queue's slot policy (`1` or `auto`).
    pub slots: &'static str,
    pub backend: &'static str,
    pub devices: usize,
    pub paths: usize,
    pub successes: usize,
    /// Modeled engine wall seconds, both precision passes.
    pub wall_seconds: f64,
    /// Paths per modeled second (0 for the unmodeled CPU reference).
    pub paths_per_sec: f64,
    /// Mean slot occupancy of the scheduler's front.
    pub occupancy: f64,
    /// Fraction of paths retried in double-double.
    pub escalation_rate: f64,
}

/// The solver sweep plus its deterministic acceptance checks.
#[derive(Debug, Clone)]
pub struct SolveSweep {
    pub rows: Vec<SolveRow>,
    /// One-slot and auto-sized queue endpoints bit-identical to the
    /// scalar `track` reference on every backend.
    pub endpoints_identical: bool,
    /// Queue occupancy of the `SlotPolicy::Auto` front on the D = 4
    /// cluster (the bar is > 0.8).
    pub queue_occupancy_d4: f64,
    /// The escalation demo (f64-unreachable tolerance): paths retried
    /// and rescued in double-double.
    pub escalation_retried: usize,
    pub escalation_rescued: usize,
}

impl SolveSweep {
    /// All model-side acceptance bars of `repro solve` in one place.
    pub fn passes(&self) -> bool {
        self.endpoints_identical
            && self.queue_occupancy_d4 > 0.8
            && self.escalation_retried > 0
            && self.escalation_rescued > 0
    }
}

/// The queue-front × backend table behind `repro solve`: one
/// `SolveRequest` (36 total-degree paths of a dim-2 system) through a
/// one-slot and an auto-sized queue front on the CPU-reference,
/// batched-GPU and 4-device-cluster backends, with modeled throughput,
/// occupancy and escalation telemetry read straight off the
/// `SolveReport`, and every endpoint checked against direct `track`
/// calls. Fully modeled, hence deterministic.
pub fn solve_sweep() -> SolveSweep {
    use polygpu_cluster::Sharded;
    use polygpu_core::engine::EngineBuilder;
    use polygpu_homotopy::homotopy::random_gamma;
    use polygpu_homotopy::prelude::*;

    let params = BenchmarkParams {
        n: 2,
        m: 2,
        k: 2,
        d: 2,
        seed: 5,
    };
    let sys = random_system::<f64>(&params);
    let start = polygpu_homotopy::start::StartSystem::uniform(2, 6); // 36 paths
    let req = SolveRequest::new(sys.clone())
        .with_start(start)
        .with_gamma_seed(11);

    let per_device = 2usize;
    let backends: Vec<(&'static str, EngineBuilder<Sharded>)> = vec![
        (
            "cpu-reference",
            polygpu_cluster::engine_builder().backend(polygpu_core::Backend::CpuReference),
        ),
        (
            "gpu-batch",
            polygpu_cluster::engine_builder().backend(polygpu_core::Backend::GpuBatch {
                capacity: 4 * per_device,
            }),
        ),
        (
            "cluster",
            polygpu_cluster::engine_builder()
                .backend(polygpu_core::Backend::Cluster {
                    devices: vec![DeviceSpec::tesla_c2050(); 4],
                    shard: polygpu_core::engine::ClusterPolicy::default().into(),
                })
                .per_device_capacity(per_device),
        ),
    ];
    // The scalar reference: `track`, one path at a time, on a CPU
    // homotopy with the request's gamma.
    let reference: Vec<PathEndpoint> = req
        .resolve_starts()
        .expect("every start index is in range")
        .iter()
        .map(|x0| {
            let f = AdEvaluator::new(sys.clone()).expect("uniform system");
            let mut h = Homotopy::new(req.start.clone(), f, random_gamma(req.gamma_seed));
            PathEndpoint::Double(track(&mut h, x0, req.params).end().x.clone())
        })
        .collect();

    let mut rows = Vec::new();
    let mut endpoints_identical = true;
    let mut queue_occupancy_d4 = 0.0;
    for (name, builder) in &backends {
        for (slots, label) in QUEUE_FRONTS {
            let report = Solver::from_builder(builder.clone())
                .solve(&req.clone().with_scheduler(SchedulerKind::Queue { slots }))
                .expect("sweep systems fit every backend");
            let wall = report.engine.wall_clock_seconds();
            rows.push(SolveRow {
                slots: label,
                backend: name,
                devices: report.caps.devices,
                paths: report.paths.len(),
                successes: report.successes(),
                wall_seconds: wall,
                paths_per_sec: report.paths_per_second(),
                occupancy: report.occupancy(),
                escalation_rate: report.escalation_rate(),
            });
            // The identity bar: every front on every backend replays
            // the scalar tracker bit for bit.
            endpoints_identical &= report
                .paths
                .iter()
                .map(|p| &p.endpoint)
                .eq(reference.iter());
            if *name == "cluster" && slots == SlotPolicy::Auto {
                queue_occupancy_d4 = report.occupancy();
            }
        }
    }

    // Escalation demo: an f64-unreachable tolerance forces every path
    // into the double-double retry, which rescues them on the same
    // backend spec.
    let brutal = TrackParams {
        corrector: NewtonParams {
            residual_tol: 1e-19,
            step_tol: 1e-21,
            max_iters: 8,
            ..Default::default()
        },
        ..Default::default()
    };
    let esc_req = SolveRequest::new(sys)
        .with_start(polygpu_homotopy::start::StartSystem::uniform(2, 2))
        .with_gamma_seed(33)
        .with_params(brutal)
        .with_precision(PrecisionPolicy::Escalating { dd_params: brutal });
    let esc = Solver::from_builder(backends[1].1.clone())
        .solve(&esc_req)
        .expect("escalation demo fits the batched backend");
    let (retried, rescued) = esc
        .escalation
        .as_ref()
        .map_or((0, 0), |e| (e.retried, e.rescued));

    SolveSweep {
        rows,
        endpoints_identical,
        queue_occupancy_d4,
        escalation_retried: retried,
        escalation_rescued: rescued,
    }
}

/// Render the solver sweep in markdown.
pub fn format_solve_sweep(sweep: &SolveSweep) -> String {
    let mut s = String::new();
    s.push_str(
        "### Solver — one request, every queue front x backend (36 paths, dim-2 system)\n\n",
    );
    s.push_str(
        "| slots | backend | D | paths ok | modeled wall | paths/s | occupancy | escalated |\n",
    );
    s.push_str(
        "|------:|---------|--:|---------:|-------------:|--------:|----------:|----------:|\n",
    );
    for r in &sweep.rows {
        let wall = if r.wall_seconds > 0.0 {
            format!("{:.1} us", r.wall_seconds * 1e6)
        } else {
            "(unmodeled)".to_string()
        };
        let pps = if r.paths_per_sec > 0.0 {
            format!("{:.0}", r.paths_per_sec)
        } else {
            "-".to_string()
        };
        s.push_str(&format!(
            "| {} | {} | {} | {}/{} | {} | {} | {:.2} | {:.0}% |\n",
            r.slots,
            r.backend,
            r.devices,
            r.successes,
            r.paths,
            wall,
            pps,
            r.occupancy,
            r.escalation_rate * 100.0
        ));
    }
    s.push_str(&format!(
        "\nescalation demo (1e-19 tolerance, unreachable in f64): {} retried, {} rescued in double-double\n",
        sweep.escalation_retried, sweep.escalation_rescued
    ));
    s
}

/// One row of the corrector-mode sweep behind `repro newton`.
#[derive(Debug, Clone)]
pub struct NewtonRow {
    /// The queue's slot policy (`1` or `auto`).
    pub slots: &'static str,
    pub backend: &'static str,
    pub mode: &'static str,
    pub successes: usize,
    pub paths: usize,
    /// Modeled engine wall seconds of the solve.
    pub wall_seconds: f64,
    /// Modeled host-to-device traffic.
    pub h2d_bytes: u64,
    /// Modeled device-to-host traffic.
    pub d2h_bytes: u64,
    /// Newton updates applied by fused `correct` calls (0 on the host
    /// path, which corrects through plain evaluation round trips).
    pub corrector_iterations: u64,
    /// Modeled on-device LU / back-substitution kernel time.
    pub factor_seconds: f64,
    pub backsub_seconds: f64,
}

/// The corrector-mode sweep plus its deterministic acceptance checks.
#[derive(Debug, Clone)]
pub struct NewtonSweep {
    pub rows: Vec<NewtonRow>,
    /// `DeviceResident` endpoints bit-identical to `Host` on every
    /// queue front × backend pair.
    pub endpoints_identical: bool,
    /// The resident solve downloads strictly fewer modeled bytes than
    /// the host-loop solve on every pair.
    pub d2h_reduced: bool,
    /// Micro-audit of one fused `try_correct_batch` call on the
    /// batched backend: points corrected, …
    pub points: usize,
    /// … bytes the fused loop downloaded *beyond* the one final
    /// endpoint download (i.e. everything that crossed per iteration),
    pub flag_bytes: u64,
    /// … the exact flag traffic the driver reported charging
    /// (`Σ live · FLAG_BYTES` over the rounds), replayed host-side,
    pub expected_flag_bytes: u64,
    /// … the one-time endpoint upload/download size (`P·n` elements),
    pub endpoint_bytes: u64,
    /// … and what the host loop downloads for the *same* correction
    /// (values + Jacobians, every iteration).
    pub host_loop_d2h: u64,
}

impl NewtonSweep {
    /// All model-side acceptance bars of `repro newton`, with the
    /// strings the binary prints.
    pub fn checks(&self) -> [(&'static str, bool); 4] {
        [
            (
                "identity check (DeviceResident endpoints bit-identical to Host, every queue front x backend)",
                self.endpoints_identical,
            ),
            (
                "transfer check (resident solve downloads fewer modeled bytes on every pair)",
                self.d2h_reduced,
            ),
            (
                "flag check (per-iteration download is exactly the O(P) convergence-flag vector)",
                self.expected_flag_bytes > 0 && self.flag_bytes == self.expected_flag_bytes,
            ),
            (
                "loop check (fused total download undercuts the host loop's per-iteration traffic)",
                self.endpoint_bytes + self.flag_bytes < self.host_loop_d2h,
            ),
        ]
    }

    /// All bars in one predicate (what CI gates on).
    pub fn passes(&self) -> bool {
        self.checks().iter().all(|(_, ok)| *ok)
    }
}

/// The corrector-mode table behind `repro newton`: the `solve_sweep`
/// request (36 total-degree paths of a dim-2 system) through a
/// one-slot and an auto-sized queue front on the batched-GPU and
/// point-sharded-cluster backends,
/// once with [`polygpu_core::CorrectorMode::Host`] and once with
/// [`polygpu_core::CorrectorMode::DeviceResident`], plus a micro-audit
/// of one fused
/// `try_correct_batch` call that reconciles its modeled download
/// byte-for-byte against the driver's reported flag charges. Fully
/// modeled, hence deterministic.
pub fn newton_sweep() -> NewtonSweep {
    use polygpu_cluster::Sharded;
    use polygpu_core::engine::{AnyEvaluator, EngineBuilder};
    use polygpu_core::{
        drive_correct, BatchError, CorrectCharge, CorrectOps, CorrectParams, CorrectorMode,
        IdentityCombine, FLAG_BYTES,
    };
    use polygpu_homotopy::prelude::*;
    use polygpu_polysys::SystemEval;

    let params = BenchmarkParams {
        n: 2,
        m: 2,
        k: 2,
        d: 2,
        seed: 5,
    };
    let sys = random_system::<f64>(&params);
    let start = polygpu_homotopy::start::StartSystem::uniform(2, 6); // 36 paths
    let req = SolveRequest::new(sys.clone())
        .with_start(start)
        .with_gamma_seed(11);

    let per_device = 2usize;
    let backends: Vec<(&'static str, EngineBuilder<Sharded>)> = vec![
        (
            "gpu-batch",
            polygpu_cluster::engine_builder().backend(polygpu_core::Backend::GpuBatch {
                capacity: 4 * per_device,
            }),
        ),
        (
            "cluster",
            polygpu_cluster::engine_builder()
                .backend(polygpu_core::Backend::Cluster {
                    devices: vec![DeviceSpec::tesla_c2050(); 4],
                    shard: polygpu_core::engine::ClusterPolicy::default().into(),
                })
                .per_device_capacity(per_device),
        ),
    ];
    let mut rows = Vec::new();
    let mut endpoints_identical = true;
    let mut d2h_reduced = true;
    for (name, builder) in &backends {
        for (slots, front) in QUEUE_FRONTS {
            let mut pair: Vec<(Vec<PathEndpoint>, u64)> = Vec::new();
            for (mode, label) in [
                (CorrectorMode::Host, "host"),
                (CorrectorMode::DeviceResident, "resident"),
            ] {
                let report = Solver::from_builder(builder.clone())
                    .solve(
                        &req.clone()
                            .with_scheduler(SchedulerKind::Queue { slots })
                            .with_corrector(mode),
                    )
                    .expect("sweep systems fit every backend");
                rows.push(NewtonRow {
                    slots: front,
                    backend: name,
                    mode: label,
                    successes: report.successes(),
                    paths: report.paths.len(),
                    wall_seconds: report.engine.wall_clock_seconds(),
                    h2d_bytes: report.engine.h2d_bytes,
                    d2h_bytes: report.engine.d2h_bytes,
                    corrector_iterations: report.engine.corrector_iterations,
                    factor_seconds: report.engine.factor_seconds,
                    backsub_seconds: report.engine.backsub_seconds,
                });
                pair.push((
                    report.paths.iter().map(|p| p.endpoint.clone()).collect(),
                    report.engine.d2h_bytes,
                ));
            }
            endpoints_identical &= pair[0].0 == pair[1].0;
            d2h_reduced &= pair[1].1 < pair[0].1;
        }
    }

    // Micro-audit: one fused correction of P points, reconciled
    // byte-for-byte against the charges the shared driver reports.
    // The fused call uploads the iterates once and downloads them
    // once (the same `P·n` elements each way), so everything the
    // engine downloaded beyond its upload size is per-iteration
    // traffic — which must equal the flag words the driver charged.
    struct ChargeRecorder<'a> {
        engine: &'a mut dyn AnyEvaluator<f64>,
        flag_bytes: u64,
    }
    impl CorrectOps<f64> for ChargeRecorder<'_> {
        fn eval(
            &mut self,
            points: &[Vec<C64>],
            _indices: &[usize],
        ) -> Result<Vec<SystemEval<f64>>, BatchError> {
            self.engine.try_evaluate_batch(points)
        }
        fn charge(&mut self, ev: CorrectCharge) -> Result<(), BatchError> {
            if let CorrectCharge::Flags { count } = ev {
                self.flag_bytes += (count * FLAG_BYTES) as u64;
            }
            Ok(())
        }
    }
    /// The host loop on the same engine: every round downloads values
    /// and Jacobians through the ordinary batched evaluation path.
    struct HostLoop<'a>(&'a mut dyn AnyEvaluator<f64>);
    impl CorrectOps<f64> for HostLoop<'_> {
        fn eval(
            &mut self,
            points: &[Vec<C64>],
            _indices: &[usize],
        ) -> Result<Vec<SystemEval<f64>>, BatchError> {
            self.0.try_evaluate_batch(points)
        }
    }

    let probe_points: Vec<Vec<C64>> = random_points::<f64>(2, 8, 31);
    let cparams = CorrectParams::default();

    let mut cpu = polygpu_cluster::engine_builder()
        .backend(polygpu_core::Backend::CpuReference)
        .build(&sys)
        .expect("cpu reference always builds");
    let mut recorder = ChargeRecorder {
        engine: cpu.as_mut(),
        flag_bytes: 0,
    };
    let mut ref_pts = probe_points.clone();
    drive_correct(&mut recorder, &mut IdentityCombine, &mut ref_pts, &cparams)
        .expect("host replay of the probe correction succeeds");
    let expected_flag_bytes = recorder.flag_bytes;

    let mut fused = backends[0].1.clone().build(&sys).expect("probe fits");
    fused.reset_engine_stats();
    let mut fused_pts = probe_points.clone();
    fused
        .try_correct_batch(&mut fused_pts, &mut IdentityCombine, &cparams)
        .expect("fused probe correction succeeds");
    let fused_stats = fused.engine_stats();
    let endpoint_bytes = fused_stats.h2d_bytes;
    let flag_bytes = fused_stats.d2h_bytes.saturating_sub(endpoint_bytes);

    let mut host = backends[0].1.clone().build(&sys).expect("probe fits");
    host.reset_engine_stats();
    let mut host_pts = probe_points.clone();
    drive_correct(
        &mut HostLoop(host.as_mut()),
        &mut IdentityCombine,
        &mut host_pts,
        &cparams,
    )
    .expect("host-loop probe correction succeeds");
    let host_loop_d2h = host.engine_stats().d2h_bytes;
    endpoints_identical &= fused_pts == host_pts && fused_pts == ref_pts;

    NewtonSweep {
        rows,
        endpoints_identical,
        d2h_reduced,
        points: probe_points.len(),
        flag_bytes,
        expected_flag_bytes,
        endpoint_bytes,
        host_loop_d2h,
    }
}

/// Render the corrector-mode sweep in markdown.
pub fn format_newton_sweep(sweep: &NewtonSweep) -> String {
    let mut s = String::new();
    s.push_str(
        "### Device-resident Newton — corrector mode x queue front x backend (36 paths, dim-2 system)\n\n",
    );
    s.push_str(
        "| slots | backend | corrector | paths ok | modeled wall | H2D | D2H | fused iters | factor+backsub |\n",
    );
    s.push_str(
        "|------:|---------|-----------|---------:|-------------:|----:|----:|------------:|---------------:|\n",
    );
    for r in &sweep.rows {
        let kernels = if r.factor_seconds > 0.0 {
            format!("{:.2} us", (r.factor_seconds + r.backsub_seconds) * 1e6)
        } else {
            "-".to_string()
        };
        s.push_str(&format!(
            "| {} | {} | {} | {}/{} | {:.1} us | {} KiB | {} KiB | {} | {} |\n",
            r.slots,
            r.backend,
            r.mode,
            r.successes,
            r.paths,
            r.wall_seconds * 1e6,
            r.h2d_bytes / 1024,
            r.d2h_bytes / 1024,
            r.corrector_iterations,
            kernels,
        ));
    }
    s.push_str(&format!(
        "\nfused probe ({} points): {} B endpoint upload+download, {} B flag downloads \
         (driver charged {} B); the host loop moves {} B D2H for the same correction\n",
        sweep.points,
        sweep.endpoint_bytes,
        sweep.flag_bytes,
        sweep.expected_flag_bytes,
        sweep.host_loop_d2h
    ));
    s
}

/// One row of the system-sharding sweep.
#[derive(Debug, Clone)]
pub struct SyshardRow {
    /// Device count.
    pub d: usize,
    /// Whether the over-budget system built at this `D`.
    pub built: bool,
    /// Constant bytes resident across the fleet (0 when the build was
    /// rejected).
    pub constant_bytes: usize,
    /// Modeled wall seconds of the evaluation batch.
    pub wall_seconds: f64,
    /// Share of the wall clock spent on the inter-device gather.
    pub gather_fraction: f64,
    /// Modeled evaluations per second.
    pub evals_per_sec: f64,
}

/// The system-sharding sweep plus its deterministic acceptance checks.
#[derive(Debug, Clone)]
pub struct SyshardSweep {
    /// The over-budget (2,048-monomial, k = 16) system across
    /// D ∈ {1, 2, 4}.
    pub rows: Vec<SyshardRow>,
    /// `D = 1` (single device) must reject the over-budget encoding.
    pub over_budget_rejected_at_d1: bool,
    /// Row-sharded results at D ∈ {2, 4} bit-identical to the CPU
    /// reference.
    pub identical_to_cpu: bool,
    /// Compute-bound 1,536-monomial shape: row-sharded D = 4 wall
    /// clock vs D = 1 (same points, same system — fits one device).
    pub d1_wall_seconds: f64,
    pub d4_wall_seconds: f64,
    /// Gather share of the D = 4 compute-bound run.
    pub d4_gather_fraction: f64,
}

impl SyshardSweep {
    /// The named model-side acceptance bars of `repro syshard` — the
    /// single source of truth behind both [`SyshardSweep::passes`] and
    /// the PASS/FAIL lines the `repro` binary prints.
    pub fn checks(&self) -> [(&'static str, bool); 4] {
        [
            (
                "budget check (2,048-monomial k = 16 encoding rejected by one device)",
                self.over_budget_rejected_at_d1,
            ),
            (
                "build check (the same system builds row-sharded at D = 2 and D = 4)",
                self.rows.iter().filter(|r| r.built).count() == 2,
            ),
            (
                "identity check (row-sharded results bit-identical to the CPU reference)",
                self.identical_to_cpu,
            ),
            (
                "scaling check (row-sharded D = 4 beats D = 1 on the compute-bound shape)",
                self.d4_wall_seconds < self.d1_wall_seconds,
            ),
        ]
    }

    /// All acceptance bars at once: the wall stands at D = 1, falls at
    /// D ∈ {2, 4} bit-identically, and D = 4 beats D = 1 on the
    /// compute-bound shape despite the gather.
    pub fn passes(&self) -> bool {
        self.checks().iter().all(|(_, ok)| *ok)
    }

    /// Speedup of row-sharded D = 4 over D = 1 on the compute-bound
    /// shape.
    pub fn d4_speedup(&self) -> f64 {
        if self.d4_wall_seconds > 0.0 {
            self.d1_wall_seconds / self.d4_wall_seconds
        } else {
            0.0
        }
    }
}

/// The system-sharding table behind `repro syshard`: the paper's
/// over-budget 2,048-monomial k = 16 system (65,536 support bytes
/// against a 65,280-byte constant budget) is rejected by one device,
/// then built row-sharded over D ∈ {2, 4} and checked bit-identical to
/// the CPU reference; a compute-bound 1,536-monomial shape that *does*
/// fit one device shows the wall-clock win of spreading the equations.
/// Fully modeled, hence deterministic.
pub fn syshard_sweep() -> SyshardSweep {
    use polygpu_cluster::{RowClusterOptions, RowShardedEvaluator};

    // Part 1: the constant-memory wall, lifted D-fold.
    let over = random_system::<f64>(&BenchmarkParams {
        n: 32,
        m: 64,
        k: 16,
        d: 10,
        seed: 3,
    });
    let p_small = 4usize;
    let points = random_points::<f64>(32, p_small, 21);
    let mut reference = AdEvaluator::new(over.clone()).expect("CPU takes any uniform system");
    let want = reference.evaluate_batch(&points);
    let mut rows = Vec::new();
    let mut over_budget_rejected_at_d1 = false;
    let mut identical_to_cpu = true;
    for d in [1usize, 2, 4] {
        let specs = vec![DeviceSpec::tesla_c2050(); d];
        match RowShardedEvaluator::new(&over, &specs, p_small, RowClusterOptions::default()) {
            Err(_) => {
                if d == 1 {
                    over_budget_rejected_at_d1 = true;
                }
                rows.push(SyshardRow {
                    d,
                    built: false,
                    constant_bytes: 0,
                    wall_seconds: 0.0,
                    gather_fraction: 0.0,
                    evals_per_sec: 0.0,
                });
            }
            Ok(mut cluster) => {
                let got = cluster.evaluate_batch(&points);
                for (g, w) in got.iter().zip(&want) {
                    identical_to_cpu &=
                        g.values == w.values && g.jacobian.as_slice() == w.jacobian.as_slice();
                }
                let s = cluster.cluster_stats();
                let caps = polygpu_core::AnyEvaluator::caps(&cluster);
                rows.push(SyshardRow {
                    d,
                    built: true,
                    constant_bytes: caps.constant_bytes,
                    wall_seconds: s.wall_seconds,
                    gather_fraction: s.gather_fraction(),
                    evals_per_sec: s.throughput_evals_per_sec(),
                });
            }
        }
    }

    // Part 2: the compute-bound wall-clock win (1,536 monomials fits
    // one device, so D = 1 is a fair baseline).
    let fits = random_system::<f64>(&BenchmarkParams {
        n: 32,
        m: 48,
        k: 16,
        d: 10,
        seed: 9,
    });
    let p = 32usize;
    let big_points = random_points::<f64>(32, p, 13);
    let wall = |d: usize| -> (f64, f64) {
        let specs = vec![DeviceSpec::tesla_c2050(); d];
        let mut cluster = RowShardedEvaluator::new(&fits, &specs, p, RowClusterOptions::default())
            .expect("1,536 monomials fit one device");
        let _ = cluster.evaluate_batch(&big_points);
        let s = cluster.cluster_stats();
        (s.wall_seconds, s.gather_fraction())
    };
    let (d1_wall_seconds, _) = wall(1);
    let (d4_wall_seconds, d4_gather_fraction) = wall(4);

    SyshardSweep {
        rows,
        over_budget_rejected_at_d1,
        identical_to_cpu,
        d1_wall_seconds,
        d4_wall_seconds,
        d4_gather_fraction,
    }
}

/// Render the system-sharding sweep in markdown.
pub fn format_syshard_sweep(sweep: &SyshardSweep) -> String {
    let mut s = String::new();
    s.push_str(
        "### System sharding — 2,048 monomials x k = 16 (65,536 support bytes, budget 65,280/device)\n\n",
    );
    s.push_str("| D | build | constant bytes (fleet) | modeled wall | gather share | evals/s |\n");
    s.push_str("|--:|-------|-----------------------:|-------------:|-------------:|--------:|\n");
    for r in &sweep.rows {
        if r.built {
            s.push_str(&format!(
                "| {} | ok | {} | {:.1} us | {:.0}% | {:.0} |\n",
                r.d,
                r.constant_bytes,
                r.wall_seconds * 1e6,
                r.gather_fraction * 100.0,
                r.evals_per_sec
            ));
        } else {
            s.push_str(&format!(
                "| {} | REJECTED (constant overflow — the paper's wall) | - | - | - | - |\n",
                r.d
            ));
        }
    }
    s.push_str(&format!(
        "\ncompute-bound 1,536-monomial shape, P = 32: D = 1 wall {:.1} us, \
         row-sharded D = 4 wall {:.1} us ({:.2}x, gather share {:.0}%)\n",
        sweep.d1_wall_seconds * 1e6,
        sweep.d4_wall_seconds * 1e6,
        sweep.d4_speedup(),
        sweep.d4_gather_fraction * 100.0
    ));
    s
}

/// One chaos run: a full solve under a seeded fault plan.
#[derive(Debug, Clone)]
pub struct ChaosRow {
    /// Shard mode of the cluster backend ("points" or "rows").
    pub shard: &'static str,
    /// Device count.
    pub d: usize,
    /// Fault-plan seed.
    pub seed: u64,
    /// "clean" (no fault struck), "recovered" (faults struck, solve
    /// finished), or "degraded"/"fault" (typed error surfaced).
    pub outcome: &'static str,
    /// Faults observed (engine injections + scheduler-level).
    pub faults: u64,
    /// Retries issued by engine-level recovery.
    pub retries: u64,
    /// Shards/loads re-planned onto surviving devices.
    pub failovers: u64,
    /// Share of the modeled wall clock spent detecting and recovering.
    pub recovery_share: f64,
    /// Endpoints bit-identical to the fault-free run (only meaningful
    /// when the solve finished).
    pub identical: bool,
}

/// The chaos sweep plus its deterministic acceptance checks.
#[derive(Debug, Clone)]
pub struct ChaosSweep {
    pub rows: Vec<ChaosRow>,
    /// Total faults observed across the sweep.
    pub faults_observed: u64,
    /// Runs that finished despite faults striking.
    pub recovered_runs: usize,
    /// Runs ending in a typed error (degraded fleet or surfaced
    /// fault) — allowed, never a panic.
    pub typed_failures: usize,
    /// Every finished run's endpoints bit-identical to its fault-free
    /// reference.
    pub all_identical: bool,
    /// Worst recovery share of any finished run.
    pub max_recovery_share: f64,
}

impl ChaosSweep {
    /// The named acceptance bars of `repro chaos` — the single source
    /// of truth behind both [`ChaosSweep::passes`] and the PASS/FAIL
    /// lines the `repro` binary prints.
    pub fn checks(&self) -> [(&'static str, bool); 4] {
        [
            (
                "injection check (the sweep actually struck faults)",
                self.faults_observed > 0,
            ),
            (
                "recovery check (some runs finished despite faults)",
                self.recovered_runs > 0,
            ),
            (
                "identity check (every recovered run bit-identical to the fault-free run)",
                self.all_identical,
            ),
            (
                "overhead check (recovery never dominates the wall clock)",
                self.max_recovery_share < 0.9,
            ),
        ]
    }

    /// All acceptance bars at once: faults strike, solves survive them,
    /// survivors are bit-identical, and recovery cost stays bounded.
    pub fn passes(&self) -> bool {
        self.checks().iter().all(|(_, ok)| *ok)
    }
}

/// The chaos table behind `repro chaos`: one solve (16 total-degree
/// paths of a dim-4 system, queue scheduler) per
/// {points, rows} × D ∈ {2, 4} × fault seed, every run under a seeded
/// [`FaultPlan`]. Cluster-internal recovery (retry → failover) absorbs
/// most strikes; whatever reaches the scheduler is retried with
/// modeled backoff; a run that outlives recovery must end in a *typed*
/// error. The headline invariant: every run that finishes produces
/// endpoints **bit-identical** to its fault-free reference. Fully
/// modeled, hence deterministic — same seeds, same table, forever.
pub fn chaos_sweep() -> ChaosSweep {
    use polygpu_cluster::Sharded;
    use polygpu_core::engine::{ClusterPolicy, EngineBuilder, SystemShardPolicy};
    use polygpu_core::BatchError;
    use polygpu_homotopy::prelude::*;

    let sys = random_system::<f64>(&BenchmarkParams {
        n: 4,
        m: 4,
        k: 2,
        d: 2,
        seed: 17,
    });
    let start = polygpu_homotopy::start::StartSystem::uniform(4, 2); // 16 paths
    let req = SolveRequest::new(sys).with_start(start).with_gamma_seed(29);
    let per_device = 2usize;
    let builder = |shard: &'static str, d: usize| -> EngineBuilder<Sharded> {
        let shard = match shard {
            "points" => ClusterPolicy::default().into(),
            _ => SystemShardPolicy::Contiguous.into(),
        };
        polygpu_cluster::engine_builder()
            .backend(polygpu_core::Backend::Cluster {
                devices: vec![DeviceSpec::tesla_c2050(); d],
                shard,
            })
            .per_device_capacity(per_device)
    };

    let mut rows = Vec::new();
    let mut faults_observed = 0u64;
    let mut recovered_runs = 0usize;
    let mut typed_failures = 0usize;
    let mut all_identical = true;
    let mut max_recovery_share: f64 = 0.0;
    for shard in ["points", "rows"] {
        for d in [2usize, 4] {
            let clean = Solver::from_builder(builder(shard, d))
                .solve(&req)
                .expect("the fault-free reference must solve");
            let want: Vec<PathEndpoint> = clean.paths.iter().map(|p| p.endpoint.clone()).collect();
            for seed in 0..3u64 {
                let solver =
                    Solver::from_builder(builder(shard, d).fault_plan(FaultPlan::new(seed, 300)));
                let row = match solver.solve(&req) {
                    Ok(report) => {
                        let got: Vec<PathEndpoint> =
                            report.paths.iter().map(|p| p.endpoint.clone()).collect();
                        let identical = got == want;
                        all_identical &= identical;
                        let faults = report.fault.faults + report.fault.engine.faults;
                        faults_observed += faults;
                        if faults > 0 {
                            recovered_runs += 1;
                        }
                        let share = report
                            .fault
                            .engine
                            .recovery_share(report.engine.wall_clock_seconds());
                        max_recovery_share = max_recovery_share.max(share);
                        ChaosRow {
                            shard,
                            d,
                            seed,
                            outcome: if faults > 0 { "recovered" } else { "clean" },
                            faults,
                            retries: report.fault.engine.retries,
                            failovers: report.fault.engine.failovers,
                            recovery_share: share,
                            identical,
                        }
                    }
                    Err(SolveError::Fault(e)) => {
                        typed_failures += 1;
                        faults_observed += 1;
                        ChaosRow {
                            shard,
                            d,
                            seed,
                            outcome: if matches!(e, BatchError::DegradedFleet { .. }) {
                                "degraded"
                            } else {
                                "fault"
                            },
                            faults: 1,
                            retries: 0,
                            failovers: 0,
                            recovery_share: 0.0,
                            identical: false,
                        }
                    }
                    Err(e) => panic!("chaos must fail typed, got: {e}"),
                };
                rows.push(row);
            }
        }
    }

    ChaosSweep {
        rows,
        faults_observed,
        recovered_runs,
        typed_failures,
        all_identical,
        max_recovery_share,
    }
}

/// Render the chaos sweep in markdown.
pub fn format_chaos_sweep(sweep: &ChaosSweep) -> String {
    let mut s = String::new();
    s.push_str(
        "### Chaos — solves under seeded fault injection (16 paths, dim-4 system, 300 ppm op fault rate)\n\n",
    );
    s.push_str("| shard | D | seed | outcome | faults | retries | failovers | recovery share | bit-identical |\n");
    s.push_str("|-------|--:|-----:|---------|-------:|--------:|----------:|---------------:|---------------|\n");
    for r in &sweep.rows {
        let identical = match r.outcome {
            "clean" | "recovered" => {
                if r.identical {
                    "yes"
                } else {
                    "NO"
                }
            }
            _ => "-",
        };
        s.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} | {} | {:.0}% | {} |\n",
            r.shard,
            r.d,
            r.seed,
            r.outcome,
            r.faults,
            r.retries,
            r.failovers,
            r.recovery_share * 100.0,
            identical
        ));
    }
    s.push_str(&format!(
        "\n{} faults across {} runs: {} recovered, {} typed failures, worst recovery share {:.0}%\n",
        sweep.faults_observed,
        sweep.rows.len(),
        sweep.recovered_runs,
        sweep.typed_failures,
        sweep.max_recovery_share * 100.0
    ));
    s
}

/// One traced solve of the trace sweep.
#[derive(Debug, Clone)]
pub struct TraceRow {
    /// Shard mode of the cluster backend ("points" or "rows").
    pub shard: &'static str,
    /// Device count.
    pub d: usize,
    /// Fault-plan seed (`None` = fault-free run).
    pub seed: Option<u64>,
    /// "clean", "recovered", or "fault" (typed error surfaced).
    pub outcome: &'static str,
    /// Spans recorded by the solve.
    pub spans: usize,
    /// Size of the exported Chrome-trace JSON in bytes.
    pub json_bytes: usize,
    /// Rerunning with the same seed produced byte-identical JSON.
    pub deterministic: bool,
    /// Span durations reconcile with the report's modeled stats.
    pub reconciled: bool,
    /// Fault-lifecycle spans (retry/backoff/detect/reencode/fallback).
    pub fault_spans: usize,
}

/// The trace sweep plus its deterministic acceptance checks.
#[derive(Debug, Clone)]
pub struct TraceSweep {
    pub rows: Vec<TraceRow>,
    /// Every run's exported trace byte-identical across two runs.
    pub all_deterministic: bool,
    /// Every finished run's span tree sums to its modeled wall clock.
    pub all_reconciled: bool,
    /// Installing a no-op tracer left endpoints, modeled timings, and
    /// telemetry bit-identical to the untraced solve.
    pub noop_identical: bool,
    /// Runs that finished despite faults striking.
    pub faulted_runs: usize,
    /// Every faulted-but-finished run recorded fault-lifecycle spans.
    pub fault_spans_present: bool,
    /// Rendered [`TelemetrySnapshot`](polygpu_obs::TelemetrySnapshot)
    /// of one clean traced run, for display.
    pub sample_telemetry: String,
}

impl TraceSweep {
    /// The named acceptance bars of `repro trace` — the single source
    /// of truth behind both [`TraceSweep::passes`] and the PASS/FAIL
    /// lines the `repro` binary prints.
    pub fn checks(&self) -> [(&'static str, bool); 4] {
        [
            (
                "determinism check (same seed ⇒ byte-identical Chrome trace)",
                self.all_deterministic,
            ),
            (
                "reconciliation check (span tree sums to the modeled wall clock)",
                self.all_reconciled,
            ),
            (
                "no-op check (an installed no-op tracer changes nothing)",
                self.noop_identical,
            ),
            (
                "fault-span check (every recovered run shows fault-lifecycle spans)",
                self.faulted_runs > 0 && self.fault_spans_present,
            ),
        ]
    }

    /// All acceptance bars at once: traces replay byte-for-byte, spans
    /// reconcile with the stats structs, tracing never perturbs the
    /// solve, and chaos leaves a visible fault trail.
    pub fn passes(&self) -> bool {
        self.checks().iter().all(|(_, ok)| *ok)
    }
}

/// The trace table behind `repro trace`: the chaos-sweep workload (16
/// total-degree paths of a dim-4 system, queue scheduler, cluster
/// backends) rerun with a [`CollectingTracer`](polygpu_obs::CollectingTracer)
/// installed. Each {shard, D, fault seed} cell is solved **twice** and
/// the exported Chrome-trace JSON compared byte-for-byte — spans are
/// timestamped by the simulated clock, so the trace is as deterministic
/// as the solve itself. Finished runs additionally reconcile the span
/// tree against the report (root `solve` span == modeled wall clock,
/// cluster `batch` spans sum to the engine wall), and faulted runs must
/// leave retry/backoff/detect spans behind. Fully modeled, hence
/// deterministic — same seeds, same table, forever.
pub fn trace_sweep() -> TraceSweep {
    use polygpu_cluster::Sharded;
    use polygpu_core::engine::{ClusterPolicy, EngineBuilder, SystemShardPolicy};
    use polygpu_homotopy::prelude::*;
    use polygpu_obs::{chrome_trace_json, CollectingTracer, NoopTracer, SpanKind, Track};
    use std::sync::Arc;

    let sys = random_system::<f64>(&BenchmarkParams {
        n: 4,
        m: 4,
        k: 2,
        d: 2,
        seed: 17,
    });
    let start = polygpu_homotopy::start::StartSystem::uniform(4, 2); // 16 paths
    let req = SolveRequest::new(sys).with_start(start).with_gamma_seed(29);
    let per_device = 2usize;
    let builder = |shard: &'static str, d: usize| -> EngineBuilder<Sharded> {
        let shard = match shard {
            "points" => ClusterPolicy::default().into(),
            _ => SystemShardPolicy::Contiguous.into(),
        };
        polygpu_cluster::engine_builder()
            .backend(polygpu_core::Backend::Cluster {
                devices: vec![DeviceSpec::tesla_c2050(); d],
                shard,
            })
            .per_device_capacity(per_device)
    };
    const FAULT_KINDS: [SpanKind; 5] = [
        SpanKind::Retry,
        SpanKind::Backoff,
        SpanKind::Detect,
        SpanKind::Reencode,
        SpanKind::Fallback,
    ];
    let rel_eq = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1e-30);

    let mut rows = Vec::new();
    let mut all_deterministic = true;
    let mut all_reconciled = true;
    let mut noop_identical = true;
    let mut faulted_runs = 0usize;
    let mut fault_spans_present = true;
    let mut sample_telemetry = String::new();
    // The headline cell from the acceptance criteria (row-sharded D = 4
    // under chaos) plus the point-sharded D = 2 counterpart.
    for (shard, d) in [("points", 2usize), ("rows", 4)] {
        // No-op bit-identity: the untraced reference vs. a solve with a
        // no-op tracer installed. Nothing — endpoints, modeled wall
        // clock, telemetry — may move.
        let plain = Solver::from_builder(builder(shard, d))
            .solve(&req)
            .expect("the fault-free reference must solve");
        let noop = Solver::from_builder(builder(shard, d))
            .solve(&req.clone().with_tracer(Arc::new(NoopTracer)))
            .expect("the no-op-traced solve must behave like the untraced one");
        noop_identical &= plain
            .paths
            .iter()
            .zip(&noop.paths)
            .all(|(a, b)| a.endpoint == b.endpoint)
            && plain.modeled_wall_seconds() == noop.modeled_wall_seconds()
            && plain.telemetry == noop.telemetry;

        for seed in [None, Some(0u64), Some(1), Some(2)] {
            let run = || {
                let b = match seed {
                    Some(s) => builder(shard, d).fault_plan(FaultPlan::new(s, 300)),
                    None => builder(shard, d),
                };
                let tracer = Arc::new(CollectingTracer::new());
                let res = Solver::from_builder(b).solve(&req.clone().with_tracer(tracer.clone()));
                (res, chrome_trace_json(&tracer.spans()), tracer)
            };
            let (res, json, tracer) = run();
            let (_, json2, _) = run();
            let deterministic = json == json2;
            all_deterministic &= deterministic;
            let spans = tracer.spans();
            let row = match res {
                Ok(report) => {
                    // Root `solve` span covers the whole modeled solve;
                    // cluster `batch` spans tile the engine wall clock.
                    let root_ok = spans
                        .iter()
                        .find(|s| s.kind == SpanKind::Solve)
                        .is_some_and(|s| {
                            s.start == 0.0 && rel_eq(s.dur, report.modeled_wall_seconds())
                        });
                    let batch_sum: f64 = spans
                        .iter()
                        .filter(|s| s.kind == SpanKind::Batch && s.track == Track::Cluster)
                        .map(|s| s.dur)
                        .sum();
                    let reconciled =
                        root_ok && rel_eq(batch_sum, report.engine.wall_clock_seconds());
                    all_reconciled &= reconciled;
                    let faults = report.fault.faults + report.fault.engine.faults;
                    let fault_spans = spans
                        .iter()
                        .filter(|s| FAULT_KINDS.contains(&s.kind))
                        .count();
                    if faults > 0 {
                        faulted_runs += 1;
                        fault_spans_present &= fault_spans > 0;
                    }
                    if seed.is_none() && sample_telemetry.is_empty() {
                        sample_telemetry = report.telemetry.to_string();
                    }
                    TraceRow {
                        shard,
                        d,
                        seed,
                        outcome: if faults > 0 { "recovered" } else { "clean" },
                        spans: spans.len(),
                        json_bytes: json.len(),
                        deterministic,
                        reconciled,
                        fault_spans,
                    }
                }
                Err(SolveError::Fault(_)) => {
                    // A surfaced fault is a legal chaos outcome; the
                    // partial trace must still replay byte-for-byte.
                    let fault_spans = spans
                        .iter()
                        .filter(|s| FAULT_KINDS.contains(&s.kind))
                        .count();
                    TraceRow {
                        shard,
                        d,
                        seed,
                        outcome: "fault",
                        spans: spans.len(),
                        json_bytes: json.len(),
                        deterministic,
                        reconciled: true,
                        fault_spans,
                    }
                }
                Err(e) => panic!("the trace sweep must fail typed, got: {e}"),
            };
            rows.push(row);
        }
    }

    TraceSweep {
        rows,
        all_deterministic,
        all_reconciled,
        noop_identical,
        faulted_runs,
        fault_spans_present,
        sample_telemetry,
    }
}

/// Render the trace sweep in markdown.
pub fn format_trace_sweep(sweep: &TraceSweep) -> String {
    let mut s = String::new();
    s.push_str(
        "### Trace — deterministic spans over the modeled timeline (16 paths, dim-4 system)\n\n",
    );
    s.push_str(
        "| shard | D | fault seed | outcome | spans | trace bytes | byte-identical | reconciled | fault spans |\n",
    );
    s.push_str(
        "|-------|--:|-----------:|---------|------:|------------:|----------------|------------|------------:|\n",
    );
    for r in &sweep.rows {
        s.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} | {} | {} | {} |\n",
            r.shard,
            r.d,
            r.seed.map_or("-".to_string(), |v| v.to_string()),
            r.outcome,
            r.spans,
            r.json_bytes,
            if r.deterministic { "yes" } else { "NO" },
            if r.reconciled { "yes" } else { "NO" },
            r.fault_spans
        ));
    }
    s.push_str(&format!(
        "\n{} runs, {} finished under faults; no-op tracer bit-identity: {}\n",
        sweep.rows.len(),
        sweep.faulted_runs,
        if sweep.noop_identical {
            "holds"
        } else {
            "BROKEN"
        }
    ));
    s
}

/// One tenant's accounting in the serve sweep's contention run.
#[derive(Debug, Clone)]
pub struct ServeTenantRow {
    /// Tenant display name.
    pub tenant: String,
    /// Fair-queue weight.
    pub weight: u32,
    /// Jobs served.
    pub jobs: u64,
    /// Paths tracked across those jobs.
    pub paths: u64,
    /// Jobs served from the encoded-system cache.
    pub cache_hits: u64,
    /// Mean modeled queue wait per job.
    pub mean_wait_seconds: f64,
}

/// One chaos cell of the serve sweep: a row-sharded fleet under a
/// seeded fault plan, serving a short job stream twice.
#[derive(Debug, Clone)]
pub struct ServeChaosRow {
    /// Fault-plan seed.
    pub seed: u64,
    /// Jobs accounted for in the report (admitted jobs never vanish).
    pub jobs: usize,
    /// Jobs that failed typed (degraded fleet or surfaced fault).
    pub failed: usize,
    /// Devices the fleet lost to failover during the run.
    pub devices_lost: usize,
    /// The degraded-fleet flag of the report.
    pub degraded: bool,
    /// Both runs of this seed rendered byte-identical reports.
    pub deterministic: bool,
}

/// The multi-tenant serve sweep plus its deterministic acceptance
/// checks.
#[derive(Debug, Clone)]
pub struct ServeSweep {
    /// Contention-run tenants, sorted by descending weight.
    pub tenants: Vec<ServeTenantRow>,
    /// Adjacent tenant changes in the service order — WFQ interleaves
    /// the backlog instead of draining tenants in blocks.
    pub interleave_switches: usize,
    /// Share of the service clock spent solving (vs. admission).
    pub occupancy: f64,
    /// Submissions bounced off the per-tenant in-flight budget.
    pub rejected_overloaded: u64,
    /// Encoded-system cache counters of the contention run.
    pub cache: polygpu_serve::CacheStats,
    /// Mean admission cost of a cache miss (encode + upload + probe)
    /// on an alternating two-target stream.
    pub miss_admission_seconds: f64,
    /// Mean admission cost of a cache hit on the same stream — a real
    /// command-queue switch, the hit's worst case.
    pub hit_admission_seconds: f64,
    /// `mean miss / mean hit` — the residency amortization factor.
    pub amortization: f64,
    /// The contention run rendered byte-identical across two runs.
    pub deterministic: bool,
    /// Chaos cells, one per fault seed.
    pub chaos: Vec<ServeChaosRow>,
    /// Every chaos run accounted for every admitted job.
    pub chaos_all_accounted: bool,
    /// At least one seed degraded the fleet or failed jobs typed.
    pub chaos_degraded_seen: bool,
    /// Every chaos seed replayed byte-identically.
    pub chaos_deterministic: bool,
}

impl ServeSweep {
    /// The named acceptance bars of `repro serve` — the single source
    /// of truth behind both [`ServeSweep::passes`] and the PASS/FAIL
    /// lines the `repro` binary prints.
    pub fn checks(&self) -> [(&'static str, bool); 5] {
        let waits_ordered = self
            .tenants
            .windows(2)
            .all(|w| w[0].mean_wait_seconds <= w[1].mean_wait_seconds);
        [
            (
                "fairness check (WFQ interleaves tenants; mean wait ordered by weight)",
                self.interleave_switches >= 6 && waits_ordered,
            ),
            (
                "occupancy check (contended backlog keeps the fleet solving > 0.8 of the clock)",
                self.occupancy > 0.8,
            ),
            (
                "amortization check (repeat admission at least 5x cheaper via the cache)",
                self.amortization >= 5.0 && self.cache.hits > self.cache.misses,
            ),
            (
                "degradation check (chaos loses devices and fails jobs typed, never the service)",
                self.chaos_all_accounted && self.chaos_degraded_seen,
            ),
            (
                "determinism check (same submissions => byte-identical service reports)",
                self.deterministic && self.chaos_deterministic,
            ),
        ]
    }

    /// All acceptance bars at once.
    pub fn passes(&self) -> bool {
        self.checks().iter().all(|(_, ok)| *ok)
    }
}

/// The multi-tenant table behind `repro serve`.
///
/// **Contention run** — three tenants (weights 1/2/4, one shared
/// target) each submit 6 four-path jobs into a single-device batched
/// fleet, plus one over-budget submission that must bounce typed. The
/// weighted fair queue drains the backlog interleaved, the
/// encoded-system cache serves 17 of the 18 admissions from residency,
/// and the whole report replays byte-for-byte.
///
/// **Chaos cells** — a row-sharded two-device fleet under seeded fault
/// plans serves a short mixed stream; jobs may fail typed and the
/// fleet may shrink, but every admitted job is accounted for and the
/// report stays deterministic. Fully modeled, hence deterministic —
/// same seeds, same table, forever.
pub fn serve_sweep() -> ServeSweep {
    use polygpu_core::engine::{Engine, SystemShardPolicy};
    use polygpu_homotopy::solve::{SolveRequest, StartSelection};
    use polygpu_serve::{Priority, ServeError, SolveService, TenantSpec};

    let target = random_system::<f64>(&BenchmarkParams {
        n: 2,
        m: 2,
        k: 2,
        d: 2,
        seed: 17,
    });
    let request = || SolveRequest::new(target.clone()).with_starts(StartSelection::FirstN(4));

    // Contention: 18 jobs, round-robin arrivals, one shared target.
    let contend = || {
        let builder = Engine::builder().backend(polygpu_core::Backend::GpuBatch { capacity: 4 });
        let mut svc = SolveService::new(&builder).expect("batched backend serves");
        let tenants = [
            svc.register(
                TenantSpec::new("bronze")
                    .with_weight(1)
                    .with_max_in_flight(6),
            ),
            svc.register(
                TenantSpec::new("silver")
                    .with_weight(2)
                    .with_max_in_flight(6),
            ),
            svc.register(TenantSpec::new("gold").with_weight(4).with_max_in_flight(6)),
        ];
        for _ in 0..6 {
            for t in tenants {
                svc.submit(t, Priority::Normal, request())
                    .expect("the backlog fits every budget");
            }
        }
        // The 7th bronze job must bounce off the in-flight budget —
        // typed backpressure, not queue growth.
        match svc.submit(tenants[0], Priority::Normal, request()) {
            Err(ServeError::Overloaded { .. }) => {}
            other => panic!("expected Overloaded, got {other:?}"),
        }
        svc.run()
    };
    let report = contend();
    let deterministic = report.render() == contend().render();

    let mut tenants: Vec<ServeTenantRow> = report
        .tenants
        .iter()
        .map(|t| ServeTenantRow {
            tenant: t.tenant.clone(),
            weight: t.weight,
            jobs: t.jobs,
            paths: t.paths,
            cache_hits: t.cache_hits,
            mean_wait_seconds: t.wait_seconds / t.jobs.max(1) as f64,
        })
        .collect();
    tenants.sort_by_key(|t| std::cmp::Reverse(t.weight));
    let interleave_switches = report
        .jobs
        .windows(2)
        .filter(|w| w[0].tenant != w[1].tenant)
        .count();
    let solve_total: f64 = report.jobs.iter().map(|j| j.solve_seconds).sum();
    let occupancy = solve_total / (report.finished_at - report.started_at);
    // Amortization is measured on an alternating two-target stream so
    // every cache hit pays the worst case — a real command-queue
    // switch, not the free already-active path the shared-target
    // backlog above enjoys.
    let alternating = {
        let builder = Engine::builder().backend(polygpu_core::Backend::GpuBatch { capacity: 4 });
        let mut svc = SolveService::new(&builder).expect("batched backend serves");
        let t = svc.register(TenantSpec::new("acme").with_max_in_flight(8));
        let other = random_system::<f64>(&BenchmarkParams {
            n: 2,
            m: 2,
            k: 2,
            d: 2,
            seed: 23,
        });
        for _ in 0..2 {
            svc.submit(t, Priority::Normal, request())
                .expect("target A admits");
            svc.submit(
                t,
                Priority::Normal,
                SolveRequest::new(other.clone()).with_starts(StartSelection::FirstN(4)),
            )
            .expect("target B admits");
        }
        svc.run()
    };
    let mean = |hit: bool| {
        let picked: Vec<f64> = alternating
            .jobs
            .iter()
            .filter(|j| j.cache_hit == hit)
            .map(|j| j.admission_seconds)
            .collect();
        picked.iter().sum::<f64>() / picked.len().max(1) as f64
    };
    let miss_admission_seconds = mean(false);
    let hit_admission_seconds = mean(true);
    let amortization = miss_admission_seconds / hit_admission_seconds.max(f64::MIN_POSITIVE);

    // Chaos: a row-sharded fleet under heavy seeded fault injection.
    let chaos_run = |seed: u64| {
        let builder = polygpu_cluster::engine_builder()
            .backend(polygpu_core::Backend::Cluster {
                devices: vec![DeviceSpec::tesla_c2050(); 2],
                shard: SystemShardPolicy::Contiguous.into(),
            })
            .per_device_capacity(4)
            .fault_plan(FaultPlan::new(seed, 2_000));
        let mut svc = SolveService::new(&builder).expect("row-sharded fleets serve");
        let t = svc.register(TenantSpec::new("chaos").with_max_in_flight(8));
        for _ in 0..2 {
            for r in [request(), request().with_gamma_seed(5)] {
                svc.submit(t, Priority::Normal, r)
                    .expect("chaos jobs admit while the fleet stands");
            }
        }
        svc.run()
    };
    let mut chaos = Vec::new();
    let mut chaos_all_accounted = true;
    let mut chaos_degraded_seen = false;
    let mut chaos_deterministic = true;
    for seed in [3u64, 11, 29] {
        let r1 = chaos_run(seed);
        let r2 = chaos_run(seed);
        let deterministic = r1.render() == r2.render();
        chaos_deterministic &= deterministic;
        chaos_all_accounted &= r1.jobs.len() == 4;
        let failed = r1.jobs.len() - r1.solved();
        chaos_degraded_seen |= r1.degraded || failed > 0 || r1.devices_lost > 0;
        chaos.push(ServeChaosRow {
            seed,
            jobs: r1.jobs.len(),
            failed,
            devices_lost: r1.devices_lost,
            degraded: r1.degraded,
            deterministic,
        });
    }

    ServeSweep {
        tenants,
        interleave_switches,
        occupancy,
        rejected_overloaded: report.rejected_overloaded,
        cache: report.cache,
        miss_admission_seconds,
        hit_admission_seconds,
        amortization,
        deterministic,
        chaos,
        chaos_all_accounted,
        chaos_degraded_seen,
        chaos_deterministic,
    }
}

/// Render the serve sweep in markdown.
pub fn format_serve_sweep(sweep: &ServeSweep) -> String {
    let mut s = String::new();
    s.push_str("### Serve — multi-tenant solve service (18-job contended backlog, 1 fleet)\n\n");
    s.push_str("| tenant | weight | jobs | paths | cache hits | mean wait (modeled s) |\n");
    s.push_str("|--------|-------:|-----:|------:|-----------:|----------------------:|\n");
    for t in &sweep.tenants {
        s.push_str(&format!(
            "| {} | {} | {} | {} | {} | {:.3e} |\n",
            t.tenant, t.weight, t.jobs, t.paths, t.cache_hits, t.mean_wait_seconds
        ));
    }
    s.push_str(&format!(
        "\nservice order interleaves tenants ({} switches); occupancy {:.3}; \
         {} submission(s) bounced typed on the in-flight budget\n",
        sweep.interleave_switches, sweep.occupancy, sweep.rejected_overloaded
    ));
    s.push_str(&format!(
        "cache: {} miss / {} hits / {} evictions; admission {:.3e} s cold vs {:.3e} s \
         resident — {:.1}x amortization\n\n",
        sweep.cache.misses,
        sweep.cache.hits,
        sweep.cache.evictions,
        sweep.miss_admission_seconds,
        sweep.hit_admission_seconds,
        sweep.amortization
    ));
    s.push_str("| fault seed | jobs | failed | devices lost | degraded | byte-identical |\n");
    s.push_str("|-----------:|-----:|-------:|-------------:|----------|----------------|\n");
    for c in &sweep.chaos {
        s.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} |\n",
            c.seed,
            c.jobs,
            c.failed,
            c.devices_lost,
            if c.degraded { "yes" } else { "no" },
            if c.deterministic { "yes" } else { "NO" }
        ));
    }
    s
}

/// One row of the sparse footprint table behind `repro sparse`.
#[derive(Debug, Clone)]
pub struct SparseFootprintRow {
    /// What the row encodes (family seed or the uniform comparison).
    pub label: String,
    /// Total monomials of the system.
    pub monomials: usize,
    /// Bytes the `Direct` encoding needs: exact for uniform shapes,
    /// the dense `2 × rows × max_m × max_k` envelope (every monomial
    /// padded to the widest) for ragged ones, which `Direct` cannot
    /// express at all.
    pub direct_bytes: usize,
    /// Bytes the packed exponent-key encoding needs (headers + keys
    /// for ragged shapes, header-free keys for uniform ones).
    pub packed_bytes: usize,
    /// `direct_bytes / packed_bytes`.
    pub shrink: f64,
}

/// One chaos run of the sparse sweep.
#[derive(Debug, Clone)]
pub struct SparseChaosRow {
    /// Cluster shard mode ("points" or "rows").
    pub shard: &'static str,
    /// Fault-plan seed.
    pub seed: u64,
    /// "clean", "recovered", "degraded" or "fault".
    pub outcome: &'static str,
    /// Faults observed (scheduler + engine accounting).
    pub faults: u64,
    /// Endpoints bit-identical to the CPU reference (finished runs).
    pub identical: bool,
}

/// The `repro sparse` sweep plus its deterministic acceptance checks:
/// the packed exponent-key encoding's footprint, the
/// fits-where-`Direct`-rejects demonstration, and a ragged target
/// solved from mixed-cell starts with mixed-volume-many paths,
/// bit-identical to the CPU reference on all five backends — chaos
/// seeds included.
#[derive(Debug, Clone)]
pub struct SparseSweep {
    /// Footprint rows (ragged Table-1-scale family + uniform control).
    pub footprint: Vec<SparseFootprintRow>,
    /// Worst shrink across the ragged family rows.
    pub min_shrink: f64,
    /// Display of the typed rejection of the Table-2-scale target
    /// under `Direct` at D = 1 (empty = it wrongly built).
    pub budget_direct_error: String,
    /// Bytes `Direct` would need for that target (over the budget).
    pub budget_direct_bytes: usize,
    /// Bytes its packed build actually occupies (under the budget).
    pub budget_packed_bytes: usize,
    /// The packed build evaluates bit-identically to the CPU reference.
    pub budget_packed_identical: bool,
    /// Display of the typed rejection of the ragged solve target under
    /// `Direct` (must name the uniform-shape violation).
    pub ragged_direct_error: String,
    /// Total-degree path count of the ragged target.
    pub bezout: u128,
    /// Bernstein's bound — the paths mixed cells actually track.
    pub mixed_volume: u128,
    /// Fine mixed cells found.
    pub cells: usize,
    /// Paths of the total-degree solve of the same target.
    pub total_degree_paths: usize,
    /// Paths of the mixed-cell solve (== mixed volume).
    pub mixed_paths: usize,
    /// Worst endpoint residual of the mixed-cell solve.
    pub max_residual: f64,
    /// Per-backend mixed-cell endpoint identity vs the CPU reference.
    pub endpoints: Vec<(&'static str, bool)>,
    /// Every backend above matched bit-for-bit.
    pub all_backends_identical: bool,
    /// Chaos runs (cluster shard modes × fault seeds).
    pub chaos: Vec<SparseChaosRow>,
    /// Faults observed across the chaos runs.
    pub chaos_faults: u64,
    /// Chaos runs that finished despite faults striking.
    pub chaos_recovered: usize,
    /// Every finished chaos run bit-identical to the CPU reference.
    pub chaos_identical: bool,
}

impl SparseSweep {
    /// The named acceptance bars of `repro sparse` — the single source
    /// of truth behind both [`SparseSweep::passes`] and the PASS/FAIL
    /// lines the `repro` binary prints.
    pub fn checks(&self) -> [(&'static str, bool); 6] {
        [
            (
                "footprint check (packed >= 2x below the dense envelope on the sparse Table-1-scale family)",
                self.min_shrink >= 2.0,
            ),
            (
                "budget check (Table-2-scale target over the Direct budget builds packed, bit-identical to CPU)",
                !self.budget_direct_error.is_empty()
                    && self.budget_packed_bytes < self.budget_direct_bytes
                    && self.budget_packed_identical,
            ),
            (
                "rejection check (ragged target rejects typed under Direct)",
                self.ragged_direct_error.contains("expected k"),
            ),
            (
                "path-count check (mixed volume strictly below Bezout, solved with exactly that many paths)",
                self.mixed_volume < self.bezout
                    && self.mixed_paths as u128 == self.mixed_volume
                    && self.mixed_paths < self.total_degree_paths,
            ),
            (
                "identity check (mixed-cell endpoints bit-identical to the CPU reference on all five backends)",
                self.all_backends_identical,
            ),
            (
                "chaos check (faults struck; every finished run bit-identical)",
                self.chaos_faults > 0 && self.chaos_recovered > 0 && self.chaos_identical,
            ),
        ]
    }

    /// All acceptance bars at once.
    pub fn passes(&self) -> bool {
        self.checks().iter().all(|(_, ok)| *ok)
    }
}

/// The sweep behind `repro sparse`. Fully modeled, hence
/// deterministic — same seeds, same table, forever.
pub fn sparse_sweep() -> SparseSweep {
    use polygpu_cluster::Sharded;
    use polygpu_core::engine::{ClusterPolicy, EngineBuilder, SystemShardPolicy};
    use polygpu_core::{sparse_packed_bytes, Backend, EncodedSupports};
    use polygpu_homotopy::prelude::*;
    use polygpu_polyhedral::mixed_cell_starts;
    use polygpu_polysys::{
        parse_system, random_sparse_system, SparseBenchmarkParams, UniformShape,
    };

    // ---- footprint: the ragged Table-1-scale family ----------------
    let mut footprint = Vec::new();
    let mut min_shrink = f64::INFINITY;
    for seed in [3u64, 5, 7] {
        let sys = random_sparse_system::<f64>(&SparseBenchmarkParams::table1_sparse(seed));
        let shape = sys.sparse_shape();
        let direct = 2 * shape.rows * shape.max_m * shape.max_k;
        let packed = sparse_packed_bytes(&shape);
        let shrink = direct as f64 / packed as f64;
        min_shrink = min_shrink.min(shrink);
        footprint.push(SparseFootprintRow {
            label: format!("table1-sparse seed {seed}"),
            monomials: shape.total_monomials,
            direct_bytes: direct,
            packed_bytes: packed,
            shrink,
        });
    }
    // Uniform control row: both encodings exact, no envelope involved.
    let uniform = UniformShape::square(32, 22, 9, 2);
    let u_direct = EncodedSupports::bytes_needed(&uniform, EncodingKind::Direct);
    let u_packed = EncodedSupports::bytes_needed(&uniform, EncodingKind::Packed);
    footprint.push(SparseFootprintRow {
        label: "uniform 704 x k=9 (exact both ways)".into(),
        monomials: uniform.total_monomials(),
        direct_bytes: u_direct,
        packed_bytes: u_packed,
        shrink: u_direct as f64 / u_packed as f64,
    });

    // ---- budget: fits where Direct rejects -------------------------
    // The facade doctest's wall: 2,048 monomials at k = 16 exhaust one
    // device's 65,536-byte constant memory under Direct.
    let big = random_system::<f64>(&BenchmarkParams {
        n: 32,
        m: 64,
        k: 16,
        d: 10,
        seed: 3,
    });
    let big_shape = big.uniform_shape().expect("the Table-2 family is uniform");
    let budget_direct_bytes = EncodedSupports::bytes_needed(&big_shape, EncodingKind::Direct);
    let spec = || polygpu_cluster::engine_builder().backend(Backend::GpuBatch { capacity: 4 });
    let budget_direct_error = match spec().build(&big) {
        Err(e) => e.to_string(),
        Ok(_) => String::new(),
    };
    let (budget_packed_bytes, budget_packed_identical) =
        match spec().encoding(EncodingKind::Packed).build(&big) {
            Ok(mut packed) => {
                let points = random_points::<f64>(32, 4, 41);
                let got = packed
                    .try_evaluate_batch(&points)
                    .expect("the packed build must evaluate");
                let mut cpu = polygpu_cluster::engine_builder()
                    .backend(Backend::CpuReference)
                    .build(&big)
                    .expect("the CPU reference always builds");
                let identical = points
                    .iter()
                    .zip(&got)
                    .all(|(p, g)| g.values == cpu.evaluate(p).values);
                (packed.caps().constant_bytes, identical)
            }
            Err(_) => (usize::MAX, false),
        };

    // ---- mixed cells: fewer paths, every backend -------------------
    // Two sparse quadratics without pure square terms: ragged (their
    // constant terms have no variables), Bezout 4, mixed volume 2.
    let target =
        parse_system::<f64>("x0*x1 + x0 + 1; x0*x1 + x1 + 2").expect("the demo target parses");
    let ragged_direct_error = match spec().build(&target) {
        Err(e) => e.to_string(),
        Ok(_) => String::new(),
    };
    let mc = mixed_cell_starts(&target, 7).expect("dim 2 is far under the cell guards");
    let req = SolveRequest::new(target.clone())
        .with_start_kind(StartKind::MixedCells { lift_seed: 7 })
        .with_gamma_seed(11);
    let devices = vec![DeviceSpec::tesla_c2050(); 2];
    let backends: Vec<(&'static str, Backend)> = vec![
        ("cpu-reference", Backend::CpuReference),
        ("gpu", Backend::Gpu),
        ("gpu-batch", Backend::GpuBatch { capacity: 4 }),
        (
            "cluster",
            Backend::Cluster {
                devices: devices.clone(),
                shard: ClusterPolicy::default().into(),
            },
        ),
        (
            "cluster-rows",
            Backend::Cluster {
                devices: devices.clone(),
                shard: SystemShardPolicy::Contiguous.into(),
            },
        ),
    ];
    let builder = |backend: Backend| -> EngineBuilder<Sharded> {
        polygpu_cluster::engine_builder()
            .backend(backend)
            .per_device_capacity(2)
            .encoding(EncodingKind::Packed)
    };
    let cpu_report = Solver::from_builder(builder(Backend::CpuReference))
        .solve(&req)
        .expect("the CPU mixed-cell solve must succeed");
    let want: Vec<PathEndpoint> = cpu_report
        .paths
        .iter()
        .map(|p| p.endpoint.clone())
        .collect();
    let max_residual = cpu_report
        .paths
        .iter()
        .map(|p| p.residual)
        .fold(0.0f64, f64::max);
    let total_degree_paths = Solver::from_builder(builder(Backend::CpuReference))
        .solve(&SolveRequest::new(target.clone()).with_gamma_seed(11))
        .expect("the total-degree solve must succeed")
        .paths
        .len();
    let mut endpoints = Vec::new();
    let mut all_backends_identical = true;
    for (name, backend) in &backends {
        let report = Solver::from_builder(builder(backend.clone()))
            .solve(&req)
            .unwrap_or_else(|e| panic!("mixed-cell solve on {name} failed: {e}"));
        let got: Vec<PathEndpoint> = report.paths.iter().map(|p| p.endpoint.clone()).collect();
        let identical = got == want;
        all_backends_identical &= identical;
        endpoints.push((*name, identical));
    }

    // ---- chaos: mixed-cell solves under fault injection ------------
    let mut chaos = Vec::new();
    let mut chaos_faults = 0u64;
    let mut chaos_recovered = 0usize;
    let mut chaos_identical = true;
    for (shard, backend) in [
        (
            "points",
            Backend::Cluster {
                devices: devices.clone(),
                shard: ClusterPolicy::default().into(),
            },
        ),
        (
            "rows",
            Backend::Cluster {
                devices: devices.clone(),
                shard: SystemShardPolicy::Contiguous.into(),
            },
        ),
    ] {
        for seed in 0..3u64 {
            let solver = Solver::from_builder(
                builder(backend.clone()).fault_plan(FaultPlan::new(seed, 10_000)),
            );
            let row = match solver.solve(&req) {
                Ok(report) => {
                    let got: Vec<PathEndpoint> =
                        report.paths.iter().map(|p| p.endpoint.clone()).collect();
                    let identical = got == want;
                    chaos_identical &= identical;
                    let faults = report.fault.faults + report.fault.engine.faults;
                    chaos_faults += faults;
                    if faults > 0 {
                        chaos_recovered += 1;
                    }
                    SparseChaosRow {
                        shard,
                        seed,
                        outcome: if faults > 0 { "recovered" } else { "clean" },
                        faults,
                        identical,
                    }
                }
                Err(SolveError::Fault(e)) => {
                    chaos_faults += 1;
                    SparseChaosRow {
                        shard,
                        seed,
                        outcome: if matches!(e, polygpu_core::BatchError::DegradedFleet { .. }) {
                            "degraded"
                        } else {
                            "fault"
                        },
                        faults: 1,
                        identical: false,
                    }
                }
                Err(e) => panic!("sparse chaos must fail typed, got: {e}"),
            };
            chaos.push(row);
        }
    }

    SparseSweep {
        footprint,
        min_shrink,
        budget_direct_error,
        budget_direct_bytes,
        budget_packed_bytes,
        budget_packed_identical,
        ragged_direct_error,
        bezout: mc.bezout,
        mixed_volume: mc.mixed_volume,
        cells: mc.cells.len(),
        total_degree_paths,
        mixed_paths: want.len(),
        max_residual,
        endpoints,
        all_backends_identical,
        chaos,
        chaos_faults,
        chaos_recovered,
        chaos_identical,
    }
}

/// Render the sparse sweep in markdown.
pub fn format_sparse_sweep(sweep: &SparseSweep) -> String {
    let mut s = String::new();
    s.push_str("### Sparse — packed exponent keys + polyhedral starts\n\n");
    s.push_str("| system | monomials | direct bytes | packed bytes | shrink |\n");
    s.push_str("|--------|----------:|-------------:|-------------:|-------:|\n");
    for r in &sweep.footprint {
        s.push_str(&format!(
            "| {} | {} | {} | {} | {:.2}x |\n",
            r.label, r.monomials, r.direct_bytes, r.packed_bytes, r.shrink
        ));
    }
    s.push_str(&format!(
        "\nTable-2-scale target (2,048 monomials, k = 16): Direct needs {} B — \
         REJECTED (\"{}\"); packed occupies {} B and evaluates {} to the CPU reference\n",
        sweep.budget_direct_bytes,
        sweep.budget_direct_error,
        sweep.budget_packed_bytes,
        if sweep.budget_packed_identical {
            "bit-identically"
        } else {
            "DIFFERENTLY"
        }
    ));
    s.push_str(&format!(
        "\nragged solve target under Direct: REJECTED (\"{}\")\n",
        sweep.ragged_direct_error
    ));
    s.push_str(&format!(
        "mixed cells: Bezout {} vs mixed volume {} ({} cells) — total-degree solve \
         tracked {} paths, mixed-cell solve {} (max residual {:.2e})\n\n",
        sweep.bezout,
        sweep.mixed_volume,
        sweep.cells,
        sweep.total_degree_paths,
        sweep.mixed_paths,
        sweep.max_residual
    ));
    s.push_str("| backend | mixed-cell endpoints vs CPU reference |\n");
    s.push_str("|---------|---------------------------------------|\n");
    for (name, identical) in &sweep.endpoints {
        s.push_str(&format!(
            "| {} | {} |\n",
            name,
            if *identical {
                "bit-identical"
            } else {
                "DIFFER"
            }
        ));
    }
    s.push_str("\n| shard | fault seed | outcome | faults | bit-identical |\n");
    s.push_str("|-------|-----------:|---------|-------:|---------------|\n");
    for c in &sweep.chaos {
        let identical = match c.outcome {
            "clean" | "recovered" => {
                if c.identical {
                    "yes"
                } else {
                    "NO"
                }
            }
            _ => "-",
        };
        s.push_str(&format!(
            "| {} | {} | {} | {} | {} |\n",
            c.shard, c.seed, c.outcome, c.faults, identical
        ));
    }
    s.push_str(&format!(
        "\n{} faults across {} chaos runs: {} recovered\n",
        sweep.chaos_faults,
        sweep.chaos.len(),
        sweep.chaos_recovered
    ));
    s
}

/// Fixture for the batch benches: a batched evaluator at `capacity`
/// plus matching random points.
pub fn batch_fixture(
    total: usize,
    k: usize,
    d: u16,
    capacity: usize,
) -> (BatchGpuEvaluator<f64>, Vec<Vec<C64>>) {
    let params = BenchmarkParams {
        n: 32,
        m: total / 32,
        k,
        d,
        seed: 0xBEEF,
    };
    let system = random_system::<f64>(&params);
    let gpu = BatchGpuEvaluator::new(&system, capacity, GpuOptions::default()).unwrap();
    let points = random_points::<f64>(32, capacity, 7);
    (gpu, points)
}

/// Double-double variant of the fixture (for the quality-up benches).
pub fn bench_fixture_dd(
    total: usize,
    k: usize,
    d: u16,
) -> (AdEvaluator<polygpu_qd::Dd>, Vec<Vec<CDd>>) {
    let params = BenchmarkParams {
        n: 32,
        m: total / 32,
        k,
        d,
        seed: 0xBEEF,
    };
    let system = random_system::<f64>(&params).convert();
    let cpu = AdEvaluator::new(system).unwrap();
    let points: Vec<Vec<CDd>> = random_points::<f64>(32, 16, 7)
        .into_iter()
        .map(|p| p.into_iter().map(|z| z.convert()).collect())
        .collect();
    (cpu, points)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_shape_reproduces() {
        // Unit tests run in parallel, so only the deterministic
        // (modeled) side of the shape is asserted here; the measured
        // side is checked by `repro table1` (serial, release).
        let rows = run_table(&table1_spec(), 20, 100_000);
        assert_eq!(rows.len(), 3);
        assert!(
            table_shape_holds_model(&rows),
            "modeled table shape broken: speedups(2012) {:?}",
            rows.iter()
                .map(|r| r.speedup_vs_2012_cpu)
                .collect::<Vec<_>>(),
        );
        // Double-digit speedup at the top against the era-consistent
        // baseline, as in the paper; GPU time nearly flat in monomials.
        assert!(rows[2].speedup_vs_2012_cpu > 10.0);
        assert!(rows[2].gpu_seconds / rows[0].gpu_seconds < 1.6);
    }

    #[test]
    fn capacity_sweep_matches_paper() {
        let sweep = capacity_sweep(&[1536, 2048]);
        // 1,536 fits directly (the paper's largest point).
        assert!(sweep[0].1);
        // 2,048 does not fit directly (E3) but fits compactly (X1).
        assert!(!sweep[1].1);
        assert!(sweep[1].2);
        assert_eq!(sweep[1].3, 65_536);
    }

    #[test]
    fn counts_match_formulas() {
        for (k, measured, formula, spl, cf) in count_multiplications(&[2, 3, 9, 16]) {
            assert_eq!(measured, formula, "k = {k}");
            assert_eq!(formula, spl + 2 * k as u64 + 2, "decomposition for k = {k}");
            assert_eq!(cf, k as u64 - 1);
        }
    }

    #[test]
    fn batch_sweep_amortizes_monotonically() {
        let rows = batch_sweep(704, 9, 2, &[1, 4, 16, 64]);
        assert_eq!(rows.len(), 4);
        // Fixed cost per evaluation falls monotonically with P…
        for w in rows.windows(2) {
            assert!(
                w[1].overhead_transfer_per_eval < w[0].overhead_transfer_per_eval,
                "amortization not monotone: {rows:?}"
            );
        }
        // …and by at least 10x from P=1 to P=64 (the acceptance bar).
        assert!(
            rows[0].overhead_transfer_per_eval >= 10.0 * rows[3].overhead_transfer_per_eval,
            "P=64 amortization below 10x: {rows:?}"
        );
        assert!(rows[3].speedup_vs_p1 > 1.0);
        let s = format_batch_sweep(704, &rows);
        assert!(s.contains("| 64 |"));
    }

    #[test]
    fn cluster_sweep_scales_and_overlaps() {
        // The scale-out acceptance at bench level: P = 256 on D = 4
        // identical devices is at least 3x the D = 1 throughput, with
        // positive overlap savings and near-perfect balance.
        let rows = cluster_sweep(128, 9, 2, 256, &[1, 4]);
        assert_eq!(rows.len(), 2);
        assert!((rows[0].speedup_vs_d1 - 1.0).abs() < 1e-9);
        assert!(
            rows[1].speedup_vs_d1 >= 3.0,
            "D=4 must scale >= 3x: {rows:?}"
        );
        for r in &rows {
            assert!(r.overlap_savings > 0.0, "overlap modeled: {r:?}");
            assert!(r.imbalance >= 1.0 && r.imbalance < 1.5, "balanced: {r:?}");
        }
        let s = format_cluster_sweep(128, 256, &rows);
        assert!(s.contains("| 4 |"));
    }

    #[test]
    fn measured_shape_check_tolerates_noise() {
        let mut rows = run_table(&table1_spec(), 5, 1000);
        // Within-tolerance inversion of the measured CPU column must
        // not fail the measured check (that is the flake this guards).
        rows[1].cpu_seconds = rows[0].cpu_seconds * (1.0 - MEASURED_SHAPE_TOLERANCE / 2.0);
        rows[2].cpu_seconds = rows[0].cpu_seconds * 2.0;
        assert!(table_shape_holds_measured(&rows));
        // A gross inversion still fails.
        rows[1].cpu_seconds = rows[0].cpu_seconds * 0.5;
        assert!(!table_shape_holds_measured(&rows));
        // The model-side check ignores the measured column entirely.
        assert!(table_shape_holds_model(&rows));
    }

    /// The residency acceptance: once a system is resident, a homotopy
    /// stage pays ≥ 5x less modeled setup cost than re-encoding, and
    /// the constant-memory accounting is explicit and within budget.
    #[test]
    fn session_residency_amortizes_setup_5x() {
        let report = session_residency(4);
        assert_eq!(report.rows.len(), 3);
        assert!(report.constant_used <= report.constant_budget);
        assert_eq!(
            report.constant_used,
            report.rows.iter().map(|r| r.constant_bytes).sum::<usize>()
        );
        assert_eq!(report.amortization.stages, 12);
        assert!(
            report.amortization.steady_state_ratio >= 5.0,
            "per-stage amortization below 5x: {:.2}",
            report.amortization.steady_state_ratio
        );
        assert!(report.amortization.cumulative_ratio() > 1.0);
        let s = format_session(&report);
        assert!(s.contains("stage-1024"));
        assert!(s.contains("per-stage amortization"));
    }

    /// The `repro solve` acceptance: every queue front on every backend
    /// replays the `track` reference, the auto-sized queue front > 0.8
    /// occupied on the D = 4 cluster, and the escalation demo rescues
    /// its paths in double-double.
    #[test]
    fn solve_sweep_passes_its_gates() {
        let sweep = solve_sweep();
        assert_eq!(sweep.rows.len(), 6, "2 queue fronts x 3 backends");
        assert!(sweep.endpoints_identical, "{sweep:?}");
        assert!(
            sweep.queue_occupancy_d4 > 0.8,
            "auto-front occupancy at D = 4: {:.3}",
            sweep.queue_occupancy_d4
        );
        assert_eq!(sweep.escalation_retried, 4);
        assert!(sweep.escalation_rescued > 0);
        assert!(sweep.passes());
        // Modeled throughput exists exactly where a device model does.
        for r in &sweep.rows {
            if r.backend == "cpu-reference" {
                assert_eq!(r.paths_per_sec, 0.0);
            } else {
                assert!(r.paths_per_sec > 0.0, "{r:?}");
            }
        }
        let s = format_solve_sweep(&sweep);
        assert!(s.contains("| auto | cluster | 4 |"));
        assert!(s.contains("rescued in double-double"));
    }

    /// The `repro newton` gates: DeviceResident endpoints bit-identical
    /// to Host everywhere, every resident run downloads fewer modeled
    /// bytes, and the fused probe's per-iteration D2H reconciles exactly
    /// with the driver's flag-charge log.
    #[test]
    fn newton_sweep_passes_its_gates() {
        let sweep = newton_sweep();
        assert_eq!(sweep.rows.len(), 8, "2 queue fronts x 2 backends x 2 modes");
        assert!(sweep.endpoints_identical, "{sweep:?}");
        assert!(sweep.d2h_reduced, "{sweep:?}");
        assert!(sweep.expected_flag_bytes > 0);
        assert_eq!(sweep.flag_bytes, sweep.expected_flag_bytes);
        assert!(sweep.endpoint_bytes + sweep.flag_bytes < sweep.host_loop_d2h);
        assert!(sweep.passes());
        // The fused kernels are charged exactly on the resident rows.
        for r in &sweep.rows {
            if r.mode == "resident" {
                assert!(r.corrector_iterations > 0, "{r:?}");
                assert!(r.factor_seconds > 0.0 && r.backsub_seconds > 0.0, "{r:?}");
            } else {
                assert_eq!(r.corrector_iterations, 0, "{r:?}");
                assert_eq!(r.factor_seconds, 0.0, "{r:?}");
            }
        }
        let s = format_newton_sweep(&sweep);
        assert!(s.contains("| auto | cluster | resident |"));
        assert!(s.contains("flag downloads"));
    }

    /// The `repro syshard` gates: the over-budget system is rejected at
    /// D = 1, builds bit-identically to the CPU at D ∈ {2, 4}, and
    /// row-sharded D = 4 beats D = 1 on the compute-bound shape.
    #[test]
    fn syshard_sweep_passes_its_gates() {
        let sweep = syshard_sweep();
        assert!(sweep.over_budget_rejected_at_d1, "{sweep:?}");
        assert!(sweep.identical_to_cpu, "{sweep:?}");
        assert!(!sweep.rows[0].built && sweep.rows[1].built && sweep.rows[2].built);
        // The whole 65,536-byte encoding resides, spread over the fleet.
        assert_eq!(sweep.rows[1].constant_bytes, 65_536);
        assert_eq!(sweep.rows[2].constant_bytes, 65_536);
        assert!(sweep.rows[1].gather_fraction > 0.0);
        assert!(
            sweep.d4_wall_seconds < sweep.d1_wall_seconds,
            "D = 4 must beat D = 1: {:.3e} vs {:.3e}",
            sweep.d4_wall_seconds,
            sweep.d1_wall_seconds
        );
        assert!(sweep.d4_gather_fraction > 0.0 && sweep.d4_gather_fraction < 0.5);
        assert!(sweep.passes());
        let s = format_syshard_sweep(&sweep);
        assert!(s.contains("REJECTED"));
        assert!(s.contains("row-sharded D = 4 wall"));
    }

    /// The `repro chaos` gates: faults strike, solves survive them,
    /// every survivor is bit-identical to the fault-free run, and
    /// recovery cost stays bounded. Fully modeled, hence these are
    /// assertions, not benchmarks.
    #[test]
    fn chaos_sweep_passes_its_gates() {
        let sweep = chaos_sweep();
        assert_eq!(sweep.rows.len(), 12, "2 shard modes x 2 fleets x 3 seeds");
        assert!(sweep.faults_observed > 0, "{sweep:?}");
        assert!(sweep.recovered_runs > 0, "{sweep:?}");
        assert!(sweep.all_identical, "{sweep:?}");
        assert!(sweep.max_recovery_share < 0.9, "{sweep:?}");
        assert!(sweep.passes());
        let s = format_chaos_sweep(&sweep);
        assert!(s.contains("recovered"));
        assert!(s.contains("worst recovery share"));
    }

    #[test]
    fn trace_sweep_passes_its_gates() {
        let sweep = trace_sweep();
        assert_eq!(sweep.rows.len(), 8, "2 cluster shapes x (clean + 3 seeds)");
        assert!(sweep.all_deterministic, "{sweep:?}");
        assert!(sweep.all_reconciled, "{sweep:?}");
        assert!(sweep.noop_identical, "{sweep:?}");
        assert!(sweep.faulted_runs > 0, "{sweep:?}");
        assert!(sweep.fault_spans_present, "{sweep:?}");
        assert!(sweep.passes());
        assert!(!sweep.sample_telemetry.is_empty());
        let s = format_trace_sweep(&sweep);
        assert!(s.contains("byte-identical"));
        assert!(s.contains("no-op tracer bit-identity: holds"));
    }

    /// The `repro serve` gates: the weighted fair queue interleaves a
    /// contended backlog with waits ordered by weight, the cache keeps
    /// the fleet solving and amortizes repeat admission at least 5x,
    /// chaos degrades jobs but never the service, and every report
    /// replays byte-for-byte.
    #[test]
    fn serve_sweep_passes_its_gates() {
        let sweep = serve_sweep();
        assert_eq!(sweep.tenants.len(), 3);
        assert_eq!(sweep.tenants[0].tenant, "gold");
        assert!(
            sweep.tenants[0].mean_wait_seconds <= sweep.tenants[2].mean_wait_seconds,
            "weight 4 must wait no longer than weight 1: {sweep:?}"
        );
        assert!(sweep.interleave_switches >= 6, "{sweep:?}");
        assert!(sweep.occupancy > 0.8, "occupancy {:.3}", sweep.occupancy);
        assert_eq!(sweep.rejected_overloaded, 1);
        assert_eq!(sweep.cache.misses, 1);
        assert_eq!(sweep.cache.hits, 17);
        assert!(
            sweep.amortization >= 5.0,
            "amortization {:.1}x",
            sweep.amortization
        );
        assert_eq!(sweep.chaos.len(), 3);
        assert!(sweep.chaos_all_accounted, "{sweep:?}");
        assert!(sweep.chaos_degraded_seen, "{sweep:?}");
        assert!(
            sweep.deterministic && sweep.chaos_deterministic,
            "{sweep:?}"
        );
        assert!(sweep.passes());
        let s = format_serve_sweep(&sweep);
        assert!(s.contains("| gold | 4 |"));
        assert!(s.contains("amortization"));
    }

    /// The `repro sparse` gates: the packed encoding shrinks the
    /// ragged family's footprint at least 2x, the Table-2-scale target
    /// over the Direct budget builds packed and matches the CPU
    /// bit-for-bit, the ragged solve target rejects typed under
    /// Direct, mixed-cell solves track mixed-volume-many paths
    /// (strictly fewer than Bezout) bit-identical to the CPU reference
    /// on all five backends, and chaos runs recover bit-identically.
    #[test]
    fn sparse_sweep_passes_its_gates() {
        let sweep = sparse_sweep();
        assert_eq!(sweep.footprint.len(), 4, "3 family seeds + uniform control");
        assert!(
            sweep.min_shrink >= 2.0,
            "packed shrink below 2x: {:?}",
            sweep.footprint
        );
        assert!(!sweep.budget_direct_error.is_empty(), "{sweep:?}");
        assert!(
            sweep.budget_packed_bytes < sweep.budget_direct_bytes,
            "{sweep:?}"
        );
        assert!(sweep.budget_packed_identical, "{sweep:?}");
        assert!(
            sweep.ragged_direct_error.contains("expected k"),
            "direct rejection not typed as a shape violation: {}",
            sweep.ragged_direct_error
        );
        assert_eq!(sweep.bezout, 4);
        assert_eq!(sweep.mixed_volume, 2);
        assert_eq!(sweep.cells, 2);
        assert_eq!(sweep.total_degree_paths, 4);
        assert_eq!(sweep.mixed_paths, 2);
        assert!(sweep.max_residual < 1e-8, "{sweep:?}");
        assert_eq!(sweep.endpoints.len(), 5, "all five backends solved");
        assert!(sweep.all_backends_identical, "{sweep:?}");
        assert_eq!(sweep.chaos.len(), 6, "2 shard modes x 3 seeds");
        assert!(sweep.chaos_faults > 0, "{sweep:?}");
        assert!(sweep.chaos_recovered > 0, "{sweep:?}");
        assert!(sweep.chaos_identical, "{sweep:?}");
        assert!(sweep.passes());
        let s = format_sparse_sweep(&sweep);
        assert!(s.contains("REJECTED"));
        assert!(s.contains("| cluster-rows | bit-identical |"));
    }

    #[test]
    fn dd_cost_factor_is_significant() {
        // The modeled cost factors: flops the device model charges per
        // complex multiply, relative to complex double. The paper's
        // companion work reports ~8 for double-double. The host
        // wall-clock factor (`measure_cost_factors`) is timing, so it is
        // reported by perfbench (`qd.dd_host_factor`), not asserted here.
        let f = <C64 as DeviceValue>::MUL_FLOPS as f64;
        let dd = <CDd as DeviceValue>::MUL_FLOPS as f64 / f;
        let qd = <Complex<polygpu_qd::Qd> as DeviceValue>::MUL_FLOPS as f64 / f;
        assert!(dd > 2.0, "dd factor suspiciously low: {dd}");
        assert!(qd > dd, "qd must cost more than dd: {qd} vs {dd}");
    }

    #[test]
    fn ablation_prefers_two_stage_at_high_degree() {
        let ab = ablate_common_factor(10);
        assert!(ab.from_scratch.counters.flops > ab.two_stage.counters.flops);
        assert!(ab.from_scratch.counters.divergent_segments > 0);
        assert_eq!(ab.two_stage.counters.divergent_segments, 0);
    }

    #[test]
    fn formatting_contains_all_rows() {
        let spec = table1_spec();
        let rows = run_table(&spec, 5, 1000);
        let s = format_table(&spec, &rows, 1000);
        assert!(s.contains("704"));
        assert!(s.contains("1024"));
        assert!(s.contains("1536"));
        assert!(s.contains("paper"));
    }
}
