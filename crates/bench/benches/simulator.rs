//! Host cost of the simulator itself: the three paper kernels (common
//! factor, Speelpenning, sum) at the Table-1 shape (n = 32, 704
//! monomials, k = 9, d = 2) launched as one batch of P = 16 points, in
//! double and double-double. Besides the median per batch it prints the
//! host nanoseconds per traced event — the figure a change to the
//! executor or the warp analyzer moves.
//!
//! ```bash
//! cargo bench -p polygpu-bench --bench simulator
//! ```

use criterion::{criterion_group, criterion_main, Criterion};
use polygpu_complex::Complex;
use polygpu_core::{BatchGpuEvaluator, GpuOptions};
use polygpu_polysys::{random_points, random_system, BenchmarkParams};
use polygpu_qd::{Dd, Real};
use std::time::{Duration, Instant};

const POINTS: usize = 16;

fn bench_precision<R: Real>(c: &mut Criterion, label: &str) {
    let params = BenchmarkParams::table1(704, 0xBEEF);
    let system = random_system::<f64>(&params).convert::<R>();
    let mut engine = BatchGpuEvaluator::new(&system, POINTS, GpuOptions::default())
        .expect("the Table-1 system fits the device");
    let points: Vec<Vec<Complex<R>>> = random_points::<f64>(params.n, POINTS, 7)
        .into_iter()
        .map(|p| p.into_iter().map(|z| z.convert()).collect())
        .collect();

    let (mut spent, mut runs) = (Duration::ZERO, 0u32);
    let mut group = c.benchmark_group("simulator_table1_704");
    group.sample_size(10);
    group.bench_function(format!("batch_of_{POINTS}/{label}"), |b| {
        b.iter(|| {
            let t0 = Instant::now();
            let evals = engine.try_evaluate_batch(&points).expect("batch fits");
            spent += t0.elapsed();
            runs += 1;
            evals
        })
    });
    group.finish();

    let reports = engine.last_reports();
    let events: u64 = reports.iter().map(|r| r.traced_events).sum();
    for r in reports {
        println!(
            "  [{label}] kernel `{}`: {} traced events, {} warps",
            r.kernel_name, r.traced_events, r.counters.warps
        );
    }
    println!(
        "  [{label}] host {:.1} ns per traced event ({events} events per batch)",
        spent.as_secs_f64() * 1e9 / (runs as f64 * events as f64)
    );
}

fn benches(c: &mut Criterion) {
    bench_precision::<f64>(c, "f64");
    bench_precision::<Dd>(c, "dd");
}

criterion_group!(simulator, benches);
criterion_main!(simulator);
