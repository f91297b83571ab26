//! `eval-paper`: the paper's §4 systems (Table 1: k = 9, d = 2; Table 2:
//! k = 16, d = 10; both n = 32 with 704 monomials) evaluated with their
//! Jacobians on `Backend::GpuBatch` in f64 and double-double, in full
//! batches of `P` points per call, from one closed-loop caller. The
//! single-threaded CPU reference (the `AdEvaluator` behind
//! `Backend::CpuReference`) runs at the same points, timed as the plain
//! baseline and compared bit for bit as the correctness gate.

use crate::layers::{add_stats, set_engine, set_spans};
use crate::report::Report;
use crate::rng::Rng;
use crate::spans::HostTrace;
use crate::stats::median;
use crate::Config;
use polygpu::prelude::*;
use polygpu_bench::{table1_spec, table2_spec, TableSpec};
use std::sync::Arc;
use std::time::Instant;

/// Points per batched call (one full batch of the engine).
const P: usize = 16;
const N: usize = 32;
const MONOMIALS: usize = 704;
/// The paper times this many evaluations per table cell.
const PAPER_EVALS: f64 = 100_000.0;
const SETUP_REPS: usize = 5;

struct Table {
    label: &'static str,
    spec: TableSpec,
    system: System<f64>,
    gpu: Box<dyn AnyEvaluator<f64>>,
    gpu_dd: Box<dyn AnyEvaluator<Dd>>,
    cpu: Box<dyn AnyEvaluator<f64>>,
    cpu_dd: Box<dyn AnyEvaluator<Dd>>,
}

/// One batched device call.
struct Call {
    dd: bool,
    host_s: f64,
    stats: PipelineStats,
}

struct Round {
    calls: Vec<Call>,
    /// Host seconds of the f64 CPU reference at the round's points.
    cpu_s: f64,
    /// Process CPU seconds of the round's device calls.
    device_cpu_s: f64,
    /// Every device result equals the CPU reference bit for bit.
    identical: bool,
}

/// Generate the two systems and build every engine. Returns the tables
/// and the host seconds spent building device engines.
fn setup(cfg: &Config, tracer: Option<Arc<dyn Tracer>>, host: &mut HostTrace) -> (Vec<Table>, f64) {
    let mut rng = Rng::new(cfg.seed, "eval-paper/systems");
    let mut build_s = 0.0;
    let mut tables = Vec::new();
    for (label, spec, params) in [
        (
            "table1",
            table1_spec(),
            BenchmarkParams::table1(MONOMIALS, rng.next_u64()),
        ),
        (
            "table2",
            table2_spec(),
            BenchmarkParams::table2(MONOMIALS, rng.next_u64()),
        ),
    ] {
        let system = random_system::<f64>(&params);
        let system_dd = system.convert::<Dd>();
        let mut builder = Engine::builder().backend(Backend::GpuBatch { capacity: P });
        if let Some(t) = &tracer {
            builder = builder.tracer(t.clone());
        }
        let (gpu, s1) = host.time("build", 0, || builder.build(&system));
        let (gpu_dd, s2) = host.time("build", 0, || builder.build(&system_dd));
        build_s += s1 + s2;
        let cpu_spec = Engine::builder().backend(Backend::CpuReference);
        tables.push(Table {
            label,
            spec,
            gpu: gpu.expect("the paper's 704-monomial systems fit the C2050"),
            gpu_dd: gpu_dd.expect("the paper's 704-monomial systems fit the C2050 in dd"),
            cpu: cpu_spec
                .build(&system)
                .expect("CPU reference accepts uniform systems"),
            cpu_dd: cpu_spec
                .build(&system_dd)
                .expect("CPU reference accepts uniform systems"),
            system,
        });
    }
    (tables, build_s)
}

fn points(cfg: &Config, label: &str, round: usize) -> (Vec<Vec<C64>>, Vec<Vec<CDd>>) {
    let mut rng = Rng::new(cfg.seed, &format!("eval-paper/points/{label}/{round}"));
    let pts: Vec<Vec<C64>> = (0..P)
        .map(|_| (0..N).map(|_| rng.unit_complex()).collect())
        .collect();
    let dd = pts
        .iter()
        .map(|p| {
            p.iter()
                .map(|c| CDd::new(Dd::from(c.re), Dd::from(c.im)))
                .collect()
        })
        .collect();
    (pts, dd)
}

fn same<R: Real>(a: &[SystemEval<R>], b: &[SystemEval<R>]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.values == y.values && x.jacobian == y.jacobian)
}

/// One round: every table, f64 then dd, one full batch each. The device
/// calls and the f64 CPU baseline are timed apart; the bit-identity
/// gate compares them after.
fn round(
    cfg: &Config,
    tables: &mut [Table],
    r: usize,
    host: &mut HostTrace,
    report: &mut Report,
) -> Round {
    let mut calls = Vec::new();
    let mut cpu_s = 0.0;
    let mut device_cpu_s = 0.0;
    let mut identical = true;
    let per_round = tables.len();
    for (i, t) in tables.iter_mut().enumerate() {
        let (pts, pts_dd) = points(cfg, t.label, r);
        let id = (r * per_round + i) as u64;
        let c0 = host.cpu_s;
        t.gpu.reset_engine_stats();
        let (got, host_s) = host.time("try_evaluate_batch", id, || t.gpu.try_evaluate_batch(&pts));
        calls.push(Call {
            dd: false,
            host_s,
            stats: t.gpu.engine_stats(),
        });
        t.gpu_dd.reset_engine_stats();
        let (got_dd, host_dd) = host.time("try_evaluate_batch", id, || {
            t.gpu_dd.try_evaluate_batch(&pts_dd)
        });
        calls.push(Call {
            dd: true,
            host_s: host_dd,
            stats: t.gpu_dd.engine_stats(),
        });
        report.attempted += 2;
        device_cpu_s += host.cpu_s - c0;

        let t0 = Instant::now();
        let want = t
            .cpu
            .try_evaluate_batch(&pts)
            .expect("CPU reference never faults");
        cpu_s += t0.elapsed().as_secs_f64();
        let want_dd = t
            .cpu_dd
            .try_evaluate_batch(&pts_dd)
            .expect("CPU reference never faults");
        for (ok, dd) in [
            (got.map(|g| same(&g, &want)), false),
            (got_dd.map(|g| same(&g, &want_dd)), true),
        ] {
            match ok {
                Ok(true) => {}
                Ok(false) => identical = false,
                Err(e) => {
                    report.failed += 1;
                    identical = false;
                    report
                        .notes
                        .push(format!("{} dd={dd}: device call failed: {e}", t.label));
                }
            }
        }
    }
    Round {
        calls,
        cpu_s,
        device_cpu_s,
        identical,
    }
}

fn gate(report: &mut Report, rounds: &[Round]) {
    let differing = rounds.iter().filter(|r| !r.identical).count();
    report.gate(
        "device-equals-cpu-reference",
        differing == 0,
        format!(
            "{differing} of {} rounds differ; each round {} calls x {P} points, values and Jacobians in f64 and dd",
            rounds.len(),
            rounds[0].calls.len()
        ),
    );
}

/// Modeled time of one table's 704-monomial row beside the paper's GPU
/// seconds: the single-point pipeline, scaled to the paper's count.
fn model_error(t: &Table) -> String {
    assert_eq!(
        t.spec.totals[0], MONOMIALS,
        "row 0 of the paper's tables is 704 monomials"
    );
    let mut gpu = Engine::builder()
        .backend(Backend::Gpu)
        .build(&t.system)
        .expect("the paper's systems fit the C2050");
    let mut rng = Rng::new(0, "eval-paper/model-error");
    for _ in 0..3 {
        let x: Vec<C64> = (0..N).map(|_| rng.unit_complex()).collect();
        gpu.try_evaluate(&x).expect("fault-free engine");
    }
    let modeled = gpu.engine_stats().seconds_per_eval() * PAPER_EVALS;
    let paper = t.spec.paper_gpu[0];
    format!(
        "model error: {} at {MONOMIALS} monomials, {PAPER_EVALS} evaluations: modeled {modeled:.3} s vs paper C2050 {paper:.3} s ({:+.1}%)",
        t.spec.name,
        (modeled / paper - 1.0) * 100.0
    )
}

pub fn run(cfg: &Config) -> Report {
    let mut report = Report::default();
    let mut host = HostTrace::new(false);

    let mut setups = Vec::new();
    let mut builds = Vec::new();
    let mut tables = Vec::new();
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let (t, build_s) = setup(cfg, None, &mut host);
        setups.push(t0.elapsed().as_secs_f64());
        builds.push(build_s);
        tables = t;
    }
    report.set("setup_s", median(&setups));

    for t in &tables {
        report.notes.push(model_error(t));
    }
    report.notes.push(
        "model error covers the single-device evaluation kernels only; the cluster, linalg and serve parts of the cost model have no hardware reference and are unvalidated".into(),
    );

    // Untraced rounds until the time budget is spent (at least one).
    let t0 = Instant::now();
    let mut rounds = Vec::new();
    loop {
        let r0 = Instant::now();
        rounds.push(round(
            cfg,
            &mut tables,
            rounds.len(),
            &mut host,
            &mut report,
        ));
        let per_round = r0.elapsed().as_secs_f64();
        if cfg.trace || t0.elapsed().as_secs_f64() + per_round > cfg.seconds {
            break;
        }
    }
    let evals = (P * 2 * tables.len()) as f64;
    let host_rates: Vec<f64> = rounds
        .iter()
        .map(|r| evals / r.calls.iter().map(|c| c.host_s).sum::<f64>())
        .collect();
    let cpu_rates: Vec<f64> = rounds.iter().map(|r| evals / r.device_cpu_s).collect();
    let first = &rounds[0];
    let walls: Vec<f64> = first
        .calls
        .iter()
        .map(|c| c.stats.wall_clock_seconds())
        .collect();
    let modeled_rate = evals / walls.iter().sum::<f64>();
    report.set("host_ops_per_cpu_s", median(&cpu_rates));
    report.set("modeled_ops_per_s", modeled_rate);
    report.set("modeled_op_s", median(&walls));
    report.set("host_evals_per_s", median(&host_rates));
    report.set("modeled_evals_per_s", modeled_rate);
    gate(&mut report, &rounds);

    if cfg.trace {
        traced(cfg, &mut report, first, &builds, evals);
    }
    report.set("peak_rss_mb", crate::report::peak_rss_mb());
    report
}

/// The traced run: one more round on engines built with a collecting
/// tracer. Host-clock layer figures come from the untraced round above.
fn traced(cfg: &Config, report: &mut Report, untraced: &Round, builds: &[f64], evals: f64) {
    let tracer = Arc::new(CollectingTracer::new());
    let mut host = HostTrace::new(true);
    let (mut tables, _) = setup(cfg, Some(tracer.clone()), &mut host);
    let r = round(cfg, &mut tables, 0, &mut host, report);
    gate(report, std::slice::from_ref(&r));
    let spans = tracer.spans();

    let untraced_host: f64 = untraced.calls.iter().map(|c| c.host_s).sum();
    let traced_host: f64 = r.calls.iter().map(|c| c.host_s).sum();
    let mut total = PipelineStats::default();
    let (mut f64_host, mut dd_host, mut f64_wall, mut dd_wall) = (0.0, 0.0, 0.0, 0.0);
    for (c, u) in r.calls.iter().zip(&untraced.calls) {
        add_stats(&mut total, &c.stats);
        let wall = c.stats.wall_clock_seconds();
        if c.dd {
            dd_host += u.host_s;
            dd_wall += wall;
        } else {
            f64_host += u.host_s;
            f64_wall += wall;
        }
    }
    set_engine(report, &total, evals);
    report.set(
        "gpusim.host_us_per_warp",
        untraced_host / total.counters.warps as f64 * 1e6,
    );
    report.set("core.host_us_per_eval", untraced_host / evals * 1e6);
    report.set("core.build_host_s", median(builds));
    report.set("qd.dd_host_factor", dd_host / f64_host);
    report.set("qd.dd_modeled_factor", dd_wall / f64_wall);
    // The CPU baseline evaluates the f64 half of the round's points.
    report.set("polysys.cpu_evals_per_s", evals / 2.0 / untraced.cpu_s);
    set_spans(report, &[&spans], traced_host / untraced_host - 1.0);
    report.host_spans = Some(host.chrome_json());
    report.modeled_spans.push(("engines".into(), spans));
}
