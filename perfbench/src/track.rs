//! `track-cyclic5`: `Solver::solve` on cyclic 5-roots (70 isolated
//! roots), twice per iteration — from the total-degree start (120
//! paths, 50 of which diverge and escalate to double-double) and from
//! mixed cells (70 paths, no escalation) — on a point-sharded 2×C2050
//! cluster with packed encoding, the device-resident corrector, the
//! queue scheduler with `SlotPolicy::Auto` and escalating precision.
//!
//! The mixed-cell solve tracks each cell's binomial start system with
//! the linear gamma homotopy, so paths of different cells can end on
//! the same root: it reaches 45–60 of the 70 roots depending on the
//! lifting. Its gate therefore checks that every endpoint is one of the
//! total-degree roots, and `polyhedral.distinct_roots` reports how many
//! it reached.

use crate::layers::{add_stats, set_engine, set_spans};
use crate::report::Report;
use crate::rng::Rng;
use crate::spans::HostTrace;
use crate::stats::median;
use crate::Config;
use polygpu::polysys::classic::cyclic;
use polygpu::prelude::*;
use std::sync::Arc;
use std::time::Instant;

/// The gamma of both homotopies. Fixed rather than drawn from the seed:
/// over seven gamma seeds the modeled time of one iteration ranged
/// 0.226–0.332 s, because a different gamma re-draws every path's
/// length. The seed drives the mixed-cell lifting instead.
const GAMMA_SEED: u64 = 7;
/// Largest step in `t`. With the default 0.2 one total-degree path
/// jumps onto another path's root (69 distinct roots); at 0.05 all 70
/// are found.
const MAX_DT: f64 = 0.05;
const SETUP_REPS: usize = 21;
const ROOTS: usize = 70;
const RESIDUAL_TOL: f64 = 1e-8;
/// Endpoints closer than this (max-norm) are the same root.
const SAME_ROOT: f64 = 1e-6;

struct Inputs {
    target: System<f64>,
    solver: Solver,
    td: SolveRequest,
    mc: SolveRequest,
    lift_seed: u64,
}

struct Iteration {
    td: SolveReport,
    mc: SolveReport,
    td_host: f64,
    mc_host: f64,
    /// Process CPU seconds of both solves.
    cpu_s: f64,
}

impl Iteration {
    fn reports(&self) -> [&SolveReport; 2] {
        [&self.td, &self.mc]
    }

    fn host_s(&self) -> f64 {
        self.td_host + self.mc_host
    }

    fn modeled_s(&self) -> f64 {
        self.td.modeled_wall_seconds() + self.mc.modeled_wall_seconds()
    }

    fn paths(&self) -> usize {
        self.td.paths.len() + self.mc.paths.len()
    }
}

/// Build the target, the requests and the solver, and build the
/// cluster engine each solve provisions (f64 and dd) once to validate
/// the spec. Returns the inputs and the engine-build host seconds.
fn setup(cfg: &Config, host: &mut HostTrace) -> (Inputs, f64) {
    let target = cyclic::<f64>(5);
    let builder = Engine::builder()
        .backend(Backend::Cluster {
            devices: vec![DeviceSpec::tesla_c2050(); 2],
            shard: ClusterPolicy::default().into(),
        })
        .encoding(EncodingKind::Packed);
    let (f64_engine, s1) = host.time("build", 0, || builder.build(&target));
    let (dd_engine, s2) = host.time("build", 0, || builder.build(&target.convert::<Dd>()));
    f64_engine.expect("cyclic-5 fits the cluster");
    dd_engine.expect("cyclic-5 fits the cluster in dd");

    let params = TrackParams {
        corrector_mode: CorrectorMode::DeviceResident,
        max_dt: MAX_DT,
        ..TrackParams::default()
    };
    let base = SolveRequest::new(target.clone())
        .with_gamma_seed(GAMMA_SEED)
        .with_params(params)
        .with_precision(PrecisionPolicy::escalating_with(params))
        .with_scheduler(SchedulerKind::Queue {
            slots: SlotPolicy::Auto,
        });
    let lift_seed = Rng::new(cfg.seed, "track-cyclic5/lift").next_u64();
    let inputs = Inputs {
        td: base.clone().with_label("total-degree"),
        mc: base
            .with_start_kind(StartKind::MixedCells { lift_seed })
            .with_label("mixed-cells"),
        solver: Solver::from_builder(builder),
        target,
        lift_seed,
    };
    (inputs, s1 + s2)
}

fn iterate(
    inputs: &Inputs,
    host: &mut HostTrace,
    id: u64,
    tracers: Option<[Arc<CollectingTracer>; 2]>,
) -> Result<Iteration, SolveError> {
    let (mut td, mut mc) = (inputs.td.clone(), inputs.mc.clone());
    if let Some([a, b]) = tracers {
        td = td.with_tracer(a);
        mc = mc.with_tracer(b);
    }
    let c0 = host.cpu_s;
    let (td, td_host) = host.time("solve", id, || inputs.solver.solve(&td));
    let (mc, mc_host) = host.time("solve", id, || inputs.solver.solve(&mc));
    Ok(Iteration {
        td: td?,
        mc: mc?,
        td_host,
        mc_host,
        cpu_s: host.cpu_s - c0,
    })
}

/// Distinct endpoints of the successful paths with residual within
/// tolerance.
fn roots(report: &SolveReport) -> Vec<Vec<C64>> {
    let mut out: Vec<Vec<C64>> = Vec::new();
    for p in report
        .paths
        .iter()
        .filter(|p| p.success() && p.residual <= RESIDUAL_TOL)
    {
        let x = p.endpoint.to_f64();
        if !out.iter().any(|r| close(r, &x)) {
            out.push(x);
        }
    }
    out
}

fn close(a: &[C64], b: &[C64]) -> bool {
    a.iter()
        .zip(b)
        .all(|(x, y)| (x.re - y.re).abs().max((x.im - y.im).abs()) < SAME_ROOT)
}

fn gate_roots(report: &mut Report, it: &Iteration) {
    let td = roots(&it.td);
    report.gate(
        "total-degree-finds-70-roots",
        td.len() == ROOTS,
        format!(
            "{} distinct roots with residual <= {RESIDUAL_TOL:e}",
            td.len()
        ),
    );
    let mc = roots(&it.mc);
    let on_roots = it
        .mc
        .paths
        .iter()
        .filter(|p| p.success() && p.residual <= RESIDUAL_TOL)
        .filter(|p| td.iter().any(|r| close(r, &p.endpoint.to_f64())))
        .count();
    report.gate(
        "mixed-cell-endpoints-are-roots",
        it.mc.paths.len() == ROOTS && on_roots == ROOTS,
        format!(
            "{on_roots} of {} paths end on a total-degree root; {} distinct",
            it.mc.paths.len(),
            mc.len()
        ),
    );
    report.set("polyhedral.distinct_roots", mc.len() as f64);
}

pub fn run(cfg: &Config) -> Report {
    let mut report = Report::default();
    let mut host = HostTrace::new(false);

    let mut setups = Vec::new();
    let mut builds = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let (i, build_s) = setup(cfg, &mut host);
        setups.push(t0.elapsed().as_secs_f64());
        builds.push(build_s);
        inputs = Some(i);
    }
    let inputs = inputs.expect("at least one setup");
    report.set("setup_s", median(&setups));

    let t0 = Instant::now();
    let mut iterations = Vec::new();
    loop {
        report.attempted += 2;
        match iterate(&inputs, &mut host, iterations.len() as u64, None) {
            Ok(it) => iterations.push(it),
            Err(e) => {
                report.failed += 1;
                report.gate("solves-complete", false, format!("solve failed: {e}"));
                return report;
            }
        }
        let last = iterations.last().expect("pushed above").host_s();
        if cfg.trace || t0.elapsed().as_secs_f64() + last > cfg.seconds {
            break;
        }
    }
    for it in &iterations {
        gate_roots(&mut report, it);
    }

    let first = &iterations[0];
    let paths = first.paths() as f64;
    let host_solve = median(&iterations.iter().map(Iteration::host_s).collect::<Vec<_>>());
    let successes: usize = first.reports().iter().map(|r| r.successes()).sum();
    report.set(
        "host_ops_per_cpu_s",
        paths / median(&iterations.iter().map(|it| it.cpu_s).collect::<Vec<_>>()),
    );
    report.set("modeled_ops_per_s", paths / first.modeled_s());
    report.set("modeled_op_s", first.modeled_s());
    report.set("host_solve_s", host_solve);
    report.set("modeled_solve_s", first.modeled_s());
    report.set("paths_failed_frac", (paths - successes as f64) / paths);
    report.notes.push(format!(
        "track-cyclic5: {} iteration(s); paths failed {} of {paths} (the 50 total-degree paths to infinity stay failed)",
        iterations.len(),
        paths as usize - successes
    ));

    if cfg.trace {
        traced(&inputs, &mut report, first, &builds);
    }
    report.set("peak_rss_mb", crate::report::peak_rss_mb());
    report
}

/// The traced run: `mixed_cell_starts` on its own for the polyhedral
/// layer, then one iteration with a collecting tracer on each solve.
fn traced(inputs: &Inputs, report: &mut Report, untraced: &Iteration, builds: &[f64]) {
    let mut host = HostTrace::new(true);
    let (mc, mc_s) = host.time("mixed_cell_starts", 0, || {
        mixed_cell_starts(&inputs.target, inputs.lift_seed)
    });
    let mc = mc.expect("cyclic-5 has mixed cells");
    report.set("polyhedral.host_s", mc_s);
    report.set("polyhedral.mixed_volume", mc.mixed_volume as f64);
    report.set("polyhedral.bezout", mc.bezout as f64);

    let tracers = [
        Arc::new(CollectingTracer::new()),
        Arc::new(CollectingTracer::new()),
    ];
    let it = match iterate(inputs, &mut host, 1, Some(tracers.clone())) {
        Ok(it) => it,
        Err(e) => {
            report.failed += 1;
            report.gate(
                "solves-complete",
                false,
                format!("traced solve failed: {e}"),
            );
            return;
        }
    };
    report.attempted += 2;
    gate_roots(report, &it);

    let mut engine = PipelineStats::default();
    let (mut rounds, mut point_rounds, mut slot_rounds) = (0usize, 0usize, 0usize);
    let (mut accepted, mut rejected, mut escalated, mut rescued) = (0usize, 0usize, 0usize, 0usize);
    let mut dd_wall = 0.0;
    for r in it.reports() {
        add_stats(&mut engine, &r.engine);
        let mut passes = vec![r.stats];
        if let Some(e) = &r.escalation {
            add_stats(&mut engine, &e.engine);
            passes.push(e.stats);
            dd_wall += e.engine.wall_clock_seconds();
            rescued += e.rescued;
        }
        escalated += r.escalated();
        for s in passes {
            rounds += s.rounds;
            point_rounds += s.point_rounds;
            slot_rounds += s.rounds * s.slots;
            accepted += s.steps_accepted;
            rejected += s.steps_rejected;
        }
    }
    let evals = engine.evaluations as f64;
    set_engine(report, &engine, evals);
    report.set(
        "gpusim.host_us_per_warp",
        untraced.host_s() / engine.counters.warps as f64 * 1e6,
    );
    report.set("core.host_us_per_eval", untraced.host_s() / evals * 1e6);
    report.set("core.build_host_s", median(builds));
    report.set("homotopy.rounds", rounds as f64);
    report.set(
        "homotopy.occupancy",
        point_rounds as f64 / slot_rounds as f64,
    );
    report.set(
        "homotopy.step_accept_ratio",
        accepted as f64 / (accepted + rejected) as f64,
    );
    report.set("homotopy.steps_attempted", (accepted + rejected) as f64);
    report.set("homotopy.evals_per_path", evals / it.paths() as f64);
    report.set("homotopy.dd_pass_share", dd_wall / it.modeled_s());
    report.set("homotopy.escalated", escalated as f64);
    report.set("homotopy.rescued", rescued as f64);
    report.set("homotopy.host_s.total_degree", untraced.td_host);
    report.set("homotopy.host_s.mixed_cells", untraced.mc_host);
    report.set(
        "homotopy.modeled_s.total_degree",
        it.td.modeled_wall_seconds(),
    );
    report.set(
        "homotopy.modeled_s.mixed_cells",
        it.mc.modeled_wall_seconds(),
    );

    let spans = tracers.map(|t| t.spans());
    set_spans(
        report,
        &[&spans[0], &spans[1]],
        it.host_s() / untraced.host_s() - 1.0,
    );
    let [td_spans, mc_spans] = spans;
    report.modeled_spans.push(("total-degree".into(), td_spans));
    report.modeled_spans.push(("mixed-cells".into(), mc_spans));
    report.host_spans = Some(host.chrome_json());
}
