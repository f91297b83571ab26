//! `serve-open`: a `SolveService` over a row-sharded 2×C2050 fleet fed
//! open-loop Poisson arrivals on the modeled clock by eight independent
//! tenants (weights 1/2/4, mixed priorities). Targets are small uniform
//! systems drawn Zipf-like from a large pool: head repeats hit the
//! encoded-system cache, tail one-offs miss it.
//!
//! The service drains its queue in `run()`; requests that fall due
//! during a drain are submitted when it returns, and every request is
//! timed from its due time. The same arrival trace, time-scaled, runs at
//! each rate of a fixed ladder.

use crate::layers::set_spans;
use crate::report::Report;
use crate::rng::{Rng, Zipf};
use crate::spans::HostTrace;
use crate::stats::{
    failure_fraction, highest_percentile, max_rate, mean, median, percentile, OpenLoopSample,
    Ratio, RungResult,
};
use crate::Config;
use polygpu::polysys::{Monomial, Polynomial, Term};
use polygpu::prelude::*;
use polygpu::serve::{JobId, JobOutcome, JobRecord};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Requests in the arrival trace, all offered at the nominal rate.
const TRACE_JOBS: usize = 400;
/// Requests per ladder rung (a prefix of the trace): the smallest count
/// whose p90 leaves ten samples beyond it.
const LADDER_JOBS: usize = 100;
/// The offered rate the latency metrics are reported at (jobs per
/// modeled second).
const NOMINAL_RATE: f64 = 100.0;
/// Offered rates of the max-rate ladder, as multiples of the nominal.
const LADDER: [f64; 5] = [1.0, 1.5, 2.0, 3.0, 4.0];
/// The p90 latency limit of the max-rate ladder (modeled seconds).
const LATENCY_LIMIT: f64 = 0.05;
/// Tenant weights; each tenant's share of the arrivals is its weight
/// over the total.
const WEIGHTS: [u32; 8] = [4, 4, 2, 2, 2, 1, 1, 1];
const MAX_IN_FLIGHT: usize = 4;
/// High / normal / low shares of the requests.
const PRIORITY_MIX: [f64; 3] = [0.2, 0.6, 0.2];
/// Distinct targets the Zipf draw ranges over, and its exponent.
const POOL: usize = 2000;
const ZIPF_S: f64 = 0.8;
/// Target size: `n` variables, each equation `c₀·x_i² + c₁·x_{i+1} +
/// c₂·x_{i+2}` (indices mod n).
const VARS: usize = 4;
/// Paths per request, drawn from the 2ⁿ start solutions.
const PATHS: usize = 1;
/// Served jobs per host-time block; `host_jobs_per_s` is the median
/// over blocks, so a load spike on the host skews one block, not the
/// figure.
const HOST_BLOCK: usize = 50;
/// Served jobs re-solved directly through `Solver::solve` per run.
const CHECKED_JOBS: usize = 3;
const SETUP_REPS: usize = 21;

struct Job {
    tenant: usize,
    priority: Priority,
    request: SolveRequest,
    /// Due time of a unit-rate trace; at rate λ the job is due at
    /// `unit_due / λ`.
    unit_due: f64,
}

/// A small uniform target: every equation `c₀·x_i² + c₁·x_{i+1} +
/// c₂·x_{i+2}` with random unit coefficients. Its only degree-2 terms
/// are the diagonal squares, so no root lies at infinity and every
/// total-degree path converges — no job carries a diverging path.
fn target(seed: u64, rank: usize) -> System<f64> {
    let mut rng = Rng::new(seed, &format!("serve-open/target/{rank}"));
    let polys = (0..VARS)
        .map(|i| {
            Polynomial::new(
                [(i, 2), ((i + 1) % VARS, 1), ((i + 2) % VARS, 1)]
                    .into_iter()
                    .map(|(v, e)| Term {
                        coeff: rng.unit_complex(),
                        monomial: Monomial::new(vec![(v as u16, e)])
                            .expect("one variable with a positive exponent"),
                    })
                    .collect(),
            )
        })
        .collect();
    System::new(VARS, polys).expect("square system")
}

/// The arrival trace and every request's inputs.
fn generate(cfg: &Config) -> Vec<Job> {
    let mut rng = Rng::new(cfg.seed, "serve-open/trace");
    let zipf = Zipf::new(POOL, ZIPF_S);
    let weights: Vec<f64> = WEIGHTS.iter().map(|&w| f64::from(w)).collect();
    let mut pool: BTreeMap<usize, System<f64>> = BTreeMap::new();
    let mut due = 0.0;
    (0..TRACE_JOBS)
        .map(|i| {
            due += rng.exp1();
            let tenant = rng.weighted(&weights);
            let priority =
                [Priority::High, Priority::Normal, Priority::Low][rng.weighted(&PRIORITY_MIX)];
            let rank = zipf.sample(&mut rng);
            let system = pool
                .entry(rank)
                .or_insert_with(|| target(cfg.seed, rank))
                .clone();
            let mut starts: Vec<u128> = (0..1u128 << VARS).collect();
            rng.shuffle(&mut starts);
            starts.truncate(PATHS);
            let request = SolveRequest::new(system)
                .with_starts(StartSelection::Indices(starts))
                .with_gamma_seed(rng.next_u64())
                .with_label(format!("job-{i}"));
            Job {
                tenant,
                priority,
                request,
                unit_due: due,
            }
        })
        .collect()
}

fn fleet_spec(
    tracer: Option<Arc<dyn Tracer>>,
) -> polygpu::engine::EngineBuilder<polygpu::engine::Sharded> {
    let builder = Engine::builder().backend(Backend::Cluster {
        devices: vec![DeviceSpec::tesla_c2050(); 2],
        shard: SystemShardPolicy::Contiguous.into(),
    });
    match tracer {
        Some(t) => builder.tracer(t),
        None => builder,
    }
}

/// Open one service with every tenant registered.
fn open_service(tracer: Option<Arc<dyn Tracer>>) -> (SolveService, Vec<TenantId>) {
    let spec = fleet_spec(tracer.clone());
    let mut svc = SolveService::new(&spec).expect("row-sharded clusters are servable");
    if let Some(t) = tracer {
        svc = svc.with_tracer(t);
    }
    let tenants = WEIGHTS
        .iter()
        .enumerate()
        .map(|(i, &w)| {
            svc.register(
                TenantSpec::new(format!("tenant-{i}"))
                    .with_weight(w)
                    .with_max_in_flight(MAX_IN_FLIGHT),
            )
        })
        .collect();
    (svc, tenants)
}

/// One offered rate's run.
struct Rung {
    result: RungResult,
    /// Served jobs, in service order, with their trace index.
    records: Vec<(usize, JobRecord)>,
    refused: usize,
    failed: usize,
    cache: CacheStats,
    submit_s: f64,
    run_s: f64,
    /// Per drain: jobs served, and host and process CPU seconds of its
    /// `submit`s and `run`.
    drains: Vec<(usize, f64, f64)>,
}

impl Rung {
    fn served(&self) -> usize {
        self.records.len()
    }

    /// Modeled seconds the fleet spent admitting and solving.
    fn busy(&self) -> f64 {
        self.records
            .iter()
            .map(|(_, r)| r.admission_seconds + r.solve_seconds)
            .sum()
    }
}

/// Drive `jobs` at `rate` through `svc`. The benchmark's clock is the
/// service clock plus the idle time the service spent waiting for the
/// next arrival.
fn run_rung(
    svc: &mut SolveService,
    tenants: &[TenantId],
    jobs: &[Job],
    rate: f64,
    host: &mut HostTrace,
) -> Rung {
    let due = |i: usize| jobs[i].unit_due / rate;
    let mut submitted = vec![0.0; jobs.len()];
    let mut completed: Vec<Option<f64>> = vec![None; jobs.len()];
    let mut index_of: BTreeMap<JobId, usize> = BTreeMap::new();
    let mut records = Vec::new();
    let (mut refused, mut failed, mut submit_s, mut run_s) = (0, 0, 0.0, 0.0);
    let mut drains = Vec::new();
    let mut pending_submit_s = 0.0;
    let mut drain_cpu0 = host.cpu_s;
    let mut offset = 0.0;
    let mut now = 0.0;
    let mut next = 0;
    let mut cache = CacheStats::default();
    while next < jobs.len() {
        if svc.queued() == 0 && due(next) > now {
            offset += due(next) - now;
            now = due(next);
        }
        while next < jobs.len() && due(next) <= now {
            let j = &jobs[next];
            let (res, s) = host.time("submit", next as u64, || {
                svc.submit(tenants[j.tenant], j.priority, j.request.clone())
            });
            submit_s += s;
            pending_submit_s += s;
            submitted[next] = now;
            match res {
                Ok(id) => {
                    index_of.insert(id, next);
                }
                Err(ServeError::Overloaded { .. }) => refused += 1,
                Err(_) => failed += 1,
            }
            next += 1;
        }
        if svc.queued() > 0 {
            let first = records.len() as u64;
            let (report, s) = host.time("run", first, || svc.run());
            run_s += s;
            drains.push((
                report.jobs.len(),
                pending_submit_s + s,
                host.cpu_s - drain_cpu0,
            ));
            pending_submit_s = 0.0;
            drain_cpu0 = host.cpu_s;
            cache = report.cache;
            for rec in report.jobs {
                let i = index_of[&rec.job];
                if rec.outcome == JobOutcome::Solved {
                    completed[i] = Some(
                        submitted[i] + rec.wait_seconds + rec.admission_seconds + rec.solve_seconds,
                    );
                } else {
                    failed += 1;
                }
                records.push((i, rec));
            }
            now = svc.clock() + offset;
        }
    }
    let samples = (0..jobs.len())
        .map(|i| OpenLoopSample {
            due: due(i),
            submitted: submitted[i],
            completed: completed[i],
        })
        .collect();
    Rung {
        result: RungResult { rate, samples },
        records,
        refused,
        failed,
        cache,
        submit_s,
        run_s,
        drains,
    }
}

/// One pass: the whole trace at the nominal rate, then the ladder.
struct Pass {
    nominal: Rung,
    ladder: Vec<Rung>,
}

impl Pass {
    fn rungs(&self) -> impl Iterator<Item = &Rung> {
        std::iter::once(&self.nominal).chain(&self.ladder)
    }

    /// Served jobs per host second and per process CPU second of
    /// `submit` + `run`, one pair per block of consecutive drains
    /// serving at least `HOST_BLOCK` jobs.
    fn host_jobs_per_s(&self) -> Vec<(f64, f64)> {
        let mut rates = Vec::new();
        for r in self.rungs() {
            let (mut jobs, mut secs, mut cpu) = (0, 0.0, 0.0);
            for &(j, s, c) in &r.drains {
                jobs += j;
                secs += s;
                cpu += c;
                if jobs >= HOST_BLOCK {
                    rates.push((jobs as f64 / secs, jobs as f64 / cpu));
                    (jobs, secs, cpu) = (0, 0.0, 0.0);
                }
            }
        }
        rates
    }
}

type Fleet = (SolveService, Vec<TenantId>);

/// One fresh fleet for the nominal run and one per ladder rung.
fn fleets() -> Vec<Fleet> {
    (0..=LADDER.len()).map(|_| open_service(None)).collect()
}

fn run_pass(jobs: &[Job], fleets: Vec<Fleet>, host: &mut HostTrace) -> Pass {
    let mut fleets = fleets.into_iter();
    let (mut svc, tenants) = fleets.next().expect("a fleet for the nominal run");
    let nominal = run_rung(&mut svc, &tenants, jobs, NOMINAL_RATE, host);
    let ladder = LADDER
        .iter()
        .zip(fleets)
        .map(|(&m, (mut svc, tenants))| {
            run_rung(
                &mut svc,
                &tenants,
                &jobs[..LADDER_JOBS],
                NOMINAL_RATE * m,
                host,
            )
        })
        .collect();
    Pass { nominal, ladder }
}

/// Re-solve sampled served jobs with `Solver::solve` on the same spec.
fn gate_checksums(report: &mut Report, cfg: &Config, jobs: &[Job], rung: &Rung) {
    let solver = Solver::from_builder(fleet_spec(None));
    let mut rng = Rng::new(cfg.seed, "serve-open/checked");
    let mut mismatches = Vec::new();
    for _ in 0..CHECKED_JOBS.min(rung.records.len()) {
        let (i, rec) = &rung.records[rng.below(rung.records.len())];
        match solver.solve(&jobs[*i].request) {
            Ok(direct) => {
                let mut sum = 0.0;
                for p in &direct.paths {
                    sum += p.t;
                    for c in p.endpoint.to_f64() {
                        sum += c.re + c.im;
                    }
                }
                if sum != rec.endpoint_checksum {
                    mismatches.push(format!(
                        "{}: served {} vs direct {sum}",
                        rec.label, rec.endpoint_checksum
                    ));
                }
            }
            Err(e) => mismatches.push(format!("{}: direct solve failed: {e}", rec.label)),
        }
    }
    report.gate(
        "served-equals-direct-solve",
        mismatches.is_empty(),
        if mismatches.is_empty() {
            format!("{CHECKED_JOBS} sampled jobs' endpoint checksums equal Solver::solve")
        } else {
            mismatches.join("; ")
        },
    );
}

pub fn run(cfg: &Config) -> Report {
    let mut report = Report::default();
    let mut host = HostTrace::new(false);

    let mut setups = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let jobs = generate(cfg);
        let f = fleets();
        setups.push(t0.elapsed().as_secs_f64());
        inputs = Some((jobs, f));
    }
    let (jobs, mut next_fleets) = inputs.expect("at least one setup");
    report.set("setup_s", median(&setups));

    let t0 = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let p0 = Instant::now();
        passes.push(run_pass(&jobs, next_fleets, &mut host));
        let per_pass = p0.elapsed().as_secs_f64();
        if cfg.trace || t0.elapsed().as_secs_f64() + per_pass > cfg.seconds {
            break;
        }
        next_fleets = fleets();
    }
    let pass = &passes[0];
    for r in pass.rungs() {
        report.attempted += r.result.samples.len() as u64;
        report.failed += r.failed as u64;
    }
    let nom = &pass.nominal;
    gate_checksums(&mut report, cfg, &jobs, nom);

    let (host_rates, cpu_rates): (Vec<f64>, Vec<f64>) =
        passes.iter().flat_map(Pass::host_jobs_per_s).unzip();
    let latencies = nom.result.latencies();
    assert_eq!(
        highest_percentile(latencies.len()),
        Some(0.9),
        "{TRACE_JOBS} requests report p90"
    );
    let p50 = percentile(&latencies, 0.5);
    let p90 = percentile(&latencies, 0.9);
    let results: Vec<RungResult> = pass.ladder.iter().map(|r| r.result.clone()).collect();
    let refused = failure_fraction(nom.refused, nom.failed, TRACE_JOBS);

    report.set("host_ops_per_cpu_s", median(&cpu_rates));
    report.set("modeled_ops_per_s", nom.served() as f64 / nom.busy());
    let service: Vec<f64> = nom
        .records
        .iter()
        .map(|(_, r)| r.admission_seconds + r.solve_seconds)
        .collect();
    report.set("modeled_op_s", mean(&service));
    report.set("host_jobs_per_s", median(&host_rates));
    report.set("latency_p50_s", p50);
    report.set("latency_p90_s", p90);
    report.set("latency_samples", latencies.len() as f64);
    report.set("max_rate_jobs_per_s", max_rate(&results, LATENCY_LIMIT));
    report.set("jobs_failed_frac", refused.value());
    report.notes.push(format!(
        "serve-open: {} pass(es); at {NOMINAL_RATE} jobs/s: p50 {p50:.4e} s, p90 {p90:.4e} s over {} requests ({} refused, {} failed, base {TRACE_JOBS})",
        passes.len(),
        latencies.len(),
        nom.refused,
        nom.failed
    ));
    for r in &pass.ladder {
        report.notes.push(format!(
            "serve-open ladder ({LADDER_JOBS} requests): {:>6.1} jobs/s: p90 {:.4e} s, drain {:.4e} s, refused {}, meets the {LATENCY_LIMIT} s limit: {}",
            r.result.rate,
            r.result.p90(),
            r.result.drain(),
            r.refused,
            r.result.meets(LATENCY_LIMIT)
        ));
    }
    for (name, v) in [("latency_p50_s", p50), ("latency_p90_s", p90)] {
        if !v.is_finite() {
            report.gate(
                "nominal-rate-served",
                false,
                format!("{name} is infinite: requests refused at the nominal rate"),
            );
        }
    }

    if cfg.trace {
        traced(&mut report, &jobs, nom);
    }
    report.set("peak_rss_mb", crate::report::peak_rss_mb());
    report
}

/// The traced run: the nominal rung once more, with a collecting tracer
/// on both the fleet's engines and the service.
fn traced(report: &mut Report, jobs: &[Job], untraced: &Rung) {
    let tracer = Arc::new(CollectingTracer::new());
    let mut host = HostTrace::new(true);
    let (mut svc, tenants) = open_service(Some(tracer.clone()));
    let rung = run_rung(&mut svc, &tenants, jobs, NOMINAL_RATE, &mut host);
    let spans = tracer.spans();

    let waits: Vec<f64> = untraced
        .records
        .iter()
        .map(|(_, r)| r.wait_seconds)
        .collect();
    let admits: Vec<f64> = untraced
        .records
        .iter()
        .map(|(_, r)| r.admission_seconds)
        .collect();
    let solves: Vec<f64> = untraced
        .records
        .iter()
        .map(|(_, r)| r.solve_seconds)
        .collect();
    let lookups = untraced.cache.hits + untraced.cache.misses;
    let span = untraced
        .result
        .samples
        .iter()
        .filter_map(|s| s.completed)
        .fold(0.0, f64::max)
        - untraced.result.samples[0].due;
    report.set("serve.wait_s.p50", percentile(&waits, 0.5));
    report.set("serve.wait_s.p90", percentile(&waits, 0.9));
    report.set("serve.admit_s.mean", mean(&admits));
    report.set("serve.solve_s.mean", mean(&solves));
    report.set(
        "serve.cache_hit_rate",
        Ratio::new(untraced.cache.hits as f64, lookups as f64).value(),
    );
    report.set("serve.cache_lookups", lookups as f64);
    report.set("serve.busy_frac", untraced.busy() / span);
    report.set("serve.rejected_overloaded", untraced.refused as f64);
    report.set(
        "serve.gen_lag_s.max",
        untraced
            .result
            .samples
            .iter()
            .map(OpenLoopSample::lag)
            .fold(0.0, f64::max),
    );
    report.set("serve.host_s.submit", untraced.submit_s);
    report.set("serve.host_s.run", untraced.run_s);
    set_spans(
        report,
        &[&spans],
        (rung.submit_s + rung.run_s) / (untraced.submit_s + untraced.run_s) - 1.0,
    );
    report.modeled_spans.push(("nominal".into(), spans));
    report.host_spans = Some(host.chrome_json());
}
