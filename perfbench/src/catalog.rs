//! Every metric the benchmark reports, with its unit, its clock and the
//! direction that is better. `BENCHMARK.json` lists the same names; a
//! unit test keeps the two in step.

/// Which clock a metric is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Host seconds on the machine running the benchmark.
    Host,
    /// Process CPU seconds on that machine (all threads, steal excluded).
    HostCpu,
    /// The C2050 cost model's seconds (deterministic per seed).
    Modeled,
    /// A count or ratio of counts (deterministic per seed).
    Count,
}

impl Clock {
    pub fn name(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::HostCpu => "host-cpu",
            Clock::Modeled => "modeled",
            Clock::Count => "count",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub higher_is_better: bool,
}

const fn def(name: &'static str, unit: &'static str, clock: Clock, higher: bool) -> Def {
    Def {
        name,
        unit,
        clock,
        higher_is_better: higher,
    }
}

use Clock::{Count, Host, HostCpu, Modeled};

/// End-to-end metrics: reported by **every** workload with tracing
/// off. Each is the workload-independent form of the per-workload
/// metric named in the README (`host_ops_per_cpu_s` is the CPU-clock
/// form of `host_evals_per_s` on eval-paper, of paths per host second
/// on track-cyclic5 and of `host_jobs_per_s` on serve-open, and so on).
pub const END_TO_END: &[Def] = &[
    def("setup_s", "s", Host, false),
    def("peak_rss_mb", "MiB", Host, false),
    def("host_ops_per_cpu_s", "1/s", HostCpu, true),
    def("modeled_ops_per_s", "1/s", Modeled, true),
    def("modeled_op_s", "s", Modeled, false),
];

/// The workload metrics of the benchmark's design, each meaningful on
/// one workload (zero elsewhere). Printed by every untraced run of
/// their workload and emitted with the per-layer metrics.
pub const WORKLOAD: &[Def] = &[
    def("host_evals_per_s", "1/s", Host, true),
    def("modeled_evals_per_s", "1/s", Modeled, true),
    def("host_solve_s", "s", Host, false),
    def("modeled_solve_s", "s", Modeled, false),
    def("paths_failed_frac", "ratio", Count, false),
    def("host_jobs_per_s", "1/s", Host, true),
    def("latency_p50_s", "s", Modeled, false),
    def("latency_p90_s", "s", Modeled, false),
    def("latency_samples", "count", Count, true),
    def("max_rate_jobs_per_s", "1/s", Modeled, true),
    def("jobs_failed_frac", "ratio", Count, false),
];

/// Per-layer metrics, named after the workspace crates. Zero means the
/// layer does no work in that workload (or, where the README says so,
/// that the figure cannot be read from outside the program).
pub const LAYERS: &[Def] = &[
    def("gpusim.warps", "count", Count, false),
    def("gpusim.global_transactions", "count", Count, false),
    def("gpusim.flops", "count", Count, false),
    def("gpusim.divergent_segments", "count", Count, false),
    def("gpusim.host_us_per_warp", "us", Host, false),
    def("core.kernel_s", "s", Modeled, false),
    def("core.transfer_s", "s", Modeled, false),
    def("core.overhead_s", "s", Modeled, false),
    def("core.overlap_savings_s", "s", Modeled, true),
    def("core.h2d_bytes", "bytes", Count, false),
    def("core.d2h_bytes", "bytes", Count, false),
    def("core.factor_s", "s", Modeled, false),
    def("core.backsub_s", "s", Modeled, false),
    def("core.corrector_iterations", "count", Count, false),
    def("core.host_us_per_eval", "us", Host, false),
    def("core.build_host_s", "s", Host, false),
    def("qd.dd_host_factor", "ratio", Host, false),
    def("qd.dd_modeled_factor", "ratio", Modeled, false),
    def("polysys.cpu_evals_per_s", "1/s", Host, true),
    def("cluster.shard_imbalance", "ratio", Modeled, false),
    def("cluster.gather_s", "s", Modeled, false),
    def("cluster.gather_frac", "ratio", Modeled, false),
    def("polyhedral.host_s", "s", Host, false),
    def("polyhedral.mixed_volume", "count", Count, false),
    def("polyhedral.bezout", "count", Count, false),
    def("polyhedral.distinct_roots", "count", Count, true),
    def("homotopy.rounds", "count", Count, false),
    def("homotopy.occupancy", "ratio", Count, true),
    def("homotopy.step_accept_ratio", "ratio", Count, true),
    def("homotopy.steps_attempted", "count", Count, false),
    def("homotopy.evals_per_path", "count", Count, false),
    def("homotopy.dd_pass_share", "ratio", Modeled, false),
    def("homotopy.escalated", "count", Count, false),
    def("homotopy.rescued", "count", Count, true),
    def("homotopy.host_s.total_degree", "s", Host, false),
    def("homotopy.host_s.mixed_cells", "s", Host, false),
    def("homotopy.modeled_s.total_degree", "s", Modeled, false),
    def("homotopy.modeled_s.mixed_cells", "s", Modeled, false),
    def("serve.wait_s.p50", "s", Modeled, false),
    def("serve.wait_s.p90", "s", Modeled, false),
    def("serve.admit_s.mean", "s", Modeled, false),
    def("serve.solve_s.mean", "s", Modeled, false),
    def("serve.cache_hit_rate", "ratio", Count, true),
    def("serve.cache_lookups", "count", Count, true),
    def("serve.busy_frac", "ratio", Modeled, false),
    def("serve.rejected_overloaded", "count", Count, false),
    def("serve.gen_lag_s.max", "s", Modeled, false),
    def("serve.host_s.submit", "s", Host, false),
    def("serve.host_s.run", "s", Host, false),
    def("obs.spans", "count", Count, false),
    def("obs.trace_overhead_frac", "ratio", Host, false),
    def("trace.self_s.solve", "s", Modeled, false),
    def("trace.self_s.pass", "s", Modeled, false),
    def("trace.self_s.round", "s", Modeled, false),
    def("trace.self_s.batch", "s", Modeled, false),
    def("trace.self_s.shard", "s", Modeled, false),
    def("trace.self_s.upload", "s", Modeled, false),
    def("trace.self_s.launch", "s", Modeled, false),
    def("trace.self_s.download", "s", Modeled, false),
    def("trace.self_s.gather", "s", Modeled, false),
    def("trace.self_s.retry", "s", Modeled, false),
    def("trace.self_s.backoff", "s", Modeled, false),
    def("trace.self_s.detect", "s", Modeled, false),
    def("trace.self_s.reencode", "s", Modeled, false),
    def("trace.self_s.fallback", "s", Modeled, false),
    def("trace.self_s.serve", "s", Modeled, false),
    def("trace.self_s.admit", "s", Modeled, false),
    def("trace.self_s.wait", "s", Modeled, false),
    def("trace.self_s.evict", "s", Modeled, false),
    def("trace.self_s.correct", "s", Modeled, false),
    def("trace.self_s.factor", "s", Modeled, false),
    def("trace.self_s.backsub", "s", Modeled, false),
];

/// Look a metric up in every list.
pub fn find(name: &str) -> Option<&'static Def> {
    END_TO_END
        .iter()
        .chain(WORKLOAD)
        .chain(LAYERS)
        .find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&Def> = END_TO_END.iter().chain(WORKLOAD).chain(LAYERS).collect();
        for (i, d) in all.iter().enumerate() {
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
            assert!(all[..i].iter().all(|e| e.name != d.name), "{}", d.name);
        }
        assert!(END_TO_END.len() <= 16 && WORKLOAD.len() + LAYERS.len() <= 128);
    }

    #[test]
    fn benchmark_json_lists_every_metric_with_its_unit() {
        let json = benchmark_json();
        for d in END_TO_END.iter().chain(WORKLOAD).chain(LAYERS) {
            let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", d.name, d.unit);
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
            let better = if d.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            let with_better = format!("{entry}, \"better\": \"{better}\"");
            assert!(json.contains(&with_better), "{} direction", d.name);
        }
    }

    #[test]
    fn setup_is_an_end_to_end_metric() {
        let s = find("setup_s").unwrap();
        assert_eq!(
            (s.unit, s.clock, s.higher_is_better),
            ("s", Clock::Host, false)
        );
    }
}
