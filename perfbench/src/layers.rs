//! Per-layer figures shared by the workloads: engine statistics per
//! evaluation (`gpusim`, `core`) and everything read off the modeled
//! spans (`cluster`, `obs`, `trace.self_s.*`).

use crate::report::Report;
use crate::spans::self_times;
use polygpu::obs::{Span, SpanKind, Track};
use std::collections::BTreeMap;

/// Engine statistics over `evals` point-evaluations: simulator counters
/// and modeled seconds per evaluation, corrector iterations in total.
pub fn set_engine(report: &mut Report, s: &polygpu::prelude::PipelineStats, evals: f64) {
    let per = |x: f64| if evals > 0.0 { x / evals } else { 0.0 };
    report.set("gpusim.warps", per(s.counters.warps as f64));
    report.set(
        "gpusim.global_transactions",
        per(s.counters.global_transactions as f64),
    );
    report.set("gpusim.flops", per(s.counters.flops as f64));
    report.set(
        "gpusim.divergent_segments",
        per(s.counters.divergent_segments as f64),
    );
    report.set("core.kernel_s", per(s.kernel_seconds));
    report.set("core.transfer_s", per(s.transfer_seconds));
    report.set("core.overhead_s", per(s.overhead_seconds));
    report.set("core.overlap_savings_s", per(s.overlap_savings()));
    report.set("core.h2d_bytes", per(s.h2d_bytes as f64));
    report.set("core.d2h_bytes", per(s.d2h_bytes as f64));
    report.set("core.factor_s", per(s.factor_seconds));
    report.set("core.backsub_s", per(s.backsub_seconds));
    report.set("core.corrector_iterations", s.corrector_iterations as f64);
}

/// Sum of two engines' statistics (the fields the layers read).
pub fn add_stats(a: &mut polygpu::prelude::PipelineStats, b: &polygpu::prelude::PipelineStats) {
    a.evaluations += b.evaluations;
    a.counters += b.counters;
    a.kernel_seconds += b.kernel_seconds;
    a.transfer_seconds += b.transfer_seconds;
    a.overhead_seconds += b.overhead_seconds;
    a.h2d_bytes += b.h2d_bytes;
    a.d2h_bytes += b.d2h_bytes;
    a.factor_seconds += b.factor_seconds;
    a.backsub_seconds += b.backsub_seconds;
    a.corrector_iterations += b.corrector_iterations;
    a.wall_seconds += b.wall_clock_seconds();
}

/// Everything read off the modeled spans of one traced iteration, given
/// as independent span sets (one per tracer: spans of different sets
/// share clock origins, so they are never nested into each other).
/// `overhead` is traced over untraced host time, minus one.
pub fn set_spans(report: &mut Report, sets: &[&[Span]], overhead: f64) {
    let mut selfs: BTreeMap<&'static str, f64> = BTreeMap::new();
    let (mut max_sum, mut mean_sum, mut gather, mut batch_wall) = (0.0, 0.0, 0.0, 0.0);
    let mut count = 0usize;
    for spans in sets {
        count += spans.len();
        for (k, v) in self_times(spans) {
            *selfs.entry(k).or_default() += v;
        }
        // Shards of one cluster batch share their start time.
        let mut shards: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.track == Track::Cluster) {
            match s.kind {
                SpanKind::Shard => shards.entry(s.start.to_bits()).or_default().push(s.dur),
                SpanKind::Gather => gather += s.dur,
                SpanKind::Batch => batch_wall += s.dur,
                _ => {}
            }
        }
        for durs in shards.values() {
            max_sum += durs.iter().copied().fold(0.0, f64::max);
            mean_sum += durs.iter().sum::<f64>() / durs.len() as f64;
        }
    }
    for (kind, v) in selfs {
        report.set(&format!("trace.self_s.{kind}"), v);
    }
    report.set("obs.spans", count as f64);
    report.set("obs.trace_overhead_frac", overhead);
    report.set(
        "cluster.shard_imbalance",
        if mean_sum > 0.0 {
            max_sum / mean_sum
        } else {
            0.0
        },
    );
    report.set("cluster.gather_s", gather);
    report.set(
        "cluster.gather_frac",
        if batch_wall > 0.0 {
            gather / batch_wall
        } else {
            0.0
        },
    );
}
