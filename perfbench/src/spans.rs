//! Spans on both clocks.
//!
//! * **Modeled clock** — the program's own spans, collected through its
//!   public tracer hooks. They carry `depth` and `track` rather than
//!   parent ids, so a span's *self time* is its duration minus the part
//!   of it covered by spans one level deeper on the same track.
//! * **Host clock** — spans this benchmark records around each public
//!   call it makes, with an operation id shared by one request's spans.
//!
//! Both stay in memory and are written out when the run ends.

use polygpu::obs::{Span, Track};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Modeled self time summed per span kind name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    // Children candidates: per (track, depth), sorted by start.
    let mut by_level: BTreeMap<(Track, u8), Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        by_level
            .entry((s.track, s.depth))
            .or_default()
            .push((s.start, s.start + s.dur));
    }
    let mut longest: BTreeMap<(Track, u8), f64> = BTreeMap::new();
    for (key, v) in &mut by_level {
        v.sort_by(|a, b| a.0.total_cmp(&b.0));
        longest.insert(*key, v.iter().map(|(a, b)| b - a).fold(0.0, f64::max));
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        let (lo, hi) = (s.start, s.start + s.dur);
        let key = (s.track, s.depth.saturating_add(1));
        let covered = match by_level.get(&key) {
            Some(children) if s.depth < u8::MAX => {
                let first = children.partition_point(|c| c.0 < lo - longest[&key]);
                let clipped = children[first..]
                    .iter()
                    .take_while(|c| c.0 < hi)
                    .map(|&(a, b)| (a.max(lo), b.min(hi)))
                    .filter(|(a, b)| b > a);
                union_length(clipped)
            }
            _ => 0.0,
        };
        *out.entry(s.kind.name()).or_default() += (s.dur - covered).max(0.0);
    }
    out
}

/// Total length of the union of intervals given in start order.
fn union_length(intervals: impl Iterator<Item = (f64, f64)>) -> f64 {
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in intervals {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0.0, |(a, b)| b - a)
}

/// One host-clock span around a public call.
#[derive(Debug, Clone)]
pub struct HostSpan {
    pub op: &'static str,
    /// Shared by every span of one request.
    pub id: u64,
    /// Seconds since the recorder started.
    pub start: f64,
    pub dur: f64,
}

/// Records host spans around public calls; disabled recorders only
/// time the call.
#[derive(Debug)]
pub struct HostTrace {
    origin: Instant,
    enabled: bool,
    pub spans: Vec<HostSpan>,
    /// Process CPU seconds of every call timed so far.
    pub cpu_s: f64,
}

impl HostTrace {
    pub fn new(enabled: bool) -> Self {
        HostTrace {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            cpu_s: 0.0,
        }
    }

    /// Run `f`, returning its result and its host seconds; add its CPU
    /// seconds to `cpu_s`, and record a span when enabled.
    pub fn time<T>(&mut self, op: &'static str, id: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let c0 = crate::cpu::process_seconds();
        let t0 = Instant::now();
        let out = f();
        let dur = t0.elapsed().as_secs_f64();
        self.cpu_s += crate::cpu::process_seconds() - c0;
        if self.enabled {
            self.spans.push(HostSpan {
                op,
                id,
                start: (t0 - self.origin).as_secs_f64(),
                dur,
            });
        }
        (out, dur)
    }

    /// Chrome-trace JSON of the host spans (one thread per operation
    /// kind, the request id in `args`).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{}}}}}",
                s.op,
                s.start * 1e6,
                s.dur * 1e6,
                s.id
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polygpu::obs::SpanKind;

    fn span(kind: SpanKind, track: Track, start: f64, dur: f64, depth: u8) -> Span {
        Span {
            kind,
            track,
            start,
            dur,
            depth,
            meta: vec![],
        }
    }

    #[test]
    fn self_time_subtracts_next_depth_children_on_the_same_track() {
        let spans = vec![
            span(SpanKind::Solve, Track::Scheduler, 0.0, 10.0, 0),
            span(SpanKind::Round, Track::Scheduler, 1.0, 2.0, 1),
            span(SpanKind::Round, Track::Scheduler, 2.0, 3.0, 1), // overlaps the first
            span(SpanKind::Round, Track::Scheduler, 8.0, 4.0, 1), // runs past the parent
            // Two levels down: covered by its round, not by the solve.
            span(SpanKind::Batch, Track::Scheduler, 1.5, 0.5, 2),
            // Another track never covers the solve.
            span(SpanKind::Batch, Track::Device(0), 0.0, 10.0, 1),
        ];
        let st = self_times(&spans);
        // Solve: 10 − |[1,5) ∪ [8,10)| = 10 − 6 = 4.
        assert!((st["solve"] - 4.0).abs() < 1e-12);
        // Rounds: (2 − 0.5) + 3 + 4.
        assert!((st["round"] - 8.5).abs() < 1e-12);
        // Batches have no children: 0.5 + 10.
        assert!((st["batch"] - 10.5).abs() < 1e-12);
    }

    #[test]
    fn long_early_child_is_still_found() {
        // A child that starts well before a later sibling parent's start
        // but still overlaps it.
        let spans = vec![
            span(SpanKind::Pass, Track::Scheduler, 5.0, 2.0, 0),
            span(SpanKind::Round, Track::Scheduler, 0.0, 6.0, 1),
            span(SpanKind::Round, Track::Scheduler, 4.0, 0.1, 1),
        ];
        let st = self_times(&spans);
        assert!((st["pass"] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn union_merges_overlaps() {
        let v = [(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)];
        assert_eq!(union_length(v.into_iter()), 4.0);
    }

    #[test]
    fn host_trace_records_only_when_enabled() {
        let mut off = HostTrace::new(false);
        let (x, _) = off.time("solve", 1, || 2 + 2);
        assert_eq!(x, 4);
        assert!(off.spans.is_empty());
        let mut on = HostTrace::new(true);
        on.time("submit", 7, || ());
        on.time("submit", 8, || ());
        assert_eq!(on.spans.len(), 2);
        assert_eq!(on.spans[1].id, 8);
        assert!(on.chrome_json().contains("\"id\":7"));
    }
}
