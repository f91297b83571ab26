//! The benchmark's metric math: medians, the percentile rule, open-loop
//! latency, the max-rate ladder rule and ratios with their bases. Kept
//! free of any program type so each rule is unit-tested on its own.

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean of `values` (`0.0` for none).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Samples a percentile must leave beyond it to be reported.
pub const MIN_BEYOND: usize = 10;

/// The reportable percentiles, in increasing order.
pub const PERCENTILES: [f64; 4] = [0.5, 0.9, 0.99, 0.999];

/// 1-based nearest rank of percentile `p` among `n` samples.
fn nearest_rank(p: f64, n: usize) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond percentile `p` among `n` samples.
pub fn samples_beyond(p: f64, n: usize) -> usize {
    n - nearest_rank(p, n)
}

/// The highest of [`PERCENTILES`] with at least [`MIN_BEYOND`] samples
/// beyond it among `n` samples, or `None` when even the median has
/// fewer.
pub fn highest_percentile(n: usize) -> Option<f64> {
    PERCENTILES
        .iter()
        .copied()
        .rev()
        .find(|&p| n > 0 && samples_beyond(p, n) >= MIN_BEYOND)
}

/// Nearest-rank percentile `p` of `values`; `f64::INFINITY` entries
/// (refused requests) sort last.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[nearest_rank(p, v.len()) - 1]
}

/// A ratio reported together with its base.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratio {
    pub num: f64,
    pub base: f64,
}

impl Ratio {
    pub fn new(num: f64, base: f64) -> Self {
        Ratio { num, base }
    }

    /// `num / base`, `0.0` on an empty base.
    pub fn value(self) -> f64 {
        if self.base > 0.0 {
            self.num / self.base
        } else {
            0.0
        }
    }
}

/// Failed share of `attempted`: `(refused + failed) / attempted`.
pub fn failure_fraction(refused: usize, failed: usize, attempted: usize) -> Ratio {
    Ratio::new((refused + failed) as f64, attempted as f64)
}

/// One open-loop request on the modeled clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenLoopSample {
    /// When the request was due to be sent.
    pub due: f64,
    /// When the generator actually submitted it (`>= due`).
    pub submitted: f64,
    /// When it completed; `None` if it was refused.
    pub completed: Option<f64>,
}

impl OpenLoopSample {
    /// Latency from the *due* time, so a stall that delays submission
    /// counts against the request; refused requests miss every limit.
    pub fn latency(&self) -> f64 {
        self.completed.map_or(f64::INFINITY, |c| c - self.due)
    }

    /// How late the generator submitted this request.
    pub fn lag(&self) -> f64 {
        self.submitted - self.due
    }
}

/// Open-loop results of one offered rate.
#[derive(Debug, Clone, PartialEq)]
pub struct RungResult {
    /// Offered rate (requests per modeled second).
    pub rate: f64,
    pub samples: Vec<OpenLoopSample>,
}

impl RungResult {
    pub fn latencies(&self) -> Vec<f64> {
        self.samples.iter().map(OpenLoopSample::latency).collect()
    }

    /// p90 latency (refused requests count as infinitely late).
    pub fn p90(&self) -> f64 {
        percentile(&self.latencies(), 0.9)
    }

    /// Modeled time from the last due time to the last completion: how
    /// long the system needs to drain once arrivals stop.
    pub fn drain(&self) -> f64 {
        let last_due = self.samples.iter().map(|s| s.due).fold(0.0, f64::max);
        let last_done = self
            .samples
            .iter()
            .filter_map(|s| s.completed)
            .fold(last_due, f64::max);
        last_done - last_due
    }

    /// A backlog that keeps growing leaves work queued when arrivals
    /// stop; the rung counts as growing when draining that work takes
    /// longer than the latency limit itself.
    pub fn backlog_grows(&self, limit: f64) -> bool {
        self.drain() > limit
    }

    /// The rung meets the limit: p90 latency within `limit` and no
    /// growing backlog.
    pub fn meets(&self, limit: f64) -> bool {
        self.p90() <= limit && !self.backlog_grows(limit)
    }
}

/// The highest offered rate on the ladder whose rung meets `limit`
/// (`0.0` when none does). Every rung is judged on its own, so a rung
/// that fails below a passing one does not hide it.
pub fn max_rate(rungs: &[RungResult], limit: f64) -> f64 {
    rungs
        .iter()
        .filter(|r| r.meets(limit))
        .map(|r| r.rate)
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // 19 samples: the median leaves 9 beyond — nothing reportable.
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(20), Some(0.5));
        // p90 of 99 samples is rank 90, leaving 9 beyond.
        assert_eq!(samples_beyond(0.9, 99), 9);
        assert_eq!(highest_percentile(99), Some(0.5));
        assert_eq!(samples_beyond(0.9, 100), 10);
        assert_eq!(highest_percentile(100), Some(0.9));
        assert_eq!(highest_percentile(999), Some(0.9));
        assert_eq!(highest_percentile(1000), Some(0.99));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        let mut w = v.clone();
        w[0] = f64::INFINITY;
        assert_eq!(percentile(&w, 0.9), 91.0);
        assert_eq!(percentile(&w, 1.0), f64::INFINITY);
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        let s = OpenLoopSample {
            due: 1.0,
            submitted: 1.5,
            completed: Some(2.0),
        };
        assert_eq!(s.latency(), 1.0);
        assert_eq!(s.lag(), 0.5);
        let refused = OpenLoopSample {
            completed: None,
            ..s
        };
        assert_eq!(refused.latency(), f64::INFINITY);
    }

    fn rung(rate: f64, latencies: &[f64], drain: f64) -> RungResult {
        let n = latencies.len();
        let samples = latencies
            .iter()
            .enumerate()
            .map(|(i, &l)| {
                let due = i as f64;
                let extra = if i + 1 == n { drain } else { 0.0 };
                OpenLoopSample {
                    due,
                    submitted: due,
                    completed: l.is_finite().then_some(due + l.max(extra)),
                }
            })
            .collect();
        RungResult { rate, samples }
    }

    #[test]
    fn ladder_takes_the_highest_rung_meeting_the_limit() {
        let ok = vec![0.1; 100];
        let mut slow = vec![0.1; 100];
        for l in slow.iter_mut().take(20) {
            *l = 5.0;
        }
        let rungs = vec![
            rung(1.0, &ok, 0.1),
            rung(2.0, &slow, 0.1),
            rung(3.0, &ok, 0.1),
            rung(4.0, &slow, 0.1),
        ];
        assert!(rungs[0].meets(1.0));
        assert!(!rungs[1].meets(1.0));
        assert_eq!(max_rate(&rungs, 1.0), 3.0);
        assert_eq!(max_rate(&rungs[1..2], 1.0), 0.0);
    }

    #[test]
    fn growing_backlog_fails_a_rung_whose_p90_passes() {
        // p90 within the limit, but the last request drains for 3 s.
        let r = rung(1.0, &[0.1; 100], 3.0);
        assert!(r.p90() <= 1.0);
        assert!(r.backlog_grows(1.0));
        assert!(!r.meets(1.0));
    }

    #[test]
    fn refused_requests_miss_the_limit() {
        let mut lat = vec![0.1; 100];
        for l in lat.iter_mut().take(11) {
            *l = f64::INFINITY;
        }
        let r = rung(1.0, &lat, 0.0);
        assert_eq!(r.p90(), f64::INFINITY);
        assert!(!r.meets(1.0));
    }

    #[test]
    fn failure_fraction_keeps_its_base() {
        let f = failure_fraction(3, 1, 40);
        assert_eq!(f.base, 40.0);
        assert_eq!(f.value(), 0.1);
        assert_eq!(failure_fraction(0, 0, 0).value(), 0.0);
    }
}
