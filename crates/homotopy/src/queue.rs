//! Path-queue scheduling: the one multi-path driver.
//!
//! A fixed number of slots (sized to the evaluator's batch capacity)
//! each track one path with its *own* `t` and adaptive step size;
//! whenever a slot finishes — success or failure — it immediately
//! **refills** from the pending queue, so every batched round trip
//! stays at full occupancy until the queue drains. (A front sharing one
//! `t` would leave every retired path's slot empty for the rest of the
//! run, draining the batch — and every device shard — toward idle.)
//!
//! Scheduling is a performance transformation only: each slot replays
//! the *exact* control flow and arithmetic of the single-path tracker
//! ([`crate::tracker::track`] with [`crate::newton::newton`] as
//! corrector), one evaluation per scheduler round, so every path's
//! trajectory — and endpoint — is **bit-for-bit** the trajectory the
//! single-path tracker produces, independent of the slot count, the
//! batch composition, or how many devices the evaluator shards over.
//!
//! [`track_front`] is the entry point `Solver::solve` and the serve
//! layer share: it sizes the front from the engine's capabilities and
//! runs either the host-corrector queue defined here or its
//! device-resident twin ([`track_queue_resident`]).

use crate::fallible::{retry_round, FaultReport, Infallible, TryBatchEvaluator};
use crate::homotopy::{BatchHomotopy, PathEnd};
use crate::lu::lu_decompose;
use crate::resident::{track_queue_resident, ResidentEngine};
use crate::tracker::{TrackOutcome, TrackParams};
use polygpu_complex::{Complex, Real};
use polygpu_core::{BatchError, CorrectorMode, RecoveryPolicy};
use polygpu_obs::{MetaValue, MetricsRegistry, SpanKind, TraceSink};
use polygpu_polysys::{BatchSystemEvaluator, SystemEval};
use std::collections::VecDeque;
use std::fmt;

fn max_norm<R: Real>(v: &[Complex<R>]) -> f64 {
    v.iter().map(|z| z.abs().to_f64()).fold(0.0, f64::max)
}

/// Pending paths waiting for a slot: start points in submission order.
#[derive(Debug, Clone, Default)]
pub struct PathQueue<R> {
    pending: VecDeque<(usize, Vec<Complex<R>>)>,
}

impl<R: Real> PathQueue<R> {
    /// Queue `starts` in order; indices identify paths in the result.
    pub fn from_starts(starts: &[Vec<Complex<R>>]) -> Self {
        PathQueue {
            pending: starts.iter().cloned().enumerate().collect(),
        }
    }

    /// Next `(path index, start point)`, if any.
    pub fn pop(&mut self) -> Option<(usize, Vec<Complex<R>>)> {
        self.pending.pop_front()
    }

    pub fn len(&self) -> usize {
        self.pending.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }
}

/// How the queue sizes its slot front.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SlotPolicy {
    /// Size the front to the whole fleet. [`track_front`], which has
    /// the engine's capabilities at hand, resolves this to
    /// `devices × per-device capacity`, clamped to the engine's batch
    /// capacity (which a row-sharded cluster caps at one device's
    /// worth — every device there sees every point), via
    /// [`polygpu_core::engine::EngineCaps::auto_slots`]; the raw
    /// [`track_queue`] driver, which only sees a batch evaluator, falls
    /// back to the evaluator's batch capacity.
    #[default]
    Auto,
    /// Exactly this many slots (clamped to the path count).
    Fixed(usize),
}

impl From<usize> for SlotPolicy {
    /// The legacy `slots: usize` encoding: `0` means [`SlotPolicy::Auto`],
    /// anything else a fixed front.
    fn from(slots: usize) -> Self {
        if slots == 0 {
            SlotPolicy::Auto
        } else {
            SlotPolicy::Fixed(slots)
        }
    }
}

impl SlotPolicy {
    /// The slot count this policy yields against a fallback capacity
    /// (`Auto`) and a path count (both arms clamp to it — more slots
    /// than paths can never be occupied).
    pub fn resolve(self, auto_capacity: usize, n_paths: usize) -> usize {
        match self {
            SlotPolicy::Auto => auto_capacity,
            SlotPolicy::Fixed(slots) => slots,
        }
        .max(1)
        .min(n_paths.max(1))
    }
}

/// Aggregate scheduling statistics of a multi-path run — the
/// scheduler section of every `SolveReport`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Scheduler rounds (one batched evaluation of all occupied slots
    /// each).
    pub rounds: usize,
    /// Batched device round trips issued (`>= rounds` when the slot
    /// count exceeds the evaluator capacity and rounds chunk).
    pub batch_rounds: usize,
    /// Slots refilled from the queue after a path finished.
    pub refills: usize,
    /// Sum over rounds of occupied slots — the numerator of
    /// [`QueueStats::occupancy`].
    pub point_rounds: usize,
    /// Slots the scheduler ran with.
    pub slots: usize,
    pub steps_accepted: usize,
    pub steps_rejected: usize,
    /// Total corrector iterations summed over paths (identical to the
    /// sum over single-path [`crate::tracker::track`] runs).
    pub corrector_iterations: usize,
}

impl QueueStats {
    /// Mean slot occupancy over the run: `1.0` means every round ran a
    /// full batch. The queue stays near `1.0` until it drains; only the
    /// drain tail runs part-empty.
    pub fn occupancy(&self) -> f64 {
        if self.rounds == 0 || self.slots == 0 {
            0.0
        } else {
            self.point_rounds as f64 / (self.rounds * self.slots) as f64
        }
    }

    /// Fold this struct into a [`MetricsRegistry`] under `prefix`.
    pub fn record_metrics(&self, reg: &mut MetricsRegistry, prefix: &str) {
        reg.counter(&format!("{prefix}.rounds"), self.rounds as u64);
        reg.counter(&format!("{prefix}.batch_rounds"), self.batch_rounds as u64);
        reg.counter(&format!("{prefix}.refills"), self.refills as u64);
        reg.counter(
            &format!("{prefix}.steps_accepted"),
            self.steps_accepted as u64,
        );
        reg.counter(
            &format!("{prefix}.steps_rejected"),
            self.steps_rejected as u64,
        );
        reg.counter(
            &format!("{prefix}.corrector_iterations"),
            self.corrector_iterations as u64,
        );
        reg.gauge(&format!("{prefix}.occupancy"), self.occupancy());
    }
}

impl fmt::Display for QueueStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "  rounds                {:>12}", self.rounds)?;
        writeln!(f, "  batch rounds          {:>12}", self.batch_rounds)?;
        writeln!(f, "  slots                 {:>12}", self.slots)?;
        writeln!(f, "  refills               {:>12}", self.refills)?;
        writeln!(f, "  steps accepted        {:>12}", self.steps_accepted)?;
        writeln!(f, "  steps rejected        {:>12}", self.steps_rejected)?;
        writeln!(
            f,
            "  corrector iterations  {:>12}",
            self.corrector_iterations
        )?;
        write!(f, "  occupancy             {:>12.3}", self.occupancy())
    }
}

/// Result of a path-queue run.
#[derive(Debug, Clone)]
pub struct QueueResult<R> {
    /// Per-path endpoints, in start order.
    pub paths: Vec<PathEnd<R>>,
    /// Aggregate scheduling statistics.
    pub stats: QueueStats,
}

impl<R: Real> QueueResult<R> {
    pub fn successes(&self) -> usize {
        self.paths.iter().filter(|p| p.success()).count()
    }

    /// Mean slot occupancy over the run (see [`QueueStats::occupancy`]).
    pub fn occupancy(&self) -> f64 {
        self.stats.occupancy()
    }
}

/// What a slot does with its next evaluation.
#[derive(Clone, Copy, PartialEq)]
enum Phase {
    /// Euler predictor at `(x, t)`.
    Predict,
    /// Newton corrector iteration `iter` at `(y, t_new)`.
    Correct { iter: usize },
    /// The corrector's final residual check after a step-tolerance
    /// stop (mirrors `newton`'s extra evaluation), with the iteration
    /// count it will report.
    FinalCheck { iterations: usize },
    /// The corrector ran out of iterations with the last update
    /// applied; one more evaluation (no update) so the attempt's
    /// residual describes the final iterate, as `newton` does on its
    /// MaxIters exit.
    MaxItersCheck,
}

struct Slot<R> {
    path: usize,
    /// Last accepted point.
    x: Vec<Complex<R>>,
    /// Corrector iterate (valid in `Correct`/`FinalCheck`).
    y: Vec<Complex<R>>,
    t: f64,
    dt: f64,
    t_new: f64,
    dt_clamped: f64,
    /// Completed predictor-corrector attempts.
    attempts: usize,
    phase: Phase,
}

impl<R: Real> Slot<R> {
    fn start(path: usize, x0: Vec<Complex<R>>, params: &TrackParams) -> Self {
        Slot {
            path,
            x: x0,
            y: Vec::new(),
            t: 0.0,
            dt: params.initial_dt,
            t_new: 0.0,
            dt_clamped: 0.0,
            attempts: 0,
            phase: Phase::Predict,
        }
    }

    /// The point and `t` of this slot's next evaluation.
    fn request(&self) -> (&Vec<Complex<R>>, f64) {
        match self.phase {
            Phase::Predict => (&self.x, self.t),
            Phase::Correct { .. } | Phase::FinalCheck { .. } | Phase::MaxItersCheck => {
                (&self.y, self.t_new)
            }
        }
    }
}

/// A finished path, to be recorded and its slot refilled.
struct Finished<R> {
    path: usize,
    outcome: TrackOutcome,
    x: Vec<Complex<R>>,
    t: f64,
}

/// Track every start through `h` with a queue-fed slot front sized by
/// `slots` — a [`SlotPolicy`] or, for compatibility with the original
/// signature, a `usize` (`0` converts to [`SlotPolicy::Auto`], which
/// at this layer sizes the front to the evaluator capacity; the
/// engine-aware `solve()` layer resolves `Auto` to
/// `devices × per-device capacity` instead). The front is always
/// clamped to the number of starts.
///
/// Per path, control flow and arithmetic replicate
/// [`crate::tracker::track`] exactly — each scheduler round performs
/// precisely one evaluation per occupied slot (a predictor, one Newton
/// corrector iteration, or the corrector's final residual check), all
/// gathered into one batched evaluation — so with a bit-exact batch
/// evaluator the endpoints equal the single-path tracker's bit for bit,
/// for **any** slot count and **any** device sharding underneath.
pub fn track_queue<R: Real, EG, EF>(
    h: &mut BatchHomotopy<R, EG, EF>,
    starts: &[Vec<Complex<R>>],
    params: TrackParams,
    slots: impl Into<SlotPolicy>,
) -> QueueResult<R>
where
    EG: BatchSystemEvaluator<R>,
    EF: BatchSystemEvaluator<R>,
{
    let mut fh = BatchHomotopy {
        g: Infallible(&mut h.g),
        f: Infallible(&mut h.f),
        gamma: h.gamma,
    };
    let (r, _) = track_queue_recovering(&mut fh, starts, params, slots, &RecoveryPolicy::none())
        .expect("infallible evaluators cannot fault; fault-injecting engines go through track_queue_recovering");
    r
}

/// [`track_queue`] over fallible evaluators: each scheduler round's
/// batched evaluation retries under `recovery` with modeled backoff.
/// Slot state — each slot's `(t, dt, x)` and phase — is committed only
/// after the round's evaluations return, so the front *is* the
/// checkpoint: a retry replays only the faulted round (same chunk
/// boundaries, same arithmetic), and a recovered run's endpoints are
/// **bit-identical** to the fault-free run; only the engine's modeled
/// wall clock pays for the recovery. An unrecoverable fault surfaces
/// as a typed [`BatchError`] — never a panic, never a wrong endpoint.
pub fn track_queue_recovering<R: Real, EG, EF>(
    h: &mut BatchHomotopy<R, EG, EF>,
    starts: &[Vec<Complex<R>>],
    params: TrackParams,
    slots: impl Into<SlotPolicy>,
    recovery: &RecoveryPolicy,
) -> Result<(QueueResult<R>, FaultReport), BatchError>
where
    EG: TryBatchEvaluator<R>,
    EF: TryBatchEvaluator<R>,
{
    track_queue_recovering_traced(h, starts, params, slots, recovery, &TraceSink::noop())
}

/// [`track_queue_recovering`] with scheduler-round spans: each round
/// emits a [`SpanKind::Round`] on the sink's track, timestamped by the
/// target evaluator's modeled wall clock plus the accumulated backoff
/// (the scheduler's own modeled timeline), with retry/backoff spans
/// when a round recovered from a fault. A no-op sink makes this exactly
/// [`track_queue_recovering`].
pub fn track_queue_recovering_traced<R: Real, EG, EF>(
    h: &mut BatchHomotopy<R, EG, EF>,
    starts: &[Vec<Complex<R>>],
    params: TrackParams,
    slots: impl Into<SlotPolicy>,
    recovery: &RecoveryPolicy,
    trace: &TraceSink,
) -> Result<(QueueResult<R>, FaultReport), BatchError>
where
    EG: TryBatchEvaluator<R>,
    EF: TryBatchEvaluator<R>,
{
    let mut fault = FaultReport::default();
    let n_paths = starts.len();
    let cap = h.max_batch().max(1);
    let slots = slots.into().resolve(cap, n_paths);
    let mut queue = PathQueue::from_starts(starts);
    let mut front: Vec<Option<Slot<R>>> = (0..slots)
        .map(|_| queue.pop().map(|(i, x0)| Slot::start(i, x0, &params)))
        .collect();
    let mut results: Vec<Option<PathEnd<R>>> = (0..n_paths).map(|_| None).collect();

    let mut rounds = 0usize;
    let mut batch_rounds = 0usize;
    let mut refills = 0usize;
    let mut point_rounds = 0usize;
    let mut accepted = 0usize;
    let mut rejected = 0usize;
    let mut corrector_iters = 0usize;

    loop {
        let occupied: Vec<usize> = (0..slots).filter(|&s| front[s].is_some()).collect();
        if occupied.is_empty() {
            break;
        }
        rounds += 1;
        point_rounds += occupied.len();

        // One evaluation per occupied slot, at that slot's own point
        // and t, batched (and chunked by the evaluator capacity).
        let mut points: Vec<Vec<Complex<R>>> = Vec::with_capacity(occupied.len());
        let mut ts: Vec<R> = Vec::with_capacity(occupied.len());
        for &s in &occupied {
            let (x, t) = front[s].as_ref().expect("occupied").request();
            points.push(x.clone());
            ts.push(R::from_f64(t));
        }
        // The scheduler's modeled clock: the target engine's wall plus
        // every backoff second charged so far.
        let wall0 = h.f.modeled_wall_seconds() + fault.backoff_seconds;
        let retried0 = fault.retried_rounds;
        let backoff0 = fault.backoff_seconds;
        let evals: Vec<(SystemEval<R>, Vec<Complex<R>>)> =
            retry_round(recovery, &mut fault, || {
                let mut evals = Vec::with_capacity(points.len());
                let mut base = 0usize;
                while base < points.len() {
                    let end = (base + cap).min(points.len());
                    batch_rounds += 1;
                    evals.extend(h.try_eval_batch_at_each(&points[base..end], &ts[base..end])?);
                    base = end;
                }
                Ok(evals)
            })?;
        if trace.enabled() {
            let retried = fault.retried_rounds - retried0;
            let backoff = fault.backoff_seconds - backoff0;
            if retried > 0 {
                trace.emit(
                    SpanKind::Retry,
                    wall0,
                    0.0,
                    3,
                    &[("attempts", MetaValue::U64(retried))],
                );
            }
            if backoff > 0.0 {
                trace.emit(SpanKind::Backoff, wall0, backoff, 3, &[]);
            }
            let wall1 = h.f.modeled_wall_seconds() + fault.backoff_seconds;
            trace.emit(
                SpanKind::Round,
                wall0,
                wall1 - wall0,
                2,
                &[
                    ("round", MetaValue::U64(rounds as u64 - 1)),
                    ("slots", MetaValue::U64(occupied.len() as u64)),
                ],
            );
        }

        let mut finished: Vec<Finished<R>> = Vec::new();
        for (&s, (eval, dt_vec)) in occupied.iter().zip(evals) {
            let slot = front[s].as_mut().expect("occupied");
            // The corrector's verdict for this attempt, if it ended.
            let mut corrector_done: Option<(bool, usize)> = None;
            match slot.phase {
                Phase::Predict => {
                    // Euler predictor: J_H dx = -dH/dt at (x, t); a
                    // singular Jacobian retires the path, as in `track`.
                    slot.dt_clamped = slot.dt.min(1.0 - slot.t);
                    slot.t_new = slot.t + slot.dt_clamped;
                    let rhs: Vec<Complex<R>> = dt_vec.iter().map(|v| -*v).collect();
                    match lu_decompose(eval.jacobian).and_then(|lu| lu.solve(&rhs)) {
                        Ok(dxdt) => {
                            slot.y = slot
                                .x
                                .iter()
                                .zip(&dxdt)
                                .map(|(xi, di)| *xi + di.scale(R::from_f64(slot.dt_clamped)))
                                .collect();
                            slot.phase = Phase::Correct { iter: 0 };
                        }
                        Err(_) => {
                            finished.push(Finished {
                                path: slot.path,
                                outcome: TrackOutcome::SingularJacobian {
                                    at_t: format!("{:.6}", slot.t),
                                },
                                x: std::mem::take(&mut slot.x),
                                t: slot.t,
                            });
                            front[s] = None;
                        }
                    }
                }
                Phase::Correct { iter } => {
                    // One `newton` iteration at (y, t_new).
                    let resid = max_norm(&eval.values);
                    if resid < params.corrector.residual_tol {
                        corrector_done = Some((true, iter));
                    } else {
                        let rhs: Vec<Complex<R>> = eval.values.iter().map(|v| -*v).collect();
                        match lu_decompose(eval.jacobian).and_then(|lu| lu.solve(&rhs)) {
                            Ok(dx) => {
                                for (yi, di) in slot.y.iter_mut().zip(&dx) {
                                    *yi += *di;
                                }
                                let last_step = max_norm(&dx);
                                if last_step < params.corrector.step_tol {
                                    slot.phase = Phase::FinalCheck {
                                        iterations: iter + 1,
                                    };
                                } else if iter + 1 >= params.corrector.max_iters {
                                    slot.phase = Phase::MaxItersCheck;
                                } else {
                                    slot.phase = Phase::Correct { iter: iter + 1 };
                                }
                            }
                            Err(_) => {
                                corrector_done = Some((false, iter));
                            }
                        }
                    }
                }
                Phase::FinalCheck { iterations } => {
                    // `newton`'s post-step-tolerance residual check.
                    let final_resid = max_norm(&eval.values);
                    corrector_done = Some((
                        final_resid
                            < params.corrector.residual_tol * params.corrector.step_tol_relax,
                        iterations,
                    ));
                }
                Phase::MaxItersCheck => {
                    // `newton`'s final evaluation on a MaxIters exit:
                    // the residual is recorded but never rescues the
                    // attempt.
                    corrector_done = Some((false, params.corrector.max_iters));
                }
            }

            if let Some((converged, iterations)) = corrector_done {
                corrector_iters += iterations;
                let slot = front[s].as_mut().expect("occupied");
                if converged {
                    std::mem::swap(&mut slot.x, &mut slot.y);
                    slot.t = slot.t_new;
                    accepted += 1;
                    if iterations <= params.easy_iters {
                        slot.dt = (slot.dt * params.grow).min(params.max_dt);
                    }
                } else {
                    rejected += 1;
                    slot.dt *= 0.5;
                }
                slot.attempts += 1;
                // `track`'s loop structure: step-underflow retires the
                // path; otherwise the success check runs at the top of
                // the next iteration — which exists only while the
                // attempt budget lasts.
                let outcome = if !converged && slot.dt < params.min_dt {
                    Some(TrackOutcome::StepUnderflow {
                        at_t: format!("{:.6}", slot.t),
                    })
                } else if slot.t >= 1.0 {
                    Some(if slot.attempts < params.max_steps {
                        TrackOutcome::Success
                    } else {
                        TrackOutcome::StepLimit
                    })
                } else if slot.attempts >= params.max_steps {
                    Some(TrackOutcome::StepLimit)
                } else {
                    slot.phase = Phase::Predict;
                    None
                };
                if let Some(outcome) = outcome {
                    finished.push(Finished {
                        path: slot.path,
                        outcome,
                        x: std::mem::take(&mut slot.x),
                        t: slot.t,
                    });
                    front[s] = None;
                }
            }
        }

        // Record finished paths and refill their slots immediately, so
        // the next round runs at full occupancy again.
        for f in finished {
            results[f.path] = Some(PathEnd {
                outcome: f.outcome,
                x: f.x,
                t: f.t,
            });
        }
        for slot in front.iter_mut() {
            if slot.is_none() {
                if let Some((i, x0)) = queue.pop() {
                    *slot = Some(Slot::start(i, x0, &params));
                    refills += 1;
                }
            }
        }
    }

    Ok((
        QueueResult {
            paths: results
                .into_iter()
                .map(|p| p.expect("every queued path finishes"))
                .collect(),
            stats: QueueStats {
                rounds,
                batch_rounds,
                refills,
                point_rounds,
                slots,
                steps_accepted: accepted,
                steps_rejected: rejected,
                corrector_iterations: corrector_iters,
            },
        },
        fault,
    ))
}

/// The multi-path driver behind `Solver::solve` and the serve layer:
/// resolve `slots` against the engine's
/// [`auto_slots`](polygpu_core::engine::EngineCaps::auto_slots)
/// (devices × per-device capacity, clamped to the batch capacity), then
/// run the refilling queue with the corrector `params.corrector_mode`
/// selects — the host loop ([`track_queue_recovering_traced`]) or the
/// engine's fused corrector ([`track_queue_resident`]). Endpoints are
/// bit-identical to [`crate::tracker::track`] either way; only the
/// round structure and the modeled transfer traffic differ. A fault
/// that outlives `recovery` comes back as a typed [`BatchError`].
pub fn track_front<R, EG, EF>(
    h: &mut BatchHomotopy<R, EG, EF>,
    starts: &[Vec<Complex<R>>],
    params: TrackParams,
    slots: SlotPolicy,
    recovery: &RecoveryPolicy,
    trace: &TraceSink,
) -> Result<(QueueResult<R>, FaultReport), BatchError>
where
    R: Real,
    EG: TryBatchEvaluator<R>,
    EF: ResidentEngine<R>,
{
    let slots = slots.resolve(h.f.engine_caps().auto_slots(), starts.len());
    match params.corrector_mode {
        CorrectorMode::Host => track_queue_recovering_traced(
            h,
            starts,
            params,
            SlotPolicy::Fixed(slots),
            recovery,
            trace,
        ),
        CorrectorMode::DeviceResident => {
            track_queue_resident(h, starts, params, slots, recovery, trace)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::homotopy::Homotopy;
    use crate::start::StartSystem;
    use crate::tracker::{track, TrackParams};
    use polygpu_complex::C64;
    use polygpu_polysys::{random_system, AdEvaluator, BenchmarkParams};

    fn fixture(
        seed: u64,
        n_paths: u128,
    ) -> (polygpu_polysys::System<f64>, StartSystem, Vec<Vec<C64>>) {
        let params = BenchmarkParams {
            n: 2,
            m: 2,
            k: 2,
            d: 2,
            seed,
        };
        let sys = random_system::<f64>(&params);
        let start = StartSystem::uniform(2, 2);
        let starts: Vec<Vec<C64>> = (0..n_paths).map(|i| start.solution_by_index(i)).collect();
        (sys, start, starts)
    }

    /// The defining property: for every slot count, each path's
    /// endpoint, outcome and final t are **bit-for-bit** what the
    /// single-path tracker produces, and the aggregate step counts are
    /// the sums over the single-path runs.
    #[test]
    fn queue_is_bitwise_identical_to_per_path_tracking() {
        let (sys, start, starts) = fixture(3, 4);
        let params = TrackParams::default();

        // Reference: one `track` run per path.
        let mut want = Vec::new();
        let (mut sum_acc, mut sum_rej, mut sum_corr) = (0usize, 0usize, 0usize);
        for x0 in &starts {
            let f = AdEvaluator::new(sys.clone()).unwrap();
            let mut h = Homotopy::with_random_gamma(start.clone(), f, 7);
            let r = track(&mut h, x0, params);
            sum_acc += r.steps_accepted;
            sum_rej += r.steps_rejected;
            sum_corr += r.corrector_iterations;
            want.push(r);
        }

        for slots in [1usize, 2, 3, 4, 7] {
            let mut h = BatchHomotopy::with_random_gamma(
                start.clone(),
                AdEvaluator::new(sys.clone()).unwrap(),
                7,
            );
            let r = track_queue(&mut h, &starts, params, slots);
            assert_eq!(r.paths.len(), starts.len());
            for (i, (got, w)) in r.paths.iter().zip(&want).enumerate() {
                assert_eq!(got.outcome, w.outcome, "outcome, path {i}, slots {slots}");
                assert_eq!(got.x, w.end().x, "endpoint, path {i}, slots {slots}");
                assert_eq!(got.t, w.end().t, "final t, path {i}, slots {slots}");
            }
            assert_eq!(r.stats.steps_accepted, sum_acc, "slots {slots}");
            assert_eq!(r.stats.steps_rejected, sum_rej, "slots {slots}");
            assert_eq!(r.stats.corrector_iterations, sum_corr, "slots {slots}");
            // `point_rounds` counts the single-point evaluations the
            // per-path tracker would issue; any front wider than one
            // slot amortizes them over fewer device round trips.
            if slots > 1 {
                assert!(
                    r.stats.batch_rounds < r.stats.point_rounds,
                    "slots {slots}: {} round trips for {} evaluations",
                    r.stats.batch_rounds,
                    r.stats.point_rounds
                );
            }
        }
    }

    /// Refilling keeps the front full: with more paths than slots, the
    /// queue refills every freed slot and mean occupancy stays high.
    #[test]
    fn queue_refills_and_stays_occupied() {
        let (sys, start, starts) = fixture(3, 8);
        let slots = 2;
        let mut h =
            BatchHomotopy::with_random_gamma(start.clone(), AdEvaluator::new(sys).unwrap(), 7);
        let r = track_queue(&mut h, &starts, TrackParams::default(), slots);
        assert_eq!(r.stats.slots, slots);
        assert_eq!(
            r.stats.refills,
            starts.len() - slots,
            "every path beyond the initial front is a refill"
        );
        // Only the drain tail (queue empty, slots finishing at
        // different times) runs below full occupancy.
        assert!(
            r.occupancy() > 0.8,
            "queue scheduling must keep slots busy: occupancy {:.3}",
            r.occupancy()
        );
        assert_eq!(r.successes() + (r.paths.len() - r.successes()), 8);
        assert!(r.stats.batch_rounds >= r.stats.rounds);
    }

    /// `slots = 0` sizes the front to the evaluator capacity; capacity
    /// smaller than the front chunks the round into several device
    /// trips without changing any result.
    #[test]
    fn default_slots_and_chunking_match() {
        let (sys, start, starts) = fixture(11, 4);
        let params = TrackParams::default();
        let mut h_all = BatchHomotopy::with_random_gamma(
            start.clone(),
            AdEvaluator::new(sys.clone()).unwrap(),
            5,
        );
        let all = track_queue(&mut h_all, &starts, params, SlotPolicy::Auto);
        assert_eq!(
            all.stats.slots,
            starts.len(),
            "capacity-sized front clamps to paths"
        );

        let mut h_small =
            BatchHomotopy::with_random_gamma(start.clone(), AdEvaluator::new(sys).unwrap(), 5);
        let small = track_queue(&mut h_small, &starts, params, 3);
        for (a, b) in all.paths.iter().zip(&small.paths) {
            assert_eq!(a.x, b.x);
            assert_eq!(a.outcome, b.outcome);
        }
    }

    /// Impossible tolerances underflow the step and retire every path,
    /// mirroring the single-path tracker's outcome.
    #[test]
    fn impossible_tolerance_underflows() {
        let (sys, start, starts) = fixture(3, 2);
        let params = TrackParams {
            corrector: crate::newton::NewtonParams {
                residual_tol: 1e-300,
                step_tol: 1e-300,
                max_iters: 2,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut h = BatchHomotopy::with_random_gamma(
            start.clone(),
            AdEvaluator::new(sys.clone()).unwrap(),
            11,
        );
        let r = track_queue(&mut h, &starts, params, 2);
        assert_eq!(r.successes(), 0);
        assert!(r.stats.steps_rejected > 0);
        for (i, (p, x0)) in r.paths.iter().zip(&starts).enumerate() {
            let f = AdEvaluator::new(sys.clone()).unwrap();
            let mut h1 = Homotopy::with_random_gamma(start.clone(), f, 11);
            let w = track(&mut h1, x0, params);
            assert_eq!(p.outcome, w.outcome, "path {i}");
        }
    }

    /// Satellite: ratio helpers must be total on empty runs.
    #[test]
    fn empty_queue_stats_ratios_are_total() {
        let s = QueueStats::default();
        assert_eq!(s.occupancy(), 0.0);
        assert!(!format!("{s}").is_empty());
    }

    #[test]
    fn empty_queue_is_a_no_op() {
        let (sys, start, _) = fixture(3, 2);
        let mut h = BatchHomotopy::with_random_gamma(start, AdEvaluator::new(sys).unwrap(), 7);
        let r = track_queue(&mut h, &[], TrackParams::default(), 4);
        assert!(r.paths.is_empty());
        assert_eq!(r.stats.rounds, 0);
        assert_eq!(r.occupancy(), 0.0);
    }
}
