//! Device-resident corrector drivers: the Newton loop without the
//! per-iteration round trip.
//!
//! The host-mode queue downloads every corrector iteration's
//! values and Jacobians, solve on the host, and upload the updated
//! iterates — O(P·n²) modeled traffic per iteration. The drivers here
//! instead hand the whole corrector to the engine's fused
//! [`try_correct_batch`](AnyEvaluator::try_correct_batch) (evaluate →
//! factor → solve → update, all resident), so the per-iteration
//! download shrinks to the O(P) convergence-flag/residual vector.
//!
//! The homotopy combination `H(x, t) = γ(1−t)·G(x) + t·F(x)` is folded
//! into the fused loop through a [`HomotopyCombine`]: the engine
//! evaluates the target `F` (the expensive, modeled part), and the
//! analytic start system `G` is combined in with arithmetic identical
//! to [`BatchHomotopy::eval_batch_at`] — so endpoints are
//! **bit-identical** to the host-mode corrector; only the modeled
//! transfer traffic differs.

use crate::fallible::{retry_round, FaultReport, TryBatchEvaluator};
use crate::homotopy::{BatchHomotopy, PathEnd};
use crate::lu::lu_decompose;
use crate::newton::NewtonParams;
use crate::queue::{PathQueue, QueueResult, QueueStats};
use crate::tracker::{TrackOutcome, TrackParams};
use polygpu_complex::{Complex, Real};
use polygpu_core::engine::{AnyEvaluator, EngineCaps};
use polygpu_core::{BatchError, CombineMap, CorrectParams, CorrectStatus, RecoveryPolicy};
use polygpu_obs::{MetaValue, SpanKind, TraceSink};
use polygpu_polysys::{SystemEval, SystemEvaluator};

/// The engine surface the resident drivers need beyond batched
/// evaluation: capability introspection and the fused corrector. Both
/// engine handle shapes the callers hold qualify — the solver's owned
/// `Box<dyn AnyEvaluator>` and the serve layer's reborrowed
/// `&mut dyn AnyEvaluator` into a resident fleet.
pub trait ResidentEngine<R: Real>: TryBatchEvaluator<R> {
    fn engine_caps(&self) -> EngineCaps;
    fn try_correct_fused(
        &mut self,
        points: &mut [Vec<Complex<R>>],
        combine: &mut dyn CombineMap<R>,
        params: &CorrectParams,
    ) -> Result<Vec<CorrectStatus>, BatchError>;
}

impl<R: Real> ResidentEngine<R> for Box<dyn AnyEvaluator<R>> {
    fn engine_caps(&self) -> EngineCaps {
        self.as_ref().caps()
    }

    fn try_correct_fused(
        &mut self,
        points: &mut [Vec<Complex<R>>],
        combine: &mut dyn CombineMap<R>,
        params: &CorrectParams,
    ) -> Result<Vec<CorrectStatus>, BatchError> {
        self.as_mut().try_correct_batch(points, combine, params)
    }
}

impl<R: Real> ResidentEngine<R> for &mut dyn AnyEvaluator<R> {
    fn engine_caps(&self) -> EngineCaps {
        (**self).caps()
    }

    fn try_correct_fused(
        &mut self,
        points: &mut [Vec<Complex<R>>],
        combine: &mut dyn CombineMap<R>,
        params: &CorrectParams,
    ) -> Result<Vec<CorrectStatus>, BatchError> {
        (**self).try_correct_batch(points, combine, params)
    }
}

/// Folds the analytic start system into the engine's fused corrector:
/// the engine evaluates `F` resident; this map turns each raw
/// `F`-evaluation into the homotopy evaluation `H(·, t)` at that
/// point's `t`, with per-element arithmetic identical to
/// [`BatchHomotopy::eval_batch_at_each`] — the
/// basis of the host/device bit-identity contract.
pub struct HomotopyCombine<'a, R: Real, G: SystemEvaluator<R>> {
    /// The start system `G`, evaluated analytically on the host (free
    /// in the cost model, exactly as in the host-mode drivers).
    pub g: &'a mut G,
    pub gamma: Complex<R>,
    /// One `t` per point of the fused call, indexed by batch position.
    pub ts: &'a [R],
}

impl<R: Real, G: SystemEvaluator<R>> CombineMap<R> for HomotopyCombine<'_, R, G> {
    fn apply(&mut self, index: usize, x: &[Complex<R>], eval: &mut SystemEval<R>) {
        let t = self.ts[index];
        let ge = self.g.evaluate(x);
        let one_minus_t = R::one() - t;
        let gscale = self.gamma.scale(one_minus_t);
        let n = eval.values.len();
        for i in 0..n {
            eval.values[i] = gscale * ge.values[i] + eval.values[i].scale(t);
        }
        for i in 0..n {
            for j in 0..n {
                eval.jacobian[(i, j)] =
                    gscale * ge.jacobian[(i, j)] + eval.jacobian[(i, j)].scale(t);
            }
        }
    }
}

/// The corrector tolerances in the engine's shape.
pub fn correct_params(p: &NewtonParams) -> CorrectParams {
    CorrectParams {
        residual_tol: p.residual_tol,
        step_tol: p.step_tol,
        step_tol_relax: p.step_tol_relax,
        max_iters: p.max_iters,
    }
}

/// Run the engine's fused corrector over `points` at per-point `ts`,
/// chunked by the engine's batch capacity, with round-level fault
/// retry. Each chunk commits its iterates only on success, so a retry
/// replays the faulted chunk bit for bit; chunks already committed are
/// never re-run. `batch_rounds` counts fused calls issued (including
/// retried attempts, matching the host drivers' convention).
pub fn correct_resident<R, EG, EF>(
    h: &mut BatchHomotopy<R, EG, EF>,
    points: &mut [Vec<Complex<R>>],
    ts: &[R],
    corrector: &NewtonParams,
    batch_rounds: &mut usize,
    recovery: &RecoveryPolicy,
    fault: &mut FaultReport,
) -> Result<Vec<CorrectStatus>, BatchError>
where
    R: Real,
    EG: TryBatchEvaluator<R> + SystemEvaluator<R>,
    EF: ResidentEngine<R>,
{
    assert_eq!(points.len(), ts.len(), "one t per point");
    let cparams = correct_params(corrector);
    let cap = h.f.engine_caps().capacity.max(1);
    let gamma = h.gamma;
    let mut out = Vec::with_capacity(points.len());
    let mut base = 0usize;
    while base < points.len() {
        let end = (base + cap).min(points.len());
        let g = &mut h.g;
        let f = &mut h.f;
        let mut combine = HomotopyCombine {
            g,
            gamma,
            ts: &ts[base..end],
        };
        let chunk = &mut points[base..end];
        let statuses = retry_round(recovery, fault, || {
            *batch_rounds += 1;
            f.try_correct_fused(chunk, &mut combine, &cparams)
        })?;
        out.extend(statuses);
        base = end;
    }
    Ok(out)
}

/// One queue slot of [`track_queue_resident`]: a path with its own `t`
/// and adaptive step size, exactly the single-path tracker's state.
struct ResidentSlot<R> {
    path: usize,
    x: Vec<Complex<R>>,
    t: f64,
    dt: f64,
    attempts: usize,
}

/// [`crate::queue::track_queue`] with the corrector fused on the
/// engine: a refilling slot front where each round runs **one** batched
/// predictor over the occupied slots and **one** fused corrector call
/// over their predicted points (each at its own `t`), instead of one
/// host round trip per Newton iteration. Per path, control flow and
/// arithmetic replicate [`crate::tracker::track`] exactly, so the
/// endpoints are bit-identical to the host queue scheduler's — the
/// round structure (and with it the occupancy statistics) legitimately
/// differs, because a whole corrector run now fits in one round.
pub fn track_queue_resident<R, EG, EF>(
    h: &mut BatchHomotopy<R, EG, EF>,
    starts: &[Vec<Complex<R>>],
    params: TrackParams,
    slots: usize,
    recovery: &RecoveryPolicy,
    trace: &TraceSink,
) -> Result<(QueueResult<R>, FaultReport), BatchError>
where
    R: Real,
    EG: TryBatchEvaluator<R> + SystemEvaluator<R>,
    EF: ResidentEngine<R>,
{
    let mut fault = FaultReport::default();
    let n_paths = starts.len();
    let slots = slots.max(1).min(n_paths.max(1));
    let mut queue = PathQueue::from_starts(starts);
    let mut front: Vec<Option<ResidentSlot<R>>> = (0..slots)
        .map(|_| {
            queue.pop().map(|(i, x0)| ResidentSlot {
                path: i,
                x: x0,
                t: 0.0,
                dt: params.initial_dt,
                attempts: 0,
            })
        })
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
        let wall0 = h.f.modeled_wall_seconds() + fault.backoff_seconds;
        let retried0 = fault.retried_rounds;
        let backoff0 = fault.backoff_seconds;

        // Batched Euler predictor at each slot's own (x, t).
        let mut points: Vec<Vec<Complex<R>>> = Vec::with_capacity(occupied.len());
        let mut ts: Vec<R> = Vec::with_capacity(occupied.len());
        for &s in &occupied {
            let slot = front[s].as_ref().expect("occupied");
            points.push(slot.x.clone());
            ts.push(R::from_f64(slot.t));
        }
        let cap = h.max_batch().max(1);
        let hev = retry_round(recovery, &mut fault, || {
            let mut hev = Vec::with_capacity(points.len());
            let mut base = 0usize;
            while base < points.len() {
                let end = (base + cap).min(points.len());
                batch_rounds += 1;
                hev.extend(h.try_eval_batch_at_each(&points[base..end], &ts[base..end])?);
                base = end;
            }
            Ok(hev)
        })?;

        // Predict; a singular Jacobian retires the path, as in `track`.
        let mut attempt_slots: Vec<usize> = Vec::with_capacity(occupied.len());
        let mut preds: Vec<Vec<Complex<R>>> = Vec::with_capacity(occupied.len());
        let mut ts_new: Vec<R> = Vec::with_capacity(occupied.len());
        let mut dts_clamped: Vec<f64> = Vec::with_capacity(occupied.len());
        for (&s, (eval, dt_vec)) in occupied.iter().zip(hev) {
            let slot = front[s].as_mut().expect("occupied");
            let dt_clamped = slot.dt.min(1.0 - slot.t);
            let t_new = slot.t + dt_clamped;
            let rhs: Vec<Complex<R>> = dt_vec.iter().map(|v| -*v).collect();
            match lu_decompose(eval.jacobian).and_then(|lu| lu.solve(&rhs)) {
                Ok(dxdt) => {
                    preds.push(
                        slot.x
                            .iter()
                            .zip(&dxdt)
                            .map(|(xi, di)| *xi + di.scale(R::from_f64(dt_clamped)))
                            .collect(),
                    );
                    attempt_slots.push(s);
                    ts_new.push(R::from_f64(t_new));
                    dts_clamped.push(dt_clamped);
                }
                Err(_) => {
                    results[slot.path] = Some(PathEnd {
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

        // One fused corrector call for every surviving attempt, each
        // point at its own t_new.
        let statuses = correct_resident(
            h,
            &mut preds,
            &ts_new,
            &params.corrector,
            &mut batch_rounds,
            recovery,
            &mut fault,
        )?;

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

        // Verdicts: exactly `track`'s post-corrector step control.
        for (((s, y), status), &dt_clamped) in attempt_slots
            .into_iter()
            .zip(preds)
            .zip(&statuses)
            .zip(&dts_clamped)
        {
            let slot = front[s].as_mut().expect("occupied");
            corrector_iters += status.iterations;
            if status.converged {
                slot.x = y;
                slot.t += dt_clamped;
                accepted += 1;
                if status.iterations <= params.easy_iters {
                    slot.dt = (slot.dt * params.grow).min(params.max_dt);
                }
            } else {
                rejected += 1;
                slot.dt *= 0.5;
            }
            slot.attempts += 1;
            let outcome = if !status.converged && slot.dt < params.min_dt {
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
                None
            };
            if let Some(outcome) = outcome {
                results[slot.path] = Some(PathEnd {
                    outcome,
                    x: std::mem::take(&mut slot.x),
                    t: slot.t,
                });
                front[s] = None;
            }
        }

        // Refill freed slots so the next round runs at full occupancy.
        for slot in front.iter_mut() {
            if slot.is_none() {
                if let Some((i, x0)) = queue.pop() {
                    *slot = Some(ResidentSlot {
                        path: i,
                        x: x0,
                        t: 0.0,
                        dt: params.initial_dt,
                        attempts: 0,
                    });
                    refills += 1;
                }
            }
        }
    }

    Ok((
        QueueResult {
            paths: results
                .into_iter()
                .map(|p| p.expect("every queued path retires with an outcome"))
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
