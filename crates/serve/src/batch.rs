//! Batch evaluation over a shared compiled model.
//!
//! A compiled model's evaluation is a pure function of the symbol values
//! (a flat tape replay plus a tiny Padé solve), so a batch splits into
//! chunks that evaluate independently: `eval_chunk` fills one chunk's
//! result slots through a private [`Evaluator`] (which carries its own
//! scratch) while the shared model is only read. The persistent
//! [`crate::WorkerPool`] fans chunks across its workers;
//! [`evaluate_batch`] runs one chunk on the calling thread as the serial
//! reference. Results always come back in input order, and a bad point
//! (wrong arity, unstable ROM, …) yields a per-point [`PointError`]
//! instead of aborting the batch. Moment-only
//! batches additionally take the vectorized `eval_batch` lane kernel —
//! one hoisted-load tape replay per block of `AWESYM_LANES × LANE_TILE`
//! points (32 at the default width; see `docs/tape.md` §7) instead of a
//! walk per point, bit-identical to the per-point path.
//!
//! This module is also the process's blast shield:
//!
//! - **panic isolation** — every point evaluation runs under
//!   `catch_unwind`, so a poisoned point becomes a `PointError` with code
//!   `internal` and the rest of the batch (and the server) keeps going;
//! - **numeric health** — non-finite moments are rejected as
//!   `numeric_unstable` instead of being returned, and ROM construction
//!   reports when it had to degrade to a lower approximation order;
//! - **deadlines** — `eval_chunk` checks a deadline cooperatively
//!   between points and marks unevaluated points `deadline_exceeded`
//!   instead of running arbitrarily long;
//! - **fault injection** — with the `fault-injection` feature, installed
//!   `crate::faults` plans inject panics, NaN moments, and slowdowns per
//!   point, deterministically.

use crate::error::{partition_code, PointError};
use awesym_partition::{CompiledModel, Degradation, Evaluator};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Points evaluated between deadline checks (and per batch-kernel
/// sub-block). Equal to `awesym_symbolic::MAX_BLOCK_POINTS`, so one
/// deadline-checked stride is exactly one full lane block at the default
/// width — the check never forces the kernel into a scalar tail.
const CHECK_STRIDE: usize = 32;

/// What to compute for each point of a batch.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchOutput {
    /// The raw `2q` moments.
    Moments,
    /// Full reduced-order model: poles, residues, DC gain, 50 % delay.
    Rom,
    /// DC gain only (first moment).
    DcGain,
    /// Unit-step response sampled at the given times.
    Step {
        /// Sample times in seconds.
        times: Vec<f64>,
    },
    /// The moment-based delay-metric family.
    Delays,
}

/// Pole/residue summary of a reduced-order model, flattened to plain
/// arrays for transport.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RomSummary {
    /// Real parts of the poles (rad/s).
    pub poles_re: Vec<f64>,
    /// Imaginary parts of the poles.
    pub poles_im: Vec<f64>,
    /// Real parts of the residues.
    pub residues_re: Vec<f64>,
    /// Imaginary parts of the residues.
    pub residues_im: Vec<f64>,
    /// DC gain.
    pub dc_gain: f64,
    /// All poles in the open left half-plane?
    pub stable: bool,
    /// 50 % step delay, when the response crosses it.
    pub delay_50: Option<f64>,
    /// The numeric-health fallback that fired, when the exact order was
    /// rejected and a lower order was served.
    pub degraded: Option<Degradation>,
}

/// The delay-metric family, mirroring [`awesym_awe::DelayEstimates`] with
/// serde support.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DelaySummary {
    /// Elmore delay `−m₁`.
    pub elmore: f64,
    /// `ln2 · (−m₁)`.
    pub ln2_elmore: f64,
    /// The D2M metric.
    pub d2m: f64,
    /// Two-pole 50 % delay, when the fit exists.
    pub two_pole: Option<f64>,
}

impl From<awesym_awe::DelayEstimates> for DelaySummary {
    fn from(d: awesym_awe::DelayEstimates) -> Self {
        DelaySummary {
            elmore: d.elmore,
            ln2_elmore: d.ln2_elmore,
            d2m: d.d2m,
            two_pole: d.two_pole,
        }
    }
}

/// One point's successful result.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum PointValue {
    /// Raw moments.
    Moments(Vec<f64>),
    /// Pole/residue model.
    Rom(RomSummary),
    /// DC gain.
    DcGain(f64),
    /// Step-response samples.
    Step {
        /// The sampled response values.
        samples: Vec<f64>,
        /// The numeric-health fallback that fired, if any.
        degraded: Option<Degradation>,
    },
    /// Delay metrics.
    Delays(DelaySummary),
}

/// One point's outcome: a value or a structured point-local error.
pub type PointResult = Result<PointValue, PointError>;

/// A pooled batch run's results plus its health counters.
#[derive(Debug)]
pub struct BatchOutcome {
    /// Per-point outcomes, in input order — one per input point, always.
    pub results: Vec<PointResult>,
    /// Panics caught and converted to `internal` point errors.
    pub panics_caught: u64,
    /// Points whose ROM degraded to a lower approximation order.
    pub degraded_points: u64,
    /// True when the deadline fired before every point was evaluated.
    pub deadline_exceeded: bool,
}

/// Shared per-batch control block: the deadline, the health counters the
/// workers update, and the id of the shard evaluating the batch (0 on
/// unsharded paths; fault plans can target one shard).
pub(crate) struct BatchCtl {
    pub(crate) deadline: Option<Instant>,
    pub(crate) expired: AtomicBool,
    pub(crate) panics: AtomicU64,
    pub(crate) degraded: AtomicU64,
    pub(crate) shard: usize,
}

impl BatchCtl {
    /// A fresh control block for one batch evaluated by `shard`.
    pub(crate) fn new(deadline: Option<Instant>, shard: usize) -> Self {
        BatchCtl {
            deadline,
            expired: AtomicBool::new(false),
            panics: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            shard,
        }
    }

    /// True once the deadline has passed. Sticky: the first worker to
    /// notice flips a flag all workers see without re-reading the clock.
    pub(crate) fn check_expired(&self) -> bool {
        if self.expired.load(Ordering::Relaxed) {
            return true;
        }
        match self.deadline {
            Some(d) if Instant::now() >= d => {
                self.expired.store(true, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }
}

/// Applies any injected fault for the point at `index`: sleeps through
/// `Slow`, panics for `Panic`, and returns `true` when the point's
/// moments must be poisoned with NaN. A no-op (always `false`) without
/// the `fault-injection` feature.
#[inline]
fn apply_injected_fault(shard: usize, index: usize) -> bool {
    #[cfg(feature = "fault-injection")]
    {
        use crate::faults::{fault_for_point_on, Fault};
        match fault_for_point_on(shard, index) {
            Some(Fault::Panic) => panic!("injected fault: panic at point {index}"),
            Some(Fault::Slow(d)) => {
                std::thread::sleep(d);
                false
            }
            Some(Fault::NanMoments) => true,
            None => false,
        }
    }
    #[cfg(not(feature = "fault-injection"))]
    {
        let _ = (shard, index);
        false
    }
}

/// True when a fault plan is installed (forces the per-point path so
/// every point passes the injection hook). Always `false` without the
/// `fault-injection` feature.
#[inline]
pub(crate) fn faults_active() -> bool {
    #[cfg(feature = "fault-injection")]
    {
        crate::faults::active()
    }
    #[cfg(not(feature = "fault-injection"))]
    {
        false
    }
}

/// Renders a caught panic payload as text.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn rom_summary(
    model: &CompiledModel,
    moments: &[f64],
) -> Result<(RomSummary, Option<Degradation>), PointError> {
    let (rom, degraded) = model
        .rom_degraded_from_moments(moments)
        .map_err(|e| PointError::new(partition_code(&e), e.to_string()))?;
    let summary = RomSummary {
        poles_re: rom.poles().iter().map(|p| p.re).collect(),
        poles_im: rom.poles().iter().map(|p| p.im).collect(),
        residues_re: rom.residues().iter().map(|k| k.re).collect(),
        residues_im: rom.residues().iter().map(|k| k.im).collect(),
        dc_gain: rom.dc_gain(),
        stable: rom.is_stable(),
        delay_50: rom.delay_50(),
        degraded: degraded.clone(),
    };
    Ok((summary, degraded))
}

/// Evaluates one point through a worker's [`Evaluator`]; `moments` is the
/// worker's reused `2q` output buffer. `index` is the point's position in
/// the whole batch (for fault injection). Increments `ctl.degraded` when
/// a ROM fallback fires.
fn eval_point(
    model: &CompiledModel,
    ev: &Evaluator<'_>,
    vals: &[f64],
    output: &BatchOutput,
    moments: &mut [f64],
    index: usize,
    ctl: &BatchCtl,
) -> PointResult {
    let n_sym = ev.n_inputs();
    if vals.len() != n_sym {
        return Err(PointError::bad_request(format!(
            "point has {} values, model has {n_sym} symbols",
            vals.len()
        )));
    }
    let poison = apply_injected_fault(ctl.shard, index);
    // Single tape replay covers every output kind — the ROM paths reuse
    // the already-evaluated moments instead of replaying the tape again.
    ev.eval_into(vals, moments);
    if poison {
        moments.fill(f64::NAN);
    }
    // Numeric health gate: never hand back NaN/Inf moments (a division by
    // a zero-valued symbol combination, or an injected fault).
    if moments.iter().any(|m| !m.is_finite()) {
        return Err(PointError::numeric(
            "evaluation produced non-finite moments",
        ));
    }
    let note_degraded = |d: &Option<Degradation>| {
        if d.is_some() {
            ctl.degraded.fetch_add(1, Ordering::Relaxed);
        }
    };
    match output {
        BatchOutput::Moments => Ok(PointValue::Moments(moments.to_vec())),
        BatchOutput::DcGain => Ok(PointValue::DcGain(moments[0])),
        BatchOutput::Rom => {
            let (summary, degraded) = rom_summary(model, moments)?;
            note_degraded(&degraded);
            Ok(PointValue::Rom(summary))
        }
        BatchOutput::Step { times } => {
            let (rom, degraded) = model
                .rom_degraded_from_moments(moments)
                .map_err(|e| PointError::new(partition_code(&e), e.to_string()))?;
            note_degraded(&degraded);
            Ok(PointValue::Step {
                samples: rom.step_response_series(times),
                degraded,
            })
        }
        BatchOutput::Delays => awesym_awe::delay_estimates(moments)
            .map(|d| PointValue::Delays(d.into()))
            .map_err(|e| PointError::numeric(e.to_string())),
    }
}

/// [`eval_point`] behind `catch_unwind`: a panic in the tape replay, the
/// Padé solve, or an injected fault becomes an `internal` point error.
/// The evaluator is passed by `&mut Option` so it can be rebuilt after a
/// panic (its scratch state is suspect mid-unwind).
#[allow(clippy::too_many_arguments)]
fn eval_point_guarded<'m>(
    model: &'m CompiledModel,
    ev: &mut Option<Evaluator<'m>>,
    vals: &[f64],
    output: &BatchOutput,
    moments: &mut [f64],
    index: usize,
    ctl: &BatchCtl,
) -> PointResult {
    let evaluator = ev.get_or_insert_with(|| model.evaluator());
    let r = catch_unwind(AssertUnwindSafe(|| {
        eval_point(model, evaluator, vals, output, moments, index, ctl)
    }));
    match r {
        Ok(point_result) => point_result,
        Err(payload) => {
            ctl.panics.fetch_add(1, Ordering::Relaxed);
            *ev = None; // rebuild: scratch may hold partial state
            Err(PointError::internal(format!(
                "evaluation panicked: {}",
                panic_message(payload.as_ref())
            )))
        }
    }
}

/// Marks every unfilled slot from `from` onward as deadline-exceeded.
fn mark_deadline(slots: &mut [Option<PointResult>], from: usize) {
    for slot in &mut slots[from..] {
        if slot.is_none() {
            *slot = Some(Err(PointError::deadline(
                "deadline expired before this point was evaluated",
            )));
        }
    }
}

/// Evaluates one worker's chunk; `base` is the chunk's offset in the
/// whole batch. Moment-only chunks whose points all have the right arity
/// go through the vectorized `eval_batch` lane kernel (in
/// lane-block-sized deadline-check sub-blocks);
/// anything else — including any run with fault injection active — falls
/// back to the per-point path. Shared with the persistent worker pool
/// (`crate::pool`), which calls it once per claimed chunk.
pub(crate) fn eval_chunk(
    model: &CompiledModel,
    points: &[Vec<f64>],
    output: &BatchOutput,
    slots: &mut [Option<PointResult>],
    base: usize,
    ctl: &BatchCtl,
) {
    let mut ev: Option<Evaluator<'_>> = Some(model.evaluator());
    let n_m = ev.as_ref().map_or(0, Evaluator::n_outputs);
    let n_in = ev.as_ref().map_or(0, Evaluator::n_inputs);
    let soa_eligible = matches!(output, BatchOutput::Moments)
        && !faults_active()
        && points.iter().all(|p| p.len() == n_in);
    if soa_eligible {
        let mut flat = vec![0.0; CHECK_STRIDE * n_m];
        let mut done = 0;
        while done < points.len() {
            if ctl.check_expired() {
                mark_deadline(slots, done);
                return;
            }
            let end = (done + CHECK_STRIDE).min(points.len());
            let block = &points[done..end];
            let out = &mut flat[..(end - done) * n_m];
            let evaluator = ev.get_or_insert_with(|| model.evaluator());
            let run = catch_unwind(AssertUnwindSafe(|| evaluator.try_eval_batch(block, out)));
            match run {
                Ok(Ok(())) => {
                    for (slot, row) in slots[done..end].iter_mut().zip(out.chunks_exact(n_m)) {
                        *slot = Some(if row.iter().all(|m| m.is_finite()) {
                            Ok(PointValue::Moments(row.to_vec()))
                        } else {
                            Err(PointError::numeric(
                                "evaluation produced non-finite moments",
                            ))
                        });
                    }
                }
                Ok(Err(shape)) => {
                    // Unreachable (arity pre-checked), but degrade to a
                    // per-point error rather than trusting it.
                    for slot in &mut slots[done..end] {
                        *slot = Some(Err(PointError::bad_request(shape.to_string())));
                    }
                }
                Err(_payload) => {
                    // A panic inside the batch kernel: isolate the poisoned
                    // point(s) by replaying this block point by point
                    // (each replay produces its own per-point error).
                    ctl.panics.fetch_add(1, Ordering::Relaxed);
                    ev = None;
                    let mut moments = vec![0.0; n_m];
                    for (i, (slot, point)) in
                        slots[done..end].iter_mut().zip(block.iter()).enumerate()
                    {
                        *slot = Some(eval_point_guarded(
                            model,
                            &mut ev,
                            point,
                            output,
                            &mut moments,
                            base + done + i,
                            ctl,
                        ));
                    }
                }
            }
            done = end;
        }
        return;
    }
    let mut moments = vec![0.0; n_m];
    // The slow path is one tape replay (and possibly a Padé solve) per
    // point — a clock read per point is noise, so check every time.
    for i in 0..points.len() {
        if ctl.check_expired() {
            mark_deadline(&mut slots[i..], 0);
            return;
        }
        slots[i] = Some(eval_point_guarded(
            model,
            &mut ev,
            &points[i],
            output,
            &mut moments,
            base + i,
            ctl,
        ));
    }
}

/// Evaluates `points` against `model` on the calling thread — the serial
/// reference the worker pool is tested against. Results are returned in
/// input order; each point independently succeeds or reports a
/// structured [`PointError`] — a panic inside one point's evaluation is
/// caught and isolated, never aborting the batch or the process.
pub fn evaluate_batch(
    model: &CompiledModel,
    points: &[Vec<f64>],
    output: &BatchOutput,
) -> Vec<PointResult> {
    let ctl = BatchCtl::new(None, 0);
    let mut slots = vec![None; points.len()];
    eval_chunk(model, points, output, &mut slots, 0, &ctl);
    slots
        .into_iter()
        .map(|r| r.expect("eval_chunk fills every slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{PoolConfig, WorkerPool};
    use awesym_circuit::generators::fig1_rc;
    use awesym_partition::SymbolBinding;
    use std::sync::Arc;
    use std::time::Duration;

    fn model2() -> CompiledModel {
        let w = fig1_rc(1e-3, 2e-3, 1e-9, 3e-9);
        let c = &w.circuit;
        let bindings = [
            SymbolBinding::capacitance("c1", vec![c.find("C1").unwrap()]),
            SymbolBinding::resistance("r2", vec![c.find("R2").unwrap()]),
        ];
        CompiledModel::build(c, w.input, w.output, &bindings, 2).unwrap()
    }

    fn grid(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                let t = i as f64 / n as f64;
                vec![0.5e-9 + 3e-9 * t, 300.0 + 4000.0 * t]
            })
            .collect()
    }

    /// Runs `points` on a fresh `workers`-thread pool.
    fn pooled(
        workers: usize,
        m: &CompiledModel,
        points: &[Vec<f64>],
        output: BatchOutput,
        deadline: Option<Instant>,
    ) -> BatchOutcome {
        let pool = WorkerPool::new(
            0,
            PoolConfig {
                workers,
                ..PoolConfig::default()
            },
        );
        pool.run_batch(
            Arc::new(m.clone()),
            Arc::new(points.to_vec()),
            output,
            deadline,
            None,
        )
    }

    #[test]
    fn batch_matches_direct_evaluation_in_order() {
        let m = model2();
        let pts = grid(64);
        let got = pooled(4, &m, &pts, BatchOutput::Moments, None).results;
        assert_eq!(got.len(), pts.len());
        for (r, p) in got.iter().zip(&pts) {
            assert_eq!(r.as_ref().unwrap(), &PointValue::Moments(m.eval_moments(p)));
        }
    }

    #[test]
    fn worker_counts_agree() {
        let m = model2();
        let pts = grid(37);
        let base = evaluate_batch(&m, &pts, &BatchOutput::Rom);
        for w in [2, 3, 8, 64] {
            assert_eq!(pooled(w, &m, &pts, BatchOutput::Rom, None).results, base);
        }
    }

    #[test]
    fn bad_points_error_without_aborting_batch() {
        let m = model2();
        let pts = vec![vec![1e-9, 1e3], vec![1e-9], vec![2e-9, 2e3]];
        let got = pooled(2, &m, &pts, BatchOutput::DcGain, None).results;
        assert!(got[0].is_ok());
        let e = got[1].as_ref().unwrap_err();
        assert!(e.message.contains("2 symbols"), "{e}");
        assert_eq!(e.code, "bad_request");
        assert!(got[2].is_ok());
    }

    #[test]
    fn all_output_kinds_produce_values() {
        let m = model2();
        let pts = grid(4);
        for out in [
            BatchOutput::Moments,
            BatchOutput::Rom,
            BatchOutput::DcGain,
            BatchOutput::Step {
                times: vec![0.0, 1e-6, 1e-5],
            },
            BatchOutput::Delays,
        ] {
            let got = evaluate_batch(&m, &pts, &out);
            assert!(got.iter().all(Result::is_ok), "{out:?}");
        }
        assert!(evaluate_batch(&m, &[], &BatchOutput::Moments).is_empty());
    }

    #[test]
    fn delay_values_are_physical() {
        let m = model2();
        let got = pooled(2, &m, &grid(3), BatchOutput::Delays, None).results;
        for r in got {
            let PointValue::Delays(d) = r.unwrap() else {
                panic!("wrong kind")
            };
            assert!(d.elmore > 0.0 && d.d2m > 0.0);
        }
    }

    #[test]
    fn healthy_points_report_no_degradation() {
        let m = model2();
        let out = pooled(2, &m, &grid(8), BatchOutput::Rom, None);
        assert_eq!(out.panics_caught, 0);
        assert_eq!(out.degraded_points, 0);
        assert!(!out.deadline_exceeded);
        for r in &out.results {
            let PointValue::Rom(s) = r.as_ref().unwrap() else {
                panic!("wrong kind")
            };
            assert!(s.degraded.is_none());
        }
    }

    #[test]
    fn expired_deadline_marks_remaining_points() {
        let m = model2();
        // A deadline already in the past: every point is marked, none
        // evaluated, and the outcome says so.
        let past = Instant::now() - Duration::from_millis(1);
        for workers in [1, 4] {
            let out = pooled(workers, &m, &grid(100), BatchOutput::Moments, Some(past));
            assert!(out.deadline_exceeded);
            assert_eq!(out.results.len(), 100);
            let expired = out
                .results
                .iter()
                .filter(|r| {
                    r.as_ref()
                        .err()
                        .is_some_and(|e| e.code == "deadline_exceeded")
                })
                .count();
            assert_eq!(expired, 100, "workers={workers}");
        }
    }

    #[test]
    fn generous_deadline_changes_nothing() {
        let m = model2();
        let pts = grid(40);
        let free = pooled(2, &m, &pts, BatchOutput::Moments, None).results;
        let far = Instant::now() + Duration::from_secs(3600);
        let out = pooled(2, &m, &pts, BatchOutput::Moments, Some(far));
        assert!(!out.deadline_exceeded);
        assert_eq!(out.results, free);
    }
}
