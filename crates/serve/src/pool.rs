//! The shard's batch job on the supervised executor.
//!
//! [`WorkerPool`] submits each batch as a job to one
//! [`awesym_obs::exec::Executor`], which owns the threads, the
//! participation cap, drain-on-dead-pool and supervised restarts. This
//! module owns what a chunk means: `chunk_size` splits a batch into
//! lane-aligned chunks sized by the tape's op count, and each chunk
//! evaluates its points through `eval_chunk` into the job's result
//! slots. A chunk that panics (only an injected worker kill can:
//! per-point panics are caught inside `eval_chunk`) has its points
//! answered with `internal` errors, so the submitter always gets one
//! result per point.
//!
//! Evaluators borrow the compiled model, so each chunk builds its own
//! (construction is a few allocations — noise next to a chunk of tape
//! replays).

use crate::batch::{eval_chunk, BatchCtl, BatchOutcome, BatchOutput, PointResult};
use crate::error::PointError;
use crate::shard::lock;
pub use awesym_obs::exec::PoolConfig;
use awesym_obs::exec::{Executor, Job};
use awesym_partition::CompiledModel;
use std::any::Any;
use std::ops::Range;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Smallest chunk a worker claims at once, whatever the tape size.
/// Chunks are the work-stealing grain: coarse enough that the claim
/// (one `fetch_add`) is noise next to the evaluation, fine enough that
/// a 1200-point batch still spreads across 8 workers.
const MIN_CHUNK: usize = 64;

/// Chunks per worker the splitter aims for — a little oversubscription
/// so a worker stalled on a slow point does not strand a whole stripe.
const CHUNKS_PER_WORKER: usize = 4;

/// Tape operations a chunk should amortize at minimum. The per-chunk
/// overhead (frontier claim, slot writeback, deadline check) is fixed,
/// so the floor on chunk size scales inversely with the tape: a tiny
/// 32-op tape gets ~2048-point chunks where a 100k-op tape keeps the
/// fine 64-point grain.
const TARGET_CHUNK_OPS: usize = 65_536;

/// Ceiling on the op-count-scaled chunk floor, so a degenerate one-op
/// tape still yields enough chunks for the pool to share.
const MAX_CHUNK_FLOOR: usize = 4_096;

/// Points per chunk for an `n`-point batch of a tape with `op_count`
/// operations, split across at most `max_workers` workers.
///
/// The parallelism target (`CHUNKS_PER_WORKER` chunks per worker) sets
/// the upper shape; the floor is work-based — at least
/// [`TARGET_CHUNK_OPS`] tape operations per chunk (capped at
/// [`MAX_CHUNK_FLOOR`] points) — so small tapes produce fewer, larger
/// chunks instead of paying fixed per-chunk overhead 4× per worker.
///
/// The result is rounded up to the lane kernel's widest block
/// ([`awesym_symbolic::MAX_BLOCK_POINTS`]) so every chunk but the batch's
/// last feeds `eval_batch` whole vector blocks; a misaligned grain would
/// make *every* chunk pay a scalar tail for its trailing points.
pub(crate) fn chunk_size(n: usize, max_workers: usize, op_count: usize) -> usize {
    let floor = (TARGET_CHUNK_OPS / op_count.max(1))
        .clamp(MIN_CHUNK, MAX_CHUNK_FLOOR)
        .min(n);
    n.div_ceil(max_workers.max(1) * CHUNKS_PER_WORKER)
        .max(floor)
        .min(n)
        .next_multiple_of(awesym_symbolic::MAX_BLOCK_POINTS)
        .min(n)
        .max(1)
}

/// One batch as an executor job: chunks fill disjoint result slots.
struct BatchJob {
    model: Arc<CompiledModel>,
    points: Arc<Vec<Vec<f64>>>,
    output: BatchOutput,
    ctl: BatchCtl,
    /// Points per chunk.
    chunk: usize,
    slots: Mutex<Vec<Option<PointResult>>>,
}

impl BatchJob {
    fn range(&self, chunk: usize) -> Range<usize> {
        chunk * self.chunk..((chunk + 1) * self.chunk).min(self.points.len())
    }
}

impl Job for BatchJob {
    /// Whether injected worker kills apply: on pool threads only, never
    /// on the submitter's drain, which guarantees the request completes.
    type Participant<'a> = bool;

    fn chunks(&self) -> usize {
        self.points.len().div_ceil(self.chunk)
    }

    fn join(&self, pooled: bool) -> bool {
        pooled
    }

    #[cfg_attr(not(feature = "fault-injection"), allow(unused_variables))]
    fn run_chunk(&self, pooled: &mut bool, chunk: usize) {
        let range = self.range(chunk);
        #[cfg(feature = "fault-injection")]
        if *pooled && crate::faults::fault_kills_worker(self.ctl.shard, range.start) {
            panic!(
                "injected fault: worker killed at chunk starting {}",
                range.start
            );
        }
        let mut local: Vec<Option<PointResult>> = vec![None; range.len()];
        eval_chunk(
            &self.model,
            &self.points[range.clone()],
            &self.output,
            &mut local,
            range.start,
            &self.ctl,
        );
        lock(&self.slots)[range].swap_with_slice(&mut local);
    }

    fn chunk_panicked(&self, chunk: usize, _payload: Box<dyn Any + Send>) {
        // The thread is about to retire; whatever this chunk did not
        // finish becomes structured errors so the job still completes
        // with one result per point.
        self.ctl.panics.fetch_add(1, Ordering::Relaxed);
        for slot in &mut lock(&self.slots)[self.range(chunk)] {
            if slot.is_none() {
                *slot = Some(Err(PointError::internal(
                    "worker thread died mid-chunk; shard supervisor will restart it",
                )));
            }
        }
    }
}

/// A persistent, supervised worker pool evaluating batches against any
/// compiled model. See the module docs for the design.
pub struct WorkerPool {
    exec: Executor,
    shard: usize,
}

impl WorkerPool {
    /// A pool of `config.workers` threads (at least 1) serving `shard`.
    /// Unsharded users pass shard 0.
    pub fn new(shard: usize, config: PoolConfig) -> Self {
        WorkerPool {
            exec: Executor::new(&format!("awesym-shard{shard}"), config),
            shard,
        }
    }

    /// The executor behind the pool: worker counts, deaths, restarts
    /// and the supervision pass.
    pub fn executor(&self) -> &Executor {
        &self.exec
    }

    /// Evaluates `points` against `model` on the pool, returning results
    /// in input order. `max_workers` caps how many pool workers
    /// co-evaluate this job (`None` → all); the submitting thread never
    /// evaluates unless the whole pool is dead, in which case it drains
    /// the job itself so the request still completes.
    pub fn run_batch(
        &self,
        model: Arc<CompiledModel>,
        points: Arc<Vec<Vec<f64>>>,
        output: BatchOutput,
        deadline: Option<Instant>,
        max_workers: Option<usize>,
    ) -> BatchOutcome {
        let n = points.len();
        let max_workers = max_workers
            .unwrap_or(usize::MAX)
            .clamp(1, self.exec.workers());
        let job = Arc::new(BatchJob {
            chunk: chunk_size(n, max_workers, model.op_count()),
            model,
            points,
            output,
            ctl: BatchCtl::new(deadline, self.shard),
            slots: Mutex::new(vec![None; n]),
        });
        self.exec.run(Arc::clone(&job), max_workers);
        let slots = std::mem::take(&mut *lock(&job.slots));
        BatchOutcome {
            results: slots
                .into_iter()
                .map(|r| r.expect("pool job completed with every slot filled"))
                .collect(),
            panics_caught: job.ctl.panics.load(Ordering::Relaxed),
            degraded_points: job.ctl.degraded.load(Ordering::Relaxed),
            deadline_exceeded: job.ctl.expired.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::evaluate_batch;
    use awesym_circuit::generators::fig1_rc;
    use awesym_partition::SymbolBinding;
    use std::time::Duration;

    fn model2() -> Arc<CompiledModel> {
        let w = fig1_rc(1e-3, 2e-3, 1e-9, 3e-9);
        let c = &w.circuit;
        let bindings = [
            SymbolBinding::capacitance("c1", vec![c.find("C1").unwrap()]),
            SymbolBinding::resistance("r2", vec![c.find("R2").unwrap()]),
        ];
        Arc::new(CompiledModel::build(c, w.input, w.output, &bindings, 2).unwrap())
    }

    fn grid(n: usize) -> Arc<Vec<Vec<f64>>> {
        Arc::new(
            (0..n)
                .map(|i| {
                    let t = i as f64 / n as f64;
                    vec![0.5e-9 + 3e-9 * t, 300.0 + 4000.0 * t]
                })
                .collect(),
        )
    }

    fn small_pool(workers: usize) -> WorkerPool {
        WorkerPool::new(
            0,
            PoolConfig {
                workers,
                restart_backoff: Duration::from_millis(1),
                max_restart_backoff: Duration::from_millis(50),
            },
        )
    }

    #[test]
    fn small_tapes_get_fewer_larger_chunks() {
        let (n, workers) = (4096, 8);
        // A big tape keeps the fine parallelism grain: 4 chunks/worker.
        let fine = chunk_size(n, workers, 100_000);
        assert_eq!(fine, 128);
        assert_eq!(n.div_ceil(fine), 32);
        // A tiny 32-op tape amortizes per-chunk overhead over a
        // 2048-point floor instead: fewer, larger chunks.
        let coarse = chunk_size(n, workers, 32);
        assert_eq!(coarse, 2048);
        assert_eq!(n.div_ceil(coarse), 2);
        assert!(coarse > fine && n.div_ceil(coarse) < n.div_ceil(fine));
        // The floor is capped so a degenerate one-op tape still splits.
        assert_eq!(chunk_size(10_000, 1, 1), 4_096);
        // A batch smaller than the floor is one whole chunk.
        assert_eq!(chunk_size(10, 8, 1), 10);
        // And the fine grain never drops below MIN_CHUNK.
        assert_eq!(chunk_size(4096, 64, 100_000), MIN_CHUNK);
    }

    #[test]
    fn chunks_align_to_lane_blocks() {
        use awesym_symbolic::MAX_BLOCK_POINTS;
        // A raw grain of 313 (10 000 / 32 chunks) rounds up to the lane
        // block multiple so only the batch's final chunk has a scalar
        // tail.
        assert_eq!(chunk_size(10_000, 8, 100_000), 320);
        for (n, w, ops) in [
            (10_000usize, 8usize, 100_000usize),
            (333, 2, 50),
            (1200, 4, 118),
            (4096, 8, 32),
            (31, 8, 1),
            (65, 3, 10_000),
        ] {
            let c = chunk_size(n, w, ops);
            assert!(
                c % MAX_BLOCK_POINTS == 0 || c == n,
                "chunk_size({n}, {w}, {ops}) = {c} is neither lane-aligned nor the whole batch"
            );
            assert!(c >= 1 && c <= n);
        }
    }

    #[test]
    fn pool_results_match_direct_evaluation_at_any_worker_count() {
        let m = model2();
        let pts = grid(333);
        let reference = evaluate_batch(&m, &pts, &BatchOutput::Moments);
        for workers in [1, 2, 4, 8] {
            let pool = small_pool(workers);
            let out = pool.run_batch(
                Arc::clone(&m),
                Arc::clone(&pts),
                BatchOutput::Moments,
                None,
                None,
            );
            assert_eq!(out.results, reference, "workers={workers}");
            assert_eq!(out.panics_caught, 0);
            assert!(!out.deadline_exceeded);
        }
    }

    #[test]
    fn pool_is_reusable_across_jobs_and_output_kinds() {
        let pool = small_pool(2);
        let m = model2();
        let pts = grid(90);
        for output in [
            BatchOutput::Moments,
            BatchOutput::Rom,
            BatchOutput::DcGain,
            BatchOutput::Delays,
        ] {
            let out = pool.run_batch(Arc::clone(&m), Arc::clone(&pts), output.clone(), None, None);
            assert_eq!(out.results.len(), 90, "{output:?}");
            assert!(out.results.iter().all(Result::is_ok), "{output:?}");
        }
        assert_eq!(pool.executor().alive(), 2);
        assert_eq!(pool.executor().restarts(), 0);
    }

    #[test]
    fn empty_batch_returns_immediately() {
        let pool = small_pool(4);
        let out = pool.run_batch(
            model2(),
            Arc::new(Vec::new()),
            BatchOutput::Moments,
            None,
            None,
        );
        assert!(out.results.is_empty());
    }

    #[test]
    fn expired_deadline_marks_every_point() {
        let pool = small_pool(4);
        let past = Instant::now() - Duration::from_millis(1);
        let out = pool.run_batch(model2(), grid(200), BatchOutput::Moments, Some(past), None);
        assert!(out.deadline_exceeded);
        assert_eq!(out.results.len(), 200);
        for r in &out.results {
            assert_eq!(r.as_ref().unwrap_err().code, "deadline_exceeded");
        }
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn killed_workers_never_hang_jobs_and_supervision_respawns() {
        use crate::faults::{self, FaultPlan};
        let _guard = faults::tests::plan_guard();
        // The fault plan is process-global and lib tests run in parallel,
        // so target a shard id nothing else in this binary uses — other
        // pools/shards (ids 0-3) see no injected faults.
        let pool = WorkerPool::new(
            7777,
            PoolConfig {
                workers: 3,
                restart_backoff: Duration::from_millis(1),
                max_restart_backoff: Duration::from_millis(50),
            },
        );
        faults::install(FaultPlan {
            seed: 5,
            worker_kill_rate_pct: 100,
            target_shard: Some(7777),
            ..FaultPlan::default()
        });
        let m = model2();
        // More chunks than workers (op-count-aware sizing caps chunks at
        // MAX_CHUNK_FLOOR points for this tiny tape): with chunks left
        // over after every worker dies, the submitter must observe the
        // dead pool — which happens-after the death accounting under the
        // queue lock — and drain the tail, so `deaths`/`alive` below are
        // deterministic rather than racing the final chunk's deposit.
        let n = 4 * MAX_CHUNK_FLOOR;
        let out = pool.run_batch(Arc::clone(&m), grid(n), BatchOutput::Moments, None, None);
        faults::clear();
        // Every point answered: killed chunks as internal errors, the
        // rest drained serially by the submitter after the pool died.
        assert_eq!(out.results.len(), n);
        assert!(out.panics_caught > 0);
        assert!(pool.executor().deaths() > 0);
        assert_eq!(pool.executor().alive(), 0);
        // Supervision brings the pool back (backoff is 1 ms in tests)
        // and the next batch is fully healthy.
        std::thread::sleep(Duration::from_millis(5));
        let pts = grid(100);
        let reference = evaluate_batch(&m, &pts, &BatchOutput::Moments);
        let out = pool.run_batch(Arc::clone(&m), pts, BatchOutput::Moments, None, None);
        assert_eq!(out.results, reference);
        assert!(
            pool.executor().restarts() >= 3,
            "restarts={}",
            pool.executor().restarts()
        );
        assert_eq!(pool.executor().alive(), 3);
    }
}
