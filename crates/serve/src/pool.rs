//! Persistent worker pool for batch evaluation.
//!
//! This ports the proven `McEngine` pattern from `awesym-timing`
//! (`crates/timing/src/engine.rs`) to the serving path, replacing the
//! per-batch `std::thread::scope` spawn that made batch throughput
//! *drop* as workers increased (thread spawn + join cost swamped the
//! sub-microsecond per-point work). Workers are spawned once, park on a
//! condvar, and steal coarse chunks of whatever job is at the head of
//! the queue via an atomic chunk frontier — so a batch pays one mutex
//! handoff instead of N thread spawns.
//!
//! The pool is also the shard supervisor's foundation:
//!
//! - **jobs never hang** — every chunk runs under `catch_unwind`; a
//!   panicking worker fills its chunk's slots with `internal` point
//!   errors and completes the chunk's accounting *before* dying, so the
//!   submitter always gets a full result vector;
//! - **worker death is survivable** — if every worker dies mid-job, the
//!   submitting thread notices (`alive == 0`) and drains the remaining
//!   chunks itself, serially;
//! - **supervised restart** — each submission first runs a cheap
//!   supervision pass: dead workers are respawned, subject to a capped
//!   exponential backoff so a crash-looping model cannot burn CPU on
//!   futile restarts. Restart and death counts are exposed for health
//!   reporting and the per-shard circuit breaker.
//!
//! Evaluators borrow the compiled model, so workers rebuild one per
//! claimed chunk (construction is a few allocations — noise next to a
//! chunk of tape replays). What the pool eliminates is the per-batch
//! thread churn, which was the actual scaling killer.

use crate::batch::{eval_chunk, BatchCtl, BatchOutcome, BatchOutput, PointResult};
use crate::error::PointError;
use awesym_partition::CompiledModel;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

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
        .clamp(floor.max(1), n)
        .next_multiple_of(awesym_symbolic::MAX_BLOCK_POINTS)
        .min(n)
        .max(1)
}

/// How long a submitter waits on the done condvar per wakeup. Pure
/// belt-and-suspenders: every completion path notifies the condvar, the
/// timeout only bounds the damage of a lost-wakeup bug.
const WAIT_SLICE: Duration = Duration::from_millis(100);

/// Restart/backoff knobs for the pool's supervision pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolConfig {
    /// Worker threads to keep alive.
    pub workers: usize,
    /// Backoff after the first restart burst; doubles per consecutive
    /// burst.
    pub restart_backoff: Duration,
    /// Backoff ceiling.
    pub max_restart_backoff: Duration,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            workers: crate::batch::default_workers(),
            restart_backoff: Duration::from_millis(10),
            max_restart_backoff: Duration::from_secs(2),
        }
    }
}

/// Lock, surviving poison: the pool must keep supervising even if some
/// thread panicked at an unexpected moment while holding a lock.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One queued batch: the inputs, an atomic chunk frontier workers claim
/// from, and the result slots they fill.
struct Job {
    model: Arc<CompiledModel>,
    points: Arc<Vec<Vec<f64>>>,
    output: BatchOutput,
    ctl: BatchCtl,
    /// Points per chunk.
    chunk: usize,
    n_chunks: usize,
    /// Most workers allowed to co-evaluate this job (the request's
    /// `workers` field).
    max_workers: usize,
    /// Workers currently inside this job. Only touched under the queue
    /// lock (atomic purely for shared access through the `Arc`).
    entered: AtomicUsize,
    next_chunk: AtomicUsize,
    chunks_done: AtomicUsize,
    done: AtomicBool,
    slots: Mutex<Vec<Option<PointResult>>>,
}

impl Job {
    /// Whether a worker scanning the queue should pick this job up:
    /// unclaimed chunks remain and the participation cap has room.
    /// Callers hold the queue lock.
    fn claimable(&self) -> bool {
        self.entered.load(Ordering::Relaxed) < self.max_workers
            && self.next_chunk.load(Ordering::Relaxed) < self.n_chunks
    }

    /// Claims and evaluates chunks until the frontier is exhausted.
    /// Returns `true` when an injected worker-kill fired and the calling
    /// worker must die (this job's accounting is already safe by then).
    fn work(&self, shared: &Shared) -> bool {
        loop {
            let c = self.next_chunk.fetch_add(1, Ordering::Relaxed);
            if c >= self.n_chunks {
                return false;
            }
            let start = c * self.chunk;
            let end = ((c + 1) * self.chunk).min(self.points.len());
            let mut local: Vec<Option<PointResult>> = vec![None; end - start];
            let run = catch_unwind(AssertUnwindSafe(|| {
                #[cfg(feature = "fault-injection")]
                if crate::faults::fault_kills_worker(self.ctl.shard, start) {
                    panic!("injected fault: worker killed at chunk starting {start}");
                }
                eval_chunk(
                    &self.model,
                    &self.points[start..end],
                    &self.output,
                    &mut local,
                    start,
                    &self.ctl,
                );
            }));
            let killed = run.is_err();
            if killed {
                // The worker is about to die; whatever this chunk did
                // not finish becomes structured errors so the job still
                // completes with one result per point.
                self.ctl.panics.fetch_add(1, Ordering::Relaxed);
                for slot in &mut local {
                    if slot.is_none() {
                        *slot = Some(Err(PointError::internal(
                            "worker thread died mid-chunk; shard supervisor will restart it",
                        )));
                    }
                }
            }
            self.deposit(shared, start, local);
            if killed {
                return true;
            }
        }
    }

    /// Moves a finished chunk's results into the shared slots and, when
    /// it was the last chunk, marks the job done, removes it from the
    /// queue, and wakes the submitter.
    fn deposit(&self, shared: &Shared, start: usize, local: Vec<Option<PointResult>>) {
        {
            let mut slots = lock(&self.slots);
            for (slot, value) in slots[start..start + local.len()].iter_mut().zip(local) {
                *slot = value;
            }
        }
        let finished = self.chunks_done.fetch_add(1, Ordering::AcqRel) + 1;
        if finished == self.n_chunks {
            let mut q = lock(&shared.queue);
            self.done.store(true, Ordering::Release);
            q.retain(|j| !std::ptr::eq(Arc::as_ptr(j), self));
            drop(q);
            shared.done.notify_all();
        }
    }
}

/// State shared between the pool handle and its worker threads.
struct Shared {
    queue: Mutex<VecDeque<Arc<Job>>>,
    /// Workers park here for new work.
    work: Condvar,
    /// Submitters park here for job completion (paired with `queue`).
    done: Condvar,
    alive: AtomicUsize,
    deaths: AtomicU64,
    shutdown: AtomicBool,
    shard: usize,
}

/// Supervision bookkeeping: live handles plus restart pacing state for
/// the capped exponential backoff.
struct Supervisor {
    handles: Vec<JoinHandle<()>>,
    next_worker_id: usize,
    backoff: Duration,
    not_before: Instant,
    healthy_since: Option<Instant>,
}

/// A persistent, supervised worker pool evaluating batches against any
/// compiled model. See the module docs for the design.
pub struct WorkerPool {
    shared: Arc<Shared>,
    config: PoolConfig,
    supervisor: Mutex<Supervisor>,
    restarts: AtomicU64,
}

impl WorkerPool {
    /// A pool of `config.workers` threads (at least 1) serving `shard`.
    /// Unsharded users pass shard 0.
    pub fn new(shard: usize, config: PoolConfig) -> Self {
        let config = PoolConfig {
            workers: config.workers.max(1),
            ..config
        };
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            work: Condvar::new(),
            done: Condvar::new(),
            alive: AtomicUsize::new(0),
            deaths: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            shard,
        });
        let pool = WorkerPool {
            shared,
            config,
            supervisor: Mutex::new(Supervisor {
                handles: Vec::new(),
                next_worker_id: 0,
                backoff: config.restart_backoff,
                not_before: Instant::now(),
                healthy_since: None,
            }),
            restarts: AtomicU64::new(0),
        };
        {
            let mut sup = lock(&pool.supervisor);
            for _ in 0..pool.config.workers {
                pool.spawn_worker(&mut sup);
            }
        }
        pool
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.config.workers
    }

    /// Worker threads currently alive.
    pub fn alive(&self) -> usize {
        self.shared.alive.load(Ordering::Relaxed)
    }

    /// Workers respawned by supervision (initial spawns not counted).
    pub fn restarts(&self) -> u64 {
        self.restarts.load(Ordering::Relaxed)
    }

    /// Worker threads that died (panicked outside the per-point guard).
    pub fn deaths(&self) -> u64 {
        self.shared.deaths.load(Ordering::Relaxed)
    }

    fn spawn_worker(&self, sup: &mut Supervisor) {
        let shared = Arc::clone(&self.shared);
        let id = sup.next_worker_id;
        sup.next_worker_id += 1;
        self.shared.alive.fetch_add(1, Ordering::Relaxed);
        let handle = std::thread::Builder::new()
            .name(format!("awesym-shard{}-w{id}", self.shared.shard))
            .spawn(move || worker_loop(&shared))
            .expect("spawn pool worker thread");
        sup.handles.push(handle);
    }

    /// One supervision pass: respawn dead workers, paced by a capped
    /// exponential backoff so a crash loop cannot spin. Called on every
    /// submission (cheap when the pool is healthy) and usable directly
    /// for health probing. Returns the number of workers respawned.
    pub fn supervise(&self) -> usize {
        if self.shared.shutdown.load(Ordering::Relaxed) {
            return 0;
        }
        let mut sup = lock(&self.supervisor);
        let now = Instant::now();
        let missing = self.config.workers.saturating_sub(self.alive());
        if missing == 0 {
            // Fully healthy for a whole ceiling-backoff window → forgive
            // the crash history so the next incident restarts promptly.
            match sup.healthy_since {
                Some(t) if now.duration_since(t) >= self.config.max_restart_backoff => {
                    sup.backoff = self.config.restart_backoff;
                }
                Some(_) => {}
                None => sup.healthy_since = Some(now),
            }
            return 0;
        }
        sup.healthy_since = None;
        if now < sup.not_before {
            return 0; // still backing off from the previous burst
        }
        // Reap finished handles so the vec doesn't grow unboundedly
        // across a long crash loop.
        sup.handles.retain(|h| !h.is_finished());
        for _ in 0..missing {
            self.spawn_worker(&mut sup);
        }
        self.restarts.fetch_add(missing as u64, Ordering::Relaxed);
        sup.not_before = now + sup.backoff;
        sup.backoff = (sup.backoff * 2).min(self.config.max_restart_backoff);
        missing
    }

    /// Milliseconds until the supervisor will next agree to restart
    /// workers (0 when not backing off) — the shard layer's
    /// `retry_after` source when the pool is down.
    pub fn backoff_remaining_ms(&self) -> u64 {
        let sup = lock(&self.supervisor);
        sup.not_before
            .saturating_duration_since(Instant::now())
            .as_millis() as u64
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
        if n == 0 {
            return BatchOutcome {
                results: Vec::new(),
                panics_caught: 0,
                degraded_points: 0,
                deadline_exceeded: false,
            };
        }
        self.supervise();
        let max_workers = max_workers
            .unwrap_or(usize::MAX)
            .clamp(1, self.config.workers);
        let chunk = chunk_size(n, max_workers, model.op_count());
        let job = Arc::new(Job {
            model,
            points,
            output,
            ctl: BatchCtl::new(deadline, self.shared.shard),
            chunk,
            n_chunks: n.div_ceil(chunk),
            max_workers,
            entered: AtomicUsize::new(0),
            next_chunk: AtomicUsize::new(0),
            chunks_done: AtomicUsize::new(0),
            done: AtomicBool::new(false),
            slots: Mutex::new(vec![None; n]),
        });
        {
            let mut q = lock(&self.shared.queue);
            q.push_back(Arc::clone(&job));
            drop(q);
            self.shared.work.notify_all();
        }
        // Wait for completion; if the whole pool dies, drain what's left
        // on this thread. Dying workers complete their current chunk's
        // accounting before dropping `alive`, so alive == 0 means every
        // remaining chunk is unclaimed and safe to take.
        let mut q = lock(&self.shared.queue);
        while !job.done.load(Ordering::Acquire) {
            if self.shared.alive.load(Ordering::Relaxed) == 0 {
                drop(q);
                self.drain(&job);
                q = lock(&self.shared.queue);
                continue;
            }
            let (guard, _timeout) = self
                .shared
                .done
                .wait_timeout(q, WAIT_SLICE)
                .unwrap_or_else(PoisonError::into_inner);
            q = guard;
        }
        drop(q);
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

    /// Serial fallback when no worker is alive: the submitting thread
    /// claims the remaining chunks through the same frontier. Injected
    /// worker-kill faults are not applied here — this is the recovery
    /// path that guarantees the request completes.
    fn drain(&self, job: &Arc<Job>) {
        loop {
            let c = job.next_chunk.fetch_add(1, Ordering::Relaxed);
            if c >= job.n_chunks {
                return;
            }
            let start = c * job.chunk;
            let end = ((c + 1) * job.chunk).min(job.points.len());
            let mut local: Vec<Option<PointResult>> = vec![None; end - start];
            eval_chunk(
                &job.model,
                &job.points[start..end],
                &job.output,
                &mut local,
                start,
                &job.ctl,
            );
            job.deposit(&self.shared, start, local);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Set the flag under the queue lock: a worker checks it under
        // that lock before parking, so it either sees the flag or is
        // already parked when the notify lands (no lost wakeup, which
        // would hang the join below).
        {
            let _q = lock(&self.shared.queue);
            self.shared.shutdown.store(true, Ordering::Relaxed);
        }
        self.shared.work.notify_all();
        let handles = std::mem::take(&mut lock(&self.supervisor).handles);
        for h in handles {
            // Worker panics were already converted to point errors and
            // death counts; joining must not re-raise them.
            let _ = h.join();
        }
    }
}

/// The worker body: park until a claimable job appears, help it, repeat.
/// Exits on shutdown or on an injected worker-kill (after making the
/// current job's accounting whole).
fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut q = lock(&shared.queue);
            loop {
                if shared.shutdown.load(Ordering::Relaxed) {
                    shared.alive.fetch_sub(1, Ordering::Relaxed);
                    return;
                }
                if let Some(job) = q.iter().find(|j| j.claimable()) {
                    let job = Arc::clone(job);
                    job.entered.fetch_add(1, Ordering::Relaxed);
                    break job;
                }
                q = shared.work.wait(q).unwrap_or_else(PoisonError::into_inner);
            }
        };
        let killed = job.work(shared);
        {
            let q = lock(&shared.queue);
            job.entered.fetch_sub(1, Ordering::Relaxed);
            if killed {
                // Order matters: the job's chunks are already accounted
                // for (work() deposits before returning), so dropping
                // `alive` here can never strand a claimed chunk.
                shared.alive.fetch_sub(1, Ordering::Relaxed);
                shared.deaths.fetch_add(1, Ordering::Relaxed);
            }
            drop(q);
            // Leaving frees a participation slot (or signals death to
            // waiting submitters); wake both sides to re-scan.
            shared.work.notify_all();
            shared.done.notify_all();
        }
        if killed {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::evaluate_batch;
    use awesym_circuit::generators::fig1_rc;
    use awesym_partition::SymbolBinding;

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

    /// Dropping a pool right after a batch races its workers back to
    /// their park; a shutdown flag set outside the queue lock could slip
    /// between a worker's check and its wait and hang the join. Several
    /// threads churn pools at once so workers get preempted in that gap.
    #[test]
    fn drop_after_a_batch_never_hangs() {
        let (m, pts) = (model2(), grid(40));
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            std::thread::scope(|s| {
                for _ in 0..4 {
                    s.spawn(|| {
                        for _ in 0..2000 {
                            let pool = small_pool(2);
                            pool.run_batch(
                                Arc::clone(&m),
                                Arc::clone(&pts),
                                BatchOutput::Moments,
                                None,
                                None,
                            );
                        }
                    });
                }
            });
            let _ = tx.send(());
        });
        rx.recv_timeout(Duration::from_secs(60))
            .expect("a pool drop hung joining a worker that missed the shutdown wakeup");
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
        assert_eq!(pool.alive(), 2);
        assert_eq!(pool.restarts(), 0);
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

    #[test]
    fn participation_cap_still_completes_the_job() {
        let pool = small_pool(8);
        let m = model2();
        let pts = grid(300);
        let reference = evaluate_batch(&m, &pts, &BatchOutput::Moments);
        let out = pool.run_batch(
            Arc::clone(&m),
            Arc::clone(&pts),
            BatchOutput::Moments,
            None,
            Some(1),
        );
        assert_eq!(out.results, reference);
    }

    #[test]
    fn concurrent_submitters_share_the_pool() {
        let pool = Arc::new(small_pool(4));
        let m = model2();
        let pts = grid(256);
        let reference = evaluate_batch(&m, &pts, &BatchOutput::Moments);
        std::thread::scope(|s| {
            for _ in 0..6 {
                let pool = Arc::clone(&pool);
                let m = Arc::clone(&m);
                let pts = Arc::clone(&pts);
                let reference = &reference;
                s.spawn(move || {
                    for _ in 0..5 {
                        let out = pool.run_batch(
                            Arc::clone(&m),
                            Arc::clone(&pts),
                            BatchOutput::Moments,
                            None,
                            None,
                        );
                        assert_eq!(&out.results, reference);
                    }
                });
            }
        });
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn killed_workers_never_hang_jobs_and_supervision_respawns() {
        use crate::faults::{self, FaultPlan};
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
        assert!(pool.deaths() > 0);
        assert_eq!(pool.alive(), 0);
        // Supervision brings the pool back (backoff is 1 ms in tests)
        // and the next batch is fully healthy.
        std::thread::sleep(Duration::from_millis(5));
        let pts = grid(100);
        let reference = evaluate_batch(&m, &pts, &BatchOutput::Moments);
        let out = pool.run_batch(Arc::clone(&m), pts, BatchOutput::Moments, None, None);
        assert_eq!(out.results, reference);
        assert!(pool.restarts() >= 3, "restarts={}", pool.restarts());
        assert_eq!(pool.alive(), 3);
    }
}
