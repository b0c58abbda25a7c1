//! The supervised worker executor: persistent threads that run any
//! [`Job`] split into indexed chunks.
//!
//! Threads spawn once, park on a job queue, and take part in whatever
//! claimable job is at the head of it, claiming chunks one at a time
//! through the job's atomic frontier — so a submission pays one mutex
//! handoff instead of N thread spawns. A job decides what a chunk means
//! (a run of batch points, a block of Monte Carlo samples); the executor
//! decides who runs it and keeps that safe:
//!
//! - **jobs never hang** — every chunk runs under `catch_unwind`; a
//!   panicking chunk is reported to its job
//!   ([`Job::chunk_panicked`]) and retires the thread that ran it, and a
//!   job completes only once every claimed chunk is accounted for and
//!   every participant has left;
//! - **participation cap** — a submission names the most threads that may
//!   work on it at once;
//! - **worker death is survivable** — if every worker is dead, the
//!   submitting thread drains the job's remaining chunks itself;
//! - **supervised restart** — each submission first runs a cheap
//!   supervision pass that respawns dead workers, paced by a capped
//!   exponential backoff ([`PoolConfig`]) so a crash loop cannot burn CPU
//!   on futile restarts. Restart and death counts are exposed for health
//!   reporting.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a submitter waits on the done condvar per wakeup. Pure
/// belt-and-suspenders: every completion path notifies the condvar, the
/// timeout only bounds the damage of a lost-wakeup bug.
const WAIT_SLICE: Duration = Duration::from_millis(100);

/// Worker count and restart backoff for an [`Executor`].
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
            workers: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            restart_backoff: Duration::from_millis(10),
            max_restart_backoff: Duration::from_secs(2),
        }
    }
}

/// Work the executor can split across its threads: `chunks()` indexed
/// chunks, each run exactly once by some participant.
///
/// A participant is one thread's stay inside the job. It starts with
/// [`Job::join`] (once the thread has claimed its first chunk), runs
/// chunks through [`Job::run_chunk`], and ends with [`Job::leave`], which
/// gets the participant's state back. `join` and `leave` must not panic.
pub trait Job: Send + Sync + 'static {
    /// State one participant carries from chunk to chunk.
    type Participant<'a>
    where
        Self: 'a;

    /// Number of chunks; the executor hands out indices `0..chunks()`.
    fn chunks(&self) -> usize;

    /// Builds a participant's state. `pooled` is `false` only when the
    /// submitting thread drains the job because every worker is dead.
    fn join(&self, pooled: bool) -> Self::Participant<'_>;

    /// Runs chunk `chunk`.
    fn run_chunk(&self, participant: &mut Self::Participant<'_>, chunk: usize);

    /// Chunk `chunk` panicked with `payload`. Its participant leaves the
    /// job right after, and a pool thread retires.
    fn chunk_panicked(&self, chunk: usize, payload: Box<dyn Any + Send>);

    /// Takes back a participant's state as it leaves the job.
    fn leave(&self, _participant: Self::Participant<'_>) {}
}

/// Lock, surviving poison: the executor must keep supervising even if
/// some thread panicked at an unexpected moment while holding a lock.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A submitted job with its type erased, plus its scheduling state.
struct Entry {
    chunks: usize,
    /// Most threads allowed inside the job at once.
    max_workers: usize,
    /// Threads currently inside the job. Only changed under the queue
    /// lock (atomic purely for shared access through the `Arc`).
    entered: AtomicUsize,
    next: AtomicUsize,
    participate: Box<Participate>,
}

/// [`participate`] over an erased job: one thread's stay in it.
type Participate = dyn Fn(&Entry, usize, bool) -> bool + Send + Sync;

impl Entry {
    /// Enters the job holding its first chunk, or returns `None` when
    /// the participation cap is full or no chunk is left. Callers hold
    /// the queue lock. Entering only with a chunk in hand means every
    /// thread inside is running chunks, so none delays completion.
    fn enter(&self) -> Option<usize> {
        if self.entered.load(Ordering::Relaxed) >= self.max_workers {
            return None;
        }
        let first = self.claim()?;
        self.entered.fetch_add(1, Ordering::Relaxed);
        Some(first)
    }

    /// Whether the job is complete: every chunk is claimed and nobody is
    /// inside, so every claimed chunk was run by a participant that has
    /// left. Callers hold the queue lock.
    fn finished(&self) -> bool {
        self.entered.load(Ordering::Relaxed) == 0
            && self.next.load(Ordering::Relaxed) >= self.chunks
    }

    fn claim(&self) -> Option<usize> {
        let c = self.next.fetch_add(1, Ordering::Relaxed);
        (c < self.chunks).then_some(c)
    }
}

/// Runs chunk `first` of `job` and then every chunk `entry` still hands
/// out, until none is left or one panics. Returns whether one panicked.
fn participate<J: Job>(job: &J, entry: &Entry, first: usize, pooled: bool) -> bool {
    let mut participant = job.join(pooled);
    let mut chunk = Some(first);
    let mut panicked = false;
    while let Some(c) = chunk {
        let run = catch_unwind(AssertUnwindSafe(|| job.run_chunk(&mut participant, c)));
        if let Err(payload) = run {
            job.chunk_panicked(c, payload);
            panicked = true;
            break;
        }
        chunk = entry.claim();
    }
    job.leave(participant);
    panicked
}

/// State shared between the executor handle and its worker threads.
struct Shared {
    queue: Mutex<VecDeque<Arc<Entry>>>,
    /// Workers park here for new work.
    work: Condvar,
    /// Submitters park here for job completion (paired with `queue`).
    done: Condvar,
    alive: AtomicUsize,
    deaths: AtomicU64,
    shutdown: AtomicBool,
}

/// Supervision bookkeeping: live handles plus restart pacing state for
/// the capped exponential backoff.
struct Supervisor {
    handles: Vec<JoinHandle<()>>,
    /// Threads spawned so far, initial ones included (names the next).
    spawned: usize,
    backoff: Duration,
    not_before: Instant,
    healthy_since: Option<Instant>,
}

/// A persistent, supervised pool of worker threads running [`Job`]s.
/// See the module docs for the design.
pub struct Executor {
    shared: Arc<Shared>,
    name: String,
    config: PoolConfig,
    supervisor: Mutex<Supervisor>,
}

impl Executor {
    /// Spawns `config.workers` threads (at least 1), named `{name}-w{id}`.
    pub fn new(name: &str, mut config: PoolConfig) -> Self {
        config.workers = config.workers.max(1);
        let exec = Executor {
            shared: Arc::new(Shared {
                queue: Mutex::new(VecDeque::new()),
                work: Condvar::new(),
                done: Condvar::new(),
                alive: AtomicUsize::new(0),
                deaths: AtomicU64::new(0),
                shutdown: AtomicBool::new(false),
            }),
            name: name.to_owned(),
            config,
            supervisor: Mutex::new(Supervisor {
                handles: Vec::new(),
                spawned: 0,
                backoff: config.restart_backoff,
                not_before: Instant::now(),
                healthy_since: None,
            }),
        };
        let mut sup = lock(&exec.supervisor);
        (0..config.workers).for_each(|_| exec.spawn_worker(&mut sup));
        drop(sup);
        exec
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
        (lock(&self.supervisor).spawned - self.config.workers) as u64
    }

    /// Worker threads retired by a panicking chunk.
    pub fn deaths(&self) -> u64 {
        self.shared.deaths.load(Ordering::Relaxed)
    }

    fn spawn_worker(&self, sup: &mut Supervisor) {
        let shared = Arc::clone(&self.shared);
        let id = sup.spawned;
        sup.spawned += 1;
        self.shared.alive.fetch_add(1, Ordering::Relaxed);
        let handle = std::thread::Builder::new()
            .name(format!("{}-w{id}", self.name))
            .spawn(move || worker_loop(&shared))
            .expect("spawn executor worker thread");
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
        sup.not_before = now + sup.backoff;
        sup.backoff = (sup.backoff * 2).min(self.config.max_restart_backoff);
        missing
    }

    /// Runs `job` to completion with at most `max_workers` pool threads
    /// inside it at once, then returns; the caller reads the job's
    /// results through its own handle on `job`. The submitting thread
    /// runs no chunk unless the whole pool is dead, in which case it
    /// drains the job itself so the submission still completes.
    pub fn run<J: Job>(&self, job: Arc<J>, max_workers: usize) {
        let chunks = job.chunks();
        if chunks == 0 {
            return;
        }
        self.supervise();
        let entry = Arc::new(Entry {
            chunks,
            max_workers: max_workers.max(1),
            entered: AtomicUsize::new(0),
            next: AtomicUsize::new(0),
            participate: Box::new(move |entry, first, pooled| {
                participate(&*job, entry, first, pooled)
            }),
        });
        lock(&self.shared.queue).push_back(Arc::clone(&entry));
        self.shared.work.notify_all();
        let mut q = lock(&self.shared.queue);
        while !entry.finished() {
            // Dead workers left every job before dying, so with none
            // alive this thread is the job's only participant. A chunk
            // that panics here is reported like any other; the loop then
            // drains the rest.
            if self.alive() == 0 {
                if let Some(first) = entry.enter() {
                    drop(q);
                    (entry.participate)(&entry, first, false);
                    q = lock(&self.shared.queue);
                    entry.entered.fetch_sub(1, Ordering::Relaxed);
                    // A worker respawned meanwhile may be parked on the cap.
                    self.shared.work.notify_all();
                    continue;
                }
            }
            q = self
                .shared
                .done
                .wait_timeout(q, WAIT_SLICE)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        q.retain(|e| !Arc::ptr_eq(e, &entry));
    }
}

impl Drop for Executor {
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
            // Chunk panics were already reported to their jobs; joining
            // must not re-raise them.
            let _ = h.join();
        }
    }
}

/// The worker body: park until a job has a chunk to hand out, take part
/// in it, repeat. Exits on shutdown or after a panicking chunk.
fn worker_loop(shared: &Shared) {
    loop {
        let (entry, first) = {
            let mut q = lock(&shared.queue);
            loop {
                if shared.shutdown.load(Ordering::Relaxed) {
                    shared.alive.fetch_sub(1, Ordering::Relaxed);
                    return;
                }
                if let Some(found) = q.iter().find_map(|e| Some((Arc::clone(e), e.enter()?))) {
                    break found;
                }
                q = shared.work.wait(q).unwrap_or_else(PoisonError::into_inner);
            }
        };
        let panicked = (entry.participate)(&entry, first, true);
        let q = lock(&shared.queue);
        entry.entered.fetch_sub(1, Ordering::Relaxed);
        if panicked {
            // Under the same lock as the leave: a submitter that sees
            // `alive == 0` knows no dead worker is still inside its job.
            shared.alive.fetch_sub(1, Ordering::Relaxed);
            shared.deaths.fetch_add(1, Ordering::Relaxed);
        }
        let finished = entry.finished();
        let unclaimed = entry.next.load(Ordering::Relaxed) < entry.chunks;
        drop(q);
        // Wake the submitter when its job is done or a worker died (it may
        // have to drain), and workers when chunks remain for the slot this
        // thread freed.
        if finished || panicked {
            shared.done.notify_all();
        }
        if unclaimed {
            shared.work.notify_all();
        }
        if panicked {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Squares `0..n` into result slots, `chunk` indices per chunk. With
    /// `kill` set, every chunk a pool thread runs panics before writing
    /// (a drain on the submitter is spared), so the pool dies and the
    /// submitter must finish the job.
    struct Squares {
        n: usize,
        chunk: usize,
        kill: bool,
        slots: Mutex<Vec<Option<usize>>>,
        panicked: AtomicUsize,
        inside: AtomicUsize,
        most_inside: AtomicUsize,
    }

    impl Squares {
        fn new(n: usize, chunk: usize) -> Arc<Self> {
            Squares::with_kill(n, chunk, false)
        }

        fn with_kill(n: usize, chunk: usize, kill: bool) -> Arc<Self> {
            Arc::new(Squares {
                n,
                chunk,
                kill,
                slots: Mutex::new(vec![None; n]),
                panicked: AtomicUsize::new(0),
                inside: AtomicUsize::new(0),
                most_inside: AtomicUsize::new(0),
            })
        }

        fn results(&self) -> Vec<Option<usize>> {
            lock(&self.slots).clone()
        }
    }

    fn reference(n: usize) -> Vec<Option<usize>> {
        (0..n).map(|i| Some(i * i)).collect()
    }

    impl Job for Squares {
        type Participant<'a> = bool;

        fn chunks(&self) -> usize {
            self.n.div_ceil(self.chunk)
        }

        fn join(&self, pooled: bool) -> bool {
            let now = self.inside.fetch_add(1, Ordering::SeqCst) + 1;
            self.most_inside.fetch_max(now, Ordering::SeqCst);
            pooled
        }

        fn run_chunk(&self, pooled: &mut bool, chunk: usize) {
            assert!(!(self.kill && *pooled), "test job kills pool threads");
            let end = ((chunk + 1) * self.chunk).min(self.n);
            // Linger so other threads get to join while this one is in.
            std::thread::yield_now();
            let mut slots = lock(&self.slots);
            for (i, slot) in slots
                .iter_mut()
                .enumerate()
                .take(end)
                .skip(chunk * self.chunk)
            {
                *slot = Some(i * i);
            }
        }

        fn chunk_panicked(&self, _chunk: usize, _payload: Box<dyn Any + Send>) {
            self.panicked.fetch_add(1, Ordering::SeqCst);
        }

        fn leave(&self, _pooled: bool) {
            self.inside.fetch_sub(1, Ordering::SeqCst);
        }
    }

    fn small_pool(workers: usize) -> Executor {
        Executor::new(
            "exec-test",
            PoolConfig {
                workers,
                restart_backoff: Duration::from_millis(1),
                max_restart_backoff: Duration::from_millis(50),
            },
        )
    }

    /// Dropping an executor right after a job races its workers back to
    /// their park; a shutdown flag set outside the queue lock could slip
    /// between a worker's check and its wait and hang the join. Several
    /// threads churn executors at once so workers get preempted in that
    /// gap.
    #[test]
    fn drop_after_a_job_never_hangs() {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            std::thread::scope(|s| {
                for _ in 0..4 {
                    s.spawn(|| {
                        for _ in 0..2000 {
                            let pool = small_pool(2);
                            pool.run(Squares::new(40, 8), usize::MAX);
                        }
                    });
                }
            });
            let _ = tx.send(());
        });
        rx.recv_timeout(Duration::from_secs(60))
            .expect("an executor drop hung joining a worker that missed the shutdown wakeup");
    }

    #[test]
    fn results_match_the_serial_reference_at_any_worker_count() {
        for workers in [1, 2, 4, 8] {
            let pool = small_pool(workers);
            let job = Squares::new(333, 7);
            pool.run(Arc::clone(&job), usize::MAX);
            assert_eq!(job.results(), reference(333), "workers={workers}");
            assert_eq!(job.panicked.load(Ordering::SeqCst), 0);
            assert_eq!(
                job.inside.load(Ordering::SeqCst),
                0,
                "every participant left"
            );
        }
    }

    #[test]
    fn zero_chunk_job_returns_immediately() {
        let pool = small_pool(2);
        let job = Squares::new(0, 8);
        pool.run(Arc::clone(&job), usize::MAX);
        assert!(job.results().is_empty());
    }

    #[test]
    fn participation_cap_still_completes_the_job() {
        let pool = small_pool(8);
        let job = Squares::new(300, 5);
        pool.run(Arc::clone(&job), 1);
        assert_eq!(job.results(), reference(300));
        assert_eq!(job.most_inside.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn concurrent_submitters_share_the_executor() {
        let pool = Arc::new(small_pool(4));
        std::thread::scope(|s| {
            for _ in 0..6 {
                let pool = Arc::clone(&pool);
                s.spawn(move || {
                    for _ in 0..5 {
                        let job = Squares::new(256, 16);
                        pool.run(Arc::clone(&job), usize::MAX);
                        assert_eq!(job.results(), reference(256));
                    }
                });
            }
        });
    }

    #[test]
    fn executor_is_reusable_across_jobs() {
        let pool = small_pool(2);
        for n in [90, 1, 64, 500] {
            let job = Squares::new(n, 16);
            pool.run(Arc::clone(&job), usize::MAX);
            assert_eq!(job.results(), reference(n), "n={n}");
        }
        assert_eq!(pool.alive(), 2);
        assert_eq!(pool.restarts(), 0);
    }

    #[test]
    fn dead_pool_drains_on_the_submitter_and_supervision_respawns() {
        let pool = small_pool(3);
        // More chunks than workers: with chunks left over after every
        // worker dies, the submitter must observe the dead pool — which
        // happens-after the death accounting under the queue lock — and
        // drain the tail, so `deaths`/`alive` below are deterministic.
        let job = Squares::with_kill(64, 4, true);
        pool.run(Arc::clone(&job), usize::MAX);
        // Every chunk accounted for: each killed chunk reported to the
        // job, every other one drained by the submitter.
        let results = job.results();
        let killed = job.panicked.load(Ordering::SeqCst);
        assert_eq!(killed, 3, "each worker died on its first chunk");
        assert_eq!(results.iter().filter(|r| r.is_none()).count(), killed * 4);
        for (i, r) in results.iter().enumerate() {
            assert!(r.is_none() || *r == Some(i * i));
        }
        assert_eq!(pool.deaths(), 3);
        assert_eq!(pool.alive(), 0);
        // Supervision brings the pool back (backoff is 1 ms in tests)
        // and the next job is fully healthy.
        std::thread::sleep(Duration::from_millis(5));
        let job = Squares::new(100, 4);
        pool.run(Arc::clone(&job), usize::MAX);
        assert_eq!(job.results(), reference(100));
        assert!(pool.restarts() >= 3, "restarts={}", pool.restarts());
        assert_eq!(pool.alive(), 3);
    }
}
