//! Streaming Monte Carlo engine: a job on the supervised
//! [`Executor`] that drives a compiled task's batch evaluator through
//! fixed-size sample blocks and folds every block into
//! merge-order-invariant online accumulators.
//!
//! ## Determinism contract
//!
//! Three properties combine so a run's report is **bit-identical at any
//! worker count**:
//!
//! 1. each block's samples come from a [`BlockRng`](crate::sample::BlockRng)
//!    keyed only by `(seed, block_index)` — never by thread identity;
//! 2. blocks are the executor's chunks, claimed whole from its atomic
//!    frontier (coarse work-stealing), so a block's *contents* do not
//!    depend on who runs it;
//! 3. the per-participant [`YieldAccumulator`]s are merge-order and
//!    merge-count invariant (see `accum`): integer counters commute
//!    exactly, and floating-point Welford partials are folded in
//!    canonical block order at the end.
//!
//! Memory is O(blocks) for the Welford partials plus O(block_size) scratch
//! per worker — no per-sample vector is ever materialized, so a 10⁷-sample
//! run costs the same resident memory as a 10⁴-sample one.
//!
//! ## Execution
//!
//! Threads spawn once in [`McEngine::new`] (an [`Executor`], the same
//! supervised executor that serves batches); each [`McEngine::run`]
//! submits one job and waits for it. A thread that takes part in the job
//! builds a [`BlockWorker`] (evaluators + scratch) and a
//! [`YieldAccumulator`], claims blocks until none are left, and deposits
//! its accumulator as it leaves; `run` merges the deposits. A block that
//! panics is re-raised on the caller of `run` once every block is
//! accounted for, and supervision replaces the thread it retired.

use crate::accum::{QuantileGrid, Summary, YieldAccumulator};
use awesym_obs::exec::{Executor, Job, PoolConfig};
use awesym_obs::Registry;
use std::any::Any;
use std::sync::mpsc::{self, Sender};
use std::sync::Arc;
use std::time::Instant;

/// One unit of work: which block, how many samples it holds, and the run
/// seed. Fully determines the block's sample stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockSpec {
    /// Block index within the run (keys the RNG stream).
    pub index: u64,
    /// Samples in this block (the final block may be short).
    pub count: usize,
    /// The run seed.
    pub seed: u64,
}

/// Per-thread execution state for a task: owns evaluators and scratch,
/// turns a [`BlockSpec`] into that block's sample values.
pub trait BlockWorker {
    /// Fills `out` with the block's `count` sample values. Invalid samples
    /// are represented as NaN (or any non-finite / non-positive value) —
    /// the accumulator counts and excludes them.
    fn run_block(&mut self, block: BlockSpec, out: &mut Vec<f64>);
}

/// A compiled Monte Carlo task: something that can mint per-thread
/// workers borrowing its compiled artifacts.
pub trait McTask: Send + Sync {
    /// The per-thread worker, borrowing evaluators from `self`.
    type Worker<'a>: BlockWorker
    where
        Self: 'a;
    /// Builds one worker. Called once per thread taking part in a run;
    /// the worker serves every block that thread claims.
    fn make_worker(&self) -> Self::Worker<'_>;
}

/// Run parameters for one Monte Carlo job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McConfig {
    /// Total samples to draw.
    pub samples: u64,
    /// Samples per block. Larger blocks amortize tape dispatch; smaller
    /// blocks steal more evenly. 4096 is a good default for tapes in the
    /// 10²–10³ op range.
    pub block_size: usize,
    /// Run seed.
    pub seed: u64,
    /// Pass/fail deadline for the yield counter (same unit as the sample
    /// values, i.e. seconds for delay tasks). `None` disables yield.
    pub deadline: Option<f64>,
    /// Quantile histogram grid.
    pub grid: QuantileGrid,
}

impl McConfig {
    /// Default block size (see [`McConfig::block_size`]).
    pub const DEFAULT_BLOCK: usize = 4096;

    /// A config with the default block size and no deadline.
    pub fn new(samples: u64, seed: u64, grid: QuantileGrid) -> Self {
        McConfig {
            samples,
            block_size: Self::DEFAULT_BLOCK,
            seed,
            deadline: None,
            grid,
        }
    }

    /// Sets the deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: f64) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the block size.
    ///
    /// # Panics
    ///
    /// Panics when `block_size == 0`.
    #[must_use]
    pub fn with_block_size(mut self, block_size: usize) -> Self {
        assert!(block_size > 0, "block size must be positive");
        self.block_size = block_size;
        self
    }
}

/// A finished run: the statistical [`Summary`] plus throughput facts.
#[derive(Debug, Clone, PartialEq)]
pub struct McReport {
    /// Merged online statistics.
    pub summary: Summary,
    /// Wall-clock seconds for the job (excludes compile time).
    pub wall_secs: f64,
    /// Samples per wall-clock second.
    pub samples_per_sec: f64,
    /// Worker threads in the engine.
    pub workers: usize,
}

/// Persistent-pool streaming Monte Carlo engine over a compiled task.
///
/// Spawns its worker threads once at construction; [`McEngine::run`] can
/// then be called any number of times (e.g. a benchmark's repetitions)
/// without paying thread setup again. Dropping the engine shuts the
/// threads down.
pub struct McEngine<T: McTask + 'static> {
    task: Arc<T>,
    exec: Executor,
    metrics: Arc<EngineMetrics>,
}

/// The engine's observability surface (all registered on the caller's
/// [`Registry`]).
struct EngineMetrics {
    blocks: Arc<awesym_obs::Counter>,
    samples: Arc<awesym_obs::Counter>,
    merges: Arc<awesym_obs::Counter>,
    block_ns: Arc<awesym_obs::Histogram>,
    samples_per_sec: Arc<awesym_obs::Gauge>,
}

/// Block-latency histogram edges: 1 µs … 100 ms in decade-ish steps.
const BLOCK_NS_EDGES: &[u64] = &[1_000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000];

/// One run as an executor job: blocks are chunks, and every participant
/// deposits its accumulator on leaving.
struct McJob<T: McTask + 'static> {
    task: Arc<T>,
    cfg: McConfig,
    metrics: Arc<EngineMetrics>,
    /// Accumulators deposited by participants as they leave.
    deposits: Sender<YieldAccumulator>,
    /// Block panics, the first of which `run` re-raises on its caller.
    panics: Sender<Box<dyn Any + Send>>,
}

/// One thread's share of a run.
struct McParticipant<W> {
    worker: W,
    acc: YieldAccumulator,
    buf: Vec<f64>,
}

impl<T: McTask + 'static> Job for McJob<T> {
    type Participant<'a> = McParticipant<T::Worker<'a>>;

    fn chunks(&self) -> usize {
        let blocks = self.cfg.samples.div_ceil(self.cfg.block_size as u64);
        usize::try_from(blocks).expect("block count fits in usize")
    }

    fn join(&self, _pooled: bool) -> Self::Participant<'_> {
        McParticipant {
            worker: self.task.make_worker(),
            acc: YieldAccumulator::new(self.cfg.grid, self.cfg.deadline),
            buf: Vec::new(),
        }
    }

    fn run_chunk(&self, p: &mut Self::Participant<'_>, chunk: usize) {
        let cfg = &self.cfg;
        let b = chunk as u64;
        let remaining = cfg.samples - b * cfg.block_size as u64;
        let count = (cfg.block_size as u64).min(remaining) as usize;
        let t0 = Instant::now();
        p.worker.run_block(
            BlockSpec {
                index: b,
                count,
                seed: cfg.seed,
            },
            &mut p.buf,
        );
        debug_assert_eq!(p.buf.len(), count, "worker filled the block");
        p.acc.push_block(b, &p.buf);
        self.metrics
            .block_ns
            .observe(t0.elapsed().as_nanos() as u64);
        self.metrics.blocks.inc();
        self.metrics.samples.add(count as u64);
    }

    fn chunk_panicked(&self, _chunk: usize, payload: Box<dyn Any + Send>) {
        // `run` holds the receivers until the job completes.
        let _ = self.panics.send(payload);
    }

    fn leave(&self, p: Self::Participant<'_>) {
        let _ = self.deposits.send(p.acc);
    }
}

impl<T: McTask + 'static> McEngine<T> {
    /// Spawns `workers` threads over `task`. Each thread builds its
    /// [`BlockWorker`] when it takes part in a run.
    ///
    /// Metrics (`mc_blocks_total`, `mc_samples_total`, `mc_merges_total`,
    /// `mc_block_ns`, `mc_samples_per_sec`) register on `registry`.
    ///
    /// # Panics
    ///
    /// Panics when `workers == 0`.
    pub fn new(task: Arc<T>, workers: usize, registry: &Registry) -> Self {
        assert!(workers > 0, "engine needs at least one worker");
        let metrics = Arc::new(EngineMetrics {
            blocks: registry.counter("mc_blocks_total"),
            samples: registry.counter("mc_samples_total"),
            merges: registry.counter("mc_merges_total"),
            block_ns: registry.histogram("mc_block_ns", BLOCK_NS_EDGES),
            samples_per_sec: registry.gauge("mc_samples_per_sec"),
        });
        McEngine {
            task,
            exec: Executor::new(
                "awesym-mc",
                PoolConfig {
                    workers,
                    ..PoolConfig::default()
                },
            ),
            metrics,
        }
    }

    /// Runs one Monte Carlo job to completion and returns the merged
    /// report. Blocks the calling thread; the pool does the work.
    ///
    /// # Panics
    ///
    /// Re-raises the first panic of a [`BlockWorker`], once every block
    /// is accounted for. The engine stays usable.
    pub fn run(&self, cfg: &McConfig) -> McReport {
        assert!(cfg.block_size > 0, "block size must be positive");
        let t0 = Instant::now();
        let (deposits, deposited) = mpsc::channel();
        let (panics, panicked) = mpsc::channel();
        let job = McJob {
            task: Arc::clone(&self.task),
            cfg: *cfg,
            metrics: Arc::clone(&self.metrics),
            deposits,
            panics,
        };
        self.exec.run(Arc::new(job), usize::MAX);
        if let Ok(payload) = panicked.try_recv() {
            std::panic::resume_unwind(payload);
        }
        // Deterministic merge: deposit order and count vary run to run,
        // but the accumulator's merge is order- and count-invariant by
        // construction, so any schedule yields bit-identical results.
        let mut acc = YieldAccumulator::new(cfg.grid, cfg.deadline);
        for other in deposited.try_iter() {
            acc.merge(&other);
            self.metrics.merges.inc();
        }
        let summary = acc.finish();
        let wall_secs = t0.elapsed().as_secs_f64();
        let samples_per_sec = if wall_secs > 0.0 {
            summary.samples as f64 / wall_secs
        } else {
            0.0
        };
        self.metrics.samples_per_sec.set(samples_per_sec as i64);
        McReport {
            summary,
            wall_secs,
            samples_per_sec,
            workers: self.exec.workers(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cheap analytic task: sample value = log-normal(0.2) around 1.0.
    /// Fast enough to run big sample counts in debug tests.
    struct LogNormalTask;

    struct LnWorker;

    impl BlockWorker for LnWorker {
        fn run_block(&mut self, block: BlockSpec, out: &mut Vec<f64>) {
            let mut rng = crate::sample::BlockRng::new(block.seed, block.index);
            out.clear();
            out.extend((0..block.count).map(|_| rng.log_normal(0.2)));
        }
    }

    impl McTask for LogNormalTask {
        type Worker<'a> = LnWorker;
        fn make_worker(&self) -> LnWorker {
            LnWorker
        }
    }

    fn grid() -> QuantileGrid {
        QuantileGrid::around(1.0, 64.0, 512)
    }

    fn run_with(workers: usize, samples: u64) -> McReport {
        let reg = Registry::new();
        let engine = McEngine::new(Arc::new(LogNormalTask), workers, &reg);
        let cfg = McConfig::new(samples, 0xD00D, grid())
            .with_block_size(512)
            .with_deadline(1.5);
        engine.run(&cfg)
    }

    #[test]
    fn bit_identical_across_worker_counts() {
        let base = run_with(1, 20_000);
        for workers in [2, 4, 8] {
            let r = run_with(workers, 20_000);
            assert_eq!(r.summary, base.summary, "workers={workers}");
        }
    }

    #[test]
    fn statistics_are_sane() {
        let r = run_with(4, 50_000);
        let s = &r.summary;
        assert_eq!(s.samples, 50_000);
        assert_eq!(s.invalid, 0);
        // log-normal(σ=0.2): median 1, mean exp(σ²/2) ≈ 1.0202.
        assert!((s.mean - 1.0202).abs() < 0.01, "mean {}", s.mean);
        let (p50, p95, p997) = (s.p50.unwrap(), s.p95.unwrap(), s.p997.unwrap());
        assert!((p50 - 1.0).abs() < 0.02, "p50 {p50}");
        assert!(p95 > p50 && p997 > p95);
        // P(x ≤ 1.5) = Φ(ln1.5/0.2) = Φ(2.027) ≈ 0.9787.
        let y = s.yield_fraction.unwrap();
        assert!((y - 0.9787).abs() < 0.01, "yield {y}");
        assert!(r.samples_per_sec > 0.0);
    }

    #[test]
    fn engine_is_reusable_across_jobs() {
        let reg = Registry::new();
        let engine = McEngine::new(Arc::new(LogNormalTask), 3, &reg);
        let cfg = McConfig::new(5_000, 7, grid()).with_block_size(256);
        let a = engine.run(&cfg);
        let b = engine.run(&cfg);
        assert_eq!(a.summary, b.summary);
        let c = engine.run(&McConfig::new(5_000, 8, grid()).with_block_size(256));
        assert_ne!(c.summary.mean, a.summary.mean);
        assert_eq!(reg.counter("mc_blocks_total").get(), 60);
        assert_eq!(reg.counter("mc_samples_total").get(), 15_000);
    }

    #[test]
    fn short_final_block_is_exact() {
        let r = run_with(1, 1_025); // 2 full 512-blocks + 1-sample tail
        assert_eq!(r.summary.samples, 1_025);
        assert_eq!(r.summary.blocks, 3);
    }

    #[test]
    fn invalid_samples_are_counted_not_propagated() {
        struct NanTask;
        struct NanWorker;
        impl BlockWorker for NanWorker {
            fn run_block(&mut self, block: BlockSpec, out: &mut Vec<f64>) {
                out.clear();
                out.extend((0..block.count).map(|j| {
                    if j % 10 == 0 {
                        f64::NAN
                    } else {
                        1.0 + j as f64 * 1e-6
                    }
                }));
            }
        }
        impl McTask for NanTask {
            type Worker<'a> = NanWorker;
            fn make_worker(&self) -> NanWorker {
                NanWorker
            }
        }
        let reg = Registry::new();
        let engine = McEngine::new(Arc::new(NanTask), 2, &reg);
        let r = engine.run(&McConfig::new(1_000, 1, grid()).with_block_size(100));
        assert_eq!(r.summary.samples, 1_000);
        assert_eq!(r.summary.invalid, 100);
        assert_eq!(r.summary.valid, 900);
        assert!(r.summary.mean.is_finite());
    }
}
