//! Sharded, supervised fleet serving: crash isolation between models.
//!
//! Model names hash to shards ([`shard_of`]); each shard owns
//!
//! - a **tiered registry** ([`TieredRegistry`]): a warm LRU tier backed
//!   by a cold LRU tier — warm evictions demote instead of dropping,
//!   cold hits promote back, so a burst of new models doesn't instantly
//!   forget the fleet's working set;
//! - a **persistent worker pool** ([`crate::WorkerPool`]) with
//!   supervised restart;
//! - a **circuit breaker** ([`CircuitBreaker`]): repeated worker
//!   crashes flip the shard to `open`, where requests are refused
//!   immediately with `unavailable` + `retry_after_ms` instead of
//!   feeding a crash loop; after a cooldown one probe request
//!   (`half-open`) decides between closing and re-opening with a doubled
//!   cooldown;
//! - a **bounded queue** with depth-aware shedding: beyond
//!   `max_queue` concurrent jobs the shard sheds with an adaptive
//!   backoff hint ([`adaptive_retry_after_ms`]) that grows with how far
//!   past the budget the queue is;
//! - a **draining flag** for graceful shutdown (`drain` command): a
//!   draining shard refuses new evaluation work but finishes what it
//!   has.
//!
//! Everything a shard does is observable: per-shard counters and
//! per-shard copies of the request-stage histograms are registered on
//! the server's metrics registry under `shard{i}_…` names, which is how
//! the chaos harness and `bench_gate` read cross-shard interference
//! directly from stats.
//!
//! The per-point panic guard in [`crate::evaluate_batch`] already
//! isolates *point* failures; this layer isolates *model/worker*
//! failures (a model whose tape replay reliably dies, a poisoned
//! evaluator) to the shard that owns them.

use crate::batch::{BatchOutcome, BatchOutput};
use crate::error::ServeError;
use crate::pool::{PoolConfig, WorkerPool};
use crate::registry::{ModelRegistry, RegistryStats};
use crate::stats::STAGE_EDGES_NS;
use awesym_obs::{Counter, Histogram, Registry};
use awesym_partition::CompiledModel;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// FNV-1a over the model name: stable across runs and platforms, so a
/// client can predict (and tests can pin) name→shard placement.
fn fnv1a(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The shard that owns `name` in a fleet of `shards` shards.
pub fn shard_of(name: &str, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    (fnv1a(name) % shards as u64) as usize
}

/// Adaptive overload backoff: the configured base hint, scaled by how
/// far past its budget the queue is. At the budget boundary the hint is
/// exactly `base_ms` (so a lightly-loaded shed retries quickly); a queue
/// at 3x its budget hints 3x the base. Capped at 64x so a pathological
/// depth cannot tell clients to go away for minutes.
pub fn adaptive_retry_after_ms(base_ms: u64, depth: usize, budget: usize) -> u64 {
    let base = base_ms.max(1);
    if budget == 0 {
        return base;
    }
    let ratio = depth.div_ceil(budget).clamp(1, 64) as u64;
    base.saturating_mul(ratio)
}

pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------
// Tiered registry
// ---------------------------------------------------------------------

/// Counter snapshot of one shard's two registry tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct TieredStats {
    /// The warm tier's counters.
    pub warm: RegistryStats,
    /// The cold tier's counters.
    pub cold: RegistryStats,
    /// Cold-tier hits promoted back to warm.
    pub promotions: u64,
    /// Warm-tier evictions demoted to cold (instead of dropped).
    pub demotions: u64,
}

/// A warm LRU tier over a cold LRU tier. Lookups hit warm first; a cold
/// hit promotes the model back to warm (possibly demoting warm's LRU
/// entry). Only a cold-tier eviction actually forgets a model.
pub struct TieredRegistry {
    warm: ModelRegistry,
    cold: ModelRegistry,
    promotions: AtomicU64,
    demotions: AtomicU64,
}

impl TieredRegistry {
    /// A tiered registry with the given per-tier capacities (each min 1).
    pub fn new(warm_capacity: usize, cold_capacity: usize) -> Self {
        TieredRegistry {
            warm: ModelRegistry::new(warm_capacity),
            cold: ModelRegistry::new(cold_capacity),
            promotions: AtomicU64::new(0),
            demotions: AtomicU64::new(0),
        }
    }

    /// Inserts a model into the warm tier; a warm eviction demotes into
    /// cold. Returns the name of a model that fell out of the cold tier
    /// (i.e. was truly forgotten), if any.
    pub fn insert(&self, name: &str, model: CompiledModel) -> Option<String> {
        self.insert_arc(name, Arc::new(model))
    }

    /// [`TieredRegistry::insert`] for an already-shared model.
    pub fn insert_arc(&self, name: &str, model: Arc<CompiledModel>) -> Option<String> {
        // Replacing a name that sits in cold must not leave the stale
        // copy shadowed there.
        self.cold.take(name);
        let (demoted_name, demoted) = self.warm.insert_arc(name, model)?;
        self.demotions.fetch_add(1, Ordering::Relaxed);
        let (lost, _) = self.cold.insert_arc(&demoted_name, demoted)?;
        Some(lost)
    }

    /// Looks up a model: warm first, then cold (promoting a cold hit
    /// back to warm).
    pub fn get(&self, name: &str) -> Option<Arc<CompiledModel>> {
        if let Some(m) = self.warm.get(name) {
            return Some(m);
        }
        let model = self.cold.take(name)?;
        self.promotions.fetch_add(1, Ordering::Relaxed);
        if let Some((demoted_name, demoted)) = self.warm.insert_arc(name, Arc::clone(&model)) {
            self.demotions.fetch_add(1, Ordering::Relaxed);
            self.cold.insert_arc(&demoted_name, demoted);
        }
        Some(model)
    }

    /// Removes a model from both tiers; true when either held it.
    pub fn remove(&self, name: &str) -> bool {
        let warm = self.warm.remove(name);
        let cold = self.cold.remove(name);
        warm || cold
    }

    /// Resident model names across both tiers, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut v = self.warm.names();
        v.extend(self.cold.names());
        v.sort();
        v.dedup();
        v
    }

    /// Resident model count across both tiers.
    pub fn len(&self) -> usize {
        self.warm.len() + self.cold.len()
    }

    /// True when neither tier holds a model.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of both tiers' counters.
    pub fn stats(&self) -> TieredStats {
        TieredStats {
            warm: self.warm.stats(),
            cold: self.cold.stats(),
            promotions: self.promotions.load(Ordering::Relaxed),
            demotions: self.demotions.load(Ordering::Relaxed),
        }
    }
}

// ---------------------------------------------------------------------
// Circuit breaker
// ---------------------------------------------------------------------

/// Breaker tuning: how many consecutive crash-failures open it and how
/// long it stays open before probing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive failed jobs (worker deaths) that trip the breaker.
    pub threshold: u32,
    /// First open-state cooldown; doubles per consecutive re-open.
    pub cooldown: Duration,
    /// Cooldown ceiling.
    pub max_cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            threshold: 8,
            cooldown: Duration::from_millis(250),
            max_cooldown: Duration::from_secs(10),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerPhase {
    Closed,
    Open {
        until: Instant,
    },
    /// One probe request is in flight; its outcome decides the phase.
    HalfOpen {
        probing: bool,
    },
}

struct BreakerState {
    phase: BreakerPhase,
    consecutive_failures: u32,
    cooldown: Duration,
}

/// Per-shard circuit breaker over *worker-crash* failures (per-point
/// errors are already handled gracefully and do not count). States:
/// closed → open (after `threshold` consecutive crash-jobs) → half-open
/// (after the cooldown; one probe allowed) → closed on probe success or
/// back to open with a doubled, capped cooldown on probe failure.
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: Mutex<BreakerState>,
    opened_total: AtomicU64,
}

impl CircuitBreaker {
    /// A closed breaker with the given tuning.
    pub fn new(config: BreakerConfig) -> Self {
        CircuitBreaker {
            config,
            state: Mutex::new(BreakerState {
                phase: BreakerPhase::Closed,
                consecutive_failures: 0,
                cooldown: config.cooldown,
            }),
            opened_total: AtomicU64::new(0),
        }
    }

    /// Admits or refuses a request. `Err(retry_after_ms)` means the
    /// breaker is open (or another probe is already in flight).
    pub fn admit(&self) -> Result<(), u64> {
        let mut s = lock(&self.state);
        match s.phase {
            BreakerPhase::Closed => Ok(()),
            BreakerPhase::Open { until } => {
                let now = Instant::now();
                if now < until {
                    Err(until.saturating_duration_since(now).as_millis().max(1) as u64)
                } else {
                    s.phase = BreakerPhase::HalfOpen { probing: true };
                    Ok(())
                }
            }
            BreakerPhase::HalfOpen { probing: false } => {
                s.phase = BreakerPhase::HalfOpen { probing: true };
                Ok(())
            }
            BreakerPhase::HalfOpen { probing: true } => {
                // A probe is already deciding the shard's fate; don't
                // pile more requests onto a possibly-crashing pool.
                Err(s.cooldown.as_millis().max(1) as u64)
            }
        }
    }

    /// Reports an admitted request that completed without worker
    /// crashes.
    pub fn record_success(&self) {
        let mut s = lock(&self.state);
        s.consecutive_failures = 0;
        s.cooldown = self.config.cooldown;
        s.phase = BreakerPhase::Closed;
    }

    /// Reports an admitted request during which pool workers died.
    pub fn record_failure(&self) {
        let mut s = lock(&self.state);
        match s.phase {
            BreakerPhase::HalfOpen { .. } => {
                // Failed probe: straight back to open, doubled cooldown.
                s.cooldown = (s.cooldown * 2).min(self.config.max_cooldown);
                s.phase = BreakerPhase::Open {
                    until: Instant::now() + s.cooldown,
                };
                self.opened_total.fetch_add(1, Ordering::Relaxed);
            }
            BreakerPhase::Closed => {
                s.consecutive_failures += 1;
                if s.consecutive_failures >= self.config.threshold {
                    s.phase = BreakerPhase::Open {
                        until: Instant::now() + s.cooldown,
                    };
                    self.opened_total.fetch_add(1, Ordering::Relaxed);
                }
            }
            BreakerPhase::Open { .. } => {}
        }
    }

    /// The current phase as a stable wire string: `"closed"`, `"open"`,
    /// or `"half_open"`.
    pub fn phase_name(&self) -> &'static str {
        match lock(&self.state).phase {
            BreakerPhase::Closed => "closed",
            BreakerPhase::Open { until } if Instant::now() < until => "open",
            // An expired open is one admit() away from half-open.
            BreakerPhase::Open { .. } | BreakerPhase::HalfOpen { .. } => "half_open",
        }
    }

    /// Times the breaker transitioned into open.
    pub fn opened_total(&self) -> u64 {
        self.opened_total.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------
// Shard
// ---------------------------------------------------------------------

/// Per-shard tuning, derived from the server config.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    /// Warm-tier model capacity.
    pub warm_capacity: usize,
    /// Cold-tier model capacity.
    pub cold_capacity: usize,
    /// Concurrent jobs (queued + running) before depth-aware shedding;
    /// 0 disables the bound.
    pub max_queue: usize,
    /// Base overload backoff hint, scaled by queue depth.
    pub retry_after_ms: u64,
    /// Pool workers per shard and their restart backoff.
    pub pool: PoolConfig,
    /// Circuit-breaker tuning.
    pub breaker: BreakerConfig,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            warm_capacity: 16,
            cold_capacity: 64,
            pool: PoolConfig::default(),
            max_queue: 64,
            retry_after_ms: 50,
            breaker: BreakerConfig::default(),
        }
    }
}

/// Per-shard metrics, registered on the server's obs registry under
/// `shard{i}_…` names — including a per-shard copy of every request
/// stage histogram, so cross-shard interference is readable straight
/// from stats.
pub(crate) struct ShardMetrics {
    pub(crate) requests: Arc<Counter>,
    pub(crate) errors: Arc<Counter>,
    pub(crate) shed: Arc<Counter>,
    pub(crate) unavailable: Arc<Counter>,
    pub(crate) restarts: Arc<Counter>,
    pub(crate) worker_deaths: Arc<Counter>,
    pub(crate) breaker_opened: Arc<Counter>,
    pub(crate) latency_us: Arc<Histogram>,
    pub(crate) stages: [Arc<Histogram>; 5],
}

impl ShardMetrics {
    fn new(registry: &Registry, shard: usize) -> Self {
        let c = |name: &str| registry.counter(&format!("shard{shard}_{name}"));
        let stages = crate::stats::STAGES.map(|s| {
            registry.histogram(
                &format!("shard{shard}_request_stage_{}_ns", s.as_str()),
                &STAGE_EDGES_NS,
            )
        });
        ShardMetrics {
            requests: c("requests_total"),
            errors: c("request_errors_total"),
            shed: c("requests_shed_total"),
            unavailable: c("requests_unavailable_total"),
            restarts: c("worker_restarts_total"),
            worker_deaths: c("worker_deaths_total"),
            breaker_opened: c("breaker_opened_total"),
            latency_us: registry.histogram(
                &format!("shard{shard}_request_latency_us"),
                &crate::stats::BUCKET_EDGES_US,
            ),
            stages,
        }
    }
}

/// Health summary of one shard (the `health` command's per-shard row).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ShardHealth {
    /// Shard index.
    pub shard: u64,
    /// Breaker phase: `closed`, `open`, `half_open`.
    pub breaker: String,
    /// Configured pool workers.
    pub workers: u64,
    /// Pool workers currently alive.
    pub alive: u64,
    /// Supervisor-driven worker restarts.
    pub restarts: u64,
    /// Worker threads that died.
    pub worker_deaths: u64,
    /// Times the breaker opened.
    pub breaker_opened: u64,
    /// Jobs queued or running right now.
    pub queue_depth: u64,
    /// Draining for shutdown?
    pub draining: bool,
    /// Models resident (both tiers).
    pub models: u64,
}

/// One shard: tiered registry + supervised pool + breaker + bounded
/// queue. See the module docs for the full design.
pub struct Shard {
    id: usize,
    config: ShardConfig,
    registry: TieredRegistry,
    pool: WorkerPool,
    breaker: CircuitBreaker,
    queue_depth: AtomicUsize,
    draining: AtomicBool,
    pub(crate) metrics: ShardMetrics,
}

impl Shard {
    /// Builds shard `id`, registering its metrics on `registry`.
    pub fn new(id: usize, config: ShardConfig, registry: &Registry) -> Self {
        Shard {
            id,
            config,
            registry: TieredRegistry::new(config.warm_capacity, config.cold_capacity),
            pool: WorkerPool::new(id, config.pool),
            breaker: CircuitBreaker::new(config.breaker),
            queue_depth: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
            metrics: ShardMetrics::new(registry, id),
        }
    }

    /// This shard's index.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The shard's model registry.
    pub fn registry(&self) -> &TieredRegistry {
        &self.registry
    }

    /// The shard's worker pool (restart counters, liveness).
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// The shard's circuit breaker.
    pub fn breaker(&self) -> &CircuitBreaker {
        &self.breaker
    }

    /// Starts refusing new evaluation work (in-flight jobs finish).
    pub fn drain(&self) {
        self.draining.store(true, Ordering::Relaxed);
    }

    /// True when the shard is draining.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Relaxed)
    }

    /// Jobs queued or running right now.
    pub fn queue_depth(&self) -> usize {
        self.queue_depth.load(Ordering::Relaxed)
    }

    /// Admission control shared by every evaluation-class request bound
    /// for this shard: draining and breaker checks, then the bounded
    /// queue. On success the queue depth has been taken; release it via
    /// the returned guard going out of scope.
    fn admit(&self) -> Result<DepthGuard<'_>, ServeError> {
        if self.is_draining() {
            self.metrics.unavailable.inc();
            return Err(ServeError::Unavailable {
                shard: self.id as u64,
                reason: "draining".to_string(),
                retry_after_ms: self.config.retry_after_ms,
            });
        }
        if let Err(retry_after_ms) = self.breaker.admit() {
            self.metrics.unavailable.inc();
            return Err(ServeError::Unavailable {
                shard: self.id as u64,
                reason: "circuit breaker open".to_string(),
                retry_after_ms,
            });
        }
        let depth = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        if self.config.max_queue > 0 && depth > self.config.max_queue {
            self.queue_depth.fetch_sub(1, Ordering::Relaxed);
            self.metrics.shed.inc();
            return Err(ServeError::Overloaded {
                inflight: depth as u64,
                max_inflight: self.config.max_queue as u64,
                retry_after_ms: adaptive_retry_after_ms(
                    self.config.retry_after_ms,
                    depth,
                    self.config.max_queue,
                ),
            });
        }
        Ok(DepthGuard { shard: self })
    }

    /// Evaluates a batch on this shard's pool, with admission control
    /// and breaker accounting. The model must already be resolved (the
    /// caller counts lookup time separately).
    pub fn evaluate(
        &self,
        model: Arc<CompiledModel>,
        points: Arc<Vec<Vec<f64>>>,
        output: BatchOutput,
        deadline: Option<Instant>,
        max_workers: Option<usize>,
    ) -> Result<BatchOutcome, ServeError> {
        let _depth = self.admit()?;
        let deaths_before = self.pool.executor().deaths();
        let restarts_before = self.pool.executor().restarts();
        let outcome = self
            .pool
            .run_batch(model, points, output, deadline, max_workers);
        let deaths = self.pool.executor().deaths() - deaths_before;
        let restarts = self.pool.executor().restarts() - restarts_before;
        if restarts > 0 {
            self.metrics.restarts.add(restarts);
        }
        if deaths > 0 {
            self.metrics.worker_deaths.add(deaths);
            let opened_before = self.breaker.opened_total();
            self.breaker.record_failure();
            if self.breaker.opened_total() > opened_before {
                self.metrics.breaker_opened.inc();
            }
        } else {
            self.breaker.record_success();
        }
        Ok(outcome)
    }

    /// One supervision pass on the pool (also run implicitly on every
    /// submission); returns workers respawned.
    pub fn supervise(&self) -> usize {
        let respawned = self.pool.executor().supervise();
        if respawned > 0 {
            self.metrics.restarts.add(respawned as u64);
        }
        respawned
    }

    /// Health snapshot for the `health` command.
    pub fn health(&self) -> ShardHealth {
        ShardHealth {
            shard: self.id as u64,
            breaker: self.breaker.phase_name().to_string(),
            workers: self.pool.executor().workers() as u64,
            alive: self.pool.executor().alive() as u64,
            restarts: self.pool.executor().restarts(),
            worker_deaths: self.pool.executor().deaths(),
            breaker_opened: self.breaker.opened_total(),
            queue_depth: self.queue_depth() as u64,
            draining: self.is_draining(),
            models: self.registry.len() as u64,
        }
    }

    /// Ready to take traffic: breaker closed, not draining, pool fully
    /// alive (after a supervision pass).
    pub fn is_ready(&self) -> bool {
        self.supervise();
        !self.is_draining()
            && self.breaker.phase_name() == "closed"
            && self.pool.executor().alive() >= self.pool.executor().workers()
    }
}

/// RAII release of one unit of shard queue depth.
struct DepthGuard<'a> {
    shard: &'a Shard,
}

impl Drop for DepthGuard<'_> {
    fn drop(&mut self) {
        self.shard.queue_depth.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use awesym_circuit::generators::fig1_rc;
    use awesym_partition::SymbolBinding;

    fn tiny_model() -> CompiledModel {
        let w = fig1_rc(1e-3, 2e-3, 1e-9, 3e-9);
        let c = &w.circuit;
        let bindings = [
            SymbolBinding::capacitance("c1", vec![c.find("C1").unwrap()]),
            SymbolBinding::resistance("r2", vec![c.find("R2").unwrap()]),
        ];
        CompiledModel::build(c, w.input, w.output, &bindings, 2).unwrap()
    }

    #[test]
    fn shard_placement_is_stable_and_covers_all_shards() {
        assert_eq!(shard_of("anything", 1), 0);
        // Pinned: placement is part of the observable contract (clients
        // may pre-shard); a hash change must be a conscious decision.
        assert_eq!(shard_of("opamp741", 4), shard_of("opamp741", 4));
        let mut seen = [false; 4];
        for i in 0..64 {
            seen[shard_of(&format!("model-{i}"), 4)] = true;
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
    }

    #[test]
    fn adaptive_hint_grows_with_depth_and_respects_base() {
        // At (or under) the budget boundary the hint is the base — the
        // contract the server's legacy shed test pins at 77 ms.
        assert_eq!(adaptive_retry_after_ms(50, 1, 4), 50);
        assert_eq!(adaptive_retry_after_ms(50, 4, 4), 50);
        // Deeper queues hint longer, monotonically.
        let hints: Vec<u64> = [4, 8, 9, 16, 64, 256]
            .iter()
            .map(|&d| adaptive_retry_after_ms(50, d, 4))
            .collect();
        assert_eq!(hints, [50, 100, 150, 200, 800, 3200]);
        for w in hints.windows(2) {
            assert!(w[0] <= w[1], "{hints:?}");
        }
        // Capped at 64x, zero-budget and zero-base degenerate sanely.
        assert_eq!(adaptive_retry_after_ms(50, 1_000_000, 4), 50 * 64);
        assert_eq!(adaptive_retry_after_ms(50, 10, 0), 50);
        assert_eq!(adaptive_retry_after_ms(0, 10, 2), 5);
    }

    #[test]
    fn tiered_registry_demotes_and_promotes() {
        let reg = TieredRegistry::new(2, 2);
        reg.insert("a", tiny_model());
        reg.insert("b", tiny_model());
        assert!(reg.insert("c", tiny_model()).is_none(), "demoted, not lost");
        // "a" was LRU in warm → demoted to cold; still findable.
        assert_eq!(reg.names(), ["a", "b", "c"]);
        assert_eq!(reg.stats().demotions, 1);
        assert!(reg.get("a").is_some(), "cold hit");
        let s = reg.stats();
        assert_eq!(s.promotions, 1);
        assert_eq!(s.demotions, 2, "promotion demoted warm's LRU");
        // Overflowing both tiers finally forgets the oldest.
        reg.insert("d", tiny_model());
        reg.insert("e", tiny_model());
        let lost = reg.insert("f", tiny_model());
        assert!(lost.is_some());
        assert_eq!(reg.len(), 4);
        assert!(reg.remove("f"));
        assert!(!reg.remove("f"));
    }

    #[test]
    fn tiered_insert_replaces_cold_shadow() {
        let reg = TieredRegistry::new(1, 2);
        reg.insert("a", tiny_model());
        reg.insert("b", tiny_model()); // "a" demoted to cold
        let first = reg.get("b").unwrap();
        // Re-inserting "a" must not leave a stale cold copy shadowed.
        reg.insert("a", tiny_model());
        let again = reg.get("a").unwrap();
        assert!(!Arc::ptr_eq(&first, &again));
        assert_eq!(reg.names(), ["a", "b"]);
    }

    #[test]
    fn breaker_walks_closed_open_half_open() {
        let b = CircuitBreaker::new(BreakerConfig {
            threshold: 2,
            cooldown: Duration::from_millis(20),
            max_cooldown: Duration::from_millis(100),
        });
        assert_eq!(b.phase_name(), "closed");
        assert!(b.admit().is_ok());
        b.record_failure();
        assert_eq!(b.phase_name(), "closed", "one failure under threshold");
        b.record_failure();
        assert_eq!(b.phase_name(), "open");
        assert_eq!(b.opened_total(), 1);
        let retry = b.admit().unwrap_err();
        assert!((1..=20).contains(&retry), "{retry}");
        std::thread::sleep(Duration::from_millis(25));
        // Cooldown over: one probe admitted, a second refused.
        assert!(b.admit().is_ok());
        assert!(b.admit().is_err());
        // Failed probe → open again with doubled cooldown.
        b.record_failure();
        assert_eq!(b.phase_name(), "open");
        assert_eq!(b.opened_total(), 2);
        std::thread::sleep(Duration::from_millis(45));
        assert!(b.admit().is_ok());
        b.record_success();
        assert_eq!(b.phase_name(), "closed");
        assert!(b.admit().is_ok());
    }

    #[test]
    fn shard_sheds_beyond_queue_budget_with_adaptive_hint() {
        let obs = Registry::new();
        let shard = Shard::new(
            0,
            ShardConfig {
                max_queue: 1,
                pool: PoolConfig {
                    workers: 1,
                    ..PoolConfig::default()
                },
                retry_after_ms: 30,
                ..ShardConfig::default()
            },
            &obs,
        );
        // Hold the single queue slot, then watch the next admit shed.
        let guard = shard.admit().unwrap();
        match shard.admit() {
            Err(ServeError::Overloaded {
                retry_after_ms,
                inflight,
                max_inflight,
            }) => {
                assert_eq!((inflight, max_inflight), (2, 1));
                assert_eq!(retry_after_ms, 60, "2x budget → 2x base hint");
            }
            Err(other) => panic!("expected Overloaded, got {other:?}"),
            Ok(_) => panic!("expected Overloaded, got admission"),
        }
        drop(guard);
        assert_eq!(shard.queue_depth(), 0);
        assert!(shard.admit().is_ok());
    }

    #[test]
    fn draining_shard_refuses_with_unavailable() {
        let obs = Registry::new();
        let shard = Shard::new(0, ShardConfig::default(), &obs);
        assert!(shard.is_ready());
        shard.drain();
        assert!(!shard.is_ready());
        match shard.evaluate(
            Arc::new(tiny_model()),
            Arc::new(vec![vec![1e-9, 1e3]]),
            BatchOutput::Moments,
            None,
            None,
        ) {
            Err(ServeError::Unavailable { reason, .. }) => assert_eq!(reason, "draining"),
            other => panic!("expected Unavailable, got {other:?}"),
        }
        let health = shard.health();
        assert!(health.draining);
        assert_eq!(health.breaker, "closed");
    }

    #[test]
    fn healthy_shard_evaluates_and_reports() {
        let obs = Registry::new();
        let shard = Shard::new(
            3,
            ShardConfig {
                pool: PoolConfig {
                    workers: 2,
                    ..PoolConfig::default()
                },
                ..ShardConfig::default()
            },
            &obs,
        );
        shard.registry().insert("m", tiny_model());
        let model = shard.registry().get("m").unwrap();
        let out = shard
            .evaluate(
                model,
                Arc::new(vec![vec![1e-9, 1e3], vec![2e-9, 2e3]]),
                BatchOutput::Moments,
                None,
                None,
            )
            .unwrap();
        assert_eq!(out.results.len(), 2);
        assert!(out.results.iter().all(Result::is_ok));
        let health = shard.health();
        assert_eq!(health.shard, 3);
        assert_eq!(health.models, 1);
        assert_eq!(health.worker_deaths, 0);
        assert_eq!(health.queue_depth, 0);
        // Per-shard metrics registered under the shard{i}_ prefix.
        assert!(obs
            .to_ndjson()
            .contains("\"metric\":\"shard3_requests_total\""));
    }
}
