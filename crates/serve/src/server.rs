//! Newline-delimited-JSON request engine.
//!
//! One request per line in, one JSON response per line out — the
//! transport-agnostic core behind `awesym serve`. Commands:
//!
//! | command    | action |
//! |------------|--------|
//! | `load`     | read a `.awesym` artifact (or raw model JSON) into the registry |
//! | `compile`  | parse a netlist, build a compiled model, register it |
//! | `save`     | write a registered model back out as an artifact |
//! | `eval`     | evaluate one point against a registered model |
//! | `batch`    | evaluate many points concurrently |
//! | `stats`    | report request/latency/throughput/registry counters |
//! | `health`   | readiness probe: per-shard breaker/worker/queue state |
//! | `drain`    | stop admitting evaluation work (graceful shutdown) |
//! | `shutdown` | acknowledge and stop the serve loop |
//!
//! Every response carries `"ok"`; failures report `{"ok":false,
//! "error":"…","code":"…"}` — a stable machine-readable
//! [`ErrorCode`](crate::ErrorCode) alongside the prose — and never kill
//! the loop. An optional request `"id"` is echoed back for client-side
//! correlation.
//!
//! The server is fault-tolerant by construction (see
//! `docs/robustness.md`): per-point panics are isolated by the batch
//! engine, requests carry deadlines (`"deadline_ms"` per request or a
//! [`ServerConfig`] default), oversized lines and batches are rejected
//! before any work happens, non-finite symbol values are refused, and an
//! in-flight budget sheds excess load with an `overloaded` error and a
//! depth-scaled `retry_after_ms` hint instead of queueing without bound.
//!
//! Model state and evaluation are **sharded** (see `docs/serving.md`):
//! the model name hashes to one of [`ServerConfig::shards`] shards
//! ([`crate::shard_of`]), each owning a tiered registry, a persistent
//! supervised worker pool, and a circuit breaker — so a crash-looping
//! model degrades *its* shard to `unavailable` while every other shard
//! keeps serving.

use crate::batch::BatchOutput;
use crate::encode::{self, BatchBody, ResponseBody, WireEncoding};
use crate::registry::RegistryStats;
use crate::request::{self, BatchRequest, Command, CompileRequest, NetlistSource, Request};
use crate::shard::{adaptive_retry_after_ms, shard_of, Shard, ShardConfig};
use crate::stats::{ServerStats, Stage, STAGES};
use crate::{artifact, resolve, ServeError};
use awesym_obs::{now_ns, Tracer};
use awesym_partition::CompiledModel;
use serde::Content;
use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default registry capacity for a server.
pub const DEFAULT_CAPACITY: usize = 16;

/// Operational limits and fault-tolerance knobs for a [`Server`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Registry capacity (models held before LRU eviction).
    pub capacity: usize,
    /// Largest accepted `batch` request, in points.
    pub max_batch_points: usize,
    /// Largest accepted request line, in bytes (guards the JSON parser).
    pub max_line_bytes: usize,
    /// Default evaluation deadline applied to `eval`/`batch` requests;
    /// `None` means no deadline unless the request carries
    /// `"deadline_ms"`.
    pub deadline_ms: Option<u64>,
    /// Heavy requests (`eval`, `batch`, `compile`) allowed in flight at
    /// once; `0` means unlimited. Excess requests are shed with an
    /// `overloaded` error instead of queueing.
    pub max_inflight: usize,
    /// Backoff hint returned with `overloaded` errors.
    pub retry_after_ms: u64,
    /// Observe per-stage request timing (clock reads, stage histograms,
    /// stage spans). On by default; turning it off removes every
    /// per-request clock read except the latency counter — the benches
    /// flip this to measure the observability layer's own overhead.
    pub observe: bool,
    /// Emit one NDJSON stats line to the stats sink every `N` handled
    /// requests during [`Server::serve_with_stats`]; `0` disables.
    pub stats_every: u64,
    /// Shards the model fleet is split across (min 1). Each shard owns a
    /// tiered registry, a persistent worker pool, and a circuit breaker;
    /// models are placed by [`crate::shard_of`] over the model name.
    pub shards: usize,
    /// Worker threads per shard pool; `0` picks the parallelism default.
    pub shard_workers: usize,
    /// Concurrent evaluation jobs a shard accepts (queued + running)
    /// before shedding with a depth-scaled retry hint; `0` disables the
    /// per-shard bound.
    pub shard_queue: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            capacity: DEFAULT_CAPACITY,
            max_batch_points: 1 << 20,
            max_line_bytes: 64 << 20,
            deadline_ms: None,
            max_inflight: 0,
            retry_after_ms: 50,
            observe: true,
            stats_every: 0,
            shards: 1,
            shard_workers: 0,
            shard_queue: 64,
        }
    }
}

/// One handled request's outcome.
pub struct Response {
    /// The encoded response bytes (no trailing newline/framing): a JSON
    /// object for NDJSON responses, a binary-v1 frame for binary ones.
    pub body: Vec<u8>,
    /// The wire encoding actually used for `body` (error responses are
    /// always NDJSON, whatever the request negotiated).
    pub encoding: WireEncoding,
    /// True when the request asked the serve loop to stop.
    pub shutdown: bool,
}

impl Response {
    /// The response as text — valid for NDJSON responses (every response
    /// except a binary-encoded batch body).
    pub fn text(&self) -> &str {
        std::str::from_utf8(&self.body).expect("NDJSON response is valid UTF-8")
    }
}

/// What [`Server::handle_line_into`] reports alongside the bytes it
/// appended to the caller's buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResponseMeta {
    /// The wire encoding actually used.
    pub encoding: WireEncoding,
    /// True when the request asked the serve loop to stop.
    pub shutdown: bool,
}

/// A command's successful payload before the response envelope (`ok`,
/// `id`) is attached.
enum Reply {
    /// An ordered field list.
    Fields(Vec<(&'static str, Content)>),
    /// A batch body the encoder streams directly, in the encoding the
    /// request negotiated.
    Batch(BatchBody, WireEncoding),
}

/// The serving engine: a sharded model fleet plus counters, driven one
/// request line at a time. `&self` methods only — safe to share across
/// threads.
pub struct Server {
    shards: Vec<Shard>,
    stats: ServerStats,
    config: ServerConfig,
    inflight: AtomicUsize,
    tracer: Tracer,
}

/// Spans the tracer ring holds before overwriting the oldest.
const TRACE_CAPACITY: usize = 1024;

/// RAII decrement of the in-flight counter.
struct InflightGuard<'a>(&'a AtomicUsize);

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Accumulates one request's per-stage wall time.
///
/// Each stage slot keeps the start of its *first* interval plus the total
/// duration across intervals (the serialize stage, for instance, spans
/// both the per-point result encoding and the final response line). When
/// observation is off no clock is ever read. The collected spans are
/// flushed at the end of `handle_line` in canonical pipeline order, so a
/// drained trace always reads parse → lookup → eval → degrade →
/// serialize regardless of how measurement nested.
struct StageClock {
    enabled: bool,
    spans: [Option<(u64, u64)>; 5],
}

impl StageClock {
    fn new(enabled: bool) -> Self {
        StageClock {
            enabled,
            spans: [None; 5],
        }
    }

    /// Runs `f`, charging its wall time to `stage`.
    fn time<T>(&mut self, stage: Stage, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = now_ns();
        let out = f();
        let dur = now_ns().saturating_sub(start);
        self.charge(stage, start, dur);
        out
    }

    /// Credits an externally measured interval to `stage` (the binary
    /// request frame is decoded by the transport before the engine is
    /// entered, and that decode time belongs to `parse`).
    fn charge(&mut self, stage: Stage, start: u64, dur: u64) {
        if !self.enabled {
            return;
        }
        match &mut self.spans[stage.index()] {
            Some((_, total)) => *total += dur,
            slot => *slot = Some((start, dur)),
        }
    }
}

fn obj(fields: Vec<(&str, Content)>) -> Content {
    Content::Map(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Appends the standard error fields (`error`, `code`, plus the
/// `retry_after_ms` backoff hint for shed/unavailable requests and the
/// refusing `shard` for unavailable ones) to a response envelope.
fn push_error_fields(fields: &mut Vec<(&'static str, Content)>, e: &ServeError) {
    fields.push(("error", Content::Str(e.to_string())));
    fields.push(("code", Content::Str(e.code().to_string())));
    match e {
        ServeError::Overloaded { retry_after_ms, .. } => {
            fields.push(("retry_after_ms", Content::U64(*retry_after_ms)));
        }
        ServeError::Unavailable {
            shard,
            retry_after_ms,
            ..
        } => {
            fields.push(("retry_after_ms", Content::U64(*retry_after_ms)));
            fields.push(("shard", Content::U64(*shard)));
        }
        _ => {}
    }
}

/// Rejects NaN/Inf symbol values: they would propagate through every
/// moment, so they are refused at the door with a clear message.
fn check_finite(vals: &[f64], what: &str) -> Result<(), ServeError> {
    match vals.iter().position(|v| !v.is_finite()) {
        Some(i) => Err(ServeError::BadRequest {
            what: format!("{what} has a non-finite value at index {i}"),
        }),
        None => Ok(()),
    }
}

/// [`check_finite`] over a step output's sample times.
fn check_output(output: &BatchOutput) -> Result<(), ServeError> {
    match output {
        BatchOutput::Step { times } => check_finite(times, "'times'"),
        _ => Ok(()),
    }
}

fn model_summary(name: &str, model: &CompiledModel) -> Vec<(&'static str, Content)> {
    vec![
        ("name", Content::Str(name.to_string())),
        (
            "symbols",
            Content::Seq(
                model
                    .symbols()
                    .iter()
                    .map(|s| Content::Str(s.to_string()))
                    .collect(),
            ),
        ),
        ("order", Content::U64(model.order() as u64)),
        ("op_count", Content::U64(model.op_count() as u64)),
        ("raw_op_count", Content::U64(model.raw_op_count() as u64)),
        (
            "opt_level",
            Content::Str(model.opt_level().as_str().to_string()),
        ),
    ]
}

impl Server {
    /// A server with the given registry capacity and default limits.
    pub fn new(capacity: usize) -> Self {
        Server::with_config(ServerConfig {
            capacity,
            ..ServerConfig::default()
        })
    }

    /// A server with explicit operational limits.
    pub fn with_config(config: ServerConfig) -> Self {
        let tracer = Tracer::new(TRACE_CAPACITY);
        tracer.set_enabled(config.observe);
        let stats = ServerStats::new();
        let mut shard_config = ShardConfig {
            warm_capacity: config.capacity,
            // The cold tier is cheap (no worker state, just parked
            // models), so give demoted models room before they are truly
            // forgotten.
            cold_capacity: (config.capacity * 4).max(1),
            max_queue: config.shard_queue,
            retry_after_ms: config.retry_after_ms,
            ..ShardConfig::default()
        };
        if config.shard_workers > 0 {
            shard_config.pool.workers = config.shard_workers;
        }
        let shards = (0..config.shards.max(1))
            .map(|i| Shard::new(i, shard_config, stats.registry()))
            .collect();
        Server {
            shards,
            stats,
            config,
            inflight: AtomicUsize::new(0),
            tracer,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Every shard, in index order.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// The shard that owns `name`.
    pub fn shard_for(&self, name: &str) -> &Shard {
        &self.shards[shard_of(name, self.shards.len())]
    }

    /// Registers a model on the shard that owns its name. Returns the
    /// name of a model that fell out of the owning shard's cold tier (was
    /// truly forgotten), if any.
    pub fn insert_model(&self, name: &str, model: CompiledModel) -> Option<String> {
        self.shard_for(name).registry().insert(name, model)
    }

    /// Registry counters aggregated across every shard's two tiers:
    /// cold-tier hits (promotions) count as hits, warm misses that were
    /// satisfied by the cold tier do not count as misses, and only
    /// cold-tier evictions (models truly forgotten) count as evictions.
    pub fn registry_stats(&self) -> RegistryStats {
        let mut agg = RegistryStats {
            hits: 0,
            misses: 0,
            evictions: 0,
            resident: 0,
        };
        for shard in &self.shards {
            let t = shard.registry().stats();
            agg.hits += t.warm.hits + t.promotions;
            agg.misses += t.warm.misses.saturating_sub(t.promotions);
            agg.evictions += t.cold.evictions;
            agg.resident += t.warm.resident + t.cold.resident;
        }
        agg
    }

    /// The server's counters and stage histograms.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// The span sink: stage spans land here, drainable as NDJSON.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// True once `drain` has been requested: every shard has stopped
    /// admitting evaluation work while in-flight jobs finish. The socket
    /// front end polls this to stop accepting new connections and wind
    /// down the ones it has.
    pub fn draining(&self) -> bool {
        self.shards.iter().all(Shard::is_draining)
    }

    /// Claims an in-flight slot for a heavy request, or sheds it when the
    /// budget (if any) is exhausted. The shed hint is depth-aware: at the
    /// budget boundary it is the configured base, and it scales with how
    /// far past the budget the in-flight count is, so clients back off
    /// harder the deeper the overload.
    fn admit(&self) -> Result<InflightGuard<'_>, ServeError> {
        let prev = self.inflight.fetch_add(1, Ordering::AcqRel);
        if self.config.max_inflight > 0 && prev >= self.config.max_inflight {
            self.inflight.fetch_sub(1, Ordering::AcqRel);
            self.stats.record_request_shed();
            return Err(ServeError::Overloaded {
                inflight: prev as u64,
                max_inflight: self.config.max_inflight as u64,
                retry_after_ms: adaptive_retry_after_ms(
                    self.config.retry_after_ms,
                    prev,
                    self.config.max_inflight,
                ),
            });
        }
        Ok(InflightGuard(&self.inflight))
    }

    /// The request's evaluation deadline: a per-request `deadline_ms`
    /// overrides the configured default. Returns the absolute instant and
    /// the millisecond figure (for error reporting).
    fn deadline_of(&self, deadline_ms: Option<u64>, t0: Instant) -> Option<(Instant, u64)> {
        let ms = deadline_ms.or(self.config.deadline_ms)?;
        Some((t0 + Duration::from_millis(ms), ms))
    }

    /// Resolves a model name and the shard that owns it.
    fn route(&self, name: &str) -> Result<(&Shard, Arc<CompiledModel>), ServeError> {
        let shard = self.shard_for(name);
        let model = shard
            .registry()
            .get(name)
            .ok_or_else(|| ServeError::ModelNotFound {
                name: name.to_string(),
            })?;
        Ok((shard, model))
    }

    /// Registers a loaded or compiled model on its shard and summarizes it.
    fn register(&self, name: &str, model: CompiledModel) -> Vec<(&'static str, Content)> {
        let mut fields = model_summary(name, &model);
        fields.push((
            "shard",
            Content::U64(shard_of(name, self.shards.len()) as u64),
        ));
        if let Some(e) = self.insert_model(name, model) {
            fields.push(("evicted", Content::Str(e)));
        }
        fields
    }

    fn cmd_load(&self, name: &str, path: &str) -> Result<Vec<(&'static str, Content)>, ServeError> {
        let model = artifact::load_model_file(path)?;
        Ok(self.register(name, model))
    }

    fn cmd_compile(&self, req: CompileRequest) -> Result<Vec<(&'static str, Content)>, ServeError> {
        let text = match req.netlist {
            NetlistSource::Text(text) => text,
            NetlistSource::Path(path) => {
                std::fs::read_to_string(&path).map_err(|e| ServeError::Io { path, source: e })?
            }
        };
        let circuit = awesym_circuit::parse_spice(&text).map_err(|e| ServeError::BadRequest {
            what: format!("netlist: {e}"),
        })?;
        let input = circuit
            .find(&req.input)
            .ok_or_else(|| ServeError::BadRequest {
                what: format!("no element named {}", req.input),
            })?;
        let output = circuit
            .find_node(&req.output)
            .ok_or_else(|| ServeError::BadRequest {
                what: format!("no node named {}", req.output),
            })?;
        let bindings = resolve::resolve_symbol_specs(&circuit, &req.symbols)
            .map_err(|what| ServeError::BadRequest { what })?;
        let model = CompiledModel::build(&circuit, input, output, &bindings, req.order)?;
        Ok(self.register(&req.name, model))
    }

    fn cmd_save(
        &self,
        model: &str,
        path: &str,
    ) -> Result<Vec<(&'static str, Content)>, ServeError> {
        let (_, model) = self.route(model)?;
        artifact::save_artifact(&model, path)?;
        Ok(vec![("path", Content::Str(path.to_string()))])
    }

    fn cmd_eval(
        &self,
        model: &str,
        values: Vec<f64>,
        output: BatchOutput,
        deadline: Option<(Instant, u64)>,
        clock: &mut StageClock,
        shard_used: &mut Option<usize>,
    ) -> Result<Vec<(&'static str, Content)>, ServeError> {
        let (shard, model) = clock.time(Stage::Lookup, || self.route(model))?;
        *shard_used = Some(shard.id());
        check_finite(&values, "'values'")?;
        check_output(&output)?;
        let outcome = clock.time(Stage::Eval, || {
            shard.evaluate(
                Arc::clone(&model),
                Arc::new(vec![values]),
                output,
                deadline.map(|(at, _)| at),
                Some(1),
            )
        })?;
        clock.time(Stage::Degrade, || self.record_outcome(&outcome));
        let mut results = outcome.results;
        let result = results.pop().ok_or_else(|| ServeError::Internal {
            what: "batch engine returned no result for a single-point request".into(),
        })?;
        match result {
            Ok(v) => Ok(vec![("result", encode::point_value_content(&v))]),
            Err(_) if outcome.deadline_exceeded => Err(ServeError::DeadlineExceeded {
                deadline_ms: deadline.map_or(0, |(_, ms)| ms),
            }),
            Err(e) => Err(ServeError::Point(e)),
        }
    }

    /// Folds a batch outcome's health counters into the server stats.
    fn record_outcome(&self, outcome: &crate::batch::BatchOutcome) {
        if outcome.panics_caught > 0 {
            self.stats.record_panics_caught(outcome.panics_caught);
        }
        if outcome.degraded_points > 0 {
            self.stats.record_degradations(outcome.degraded_points);
        }
        if outcome.deadline_exceeded {
            self.stats.record_deadline_exceeded();
        }
    }

    fn cmd_batch(
        &self,
        req: BatchRequest,
        deadline: Option<(Instant, u64)>,
        clock: &mut StageClock,
        shard_used: &mut Option<usize>,
    ) -> Result<BatchBody, ServeError> {
        let (shard, model) = clock.time(Stage::Lookup, || self.route(&req.model))?;
        *shard_used = Some(shard.id());
        let n_points = req.points.len();
        if n_points > self.config.max_batch_points {
            return Err(ServeError::BadRequest {
                what: format!(
                    "batch has {n_points} points, limit is {}",
                    self.config.max_batch_points
                ),
            });
        }
        for p in &req.points {
            check_finite(p, "each point")?;
        }
        check_output(&req.output)?;
        // The binary frame carries a fixed number of f64 columns per
        // point, derived from the output kind before any evaluation
        // (`rom` never reaches the binary encoder: parsing refuses it).
        let cols = match &req.output {
            BatchOutput::Rom => 0,
            BatchOutput::Moments => 2 * model.order(),
            BatchOutput::DcGain => 1,
            BatchOutput::Delays => 4,
            BatchOutput::Step { times } => times.len(),
        };
        let t0 = Instant::now();
        let outcome = clock.time(Stage::Eval, || {
            shard.evaluate(
                Arc::clone(&model),
                Arc::new(req.points),
                req.output,
                deadline.map(|(at, _)| at),
                req.workers,
            )
        })?;
        let elapsed = t0.elapsed();
        let ok_count = clock.time(Stage::Degrade, || {
            self.stats.record_batch(n_points, elapsed);
            self.record_outcome(&outcome);
            outcome.results.iter().filter(|r| r.is_ok()).count()
        });
        let secs = elapsed.as_secs_f64();
        let mut head = vec![
            ("count", Content::U64(n_points as u64)),
            ("ok_count", Content::U64(ok_count as u64)),
            ("elapsed_secs", Content::F64(secs)),
            (
                "points_per_sec",
                Content::F64(if secs > 0.0 {
                    n_points as f64 / secs
                } else {
                    0.0
                }),
            ),
        ];
        if outcome.deadline_exceeded {
            head.push(("deadline_exceeded", Content::Bool(true)));
        }
        Ok(BatchBody {
            head,
            // Filled from the request envelope by `handle_line_into` so
            // correlation survives the binary frame too.
            id: None,
            cols,
            ok_count: ok_count as u64,
            elapsed_ns: u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX),
            deadline_exceeded: outcome.deadline_exceeded,
            deadline,
            results: outcome.results,
        })
    }

    fn cmd_stats(&self) -> Result<Vec<(&'static str, Content)>, ServeError> {
        let ser = |e: serde_json::Error| ServeError::BadRequest {
            what: format!("stats serialization: {e}"),
        };
        let server = serde_json::to_value(&self.stats.snapshot()).map_err(ser)?;
        let registry = serde_json::to_value(&self.registry_stats()).map_err(ser)?;
        let mut models: Vec<String> = Vec::new();
        let mut shards: Vec<Content> = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            models.extend(shard.registry().names());
            shards.push(obj(vec![
                (
                    "health",
                    serde_json::to_value(&shard.health()).map_err(ser)?,
                ),
                (
                    "registry",
                    serde_json::to_value(&shard.registry().stats()).map_err(ser)?,
                ),
            ]));
        }
        models.sort();
        Ok(vec![
            ("server", server),
            ("registry", registry),
            (
                "models",
                Content::Seq(models.into_iter().map(Content::Str).collect()),
            ),
            ("shards", Content::Seq(shards)),
        ])
    }

    /// Readiness probe: per-shard breaker phase, worker liveness, restart
    /// counters, and queue depth. `ready` is the AND over shards — a
    /// load balancer should stop routing when it goes false. Probing also
    /// runs a supervision pass, so a probe is what nurses a crashed pool
    /// back up even with no traffic.
    fn cmd_health(&self) -> Result<Vec<(&'static str, Content)>, ServeError> {
        let ready = self.shards.iter().all(Shard::is_ready);
        let shards: Result<Vec<Content>, _> = self
            .shards
            .iter()
            .map(|s| serde_json::to_value(&s.health()))
            .collect();
        Ok(vec![
            ("ready", Content::Bool(ready)),
            (
                "shards",
                Content::Seq(shards.map_err(|e| ServeError::BadRequest {
                    what: format!("health serialization: {e}"),
                })?),
            ),
        ])
    }

    /// Graceful-shutdown entry: every shard stops admitting evaluation
    /// work (new eval/batch requests get `unavailable`) while in-flight
    /// jobs finish. `pending` reports jobs still queued or running; poll
    /// until it reaches zero, then send `shutdown`.
    fn cmd_drain(&self) -> Result<Vec<(&'static str, Content)>, ServeError> {
        let mut pending = 0u64;
        for shard in &self.shards {
            shard.drain();
            pending += shard.queue_depth() as u64;
        }
        Ok(vec![
            ("draining", Content::Bool(true)),
            ("pending", Content::U64(pending)),
        ])
    }

    /// Handles one request line into a fresh buffer. Prefer
    /// [`Server::handle_line_into`] on hot paths — it reuses the
    /// caller's buffer across requests.
    pub fn handle_line(&self, line: &str) -> Option<Response> {
        let mut body = Vec::new();
        let meta = self.handle_line_into(line, &mut body)?;
        Some(Response {
            body,
            encoding: meta.encoding,
            shutdown: meta.shutdown,
        })
    }

    /// Handles one request line, appending the encoded response to `out`
    /// (a reusable buffer the caller clears between requests). Blank
    /// lines are ignored (`None`).
    ///
    /// Every response goes through the negotiated [`crate::encode::Encoder`]; encode
    /// time is charged to the `serialize` stage and counts against the
    /// request deadline — a deadline that trips mid-encode discards the
    /// partial body and reports a typed `deadline_exceeded` error
    /// instead. Error responses are always NDJSON.
    pub fn handle_line_into(&self, line: &str, out: &mut Vec<u8>) -> Option<ResponseMeta> {
        let line = line.trim();
        if line.is_empty() {
            return None;
        }
        let t0 = Instant::now();
        let mut clock = StageClock::new(self.config.observe);
        let (id, command) = clock.time(Stage::Parse, || {
            // Size guard before the parser ever sees the bytes.
            if line.len() > self.config.max_line_bytes {
                let what = format!(
                    "request line is {} bytes, limit is {}",
                    line.len(),
                    self.config.max_line_bytes
                );
                return (None, Err(ServeError::BadRequest { what }));
            }
            match serde_json::from_str::<Content>(line) {
                Ok(c) => match Request::from_content(&c) {
                    Ok(req) => (req.id, Ok(req.command)),
                    // A malformed request still echoes its id.
                    Err(e) => (request::id_of(&c), Err(e)),
                },
                Err(e) => {
                    let what = format!("request is not JSON: {e}");
                    (None, Err(ServeError::BadRequest { what }))
                }
            }
        });
        Some(self.respond(id, command, WireEncoding::Ndjson, t0, clock, out))
    }

    /// Handles a request that was already decoded off the wire — the
    /// binary-v1 *request* frame path, where the transport turns the
    /// frame into a typed [`Request`] before entering the engine.
    ///
    /// `decode` is the externally measured `(start_ns, dur_ns)` of that
    /// decode; it is credited to the `parse` stage so the per-stage
    /// breakdown stays comparable across request encodings, and
    /// `req_encoding` labels the per-encoding parse split. A decode
    /// failure is passed in as `Err` and answered with the same typed
    /// NDJSON error envelope a bad JSON line gets. Everything
    /// downstream — routing, evaluation, envelope field order, encoding
    /// — is shared with [`Server::handle_line_into`], so a frame and the
    /// equivalent JSON line get byte-identical responses.
    pub fn handle_decoded_into(
        &self,
        req: Result<Request, ServeError>,
        req_encoding: WireEncoding,
        decode: Option<(u64, u64)>,
        out: &mut Vec<u8>,
    ) -> ResponseMeta {
        let t0 = Instant::now();
        let mut clock = StageClock::new(self.config.observe);
        if let Some((start, dur)) = decode {
            clock.charge(Stage::Parse, start, dur);
        }
        let (id, command) = match req {
            Ok(req) => (req.id, Ok(req.command)),
            Err(e) => (None, Err(e)),
        };
        self.respond(id, command, req_encoding, t0, clock, out)
    }

    /// The shared back half of request handling: dispatch, envelope,
    /// encode, and accounting for a parsed request. `req_encoding` is
    /// the encoding the *request* arrived in (used only to label the
    /// parse-stage split).
    fn respond(
        &self,
        id: Option<Content>,
        command: Result<Command, ServeError>,
        req_encoding: WireEncoding,
        t0: Instant,
        mut clock: StageClock,
        out: &mut Vec<u8>,
    ) -> ResponseMeta {
        let mut shutdown = false;
        let mut shard_used: Option<usize> = None;
        let outcome: Result<Reply, ServeError> = command.and_then(|command| match command {
            // Heavy commands claim an in-flight slot (shedding when the
            // budget is exhausted); cheap ones always answer.
            Command::Load { name, path } => self.cmd_load(&name, &path).map(Reply::Fields),
            Command::Compile(req) => {
                let _slot = self.admit()?;
                self.cmd_compile(req).map(Reply::Fields)
            }
            Command::Save { model, path } => self.cmd_save(&model, &path).map(Reply::Fields),
            Command::Eval {
                model,
                values,
                output,
                deadline_ms,
            } => {
                let _slot = self.admit()?;
                let deadline = self.deadline_of(deadline_ms, t0);
                self.cmd_eval(
                    &model,
                    values,
                    output,
                    deadline,
                    &mut clock,
                    &mut shard_used,
                )
                .map(Reply::Fields)
            }
            Command::Batch(req) => {
                let _slot = self.admit()?;
                let deadline = self.deadline_of(req.deadline_ms, t0);
                let encoding = req.encoding;
                self.cmd_batch(req, deadline, &mut clock, &mut shard_used)
                    .map(|body| Reply::Batch(body, encoding))
            }
            Command::Stats => self.cmd_stats().map(Reply::Fields),
            Command::Health => self.cmd_health().map(Reply::Fields),
            Command::Drain => self.cmd_drain().map(Reply::Fields),
            Command::Shutdown => {
                shutdown = true;
                Ok(Reply::Fields(vec![("shutdown", Content::Bool(true))]))
            }
        });
        let mut ok = outcome.is_ok();
        let mut envelope = vec![("ok", Content::Bool(ok))];
        if let Some(id) = &id {
            envelope.push(("id", id.clone()));
        }
        // Only batch bodies have a binary form; everything else, errors
        // included, is an NDJSON object whatever was negotiated.
        let mut encoding = WireEncoding::Ndjson;
        let body = match outcome {
            Ok(Reply::Fields(extra)) => {
                envelope.extend(extra);
                ResponseBody::Fields(envelope)
            }
            Ok(Reply::Batch(mut b, negotiated)) => {
                encoding = negotiated;
                envelope.append(&mut b.head);
                b.head = envelope;
                b.id.clone_from(&id);
                ResponseBody::Batch(b)
            }
            Err(e) => {
                push_error_fields(&mut envelope, &e);
                ResponseBody::Fields(envelope)
            }
        };
        let encoder = encode::encoder_for(encoding);
        let start_len = out.len();
        let encoded = clock.time(Stage::Serialize, || encoder.encode_response(&body, out));
        if let Err(e) = encoded {
            // The deadline tripped mid-encode: discard the partial body
            // and answer with the typed error (NDJSON) instead.
            out.truncate(start_len);
            ok = false;
            encoding = WireEncoding::Ndjson;
            if matches!(e, ServeError::DeadlineExceeded { .. }) {
                self.stats.record_deadline_exceeded();
            }
            let mut fields = vec![("ok", Content::Bool(false))];
            if let Some(id) = id {
                fields.push(("id", id));
            }
            push_error_fields(&mut fields, &e);
            clock.time(Stage::Serialize, || {
                // The NDJSON field encoder is infallible (no deadline).
                let _ = encode::encoder_for(WireEncoding::Ndjson)
                    .encode_response(&ResponseBody::Fields(fields), out);
            });
        }
        let latency = t0.elapsed();
        self.stats.record_request(latency, ok);
        // Flush the collected stage times in canonical pipeline order, so
        // a drained trace always reads parse → lookup → eval → degrade →
        // serialize (requests skip stages they never reached).
        for stage in STAGES {
            if let Some((start, dur)) = clock.spans[stage.index()] {
                self.stats.record_stage(stage, dur);
                self.tracer.record(stage.as_str(), start, dur);
            }
        }
        if let Some((_, dur)) = clock.spans[Stage::Serialize.index()] {
            self.stats.record_serialize_encoding(encoding, dur);
        }
        if let Some((_, dur)) = clock.spans[Stage::Parse.index()] {
            self.stats.record_parse_encoding(req_encoding, dur);
        }
        // Mirror the request into the owning shard's labeled metrics, so
        // cross-shard interference is readable straight from stats.
        if let Some(i) = shard_used {
            let m = &self.shards[i].metrics;
            m.requests.inc();
            if !ok {
                m.errors.inc();
            }
            m.latency_us
                .observe(u64::try_from(latency.as_micros()).unwrap_or(u64::MAX));
            for stage in STAGES {
                if let Some((_, dur)) = clock.spans[stage.index()] {
                    m.stages[stage.index()].observe(dur);
                }
            }
        }
        ResponseMeta { encoding, shutdown }
    }

    /// One NDJSON stats line: the server snapshot (with per-stage
    /// breakdown), registry counters, and how many trace spans the ring
    /// has overwritten.
    pub fn stats_line(&self) -> String {
        let mut out = Vec::new();
        self.stats_line_into(&mut out);
        String::from_utf8(out).expect("stats line is valid UTF-8")
    }

    /// As [`Server::stats_line`], appending to a reusable buffer.
    pub fn stats_line_into(&self, out: &mut Vec<u8>) {
        let server = serde_json::to_value(&self.stats.snapshot()).unwrap_or(Content::Null);
        let registry = serde_json::to_value(&self.registry_stats()).unwrap_or(Content::Null);
        let line = obj(vec![
            ("stats", Content::Bool(true)),
            ("server", server),
            ("registry", registry),
            ("spans_dropped", Content::U64(self.tracer.dropped())),
        ]);
        encode::encoder_for(WireEncoding::Ndjson).encode_stats(&line, out);
    }

    /// Runs the NDJSON loop until EOF or a `shutdown` request.
    ///
    /// # Errors
    ///
    /// Propagates transport read/write failures.
    pub fn serve<R: BufRead, W: Write>(&self, reader: R, writer: W) -> std::io::Result<()> {
        self.serve_with_stats(reader, writer, std::io::sink())
    }

    /// As [`Server::serve`], but additionally writes one NDJSON stats
    /// line (see [`Server::stats_line`]) to `stats_out` every
    /// [`ServerConfig::stats_every`] handled requests. The stats stream
    /// is separate from the response stream so programmatic clients
    /// reading responses never see an unsolicited line — `awesym serve
    /// --stats-every N` routes it to stderr.
    ///
    /// # Errors
    ///
    /// Propagates transport read/write failures on the request/response
    /// streams only. A stats-sink write failure never stops the loop:
    /// the line is dropped and counted in the `stats_dropped` counter.
    pub fn serve_with_stats<R: BufRead, W: Write, S: Write>(
        &self,
        reader: R,
        mut writer: W,
        mut stats_out: S,
    ) -> std::io::Result<()> {
        let every = self.config.stats_every;
        let mut handled: u64 = 0;
        // One response buffer per connection, reused across requests.
        let mut buf: Vec<u8> = Vec::with_capacity(4096);
        let mut lines = reader.lines();
        loop {
            // Time blocked on the transport separately from decode: the
            // read below includes client think time, which must not be
            // charged to the parse stage (see `StatsSnapshot::wait`).
            let wait0 = self.config.observe.then(now_ns);
            let Some(line) = lines.next() else { break };
            let line = line?;
            if let Some(w0) = wait0 {
                self.stats.record_wait(now_ns().saturating_sub(w0));
            }
            buf.clear();
            if let Some(meta) = self.handle_line_into(&line, &mut buf) {
                writer.write_all(&buf)?;
                // NDJSON responses are newline-framed; binary frames are
                // self-delimiting (explicit lengths in the header).
                if meta.encoding == WireEncoding::Ndjson {
                    writer.write_all(b"\n")?;
                }
                writer.flush()?;
                handled += 1;
                if every > 0 && handled.is_multiple_of(every) {
                    buf.clear();
                    self.stats_line_into(&mut buf);
                    buf.push(b'\n');
                    // Stats are advisory: a slow or dead sink must never
                    // stall or kill the serve loop, so a failed write
                    // drops the line and counts the drop instead of
                    // propagating.
                    if stats_out
                        .write_all(&buf)
                        .and_then(|()| stats_out.flush())
                        .is_err()
                    {
                        self.stats.record_stats_dropped();
                    }
                }
                if meta.shutdown {
                    break;
                }
            }
        }
        Ok(())
    }
}

impl Default for Server {
    fn default() -> Self {
        Server::new(DEFAULT_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NETLIST: &str = "* fig1\nvin in 0 1\nR1 in 1 1k\nC1 1 0 1n\nR2 1 2 1k\nC2 2 0 1n\n.end\n";

    fn compile_req(name: &str) -> String {
        let req = obj(vec![
            ("cmd", Content::Str("compile".into())),
            ("name", Content::Str(name.into())),
            ("netlist", Content::Str(NETLIST.into())),
            ("input", Content::Str("vin".into())),
            ("output", Content::Str("2".into())),
            (
                "symbols",
                Content::Seq(vec![Content::Str("C1".into()), Content::Str("R2:r".into())]),
            ),
            ("order", Content::U64(2)),
        ]);
        serde_json::to_string(&req).unwrap()
    }

    fn parse(resp: &Response) -> Content {
        serde_json::from_str(resp.text()).unwrap()
    }

    fn ok_of(c: &Content) -> bool {
        c.get("ok").and_then(Content::as_bool).unwrap()
    }

    #[test]
    fn compile_eval_batch_stats_shutdown_flow() {
        let s = Server::default();
        let r = s.handle_line(&compile_req("m")).unwrap();
        let c = parse(&r);
        assert!(ok_of(&c), "{}", r.text());
        assert!(c.get("op_count").and_then(Content::as_u64).unwrap() > 0);

        let r = s
            .handle_line(r#"{"cmd":"eval","model":"m","values":[1e-9,1000.0],"kind":"dc_gain"}"#)
            .unwrap();
        let c = parse(&r);
        assert!(ok_of(&c), "{}", r.text());
        let dc = c
            .get("result")
            .and_then(|v| v.get("dc_gain"))
            .and_then(Content::as_f64)
            .unwrap();
        assert!((dc - 1.0).abs() < 1e-9);

        let r = s
            .handle_line(
                r#"{"cmd":"batch","model":"m","points":[[1e-9,1e3],[2e-9,2e3],[1e-9]],"kind":"moments","workers":2}"#,
            )
            .unwrap();
        let c = parse(&r);
        assert!(ok_of(&c), "{}", r.text());
        assert_eq!(c.get("count").and_then(Content::as_u64), Some(3));
        assert_eq!(c.get("ok_count").and_then(Content::as_u64), Some(2));
        let results = c.get("results").and_then(Content::as_seq).unwrap();
        assert!(results[2].get("error").is_some());
        assert_eq!(
            results[2].get("code").and_then(Content::as_str),
            Some("bad_request")
        );

        let r = s.handle_line(r#"{"cmd":"stats"}"#).unwrap();
        let c = parse(&r);
        assert!(ok_of(&c));
        let server = c.get("server").unwrap();
        assert!(server.get("requests").and_then(Content::as_u64).unwrap() >= 3);
        assert_eq!(
            server.get("batch_points").and_then(Content::as_u64),
            Some(3)
        );
        let registry = c.get("registry").unwrap();
        assert!(registry.get("hits").and_then(Content::as_u64).unwrap() >= 2);

        let r = s.handle_line(r#"{"cmd":"shutdown"}"#).unwrap();
        assert!(r.shutdown);
        assert!(ok_of(&parse(&r)));
    }

    #[test]
    fn errors_are_structured_and_nonfatal() {
        let s = Server::default();
        for bad in [
            "not json at all",
            r#"{"nocmd":1}"#,
            r#"{"cmd":"frobnicate"}"#,
            r#"{"cmd":"eval","model":"ghost","values":[1.0]}"#,
            r#"{"cmd":"eval","model":"ghost"}"#,
            r#"{"cmd":"load","name":"x","path":"/nonexistent/a.awesym"}"#,
        ] {
            let r = s.handle_line(bad).unwrap();
            let c = parse(&r);
            assert!(!ok_of(&c), "{bad} -> {}", r.text());
            assert!(!r.shutdown);
            assert!(c.get("error").and_then(Content::as_str).is_some());
            // Every failure carries a stable machine-readable code.
            assert!(c.get("code").and_then(Content::as_str).is_some(), "{bad}");
        }
        // Still serving after all those failures.
        let r = s.handle_line(&compile_req("m")).unwrap();
        assert!(ok_of(&parse(&r)));
        assert!(s.handle_line("   ").is_none());
    }

    fn code_of(c: &Content) -> Option<&str> {
        c.get("code").and_then(Content::as_str)
    }

    #[test]
    fn error_codes_identify_failure_classes() {
        let s = Server::default();
        let r = s.handle_line(r#"{"cmd":"nope"}"#).unwrap();
        assert_eq!(code_of(&parse(&r)), Some("bad_request"));
        let r = s
            .handle_line(r#"{"cmd":"eval","model":"ghost","values":[1.0]}"#)
            .unwrap();
        assert_eq!(code_of(&parse(&r)), Some("not_found"));
    }

    #[test]
    fn non_finite_symbol_values_are_rejected() {
        let s = Server::default();
        s.handle_line(&compile_req("m")).unwrap();
        // JSON has no NaN literal, but `null` deserializes to one through
        // the lenient f64 path — so guard the typed path directly too.
        let r = s
            .handle_line(r#"{"cmd":"eval","model":"m","values":[1e-9,null]}"#)
            .unwrap();
        let c = parse(&r);
        assert!(!ok_of(&c), "{}", r.text());
        assert_eq!(code_of(&c), Some("bad_request"));
        let err = check_finite(&[1.0, f64::NAN], "'values'").unwrap_err();
        assert!(err.to_string().contains("non-finite"), "{err}");
    }

    #[test]
    fn oversized_lines_and_batches_are_rejected() {
        let s = Server::with_config(ServerConfig {
            max_line_bytes: 4096,
            max_batch_points: 2,
            ..ServerConfig::default()
        });
        let long = format!(r#"{{"cmd":"stats","pad":"{}"}}"#, "x".repeat(8192));
        let c = parse(&s.handle_line(&long).unwrap());
        assert!(!ok_of(&c));
        assert_eq!(code_of(&c), Some("bad_request"));
        s.handle_line(&compile_req("m")).unwrap();
        let c = parse(
            &s.handle_line(
                r#"{"cmd":"batch","model":"m","points":[[1e-9,1e3],[1e-9,1e3],[1e-9,1e3]]}"#,
            )
            .unwrap(),
        );
        assert!(!ok_of(&c));
        assert!(c
            .get("error")
            .and_then(Content::as_str)
            .unwrap()
            .contains("limit is 2"));
        // At the limit still works.
        let c = parse(
            &s.handle_line(r#"{"cmd":"batch","model":"m","points":[[1e-9,1e3],[1e-9,1e3]]}"#)
                .unwrap(),
        );
        assert!(ok_of(&c), "{c:?}");
    }

    #[test]
    fn expired_deadline_is_a_typed_error_and_serving_continues() {
        let s = Server::default();
        s.handle_line(&compile_req("m")).unwrap();
        // deadline_ms of 0 expires immediately: eval reports the typed
        // code, batch answers with per-point deadline errors and a flag.
        let c = parse(
            &s.handle_line(r#"{"cmd":"eval","model":"m","values":[1e-9,1e3],"deadline_ms":0}"#)
                .unwrap(),
        );
        assert!(!ok_of(&c));
        assert_eq!(code_of(&c), Some("deadline_exceeded"));
        let c = parse(
            &s.handle_line(
                r#"{"cmd":"batch","model":"m","points":[[1e-9,1e3],[2e-9,2e3]],"deadline_ms":0}"#,
            )
            .unwrap(),
        );
        assert!(ok_of(&c), "{c:?}");
        assert_eq!(
            c.get("deadline_exceeded").and_then(Content::as_bool),
            Some(true)
        );
        let results = c.get("results").and_then(Content::as_seq).unwrap();
        assert!(results
            .iter()
            .all(|r| r.get("code").and_then(Content::as_str) == Some("deadline_exceeded")));
        // The next request is unaffected.
        let c = parse(
            &s.handle_line(r#"{"cmd":"eval","model":"m","values":[1e-9,1e3]}"#)
                .unwrap(),
        );
        assert!(ok_of(&c), "{c:?}");
        let server_stats = parse(&s.handle_line(r#"{"cmd":"stats"}"#).unwrap());
        let deadlines = server_stats
            .get("server")
            .and_then(|v| v.get("deadlines_exceeded"))
            .and_then(Content::as_u64)
            .unwrap();
        assert_eq!(deadlines, 2);
    }

    #[test]
    fn inflight_budget_sheds_with_retry_hint() {
        let s = Server::with_config(ServerConfig {
            max_inflight: 1,
            retry_after_ms: 77,
            ..ServerConfig::default()
        });
        s.handle_line(&compile_req("m")).unwrap();
        let held = s.admit().unwrap();
        let c = parse(
            &s.handle_line(r#"{"cmd":"eval","model":"m","values":[1e-9,1e3]}"#)
                .unwrap(),
        );
        assert!(!ok_of(&c));
        assert_eq!(code_of(&c), Some("overloaded"));
        assert_eq!(c.get("retry_after_ms").and_then(Content::as_u64), Some(77));
        // Cheap commands still answer while the budget is exhausted.
        assert!(ok_of(&parse(&s.handle_line(r#"{"cmd":"stats"}"#).unwrap())));
        drop(held);
        let c = parse(
            &s.handle_line(r#"{"cmd":"eval","model":"m","values":[1e-9,1e3]}"#)
                .unwrap(),
        );
        assert!(ok_of(&c), "{c:?}");
        let snap = s.stats.snapshot();
        assert_eq!(snap.requests_shed, 1);
    }

    #[test]
    fn overload_hint_scales_with_queue_depth() {
        let s = Server::with_config(ServerConfig {
            max_inflight: 2,
            retry_after_ms: 50,
            ..ServerConfig::default()
        });
        s.handle_line(&compile_req("m")).unwrap();
        let hint_at_depth = |depth: usize| {
            // Simulate `depth` requests already in flight, then watch the
            // next admit shed.
            s.inflight.store(depth, Ordering::SeqCst);
            let c = parse(
                &s.handle_line(r#"{"cmd":"eval","model":"m","values":[1e-9,1e3]}"#)
                    .unwrap(),
            );
            assert_eq!(code_of(&c), Some("overloaded"), "{c:?}");
            c.get("retry_after_ms").and_then(Content::as_u64).unwrap()
        };
        // At the budget boundary the hint is the configured base; deeper
        // queues produce strictly longer hints.
        assert_eq!(hint_at_depth(2), 50);
        assert_eq!(hint_at_depth(4), 100);
        assert_eq!(hint_at_depth(10), 250);
        s.inflight.store(0, Ordering::SeqCst);
    }

    /// A sink whose writes always fail.
    struct BrokenSink;

    impl Write for BrokenSink {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::other("sink is broken"))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Err(std::io::Error::other("sink is broken"))
        }
    }

    #[test]
    fn failing_stats_sink_never_stalls_the_serve_loop() {
        let s = Server::with_config(ServerConfig {
            stats_every: 1,
            ..ServerConfig::default()
        });
        let mut input = compile_req("m");
        input.push('\n');
        for _ in 0..3 {
            input.push_str(r#"{"cmd":"eval","model":"m","values":[1e-9,1e3]}"#);
            input.push('\n');
        }
        let mut out = Vec::new();
        s.serve_with_stats(input.as_bytes(), &mut out, BrokenSink)
            .unwrap();
        // Every request answered despite 4 failed stats writes.
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 4, "{text}");
        for l in text.lines() {
            assert!(ok_of(&serde_json::from_str(l).unwrap()), "{l}");
        }
        let snap = s.stats.snapshot();
        assert_eq!(snap.stats_dropped, 4);
        // And the drop counter is visible on the stats command.
        let c = parse(&s.handle_line(r#"{"cmd":"stats"}"#).unwrap());
        assert_eq!(
            c.get("server")
                .and_then(|v| v.get("stats_dropped"))
                .and_then(Content::as_u64),
            Some(4)
        );
    }

    #[test]
    fn sharded_server_routes_by_name_and_reports_health() {
        let s = Server::with_config(ServerConfig {
            shards: 4,
            shard_workers: 1,
            ..ServerConfig::default()
        });
        // Place models on their owning shards and evaluate each.
        for name in ["alpha", "beta", "gamma", "delta"] {
            let c = parse(&s.handle_line(&compile_req(name)).unwrap());
            assert!(ok_of(&c));
            let shard = c.get("shard").and_then(Content::as_u64).unwrap();
            assert_eq!(
                shard as usize,
                crate::shard_of(name, 4),
                "{name} placed on its hash shard"
            );
            let req =
                format!(r#"{{"cmd":"batch","model":"{name}","points":[[1e-9,1e3],[2e-9,2e3]]}}"#);
            let c = parse(&s.handle_line(&req).unwrap());
            assert!(ok_of(&c), "{c:?}");
            assert_eq!(c.get("ok_count").and_then(Content::as_u64), Some(2));
        }
        // Health: all shards ready, workers alive, nothing restarted.
        let c = parse(&s.handle_line(r#"{"cmd":"health"}"#).unwrap());
        assert!(ok_of(&c));
        assert_eq!(c.get("ready").and_then(Content::as_bool), Some(true));
        let shards = c.get("shards").and_then(Content::as_seq).unwrap();
        assert_eq!(shards.len(), 4);
        for (i, sh) in shards.iter().enumerate() {
            assert_eq!(sh.get("shard").and_then(Content::as_u64), Some(i as u64));
            assert_eq!(sh.get("breaker").and_then(Content::as_str), Some("closed"));
            assert_eq!(sh.get("alive").and_then(Content::as_u64), Some(1));
            assert_eq!(sh.get("restarts").and_then(Content::as_u64), Some(0));
        }
        // Stats carry the per-shard section and per-shard stage metrics.
        let c = parse(&s.handle_line(r#"{"cmd":"stats"}"#).unwrap());
        let models = c.get("models").and_then(Content::as_seq).unwrap();
        assert_eq!(models.len(), 4);
        assert_eq!(
            c.get("shards").and_then(Content::as_seq).map(<[_]>::len),
            Some(4)
        );
        let metrics = s.stats().metrics_ndjson();
        let victim = crate::shard_of("alpha", 4);
        assert!(
            metrics.contains(&format!("\"metric\":\"shard{victim}_requests_total\"")),
            "per-shard request counters registered"
        );
        assert!(
            metrics.contains(&format!(
                "\"metric\":\"shard{victim}_request_stage_eval_ns\""
            )),
            "per-shard stage histograms registered"
        );
        // Drain: evaluation refused with a typed unavailable, cheap
        // commands still answered, shutdown still works.
        let c = parse(&s.handle_line(r#"{"cmd":"drain"}"#).unwrap());
        assert!(ok_of(&c));
        assert_eq!(c.get("draining").and_then(Content::as_bool), Some(true));
        assert_eq!(c.get("pending").and_then(Content::as_u64), Some(0));
        let c = parse(
            &s.handle_line(r#"{"cmd":"eval","model":"alpha","values":[1e-9,1e3]}"#)
                .unwrap(),
        );
        assert_eq!(code_of(&c), Some("unavailable"), "{c:?}");
        assert!(c.get("retry_after_ms").and_then(Content::as_u64).is_some());
        assert_eq!(
            c.get("shard").and_then(Content::as_u64),
            Some(crate::shard_of("alpha", 4) as u64)
        );
        let c = parse(&s.handle_line(r#"{"cmd":"health"}"#).unwrap());
        assert_eq!(c.get("ready").and_then(Content::as_bool), Some(false));
        assert!(ok_of(&parse(&s.handle_line(r#"{"cmd":"stats"}"#).unwrap())));
    }

    #[test]
    fn id_field_is_echoed() {
        let s = Server::default();
        let r = s.handle_line(r#"{"cmd":"stats","id":42}"#).unwrap();
        let c = parse(&r);
        assert_eq!(c.get("id").and_then(Content::as_u64), Some(42));
        let r = s.handle_line(r#"{"cmd":"nope","id":"abc"}"#).unwrap();
        let c = parse(&r);
        assert_eq!(c.get("id").and_then(Content::as_str), Some("abc"));
    }

    #[test]
    fn batch_request_emits_stage_spans_in_canonical_order() {
        let s = Server::default();
        s.handle_line(&compile_req("m")).unwrap();
        s.tracer().drain(); // discard the compile request's spans
        let r = s
            .handle_line(r#"{"cmd":"batch","model":"m","points":[[1e-9,1e3],[2e-9,2e3]]}"#)
            .unwrap();
        assert!(ok_of(&parse(&r)), "{}", r.text());
        let spans = s.tracer().drain();
        let names: Vec<&str> = spans.iter().map(|rec| rec.name).collect();
        assert_eq!(
            names,
            ["parse", "lookup", "eval", "degrade", "serialize"],
            "one span per stage, pipeline order"
        );
        // Starts are monotone in pipeline order and durations are sane.
        for pair in spans.windows(2) {
            assert!(pair[0].start_ns <= pair[1].start_ns, "{names:?}");
        }
        assert!(spans.iter().all(|rec| rec.dur_ns > 0 || rec.name != "eval"));
        // The same stages landed in the histograms (the compile request
        // contributed one extra parse and serialize observation).
        let snap = s.stats.snapshot();
        let counts: Vec<u64> = snap.stages.iter().map(|st| st.count).collect();
        assert_eq!(counts, [2, 1, 1, 1, 2], "{:?}", snap.stages);
    }

    #[test]
    fn failed_lookup_skips_downstream_stages() {
        let s = Server::default();
        let r = s
            .handle_line(r#"{"cmd":"eval","model":"ghost","values":[1.0]}"#)
            .unwrap();
        assert!(!ok_of(&parse(&r)));
        let names: Vec<&str> = s.tracer().drain().iter().map(|rec| rec.name).collect();
        assert_eq!(names, ["parse", "lookup", "serialize"]);
        let snap = s.stats.snapshot();
        assert_eq!(snap.stages[2].count, 0, "eval never ran");
        assert_eq!(snap.stages[3].count, 0, "degrade never ran");
    }

    #[test]
    fn observe_off_records_no_stages_or_spans() {
        let s = Server::with_config(ServerConfig {
            observe: false,
            ..ServerConfig::default()
        });
        s.handle_line(&compile_req("m")).unwrap();
        let r = s
            .handle_line(r#"{"cmd":"batch","model":"m","points":[[1e-9,1e3]]}"#)
            .unwrap();
        assert!(ok_of(&parse(&r)), "{}", r.text());
        assert!(s.tracer().drain().is_empty());
        let snap = s.stats.snapshot();
        assert!(snap.stages.iter().all(|st| st.count == 0), "{snap:?}");
        // Plain request accounting still works.
        assert_eq!(snap.requests, 2);
        assert_eq!(snap.batch_points, 1);
    }

    #[test]
    fn stats_every_emits_periodic_ndjson_lines() {
        let s = Server::with_config(ServerConfig {
            stats_every: 2,
            ..ServerConfig::default()
        });
        let mut input = compile_req("m");
        input.push('\n');
        for _ in 0..3 {
            input.push_str(r#"{"cmd":"batch","model":"m","points":[[1e-9,1e3],[2e-9,2e3]]}"#);
            input.push('\n');
        }
        let (mut out, mut stats) = (Vec::new(), Vec::new());
        s.serve_with_stats(input.as_bytes(), &mut out, &mut stats)
            .unwrap();
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 4);
        let stats = String::from_utf8(stats).unwrap();
        let lines: Vec<&str> = stats.lines().collect();
        assert_eq!(lines.len(), 2, "4 requests / every-2 = 2 lines\n{stats}");
        for l in &lines {
            let c: Content = serde_json::from_str(l).unwrap();
            assert_eq!(c.get("stats").and_then(Content::as_bool), Some(true));
            let server = c.get("server").unwrap();
            let stages = server.get("stages").and_then(Content::as_seq).unwrap();
            assert_eq!(stages.len(), 5, "{l}");
            assert!(c.get("registry").is_some());
        }
        // The last line reflects all three batch requests' eval stages.
        let last: Content = serde_json::from_str(lines[1]).unwrap();
        let stages = last
            .get("server")
            .and_then(|s| s.get("stages"))
            .and_then(Content::as_seq)
            .unwrap();
        let eval = stages
            .iter()
            .find(|st| st.get("stage").and_then(Content::as_str) == Some("eval"))
            .unwrap();
        assert_eq!(eval.get("count").and_then(Content::as_u64), Some(3));
        assert!(eval.get("total_ns").and_then(Content::as_u64).unwrap() > 0);
    }

    #[test]
    fn serve_loop_over_buffers() {
        let s = Server::default();
        let mut input = compile_req("m");
        input.push('\n');
        input.push_str(r#"{"cmd":"eval","model":"m","values":[1e-9,1000.0]}"#);
        input.push('\n');
        input.push_str(r#"{"cmd":"shutdown"}"#);
        input.push('\n');
        // Lines after shutdown must not be processed.
        input.push_str(r#"{"cmd":"stats"}"#);
        input.push('\n');
        let mut out = Vec::new();
        s.serve(input.as_bytes(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "{text}");
        for l in &lines {
            let c: Content = serde_json::from_str(l).unwrap();
            assert!(ok_of(&c), "{l}");
        }
    }

    #[test]
    fn binary_negotiation_returns_a_frame_matching_ndjson_values() {
        let s = Server::default();
        s.handle_line(&compile_req("m")).unwrap();
        let req = r#"{"cmd":"batch","model":"m","points":[[1e-9,1e3],[2e-9,2e3],[1e-9]],"kind":"moments"}"#;
        let nd = s.handle_line(req).unwrap();
        assert_eq!(nd.encoding, WireEncoding::Ndjson);
        let bin = s
            .handle_line(&req.replace("\"kind\"", "\"encoding\":\"binary-v1\",\"kind\""))
            .unwrap();
        assert_eq!(bin.encoding, WireEncoding::BinaryV1);
        let frame = crate::encode::decode_frame(&bin.body).unwrap();
        assert_eq!(frame.count, 3);
        assert_eq!(frame.cols, 4, "order-2 model has 4 moments");
        assert_eq!(frame.ok_count, 2);
        assert_eq!(
            frame.code(2),
            Some(crate::ErrorCode::BadRequest),
            "arity error travels as a status byte"
        );
        // Values are bit-identical to the NDJSON path.
        let c = parse(&nd);
        let results = c.get("results").and_then(Content::as_seq).unwrap();
        for i in 0..2 {
            let m = results[i].get("moments").and_then(Content::as_seq).unwrap();
            for (col, v) in m.iter().enumerate() {
                assert_eq!(
                    frame.columns[col][i].to_bits(),
                    v.as_f64().unwrap().to_bits(),
                    "point {i} col {col}"
                );
            }
        }
        assert!(frame.columns.iter().all(|col| col[2].is_nan()));
    }

    #[test]
    fn binary_negotiation_rejections_are_typed_ndjson() {
        let s = Server::default();
        s.handle_line(&compile_req("m")).unwrap();
        // Unknown token.
        let r = s
            .handle_line(
                r#"{"cmd":"batch","model":"m","points":[[1e-9,1e3]],"encoding":"binary-v2"}"#,
            )
            .unwrap();
        assert_eq!(r.encoding, WireEncoding::Ndjson);
        let c = parse(&r);
        assert!(!ok_of(&c));
        assert_eq!(code_of(&c), Some("bad_request"));
        assert!(r.text().contains("ndjson|binary-v1"), "{}", r.text());
        // Binary on a non-batch command.
        let r = s
            .handle_line(r#"{"cmd":"eval","model":"m","values":[1e-9,1e3],"encoding":"binary-v1"}"#)
            .unwrap();
        assert_eq!(code_of(&parse(&r)), Some("bad_request"));
        // Variable-width kind.
        let r = s
            .handle_line(
                r#"{"cmd":"batch","model":"m","points":[[1e-9,1e3]],"kind":"rom","encoding":"binary-v1"}"#,
            )
            .unwrap();
        let c = parse(&r);
        assert_eq!(code_of(&c), Some("bad_request"));
        assert!(r.text().contains("rom"), "{}", r.text());
        // Explicit ndjson is accepted anywhere.
        let r = s
            .handle_line(r#"{"cmd":"eval","model":"m","values":[1e-9,1e3],"encoding":"ndjson"}"#)
            .unwrap();
        assert!(ok_of(&parse(&r)), "{}", r.text());
        // And the server still answers afterwards.
        let r = s
            .handle_line(
                r#"{"cmd":"batch","model":"m","points":[[1e-9,1e3]],"encoding":"binary-v1"}"#,
            )
            .unwrap();
        assert_eq!(r.encoding, WireEncoding::BinaryV1);
        crate::encode::decode_frame(&r.body).unwrap();
    }

    #[test]
    fn serve_loop_interleaves_binary_frames_without_newlines() {
        let s = Server::default();
        let mut input = compile_req("m");
        input.push('\n');
        input.push_str(r#"{"cmd":"batch","model":"m","points":[[1e-9,1e3]],"kind":"dc_gain","encoding":"binary-v1"}"#);
        input.push('\n');
        input.push_str(r#"{"cmd":"shutdown"}"#);
        input.push('\n');
        let mut out = Vec::new();
        s.serve(input.as_bytes(), &mut out).unwrap();
        // compile line + '\n', then a self-delimiting frame, then the
        // shutdown line + '\n'.
        let first_nl = out.iter().position(|&b| b == b'\n').unwrap();
        let rest = &out[first_nl + 1..];
        assert_eq!(&rest[..4], b"AWSB");
        let frame_len = crate::encode::BINARY_HEADER_LEN + 1 + 8;
        let frame = crate::encode::decode_frame(&rest[..frame_len]).unwrap();
        assert_eq!(frame.count, 1);
        assert_eq!(frame.cols, 1);
        let tail = String::from_utf8(rest[frame_len..].to_vec()).unwrap();
        let c: Content = serde_json::from_str(tail.trim()).unwrap();
        assert_eq!(c.get("shutdown").and_then(Content::as_bool), Some(true));
    }

    #[test]
    fn batch_deadline_covers_encode_time() {
        // A 0 ms deadline with evaluation already expired: the response
        // still reports per-point deadline errors (evaluation owns the
        // report), even though encoding also ran past the deadline.
        let s = Server::default();
        s.handle_line(&compile_req("m")).unwrap();
        let r = s
            .handle_line(
                r#"{"cmd":"batch","model":"m","points":[[1e-9,1e3]],"deadline_ms":0,"encoding":"binary-v1"}"#,
            )
            .unwrap();
        assert_eq!(r.encoding, WireEncoding::BinaryV1);
        let frame = crate::encode::decode_frame(&r.body).unwrap();
        assert!(frame.deadline_exceeded, "flag bit set");
        assert_eq!(frame.code(0), Some(crate::ErrorCode::DeadlineExceeded));
    }
}
