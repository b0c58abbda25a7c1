//! The `awesym serve --listen` child: start-up with its setup models,
//! client-side request accounting, and reconciliation with the server's
//! own `stats` counters.

use crate::gen::ModelSpec;
use crate::report::Report;
use crate::util::{median, Proc};
use crate::wire::Conn;
use awesym_partition::CompiledModel;
use serde::Content;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Server starts per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// Client-side outcome counts for one server instance.
#[derive(Default, Clone)]
pub struct Acct {
    pub sent: u64,
    pub ok: u64,
    /// Typed errors by `code`.
    pub typed: BTreeMap<String, u64>,
    /// `overloaded` / `unavailable` refusals.
    pub refused: u64,
    pub transport: u64,
    pub timeout: u64,
    /// Points of `batch` requests the server answered (what its
    /// `batch_points` counter must equal).
    pub batch_points: u64,
}

impl Acct {
    /// Classifies one NDJSON reply; true when `"ok":true`.
    pub fn reply(&mut self, c: &Content) -> bool {
        self.sent += 1;
        if c.get("ok").and_then(Content::as_bool) == Some(true) {
            self.ok += 1;
            return true;
        }
        let code = c
            .get("code")
            .and_then(Content::as_str)
            .unwrap_or("malformed_reply")
            .to_string();
        if code == "overloaded" || code == "unavailable" {
            self.refused += 1;
        } else {
            *self.typed.entry(code).or_default() += 1;
        }
        false
    }

    /// A binary frame reply: the request succeeded at the envelope level.
    pub fn frame(&mut self, points: u64) {
        self.sent += 1;
        self.ok += 1;
        self.batch_points += points;
    }

    pub fn failed(&self) -> u64 {
        self.typed.values().sum::<u64>() + self.refused + self.transport + self.timeout
    }

    pub fn merge(&mut self, o: &Acct) {
        self.sent += o.sent;
        self.ok += o.ok;
        for (k, v) in &o.typed {
            *self.typed.entry(k.clone()).or_default() += v;
        }
        self.refused += o.refused;
        self.transport += o.transport;
        self.timeout += o.timeout;
        self.batch_points += o.batch_points;
    }

    pub fn summary(&self) -> String {
        format!(
            "sent={} ok={} typed_error={:?} refused={} transport_error={} timeout={}",
            self.sent, self.ok, self.typed, self.refused, self.transport, self.timeout
        )
    }
}

/// A running server child plus its control connection.
pub struct Child {
    pub proc: Proc,
    pub addr: std::net::SocketAddr,
    pub ctl: Conn,
    /// Accounting for requests sent on the control connection.
    pub acct: Acct,
}

/// True when a `compile` reply describes exactly the in-process model.
pub fn compile_matches(reply: &Content, spec: &ModelSpec, model: &CompiledModel) -> bool {
    let u = |k: &str| reply.get(k).and_then(Content::as_u64);
    let symbols: Option<Vec<&str>> = reply
        .get("symbols")
        .and_then(Content::as_seq)
        .map(|s| s.iter().filter_map(Content::as_str).collect());
    let want: Vec<String> = model.symbols().iter().map(|s| s.to_string()).collect();
    reply.get("name").and_then(Content::as_str) == Some(spec.name.as_str())
        && u("order") == Some(model.order() as u64)
        && u("op_count") == Some(model.op_count() as u64)
        && u("raw_op_count") == Some(model.raw_op_count() as u64)
        && symbols.is_some_and(|s| s == want)
}

/// Spawns the server and compiles every setup model over the socket.
/// Returns the child and the spawn-to-ready time.
pub fn start(
    bin: &str,
    flags: &[String],
    models: &[(&ModelSpec, &CompiledModel)],
    wrong: &mut u64,
) -> Result<(Child, f64), String> {
    let t0 = Instant::now();
    let mut args = vec!["serve".to_string(), "--listen".into(), "127.0.0.1:0".into()];
    args.extend(flags.iter().cloned());
    let mut proc = Proc::spawn(bin, &args, false).map_err(|e| format!("spawn {bin}: {e}"))?;
    let addr = proc.wait_listening()?;
    let ctl = Conn::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut child = Child {
        proc,
        addr,
        ctl,
        acct: Acct::default(),
    };
    for (i, (spec, model)) in models.iter().enumerate() {
        let reply = child.ctl.call(&spec.compile_line(i as u64))?;
        if !child.acct.reply(&reply) {
            return Err(format!("setup compile of {} failed: {reply:?}", spec.name));
        }
        if !compile_matches(&reply, spec, model) {
            *wrong += 1;
        }
    }
    Ok((child, t0.elapsed().as_secs_f64()))
}

/// Starts the server `reps` times (each to ready), reports the median
/// set-up time, and keeps the last instance running.
pub fn start_median(
    bin: &str,
    flags: &[String],
    models: &[(&ModelSpec, &CompiledModel)],
    reps: usize,
    report: &mut Report,
) -> Result<Child, String> {
    let mut times = Vec::new();
    let mut last = None;
    for r in 0..reps {
        let (child, secs) = start(bin, flags, models, &mut report.wrong)?;
        times.push(secs);
        if r + 1 < reps {
            let exit = child.shutdown();
            if !exit.success {
                return Err(format!("server exited badly after setup: {}", exit.stderr));
            }
        } else {
            last = Some(child);
        }
    }
    report.note(&format!(
        "setup: {reps} starts to ready, seconds {:?}",
        times
            .iter()
            .map(|t| (t * 1e4).round() / 1e4)
            .collect::<Vec<_>>()
    ));
    report.metric("setup_s", median(&times), "s");
    last.ok_or_else(|| "no server started".into())
}

impl Child {
    pub fn stats(&mut self) -> Result<Content, String> {
        self.ctl.call(r#"{"cmd":"stats"}"#)
    }

    /// Sends `shutdown` and reaps the child (peak RSS comes with it).
    pub fn shutdown(mut self) -> crate::util::Exit {
        let _ = self.ctl.call(r#"{"cmd":"shutdown"}"#);
        self.proc.reap_within(Duration::from_secs(10))
    }
}

/// Facts read back from the server's `stats` reply.
pub struct ServerFacts {
    pub requests: u64,
    pub errors: u64,
    pub batch_points: u64,
    pub degradations: u64,
    /// Per stage: (requests through it, mean ns).
    pub stages: BTreeMap<String, (u64, f64)>,
    pub warm_hits: u64,
    pub warm_lookups: u64,
    pub promotions: u64,
    pub demotions: u64,
}

pub fn facts(stats: &Content) -> ServerFacts {
    let srv = stats.get("server");
    let u = |k: &str| {
        srv.and_then(|s| s.get(k))
            .and_then(Content::as_u64)
            .unwrap_or(0)
    };
    let mut stages = BTreeMap::new();
    for s in srv
        .and_then(|s| s.get("stages"))
        .and_then(Content::as_seq)
        .unwrap_or(&[])
    {
        if let Some(name) = s.get("stage").and_then(Content::as_str) {
            stages.insert(
                name.to_string(),
                (
                    s.get("count").and_then(Content::as_u64).unwrap_or(0),
                    s.get("mean_ns").and_then(Content::as_f64).unwrap_or(0.0),
                ),
            );
        }
    }
    let (mut hits, mut lookups, mut prom, mut dem) = (0, 0, 0, 0);
    for sh in stats.get("shards").and_then(Content::as_seq).unwrap_or(&[]) {
        let reg = sh.get("registry");
        let warm = reg.and_then(|r| r.get("warm"));
        let w = |k: &str| {
            warm.and_then(|r| r.get(k))
                .and_then(Content::as_u64)
                .unwrap_or(0)
        };
        let r = |k: &str| {
            reg.and_then(|r| r.get(k))
                .and_then(Content::as_u64)
                .unwrap_or(0)
        };
        hits += w("hits");
        lookups += w("hits") + w("misses");
        prom += r("promotions");
        dem += r("demotions");
    }
    ServerFacts {
        requests: u("requests"),
        errors: u("errors"),
        batch_points: u("batch_points"),
        degradations: u("degradations"),
        stages,
        warm_hits: hits,
        warm_lookups: lookups,
        promotions: prom,
        demotions: dem,
    }
}

impl ServerFacts {
    /// Mean server-side time per request: the sum of its stage clocks.
    pub fn server_us_per_req(&self) -> f64 {
        let total: f64 = self.stages.values().map(|&(n, mean)| n as f64 * mean).sum();
        total / self.requests.max(1) as f64 / 1e3
    }

    /// `net.transport_us_per_req`: what the client waited beyond the
    /// server's own stage time.
    pub fn transport_us(&self, client_lat_ms: &[f64]) -> f64 {
        let mean_ms = client_lat_ms.iter().sum::<f64>() / client_lat_ms.len().max(1) as f64;
        mean_ms * 1e3 - self.server_us_per_req()
    }
}

/// Compares client counts with the server's; returns each disagreement.
pub fn reconcile(acct: &Acct, f: &ServerFacts) -> Vec<String> {
    let mut out = Vec::new();
    let client_errors = acct.typed.values().sum::<u64>() + acct.refused;
    if f.requests != acct.sent {
        out.push(format!(
            "accounting: server counted {} requests, client sent {}",
            f.requests, acct.sent
        ));
    }
    if f.errors != client_errors {
        out.push(format!(
            "accounting: server counted {} errors, client saw {client_errors}",
            f.errors
        ));
    }
    if f.batch_points != acct.batch_points {
        out.push(format!(
            "accounting: server evaluated {} batch points, client was answered for {}",
            f.batch_points, acct.batch_points
        ));
    }
    out
}
