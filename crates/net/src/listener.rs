//! The TCP accept loop: bounded concurrent sessions over one shared
//! serve engine.
//!
//! [`NetServer::bind`] wraps an existing [`Server`] (the same engine
//! the stdin session drives) and [`NetServer::run`] accepts clients until
//! a `shutdown` request lands on any session or a `drain` winds the
//! fleet down. Limits are enforced at the door: past
//! [`NetConfig::max_conns`] a connection is answered with one typed
//! `overloaded` NDJSON line (with a depth-scaled `retry_after_ms`) and
//! closed; once the engine is draining, new connections get a typed
//! `unavailable` line while existing sessions finish their in-flight
//! requests and close — zero dropped responses by construction, since
//! each session answers everything it has read before checking the
//! drain state.

use crate::metrics::NetMetrics;
use crate::session::{self, Transport};
use awesym_serve::{adaptive_retry_after_ms, Server};
use serde::Content;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// How often the accept loop polls for new connections and re-checks
/// the drain/shutdown state.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// Socket read timeout: how often a blocked session rechecks the idle
/// clock, the drain state, and the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Socket front-end limits. The largest accepted message is the
/// engine's [`ServerConfig::max_line_bytes`](awesym_serve::ServerConfig::max_line_bytes),
/// the same on every transport.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetConfig {
    /// Concurrent connections accepted before newcomers are refused
    /// with a typed `overloaded` error.
    pub max_conns: usize,
    /// A connection with no traffic for this long is closed.
    pub idle_timeout: Duration,
    /// Longest a response write may block on a slow client before the
    /// connection is closed (per-connection write backpressure bound).
    pub write_timeout: Duration,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            max_conns: 256,
            idle_timeout: Duration::from_secs(60),
            write_timeout: Duration::from_secs(10),
        }
    }
}

/// A bound TCP front end over a shared serve engine.
pub struct NetServer {
    server: Arc<Server>,
    listener: TcpListener,
    cfg: NetConfig,
    metrics: Arc<NetMetrics>,
    shutdown: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
}

/// RAII decrement of the active-connection count.
struct ActiveGuard(Arc<AtomicUsize>);

impl Drop for ActiveGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

impl NetServer {
    /// Binds `addr` and registers the `net_…` metrics on the engine's
    /// registry.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(server: Arc<Server>, addr: impl ToSocketAddrs, cfg: NetConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let metrics = Arc::new(NetMetrics::new(server.stats().registry()));
        Ok(NetServer {
            server,
            listener,
            cfg,
            metrics,
            shutdown: Arc::new(AtomicBool::new(false)),
            active: Arc::new(AtomicUsize::new(0)),
        })
    }

    /// The bound address (useful after binding port 0).
    ///
    /// # Errors
    ///
    /// Propagates the socket-name lookup failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared engine.
    pub fn server(&self) -> &Arc<Server> {
        &self.server
    }

    /// Aggregate socket metrics.
    pub fn metrics(&self) -> &NetMetrics {
        &self.metrics
    }

    /// Currently open connections.
    pub fn active_connections(&self) -> usize {
        self.active.load(Ordering::Acquire)
    }

    /// Asks the accept loop and every session to stop (same effect as
    /// a client sending `shutdown`).
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Accepts and serves connections until a `shutdown` request lands
    /// on any session, [`NetServer::request_shutdown`] is called, or a
    /// `drain` finishes winding the sessions down. Returns only after
    /// every session thread has exited.
    ///
    /// # Errors
    ///
    /// Propagates unexpected accept-loop failures; per-connection
    /// errors never kill the loop.
    pub fn run(&self) -> io::Result<()> {
        self.listener.set_nonblocking(true)?;
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let draining = self.server.draining();
            match self.listener.accept() {
                Ok((stream, _)) => {
                    // The accepted socket must not inherit the
                    // listener's non-blocking mode; sessions use
                    // timeouts instead.
                    stream.set_nonblocking(false)?;
                    if draining {
                        self.metrics.refused_draining.inc();
                        refuse(
                            stream,
                            "unavailable",
                            "server is draining; not accepting new connections",
                            self.server.config().retry_after_ms,
                        );
                    } else if self.active.load(Ordering::Acquire) >= self.cfg.max_conns {
                        self.metrics.rejected.inc();
                        let active = self.active.load(Ordering::Acquire);
                        refuse(
                            stream,
                            "overloaded",
                            &format!(
                                "connection limit reached ({active} active, limit {})",
                                self.cfg.max_conns
                            ),
                            adaptive_retry_after_ms(
                                self.server.config().retry_after_ms,
                                active,
                                self.cfg.max_conns,
                            ),
                        );
                    } else {
                        self.spawn_session(stream);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if draining && self.active.load(Ordering::Acquire) == 0 {
                        // Drain complete: every session answered its
                        // in-flight work and closed.
                        break;
                    }
                    thread::sleep(ACCEPT_POLL);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        // Sessions poll the shutdown flag/drain state every
        // `POLL_INTERVAL`; wait for the last one to exit.
        while self.active.load(Ordering::Acquire) > 0 {
            thread::sleep(ACCEPT_POLL);
        }
        Ok(())
    }

    fn spawn_session(&self, stream: TcpStream) {
        let server = Arc::clone(&self.server);
        let shutdown = Arc::clone(&self.shutdown);
        let cfg = self.cfg.clone();
        self.active.fetch_add(1, Ordering::AcqRel);
        let guard = ActiveGuard(Arc::clone(&self.active));
        let spawned = thread::Builder::new()
            .name("awesym-net-conn".to_string())
            .spawn(move || {
                let _guard = guard;
                // Nodelay: responses are small and latency-sensitive;
                // nothing here benefits from Nagle batching.
                let _ = stream.set_nodelay(true);
                // The write timeout bounds backpressure: a client that
                // stops reading its responses is disconnected.
                let timeouts = stream
                    .set_read_timeout(Some(POLL_INTERVAL))
                    .and_then(|()| stream.set_write_timeout(Some(cfg.write_timeout)));
                let transport = Transport {
                    shutdown: Some(&shutdown),
                    idle_timeout: Some(cfg.idle_timeout),
                    close_on_drain: true,
                    stats_out: None,
                };
                // Per-connection errors end that session only.
                if timeouts.is_ok() {
                    let _ = session::run(&server, transport, &stream, &stream);
                }
            });
        if spawned.is_err() {
            // Thread spawn failed: the guard moved into the closure
            // that never ran, so the count was already released by the
            // builder dropping it; nothing else to undo.
            self.metrics.rejected.inc();
        }
    }
}

/// Answers a refused connection with one typed NDJSON error line —
/// the same envelope shape the engine's own errors use — and closes.
fn refuse(mut stream: TcpStream, code: &str, error: &str, retry_after_ms: u64) {
    let line = Content::Map(vec![
        ("ok".to_string(), Content::Bool(false)),
        ("error".to_string(), Content::Str(error.to_string())),
        ("code".to_string(), Content::Str(code.to_string())),
        ("retry_after_ms".to_string(), Content::U64(retry_after_ms)),
    ]);
    let mut body = serde_json::to_string(&line).unwrap_or_default();
    body.push('\n');
    let _ = stream
        .write_all(body.as_bytes())
        .and_then(|()| stream.flush());
    let _ = stream.shutdown(std::net::Shutdown::Both);
}
