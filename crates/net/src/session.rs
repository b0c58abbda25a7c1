//! The request loop every transport runs.
//!
//! [`run`] drives one session over any `Read`/`Write` pair: fill the
//! [`RecvBuf`], hand each complete message to the serve engine (NDJSON
//! lines via `handle_line_into`, binary request frames decoded then
//! `handle_decoded_into`), frame and write the response. A TCP
//! connection ([`crate::NetServer`]) and `awesym serve` on stdin/stdout
//! both run it and differ only in the [`Transport`] they pass in, so
//! the same request bytes get the same response bytes on either. Every
//! session feeds the same `&self`-shared engine, so per-shard breakers,
//! queue bounds, and the in-flight budget apply across sessions.

use crate::frame;
use crate::metrics::{ConnScope, NetMetrics};
use crate::reader::{MessageKind, RecvBuf};
use awesym_obs::now_ns;
use awesym_serve::{ServeError, Server, WireEncoding};
use std::io::{self, ErrorKind, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// What a transport passes to [`run`]: the only ways two sessions may
/// differ. The default fits a pipe (stdin/stdout).
#[derive(Default)]
pub struct Transport<'a> {
    /// Stop flag shared with the rest of the process: a `shutdown`
    /// request sets it, and the session ends between messages once
    /// anything else sets it.
    pub shutdown: Option<&'a AtomicBool>,
    /// Close the session after this long without input. `Some` also
    /// declares that the reader times out (a socket with a read
    /// timeout), which is how a blocked session rechecks the idle
    /// clock, the drain state and the shutdown flag. With `None` a
    /// timed-out read is an error.
    pub idle_timeout: Option<Duration>,
    /// Close once the engine is draining and nothing is buffered.
    /// Without it the session keeps answering after `drain` (the shards
    /// refuse heavy work) until EOF or `shutdown`.
    pub close_on_drain: bool,
    /// Sink for one NDJSON stats line every
    /// [`ServerConfig::stats_every`](awesym_serve::ServerConfig::stats_every)
    /// handled requests. A failed write drops the line and counts it in
    /// `stats_dropped`; it never stops the session.
    pub stats_out: Option<&'a mut dyn Write>,
}

/// True for the error kinds a read/write timeout produces (platforms
/// disagree on which of the two it is).
fn is_timeout(kind: ErrorKind) -> bool {
    matches!(kind, ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// Runs one session until EOF, `shutdown`, or a transport exit. At EOF
/// an unterminated final line is answered; a partial binary frame is
/// dropped.
///
/// # Errors
///
/// Read and write failures on `reader`/`writer`. EOF, idle timeout,
/// write timeout (a client that stopped reading), framing errors (after
/// a typed answer), drain, and shutdown are normal `Ok` exits.
pub fn run<R: Read, W: Write>(
    server: &Server,
    mut transport: Transport<'_>,
    mut reader: R,
    mut writer: W,
) -> io::Result<()> {
    let config = server.config();
    // Registry handles are shared by name: these are the counters the
    // listener and every other session on this engine update.
    let metrics = NetMetrics::new(server.stats().registry());
    let mut scope = ConnScope::open(&metrics);
    let mut rb = RecvBuf::with_limit(config.max_line_bytes);
    let mut out: Vec<u8> = Vec::with_capacity(4096);
    let mut handled: u64 = 0;
    let mut last_activity = Instant::now();
    let mut wait_start: Option<u64> = None;
    let mut eof = false;
    loop {
        // Answer every complete message already buffered before
        // reading again.
        loop {
            let span = match rb.scan() {
                Ok(Some(span)) => span,
                Ok(None) if eof => match rb.scan_final() {
                    Some(span) => span,
                    None => break,
                },
                Ok(None) => break,
                Err(e) => {
                    // Framing errors desync the byte stream: answer
                    // with the typed error, then close — there is no
                    // way to find the next message boundary.
                    metrics.closed_protocol.inc();
                    let err = Err(ServeError::BadRequest {
                        what: e.to_string(),
                    });
                    out.clear();
                    server.handle_decoded_into(err, WireEncoding::Ndjson, None, &mut out);
                    out.push(b'\n');
                    if writer.write_all(&out).and_then(|()| writer.flush()).is_ok() {
                        scope.record_bytes_out(out.len() as u64);
                    }
                    return Ok(());
                }
            };
            let is_frame = span.kind == MessageKind::Frame;
            let bytes = rb.take(span);
            out.clear();
            let meta = if is_frame {
                let d0 = now_ns();
                let req = frame::decode_request(bytes).map_err(|e| ServeError::BadRequest {
                    what: format!("binary request frame: {e}"),
                });
                let dur = now_ns().saturating_sub(d0);
                Some(server.handle_decoded_into(
                    req,
                    WireEncoding::BinaryV1,
                    config.observe.then_some((d0, dur)),
                    &mut out,
                ))
            } else if let Ok(text) = std::str::from_utf8(bytes) {
                // Zero-copy: the line is handled straight out of the
                // receive buffer.
                server.handle_line_into(text, &mut out)
            } else {
                let what = "request line is not valid UTF-8".to_string();
                let err = Err(ServeError::BadRequest { what });
                Some(server.handle_decoded_into(err, WireEncoding::Ndjson, None, &mut out))
            };
            let Some(meta) = meta else {
                continue; // blank line
            };
            // NDJSON responses are newline-framed; binary frames are
            // self-delimiting (explicit lengths in the header).
            if meta.encoding == WireEncoding::Ndjson {
                out.push(b'\n');
            }
            scope.record_request(is_frame);
            match writer.write_all(&out).and_then(|()| writer.flush()) {
                Ok(()) => scope.record_bytes_out(out.len() as u64),
                // Write backpressure bound: a client that stops reading
                // its responses is closed instead of parking the
                // session forever.
                Err(e) if is_timeout(e.kind()) => {
                    metrics.closed_slow.inc();
                    return Ok(());
                }
                Err(e) => return Err(e),
            }
            handled += 1;
            if let Some(sink) = transport.stats_out.as_deref_mut() {
                if config.stats_every > 0 && handled.is_multiple_of(config.stats_every) {
                    out.clear();
                    server.stats_line_into(&mut out);
                    out.push(b'\n');
                    if sink.write_all(&out).and_then(|()| sink.flush()).is_err() {
                        server.stats().record_stats_dropped();
                    }
                }
            }
            if meta.shutdown {
                if let Some(flag) = transport.shutdown {
                    flag.store(true, Ordering::SeqCst);
                }
                return Ok(());
            }
        }
        // Orderly exits, checked between messages so a request already
        // received is always answered first.
        if eof || transport.shutdown.is_some_and(|f| f.load(Ordering::SeqCst)) {
            return Ok(());
        }
        if transport.close_on_drain && server.draining() && rb.available() == 0 {
            // Drain: this session's in-flight requests were answered
            // above; close so the listener can finish winding down.
            return Ok(());
        }
        if config.observe && wait_start.is_none() {
            wait_start = Some(now_ns());
        }
        match rb.fill(&mut reader) {
            Ok(0) => eof = true,
            Ok(n) => {
                // Blocked-on-client time is `wait`, never `parse`.
                if let Some(w0) = wait_start.take() {
                    server.stats().record_wait(now_ns().saturating_sub(w0));
                }
                scope.record_bytes_in(n as u64);
                last_activity = Instant::now();
            }
            Err(e) if is_timeout(e.kind()) => {
                let Some(idle) = transport.idle_timeout else {
                    return Err(e);
                };
                if last_activity.elapsed() >= idle {
                    metrics.closed_idle.inc();
                    return Ok(());
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}
