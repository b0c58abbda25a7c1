//! Observability substrate for the AWEsymbolic stack.
//!
//! The paper's pitch is microsecond evaluation; this crate exists to keep
//! that claim *visible* as the serving stack grows. It deliberately has
//! zero dependencies (not even the vendored serde stand-ins) so every
//! crate in the workspace — down to the symbolic tape evaluator — can
//! depend on it without cycles:
//!
//! - [`trace`]: structured span tracing. A [`trace::Tracer`] timestamps
//!   span enter/exit against a process-wide monotonic epoch, tags each
//!   record with a stable thread ordinal, and stores records in a
//!   fixed-capacity ring buffer that can be drained as NDJSON.
//! - [`metrics`]: a named registry of [`metrics::Counter`]s,
//!   [`metrics::Gauge`]s, and fixed-bucket [`metrics::Histogram`]s. The
//!   hot paths are single relaxed atomic RMWs; registration and snapshots
//!   take a lock but happen off the request path.
//! - [`sample`]: [`sample::Sampler`], the cheap `1/N` guard that keeps
//!   always-compiled profiling hooks (no feature gates) out of the hot
//!   path's way.
//! - [`exec`]: the supervised [`exec::Executor`], the one worker pool
//!   that batch serving and Monte Carlo runs both submit chunked
//!   [`exec::Job`]s to.
//!
//! JSON is produced by a tiny built-in encoder ([`json_escape`]) so the
//! crate stays dependency-free; the output is plain NDJSON any tool can
//! ingest.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod exec;
pub mod metrics;
pub mod sample;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricValue, Registry};
pub use sample::Sampler;
pub use trace::{SpanGuard, SpanRecord, Tracer};

use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the process-wide monotonic epoch (first call wins).
///
/// All span timestamps share this epoch, so records from different
/// threads and tracers order consistently.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Appends `s` to `out` as a JSON string literal (quotes included).
///
/// Handles the escapes NDJSON consumers care about: quotes, backslashes,
/// and control characters (as `\u00XX`).
pub fn json_escape(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }

    #[test]
    fn json_escape_covers_specials() {
        let mut s = String::new();
        json_escape(&mut s, "a\"b\\c\nd\te\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    }
}
