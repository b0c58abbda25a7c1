//! Loopback integration suite for the socket front end.
//!
//! The contract under test: the TCP path is a *transport*, not a
//! different server — concurrent mixed-encoding sessions produce
//! responses byte-identical to the stdin/stdout loop, and the
//! operational edges (drain, connection limit, idle timeout, protocol
//! errors, shutdown) close connections with typed answers, never
//! silently dropped requests.

mod common;

use awesym_net::{NetConfig, RequestKind};
use awesym_serve::{ErrorCode, Server, ServerConfig};
use common::*;
use serde::Content;
use std::time::{Duration, Instant};

/// The ISSUE acceptance bar: ≥8 concurrent clients, interleaved
/// NDJSON/binary sessions, every response bit-identical to the stdin
/// path (timing fields masked).
#[test]
fn eight_concurrent_mixed_sessions_match_the_stdin_path_byte_for_byte() {
    assert_socket_matches_stdin(8, 6);
}

/// Drain semantics over the socket (satellites 2 + 3):
///
/// - a client whose batch is in flight when `drain` lands still gets
///   its response before the socket closes;
/// - a request completed *after* the drain answers with a typed
///   `unavailable` (+ `retry_after_ms`) on the same connection — for
///   both request encodings — then the session closes;
/// - brand-new connections are refused with one typed `unavailable`
///   line;
/// - the accept loop itself winds down once the last session exits.
#[test]
fn drain_answers_inflight_then_closes_and_refuses_new_connections() {
    let h = Harness::start(Server::default(), NetConfig::default());

    let mut driver = h.connect();
    driver.send_line(&compile_line("m"));
    assert!(ok_of(&parse_line(&driver.read_line())));

    // Two sessions parked mid-message: their half-sent requests keep
    // them open across the drain, so they can observe post-drain
    // behavior on an established connection.
    let spec = BatchSpec::new("m", grid(1, 1, 8), RequestKind::Moments);
    let straggler_line = spec.json_line(None);
    let split = straggler_line.len() / 2;
    let mut json_straggler = h.connect();
    let frame_bytes = spec.frame();
    let mut frame_straggler = h.connect();
    // A full round-trip each: the stragglers must be accepted, live
    // sessions *before* the drain, or the accept loop would refuse them
    // as newcomers.
    for straggler in [&mut json_straggler, &mut frame_straggler] {
        straggler.send_line("{\"cmd\":\"stats\"}");
        assert!(ok_of(&parse_line(&straggler.read_line())));
    }
    json_straggler.send(straggler_line[..split].as_bytes());
    frame_straggler.send(&frame_bytes[..10]);
    // Let both sessions buffer their half-sent request: pending bytes
    // are what keeps a session open across the drain.
    std::thread::sleep(Duration::from_millis(100));

    // Pipeline a batch and the drain in one write: the batch is
    // buffered in flight when drain lands and must be answered first.
    let inflight = BatchSpec::new("m", grid(0, 0, 12), RequestKind::Delays);
    let mut burst = inflight.json_line(None).into_bytes();
    burst.push(b'\n');
    burst.extend_from_slice(b"{\"cmd\":\"drain\"}\n");
    driver.send(&burst);

    let batch = parse_line(&driver.read_line());
    assert!(ok_of(&batch), "in-flight batch dropped by drain: {batch:?}");
    assert_eq!(batch.get("count").and_then(Content::as_u64), Some(12));
    let drain = parse_line(&driver.read_line());
    assert_eq!(drain.get("draining").and_then(Content::as_bool), Some(true));
    // Nothing left buffered on a draining session: it closes.
    assert_eq!(driver.read_to_eof(), b"");

    // New connections are refused at the door with a typed line.
    let mut late = h.connect();
    let refusal = parse_line(&late.read_line());
    assert_eq!(refusal.get("ok").and_then(Content::as_bool), Some(false));
    assert_eq!(
        refusal.get("code").and_then(Content::as_str),
        Some("unavailable")
    );
    assert_eq!(
        refusal.get("retry_after_ms").and_then(Content::as_u64),
        Some(ServerConfig::default().retry_after_ms)
    );
    assert_eq!(late.read_to_eof(), b"");

    // The stragglers finish their requests mid-drain: evaluation is
    // refused shard-side with the typed `unavailable` + retry hint —
    // the same error byte the wire taxonomy pins — and the NDJSON
    // fallback applies to the binary request too.
    json_straggler.send(straggler_line[split..].as_bytes());
    json_straggler.send(b"\n");
    let refused = parse_line(&json_straggler.read_line());
    assert_eq!(
        refused.get("code").and_then(Content::as_str),
        Some(ErrorCode::Unavailable.as_str())
    );
    assert_eq!(ErrorCode::Unavailable.wire_byte(), 8);
    assert!(refused.get("retry_after_ms").and_then(Content::as_u64) >= Some(1));
    assert_eq!(json_straggler.read_to_eof(), b"");

    frame_straggler.send(&frame_bytes[10..]);
    let refused = parse_line(&frame_straggler.read_line());
    assert_eq!(
        refused.get("code").and_then(Content::as_str),
        Some("unavailable")
    );
    assert!(refused.get("retry_after_ms").and_then(Content::as_u64) >= Some(1));
    assert_eq!(frame_straggler.read_to_eof(), b"");

    assert_eq!(h.net.metrics().refused_draining.get(), 1);
    assert_eq!(h.net.metrics().closed_protocol.get(), 0);
    // Drain complete: the accept loop returns on its own.
    h.join().expect("accept loop exits cleanly after drain");
}

/// Past `max_conns`, newcomers get one typed `overloaded` line with the
/// adaptive retry hint and are closed; the slot frees when a session
/// ends.
#[test]
fn connection_limit_refuses_with_typed_overloaded_line() {
    let h = Harness::start(
        Server::default(),
        NetConfig {
            max_conns: 1,
            ..NetConfig::default()
        },
    );
    let mut first = h.connect();
    // A full round-trip guarantees the first session occupies its slot.
    first.send_line("{\"cmd\":\"stats\"}");
    assert!(ok_of(&parse_line(&first.read_line())));

    let mut second = h.connect();
    let refusal = parse_line(&second.read_line());
    assert_eq!(refusal.get("ok").and_then(Content::as_bool), Some(false));
    assert_eq!(
        refusal.get("code").and_then(Content::as_str),
        Some("overloaded")
    );
    assert!(refusal.get("retry_after_ms").and_then(Content::as_u64) >= Some(1));
    assert_eq!(second.read_to_eof(), b"");
    assert_eq!(h.net.metrics().rejected.get(), 1);

    // Closing the first session frees the slot.
    drop(first);
    let deadline = Instant::now() + Duration::from_secs(5);
    while h.net.active_connections() > 0 {
        assert!(Instant::now() < deadline, "slot never freed after close");
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut retry = h.connect();
    retry.send_line("{\"cmd\":\"stats\"}");
    assert!(ok_of(&parse_line(&retry.read_line())));
}

/// A silent connection is closed once the idle timeout elapses, and the
/// close is attributed to the idle counter, not an error.
#[test]
fn idle_connections_are_closed_and_counted() {
    let h = Harness::start(
        Server::default(),
        NetConfig {
            idle_timeout: Duration::from_millis(100),
            ..NetConfig::default()
        },
    );
    let mut idle = h.connect();
    // Activity resets the clock; afterwards, silence.
    idle.send_line("{\"cmd\":\"stats\"}");
    assert!(ok_of(&parse_line(&idle.read_line())));
    let t0 = Instant::now();
    assert_eq!(idle.read_to_eof(), b"");
    let elapsed = t0.elapsed();
    assert!(
        elapsed >= Duration::from_millis(75),
        "closed too early: {elapsed:?}"
    );
    assert_eq!(h.net.metrics().closed_idle.get(), 1);
}

/// A framing error desyncs the stream: the session answers one typed
/// `bad_request` line and closes, and the close is attributed to the
/// protocol counter.
#[test]
fn bad_frame_header_gets_typed_error_then_close() {
    let h = Harness::start(Server::default(), NetConfig::default());
    let mut c = h.connect();
    let mut frame = BatchSpec::new("m", grid(0, 0, 2), RequestKind::Moments).frame();
    frame[4] = 9; // bad version
    c.send(&frame);
    let err = parse_line(&c.read_line());
    assert_eq!(err.get("ok").and_then(Content::as_bool), Some(false));
    assert_eq!(
        err.get("code").and_then(Content::as_str),
        Some("bad_request")
    );
    assert!(
        err.get("error")
            .and_then(Content::as_str)
            .is_some_and(|e| e.contains("version")),
        "{err:?}"
    );
    assert_eq!(c.read_to_eof(), b"");
    assert_eq!(h.net.metrics().closed_protocol.get(), 1);
}

/// A message past `max_line_bytes` is a typed error and a close, for
/// both an oversized line and a frame whose header declares too much.
#[test]
fn oversized_messages_get_typed_error_then_close() {
    let h = Harness::start(
        Server::with_config(ServerConfig {
            max_line_bytes: 256,
            ..ServerConfig::default()
        }),
        NetConfig::default(),
    );
    let mut c = h.connect();
    c.send(&vec![b'x'; 512]);
    let err = parse_line(&c.read_line());
    assert_eq!(
        err.get("code").and_then(Content::as_str),
        Some("bad_request")
    );
    assert!(
        err.get("error")
            .and_then(Content::as_str)
            .is_some_and(|e| e.contains("limit")),
        "{err:?}"
    );
    assert_eq!(c.read_to_eof(), b"");

    let mut c = h.connect();
    // 4096 points × 2 symbols × 8 bytes declared: rejected from the
    // header alone, before any payload is buffered.
    c.send(&BatchSpec::new("m", grid(0, 0, 4096), RequestKind::Moments).frame()[..44]);
    let err = parse_line(&c.read_line());
    assert_eq!(
        err.get("code").and_then(Content::as_str),
        Some("bad_request")
    );
    assert_eq!(c.read_to_eof(), b"");
    assert_eq!(h.net.metrics().closed_protocol.get(), 2);
}

/// A client that half-closes after an unterminated line still gets that
/// line answered (the EOF rule stdin follows too); a frame cut short by
/// EOF is dropped without an answer.
#[test]
fn eof_answers_an_unterminated_final_line() {
    let h = Harness::start(Server::default(), NetConfig::default());
    let mut c = h.connect();
    c.send(b"{\"cmd\":\"stats\"}\n{\"cmd\":\"health\",\"id\":5}");
    assert!(ok_of(&parse_line(&c.read_line())));
    c.finish_sending();
    let health = parse_line(&c.read_line());
    assert!(ok_of(&health), "{health:?}");
    assert_eq!(health.get("id").and_then(Content::as_u64), Some(5));
    assert_eq!(c.read_to_eof(), b"");

    let mut c = h.connect();
    let frame = BatchSpec::new("m", grid(0, 0, 2), RequestKind::Moments).frame();
    c.send(&frame[..frame.len() - 1]);
    c.finish_sending();
    assert_eq!(c.read_to_eof(), b"");
    assert_eq!(h.net.metrics().closed_protocol.get(), 0);
}

/// A `shutdown` request over any session stops the whole front end:
/// the sender gets its response, every session closes, and the accept
/// loop returns.
#[test]
fn shutdown_over_a_socket_session_stops_the_listener() {
    let h = Harness::start(Server::default(), NetConfig::default());
    let mut bystander = h.connect();
    bystander.send_line("{\"cmd\":\"stats\"}");
    assert!(ok_of(&parse_line(&bystander.read_line())));

    let mut c = h.connect();
    c.send_line("{\"cmd\":\"shutdown\"}");
    let resp = parse_line(&c.read_line());
    assert_eq!(resp.get("shutdown").and_then(Content::as_bool), Some(true));
    assert_eq!(c.read_to_eof(), b"");
    // The bystander session notices the flag on its next poll.
    assert_eq!(bystander.read_to_eof(), b"");
    h.join().expect("accept loop exits after shutdown");
}

/// Frames with one request-level fault get the same NDJSON error bytes
/// the engine produced before frames decoded to a typed request, and the
/// session keeps serving after each.
#[test]
fn single_fault_frames_keep_their_error_bytes() {
    let h = Harness::start(
        Server::with_config(ServerConfig {
            max_batch_points: 4,
            ..ServerConfig::default()
        }),
        NetConfig::default(),
    );
    let mut c = h.connect();
    c.send_line(&compile_line("m"));
    assert!(ok_of(&parse_line(&c.read_line())));
    let mut nan_point = BatchSpec::new(
        "m",
        vec![vec![1e-9, 1e3], vec![2e-9, f64::NAN]],
        RequestKind::Moments,
    );
    nan_point.id = Some("7".into());
    let mut inf_time = BatchSpec::new("m", vec![vec![1e-9, 1e3]], RequestKind::Step);
    inf_time.times = vec![1e-9, f64::INFINITY];
    inf_time.deadline_ms = Some(5000);
    let mut bad_kind = BatchSpec::new("m", vec![vec![1e-9, 1e3]], RequestKind::Moments).frame();
    bad_kind[40] = 7;
    let mut bad_id = BatchSpec::new("m", vec![vec![1e-9, 1e3]], RequestKind::Moments);
    bad_id.id = Some("{not".into());
    let cases: [(Vec<u8>, &str); 6] = [
        (
            nan_point.frame(),
            r#"{"ok":false,"id":7,"error":"bad request: each point has a non-finite value at index 1","code":"bad_request"}"#,
        ),
        (
            BatchSpec::new("ghost", vec![vec![1e-9, 1e3]], RequestKind::DcGain).frame(),
            r#"{"ok":false,"error":"no model named 'ghost' in registry","code":"not_found"}"#,
        ),
        (
            BatchSpec::new("m", vec![vec![1e-9, 1e3]; 5], RequestKind::Delays).frame(),
            r#"{"ok":false,"error":"bad request: batch has 5 points, limit is 4","code":"bad_request"}"#,
        ),
        (
            inf_time.frame(),
            r#"{"ok":false,"error":"bad request: 'times' has a non-finite value at index 1","code":"bad_request"}"#,
        ),
        (
            bad_kind,
            r#"{"ok":false,"error":"bad request: binary request frame: unknown output kind byte 7 (0=moments 1=dc_gain 2=delays 3=step)","code":"bad_request"}"#,
        ),
        (
            bad_id.frame(),
            r#"{"ok":false,"error":"bad request: binary request frame: id section is not valid JSON","code":"bad_request"}"#,
        ),
    ];
    for (frame, want) in &cases {
        c.send(frame);
        assert_eq!(String::from_utf8(c.read_line()).unwrap(), *want);
    }
    c.send_line("{\"cmd\":\"stats\"}");
    assert!(ok_of(&parse_line(&c.read_line())));
}

/// A 45-byte frame declaring ten million points of zero symbols each is
/// refused from its header — one typed `bad_request`, nothing allocated
/// for the points — and the session goes on serving.
#[test]
fn zero_symbol_frame_is_refused_and_the_session_keeps_serving() {
    let h = Harness::start(Server::default(), NetConfig::default());
    let mut c = h.connect();
    c.send_line(&compile_line("m"));
    assert!(ok_of(&parse_line(&c.read_line())));
    let mut frame = BatchSpec::new("m", grid(0, 0, 1), RequestKind::Moments).frame();
    frame[8..12].copy_from_slice(&10_000_000u32.to_le_bytes());
    frame[12..16].copy_from_slice(&0u32.to_le_bytes());
    frame.truncate(45);
    c.send(&frame);
    let err = parse_line(&c.read_line());
    assert_eq!(
        err.get("code").and_then(Content::as_str),
        Some("bad_request")
    );
    assert!(
        err.get("error")
            .and_then(Content::as_str)
            .is_some_and(|e| e.contains("0 symbols")),
        "{err:?}"
    );
    // Still serving, over both encodings.
    c.send(&BatchSpec::new("m", grid(0, 0, 3), RequestKind::DcGain).frame());
    let frame = awesym_serve::decode_frame(&c.read_frame()).expect("binary response");
    assert_eq!(frame.ok_count, 3);
    c.send_line("{\"cmd\":\"stats\"}");
    assert!(ok_of(&parse_line(&c.read_line())));
    assert_eq!(h.net.metrics().closed_protocol.get(), 0);
}
