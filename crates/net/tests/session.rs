//! The session loop over byte buffers, the way `awesym serve` runs it on
//! stdin/stdout: shutdown stops reading, binary frames interleave with
//! NDJSON lines, periodic stats go to the sink the transport passes in
//! (and a dead sink never stalls the loop), and EOF answers an
//! unterminated final line.

mod common;

use awesym_net::{session, Transport};
use awesym_serve::encode::BINARY_HEADER_LEN;
use awesym_serve::{decode_frame, Server, ServerConfig};
use common::{compile_line, ok_of};
use serde::Content;
use std::io::Write;

/// Runs a pipe session over `input`, returning the response bytes.
fn serve(s: &Server, input: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    session::run(s, Transport::default(), input, &mut out).unwrap();
    out
}

/// Runs a pipe session with a stats sink.
fn serve_with_stats(s: &Server, input: &[u8], stats: &mut dyn Write) -> Vec<u8> {
    let mut out = Vec::new();
    let transport = Transport {
        stats_out: Some(stats),
        ..Transport::default()
    };
    session::run(s, transport, input, &mut out).unwrap();
    out
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
    let mut input = compile_line("m");
    input.push('\n');
    for _ in 0..3 {
        input.push_str(r#"{"cmd":"eval","model":"m","values":[1e-9,1e3]}"#);
        input.push('\n');
    }
    let out = serve_with_stats(&s, input.as_bytes(), &mut BrokenSink);
    // Every request answered despite 4 failed stats writes.
    let text = String::from_utf8(out).unwrap();
    assert_eq!(text.lines().count(), 4, "{text}");
    for l in text.lines() {
        assert!(ok_of(&serde_json::from_str(l).unwrap()), "{l}");
    }
    let snap = s.stats().snapshot();
    assert_eq!(snap.stats_dropped, 4);
    // And the drop counter is visible on the stats command.
    let r = s.handle_line(r#"{"cmd":"stats"}"#).unwrap();
    let c: Content = serde_json::from_str(r.text()).unwrap();
    assert_eq!(
        c.get("server")
            .and_then(|v| v.get("stats_dropped"))
            .and_then(Content::as_u64),
        Some(4)
    );
}

#[test]
fn stats_every_emits_periodic_ndjson_lines() {
    let s = Server::with_config(ServerConfig {
        stats_every: 2,
        ..ServerConfig::default()
    });
    let mut input = compile_line("m");
    input.push('\n');
    for _ in 0..3 {
        input.push_str(r#"{"cmd":"batch","model":"m","points":[[1e-9,1e3],[2e-9,2e3]]}"#);
        input.push('\n');
    }
    let mut stats = Vec::new();
    let out = serve_with_stats(&s, input.as_bytes(), &mut stats);
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
    let mut input = compile_line("m");
    input.push('\n');
    input.push_str(r#"{"cmd":"eval","model":"m","values":[1e-9,1000.0]}"#);
    input.push('\n');
    input.push_str(r#"{"cmd":"shutdown"}"#);
    input.push('\n');
    // Lines after shutdown must not be processed.
    input.push_str(r#"{"cmd":"stats"}"#);
    input.push('\n');
    let out = serve(&s, input.as_bytes());
    let text = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3, "{text}");
    for l in &lines {
        let c: Content = serde_json::from_str(l).unwrap();
        assert!(ok_of(&c), "{l}");
    }
}

#[test]
fn serve_loop_interleaves_binary_frames_without_newlines() {
    let s = Server::default();
    let mut input = compile_line("m");
    input.push('\n');
    input.push_str(r#"{"cmd":"batch","model":"m","points":[[1e-9,1e3]],"kind":"dc_gain","encoding":"binary-v1"}"#);
    input.push('\n');
    input.push_str(r#"{"cmd":"shutdown"}"#);
    input.push('\n');
    let out = serve(&s, input.as_bytes());
    // compile line + '\n', then a self-delimiting frame, then the
    // shutdown line + '\n'.
    let first_nl = out.iter().position(|&b| b == b'\n').unwrap();
    let rest = &out[first_nl + 1..];
    assert_eq!(&rest[..4], b"AWSB");
    let frame_len = BINARY_HEADER_LEN + 1 + 8;
    let frame = decode_frame(&rest[..frame_len]).unwrap();
    assert_eq!(frame.count, 1);
    assert_eq!(frame.cols, 1);
    let tail = String::from_utf8(rest[frame_len..].to_vec()).unwrap();
    let c: Content = serde_json::from_str(tail.trim()).unwrap();
    assert_eq!(c.get("shutdown").and_then(Content::as_bool), Some(true));
}

/// At EOF an unterminated NDJSON line is the last message and gets an
/// answer; a frame cut short can never complete and gets none.
#[test]
fn eof_answers_an_unterminated_line_and_drops_a_partial_frame() {
    let s = Server::default();
    let out = serve(&s, br#"{"cmd":"health","id":1}"#);
    let text = String::from_utf8(out).unwrap();
    assert!(text.ends_with('\n'), "{text}");
    let c: Content = serde_json::from_str(text.trim_end()).unwrap();
    assert!(ok_of(&c), "{text}");
    assert_eq!(c.get("id").and_then(Content::as_u64), Some(1));

    let mut input = b"{\"cmd\":\"health\"}\n".to_vec();
    input.extend_from_slice(b"AWSQ\x01\x00\x00\x00");
    let text = String::from_utf8(serve(&s, &input)).unwrap();
    assert_eq!(text.lines().count(), 1, "{text}");
}
