//! End-to-end tests of the built `awesym` binary's serve session.
//!
//! Regression context: the serve CLI used to pass `stderr().lock()` as
//! the stats sink, holding the stderr lock for the whole serve loop. Any
//! worker-thread write to stderr — the malformed-`AWESYM_LANES` warning,
//! panic-hook output — then deadlocked against the blocked submitter:
//! the first batch request never answered. These tests drive the real
//! binary over pipes and a loopback socket so that process-level wiring
//! stays covered: lane widths, non-UTF-8 input, and one byte script
//! answered identically on stdin and over TCP.

use awesym_net::{encode_request, RequestFrame, RequestKind};
use awesym_serve::encode::{BINARY_HEADER_LEN, BINARY_MAGIC, FLAG_HAS_ID};
use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::{Shutdown, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const NETLIST: &str =
    "* rc divider\nVIN in 0 1\nR1 in 1 1k\nC1 1 0 1n\nR2 1 out 2k\nC2 out 0 1n\n.end\n";

/// Writes the RC netlist into a fresh directory and builds its
/// one-symbol (`C1`) artifact there; returns the directory and the
/// artifact path.
fn build_model(tag: &str) -> (std::path::PathBuf, String) {
    let dir = std::env::temp_dir().join(format!("awesym-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let netlist = dir.join("rc.sp");
    std::fs::write(&netlist, NETLIST).expect("write netlist");
    let model = dir.join("m.awesym");
    let status = Command::new(env!("CARGO_BIN_EXE_awesym"))
        .args(["model"])
        .arg(&netlist)
        .args([
            "--input", "VIN", "--output", "out", "--symbol", "C1", "--order", "2", "--out",
        ])
        .arg(&model)
        .status()
        .expect("run awesym model");
    assert!(status.success(), "model build failed: {status}");
    let path = model.to_str().expect("utf8 path").to_string();
    (dir, path)
}

/// A canned session: load, one 77-point batch (crosses lane-block
/// boundaries at every width), shutdown.
fn session(model_path: &str) -> String {
    let points: Vec<String> = (0..77)
        .map(|i| format!("[{:e}]", 1e-9 * (0.5 + 0.07 * i as f64)))
        .collect();
    format!(
        "{{\"cmd\":\"load\",\"name\":\"rc\",\"path\":\"{}\",\"id\":1}}\n\
         {{\"cmd\":\"batch\",\"model\":\"rc\",\"points\":[{}],\"kind\":\"moments\",\"id\":2}}\n\
         {{\"cmd\":\"shutdown\",\"id\":3}}\n",
        model_path,
        points.join(",")
    )
}

/// Kills `child` if it has not exited within 60 s, so a serve-loop
/// deadlock fails the test instead of hanging CI.
fn watchdog(child: Child) -> Arc<Mutex<Child>> {
    let child = Arc::new(Mutex::new(child));
    let watchdog = Arc::clone(&child);
    std::thread::spawn(move || {
        std::thread::sleep(Duration::from_secs(60));
        // Ignores the error when the child already exited and was reaped.
        let _ = watchdog.lock().unwrap().kill();
    });
    child
}

/// Runs `awesym serve` with the given env pairs, feeding `input` on
/// stdin, and returns its stdout bytes and stderr text. The serve
/// process must exit successfully.
fn run_serve(input: &[u8], envs: &[(&str, &str)]) -> (Vec<u8>, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_awesym"));
    cmd.arg("serve")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let mut child = cmd.spawn().expect("spawn awesym serve");
    child
        .stdin
        .take()
        .expect("child stdin")
        .write_all(input)
        .expect("write session");
    let child = watchdog(child);
    let mut child = child.lock().unwrap();
    let stdout = child.stdout.take().expect("child stdout");
    let stderr = child.stderr.take().expect("child stderr");
    let stdout = std::thread::spawn(move || {
        let mut bytes = Vec::new();
        BufReader::new(stdout)
            .read_to_end(&mut bytes)
            .map(|_| bytes)
    });
    let stderr_text = std::io::read_to_string(stderr).expect("read stderr");
    let stdout_bytes = stdout.join().expect("stdout reader").expect("read stdout");
    let status = child.wait().expect("wait child");
    assert!(
        status.success(),
        "serve exited with {status}; stderr:\n{stderr_text}"
    );
    (stdout_bytes, stderr_text)
}

/// Runs `awesym serve --listen` on an ephemeral loopback port, sends
/// `input` on one connection, half-closes it, and returns every byte
/// the server answered. `input` must end the server with `shutdown`.
fn run_listen(input: &[u8]) -> Vec<u8> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_awesym"))
        .args(["serve", "--listen", "127.0.0.1:0"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn awesym serve --listen");
    let mut stderr = BufReader::new(child.stderr.take().expect("child stderr"));
    let child = watchdog(child);
    let mut line = String::new();
    let addr = loop {
        line.clear();
        assert!(
            stderr.read_line(&mut line).expect("read stderr") > 0,
            "server exited before listening"
        );
        if let Some(addr) = line.trim().strip_prefix("listening on ") {
            break addr.to_string();
        }
    };
    let mut conn = TcpStream::connect(&addr).expect("connect");
    conn.write_all(input).expect("send script");
    conn.shutdown(Shutdown::Write).expect("half-close");
    let mut out = Vec::new();
    conn.read_to_end(&mut out).expect("read answers");
    let mut rest = String::new();
    stderr.read_to_string(&mut rest).expect("read stderr");
    let status = child.lock().unwrap().wait().expect("wait child");
    assert!(
        status.success(),
        "serve exited with {status}; stderr:\n{rest}"
    );
    out
}

/// Strips the per-response timing fields from one NDJSON line.
fn strip_line_timing(line: &str) -> String {
    let mut cleaned = String::new();
    let mut rest = line;
    for key in ["\"elapsed_secs\":", "\"points_per_sec\":"] {
        if let Some(at) = rest.find(key) {
            let tail = &rest[at + key.len()..];
            let end = tail.find([',', '}']).unwrap_or(tail.len());
            cleaned.push_str(&rest[..at]);
            rest = tail[end..].strip_prefix(',').unwrap_or(&tail[end..]);
        }
    }
    cleaned.push_str(rest);
    cleaned
}

/// Strips the per-response timing from a response stream so runs can be
/// compared: the timing fields of NDJSON lines, and the `elapsed_ns`
/// header field of binary frames (sized from their own headers).
fn strip_timing(stream: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut rest = stream;
    while !rest.is_empty() {
        if rest.starts_with(&BINARY_MAGIC) {
            let u32_at = |at: usize| {
                u32::from_le_bytes(rest[at..at + 4].try_into().expect("4 bytes")) as usize
            };
            let flags = u16::from_le_bytes([rest[6], rest[7]]);
            let (count, cols) = (u32_at(8), u32_at(12));
            let id_section = if flags & FLAG_HAS_ID != 0 {
                4 + u32_at(BINARY_HEADER_LEN)
            } else {
                0
            };
            let len = BINARY_HEADER_LEN + id_section + count + 8 * count * cols;
            let mut frame = rest[..len].to_vec();
            frame[20..28].fill(0);
            out.extend_from_slice(&frame);
            rest = &rest[len..];
        } else {
            let end = rest
                .iter()
                .position(|&b| b == b'\n')
                .map_or(rest.len(), |at| at + 1);
            let line = std::str::from_utf8(&rest[..end]).expect("NDJSON line is UTF-8");
            out.extend_from_slice(strip_line_timing(line).as_bytes());
            rest = &rest[end..];
        }
    }
    out
}

#[test]
fn serve_answers_batches_at_every_lane_width_and_on_malformed_env() {
    let (dir, model) = build_model("serve-bin");
    let input = session(&model);
    let (ref_out, _) = run_serve(input.as_bytes(), &[("AWESYM_LANES", "8")]);
    let ref_out = String::from_utf8(ref_out).expect("UTF-8 responses");
    assert_eq!(ref_out.lines().count(), 3, "load/batch/shutdown responses");
    assert!(
        ref_out.lines().all(|l| l.contains("\"ok\":true")),
        "{ref_out}"
    );
    let reference = strip_timing(ref_out.as_bytes());

    // Widths 1 and 4 must be byte-identical to width 8 (docs/tape.md §7),
    // and a malformed value must fall back to the default width with a
    // startup warning — not deadlock the first batch from a worker
    // thread.
    for (lanes, expect_warning) in [("1", false), ("4", false), ("bogus", true)] {
        let (out, err) = run_serve(input.as_bytes(), &[("AWESYM_LANES", lanes)]);
        assert_eq!(
            strip_timing(&out),
            reference,
            "AWESYM_LANES={lanes} diverged from the width-8 run"
        );
        assert_eq!(
            err.contains("ignoring unrecognized AWESYM_LANES"),
            expect_warning,
            "AWESYM_LANES={lanes} stderr:\n{err}"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// A non-UTF-8 line on stdin gets the typed `bad_request` a socket
/// sends for it, and serving goes on: every request is answered and
/// the process exits 0.
#[test]
fn non_utf8_line_on_stdin_is_a_typed_error_and_serving_continues() {
    let (out, err) = run_serve(
        b"{\"cmd\":\"stats\",\"id\":1}\n\xff\xfe\n{\"cmd\":\"health\",\"id\":3}\n",
        &[],
    );
    let out = String::from_utf8(out).expect("UTF-8 responses");
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 3, "{out}\nstderr:\n{err}");
    assert!(
        lines[0].starts_with("{\"ok\":true,\"id\":1,"),
        "{}",
        lines[0]
    );
    assert_eq!(
        lines[1],
        r#"{"ok":false,"error":"bad request: request line is not valid UTF-8","code":"bad_request"}"#
    );
    assert!(
        lines[2].starts_with("{\"ok\":true,\"id\":3,"),
        "{}",
        lines[2]
    );
}

/// One byte script through `awesym serve` on stdin and through
/// `--listen` on loopback: NDJSON lines, an `AWSQ` frame, a batch that
/// negotiates a `binary-v1` answer, a non-UTF-8 line, and an
/// unterminated final line. Both transports run the same session loop,
/// so the answers must be byte-identical apart from timing.
#[test]
fn stdin_and_socket_answer_one_script_byte_for_byte() {
    let (dir, model) = build_model("transport-identity");
    let points: Vec<Vec<f64>> = (0..9)
        .map(|i| vec![1e-9 * (0.5 + 0.3 * f64::from(i))])
        .collect();
    let json_points: Vec<String> = points.iter().map(|p| format!("[{:e}]", p[0])).collect();
    let json_points = json_points.join(",");
    let mut script = format!(
        "{{\"cmd\":\"load\",\"name\":\"rc\",\"path\":\"{model}\",\"id\":1}}\n\
         {{\"cmd\":\"batch\",\"model\":\"rc\",\"points\":[{json_points}],\"kind\":\"delays\",\"id\":2}}\n"
    )
    .into_bytes();
    encode_request(
        &RequestFrame {
            model: "rc",
            points: &points,
            kind: RequestKind::Moments,
            times: &[],
            deadline_ms: None,
            workers: None,
            id: Some("3"),
        },
        &mut script,
    )
    .expect("encode AWSQ frame");
    script.extend_from_slice(
        format!(
            "{{\"cmd\":\"batch\",\"model\":\"rc\",\"points\":[{json_points}],\"kind\":\"dc_gain\",\"encoding\":\"binary-v1\",\"id\":4}}\n"
        )
        .as_bytes(),
    );
    script.extend_from_slice(b"\xff\xfe\n");
    script.extend_from_slice(b"{\"cmd\":\"eval\",\"model\":\"rc\",\"values\":[1e-9],\"id\":6}\n");
    script.extend_from_slice(b"{\"cmd\":\"shutdown\",\"id\":7}");

    let (stdin_out, _) = run_serve(&script, &[]);
    let socket_out = run_listen(&script);
    let stdin_out = strip_timing(&stdin_out);
    assert_eq!(stdin_out, strip_timing(&socket_out));
    // Every message was answered: four NDJSON answers around the two
    // frames, the typed UTF-8 refusal, and the final unterminated line.
    let text = String::from_utf8_lossy(&stdin_out);
    assert_eq!(text.matches("AWSB").count(), 2, "{text}");
    for want in [
        "{\"ok\":true,\"id\":1,",
        "{\"ok\":true,\"id\":2,",
        "\"code\":\"bad_request\"",
        "{\"ok\":true,\"id\":6,",
        "{\"ok\":true,\"id\":7,\"shutdown\":true}\n",
    ] {
        assert!(text.contains(want), "missing {want}: {text}");
    }

    let _ = std::fs::remove_dir_all(&dir);
}
