//! Shared loopback harness: a [`NetServer`] bound to an ephemeral port,
//! a blocking test client that speaks both wire encodings, and the
//! deterministic mixed-session scripts whose socket responses are
//! compared byte-for-byte against the stdin/stdout path.

// Each test binary uses a subset of these helpers.
#![allow(dead_code)]

use awesym_net::{encode_request, NetConfig, NetServer, RequestFrame, RequestKind};
use awesym_serve::encode::{BINARY_HEADER_LEN, FLAG_HAS_ID};
use awesym_serve::Server;
use serde::Content;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

pub const NETLIST: &str = "* fig1\nvin in 0 1\nR1 in 1 1k\nC1 1 0 1n\nR2 1 2 1k\nC2 2 0 1n\n.end\n";

pub fn compile_line(name: &str) -> String {
    format!(
        r#"{{"cmd":"compile","name":"{name}","netlist":{netlist},"input":"vin","output":"2","symbols":["C1","R2:r"],"order":2}}"#,
        netlist = serde_json::to_string(&Content::Str(NETLIST.into())).unwrap()
    )
}

pub fn parse_line(line: &[u8]) -> Content {
    let text = std::str::from_utf8(line).expect("response line is UTF-8");
    serde_json::from_str(text).unwrap_or_else(|e| panic!("response is JSON ({e}): {text}"))
}

pub fn ok_of(c: &Content) -> bool {
    c.get("ok").and_then(Content::as_bool).unwrap_or(false)
}

/// A [`NetServer`] accept loop running on its own thread, bound to an
/// ephemeral loopback port.
pub struct Harness {
    pub net: Arc<NetServer>,
    pub addr: SocketAddr,
    handle: Option<JoinHandle<std::io::Result<()>>>,
}

impl Harness {
    pub fn start(server: Server, cfg: NetConfig) -> Self {
        let net =
            Arc::new(NetServer::bind(Arc::new(server), "127.0.0.1:0", cfg).expect("bind loopback"));
        let addr = net.local_addr().expect("bound address");
        let runner = Arc::clone(&net);
        let handle = std::thread::spawn(move || runner.run());
        Harness {
            net,
            addr,
            handle: Some(handle),
        }
    }

    pub fn connect(&self) -> Client {
        Client::connect(self.addr)
    }

    /// Waits for the accept loop to exit on its own (drain or shutdown
    /// initiated elsewhere) and returns its result.
    pub fn join(mut self) -> std::io::Result<()> {
        self.handle
            .take()
            .expect("accept loop already joined")
            .join()
            .expect("accept loop panicked")
    }
}

impl Drop for Harness {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.net.request_shutdown();
            let _ = handle.join();
        }
    }
}

/// A blocking test client: buffers socket bytes and slices out NDJSON
/// lines or binary response frames on demand.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect loopback");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        Client {
            stream,
            buf: Vec::new(),
        }
    }

    pub fn send(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).expect("send");
        self.stream.flush().expect("flush");
    }

    pub fn send_line(&mut self, line: &str) {
        self.send(line.as_bytes());
        self.send(b"\n");
    }

    /// Half-closes the connection: the server reads EOF, the client can
    /// still read the answers.
    pub fn finish_sending(&mut self) {
        self.stream
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
    }

    fn fill(&mut self) -> usize {
        let mut tmp = [0u8; 64 << 10];
        let n = self.stream.read(&mut tmp).expect("socket read");
        self.buf.extend_from_slice(&tmp[..n]);
        n
    }

    /// Reads one NDJSON response line, without the trailing newline.
    pub fn read_line(&mut self) -> Vec<u8> {
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let mut line: Vec<u8> = self.buf.drain(..=pos).collect();
                line.pop();
                return line;
            }
            assert!(
                self.fill() > 0,
                "peer closed before a full line; buffered: {:?}",
                String::from_utf8_lossy(&self.buf)
            );
        }
    }

    /// Reads one binary response frame, sized from its own header.
    pub fn read_frame(&mut self) -> Vec<u8> {
        loop {
            if let Some(len) = response_frame_len(&self.buf) {
                if self.buf.len() >= len {
                    return self.buf.drain(..len).collect();
                }
            }
            assert!(
                self.fill() > 0,
                "peer closed mid-frame ({} bytes buffered)",
                self.buf.len()
            );
        }
    }

    /// Reads until the peer closes, returning any trailing bytes.
    pub fn read_to_eof(&mut self) -> Vec<u8> {
        let mut tmp = [0u8; 4096];
        loop {
            match self.stream.read(&mut tmp) {
                Ok(0) => break,
                Ok(n) => self.buf.extend_from_slice(&tmp[..n]),
                Err(e) => panic!("reading to EOF: {e}"),
            }
        }
        std::mem::take(&mut self.buf)
    }
}

/// Total length of the binary *response* frame at the front of `buf`,
/// once enough of its header has arrived.
pub fn response_frame_len(buf: &[u8]) -> Option<usize> {
    if buf.len() < BINARY_HEADER_LEN {
        return None;
    }
    let flags = u16::from_le_bytes(buf[6..8].try_into().unwrap());
    let count = u32::from_le_bytes(buf[8..12].try_into().unwrap()) as usize;
    let cols = u32::from_le_bytes(buf[12..16].try_into().unwrap()) as usize;
    let id_section = if flags & FLAG_HAS_ID != 0 {
        if buf.len() < BINARY_HEADER_LEN + 4 {
            return None;
        }
        let id_len = u32::from_le_bytes(
            buf[BINARY_HEADER_LEN..BINARY_HEADER_LEN + 4]
                .try_into()
                .unwrap(),
        ) as usize;
        4 + id_len
    } else {
        0
    };
    Some(BINARY_HEADER_LEN + id_section + count + 8 * count * cols)
}

/// Zeroes the timing fields of an NDJSON batch response (`elapsed_secs`,
/// `points_per_sec`) — the only bytes that legitimately differ between
/// two runs of the same request.
pub fn mask_line_timing(line: &[u8]) -> String {
    let mut s = String::from_utf8(line.to_vec()).expect("NDJSON response is UTF-8");
    for key in ["\"elapsed_secs\":", "\"points_per_sec\":"] {
        let mut from = 0;
        while let Some(rel) = s[from..].find(key) {
            let vstart = from + rel + key.len();
            let vend = s[vstart..].find([',', '}']).map_or(s.len(), |d| vstart + d);
            s.replace_range(vstart..vend, "0");
            from = vstart;
        }
    }
    s
}

/// Zeroes the `elapsed_ns` field (header bytes 20..28) of a binary
/// response frame.
pub fn mask_frame_timing(frame: &mut [u8]) {
    frame[20..28].fill(0);
}

/// How a scripted request goes on the wire.
pub enum Wire {
    Line(String),
    Frame(Vec<u8>),
}

/// One scripted request: its wire bytes, the equivalent NDJSON line for
/// the stdin-path reference run, and the response framing to expect.
pub struct ScriptReq {
    pub wire: Wire,
    pub equiv: String,
    pub frame_response: bool,
}

/// A batch request's data, renderable as either wire encoding. Floats
/// round-trip exactly: the JSON side serializes through the same
/// shortest-form float writer the server parses back.
pub struct BatchSpec {
    pub model: String,
    pub points: Vec<Vec<f64>>,
    pub kind: RequestKind,
    pub times: Vec<f64>,
    pub deadline_ms: Option<u64>,
    pub workers: Option<u32>,
    /// Correlation id as raw JSON text (e.g. `42` or `"abc"`).
    pub id: Option<String>,
}

impl BatchSpec {
    pub fn new(model: &str, points: Vec<Vec<f64>>, kind: RequestKind) -> Self {
        BatchSpec {
            model: model.to_string(),
            points,
            kind,
            times: if kind == RequestKind::Step {
                vec![1e-9, 5e-9, 2e-8]
            } else {
                Vec::new()
            },
            deadline_ms: None,
            workers: Some(2),
            id: None,
        }
    }

    pub fn json_line(&self, encoding: Option<&str>) -> String {
        let points = Content::Seq(
            self.points
                .iter()
                .map(|p| Content::Seq(p.iter().map(|&v| Content::F64(v)).collect()))
                .collect(),
        );
        let mut fields: Vec<(String, Content)> = vec![
            ("cmd".into(), Content::Str("batch".into())),
            ("model".into(), Content::Str(self.model.clone())),
            ("points".into(), points),
            ("kind".into(), Content::Str(self.kind.as_str().into())),
        ];
        if let Some(enc) = encoding {
            fields.push(("encoding".into(), Content::Str(enc.into())));
        }
        if !self.times.is_empty() {
            fields.push((
                "times".into(),
                Content::Seq(self.times.iter().map(|&t| Content::F64(t)).collect()),
            ));
        }
        if let Some(d) = self.deadline_ms {
            fields.push(("deadline_ms".into(), Content::U64(d)));
        }
        if let Some(w) = self.workers {
            fields.push(("workers".into(), Content::U64(u64::from(w))));
        }
        if let Some(id) = &self.id {
            fields.push(("id".into(), serde_json::from_str(id).expect("id is JSON")));
        }
        serde_json::to_string(&Content::Map(fields)).expect("request serializes")
    }

    pub fn frame(&self) -> Vec<u8> {
        let mut out = Vec::new();
        encode_request(
            &RequestFrame {
                model: &self.model,
                points: &self.points,
                kind: self.kind,
                times: &self.times,
                deadline_ms: self.deadline_ms,
                workers: self.workers,
                id: self.id.as_deref(),
            },
            &mut out,
        )
        .expect("encode request frame");
        out
    }
}

/// Deterministic per-client point grid (two symbols, matching the
/// compiled `["C1","R2:r"]` bindings).
pub fn grid(c: usize, r: usize, n: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            let t = ((c * 31 + r * 13 + i * 7) % 97) as f64 / 97.0;
            vec![0.5e-9 + 3e-9 * t, 300.0 + 4000.0 * t]
        })
        .collect()
}

/// A mixed-encoding session script for client `c`: plain NDJSON,
/// NDJSON negotiating binary responses, and binary request frames, with
/// rotating output kinds, batch sizes and correlation ids.
pub fn client_script(c: usize, requests: usize) -> Vec<ScriptReq> {
    const KINDS: [RequestKind; 4] = [
        RequestKind::Moments,
        RequestKind::DcGain,
        RequestKind::Delays,
        RequestKind::Step,
    ];
    (0..requests)
        .map(|r| {
            let mut spec = BatchSpec::new(
                "m",
                grid(c, r, 3 + (c * 7 + r * 5) % 14),
                KINDS[(c + r) % 4],
            );
            spec.id = match r % 4 {
                0 => Some(format!("{}", c * 100 + r)),
                1 => Some(format!("\"c{c}-r{r}\"")),
                _ => None,
            };
            match r % 3 {
                0 => ScriptReq {
                    wire: Wire::Line(spec.json_line(None)),
                    equiv: spec.json_line(None),
                    frame_response: false,
                },
                1 => ScriptReq {
                    wire: Wire::Line(spec.json_line(Some("binary-v1"))),
                    equiv: spec.json_line(Some("binary-v1")),
                    frame_response: true,
                },
                _ => ScriptReq {
                    wire: Wire::Frame(spec.frame()),
                    equiv: spec.json_line(Some("binary-v1")),
                    frame_response: true,
                },
            }
        })
        .collect()
}

/// The acceptance bar: `clients` concurrent mixed-encoding sessions
/// against a socket server, every response byte-identical (timing
/// fields masked) to the same requests on the stdin/stdout path.
pub fn assert_socket_matches_stdin(clients: usize, requests: usize) {
    // Reference run: the identical engine configuration, stdin path.
    let reference = Server::default();
    let compiled = reference
        .handle_line(&compile_line("m"))
        .expect("compile reference");
    assert!(
        ok_of(&parse_line(&compiled.body)),
        "reference compile failed"
    );
    let scripts: Vec<Vec<ScriptReq>> = (0..clients).map(|c| client_script(c, requests)).collect();
    let expected: Vec<Vec<Vec<u8>>> = scripts
        .iter()
        .map(|script| {
            script
                .iter()
                .map(|req| {
                    reference
                        .handle_line(&req.equiv)
                        .expect("reference response")
                        .body
                })
                .collect()
        })
        .collect();

    let h = Harness::start(Server::default(), NetConfig::default());
    let mut admin = h.connect();
    admin.send_line(&compile_line("m"));
    let line = admin.read_line();
    assert!(
        ok_of(&parse_line(&line)),
        "socket compile failed: {}",
        String::from_utf8_lossy(&line)
    );

    let got: Vec<Vec<Vec<u8>>> = std::thread::scope(|s| {
        let handles: Vec<_> = scripts
            .iter()
            .map(|script| {
                let addr = h.addr;
                s.spawn(move || {
                    let mut client = Client::connect(addr);
                    script
                        .iter()
                        .map(|req| {
                            match &req.wire {
                                Wire::Line(l) => client.send_line(l),
                                Wire::Frame(f) => client.send(f),
                            }
                            if req.frame_response {
                                client.read_frame()
                            } else {
                                client.read_line()
                            }
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|hd| hd.join().expect("client thread"))
            .collect()
    });

    for (c, (script, (exp_script, got_script))) in scripts
        .iter()
        .zip(expected.iter().zip(got.iter()))
        .enumerate()
    {
        for (r, (req, (exp, got))) in script
            .iter()
            .zip(exp_script.iter().zip(got_script.iter()))
            .enumerate()
        {
            if req.frame_response {
                let mut e = exp.clone();
                let mut g = got.clone();
                mask_frame_timing(&mut e);
                mask_frame_timing(&mut g);
                assert_eq!(
                    e, g,
                    "client {c} request {r}: binary frame differs from the stdin path"
                );
            } else {
                assert_eq!(
                    mask_line_timing(got),
                    mask_line_timing(exp),
                    "client {c} request {r}: NDJSON response differs from the stdin path"
                );
            }
        }
    }
    let metrics = h.net.metrics();
    assert!(metrics.requests.get() >= (clients * requests) as u64);
    assert!(metrics.frames.get() >= (clients * (requests / 3)) as u64);
}
