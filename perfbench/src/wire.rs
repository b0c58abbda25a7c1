//! Client side of the socket protocol: request encoding, response
//! framing (NDJSON lines and self-delimiting `AWSB` frames).

use awesym_net::{encode_request, RequestFrame, RequestKind};
use serde::Content;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Fixed `AWSB` header: magic, version, flags, count, cols, ok_count,
/// elapsed_ns.
pub const AWSB_HEADER: usize = 28;
const AWSB_FLAG_HAS_ID: u16 = 2;

/// One response as it came off the wire.
pub enum Msg<'a> {
    Line(&'a [u8]),
    Frame(&'a [u8]),
}

/// A client connection with its own receive buffer.
pub struct Conn {
    pub stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn {
            stream,
            buf: vec![0; 1 << 16],
            start: 0,
            end: 0,
        })
    }

    pub fn send(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// Length of the complete message at the head of the buffer, if any.
    fn complete(&self) -> Option<(usize, bool)> {
        let p = &self.buf[self.start..self.end];
        if p.is_empty() {
            return None;
        }
        if p[0] == b'A' {
            if p.len() < AWSB_HEADER {
                return None;
            }
            let u32_at = |i: usize| u32::from_le_bytes([p[i], p[i + 1], p[i + 2], p[i + 3]]);
            let flags = u16::from_le_bytes([p[6], p[7]]);
            let count = u32_at(8) as usize;
            let cols = u32_at(12) as usize;
            let mut len = AWSB_HEADER + count + count * cols * 8;
            if flags & AWSB_FLAG_HAS_ID != 0 {
                if p.len() < AWSB_HEADER + 4 {
                    return None;
                }
                len += 4 + u32_at(AWSB_HEADER) as usize;
            }
            (p.len() >= len).then_some((len, true))
        } else {
            p.iter().position(|&b| b == b'\n').map(|i| (i + 1, false))
        }
    }

    /// Reads whatever the socket has (blocking until at least one byte).
    /// Returns 0 at EOF.
    pub fn fill(&mut self) -> std::io::Result<usize> {
        if self.start > 0 && self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
        if self.end == self.buf.len() {
            if self.start > 0 {
                self.buf.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                self.start = 0;
            } else {
                self.buf.resize(self.buf.len() * 2, 0);
            }
        }
        let n = self.stream.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// The next complete message if one is already buffered.
    pub fn try_msg(&mut self) -> Option<Msg<'_>> {
        let (len, frame) = self.complete()?;
        let lo = self.start;
        self.start += len;
        let bytes = &self.buf[lo..lo + len];
        Some(if frame {
            Msg::Frame(bytes)
        } else {
            Msg::Line(&bytes[..len - 1])
        })
    }

    /// Blocks until one complete message is buffered, then returns it.
    pub fn recv(&mut self) -> std::io::Result<Msg<'_>> {
        while self.complete().is_none() {
            if self.fill()? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
        }
        Ok(self.try_msg().expect("complete message"))
    }

    /// Sends one NDJSON request and parses the one-line reply.
    pub fn call(&mut self, line: &str) -> Result<Content, String> {
        self.send(line.as_bytes()).map_err(|e| e.to_string())?;
        self.send(b"\n").map_err(|e| e.to_string())?;
        match self.recv().map_err(|e| e.to_string())? {
            Msg::Line(l) => serde_json::from_slice(l).map_err(|e| e.to_string()),
            Msg::Frame(_) => Err("binary frame where a JSON line was expected".into()),
        }
    }
}

/// Builds an NDJSON request line from ordered fields.
pub fn json_line(fields: Vec<(&str, Content)>) -> String {
    let map = Content::Map(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    );
    serde_json::to_string(&map).expect("serialize request")
}

pub fn points_content(points: &[Vec<f64>]) -> Content {
    Content::Seq(
        points
            .iter()
            .map(|p| Content::Seq(p.iter().map(|&v| Content::F64(v)).collect()))
            .collect(),
    )
}

/// A binary-v1 `AWSQ` moments batch frame.
pub fn moments_frame(model: &str, points: &[Vec<f64>]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_request(
        &RequestFrame {
            model,
            points,
            kind: RequestKind::Moments,
            times: &[],
            deadline_ms: None,
            workers: None,
            id: None,
        },
        &mut out,
    )
    .expect("encode request frame");
    out
}
