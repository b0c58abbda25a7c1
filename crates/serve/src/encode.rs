//! Pluggable response encoders: NDJSON (default) and the binary-v1
//! batch frame.
//!
//! Every byte the server emits — response lines, batch results, periodic
//! stats — goes through an [`Encoder`], writing into a caller-supplied
//! reusable `Vec<u8>` instead of allocating fresh `String`s. Floats take
//! the shortest-round-trip path (the vendored `ryu` formatter behind
//! [`serde_json::write_f64`]), and batch results are streamed straight
//! from [`PointResult`]s without building an intermediate `Content` tree.
//!
//! Clients pick an encoding per request with `"encoding":"binary-v1"`
//! (or the explicit default, `"encoding":"ndjson"`); anything else is a
//! typed `bad_request`. The binary frame only exists for `batch`
//! responses with a fixed per-point width — see `docs/wire-format.md`
//! for the full negotiation rules and frame layout.
//!
//! Encoding time counts against the request deadline: both encoders
//! check the deadline every [`DEADLINE_CHECK_STRIDE`] points while
//! streaming a batch body and abort with a typed `deadline_exceeded`
//! error when it trips mid-encode.

#![deny(clippy::unwrap_used)]

use crate::batch::{PointResult, PointValue};
use crate::error::{point_code, ErrorCode};
use crate::ServeError;
use awesym_partition::Degradation;
use serde::Content;
use serde_json::{write_escaped_str, write_f64, write_value};
use std::fmt;
use std::time::Instant;

/// Points encoded between deadline checks while streaming a batch body.
pub const DEADLINE_CHECK_STRIDE: usize = 256;

/// The wire encodings a request can negotiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WireEncoding {
    /// One JSON object per line — the default, always available.
    #[default]
    Ndjson,
    /// The versioned little-endian batch frame (batch responses only).
    BinaryV1,
}

impl WireEncoding {
    /// The negotiation token, e.g. `"binary-v1"`.
    pub fn as_str(self) -> &'static str {
        match self {
            WireEncoding::Ndjson => "ndjson",
            WireEncoding::BinaryV1 => "binary-v1",
        }
    }
}

impl fmt::Display for WireEncoding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A `batch` response ready to encode: the head fields that precede
/// `"results"` in the NDJSON form, plus the raw per-point outcomes the
/// encoder streams directly.
pub struct BatchBody {
    /// Fields preceding `results` (`ok`, `id`, `count`, `ok_count`, …).
    pub head: Vec<(&'static str, Content)>,
    /// The request's `id`, when it sent one. NDJSON already echoes it
    /// through `head`; the binary frame carries it in a dedicated id
    /// section (flag [`FLAG_HAS_ID`]) so correlation survives the
    /// columnar path too.
    pub id: Option<Content>,
    /// Per-point outcomes, in input order.
    pub results: Vec<PointResult>,
    /// Fixed per-point value width for the binary frame (`kind`-derived).
    pub cols: usize,
    /// Points that evaluated successfully.
    pub ok_count: u64,
    /// Evaluation wall time in nanoseconds (binary frame header field).
    pub elapsed_ns: u64,
    /// True when evaluation already ran out of deadline — per-point
    /// errors say so and the encoder must not cut the body again.
    pub deadline_exceeded: bool,
    /// The request deadline (absolute instant plus the millisecond figure
    /// for error reporting); encoding checks it cooperatively.
    pub deadline: Option<(Instant, u64)>,
}

/// What an encoder is asked to write.
pub enum ResponseBody {
    /// A generic response: an ordered field list (already `Content`).
    Fields(Vec<(&'static str, Content)>),
    /// A batch response: head fields plus streamed per-point results.
    Batch(BatchBody),
}

/// A response encoder writing into a reusable growable buffer.
///
/// Implementations append exactly one response per
/// [`Encoder::encode_response`] call and never write a trailing
/// newline — framing (newline for NDJSON, self-delimiting header for
/// binary) is the transport loop's concern.
pub trait Encoder: Sync {
    /// Which wire encoding this encoder produces for batch bodies.
    fn encoding(&self) -> WireEncoding;

    /// Appends one encoded response to `out`.
    ///
    /// # Errors
    ///
    /// [`ServeError::DeadlineExceeded`] when the body's deadline trips
    /// mid-encode; the caller discards the partial output and reports
    /// the typed error instead.
    fn encode_response(&self, body: &ResponseBody, out: &mut Vec<u8>) -> Result<(), ServeError>;

    /// Appends one encoded stats object to `out`. Stats are diagnostic
    /// metadata, not bulk floats, so both built-in encoders emit NDJSON.
    fn encode_stats(&self, stats: &Content, out: &mut Vec<u8>) {
        write_value(stats, out);
    }
}

/// Statics so the server can hand out `&'static dyn Encoder` without
/// allocation.
static NDJSON: NdjsonEncoder = NdjsonEncoder;
static BINARY: BinaryEncoder = BinaryEncoder;

/// The encoder for a negotiated wire encoding.
pub fn encoder_for(encoding: WireEncoding) -> &'static dyn Encoder {
    match encoding {
        WireEncoding::Ndjson => &NDJSON,
        WireEncoding::BinaryV1 => &BINARY,
    }
}

/// Returns `deadline_exceeded` when the batch deadline has passed.
///
/// Only consulted while the body is still healthy: when evaluation
/// already exceeded the deadline the response *is* the deadline report
/// (per-point errors plus the flag) and must go out whole.
fn check_encode_deadline(b: &BatchBody) -> Result<(), ServeError> {
    if b.deadline_exceeded {
        return Ok(());
    }
    if let Some((at, ms)) = b.deadline {
        if Instant::now() >= at {
            return Err(ServeError::DeadlineExceeded { deadline_ms: ms });
        }
    }
    Ok(())
}

/// Writes an ordered field list as one JSON object.
fn write_fields(fields: &[(&'static str, Content)], out: &mut Vec<u8>) {
    out.push(b'{');
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        write_escaped_str(k, out);
        out.push(b':');
        write_value(v, out);
    }
    out.push(b'}');
}

fn write_f64_seq(vals: &[f64], out: &mut Vec<u8>) {
    out.push(b'[');
    for (i, &v) in vals.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        write_f64(v, out);
    }
    out.push(b']');
}

fn write_opt_f64(v: Option<f64>, out: &mut Vec<u8>) {
    match v {
        Some(v) => write_f64(v, out),
        None => out.extend_from_slice(b"null"),
    }
}

fn write_degraded(d: &Degradation, out: &mut Vec<u8>) {
    out.extend_from_slice(b"{\"from_order\":");
    write_value(&Content::U64(d.from_order as u64), out);
    out.extend_from_slice(b",\"to_order\":");
    write_value(&Content::U64(d.to_order as u64), out);
    out.extend_from_slice(b",\"reason\":");
    write_escaped_str(&d.reason, out);
    out.push(b'}');
}

/// Streams one successful point value as a JSON object — same shape as
/// [`point_value_content`], without building the tree.
pub fn write_point_value(v: &PointValue, out: &mut Vec<u8>) {
    match v {
        PointValue::Moments(m) => {
            out.extend_from_slice(b"{\"moments\":");
            write_f64_seq(m, out);
            out.push(b'}');
        }
        PointValue::DcGain(g) => {
            out.extend_from_slice(b"{\"dc_gain\":");
            write_f64(*g, out);
            out.push(b'}');
        }
        PointValue::Step { samples, degraded } => {
            out.extend_from_slice(b"{\"step\":");
            write_f64_seq(samples, out);
            if let Some(d) = degraded {
                out.extend_from_slice(b",\"degraded\":");
                write_degraded(d, out);
            }
            out.push(b'}');
        }
        PointValue::Rom(r) => {
            out.extend_from_slice(b"{\"poles_re\":");
            write_f64_seq(&r.poles_re, out);
            out.extend_from_slice(b",\"poles_im\":");
            write_f64_seq(&r.poles_im, out);
            out.extend_from_slice(b",\"residues_re\":");
            write_f64_seq(&r.residues_re, out);
            out.extend_from_slice(b",\"residues_im\":");
            write_f64_seq(&r.residues_im, out);
            out.extend_from_slice(b",\"dc_gain\":");
            write_f64(r.dc_gain, out);
            out.extend_from_slice(b",\"stable\":");
            out.extend_from_slice(if r.stable { b"true".as_ref() } else { b"false" });
            out.extend_from_slice(b",\"delay_50\":");
            write_opt_f64(r.delay_50, out);
            if let Some(d) = &r.degraded {
                out.extend_from_slice(b",\"degraded\":");
                write_degraded(d, out);
            }
            out.push(b'}');
        }
        PointValue::Delays(d) => {
            out.extend_from_slice(b"{\"elmore\":");
            write_f64(d.elmore, out);
            out.extend_from_slice(b",\"ln2_elmore\":");
            write_f64(d.ln2_elmore, out);
            out.extend_from_slice(b",\"d2m\":");
            write_f64(d.d2m, out);
            out.extend_from_slice(b",\"two_pole\":");
            write_opt_f64(d.two_pole, out);
            out.push(b'}');
        }
    }
}

/// Streams one point outcome: the value object, or `{"error":…,"code":…}`.
pub fn write_point_result(r: &PointResult, out: &mut Vec<u8>) {
    match r {
        Ok(v) => write_point_value(v, out),
        Err(e) => {
            out.extend_from_slice(b"{\"error\":");
            write_escaped_str(&e.message, out);
            out.extend_from_slice(b",\"code\":");
            write_escaped_str(&e.code, out);
            out.push(b'}');
        }
    }
}

/// One successful point value as a `Content` tree (the single-point
/// `eval` response embeds it in its field list). Kept next to
/// [`write_point_value`] with a test pinning the two to the same shape.
pub fn point_value_content(v: &PointValue) -> Content {
    let mut out = Vec::new();
    write_point_value(v, &mut out);
    // The streamed form is valid JSON by construction; parsing it back is
    // a cold single-point path (eval), not the batch hot path.
    serde_json::from_slice(&out).unwrap_or(Content::Null)
}

/// The default encoder: one JSON object per response, floats via the
/// shortest-round-trip formatter, batch results streamed point by point.
pub struct NdjsonEncoder;

impl Encoder for NdjsonEncoder {
    fn encoding(&self) -> WireEncoding {
        WireEncoding::Ndjson
    }

    fn encode_response(&self, body: &ResponseBody, out: &mut Vec<u8>) -> Result<(), ServeError> {
        match body {
            ResponseBody::Fields(fields) => {
                write_fields(fields, out);
                Ok(())
            }
            ResponseBody::Batch(b) => {
                out.push(b'{');
                for (i, (k, v)) in b.head.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    write_escaped_str(k, out);
                    out.push(b':');
                    write_value(v, out);
                }
                out.extend_from_slice(b",\"results\":[");
                for (i, r) in b.results.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    if i % DEADLINE_CHECK_STRIDE == 0 && i > 0 {
                        check_encode_deadline(b)?;
                    }
                    write_point_result(r, out);
                }
                out.extend_from_slice(b"]}");
                Ok(())
            }
        }
    }
}

// ---------------------------------------------------------------------
// binary-v1 frame
// ---------------------------------------------------------------------

/// Frame magic, `b"AWSB"`.
pub const BINARY_MAGIC: [u8; 4] = *b"AWSB";
/// Frame format version.
pub const BINARY_VERSION: u16 = 1;
/// Header flag bit: evaluation was cut short by the deadline.
pub const FLAG_DEADLINE_EXCEEDED: u16 = 1;
/// Header flag bit: an id section (`u32` length + JSON bytes) follows
/// the fixed header, before the status column. Requests without an `id`
/// produce frames byte-identical to version 1 without this bit.
pub const FLAG_HAS_ID: u16 = 2;
/// Fixed header length in bytes (magic through `elapsed_ns`).
pub const BINARY_HEADER_LEN: usize = 28;

/// Per-point scalar for the columnar payload; error points and
/// out-of-range columns are NaN.
fn point_scalar(r: &PointResult, col: usize) -> f64 {
    let Ok(v) = r else {
        return f64::NAN;
    };
    match v {
        PointValue::Moments(m) => m.get(col).copied().unwrap_or(f64::NAN),
        PointValue::DcGain(g) => {
            if col == 0 {
                *g
            } else {
                f64::NAN
            }
        }
        PointValue::Step { samples, .. } => samples.get(col).copied().unwrap_or(f64::NAN),
        PointValue::Delays(d) => match col {
            0 => d.elmore,
            1 => d.ln2_elmore,
            2 => d.d2m,
            3 => d.two_pole.unwrap_or(f64::NAN),
            _ => f64::NAN,
        },
        // Variable-width; negotiation rejects `rom` before evaluation.
        PointValue::Rom(_) => f64::NAN,
    }
}

/// The binary-v1 encoder: a self-delimiting little-endian frame for
/// batch responses. Non-batch responses (including every error) fall
/// back to the NDJSON object so failures stay human-readable even on a
/// binary-negotiated stream.
pub struct BinaryEncoder;

impl Encoder for BinaryEncoder {
    fn encoding(&self) -> WireEncoding {
        WireEncoding::BinaryV1
    }

    fn encode_response(&self, body: &ResponseBody, out: &mut Vec<u8>) -> Result<(), ServeError> {
        let b = match body {
            ResponseBody::Fields(fields) => {
                write_fields(fields, out);
                return Ok(());
            }
            ResponseBody::Batch(b) => b,
        };
        let count = u32::try_from(b.results.len()).map_err(|_| ServeError::Internal {
            what: "batch too large for binary-v1 frame".into(),
        })?;
        let cols = u32::try_from(b.cols).map_err(|_| ServeError::Internal {
            what: "point width too large for binary-v1 frame".into(),
        })?;
        // Serialize the id section first: its length goes in the frame
        // and an oversized id must fail before any header bytes land.
        let id_bytes = match &b.id {
            Some(id) => {
                let mut buf = Vec::new();
                write_value(id, &mut buf);
                u32::try_from(buf.len()).map_err(|_| ServeError::Internal {
                    what: "request id too large for binary-v1 frame".into(),
                })?;
                Some(buf)
            }
            None => None,
        };
        let mut flags = if b.deadline_exceeded {
            FLAG_DEADLINE_EXCEEDED
        } else {
            0
        };
        if id_bytes.is_some() {
            flags |= FLAG_HAS_ID;
        }
        out.reserve(BINARY_HEADER_LEN + b.results.len() * (1 + 8 * b.cols));
        out.extend_from_slice(&BINARY_MAGIC);
        out.extend_from_slice(&BINARY_VERSION.to_le_bytes());
        out.extend_from_slice(&flags.to_le_bytes());
        out.extend_from_slice(&count.to_le_bytes());
        out.extend_from_slice(&cols.to_le_bytes());
        out.extend_from_slice(&u32::try_from(b.ok_count).unwrap_or(u32::MAX).to_le_bytes());
        out.extend_from_slice(&b.elapsed_ns.to_le_bytes());
        if let Some(buf) = &id_bytes {
            out.extend_from_slice(&(buf.len() as u32).to_le_bytes());
            out.extend_from_slice(buf);
        }
        for r in &b.results {
            out.push(match r {
                Ok(_) => 0,
                Err(e) => point_code(e).wire_byte(),
            });
        }
        // Columnar payload: all points' column 0, then column 1, …
        let mut since_check = 0usize;
        for col in 0..b.cols {
            for r in &b.results {
                since_check += 1;
                if since_check >= DEADLINE_CHECK_STRIDE {
                    since_check = 0;
                    check_encode_deadline(b)?;
                }
                out.extend_from_slice(&point_scalar(r, col).to_le_bytes());
            }
        }
        Ok(())
    }
}

/// Why a binary-v1 frame failed to decode. Mirrors the artifact
/// corruption taxonomy: every byte-level defect maps to a typed reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer bytes than the layout requires.
    Truncated {
        /// Bytes the layout needs.
        need: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The first four bytes are not `AWSB`.
    BadMagic([u8; 4]),
    /// An unsupported frame version.
    BadVersion(u16),
    /// Bytes beyond the layout's end.
    TrailingBytes(usize),
    /// A per-point status byte outside the error-code table.
    BadErrorCode {
        /// The offending point index.
        index: usize,
        /// The byte found.
        byte: u8,
    },
    /// The id section (flag [`FLAG_HAS_ID`]) does not hold valid JSON.
    BadId,
    /// The header's `ok_count` disagrees with the status column.
    OkCountMismatch {
        /// `ok_count` from the header.
        header: u64,
        /// Zero status bytes actually counted.
        counted: u64,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated { need, got } => {
                write!(f, "frame truncated: need {need} bytes, got {got}")
            }
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:?}"),
            FrameError::BadVersion(v) => write!(f, "unsupported frame version {v}"),
            FrameError::TrailingBytes(n) => write!(f, "{n} trailing bytes after frame"),
            FrameError::BadErrorCode { index, byte } => {
                write!(f, "point {index} carries unknown error-code byte {byte}")
            }
            FrameError::BadId => write!(f, "id section is not valid JSON"),
            FrameError::OkCountMismatch { header, counted } => write!(
                f,
                "header says {header} ok points, status column counts {counted}"
            ),
        }
    }
}

impl std::error::Error for FrameError {}

/// A decoded binary-v1 frame.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedFrame {
    /// The deadline flag from the header.
    pub deadline_exceeded: bool,
    /// The request id carried in the frame's id section, when present.
    pub id: Option<Content>,
    /// Point count.
    pub count: usize,
    /// Values per point.
    pub cols: usize,
    /// Successful points (validated against the status column).
    pub ok_count: u64,
    /// Evaluation wall time in nanoseconds.
    pub elapsed_ns: u64,
    /// Per-point status bytes (`0` = ok).
    pub codes: Vec<u8>,
    /// Column-major values: `columns[c][i]` is point `i`'s column `c`.
    pub columns: Vec<Vec<f64>>,
}

impl DecodedFrame {
    /// Point `i`'s values as a row (allocates; diagnostic convenience).
    pub fn point(&self, i: usize) -> Vec<f64> {
        self.columns
            .iter()
            .map(|c| c.get(i).copied().unwrap_or(f64::NAN))
            .collect()
    }

    /// Point `i`'s error code, `None` when it succeeded.
    pub fn code(&self, i: usize) -> Option<ErrorCode> {
        self.codes
            .get(i)
            .copied()
            .and_then(ErrorCode::from_wire_byte)
    }
}

fn le_u16(b: &[u8], at: usize) -> u16 {
    u16::from_le_bytes([b[at], b[at + 1]])
}

fn le_u32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]])
}

/// Decodes (and validates) one binary-v1 frame.
///
/// # Errors
///
/// A typed [`FrameError`] for every byte-level defect: short buffers,
/// bad magic/version, trailing bytes, unknown status bytes, and an
/// `ok_count` that disagrees with the status column.
pub fn decode_frame(bytes: &[u8]) -> Result<DecodedFrame, FrameError> {
    if bytes.len() < BINARY_HEADER_LEN {
        return Err(FrameError::Truncated {
            need: BINARY_HEADER_LEN,
            got: bytes.len(),
        });
    }
    let magic = [bytes[0], bytes[1], bytes[2], bytes[3]];
    if magic != BINARY_MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    let version = le_u16(bytes, 4);
    if version != BINARY_VERSION {
        return Err(FrameError::BadVersion(version));
    }
    let flags = le_u16(bytes, 6);
    let count = le_u32(bytes, 8) as usize;
    let cols = le_u32(bytes, 12) as usize;
    let ok_count = u64::from(le_u32(bytes, 16));
    let elapsed_ns = u64::from_le_bytes([
        bytes[20], bytes[21], bytes[22], bytes[23], bytes[24], bytes[25], bytes[26], bytes[27],
    ]);
    // The optional id section sits between the fixed header and the
    // status column; its length prefix must be readable before the body
    // layout can be sized.
    let (id, body_at) = if flags & FLAG_HAS_ID != 0 {
        if bytes.len() < BINARY_HEADER_LEN + 4 {
            return Err(FrameError::Truncated {
                need: BINARY_HEADER_LEN + 4,
                got: bytes.len(),
            });
        }
        let id_len = le_u32(bytes, BINARY_HEADER_LEN) as usize;
        let id_end = BINARY_HEADER_LEN + 4 + id_len;
        if bytes.len() < id_end {
            return Err(FrameError::Truncated {
                need: id_end,
                got: bytes.len(),
            });
        }
        let id: Content = serde_json::from_slice(&bytes[BINARY_HEADER_LEN + 4..id_end])
            .map_err(|_| FrameError::BadId)?;
        (Some(id), id_end)
    } else {
        (None, BINARY_HEADER_LEN)
    };
    let need = count
        .checked_mul(cols)
        .and_then(|v| v.checked_mul(8))
        .and_then(|v| v.checked_add(count))
        .and_then(|v| v.checked_add(body_at))
        .ok_or(FrameError::Truncated {
            need: usize::MAX,
            got: bytes.len(),
        })?;
    if bytes.len() < need {
        return Err(FrameError::Truncated {
            need,
            got: bytes.len(),
        });
    }
    if bytes.len() > need {
        return Err(FrameError::TrailingBytes(bytes.len() - need));
    }
    let codes = bytes[body_at..body_at + count].to_vec();
    for (index, &byte) in codes.iter().enumerate() {
        if byte != 0 && ErrorCode::from_wire_byte(byte).is_none() {
            return Err(FrameError::BadErrorCode { index, byte });
        }
    }
    let counted = codes.iter().filter(|&&b| b == 0).count() as u64;
    if counted != ok_count {
        return Err(FrameError::OkCountMismatch {
            header: ok_count,
            counted,
        });
    }
    let mut columns = Vec::with_capacity(cols);
    let mut at = body_at + count;
    for _ in 0..cols {
        let mut col = Vec::with_capacity(count);
        for _ in 0..count {
            col.push(f64::from_le_bytes([
                bytes[at],
                bytes[at + 1],
                bytes[at + 2],
                bytes[at + 3],
                bytes[at + 4],
                bytes[at + 5],
                bytes[at + 6],
                bytes[at + 7],
            ]));
            at += 8;
        }
        columns.push(col);
    }
    Ok(DecodedFrame {
        deadline_exceeded: flags & FLAG_DEADLINE_EXCEEDED != 0,
        id,
        count,
        cols,
        ok_count,
        elapsed_ns,
        codes,
        columns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::DelaySummary;
    use crate::PointError;
    use std::time::Duration;

    fn moments_batch(n: usize) -> BatchBody {
        let results: Vec<PointResult> = (0..n)
            .map(|i| {
                if i % 7 == 3 {
                    Err(PointError::numeric("injected"))
                } else {
                    Ok(PointValue::Moments(vec![
                        i as f64 + 0.125,
                        -(i as f64) * 1e-9,
                        1.0 / (i as f64 + 1.0),
                        f64::MIN_POSITIVE * (i as f64 + 1.0),
                    ]))
                }
            })
            .collect();
        let ok_count = results.iter().filter(|r| r.is_ok()).count() as u64;
        BatchBody {
            head: vec![
                ("ok", Content::Bool(true)),
                ("count", Content::U64(n as u64)),
                ("ok_count", Content::U64(ok_count)),
            ],
            id: None,
            results,
            cols: 4,
            ok_count,
            elapsed_ns: 123_456,
            deadline_exceeded: false,
            deadline: None,
        }
    }

    #[test]
    fn ndjson_fields_match_content_tree_serialization() {
        let fields = vec![
            ("ok", Content::Bool(true)),
            ("name", Content::Str("a \"quoted\" name\n".into())),
            ("x", Content::F64(0.1)),
            ("n", Content::I64(-3)),
        ];
        let mut out = Vec::new();
        NdjsonEncoder
            .encode_response(&ResponseBody::Fields(fields.clone()), &mut out)
            .unwrap();
        let tree = Content::Map(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        );
        assert_eq!(
            String::from_utf8(out).unwrap(),
            serde_json::to_string(&tree).unwrap()
        );
    }

    #[test]
    fn streamed_point_values_match_content_form() {
        let deg = Degradation {
            from_order: 3,
            to_order: 2,
            reason: "unstable \"fit\"".into(),
        };
        let values = [
            PointValue::Moments(vec![1.5e-9, -2.0, 0.0]),
            PointValue::DcGain(0.9999999999999999),
            PointValue::Step {
                samples: vec![0.0, 0.5, 1.0],
                degraded: Some(deg.clone()),
            },
            PointValue::Step {
                samples: vec![],
                degraded: None,
            },
            PointValue::Rom(crate::RomSummary {
                poles_re: vec![-1e9, -2e9],
                poles_im: vec![0.0, 0.0],
                residues_re: vec![0.5, 0.5],
                residues_im: vec![0.0, -0.0],
                dc_gain: 1.0,
                stable: true,
                delay_50: None,
                degraded: Some(deg),
            }),
            PointValue::Delays(DelaySummary {
                elmore: 3e-6,
                ln2_elmore: 2.1e-6,
                d2m: 2.9e-6,
                two_pole: None,
            }),
        ];
        for v in values {
            let mut streamed = Vec::new();
            write_point_value(&v, &mut streamed);
            let streamed = String::from_utf8(streamed).unwrap();
            let tree = serde_json::to_string(&point_value_content(&v)).unwrap();
            assert_eq!(streamed, tree, "{v:?}");
            // And the streamed form is valid JSON.
            serde_json::from_str::<Content>(&streamed).unwrap();
        }
        let mut err = Vec::new();
        write_point_result(&Err(PointError::numeric("NaN \"moments\"")), &mut err);
        let c: Content = serde_json::from_slice(&err).unwrap();
        assert_eq!(
            c.get("code").and_then(Content::as_str),
            Some("numeric_unstable")
        );
    }

    #[test]
    fn binary_round_trips_bit_exactly() {
        let b = moments_batch(53);
        let mut out = Vec::new();
        BinaryEncoder
            .encode_response(&ResponseBody::Batch(b), &mut out)
            .unwrap();
        let frame = decode_frame(&out).unwrap();
        assert_eq!(frame.count, 53);
        assert_eq!(frame.cols, 4);
        assert!(!frame.deadline_exceeded);
        assert_eq!(frame.elapsed_ns, 123_456);
        let b = moments_batch(53);
        for (i, r) in b.results.iter().enumerate() {
            match r {
                Ok(PointValue::Moments(m)) => {
                    assert_eq!(frame.codes[i], 0);
                    for (c, &want) in m.iter().enumerate() {
                        assert_eq!(
                            frame.columns[c][i].to_bits(),
                            want.to_bits(),
                            "point {i} col {c}"
                        );
                    }
                }
                Err(e) => {
                    assert_eq!(frame.code(i), Some(point_code(e)));
                    assert!(frame.columns.iter().all(|col| col[i].is_nan()));
                }
                Ok(other) => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn binary_golden_frame_bytes() {
        let b = BatchBody {
            head: vec![],
            id: None,
            results: vec![
                Ok(PointValue::DcGain(1.0)),
                Err(PointError::deadline("late")),
            ],
            cols: 1,
            ok_count: 1,
            elapsed_ns: 0x0102030405060708,
            deadline_exceeded: true,
            deadline: None,
        };
        let mut out = Vec::new();
        BinaryEncoder
            .encode_response(&ResponseBody::Batch(b), &mut out)
            .unwrap();
        let mut want = Vec::new();
        want.extend_from_slice(b"AWSB");
        want.extend_from_slice(&1u16.to_le_bytes()); // version
        want.extend_from_slice(&1u16.to_le_bytes()); // flags: deadline
        want.extend_from_slice(&2u32.to_le_bytes()); // count
        want.extend_from_slice(&1u32.to_le_bytes()); // cols
        want.extend_from_slice(&1u32.to_le_bytes()); // ok_count
        want.extend_from_slice(&0x0102030405060708u64.to_le_bytes());
        want.push(0); // point 0 ok
        want.push(ErrorCode::DeadlineExceeded.wire_byte());
        want.extend_from_slice(&1.0f64.to_le_bytes());
        want.extend_from_slice(&f64::NAN.to_le_bytes());
        assert_eq!(out, want);
        assert!(decode_frame(&out).unwrap().deadline_exceeded);
    }

    #[test]
    fn id_section_round_trips_and_absent_id_keeps_legacy_layout() {
        // No id: the flag stays clear and the decoded id is None.
        let mut plain = Vec::new();
        BinaryEncoder
            .encode_response(&ResponseBody::Batch(moments_batch(5)), &mut plain)
            .unwrap();
        assert_eq!(le_u16(&plain, 6) & FLAG_HAS_ID, 0);
        assert_eq!(decode_frame(&plain).unwrap().id, None);

        // Ids of every envelope-legal JSON shape survive the frame.
        let ids = [
            Content::U64(42),
            Content::Str("req-\"7\"-β".into()),
            Content::I64(-3),
        ];
        for want in ids {
            let mut b = moments_batch(5);
            b.id = Some(want.clone());
            let mut out = Vec::new();
            BinaryEncoder
                .encode_response(&ResponseBody::Batch(b), &mut out)
                .unwrap();
            assert_ne!(le_u16(&out, 6) & FLAG_HAS_ID, 0);
            let frame = decode_frame(&out).unwrap();
            // Compare as JSON text: the parser may pick a different
            // integer variant (I64 vs U64) for the same value.
            assert_eq!(
                frame.id.as_ref().map(|v| serde_json::to_string(v).unwrap()),
                Some(serde_json::to_string(&want).unwrap())
            );
            // The body decodes identically to the id-free frame
            // (bitwise — error points are NaN).
            let plain_frame = decode_frame(&plain).unwrap();
            assert_eq!(frame.codes, plain_frame.codes);
            for (a, b) in frame
                .columns
                .iter()
                .flatten()
                .zip(plain_frame.columns.iter().flatten())
            {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            // The id section is pure insertion: header plus tail match
            // the id-free frame byte for byte.
            assert_eq!(out[8..BINARY_HEADER_LEN], plain[8..BINARY_HEADER_LEN]);
            let id_len = le_u32(&out, BINARY_HEADER_LEN) as usize;
            assert_eq!(
                out[BINARY_HEADER_LEN + 4 + id_len..],
                plain[BINARY_HEADER_LEN..]
            );
        }
    }

    #[test]
    fn id_section_defects_are_typed() {
        let mut b = moments_batch(3);
        b.id = Some(Content::Str("corr-9".into()));
        let mut out = Vec::new();
        BinaryEncoder
            .encode_response(&ResponseBody::Batch(b), &mut out)
            .unwrap();
        // Truncating inside the id length prefix or the id bytes reports
        // Truncated, never a panic.
        for cut in [BINARY_HEADER_LEN + 2, BINARY_HEADER_LEN + 5] {
            assert!(
                matches!(decode_frame(&out[..cut]), Err(FrameError::Truncated { .. })),
                "cut at {cut}"
            );
        }
        // Corrupting the id's JSON is a typed BadId.
        let mut bad = out.clone();
        bad[BINARY_HEADER_LEN + 4] = b'x'; // opening quote -> garbage
        assert_eq!(decode_frame(&bad), Err(FrameError::BadId));
        // The pristine frame still decodes.
        assert_eq!(
            decode_frame(&out).unwrap().id,
            Some(Content::Str("corr-9".into()))
        );
    }

    #[test]
    fn corrupted_frames_are_rejected_with_typed_reasons() {
        let mut out = Vec::new();
        BinaryEncoder
            .encode_response(&ResponseBody::Batch(moments_batch(9)), &mut out)
            .unwrap();
        // Every truncation point fails (sampled densely near the header).
        for cut in (0..out.len()).step_by(7).chain([out.len() - 1]) {
            assert!(
                matches!(decode_frame(&out[..cut]), Err(FrameError::Truncated { .. })),
                "cut at {cut}"
            );
        }
        let mut bad = out.clone();
        bad[0] ^= 0x40;
        assert!(matches!(decode_frame(&bad), Err(FrameError::BadMagic(_))));
        let mut bad = out.clone();
        bad[4] = 9;
        assert_eq!(decode_frame(&bad), Err(FrameError::BadVersion(9)));
        let mut bad = out.clone();
        bad.push(0);
        assert_eq!(decode_frame(&bad), Err(FrameError::TrailingBytes(1)));
        let mut bad = out.clone();
        bad[BINARY_HEADER_LEN] = 250; // point 0's status byte
        assert_eq!(
            decode_frame(&bad),
            Err(FrameError::BadErrorCode {
                index: 0,
                byte: 250
            })
        );
        let mut bad = out.clone();
        bad[16] ^= 1; // ok_count low byte
        assert!(matches!(
            decode_frame(&bad),
            Err(FrameError::OkCountMismatch { .. })
        ));
        // The pristine frame still decodes.
        decode_frame(&out).unwrap();
    }

    #[test]
    fn encode_deadline_trips_mid_encode_unless_already_reported() {
        let past = Instant::now() - Duration::from_millis(5);
        let mut b = moments_batch(DEADLINE_CHECK_STRIDE * 3);
        b.deadline = Some((past, 7));
        let mut out = Vec::new();
        let err = NdjsonEncoder
            .encode_response(&ResponseBody::Batch(b), &mut out)
            .unwrap_err();
        assert_eq!(err.code(), ErrorCode::DeadlineExceeded);
        assert!(err.to_string().contains("7 ms"), "{err}");

        let mut b = moments_batch(DEADLINE_CHECK_STRIDE * 3);
        b.deadline = Some((past, 7));
        let mut out = Vec::new();
        let err = BinaryEncoder
            .encode_response(&ResponseBody::Batch(b), &mut out)
            .unwrap_err();
        assert_eq!(err.code(), ErrorCode::DeadlineExceeded);

        // When evaluation already reported the deadline, the response IS
        // the deadline report and must encode fully.
        let mut b = moments_batch(DEADLINE_CHECK_STRIDE * 3);
        b.deadline = Some((past, 7));
        b.deadline_exceeded = true;
        let mut out = Vec::new();
        NdjsonEncoder
            .encode_response(&ResponseBody::Batch(b), &mut out)
            .unwrap();
        let mut b = moments_batch(DEADLINE_CHECK_STRIDE * 3);
        b.deadline = Some((past, 7));
        b.deadline_exceeded = true;
        let mut out = Vec::new();
        BinaryEncoder
            .encode_response(&ResponseBody::Batch(b), &mut out)
            .unwrap();
        decode_frame(&out).unwrap();
        // A generous deadline encodes fine.
        let mut b = moments_batch(DEADLINE_CHECK_STRIDE * 3);
        b.deadline = Some((Instant::now() + Duration::from_secs(3600), 3_600_000));
        let mut out = Vec::new();
        NdjsonEncoder
            .encode_response(&ResponseBody::Batch(b), &mut out)
            .unwrap();
    }

    #[test]
    fn fields_fall_back_to_ndjson_on_the_binary_encoder() {
        let fields = vec![
            ("ok", Content::Bool(false)),
            ("error", Content::Str("bad request: nope".into())),
            ("code", Content::Str("bad_request".into())),
        ];
        let mut bin = Vec::new();
        BinaryEncoder
            .encode_response(&ResponseBody::Fields(fields.clone()), &mut bin)
            .unwrap();
        let mut nd = Vec::new();
        NdjsonEncoder
            .encode_response(&ResponseBody::Fields(fields), &mut nd)
            .unwrap();
        assert_eq!(bin, nd, "errors are NDJSON on both encoders");
        assert!(bin.starts_with(b"{"));
    }

    #[test]
    fn stats_encode_as_ndjson_on_both() {
        let stats: Content = serde_json::from_str(r#"{"stats":true,"requests":3}"#).unwrap();
        let mut a = Vec::new();
        NdjsonEncoder.encode_stats(&stats, &mut a);
        let mut b = Vec::new();
        BinaryEncoder.encode_stats(&stats, &mut b);
        assert_eq!(a, b);
        assert_eq!(serde_json::from_slice::<Content>(&a).unwrap(), stats);
    }
}
