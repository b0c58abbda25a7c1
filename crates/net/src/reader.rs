//! Streaming zero-copy request framing.
//!
//! [`RecvBuf`] owns one connection's receive buffer and hands the
//! session loop *borrowed* slices of complete messages — an NDJSON line
//! or a binary-v1 request frame — instead of allocating a `String` per
//! line the way `BufRead::lines` does. Bytes are only ever copied by
//! the occasional compaction memmove when a partial message straddles a
//! read boundary; the decode path reads straight out of the buffer.
//!
//! Message-boundary detection sniffs the first bytes: a message
//! starting with the `AWSQ` magic is a binary request frame, sized from
//! its fixed 44-byte header ([`crate::frame::request_frame_len`]);
//! anything else is a newline-terminated NDJSON line. JSON requests
//! start with `{` (or whitespace), so the magic can never shadow a
//! valid line — the framing spec in `docs/networking.md` makes that a
//! rule.

use crate::frame::{request_frame_len, RequestFrameError, REQUEST_HEADER_LEN, REQUEST_MAGIC};
use std::fmt;
use std::io::Read;

/// Smallest read the buffer asks the socket for.
const MIN_READ: usize = 8 << 10;

/// What kind of message a scan found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessageKind {
    /// A newline-terminated NDJSON request line (newline included in
    /// the span, trimmed by the consumer).
    Line,
    /// A complete binary-v1 request frame.
    Frame,
}

/// One complete message's location: always at the front of the buffer,
/// `len` bytes long. `Copy`, so the caller can scan first and borrow
/// the bytes second ([`RecvBuf::take`]) without fighting the borrow
/// checker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageSpan {
    /// Line or frame.
    pub kind: MessageKind,
    /// Bytes to consume from the front of the buffer.
    pub len: usize,
}

/// Why scanning the buffered bytes failed. All of these desync the byte
/// stream, so the connection must close after reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScanError {
    /// A pending message exceeds the configured size limit.
    TooLarge {
        /// Bytes buffered or declared so far.
        have: usize,
        /// The limit.
        limit: usize,
    },
    /// A binary frame header that cannot be sized (bad version, flags,
    /// or overflowing lengths).
    Frame(RequestFrameError),
}

impl fmt::Display for ScanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScanError::TooLarge { have, limit } => {
                write!(f, "message is {have}+ bytes, limit is {limit}")
            }
            ScanError::Frame(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ScanError {}

/// A connection's receive buffer: fill from the socket, scan for a
/// complete message, borrow it in place.
pub struct RecvBuf {
    buf: Vec<u8>,
    start: usize,
    end: usize,
    max_message: usize,
}

impl RecvBuf {
    /// An empty buffer refusing messages larger than `max_message`.
    pub fn with_limit(max_message: usize) -> Self {
        RecvBuf {
            buf: Vec::new(),
            start: 0,
            end: 0,
            max_message,
        }
    }

    /// Bytes buffered but not yet consumed.
    pub fn available(&self) -> usize {
        self.end - self.start
    }

    /// The unconsumed bytes (diagnostics; normal consumption goes
    /// through [`RecvBuf::scan`] + [`RecvBuf::take`]).
    pub fn pending(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }

    /// Looks for one complete message at the front of the buffer.
    /// `Ok(None)` means more bytes are needed.
    ///
    /// # Errors
    ///
    /// [`ScanError`] when the pending message exceeds the size limit or
    /// a frame header cannot be sized; either desyncs the stream and
    /// the connection should close.
    pub fn scan(&self) -> Result<Option<MessageSpan>, ScanError> {
        let pending = self.pending();
        if pending.is_empty() {
            return Ok(None);
        }
        if starts_like_frame(pending) {
            if pending.len() < REQUEST_HEADER_LEN {
                // Could still become a full frame header (or, under 4
                // bytes, turn out not to be the magic at all): wait.
                return Ok(None);
            }
            let len = request_frame_len(pending).map_err(ScanError::Frame)?;
            if len > self.max_message {
                return Err(ScanError::TooLarge {
                    have: len,
                    limit: self.max_message,
                });
            }
            if pending.len() < len {
                return Ok(None);
            }
            return Ok(Some(MessageSpan {
                kind: MessageKind::Frame,
                len,
            }));
        }
        match pending.iter().position(|&b| b == b'\n') {
            Some(pos) => Ok(Some(MessageSpan {
                kind: MessageKind::Line,
                len: pos + 1,
            })),
            None if pending.len() > self.max_message => Err(ScanError::TooLarge {
                have: pending.len(),
                limit: self.max_message,
            }),
            None => Ok(None),
        }
    }

    /// At end of input: the bytes left over as one final, unterminated
    /// [`MessageKind::Line`]. `None` when nothing is left or the rest
    /// starts like a binary frame — a truncated frame can never
    /// complete, so it is dropped.
    pub fn scan_final(&self) -> Option<MessageSpan> {
        let pending = self.pending();
        if pending.is_empty() || starts_like_frame(pending) {
            return None;
        }
        Some(MessageSpan {
            kind: MessageKind::Line,
            len: pending.len(),
        })
    }

    /// Consumes `span` from the front of the buffer, returning its
    /// bytes. The borrow is zero-copy: it points into the receive
    /// buffer and is valid until the next `fill`/`take`.
    pub fn take(&mut self, span: MessageSpan) -> &[u8] {
        let lo = self.start;
        self.start += span.len;
        &self.buf[lo..lo + span.len]
    }

    /// Reads more bytes from `r`, compacting and growing the buffer as
    /// needed. Returns the byte count (0 = EOF).
    ///
    /// # Errors
    ///
    /// Propagates the underlying read error (including the timeout
    /// kinds a socket with a read timeout produces).
    pub fn fill(&mut self, r: &mut impl Read) -> std::io::Result<usize> {
        // Compact: move the partial message (if any) to the front so
        // the spare capacity is contiguous.
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.end == self.buf.len() {
            let grow = self.buf.len().max(MIN_READ);
            self.buf.resize(self.end + grow, 0);
        }
        let n = r.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }
}

/// True when `pending` begins with the `AWSQ` magic, or with a prefix
/// of it that more bytes could complete.
fn starts_like_frame(pending: &[u8]) -> bool {
    let probe = pending.len().min(REQUEST_MAGIC.len());
    pending[..probe] == REQUEST_MAGIC[..probe]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{encode_request, RequestFrame, RequestKind};

    fn tiny_frame() -> Vec<u8> {
        let mut out = Vec::new();
        encode_request(
            &RequestFrame {
                model: "m",
                points: &[vec![1.0, 2.0]],
                kind: RequestKind::Moments,
                times: &[],
                deadline_ms: None,
                workers: None,
                id: None,
            },
            &mut out,
        )
        .unwrap();
        out
    }

    fn feed(rb: &mut RecvBuf, bytes: &[u8]) {
        let mut src = bytes;
        rb.fill(&mut src).unwrap();
    }

    #[test]
    fn lines_and_frames_interleave_without_copies() {
        let mut rb = RecvBuf::with_limit(1 << 20);
        let frame = tiny_frame();
        let mut wire = b"{\"cmd\":\"stats\"}\n".to_vec();
        wire.extend_from_slice(&frame);
        wire.extend_from_slice(b"{\"cmd\":\"health\"}\n");
        feed(&mut rb, &wire);
        let span = rb.scan().unwrap().unwrap();
        assert_eq!(span.kind, MessageKind::Line);
        assert_eq!(rb.take(span), b"{\"cmd\":\"stats\"}\n");
        let span = rb.scan().unwrap().unwrap();
        assert_eq!(span.kind, MessageKind::Frame);
        assert_eq!(rb.take(span), &frame[..]);
        let span = rb.scan().unwrap().unwrap();
        assert_eq!(span.kind, MessageKind::Line);
        assert_eq!(rb.take(span), b"{\"cmd\":\"health\"}\n");
        assert_eq!(rb.available(), 0);
        assert!(rb.scan().unwrap().is_none());
    }

    #[test]
    fn partial_messages_wait_for_more_bytes() {
        let mut rb = RecvBuf::with_limit(1 << 20);
        let frame = tiny_frame();
        // A magic prefix shorter than the header: undecidable, wait.
        feed(&mut rb, &frame[..3]);
        assert!(rb.scan().unwrap().is_none());
        feed(&mut rb, &frame[3..frame.len() - 1]);
        assert!(rb.scan().unwrap().is_none(), "one byte short of a frame");
        feed(&mut rb, &frame[frame.len() - 1..]);
        let span = rb.scan().unwrap().unwrap();
        assert_eq!(span.kind, MessageKind::Frame);
        assert_eq!(rb.take(span), &frame[..]);
        // A line split mid-JSON likewise waits for its newline.
        feed(&mut rb, b"{\"cmd\":");
        assert!(rb.scan().unwrap().is_none());
        feed(&mut rb, b"\"stats\"}\n");
        let span = rb.scan().unwrap().unwrap();
        assert_eq!(rb.take(span), b"{\"cmd\":\"stats\"}\n");
    }

    #[test]
    fn a_line_that_merely_starts_like_the_magic_is_still_a_line() {
        let mut rb = RecvBuf::with_limit(1 << 20);
        feed(&mut rb, b"AWSnot a frame\n");
        let span = rb.scan().unwrap().unwrap();
        assert_eq!(span.kind, MessageKind::Line);
    }

    #[test]
    fn oversized_messages_are_typed_errors() {
        let rb_limit = 32;
        let mut rb = RecvBuf::with_limit(rb_limit);
        feed(&mut rb, &[b'x'; 40]);
        assert_eq!(
            rb.scan(),
            Err(ScanError::TooLarge {
                have: 40,
                limit: rb_limit
            })
        );
        // A frame whose header declares more than the limit fails as
        // soon as the header is readable, before buffering the body.
        let mut rb = RecvBuf::with_limit(64);
        let mut frame = tiny_frame();
        frame[8..12].copy_from_slice(&1000u32.to_le_bytes());
        feed(&mut rb, &frame[..REQUEST_HEADER_LEN]);
        assert!(matches!(rb.scan(), Err(ScanError::TooLarge { .. })));
    }

    #[test]
    fn bad_frame_headers_surface_the_frame_error() {
        let mut rb = RecvBuf::with_limit(1 << 20);
        let mut frame = tiny_frame();
        frame[4] = 9; // version
        feed(&mut rb, &frame);
        assert_eq!(
            rb.scan(),
            Err(ScanError::Frame(RequestFrameError::BadVersion(9)))
        );
    }

    #[test]
    fn at_eof_an_unterminated_line_is_final_and_a_partial_frame_is_dropped() {
        let mut rb = RecvBuf::with_limit(1 << 20);
        assert_eq!(rb.scan_final(), None, "nothing pending");
        feed(&mut rb, b"{\"cmd\":\"stats\"}\n{\"cmd\":\"health\"}");
        let span = rb.scan().unwrap().unwrap();
        assert_eq!(rb.take(span), b"{\"cmd\":\"stats\"}\n");
        assert!(rb.scan().unwrap().is_none(), "no newline yet");
        let span = rb.scan_final().unwrap();
        assert_eq!(span.kind, MessageKind::Line);
        assert_eq!(rb.take(span), b"{\"cmd\":\"health\"}");
        assert_eq!(rb.scan_final(), None);

        let frame = tiny_frame();
        for cut in [2, REQUEST_HEADER_LEN, frame.len() - 1] {
            let mut rb = RecvBuf::with_limit(1 << 20);
            feed(&mut rb, &frame[..cut]);
            assert!(rb.scan().unwrap().is_none());
            assert_eq!(rb.scan_final(), None, "frame cut at {cut}");
        }
    }

    #[test]
    fn compaction_preserves_partial_bytes_across_fills() {
        let mut rb = RecvBuf::with_limit(1 << 20);
        feed(&mut rb, b"{\"a\":1}\npartial");
        let span = rb.scan().unwrap().unwrap();
        assert_eq!(rb.take(span), b"{\"a\":1}\n");
        // The leftover straddles the consumed region; the next fill
        // compacts it to the front and appends.
        feed(&mut rb, b" line\n");
        let span = rb.scan().unwrap().unwrap();
        assert_eq!(rb.take(span), b"partial line\n");
    }
}
