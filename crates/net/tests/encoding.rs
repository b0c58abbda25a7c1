//! Wire-format equivalence over the shared session loop: the same batch
//! requested as NDJSON and as binary-v1 through one session must produce
//! value-identical responses (bit-for-bit on every float), binary frames
//! must interleave with NDJSON lines without framing ambiguity, and a
//! frame corrupted anywhere on the wire must be rejected with a typed
//! reason. This is the test the CI wire-equivalence matrix leg runs.

use awesym_net::{session, Transport};
use awesym_serve::encode::{BINARY_HEADER_LEN, FLAG_HAS_ID};
use awesym_serve::{decode_frame, FrameError, Server};
use serde::Content;

const NETLIST: &str = "* fig1\nvin in 0 1\nR1 in 1 1k\nC1 1 0 1n\nR2 1 2 1k\nC2 2 0 1n\n.end\n";

fn compile_line() -> String {
    format!(
        r#"{{"cmd":"compile","name":"m","netlist":{},"input":"vin","output":"2","symbols":["C1","R2:r"],"order":2}}"#,
        serde_json::to_string(&NETLIST.to_string()).unwrap()
    )
}

fn points_json(points: usize) -> String {
    let pts: Vec<String> = (0..points)
        .map(|i| {
            let t = i as f64 / points as f64;
            format!("[{:e},{:e}]", 0.5e-9 + 3e-9 * t, 300.0 + 4000.0 * t)
        })
        .collect();
    pts.join(",")
}

fn batch_line(points: usize, kind: &str, encoding: Option<&str>) -> String {
    let enc = encoding.map_or(String::new(), |e| format!(r#""encoding":"{e}","#));
    format!(
        r#"{{"cmd":"batch","model":"m",{enc}"points":[{}],"kind":"{kind}","workers":2}}"#,
        points_json(points)
    )
}

/// Reads one `\n`-terminated line off the front of the stream.
fn take_line(bytes: &mut &[u8]) -> String {
    let nl = bytes
        .iter()
        .position(|&b| b == b'\n')
        .expect("stream has a newline-terminated line");
    let line = String::from_utf8(bytes[..nl].to_vec()).expect("NDJSON line is UTF-8");
    *bytes = &bytes[nl + 1..];
    line
}

/// Reads one self-delimiting binary frame off the front of the stream,
/// sizing it from its own header (the only way a client can, since
/// frames carry no trailing newline).
fn take_frame(bytes: &mut &[u8]) -> Vec<u8> {
    assert!(bytes.len() >= BINARY_HEADER_LEN, "truncated header");
    let flags = u16::from_le_bytes(bytes[6..8].try_into().unwrap());
    let count = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
    let cols = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    let id_section = if flags & FLAG_HAS_ID != 0 {
        assert!(bytes.len() >= BINARY_HEADER_LEN + 4, "truncated id length");
        let id_len = u32::from_le_bytes(
            bytes[BINARY_HEADER_LEN..BINARY_HEADER_LEN + 4]
                .try_into()
                .unwrap(),
        ) as usize;
        4 + id_len
    } else {
        0
    };
    let len = BINARY_HEADER_LEN + id_section + count + 8 * count * cols;
    assert!(bytes.len() >= len, "truncated frame body");
    let frame = bytes[..len].to_vec();
    *bytes = &bytes[len..];
    frame
}

/// Runs one session over the session loop and returns the raw output
/// bytes.
fn run_session(lines: &[String]) -> Vec<u8> {
    let server = Server::default();
    let input = lines.join("\n") + "\n";
    let mut out = Vec::new();
    session::run(&server, Transport::default(), input.as_bytes(), &mut out).unwrap();
    out
}

#[test]
fn binary_frames_match_ndjson_bit_for_bit_over_the_wire() {
    const POINTS: usize = 500;
    for (kind, expect_cols) in [("moments", 4usize), ("dc_gain", 1), ("delays", 4)] {
        let out = run_session(&[
            compile_line(),
            batch_line(POINTS, kind, None),
            batch_line(POINTS, kind, Some("binary-v1")),
            r#"{"cmd":"shutdown"}"#.to_string(),
        ]);
        let mut rest = out.as_slice();
        let compile: Content = serde_json::from_str(&take_line(&mut rest)).unwrap();
        assert_eq!(compile.get("ok").and_then(Content::as_bool), Some(true));
        let nd: Content = serde_json::from_str(&take_line(&mut rest)).unwrap();
        assert_eq!(nd.get("ok").and_then(Content::as_bool), Some(true));
        let frame = decode_frame(&take_frame(&mut rest)).expect("well-formed frame");
        let bye: Content = serde_json::from_str(&take_line(&mut rest)).unwrap();
        assert_eq!(bye.get("ok").and_then(Content::as_bool), Some(true));
        assert!(rest.is_empty(), "{} trailing bytes", rest.len());

        assert_eq!(frame.count, POINTS, "{kind}");
        assert_eq!(frame.cols, expect_cols, "{kind}");
        assert_eq!(frame.ok_count, POINTS as u64, "{kind}");
        assert_eq!(
            Some(frame.ok_count),
            nd.get("ok_count").and_then(Content::as_u64)
        );
        let results = nd.get("results").and_then(Content::as_seq).unwrap();
        for (i, r) in results.iter().enumerate() {
            assert!(frame.code(i).is_none(), "{kind} point {i} not ok");
            // Flatten the NDJSON value object to its column scalars in
            // wire order.
            let nd_vals: Vec<f64> = match kind {
                "moments" => r
                    .get("moments")
                    .and_then(Content::as_seq)
                    .unwrap()
                    .iter()
                    .map(|m| m.as_f64().unwrap())
                    .collect(),
                "dc_gain" => vec![r.get("dc_gain").and_then(Content::as_f64).unwrap()],
                "delays" => ["elmore", "ln2_elmore", "d2m", "two_pole"]
                    .iter()
                    .map(|k| {
                        r.get(k)
                            .map(|v| v.as_f64().unwrap_or(f64::NAN))
                            .unwrap_or(f64::NAN)
                    })
                    .collect(),
                other => unreachable!("{other}"),
            };
            let bin_vals = frame.point(i);
            assert_eq!(nd_vals.len(), bin_vals.len(), "{kind} point {i}");
            for (c, (a, b)) in nd_vals.iter().zip(&bin_vals).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{kind} point {i} col {c}: {a:e} vs {b:e}"
                );
            }
        }
    }
}

/// A request `id` must survive the binary path end to end: the server
/// carries it in the frame's id section, the decoder hands it back, and
/// id-free frames stay on the legacy layout with no id flag.
#[test]
fn request_id_survives_the_binary_path_over_the_wire() {
    let with_id = format!(
        r#"{{"cmd":"batch","model":"m","id":"corr-\"x\"-17","encoding":"binary-v1","points":[{}],"kind":"moments","workers":2}}"#,
        points_json(25)
    );
    let numeric_id = format!(
        r#"{{"cmd":"batch","model":"m","id":9007,"encoding":"binary-v1","points":[{}],"kind":"dc_gain"}}"#,
        points_json(10)
    );
    let out = run_session(&[
        compile_line(),
        with_id,
        numeric_id,
        batch_line(25, "moments", Some("binary-v1")),
        r#"{"cmd":"shutdown"}"#.to_string(),
    ]);
    let mut rest = out.as_slice();
    let _compile = take_line(&mut rest);

    let frame = decode_frame(&take_frame(&mut rest)).expect("id frame decodes");
    assert_eq!(frame.id, Some(Content::Str("corr-\"x\"-17".into())));
    assert_eq!(frame.count, 25);
    assert_eq!(frame.ok_count, 25);

    let frame = decode_frame(&take_frame(&mut rest)).expect("numeric-id frame decodes");
    assert_eq!(frame.id.as_ref().and_then(Content::as_u64), Some(9007));
    assert_eq!(frame.count, 10);

    // The id-free request still produces a legacy frame: no flag, no id.
    let raw = take_frame(&mut rest);
    assert_eq!(
        u16::from_le_bytes(raw[6..8].try_into().unwrap()) & FLAG_HAS_ID,
        0
    );
    assert_eq!(decode_frame(&raw).unwrap().id, None);

    let bye: Content = serde_json::from_str(&take_line(&mut rest)).unwrap();
    assert_eq!(bye.get("ok").and_then(Content::as_bool), Some(true));
    assert!(rest.is_empty(), "{} trailing bytes", rest.len());
}

/// Every corruption of a wire-captured frame — truncation at any point,
/// bit flips in header or body framing fields — must be a typed
/// `FrameError`, never a wrong silent decode.
#[test]
fn wire_captured_frames_reject_corruption() {
    let out = run_session(&[
        compile_line(),
        batch_line(40, "moments", Some("binary-v1")),
        r#"{"cmd":"shutdown"}"#.to_string(),
    ]);
    let mut rest = out.as_slice();
    let _compile = take_line(&mut rest);
    let frame = take_frame(&mut rest);
    assert!(decode_frame(&frame).is_ok());

    // Truncation at every prefix length must fail typed.
    for cut in (0..frame.len()).step_by(13) {
        assert!(
            matches!(
                decode_frame(&frame[..cut]),
                Err(FrameError::Truncated { .. })
            ),
            "cut at {cut}"
        );
    }
    // Trailing garbage.
    let mut long = frame.clone();
    long.push(0);
    assert!(matches!(
        decode_frame(&long),
        Err(FrameError::TrailingBytes(1))
    ));
    // Magic and version flips.
    let mut bad = frame.clone();
    bad[0] ^= 0xFF;
    assert!(matches!(decode_frame(&bad), Err(FrameError::BadMagic(_))));
    let mut bad = frame.clone();
    bad[4] ^= 0xFF;
    assert!(matches!(decode_frame(&bad), Err(FrameError::BadVersion(_))));
    // A status byte outside the error-code table.
    let mut bad = frame.clone();
    bad[BINARY_HEADER_LEN] = 200;
    assert!(matches!(
        decode_frame(&bad),
        Err(FrameError::BadErrorCode {
            index: 0,
            byte: 200
        })
    ));
    // An ok_count that disagrees with the status column.
    let mut bad = frame;
    bad[16] ^= 0x01;
    assert!(matches!(
        decode_frame(&bad),
        Err(FrameError::OkCountMismatch { .. })
    ));
}
