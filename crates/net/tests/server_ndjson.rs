//! End-to-end NDJSON serving: compile a model over the wire, push a
//! 1000+-point batch through it deterministically, and check the
//! observability counters. Sessions run on the shared session loop
//! over byte buffers, as `awesym serve` runs it on stdin.

use awesym_net::{session, Transport};
use awesym_serve::Server;
use serde::Content;

const NETLIST: &str = "* fig1\nvin in 0 1\nR1 in 1 1k\nC1 1 0 1n\nR2 1 2 1k\nC2 2 0 1n\n.end\n";

fn compile_line() -> String {
    format!(
        r#"{{"cmd":"compile","name":"m","netlist":{},"input":"vin","output":"2","symbols":["C1","R2:r"],"order":2}}"#,
        serde_json::to_string(&NETLIST.to_string()).unwrap()
    )
}

fn batch_line(points: usize, workers: usize) -> String {
    let pts: Vec<String> = (0..points)
        .map(|i| {
            let t = i as f64 / points as f64;
            format!("[{:e},{:e}]", 0.5e-9 + 3e-9 * t, 300.0 + 4000.0 * t)
        })
        .collect();
    format!(
        r#"{{"cmd":"batch","model":"m","points":[{}],"kind":"moments","workers":{workers}}}"#,
        pts.join(",")
    )
}

fn run_session(lines: &[String]) -> Vec<String> {
    let server = Server::default();
    let input = lines.join("\n") + "\n";
    let mut out = Vec::new();
    session::run(&server, Transport::default(), input.as_bytes(), &mut out).unwrap();
    String::from_utf8(out)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect()
}

fn get<'a>(c: &'a Content, key: &str) -> &'a Content {
    c.get(key).unwrap_or_else(|| panic!("missing {key}: {c:?}"))
}

#[test]
fn thousand_point_batch_is_deterministic_with_live_stats() {
    const POINTS: usize = 1200;
    let session: Vec<String> = vec![
        compile_line(),
        batch_line(POINTS, 4),
        r#"{"cmd":"stats"}"#.to_string(),
        r#"{"cmd":"shutdown"}"#.to_string(),
    ];
    let replies = run_session(&session);
    assert_eq!(replies.len(), 4);

    let batch: Content = serde_json::from_str(&replies[1]).unwrap();
    assert_eq!(get(&batch, "ok").as_bool(), Some(true));
    assert_eq!(get(&batch, "count").as_u64(), Some(POINTS as u64));
    assert_eq!(get(&batch, "ok_count").as_u64(), Some(POINTS as u64));
    assert!(get(&batch, "points_per_sec").as_f64().unwrap() > 0.0);
    let results = get(&batch, "results").as_seq().unwrap();
    assert_eq!(results.len(), POINTS);
    // Every point carries 2q = 4 finite moments.
    for r in results {
        let m = get(r, "moments").as_seq().unwrap();
        assert_eq!(m.len(), 4);
        assert!(m.iter().all(|v| v.as_f64().unwrap().is_finite()));
    }

    // Stats counters are live and nonzero after the batch.
    let stats: Content = serde_json::from_str(&replies[2]).unwrap();
    let server = get(&stats, "server");
    assert!(get(server, "requests").as_u64().unwrap() >= 2);
    assert_eq!(get(server, "batch_points").as_u64(), Some(POINTS as u64));
    assert!(get(server, "batch_points_per_sec").as_f64().unwrap() > 0.0);
    let total_latency: u64 = get(server, "latency")
        .as_seq()
        .unwrap()
        .iter()
        .map(|b| get(b, "count").as_u64().unwrap())
        .sum();
    assert_eq!(total_latency, get(server, "requests").as_u64().unwrap());
    let registry = get(&stats, "registry");
    assert!(get(registry, "hits").as_u64().unwrap() >= 1);
    assert_eq!(get(registry, "resident").as_u64(), Some(1));

    // Determinism: an identical session (even at another worker count)
    // produces byte-identical batch results.
    let replies2 = run_session(&[
        compile_line(),
        batch_line(POINTS, 1),
        r#"{"cmd":"shutdown"}"#.to_string(),
    ]);
    let b1: Content = serde_json::from_str(&replies[1]).unwrap();
    let b2: Content = serde_json::from_str(&replies2[1]).unwrap();
    assert_eq!(get(&b1, "results"), get(&b2, "results"));
}

#[test]
fn save_then_load_over_the_wire() {
    let dir = std::env::temp_dir().join(format!("awesym_ndjson_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let art = dir.join("wire.awesym");
    let art_json = serde_json::to_string(&art.display().to_string()).unwrap();
    let replies = run_session(&[
        compile_line(),
        format!(r#"{{"cmd":"save","model":"m","path":{art_json}}}"#),
        format!(r#"{{"cmd":"load","name":"m2","path":{art_json}}}"#),
        r#"{"cmd":"eval","model":"m2","values":[1e-9,1000.0],"kind":"delays"}"#.to_string(),
        r#"{"cmd":"shutdown"}"#.to_string(),
    ]);
    for (i, line) in replies.iter().enumerate() {
        let c: Content = serde_json::from_str(line).unwrap();
        assert_eq!(
            c.get("ok").and_then(Content::as_bool),
            Some(true),
            "line {i}: {line}"
        );
    }
    let eval: Content = serde_json::from_str(&replies[3]).unwrap();
    let elmore = get(get(&eval, "result"), "elmore").as_f64().unwrap();
    assert!(elmore > 0.0);
    let _ = std::fs::remove_dir_all(&dir);
}
