//! Fault-injection suite: proves the serving stack keeps its promises
//! while evaluation is actively failing underneath it.
//!
//! Runs only with `--features fault-injection` (`ci.sh` has a
//! `fault_suite` stage). All faults come from a seeded
//! [`FaultPlan`], so every run faults exactly the same points: faulted
//! runs can be compared bit-for-bit against fault-free baselines.
//!
//! Invariants exercised here:
//! - every batch point gets an answer — panics become `internal` point
//!   errors, NaN moments become `numeric_unstable`, and healthy points
//!   are bit-identical to a fault-free run;
//! - a request that outlives its deadline is cut short with
//!   `deadline_exceeded` and does not block the next request;
//! - past the in-flight budget, requests are shed with `overloaded` and a
//!   `retry_after_ms` hint;
//! - an unstable Padé fit degrades to a lower order and says so.

use awesym_circuit::generators::fig1_rc;
use awesym_partition::{CompiledModel, SymbolBinding};
use awesym_serve::faults::{self, Fault, FaultPlan};
use awesym_serve::{evaluate_batch, BatchOutput, PoolConfig, Server, ServerConfig, WorkerPool};
use serde::Content;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The fault plan is process-global state, so tests touching it must not
/// interleave. Poisoning is ignored: a failed test must not cascade.
static PLAN_LOCK: Mutex<()> = Mutex::new(());

fn plan_guard() -> std::sync::MutexGuard<'static, ()> {
    PLAN_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Runs `f` with panic output silenced (injected panics would otherwise
/// spam the test log), restoring the hook afterwards.
fn quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(hook);
    out
}

fn model2() -> CompiledModel {
    let w = fig1_rc(1e-3, 2e-3, 1e-9, 3e-9);
    let c = &w.circuit;
    let bindings = [
        SymbolBinding::capacitance("c1", vec![c.find("C1").unwrap()]),
        SymbolBinding::resistance("r2", vec![c.find("R2").unwrap()]),
    ];
    CompiledModel::build(c, w.input, w.output, &bindings, 2).unwrap()
}

fn grid(n: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            let t = i as f64 / n as f64;
            vec![0.5e-9 + 3e-9 * t, 300.0 + 4000.0 * t]
        })
        .collect()
}

const NETLIST: &str = "* fig1\nvin in 0 1\nR1 in 1 1k\nC1 1 0 1n\nR2 1 2 1k\nC2 2 0 1n\n.end\n";

fn compile_line(name: &str, order: u64) -> String {
    format!(
        r#"{{"cmd":"compile","name":"{name}","netlist":{netlist},"input":"vin","output":"2","symbols":["C1","R2:r"],"order":{order}}}"#,
        netlist = serde_json::to_string(&Content::Str(NETLIST.into())).unwrap()
    )
}

fn batch_line(model: &str, points: Vec<Vec<f64>>, extra: &[(&str, Content)]) -> String {
    let mut fields = vec![
        ("cmd".to_string(), Content::Str("batch".into())),
        ("model".to_string(), Content::Str(model.into())),
        (
            "points".to_string(),
            Content::Seq(
                points
                    .into_iter()
                    .map(|p| Content::Seq(p.into_iter().map(Content::F64).collect()))
                    .collect(),
            ),
        ),
    ];
    for (k, v) in extra {
        fields.push(((*k).to_string(), v.clone()));
    }
    serde_json::to_string(&Content::Map(fields)).unwrap()
}

fn parse(server: &Server, line: &str) -> Content {
    let resp = server.handle_line(line).expect("non-empty request line");
    serde_json::from_str(resp.text()).expect("response is JSON")
}

fn ok_of(c: &Content) -> bool {
    c.get("ok").and_then(Content::as_bool).unwrap()
}

fn server_counter(server: &Server, key: &str) -> u64 {
    parse(server, r#"{"cmd":"stats"}"#)
        .get("server")
        .and_then(|s| s.get(key))
        .and_then(Content::as_u64)
        .unwrap()
}

#[test]
fn faulted_batch_answers_every_point_and_healthy_points_are_bit_identical() {
    let _guard = plan_guard();
    let model = model2();
    let points = grid(1200);

    // Fault-free baseline first (no plan installed).
    faults::clear();
    let baseline = evaluate_batch(&model, &points, &BatchOutput::Moments);

    // 10% panics + 10% NaN moments, seeded.
    let plan = FaultPlan {
        seed: 0xA11CE,
        panic_rate_pct: 10,
        nan_rate_pct: 10,
        ..FaultPlan::default()
    };
    let (model, points) = (Arc::new(model), Arc::new(points));
    for workers in [1, 2, 4, 8] {
        let pool = WorkerPool::new(
            0,
            PoolConfig {
                workers,
                ..PoolConfig::default()
            },
        );
        faults::install(plan);
        let outcome = quiet_panics(|| {
            pool.run_batch(
                Arc::clone(&model),
                Arc::clone(&points),
                BatchOutput::Moments,
                None,
                None,
            )
        });
        faults::clear();

        // Every point answered.
        assert_eq!(outcome.results.len(), points.len());
        let mut panicked = 0u64;
        let mut poisoned = 0u64;
        for (i, (got, base)) in outcome.results.iter().zip(&baseline).enumerate() {
            match plan.fault_for(i) {
                None => {
                    // Healthy points: bit-identical to the fault-free run
                    // (the faulted run takes the per-point path, the
                    // baseline the SoA kernel — the two must agree to the
                    // bit).
                    assert_eq!(got, base, "point {i}, workers={workers}");
                }
                Some(Fault::Panic) => {
                    let e = got.as_ref().unwrap_err();
                    assert_eq!(e.code, "internal", "point {i}: {e}");
                    assert!(e.message.contains("panicked"), "point {i}: {e}");
                    panicked += 1;
                }
                Some(Fault::NanMoments) => {
                    let e = got.as_ref().unwrap_err();
                    assert_eq!(e.code, "numeric_unstable", "point {i}: {e}");
                    poisoned += 1;
                }
                Some(Fault::Slow(_)) => unreachable!("no slow faults in this plan"),
            }
        }
        assert!(panicked > 60, "{panicked}");
        assert!(poisoned > 60, "{poisoned}");
        assert_eq!(outcome.panics_caught, panicked, "workers={workers}");
        assert!(!outcome.deadline_exceeded);
    }
}

#[test]
fn server_answers_faulted_batches_and_counts_panics() {
    let _guard = plan_guard();
    let server = Server::default();
    assert!(ok_of(&parse(&server, &compile_line("m", 2))));
    let req = batch_line("m", grid(300), &[("workers", Content::U64(4))]);

    faults::install(FaultPlan {
        seed: 7,
        panic_rate_pct: 10,
        nan_rate_pct: 10,
        ..FaultPlan::default()
    });
    let c = quiet_panics(|| parse(&server, &req));
    faults::clear();

    assert!(ok_of(&c), "{c:?}");
    assert_eq!(c.get("count").and_then(Content::as_u64), Some(300));
    let results = c.get("results").and_then(Content::as_seq).unwrap();
    assert_eq!(results.len(), 300);
    let coded = results
        .iter()
        .filter(|r| {
            matches!(
                r.get("code").and_then(Content::as_str),
                Some("internal") | Some("numeric_unstable")
            )
        })
        .count() as u64;
    let ok_count = c.get("ok_count").and_then(Content::as_u64).unwrap();
    assert_eq!(ok_count + coded, 300);
    assert!(coded > 30, "{coded}");

    // The server is still healthy and the counters saw the panics.
    assert!(server_counter(&server, "panics_caught") > 10);
    assert!(ok_of(&parse(
        &server,
        r#"{"cmd":"eval","model":"m","values":[1e-9,1e3]}"#
    )));
}

#[test]
fn deadline_cuts_a_slow_batch_short_without_blocking_the_next_request() {
    let _guard = plan_guard();
    let server = Server::default();
    assert!(ok_of(&parse(&server, &compile_line("m", 2))));
    // Every point sleeps 25 ms against a 10 ms deadline: at most the
    // first point per worker lands, the rest are cut off between points.
    let req = batch_line(
        "m",
        grid(32),
        &[
            ("workers", Content::U64(2)),
            ("deadline_ms", Content::U64(10)),
        ],
    );
    faults::install(FaultPlan {
        seed: 1,
        slow_rate_pct: 100,
        slow: Duration::from_millis(25),
        ..FaultPlan::default()
    });
    let c = parse(&server, &req);
    faults::clear();

    assert!(ok_of(&c), "{c:?}");
    assert_eq!(
        c.get("deadline_exceeded").and_then(Content::as_bool),
        Some(true)
    );
    let results = c.get("results").and_then(Content::as_seq).unwrap();
    assert_eq!(results.len(), 32);
    let expired = results
        .iter()
        .filter(|r| r.get("code").and_then(Content::as_str) == Some("deadline_exceeded"))
        .count();
    assert!(expired >= 28, "{expired} of 32 expired");

    // Deadline damage is confined to that request.
    let c = parse(&server, r#"{"cmd":"eval","model":"m","values":[1e-9,1e3]}"#);
    assert!(ok_of(&c), "{c:?}");
    assert_eq!(server_counter(&server, "deadlines_exceeded"), 1);
}

#[test]
fn inflight_budget_sheds_concurrent_load_with_retry_hint() {
    let _guard = plan_guard();
    let server = Server::with_config(ServerConfig {
        max_inflight: 1,
        retry_after_ms: 25,
        ..ServerConfig::default()
    });
    assert!(ok_of(&parse(&server, &compile_line("m", 2))));

    // The in-flight request sleeps 400 ms per point; a second request
    // arriving meanwhile must be shed, not queued.
    faults::install(FaultPlan {
        seed: 2,
        slow_rate_pct: 100,
        slow: Duration::from_millis(400),
        ..FaultPlan::default()
    });
    let shed = std::thread::scope(|s| {
        let slow = s.spawn(|| parse(&server, r#"{"cmd":"eval","model":"m","values":[1e-9,1e3]}"#));
        std::thread::sleep(Duration::from_millis(100));
        let c = parse(&server, r#"{"cmd":"eval","model":"m","values":[2e-9,2e3]}"#);
        let slow_resp = slow.join().unwrap();
        assert!(ok_of(&slow_resp), "{slow_resp:?}");
        c
    });
    faults::clear();

    assert!(!ok_of(&shed), "{shed:?}");
    assert_eq!(
        shed.get("code").and_then(Content::as_str),
        Some("overloaded")
    );
    assert_eq!(
        shed.get("retry_after_ms").and_then(Content::as_u64),
        Some(25)
    );
    // The budget frees up once the slow request finishes.
    let c = parse(&server, r#"{"cmd":"eval","model":"m","values":[1e-9,1e3]}"#);
    assert!(ok_of(&c), "{c:?}");
    assert_eq!(server_counter(&server, "requests_shed"), 1);
}

#[test]
fn overfit_model_degrades_to_lower_order_and_reports_it() {
    // No fault plan needed: the instability is the circuit's own — a
    // two-pole RC compiled at order 3 makes the q=3 Hankel system
    // singular, so the ladder must fall back to q=2 and say so.
    let _guard = plan_guard();
    faults::clear();
    let server = Server::default();
    assert!(ok_of(&parse(&server, &compile_line("m3", 3))));
    let c = parse(
        &server,
        r#"{"cmd":"eval","model":"m3","values":[1e-9,1e3],"kind":"rom"}"#,
    );
    assert!(ok_of(&c), "{c:?}");
    let degraded = c
        .get("result")
        .and_then(|r| r.get("degraded"))
        .expect("degraded report present");
    assert_eq!(
        degraded.get("from_order").and_then(Content::as_u64),
        Some(3)
    );
    assert_eq!(degraded.get("to_order").and_then(Content::as_u64), Some(2));
    assert!(degraded
        .get("reason")
        .and_then(Content::as_str)
        .unwrap()
        .contains("order 3"));
    assert_eq!(server_counter(&server, "degradations"), 1);
}

/// Acceptance gate for the binary wire format: on the same seeded
/// 1200-point faulted batch, the binary-v1 frame must carry exactly the
/// values and error codes the NDJSON response carries — healthy points
/// bit-identical, faulted points with matching typed codes and NaN value
/// slots.
#[test]
fn binary_frame_is_bit_identical_to_ndjson_on_a_faulted_batch() {
    let _guard = plan_guard();
    let server = Server::default();
    assert!(ok_of(&parse(&server, &compile_line("m", 2))));
    let plan = FaultPlan {
        seed: 0xBEEF,
        panic_rate_pct: 10,
        nan_rate_pct: 10,
        ..FaultPlan::default()
    };
    let nd_req = batch_line("m", grid(1200), &[("workers", Content::U64(4))]);
    let bin_req = batch_line(
        "m",
        grid(1200),
        &[
            ("workers", Content::U64(4)),
            ("encoding", Content::Str("binary-v1".into())),
        ],
    );

    // Same plan for both runs: faults are a pure function of the point
    // index, so the two responses describe identical evaluations.
    faults::install(plan);
    let nd = quiet_panics(|| parse(&server, &nd_req));
    faults::clear();
    faults::install(plan);
    let bin = quiet_panics(|| {
        server
            .handle_line(&bin_req)
            .expect("non-empty request line")
    });
    faults::clear();

    assert!(ok_of(&nd), "{nd:?}");
    let frame = awesym_serve::decode_frame(&bin.body).expect("well-formed binary frame");
    assert_eq!(frame.count, 1200);
    assert_eq!(frame.cols, 4, "2q moment columns at order 2");
    assert_eq!(
        Some(frame.ok_count),
        nd.get("ok_count").and_then(Content::as_u64)
    );
    let results = nd.get("results").and_then(Content::as_seq).unwrap();
    assert_eq!(results.len(), 1200);
    let mut faulted = 0usize;
    for (i, r) in results.iter().enumerate() {
        match r.get("code").and_then(Content::as_str) {
            Some(code) => {
                let wire = frame.code(i).expect("known error code");
                assert_eq!(wire.as_str(), code, "point {i}");
                assert!(
                    frame.point(i).iter().all(|v| v.is_nan()),
                    "point {i}: error slots must be NaN"
                );
                faulted += 1;
            }
            None => {
                let moments = r
                    .get("moments")
                    .and_then(Content::as_seq)
                    .unwrap_or_else(|| panic!("point {i}: missing moments"));
                let nd_bits: Vec<u64> = moments
                    .iter()
                    .map(|m| m.as_f64().unwrap().to_bits())
                    .collect();
                let bin_bits: Vec<u64> = frame.point(i).iter().map(|v| v.to_bits()).collect();
                assert_eq!(nd_bits, bin_bits, "point {i}");
            }
        }
    }
    assert!(faulted > 120, "{faulted} faulted of 1200");
}

#[test]
fn corrupted_artifacts_are_rejected_via_helpers() {
    // The corruption helpers live behind the feature too; prove they
    // drive the loader's typed rejection paths.
    let model = model2();
    let text = awesym_serve::to_artifact_string(&model).unwrap();
    let flipped = faults::bit_flip_digit(&text, 99);
    assert!(matches!(
        awesym_serve::from_artifact_str(&flipped),
        Err(awesym_serve::ServeError::ChecksumMismatch { .. })
            | Err(awesym_serve::ServeError::BadFormat { .. })
            | Err(awesym_serve::ServeError::VersionMismatch { .. })
    ));
    for frac in [0.1, 0.5, 0.9] {
        let cut = faults::truncate_at(&text, frac);
        assert!(matches!(
            awesym_serve::from_artifact_str(&cut),
            Err(awesym_serve::ServeError::BadFormat { .. })
        ));
    }
}
