//! `compile_churn`: writes beside reads. Connection A compiles seeded
//! generated netlists and queries each new model (and a recent one that
//! has been demoted to the cold tier); connection B streams 256-point
//! `AWSQ` moments batches on one hot model. The warm tier is smaller than
//! the working set, so demotion and promotion happen on every cycle.

use crate::check::{check_batch_reply, expect_point, expected_awsb, frame_matches, Expect, Kind};
use crate::gen::{opamp741, points_around, random_circuit, Built, ModelSpec};
use crate::replay::{Op, Replay, Req};
use crate::report::Report;
use crate::serving::{self, compile_matches, Acct, SETUP_REPS};
use crate::util::{lat_summary, median, windowed_rate, Rng};
use crate::wire::{json_line, moments_frame, points_content, Conn, Msg};
use crate::Ctx;
use serde::Content;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Distinct generated circuits; compiled names are unique per cycle.
const POOL: usize = 24;
/// Warm-tier capacity (the cold tier holds four times as many).
const CAPACITY: usize = 4;
/// Connection A revisits the model compiled this many cycles ago (5–10),
/// which by then sits in the cold tier.
const REVISIT: [usize; 6] = [5, 6, 7, 8, 9, 10];
const HOT_POINTS: usize = 256;
const HOT_DISTINCT: usize = 16;

/// A batch request with its expected answer.
type Query = (Kind, Arc<Vec<Vec<f64>>>, Vec<Expect>);

struct Circuit {
    spec: ModelSpec,
    built: Built,
    /// The batches sent after each compile of this circuit.
    batches: Vec<Query>,
}

struct HotBatch {
    points: Arc<Vec<Vec<f64>>>,
    frame: Arc<Vec<u8>>,
    expect: Vec<u8>,
}

#[derive(Default)]
struct Side {
    lat_ms: Vec<f64>,
    compile_ms: Vec<f64>,
    ok_points: u64,
    /// (completion time in the window, points) of each answered batch.
    done: Vec<(f64, u64)>,
    requests: u64,
    acct: Acct,
    wrong: u64,
    compiled: usize,
}

fn batch_line(name: &str, kind: Kind, points: &[Vec<f64>], id: u64) -> String {
    json_line(vec![
        ("cmd", Content::Str("batch".into())),
        ("model", Content::Str(name.into())),
        ("points", points_content(points)),
        ("kind", Content::Str(kind.as_str().into())),
        ("id", Content::U64(id)),
    ])
}

fn writer_side(addr: std::net::SocketAddr, pool: &[Circuit], from: Instant, end: Instant) -> Side {
    let mut side = Side::default();
    let Ok(mut conn) = Conn::connect(addr) else {
        side.acct.transport += 1;
        return side;
    };
    let mut id = 0u64;
    let mut k = 0usize;
    let in_window = |t0: Instant, t1: Instant| t0 >= from && t1 <= end;
    'outer: while Instant::now() < end {
        let c = &pool[k % POOL];
        let spec = c.spec.with_name(&format!("w{k}"));
        let t0 = Instant::now();
        let reply = match conn.call(&spec.compile_line(id)) {
            Ok(r) => r,
            Err(_) => {
                side.acct.transport += 1;
                break;
            }
        };
        let t1 = Instant::now();
        id += 1;
        if !side.acct.reply(&reply) {
            break;
        }
        if !compile_matches(&reply, &spec, &c.built.model) {
            side.wrong += 1;
        }
        if in_window(t0, t1) {
            side.compile_ms.push((t1 - t0).as_secs_f64() * 1e3);
            side.requests += 1;
        }
        let mut queries: Vec<(String, &Circuit)> = vec![(spec.name.clone(), c); 2];
        let back = REVISIT[k % REVISIT.len()];
        if k >= back {
            queries.push((format!("w{}", k - back), &pool[(k - back) % POOL]));
        }
        for (q, (name, circ)) in queries.iter().enumerate() {
            let (kind, points, expect) = &circ.batches[q % circ.batches.len()];
            let t0 = Instant::now();
            let reply = match conn.call(&batch_line(name, *kind, points, id)) {
                Ok(r) => r,
                Err(_) => {
                    side.acct.transport += 1;
                    break 'outer;
                }
            };
            let t1 = Instant::now();
            id += 1;
            if side.acct.reply(&reply) {
                side.acct.batch_points += points.len() as u64;
                side.wrong += check_batch_reply(&reply, *kind, expect) as u64;
                if in_window(t0, t1) {
                    side.lat_ms.push((t1 - t0).as_secs_f64() * 1e3);
                    side.ok_points += points.len() as u64;
                    side.done
                        .push(((t1 - from).as_secs_f64(), points.len() as u64));
                    side.requests += 1;
                }
            }
        }
        side.compiled = k + 1;
        k += 1;
    }
    side
}

fn reader_side(addr: std::net::SocketAddr, hot: &[HotBatch], from: Instant, end: Instant) -> Side {
    let mut side = Side::default();
    let Ok(mut conn) = Conn::connect(addr) else {
        side.acct.transport += 1;
        return side;
    };
    let mut k = 0usize;
    while Instant::now() < end {
        let b = &hot[k % HOT_DISTINCT];
        k += 1;
        let t0 = Instant::now();
        if conn.send(&b.frame).is_err() {
            side.acct.transport += 1;
            break;
        }
        let reply = conn.recv();
        let t1 = Instant::now();
        match reply {
            Ok(Msg::Frame(bytes)) => {
                side.acct.frame(b.points.len() as u64);
                if !frame_matches(bytes, &b.expect) {
                    side.wrong += 1;
                }
                if t0 >= from && t1 <= end {
                    side.lat_ms.push((t1 - t0).as_secs_f64() * 1e3);
                    side.ok_points += b.points.len() as u64;
                    side.done
                        .push(((t1 - from).as_secs_f64(), b.points.len() as u64));
                    side.requests += 1;
                }
            }
            Ok(Msg::Line(l)) => {
                side.acct
                    .reply(&serde_json::from_slice(l).unwrap_or(Content::Null));
            }
            Err(_) => {
                side.acct.transport += 1;
                break;
            }
        }
    }
    side
}

/// The paper's core claim on generated circuits: moments the server
/// returns for a freshly compiled model equal numeric AWE on the circuit
/// with the symbol values substituted, within 1e-9 relative.
fn awe_oracle(
    child: &mut serving::Child,
    pool: &[Circuit],
    rng: &mut Rng,
    report: &mut Report,
) -> Result<(), String> {
    let mut worst = 0.0f64;
    let mut checked = 0;
    for i in 0..3 {
        let c = &pool[rng.range(0, POOL - 1)];
        let spec = c.spec.with_name(&format!("oracle{i}"));
        let reply = child.ctl.call(&spec.compile_line(1_000_000 + i))?;
        if !child.acct.reply(&reply) || !compile_matches(&reply, &spec, &c.built.model) {
            report.wrong += 1;
            continue;
        }
        let m = &c.built.model;
        let points = points_around(rng, m.nominal(), 3, 2.0);
        let reply = child.ctl.call(&batch_line(
            &spec.name,
            Kind::Moments,
            &points,
            2_000_000 + i,
        ))?;
        if !child.acct.reply(&reply) {
            report.wrong += 1;
            continue;
        }
        child.acct.batch_points += points.len() as u64;
        let expect: Vec<Expect> = points
            .iter()
            .map(|p| expect_point(m, Kind::Moments, p))
            .collect();
        report.wrong += check_batch_reply(&reply, Kind::Moments, &expect) as u64;
        let results = reply
            .get("results")
            .and_then(Content::as_seq)
            .unwrap_or(&[]);
        for (p, r) in points.iter().zip(results) {
            let got: Vec<f64> = r
                .get("moments")
                .and_then(Content::as_seq)
                .map(|s| s.iter().filter_map(Content::as_f64).collect())
                .unwrap_or_default();
            let subst =
                awesym_partition::apply_symbol_values(&c.built.circuit, &c.built.bindings, p);
            let reference = awesym_awe::AweAnalysis::new(&subst, c.built.input, c.built.output)
                .and_then(|a| a.moments(2 * m.order()))
                .map_err(|e| format!("numeric AWE failed on {}: {e}", c.spec.shape))?;
            if got.len() != reference.m.len() {
                report.wrong += 1;
                continue;
            }
            for (a, b) in got.iter().zip(&reference.m) {
                let rel = (a - b).abs() / b.abs().max(1e-300);
                worst = worst.max(rel);
                if rel > 1e-9 {
                    report.wrong += 1;
                }
            }
            checked += 1;
        }
    }
    report.note(&format!(
        "AWE oracle: {checked} points on 3 seeded circuits, worst relative moment error {worst:.2e} (limit 1e-9)"
    ));
    Ok(())
}

/// `save` the newest model through the server and compare the artifact
/// with the in-process model: symbols, op count and nominal values.
fn save_check(
    child: &mut serving::Child,
    ctx: &Ctx,
    name: &str,
    c: &Circuit,
    report: &mut Report,
) -> Result<(), String> {
    let dir = ctx.root.join(".bench_out");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("churn-{}.awesym", std::process::id()));
    let reply = child.ctl.call(&json_line(vec![
        ("cmd", Content::Str("save".into())),
        ("model", Content::Str(name.into())),
        ("path", Content::Str(path.to_string_lossy().into_owned())),
    ]))?;
    if !child.acct.reply(&reply) {
        report.wrong += 1;
        return Ok(());
    }
    let loaded = awesym_serve::load_model_file(&path).map_err(|e| e.to_string());
    let _ = std::fs::remove_file(&path);
    let m = &c.built.model;
    let same = loaded.is_ok_and(|l| {
        l.op_count() == m.op_count()
            && l.symbols()
                .iter()
                .map(ToString::to_string)
                .eq(m.symbols().iter().map(ToString::to_string))
            && l.nominal()
                .iter()
                .map(|v| v.to_bits())
                .eq(m.nominal().iter().map(|v| v.to_bits()))
    });
    report.note(&format!(
        "saved artifact of {name}: symbols/op_count/nominal match in-process build: {same}"
    ));
    if !same {
        report.wrong += 1;
    }
    Ok(())
}

pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let mut rng = Rng::new(ctx.seed, 3);
    // Topology and symbol choice come from a fixed stream, so every seed
    // compiles the same structures (the same op counts and memory); the
    // seed varies element values and every evaluation point.
    let mut structure = Rng::new(0x5EED, 3);
    let t_ref = Instant::now();
    let pool: Vec<Circuit> = (0..POOL)
        .map(|i| {
            // Redraw the few symbol choices the compiler rejects (too many
            // partition ports), so every request sent is valid.
            let (spec, built) = (0..100)
                .find_map(|_| {
                    let spec = random_circuit(&mut structure, &mut rng, &format!("c{i}"), i, POOL);
                    spec.build().ok().map(|b| (spec, b))
                })
                .ok_or("no compilable circuit drawn")?;
            let batches = [Kind::Delays, Kind::Rom]
                .iter()
                .map(|&kind| {
                    let n = rng.range(16, 64);
                    let points = points_around(&mut rng, built.model.nominal(), n, 1.5);
                    let expect = points
                        .iter()
                        .map(|p| expect_point(&built.model, kind, p))
                        .collect();
                    (kind, Arc::new(points), expect)
                })
                .collect();
            Ok(Circuit {
                spec,
                built,
                batches,
            })
        })
        .collect::<Result<_, String>>()?;
    let hot_spec = opamp741("hot");
    let hot_built = hot_spec.build()?;
    let hot: Vec<HotBatch> = (0..HOT_DISTINCT)
        .map(|_| {
            let points = points_around(&mut rng, hot_built.model.nominal(), HOT_POINTS, 3.0);
            HotBatch {
                frame: Arc::new(moments_frame("hot", &points)),
                expect: expected_awsb(&hot_built.model, &points),
                points: Arc::new(points),
            }
        })
        .collect();
    let elements: Vec<usize> = pool.iter().map(|c| c.spec.elements()).collect();
    report.note(&format!(
        "workload compile_churn: connection A compiles {POOL} distinct seeded netlists in turn (elements {}..{}, median {}; shapes {:?}), each followed by delays+rom batches and a delays batch on the model compiled {REVISIT:?} cycles earlier; connection B streams {HOT_POINTS}-point AWSQ moments batches on one hot model; references built in {:.2} s",
        elements.iter().min().unwrap_or(&0),
        elements.iter().max().unwrap_or(&0),
        median(&elements.iter().map(|&e| e as f64).collect::<Vec<_>>()),
        pool.iter().map(|c| format!("{}/{}sym/q{}", c.spec.shape, c.spec.symbols.len(), c.spec.order)).collect::<Vec<_>>(),
        t_ref.elapsed().as_secs_f64()
    ));
    let flags: Vec<String> = [
        "--shards",
        "1",
        "--shard-workers",
        "2",
        "--capacity",
        &CAPACITY.to_string(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    report.note(&format!("server flags {flags:?}"));
    let setup = [(&hot_spec, &hot_built.model)];
    let mut child = serving::start_median(&ctx.bin, &flags, &setup, SETUP_REPS, report)?;

    let window = if ctx.trace {
        ctx.seconds * 0.4
    } else {
        ctx.seconds
    };
    let from = Instant::now() + Duration::from_millis(500);
    let end = from + Duration::from_secs_f64(window);
    let addr = child.addr;
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(|| writer_side(addr, &pool, from, end));
        let b = s.spawn(|| reader_side(addr, &hot, from, end));
        (a.join().expect("writer"), b.join().expect("reader"))
    });
    report.wrong += a.wrong + b.wrong;
    awe_oracle(&mut child, &pool, &mut rng, report)?;
    if a.compiled > 0 {
        let k = a.compiled - 1;
        save_check(&mut child, ctx, &format!("w{k}"), &pool[k % POOL], report)?;
    }
    let mut acct = child.acct.clone();
    acct.merge(&a.acct);
    acct.merge(&b.acct);
    let stats = child.stats()?;
    let facts = serving::facts(&stats);
    report.errors.extend(serving::reconcile(&acct, &facts));
    let exit = child.shutdown();
    if !exit.success {
        report.errors.push(format!(
            "server did not shut down cleanly: {}",
            exit.stderr.trim()
        ));
    }
    report.attempted += acct.sent;
    report.failed += acct.failed();
    report.note(&format!("accounting: {}", acct.summary()));
    report.note(&format!(
        "server stats: requests={} errors={} batch_points={} warm hits/lookups={}/{} promotions={} demotions={}",
        facts.requests, facts.errors, facts.batch_points, facts.warm_hits, facts.warm_lookups, facts.promotions, facts.demotions
    ));
    if facts.promotions == 0 || facts.demotions == 0 {
        report
            .errors
            .push("compile_churn never exercised warm/cold demotion and promotion".into());
    }
    let l = lat_summary(&b.lat_ms);
    let c = lat_summary(&a.compile_ms);
    report.note(&format!(
        "latency: connection B {} requests ({} beyond p99); {} compiles in the {window:.1} s window ({} beyond p99)",
        l.n, l.beyond_p99, c.n, c.beyond_p99
    ));
    if l.n == 0 || c.n == 0 {
        return Err("no request completed in the measured window".into());
    }
    report.note(&format!(
        "points over the whole window: {:.0}/s",
        (a.ok_points + b.ok_points) as f64 / window
    ));
    let done: Vec<(f64, u64)> = a.done.iter().chain(&b.done).copied().collect();
    report.metric("points_per_s", windowed_rate(&done, window), "points/s");
    report.metric(
        "requests_per_s",
        (a.requests + b.requests) as f64 / window,
        "req/s",
    );
    report.metric("lat_p50_ms", l.p50, "ms");
    report.metric("lat_p99_ms", l.p99, "ms");
    report.metric("compile_p50_ms", c.p50, "ms");
    report.metric("compile_p99_ms", c.p99, "ms");
    report.metric("peak_rss_mb", exit.peak_rss_mb, "MiB");

    if ctx.trace {
        let server = awesym_serve::Server::with_config(awesym_serve::ServerConfig {
            capacity: CAPACITY,
            shards: 1,
            // One worker: replayed children measure the same kind of time
            // as their parents (see hot_binary).
            shard_workers: 1,
            ..Default::default()
        });
        server.insert_model("hot", hot_built.model.clone());
        let mut reqs = Vec::new();
        for k in 0..POOL * 2 {
            let c = &pool[k % POOL];
            let spec = c.spec.with_name(&format!("w{k}"));
            let line = format!("{}\n", spec.compile_line(k as u64));
            reqs.push(Req {
                bytes: Arc::new(line.into_bytes()),
                binary: false,
                op: Op::Compile(Box::new(spec.clone())),
            });
            let mut queries = vec![(spec.name.clone(), c, 0), (spec.name.clone(), c, 1)];
            let back = REVISIT[k % REVISIT.len()];
            if k >= back {
                queries.push((format!("w{}", k - back), &pool[(k - back) % POOL], 0));
            }
            for (name, circ, q) in queries {
                let (kind, points, _) = &circ.batches[q];
                reqs.push(Req {
                    bytes: Arc::new(
                        format!("{}\n", batch_line(&name, *kind, points, 0)).into_bytes(),
                    ),
                    binary: false,
                    op: Op::Eval {
                        model: name,
                        points: Arc::clone(points),
                        kind: *kind,
                    },
                });
            }
            for h in &hot[..2] {
                reqs.push(Req {
                    bytes: Arc::clone(&h.frame),
                    binary: true,
                    op: Op::Eval {
                        model: "hot".into(),
                        points: Arc::clone(&h.points),
                        kind: Kind::Moments,
                    },
                });
            }
        }
        let all_lat: Vec<f64> = b
            .lat_ms
            .iter()
            .chain(&a.compile_ms)
            .chain(&a.lat_ms)
            .copied()
            .collect();
        crate::replay::run_and_report(
            Replay::new(server),
            &reqs,
            ctx.seconds * 0.5,
            facts.transport_us(&all_lat),
            report,
            "compile_churn",
        );
        report.metric(
            "serve.registry_hit_ratio",
            facts.warm_hits as f64 / facts.warm_lookups.max(1) as f64,
            "ratio",
        );
        report.metric(
            "serve.degraded_frac",
            facts.degradations as f64 / facts.batch_points.max(1) as f64,
            "ratio",
        );
    }
    Ok(())
}
