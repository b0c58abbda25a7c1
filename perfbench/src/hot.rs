//! `hot_binary`: closed loop over two TCP connections, each sending
//! 4096-point `AWSQ` moments batches and reading `AWSB` frames back.

use crate::check::{decode_matches, expected_awsb, frame_matches, Kind};
use crate::gen::{opamp741, points_around, rc_tree8, Built, ModelSpec};
use crate::replay::{Op, Replay, Req};
use crate::report::Report;
use crate::serving::{self, Acct, SETUP_REPS};
use crate::util::{lat_summary, windowed_rate, Rng};
use crate::wire::{moments_frame, Conn, Msg};
use crate::Ctx;
use std::sync::Arc;
use std::time::{Duration, Instant};

const BATCH: usize = 4096;
const DISTINCT: usize = 16;
const CONNS: usize = 2;

struct Batch {
    model: usize,
    points: Arc<Vec<Vec<f64>>>,
    frame: Arc<Vec<u8>>,
    expect: Vec<u8>,
}

/// What one client connection measured.
#[derive(Default)]
struct Side {
    /// (completion time, latency) of each request in the window.
    lat_ms: Vec<(f64, f64)>,
    points: u64,
    acct: Acct,
    wrong: u64,
}

fn client(
    addr: std::net::SocketAddr,
    conn_idx: usize,
    batches: &[Batch],
    built: &[Built],
    measure_from: Instant,
    end: Instant,
) -> Side {
    let mut side = Side::default();
    let mut conn = match Conn::connect(addr) {
        Ok(c) => c,
        Err(_) => {
            side.acct.transport += 1;
            return side;
        }
    };
    let mut seen = [false; DISTINCT];
    let mut k = conn_idx;
    while Instant::now() < end {
        let b = &batches[k % DISTINCT];
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
                let mut ok = frame_matches(bytes, &b.expect);
                // Every reply is compared byte for byte; the first of each
                // distinct batch and every eighth also go through the
                // program's own frame decoder.
                if !seen[k % DISTINCT] || k % 8 == conn_idx {
                    seen[k % DISTINCT] = true;
                    ok &= decode_matches(bytes, &built[b.model].model, &b.points);
                }
                if !ok {
                    side.wrong += 1;
                }
                if t0 >= measure_from && t1 <= end {
                    side.lat_ms.push((
                        (t1 - measure_from).as_secs_f64(),
                        (t1 - t0).as_secs_f64() * 1e3,
                    ));
                    side.points += b.points.len() as u64;
                }
            }
            Ok(Msg::Line(line)) => {
                let c = serde_json::from_slice(line).unwrap_or(serde::Content::Null);
                side.acct.reply(&c);
            }
            Err(e) => {
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) {
                    side.acct.timeout += 1;
                } else {
                    side.acct.transport += 1;
                }
                break;
            }
        }
        k += CONNS;
    }
    side
}

pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let specs: Vec<ModelSpec> = vec![opamp741("amp741"), rc_tree8("tree8")];
    let built: Vec<Built> = specs
        .iter()
        .map(ModelSpec::build)
        .collect::<Result<_, _>>()?;
    let mut rng = Rng::new(ctx.seed, 1);
    let batches: Vec<Batch> = (0..DISTINCT)
        .map(|i| {
            // One batch in four goes to the 8-symbol tree: its batches take
            // ~100x longer, so p50 stays on the 741 and p99 on the tree.
            let model = usize::from(i % 4 == 3);
            let points = points_around(&mut rng, built[model].model.nominal(), BATCH, 3.0);
            Batch {
                model,
                frame: Arc::new(moments_frame(&specs[model].name, &points)),
                expect: expected_awsb(&built[model].model, &points),
                points: Arc::new(points),
            }
        })
        .collect();
    let flags: Vec<String> = ["--shards", "1", "--shard-workers", "2"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    report.note(&format!(
        "workload hot_binary: closed loop, {CONNS} connections, {BATCH}-point AWSQ moments batches, {DISTINCT} distinct batches over models {} ({} symbols, {} ops) and {} ({} symbols, {} ops); server flags {flags:?}",
        specs[0].name,
        built[0].model.symbols().len(),
        built[0].model.op_count(),
        specs[1].name,
        built[1].model.symbols().len(),
        built[1].model.op_count(),
    ));
    let setup: Vec<_> = specs
        .iter()
        .zip(&built)
        .map(|(s, b)| (s, &b.model))
        .collect();
    let mut child = serving::start_median(&ctx.bin, &flags, &setup, SETUP_REPS, report)?;

    let window = if ctx.trace {
        ctx.seconds * 0.4
    } else {
        ctx.seconds
    };
    let warmup = Duration::from_millis(500);
    let start = Instant::now();
    let measure_from = start + warmup;
    let end = measure_from + Duration::from_secs_f64(window);
    let addr = child.addr;
    let sides: Vec<Side> = std::thread::scope(|s| {
        let hs: Vec<_> = (0..CONNS)
            .map(|c| {
                let (batches, built) = (&batches, &built);
                s.spawn(move || client(addr, c, batches, built, measure_from, end))
            })
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut acct = child.acct.clone();
    let mut points = 0;
    for s in &sides {
        acct.merge(&s.acct);
        points += s.points;
        report.wrong += s.wrong;
    }
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
        "server stats: requests={} errors={} batch_points={} degradations={}",
        facts.requests, facts.errors, facts.batch_points, facts.degradations
    ));
    let lat: Vec<f64> = sides
        .iter()
        .flat_map(|s| s.lat_ms.iter().map(|&(_, ms)| ms))
        .collect();
    let l = lat_summary(&lat);
    report.note(&format!(
        "latency: {} requests in a {window:.1} s window, {} beyond p99",
        l.n, l.beyond_p99
    ));
    if l.n == 0 {
        return Err("no request completed in the measured window".into());
    }
    let done: Vec<(f64, u64)> = sides
        .iter()
        .flat_map(|s| s.lat_ms.iter().map(|&(t, _)| (t, BATCH as u64)))
        .collect();
    report.note(&format!(
        "points over the whole window: {:.0}/s",
        points as f64 / window
    ));
    report.metric("points_per_s", windowed_rate(&done, window), "points/s");
    report.metric("requests_per_s", l.n as f64 / window, "req/s");
    report.metric("lat_p50_ms", l.p50, "ms");
    report.metric("lat_p99_ms", l.p99, "ms");
    report.metric("peak_rss_mb", exit.peak_rss_mb, "MiB");

    if ctx.trace {
        // One worker, so a replayed child (the serial kernel) measures the
        // same kind of time as its parent (the pool): self times are CPU
        // cost per layer, not parallel wall time.
        let server = awesym_serve::Server::with_config(awesym_serve::ServerConfig {
            shards: 1,
            shard_workers: 1,
            ..Default::default()
        });
        for (s, b) in specs.iter().zip(&built) {
            server.insert_model(&s.name, b.model.clone());
        }
        let reqs: Vec<Req> = batches
            .iter()
            .map(|b| Req {
                bytes: Arc::clone(&b.frame),
                binary: true,
                op: Op::Eval {
                    model: specs[b.model].name.clone(),
                    points: Arc::clone(&b.points),
                    kind: Kind::Moments,
                },
            })
            .collect();
        crate::replay::run_and_report(
            Replay::new(server),
            &reqs,
            ctx.seconds * 0.5,
            facts.transport_us(&lat),
            report,
            "hot_binary",
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
        let ratios: Vec<f64> = built
            .iter()
            .map(|b| b.model.op_count() as f64 / b.model.raw_op_count() as f64)
            .collect();
        report.metric("symbolic.opt_ratio", crate::util::median(&ratios), "ratio");
    }
    Ok(())
}
