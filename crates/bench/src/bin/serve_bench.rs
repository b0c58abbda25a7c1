//! Serving-runtime benchmark: single-point evaluation vs. batch
//! throughput through the persistent `WorkerPool` at 1/2/4/8 workers on
//! the Table 1 workloads.
//!
//! ```text
//! cargo run --release -p awesym-bench --bin serve_bench
//! cargo run --release -p awesym-bench --bin serve_bench -- --points 5000 --reps 7
//! ```
//!
//! Emits `results/BENCH_serve.json` plus a console table. Absolute numbers
//! belong to this host; the reproduction target is the *scaling shape*
//! (batch amortization and worker speedup over the serial path).

use awesym_bench::{lines_workload, opamp_workload, time_median};
use awesym_serve::{decode_frame, BatchOutput, PoolConfig, Server, ServerConfig, WorkerPool};
use awesymbolic::CompiledModel;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

struct Case {
    name: String,
    model: CompiledModel,
    points: Vec<Vec<f64>>,
}

/// Deterministic evaluation grid: each point scales every nominal symbol
/// value by a factor swept over [0.5, 2.0], staggered per symbol so the
/// points are not collinear.
fn make_points(model: &CompiledModel, n: usize) -> Vec<Vec<f64>> {
    let nominal = model.nominal().to_vec();
    (0..n)
        .map(|i| {
            let t = i as f64 / (n - 1).max(1) as f64;
            nominal
                .iter()
                .enumerate()
                .map(|(s, &v)| {
                    let phase = (t + s as f64 * 0.37).fract();
                    v * (0.5 + 1.5 * phase)
                })
                .collect()
        })
        .collect()
}

struct CaseResult {
    name: String,
    symbols: usize,
    order: usize,
    op_count: usize,
    single_secs: f64,
    batch: Vec<(usize, f64)>,
}

fn run_case(case: &Case, reps: usize) -> CaseResult {
    let n = case.points.len();
    // Serial baseline: one `eval_moments` call per point, fresh allocation
    // each time — the cost a naive client pays without the batch engine.
    let single_secs = time_median(reps, || {
        for p in &case.points {
            std::hint::black_box(case.model.eval_moments(p));
        }
    });
    let model = Arc::new(case.model.clone());
    let points = Arc::new(case.points.clone());
    let batch = WORKER_COUNTS
        .iter()
        .map(|&w| (w, time_pool(w, &model, &points, reps)))
        .collect();
    println!(
        "{}: {n} points, serial {:.1} ms",
        case.name,
        single_secs * 1e3
    );
    CaseResult {
        name: case.name.clone(),
        symbols: case.model.symbols().len(),
        order: case.model.order(),
        op_count: case.model.op_count(),
        single_secs,
        batch,
    }
}

struct ObsResult {
    batch_points: usize,
    on_points_per_sec: f64,
    off_points_per_sec: f64,
    overhead_pct: f64,
    stages: Vec<(String, u64, u64, f64)>,
    serialize_by_encoding: Vec<(String, u64, u64, f64)>,
}

/// Builds the 1000-point batch request line, optionally negotiating the
/// binary-v1 response frame.
fn batch_request(model: &CompiledModel, batch_points: usize, binary: bool) -> String {
    let pts = make_points(model, batch_points);
    let mut req = String::from(r#"{"cmd":"batch","model":"m","#);
    if binary {
        req.push_str(r#""encoding":"binary-v1","#);
    }
    req.push_str(r#""points":["#);
    for (i, p) in pts.iter().enumerate() {
        if i > 0 {
            req.push(',');
        }
        req.push('[');
        for (j, v) in p.iter().enumerate() {
            if j > 0 {
                req.push(',');
            }
            let _ = write!(req, "{v:e}");
        }
        req.push(']');
    }
    req.push_str("]}");
    req
}

/// Measures what the observability layer itself costs on the full
/// request path: the same 1000-point batch request driven through
/// `Server::handle_line` with stage timing + tracing on vs off, on the
/// binary-v1 wire encoding (the throughput configuration). The observe-on
/// server's stage histograms yield the canonical per-stage breakdown
/// (parse → lookup → eval → degrade → serialize) the report publishes;
/// an extra NDJSON pass against a second observed server fills the
/// per-encoding serialize split (`serialize_ndjson` vs
/// `serialize_binary`) without polluting the binary-driven canonical
/// stage histograms.
fn run_obs_overhead(model: CompiledModel, reps: usize) -> ObsResult {
    let batch_points = 1000usize;
    let req_bin = batch_request(&model, batch_points, true);
    let req_nd = batch_request(&model, batch_points, false);

    let make = |observe: bool| {
        let server = Server::with_config(ServerConfig {
            observe,
            ..ServerConfig::default()
        });
        server.insert_model("m", model.clone());
        server
    };
    let observed = make(true);
    let bare = make(false);
    let run_req = |server: &Server| {
        let resp = server.handle_line(&req_bin).expect("batch response");
        std::hint::black_box(resp.body.len());
    };
    // Sanity-check the frame once outside the timed loops.
    {
        let resp = observed.handle_line(&req_bin).expect("batch response");
        let frame = decode_frame(&resp.body).expect("well-formed binary frame");
        assert_eq!(frame.ok_count as usize, batch_points, "batch eval failed");
    }
    // The instrumented and bare servers are measured in alternating
    // rounds so slow drift (allocator state, frequency scaling) hits
    // both the same way; a single on-block followed by an off-block
    // would attribute the drift to the observability layer.
    run_req(&observed);
    run_req(&bare);
    let rounds = reps.max(9);
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for _ in 0..rounds {
        on.push(time_median(3, || run_req(&observed)));
        off.push(time_median(3, || run_req(&bare)));
    }
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let on_points_per_sec = batch_points as f64 / median(on);
    let off_points_per_sec = batch_points as f64 / median(off);
    let overhead_pct = 100.0 * (off_points_per_sec / on_points_per_sec - 1.0);
    // NDJSON pass on a fresh observed server: fills serialize_ndjson for
    // the per-encoding split while the canonical stage breakdown above
    // stays representative of the binary throughput path.
    let observed_nd = make(true);
    for _ in 0..rounds {
        let resp = observed_nd.handle_line(&req_nd).expect("batch response");
        assert!(resp.text().contains("\"ok\":true"));
        std::hint::black_box(resp.body.len());
    }
    let snap = observed.stats().snapshot();
    let snap_nd = observed_nd.stats().snapshot();
    let stages = snap
        .stages
        .into_iter()
        .map(|st| (st.stage, st.count, st.total_ns, st.mean_ns))
        .collect();
    let serialize_by_encoding = snap
        .serialize_encodings
        .into_iter()
        .chain(snap_nd.serialize_encodings)
        .filter(|st| st.count > 0)
        .map(|st| (st.stage, st.count, st.total_ns, st.mean_ns))
        .collect();
    ObsResult {
        batch_points,
        on_points_per_sec,
        off_points_per_sec,
        overhead_pct,
        stages,
        serialize_by_encoding,
    }
}

struct PoolRun {
    workers: usize,
    secs: f64,
    points_per_sec: f64,
    speedup_vs_1: f64,
}

struct PoolResult {
    batch_points: usize,
    host_cpus: usize,
    runs: Vec<PoolRun>,
}

/// Median seconds for one `points` batch through a fresh `workers`-thread
/// `WorkerPool`, timed after a warm-up pass that parks every worker on
/// the queue — the steady state a serving shard sees.
fn time_pool(
    workers: usize,
    model: &Arc<CompiledModel>,
    points: &Arc<Vec<Vec<f64>>>,
    reps: usize,
) -> f64 {
    let pool = WorkerPool::new(
        0,
        PoolConfig {
            workers,
            ..PoolConfig::default()
        },
    );
    let run = || {
        pool.run_batch(
            Arc::clone(model),
            Arc::clone(points),
            BatchOutput::Moments,
            None,
            None,
        )
    };
    assert!(
        run().results.iter().all(Result::is_ok),
        "pool batch failed at {workers} workers"
    );
    time_median(reps, || {
        std::hint::black_box(run().results.len());
    })
}

/// Times a 1200-point batch through the `WorkerPool` at each worker
/// count, against the same pool's own 1-worker time. `host_cpus` is
/// recorded so the gate can apply a core-count-aware scaling floor
/// instead of demanding 4x from a laptop.
fn run_pool_scaling(model: &CompiledModel, reps: usize) -> PoolResult {
    let batch_points = 1200usize;
    let model = Arc::new(model.clone());
    let points = Arc::new(make_points(&model, batch_points));
    let host_cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let mut runs: Vec<PoolRun> = Vec::new();
    let mut base_secs = f64::NAN;
    for &w in &WORKER_COUNTS {
        let secs = time_pool(w, &model, &points, reps);
        if w == 1 {
            base_secs = secs;
        }
        runs.push(PoolRun {
            workers: w,
            secs,
            points_per_sec: batch_points as f64 / secs,
            speedup_vs_1: base_secs / secs,
        });
    }
    PoolResult {
        batch_points,
        host_cpus,
        runs,
    }
}

fn json_report(
    points: usize,
    reps: usize,
    results: &[CaseResult],
    obs: &ObsResult,
    pool: &PoolResult,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"bench\": \"serve\",");
    let _ = writeln!(s, "  \"points\": {points},");
    let _ = writeln!(s, "  \"reps\": {reps},");
    s.push_str("  \"observability\": {\n");
    let _ = writeln!(s, "    \"batch_points\": {},", obs.batch_points);
    let _ = writeln!(
        s,
        "    \"observe_on_points_per_sec\": {:e},",
        obs.on_points_per_sec
    );
    let _ = writeln!(
        s,
        "    \"observe_off_points_per_sec\": {:e},",
        obs.off_points_per_sec
    );
    let _ = writeln!(s, "    \"overhead_pct\": {:.3},", obs.overhead_pct);
    s.push_str("    \"stages\": [\n");
    for (i, (stage, count, total_ns, mean_ns)) in obs.stages.iter().enumerate() {
        let comma = if i + 1 < obs.stages.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "      {{\"stage\": \"{stage}\", \"count\": {count}, \"total_ns\": {total_ns}, \"mean_ns\": {mean_ns:.1}}}{comma}"
        );
    }
    s.push_str("    ],\n");
    s.push_str("    \"serialize_by_encoding\": [\n");
    for (i, (stage, count, total_ns, mean_ns)) in obs.serialize_by_encoding.iter().enumerate() {
        let comma = if i + 1 < obs.serialize_by_encoding.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(
            s,
            "      {{\"stage\": \"{stage}\", \"count\": {count}, \"total_ns\": {total_ns}, \"mean_ns\": {mean_ns:.1}}}{comma}"
        );
    }
    s.push_str("    ]\n");
    s.push_str("  },\n");
    s.push_str("  \"pool\": {\n");
    let _ = writeln!(s, "    \"batch_points\": {},", pool.batch_points);
    let _ = writeln!(s, "    \"host_cpus\": {},", pool.host_cpus);
    s.push_str("    \"runs\": [\n");
    for (i, r) in pool.runs.iter().enumerate() {
        let comma = if i + 1 < pool.runs.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "      {{\"workers\": {}, \"secs\": {:e}, \"points_per_sec\": {:e}, \"speedup_vs_1\": {:e}}}{comma}",
            r.workers, r.secs, r.points_per_sec, r.speedup_vs_1
        );
    }
    s.push_str("    ]\n");
    s.push_str("  },\n");
    s.push_str("  \"cases\": [\n");
    for (i, r) in results.iter().enumerate() {
        let pps = points as f64 / r.single_secs;
        s.push_str("    {\n");
        let _ = writeln!(s, "      \"name\": \"{}\",", r.name);
        let _ = writeln!(s, "      \"symbols\": {},", r.symbols);
        let _ = writeln!(s, "      \"order\": {},", r.order);
        let _ = writeln!(s, "      \"op_count\": {},", r.op_count);
        let _ = writeln!(s, "      \"single_point_secs\": {:e},", r.single_secs);
        let _ = writeln!(s, "      \"single_points_per_sec\": {pps:e},");
        s.push_str("      \"batch\": [\n");
        for (j, &(w, secs)) in r.batch.iter().enumerate() {
            let comma = if j + 1 < r.batch.len() { "," } else { "" };
            let _ = writeln!(
                s,
                "        {{\"workers\": {w}, \"secs\": {secs:e}, \"points_per_sec\": {:e}, \"speedup_vs_serial\": {:e}}}{comma}",
                points as f64 / secs,
                r.single_secs / secs,
            );
        }
        s.push_str("      ]\n");
        let comma = if i + 1 < results.len() { "," } else { "" };
        let _ = writeln!(s, "    }}{comma}");
    }
    s.push_str("  ]\n}\n");
    s
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Median of 15 reps: each timed pass is sub-millisecond, so reps are
    // nearly free next to the workload compiles, and the wider median
    // keeps the bench_gate comparison stable across runs.
    let mut points = 2000usize;
    let mut reps = 15usize;
    let mut segments = 200usize;
    let mut out_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let val = |it: &mut std::slice::Iter<String>, flag: &str| {
            it.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{flag} needs a positive integer"))
        };
        match a.as_str() {
            "--points" => points = val(&mut it, "--points"),
            "--reps" => reps = val(&mut it, "--reps"),
            "--segments" => segments = val(&mut it, "--segments"),
            "--out" => {
                out_path = Some(
                    it.next()
                        .unwrap_or_else(|| panic!("--out needs a path"))
                        .clone(),
                )
            }
            other => panic!("unknown argument '{other}'"),
        }
    }

    println!("compiling workloads…");
    let opamp = opamp_workload(2).expect("op-amp workload");
    let obs = run_obs_overhead(opamp.model.clone(), reps);
    println!(
        "observability: 1000-pt batch via handle_line — {:.0} pts/s observed, {:.0} pts/s bare ({:+.2}% overhead)",
        obs.on_points_per_sec, obs.off_points_per_sec, obs.overhead_pct
    );
    for (stage, count, _total, mean_ns) in &obs.stages {
        println!("  stage {stage:<10} count {count:>4}  mean {mean_ns:>12.0} ns");
    }
    for (stage, count, _total, mean_ns) in &obs.serialize_by_encoding {
        println!("  encoding {stage:<18} count {count:>4}  mean {mean_ns:>12.0} ns");
    }
    let pool = run_pool_scaling(&opamp.model, reps);
    println!(
        "pool: {}-pt batch, host_cpus={}",
        pool.batch_points, pool.host_cpus
    );
    for r in &pool.runs {
        println!(
            "  workers {:>2}  {:>12.0} pts/s  {:>6.2}x vs 1 worker",
            r.workers, r.points_per_sec, r.speedup_vs_1
        );
    }
    let lines = lines_workload(segments).expect("lines workload");
    let cases = [
        Case {
            name: "opamp741_order2".into(),
            points: make_points(&opamp.model, points),
            model: opamp.model,
        },
        Case {
            name: format!("coupled_lines_{segments}seg_direct"),
            points: make_points(&lines.direct, points),
            model: lines.direct,
        },
        Case {
            name: format!("coupled_lines_{segments}seg_crosstalk"),
            points: make_points(&lines.crosstalk, points),
            model: lines.crosstalk,
        },
    ];

    let results: Vec<CaseResult> = cases.iter().map(|c| run_case(c, reps)).collect();

    println!(
        "\n{:<34} {:>8} {:>12} {:>10}",
        "case", "workers", "points/s", "speedup"
    );
    for r in &results {
        let serial_pps = points as f64 / r.single_secs;
        println!(
            "{:<34} {:>8} {serial_pps:>12.0} {:>10}",
            r.name, "serial", "1.00x"
        );
        for &(w, secs) in &r.batch {
            println!(
                "{:<34} {w:>8} {:>12.0} {:>9.2}x",
                "",
                points as f64 / secs,
                r.single_secs / secs
            );
        }
    }

    let out = out_path.map_or_else(
        || Path::new("results").join("BENCH_serve.json"),
        std::path::PathBuf::from,
    );
    if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).expect("create output dir");
    }
    std::fs::write(&out, json_report(points, reps, &results, &obs, &pool)).expect("write report");
    println!("\nwrote {}", out.display());
}
