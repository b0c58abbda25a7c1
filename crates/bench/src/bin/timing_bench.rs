//! Streaming Monte Carlo timing benchmark: samples/s of the compiled
//! gate-chain yield engine at 1/2/4/8 workers, plus the determinism check
//! (bit-identical summaries across worker counts), and the per-layer
//! cost of a sample at one worker: the chain worker's `draw` step (normals
//! → stage points), its `delays` step (stage tapes + delay metric) and the
//! accumulator's `push_block`.
//!
//! ```text
//! cargo run --release -p awesym-bench --bin timing_bench
//! cargo run --release -p awesym-bench --bin timing_bench -- --samples 1e6 --reps 7
//! cargo run --release -p awesym-bench --bin timing_bench -- --smoke
//! ```
//!
//! Emits `results/BENCH_timing.json`. Absolute samples/s belongs to this
//! host; the reproduction targets are (a) the determinism flag and (b) the
//! worker-scaling shape, which `bench_gate` checks against a core-count
//! aware floor (`host_cpus` is recorded in the report for that reason: a
//! 1-core container cannot show a 4x parallel speedup, an 8-core host
//! must).
//!
//! Engines are constructed once per worker count and reused across reps —
//! the persistent-pool design means reps measure steady-state throughput,
//! not thread/evaluator setup.

use awesym_bench::time_median;
use awesym_timing::{
    BlockSpec, ChainSpec, GateChain, McConfig, McEngine, McReport, McTask, QuantileGrid,
    YieldAccumulator, RNG_STREAM,
};
use awesymbolic::parse_value;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

struct WorkerResult {
    workers: usize,
    secs: f64,
    samples_per_sec: f64,
    report: McReport,
}

/// Per-layer ns/sample at one worker, each the median over reps.
struct Layers {
    rng: f64,
    eval: f64,
    accum: f64,
}

/// Runs `cfg` block by block on one chain worker, timing its `draw` and
/// `delays` steps and the accumulator's `push_block` separately.
fn measure_layers(chain: &GateChain, cfg: &McConfig, reps: usize) -> Layers {
    let mut worker = chain.make_worker();
    let mut out = Vec::new();
    let mut per_rep: [Vec<f64>; 3] = Default::default();
    let block_size = cfg.block_size as u64;
    for _ in 0..reps {
        let mut acc = YieldAccumulator::new(cfg.grid, cfg.deadline);
        let mut secs = [0.0; 3];
        for index in 0..cfg.samples.div_ceil(block_size) {
            let count = (cfg.samples - index * block_size).min(block_size) as usize;
            let t0 = Instant::now();
            worker.draw(BlockSpec {
                index,
                count,
                seed: cfg.seed,
            });
            let t1 = Instant::now();
            worker.delays(&mut out);
            let t2 = Instant::now();
            acc.push_block(index, &out);
            let t3 = Instant::now();
            secs[0] += (t1 - t0).as_secs_f64();
            secs[1] += (t2 - t1).as_secs_f64();
            secs[2] += (t3 - t2).as_secs_f64();
        }
        std::hint::black_box(acc.finish());
        for (v, s) in per_rep.iter_mut().zip(secs) {
            v.push(s * 1e9 / cfg.samples as f64);
        }
    }
    let [rng, eval, accum] = per_rep.map(|mut v| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    });
    Layers { rng, eval, accum }
}

struct RunParams {
    stages: usize,
    samples: u64,
    block: usize,
    reps: usize,
    host_cpus: usize,
}

fn json_report(
    params: &RunParams,
    chain: &GateChain,
    results: &[WorkerResult],
    layers: &Layers,
    deterministic: bool,
) -> String {
    let base = &results[0].report.summary;
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"bench\": \"timing\",");
    let _ = writeln!(s, "  \"stages\": {},", params.stages);
    let _ = writeln!(s, "  \"samples\": {},", params.samples);
    let _ = writeln!(s, "  \"block_size\": {},", params.block);
    let _ = writeln!(s, "  \"reps\": {},", params.reps);
    let _ = writeln!(s, "  \"host_cpus\": {},", params.host_cpus);
    let _ = writeln!(s, "  \"tape_ops\": {},", chain.op_count());
    let _ = writeln!(s, "  \"nominal_delay_s\": {:e},", chain.nominal_delay());
    let _ = writeln!(s, "  \"rng_stream\": \"{RNG_STREAM}\",");
    let _ = writeln!(s, "  \"deterministic_across_workers\": {deterministic},");
    let _ = writeln!(s, "  \"summary\": {{");
    let _ = writeln!(s, "    \"mean_s\": {:e},", base.mean);
    let _ = writeln!(s, "    \"std_dev_s\": {:e},", base.std_dev);
    let _ = writeln!(s, "    \"p50_s\": {:e},", base.p50.unwrap_or(f64::NAN));
    let _ = writeln!(s, "    \"p95_s\": {:e},", base.p95.unwrap_or(f64::NAN));
    let _ = writeln!(s, "    \"p997_s\": {:e},", base.p997.unwrap_or(f64::NAN));
    let _ = writeln!(
        s,
        "    \"yield\": {:.6},",
        base.yield_fraction.unwrap_or(f64::NAN)
    );
    let _ = writeln!(s, "    \"invalid\": {}", base.invalid);
    let _ = writeln!(s, "  }},");
    let _ = writeln!(
        s,
        "  \"layers\": {{\"unit\": \"ns/sample\", \"workers\": 1, \"rng\": {:e}, \"eval\": {:e}, \"accum\": {:e}}},",
        layers.rng, layers.eval, layers.accum
    );
    s.push_str("  \"runs\": [\n");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"workers\": {}, \"secs\": {:e}, \"samples_per_sec\": {:e}, \"speedup_vs_1\": {:e}}}{comma}",
            r.workers,
            r.secs,
            r.samples_per_sec,
            results[0].secs / r.secs,
        );
    }
    s.push_str("  ]\n}\n");
    s
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut stages = 8usize;
    let mut samples = 1_000_000u64;
    let mut block = McConfig::DEFAULT_BLOCK;
    // Median of 15: one rep is a fraction of a second at 10^6 samples, and
    // the wide median keeps the bench_gate comparison stable.
    let mut reps = 15usize;
    let mut out_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let val = |it: &mut std::slice::Iter<String>, flag: &str| -> f64 {
            it.next()
                .and_then(|v| parse_value(v).or_else(|| v.parse().ok()))
                .unwrap_or_else(|| panic!("{flag} needs a number"))
        };
        match a.as_str() {
            "--stages" => stages = val(&mut it, "--stages") as usize,
            "--samples" => samples = val(&mut it, "--samples") as u64,
            "--block" => block = val(&mut it, "--block") as usize,
            "--reps" => reps = val(&mut it, "--reps") as usize,
            // CI smoke: small enough to finish in seconds in any profile.
            "--smoke" => {
                samples = 50_000;
                reps = 3;
            }
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
    assert!(stages > 0 && samples > 0 && block > 0 && reps > 0);

    let host_cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!("compiling {stages}-stage gate chain…");
    let spec = ChainSpec::uniform(stages);
    let chain = GateChain::compile(&spec).expect("chain compiles");
    println!(
        "chain: {} tape ops, nominal delay {:.4e} s; {samples} samples × {reps} reps, host_cpus {host_cpus}",
        chain.op_count(),
        chain.nominal_delay()
    );
    let grid = QuantileGrid::around(chain.nominal_delay(), 64.0, QuantileGrid::DEFAULT_BINS);
    let cfg = McConfig::new(samples, 0xBE9C, grid)
        .with_block_size(block)
        .with_deadline(1.25 * chain.nominal_delay());
    let task = Arc::new(chain);

    println!("\n{:>8} {:>14} {:>10}", "workers", "samples/s", "speedup");
    let mut results: Vec<WorkerResult> = Vec::new();
    for &w in &WORKER_COUNTS {
        let registry = awesym_obs::Registry::new();
        let engine = McEngine::new(Arc::clone(&task), w, &registry);
        let mut report = None;
        let secs = time_median(reps, || {
            report = Some(engine.run(&cfg));
        });
        let report = report.expect("at least one rep ran");
        let samples_per_sec = samples as f64 / secs;
        let speedup = results.first().map_or(1.0, |r| r.secs / secs);
        println!("{w:>8} {samples_per_sec:>14.0} {speedup:>9.2}x");
        results.push(WorkerResult {
            workers: w,
            secs,
            samples_per_sec,
            report,
        });
    }

    // Determinism: every worker count must produce the same summary, bit
    // for bit. A false flag here fails the bench gate.
    let deterministic = results
        .iter()
        .all(|r| r.report.summary == results[0].report.summary);
    println!(
        "\ndeterministic across worker counts: {}",
        if deterministic {
            "yes (bit-identical)"
        } else {
            "NO — BUG"
        }
    );

    let layers = measure_layers(&task, &cfg, reps);
    println!(
        "\nper-layer ns/sample at 1 worker: rng {:.1}, eval {:.1}, accum {:.1}",
        layers.rng, layers.eval, layers.accum
    );

    let out = out_path.map_or_else(
        || Path::new("results").join("BENCH_timing.json"),
        std::path::PathBuf::from,
    );
    if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).expect("create output dir");
    }
    std::fs::write(
        &out,
        json_report(
            &RunParams {
                stages,
                samples,
                block,
                reps,
                host_cpus,
            },
            &task,
            &results,
            &layers,
            deterministic,
        ),
    )
    .expect("write report");
    println!("wrote {}", out.display());
}
