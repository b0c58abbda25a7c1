//! `mc_yield`: repeated `awesym timing` jobs on the 8-stage uniform gate
//! chain at a fixed seed and sample count. No `net`/`serve` at all: this
//! is the workload for the `timing` crate and its op-heavy stage tapes.

use crate::report::Report;
use crate::trace::{Tracer, NO_PARENT};
use crate::util::{lat_summary, median, quantile_sorted, sorted, Proc};
use crate::Ctx;
use awesym_timing::{
    chain::stage_delay, BlockRng, BlockSpec, BlockWorker, ChainSpec, GateChain, McConfig, McEngine,
    McTask, QuantileGrid, Summary, YieldAccumulator,
};
use serde::Content;
use std::sync::Arc;
use std::time::Instant;

const STAGES: usize = 8;
const SAMPLES: u64 = 1 << 18;
const WORKERS: usize = 2;

/// The fields of a `yield_report` line that must repeat bit for bit.
fn summary_bits(s: &Summary) -> Vec<(&'static str, Option<u64>)> {
    let f = |v: f64| v.is_finite().then(|| v.to_bits());
    vec![
        ("samples", Some(s.samples)),
        ("valid", Some(s.valid)),
        ("invalid", Some(s.invalid)),
        ("blocks", Some(s.blocks)),
        ("mean_s", f(s.mean)),
        ("std_dev_s", f(s.std_dev)),
        ("min_s", f(s.min)),
        ("max_s", f(s.max)),
        ("p50_s", s.p50.and_then(f)),
        ("p95_s", s.p95.and_then(f)),
        ("p997_s", s.p997.and_then(f)),
        ("yield", s.yield_fraction.and_then(f)),
    ]
}

fn report_bits(line: &Content) -> Vec<(&'static str, Option<u64>)> {
    let u = |k: &str| line.get(k).and_then(Content::as_u64);
    let f = |k: &str| {
        line.get(k)
            .and_then(Content::as_f64)
            .filter(|v| v.is_finite())
            .map(f64::to_bits)
    };
    vec![
        ("samples", u("samples")),
        ("valid", u("valid")),
        ("invalid", u("invalid")),
        ("blocks", u("blocks")),
        ("mean_s", f("mean_s")),
        ("std_dev_s", f("std_dev_s")),
        ("min_s", f("min_s")),
        ("max_s", f("max_s")),
        ("p50_s", f("p50_s")),
        ("p95_s", f("p95_s")),
        ("p997_s", f("p997_s")),
        ("yield", f("yield")),
    ]
}

struct Job {
    wall_ms: f64,
    engine_s: f64,
    rss_mb: f64,
    ok: bool,
    summary: Vec<(&'static str, Option<u64>)>,
    chain_ok: bool,
}

fn job(ctx: &Ctx, workers: usize, chain: &GateChain) -> Result<Job, String> {
    let args: Vec<String> = [
        "timing",
        "--stages",
        &STAGES.to_string(),
        "--workers",
        &workers.to_string(),
        "--seed",
        &ctx.seed.to_string(),
        "--samples",
        &SAMPLES.to_string(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let t0 = Instant::now();
    let mut p = Proc::spawn(&ctx.bin, &args, true).map_err(|e| e.to_string())?;
    let out = p.read_stdout();
    let exit = p.reap();
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut lines = out
        .lines()
        .map(|l| serde_json::from_str::<Content>(l).unwrap_or(Content::Null));
    let head = lines.next().unwrap_or(Content::Null);
    let rep = lines.next().unwrap_or(Content::Null);
    let chain_ok = head.get("tape_ops").and_then(Content::as_u64) == Some(chain.op_count() as u64)
        && head
            .get("nominal_delay_s")
            .and_then(Content::as_f64)
            .map(f64::to_bits)
            == Some(chain.nominal_delay().to_bits());
    Ok(Job {
        wall_ms,
        engine_s: rep
            .get("wall_s")
            .and_then(Content::as_f64)
            .unwrap_or(f64::NAN),
        rss_mb: exit.peak_rss_mb,
        ok: exit.success,
        summary: report_bits(&rep),
        chain_ok,
    })
}

pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let spec = ChainSpec::uniform(STAGES);
    let chain = GateChain::compile(&spec).map_err(|e| e.to_string())?;
    let nominal = chain.nominal_delay();
    let deadline = 1.25 * nominal;
    let grid = QuantileGrid::around(nominal, 64.0, QuantileGrid::DEFAULT_BINS);
    let cfg = McConfig::new(SAMPLES, ctx.seed, grid).with_deadline(deadline);
    // The in-process reference: the same job on one worker.
    let registry = awesym_obs::Registry::new();
    let reference = {
        let engine = McEngine::new(Arc::new(chain.clone()), 1, &registry);
        summary_bits(&engine.run(&cfg).summary)
    };
    report.note(&format!(
        "workload mc_yield: repeated `awesym timing --stages {STAGES} --workers 1 --seed {} --samples {SAMPLES}` jobs, then three at `--workers {WORKERS}` (chain of {STAGES} stages, {} tape ops, block {}); every summary compared bit for bit with an in-process 1-worker run",
        ctx.seed,
        chain.op_count(),
        McConfig::DEFAULT_BLOCK
    ));
    let window = if ctx.trace {
        ctx.seconds * 0.4
    } else {
        ctx.seconds
    };
    // The timed jobs run one worker: on a 2-vCPU guest the second worker's
    // speed-up swings between 1.1x and 2.3x from one job to the next, which
    // would bury any change to the engine. The --workers 2 jobs after them
    // are checked bit for bit and their throughput is printed.
    let warm = job(ctx, 1, &chain)?;
    let t0 = Instant::now();
    let mut measured = Vec::new();
    while t0.elapsed().as_secs_f64() < window || measured.len() < 5 {
        measured.push(job(ctx, 1, &chain)?);
    }
    let total_s = t0.elapsed().as_secs_f64();
    let parallel = (0..3)
        .map(|_| job(ctx, WORKERS, &chain))
        .collect::<Result<Vec<_>, _>>()?;
    let all: Vec<&Job> = std::iter::once(&warm)
        .chain(&measured)
        .chain(&parallel)
        .collect();
    for j in &all {
        if !j.ok {
            report.failed += 1;
        }
        if !j.chain_ok || j.summary != reference {
            report.wrong += 1;
        }
    }
    report.attempted += all.len() as u64;
    report.note(&format!(
        "determinism: {} jobs at --workers 1 and {} at --workers {WORKERS} checked against the in-process summary; mismatching jobs {}",
        measured.len() + 1,
        parallel.len(),
        report.wrong
    ));
    report.metric(
        "samples_per_s_workers2",
        median(
            &parallel
                .iter()
                .map(|j| SAMPLES as f64 / j.engine_s)
                .collect::<Vec<_>>(),
        ),
        "samples/s",
    );
    let wall: Vec<f64> = measured.iter().map(|j| j.wall_ms).collect();
    let setup: Vec<f64> = measured
        .iter()
        .map(|j| j.wall_ms / 1e3 - j.engine_s)
        .collect();
    let engine_total: f64 = measured.iter().map(|j| j.engine_s).sum();
    let l = lat_summary(&wall);
    report.note(&format!(
        "jobs: {} measured in {total_s:.2} s ({} beyond p99; with fewer than 1000 jobs p99 is near the slowest job)",
        l.n, l.beyond_p99
    ));
    report.note(&format!(
        "samples over all measured jobs: {:.0}/s",
        SAMPLES as f64 * measured.len() as f64 / engine_total
    ));
    let samples_per_s = median(
        &measured
            .iter()
            .map(|j| SAMPLES as f64 / j.engine_s)
            .collect::<Vec<_>>(),
    );
    report.metric("setup_s", median(&setup), "s");
    report.metric("points_per_s", samples_per_s, "points/s");
    report.metric("samples_per_s", samples_per_s, "samples/s");
    report.metric("requests_per_s", measured.len() as f64 / total_s, "req/s");
    report.metric("lat_p50_ms", l.p50, "ms");
    report.metric("lat_p99_ms", l.p99, "ms");
    report.metric(
        "peak_rss_mb",
        median(&measured.iter().map(|j| j.rss_mb).collect::<Vec<_>>()),
        "MiB",
    );

    if ctx.trace {
        trace_blocks(ctx, &chain, grid, deadline, report);
    }
    Ok(())
}

/// One block as the engine runs it (`run_block` then `push_block`), with
/// the chain worker's steps replayed as children: log-normal draws, the
/// stage tapes, the delay metric.
fn block(
    tr: &mut Tracer,
    chain: &GateChain,
    worker: &mut impl BlockWorker,
    acc: &mut YieldAccumulator,
    spec: BlockSpec,
    out: &mut Vec<f64>,
    children: bool,
) {
    let n = spec.count as u64;
    let root = tr.open("timing.block", NO_PARENT, n);
    let rid = tr.open("timing.run_block", root, n);
    worker.run_block(spec, out);
    tr.close(rid);
    let aid = tr.open("timing.accum", root, n);
    acc.push_block(spec.index, out);
    tr.close(aid);
    tr.close(root);
    if !children {
        return;
    }
    let stages = chain.stages();
    let mut points = vec![vec![vec![0.0; 2]; spec.count]; stages.len()];
    let gid = tr.open("timing.rng", rid, n);
    let mut rng = BlockRng::new(spec.seed, spec.index);
    // Same draw order as the chain worker: per sample, the global pair,
    // then each stage's local pair.
    #[allow(clippy::needless_range_loop)]
    for j in 0..spec.count {
        let g_r = rng.log_normal(chain.spec().sigma_global_r);
        let g_c = rng.log_normal(chain.spec().sigma_global_c);
        for (s, st) in stages.iter().enumerate() {
            let l_r = rng.log_normal(st.sigma[0]);
            let l_c = rng.log_normal(st.sigma[1]);
            points[s][j][0] = st.nominal[0] * g_r * l_r;
            points[s][j][1] = st.nominal[1] * g_c * l_c;
        }
    }
    tr.close(gid);
    let evals: Vec<_> = stages.iter().map(|s| s.model.evaluator()).collect();
    let cols = evals.first().map_or(0, |e| e.n_outputs());
    let mut moments = vec![vec![0.0; spec.count * cols]; stages.len()];
    let tid = tr.open("timing.tape", rid, n);
    for (s, ev) in evals.iter().enumerate() {
        ev.eval_batch(&points[s], &mut moments[s]);
    }
    tr.close(tid);
    let mid = tr.open("timing.metric", rid, n);
    let mut total = vec![0.0; spec.count];
    for m in &moments {
        for (j, t) in total.iter_mut().enumerate() {
            *t += stage_delay(&m[j * cols..(j + 1) * cols], chain.spec().metric);
        }
    }
    tr.close(mid);
    std::hint::black_box(total);
}

fn trace_blocks(
    ctx: &Ctx,
    chain: &GateChain,
    grid: QuantileGrid,
    deadline: f64,
    report: &mut Report,
) {
    let mut worker = chain.make_worker();
    let mut acc = YieldAccumulator::new(grid, Some(deadline));
    let mut tr = Tracer::new(true);
    let mut out = Vec::new();
    let budget = ctx.seconds * 0.5;
    let t0 = Instant::now();
    let spec = |index: u64| BlockSpec {
        index,
        count: McConfig::DEFAULT_BLOCK,
        seed: ctx.seed,
    };
    let mut b = 0u64;
    while b < 8 || (t0.elapsed().as_secs_f64() < budget * 0.7 && b < 4096) {
        block(
            &mut tr,
            chain,
            &mut worker,
            &mut acc,
            spec(b),
            &mut out,
            true,
        );
        b += 1;
    }
    let table = tr.table();
    table.print("mc_yield");
    // Paired, interleaved runs with span recording off and on.
    let mut pairs = Vec::new();
    let t1 = Instant::now();
    let mut p = 0usize;
    while pairs.len() < 6 || (t1.elapsed().as_secs_f64() < budget * 0.3 && pairs.len() < 40) {
        let mut times = [0.0f64; 2];
        for step in 0..2 {
            let on = (step == 0) == p.is_multiple_of(2);
            let mut t = Tracer::new(on);
            let s0 = Instant::now();
            for i in 0..8 {
                block(
                    &mut t,
                    chain,
                    &mut worker,
                    &mut acc,
                    spec(i),
                    &mut out,
                    false,
                );
            }
            times[usize::from(on)] = s0.elapsed().as_secs_f64();
        }
        pairs.push(100.0 * (times[1] - times[0]) / times[0]);
        p += 1;
    }
    let s = sorted(&pairs);
    report.note(&format!(
        "trace overhead: {} paired rounds, median {:.3}% (q1 {:.3}%, q3 {:.3}%)",
        s.len(),
        median(&pairs),
        quantile_sorted(&s, 0.25),
        quantile_sorted(&s, 0.75)
    ));
    let per = |k: &str| table.get(k).self_per_unit();
    let ops: usize = chain.stages().iter().map(|s| s.model.op_count()).sum();
    let raw: usize = chain.stages().iter().map(|s| s.model.raw_op_count()).sum();
    report.metric("symbolic.kernel_ns_per_pt", per("timing.tape"), "ns");
    report.metric("symbolic.ops_per_pt", ops as f64, "count");
    report.metric(
        "symbolic.opt_ratio",
        ops as f64 / raw.max(1) as f64,
        "ratio",
    );
    report.metric("timing.rng_ns_per_sample", per("timing.rng"), "ns");
    report.metric("timing.tape_ns_per_sample", per("timing.tape"), "ns");
    report.metric("timing.metric_ns_per_sample", per("timing.metric"), "ns");
    report.metric("timing.accum_ns_per_sample", per("timing.accum"), "ns");
    report.metric("bench.unattributed_pct", table.unattributed_pct(), "%");
    report.metric("bench.trace_overhead_pct", median(&pairs), "%");
}
