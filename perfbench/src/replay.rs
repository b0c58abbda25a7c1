//! The traced run for the serving workloads: the same generated requests
//! pushed in-process through the path a socket connection takes
//! (`RecvBuf` → decode/parse → `Server::handle_*_into`), with each inner
//! layer replayed beside its parent on the same inputs.

use crate::check::Kind;
use crate::gen::ModelSpec;
use crate::report::Report;
use crate::trace::{layer_metric, Table, Tracer, NO_PARENT};
use crate::util::{median, quantile_sorted, sorted};
use awesym_net::RecvBuf;
use awesym_obs::now_ns;
use awesym_serve::encode::{encoder_for, BatchBody, ResponseBody};
use awesym_serve::{ServeError, Server, WireEncoding};
use serde::Content;
use std::io::Cursor;
use std::sync::Arc;
use std::time::Instant;

/// What a request asks for, as the replay needs to re-issue its parts.
#[derive(Clone)]
pub enum Op {
    /// `batch`.
    Eval {
        model: String,
        points: Arc<Vec<Vec<f64>>>,
        kind: Kind,
    },
    Compile(Box<ModelSpec>),
}

/// One request: its exact wire bytes and what it asks for.
#[derive(Clone)]
pub struct Req {
    pub bytes: Arc<Vec<u8>>,
    pub binary: bool,
    pub op: Op,
}

impl Req {
    pub fn points(&self) -> u64 {
        match &self.op {
            Op::Eval { points, .. } => points.len() as u64,
            Op::Compile(_) => 0,
        }
    }
}

pub struct Replay {
    pub server: Server,
    pub tracer: Tracer,
    rb: RecvBuf,
    out: Vec<u8>,
    /// Point-weighted op counts of the evaluated models.
    pub op_points: (u64, u64),
    /// op_count / raw_op_count of each compiled model.
    pub opt_ratios: Vec<f64>,
    /// Whether the next batch replays `WorkerPool::run_batch` before its
    /// parent `Shard::evaluate` rather than after it.
    pool_first: bool,
}

impl Replay {
    pub fn new(server: Server) -> Self {
        Replay {
            server,
            tracer: Tracer::new(true),
            rb: RecvBuf::with_limit(64 << 20),
            out: Vec::with_capacity(1 << 16),
            op_points: (0, 0),
            opt_ratios: Vec::new(),
            pool_first: false,
        }
    }

    /// The request as a socket connection runs it, under a root span. With
    /// `children`, inner layers are replayed afterwards as child spans.
    pub fn request(&mut self, req: &Req, children: bool) {
        let tr = &mut self.tracer;
        let root = tr.open("bench.request", NO_PARENT, 1);
        let sid = tr.open("net.scan", root, 1);
        let mut cur = Cursor::new(req.bytes.as_slice());
        let span = loop {
            match self.rb.scan() {
                Ok(Some(span)) => break span,
                Ok(None) => {
                    let _ = self.rb.fill(&mut cur);
                }
                Err(e) => panic!("replayed request does not scan: {e}"),
            }
        };
        let bytes = self.rb.take(span);
        tr.close(sid);
        self.out.clear();
        let eid;
        if req.binary {
            let did = tr.open("net.decode", root, req.points());
            let d0 = now_ns();
            let decoded = awesym_net::decode_request(bytes).map_err(|e| ServeError::BadRequest {
                what: e.to_string(),
            });
            let dur = now_ns() - d0;
            tr.close(did);
            eid = tr.open("serve.engine", root, 1);
            self.server.handle_decoded_into(
                decoded,
                WireEncoding::BinaryV1,
                Some((d0, dur)),
                &mut self.out,
            );
        } else {
            let text = std::str::from_utf8(bytes).expect("request line is UTF-8");
            eid = tr.open("serve.engine", root, 1);
            self.server.handle_line_into(text, &mut self.out);
        }
        tr.close(eid);
        tr.close(root);
        if children {
            self.children(req, eid);
        }
    }

    fn children(&mut self, req: &Req, eid: usize) {
        if !req.binary {
            let text = std::str::from_utf8(&req.bytes).expect("UTF-8").trim_end();
            let pid = self.tracer.open("serve.parse", eid, req.points());
            let parsed = serde_json::from_str::<Content>(text);
            self.tracer.close(pid);
            std::hint::black_box(parsed.ok());
        }
        match &req.op {
            Op::Eval {
                model,
                points,
                kind,
            } => self.eval_children(eid, model, points, *kind, req.binary),
            Op::Compile(spec) => self.compile_children(eid, spec),
        }
    }

    fn eval_children(
        &mut self,
        eid: usize,
        name: &str,
        points: &Arc<Vec<Vec<f64>>>,
        kind: Kind,
        binary: bool,
    ) {
        let n = points.len() as u64;
        let shard = self.server.shard_for(name);
        let Some(model) = shard.registry().get(name) else {
            return;
        };
        self.op_points.0 += model.op_count() as u64 * n;
        self.op_points.1 += n;
        // Whichever of `Shard::evaluate` and its `run_batch` child runs
        // second allocates while the first one's results are alive, which
        // costs it page faults. Alternating the order per batch splits that
        // cost evenly between parent and child.
        let pool_first = self.pool_first;
        self.pool_first = !pool_first;
        let tr = &mut self.tracer;
        let pool = |tr: &mut Tracer| {
            let pid = tr.open("serve.pool", NO_PARENT, n);
            let pooled = shard.pool().run_batch(
                Arc::clone(&model),
                Arc::clone(points),
                kind.output(),
                None,
                None,
            );
            tr.close(pid);
            (pid, pooled)
        };
        let early = pool_first.then(|| pool(tr));
        let vid = tr.open("serve.evaluate", eid, n);
        let outcome = shard.evaluate(
            Arc::clone(&model),
            Arc::clone(points),
            kind.output(),
            None,
            None,
        );
        tr.close(vid);
        let (pid, pooled) = early.unwrap_or_else(|| pool(tr));
        tr.set_parent(pid, vid);
        drop(pooled);
        let ev = model.evaluator();
        let cols = ev.n_outputs();
        let mut moments = vec![0.0; points.len() * cols];
        let kid = tr.open("symbolic.kernel", pid, n);
        if kind == Kind::Moments {
            ev.eval_batch(points, &mut moments);
        } else {
            for (p, m) in points.iter().zip(moments.chunks_exact_mut(cols)) {
                ev.eval_into(p, m);
            }
        }
        tr.close(kid);
        if kind != Kind::Moments {
            let aid = tr.open("awe.post", pid, n);
            for m in moments.chunks_exact(cols) {
                if kind == Kind::Delays {
                    std::hint::black_box(awesym_awe::delay_estimates(m).ok());
                } else {
                    std::hint::black_box(model.rom_from_moments(m).ok());
                }
            }
            tr.close(aid);
        }
        let Ok(outcome) = outcome else {
            return;
        };
        let mut buf = Vec::with_capacity(self.out.len());
        let ok_count = outcome.results.iter().filter(|r| r.is_ok()).count() as u64;
        let body = ResponseBody::Batch(BatchBody {
            head: vec![
                ("ok", Content::Bool(true)),
                ("count", Content::U64(n)),
                ("ok_count", Content::U64(ok_count)),
            ],
            id: None,
            results: outcome.results,
            cols: cols_of(kind, cols),
            ok_count,
            elapsed_ns: 0,
            deadline_exceeded: false,
            deadline: None,
        });
        let (name, enc) = if binary {
            ("serve.encode.binary", WireEncoding::BinaryV1)
        } else {
            ("serve.encode.ndjson", WireEncoding::Ndjson)
        };
        let cid = tr.open(name, eid, n);
        let _ = encoder_for(enc).encode_response(&body, &mut buf);
        tr.close(cid);
    }

    fn compile_children(&mut self, eid: usize, spec: &ModelSpec) {
        let tr = &mut self.tracer;
        let cid = tr.open("circuit.parse", eid, 1);
        let circuit = awesym_circuit::parse_spice(&spec.netlist);
        tr.close(cid);
        let Ok(circuit) = circuit else { return };
        let (Some(input), Some(output)) =
            (circuit.find(&spec.input), circuit.find_node(&spec.output))
        else {
            return;
        };
        let Ok(bindings) = awesym_serve::resolve::resolve_symbol_specs(&circuit, &spec.symbols)
        else {
            return;
        };
        let bid = tr.open("partition.compile", eid, 1);
        let model =
            awesym_partition::CompiledModel::build(&circuit, input, output, &bindings, spec.order);
        tr.close(bid);
        let mid = tr.open("mna.build", bid, 1);
        let mna = awesym_mna::Mna::build(&circuit);
        tr.close(mid);
        std::hint::black_box(mna.ok());
        if let Ok(m) = model {
            self.opt_ratios
                .push(m.op_count() as f64 / m.raw_op_count().max(1) as f64);
        }
    }

    /// `trace_overhead_pct` from paired, interleaved runs of the same
    /// requests with span recording off and on (no child replays).
    /// Returns the per-pair overheads.
    pub fn overhead_pairs(&mut self, reqs: &[Req], pairs: usize) -> Vec<f64> {
        let saved = std::mem::replace(&mut self.tracer, Tracer::new(false));
        let mut out = Vec::with_capacity(pairs);
        for p in 0..pairs {
            let mut times = [0.0f64; 2];
            for step in 0..2 {
                // Alternate which side goes first.
                let on = (step == 0) == p.is_multiple_of(2);
                self.tracer = Tracer::new(on);
                let t0 = Instant::now();
                for r in reqs {
                    self.request(r, false);
                }
                times[usize::from(on)] = t0.elapsed().as_secs_f64();
            }
            out.push(100.0 * (times[1] - times[0]) / times[0]);
        }
        self.tracer = saved;
        out
    }
}

fn cols_of(kind: Kind, moments: usize) -> usize {
    match kind {
        Kind::Moments => moments,
        Kind::Delays => 4,
        Kind::Rom => 0,
    }
}

/// Runs the replay for up to `budget_s` (at least one pass over a few
/// requests), then the overhead pairs, and reports every serving-layer
/// metric. `transport_us` is the socket run's mean client latency minus
/// the server's own per-request stage time (from its `stats`).
pub fn run_and_report(
    mut rp: Replay,
    reqs: &[Req],
    budget_s: f64,
    transport_us: f64,
    report: &mut Report,
    title: &str,
) -> Table {
    let t0 = Instant::now();
    let mut i = 0usize;
    while i < reqs.len().max(1) * 64 && (i < 8 || t0.elapsed().as_secs_f64() < budget_s * 0.7) {
        rp.request(&reqs[i % reqs.len()], true);
        i += 1;
    }
    let table = rp.tracer.table();
    table.print(title);
    // Overhead pairs on a fixed slice of the same requests.
    let slice: Vec<Req> = reqs.iter().take(16).cloned().collect();
    let mut pairs = Vec::new();
    let t1 = Instant::now();
    while pairs.len() < 6 || (t1.elapsed().as_secs_f64() < budget_s * 0.3 && pairs.len() < 40) {
        pairs.extend(rp.overhead_pairs(&slice, 2));
    }
    let s = sorted(&pairs);
    report.note(&format!(
        "trace overhead: {} paired rounds, median {:.3}% (q1 {:.3}%, q3 {:.3}%)",
        s.len(),
        median(&pairs),
        quantile_sorted(&s, 0.25),
        quantile_sorted(&s, 0.75)
    ));
    // Cross-check with the in-process server's own stage histograms.
    let snap = rp.server.stats().snapshot();
    let per = |names: &[&str]| -> (u64, u64) {
        names.iter().fold((0, 0), |(n, t), k| {
            let l = table.get(k);
            (n + l.calls, t + l.total_ns)
        })
    };
    for st in &snap.stages {
        let traced = match st.stage.as_str() {
            "parse" => Some(per(&["net.decode", "serve.parse"])),
            "eval" => Some(per(&["serve.evaluate"])),
            "serialize" => Some(per(&["serve.encode.binary", "serve.encode.ndjson"])),
            _ => None,
        };
        match traced {
            Some((n, t)) if n > 0 && st.mean_ns > 0.0 => {
                let mean = t as f64 / n as f64;
                report.note(&format!(
                    "stage cross-check {:<9} server {:>11.0} ns/req ({} reqs)  traced {:>11.0} ns/req ({} spans)  disagreement {:+.1}%",
                    st.stage, st.mean_ns, st.count, mean, n, 100.0 * (mean - st.mean_ns) / st.mean_ns
                ));
            }
            _ => report.note(&format!(
                "stage cross-check {:<9} server {:>11.0} ns/req ({} reqs)  traced: inside serve.engine self time",
                st.stage, st.mean_ns, st.count
            )),
        }
    }
    let engine = table.get("serve.engine");
    report.metric(
        "net.scan_ns_per_msg",
        table.get("net.scan").self_per_unit(),
        "ns",
    );
    report.metric(
        "net.decode_ns_per_pt",
        table.get("net.decode").self_per_unit(),
        "ns",
    );
    report.metric("net.transport_us_per_req", transport_us, "us");
    report.metric(
        "serve.parse_ns_per_pt",
        table.get("serve.parse").self_per_unit(),
        "ns",
    );
    layer_metric(
        report,
        &table,
        "serve.engine_self_us_per_req",
        "serve.engine",
        engine.self_per_call() / 1e3,
        "us",
    );
    let admit = table.get("serve.evaluate").self_per_call() / 1e3;
    layer_metric(
        report,
        &table,
        "serve.admit_us_per_req",
        "serve.evaluate",
        admit,
        "us",
    );
    let pool = table.get("serve.pool").self_per_unit();
    layer_metric(
        report,
        &table,
        "serve.pool_ns_per_pt",
        "serve.pool",
        pool,
        "ns",
    );
    report.metric(
        "serve.encode_binary_ns_per_pt",
        table.get("serve.encode.binary").self_per_unit(),
        "ns",
    );
    report.metric(
        "serve.encode_ndjson_ns_per_pt",
        table.get("serve.encode.ndjson").self_per_unit(),
        "ns",
    );
    report.metric(
        "symbolic.kernel_ns_per_pt",
        table.get("symbolic.kernel").self_per_unit(),
        "ns",
    );
    let (ops, pts) = rp.op_points;
    report.metric(
        "symbolic.ops_per_pt",
        if pts == 0 {
            0.0
        } else {
            ops as f64 / pts as f64
        },
        "count",
    );
    report.metric(
        "awe.post_ns_per_pt",
        table.get("awe.post").self_per_unit(),
        "ns",
    );
    report.metric(
        "circuit.parse_ms",
        table.get("circuit.parse").self_per_call() / 1e6,
        "ms",
    );
    report.metric(
        "mna.build_ms",
        table.get("mna.build").self_per_call() / 1e6,
        "ms",
    );
    let compile = table.get("partition.compile").self_per_call() / 1e6;
    layer_metric(
        report,
        &table,
        "partition.compile_ms",
        "partition.compile",
        compile,
        "ms",
    );
    if !rp.opt_ratios.is_empty() {
        report.metric("symbolic.opt_ratio", median(&rp.opt_ratios), "ratio");
    }
    report.metric("bench.unattributed_pct", table.unattributed_pct(), "%");
    report.metric("bench.trace_overhead_pct", median(&pairs), "%");
    table
}
