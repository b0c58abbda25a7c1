//! Gate-chain timing models: a path of logic stages, each a linearized RC
//! driver/interconnect/load segment, compiled to per-stage analytic delay
//! tapes and composed into a single path-delay function over shared
//! process symbols.
//!
//! This is the "Symbolic Timing Analysis of Digital Circuits Using
//! Analytic Delay Functions" workload mapped onto AWEsymbolic: each stage
//! becomes a [`awesym_circuit::generators::gate_stage`] circuit whose
//! driver resistance and load capacitance carry symbols, compiled once via
//! the partition/symbolic/AWE pipeline (`symbolic::opt`-optimized tape),
//! and evaluated millions of times by the streaming Monte Carlo engine.
//!
//! ## Process-variation model
//!
//! Every sample takes the next `2 + 2n` standard normals of the block's
//! [`BlockRng`] normal sequence, in a pinned order:
//!
//! 1. `z_gr`, `z_gc` — **global** (chip-wide), shared by every stage's
//!    driver resistance / load capacitance;
//! 2. per stage, in path order: `z_lr`, `z_lc` — **local** (per-gate).
//!
//! Stage `i` is then evaluated at
//! `(Rdrv_i · exp(σ_gr·z_gr + σ_lr·z_lr), Cload_i · exp(σ_gc·z_gc + σ_lc·z_lc))`:
//! the product of a global and a local log-normal factor, fused into one
//! exponential per symbol. The path delay is the sum of per-stage
//! 50 %-delay metrics computed from each stage's compiled moments.

use crate::sample::{exp_v2, BlockRng};
use crate::{BlockSpec, BlockWorker, McTask};
use awesym_circuit::generators::gate_stage;
use awesym_partition::{CompiledModel, ModelOptions, PartitionError, SymbolBinding};
use awesym_symbolic::Evaluator;

/// Which moment-based 50 %-delay metric each stage contributes.
///
/// See `awesym_awe::delay_estimates` for the family; the streaming engine
/// recomputes the chosen metric inline from the tape's moment outputs so
/// the per-sample cost stays a handful of flops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum DelayMetric {
    /// `ln2 · (−m₁)` — the step-delay Elmore heuristic. Cheapest.
    Elmore,
    /// `ln2 · m₁²/√m₂` (D2M), falling back to Elmore where `m₂ ≤ 0`.
    /// The default: markedly better than Elmore near resistance-dominated
    /// nodes at the same per-sample cost class.
    D2m,
    /// 50 % crossing of the two-pole reduced model (full Padé + Newton
    /// solve per stage per sample) — the accuracy reference, roughly an
    /// order of magnitude slower than the closed-form metrics.
    TwoPole,
}

impl std::str::FromStr for DelayMetric {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "elmore" => Ok(DelayMetric::Elmore),
            "d2m" => Ok(DelayMetric::D2m),
            "two-pole" | "two_pole" => Ok(DelayMetric::TwoPole),
            other => Err(format!(
                "unknown metric '{other}' (expected elmore|d2m|two-pole)"
            )),
        }
    }
}

/// One logic stage of a path: linearized driver, lumped interconnect,
/// receiver load, plus the local variation sigmas.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct StageSpec {
    /// Stage name (reported in the chain summary).
    pub name: String,
    /// Driver on-resistance (Ω).
    pub rdrv: f64,
    /// Lumped wire segments.
    pub segments: usize,
    /// Total wire resistance (Ω).
    pub r_wire: f64,
    /// Total wire-to-ground capacitance (F).
    pub c_wire: f64,
    /// Receiver input capacitance (F).
    pub cload: f64,
    /// Local log-normal sigma on the driver resistance.
    pub sigma_rdrv: f64,
    /// Local log-normal sigma on the load capacitance.
    pub sigma_cload: f64,
}

/// A full path specification: the stages plus the chip-wide variation
/// terms and modeling knobs.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ChainSpec {
    /// Stages in path order.
    pub stages: Vec<StageSpec>,
    /// Global log-normal sigma shared by every stage's driver resistance.
    pub sigma_global_r: f64,
    /// Global log-normal sigma shared by every stage's load capacitance.
    pub sigma_global_c: f64,
    /// AWE model order per stage (2 matches the paper's workhorse order).
    pub order: usize,
    /// Per-stage delay metric.
    pub metric: DelayMetric,
}

impl ChainSpec {
    /// A uniform `n`-stage chain with early-90s-flavored stage constants
    /// (120 Ω drivers, 80 Ω / 0.4 pF wires over 8 segments, 25 fF loads)
    /// and 8 % local / 5 % global sigmas — the default CLI and benchmark
    /// workload.
    ///
    /// # Panics
    ///
    /// Panics when `n == 0`.
    pub fn uniform(n: usize) -> Self {
        assert!(n > 0, "chain needs at least one stage");
        ChainSpec {
            stages: (0..n)
                .map(|i| StageSpec {
                    name: format!("stage{i}"),
                    rdrv: 120.0,
                    segments: 8,
                    r_wire: 80.0,
                    c_wire: 0.4e-12,
                    cload: 25e-15,
                    sigma_rdrv: 0.08,
                    sigma_cload: 0.08,
                })
                .collect(),
            sigma_global_r: 0.05,
            sigma_global_c: 0.05,
            order: 2,
            metric: DelayMetric::D2m,
        }
    }
}

/// A compiled stage: the optimized moment tape plus its nominal symbol
/// values and sigmas.
#[derive(Debug, Clone)]
pub struct CompiledStage {
    /// Stage name from the spec.
    pub name: String,
    /// Compiled symbolic model over `[rdrv, cload]`.
    pub model: CompiledModel,
    /// Nominal `(rdrv, cload)`.
    pub nominal: [f64; 2],
    /// Local `(sigma_rdrv, sigma_cload)`.
    pub sigma: [f64; 2],
}

/// The composed path-delay function: per-stage compiled tapes sharing the
/// global process symbols, plus everything the streaming engine needs to
/// turn a `(seed, block)` pair into a block of path delays.
#[derive(Debug, Clone)]
pub struct GateChain {
    spec: ChainSpec,
    stages: Vec<CompiledStage>,
    nominal_delay: f64,
}

impl GateChain {
    /// Builds each stage's circuit, binds `rdrv`/`cload` symbols, and
    /// compiles the per-stage moment tapes (shared-subexpression
    /// optimized, `symbolic::opt` full pipeline).
    ///
    /// # Errors
    ///
    /// Propagates model-compilation failures; rejects an empty spec or a
    /// stage whose nominal delay metric is not finite and positive.
    pub fn compile(spec: &ChainSpec) -> Result<Self, PartitionError> {
        if spec.stages.is_empty() {
            return Err(PartitionError::BadBinding {
                what: "chain has no stages".into(),
            });
        }
        let mut stages = Vec::with_capacity(spec.stages.len());
        let mut nominal_delay = 0.0;
        for s in &spec.stages {
            let w = gate_stage(s.rdrv, s.segments, s.r_wire, s.c_wire, s.cload);
            let rdrv = w.circuit.find("Rdrv").expect("gate_stage names Rdrv");
            let cload = w.circuit.find("Cload").expect("gate_stage names Cload");
            let bindings = [
                SymbolBinding::resistance("rdrv", vec![rdrv]),
                SymbolBinding::capacitance("cload", vec![cload]),
            ];
            let model = CompiledModel::build_with_options(
                &w.circuit,
                w.input,
                w.output,
                &bindings,
                ModelOptions::order(spec.order),
            )?;
            let m = model.eval_moments(&[s.rdrv, s.cload]);
            let d = stage_delay(&m, spec.metric);
            if !(d.is_finite() && d > 0.0) {
                return Err(PartitionError::BadBinding {
                    what: format!("stage '{}' has no valid nominal delay ({d})", s.name),
                });
            }
            nominal_delay += d;
            stages.push(CompiledStage {
                name: s.name.clone(),
                model,
                nominal: [s.rdrv, s.cload],
                sigma: [s.sigma_rdrv, s.sigma_cload],
            });
        }
        Ok(GateChain {
            spec: spec.clone(),
            stages,
            nominal_delay,
        })
    }

    /// The spec this chain was compiled from.
    pub fn spec(&self) -> &ChainSpec {
        &self.spec
    }

    /// The compiled stages, in path order.
    pub fn stages(&self) -> &[CompiledStage] {
        &self.stages
    }

    /// Path delay with every variation factor at its median (sum of
    /// per-stage nominal metrics) — the natural center for the quantile
    /// grid and the deadline default.
    pub fn nominal_delay(&self) -> f64 {
        self.nominal_delay
    }

    /// Total optimized tape instructions across stages.
    pub fn op_count(&self) -> usize {
        self.stages.iter().map(|s| s.model.op_count()).sum()
    }

    /// Standard normals one sample consumes: the global pair, then one
    /// local pair per stage.
    pub fn normals_per_sample(&self) -> usize {
        2 + 2 * self.stages.len()
    }

    /// Path delay of one sample given its `2 + 2n` normals in draw order
    /// — the scalar reference the streaming engine's batch path must match
    /// bit for bit (used by tests).
    pub fn sample_delay(&self, z: &[f64]) -> f64 {
        assert_eq!(
            z.len(),
            self.normals_per_sample(),
            "2 + 2n normals per sample"
        );
        let sigma_g = [self.spec.sigma_global_r, self.spec.sigma_global_c];
        let mut total = 0.0;
        for (s, stage) in self.stages.iter().enumerate() {
            let vals: [f64; 2] = std::array::from_fn(|k| {
                stage.nominal[k] * exp_v2(sigma_g[k] * z[k] + stage.sigma[k] * z[2 + 2 * s + k])
            });
            let m = stage.model.eval_moments(&vals);
            total += stage_delay(&m, self.spec.metric);
        }
        total
    }
}

/// The chosen 50 %-delay metric from one stage's moment vector. Returns
/// NaN when the metric cannot be formed — the engine's invalid-sample
/// sentinel.
#[inline]
pub fn stage_delay(m: &[f64], metric: DelayMetric) -> f64 {
    let ln2 = std::f64::consts::LN_2;
    let elmore = -m[1];
    match metric {
        DelayMetric::Elmore => ln2 * elmore,
        DelayMetric::D2m => {
            if m.len() >= 3 && m[2] > 0.0 {
                ln2 * m[1] * m[1] / m[2].sqrt()
            } else {
                ln2 * elmore
            }
        }
        DelayMetric::TwoPole => awesym_awe::delay_estimates(m)
            .ok()
            .and_then(|d| d.two_pole)
            .unwrap_or(f64::NAN),
    }
}

/// Samples whose normals [`ChainWorker::draw`] generates at a time: one
/// sub-block of normals stays in L1 while its factor columns are formed.
const SUB_BLOCK: usize = 64;

/// Per-worker state for a [`GateChain`] run: one [`Evaluator`] per stage
/// (owned scratch, reused across every block the worker processes) plus
/// the SoA point/moment buffers.
pub struct ChainWorker<'a> {
    chain: &'a GateChain,
    evals: Vec<Evaluator<'a>>,
    /// Per stage: the block's symbol points (`count × 2`).
    points: Vec<Vec<Vec<f64>>>,
    /// Samples the last [`ChainWorker::draw`] wrote into `points`.
    drawn: usize,
    /// One sub-block's normals, sample-major.
    normals: Vec<f64>,
    moments: Vec<f64>,
}

impl<'a> ChainWorker<'a> {
    fn new(chain: &'a GateChain) -> Self {
        ChainWorker {
            evals: chain.stages.iter().map(|s| s.model.evaluator()).collect(),
            points: vec![Vec::new(); chain.stages.len()],
            drawn: 0,
            normals: vec![0.0; SUB_BLOCK * chain.normals_per_sample()],
            moments: Vec::new(),
            chain,
        }
    }

    /// The sampling step of [`BlockWorker::run_block`]: draws the block's
    /// normals a sub-block at a time and turns them into every stage's
    /// symbol points, one column pass per (stage, symbol) computing
    /// `nominal · exp(σ_g·z_g + σ_l·z_l)`.
    pub fn draw(&mut self, block: BlockSpec) {
        let chain = self.chain;
        let width = chain.normals_per_sample();
        let count = block.count;
        for pts in &mut self.points {
            pts.resize_with(count, || vec![0.0; 2]);
        }
        let sigma_g = [chain.spec.sigma_global_r, chain.spec.sigma_global_c];
        let mut rng = BlockRng::new(block.seed, block.index);
        for start in (0..count).step_by(SUB_BLOCK) {
            let n = SUB_BLOCK.min(count - start);
            let z = &mut self.normals[..n * width];
            rng.fill_normals(z);
            for (s, stage) in chain.stages.iter().enumerate() {
                for k in 0..2 {
                    // Same expression as `GateChain::sample_delay`, split
                    // into gather, exponential and scatter passes so the
                    // exponential runs over a fixed-size column.
                    let mut col = [0.0; SUB_BLOCK];
                    for (c, zj) in col.iter_mut().zip(z.chunks_exact(width)) {
                        *c = sigma_g[k] * zj[k] + stage.sigma[k] * zj[2 + 2 * s + k];
                    }
                    for c in &mut col {
                        *c = exp_v2(*c);
                    }
                    for (p, c) in self.points[s][start..start + n].iter_mut().zip(&col) {
                        p[k] = stage.nominal[k] * c;
                    }
                }
            }
        }
        self.drawn = count;
    }

    /// The evaluation step of [`BlockWorker::run_block`]: runs every
    /// stage's tape over the points of the last [`ChainWorker::draw`] and
    /// writes each sample's path delay into `out`.
    pub fn delays(&mut self, out: &mut Vec<f64>) {
        let count = self.drawn;
        out.clear();
        out.resize(count, 0.0);
        for (ev, points) in self.evals.iter().zip(&self.points) {
            let n_out = ev.n_outputs();
            self.moments.resize(count * n_out, 0.0);
            ev.eval_batch(&points[..count], &mut self.moments);
            for (o, m) in out.iter_mut().zip(self.moments.chunks_exact(n_out)) {
                // NaN from any stage poisons the sample's sum, which the
                // accumulator then counts as invalid.
                *o += stage_delay(m, self.chain.spec.metric);
            }
        }
    }
}

impl BlockWorker for ChainWorker<'_> {
    fn run_block(&mut self, block: BlockSpec, out: &mut Vec<f64>) {
        self.draw(block);
        self.delays(out);
    }
}

impl McTask for GateChain {
    type Worker<'a> = ChainWorker<'a>;
    fn make_worker(&self) -> ChainWorker<'_> {
        ChainWorker::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> ChainSpec {
        let mut spec = ChainSpec::uniform(3);
        for s in &mut spec.stages {
            s.segments = 2;
        }
        spec
    }

    #[test]
    fn compile_and_nominal_delay() {
        let chain = GateChain::compile(&tiny_spec()).unwrap();
        assert_eq!(chain.stages().len(), 3);
        assert!(chain.nominal_delay() > 0.0);
        assert!(chain.op_count() > 0);
        // Uniform chain: nominal = 3 × single-stage delay.
        let single = GateChain::compile(&ChainSpec {
            stages: tiny_spec().stages[..1].to_vec(),
            ..tiny_spec()
        })
        .unwrap();
        let ratio = chain.nominal_delay() / single.nominal_delay();
        assert!((ratio - 3.0).abs() < 1e-9, "{ratio}");
    }

    #[test]
    fn empty_chain_rejected() {
        let spec = ChainSpec {
            stages: Vec::new(),
            ..ChainSpec::uniform(1)
        };
        assert!(GateChain::compile(&spec).is_err());
    }

    #[test]
    fn block_worker_matches_scalar_reference() {
        let chain = GateChain::compile(&tiny_spec()).unwrap();
        let mut worker = chain.make_worker();
        // 150 samples span two full normal sub-blocks and a short one; the
        // reused worker then runs a shorter block.
        for (index, count) in [(5, 150), (6, 23)] {
            let block = BlockSpec {
                index,
                count,
                seed: 0xFACE,
            };
            let mut out = Vec::new();
            worker.run_block(block, &mut out);
            assert_eq!(out.len(), count);
            // Re-derive each sample with the scalar path from the same
            // stream.
            let mut rng = BlockRng::new(0xFACE, index);
            let mut z = vec![0.0; chain.normals_per_sample()];
            for (j, &batch) in out.iter().enumerate() {
                rng.fill_normals(&mut z);
                let scalar = chain.sample_delay(&z);
                assert_eq!(batch, scalar, "block {index} sample {j}");
            }
        }
    }

    #[test]
    fn stage_tapes_lane_width_parity() {
        use awesym_symbolic::{LaneWidth, MulAddMode};
        // Real compiled stage-delay tapes: the lane kernel must be
        // bit-identical to the per-point path at every width in exact
        // mode, so Monte Carlo results cannot depend on AWESYM_LANES
        // (the CI simd-parity matrix additionally runs the whole crate
        // suite with the env var pinned to 1/4/8).
        let chain = GateChain::compile(&tiny_spec()).unwrap();
        for stage in chain.stages() {
            let ev = stage.model.evaluator();
            let n_out = ev.n_outputs();
            // 41 points: one full 32-point block + scalar tail at width
            // 8, two blocks + tail at width 4.
            let points: Vec<Vec<f64>> = (0..41)
                .map(|i| {
                    vec![
                        stage.nominal[0] * (0.8 + 0.01 * i as f64),
                        stage.nominal[1] * (1.2 - 0.007 * i as f64),
                    ]
                })
                .collect();
            let mut reference = vec![0.0; points.len() * n_out];
            for (p, row) in points.iter().zip(reference.chunks_exact_mut(n_out)) {
                ev.eval_into(p, row);
            }
            for width in [LaneWidth::Scalar, LaneWidth::W4, LaneWidth::W8] {
                let mut got = vec![0.0; points.len() * n_out];
                ev.eval_batch_lanes(&points, &mut got, width, MulAddMode::Exact)
                    .unwrap();
                for (i, (&g, &r)) in got.iter().zip(&reference).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        r.to_bits(),
                        "width {width}, moment slot {i}: {g} != {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn metrics_order_sanely() {
        let chain_d2m = GateChain::compile(&tiny_spec()).unwrap();
        let spec_elm = ChainSpec {
            metric: DelayMetric::Elmore,
            ..tiny_spec()
        };
        let chain_elm = GateChain::compile(&spec_elm).unwrap();
        let spec_tp = ChainSpec {
            metric: DelayMetric::TwoPole,
            ..tiny_spec()
        };
        let chain_tp = GateChain::compile(&spec_tp).unwrap();
        // The three metrics estimate the same physical 50 % delay, so they
        // must agree to within tens of percent on a plain RC stage. (For a
        // single pole D2M equals ln2·Elmore exactly; distributed RC pushes
        // D2M slightly above it, m₂ < m₁².)
        let (d_tp, d_d2m, d_elm) = (
            chain_tp.nominal_delay(),
            chain_d2m.nominal_delay(),
            chain_elm.nominal_delay(),
        );
        assert!(d_tp > 0.0 && d_d2m > 0.0 && d_elm > 0.0);
        assert!(
            (d_d2m / d_elm - 1.0).abs() < 0.35,
            "d2m {d_d2m} vs elmore {d_elm}"
        );
        assert!(
            (d_d2m / d_tp - 1.0).abs() < 0.35,
            "d2m {d_d2m} vs tp {d_tp}"
        );
    }

    #[test]
    fn metric_parse() {
        assert_eq!("d2m".parse::<DelayMetric>().unwrap(), DelayMetric::D2m);
        assert_eq!(
            "two-pole".parse::<DelayMetric>().unwrap(),
            DelayMetric::TwoPole
        );
        assert!("bogus".parse::<DelayMetric>().is_err());
    }

    #[test]
    fn spec_serde_round_trip() {
        let spec = tiny_spec();
        let json = serde_json::to_string(&spec).unwrap();
        let back: ChainSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
    }
}
