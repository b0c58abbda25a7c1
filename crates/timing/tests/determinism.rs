//! End-to-end determinism: a compiled gate chain driven by the streaming
//! engine produces bit-identical summaries at 1, 4, and 8 workers, and
//! the streamed statistics match a scalar per-sample reference.

use awesym_obs::Registry;
use awesym_timing::{BlockRng, ChainSpec, GateChain, McConfig, McEngine, McReport, QuantileGrid};
use std::sync::Arc;

fn small_chain() -> GateChain {
    let mut spec = ChainSpec::uniform(8);
    for s in &mut spec.stages {
        s.segments = 2; // keep debug-mode tape cost low; 8 stages as in the issue
    }
    GateChain::compile(&spec).unwrap()
}

fn run(chain: &GateChain, workers: usize, samples: u64) -> McReport {
    let grid = QuantileGrid::around(chain.nominal_delay(), 64.0, 512);
    let deadline = 1.2 * chain.nominal_delay();
    let reg = Registry::new();
    let engine = McEngine::new(Arc::new(chain.clone()), workers, &reg);
    engine.run(
        &McConfig::new(samples, 0xC0FFEE, grid)
            .with_block_size(256)
            .with_deadline(deadline),
    )
}

#[test]
fn summaries_bit_identical_across_worker_counts() {
    let chain = small_chain();
    let base = run(&chain, 1, 4_000);
    assert_eq!(base.summary.samples, 4_000);
    assert!(
        base.summary.invalid == 0,
        "invalid {}",
        base.summary.invalid
    );
    for workers in [4, 8] {
        let r = run(&chain, workers, 4_000);
        // Whole-summary equality: mean, variance, quantiles, yield, min,
        // max — every field, bit for bit.
        assert_eq!(r.summary, base.summary, "workers={workers}");
    }
}

#[test]
fn streamed_mean_matches_scalar_reference() {
    let chain = small_chain();
    let samples = 1_024u64;
    let block = 256usize;
    let r = run(&chain, 4, samples);

    // Re-derive the mean with the scalar (non-batch, non-pooled) path.
    let mut z = vec![0.0; chain.normals_per_sample()];
    let mut sum = 0.0;
    for b in 0..samples / block as u64 {
        let mut rng = BlockRng::new(0xC0FFEE, b);
        for _ in 0..block {
            rng.fill_normals(&mut z);
            sum += chain.sample_delay(&z);
        }
    }
    let scalar_mean = sum / samples as f64;
    // Batch eval is bit-identical per point; the only difference is Welford
    // vs naive summation order.
    assert!(
        (r.summary.mean - scalar_mean).abs() <= 1e-12 * scalar_mean,
        "streamed {} vs scalar {}",
        r.summary.mean,
        scalar_mean
    );
}

#[test]
fn variation_widens_with_sigma() {
    let mut tight = ChainSpec::uniform(4);
    for s in &mut tight.stages {
        s.segments = 2;
        s.sigma_rdrv = 0.02;
        s.sigma_cload = 0.02;
    }
    tight.sigma_global_r = 0.01;
    tight.sigma_global_c = 0.01;
    let mut wide = tight.clone();
    for s in &mut wide.stages {
        s.sigma_rdrv = 0.2;
        s.sigma_cload = 0.2;
    }
    wide.sigma_global_r = 0.1;
    wide.sigma_global_c = 0.1;

    let rt = run(&GateChain::compile(&tight).unwrap(), 2, 4_000);
    let rw = run(&GateChain::compile(&wide).unwrap(), 2, 4_000);
    let cv_t = rt.summary.std_dev / rt.summary.mean;
    let cv_w = rw.summary.std_dev / rw.summary.mean;
    assert!(cv_w > 3.0 * cv_t, "cv tight {cv_t} vs wide {cv_w}");
    // Wider spread can only reduce yield against the same relative deadline.
    assert!(rw.summary.yield_fraction.unwrap() <= rt.summary.yield_fraction.unwrap());
}
