//! A panicking `BlockWorker` must reach the caller of `McEngine::run`
//! instead of stranding it, and must leave the engine usable.

use awesym_obs::Registry;
use awesym_timing::{BlockRng, BlockSpec, BlockWorker, McConfig, McEngine, McTask, QuantileGrid};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Log-normal samples; panics on block 3 of the first run that reaches
/// it while armed.
struct FaultyTask {
    armed: AtomicBool,
}

struct FaultyWorker<'a> {
    armed: &'a AtomicBool,
}

impl BlockWorker for FaultyWorker<'_> {
    fn run_block(&mut self, block: BlockSpec, out: &mut Vec<f64>) {
        if block.index == 3 && self.armed.swap(false, Ordering::SeqCst) {
            panic!("injected block fault");
        }
        let mut rng = BlockRng::new(block.seed, block.index);
        out.clear();
        out.extend((0..block.count).map(|_| rng.log_normal(0.2)));
    }
}

impl McTask for FaultyTask {
    type Worker<'a> = FaultyWorker<'a>;
    fn make_worker(&self) -> FaultyWorker<'_> {
        FaultyWorker { armed: &self.armed }
    }
}

#[test]
fn block_panic_reaches_the_caller_and_the_engine_recovers() {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let task = Arc::new(FaultyTask {
            armed: AtomicBool::new(true),
        });
        let engine = McEngine::new(Arc::clone(&task), 2, &Registry::new());
        let grid = QuantileGrid::around(1.0, 64.0, 512);
        let cfg = McConfig::new(5_000, 11, grid).with_block_size(256);
        let first = catch_unwind(AssertUnwindSafe(|| engine.run(&cfg)));
        let message = first
            .err()
            .and_then(|e| e.downcast_ref::<&str>().map(|m| m.to_string()));
        let again = engine.run(&cfg).summary;
        let fresh = McEngine::new(task, 1, &Registry::new()).run(&cfg).summary;
        let _ = tx.send((message, again, fresh));
    });
    let (message, again, fresh) = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("McEngine::run hung after a block panicked");
    assert_eq!(message.as_deref(), Some("injected block fault"));
    assert_eq!(again, fresh);
}
