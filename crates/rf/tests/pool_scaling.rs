//! Parallel-scaling test for the worker pool.
//!
//! `#[ignore]`d by default: it measures wall-clock speedup, so it only
//! means something on a multi-core host and would be pure noise on a
//! single-core machine. The CI `multi-core` job runs it explicitly with
//! `--ignored` on a 4-vCPU runner; locally:
//! `cargo test --release -p rfsim-rf --test pool_scaling -- --ignored`.
//! The test skips itself (with a message) when fewer than two cores are
//! available.

use std::time::{Duration, Instant};

use rfsim_rf::pool::WorkerPool;

fn cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Pure CPU spin for a deterministic amount of work (no sleeping — sleep
/// parallelises perfectly even on one core and would prove nothing).
fn spin_work(iters: u64) -> f64 {
    let mut acc = 0.0f64;
    for i in 0..iters {
        acc += (i as f64).sqrt().sin();
    }
    acc
}

/// Minimum elapsed time of `reps` runs of `f` (minimum filters scheduler
/// noise far better than the mean).
fn min_elapsed(reps: usize, mut f: impl FnMut()) -> Duration {
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed()
        })
        .min()
        .expect("reps > 0")
}

#[test]
#[ignore = "wall-clock scaling: run on a multi-core host via the CI multi-core job"]
fn pool_speeds_up_cpu_bound_batches() {
    let cores = cores();
    if cores < 2 {
        eprintln!("skipping: single-core host (available_parallelism = {cores})");
        return;
    }
    let width = cores.min(4);
    let jobs = 4 * width;
    let per_job = 4_000_000u64;
    let sequential = min_elapsed(3, || {
        let out = WorkerPool::new(1).run(jobs, |_| spin_work(per_job));
        assert_eq!(out.len(), jobs);
    });
    let parallel = min_elapsed(3, || {
        let out = WorkerPool::new(width).run(jobs, |_| spin_work(per_job));
        assert_eq!(out.len(), jobs);
    });
    let speedup = sequential.as_secs_f64() / parallel.as_secs_f64();
    eprintln!("pool width {width}: sequential {sequential:?}, parallel {parallel:?}, speedup {speedup:.2}x");
    assert!(
        speedup > 1.3,
        "width-{width} pool should beat sequential on {cores} cores: {speedup:.2}x"
    );
}
