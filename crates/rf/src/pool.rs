//! A hand-rolled fixed-thread worker pool (no external dependencies).
//!
//! The pool runs the sweep engine, whose unit of concurrency is a
//! *topology group*: the jobs of a batch that share a circuit structure,
//! run back to back on one thread. The job model is therefore deliberately simple: `jobs`
//! independent indexed tasks, executed by a fixed number of scoped worker
//! threads pulling from one atomic counter.
//! There is no work stealing, no channels and no queues to poison: a
//! worker that finishes early simply pulls the next index. Results come
//! back in job order.
//!
//! # Sizing
//!
//! [`WorkerPool::from_available_parallelism`] sizes the pool to the
//! machine; [`WorkerPool::new`] pins an explicit width. A pool of width 1
//! (or a single job) runs inline on the caller's thread, with no thread
//! spawned at all — useful both on single-core hosts, where scoped threads
//! only add context-switch overhead, and for bit-for-bit determinism
//! checks against sequential execution. Each busy worker holds the
//! workspaces of the one sweep it is running, so memory scales with
//! `min(threads, concurrent topology groups)`, not with batch size.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A fixed-width pool of scoped worker threads.
///
/// ```
/// use rfsim_rf::pool::WorkerPool;
///
/// let pool = WorkerPool::new(4);
/// let squares = pool.run(8, |i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// ```
#[derive(Debug, Clone)]
pub struct WorkerPool {
    threads: usize,
}

impl Default for WorkerPool {
    fn default() -> Self {
        Self::from_available_parallelism()
    }
}

impl WorkerPool {
    /// A pool running at most `threads` jobs concurrently (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        WorkerPool {
            threads: threads.max(1),
        }
    }

    /// A pool sized to [`std::thread::available_parallelism`] (1 if the
    /// parallelism cannot be determined).
    pub fn from_available_parallelism() -> Self {
        let threads = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        WorkerPool::new(threads)
    }

    /// Configured pool width.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(0) … f(jobs − 1)` across the pool and returns the results
    /// in job order. Blocks until every job has finished. With a width-1
    /// pool or a single job, runs inline on the calling thread in index
    /// order (no threads spawned).
    ///
    /// # Panics
    ///
    /// A panicking job aborts the batch: the panic is propagated to the
    /// caller once the scope joins (remaining queued jobs are not started
    /// by the panicking worker; other workers finish the job they hold).
    pub fn run<T, F>(&self, jobs: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let workers = self.threads.min(jobs);
        if workers <= 1 {
            return (0..jobs).map(f).collect();
        }
        let next = AtomicUsize::new(0);
        let results: Vec<Mutex<Option<T>>> = (0..jobs).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let job = next.fetch_add(1, Ordering::Relaxed);
                    if job >= jobs {
                        return;
                    }
                    let out = f(job);
                    *results[job].lock().expect("result slot poisoned") = Some(out);
                });
            }
        });
        results
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("every job index below `jobs` is executed")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn empty_and_single_job_batches() {
        let pool = WorkerPool::new(4);
        let none: Vec<usize> = pool.run(0, |i| i);
        assert!(none.is_empty());
        assert_eq!(pool.run(1, |i| i + 10), vec![10]);
    }

    #[test]
    fn results_arrive_in_job_order() {
        let pool = WorkerPool::new(3);
        // Uneven job durations scramble completion order; results must
        // still come back by index.
        let out = pool.run(17, |i| {
            if i % 3 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            i * 7
        });
        assert_eq!(out, (0..17).map(|i| i * 7).collect::<Vec<_>>());
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let pool = WorkerPool::new(5);
        let count = AtomicUsize::new(0);
        let ids = pool.run(32, |i| {
            count.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(count.load(Ordering::Relaxed), 32);
        assert_eq!(ids.iter().copied().collect::<HashSet<_>>().len(), 32);
    }

    #[test]
    fn width_clamps_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.run(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn default_pool_matches_machine() {
        assert!(WorkerPool::default().threads() >= 1);
    }
}
