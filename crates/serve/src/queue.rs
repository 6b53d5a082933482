//! The bounded priority admission queue.
//!
//! Jobs wait here between `submit` and dispatch. Ordering is priority
//! first, submission order within a priority (no starvation inversions
//! from heap ties), and the bound is the service's backpressure valve: a
//! full queue rejects the submit with [`ServeError::QueueFull`] instead
//! of buffering unboundedly — the client retries, the daemon's memory
//! stays flat.

use std::collections::BinaryHeap;
use std::sync::Arc;

use rfsim_rf::key::JobKey;

use crate::error::ServeError;
use crate::spec::{FamilyFn, JobSpec};

/// A job waiting for dispatch.
pub struct QueuedJob {
    /// The canonical spec to execute.
    pub spec: JobSpec,
    /// The solution-store identity computed at submit time.
    pub key: JobKey,
    /// The family builder captured at submit time (so a later
    /// re-registration cannot change what this job solves).
    pub builder: Arc<FamilyFn>,
    /// The family's registration epoch at submit time (folded into
    /// `key`). The scheduler stores this job's result only if the epoch
    /// still matches at completion: a job solved by a builder that was
    /// replaced or retired while it ran must not repopulate the store.
    pub epoch: u64,
    /// Admission sequence number (FIFO within a priority).
    pub seq: u64,
}

impl std::fmt::Debug for QueuedJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueuedJob")
            .field("key", &self.key)
            .field("seq", &self.seq)
            .field("spec", &self.spec)
            .finish()
    }
}

impl PartialEq for QueuedJob {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}

impl Eq for QueuedJob {}

impl Ord for QueuedJob {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap: higher priority wins; older submission wins ties.
        (self.spec.priority, std::cmp::Reverse(self.seq))
            .cmp(&(other.spec.priority, std::cmp::Reverse(other.seq)))
    }
}

impl PartialOrd for QueuedJob {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A bounded max-priority queue of [`QueuedJob`]s.
///
/// Priority escalation (a higher-priority submit coalescing onto a queued
/// key) works by pushing a *superseding* entry, since a binary heap cannot
/// reprioritise in place; the old entry becomes stale and is dropped by
/// the scheduler when popped. Stale entries are tracked here so both the
/// backpressure bound and [`JobQueue::len`] count *live* executions, not
/// heap slots.
#[derive(Debug)]
pub struct JobQueue {
    heap: BinaryHeap<QueuedJob>,
    capacity: usize,
    /// Entries superseded by an escalated duplicate, still sitting in the
    /// heap until the scheduler pops and discards them.
    stale: usize,
}

impl JobQueue {
    /// A queue admitting at most `capacity` waiting jobs (clamped ≥ 1).
    pub fn new(capacity: usize) -> Self {
        JobQueue {
            heap: BinaryHeap::new(),
            capacity: capacity.max(1),
            stale: 0,
        }
    }

    /// The backpressure bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Live jobs currently waiting (stale superseded entries excluded).
    pub fn len(&self) -> usize {
        self.heap.len().saturating_sub(self.stale)
    }

    /// Whether no live job is waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Admits a job. `supersedes` marks this push as a priority
    /// escalation replacing an entry already in the heap (the pair then
    /// costs one slot, not two).
    ///
    /// # Errors
    ///
    /// [`ServeError::QueueFull`] when the bound is hit — the job is
    /// handed back untouched inside the error path, nothing is enqueued.
    pub fn push(&mut self, job: QueuedJob, supersedes: bool) -> Result<(), ServeError> {
        if !supersedes && self.len() >= self.capacity {
            return Err(ServeError::QueueFull {
                capacity: self.capacity,
            });
        }
        self.heap.push(job);
        if supersedes {
            self.stale += 1;
        }
        Ok(())
    }

    /// The highest-priority (oldest within priority) entry. The caller
    /// (scheduler) decides whether it is live or a stale duplicate; for a
    /// stale one it must call [`JobQueue::note_stale_dropped`].
    pub fn pop(&mut self) -> Option<QueuedJob> {
        let job = self.heap.pop();
        if self.heap.is_empty() {
            // Nothing left: any stale debt has been fully drained.
            self.stale = 0;
        }
        job
    }

    /// Records that a popped entry was a stale superseded duplicate.
    pub fn note_stale_dropped(&mut self) {
        self.stale = self.stale.saturating_sub(1);
    }

    /// Records that an entry still *in* the heap went stale out-of-band
    /// (its key was completed without a pop — a cancel before dispatch):
    /// the live count excludes it immediately, freeing its backpressure
    /// slot, and the scheduler pays the debt back with
    /// [`JobQueue::note_stale_dropped`] when it pops and discards it.
    pub fn note_stale_enqueued(&mut self) {
        self.stale += 1;
    }

    /// A look at what [`JobQueue::pop`] would return.
    pub fn peek(&self) -> Option<&QueuedJob> {
        self.heap.peek()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{FamilyRegistry, Priority};
    use rfsim_rf::key::Quantizer;

    fn job(seq: u64, priority: Priority) -> QueuedJob {
        let registry = FamilyRegistry::builtin();
        let mut spec = JobSpec::mpde("rc_lowpass", 1e6, vec![0.1], vec![10e3]);
        spec.priority = priority;
        let epoch = registry.epoch(&spec.family).expect("epoch");
        QueuedJob {
            builder: registry.builder(&spec.family).expect("builder"),
            key: spec.key(epoch, Quantizer::default()),
            spec,
            epoch,
            seq,
        }
    }

    #[test]
    fn orders_by_priority_then_fifo() {
        let mut q = JobQueue::new(8);
        q.push(job(0, Priority::Normal), false).expect("push");
        q.push(job(1, Priority::Low), false).expect("push");
        q.push(job(2, Priority::High), false).expect("push");
        q.push(job(3, Priority::Normal), false).expect("push");
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|j| j.seq)).collect();
        assert_eq!(order, vec![2, 0, 3, 1]);
    }

    #[test]
    fn backpressure_at_capacity() {
        let mut q = JobQueue::new(2);
        q.push(job(0, Priority::Normal), false).expect("push");
        q.push(job(1, Priority::Normal), false).expect("push");
        assert!(matches!(
            q.push(job(2, Priority::High), false),
            Err(ServeError::QueueFull { capacity: 2 })
        ));
        assert_eq!(q.len(), 2);
        q.pop().expect("pop");
        q.push(job(3, Priority::High), false).expect("room again");
        assert_eq!(q.peek().expect("peek").seq, 3);
        assert_eq!(q.pop().expect("pop").seq, 3);
        assert_eq!(q.pop().expect("pop").seq, 1);
        assert!(q.is_empty());
    }

    #[test]
    fn superseding_entries_do_not_consume_capacity() {
        let mut q = JobQueue::new(2);
        q.push(job(0, Priority::Low), false).expect("push");
        q.push(job(1, Priority::Normal), false).expect("push");
        // An escalation duplicate for seq-0's key rides above the bound…
        q.push(job(2, Priority::High), true).expect("escalation");
        // …and neither the live count nor backpressure see a third slot.
        assert_eq!(q.len(), 2);
        assert!(matches!(
            q.push(job(3, Priority::Normal), false),
            Err(ServeError::QueueFull { .. })
        ));
        // Scheduler pops the escalated entry, dispatches it, then drops
        // the stale original.
        assert_eq!(q.pop().expect("pop").seq, 2);
        assert_eq!(q.pop().expect("pop").seq, 1);
        let stale = q.pop().expect("stale original");
        assert_eq!(stale.seq, 0);
        q.note_stale_dropped();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }
}
