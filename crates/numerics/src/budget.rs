//! The solve control plane: cooperative cancellation and wall-clock
//! deadlines shared by every iterative solver in the workspace.
//!
//! A [`SolveBudget`] is an immutable bundle of limits a caller attaches
//! to a solve: an optional [`CancelToken`] (flip it from any thread and
//! every solver sharing it stops at its next check point), an optional
//! deadline, and an optional progress callback. The solvers — Newton's
//! iteration and damping loops, the GMRES inner loops, and everything
//! stacked on them — poll the budget at loop boundaries, so
//! interruption is *cooperative*: a solve is never torn down
//! mid-factorisation, its workspace is never poisoned, and an
//! interrupted call returns a typed [`SolveInterrupted`] describing how
//! far it got, never a panic.
//!
//! Budgets are cheap to clone and [`SolveBudget::child`] fans one out
//! across concurrent sub-solves: children share the parent's cancel flag
//! and deadline, so one cancel stops a whole batch promptly.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shared cancellation flag. Cloning yields a handle to the *same*
/// flag: cancel any clone and every solve budgeted on it interrupts at
/// its next check point.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Why a solve was interrupted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterruptReason {
    /// The budget's [`CancelToken`] was cancelled.
    Cancelled,
    /// The budget's wall-clock deadline passed.
    DeadlineExpired,
}

impl InterruptReason {
    /// Stable lowercase label (wire protocols, logs).
    pub fn label(&self) -> &'static str {
        match self {
            InterruptReason::Cancelled => "cancelled",
            InterruptReason::DeadlineExpired => "deadline_expired",
        }
    }
}

impl fmt::Display for InterruptReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The typed outcome of an interrupted solve: what stopped it and how
/// far it had come. Carried inside
/// [`NumericsError::Interrupted`](crate::NumericsError::Interrupted)
/// (and the circuit layer's mirror variant) so callers can distinguish
/// "told to stop" from "failed to converge".
#[derive(Debug, Clone, PartialEq)]
pub struct SolveInterrupted {
    /// What fired.
    pub reason: InterruptReason,
    /// Iterations completed before the interruption.
    pub iterations: usize,
    /// Best residual norm seen (infinite if none was computed yet).
    pub best_residual: f64,
    /// Wall-clock time spent in the solve.
    pub elapsed: Duration,
}

impl fmt::Display for SolveInterrupted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "solve interrupted ({}) after {} iterations, best residual {:.3e}, {:.1} ms",
            self.reason,
            self.iterations,
            self.best_residual,
            self.elapsed.as_secs_f64() * 1e3,
        )
    }
}

/// A progress snapshot handed to [`SolveBudget::observed`] callbacks
/// once per outer (Newton) iteration.
#[derive(Debug, Clone, Copy)]
pub struct SolveProgress {
    /// Outer iterations completed so far.
    pub iteration: usize,
    /// Residual norm of the latest iteration.
    pub residual: f64,
    /// Best residual norm seen so far.
    pub best_residual: f64,
    /// Wall-clock time since the solve started.
    pub elapsed: Duration,
    /// The stage label the solve is running under
    /// ([`SolveBudget::with_stage`]) — e.g. a recovery-ladder rung name.
    pub stage: Option<&'static str>,
}

type ProgressFn = dyn Fn(&SolveProgress) + Send + Sync;

/// Limits on one solve (or one fanned-out batch of solves): cancel
/// token, deadline, progress callback — all optional, all off in
/// [`SolveBudget::unlimited`]. See the module docs.
#[derive(Clone, Default)]
pub struct SolveBudget {
    cancel: Option<CancelToken>,
    deadline: Option<Instant>,
    progress: Option<Arc<ProgressFn>>,
    stage: Option<&'static str>,
}

impl fmt::Debug for SolveBudget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SolveBudget")
            .field("cancel", &self.cancel.is_some())
            .field("deadline", &self.deadline)
            .field("progress", &self.progress.is_some())
            .finish()
    }
}

impl SolveBudget {
    /// A budget with every limit off — the default every non-budgeted
    /// entry point delegates with. Checking it is (nearly) free.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Attaches a cancellation token.
    #[must_use]
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Sets a deadline `timeout` from now.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.deadline = Some(Instant::now() + timeout);
        self
    }

    /// Registers a progress callback, invoked once per outer iteration
    /// of a budgeted Newton solve. Keep it cheap: it runs on the solver
    /// thread. It runs *in addition to* any callback already installed
    /// (both run, existing first), so a service layer can watch a solve
    /// without severing a caller's own progress plumbing.
    #[must_use]
    pub fn observed(mut self, f: impl Fn(&SolveProgress) + Send + Sync + 'static) -> Self {
        self.progress = Some(match self.progress.take() {
            Some(prev) => Arc::new(move |p: &SolveProgress| {
                prev(p);
                f(p);
            }),
            None => Arc::new(f),
        });
        self
    }

    /// Labels the stage this budget's solves run under — a recovery-
    /// ladder rung name, a continuation phase. The label rides along on
    /// every [`SolveProgress`] snapshot so one progress callback can
    /// distinguish which rung is reporting. Children inherit it until
    /// re-labelled.
    #[must_use]
    pub fn with_stage(mut self, stage: &'static str) -> Self {
        self.stage = Some(stage);
        self
    }

    /// The stage label, if any.
    pub fn stage(&self) -> Option<&'static str> {
        self.stage
    }

    /// Emits one zero-iteration progress snapshot carrying the current
    /// stage label — a *stage announcement*. Recovery drivers call this
    /// on rung entry so observers (timelines, `poll` progress) see the
    /// transition even when the rung fails before completing a single
    /// iteration. No-op without a progress callback.
    pub fn announce_stage(&self) {
        if let Some(progress) = &self.progress {
            progress(&SolveProgress {
                iteration: 0,
                residual: f64::INFINITY,
                best_residual: f64::INFINITY,
                elapsed: Duration::ZERO,
                stage: self.stage,
            });
        }
    }

    /// A child budget for one sub-solve of a fanned-out batch: shares
    /// the parent's cancel flag, deadline, progress callback and stage,
    /// so cancelling the parent stops every child promptly.
    #[must_use]
    pub fn child(&self) -> Self {
        self.clone()
    }

    /// Whether every limit is off (checks are then skipped wholesale).
    pub fn is_unlimited(&self) -> bool {
        self.cancel.is_none() && self.deadline.is_none() && self.progress.is_none()
    }

    /// The stateless cancel/deadline check used by inner (Krylov) loops,
    /// which track their own iteration counts: `Some` describes the
    /// interruption, `None` means keep going.
    pub fn interruption(
        &self,
        start: Instant,
        iterations: usize,
        best_residual: f64,
    ) -> Option<SolveInterrupted> {
        let reason = if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            InterruptReason::Cancelled
        } else if self.deadline.is_some_and(|d| Instant::now() >= d) {
            InterruptReason::DeadlineExpired
        } else {
            return None;
        };
        Some(SolveInterrupted {
            reason,
            iterations,
            best_residual,
            elapsed: start.elapsed(),
        })
    }

    /// Starts the per-solve clock and iteration meter.
    pub fn meter(&self) -> BudgetMeter {
        BudgetMeter {
            budget: self.clone(),
            start: Instant::now(),
            iterations: 0,
            best_residual: f64::INFINITY,
        }
    }
}

/// Per-solve mutable state over a [`SolveBudget`]: the wall clock, the
/// outer-iteration count and the best residual.
/// One meter per outer (Newton) solve; inner loops use the stateless
/// [`SolveBudget::interruption`] instead.
#[derive(Debug, Clone)]
pub struct BudgetMeter {
    budget: SolveBudget,
    start: Instant,
    iterations: usize,
    best_residual: f64,
}

impl BudgetMeter {
    /// Cheap cancel/deadline check for loop tops and damping
    /// (line-search) trials.
    ///
    /// # Errors
    ///
    /// The interruption, if the token was cancelled or the deadline
    /// passed.
    pub fn check(&self) -> Result<(), SolveInterrupted> {
        if self.budget.is_unlimited() {
            return Ok(());
        }
        match self
            .budget
            .interruption(self.start, self.iterations, self.best_residual)
        {
            Some(i) => Err(i),
            None => Ok(()),
        }
    }

    /// Records one completed outer iteration ending at `residual`:
    /// updates the best residual, emits progress, then checks every
    /// limit.
    ///
    /// # Errors
    ///
    /// The interruption, if cancelled or past deadline.
    pub fn note_iteration(&mut self, residual: f64) -> Result<(), SolveInterrupted> {
        self.iterations += 1;
        if residual < self.best_residual {
            self.best_residual = residual;
        }
        if self.budget.is_unlimited() {
            return Ok(());
        }
        if let Some(progress) = &self.budget.progress {
            progress(&SolveProgress {
                iteration: self.iterations,
                residual,
                best_residual: self.best_residual,
                elapsed: self.start.elapsed(),
                stage: self.budget.stage,
            });
        }
        self.check()
    }

    /// Builds the typed outcome for `reason` from the meter's current
    /// state — used by solvers that detect an interruption out-of-band
    /// (e.g. one bubbled up from an inner linear solve) and want to
    /// report it with outer-iteration context.
    pub fn interrupt(&self, reason: InterruptReason) -> SolveInterrupted {
        SolveInterrupted {
            reason,
            iterations: self.iterations,
            best_residual: self.best_residual,
            elapsed: self.start.elapsed(),
        }
    }

    /// Outer iterations recorded so far.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Best residual recorded so far (infinite before the first
    /// [`BudgetMeter::note_iteration`]).
    pub fn best_residual(&self) -> f64 {
        self.best_residual
    }

    /// Wall-clock time since the meter started.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_interrupts() {
        let budget = SolveBudget::unlimited();
        assert!(budget.is_unlimited());
        let mut meter = budget.meter();
        for i in 0..10_000 {
            assert!(meter.check().is_ok());
            assert!(meter.note_iteration(1.0 + i as f64).is_ok());
        }
        assert_eq!(meter.iterations(), 10_000);
    }

    #[test]
    fn cancel_token_is_shared_across_clones_and_children() {
        let token = CancelToken::new();
        let budget = SolveBudget::unlimited().with_cancel(token.clone());
        let child = budget.child();
        let meter = child.meter();
        assert!(meter.check().is_ok());
        token.cancel();
        let err = meter.check().expect_err("cancelled");
        assert_eq!(err.reason, InterruptReason::Cancelled);
        let err = budget.meter().check().expect_err("parent cancelled too");
        assert_eq!(err.reason, InterruptReason::Cancelled);
    }

    #[test]
    fn deadline_expires() {
        let budget = SolveBudget::unlimited().with_timeout(Duration::from_millis(0));
        let meter = budget.meter();
        std::thread::sleep(Duration::from_millis(2));
        let err = meter.check().expect_err("expired");
        assert_eq!(err.reason, InterruptReason::DeadlineExpired);
        assert!(err.elapsed >= Duration::from_millis(1));
    }

    #[test]
    fn progress_callback_sees_every_iteration() {
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let budget = SolveBudget::unlimited()
            .observed(move |p| sink.lock().unwrap().push((p.iteration, p.residual)));
        let mut meter = budget.meter();
        meter.note_iteration(2.0).unwrap();
        meter.note_iteration(1.0).unwrap();
        assert_eq!(*seen.lock().unwrap(), vec![(1, 2.0), (2, 1.0)]);
    }

    #[test]
    fn observed_chains_instead_of_replacing() {
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        let (first, second) = (Arc::clone(&seen), Arc::clone(&seen));
        let budget = SolveBudget::unlimited()
            .observed(move |p| first.lock().unwrap().push(("a", p.iteration)))
            .observed(move |p| second.lock().unwrap().push(("b", p.iteration)));
        let mut meter = budget.meter();
        meter.note_iteration(1.0).unwrap();
        assert_eq!(*seen.lock().unwrap(), vec![("a", 1), ("b", 1)]);
    }

    #[test]
    fn stage_label_rides_on_progress_and_survives_children() {
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let budget = SolveBudget::unlimited()
            .observed(move |p| sink.lock().unwrap().push(p.stage))
            .with_stage("gmin_stepping");
        assert_eq!(budget.stage(), Some("gmin_stepping"));
        let child = budget.child();
        let mut meter = child.meter();
        meter.note_iteration(1.0).unwrap();
        // Re-labelling a child does not disturb the parent.
        let relabelled = budget.child().with_stage("source_stepping");
        let mut meter = relabelled.meter();
        meter.note_iteration(0.5).unwrap();
        assert_eq!(
            *seen.lock().unwrap(),
            vec![Some("gmin_stepping"), Some("source_stepping")]
        );
        assert_eq!(budget.stage(), Some("gmin_stepping"));
    }

    #[test]
    fn announce_stage_emits_a_zero_iteration_snapshot() {
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let budget = SolveBudget::unlimited()
            .observed(move |p| sink.lock().unwrap().push((p.iteration, p.stage)))
            .with_stage("gmin_stepping");
        budget.announce_stage();
        // Without a callback it is a no-op, not a panic.
        SolveBudget::unlimited().announce_stage();
        assert_eq!(*seen.lock().unwrap(), vec![(0, Some("gmin_stepping"))]);
    }

    #[test]
    fn interrupted_display_is_informative() {
        let i = SolveInterrupted {
            reason: InterruptReason::DeadlineExpired,
            iterations: 12,
            best_residual: 3.4e-2,
            elapsed: Duration::from_millis(250),
        };
        let s = i.to_string();
        assert!(s.contains("deadline_expired"));
        assert!(s.contains("12"));
    }
}
