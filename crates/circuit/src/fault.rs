//! Deterministic fault injection for robustness testing.
//!
//! A [`SolveFault`] makes a solve misbehave *on command* — stall
//! indefinitely, diverge, or panic — so the layers above (sweep engine,
//! serve scheduler) can prove their control plane works: cooperative
//! cancellation interrupts a hung solve, deadlines reclaim scheduler
//! slots, a diverging solve settles with its typed failure, and a
//! panicking solve fails one batch instead of a whole service.
//!
//! The faults are not mocks: [`SolveFault::run`] executes a genuine
//! budgeted Newton solve ([`newton_solve_budgeted`]) over a tiny
//! synthetic [`NewtonSystem`] engineered to exhibit the failure mode,
//! so the exact production code paths — the iteration loop, the damping
//! trials, the budget check points — are what the tests exercise.
//!
//! This module exists for tests and operational drills. Production job
//! paths never construct faults; wiring one into a real workload only
//! makes that workload fail, never corrupts a result.

use std::time::Duration;

use rfsim_numerics::sparse::Triplets;
use rfsim_numerics::SolveBudget;

use crate::newton::{newton_solve_budgeted, LinearSolverWorkspace, NewtonOptions, NewtonSystem};
use crate::Result;

/// What the injected solve does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// Every residual evaluation sleeps `poll_ms` and never converges:
    /// a hung solve that burns wall-clock until its budget interrupts
    /// it — or until the `max_ms` safety bound converts it into a
    /// plain convergence failure, so a buggy harness can never deadlock
    /// a test run forever.
    Stall {
        /// Sleep per residual evaluation (milliseconds).
        poll_ms: u64,
        /// Hard wall-clock bound on the stall (milliseconds).
        max_ms: u64,
    },
    /// The residual is finite only at the seed point: Newton's first
    /// step finds no finite damping trial and fails at once with the
    /// typed [`crate::CircuitError::Diverged`], the recovery ladder's
    /// rung signal.
    Diverge,
    /// Panics on the first residual evaluation — exercises the
    /// scheduler's `catch_unwind` isolation.
    Panic,
}

/// A deterministic injected fault; see the module docs. Cheap to clone
/// and attach per job; it fires on every run.
#[derive(Debug, Clone)]
pub struct SolveFault {
    mode: FaultMode,
}

impl SolveFault {
    /// A stalling fault: hangs (sleeping `poll_ms` per residual
    /// evaluation) until the budget interrupts it or `max_ms` elapses.
    pub fn stall(poll_ms: u64, max_ms: u64) -> Self {
        SolveFault {
            mode: FaultMode::Stall { poll_ms, max_ms },
        }
    }

    /// A diverging fault: fails quickly with a convergence error.
    pub fn diverge() -> Self {
        SolveFault {
            mode: FaultMode::Diverge,
        }
    }

    /// A panicking fault.
    pub fn panicking() -> Self {
        SolveFault {
            mode: FaultMode::Panic,
        }
    }

    /// Runs the injected solve under `budget`.
    ///
    /// # Errors
    ///
    /// [`crate::CircuitError::Interrupted`] when the budget stops a
    /// stall, [`crate::CircuitError::ConvergenceFailure`] when a stall
    /// runs to its safety bound, [`crate::CircuitError::Diverged`] when
    /// the diverge fault fires.
    ///
    /// # Panics
    ///
    /// By design, for [`FaultMode::Panic`].
    pub fn run(&self, budget: &SolveBudget) -> Result<()> {
        match self.mode {
            FaultMode::Stall { poll_ms, max_ms } => {
                let system = StallSystem { poll_ms };
                // Never converges; the iteration budget is sized so the
                // safety bound trips at roughly `max_ms` even if the
                // solve budget never fires. Each iteration costs at
                // least one residual evaluation (`poll_ms` of sleep).
                let options = NewtonOptions {
                    max_iters: (max_ms / poll_ms.max(1)).max(1) as usize,
                    ..Default::default()
                };
                let mut workspace = LinearSolverWorkspace::new();
                newton_solve_budgeted(&system, &[0.0], &[], options, &mut workspace, budget)
                    .map(|_| ())
            }
            FaultMode::Diverge => {
                let system = DivergeSystem;
                let options = NewtonOptions {
                    max_iters: 8,
                    ..Default::default()
                };
                let mut workspace = LinearSolverWorkspace::new();
                newton_solve_budgeted(&system, &[1.0], &[], options, &mut workspace, budget)
                    .map(|_| ())
            }
            FaultMode::Panic => panic!("injected fault: panic on solve"),
        }
    }
}

/// `F(x) = 1` with a unit Jacobian: the residual never drops, every
/// damping trial fails, and each evaluation sleeps — a faithful model of
/// a solve that is alive but going nowhere.
struct StallSystem {
    poll_ms: u64,
}

impl NewtonSystem for StallSystem {
    fn dim(&self) -> usize {
        1
    }

    fn residual(&self, _x: &[f64], out: &mut [f64]) {
        std::thread::sleep(Duration::from_millis(self.poll_ms));
        out[0] = 1.0;
    }

    fn residual_and_jacobian(&self, x: &[f64], out: &mut [f64], jac: &mut Triplets) {
        self.residual(x, out);
        jac.push(0, 0, 1.0);
    }
}

/// Finite residual only at the seed point: the first Newton step's
/// damping trials are all non-finite, so the solve returns the typed
/// [`crate::CircuitError::Diverged`] immediately. The fault models
/// *divergence* (the recovery ladder's rung signal), not mere iteration
/// exhaustion — drills assert the typed outcome survives all the way to
/// a wire poll.
struct DivergeSystem;

impl NewtonSystem for DivergeSystem {
    fn dim(&self) -> usize {
        1
    }

    fn residual(&self, x: &[f64], out: &mut [f64]) {
        out[0] = if x[0] == 1.0 { 1.0 } else { f64::NAN };
    }

    fn residual_and_jacobian(&self, x: &[f64], out: &mut [f64], jac: &mut Triplets) {
        self.residual(x, out);
        jac.push(0, 0, 1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfsim_numerics::{CancelToken, InterruptReason};
    use std::time::Instant;

    #[test]
    fn stall_fault_is_interrupted_by_cancel() {
        let token = CancelToken::new();
        let budget = SolveBudget::unlimited().with_cancel(token.clone());
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            token.cancel();
        });
        let t0 = Instant::now();
        let err = SolveFault::stall(2, 30_000)
            .run(&budget)
            .expect_err("stall must not converge");
        canceller.join().unwrap();
        let i = err.interrupted().expect("typed interruption");
        assert_eq!(i.reason, InterruptReason::Cancelled);
        // Cancellation latency is bounded by one residual evaluation,
        // not the 30 s safety bound.
        assert!(t0.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn stall_fault_expires_on_deadline() {
        let budget = SolveBudget::unlimited().with_timeout(Duration::from_millis(20));
        let err = SolveFault::stall(2, 30_000)
            .run(&budget)
            .expect_err("stall must not converge");
        assert_eq!(
            err.interrupted().expect("typed interruption").reason,
            InterruptReason::DeadlineExpired
        );
    }

    #[test]
    fn stall_fault_safety_bound_fails_without_budget() {
        let err = SolveFault::stall(1, 30)
            .run(&SolveBudget::unlimited())
            .expect_err("stall must not converge");
        assert!(err.interrupted().is_none(), "no budget fired: {err}");
    }

    #[test]
    fn diverge_fault_fails_fast_with_the_typed_outcome() {
        let err = SolveFault::diverge()
            .run(&SolveBudget::unlimited())
            .expect_err("diverge must fail");
        assert!(err.interrupted().is_none());
        assert!(
            matches!(err, crate::CircuitError::Diverged { .. }),
            "the diverge fault reports typed divergence, got {err:?}"
        );
    }

    #[test]
    #[should_panic(expected = "injected fault")]
    fn panic_fault_panics() {
        let _ = SolveFault::panicking().run(&SolveBudget::unlimited());
    }
}
