//! The Newton recovery ladder: one convergence policy for every backend.
//!
//! The paper's convergence story has two rungs — "Newton-Raphson …
//! converged in 26 iterations; when it did not converge, continuation
//! reliably obtained solutions" (Roychowdhury, DAC 2002). A backend
//! states its ladder as plain code: its first attempt is a direct
//! [`newton_solve_budgeted`](crate::newton::newton_solve_budgeted) call
//! (or, for a sweep point, the backend's whole solve), and each fallback
//! rung is one [`fall_back`] call chained onto the result:
//!
//! ```text
//!   first attempt (unstaged: progress reports stage None, read as `plain`)
//!        │
//!        ▼
//!   fall_back(attempt, GminStepping | SourceStepping | Continuation |
//!             RetryUnseeded, workspace, budget, rung)
//!        │ Ok, Interrupted, Structural, … ─────────▶ passed through
//!        │ recoverable error
//!        ▼
//!   rung(workspace, budget.child().with_stage(kind.label()))
//!        │ announced on entry; rung_attempts += 1
//!        ▼
//!   Ok ──▶ rung_successes += 1        Err ──▶ the rung's own typed error
//! ```
//!
//! Every rung runs on the caller's [`LinearSolverWorkspace`] (the
//! Jacobian pattern is rung-invariant, so symbolic factorisations survive
//! rung transitions) under a budget child whose
//! [`stage`](rfsim_numerics::SolveProgress::stage) label names the rung,
//! so a progress callback installed upstream (the serve layer's per-job
//! observer) sees `{rung, iteration, best_residual}` without any extra
//! plumbing.
//!
//! Error classification is the ladder's contract (see
//! [`CircuitError::is_recoverable`](crate::CircuitError::is_recoverable)):
//! divergence ([`CircuitError::Diverged`](crate::CircuitError::Diverged)),
//! iteration exhaustion and singular kernels feed the next rung; budget
//! interruptions and structural / parameter errors pass every rung
//! untouched — no rung can fix a deadline or a floating node.

use rfsim_numerics::SolveBudget;

use crate::newton::{LinearSolver, LinearSolverWorkspace, NewtonOptions};
use crate::Result;

/// Identity of one recovery-ladder rung. The label is stable (wire
/// protocols, logs, progress snapshots).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RungKind {
    /// The first attempt: plain budgeted Newton (damping and
    /// backtracking included). It runs unstaged, and an unstaged solve's
    /// progress reports this label.
    Plain,
    /// Gmin stepping: a shrinking shunt conductance to ground.
    GminStepping,
    /// Source stepping: ramping the excitation from zero.
    SourceStepping,
    /// Continuation / homotopy: ramping a problem-specific λ.
    Continuation,
    /// Retrying without the warm-start seed that poisoned the basin.
    RetryUnseeded,
}

impl RungKind {
    /// Stable lowercase label, used as the budget stage and on the wire.
    pub fn label(&self) -> &'static str {
        match self {
            RungKind::Plain => "plain",
            RungKind::GminStepping => "gmin_stepping",
            RungKind::SourceStepping => "source_stepping",
            RungKind::Continuation => "continuation",
            RungKind::RetryUnseeded => "retry_unseeded",
        }
    }
}

/// Named Newton option profiles — the per-backend `NewtonOptions` forks,
/// consolidated. A backend asks for its profile instead of hand-editing
/// iteration counts; anything not listed here is policy drift.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NewtonProfile {
    /// DC operating point: junction exponentials converge one thermal
    /// voltage per iteration until the quadratic regime, so DC gets a
    /// deep budget (iterations are cheap at circuit size).
    Dc,
    /// Steady-state boundary-value solves (HB2, periodic FD): the
    /// collocation systems are larger and stiffer than one timestep but
    /// warm-started by sweeps — a doubled budget.
    SteadyState,
    /// Large multi-time grid solves (MPDE): default depth, the
    /// [`LinearSolver::Auto`] size policy (GMRES + block-Jacobi on grids
    /// of 8 000 unknowns and more, direct LU below) and chord
    /// (modified-Newton) reuse of direct factors, which on the smaller
    /// grids are the dominant cost.
    Grid,
    /// Continuation inner steps: each λ step starts near the previous
    /// solution, so a short budget fails fast and lets the step-halving
    /// logic react.
    ContinuationStep,
    /// Everything else (transient timesteps, shooting): the
    /// [`NewtonOptions`] defaults.
    Standard,
}

impl NewtonProfile {
    /// The profile's options.
    pub fn options(self) -> NewtonOptions {
        match self {
            NewtonProfile::Dc => NewtonOptions {
                max_iters: 500,
                ..Default::default()
            },
            NewtonProfile::SteadyState => NewtonOptions {
                max_iters: 200,
                ..Default::default()
            },
            NewtonProfile::Grid => NewtonOptions {
                linear: LinearSolver::Auto,
                jacobian_reuse: 2,
                ..Default::default()
            },
            NewtonProfile::ContinuationStep => NewtonOptions {
                max_iters: 60,
                ..Default::default()
            },
            NewtonProfile::Standard => NewtonOptions::default(),
        }
    }
}

/// Runs fallback rung `kind` when `attempt` failed recoverably
/// ([`CircuitError::is_recoverable`](crate::CircuitError::is_recoverable)),
/// and passes a success, an interruption or a structural error through
/// untouched.
///
/// The rung runs on `workspace` under `budget.child()` staged with the
/// rung's label, announced on entry
/// ([`SolveBudget::announce_stage`]) so progress observers see the
/// transition even if the rung fails before its first iteration. Entry
/// adds 1 to [`WorkspaceStats::rung_attempts`], a delivered value 1 to
/// [`WorkspaceStats::rung_successes`]. Chained calls state a whole
/// ladder; with every rung exhausted the last rung's typed error comes
/// back (a diverged plain solve followed by a diverged stepping rung
/// reports `Diverged`, never a synthetic `ConvergenceFailure`).
///
/// [`WorkspaceStats::rung_attempts`]: crate::newton::WorkspaceStats::rung_attempts
/// [`WorkspaceStats::rung_successes`]: crate::newton::WorkspaceStats::rung_successes
///
/// # Errors
///
/// `attempt`'s error when it is not recoverable, otherwise the rung's.
pub fn fall_back<T>(
    attempt: Result<T>,
    kind: RungKind,
    workspace: &mut LinearSolverWorkspace,
    budget: &SolveBudget,
    rung: impl FnOnce(&mut LinearSolverWorkspace, &SolveBudget) -> Result<T>,
) -> Result<T> {
    match attempt {
        Err(e) if e.is_recoverable() => {}
        settled => return settled,
    }
    workspace.stats.rung_attempts += 1;
    let staged = budget.child().with_stage(kind.label());
    staged.announce_stage();
    let value = rung(workspace, &staged)?;
    workspace.stats.rung_successes += 1;
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CircuitError;
    use crate::newton::{newton_solve_budgeted, NewtonStats, NewtonSystem};
    use rfsim_numerics::sparse::Triplets;
    use std::sync::{Arc, Mutex};

    /// x² − 4 = 0: converges from any positive start.
    struct Quadratic;

    impl NewtonSystem for Quadratic {
        fn dim(&self) -> usize {
            1
        }
        fn residual(&self, x: &[f64], out: &mut [f64]) {
            out[0] = x[0] * x[0] - 4.0;
        }
        fn residual_and_jacobian(&self, x: &[f64], out: &mut [f64], jac: &mut Triplets) {
            self.residual(x, out);
            jac.push(0, 0, 2.0 * x[0]);
        }
    }

    /// Finite residual only at the start: plain Newton diverges (typed).
    struct NaNRidge;

    impl NewtonSystem for NaNRidge {
        fn dim(&self) -> usize {
            1
        }
        fn residual(&self, x: &[f64], out: &mut [f64]) {
            out[0] = if x[0] == 0.0 { 1.0 } else { f64::NAN };
        }
        fn residual_and_jacobian(&self, x: &[f64], out: &mut [f64], jac: &mut Triplets) {
            self.residual(x, out);
            jac.push(0, 0, 1.0);
        }
    }

    /// One standard-profile Newton solve of `system` from `x0`.
    fn newton<S: NewtonSystem>(
        system: &S,
        x0: &[f64],
        ws: &mut LinearSolverWorkspace,
        budget: &SolveBudget,
    ) -> Result<(Vec<f64>, NewtonStats)> {
        newton_solve_budgeted(system, x0, &[], NewtonOptions::default(), ws, budget)
    }

    #[test]
    fn easy_fixture_is_bit_identical_across_ladder_configs() {
        // However many fallbacks are chained, a first attempt that
        // converges delivers the *same bits* and runs no rung.
        let budget = SolveBudget::unlimited();
        let mut reference: Option<Vec<f64>> = None;
        for extra in 0..3usize {
            let mut ws = LinearSolverWorkspace::new();
            let mut solved = newton(&Quadratic, &[3.0], &mut ws, &budget);
            for kind in [RungKind::GminStepping, RungKind::SourceStepping]
                .into_iter()
                .take(extra)
            {
                solved = fall_back(solved, kind, &mut ws, &budget, |_, _| {
                    panic!("an unused fallback rung must never run")
                });
            }
            let solution = solved.expect("the first attempt converges").0;
            assert_eq!(ws.stats.rung_attempts, 0);
            assert_eq!(ws.stats.rung_successes, 0);
            match &reference {
                None => reference = Some(solution),
                Some(r) => assert_eq!(
                    r.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    solution.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "ladder config {extra} drifted"
                ),
            }
        }
    }

    #[test]
    fn hard_fixture_climbs_to_the_next_rung_on_divergence() {
        // Plain Newton on the NaN ridge diverges (typed, immediately);
        // the continuation rung then solves a benign reformulation. The
        // ladder must deliver the rung's solution, and the counters must
        // show one rung entered and one rescue.
        let budget = SolveBudget::unlimited();
        let mut ws = LinearSolverWorkspace::new();
        let plain = newton(&NaNRidge, &[0.0], &mut ws, &budget);
        let (x, _) = fall_back(plain, RungKind::Continuation, &mut ws, &budget, |ws, b| {
            newton(&Quadratic, &[3.0], ws, b)
        })
        .expect("the fallback rescues");
        assert_eq!(ws.stats.rung_attempts, 1);
        assert_eq!(ws.stats.rung_successes, 1);
        assert!((x[0] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn exhausted_ladder_returns_the_typed_divergence() {
        // Both attempts diverge: the caller sees `Diverged`, not a
        // synthetic ConvergenceFailure after max_iters of NaN.
        let budget = SolveBudget::unlimited();
        let mut ws = LinearSolverWorkspace::new();
        let plain = newton(&NaNRidge, &[0.0], &mut ws, &budget);
        let err = fall_back(plain, RungKind::GminStepping, &mut ws, &budget, |ws, b| {
            newton(&NaNRidge, &[0.0], ws, b)
        })
        .expect_err("no rung can solve the ridge");
        assert!(matches!(err, CircuitError::Diverged { .. }), "got {err:?}");
        assert_eq!(ws.stats.rung_attempts, 1);
        assert_eq!(ws.stats.rung_successes, 0);
    }

    #[test]
    fn interruption_short_circuits_remaining_rungs() {
        let token = rfsim_numerics::CancelToken::new();
        token.cancel();
        let budget = SolveBudget::unlimited().with_cancel(token);
        let mut ws = LinearSolverWorkspace::new();
        let plain = newton(&Quadratic, &[3.0], &mut ws, &budget);
        let err = fall_back(plain, RungKind::GminStepping, &mut ws, &budget, |_, _| {
            panic!("rungs after an interruption must not run")
        })
        .expect_err("pre-cancelled");
        assert!(err.is_interrupted());
        assert_eq!(ws.stats.rung_attempts, 0);
    }

    #[test]
    fn progress_snapshots_carry_the_rung_label() {
        // A fallback rung's budget child is staged with the rung label,
        // so an upstream progress observer (the serve layer) sees which
        // rung is reporting without extra plumbing.
        let stages = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&stages);
        let budget = SolveBudget::unlimited().observed(move |p| sink.lock().unwrap().push(p.stage));
        let mut ws = LinearSolverWorkspace::new();
        let plain = newton(&NaNRidge, &[0.0], &mut ws, &budget);
        fall_back(
            plain,
            RungKind::SourceStepping,
            &mut ws,
            &budget,
            |ws, b| newton(&Quadratic, &[3.0], ws, b),
        )
        .expect("the fallback rescues");
        let stages = stages.lock().unwrap();
        assert!(
            stages.len() > 1,
            "the entry announcement plus the rung's iterations, got {stages:?}"
        );
        assert!(
            stages.iter().all(|s| *s == Some("source_stepping")),
            "every fallback snapshot is labelled, got {stages:?}"
        );
    }

    #[test]
    fn profiles_pin_the_per_backend_forks() {
        assert_eq!(NewtonProfile::Dc.options().max_iters, 500);
        assert_eq!(NewtonProfile::SteadyState.options().max_iters, 200);
        let grid = NewtonProfile::Grid.options();
        assert_eq!(grid.max_iters, NewtonOptions::default().max_iters);
        assert_eq!(grid.jacobian_reuse, 2);
        assert_eq!(grid.linear, LinearSolver::Auto);
        assert_eq!(NewtonProfile::ContinuationStep.options().max_iters, 60);
        assert_eq!(
            NewtonProfile::Standard.options().max_iters,
            NewtonOptions::default().max_iters
        );
    }
}
