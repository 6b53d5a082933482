//! The Newton recovery-ladder driver: one convergence policy for every
//! backend.
//!
//! The paper's convergence story has two rungs — "Newton-Raphson …
//! converged in 26 iterations; when it did not converge, continuation
//! reliably obtained solutions" (Roychowdhury, DAC 2002). Before this
//! module the reproduction scattered that policy: dcop hand-rolled gmin
//! and source stepping, the MPDE solver hand-rolled its continuation
//! fallback, the sweep engine hand-rolled an unseeded retry, and each
//! backend forked its own [`NewtonOptions`]. A [`NewtonDriver`] owns the
//! whole ladder instead:
//!
//! ```text
//!          NewtonDriver::solve_ladder
//!                    │
//!        ┌───────────▼───────────┐   Ok ───────────▶ DriverOutcome
//!        │ rung 1 (Plain)        │                    { value,
//!        └───────────┬───────────┘                      rung,
//!         recoverable│error                             rungs_attempted }
//!        ┌───────────▼───────────┐
//!        │ rung 2 (GminStepping, │   Ok ───────────▶ …
//!        │  SourceStepping,      │
//!        │  Continuation, or     │
//!        │  RetryUnseeded)       │
//!        └───────────┬───────────┘
//!         recoverable│error           Interrupted / Structural errors
//!                    ▼                short-circuit every rung.
//!                   (…)
//! ```
//!
//! Each rung runs inside a [`RungExec`] that carries the driver's
//! [`NewtonOptions`], the shared [`LinearSolverWorkspace`] (the Jacobian
//! pattern is rung-invariant, so symbolic factorisations survive rung
//! transitions), and a rung-staged [`SolveBudget`] child whose
//! [`stage`](rfsim_numerics::SolveProgress::stage) label names the rung
//! — a progress callback installed upstream (the serve layer's per-job
//! observer) therefore sees `{rung, iteration, best_residual}` without
//! any extra plumbing.
//!
//! Error classification is the ladder's contract (see
//! [`CircuitError::is_recoverable`]): divergence
//! ([`CircuitError::Diverged`]), iteration exhaustion and singular
//! kernels feed the next rung; budget interruptions and structural /
//! parameter errors abort the whole ladder — no rung can fix a deadline
//! or a floating node.

use rfsim_numerics::SolveBudget;

use crate::circuit::UnknownKind;
use crate::error::CircuitError;
use crate::newton::{
    newton_solve_budgeted, LinearSolver, LinearSolverWorkspace, NewtonOptions, NewtonStats,
    NewtonSystem,
};
use crate::Result;

/// Identity of one recovery-ladder rung. The label is stable (wire
/// protocols, logs, progress snapshots).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RungKind {
    /// Plain budgeted Newton (damping and backtracking included).
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
    /// Everything else (transient timesteps, shooting, HB1): the
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

/// What a successful ladder solve reports: the rung that delivered the
/// value and how many rungs it took to get there.
#[derive(Debug, Clone)]
pub struct DriverOutcome<T> {
    /// The solution the winning rung produced.
    pub value: T,
    /// Which rung succeeded.
    pub rung: RungKind,
    /// Rungs attempted including the winner (1 = first try).
    pub rungs_attempted: usize,
}

/// The execution context one rung runs in: the driver's options, the
/// ladder-shared workspace, and a budget child staged with the rung's
/// label so progress observers can tell rungs apart.
pub struct RungExec<'a> {
    options: NewtonOptions,
    workspace: &'a mut LinearSolverWorkspace,
    budget: SolveBudget,
}

impl RungExec<'_> {
    /// The driver's Newton options (the rung may derive variants, e.g. a
    /// shorter-budget copy for continuation inner steps).
    pub fn options(&self) -> NewtonOptions {
        self.options
    }

    /// The ladder-shared linear-solver workspace.
    pub fn workspace(&mut self) -> &mut LinearSolverWorkspace {
        self.workspace
    }

    /// The rung-staged budget (stage = the rung's label). Pass it to
    /// sub-solvers that manage their own Newton calls.
    pub fn budget(&self) -> &SolveBudget {
        &self.budget
    }

    /// Simultaneous workspace + staged-budget access, for rungs that
    /// hand both to a whole sub-solver (a sweep backend, a continuation
    /// run) in one call.
    pub fn parts(&mut self) -> (&mut LinearSolverWorkspace, &SolveBudget) {
        (self.workspace, &self.budget)
    }

    /// One budgeted Newton solve under the rung's options and staged
    /// budget.
    ///
    /// # Errors
    ///
    /// Everything [`newton_solve_budgeted`] returns.
    pub fn newton<S: NewtonSystem>(
        &mut self,
        system: &S,
        x0: &[f64],
        kinds: &[UnknownKind],
    ) -> Result<(Vec<f64>, NewtonStats)> {
        let options = self.options;
        self.newton_with(options, system, x0, kinds)
    }

    /// [`RungExec::newton`] with explicit options — for rungs whose
    /// sub-steps want a different budget shape (continuation inner
    /// steps) while keeping the staged budget and shared workspace.
    ///
    /// # Errors
    ///
    /// Everything [`newton_solve_budgeted`] returns.
    pub fn newton_with<S: NewtonSystem>(
        &mut self,
        options: NewtonOptions,
        system: &S,
        x0: &[f64],
        kinds: &[UnknownKind],
    ) -> Result<(Vec<f64>, NewtonStats)> {
        newton_solve_budgeted(system, x0, kinds, options, self.workspace, &self.budget)
    }
}

/// The boxed body of one rung (see [`Rung::new`]).
type RungFn<'a, T> = Box<dyn FnMut(&mut RungExec<'_>) -> Result<T> + 'a>;

/// One declared rung: its identity plus the closure that runs it. The
/// closure returns the backend's own solution type — whole-solution
/// rungs (the sweep engine's unseeded retry) and plain Newton rungs ride
/// the same ladder.
pub struct Rung<'a, T> {
    kind: RungKind,
    run: RungFn<'a, T>,
}

impl<'a, T> Rung<'a, T> {
    /// Declares a rung.
    pub fn new(kind: RungKind, run: impl FnMut(&mut RungExec<'_>) -> Result<T> + 'a) -> Self {
        Rung {
            kind,
            run: Box::new(run),
        }
    }

    /// The rung's identity.
    pub fn kind(&self) -> RungKind {
        self.kind
    }
}

/// The recovery-ladder driver. Construct from a profile
/// ([`NewtonDriver::with_profile`]) or explicit options, then either run
/// a declared ladder ([`NewtonDriver::solve_ladder`]) or a single plain
/// solve ([`NewtonDriver::solve`]) — both count rung attempts and
/// successes into [`WorkspaceStats`](crate::newton::WorkspaceStats) and
/// stage the budget per rung.
#[derive(Debug, Clone, Copy)]
pub struct NewtonDriver {
    options: NewtonOptions,
}

impl Default for NewtonDriver {
    fn default() -> Self {
        NewtonDriver::with_profile(NewtonProfile::Standard)
    }
}

impl NewtonDriver {
    /// A driver with explicit options (a profile's options that a caller
    /// has further customised — tolerances, linear strategy).
    pub fn new(options: NewtonOptions) -> Self {
        NewtonDriver { options }
    }

    /// A driver on a named profile.
    pub fn with_profile(profile: NewtonProfile) -> Self {
        NewtonDriver {
            options: profile.options(),
        }
    }

    /// The driver's options.
    pub fn options(&self) -> NewtonOptions {
        self.options
    }

    /// Runs the rungs in order and returns the first success. A rung's
    /// *recoverable* error ([`CircuitError::is_recoverable`]) feeds the
    /// next rung; interruptions and structural errors abort the ladder
    /// immediately. With every rung exhausted, the last rung's error is
    /// returned (typed — a diverged plain rung followed by a diverged
    /// stepping rung reports `Diverged`, never a synthetic
    /// `ConvergenceFailure`).
    ///
    /// # Errors
    ///
    /// The first non-recoverable error, or the last rung's error once
    /// all rungs fail. `analysis` names the caller in the
    /// empty-ladder structural error only.
    pub fn solve_ladder<T>(
        &self,
        analysis: &str,
        workspace: &mut LinearSolverWorkspace,
        budget: &SolveBudget,
        rungs: Vec<Rung<'_, T>>,
    ) -> Result<DriverOutcome<T>> {
        if rungs.is_empty() {
            return Err(CircuitError::Structural {
                context: format!("{analysis}: recovery ladder declared no rungs"),
            });
        }
        let mut last_err: Option<CircuitError> = None;
        for (attempt, mut rung) in rungs.into_iter().enumerate() {
            workspace.stats.rung_attempts += 1;
            let mut exec = RungExec {
                options: self.options,
                workspace,
                budget: budget.child().with_stage(rung.kind.label()),
            };
            // Announce the rung before running it, so progress observers
            // (poll snapshots, job timelines) see the transition even if
            // the rung errors out before completing one Newton iteration.
            exec.budget.announce_stage();
            match (rung.run)(&mut exec) {
                Ok(value) => {
                    workspace.stats.rung_successes += 1;
                    return Ok(DriverOutcome {
                        value,
                        rung: rung.kind,
                        rungs_attempted: attempt + 1,
                    });
                }
                Err(e) if e.is_recoverable() => last_err = Some(e),
                Err(e) => return Err(e),
            }
        }
        Err(last_err.expect("non-empty ladder records an error per failed rung"))
    }

    /// A one-rung ([`RungKind::Plain`]) budgeted Newton solve through
    /// the driver — the path every per-step backend (transient
    /// timesteps, shooting, HB, periodic FD, envelope) takes, so rung
    /// accounting and progress staging are uniform even where no
    /// fallback rung exists.
    ///
    /// # Errors
    ///
    /// Everything [`newton_solve_budgeted`] returns.
    pub fn solve<S: NewtonSystem>(
        &self,
        system: &S,
        x0: &[f64],
        kinds: &[UnknownKind],
        workspace: &mut LinearSolverWorkspace,
        budget: &SolveBudget,
    ) -> Result<(Vec<f64>, NewtonStats)> {
        let outcome = self.solve_ladder(
            "newton",
            workspace,
            budget,
            vec![Rung::new(RungKind::Plain, |exec| {
                exec.newton(system, x0, kinds)
            })],
        )?;
        Ok(outcome.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn plain_rung<'a>(x0: &'a [f64]) -> Rung<'a, (Vec<f64>, NewtonStats)> {
        Rung::new(RungKind::Plain, move |exec| {
            exec.newton(&Quadratic, x0, &[])
        })
    }

    #[test]
    fn easy_fixture_is_bit_identical_across_ladder_configs() {
        // Every ladder configuration must take rung 1 and produce the
        // *same bits*: extra declared rungs change nothing when Newton
        // converges first try.
        let driver = NewtonDriver::default();
        let x0 = [3.0];
        let mut reference: Option<Vec<f64>> = None;
        for extra in 0..3usize {
            let mut ws = LinearSolverWorkspace::new();
            let mut rungs = vec![plain_rung(&x0)];
            for kind in [RungKind::GminStepping, RungKind::SourceStepping]
                .into_iter()
                .take(extra)
            {
                rungs.push(Rung::new(kind, |_exec| {
                    panic!("an unused fallback rung must never run")
                }));
            }
            let outcome = driver
                .solve_ladder("quadratic", &mut ws, &SolveBudget::unlimited(), rungs)
                .expect("rung 1 converges");
            assert_eq!(outcome.rung, RungKind::Plain);
            assert_eq!(outcome.rungs_attempted, 1);
            assert_eq!(ws.stats.rung_attempts, 1);
            assert_eq!(ws.stats.rung_successes, 1);
            let solution = outcome.value.0;
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
        // ladder must deliver the rung-2 solution, and the counters must
        // show one absorbed failure.
        let driver = NewtonDriver::default();
        let mut ws = LinearSolverWorkspace::new();
        let outcome = driver
            .solve_ladder(
                "ridge",
                &mut ws,
                &SolveBudget::unlimited(),
                vec![
                    Rung::new(RungKind::Plain, |exec| exec.newton(&NaNRidge, &[0.0], &[])),
                    Rung::new(RungKind::Continuation, |exec| {
                        exec.newton(&Quadratic, &[3.0], &[])
                    }),
                ],
            )
            .expect("rung 2 rescues");
        assert_eq!(outcome.rung, RungKind::Continuation);
        assert_eq!(outcome.rungs_attempted, 2);
        assert_eq!(ws.stats.rung_attempts, 2);
        assert_eq!(ws.stats.rung_successes, 1);
        assert!((outcome.value.0[0] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn exhausted_ladder_returns_the_typed_divergence() {
        // Both rungs diverge: the caller sees `Diverged`, not a
        // synthetic ConvergenceFailure after max_iters of NaN.
        let driver = NewtonDriver::default();
        let mut ws = LinearSolverWorkspace::new();
        let err = driver
            .solve_ladder(
                "ridge",
                &mut ws,
                &SolveBudget::unlimited(),
                vec![
                    Rung::new(RungKind::Plain, |exec| exec.newton(&NaNRidge, &[0.0], &[])),
                    Rung::new(RungKind::GminStepping, |exec| {
                        exec.newton(&NaNRidge, &[0.0], &[])
                    }),
                ],
            )
            .expect_err("no rung can solve the ridge");
        assert!(matches!(err, CircuitError::Diverged { .. }), "got {err:?}");
        assert_eq!(ws.stats.rung_attempts, 2);
        assert_eq!(ws.stats.rung_successes, 0);
    }

    #[test]
    fn interruption_short_circuits_remaining_rungs() {
        let token = rfsim_numerics::CancelToken::new();
        token.cancel();
        let budget = SolveBudget::unlimited().with_cancel(token);
        let driver = NewtonDriver::default();
        let mut ws = LinearSolverWorkspace::new();
        let err = driver
            .solve_ladder(
                "cancelled",
                &mut ws,
                &budget,
                vec![
                    Rung::new(RungKind::Plain, |exec| exec.newton(&Quadratic, &[3.0], &[])),
                    Rung::new(RungKind::GminStepping, |_exec| {
                        panic!("rungs after an interruption must not run")
                    }),
                ],
            )
            .expect_err("pre-cancelled");
        assert!(err.is_interrupted());
        assert_eq!(ws.stats.rung_attempts, 1);
    }

    #[test]
    fn progress_snapshots_carry_the_rung_label() {
        // The driver stages each rung's budget child with the rung
        // label, so an upstream progress observer (the serve layer) sees
        // which rung is reporting without extra plumbing.
        let stages = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&stages);
        let budget =
            SolveBudget::unlimited().with_progress(move |p| sink.lock().unwrap().push(p.stage));
        let driver = NewtonDriver::default();
        let mut ws = LinearSolverWorkspace::new();
        driver
            .solve_ladder(
                "staged",
                &mut ws,
                &budget,
                vec![
                    Rung::new(RungKind::Plain, |exec| exec.newton(&NaNRidge, &[0.0], &[])),
                    Rung::new(RungKind::SourceStepping, |exec| {
                        exec.newton(&Quadratic, &[3.0], &[])
                    }),
                ],
            )
            .expect("rung 2 rescues");
        let stages = stages.lock().unwrap();
        assert!(
            stages.contains(&Some("source_stepping")),
            "rung 2 iterations must be labelled, got {stages:?}"
        );
        assert!(
            !stages.contains(&None),
            "every driver iteration is staged, got {stages:?}"
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

    #[test]
    fn single_solve_counts_one_rung() {
        let driver = NewtonDriver::default();
        let mut ws = LinearSolverWorkspace::new();
        let (x, _) = driver
            .solve(&Quadratic, &[3.0], &[], &mut ws, &SolveBudget::unlimited())
            .expect("solves");
        assert!((x[0] - 2.0).abs() < 1e-9);
        assert_eq!(ws.stats.rung_attempts, 1);
        assert_eq!(ws.stats.rung_successes, 1);
    }
}
