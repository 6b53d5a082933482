//! Source-ramping continuation (homotopy) for the MPDE Newton solve.
//!
//! The paper (§3, *Computational speedup*): "In cases where
//! Newton-Raphson did not converge, using continuation reliably obtained
//! solutions." This module implements the natural continuation used there:
//! the excitation is deformed from its DC component (`λ = 0`, solved by the
//! replicated DC operating point) to the full bivariate excitation
//! (`λ = 1`), with adaptive step control and warm-started Newton solves.

use rfsim_circuit::driver::{NewtonDriver, NewtonProfile, Rung, RungExec, RungKind};
use rfsim_circuit::newton::{LinearSolverWorkspace, NewtonOptions};
use rfsim_circuit::{CircuitError, Result};
use rfsim_numerics::SolveBudget;

use crate::fdtd::MpdeSystem;

/// Options for [`continuation_solve`].
#[derive(Debug, Clone, Copy)]
pub struct ContinuationOptions {
    /// Initial λ step.
    pub step_init: f64,
    /// Smallest λ step before giving up.
    pub step_min: f64,
    /// Largest λ step.
    pub step_max: f64,
    /// Maximum accepted + rejected continuation steps.
    pub max_steps: usize,
    /// Newton options for each λ solve.
    pub newton: NewtonOptions,
}

impl Default for ContinuationOptions {
    fn default() -> Self {
        ContinuationOptions {
            step_init: 0.25,
            step_min: 1e-4,
            step_max: 0.5,
            max_steps: 200,
            newton: NewtonProfile::ContinuationStep.options(),
        }
    }
}

/// Statistics of a continuation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContinuationStats {
    /// Accepted λ steps.
    pub accepted_steps: usize,
    /// Rejected (halved) λ steps.
    pub rejected_steps: usize,
    /// Total Newton iterations across all solves.
    pub newton_iterations: usize,
}

/// Solves the MPDE system by ramping the AC excitation from `λ = 0` to
/// `λ = 1`.
///
/// The system's λ is left at 1 on success. `x0` seeds the `λ = 0` solve
/// (the replicated DC operating point is the natural choice).
///
/// # Errors
///
/// Returns [`CircuitError::ConvergenceFailure`] if the step size collapses
/// below `step_min` or the step budget is exhausted.
pub fn continuation_solve(
    system: &mut MpdeSystem<'_>,
    x0: &[f64],
    options: ContinuationOptions,
) -> Result<(Vec<f64>, ContinuationStats)> {
    continuation_solve_budgeted(
        system,
        x0,
        options,
        &mut LinearSolverWorkspace::new(),
        &SolveBudget::unlimited(),
    )
}

/// [`continuation_solve`] with caller-owned linear-solver state, under a
/// [`SolveBudget`].
///
/// λ scales the excitation, never the Jacobian structure, so every Newton
/// solve along the homotopy shares one symbolic factorisation: pass the
/// workspace that already served the plain-Newton attempt and the whole
/// continuation runs on numeric-only refactorisations.
///
/// The budget covers every Newton solve along the homotopy. An
/// interruption aborts the whole continuation — λ-step halving is for
/// convergence failures, not control-plane stops.
///
/// # Errors
///
/// [`CircuitError::Interrupted`] when the budget stops a solve, plus
/// everything [`continuation_solve`] returns.
pub fn continuation_solve_budgeted(
    system: &mut MpdeSystem<'_>,
    x0: &[f64],
    options: ContinuationOptions,
    workspace: &mut LinearSolverWorkspace,
    budget: &SolveBudget,
) -> Result<(Vec<f64>, ContinuationStats)> {
    // A one-rung ladder: standalone continuation still goes through the
    // driver so its iterations are staged ("continuation") and its rung
    // is counted. As the fallback rung of the MPDE solve the body runs
    // directly inside that ladder's exec (`continuation_solve_rung`),
    // avoiding nested rung accounting.
    let driver = NewtonDriver::new(options.newton);
    let outcome = driver.solve_ladder(
        "mpde continuation",
        workspace,
        budget,
        vec![Rung::new(
            RungKind::Continuation,
            move |exec: &mut RungExec<'_>| continuation_solve_rung(system, x0, options, exec),
        )],
    )?;
    Ok(outcome.value)
}

/// The continuation body, running as one rung of a
/// [`NewtonDriver`] ladder: every Newton solve goes through `exec` (and
/// so the ladder's staged budget and shared workspace) with the
/// continuation's own inner-step options. λ-step halving absorbs
/// *recoverable* sub-solve failures; interruptions and structural errors
/// propagate.
///
/// # Errors
///
/// See [`continuation_solve`].
pub fn continuation_solve_rung(
    system: &mut MpdeSystem<'_>,
    x0: &[f64],
    options: ContinuationOptions,
    exec: &mut RungExec<'_>,
) -> Result<(Vec<f64>, ContinuationStats)> {
    let kinds = system.kinds().to_vec();
    let mut stats = ContinuationStats {
        accepted_steps: 0,
        rejected_steps: 0,
        newton_iterations: 0,
    };

    // λ = 0 anchor.
    system.set_lambda(0.0);
    let (mut x, s0) = exec.newton_with(options.newton, system, x0, &kinds)?;
    stats.newton_iterations += s0.iterations;

    let mut lambda: f64 = 0.0;
    let mut step: f64 = options.step_init.clamp(options.step_min, options.step_max);
    while lambda < 1.0 {
        if stats.accepted_steps + stats.rejected_steps >= options.max_steps {
            system.set_lambda(1.0);
            return Err(CircuitError::ConvergenceFailure {
                analysis: "mpde continuation (step budget)".into(),
                iterations: stats.newton_iterations,
                residual: f64::NAN,
            });
        }
        let target = (lambda + step).min(1.0);
        system.set_lambda(target);
        match exec.newton_with(options.newton, system, &x, &kinds) {
            Ok((x_new, s)) => {
                stats.newton_iterations += s.iterations;
                stats.accepted_steps += 1;
                x = x_new;
                lambda = target;
                // Grow the step if Newton was comfortable.
                if s.iterations <= 8 {
                    step = (step * 1.7).min(options.step_max);
                }
            }
            Err(e) if e.is_recoverable() => {
                stats.rejected_steps += 1;
                step *= 0.5;
                if step < options.step_min {
                    system.set_lambda(1.0);
                    return Err(CircuitError::ConvergenceFailure {
                        analysis: "mpde continuation (step collapse)".into(),
                        iterations: stats.newton_iterations,
                        residual: f64::NAN,
                    });
                }
            }
            Err(e) => {
                system.set_lambda(1.0);
                return Err(e);
            }
        }
    }
    Ok((x, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::MultitimeGrid;
    use rfsim_circuit::{BiWaveform, CircuitBuilder, Envelope, MosfetParams, Waveform, GROUND};
    use rfsim_numerics::diff::DiffScheme;

    fn switching_stage() -> rfsim_circuit::Circuit {
        // A MOSFET switch driven hard by the LO: cold-start Newton on the
        // full excitation is fragile; continuation should always work.
        let (f1, fd) = (1e6, 10e3);
        let mut b = CircuitBuilder::new();
        let vdd = b.node("vdd");
        let gate = b.node("g");
        let drain = b.node("d");
        b.vsource("VDD", vdd, GROUND, Waveform::Dc(2.0))
            .expect("vdd");
        b.vsource(
            "VLO",
            gate,
            GROUND,
            BiWaveform::Axis1(Waveform::Sine {
                amplitude: 1.5,
                freq: f1,
                phase: 0.0,
                offset: 0.6,
            }),
        )
        .expect("vlo");
        b.isource(
            "IRF",
            drain,
            GROUND,
            BiWaveform::ShearedCarrier {
                amplitude: 1e-4,
                k: 1,
                f1,
                fd,
                phase: 0.0,
                envelope: Envelope::Unit,
            },
        )
        .expect("irf");
        b.resistor("RD", vdd, drain, 5e3).expect("rd");
        b.capacitor("CD", drain, GROUND, 20e-12).expect("cd");
        b.mosfet("M1", drain, gate, GROUND, MosfetParams::default())
            .expect("m1");
        b.build().expect("build")
    }

    #[test]
    fn continuation_reaches_full_drive() {
        let ckt = switching_stage();
        let grid = MultitimeGrid::new(16, 8, 1e-6, 1e-4);
        let mut sys = crate::fdtd::MpdeSystem::new(
            &ckt,
            grid,
            DiffScheme::BackwardEuler,
            DiffScheme::BackwardEuler,
        )
        .expect("system");
        let dim = rfsim_circuit::newton::NewtonSystem::dim(&sys);
        let (x, stats) =
            continuation_solve(&mut sys, &vec![0.0; dim], ContinuationOptions::default())
                .expect("continuation");
        assert!(stats.accepted_steps >= 2, "multiple λ steps used");
        // Sanity: the solution is a converged residual at λ=1.
        let mut r = vec![0.0; dim];
        rfsim_circuit::newton::NewtonSystem::residual(&sys, &x, &mut r);
        let rn = rfsim_numerics::vector::norm_inf(&r);
        assert!(rn < 1e-5, "residual at λ=1: {rn}");
    }

    #[test]
    fn step_budget_is_enforced() {
        let ckt = switching_stage();
        let grid = MultitimeGrid::new(8, 4, 1e-6, 1e-4);
        let mut sys = crate::fdtd::MpdeSystem::new(
            &ckt,
            grid,
            DiffScheme::BackwardEuler,
            DiffScheme::BackwardEuler,
        )
        .expect("system");
        let dim = rfsim_circuit::newton::NewtonSystem::dim(&sys);
        let opts = ContinuationOptions {
            max_steps: 1,
            step_init: 1e-3,
            ..Default::default()
        };
        assert!(matches!(
            continuation_solve(&mut sys, &vec![0.0; dim], opts),
            Err(CircuitError::ConvergenceFailure { .. })
        ));
    }
}
