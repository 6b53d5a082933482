//! Source-ramping continuation (homotopy) for the MPDE Newton solve.
//!
//! The paper (§3, *Computational speedup*): "In cases where
//! Newton-Raphson did not converge, using continuation reliably obtained
//! solutions." This module implements the natural continuation used there:
//! the excitation is deformed from its DC component (`λ = 0`, solved by the
//! replicated DC operating point) to the full bivariate excitation
//! (`λ = 1`), with adaptive step control and warm-started Newton solves.

use rfsim_circuit::driver::NewtonProfile;
use rfsim_circuit::newton::{newton_solve_budgeted, LinearSolverWorkspace};
use rfsim_circuit::{CircuitError, Result};
use rfsim_numerics::SolveBudget;

use crate::fdtd::MpdeSystem;

/// Initial λ step.
const STEP_INIT: f64 = 0.25;

/// Smallest λ step before giving up.
const STEP_MIN: f64 = 1e-4;

/// Largest λ step.
const STEP_MAX: f64 = 0.5;

/// Most accepted + rejected λ steps.
const MAX_STEPS: usize = 200;

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
/// `λ = 1`: the MPDE solve's fallback rung, run through
/// [`fall_back`](rfsim_circuit::driver::fall_back).
///
/// Every Newton solve runs on `workspace` under `budget` (the rung's
/// staged budget) with the
/// [`ContinuationStep`](NewtonProfile::ContinuationStep) profile. λ
/// scales the excitation, never the Jacobian structure, so the whole
/// homotopy runs on the symbolic factorisation the plain Newton attempt
/// left in the workspace. λ-step halving absorbs *recoverable*
/// sub-solve failures; interruptions and structural errors propagate.
///
/// The system's λ is left at 1 on return. `x0` seeds the `λ = 0` solve
/// (the replicated DC operating point is the natural choice).
///
/// # Errors
///
/// Returns [`CircuitError::ConvergenceFailure`] if the step size collapses
/// below its floor or the step budget is exhausted, and
/// [`CircuitError::Interrupted`] when the budget stops a solve.
pub fn continuation_solve_rung(
    system: &mut MpdeSystem<'_>,
    x0: &[f64],
    workspace: &mut LinearSolverWorkspace,
    budget: &SolveBudget,
) -> Result<(Vec<f64>, ContinuationStats)> {
    ramp(system, x0, STEP_INIT, MAX_STEPS, workspace, budget)
}

/// [`continuation_solve_rung`] from a first λ step of `step_init`, with
/// at most `max_steps` accepted + rejected steps.
fn ramp(
    system: &mut MpdeSystem<'_>,
    x0: &[f64],
    step_init: f64,
    max_steps: usize,
    workspace: &mut LinearSolverWorkspace,
    budget: &SolveBudget,
) -> Result<(Vec<f64>, ContinuationStats)> {
    let newton = NewtonProfile::ContinuationStep.options();
    let kinds = system.kinds().to_vec();
    let mut stats = ContinuationStats {
        accepted_steps: 0,
        rejected_steps: 0,
        newton_iterations: 0,
    };

    // λ = 0 anchor.
    system.set_lambda(0.0);
    let (mut x, s0) = newton_solve_budgeted(system, x0, &kinds, newton, workspace, budget)?;
    stats.newton_iterations += s0.iterations;

    let mut lambda: f64 = 0.0;
    let mut step: f64 = step_init.clamp(STEP_MIN, STEP_MAX);
    while lambda < 1.0 {
        if stats.accepted_steps + stats.rejected_steps >= max_steps {
            system.set_lambda(1.0);
            return Err(CircuitError::ConvergenceFailure {
                analysis: "mpde continuation (step budget)".into(),
                iterations: stats.newton_iterations,
                residual: f64::NAN,
            });
        }
        let target = (lambda + step).min(1.0);
        system.set_lambda(target);
        match newton_solve_budgeted(system, &x, &kinds, newton, workspace, budget) {
            Ok((x_new, s)) => {
                stats.newton_iterations += s.iterations;
                stats.accepted_steps += 1;
                x = x_new;
                lambda = target;
                // Grow the step if Newton was comfortable.
                if s.iterations <= 8 {
                    step = (step * 1.7).min(STEP_MAX);
                }
            }
            Err(e) if e.is_recoverable() => {
                stats.rejected_steps += 1;
                step *= 0.5;
                if step < STEP_MIN {
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
    use crate::solver::{solve_mpde, InitialGuess, MpdeOptions, MpdeSolution, MpdeStrategy};
    use rfsim_circuit::newton::{NewtonOptions, NewtonSystem};
    use rfsim_circuit::{
        BiWaveform, Circuit, CircuitBuilder, Envelope, MosfetParams, Waveform, GROUND,
    };
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

    /// Solves `ckt` on an `n1 × n2` grid with the plain-Newton rung capped
    /// at one iteration from a zero seed, so the ladder falls back to
    /// continuation.
    fn solve_falling_back(ckt: &Circuit, n1: usize, n2: usize) -> Result<MpdeSolution> {
        let options = MpdeOptions {
            n1,
            n2,
            newton: NewtonOptions {
                max_iters: 1,
                ..NewtonProfile::Grid.options()
            },
            initial_guess: InitialGuess::Samples(vec![0.0; n1 * n2 * ckt.num_unknowns()]),
            ..Default::default()
        };
        solve_mpde(ckt, 1e-6, 1e-4, options)
    }

    #[test]
    fn continuation_reaches_full_drive() {
        let ckt = switching_stage();
        let sol = solve_falling_back(&ckt, 16, 8).expect("continuation");
        assert_eq!(sol.stats.strategy, MpdeStrategy::Continuation);
        assert!(sol.stats.continuation_steps >= 2, "multiple λ steps used");
        // Sanity: the solution is a converged residual at λ=1.
        let be = DiffScheme::BackwardEuler;
        let sys = MpdeSystem::new(&ckt, sol.grid, be, be).expect("system");
        let mut r = vec![0.0; sys.dim()];
        sys.residual(&sol.solution.data, &mut r);
        let rn = rfsim_numerics::vector::norm_inf(&r);
        assert!(rn < 1e-5, "residual at λ=1: {rn}");
    }

    #[test]
    fn step_budget_is_enforced() {
        // One λ step of 1e-3 cannot reach full drive.
        let ckt = switching_stage();
        let grid = MultitimeGrid::new(8, 4, 1e-6, 1e-4);
        let be = DiffScheme::BackwardEuler;
        let mut sys = MpdeSystem::new(&ckt, grid, be, be).expect("system");
        let x0 = vec![0.0; sys.dim()];
        let ramped = ramp(
            &mut sys,
            &x0,
            1e-3,
            1,
            &mut LinearSolverWorkspace::new(),
            &SolveBudget::unlimited(),
        );
        assert!(matches!(
            ramped,
            Err(CircuitError::ConvergenceFailure { analysis, .. }) if analysis.contains("step budget")
        ));
    }
}
