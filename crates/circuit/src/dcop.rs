//! DC operating-point analysis with gmin and source stepping.
//!
//! Solves `f(x) + b(0) = 0`. The robustness ladder mirrors SPICE:
//! plain Newton → gmin stepping (a shrinking shunt conductance from every
//! node voltage to ground) → source stepping (ramping the excitation from
//! zero). The same continuation ideas reappear at the MPDE level (the paper
//! reports "using continuation reliably obtained solutions").

use rfsim_numerics::sparse::Triplets;
use rfsim_numerics::SolveBudget;

use crate::circuit::{Circuit, UnknownKind};
use crate::driver::{fall_back, NewtonProfile, RungKind};
use crate::newton::{
    newton_solve_budgeted, LinearSolverWorkspace, NewtonOptions, NewtonStats, NewtonSystem,
};
use crate::{CircuitError, Result};

/// Initial gmin of gmin stepping (S); each step divides it by 10.
const GMIN_START: f64 = 1e-2;

/// Gmin left in place from node voltages to ground during analysis (S).
const GMIN_FINAL: f64 = 1e-12;

/// Most source-stepping substeps before the rung gives up.
const MAX_SOURCE_STEPS: usize = 200;

/// Options for [`dc_operating_point`].
#[derive(Debug, Clone, Copy)]
pub struct DcOptions {
    /// Newton options for each inner solve.
    pub newton: NewtonOptions,
}

impl Default for DcOptions {
    fn default() -> Self {
        DcOptions {
            newton: NewtonProfile::Dc.options(),
        }
    }
}

/// Result of a DC operating-point analysis.
#[derive(Debug, Clone)]
pub struct DcResult {
    /// The operating point (node voltages then branch currents).
    pub solution: Vec<f64>,
    /// Statistics of the final Newton solve.
    pub stats: NewtonStats,
    /// Which strategy succeeded.
    pub strategy: DcStrategy,
}

/// Which rung of the robustness ladder produced the solution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DcStrategy {
    /// Plain Newton from the zero vector.
    Direct,
    /// Gmin stepping.
    GminStepping,
    /// Source stepping.
    SourceStepping,
}

/// The DC system `f(x) + λ·b(0) + gmin·x_v = 0`.
struct DcSystem<'a> {
    circuit: &'a Circuit,
    b: Vec<f64>,
    gmin: f64,
    lambda: f64,
}

impl NewtonSystem for DcSystem<'_> {
    fn dim(&self) -> usize {
        self.circuit.num_unknowns()
    }

    fn residual(&self, x: &[f64], out: &mut [f64]) {
        self.circuit.eval_f(x, out, None);
        for i in 0..out.len() {
            out[i] += self.lambda * self.b[i];
            if self.circuit.unknown_kinds()[i] == UnknownKind::NodeVoltage {
                out[i] += self.gmin * x[i];
            }
        }
    }

    fn residual_and_jacobian(&self, x: &[f64], out: &mut [f64], jac: &mut Triplets) {
        self.circuit.eval_f(x, out, Some(jac));
        for i in 0..out.len() {
            out[i] += self.lambda * self.b[i];
            if self.circuit.unknown_kinds()[i] == UnknownKind::NodeVoltage {
                out[i] += self.gmin * x[i];
                jac.push(i, i, self.gmin);
            }
        }
    }
}

/// Computes the DC operating point of a circuit.
///
/// # Errors
///
/// Returns [`CircuitError::ConvergenceFailure`] if every strategy fails.
pub fn dc_operating_point(circuit: &Circuit, options: DcOptions) -> Result<DcResult> {
    dc_operating_point_budgeted(circuit, options, &SolveBudget::unlimited())
}

/// [`dc_operating_point`] under a [`SolveBudget`].
///
/// The ladder is plain Newton, then [`fall_back`] to gmin stepping, then
/// to source stepping, each fallback under a stage-labelled budget
/// child. A [`CircuitError::Interrupted`] outcome passes every rung
/// untouched (a control-plane stop is never retried), as does any
/// structural error; recoverable failures — divergence, iteration
/// exhaustion, singular kernels — feed the next rung.
///
/// # Errors
///
/// [`CircuitError::Interrupted`] when the budget stops a solve; the last
/// rung's typed error if every strategy fails.
pub fn dc_operating_point_budgeted(
    circuit: &Circuit,
    options: DcOptions,
    budget: &SolveBudget,
) -> Result<DcResult> {
    let n = circuit.num_unknowns();
    let mut b = vec![0.0; n];
    circuit.eval_b(0.0, &mut b);
    let kinds = circuit.unknown_kinds().to_vec();
    let newton = options.newton;
    // The DC system's Jacobian pattern is identical across every rung of
    // the ladder (gmin and λ scale values, never structure), so one
    // workspace carries the symbolic factorisation through all of them.
    let mut workspace = LinearSolverWorkspace::new();
    let sys = DcSystem {
        circuit,
        b: b.clone(),
        gmin: GMIN_FINAL,
        lambda: 1.0,
    };
    let plain = newton_solve_budgeted(&sys, &vec![0.0; n], &kinds, newton, &mut workspace, budget)
        .map(|solved| (solved, DcStrategy::Direct));
    let gmin = fall_back(
        plain,
        RungKind::GminStepping,
        &mut workspace,
        budget,
        |ws, rung| {
            let solved = gmin_stepping(circuit, &b, &kinds, newton, ws, rung)?;
            Ok((solved, DcStrategy::GminStepping))
        },
    );
    let ((solution, stats), strategy) = fall_back(
        gmin,
        RungKind::SourceStepping,
        &mut workspace,
        budget,
        |ws, rung| {
            let solved = source_stepping(circuit, &b, &kinds, newton, ws, rung)?;
            Ok((solved, DcStrategy::SourceStepping))
        },
    )?;
    Ok(DcResult {
        solution,
        stats,
        strategy,
    })
}

/// The gmin-stepping rung: ramp a shunt conductance down decade by
/// decade, then polish at the residual gmin. Any sub-solve error
/// propagates for the caller's ladder to classify.
fn gmin_stepping(
    circuit: &Circuit,
    b: &[f64],
    kinds: &[UnknownKind],
    newton: NewtonOptions,
    workspace: &mut LinearSolverWorkspace,
    budget: &SolveBudget,
) -> Result<(Vec<f64>, NewtonStats)> {
    let mut x = vec![0.0; circuit.num_unknowns()];
    let mut gmin = GMIN_START;
    loop {
        let sys = DcSystem {
            circuit,
            b: b.to_vec(),
            gmin,
            lambda: 1.0,
        };
        x = newton_solve_budgeted(&sys, &x, kinds, newton, workspace, budget)?.0;
        if gmin <= GMIN_FINAL {
            break;
        }
        gmin = (gmin / 10.0).max(GMIN_FINAL);
    }
    // Final polish at the residual gmin.
    let sys = DcSystem {
        circuit,
        b: b.to_vec(),
        gmin: GMIN_FINAL,
        lambda: 1.0,
    };
    newton_solve_budgeted(&sys, &x, kinds, newton, workspace, budget)
}

/// The source-stepping rung: ramp the excitation λ from 0 to 1, halving
/// the step on recoverable failures (step-level retries stay inside the
/// rung; only running out of step budget fails it).
fn source_stepping(
    circuit: &Circuit,
    b: &[f64],
    kinds: &[UnknownKind],
    newton: NewtonOptions,
    workspace: &mut LinearSolverWorkspace,
    budget: &SolveBudget,
) -> Result<(Vec<f64>, NewtonStats)> {
    let give_up = |steps_used: usize| CircuitError::ConvergenceFailure {
        analysis: "dc operating point (source stepping)".into(),
        iterations: steps_used,
        residual: f64::NAN,
    };
    let mut x = vec![0.0; circuit.num_unknowns()];
    let mut lambda: f64 = 0.0;
    let mut step: f64 = 0.1;
    let mut steps_used = 0;
    let mut last_stats = None;
    while lambda < 1.0 {
        if steps_used >= MAX_SOURCE_STEPS {
            return Err(give_up(steps_used));
        }
        let target = (lambda + step).min(1.0);
        let sys = DcSystem {
            circuit,
            b: b.to_vec(),
            gmin: GMIN_FINAL,
            lambda: target,
        };
        match newton_solve_budgeted(&sys, &x, kinds, newton, workspace, budget) {
            Ok((sol, stats)) => {
                x = sol;
                lambda = target;
                last_stats = Some(stats);
                step = (step * 1.5).min(0.25);
            }
            Err(e) if e.is_recoverable() => {
                // Numerical failure: halve the source step and retry.
                step *= 0.5;
                if step < 1e-6 {
                    return Err(give_up(steps_used));
                }
            }
            Err(e) => return Err(e),
        }
        steps_used += 1;
    }
    let stats = last_stats.ok_or_else(|| CircuitError::Structural {
        context: "source stepping finished without a successful step".into(),
    })?;
    Ok((x, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CircuitBuilder;
    use crate::devices::{DiodeParams, MosfetParams};
    use crate::node::GROUND;
    use crate::waveform::Waveform;

    #[test]
    fn voltage_divider() {
        let mut b = CircuitBuilder::new();
        let inp = b.node("in");
        let mid = b.node("mid");
        b.vsource("V1", inp, GROUND, Waveform::Dc(10.0)).expect("v");
        b.resistor("R1", inp, mid, 1e3).expect("r1");
        b.resistor("R2", mid, GROUND, 3e3).expect("r2");
        let ckt = b.build().expect("build");
        let op = dc_operating_point(&ckt, DcOptions::default()).expect("dc");
        assert!((op.solution[0] - 10.0).abs() < 1e-6);
        assert!((op.solution[1] - 7.5).abs() < 1e-6);
        // Source branch current: −(10−7.5)/1k = −2.5 mA.
        assert!((op.solution[2] + 2.5e-3).abs() < 1e-8);
        assert_eq!(op.strategy, DcStrategy::Direct);
    }

    #[test]
    fn diode_resistor_forward_drop() {
        let mut b = CircuitBuilder::new();
        let inp = b.node("in");
        let anode = b.node("a");
        b.vsource("V1", inp, GROUND, Waveform::Dc(5.0)).expect("v");
        b.resistor("R1", inp, anode, 1e3).expect("r");
        b.diode("D1", anode, GROUND, DiodeParams::default())
            .expect("d");
        let ckt = b.build().expect("build");
        let op = dc_operating_point(&ckt, DcOptions::default()).expect("dc");
        let vd = op.solution[1];
        assert!(
            (0.55..0.75).contains(&vd),
            "silicon diode drop expected, got {vd}"
        );
        // KCL: current through R equals diode current.
        let ir = (5.0 - vd) / 1e3;
        assert!(ir > 3e-3, "a few mA flows: {ir}");
    }

    #[test]
    fn mosfet_common_source_bias() {
        let mut b = CircuitBuilder::new();
        let vdd = b.node("vdd");
        let gate = b.node("g");
        let drain = b.node("d");
        b.vsource("VDD", vdd, GROUND, Waveform::Dc(3.0))
            .expect("vdd");
        b.vsource("VG", gate, GROUND, Waveform::Dc(1.2))
            .expect("vg");
        b.resistor("RD", vdd, drain, 5e3).expect("rd");
        b.mosfet("M1", drain, gate, GROUND, MosfetParams::default())
            .expect("m");
        let ckt = b.build().expect("build");
        let op = dc_operating_point(&ckt, DcOptions::default()).expect("dc");
        let vd = op.solution[ckt
            .unknown_index_of_node(ckt.node_by_name("d").expect("d"))
            .expect("idx")];
        // With KP=100µ, W/L=20, vgt=0.7: Isat ≈ ½·2m·0.49 ≈ 0.49 mA → drop ≈ 2.45 V.
        assert!(vd > 0.2 && vd < 1.2, "drain should sit low-ish, got {vd}");
    }

    #[test]
    fn floating_node_regularised_by_gmin() {
        // A node connected only through a capacitor has no DC path: the
        // final gmin keeps the matrix nonsingular and pins it near 0 V.
        let mut b = CircuitBuilder::new();
        let a = b.node("a");
        let fl = b.node("float");
        b.vsource("V1", a, GROUND, Waveform::Dc(1.0)).expect("v");
        b.capacitor("C1", a, fl, 1e-12).expect("c");
        let ckt = b.build().expect("build");
        let op = dc_operating_point(&ckt, DcOptions::default()).expect("dc");
        let vf = op.solution[1];
        assert!(vf.abs() < 1e-3, "floating node pinned by gmin, got {vf}");
    }

    #[test]
    fn cancelled_budget_short_circuits_ladder() {
        // A pre-cancelled token must stop rung 1 immediately and skip the
        // gmin/source-stepping rungs: interruption is a control-plane
        // outcome, not a convergence failure to be retried.
        let mut b = CircuitBuilder::new();
        let inp = b.node("in");
        let anode = b.node("a");
        b.vsource("V1", inp, GROUND, Waveform::Dc(5.0)).expect("v");
        b.resistor("R1", inp, anode, 1e3).expect("r");
        b.diode("D1", anode, GROUND, DiodeParams::default())
            .expect("d");
        let ckt = b.build().expect("build");
        let token = rfsim_numerics::CancelToken::new();
        token.cancel();
        let budget = rfsim_numerics::SolveBudget::unlimited().with_cancel(token);
        let err = dc_operating_point_budgeted(&ckt, DcOptions::default(), &budget)
            .expect_err("cancelled budget must interrupt");
        let i = err.interrupted().expect("typed interruption");
        assert_eq!(i.reason, rfsim_numerics::InterruptReason::Cancelled);
        assert_eq!(i.iterations, 0, "pre-cancelled: no iterations spent");
    }

    #[test]
    fn series_diode_chain_needs_stepping_but_solves() {
        // Stacked diodes with a large supply: hard for cold Newton.
        let mut b = CircuitBuilder::new();
        let inp = b.node("in");
        let m1 = b.node("m1");
        let m2 = b.node("m2");
        b.vsource("V1", inp, GROUND, Waveform::Dc(30.0)).expect("v");
        b.resistor("R1", inp, m1, 10.0).expect("r");
        b.diode("D1", m1, m2, DiodeParams::default()).expect("d1");
        b.diode("D2", m2, GROUND, DiodeParams::default())
            .expect("d2");
        let ckt = b.build().expect("build");
        let op = dc_operating_point(&ckt, DcOptions::default()).expect("dc");
        let v1 = op.solution[1] - op.solution[2];
        let v2 = op.solution[2];
        assert!((0.6..1.1).contains(&v1), "D1 drop {v1}");
        assert!((0.6..1.1).contains(&v2), "D2 drop {v2}");
    }
}
