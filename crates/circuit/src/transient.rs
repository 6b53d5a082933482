//! Transient analysis: adaptive implicit time stepping.
//!
//! Integrates `d/dt q(x) + f(x) + b(t) = 0` from a DC operating point with
//! backward Euler, trapezoidal, or BDF2 discretisations and a predictor
//! based local-truncation-error step controller. This is the reference
//! engine that the paper's baseline (single-time shooting over a difference
//! period) is built on — and the thing the MPDE method replaces with a
//! small multitime grid.

use rfsim_numerics::sparse::Triplets;
use rfsim_numerics::SolveBudget;

use crate::circuit::Circuit;
use crate::dcop::{dc_operating_point_budgeted, DcOptions};
use crate::newton::{
    newton_solve_budgeted, LinearSolverWorkspace, NewtonOptions, NewtonSystem, ABSTOL_V, RELTOL,
};
use crate::{CircuitError, Result};

/// Implicit integration scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Integrator {
    /// First-order backward Euler: robust, strongly damped.
    #[default]
    BackwardEuler,
    /// Second-order trapezoidal rule: accurate, marginally stable
    /// (can ring on stiff switching circuits).
    Trapezoidal,
    /// Second-order BDF: damped and accurate; uses variable-step
    /// coefficients.
    Bdf2,
}

/// Smallest permitted step (s).
const DT_MIN: f64 = 1e-15;

/// LTE tolerance of the adaptive step controller, in weighted-update
/// units ([`RELTOL`] and [`ABSTOL_V`]).
const LTE_TOL: f64 = 10.0;

/// Options for [`transient`].
#[derive(Debug, Clone, Copy)]
pub struct TransientOptions {
    /// End time of the simulation (starts at `t = 0`).
    pub t_stop: f64,
    /// Initial step size.
    pub dt_init: f64,
    /// Largest permitted step (0 = `t_stop / 50`).
    pub dt_max: f64,
    /// Integration scheme.
    pub integrator: Integrator,
    /// Use the LTE step controller (false = fixed step `dt_init`).
    pub adaptive: bool,
    /// Newton options for each step.
    pub newton: NewtonOptions,
}

impl Default for TransientOptions {
    fn default() -> Self {
        TransientOptions {
            t_stop: 1e-3,
            dt_init: 1e-6,
            dt_max: 0.0,
            integrator: Integrator::default(),
            adaptive: true,
            newton: NewtonOptions::default(),
        }
    }
}

/// Result of a transient run: uniform access to the state trajectory.
#[derive(Debug, Clone)]
pub struct TransientResult {
    /// Time points (strictly increasing, starting at 0).
    pub times: Vec<f64>,
    /// Flattened states: `states[k * n .. (k+1) * n]` is the state at
    /// `times[k]`.
    pub states: Vec<f64>,
    /// Number of unknowns per state.
    pub num_unknowns: usize,
    /// Total Newton iterations across all steps.
    pub newton_iterations: usize,
    /// Steps rejected by the LTE controller.
    pub rejected_steps: usize,
}

impl TransientResult {
    /// State vector at output index `k`.
    pub fn state(&self, k: usize) -> &[f64] {
        &self.states[k * self.num_unknowns..(k + 1) * self.num_unknowns]
    }

    /// Trajectory of a single unknown.
    pub fn signal(&self, unknown: usize) -> Vec<f64> {
        (0..self.times.len())
            .map(|k| self.state(k)[unknown])
            .collect()
    }

    /// Linear interpolation of unknown `unknown` at time `t` (clamped).
    pub fn sample(&self, unknown: usize, t: f64) -> f64 {
        if self.times.is_empty() {
            return 0.0;
        }
        if t <= self.times[0] {
            return self.state(0)[unknown];
        }
        let last = self.times.len() - 1;
        if t >= self.times[last] {
            return self.state(last)[unknown];
        }
        let idx = self.times.partition_point(|&tt| tt <= t);
        let (t0, t1) = (self.times[idx - 1], self.times[idx]);
        let (v0, v1) = (self.state(idx - 1)[unknown], self.state(idx)[unknown]);
        v0 + (v1 - v0) * (t - t0) / (t1 - t0)
    }

    /// Number of accepted time points.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether the trajectory is empty.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }
}

/// One implicit step's nonlinear system.
struct StepSystem<'a> {
    circuit: &'a Circuit,
    /// Coefficient of `q(x)` in the discretised derivative.
    alpha0: f64,
    /// Precomputed history part of the derivative plus `f`/`b` history:
    /// residual = alpha0·q(x) + hist + f(x) + θ·b(t_{n+1}).
    hist: &'a [f64],
    /// Weight of the implicit conductive term (1 for BE/BDF2, ½ for TR).
    theta: f64,
    b_new: &'a [f64],
}

impl NewtonSystem for StepSystem<'_> {
    fn dim(&self) -> usize {
        self.circuit.num_unknowns()
    }

    fn residual(&self, x: &[f64], out: &mut [f64]) {
        let n = out.len();
        let mut q = vec![0.0; n];
        self.circuit.eval_q(x, &mut q, None);
        self.circuit.eval_f(x, out, None);
        for i in 0..n {
            out[i] = self.alpha0 * q[i] + self.hist[i] + self.theta * (out[i] + self.b_new[i]);
        }
    }

    fn residual_and_jacobian(&self, x: &[f64], out: &mut [f64], jac: &mut Triplets) {
        let n = out.len();
        // Assemble θ·G + α0·C by scaling triplet batches.
        let mut g = Triplets::with_capacity(n, n, 8 * n);
        let mut c = Triplets::with_capacity(n, n, 8 * n);
        let mut q = vec![0.0; n];
        self.circuit.eval_f(x, out, Some(&mut g));
        self.circuit.eval_q(x, &mut q, Some(&mut c));
        for i in 0..n {
            out[i] = self.alpha0 * q[i] + self.hist[i] + self.theta * (out[i] + self.b_new[i]);
        }
        let gm = g.to_csr();
        for row in 0..n {
            let (cols, vals) = gm.row(row);
            for (col, v) in cols.iter().zip(vals) {
                jac.push(row, *col, self.theta * v);
            }
        }
        let cm = c.to_csr();
        for row in 0..n {
            let (cols, vals) = cm.row(row);
            for (col, v) in cols.iter().zip(vals) {
                jac.push(row, *col, self.alpha0 * v);
            }
        }
    }
}

/// Runs a transient analysis from the DC operating point (or a caller
/// supplied initial state via [`transient_from`]).
///
/// # Errors
///
/// Propagates DC and Newton failures; fails if the controller cannot make
/// progress at the smallest permitted step (1e-15 s).
pub fn transient(circuit: &Circuit, options: TransientOptions) -> Result<TransientResult> {
    transient_budgeted(circuit, options, &SolveBudget::unlimited())
}

/// [`transient`] under a [`SolveBudget`]: the budget covers the initial
/// DC solve and every timestep's Newton solve. An interruption aborts the
/// run instead of triggering the step-halving retry.
///
/// # Errors
///
/// [`CircuitError::Interrupted`] when the budget stops a solve, plus
/// everything [`transient`] returns.
pub fn transient_budgeted(
    circuit: &Circuit,
    options: TransientOptions,
    budget: &SolveBudget,
) -> Result<TransientResult> {
    let op = dc_operating_point_budgeted(
        circuit,
        DcOptions {
            newton: options.newton,
        },
        budget,
    )?;
    transient_from_budgeted(circuit, op.solution, options, budget)
}

/// Runs a transient analysis from a given initial state.
///
/// # Errors
///
/// See [`transient`].
pub fn transient_from(
    circuit: &Circuit,
    initial_state: Vec<f64>,
    options: TransientOptions,
) -> Result<TransientResult> {
    transient_from_budgeted(circuit, initial_state, options, &SolveBudget::unlimited())
}

/// [`transient_from`] under a [`SolveBudget`].
///
/// # Errors
///
/// See [`transient_budgeted`].
pub fn transient_from_budgeted(
    circuit: &Circuit,
    initial_state: Vec<f64>,
    options: TransientOptions,
    budget: &SolveBudget,
) -> Result<TransientResult> {
    let n = circuit.num_unknowns();
    if initial_state.len() != n {
        return Err(CircuitError::Structural {
            context: format!(
                "initial state has {} entries for {} unknowns",
                initial_state.len(),
                n
            ),
        });
    }
    let kinds = circuit.unknown_kinds().to_vec();
    let dt_max = if options.dt_max > 0.0 {
        options.dt_max
    } else {
        options.t_stop / 50.0
    };

    let mut result = TransientResult {
        times: vec![0.0],
        states: initial_state.clone(),
        num_unknowns: n,
        newton_iterations: 0,
        rejected_steps: 0,
    };

    let mut x = initial_state;
    let mut t = 0.0;
    let mut dt = options.dt_init.min(dt_max);
    // One linear-solver workspace for the whole run: the step system's
    // Jacobian pattern is fixed, so after the first step every timestep's
    // Newton iterations are in-place assemblies + numeric refactorisations.
    let mut workspace = LinearSolverWorkspace::new();

    // History state for the integrators.
    let mut q_prev = vec![0.0; n];
    circuit.eval_q(&x, &mut q_prev, None);
    let mut fb_prev = vec![0.0; n]; // f(x_n) + b(t_n), for TR
    {
        let mut b0 = vec![0.0; n];
        circuit.eval_b(t, &mut b0);
        circuit.eval_f(&x, &mut fb_prev, None);
        for i in 0..n {
            fb_prev[i] += b0[i];
        }
    }
    // BDF2 history: previous charge and step.
    let mut q_prev2: Option<(Vec<f64>, f64)> = None;
    // Predictor history.
    let mut x_prev: Option<(Vec<f64>, f64)> = None;

    while t < options.t_stop - 1e-15 * options.t_stop {
        dt = dt.min(options.t_stop - t).min(dt_max);
        let t_new = t + dt;

        let mut b_new = vec![0.0; n];
        circuit.eval_b(t_new, &mut b_new);

        // Build the step system for the chosen scheme.
        let (alpha0, theta, hist) = match options.integrator {
            Integrator::BackwardEuler => {
                let hist: Vec<f64> = q_prev.iter().map(|q| -q / dt).collect();
                (1.0 / dt, 1.0, hist)
            }
            Integrator::Trapezoidal => {
                // 2(q − q_n)/dt − q̇_n + ... with q̇_n = −(f_n + b_n):
                // residual = 2/dt·q(x) − 2/dt·q_n + (f_n + b_n)·? …
                // Standard TR: (q−q_n)/dt + ½(f+b)_{n+1} + ½(f+b)_n = 0.
                let hist: Vec<f64> = q_prev
                    .iter()
                    .zip(&fb_prev)
                    .map(|(q, fb)| -q / dt + 0.5 * fb)
                    .collect();
                (1.0 / dt, 0.5, hist)
            }
            Integrator::Bdf2 => {
                if let Some((q2, dt_prev)) = &q_prev2 {
                    // Variable-step BDF2 coefficients.
                    let rho = dt / dt_prev;
                    let a0 = (1.0 + 2.0 * rho) / (dt * (1.0 + rho));
                    let a1 = -(1.0 + rho) / dt;
                    let a2 = rho * rho / (dt * (1.0 + rho));
                    let hist: Vec<f64> = q_prev
                        .iter()
                        .zip(q2)
                        .map(|(q1, q2v)| a1 * q1 + a2 * q2v)
                        .collect();
                    (a0, 1.0, hist)
                } else {
                    // First step: backward Euler.
                    let hist: Vec<f64> = q_prev.iter().map(|q| -q / dt).collect();
                    (1.0 / dt, 1.0, hist)
                }
            }
        };

        let sys = StepSystem {
            circuit,
            alpha0,
            hist: &hist,
            theta,
            b_new: &b_new,
        };

        // Predict the new state by linear extrapolation (for the initial
        // Newton guess and the LTE estimate).
        let prediction: Vec<f64> = match &x_prev {
            Some((xp, dtp)) => {
                let r = dt / dtp;
                x.iter()
                    .zip(xp)
                    .map(|(xc, xo)| xc + (xc - xo) * r)
                    .collect()
            }
            None => x.clone(),
        };

        // Per-timestep recovery is dt reduction (below), not a rung
        // ladder.
        match newton_solve_budgeted(
            &sys,
            &prediction,
            &kinds,
            options.newton,
            &mut workspace,
            budget,
        ) {
            Ok((x_new, stats)) => {
                result.newton_iterations += stats.iterations;
                // LTE estimate: deviation from the predictor in weighted units.
                if options.adaptive && x_prev.is_some() {
                    let lte = x_new
                        .iter()
                        .zip(&prediction)
                        .zip(&x_new)
                        .map(|((xn, xp), xref)| (xn - xp).abs() / (RELTOL * xref.abs() + ABSTOL_V))
                        .fold(0.0_f64, f64::max);
                    if lte > 4.0 * LTE_TOL && dt > DT_MIN {
                        result.rejected_steps += 1;
                        dt = (dt * 0.5).max(DT_MIN);
                        continue;
                    }
                    // Step-size update for next step.
                    let order = match options.integrator {
                        Integrator::BackwardEuler => 1.0,
                        _ => 2.0,
                    };
                    let ratio = (LTE_TOL / lte.max(1e-12)).powf(1.0 / (order + 1.0));
                    dt = (dt * ratio.clamp(0.3, 2.0)).clamp(DT_MIN, dt_max);
                }

                // Accept.
                q_prev2 = Some((q_prev.clone(), dt.max(DT_MIN)));
                circuit.eval_q(&x_new, &mut q_prev, None);
                {
                    let mut fnew = vec![0.0; n];
                    circuit.eval_f(&x_new, &mut fnew, None);
                    for i in 0..n {
                        fb_prev[i] = fnew[i] + b_new[i];
                    }
                }
                x_prev = Some((x.clone(), t_new - t));
                x = x_new;
                t = t_new;
                result.times.push(t);
                result.states.extend_from_slice(&x);
            }
            Err(e) => {
                // A budget interruption is a control-plane stop: halving
                // dt would just re-run the interrupted solve.
                if e.is_interrupted() || dt <= DT_MIN * 1.0001 {
                    return Err(e);
                }
                result.rejected_steps += 1;
                dt = (dt * 0.25).max(DT_MIN);
            }
        }
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CircuitBuilder;
    use crate::node::GROUND;
    use crate::waveform::Waveform;

    fn rc_circuit(r: f64, c: f64, v: Waveform) -> (Circuit, usize) {
        let mut b = CircuitBuilder::new();
        let inp = b.node("in");
        let out = b.node("out");
        b.vsource("V1", inp, GROUND, v).expect("v");
        b.resistor("R1", inp, out, r).expect("r");
        b.capacitor("C1", out, GROUND, c).expect("c");
        let ckt = b.build().expect("build");
        let out_idx = ckt
            .unknown_index_of_node(ckt.node_by_name("out").expect("out"))
            .expect("idx");
        (ckt, out_idx)
    }

    #[test]
    fn rc_step_response_be() {
        // Step from 0 to 1 V through R=1k, C=1µ: v(t) = 1 − e^{−t/τ}, τ=1ms.
        let (ckt, out) = rc_circuit(
            1e3,
            1e-6,
            Waveform::Pulse {
                v1: 0.0,
                v2: 1.0,
                delay: 0.0,
                rise: 1e-9,
                fall: 1e-9,
                width: 1.0,
                period: 0.0,
            },
        );
        let res = transient(
            &ckt,
            TransientOptions {
                t_stop: 3e-3,
                dt_init: 1e-6,
                integrator: Integrator::BackwardEuler,
                ..Default::default()
            },
        )
        .expect("transient");
        let tau: f64 = 1e-3;
        for &t in &[0.5e-3_f64, 1e-3, 2e-3] {
            let expect = 1.0 - (-t / tau).exp();
            let got = res.sample(out, t);
            assert!(
                (got - expect).abs() < 0.02,
                "t={t}: got {got}, expect {expect}"
            );
        }
    }

    #[test]
    fn rc_sine_steady_state_amplitude_tr() {
        // At f = 1/(2πRC), |H| = 1/√2.
        let r = 1e3;
        let c = 1e-6;
        let f = 1.0 / (2.0 * std::f64::consts::PI * r * c);
        let (ckt, out) = rc_circuit(r, c, Waveform::sine(1.0, f));
        let res = transient(
            &ckt,
            TransientOptions {
                t_stop: 20.0 / f,
                dt_init: 1e-2 / f,
                dt_max: 2e-2 / f,
                integrator: Integrator::Trapezoidal,
                ..Default::default()
            },
        )
        .expect("transient");
        // Amplitude over the last 2 periods.
        let t0 = 18.0 / f;
        let mut peak = 0.0f64;
        for k in 0..res.len() {
            if res.times[k] > t0 {
                peak = peak.max(res.state(k)[out].abs());
            }
        }
        assert!(
            (peak - std::f64::consts::FRAC_1_SQRT_2).abs() < 0.03,
            "corner gain: got {peak}"
        );
    }

    #[test]
    fn lc_oscillation_frequency_bdf2() {
        // Series RLC ringing: f0 = 1/(2π√(LC)) with light damping.
        let mut b = CircuitBuilder::new();
        let inp = b.node("in");
        let mid = b.node("mid");
        b.vsource(
            "V1",
            inp,
            GROUND,
            Waveform::Pulse {
                v1: 0.0,
                v2: 1.0,
                delay: 0.0,
                rise: 1e-9,
                fall: 1e-9,
                width: 1.0,
                period: 0.0,
            },
        )
        .expect("v");
        b.resistor("R1", inp, mid, 10.0).expect("r");
        let cap = b.node("cap");
        b.inductor("L1", mid, cap, 1e-3).expect("l");
        b.capacitor("C1", cap, GROUND, 1e-9).expect("c");
        let ckt = b.build().expect("build");
        let out = ckt.unknown_index_of_node(cap).expect("idx");
        let f0 = 1.0 / (2.0 * std::f64::consts::PI * (1e-3f64 * 1e-9).sqrt());
        let res = transient(
            &ckt,
            TransientOptions {
                t_stop: 5.0 / f0,
                dt_init: 0.002 / f0,
                dt_max: 0.01 / f0,
                integrator: Integrator::Bdf2,
                ..Default::default()
            },
        )
        .expect("transient");
        // Find first two upward zero crossings of (v − 1) after t > 0.5/f0.
        let sig = res.signal(out);
        let mut crossings = Vec::new();
        for k in 1..res.len() {
            if res.times[k] < 0.2 / f0 {
                continue;
            }
            let (a, b2) = (sig[k - 1] - 1.0, sig[k] - 1.0);
            if a < 0.0 && b2 >= 0.0 {
                let frac = a / (a - b2);
                crossings.push(res.times[k - 1] + frac * (res.times[k] - res.times[k - 1]));
            }
        }
        assert!(
            crossings.len() >= 2,
            "need 2 crossings, got {}",
            crossings.len()
        );
        let period = crossings[1] - crossings[0];
        let f_meas = 1.0 / period;
        assert!(
            (f_meas - f0).abs() / f0 < 0.05,
            "ring frequency {f_meas} vs {f0}"
        );
    }

    #[test]
    fn fixed_step_mode_counts_steps() {
        let (ckt, _) = rc_circuit(1e3, 1e-9, Waveform::Dc(1.0));
        let res = transient(
            &ckt,
            TransientOptions {
                t_stop: 1e-6,
                dt_init: 1e-8,
                adaptive: false,
                ..Default::default()
            },
        )
        .expect("transient");
        assert_eq!(res.len(), 101, "100 fixed steps + initial point");
    }

    #[test]
    fn initial_state_mismatch_rejected() {
        let (ckt, _) = rc_circuit(1e3, 1e-9, Waveform::Dc(1.0));
        assert!(transient_from(&ckt, vec![0.0; 1], TransientOptions::default()).is_err());
    }

    #[test]
    fn cancelled_budget_stops_run_without_step_halving() {
        let (ckt, _) = rc_circuit(1e3, 1e-9, Waveform::Dc(1.0));
        let token = rfsim_numerics::CancelToken::new();
        token.cancel();
        let budget = rfsim_numerics::SolveBudget::unlimited().with_cancel(token);
        let err = transient_budgeted(&ckt, TransientOptions::default(), &budget)
            .expect_err("cancelled budget must interrupt");
        assert!(err.is_interrupted(), "typed interruption, got: {err}");
    }

    #[test]
    fn sample_clamps_and_interpolates() {
        let r = TransientResult {
            times: vec![0.0, 1.0],
            states: vec![0.0, 10.0],
            num_unknowns: 1,
            newton_iterations: 0,
            rejected_steps: 0,
        };
        assert_eq!(r.sample(0, -1.0), 0.0);
        assert_eq!(r.sample(0, 2.0), 10.0);
        assert!((r.sample(0, 0.5) - 5.0).abs() < 1e-12);
    }
}
