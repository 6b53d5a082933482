//! Newton shooting for periodic steady state.
//!
//! Integrates the circuit across one period with fixed-step backward Euler,
//! propagating the sensitivity (monodromy) matrix `M = ∂x(T)/∂x(0)`, and
//! Newton-iterates on the boundary residual `r(x₀) = x(T; x₀) − x₀`
//! with the dense monodromy matrix (Aprille–Trick).
//!
//! Applied to the *difference-frequency* period of a closely-spaced-tone
//! problem, this is the paper's baseline: with ≥10 steps per LO period it
//! needs `~10·f_LO/fd` time steps (≈300 000 for the paper's mixer), which
//! is what the sheared-MPDE method's 1200-point grid replaces.

use rfsim_circuit::dcop::dc_operating_point_budgeted;
use rfsim_circuit::newton::{
    newton_solve_budgeted, LinearSolverWorkspace, NewtonOptions, NewtonSystem, ABSTOL_V, RELTOL,
};
use rfsim_circuit::{Circuit, CircuitError, Result, UnknownKind};
use rfsim_numerics::dense::DenseMatrix;
use rfsim_numerics::sparse::{CscAssembly, CscMatrix, CsrAssembly, CsrMatrix, Triplets};
use rfsim_numerics::sparse_lu::{LuOptions, SparseLu, SymbolicLu};
use rfsim_numerics::vector::wrms_ratio;
use rfsim_numerics::SolveBudget;
use std::sync::Arc;

/// Options for [`shooting_pss`].
#[derive(Debug, Clone, Copy)]
pub struct ShootingOptions {
    /// Fixed backward-Euler steps per period.
    pub steps_per_period: usize,
    /// Maximum outer (shooting) Newton iterations.
    pub max_outer: usize,
    /// Newton options for the inner per-step solves.
    pub newton: NewtonOptions,
}

impl Default for ShootingOptions {
    fn default() -> Self {
        ShootingOptions {
            steps_per_period: 200,
            max_outer: 40,
            newton: NewtonOptions::default(),
        }
    }
}

/// Result of a shooting solve.
#[derive(Debug, Clone)]
pub struct ShootingResult {
    /// The periodic initial state `x(0) = x(T)`.
    pub initial_state: Vec<f64>,
    /// Time points of the final trajectory (length `steps + 1`).
    pub times: Vec<f64>,
    /// Flattened trajectory over the final period.
    pub states: Vec<f64>,
    /// Unknowns per state.
    pub num_unknowns: usize,
    /// Outer shooting iterations used.
    pub outer_iterations: usize,
    /// Total inner Newton iterations across all time steps.
    pub inner_newton_iterations: usize,
    /// Total time steps integrated (all outer iterations).
    pub total_steps: usize,
}

impl ShootingResult {
    /// State at trajectory index `k`.
    pub fn state(&self, k: usize) -> &[f64] {
        &self.states[k * self.num_unknowns..(k + 1) * self.num_unknowns]
    }

    /// Waveform of one unknown over the final period.
    pub fn signal(&self, unknown: usize) -> Vec<f64> {
        (0..self.times.len())
            .map(|k| self.state(k)[unknown])
            .collect()
    }
}

/// Number of shooting time steps the paper's baseline needs: one
/// difference-frequency period resolved with `steps_per_lo` points per
/// LO period.
///
/// For the paper's mixer (`f_lo = 450 MHz`, `fd = 15 kHz`,
/// `steps_per_lo = 10`) this gives 300 000 steps.
pub fn difference_period_steps(f_lo: f64, fd: f64, steps_per_lo: usize) -> usize {
    ((f_lo / fd).ceil() as usize) * steps_per_lo
}

/// One backward-Euler step's nonlinear system.
struct BeStep<'a> {
    circuit: &'a Circuit,
    inv_h: f64,
    q_prev_over_h: &'a [f64],
    b_new: &'a [f64],
}

impl NewtonSystem for BeStep<'_> {
    fn dim(&self) -> usize {
        self.circuit.num_unknowns()
    }

    fn residual(&self, x: &[f64], out: &mut [f64]) {
        let n = out.len();
        let mut q = vec![0.0; n];
        self.circuit.eval_q(x, &mut q, None);
        self.circuit.eval_f(x, out, None);
        for i in 0..n {
            out[i] += self.inv_h * q[i] - self.q_prev_over_h[i] + self.b_new[i];
        }
    }

    fn residual_and_jacobian(&self, x: &[f64], out: &mut [f64], jac: &mut Triplets) {
        let n = out.len();
        let mut q = vec![0.0; n];
        let mut c = Triplets::with_capacity(n, n, 8 * n);
        self.circuit.eval_q(x, &mut q, Some(&mut c));
        self.circuit.eval_f(x, out, Some(jac));
        for i in 0..n {
            out[i] += self.inv_h * q[i] - self.q_prev_over_h[i] + self.b_new[i];
        }
        let cm = c.to_csr();
        for r in 0..n {
            let (cols, vals) = cm.row(r);
            for (cc, v) in cols.iter().zip(vals) {
                jac.push(r, *cc, self.inv_h * v);
            }
        }
    }
}

/// One integrated period: trajectory plus per-step sensitivity operators.
struct PeriodSweep {
    times: Vec<f64>,
    states: Vec<f64>,
    /// Per step: factored `J = C/h + G` at the accepted point and `C_prev/h`.
    step_ops: Vec<(SparseLu, CsrMatrix)>,
    inner_iterations: usize,
}

/// Caches carried across every time step (and outer iteration) of a
/// shooting run: the sensitivity Jacobian and `C/h` operators share one
/// structure for the whole run, so slot maps and the symbolic
/// factorisation are built once and every step is an in-place scatter plus
/// a numeric-only refactorisation.
#[derive(Default)]
struct SensitivityCache {
    jac_assembly: Option<CscAssembly>,
    jac_csc: Option<CscMatrix>,
    symbolic: Option<Arc<SymbolicLu>>,
    c_assembly: Option<CsrAssembly>,
}

fn integrate_period(
    circuit: &Circuit,
    x0: &[f64],
    period: f64,
    steps: usize,
    kinds: &[UnknownKind],
    newton: NewtonOptions,
    keep_ops: bool,
    workspace: &mut LinearSolverWorkspace,
    cache: &mut SensitivityCache,
    budget: &SolveBudget,
) -> Result<PeriodSweep> {
    let n = circuit.num_unknowns();
    let h = period / steps as f64;
    let inv_h = 1.0 / h;
    let mut x = x0.to_vec();
    let mut times = Vec::with_capacity(steps + 1);
    let mut states = Vec::with_capacity((steps + 1) * n);
    times.push(0.0);
    states.extend_from_slice(&x);
    let mut step_ops = Vec::new();
    let mut inner_iterations = 0;
    let mut q_prev = vec![0.0; n];
    let mut b_new = vec![0.0; n];
    let mut res = vec![0.0; n];
    let mut jac = Triplets::with_capacity(n, n, 16 * n);
    let mut c_prev = Triplets::with_capacity(n, n, 8 * n);

    for k in 0..steps {
        let t_new = period * (k + 1) as f64 / steps as f64;
        c_prev.clear();
        circuit.eval_q(&x, &mut q_prev, Some(&mut c_prev));
        let q_prev_over_h: Vec<f64> = q_prev.iter().map(|q| q * inv_h).collect();
        circuit.eval_b(t_new, &mut b_new);
        let sys = BeStep {
            circuit,
            inv_h,
            q_prev_over_h: &q_prev_over_h,
            b_new: &b_new,
        };
        let (x_new, stats) = newton_solve_budgeted(&sys, &x, kinds, newton, workspace, budget)?;
        inner_iterations += stats.iterations;

        if keep_ops {
            // Jacobian at the accepted point, factored for sensitivity use.
            // Every step shares one structure: slot maps and the symbolic
            // factorisation are built on the first step; later steps scatter
            // in place and refactor numerically. A step whose values kill a
            // recorded pivot gets a full factorisation, which becomes the
            // structure later steps share.
            jac.clear();
            sys.residual_and_jacobian(&x_new, &mut res, &mut jac);
            if CscAssembly::assemble_cached(&mut cache.jac_assembly, &mut cache.jac_csc, &jac) {
                cache.symbolic = None;
            }
            let csc = cache.jac_csc.as_ref().expect("assembled above");
            let lu = match cache
                .symbolic
                .as_ref()
                .and_then(|sym| sym.refactor_shared(csc).ok())
            {
                Some(lu) => lu,
                None => {
                    let lu = SparseLu::factor(csc, LuOptions::default())?;
                    cache.symbolic = Some(lu.symbolic_shared());
                    lu
                }
            };
            // C_prev/h as an explicit operator (each step keeps its own
            // copy in step_ops; only the compression order is cached).
            if !cache
                .c_assembly
                .as_ref()
                .is_some_and(|asm| asm.matches(&c_prev))
            {
                cache.c_assembly = Some(CsrAssembly::new(&c_prev));
            }
            let c_asm = cache.c_assembly.as_ref().expect("built above");
            let mut c_over_h = c_asm.zero_matrix();
            let ok = c_asm.scatter(&c_prev, &mut c_over_h);
            debug_assert!(ok, "matching assembly must scatter");
            for v in c_over_h.data_mut() {
                *v *= inv_h;
            }
            step_ops.push((lu, c_over_h));
        }

        x = x_new;
        times.push(t_new);
        states.extend_from_slice(&x);
    }
    Ok(PeriodSweep {
        times,
        states,
        step_ops,
        inner_iterations,
    })
}

/// Applies the monodromy operator: `v ← J_k⁻¹ · (C_{k-1}/h) · v` per step.
fn apply_monodromy(step_ops: &[(SparseLu, CsrMatrix)], v: &[f64]) -> Vec<f64> {
    let mut cur = v.to_vec();
    for (lu, c_over_h) in step_ops {
        let rhs = c_over_h.matvec(&cur);
        cur = lu.solve(&rhs);
    }
    cur
}

/// Finds the periodic steady state `x(0) = x(T)` of a forced circuit.
///
/// Starts from the DC operating point unless `initial_guess` is given.
///
/// # Errors
///
/// * Propagates DC/inner Newton failures.
/// * [`CircuitError::ConvergenceFailure`] if the outer iteration stalls.
pub fn shooting_pss(
    circuit: &Circuit,
    period: f64,
    initial_guess: Option<&[f64]>,
    options: ShootingOptions,
) -> Result<ShootingResult> {
    shooting_pss_budgeted(
        circuit,
        period,
        initial_guess,
        options,
        &SolveBudget::unlimited(),
    )
}

/// [`shooting_pss`] under a [`SolveBudget`]: the budget covers the DC
/// seed and every inner per-step Newton solve of every outer iteration.
///
/// # Errors
///
/// [`CircuitError::Interrupted`] when the budget stops a solve, plus
/// everything [`shooting_pss`] returns.
pub fn shooting_pss_budgeted(
    circuit: &Circuit,
    period: f64,
    initial_guess: Option<&[f64]>,
    options: ShootingOptions,
    budget: &SolveBudget,
) -> Result<ShootingResult> {
    let n = circuit.num_unknowns();
    let kinds = circuit.unknown_kinds().to_vec();
    let mut x0: Vec<f64> = match initial_guess {
        Some(g) => g.to_vec(),
        None => dc_operating_point_budgeted(circuit, Default::default(), budget)?.solution,
    };
    let mut total_steps = 0;
    let mut inner_newton = 0;
    // Shared across every time step of every outer iteration: the BE step
    // Jacobian has one structure for the whole shooting run.
    let mut workspace = LinearSolverWorkspace::new();
    let mut sensitivity_cache = SensitivityCache::default();

    for outer in 1..=options.max_outer {
        let sweep = integrate_period(
            circuit,
            &x0,
            period,
            options.steps_per_period,
            &kinds,
            options.newton,
            true,
            &mut workspace,
            &mut sensitivity_cache,
            budget,
        )?;
        total_steps += options.steps_per_period;
        inner_newton += sweep.inner_iterations;
        let x_t = sweep.states[options.steps_per_period * n..].to_vec();
        let r: Vec<f64> = x_t.iter().zip(&x0).map(|(a, b)| a - b).collect();

        // Converged?
        if wrms_ratio(&r, &x0, RELTOL, ABSTOL_V) <= 1.0 {
            return Ok(ShootingResult {
                initial_state: x0,
                times: sweep.times,
                states: sweep.states,
                num_unknowns: n,
                outer_iterations: outer,
                inner_newton_iterations: inner_newton,
                total_steps,
            });
        }

        // Outer Newton update: (M − I)·δ = −r, with the monodromy matrix
        // built densely by propagating unit vectors.
        let mut m = DenseMatrix::zeros(n, n);
        let mut e = vec![0.0; n];
        for j in 0..n {
            e[j] = 1.0;
            let col = apply_monodromy(&sweep.step_ops, &e);
            e[j] = 0.0;
            for i in 0..n {
                m[(i, j)] = col[i];
            }
        }
        for i in 0..n {
            m[(i, i)] -= 1.0;
        }
        let neg_r: Vec<f64> = r.iter().map(|v| -v).collect();
        let delta = m.solve(&neg_r).map_err(CircuitError::from)?;
        for i in 0..n {
            x0[i] += delta[i];
        }
    }
    Err(CircuitError::ConvergenceFailure {
        analysis: "shooting".into(),
        iterations: options.max_outer,
        residual: f64::NAN,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfsim_circuit::{CircuitBuilder, Waveform, GROUND};
    use std::f64::consts::PI;

    fn rc_lowpass(r: f64, c: f64, amp: f64, freq: f64) -> (Circuit, usize) {
        let mut b = CircuitBuilder::new();
        let inp = b.node("in");
        let out = b.node("out");
        b.vsource("V1", inp, GROUND, Waveform::sine(amp, freq))
            .expect("v");
        b.resistor("R1", inp, out, r).expect("r");
        b.capacitor("C1", out, GROUND, c).expect("c");
        let ckt = b.build().expect("build");
        let idx = ckt
            .unknown_index_of_node(ckt.node_by_name("out").expect("out"))
            .expect("idx");
        (ckt, idx)
    }

    #[test]
    fn difference_period_steps_matches_paper() {
        // 450 MHz LO, 15 kHz difference, 10 steps per LO period → 300 000.
        assert_eq!(difference_period_steps(450e6, 15e3, 10), 300_000);
    }

    #[test]
    fn rc_shooting_amplitude() {
        let (r, c, f) = (1e3, 1e-9, 100e3);
        let (ckt, out) = rc_lowpass(r, c, 1.0, f);
        let res = shooting_pss(
            &ckt,
            1.0 / f,
            None,
            ShootingOptions {
                steps_per_period: 400,
                ..Default::default()
            },
        )
        .expect("shooting");
        let w = 2.0 * PI * f * r * c;
        let mag = 1.0 / (1.0 + w * w).sqrt();
        let peak = res.signal(out).iter().fold(0.0f64, |m, v| m.max(v.abs()));
        assert!(
            (peak - mag).abs() < 0.02,
            "shooting amplitude {peak} vs analytic {mag}"
        );
    }

    #[test]
    fn linear_circuit_converges_in_two_outer_iterations() {
        // For a linear circuit the boundary map is affine: one Newton step
        // lands on the fixed point, the second confirms convergence.
        let (ckt, _) = rc_lowpass(1e3, 1e-9, 1.0, 100e3);
        let res = shooting_pss(
            &ckt,
            1e-5,
            None,
            ShootingOptions {
                steps_per_period: 100,
                ..Default::default()
            },
        )
        .expect("shooting");
        assert!(res.outer_iterations <= 3, "got {}", res.outer_iterations);
    }

    #[test]
    fn periodicity_of_solution() {
        let (ckt, _) = rc_lowpass(2e3, 2e-9, 1.0, 50e3);
        let res = shooting_pss(
            &ckt,
            2e-5,
            None,
            ShootingOptions {
                steps_per_period: 256,
                ..Default::default()
            },
        )
        .expect("shooting");
        let n = res.num_unknowns;
        let first = res.state(0).to_vec();
        let last = res.state(res.times.len() - 1).to_vec();
        for i in 0..n {
            assert!(
                (first[i] - last[i]).abs() < 1e-4 * (1.0 + first[i].abs()),
                "x(0)[{i}]={} vs x(T)[{i}]={}",
                first[i],
                last[i]
            );
        }
    }

    #[test]
    fn diode_rectifier_matches_periodic_fd() {
        let mut b = CircuitBuilder::new();
        let inp = b.node("in");
        let out = b.node("out");
        b.vsource("V1", inp, GROUND, Waveform::sine(2.0, 1e6))
            .expect("v");
        b.diode("D1", inp, out, Default::default()).expect("d");
        b.resistor("RL", out, GROUND, 10e3).expect("r");
        b.capacitor("CL", out, GROUND, 1e-9).expect("c");
        let ckt = b.build().expect("build");
        let out_idx = ckt
            .unknown_index_of_node(ckt.node_by_name("out").expect("out"))
            .expect("idx");
        let shoot = shooting_pss(
            &ckt,
            1e-6,
            None,
            ShootingOptions {
                steps_per_period: 512,
                ..Default::default()
            },
        )
        .expect("shooting");
        let fd = crate::periodic_fd::periodic_fd_pss(
            &ckt,
            1e-6,
            None,
            crate::periodic_fd::PeriodicFdOptions {
                n_samples: 256,
                scheme: rfsim_numerics::diff::DiffScheme::Bdf2,
                ..Default::default()
            },
        )
        .expect("fd pss");
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let m_shoot = mean(&shoot.signal(out_idx));
        let m_fd = mean(&fd.signal(out_idx));
        assert!(
            (m_shoot - m_fd).abs() < 0.02,
            "shooting mean {m_shoot} vs collocation mean {m_fd}"
        );
    }
}
