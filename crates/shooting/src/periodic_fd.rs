//! Periodic steady state by 1-D finite-difference collocation.
//!
//! Discretises one period `[0, T)` on `N` uniform points with a periodic
//! difference stencil for `d/dt` and solves the coupled system
//!
//! ```text
//! Σ_k (w_k/h)·q(x_{i+k})  +  f(x_i)  +  b(t_i)  =  0,   i = 0..N
//! ```
//!
//! by global Newton. This is exactly the `N2 = 1` slice of the MPDE grid
//! solver — the MPDE engine in `rfsim-mpde` extends the same structure with
//! a second (difference-frequency) axis.

use rfsim_circuit::driver::NewtonProfile;
use rfsim_circuit::newton::{
    newton_solve_budgeted, LinearSolverWorkspace, NewtonOptions, NewtonStats, NewtonSystem,
};
use rfsim_circuit::{Circuit, Result, UnknownKind};
use rfsim_numerics::diff::DiffScheme;
use rfsim_numerics::sparse::Triplets;

/// Options for [`periodic_fd_pss`].
#[derive(Debug, Clone, Copy)]
pub struct PeriodicFdOptions {
    /// Number of collocation points over one period.
    pub n_samples: usize,
    /// Periodic differentiation stencil.
    pub scheme: DiffScheme,
    /// Newton options for the global solve.
    pub newton: NewtonOptions,
}

impl Default for PeriodicFdOptions {
    fn default() -> Self {
        PeriodicFdOptions {
            n_samples: 64,
            scheme: DiffScheme::default(),
            // Global collocation solve — the steady-state profile.
            newton: NewtonProfile::SteadyState.options(),
        }
    }
}

/// Result of a periodic finite-difference solve.
#[derive(Debug, Clone)]
pub struct PeriodicFdResult {
    /// Collocation times `t_i = i·T/N`.
    pub times: Vec<f64>,
    /// Flattened solution: `samples[i*n .. (i+1)*n]` is the state at `t_i`.
    pub samples: Vec<f64>,
    /// Unknowns per time point.
    pub num_unknowns: usize,
    /// Newton statistics.
    pub stats: NewtonStats,
}

impl PeriodicFdResult {
    /// State at collocation index `i`.
    pub fn state(&self, i: usize) -> &[f64] {
        &self.samples[i * self.num_unknowns..(i + 1) * self.num_unknowns]
    }

    /// Waveform of one unknown over the period.
    pub fn signal(&self, unknown: usize) -> Vec<f64> {
        (0..self.times.len())
            .map(|i| self.state(i)[unknown])
            .collect()
    }
}

/// The collocation system over all grid points.
struct PeriodicFdSystem<'a> {
    circuit: &'a Circuit,
    period: f64,
    n_samples: usize,
    scheme: DiffScheme,
    b_cache: Vec<f64>, // N*n excitation samples
}

impl PeriodicFdSystem<'_> {
    fn n(&self) -> usize {
        self.circuit.num_unknowns()
    }
}

impl NewtonSystem for PeriodicFdSystem<'_> {
    fn dim(&self) -> usize {
        self.n() * self.n_samples
    }

    fn residual(&self, x: &[f64], out: &mut [f64]) {
        let n = self.n();
        let ns = self.n_samples;
        let h = self.period / ns as f64;
        out.fill(0.0);
        let mut q = vec![0.0; n];
        let mut f = vec![0.0; n];
        // Charge terms through the periodic stencil.
        for i in 0..ns {
            let xi = &x[i * n..(i + 1) * n];
            self.circuit.eval_q(xi, &mut q, None);
            for &(off, w) in self.scheme.stencil() {
                // q(x_i) appears in the derivative at rows i − off… i.e. the
                // stencil row j uses x_{j+off}; scatter from the column side:
                let row = (i as isize - off).rem_euclid(ns as isize) as usize;
                for u in 0..n {
                    out[row * n + u] += w / h * q[u];
                }
            }
            self.circuit.eval_f(xi, &mut f, None);
            for u in 0..n {
                out[i * n + u] += f[u] + self.b_cache[i * n + u];
            }
        }
    }

    fn residual_and_jacobian(&self, x: &[f64], out: &mut [f64], jac: &mut Triplets) {
        let n = self.n();
        let ns = self.n_samples;
        let h = self.period / ns as f64;
        out.fill(0.0);
        let mut q = vec![0.0; n];
        let mut f = vec![0.0; n];
        for i in 0..ns {
            let xi = &x[i * n..(i + 1) * n];
            let mut c_trip = Triplets::with_capacity(n, n, 8 * n);
            let mut g_trip = Triplets::with_capacity(n, n, 8 * n);
            self.circuit.eval_q(xi, &mut q, Some(&mut c_trip));
            self.circuit.eval_f(xi, &mut f, Some(&mut g_trip));
            let c = c_trip.to_csr();
            for &(off, w) in self.scheme.stencil() {
                let row_blk = (i as isize - off).rem_euclid(ns as isize) as usize;
                for u in 0..n {
                    out[row_blk * n + u] += w / h * q[u];
                }
                for r in 0..n {
                    let (cols, vals) = c.row(r);
                    for (cc, v) in cols.iter().zip(vals) {
                        jac.push(row_blk * n + r, i * n + cc, w / h * v);
                    }
                }
            }
            let g = g_trip.to_csr();
            for r in 0..n {
                let (cols, vals) = g.row(r);
                for (cc, v) in cols.iter().zip(vals) {
                    jac.push(i * n + r, i * n + cc, *v);
                }
            }
            for u in 0..n {
                out[i * n + u] += f[u] + self.b_cache[i * n + u];
            }
        }
    }
}

/// Solves for the periodic steady state of `circuit` with period `period`.
///
/// `initial_guess` (flattened `N·n`, same layout as the result) seeds the
/// Newton iteration; pass `None` to start from the DC operating point
/// replicated across the grid.
///
/// # Errors
///
/// Propagates DC and Newton convergence failures.
pub fn periodic_fd_pss(
    circuit: &Circuit,
    period: f64,
    initial_guess: Option<&[f64]>,
    options: PeriodicFdOptions,
) -> Result<PeriodicFdResult> {
    periodic_fd_pss_budgeted(
        circuit,
        period,
        initial_guess,
        options,
        &mut LinearSolverWorkspace::new(),
        &rfsim_numerics::SolveBudget::unlimited(),
    )
}

/// [`periodic_fd_pss`] with caller-owned linear-solver state, under a
/// [`SolveBudget`](rfsim_numerics::SolveBudget): the budget covers the DC
/// seed and the global collocation Newton solve. Warm-started re-solves
/// (parameter sweeps, refinement studies on the same `n_samples`) that
/// share one workspace reuse the collocation Jacobian's symbolic
/// factorisation across calls.
///
/// # Errors
///
/// [`rfsim_circuit::CircuitError::Interrupted`] when the budget stops a
/// solve, plus everything [`periodic_fd_pss`] returns.
pub fn periodic_fd_pss_budgeted(
    circuit: &Circuit,
    period: f64,
    initial_guess: Option<&[f64]>,
    options: PeriodicFdOptions,
    workspace: &mut LinearSolverWorkspace,
    budget: &rfsim_numerics::SolveBudget,
) -> Result<PeriodicFdResult> {
    let n = circuit.num_unknowns();
    let ns = options.n_samples.max(options.scheme.min_points());
    let times: Vec<f64> = (0..ns).map(|i| period * i as f64 / ns as f64).collect();

    // Cache the excitation on the grid.
    let mut b_cache = vec![0.0; ns * n];
    let mut b = vec![0.0; n];
    for (i, &t) in times.iter().enumerate() {
        circuit.eval_b(t, &mut b);
        b_cache[i * n..(i + 1) * n].copy_from_slice(&b);
    }

    let sys = PeriodicFdSystem {
        circuit,
        period,
        n_samples: ns,
        scheme: options.scheme,
        b_cache,
    };

    let x0: Vec<f64> = match initial_guess {
        Some(g) => g.to_vec(),
        None => {
            let op = rfsim_circuit::dcop::dc_operating_point_budgeted(
                circuit,
                Default::default(),
                budget,
            )?;
            let mut x0 = Vec::with_capacity(ns * n);
            for _ in 0..ns {
                x0.extend_from_slice(&op.solution);
            }
            x0
        }
    };

    let mut kinds = Vec::with_capacity(ns * n);
    for _ in 0..ns {
        kinds.extend_from_slice(circuit.unknown_kinds());
    }
    let kinds: Vec<UnknownKind> = kinds;

    let (samples, stats) =
        newton_solve_budgeted(&sys, &x0, &kinds, options.newton, workspace, budget)?;
    Ok(PeriodicFdResult {
        times,
        samples,
        num_unknowns: n,
        stats,
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

    /// Analytic RC low-pass response amplitude and phase at `freq`.
    fn rc_response(r: f64, c: f64, freq: f64) -> (f64, f64) {
        let w = 2.0 * PI * freq * r * c;
        let mag = 1.0 / (1.0 + w * w).sqrt();
        let ph = -w.atan();
        (mag, ph)
    }

    #[test]
    fn rc_pss_matches_analytic_central() {
        let (r, c, f) = (1e3, 1e-9, 200e3);
        let (ckt, out) = rc_lowpass(r, c, 1.0, f);
        let res = periodic_fd_pss(
            &ckt,
            1.0 / f,
            None,
            PeriodicFdOptions {
                n_samples: 128,
                scheme: DiffScheme::Central2,
                ..Default::default()
            },
        )
        .expect("pss");
        let (mag, ph) = rc_response(r, c, f);
        for (i, &t) in res.times.iter().enumerate() {
            let expect = mag * (2.0 * PI * f * t + ph).sin();
            let got = res.state(i)[out];
            assert!(
                (got - expect).abs() < 5e-3,
                "t={t}: got {got}, expect {expect}"
            );
        }
    }

    #[test]
    fn backward_euler_damps_but_converges_with_resolution() {
        let (r, c, f) = (1e3, 1e-9, 100e3);
        let (ckt, out) = rc_lowpass(r, c, 1.0, f);
        let amp_with = |ns: usize| {
            let res = periodic_fd_pss(
                &ckt,
                1.0 / f,
                None,
                PeriodicFdOptions {
                    n_samples: ns,
                    scheme: DiffScheme::BackwardEuler,
                    ..Default::default()
                },
            )
            .expect("pss");
            res.signal(out).iter().fold(0.0f64, |m, v| m.max(v.abs()))
        };
        let (mag, _) = rc_response(r, c, f);
        let e_coarse = (amp_with(32) - mag).abs();
        let e_fine = (amp_with(256) - mag).abs();
        assert!(
            e_fine < e_coarse / 4.0,
            "BE refines: {e_coarse} -> {e_fine}"
        );
    }

    #[test]
    fn bdf2_beats_backward_euler() {
        let (r, c, f) = (1e3, 1e-9, 100e3);
        let (ckt, out) = rc_lowpass(r, c, 1.0, f);
        let err_with = |scheme: DiffScheme| {
            let res = periodic_fd_pss(
                &ckt,
                1.0 / f,
                None,
                PeriodicFdOptions {
                    n_samples: 64,
                    scheme,
                    ..Default::default()
                },
            )
            .expect("pss");
            let (mag, ph) = rc_response(r, c, f);
            let mut err = 0.0f64;
            for (i, &t) in res.times.iter().enumerate() {
                let expect = mag * (2.0 * PI * f * t + ph).sin();
                err = err.max((res.state(i)[out] - expect).abs());
            }
            err
        };
        let e_be = err_with(DiffScheme::BackwardEuler);
        let e_bdf2 = err_with(DiffScheme::Bdf2);
        assert!(e_bdf2 < e_be / 3.0, "BDF2 {e_bdf2} vs BE {e_be}");
    }

    #[test]
    fn diode_rectifier_dc_shift() {
        // Half-wave rectifier into an RC tank: PSS output has positive mean.
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
        let res = periodic_fd_pss(
            &ckt,
            1e-6,
            None,
            PeriodicFdOptions {
                n_samples: 128,
                scheme: DiffScheme::Bdf2,
                ..Default::default()
            },
        )
        .expect("pss");
        let sig = res.signal(out_idx);
        let mean: f64 = sig.iter().sum::<f64>() / sig.len() as f64;
        assert!(mean > 0.8, "rectified mean should be near the peak: {mean}");
        let min = sig.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(min > 0.5, "ripple floor stays high: {min}");
    }

    #[test]
    fn workspace_symbolic_survives_sharp_drive_jump() {
        // A rectifier's Jacobian values swing exponentially with drive.
        // One workspace carried across a 40× amplitude jump must keep the
        // symbolic factorisation alive: one full factorisation total, no
        // vanished-pivot fallback, everything after the first
        // iteration a numeric-only refresh.
        let rectifier = |amp: f64| {
            let mut b = CircuitBuilder::new();
            let inp = b.node("in");
            let out = b.node("out");
            b.vsource("V1", inp, GROUND, Waveform::sine(amp, 1e6))
                .expect("v");
            b.diode("D1", inp, out, Default::default()).expect("d");
            b.resistor("RL", out, GROUND, 10e3).expect("r");
            b.capacitor("CL", out, GROUND, 1e-9).expect("c");
            b.build().expect("build")
        };
        let opts = PeriodicFdOptions {
            n_samples: 32,
            scheme: DiffScheme::Bdf2,
            ..Default::default()
        };
        let mut ws = LinearSolverWorkspace::new();
        let unlimited = rfsim_numerics::SolveBudget::unlimited();
        let low = periodic_fd_pss_budgeted(&rectifier(0.05), 1e-6, None, opts, &mut ws, &unlimited)
            .expect("low drive");
        let guess = Some(low.samples.as_slice());
        periodic_fd_pss_budgeted(&rectifier(2.0), 1e-6, guess, opts, &mut ws, &unlimited)
            .expect("high drive");
        assert_eq!(
            ws.stats.full_factorizations, 1,
            "the jump must not discard the symbolic analysis: {:?}",
            ws.stats
        );
        assert_eq!(ws.stats.full_fallbacks, 0, "{:?}", ws.stats);
        assert!(ws.stats.refactorizations >= 2, "{:?}", ws.stats);
    }

    #[test]
    fn warm_start_reuses_solution() {
        let (ckt, _) = rc_lowpass(1e3, 1e-9, 1.0, 100e3);
        let opts = PeriodicFdOptions {
            n_samples: 32,
            scheme: DiffScheme::Central2,
            ..Default::default()
        };
        let first = periodic_fd_pss(&ckt, 1e-5, None, opts).expect("cold");
        let warm = periodic_fd_pss(&ckt, 1e-5, Some(&first.samples), opts).expect("warm");
        assert!(
            warm.stats.iterations <= 2,
            "warm start converges immediately, took {}",
            warm.stats.iterations
        );
    }
}
