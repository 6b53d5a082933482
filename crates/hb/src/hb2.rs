//! Two-tone harmonic balance: spectral collocation on the multitime grid.
//!
//! Solves the same MPDE as `rfsim-mpde` —
//! `∂q/∂t1 + ∂q/∂t2 + f(x̂) = b̂(t1,t2)` on the periodic grid
//! `[0,T1)×[0,T2)` — but with *spectral* differentiation matrices along
//! both axes. This is mathematically equivalent to classical two-tone HB
//! with a box truncation of `(k1·f1 + k2·f2)` mixes. Smooth problems
//! converge spectrally; switching waveforms suffer Gibbs oscillation and
//! slow coefficient decay (the paper's §1 argument against HB).

use rfsim_circuit::driver::NewtonProfile;
use rfsim_circuit::newton::{
    newton_solve_budgeted, LinearSolverWorkspace, NewtonOptions, NewtonStats, NewtonSystem,
};
use rfsim_circuit::{Circuit, Result, UnknownKind};
use rfsim_numerics::diff::spectral_weights;
use rfsim_numerics::sparse::Triplets;

/// Options for [`hb2_solve`].
#[derive(Debug, Clone, Copy)]
pub struct Hb2Options {
    /// Samples along the fast (`t1`) axis.
    pub n1: usize,
    /// Samples along the slow (`t2`) axis.
    pub n2: usize,
    /// Newton options for the global solve.
    pub newton: NewtonOptions,
}

impl Default for Hb2Options {
    fn default() -> Self {
        Hb2Options {
            n1: 16,
            n2: 8,
            // Global two-axis collocation solve — the steady-state profile.
            newton: NewtonProfile::SteadyState.options(),
        }
    }
}

/// Result of a two-tone HB solve: samples on the multitime grid.
#[derive(Debug, Clone)]
pub struct Hb2Result {
    /// Fast-axis period `T1`.
    pub period1: f64,
    /// Slow-axis period `T2`.
    pub period2: f64,
    /// Grid dimensions `(n1, n2)`.
    pub shape: (usize, usize),
    /// Flattened samples: `samples[((j*n1)+i)*n + u]` for grid `(i, j)`.
    pub samples: Vec<f64>,
    /// Unknowns per grid point.
    pub num_unknowns: usize,
    /// Newton statistics.
    pub stats: NewtonStats,
}

impl Hb2Result {
    /// State at grid point `(i, j)`.
    pub fn state(&self, i: usize, j: usize) -> &[f64] {
        let n = self.num_unknowns;
        let base = (j * self.shape.0 + i) * n;
        &self.samples[base..base + n]
    }

    /// Bivariate surface of one unknown, row-major `[j][i]` flattened.
    pub fn surface(&self, unknown: usize) -> Vec<f64> {
        let (n1, n2) = self.shape;
        let mut out = Vec::with_capacity(n1 * n2);
        for j in 0..n2 {
            for i in 0..n1 {
                out.push(self.state(i, j)[unknown]);
            }
        }
        out
    }
}

struct Hb2System<'a> {
    circuit: &'a Circuit,
    n1: usize,
    n2: usize,
    w1: Vec<f64>,
    w2: Vec<f64>,
    b_cache: Vec<f64>,
}

impl Hb2System<'_> {
    fn n(&self) -> usize {
        self.circuit.num_unknowns()
    }

    #[inline]
    fn gp(&self, i: usize, j: usize) -> usize {
        j * self.n1 + i
    }
}

impl NewtonSystem for Hb2System<'_> {
    fn dim(&self) -> usize {
        self.n() * self.n1 * self.n2
    }

    fn residual(&self, x: &[f64], out: &mut [f64]) {
        let n = self.n();
        out.fill(0.0);
        let mut q = vec![0.0; n];
        let mut f = vec![0.0; n];
        for j in 0..self.n2 {
            for i in 0..self.n1 {
                let src = self.gp(i, j) * n;
                let xj = &x[src..src + n];
                self.circuit.eval_q(xj, &mut q, None);
                // ∂/∂t1: scatter along the row (same j).
                for i2 in 0..self.n1 {
                    let d =
                        self.w1[(i2 as isize - i as isize).rem_euclid(self.n1 as isize) as usize];
                    if d != 0.0 {
                        let dst = self.gp(i2, j) * n;
                        for u in 0..n {
                            out[dst + u] += d * q[u];
                        }
                    }
                }
                // ∂/∂t2: scatter along the column (same i).
                for j2 in 0..self.n2 {
                    let d =
                        self.w2[(j2 as isize - j as isize).rem_euclid(self.n2 as isize) as usize];
                    if d != 0.0 {
                        let dst = self.gp(i, j2) * n;
                        for u in 0..n {
                            out[dst + u] += d * q[u];
                        }
                    }
                }
                self.circuit.eval_f(xj, &mut f, None);
                for u in 0..n {
                    out[src + u] += f[u] + self.b_cache[src + u];
                }
            }
        }
    }

    fn residual_and_jacobian(&self, x: &[f64], out: &mut [f64], jac: &mut Triplets) {
        let n = self.n();
        out.fill(0.0);
        let mut q = vec![0.0; n];
        let mut f = vec![0.0; n];
        for j in 0..self.n2 {
            for i in 0..self.n1 {
                let src = self.gp(i, j) * n;
                let xj = &x[src..src + n];
                let mut c_trip = Triplets::with_capacity(n, n, 8 * n);
                let mut g_trip = Triplets::with_capacity(n, n, 8 * n);
                self.circuit.eval_q(xj, &mut q, Some(&mut c_trip));
                self.circuit.eval_f(xj, &mut f, Some(&mut g_trip));
                let c = c_trip.to_csr();
                let scatter = |dst_gp: usize, d: f64, out: &mut [f64], jac: &mut Triplets| {
                    let dst = dst_gp * n;
                    for u in 0..n {
                        out[dst + u] += d * q[u];
                    }
                    for r in 0..n {
                        let (cols, vals) = c.row(r);
                        for (cc, v) in cols.iter().zip(vals) {
                            jac.push(dst + r, src + cc, d * v);
                        }
                    }
                };
                for i2 in 0..self.n1 {
                    let d =
                        self.w1[(i2 as isize - i as isize).rem_euclid(self.n1 as isize) as usize];
                    if d != 0.0 {
                        scatter(self.gp(i2, j), d, out, jac);
                    }
                }
                for j2 in 0..self.n2 {
                    let d =
                        self.w2[(j2 as isize - j as isize).rem_euclid(self.n2 as isize) as usize];
                    if d != 0.0 {
                        scatter(self.gp(i, j2), d, out, jac);
                    }
                }
                let g = g_trip.to_csr();
                for r in 0..n {
                    let (cols, vals) = g.row(r);
                    for (cc, v) in cols.iter().zip(vals) {
                        jac.push(src + r, src + cc, *v);
                    }
                }
                for u in 0..n {
                    out[src + u] += f[u] + self.b_cache[src + u];
                }
            }
        }
    }
}

/// Solves the two-tone HB (spectral MPDE) system on a `n1 × n2` grid with
/// periods `(period1, period2)`.
///
/// All time-varying sources must carry bivariate waveforms.
///
/// # Errors
///
/// Propagates missing-bivariate-source, DC and Newton failures.
pub fn hb2_solve(
    circuit: &Circuit,
    period1: f64,
    period2: f64,
    initial_guess: Option<&[f64]>,
    options: Hb2Options,
) -> Result<Hb2Result> {
    hb2_solve_budgeted(
        circuit,
        period1,
        period2,
        initial_guess,
        options,
        &mut LinearSolverWorkspace::new(),
        &rfsim_numerics::SolveBudget::unlimited(),
    )
}

/// [`hb2_solve`] with caller-owned linear-solver state, under a
/// [`SolveBudget`](rfsim_numerics::SolveBudget): the budget covers the DC
/// seed and the two-tone spectral Newton solve. The dense spectral
/// coupling makes the HB Jacobian expensive to analyse, so warm-started
/// re-solves on the same grid shape should share one workspace.
///
/// # Errors
///
/// [`rfsim_circuit::CircuitError::Interrupted`] when the budget stops a
/// solve, plus everything [`hb2_solve`] returns.
pub fn hb2_solve_budgeted(
    circuit: &Circuit,
    period1: f64,
    period2: f64,
    initial_guess: Option<&[f64]>,
    options: Hb2Options,
    workspace: &mut LinearSolverWorkspace,
    budget: &rfsim_numerics::SolveBudget,
) -> Result<Hb2Result> {
    let n = circuit.num_unknowns();
    let (n1, n2) = (options.n1.max(4), options.n2.max(4));
    let mut b_cache = vec![0.0; n1 * n2 * n];
    let mut b = vec![0.0; n];
    for j in 0..n2 {
        for i in 0..n1 {
            let t1 = period1 * i as f64 / n1 as f64;
            let t2 = period2 * j as f64 / n2 as f64;
            circuit.eval_b_bi(t1, t2, &mut b)?;
            let base = (j * n1 + i) * n;
            b_cache[base..base + n].copy_from_slice(&b);
        }
    }
    let sys = Hb2System {
        circuit,
        n1,
        n2,
        w1: spectral_weights(n1, period1),
        w2: spectral_weights(n2, period2),
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
            let mut v = Vec::with_capacity(n1 * n2 * n);
            for _ in 0..n1 * n2 {
                v.extend_from_slice(&op.solution);
            }
            v
        }
    };
    let mut kinds: Vec<UnknownKind> = Vec::with_capacity(n1 * n2 * n);
    for _ in 0..n1 * n2 {
        kinds.extend_from_slice(circuit.unknown_kinds());
    }
    let (samples, stats) =
        newton_solve_budgeted(&sys, &x0, &kinds, options.newton, workspace, budget)?;
    Ok(Hb2Result {
        period1,
        period2,
        shape: (n1, n2),
        samples,
        num_unknowns: n,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfsim_circuit::{BiWaveform, CircuitBuilder, Envelope, Waveform, GROUND};
    use std::f64::consts::PI;

    /// RC filter driven by the sum of two bivariate tones (one per axis).
    fn two_tone_rc() -> (Circuit, usize, f64, f64) {
        let (f1, f2) = (1e6, 1.1e6);
        let mut b = CircuitBuilder::new();
        let in1 = b.node("in1");
        let mid = b.node("mid");
        let out = b.node("out");
        b.vsource(
            "V1",
            in1,
            GROUND,
            BiWaveform::Axis1(Waveform::sine(1.0, f1)),
        )
        .expect("v1");
        // Second tone on the t2 axis, injected via a separate source & summing R.
        b.vsource(
            "V2",
            mid,
            GROUND,
            BiWaveform::Axis2(Waveform::sine(0.5, f2)),
        )
        .expect("v2");
        b.resistor("R1", in1, out, 1e3).expect("r1");
        b.resistor("R2", mid, out, 1e3).expect("r2");
        b.capacitor("C1", out, GROUND, 100e-12).expect("c");
        let ckt = b.build().expect("build");
        let idx = ckt
            .unknown_index_of_node(ckt.node_by_name("out").expect("out"))
            .expect("idx");
        (ckt, idx, f1, f2)
    }

    #[test]
    fn linear_two_tone_superposition() {
        // For a linear circuit the bivariate solution is the superposition
        // of the two single-tone responses; check amplitudes on each axis.
        let (ckt, out, f1, f2) = two_tone_rc();
        let res = hb2_solve(
            &ckt,
            1.0 / f1,
            1.0 / f2,
            None,
            Hb2Options {
                n1: 8,
                n2: 8,
                ..Default::default()
            },
        )
        .expect("hb2");
        // Analytic: each tone sees a divider (R into R‖C network).
        // Check via harmonics along each axis at the other axis's origin.
        let (n1, n2) = res.shape;
        // amplitude along t1 (average over j of per-row first harmonic)
        let mut row: Vec<f64> = Vec::with_capacity(n1);
        for i in 0..n1 {
            row.push(res.state(i, 0)[out]);
        }
        let a1 = rfsim_numerics::fft::harmonic_amplitude(&row, 1);
        let mut col: Vec<f64> = Vec::with_capacity(n2);
        for j in 0..n2 {
            col.push(res.state(0, j)[out]);
        }
        let a2 = rfsim_numerics::fft::harmonic_amplitude(&col, 1);
        // Thevenin: source through 1k, loaded by 1k + 100p.
        // At 1 MHz: Z_C = 1/(jωC) ≈ −j·1592 Ω.
        // |H| = |Z_p/(R1 + Z_p)| with Z_p = R2‖Z_C… compute numerically:
        let h = |f: f64| {
            let w = 2.0 * PI * f;
            let (rc_re, rc_im) = {
                // Z_p = R2·Z_C/(R2 + Z_C) with Z_C = 1/(jwC)
                let r2 = 1e3;
                let c = 100e-12;
                // Z_C = -j/(wC)
                let zc_im = -1.0 / (w * c);
                // numerator r2 * zc = r2*zc_im j; denominator r2 + j zc_im
                let den_re = r2;
                let den_im = zc_im;
                let num_re = 0.0;
                let num_im = r2 * zc_im;
                let d2 = den_re * den_re + den_im * den_im;
                (
                    (num_re * den_re + num_im * den_im) / d2,
                    (num_im * den_re - num_re * den_im) / d2,
                )
            };
            let den_re = 1e3 + rc_re;
            let den_im = rc_im;
            let d2 = den_re * den_re + den_im * den_im;
            ((rc_re * den_re + rc_im * den_im) / d2).hypot((rc_im * den_re - rc_re * den_im) / d2)
        };
        let expect1 = 1.0 * h(f1);
        let expect2 = 0.5 * h(f2);
        assert!(
            (a1 - expect1).abs() < 0.02,
            "axis-1 amplitude {a1} vs {expect1}"
        );
        assert!(
            (a2 - expect2).abs() < 0.02,
            "axis-2 amplitude {a2} vs {expect2}"
        );
    }

    #[test]
    fn ideal_mixer_difference_tone() {
        // Multiplier mixer: product of axis-1 and axis-2 tones terminated in
        // a resistor: v_out = K·R·cos(2πf1t1)·cos(2πf2t2). The t2 axis of
        // the solution carries the slow tone directly.
        let mut b = CircuitBuilder::new();
        let x = b.node("x");
        let y = b.node("y");
        let out = b.node("out");
        b.vsource(
            "VX",
            x,
            GROUND,
            BiWaveform::Axis1(Waveform::cosine(1.0, 1e6)),
        )
        .expect("vx");
        b.vsource(
            "VY",
            y,
            GROUND,
            BiWaveform::Axis2(Waveform::cosine(1.0, 0.9e6)),
        )
        .expect("vy");
        b.multiplier("MUL", out, GROUND, x, GROUND, y, GROUND, 1e-3)
            .expect("mul");
        b.resistor("RL", out, GROUND, 1e3).expect("rl");
        let ckt = b.build().expect("build");
        let out_idx = ckt
            .unknown_index_of_node(ckt.node_by_name("out").expect("out"))
            .expect("idx");
        let res = hb2_solve(
            &ckt,
            1.0 / 1e6,
            1.0 / 0.9e6,
            None,
            Hb2Options {
                n1: 8,
                n2: 8,
                ..Default::default()
            },
        )
        .expect("hb2");
        // Multiplier drives current K·vx·vy INTO out? Current flows p→n, so
        // v_out = −K·R·vx·vy; surface should equal ∓cos·cos product.
        for (i, j) in [(0, 0), (2, 3), (5, 7)] {
            let t1 = 1e-6 * i as f64 / 8.0;
            let t2 = (1.0 / 0.9e6) * j as f64 / 8.0;
            let expect = -1e-3 * 1e3 * (2.0 * PI * 1e6 * t1).cos() * (2.0 * PI * 0.9e6 * t2).cos();
            let got = res.state(i, j)[out_idx];
            assert!(
                (got - expect).abs() < 1e-6,
                "({i},{j}): got {got}, expect {expect}"
            );
        }
    }

    #[test]
    fn sheared_source_drives_grid() {
        // A sheared carrier with k=1: b̂(t1,t2) = cos(2π(f1·t1 − fd·t2)).
        // Feeding an RC filter, solution must stay bounded & periodic.
        let f1 = 1e6;
        let fd = 1e3;
        let mut b = CircuitBuilder::new();
        let inp = b.node("in");
        let out = b.node("out");
        b.vsource(
            "VRF",
            inp,
            GROUND,
            BiWaveform::ShearedCarrier {
                amplitude: 1.0,
                k: 1,
                f1,
                fd,
                phase: 0.0,
                envelope: Envelope::Unit,
            },
        )
        .expect("v");
        b.resistor("R1", inp, out, 1e3).expect("r");
        b.capacitor("C1", out, GROUND, 1e-9).expect("c");
        let ckt = b.build().expect("build");
        let out_idx = ckt
            .unknown_index_of_node(ckt.node_by_name("out").expect("out"))
            .expect("idx");
        let res = hb2_solve(
            &ckt,
            1.0 / f1,
            1.0 / fd,
            None,
            Hb2Options {
                n1: 8,
                n2: 8,
                ..Default::default()
            },
        )
        .expect("hb2");
        let surf = res.surface(out_idx);
        let peak = surf.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        assert!(
            peak > 0.1 && peak < 1.0,
            "plausible filtered amplitude: {peak}"
        );
    }

    #[test]
    fn workspace_symbolic_survives_sharp_drive_jump() {
        // Two-tone drive into a diode detector: the HB Jacobian's values
        // swing exponentially with the tone amplitude. A 40× jump on one
        // workspace must stay on the numeric-refresh path — one full
        // factorisation total and no vanished-pivot fallback.
        let detector = |amp: f64| {
            let (f1, f2) = (1e6, 1.1e6);
            let mut b = CircuitBuilder::new();
            let in1 = b.node("in1");
            let in2 = b.node("in2");
            let sum = b.node("sum");
            let out = b.node("out");
            b.vsource(
                "V1",
                in1,
                GROUND,
                BiWaveform::Axis1(Waveform::sine(amp, f1)),
            )
            .expect("v1");
            b.vsource(
                "V2",
                in2,
                GROUND,
                BiWaveform::Axis2(Waveform::sine(0.5 * amp, f2)),
            )
            .expect("v2");
            b.resistor("R1", in1, sum, 1e3).expect("r1");
            b.resistor("R2", in2, sum, 1e3).expect("r2");
            b.diode("D1", sum, out, Default::default()).expect("d");
            b.resistor("RL", out, GROUND, 10e3).expect("rl");
            b.capacitor("CL", out, GROUND, 100e-12).expect("cl");
            (b.build().expect("build"), 1.0 / f1, 1.0 / f2)
        };
        let opts = Hb2Options {
            n1: 8,
            n2: 4,
            ..Default::default()
        };
        let mut ws = LinearSolverWorkspace::new();
        let unlimited = rfsim_numerics::SolveBudget::unlimited();
        let (low_ckt, p1, p2) = detector(0.05);
        let low =
            hb2_solve_budgeted(&low_ckt, p1, p2, None, opts, &mut ws, &unlimited).expect("low");
        let (high_ckt, p1, p2) = detector(2.0);
        let guess = Some(low.samples.as_slice());
        hb2_solve_budgeted(&high_ckt, p1, p2, guess, opts, &mut ws, &unlimited).expect("high");
        assert_eq!(
            ws.stats.full_factorizations, 1,
            "the jump must not discard the symbolic analysis: {:?}",
            ws.stats
        );
        assert_eq!(ws.stats.full_fallbacks, 0, "{:?}", ws.stats);
        assert!(ws.stats.refactorizations >= 2, "{:?}", ws.stats);
    }
}
