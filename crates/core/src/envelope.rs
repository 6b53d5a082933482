//! Envelope following: time stepping along the slow axis.
//!
//! One of the time-domain MPDE solution methods of [Roychowdhury 2001]:
//! discretise `∂/∂t2` by backward Euler and march row by row; each row is a
//! 1-D periodic problem along `t1` (same structure as
//! `rfsim_shooting::periodic_fd`, plus the slow-derivative term).
//! Marching one full slow period gives an approximately `t2`-periodic
//! solution; repeated sweeps converge to the steady state for contracting
//! (dissipative) circuits. The global-Newton solver uses a sweep or two as
//! a high-quality initial guess.

use rfsim_circuit::driver::NewtonProfile;
use rfsim_circuit::newton::{
    newton_solve_budgeted, LinearSolverWorkspace, NewtonOptions, NewtonSystem,
};
use rfsim_circuit::{Circuit, Result, UnknownKind};
use rfsim_numerics::diff::DiffScheme;
use rfsim_numerics::sparse::Triplets;
use rfsim_numerics::SolveBudget;

use crate::grid::{MultitimeGrid, MultitimeSolution};

/// Options for [`envelope_follow_budgeted`].
#[derive(Debug, Clone, Copy)]
pub struct EnvelopeOptions {
    /// Fast-axis differentiation scheme.
    pub scheme1: DiffScheme,
    /// Sweeps over the slow period (≥1). More sweeps → better
    /// `t2`-periodicity.
    pub sweeps: usize,
    /// Newton options for the per-row solves.
    pub newton: NewtonOptions,
}

impl Default for EnvelopeOptions {
    fn default() -> Self {
        EnvelopeOptions {
            scheme1: DiffScheme::default(),
            sweeps: 2,
            // Each row is a 1-D periodic boundary-value problem — the
            // steady-state profile's deeper budget.
            newton: NewtonProfile::SteadyState.options(),
        }
    }
}

/// One slow-axis row's nonlinear system: periodic in `t1`, backward-Euler
/// coupled to the previous row in `t2`.
struct RowSystem<'a> {
    circuit: &'a Circuit,
    n1: usize,
    t1_period: f64,
    scheme1: DiffScheme,
    /// `1/h2`, or 0 for the quasi-static initial row (no slow derivative).
    inv_h2: f64,
    /// Charge at the previous row, flattened `n1 × n`.
    q_prev: Vec<f64>,
    /// Excitation at this row, flattened `n1 × n`.
    b_row: Vec<f64>,
}

impl RowSystem<'_> {
    fn n(&self) -> usize {
        self.circuit.num_unknowns()
    }
}

impl NewtonSystem for RowSystem<'_> {
    fn dim(&self) -> usize {
        self.n() * self.n1
    }

    fn residual(&self, x: &[f64], out: &mut [f64]) {
        let n = self.n();
        let h1 = self.t1_period / self.n1 as f64;
        out.fill(0.0);
        let mut q = vec![0.0; n];
        let mut f = vec![0.0; n];
        for i in 0..self.n1 {
            let src = i * n;
            let xi = &x[src..src + n];
            self.circuit.eval_q(xi, &mut q, None);
            for &(off, w) in self.scheme1.stencil() {
                let row = (i as isize - off).rem_euclid(self.n1 as isize) as usize;
                for u in 0..n {
                    out[row * n + u] += w / h1 * q[u];
                }
            }
            self.circuit.eval_f(xi, &mut f, None);
            for u in 0..n {
                out[src + u] +=
                    f[u] + self.b_row[src + u] + self.inv_h2 * (q[u] - self.q_prev[src + u]);
            }
        }
    }

    fn residual_and_jacobian(&self, x: &[f64], out: &mut [f64], jac: &mut Triplets) {
        let n = self.n();
        let h1 = self.t1_period / self.n1 as f64;
        out.fill(0.0);
        let mut q = vec![0.0; n];
        let mut f = vec![0.0; n];
        for i in 0..self.n1 {
            let src = i * n;
            let xi = &x[src..src + n];
            let mut c_trip = Triplets::with_capacity(n, n, 8 * n);
            let mut g_trip = Triplets::with_capacity(n, n, 8 * n);
            self.circuit.eval_q(xi, &mut q, Some(&mut c_trip));
            self.circuit.eval_f(xi, &mut f, Some(&mut g_trip));
            let c = c_trip.to_csr();
            for &(off, w) in self.scheme1.stencil() {
                let row_blk = (i as isize - off).rem_euclid(self.n1 as isize) as usize;
                for u in 0..n {
                    out[row_blk * n + u] += w / h1 * q[u];
                }
                for r in 0..n {
                    let (cols, vals) = c.row(r);
                    for (cc, v) in cols.iter().zip(vals) {
                        jac.push(row_blk * n + r, src + cc, w / h1 * v);
                    }
                }
            }
            // Slow BE term: ∂/∂x of inv_h2·q(x_i) on the diagonal block.
            if self.inv_h2 != 0.0 {
                for r in 0..n {
                    let (cols, vals) = c.row(r);
                    for (cc, v) in cols.iter().zip(vals) {
                        jac.push(src + r, src + cc, self.inv_h2 * v);
                    }
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
                out[src + u] +=
                    f[u] + self.b_row[src + u] + self.inv_h2 * (q[u] - self.q_prev[src + u]);
            }
        }
    }
}

/// Solves the MPDE by envelope following over `sweeps` slow periods and
/// returns the last sweep as a multitime solution, under a
/// [`SolveBudget`]: the budget covers the DC seed and every per-row Newton
/// solve of every sweep.
///
/// # Errors
///
/// Propagates DC and Newton failures (including missing bivariate
/// sources), and [`rfsim_circuit::CircuitError::Interrupted`] when the
/// budget stops a solve.
pub fn envelope_follow_budgeted(
    circuit: &Circuit,
    grid: MultitimeGrid,
    options: EnvelopeOptions,
    budget: &SolveBudget,
) -> Result<MultitimeSolution> {
    let n = circuit.num_unknowns();
    let (n1, n2) = grid.shape();
    let h2 = grid.h2();
    let mut kinds: Vec<UnknownKind> = Vec::with_capacity(n1 * n);
    for _ in 0..n1 {
        kinds.extend_from_slice(circuit.unknown_kinds());
    }

    // Excitation rows.
    let mut b_rows = Vec::with_capacity(n2);
    let mut b = vec![0.0; n];
    for j in 0..n2 {
        let mut row = vec![0.0; n1 * n];
        for i in 0..n1 {
            circuit.eval_b_bi(grid.t1(i), grid.t2(j), &mut b)?;
            row[i * n..(i + 1) * n].copy_from_slice(&b);
        }
        b_rows.push(row);
    }

    // Quasi-static initial row (no slow derivative) at j = 0.
    let dc = rfsim_circuit::dcop::dc_operating_point_budgeted(circuit, Default::default(), budget)?;
    let mut row_guess = Vec::with_capacity(n1 * n);
    for _ in 0..n1 {
        row_guess.extend_from_slice(&dc.solution);
    }
    let sys0 = RowSystem {
        circuit,
        n1,
        t1_period: grid.t1_period(),
        scheme1: options.scheme1,
        inv_h2: 0.0,
        q_prev: vec![0.0; n1 * n],
        b_row: b_rows[0].clone(),
    };
    // All row systems share one Jacobian structure (inv_h2 only scales
    // values): one workspace serves the whole sweep.
    let mut workspace = LinearSolverWorkspace::new();
    let newton = options.newton;
    let (mut row, _) =
        newton_solve_budgeted(&sys0, &row_guess, &kinds, newton, &mut workspace, budget)?;

    let mut data = vec![0.0; n1 * n2 * n];
    let mut q_prev = row_charge(circuit, &row, n1);
    for sweep in 0..options.sweeps.max(1) {
        for j in 0..n2 {
            // Row 0 of later sweeps wraps around from the last row, which is
            // what enforces t2-periodicity.
            if !(sweep == 0 && j == 0) {
                let sys = RowSystem {
                    circuit,
                    n1,
                    t1_period: grid.t1_period(),
                    scheme1: options.scheme1,
                    inv_h2: 1.0 / h2,
                    q_prev: q_prev.clone(),
                    b_row: b_rows[j].clone(),
                };
                let (new_row, _) =
                    newton_solve_budgeted(&sys, &row, &kinds, newton, &mut workspace, budget)?;
                row = new_row;
                q_prev = row_charge(circuit, &row, n1);
            }
            // Store this row (grid layout: point(i,j)*n).
            for i in 0..n1 {
                let dst = grid.point(i, j) * n;
                data[dst..dst + n].copy_from_slice(&row[i * n..(i + 1) * n]);
            }
        }
    }
    Ok(MultitimeSolution::new(grid, n, data))
}

fn row_charge(circuit: &Circuit, row: &[f64], n1: usize) -> Vec<f64> {
    let n = circuit.num_unknowns();
    let mut out = vec![0.0; n1 * n];
    let mut q = vec![0.0; n];
    for i in 0..n1 {
        circuit.eval_q(&row[i * n..(i + 1) * n], &mut q, None);
        out[i * n..(i + 1) * n].copy_from_slice(&q);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfsim_circuit::{BiWaveform, CircuitBuilder, Envelope, GROUND};
    use std::f64::consts::PI;

    #[test]
    fn rc_envelope_tracks_slow_modulation() {
        // RC low-pass (fast pole) driven by a sheared carrier with a slow
        // envelope: after following, the t2 axis shows the modulation.
        let (f1, fd) = (10e6, 10e3);
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
        b.resistor("R1", inp, out, 100.0).expect("r");
        b.capacitor("C1", out, GROUND, 10e-12).expect("c");
        let ckt = b.build().expect("build");
        let out_idx = ckt
            .unknown_index_of_node(ckt.node_by_name("out").expect("out"))
            .expect("idx");
        let grid = MultitimeGrid::new(32, 16, 1.0 / f1, 1.0 / fd);
        let sol = envelope_follow_budgeted(
            &ckt,
            grid,
            EnvelopeOptions {
                scheme1: DiffScheme::Central2,
                sweeps: 3,
                ..Default::default()
            },
            &SolveBudget::unlimited(),
        )
        .expect("envelope");
        // RC pole at 1/(2π·100·10p) ≈ 159 MHz ≫ f1: output ≈ input.
        // At t1 = 0: x̂(0, t2) ≈ cos(−2π·fd·t2) = cos(2π·fd·t2).
        let slice = sol.t2_slice(out_idx, 0);
        for (j, v) in slice.iter().enumerate() {
            let expect = (2.0 * PI * j as f64 / 16.0).cos();
            assert!((v - expect).abs() < 0.12, "j={j}: got {v}, expect {expect}");
        }
    }

    #[test]
    fn sweeps_improve_t2_periodicity() {
        let (f1, fd) = (10e6, 100e3);
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
                envelope: Envelope::bits(vec![true, false], 0.2),
            },
        )
        .expect("v");
        // Slow RC: time constant comparable to Td → real envelope dynamics.
        b.resistor("R1", inp, out, 1e3).expect("r");
        b.capacitor("C1", out, GROUND, 2e-9).expect("c");
        let ckt = b.build().expect("build");
        let out_idx = ckt
            .unknown_index_of_node(ckt.node_by_name("out").expect("out"))
            .expect("idx");
        let grid = MultitimeGrid::new(16, 32, 1.0 / f1, 1.0 / fd);
        let mismatch = |sweeps: usize| {
            let sol = envelope_follow_budgeted(
                &ckt,
                grid,
                EnvelopeOptions {
                    sweeps,
                    ..Default::default()
                },
                &SolveBudget::unlimited(),
            )
            .expect("envelope");
            // t2-periodicity proxy: row 0 vs a backward-Euler step from the
            // final row (they should coincide at steady state). Compare the
            // first and last rows' envelope values.
            let env = sol.envelope(out_idx);
            (env[0] - env[31]).abs()
        };
        let m1 = mismatch(1);
        let m3 = mismatch(3);
        assert!(
            m3 <= m1 + 1e-12,
            "more sweeps should not worsen periodicity: {m1} -> {m3}"
        );
    }
}
