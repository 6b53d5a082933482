//! The finite-difference MPDE system (the paper's §2, discretised).
//!
//! On the periodic grid `[0,T1) × [0,T2)` the MPDE
//!
//! ```text
//! ∂q(x̂)/∂t1 + ∂q(x̂)/∂t2 + f(x̂) + b̂(t1,t2) = 0
//! ```
//!
//! is collocated with sparse periodic difference stencils along each axis
//! (backward Euler by default — the robust choice for switching circuits;
//! central or BDF2 for higher accuracy). The resulting `n·N1·N2` nonlinear
//! system is handed to the damped Newton solver; its Jacobian couples each
//! grid point to its stencil neighbours only, so sparse LU with RCM
//! ordering (GMRES with one block-Jacobi block per grid point on large
//! grids) stays tractable — this is the structural reason the method
//! beats 300 000-step shooting.
//!
//! Two homotopy knobs support the continuation solver:
//! * `lambda` scales the AC part of the excitation
//!   (`b_eff = b_dc + λ·(b̂ − b_dc)`),
//! * `gmin` adds a shunt conductance on every node-voltage row.

use rfsim_circuit::newton::NewtonSystem;
use rfsim_circuit::{Circuit, Result, UnknownKind};
use rfsim_numerics::diff::DiffScheme;
use rfsim_numerics::sparse::Triplets;

use crate::grid::MultitimeGrid;

/// The assembled MPDE collocation system for a given circuit and grid.
pub struct MpdeSystem<'a> {
    circuit: &'a Circuit,
    grid: MultitimeGrid,
    scheme1: DiffScheme,
    scheme2: DiffScheme,
    /// Bivariate excitation at each grid point (flattened like solutions).
    b_full: Vec<f64>,
    /// DC excitation (one circuit-sized vector).
    b_dc: Vec<f64>,
    /// Homotopy parameter scaling the AC excitation.
    lambda: f64,
    /// Shunt conductance added on node-voltage rows.
    gmin: f64,
    kinds: Vec<UnknownKind>,
}

impl<'a> MpdeSystem<'a> {
    /// Builds the system, caching the excitation on the grid.
    ///
    /// # Errors
    ///
    /// Fails if some time-varying source lacks a bivariate waveform.
    pub fn new(
        circuit: &'a Circuit,
        grid: MultitimeGrid,
        scheme1: DiffScheme,
        scheme2: DiffScheme,
    ) -> Result<Self> {
        let n = circuit.num_unknowns();
        let (n1, n2) = grid.shape();
        let mut b_full = vec![0.0; n1 * n2 * n];
        let mut b = vec![0.0; n];
        for j in 0..n2 {
            for i in 0..n1 {
                circuit.eval_b_bi(grid.t1(i), grid.t2(j), &mut b)?;
                let base = grid.point(i, j) * n;
                b_full[base..base + n].copy_from_slice(&b);
            }
        }
        let mut b_dc = vec![0.0; n];
        circuit.eval_b_dc(&mut b_dc);
        let mut kinds = Vec::with_capacity(n1 * n2 * n);
        for _ in 0..n1 * n2 {
            kinds.extend_from_slice(circuit.unknown_kinds());
        }
        Ok(MpdeSystem {
            circuit,
            grid,
            scheme1,
            scheme2,
            b_full,
            b_dc,
            lambda: 1.0,
            gmin: 0.0,
            kinds,
        })
    }

    /// The grid this system is collocated on.
    pub fn grid(&self) -> MultitimeGrid {
        self.grid
    }

    /// Per-unknown kinds replicated over the grid (for Newton tolerances).
    pub fn kinds(&self) -> &[UnknownKind] {
        &self.kinds
    }

    /// Sets the source homotopy parameter (`1.0` = full excitation).
    pub fn set_lambda(&mut self, lambda: f64) {
        self.lambda = lambda;
    }

    /// Sets the shunt conductance homotopy parameter (`0.0` = none).
    pub fn set_gmin(&mut self, gmin: f64) {
        self.gmin = gmin;
    }

    /// Effective excitation at a grid point under the current `lambda`.
    #[inline]
    fn b_eff(&self, flat_base: usize, u: usize) -> f64 {
        let full = self.b_full[flat_base + u];
        let dc = self.b_dc[u];
        dc + self.lambda * (full - dc)
    }

    fn n(&self) -> usize {
        self.circuit.num_unknowns()
    }
}

impl NewtonSystem for MpdeSystem<'_> {
    fn dim(&self) -> usize {
        self.n() * self.grid.num_points()
    }

    fn residual(&self, x: &[f64], out: &mut [f64]) {
        let n = self.n();
        let (n1, n2) = self.grid.shape();
        let (h1, h2) = (self.grid.h1(), self.grid.h2());
        out.fill(0.0);
        let mut q = vec![0.0; n];
        let mut f = vec![0.0; n];
        for j in 0..n2 {
            for i in 0..n1 {
                let src = self.grid.point(i, j) * n;
                let xj = &x[src..src + n];
                self.circuit.eval_q(xj, &mut q, None);
                // ∂/∂t1 stencil: q(x_{i,j}) feeds rows (i − off, j).
                for &(off, w) in self.scheme1.stencil() {
                    let row_i = (i as isize - off).rem_euclid(n1 as isize) as usize;
                    let dst = self.grid.point(row_i, j) * n;
                    let c = w / h1;
                    for u in 0..n {
                        out[dst + u] += c * q[u];
                    }
                }
                // ∂/∂t2 stencil: rows (i, j − off).
                for &(off, w) in self.scheme2.stencil() {
                    let row_j = (j as isize - off).rem_euclid(n2 as isize) as usize;
                    let dst = self.grid.point(i, row_j) * n;
                    let c = w / h2;
                    for u in 0..n {
                        out[dst + u] += c * q[u];
                    }
                }
                self.circuit.eval_f(xj, &mut f, None);
                for u in 0..n {
                    out[src + u] += f[u] + self.b_eff(src, u);
                    if self.gmin != 0.0 && self.kinds[src + u] == UnknownKind::NodeVoltage {
                        out[src + u] += self.gmin * xj[u];
                    }
                }
            }
        }
    }

    /// Also declares the Jacobian's block size, `n` unknowns per grid
    /// point, for the Newton grid policy
    /// ([`LinearSolver::Auto`](rfsim_circuit::newton::LinearSolver::Auto)).
    fn residual_and_jacobian(&self, x: &[f64], out: &mut [f64], jac: &mut Triplets) {
        let n = self.n();
        let (n1, n2) = self.grid.shape();
        let (h1, h2) = (self.grid.h1(), self.grid.h2());
        jac.declare_block_size(n);
        out.fill(0.0);
        let mut q = vec![0.0; n];
        let mut f = vec![0.0; n];
        // Per-point stamp scratch, reused across the grid.
        let mut c_trip = Triplets::with_capacity(n, n, 8 * n);
        let mut g_trip = Triplets::with_capacity(n, n, 8 * n);
        let mut c = c_trip.to_csr();
        let mut g = g_trip.to_csr();
        for j in 0..n2 {
            for i in 0..n1 {
                let src = self.grid.point(i, j) * n;
                let xj = &x[src..src + n];
                c_trip.clear();
                g_trip.clear();
                self.circuit.eval_q(xj, &mut q, Some(&mut c_trip));
                self.circuit.eval_f(xj, &mut f, Some(&mut g_trip));
                c_trip.to_csr_into(&mut c);
                let scatter = |dst_gp: usize, coeff: f64, out: &mut [f64], jac: &mut Triplets| {
                    let dst = dst_gp * n;
                    for u in 0..n {
                        out[dst + u] += coeff * q[u];
                    }
                    for r in 0..n {
                        let (cols, vals) = c.row(r);
                        for (cc, v) in cols.iter().zip(vals) {
                            jac.push(dst + r, src + cc, coeff * v);
                        }
                    }
                };
                for &(off, w) in self.scheme1.stencil() {
                    let row_i = (i as isize - off).rem_euclid(n1 as isize) as usize;
                    scatter(self.grid.point(row_i, j), w / h1, out, jac);
                }
                for &(off, w) in self.scheme2.stencil() {
                    let row_j = (j as isize - off).rem_euclid(n2 as isize) as usize;
                    scatter(self.grid.point(i, row_j), w / h2, out, jac);
                }
                g_trip.to_csr_into(&mut g);
                for r in 0..n {
                    let (cols, vals) = g.row(r);
                    for (cc, v) in cols.iter().zip(vals) {
                        jac.push(src + r, src + cc, *v);
                    }
                }
                for u in 0..n {
                    out[src + u] += f[u] + self.b_eff(src, u);
                    if self.gmin != 0.0 && self.kinds[src + u] == UnknownKind::NodeVoltage {
                        out[src + u] += self.gmin * xj[u];
                        jac.push(src + u, src + u, self.gmin);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfsim_circuit::{BiWaveform, CircuitBuilder, Envelope, GROUND};
    use rfsim_numerics::vector::norm_inf;

    fn rc_sheared(f1: f64, fd: f64) -> Circuit {
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
        b.build().expect("build")
    }

    #[test]
    fn jacobian_matches_finite_difference() {
        let ckt = rc_sheared(1e6, 1e3);
        let grid = MultitimeGrid::new(4, 3, 1e-6, 1e-3);
        let sys = MpdeSystem::new(
            &ckt,
            grid,
            DiffScheme::BackwardEuler,
            DiffScheme::BackwardEuler,
        )
        .expect("system");
        let dim = sys.dim();
        let x0: Vec<f64> = (0..dim)
            .map(|k| ((k * 13 % 7) as f64) * 0.1 - 0.3)
            .collect();
        let mut f0 = vec![0.0; dim];
        let mut jac = Triplets::new(dim, dim);
        sys.residual_and_jacobian(&x0, &mut f0, &mut jac);
        assert_eq!(jac.block_size(), Some(ckt.num_unknowns()));
        let jm = jac.to_csr();
        let h = 1e-6;
        let mut fp = vec![0.0; dim];
        for col in (0..dim).step_by(5) {
            let mut xp = x0.clone();
            xp[col] += h;
            sys.residual(&xp, &mut fp);
            for row in 0..dim {
                let fd = (fp[row] - f0[row]) / h;
                let j = jm.get(row, col);
                assert!(
                    (j - fd).abs() < 1e-3 * (1.0 + j.abs()),
                    "J[{row}][{col}] = {j} vs fd {fd}"
                );
            }
        }
    }

    #[test]
    fn residual_and_jacobian_agree_on_residual() {
        let ckt = rc_sheared(1e6, 1e3);
        let grid = MultitimeGrid::new(6, 4, 1e-6, 1e-3);
        let sys = MpdeSystem::new(&ckt, grid, DiffScheme::Central2, DiffScheme::BackwardEuler)
            .expect("system");
        let dim = sys.dim();
        let x: Vec<f64> = (0..dim).map(|k| (k as f64 * 0.7).sin()).collect();
        let mut r1 = vec![0.0; dim];
        let mut r2 = vec![0.0; dim];
        let mut jac = Triplets::new(dim, dim);
        sys.residual(&x, &mut r1);
        sys.residual_and_jacobian(&x, &mut r2, &mut jac);
        let d: Vec<f64> = r1.iter().zip(&r2).map(|(a, b)| a - b).collect();
        assert!(norm_inf(&d) < 1e-12);
    }

    #[test]
    fn lambda_zero_removes_ac_excitation() {
        let ckt = rc_sheared(1e6, 1e3);
        let grid = MultitimeGrid::new(4, 4, 1e-6, 1e-3);
        let mut sys = MpdeSystem::new(
            &ckt,
            grid,
            DiffScheme::BackwardEuler,
            DiffScheme::BackwardEuler,
        )
        .expect("system");
        sys.set_lambda(0.0);
        // With λ=0 the excitation is DC (here: zero) → x = 0 solves exactly.
        let dim = sys.dim();
        let x = vec![0.0; dim];
        let mut r = vec![0.0; dim];
        sys.residual(&x, &mut r);
        assert!(norm_inf(&r) < 1e-14, "residual at λ=0: {}", norm_inf(&r));
    }

    #[test]
    fn gmin_adds_diagonal_on_voltage_rows() {
        let ckt = rc_sheared(1e6, 1e3);
        let grid = MultitimeGrid::new(2, 2, 1e-6, 1e-3);
        let mut sys = MpdeSystem::new(
            &ckt,
            grid,
            DiffScheme::BackwardEuler,
            DiffScheme::BackwardEuler,
        )
        .expect("system");
        sys.set_gmin(1e-3);
        sys.set_lambda(0.0);
        let dim = sys.dim();
        let x = vec![1.0; dim];
        let mut r_on = vec![0.0; dim];
        sys.residual(&x, &mut r_on);
        sys.set_gmin(0.0);
        let mut r_off = vec![0.0; dim];
        sys.residual(&x, &mut r_off);
        // Voltage rows differ by exactly gmin·1.0.
        let n = ckt.num_unknowns();
        for p in 0..grid.num_points() {
            for u in 0..n {
                let diff = r_on[p * n + u] - r_off[p * n + u];
                match ckt.unknown_kinds()[u] {
                    UnknownKind::NodeVoltage => assert!((diff - 1e-3).abs() < 1e-15),
                    UnknownKind::BranchCurrent => assert!(diff.abs() < 1e-15),
                }
            }
        }
    }
}
