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
//! One homotopy knob supports the continuation solver: `lambda` scales
//! the AC part of the excitation (`b_eff = b_dc + λ·(b̂ − b_dc)`).
//!
//! # The compiled Jacobian
//!
//! The grid Jacobian's pattern depends only on the circuit, the grid and
//! the stencils, so [`MpdeSystem::new`] compiles it once: the global CSR
//! pattern, and the value slot of every contribution (each grid point's
//! charge Jacobian `C` once per stencil entry, its conductance Jacobian
//! `G` once). A fresh Newton Jacobian is then one pass over the grid that
//! adds each point's scaled local values straight into the CSR values
//! ([`NewtonSystem::residual_and_compiled_jacobian`]). Every slot sums
//! its contributions in assembly order (grid point, stencil entry, local
//! entry), the order in which the per-point triplet assembly kept as this
//! module's test oracle pushes them, so the two agree bit for bit.
//! [`NewtonSystem::residual_and_jacobian`] exports the same matrix as one
//! triplet per stored entry, for wrappers that forward only that method.

use rfsim_circuit::newton::{CompiledJacobian, NewtonSystem};
use rfsim_circuit::{Circuit, Result, UnknownKind};
use rfsim_numerics::diff::DiffScheme;
use rfsim_numerics::sparse::{CsrAssembly, CsrMatrix, Triplets};

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
    kinds: Vec<UnknownKind>,
    /// The Jacobian's pattern and value slots, compiled by `new`.
    jacobian: GridJacobian,
}

impl<'a> MpdeSystem<'a> {
    /// Builds the system, caching the excitation on the grid and compiling
    /// the Jacobian's pattern.
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
            kinds,
            jacobian: GridJacobian::compile(circuit, grid, scheme1, scheme2),
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

    /// [`stencil_targets`] of grid point `(i, j)` on this system's grid.
    fn targets(&self, i: usize, j: usize) -> impl Iterator<Item = (usize, f64)> {
        stencil_targets(self.grid, self.scheme1, self.scheme2, i, j)
    }

    /// Evaluates `F(x)` into `out` and the Jacobian's values, laid out as
    /// the compiled pattern, into `values`.
    ///
    /// # Panics
    ///
    /// Panics if the stamp sequence at some grid point differs from the
    /// one the Jacobian was compiled from: a broken
    /// [`Device`](rfsim_circuit::devices::Device) contract, reported
    /// rather than answered with a wrong Jacobian.
    fn assemble(&self, x: &[f64], out: &mut [f64], values: &mut [f64]) {
        let n = self.n();
        let (n1, n2) = self.grid.shape();
        let jac = &self.jacobian;
        out.fill(0.0);
        values.fill(0.0);
        let mut q = vec![0.0; n];
        let mut f = vec![0.0; n];
        // Per-point stamp scratch, reused across the grid.
        let mut c_trip = Triplets::with_capacity(n, n, 8 * n);
        let mut g_trip = Triplets::with_capacity(n, n, 8 * n);
        let mut c = jac.c_local.zero_matrix();
        let mut g = jac.g_local.zero_matrix();
        let mut slot = 0;
        for j in 0..n2 {
            for i in 0..n1 {
                let src = self.grid.point(i, j) * n;
                let xj = &x[src..src + n];
                c_trip.clear();
                g_trip.clear();
                self.circuit.eval_q(xj, &mut q, Some(&mut c_trip));
                self.circuit.eval_f(xj, &mut f, Some(&mut g_trip));
                assert!(
                    jac.c_local.scatter(&c_trip, &mut c) && jac.g_local.scatter(&g_trip, &mut g),
                    "MPDE Jacobian: the stamp sequence at grid point ({i}, {j}) differs from \
                     the compiled one (device stamps must not depend on the state)"
                );
                for (dst, coeff) in self.targets(i, j) {
                    let dst = dst * n;
                    for u in 0..n {
                        out[dst + u] += coeff * q[u];
                    }
                    let slots = &jac.slots[slot..slot + c.nnz()];
                    for (&s, &v) in slots.iter().zip(c.data()) {
                        values[s as usize] += coeff * v;
                    }
                    slot += c.nnz();
                }
                let slots = &jac.slots[slot..slot + g.nnz()];
                for (&s, &v) in slots.iter().zip(g.data()) {
                    values[s as usize] += v;
                }
                slot += g.nnz();
                for u in 0..n {
                    out[src + u] += f[u] + self.b_eff(src, u);
                }
            }
        }
    }
}

/// The grid points whose rows the charge at point `(i, j)` feeds, each
/// with its stencil coefficient, in assembly order: every axis-1 entry
/// (rows `(i − off, j)`), then every axis-2 entry (rows `(i, j − off)`).
fn stencil_targets(
    grid: MultitimeGrid,
    scheme1: DiffScheme,
    scheme2: DiffScheme,
    i: usize,
    j: usize,
) -> impl Iterator<Item = (usize, f64)> {
    let (n1, n2) = grid.shape();
    let (h1, h2) = (grid.h1(), grid.h2());
    let axis1 = scheme1.stencil().iter().map(move |&(off, w)| {
        let row_i = (i as isize - off).rem_euclid(n1 as isize) as usize;
        (grid.point(row_i, j), w / h1)
    });
    let axis2 = scheme2.stencil().iter().map(move |&(off, w)| {
        let row_j = (j as isize - off).rem_euclid(n2 as isize) as usize;
        (grid.point(i, row_j), w / h2)
    });
    axis1.chain(axis2)
}

/// The grid Jacobian compiled once per circuit and grid.
struct GridJacobian {
    /// Verifies a grid point's `C` stamp sequence and sums its duplicates.
    c_local: CsrAssembly,
    /// The same for `G`.
    g_local: CsrAssembly,
    /// The global CSR pattern, zero-valued.
    pattern: CsrMatrix,
    /// The value slot of every contribution, in assembly order: grid
    /// points in flat order and, for each, every stencil target's `C`
    /// entries, then the point's own `G` entries.
    slots: Vec<u32>,
}

impl GridJacobian {
    /// Compiles the pattern from the circuit's stamp sequences (which
    /// depend on its parameters only, so any state will do) and the
    /// stencils.
    ///
    /// Row `(d, r)` of the pattern is, for each grid point `p` whose
    /// charge feeds point `d` or that is `d` itself, in ascending order of
    /// `p`: the union of row `r` of `C` (if `p`'s charge feeds `d`) and of
    /// `G` (if `p == d`), shifted to `p`'s columns. Building the rows that
    /// way, point by point, places every contribution as it goes: no
    /// sort of the whole pattern and no search for a slot.
    fn compile(
        circuit: &Circuit,
        grid: MultitimeGrid,
        scheme1: DiffScheme,
        scheme2: DiffScheme,
    ) -> Self {
        let n = circuit.num_unknowns();
        let (g_trip, c_trip) = circuit.jacobians_at(&vec![0.0; n]);
        let c_local = CsrAssembly::new(&c_trip);
        let g_local = CsrAssembly::new(&g_trip);
        let (c, g) = (c_local.zero_matrix(), g_local.zero_matrix());
        let (n1, n2) = grid.shape();
        let (stencil1, stencil2) = (scheme1.stencil(), scheme2.stencil());
        let targets = stencil1.len() + stencil2.len();
        // Each point's slots in assembly order: every target's `C`
        // entries, then the point's `G` entries.
        let per_point = targets * c.nnz() + g.nnz();
        let mut slots = vec![u32::MAX; grid.num_points() * per_point];
        let mut indptr = Vec::with_capacity(n * grid.num_points() + 1);
        // At most one entry per contribution.
        let mut indices = Vec::with_capacity(slots.len());
        indptr.push(0);
        // `(p, t)`: point `p`'s target `t` is the current point `d`.
        let mut sources: Vec<(usize, usize)> = Vec::with_capacity(targets);
        // `(p, lo, hi)`: `d`'s row blocks in column order, each with the
        // `sources[lo..hi]` that feed it (none for a `G`-only block).
        let mut blocks: Vec<(usize, usize, usize)> = Vec::with_capacity(targets + 1);
        for dj in 0..n2 {
            for di in 0..n1 {
                let d = grid.point(di, dj);
                // The inverse of `stencil_targets`: an axis-1 entry feeds
                // rows `(i − off, j)`, so `d` hears from `(di + off, dj)`.
                sources.clear();
                for (t, &(off, _)) in stencil1.iter().enumerate() {
                    let i = (di as isize + off).rem_euclid(n1 as isize) as usize;
                    sources.push((grid.point(i, dj), t));
                }
                for (t, &(off, _)) in stencil2.iter().enumerate() {
                    let j = (dj as isize + off).rem_euclid(n2 as isize) as usize;
                    sources.push((grid.point(di, j), stencil1.len() + t));
                }
                sources.sort_unstable();
                blocks.clear();
                let mut lo = 0;
                while lo < sources.len() {
                    let p = sources[lo].0;
                    let hi = lo + sources[lo..].iter().take_while(|s| s.0 == p).count();
                    blocks.push((p, lo, hi));
                    lo = hi;
                }
                if !blocks.iter().any(|&(p, _, _)| p == d) {
                    let at = blocks.partition_point(|&(p, _, _)| p < d);
                    blocks.insert(at, (d, 0, 0));
                }
                for r in 0..n {
                    for &(p, lo, hi) in &blocks {
                        // Row `r` of `C` if `p`'s charge feeds `d`, of `G`
                        // if `p` is `d`, as ranges of local entries.
                        let (mut a, a_end) = if lo < hi {
                            (c.indptr()[r], c.indptr()[r + 1])
                        } else {
                            (0, 0)
                        };
                        let (mut b, b_end) = if p == d {
                            (g.indptr()[r], g.indptr()[r + 1])
                        } else {
                            (0, 0)
                        };
                        let col_at = |m: &CsrMatrix, k: usize, end: usize| {
                            if k < end {
                                m.indices()[k]
                            } else {
                                usize::MAX
                            }
                        };
                        // Merge the two sorted rows, placing each entry's
                        // contributions at its global position.
                        while a < a_end || b < b_end {
                            let (ca, cb) = (col_at(&c, a, a_end), col_at(&g, b, b_end));
                            let col = ca.min(cb);
                            let pos = u32::try_from(indices.len())
                                .expect("MPDE Jacobian: entries overflow the u32 value slots");
                            indices.push(p * n + col);
                            if ca == col {
                                for &(_, t) in &sources[lo..hi] {
                                    slots[p * per_point + t * c.nnz() + a] = pos;
                                }
                                a += 1;
                            }
                            if cb == col {
                                slots[p * per_point + targets * c.nnz() + b] = pos;
                                b += 1;
                            }
                        }
                    }
                    indptr.push(indices.len());
                }
            }
        }
        debug_assert!(slots.iter().all(|&s| s != u32::MAX), "every slot placed");
        let dim = n * grid.num_points();
        GridJacobian {
            c_local,
            g_local,
            pattern: CsrMatrix::with_pattern(dim, dim, indptr, indices),
            slots,
        }
    }
}

impl NewtonSystem for MpdeSystem<'_> {
    fn dim(&self) -> usize {
        self.n() * self.grid.num_points()
    }

    fn residual(&self, x: &[f64], out: &mut [f64]) {
        let n = self.n();
        let (n1, n2) = self.grid.shape();
        out.fill(0.0);
        let mut q = vec![0.0; n];
        let mut f = vec![0.0; n];
        for j in 0..n2 {
            for i in 0..n1 {
                let src = self.grid.point(i, j) * n;
                let xj = &x[src..src + n];
                self.circuit.eval_q(xj, &mut q, None);
                for (dst, coeff) in self.targets(i, j) {
                    let dst = dst * n;
                    for u in 0..n {
                        out[dst + u] += coeff * q[u];
                    }
                }
                self.circuit.eval_f(xj, &mut f, None);
                for u in 0..n {
                    out[src + u] += f[u] + self.b_eff(src, u);
                }
            }
        }
    }

    /// The triplet export of the compiled Jacobian: one push per stored
    /// entry, in CSR order, with the block size, `n` unknowns per grid
    /// point, declared for the Newton grid policy
    /// ([`LinearSolver::Auto`](rfsim_circuit::newton::LinearSolver::Auto)).
    fn residual_and_jacobian(&self, x: &[f64], out: &mut [f64], jac: &mut Triplets) {
        let pattern = &self.jacobian.pattern;
        let mut values = vec![0.0; pattern.nnz()];
        self.assemble(x, out, &mut values);
        jac.declare_block_size(self.n());
        for r in 0..pattern.rows() {
            let (lo, hi) = (pattern.indptr()[r], pattern.indptr()[r + 1]);
            for (&c, &v) in pattern.indices()[lo..hi].iter().zip(&values[lo..hi]) {
                jac.push(r, c, v);
            }
        }
    }

    /// Writes the compiled Jacobian into `jac` and declares its block
    /// size, `n` unknowns per grid point.
    fn residual_and_compiled_jacobian(
        &self,
        x: &[f64],
        out: &mut [f64],
        jac: &mut Option<CsrMatrix>,
    ) -> Option<CompiledJacobian> {
        let pattern = &self.jacobian.pattern;
        let recreated = !jac.as_ref().is_some_and(|m| m.same_pattern(pattern));
        if recreated {
            *jac = Some(pattern.clone());
        }
        let matrix = jac.as_mut().expect("holds the compiled pattern");
        self.assemble(x, out, matrix.data_mut());
        Some(CompiledJacobian {
            block_size: Some(self.n()),
            recreated,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfsim_circuit::{BiWaveform, CircuitBuilder, DiodeParams, Envelope, GROUND};
    use rfsim_circuits::{BalancedMixer, BalancedMixerParams};
    use rfsim_numerics::vector::norm_inf;

    /// The per-point triplet assembly the compiled Jacobian replaced, kept
    /// as its bit-identity oracle: each grid point's `C` and `G`
    /// compressed on their own, then one global triplet per stencil entry
    /// and local entry.
    fn reference_residual_and_jacobian(
        sys: &MpdeSystem<'_>,
        x: &[f64],
        out: &mut [f64],
        jac: &mut Triplets,
    ) {
        let n = sys.n();
        let (n1, n2) = sys.grid.shape();
        let (h1, h2) = (sys.grid.h1(), sys.grid.h2());
        jac.declare_block_size(n);
        out.fill(0.0);
        let mut q = vec![0.0; n];
        let mut f = vec![0.0; n];
        let mut c_trip = Triplets::with_capacity(n, n, 8 * n);
        let mut g_trip = Triplets::with_capacity(n, n, 8 * n);
        for j in 0..n2 {
            for i in 0..n1 {
                let src = sys.grid.point(i, j) * n;
                let xj = &x[src..src + n];
                c_trip.clear();
                g_trip.clear();
                sys.circuit.eval_q(xj, &mut q, Some(&mut c_trip));
                sys.circuit.eval_f(xj, &mut f, Some(&mut g_trip));
                let c = c_trip.to_csr();
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
                for &(off, w) in sys.scheme1.stencil() {
                    let row_i = (i as isize - off).rem_euclid(n1 as isize) as usize;
                    scatter(sys.grid.point(row_i, j), w / h1, out, jac);
                }
                for &(off, w) in sys.scheme2.stencil() {
                    let row_j = (j as isize - off).rem_euclid(n2 as isize) as usize;
                    scatter(sys.grid.point(i, row_j), w / h2, out, jac);
                }
                let g = g_trip.to_csr();
                for r in 0..n {
                    let (cols, vals) = g.row(r);
                    for (cc, v) in cols.iter().zip(vals) {
                        jac.push(src + r, src + cc, *v);
                    }
                }
                for u in 0..n {
                    out[src + u] += f[u] + sys.b_eff(src, u);
                }
            }
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `t` compressed the way the Newton workspace's slot map does it.
    fn assembled(t: &Triplets) -> CsrMatrix {
        let asm = CsrAssembly::new(t);
        let mut m = asm.zero_matrix();
        assert!(asm.scatter(t, &mut m));
        m
    }

    /// The fig4 mixer (pattern `1011`) and the serve `diode_clipper`
    /// family at amplitude 0.8, with their periods.
    fn oracle_circuits() -> Vec<(&'static str, Circuit, f64, f64)> {
        let mixer = BalancedMixer::build(BalancedMixerParams {
            rf_bits: vec![true, false, true, true],
            ..Default::default()
        })
        .expect("mixer");
        let (t1, t2) = (mixer.params.t1_period(), mixer.params.t2_period());
        let mut b = CircuitBuilder::new();
        let inp = b.node("in");
        let out = b.node("out");
        b.vsource(
            "VRF",
            inp,
            GROUND,
            BiWaveform::ShearedCarrier {
                amplitude: 0.8,
                k: 1,
                f1: 1e6,
                fd: 10e3,
                phase: 0.0,
                envelope: Envelope::Unit,
            },
        )
        .expect("v");
        b.resistor("R1", inp, out, 1e3).expect("r");
        b.diode("D1", out, GROUND, DiodeParams::default())
            .expect("d");
        b.capacitor("C1", out, GROUND, 1e-9).expect("c");
        let clipper = b.build().expect("clipper");
        vec![
            ("fig4 mixer", mixer.circuit, t1, t2),
            ("diode_clipper", clipper, 1e-6, 1e-4),
        ]
    }

    #[test]
    fn compiled_jacobian_matches_the_per_point_triplet_loop_bit_for_bit() {
        use DiffScheme::{BackwardEuler, Bdf2, Central2};
        for (name, ckt, t1, t2) in oracle_circuits() {
            let n = ckt.num_unknowns();
            // 40×30 is the paper's grid and 16×8 serve's; on 4×3, 3×3 and
            // 2×2 stencil neighbours wrap onto each other or coincide.
            for (n1, n2) in [(40, 30), (16, 8), (4, 3), (3, 3), (2, 2)] {
                for s1 in [BackwardEuler, Central2, Bdf2] {
                    for s2 in [BackwardEuler, Central2, Bdf2] {
                        if (s1 == Bdf2 && n1 < 3) || (s2 == Bdf2 && n2 < 3) {
                            continue;
                        }
                        let case = format!("{name} {n1}x{n2} {s1:?}/{s2:?}");
                        let grid = MultitimeGrid::new(n1, n2, t1, t2);
                        let sys = MpdeSystem::new(&ckt, grid, s1, s2).expect("system");
                        let dim = sys.dim();
                        // Two states with different device operating
                        // regions across the grid.
                        let states = [
                            (0..dim)
                                .map(|k| 1.0 + 2.0 * (0.37 * k as f64).sin())
                                .collect(),
                            (0..dim)
                                .map(|k| 0.5 * (1.3 * k as f64).cos())
                                .collect::<Vec<_>>(),
                        ];
                        for x in &states {
                            let mut r_ref = vec![0.0; dim];
                            let mut t_ref = Triplets::new(dim, dim);
                            reference_residual_and_jacobian(&sys, x, &mut r_ref, &mut t_ref);
                            let expected = assembled(&t_ref);

                            let mut r = vec![0.0; dim];
                            let mut jac = None;
                            let answer = sys
                                .residual_and_compiled_jacobian(x, &mut r, &mut jac)
                                .expect("compiled");
                            assert_eq!(answer.block_size, Some(n), "{case}");
                            assert!(answer.recreated, "{case}");
                            let jac = jac.expect("written");
                            assert!(jac.same_pattern(&expected), "{case}: pattern");
                            assert_eq!(bits(jac.data()), bits(expected.data()), "{case}: values");
                            assert_eq!(bits(&r), bits(&r_ref), "{case}: residual");
                            sys.residual(x, &mut r);
                            assert_eq!(bits(&r), bits(&r_ref), "{case}: residual only");

                            let mut export = Triplets::new(dim, dim);
                            sys.residual_and_jacobian(x, &mut r, &mut export);
                            assert_eq!(export.block_size(), Some(n), "{case}");
                            assert_eq!(export.len(), expected.nnz(), "{case}: one push per entry");
                            let exported = assembled(&export);
                            assert!(exported.same_pattern(&expected), "{case}: export pattern");
                            assert_eq!(
                                bits(exported.data()),
                                bits(expected.data()),
                                "{case}: export"
                            );
                            assert_eq!(bits(&r), bits(&r_ref), "{case}: export residual");
                        }
                    }
                }
            }
        }
    }

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
}
