//! Preconditioners for the Krylov solvers.
//!
//! [`BlockJacobiPrecond`] factors every diagonal block of a grid Jacobian
//! through one shared symbolic analysis: the blocks of an MPDE grid are
//! the same circuit at different grid points, so one static row order and
//! one fill pattern serve them all, and each block stores only its values
//! over that fill (66 of 225 entries for the paper's 15-unknown mixer). A
//! block whose static pivot fails a relative threshold, and only that
//! block, is refactored as a dense partial-pivoting [`DenseLu`].

use crate::dense::{DenseLu, DenseMatrix};
use crate::sparse::CsrMatrix;
use crate::sparse_lu::REFACTOR_REL_THRESHOLD;
use crate::{NumericsError, Result};

/// Applies `z = M⁻¹·r` for some approximation `M ≈ A`.
pub trait Preconditioner {
    /// Applies the preconditioner: `z = M⁻¹·r`.
    ///
    /// # Panics
    ///
    /// Implementations may panic on dimension mismatch.
    fn apply(&self, r: &[f64], z: &mut [f64]);
}

/// The identity preconditioner (`M = I`).
#[derive(Debug, Clone, Copy, Default)]
pub struct IdentityPrecond;

impl Preconditioner for IdentityPrecond {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        z.copy_from_slice(r);
    }
}

/// Block-Jacobi preconditioner: an LU factor of each
/// `block_size × block_size` diagonal block, all sharing one symbolic
/// analysis.
///
/// The natural preconditioner for MPDE grid Jacobians, whose unknowns come
/// in per-grid-point circuit blocks: every block is the local
/// `G + (w/h)·C` matrix, which is nonsingular even though individual rows
/// (voltage-source branch rows) have zero diagonals, which is where an
/// incomplete LU over the matrix pattern breaks down.
///
/// Construction takes the union structural pattern of the diagonal blocks
/// and one static row order, the partial-pivoting order of block 0's dense
/// LU, and computes the fill of that order once. Every block's values live
/// contiguously over that fill. A pivot must pass
/// `|u_kk| > τ·max(|u_kk|, max_i |l_ik|)` with τ the sparse refactor's
/// [`REFACTOR_REL_THRESHOLD`]; a block that fails it (or holds
/// an entry outside the fill) is refactored as a dense partial-pivoting
/// [`DenseLu`] instead. GMRES is right-preconditioned and tests the true
/// residual, so a weaker static order costs matvecs, not accuracy.
#[derive(Debug, Clone)]
pub struct BlockJacobiPrecond {
    sym: BlockSymbolic,
    num_blocks: usize,
    /// Block `b`'s factor values over the shared fill, at
    /// `values[b * sym.nnz..(b + 1) * sym.nnz]`.
    values: Vec<f64>,
    /// Whether block `b`'s current factor is its dense fallback.
    on_dense: Vec<bool>,
    /// Dense fallback factors, indexed by block; empty until a block first
    /// needs one, and kept so a later fallback refactors in place.
    dense: Vec<Option<DenseLu>>,
    /// Gather buffer for a block going to the dense fallback.
    scratch: DenseMatrix,
}

/// Slot-map marker for a block position outside the shared fill.
const NONE: usize = usize::MAX;

/// The symbolic analysis every diagonal block shares: the static row
/// order, the fill of that order, and the flat index lists that
/// elimination and the triangular solves walk. Rows are numbered in
/// elimination order (`k` is original block row `perm[k]`), columns as in
/// the block.
#[derive(Debug, Clone)]
struct BlockSymbolic {
    n: usize,
    /// Value slots per block (the size of the fill).
    nnz: usize,
    /// `perm[k]` is the block row eliminated at step `k`.
    perm: Vec<usize>,
    /// Slot of original block entry `(r, c)` at `r * n + c`, or [`NONE`]
    /// outside the fill.
    scatter: Vec<usize>,
    /// Slot of the pivot of step `k`.
    diag: Vec<usize>,
    /// `L` column `k`: rows `l_row[l_ptr[k]..l_ptr[k + 1]]` below `k`,
    /// ascending, with their slots in `l_slot`.
    l_ptr: Vec<usize>,
    l_row: Vec<usize>,
    l_slot: Vec<usize>,
    /// `U` row `k`: columns `u_col[u_ptr[k]..u_ptr[k + 1]]` right of `k`,
    /// ascending, with their slots in `u_slot`.
    u_ptr: Vec<usize>,
    u_col: Vec<usize>,
    u_slot: Vec<usize>,
    /// Update targets in elimination order: for each step `k`, each `L`
    /// row `i` of column `k` and each `U` column `j` of row `k` in list
    /// order, the slot of `(i, j)`.
    update: Vec<usize>,
}

impl BlockSymbolic {
    /// Analyses the `n × n` union pattern `pattern` (row-major, original
    /// rows) under the row order `perm`.
    fn analyse(n: usize, pattern: &[bool], perm: Vec<usize>) -> Self {
        // Pattern of P·A, diagonal included, closed under elimination.
        let mut fill = vec![false; n * n];
        for (k, &r) in perm.iter().enumerate() {
            fill[k * n..(k + 1) * n].copy_from_slice(&pattern[r * n..(r + 1) * n]);
            fill[k * n + k] = true;
        }
        for k in 0..n {
            for i in (k + 1)..n {
                if fill[i * n + k] {
                    for j in (k + 1)..n {
                        if fill[k * n + j] {
                            fill[i * n + j] = true;
                        }
                    }
                }
            }
        }
        let mut slot = vec![NONE; n * n];
        let mut nnz = 0;
        for (s, &f) in slot.iter_mut().zip(&fill) {
            if f {
                *s = nnz;
                nnz += 1;
            }
        }
        let mut scatter = vec![NONE; n * n];
        for (k, &r) in perm.iter().enumerate() {
            scatter[r * n..(r + 1) * n].copy_from_slice(&slot[k * n..(k + 1) * n]);
        }
        let diag = (0..n).map(|k| slot[k * n + k]).collect();
        let (mut l_ptr, mut l_row, mut l_slot) = (vec![0], Vec::new(), Vec::new());
        let (mut u_ptr, mut u_col, mut u_slot) = (vec![0], Vec::new(), Vec::new());
        let mut update = Vec::new();
        for k in 0..n {
            for i in ((k + 1)..n).filter(|&i| fill[i * n + k]) {
                l_row.push(i);
                l_slot.push(slot[i * n + k]);
            }
            for j in ((k + 1)..n).filter(|&j| fill[k * n + j]) {
                u_col.push(j);
                u_slot.push(slot[k * n + j]);
            }
            for &i in &l_row[l_ptr[k]..] {
                for &j in &u_col[u_ptr[k]..] {
                    update.push(slot[i * n + j]);
                }
            }
            l_ptr.push(l_row.len());
            u_ptr.push(u_col.len());
        }
        BlockSymbolic {
            n,
            nnz,
            perm,
            scatter,
            diag,
            l_ptr,
            l_row,
            l_slot,
            u_ptr,
            u_col,
            u_slot,
            update,
        }
    }

    /// Eliminates one block's scattered values `v` in place over the
    /// shared lists: `L` multipliers and `U` rows overwrite their slots.
    /// Returns `false` at the first pivot that fails the threshold (the
    /// values are then partly eliminated and must not be used).
    fn eliminate(&self, v: &mut [f64]) -> bool {
        let mut t = 0;
        for k in 0..self.n {
            let pivot = v[self.diag[k]];
            let l_slots = &self.l_slot[self.l_ptr[k]..self.l_ptr[k + 1]];
            let u_slots = &self.u_slot[self.u_ptr[k]..self.u_ptr[k + 1]];
            let colmax = l_slots.iter().fold(0.0f64, |m, &s| m.max(v[s].abs()));
            if pivot.abs() <= REFACTOR_REL_THRESHOLD * pivot.abs().max(colmax) || pivot.is_nan() {
                return false;
            }
            for &l in l_slots {
                let m = v[l] / pivot;
                v[l] = m;
                let targets = &self.update[t..t + u_slots.len()];
                t += u_slots.len();
                if m != 0.0 {
                    for (&u, &target) in u_slots.iter().zip(targets) {
                        v[target] -= m * v[u];
                    }
                }
            }
        }
        true
    }

    /// Solves one block from its eliminated values `v`: `z = U⁻¹·L⁻¹·P·r`.
    fn solve(&self, v: &[f64], r: &[f64], z: &mut [f64]) {
        for (zk, &p) in z.iter_mut().zip(&self.perm) {
            *zk = r[p];
        }
        for k in 0..self.n {
            let zk = z[k];
            for idx in self.l_ptr[k]..self.l_ptr[k + 1] {
                z[self.l_row[idx]] -= v[self.l_slot[idx]] * zk;
            }
        }
        for k in (0..self.n).rev() {
            let mut s = z[k];
            for idx in self.u_ptr[k]..self.u_ptr[k + 1] {
                s -= v[self.u_slot[idx]] * z[self.u_col[idx]];
            }
            z[k] = s / v[self.diag[k]];
        }
    }
}

/// Gathers diagonal block `b` of `a` into `m` (zeroed first).
fn gather_block(a: &CsrMatrix, block_size: usize, b: usize, m: &mut DenseMatrix) {
    let base = b * block_size;
    m.as_mut_slice().fill(0.0);
    for r in 0..block_size {
        let (cols, vals) = a.row(base + r);
        for (c, v) in cols.iter().zip(vals) {
            if *c >= base && *c < base + block_size {
                m[(r, c - base)] += *v;
            }
        }
    }
}

impl BlockJacobiPrecond {
    /// Analyses the diagonal blocks of `a` and factors them.
    ///
    /// # Errors
    ///
    /// * [`NumericsError::DimensionMismatch`] if the matrix dimension is not
    ///   a multiple of `block_size` (or `block_size` is zero).
    /// * [`NumericsError::SingularMatrix`] if a diagonal block is singular.
    pub fn new(a: &CsrMatrix, block_size: usize) -> Result<Self> {
        let n = a.rows();
        if block_size == 0 || !n.is_multiple_of(block_size) {
            return Err(NumericsError::DimensionMismatch {
                context: format!("BlockJacobi: dim {n} not a multiple of block {block_size}"),
            });
        }
        let num_blocks = n / block_size;
        let mut pattern = vec![false; block_size * block_size];
        for b in 0..num_blocks {
            let base = b * block_size;
            for r in 0..block_size {
                for &c in a.row(base + r).0 {
                    if c >= base && c < base + block_size {
                        pattern[r * block_size + c - base] = true;
                    }
                }
            }
        }
        let mut scratch = DenseMatrix::zeros(block_size, block_size);
        let perm = if num_blocks == 0 {
            (0..block_size).collect()
        } else {
            gather_block(a, block_size, 0, &mut scratch);
            scratch.lu()?.perm().to_vec()
        };
        let sym = BlockSymbolic::analyse(block_size, &pattern, perm);
        let mut bj = BlockJacobiPrecond {
            values: vec![0.0; num_blocks * sym.nnz],
            sym,
            num_blocks,
            on_dense: vec![false; num_blocks],
            dense: Vec::new(),
            scratch,
        };
        bj.refactor_in_place(a)?;
        Ok(bj)
    }

    /// The diagonal block size this preconditioner was built with.
    pub fn block_size(&self) -> usize {
        self.sym.n
    }

    /// Dimension of the preconditioned system.
    pub fn dim(&self) -> usize {
        self.num_blocks * self.sym.n
    }

    /// Whether `a` has the dimensions this preconditioner was built on —
    /// the gate for [`BlockJacobiPrecond::refactor_in_place`]. (An entry
    /// outside the shared fill sends its block to the dense fallback, so
    /// no exact pattern match is required.)
    pub fn matches(&self, a: &CsrMatrix) -> bool {
        a.rows() == self.dim() && a.cols() == self.dim()
    }

    /// Refreshes every diagonal block's factor in place from `a`: each
    /// block's entries are scattered into its slots and eliminated over
    /// the shared index lists. No allocation, except the first time a
    /// given block goes to the dense fallback. The row order chosen at
    /// construction is kept, so a refresh equals a rebuild bit for bit
    /// whenever the rebuild picks the same order.
    ///
    /// # Errors
    ///
    /// * [`NumericsError::DimensionMismatch`] if `a`'s dimensions differ
    ///   from the factored system (the factors are left unchanged).
    /// * [`NumericsError::SingularMatrix`] if a diagonal block became
    ///   singular even under dense partial pivoting (earlier blocks are
    ///   already refreshed; refresh or rebuild before the next apply).
    pub fn refactor_in_place(&mut self, a: &CsrMatrix) -> Result<()> {
        if !self.matches(a) {
            return Err(NumericsError::DimensionMismatch {
                context: format!(
                    "BlockJacobi::refactor_in_place: {}x{} matrix into {} blocks of {}",
                    a.rows(),
                    a.cols(),
                    self.num_blocks,
                    self.sym.n
                ),
            });
        }
        let (bs, nnz) = (self.sym.n, self.sym.nnz);
        for b in 0..self.num_blocks {
            let base = b * bs;
            let v = &mut self.values[b * nnz..(b + 1) * nnz];
            v.fill(0.0);
            let mut in_fill = true;
            for r in 0..bs {
                let (cols, vals) = a.row(base + r);
                for (&c, &x) in cols.iter().zip(vals) {
                    if c >= base && c < base + bs {
                        match self.sym.scatter[r * bs + c - base] {
                            NONE => in_fill = false,
                            s => v[s] += x,
                        }
                    }
                }
            }
            self.on_dense[b] = !(in_fill && self.sym.eliminate(v));
            if self.on_dense[b] {
                gather_block(a, bs, b, &mut self.scratch);
                if self.dense.is_empty() {
                    self.dense.resize_with(self.num_blocks, || None);
                }
                match &mut self.dense[b] {
                    Some(lu) => lu.refactor(&self.scratch)?,
                    none => *none = Some(self.scratch.lu()?),
                }
            }
        }
        Ok(())
    }
}

impl Preconditioner for BlockJacobiPrecond {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        let (bs, nnz) = (self.sym.n, self.sym.nnz);
        for b in 0..self.num_blocks {
            let rows = b * bs..(b + 1) * bs;
            if self.on_dense[b] {
                let lu = self.dense[b].as_ref().expect("set with on_dense");
                lu.solve_into(&r[rows.clone()], &mut z[rows]);
            } else {
                let v = &self.values[b * nnz..(b + 1) * nnz];
                self.sym.solve(v, &r[rows.clone()], &mut z[rows]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::Triplets;
    use crate::vector::{norm_inf, sub};
    use proptest::prelude::*;

    /// The reference preconditioner: a dense partial-pivoting LU of every
    /// diagonal block, each with its own row order.
    struct DenseBlockJacobi {
        blocks: Vec<DenseLu>,
        block_size: usize,
    }

    impl DenseBlockJacobi {
        fn new(a: &CsrMatrix, block_size: usize) -> Self {
            let mut m = DenseMatrix::zeros(block_size, block_size);
            let blocks = (0..a.rows() / block_size)
                .map(|b| {
                    gather_block(a, block_size, b, &mut m);
                    m.lu().expect("reference block factor")
                })
                .collect();
            DenseBlockJacobi { blocks, block_size }
        }
    }

    impl Preconditioner for DenseBlockJacobi {
        fn apply(&self, r: &[f64], z: &mut [f64]) {
            let bs = self.block_size;
            for (b, lu) in self.blocks.iter().enumerate() {
                lu.solve_into(&r[b * bs..(b + 1) * bs], &mut z[b * bs..(b + 1) * bs]);
            }
        }
    }

    fn spd_example(n: usize) -> CsrMatrix {
        let mut t = Triplets::new(n, n);
        for i in 0..n {
            t.push(i, i, 4.0);
            if i > 0 {
                t.push(i, i - 1, -1.0);
                t.push(i - 1, i, -1.0);
            }
        }
        t.to_csr()
    }

    #[test]
    fn identity_copies() {
        let m = IdentityPrecond;
        let mut z = vec![0.0; 2];
        m.apply(&[5.0, -1.0], &mut z);
        assert_eq!(z, vec![5.0, -1.0]);
    }

    #[test]
    fn block_jacobi_exact_for_block_diagonal() {
        // A purely block-diagonal matrix: block-Jacobi IS its inverse.
        let mut t = Triplets::new(4, 4);
        // block 0: [[2, 1], [0, 3]]
        t.push(0, 0, 2.0);
        t.push(0, 1, 1.0);
        t.push(1, 1, 3.0);
        // block 1: [[0, 1], [1, 0]] — zero diagonals, like V-source rows.
        t.push(2, 3, 1.0);
        t.push(3, 2, 1.0);
        let a = t.to_csr();
        let m = BlockJacobiPrecond::new(&a, 2).expect("block jacobi");
        let b = vec![1.0, 2.0, 3.0, 4.0];
        let mut z = vec![0.0; 4];
        m.apply(&b, &mut z);
        let r = sub(&a.matvec(&z), &b);
        assert!(norm_inf(&r) < 1e-14, "residual {}", norm_inf(&r));
    }

    #[test]
    fn block_jacobi_rejects_bad_block_size() {
        let a = spd_example(6);
        assert!(BlockJacobiPrecond::new(&a, 4).is_err());
        assert!(BlockJacobiPrecond::new(&a, 0).is_err());
        assert!(BlockJacobiPrecond::new(&a, 3).is_ok());
    }

    #[test]
    fn block_jacobi_handles_zero_diagonal_rows() {
        // Both diagonals are structurally zero, like V-source rows; the
        // 2×2 block is still nonsingular.
        let mut t = Triplets::new(2, 2);
        t.push(0, 1, 1.0);
        t.push(1, 0, 1.0);
        let a = t.to_csr();
        assert!(BlockJacobiPrecond::new(&a, 2).is_ok());
    }

    #[test]
    fn block_jacobi_refresh_reports_singular_block() {
        // Zero out one block: the in-place refresh must reject it.
        let mut t = Triplets::new(8, 8);
        for i in 0..8 {
            t.push(i, i, if (4..6).contains(&i) { 1.0 } else { 2.0 });
        }
        let good = t.to_csr();
        let mut bad_t = Triplets::new(8, 8);
        for i in 0..8 {
            bad_t.push(i, i, if (4..6).contains(&i) { 0.0 } else { 2.0 });
        }
        let bad = bad_t.to_csr();
        let mut bj = BlockJacobiPrecond::new(&good, 2).expect("factor");
        assert!(matches!(
            bj.refactor_in_place(&bad),
            Err(NumericsError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn failed_static_pivot_falls_back_to_dense_partial_pivoting() {
        // Block 0 fixes the identity order; block 1 is [[0, 1], [1, 0]],
        // whose static pivot is zero, so only the dense fallback can
        // invert it.
        let mut t = Triplets::new(4, 4);
        t.push(0, 0, 2.0);
        t.push(0, 1, 1.0);
        t.push(1, 0, 1.0);
        t.push(1, 1, 3.0);
        t.push(2, 3, 1.0);
        t.push(3, 2, 1.0);
        let a = t.to_csr();
        let m = BlockJacobiPrecond::new(&a, 2).expect("block jacobi");
        let b = vec![1.0, 2.0, 3.0, 4.0];
        let mut z = vec![0.0; 4];
        m.apply(&b, &mut z);
        let r = sub(&a.matvec(&z), &b);
        assert!(norm_inf(&r) < 1e-14, "residual {}", norm_inf(&r));
        assert_eq!(m.on_dense, vec![false, true]);
    }

    /// A grid-shaped matrix of `nb` blocks of size `bs` sharing one random
    /// pattern: a dominant random permutation (rows off it may have a
    /// structurally zero diagonal, as voltage-source rows do), sparse
    /// random entries, per-block random values, and random off-block
    /// coupling of magnitude `coupling`.
    fn shared_pattern_grid(seed: u64, bs: usize, nb: usize, coupling: f64) -> CsrMatrix {
        let mut rng = proptest::TestRng::new(seed);
        let mut sigma: Vec<usize> = (0..bs).collect();
        for i in (1..bs).rev() {
            sigma.swap(i, rng.next_u64() as usize % (i + 1));
        }
        let pattern: Vec<bool> = (0..bs * bs)
            .map(|e| sigma[e / bs] == e % bs || rng.next_f64() < 0.25)
            .collect();
        let n = bs * nb;
        let mut t = Triplets::new(n, n);
        for b in 0..nb {
            let base = b * bs;
            for e in (0..bs * bs).filter(|&e| pattern[e]) {
                let (r, c) = (e / bs, e % bs);
                let mut v = 2.0 * rng.next_f64() - 1.0;
                if sigma[r] == c {
                    v = v.signum() * (bs as f64 + 1.0 + rng.next_f64());
                }
                t.push(base + r, base + c, v);
            }
            if coupling != 0.0 && b + 1 < nb {
                for r in 0..bs {
                    let c = base + bs + rng.next_u64() as usize % bs;
                    t.push(base + r, c, coupling * (2.0 * rng.next_f64() - 1.0));
                    t.push(c, base + r, coupling * (2.0 * rng.next_f64() - 1.0));
                }
            }
        }
        t.to_csr()
    }

    proptest! {
        #[test]
        fn prop_shared_symbolic_matches_dense_reference(
            seed in 0u64..1_000_000,
            bs in 1usize..17,
            nb in 1usize..6,
            coupled in 0u64..2,
        ) {
            let coupling = if coupled == 1 { 0.5 } else { 0.0 };
            let a = shared_pattern_grid(seed, bs, nb, coupling);
            let n = a.rows();
            let r: Vec<f64> = (0..n).map(|i| ((i * 7 + 3) % 11) as f64 - 5.0).collect();
            let shared = BlockJacobiPrecond::new(&a, bs).expect("shared factor");
            let reference = DenseBlockJacobi::new(&a, bs);
            let (mut z, mut z_ref) = (vec![0.0; n], vec![0.0; n]);
            shared.apply(&r, &mut z);
            reference.apply(&r, &mut z_ref);
            let scale = norm_inf(&z_ref);
            prop_assert!(
                norm_inf(&sub(&z, &z_ref)) <= 1e-10 * scale,
                "shared {z:?} vs reference {z_ref:?}"
            );
            if coupling == 0.0 {
                let res = norm_inf(&sub(&a.matvec(&z), &r));
                prop_assert!(res < 1e-12, "block-diagonal residual {res}");
            }
        }
    }
}
