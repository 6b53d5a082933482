//! Preconditioners for the Krylov solvers.

use crate::dense::{DenseLu, DenseMatrix};
use crate::sparse::CsrMatrix;
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

/// Diagonal (Jacobi) preconditioner.
#[derive(Debug, Clone)]
pub struct JacobiPrecond {
    inv_diag: Vec<f64>,
}

impl JacobiPrecond {
    /// Builds the preconditioner from the diagonal of `a`. Zero diagonal
    /// entries are replaced by 1 (no scaling) rather than failing, since MNA
    /// matrices legitimately carry structural zero diagonals on source rows.
    pub fn new(a: &CsrMatrix) -> Self {
        let n = a.rows();
        let mut inv_diag = vec![1.0; n];
        for i in 0..n {
            let d = a.get(i, i);
            if d != 0.0 {
                inv_diag[i] = 1.0 / d;
            }
        }
        JacobiPrecond { inv_diag }
    }
}

impl Preconditioner for JacobiPrecond {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        for ((zi, ri), di) in z.iter_mut().zip(r).zip(&self.inv_diag) {
            *zi = ri * di;
        }
    }
}

/// Incomplete LU factorisation with zero fill-in, ILU(0).
///
/// Keeps exactly the sparsity pattern of `A`; the classic IKJ update. Rows
/// must contain their diagonal entry (MNA matrices after gmin regularisation
/// always do for the solver paths that use ILU).
#[derive(Debug, Clone)]
pub struct Ilu0 {
    factors: CsrMatrix,
    diag_pos: Vec<usize>,
}

/// The numeric ILU(0) sweep (classic IKJ update) over a fixed pattern:
/// `data` arrives holding the matrix values and leaves holding the packed
/// `L`/`U` factors. Shared by [`Ilu0::new`] and [`Ilu0::refactor_in_place`].
fn ilu0_sweep(
    n: usize,
    indptr: &[usize],
    indices: &[usize],
    diag_pos: &[usize],
    data: &mut [f64],
) -> Result<()> {
    for i in 0..n {
        // For each a_ik with k < i (in sparsity pattern):
        for kk in indptr[i]..indptr[i + 1] {
            let k = indices[kk];
            if k >= i {
                break;
            }
            let pivot = data[diag_pos[k]];
            if pivot == 0.0 {
                return Err(NumericsError::SingularMatrix {
                    index: k,
                    pivot: 0.0,
                });
            }
            let lik = data[kk] / pivot;
            data[kk] = lik;
            // Subtract lik * U(k, j) for j > k, restricted to row i's pattern.
            let mut jj = kk + 1;
            for kj in diag_pos[k] + 1..indptr[k + 1] {
                let j = indices[kj];
                // advance jj in row i to column j if present
                while jj < indptr[i + 1] && indices[jj] < j {
                    jj += 1;
                }
                if jj < indptr[i + 1] && indices[jj] == j {
                    let ukj = data[kj];
                    data[jj] -= lik * ukj;
                }
            }
        }
        if data[diag_pos[i]] == 0.0 {
            return Err(NumericsError::SingularMatrix {
                index: i,
                pivot: 0.0,
            });
        }
    }
    Ok(())
}

impl Ilu0 {
    /// Computes the ILU(0) factorisation of `a`.
    ///
    /// # Errors
    ///
    /// * [`NumericsError::InvalidArgument`] if some row lacks a stored
    ///   diagonal entry.
    /// * [`NumericsError::SingularMatrix`] if a pivot becomes zero.
    pub fn new(a: &CsrMatrix) -> Result<Self> {
        let n = a.rows();
        let mut factors = a.clone();
        // Locate diagonals first.
        let mut diag_pos = vec![usize::MAX; n];
        for i in 0..n {
            let lo = factors.indptr()[i];
            let hi = factors.indptr()[i + 1];
            for k in lo..hi {
                if factors.indices()[k] == i {
                    diag_pos[i] = k;
                    break;
                }
            }
            if diag_pos[i] == usize::MAX {
                return Err(NumericsError::InvalidArgument {
                    context: format!("ILU(0): row {i} has no stored diagonal"),
                });
            }
        }
        let (indptr, indices, data) = factors.parts_mut();
        ilu0_sweep(n, indptr, indices, &diag_pos, data)?;
        Ok(Ilu0 { factors, diag_pos })
    }

    /// Whether `a` has exactly the pattern this preconditioner was built
    /// on — the gate for [`Ilu0::refactor_in_place`].
    pub fn same_pattern(&self, a: &CsrMatrix) -> bool {
        self.factors.same_pattern(a)
    }

    /// Refreshes the factorisation in place from a same-pattern matrix:
    /// copies `a`'s values over the cached CSR pattern and reruns only the
    /// numeric sweep — no allocation, no diagonal re-location. Produces
    /// exactly the factors [`Ilu0::new`] would (same arithmetic over the
    /// same pattern), which is what lets Newton loops refresh their
    /// preconditioner per iteration instead of rebuilding it.
    ///
    /// # Errors
    ///
    /// * [`NumericsError::InvalidArgument`] if `a`'s pattern differs from
    ///   the factored pattern (the factors are left unchanged).
    /// * [`NumericsError::SingularMatrix`] if a pivot becomes zero (the
    ///   factor values are unspecified afterwards; refresh or rebuild
    ///   before the next apply).
    pub fn refactor_in_place(&mut self, a: &CsrMatrix) -> Result<()> {
        if !self.same_pattern(a) {
            return Err(NumericsError::InvalidArgument {
                context: format!(
                    "Ilu0::refactor_in_place: pattern of {}x{} matrix (nnz {}) differs \
                     from the factored pattern",
                    a.rows(),
                    a.cols(),
                    a.nnz()
                ),
            });
        }
        let n = a.rows();
        let (indptr, indices, data) = self.factors.parts_mut();
        data.copy_from_slice(a.data());
        ilu0_sweep(n, indptr, indices, &self.diag_pos, data)
    }
}

impl Preconditioner for Ilu0 {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        let n = self.factors.rows();
        assert_eq!(r.len(), n, "Ilu0::apply: dimension mismatch");
        // Forward solve L·y = r (unit diagonal L, entries left of diag).
        for i in 0..n {
            let lo = self.factors.indptr()[i];
            let (cols, vals) = self.factors.row(i);
            let mut s = r[i];
            for k in 0..(self.diag_pos[i] - lo) {
                s -= vals[k] * z[cols[k]];
            }
            z[i] = s;
        }
        // Backward solve U·z = y.
        for i in (0..n).rev() {
            let lo = self.factors.indptr()[i];
            let (cols, vals) = self.factors.row(i);
            let dk = self.diag_pos[i] - lo;
            let mut s = z[i];
            for k in (dk + 1)..cols.len() {
                s -= vals[k] * z[cols[k]];
            }
            z[i] = s / vals[dk];
        }
    }
}

/// Block-Jacobi preconditioner: dense LU of each `block_size × block_size`
/// diagonal block.
///
/// The natural preconditioner for MPDE grid Jacobians, whose unknowns come
/// in per-grid-point circuit blocks: every block is the local
/// `G + (w/h)·C` matrix, which is nonsingular even though individual rows
/// (voltage-source branch rows) have zero diagonals — exactly the situation
/// where [`Ilu0`] breaks down.
#[derive(Debug, Clone)]
pub struct BlockJacobiPrecond {
    blocks: Vec<DenseLu>,
    block_size: usize,
    /// Gather buffer reused for every block's values during construction
    /// and in-place refresh (keeps both allocation-free per block).
    scratch: DenseMatrix,
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
    /// Factors the diagonal blocks of `a`.
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
        let nb = n / block_size;
        let mut blocks = Vec::with_capacity(nb);
        let mut scratch = DenseMatrix::zeros(block_size, block_size);
        for b in 0..nb {
            gather_block(a, block_size, b, &mut scratch);
            blocks.push(scratch.lu()?);
        }
        Ok(BlockJacobiPrecond {
            blocks,
            block_size,
            scratch,
        })
    }

    /// The diagonal block size this preconditioner was built with.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Dimension of the preconditioned system.
    pub fn dim(&self) -> usize {
        self.blocks.len() * self.block_size
    }

    /// Whether `a` has the dimensions this preconditioner was built on —
    /// the gate for [`BlockJacobiPrecond::refactor_in_place`]. (Block
    /// gathering reads whatever entries fall inside each diagonal block,
    /// so unlike ILU(0) no exact pattern match is required.)
    pub fn matches(&self, a: &CsrMatrix) -> bool {
        a.rows() == self.dim() && a.cols() == self.dim()
    }

    /// Refreshes every diagonal block's dense LU in place from `a`: the
    /// blocks are regathered through one cached scratch buffer and
    /// refactored into their existing storage — no allocation. Produces
    /// exactly the factors [`BlockJacobiPrecond::new`] would.
    ///
    /// # Errors
    ///
    /// * [`NumericsError::DimensionMismatch`] if `a`'s dimensions differ
    ///   from the factored system (the factors are left unchanged).
    /// * [`NumericsError::SingularMatrix`] if a diagonal block became
    ///   singular (earlier blocks are already refreshed; refresh or
    ///   rebuild before the next apply).
    pub fn refactor_in_place(&mut self, a: &CsrMatrix) -> Result<()> {
        if !self.matches(a) {
            return Err(NumericsError::DimensionMismatch {
                context: format!(
                    "BlockJacobi::refactor_in_place: {}x{} matrix into {} blocks of {}",
                    a.rows(),
                    a.cols(),
                    self.blocks.len(),
                    self.block_size
                ),
            });
        }
        for (b, lu) in self.blocks.iter_mut().enumerate() {
            gather_block(a, self.block_size, b, &mut self.scratch);
            lu.refactor(&self.scratch)?;
        }
        Ok(())
    }
}

impl Preconditioner for BlockJacobiPrecond {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        let bs = self.block_size;
        for (b, lu) in self.blocks.iter().enumerate() {
            lu.solve_into(&r[b * bs..(b + 1) * bs], &mut z[b * bs..(b + 1) * bs]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::Triplets;
    use crate::vector::{norm_inf, sub};

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
    fn jacobi_scales_by_diag() {
        let a = spd_example(4);
        let m = JacobiPrecond::new(&a);
        let mut z = vec![0.0; 4];
        m.apply(&[4.0, 8.0, 12.0, 16.0], &mut z);
        assert_eq!(z, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn identity_copies() {
        let m = IdentityPrecond;
        let mut z = vec![0.0; 2];
        m.apply(&[5.0, -1.0], &mut z);
        assert_eq!(z, vec![5.0, -1.0]);
    }

    #[test]
    fn ilu0_exact_for_tridiagonal() {
        // For a tridiagonal matrix ILU(0) has no dropped fill: it is an
        // exact LU, so applying it solves the system exactly.
        let a = spd_example(12);
        let ilu = Ilu0::new(&a).expect("ilu0");
        let b: Vec<f64> = (0..12).map(|i| (i as f64).sin()).collect();
        let mut x = vec![0.0; 12];
        ilu.apply(&b, &mut x);
        let r = sub(&a.matvec(&x), &b);
        assert!(norm_inf(&r) < 1e-12, "residual {}", norm_inf(&r));
    }

    #[test]
    fn ilu0_missing_diagonal_rejected() {
        let mut t = Triplets::new(2, 2);
        t.push(0, 1, 1.0);
        t.push(1, 0, 1.0);
        assert!(matches!(
            Ilu0::new(&t.to_csr()),
            Err(NumericsError::InvalidArgument { .. })
        ));
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
        // ILU(0) refuses this matrix; block-Jacobi factors it fine.
        let mut t = Triplets::new(2, 2);
        t.push(0, 1, 1.0);
        t.push(1, 0, 1.0);
        let a = t.to_csr();
        assert!(Ilu0::new(&a).is_err());
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
    fn ilu0_approximates_grid_inverse() {
        // 2-D grid: ILU(0) is inexact but should reduce the residual of a
        // single application well below the unpreconditioned norm.
        let (n1, n2) = (6, 6);
        let n = n1 * n2;
        let mut t = Triplets::new(n, n);
        for j in 0..n2 {
            for i in 0..n1 {
                let me = j * n1 + i;
                t.push(me, me, 4.5);
                if i + 1 < n1 {
                    t.push(me, me + 1, -1.0);
                    t.push(me + 1, me, -1.0);
                }
                if j + 1 < n2 {
                    t.push(me, me + n1, -1.0);
                    t.push(me + n1, me, -1.0);
                }
            }
        }
        let a = t.to_csr();
        let ilu = Ilu0::new(&a).expect("ilu0");
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        ilu.apply(&b, &mut x);
        let r = sub(&a.matvec(&x), &b);
        assert!(norm_inf(&r) < 0.5 * norm_inf(&b));
    }
}
