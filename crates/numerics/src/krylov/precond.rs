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

/// Block-Jacobi preconditioner: dense LU of each `block_size × block_size`
/// diagonal block.
///
/// The natural preconditioner for MPDE grid Jacobians, whose unknowns come
/// in per-grid-point circuit blocks: every block is the local
/// `G + (w/h)·C` matrix, which is nonsingular even though individual rows
/// (voltage-source branch rows) have zero diagonals, which is where an
/// incomplete LU over the matrix pattern breaks down.
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
    /// so no exact pattern match is required.)
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
}
