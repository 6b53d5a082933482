//! Dense matrices with LU factorisation.
//!
//! Used for the small systems in this workspace: per-device Jacobian blocks,
//! shooting monodromy solves, and harmonic-balance blocks. Row-major storage.

use crate::{NumericsError, Result};

/// A dense row-major `rows × cols` matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates a zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = DenseMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a row-major data vector.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] if `data.len() != rows*cols`.
    pub fn from_row_major(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(NumericsError::DimensionMismatch {
                context: format!(
                    "from_row_major: {} entries for {rows}x{cols} matrix",
                    data.len()
                ),
            });
        }
        Ok(DenseMatrix { rows, cols, data })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Raw row-major data slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw row-major data slice.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// A single row as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Matrix–vector product `y = A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec: dimension mismatch");
        let mut y = vec![0.0; self.rows];
        for i in 0..self.rows {
            let row = self.row(i);
            y[i] = crate::vector::dot(row, x);
        }
        y
    }

    /// Matrix–matrix product `A·B`.
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree.
    pub fn matmul(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.cols, other.rows, "matmul: dimension mismatch");
        let mut out = DenseMatrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += aik * other[(k, j)];
                }
            }
        }
        out
    }

    /// In-place LU factorisation with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::SingularMatrix`] if a pivot is exactly zero,
    /// and [`NumericsError::DimensionMismatch`] for non-square input.
    pub fn lu(&self) -> Result<DenseLu> {
        if self.rows != self.cols {
            return Err(NumericsError::DimensionMismatch {
                context: format!("lu: matrix is {}x{}", self.rows, self.cols),
            });
        }
        let n = self.rows;
        let mut a = self.data.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        lu_sweep(n, &mut a, &mut perm)?;
        Ok(DenseLu { n, lu: a, perm })
    }

    /// Solves `A·x = b` via a fresh LU factorisation.
    ///
    /// # Errors
    ///
    /// Propagates factorisation errors; see [`DenseMatrix::lu`].
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        Ok(self.lu()?.solve(b))
    }
}

impl std::ops::Index<(usize, usize)> for DenseMatrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for DenseMatrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

/// The in-place partial-pivoting LU sweep shared by [`DenseMatrix::lu`]
/// and [`DenseLu::refactor`]: `a` holds the matrix on entry and the packed
/// `L`/`U` factors on exit; `perm` must arrive as the identity.
fn lu_sweep(n: usize, a: &mut [f64], perm: &mut [usize]) -> Result<()> {
    for k in 0..n {
        // Partial pivoting: find the largest |a[i][k]| for i >= k.
        let mut piv_row = k;
        let mut piv_val = a[k * n + k].abs();
        for i in (k + 1)..n {
            let v = a[i * n + k].abs();
            if v > piv_val {
                piv_val = v;
                piv_row = i;
            }
        }
        if piv_val == 0.0 {
            return Err(NumericsError::SingularMatrix {
                index: k,
                pivot: piv_val,
            });
        }
        if piv_row != k {
            for j in 0..n {
                a.swap(k * n + j, piv_row * n + j);
            }
            perm.swap(k, piv_row);
        }
        let pivot = a[k * n + k];
        for i in (k + 1)..n {
            let m = a[i * n + k] / pivot;
            a[i * n + k] = m;
            if m != 0.0 {
                for j in (k + 1)..n {
                    a[i * n + j] -= m * a[k * n + j];
                }
            }
        }
    }
    Ok(())
}

/// LU factors of a dense matrix (`P·A = L·U`, unit lower-triangular `L`).
#[derive(Debug, Clone)]
pub struct DenseLu {
    n: usize,
    lu: Vec<f64>,
    perm: Vec<usize>,
}

impl DenseLu {
    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// The row order: row `k` of `L·U` is row `perm()[k]` of the
    /// factored matrix.
    pub(crate) fn perm(&self) -> &[usize] {
        &self.perm
    }

    /// Refactors in place from a same-dimension matrix, reusing this
    /// factor's storage: no allocation, fresh partial pivoting. The value
    /// refresh behind the block-Jacobi preconditioner's in-place numeric
    /// update.
    ///
    /// # Errors
    ///
    /// * [`NumericsError::DimensionMismatch`] if `m` is not `n × n`.
    /// * [`NumericsError::SingularMatrix`] if a pivot is exactly zero (the
    ///   factor's values are unspecified afterwards).
    pub fn refactor(&mut self, m: &DenseMatrix) -> Result<()> {
        if m.rows() != self.n || m.cols() != self.n {
            return Err(NumericsError::DimensionMismatch {
                context: format!(
                    "DenseLu::refactor: {}x{} matrix into factor of dim {}",
                    m.rows(),
                    m.cols(),
                    self.n
                ),
            });
        }
        self.lu.copy_from_slice(m.as_slice());
        for (i, p) in self.perm.iter_mut().enumerate() {
            *p = i;
        }
        lu_sweep(self.n, &mut self.lu, &mut self.perm)
    }

    /// Solves `A·x = b` using the stored factors.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; self.n];
        self.solve_into(b, &mut x);
        x
    }

    /// Solves `A·x = b` into a caller-provided buffer (no allocation).
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.dim()` or `out.len() != self.dim()`.
    pub fn solve_into(&self, b: &[f64], out: &mut [f64]) {
        assert_eq!(b.len(), self.n, "DenseLu::solve_into: dimension mismatch");
        assert_eq!(out.len(), self.n, "DenseLu::solve_into: output mismatch");
        let n = self.n;
        // Apply permutation, then forward/back substitution.
        for (xi, &p) in out.iter_mut().zip(&self.perm) {
            *xi = b[p];
        }
        let x = out;
        for i in 1..n {
            let mut s = x[i];
            for j in 0..i {
                s -= self.lu[i * n + j] * x[j];
            }
            x[i] = s;
        }
        for i in (0..n).rev() {
            let mut s = x[i];
            for j in (i + 1)..n {
                s -= self.lu[i * n + j] * x[j];
            }
            x[i] = s / self.lu[i * n + i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn mat(rows: usize, cols: usize, v: &[f64]) -> DenseMatrix {
        DenseMatrix::from_row_major(rows, cols, v.to_vec()).expect("shape")
    }

    #[test]
    fn identity_solve_is_identity() {
        let a = DenseMatrix::identity(4);
        let b = vec![1.0, -2.0, 3.0, 0.5];
        assert_eq!(a.solve(&b).expect("solve"), b);
    }

    #[test]
    fn solve_2x2() {
        let a = mat(2, 2, &[4.0, 1.0, 1.0, 3.0]);
        let x = a.solve(&[1.0, 2.0]).expect("solve");
        assert!((4.0 * x[0] + x[1] - 1.0).abs() < 1e-14);
        assert!((x[0] + 3.0 * x[1] - 2.0).abs() < 1e-14);
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        let a = mat(2, 2, &[0.0, 1.0, 1.0, 0.0]);
        let x = a.solve(&[3.0, 7.0]).expect("solve");
        assert!((x[0] - 7.0).abs() < 1e-14);
        assert!((x[1] - 3.0).abs() < 1e-14);
    }

    #[test]
    fn singular_matrix_reports_error() {
        let a = mat(2, 2, &[1.0, 2.0, 2.0, 4.0]);
        match a.lu() {
            Err(NumericsError::SingularMatrix { .. }) => {}
            other => panic!("expected SingularMatrix, got {other:?}"),
        }
    }

    #[test]
    fn non_square_lu_rejected() {
        let a = DenseMatrix::zeros(2, 3);
        assert!(matches!(
            a.lu(),
            Err(NumericsError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn matmul_identity() {
        let a = mat(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let i = DenseMatrix::identity(2);
        assert_eq!(a.matmul(&i), a);
    }

    proptest! {
        #[test]
        fn prop_lu_solve_residual(seed in 0u64..1000) {
            // Build a diagonally dominant random matrix: always solvable.
            let n = 6;
            let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            let mut next = move || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
            };
            let mut a = DenseMatrix::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    a[(i, j)] = next();
                }
                a[(i, i)] += n as f64; // dominance
            }
            let b: Vec<f64> = (0..n).map(|_| next()).collect();
            let x = a.solve(&b).expect("solve");
            let r = crate::vector::sub(&a.matvec(&x), &b);
            prop_assert!(crate::vector::norm_inf(&r) < 1e-10);
        }
    }
}
