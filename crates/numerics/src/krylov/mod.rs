//! Krylov-subspace iterative solvers and preconditioners.
//!
//! The paper notes that the MPDE systems are solved "using iterative linear
//! solution methods"; this module provides restarted [`gmres`] over a
//! matrix-free [`LinearOperator`] abstraction, with identity and
//! block-Jacobi preconditioning.

mod gmres;
mod precond;

pub use gmres::{gmres, gmres_budgeted, GmresOptions, GmresStats};
pub use precond::{BlockJacobiPrecond, IdentityPrecond, Preconditioner};

use crate::sparse::CsrMatrix;

/// Anything that can apply `y = A·x` — an explicit sparse matrix or a
/// matrix-free operator (e.g. transient sensitivity propagation in the
/// Krylov shooting method).
pub trait LinearOperator {
    /// Problem dimension (`A` is `dim × dim`).
    fn dim(&self) -> usize;

    /// Computes `y = A·x`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `x.len() != self.dim()` or
    /// `y.len() != self.dim()`.
    fn apply(&self, x: &[f64], y: &mut [f64]);
}

impl LinearOperator for CsrMatrix {
    fn dim(&self) -> usize {
        self.rows()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.matvec_into(x, y);
    }
}

/// A closure-backed operator, handy for tests and shooting methods.
pub struct FnOperator<F> {
    dim: usize,
    f: F,
}

impl<F: Fn(&[f64], &mut [f64])> FnOperator<F> {
    /// Wraps a closure computing `y = A·x` for vectors of length `dim`.
    pub fn new(dim: usize, f: F) -> Self {
        FnOperator { dim, f }
    }
}

impl<F: Fn(&[f64], &mut [f64])> LinearOperator for FnOperator<F> {
    fn dim(&self) -> usize {
        self.dim
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        (self.f)(x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::Triplets;

    #[test]
    fn csr_operator_applies() {
        let mut t = Triplets::new(2, 2);
        t.push(0, 0, 2.0);
        t.push(1, 1, 3.0);
        let a = t.to_csr();
        let mut y = vec![0.0; 2];
        a.apply(&[1.0, 1.0], &mut y);
        assert_eq!(y, vec![2.0, 3.0]);
    }

    #[test]
    fn fn_operator_applies() {
        let op = FnOperator::new(3, |x: &[f64], y: &mut [f64]| {
            for (yi, xi) in y.iter_mut().zip(x) {
                *yi = 2.0 * xi;
            }
        });
        let mut y = vec![0.0; 3];
        op.apply(&[1.0, 2.0, 3.0], &mut y);
        assert_eq!(y, vec![2.0, 4.0, 6.0]);
        assert_eq!(op.dim(), 3);
    }
}
