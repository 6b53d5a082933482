//! Restarted GMRES with right preconditioning.

use std::time::Instant;

use super::{LinearOperator, Preconditioner};
use crate::budget::SolveBudget;
use crate::vector::{axpy, norm2};
use crate::{NumericsError, Result};

/// Options for [`gmres`].
#[derive(Debug, Clone, Copy)]
pub struct GmresOptions {
    /// Relative residual tolerance: converged when `‖r‖ ≤ rtol·‖b‖ + atol`.
    pub rtol: f64,
    /// Absolute residual tolerance.
    pub atol: f64,
    /// Krylov subspace dimension before a restart.
    pub restart: usize,
    /// Maximum total matrix–vector products.
    pub max_iters: usize,
}

impl Default for GmresOptions {
    fn default() -> Self {
        GmresOptions {
            rtol: 1e-10,
            atol: 1e-300,
            restart: 50,
            max_iters: 2000,
        }
    }
}

/// Convergence statistics returned alongside the solution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GmresStats {
    /// Total matrix–vector products performed.
    pub iterations: usize,
    /// Final (preconditioned-system) residual norm.
    pub residual: f64,
}

/// Solves `A·x = b` by restarted GMRES with right preconditioning
/// (`A·M⁻¹·u = b`, `x = M⁻¹·u`), starting from `x0`.
///
/// Right preconditioning keeps the monitored residual equal to the true
/// residual of the original system.
///
/// # Errors
///
/// * [`NumericsError::NotConverged`] if `max_iters` matvecs are exhausted.
/// * [`NumericsError::DimensionMismatch`] if `b.len() != a.dim()`.
pub fn gmres<A: LinearOperator + ?Sized, M: Preconditioner + ?Sized>(
    a: &A,
    m: &M,
    b: &[f64],
    x0: &[f64],
    options: GmresOptions,
) -> Result<(Vec<f64>, GmresStats)> {
    gmres_budgeted(a, m, b, x0, options, &SolveBudget::unlimited())
}

/// [`gmres`] under a [`SolveBudget`]: the cancel token and deadline are
/// polled at every restart boundary and inside the Arnoldi inner loop
/// (once per matvec), so a batch cancel stops a long Krylov solve
/// promptly. Stagnation guards are an outer-(Newton-)loop concern and
/// are not applied here.
///
/// # Errors
///
/// [`NumericsError::Interrupted`] on cancellation or deadline expiry,
/// plus everything [`gmres`] returns.
pub fn gmres_budgeted<A: LinearOperator + ?Sized, M: Preconditioner + ?Sized>(
    a: &A,
    m: &M,
    b: &[f64],
    x0: &[f64],
    options: GmresOptions,
    budget: &SolveBudget,
) -> Result<(Vec<f64>, GmresStats)> {
    let n = a.dim();
    let limited = !budget.is_unlimited();
    let start = Instant::now();
    if b.len() != n || x0.len() != n {
        return Err(NumericsError::DimensionMismatch {
            context: format!("gmres: dim {} vs b {} / x0 {}", n, b.len(), x0.len()),
        });
    }
    let restart = options.restart.max(1).min(n.max(1));
    let bnorm = norm2(b);
    let target = options.rtol * bnorm + options.atol;

    let mut x = x0.to_vec();
    let mut total_matvecs = 0usize;
    let mut scratch = vec![0.0; n];
    let mut residual_norm;

    // Initial residual r = b − A·x.
    let mut r = vec![0.0; n];
    a.apply(&x, &mut r);
    total_matvecs += 1;
    for i in 0..n {
        r[i] = b[i] - r[i];
    }
    residual_norm = norm2(&r);

    while residual_norm > target {
        if limited {
            if let Some(i) = budget.interruption(start, total_matvecs, residual_norm) {
                return Err(NumericsError::Interrupted(i));
            }
        }
        if total_matvecs >= options.max_iters {
            return Err(NumericsError::NotConverged {
                iterations: total_matvecs,
                residual: residual_norm,
                tolerance: target,
            });
        }
        // Arnoldi with modified Gram-Schmidt.
        let beta = residual_norm;
        let mut basis: Vec<Vec<f64>> = Vec::with_capacity(restart + 1);
        basis.push(r.iter().map(|v| v / beta).collect());
        // Hessenberg stored column-wise: h[j] has j+2 entries.
        let mut h: Vec<Vec<f64>> = Vec::with_capacity(restart);
        let mut cs: Vec<f64> = Vec::with_capacity(restart);
        let mut sn: Vec<f64> = Vec::with_capacity(restart);
        let mut g = vec![0.0; restart + 1];
        g[0] = beta;
        let mut k_used = 0;

        for j in 0..restart {
            if total_matvecs >= options.max_iters {
                break;
            }
            if limited {
                if let Some(i) = budget.interruption(start, total_matvecs, residual_norm) {
                    return Err(NumericsError::Interrupted(i));
                }
            }
            // w = A·M⁻¹·v_j
            m.apply(&basis[j], &mut scratch);
            let mut w = vec![0.0; n];
            a.apply(&scratch, &mut w);
            total_matvecs += 1;
            let mut hj = vec![0.0; j + 2];
            for (i, vi) in basis.iter().enumerate().take(j + 1) {
                let hij = crate::vector::dot(&w, vi);
                hj[i] = hij;
                axpy(-hij, vi, &mut w);
            }
            let wnorm = norm2(&w);
            hj[j + 1] = wnorm;
            // Apply previous Givens rotations to the new column.
            for i in 0..j {
                let t = cs[i] * hj[i] + sn[i] * hj[i + 1];
                hj[i + 1] = -sn[i] * hj[i] + cs[i] * hj[i + 1];
                hj[i] = t;
            }
            // New rotation to annihilate hj[j+1].
            let denom = (hj[j] * hj[j] + hj[j + 1] * hj[j + 1]).sqrt();
            let (c, s) = if denom == 0.0 {
                (1.0, 0.0)
            } else {
                (hj[j] / denom, hj[j + 1] / denom)
            };
            cs.push(c);
            sn.push(s);
            hj[j] = c * hj[j] + s * hj[j + 1];
            hj[j + 1] = 0.0;
            g[j + 1] = -s * g[j];
            g[j] *= c;
            h.push(hj);
            k_used = j + 1;
            residual_norm = g[j + 1].abs();
            if residual_norm <= target || wnorm == 0.0 {
                break;
            }
            basis.push(w.iter().map(|v| v / wnorm).collect());
        }

        // Back-substitute y from the triangularised Hessenberg system.
        let mut y = vec![0.0; k_used];
        for i in (0..k_used).rev() {
            let mut s = g[i];
            for j in (i + 1)..k_used {
                s -= h[j][i] * y[j];
            }
            y[i] = s / h[i][i];
        }
        // x += M⁻¹·(V·y)
        let mut vy = vec![0.0; n];
        for (j, yj) in y.iter().enumerate() {
            axpy(*yj, &basis[j], &mut vy);
        }
        m.apply(&vy, &mut scratch);
        for i in 0..n {
            x[i] += scratch[i];
        }
        // True residual for the restart decision.
        a.apply(&x, &mut r);
        total_matvecs += 1;
        for i in 0..n {
            r[i] = b[i] - r[i];
        }
        residual_norm = norm2(&r);
    }

    Ok((
        x,
        GmresStats {
            iterations: total_matvecs,
            residual: residual_norm,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::krylov::{FnOperator, IdentityPrecond};
    use crate::sparse::Triplets;
    use crate::vector::{norm_inf, sub};

    fn grid_matrix(n1: usize, n2: usize) -> crate::sparse::CsrMatrix {
        let n = n1 * n2;
        let mut t = Triplets::new(n, n);
        for j in 0..n2 {
            for i in 0..n1 {
                let me = j * n1 + i;
                t.push(me, me, 4.1);
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
        t.to_csr()
    }

    #[test]
    fn solves_diagonal_system() {
        let op = FnOperator::new(4, |x: &[f64], y: &mut [f64]| {
            for i in 0..4 {
                y[i] = (i + 1) as f64 * x[i];
            }
        });
        let b = vec![1.0, 4.0, 9.0, 16.0];
        let (x, stats) = gmres(
            &op,
            &IdentityPrecond,
            &b,
            &[0.0; 4],
            GmresOptions::default(),
        )
        .expect("gmres");
        for i in 0..4 {
            assert!((x[i] - (i + 1) as f64).abs() < 1e-8, "x = {x:?}");
        }
        assert!(stats.iterations <= 6);
    }

    #[test]
    fn solves_grid_unpreconditioned() {
        let a = grid_matrix(7, 7);
        let b = vec![1.0; a.rows()];
        let (x, _) = gmres(
            &a,
            &IdentityPrecond,
            &b,
            &vec![0.0; a.rows()],
            GmresOptions::default(),
        )
        .expect("gmres");
        let r = sub(&a.matvec(&x), &b);
        assert!(norm_inf(&r) < 1e-8);
    }

    #[test]
    fn warm_start_exact_solution_converges_immediately() {
        let a = grid_matrix(4, 4);
        let x_true: Vec<f64> = (0..a.rows()).map(|i| i as f64 * 0.1).collect();
        let b = a.matvec(&x_true);
        let (x, stats) =
            gmres(&a, &IdentityPrecond, &b, &x_true, GmresOptions::default()).expect("gmres");
        assert!(stats.iterations <= 1);
        assert!(norm_inf(&sub(&x, &x_true)) < 1e-12);
    }

    #[test]
    fn iteration_budget_respected() {
        let a = grid_matrix(8, 8);
        let b = vec![1.0; a.rows()];
        let opts = GmresOptions {
            max_iters: 3,
            rtol: 1e-14,
            restart: 2,
            ..Default::default()
        };
        match gmres(&a, &IdentityPrecond, &b, &vec![0.0; a.rows()], opts) {
            Err(NumericsError::NotConverged { iterations, .. }) => assert!(iterations <= 4),
            other => panic!("expected NotConverged, got {other:?}"),
        }
    }

    #[test]
    fn cancelled_budget_interrupts_inner_loop() {
        use crate::budget::{CancelToken, InterruptReason, SolveBudget};
        let a = grid_matrix(8, 8);
        let b = vec![1.0; a.rows()];
        let token = CancelToken::new();
        token.cancel();
        let budget = SolveBudget::unlimited().with_cancel(token);
        match gmres_budgeted(
            &a,
            &IdentityPrecond,
            &b,
            &vec![0.0; a.rows()],
            GmresOptions::default(),
            &budget,
        ) {
            Err(NumericsError::Interrupted(i)) => {
                assert_eq!(i.reason, InterruptReason::Cancelled);
            }
            other => panic!("expected Interrupted, got {other:?}"),
        }
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let a = grid_matrix(2, 2);
        let r = gmres(
            &a,
            &IdentityPrecond,
            &[1.0; 3],
            &[0.0; 4],
            GmresOptions::default(),
        );
        assert!(matches!(r, Err(NumericsError::DimensionMismatch { .. })));
    }

    #[test]
    fn nonsymmetric_system() {
        // Convection-diffusion-like nonsymmetric operator.
        let n = 40;
        let mut t = Triplets::new(n, n);
        for i in 0..n {
            t.push(i, i, 3.0);
            if i > 0 {
                t.push(i, i - 1, -2.0);
            }
            if i + 1 < n {
                t.push(i, i + 1, -0.5);
            }
        }
        let a = t.to_csr();
        let b = vec![1.0; n];
        let (x, _) = gmres(
            &a,
            &IdentityPrecond,
            &b,
            &vec![0.0; n],
            GmresOptions::default(),
        )
        .expect("gmres");
        let r = sub(&a.matvec(&x), &b);
        assert!(norm_inf(&r) < 1e-8);
    }
}
