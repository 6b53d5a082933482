//! Small vector kernels on `&[f64]` slices.
//!
//! These are deliberately plain functions rather than a vector newtype:
//! solution vectors flow between crates as `Vec<f64>`, and callers decide
//! the storage (C-CALLER-CONTROL).

/// Dot product `xᵀy`.
///
/// # Panics
///
/// Panics if `x.len() != y.len()`.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// `y ← y + alpha·x`.
///
/// # Panics
///
/// Panics if `x.len() != y.len()`.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `x ← alpha·x`.
#[inline]
pub fn scale(alpha: f64, x: &mut [f64]) {
    for xi in x {
        *xi *= alpha;
    }
}

/// Euclidean norm `‖x‖₂`, computed with scaling to avoid overflow.
#[inline]
pub fn norm2(x: &[f64]) -> f64 {
    let amax = norm_inf(x);
    if amax == 0.0 || !amax.is_finite() {
        return amax;
    }
    let mut sum = 0.0;
    for &v in x {
        let s = v / amax;
        sum += s * s;
    }
    amax * sum.sqrt()
}

/// Max-magnitude norm `‖x‖∞`.
#[inline]
pub fn norm_inf(x: &[f64]) -> f64 {
    // NaN must propagate: `f64::max` *ignores* NaN operands, so a plain
    // max-fold reports an all-NaN vector as ‖x‖∞ = 0 — which upstream
    // convergence tests read as "converged". A Newton line search once
    // accepted a NaN iterate as residual-zero through exactly this hole.
    x.iter().fold(0.0_f64, |m, &v| {
        let a = v.abs();
        // Both operands checked: `max` would also discard an accumulated
        // NaN the moment a finite entry followed it.
        if m.is_nan() || a.is_nan() {
            f64::NAN
        } else {
            m.max(a)
        }
    })
}

/// Componentwise `z = x − y` into a fresh vector.
///
/// # Panics
///
/// Panics if `x.len() != y.len()`.
#[inline]
pub fn sub(x: &[f64], y: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), y.len(), "sub: length mismatch");
    x.iter().zip(y).map(|(a, b)| a - b).collect()
}

/// Weighted convergence norm used by Newton loops:
/// `max_i |x_i| / (reltol·|ref_i| + abstol)`.
///
/// A value ≤ 1 means every component satisfies its mixed
/// absolute/relative tolerance, mirroring SPICE's convergence test.
///
/// # Panics
///
/// Panics if `x.len() != reference.len()`.
#[inline]
pub fn wrms_ratio(x: &[f64], reference: &[f64], reltol: f64, abstol: f64) -> f64 {
    assert_eq!(x.len(), reference.len(), "wrms_ratio: length mismatch");
    x.iter()
        .zip(reference)
        .map(|(&xi, &ri)| xi.abs() / (reltol * ri.abs() + abstol))
        .fold(0.0_f64, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn dot_orthogonal() {
        assert_eq!(dot(&[1.0, 0.0], &[0.0, 5.0]), 0.0);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 2.0];
        axpy(2.0, &[10.0, 20.0], &mut y);
        assert_eq!(y, vec![21.0, 42.0]);
    }

    #[test]
    fn norm2_matches_definition() {
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
    }

    #[test]
    fn norm2_empty_is_zero() {
        assert_eq!(norm2(&[]), 0.0);
    }

    #[test]
    fn norms_propagate_nan_instead_of_reporting_zero() {
        // `f64::max` ignores NaN: an all-NaN vector used to report
        // ‖x‖∞ = 0 (and so ‖x‖₂ = 0), reading as perfect convergence.
        assert!(norm_inf(&[f64::NAN]).is_nan());
        assert!(norm_inf(&[f64::NAN, 1.0]).is_nan());
        assert!(norm_inf(&[1.0, f64::NAN]).is_nan());
        assert!(norm2(&[f64::NAN]).is_nan());
        assert!(norm2(&[3.0, f64::NAN, 4.0]).is_nan());
        assert!(norm_inf(&[f64::INFINITY]).is_infinite());
    }

    #[test]
    fn norm2_no_overflow_for_huge_entries() {
        let big = 1e300;
        let n = norm2(&[big, big]);
        assert!(n.is_finite());
        assert!((n / big - std::f64::consts::SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn wrms_ratio_unit_when_at_tolerance() {
        // |x| exactly reltol*|ref| + abstol => ratio 1.
        let r = wrms_ratio(&[1e-3 + 1e-9], &[1.0], 1e-3, 1e-9);
        assert!((r - 1.0).abs() < 1e-9);
    }

    proptest! {
        #[test]
        fn prop_cauchy_schwarz(x in proptest::collection::vec(-1e3f64..1e3, 1..20),
                               y in proptest::collection::vec(-1e3f64..1e3, 1..20)) {
            let n = x.len().min(y.len());
            let (x, y) = (&x[..n], &y[..n]);
            let lhs = dot(x, y).abs();
            let rhs = norm2(x) * norm2(y);
            prop_assert!(lhs <= rhs * (1.0 + 1e-12) + 1e-12);
        }

        #[test]
        fn prop_norm_inf_le_norm2(x in proptest::collection::vec(-1e3f64..1e3, 1..20)) {
            prop_assert!(norm_inf(&x) <= norm2(&x) * (1.0 + 1e-12));
        }

        #[test]
        fn prop_sub_then_add_roundtrip(x in proptest::collection::vec(-1e3f64..1e3, 1..20)) {
            let z = sub(&x, &x);
            prop_assert!(norm_inf(&z) == 0.0);
        }
    }
}
