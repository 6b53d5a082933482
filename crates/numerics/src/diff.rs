//! Periodic differentiation operators.
//!
//! The MPDE discretisation needs discrete `∂/∂t1` and `∂/∂t2` on uniform
//! periodic grids. Each [`DiffScheme`] is described by a compact stencil
//! (offset/weight pairs scaled by `1/h`), which the assembly code turns into
//! Jacobian entries; [`apply_periodic`] applies the operator directly to
//! sample vectors, and [`spectral_derivative`] provides the Fourier
//! (harmonic-balance) alternative.

use std::f64::consts::PI;

use crate::fft::{fft, ifft, Complex};
use crate::{NumericsError, Result};

/// Finite-difference scheme for a periodic first derivative.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DiffScheme {
    /// First-order backward Euler: `(x_i − x_{i−1})/h`. Strongly damped and
    /// very robust; the default for MPDE Newton solves.
    #[default]
    BackwardEuler,
    /// Second-order central difference: `(x_{i+1} − x_{i−1})/(2h)`.
    Central2,
    /// Second-order backward (BDF2): `(3x_i − 4x_{i−1} + x_{i−2})/(2h)`.
    Bdf2,
}

impl DiffScheme {
    /// Stencil as `(offset, weight)` pairs; the derivative at grid index `i`
    /// with spacing `h` is `Σ_k weight_k · x_{i+offset_k} / h`.
    pub fn stencil(self) -> &'static [(isize, f64)] {
        match self {
            DiffScheme::BackwardEuler => &[(0, 1.0), (-1, -1.0)],
            DiffScheme::Central2 => &[(1, 0.5), (-1, -0.5)],
            DiffScheme::Bdf2 => &[(0, 1.5), (-1, -2.0), (-2, 0.5)],
        }
    }

    /// Formal order of accuracy.
    pub fn order(self) -> usize {
        match self {
            DiffScheme::BackwardEuler => 1,
            DiffScheme::Central2 | DiffScheme::Bdf2 => 2,
        }
    }

    /// Minimum number of periodic grid points for the stencil to make sense.
    pub fn min_points(self) -> usize {
        match self {
            DiffScheme::BackwardEuler | DiffScheme::Central2 => 2,
            DiffScheme::Bdf2 => 3,
        }
    }
}

/// Applies the periodic difference operator to `samples` over one period.
///
/// `period` is the full period `T`; the grid spacing is `T / samples.len()`.
///
/// # Errors
///
/// Returns [`NumericsError::InvalidArgument`] if there are fewer points than
/// the stencil needs or if `period <= 0`.
pub fn apply_periodic(scheme: DiffScheme, samples: &[f64], period: f64) -> Result<Vec<f64>> {
    let n = samples.len();
    if n < scheme.min_points() {
        return Err(NumericsError::InvalidArgument {
            context: format!("apply_periodic: {n} points < stencil minimum"),
        });
    }
    if period <= 0.0 {
        return Err(NumericsError::InvalidArgument {
            context: format!("apply_periodic: period {period} must be positive"),
        });
    }
    let h = period / n as f64;
    let stencil = scheme.stencil();
    let mut out = vec![0.0; n];
    for (i, o) in out.iter_mut().enumerate() {
        let mut s = 0.0;
        for &(off, w) in stencil {
            let idx = (i as isize + off).rem_euclid(n as isize) as usize;
            s += w * samples[idx];
        }
        *o = s / h;
    }
    Ok(out)
}

/// Spectral derivative of a periodic signal: exact for band-limited inputs.
/// This is the differentiation operator implicit in harmonic balance.
///
/// # Errors
///
/// Returns [`NumericsError::InvalidArgument`] if `period <= 0`.
pub fn spectral_derivative(samples: &[f64], period: f64) -> Result<Vec<f64>> {
    if period <= 0.0 {
        return Err(NumericsError::InvalidArgument {
            context: format!("spectral_derivative: period {period} must be positive"),
        });
    }
    let n = samples.len();
    if n == 0 {
        return Ok(Vec::new());
    }
    let data: Vec<Complex> = samples.iter().map(|&x| Complex::new(x, 0.0)).collect();
    let mut spec = fft(&data);
    for (k, z) in spec.iter_mut().enumerate() {
        // Signed frequency index in [-n/2, n/2).
        let kk = if k <= n / 2 {
            k as isize
        } else {
            k as isize - n as isize
        };
        // Nyquist bin derivative is ambiguous for even n; zero it (standard).
        let kk = if n.is_multiple_of(2) && k == n / 2 {
            0
        } else {
            kk
        };
        let omega = 2.0 * PI * kk as f64 / period;
        *z = Complex::new(-z.im, z.re) * omega; // multiply by i·omega
    }
    Ok(ifft(&spec).iter().map(|z| z.re).collect())
}

/// Spectral-differentiation weights: dense row `w` such that
/// `(dx/dt)_i = Σ_j w[(i-j) mod n] · x_j`. Used to assemble harmonic-balance
/// Jacobians without FFTs inside the Newton loop.
pub fn spectral_weights(n: usize, period: f64) -> Vec<f64> {
    // Derivative of the periodic sinc interpolant evaluated at grid points.
    // Standard formulas, see Trefethen, "Spectral Methods in MATLAB", ch. 3.
    let mut w = vec![0.0; n];
    if n <= 1 {
        return w;
    }
    let h = 2.0 * PI / n as f64;
    for (k, wk) in w.iter_mut().enumerate().skip(1) {
        let val = if n.is_multiple_of(2) {
            // Even n: w_k = (-1)^k / 2 · cot(k·h/2)
            0.5 * (-1.0f64).powi(k as i32) / (k as f64 * h / 2.0).tan()
        } else {
            // Odd n: w_k = (-1)^k / 2 / sin(k·h/2)
            0.5 * (-1.0f64).powi(k as i32) / (k as f64 * h / 2.0).sin()
        };
        *wk = val;
    }
    // Scale from the canonical 2π period to the requested one.
    let scale = 2.0 * PI / period;
    for wk in &mut w {
        *wk *= scale;
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_cos(n: usize, period: f64, harmonics: usize) -> (Vec<f64>, Vec<f64>) {
        // x(t) = cos(2π·harmonics·t/T); x'(t) analytic.
        let omega = 2.0 * PI * harmonics as f64 / period;
        let mut x = vec![0.0; n];
        let mut dx = vec![0.0; n];
        for i in 0..n {
            let t = period * i as f64 / n as f64;
            x[i] = (omega * t).cos();
            dx[i] = -omega * (omega * t).sin();
        }
        (x, dx)
    }

    #[test]
    fn derivative_of_constant_is_zero() {
        for scheme in [
            DiffScheme::BackwardEuler,
            DiffScheme::Central2,
            DiffScheme::Bdf2,
        ] {
            let d = apply_periodic(scheme, &[3.0; 16], 2.0).expect("apply");
            assert!(crate::vector::norm_inf(&d) < 1e-12, "{scheme:?}");
        }
    }

    #[test]
    fn convergence_order_backward_euler() {
        let period = 1.0;
        let err = |n: usize| {
            let (x, dx) = sample_cos(n, period, 1);
            let d = apply_periodic(DiffScheme::BackwardEuler, &x, period).expect("apply");
            crate::vector::norm_inf(&crate::vector::sub(&d, &dx))
        };
        let (e1, e2) = (err(64), err(128));
        let rate = (e1 / e2).log2();
        assert!((rate - 1.0).abs() < 0.15, "BE rate {rate}");
    }

    #[test]
    fn convergence_order_central_and_bdf2() {
        let period = 1.0;
        for scheme in [DiffScheme::Central2, DiffScheme::Bdf2] {
            let err = |n: usize| {
                let (x, dx) = sample_cos(n, period, 1);
                let d = apply_periodic(scheme, &x, period).expect("apply");
                crate::vector::norm_inf(&crate::vector::sub(&d, &dx))
            };
            let (e1, e2) = (err(64), err(128));
            let rate = (e1 / e2).log2();
            assert!((rate - 2.0).abs() < 0.2, "{scheme:?} rate {rate}");
        }
    }

    #[test]
    fn spectral_derivative_exact_for_bandlimited() {
        let period = 0.5;
        let (x, dx) = sample_cos(32, period, 3);
        let d = spectral_derivative(&x, period).expect("spectral");
        let e = crate::vector::norm_inf(&crate::vector::sub(&d, &dx));
        assert!(e < 1e-8, "spectral error {e}");
    }

    #[test]
    fn spectral_weights_match_fft_derivative() {
        for n in [8usize, 9, 16, 15] {
            let period = 2.0;
            let x: Vec<f64> = (0..n)
                .map(|i| {
                    (2.0 * PI * i as f64 / n as f64).cos()
                        + 0.3 * (4.0 * PI * i as f64 / n as f64).sin()
                })
                .collect();
            let via_fft = spectral_derivative(&x, period).expect("fft path");
            let w = spectral_weights(n, period);
            // The circulant product: row i weights sample j by w[(i − j) mod n].
            let via_weights: Vec<f64> = (0..n)
                .map(|i| (0..n).map(|j| w[(i + n - j) % n] * x[j]).sum())
                .collect();
            for i in 0..n {
                assert!(
                    (via_fft[i] - via_weights[i]).abs() < 1e-8,
                    "n={n} i={i}: {} vs {}",
                    via_fft[i],
                    via_weights[i]
                );
            }
        }
    }

    #[test]
    fn stencil_weights_sum_to_zero() {
        // Required so the derivative of a constant vanishes.
        for scheme in [
            DiffScheme::BackwardEuler,
            DiffScheme::Central2,
            DiffScheme::Bdf2,
        ] {
            let sum: f64 = scheme.stencil().iter().map(|&(_, w)| w).sum();
            assert!(sum.abs() < 1e-15, "{scheme:?}");
        }
    }

    #[test]
    fn stencil_first_moment_is_one() {
        // Σ w_k·k = 1 makes the stencil a consistent first derivative.
        for scheme in [
            DiffScheme::BackwardEuler,
            DiffScheme::Central2,
            DiffScheme::Bdf2,
        ] {
            let m1: f64 = scheme.stencil().iter().map(|&(o, w)| w * o as f64).sum();
            assert!((m1 - 1.0).abs() < 1e-15, "{scheme:?}: moment {m1}");
        }
    }

    #[test]
    fn too_few_points_rejected() {
        assert!(apply_periodic(DiffScheme::Bdf2, &[1.0, 2.0], 1.0).is_err());
        assert!(apply_periodic(DiffScheme::BackwardEuler, &[1.0], 1.0).is_err());
    }

    #[test]
    fn bad_period_rejected() {
        assert!(apply_periodic(DiffScheme::Central2, &[1.0; 8], 0.0).is_err());
        assert!(spectral_derivative(&[1.0; 8], -1.0).is_err());
    }

    proptest! {
        #[test]
        fn prop_linearity(n in 4usize..40, alpha in -3.0f64..3.0, seed in 0u64..50) {
            let mut state = seed.wrapping_add(11).wrapping_mul(0x9E3779B97F4A7C15);
            let mut next = move || {
                state ^= state << 13; state ^= state >> 7; state ^= state << 17;
                (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
            };
            let x: Vec<f64> = (0..n).map(|_| next()).collect();
            let y: Vec<f64> = (0..n).map(|_| next()).collect();
            for scheme in [DiffScheme::BackwardEuler, DiffScheme::Central2, DiffScheme::Bdf2] {
                if n < scheme.min_points() { continue; }
                let combo: Vec<f64> = x.iter().zip(&y).map(|(a, b)| alpha * a + b).collect();
                let d_combo = apply_periodic(scheme, &combo, 1.0).expect("combo");
                let dx = apply_periodic(scheme, &x, 1.0).expect("x");
                let dy = apply_periodic(scheme, &y, 1.0).expect("y");
                for i in 0..n {
                    prop_assert!((d_combo[i] - (alpha * dx[i] + dy[i])).abs() < 1e-7);
                }
            }
        }
    }
}
