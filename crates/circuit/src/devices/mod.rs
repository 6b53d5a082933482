//! Device models.
//!
//! Every device implements [`Device`]: it stamps its conductive residual
//! `f(x)` (with Jacobian `G`), its charge residual `q(x)` (with Jacobian
//! `C`), and — for independent sources — the excitation `b(t)` or its
//! bivariate form `b̂(t1, t2)`.
//!
//! Sign conventions (`d/dt q + f + b = 0`):
//! * KCL rows: currents *leaving* a node are positive.
//! * A voltage source `V` contributes branch equation `v⁺ − v⁻ − V(t) = 0`,
//!   stamped as `f = v⁺ − v⁻` and `b = −V(t)`.
//! * A current source with value `J` drives `J` from its `p` terminal
//!   through the source to `n` (SPICE convention), i.e. `b_p = +J`,
//!   `b_n = −J`.

mod bjt;
mod capacitor;
mod controlled;
mod diode;
mod inductor;
mod mosfet;
mod multiplier;
mod resistor;
mod sources;

pub use bjt::{Bjt, BjtOperatingPoint, BjtParams, BjtPolarity};
pub use capacitor::Capacitor;
pub use controlled::{Vccs, Vcvs};
pub use diode::{Diode, DiodeParams};
pub use inductor::Inductor;
pub use mosfet::{MosPolarity, Mosfet, MosfetParams};
pub use multiplier::Multiplier;
pub use resistor::Resistor;
pub use sources::{Isource, Vsource};

use crate::stamp::StampContext;
use crate::Result;

/// A circuit element that stamps into the MNA system.
///
/// **Stamp contract.** The sequence of Jacobian entries a device stamps,
/// each `(row, col)` in order, depends on its parameters only, never on
/// the state `x`: a conditional stamp tests a parameter (the MOSFET's
/// `cgs != 0.0`, the diode's `cj0 == 0.0 && tt == 0.0`), and a value that
/// passes through zero is still stamped. Pattern caches rely on it. The
/// Newton workspace's slot maps verify every stamp position and rebuild
/// on a change; the MPDE's compiled grid Jacobian compiles one stamp
/// sequence for every grid point and panics on a change rather than
/// build a wrong Jacobian. Every built-in device keeps the contract, and
/// [`crate::CircuitBuilder`] builds circuits from built-in devices only.
pub trait Device: Send + Sync + std::fmt::Debug {
    /// The device's instance name (unique within a circuit).
    fn name(&self) -> &str;

    /// Number of extra branch-current unknowns this device needs
    /// (voltage sources and inductors need one).
    fn num_branches(&self) -> usize {
        0
    }

    /// Receives the unknown indices allocated for this device's branches.
    ///
    /// Called exactly once by the builder; the slice length equals
    /// [`Device::num_branches`].
    fn assign_branches(&mut self, _branches: &[usize]) {}

    /// Stamps the conductive residual `f(x)` and, if requested, `∂f/∂x`.
    fn stamp_resistive(&self, x: &[f64], ctx: &mut StampContext<'_>);

    /// Stamps the charge residual `q(x)` and, if requested, `∂q/∂x`.
    fn stamp_reactive(&self, _x: &[f64], _ctx: &mut StampContext<'_>) {}

    /// Stamps the excitation `b(t)`.
    fn stamp_source(&self, _t: f64, _b: &mut [f64]) {}

    /// Stamps the *DC component* of the excitation (used as the `λ = 0`
    /// endpoint of source-stepping homotopies).
    fn stamp_source_dc(&self, _b: &mut [f64]) {}

    /// Stamps the bivariate excitation `b̂(t1, t2)`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CircuitError::MissingBivariateSource`] for sources
    /// without a multi-time description.
    fn stamp_source_bi(&self, _t1: f64, _t2: f64, _b: &mut [f64]) -> Result<()> {
        Ok(())
    }

    /// Whether this device contributes to `b`.
    fn is_source(&self) -> bool {
        false
    }
}

/// Soft exponential: `exp(u)` for `u ≤ cap`, linear continuation above.
///
/// Keeps diode/BJT style exponentials finite during Newton overshoot while
/// remaining C¹; the limited region is never active at a converged solution
/// of a physical circuit.
#[inline]
pub fn soft_exp(u: f64, cap: f64) -> (f64, f64) {
    if u <= cap {
        let e = u.exp();
        (e, e)
    } else {
        let e = cap.exp();
        (e * (1.0 + (u - cap)), e)
    }
}

/// Thermal voltage at 300 K, in volts.
pub const VT_300K: f64 = 0.025852;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soft_exp_matches_exp_below_cap() {
        let (v, d) = soft_exp(1.0, 40.0);
        assert!((v - 1.0f64.exp()).abs() < 1e-12);
        assert!((d - 1.0f64.exp()).abs() < 1e-12);
    }

    #[test]
    fn soft_exp_linear_above_cap() {
        let cap = 5.0;
        let (v1, d1) = soft_exp(6.0, cap);
        let (v2, _) = soft_exp(7.0, cap);
        assert!((d1 - cap.exp()).abs() < 1e-12);
        assert!(
            ((v2 - v1) - cap.exp()).abs() < 1e-9,
            "slope constant above cap"
        );
        assert!(v2.is_finite());
    }

    #[test]
    fn soft_exp_continuous_at_cap() {
        let cap = 3.0;
        let (below, _) = soft_exp(cap - 1e-12, cap);
        let (above, _) = soft_exp(cap + 1e-12, cap);
        assert!((below - above).abs() < 1e-6);
    }

    #[test]
    fn soft_exp_never_overflows() {
        let (v, d) = soft_exp(1e6, 40.0);
        assert!(v.is_finite());
        assert!(d.is_finite());
    }
}
