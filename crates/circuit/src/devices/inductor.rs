//! Linear inductor (adds one branch-current unknown).

use super::Device;
use crate::stamp::{StampContext, Unknown};

/// A linear inductor with branch current `i` as an extra unknown.
///
/// KCL rows get `±i`; the branch row carries `v_a − v_b − L·di/dt = 0`,
/// expressed in the `d/dt q + f = 0` form as `f_br = v_a − v_b` and
/// `q_br = −L·i`.
#[derive(Debug, Clone)]
pub struct Inductor {
    name: String,
    a: Unknown,
    b: Unknown,
    inductance: f64,
    branch: Unknown,
}

impl Inductor {
    pub(crate) fn new(name: String, a: Unknown, b: Unknown, inductance: f64) -> Self {
        Inductor {
            name,
            a,
            b,
            inductance,
            branch: Unknown::Ground, // assigned later
        }
    }

    /// The inductance in henries.
    pub fn inductance(&self) -> f64 {
        self.inductance
    }
}

impl Device for Inductor {
    fn name(&self) -> &str {
        &self.name
    }

    fn num_branches(&self) -> usize {
        1
    }

    fn assign_branches(&mut self, branches: &[usize]) {
        self.branch = Unknown::Index(branches[0]);
    }

    fn stamp_resistive(&self, x: &[f64], ctx: &mut StampContext<'_>) {
        let i = StampContext::value(x, self.branch);
        // KCL: current i flows from a through the inductor to b.
        ctx.add_residual(self.a, i);
        ctx.add_residual(self.b, -i);
        ctx.add_jacobian(self.a, self.branch, 1.0);
        ctx.add_jacobian(self.b, self.branch, -1.0);
        // Branch voltage part: f_br = v_a − v_b.
        let v = StampContext::value(x, self.a) - StampContext::value(x, self.b);
        ctx.add_residual(self.branch, v);
        ctx.add_jacobian(self.branch, self.a, 1.0);
        ctx.add_jacobian(self.branch, self.b, -1.0);
    }

    fn stamp_reactive(&self, x: &[f64], ctx: &mut StampContext<'_>) {
        // q_br = −L·i so that d/dt q_br + f_br = −L·di/dt + (v_a − v_b) = 0.
        let i = StampContext::value(x, self.branch);
        ctx.add_residual(self.branch, -self.inductance * i);
        ctx.add_jacobian(self.branch, self.branch, -self.inductance);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfsim_numerics::sparse::Triplets;

    #[test]
    fn branch_equation_signs() {
        let mut l = Inductor::new("L1".into(), Unknown::Index(0), Unknown::Ground, 1e-6);
        l.assign_branches(&[1]);
        let x = vec![2.0, 0.3]; // v_a = 2, i = 0.3
        let mut f = vec![0.0; 2];
        let mut jf = Triplets::new(2, 2);
        l.stamp_resistive(&x, &mut StampContext::new(&mut f, Some(&mut jf)));
        assert!((f[0] - 0.3).abs() < 1e-15, "KCL at a gets +i");
        assert!((f[1] - 2.0).abs() < 1e-15, "branch row gets v_a");
        let mut q = vec![0.0; 2];
        let mut jq = Triplets::new(2, 2);
        l.stamp_reactive(&x, &mut StampContext::new(&mut q, Some(&mut jq)));
        assert!((q[1] + 1e-6 * 0.3).abs() < 1e-20);
        assert_eq!(jq.to_csr().get(1, 1), -1e-6);
    }
}
