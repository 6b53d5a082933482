//! Independent voltage and current sources.

use super::Device;
use crate::stamp::{StampContext, Unknown};
use crate::waveform::{SourceSpec, Waveform};
use crate::{CircuitError, Result};

/// DC component of a waveform, used as the `λ = 0` endpoint of
/// source-stepping homotopies.
fn dc_component(w: &Waveform) -> f64 {
    match w {
        Waveform::Dc(v) => *v,
        Waveform::Sine { offset, .. } => *offset,
        Waveform::Pulse { v1, .. } => *v1,
        Waveform::Pwl(points) => points.first().map(|&(_, v)| v).unwrap_or(0.0),
        Waveform::Custom(_) => 0.0,
    }
}

/// Independent voltage source (adds one branch-current unknown).
///
/// Branch equation: `v_p − v_n − V(t) = 0`, stamped as `f_br = v_p − v_n`
/// and `b_br = −V(t)`.
#[derive(Debug, Clone)]
pub struct Vsource {
    name: String,
    p: Unknown,
    n: Unknown,
    spec: SourceSpec,
    branch: Unknown,
}

impl Vsource {
    pub(crate) fn new(name: String, p: Unknown, n: Unknown, spec: SourceSpec) -> Self {
        Vsource {
            name,
            p,
            n,
            spec,
            branch: Unknown::Ground,
        }
    }

    /// The source's time specification.
    pub fn spec(&self) -> &SourceSpec {
        &self.spec
    }
}

impl Device for Vsource {
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
        ctx.add_residual(self.p, i);
        ctx.add_residual(self.n, -i);
        ctx.add_jacobian(self.p, self.branch, 1.0);
        ctx.add_jacobian(self.n, self.branch, -1.0);
        let v = StampContext::value(x, self.p) - StampContext::value(x, self.n);
        ctx.add_residual(self.branch, v);
        ctx.add_jacobian(self.branch, self.p, 1.0);
        ctx.add_jacobian(self.branch, self.n, -1.0);
    }

    fn stamp_source(&self, t: f64, b: &mut [f64]) {
        if let Some(i) = self.branch.index() {
            b[i] -= self.spec.eval(t);
        }
    }

    fn stamp_source_dc(&self, b: &mut [f64]) {
        if let Some(i) = self.branch.index() {
            b[i] -= dc_component(self.spec.waveform());
        }
    }

    fn stamp_source_bi(&self, t1: f64, t2: f64, b: &mut [f64]) -> Result<()> {
        let v = self
            .spec
            .eval_bi(t1, t2)
            .ok_or_else(|| CircuitError::MissingBivariateSource {
                device: self.name.clone(),
            })?;
        if let Some(i) = self.branch.index() {
            b[i] -= v;
        }
        Ok(())
    }

    fn is_source(&self) -> bool {
        true
    }
}

/// Independent current source.
///
/// SPICE convention: a positive value `J` drives current from `p` through
/// the source to `n`, i.e. it is *extracted* from node `p`:
/// `b_p = +J`, `b_n = −J`.
#[derive(Debug, Clone)]
pub struct Isource {
    name: String,
    p: Unknown,
    n: Unknown,
    spec: SourceSpec,
}

impl Isource {
    pub(crate) fn new(name: String, p: Unknown, n: Unknown, spec: SourceSpec) -> Self {
        Isource { name, p, n, spec }
    }

    /// The source's time specification.
    pub fn spec(&self) -> &SourceSpec {
        &self.spec
    }
}

impl Device for Isource {
    fn name(&self) -> &str {
        &self.name
    }

    fn stamp_resistive(&self, _x: &[f64], _ctx: &mut StampContext<'_>) {}

    fn stamp_source(&self, t: f64, b: &mut [f64]) {
        let j = self.spec.eval(t);
        if let Some(i) = self.p.index() {
            b[i] += j;
        }
        if let Some(i) = self.n.index() {
            b[i] -= j;
        }
    }

    fn stamp_source_dc(&self, b: &mut [f64]) {
        let j = dc_component(self.spec.waveform());
        if let Some(i) = self.p.index() {
            b[i] += j;
        }
        if let Some(i) = self.n.index() {
            b[i] -= j;
        }
    }

    fn stamp_source_bi(&self, t1: f64, t2: f64, b: &mut [f64]) -> Result<()> {
        let j = self
            .spec
            .eval_bi(t1, t2)
            .ok_or_else(|| CircuitError::MissingBivariateSource {
                device: self.name.clone(),
            })?;
        if let Some(i) = self.p.index() {
            b[i] += j;
        }
        if let Some(i) = self.n.index() {
            b[i] -= j;
        }
        Ok(())
    }

    fn is_source(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waveform::BiWaveform;

    #[test]
    fn vsource_branch_stamps() {
        let mut v = Vsource::new(
            "V1".into(),
            Unknown::Index(0),
            Unknown::Ground,
            SourceSpec::uni(Waveform::Dc(5.0)),
        );
        v.assign_branches(&[1]);
        let x = vec![4.0, 0.1];
        let mut f = vec![0.0; 2];
        v.stamp_resistive(&x, &mut StampContext::new(&mut f, None));
        assert!((f[0] - 0.1).abs() < 1e-15);
        assert!((f[1] - 4.0).abs() < 1e-15);
        let mut b = vec![0.0; 2];
        v.stamp_source(0.0, &mut b);
        assert_eq!(b[1], -5.0);
        // Residual f + b at the true solution (v=5) is zero on the branch row.
        assert!((5.0 + b[1]).abs() < 1e-15);
    }

    #[test]
    fn isource_extracts_from_p() {
        let i = Isource::new(
            "I1".into(),
            Unknown::Index(0),
            Unknown::Index(1),
            SourceSpec::uni(Waveform::Dc(1e-3)),
        );
        let mut b = vec![0.0; 2];
        i.stamp_source(0.0, &mut b);
        assert_eq!(b[0], 1e-3);
        assert_eq!(b[1], -1e-3);
    }

    #[test]
    fn bivariate_missing_errors() {
        let v = Vsource::new(
            "V1".into(),
            Unknown::Index(0),
            Unknown::Ground,
            SourceSpec::uni(Waveform::sine(1.0, 1e6)),
        );
        let mut b = vec![0.0; 2];
        assert!(matches!(
            v.stamp_source_bi(0.0, 0.0, &mut b),
            Err(CircuitError::MissingBivariateSource { .. })
        ));
    }

    #[test]
    fn bivariate_dc_source_ok() {
        let i = Isource::new(
            "I1".into(),
            Unknown::Index(0),
            Unknown::Ground,
            SourceSpec::uni(Waveform::Dc(2.0)),
        );
        let mut b = vec![0.0; 1];
        i.stamp_source_bi(0.5, 0.7, &mut b).expect("dc bivariate");
        assert_eq!(b[0], 2.0);
    }

    #[test]
    fn bivariate_axis1_source() {
        let mut v = Vsource::new(
            "VLO".into(),
            Unknown::Index(0),
            Unknown::Ground,
            SourceSpec::bi(BiWaveform::Axis1(Waveform::sine(1.0, 1.0))),
        );
        v.assign_branches(&[1]);
        let mut b = vec![0.0; 2];
        v.stamp_source_bi(0.25, 0.9, &mut b).expect("bi");
        assert!((b[1] + 1.0).abs() < 1e-12, "sin(2π·0.25) = 1 on axis 1");
    }

    #[test]
    fn dc_component_of_waveforms() {
        assert_eq!(dc_component(&Waveform::Dc(3.0)), 3.0);
        assert_eq!(
            dc_component(&Waveform::Sine {
                amplitude: 1.0,
                freq: 1.0,
                phase: 0.0,
                offset: 0.7
            }),
            0.7
        );
    }
}
