//! The assembled circuit: residual/Jacobian/source evaluation.

use std::collections::HashMap;

use rfsim_numerics::sparse::Triplets;

use crate::devices::Device;
use crate::node::NodeId;
use crate::stamp::StampContext;
use crate::Result;

/// What an MNA unknown represents, for tolerance selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnknownKind {
    /// A node voltage (volts).
    NodeVoltage,
    /// A branch current (amperes).
    BranchCurrent,
}

/// An immutable circuit ready for analysis.
///
/// The circuit exposes the pieces of the DAE `d/dt q(x) + f(x) + b(t) = 0`:
/// residuals, Jacobians and excitation vectors, in both single-time and
/// bivariate (multi-time) form.
pub struct Circuit {
    devices: Vec<Box<dyn Device>>,
    unknown_names: Vec<String>,
    unknown_kinds: Vec<UnknownKind>,
    node_by_name: HashMap<String, NodeId>,
}

impl std::fmt::Debug for Circuit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Circuit")
            .field("devices", &self.devices.len())
            .field("unknowns", &self.unknown_names.len())
            .finish()
    }
}

impl Circuit {
    pub(crate) fn new(
        devices: Vec<Box<dyn Device>>,
        unknown_names: Vec<String>,
        unknown_kinds: Vec<UnknownKind>,
        node_by_name: HashMap<String, NodeId>,
    ) -> Self {
        Circuit {
            devices,
            unknown_names,
            unknown_kinds,
            node_by_name,
        }
    }

    /// Number of MNA unknowns (node voltages + branch currents).
    pub fn num_unknowns(&self) -> usize {
        self.unknown_names.len()
    }

    /// Human-readable unknown names (node names, then `i(<device>)`).
    pub fn unknown_names(&self) -> &[String] {
        &self.unknown_names
    }

    /// Kind of each unknown, for voltage/current tolerance selection.
    pub fn unknown_kinds(&self) -> &[UnknownKind] {
        &self.unknown_kinds
    }

    /// Index of the unknown carrying the given node's voltage
    /// (`None` for ground).
    pub fn unknown_index_of_node(&self, node: NodeId) -> Option<usize> {
        if node.is_ground() {
            None
        } else {
            Some(node.index() - 1)
        }
    }

    /// Looks up a node by name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.node_by_name.get(name).copied()
    }

    /// Evaluates the conductive residual `f(x)` and optionally
    /// `G = ∂f/∂x` (entries are *added* into the supplied builders).
    ///
    /// # Panics
    ///
    /// Panics if `x.len()`/`f.len()` differ from [`Circuit::num_unknowns`].
    pub fn eval_f(&self, x: &[f64], f: &mut [f64], jacobian: Option<&mut Triplets>) {
        let n = self.num_unknowns();
        assert_eq!(x.len(), n, "eval_f: x length");
        assert_eq!(f.len(), n, "eval_f: f length");
        f.fill(0.0);
        let mut ctx = StampContext::new(f, jacobian);
        for dev in &self.devices {
            dev.stamp_resistive(x, &mut ctx);
        }
    }

    /// Evaluates the charge residual `q(x)` and optionally `C = ∂q/∂x`.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths differ from [`Circuit::num_unknowns`].
    pub fn eval_q(&self, x: &[f64], q: &mut [f64], jacobian: Option<&mut Triplets>) {
        let n = self.num_unknowns();
        assert_eq!(x.len(), n, "eval_q: x length");
        assert_eq!(q.len(), n, "eval_q: q length");
        q.fill(0.0);
        let mut ctx = StampContext::new(q, jacobian);
        for dev in &self.devices {
            dev.stamp_reactive(x, &mut ctx);
        }
    }

    /// Evaluates the excitation `b(t)`.
    pub fn eval_b(&self, t: f64, b: &mut [f64]) {
        b.fill(0.0);
        for dev in &self.devices {
            dev.stamp_source(t, b);
        }
    }

    /// Evaluates the DC component of the excitation (homotopy endpoint).
    pub fn eval_b_dc(&self, b: &mut [f64]) {
        b.fill(0.0);
        for dev in &self.devices {
            dev.stamp_source_dc(b);
        }
    }

    /// Evaluates the bivariate excitation `b̂(t1, t2)`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CircuitError::MissingBivariateSource`] if any
    /// time-varying source lacks a multi-time description.
    pub fn eval_b_bi(&self, t1: f64, t2: f64, b: &mut [f64]) -> Result<()> {
        b.fill(0.0);
        for dev in &self.devices {
            dev.stamp_source_bi(t1, t2, b)?;
        }
        Ok(())
    }

    /// Whether all sources support bivariate evaluation.
    pub fn supports_bivariate(&self) -> bool {
        let mut b = vec![0.0; self.num_unknowns()];
        self.eval_b_bi(0.0, 0.0, &mut b).is_ok()
    }

    /// Convenience accessor: sparse `G` and `C` patterns at a given point.
    pub fn jacobians_at(&self, x: &[f64]) -> (Triplets, Triplets) {
        let n = self.num_unknowns();
        let mut g = Triplets::new(n, n);
        let mut c = Triplets::new(n, n);
        let mut scratch = vec![0.0; n];
        self.eval_f(x, &mut scratch, Some(&mut g));
        self.eval_q(x, &mut scratch, Some(&mut c));
        (g, c)
    }

    /// Fingerprint of this circuit's MNA Jacobian structure: the CSC
    /// pattern of `G + C` (conductive plus charge stamps), which is what
    /// every Newton linear system over this circuit — DC, transient,
    /// collocation, MPDE — draws its per-grid-point blocks from.
    ///
    /// Device stamps push their full pattern with exact zeros kept, so the
    /// fingerprint is independent of device *values* and of the evaluation
    /// point: two circuits with identical element connectivity fingerprint
    /// identically, while a topology change (an added element coupling new
    /// node pairs, an added unknown) changes it. The sweep engine groups
    /// jobs and keys each sweep's linear-solver workspaces by it; it is a
    /// routing key, not a correctness check (see
    /// [`rfsim_numerics::sparse::PatternFingerprint`]).
    pub fn jacobian_fingerprint(&self) -> rfsim_numerics::sparse::PatternFingerprint {
        let zeros = vec![0.0; self.num_unknowns()];
        let (mut g, c) = self.jacobians_at(&zeros);
        // Union of both stamp patterns, in one compressed structure.
        merge_triplets(&mut g, &c);
        g.pattern_fingerprint()
    }
}

/// Appends `src`'s entries onto `dst` (the duplicate-summing conversion
/// folds shared positions, so this is the pattern union).
fn merge_triplets(dst: &mut Triplets, src: &Triplets) {
    let csr = src.to_csr();
    for i in 0..src.rows() {
        let (cols, vals) = csr.row(i);
        for (c, v) in cols.iter().zip(vals) {
            dst.push(i, *c, *v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CircuitBuilder;
    use crate::node::GROUND;
    use crate::waveform::{BiWaveform, Waveform};
    use proptest::prelude::*;

    /// Voltage divider: V1 = 10 V across R1 (1k) + R2 (1k).
    fn divider() -> Circuit {
        let mut b = CircuitBuilder::new();
        let inp = b.node("in");
        let mid = b.node("mid");
        b.vsource("V1", inp, GROUND, Waveform::Dc(10.0)).expect("v");
        b.resistor("R1", inp, mid, 1e3).expect("r1");
        b.resistor("R2", mid, GROUND, 1e3).expect("r2");
        b.build().expect("build")
    }

    #[test]
    fn residual_zero_at_exact_solution() {
        let ckt = divider();
        // unknowns: v(in), v(mid), i(V1)
        // At solution: v(in)=10, v(mid)=5, branch current = −(10−5)/1k = −5 mA
        // (current through source flows from ground into 'in').
        let x = vec![10.0, 5.0, -5e-3];
        // The static DAE residual F(x) = f(x) + b(0) (no charge term).
        let (mut f, mut b) = (vec![0.0; 3], vec![0.0; 3]);
        ckt.eval_f(&x, &mut f, None);
        ckt.eval_b(0.0, &mut b);
        for (i, v) in f.iter().zip(&b).map(|(f, b)| f + b).enumerate() {
            assert!(v.abs() < 1e-12, "residual[{i}] = {v}");
        }
    }

    #[test]
    fn jacobian_matches_finite_difference() {
        let ckt = divider();
        let x = vec![1.0, 2.0, 3.0];
        let n = 3;
        let mut g = Triplets::new(n, n);
        let mut f0 = vec![0.0; n];
        ckt.eval_f(&x, &mut f0, Some(&mut g));
        let gm = g.to_csr();
        let h = 1e-6;
        for col in 0..n {
            let mut xp = x.clone();
            xp[col] += h;
            let mut fp = vec![0.0; n];
            ckt.eval_f(&xp, &mut fp, None);
            for row in 0..n {
                let fd = (fp[row] - f0[row]) / h;
                assert!(
                    (gm.get(row, col) - fd).abs() < 1e-4,
                    "G[{row}][{col}] {} vs {}",
                    gm.get(row, col),
                    fd
                );
            }
        }
    }

    #[test]
    fn bivariate_rejected_for_plain_sine() {
        let mut b = CircuitBuilder::new();
        let n = b.node("a");
        b.vsource("V1", n, GROUND, Waveform::sine(1.0, 1e6))
            .expect("v");
        b.resistor("R1", n, GROUND, 1e3).expect("r");
        let ckt = b.build().expect("build");
        assert!(!ckt.supports_bivariate());
    }

    #[test]
    fn bivariate_supported_with_bi_sources() {
        let mut b = CircuitBuilder::new();
        let n = b.node("a");
        b.vsource("V1", n, GROUND, BiWaveform::Axis1(Waveform::sine(1.0, 1e6)))
            .expect("v");
        b.resistor("R1", n, GROUND, 1e3).expect("r");
        let ckt = b.build().expect("build");
        assert!(ckt.supports_bivariate());
        let mut bvec = vec![0.0; ckt.num_unknowns()];
        ckt.eval_b_bi(0.25e-6, 0.0, &mut bvec).expect("bi eval");
        // sin(2π·0.25) = 1, stamped as −V on the branch row (index 1).
        assert!((bvec[1] + 1.0).abs() < 1e-9);
    }

    #[test]
    fn unknown_bookkeeping() {
        let ckt = divider();
        assert_eq!(ckt.num_unknowns(), 3);
        let node = ckt.node_by_name("mid").expect("mid exists");
        assert_eq!(ckt.unknown_index_of_node(node), Some(1));
        assert_eq!(ckt.unknown_index_of_node(GROUND), None);
        assert!(ckt.node_by_name("nope").is_none());
        assert_eq!(ckt.unknown_names()[2], "i(V1)");
    }

    /// The mixer-shaped fixture used by the fingerprint property tests:
    /// source → R → diode → RC tank, with every element value drawn from
    /// the property's random stream.
    fn diode_filter(amp: f64, r1: f64, r2: f64, c: f64, extra_cap: Option<f64>) -> Circuit {
        let mut b = CircuitBuilder::new();
        let inp = b.node("in");
        let mid = b.node("mid");
        let out = b.node("out");
        b.vsource("V1", inp, GROUND, Waveform::sine(amp, 1e6))
            .expect("v");
        b.resistor("R1", inp, mid, r1).expect("r1");
        b.diode("D1", mid, out, crate::DiodeParams::default())
            .expect("d1");
        b.resistor("R2", out, GROUND, r2).expect("r2");
        b.capacitor("C1", out, GROUND, c).expect("c1");
        if let Some(ce) = extra_cap {
            // Perturbed topology: a feedthrough capacitor couples the
            // previously unconnected (in, out) node pair.
            b.capacitor("CX", inp, out, ce).expect("cx");
        }
        b.build().expect("build")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_fingerprint_keys_topology_not_values(
            amp in 0.1f64..10.0,
            r1 in 10.0f64..1e6,
            r2 in 10.0f64..1e6,
            c in 1e-12f64..1e-6,
            ce in 1e-12f64..1e-6,
        ) {
            // Satellite property: two circuits built from the same topology
            // produce identical CSC Jacobian fingerprints regardless of
            // element values…
            let a = diode_filter(amp, r1, r2, c, None);
            let b = diode_filter(1.0, 1e3, 2e3, 1e-9, None);
            prop_assert_eq!(a.jacobian_fingerprint(), b.jacobian_fingerprint());
            // …and a perturbed topology (one extra element) produces a
            // different one.
            let p = diode_filter(amp, r1, r2, c, Some(ce));
            prop_assert_ne!(a.jacobian_fingerprint(), p.jacobian_fingerprint());
            // Perturbed circuits again agree among themselves.
            let q = diode_filter(2.0 * amp, r1, 0.5 * r2, c, Some(1e-9));
            prop_assert_eq!(p.jacobian_fingerprint(), q.jacobian_fingerprint());
        }
    }
}
