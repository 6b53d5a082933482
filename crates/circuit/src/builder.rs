//! Fluent construction of circuits.
//!
//! The builder owns the node-name table and validates device parameters;
//! [`CircuitBuilder::build`] freezes everything into an immutable
//! [`Circuit`], allocating branch-current unknowns after the node unknowns.

use std::collections::HashMap;

use crate::circuit::{Circuit, UnknownKind};
use crate::devices::{
    Bjt, BjtParams, Capacitor, Device, Diode, DiodeParams, Inductor, Isource, Mosfet, MosfetParams,
    Multiplier, Resistor, Vccs, Vcvs, Vsource,
};
use crate::node::{NodeId, GROUND};
use crate::stamp::Unknown;
use crate::waveform::SourceSpec;
use crate::{CircuitError, Result};

/// Builds a [`Circuit`] device by device.
#[derive(Debug, Default)]
pub struct CircuitBuilder {
    node_names: Vec<String>,
    node_by_name: HashMap<String, NodeId>,
    devices: Vec<Box<dyn Device>>,
    device_names: HashMap<String, usize>,
}

impl CircuitBuilder {
    /// Creates an empty builder (ground is pre-registered).
    pub fn new() -> Self {
        let mut b = CircuitBuilder {
            node_names: vec!["gnd".to_string()],
            node_by_name: HashMap::new(),
            devices: Vec::new(),
            device_names: HashMap::new(),
        };
        b.node_by_name.insert("gnd".into(), GROUND);
        b.node_by_name.insert("0".into(), GROUND);
        b
    }

    /// Returns the node with the given name, creating it if necessary.
    /// The names `"gnd"` and `"0"` refer to ground.
    pub fn node(&mut self, name: &str) -> NodeId {
        if let Some(&id) = self.node_by_name.get(name) {
            return id;
        }
        let id = NodeId(self.node_names.len() as u32);
        self.node_names.push(name.to_string());
        self.node_by_name.insert(name.to_string(), id);
        id
    }

    fn register_name(&mut self, name: &str) -> Result<()> {
        if self.device_names.contains_key(name) {
            return Err(CircuitError::BadName {
                name: name.to_string(),
                context: "device name already in use".into(),
            });
        }
        self.device_names
            .insert(name.to_string(), self.devices.len());
        Ok(())
    }

    fn unknown(node: NodeId) -> Unknown {
        if node.is_ground() {
            Unknown::Ground
        } else {
            // Node k occupies unknown k−1 (ground carries none).
            Unknown::Index(node.index() - 1)
        }
    }

    /// Adds a resistor.
    ///
    /// # Errors
    ///
    /// Rejects non-positive or non-finite resistance and duplicate names.
    pub fn resistor(&mut self, name: &str, a: NodeId, b: NodeId, ohms: f64) -> Result<&mut Self> {
        if !(ohms > 0.0 && ohms.is_finite()) {
            return Err(CircuitError::InvalidParameter {
                device: name.to_string(),
                context: format!("resistance must be positive and finite, got {ohms}"),
            });
        }
        self.register_name(name)?;
        self.devices.push(Box::new(Resistor::new(
            name.to_string(),
            Self::unknown(a),
            Self::unknown(b),
            ohms,
        )));
        Ok(self)
    }

    /// Adds a capacitor.
    ///
    /// # Errors
    ///
    /// Rejects negative or non-finite capacitance and duplicate names.
    pub fn capacitor(
        &mut self,
        name: &str,
        a: NodeId,
        b: NodeId,
        farads: f64,
    ) -> Result<&mut Self> {
        if !(farads >= 0.0 && farads.is_finite()) {
            return Err(CircuitError::InvalidParameter {
                device: name.to_string(),
                context: format!("capacitance must be non-negative, got {farads}"),
            });
        }
        self.register_name(name)?;
        self.devices.push(Box::new(Capacitor::new(
            name.to_string(),
            Self::unknown(a),
            Self::unknown(b),
            farads,
        )));
        Ok(self)
    }

    /// Adds an inductor (allocates a branch-current unknown).
    ///
    /// # Errors
    ///
    /// Rejects non-positive inductance and duplicate names.
    pub fn inductor(
        &mut self,
        name: &str,
        a: NodeId,
        b: NodeId,
        henries: f64,
    ) -> Result<&mut Self> {
        if !(henries > 0.0 && henries.is_finite()) {
            return Err(CircuitError::InvalidParameter {
                device: name.to_string(),
                context: format!("inductance must be positive, got {henries}"),
            });
        }
        self.register_name(name)?;
        self.devices.push(Box::new(Inductor::new(
            name.to_string(),
            Self::unknown(a),
            Self::unknown(b),
            henries,
        )));
        Ok(self)
    }

    /// Adds an independent voltage source from `p` to `n`
    /// (allocates a branch-current unknown).
    ///
    /// # Errors
    ///
    /// Rejects duplicate names.
    pub fn vsource(
        &mut self,
        name: &str,
        p: NodeId,
        n: NodeId,
        spec: impl Into<SourceSpec>,
    ) -> Result<&mut Self> {
        self.register_name(name)?;
        self.devices.push(Box::new(Vsource::new(
            name.to_string(),
            Self::unknown(p),
            Self::unknown(n),
            spec.into(),
        )));
        Ok(self)
    }

    /// Adds an independent current source driving from `p` through the
    /// source to `n`.
    ///
    /// # Errors
    ///
    /// Rejects duplicate names.
    pub fn isource(
        &mut self,
        name: &str,
        p: NodeId,
        n: NodeId,
        spec: impl Into<SourceSpec>,
    ) -> Result<&mut Self> {
        self.register_name(name)?;
        self.devices.push(Box::new(Isource::new(
            name.to_string(),
            Self::unknown(p),
            Self::unknown(n),
            spec.into(),
        )));
        Ok(self)
    }

    /// Adds a voltage-controlled current source.
    ///
    /// # Errors
    ///
    /// Rejects duplicate names.
    pub fn vccs(
        &mut self,
        name: &str,
        p: NodeId,
        n: NodeId,
        cp: NodeId,
        cn: NodeId,
        gm: f64,
    ) -> Result<&mut Self> {
        self.register_name(name)?;
        self.devices.push(Box::new(Vccs::new(
            name.to_string(),
            Self::unknown(p),
            Self::unknown(n),
            Self::unknown(cp),
            Self::unknown(cn),
            gm,
        )));
        Ok(self)
    }

    /// Adds a voltage-controlled voltage source (allocates a branch).
    ///
    /// # Errors
    ///
    /// Rejects duplicate names.
    pub fn vcvs(
        &mut self,
        name: &str,
        p: NodeId,
        n: NodeId,
        cp: NodeId,
        cn: NodeId,
        gain: f64,
    ) -> Result<&mut Self> {
        self.register_name(name)?;
        self.devices.push(Box::new(Vcvs::new(
            name.to_string(),
            Self::unknown(p),
            Self::unknown(n),
            Self::unknown(cp),
            Self::unknown(cn),
            gain,
        )));
        Ok(self)
    }

    /// Adds a behavioural multiplier: current `K·v_x·v_y` from `p` to `n`.
    ///
    /// # Errors
    ///
    /// Rejects duplicate names.
    #[allow(clippy::too_many_arguments)]
    pub fn multiplier(
        &mut self,
        name: &str,
        p: NodeId,
        n: NodeId,
        xp: NodeId,
        xn: NodeId,
        yp: NodeId,
        yn: NodeId,
        gain: f64,
    ) -> Result<&mut Self> {
        self.register_name(name)?;
        self.devices.push(Box::new(Multiplier::new(
            name.to_string(),
            Self::unknown(p),
            Self::unknown(n),
            Self::unknown(xp),
            Self::unknown(xn),
            Self::unknown(yp),
            Self::unknown(yn),
            gain,
        )));
        Ok(self)
    }

    /// Adds a junction diode from `anode` to `cathode`.
    ///
    /// # Errors
    ///
    /// Rejects non-positive saturation current and duplicate names.
    pub fn diode(
        &mut self,
        name: &str,
        anode: NodeId,
        cathode: NodeId,
        params: DiodeParams,
    ) -> Result<&mut Self> {
        if !(params.is > 0.0 && params.n > 0.0) {
            return Err(CircuitError::InvalidParameter {
                device: name.to_string(),
                context: format!(
                    "Is and n must be positive, got Is={} n={}",
                    params.is, params.n
                ),
            });
        }
        self.register_name(name)?;
        self.devices.push(Box::new(Diode::new(
            name.to_string(),
            Self::unknown(anode),
            Self::unknown(cathode),
            params,
        )));
        Ok(self)
    }

    /// Adds a level-1 MOSFET with terminals (drain, gate, source).
    ///
    /// # Errors
    ///
    /// Rejects non-positive `kp`, `w` or `l` and duplicate names.
    pub fn mosfet(
        &mut self,
        name: &str,
        drain: NodeId,
        gate: NodeId,
        source: NodeId,
        params: MosfetParams,
    ) -> Result<&mut Self> {
        if !(params.kp > 0.0 && params.w > 0.0 && params.l > 0.0) {
            return Err(CircuitError::InvalidParameter {
                device: name.to_string(),
                context: format!(
                    "kp, w, l must be positive, got kp={} w={} l={}",
                    params.kp, params.w, params.l
                ),
            });
        }
        self.register_name(name)?;
        self.devices.push(Box::new(Mosfet::new(
            name.to_string(),
            Self::unknown(drain),
            Self::unknown(gate),
            Self::unknown(source),
            params,
        )));
        Ok(self)
    }

    /// Adds an Ebers–Moll BJT with terminals (collector, base, emitter).
    ///
    /// # Errors
    ///
    /// Rejects non-positive `is` or gains, and duplicate names.
    pub fn bjt(
        &mut self,
        name: &str,
        collector: NodeId,
        base: NodeId,
        emitter: NodeId,
        params: BjtParams,
    ) -> Result<&mut Self> {
        if !(params.is > 0.0 && params.beta_f > 0.0 && params.beta_r > 0.0) {
            return Err(CircuitError::InvalidParameter {
                device: name.to_string(),
                context: format!(
                    "Is, beta_f, beta_r must be positive, got Is={} bf={} br={}",
                    params.is, params.beta_f, params.beta_r
                ),
            });
        }
        self.register_name(name)?;
        self.devices.push(Box::new(Bjt::new(
            name.to_string(),
            Self::unknown(collector),
            Self::unknown(base),
            Self::unknown(emitter),
            params,
        )));
        Ok(self)
    }

    /// Freezes the builder into an immutable [`Circuit`], allocating branch
    /// unknowns after the node unknowns.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::Structural`] for an empty circuit.
    pub fn build(mut self) -> Result<Circuit> {
        if self.devices.is_empty() {
            return Err(CircuitError::Structural {
                context: "circuit has no devices".into(),
            });
        }
        let num_node_unknowns = self.node_names.len() - 1;
        let mut kinds = vec![UnknownKind::NodeVoltage; num_node_unknowns];
        let mut names: Vec<String> = self.node_names[1..].to_vec();
        let mut next = num_node_unknowns;
        for dev in self.devices.iter_mut() {
            let nb = dev.num_branches();
            if nb > 0 {
                let branches: Vec<usize> = (next..next + nb).collect();
                dev.assign_branches(&branches);
                for k in 0..nb {
                    kinds.push(UnknownKind::BranchCurrent);
                    names.push(format!(
                        "i({}){}",
                        dev.name(),
                        if nb > 1 {
                            format!("#{k}")
                        } else {
                            String::new()
                        }
                    ));
                }
                next += nb;
            }
        }
        Ok(Circuit::new(self.devices, names, kinds, self.node_by_name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waveform::Waveform;

    #[test]
    fn node_names_resolve_and_dedupe() {
        let mut b = CircuitBuilder::new();
        let a1 = b.node("a");
        let a2 = b.node("a");
        assert_eq!(a1, a2);
        assert_eq!(b.node("gnd"), GROUND);
        assert_eq!(b.node("0"), GROUND);
    }

    #[test]
    fn duplicate_device_names_rejected() {
        let mut b = CircuitBuilder::new();
        let n = b.node("a");
        b.resistor("R1", n, GROUND, 1.0).expect("first ok");
        assert!(matches!(
            b.resistor("R1", n, GROUND, 2.0),
            Err(CircuitError::BadName { .. })
        ));
    }

    #[test]
    fn invalid_parameters_rejected() {
        let mut b = CircuitBuilder::new();
        let n = b.node("a");
        assert!(b.resistor("R1", n, GROUND, -5.0).is_err());
        assert!(b.resistor("R2", n, GROUND, 0.0).is_err());
        assert!(b.capacitor("C1", n, GROUND, -1e-12).is_err());
        assert!(b.inductor("L1", n, GROUND, 0.0).is_err());
        assert!(b
            .mosfet(
                "M1",
                n,
                n,
                GROUND,
                MosfetParams {
                    kp: -1.0,
                    ..Default::default()
                }
            )
            .is_err());
    }

    #[test]
    fn empty_circuit_rejected() {
        assert!(CircuitBuilder::new().build().is_err());
    }

    #[test]
    fn branch_unknowns_follow_nodes() {
        let mut b = CircuitBuilder::new();
        let a = b.node("a");
        let c = b.node("c");
        b.vsource("V1", a, GROUND, Waveform::Dc(1.0)).expect("v");
        b.resistor("R1", a, c, 1e3).expect("r");
        b.inductor("L1", c, GROUND, 1e-6).expect("l");
        let ckt = b.build().expect("build");
        // 2 node unknowns + 2 branch unknowns (V source + inductor).
        assert_eq!(ckt.num_unknowns(), 4);
        assert_eq!(ckt.unknown_kinds()[0], UnknownKind::NodeVoltage);
        assert_eq!(ckt.unknown_kinds()[2], UnknownKind::BranchCurrent);
    }
}
