//! SPICE-class nonlinear circuit substrate for the `rfsim` workspace.
//!
//! Circuits are described by the differential-algebraic system of the paper
//! (eq. 1):
//!
//! ```text
//! d/dt q(x(t)) + f(x(t)) + b(t) = 0
//! ```
//!
//! where `x` collects node voltages and branch currents (modified nodal
//! analysis), `q` the charge/flux terms, `f` the conductive terms and `b`
//! the excitation. Devices stamp their contributions to `f`, `q`, their
//! Jacobians, and `b`; analyses (DC operating point, transient) and the
//! steady-state engines in the sibling crates consume the assembled system.
//!
//! # Example: RC low-pass driven by a sine
//!
//! ```
//! use rfsim_circuit::{CircuitBuilder, Waveform, GROUND};
//!
//! # fn main() -> Result<(), rfsim_circuit::CircuitError> {
//! let mut b = CircuitBuilder::new();
//! let inp = b.node("in");
//! let out = b.node("out");
//! b.vsource("V1", inp, GROUND, Waveform::sine(1.0, 1e3))?;
//! b.resistor("R1", inp, out, 1e3)?;
//! b.capacitor("C1", out, GROUND, 1e-6)?;
//! let circuit = b.build()?;
//! let op = rfsim_circuit::dcop::dc_operating_point(&circuit, Default::default())?;
//! let v_out = op.solution[circuit.unknown_index_of_node(out).expect("internal node")];
//! assert!(v_out.abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

pub mod builder;
pub mod circuit;
pub mod dcop;
pub mod devices;
pub mod driver;
pub mod fault;
pub mod newton;
pub mod stamp;
pub mod transient;
pub mod waveform;

mod error;
mod node;

pub use builder::CircuitBuilder;
pub use circuit::{Circuit, UnknownKind};
pub use devices::{DiodeParams, MosPolarity, MosfetParams};
pub use driver::{NewtonProfile, RungKind};
pub use error::CircuitError;
pub use node::{NodeId, GROUND};
pub use stamp::StampContext;
pub use waveform::{BiWaveform, Envelope, SourceSpec, Waveform};

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, CircuitError>;
