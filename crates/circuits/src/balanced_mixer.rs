//! The balanced LO-doubling down-conversion mixer of the paper's §3.
//!
//! Topology (reconstructed from the paper's description of [Zhang/Chen/Lau
//! RAWCON 2000]):
//!
//! ```text
//!        VDD
//!       ┌─┴──────┐
//!      RD1      RD2
//!       │        │
//!     out_p    out_n          ← differential output (Figure 3/4)
//!       │        │
//!      M1─┐    ┌─M2           ← upper pair: gates driven by ±RF
//!         └─com┘              ← common node (Figure 5/6 "sources")
//!           │
//!      ┌────┴────┐
//!     M3         M4           ← lower pair: gates driven by ±LO
//!      │          │           (square-law ⇒ common current at 2·f_LO)
//!     gnd        gnd
//! ```
//!
//! The lower differential pair's drain currents sum to
//! `β(v_gt² + a²sin²ωt)` — a current at **twice** the LO frequency — so the
//! RF tone near `2·f_LO` mixes down to `fd = 2·f_LO − f_RF` (eq. 12/13 of
//! the paper; 15 kHz for the default parameters).

use rfsim_circuit::{
    BiWaveform, Circuit, CircuitBuilder, Envelope, MosfetParams, Result, Waveform, GROUND,
};

/// Parameters of the balanced mixer.
#[derive(Debug, Clone)]
pub struct BalancedMixerParams {
    /// LO frequency `f1` (doubled internally). Paper: 450 MHz.
    pub f_lo: f64,
    /// Baseband difference frequency `fd = 2·f1 − f_rf`. Paper: 15 kHz.
    pub fd: f64,
    /// LO drive amplitude per side (V).
    pub lo_amplitude: f64,
    /// LO gate bias (V); keeps the lower pair near its square-law region.
    pub lo_bias: f64,
    /// RF drive amplitude per side (V).
    pub rf_amplitude: f64,
    /// RF gate bias (V).
    pub rf_bias: f64,
    /// Bit pattern modulating the RF carrier (empty = pure tone).
    pub rf_bits: Vec<bool>,
    /// Raised-cosine edge fraction of each bit slot.
    pub bit_edge_fraction: f64,
    /// Supply voltage (V).
    pub vdd: f64,
    /// Drain load resistors (Ω).
    pub rd: f64,
    /// Output node capacitance to ground (F) per side.
    pub cl: f64,
    /// Extra capacitance at the common node (F).
    pub c_common: f64,
    /// Upper-pair device parameters.
    pub upper: MosfetParams,
    /// Lower-pair device parameters.
    pub lower: MosfetParams,
}

impl Default for BalancedMixerParams {
    fn default() -> Self {
        // Capacitances sized for 900 MHz operation: the output pole
        // (RD·C_out ≈ 1k·60 fF → 2.6 GHz) stays above the doubled LO, which
        // keeps the conversion gain healthy (≈ +8 dB at default drive).
        let upper = MosfetParams {
            kp: 120e-6,
            vt0: 0.5,
            lambda: 0.05,
            w: 40e-6,
            l: 0.35e-6,
            cgs: 15e-15,
            cgd: 4e-15,
            cdb: 8e-15,
            csb: 8e-15,
            ..Default::default()
        };
        let lower = MosfetParams { w: 60e-6, ..upper };
        BalancedMixerParams {
            f_lo: 450e6,
            fd: 15e3,
            lo_amplitude: 0.4,
            lo_bias: 0.75,
            rf_amplitude: 0.05,
            rf_bias: 1.9,
            rf_bits: vec![true, false, true, true],
            bit_edge_fraction: 0.08,
            vdd: 3.0,
            rd: 1e3,
            cl: 40e-15,
            c_common: 10e-15,
            upper,
            lower,
        }
    }
}

impl BalancedMixerParams {
    /// The RF carrier frequency `f_rf = 2·f_lo − fd`.
    pub fn f_rf(&self) -> f64 {
        2.0 * self.f_lo - self.fd
    }

    /// Fast-axis (LO) period.
    pub fn t1_period(&self) -> f64 {
        1.0 / self.f_lo
    }

    /// Slow-axis (difference) period.
    pub fn t2_period(&self) -> f64 {
        1.0 / self.fd
    }
}

/// The built mixer with its probe points resolved to unknown indices.
#[derive(Debug)]
pub struct BalancedMixer {
    /// The circuit.
    pub circuit: Circuit,
    /// Unknown index of the positive output node.
    pub out_p: usize,
    /// Unknown index of the negative output node.
    pub out_n: usize,
    /// Unknown index of the upper pair's common source node
    /// (the sharp doubled-frequency waveform of Figures 5–6).
    pub common: usize,
    /// The parameters used.
    pub params: BalancedMixerParams,
}

impl BalancedMixer {
    /// Builds the mixer netlist.
    ///
    /// # Errors
    ///
    /// Propagates parameter validation errors from the builder.
    pub fn build(params: BalancedMixerParams) -> Result<Self> {
        let p = &params;
        let mut b = CircuitBuilder::new();
        let vdd = b.node("vdd");
        let out_p = b.node("out_p");
        let out_n = b.node("out_n");
        let com = b.node("com");
        let lo_p = b.node("lo_p");
        let lo_n = b.node("lo_n");
        let rf_p = b.node("rf_p");
        let rf_n = b.node("rf_n");
        let rf_bias = b.node("rf_bias");

        b.vsource("VDD", vdd, GROUND, Waveform::Dc(p.vdd))?;
        b.resistor("RD1", vdd, out_p, p.rd)?;
        b.resistor("RD2", vdd, out_n, p.rd)?;
        b.capacitor("CL1", out_p, GROUND, p.cl)?;
        b.capacitor("CL2", out_n, GROUND, p.cl)?;
        b.capacitor("CCOM", com, GROUND, p.c_common)?;

        // LO drive: antiphase sines on the t1 axis with gate bias as offset.
        b.vsource(
            "VLOP",
            lo_p,
            GROUND,
            BiWaveform::Axis1(Waveform::Sine {
                amplitude: p.lo_amplitude,
                freq: p.f_lo,
                phase: 0.0,
                offset: p.lo_bias,
            }),
        )?;
        b.vsource(
            "VLON",
            lo_n,
            GROUND,
            BiWaveform::Axis1(Waveform::Sine {
                amplitude: -p.lo_amplitude,
                freq: p.f_lo,
                phase: 0.0,
                offset: p.lo_bias,
            }),
        )?;

        // RF drive: sheared carrier at 2·f_lo − fd (k = 2), differential
        // around a common bias.
        let envelope = if p.rf_bits.is_empty() {
            Envelope::Unit
        } else {
            Envelope::bits(p.rf_bits.clone(), p.bit_edge_fraction)
        };
        b.vsource("VRFB", rf_bias, GROUND, Waveform::Dc(p.rf_bias))?;
        b.vsource(
            "VRFP",
            rf_p,
            rf_bias,
            BiWaveform::ShearedCarrier {
                amplitude: p.rf_amplitude,
                k: 2,
                f1: p.f_lo,
                fd: p.fd,
                phase: 0.0,
                envelope: envelope.clone(),
            },
        )?;
        b.vsource(
            "VRFN",
            rf_n,
            rf_bias,
            BiWaveform::ShearedCarrier {
                amplitude: -p.rf_amplitude,
                k: 2,
                f1: p.f_lo,
                fd: p.fd,
                phase: 0.0,
                envelope,
            },
        )?;

        // Upper mixing pair.
        b.mosfet("M1", out_p, rf_p, com, p.upper)?;
        b.mosfet("M2", out_n, rf_n, com, p.upper)?;
        // Lower doubling pair.
        b.mosfet("M3", com, lo_p, GROUND, p.lower)?;
        b.mosfet("M4", com, lo_n, GROUND, p.lower)?;

        let circuit = b.build()?;
        let idx = |name: &str| {
            circuit
                .unknown_index_of_node(circuit.node_by_name(name).expect("node exists"))
                .expect("not ground")
        };
        Ok(BalancedMixer {
            out_p: idx("out_p"),
            out_n: idx("out_n"),
            common: idx("com"),
            circuit,
            params,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfsim_circuit::dcop::dc_operating_point;

    #[test]
    fn paper_frequencies() {
        let p = BalancedMixerParams::default();
        assert!((p.f_rf() - (900e6 - 15e3)).abs() < 1.0);
        assert!((p.t2_period() - 1.0 / 15e3).abs() < 1e-12);
    }

    #[test]
    fn dc_operating_point_is_sane() {
        // Zero RF drive for exact symmetry (a live RF source contributes its
        // t = 0 value, ±A/2, at DC — physical, but not what we test here).
        let mixer = BalancedMixer::build(BalancedMixerParams {
            rf_amplitude: 0.0,
            rf_bits: vec![],
            ..Default::default()
        })
        .expect("build");
        let op = dc_operating_point(&mixer.circuit, Default::default()).expect("dc");
        let vp = op.solution[mixer.out_p];
        let vn = op.solution[mixer.out_n];
        let vc = op.solution[mixer.common];
        // Balanced: outputs equal at DC; all nodes within the rails.
        assert!(
            (vp - vn).abs() < 1e-6,
            "balanced outputs at DC: {vp} vs {vn}"
        );
        assert!(vp > 0.5 && vp < 3.0, "output inside rails: {vp}");
        assert!(vc > 0.0 && vc < vp, "common node below outputs: {vc}");
        // Lower pair actually conducts: voltage drop across loads.
        assert!(3.0 - vp > 0.05, "load current flows: drop {}", 3.0 - vp);
    }

    #[test]
    fn mixer_supports_bivariate_sources() {
        let mixer = BalancedMixer::build(BalancedMixerParams::default()).expect("build");
        assert!(mixer.circuit.supports_bivariate());
    }

    #[test]
    fn doubler_produces_second_harmonic_current() {
        // Drive only the LO (RF amplitude 0): the common node waveform
        // should be dominated by the 2·f_LO component, the doubler action.
        let mut params = BalancedMixerParams {
            rf_amplitude: 0.0,
            rf_bits: vec![],
            ..Default::default()
        };
        // Scale to a lower frequency for a quick transient check.
        params.f_lo = 1e6;
        params.fd = 10e3;
        let mixer = BalancedMixer::build(params).expect("build");
        let res = rfsim_circuit::transient::transient(
            &mixer.circuit,
            rfsim_circuit::transient::TransientOptions {
                t_stop: 4e-6,
                dt_init: 2e-9,
                dt_max: 4e-9,
                adaptive: false,
                ..Default::default()
            },
        )
        .expect("transient");
        // Use the last 2 periods for spectrum (steady after RC settles).
        let n = res.len();
        let tail: Vec<f64> = (n - 1000..n).map(|k| res.state(k)[mixer.common]).collect();
        // 1000 samples at 2 ns = 2 µs = 2 LO periods.
        let h1 = rfsim_numerics::fft::harmonic_amplitude(&tail, 2); // f_LO
        let h2 = rfsim_numerics::fft::harmonic_amplitude(&tail, 4); // 2·f_LO
        assert!(
            h2 > 3.0 * h1,
            "common node is frequency-doubled: |f_LO|={h1}, |2f_LO|={h2}"
        );
    }
}
