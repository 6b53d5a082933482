//! Source waveforms: single-time, and bivariate (multi-time) forms.
//!
//! The MPDE method's central object is the *bivariate representation* of an
//! excitation: a function `b̂(t1, t2)`, periodic in both arguments, with
//! `b̂(t, t) = b(t)`. [`BiWaveform`] encodes the representations used in the
//! paper — axis-aligned tones and the **sheared carrier** of eq. (11)/(13),
//! `A·cos(2π(k·f1·t1 − fd·t2) + φ)·m(fd·t2)`, whose diagonal is a modulated
//! tone at `f2 = k·f1 − fd`.
//!
//! Consistency by construction: a [`SourceSpec`] built from a `BiWaveform`
//! *derives* its single-time waveform from the diagonal, so transient and
//! MPDE analyses always see the same physical stimulus.

use std::f64::consts::PI;
use std::sync::Arc;

/// A scalar function of time, driving an independent source.
#[derive(Clone)]
pub enum Waveform {
    /// Constant value.
    Dc(f64),
    /// `offset + amplitude·sin(2π·freq·t + phase)`.
    Sine {
        /// Peak amplitude.
        amplitude: f64,
        /// Frequency in Hz.
        freq: f64,
        /// Phase in radians.
        phase: f64,
        /// DC offset.
        offset: f64,
    },
    /// SPICE-style trapezoidal pulse train.
    Pulse {
        /// Initial value.
        v1: f64,
        /// Pulsed value.
        v2: f64,
        /// Delay before the first edge.
        delay: f64,
        /// Rise time.
        rise: f64,
        /// Fall time.
        fall: f64,
        /// Width of the pulsed phase.
        width: f64,
        /// Repetition period (0 = single pulse).
        period: f64,
    },
    /// Piecewise-linear `(time, value)` points; clamped outside the range.
    Pwl(Arc<Vec<(f64, f64)>>),
    /// Arbitrary user function.
    Custom(Arc<dyn Fn(f64) -> f64 + Send + Sync>),
}

impl std::fmt::Debug for Waveform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Waveform::Dc(v) => write!(f, "Dc({v})"),
            Waveform::Sine {
                amplitude,
                freq,
                phase,
                offset,
            } => write!(f, "Sine(a={amplitude}, f={freq}, ph={phase}, off={offset})"),
            Waveform::Pulse { v1, v2, .. } => write!(f, "Pulse({v1}→{v2})"),
            Waveform::Pwl(pts) => write!(f, "Pwl({} points)", pts.len()),
            Waveform::Custom(_) => write!(f, "Custom(..)"),
        }
    }
}

impl Waveform {
    /// Zero-phase, zero-offset sine of given amplitude and frequency.
    pub fn sine(amplitude: f64, freq: f64) -> Self {
        Waveform::Sine {
            amplitude,
            freq,
            phase: 0.0,
            offset: 0.0,
        }
    }

    /// Cosine of given amplitude and frequency (sine with +90° phase).
    pub fn cosine(amplitude: f64, freq: f64) -> Self {
        Waveform::Sine {
            amplitude,
            freq,
            phase: PI / 2.0,
            offset: 0.0,
        }
    }

    /// Evaluates the waveform at time `t`.
    pub fn eval(&self, t: f64) -> f64 {
        match self {
            Waveform::Dc(v) => *v,
            Waveform::Sine {
                amplitude,
                freq,
                phase,
                offset,
            } => offset + amplitude * (2.0 * PI * freq * t + phase).sin(),
            Waveform::Pulse {
                v1,
                v2,
                delay,
                rise,
                fall,
                width,
                period,
            } => {
                let mut tau = t - delay;
                if tau < 0.0 {
                    return *v1;
                }
                if *period > 0.0 {
                    tau %= period;
                }
                if tau < *rise {
                    let frac = if *rise > 0.0 { tau / rise } else { 1.0 };
                    v1 + (v2 - v1) * frac
                } else if tau < rise + width {
                    *v2
                } else if tau < rise + width + fall {
                    let frac = if *fall > 0.0 {
                        (tau - rise - width) / fall
                    } else {
                        1.0
                    };
                    v2 + (v1 - v2) * frac
                } else {
                    *v1
                }
            }
            Waveform::Pwl(points) => {
                if points.is_empty() {
                    return 0.0;
                }
                if t <= points[0].0 {
                    return points[0].1;
                }
                if t >= points[points.len() - 1].0 {
                    return points[points.len() - 1].1;
                }
                let idx = points.partition_point(|&(pt, _)| pt <= t);
                let (t0, v0) = points[idx - 1];
                let (t1, v1) = points[idx];
                if t1 == t0 {
                    v1
                } else {
                    v0 + (v1 - v0) * (t - t0) / (t1 - t0)
                }
            }
            Waveform::Custom(f) => f(t),
        }
    }
}

/// A 1-periodic modulation envelope `m(u)`, used to modulate the sheared
/// carrier (the paper's bit-stream "tones", eq. 14).
#[derive(Clone)]
pub enum Envelope {
    /// Constant unit envelope: a pure tone.
    Unit,
    /// Antipodal (±1) bit sequence, one period spans all bits, with
    /// raised-cosine transitions of the given fractional width (0..0.5).
    Bits {
        /// The bit pattern, e.g. `vec![true, false, true, true]`.
        pattern: Arc<Vec<bool>>,
        /// Fraction of a bit slot spent in each transition edge.
        edge_fraction: f64,
    },
    /// Arbitrary 1-periodic function of the normalised argument `u ∈ [0,1)`.
    Custom(Arc<dyn Fn(f64) -> f64 + Send + Sync>),
}

impl std::fmt::Debug for Envelope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Envelope::Unit => write!(f, "Unit"),
            Envelope::Bits { pattern, .. } => write!(f, "Bits({} bits)", pattern.len()),
            Envelope::Custom(_) => write!(f, "Custom(..)"),
        }
    }
}

impl Envelope {
    /// Antipodal bit envelope with raised-cosine edges.
    pub fn bits(pattern: Vec<bool>, edge_fraction: f64) -> Self {
        Envelope::Bits {
            pattern: Arc::new(pattern),
            edge_fraction: edge_fraction.clamp(0.0, 0.5),
        }
    }

    /// Evaluates the envelope at normalised position `u` (wrapped into
    /// `[0, 1)`).
    pub fn eval(&self, u: f64) -> f64 {
        let u = u - u.floor();
        match self {
            Envelope::Unit => 1.0,
            Envelope::Bits {
                pattern,
                edge_fraction,
            } => {
                let nb = pattern.len();
                if nb == 0 {
                    return 1.0;
                }
                let pos = u * nb as f64;
                let slot = (pos.floor() as usize) % nb;
                let frac = pos - pos.floor();
                let cur = if pattern[slot] { 1.0 } else { -1.0 };
                let ef = *edge_fraction;
                if ef <= 0.0 {
                    return cur;
                }
                // Raised-cosine blend from the previous bit at slot start...
                if frac < ef {
                    let prev = if pattern[(slot + nb - 1) % nb] {
                        1.0
                    } else {
                        -1.0
                    };
                    let s = 0.5 * (1.0 - (PI * frac / ef).cos());
                    return prev + (cur - prev) * s;
                }
                cur
            }
            Envelope::Custom(f) => f(u),
        }
    }
}

/// A bivariate (multi-time) waveform `b̂(t1, t2)`.
///
/// Every variant satisfies the MPDE requirement `b̂(t, t) = b(t)` for the
/// single-time waveform returned by [`BiWaveform::diagonal`].
#[derive(Clone, Debug)]
pub enum BiWaveform {
    /// Depends on the fast axis only: `b̂(t1, t2) = w(t1)`.
    Axis1(Waveform),
    /// Depends on the slow axis only: `b̂(t1, t2) = w(t2)`.
    Axis2(Waveform),
    /// Separable product `w1(t1)·w2(t2)`.
    Product(Waveform, Waveform),
    /// The paper's sheared modulated carrier (eqs. 11, 13, 14):
    /// `A·cos(2π(k·f1·t1 − fd·t2) + φ)·m(fd·t2)`.
    ///
    /// On the diagonal `t1 = t2 = t` this is `A·cos(2π·f2·t + φ)·m(fd·t)`
    /// with `f2 = k·f1 − fd`: a carrier at `f2`, slowly modulated at the
    /// difference frequency `fd`.
    ShearedCarrier {
        /// Carrier amplitude `A`.
        amplitude: f64,
        /// Harmonic multiple `k` of the fast tone (`k = 2` for the
        /// LO-doubling mixer).
        k: u32,
        /// Fast (LO) frequency `f1` in Hz.
        f1: f64,
        /// Difference frequency `fd = k·f1 − f2` in Hz.
        fd: f64,
        /// Carrier phase `φ` in radians.
        phase: f64,
        /// 1-periodic modulation envelope evaluated at `fd·t2`.
        envelope: Envelope,
    },
}

impl BiWaveform {
    /// Evaluates `b̂(t1, t2)`.
    pub fn eval(&self, t1: f64, t2: f64) -> f64 {
        match self {
            BiWaveform::Axis1(w) => w.eval(t1),
            BiWaveform::Axis2(w) => w.eval(t2),
            BiWaveform::Product(w1, w2) => w1.eval(t1) * w2.eval(t2),
            BiWaveform::ShearedCarrier {
                amplitude,
                k,
                f1,
                fd,
                phase,
                envelope,
            } => {
                let carrier = (2.0 * PI * (*k as f64 * f1 * t1 - fd * t2) + phase).cos();
                amplitude * carrier * envelope.eval(fd * t2)
            }
        }
    }

    /// The diagonal single-time waveform `b(t) = b̂(t, t)`.
    pub fn diagonal(&self) -> Waveform {
        let me = self.clone();
        Waveform::Custom(Arc::new(move |t| me.eval(t, t)))
    }
}

/// Complete description of an independent source's time behaviour.
///
/// Sources built from a [`BiWaveform`] support both transient (via the
/// diagonal) and MPDE analyses; plain [`Waveform`] sources support MPDE only
/// if they are DC.
#[derive(Clone, Debug)]
pub struct SourceSpec {
    wave: Waveform,
    bi: Option<BiWaveform>,
}

impl SourceSpec {
    /// Single-time source (DC sources remain MPDE-compatible).
    pub fn uni(wave: Waveform) -> Self {
        SourceSpec { wave, bi: None }
    }

    /// Multi-time source; the single-time form is the diagonal, so the two
    /// descriptions are consistent by construction.
    pub fn bi(bi: BiWaveform) -> Self {
        SourceSpec {
            wave: bi.diagonal(),
            bi: Some(bi),
        }
    }

    /// Single-time evaluation `b(t)`.
    pub fn eval(&self, t: f64) -> f64 {
        self.wave.eval(t)
    }

    /// Bivariate evaluation `b̂(t1, t2)`, if available. DC sources evaluate
    /// to their constant on both axes.
    pub fn eval_bi(&self, t1: f64, t2: f64) -> Option<f64> {
        if let Some(bi) = &self.bi {
            return Some(bi.eval(t1, t2));
        }
        match &self.wave {
            Waveform::Dc(v) => Some(*v),
            _ => None,
        }
    }

    /// The underlying single-time waveform.
    pub fn waveform(&self) -> &Waveform {
        &self.wave
    }
}

impl From<Waveform> for SourceSpec {
    fn from(w: Waveform) -> Self {
        SourceSpec::uni(w)
    }
}

impl From<BiWaveform> for SourceSpec {
    fn from(b: BiWaveform) -> Self {
        SourceSpec::bi(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn dc_is_constant() {
        let w = Waveform::Dc(2.5);
        assert_eq!(w.eval(0.0), 2.5);
        assert_eq!(w.eval(1e9), 2.5);
    }

    #[test]
    fn sine_basics() {
        let w = Waveform::sine(2.0, 1.0);
        assert!(w.eval(0.0).abs() < 1e-15);
        assert!((w.eval(0.25) - 2.0).abs() < 1e-12);
        let c = Waveform::cosine(1.0, 1.0);
        assert!((c.eval(0.0) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn pulse_edges() {
        let w = Waveform::Pulse {
            v1: 0.0,
            v2: 1.0,
            delay: 1.0,
            rise: 0.1,
            fall: 0.1,
            width: 0.5,
            period: 2.0,
        };
        assert_eq!(w.eval(0.5), 0.0); // before delay
        assert!((w.eval(1.05) - 0.5).abs() < 1e-12); // mid-rise
        assert_eq!(w.eval(1.3), 1.0); // plateau
        assert!((w.eval(1.65) - 0.5).abs() < 1e-12); // mid-fall
        assert_eq!(w.eval(1.9), 0.0); // back to v1
        assert_eq!(w.eval(3.3), 1.0); // second period plateau
    }

    #[test]
    fn pwl_interpolates_and_clamps() {
        let w = Waveform::Pwl(Arc::new(vec![(0.0, 0.0), (1.0, 2.0), (2.0, 0.0)]));
        assert_eq!(w.eval(-1.0), 0.0);
        assert!((w.eval(0.5) - 1.0).abs() < 1e-15);
        assert!((w.eval(1.5) - 1.0).abs() < 1e-15);
        assert_eq!(w.eval(5.0), 0.0);
    }

    #[test]
    fn bits_envelope_antipodal() {
        let e = Envelope::bits(vec![true, false, true, true], 0.0);
        assert_eq!(e.eval(0.1), 1.0);
        assert_eq!(e.eval(0.3), -1.0);
        assert_eq!(e.eval(0.6), 1.0);
        assert_eq!(e.eval(0.9), 1.0);
        // periodic wrap
        assert_eq!(e.eval(1.1), 1.0);
        assert_eq!(e.eval(-0.7), -1.0);
    }

    #[test]
    fn bits_envelope_smooth_edges() {
        let e = Envelope::bits(vec![true, false], 0.2);
        // Halfway through the transition into bit 1 (u=0.5..0.5+0.1):
        let mid = e.eval(0.5 + 0.05);
        assert!(
            mid.abs() < 1e-12,
            "raised cosine midpoint should be 0, got {mid}"
        );
    }

    #[test]
    fn sheared_carrier_diagonal_is_modulated_tone() {
        // k=2, f1=450 MHz, fd=15 kHz => f2 = 900 MHz − 15 kHz.
        let bi = BiWaveform::ShearedCarrier {
            amplitude: 1.0,
            k: 2,
            f1: 450e6,
            fd: 15e3,
            phase: 0.0,
            envelope: Envelope::Unit,
        };
        let f2 = 900e6 - 15e3;
        for &t in &[0.0, 1.3e-9, 7.7e-8, 2.5e-5] {
            let expect = (2.0 * PI * f2 * t).cos();
            let got = bi.eval(t, t);
            assert!((got - expect).abs() < 1e-9, "t={t}: {got} vs {expect}");
        }
    }

    #[test]
    fn source_spec_bi_diagonal_consistency() {
        let bi = BiWaveform::ShearedCarrier {
            amplitude: 0.3,
            k: 1,
            f1: 1e9,
            fd: 10e3,
            phase: 0.7,
            envelope: Envelope::bits(vec![true, false, false, true], 0.1),
        };
        let spec = SourceSpec::bi(bi.clone());
        for &t in &[0.0, 1e-10, 3.7e-6, 9.9e-5] {
            assert!((spec.eval(t) - bi.eval(t, t)).abs() < 1e-12);
            assert!((spec.eval_bi(t, t).expect("bi") - spec.eval(t)).abs() < 1e-12);
        }
    }

    #[test]
    fn uni_non_dc_has_no_bivariate() {
        let spec = SourceSpec::uni(Waveform::sine(1.0, 1e6));
        assert!(spec.eval_bi(0.0, 0.0).is_none());
        let dc = SourceSpec::uni(Waveform::Dc(3.0));
        assert_eq!(dc.eval_bi(1.0, 2.0), Some(3.0));
    }

    #[test]
    fn axis_waveforms_pick_their_axis() {
        let b1 = BiWaveform::Axis1(Waveform::sine(1.0, 1.0));
        let b2 = BiWaveform::Axis2(Waveform::sine(1.0, 1.0));
        assert!((b1.eval(0.25, 0.0) - 1.0).abs() < 1e-12);
        assert!(b1.eval(0.0, 0.25).abs() < 1e-12);
        assert!((b2.eval(0.0, 0.25) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn product_waveform_multiplies() {
        let p = BiWaveform::Product(Waveform::Dc(2.0), Waveform::Dc(3.0));
        assert_eq!(p.eval(0.0, 0.0), 6.0);
    }

    proptest! {
        #[test]
        fn prop_diagonal_property_all_variants(t in -1e-3f64..1e-3) {
            // The defining MPDE property: b̂(t,t) equals the derived b(t).
            let variants: Vec<BiWaveform> = vec![
                BiWaveform::Axis1(Waveform::sine(1.0, 1e6)),
                BiWaveform::Axis2(Waveform::sine(0.5, 1e3)),
                BiWaveform::Product(Waveform::sine(1.0, 1e6), Waveform::Dc(2.0)),
                BiWaveform::ShearedCarrier {
                    amplitude: 1.2, k: 2, f1: 1e6, fd: 1e3, phase: 0.3,
                    envelope: Envelope::bits(vec![true, false, true], 0.15),
                },
            ];
            for bi in variants {
                let spec = SourceSpec::bi(bi.clone());
                prop_assert!((spec.eval(t) - bi.eval(t, t)).abs() < 1e-10);
            }
        }

        #[test]
        fn prop_envelope_periodic(u in -3.0f64..3.0) {
            let e = Envelope::bits(vec![true, false, true, true, false], 0.2);
            prop_assert!((e.eval(u) - e.eval(u + 1.0)).abs() < 1e-10);
            prop_assert!(e.eval(u).abs() <= 1.0 + 1e-12);
        }
    }
}
