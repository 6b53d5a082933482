//! The two-tone harmonic-balance baseline.
//!
//! Harmonic balance (HB) expands all circuit waveforms in Fourier series
//! and collocates the circuit equations spectrally. It handles closely and
//! widely spaced tones equally well **as long as waveforms are smooth** —
//! the paper's motivation is precisely that switching RF circuits produce
//! sharp waveforms whose Fourier representations converge slowly (Gibbs),
//! which is where the time-domain MPDE method wins.
//!
//! * [`hb2`] — two-tone HB: spectral collocation on the multitime grid
//!   (the frequency-domain counterpart of the sheared-MPDE solver).
//! * [`spectrum`] — Fourier-coefficient diagnostics (decay rates, Gibbs
//!   overshoot) used by the E9 comparison experiment.

pub mod hb2;
pub mod spectrum;

pub use hb2::{hb2_solve, hb2_solve_budgeted, Hb2Options, Hb2Result};
