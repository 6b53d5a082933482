//! Harmonic balance baselines.
//!
//! Harmonic balance (HB) expands all circuit waveforms in Fourier series
//! and collocates the circuit equations spectrally. It handles closely and
//! widely spaced tones equally well **as long as waveforms are smooth** —
//! the paper's motivation is precisely that switching RF circuits produce
//! sharp waveforms whose Fourier representations converge slowly (Gibbs),
//! which is where the time-domain MPDE method wins.
//!
//! * [`hb1`] — single-tone HB: spectral collocation over one period.
//! * [`hb2`] — two-tone HB: spectral collocation on the multitime grid
//!   (the frequency-domain counterpart of the sheared-MPDE solver).
//! * [`spectrum`] — Fourier-coefficient diagnostics (decay rates, Gibbs
//!   overshoot) used by the E9 comparison experiment.

pub mod hb1;
pub mod hb2;
pub mod spectrum;

pub use hb1::{hb1_pss, hb1_pss_budgeted, Hb1Options, Hb1Result};
pub use hb2::{hb2_solve, hb2_solve_budgeted, Hb2Options, Hb2Result};
